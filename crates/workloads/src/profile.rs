//! Benchmark names and their synthesis profiles.

use std::fmt;

/// The 18 SPEC CPU95 benchmarks of the paper's Figure 6, plus nothing else.
///
/// Integer suite: compress, gcc, go, ijpeg, li, m88ksim, perl, vortex.
/// Floating-point suite: applu, apsi (the paper spells it "appsi"),
/// fpppp, hydro2d, mgrid, su2cor, swim, tomcatv, turb3d, wave5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)] // benchmark names document themselves
pub enum Benchmark {
    Applu,
    Apsi,
    Compress,
    Fpppp,
    Gcc,
    Go,
    Hydro2d,
    Ijpeg,
    Li,
    M88ksim,
    Mgrid,
    Perl,
    Su2cor,
    Swim,
    Tomcatv,
    Turb3d,
    Vortex,
    Wave5,
}

/// All 18 benchmarks in the paper's (alphabetical) Figure 6 order.
pub const ALL_BENCHMARKS: &[Benchmark] = &[
    Benchmark::Applu,
    Benchmark::Apsi,
    Benchmark::Compress,
    Benchmark::Fpppp,
    Benchmark::Gcc,
    Benchmark::Go,
    Benchmark::Hydro2d,
    Benchmark::Ijpeg,
    Benchmark::Li,
    Benchmark::M88ksim,
    Benchmark::Mgrid,
    Benchmark::Perl,
    Benchmark::Su2cor,
    Benchmark::Swim,
    Benchmark::Tomcatv,
    Benchmark::Turb3d,
    Benchmark::Vortex,
    Benchmark::Wave5,
];

impl Benchmark {
    /// The benchmark's lowercase display name (as in the paper's figures).
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Applu => "applu",
            Benchmark::Apsi => "apsi",
            Benchmark::Compress => "compress",
            Benchmark::Fpppp => "fpppp",
            Benchmark::Gcc => "gcc",
            Benchmark::Go => "go",
            Benchmark::Hydro2d => "hydro2d",
            Benchmark::Ijpeg => "ijpeg",
            Benchmark::Li => "li",
            Benchmark::M88ksim => "m88ksim",
            Benchmark::Mgrid => "mgrid",
            Benchmark::Perl => "perl",
            Benchmark::Su2cor => "su2cor",
            Benchmark::Swim => "swim",
            Benchmark::Tomcatv => "tomcatv",
            Benchmark::Turb3d => "turb3d",
            Benchmark::Vortex => "vortex",
            Benchmark::Wave5 => "wave5",
        }
    }

    /// The inverse of [`Benchmark::name`] (`--benches` lists and service
    /// requests).
    pub fn from_name(name: &str) -> Option<Benchmark> {
        ALL_BENCHMARKS.iter().copied().find(|b| b.name() == name)
    }

    /// Whether this is a SPECfp95 benchmark.
    pub fn is_fp(self) -> bool {
        matches!(
            self,
            Benchmark::Applu
                | Benchmark::Apsi
                | Benchmark::Fpppp
                | Benchmark::Hydro2d
                | Benchmark::Mgrid
                | Benchmark::Su2cor
                | Benchmark::Swim
                | Benchmark::Tomcatv
                | Benchmark::Turb3d
                | Benchmark::Wave5
        )
    }

    /// A stable small integer id (used to derive per-benchmark RNG streams).
    pub fn id(self) -> u64 {
        ALL_BENCHMARKS
            .iter()
            .position(|b| *b == self)
            .expect("benchmark in table") as u64
    }

    /// The synthesis profile for this benchmark.
    pub fn profile(self) -> Profile {
        use Benchmark::*;
        // Kernel weights: (stream, stencil, pointer_chase, int_compute,
        //                  hash_update, branchy, calls)
        match self {
            // --- SPECint95 ---
            Gcc => Profile {
                kernel_weights: [0.5, 0.0, 1.5, 1.5, 0.5, 2.5, 2.0],
                working_set: 96 * 1024,
                branch_bias: 0.85,
                code_kernels: 40,
                fp: false,
                unroll: 3,
            },
            Go => Profile {
                kernel_weights: [0.3, 0.0, 1.0, 2.0, 0.3, 3.5, 1.5],
                working_set: 64 * 1024,
                branch_bias: 0.70,
                code_kernels: 36,
                fp: false,
                unroll: 2,
            },
            Compress => Profile {
                kernel_weights: [0.5, 0.0, 0.8, 2.0, 3.0, 1.2, 0.3],
                working_set: 256 * 1024,
                branch_bias: 0.80,
                code_kernels: 10,
                fp: false,
                unroll: 3,
            },
            Ijpeg => Profile {
                kernel_weights: [1.5, 1.0, 0.2, 3.5, 0.5, 0.6, 0.4],
                working_set: 96 * 1024,
                branch_bias: 0.92,
                code_kernels: 14,
                fp: false,
                unroll: 6,
            },
            Li => Profile {
                kernel_weights: [0.2, 0.0, 2.5, 1.0, 0.3, 1.0, 2.5],
                working_set: 32 * 1024,
                branch_bias: 0.85,
                code_kernels: 20,
                fp: false,
                unroll: 2,
            },
            M88ksim => Profile {
                kernel_weights: [0.5, 0.0, 0.6, 2.5, 0.4, 1.2, 1.2],
                working_set: 32 * 1024,
                branch_bias: 0.90,
                code_kernels: 16,
                fp: false,
                unroll: 4,
            },
            Perl => Profile {
                kernel_weights: [0.3, 0.0, 2.0, 1.2, 0.8, 1.8, 2.2],
                working_set: 96 * 1024,
                branch_bias: 0.82,
                code_kernels: 28,
                fp: false,
                unroll: 2,
            },
            Vortex => Profile {
                kernel_weights: [0.8, 0.0, 2.2, 1.0, 1.0, 1.0, 1.8],
                working_set: 192 * 1024,
                branch_bias: 0.88,
                code_kernels: 30,
                fp: false,
                unroll: 3,
            },
            // --- SPECfp95 ---
            Applu => Profile {
                kernel_weights: [2.5, 2.0, 0.0, 0.6, 0.0, 0.2, 0.2],
                working_set: 1024 * 1024,
                branch_bias: 0.97,
                code_kernels: 10,
                fp: true,
                unroll: 6,
            },
            Apsi => Profile {
                kernel_weights: [2.0, 1.5, 0.1, 1.0, 0.0, 0.4, 0.4],
                working_set: 512 * 1024,
                branch_bias: 0.95,
                code_kernels: 12,
                fp: true,
                unroll: 5,
            },
            Fpppp => Profile {
                kernel_weights: [0.35, 0.15, 0.0, 1.8, 0.0, 0.1, 0.2],
                working_set: 48 * 1024,
                branch_bias: 0.985,
                code_kernels: 8,
                fp: true,
                unroll: 5,
            },
            Hydro2d => Profile {
                kernel_weights: [2.2, 2.2, 0.0, 0.5, 0.0, 0.3, 0.2],
                working_set: 768 * 1024,
                branch_bias: 0.96,
                code_kernels: 10,
                fp: true,
                unroll: 6,
            },
            Mgrid => Profile {
                kernel_weights: [1.5, 3.5, 0.0, 0.3, 0.0, 0.1, 0.1],
                working_set: 1536 * 1024,
                branch_bias: 0.985,
                code_kernels: 8,
                fp: true,
                unroll: 6,
            },
            Su2cor => Profile {
                kernel_weights: [2.5, 1.2, 0.2, 0.8, 0.0, 0.3, 0.3],
                working_set: 1024 * 1024,
                branch_bias: 0.95,
                code_kernels: 12,
                fp: true,
                unroll: 5,
            },
            Swim => Profile {
                kernel_weights: [3.5, 1.5, 0.0, 0.2, 0.0, 0.1, 0.1],
                working_set: 1536 * 1024,
                branch_bias: 0.99,
                code_kernels: 6,
                fp: true,
                unroll: 7,
            },
            Tomcatv => Profile {
                kernel_weights: [3.0, 2.0, 0.0, 0.3, 0.0, 0.1, 0.1],
                working_set: 1280 * 1024,
                branch_bias: 0.985,
                code_kernels: 6,
                fp: true,
                unroll: 6,
            },
            Turb3d => Profile {
                kernel_weights: [2.0, 1.8, 0.0, 0.8, 0.0, 0.3, 0.4],
                working_set: 512 * 1024,
                branch_bias: 0.94,
                code_kernels: 12,
                fp: true,
                unroll: 5,
            },
            Wave5 => Profile {
                kernel_weights: [2.5, 1.5, 0.2, 0.6, 0.0, 0.3, 0.2],
                working_set: 768 * 1024,
                branch_bias: 0.95,
                code_kernels: 10,
                fp: true,
                unroll: 5,
            },
        }
    }
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Parameters steering program synthesis for one benchmark.
///
/// The seven `kernel_weights` entries weight the generator's kernel types:
/// `[stream, stencil, pointer_chase, int_compute, hash_update, branchy,
/// calls]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Profile {
    /// Relative weights of the seven kernel types.
    pub kernel_weights: [f64; 7],
    /// Bytes of data the program touches (drives cache behaviour).
    pub working_set: u64,
    /// Probability that a data-dependent branch goes its majority way
    /// (drives branch/line misprediction rates; lower = less predictable).
    pub branch_bias: f64,
    /// Number of kernels instantiated (drives code footprint and
    /// I-cache/line-predictor pressure).
    pub code_kernels: usize,
    /// Whether arithmetic kernels use FP stand-in opcodes.
    pub fp: bool,
    /// Loop unrolling factor inside kernels (drives ILP).
    pub unroll: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eighteen_benchmarks() {
        assert_eq!(ALL_BENCHMARKS.len(), 18);
    }

    #[test]
    fn names_are_unique_and_lowercase() {
        let mut names: Vec<&str> = ALL_BENCHMARKS.iter().map(|b| b.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 18);
        for n in names {
            assert!(n
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit()));
        }
        for &b in ALL_BENCHMARKS {
            assert_eq!(Benchmark::from_name(b.name()), Some(b));
        }
        assert_eq!(Benchmark::from_name("Gcc"), None);
        assert_eq!(Benchmark::from_name(""), None);
    }

    #[test]
    fn ids_are_dense() {
        for (i, b) in ALL_BENCHMARKS.iter().enumerate() {
            assert_eq!(b.id(), i as u64);
        }
    }

    #[test]
    fn fp_split_matches_spec95() {
        let fp_count = ALL_BENCHMARKS.iter().filter(|b| b.is_fp()).count();
        assert_eq!(fp_count, 10);
        assert!(Benchmark::Swim.is_fp());
        assert!(!Benchmark::Gcc.is_fp());
    }

    #[test]
    fn profiles_are_sane() {
        for &b in ALL_BENCHMARKS {
            let p = b.profile();
            assert!(p.working_set >= 32 * 1024, "{b}");
            assert!((0.5..=1.0).contains(&p.branch_bias), "{b}");
            assert!(p.code_kernels >= 4, "{b}");
            assert!(p.unroll >= 1, "{b}");
            assert!(p.kernel_weights.iter().sum::<f64>() > 0.0, "{b}");
            assert_eq!(p.fp, b.is_fp(), "{b}");
        }
    }

    #[test]
    fn go_is_least_predictable() {
        let go = Benchmark::Go.profile().branch_bias;
        for &b in ALL_BENCHMARKS {
            assert!(go <= b.profile().branch_bias, "{b}");
        }
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(Benchmark::M88ksim.to_string(), "m88ksim");
    }
}
