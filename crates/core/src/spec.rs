//! Config-as-data: one serializable description of a whole machine.
//!
//! A [`MachineSpec`] composes everything needed to reproduce a run —
//! core, memory hierarchy, branch predictor, RMT environment,
//! scheme/topology, and sampling plan — as one value with a strict JSON
//! codec (the in-tree `rmt_stats` codec; the workspace builds offline, so
//! there is no serde). [`MachineSpec::default`] reproduces the paper's
//! base machine bitwise; [`MachineSpec::for_kind`] applies the per-kind
//! defaults each [`DeviceKind`] historically received from the experiment
//! builder (PSR, per-thread store queues, cross-core delay, checker
//! latency).
//!
//! On top of the serialized form, [`MachineSpec::set`] implements dotted
//! key-path overrides (`spec.set("core.sq_entries", Json::U64(16))`), the
//! data plane behind every figure binary's `--set k=v` flag and the
//! declarative sweep driver. [`MachineSpec::diff`] reports the key paths
//! on which two specs disagree — how a CLI-resolved spec is replayed onto
//! every experiment of a figure grid.
//!
//! The codec is strict both ways: a missing key and an unknown key are
//! both errors (see [`MachineSpec::from_json`]), so a committed `config`
//! section can only drift loudly. The `chaos` fault-injection toggle is
//! deliberately not part of the spec: it is a build-time validation
//! hook, not a machine parameter.

use rmt_stats::Json;
use std::fmt;

mod codec;
mod sample;

pub use sample::{SampleMode, SamplePlan};

/// The machine configurations the paper evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// The unmodified base processor (one hardware thread per program).
    Base,
    /// The base processor running *two* copies of each program with no
    /// input replication or output comparison ("Base2" in Figure 6).
    Base2,
    /// SRT with preferential space redundancy (the paper's default after
    /// §7.1.1).
    Srt,
    /// SRT with per-thread store queues (§4.2).
    SrtPtsq,
    /// SRT without store comparison ("SRT + nosc" in Figure 6).
    SrtNosc,
    /// SRT without preferential space redundancy (§7.1.1's baseline).
    SrtNoPsr,
    /// Lockstepped dual core with an ideal zero-cycle checker.
    Lock0,
    /// Lockstepped dual core with an 8-cycle checker.
    Lock8,
    /// Chip-level redundant threading (the paper's contribution, §5).
    Crt,
    /// CRT's cross-coupling generalised to a four-core ring: program `i`
    /// leads on core `i % 4` and trails on core `(i + 1) % 4`, so every
    /// core mixes one program's leading thread with a *different*
    /// program's trailing thread — an arrangement the pre-fabric device
    /// layer could not express.
    CrtRing4,
}

impl DeviceKind {
    /// Every kind, in display order.
    pub const ALL: &'static [DeviceKind] = &[
        DeviceKind::Base,
        DeviceKind::Base2,
        DeviceKind::Srt,
        DeviceKind::SrtPtsq,
        DeviceKind::SrtNosc,
        DeviceKind::SrtNoPsr,
        DeviceKind::Lock0,
        DeviceKind::Lock8,
        DeviceKind::Crt,
        DeviceKind::CrtRing4,
    ];

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            DeviceKind::Base => "Base",
            DeviceKind::Base2 => "Base2",
            DeviceKind::Srt => "SRT",
            DeviceKind::SrtPtsq => "SRT+ptsq",
            DeviceKind::SrtNosc => "SRT+nosc",
            DeviceKind::SrtNoPsr => "SRT-noPSR",
            DeviceKind::Lock0 => "Lock0",
            DeviceKind::Lock8 => "Lock8",
            DeviceKind::Crt => "CRT",
            DeviceKind::CrtRing4 => "CRT-ring4",
        }
    }

    /// The inverse of [`DeviceKind::name`] (spec deserialization and
    /// `--set scheme.kind=SRT`).
    pub fn from_name(name: &str) -> Option<DeviceKind> {
        DeviceKind::ALL.iter().copied().find(|k| k.name() == name)
    }

    /// Hardware logical threads the machine runs per program: two for
    /// `Base2`, one for every other kind. Program `t`'s copies are the
    /// device's logical threads `t * copies ..`; the first is the one
    /// measured.
    pub fn copies(self) -> usize {
        match self {
            DeviceKind::Base2 => 2,
            _ => 1,
        }
    }
}

impl fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The redundancy arrangement and its device-level knobs: which
/// [`DeviceKind`] to assemble, the lockstep checker parameters, and the
/// ring width for [`DeviceKind::CrtRing4`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchemeSpec {
    /// The machine kind an experiment on this spec assembles.
    pub kind: DeviceKind,
    /// Lockstep checker latency in cycles (0 = Lock0's ideal checker,
    /// 8 = Lock8; ignored by non-lockstep kinds).
    pub checker_latency: u64,
    /// Cycles one lockstep store stream may lag the other before the
    /// checker declares a desynchronization.
    pub desync_window: u64,
    /// Cores in the CRT ring (CrtRing4 only; the paper's CRT is the
    /// two-core cross-coupled special case).
    pub ring: usize,
}

impl SchemeSpec {
    /// The scheme knobs [`DeviceKind`] `kind` historically received from
    /// the experiment builder.
    pub fn for_kind(kind: DeviceKind) -> Self {
        SchemeSpec {
            kind,
            checker_latency: match kind {
                DeviceKind::Lock8 => 8,
                _ => 0,
            },
            desync_window: 2_000,
            ring: 4,
        }
    }
}

impl Default for SchemeSpec {
    fn default() -> Self {
        SchemeSpec::for_kind(DeviceKind::Base)
    }
}

/// Error from spec (de)serialization or a key-path override: what went
/// wrong, naming the offending dotted key path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// Human-readable description naming the key path.
    pub message: String,
}

impl SpecError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        SpecError {
            message: message.into(),
        }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for SpecError {}

/// One serializable description of a whole machine (see the module docs).
///
/// The branch predictor geometry lives on
/// [`CoreConfig::predictor`](rmt_pipeline::CoreConfig) (the pipeline owns
/// the predictor), but serializes as its own top-level `predictor`
/// section, so the spec's JSON form has the six sections the paper's
/// machine description decomposes into: `core`, `hierarchy`, `predictor`,
/// `env`, `scheme`, `sample`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineSpec {
    /// Core configuration, including the predictor geometry and the RMT
    /// core-side toggles (PSR, per-thread store queues).
    pub core: rmt_pipeline::CoreConfig,
    /// Memory-system configuration.
    pub hierarchy: rmt_mem::HierarchyConfig,
    /// Forwarding-queue configuration (LVQ, LPQ, comparator).
    pub env: crate::rmt_env::RmtEnvConfig,
    /// Redundancy arrangement and device-level knobs.
    pub scheme: SchemeSpec,
    /// Sampled-simulation plan (used only by sampled runs; carried so one
    /// document reproduces either kind of run).
    pub sample: SamplePlan,
}

impl Default for MachineSpec {
    /// The paper's base machine (Table 1 / Figure 2), bitwise identical
    /// to what `Experiment::new(DeviceKind::Base)` always built.
    fn default() -> Self {
        MachineSpec::for_kind(DeviceKind::Base)
    }
}

impl MachineSpec {
    /// The default machine for `kind`: the paper's base processor plus
    /// the per-kind defaults the experiment builder historically applied
    /// (§4.2 per-thread store queues, §4.5 PSR, §5 cross-core delay,
    /// Lock8's checker latency).
    pub fn for_kind(kind: DeviceKind) -> Self {
        let mut core = rmt_pipeline::CoreConfig::base();
        let mut env = crate::rmt_env::RmtEnvConfig::default();
        match kind {
            DeviceKind::Srt | DeviceKind::SrtNosc => {
                core.preferential_space_redundancy = true;
            }
            DeviceKind::SrtPtsq => {
                core.preferential_space_redundancy = true;
                core.per_thread_store_queues = true;
            }
            DeviceKind::Crt | DeviceKind::CrtRing4 => {
                core.preferential_space_redundancy = true;
                env.cross_core_delay = 4;
                // §4.2: the cross-core verification latency makes the shared
                // store-queue partitioning the binding constraint; CRT uses
                // the paper's per-thread store queues.
                core.per_thread_store_queues = true;
            }
            _ => {}
        }
        if kind == DeviceKind::SrtNosc {
            env.store_comparison = false;
        }
        MachineSpec {
            core,
            hierarchy: rmt_mem::HierarchyConfig::default(),
            env,
            scheme: SchemeSpec::for_kind(kind),
            sample: SamplePlan::default(),
        }
    }

    /// The machine kind this spec assembles.
    pub fn kind(&self) -> DeviceKind {
        self.scheme.kind
    }

    /// The most programs (one logical thread each, a run's benchmarks)
    /// a machine built from this spec runs at once: its hardware contexts
    /// over the contexts each program takes. Base2 runs two copies of a
    /// program and SRT a pair of threads on one core; CRT spreads its
    /// pairs over two cores and the CRT ring over `scheme.ring` cores;
    /// each lockstepped core runs every program once.
    pub fn max_programs(&self) -> usize {
        let (cores, per_program) = match self.kind() {
            DeviceKind::Base => (1, 1),
            DeviceKind::Base2
            | DeviceKind::Srt
            | DeviceKind::SrtPtsq
            | DeviceKind::SrtNosc
            | DeviceKind::SrtNoPsr => (1, 2),
            DeviceKind::Lock0 | DeviceKind::Lock8 | DeviceKind::Crt => (2, 2),
            DeviceKind::CrtRing4 => (self.scheme.ring, 2),
        };
        cores.saturating_mul(self.core.max_threads) / per_program
    }

    /// Serializes to the six-section JSON document (strictly invertible
    /// by [`MachineSpec::from_json`]).
    pub fn to_json(&self) -> Json {
        codec::to_json(self)
    }

    /// Deserializes a six-section document. Strict: missing keys, unknown
    /// keys, and type mismatches are all errors naming the key path.
    ///
    /// # Errors
    ///
    /// [`SpecError`] describing the first offending key.
    pub fn from_json(doc: &Json) -> Result<MachineSpec, SpecError> {
        codec::from_json(doc)
    }

    /// Overrides one leaf by dotted key path, e.g.
    /// `spec.set("core.sq_entries", Json::U64(16))`. The edit round-trips
    /// through the strict codec, so a wrong path or an ill-typed value is
    /// rejected with the same diagnostics a hand-edited config file gets.
    ///
    /// # Errors
    ///
    /// [`SpecError`] if the path names no existing config key or the
    /// value does not type-check.
    pub fn set(&mut self, path: &str, value: Json) -> Result<(), SpecError> {
        let mut doc = self.to_json();
        let parts: Vec<&str> = path.split('.').collect();
        let (leaf, parents) = parts
            .split_last()
            .ok_or_else(|| SpecError::new("empty config key path"))?;
        let mut cur = &mut doc;
        for p in parents {
            cur = cur
                .get_mut(p)
                .ok_or_else(|| SpecError::new(format!("unknown config key path `{path}`")))?;
        }
        if cur.get(leaf).is_none() {
            return Err(SpecError::new(format!("unknown config key path `{path}`")));
        }
        cur.set(leaf, value);
        *self = MachineSpec::from_json(&doc)?;
        Ok(())
    }

    /// [`MachineSpec::set`] with the value in CLI text form (`--set k=v`):
    /// parsed as JSON when possible, else taken as a bare string — so
    /// `core.sq_entries=16`, `core.per_thread_store_queues=true` and
    /// `scheme.kind=SRT` all work unquoted.
    ///
    /// # Errors
    ///
    /// [`SpecError`] as for [`MachineSpec::set`].
    pub fn set_str(&mut self, path: &str, text: &str) -> Result<(), SpecError> {
        let value = rmt_stats::json::parse(text).unwrap_or_else(|_| Json::Str(text.to_string()));
        self.set(path, value)
    }

    /// The dotted key paths (and this spec's values) on which `self`
    /// differs from `base` — how CLI overrides are extracted from a
    /// resolved spec and replayed onto every experiment of a figure grid.
    pub fn diff(&self, base: &MachineSpec) -> Vec<(String, Json)> {
        let mut out = Vec::new();
        diff_walk("", &base.to_json(), &self.to_json(), &mut out);
        out
    }
}

/// Recursively compares two structurally identical documents, emitting
/// `(dotted path, new value)` for every differing leaf.
fn diff_walk(prefix: &str, base: &Json, new: &Json, out: &mut Vec<(String, Json)>) {
    match (base.members(), new.members()) {
        (Some(bm), Some(_)) => {
            for (key, bv) in bm {
                let path = if prefix.is_empty() {
                    key.clone()
                } else {
                    format!("{prefix}.{key}")
                };
                match new.get(key) {
                    Some(nv) => diff_walk(&path, bv, nv, out),
                    None => out.push((path, Json::Null)),
                }
            }
        }
        _ => {
            if base != new {
                out.push((prefix.to_string(), new.clone()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_paper_base_machine() {
        let s = MachineSpec::default();
        assert_eq!(s.core, rmt_pipeline::CoreConfig::base());
        assert_eq!(s.hierarchy, rmt_mem::HierarchyConfig::default());
        assert_eq!(s.env, crate::rmt_env::RmtEnvConfig::default());
        assert_eq!(s.kind(), DeviceKind::Base);
        assert_eq!(s.scheme.checker_latency, 0);
    }

    #[test]
    fn for_kind_applies_the_historical_defaults() {
        let srt = MachineSpec::for_kind(DeviceKind::Srt);
        assert!(srt.core.preferential_space_redundancy);
        assert!(!srt.core.per_thread_store_queues);

        let ptsq = MachineSpec::for_kind(DeviceKind::SrtPtsq);
        assert!(ptsq.core.per_thread_store_queues);

        let nosc = MachineSpec::for_kind(DeviceKind::SrtNosc);
        assert!(!nosc.env.store_comparison);

        let crt = MachineSpec::for_kind(DeviceKind::Crt);
        assert_eq!(crt.env.cross_core_delay, 4);
        assert!(crt.core.per_thread_store_queues);

        let lock8 = MachineSpec::for_kind(DeviceKind::Lock8);
        assert_eq!(lock8.scheme.checker_latency, 8);
        assert_eq!(lock8.scheme.desync_window, 2_000);
    }

    #[test]
    fn max_programs_counts_the_contexts_each_program_takes() {
        let programs = |kind, max_threads, ring| {
            let mut s = MachineSpec::for_kind(kind);
            s.core.max_threads = max_threads;
            s.scheme.ring = ring;
            s.max_programs()
        };
        assert_eq!(programs(DeviceKind::Base, 4, 4), 4);
        assert_eq!(programs(DeviceKind::Base2, 4, 4), 2);
        assert_eq!(programs(DeviceKind::Srt, 4, 4), 2);
        assert_eq!(programs(DeviceKind::SrtNoPsr, 1, 4), 0);
        assert_eq!(programs(DeviceKind::Lock8, 4, 4), 4);
        assert_eq!(programs(DeviceKind::Crt, 3, 4), 3);
        assert_eq!(programs(DeviceKind::CrtRing4, 4, 4), 8);
        assert_eq!(programs(DeviceKind::CrtRing4, 3, 3), 4);
    }

    #[test]
    fn kind_names_roundtrip() {
        for &k in DeviceKind::ALL {
            assert_eq!(DeviceKind::from_name(k.name()), Some(k));
        }
        assert_eq!(DeviceKind::from_name("nope"), None);
    }

    #[test]
    fn set_overrides_a_leaf() {
        let mut s = MachineSpec::default();
        s.set("core.sq_entries", Json::U64(16)).unwrap();
        assert_eq!(s.core.sq_entries, 16);
        s.set_str("env.lvq_entries", "128").unwrap();
        assert_eq!(s.env.lvq_entries, 128);
        s.set_str("hierarchy.l1d.size_bytes", "32768").unwrap();
        assert_eq!(s.hierarchy.l1d.size_bytes, 32_768);
        s.set_str("predictor.local_entries", "8192").unwrap();
        assert_eq!(s.core.predictor.local_entries, 8_192);
        s.set_str("scheme.kind", "SRT").unwrap();
        assert_eq!(s.kind(), DeviceKind::Srt);
        s.set_str("sample.mode", "random").unwrap();
        assert_eq!(s.sample.mode, SampleMode::Random { seed: 0 });
    }

    #[test]
    fn set_rejects_unknown_paths_and_bad_types() {
        let mut s = MachineSpec::default();
        let e = s.set("core.no_such_knob", Json::U64(1)).unwrap_err();
        assert!(e.message.contains("core.no_such_knob"), "{e}");
        let e = s.set("nowhere.at_all", Json::U64(1)).unwrap_err();
        assert!(e.message.contains("nowhere.at_all"), "{e}");
        let e = s
            .set("core.sq_entries", Json::Str("big".into()))
            .unwrap_err();
        assert!(e.message.contains("core.sq_entries"), "{e}");
        // A failed set leaves the spec untouched.
        assert_eq!(s, MachineSpec::default());
    }

    #[test]
    fn sample_plan_needs_a_window_and_a_measured_instruction() {
        // `set` round-trips through the codec `--config` files use too.
        let mut s = MachineSpec::default();
        for (path, bad) in [
            ("sample.windows", 0),
            ("sample.measure", 0),
            // A window's `warmup + measure` must fit in a u64.
            ("sample.warmup", u64::MAX),
        ] {
            let e = s.set(path, Json::U64(bad)).unwrap_err();
            assert!(e.message.contains(path), "{e}");
        }
        s.set("sample.warmup", Json::U64(u64::MAX - s.sample.measure))
            .unwrap();
    }

    #[test]
    fn diff_names_exactly_the_changed_paths() {
        let base = MachineSpec::default();
        let mut s = base.clone();
        assert!(s.diff(&base).is_empty());
        s.set("core.sq_entries", Json::U64(16)).unwrap();
        s.set("env.lvq_ecc", Json::Bool(true)).unwrap();
        let d = s.diff(&base);
        assert_eq!(
            d,
            vec![
                ("core.sq_entries".to_string(), Json::U64(16)),
                ("env.lvq_ecc".to_string(), Json::Bool(true)),
            ]
        );
        // Replaying the diff onto the base reproduces the spec.
        let mut replay = base.clone();
        for (path, v) in d {
            replay.set(&path, v).unwrap();
        }
        assert_eq!(replay, s);
    }
}
