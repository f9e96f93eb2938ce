//! Output digests the workloads must reproduce.
//!
//! `detailed_suite` and `sampled_suite` simulate the same programs for
//! every seed, so one digest covers all seeds; the detailed one is the
//! digest of the `metrics` section of the standard-scale aggregate
//! document committed at the repository root.
//! The other workloads' inputs follow the seed, and seeds 1 and 2 are
//! pinned.

use crate::workloads::Outcome;

/// `(workload, seed or every seed, digest)`.
const PINS: &[(&str, Option<u64>, &str)] = &[
    ("detailed_suite", None, "d2d9514815fcc689efbd1ed2d3cd7513"),
    ("sampled_suite", None, "219a1b9a9a0356a7ef0fe75622219f18"),
    ("serve_mixed", Some(1), "f1a897a81fb74cc9f29a46f38d1dcd74"),
    ("serve_mixed", Some(2), "0625fc033214b7983a00312af693706b"),
    // The merged digest the committed cluster scaling snapshot records.
    ("cluster_sweep", Some(1), "6fa336210838c0fbb9912628e42932b3"),
    ("cluster_sweep", Some(2), "df633e4e23bfc2bb3e3fd351c1079a8a"),
];

/// Fails one operation of `out` if its output digest differs from a pin.
pub fn check(workload: &str, seed: u64, tiny: bool, out: &mut Outcome) {
    if tiny {
        return;
    }
    for &(w, s, digest) in PINS {
        if w == workload && s.is_none_or(|s| s == seed) {
            let got = out.digest.clone();
            out.expect_eq("pinned output digest", &got, digest);
        }
    }
}
