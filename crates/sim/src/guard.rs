//! Refactor-guard reference points: every [`DeviceKind`] run once at
//! `--quick` scale and once at `--standard` scale, distilled into
//! comparable records.
//!
//! `results/refactor_guard_quick.json` and
//! `results/refactor_guard_standard.json` (generated by the `guard_golden`
//! binary, compared by `tests/refactor_guard.rs`) pin the exact behaviour
//! of every machine the factory can build — measured cycles, per-thread
//! outcomes, detected faults and a digest of the full metric snapshot —
//! so that structural refactors of the device layer are provably
//! bitwise-neutral at both scales. The standard-scale points additionally
//! run under the co-simulation oracle, so replaying them also proves a
//! full standard-scale cell of every kind commits divergence-free.

use crate::experiment::{DeviceKind, Experiment, VerifyError};
use rmt_stats::fields::{FieldError, Fields};
use rmt_stats::Json;
use rmt_workloads::Benchmark;

/// The scale guard points run at (matches `SimScale::quick`).
pub const GUARD_WARMUP: u64 = 2_000;
/// Measured instructions per thread for guard points.
pub const GUARD_MEASURE: u64 = 10_000;
/// Workload seed for guard points.
pub const GUARD_SEED: u64 = 1;
/// Warmup for standard-scale guard points (matches `SimScale::standard`).
pub const STANDARD_WARMUP: u64 = 40_000;
/// Measured instructions for standard-scale guard points.
pub const STANDARD_MEASURE: u64 = 80_000;

/// One reference configuration: a device kind on a benchmark set.
#[derive(Debug, Clone)]
pub struct GuardPoint {
    /// Stable record name (`kind/mix`).
    pub name: String,
    /// The machine to build.
    pub kind: DeviceKind,
    /// The logical threads to run.
    pub benches: Vec<Benchmark>,
}

/// Every device kind on one benchmark, plus a multithreaded CRT point
/// (cross-coupled placement) — together these exercise every construction
/// path of the device factory.
pub fn guard_points() -> Vec<GuardPoint> {
    let mut pts: Vec<GuardPoint> = DeviceKind::ALL
        .iter()
        .map(|&kind| GuardPoint {
            name: format!("{}/m88ksim", kind.name()),
            kind,
            benches: vec![Benchmark::M88ksim],
        })
        .collect();
    pts.push(GuardPoint {
        name: "CRT/gcc+swim".into(),
        kind: DeviceKind::Crt,
        benches: vec![Benchmark::Gcc, Benchmark::Swim],
    });
    pts
}

/// One standard-scale cell per [`DeviceKind`] — the same `(kind,
/// benchmark, seed)` cells the Figure 6 table runs at `--standard` scale.
/// Each replays under the co-simulation oracle, so the committed golden
/// doubles as proof that every kind's full standard-scale run is
/// divergence-free.
pub fn standard_points() -> Vec<GuardPoint> {
    DeviceKind::ALL
        .iter()
        .map(|&kind| GuardPoint {
            name: format!("{}/m88ksim", kind.name()),
            kind,
            benches: vec![Benchmark::M88ksim],
        })
        .collect()
}

/// The distilled, exactly-comparable outcome of one guard point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuardRecord {
    /// The guard point's name.
    pub name: String,
    /// Measured-interval cycles.
    pub cycles: u64,
    /// Faults detected during measurement (0 fault-free).
    pub faults: u64,
    /// Per-logical-thread `(committed, cycles)` in the measured window.
    pub per_thread: Vec<(u64, u64)>,
    /// FNV-1a digest of the full metric snapshot's JSON encoding.
    pub metrics_fnv: u64,
}

/// 64-bit FNV-1a.
pub fn fnv64(text: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in text.as_bytes() {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Runs one guard point at the fixed quick scale.
///
/// # Panics
///
/// Panics if the underlying experiment fails (a guard configuration must
/// always complete).
pub fn run_point(p: &GuardPoint) -> GuardRecord {
    let r = Experiment::new(p.kind)
        .benchmarks(&p.benches)
        .seed(GUARD_SEED)
        .warmup(GUARD_WARMUP)
        .measure(GUARD_MEASURE)
        .run()
        .unwrap_or_else(|e| panic!("guard point {} failed: {e}", p.name));
    distill(p, r)
}

/// Runs one guard point at standard scale with the co-simulation oracle
/// cross-checking every commit. Returns the record plus the number of
/// commits checked.
///
/// # Panics
///
/// Panics if the experiment fails or any commit diverges from the
/// reference interpreter (with the rendered divergence and trail).
pub fn run_standard_point(p: &GuardPoint) -> (GuardRecord, u64) {
    let v = Experiment::new(p.kind)
        .benchmarks(&p.benches)
        .seed(GUARD_SEED)
        .warmup(STANDARD_WARMUP)
        .measure(STANDARD_MEASURE)
        .run_verified()
        .unwrap_or_else(|e| match e {
            VerifyError::Divergence(d) => {
                panic!("guard point {} diverged:\n{}", p.name, d.render())
            }
            VerifyError::Sim(e) => panic!("guard point {} failed: {e}", p.name),
        });
    (distill(p, v.result), v.commits_checked)
}

fn distill(p: &GuardPoint, r: crate::experiment::RunResult) -> GuardRecord {
    GuardRecord {
        name: p.name.clone(),
        cycles: r.cycles,
        faults: r.faults_detected() as u64,
        per_thread: r
            .per_thread
            .iter()
            .map(|t| (t.committed, t.cycles))
            .collect(),
        metrics_fnv: fnv64(&r.metrics.to_json().encode()),
    }
}

/// Renders records into the committed golden document (quick scale).
pub fn golden_to_json(records: &[GuardRecord]) -> Json {
    golden_to_json_at(records, GUARD_WARMUP, GUARD_MEASURE)
}

/// Renders records into a golden document with an explicit scale header.
pub fn golden_to_json_at(records: &[GuardRecord], warmup: u64, measure: u64) -> Json {
    let entries = records
        .iter()
        .map(|r| {
            Json::obj()
                .with("name", Json::Str(r.name.clone()))
                .with("cycles", Json::U64(r.cycles))
                .with("faults", Json::U64(r.faults))
                .with(
                    "per_thread",
                    Json::Arr(
                        r.per_thread
                            .iter()
                            .map(|&(c, cy)| {
                                Json::obj()
                                    .with("committed", Json::U64(c))
                                    .with("cycles", Json::U64(cy))
                            })
                            .collect(),
                    ),
                )
                .with("metrics_fnv", Json::Str(format!("{:#018x}", r.metrics_fnv)))
        })
        .collect();
    Json::obj()
        .with(
            "scale",
            Json::obj()
                .with("warmup", Json::U64(warmup))
                .with("measure", Json::U64(measure))
                .with("seed", Json::U64(GUARD_SEED)),
        )
        .with("entries", Json::Arr(entries))
}

/// Parses a golden document back into records.
///
/// # Errors
///
/// Returns a message describing the first malformed field.
pub fn parse_golden(doc: &Json) -> Result<Vec<GuardRecord>, String> {
    let pair = |mut t: Fields| Ok::<_, FieldError>((t.u64("committed")?, t.u64("cycles")?));
    let record = |mut e: Fields| {
        let fnv_text = e.str("metrics_fnv")?;
        let metrics_fnv = u64::from_str_radix(fnv_text.trim_start_matches("0x"), 16)
            .map_err(|err| e.invalid("metrics_fnv", format!("is not a hex digest: {err}")))?;
        Ok::<_, FieldError>(GuardRecord {
            name: e.str("name")?.to_string(),
            cycles: e.u64("cycles")?,
            faults: e.u64("faults")?,
            per_thread: e.objects("per_thread", pair)?,
            metrics_fnv,
        })
    };
    Ok(Fields::new(doc)?.objects("entries", record)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv64(""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv64("a"), fnv64("b"));
    }

    #[test]
    fn golden_round_trips() {
        let records = vec![GuardRecord {
            name: "Base/m88ksim".into(),
            cycles: 1234,
            faults: 0,
            per_thread: vec![(10_000, 1234)],
            metrics_fnv: 0xdead_beef,
        }];
        let doc = golden_to_json(&records);
        let parsed = parse_golden(&rmt_stats::json::parse(&doc.encode()).unwrap()).unwrap();
        assert_eq!(parsed, records);
    }

    #[test]
    fn guard_points_cover_every_kind() {
        let pts = guard_points();
        for &kind in DeviceKind::ALL {
            assert!(
                pts.iter().any(|p| p.kind == kind),
                "no guard point for {kind}"
            );
        }
    }
}
