//! An independent reference for the sweep arithmetic.
//!
//! A sweep request executes as expand → cells → merge, the same path a
//! distributed fleet takes, so comparing it with itself proves nothing
//! about the numbers. Here every expected efficiency is built from direct
//! [`Experiment`] runs instead: the swept machine's thread-0 IPC over the
//! thread-0 IPC of a Base run of the same benchmark at the default cycle
//! budget, with row means taken by [`mean`]. The served document must
//! match to the bit at any `jobs` level. The axis lists one value twice,
//! so two plan cells share a digest and are computed once.
//!
//! A sweep whose base edits the machine divides by the Base machine with
//! the same edits — the rule figure tables follow for `--set` overrides —
//! so its cell equals the matching figure cell bit for bit.

use rmt_core::{DeviceKind, MachineSpec};
use rmt_sim::figures::{fig6_srt_single, FigureCtx};
use rmt_sim::service::{ServiceRequest, SWEEP_MAX_CYCLE_FACTOR};
use rmt_sim::{Experiment, SimScale};
use rmt_stats::json::parse;
use rmt_stats::metrics::mean;
use rmt_stats::Json;
use rmt_workloads::Benchmark;

const BENCHES: [Benchmark; 2] = [Benchmark::M88ksim, Benchmark::Ijpeg];
const VALUES: [u64; 3] = [16, 64, 16];
const SEED: u64 = 2;
const WARMUP: u64 = 500;
const MEASURE: u64 = 2_000;

fn request() -> ServiceRequest {
    let doc = parse(&format!(
        r#"{{"type": "sweep",
            "sweep": {{"name": "reference", "base": "SRT",
                      "benches": ["m88ksim", "ijpeg"],
                      "axes": [{{"path": "core.sq_entries", "values": {VALUES:?}}}]}},
            "scale": {{"warmup": {WARMUP}, "measure": {MEASURE}, "seed": {SEED}}}}}"#
    ))
    .unwrap();
    ServiceRequest::from_json(&doc).unwrap()
}

fn ipc(e: Experiment, bench: Benchmark) -> f64 {
    e.benchmark(bench)
        .seed(SEED)
        .warmup(WARMUP)
        .measure(MEASURE)
        .run()
        .unwrap()
        .ipc(0)
}

/// `effs[value][bench]`, computed from direct runs.
fn expected_effs() -> Vec<Vec<f64>> {
    let base: Vec<f64> = BENCHES
        .iter()
        .map(|&b| ipc(Experiment::new(DeviceKind::Base), b))
        .collect();
    VALUES
        .iter()
        .map(|&v| {
            let mut spec = MachineSpec::for_kind(DeviceKind::Srt);
            spec.set("core.sq_entries", Json::U64(v)).unwrap();
            BENCHES
                .iter()
                .zip(&base)
                .map(|(&b, &denom)| {
                    let e = Experiment::from_spec(spec.clone())
                        .max_cycle_factor(SWEEP_MAX_CYCLE_FACTOR);
                    ipc(e, b) / denom
                })
                .collect()
        })
        .collect()
}

fn f64_at(doc: &Json, key: &str) -> f64 {
    doc.get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("`{key}` is not a number in {}", doc.encode()))
}

#[test]
fn sweep_efficiencies_match_direct_experiment_runs_bitwise() {
    let expected = expected_effs();
    let req = request();
    for jobs in [1, 3] {
        let doc = req.execute(jobs, None).unwrap();
        let rows = doc.get("sweep").and_then(Json::as_array).unwrap();
        assert_eq!(rows.len(), VALUES.len(), "one row per listed value");
        let summary = doc.get("summary").unwrap();
        for ((row, &value), effs) in rows.iter().zip(&VALUES).zip(&expected) {
            assert_eq!(row.get("value"), Some(&Json::U64(value)));
            let got = row.get("effs").unwrap();
            for (b, &want) in BENCHES.iter().zip(effs) {
                assert_eq!(
                    f64_at(got, b.name()).to_bits(),
                    want.to_bits(),
                    "jobs {jobs}: sq_entries={value} {b}"
                );
            }
            let m = mean(effs);
            assert_eq!(f64_at(row, "mean_eff").to_bits(), m.to_bits());
            let key = format!("core.sq_entries={value}");
            assert_eq!(f64_at(summary, &key).to_bits(), m.to_bits(), "{key}");
        }
        let keys = summary.members().unwrap().len();
        assert_eq!(keys, 2, "the duplicated value shares one summary key");
    }
}

#[test]
fn an_edited_sweep_base_divides_by_the_same_edited_base_machine() {
    let sq16 = |kind| {
        let mut spec = MachineSpec::for_kind(kind);
        spec.set("core.sq_entries", Json::U64(16)).unwrap();
        spec
    };
    let doc = parse(&format!(
        r#"{{"type": "sweep", "scale": {{"warmup": 500, "measure": 2000, "seed": 1}},
            "sweep": {{"name": "edited", "base": {}, "benches": ["m88ksim"],
                      "axes": [{{"path": "env.lvq_entries", "values": [64]}}]}}}}"#,
        sq16(DeviceKind::Srt).to_json().encode()
    ))
    .unwrap();
    let req = ServiceRequest::from_json(&doc).unwrap();
    let served = req.execute(1, None).unwrap();
    let row = &served.get("sweep").and_then(Json::as_array).unwrap()[0];
    let eff = f64_at(row.get("effs").unwrap(), "m88ksim");

    // Direct runs: the swept machine over the Base machine with the same
    // store-queue edit.
    let run = |kind| {
        let e = Experiment::from_spec(sq16(kind)).benchmark(Benchmark::M88ksim);
        e.seed(1).warmup(500).measure(2_000).run().unwrap().ipc(0)
    };
    let direct = run(DeviceKind::Srt) / run(DeviceKind::Base);
    assert_eq!(
        eff.to_bits(),
        direct.to_bits(),
        "sweep {eff} vs direct {direct}"
    );

    // Figure 6's SRT cell under `--set core.sq_entries=16`.
    let scale = SimScale {
        warmup: 500,
        measure: 2_000,
        seed: 1,
    };
    let ctx = FigureCtx::new(1).with_overrides(vec![("core.sq_entries".into(), Json::U64(16))]);
    let fig = fig6_srt_single(&ctx, scale, &[Benchmark::M88ksim]);
    let cell = fig.value("SRT_mean_efficiency");
    assert_eq!(
        eff.to_bits(),
        cell.to_bits(),
        "sweep {eff} vs figure {cell}"
    );
    assert_eq!(format!("{eff:.4}"), "0.7750");
}
