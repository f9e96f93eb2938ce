//! Invariants of the metrics layer, checked end-to-end through real
//! devices: cycle accounting must conserve issue slots (every slot of
//! every cycle attributed to exactly one category), snapshots must be
//! reproducible, and the JSON rendering must round-trip.

use rmt::core::{Device, DeviceKind, LogicalThread, Machine, MachineSpec};
use rmt::pipeline::CoreConfig;
use rmt::stats::{MetricsRegistry, MetricsSnapshot};
use rmt::workloads::{Benchmark, Workload};

fn spec(kind: DeviceKind) -> MachineSpec {
    MachineSpec::for_kind(kind)
}

fn snapshot(dev: &dyn Device) -> MetricsSnapshot {
    let mut reg = MetricsRegistry::new();
    dev.export_metrics(&mut reg);
    reg.snapshot()
}

const SLOT_COUNTERS: [&str; 7] = [
    "issued",
    "window_empty",
    "data_wait",
    "structural_fu",
    "structural_iq_half",
    "squash_recovery",
    "sphere_wait",
];

/// Every issue slot of every cycle is attributed to exactly one category:
/// the seven slot counters must total `issue_width × cycles`.
fn assert_conservation(snap: &MetricsSnapshot, core_prefixes: &[&str]) {
    let width = CoreConfig::base().issue_width as u64;
    for prefix in core_prefixes {
        let cycles = snap
            .counter(&format!("{prefix}/cycles"))
            .unwrap_or_else(|| panic!("missing `{prefix}/cycles`"));
        assert!(cycles > 0, "`{prefix}` never ticked");
        let total: u64 = SLOT_COUNTERS
            .iter()
            .map(|slot| {
                snap.counter(&format!("{prefix}/slots/{slot}"))
                    .unwrap_or_else(|| panic!("missing `{prefix}/slots/{slot}`"))
            })
            .sum();
        assert_eq!(
            total,
            width * cycles,
            "`{prefix}`: {total} attributed slots over {cycles} cycles at width {width}"
        );
        assert!(
            snap.counter(&format!("{prefix}/slots/issued")).unwrap() > 0,
            "`{prefix}` issued nothing"
        );
    }
}

#[test]
fn base_device_conserves_issue_slots() {
    let w = Workload::generate(Benchmark::Gcc, 5);
    let mut dev = Machine::independent(&spec(DeviceKind::Base), vec![LogicalThread::from(&w)]);
    assert!(dev.run_until_committed(8_000, 4_000_000));
    let snap = snapshot(&dev);
    assert_conservation(&snap, &["core0"]);
}

#[test]
fn srt_device_conserves_issue_slots_and_exports_rmt_state() {
    let w = Workload::generate(Benchmark::Compress, 5);
    let mut dev = Machine::redundant(&spec(DeviceKind::SrtNoPsr), vec![LogicalThread::from(&w)]);
    assert!(dev.run_until_committed(8_000, 4_000_000));
    let snap = snapshot(&dev);
    assert_conservation(&snap, &["core0"]);
    // The redundant pair's sphere-of-replication state is visible.
    assert!(snap.counter("rmt/pair0/comparator/matches").unwrap() > 0);
    assert!(snap.histogram("rmt/pair0/lvq/occupancy").is_some());
    assert!(snap.histogram("rmt/pair0/slack").is_some());
    // The sphere-wait category is exported. It reads 0 here: the trailing
    // thread runs far enough behind that its LVQ entries have landed by
    // the time its loads issue. The pipeline's own tests drive a real
    // sphere wait.
    let _ = snap.counter("core0/slots/sphere_wait").unwrap();
}

#[test]
fn crt_device_conserves_issue_slots_on_both_cores() {
    let w = Workload::generate(Benchmark::Swim, 5);
    let mut crt = spec(DeviceKind::Crt);
    crt.core.preferential_space_redundancy = false;
    let mut dev = Machine::redundant(&crt, vec![LogicalThread::from(&w)]);
    assert!(dev.run_until_committed(6_000, 6_000_000));
    let snap = snapshot(&dev);
    assert_conservation(&snap, &["core0", "core1"]);
    assert!(snap.counter("rmt/pair0/comparator/matches").unwrap() > 0);
}

#[test]
fn lockstep_device_conserves_issue_slots_on_both_cores() {
    let w = Workload::generate(Benchmark::Ijpeg, 5);
    let mut dev = Machine::lockstep(&spec(DeviceKind::Lock8), vec![LogicalThread::from(&w)]);
    assert!(dev.run_until_committed(6_000, 6_000_000));
    let snap = snapshot(&dev);
    assert_conservation(&snap, &["core0", "core1"]);
    // The checker compared outputs and the cores never drifted apart.
    assert!(snap.counter("checker/compared_stores").unwrap() > 0);
    assert_eq!(snap.counter("checker/desynced"), Some(0));
}

#[test]
fn recoverable_srt_conserves_issue_slots_and_exports_recovery_state() {
    let w = Workload::generate(Benchmark::M88ksim, 5);
    let mut dev = Machine::recoverable(
        &spec(DeviceKind::SrtNoPsr),
        vec![LogicalThread::from(&w)],
        3_000,
    );
    assert!(dev.run_until_committed(8_000, 6_000_000));
    let snap = snapshot(&dev);
    // Conservation must survive the checkpoint quiesce windows, where
    // fetch is paused but cycles keep ticking.
    assert_conservation(&snap, &["core0"]);
    assert!(snap.counter("rmt/pair0/comparator/matches").unwrap() > 0);
    assert!(snap.counter("recovery/checkpoints_taken").unwrap() >= 1);
    assert_eq!(snap.counter("recovery/recoveries"), Some(0));
}

#[test]
fn snapshots_are_reproducible_and_json_round_trips() {
    let run = || {
        let w = Workload::generate(Benchmark::M88ksim, 9);
        let mut dev =
            Machine::redundant(&spec(DeviceKind::SrtNoPsr), vec![LogicalThread::from(&w)]);
        assert!(dev.run_until_committed(5_000, 3_000_000));
        snapshot(&dev)
    };
    let (a, b) = (run(), run());
    assert_eq!(a, b, "identical runs must produce identical snapshots");
    let encoded = a.to_json().encode_pretty();
    let parsed = rmt::stats::json::parse(&encoded).expect("snapshot JSON parses");
    assert_eq!(
        parsed.get("device/cycles").and_then(|v| v.as_u64()),
        a.counter("device/cycles")
    );
}

#[test]
fn occupancy_histograms_track_live_queues() {
    let w = Workload::generate(Benchmark::Fpppp, 3);
    let mut dev = Machine::independent(&spec(DeviceKind::Base), vec![LogicalThread::from(&w)]);
    assert!(dev.run_until_committed(5_000, 3_000_000));
    let snap = snapshot(&dev);
    for q in ["iq_half0", "iq_half1", "lq", "sq", "rmb"] {
        let h = snap
            .histogram(&format!("core0/occupancy/{q}"))
            .unwrap_or_else(|| panic!("missing occupancy histogram for {q}"));
        assert!(h.count > 0, "{q} occupancy never sampled");
    }
}
