//! Unit tests for the [`Experiment`] builder and its run paths.

use super::*;

fn quick(kind: DeviceKind, b: Benchmark) -> RunResult {
    Experiment::new(kind)
        .benchmark(b)
        .warmup(1_000)
        .measure(4_000)
        .seed(3)
        .run()
        .unwrap()
}

#[test]
fn empty_experiment_errors() {
    assert_eq!(
        Experiment::new(DeviceKind::Base).run().unwrap_err(),
        SimError::NoBenchmarks
    );
}

#[test]
fn an_overflowing_cycle_budget_errors_before_simulating() {
    assert_eq!(cycle_budget(1, 2, 3), Some(200_009));
    let e = Experiment::new(DeviceKind::Srt).benchmark(Benchmark::M88ksim);
    let err = e.warmup(u64::MAX).measure(1).run().unwrap_err();
    assert_eq!(err, SimError::BudgetOverflow);
}

#[test]
fn base_and_srt_run() {
    let base = quick(DeviceKind::Base, Benchmark::M88ksim);
    let srt = quick(DeviceKind::Srt, Benchmark::M88ksim);
    assert!(base.ipc(0) > 0.0);
    assert!(srt.ipc(0) > 0.0);
    assert!(srt.cycles > base.cycles, "SRT must cost cycles");
    assert_eq!(srt.faults_detected(), 0);
    // Every run carries a metric snapshot from its device.
    assert!(base.metrics.counter("device/cycles").unwrap_or(0) > 0);
    assert!(
        srt.metrics
            .counter("rmt/pair0/comparator/matches")
            .unwrap_or(0)
            > 0
    );
}

#[test]
fn base2_measures_first_copy() {
    let r = quick(DeviceKind::Base2, Benchmark::Li);
    assert_eq!(r.per_thread.len(), 1);
    assert!(r.per_thread[0].committed >= 4_000);
}

#[test]
fn lockstep_kinds_run() {
    let l0 = quick(DeviceKind::Lock0, Benchmark::Ijpeg);
    let l8 = quick(DeviceKind::Lock8, Benchmark::Ijpeg);
    assert!(l8.cycles >= l0.cycles);
}

#[test]
fn crt_runs_multithreaded() {
    let r = Experiment::new(DeviceKind::Crt)
        .benchmarks(&[Benchmark::Gcc, Benchmark::Fpppp])
        .warmup(1_000)
        .measure(3_000)
        .run()
        .unwrap();
    assert_eq!(r.per_thread.len(), 2);
    assert!(r.ipc(0) > 0.0);
    assert!(r.ipc(1) > 0.0);
}

#[test]
fn identical_experiments_are_reproducible() {
    let a = quick(DeviceKind::Srt, Benchmark::Go);
    let b = quick(DeviceKind::Srt, Benchmark::Go);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.total_committed(), b.total_committed());
}

#[test]
fn epoch_sampling_rides_on_run_result() {
    let r = Experiment::new(DeviceKind::Srt)
        .benchmark(Benchmark::M88ksim)
        .warmup(1_000)
        .measure(4_000)
        .seed(3)
        .epoch(512)
        .run()
        .unwrap();
    assert_eq!(r.timeseries.every(), 512);
    assert!(
        r.timeseries.len() >= 2,
        "a multi-thousand-cycle run crosses several 512-cycle epochs"
    );
    // Each epoch is a delta: the device's cycle counter advances by
    // exactly the epoch length inside every complete epoch.
    for e in r.timeseries.epochs() {
        assert_eq!(e.counter("device/cycles"), Some(512));
    }
    // Disabled by default — and enabling it must not perturb the run.
    let plain = quick(DeviceKind::Srt, Benchmark::M88ksim);
    assert!(plain.timeseries.is_empty());
    assert_eq!(r.cycles, plain.cycles, "sampling must not perturb");
    assert_eq!(
        r.metrics.to_json().encode(),
        plain.metrics.to_json().encode()
    );
}

#[test]
fn progress_sink_observes_without_perturbing() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    let last = Arc::new(AtomicU64::new(0));
    let calls = Arc::new(AtomicU64::new(0));
    let (l, c) = (Arc::clone(&last), Arc::clone(&calls));
    let watched = Experiment::new(DeviceKind::Srt)
        .benchmark(Benchmark::M88ksim)
        .warmup(1_000)
        .measure(4_000)
        .seed(3)
        .with_progress(ProgressSink::new(move |done, total| {
            assert_eq!(total, 5_000);
            assert!(done <= total);
            // Committed counts only grow.
            assert!(done >= l.swap(done, Ordering::Relaxed));
            c.fetch_add(1, Ordering::Relaxed);
        }))
        .run()
        .unwrap();
    assert!(calls.load(Ordering::Relaxed) >= 1, "sink never called");
    assert_eq!(last.load(Ordering::Relaxed), 5_000, "final report");
    // Bit-for-bit the same run as without a sink.
    let plain = quick(DeviceKind::Srt, Benchmark::M88ksim);
    assert_eq!(watched.cycles, plain.cycles);
    assert_eq!(
        watched.metrics.to_json().encode(),
        plain.metrics.to_json().encode()
    );
}

#[test]
fn overrides_compose_in_call_order() {
    let e = Experiment::new(DeviceKind::Srt)
        .set("core.sq_entries", Json::U64(16))
        .set("core.sq_entries", Json::U64(64))
        .set("hierarchy.l1d_next_line_prefetch", Json::Bool(true))
        .set("env.lvq_entries", Json::U64(99));
    assert_eq!(
        e.spec().core.sq_entries,
        64,
        "a later override must overwrite an earlier one"
    );
    assert!(e.spec().hierarchy.l1d_next_line_prefetch);
    assert_eq!(e.spec().env.lvq_entries, 99);

    // Overrides edit the spec an experiment starts from: everything set
    // on it before, by hand or by the kind's defaults, stays unless a
    // key path names it.
    let mut spec = MachineSpec::for_kind(DeviceKind::Srt);
    spec.core.sq_entries = 16;
    let e = Experiment::from_spec(spec)
        .set("env.lvq_entries", Json::U64(99))
        .set("core.lq_entries", Json::U64(32));
    assert_eq!(e.spec().core.sq_entries, 16);
    assert_eq!(e.spec().core.lq_entries, 32);
    assert_eq!(e.spec().env.lvq_entries, 99);
    assert!(e.spec().core.preferential_space_redundancy);
    assert_eq!(e.kind(), DeviceKind::Srt);
}

#[test]
#[should_panic(expected = "experiment override failed")]
fn bad_override_panics_with_the_key_path() {
    let _ = Experiment::new(DeviceKind::Srt).set("core.no_such_knob", Json::U64(1));
}

#[test]
fn run_results_embed_the_resolved_spec() {
    let r = Experiment::new(DeviceKind::Srt)
        .benchmark(Benchmark::M88ksim)
        .warmup(500)
        .measure(1_000)
        .set("core.sq_entries", Json::U64(32))
        .run()
        .unwrap();
    let spec = MachineSpec::from_json(&r.config).expect("config must validate");
    assert_eq!(spec.kind(), DeviceKind::Srt);
    assert_eq!(spec.core.sq_entries, 32);

    // A spec given up front is embedded exactly as given.
    let mut given = MachineSpec::for_kind(DeviceKind::Lock0);
    given.env.lvq_ecc = true;
    let r = Experiment::from_spec(given.clone())
        .benchmark(Benchmark::M88ksim)
        .warmup(500)
        .measure(1_000)
        .run()
        .unwrap();
    assert_eq!(MachineSpec::from_json(&r.config), Ok(given));
}

#[test]
fn crt_ring4_runs_four_programs() {
    let r = Experiment::new(DeviceKind::CrtRing4)
        .benchmarks(&[
            Benchmark::Gcc,
            Benchmark::Go,
            Benchmark::Ijpeg,
            Benchmark::Swim,
        ])
        .warmup(1_000)
        .measure(2_000)
        .run()
        .unwrap();
    assert_eq!(r.per_thread.len(), 4);
    for i in 0..4 {
        assert!(r.ipc(i) > 0.0, "thread {i} made no progress");
    }
    assert_eq!(r.faults_detected(), 0);
    // Four cores exported their metric trees.
    assert!(r.metrics.counter("core3/cycles").is_some());
}

#[test]
fn verified_runs_cross_check_every_commit() {
    let v = Experiment::new(DeviceKind::Srt)
        .benchmark(Benchmark::M88ksim)
        .warmup(500)
        .measure(2_000)
        .seed(3)
        .run_verified()
        .expect("SRT diverged from the reference model");
    assert!(v.commits_checked >= 2_500, "{}", v.commits_checked);
    assert!(v.result.ipc(0) > 0.0);

    // Base2 doubles each thread; the oracle follows both copies.
    let v2 = Experiment::new(DeviceKind::Base2)
        .benchmark(Benchmark::Li)
        .warmup(500)
        .measure(2_000)
        .seed(3)
        .run_verified()
        .expect("Base2 diverged from the reference model");
    assert!(v2.commits_checked >= 4_000, "{}", v2.commits_checked);
}

#[test]
fn store_queue_override_changes_behaviour() {
    let run = |sq: usize| {
        let mut spec = MachineSpec::for_kind(DeviceKind::Srt);
        spec.core.sq_entries = sq;
        Experiment::from_spec(spec)
            .benchmark(Benchmark::Compress)
            .warmup(1_000)
            .measure(4_000)
            .run()
            .unwrap()
    };
    let small_sq = run(8);
    let big_sq = run(128);
    assert!(
        small_sq.cycles > big_sq.cycles,
        "a tiny store queue must hurt: {} vs {}",
        small_sq.cycles,
        big_sq.cycles
    );
    // The key-path override is the same edit: the same run, bitwise.
    let via_set = Experiment::new(DeviceKind::Srt)
        .set("core.sq_entries", Json::U64(8))
        .benchmark(Benchmark::Compress)
        .warmup(1_000)
        .measure(4_000)
        .run()
        .unwrap();
    assert_eq!(via_set.cycles, small_sq.cycles);
    assert_eq!(
        via_set.metrics.to_json().encode(),
        small_sq.metrics.to_json().encode()
    );
    assert_eq!(via_set.config, small_sq.config);
}
