//! Diagnostics (run with `--ignored`): per-benchmark warm-window IPC and
//! exported event-count deltas on the base machine. Not a correctness
//! test — a tool for recalibrating the synthetic workloads (DESIGN.md §9).
//!
//! ```text
//! cargo test -p rmt-pipeline --release --test dbg_stats -- --ignored --nocapture
//! ```

use rmt_mem::{HierarchyConfig, MemoryHierarchy};
use rmt_pipeline::env::IndependentEnv;
use rmt_pipeline::{Core, CoreConfig};
use rmt_stats::{MetricsRegistry, MetricsSnapshot};
use rmt_workloads::profile::ALL_BENCHMARKS;
use rmt_workloads::Workload;
use std::rc::Rc;

fn events(core: &Core) -> MetricsSnapshot {
    let mut reg = MetricsRegistry::new();
    core.export_metrics(&mut reg, "core");
    reg.snapshot()
}

#[test]
#[ignore = "diagnostic tool, not a correctness test"]
fn dump_stats() {
    for &bench in ALL_BENCHMARKS {
        let w = Workload::generate(bench, 11);
        let mut env = IndependentEnv::new(vec![w.memory.clone()]);
        let mut core = Core::new(CoreConfig::base(), 0);
        core.attach_thread(Rc::new(w.program.clone()), 0);
        core.finalize_partitions();
        let mut hier = MemoryHierarchy::new(HierarchyConfig::default(), 1);
        let mut cycle = 0u64;
        while core.thread_stats(0).committed < 60_000 {
            core.tick(cycle, &mut hier, &mut env);
            hier.tick(cycle);
            cycle += 1;
        }
        let c0 = cycle;
        let i0 = core.thread_stats(0).committed;
        let before = events(&core);
        while core.thread_stats(0).committed < i0 + 50_000 {
            core.tick(cycle, &mut hier, &mut env);
            hier.tick(cycle);
            cycle += 1;
        }
        let dc = cycle - c0;
        println!(
            "==== {bench} ==== warm ipc={:.3} cycles={dc}",
            50_000.0 / dc as f64
        );
        let delta = events(&core).delta(&before);
        for (name, _) in delta.iter() {
            let Some(k) = name.strip_prefix("core/events/") else {
                continue;
            };
            let d = delta.counter(name).expect("events are counters");
            if d > 0 {
                println!("   {k:<28} {d:>8}  ({:.3}/instr)", d as f64 / 50_000.0);
            }
        }
    }
}
