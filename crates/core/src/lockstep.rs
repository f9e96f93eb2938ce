//! Lockstepped dual-core fault detection (§1, §5) — the incumbent CRT is
//! measured against.
//!
//! Two identical cores receive identical inputs and execute cycle-for-
//! cycle; a checker compares every signal leaving the sphere of
//! replication. We model the two dominant performance effects the paper
//! identifies:
//!
//! * every L1 miss request crosses the checker before being forwarded to
//!   the rest of the memory system — `Lock8` charges 8 cycles on that path
//!   (`Lock0` is the ideal zero-latency checker);
//! * both cores waste resources in lockstep on misspeculation and cache
//!   misses (unlike CRT's decoupled trailing threads), which emerges
//!   naturally from running two full cores.
//!
//! Each core owns a private, identical memory hierarchy: because the two
//! request streams are identical in fault-free operation, this is
//! equivalent to one hierarchy serving both through the checker, and it
//! keeps the cores bit-deterministic (see DESIGN.md).
//!
//! The checker compares the released store streams of the two cores
//! per-thread and in order; a content difference is a detected fault, and a
//! stream that stalls relative to the other beyond a slack window is a
//! lockstep desynchronization (also a detection).
//!
//! A lockstep machine is a `Machine<LockstepScheme>`, assembled by
//! [`Machine::lockstep`](crate::Machine::lockstep) from a
//! [`MachineSpec`](crate::MachineSpec) of kind `DeviceKind::Lock0` or
//! `DeviceKind::Lock8`; the checker latency and desynchronization window
//! are `spec.scheme.checker_latency` and `spec.scheme.desync_window`.

#[cfg(test)]
mod tests {
    use crate::device::{Device, LogicalThread};
    use crate::machine::Machine;
    use crate::schemes::LockstepScheme;
    use crate::spec::{DeviceKind, MachineSpec};
    use rmt_workloads::{Benchmark, Workload};

    fn lockstep(kind: DeviceKind, threads: Vec<LogicalThread>) -> Machine<LockstepScheme> {
        Machine::lockstep(&MachineSpec::for_kind(kind), threads)
    }

    #[test]
    fn lockstep_cores_never_diverge_fault_free() {
        let w = Workload::generate(Benchmark::Compress, 1);
        let mut d = lockstep(DeviceKind::Lock0, vec![LogicalThread::from(&w)]);
        assert!(d.run_until_committed(3_000, 2_000_000));
        assert!(d.drain_detected_faults().is_empty());
        assert!(!d.scheme().desynced());
        assert!(d.scheme().compared_stores() > 10);
        // Both cores committed identically.
        assert_eq!(
            d.substrate().core(0).thread_stats(0).committed,
            d.substrate().core(1).thread_stats(0).committed
        );
        assert_eq!(
            d.scheme().image_on(0, 0).digest(),
            d.scheme().image_on(1, 0).digest()
        );
    }

    #[test]
    fn lock8_is_slower_than_lock0() {
        let w = Workload::generate(Benchmark::Swim, 2);
        let target = 5_000;
        let mut l0 = lockstep(DeviceKind::Lock0, vec![LogicalThread::from(&w)]);
        assert!(l0.run_until_committed(target, 5_000_000));
        let mut l8 = lockstep(DeviceKind::Lock8, vec![LogicalThread::from(&w)]);
        assert!(l8.run_until_committed(target, 5_000_000));
        assert!(
            l8.cycle() > l0.cycle(),
            "the 8-cycle checker must cost cycles: {} vs {}",
            l8.cycle(),
            l0.cycle()
        );
    }

    #[test]
    fn injected_fault_is_detected_by_checker() {
        let w = Workload::generate(Benchmark::Compress, 3);
        let mut d = lockstep(DeviceKind::Lock0, vec![LogicalThread::from(&w)]);
        d.run_until_committed(1_000, 1_000_000);
        // Permanently corrupt a functional unit on core 1 only.
        d.substrate_mut().core_mut(1).set_fu_stuck(0, 3, true);
        d.run_until_committed(6_000, 5_000_000);
        let faults = d.drain_detected_faults();
        assert!(
            !faults.is_empty(),
            "a stuck-at fault on one core must cause a store mismatch or desync"
        );
    }

    #[test]
    fn multithreaded_lockstep_runs_clean() {
        let a = Workload::generate(Benchmark::Gcc, 1);
        let b = Workload::generate(Benchmark::Fpppp, 1);
        let mut d = lockstep(
            DeviceKind::Lock8,
            vec![LogicalThread::from(&a), LogicalThread::from(&b)],
        );
        assert!(d.run_until_committed(2_000, 5_000_000));
        assert!(d.drain_detected_faults().is_empty());
    }
}
