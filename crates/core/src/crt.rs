//! Chip-level redundant threading (CRT, §5) — the paper's new technique.
//!
//! CRT generates logically redundant threads exactly as SRT does, but runs
//! the leading and trailing copies on *different* cores of a two-way CMP.
//! The trailing thread's load value queue and line prediction queue, and
//! the store comparator, receive their inputs across a moderately wide
//! inter-core datapath modelled as a 4-cycle forwarding delay (§6.3).
//!
//! On multithreaded workloads the threads are **cross-coupled** (Figure 5):
//! each core runs the leading thread of one program and the trailing
//! thread of another, so the resources a trailing thread frees (no
//! misspeculation, no data-cache/load-queue use) are spent on a different
//! program's resource-hungry leading thread.
//!
//! A CRT machine is a `Machine<RmtScheme>` with cross-coupled placement,
//! assembled by [`Machine::redundant`](crate::Machine::redundant) from a
//! [`MachineSpec`](crate::MachineSpec) of kind `DeviceKind::Crt` (4-cycle
//! forwarding delay and per-thread store queues, §4.2).

/// Placement of one redundant pair on the two cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairPlacement {
    /// Core index of the leading thread.
    pub lead_core: usize,
    /// Hardware thread id of the leading thread.
    pub lead_tid: usize,
    /// Core index of the trailing thread.
    pub trail_core: usize,
    /// Hardware thread id of the trailing thread.
    pub trail_tid: usize,
}

#[cfg(test)]
mod tests {
    use crate::device::{Device, LogicalThread};
    use crate::machine::Machine;
    use crate::schemes::RmtScheme;
    use crate::spec::{DeviceKind, MachineSpec};
    use rmt_workloads::{Benchmark, Workload};

    /// The paper's CRT machine without preferential space redundancy.
    fn crt(threads: Vec<LogicalThread>) -> Machine<RmtScheme> {
        let mut spec = MachineSpec::for_kind(DeviceKind::Crt);
        spec.core.preferential_space_redundancy = false;
        Machine::redundant(&spec, threads)
    }

    #[test]
    fn single_thread_crt_splits_across_cores() {
        let w = Workload::generate(Benchmark::M88ksim, 7);
        let mut d = crt(vec![LogicalThread::from(&w)]);
        let p = d.scheme().placement(0);
        assert_eq!(p.lead_core, 0);
        assert_eq!(p.trail_core, 1);
        assert!(d.run_until_committed(3_000, 3_000_000));
        assert!(d.drain_detected_faults().is_empty());
        assert_eq!(d.scheme().env().pair(0).comparator.mismatches(), 0);
        assert!(d.scheme().env().pair(0).comparator.matches() > 10);
    }

    #[test]
    fn two_thread_crt_is_cross_coupled() {
        let a = Workload::generate(Benchmark::Gcc, 1);
        let b = Workload::generate(Benchmark::Swim, 1);
        let d = crt(vec![LogicalThread::from(&a), LogicalThread::from(&b)]);
        let p0 = d.scheme().placement(0);
        let p1 = d.scheme().placement(1);
        // Program 0 leads on core 0, program 1 leads on core 1, and each
        // trails on the other core.
        assert_eq!(p0.lead_core, 0);
        assert_eq!(p0.trail_core, 1);
        assert_eq!(p1.lead_core, 1);
        assert_eq!(p1.trail_core, 0);
    }

    #[test]
    fn two_thread_crt_runs_clean() {
        let a = Workload::generate(Benchmark::Go, 2);
        let b = Workload::generate(Benchmark::Fpppp, 2);
        let mut d = crt(vec![LogicalThread::from(&a), LogicalThread::from(&b)]);
        assert!(d.run_until_committed(3_000, 5_000_000));
        assert!(d.drain_detected_faults().is_empty());
        for i in 0..2 {
            assert_eq!(d.scheme().env().pair(i).comparator.mismatches(), 0);
        }
    }

    #[test]
    fn four_thread_crt_placement() {
        let ws: Vec<_> = [
            Benchmark::Gcc,
            Benchmark::Go,
            Benchmark::Ijpeg,
            Benchmark::Swim,
        ]
        .iter()
        .map(|&b| LogicalThread::from(&Workload::generate(b, 3)))
        .collect();
        let d = crt(ws);
        // Leads of 0,1 on core 0; leads of 2,3 on core 1; trails opposite.
        for i in 0..2 {
            assert_eq!(d.scheme().placement(i).lead_core, 0);
            assert_eq!(d.scheme().placement(i).trail_core, 1);
        }
        for i in 2..4 {
            assert_eq!(d.scheme().placement(i).lead_core, 1);
            assert_eq!(d.scheme().placement(i).trail_core, 0);
        }
    }
}
