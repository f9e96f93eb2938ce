//! Drivers: run a program on any redundancy arrangement under the
//! oracle, and the fuzz-find-shrink loop built on top.

use crate::fuzz::{self, FuzzConfig};
use crate::oracle::{Divergence, Oracle};
use crate::shrink;
use rmt_core::{build_device, Device, DeviceKind, LogicalThread, Machine, MachineSpec};
use rmt_isa::{MemImage, Program};
use rmt_pipeline::CoreConfig;
use std::rc::Rc;

/// The six redundancy arrangements the fabric composes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrangement {
    /// One core, one independent thread.
    Base,
    /// One SMT core, leading/trailing pair (§4).
    Srt,
    /// Two cross-coupled cores (§5).
    Crt,
    /// Two lockstepped cores with an output checker (§5.1).
    Lockstep,
    /// Four cores in a ring, four logical copies of the program.
    Ring4,
    /// SRT with checkpoint/rollback recovery.
    SrtRecovery,
}

impl Arrangement {
    /// All six arrangements.
    pub const ALL: [Arrangement; 6] = [
        Arrangement::Base,
        Arrangement::Srt,
        Arrangement::Crt,
        Arrangement::Lockstep,
        Arrangement::Ring4,
        Arrangement::SrtRecovery,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Arrangement::Base => "base",
            Arrangement::Srt => "srt",
            Arrangement::Crt => "crt",
            Arrangement::Lockstep => "lockstep",
            Arrangement::Ring4 => "ring4",
            Arrangement::SrtRecovery => "recoverable-srt",
        }
    }

    /// Number of logical copies of the program the arrangement runs.
    fn copies(self) -> usize {
        match self {
            Arrangement::Ring4 => 4,
            _ => 1,
        }
    }

    /// The machine kind the arrangement builds (recoverable SRT layers
    /// recovery over the plain SRT-without-PSR machine).
    fn kind(self) -> DeviceKind {
        match self {
            Arrangement::Base => DeviceKind::Base,
            Arrangement::Srt | Arrangement::SrtRecovery => DeviceKind::SrtNoPsr,
            Arrangement::Crt => DeviceKind::Crt,
            Arrangement::Lockstep => DeviceKind::Lock0,
            Arrangement::Ring4 => DeviceKind::CrtRing4,
        }
    }
}

/// Builds `arr` running `copies` logical instances of `program` on empty
/// memory images, plus the matching oracle lanes. The machine is the
/// arrangement kind's default spec over the caller's core configuration,
/// except that the kind keeps its own per-thread store-queue setting
/// (CRT and the ring use the paper's per-thread store queues).
pub fn build_arrangement(
    arr: Arrangement,
    core: CoreConfig,
    program: &Rc<Program>,
) -> (Box<dyn Device>, Oracle) {
    let threads: Vec<LogicalThread> = (0..arr.copies())
        .map(|_| LogicalThread::new(program.clone(), MemImage::new()))
        .collect();
    let oracle = Oracle::for_threads(&threads);
    let mut spec = MachineSpec::for_kind(arr.kind());
    spec.core = CoreConfig {
        per_thread_store_queues: spec.core.per_thread_store_queues,
        ..core
    };
    let device: Box<dyn Device> = match arr {
        Arrangement::SrtRecovery => Box::new(Machine::recoverable(&spec, threads, 2_000)),
        _ => build_device(&spec, threads),
    };
    (device, oracle)
}

/// Ticks `device` under `oracle` until every logical thread has committed
/// `commits` instructions, cross-checking every commit.
///
/// # Errors
///
/// The first [`Divergence`] found.
///
/// # Panics
///
/// Panics if the device fails to reach `commits` within a generous cycle
/// budget (a throughput collapse or hang — a bug in its own right).
pub fn verify_device(
    device: &mut dyn Device,
    oracle: &mut Oracle,
    commits: u64,
) -> Result<u64, Box<Divergence>> {
    oracle.attach(device);
    let n = device.num_logical();
    let budget = device.cycle() + commits * 500 + 200_000;
    loop {
        device.tick();
        oracle.observe(device)?;
        if (0..n).all(|i| device.committed(i) >= commits) {
            return Ok(oracle.checked());
        }
        assert!(
            device.cycle() < budget,
            "device stalled before {commits} commits (cycle {})",
            device.cycle()
        );
    }
}

/// Runs `program` on `arr` under the oracle for `commits` committed
/// instructions per logical thread.
///
/// # Errors
///
/// The first [`Divergence`] found.
pub fn verify_arrangement(
    arr: Arrangement,
    core: CoreConfig,
    program: &Rc<Program>,
    commits: u64,
) -> Result<u64, Box<Divergence>> {
    let (mut device, mut oracle) = build_arrangement(arr, core, program);
    verify_device(device.as_mut(), &mut oracle, commits)
}

/// A divergent fuzz case, minimized.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The generator seed that produced it.
    pub seed: u64,
    /// The divergence the *shrunk* program still reproduces.
    pub divergence: Divergence,
    /// The minimized program (layout-preserving, mostly `nop`).
    pub shrunk: Program,
}

/// Fuzzes one seed on `arr`: generates a program, runs it under the
/// oracle, and on divergence greedily shrinks it to a minimal reproducer.
/// Returns `None` when the seed verifies cleanly.
pub fn fuzz_one(
    arr: Arrangement,
    core: CoreConfig,
    cfg: &FuzzConfig,
    seed: u64,
    commits: u64,
) -> Option<Finding> {
    let program = Rc::new(fuzz::generate_with(cfg, seed));
    verify_arrangement(arr, core.clone(), &program, commits).err()?;
    let shrunk = shrink::shrink(&program, |candidate| {
        verify_arrangement(arr, core.clone(), &Rc::new(candidate.clone()), commits).is_err()
    });
    let divergence = *verify_arrangement(arr, core, &Rc::new(shrunk.clone()), commits)
        .expect_err("shrink preserves the failure");
    Some(Finding {
        seed,
        divergence,
        shrunk,
    })
}
