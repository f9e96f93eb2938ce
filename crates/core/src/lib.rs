//! Redundant multithreading — the paper's contribution.
//!
//! This crate implements the three fault-detection architectures the paper
//! designs and evaluates, on top of the `rmt-pipeline` base processor:
//!
//! * **SRT** ([`DeviceKind::Srt`]) — simultaneous and redundantly
//!   threaded: leading and trailing copies of each program share one SMT
//!   core (§4). Input replication through the [`lvq`] (load value queue),
//!   output comparison through the [`comparator`] (store comparator), and
//!   trailing-thread fetch through the [`lpq`] (line prediction queue with
//!   active/recovery heads), plus preferential space redundancy tracking
//!   ([`psr`]) and per-thread store queues.
//! * **CRT** ([`DeviceKind::Crt`], [`crt`]) — chip-level redundant threading (§5):
//!   the same loosely-coupled mechanisms, but leading and trailing threads
//!   run on different cores of a two-way CMP, cross-coupled so each core
//!   runs one program's leading thread and another's trailing thread. The
//!   forwarding queues cross a configurable inter-core delay.
//! * **Lockstep** ([`DeviceKind::Lock0`]/[`DeviceKind::Lock8`],
//!   [`lockstep`]) — the incumbent: two
//!   identical cores execute the same inputs cycle-for-cycle and a checker
//!   compares their outputs, with an ideal (Lock0) or 8-cycle (Lock8)
//!   checker penalty on every signal leaving the cores.
//!
//! The sphere of replication (§2) is the pipeline plus register files;
//! caches and memory are outside it and see only compared values.
//!
//! Every arrangement is one [`Machine`] composed with a
//! [`RedundancyScheme`], built from one [`MachineSpec`]: [`build_device`]
//! dispatches on the spec's kind, and the typed constructors
//! ([`Machine::independent`], [`Machine::redundant`], [`Machine::lockstep`])
//! keep the scheme's state reachable for fault injection. Beyond
//! detection, [`Machine::recoverable`] adds the checkpoint/rollback
//! recovery sequence the paper's introduction points to.
//!
//! # Examples
//!
//! Run `gcc` redundantly on an SRT core and confirm redundant execution is
//! architecturally invisible:
//!
//! ```
//! use rmt_core::{Device, DeviceKind, LogicalThread, Machine, MachineSpec};
//! use rmt_workloads::{Benchmark, Workload};
//!
//! let w = Workload::generate(Benchmark::Gcc, 1);
//! let spec = MachineSpec::for_kind(DeviceKind::Srt);
//! let mut dev = Machine::redundant(&spec, vec![LogicalThread::from(&w)]);
//! dev.run_until_committed(5_000, 2_000_000);
//! assert!(dev.committed(0) >= 5_000);
//! assert!(dev.drain_detected_faults().is_empty());
//! assert_eq!(dev.scheme().env().pair(0).comparator.mismatches(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod comparator;
pub mod crt;
pub mod device;
pub mod lockstep;
pub mod lpq;
pub mod lvq;
pub mod machine;
pub mod psr;
pub mod recovery;
pub mod rmt_env;
pub mod schemes;
pub mod spec;

pub use comparator::StoreComparator;
pub use crt::PairPlacement;
pub use device::{build_device, Device, LogicalThread};
pub use lpq::LinePredictionQueue;
pub use lvq::LoadValueQueue;
pub use machine::{Machine, RedundancyScheme, Substrate, WarmEvent};
pub use recovery::RecoveringScheme;
pub use rmt_env::RmtEnv;
pub use schemes::{IndependentScheme, LockstepScheme, RmtScheme, Topology};
pub use spec::{DeviceKind, MachineSpec, SampleMode, SamplePlan, SchemeSpec, SpecError};
