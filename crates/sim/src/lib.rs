//! Experiment harness: builds devices, runs warmup/measurement intervals,
//! and regenerates every table and figure of the paper's evaluation.
//!
//! * [`experiment`] — the [`Experiment`] builder: one device configuration
//!   running one set of benchmarks for a measured interval.
//! * [`figures`] — one function per reproduced table/figure; each returns a
//!   [`rmt_stats::Table`] whose rows mirror the paper's artifact. The
//!   `rmt-bench` binaries print these.
//! * [`runner`] — the deterministic work-stealing job pool that fans a
//!   figure's independent data points (experiments, fault injections)
//!   across worker threads with bitwise-identical results at any
//!   `--jobs` level.
//! * [`sampled`] — SMARTS-style sampled runs: functional fast-forward,
//!   checkpointed window re-entry, and per-window IPC estimators with
//!   confidence intervals.
//! * [`service`] — job-granular service entry points: a validated
//!   run/sweep request with a canonical content digest and a synchronous
//!   `execute`, the unit of work the `rmt-serve` daemon queues and caches;
//!   and the one grid path ([`service::plan`]): every efficiency grid, a
//!   figure table or a sweep, is a `ClusterPlan` of content-addressed
//!   cells, run by one executor and folded into the paper's
//!   SMT-efficiency metric (§6.4) by one function.
//!
//! # Examples
//!
//! ```
//! use rmt_sim::{DeviceKind, Experiment};
//! use rmt_workloads::Benchmark;
//!
//! let r = Experiment::new(DeviceKind::Srt)
//!     .benchmark(Benchmark::M88ksim)
//!     .warmup(1_000)
//!     .measure(4_000)
//!     .run()
//!     .unwrap();
//! assert!(r.ipc(0) > 0.0);
//! assert_eq!(r.faults_detected(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiment;
pub mod figures;
pub mod guard;
pub mod outcome;
pub mod runner;
pub mod sampled;
pub mod service;

pub use experiment::{DeviceKind, Experiment, RunResult, SimError, VerifiedRun, VerifyError};
pub use figures::{FigureCtx, FigureResult, SimScale};
pub use runner::{ProgressSink, Runner};
pub use sampled::{CheckpointLadder, SampledResult};
pub use service::ServiceRequest;
