//! Statistics, metrics and deterministic randomness for the RMT simulator.
//!
//! This crate provides the measurement substrate shared by every other crate
//! in the workspace:
//!
//! * [`rng`] — a deterministic, dependency-free pseudo-random number
//!   generator ([`rng::Xoshiro256`]). Determinism matters here: lockstepped
//!   cores must produce bit-identical streams, and every experiment must be
//!   reproducible from a `(config, seed)` pair.
//! * [`check`] — a minimal property-test harness driven by [`rng`], used
//!   by the workspace's property tests (the build is offline, so no
//!   external property-testing crate).
//! * [`cli`] — the command-line reader every binary parses with, and the
//!   one exit-status rule for a bad command line.
//! * [`histogram`] — fixed-bucket histograms used for store-lifetime and
//!   occupancy distributions.
//! * [`table`] — plain-text table rendering used by the figure/table
//!   regeneration binaries.
//! * [`metrics`] — IPC and SMT-efficiency (weighted speedup) computations,
//!   the paper's evaluation metric (§6.4).
//! * [`registry`] — the snapshot-oriented [`registry::MetricsRegistry`]
//!   with stable hierarchical metric names, the backbone of the
//!   machine-readable `results/*.json` outputs.
//! * [`json`] — serde-free JSON value tree, encoder, and parser (the build
//!   is offline, so no external JSON crate).
//! * [`digest`] — canonical-JSON form and a 128-bit content digest, the
//!   cache key of the `rmt-serve` result store (identical resolved specs
//!   hash identically regardless of key order).
//! * [`ring`] — the bounded event ring (evict-oldest with a drop count)
//!   under both the pipeline tracer and the flight recorder.
//! * [`flight`] — a bounded, deterministic flight recorder of structured
//!   fault-forensics events with cause-chain ids.
//! * [`timeseries`] — epoch-resolved sequences of metric-snapshot deltas
//!   for time-series telemetry.
//!
//! # Examples
//!
//! ```
//! use rmt_stats::rng::Xoshiro256;
//! use rmt_stats::metrics::smt_efficiency;
//!
//! let mut rng = Xoshiro256::seed_from(42);
//! let _coin = rng.chance(0.5);
//!
//! // A thread that achieves 0.9 IPC in SMT mode and 1.2 IPC alone:
//! let eff = smt_efficiency(&[(0.9, 1.2)]);
//! assert!((eff - 0.75).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod cli;
pub mod digest;
pub mod estimate;
pub mod flight;
pub mod histogram;
pub mod json;
pub mod metrics;
pub mod registry;
pub mod ring;
pub mod rng;
pub mod table;
pub mod timeseries;

pub use digest::{canonical, canonical_encode, digest};
pub use estimate::{mean_ci95, Estimate};
pub use flight::{FlightEvent, FlightRecorder};
pub use histogram::Histogram;
pub use json::Json;
pub use metrics::{smt_efficiency, ThreadRun};
pub use registry::{HistogramSummary, MetricValue, MetricsRegistry, MetricsSnapshot};
pub use rng::Xoshiro256;
pub use table::Table;
pub use timeseries::TimeSeries;
