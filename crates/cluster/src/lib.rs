//! Fault-tolerant distributed sweep orchestration over `rmt-serve`
//! workers.
//!
//! The simulator is deterministic and every service request is
//! content-addressed, so a sensitivity sweep is embarrassingly
//! distributable: expand it into per-cell run requests (see
//! [`rmt_sim::service::ClusterPlan`]), dispatch the cells across any
//! number of `rmt-serve` processes, and merge the digest-verified
//! results back into the exact document a single process would have
//! produced — bitwise, regardless of worker count, failures, duplicate
//! dispatch, or arrival order. Retries, straggler re-dispatch, and
//! worker eviction are therefore pure *latency* policies; correctness
//! rides entirely on the digests.
//!
//! - [`coordinator`] — the dispatch engine ([`run_cluster`]) and its
//!   pull-based least-loaded scheduling, work stealing, capped-backoff
//!   retry, and first-wins acceptance.
//! - [`pool`] — per-worker state: `/healthz`-probe-driven eviction and
//!   re-admission, plus the counters behind the cluster metrics section.
//! - [`spawn`] — `--spawn N` local fleets of the current executable in
//!   `--worker` mode (an embedded `rmt-serve` each).
//! - [`metrics`] — the `"cluster"` section riding on merged documents.
//!
//! The `rmt-cluster` binary fronts all of this, and with `--local` it is
//! also the single-process sweep front end: the same plan, with every
//! cell computed on this process's threads by
//! [`ServiceRequest::execute`](rmt_sim::ServiceRequest::execute). Fleet
//! throughput is measured by the `benchmark/` package's `cluster_sweep`
//! workload.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coordinator;
pub mod metrics;
pub mod pool;
pub mod spawn;

pub use coordinator::{run_cluster, CellReport, ClusterOptions, ClusterOutcome};
pub use spawn::{spawn_fleet, LocalFleet};

/// The envelope schema tag `rmt-cluster --out` documents carry.
pub const SCHEMA: &str = "rmt-cluster/v1";
