//! Simulation-as-a-service: a long-running daemon that accepts resolved
//! machine-spec run and sweep documents over HTTP, executes them on a
//! bounded job queue, and memoizes every result in a two-tier
//! content-addressed cache.
//!
//! The simulator is deterministic — identical canonical requests produce
//! bitwise-identical result documents at any parallelism level — so a
//! result is cached forever under its request's digest
//! ([`rmt_sim::ServiceRequest::digest`]): the first submission simulates,
//! every repeat is answered from the cache without touching a core model.
//!
//! * [`http`] — hand-rolled, panic-free HTTP/1.1 parsing (the build is
//!   fully offline; no framework crates).
//! * [`cache`] — in-memory LRU over a checksummed, atomic-rename disk
//!   tier.
//! * [`jobs`] — bounded queue with in-flight dedup and graceful drain.
//! * [`server`] — endpoints, worker pool, `/metrics` snapshot.
//! * [`client`] — the minimal blocking client behind `rmtc` and the
//!   `rmt-cluster` coordinator.
//! * [`daemon`] — the daemon command line `rmt-serve` and
//!   `rmt-cluster --worker` share.
//!
//! Binaries: `rmt-serve` (the daemon) and `rmtc` (submit/poll/fetch).
//! The daemon's throughput and latency under load are measured by the
//! `benchmark/` package's `serve_mixed` workload.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod daemon;
pub mod http;
pub mod jobs;
pub mod server;

pub use cache::ResultCache;
pub use client::Client;
pub use jobs::JobTable;
pub use server::{Server, ServerConfig, ServerHandle};
