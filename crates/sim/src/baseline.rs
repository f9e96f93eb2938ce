//! Cached single-thread base-processor IPCs — the denominators of the
//! paper's SMT-efficiency metric (§6.4): "the IPC of the thread when it
//! would run in single-thread mode through the same SMT machine".
//!
//! The cache is shared across an entire figure suite and across the
//! [`runner`](crate::runner)'s worker threads: each distinct
//! `(benchmark, seed, warmup, measure)` baseline is simulated **exactly
//! once** (per-key [`OnceLock`] cells — a second thread asking for a key
//! that is being computed blocks on the cell, it does not recompute), and
//! every caller observes bitwise the same IPC, which keeps parallel figure
//! runs identical to sequential ones.

use crate::experiment::{DeviceKind, Experiment};
use rmt_core::MachineSpec;
use rmt_stats::Json;
use rmt_workloads::Benchmark;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

type Key = (Benchmark, u64, u64, u64);

/// Caches single-thread base IPCs per `(benchmark, seed, warmup, measure)`.
///
/// All methods take `&self`; interior mutability makes one instance
/// shareable by reference across the runner's scoped worker threads.
#[derive(Debug, Default)]
pub struct BaselineCache {
    cells: Mutex<HashMap<Key, Arc<OnceLock<f64>>>>,
}

impl BaselineCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Single-thread base-processor IPC of `bench` under the given run
    /// parameters (computed once per key, then cached).
    ///
    /// # Panics
    ///
    /// Panics if the baseline simulation itself fails (it never should).
    pub fn ipc(&self, bench: Benchmark, seed: u64, warmup: u64, measure: u64) -> f64 {
        self.ipc_with(bench, seed, warmup, measure, &[])
    }

    /// [`BaselineCache::ipc`] with machine-spec key-path overrides applied
    /// to the baseline experiment (the `scheme.kind` path is skipped — the
    /// denominator is always the base processor). The cache key does not
    /// include the overrides: one cache belongs to one
    /// [`FigureCtx`](crate::figures::FigureCtx), whose override set is
    /// fixed for its lifetime.
    ///
    /// # Panics
    ///
    /// Panics if an override names an unknown key path or the baseline
    /// simulation fails.
    pub fn ipc_with(
        &self,
        bench: Benchmark,
        seed: u64,
        warmup: u64,
        measure: u64,
        overrides: &[(String, Json)],
    ) -> f64 {
        let cell = {
            let mut map = self.cells.lock().expect("baseline cache poisoned");
            map.entry((bench, seed, warmup, measure))
                .or_default()
                .clone()
        };
        // The map lock is released before simulating: concurrent misses on
        // *different* keys compute in parallel; a concurrent miss on the
        // *same* key blocks on this cell until the first computation lands.
        *cell.get_or_init(|| {
            let mut spec = MachineSpec::for_kind(DeviceKind::Base);
            replay_overrides(&mut spec, overrides);
            Experiment::from_spec(spec)
                .benchmark(bench)
                .seed(seed)
                .warmup(warmup)
                .measure(measure)
                .run()
                .expect("baseline run must succeed")
                .ipc(0)
        })
    }

    /// Number of distinct keys requested so far (computed or in flight).
    pub fn len(&self) -> usize {
        self.cells.lock().expect("baseline cache poisoned").len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Applies key-path `overrides` to `spec` in order, skipping
/// `scheme.kind` (the caller owns the device kind).
///
/// # Panics
///
/// On an unknown key path or ill-typed value.
pub(crate) fn replay_overrides(spec: &mut MachineSpec, overrides: &[(String, Json)]) {
    for (path, v) in overrides {
        if path == "scheme.kind" {
            continue;
        }
        if let Err(e) = spec.set(path, v.clone()) {
            panic!("machine override failed: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caches_and_reuses() {
        let c = BaselineCache::new();
        assert!(c.is_empty());
        let a = c.ipc(Benchmark::M88ksim, 1, 500, 2_000);
        assert_eq!(c.len(), 1);
        let b = c.ipc(Benchmark::M88ksim, 1, 500, 2_000);
        assert_eq!(c.len(), 1);
        assert_eq!(a, b);
        assert!(a > 0.0);
    }

    #[test]
    fn distinct_keys_get_distinct_entries() {
        let c = BaselineCache::new();
        c.ipc(Benchmark::Li, 1, 500, 2_000);
        c.ipc(Benchmark::Li, 2, 500, 2_000);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn concurrent_hits_agree_bitwise() {
        let c = BaselineCache::new();
        let values: Vec<f64> =
            crate::runner::Runner::new(4).run(8, |_| c.ipc(Benchmark::M88ksim, 1, 400, 1_500));
        assert_eq!(c.len(), 1, "one key must be simulated exactly once");
        assert!(values.windows(2).all(|w| w[0].to_bits() == w[1].to_bits()));
    }
}
