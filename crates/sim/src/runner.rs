//! Deterministic parallel execution of independent simulation points.
//!
//! The evaluation is a large cross-product — device kinds × benchmarks ×
//! mixes × fault injections — and every data point is an independent
//! simulation. [`Runner`] fans those points across a scoped-thread
//! work-stealing pool (no external dependencies) while keeping results
//! **bitwise identical** to sequential execution:
//!
//! * each job is a pure function of its index — per-job randomness comes
//!   from [`rmt_stats::rng::split_seed`], never from a stream consumed in
//!   scheduling order;
//! * results are gathered into a slot per job index, so the output vector
//!   is ordered by submission, not completion;
//! * shared state (the grid executor's Base-denominator memo in
//!   [`crate::service::plan`]) memoizes through [`std::sync::OnceLock`],
//!   so a value is computed once and every thread observes the same bits.
//!
//! Under those rules `Runner::new(1)` and `Runner::new(64)` produce equal
//! results for any job set, which the test suite asserts on whole figures
//! and fault campaigns.
//!
//! # Examples
//!
//! ```
//! use rmt_sim::runner::Runner;
//!
//! let squares = Runner::new(4).run(8, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A progress observer: a shareable `(done, total)` callback.
///
/// Pure observation by contract — a sink must not influence the work it
/// watches (the serving layer feeds these into job-status gauges, and the
/// determinism tests run with and without one installed). Cloning shares
/// the underlying callback.
#[derive(Clone)]
pub struct ProgressSink(Arc<dyn Fn(u64, u64) + Send + Sync>);

impl ProgressSink {
    /// Wraps a callback. `done` counts completed units out of `total`;
    /// callers may be invoked from any worker thread, concurrently.
    pub fn new(f: impl Fn(u64, u64) + Send + Sync + 'static) -> Self {
        ProgressSink(Arc::new(f))
    }

    /// A sink that prints `[tag] done/total unit, …s elapsed, ETA …s`
    /// lines on stderr: at most one every 500 ms, plus the last.
    pub fn stderr(tag: &'static str, unit: &'static str) -> Self {
        let started = Instant::now();
        let last_print = Mutex::new(started - Duration::from_secs(1));
        ProgressSink::new(move |done, total| {
            let mut last = last_print.lock().expect("progress mutex");
            if last.elapsed() >= Duration::from_millis(500) || done == total {
                *last = Instant::now();
                let elapsed = started.elapsed().as_secs_f64();
                let eta = if done > 0 {
                    elapsed / done as f64 * (total - done) as f64
                } else {
                    f64::NAN
                };
                eprintln!("[{tag}] {done}/{total} {unit}, {elapsed:.1}s elapsed, ETA {eta:.1}s");
            }
        })
    }

    /// Reports `done` completed units out of `total`.
    pub fn report(&self, done: u64, total: u64) {
        (self.0)(done, total);
    }
}

impl fmt::Debug for ProgressSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ProgressSink(..)")
    }
}

/// A deterministic parallel job pool.
///
/// Cheap to construct (no threads live between [`Runner::run`] calls; each
/// call spawns a scoped pool and joins it before returning).
#[derive(Debug)]
pub struct Runner {
    jobs: usize,
    executed: AtomicUsize,
    /// Simulated cycles reported by figure drivers (host throughput gauge).
    sim_cycles: AtomicU64,
    /// Called with `(jobs done, jobs total)` after every job of a `run`
    /// call: the `--progress` lines, or the serving layer's live
    /// job-progress gauge.
    hook: Option<ProgressSink>,
}

impl Runner {
    /// A runner with `jobs` worker threads (clamped to at least 1).
    pub fn new(jobs: usize) -> Self {
        Runner {
            jobs: jobs.max(1),
            executed: AtomicUsize::new(0),
            sim_cycles: AtomicU64::new(0),
            hook: None,
        }
    }

    /// Installs (or clears) a [`ProgressSink`] to call with
    /// `(jobs done, jobs total)` after every completed job. The sink is
    /// pure observation: job results are bit-for-bit the same with or
    /// without one.
    pub fn set_hook(&mut self, hook: Option<ProgressSink>) {
        self.hook = hook;
    }

    /// The installed [`ProgressSink`], if any.
    pub fn hook(&self) -> Option<&ProgressSink> {
        self.hook.as_ref()
    }

    /// A runner sized to the host's available parallelism.
    pub fn available() -> Self {
        Self::new(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }

    /// Number of worker threads this runner uses.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Total jobs executed over this runner's lifetime (all `run` calls).
    pub fn jobs_executed(&self) -> usize {
        self.executed.load(Ordering::Relaxed)
    }

    /// Credits `n` simulated cycles to this runner's throughput gauge.
    ///
    /// The grid executor credits each grid cell's cycle count; the total
    /// feeds the host `sim cycles/sec` gauge in JSON reports. The
    /// counter is deterministic (a pure sum over jobs); the wall-time side
    /// is not, so the two are reported in separate JSON sections.
    pub fn add_sim_cycles(&self, n: u64) {
        self.sim_cycles.fetch_add(n, Ordering::Relaxed);
    }

    /// Simulated cycles credited so far via [`Runner::add_sim_cycles`].
    pub fn sim_cycles(&self) -> u64 {
        self.sim_cycles.load(Ordering::Relaxed)
    }

    /// Runs `job(0..n)` and returns the results ordered by index.
    ///
    /// Jobs must be independent: `job` may not communicate between indices
    /// except through synchronization that yields order-independent values
    /// (e.g. a [`OnceLock`](std::sync::OnceLock)-memoized cache). Under
    /// that contract the result is identical for any worker count.
    ///
    /// # Panics
    ///
    /// Propagates the first panic raised by any job.
    pub fn run<T, F>(&self, n: usize, job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.executed.fetch_add(n, Ordering::Relaxed);
        let done = AtomicUsize::new(0);
        let observed = |i: usize| {
            let out = job(i);
            if let Some(hook) = &self.hook {
                let c = done.fetch_add(1, Ordering::Relaxed) + 1;
                hook.report(c as u64, n as u64);
            }
            out
        };
        let workers = self.jobs.min(n);
        if workers <= 1 {
            return (0..n).map(observed).collect();
        }

        // One deque per worker, seeded with a contiguous block of indices
        // (neighbouring jobs often share baselines, so block ownership
        // maximizes cache-cell reuse within a worker). Idle workers steal
        // from the *back* of a victim's deque — the classic split: owners
        // drain front-to-back, thieves take the coldest work.
        let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
            .map(|w| {
                let lo = n * w / workers;
                let hi = n * (w + 1) / workers;
                Mutex::new((lo..hi).collect())
            })
            .collect();
        // One result slot per job; a slot is written exactly once, by
        // whichever worker claimed that index, so gathering is by index
        // and completion order never shows.
        let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();

        std::thread::scope(|scope| {
            for w in 0..workers {
                let queues = &queues;
                let slots = &slots;
                let job = &observed;
                scope.spawn(move || loop {
                    let idx = {
                        let mut own = queues[w].lock().expect("queue poisoned");
                        own.pop_front()
                    };
                    let idx = match idx {
                        Some(i) => i,
                        None => {
                            // Steal: scan victims round-robin from w+1.
                            let mut stolen = None;
                            for v in 1..workers {
                                let victim = (w + v) % workers;
                                let mut q = queues[victim].lock().expect("queue poisoned");
                                if let Some(i) = q.pop_back() {
                                    stolen = Some(i);
                                    break;
                                }
                            }
                            match stolen {
                                Some(i) => i,
                                None => return,
                            }
                        }
                    };
                    let out = job(idx);
                    *slots[idx].lock().expect("slot poisoned") = Some(out);
                });
            }
        });

        slots
            .into_iter()
            .map(|s| {
                s.into_inner()
                    .expect("slot poisoned")
                    .expect("every job index was claimed and completed")
            })
            .collect()
    }
}

impl Default for Runner {
    fn default() -> Self {
        Self::available()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gathers_by_index_regardless_of_workers() {
        for workers in [1, 2, 3, 8, 17] {
            let r = Runner::new(workers);
            let out = r.run(33, |i| 3 * i + 1);
            assert_eq!(out, (0..33).map(|i| 3 * i + 1).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_jobs_is_empty() {
        assert!(Runner::new(4).run(0, |i| i).is_empty());
    }

    #[test]
    fn more_workers_than_jobs() {
        assert_eq!(Runner::new(64).run(2, |i| i), vec![0, 1]);
    }

    #[test]
    fn counts_executed_jobs() {
        let r = Runner::new(2);
        r.run(5, |i| i);
        r.run(7, |i| i);
        assert_eq!(r.jobs_executed(), 12);
    }

    #[test]
    fn workers_clamped_to_one() {
        assert_eq!(Runner::new(0).jobs(), 1);
    }

    #[test]
    fn tracks_sim_cycles() {
        let r = Runner::new(2);
        assert_eq!(r.sim_cycles(), 0);
        r.add_sim_cycles(10);
        r.add_sim_cycles(5);
        assert_eq!(r.sim_cycles(), 15);
    }

    #[test]
    fn hook_sees_every_completion_and_never_perturbs() {
        let counted = Arc::new(AtomicUsize::new(0));
        let max_total = Arc::new(AtomicUsize::new(0));
        let mut r = Runner::new(3);
        let (c, m) = (Arc::clone(&counted), Arc::clone(&max_total));
        r.set_hook(Some(ProgressSink::new(move |done, total| {
            c.fetch_add(1, Ordering::Relaxed);
            m.fetch_max(total as usize, Ordering::Relaxed);
            assert!(done >= 1 && done <= total);
        })));
        let hooked = r.run(17, |i| i * 2);
        assert_eq!(counted.load(Ordering::Relaxed), 17);
        assert_eq!(max_total.load(Ordering::Relaxed), 17);
        // Identical results with the hook removed.
        r.set_hook(None);
        assert_eq!(hooked, r.run(17, |i| i * 2));
    }

    #[test]
    fn stealing_drains_imbalanced_load() {
        // Jobs whose cost is wildly index-dependent still all complete and
        // land in their slots.
        let r = Runner::new(4);
        let out = r.run(64, |i| {
            if i % 16 == 0 {
                // A "slow" job.
                (0..20_000u64).fold(i as u64, |a, x| a.wrapping_add(x))
            } else {
                i as u64
            }
        });
        assert_eq!(out.len(), 64);
        assert_eq!(out[1], 1);
        assert_eq!(out[63], 63);
    }
}
