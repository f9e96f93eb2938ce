//! The worker fleet: per-worker connection state, health, and counters.
//!
//! A [`Worker`] is one `rmt-serve` address plus everything the
//! coordinator tracks about it: an admission flag flipped by the
//! `/healthz` probe loop, and the dispatch/retry/steal/evict counters
//! and latency histogram that become the cluster metrics section of the
//! merged document.
//!
//! Health is probed out-of-band (see [`probe_loop`]): two consecutive
//! probe failures evict a worker (dispatch stops; its in-flight cells
//! requeue when their attempts error out), and a single success
//! re-admits it. Eviction is advisory — correctness never depends on the
//! probe, only tail latency does, because every dispatch path verifies
//! digests and requeues on failure anyway.

use rmt_serve::client::Client;
use rmt_stats::Histogram;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Consecutive probe failures before a worker is evicted.
const EVICT_AFTER_FAILURES: u32 = 2;

/// Per-worker event counters and the attempt-latency distribution.
///
/// All counters are monotonic; the latency histogram records successful
/// attempt wall time in milliseconds (1 ms buckets, clamped tail).
#[derive(Debug)]
pub struct WorkerStats {
    /// Cells handed to this worker (first dispatches and requeues both).
    pub dispatched: AtomicU64,
    /// Cells whose digest-verified result this worker produced first.
    pub completed: AtomicU64,
    /// Results that arrived after another worker already won the cell.
    pub duplicates: AtomicU64,
    /// Attempts that failed and sent the cell back to the queue.
    pub retried: AtomicU64,
    /// Cells this worker took while they were in flight elsewhere
    /// (straggler re-dispatch of the tail).
    pub stolen: AtomicU64,
    /// Attempts abandoned because the per-attempt deadline passed.
    pub timeouts: AtomicU64,
    /// Healthy->evicted transitions from the probe loop.
    pub evictions: AtomicU64,
    /// Evicted->healthy transitions from the probe loop.
    pub readmissions: AtomicU64,
    /// Successful attempt wall time, milliseconds.
    pub latency_ms: Mutex<Histogram>,
}

/// One `rmt-serve` worker as the coordinator sees it.
#[derive(Debug)]
pub struct Worker {
    /// `host:port` of the worker's HTTP endpoint.
    pub addr: String,
    /// Index in the fleet (stable metric names key on this).
    pub index: usize,
    admitted: AtomicBool,
    /// Counters exported into the cluster metrics section.
    pub stats: WorkerStats,
}

impl Worker {
    /// A worker for `addr`, admitted until the probe says otherwise.
    pub fn new(index: usize, addr: &str) -> Worker {
        Worker {
            addr: addr.to_string(),
            index,
            admitted: AtomicBool::new(true),
            stats: WorkerStats {
                dispatched: AtomicU64::new(0),
                completed: AtomicU64::new(0),
                duplicates: AtomicU64::new(0),
                retried: AtomicU64::new(0),
                stolen: AtomicU64::new(0),
                timeouts: AtomicU64::new(0),
                evictions: AtomicU64::new(0),
                readmissions: AtomicU64::new(0),
                latency_ms: Mutex::new(Histogram::new(
                    format!("cluster/worker{index}/latency_ms"),
                    1,
                    512,
                )),
            },
        }
    }

    /// Whether dispatch to this worker is currently allowed.
    pub fn admitted(&self) -> bool {
        self.admitted.load(Ordering::Relaxed)
    }

    /// Flips admission, counting the transition.
    pub fn set_admitted(&self, yes: bool) {
        let was = self.admitted.swap(yes, Ordering::Relaxed);
        if was && !yes {
            self.stats.evictions.fetch_add(1, Ordering::Relaxed);
        } else if !was && yes {
            self.stats.readmissions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a successful attempt's wall time.
    pub fn record_latency(&self, elapsed: Duration) {
        self.stats
            .latency_ms
            .lock()
            .expect("latency mutex poisoned")
            .record(elapsed.as_millis() as u64);
    }

    /// A dispatch client for this worker: patient reads (a submit answer
    /// can sit behind a loaded accept loop), bounded connects.
    pub fn client(&self) -> Client {
        Client::with_timeouts(&self.addr, Duration::from_secs(5), Duration::from_secs(60))
    }
}

/// Probes every worker's `/healthz` until `stop` flips, evicting after
/// `EVICT_AFTER_FAILURES` consecutive failures and re-admitting on the
/// first success. Runs in its own thread; probe clients use short
/// timeouts so one dead worker cannot slow the loop below `interval`
/// pacing by much.
pub fn probe_loop(workers: Arc<Vec<Worker>>, stop: Arc<AtomicBool>, interval: Duration) {
    let mut failures = vec![0u32; workers.len()];
    let mut clients: Vec<Client> = workers
        .iter()
        .map(|w| Client::with_timeouts(&w.addr, Duration::from_millis(500), Duration::from_secs(2)))
        .collect();
    while !stop.load(Ordering::Relaxed) {
        let round = Instant::now();
        for (i, worker) in workers.iter().enumerate() {
            if stop.load(Ordering::Relaxed) {
                return;
            }
            let ok = matches!(clients[i].get("/healthz"), Ok(r) if r.status == 200);
            if ok {
                failures[i] = 0;
                worker.set_admitted(true);
            } else {
                failures[i] = failures[i].saturating_add(1);
                if failures[i] >= EVICT_AFTER_FAILURES {
                    worker.set_admitted(false);
                }
            }
        }
        if let Some(pause) = interval.checked_sub(round.elapsed()) {
            std::thread::sleep(pause);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_transitions_count_once_per_flip() {
        let w = Worker::new(0, "127.0.0.1:1");
        assert!(w.admitted());
        w.set_admitted(false);
        w.set_admitted(false);
        assert!(!w.admitted());
        assert_eq!(w.stats.evictions.load(Ordering::Relaxed), 1);
        w.set_admitted(true);
        assert!(w.admitted());
        assert_eq!(w.stats.readmissions.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn probe_loop_evicts_a_dead_worker_and_stops() {
        // Bind then drop: the port is (almost certainly) refusing.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        drop(listener);
        let workers = Arc::new(vec![Worker::new(0, &addr)]);
        let stop = Arc::new(AtomicBool::new(false));
        let (w2, s2) = (Arc::clone(&workers), Arc::clone(&stop));
        let probe = std::thread::spawn(move || probe_loop(w2, s2, Duration::from_millis(10)));
        for _ in 0..500 {
            if !workers[0].admitted() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(!workers[0].admitted(), "dead worker must be evicted");
        stop.store(true, Ordering::Relaxed);
        probe.join().unwrap();
    }
}
