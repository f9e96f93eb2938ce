//! The dispatch engine: expands a request into digest-keyed work units,
//! drives them across the worker fleet, and merges the results back into
//! the single-process document.
//!
//! ## Protocol
//!
//! Each worker gets `inflight_per_worker` driver threads, all pulling
//! from one shared queue — least-loaded assignment emerges from the pull
//! model (a busy worker's slots are occupied; idle slots drain the
//! queue). When the queue empties but units are still in flight, idle
//! slots **steal** stragglers: they re-dispatch the in-flight unit with
//! the fewest concurrent attempts (capped) to themselves. The first
//! digest-verified result wins; later arrivals count as duplicates and
//! are discarded — free, because cells are content-addressed and every
//! copy is bitwise identical.
//!
//! Failures requeue: a connection error, per-attempt timeout, 5xx, or
//! digest mismatch sends the unit back to the queue (capped exponential
//! backoff in the failing slot, so a flapping worker cannot hot-loop). A
//! unit that fails `MAX_ATTEMPTS` (8) times aborts the run
//! — by then the failure is deterministic (a simulation error every
//! worker reproduces), not operational. Worker eviction via `/healthz`
//! probing (see [`crate::pool`]) stops dispatch to dead workers; if
//! every worker stays evicted for a grace period the run aborts instead
//! of hanging.
//!
//! ## Acceptance
//!
//! A result is accepted only after the cell's digest is **recomputed
//! from the request the worker echoed back** — a worker cannot
//! mislabel a result without being caught, and a merged document can be
//! re-audited offline the same way (`check_json` does).

use crate::metrics::{cluster_section, ClusterTotals};
use crate::pool::{probe_loop, Worker};
use rmt_serve::client::{Client, Response};
use rmt_sim::service::{ClusterPlan, ServiceRequest};
use rmt_stats::fields::Fields;
use rmt_stats::json::parse;
use rmt_stats::Json;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Most concurrent attempts one unit may accumulate via stealing.
const MAX_INFLIGHT_PER_UNIT: u32 = 3;

/// Failed attempts per unit before the whole run aborts.
const MAX_ATTEMPTS: u32 = 8;

/// `/healthz` probe cadence.
const PROBE_INTERVAL: Duration = Duration::from_millis(250);

/// How long every worker may be simultaneously evicted before the run
/// aborts rather than waiting for a fleet that is gone.
const ALL_EVICTED_GRACE: Duration = Duration::from_secs(20);

/// Coordinator tuning knobs.
#[derive(Clone)]
pub struct ClusterOptions {
    /// Concurrent cells per worker (driver threads each).
    pub inflight_per_worker: usize,
    /// Per-attempt deadline: submit, poll, and fetch must finish inside
    /// it or the attempt is abandoned and the cell requeued.
    pub attempt_timeout: Duration,
    /// Called with `(done_units, total_units)` after every completion —
    /// progress display and chaos triggers hang off this.
    pub on_progress: Option<Arc<dyn Fn(usize, usize) + Send + Sync>>,
}

impl Default for ClusterOptions {
    fn default() -> ClusterOptions {
        ClusterOptions {
            inflight_per_worker: 2,
            attempt_timeout: Duration::from_secs(600),
            on_progress: None,
        }
    }
}

impl std::fmt::Debug for ClusterOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterOptions")
            .field("inflight_per_worker", &self.inflight_per_worker)
            .field("attempt_timeout", &self.attempt_timeout)
            .finish_non_exhaustive()
    }
}

/// One distinct dispatchable unit (deduplicated plan cells).
#[derive(Debug, Clone)]
struct Unit {
    digest: String,
    /// Canonical request document, pre-encoded for submission.
    payload: String,
}

/// How one unit's accepted result was obtained, echoed into the
/// envelope's `cells` array.
#[derive(Debug, Clone)]
pub struct CellReport {
    /// The cell's content digest.
    pub digest: String,
    /// The canonical cell request (digest recomputable from this).
    pub request: Json,
    /// Address of the worker whose result won.
    pub worker: String,
    /// Dispatch attempts this unit took: failed ones plus the winner
    /// (so a clean first-try completion reports 1).
    pub attempts: u64,
    /// Whether the winning response was a worker cache hit.
    pub cache_hit: bool,
}

/// A completed cluster run: the merged document plus provenance.
#[derive(Debug)]
pub struct ClusterOutcome {
    /// Bitwise-identical to the single-process `execute` document.
    pub merged: Json,
    /// One report per distinct unit, in plan order.
    pub cells: Vec<CellReport>,
    /// The `"cluster"` metrics section (see [`crate::metrics`]).
    pub cluster: Json,
    /// Workers the run started with.
    pub workers: usize,
}

#[derive(Debug, Default)]
struct UnitMeta {
    worker: String,
    attempts: u64,
    cache_hit: bool,
}

#[derive(Debug, Default)]
struct State {
    pending: VecDeque<usize>,
    inflight: HashMap<usize, u32>,
    attempts: Vec<u32>,
    done: HashMap<usize, (Json, UnitMeta)>,
    remaining: usize,
    duplicate_results: u64,
    peak_inflight: u64,
    fatal: Option<String>,
}

struct Ctl {
    state: Mutex<State>,
    wake: Condvar,
}

/// What a driver slot decided to run next.
enum Take {
    Unit { index: usize, stolen: bool },
    Exit,
}

fn take_next(ctl: &Ctl, worker: &Worker) -> Take {
    let mut state = ctl.state.lock().expect("cluster state poisoned");
    loop {
        if state.fatal.is_some() || state.remaining == 0 {
            return Take::Exit;
        }
        if worker.admitted() {
            if let Some(index) = state.pending.pop_front() {
                *state.inflight.entry(index).or_insert(0) += 1;
                note_inflight(&mut state);
                return Take::Unit {
                    index,
                    stolen: false,
                };
            }
            // Queue is dry but cells are still in flight elsewhere:
            // steal the least-attempted straggler (first wins, the
            // duplicate is free). A unit that has already won stays in
            // flight until its other attempts wake, and is never taken.
            let victim = state
                .inflight
                .iter()
                .filter(|(i, n)| {
                    **n > 0 && **n < MAX_INFLIGHT_PER_UNIT && !state.done.contains_key(i)
                })
                .min_by_key(|(i, n)| (**n, **i))
                .map(|(i, _)| *i);
            if let Some(index) = victim {
                *state.inflight.entry(index).or_insert(0) += 1;
                note_inflight(&mut state);
                return Take::Unit {
                    index,
                    stolen: true,
                };
            }
        }
        // Nothing eligible (evicted worker, or every straggler already
        // saturated): wait for a state change, with a timeout so
        // re-admission is noticed promptly.
        let (s, _) = ctl
            .wake
            .wait_timeout(state, Duration::from_millis(100))
            .expect("cluster state poisoned");
        state = s;
    }
}

fn note_inflight(state: &mut State) {
    let now: u64 = state.inflight.values().map(|n| u64::from(*n)).sum();
    state.peak_inflight = state.peak_inflight.max(now);
}

/// Outcome of one attempt against one worker.
enum Attempt {
    /// Digest-verified result document (and whether it was a cache hit).
    Ok { result: Json, cache_hit: bool },
    /// Transient or deterministic failure; requeue and maybe back off.
    Err { message: String, timeout: bool },
    /// The cell was completed elsewhere while this attempt polled;
    /// nothing to report.
    Abandoned,
}

/// Verifies the echoed request reproduces the unit digest — the
/// acceptance gate every result passes before it can win a cell.
fn verify_echo(envelope: &mut Fields, digest: &str) -> Result<(), String> {
    let recomputed = ServiceRequest::from_json(envelope.value("request")?)
        .map_err(|e| format!("echoed request is invalid: {e}"))?
        .digest();
    if recomputed != digest {
        return Err(format!(
            "digest mismatch: dispatched {digest}, worker echoed a request hashing to {recomputed}"
        ));
    }
    Ok(())
}

fn parse_body(resp: &Response) -> Result<Json, String> {
    parse(&resp.text()).map_err(|e| format!("worker sent unparseable JSON: {e}"))
}

/// Runs one unit on one worker: submit, (poll, fetch) on a queue miss,
/// verify the echoed digest either way. `abandon` is polled between
/// status checks so a straggler attempt stops once another worker's
/// result already won the cell. Every failure but a timeout is an error.
fn run_attempt(
    client: &mut Client,
    unit: &Unit,
    deadline: Instant,
    abandon: &dyn Fn() -> bool,
) -> Result<Attempt, String> {
    let resp = client
        .post("/v1/run", unit.payload.as_bytes())
        .map_err(|e| format!("submit failed: {e}"))?;
    match resp.status {
        200 | 202 => {}
        503 => return Err("worker refused intake (queue full or draining)".into()),
        s => return Err(format!("submit answered {s}: {}", resp.text())),
    }
    let envelope = parse_body(&resp)?;
    let mut f = Fields::new(&envelope)?;
    verify_echo(&mut f, &unit.digest)?;
    if resp.status == 200 {
        let result = f.value("result")?.clone();
        return Ok(Attempt::Ok {
            result,
            cache_hit: true,
        });
    }
    let hint = match resp.retry_after_ms {
        Some(ms) => ms,
        None => f.u64("retry_after_ms")?,
    };
    poll_and_fetch(client, unit, f.str("job")?, hint, deadline, abandon)
}

fn poll_and_fetch(
    client: &mut Client,
    unit: &Unit,
    job: &str,
    retry_after_ms: u64,
    deadline: Instant,
    abandon: &dyn Fn() -> bool,
) -> Result<Attempt, String> {
    let pause = Duration::from_millis(retry_after_ms.clamp(20, 1_000));
    loop {
        if abandon() {
            return Ok(Attempt::Abandoned);
        }
        if Instant::now() >= deadline {
            return Ok(Attempt::Err {
                message: "attempt deadline exceeded while polling".into(),
                timeout: true,
            });
        }
        let resp = client
            .get(&format!("/v1/jobs/{job}"))
            .map_err(|e| format!("poll failed: {e}"))?;
        if resp.status != 200 {
            return Err(format!("job vanished mid-poll ({})", resp.status));
        }
        let doc = parse_body(&resp)?;
        let mut status = Fields::new(&doc)?;
        match status.str("status")? {
            "done" => break,
            "failed" => {
                let why = status.str("error")?;
                return Err(format!("simulation failed on worker: {why}"));
            }
            _ => std::thread::sleep(pause),
        }
    }
    let resp = client
        .get(&format!("/v1/results/{}", unit.digest))
        .map_err(|e| format!("result fetch failed: {e}"))?;
    if resp.status != 200 {
        return Err(format!("result fetch answered {}", resp.status));
    }
    Ok(Attempt::Ok {
        result: parse_body(&resp)?,
        cache_hit: false,
    })
}

/// One driver slot: pull-execute-report until the run finishes.
fn driver_loop(ctl: &Ctl, worker: &Worker, units: &[Unit], opts: &ClusterOptions) {
    let mut client = worker.client();
    let mut consecutive_failures: u32 = 0;
    loop {
        let (index, stolen) = match take_next(ctl, worker) {
            Take::Exit => return,
            Take::Unit { index, stolen } => (index, stolen),
        };
        worker.stats.dispatched.fetch_add(1, Ordering::Relaxed);
        if stolen {
            worker.stats.stolen.fetch_add(1, Ordering::Relaxed);
        }
        let started = Instant::now();
        let abandon = || {
            let state = ctl.state.lock().expect("cluster state poisoned");
            state.fatal.is_some() || state.done.contains_key(&index)
        };
        let deadline = started + opts.attempt_timeout;
        let outcome =
            run_attempt(&mut client, &units[index], deadline, &abandon).unwrap_or_else(|message| {
                Attempt::Err {
                    message,
                    timeout: false,
                }
            });
        let mut state = ctl.state.lock().expect("cluster state poisoned");
        if let Some(n) = state.inflight.get_mut(&index) {
            *n = n.saturating_sub(1);
        }
        match outcome {
            Attempt::Abandoned => {
                consecutive_failures = 0;
            }
            Attempt::Ok { result, cache_hit } => {
                consecutive_failures = 0;
                worker.record_latency(started.elapsed());
                if state.done.contains_key(&index) {
                    state.duplicate_results += 1;
                    worker.stats.duplicates.fetch_add(1, Ordering::Relaxed);
                } else {
                    let meta = UnitMeta {
                        worker: worker.addr.clone(),
                        attempts: u64::from(state.attempts[index]) + 1,
                        cache_hit,
                    };
                    state.done.insert(index, (result, meta));
                    state.remaining -= 1;
                    worker.stats.completed.fetch_add(1, Ordering::Relaxed);
                    let done = state.done.len();
                    let total = units.len();
                    ctl.wake.notify_all();
                    drop(state);
                    if let Some(cb) = &opts.on_progress {
                        cb(done, total);
                    }
                    continue;
                }
            }
            Attempt::Err { message, timeout } => {
                consecutive_failures += 1;
                worker.stats.retried.fetch_add(1, Ordering::Relaxed);
                if timeout {
                    worker.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                }
                state.attempts[index] += 1;
                if state.done.contains_key(&index) {
                    // Lost a race it no longer needed to win.
                } else if state.attempts[index] >= MAX_ATTEMPTS {
                    state.fatal = Some(format!(
                        "cell {} failed {} attempts; last error via {}: {message}",
                        units[index].digest, state.attempts[index], worker.addr
                    ));
                } else if !state.pending.contains(&index) {
                    state.pending.push_back(index);
                }
                ctl.wake.notify_all();
                drop(state);
                // Capped exponential backoff so a flapping worker's slot
                // does not hot-loop on refused connections.
                let exp = consecutive_failures.min(5);
                std::thread::sleep(Duration::from_millis(50u64 << exp).min(Duration::from_secs(2)));
                continue;
            }
        }
        ctl.wake.notify_all();
    }
}

/// Dispatches `request` across `addrs` and merges the results.
///
/// # Errors
///
/// Expansion-free requests never fail here; a run aborts when a cell
/// exhausts its attempts, every worker stays evicted past the grace
/// period, or the merge finds a malformed cell (all reported with the
/// offending digest or address).
pub fn run_cluster(
    request: &ServiceRequest,
    addrs: &[String],
    opts: &ClusterOptions,
) -> Result<ClusterOutcome, String> {
    if addrs.is_empty() {
        return Err("no workers given".into());
    }
    let plan = ClusterPlan::expand(request);
    let mut units: Vec<Unit> = Vec::new();
    for cell in &plan.cells {
        if units.iter().all(|u| u.digest != cell.digest) {
            let mut payload = cell.request.canonical_json().encode_pretty();
            payload.push('\n');
            units.push(Unit {
                digest: cell.digest.clone(),
                payload,
            });
        }
    }
    let workers: Arc<Vec<Worker>> = Arc::new(
        addrs
            .iter()
            .enumerate()
            .map(|(i, a)| Worker::new(i, a))
            .collect(),
    );
    let ctl = Arc::new(Ctl {
        state: Mutex::new(State {
            pending: (0..units.len()).collect(),
            attempts: vec![0; units.len()],
            remaining: units.len(),
            ..State::default()
        }),
        wake: Condvar::new(),
    });
    let units = Arc::new(units);
    let stop_probe = Arc::new(AtomicBool::new(false));
    let probe = {
        let (w, s) = (Arc::clone(&workers), Arc::clone(&stop_probe));
        std::thread::spawn(move || probe_loop(w, s, PROBE_INTERVAL))
    };
    let started = Instant::now();
    let slots: Vec<_> = workers
        .iter()
        .map(|w| w.index)
        .flat_map(|wi| (0..opts.inflight_per_worker.max(1)).map(move |_| wi))
        .map(|wi| {
            let (ctl, workers, units, opts) = (
                Arc::clone(&ctl),
                Arc::clone(&workers),
                Arc::clone(&units),
                opts.clone(),
            );
            std::thread::spawn(move || driver_loop(&ctl, &workers[wi], &units, &opts))
        })
        .collect();

    // Supervise: wait for completion or a fatal condition, aborting if
    // the whole fleet stays evicted past the grace period.
    let mut all_evicted_since: Option<Instant> = None;
    loop {
        {
            let mut state = ctl.state.lock().expect("cluster state poisoned");
            if state.remaining == 0 || state.fatal.is_some() {
                break;
            }
            if workers.iter().any(Worker::admitted) {
                all_evicted_since = None;
            } else {
                let since = *all_evicted_since.get_or_insert_with(Instant::now);
                if since.elapsed() > ALL_EVICTED_GRACE {
                    state.fatal = Some(format!(
                        "all {} workers evicted for {:?}; aborting",
                        workers.len(),
                        ALL_EVICTED_GRACE
                    ));
                    ctl.wake.notify_all();
                    break;
                }
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    for slot in slots {
        let _ = slot.join();
    }
    stop_probe.store(true, Ordering::Relaxed);
    let _ = probe.join();

    let mut state = ctl.state.lock().expect("cluster state poisoned");
    if let Some(fatal) = state.fatal.take() {
        return Err(fatal);
    }
    let mut results: HashMap<String, Json> = HashMap::new();
    let mut cells: Vec<CellReport> = Vec::new();
    for (i, unit) in units.iter().enumerate() {
        let (result, meta) = state
            .done
            .get(&i)
            .ok_or_else(|| format!("internal: unit {} has no result", unit.digest))?;
        results.insert(unit.digest.clone(), result.clone());
        cells.push(CellReport {
            digest: unit.digest.clone(),
            request: parse(&unit.payload).expect("payload is canonical JSON"),
            worker: meta.worker.clone(),
            attempts: meta.attempts,
            cache_hit: meta.cache_hit,
        });
    }
    let merged = plan.merge(&results)?;
    let totals = ClusterTotals {
        units: units.len() as u64,
        cells: plan.cells.len() as u64,
        duplicate_results: state.duplicate_results,
        peak_inflight: state.peak_inflight,
        wall_seconds: started.elapsed().as_secs_f64(),
    };
    Ok(ClusterOutcome {
        merged,
        cells,
        cluster: cluster_section(&workers, &totals),
        workers: workers.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_won_unit_still_in_flight_is_never_stolen() {
        // Unit 0 has won but one attempt still sleeps on it; unit 1 is
        // still running twice. Unit 0 has the fewer attempts, so only
        // its result keeps it from being stolen.
        let state = State {
            inflight: HashMap::from([(0, 1), (1, 2)]),
            done: HashMap::from([(0, (Json::Null, UnitMeta::default()))]),
            remaining: 1,
            ..State::default()
        };
        let ctl = Ctl {
            state: Mutex::new(state),
            wake: Condvar::new(),
        };
        let worker = Worker::new(0, "127.0.0.1:1");
        assert!(matches!(
            take_next(&ctl, &worker),
            Take::Unit {
                index: 1,
                stolen: true
            }
        ));
        let state = ctl.state.lock().unwrap();
        assert_eq!(state.inflight, HashMap::from([(0, 1), (1, 3)]));
    }
}
