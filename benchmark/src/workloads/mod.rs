//! The four workloads. Each one makes its inputs from the seed, sets up
//! (several times, keeping the first set-up), measures for at least the
//! requested seconds, then verifies every output it can afford to and
//! accounts each failed operation.

pub mod cluster;
pub mod detailed;
pub mod sampled;
pub mod serve;

use crate::trace::Tracer;
use rmt_serve::client::Client;
use rmt_sim::service::ServiceRequest;
use rmt_sim::{DeviceKind, Experiment, FigureCtx, ProgressSink, SimScale};
use rmt_stats::{Json, Xoshiro256};
use rmt_workloads::{Benchmark, Workload};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Every workload, in the order the benchmark runs them.
pub const NAMES: [&str; 4] = [
    "detailed_suite",
    "sampled_suite",
    "serve_mixed",
    "cluster_sweep",
];

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Repetitions of a set-up that takes seconds (the daemon's fill).
pub const SLOW_SETUPS: usize = 3;

/// What a workload run is given.
pub struct Ctx<'a> {
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// Minimum length of the timed region.
    pub seconds: f64,
    /// Span store (disabled on the untraced run).
    pub tracer: &'a Tracer,
    /// Directory for caches; the caller creates and removes it.
    pub dir: PathBuf,
    /// Shrinks every input so a debug build runs all four workloads in
    /// seconds (the smoke test).
    pub tiny: bool,
}

/// What a workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Duration of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Length of the timed region.
    pub wall_s: f64,
    /// Peak resident set size at the end of the timed region.
    pub peak_rss_mb: f64,
    /// Latency of every operation that completed in the timed region.
    pub op_ms: Vec<f64>,
    /// Operations attempted (timed region plus replays).
    pub attempted: u64,
    /// Operations that failed: transport errors, non-2xx answers and
    /// output mismatches.
    pub failed: u64,
    /// The first few failure descriptions.
    pub errors: Vec<String>,
    /// Digest of the workload's deterministic output, checked against the
    /// pinned digests where the seed has one.
    pub digest: String,
    /// Per-layer values the workload measured on its own calls (traced
    /// run only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Inputs the workload captured for the layer probes.
    pub captured: Captured,
}

/// Inputs captured during a run, replayed by the layer probes.
#[derive(Debug, Default, Clone)]
pub struct Captured {
    /// A run request document the workload submitted.
    pub request: Option<String>,
    /// The result document text served for it.
    pub result: Option<String>,
    /// A run request the workload had simulated (the `service.execute`
    /// replay).
    pub execute: Option<String>,
}

impl Outcome {
    /// Counts one failed operation and keeps its description.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 16 {
            self.errors.push(what);
        }
    }

    /// Closes the timed region that began at `start`: its length and the
    /// memory peak so far (verification afterwards does not count).
    pub fn end_timed(&mut self, start: Instant) {
        self.wall_s = secs(start);
        self.peak_rss_mb = crate::host::peak_rss_mb();
    }

    /// Checks `got` against `want`, failing one operation on a mismatch.
    pub fn expect_eq(&mut self, what: &str, got: &str, want: &str) {
        if got != want {
            self.fail(format!("{what}: got {got}, want {want}"));
        }
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Milliseconds since `t`.
pub fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// `items` in a seed-determined order (Fisher–Yates).
pub fn shuffled<T: Copy>(items: &[T], seed: u64) -> Vec<T> {
    let mut rng = Xoshiro256::seed_from(seed);
    let mut v = items.to_vec();
    for i in (1..v.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        v.swap(i, j);
    }
    v
}

/// Times `f` as one set-up repetition.
pub fn timed_setup<T>(out: &mut Outcome, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let kept = f();
    out.setup_s.push(secs(t));
    kept
}

/// The remaining set-up repetitions up to `total`, each timed and torn
/// down at once (none in the smoke test). They run after the timed region
/// and its verification, so that what they leave allocated does not count
/// in the measured memory peak.
pub fn repeat_setups<T>(ctx: &Ctx, out: &mut Outcome, total: usize, mut f: impl FnMut(usize) -> T) {
    let total = if ctx.tiny { 1 } else { total };
    for rep in 1..total {
        drop(timed_setup(out, || f(rep)));
    }
}

/// An in-process run of `b` on `kind` at `scale`.
pub fn experiment(kind: DeviceKind, b: Benchmark, scale: SimScale) -> Experiment {
    Experiment::new(kind)
        .benchmark(b)
        .seed(scale.seed)
        .warmup(scale.warmup)
        .measure(scale.measure)
}

/// Host time of in-process simulations, split by layer: workload
/// generation and device construction from separate calls, and whole
/// runs against the measured-window cycles they simulated.
#[derive(Debug, Default)]
pub struct SimTiming {
    /// `Workload::generate` calls.
    pub generate_ms: Vec<f64>,
    /// `Experiment::build_device` calls, minus their generation.
    pub build_ms: Vec<f64>,
    /// Summed time of whole runs (construction and warmup included).
    pub run_ms: f64,
    /// Measured-window cycles of those runs.
    pub run_cycles: u64,
}

impl SimTiming {
    /// Times workload generation and device construction of `e` (which
    /// runs `benches` with workload seed `seed`) apart, each in a span
    /// under `parent`.
    pub fn construct(
        &mut self,
        tracer: &Tracer,
        (parent, trace): (u64, u64),
        e: &Experiment,
        benches: &[Benchmark],
        seed: u64,
    ) {
        let t = Instant::now();
        tracer.span("workloads.generate", Some(parent), trace, |_| {
            for &b in benches {
                std::hint::black_box(Workload::generate(b, seed));
            }
        });
        let generate_ms = ms(t);
        let t = Instant::now();
        drop(tracer.span("core.build_device", Some(parent), trace, |_| {
            e.build_device()
        }));
        self.generate_ms.push(generate_ms);
        // `build_device` generates the workloads again.
        self.build_ms.push((ms(t) - generate_ms).max(0.0));
    }

    /// The construction split of `kind` on each of `benches` at `scale`,
    /// one span per benchmark.
    pub fn construct_each(
        &mut self,
        tracer: &Tracer,
        kind: DeviceKind,
        benches: &[Benchmark],
        scale: SimScale,
    ) {
        for (i, &b) in benches.iter().enumerate() {
            let trace = i as u64 + 1;
            tracer.span("harness.construct", None, trace, |id| {
                let e = experiment(kind, b, scale);
                self.construct(tracer, (id, trace), &e, &[b], scale.seed)
            });
        }
    }
}

/// Re-executes a run request in-process with `ServiceRequest::execute`:
/// the reference a served result must equal byte for byte. Returns the
/// result text as the daemon stores it; `timing` gains the construction
/// split and the run.
pub fn reexecute(
    tracer: &Tracer,
    trace: u64,
    request: &str,
    timing: &mut SimTiming,
) -> Result<String, String> {
    let req = rmt_stats::json::parse(request)
        .map_err(|e| e.to_string())
        .and_then(|doc| ServiceRequest::from_json(&doc))
        .map_err(|e| format!("request does not parse: {e}"))?;
    let ServiceRequest::Run(run) = &req else {
        return Err("not a run request".into());
    };
    tracer.span("service.reexecute", None, trace, |id| {
        let e = Experiment::from_spec(run.spec.clone())
            .benchmarks(&run.benches)
            .seed(run.scale.seed)
            .warmup(run.scale.warmup)
            .measure(run.scale.measure)
            .max_cycle_factor(run.max_cycle_factor);
        timing.construct(tracer, (id, trace), &e, &run.benches, run.scale.seed);
        let t = Instant::now();
        let doc = tracer.span("service.execute", Some(id), trace, |_| req.execute(1, None))?;
        let mut text = doc.encode_pretty();
        text.push('\n');
        timing.run_ms += ms(t);
        timing.run_cycles += result_cycles(&text);
        Ok(text)
    })
}

/// The jobs of one figure call on a one-worker runner.
#[derive(Debug, Default)]
pub struct Jobs {
    /// Each job's latency in submission order (one worker, so jobs run
    /// one after another in that order).
    pub ms: Vec<f64>,
    /// Simulated cycles the runner was credited with.
    pub sim_cycles: u64,
}

/// Runs `f` on a one-worker `FigureCtx` whose progress hook stamps every
/// job completion, inside a span named `name`; each job becomes a child
/// span named by `job_name(index)`.
pub fn timed_jobs<T>(
    tracer: &Tracer,
    name: &'static str,
    trace: u64,
    job_name: impl Fn(usize) -> &'static str,
    f: impl FnOnce(&FigureCtx) -> T,
) -> (T, Jobs) {
    let mut fctx = FigureCtx::new(1);
    let stamps = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&stamps);
    fctx.runner.set_hook(Some(ProgressSink::new(move |_, _| {
        sink.lock()
            .expect("stamp list poisoned")
            .push(Instant::now());
    })));
    tracer.span(name, None, trace, |id| {
        let mut prev = Instant::now();
        let r = f(&fctx);
        let mut jobs = Jobs {
            ms: Vec::new(),
            sim_cycles: fctx.runner.sim_cycles(),
        };
        for (i, &t) in stamps
            .lock()
            .expect("stamp list poisoned")
            .iter()
            .enumerate()
        {
            tracer.record(job_name(i), Some(id), trace, prev, t);
            jobs.ms.push((t - prev).as_secs_f64() * 1e3);
            prev = t;
        }
        (r, jobs)
    })
}

/// Measured-window cycles a run result document reports.
pub fn result_cycles(text: &str) -> u64 {
    rmt_stats::json::parse(text)
        .ok()
        .and_then(|d| d.get("cycles").and_then(Json::as_u64))
        .unwrap_or(0)
}

/// The cache counters the serving workloads report.
pub const CACHE_COUNTERS: [&str; 3] = [
    "serve/cache/mem_hits",
    "serve/cache/disk_hits",
    "serve/cache/evictions",
];

/// Counters `names` from each daemon's `/metrics`, summed over `addrs`.
pub fn server_counters<const N: usize>(addrs: &[String], names: [&str; N]) -> [f64; N] {
    let mut sums = [0.0; N];
    for a in addrs {
        let doc = Client::with_timeouts(a, Duration::from_secs(2), Duration::from_secs(10))
            .get("/metrics")
            .ok()
            .and_then(|r| rmt_stats::json::parse(&r.text()).ok());
        for (sum, name) in sums.iter_mut().zip(names) {
            *sum += doc
                .as_ref()
                .and_then(|d| d.get(name))
                .and_then(Json::as_u64)
                .unwrap_or(0) as f64;
        }
    }
    sums
}

/// Per-layer simulator values: the simulations the workload caused and
/// their measured-window cycles, then, from `t`, medians of the
/// generation and construction calls and host time per simulated cycle.
pub fn sim_layers(
    layers: &mut BTreeMap<&'static str, f64>,
    jobs: usize,
    cycles: u64,
    t: &SimTiming,
) {
    use crate::summary::median;
    layers.insert("sim.jobs", jobs as f64);
    layers.insert("sim.cycles", cycles as f64);
    layers.insert("workloads.generate_ms", median(&t.generate_ms));
    layers.insert("core.build_device_ms", median(&t.build_ms));
    layers.insert(
        "sim.ns_per_cycle",
        t.run_ms * 1e6 / t.run_cycles.max(1) as f64,
    );
}
