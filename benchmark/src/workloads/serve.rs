//! `serve_mixed`: an in-process `rmt-serve` daemon (default
//! `ServerConfig`, ephemeral port, fresh cache directory, real sockets)
//! under a closed loop of two keep-alive clients for the timed region.
//!
//! * Set-up starts the daemon and fills it with 192 distinct results at
//!   a tiny scale (warmup 500, measure 2000) — more than the 128-entry
//!   memory tier, so about a third of the reads come from disk.
//! * The *reader* POSTs the warm documents in a seeded order; every
//!   answer must be a cache hit whose result equals the bytes recorded at
//!   fill time.
//! * The *writer* submits fresh quick-scale run requests, polls with the
//!   Retry-After hint clamped to 20–1000 ms as the cluster coordinator
//!   clamps it, and fetches the result.
//!
//! Why: every real caller waits for its reply, so the loop is closed.
//! The workload exercises http, service, stats, cache and jobs while the
//! cycle loop runs only the writer's small jobs; writes beside reads
//! expose a hit-path gain that costs cache puts or simulation, and the
//! converse. One operation is one request cycle of either client.
//!
//! After the timed region every 8th writer result and every 8th warm
//! document are re-executed in-process and compared byte for byte.

use super::{
    ms, reexecute, repeat_setups, result_cycles, server_counters, shuffled, sim_layers,
    timed_setup, Captured, Ctx, Outcome, SimTiming, CACHE_COUNTERS, SLOW_SETUPS,
};
use crate::probe;
use crate::trace::Tracer;
use rmt_serve::client::Client;
use rmt_serve::{Server, ServerConfig, ServerHandle};
use rmt_stats::json::parse;
use rmt_stats::Json;
use rmt_workloads::profile::ALL_BENCHMARKS;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Device kinds the request documents rotate through.
const KINDS: [&str; 3] = ["Base", "SRT", "CRT"];

/// Warm documents at full size; the daemon's memory tier holds 128.
const WARM_DOCS: usize = 192;

/// Every how many results one is re-executed in-process.
const VERIFY_EVERY: usize = 8;

/// Requests one fill client keeps queued (two clients stay under the
/// daemon's 64-job queue cap).
const FILL_BATCH: usize = 16;

/// A run request document. Distinct `(bench, kind, seed)` per index;
/// benchmarks rotate from the smallest working set up, so a short list of
/// documents (the smoke test's) stays cheap to simulate.
fn request_doc(
    bench_index: usize,
    kind_index: usize,
    warmup: u64,
    measure: u64,
    seed: u64,
) -> String {
    let mut benches = ALL_BENCHMARKS.to_vec();
    benches.sort_by_key(|b| b.profile().working_set);
    Json::obj()
        .with("type", Json::Str("run".into()))
        .with("spec", Json::Str(KINDS[kind_index % KINDS.len()].into()))
        .with(
            "benches",
            Json::Arr(vec![Json::Str(
                benches[bench_index % benches.len()].name().into(),
            )]),
        )
        .with(
            "scale",
            Json::obj()
                .with("warmup", Json::U64(warmup))
                .with("measure", Json::U64(measure))
                .with("seed", Json::U64(seed)),
        )
        .encode()
}

/// Warm document `i` of a run seeded `seed`.
pub fn warm_doc(seed: u64, i: usize) -> String {
    let n = ALL_BENCHMARKS.len();
    request_doc(
        i,
        i / n,
        500,
        2_000,
        seed * 1_000 + (i / (n * KINDS.len())) as u64,
    )
}

/// The writer's `k`-th fresh request: quick scale (tiny in the smoke
/// test), never a warm document.
fn fresh_doc(ctx: &Ctx, k: usize) -> String {
    let n = ALL_BENCHMARKS.len();
    let (warmup, measure) = if ctx.tiny {
        (500, 2_000)
    } else {
        (2_000, 10_000)
    };
    request_doc(
        k,
        k,
        warmup,
        measure,
        ctx.seed * 1_000 + 500 + (k / n) as u64,
    )
}

/// The HTTP request bytes the client sends for a POST, as the daemon
/// parses them.
pub fn post_bytes(addr: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// A running daemon holding the warm documents; dropping it drains the
/// daemon and removes its cache.
struct Daemon {
    handle: Option<ServerHandle>,
    addr: String,
    dir: PathBuf,
    /// `(request, stored result text)` per warm document.
    warm: Vec<(String, String)>,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(h) = self.handle.take() {
            h.stop();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn start_daemon(ctx: &Ctx, rep: usize, docs: usize) -> Result<Daemon, String> {
    let dir = ctx.dir.join(format!("serve{rep}"));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = ServerConfig {
        cache_dir: dir.clone(),
        ..ServerConfig::default()
    };
    if ctx.tiny {
        // A tiny fill must still overflow the memory tier.
        cfg.mem_cache = docs * 2 / 3;
    }
    let handle = Server::start(cfg).map_err(|e| format!("daemon start: {e}"))?;
    let mut d = Daemon {
        addr: handle.addr().to_string(),
        handle: Some(handle),
        dir,
        warm: Vec::new(),
    };
    let requests: Vec<String> = (0..docs).map(|i| warm_doc(ctx.seed, i)).collect();
    let halves: Vec<Result<Vec<String>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = requests
            .chunks(docs.div_ceil(2))
            .map(|chunk| s.spawn(|| fill(&d.addr, chunk)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("fill client panicked".into()))
            })
            .collect()
    });
    let mut results = Vec::new();
    for half in halves {
        results.extend(half?);
    }
    d.warm = requests.into_iter().zip(results).collect();
    Ok(d)
}

/// Submits `docs` in batches, waits for each job and fetches its result
/// text.
fn fill(addr: &str, docs: &[String]) -> Result<Vec<String>, String> {
    let mut c = Client::new(addr);
    let mut texts = Vec::new();
    for batch in docs.chunks(FILL_BATCH) {
        let mut pending = Vec::new();
        for doc in batch {
            let r = c
                .post("/v1/run", doc.as_bytes())
                .map_err(|e| format!("fill submit: {e}"))?;
            if r.status != 202 {
                return Err(format!("fill submit answered {}: {}", r.status, r.text()));
            }
            let env = parse(&r.text()).map_err(|e| format!("fill envelope: {e}"))?;
            let field = |k: &str| env.get(k).and_then(Json::as_str).map(str::to_string);
            pending.push((
                field("job").ok_or("fill envelope lacks a job")?,
                field("digest").ok_or("fill envelope lacks a digest")?,
            ));
        }
        for (job, digest) in pending {
            wait_done(&mut c, &job, Duration::from_millis(10))?;
            texts.push(fetch(&mut c, &digest)?);
        }
    }
    Ok(texts)
}

/// Polls a job until it is done; returns the number of polls.
fn wait_done(c: &mut Client, job: &str, pause: Duration) -> Result<u64, String> {
    let mut polls = 0;
    loop {
        polls += 1;
        let r = c
            .get(&format!("/v1/jobs/{job}"))
            .map_err(|e| format!("poll: {e}"))?;
        if r.status != 200 {
            return Err(format!("poll answered {}", r.status));
        }
        let doc = parse(&r.text()).map_err(|e| format!("status document: {e}"))?;
        match doc.get("status").and_then(Json::as_str) {
            Some("done") => return Ok(polls),
            Some("failed") => return Err(format!("job {job} failed: {}", r.text())),
            _ => std::thread::sleep(pause),
        }
    }
}

fn fetch(c: &mut Client, digest: &str) -> Result<String, String> {
    let r = c
        .get(&format!("/v1/results/{digest}"))
        .map_err(|e| format!("fetch: {e}"))?;
    if r.status != 200 {
        return Err(format!("fetch answered {}", r.status));
    }
    Ok(r.text())
}

/// One client's tally over the timed region.
#[derive(Default)]
struct Tally {
    ms: Vec<f64>,
    attempted: u64,
    errors: Vec<String>,
    polls: u64,
    /// `(request, served result)` of every `VERIFY_EVERY`th success.
    verify: Vec<(String, String)>,
    cycles: u64,
}

impl Tally {
    fn absorb(self, out: &mut Outcome) {
        out.op_ms.extend(&self.ms);
        out.attempted += self.attempted;
        for e in self.errors {
            out.fail(e);
        }
    }
}

/// The reader: warm documents in a seeded order, each a cache hit whose
/// result must be the fill-time document.
fn reader(ctx: &Ctx, d: &Daemon, deadline: Instant, parent: u64) -> Tally {
    let mut t = Tally::default();
    let order = shuffled(&(0..d.warm.len()).collect::<Vec<_>>(), ctx.seed);
    let expected: Vec<String> = d
        .warm
        .iter()
        .map(|(_, text)| parse(text).map(|doc| doc.encode()).unwrap_or_default())
        .collect();
    let mut c = Client::new(&d.addr);
    for &i in order.iter().cycle() {
        if Instant::now() >= deadline {
            break;
        }
        t.attempted += 1;
        let start = Instant::now();
        let posted = ctx.tracer.span("serve.hit", Some(parent), i as u64, |_| {
            c.post("/v1/run", d.warm[i].0.as_bytes())
        });
        let r = match posted {
            Ok(r) => r,
            Err(e) => {
                t.errors.push(format!("hit {i}: {e}"));
                continue;
            }
        };
        let latency = ms(start);
        if r.status != 200 {
            t.errors.push(format!("hit {i}: answered {}", r.status));
            continue;
        }
        let env = parse(&r.text()).unwrap_or(Json::Null);
        let result = env.get("result").map(Json::encode).unwrap_or_default();
        if env.get("cache_hit").and_then(Json::as_bool) != Some(true) || result != expected[i] {
            t.errors.push(format!(
                "hit {i}: the served result is not the fill-time document"
            ));
            continue;
        }
        t.ms.push(latency);
    }
    t
}

/// The writer: fresh requests submitted, polled and fetched.
fn writer(ctx: &Ctx, addr: &str, deadline: Instant, parent: u64) -> Tally {
    let mut t = Tally::default();
    let mut c = Client::new(addr);
    for k in 0.. {
        if Instant::now() >= deadline {
            break;
        }
        t.attempted += 1;
        let doc = fresh_doc(ctx, k);
        let start = Instant::now();
        let trace = WARM_DOCS as u64 + k as u64;
        let r = ctx.tracer.span("serve.miss", Some(parent), trace, |id| {
            miss(&mut c, &doc, ctx.tracer, id, trace)
        });
        match r {
            Ok((text, polls)) => {
                t.ms.push(ms(start));
                t.polls += polls;
                t.cycles += result_cycles(&text);
                if k % VERIFY_EVERY == 0 {
                    t.verify.push((doc, text));
                }
            }
            Err(e) => t.errors.push(format!("miss {k}: {e}")),
        }
    }
    t
}

/// Submit, poll with the clamped Retry-After pause, fetch.
fn miss(
    c: &mut Client,
    doc: &str,
    tracer: &Tracer,
    parent: u64,
    trace: u64,
) -> Result<(String, u64), String> {
    let r = tracer
        .span("serve.submit", Some(parent), trace, |_| {
            c.post("/v1/run", doc.as_bytes())
        })
        .map_err(|e| format!("submit: {e}"))?;
    if r.status != 202 {
        return Err(format!("submit answered {}", r.status));
    }
    let env = parse(&r.text()).map_err(|e| format!("envelope: {e}"))?;
    let field = |k: &str| env.get(k).and_then(Json::as_str).map(str::to_string);
    let job = field("job").ok_or("envelope lacks a job")?;
    let digest = field("digest").ok_or("envelope lacks a digest")?;
    let pause = Duration::from_millis(r.retry_after_ms.unwrap_or(100).clamp(20, 1_000));
    let polls = tracer.span("serve.poll", Some(parent), trace, |_| {
        std::thread::sleep(pause);
        wait_done(c, &job, pause)
    })?;
    let text = tracer.span("serve.fetch", Some(parent), trace, |_| fetch(c, &digest))?;
    Ok((text, polls))
}

/// Compares re-executed results with the served ones.
fn verify(
    ctx: &Ctx,
    pairs: &[(String, String)],
    what: &str,
    out: &mut Outcome,
    timing: &mut SimTiming,
) {
    for (n, (request, served)) in pairs.iter().enumerate() {
        out.attempted += 1;
        match reexecute(ctx.tracer, n as u64 + 1, request, timing) {
            Ok(text) if &text == served => {}
            Ok(_) => out.fail(format!(
                "{what} {n}: served bytes differ from an in-process run"
            )),
            Err(e) => out.fail(format!("{what} {n}: {e}")),
        }
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    run_with(ctx, |_| {})
}

/// [`run`] with a hook called on the cache directory between set-up and
/// the timed region.
pub fn run_with(ctx: &Ctx, before_timed: impl Fn(&Path)) -> Outcome {
    let mut out = Outcome::default();
    let docs = if ctx.tiny { 12 } else { WARM_DOCS };
    let d = match timed_setup(&mut out, || start_daemon(ctx, 0, docs)) {
        Ok(d) => d,
        Err(e) => {
            out.attempted += 1;
            out.fail(e);
            return out;
        }
    };
    before_timed(&d.dir);
    let addr = [d.addr.clone()];
    let before = server_counters(&addr, CACHE_COUNTERS);

    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(ctx.seconds);
    let (r, mut w) = std::thread::scope(|s| {
        let r = s.spawn(|| {
            ctx.tracer
                .span("serve.reader", None, 0, |id| reader(ctx, &d, deadline, id))
        });
        let w = s.spawn(|| {
            ctx.tracer.span("serve.writer", None, 0, |id| {
                writer(ctx, &d.addr, deadline, id)
            })
        });
        (
            r.join().expect("reader thread panicked"),
            w.join().expect("writer thread panicked"),
        )
    });
    out.end_timed(start);
    let after = server_counters(&addr, CACHE_COUNTERS);

    let hit_p50 = crate::summary::median(&r.ms);
    let (misses, polls, cycles) = (w.ms.len(), w.polls, w.cycles);
    let writes = std::mem::take(&mut w.verify);
    r.absorb(&mut out);
    w.absorb(&mut out);

    let warm_sample: Vec<(String, String)> = d.warm.iter().step_by(VERIFY_EVERY).cloned().collect();
    let mut timing = SimTiming::default();
    verify(ctx, &warm_sample, "warm document", &mut out, &mut timing);
    verify(ctx, &writes, "writer result", &mut out, &mut timing);

    let stored: Vec<Json> = d.warm.iter().map(|(_, t)| Json::Str(t.clone())).collect();
    out.digest = rmt_stats::digest::digest(&Json::Arr(stored));
    out.captured = Captured {
        request: d.warm.first().map(|(q, _)| q.clone()),
        result: d.warm.first().map(|(_, r)| r.clone()),
        execute: writes.first().map(|(q, _)| q.clone()),
    };

    if ctx.tracer.on() {
        sim_layers(&mut out.layers, misses, cycles, &timing);
        let [mem, disk, evictions] = [0, 1, 2].map(|i| after[i] - before[i]);
        out.layers
            .insert("cache.mem_hit_ratio", mem / (mem + disk).max(1.0));
        out.layers.insert("cache.evictions", evictions);
        out.layers
            .insert("jobs.polls_per_miss", polls as f64 / misses.max(1) as f64);
        probe::hit_path(ctx, &d.addr, &out.captured, &mut out.layers);
        let compute_ms = out.layers["serve.hit_compute_us"] / 1e3;
        out.layers
            .insert("serve.hit_wait_share", (hit_p50 - compute_ms) / hit_p50);
    }
    drop(d);
    repeat_setups(ctx, &mut out, SLOW_SETUPS, |rep| {
        start_daemon(ctx, rep, docs)
    });
    out
}
