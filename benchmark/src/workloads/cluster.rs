//! `cluster_sweep`: two in-process `rmt-serve` workers, each with a fresh
//! cache directory of its own as `rmt-cluster --spawn` gives them, and
//! `rmt_cluster::run_cluster` with default `ClusterOptions` on the
//! `slack_sq` sensitivity sweep at quick scale (60 distinct cells). The
//! first round misses every cell; the same request is then repeated until
//! the timed region has run its seconds, at least two more rounds.
//!
//! Why: the only workload that exercises the coordinator (dispatch,
//! poll, verify, steal, merge). One operation is one cell of the miss
//! round, timed from the start of its sweep request (`run_cluster` call)
//! to its acceptance by the coordinator's progress callback: a whole
//! round's time is quantized by the coordinator's 250 ms health-probe
//! tick, which it waits for before returning. The miss round is bound by
//! worker compute and Retry-After pacing and repeats within a fraction of
//! a per cent. The repeated rounds do not: the coordinator does not route
//! a cell to the worker that cached it, so each one re-simulates a share
//! of the cells that depends on timing. Their throughput is reported as a
//! per-layer metric.
//!
//! After the timed region every cell's result is fetched from the worker
//! that won it, the merge is redone in-process and must equal the
//! coordinator's bitwise, and every 8th cell is re-executed in-process.

use super::{
    ms, reexecute, repeat_setups, result_cycles, secs, server_counters, sim_layers, timed_setup,
    Captured, Ctx, Outcome, SimTiming, CACHE_COUNTERS, SETUPS,
};
use rmt_cluster::{run_cluster, ClusterOptions, ClusterOutcome};
use rmt_serve::client::Client;
use rmt_serve::{Server, ServerConfig, ServerHandle};
use rmt_sim::service::{ClusterPlan, ServiceRequest};
use rmt_stats::json::parse;
use rmt_stats::Json;
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The `slack_sq` sweep: slack-fetch LVQ depth and store-queue size on
/// SRT (a copy, so that editing the repository's sweep file does not
/// change this workload).
const SWEEP: &str = r#"{
  "name": "slack_sq",
  "base": "SRT",
  "benches": ["compress", "gcc", "go", "m88ksim", "swim", "vortex"],
  "axes": [
    {"path": "env.lvq_entries", "values": [8, 16, 32, 64, 128]},
    {"path": "core.sq_entries", "values": [16, 32, 64, 128, 256]}
  ]
}"#;

/// A three-cell sweep for the smoke test and the layer probes.
pub const TINY_SWEEP: &str = r#"{
  "name": "tiny",
  "base": "SRT",
  "benches": ["m88ksim"],
  "axes": [{"path": "core.sq_entries", "values": [16, 32]}]
}"#;

const WORKERS: usize = 2;
const VERIFY_EVERY: usize = 8;
/// Rounds after the miss round, at least.
const MIN_REPEATS: usize = 2;

/// The sweep request: quick scale (warmup 2000, measure 10000), workload
/// seed `seed`.
pub fn request(sweep: &str, warmup: u64, measure: u64, seed: u64) -> ServiceRequest {
    let doc = Json::obj()
        .with("type", Json::Str("sweep".into()))
        .with("sweep", parse(sweep).expect("the sweep constant is JSON"))
        .with(
            "scale",
            Json::obj()
                .with("warmup", Json::U64(warmup))
                .with("measure", Json::U64(measure))
                .with("seed", Json::U64(seed)),
        );
    ServiceRequest::from_json(&doc).expect("the sweep constant is a valid request")
}

/// The worker fleet; dropping it drains every worker and removes the
/// caches.
struct Fleet {
    handles: Vec<ServerHandle>,
    addrs: Vec<String>,
    dirs: Vec<PathBuf>,
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for h in self.handles.drain(..) {
            h.stop();
        }
        for d in &self.dirs {
            let _ = std::fs::remove_dir_all(d);
        }
    }
}

fn start_fleet(ctx: &Ctx, rep: usize) -> Result<Fleet, String> {
    let mut fleet = Fleet {
        handles: Vec::new(),
        addrs: Vec::new(),
        dirs: Vec::new(),
    };
    for w in 0..WORKERS {
        let dir = ctx.dir.join(format!("cluster{rep}-{w}"));
        let _ = std::fs::remove_dir_all(&dir);
        let h = Server::start(ServerConfig {
            cache_dir: dir.clone(),
            workers: 1,
            queue_cap: 256,
            mem_cache: 256,
            ..ServerConfig::default()
        })
        .map_err(|e| format!("worker {w} start: {e}"))?;
        fleet.addrs.push(h.addr().to_string());
        fleet.handles.push(h);
        fleet.dirs.push(dir);
    }
    // A fleet is up when every worker answers its health probe. The
    // probes run concurrently, so set-up waits for the slowest worker's
    // first accept, not for their sum.
    let health: Vec<Result<(), String>> = std::thread::scope(|s| {
        let probes: Vec<_> = fleet
            .addrs
            .iter()
            .map(|a| {
                s.spawn(move || match Client::new(a).get("/healthz") {
                    Ok(r) if r.status == 200 => Ok(()),
                    Ok(r) => Err(format!("worker {a} health answered {}", r.status)),
                    Err(e) => Err(format!("worker {a} health: {e}")),
                })
            })
            .collect();
        probes
            .into_iter()
            .map(|p| {
                p.join()
                    .unwrap_or_else(|_| Err("health probe panicked".into()))
            })
            .collect()
    });
    health.into_iter().collect::<Result<(), String>>()?;
    Ok(fleet)
}

/// Counters summed over the per-worker families of a cluster section.
fn worker_sum(outcome: &ClusterOutcome, counter: &str) -> f64 {
    let Some(Json::Obj(fields)) = outcome.cluster.get("metrics") else {
        return 0.0;
    };
    fields
        .iter()
        .filter(|(k, _)| k.starts_with("cluster/worker") && k.ends_with(counter))
        .filter_map(|(_, v)| v.as_u64())
        .sum::<u64>() as f64
}

fn total(outcome: &ClusterOutcome, name: &str) -> f64 {
    outcome
        .cluster
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(Json::as_u64)
        .unwrap_or(0) as f64
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let req = if ctx.tiny {
        request(TINY_SWEEP, 500, 2_000, ctx.seed)
    } else {
        request(SWEEP, 2_000, 10_000, ctx.seed)
    };
    let fleet = match timed_setup(&mut out, || start_fleet(ctx, 0)) {
        Ok(f) => f,
        Err(e) => {
            out.attempted += 1;
            out.fail(e);
            return out;
        }
    };

    let stamps = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&stamps);
    let opts = ClusterOptions {
        on_progress: Some(Arc::new(move |_, _| {
            sink.lock()
                .expect("stamp list poisoned")
                .push(Instant::now());
        })),
        ..ClusterOptions::default()
    };
    let start = Instant::now();
    let mut rounds: Vec<ClusterOutcome> = Vec::new();
    let mut round_ms = Vec::new();
    while rounds.len() < 1 + MIN_REPEATS || secs(start) < ctx.seconds {
        out.attempted += 1;
        let t = Instant::now();
        let trace = rounds.len() as u64 + 1;
        let r = ctx.tracer.span("cluster.round", None, trace, |_| {
            run_cluster(&req, &fleet.addrs, &opts)
        });
        let done: Vec<Instant> = std::mem::take(&mut *stamps.lock().expect("stamp list poisoned"));
        match r {
            Ok(o) => {
                round_ms.push(ms(t));
                if rounds.is_empty() {
                    out.op_ms
                        .extend(done.iter().map(|&d| (d - t).as_secs_f64() * 1e3));
                }
                rounds.push(o);
            }
            Err(e) => {
                out.fail(format!("round {trace}: {e}"));
                break;
            }
        }
    }
    out.end_timed(start);
    // The end-to-end rate is the miss round's.
    out.wall_s = round_ms.first().map_or(out.wall_s, |t| t / 1e3);
    let Some(first) = rounds.first() else {
        return out;
    };
    out.digest = rmt_stats::digest::digest(&first.merged);
    for (i, r) in rounds.iter().enumerate().skip(1) {
        let d = rmt_stats::digest::digest(&r.merged);
        let want = out.digest.clone();
        out.expect_eq(&format!("round {} merged document", i + 1), &d, &want);
    }
    let rounds_ms: Vec<String> = round_ms.iter().map(|t| format!("{t:.0}")).collect();
    eprintln!("  sweep rounds (ms): {}", rounds_ms.join(" "));

    // The whole request in one process must give the merged document.
    out.attempted += 1;
    let reference = ctx
        .tracer
        .span("cluster.reference", None, 0, |_| req.execute(1, None));
    match reference {
        Ok(doc) if doc.encode() == first.merged.encode() => {}
        Ok(_) => out.fail("the merged document differs from an in-process run".into()),
        Err(e) => out.fail(format!("in-process run of the sweep: {e}")),
    }

    // Every cell's bytes from the worker that won it; every 8th is
    // re-executed in-process.
    let mut texts: HashMap<String, String> = HashMap::new();
    let mut clients: HashMap<String, Client> = HashMap::new();
    for cell in &first.cells {
        let c = clients
            .entry(cell.worker.clone())
            .or_insert_with(|| Client::new(&cell.worker));
        match c.get(&format!("/v1/results/{}", cell.digest)) {
            Ok(r) if r.status == 200 => {
                texts.insert(cell.digest.clone(), r.text());
            }
            Ok(r) => out.fail(format!("cell {}: fetch answered {}", cell.digest, r.status)),
            Err(e) => out.fail(format!("cell {}: fetch: {e}", cell.digest)),
        }
    }
    let mut timing = SimTiming::default();
    for (n, cell) in first.cells.iter().enumerate().step_by(VERIFY_EVERY) {
        out.attempted += 1;
        let request = cell.request.encode();
        match reexecute(ctx.tracer, 1_000 + n as u64, &request, &mut timing) {
            Ok(text) if texts.get(&cell.digest) == Some(&text) => {}
            Ok(_) => out.fail(format!(
                "cell {}: served bytes differ from an in-process run",
                cell.digest
            )),
            Err(e) => out.fail(format!("cell {}: {e}", cell.digest)),
        }
    }
    let sample = first.cells.first();
    out.captured = Captured {
        request: sample.map(|c| c.request.encode()),
        result: sample.and_then(|c| texts.get(&c.digest).cloned()),
        execute: sample.map(|c| c.request.encode()),
    };

    if ctx.tracer.on() {
        let cycles: u64 = texts.values().map(|t| result_cycles(t)).sum();
        sim_layers(&mut out.layers, first.cells.len(), cycles, &timing);
        let units = |rounds: &[ClusterOutcome]| -> f64 {
            rounds.iter().map(|r| total(r, "cluster/units")).sum()
        };
        let repeat_s: f64 = round_ms[1..].iter().sum::<f64>() / 1e3;
        out.layers.insert(
            "cluster.repeat_cells_per_s",
            units(&rounds[1..]) / repeat_s.max(f64::MIN_POSITIVE),
        );
        let sum = |name| rounds.iter().map(|r| worker_sum(r, name)).sum::<f64>();
        out.layers.insert(
            "cluster.attempts_per_unit",
            sum("/dispatched") / units(&rounds).max(1.0),
        );
        out.layers.insert("cluster.stolen", sum("/stolen"));
        out.layers.insert("cluster.retried", sum("/retried"));
        out.layers.insert(
            "cluster.duplicates",
            rounds
                .iter()
                .map(|r| total(r, "cluster/duplicate_results"))
                .sum(),
        );
        let results: HashMap<String, Json> = texts
            .iter()
            .filter_map(|(d, t)| parse(t).ok().map(|j| (d.clone(), j)))
            .collect();
        coordinator_layers(ctx, &req, &results, &mut out.layers);
        let [mem, disk, evictions] = server_counters(&fleet.addrs, CACHE_COUNTERS);
        out.layers
            .insert("cache.mem_hit_ratio", mem / (mem + disk).max(1.0));
        out.layers.insert("cache.evictions", evictions);
    }
    drop(clients);
    drop(fleet);
    repeat_setups(ctx, &mut out, SETUPS, |rep| start_fleet(ctx, rep));
    out
}

/// Replay medians of the coordinator's own steps for `req`, given its
/// cells' results: plan expansion, merge, and the digest check of an
/// echoed request.
pub fn coordinator_layers(
    ctx: &Ctx,
    req: &ServiceRequest,
    results: &HashMap<String, Json>,
    layers: &mut BTreeMap<&'static str, f64>,
) {
    use crate::probe::{calls, median_us};
    let (n, _) = calls(ctx);
    let plan = ClusterPlan::expand(req);
    layers.insert(
        "cluster.expand_ms",
        median_us(n.min(50), || ClusterPlan::expand(req)) / 1e3,
    );
    layers.insert(
        "cluster.merge_ms",
        median_us(n.min(50), || plan.merge(results)) / 1e3,
    );
    let echoed = plan.cells[0].request.canonical_json();
    layers.insert(
        "cluster.verify_us",
        median_us(n, || ServiceRequest::from_json(&echoed).map(|r| r.digest())),
    );
}
