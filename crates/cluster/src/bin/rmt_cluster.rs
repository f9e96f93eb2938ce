//! `rmt-cluster` — distributed execution of one service request across a
//! fleet of `rmt-serve` workers.
//!
//! ```text
//! rmt-cluster FILE [--workers a:p,b:p | --spawn N | --local]
//!             [--quick|--standard|--full]
//!             [--out PATH] [--result-out PATH] [--progress]
//!             [--chaos-kill K] [--chaos-seed S]
//!             [--inflight N] [--timeout SECS] [--jobs N]
//!             [--spawn-dir DIR] [--server-workers N]
//! ```
//!
//! `FILE` is either a full service request (`{"type": "run"|"sweep",
//! ...}`) or a bare declarative sweep file from `sweeps/` (detected by
//! the missing `type` key; the scale flags apply only then — a full
//! request already carries its scale). The request is expanded into
//! content-addressed cells and dispatched across:
//!
//! - `--workers a:p,...` — an existing fleet of `rmt-serve` addresses,
//! - `--spawn N` — N self-launched local workers on ephemeral ports
//!   (each an embedded `rmt-serve` with its own cache directory), or
//! - `--local` — no fleet at all: the same plan's cells run on `--jobs`
//!   threads of this process (`ServiceRequest::execute`). This is the
//!   single-process sweep front end, and its document is the reference
//!   cluster runs are compared against; the committed
//!   `results/sensitivity_slack_sq.json` is
//!   `rmt-cluster sweeps/slack_sq.json --local --standard --jobs 2`.
//!
//! `--out` writes the full `rmt-cluster/v1` envelope (merged result,
//! per-cell provenance, cluster metrics); `--result-out` writes just the
//! merged result document — byte-identical to a single-process run, so
//! `cmp` against a `--local --result-out` file is the strongest gate.
//! `--chaos-kill K` kills K random self-spawned workers once a quarter
//! of the cells are done; the run must still complete bitwise.
//!
//! The binary is also its own worker: `rmt-cluster --worker --addr A
//! --addr-file P --cache-dir D` runs an embedded `rmt-serve` (this is
//! what `--spawn` launches).

use rmt_cluster::{run_cluster, spawn_fleet, ClusterOptions, ClusterOutcome, SpawnConfig};
use rmt_serve::{Server, ServerConfig};
use rmt_sim::service::ServiceRequest;
use rmt_stats::json::parse;
use rmt_stats::rng::Xoshiro256;
use rmt_stats::Json;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

#[derive(Debug, Clone, Default)]
struct Args {
    file: Option<String>,
    workers: Vec<String>,
    spawn: usize,
    local: bool,
    scale: Option<&'static str>,
    out: Option<String>,
    result_out: Option<String>,
    progress: bool,
    chaos_kill: usize,
    chaos_seed: u64,
    inflight: usize,
    timeout_secs: u64,
    jobs: usize,
    spawn_dir: Option<PathBuf>,
    server_workers: usize,
    // --worker mode
    worker_mode: bool,
    addr: String,
    addr_file: Option<PathBuf>,
    cache_dir: Option<PathBuf>,
}

fn parse_args() -> Args {
    let mut a = Args {
        spawn: 0,
        chaos_seed: 42,
        inflight: 2,
        timeout_secs: 600,
        jobs: 1,
        server_workers: 2,
        addr: "127.0.0.1:0".to_string(),
        ..Args::default()
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| {
            argv.next()
                .unwrap_or_else(|| fail(&format!("{name} needs a value")))
        };
        let count = |name: &str, raw: &str| -> usize {
            raw.parse()
                .ok()
                .filter(|n| *n >= 1)
                .unwrap_or_else(|| fail(&format!("{name} needs a positive number")))
        };
        match flag.as_str() {
            "--workers" => {
                a.workers = value("--workers")
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
            }
            "--spawn" => a.spawn = count("--spawn", &value("--spawn")),
            "--local" => a.local = true,
            "--quick" => a.scale = Some("quick"),
            "--standard" => a.scale = Some("standard"),
            "--full" => a.scale = Some("full"),
            "--out" => a.out = Some(value("--out")),
            "--result-out" => a.result_out = Some(value("--result-out")),
            "--progress" => a.progress = true,
            "--chaos-kill" => a.chaos_kill = count("--chaos-kill", &value("--chaos-kill")),
            "--chaos-seed" => {
                a.chaos_seed = value("--chaos-seed")
                    .parse()
                    .unwrap_or_else(|_| fail("--chaos-seed needs a u64"))
            }
            "--inflight" => a.inflight = count("--inflight", &value("--inflight")),
            "--timeout" => a.timeout_secs = count("--timeout", &value("--timeout")) as u64,
            "--jobs" => a.jobs = count("--jobs", &value("--jobs")),
            "--spawn-dir" => a.spawn_dir = Some(PathBuf::from(value("--spawn-dir"))),
            "--server-workers" => {
                a.server_workers = count("--server-workers", &value("--server-workers"))
            }
            "--worker" => a.worker_mode = true,
            "--addr" => a.addr = value("--addr"),
            "--addr-file" => a.addr_file = Some(PathBuf::from(value("--addr-file"))),
            "--cache-dir" => a.cache_dir = Some(PathBuf::from(value("--cache-dir"))),
            other if !other.starts_with("--") && a.file.is_none() => a.file = Some(flag),
            other => fail(&format!("unknown flag `{other}`")),
        }
    }
    a
}

/// `--worker`: an embedded `rmt-serve`, advertised via `--addr-file`.
fn worker_main(a: &Args) -> ! {
    let cfg = ServerConfig {
        addr: a.addr.clone(),
        cache_dir: a
            .cache_dir
            .clone()
            .unwrap_or_else(|| PathBuf::from("target/rmt-cluster-worker-cache")),
        workers: a.server_workers,
        queue_cap: 256,
        mem_cache: 256,
        inner_jobs: a.jobs,
    };
    let handle = Server::start(cfg.clone())
        .unwrap_or_else(|e| fail(&format!("cannot start worker on {}: {e}", cfg.addr)));
    let addr = handle.addr();
    println!("rmt-cluster worker listening on {addr}");
    if let Some(path) = &a.addr_file {
        std::fs::write(path, format!("{addr}\n"))
            .unwrap_or_else(|e| fail(&format!("{}: {e}", path.display())));
    }
    handle.wait();
    std::process::exit(0)
}

/// Loads `FILE` as a service request, wrapping bare sweep files.
fn load_request(path: &str, scale: Option<&str>) -> ServiceRequest {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("{path}: {e}")));
    let doc = parse(&text).unwrap_or_else(|e| fail(&format!("{path}: invalid JSON: {e}")));
    let doc = if doc.get("type").is_some() {
        if scale.is_some() {
            fail("scale flags apply only to bare sweep files; a full request carries its own scale")
        }
        doc
    } else {
        Json::obj()
            .with("type", Json::Str("sweep".into()))
            .with("sweep", doc)
            .with("scale", Json::Str(scale.unwrap_or("quick").into()))
    };
    ServiceRequest::from_json(&doc).unwrap_or_else(|e| fail(&format!("{path}: {e}")))
}

fn write_doc(path: &str, doc: &Json) {
    let mut text = doc.encode_pretty();
    text.push('\n');
    std::fs::write(path, text).unwrap_or_else(|e| fail(&format!("{path}: {e}")));
    println!("  [json written to {path}]");
}

fn envelope(request: &ServiceRequest, outcome: &ClusterOutcome, wall: f64) -> Json {
    let cells = outcome
        .cells
        .iter()
        .map(|c| {
            Json::obj()
                .with("digest", Json::Str(c.digest.clone()))
                .with("request", c.request.clone())
                .with("worker", Json::Str(c.worker.clone()))
                .with("attempts", Json::U64(c.attempts))
                .with("cache_hit", Json::Bool(c.cache_hit))
        })
        .collect();
    Json::obj()
        .with("schema", Json::Str(rmt_cluster::SCHEMA.into()))
        .with("digest", Json::Str(request.digest()))
        .with("request", request.canonical_json())
        .with("workers", Json::U64(outcome.workers as u64))
        .with("cells", Json::Arr(cells))
        .with("result", outcome.merged.clone())
        .with("cluster", outcome.cluster.clone())
        .with("host", Json::obj().with("wall_seconds", Json::F64(wall)))
}

/// `--local`: the in-process reference run, in the same envelope shape
/// (no cells, no cluster section — nothing was dispatched).
fn local_main(a: &Args, request: &ServiceRequest) {
    let start = Instant::now();
    let result = request
        .execute(a.jobs, None)
        .unwrap_or_else(|e| fail(&format!("execute failed: {e}")));
    let wall = start.elapsed().as_secs_f64();
    println!("[rmt-cluster] local run finished in {wall:.2}s");
    if let Some(out) = &a.out {
        let doc = Json::obj()
            .with("schema", Json::Str(rmt_cluster::SCHEMA.into()))
            .with("digest", Json::Str(request.digest()))
            .with("request", request.canonical_json())
            .with("workers", Json::U64(0))
            .with("cells", Json::Arr(Vec::new()))
            .with("result", result.clone())
            .with("host", Json::obj().with("wall_seconds", Json::F64(wall)));
        write_doc(out, &doc);
    }
    if let Some(out) = &a.result_out {
        write_doc(out, &result);
    }
}

/// Builds the progress/chaos callback shared by both display and kills.
fn progress_hook(
    a: &Args,
    fleet: Option<Arc<Mutex<rmt_cluster::LocalFleet>>>,
    spawn_count: usize,
) -> Option<Arc<dyn Fn(usize, usize) + Send + Sync>> {
    if !a.progress && (a.chaos_kill == 0 || fleet.is_none()) {
        return None;
    }
    let started = Instant::now();
    let last_print = Mutex::new(Instant::now() - Duration::from_secs(1));
    let chaos_fired = Mutex::new(false);
    let (progress, chaos_kill, chaos_seed) = (a.progress, a.chaos_kill, a.chaos_seed);
    Some(Arc::new(move |done: usize, total: usize| {
        if progress {
            let mut last = last_print.lock().expect("progress mutex");
            if last.elapsed() >= Duration::from_millis(500) || done == total {
                *last = Instant::now();
                let elapsed = started.elapsed().as_secs_f64();
                let eta = if done > 0 {
                    elapsed / done as f64 * (total - done) as f64
                } else {
                    f64::NAN
                };
                eprintln!(
                    "[rmt-cluster] {done}/{total} cells, {elapsed:.1}s elapsed, ETA {eta:.1}s"
                );
            }
        }
        if chaos_kill > 0 && done >= total.div_ceil(4) {
            if let Some(fleet) = &fleet {
                let mut fired = chaos_fired.lock().expect("chaos mutex");
                if !*fired {
                    *fired = true;
                    let mut rng = Xoshiro256::seed_from(chaos_seed);
                    let mut fleet = fleet.lock().expect("fleet mutex");
                    let mut victims: Vec<usize> = Vec::new();
                    while victims.len() < chaos_kill.min(spawn_count.saturating_sub(1)) {
                        let v = rng.below(spawn_count as u64) as usize;
                        if !victims.contains(&v) {
                            victims.push(v);
                        }
                    }
                    for v in &victims {
                        eprintln!("[rmt-cluster] chaos: killing worker {v}");
                        fleet.kill(*v);
                    }
                }
            }
        }
    }))
}

fn main() {
    let a = parse_args();
    if a.worker_mode {
        worker_main(&a);
    }
    let Some(file) = &a.file else {
        fail("usage: rmt-cluster FILE [--workers a:p,... | --spawn N | --local] ...");
    };
    let request = load_request(file, a.scale);
    if a.local {
        local_main(&a, &request);
        return;
    }
    let modes = usize::from(!a.workers.is_empty()) + usize::from(a.spawn > 0);
    if modes != 1 {
        fail("pick exactly one of --workers, --spawn, or --local");
    }
    if a.chaos_kill > 0 && a.spawn == 0 {
        fail("--chaos-kill needs --spawn (it kills self-spawned workers)");
    }
    if a.chaos_kill > 0 && a.chaos_kill >= a.spawn {
        fail("--chaos-kill must leave at least one worker alive");
    }

    // Bring up the fleet (spawned or preexisting).
    let fleet = if a.spawn > 0 {
        let dir = a.spawn_dir.clone().unwrap_or_else(|| {
            std::env::temp_dir().join(format!("rmt-cluster-{}", std::process::id()))
        });
        let cfg = SpawnConfig {
            dir,
            server_workers: a.server_workers,
            inner_jobs: a.jobs,
        };
        let fleet = spawn_fleet(a.spawn, &cfg).unwrap_or_else(|e| fail(&e));
        Some(Arc::new(Mutex::new(fleet)))
    } else {
        None
    };
    let addrs: Vec<String> = match &fleet {
        Some(f) => f.lock().expect("fleet mutex").addrs(),
        None => a.workers.clone(),
    };
    println!(
        "[rmt-cluster] dispatching across {} worker(s): {}",
        addrs.len(),
        addrs.join(", ")
    );

    let opts = ClusterOptions {
        inflight_per_worker: a.inflight,
        attempt_timeout: Duration::from_secs(a.timeout_secs),
        on_progress: progress_hook(&a, fleet.clone(), a.spawn),
        ..ClusterOptions::default()
    };
    let start = Instant::now();
    let outcome = match run_cluster(&request, &addrs, &opts) {
        Ok(o) => o,
        Err(e) => {
            if let Some(f) = &fleet {
                eprintln!("{}", f.lock().expect("fleet mutex").logs());
            }
            fail(&format!("cluster run failed: {e}"))
        }
    };
    let wall = start.elapsed().as_secs_f64();
    println!(
        "[rmt-cluster] {} cells ({} distinct) merged from {} worker(s) in {wall:.2}s",
        outcome
            .cluster
            .get("metrics")
            .and_then(|m| m.get("cluster/cells"))
            .and_then(Json::as_u64)
            .unwrap_or(0),
        outcome.cells.len(),
        outcome.workers
    );

    if let Some(out) = &a.out {
        write_doc(out, &envelope(&request, &outcome, wall));
    }
    if let Some(out) = &a.result_out {
        write_doc(out, &outcome.merged);
    }
    // A spawned fleet is reaped by LocalFleet::drop.
}
