//! `rmt-cluster` — distributed execution of one service request across a
//! fleet of `rmt-serve` workers.
//!
//! ```text
//! rmt-cluster FILE [--workers a:p,b:p | --spawn N | --local]
//!             [--quick|--standard|--full]
//!             [--out PATH] [--result-out PATH] [--progress]
//!             [--chaos-kill K] [--inflight N] [--timeout SECS] [--jobs N]
//!             [--spawn-dir DIR]
//! rmt-cluster --worker [rmt-serve flags]
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
//! `--progress` prints `k/n cells` lines on stderr, with `--local` too.
//! `--chaos-kill K` kills K self-spawned workers once a quarter of the
//! cells are done; the run must still complete bitwise.
//!
//! The binary is also its own worker: `rmt-cluster --worker` takes the
//! `rmt-serve` command line ([`rmt_serve::daemon`]) and runs an embedded
//! daemon (this is what `--spawn` launches).

use rmt_cluster::{run_cluster, spawn_fleet, ClusterOptions, ClusterOutcome};
use rmt_serve::{daemon, ServerConfig};
use rmt_sim::service::ServiceRequest;
use rmt_sim::ProgressSink;
use rmt_stats::cli::{self, Args};
use rmt_stats::json::parse;
use rmt_stats::rng::Xoshiro256;
use rmt_stats::Json;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Seeds `--chaos-kill`'s choice of victims.
const CHAOS_SEED: u64 = 42;

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

const USAGE: &str = "usage: rmt-cluster FILE [--workers a:p,b:p | --spawn N | --local] \
    [--quick|--standard|--full] [--out PATH] [--result-out PATH] [--progress] [--chaos-kill K] \
    [--inflight N] [--timeout SECS] [--jobs N] [--spawn-dir DIR]\n       \
    rmt-cluster --worker [rmt-serve flags]";

#[derive(Debug, Default)]
struct Opts {
    file: String,
    workers: Vec<String>,
    spawn: usize,
    local: bool,
    scale: Option<String>,
    out: Option<String>,
    result_out: Option<String>,
    progress: bool,
    chaos_kill: usize,
    inflight: usize,
    timeout_secs: u64,
    jobs: usize,
    spawn_dir: Option<PathBuf>,
}

#[derive(Debug)]
enum Mode {
    Worker(ServerConfig, Option<PathBuf>),
    Run(Opts),
}

fn parse_args(mut argv: Args) -> Result<Mode, String> {
    let file = argv.next().ok_or("missing FILE")?;
    if file == "--worker" {
        return daemon::parse(argv).map(|(cfg, addr_file)| Mode::Worker(cfg, addr_file));
    }
    if file.starts_with('-') {
        return Err(format!("FILE must come before `{file}`"));
    }
    let mut a = Opts {
        file,
        inflight: 2,
        timeout_secs: 600,
        jobs: 1,
        ..Opts::default()
    };
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--workers" => {
                a.workers = argv
                    .value(&flag)?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
            }
            "--spawn" => a.spawn = argv.count(&flag)?,
            "--local" => a.local = true,
            "--quick" | "--standard" | "--full" => a.scale = Some(flag[2..].to_string()),
            "--out" => a.out = Some(argv.value(&flag)?),
            "--result-out" => a.result_out = Some(argv.value(&flag)?),
            "--progress" => a.progress = true,
            "--chaos-kill" => a.chaos_kill = argv.count(&flag)?,
            "--inflight" => a.inflight = argv.count(&flag)?,
            "--timeout" => a.timeout_secs = argv.count(&flag)? as u64,
            "--jobs" => a.jobs = argv.count(&flag)?,
            "--spawn-dir" => a.spawn_dir = Some(argv.value(&flag)?.into()),
            _ => return Err(cli::unexpected(&flag)),
        }
    }
    let modes =
        usize::from(a.local) + usize::from(!a.workers.is_empty()) + usize::from(a.spawn > 0);
    if modes != 1 {
        return Err("pick exactly one of --workers, --spawn, or --local".into());
    }
    if a.chaos_kill > 0 && a.chaos_kill >= a.spawn {
        return Err("--chaos-kill K needs --spawn N with N > K (it kills spawned workers)".into());
    }
    Ok(Mode::Run(a))
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
fn local_main(a: &Opts, request: &ServiceRequest) {
    let start = Instant::now();
    let progress = a
        .progress
        .then(|| ProgressSink::stderr("rmt-cluster", "cells"));
    let result = request
        .execute(a.jobs, progress)
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
    a: &Opts,
    fleet: Option<Arc<Mutex<rmt_cluster::LocalFleet>>>,
) -> Option<Arc<dyn Fn(usize, usize) + Send + Sync>> {
    if !a.progress && a.chaos_kill == 0 {
        return None;
    }
    let print = a
        .progress
        .then(|| ProgressSink::stderr("rmt-cluster", "cells"));
    let chaos_fired = Mutex::new(false);
    let (chaos_kill, spawn_count) = (a.chaos_kill, a.spawn);
    Some(Arc::new(move |done: usize, total: usize| {
        if let Some(print) = &print {
            print.report(done as u64, total as u64);
        }
        if chaos_kill > 0 && done >= total.div_ceil(4) {
            if let Some(fleet) = &fleet {
                let mut fired = chaos_fired.lock().expect("chaos mutex");
                if !*fired {
                    *fired = true;
                    let mut rng = Xoshiro256::seed_from(CHAOS_SEED);
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
    let a = match cli::run(USAGE, parse_args) {
        Mode::Worker(c, f) => return daemon::run(&c, f.as_deref()).unwrap_or_else(|e| fail(&e)),
        Mode::Run(a) => a,
    };
    let request = load_request(&a.file, a.scale.as_deref());
    if a.local {
        local_main(&a, &request);
        return;
    }

    // Bring up the fleet (spawned or preexisting).
    let fleet = if a.spawn > 0 {
        let dir = a.spawn_dir.clone().unwrap_or_else(|| {
            std::env::temp_dir().join(format!("rmt-cluster-{}", std::process::id()))
        });
        let fleet = spawn_fleet(a.spawn, &dir, a.jobs).unwrap_or_else(|e| fail(&e));
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
        on_progress: progress_hook(&a, fleet.clone()),
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Mode, String> {
        parse_args(Args::new(args.iter().copied()))
    }

    #[test]
    fn worker_mode_takes_the_daemon_command_line() {
        let Ok(Mode::Worker(cfg, _)) = parse(&["--worker", "--jobs", "3", "--cache-dir", "c"])
        else {
            panic!("--worker parses the daemon flags");
        };
        assert_eq!((cfg.inner_jobs, cfg.cache_dir), (3, PathBuf::from("c")));
        assert!(parse(&["--worker", "--server-workers", "2"]).is_err());
    }

    #[test]
    fn takes_one_file_first_and_refuses_removed_flags() {
        let Ok(Mode::Run(a)) = parse(&["s.json", "--local", "--quick", "--jobs", "2"]) else {
            panic!("a sweep command line parses");
        };
        assert_eq!((a.file.as_str(), a.local, a.jobs), ("s.json", true, 2));
        assert_eq!(a.scale.as_deref(), Some("quick"));
        let err = parse(&["s.json", "t.json"]).unwrap_err();
        assert_eq!(err, "unexpected argument `t.json`");
        for removed in [
            "--chaos-seed",
            "--server-workers",
            "--addr",
            "--addr-file",
            "--cache-dir",
        ] {
            assert!(parse(&["s.json", removed, "1"]).is_err(), "{removed}");
        }
        assert!(parse(&["s.json", "--spawn"]).is_err());
        assert!(parse(&["s.json", "--local", "--spawn", "2"]).is_err());
        assert!(parse(&["s.json", "--spawn", "2", "--chaos-kill", "2"]).is_err());
        assert!(parse(&["s.json", "--local", "--chaos-kill", "1"]).is_err());
        assert!(parse(&["--local", "s.json"]).is_err());
        assert!(parse(&[]).is_err());
    }
}
