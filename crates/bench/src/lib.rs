//! Shared scaffolding for the figure/table regeneration binaries.
//!
//! Every binary accepts the same arguments:
//!
//! ```text
//! --quick | --standard | --full     simulation scale (default: standard)
//! --scale quick|standard|full       same, in key-value form
//! --benches gcc,go,swim             benchmark subset (default: all 18)
//! --seed N                          workload seed (default: 1)
//! --jobs N                          worker threads (default: all cores)
//! --json PATH                       also write the result as JSON
//! --config PATH                     start from a machine-spec JSON file
//!                                   instead of the paper's base machine
//! --set key.path=value              override one machine-spec leaf
//!                                   (repeatable; e.g. core.sq_entries=16)
//! --print-config                    print the resolved machine spec as
//!                                   JSON and exit
//! --sample                          sampled run (binaries that support it)
//! --epoch N                         sample metrics every N cycles into
//!                                   per-epoch deltas (figure binaries
//!                                   that run full experiments)
//! --progress                        periodic jobs-done/ETA lines on
//!                                   stderr (payload stays deterministic)
//! ```
//!
//! and prints a paper-style table plus its summary values, the wall-clock
//! time and the number of simulation jobs executed. Results are bitwise
//! identical at any `--jobs` level (see `rmt_sim::runner`).
//!
//! With `--json`, the same result is written as a machine-readable
//! document (see [`figure_json`] for the schema); `results/*.json` in the
//! repository are the canonical machine-readable outputs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rmt_core::MachineSpec;
use rmt_sample::SamplePlan;
use rmt_sim::figures::FigureResult;
use rmt_sim::{FigureCtx, Runner, SimScale};
use rmt_stats::Json;
use rmt_workloads::profile::ALL_BENCHMARKS;
use rmt_workloads::Benchmark;
use std::time::Instant;

/// Parsed command-line options shared by all figure binaries.
#[derive(Debug, Clone)]
pub struct FigureArgs {
    /// Simulation scale.
    pub scale: SimScale,
    /// Benchmarks to run (default: all 18).
    pub benches: Vec<Benchmark>,
    /// Worker threads to fan data points across (default: all cores).
    pub jobs: usize,
    /// Path to also write the result to as JSON (`--json PATH`).
    pub json: Option<String>,
    /// Sampled mode (`--sample`): binaries that support it estimate their
    /// figure from SMARTS-style detailed windows instead of one long
    /// interval; others ignore the flag.
    pub sample: bool,
    /// The sampling plan (defaults to [`SamplePlan::default`]); tuned by
    /// `--set sample.*` like any other spec leaf.
    pub plan: SamplePlan,
    /// Epoch width in cycles for time-series telemetry (`--epoch N`);
    /// `None` leaves sampling off and the `timeseries` section empty.
    pub epoch: Option<u64>,
    /// Print periodic jobs-done/ETA lines to stderr (`--progress`).
    /// Observation only: the result payload stays bitwise identical.
    pub progress: bool,
    /// The resolved machine spec: `--config PATH`'s document (default:
    /// the paper's base machine) with every `--set` edit applied in CLI
    /// order. Embedded under `"config"` in JSON reports.
    pub spec: MachineSpec,
    /// Key-path overrides extracted from [`FigureArgs::spec`] (its diff
    /// against the default spec of its own kind), replayed onto every
    /// experiment via [`FigureCtx::apply`]. Empty unless the command line
    /// changed the machine.
    pub overrides: Vec<(String, Json)>,
    /// `--print-config`: print the resolved spec as JSON and exit
    /// (handled by [`FigureArgs::parse`]).
    pub print_config: bool,
}

impl FigureArgs {
    /// Parses `std::env::args`; exits with a usage message on error, or
    /// after printing the resolved spec when `--print-config` was given.
    pub fn parse() -> Self {
        let args = Self::from_iter(std::env::args().skip(1));
        if args.print_config {
            println!("{}", args.spec.to_json().encode_pretty());
            std::process::exit(0);
        }
        args
    }

    /// Parses from an explicit argument list.
    // Not `FromIterator`: parsing exits the process on bad flags, which
    // the trait's contract doesn't allow.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter(args: impl IntoIterator<Item = String>) -> Self {
        let mut scale = SimScale::standard();
        let mut benches: Vec<Benchmark> = ALL_BENCHMARKS.to_vec();
        let mut jobs = Runner::available().jobs();
        let mut json = None;
        let mut sample = false;
        let mut epoch = None;
        let mut progress = false;
        let mut spec = MachineSpec::default();
        let mut print_config = false;
        let mut it = args.into_iter();
        let set_scale = |scale: &mut SimScale, name: &str| {
            let seed = scale.seed;
            *scale = match name {
                "quick" => SimScale::quick(),
                "standard" => SimScale::standard(),
                "full" => SimScale::full(),
                other => usage(&format!("unknown scale `{other}`")),
            };
            scale.seed = seed;
        };
        while let Some(a) = it.next() {
            match a.as_str() {
                "--quick" => set_scale(&mut scale, "quick"),
                "--standard" => set_scale(&mut scale, "standard"),
                "--full" => set_scale(&mut scale, "full"),
                "--scale" => {
                    let name = it.next().unwrap_or_else(|| usage("--scale needs a name"));
                    set_scale(&mut scale, &name);
                }
                "--seed" => {
                    scale.seed = it
                        .next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage("--seed needs a number"))
                }
                "--jobs" => {
                    jobs = it
                        .next()
                        .and_then(|s| s.parse().ok())
                        .filter(|&n| n >= 1)
                        .unwrap_or_else(|| usage("--jobs needs a positive number"))
                }
                "--benches" => {
                    let list = it.next().unwrap_or_else(|| usage("--benches needs a list"));
                    benches = list
                        .split(',')
                        .map(|name| {
                            ALL_BENCHMARKS
                                .iter()
                                .copied()
                                .find(|b| b.name() == name.trim())
                                .unwrap_or_else(|| usage(&format!("unknown benchmark `{name}`")))
                        })
                        .collect();
                }
                "--json" => {
                    json = Some(it.next().unwrap_or_else(|| usage("--json needs a path")));
                }
                "--sample" => sample = true,
                "--epoch" => {
                    epoch = Some(
                        it.next()
                            .and_then(|s| s.parse().ok())
                            .filter(|&n| n >= 1)
                            .unwrap_or_else(|| usage("--epoch needs a positive cycle count")),
                    )
                }
                "--progress" => progress = true,
                "--config" => {
                    let path = it.next().unwrap_or_else(|| usage("--config needs a path"));
                    let text = std::fs::read_to_string(&path)
                        .unwrap_or_else(|e| usage(&format!("cannot read {path}: {e}")));
                    let doc = rmt_stats::json::parse(&text)
                        .unwrap_or_else(|e| usage(&format!("{path}: {e}")));
                    spec = MachineSpec::from_json(&doc)
                        .unwrap_or_else(|e| usage(&format!("{path}: {e}")));
                }
                "--set" => {
                    let kv = it
                        .next()
                        .unwrap_or_else(|| usage("--set needs key.path=value"));
                    let (k, v) = kv
                        .split_once('=')
                        .unwrap_or_else(|| usage("--set needs key.path=value"));
                    spec.set_str(k.trim(), v.trim())
                        .unwrap_or_else(|e| usage(&e.to_string()));
                }
                "--print-config" => print_config = true,
                "--help" | "-h" => usage(""),
                other => usage(&format!("unknown argument `{other}`")),
            }
        }
        let plan = SamplePlan::from_spec(&spec.sample);
        let overrides = spec.diff(&MachineSpec::for_kind(spec.scheme.kind));
        FigureArgs {
            scale,
            benches,
            jobs,
            json,
            sample,
            plan,
            epoch,
            progress,
            spec,
            overrides,
            print_config,
        }
    }

    /// A figure context sized to the parsed `--jobs`, with `--epoch`
    /// sampling and `--progress` reporting applied.
    pub fn ctx(&self) -> FigureCtx {
        let mut ctx = FigureCtx::new(self.jobs).with_overrides(self.overrides.clone());
        if let Some(every) = self.epoch {
            ctx = ctx.with_epoch(every);
        }
        ctx.runner.set_progress(self.progress);
        ctx
    }
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: <figure-binary> [--quick|--standard|--full|--scale S] [--seed N] \
         [--benches a,b,c] [--jobs N] [--json PATH] \
         [--config PATH] [--set key.path=value]... [--print-config] [--sample] \
         [--epoch N] [--progress]"
    );
    std::process::exit(if msg.is_empty() { 0 } else { 2 })
}

/// Prints a figure result in the standard format.
pub fn print_figure(title: &str, paper_reference: &str, r: &FigureResult) {
    println!("== {title}");
    println!("   paper: {paper_reference}");
    println!();
    print!("{}", r.table);
    println!();
    for (k, v) in &r.summary {
        println!("  {k} = {v:.4}");
    }
}

/// Host-side execution statistics attached under `"host"` in JSON reports.
///
/// Wall time and throughput vary run to run; everything *else* in the
/// document is bitwise reproducible at any `--jobs` level, which is why
/// the determinism tests compare documents with `"host"` stripped.
#[derive(Debug, Clone, Copy)]
pub struct HostStats {
    /// Wall-clock seconds for the whole figure.
    pub wall_seconds: f64,
    /// Simulated cycles credited to the runner by the figure's drivers.
    pub sim_cycles: u64,
    /// Worker threads used.
    pub jobs: usize,
    /// Simulation jobs executed.
    pub jobs_executed: usize,
}

/// Builds the machine-readable JSON document for one figure run.
///
/// Schema (all keys always present):
///
/// ```text
/// {
///   "title": str, "paper": str,
///   "scale": {"warmup": u64, "measure": u64, "seed": u64},
///   "benches": [str, ...],
///   "table": {"columns": [str, ...], "rows": [[str, ...], ...]},
///   "summary": {name: f64, ...},
///   "metrics": {"mix/variant": {metric: value, ...}, ...},
///   "timeseries": {"mix/variant": {"every": u64,
///                                  "epochs": [{metric: value, ...}, ...]},
///                  ...},
///   "config": {"core": {...}, "hierarchy": {...}, "predictor": {...},
///              "env": {...}, "scheme": {...}, "sample": {...}},
///   "host": {"wall_seconds": f64, "sim_cycles": u64,
///            "sim_cycles_per_sec": f64, "jobs": u64, "jobs_executed": u64}
/// }
/// ```
///
/// `timeseries` is empty unless the run enabled `--epoch N` sampling.
/// `config` is the resolved [`MachineSpec`] the run was configured with
/// (the strict codec validates it on every `check_json` pass).
pub fn figure_json(
    title: &str,
    paper_reference: &str,
    args: &FigureArgs,
    r: &FigureResult,
    host: &HostStats,
) -> Json {
    let scale = Json::obj()
        .with("warmup", Json::U64(args.scale.warmup))
        .with("measure", Json::U64(args.scale.measure))
        .with("seed", Json::U64(args.scale.seed));
    let benches = Json::Arr(
        args.benches
            .iter()
            .map(|b| Json::Str(b.name().to_string()))
            .collect(),
    );
    let columns = Json::Arr(
        r.table
            .header()
            .iter()
            .map(|c| Json::Str(c.clone()))
            .collect(),
    );
    let rows = Json::Arr(
        (0..r.table.num_rows())
            .map(|i| {
                Json::Arr(
                    (0..r.table.header().len())
                        .map(|j| Json::Str(r.table.cell(i, j).unwrap_or("").to_string()))
                        .collect(),
                )
            })
            .collect(),
    );
    let mut summary = Json::obj();
    for (k, v) in &r.summary {
        summary.set(k, Json::F64(*v));
    }
    let mut metrics = Json::obj();
    for (k, snap) in &r.metrics {
        metrics.set(k, snap.to_json());
    }
    let mut timeseries = Json::obj();
    for (k, series) in &r.timeseries {
        timeseries.set(k, series.to_json());
    }
    let rate = if host.wall_seconds > 0.0 {
        host.sim_cycles as f64 / host.wall_seconds
    } else {
        0.0
    };
    let host_json = Json::obj()
        .with("wall_seconds", Json::F64(host.wall_seconds))
        .with("sim_cycles", Json::U64(host.sim_cycles))
        .with("sim_cycles_per_sec", Json::F64(rate))
        .with("jobs", Json::U64(host.jobs as u64))
        .with("jobs_executed", Json::U64(host.jobs_executed as u64));
    Json::obj()
        .with("title", Json::Str(title.to_string()))
        .with("paper", Json::Str(paper_reference.to_string()))
        .with("scale", scale)
        .with("benches", benches)
        .with(
            "table",
            Json::obj().with("columns", columns).with("rows", rows),
        )
        .with("summary", summary)
        .with("metrics", metrics)
        .with("timeseries", timeseries)
        .with("config", args.spec.to_json())
        .with("host", host_json)
}

/// Writes `doc` to `path` (pretty-printed), creating parent directories.
///
/// # Panics
///
/// Panics if the path cannot be created or written — a figure binary has
/// nothing sensible to do with a broken output path.
pub fn write_json(path: &str, doc: &Json) {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .unwrap_or_else(|e| panic!("cannot create {}: {e}", parent.display()));
        }
    }
    std::fs::write(path, doc.encode_pretty())
        .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
}

/// Builds a [`FigureCtx`] from `args`, runs `figure` on it, prints the
/// result plus wall-clock time and jobs executed, and writes the JSON
/// document when `--json` was given. The standard `main` body of every
/// figure binary.
pub fn run_and_print(
    title: &str,
    paper_reference: &str,
    args: &FigureArgs,
    figure: impl FnOnce(&FigureCtx) -> FigureResult,
) {
    let ctx = args.ctx();
    let start = Instant::now();
    let r = figure(&ctx);
    let elapsed = start.elapsed();
    print_figure(title, paper_reference, &r);
    println!();
    println!(
        "  [{} simulation jobs on {} worker(s) in {:.2}s]",
        ctx.runner.jobs_executed(),
        ctx.runner.jobs(),
        elapsed.as_secs_f64()
    );
    if let Some(path) = &args.json {
        let host = HostStats {
            wall_seconds: elapsed.as_secs_f64(),
            sim_cycles: ctx.runner.sim_cycles(),
            jobs: ctx.runner.jobs(),
            jobs_executed: ctx.runner.jobs_executed(),
        };
        write_json(path, &figure_json(title, paper_reference, args, &r, &host));
        println!("  [json written to {path}]");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> FigureArgs {
        FigureArgs::from_iter(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn default_args() {
        let a = parse(&[]);
        assert_eq!(a.benches.len(), 18);
        assert_eq!(a.scale, SimScale::standard());
        assert!(a.jobs >= 1);
    }

    #[test]
    fn parses_scale_and_benches() {
        let a = parse(&["--quick", "--benches", "gcc,swim", "--seed", "7"]);
        assert_eq!(a.benches, vec![Benchmark::Gcc, Benchmark::Swim]);
        assert_eq!(a.scale.warmup, SimScale::quick().warmup);
        assert_eq!(a.scale.seed, 7);
    }

    #[test]
    fn parses_scale_key_value_and_jobs() {
        let a = parse(&["--scale", "quick", "--jobs", "2"]);
        assert_eq!(a.scale.warmup, SimScale::quick().warmup);
        assert_eq!(a.jobs, 2);
    }

    #[test]
    fn seed_survives_scale_switch() {
        let a = parse(&["--seed", "9", "--scale", "full"]);
        assert_eq!(a.scale.seed, 9);
        assert_eq!(a.scale.measure, SimScale::full().measure);
    }

    #[test]
    fn parses_epoch_and_progress() {
        let a = parse(&["--epoch", "4096", "--progress"]);
        assert_eq!(a.epoch, Some(4096));
        assert!(a.progress);
        let ctx = a.ctx();
        assert_eq!(ctx.epoch, Some(4096));
        assert!(ctx.runner.progress());
        let d = parse(&[]);
        assert_eq!(d.epoch, None);
        assert!(!d.progress);
    }

    #[test]
    fn set_overrides_edit_the_spec_and_surface_as_overrides() {
        let a = parse(&[
            "--set",
            "core.sq_entries=16",
            "--set",
            "env.lvq_entries=128",
        ]);
        assert_eq!(a.spec.core.sq_entries, 16);
        assert_eq!(a.spec.env.lvq_entries, 128);
        assert_eq!(
            a.overrides,
            vec![
                ("core.sq_entries".to_string(), Json::U64(16)),
                ("env.lvq_entries".to_string(), Json::U64(128)),
            ]
        );
        // No machine flags -> no overrides -> bitwise-neutral figures.
        assert!(parse(&[]).overrides.is_empty());
    }

    #[test]
    fn sample_set_edits_the_spec_and_the_plan() {
        let a = parse(&["--set", "sample.windows=4", "--set", "sample.measure=1500"]);
        assert_eq!(a.spec.sample.windows, 4);
        assert_eq!(a.plan.windows, 4);
        assert_eq!(a.plan.measure, 1_500);
        // Last edit wins.
        let b = parse(&["--set", "sample.windows=6", "--set", "sample.windows=3"]);
        assert_eq!(b.plan.windows, 3);
    }

    #[test]
    fn parses_json_path() {
        let a = parse(&["--json", "results/out.json"]);
        assert_eq!(a.json.as_deref(), Some("results/out.json"));
        assert_eq!(parse(&[]).json, None);
    }

    #[test]
    fn figure_json_schema_roundtrips() {
        let a = parse(&["--quick", "--benches", "gcc"]);
        let r = rmt_sim::figures::table1();
        let host = HostStats {
            wall_seconds: 0.5,
            sim_cycles: 100,
            jobs: 1,
            jobs_executed: 0,
        };
        let doc = figure_json("a title", "a ref", &a, &r, &host);
        let parsed = rmt_stats::json::parse(&doc.encode_pretty()).expect("valid JSON");
        for key in [
            "title",
            "paper",
            "scale",
            "benches",
            "table",
            "summary",
            "metrics",
            "timeseries",
            "config",
            "host",
        ] {
            assert!(parsed.get(key).is_some(), "missing key `{key}`");
        }
        // The embedded config is a valid machine spec.
        MachineSpec::from_json(parsed.get("config").unwrap()).expect("config must validate");
        assert!(
            parsed
                .get("timeseries")
                .and_then(Json::members)
                .is_some_and(|m| m.is_empty()),
            "timeseries must be an empty object when sampling is off"
        );
        let host = parsed.get("host").unwrap();
        assert_eq!(host.get("sim_cycles").unwrap().as_u64(), Some(100));
        assert_eq!(
            host.get("sim_cycles_per_sec").unwrap().as_f64(),
            Some(200.0)
        );
        let cols = parsed.get("table").unwrap().get("columns").unwrap();
        assert_eq!(cols.as_array().unwrap().len(), r.table.header().len());
    }
}
