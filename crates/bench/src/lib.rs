//! Shared scaffolding for the figure binaries (`figure ID`,
//! `sampling_validation` and `fault_forensics`).
//!
//! Every one of them accepts the same arguments ([`FigureArgs::parse`]):
//!
//! ```text
//! --quick | --standard | --full     simulation scale (default: standard)
//! --benches gcc,go,swim             benchmarks (default: all 18; see
//!                                   [`BenchInput`] for the exceptions)
//! --seed N                          workload seed (default: 1)
//! --jobs N                          worker threads (default: all cores)
//! --json PATH                       also write the result as JSON
//! --config PATH                     start from a machine-spec JSON file
//!                                   instead of the paper's base machine
//! --set key.path=value              override one machine-spec leaf
//!                                   (repeatable; e.g. core.sq_entries=16)
//! --print-config                    print the resolved machine spec as
//!                                   JSON and exit
//! --sample                          sampled run (fig6 only)
//! --epoch N                         sample metrics every N cycles into
//!                                   per-epoch deltas (figures that run
//!                                   an efficiency grid; refused by the
//!                                   rest and by sampled runs)
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
use rmt_sim::figures::FigureResult;
use rmt_sim::{FigureCtx, ProgressSink, Runner, SimScale};
use rmt_stats::cli::{self, Args};
use rmt_stats::Json;
use rmt_workloads::profile::ALL_BENCHMARKS;
use rmt_workloads::Benchmark;
use std::time::Instant;

/// The flags part of every figure binary's usage line.
pub const FIGURE_FLAGS: &str = "[--quick|--standard|--full] [--seed N] [--benches a,b,c] \
    [--jobs N] [--json PATH] [--config PATH] [--set key.path=value]... [--print-config] \
    [--epoch N] [--progress]";

/// The benchmark input a figure takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchInput {
    /// A `--benches` list (default: all 18).
    List,
    /// Exactly one benchmark (default: swim).
    One,
    /// None: the figure runs fixed mixes or no simulation.
    Fixed,
}

/// Parsed command-line options shared by all figure binaries.
#[derive(Debug, Clone)]
pub struct FigureArgs {
    /// Simulation scale.
    pub scale: SimScale,
    /// Benchmarks to run (default: per the figure's [`BenchInput`]).
    pub benches: Vec<Benchmark>,
    /// Worker threads to fan data points across (default: all cores).
    pub jobs: usize,
    /// Path to also write the result to as JSON (`--json PATH`).
    pub json: Option<String>,
    /// Sampled mode (`--sample`, accepted only by figures with a sampled
    /// form): estimate the figure from SMARTS-style detailed windows
    /// instead of one long interval.
    pub sample: bool,
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
    /// `--print-config`: print the resolved spec as JSON instead of
    /// running.
    pub print_config: bool,
}

impl FigureArgs {
    /// Parses the flags of a figure that takes `input` and, when
    /// `sampled`, `--sample`; an error names the flag it is about. A
    /// `--sample` run must fit its sampling plan ([`Self::fit_sample`]).
    pub fn parse(mut argv: Args, input: BenchInput, sampled: bool) -> Result<Self, String> {
        let mut scale = SimScale::standard();
        let mut seed = scale.seed;
        let mut benches = match input {
            BenchInput::List => ALL_BENCHMARKS.to_vec(),
            BenchInput::One => vec![Benchmark::Swim],
            BenchInput::Fixed => Vec::new(),
        };
        let mut jobs = Runner::available().jobs();
        let (mut json, mut sample, mut epoch, mut progress) = (None, false, None, false);
        let mut spec = MachineSpec::default();
        let mut print_config = false;
        while let Some(a) = argv.next() {
            match a.as_str() {
                "--quick" | "--standard" | "--full" => {
                    scale = SimScale::named(&a[2..]).expect("every scale flag names a scale")
                }
                "--seed" => seed = argv.parse(&a)?,
                "--jobs" => jobs = argv.count(&a)?,
                "--benches" if input == BenchInput::Fixed => {
                    return Err(format!("`{a}`: this figure takes no benchmarks"))
                }
                "--benches" => {
                    benches = argv
                        .value(&a)?
                        .split(',')
                        .map(|name| {
                            Benchmark::from_name(name.trim())
                                .ok_or_else(|| format!("unknown benchmark `{name}`"))
                        })
                        .collect::<Result<_, _>>()?;
                    if input == BenchInput::One && benches.len() != 1 {
                        return Err(format!("`{a}`: this figure takes exactly one benchmark"));
                    }
                }
                "--json" => json = Some(argv.value(&a)?),
                "--sample" if !sampled => {
                    return Err(format!("`{a}`: this figure has no sampled form"))
                }
                "--sample" => sample = true,
                "--epoch" => epoch = Some(argv.count(&a)? as u64),
                "--progress" => progress = true,
                "--config" => {
                    let path = argv.value(&a)?;
                    let text = std::fs::read_to_string(&path)
                        .map_err(|e| format!("cannot read {path}: {e}"))?;
                    let doc = rmt_stats::json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
                    spec = MachineSpec::from_json(&doc).map_err(|e| format!("{path}: {e}"))?;
                }
                "--set" => {
                    let kv = argv.value(&a)?;
                    let (k, v) = kv.split_once('=').ok_or("`--set` needs key.path=value")?;
                    spec.set_str(k.trim(), v.trim())
                        .map_err(|e| e.to_string())?;
                }
                "--print-config" => print_config = true,
                _ => return Err(cli::unexpected(&a)),
            }
        }
        scale.seed = seed;
        let overrides = spec.diff(&MachineSpec::for_kind(spec.scheme.kind));
        let args = FigureArgs {
            scale,
            benches,
            jobs,
            json,
            sample,
            epoch,
            progress,
            spec,
            overrides,
            print_config,
        };
        if sample {
            args.fit_sample()
        } else {
            Ok(args)
        }
    }

    /// Refuses a sampling plan whose measured window is longer than the
    /// scale's measured interval, which no window placement can fit. A
    /// binary whose every run samples calls this after [`Self::parse`].
    pub fn fit_sample(self) -> Result<Self, String> {
        let (measure, interval) = (self.spec.sample.measure, self.scale.measure);
        if measure > interval {
            return Err(format!(
                "`sample.measure` ({measure}) is longer than this scale's measured interval \
                 ({interval} instructions)"
            ));
        }
        Ok(self)
    }

    /// Refuses `--epoch` for a run that fills no time series: a figure
    /// that runs no efficiency grid, or a sampled run.
    pub fn refuse_epoch(self) -> Result<Self, String> {
        match self.epoch {
            Some(_) => Err("`--epoch`: this run has no time series to sample".into()),
            None => Ok(self),
        }
    }

    /// A figure context sized to the parsed `--jobs`, with `--epoch`
    /// sampling applied and, for `--progress`, a stderr printer of
    /// `[runner] k/n jobs` lines installed as the runner's hook.
    pub fn ctx(&self) -> FigureCtx {
        let mut ctx = FigureCtx::new(self.jobs).with_overrides(self.overrides.clone());
        if let Some(every) = self.epoch {
            ctx = ctx.with_epoch(every);
        }
        if self.progress {
            ctx.runner
                .set_hook(Some(ProgressSink::stderr("runner", "jobs")));
        }
        ctx
    }
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
/// document, with the extra top-level sections `figure` returns, when
/// `--json` was given (or only prints the resolved spec, with
/// `--print-config`). The `main` body of `figure` and `fault_forensics`.
pub fn run_and_print(
    title: &str,
    paper_reference: &str,
    args: &FigureArgs,
    figure: impl FnOnce(&FigureCtx) -> (FigureResult, Vec<(&'static str, Json)>),
) {
    if args.print_config {
        println!("{}", args.spec.to_json().encode_pretty());
        return;
    }
    let ctx = args.ctx();
    let start = Instant::now();
    let (r, sections) = figure(&ctx);
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
        let mut doc = figure_json(title, paper_reference, args, &r, &host);
        for (key, section) in sections {
            doc.set(key, section);
        }
        write_json(path, &doc);
        println!("  [json written to {path}]");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_as(args: &[&str], input: BenchInput, sampled: bool) -> Result<FigureArgs, String> {
        FigureArgs::parse(Args::new(args.iter().copied()), input, sampled)
    }

    fn parse(args: &[&str]) -> FigureArgs {
        parse_as(args, BenchInput::List, true).expect("valid figure flags")
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
        let a = parse(&["--quick", "--jobs", "2"]);
        assert_eq!(a.scale.warmup, SimScale::quick().warmup);
        assert_eq!(a.jobs, 2);
        let err = parse_as(&["--scale", "quick"], BenchInput::List, true).unwrap_err();
        assert_eq!(err, "unexpected argument `--scale`");
        let err = parse_as(&["--jobs", "0"], BenchInput::List, true).unwrap_err();
        assert!(err.contains("`--jobs`"), "{err}");
    }

    #[test]
    fn seed_survives_scale_switch() {
        let a = parse(&["--seed", "9", "--full"]);
        assert_eq!(a.scale.seed, 9);
        assert_eq!(a.scale.measure, SimScale::full().measure);
        assert!(parse_as(&["--seed", "9", "--scale", "full"], BenchInput::List, true).is_err());
    }

    #[test]
    fn a_figure_without_benchmarks_refuses_the_list_and_records_none() {
        let a = parse_as(&["--quick"], BenchInput::Fixed, false).unwrap();
        assert!(a.benches.is_empty());
        let doc = figure_json("t", "p", &a, &rmt_sim::figures::table1(), &host());
        assert_eq!(doc.get("benches"), Some(&Json::Arr(Vec::new())));
        let err = parse_as(&["--benches", "gcc"], BenchInput::Fixed, false).unwrap_err();
        assert!(err.contains("`--benches`"), "{err}");
    }

    #[test]
    fn a_one_benchmark_figure_defaults_to_swim_and_refuses_a_list() {
        let a = parse_as(&[], BenchInput::One, false).unwrap();
        assert_eq!(a.benches, vec![Benchmark::Swim]);
        let a = parse_as(&["--benches", "applu"], BenchInput::One, false).unwrap();
        assert_eq!(a.benches, vec![Benchmark::Applu]);
        let err = parse_as(&["--benches", "swim,gcc"], BenchInput::One, false).unwrap_err();
        assert!(err.contains("`--benches`"), "{err}");
    }

    #[test]
    fn a_list_figure_takes_any_list_of_known_benchmarks() {
        let a = parse_as(&["--benches", "gcc,swim,go"], BenchInput::List, false).unwrap();
        assert_eq!(
            a.benches,
            vec![Benchmark::Gcc, Benchmark::Swim, Benchmark::Go]
        );
        let err = parse_as(&["--benches", "gcc,nope"], BenchInput::List, false).unwrap_err();
        assert!(err.contains("`nope`"), "{err}");
        assert!(parse_as(&["--benches"], BenchInput::List, false).is_err());
    }

    #[test]
    fn only_a_figure_with_a_sampled_form_takes_sample() {
        assert!(
            parse_as(&["--sample"], BenchInput::List, true)
                .unwrap()
                .sample
        );
        let err = parse_as(&["--sample"], BenchInput::List, false).unwrap_err();
        assert!(err.contains("`--sample`"), "{err}");
    }

    #[test]
    fn parses_epoch_and_progress() {
        let a = parse(&["--epoch", "4096", "--progress"]);
        assert_eq!(a.epoch, Some(4096));
        assert!(a.progress);
        let ctx = a.ctx();
        assert_eq!(ctx.epoch, Some(4096));
        assert!(ctx.runner.hook().is_some());
        let d = parse(&[]);
        assert_eq!(d.epoch, None);
        assert!(!d.progress);
        assert!(d.ctx().runner.hook().is_none());
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
        assert_eq!(a.spec.sample.measure, 1_500);
        // Last edit wins.
        let b = parse(&["--set", "sample.windows=6", "--set", "sample.windows=3"]);
        assert_eq!(b.spec.sample.windows, 3);
    }

    #[test]
    fn a_sampled_window_longer_than_the_interval_is_a_usage_error() {
        let line = ["--quick", "--sample", "--set", "sample.measure=20000"];
        let err = parse_as(&line, BenchInput::List, true).unwrap_err();
        assert!(err.contains("`sample.measure` (20000)"), "{err}");
        assert!(err.contains("(10000 instructions)"), "{err}");
        // The window fits the standard scale, and an unsampled run ignores
        // the plan.
        assert!(parse_as(&line[1..], BenchInput::List, true).is_ok());
        assert!(parse_as(&[line[0], line[2], line[3]], BenchInput::List, true).is_ok());
        let unsampled = parse_as(&[line[0], line[2], line[3]], BenchInput::List, false).unwrap();
        assert!(unsampled.fit_sample().is_err());
    }

    #[test]
    fn parses_json_path() {
        let a = parse(&["--json", "results/out.json"]);
        assert_eq!(a.json.as_deref(), Some("results/out.json"));
        assert_eq!(parse(&[]).json, None);
    }

    fn host() -> HostStats {
        HostStats {
            wall_seconds: 0.5,
            sim_cycles: 100,
            jobs: 1,
            jobs_executed: 0,
        }
    }

    #[test]
    fn figure_json_schema_roundtrips() {
        let a = parse(&["--quick", "--benches", "gcc"]);
        let r = rmt_sim::figures::table1();
        let doc = figure_json("a title", "a ref", &a, &r, &host());
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
