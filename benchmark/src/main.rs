//! `benchmark` — end-to-end and per-layer performance of the simulator,
//! its daemon and its cluster, with every output verified.
//!
//! ```text
//! benchmark [--workload NAME[,NAME...]|all] [--seed N] [--seconds S]
//!           [--trace 0|1|PATH] [--json PATH]
//! benchmark --compare A.json B.json
//! ```
//!
//! Each workload prints its metrics by name and unit on stderr and, as
//! its last line on stdout, one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` — the end-to-end metrics untraced, the
//! per-layer metrics with `--trace 1` or `--trace PATH` (which measures
//! the workload untraced, then traced, and writes the spans as a Chrome
//! trace to PATH, or under `.bench_work/` for `1`).
//! `--json` appends each result with the host fingerprint to a file that
//! `--compare` reads. The exit code is 1 when any output was wrong, 2 on
//! a usage error.

mod compare;
mod host;
mod pins;
mod probe;
mod summary;
mod trace;
mod workloads;

use rmt_stats::Json;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use trace::Tracer;
use workloads::{Ctx, Outcome};

/// The benchmark definition this binary implements.
pub const DEFINITION: &str = include_str!("../../BENCHMARK.json");

/// Working space for caches and traces, relative to the working directory.
const WORK_DIR: &str = ".bench_work";

/// One metric as `BENCHMARK.json` defines it.
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit, as printed next to the value.
    pub unit: String,
    /// Whether a lower value is better.
    pub lower_is_better: bool,
    /// Allowed worsening as a share of the baseline median (end-to-end
    /// metrics only; zero for per-layer ones).
    pub bound: f64,
}

/// The metrics of one section of `BENCHMARK.json`: `end_to_end` or
/// `per_layer`.
pub fn defined(section: &str) -> Vec<Metric> {
    let doc = rmt_stats::json::parse(DEFINITION).expect("BENCHMARK.json is JSON");
    doc.get(section)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{section}`"))
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            Metric {
                name: s("name"),
                unit: s("unit"),
                lower_is_better: s("better") == "lower",
                bound: m.get("bound").and_then(Json::as_f64).unwrap_or(0.0),
            }
        })
        .collect()
}

fn usage() -> ! {
    eprintln!(
        "usage: benchmark [--workload NAME[,NAME...]|all] [--seed N] [--seconds S] \
         [--trace 0|1|PATH] [--json PATH]\n       benchmark --compare A.json B.json\n\
         workloads: {}",
        workloads::NAMES.join(", ")
    );
    std::process::exit(2)
}

fn bad(msg: &str) -> ! {
    eprintln!("error: {msg}");
    usage()
}

struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Where the Chrome trace goes (`--trace PATH`).
    trace_path: Option<PathBuf>,
    json: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Args {
    let default_seconds = rmt_stats::json::parse(DEFINITION)
        .ok()
        .and_then(|d| d.get("run_seconds").and_then(Json::as_f64))
        .expect("BENCHMARK.json has run_seconds");
    let mut a = Args {
        workloads: workloads::NAMES.to_vec(),
        seed: 1,
        seconds: default_seconds,
        trace: false,
        trace_path: None,
        json: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .unwrap_or_else(|| bad(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value();
                if v != "all" {
                    a.workloads = v
                        .split(',')
                        .map(|w| {
                            *workloads::NAMES
                                .iter()
                                .find(|n| **n == w)
                                .unwrap_or_else(|| bad(&format!("unknown workload `{w}`")))
                        })
                        .collect();
                }
            }
            "--seed" => {
                a.seed = value()
                    .parse()
                    .unwrap_or_else(|_| bad("--seed needs an integer"))
            }
            "--seconds" => {
                a.seconds = value()
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| bad("--seconds needs a positive number"))
            }
            "--trace" => {
                let v = value();
                a.trace = v != "0";
                a.trace_path = (v != "0" && v != "1").then(|| PathBuf::from(v));
            }
            "--json" => a.json = Some(PathBuf::from(value())),
            other => bad(&format!("unknown flag `{other}`")),
        }
    }
    if a.trace_path.is_some() && a.workloads.len() > 1 {
        bad("--trace PATH needs a single --workload");
    }
    a
}

fn run_one(name: &str, ctx: &Ctx) -> Outcome {
    match name {
        "detailed_suite" => workloads::detailed::run(ctx),
        "sampled_suite" => workloads::sampled::run(ctx),
        "serve_mixed" => workloads::serve::run(ctx),
        "cluster_sweep" => workloads::cluster::run(ctx),
        _ => unreachable!("workload names are validated"),
    }
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(o: &Outcome) -> BTreeMap<&'static str, f64> {
    BTreeMap::from([
        ("setup_s", summary::median(&o.setup_s)),
        ("peak_rss_mb", o.peak_rss_mb),
        ("ops_per_s", o.op_ms.len() as f64 / o.wall_s),
        ("op_p50_ms", summary::median(&o.op_ms)),
    ])
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(
    attempted: u64,
    failed: u64,
    values: &BTreeMap<&'static str, f64>,
    section: &str,
) -> Json {
    let mut metrics = Json::obj();
    for m in defined(section) {
        let v = values.get(m.name.as_str()).copied().unwrap_or(f64::NAN);
        metrics.set(
            &m.name,
            Json::obj()
                .with("value", Json::F64(v))
                .with("unit", Json::Str(m.unit)),
        );
    }
    Json::obj()
        .with("correct", Json::Bool(failed == 0 && attempted > 0))
        .with("attempted", Json::U64(attempted))
        .with("failed", Json::U64(failed))
        .with("metrics", metrics)
}

/// What one workload measurement produced.
pub struct Measured {
    /// The untraced run's result line (end-to-end metrics).
    pub e2e: Json,
    /// With tracing, the traced run's result line (per-layer metrics).
    pub layers: Option<Json>,
    /// The traced run's spans.
    pub spans: Vec<trace::Span>,
}

/// Runs one workload untraced and, when `traced`, again with spans on.
pub fn measure(name: &str, seed: u64, seconds: f64, traced: bool, tiny: bool) -> Measured {
    let dir = Path::new(WORK_DIR).join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    let off = Tracer::new(false);
    let on = Tracer::new(true);
    let ctx = |tracer| Ctx {
        seed,
        seconds,
        tracer,
        dir: dir.clone(),
        tiny,
    };
    host::reset_peak_rss();
    let mut plain = run_one(name, &ctx(&off));
    pins::check(name, seed, tiny, &mut plain);
    let e2e = end_to_end(&plain);
    eprintln!("  output digest: {}", plain.digest);
    report_errors(&plain);
    let mut m = Measured {
        e2e: result_line(plain.attempted, plain.failed, &e2e, "end_to_end"),
        layers: None,
        spans: Vec::new(),
    };
    if traced {
        let tctx = ctx(&on);
        host::reset_peak_rss();
        let mut t = run_one(name, &tctx);
        if t.digest != plain.digest {
            t.fail(format!(
                "the traced run's output {} differs from the untraced run's {}",
                t.digest, plain.digest
            ));
        }
        probe::fill(&tctx, &mut t);
        let traced_e2e = end_to_end(&t);
        t.layers.insert(
            "trace.overhead",
            1.0 - traced_e2e["ops_per_s"] / e2e["ops_per_s"],
        );
        for (metric, untraced) in &e2e {
            eprintln!(
                "  {metric}: {untraced:.4} untraced, {:.4} traced",
                traced_e2e[metric]
            );
        }
        report_errors(&t);
        m.spans = on.spans();
        print_self_times(&m.spans);
        m.layers = Some(result_line(
            plain.attempted + t.attempted,
            plain.failed + t.failed,
            &t.layers,
            "per_layer",
        ));
    }
    let _ = std::fs::remove_dir_all(&dir);
    m
}

/// Where the traced run's time went: self time per span name.
fn print_self_times(spans: &[trace::Span]) {
    let by_name = trace::self_time_by_name(spans);
    let total: u64 = by_name.values().sum();
    eprintln!("  self time by span:");
    for (name, ns) in by_name {
        eprintln!(
            "    {name:<24} {:>12.3} ms {:>6.1}%",
            ns as f64 / 1e6,
            100.0 * ns as f64 / total.max(1) as f64
        );
    }
}

fn report_errors(o: &Outcome) {
    for e in &o.errors {
        eprintln!("  FAILED: {e}");
    }
    if o.failed as usize > o.errors.len() {
        eprintln!("  ... {} failures in all", o.failed);
    }
}

fn print_metrics(name: &str, line: &Json) {
    eprintln!("{name}:");
    if let Some(Json::Obj(fields)) = line.get("metrics") {
        for (metric, v) in fields {
            let value = v.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = v.get("unit").and_then(Json::as_str).unwrap_or("");
            eprintln!("  {metric:<28} {value:>16.4} {unit}");
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--compare") {
        match &argv[1..] {
            [a, b] => std::process::exit(compare::run(Path::new(a), Path::new(b))),
            _ => bad("--compare takes two files"),
        }
    }
    let args = parse_args(&argv);
    if let [name] = args.workloads[..] {
        std::process::exit(run_single(name, &args));
    }
    // Several workloads: each in a fresh process of its own,
    // so that one's memory peak and heap state cannot leak into the next.
    let exe = std::env::current_exe().unwrap_or_else(|e| bad(&format!("own executable: {e}")));
    let mut code = 0;
    for name in &args.workloads {
        let mut child = std::process::Command::new(&exe);
        child.args(["--workload", name, "--seed", &args.seed.to_string()]);
        child.args(["--seconds", &args.seconds.to_string()]);
        child.args(["--trace", if args.trace { "1" } else { "0" }]);
        if let Some(path) = &args.json {
            child.arg("--json").arg(path);
        }
        let status = child
            .status()
            .unwrap_or_else(|e| bad(&format!("cannot run {}: {e}", exe.display())));
        code = code.max(status.code().unwrap_or(1));
    }
    std::process::exit(code);
}

/// Measures one workload, prints and records its result; returns the
/// exit code.
fn run_single(name: &str, args: &Args) -> i32 {
    let m = measure(name, args.seed, args.seconds, args.trace, false);
    let line = m.layers.unwrap_or(m.e2e);
    print_metrics(name, &line);
    if args.trace {
        let path = args.trace_path.clone().unwrap_or_else(|| {
            Path::new(WORK_DIR).join(format!("trace-{name}-seed{}.json", args.seed))
        });
        match std::fs::write(&path, trace::chrome_trace(&m.spans).encode()) {
            Ok(()) => eprintln!("  trace: {} ({} spans)", path.display(), m.spans.len()),
            Err(e) => eprintln!("  trace: cannot write {}: {e}", path.display()),
        }
    }
    if let Some(path) = &args.json {
        let record = Json::obj()
            .with("workload", Json::Str(name.into()))
            .with("seed", Json::U64(args.seed))
            .with("seconds", Json::F64(args.seconds))
            .with("trace", Json::Bool(args.trace))
            .with("host", host::fingerprint())
            .with("result", line.clone());
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{}", record.encode()));
        if let Err(e) = appended {
            eprintln!("error: {}: {e}", path.display());
            return 2;
        }
    }
    println!("{}", line.encode());
    if line.get("correct").and_then(Json::as_bool) == Some(true) {
        0
    } else {
        1
    }
}

#[cfg(test)]
mod tests;
