//! Validates machine-readable figure results (`results/*.json`).
//!
//! ```text
//! check_json FILE [FILE...]
//! check_json --compare GOLDEN CANDIDATE
//! check_json --serve-cell FIGURE CELL SERVED
//! ```
//!
//! Checks each document against its schema — dispatched on the
//! document's `"schema"` tag:
//!
//! * no tag — a figure document per [`rmt_bench::figure_json`], including
//!   the required `config` section (strict [`rmt_core::MachineSpec`]
//!   round-trip) and the issue-slot conservation invariant inside every
//!   embedded metric snapshot (each core's attributed slots must total
//!   exactly `issue_width × cycles`, the width taken from that `config`);
//! * `rmt-serve/v1` — an `rmt-serve` response envelope (its exact key
//!   set, like every service and cluster document): well-formed
//!   digest that **recomputes** from the echoed canonical request, a
//!   coherent `cache_hit`/`job`/`status` combination, and (for cache
//!   hits) a valid embedded run or sweep result document;
//! * `rmt-cluster/v1` — an `rmt-cluster` envelope: the top-level digest
//!   and **every per-cell digest** must recompute from the echoed
//!   canonical requests, the cell sequence must be exactly the plan
//!   expansion of the request, the merged `result` must be a valid
//!   run/sweep document, and a distributed run must carry a coherent
//!   `cluster` metrics section (cell/unit/worker counts that add up).
//!
//! With `--compare`, additionally requires the candidate to reproduce the
//! committed golden bitwise, key by key, ignoring only `host` and
//! `cluster` (wall time, worker count and dispatch provenance
//! legitimately vary between machines and fleets). Every drifting
//! key is reported — recursing into objects so the exact leaf (e.g.
//! `summary.SRT_mean_efficiency`) is named — and the run exits with a
//! drift count instead of stopping at the first mismatch. This is the CI
//! gate that makes golden-neutrality machine-enforced.
//!
//! With `--serve-cell`, compares one figure metrics cell (e.g.
//! `m88ksim/SRT`) bitwise against the `metrics` section of a served run
//! result (or of the result embedded in a hit envelope) — the CI
//! assertion that the daemon's answer for a machine is the same
//! simulation the figure binaries ran.

mod cluster;
mod service;

use cluster::check_cluster_envelope;
use rmt_core::MachineSpec;
use rmt_stats::cli::{self, Args};
use rmt_stats::fields::Fields;
use rmt_stats::json::parse;
use rmt_stats::Json;
use service::{check_envelope, check_service_result};

/// Keys `--compare` skips: both legitimately vary between hosts and
/// fleets while the rest of the document must reproduce bitwise.
const COMPARE_IGNORED: [&str; 2] = ["host", "cluster"];

/// The idle-or-issued slot counters exported per core under `slots/`.
const SLOT_COUNTERS: [&str; 7] = [
    "issued",
    "window_empty",
    "data_wait",
    "structural_fu",
    "structural_iq_half",
    "squash_recovery",
    "sphere_wait",
];

/// Issue-slot conservation inside the metric snapshot `snap` of `cell`:
/// each core's attributed slots total exactly `width × cycles`, `width`
/// being the `core.issue_width` of the document's `config`.
fn check_snapshot(snap: &mut Fields, cell: &str, width: u64) -> Result<(), String> {
    let cores: Vec<&str> = snap
        .keys()
        .into_iter()
        .filter_map(|name| name.strip_suffix("/slots/issued"))
        .collect();
    if cores.is_empty() {
        return Err(format!(
            "metrics[{cell}]: no per-core slot accounting found"
        ));
    }
    for prefix in cores {
        let cycles = snap.u64(&format!("{prefix}/cycles"))?;
        let mut total = 0u64;
        for slot in SLOT_COUNTERS {
            total += snap.u64(&format!("{prefix}/slots/{slot}"))?;
        }
        if total != width * cycles {
            return Err(format!(
                "metrics[{cell}]: `{prefix}` slot conservation violated: \
                 {total} attributed slots over {cycles} cycles (want {})",
                width * cycles
            ));
        }
    }
    Ok(())
}

/// A time series is `{"every": u64, "epochs": [snapshot, ...]}`, `every`
/// at least 1 unless `may_be_off` (a run that did not sample writes 0 and
/// no epochs). Each epoch delta is a snapshot object whose members are
/// numbers (counters, gauges) or histogram-summary objects; every epoch
/// must cover exactly `every` device cycles — the cycle alignment that
/// makes the series `--jobs`-invariant.
fn check_timeseries(mut series: Fields, may_be_off: bool) -> Result<(), String> {
    let every = series.u64("every")?;
    if every == 0 && !may_be_off {
        return Err(series.invalid("every", "must be at least 1").into());
    }
    series.objects("epochs", |mut epoch| {
        for metric in epoch.keys() {
            let v = epoch.value(metric)?;
            if v.as_f64().is_none() && v.members().is_none() {
                let rule = "is neither a number nor a histogram summary";
                return Err(epoch.invalid(metric, rule));
            }
        }
        let cycles = epoch.u64("device/cycles")?;
        if cycles != every {
            let rule = format!("covers {cycles} device cycles, want {every}");
            return Err(epoch.invalid("device/cycles", rule));
        }
        Ok(())
    })?;
    Ok(series.finish()?)
}

/// The `config` section `key` of `f`, strictly decoded.
fn check_config(f: &mut Fields, key: &str) -> Result<MachineSpec, String> {
    MachineSpec::from_json(f.value(key)?).map_err(|e| format!("invalid `{}`: {e}", f.path(key)))
}

fn check_file(path: &str) -> Result<(), String> {
    let doc = load(path)?;
    let mut f = Fields::new(&doc)?;
    match f.opt("schema", Fields::str)? {
        // Untagged documents are either figure documents or bare service
        // results (what `/v1/results/<digest>` serves) — the latter carry
        // a `type` discriminant, figures never do.
        None if f.has("type") => check_service_result(f),
        None => check_figure(f),
        Some("rmt-serve/v1") => check_envelope(f),
        Some("rmt-cluster/v1") => check_cluster_envelope(f),
        Some(other) => Err(format!("unknown document schema `{other}`")),
    }
}

/// A figure document. It may carry extra top-level sections (a figure's
/// own, such as fault forensics), so unknown keys are not refused here.
fn check_figure(mut f: Fields) -> Result<(), String> {
    for key in ["title", "paper", "scale", "benches"] {
        f.value(key)?;
    }
    // The resolved machine spec must strictly round-trip through the
    // config codec: every section present, no unknown keys, every value
    // well-typed. This is the gate that keeps committed results
    // self-describing.
    let width = check_config(&mut f, "config")?.core.issue_width as u64;
    let mut table = f.object("table")?;
    let columns = table.array("columns")?.len();
    for (i, row) in table.array("rows")?.iter().enumerate() {
        match row.as_array() {
            Some(cells) if cells.len() == columns => {}
            Some(cells) => {
                return Err(format!(
                    "`table.rows[{i}]` has {} cells for {columns} columns",
                    cells.len()
                ))
            }
            None => return Err(format!("`table.rows[{i}]` is not an array")),
        }
    }
    table.finish()?;
    f.members("summary", Fields::f64)?;
    f.members("metrics", |m, cell| {
        check_snapshot(&mut m.object(cell)?, cell, width)
    })?;
    f.members("timeseries", |m, key| {
        check_timeseries(m.object(key)?, false)
    })?;
    let mut host = f.object("host")?;
    host.f64("wall_seconds")?;
    host.u64("sim_cycles")?;
    Ok(())
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    parse(&text).map_err(|e| format!("invalid JSON: {e}"))
}

/// Records every difference between two values under `path`, recursing
/// into objects so a drifted document names the exact leaf keys (e.g.
/// `summary.SRT_mean_efficiency`), not just the top-level section.
/// Arrays (table rows) and scalars compare atomically.
fn diff_value(path: &str, expected: &Json, got: &Json, drifts: &mut Vec<String>) {
    match (expected.members(), got.members()) {
        (Some(em), Some(gm)) => {
            for (key, ev) in em {
                match got.get(key) {
                    None => drifts.push(format!("`{path}.{key}` missing from the candidate")),
                    Some(gv) => diff_value(&format!("{path}.{key}"), ev, gv, drifts),
                }
            }
            for (key, _) in gm {
                if expected.get(key).is_none() {
                    drifts.push(format!("`{path}.{key}` absent from the golden"));
                }
            }
        }
        _ => {
            if expected != got {
                drifts.push(format!("`{path}` drifted"));
            }
        }
    }
}

/// Key-by-key bitwise comparison of two documents, ignoring the
/// [`COMPARE_IGNORED`] keys. Returns **every** drifting key (recursing
/// into objects), so a single run shows the full extent of a drift.
fn compare_files(golden_path: &str, candidate_path: &str) -> Result<Vec<String>, String> {
    let golden = load(golden_path)?;
    let candidate = load(candidate_path)?;
    let gm = golden.members().ok_or("golden document is not an object")?;
    let cm = candidate
        .members()
        .ok_or("candidate document is not an object")?;
    let mut drifts = Vec::new();
    for (key, expected) in gm {
        if COMPARE_IGNORED.contains(&key.as_str()) {
            continue;
        }
        match candidate.get(key) {
            None => drifts.push(format!("`{key}` missing from {candidate_path}")),
            Some(got) => diff_value(key, expected, got, &mut drifts),
        }
    }
    for (key, _) in cm {
        if !COMPARE_IGNORED.contains(&key.as_str()) && golden.get(key).is_none() {
            drifts.push(format!("`{key}` absent from the golden {golden_path}"));
        }
    }
    Ok(drifts)
}

/// Bitwise comparison of one figure metrics cell (keyed `mix/variant`,
/// e.g. `m88ksim/SRT`) against the `metrics` section of a served run
/// result — accepting either a bare result document or a hit envelope
/// with the result embedded. This is the CI assertion that the daemon's
/// answer is the same simulation the figure binaries ran.
fn compare_serve_cell(
    figure_path: &str,
    cell: &str,
    served_path: &str,
) -> Result<Vec<String>, String> {
    let figure = load(figure_path)?;
    let expected = Fields::new(&figure)?
        .object("metrics")?
        .value(cell)
        .map_err(|_| format!("{figure_path} has no metrics cell `{cell}`"))?;
    let served = load(served_path)?;
    let mut envelope = Fields::new(&served)?;
    let result = if envelope.has("schema") {
        envelope.value("result")?
    } else {
        &served
    };
    let got = Fields::new(result)?.value("metrics")?;
    let mut drifts = Vec::new();
    diff_value(&format!("metrics[{cell}]"), expected, got, &mut drifts);
    Ok(drifts)
}

const USAGE: &str = "usage: check_json FILE [FILE...] | --compare GOLDEN CANDIDATE \
                     | --serve-cell FIGURE CELL SERVED";

#[derive(Debug, PartialEq)]
enum Mode {
    Check(Vec<String>),
    Compare([String; 2]),
    ServeCell([String; 3]),
}

fn parse_args(mut argv: Args) -> Result<Mode, String> {
    let first = argv.next().ok_or("no FILE to check")?;
    let mut value = || argv.value(&first);
    let mode = match first.as_str() {
        "--compare" => Mode::Compare([value()?, value()?]),
        "--serve-cell" => Mode::ServeCell([value()?, value()?, value()?]),
        _ => {
            let mut files = vec![first];
            files.extend(std::iter::from_fn(|| argv.next()));
            match files.iter().find(|f| f.starts_with('-')) {
                Some(flag) => return Err(cli::unexpected(flag)),
                None => Mode::Check(files),
            }
        }
    };
    argv.end()?;
    Ok(mode)
}

fn main() {
    match cli::run(USAGE, parse_args) {
        Mode::Compare([golden, candidate]) => {
            for f in [&golden, &candidate] {
                if let Err(e) = check_file(f) {
                    eprintln!("error: {f}: {e}");
                    std::process::exit(1);
                }
            }
            match compare_files(&golden, &candidate) {
                Ok(drifts) if drifts.is_empty() => println!("{candidate}: matches {golden}"),
                Ok(drifts) => {
                    for d in &drifts {
                        eprintln!("error: golden drift: {d}");
                    }
                    eprintln!(
                        "error: {} key(s) drifted from the committed golden {golden}",
                        drifts.len()
                    );
                    std::process::exit(1);
                }
                Err(e) => {
                    eprintln!("error: golden drift: {e}");
                    std::process::exit(1);
                }
            }
        }
        Mode::ServeCell([figure, cell, served]) => {
            for f in [&figure, &served] {
                if let Err(e) = check_file(f) {
                    eprintln!("error: {f}: {e}");
                    std::process::exit(1);
                }
            }
            match compare_serve_cell(&figure, &cell, &served) {
                Ok(drifts) if drifts.is_empty() => {
                    println!("{served}: metrics match {figure} cell `{cell}`");
                }
                Ok(drifts) => {
                    for d in &drifts {
                        eprintln!("error: serve drift: {d}");
                    }
                    eprintln!(
                        "error: {} key(s) drifted between the served result and \
                         {figure} cell `{cell}`",
                        drifts.len()
                    );
                    std::process::exit(1);
                }
                Err(e) => {
                    eprintln!("error: serve drift: {e}");
                    std::process::exit(1);
                }
            }
        }
        Mode::Check(files) => {
            for f in &files {
                match check_file(f) {
                    Ok(()) => println!("{f}: ok"),
                    Err(e) => {
                        eprintln!("error: {f}: {e}");
                        std::process::exit(1);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Mode, String> {
        parse_args(Args::new(args.iter().copied()))
    }

    /// A figure document of one 10-cycle core on a `width`-wide machine
    /// that attributed `slots` issue slots, written to a file.
    fn figure_file(width: u64, slots: u64) -> String {
        let mut spec = MachineSpec::default();
        spec.set("core.issue_width", Json::U64(width)).unwrap();
        let mut snap = Json::obj().with("core0/cycles", Json::U64(10));
        for slot in SLOT_COUNTERS {
            let n = if slot == "issued" { slots } else { 0 };
            snap.set(&format!("core0/slots/{slot}"), Json::U64(n));
        }
        let table = Json::obj()
            .with("columns", Json::Arr(vec![]))
            .with("rows", Json::Arr(vec![]));
        let host = Json::obj()
            .with("wall_seconds", Json::F64(1.0))
            .with("sim_cycles", Json::U64(10));
        let doc = Json::obj()
            .with("title", Json::Str("t".into()))
            .with("paper", Json::Str("p".into()))
            .with("scale", Json::Str("quick".into()))
            .with("benches", Json::Arr(vec![]))
            .with("table", table)
            .with("summary", Json::obj())
            .with("metrics", Json::obj().with("m88ksim/Base", snap))
            .with("timeseries", Json::obj())
            .with("config", spec.to_json())
            .with("host", host);
        let path = std::env::temp_dir().join(format!(
            "check_json_w{width}_s{slots}_{}.json",
            std::process::id()
        ));
        std::fs::write(&path, doc.encode_pretty()).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn slot_conservation_takes_the_width_from_the_config() {
        for (width, slots, ok) in [(4, 40, true), (4, 80, false), (8, 80, true), (8, 40, false)] {
            let path = figure_file(width, slots);
            let checked = check_file(&path);
            std::fs::remove_file(&path).unwrap();
            assert_eq!(
                checked.is_ok(),
                ok,
                "{width} wide, {slots} slots: {checked:?}"
            );
        }
    }

    #[test]
    fn parses_each_mode_and_refuses_bad_command_lines() {
        assert_eq!(
            parse(&["a", "b"]),
            Ok(Mode::Check(vec!["a".into(), "b".into()]))
        );
        assert_eq!(
            parse(&["--compare", "g", "c"]),
            Ok(Mode::Compare(["g".into(), "c".into()]))
        );
        assert!(matches!(
            parse(&["--serve-cell", "f", "m/SRT", "s"]),
            Ok(Mode::ServeCell(_))
        ));
        assert_eq!(
            parse(&["--bogus"]),
            Err("unexpected argument `--bogus`".into())
        );
        assert_eq!(
            parse(&["--compare", "g"]),
            Err("`--compare` needs a value".into())
        );
        assert_eq!(
            parse(&["--compare", "g", "c", "x"]),
            Err("unexpected argument `x`".into())
        );
        assert!(parse(&["a", "--compare", "g", "c"]).is_err());
        assert!(parse(&[]).is_err());
    }
}
