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
//!   exactly `8 × cycles`);
//! * `rmt-serve/v1` — an `rmt-serve` response envelope: well-formed
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
use rmt_stats::cli::{self, Args};
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

fn check_snapshot(key: &str, snap: &Json) -> Result<(), String> {
    let members = snap
        .members()
        .ok_or_else(|| format!("metrics[{key}] is not an object"))?;
    let mut cores = 0;
    for (name, _) in members {
        let Some(prefix) = name.strip_suffix("/slots/issued") else {
            continue;
        };
        cores += 1;
        let cycles = snap
            .get(&format!("{prefix}/cycles"))
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("metrics[{key}]: missing `{prefix}/cycles`"))?;
        let mut total = 0u64;
        for slot in SLOT_COUNTERS {
            total += snap
                .get(&format!("{prefix}/slots/{slot}"))
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("metrics[{key}]: missing `{prefix}/slots/{slot}`"))?;
        }
        if total != 8 * cycles {
            return Err(format!(
                "metrics[{key}]: `{prefix}` slot conservation violated: \
                 {total} attributed slots over {cycles} cycles (want {})",
                8 * cycles
            ));
        }
    }
    if cores == 0 {
        return Err(format!("metrics[{key}]: no per-core slot accounting found"));
    }
    Ok(())
}

/// A time series is `{"every": u64 >= 1, "epochs": [snapshot, ...]}`.
/// Each epoch delta is a snapshot object whose members are numbers
/// (counters, gauges) or histogram-summary objects; every epoch must
/// cover exactly `every` device cycles — the cycle alignment that makes
/// the series `--jobs`-invariant.
fn check_timeseries(key: &str, series: &Json) -> Result<(), String> {
    let every = series
        .get("every")
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("timeseries[{key}]: missing `every`"))?;
    if every == 0 {
        return Err(format!("timeseries[{key}]: `every` must be >= 1"));
    }
    let epochs = series
        .get("epochs")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("timeseries[{key}]: `epochs` is not an array"))?;
    for (i, epoch) in epochs.iter().enumerate() {
        let members = epoch
            .members()
            .ok_or_else(|| format!("timeseries[{key}]: epoch {i} is not an object"))?;
        for (metric, v) in members {
            if v.as_f64().is_none() && v.members().is_none() {
                return Err(format!(
                    "timeseries[{key}]: epoch {i} metric `{metric}` is neither \
                     a number nor a histogram summary"
                ));
            }
        }
        let cycles = epoch.get("device/cycles").and_then(Json::as_u64);
        if cycles != Some(every) {
            return Err(format!(
                "timeseries[{key}]: epoch {i} covers {cycles:?} device cycles, want {every}"
            ));
        }
    }
    Ok(())
}

fn check_file(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let doc = parse(&text).map_err(|e| format!("invalid JSON: {e}"))?;
    match doc.get("schema").and_then(Json::as_str) {
        // Untagged documents are either figure documents or bare service
        // results (what `/v1/results/<digest>` serves) — the latter carry
        // a `type` discriminant, figures never do.
        None => match doc.get("type").and_then(Json::as_str) {
            Some("run" | "sweep") => check_service_result(&doc),
            _ => check_figure(&doc),
        },
        Some("rmt-serve/v1") => check_envelope(&doc),
        Some("rmt-cluster/v1") => check_cluster_envelope(&doc),
        Some(other) => Err(format!("unknown document schema `{other}`")),
    }
}

fn check_figure(doc: &Json) -> Result<(), String> {
    for key in [
        "title",
        "paper",
        "scale",
        "benches",
        "config",
        "table",
        "summary",
        "metrics",
        "timeseries",
        "host",
    ] {
        doc.get(key).ok_or_else(|| format!("missing `{key}`"))?;
    }
    // The resolved machine spec must strictly round-trip through the
    // config codec: every section present, no unknown keys, every value
    // well-typed. This is the gate that keeps committed results
    // self-describing.
    rmt_core::MachineSpec::from_json(doc.get("config").expect("checked"))
        .map_err(|e| format!("invalid `config`: {e}"))?;
    let table = doc.get("table").expect("checked");
    let cols = table
        .get("columns")
        .and_then(Json::as_array)
        .ok_or("`table.columns` is not an array")?;
    let rows = table
        .get("rows")
        .and_then(Json::as_array)
        .ok_or("`table.rows` is not an array")?;
    for (i, row) in rows.iter().enumerate() {
        let cells = row
            .as_array()
            .ok_or_else(|| format!("`table.rows[{i}]` is not an array"))?;
        if cells.len() != cols.len() {
            return Err(format!(
                "`table.rows[{i}]` has {} cells for {} columns",
                cells.len(),
                cols.len()
            ));
        }
    }
    for (k, v) in doc
        .get("summary")
        .and_then(Json::members)
        .ok_or("`summary` is not an object")?
    {
        v.as_f64()
            .ok_or_else(|| format!("`summary.{k}` is not a number"))?;
    }
    for (k, snap) in doc
        .get("metrics")
        .and_then(Json::members)
        .ok_or("`metrics` is not an object")?
    {
        check_snapshot(k, snap)?;
    }
    for (k, series) in doc
        .get("timeseries")
        .and_then(Json::members)
        .ok_or("`timeseries` is not an object")?
    {
        check_timeseries(k, series)?;
    }
    let host = doc.get("host").expect("checked");
    host.get("wall_seconds")
        .and_then(Json::as_f64)
        .ok_or("`host.wall_seconds` is not a number")?;
    host.get("sim_cycles")
        .and_then(Json::as_u64)
        .ok_or("`host.sim_cycles` is not a u64")?;
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
    let expected = figure
        .get("metrics")
        .and_then(|m| m.get(cell))
        .ok_or_else(|| format!("{figure_path} has no metrics cell `{cell}`"))?;
    let served = load(served_path)?;
    let result = if served.get("schema").is_some() {
        served
            .get("result")
            .ok_or_else(|| format!("{served_path} is an envelope without an embedded result"))?
    } else {
        &served
    };
    let got = result
        .get("metrics")
        .ok_or_else(|| format!("{served_path} result lacks `metrics`"))?;
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
