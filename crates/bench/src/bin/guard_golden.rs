//! Regenerates the refactor-guard reference records.
//!
//! ```text
//! guard_golden [--standard] [--out PATH]
//! ```
//!
//! Default (quick scale): `results/refactor_guard_quick.json`, every
//! `DeviceKind` plus a multithreaded CRT point.
//!
//! `--standard`: `results/refactor_guard_standard.json`, one standard-
//! scale cell per `DeviceKind`, each run under the co-simulation oracle
//! (generation aborts on any divergence from the reference interpreter).
//!
//! `tests/refactor_guard.rs` re-runs the same points and asserts bitwise
//! equality, so these files must only be regenerated deliberately (new
//! device kinds, intentional model changes) — never to paper over drift.

use rmt_sim::guard::{
    golden_to_json, golden_to_json_at, guard_points, run_point, run_standard_point,
    standard_points, STANDARD_MEASURE, STANDARD_WARMUP,
};
use rmt_stats::cli::{self, Args};

/// `(--standard, --out PATH)`.
fn parse_args(mut argv: Args) -> Result<(bool, Option<String>), String> {
    let (mut standard, mut out) = (false, None);
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--out" => out = Some(argv.value(&a)?),
            "--standard" => standard = true,
            _ => return Err(cli::unexpected(&a)),
        }
    }
    Ok((standard, out))
}

fn main() {
    let (standard, out) = cli::run("usage: guard_golden [--standard] [--out PATH]", parse_args);
    let (doc, out) = if standard {
        let records: Vec<_> = standard_points()
            .iter()
            .map(|p| {
                let (r, checked) = run_standard_point(p);
                println!(
                    "{}: cycles={} fnv={:#018x} oracle-checked={checked}",
                    r.name, r.cycles, r.metrics_fnv
                );
                r
            })
            .collect();
        (
            golden_to_json_at(&records, STANDARD_WARMUP, STANDARD_MEASURE),
            out.unwrap_or_else(|| "results/refactor_guard_standard.json".into()),
        )
    } else {
        let records: Vec<_> = guard_points()
            .iter()
            .map(|p| {
                let r = run_point(p);
                println!(
                    "{}: cycles={} fnv={:#018x}",
                    r.name, r.cycles, r.metrics_fnv
                );
                r
            })
            .collect();
        (
            golden_to_json(&records),
            out.unwrap_or_else(|| "results/refactor_guard_quick.json".into()),
        )
    };
    std::fs::write(&out, doc.encode_pretty()).expect("write golden");
    println!("wrote {out}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flags_and_refuses_a_missing_path() {
        let parse = |args: &[&str]| parse_args(Args::new(args.iter().copied()));
        assert_eq!(parse(&["--standard"]), Ok((true, None)));
        assert_eq!(
            parse(&["--out", "g.json"]),
            Ok((false, Some("g.json".into())))
        );
        assert_eq!(parse(&["--out"]), Err("`--out` needs a value".into()));
        assert!(parse(&["extra"]).is_err());
    }
}
