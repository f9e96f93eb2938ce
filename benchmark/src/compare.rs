//! `--compare A.json B.json`: two sets of runs, each a file of records
//! appended by `--json`. For every workload and end-to-end metric it
//! prints each side's median and quartiles, B's change against A as a
//! share of A's median (positive is worse), the metric's bound, and a
//! verdict:
//!
//! * `unresolved` — either side's quartile spread exceeds the bound, and
//!   B does not read better than A on every pair of runs;
//! * `worse` / `better` — the medians differ by more than the bound;
//! * `same` — otherwise.

use crate::defined;
use crate::summary::{median, quartiles};
use crate::workloads::NAMES;
use rmt_stats::json::parse;
use rmt_stats::Json;
use std::collections::BTreeSet;
use std::path::Path;

/// The untraced records of a `--json` file.
fn load(path: &Path) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = Vec::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec = parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?;
        if rec.get("trace").and_then(Json::as_bool) == Some(false) {
            out.push(rec);
        }
    }
    Ok(out)
}

fn values(records: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .filter_map(|r| {
            r.get("result")?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

fn fingerprints(records: &[Json]) -> BTreeSet<String> {
    records
        .iter()
        .filter_map(|r| r.get("host").map(Json::encode))
        .collect()
}

/// How much worse B's median is than A's, as a share of A's.
fn worse_share(a: &[f64], b: &[f64], lower_is_better: bool) -> f64 {
    let (ma, mb) = (median(a), median(b));
    if lower_is_better {
        (mb - ma) / ma
    } else {
        (ma - mb) / ma
    }
}

/// Verdict for one metric from A's and B's runs.
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> &'static str {
    let spread = |v: &[f64]| {
        let (q1, q3) = quartiles(v);
        (q3 - q1) / median(v)
    };
    let worse = worse_share(a, b, lower_is_better);
    let b_always_better = a.iter().all(|&x| {
        b.iter()
            .all(|&y| if lower_is_better { y < x } else { y > x })
    });
    if spread(a).max(spread(b)) > bound {
        if b_always_better {
            "better"
        } else {
            "unresolved"
        }
    } else if worse > bound {
        "worse"
    } else if worse < -bound {
        "better"
    } else {
        "same"
    }
}

/// Prints the comparison; the exit code is 2 when a file is unreadable.
pub fn run(a: &Path, b: &Path) -> i32 {
    let (ra, rb) = match (load(a), load(b)) {
        (Ok(x), Ok(y)) => (x, y),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let (fa, fb) = (fingerprints(&ra), fingerprints(&rb));
    if fa.len() > 1 || fb.len() > 1 || fa != fb {
        println!("warning: the runs come from different hosts or commits:");
        for f in fa.union(&fb) {
            println!("  {f}");
        }
    }
    println!(
        "{:<14} {:<12} {:>26} {:>26} {:>8} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "delta", "bound"
    );
    for w in NAMES {
        for m in defined("end_to_end") {
            let (va, vb) = (values(&ra, w, &m.name), values(&rb, w, &m.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let side = |v: &[f64]| {
                let (q1, q3) = quartiles(v);
                format!("{:.4} [{:.4}, {:.4}]", median(v), q1, q3)
            };
            println!(
                "{:<14} {:<12} {:>26} {:>26} {:>+7.1}% {:>5.1}%  {} ({} vs {} runs, {})",
                w,
                m.name,
                side(&va),
                side(&vb),
                worse_share(&va, &vb, m.lower_is_better) * 100.0,
                m.bound * 100.0,
                verdict(&va, &vb, m.lower_is_better, m.bound),
                va.len(),
                vb.len(),
                m.unit
            );
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::verdict;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(verdict(&a, &a, true, 0.05), "same");
        let slower: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        assert_eq!(verdict(&a, &slower, true, 0.05), "worse");
        assert_eq!(verdict(&a, &slower, false, 0.05), "better");
        let noisy = [60.0, 140.0, 100.0, 80.0, 120.0];
        assert_eq!(verdict(&a, &noisy, true, 0.05), "unresolved");
    }
}
