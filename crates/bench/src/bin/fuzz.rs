//! Differential fuzzer front-end: random programs from the seeded
//! generator, each run on a redundancy arrangement in lockstep with the
//! reference interpreter.
//!
//! ```text
//! fuzz [--seeds LO..HI] [--arrangement NAME|all] [--commits N] [--budget-secs S]
//! ```
//!
//! Every seed/arrangement pair either verifies cleanly or yields a
//! divergence, which is greedily shrunk and printed as a ready-to-commit
//! `tests/corpus/*.rmt` reproducer; any finding exits nonzero. The
//! pipeline is sound, so a finding is a real bug — CI runs a fixed seed
//! block as a smoke test (see `scripts/ci.sh`) and expects silence.
//!
//! `--budget-secs` stops cleanly (exit 0) once the wall-clock budget is
//! spent, so a CI smoke run covers as many seeds as its slot allows
//! without ever timing out; seeds are deterministic, so interrupted
//! coverage resumes identically next run.

use rmt_pipeline::CoreConfig;
use rmt_stats::cli::{self, Args};
use rmt_verify::{harness, shrink, Arrangement, FuzzConfig};
use std::time::Instant;

fn parse_seed_range(text: &str) -> Option<(u64, u64)> {
    let (lo, hi) = text.split_once("..")?;
    Some((lo.parse().ok()?, hi.parse().ok()?))
}

/// `(--seeds, --arrangement, --commits, --budget-secs)`.
type Opts = ((u64, u64), Vec<Arrangement>, u64, Option<u64>);

fn parse_args(mut argv: Args) -> Result<Opts, String> {
    let (mut seeds, mut arrangements, mut commits, mut budget_secs) =
        ((0, 32), vec![Arrangement::Srt], 2_000, None);
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--seeds" => {
                let v = argv.value(&a)?;
                seeds = parse_seed_range(&v).ok_or_else(|| format!("bad value `{v}` for `{a}`"))?;
            }
            "--arrangement" => {
                let v = argv.value(&a)?;
                arrangements = if v == "all" {
                    Arrangement::ALL.to_vec()
                } else {
                    let x = Arrangement::ALL.iter().find(|x| x.name() == v);
                    vec![*x.ok_or_else(|| format!("unknown arrangement `{v}`"))?]
                };
            }
            "--commits" => commits = argv.parse(&a)?,
            "--budget-secs" => budget_secs = Some(argv.parse(&a)?),
            _ => return Err(cli::unexpected(&a)),
        }
    }
    Ok((seeds, arrangements, commits, budget_secs))
}

fn main() {
    let usage = format!(
        "usage: fuzz [--seeds LO..HI] [--arrangement NAME|all] [--commits N] [--budget-secs S]\n\
         arrangements: all, {}",
        Arrangement::ALL.map(|a| a.name()).join(", ")
    );
    let (seeds, arrangements, commits, budget_secs) = cli::run(&usage, parse_args);
    let cfg = FuzzConfig::default();
    let start = Instant::now();
    let mut ran = 0u64;
    let mut findings = 0u64;
    'outer: for seed in seeds.0..seeds.1 {
        for &arr in &arrangements {
            if budget_secs.is_some_and(|b| start.elapsed().as_secs() >= b) {
                println!("budget reached after {ran} runs; stopping at seed {seed}");
                break 'outer;
            }
            ran += 1;
            match harness::fuzz_one(arr, CoreConfig::base(), &cfg, seed, commits) {
                None => {}
                Some(f) => {
                    findings += 1;
                    eprintln!(
                        "seed {seed} on {}: {}\n\nminimized reproducer \
                         ({} live instructions) — save as tests/corpus/*.rmt:\n{}",
                        arr.name(),
                        f.divergence.render(),
                        shrink::live_insts(&f.shrunk),
                        shrink::to_asm(&f.shrunk),
                    );
                }
            }
        }
    }
    println!(
        "fuzz: {ran} runs ({} arrangement(s), seeds {}..{}), {findings} divergence(s), {:.1}s",
        arrangements.len(),
        seeds.0,
        seeds.1,
        start.elapsed().as_secs_f64()
    );
    if findings > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Opts, String> {
        parse_args(Args::new(args.iter().copied()))
    }

    #[test]
    fn parses_flags_and_refuses_bad_values() {
        let (seeds, arrangements, _, budget) = parse(&[
            "--seeds",
            "3..9",
            "--arrangement",
            "all",
            "--budget-secs",
            "5",
        ])
        .unwrap();
        assert_eq!(seeds, (3, 9));
        assert_eq!(arrangements, Arrangement::ALL.to_vec());
        assert_eq!(budget, Some(5));
        assert_eq!(
            parse(&["--seeds", "3"]).err().unwrap(),
            "bad value `3` for `--seeds`"
        );
        assert!(parse(&["--arrangement", "nope"]).is_err());
        assert!(parse(&["--commits"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
    }
}
