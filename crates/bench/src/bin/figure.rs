//! `figure ID [flags]` — regenerates one paper table or figure (or an
//! ablation or extension) from its entry in `FIGURES`; the flags are
//! [`rmt_bench`]'s, and `figure --help` lists the ids.

use rmt_bench::{run_and_print, BenchInput, FigureArgs, FIGURE_FLAGS};
use rmt_sim::figures::{self as f, FigureResult};
use rmt_sim::FigureCtx;
use rmt_stats::cli::{self, Args};
use rmt_workloads::mix::four_program_mixes;
use BenchInput::{Fixed, List, One};

type Driver = fn(&FigureCtx, &FigureArgs) -> FigureResult;

struct Figure {
    id: &'static str,
    title: &'static str,
    paper: &'static str,
    input: BenchInput,
    run: Driver,
    /// The title and driver of the sampled form `--sample` selects.
    sampled: Option<(&'static str, Driver)>,
    /// Whether `--epoch` applies: the figure runs an efficiency grid and
    /// returns its time series (its sampled form never does).
    epochs: bool,
}

const fn fig(
    id: &'static str,
    title: &'static str,
    paper: &'static str,
    input: BenchInput,
    run: Driver,
) -> Figure {
    Figure {
        id,
        title,
        paper,
        input,
        run,
        sampled: None,
        epochs: true,
    }
}

/// A figure that runs no efficiency grid, so `--epoch` has no time
/// series to fill and is refused.
const fn fig_no_series(
    id: &'static str,
    title: &'static str,
    paper: &'static str,
    input: BenchInput,
    run: Driver,
) -> Figure {
    Figure {
        epochs: false,
        ..fig(id, title, paper, input, run)
    }
}

const FIGURES: [Figure; 20] = [
    fig_no_series(
        "table1",
        "Table 1: base processor parameters",
        "Table 1",
        Fixed,
        |_, _| f::table1(),
    ),
    fig_no_series(
        "fig2_pipeline",
        "Figure 2: pipeline segments",
        "Figure 2",
        Fixed,
        |_, _| f::fig2_pipeline(),
    ),
    Figure {
        sampled: Some((
            "Figure 6 (sampled): SRT SMT-efficiency, one logical thread",
            |c, a| f::fig6_srt_single_sampled(c, a.scale, &a.plan, &a.benches),
        )),
        ..fig(
            "fig6_srt_single",
            "Figure 6: SRT SMT-efficiency, one logical thread",
            "Figure 6 (paper: SRT degrades ~32% vs base; ptsq recovers ~2%)",
            List,
            |c, a| f::fig6_srt_single(c, a.scale, &a.benches),
        )
    },
    fig_no_series(
        "fig7_psr",
        "Figure 7: same-functional-unit fraction, PSR off/on",
        "Figure 7 (paper: ~65% -> ~0.06%)",
        List,
        |c, a| f::fig7_psr(c, a.scale, &a.benches),
    ),
    fig(
        "fig8_srt_multi",
        "Two-logical-thread SRT",
        "Section 7.1 prose (paper: SRT ~-40%, ptsq ~-32%)",
        Fixed,
        |c, a| f::fig8_srt_multi(c, a.scale),
    ),
    fig_no_series(
        "fig9_storeq",
        "Store-queue entry lifetimes: base vs SRT leading thread",
        "Section 7.1 prose (paper: ~+39 cycles)",
        List,
        |c, a| f::fig9_storeq(c, a.scale, &a.benches),
    ),
    fig(
        "fig10_crt_single",
        "Lock0 / Lock8 / CRT, one logical thread",
        "Section 7.2 (paper: CRT performs similarly to lockstepping)",
        List,
        |c, a| f::fig10_crt_single(c, a.scale, &a.benches),
    ),
    fig(
        "fig11_crt_two",
        "Lock0 / Lock8 / CRT, two logical threads",
        "Section 7.2 (paper: CRT outperforms lockstepping, up to 22%)",
        Fixed,
        |c, a| f::fig11_crt_two(c, a.scale),
    ),
    fig(
        "fig12_crt_four",
        "Lock0 / Lock8 / CRT, four logical threads (15 mixes)",
        "Section 7.2 (paper: CRT beats lockstepping by 13% on average)",
        Fixed,
        |c, a| f::fig12_crt_four(c, a.scale),
    ),
    fig(
        "abl_sq_size",
        "Ablation: store-queue size sweep under SRT",
        "Motivates section 4.2's per-thread store queues",
        List,
        |c, a| f::abl_sq_size(c, a.scale, &a.benches),
    ),
    fig(
        "abl_lvq_size",
        "Ablation: load-value-queue size sweep under SRT",
        "Section 4.1 (the LVQ bounds the redundant threads' slack)",
        List,
        |c, a| f::abl_lvq_size(c, a.scale, &a.benches),
    ),
    fig(
        "abl_crt_delay",
        "Ablation: CRT cross-core forwarding delay sweep",
        "Section 5 (the queues decouple the threads from the latency)",
        List,
        |c, a| f::abl_crt_delay(c, a.scale, &a.benches),
    ),
    fig(
        "abl_fetch_policy",
        "Ablation: trailing-thread fetch policy",
        "Section 4.4 (paper: sharing the line predictor does not work well)",
        List,
        |c, a| f::abl_fetch_policy(c, a.scale, &a.benches),
    ),
    fig(
        "abl_slack",
        "Ablation: trailing fetch priority",
        "Section 4.4 (paper: trailing priority performed best)",
        List,
        |c, a| f::abl_slack(c, a.scale, &a.benches),
    ),
    fig_no_series(
        "abl_prefetch",
        "Ablation: next-line L1D prefetch",
        "Extension (the paper's base machine has no prefetcher)",
        List,
        |c, a| f::abl_prefetch(c, a.scale, &a.benches),
    ),
    fig_no_series(
        "slack_profile",
        "Redundant-thread slack profile under SRT",
        "Section 4.4 (LPQ-driven fetch subsumes explicit slack fetch)",
        List,
        |c, a| f::slack_profile(c, a.scale, &a.benches),
    ),
    fig(
        "workload_chars",
        "Synthetic workload characterization",
        "DESIGN.md section 1 (the SPEC CPU95 substitution)",
        List,
        |c, a| f::workload_chars(c, a.scale, &a.benches),
    ),
    fig_no_series(
        "fault_coverage",
        "Fault-injection coverage",
        "Sections 4.5 / 7.1.1 (paper: PSR makes permanent faults detectable)",
        One,
        |c, a| f::fault_coverage(c, a.scale, a.benches[0]),
    ),
    fig(
        "fig_ring4",
        "CRT (2 cores) vs CRT ring-4, four logical threads",
        "Extension: Topology::Ring(4) through the redundancy fabric",
        Fixed,
        |c, a| {
            let mixes: Vec<Vec<_>> = four_program_mixes().into_iter().map(Vec::from).collect();
            f::fig_ring4(c, a.scale, &mixes)
        },
    ),
    fig(
        "aggregate",
        "Suite summary: base IPC, SRT and CRT efficiency",
        "Figures 6 and 10 (aggregate)",
        List,
        |c, a| f::suite_summary(c, a.scale, &a.benches),
    ),
];

/// Parses `ID [flags]` against the figure's entry in [`FIGURES`].
fn parse(mut argv: Args) -> Result<(&'static Figure, FigureArgs), String> {
    let id = argv.next().ok_or("missing figure ID")?;
    let fig = FIGURES
        .iter()
        .find(|f| f.id == id)
        .ok_or_else(|| format!("unknown figure `{id}`"))?;
    let args = FigureArgs::parse(argv, fig.input, fig.sampled.is_some())?;
    if fig.epochs && !args.sample {
        Ok((fig, args))
    } else {
        Ok((fig, args.refuse_epoch()?))
    }
}

fn main() {
    let ids = FIGURES.map(|f| f.id).join(", ");
    let usage = format!("usage: figure ID [--sample] {FIGURE_FLAGS}\nids: {ids}");
    let (fig, args) = cli::run(&usage, parse);
    let (title, run) = match fig.sampled {
        Some(sampled) if args.sample => sampled,
        _ => (fig.title, fig.run),
    };
    run_and_print(title, fig.paper, &args, |ctx| (run(ctx, &args), Vec::new()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmt_bench::{figure_json, HostStats};
    use rmt_stats::Json;

    fn parse_line(line: &[&str]) -> Result<(&'static Figure, FigureArgs), String> {
        parse(Args::new(line.iter().copied()))
    }

    #[test]
    fn epoch_is_refused_where_there_is_no_time_series() {
        for line in [
            &["table1", "--epoch", "4096"][..],
            &["fig2_pipeline", "--epoch", "4096"],
            &["fig7_psr", "--epoch", "4096"],
            &["fig9_storeq", "--epoch", "4096"],
            &["slack_profile", "--epoch", "4096"],
            &["abl_prefetch", "--epoch", "4096"],
            &["fault_coverage", "--epoch", "4096"],
            &["fig6_srt_single", "--epoch", "4096", "--sample"],
        ] {
            let err = parse_line(line)
                .err()
                .unwrap_or_else(|| panic!("{line:?} accepted"));
            assert!(err.contains("`--epoch`"), "{line:?}: {err}");
        }
        for fig in FIGURES.iter().filter(|f| f.epochs) {
            let (_, args) = parse_line(&[fig.id, "--epoch", "4096"]).unwrap();
            assert_eq!(args.epoch, Some(4096), "{}", fig.id);
        }
    }

    #[test]
    fn abl_slack_returns_its_time_series() {
        let line = [
            "abl_slack",
            "--quick",
            "--benches",
            "m88ksim",
            "--epoch",
            "4096",
        ];
        let (fig, args) = parse_line(&line).unwrap();
        let r = (fig.run)(&args.ctx(), &args);
        let host = HostStats {
            wall_seconds: 0.0,
            sim_cycles: 0,
            jobs: 1,
            jobs_executed: 0,
        };
        let doc = figure_json(fig.title, fig.paper, &args, &r, &host);
        let series = doc.get("timeseries").and_then(Json::members).unwrap();
        assert!(!series.is_empty());
        assert!(series
            .iter()
            .all(|(_, s)| s.get("every").and_then(Json::as_u64) == Some(4096)));
    }
}
