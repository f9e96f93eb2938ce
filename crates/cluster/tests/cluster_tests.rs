//! The cluster correctness contract, attacked from two directions:
//!
//! 1. A **merge-determinism property**: random small sweep requests are
//!    expanded into cells, each cell is executed in-process, and the
//!    per-cell results are handed to [`ClusterPlan::merge`] in shuffled
//!    order — with duplicated grid cells (repeated axis values collapse
//!    onto one digest) and injected unknown-digest noise. The merged
//!    document must be **bitwise identical** to executing the original
//!    request in one process, and removing any single required cell must
//!    turn the merge into an error, never into wrong bytes.
//!
//! 2. A **chaos end-to-end test**: the real `rmt-cluster` binary spawns
//!    a three-worker fleet, one worker is SIGKILLed mid-sweep
//!    (`--chaos-kill 1`), and the merged result file must still come out
//!    byte-identical to a `--local` single-process run of the same
//!    request.
//!
//! Plus a check that `--local --progress` reports cells like a fleet run.

use rmt_sim::service::{ClusterPlan, ServiceRequest};
use rmt_stats::check::run_cases;
use rmt_stats::json::parse;
use rmt_stats::rng::Xoshiro256;
use rmt_stats::Json;
use std::collections::HashMap;
use std::process::Command;

const BENCH_POOL: [&str; 4] = ["m88ksim", "ijpeg", "compress", "go"];
const BASE_POOL: [&str; 3] = ["SRT", "SRT+ptsq", "SRT+nosc"];
const AXIS_POOL: [(&str, [u64; 3]); 2] = [
    ("core.sq_entries", [16, 32, 64]),
    ("env.lvq_entries", [8, 16, 32]),
];

/// A random small sweep request: 1–2 benchmarks, 1–2 axes with 1–2
/// values each, and — half the time — one **duplicated** axis value, so
/// two plan cells collapse onto the same digest.
fn gen_sweep(rng: &mut Xoshiro256) -> ServiceRequest {
    let nb = 1 + rng.below(2) as usize;
    let mut benches: Vec<&str> = Vec::new();
    while benches.len() < nb {
        let b = BENCH_POOL[rng.below(BENCH_POOL.len() as u64) as usize];
        if !benches.contains(&b) {
            benches.push(b);
        }
    }
    let na = 1 + rng.below(2) as usize;
    let mut axes: Vec<Json> = Vec::new();
    for (path, pool) in AXIS_POOL.iter().take(na) {
        let nv = 1 + rng.below(2) as usize;
        let mut values: Vec<Json> = (0..nv)
            .map(|_| Json::U64(pool[rng.below(pool.len() as u64) as usize]))
            .collect();
        if rng.below(2) == 0 {
            values.push(values[0].clone());
        }
        axes.push(
            Json::obj()
                .with("path", Json::Str((*path).into()))
                .with("values", Json::Arr(values)),
        );
    }
    let doc = Json::obj()
        .with("type", Json::Str("sweep".into()))
        .with(
            "sweep",
            Json::obj()
                .with("name", Json::Str("prop".into()))
                .with(
                    "base",
                    Json::Str(BASE_POOL[rng.below(BASE_POOL.len() as u64) as usize].into()),
                )
                .with(
                    "benches",
                    Json::Arr(benches.iter().map(|b| Json::Str((*b).into())).collect()),
                )
                .with("axes", Json::Arr(axes)),
        )
        .with(
            "scale",
            Json::obj()
                .with("warmup", Json::U64(100 + rng.below(3) * 100))
                .with("measure", Json::U64(400 + rng.below(3) * 100))
                .with("seed", Json::U64(rng.below(1 << 20))),
        );
    ServiceRequest::from_json(&doc).expect("generated request parses")
}

#[test]
fn merge_reproduces_single_process_bytes_under_shuffling_and_loss() {
    // Each case simulates every cell, so keep the count modest; raise it
    // with RMT_PROP_CASES for a deeper soak.
    run_cases("cluster merge is deterministic", 4, 0xc1a57e, |rng| {
        let request = gen_sweep(rng);
        let single = request.execute(1, None).expect("single-process run");
        let plan = ClusterPlan::expand(&request);

        // Execute the distinct units in a shuffled order (a stand-in for
        // results arriving from different workers at different times).
        let mut digests: Vec<String> = plan
            .distinct_digests()
            .iter()
            .map(|d| d.to_string())
            .collect();
        assert!(
            digests.len() <= plan.cells.len(),
            "duplicated cells must collapse"
        );
        for i in (1..digests.len()).rev() {
            digests.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let mut results: HashMap<String, Json> = HashMap::new();
        for digest in &digests {
            let cell = plan
                .cells
                .iter()
                .find(|c| &c.digest == digest)
                .expect("digest from plan");
            let result = cell.request.execute(1, None).expect("cell run");
            results.insert(digest.clone(), result);
        }
        // Unknown-digest noise must be ignored, not merged.
        results.insert("ffffffffffffffffffffffffffffffff".into(), Json::Null);

        let merged = plan.merge(&results).expect("complete merge succeeds");
        assert_eq!(
            merged.encode(),
            single.encode(),
            "merged document must be bitwise identical to one process"
        );

        // Partial failure: dropping any one required unit is an error —
        // a cluster must never silently merge an incomplete grid.
        let victim = &digests[rng.below(digests.len() as u64) as usize];
        let mut partial = results.clone();
        partial.remove(victim);
        let err = plan.merge(&partial).expect_err("incomplete merge fails");
        assert!(
            err.contains(victim),
            "the error names the missing cell: {err}"
        );
    });
}

#[test]
fn chaos_killed_worker_still_yields_bitwise_identical_results() {
    let bin = env!("CARGO_BIN_EXE_rmt-cluster");
    let dir = std::env::temp_dir().join(format!("rmt-cluster-chaos-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let sweep = dir.join("sweep.json");
    std::fs::write(
        &sweep,
        r#"{"name": "chaos", "base": "SRT",
            "benches": ["m88ksim", "ijpeg"],
            "axes": [{"path": "core.sq_entries", "values": [16, 64]}]}"#,
    )
    .expect("write sweep");
    let run = |extra: &[&str], result_name: &str| -> std::path::PathBuf {
        let result = dir.join(result_name);
        let out = Command::new(bin)
            .arg(sweep.display().to_string())
            .args(["--quick", "--result-out", &result.display().to_string()])
            .args(extra)
            .output()
            .expect("rmt-cluster runs");
        assert!(
            out.status.success(),
            "rmt-cluster {extra:?} failed:\n{}\n{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        result
    };

    let local = run(&["--local"], "local.json");
    let spawn_dir = dir.join("fleet").display().to_string();
    let envelope = dir.join("envelope.json").display().to_string();
    let cluster = run(
        &[
            "--spawn",
            "3",
            "--chaos-kill",
            "1",
            "--spawn-dir",
            &spawn_dir,
            "--out",
            &envelope,
        ],
        "cluster.json",
    );

    let local_bytes = std::fs::read(&local).expect("local result");
    let cluster_bytes = std::fs::read(&cluster).expect("cluster result");
    assert_eq!(
        local_bytes, cluster_bytes,
        "a chaos-killed fleet must still merge to the single-process bytes"
    );

    // The envelope records the survivors doing the work: every cell was
    // won by some worker, after the advertised fleet lost one member.
    let doc = parse(&std::fs::read_to_string(&envelope).expect("envelope")).expect("valid JSON");
    assert_eq!(doc.get("workers").and_then(Json::as_u64), Some(3));
    let cells = doc.get("cells").and_then(Json::as_array).expect("cells");
    assert!(!cells.is_empty());
    for cell in cells {
        assert!(cell.get("worker").and_then(Json::as_str).is_some());
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn local_progress_prints_cell_lines() {
    let dir = std::env::temp_dir().join(format!("rmt-cluster-progress-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let sweep = dir.join("sweep.json");
    std::fs::write(
        &sweep,
        r#"{"name": "progress", "base": "SRT", "benches": ["m88ksim"],
            "axes": [{"path": "core.sq_entries", "values": [16, 64]}]}"#,
    )
    .expect("write sweep");
    let out = Command::new(env!("CARGO_BIN_EXE_rmt-cluster"))
        .arg(&sweep)
        .args(["--local", "--quick", "--progress"])
        .output()
        .expect("rmt-cluster runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(
        stderr
            .lines()
            .any(|l| l.starts_with("[rmt-cluster] ") && l.contains("/2 cells")),
        "no cells line on stderr:\n{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
