//! Cell expansion and deterministic merge: the one sweep path.
//!
//! A [`ServiceRequest`] is either one simulation (a run) or a grid of
//! independent simulations (a sweep: every `(axis value, benchmark)`
//! cell plus one Base-machine denominator per benchmark). A
//! [`ClusterPlan`] makes that grid explicit: [`ClusterPlan::expand`]
//! turns a request into per-cell **run** requests — each a full
//! [`ServiceRequest`] with its own canonical digest — and
//! [`ClusterPlan::merge`] folds the per-cell result documents back into
//! the request's result document.
//!
//! Every sweep runs this way. [`ServiceRequest::execute`] computes the
//! distinct cells on a local [`Runner`](crate::runner::Runner) (which is
//! what the `rmt-serve` daemon and `rmt-cluster --local` call), and the
//! `rmt-cluster` coordinator has a fleet of `rmt-serve` workers compute
//! them; both hand the results to the same merge.
//!
//! The merge is *deterministic by construction*: cells are keyed by
//! content digest and folded in declarative grid order, so the merged
//! document is bitwise independent of which process produced each cell,
//! in what order results arrived, how many duplicates were dispatched,
//! or how many attempts failed along the way. This is enforced by unit
//! tests here, a shuffling/duplicating property test in the cluster
//! crate, and an independent reference built from direct
//! [`Experiment`](crate::Experiment) runs in the root `tests/`.

use super::{RunRequest, ServiceRequest, SweepRequest, SweepRow, RUN_MAX_CYCLE_FACTOR};
use rmt_core::spec::{DeviceKind, MachineSpec};
use rmt_stats::metrics::mean;
use rmt_stats::Json;
use rmt_workloads::Benchmark;
use std::collections::BTreeMap;
use std::collections::HashMap;

/// What one expanded cell contributes to the merged document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellRole {
    /// The whole request was a single run; the cell's result *is* the
    /// merged document.
    Single,
    /// A single-thread Base-machine run — the SMT-efficiency denominator
    /// for `bench` (shared by every sweep row of that benchmark).
    Baseline {
        /// The benchmark whose denominator this cell computes.
        bench: Benchmark,
    },
    /// One sweep grid cell: axis `axis`, value index `value`, benchmark
    /// `bench` (indices into the sweep config's declarative grid).
    Grid {
        /// Axis index into `cfg.axes`.
        axis: usize,
        /// Value index into `cfg.axes[axis].values`.
        value: usize,
        /// The benchmark this cell ran.
        bench: Benchmark,
    },
}

/// One dispatchable unit of work: a fully resolved run request plus its
/// content digest (the key its result is cached, deduplicated and merged
/// under).
#[derive(Debug, Clone)]
pub struct ClusterCell {
    /// Position in the plan (grid order; stable across expansions).
    pub index: usize,
    /// Where the cell's result lands in the merged document.
    pub role: CellRole,
    /// The cell's own service request (always a run).
    pub request: ServiceRequest,
    /// [`ServiceRequest::digest`] of `request`, precomputed.
    pub digest: String,
}

/// An expanded request: the original plus its dispatchable cells.
///
/// Two cells may share a digest (e.g. an axis listing the same value
/// twice); a coordinator should deduplicate *work* by digest while the
/// merge looks results up by digest, so duplicates cost nothing.
#[derive(Debug, Clone)]
pub struct ClusterPlan {
    request: ServiceRequest,
    /// The cells, in declarative grid order (baselines first, then
    /// axis-major, value, benchmark-innermost).
    pub cells: Vec<ClusterCell>,
}

fn run_cell(spec: MachineSpec, bench: Benchmark, s: &SweepRequest, factor: u64) -> ServiceRequest {
    ServiceRequest::Run(RunRequest {
        spec,
        benches: vec![bench],
        scale: s.scale,
        epoch: 0,
        max_cycle_factor: factor,
    })
}

/// Thread-0 IPC of a run result document, recomputed from the exact
/// integers the simulator reported — the same `committed / cycles`
/// division [`ThreadOutcome::ipc`](crate::outcome::ThreadOutcome::ipc)
/// performs, so the value is bitwise identical to an in-process run.
fn ipc_of(result: &Json, digest: &str) -> Result<f64, String> {
    let t = result
        .get("per_thread")
        .and_then(Json::as_array)
        .and_then(<[Json]>::first)
        .ok_or_else(|| format!("cell {digest}: result lacks `per_thread[0]`"))?;
    let field = |k: &str| {
        t.get(k)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("cell {digest}: `per_thread[0].{k}` is not a u64"))
    };
    let committed = field("committed")?;
    let cycles = field("cycles")?;
    Ok(if cycles == 0 {
        0.0
    } else {
        committed as f64 / cycles as f64
    })
}

impl ClusterPlan {
    /// Expands a request into its dispatchable cells.
    ///
    /// A **run** request is one cell (a single simulation is already the
    /// unit of work). A **sweep** request becomes one Base-machine
    /// baseline cell per benchmark — the SMT-efficiency denominators, with
    /// the default run cycle budget — followed by one cell per
    /// `(axis, value, benchmark)` grid position carrying the sweep's own
    /// cycle budget.
    pub fn expand(request: &ServiceRequest) -> ClusterPlan {
        let mut cells = Vec::new();
        match request {
            ServiceRequest::Run(_) => {
                cells.push((CellRole::Single, request.clone()));
            }
            ServiceRequest::Sweep(s) => {
                for &bench in &s.cfg.benches {
                    let spec = MachineSpec::for_kind(DeviceKind::Base);
                    cells.push((
                        CellRole::Baseline { bench },
                        run_cell(spec, bench, s, RUN_MAX_CYCLE_FACTOR),
                    ));
                }
                for (a, axis) in s.cfg.axes.iter().enumerate() {
                    for (v, value) in axis.values.iter().enumerate() {
                        for &bench in &s.cfg.benches {
                            let mut spec = s.cfg.base.clone();
                            spec.set(&axis.path, value.clone())
                                .expect("sweep axes are validated at parse time");
                            cells.push((
                                CellRole::Grid {
                                    axis: a,
                                    value: v,
                                    bench,
                                },
                                run_cell(spec, bench, s, s.max_cycle_factor),
                            ));
                        }
                    }
                }
            }
        }
        ClusterPlan {
            request: request.clone(),
            cells: cells
                .into_iter()
                .enumerate()
                .map(|(index, (role, request))| {
                    let digest = request.digest();
                    ClusterCell {
                        index,
                        role,
                        request,
                        digest,
                    }
                })
                .collect(),
        }
    }

    /// The request this plan expands.
    pub fn request(&self) -> &ServiceRequest {
        &self.request
    }

    /// The distinct digests a coordinator must obtain results for
    /// (duplicate grid cells collapse onto one unit of work).
    pub fn distinct_digests(&self) -> Vec<&str> {
        let mut seen = Vec::new();
        for cell in &self.cells {
            if !seen.contains(&cell.digest.as_str()) {
                seen.push(cell.digest.as_str());
            }
        }
        seen
    }

    /// Folds per-cell result documents (keyed by cell digest) into the
    /// original request's result document — bitwise, regardless of who
    /// computed each cell or in what order the map was populated. A cell's
    /// efficiency is its thread-0 IPC over its benchmark's Base IPC, both
    /// recomputed from the integer `committed`/`cycles` pairs, and each
    /// row's mean is [`mean`] over its benchmarks in declared order.
    ///
    /// # Errors
    ///
    /// A message naming the missing or malformed cell digest.
    pub fn merge(&self, results: &HashMap<String, Json>) -> Result<Json, String> {
        let lookup = |digest: &str| {
            results
                .get(digest)
                .ok_or_else(|| format!("merge is missing the result for cell {digest}"))
        };
        let s = match &self.request {
            ServiceRequest::Run(_) => {
                let cell = &self.cells[0];
                return Ok(lookup(&cell.digest)?.clone());
            }
            ServiceRequest::Sweep(s) => s,
        };
        // Denominators first: one Base IPC per benchmark.
        let mut base_ipc: HashMap<Benchmark, f64> = HashMap::new();
        for cell in &self.cells {
            if let CellRole::Baseline { bench } = cell.role {
                base_ipc.insert(bench, ipc_of(lookup(&cell.digest)?, &cell.digest)?);
            }
        }
        // Grid cells in declarative order -> one row per (axis, value).
        let nb = s.cfg.benches.len();
        let mut effs: Vec<f64> = Vec::with_capacity(nb);
        let mut rows: Vec<SweepRow> = Vec::new();
        let mut summary = BTreeMap::new();
        for cell in &self.cells {
            let CellRole::Grid { axis, value, bench } = cell.role else {
                continue;
            };
            let denom = base_ipc[&bench];
            effs.push(ipc_of(lookup(&cell.digest)?, &cell.digest)? / denom);
            if effs.len() == nb {
                let ax = &s.cfg.axes[axis];
                let val = &ax.values[value];
                let m = mean(&effs);
                summary.insert(format!("{}={}", ax.path, val.encode()), m);
                let mut spec = s.cfg.base.clone();
                spec.set(&ax.path, val.clone())
                    .expect("sweep axes are validated at parse time");
                rows.push(SweepRow {
                    path: ax.path.clone(),
                    value: val.clone(),
                    effs: s.cfg.benches.iter().copied().zip(effs.drain(..)).collect(),
                    mean_eff: m,
                    spec,
                });
            }
        }
        let mut summary_json = Json::obj();
        for (k, v) in &summary {
            summary_json.set(k, Json::F64(*v));
        }
        Ok(Json::obj()
            .with("type", Json::Str("sweep".into()))
            .with("name", Json::Str(s.cfg.name.clone()))
            .with("summary", summary_json)
            .with(
                "sweep",
                Json::Arr(rows.iter().map(SweepRow::to_json).collect()),
            )
            .with("config", s.cfg.base.to_json()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmt_stats::json::parse;

    fn sweep_request() -> ServiceRequest {
        let doc = parse(
            r#"{"type": "sweep",
                "sweep": {"name": "tiny", "base": "SRT",
                          "benches": ["m88ksim", "ijpeg"],
                          "axes": [{"path": "core.sq_entries", "values": [16, 64]}]},
                "scale": {"warmup": 500, "measure": 2000}}"#,
        )
        .unwrap();
        ServiceRequest::from_json(&doc).unwrap()
    }

    #[test]
    fn expands_a_sweep_into_baselines_plus_grid_cells() {
        let plan = ClusterPlan::expand(&sweep_request());
        // 2 baselines + 2 values x 2 benches.
        assert_eq!(plan.cells.len(), 6);
        assert_eq!(
            plan.cells
                .iter()
                .filter(|c| matches!(c.role, CellRole::Baseline { .. }))
                .count(),
            2
        );
        // Every cell re-digests from its own canonical request, and the
        // digests are pairwise distinct here (distinct machines/benches).
        for cell in &plan.cells {
            assert_eq!(cell.digest, cell.request.digest());
            let reparsed = ServiceRequest::from_json(&cell.request.canonical_json()).unwrap();
            assert_eq!(reparsed.digest(), cell.digest);
        }
        assert_eq!(plan.distinct_digests().len(), 6);
        // Baseline cells run the Base machine with the run-default cycle
        // budget; grid cells carry the sweep's own budget.
        let ServiceRequest::Run(b) = &plan.cells[0].request else {
            panic!("baseline cell must be a run");
        };
        assert_eq!(b.spec.kind(), DeviceKind::Base);
        assert_eq!(b.max_cycle_factor, RUN_MAX_CYCLE_FACTOR);
        let ServiceRequest::Run(g) = &plan.cells[2].request else {
            panic!("grid cell must be a run");
        };
        assert_eq!(g.spec.kind(), DeviceKind::Srt);
        assert_eq!(g.max_cycle_factor, super::super::SWEEP_MAX_CYCLE_FACTOR);
    }

    #[test]
    fn a_run_request_expands_to_one_cell_and_merges_to_its_result() {
        let doc = parse(
            r#"{"type": "run", "spec": "SRT", "benches": ["m88ksim"],
                "scale": {"warmup": 500, "measure": 2000}}"#,
        )
        .unwrap();
        let req = ServiceRequest::from_json(&doc).unwrap();
        let plan = ClusterPlan::expand(&req);
        assert_eq!(plan.cells.len(), 1);
        assert_eq!(plan.cells[0].role, CellRole::Single);
        assert_eq!(plan.cells[0].digest, req.digest());
        let direct = req.execute(1, None).unwrap();
        let mut results = HashMap::new();
        results.insert(req.digest(), direct.clone());
        let merged = plan.merge(&results).unwrap();
        assert_eq!(merged.encode(), direct.encode());
    }

    #[test]
    fn merge_names_a_missing_cell() {
        let plan = ClusterPlan::expand(&sweep_request());
        let err = plan.merge(&HashMap::new()).unwrap_err();
        assert!(err.contains("missing the result"), "{err}");
        assert!(err.contains(&plan.cells[0].digest), "{err}");
    }
}
