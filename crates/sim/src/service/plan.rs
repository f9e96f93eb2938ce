//! The one grid path: plan, execute, fold.
//!
//! Every efficiency the paper reports is §6.4's SMT efficiency: a
//! thread's IPC over its IPC alone on the Base machine. Every grid of
//! them — a figure table or a declarative sweep — is a [`ClusterPlan`]:
//! benchmark-mix rows × [`GridColumn`]s (a whole spec plus a cycle
//! budget), one content-addressed run request per cell, after one Base
//! denominator cell per distinct benchmark. The denominator is the Base
//! machine with the grid's machine edits replayed (`scheme.kind`
//! skipped): a figure's `--set`/`--config` overrides, or a sweep base's
//! diff from its kind's default spec.
//!
//! [`run_grid`] runs a plan's distinct grid cells on a local [`Runner`]
//! (figure tables and [`ServiceRequest::execute`]); the `rmt-cluster`
//! coordinator has workers compute every cell and [`ClusterPlan::merge`]
//! their documents. Both fold with one function, keyed by digest in grid
//! order, so results are bitwise independent of who computed each cell
//! and how — asserted here, in the cluster crate and against direct
//! [`Experiment`](crate::Experiment) runs in the root `tests/`.

use super::{RunRequest, ServiceRequest, SweepRequest, RUN_MAX_CYCLE_FACTOR};
use crate::figures::SimScale;
use crate::outcome::RunResult;
use crate::runner::Runner;
use rmt_core::spec::{DeviceKind, MachineSpec};
use rmt_stats::metrics::{mean, smt_efficiency};
use rmt_stats::{Json, MetricsSnapshot, TimeSeries};
use rmt_workloads::Benchmark;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, OnceLock};

/// What one expanded cell contributes to the merged document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellRole {
    /// The whole request was a single run; the cell's result *is* the
    /// merged document.
    Single,
    /// A single-thread Base-machine run — the SMT-efficiency denominator
    /// for `bench` (shared by every grid row that runs it).
    Baseline {
        /// The benchmark whose denominator this cell computes.
        bench: Benchmark,
    },
    /// Grid row `row` (a benchmark mix) on column `col`.
    Grid {
        /// Row index.
        row: usize,
        /// Column index.
        col: usize,
    },
}

/// One grid column: the machine every row runs on, and its cycle-budget
/// multiplier.
#[derive(Debug, Clone)]
pub struct GridColumn {
    /// The fully resolved machine.
    pub spec: MachineSpec,
    /// Cycle-budget multiplier for this column's cells.
    pub max_cycle_factor: u64,
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

impl ClusterCell {
    fn run_request(&self) -> &RunRequest {
        match &self.request {
            ServiceRequest::Run(r) => r,
            ServiceRequest::Sweep(_) => unreachable!("plan cells are always runs"),
        }
    }

    fn run(&self) -> Result<RunResult, String> {
        self.run_request()
            .run(None)
            .map_err(|e| format!("cell {}: {e}", self.digest))
    }
}

/// An expanded grid: its dispatchable cells, and the request (if any)
/// they merge back into.
///
/// Two cells may share a digest (e.g. an axis listing the same value
/// twice); a coordinator should deduplicate *work* by digest while the
/// merge looks results up by digest, so duplicates cost nothing.
#[derive(Debug, Clone)]
pub struct ClusterPlan {
    /// The expanded service request (`None` for a figure's grid, which
    /// folds locally and has no merged document).
    request: Option<ServiceRequest>,
    /// The cells: the Base denominators, then the grid cells in the
    /// plan's order.
    pub cells: Vec<ClusterCell>,
}

/// Replays key-path `edits` onto `spec` in order, skipping `scheme.kind`
/// (the caller owns the device kind).
///
/// # Panics
///
/// On an unknown key path or ill-typed value (every caller validates its
/// edits against a spec first).
pub(crate) fn replay(spec: &mut MachineSpec, edits: &[(String, Json)]) {
    for (path, v) in edits {
        if path == "scheme.kind" {
            continue;
        }
        if let Err(e) = spec.set(path, v.clone()) {
            panic!("machine override failed: {e}");
        }
    }
}

/// §6.4's SMT efficiency of one grid cell: each thread's IPC over its
/// benchmark's Base IPC, averaged over the row ([`smt_efficiency`]). The
/// one fold: [`run_grid`] applies it to local results and
/// [`ClusterPlan::merge`] to fleet documents. For one thread it is
/// exactly `ipc / base` (`0.0 + x == x` and `x / 1.0 == x`).
fn fold(ipcs: &[f64], base: &[f64]) -> f64 {
    let pairs: Vec<(f64, f64)> = ipcs.iter().copied().zip(base.iter().copied()).collect();
    smt_efficiency(&pairs)
}

/// Per-thread IPCs of a run result document, recomputed from the exact
/// integers the simulator reported — the same `committed / cycles`
/// division [`ThreadOutcome::ipc`](crate::outcome::ThreadOutcome::ipc)
/// performs, so the values are bitwise identical to an in-process run.
fn ipcs_of(result: &Json, digest: &str) -> Result<Vec<f64>, String> {
    let threads = result
        .get("per_thread")
        .and_then(Json::as_array)
        .filter(|t| !t.is_empty())
        .ok_or_else(|| format!("cell {digest}: result lacks `per_thread[0]`"))?;
    let ipc = |(i, t): (usize, &Json)| {
        let field = |k: &str| {
            t.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("cell {digest}: `per_thread[{i}].{k}` is not a u64"))
        };
        let (committed, cycles) = (field("committed")?, field("cycles")?);
        Ok(if cycles == 0 {
            0.0
        } else {
            committed as f64 / cycles as f64
        })
    };
    threads.iter().enumerate().map(ipc).collect()
}

impl ClusterPlan {
    /// Expands a request into its dispatchable cells.
    ///
    /// A **run** request is one cell (a single simulation is already the
    /// unit of work). A **sweep** request is a grid of one row per
    /// benchmark and one column per `(axis, value)` — the base with that
    /// one key edited, at the sweep's cycle budget — laid out after the
    /// denominators axis-major, then value, benchmark innermost.
    pub fn expand(request: &ServiceRequest) -> ClusterPlan {
        let ServiceRequest::Sweep(s) = request else {
            let cell = ClusterCell {
                index: 0,
                role: CellRole::Single,
                request: request.clone(),
                digest: request.digest(),
            };
            return ClusterPlan {
                request: Some(request.clone()),
                cells: vec![cell],
            };
        };
        let base = &s.cfg.base;
        let columns = s.cfg.axes.iter().flat_map(|axis| {
            axis.values.iter().map(|value| {
                let mut spec = base.clone();
                spec.set(&axis.path, value.clone())
                    .expect("sweep axes are validated at parse time");
                GridColumn {
                    spec,
                    max_cycle_factor: s.max_cycle_factor,
                }
            })
        });
        let cols: Vec<GridColumn> = columns.collect();
        let rows: Vec<Vec<Benchmark>> = s.cfg.benches.iter().map(|&b| vec![b]).collect();
        let edits = base.diff(&MachineSpec::for_kind(base.kind()));
        let mut plan = ClusterPlan::grid(&rows, &cols, &edits, s.scale, 0);
        // Column-major: the (stable) sort keeps the denominators first.
        plan.cells.sort_by_key(|c| match c.role {
            CellRole::Grid { row, col } => (1, col, row),
            _ => (0, 0, 0),
        });
        for (index, cell) in plan.cells.iter_mut().enumerate() {
            cell.index = index;
        }
        plan.request = Some(request.clone());
        plan
    }

    /// A figure table's grid: `rows` (benchmark mixes) × `cols`, row-major
    /// with the column innermost, every grid cell at `scale` with epoch
    /// sampling `epoch` (0 = off), dividing by the Base machine with the
    /// figure's machine overrides `edits` replayed.
    pub fn grid(
        rows: &[Vec<Benchmark>],
        cols: &[GridColumn],
        edits: &[(String, Json)],
        scale: SimScale,
        epoch: u64,
    ) -> ClusterPlan {
        let mut benches: Vec<Benchmark> = Vec::new();
        for &b in rows.iter().flatten() {
            if !benches.contains(&b) {
                benches.push(b);
            }
        }
        let mut base = MachineSpec::for_kind(DeviceKind::Base);
        replay(&mut base, edits);
        let run = |spec: &MachineSpec, benches, epoch, max_cycle_factor| {
            ServiceRequest::Run(RunRequest {
                spec: spec.clone(),
                benches,
                scale,
                epoch,
                max_cycle_factor,
            })
        };
        let baselines = benches.into_iter().map(|bench| {
            let request = run(&base, vec![bench], 0, RUN_MAX_CYCLE_FACTOR);
            (CellRole::Baseline { bench }, request)
        });
        let positions = (0..rows.len()).flat_map(|r| (0..cols.len()).map(move |c| (r, c)));
        let grid = positions.map(|(row, col)| {
            let c = &cols[col];
            let request = run(&c.spec, rows[row].clone(), epoch, c.max_cycle_factor);
            (CellRole::Grid { row, col }, request)
        });
        let cells = baselines
            .chain(grid)
            .enumerate()
            .map(|(index, (role, request))| ClusterCell {
                index,
                role,
                digest: request.digest(),
                request,
            })
            .collect();
        ClusterPlan {
            request: None,
            cells,
        }
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

    fn grid_cells(&self) -> Vec<&ClusterCell> {
        let grid = |c: &&ClusterCell| matches!(c.role, CellRole::Grid { .. });
        self.cells.iter().filter(grid).collect()
    }

    fn baselines(&self) -> HashMap<Benchmark, &ClusterCell> {
        self.cells
            .iter()
            .filter_map(|c| match c.role {
                CellRole::Baseline { bench } => Some((bench, c)),
                _ => None,
            })
            .collect()
    }

    /// Folds per-cell result documents (keyed by cell digest) into the
    /// original request's result document — bitwise, regardless of who
    /// computed each cell or in what order the map was populated. Each
    /// grid cell's efficiency is the same fold of IPCs recomputed from the
    /// integer `committed`/`cycles` pairs.
    ///
    /// # Errors
    ///
    /// A message naming the missing or malformed cell digest, or saying
    /// that a figure's grid has no merged document.
    pub fn merge(&self, results: &HashMap<String, Json>) -> Result<Json, String> {
        let lookup = |digest: &str| {
            results
                .get(digest)
                .ok_or_else(|| format!("merge is missing the result for cell {digest}"))
        };
        let ipcs = |cell: &ClusterCell| ipcs_of(lookup(&cell.digest)?, &cell.digest);
        let s = match &self.request {
            Some(ServiceRequest::Run(_)) => return lookup(&self.cells[0].digest).cloned(),
            Some(ServiceRequest::Sweep(s)) => s,
            None => return Err("a figure's grid folds locally; it has no merged document".into()),
        };
        // Name the first missing cell in plan order, not in map order.
        for cell in &self.cells {
            lookup(&cell.digest)?;
        }
        let base_ipc = self
            .baselines()
            .into_iter()
            .map(|(b, cell)| Ok((b, ipcs(cell)?[0])))
            .collect::<Result<HashMap<_, _>, String>>()?;
        let effs = self
            .grid_cells()
            .into_iter()
            .map(|cell| {
                let base: Vec<f64> = cell
                    .run_request()
                    .benches
                    .iter()
                    .map(|b| base_ipc[b])
                    .collect();
                Ok(fold(&ipcs(cell)?, &base))
            })
            .collect::<Result<Vec<f64>, String>>()?;
        Ok(self.sweep_document(s, &effs))
    }

    /// A sweep's result document from its grid cells' efficiencies, in
    /// plan order. Each `(axis, value)` column becomes one row of
    /// `"sweep"` —
    /// `{"path", "value", "effs": {bench: eff}, "mean_eff", "config"}`
    /// with the resolved spec the column ran — and one
    /// `"path=value": mean_eff` entry of `"summary"`.
    pub(super) fn sweep_document(&self, s: &SweepRequest, effs: &[f64]) -> Json {
        let nb = s.cfg.benches.len();
        let columns = s
            .cfg
            .axes
            .iter()
            .flat_map(|ax| ax.values.iter().map(move |v| (ax, v)));
        let mut summary = BTreeMap::new();
        let mut rows = Vec::new();
        let chunks = self
            .grid_cells()
            .into_iter()
            .step_by(nb)
            .zip(effs.chunks(nb));
        for ((ax, value), (cell, col)) in columns.zip(chunks) {
            let m = mean(col);
            summary.insert(format!("{}={}", ax.path, value.encode()), m);
            let mut per_bench = Json::obj();
            for (b, &e) in s.cfg.benches.iter().zip(col) {
                per_bench.set(b.name(), Json::F64(e));
            }
            rows.push(
                Json::obj()
                    .with("path", Json::Str(ax.path.clone()))
                    .with("value", value.clone())
                    .with("effs", per_bench)
                    .with("mean_eff", Json::F64(m))
                    .with("config", cell.run_request().spec.to_json()),
            );
        }
        let mut summary_json = Json::obj();
        for (k, v) in summary {
            summary_json.set(&k, Json::F64(v));
        }
        Json::obj()
            .with("type", Json::Str("sweep".into()))
            .with("name", Json::Str(s.cfg.name.clone()))
            .with("summary", summary_json)
            .with("sweep", Json::Arr(rows))
            .with("config", s.cfg.base.to_json())
    }
}

#[cfg(test)]
thread_local! {
    /// Base denominators the memo has simulated on this thread.
    pub(crate) static BASELINE_RUNS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Base IPCs by denominator digest. The first caller of a digest
/// simulates it — or seeds it from a grid cell that ran the very same
/// request — and later callers block on its cell rather than recompute,
/// so every caller observes the same bits.
#[derive(Default)]
struct Memo(Mutex<HashMap<String, Arc<Slot>>>);

type Slot = OnceLock<Result<f64, String>>;

impl Memo {
    fn ipc(&self, cell: &ClusterCell, seed: Option<f64>) -> Result<f64, String> {
        // The map lock is released before simulating, so misses on
        // distinct digests run in parallel.
        let slot = {
            let mut map = self.0.lock().expect("baseline memo poisoned");
            Arc::clone(map.entry(cell.digest.clone()).or_default())
        };
        let compute = || match seed {
            Some(ipc) => Ok(ipc),
            None => {
                #[cfg(test)]
                BASELINE_RUNS.with(|n| n.set(n.get() + 1));
                cell.run().map(|r| r.ipc(0))
            }
        };
        slot.get_or_init(compute).clone()
    }
}

/// A grid's local results.
#[derive(Debug)]
pub struct GridRun {
    /// Per grid cell, in plan order: its SMT efficiency and its run's
    /// metric snapshot and time series.
    pub cells: Vec<(f64, MetricsSnapshot, TimeSeries)>,
    /// The Base IPC each benchmark's cells were divided by.
    pub base_ipc: HashMap<Benchmark, f64>,
}

/// Runs `plan`'s distinct grid cells on `runner`, one job per cell in
/// plan order, crediting each cell's cycles to the runner and folding it
/// into its SMT efficiency. Every Base denominator is simulated once,
/// inside the first job that needs it — never as a job of its own.
/// Bitwise identical at any worker count.
///
/// # Errors
///
/// A message naming the digest of the first failing cell in plan order.
pub fn run_grid(plan: &ClusterPlan, runner: &Runner) -> Result<GridRun, String> {
    let (baselines, grid) = (plan.baselines(), plan.grid_cells());
    let mut units: Vec<&ClusterCell> = Vec::new();
    for &cell in &grid {
        if units.iter().all(|u| u.digest != cell.digest) {
            units.push(cell);
        }
    }
    let memo = Memo::default();
    let outs = runner.run(units.len(), |i| {
        let cell = units[i];
        let r = cell.run()?;
        runner.add_sim_cycles(r.cycles);
        if let Some(b) = baselines.values().find(|b| b.digest == cell.digest) {
            memo.ipc(b, Some(r.ipc(0)))?;
        }
        let benches = &cell.run_request().benches;
        let base: Vec<f64> = benches
            .iter()
            .map(|b| memo.ipc(baselines[b], None))
            .collect::<Result<_, _>>()?;
        let ipcs: Vec<f64> = r.per_thread.iter().map(|t| t.ipc()).collect();
        let eff = fold(&ipcs, &base);
        Ok((cell.digest.as_str(), (eff, r.metrics, r.timeseries)))
    });
    let mut results = outs
        .into_iter()
        .collect::<Result<HashMap<_, _>, String>>()?;
    // A duplicated cell gets a copy; its last occurrence takes the result.
    let cells = grid
        .iter()
        .enumerate()
        .map(
            |(i, c)| match grid[i + 1..].iter().any(|g| g.digest == c.digest) {
                true => results[c.digest.as_str()].clone(),
                false => results.remove(c.digest.as_str()).expect("every unit ran"),
            },
        )
        .collect();
    let base_ipc = baselines
        .into_iter()
        .map(|(b, cell)| Ok((b, memo.ipc(cell, None)?)))
        .collect::<Result<_, String>>()?;
    Ok(GridRun { cells, base_ipc })
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
        // 2 baselines + 2 values x 2 benches, value-major.
        assert_eq!(plan.cells.len(), 6);
        assert_eq!(
            plan.cells
                .iter()
                .filter(|c| matches!(c.role, CellRole::Baseline { .. }))
                .count(),
            2
        );
        assert_eq!(plan.cells[3].role, CellRole::Grid { row: 1, col: 0 });
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
        let b = plan.cells[0].run_request();
        assert_eq!(b.spec.kind(), DeviceKind::Base);
        assert_eq!(b.max_cycle_factor, RUN_MAX_CYCLE_FACTOR);
        let g = plan.cells[2].run_request();
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

    #[test]
    fn the_memo_simulates_a_digest_once_and_never_a_seeded_one() {
        let runs = || BASELINE_RUNS.with(|n| n.get());
        let cell = ClusterPlan::expand(&sweep_request()).cells.swap_remove(0);
        let (memo, before) = (Memo::default(), runs());
        let a = memo.ipc(&cell, None).unwrap();
        assert_eq!(memo.ipc(&cell, None).unwrap().to_bits(), a.to_bits());
        assert_eq!(runs() - before, 1);
        assert!(a > 0.0);
        let seeded = Memo::default();
        assert_eq!(seeded.ipc(&cell, Some(1.5)), Ok(1.5));
        assert_eq!(seeded.ipc(&cell, None), Ok(1.5));
        assert_eq!(runs() - before, 1);
    }

    #[test]
    fn concurrent_misses_on_one_digest_simulate_it_once() {
        let cell = ClusterPlan::expand(&sweep_request()).cells.swap_remove(0);
        let memo = Memo::default();
        // Each job reports the simulations its own thread performed.
        let out = Runner::new(4).run(8, |_| {
            let before = BASELINE_RUNS.with(|n| n.get());
            let ipc = memo.ipc(&cell, None).unwrap();
            (ipc.to_bits(), BASELINE_RUNS.with(|n| n.get()) - before)
        });
        assert_eq!(out.iter().map(|o| o.1).sum::<usize>(), 1);
        assert!(out.windows(2).all(|w| w[0].0 == w[1].0));
    }
}
