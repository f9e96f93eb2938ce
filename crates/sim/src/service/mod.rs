//! Job-granular service entry points: a parsed, validated request that a
//! daemon can digest, queue, and execute.
//!
//! A [`ServiceRequest`] is either a single machine run or a declarative
//! sensitivity sweep, expressed as a JSON document. Parsing resolves every
//! shorthand (a device-kind name becomes the kind's full six-section spec,
//! a scale name becomes explicit warmup/measure/seed numbers), so the
//! [`ServiceRequest::canonical_json`] form is fully self-describing and
//! two spellings of the same machine produce the same
//! [`ServiceRequest::digest`] — the content address the `rmt-serve` result
//! cache keys on. The simulator is deterministic, so one digest maps to
//! exactly one result document, bitwise, forever.
//!
//! [`ServiceRequest::execute`] runs the request synchronously and returns
//! the result document. A run is [`RunRequest::run`] (typed), encoded as
//! a document only at this edge; a sweep runs as its [`ClusterPlan`]
//! through [`run_grid`] — the executor and efficiency fold every figure
//! table uses too — so one process, a fleet and a figure differ only in
//! who computes each cell. A [`ProgressSink`] can be attached for live job
//! progress (instructions committed for runs, grid cells completed for
//! sweeps); observation only — the result is bit-for-bit identical with
//! or without one.
//!
//! # Examples
//!
//! ```
//! use rmt_sim::service::ServiceRequest;
//!
//! let doc = rmt_stats::json::parse(
//!     r#"{"type": "run", "spec": "SRT", "benches": ["m88ksim"],
//!         "scale": {"warmup": 500, "measure": 2000}}"#,
//! )
//! .unwrap();
//! let req = ServiceRequest::from_json(&doc).unwrap();
//! let result = req.execute(1, None).unwrap();
//! assert_eq!(result.get("kind").unwrap().as_str(), Some("SRT"));
//! ```

pub mod plan;
pub mod sweep;

pub use plan::{run_grid, CellRole, ClusterCell, ClusterPlan, GridColumn, GridRun};
pub use sweep::{SweepAxis, SweepConfig};

use crate::experiment::{cycle_budget, Experiment, RunResult, SimError};
use crate::figures::SimScale;
use crate::runner::{ProgressSink, Runner};
use rmt_core::spec::{DeviceKind, MachineSpec};
use rmt_stats::Json;
use rmt_workloads::Benchmark;

/// Default cycle-budget multiplier for service runs — the same default an
/// [`Experiment`] carries, so a served run is bitwise identical to the
/// figure binaries' cells.
pub const RUN_MAX_CYCLE_FACTOR: u64 = 60;

/// Default cycle-budget multiplier for the grid cells of service sweeps:
/// generous, because axes deliberately visit starved configurations.
pub const SWEEP_MAX_CYCLE_FACTOR: u64 = 150;

/// One single-machine run: a resolved spec, benchmarks, and scale.
#[derive(Debug, Clone)]
pub struct RunRequest {
    /// The fully resolved machine.
    pub spec: MachineSpec,
    /// The logical threads to run.
    pub benches: Vec<Benchmark>,
    /// Warmup/measure/seed.
    pub scale: SimScale,
    /// Epoch width for time-series sampling (0 = off).
    pub epoch: u64,
    /// Cycle-budget multiplier.
    pub max_cycle_factor: u64,
}

/// One declarative sensitivity sweep (a `sweeps/*.json` file plus scale).
#[derive(Debug, Clone)]
pub struct SweepRequest {
    /// The validated sweep: base spec, benchmarks, axes.
    pub cfg: SweepConfig,
    /// Warmup/measure/seed per cell.
    pub scale: SimScale,
    /// Cycle-budget multiplier per cell.
    pub max_cycle_factor: u64,
}

/// A parsed, validated service request.
#[derive(Debug, Clone)]
pub enum ServiceRequest {
    /// `{"type": "run", ...}` — one machine, one result document.
    Run(RunRequest),
    /// `{"type": "sweep", ...}` — a sensitivity sweep document.
    Sweep(SweepRequest),
}

fn parse_benches(doc: &Json) -> Result<Vec<Benchmark>, String> {
    let list = doc
        .get("benches")
        .and_then(Json::as_array)
        .ok_or("request needs a `benches` array")?;
    if list.is_empty() {
        return Err("`benches` must not be empty".into());
    }
    list.iter()
        .map(|v| {
            let n = v.as_str().ok_or("`benches` entries must be strings")?;
            Benchmark::from_name(n).ok_or_else(|| format!("unknown benchmark `{n}` in `benches`"))
        })
        .collect()
}

/// `"scale"`: a name (`"quick"`/`"standard"`/`"full"`), an explicit
/// `{"warmup", "measure", "seed"?}` object (seed defaults to 1), or
/// absent (quick — the serving default keeps accidental unbounded
/// submissions cheap).
fn parse_scale(doc: &Json) -> Result<SimScale, String> {
    match doc.get("scale") {
        None => Ok(SimScale::quick()),
        Some(Json::Str(name)) => {
            SimScale::named(name).ok_or_else(|| format!("unknown scale name `{name}`"))
        }
        Some(obj) => {
            let members = obj.members().ok_or("`scale` must be a name or object")?;
            for (k, _) in members {
                if !matches!(k.as_str(), "warmup" | "measure" | "seed") {
                    return Err(format!("unknown key `scale.{k}`"));
                }
            }
            let field = |k: &str| obj.get(k).and_then(Json::as_u64);
            Ok(SimScale {
                warmup: field("warmup").ok_or("`scale.warmup` must be a u64")?,
                measure: field("measure")
                    .filter(|&n| n >= 1)
                    .ok_or("`scale.measure` must be a u64 >= 1")?,
                seed: match obj.get("seed") {
                    None => 1,
                    Some(_) => field("seed").ok_or("`scale.seed` must be a u64")?,
                },
            })
        }
    }
}

fn parse_u64_or(doc: &Json, key: &str, default: u64) -> Result<u64, String> {
    match doc.get(key) {
        None => Ok(default),
        Some(v) => v.as_u64().ok_or_else(|| format!("`{key}` must be a u64")),
    }
}

/// `"scale"` and `"max_cycle_factor"` (default `default_factor`),
/// rejecting a cycle budget that overflows a `u64` at that factor or at
/// the run default (a sweep's denominators run at it).
fn parse_budget(doc: &Json, default_factor: u64) -> Result<(SimScale, u64), String> {
    let scale = parse_scale(doc)?;
    let factor = parse_u64_or(doc, "max_cycle_factor", default_factor)?;
    let worst = factor.max(RUN_MAX_CYCLE_FACTOR);
    match cycle_budget(scale.warmup, scale.measure, worst) {
        Some(_) => Ok((scale, factor)),
        None => Err(format!(
            "`scale.warmup` + `scale.measure` times `max_cycle_factor` ({worst}) \
             overflows the cycle budget"
        )),
    }
}

/// The `key` (`"spec"` or `"base"`) machine field: a kind name or a full
/// document.
fn parse_spec(v: &Json, key: &str) -> Result<MachineSpec, String> {
    match v {
        Json::Str(kind_name) => {
            let kind = DeviceKind::from_name(kind_name)
                .ok_or_else(|| format!("unknown device kind `{kind_name}` in `{key}`"))?;
            Ok(MachineSpec::for_kind(kind))
        }
        spec_doc => MachineSpec::from_json(spec_doc).map_err(|e| e.to_string()),
    }
}

fn reject_unknown_keys(doc: &Json, allowed: &[&str]) -> Result<(), String> {
    for (k, _) in doc.members().ok_or("request must be a JSON object")? {
        if !allowed.contains(&k.as_str()) {
            return Err(format!("unknown request key `{k}`"));
        }
    }
    Ok(())
}

fn scale_json(scale: SimScale) -> Json {
    Json::obj()
        .with("warmup", Json::U64(scale.warmup))
        .with("measure", Json::U64(scale.measure))
        .with("seed", Json::U64(scale.seed))
}

impl ServiceRequest {
    /// Parses and validates a request document:
    ///
    /// ```json
    /// {"type": "run",
    ///  "spec": "SRT",                  // kind name or full spec document
    ///  "benches": ["m88ksim", "gcc"],
    ///  "scale": "quick",               // name or {warmup, measure, seed}
    ///  "epoch": 0,                     // optional time-series sampling
    ///  "max_cycle_factor": 60}         // optional cycle budget
    /// ```
    ///
    /// ```json
    /// {"type": "sweep",
    ///  "sweep": {"name": ..., "base": ..., "benches": ..., "axes": ...},
    ///  "scale": "quick",
    ///  "max_cycle_factor": 150}
    /// ```
    ///
    /// Unknown keys are rejected (a typo must not silently drop a knob and
    /// collide with a different request's digest), and so is a scale whose
    /// cycle budget overflows a `u64`.
    ///
    /// # Errors
    ///
    /// A message naming the offending key.
    pub fn from_json(doc: &Json) -> Result<ServiceRequest, String> {
        match doc.get("type").and_then(Json::as_str) {
            Some("run") => {
                reject_unknown_keys(
                    doc,
                    &[
                        "type",
                        "spec",
                        "benches",
                        "scale",
                        "epoch",
                        "max_cycle_factor",
                    ],
                )?;
                let spec =
                    parse_spec(doc.get("spec").ok_or("run request needs a `spec`")?, "spec")?;
                let (scale, max_cycle_factor) = parse_budget(doc, RUN_MAX_CYCLE_FACTOR)?;
                Ok(ServiceRequest::Run(RunRequest {
                    spec,
                    benches: parse_benches(doc)?,
                    scale,
                    epoch: parse_u64_or(doc, "epoch", 0)?,
                    max_cycle_factor,
                }))
            }
            Some("sweep") => {
                reject_unknown_keys(doc, &["type", "sweep", "scale", "max_cycle_factor"])?;
                let cfg = SweepConfig::from_json(
                    doc.get("sweep").ok_or("sweep request needs a `sweep`")?,
                )?;
                let (scale, max_cycle_factor) = parse_budget(doc, SWEEP_MAX_CYCLE_FACTOR)?;
                Ok(ServiceRequest::Sweep(SweepRequest {
                    cfg,
                    scale,
                    max_cycle_factor,
                }))
            }
            Some(other) => Err(format!("unknown request `type` `{other}`")),
            None => Err("request needs a string `type` (`run` or `sweep`)".into()),
        }
    }

    /// The fully resolved request document: every shorthand expanded, every
    /// default made explicit. Two requests denote the same work if and only
    /// if their canonical documents digest identically.
    pub fn canonical_json(&self) -> Json {
        match self {
            ServiceRequest::Run(r) => Json::obj()
                .with("type", Json::Str("run".into()))
                .with("spec", r.spec.to_json())
                .with(
                    "benches",
                    Json::Arr(
                        r.benches
                            .iter()
                            .map(|b| Json::Str(b.name().to_string()))
                            .collect(),
                    ),
                )
                .with("scale", scale_json(r.scale))
                .with("epoch", Json::U64(r.epoch))
                .with("max_cycle_factor", Json::U64(r.max_cycle_factor)),
            ServiceRequest::Sweep(s) => {
                let axes = Json::Arr(
                    s.cfg
                        .axes
                        .iter()
                        .map(|a| {
                            Json::obj()
                                .with("path", Json::Str(a.path.clone()))
                                .with("values", Json::Arr(a.values.clone()))
                        })
                        .collect(),
                );
                let sweep = Json::obj()
                    .with("name", Json::Str(s.cfg.name.clone()))
                    .with("base", s.cfg.base.to_json())
                    .with(
                        "benches",
                        Json::Arr(
                            s.cfg
                                .benches
                                .iter()
                                .map(|b| Json::Str(b.name().to_string()))
                                .collect(),
                        ),
                    )
                    .with("axes", axes);
                Json::obj()
                    .with("type", Json::Str("sweep".into()))
                    .with("sweep", sweep)
                    .with("scale", scale_json(s.scale))
                    .with("max_cycle_factor", Json::U64(s.max_cycle_factor))
            }
        }
    }

    /// The request's content address:
    /// [`rmt_stats::digest::digest`] over [`ServiceRequest::canonical_json`].
    pub fn digest(&self) -> String {
        rmt_stats::digest::digest(&self.canonical_json())
    }

    /// Executes the request and returns its result document. `jobs` bounds
    /// the worker threads a sweep fans its grid cells across (a single run
    /// is one simulation regardless). A sweep expands into its
    /// [`ClusterPlan`] and runs through [`run_grid`]. The optional
    /// [`ProgressSink`] receives `(instructions committed, warmup +
    /// measure)` for runs and `(grid cells done, distinct grid cells)` for
    /// sweeps.
    ///
    /// Deterministic: the document is bitwise identical for any `jobs`
    /// value, with or without a sink — the property that makes the result
    /// cacheable under [`ServiceRequest::digest`].
    ///
    /// # Errors
    ///
    /// A message describing the simulation failure (cycle-budget timeout);
    /// for a sweep, it names the digest of the failing cell.
    pub fn execute(&self, jobs: usize, progress: Option<ProgressSink>) -> Result<Json, String> {
        match self {
            ServiceRequest::Run(r) => r.run(progress).map(run_document).map_err(|e| e.to_string()),
            ServiceRequest::Sweep(s) => {
                let plan = ClusterPlan::expand(self);
                let mut runner = Runner::new(jobs);
                runner.set_hook(progress);
                let effs: Vec<f64> = run_grid(&plan, &runner)?
                    .cells
                    .into_iter()
                    .map(|(eff, ..)| eff)
                    .collect();
                Ok(plan.sweep_document(s, &effs))
            }
        }
    }
}

impl RunRequest {
    /// Runs the simulation; the optional [`ProgressSink`] receives
    /// `(instructions committed, warmup + measure)`.
    ///
    /// # Errors
    ///
    /// The [`SimError`] of the run (a cycle-budget timeout).
    pub fn run(&self, progress: Option<ProgressSink>) -> Result<RunResult, SimError> {
        let mut e = Experiment::from_spec(self.spec.clone())
            .benchmarks(&self.benches)
            .seed(self.scale.seed)
            .warmup(self.scale.warmup)
            .measure(self.scale.measure)
            .max_cycle_factor(self.max_cycle_factor)
            .epoch(self.epoch);
        if let Some(sink) = progress {
            e = e.with_progress(sink);
        }
        e.run()
    }
}

/// A run's result document: what the daemon caches and a fleet merges.
fn run_document(out: RunResult) -> Json {
    let per_thread = Json::Arr(
        out.per_thread
            .iter()
            .map(|t| {
                Json::obj()
                    .with("benchmark", Json::Str(t.benchmark.name().to_string()))
                    .with("committed", Json::U64(t.committed))
                    .with("cycles", Json::U64(t.cycles))
                    .with("ipc", Json::F64(t.ipc()))
            })
            .collect(),
    );
    Json::obj()
        .with("type", Json::Str("run".into()))
        .with("kind", Json::Str(out.kind.name().to_string()))
        .with("cycles", Json::U64(out.cycles))
        .with("per_thread", per_thread)
        .with("faults_detected", Json::U64(out.faults_detected as u64))
        .with("metrics", out.metrics.to_json())
        .with("timeseries", out.timeseries.to_json())
        .with("config", out.config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmt_stats::json::parse;

    fn run_doc() -> Json {
        parse(
            r#"{"type": "run", "spec": "SRT", "benches": ["m88ksim"],
                "scale": {"warmup": 500, "measure": 2000, "seed": 3}}"#,
        )
        .unwrap()
    }

    #[test]
    fn parses_and_resolves_a_run_request() {
        let req = ServiceRequest::from_json(&run_doc()).unwrap();
        let ServiceRequest::Run(r) = &req else {
            panic!("expected a run request");
        };
        assert_eq!(r.spec.kind(), DeviceKind::Srt);
        assert_eq!(r.benches, vec![Benchmark::M88ksim]);
        assert_eq!(r.scale.seed, 3);
        assert_eq!(r.epoch, 0);
        assert_eq!(r.max_cycle_factor, RUN_MAX_CYCLE_FACTOR);
        // The canonical form is fully explicit and reparses to the same
        // request (same digest).
        let canon = req.canonical_json();
        assert_eq!(canon.get("epoch").unwrap().as_u64(), Some(0));
        let again = ServiceRequest::from_json(&canon).unwrap();
        assert_eq!(again.digest(), req.digest());
    }

    #[test]
    fn kind_name_and_full_spec_share_a_digest() {
        let by_name = ServiceRequest::from_json(&run_doc()).unwrap();
        let mut doc = run_doc();
        doc.set("spec", MachineSpec::for_kind(DeviceKind::Srt).to_json());
        let by_spec = ServiceRequest::from_json(&doc).unwrap();
        assert_eq!(by_name.digest(), by_spec.digest());
        // Any machine difference splits the digest.
        let mut spec = MachineSpec::for_kind(DeviceKind::Srt);
        spec.set("core.sq_entries", Json::U64(16)).unwrap();
        doc.set("spec", spec.to_json());
        let tweaked = ServiceRequest::from_json(&doc).unwrap();
        assert_ne!(by_name.digest(), tweaked.digest());
    }

    #[test]
    fn scale_names_resolve_to_explicit_numbers() {
        let mut doc = run_doc();
        doc.set("scale", Json::Str("quick".into()));
        let named = ServiceRequest::from_json(&doc).unwrap();
        doc.set(
            "scale",
            parse(r#"{"warmup": 2000, "measure": 10000, "seed": 1}"#).unwrap(),
        );
        let explicit = ServiceRequest::from_json(&doc).unwrap();
        assert_eq!(named.digest(), explicit.digest());
        // Absent scale is the quick default.
        let bare = parse(r#"{"type": "run", "spec": "SRT", "benches": ["m88ksim"]}"#).unwrap();
        assert_eq!(
            ServiceRequest::from_json(&bare).unwrap().digest(),
            named.digest()
        );
    }

    #[test]
    fn rejects_malformed_requests_by_name() {
        let reject = |json: &str, needle: &str| {
            let err = ServiceRequest::from_json(&parse(json).unwrap()).unwrap_err();
            assert!(err.contains(needle), "`{err}` does not name `{needle}`");
        };
        reject(r#"{"spec": "SRT"}"#, "type");
        reject(r#"{"type": "walk"}"#, "walk");
        reject(r#"{"type": "run", "benches": ["m88ksim"]}"#, "spec");
        reject(
            r#"{"type": "run", "spec": "NotAKind", "benches": ["gcc"]}"#,
            "NotAKind",
        );
        reject(
            r#"{"type": "run", "spec": "SRT", "benches": []}"#,
            "benches",
        );
        reject(
            r#"{"type": "run", "spec": "SRT", "benches": ["quake"]}"#,
            "quake",
        );
        reject(
            r#"{"type": "run", "spec": "SRT", "benches": ["gcc"], "scale": "warp"}"#,
            "warp",
        );
        reject(
            r#"{"type": "run", "spec": "SRT", "benches": ["gcc"], "scale": {"warmup": 1}}"#,
            "scale.measure",
        );
        reject(
            r#"{"type": "run", "spec": "SRT", "benches": ["gcc"], "speed": 9}"#,
            "speed",
        );
        reject(r#"{"type": "sweep"}"#, "sweep");
        // Cycle budgets that overflow a u64, including a sweep's
        // denominators, which run at the run default factor.
        reject(
            r#"{"type": "run", "spec": "SRT", "benches": ["gcc"],
                "scale": {"warmup": 18446744073709551615, "measure": 1}}"#,
            "scale.warmup",
        );
        reject(
            r#"{"type": "sweep", "max_cycle_factor": 1,
                "sweep": {"name": "x", "base": "SRT", "benches": ["gcc"],
                          "axes": [{"path": "core.sq_entries", "values": [16]}]},
                "scale": {"warmup": 1000000000000000000, "measure": 1}}"#,
            "max_cycle_factor",
        );
    }

    #[test]
    fn executes_a_run_bitwise_identical_to_the_direct_experiment() {
        let req = ServiceRequest::from_json(&run_doc()).unwrap();
        let served = req.execute(1, None).unwrap();
        let direct = Experiment::new(DeviceKind::Srt)
            .benchmark(Benchmark::M88ksim)
            .seed(3)
            .warmup(500)
            .measure(2_000)
            .run()
            .unwrap();
        assert_eq!(served.get("cycles").unwrap().as_u64(), Some(direct.cycles));
        assert_eq!(
            served.get("metrics").unwrap().encode(),
            direct.metrics.to_json().encode(),
            "served metrics must be bitwise identical to the direct run"
        );
        assert_eq!(
            served.get("config").unwrap().encode(),
            direct.config.encode()
        );
        // And deterministic across repeated executions and job counts.
        assert_eq!(served.encode(), req.execute(4, None).unwrap().encode());
    }

    #[test]
    fn executes_a_sweep_with_cell_progress() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let doc = parse(
            r#"{"type": "sweep",
                "sweep": {"name": "tiny", "base": "SRT", "benches": ["m88ksim"],
                          "axes": [{"path": "core.sq_entries", "values": [16, 64]}]},
                "scale": {"warmup": 500, "measure": 2000}}"#,
        )
        .unwrap();
        let req = ServiceRequest::from_json(&doc).unwrap();
        let cells = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&cells);
        let sink = ProgressSink::new(move |done, total| {
            // Two grid cells; the denominator rides inside one of them.
            assert!(done <= total && total == 2);
            c.fetch_max(done, Ordering::Relaxed);
        });
        let out = req.execute(2, Some(sink)).unwrap();
        assert_eq!(cells.load(Ordering::Relaxed), 2, "sweep progress");
        assert_eq!(out.get("sweep").unwrap().as_array().unwrap().len(), 2);
        assert!(out
            .get("summary")
            .unwrap()
            .get("core.sq_entries=16")
            .is_some());
        // Sweep results are `jobs`-invariant like everything else.
        assert_eq!(out.encode(), req.execute(1, None).unwrap().encode());
    }
}
