//! Declarative sensitivity sweeps: a sweep file names a base machine
//! spec, one or more axes of dotted key paths, and a value list per axis;
//! the driver fans every `(axis value, benchmark)` cell through the
//! deterministic runner and reports SMT efficiency per cell against the
//! shared Base denominators.
//!
//! Each axis is swept *independently* from the base spec (one knob moves
//! at a time — the paper's sensitivity-study style, e.g. the slack-fetch
//! and store-queue curves behind §4.2/§4.4), and every row records the
//! fully resolved [`MachineSpec`] it ran, so a result file is
//! self-describing.

use super::{FigureCtx, FigureResult, SimScale};
use crate::experiment::Experiment;
use rmt_core::spec::{DeviceKind, MachineSpec};
use rmt_stats::metrics::mean;
use rmt_stats::table::fmt3;
use rmt_stats::{Json, Table};
use rmt_workloads::profile::ALL_BENCHMARKS;
use rmt_workloads::Benchmark;
use std::collections::BTreeMap;

/// One sweep axis: a dotted spec key path and the values to try.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepAxis {
    /// Dotted key path into the machine spec (`"core.sq_entries"`).
    pub path: String,
    /// Values to assign, in sweep order.
    pub values: Vec<Json>,
}

/// A parsed sweep file: base machine, benchmarks, axes.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepConfig {
    /// Sweep name (titles the output document).
    pub name: String,
    /// The spec every axis starts from.
    pub base: MachineSpec,
    /// Benchmarks each cell runs (single-benchmark rows).
    pub benches: Vec<Benchmark>,
    /// The axes, swept independently from `base`.
    pub axes: Vec<SweepAxis>,
}

impl SweepConfig {
    /// Parses a sweep document:
    ///
    /// ```json
    /// {
    ///   "name": "slack_sq",
    ///   "base": "SRT",
    ///   "benches": ["gcc", "go"],
    ///   "axes": [
    ///     {"path": "env.lvq_entries", "values": [8, 16, 32]}
    ///   ]
    /// }
    /// ```
    ///
    /// `base` is either a [`DeviceKind`] name (the kind's default spec)
    /// or a full six-section spec document. Every axis path/value pair is
    /// validated against the base spec up front, so a bad sweep file
    /// fails before any simulation runs.
    ///
    /// # Errors
    ///
    /// A message naming the offending key.
    pub fn from_json(doc: &Json) -> Result<SweepConfig, String> {
        let name = doc
            .get("name")
            .and_then(Json::as_str)
            .ok_or("sweep file needs a string `name`")?
            .to_string();
        let base = match doc.get("base") {
            Some(Json::Str(kind_name)) => {
                let kind = DeviceKind::from_name(kind_name)
                    .ok_or_else(|| format!("unknown device kind `{kind_name}` in `base`"))?;
                MachineSpec::for_kind(kind)
            }
            Some(spec_doc) => MachineSpec::from_json(spec_doc).map_err(|e| e.to_string())?,
            None => return Err("sweep file needs a `base` (kind name or spec document)".into()),
        };
        let benches = match doc.get("benches").and_then(Json::as_array) {
            Some(list) => list
                .iter()
                .map(|v| {
                    let n = v.as_str().ok_or("`benches` entries must be strings")?;
                    ALL_BENCHMARKS
                        .iter()
                        .copied()
                        .find(|b| b.name() == n)
                        .ok_or_else(|| format!("unknown benchmark `{n}` in `benches`"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            None => return Err("sweep file needs a `benches` array".into()),
        };
        let axes = match doc.get("axes").and_then(Json::as_array) {
            Some(list) if !list.is_empty() => list
                .iter()
                .map(|a| {
                    let path = a
                        .get("path")
                        .and_then(Json::as_str)
                        .ok_or("each axis needs a string `path`")?
                        .to_string();
                    let values = a
                        .get("values")
                        .and_then(Json::as_array)
                        .ok_or("each axis needs a `values` array")?
                        .to_vec();
                    if values.is_empty() {
                        return Err(format!("axis `{path}` has no values"));
                    }
                    // Validate every cell's override against the base spec
                    // now, not in a worker thread mid-sweep.
                    for v in &values {
                        let mut probe = base.clone();
                        probe.set(&path, v.clone()).map_err(|e| e.to_string())?;
                    }
                    Ok(SweepAxis { path, values })
                })
                .collect::<Result<Vec<_>, String>>()?,
            _ => return Err("sweep file needs a non-empty `axes` array".into()),
        };
        Ok(SweepConfig {
            name,
            base,
            benches,
            axes,
        })
    }
}

/// One sweep cell's outcome: which knob was set to what, the per-benchmark
/// efficiencies, and the fully resolved spec the cell ran.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// The axis key path.
    pub path: String,
    /// The value this row assigned to it.
    pub value: Json,
    /// `(benchmark, SMT efficiency)` per benchmark.
    pub effs: Vec<(Benchmark, f64)>,
    /// Mean efficiency across the benchmarks.
    pub mean_eff: f64,
    /// The resolved machine spec of this row's runs.
    pub spec: MachineSpec,
}

impl SweepRow {
    /// The row's JSON form — the element schema of the `"sweep"` array in
    /// sweep result documents (the `sweep` binary and the serving layer
    /// emit the same shape):
    ///
    /// ```json
    /// {"path": "core.sq_entries", "value": 16,
    ///  "effs": {"gcc": 0.91}, "mean_eff": 0.91, "config": {...}}
    /// ```
    pub fn to_json(&self) -> Json {
        let mut effs = Json::obj();
        for (b, e) in &self.effs {
            effs.set(b.name(), Json::F64(*e));
        }
        Json::obj()
            .with("path", Json::Str(self.path.clone()))
            .with("value", self.value.clone())
            .with("effs", effs)
            .with("mean_eff", Json::F64(self.mean_eff))
            .with("config", self.spec.to_json())
    }
}

/// Runs the sweep: every `(axis, value, benchmark)` cell is one job on
/// the context's runner (bench-innermost, axis-major — a fixed order, so
/// results are bitwise identical at any `--jobs` level). Efficiency is
/// taken against the shared Base denominators, exactly like the ablation
/// figures. Returns the printable figure plus one [`SweepRow`] per
/// `(axis, value)` with its resolved spec.
///
/// # Panics
///
/// Panics if a cell's simulation fails (the config was validated at
/// parse time, so this is a simulation bug, not a user error).
pub fn sensitivity_sweep(
    ctx: &FigureCtx,
    scale: SimScale,
    cfg: &SweepConfig,
    max_cycle_factor: u64,
) -> (FigureResult, Vec<SweepRow>) {
    // Flatten (axis, value) pairs; each pair owns `benches.len()` cells.
    let cells: Vec<(usize, usize)> = cfg
        .axes
        .iter()
        .enumerate()
        .flat_map(|(a, axis)| (0..axis.values.len()).map(move |v| (a, v)))
        .collect();
    let nb = cfg.benches.len();
    let flat = ctx.runner.run(cells.len() * nb, |i| {
        let (a, v) = cells[i / nb];
        let bench = cfg.benches[i % nb];
        let axis = &cfg.axes[a];
        let mut spec = cfg.base.clone();
        spec.set(&axis.path, axis.values[v].clone())
            .expect("validated at parse time");
        ctx.apply(&mut spec);
        let r = Experiment::from_spec(spec)
            .benchmark(bench)
            .seed(scale.seed)
            .warmup(scale.warmup)
            .measure(scale.measure)
            .max_cycle_factor(max_cycle_factor)
            .run()
            .unwrap_or_else(|e| {
                panic!("sweep cell {}={} on {bench} failed: {e}", axis.path, {
                    axis.values[v].encode()
                })
            });
        ctx.runner.add_sim_cycles(r.cycles);
        r.ipc(0) / ctx.base_ipc(bench, scale)
    });

    let mut cols: Vec<String> = vec!["axis".into(), "value".into()];
    cols.extend(cfg.benches.iter().map(|b| b.name().to_string()));
    cols.push("mean".into());
    let mut t = Table::new(cols);
    let mut summary = BTreeMap::new();
    let mut rows = Vec::with_capacity(cells.len());
    for (ci, &(a, v)) in cells.iter().enumerate() {
        let axis = &cfg.axes[a];
        let value = &axis.values[v];
        let effs: Vec<f64> = flat[ci * nb..(ci + 1) * nb].to_vec();
        let m = mean(&effs);
        let mut table_cells = vec![axis.path.clone(), value.encode()];
        table_cells.extend(effs.iter().map(|&e| fmt3(e)));
        table_cells.push(fmt3(m));
        t.row(table_cells);
        summary.insert(format!("{}={}", axis.path, value.encode()), m);
        let mut spec = cfg.base.clone();
        spec.set(&axis.path, value.clone())
            .expect("validated at parse time");
        rows.push(SweepRow {
            path: axis.path.clone(),
            value: value.clone(),
            effs: cfg.benches.iter().copied().zip(effs).collect(),
            mean_eff: m,
            spec,
        });
    }
    (
        FigureResult {
            table: t,
            summary,
            metrics: BTreeMap::new(),
            timeseries: BTreeMap::new(),
        },
        rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep_doc() -> Json {
        rmt_stats::json::parse(
            r#"{
                "name": "tiny",
                "base": "SRT",
                "benches": ["m88ksim"],
                "axes": [{"path": "core.sq_entries", "values": [16, 64]}]
            }"#,
        )
        .unwrap()
    }

    #[test]
    fn parses_and_validates_a_sweep_file() {
        let cfg = SweepConfig::from_json(&sweep_doc()).unwrap();
        assert_eq!(cfg.name, "tiny");
        assert_eq!(cfg.base.kind(), DeviceKind::Srt);
        assert_eq!(cfg.benches, vec![Benchmark::M88ksim]);
        assert_eq!(cfg.axes.len(), 1);
        assert_eq!(cfg.axes[0].values, vec![Json::U64(16), Json::U64(64)]);
    }

    #[test]
    fn rejects_bad_paths_kinds_and_benchmarks() {
        let mut doc = sweep_doc();
        doc.set("base", Json::Str("NotAKind".into()));
        assert!(SweepConfig::from_json(&doc)
            .unwrap_err()
            .contains("NotAKind"));

        let doc = rmt_stats::json::parse(
            r#"{"name": "x", "base": "SRT", "benches": ["m88ksim"],
                "axes": [{"path": "core.nope", "values": [1]}]}"#,
        )
        .unwrap();
        assert!(SweepConfig::from_json(&doc)
            .unwrap_err()
            .contains("core.nope"));

        let doc = rmt_stats::json::parse(
            r#"{"name": "x", "base": "SRT", "benches": ["quake"],
                "axes": [{"path": "core.sq_entries", "values": [16]}]}"#,
        )
        .unwrap();
        assert!(SweepConfig::from_json(&doc).unwrap_err().contains("quake"));
    }

    #[test]
    fn accepts_a_full_spec_document_as_base() {
        let mut doc = sweep_doc();
        let mut spec = MachineSpec::for_kind(DeviceKind::Srt);
        spec.set("core.sq_entries", Json::U64(32)).unwrap();
        doc.set("base", spec.to_json());
        let cfg = SweepConfig::from_json(&doc).unwrap();
        assert_eq!(cfg.base.core.sq_entries, 32);
    }

    #[test]
    fn sweep_runs_and_embeds_resolved_specs() {
        let cfg = SweepConfig::from_json(&sweep_doc()).unwrap();
        let ctx = FigureCtx::new(2);
        let (r, rows) = sensitivity_sweep(&ctx, SimScale::quick(), &cfg, 120);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].spec.core.sq_entries, 16);
        assert_eq!(rows[1].spec.core.sq_entries, 64);
        assert!(
            rows[0].mean_eff <= rows[1].mean_eff,
            "a tiny store queue must not beat the default: {} vs {}",
            rows[0].mean_eff,
            rows[1].mean_eff
        );
        assert_eq!(r.table.num_rows(), 2);
        assert!(r.summary.contains_key("core.sq_entries=16"));
        // Determinism across job counts.
        let seq = FigureCtx::sequential();
        let (r2, rows2) = sensitivity_sweep(&seq, SimScale::quick(), &cfg, 120);
        assert_eq!(r, r2);
        assert_eq!(rows, rows2);
    }
}
