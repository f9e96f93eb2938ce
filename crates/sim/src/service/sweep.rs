//! The declarative sensitivity-sweep schema: a sweep file names a base
//! machine spec, one or more axes of dotted key paths, and a value list
//! per axis.
//!
//! Each axis is swept *independently* from the base spec (one knob moves
//! at a time — the paper's sensitivity-study style, e.g. the slack-fetch
//! and store-queue curves behind §4.2/§4.4), and every result row records
//! the fully resolved [`MachineSpec`] it ran, so a result document is
//! self-describing. [`ClusterPlan`](super::ClusterPlan) expands a sweep
//! into its cells and folds their results into that document.

use super::{parse_benches, parse_spec};
use rmt_core::spec::MachineSpec;
use rmt_stats::Json;
use rmt_workloads::Benchmark;

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
    /// `base` is either a [`DeviceKind`](rmt_core::spec::DeviceKind) name
    /// (the kind's default spec) or a full six-section spec document.
    /// Every axis path/value pair is validated against the base spec up
    /// front, so a bad sweep file fails before any simulation runs.
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
        let base = parse_spec(
            doc.get("base")
                .ok_or("sweep file needs a `base` (kind name or spec document)")?,
            "base",
        )?;
        let benches = parse_benches(doc)?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use rmt_core::spec::DeviceKind;

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
}
