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

use super::{fits, parse_benches, parse_spec};
use rmt_core::spec::MachineSpec;
use rmt_stats::fields::Fields;
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
    /// Reads a sweep document:
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
    /// Unknown keys are refused, in the axes too. Every axis path/value
    /// pair is validated against the base spec up front, and so is that
    /// the resulting machine runs one program, so a bad sweep file fails
    /// before any simulation runs.
    ///
    /// # Errors
    ///
    /// A message naming the dotted path of the offending value.
    pub fn read(mut f: Fields<'_>) -> Result<SweepConfig, String> {
        let name = f.str("name")?.to_string();
        let base = parse_spec(&mut f, "base")?;
        let benches = parse_benches(&mut f)?;
        let axes = f.objects("axes", |mut a| {
            let path = a.str("path")?.to_string();
            let values = a.array("values")?.to_vec();
            if values.is_empty() {
                return Err(a.invalid("values", "must not be empty").into());
            }
            // Validate every cell's override against the base spec now,
            // not in a worker thread mid-sweep.
            for (i, v) in values.iter().enumerate() {
                let mut probe = base.clone();
                probe.set(&path, v.clone()).map_err(|e| e.to_string())?;
                fits(&probe, 1, format!("{}[{i}]", a.path("values")))?;
            }
            a.finish()?;
            Ok::<_, String>(SweepAxis { path, values })
        })?;
        if axes.is_empty() {
            return Err(format!("`{}` must not be empty", f.path("axes")));
        }
        f.finish()?;
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

    fn parse(doc: &Json) -> Result<SweepConfig, String> {
        SweepConfig::read(Fields::new(doc)?)
    }

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
        let cfg = parse(&sweep_doc()).unwrap();
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
        assert!(parse(&doc).unwrap_err().contains("NotAKind"));

        let doc = rmt_stats::json::parse(
            r#"{"name": "x", "base": "SRT", "benches": ["m88ksim"],
                "axes": [{"path": "core.nope", "values": [1]}]}"#,
        )
        .unwrap();
        assert!(parse(&doc).unwrap_err().contains("core.nope"));

        let doc = rmt_stats::json::parse(
            r#"{"name": "x", "base": "SRT", "benches": ["quake"],
                "axes": [{"path": "core.sq_entries", "values": [16]}]}"#,
        )
        .unwrap();
        assert!(parse(&doc).unwrap_err().contains("quake"));
    }

    #[test]
    fn accepts_a_full_spec_document_as_base() {
        let mut doc = sweep_doc();
        let mut spec = MachineSpec::for_kind(DeviceKind::Srt);
        spec.set("core.sq_entries", Json::U64(32)).unwrap();
        doc.set("base", spec.to_json());
        let cfg = parse(&doc).unwrap();
        assert_eq!(cfg.base.core.sq_entries, 32);
    }
}
