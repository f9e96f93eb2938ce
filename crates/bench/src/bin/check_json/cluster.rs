//! Validators for `rmt-cluster` run envelopes: a merged result plus its
//! dispatch provenance.

use crate::service::check_service_result;
use rmt_sim::service::ClusterPlan;
use rmt_sim::ServiceRequest;
use rmt_stats::Json;

/// An `rmt-cluster/v1` envelope: a merged document plus its dispatch
/// provenance. The validator independently re-expands the echoed request
/// into its cell plan, so a forged or stale envelope cannot pass — the
/// top-level digest, every per-cell digest, the cell ordering, and the
/// unit/cell/worker accounting in the `cluster` metrics section must all
/// recompute from the request alone.
pub(crate) fn check_cluster_envelope(doc: &Json) -> Result<(), String> {
    let digest = doc
        .get("digest")
        .and_then(Json::as_str)
        .ok_or("envelope lacks a string `digest`")?;
    let request = doc.get("request").ok_or("envelope lacks a `request`")?;
    let parsed = ServiceRequest::from_json(request)
        .map_err(|e| format!("`request` is not a valid service request: {e}"))?;
    if parsed.digest() != digest {
        return Err(format!(
            "`digest` does not recompute from `request`: envelope says {digest}, \
             the canonical request digests to {}",
            parsed.digest()
        ));
    }
    let workers = doc
        .get("workers")
        .and_then(Json::as_u64)
        .ok_or("`workers` is not a u64")?;
    let cells = doc
        .get("cells")
        .and_then(Json::as_array)
        .ok_or("`cells` is not an array")?;
    let plan = ClusterPlan::expand(&parsed);
    let units = plan.distinct_digests();
    if workers == 0 {
        // The `--local` reference envelope: nothing was dispatched.
        if !cells.is_empty() {
            return Err("a local envelope (`workers: 0`) must carry no cells".into());
        }
    } else if cells.len() != units.len() {
        return Err(format!(
            "`cells` has {} entries, but the request expands to {} distinct \
             units ({} plan cells before deduplication)",
            cells.len(),
            units.len(),
            plan.cells.len()
        ));
    }
    for (i, (cell, want)) in cells.iter().zip(&units).enumerate() {
        let cd = cell
            .get("digest")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("`cells[{i}].digest` is not a string"))?;
        let creq = cell
            .get("request")
            .ok_or_else(|| format!("`cells[{i}]` lacks a `request`"))?;
        let cparsed = ServiceRequest::from_json(creq)
            .map_err(|e| format!("`cells[{i}].request` is not a valid service request: {e}"))?;
        if cparsed.digest() != cd {
            return Err(format!(
                "`cells[{i}].digest` does not recompute from its echoed request: \
                 cell says {cd}, the request digests to {}",
                cparsed.digest()
            ));
        }
        if cd != *want {
            return Err(format!(
                "`cells[{i}].digest` is {cd}, but plan expansion of the request \
                 puts unit {want} at that position"
            ));
        }
        cell.get("worker")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("`cells[{i}].worker` is not a string"))?;
        let attempts = cell
            .get("attempts")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("`cells[{i}].attempts` is not a u64"))?;
        if attempts == 0 {
            return Err(format!("`cells[{i}].attempts` must be >= 1"));
        }
        cell.get("cache_hit")
            .and_then(Json::as_bool)
            .ok_or_else(|| format!("`cells[{i}].cache_hit` is not a boolean"))?;
    }
    check_service_result(
        doc.get("result")
            .ok_or("envelope lacks its merged `result`")?,
    )?;
    if workers > 0 {
        let m = doc
            .get("cluster")
            .and_then(|c| c.get("metrics"))
            .ok_or("a distributed envelope carries `cluster.metrics`")?;
        let counter = |name: &str| {
            m.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("`cluster.metrics` lacks counter `{name}`"))
        };
        let checks = [
            ("cluster/cells", plan.cells.len() as u64),
            ("cluster/units", units.len() as u64),
            ("cluster/workers", workers),
        ];
        for (name, want) in checks {
            let got = counter(name)?;
            if got != want {
                return Err(format!(
                    "`cluster.metrics.{name}` is {got}, want {want} (recomputed \
                     from plan expansion of the echoed request)"
                ));
            }
        }
        // First-wins acceptance: every distinct unit lands on exactly one
        // worker, so per-worker `completed` counters must sum to the units.
        let mut completed = 0u64;
        for w in 0..workers {
            completed += counter(&format!("cluster/worker{w}/completed"))?;
            counter(&format!("cluster/worker{w}/dispatched"))?;
            counter(&format!("cluster/worker{w}/retried"))?;
            counter(&format!("cluster/worker{w}/stolen"))?;
        }
        if completed != units.len() as u64 {
            return Err(format!(
                "per-worker `completed` counters sum to {completed}, want {} \
                 (one accepted result per distinct unit)",
                units.len()
            ));
        }
        let addrs = doc
            .get("cluster")
            .and_then(|c| c.get("worker_addrs"))
            .and_then(Json::as_array)
            .ok_or("`cluster.worker_addrs` is not an array")?;
        if addrs.len() as u64 != workers {
            return Err(format!(
                "`cluster.worker_addrs` lists {} addresses for {workers} workers",
                addrs.len()
            ));
        }
    }
    doc.get("host")
        .and_then(|h| h.get("wall_seconds"))
        .and_then(Json::as_f64)
        .ok_or("`host.wall_seconds` is not a number")?;
    Ok(())
}
