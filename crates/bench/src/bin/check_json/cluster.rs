//! Validators for `rmt-cluster` run envelopes: a merged result plus its
//! dispatch provenance.

use crate::service::{check_echo, check_host, check_service_result};
use rmt_sim::service::ClusterPlan;
use rmt_sim::ServiceRequest;
use rmt_stats::fields::Fields;

/// An `rmt-cluster/v1` envelope: a merged document plus its dispatch
/// provenance. The validator independently re-expands the echoed request
/// into its cell plan, so a forged or stale envelope cannot pass — the
/// top-level digest, every per-cell digest, the cell ordering, and the
/// unit/cell/worker accounting in the `cluster` metrics section must all
/// recompute from the request alone.
pub(crate) fn check_cluster_envelope(mut f: Fields) -> Result<(), String> {
    let parsed = check_echo(&mut f)?;
    let workers = f.u64("workers")?;
    let cells = f.objects("cells", |mut cell| {
        let digest = cell.str("digest")?;
        let request = ServiceRequest::from_json(cell.value("request")?).map_err(|e| {
            let path = cell.path("request");
            format!("`{path}` is not a valid service request: {e}")
        })?;
        if request.digest() != digest {
            return Err(format!(
                "`{}` does not recompute from its echoed request: \
                 cell says {digest}, the request digests to {}",
                cell.path("digest"),
                request.digest()
            ));
        }
        cell.str("worker")?;
        if cell.u64("attempts")? == 0 {
            return Err(cell.invalid("attempts", "must be at least 1").into());
        }
        cell.bool("cache_hit")?;
        cell.finish()?;
        Ok(digest)
    })?;
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
    for (i, (digest, want)) in cells.iter().zip(&units).enumerate() {
        if digest != want {
            return Err(format!(
                "`cells[{i}].digest` is {digest}, but plan expansion of the request \
                 puts unit {want} at that position"
            ));
        }
    }
    check_service_result(f.object("result")?)?;
    if workers > 0 {
        let mut cluster = f.object("cluster")?;
        let mut m = cluster.object("metrics")?;
        let checks = [
            ("cluster/cells", plan.cells.len() as u64),
            ("cluster/units", units.len() as u64),
            ("cluster/workers", workers),
        ];
        for (name, want) in checks {
            let got = m.u64(name)?;
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
            completed += m.u64(&format!("cluster/worker{w}/completed"))?;
            for counter in ["dispatched", "retried", "stolen"] {
                m.u64(&format!("cluster/worker{w}/{counter}"))?;
            }
        }
        if completed != units.len() as u64 {
            return Err(format!(
                "per-worker `completed` counters sum to {completed}, want {} \
                 (one accepted result per distinct unit)",
                units.len()
            ));
        }
        let addrs = cluster.array("worker_addrs")?;
        if addrs.len() as u64 != workers {
            return Err(format!(
                "`cluster.worker_addrs` lists {} addresses for {workers} workers",
                addrs.len()
            ));
        }
        cluster.finish()?;
    }
    check_host(&mut f)?;
    Ok(f.finish()?)
}
