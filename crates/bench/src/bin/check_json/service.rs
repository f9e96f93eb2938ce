//! Validators for `rmt-serve` documents: response envelopes and bare
//! run/sweep result documents (what `/v1/results/<digest>` serves). The
//! daemon writes a fixed key set into each, so unknown keys are refused.

use crate::{check_config, check_snapshot, check_timeseries};
use rmt_sim::ServiceRequest;
use rmt_stats::fields::Fields;
use rmt_stats::Json;

/// The echoed `request` of an envelope, which must digest to its
/// `digest`.
pub(crate) fn check_echo(f: &mut Fields) -> Result<ServiceRequest, String> {
    let digest = f.str("digest")?;
    if !rmt_stats::digest::is_digest(digest) {
        return Err(format!("`digest` is not a well-formed digest: `{digest}`"));
    }
    let parsed = ServiceRequest::from_json(f.value("request")?)
        .map_err(|e| format!("`request` is not a valid service request: {e}"))?;
    if parsed.digest() != digest {
        return Err(format!(
            "`digest` does not recompute from `request`: envelope says {digest}, \
             the canonical request digests to {}",
            parsed.digest()
        ));
    }
    Ok(parsed)
}

/// An envelope's `host` section: its wall time only.
pub(crate) fn check_host(f: &mut Fields) -> Result<(), String> {
    let mut host = f.object("host")?;
    host.f64("wall_seconds")?;
    Ok(host.finish()?)
}

/// An `rmt-serve` response envelope: digest integrity (the digest must
/// recompute from the echoed canonical request), coherent lifecycle
/// fields, and — for cache hits — a valid embedded result document.
pub(crate) fn check_envelope(mut f: Fields) -> Result<(), String> {
    check_echo(&mut f)?;
    let status = f.str("status")?;
    if !matches!(status, "queued" | "running" | "done" | "failed") {
        return Err(format!("unknown envelope `status` `{status}`"));
    }
    let hit = f.bool("cache_hit")?;
    match (hit, f.value("job")?) {
        (true, Json::Null) | (false, Json::Str(_)) => {}
        (true, _) => return Err("a cache-hit envelope must carry `job: null`".into()),
        (false, _) => return Err("a cache-miss envelope must carry a string `job`".into()),
    }
    if hit {
        if status != "done" {
            return Err(format!("a cache hit is `done`, not `{status}`"));
        }
        check_service_result(f.object("result")?)?;
        check_host(&mut f)?;
    } else {
        f.u64("retry_after_ms")?;
    }
    Ok(f.finish()?)
}

/// A service result document (`/v1/results/<digest>` or the `result`
/// embedded in a hit envelope): a run or a sweep, by its `type`.
pub(crate) fn check_service_result(mut r: Fields) -> Result<(), String> {
    match r.str("type")? {
        "run" => check_run_result(r),
        "sweep" => check_sweep_result(r),
        other => Err(r
            .invalid("type", format!("must be `run` or `sweep`, not `{other}`"))
            .into()),
    }
}

fn check_run_result(mut r: Fields) -> Result<(), String> {
    let kind = r.str("kind")?;
    if rmt_core::DeviceKind::from_name(kind).is_none() {
        return Err(r.invalid("kind", "is not a device kind").into());
    }
    r.u64("cycles")?;
    let threads = r.objects("per_thread", |mut t| {
        t.str("benchmark")?;
        t.u64("committed")?;
        t.u64("cycles")?;
        t.f64("ipc")?;
        t.finish()
    })?;
    if threads.is_empty() {
        return Err(r.invalid("per_thread", "is empty").into());
    }
    r.u64("faults_detected")?;
    let width = check_config(&mut r, "config")?.core.issue_width as u64;
    check_snapshot(&mut r.object("metrics")?, "result", width)?;
    // Time series are present but empty unless the request sampled
    // (`epoch > 0`); a populated one must satisfy the figure invariants.
    check_timeseries(r.object("timeseries")?, true)?;
    Ok(r.finish()?)
}

fn check_sweep_result(mut r: Fields) -> Result<(), String> {
    r.str("name")?;
    r.members("summary", Fields::f64)?;
    r.objects("sweep", |mut row| {
        row.str("path")?;
        row.value("value")?;
        row.members("effs", Fields::f64)?;
        row.f64("mean_eff")?;
        check_config(&mut row, "config")?;
        Ok::<_, String>(row.finish()?)
    })?;
    check_config(&mut r, "config")?;
    Ok(r.finish()?)
}
