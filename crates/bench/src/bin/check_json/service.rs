//! Validators for `rmt-serve` documents: response envelopes and bare
//! run/sweep result documents (what `/v1/results/<digest>` serves).

use crate::{check_snapshot, check_timeseries};
use rmt_sim::ServiceRequest;
use rmt_stats::Json;

/// An `rmt-serve` response envelope: digest integrity (the digest must
/// recompute from the echoed canonical request), coherent lifecycle
/// fields, and — for cache hits — a valid embedded result document.
pub(crate) fn check_envelope(doc: &Json) -> Result<(), String> {
    let digest = doc
        .get("digest")
        .and_then(Json::as_str)
        .ok_or("envelope lacks a string `digest`")?;
    if !rmt_stats::digest::is_digest(digest) {
        return Err(format!("`digest` is not a well-formed digest: `{digest}`"));
    }
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
    let status = doc
        .get("status")
        .and_then(Json::as_str)
        .ok_or("envelope lacks a string `status`")?;
    if !matches!(status, "queued" | "running" | "done" | "failed") {
        return Err(format!("unknown envelope `status` `{status}`"));
    }
    let hit = doc
        .get("cache_hit")
        .and_then(Json::as_bool)
        .ok_or("envelope lacks a boolean `cache_hit`")?;
    match (hit, doc.get("job")) {
        (true, Some(Json::Null)) => {}
        (true, _) => return Err("a cache-hit envelope must carry `job: null`".into()),
        (false, Some(Json::Str(_))) => {}
        (false, _) => return Err("a cache-miss envelope must carry a string `job`".into()),
    }
    if hit {
        if status != "done" {
            return Err(format!("a cache hit is `done`, not `{status}`"));
        }
        let result = doc
            .get("result")
            .ok_or("a cache-hit envelope embeds its `result`")?;
        check_service_result(result)?;
        doc.get("host")
            .and_then(|h| h.get("wall_seconds"))
            .and_then(Json::as_f64)
            .ok_or("`host.wall_seconds` is not a number")?;
    }
    Ok(())
}

/// A service result document (`/v1/results/<digest>` or the `result`
/// embedded in a hit envelope): a run or a sweep, by its `type`.
pub(crate) fn check_service_result(result: &Json) -> Result<(), String> {
    match result.get("type").and_then(Json::as_str) {
        Some("run") => check_run_result(result),
        Some("sweep") => check_sweep_result(result),
        other => Err(format!(
            "result `type` must be `run` or `sweep`, got {other:?}"
        )),
    }
}

fn check_run_result(result: &Json) -> Result<(), String> {
    result
        .get("kind")
        .and_then(Json::as_str)
        .and_then(rmt_core::DeviceKind::from_name)
        .ok_or("run result `kind` is not a device kind")?;
    result
        .get("cycles")
        .and_then(Json::as_u64)
        .ok_or("run result `cycles` is not a u64")?;
    let threads = result
        .get("per_thread")
        .and_then(Json::as_array)
        .ok_or("run result `per_thread` is not an array")?;
    if threads.is_empty() {
        return Err("run result `per_thread` is empty".into());
    }
    for (i, t) in threads.iter().enumerate() {
        for key in ["committed", "cycles"] {
            t.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("`per_thread[{i}].{key}` is not a u64"))?;
        }
        t.get("benchmark")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("`per_thread[{i}].benchmark` is not a string"))?;
        t.get("ipc")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("`per_thread[{i}].ipc` is not a number"))?;
    }
    result
        .get("faults_detected")
        .and_then(Json::as_u64)
        .ok_or("run result `faults_detected` is not a u64")?;
    check_snapshot(
        "result",
        result.get("metrics").ok_or("run result lacks `metrics`")?,
    )?;
    rmt_core::MachineSpec::from_json(result.get("config").ok_or("run result lacks `config`")?)
        .map_err(|e| format!("invalid run result `config`: {e}"))?;
    // Time series are present but empty unless the request sampled
    // (`epoch > 0`); a populated one must satisfy the figure invariants.
    let series = result
        .get("timeseries")
        .ok_or("run result lacks `timeseries`")?;
    if series.get("every").and_then(Json::as_u64).unwrap_or(0) > 0 {
        check_timeseries("result", series)?;
    }
    Ok(())
}

fn check_sweep_result(result: &Json) -> Result<(), String> {
    result
        .get("name")
        .and_then(Json::as_str)
        .ok_or("sweep result `name` is not a string")?;
    for (k, v) in result
        .get("summary")
        .and_then(Json::members)
        .ok_or("sweep result `summary` is not an object")?
    {
        v.as_f64()
            .ok_or_else(|| format!("sweep result `summary.{k}` is not a number"))?;
    }
    let rows = result
        .get("sweep")
        .and_then(Json::as_array)
        .ok_or("sweep result `sweep` is not an array")?;
    for (i, row) in rows.iter().enumerate() {
        row.get("path")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("`sweep[{i}].path` is not a string"))?;
        row.get("value")
            .ok_or_else(|| format!("`sweep[{i}]` lacks a `value`"))?;
        row.get("mean_eff")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("`sweep[{i}].mean_eff` is not a number"))?;
        for (b, eff) in row
            .get("effs")
            .and_then(Json::members)
            .ok_or_else(|| format!("`sweep[{i}].effs` is not an object"))?
        {
            eff.as_f64()
                .ok_or_else(|| format!("`sweep[{i}].effs.{b}` is not a number"))?;
        }
        rmt_core::MachineSpec::from_json(
            row.get("config")
                .ok_or_else(|| format!("`sweep[{i}]` lacks a `config`"))?,
        )
        .map_err(|e| format!("invalid `sweep[{i}].config`: {e}"))?;
    }
    rmt_core::MachineSpec::from_json(result.get("config").ok_or("sweep result lacks `config`")?)
        .map_err(|e| format!("invalid sweep result `config`: {e}"))?;
    Ok(())
}
