//! Layer probes: replay medians of single layer calls.
//!
//! Every traced run reports every per-layer metric. A workload measures
//! the layers it crosses on its own calls and captured inputs; the
//! layers it does not cross are measured here on fixed inputs, so each
//! number is still a measurement, and is predicted to stay flat unless
//! its layer changes.

use crate::workloads::{cluster, sampled, serve, Captured, Ctx, Outcome};
use rmt_serve::{http, ResultCache};
use rmt_sim::service::{ClusterPlan, ServiceRequest};
use rmt_stats::json::parse;
use rmt_stats::Json;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Calls of each microsecond-scale step in a replay, and of each
/// millisecond-scale one (a few in the smoke test, which runs a debug
/// build).
pub fn calls(ctx: &Ctx) -> (usize, usize) {
    if ctx.tiny {
        (5, 1)
    } else {
        (1_000, 3)
    }
}

/// Median wall time of `n` calls of `f`, in microseconds.
pub fn median_us<T>(n: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut us = Vec::with_capacity(n);
    for _ in 0..n {
        let t = Instant::now();
        black_box(f());
        us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    crate::summary::median(&us)
}

/// The request and result every probe falls back to: the first warm
/// document of `serve_mixed` at seed 1.
fn fallback_inputs() -> (String, String) {
    let request = serve::warm_doc(1, 0);
    let doc = parse(&request).expect("warm documents are JSON");
    let result = ServiceRequest::from_json(&doc)
        .and_then(|r| r.execute(1, None))
        .expect("the probe request runs");
    let mut text = result.encode_pretty();
    text.push('\n');
    (request, text)
}

/// The steps the daemon takes to answer a cache hit, each replayed on
/// `captured` (or the fallback inputs): HTTP parse, request validation,
/// digest, memory-tier lookup, result parse, envelope encode, response
/// framing — plus the disk-tier lookup and the cache put.
pub fn hit_path(
    ctx: &Ctx,
    addr: &str,
    captured: &Captured,
    layers: &mut BTreeMap<&'static str, f64>,
) {
    let (request, result) = match (&captured.request, &captured.result) {
        (Some(q), Some(r)) => (q.clone(), r.clone()),
        _ => fallback_inputs(),
    };
    let bytes = serve::post_bytes(addr, "/v1/run", &request);
    let (n, _) = calls(ctx);
    let parse_us = median_us(n, || http::try_parse(&bytes));
    let from_json_us = median_us(n, || {
        parse(&request).map(|doc| ServiceRequest::from_json(&doc))
    });
    let req = ServiceRequest::from_json(&parse(&request).expect("captured request is JSON"))
        .expect("captured request is valid");
    let digest = req.digest();
    let digest_us = median_us(n, || req.digest());

    let dir = ctx.dir.join("probe-cache");
    let _ = std::fs::remove_dir_all(&dir);
    let mem = ResultCache::new(&dir, 4).expect("probe cache directory");
    mem.put(&digest, &result).expect("probe cache put");
    let mem_get_us = median_us(n, || mem.get(&digest));
    let disk = ResultCache::new(&dir, 0).expect("probe cache directory");
    let disk_get_us = median_us(n, || disk.get(&digest));
    // Each put syncs a file; fewer calls keep the replay short.
    let put_us = median_us(n.min(50), || mem.put(&digest, &result));
    let _ = std::fs::remove_dir_all(&dir);

    let json_parse_us = median_us(n, || parse(&result));
    let envelope = Json::obj()
        .with("schema", Json::Str(rmt_serve::server::SCHEMA.into()))
        .with("digest", Json::Str(digest.clone()))
        .with("job", Json::Null)
        .with("cache_hit", Json::Bool(true))
        .with("status", Json::Str("done".into()))
        .with("request", req.canonical_json())
        .with("result", parse(&result).expect("captured result is JSON"))
        .with("host", Json::obj().with("wall_seconds", Json::F64(0.0)));
    let json_encode_us = median_us(n, || envelope.encode_pretty());
    let body = envelope.encode_pretty().into_bytes();
    let response_us = median_us(n, || {
        http::response_with(200, "application/json", &[], &body, false)
    });

    layers.insert("http.parse_us", parse_us);
    layers.insert("service.from_json_us", from_json_us);
    layers.insert("service.digest_us", digest_us);
    layers.insert("cache.mem_get_us", mem_get_us);
    layers.insert("cache.disk_get_us", disk_get_us);
    layers.insert("cache.put_us", put_us);
    layers.insert("stats.json_parse_us", json_parse_us);
    layers.insert("stats.json_encode_us", json_encode_us);
    layers.insert("http.response_us", response_us);
    layers.insert(
        "serve.hit_compute_us",
        parse_us
            + from_json_us
            + digest_us
            + mem_get_us
            + json_parse_us
            + json_encode_us
            + response_us,
    );
}

/// The coordinator's replays on a small sweep whose cells run in-process.
fn cluster_probe(ctx: &Ctx, layers: &mut BTreeMap<&'static str, f64>) {
    let req = cluster::request(cluster::TINY_SWEEP, 500, 2_000, 1);
    let results: HashMap<String, Json> = ClusterPlan::expand(&req)
        .cells
        .iter()
        .map(|c| {
            let result = c.request.execute(1, None).expect("probe cell runs");
            (c.digest.clone(), result)
        })
        .collect();
    cluster::coordinator_layers(ctx, &req, &results, layers);
}

/// Fills in every per-layer metric the workload did not measure on its
/// own calls. Counts of layers the workload never crossed are zero.
pub fn fill(ctx: &Ctx, out: &mut Outcome) {
    let layers = &mut out.layers;
    if !layers.contains_key("serve.hit_compute_us") {
        hit_path(ctx, "127.0.0.1:8080", &out.captured, layers);
    }
    if !layers.contains_key("service.execute_ms") {
        let request = match &out.captured.execute {
            Some(q) => q.clone(),
            None => serve::warm_doc(1, 0),
        };
        let req = ServiceRequest::from_json(&parse(&request).expect("request is JSON"))
            .expect("request is valid");
        let ms = median_us(calls(ctx).1, || req.execute(1, None)) / 1e3;
        layers.insert("service.execute_ms", ms);
    }
    if !layers.contains_key("sample.checkpoint_ms") {
        sampled::probe(ctx, layers);
    }
    if !layers.contains_key("cluster.merge_ms") {
        cluster_probe(ctx, layers);
    }
    for name in [
        "serve.hit_wait_share",
        "cache.mem_hit_ratio",
        "cache.evictions",
        "jobs.polls_per_miss",
        "cluster.repeat_cells_per_s",
        "cluster.attempts_per_unit",
        "cluster.stolen",
        "cluster.retried",
        "cluster.duplicates",
    ] {
        layers.entry(name).or_insert(0.0);
    }
}
