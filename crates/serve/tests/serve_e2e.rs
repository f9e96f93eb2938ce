//! End-to-end daemon tests: a real server on an ephemeral port, driven
//! through real sockets by the crate's own client — submit, poll, fetch,
//! resubmit-for-hit, error paths, and graceful drain.
//!
//! The central assertion is the caching contract: the document fetched
//! from `/v1/results/<digest>` is bitwise identical to executing the same
//! request in-process, and a repeat submission is answered from the cache
//! (`cache_hit: true`, jobs-completed counter unchanged) with that same
//! document embedded.

use rmt_serve::client::Client;
use rmt_serve::{Server, ServerConfig, ServerHandle};
use rmt_sim::ServiceRequest;
use rmt_stats::json::parse;
use rmt_stats::Json;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

fn temp_cache_dir(tag: &str) -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("rmt-serve-e2e-{}-{tag}-{n}", std::process::id()))
}

fn start(tag: &str) -> (ServerHandle, Client, PathBuf) {
    let dir = temp_cache_dir(tag);
    std::fs::remove_dir_all(&dir).ok();
    let handle = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        cache_dir: dir.clone(),
        workers: 1,
        queue_cap: 4,
        mem_cache: 8,
        inner_jobs: 1,
    })
    .expect("server starts on an ephemeral port");
    let client = Client::new(&handle.addr().to_string());
    (handle, client, dir)
}

const RUN_DOC: &str = r#"{"type": "run", "spec": "SRT", "benches": ["m88ksim"],
                          "scale": {"warmup": 200, "measure": 1000, "seed": 7}}"#;

fn poll_until_done(client: &mut Client, job: &str) {
    for _ in 0..2_000 {
        let resp = client.get(&format!("/v1/jobs/{job}")).expect("poll");
        let doc = parse(&resp.text()).expect("status JSON");
        match doc.get("status").and_then(Json::as_str) {
            Some("done") => return,
            Some("failed") => panic!("job failed: {}", resp.text()),
            _ => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    panic!("job {job} did not finish");
}

fn counter(metrics: &Json, name: &str) -> u64 {
    metrics
        .get(name)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("metrics lack `{name}`"))
}

#[test]
fn submit_poll_fetch_and_cached_resubmit_are_bitwise_identical() {
    let (handle, mut client, dir) = start("roundtrip");

    let health = parse(&client.get("/healthz").expect("healthz").text()).unwrap();
    assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));

    // Miss: accepted as a queued job.
    let resp = client.post("/v1/run", RUN_DOC.as_bytes()).expect("submit");
    assert_eq!(
        resp.status,
        202,
        "first submission must miss: {}",
        resp.text()
    );
    let envelope = parse(&resp.text()).unwrap();
    assert_eq!(
        envelope.get("schema").unwrap().as_str(),
        Some("rmt-serve/v1")
    );
    assert_eq!(envelope.get("cache_hit").unwrap().as_bool(), Some(false));
    let digest = envelope
        .get("digest")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    let job = envelope.get("job").unwrap().as_str().unwrap().to_string();
    // A queued response hints how long to wait before polling, both as a
    // Retry-After header and in the envelope.
    assert!(resp.retry_after_ms.is_some(), "202 must carry Retry-After");
    assert!(envelope.get("retry_after_ms").unwrap().as_u64().unwrap() >= 200);
    // The job is observable in the bounded listing while live (unless
    // the worker already finished it — then it must report done).
    let listing = parse(&client.get("/v1/jobs").expect("list jobs").text()).unwrap();
    assert_eq!(
        listing.get("schema").unwrap().as_str(),
        Some("rmt-serve/v1")
    );
    let listed = listing.get("jobs").unwrap().as_array().unwrap();
    let in_listing = listed
        .iter()
        .any(|j| j.get("job").and_then(Json::as_str) == Some(job.as_str()));
    if !in_listing {
        let status = parse(&client.get(&format!("/v1/jobs/{job}")).unwrap().text()).unwrap();
        assert_eq!(
            status.get("status").unwrap().as_str(),
            Some("done"),
            "a live job must appear in /v1/jobs: {listing:?}"
        );
    }
    // The envelope echoes the fully resolved request.
    let canonical = envelope.get("request").expect("request echoed");
    assert_eq!(
        canonical
            .get("scale")
            .unwrap()
            .get("seed")
            .unwrap()
            .as_u64(),
        Some(7)
    );

    poll_until_done(&mut client, &job);
    let fetched = client.get(&format!("/v1/results/{digest}")).expect("fetch");
    assert_eq!(fetched.status, 200);

    // Bitwise contract #1: served bytes == direct in-process execution.
    let request = ServiceRequest::from_json(&parse(RUN_DOC).unwrap()).unwrap();
    assert_eq!(
        request.digest(),
        digest,
        "client and server agree on the digest"
    );
    let mut direct = request.execute(1, None).unwrap().encode_pretty();
    direct.push('\n');
    assert_eq!(
        fetched.text(),
        direct,
        "served result must be bitwise identical to a direct run"
    );

    // Hit: same document answered from the cache, result embedded.
    let resp2 = client
        .post("/v1/run", RUN_DOC.as_bytes())
        .expect("resubmit");
    assert_eq!(
        resp2.status,
        200,
        "repeat submission must hit: {}",
        resp2.text()
    );
    let envelope2 = parse(&resp2.text()).unwrap();
    assert_eq!(envelope2.get("cache_hit").unwrap().as_bool(), Some(true));
    assert_eq!(envelope2.get("status").unwrap().as_str(), Some("done"));
    assert_eq!(envelope2.get("job"), Some(&Json::Null));
    assert_eq!(
        envelope2.get("result").unwrap().encode(),
        parse(&direct).unwrap().encode(),
        "hit envelope embeds the cached document"
    );

    // Bitwise contract #2: a second fetch returns the same bytes, and the
    // job counter proves nothing was re-simulated.
    let fetched2 = client
        .get(&format!("/v1/results/{digest}"))
        .expect("refetch");
    assert_eq!(fetched2.body, fetched.body);
    let metrics = parse(&client.get("/metrics").expect("metrics").text()).unwrap();
    assert_eq!(counter(&metrics, "serve/jobs/completed"), 1);
    assert!(counter(&metrics, "serve/cache/hits") >= 2, "hit + refetch");
    assert_eq!(counter(&metrics, "serve/jobs/failed"), 0);
    assert_eq!(counter(&metrics, "serve/requests/run"), 2);

    handle.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sweep_requests_run_to_completion() {
    let (handle, mut client, dir) = start("sweep");
    let doc = r#"{"type": "sweep",
                  "sweep": {"name": "e2e", "base": "SRT", "benches": ["m88ksim"],
                            "axes": [{"path": "core.sq_entries", "values": [16, 64]}]},
                  "scale": {"warmup": 200, "measure": 1000}}"#;
    let resp = client
        .post("/v1/sweep", doc.as_bytes())
        .expect("submit sweep");
    assert_eq!(resp.status, 202, "{}", resp.text());
    let envelope = parse(&resp.text()).unwrap();
    let job = envelope.get("job").unwrap().as_str().unwrap().to_string();
    let digest = envelope
        .get("digest")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    poll_until_done(&mut client, &job);
    let result = parse(&client.get(&format!("/v1/results/{digest}")).unwrap().text()).unwrap();
    assert_eq!(result.get("type").unwrap().as_str(), Some("sweep"));
    assert_eq!(result.get("sweep").unwrap().as_array().unwrap().len(), 2);
    handle.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn error_paths_answer_without_queuing_work() {
    let (handle, mut client, dir) = start("errors");
    let case = |client: &mut Client, method: &str, path: &str, body: &str, want: u16| {
        let resp = client
            .request(method, path, body.as_bytes())
            .expect("request");
        assert_eq!(resp.status, want, "{method} {path}: {}", resp.text());
    };
    case(&mut client, "POST", "/v1/run", "not json", 400);
    case(&mut client, "POST", "/v1/run", "[1, 2]", 422);
    // Typed endpoint vs document type mismatch.
    case(&mut client, "POST", "/v1/sweep", RUN_DOC, 400);
    // Validation failures name the offending field (422, not 500).
    case(
        &mut client,
        "POST",
        "/v1/run",
        r#"{"spec": "NotAKind", "benches": ["gcc"]}"#,
        422,
    );
    case(&mut client, "GET", "/v1/jobs/j-999999", "", 404);
    case(&mut client, "GET", "/v1/results/NOT-A-DIGEST", "", 400);
    case(
        &mut client,
        "GET",
        "/v1/results/00000000000000000000000000000000",
        "",
        404,
    );
    case(&mut client, "GET", "/nope", "", 404);
    case(&mut client, "GET", "/v1/run", "", 405);
    case(&mut client, "POST", "/healthz", "", 405);

    let metrics = parse(&client.get("/metrics").unwrap().text()).unwrap();
    assert_eq!(counter(&metrics, "serve/jobs/completed"), 0);
    assert_eq!(counter(&metrics, "serve/jobs/failed"), 0);
    handle.stop();
    std::fs::remove_dir_all(&dir).ok();
}

/// A POST with a body must not wait for a delayed acknowledgement: sent
/// as two writes with Nagle's algorithm on, each took about 40 ms.
#[test]
fn keep_alive_posts_do_not_wait_for_delayed_acks() {
    let (handle, mut client, dir) = start("nagle");
    let post = |client: &mut Client| {
        let resp = client.post("/v1/run", b"not json").expect("post");
        assert_eq!(resp.status, 400, "{}", resp.text());
    };
    post(&mut client);
    let start = Instant::now();
    for _ in 0..25 {
        post(&mut client);
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_millis(500),
        "25 keep-alive POSTs took {elapsed:?}"
    );
    handle.stop();
    std::fs::remove_dir_all(&dir).ok();
}

/// `stop` wakes the blocking accept loop of a server bound to an
/// unspecified address, by connecting to it over loopback.
#[test]
fn stop_returns_for_a_server_on_an_unspecified_address() {
    let dir = temp_cache_dir("unspecified");
    std::fs::remove_dir_all(&dir).ok();
    let handle = Server::start(ServerConfig {
        addr: "0.0.0.0:0".to_string(),
        cache_dir: dir.clone(),
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("server starts on 0.0.0.0");
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        handle.stop();
        done_tx.send(()).ok();
    });
    done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("stop returned within 10 s");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shutdown_drains_gracefully() {
    let (handle, mut client, dir) = start("drain");
    // Queue one real job, then request shutdown before it finishes.
    let resp = client.post("/v1/run", RUN_DOC.as_bytes()).expect("submit");
    assert_eq!(resp.status, 202);
    let envelope = parse(&resp.text()).unwrap();
    let job = envelope.get("job").unwrap().as_str().unwrap().to_string();
    let digest = envelope
        .get("digest")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();

    let resp = client.post("/v1/shutdown", b"").expect("shutdown");
    assert_eq!(resp.status, 200);
    let health = parse(&client.get("/healthz").unwrap().text()).unwrap();
    assert_eq!(health.get("status").unwrap().as_str(), Some("draining"));
    // Intake is closed...
    let refused = client
        .post(
            "/v1/run",
            RUN_DOC.replace("\"seed\": 7", "\"seed\": 8").as_bytes(),
        )
        .expect("refused submit");
    assert_eq!(refused.status, 503);
    // ...but queued work still completes before the workers exit.
    poll_until_done(&mut client, &job);
    let fetched = client.get(&format!("/v1/results/{digest}")).expect("fetch");
    assert_eq!(fetched.status, 200);
    handle.wait();
    std::fs::remove_dir_all(&dir).ok();
}
