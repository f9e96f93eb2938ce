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
use std::path::{Path, PathBuf};
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
    let (handle, client) = start_in(&dir);
    (handle, client, dir)
}

/// A daemon over the cache directory `dir`, which may hold results.
fn start_in(dir: &Path) -> (ServerHandle, Client) {
    let handle = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        cache_dir: dir.to_path_buf(),
        workers: 1,
        queue_cap: 4,
        mem_cache: 8,
        inner_jobs: 1,
    })
    .expect("server starts on an ephemeral port");
    let client = Client::new(&handle.addr().to_string());
    (handle, client)
}

const RUN_DOC: &str = r#"{"type": "run", "spec": "SRT", "benches": ["m88ksim"],
                          "scale": {"warmup": 200, "measure": 1000, "seed": 7}}"#;

/// [`RUN_DOC`] executed in-process, as the daemon stores and serves it.
fn direct_run() -> String {
    let request = ServiceRequest::from_json(&parse(RUN_DOC).unwrap()).unwrap();
    let mut direct = request.execute(1, None).unwrap().encode_pretty();
    direct.push('\n');
    direct
}

/// A string field of a response envelope.
fn field(envelope: &Json, key: &str) -> String {
    envelope
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("envelope lacks `{key}`"))
        .to_string()
}

/// Runs [`RUN_DOC`] on a daemon over `dir` and stops it; returns the
/// result's digest.
fn cache_run_doc(dir: &Path) -> String {
    let (handle, mut client) = start_in(dir);
    let resp = client.post("/v1/run", RUN_DOC.as_bytes()).expect("submit");
    assert_eq!(resp.status, 202, "{}", resp.text());
    let envelope = parse(&resp.text()).unwrap();
    poll_until_done(&mut client, &field(&envelope, "job"));
    handle.stop();
    field(&envelope, "digest")
}

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
    // A finished job's status document is unchanged by the worker having
    // taken its payload.
    let status = client.get(&format!("/v1/jobs/{job}")).expect("status");
    let want = Json::obj()
        .with("schema", Json::Str("rmt-serve/v1".into()))
        .with("job", Json::Str(job.clone()))
        .with("digest", Json::Str(digest.clone()))
        .with("status", Json::Str("done".into()))
        .with("progress_permille", Json::U64(1000));
    assert_eq!(status.text(), want.encode_pretty() + "\n");
    let fetched = client.get(&format!("/v1/results/{digest}")).expect("fetch");
    assert_eq!(fetched.status, 200);

    // Bitwise contract #1: served bytes == direct in-process execution.
    let request = ServiceRequest::from_json(&parse(RUN_DOC).unwrap()).unwrap();
    assert_eq!(
        request.digest(),
        digest,
        "client and server agree on the digest"
    );
    let direct = direct_run();
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
    // The spliced hit envelope is byte for byte the envelope tree, with
    // the parsed document, encoded as every other reply is.
    let wall_seconds = envelope2
        .get("host")
        .and_then(|h| h.get("wall_seconds"))
        .cloned()
        .expect("host.wall_seconds");
    let tree = Json::obj()
        .with("schema", Json::Str("rmt-serve/v1".into()))
        .with("digest", Json::Str(digest.clone()))
        .with("job", Json::Null)
        .with("cache_hit", Json::Bool(true))
        .with("status", Json::Str("done".into()))
        .with("request", request.canonical_json())
        .with("result", parse(&direct).unwrap())
        .with("host", Json::obj().with("wall_seconds", wall_seconds));
    assert_eq!(resp2.text(), tree.encode_pretty() + "\n");

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

/// `/metrics` times requests in microseconds, so a cache hit, well under
/// a millisecond, reads above zero.
#[test]
fn a_hit_on_a_fresh_daemon_is_timed_in_microseconds() {
    let dir = temp_cache_dir("latency");
    std::fs::remove_dir_all(&dir).ok();
    cache_run_doc(&dir);
    let (handle, mut client) = start_in(&dir);
    let resp = client.post("/v1/run", RUN_DOC.as_bytes()).expect("submit");
    assert_eq!(resp.status, 200, "{}", resp.text());
    let metrics = parse(&client.get("/metrics").expect("metrics").text()).unwrap();
    let run = metrics
        .get("serve/latency_us/run")
        .expect("metrics lack the run latency histogram");
    assert_eq!(run.get("count").and_then(Json::as_u64), Some(1), "{run:?}");
    assert!(
        run.get("max").and_then(Json::as_u64).unwrap_or(0) > 0,
        "{run:?}"
    );
    handle.stop();
    std::fs::remove_dir_all(&dir).ok();
}

/// A flipped byte in a disk entry is never served. A fresh daemon, its
/// memory tier empty, finds that the entry fails its checksum, moves it
/// aside and computes the result again.
#[test]
fn a_flipped_byte_in_a_disk_entry_is_recomputed_not_served() {
    let dir = temp_cache_dir("flip");
    std::fs::remove_dir_all(&dir).ok();
    let digest = cache_run_doc(&dir);
    let entry = dir.join(&digest[..2]).join(format!("{digest}.json"));
    let mut bytes = std::fs::read(&entry).expect("the result is on disk");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&entry, &bytes).unwrap();

    let (handle, mut client) = start_in(&dir);
    let resp = client.post("/v1/run", RUN_DOC.as_bytes()).expect("submit");
    assert_eq!(
        resp.status,
        202,
        "a corrupt entry must be recomputed, not served: {}",
        resp.text()
    );
    assert!(entry.with_extension("json.corrupt").exists(), "moved aside");
    let job = field(&parse(&resp.text()).unwrap(), "job");
    // The body is remembered now, its result not yet cached: a
    // resubmission rides along with the job, or hits once it is done.
    let again = client
        .post("/v1/run", RUN_DOC.as_bytes())
        .expect("ride along");
    match again.status {
        202 => assert_eq!(field(&parse(&again.text()).unwrap(), "job"), job),
        200 => {}
        other => panic!("resubmission answered {other}: {}", again.text()),
    }
    poll_until_done(&mut client, &job);

    let direct = direct_run();
    let hit = client
        .post("/v1/run", RUN_DOC.as_bytes())
        .expect("resubmit");
    assert_eq!(hit.status, 200, "{}", hit.text());
    let envelope = parse(&hit.text()).unwrap();
    assert_eq!(envelope.get("result"), Some(&parse(&direct).unwrap()));
    let fetched = client.get(&format!("/v1/results/{digest}")).expect("fetch");
    assert_eq!(fetched.text(), direct, "served bytes equal a direct run");
    let metrics = parse(&client.get("/metrics").expect("metrics").text()).unwrap();
    assert_eq!(counter(&metrics, "serve/cache/corrupt"), 1);
    assert_eq!(counter(&metrics, "serve/jobs/completed"), 1);
    handle.stop();
    std::fs::remove_dir_all(&dir).ok();
}
