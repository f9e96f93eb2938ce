//! The daemon: accept loop, connection handling, request routing, the
//! worker pool that drains the job queue, and the `/metrics` snapshot.
//!
//! [`Server::start`] binds a `TcpListener` (port `0` picks an ephemeral
//! port — `scripts/ci.sh` uses this), spawns one accept thread plus the
//! configured worker threads, and returns a [`ServerHandle`] the caller
//! can wait on or stop. Every endpoint answers JSON; submission
//! endpoints check the content-addressed cache first and only queue a
//! job on a miss, so a repeated request is answered bitwise-identically
//! without re-simulation.
//!
//! A cache hit is answered from bytes the daemon already holds. A
//! bounded memo maps each validated body (with its endpoint) to its
//! digest and its canonical request's pretty text, so a repeated body
//! is not parsed, validated or digested again. The cache verifies what
//! it reads from disk, and the hit envelope is written by nesting the
//! request text and the stored document into it
//! ([`rmt_stats::json::write_nested`]), bytes identical to encoding the
//! envelope as a tree, without parsing or encoding either document.
//!
//! Every accepted socket has Nagle's algorithm off (`TCP_NODELAY`) and
//! each response goes out in one write, so no part of an answer waits for
//! the client's delayed acknowledgement.
//!
//! Shutdown is cooperative: `POST /v1/shutdown` (or
//! [`ServerHandle::stop`]) drains the job queue — intake answers 503,
//! queued work finishes, workers exit, then the accept loop stops. That
//! loop blocks in `accept`; [`ServerHandle::wait`] sets the shutdown flag
//! and wakes it with one connection to the server's own address
//! (loopback when bound to an unspecified address such as `0.0.0.0`).
//! The build forbids `unsafe` and ships no signal-handling crate, so
//! Ctrl-C is an abrupt exit; the disk cache's atomic writes keep it
//! consistent anyway.

use crate::cache::{Lru, ResultCache};
use crate::http::{self, Request};
use crate::jobs::{JobStatus, JobTable, Submit};
use rmt_sim::service::ServiceRequest;
use rmt_sim::ProgressSink;
use rmt_stats::digest::digest;
use rmt_stats::json::{self, parse};
use rmt_stats::{Histogram, Json, MetricsRegistry};
use std::io::{Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The envelope schema tag every JSON response carries.
pub const SCHEMA: &str = "rmt-serve/v1";

/// Endpoint labels for the per-endpoint request counters and latency
/// histograms (stable metric names — `serve/requests/<label>`).
const ENDPOINTS: &[&str] = &[
    "run", "sweep", "jobs", "results", "metrics", "healthz", "shutdown", "other",
];

/// Width of a latency bucket in microseconds: a power of two, so a
/// sample is bucketed by a shift. [`LATENCY_BUCKETS`] of them cover
/// 8.192 ms; a slower request counts in the overflow bucket, and a
/// percentile that falls there reads the recorded maximum.
const LATENCY_BUCKET_US: u64 = 8;
/// Buckets per latency histogram.
const LATENCY_BUCKETS: usize = 1024;

/// Request bodies the memo remembers. An entry holds the endpoint and
/// body, the digest and the canonical request's pretty text: about
/// 2.7 KB for a run request, whose resolved spec is most of it, so a
/// full memo of run requests holds about 3 MB. An entry larger than
/// [`MEMO_ENTRY_BYTES`] is not kept, which bounds the worst case at
/// 1,024 × 8 KiB = 8 MiB.
const MEMO_ENTRIES: usize = 1024;
/// Largest endpoint, body and request text one memo entry may hold.
const MEMO_ENTRY_BYTES: usize = 8 * 1024;

/// Everything `rmt-serve` needs to start.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port `0` requests an ephemeral port.
    pub addr: String,
    /// Disk tier of the result cache.
    pub cache_dir: PathBuf,
    /// Worker threads draining the job queue.
    pub workers: usize,
    /// Maximum queued (not yet running) jobs before 503.
    pub queue_cap: usize,
    /// Documents held in the in-memory cache tier.
    pub mem_cache: usize,
    /// `--jobs` level each worker hands the simulator (sweep fan-out).
    pub inner_jobs: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            cache_dir: PathBuf::from("target/rmt-cache"),
            workers: 2,
            queue_cap: 64,
            mem_cache: 128,
            inner_jobs: 1,
        }
    }
}

/// Per-endpoint request count and latency distribution.
#[derive(Debug)]
struct EndpointStats {
    requests: AtomicU64,
    /// Microseconds, in [`LATENCY_BUCKET_US`] buckets.
    latency_us: Mutex<Histogram>,
}

/// What a validated request body resolves to. Body to digest is a pure
/// function: the same bytes on the same endpoint always validate to the
/// same request.
#[derive(Debug, Clone)]
struct Known {
    /// The request's digest, the cache key of its result.
    digest: Arc<str>,
    /// The canonical request's [`Json::encode_pretty`] text.
    request: Arc<str>,
}

/// State shared by the accept loop, connection threads, and workers.
#[derive(Debug)]
struct Shared {
    cfg: ServerConfig,
    cache: ResultCache,
    /// Endpoint name, a newline and the exact body bytes → what the body
    /// validated to. Only bodies that validated enter.
    memo: Mutex<Lru<Arc<[u8]>, Known>>,
    jobs: JobTable,
    endpoints: Vec<EndpointStats>,
    jobs_completed: AtomicU64,
    jobs_failed: AtomicU64,
    /// Stops the accept loop (set after the workers have drained).
    shutdown: AtomicBool,
}

fn err_body(msg: &str) -> Json {
    Json::obj().with("error", Json::Str(msg.to_string()))
}

/// Most job records one `GET /v1/jobs` listing returns (the document
/// also reports the total live count, so truncation is visible).
const JOB_LIST_LIMIT: usize = 64;

/// One routed request's response.
struct Reply {
    status: u16,
    body: Vec<u8>,
    /// `Retry-After` hint in seconds — attached to 202 queued responses
    /// so pollers can pace themselves by observed queue depth.
    retry_after: Option<f64>,
}

fn json_reply(status: u16, doc: &Json) -> Reply {
    let mut text = doc.encode_pretty();
    text.push('\n');
    Reply {
        status,
        body: text.into_bytes(),
        retry_after: None,
    }
}

/// The body `json_reply(200, ..)` writes for a hit envelope, spliced
/// from the request text and `stored`, the cached document (its
/// `encode_pretty` text plus the worker's newline). It is byte-identical
/// to encoding the envelope tree with the parsed document, because
/// encoder text re-parses to a tree that re-encodes to the same text.
fn hit_body(known: &Known, stored: &str, wall_seconds: f64) -> Vec<u8> {
    let result = stored.strip_suffix('\n').unwrap_or(stored);
    // Nesting adds two bytes of indent per line, about a tenth.
    let nested = known.request.len() + result.len();
    let mut out = String::with_capacity(nested + nested / 8 + 256);
    out.push_str("{\n  \"schema\": ");
    json::write_escaped(SCHEMA, &mut out);
    out.push_str(",\n  \"digest\": ");
    json::write_escaped(&known.digest, &mut out);
    out.push_str(
        ",\n  \"job\": null,\n  \"cache_hit\": true,\n  \"status\": \"done\",\n  \"request\": ",
    );
    json::write_nested(&known.request, 1, &mut out);
    out.push_str(",\n  \"result\": ");
    json::write_nested(result, 1, &mut out);
    out.push_str(",\n  \"host\": {\n    \"wall_seconds\": ");
    json::write_f64(wall_seconds, &mut out);
    out.push_str("\n  }\n}\n\n");
    out.into_bytes()
}

/// Parses and validates a submitted body into its canonical request.
/// A body without `"type"` takes its endpoint's type.
fn validate(body: &[u8], endpoint: &str) -> Result<Json, Reply> {
    let text = std::str::from_utf8(body)
        .map_err(|_| json_reply(400, &err_body("request body is not UTF-8")))?;
    let mut doc = parse(text).map_err(|e| json_reply(400, &err_body(&format!("bad JSON: {e}"))))?;
    match doc.get("type").and_then(Json::as_str) {
        Some(t) if t != endpoint => {
            return Err(json_reply(
                400,
                &err_body(&format!(
                    "request type `{t}` does not match endpoint `/v1/{endpoint}`"
                )),
            ));
        }
        Some(_) => {}
        None => {
            // A bare document submitted to a typed endpoint gets the
            // endpoint's type (convenience); a non-object falls
            // through to the validator's error.
            if doc.members().is_some() && doc.get("type").is_none() {
                doc.set("type", Json::Str(endpoint.to_string()));
            }
        }
    }
    ServiceRequest::from_json(&doc)
        .map(|request| request.canonical_json())
        .map_err(|e| json_reply(422, &err_body(&e)))
}

/// How long a poller should wait before asking about a queued job:
/// a floor for the accept/queue round trip plus a per-queued-job term,
/// capped — deep queues should poll lazily, not never.
fn retry_after_secs(queue_depth: usize) -> f64 {
    (0.2 + 0.1 * queue_depth as f64).min(10.0)
}

impl Shared {
    fn endpoint_index(method: &str, path: &str) -> usize {
        let label = match (method, path) {
            ("POST", "/v1/run") => "run",
            ("POST", "/v1/sweep") => "sweep",
            ("POST", "/v1/shutdown") => "shutdown",
            ("GET", "/metrics") => "metrics",
            ("GET", "/healthz") => "healthz",
            ("GET", "/v1/jobs") => "jobs",
            ("GET", p) if p.starts_with("/v1/jobs/") => "jobs",
            ("GET", p) if p.starts_with("/v1/results/") => "results",
            _ => "other",
        };
        ENDPOINTS
            .iter()
            .position(|e| *e == label)
            .expect("known label")
    }

    fn route(&self, req: &Request) -> Reply {
        let start = Instant::now();
        let idx = Shared::endpoint_index(&req.method, &req.path);
        let reply = self.dispatch(req, start);
        let stats = &self.endpoints[idx];
        stats.requests.fetch_add(1, Ordering::Relaxed);
        stats
            .latency_us
            .lock()
            .expect("latency mutex poisoned")
            .record(u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX));
        reply
    }

    fn dispatch(&self, req: &Request, start: Instant) -> Reply {
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => {
                let status = if self.jobs.draining() {
                    "draining"
                } else {
                    "ok"
                };
                json_reply(
                    200,
                    &Json::obj()
                        .with("schema", Json::Str(SCHEMA.into()))
                        .with("status", Json::Str(status.into())),
                )
            }
            ("GET", "/metrics") => json_reply(200, &self.metrics_json()),
            ("POST", "/v1/run") => self.submit(&req.body, "run", start),
            ("POST", "/v1/sweep") => self.submit(&req.body, "sweep", start),
            ("POST", "/v1/shutdown") => {
                self.jobs.drain();
                json_reply(
                    200,
                    &Json::obj()
                        .with("schema", Json::Str(SCHEMA.into()))
                        .with("status", Json::Str("draining".into())),
                )
            }
            ("GET", "/v1/jobs") => self.job_list(),
            ("GET", p) if p.starts_with("/v1/jobs/") => self.job_status(&p["/v1/jobs/".len()..]),
            ("GET", p) if p.starts_with("/v1/results/") => self.result(&p["/v1/results/".len()..]),
            (
                "GET" | "POST",
                "/healthz" | "/metrics" | "/v1/run" | "/v1/sweep" | "/v1/shutdown",
            ) => json_reply(405, &err_body("method not allowed")),
            _ => json_reply(404, &err_body("no such endpoint")),
        }
    }

    /// `POST /v1/run` and `/v1/sweep`: answer from the cache on a digest
    /// hit, otherwise queue a job. A body this endpoint validated before
    /// takes its digest and request text from the memo.
    fn submit(&self, body: &[u8], endpoint: &str, start: Instant) -> Reply {
        let key = [endpoint.as_bytes(), b"\n", body].concat();
        let remembered = self
            .memo
            .lock()
            .expect("memo mutex poisoned")
            .get(key.as_slice());
        let (known, canonical) = match remembered {
            Some(known) => (known, None),
            None => {
                let canonical = match validate(body, endpoint) {
                    Ok(c) => c,
                    Err(reply) => return reply,
                };
                let known = Known {
                    digest: digest(&canonical).into(),
                    request: canonical.encode_pretty().into(),
                };
                if key.len() + known.request.len() <= MEMO_ENTRY_BYTES {
                    self.memo
                        .lock()
                        .expect("memo mutex poisoned")
                        .insert(key.into(), known.clone());
                }
                (known, Some(canonical))
            }
        };

        if let Some(stored) = self.cache.get(&known.digest) {
            let wall_seconds = start.elapsed().as_secs_f64();
            return Reply {
                status: 200,
                body: hit_body(&known, &stored, wall_seconds),
                retry_after: None,
            };
        }
        // A remembered body whose result is not cached takes the path of
        // a new one.
        match canonical.map_or_else(|| validate(body, endpoint), Ok) {
            Ok(canonical) => self.queue(&known.digest, canonical),
            Err(reply) => reply,
        }
    }

    /// Queues a job for a request whose result is not cached: 202 with
    /// the job's id, or 503 when the queue is full or the daemon drains.
    fn queue(&self, digest: &str, canonical: Json) -> Reply {
        let (job_id, status) = match self.jobs.submit(digest, &canonical.encode()) {
            Submit::New(id) => (id, "queued".to_string()),
            Submit::InFlight(id) => {
                let status = self
                    .jobs
                    .status(&id)
                    .map(|r| r.status.name().to_string())
                    .unwrap_or_else(|| "queued".to_string());
                (id, status)
            }
            Submit::QueueFull => {
                return json_reply(503, &err_body("job queue is full; retry later"));
            }
            Submit::Draining => {
                return json_reply(503, &err_body("server is draining; no new work"));
            }
        };
        let retry_after = retry_after_secs(self.jobs.queue_depth());
        let envelope = Json::obj()
            .with("schema", Json::Str(SCHEMA.into()))
            .with("digest", Json::Str(digest.to_string()))
            .with("job", Json::Str(job_id))
            .with("cache_hit", Json::Bool(false))
            .with("status", Json::Str(status))
            .with("retry_after_ms", Json::U64((retry_after * 1000.0) as u64))
            .with("request", canonical);
        let mut reply = json_reply(202, &envelope);
        reply.retry_after = Some(retry_after);
        reply
    }

    /// `GET /v1/jobs`: a bounded listing of live (queued/running) jobs,
    /// so a coordinator can observe worker load without guessing.
    fn job_list(&self) -> Reply {
        let (records, total) = self.jobs.list(JOB_LIST_LIMIT);
        let jobs = records
            .iter()
            .map(|rec| {
                Json::obj()
                    .with("job", Json::Str(rec.id.clone()))
                    .with("digest", Json::Str(rec.digest.clone()))
                    .with("status", Json::Str(rec.status.name().to_string()))
                    .with("progress_permille", Json::U64(rec.progress_permille))
            })
            .collect();
        json_reply(
            200,
            &Json::obj()
                .with("schema", Json::Str(SCHEMA.into()))
                .with("jobs", Json::Arr(jobs))
                .with("live", Json::U64(total as u64))
                .with("queue_depth", Json::U64(self.jobs.queue_depth() as u64))
                .with("draining", Json::Bool(self.jobs.draining())),
        )
    }

    fn job_status(&self, id: &str) -> Reply {
        let Some(rec) = self.jobs.status(id) else {
            return json_reply(404, &err_body("no such job"));
        };
        let mut doc = Json::obj()
            .with("schema", Json::Str(SCHEMA.into()))
            .with("job", Json::Str(rec.id.clone()))
            .with("digest", Json::Str(rec.digest.clone()))
            .with("status", Json::Str(rec.status.name().to_string()))
            .with("progress_permille", Json::U64(rec.progress_permille));
        if let JobStatus::Failed(e) = &rec.status {
            doc.set("error", Json::Str(e.clone()));
        }
        json_reply(200, &doc)
    }

    /// `GET /v1/results/<digest>`: the cached document bytes, verbatim —
    /// the endpoint the bitwise-identical contract rides on.
    fn result(&self, digest: &str) -> Reply {
        if !rmt_stats::digest::is_digest(digest) {
            return json_reply(400, &err_body("malformed digest"));
        }
        match self.cache.get(digest) {
            Some(text) => Reply {
                status: 200,
                body: text.as_bytes().to_vec(),
                retry_after: None,
            },
            None => json_reply(404, &err_body("no result under that digest")),
        }
    }

    fn metrics_json(&self) -> Json {
        let mut reg = MetricsRegistry::new();
        let cs = self.cache.stats();
        reg.counter("serve/cache/mem_hits", cs.mem_hits);
        reg.counter("serve/cache/disk_hits", cs.disk_hits);
        reg.counter("serve/cache/hits", cs.mem_hits + cs.disk_hits);
        reg.counter("serve/cache/misses", cs.misses);
        reg.counter("serve/cache/evictions", cs.evictions);
        reg.counter("serve/cache/corrupt", cs.corrupt);
        reg.counter(
            "serve/jobs/completed",
            self.jobs_completed.load(Ordering::Relaxed),
        );
        reg.counter(
            "serve/jobs/failed",
            self.jobs_failed.load(Ordering::Relaxed),
        );
        reg.gauge("serve/queue/depth", self.jobs.queue_depth() as f64);
        for (i, name) in ENDPOINTS.iter().enumerate() {
            let stats = &self.endpoints[i];
            reg.counter(
                &format!("serve/requests/{name}"),
                stats.requests.load(Ordering::Relaxed),
            );
            reg.histogram(
                &format!("serve/latency_us/{name}"),
                &stats.latency_us.lock().expect("latency mutex poisoned"),
            );
        }
        reg.snapshot().to_json()
    }
}

/// Reads requests off one connection (keep-alive, pipelined) until the
/// peer closes, errors, idles out, or sends something unsalvageable.
fn handle_connection(shared: Arc<Shared>, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let _ = stream.set_nodelay(true);
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 8192];
    loop {
        loop {
            match http::try_parse(&buf) {
                Ok(Some((req, used))) => {
                    buf.drain(..used);
                    let close = req.close;
                    let reply = shared.route(&req);
                    let extra: Vec<(&str, String)> = reply
                        .retry_after
                        .iter()
                        .map(|s| ("retry-after", format!("{s:.3}")))
                        .collect();
                    let bytes = http::response_with(
                        reply.status,
                        "application/json",
                        &extra,
                        &reply.body,
                        close,
                    );
                    if stream.write_all(&bytes).is_err() || close {
                        return;
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    let body = err_body(&e.to_string()).encode_pretty();
                    let _ = stream.write_all(&http::response(
                        e.status(),
                        "application/json",
                        body.as_bytes(),
                        true,
                    ));
                    return;
                }
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
    }
}

/// One worker: pull jobs until the table drains, execute each with a
/// progress sink wired to the job record, cache the result document.
fn worker_loop(shared: Arc<Shared>) {
    while let Some(job) = shared.jobs.next_job() {
        // The payload is the canonical document the submit path validated;
        // reparsing cannot fail short of an internal bug, which gets
        // reported as a failed job rather than a dead worker.
        let request = parse(&job.payload)
            .map_err(|e| e.to_string())
            .and_then(|doc| ServiceRequest::from_json(&doc));
        let request = match request {
            Ok(r) => r,
            Err(e) => {
                shared
                    .jobs
                    .fail(&job.id, format!("internal: canonical request invalid: {e}"));
                shared.jobs_failed.fetch_add(1, Ordering::Relaxed);
                continue;
            }
        };
        let sink_shared = Arc::clone(&shared);
        let sink_id = job.id.clone();
        let sink = ProgressSink::new(move |done, total| {
            let permille = done.saturating_mul(1000).checked_div(total).unwrap_or(0);
            sink_shared.jobs.set_progress(&sink_id, permille);
        });
        let inner_jobs = shared.cfg.inner_jobs;
        let outcome = catch_unwind(AssertUnwindSafe(|| request.execute(inner_jobs, Some(sink))));
        match outcome {
            Ok(Ok(doc)) => {
                let mut text = doc.encode_pretty();
                text.push('\n');
                if let Err(e) = shared.cache.put(&job.digest, &text) {
                    shared
                        .jobs
                        .fail(&job.id, format!("cache write failed: {e}"));
                    shared.jobs_failed.fetch_add(1, Ordering::Relaxed);
                } else {
                    shared.jobs.complete(&job.id);
                    shared.jobs_completed.fetch_add(1, Ordering::Relaxed);
                }
            }
            Ok(Err(e)) => {
                shared.jobs.fail(&job.id, e);
                shared.jobs_failed.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                shared.jobs.fail(&job.id, "simulation panicked".into());
                shared.jobs_failed.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Namespace for [`Server::start`].
#[derive(Debug)]
pub struct Server;

/// A running server: its bound address plus the thread handles needed to
/// wait for (or force) shutdown.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the accept loop and worker pool, and returns the
    /// handle. With port `0` the bound (ephemeral) port is in
    /// [`ServerHandle::addr`].
    ///
    /// # Errors
    ///
    /// Bind or cache-directory failures.
    pub fn start(cfg: ServerConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let cache = ResultCache::new(&cfg.cache_dir, cfg.mem_cache)?;
        let jobs = JobTable::new(cfg.queue_cap);
        let endpoints = ENDPOINTS
            .iter()
            .map(|name| EndpointStats {
                requests: AtomicU64::new(0),
                latency_us: Mutex::new(Histogram::new(
                    format!("serve/latency_us/{name}"),
                    LATENCY_BUCKET_US,
                    LATENCY_BUCKETS,
                )),
            })
            .collect();
        let shared = Arc::new(Shared {
            cfg,
            cache,
            memo: Mutex::new(Lru::new(MEMO_ENTRIES)),
            jobs,
            endpoints,
            jobs_completed: AtomicU64::new(0),
            jobs_failed: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..shared.cfg.workers.max(1))
            .map(|_| {
                let s = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(s))
            })
            .collect();
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::spawn(move || {
            accept_loop(accept_shared, listener);
        });
        Ok(ServerHandle {
            addr,
            shared,
            accept,
            workers,
        })
    }
}

/// Blocks in `accept` until [`ServerHandle::wait`] sets the shutdown flag
/// and connects to wake it.
fn accept_loop(shared: Arc<Shared>, listener: TcpListener) {
    loop {
        let accepted = listener.accept();
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                let s = Arc::clone(&shared);
                std::thread::spawn(move || handle_connection(s, stream));
            }
            // An error such as EMFILE can repeat at once; pause so a
            // failing accept does not spin.
            Err(_) => std::thread::sleep(Duration::from_millis(25)),
        }
    }
}

impl ServerHandle {
    /// The bound address (resolves the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the server shuts down gracefully — i.e. until a
    /// `POST /v1/shutdown` drains the queue and the workers exit — then
    /// wakes the blocked accept loop with a connection to itself.
    pub fn wait(self) {
        for w in self.workers {
            let _ = w.join();
        }
        self.shared.shutdown.store(true, Ordering::Relaxed);
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect(wake);
        let _ = self.accept.join();
    }

    /// Initiates a drain (as `POST /v1/shutdown` would) and waits.
    pub fn stop(self) {
        self.shared.jobs.drain();
        self.wait();
    }
}
