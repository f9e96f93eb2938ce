//! `rmtc` — client for the `rmt-serve` daemon.
//!
//! ```text
//! rmtc [--server HOST:PORT] submit FILE [--wait] [--poll-ms N]
//!          [--out ENVELOPE] [--result-out RESULT]
//!          [--expect-hit | --expect-miss]
//! rmtc [--server HOST:PORT] status JOB-ID
//! rmtc [--server HOST:PORT] result DIGEST [--out PATH]
//! rmtc [--server HOST:PORT] metrics
//! rmtc [--server HOST:PORT] health
//! rmtc [--server HOST:PORT] shutdown
//! ```
//!
//! The server address comes from `--server` or the `RMT_SERVE_ADDR`
//! environment variable. `submit` posts the request file to `/v1/run` or
//! `/v1/sweep` (chosen by the document's `"type"`); `--result-out`
//! implies `--wait` and fetches the result document from
//! `/v1/results/<digest>` — raw cached bytes, so two fetches of one
//! digest are bitwise identical. `--expect-hit`/`--expect-miss` turn the
//! envelope's `cache_hit` flag into an exit code for scripting
//! (`scripts/ci.sh` asserts the cache contract with these).

use rmt_serve::client::{Client, Response};
use rmt_stats::cli::{self, Args};
use rmt_stats::fields::{FieldError, Fields};
use rmt_stats::json::parse;
use rmt_stats::Json;
use std::time::Duration;

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

/// Expectation/job failures — distinct from usage errors for scripts.
fn refuse(msg: &str) -> ! {
    eprintln!("rmtc: {msg}");
    std::process::exit(1)
}

fn body_json(resp: &Response) -> Json {
    parse(&resp.text()).unwrap_or_else(|e| fail(&format!("server sent invalid JSON: {e}")))
}

/// What the server's document holds at a key, or a usage-style exit.
fn read<T>(got: Result<T, FieldError>) -> T {
    got.unwrap_or_else(|e| fail(&format!("unexpected server document: {e}")))
}

fn expect_2xx(resp: &Response, what: &str) {
    if resp.status / 100 != 2 {
        refuse(&format!(
            "{what} failed ({}): {}",
            resp.status,
            resp.text().trim()
        ));
    }
}

fn write_out(path: &str, bytes: &[u8]) {
    std::fs::write(path, bytes).unwrap_or_else(|e| fail(&format!("{path}: {e}")));
}

const USAGE: &str =
    "usage: rmtc [--server HOST:PORT] submit FILE [--wait] [--poll-ms N] [--out PATH]
    [--result-out PATH] [--expect-hit|--expect-miss] | status JOB-ID | result DIGEST [--out PATH]
    | metrics | health | shutdown";

#[derive(Debug, Default, PartialEq)]
struct SubmitOpts {
    file: String,
    wait: bool,
    poll_ms: u64,
    out: Option<String>,
    result_out: Option<String>,
    expect: Option<bool>,
}

#[derive(Debug, PartialEq)]
enum Command {
    Submit(SubmitOpts),
    /// GET a path; print the body, or write it to the path given.
    Get(String, Option<String>),
    Shutdown,
}

/// `(server address, command)`; `env_server` is `RMT_SERVE_ADDR`.
fn parse_args(mut argv: Args, env_server: Option<String>) -> Result<(String, Command), String> {
    let mut server = env_server.unwrap_or_default();
    let mut cmd = argv.next().ok_or("missing command")?;
    if cmd == "--server" {
        server = argv.value(&cmd)?;
        cmd = argv.next().ok_or("missing command")?;
    }
    if server.is_empty() {
        return Err("no server address: pass --server HOST:PORT or set RMT_SERVE_ADDR".into());
    }
    let command = match cmd.as_str() {
        "submit" => Command::Submit(parse_submit(&mut argv)?),
        "status" => Command::Get(format!("/v1/jobs/{}", argv.value(&cmd)?), None),
        "result" => {
            let path = format!("/v1/results/{}", argv.value(&cmd)?);
            match argv.next() {
                None => Command::Get(path, None),
                Some(a) if a == "--out" => Command::Get(path, Some(argv.value(&a)?)),
                Some(a) => return Err(cli::unexpected(&a)),
            }
        }
        "metrics" => Command::Get("/metrics".into(), None),
        "health" => Command::Get("/healthz".into(), None),
        "shutdown" => Command::Shutdown,
        _ => return Err(format!("unknown command `{cmd}`")),
    };
    argv.end()?;
    Ok((server, command))
}

fn main() {
    let (server, command) = cli::run(USAGE, |argv| {
        parse_args(argv, std::env::var("RMT_SERVE_ADDR").ok())
    });
    let mut client = Client::new(&server);
    match command {
        Command::Submit(opts) => submit(&mut client, opts),
        Command::Get(path, out) => {
            let resp = get(&mut client, &path);
            expect_2xx(&resp, &format!("GET {path}"));
            match out {
                Some(out) => write_out(&out, &resp.body),
                None => print!("{}", resp.text()),
            }
        }
        Command::Shutdown => {
            let resp = post(&mut client, "/v1/shutdown", b"");
            expect_2xx(&resp, "shutdown");
            print!("{}", resp.text());
        }
    }
}

fn get(client: &mut Client, path: &str) -> Response {
    client
        .get(path)
        .unwrap_or_else(|e| fail(&format!("GET {path}: {e}")))
}

fn post(client: &mut Client, path: &str, body: &[u8]) -> Response {
    client
        .post(path, body)
        .unwrap_or_else(|e| fail(&format!("POST {path}: {e}")))
}

fn parse_submit(argv: &mut Args) -> Result<SubmitOpts, String> {
    let file = argv.value("submit")?;
    if file.starts_with('-') {
        return Err(cli::unexpected(&file));
    }
    let mut opts = SubmitOpts {
        file,
        poll_ms: 200,
        ..SubmitOpts::default()
    };
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--wait" => opts.wait = true,
            "--poll-ms" => opts.poll_ms = argv.parse(&a)?,
            "--out" => opts.out = Some(argv.value(&a)?),
            "--result-out" => opts.result_out = Some(argv.value(&a)?),
            "--expect-hit" => opts.expect = Some(true),
            "--expect-miss" => opts.expect = Some(false),
            _ => return Err(cli::unexpected(&a)),
        }
    }
    opts.wait |= opts.result_out.is_some();
    Ok(opts)
}

fn submit(client: &mut Client, opts: SubmitOpts) {
    let text = std::fs::read_to_string(&opts.file)
        .unwrap_or_else(|e| fail(&format!("{}: {e}", opts.file)));
    let doc = parse(&text).unwrap_or_else(|e| fail(&format!("{}: invalid JSON: {e}", opts.file)));
    let endpoint = match Fields::new(&doc).and_then(|mut f| f.opt("type", Fields::str)) {
        Ok(Some("sweep")) => "/v1/sweep",
        _ => "/v1/run",
    };
    let resp = post(client, endpoint, text.as_bytes());
    expect_2xx(&resp, "submit");
    if let Some(path) = &opts.out {
        write_out(path, &resp.body);
    }
    let envelope = body_json(&resp);
    let mut f = read(Fields::new(&envelope));
    let digest = read(f.str("digest")).to_string();
    let hit = read(f.bool("cache_hit"));
    match opts.expect {
        Some(true) if !hit => refuse("expected a cache hit but the request missed"),
        Some(false) if hit => refuse("expected a cache miss but the request hit"),
        _ => {}
    }
    eprintln!(
        "submitted {} -> digest {digest} ({})",
        opts.file,
        if hit { "cache hit" } else { "queued" }
    );

    if !hit && opts.wait {
        let job = read(f.str("job"));
        loop {
            std::thread::sleep(Duration::from_millis(opts.poll_ms));
            let status_doc = body_json(&get(client, &format!("/v1/jobs/{job}")));
            let mut status = read(Fields::new(&status_doc));
            match read(status.str("status")) {
                "done" => break,
                "failed" => refuse(&format!("job {job} failed: {}", read(status.str("error")))),
                state => {
                    let pm = read(status.u64("progress_permille"));
                    eprintln!("  {job}: {state} ({}.{}%)", pm / 10, pm % 10);
                }
            }
        }
    }
    if let Some(path) = &opts.result_out {
        let resp = get(client, &format!("/v1/results/{digest}"));
        expect_2xx(&resp, "result fetch");
        write_out(path, &resp.body);
        eprintln!("result {digest} -> {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(String, Command), String> {
        parse_args(Args::new(args.iter().copied()), None)
    }

    #[test]
    fn parses_commands_and_the_server_address() {
        let (server, cmd) = parse(&["--server", "h:1", "result", "d", "--out", "p"]).unwrap();
        let want = Command::Get("/v1/results/d".into(), Some("p".into()));
        assert_eq!((server.as_str(), cmd), ("h:1", want));
        let env = Some("e:2".to_string());
        let (server, cmd) =
            parse_args(Args::new(["submit", "f", "--result-out", "r"]), env).unwrap();
        assert_eq!(server, "e:2");
        let Command::Submit(opts) = cmd else {
            panic!("submit parses to Submit")
        };
        assert!(opts.wait, "--result-out implies --wait");
    }

    #[test]
    fn refuses_stray_and_incomplete_arguments() {
        let refused = |args: &[&str]| parse(args).expect_err("a bad command line");
        assert_eq!(
            refused(&["--server", "h:1", "health", "extra"]),
            "unexpected argument `extra`"
        );
        assert_eq!(
            refused(&["--server", "h:1", "result", "d", "--bogus", "p"]),
            "unexpected argument `--bogus`"
        );
        assert_eq!(
            refused(&["--server", "h:1", "result", "d", "--out"]),
            "`--out` needs a value"
        );
        assert!(refused(&["--server", "h:1", "submit", "--wait"]).contains("--wait"));
        assert!(refused(&["--server", "h:1", "bogus"]).contains("bogus"));
        assert!(refused(&["health"]).contains("no server address"));
    }
}
