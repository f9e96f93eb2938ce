//! The daemon command line, shared by `rmt-serve` and
//! `rmt-cluster --worker`.

use crate::server::{Server, ServerConfig};
use rmt_stats::cli::{self, Args};
use std::path::{Path, PathBuf};

/// Parses the daemon flags into the server to start (`--jobs` sets
/// `inner_jobs`; unset flags keep their defaults) and the file to write
/// its bound address to (`--addr-file`), or names the flag that is wrong.
pub fn parse(mut argv: Args) -> Result<(ServerConfig, Option<PathBuf>), String> {
    let (mut cfg, mut addr_file) = (ServerConfig::default(), None);
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--addr" => cfg.addr = argv.value(&a)?,
            "--cache-dir" => cfg.cache_dir = argv.value(&a)?.into(),
            "--workers" => cfg.workers = argv.count(&a)?,
            "--queue-depth" => cfg.queue_cap = argv.count(&a)?,
            "--mem-cache" => cfg.mem_cache = argv.parse(&a)?,
            "--jobs" => cfg.inner_jobs = argv.count(&a)?,
            "--addr-file" => addr_file = Some(argv.value(&a)?.into()),
            _ => return Err(cli::unexpected(&a)),
        }
    }
    Ok((cfg, addr_file))
}

/// Starts the server, prints (and writes to the addr file) its bound
/// address, and serves until `POST /v1/shutdown` drains the job queue.
pub fn run(cfg: &ServerConfig, addr_file: Option<&Path>) -> Result<(), String> {
    let handle =
        Server::start(cfg.clone()).map_err(|e| format!("cannot start on {}: {e}", cfg.addr))?;
    let addr = handle.addr();
    println!(
        "rmt-serve listening on {addr} (cache: {}, workers: {}, queue: {})",
        cfg.cache_dir.display(),
        cfg.workers.max(1),
        cfg.queue_cap
    );
    if let Some(path) = addr_file {
        std::fs::write(path, format!("{addr}\n"))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    handle.wait();
    println!("rmt-serve drained; exiting");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(args: &[&str]) -> Result<(ServerConfig, Option<PathBuf>), String> {
        parse(Args::new(args.iter().copied()))
    }

    #[test]
    fn flags_set_the_server_config_and_defaults_stay() {
        let (cfg, addr_file) =
            parse_str(&["--jobs", "3", "--workers", "4", "--addr-file", "a"]).unwrap();
        assert_eq!((cfg.inner_jobs, cfg.workers), (3, 4));
        assert_eq!(addr_file, Some(PathBuf::from("a")));
        let dflt = ServerConfig::default();
        assert_eq!(
            (cfg.queue_cap, cfg.mem_cache),
            (dflt.queue_cap, dflt.mem_cache)
        );
    }

    #[test]
    fn refuses_old_spellings_missing_values_and_zero_counts() {
        let err = parse_str(&["--inner-jobs", "2"]).unwrap_err();
        assert_eq!(err, "unexpected argument `--inner-jobs`");
        assert_eq!(
            parse_str(&["--addr"]).unwrap_err(),
            "`--addr` needs a value"
        );
        assert!(parse_str(&["--queue-depth", "0"])
            .unwrap_err()
            .contains("--queue-depth"));
    }
}
