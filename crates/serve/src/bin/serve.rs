//! `rmt-serve` — the simulation daemon.
//!
//! ```text
//! rmt-serve [--addr HOST:PORT] [--cache-dir DIR] [--workers N]
//!           [--queue-depth N] [--mem-cache N] [--jobs N]
//!           [--addr-file PATH]
//! ```
//!
//! Binds (port `0` picks an ephemeral port; the resolved address is
//! printed and, with `--addr-file`, written to a file for scripts),
//! serves until a `POST /v1/shutdown` drains the job queue, then exits.
//! `rmt-cluster --worker` takes the same command line
//! ([`rmt_serve::daemon`]).
//!
//! Endpoints: `POST /v1/run`, `POST /v1/sweep`, `GET /v1/jobs/<id>`,
//! `GET /v1/results/<digest>`, `GET /metrics`, `GET /healthz`,
//! `POST /v1/shutdown`.

use rmt_serve::daemon;
use rmt_stats::cli;

const USAGE: &str = "usage: rmt-serve [--addr HOST:PORT] [--cache-dir DIR] [--workers N] \
                     [--queue-depth N] [--mem-cache N] [--jobs N] [--addr-file PATH]";

fn main() {
    let (cfg, addr_file) = cli::run(USAGE, daemon::parse);
    if let Err(e) = daemon::run(&cfg, addr_file.as_deref()) {
        eprintln!("error: {e}");
        std::process::exit(2)
    }
}
