//! Self-spawned local worker fleets: `--spawn N` launches N copies of
//! the current executable in `--worker` mode, each an embedded
//! `rmt-serve` on an ephemeral port with its own cache directory.
//!
//! The child advertises its bound address through an `--addr-file`
//! (written atomically by the server bootstrap); [`spawn_fleet`] waits
//! for every file to appear before returning, so callers always get a
//! connectable fleet or an error. Each child's stdout/stderr goes to a
//! log file next to its cache — `ci.sh` surfaces those on failure, and
//! chaos tests read nothing from them (kills are silent by design).
//!
//! Spawning the *current executable* rather than searching for a sibling
//! `rmt-serve` binary keeps the fleet robust to install layout and lets
//! integration tests drive real multi-process clusters via
//! `CARGO_BIN_EXE_rmt-cluster`.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long to wait for a spawned worker to write its address file.
const SPAWN_WAIT: Duration = Duration::from_secs(20);

/// One spawned worker process.
#[derive(Debug)]
pub struct LocalWorker {
    child: Child,
    /// The worker's bound `host:port` (read from its addr file).
    pub addr: String,
    /// The worker's captured stdout+stderr.
    pub log: PathBuf,
    /// Whether [`LocalFleet::kill`] already took this worker down.
    pub killed: bool,
}

/// A fleet of spawned local workers, reaped on drop.
#[derive(Debug)]
pub struct LocalFleet {
    /// The workers, in spawn order.
    pub workers: Vec<LocalWorker>,
}

impl LocalFleet {
    /// The fleet's dispatch addresses, in spawn order.
    pub fn addrs(&self) -> Vec<String> {
        self.workers.iter().map(|w| w.addr.clone()).collect()
    }

    /// Kills worker `i` (SIGKILL — simulating a crashed machine, not a
    /// graceful drain). Idempotent.
    pub fn kill(&mut self, i: usize) {
        if let Some(w) = self.workers.get_mut(i) {
            if !w.killed {
                let _ = w.child.kill();
                let _ = w.child.wait();
                w.killed = true;
            }
        }
    }

    /// Kills every remaining worker.
    pub fn kill_all(&mut self) {
        for i in 0..self.workers.len() {
            self.kill(i);
        }
    }

    /// The tail of every worker's log, labeled — surfaced on failure.
    pub fn logs(&self) -> String {
        let mut out = String::new();
        for w in &self.workers {
            let text = std::fs::read_to_string(&w.log).unwrap_or_default();
            let tail: Vec<&str> = text.lines().rev().take(20).collect();
            out.push_str(&format!(
                "--- worker {} ({}) ---\n",
                w.addr,
                w.log.display()
            ));
            for line in tail.iter().rev() {
                out.push_str(line);
                out.push('\n');
            }
        }
        out
    }
}

impl Drop for LocalFleet {
    fn drop(&mut self) {
        self.kill_all();
    }
}

/// Spawns `n` workers of the current executable (files under `dir`, each
/// simulation on `jobs` threads) and waits until all advertise an address.
///
/// # Errors
///
/// Spawn failures, or a worker that never writes its addr file inside
/// the wait budget (its log tail is included in the message).
pub fn spawn_fleet(n: usize, dir: &Path, jobs: usize) -> Result<LocalFleet, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot resolve own binary: {e}"))?;
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut fleet = LocalFleet {
        workers: Vec::new(),
    };
    for i in 0..n.max(1) {
        let addr_file = dir.join(format!("w{i}.addr"));
        let log = dir.join(format!("w{i}.log"));
        let cache = dir.join(format!("cache{i}"));
        std::fs::remove_file(&addr_file).ok();
        let log_out = std::fs::File::create(&log).map_err(|e| format!("{}: {e}", log.display()))?;
        let log_err = log_out
            .try_clone()
            .map_err(|e| format!("{}: {e}", log.display()))?;
        let child = Command::new(&exe)
            .args([
                "--worker",
                "--addr-file",
                &addr_file.display().to_string(),
                "--cache-dir",
                &cache.display().to_string(),
                "--jobs",
                &jobs.to_string(),
            ])
            .stdin(Stdio::null())
            .stdout(log_out)
            .stderr(log_err)
            .spawn()
            .map_err(|e| format!("spawning worker {i}: {e}"))?;
        fleet.workers.push(LocalWorker {
            child,
            addr: String::new(),
            log,
            killed: false,
        });
    }
    // Second pass: wait for every address to appear.
    for (i, worker) in fleet.workers.iter_mut().enumerate() {
        let addr_file = dir.join(format!("w{i}.addr"));
        match wait_for_addr(&addr_file, &mut worker.child) {
            Ok(addr) => worker.addr = addr,
            Err(e) => {
                let log = std::fs::read_to_string(&worker.log).unwrap_or_default();
                let tail: Vec<&str> = log.lines().rev().take(10).collect();
                let mut tail: Vec<&str> = tail.into_iter().rev().collect();
                if tail.is_empty() {
                    tail.push("(empty log)");
                }
                return Err(format!(
                    "worker {i} never came up: {e}\n{}",
                    tail.join("\n")
                ));
            }
        }
    }
    Ok(fleet)
}

fn wait_for_addr(addr_file: &Path, child: &mut Child) -> Result<String, String> {
    let deadline = Instant::now() + SPAWN_WAIT;
    loop {
        if let Ok(text) = std::fs::read_to_string(addr_file) {
            let addr = text.trim().to_string();
            if !addr.is_empty() {
                return Ok(addr);
            }
        }
        if let Ok(Some(status)) = child.try_wait() {
            return Err(format!("worker exited early ({status})"));
        }
        if Instant::now() >= deadline {
            return Err(format!(
                "no address in {} after {SPAWN_WAIT:?}",
                addr_file.display()
            ));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}
