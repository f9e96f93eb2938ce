//! The experiment builder: one device configuration, one benchmark set,
//! one measured interval.

use rmt_core::device::{build_device, Device, LogicalThread};
use rmt_core::spec::MachineSpec;
use rmt_stats::{Json, MetricsRegistry};
use rmt_verify::Oracle;
use rmt_workloads::{Benchmark, Workload};

pub use crate::outcome::{RunResult, SimError, ThreadOutcome, VerifiedRun, VerifyError};
pub use crate::runner::ProgressSink;
pub use rmt_core::spec::DeviceKind;

/// How often (in device cycles) a run with a progress sink samples its
/// committed-instruction counters. Observation cadence only: the sink
/// never influences the simulation.
const PROGRESS_STRIDE: u64 = 4_096;

/// A run's cycle budget, `(warmup + measure) * max_cycle_factor +
/// 200_000`, or `None` when it overflows a `u64` (service requests are
/// then rejected at parse time, experiments fail before simulating).
pub fn cycle_budget(warmup: u64, measure: u64, max_cycle_factor: u64) -> Option<u64> {
    warmup
        .checked_add(measure)?
        .checked_mul(max_cycle_factor)?
        .checked_add(200_000)
}

/// Builder for one simulation run.
///
/// The machine itself is one [`MachineSpec`], given up front
/// ([`Experiment::from_spec`]) or edited by [`Experiment::set`] key-path
/// overrides, which apply immediately and compose in call order. The
/// resolved spec is embedded in the [`RunResult`] as its `config`.
///
/// See the crate-level example.
#[derive(Debug, Clone)]
pub struct Experiment {
    spec: MachineSpec,
    pub(crate) benchmarks: Vec<Benchmark>,
    pub(crate) seed: u64,
    pub(crate) warmup: u64,
    pub(crate) measure: u64,
    pub(crate) max_cycle_factor: u64,
    epoch: u64,
    progress: Option<ProgressSink>,
}

impl Experiment {
    /// Starts an experiment on the given machine kind, with
    /// [`MachineSpec::for_kind`]'s historical per-kind defaults.
    pub fn new(kind: DeviceKind) -> Self {
        Experiment::from_spec(MachineSpec::for_kind(kind))
    }

    /// Starts an experiment on an explicit machine spec (config files,
    /// sweep cells).
    pub fn from_spec(spec: MachineSpec) -> Self {
        Experiment {
            spec,
            benchmarks: Vec::new(),
            seed: 1,
            warmup: 20_000,
            measure: 100_000,
            max_cycle_factor: crate::service::RUN_MAX_CYCLE_FACTOR,
            epoch: 0,
            progress: None,
        }
    }

    /// The machine kind this experiment builds.
    pub fn kind(&self) -> DeviceKind {
        self.spec.scheme.kind
    }

    /// The experiment's machine spec.
    pub fn spec(&self) -> &MachineSpec {
        &self.spec
    }

    /// Adds one benchmark (one logical thread).
    pub fn benchmark(mut self, b: Benchmark) -> Self {
        self.benchmarks.push(b);
        self
    }

    /// Adds several benchmarks (logical threads).
    pub fn benchmarks(mut self, bs: &[Benchmark]) -> Self {
        self.benchmarks.extend_from_slice(bs);
        self
    }

    /// Workload seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Instructions each logical thread commits before measurement starts.
    pub fn warmup(mut self, n: u64) -> Self {
        self.warmup = n;
        self
    }

    /// Instructions each logical thread commits inside the measured
    /// interval.
    pub fn measure(mut self, n: u64) -> Self {
        self.measure = n;
        self
    }

    /// Overrides one spec leaf by dotted key path
    /// (`.set("core.sq_entries", Json::U64(16))`), applied immediately:
    /// a later override sees (and may overwrite) an earlier one.
    ///
    /// # Panics
    ///
    /// On an unknown key path or ill-typed value. CLI layers validate
    /// overrides against the base spec before fanning them across a
    /// figure's experiments, so a failure here is a programming error.
    pub fn set(mut self, path: &str, value: Json) -> Self {
        if let Err(e) = self.spec.set(path, value) {
            panic!("experiment override failed: {e}");
        }
        self
    }

    /// Raises the cycle-budget multiplier (slow configurations).
    pub fn max_cycle_factor(mut self, factor: u64) -> Self {
        self.max_cycle_factor = factor;
        self
    }

    /// Samples the device's full metric registry every `every` cycles into
    /// per-epoch deltas, delivered on [`RunResult::timeseries`]. `0` (the
    /// default) disables sampling and leaves the time series empty.
    pub fn epoch(mut self, every: u64) -> Self {
        self.epoch = every;
        self
    }

    /// Installs a [`ProgressSink`] to call periodically during the run
    /// with `(instructions committed, warmup + measure)` — the slowest
    /// thread's count, clamped to the target, so `done == total` exactly
    /// at completion. Pure observation: the run's result is bit-for-bit
    /// identical with or without a sink (asserted in tests), which is what
    /// lets the serving layer report live job progress without forfeiting
    /// the cacheability of the result.
    pub fn with_progress(mut self, sink: ProgressSink) -> Self {
        self.progress = Some(sink);
        self
    }

    fn logical_threads(&self) -> Vec<LogicalThread> {
        self.benchmarks
            .iter()
            .map(|&b| LogicalThread::from(&Workload::generate(b, self.seed)))
            .collect()
    }

    /// Builds the device this experiment is configured for with
    /// [`rmt_core::build_device`] — the one construction path for every
    /// [`DeviceKind`], which full and sampled runs take too (the
    /// refactor-guard test pins its output).
    ///
    /// # Errors
    ///
    /// [`SimError::NoBenchmarks`] if no benchmark was added.
    pub fn build_device(&self) -> Result<Box<dyn Device>, SimError> {
        if self.benchmarks.is_empty() {
            return Err(SimError::NoBenchmarks);
        }
        Ok(build_device(&self.spec, self.logical_threads()))
    }

    /// Runs the experiment.
    ///
    /// # Errors
    ///
    /// [`SimError::NoBenchmarks`] if no benchmark was added;
    /// [`SimError::BudgetOverflow`] if the cycle budget does not fit in a
    /// `u64`; [`SimError::Timeout`] if the run exceeds it.
    pub fn run(self) -> Result<RunResult, SimError> {
        unverified(self.run_inner(false)).map(|(result, _)| result)
    }

    /// Runs the experiment with the differential co-simulation oracle
    /// cross-checking every committed instruction (from cycle 0, warmup
    /// included) against the `rmt-isa` reference interpreter.
    ///
    /// # Errors
    ///
    /// [`VerifyError::Sim`] wraps the ordinary [`SimError`]s;
    /// [`VerifyError::Divergence`] reports the first commit whose
    /// `(pc, register write, load, store)` tuple disagrees with the
    /// reference model, with a trail of the preceding commits.
    pub fn run_verified(self) -> Result<VerifiedRun, VerifyError> {
        let (result, commits_checked) = self.run_inner(true)?;
        Ok(VerifiedRun {
            result,
            commits_checked,
        })
    }

    /// Builds this experiment's device around `threads` (one per program)
    /// and, when `verify`, an oracle attached to it with one lane per
    /// hardware copy ([`DeviceKind::copies`]), seeded like the device.
    pub(crate) fn device_and_oracle(
        &self,
        threads: Vec<LogicalThread>,
        verify: bool,
    ) -> (Box<dyn Device>, Option<Oracle>) {
        let copies = self.kind().copies();
        let oracle = verify.then(|| {
            Oracle::new(
                threads
                    .iter()
                    .flat_map(|t| std::iter::repeat_n(t, copies))
                    .map(|t| (t.program.clone(), t.memory.clone()))
                    .collect(),
            )
        });
        let mut device = build_device(&self.spec, threads);
        if let Some(o) = &oracle {
            o.attach(device.as_mut());
        }
        (device, oracle)
    }

    fn run_inner(self, verify: bool) -> Result<(RunResult, u64), VerifyError> {
        let budget = cycle_budget(self.warmup, self.measure, self.max_cycle_factor)
            .ok_or(VerifyError::Sim(SimError::BudgetOverflow))?;
        if self.benchmarks.is_empty() {
            return Err(VerifyError::Sim(SimError::NoBenchmarks));
        }
        let (mut device, mut oracle) = self.device_and_oracle(self.logical_threads(), verify);
        if self.epoch > 0 {
            device.enable_epoch_sampling(self.epoch);
        }
        let copies = self.kind().copies();
        let lanes: Vec<(usize, u64)> = (0..self.benchmarks.len())
            .map(|t| (t * copies, self.warmup))
            .collect();
        let target = self.warmup + self.measure;
        let mut faults = 0usize;
        let windows = run_windows(
            device.as_mut(),
            &lanes,
            self.measure,
            budget,
            oracle.as_mut(),
            |device, opened| {
                // Only faults during measurement are reported: the count
                // restarts on the tick any window opens.
                if opened {
                    faults = 0;
                }
                faults += device.drain_detected_faults().len();
                if let Some(sink) = &self.progress {
                    if device.cycle().is_multiple_of(PROGRESS_STRIDE) {
                        let slowest = lanes.iter().map(|&(i, _)| device.committed(i)).min();
                        sink.report(slowest.unwrap_or(0).min(target), target);
                    }
                }
            },
        )?;
        if let Some(sink) = &self.progress {
            sink.report(target, target);
        }
        let first_open = windows.iter().map(|w| w.0).min().unwrap_or(0);
        let last_close = windows.iter().map(|w| w.1).max().unwrap_or(0);
        let per_thread = self
            .benchmarks
            .iter()
            .zip(&windows)
            .map(|(&benchmark, &(open, close))| ThreadOutcome {
                benchmark,
                committed: self.measure,
                cycles: close - open,
            })
            .collect();
        let mut reg = MetricsRegistry::new();
        device.export_metrics(&mut reg);
        let checked = oracle.map_or(0, |o| o.checked());
        Ok((
            RunResult {
                kind: self.kind(),
                cycles: last_close - first_open,
                per_thread,
                faults_detected: faults,
                metrics: reg.snapshot(),
                timeseries: device.take_timeseries(),
                config: self.spec.to_json(),
            },
            checked,
        ))
    }
}

/// The [`SimError`] of a run made without an oracle (which cannot
/// diverge).
pub(crate) fn unverified<T>(r: Result<T, VerifyError>) -> Result<T, SimError> {
    r.map_err(|e| match e {
        VerifyError::Sim(e) => e,
        VerifyError::Divergence(_) => unreachable!("no oracle attached"),
    })
}

/// Ticks `device` until every measured lane has opened and then closed
/// its window — the per-thread measured interval of the paper's fixed
/// instruction count per program, shared by full, verified and sampled
/// runs. Lane `(i, open_at)` measures the device's logical thread `i`:
/// its window opens on the tick its committed count reaches `open_at`
/// and closes on the tick it reaches `open_at + measure`. Per-thread
/// windows keep fast threads' efficiency from being inflated by the
/// extra cache warmup they enjoy while slower threads catch up.
///
/// After each tick the oracle, if any, checks the new commits, a cycle
/// past `deadline` fails the run with [`SimError::Timeout`], and then
/// `on_tick` sees the device and whether a window opened on that tick.
///
/// Returns each lane's `(open, close)` cycles.
pub(crate) fn run_windows(
    device: &mut dyn Device,
    lanes: &[(usize, u64)],
    measure: u64,
    deadline: u64,
    mut oracle: Option<&mut Oracle>,
    mut on_tick: impl FnMut(&mut dyn Device, bool),
) -> Result<Vec<(u64, u64)>, VerifyError> {
    let mut open: Vec<Option<u64>> = vec![None; lanes.len()];
    let mut close: Vec<Option<u64>> = vec![None; lanes.len()];
    while close.iter().any(Option::is_none) {
        device.tick();
        if let Some(o) = oracle.as_deref_mut() {
            o.observe(device).map_err(VerifyError::Divergence)?;
        }
        let cycle = device.cycle();
        if cycle > deadline {
            return Err(VerifyError::Sim(SimError::Timeout { cycles: cycle }));
        }
        let mut opened = false;
        for (k, &(i, open_at)) in lanes.iter().enumerate() {
            let c = device.committed(i);
            if open[k].is_none() && c >= open_at {
                open[k] = Some(cycle);
                opened = true;
            }
            if open[k].is_some() && close[k].is_none() && c >= open_at + measure {
                close[k] = Some(cycle);
            }
        }
        on_tick(device, opened);
    }
    Ok(open
        .into_iter()
        .zip(close)
        .map(|(o, c)| (o.expect("opened"), c.expect("closed")))
        .collect())
}

#[cfg(test)]
mod tests;
