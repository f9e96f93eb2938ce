//! The experiment builder: one device configuration, one benchmark set,
//! one measured interval.

use rmt_core::device::{build_device, Device, LogicalThread};
use rmt_core::spec::MachineSpec;
use rmt_stats::{Json, MetricsRegistry};
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
            max_cycle_factor: 60,
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
    /// [`DeviceKind`] (`run` uses it, and the refactor-guard test pins its
    /// output).
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
        match self.run_inner(None) {
            Ok((result, _)) => Ok(result),
            Err(VerifyError::Sim(e)) => Err(e),
            Err(VerifyError::Divergence(_)) => unreachable!("no oracle attached"),
        }
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
        if self.benchmarks.is_empty() {
            return Err(VerifyError::Sim(SimError::NoBenchmarks));
        }
        // Mirror `build_device`'s Base2 doubling: the oracle keeps
        // one lane per *hardware* logical thread, so on Base2 both
        // copies are independently cross-checked.
        let mut threads = self.logical_threads();
        if self.kind() == DeviceKind::Base2 {
            threads = threads
                .iter()
                .flat_map(|t| [t.clone(), t.clone()])
                .collect();
        }
        let mut oracle = rmt_verify::Oracle::for_threads(&threads);
        let (result, commits_checked) = self.run_inner(Some(&mut oracle))?;
        Ok(VerifiedRun {
            result,
            commits_checked,
        })
    }

    fn run_inner(
        self,
        mut oracle: Option<&mut rmt_verify::Oracle>,
    ) -> Result<(RunResult, u64), VerifyError> {
        let budget = cycle_budget(self.warmup, self.measure, self.max_cycle_factor)
            .ok_or(VerifyError::Sim(SimError::BudgetOverflow))?;
        let mut device = self.build_device().map_err(VerifyError::Sim)?;
        if self.epoch > 0 {
            device.enable_epoch_sampling(self.epoch);
        }
        if let Some(o) = oracle.as_deref_mut() {
            o.attach(device.as_mut());
        }
        let logical_idx: Vec<usize> = match self.kind() {
            DeviceKind::Base2 => (0..self.benchmarks.len()).map(|i| 2 * i).collect(),
            _ => (0..self.benchmarks.len()).collect(),
        };

        // Per-thread measurement windows, as in the paper's fixed
        // instruction count per program: thread i's window opens when it
        // commits its `warmup`-th instruction and closes when it commits
        // `measure` more. This keeps fast threads' efficiency from being
        // inflated by the extra cache warmup they enjoy while slower
        // threads catch up.
        let n = logical_idx.len();
        let mut start_cycle: Vec<Option<u64>> = vec![None; n];
        let mut end_cycle: Vec<Option<u64>> = vec![None; n];
        let mut faults = 0usize;
        let target = self.warmup + self.measure;
        while end_cycle.iter().any(Option::is_none) {
            device.tick();
            if let Some(sink) = &self.progress {
                if device.cycle().is_multiple_of(PROGRESS_STRIDE) {
                    let slowest = logical_idx
                        .iter()
                        .map(|&i| device.committed(i))
                        .min()
                        .unwrap_or(0);
                    sink.report(slowest.min(target), target);
                }
            }
            if let Some(o) = oracle.as_deref_mut() {
                o.observe(device.as_mut())
                    .map_err(VerifyError::Divergence)?;
            }
            if device.cycle() > budget {
                return Err(VerifyError::Sim(SimError::Timeout {
                    cycles: device.cycle(),
                }));
            }
            for (k, &i) in logical_idx.iter().enumerate() {
                let c = device.committed(i);
                if start_cycle[k].is_none() && c >= self.warmup {
                    start_cycle[k] = Some(device.cycle());
                    // Only faults during measurement are reported.
                    faults = 0;
                }
                if start_cycle[k].is_some()
                    && end_cycle[k].is_none()
                    && c >= self.warmup + self.measure
                {
                    end_cycle[k] = Some(device.cycle());
                }
            }
            faults += device.drain_detected_faults().len();
        }
        if let Some(sink) = &self.progress {
            sink.report(target, target);
        }
        let total_cycles = end_cycle
            .iter()
            .map(|c| c.expect("all windows closed"))
            .max()
            .unwrap_or(0)
            - start_cycle
                .iter()
                .map(|c| c.expect("all windows opened"))
                .min()
                .unwrap_or(0);
        let per_thread = logical_idx
            .iter()
            .enumerate()
            .map(|(k, _)| ThreadOutcome {
                benchmark: self.benchmarks[k],
                committed: self.measure,
                cycles: end_cycle[k].expect("closed") - start_cycle[k].expect("opened"),
            })
            .collect();
        let mut reg = MetricsRegistry::new();
        device.export_metrics(&mut reg);
        let checked = oracle.map_or(0, |o| o.checked());
        Ok((
            RunResult {
                kind: self.kind(),
                cycles: total_cycles,
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

#[cfg(test)]
mod tests;
