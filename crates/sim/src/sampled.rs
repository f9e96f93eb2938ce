//! SMARTS-style sampled runs over the experiment fabric.
//!
//! A sampled run replaces one long detailed interval with a handful of
//! short detailed windows: the workload is fast-forwarded *functionally*
//! (the `rmt-isa` reference interpreter), a draining architectural
//! [`Checkpoint`] is taken before each planned window, and **one** device
//! of the experiment's kind serves every window — at each window entry
//! the machine's architectural state moves to the checkpoint (memory
//! image installed, registers and PC restored) while its caches and
//! predictors stay warm, then the fast-forward gap's event log is
//! replayed into them. Warmth therefore accumulates across the whole run
//! exactly as SMARTS' always-on functional warming intends. Each window
//! runs `plan.warmup` committed instructions of detailed warmup, then
//! measures IPC over `plan.measure` committed instructions; the
//! per-window IPCs aggregate into a mean with a 95% confidence interval
//! (`rmt_stats::mean_ci95`).
//!
//! Checkpoints are kind-independent: a [`CheckpointLadder`] produced by
//! one fast-forward pass re-enters every [`DeviceKind`], so grid figures
//! generate it once per benchmark and share it across columns.
//!
//! Determinism matches the rest of the harness: everything is a pure
//! function of `(kind, benchmarks, seed, scale, plan)`, so sampled
//! figures are bitwise identical at any `--jobs` level and a plan with
//! one window positioned at the start of the measured interval
//! reproduces the full run's cycles exactly (the sampled determinism
//! tests assert both).

use crate::experiment::{
    cycle_budget, run_windows, unverified, DeviceKind, Experiment, SimError, VerifyError,
};
use rmt_core::device::LogicalThread;
use rmt_isa::{MemImage, Program};
use rmt_sample::{Checkpoint, FastForward, SamplePlan};
use rmt_stats::{mean_ci95, Estimate};
use rmt_workloads::Workload;
use std::rc::Rc;

/// The outcome of one sampled run: per-logical-thread IPC estimators
/// plus the work accounting the validation harness reports.
#[derive(Debug, Clone, PartialEq)]
pub struct SampledResult {
    /// Machine kind.
    pub kind: DeviceKind,
    /// Per-logical-thread IPC estimate over the windows.
    pub ipc: Vec<Estimate>,
    /// Per-logical-thread, per-window measured IPCs (window-major inner
    /// vectors), for paired estimators across kinds.
    pub window_ipc: Vec<Vec<f64>>,
    /// Detailed cycles simulated, summed over windows.
    pub cycles: u64,
    /// Detailed instructions simulated (warmup + measure, all windows,
    /// all logical threads).
    pub detailed_instructions: u64,
    /// Instructions executed by the functional fast-forward interpreters.
    pub fastforward_instructions: u64,
}

/// The kind-independent product of one functional fast-forward pass over
/// an experiment's workloads: the checkpoints every planned window
/// re-enters. Any [`DeviceKind`] with the same `(benchmarks, seed,
/// warmup, measure)` can consume the same ladder, so grid figures
/// generate it once per benchmark and share it across device columns.
/// Its checkpoints keep what each gap changed, not copies: each thread's
/// first checkpoint holds its memory image whole and every later one
/// only the words written since the one before it, and their warming
/// logs are packed ([`rmt_sample::WarmLog`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointLadder {
    /// `windows[w][t]`: the draining checkpoint thread `t` re-enters for
    /// window `w` (its warm log and memory cover the fast-forward gap
    /// since the previous checkpoint, so windows are entered in order).
    pub windows: Vec<Vec<Checkpoint>>,
    /// The per-thread programs (so consumers skip regenerating the whole
    /// workload — the memory images live in the checkpoints).
    pub programs: Vec<Program>,
    /// Instructions executed by the functional interpreters.
    pub fastforward_instructions: u64,
}

impl Experiment {
    /// Fast-forwards each benchmark once, taking a draining checkpoint
    /// ahead of every window `plan` places in this experiment's measured
    /// region (the detailed warmup precedes the position).
    ///
    /// # Errors
    ///
    /// [`SimError::NoBenchmarks`] if no benchmark was added.
    ///
    /// # Panics
    ///
    /// Panics if functional fast-forward stops early (workload programs
    /// never halt) or a window does not fit the measured interval.
    pub fn sample_checkpoints(&self, plan: &SamplePlan) -> Result<CheckpointLadder, SimError> {
        if self.benchmarks.is_empty() {
            return Err(SimError::NoBenchmarks);
        }
        let positions = plan.positions(self.warmup, self.measure);
        let mut ff_insts = 0u64;
        let mut cps: Vec<Vec<Checkpoint>> = vec![Vec::new(); positions.len()];
        let mut programs = Vec::with_capacity(self.benchmarks.len());
        for w in self
            .benchmarks
            .iter()
            .map(|&b| Workload::generate(b, self.seed))
        {
            let mut ff = FastForward::new(&w.program, w.memory, plan.warm_window);
            for (wi, &pos) in positions.iter().enumerate() {
                let entry = pos.saturating_sub(plan.warmup);
                ff.run_to(entry).unwrap_or_else(|e| {
                    panic!("{}: fast-forward to {entry} stopped: {e:?}", w.benchmark)
                });
                cps[wi].push(ff.take_checkpoint());
            }
            ff_insts += ff.committed();
            programs.push(w.program);
        }
        Ok(CheckpointLadder {
            windows: cps,
            programs,
            fastforward_instructions: ff_insts,
        })
    }

    /// Runs this experiment under `plan` instead of one long detailed
    /// interval: the windows sample the same measured region
    /// `[warmup, warmup + measure)` of committed instructions that
    /// [`Experiment::run`](Experiment::run) measures in full.
    ///
    /// # Errors
    ///
    /// [`SimError::NoBenchmarks`] if no benchmark was added;
    /// [`SimError::BudgetOverflow`] if a window's cycle budget does not
    /// fit in a `u64`; [`SimError::Timeout`] if any window exceeds it.
    ///
    /// # Panics
    ///
    /// Panics if functional fast-forward stops early (workload programs
    /// never halt) or a window does not fit the measured interval.
    pub fn run_sampled(&self, plan: &SamplePlan) -> Result<SampledResult, SimError> {
        let ladder = self.sample_checkpoints(plan)?;
        self.run_sampled_with(plan, &ladder)
    }

    /// Runs this experiment's detailed windows against a shared
    /// checkpoint ladder (see [`Experiment::sample_checkpoints`]; the
    /// ladder must come from the same `(benchmarks, seed, warmup,
    /// measure)`).
    ///
    /// # Errors
    ///
    /// [`SimError::NoBenchmarks`] if no benchmark was added;
    /// [`SimError::BudgetOverflow`] if a window's cycle budget does not
    /// fit in a `u64`; [`SimError::Timeout`] if any window exceeds it.
    ///
    /// # Panics
    ///
    /// Panics if the ladder does not cover this experiment's benchmarks
    /// and plan.
    pub fn run_sampled_with(
        &self,
        plan: &SamplePlan,
        ladder: &CheckpointLadder,
    ) -> Result<SampledResult, SimError> {
        unverified(self.run_sampled_inner(plan, ladder, false)).map(|(result, _)| result)
    }

    /// Runs this experiment under `plan` with the co-simulation oracle
    /// cross-checking every detailed commit — including across sampled
    /// window re-entries, where the oracle's reference lanes are re-seeded
    /// from the same architectural checkpoints the device restores to.
    /// Returns the sampled result and the number of commits checked.
    ///
    /// # Errors
    ///
    /// [`VerifyError::Sim`] wraps the ordinary [`SimError`]s;
    /// [`VerifyError::Divergence`] reports the first commit that disagrees
    /// with the reference interpreter.
    ///
    /// # Panics
    ///
    /// As [`Experiment::run_sampled`].
    pub fn run_sampled_verified(
        &self,
        plan: &SamplePlan,
    ) -> Result<(SampledResult, u64), VerifyError> {
        let ladder = self.sample_checkpoints(plan).map_err(VerifyError::Sim)?;
        self.run_sampled_inner(plan, &ladder, true)
    }

    fn run_sampled_inner(
        &self,
        plan: &SamplePlan,
        ladder: &CheckpointLadder,
        verify: bool,
    ) -> Result<(SampledResult, u64), VerifyError> {
        let budget = cycle_budget(plan.warmup, plan.measure, self.max_cycle_factor)
            .ok_or(VerifyError::Sim(SimError::BudgetOverflow))?;
        if self.benchmarks.is_empty() {
            return Err(VerifyError::Sim(SimError::NoBenchmarks));
        }
        let positions = plan.positions(self.warmup, self.measure);
        let cps = &ladder.windows;
        assert_eq!(cps.len(), positions.len(), "ladder does not match plan");
        let n = self.benchmarks.len();
        let copies = self.kind().copies();
        // Each thread's memory at the current window: the first checkpoint
        // holds it whole, and each later one moves it forward.
        let mut images = vec![MemImage::new(); n];
        for (cp, image) in cps[0].iter().zip(&mut images) {
            cp.advance(image);
        }
        // One machine serves every window (SMARTS-style): between windows
        // only the architectural state moves to the next checkpoint, so
        // caches and predictors accumulate warmth across the whole run
        // instead of restarting cold each window.
        let threads = images
            .iter()
            .zip(&ladder.programs)
            .map(|(image, p)| LogicalThread::new(Rc::new(p.clone()), image.clone()))
            .collect();
        let (mut device, mut oracle) = self.device_and_oracle(threads, verify);
        let mut window_ipc: Vec<Vec<f64>> = vec![Vec::with_capacity(positions.len()); n];
        for (wi, (cps_w, &position)) in cps.iter().zip(&positions).enumerate() {
            for (t, (cp, image)) in cps_w.iter().zip(&mut images).enumerate() {
                if wi > 0 {
                    cp.advance(image);
                }
                for logical in t * copies..(t + 1) * copies {
                    if let Some(o) = oracle.as_mut() {
                        // The reference lane moves to the same checkpoint
                        // the device re-enters (at window 0 this is the
                        // state the device was just built from, so the
                        // reseed is the identity there).
                        o.reseed(logical, image.clone(), &cp.regs, cp.pc, cp.committed);
                    }
                    if wi > 0 {
                        // Move this copy to the window's checkpoint: new
                        // memory (sphere-crossing queues dropped), then
                        // registers and PC.
                        device.install_image(logical, image);
                        device.restore_arch(logical, &cp.regs, cp.pc);
                    } else if cp.committed > 0 {
                        // An entry-state checkpoint (committed 0) is
                        // exactly the fresh device's state; restoring
                        // would only add the restore's one-cycle fetch
                        // redirect, breaking bitwise equality with a
                        // straight-through run for a window at the
                        // interval start.
                        device.restore_arch(logical, &cp.regs, cp.pc);
                    }
                    for ev in cp.warm.iter() {
                        device.warm(logical, ev);
                    }
                }
            }
            // Commit counts and cycles keep running across restores, so
            // thread t's window opens once it has committed, past window
            // entry, its distance from checkpoint to position (plan.warmup,
            // except clamped near instruction 0).
            let lanes: Vec<(usize, u64)> = cps_w
                .iter()
                .enumerate()
                .map(|(t, cp)| {
                    let i = t * copies;
                    (i, device.committed(i) + (position - cp.committed))
                })
                .collect();
            let deadline = device.cycle().saturating_add(budget);
            let windows = run_windows(
                device.as_mut(),
                &lanes,
                plan.measure,
                deadline,
                oracle.as_mut(),
                |_, _| {},
            )?;
            for (ipc, (open, close)) in window_ipc.iter_mut().zip(windows) {
                let dc = close - open;
                ipc.push(if dc == 0 {
                    0.0
                } else {
                    plan.measure as f64 / dc as f64
                });
            }
        }
        let checked = oracle.map_or(0, |o| o.checked());
        Ok((
            SampledResult {
                kind: self.kind(),
                ipc: window_ipc.iter().map(|w| mean_ci95(w)).collect(),
                window_ipc,
                cycles: device.cycle(),
                detailed_instructions: positions.len() as u64 * plan.window_len() * n as u64,
                fastforward_instructions: ladder.fastforward_instructions,
            },
            checked,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmt_isa::interp::Interpreter;
    use rmt_sample::SampleMode;
    use rmt_workloads::Benchmark;

    fn exp(kind: DeviceKind, b: Benchmark) -> Experiment {
        Experiment::new(kind)
            .benchmark(b)
            .warmup(1_000)
            .measure(6_000)
            .seed(3)
    }

    fn small_plan() -> SamplePlan {
        SamplePlan {
            windows: 3,
            warmup: 300,
            measure: 800,
            warm_window: 1_024,
            mode: SampleMode::Periodic,
        }
    }

    #[test]
    fn sampled_base_and_srt_run() {
        for kind in [DeviceKind::Base, DeviceKind::Srt, DeviceKind::Base2] {
            let r = exp(kind, Benchmark::M88ksim)
                .run_sampled(&small_plan())
                .unwrap();
            assert_eq!(r.ipc.len(), 1);
            assert_eq!(r.window_ipc[0].len(), 3);
            assert!(r.ipc[0].mean > 0.0, "{kind}: no progress");
            assert!(r.cycles > 0);
            assert!(r.detailed_instructions < 6_000);
            assert!(r.fastforward_instructions > 0);
        }
    }

    #[test]
    fn sampled_runs_are_reproducible() {
        let a = exp(DeviceKind::Srt, Benchmark::Go)
            .run_sampled(&small_plan())
            .unwrap();
        let b = exp(DeviceKind::Srt, Benchmark::Go)
            .run_sampled(&small_plan())
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn sampled_ipc_tracks_full_ipc() {
        let full = exp(DeviceKind::Base, Benchmark::M88ksim).run().unwrap();
        let s = exp(DeviceKind::Base, Benchmark::M88ksim)
            .run_sampled(&small_plan())
            .unwrap();
        let rel = (s.ipc[0].mean - full.ipc(0)).abs() / full.ipc(0);
        assert!(
            rel < 0.25,
            "sampled IPC {} too far from full {} (rel {rel})",
            s.ipc[0].mean,
            full.ipc(0)
        );
    }

    #[test]
    fn one_base_ladder_gives_every_kind_its_own_windows() {
        // Checkpoints are kind-independent: the ladder a Base experiment
        // takes is the one every kind takes, and re-entering it drives
        // each kind's windows to the exact cycles of its own ladder.
        let plan = small_plan();
        let base = exp(DeviceKind::Base, Benchmark::M88ksim)
            .sample_checkpoints(&plan)
            .unwrap();
        for kind in [DeviceKind::Base, DeviceKind::Srt, DeviceKind::Lock0] {
            let e = exp(kind, Benchmark::M88ksim);
            let ladder = e.sample_checkpoints(&plan).unwrap();
            assert_eq!(ladder, base, "{kind}: the ladder depends on the kind");
            let own = e.run_sampled(&plan).unwrap();
            assert_eq!(
                e.run_sampled_with(&plan, &base).unwrap(),
                own,
                "{kind}: the Base ladder changed a window"
            );
            assert!(
                own.window_ipc[0].iter().all(|&ipc| ipc > 0.0),
                "{kind}: a re-entered window made no progress"
            );
        }
    }

    #[test]
    fn real_ladders_patch_forward_to_the_interpreters_images() {
        // Walking a ladder in order must rebuild, at every checkpoint,
        // exactly the image the reference interpreter holds there: the
        // same pages with the same bytes, and the same digest.
        let scale = crate::SimScale::full();
        for b in [Benchmark::M88ksim, Benchmark::Swim] {
            for windows in [8, 32] {
                let plan = SamplePlan {
                    windows,
                    ..SamplePlan::default()
                };
                let ladder = Experiment::new(DeviceKind::Base)
                    .benchmark(b)
                    .seed(scale.seed)
                    .warmup(scale.warmup)
                    .measure(scale.measure)
                    .sample_checkpoints(&plan)
                    .unwrap();
                let w = Workload::generate(b, scale.seed);
                let mut interp = Interpreter::new(&w.program, w.memory);
                let mut image = MemImage::new();
                for cps in &ladder.windows {
                    let cp = &cps[0];
                    while interp.committed() < cp.committed {
                        interp.step().unwrap();
                    }
                    cp.advance(&mut image);
                    assert!(&image == interp.mem(), "{b} x{windows} at {}", cp.committed);
                    assert_eq!(image.digest(), interp.mem().digest());
                }
            }
        }
    }

    #[test]
    fn sampled_windows_verify_across_reentry() {
        // Multi-window sampled runs re-enter the machine through
        // `install_image`/`restore_arch`; the oracle's reference lanes
        // re-seed from the same checkpoints and must stay commit-for-
        // commit clean through every window.
        for kind in [DeviceKind::Base, DeviceKind::Srt, DeviceKind::Base2] {
            let (r, checked) = exp(kind, Benchmark::M88ksim)
                .run_sampled_verified(&small_plan())
                .unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert_eq!(r.window_ipc[0].len(), 3);
            assert!(
                checked >= 3 * 800,
                "{kind}: only {checked} commits cross-checked"
            );
        }
    }

    #[test]
    fn one_window_verified_run_is_divergence_free_and_bitwise_equal() {
        // A single window coinciding with the full measured interval,
        // with the oracle enabled: zero divergences, and bitwise the same
        // window the unverified run produces (the oracle is an observer —
        // it must not perturb timing).
        for kind in [DeviceKind::Base, DeviceKind::Srt] {
            let plan = SamplePlan {
                windows: 1,
                warmup: 1_000,
                measure: 6_000,
                warm_window: 0,
                mode: SampleMode::Periodic,
            };
            let plain = exp(kind, Benchmark::Ijpeg).run_sampled(&plan).unwrap();
            let (verified, checked) = exp(kind, Benchmark::Ijpeg)
                .run_sampled_verified(&plan)
                .unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert_eq!(plain, verified, "{kind}: oracle perturbed the run");
            assert!(checked >= 7_000, "{kind}: only {checked} checked");
            let full = exp(kind, Benchmark::Ijpeg).run().unwrap();
            assert_eq!(
                verified.ipc[0].mean.to_bits(),
                full.ipc(0).to_bits(),
                "{kind}: verified sampled window != full run"
            );
        }
    }

    #[test]
    fn one_window_at_interval_start_reproduces_the_full_run() {
        // A single window whose warmup and measured portion coincide with
        // the full run's must be *bitwise* the full run: same device,
        // same committed stream, same cycles.
        for kind in [DeviceKind::Base, DeviceKind::Srt] {
            let full = exp(kind, Benchmark::Ijpeg).run().unwrap();
            let plan = SamplePlan {
                windows: 1,
                warmup: 1_000,
                measure: 6_000,
                warm_window: 0,
                mode: SampleMode::Periodic,
            };
            let s = exp(kind, Benchmark::Ijpeg).run_sampled(&plan).unwrap();
            assert_eq!(
                s.ipc[0].mean.to_bits(),
                full.ipc(0).to_bits(),
                "{kind}: sampled window != full run"
            );
            assert_eq!(s.ipc[0].n, 1);
            assert_eq!(s.ipc[0].half_width, 0.0);
        }
    }
}
