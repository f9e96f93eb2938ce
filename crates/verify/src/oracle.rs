//! The co-simulation oracle: the `rmt-isa` interpreter stepped in
//! lockstep with the pipeline's commit stream.
//!
//! Every committed `(pc, next_pc, register write, load, store)` tuple the
//! timing machine produces is cross-checked against the reference
//! interpreter executing the same program over the same initial memory.
//! Both sides share `rmt_isa::execute` for instruction semantics, so a
//! divergence always means a *pipeline* bug — wrong-path commit, lost
//! write, stale forwarded value, mis-sized memory access — never a
//! disagreement about what an instruction means.
//!
//! The oracle attaches to the leading copy of each logical thread (see
//! [`Device::enable_commit_log`]); redundant arrangements verify for free
//! because the trailing copy is checked against the leading one by the
//! fabric itself.

use rmt_core::Device;
use rmt_isa::interp::{ArchState, Interpreter, StopReason};
use rmt_isa::{disasm, MemImage, Program, Reg};
use rmt_pipeline::trace::{TraceKind, Tracer};
use rmt_pipeline::CommitRecord;
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;

/// Default number of preceding commits reported with a divergence.
pub const DEFAULT_TRAIL: usize = 16;

/// Which field of a committed instruction disagreed with the reference
/// interpreter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DivergenceKind {
    /// The pipeline committed an instruction at a PC the reference
    /// execution is not at (wrong-path commit).
    Pc {
        /// The PC the reference execution expected to commit next.
        expected: u64,
    },
    /// The committed control outcome disagrees.
    NextPc {
        /// The reference next PC.
        expected: u64,
    },
    /// The destination-register value disagrees (or the write is missing
    /// on one side).
    RegWrite {
        /// Destination register.
        reg: Reg,
        /// The reference value.
        expected: u64,
        /// The pipeline's committed value.
        got: u64,
    },
    /// The load `(addr, value, bytes)` tuple disagrees.
    Load {
        /// The reference tuple (`None` if the reference instruction does
        /// not load).
        expected: Option<(u64, u64, u64)>,
    },
    /// The store `(addr, value, bytes)` tuple disagrees.
    Store {
        /// The reference tuple (`None` if the reference instruction does
        /// not store).
        expected: Option<(u64, u64, u64)>,
    },
    /// The reference interpreter could not execute at all (the pipeline
    /// committed past the end of the program, or after a halt).
    Interpreter(StopReason),
}

/// The first point where the pipeline's commit stream left the reference
/// execution, with a bounded trail of the commits leading up to it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Logical thread that diverged.
    pub logical: usize,
    /// The offending commit record.
    pub record: CommitRecord,
    /// What disagreed.
    pub kind: DivergenceKind,
    /// Up to [`DEFAULT_TRAIL`] commits preceding the divergence, oldest
    /// first.
    pub trail: Vec<CommitRecord>,
}

impl Divergence {
    /// Renders the trail through the pipeline [`Tracer`] (same event
    /// format as in-pipeline traces) followed by the disassembled
    /// offending commit.
    pub fn render(&self) -> String {
        let mut tracer = Tracer::new(self.trail.len().max(1));
        for r in &self.trail {
            tracer.record(r.cycle, self.logical, r.pc, TraceKind::Retire);
        }
        format!("{self}\ncommit trail (oldest first):\n{}", tracer.render())
    }
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let r = &self.record;
        write!(
            f,
            "divergence on logical thread {} at commit #{} cycle {}: {:#06x}: {}",
            self.logical,
            r.commit_index,
            r.cycle,
            r.pc,
            disasm::disassemble(&r.inst)
        )?;
        match &self.kind {
            DivergenceKind::Pc { expected } => {
                write!(
                    f,
                    "\n  committed pc {:#x}, reference at {expected:#x}",
                    r.pc
                )
            }
            DivergenceKind::NextPc { expected } => write!(
                f,
                "\n  committed next_pc {:#x}, reference {expected:#x}",
                r.next_pc
            ),
            DivergenceKind::RegWrite { reg, expected, got } => {
                write!(f, "\n  {reg} = {got:#x}, reference {expected:#x}")
            }
            DivergenceKind::Load { expected } => {
                write!(f, "\n  load {:x?}, reference {:x?}", r.load, expected)
            }
            DivergenceKind::Store { expected } => {
                write!(f, "\n  store {:x?}, reference {:x?}", r.store, expected)
            }
            DivergenceKind::Interpreter(stop) => {
                write!(f, "\n  reference execution stopped: {stop}")
            }
        }
    }
}

impl std::error::Error for Divergence {}

struct Lane {
    program: Rc<Program>,
    mem: MemImage,
    state: ArchState,
    committed: u64,
    trail: VecDeque<CommitRecord>,
}

impl Lane {
    /// Steps the reference interpreter one instruction.
    fn step(&mut self) -> Result<rmt_isa::interp::Commit, StopReason> {
        let mem = std::mem::take(&mut self.mem);
        let mut it = Interpreter::resume(&self.program, mem, self.state.clone(), self.committed);
        let r = it.step();
        self.state = it.state().clone();
        self.committed = it.committed();
        self.mem = it.into_mem();
        r
    }
}

/// A differential oracle over one device's logical threads.
///
/// # Examples
///
/// ```
/// use rmt_core::{Device, LogicalThread, Machine, MachineSpec};
/// use rmt_verify::Oracle;
/// use rmt_workloads::{Benchmark, Workload};
///
/// let w = Workload::generate(Benchmark::M88ksim, 1);
/// let mut d = Machine::independent(&MachineSpec::default(), vec![LogicalThread::from(&w)]);
/// let mut oracle = Oracle::new(vec![(w.program.clone().into(), w.memory.clone())]);
/// oracle.attach(&mut d);
/// while d.committed(0) < 2_000 {
///     d.tick();
///     oracle.observe(&mut d).expect("no divergence");
/// }
/// assert!(oracle.checked() >= 2_000);
/// ```
pub struct Oracle {
    lanes: Vec<Lane>,
    trail_len: usize,
    checked: u64,
}

impl Oracle {
    /// An oracle over the given logical threads: each is a program and its
    /// initial architectural memory (the same pair the device was built
    /// from).
    pub fn new(threads: Vec<(Rc<Program>, MemImage)>) -> Self {
        let lanes = threads
            .into_iter()
            .map(|(program, mem)| Lane {
                program,
                mem,
                state: ArchState::new(),
                committed: 0,
                trail: VecDeque::new(),
            })
            .collect();
        Oracle {
            lanes,
            trail_len: DEFAULT_TRAIL,
            checked: 0,
        }
    }

    /// An oracle over a device's [`LogicalThread`]s.
    ///
    /// [`LogicalThread`]: rmt_core::LogicalThread
    pub fn for_threads(threads: &[rmt_core::LogicalThread]) -> Self {
        Self::new(
            threads
                .iter()
                .map(|t| (t.program.clone(), t.memory.clone()))
                .collect(),
        )
    }

    /// Enables the commit log on every logical thread of `device`. Call
    /// once after construction, before the first tick.
    pub fn attach<D: Device + ?Sized>(&self, device: &mut D) {
        for i in 0..self.lanes.len() {
            device.enable_commit_log(i);
        }
    }

    /// Total commit records cross-checked so far.
    pub fn checked(&self) -> u64 {
        self.checked
    }

    /// Commits the reference execution of lane `logical` has stepped.
    pub fn committed(&self, logical: usize) -> u64 {
        self.lanes[logical].committed
    }

    /// Re-seeds lane `logical` at a checkpointed architectural state
    /// (sampled-simulation window re-entry: the same `(memory, regs, pc,
    /// committed)` tuple handed to [`Device::install_image`] and
    /// [`Device::restore_arch`]).
    pub fn reseed(
        &mut self,
        logical: usize,
        mem: MemImage,
        regs: &[u64; rmt_isa::inst::NUM_ARCH_REGS],
        pc: u64,
        committed: u64,
    ) {
        let lane = &mut self.lanes[logical];
        lane.mem = mem;
        lane.state = ArchState::from_parts(*regs, pc);
        lane.committed = committed;
        lane.trail.clear();
    }

    /// Drains and checks the commit streams of every logical thread of
    /// `device`. Call once per tick (or at least often enough to bound the
    /// log).
    ///
    /// # Errors
    ///
    /// The first [`Divergence`] found, with its commit trail.
    pub fn observe<D: Device + ?Sized>(&mut self, device: &mut D) -> Result<(), Box<Divergence>> {
        for i in 0..self.lanes.len() {
            let records = device.drain_commits(i);
            self.check(i, &records)?;
        }
        Ok(())
    }

    /// Cross-checks a batch of commit records for lane `logical` against
    /// the reference execution.
    ///
    /// # Errors
    ///
    /// The first [`Divergence`] found, with its commit trail.
    pub fn check(
        &mut self,
        logical: usize,
        records: &[CommitRecord],
    ) -> Result<(), Box<Divergence>> {
        for rec in records {
            self.check_one(logical, rec)?;
        }
        Ok(())
    }

    fn check_one(&mut self, logical: usize, rec: &CommitRecord) -> Result<(), Box<Divergence>> {
        let trail_len = self.trail_len;
        let lane = &mut self.lanes[logical];
        let diverge = |kind: DivergenceKind, lane: &Lane| {
            Box::new(Divergence {
                logical,
                record: *rec,
                kind,
                trail: lane.trail.iter().copied().collect(),
            })
        };
        if rec.pc != lane.state.pc() {
            let expected = lane.state.pc();
            return Err(diverge(DivergenceKind::Pc { expected }, lane));
        }
        let commit = match lane.step() {
            Ok(c) => c,
            Err(stop) => return Err(diverge(DivergenceKind::Interpreter(stop), lane)),
        };
        if rec.next_pc != lane.state.pc() {
            let expected = lane.state.pc();
            return Err(diverge(DivergenceKind::NextPc { expected }, lane));
        }
        if let Some((reg, got)) = rec.write {
            let expected = lane.state.reg(reg);
            if got != expected {
                return Err(diverge(
                    DivergenceKind::RegWrite { reg, expected, got },
                    lane,
                ));
            }
        }
        if rec.load != commit.load {
            return Err(diverge(
                DivergenceKind::Load {
                    expected: commit.load,
                },
                lane,
            ));
        }
        if rec.store != commit.store {
            return Err(diverge(
                DivergenceKind::Store {
                    expected: commit.store,
                },
                lane,
            ));
        }
        if lane.trail.len() == trail_len {
            lane.trail.pop_front();
        }
        lane.trail.push_back(*rec);
        self.checked += 1;
        Ok(())
    }
}
