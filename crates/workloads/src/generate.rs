//! The synthetic program generator.
//!
//! Produces, per `(benchmark, seed)`, a deterministic [`Workload`]: a
//! program (an endless main loop calling a benchmark-specific mix of
//! kernels) plus an initialized memory image. The seven kernel types map to
//! behaviours that dominate the corresponding real benchmarks:
//!
//! | kernel          | behaviour exercised                                 |
//! |-----------------|-----------------------------------------------------|
//! | `stream`        | unit-stride loads/stores over the working set       |
//! | `stencil`       | multi-load FP combine, store (grid codes)           |
//! | `pointer_chase` | dependent loads, data-dependent branches            |
//! | `int_compute`   | ALU chains with configurable ILP                    |
//! | `hash_update`   | read-modify-write to pseudo-random slots, byte      |
//! |                 | stores that partially overlap later word loads      |
//! | `branchy`       | data-dependent branches with profile-set bias       |
//! | `calls`         | `jal`/`jalr` call trees (return-address stack)      |
//!
//! Register conventions: `r60` working-set base, `r61` working-set byte
//! mask, `r56`–`r59` persistent cursors, `r62` secondary link register,
//! `r63` (`Reg::RA`) primary link register. Kernels use disjoint scratch
//! register windows in `r1..r48` so renaming pressure resembles compiled
//! code.

use crate::profile::{Benchmark, Profile};
use rmt_isa::inst::{Inst, Reg};
use rmt_isa::mem_image::MemImage;
use rmt_isa::program::{Program, ProgramBuilder};
use rmt_stats::Xoshiro256;

/// Base virtual address of the data working set.
pub const DATA_BASE: u64 = 1 << 20;

const BASE_REG: Reg = Reg::new(60);
const MASK_REG: Reg = Reg::new(61);
const LINK2: Reg = Reg::new(62);
const CURSOR: Reg = Reg::new(56);
const CHASE: Reg = Reg::new(57);
const HASH: Reg = Reg::new(58);
const RING_MASK: Reg = Reg::new(59);
const RING_BASE: Reg = Reg::new(55);

/// Largest power of two at most `x` (x >= 1).
fn pow2_floor(x: u64) -> u64 {
    1 << (63 - x.leading_zeros())
}

/// Bytes of the data region (a power of two, half the working set rounded
/// down); the pointer-chase ring occupies an equal region right above it.
fn data_region_bytes(working_set: u64) -> u64 {
    pow2_floor(working_set / 2)
}

/// A generated program plus its initial memory image.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Which benchmark this models.
    pub benchmark: Benchmark,
    /// The program (endless main loop; never halts).
    pub program: Program,
    /// Initial architectural memory.
    pub memory: MemImage,
}

impl Workload {
    /// Generates the workload for `benchmark` with the given `seed`.
    ///
    /// Deterministic: identical inputs produce identical outputs.
    pub fn generate(benchmark: Benchmark, seed: u64) -> Self {
        let profile = benchmark.profile();
        let mut rng = Xoshiro256::seed_from(seed ^ benchmark.id().wrapping_mul(0x9e37_79b9));
        let mut gen = Generator::new(&profile, &mut rng);
        let program = gen.build_program();
        let memory = build_memory(&profile, benchmark, seed);
        Workload {
            benchmark,
            program,
            memory,
        }
    }
}

/// Initializes the working-set region: a data half with parity-biased
/// values (branch predictability knob) and a pointer-chase ring. Each
/// region is built as words and written a page at a time, and generation
/// holds no more region-sized buffers at once than writing word by word
/// did: the data is freed before the ring is built, and the ring is built
/// in the permutation's own buffer.
fn build_memory(profile: &Profile, benchmark: Benchmark, seed: u64) -> MemImage {
    let mut rng = Xoshiro256::seed_from(seed ^ 0xda7a ^ benchmark.id());
    let mut mem = MemImage::new();
    let data_bytes = data_region_bytes(profile.working_set);
    let data_slots = data_bytes / 8;
    // Data region: values whose low bit is biased toward 0 with probability
    // `branch_bias` — `branchy` kernels branch on that bit.
    let data: Vec<u64> = (0..data_slots)
        .map(|_| {
            let v = rng.next_u64();
            if rng.chance(profile.branch_bias) {
                v & !1
            } else {
                v | 1
            }
        })
        .collect();
    mem.write_words(DATA_BASE, &data);
    drop(data);
    let ring = chase_ring(&mut rng, data_slots.max(2) as usize);
    mem.write_words(DATA_BASE + data_bytes, &ring);
    mem
}

/// A single permutation cycle over `n` slots (Sattolo's algorithm), as
/// each slot's successor: *relative* slot indices, so the chase kernel
/// can mask every loaded index back in-bounds.
fn chase_ring(rng: &mut Xoshiro256, n: usize) -> Vec<u64> {
    assert!(n as u64 <= 1 << 32, "a chase ring of {n} slots");
    let mut slots: Vec<u64> = (0..n as u64).collect();
    for i in (1..n).rev() {
        let j = rng.below(i as u64) as usize;
        slots.swap(i, j);
    }
    // next[perm[k]] = perm[k+1] forms one cycle. The permutation stays in
    // the low halves while the successors gather in the high halves.
    for k in 0..n {
        let from = slots[k] as u32 as usize;
        let to = slots[(k + 1) % n] as u32;
        slots[from] |= u64::from(to) << 32;
    }
    for s in &mut slots {
        *s >>= 32;
    }
    slots
}

struct Generator<'a> {
    profile: &'a Profile,
    rng: &'a mut Xoshiro256,
    b: ProgramBuilder,
    label_counter: usize,
    /// Kernel index currently being generated (for scratch windows).
    kernel_idx: usize,
}

impl<'a> Generator<'a> {
    fn new(profile: &'a Profile, rng: &'a mut Xoshiro256) -> Self {
        Generator {
            profile,
            rng,
            b: ProgramBuilder::new(),
            label_counter: 0,
            kernel_idx: 0,
        }
    }

    fn fresh_label(&mut self, stem: &str) -> String {
        self.label_counter += 1;
        format!("{stem}_{}", self.label_counter)
    }

    /// Scratch register window for the current kernel: six registers.
    fn scratch(&self, i: usize) -> Reg {
        let base = 1 + ((self.kernel_idx * 7) % 42);
        Reg::new((base + i) as u8 % 48 + 1)
    }

    /// Emits `rd = constant` using lui/ori (constants up to 32 bits).
    fn emit_const(&mut self, rd: Reg, value: u64) {
        assert!(value < (1 << 32), "constants must fit in 32 bits");
        let hi = (value >> 16) as i64;
        let lo = (value & 0xffff) as i64;
        if hi != 0 {
            self.b.push(Inst::lui(rd, hi));
            if lo != 0 {
                self.b.push(Inst::ori(rd, rd, lo));
            }
        } else {
            self.b.push(Inst::addi(rd, Reg::ZERO, lo));
        }
    }

    /// Computes a working-set-relative pointer into `rd`:
    /// `rd = BASE + ((seed_reg + static_off) & mask & ~7)`.
    fn emit_ws_pointer(&mut self, rd: Reg, seed_reg: Reg, static_off: u64) {
        self.b
            .push(Inst::addi(rd, seed_reg, (static_off & 0xffff) as i64));
        self.b.push(Inst::and(rd, rd, MASK_REG));
        self.b.push(Inst::andi(rd, rd, -8));
        self.b.push(Inst::add(rd, rd, BASE_REG));
    }

    /// A cheap 1-cycle integer op (reductions and induction updates that
    /// must not serialize on long-latency units).
    fn emit_arith_fast(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        let inst = match self.rng.below(3) {
            0 => Inst::add(rd, rs1, rs2),
            1 => Inst::xor(rd, rs1, rs2),
            _ => Inst::sub(rd, rs1, rs2),
        };
        self.b.push(inst);
    }

    /// An arithmetic op appropriate for the profile (FP benchmarks use FP
    /// stand-ins mixed with the integer address arithmetic real FP code
    /// carries; integer benchmarks mix add/mul/logic).
    fn emit_arith(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        if self.profile.fp {
            let inst = match self.rng.below(6) {
                0 => Inst::fadd(rd, rs1, rs2),
                1 => Inst::fsub(rd, rs1, rs2),
                2 => Inst::fmul(rd, rs1, rs2),
                3 => Inst::fadd(rd, rs1, rs2),
                // Real FP code is ~1/3 integer (addressing, induction).
                4 => Inst::add(rd, rs1, rs2),
                _ => Inst::xor(rd, rs1, rs2),
            };
            self.b.push(inst);
        } else {
            let inst = match self.rng.below(8) {
                0 | 1 => Inst::add(rd, rs1, rs2),
                2 => Inst::sub(rd, rs1, rs2),
                3 => Inst::xor(rd, rs1, rs2),
                4 => Inst::and(rd, rs1, rs2),
                5 => Inst::or(rd, rs1, rs2),
                6 => Inst::mul(rd, rs1, rs2),
                _ => Inst::add(rd, rs1, rs2),
            };
            self.b.push(inst);
        }
    }

    fn build_program(&mut self) -> Program {
        // --- entry: set up globals ---
        let data_bytes = data_region_bytes(self.profile.working_set);
        self.emit_const(BASE_REG, DATA_BASE);
        self.emit_const(MASK_REG, data_bytes - 1);
        self.emit_const(RING_BASE, DATA_BASE + data_bytes);
        self.emit_const(RING_MASK, data_bytes / 8 - 1);
        self.b.push(Inst::addi(CURSOR, Reg::ZERO, 0));
        self.b.push(Inst::addi(CHASE, Reg::ZERO, 0)); // relative ring slot
        self.emit_const(HASH, 0x1234_5678);

        // --- choose kernel types up front (so we can emit bodies after the
        //     main loop that calls them) ---
        let n = self.profile.code_kernels;
        let kinds: Vec<usize> = (0..n)
            .map(|_| self.rng.pick_weighted(&self.profile.kernel_weights))
            .collect();

        // --- main loop ---
        self.b.label("main_loop");
        // Advance the streaming cursor so the data region is swept in about
        // two dozen main-loop iterations: the first pass is cold, after
        // which the region lives in whatever cache level fits it — the
        // steady-state reuse pattern of a real benchmark.
        let stride = ((data_bytes / 24).max(1032) & !7) as i64;
        self.b.push(Inst::addi(CURSOR, CURSOR, stride.min(32767)));
        for i in 0..n {
            self.b
                .push_branch(Inst::jal(Reg::RA, 0), format!("kernel_{i}"));
        }
        self.b.push_branch(Inst::j(0), "main_loop");

        // --- kernel bodies ---
        for (i, &kind) in kinds.iter().enumerate() {
            self.kernel_idx = i;
            self.b.label(format!("kernel_{i}"));
            match kind {
                0 => self.kernel_stream(),
                1 => self.kernel_stencil(),
                2 => self.kernel_pointer_chase(),
                3 => self.kernel_int_compute(),
                4 => self.kernel_hash_update(),
                5 => self.kernel_branchy(),
                _ => self.kernel_calls(i),
            }
            // Occasionally end a kernel with a memory barrier: this is the
            // §4.4.2 deadlock case the LPQ chunk-termination rule exists for.
            let membar_p = if self.profile.fp { 0.02 } else { 0.08 };
            if self.rng.chance(membar_p) {
                self.b.push(Inst::membar());
            }
            self.b.push(Inst::jalr(Reg::ZERO, Reg::RA));
        }
        std::mem::take(&mut self.b)
            .build()
            .expect("generated labels are consistent")
    }

    /// Unit-stride sweep: load, compute independently per element, store,
    /// with a cheap integer reduction so values stay live. Elements are
    /// independent, so an out-of-order machine extracts the loop's full
    /// memory-level and instruction-level parallelism.
    fn kernel_stream(&mut self) {
        let p = self.scratch(0);
        let i = self.scratch(1);
        let nreg = self.scratch(2);
        let acc = self.scratch(3);
        let t = self.scratch(4);
        let t2 = self.scratch(5);
        let trip = self.rng.range(8, 16) as i64;
        let off = self.rng.below(1 << 15);
        self.emit_ws_pointer(p, CURSOR, off);
        self.b.push(Inst::addi(i, Reg::ZERO, 0));
        self.b.push(Inst::addi(nreg, Reg::ZERO, trip));
        let loop_l = self.fresh_label("stream");
        self.b.label(loop_l.clone());
        for u in 0..self.profile.unroll {
            self.b.push(Inst::lw(t, p, (u * 8) as i64));
            // Independent per-element computation (renaming breaks the
            // false reuse of t/t2 across unroll lanes).
            self.emit_arith(t2, t, i);
            self.b.push(Inst::sw(t2, p, (u * 8) as i64));
            // 1-cycle integer reduction keeps a live output without a
            // long-latency serial chain.
            self.b.push(Inst::add(acc, acc, t));
        }
        self.b
            .push(Inst::addi(p, p, (self.profile.unroll * 8) as i64));
        self.b.push(Inst::addi(i, i, 1));
        self.b.push_branch(Inst::blt(i, nreg, 0), loop_l);
    }

    /// Three-point Jacobi stencil: load in[i-1], in[i], in[i+1]; combine;
    /// store out[i] into a *separate* region (as real grid codes do), so
    /// elements are independent and the sweep pipelines.
    fn kernel_stencil(&mut self) {
        let p = self.scratch(0);
        let q = self.scratch(1);
        let i = self.scratch(2);
        let (a, b_, c) = (self.scratch(3), self.scratch(4), self.scratch(5));
        let data_bytes = data_region_bytes(self.profile.working_set);
        let trip = self.rng.range(6, 12) as i64;
        let off = self.rng.below(1 << 15) + 8;
        self.emit_ws_pointer(p, CURSOR, off);
        // Keep p-8 inside the working set even when the mask wraps to zero.
        self.b.push(Inst::addi(p, p, 8));
        // Output array: the input offset shifted by half the data region.
        self.emit_ws_pointer(q, CURSOR, off ^ (data_bytes / 2));
        self.b.push(Inst::addi(q, q, 8));
        // Countdown trip counter (saves a register for the stencil values).
        self.b.push(Inst::addi(i, Reg::ZERO, trip));
        let loop_l = self.fresh_label("stencil");
        self.b.label(loop_l.clone());
        for u in 0..self.profile.unroll {
            let base = (u * 8) as i64;
            self.b.push(Inst::lw(a, p, base - 8));
            self.b.push(Inst::lw(b_, p, base));
            self.b.push(Inst::lw(c, p, base + 8));
            self.emit_arith(a, a, b_);
            self.emit_arith(a, a, c);
            self.b.push(Inst::sw(a, q, base));
        }
        self.b
            .push(Inst::addi(p, p, (self.profile.unroll * 8) as i64));
        self.b
            .push(Inst::addi(q, q, (self.profile.unroll * 8) as i64));
        self.b.push(Inst::addi(i, i, -1));
        self.b.push_branch(Inst::bne(i, Reg::ZERO, 0), loop_l);
    }

    /// Dependent-load chain through the permutation ring, with a
    /// data-dependent branch on each visited slot.
    fn kernel_pointer_chase(&mut self) {
        let addr = self.scratch(0);
        let i = self.scratch(1);
        let nreg = self.scratch(2);
        let t = self.scratch(3);
        let trip = self.rng.range(4, 10) as i64;
        self.b.push(Inst::addi(i, Reg::ZERO, 0));
        self.b.push(Inst::addi(nreg, Reg::ZERO, trip));
        let loop_l = self.fresh_label("chase");
        let skip_l = self.fresh_label("chase_skip");
        self.b.label(loop_l.clone());
        // Sanitize the (possibly hash-corrupted) index, then follow the ring:
        // addr = RING_BASE + (CHASE & RING_MASK) * 8 ; CHASE = mem[addr]
        self.b.push(Inst::and(CHASE, CHASE, RING_MASK));
        self.b.push(Inst::slli(addr, CHASE, 3));
        self.b.push(Inst::add(addr, addr, RING_BASE));
        self.b.push(Inst::lw(CHASE, addr, 0));
        // Data-dependent branch on the low bit of the visited index.
        self.b.push(Inst::andi(t, CHASE, 1));
        self.b
            .push_branch(Inst::beq(t, Reg::ZERO, 0), skip_l.clone());
        self.emit_arith(t, t, CHASE);
        self.emit_arith(t, t, i);
        self.b.label(skip_l);
        self.b.push(Inst::addi(i, i, 1));
        self.b.push_branch(Inst::blt(i, nreg, 0), loop_l);
    }

    /// ALU work organized as many short independent chains: each group
    /// seeds a fresh value, transforms it a few steps, and folds it into an
    /// accumulator with a 1-cycle op. Register renaming makes the groups
    /// independent even though they reuse architectural registers, so an
    /// out-of-order window extracts ILP bounded by the functional units,
    /// as in wide-basic-block codes like fpppp.
    fn kernel_int_compute(&mut self) {
        let groups = (2 * self.profile.unroll).clamp(4, 12);
        let depth = self.rng.range(2, 4) as usize;
        let aux = self.scratch(5);
        let acc = self.scratch(4);
        self.b.push(Inst::addi(aux, CURSOR, 17));
        self.b.push(Inst::addi(acc, CURSOR, 1));
        for g in 0..groups {
            let t = self.scratch(g % 4);
            self.b.push(Inst::addi(t, CURSOR, g as i64 + 3));
            for _ in 0..depth {
                self.emit_arith(t, t, aux);
            }
            self.emit_arith_fast(acc, acc, t);
        }
        let p = self.scratch(3);
        self.emit_ws_pointer(p, CURSOR, 24);
        self.b.push(Inst::sw(acc, p, 0));
    }

    /// Read-modify-write to pseudo-random slots; includes the byte-store /
    /// word-load partial-forwarding pair (§4.4.2).
    fn kernel_hash_update(&mut self) {
        let p = self.scratch(0);
        let t = self.scratch(1);
        let k = self.scratch(2);
        // HASH = HASH * 0x6d2b + 0x3c6ef35f (fits the 32-bit const limit).
        self.emit_const(k, 0x6d2b);
        self.b.push(Inst::mul(HASH, HASH, k));
        self.emit_const(t, 0x3c6e_f35f);
        self.b.push(Inst::add(HASH, HASH, t));
        // p = BASE + (HASH & mask & ~7)
        self.b.push(Inst::and(p, HASH, MASK_REG));
        self.b.push(Inst::andi(p, p, -8));
        self.b.push(Inst::add(p, p, BASE_REG));
        self.b.push(Inst::lw(t, p, 0));
        self.emit_arith(t, t, HASH);
        self.b.push(Inst::sw(t, p, 0));
        if self.kernel_idx.is_multiple_of(3) {
            // Byte store followed by a word load of the same location: the
            // load needs partial forwarding, which the base processor
            // resolves by flushing the store (and SRT must chunk-terminate).
            self.b.push(Inst::sb(t, p, 0));
            self.b.push(Inst::lw(t, p, 0));
            self.b.push(Inst::sw(t, p, 8));
        }
    }

    /// Dense data-dependent branching with profile-set predictability.
    fn kernel_branchy(&mut self) {
        let p = self.scratch(0);
        let v = self.scratch(1);
        let t = self.scratch(2);
        let acc = self.scratch(3);
        let tests = self.rng.range(3, 6);
        let off = self.rng.below(1 << 15);
        self.emit_ws_pointer(p, CURSOR, off);
        for j in 0..tests {
            self.b.push(Inst::lw(v, p, (j * 8) as i64));
            self.b.push(Inst::andi(t, v, 1));
            let skip = self.fresh_label("br_skip");
            // Biased data: bit 0 is mostly clear, so `bne` is mostly
            // not-taken — the predictor's accuracy tracks the data bias.
            self.b.push_branch(Inst::bne(t, Reg::ZERO, 0), skip.clone());
            self.emit_arith_fast(acc, acc, v);
            self.b.push(Inst::addi(acc, acc, 3));
            self.b.label(skip);
            self.emit_arith_fast(acc, acc, t);
        }
        let q = self.scratch(4);
        self.emit_ws_pointer(q, CURSOR, off + 64);
        self.b.push(Inst::sw(acc, q, 0));
    }

    /// A dispatcher calling 2–3 leaf functions (exercises jal/jalr + RAS).
    fn kernel_calls(&mut self, kernel_idx: usize) {
        let leaves = self.rng.range(2, 3);
        let skip = self.fresh_label("over_leaves");
        for l in 0..leaves {
            self.b
                .push_branch(Inst::jal(LINK2, 0), format!("leaf_{kernel_idx}_{l}"));
        }
        self.b.push_branch(Inst::j(0), skip.clone());
        for l in 0..leaves {
            self.b.label(format!("leaf_{kernel_idx}_{l}"));
            let r1 = self.scratch(l as usize % 4);
            let r2 = self.scratch((l as usize + 1) % 4);
            let r3 = self.scratch((l as usize + 2) % 4);
            let body = self.rng.range(2, 4);
            for _ in 0..body {
                self.emit_arith(r1, r1, r2);
                self.emit_arith_fast(r3, r3, r2);
            }
            self.emit_arith_fast(r1, r1, r3);
            self.b.push(Inst::jalr(Reg::ZERO, LINK2));
        }
        self.b.label(skip);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ALL_BENCHMARKS;
    use rmt_isa::interp::Interpreter;
    use rmt_isa::Op;

    /// `build_memory` as it was written word by word: every word through
    /// `write_u64`, the ring in permutation order.
    fn memory_word_by_word(profile: &Profile, benchmark: Benchmark, seed: u64) -> MemImage {
        let mut rng = Xoshiro256::seed_from(seed ^ 0xda7a ^ benchmark.id());
        let mut mem = MemImage::new();
        let data_bytes = data_region_bytes(profile.working_set);
        let data_slots = data_bytes / 8;
        for i in 0..data_slots {
            let mut v = rng.next_u64();
            if rng.chance(profile.branch_bias) {
                v &= !1;
            } else {
                v |= 1;
            }
            mem.write_u64(DATA_BASE + i * 8, v);
        }
        let n = data_slots.max(2);
        let ring_base = DATA_BASE + data_bytes;
        let mut perm: Vec<u64> = (0..n).collect();
        let mut i = n as usize - 1;
        while i > 0 {
            let j = rng.below(i as u64) as usize;
            perm.swap(i, j);
            i -= 1;
        }
        for k in 0..n as usize {
            mem.write_u64(ring_base + perm[k] * 8, perm[(k + 1) % n as usize]);
        }
        mem
    }

    #[test]
    fn memory_written_a_page_at_a_time_equals_word_by_word() {
        for &b in ALL_BENCHMARKS.iter() {
            for seed in [1, 2] {
                let m = build_memory(&b.profile(), b, seed);
                assert!(
                    m == memory_word_by_word(&b.profile(), b, seed),
                    "{b} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        for &b in &[Benchmark::Gcc, Benchmark::Swim] {
            let w1 = Workload::generate(b, 7);
            let w2 = Workload::generate(b, 7);
            assert_eq!(w1.program, w2.program);
            assert_eq!(w1.memory.digest(), w2.memory.digest());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let w1 = Workload::generate(Benchmark::Gcc, 1);
        let w2 = Workload::generate(Benchmark::Gcc, 2);
        assert_ne!(w1.program, w2.program);
    }

    #[test]
    fn different_benchmarks_differ() {
        let a = Workload::generate(Benchmark::Gcc, 1);
        let b = Workload::generate(Benchmark::Swim, 1);
        assert_ne!(a.program, b.program);
    }

    #[test]
    fn all_benchmarks_generate_and_run() {
        for &b in ALL_BENCHMARKS {
            let w = Workload::generate(b, 42);
            assert!(w.program.len() > 50, "{b}: too small");
            let mut interp = Interpreter::new(&w.program, w.memory.clone());
            let stop = interp.run(20_000);
            assert!(stop.is_ok(), "{b}: {stop:?}");
            assert_eq!(interp.committed(), 20_000, "{b} halted early");
        }
    }

    #[test]
    fn programs_loop_forever() {
        // 200k instructions without leaving the program or halting.
        let w = Workload::generate(Benchmark::Go, 3);
        let mut interp = Interpreter::new(&w.program, w.memory.clone());
        interp.run(200_000).unwrap();
        assert!(!interp.is_halted());
    }

    #[test]
    fn fp_benchmarks_use_fp_ops_int_benchmarks_do_not() {
        let fp = Workload::generate(Benchmark::Swim, 1);
        assert!(fp
            .program
            .insts()
            .iter()
            .any(|i| matches!(i.op, Op::Fadd | Op::Fsub | Op::Fmul | Op::Fdiv)));
        let int = Workload::generate(Benchmark::Gcc, 1);
        assert!(!int
            .program
            .insts()
            .iter()
            .any(|i| matches!(i.op, Op::Fadd | Op::Fsub | Op::Fmul | Op::Fdiv)));
    }

    #[test]
    fn memory_accesses_stay_in_working_set() {
        // Run a while and check every load/store address lands in
        // [DATA_BASE, DATA_BASE + ws + small slack).
        for &b in &[Benchmark::Compress, Benchmark::Mgrid, Benchmark::Li] {
            let ws = b.profile().working_set;
            let w = Workload::generate(b, 9);
            let mut interp = Interpreter::new(&w.program, w.memory.clone());
            for _ in 0..50_000 {
                let c = interp.step().unwrap();
                for (addr, _, bytes) in c.store.iter().chain(c.load.iter()) {
                    assert!(
                        *addr >= DATA_BASE && addr + bytes <= DATA_BASE + ws + 64 * 1024,
                        "{b}: address {addr:#x} outside working set"
                    );
                }
            }
        }
    }

    #[test]
    fn branchy_benchmarks_have_more_branches() {
        let count_branches = |w: &Workload| {
            let total = w.program.len() as f64;
            let br = w
                .program
                .insts()
                .iter()
                .filter(|i| i.op.is_cond_branch())
                .count() as f64;
            br / total
        };
        let go = count_branches(&Workload::generate(Benchmark::Go, 5));
        let swim = count_branches(&Workload::generate(Benchmark::Swim, 5));
        assert!(go > swim, "go {go} vs swim {swim}");
    }

    #[test]
    fn working_set_memory_is_initialized() {
        let w = Workload::generate(Benchmark::Compress, 1);
        // The data half must not be all zeros.
        let mut nonzero = 0;
        for i in 0..64 {
            if w.memory.read_u64(DATA_BASE + i * 8) != 0 {
                nonzero += 1;
            }
        }
        assert!(nonzero > 32);
    }

    #[test]
    fn chase_ring_is_a_cycle() {
        let b = Benchmark::Li;
        let w = Workload::generate(b, 1);
        let data_bytes = data_region_bytes(b.profile().working_set);
        let n = data_bytes / 8;
        let ring_base = DATA_BASE + data_bytes;
        // Follow the ring from slot 0; every visited relative index must be
        // in range, and in `n` hops we must return to the start (one cycle).
        let mut x = 0u64;
        for _ in 0..n {
            assert!(x < n, "chase index {x} out of range");
            x = w.memory.read_u64(ring_base + x * 8);
        }
        assert_eq!(x, 0, "ring is not a single cycle");
    }

    #[test]
    fn int_benchmarks_contain_partial_forward_pairs() {
        let w = Workload::generate(Benchmark::Compress, 1);
        assert!(w.program.insts().iter().any(|i| i.op == Op::Sb));
    }
}
