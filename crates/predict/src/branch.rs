//! Tournament branch prediction, jump-target prediction and the
//! return-address stack.
//!
//! Modelled on the Alpha 21264 family the base processor descends from: a
//! local predictor (per-PC history feeding saturating counters), a global
//! gshare predictor, and a chooser that learns which of the two to trust per
//! branch. The paper's base processor spends 208 Kbits here; our default
//! sizing (4K local, 4K global, 4K chooser 2-bit entries plus a 1K-entry
//! jump table) is the same order of magnitude.

/// Two-bit saturating counter helpers.
fn bump(counter: &mut u8, taken: bool) {
    if taken {
        *counter = (*counter + 1).min(3);
    } else {
        *counter = counter.saturating_sub(1);
    }
}

fn predicts_taken(counter: u8) -> bool {
    counter >= 2
}

/// Configuration for [`BranchPredictor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchPredictorConfig {
    /// Entries in the local predictor's history and counter tables.
    pub local_entries: usize,
    /// Bits of local history per branch.
    pub local_history_bits: u32,
    /// Entries in the global (gshare) table.
    pub global_entries: usize,
    /// Bits of global history.
    pub global_history_bits: u32,
    /// Entries in the chooser table.
    pub chooser_entries: usize,
    /// Entries in the jump-target table (for `jalr` targets).
    pub jump_entries: usize,
}

impl Default for BranchPredictorConfig {
    fn default() -> Self {
        BranchPredictorConfig {
            local_entries: 4096,
            local_history_bits: 10,
            global_entries: 4096,
            global_history_bits: 12,
            chooser_entries: 4096,
            jump_entries: 1024,
        }
    }
}

/// A 21264-style tournament direction predictor plus jump-target table.
///
/// # Examples
///
/// ```
/// use rmt_predict::BranchPredictor;
///
/// let mut bp = BranchPredictor::default();
/// // Train a strongly taken branch (long enough for the local history to
/// // saturate and the counters behind it to strengthen).
/// for _ in 0..32 {
///     bp.train_direction(0x40, true);
/// }
/// assert!(bp.predict_direction(0x40));
/// ```
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    cfg: BranchPredictorConfig,
    local_history: Vec<u32>,
    local_counters: Vec<u8>,
    global_counters: Vec<u8>,
    chooser: Vec<u8>,
    global_history: u32,
    jump_targets: Vec<(u64, u64)>,
}

impl Default for BranchPredictor {
    fn default() -> Self {
        Self::new(BranchPredictorConfig::default())
    }
}

impl BranchPredictor {
    /// Creates a predictor with the given table sizes.
    ///
    /// # Panics
    ///
    /// Panics if any table size is zero.
    pub fn new(cfg: BranchPredictorConfig) -> Self {
        assert!(
            cfg.local_entries > 0
                && cfg.global_entries > 0
                && cfg.chooser_entries > 0
                && cfg.jump_entries > 0,
            "all predictor tables need at least one entry"
        );
        BranchPredictor {
            local_history: vec![0; cfg.local_entries],
            local_counters: vec![1; cfg.local_entries],
            global_counters: vec![1; cfg.global_entries],
            chooser: vec![1; cfg.chooser_entries],
            global_history: 0,
            jump_targets: vec![(u64::MAX, 0); cfg.jump_entries],
            cfg,
        }
    }

    fn pc_hash(pc: u64) -> u64 {
        (pc >> 2).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 13
    }

    fn local_index(&self, pc: u64) -> usize {
        // Index counters by (pc, local history) as in a two-level predictor.
        let h = self.local_history[(Self::pc_hash(pc) % self.cfg.local_entries as u64) as usize];
        ((Self::pc_hash(pc) ^ h as u64) % self.cfg.local_entries as u64) as usize
    }

    fn global_index(&self, pc: u64) -> usize {
        let mask = (1u32 << self.cfg.global_history_bits) - 1;
        ((Self::pc_hash(pc) ^ (self.global_history & mask) as u64) % self.cfg.global_entries as u64)
            as usize
    }

    fn chooser_index(&self, pc: u64) -> usize {
        (Self::pc_hash(pc) % self.cfg.chooser_entries as u64) as usize
    }

    /// Predicts the direction of the conditional branch at `pc`.
    pub fn predict_direction(&self, pc: u64) -> bool {
        let local = predicts_taken(self.local_counters[self.local_index(pc)]);
        let global = predicts_taken(self.global_counters[self.global_index(pc)]);
        let use_global = predicts_taken(self.chooser[self.chooser_index(pc)]);
        if use_global {
            global
        } else {
            local
        }
    }

    /// Trains the direction tables and histories with the branch's actual
    /// outcome (timed resolution and sampled warming alike).
    pub fn train_direction(&mut self, pc: u64, taken: bool) {
        let li = self.local_index(pc);
        let gi = self.global_index(pc);
        let local_correct = predicts_taken(self.local_counters[li]) == taken;
        let global_correct = predicts_taken(self.global_counters[gi]) == taken;
        // Chooser learns toward whichever component was right.
        if local_correct != global_correct {
            let ci = self.chooser_index(pc);
            bump(&mut self.chooser[ci], global_correct);
        }
        bump(&mut self.local_counters[li], taken);
        bump(&mut self.global_counters[gi], taken);
        // Update histories.
        let lh_idx = (Self::pc_hash(pc) % self.cfg.local_entries as u64) as usize;
        let lh_mask = (1u32 << self.cfg.local_history_bits) - 1;
        self.local_history[lh_idx] = ((self.local_history[lh_idx] << 1) | taken as u32) & lh_mask;
        self.global_history = (self.global_history << 1) | taken as u32;
    }

    /// Predicts the target of an indirect jump (`jalr`) at `pc`; `None` if
    /// untrained.
    pub fn predict_jump_target(&self, pc: u64) -> Option<u64> {
        let idx = (Self::pc_hash(pc) % self.cfg.jump_entries as u64) as usize;
        let (tag, target) = self.jump_targets[idx];
        (tag == pc).then_some(target)
    }

    /// Trains the jump-target table.
    pub fn train_jump_target(&mut self, pc: u64, target: u64) {
        let idx = (Self::pc_hash(pc) % self.cfg.jump_entries as u64) as usize;
        self.jump_targets[idx] = (pc, target);
    }
}

/// A per-thread return-address stack.
///
/// Pushed by `jal` (calls), popped by `jalr` through the return-address
/// register. Bounded; overflow discards the oldest entry, underflow returns
/// `None` (predict via the jump table instead).
///
/// # Examples
///
/// ```
/// use rmt_predict::ReturnAddressStack;
///
/// let mut ras = ReturnAddressStack::new(4);
/// ras.push(0x104);
/// assert_eq!(ras.pop(), Some(0x104));
/// assert_eq!(ras.pop(), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ReturnAddressStack {
    stack: Vec<u64>,
    capacity: usize,
}

impl ReturnAddressStack {
    /// Creates a RAS with space for `capacity` return addresses.
    pub fn new(capacity: usize) -> Self {
        ReturnAddressStack {
            stack: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// Pushes a return address (discarding the oldest on overflow).
    pub fn push(&mut self, addr: u64) {
        if self.capacity == 0 {
            return;
        }
        if self.stack.len() == self.capacity {
            self.stack.remove(0);
        }
        self.stack.push(addr);
    }

    /// Pops the most recent return address.
    pub fn pop(&mut self) -> Option<u64> {
        self.stack.pop()
    }

    /// Current depth.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Clears the stack (on thread squash the speculative RAS is discarded).
    pub fn clear(&mut self) {
        self.stack.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_strongly_biased_branch() {
        let mut bp = BranchPredictor::default();
        for _ in 0..16 {
            bp.train_direction(0x100, true);
        }
        assert!(bp.predict_direction(0x100));
        for _ in 0..16 {
            bp.train_direction(0x200, false);
        }
        assert!(!bp.predict_direction(0x200));
    }

    #[test]
    fn alternating_branch_is_learnable_locally() {
        // Local history should capture a strict T/N/T/N pattern.
        let mut bp = BranchPredictor::default();
        let mut outcome = false;
        // Warm up.
        for _ in 0..200 {
            bp.train_direction(0x300, outcome);
            outcome = !outcome;
        }
        // Measure.
        let mut wrong = 0;
        for _ in 0..100 {
            let p = bp.predict_direction(0x300);
            if p != outcome {
                wrong += 1;
            }
            bp.train_direction(0x300, outcome);
            outcome = !outcome;
        }
        assert!(wrong < 20, "wrong = {wrong}");
    }

    #[test]
    fn jump_target_roundtrip() {
        let mut bp = BranchPredictor::default();
        assert_eq!(bp.predict_jump_target(0x80), None);
        bp.train_jump_target(0x80, 0x1000);
        assert_eq!(bp.predict_jump_target(0x80), Some(0x1000));
    }

    #[test]
    fn ras_lifo_order() {
        let mut ras = ReturnAddressStack::new(8);
        ras.push(4);
        ras.push(8);
        assert_eq!(ras.pop(), Some(8));
        assert_eq!(ras.pop(), Some(4));
        assert_eq!(ras.pop(), None);
    }

    #[test]
    fn ras_overflow_discards_oldest() {
        let mut ras = ReturnAddressStack::new(2);
        ras.push(1);
        ras.push(2);
        ras.push(3);
        assert_eq!(ras.depth(), 2);
        assert_eq!(ras.pop(), Some(3));
        assert_eq!(ras.pop(), Some(2));
        assert_eq!(ras.pop(), None);
    }

    #[test]
    fn ras_clear() {
        let mut ras = ReturnAddressStack::new(4);
        ras.push(1);
        ras.clear();
        assert_eq!(ras.depth(), 0);
    }

    #[test]
    fn zero_capacity_ras_is_inert() {
        let mut ras = ReturnAddressStack::new(0);
        ras.push(1);
        assert_eq!(ras.pop(), None);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_table_panics() {
        BranchPredictor::new(BranchPredictorConfig {
            local_entries: 0,
            ..Default::default()
        });
    }
}
