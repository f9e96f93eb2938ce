//! Store-sets memory dependence prediction (Chrysos & Emer), the base
//! processor's 4K-entry predictor (Table 1).
//!
//! When a load issues before an older store to the same address and reads a
//! stale value, the pipeline squashes from the load and reports the
//! violation here. The predictor merges the load and store PCs into a
//! *store set*; at rename time, a load whose PC belongs to a set waits for
//! any in-flight older store of the same set, preventing the violation from
//! recurring.

/// Identifier of a store set.
pub type StoreSetId = u32;

/// The store-sets predictor (SSIT only; the LFST role is played by the
/// pipeline's in-flight store scan, which is equivalent at our issue widths).
///
/// # Examples
///
/// ```
/// use rmt_predict::StoreSets;
///
/// let mut ss = StoreSets::new(4096);
/// assert_eq!(ss.set_of(0x40), None);
/// ss.record_violation(0x40, 0x100);
/// assert!(ss.set_of(0x40).is_some());
/// assert_eq!(ss.set_of(0x40), ss.set_of(0x100));
/// ```
#[derive(Debug, Clone)]
pub struct StoreSets {
    ssit: Vec<Option<StoreSetId>>,
    next_id: StoreSetId,
}

impl StoreSets {
    /// Creates a predictor with `entries` SSIT slots.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    pub fn new(entries: usize) -> Self {
        assert!(entries > 0, "store-sets table needs at least one entry");
        StoreSets {
            ssit: vec![None; entries],
            next_id: 0,
        }
    }

    fn index(&self, pc: u64) -> usize {
        let h = (pc >> 2).wrapping_mul(0x2545_f491_4f6c_dd1d);
        (h % self.ssit.len() as u64) as usize
    }

    /// The store set of the instruction at `pc`, if assigned.
    pub fn set_of(&self, pc: u64) -> Option<StoreSetId> {
        self.ssit[self.index(pc)]
    }

    /// Records a memory-order violation between the load at `load_pc` and
    /// the store at `store_pc`: both are merged into one store set.
    pub fn record_violation(&mut self, load_pc: u64, store_pc: u64) {
        let li = self.index(load_pc);
        let si = self.index(store_pc);
        match (self.ssit[li], self.ssit[si]) {
            (None, None) => {
                let id = self.next_id;
                self.next_id = self.next_id.wrapping_add(1);
                self.ssit[li] = Some(id);
                self.ssit[si] = Some(id);
            }
            (Some(id), None) => self.ssit[si] = Some(id),
            (None, Some(id)) => self.ssit[li] = Some(id),
            (Some(a), Some(b)) => {
                // Merge: adopt the smaller id (deterministic).
                let id = a.min(b);
                self.ssit[li] = Some(id);
                self.ssit[si] = Some(id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether the load at `load_pc` waits for the store at `store_pc`:
    /// both are in one store set.
    fn must_wait(ss: &StoreSets, load_pc: u64, store_pc: u64) -> bool {
        ss.set_of(load_pc).is_some() && ss.set_of(load_pc) == ss.set_of(store_pc)
    }

    #[test]
    fn untrained_predicts_no_dependence() {
        let ss = StoreSets::new(64);
        assert!(!must_wait(&ss, 0x40, 0x80));
        assert_eq!(ss.set_of(0x40), None);
    }

    #[test]
    fn violation_creates_shared_set() {
        let mut ss = StoreSets::new(64);
        ss.record_violation(0x40, 0x80);
        assert!(must_wait(&ss, 0x40, 0x80));
    }

    #[test]
    fn unrelated_pcs_do_not_wait() {
        let mut ss = StoreSets::new(4096);
        ss.record_violation(0x40, 0x80);
        assert!(!must_wait(&ss, 0x40, 0x200));
        assert!(!must_wait(&ss, 0x999, 0x80));
    }

    #[test]
    fn sets_merge_on_cross_violation() {
        let mut ss = StoreSets::new(4096);
        ss.record_violation(0x40, 0x80); // set A
        ss.record_violation(0x100, 0x140); // set B
        ss.record_violation(0x40, 0x140); // merge A and B
        assert!(must_wait(&ss, 0x40, 0x140));
        assert_eq!(ss.set_of(0x40), ss.set_of(0x140));
    }

    #[test]
    fn second_store_joins_existing_set() {
        let mut ss = StoreSets::new(4096);
        ss.record_violation(0x40, 0x80);
        ss.record_violation(0x40, 0x200);
        assert!(must_wait(&ss, 0x40, 0x80));
        assert!(must_wait(&ss, 0x40, 0x200));
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_entries_panics() {
        StoreSets::new(0);
    }
}
