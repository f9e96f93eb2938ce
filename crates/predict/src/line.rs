//! The line predictor.
//!
//! The base processor's IBOX is driven by a line predictor that produces a
//! sequence of predicted instruction-cache line indices — two chunk
//! addresses per cycle — and is only *verified* by the slower branch
//! predictor (§3.1). We model it as a direct-mapped table from the current
//! fetch-chunk address to the predicted next fetch-chunk address (a
//! last-outcome predictor with aliasing), which reproduces the paper's
//! observed 14–28% line misprediction rates on irregular control flow.

/// A direct-mapped next-chunk predictor.
///
/// # Examples
///
/// ```
/// use rmt_predict::LinePredictor;
///
/// let mut lp = LinePredictor::new(1024);
/// // Untrained: predicts the fall-through chunk.
/// assert_eq!(lp.predict(0x0, 32), 0x20);
/// lp.train(0x0, 0x100);
/// assert_eq!(lp.predict(0x0, 32), 0x100);
/// ```
#[derive(Debug, Clone)]
pub struct LinePredictor {
    /// `(tag, next_pc)` per entry; `u64::MAX` tag = empty.
    table: Vec<(u64, u64)>,
}

impl LinePredictor {
    /// Creates a predictor with `entries` slots (the paper's base processor
    /// has 28K entries in total).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    pub fn new(entries: usize) -> Self {
        assert!(entries > 0, "line predictor needs at least one entry");
        LinePredictor {
            table: vec![(u64::MAX, 0); entries],
        }
    }

    fn index(&self, chunk_pc: u64) -> usize {
        // Chunks are 32-byte aligned fetch groups; hash the chunk number.
        let chunk = chunk_pc >> 2;
        let h = chunk.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_right(17);
        (h % self.table.len() as u64) as usize
    }

    /// Predicts the next fetch-chunk address after the chunk at `chunk_pc`
    /// whose sequential size is `chunk_bytes`.
    ///
    /// An untrained or aliased entry falls back to the fall-through address
    /// `chunk_pc + chunk_bytes`.
    pub fn predict(&self, chunk_pc: u64, chunk_bytes: u64) -> u64 {
        let (tag, next) = self.table[self.index(chunk_pc)];
        if tag == chunk_pc {
            next
        } else {
            chunk_pc + chunk_bytes
        }
    }

    /// Trains the entry for `chunk_pc` with the actual next chunk address.
    pub fn train(&mut self, chunk_pc: u64, actual_next: u64) {
        let idx = self.index(chunk_pc);
        self.table[idx] = (chunk_pc, actual_next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untrained_predicts_fall_through() {
        let lp = LinePredictor::new(64);
        assert_eq!(lp.predict(0x40, 32), 0x60);
    }

    #[test]
    fn trained_entry_predicts_target() {
        let mut lp = LinePredictor::new(64);
        lp.train(0x40, 0x200);
        assert_eq!(lp.predict(0x40, 32), 0x200);
    }

    #[test]
    fn retraining_overwrites() {
        let mut lp = LinePredictor::new(64);
        lp.train(0x40, 0x200);
        lp.train(0x40, 0x300);
        assert_eq!(lp.predict(0x40, 32), 0x300);
    }

    #[test]
    fn aliasing_mispredicts_fall_through() {
        // 1-entry table: every chunk aliases.
        let mut lp = LinePredictor::new(1);
        lp.train(0x40, 0x200);
        // A different chunk hits the same entry but fails the tag check.
        assert_eq!(lp.predict(0x80, 32), 0xa0);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_entries_panics() {
        LinePredictor::new(0);
    }
}
