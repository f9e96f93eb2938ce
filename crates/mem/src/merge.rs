//! The coalescing merge buffer.
//!
//! In the base processor (Table 1, §3.4) retired stores move from the store
//! queue into a 16-entry coalescing merge buffer of 64-byte blocks, which
//! eventually updates the data cache. Stores to the same block coalesce;
//! when the buffer is full, store retirement stalls — a back-pressure path
//! that matters for SRT, where verified stores drain in bursts.

/// One merge-buffer entry: a block being accumulated before writeback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    block: u64,
    /// Cycle at which this entry was last appended to.
    last_write: u64,
}

/// A coalescing merge buffer (timing model).
///
/// # Examples
///
/// ```
/// use rmt_mem::MergeBuffer;
///
/// let mut mb = MergeBuffer::new(16, 64, 4);
/// assert!(mb.try_insert(0x100, 0));
/// assert!(mb.try_insert(0x108, 1)); // coalesces into the same block
/// assert_eq!(mb.occupancy(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct MergeBuffer {
    entries: Vec<Entry>,
    capacity: usize,
    block_bytes: u64,
    /// Minimum cycles between drains of consecutive entries (write-port
    /// bandwidth into the data cache).
    drain_interval: u64,
    next_drain_ok: u64,
}

impl MergeBuffer {
    /// Creates a merge buffer with `capacity` block entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `block_bytes` is not a power of two.
    pub fn new(capacity: usize, block_bytes: u64, drain_interval: u64) -> Self {
        assert!(capacity > 0, "capacity must be non-zero");
        assert!(
            block_bytes.is_power_of_two(),
            "block size must be a power of two"
        );
        MergeBuffer {
            entries: Vec::with_capacity(capacity),
            capacity,
            block_bytes,
            drain_interval,
            next_drain_ok: 0,
        }
    }

    /// Attempts to accept a retired store to `addr` at cycle `now`.
    ///
    /// Returns `false` when the buffer is full and no entry could be
    /// drained; the caller must retry on a later cycle.
    pub fn try_insert(&mut self, addr: u64, now: u64) -> bool {
        let block = addr / self.block_bytes;
        if let Some(e) = self.entries.iter_mut().find(|e| e.block == block) {
            e.last_write = now;
            return true;
        }
        if self.entries.len() >= self.capacity {
            // Opportunistically drain the oldest entry if bandwidth allows.
            if now < self.next_drain_ok {
                return false;
            }
            self.drain_oldest(now);
        }
        self.entries.push(Entry {
            block,
            last_write: now,
        });
        true
    }

    fn drain_oldest(&mut self, now: u64) {
        if self.entries.is_empty() {
            return;
        }
        let oldest = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.last_write)
            .map(|(i, _)| i)
            .expect("non-empty");
        self.entries.swap_remove(oldest);
        self.next_drain_ok = now + self.drain_interval;
    }

    /// Background drain: call once per cycle to trickle entries out to the
    /// data cache when the write port is free.
    pub fn tick(&mut self, now: u64) {
        // Keep some headroom so bursts of retiring stores don't stall.
        if self.entries.len() > self.capacity / 2 && now >= self.next_drain_ok {
            self.drain_oldest(now);
        }
    }

    /// Entries currently buffered.
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }

    /// Whether a store to `addr` is still buffered (not yet in the cache).
    pub fn contains(&self, addr: u64) -> bool {
        let block = addr / self.block_bytes;
        self.entries.iter().any(|e| e.block == block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inserts_and_coalesces() {
        let mut mb = MergeBuffer::new(4, 64, 1);
        assert!(mb.try_insert(0, 0));
        assert!(mb.try_insert(63, 0)); // same block
        assert!(mb.try_insert(64, 0)); // new block
        assert_eq!(mb.occupancy(), 2);
        assert!(mb.contains(32));
        assert!(!mb.contains(128));
    }

    #[test]
    fn full_buffer_drains_if_bandwidth_allows() {
        let mut mb = MergeBuffer::new(2, 64, 1);
        assert!(mb.try_insert(0, 0));
        assert!(mb.try_insert(64, 0));
        // Full; insert at a later cycle should drain the oldest and accept.
        assert!(mb.try_insert(128, 10));
        assert_eq!(mb.occupancy(), 2);
    }

    #[test]
    fn full_buffer_stalls_without_bandwidth() {
        let mut mb = MergeBuffer::new(2, 64, 100);
        assert!(mb.try_insert(0, 0));
        assert!(mb.try_insert(64, 0));
        assert!(mb.try_insert(128, 1)); // drains at cycle 1 (first drain free)
                                        // next_drain_ok is now 101; another insert at cycle 2 must stall.
        assert!(!mb.try_insert(192, 2));
        // After bandwidth recovers, it succeeds.
        assert!(mb.try_insert(192, 200));
    }

    #[test]
    fn tick_trickles_when_over_half_full() {
        let mut mb = MergeBuffer::new(4, 64, 1);
        for i in 0..3 {
            assert!(mb.try_insert(i * 64, 0));
        }
        assert_eq!(mb.occupancy(), 3);
        mb.tick(5);
        assert_eq!(mb.occupancy(), 2);
        // Half-full threshold reached; no more draining.
        mb.tick(100);
        assert_eq!(mb.occupancy(), 2);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        MergeBuffer::new(0, 64, 1);
    }
}
