//! MBOX load and store queues.
//!
//! Queues are modelled per-thread; the base configuration's static
//! partitioning (§3.4) and the paper's per-thread store queue optimization
//! (§4.2) differ only in the capacity each thread receives.
//!
//! The store queue supports the paper's forwarding semantics: a load that is
//! fully covered by an older store forwards from it; a load that *partially*
//! overlaps one must wait until the store drains (the base processor
//! flushes the store; SRT must also chunk-terminate the line prediction
//! queue — §4.4.2). Loads that execute before an older same-address store
//! has its address are memory-order violations, detected when the store
//! executes.

use std::collections::VecDeque;

/// Outcome of probing the store queue on behalf of a load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForwardResult {
    /// No older overlapping store with a known address; the load may read
    /// the cache/memory (but see [`StoreQueue::oldest_unknown_addr`]).
    None,
    /// Fully covered by an older store: forward this value.
    Full(u64),
    /// Partially overlapped by the older store with this sequence number:
    /// the load must wait for it to drain.
    Partial {
        /// Thread-local sequence number of the blocking store.
        store_seq: u64,
    },
}

/// One store-queue entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SqEntry {
    /// Thread-local sequence number of the store instruction.
    pub seq: u64,
    /// Program-order store tag within the thread (for output comparison).
    pub tag: u64,
    /// PC of the store (store-sets training).
    pub pc: u64,
    /// Effective address (valid once `addr_known`).
    pub addr: u64,
    /// Store data (low `bytes` bytes).
    pub value: u64,
    /// Access size in bytes.
    pub bytes: u64,
    /// Whether the address/data have been computed.
    pub addr_known: bool,
    /// Whether the store has retired from the completion unit.
    pub retired: bool,
    /// Cycle of retirement (valid once `retired`).
    pub retired_at: u64,
    /// Whether output comparison released this store (always true for
    /// non-redundant threads once retired).
    pub verified: bool,
    /// Cycle the entry was allocated (lifetime statistics, §7.1).
    pub alloc_cycle: u64,
}

fn overlaps(a_addr: u64, a_bytes: u64, b_addr: u64, b_bytes: u64) -> bool {
    a_addr < b_addr + b_bytes && b_addr < a_addr + a_bytes
}

/// A per-thread store queue.
#[derive(Debug, Clone)]
pub struct StoreQueue {
    entries: VecDeque<SqEntry>,
    capacity: usize,
}

impl StoreQueue {
    /// Creates a store queue holding up to `capacity` stores.
    pub fn new(capacity: usize) -> Self {
        StoreQueue {
            entries: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Whether another store can be allocated.
    pub fn has_space(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Allocates an entry at rename time (program order).
    ///
    /// # Panics
    ///
    /// Panics if the queue is full (callers must check
    /// [`StoreQueue::has_space`]) or the sequence is not increasing.
    pub fn alloc(&mut self, seq: u64, tag: u64, pc: u64, now: u64) {
        assert!(self.has_space(), "store queue overflow");
        if let Some(back) = self.entries.back() {
            assert!(back.seq < seq, "stores must allocate in program order");
        }
        self.entries.push_back(SqEntry {
            seq,
            tag,
            pc,
            addr: 0,
            value: 0,
            bytes: 0,
            addr_known: false,
            retired: false,
            retired_at: 0,
            verified: false,
            alloc_cycle: now,
        });
    }

    fn find_mut(&mut self, seq: u64) -> Option<&mut SqEntry> {
        self.entries.iter_mut().find(|e| e.seq == seq)
    }

    /// Fills in address and data when the store executes.
    pub fn fill(&mut self, seq: u64, addr: u64, value: u64, bytes: u64) {
        if let Some(e) = self.find_mut(seq) {
            e.addr = addr;
            e.value = value;
            e.bytes = bytes;
            e.addr_known = true;
        }
    }

    /// Marks the store as retired from the completion unit at cycle `now`.
    pub fn mark_retired_at(&mut self, seq: u64, now: u64) {
        if let Some(e) = self.find_mut(seq) {
            e.retired = true;
            e.retired_at = now;
        }
    }

    /// Marks the store as verified by output comparison.
    pub fn mark_verified(&mut self, seq: u64) {
        if let Some(e) = self.find_mut(seq) {
            e.verified = true;
        }
    }

    /// Marks the store with the given *tag* as verified (used by the store
    /// comparator, which matches trailing stores by tag).
    pub fn mark_verified_by_tag(&mut self, tag: u64) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.tag == tag) {
            e.verified = true;
        }
    }

    /// The oldest entry, if any.
    pub fn head(&self) -> Option<&SqEntry> {
        self.entries.front()
    }

    /// Whether any store older than `seq` is still queued (memory barriers
    /// wait on exactly these — younger stores renamed past the barrier must
    /// not block it).
    pub fn has_older_than(&self, seq: u64) -> bool {
        matches!(self.entries.front(), Some(e) if e.seq < seq)
    }

    /// Removes and returns the oldest entry (it drains to the merge
    /// buffer / sphere boundary).
    pub fn release_head(&mut self) -> Option<SqEntry> {
        self.entries.pop_front()
    }

    /// Drops all stores with `seq >= from_seq` (squash).
    pub fn squash_from(&mut self, from_seq: u64) {
        while matches!(self.entries.back(), Some(e) if e.seq >= from_seq) {
            self.entries.pop_back();
        }
    }

    /// Probes for forwarding on behalf of a load older than `load_seq`.
    /// Considers only stores with `seq < load_seq` and a known address,
    /// youngest first.
    pub fn forward(&self, load_addr: u64, load_bytes: u64, load_seq: u64) -> ForwardResult {
        for e in self.entries.iter().rev() {
            if e.seq >= load_seq || !e.addr_known {
                continue;
            }
            if !overlaps(e.addr, e.bytes, load_addr, load_bytes) {
                continue;
            }
            if e.addr <= load_addr && e.addr + e.bytes >= load_addr + load_bytes {
                let shift = (load_addr - e.addr) * 8;
                let v = e.value >> shift;
                let v = if load_bytes == 8 { v } else { v & 0xff };
                return ForwardResult::Full(v);
            }
            return ForwardResult::Partial { store_seq: e.seq };
        }
        ForwardResult::None
    }

    /// The oldest store older than `load_seq` whose address is still
    /// unknown, if any — a load issuing past it speculates on memory
    /// independence.
    pub fn oldest_unknown_addr(&self, load_seq: u64) -> Option<&SqEntry> {
        self.entries
            .iter()
            .find(|e| e.seq < load_seq && !e.addr_known)
    }

    /// Iterates over all stores older than `load_seq` whose addresses are
    /// still unknown (memory-dependence speculation consults every one).
    pub fn unknown_addr_older(&self, load_seq: u64) -> impl Iterator<Item = &SqEntry> {
        self.entries
            .iter()
            .filter(move |e| e.seq < load_seq && !e.addr_known)
    }

    /// Iterates over entries, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &SqEntry> {
        self.entries.iter()
    }

    /// XORs `mask` into the data of the entry holding `seq` (fault
    /// injection). Returns whether an entry was hit.
    pub fn corrupt(&mut self, seq: u64, mask: u64) -> bool {
        if let Some(e) = self.find_mut(seq) {
            e.value ^= mask;
            true
        } else {
            false
        }
    }
}

/// One load-queue entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LqEntry {
    /// Thread-local sequence number of the load.
    pub seq: u64,
    /// PC of the load (store-sets training).
    pub pc: u64,
    /// Effective address (valid once `executed`).
    pub addr: u64,
    /// Access size in bytes.
    pub bytes: u64,
    /// Whether the load has executed (read its value).
    pub executed: bool,
}

/// A per-thread load queue.
#[derive(Debug, Clone)]
pub struct LoadQueue {
    entries: VecDeque<LqEntry>,
    capacity: usize,
}

impl LoadQueue {
    /// Creates a load queue holding up to `capacity` loads.
    pub fn new(capacity: usize) -> Self {
        LoadQueue {
            entries: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Whether another load can be allocated.
    pub fn has_space(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue holds no loads at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Allocates an entry at rename time.
    ///
    /// # Panics
    ///
    /// Panics if full or out of program order.
    pub fn alloc(&mut self, seq: u64, pc: u64) {
        assert!(self.has_space(), "load queue overflow");
        if let Some(back) = self.entries.back() {
            assert!(back.seq < seq, "loads must allocate in program order");
        }
        self.entries.push_back(LqEntry {
            seq,
            pc,
            addr: 0,
            bytes: 0,
            executed: false,
        });
    }

    /// Records the address when the load executes.
    pub fn fill(&mut self, seq: u64, addr: u64, bytes: u64) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.seq == seq) {
            e.addr = addr;
            e.bytes = bytes;
            e.executed = true;
        }
    }

    /// Releases the oldest entry at retirement.
    pub fn release(&mut self, seq: u64) {
        if matches!(self.entries.front(), Some(e) if e.seq == seq) {
            self.entries.pop_front();
        }
    }

    /// Drops all loads with `seq >= from_seq` (squash).
    pub fn squash_from(&mut self, from_seq: u64) {
        while matches!(self.entries.back(), Some(e) if e.seq >= from_seq) {
            self.entries.pop_back();
        }
    }

    /// When a store executes, returns the oldest already-executed load that
    /// is younger than the store and overlaps it — a memory-order
    /// violation (the load read stale data).
    pub fn violation(&self, store_seq: u64, addr: u64, bytes: u64) -> Option<&LqEntry> {
        self.entries
            .iter()
            .filter(|e| e.executed && e.seq > store_seq && overlaps(addr, bytes, e.addr, e.bytes))
            .min_by_key(|e| e.seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sq() -> StoreQueue {
        StoreQueue::new(4)
    }

    #[test]
    fn sq_alloc_fill_release() {
        let mut q = sq();
        q.alloc(1, 0, 0x40, 5);
        q.fill(1, 0x100, 7, 8);
        assert_eq!(q.len(), 1);
        let h = q.head().unwrap();
        assert_eq!(h.addr, 0x100);
        assert!(h.addr_known);
        assert_eq!(h.alloc_cycle, 5);
        let e = q.release_head().unwrap();
        assert_eq!(e.seq, 1);
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn sq_overflow_panics() {
        let mut q = StoreQueue::new(1);
        q.alloc(1, 0, 0, 0);
        q.alloc(2, 1, 0, 0);
    }

    #[test]
    fn sq_forward_full_containment() {
        let mut q = sq();
        q.alloc(1, 0, 0, 0);
        q.fill(1, 0x100, 0xaabb_ccdd_eeff_1122, 8);
        // Word load, same address, younger.
        assert_eq!(
            q.forward(0x100, 8, 2),
            ForwardResult::Full(0xaabb_ccdd_eeff_1122)
        );
        // Byte load within the word.
        assert_eq!(q.forward(0x101, 1, 2), ForwardResult::Full(0x11));
    }

    #[test]
    fn sq_forward_partial_overlap() {
        let mut q = sq();
        q.alloc(1, 0, 0, 0);
        q.fill(1, 0x100, 0xff, 1); // byte store
                                   // Word load covering the byte: partial.
        assert_eq!(
            q.forward(0x100, 8, 2),
            ForwardResult::Partial { store_seq: 1 }
        );
    }

    #[test]
    fn sq_forward_ignores_younger_stores() {
        let mut q = sq();
        q.alloc(5, 0, 0, 0);
        q.fill(5, 0x100, 1, 8);
        assert_eq!(q.forward(0x100, 8, 3), ForwardResult::None);
    }

    #[test]
    fn sq_forward_picks_youngest_older() {
        let mut q = sq();
        q.alloc(1, 0, 0, 0);
        q.fill(1, 0x100, 111, 8);
        q.alloc(2, 1, 0, 0);
        q.fill(2, 0x100, 222, 8);
        assert_eq!(q.forward(0x100, 8, 9), ForwardResult::Full(222));
    }

    #[test]
    fn sq_unknown_addr_detection() {
        let mut q = sq();
        q.alloc(1, 0, 0x40, 0);
        assert!(q.oldest_unknown_addr(2).is_some());
        q.fill(1, 0x100, 0, 8);
        assert!(q.oldest_unknown_addr(2).is_none());
        // Younger unknown store is irrelevant to an older load.
        q.alloc(5, 1, 0x44, 0);
        assert!(q.oldest_unknown_addr(3).is_none());
    }

    #[test]
    fn sq_squash_drops_young_entries() {
        let mut q = sq();
        q.alloc(1, 0, 0, 0);
        q.alloc(2, 1, 0, 0);
        q.alloc(3, 2, 0, 0);
        q.squash_from(2);
        assert_eq!(q.len(), 1);
        assert_eq!(q.head().unwrap().seq, 1);
    }

    #[test]
    fn sq_verify_by_tag() {
        let mut q = sq();
        q.alloc(1, 10, 0, 0);
        q.alloc(2, 11, 0, 0);
        q.mark_verified_by_tag(11);
        assert!(!q.head().unwrap().verified);
        assert!(q.iter().nth(1).unwrap().verified);
    }

    #[test]
    fn sq_corrupt_flips_value() {
        let mut q = sq();
        q.alloc(1, 0, 0, 0);
        q.fill(1, 0x100, 0b1000, 8);
        assert!(q.corrupt(1, 0b0001));
        assert_eq!(q.forward(0x100, 8, 2), ForwardResult::Full(0b1001));
        assert!(!q.corrupt(99, 1));
    }

    #[test]
    fn lq_violation_detection() {
        let mut q = LoadQueue::new(4);
        q.alloc(2, 0x40);
        q.alloc(4, 0x44);
        q.fill(2, 0x100, 8);
        q.fill(4, 0x200, 8);
        // A store at seq 1 to 0x100 executes late: load 2 violated.
        let v = q.violation(1, 0x100, 8).unwrap();
        assert_eq!(v.seq, 2);
        // Store at seq 3: load 2 is older, not a violation; load 4 does not
        // overlap.
        assert!(q.violation(3, 0x100, 8).is_none());
    }

    #[test]
    fn lq_release_and_squash() {
        let mut q = LoadQueue::new(4);
        q.alloc(1, 0);
        q.alloc(2, 4);
        q.release(1);
        assert_eq!(q.len(), 1);
        q.squash_from(0);
        assert_eq!(q.len(), 0);
        assert!(q.has_space());
    }

    #[test]
    fn lq_unexecuted_loads_never_violate() {
        let mut q = LoadQueue::new(4);
        q.alloc(2, 0x40);
        assert!(q.violation(1, 0x100, 8).is_none());
    }
}
