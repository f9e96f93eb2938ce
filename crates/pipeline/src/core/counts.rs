//! The core's event counters: one `u64` per [`Event`], bumped by index
//! in the cycle loop and named only when they are read.

/// An event the core counts. Variants are in the order of [`NAMES`],
/// which gives each its exported name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Event {
    BranchMispredicts,
    ChunksFetched,
    Committed,
    ControlDivergences,
    DcacheMisses,
    IcacheMissStalls,
    Issued,
    LeadRetireNacks,
    LvqNotReady,
    MembarWaits,
    MergeBufferStalls,
    Misfetches,
    OrderViolations,
    PartialForwardStalls,
    PsrFallbackSameHalf,
    Renamed,
    SqStrikesLanded,
    Squashes,
    StallIqFull,
    StallIqHalfFull,
    StallLqFull,
    StallNoPhysRegs,
    StallRobFull,
    StallSqFull,
    StoreForwards,
    StoreSetWaits,
    StoreVerifyWaits,
    StoresReleased,
    ThreadRestores,
    TrailingChunksFetched,
    TrailingIcacheRollbacks,
    UncachedLoadWaits,
    UncachedLoads,
}

/// Exported event names, indexed by `Event as usize`, in name order.
const NAMES: [&str; 33] = [
    "branch_mispredicts",
    "chunks_fetched",
    "committed",
    "control_divergences",
    "dcache_misses",
    "icache_miss_stalls",
    "issued",
    "lead_retire_nacks",
    "lvq_not_ready",
    "membar_waits",
    "merge_buffer_stalls",
    "misfetches",
    "order_violations",
    "partial_forward_stalls",
    "psr_fallback_same_half",
    "renamed",
    "sq_strikes_landed",
    "squashes",
    "stall_iq_full",
    "stall_iq_half_full",
    "stall_lq_full",
    "stall_no_phys_regs",
    "stall_rob_full",
    "stall_sq_full",
    "store_forwards",
    "store_set_waits",
    "store_verify_waits",
    "stores_released",
    "thread_restores",
    "trailing_chunks_fetched",
    "trailing_icache_rollbacks",
    "uncached_load_waits",
    "uncached_loads",
];

/// Counts of every [`Event`] since the core was built. Nothing resets
/// them, so an event has happened exactly when its count is non-zero.
#[derive(Debug, Clone)]
pub(crate) struct EventCounts([u64; NAMES.len()]);

impl Default for EventCounts {
    fn default() -> Self {
        EventCounts([0; NAMES.len()])
    }
}

impl EventCounts {
    /// Counts one `event`.
    pub(crate) fn inc(&mut self, event: Event) {
        self.0[event as usize] += 1;
    }

    /// The count of the event exported as `name` (0 for an unknown name).
    pub(crate) fn get(&self, name: &str) -> u64 {
        NAMES.binary_search(&name).map_or(0, |i| self.0[i])
    }

    /// `(name, count)` of every event that happened, in name order.
    pub(crate) fn nonzero(&self) -> impl Iterator<Item = (&'static str, u64)> {
        NAMES
            .iter()
            .zip(self.0)
            .filter(|&(_, n)| n > 0)
            .map(|(&name, n)| (name, n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_sorted_and_cover_every_event() {
        assert!(NAMES.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(Event::UncachedLoads as usize, NAMES.len() - 1);
        assert_eq!(NAMES[Event::Renamed as usize], "renamed");
        assert_eq!(NAMES[Event::StallIqHalfFull as usize], "stall_iq_half_full");
    }

    #[test]
    fn get_reads_one_count_by_name() {
        let mut c = EventCounts::default();
        c.inc(Event::StoresReleased);
        c.inc(Event::StoresReleased);
        assert_eq!(c.get("stores_released"), 2);
        assert_eq!(c.get("sq_strikes_landed"), 0);
        assert_eq!(c.get("no_such_event"), 0);
    }
}
