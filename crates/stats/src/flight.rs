//! Fault-forensics flight recorder.
//!
//! A bounded, deterministic ring buffer of structured events used to
//! reconstruct the causal timeline of a fault injection: injection, first
//! corrupted value, sphere-of-replication boundary crossings, detector
//! triggers, squashes and recovery. Events carry a *cause-chain id* so a
//! single recorder can interleave timelines from several injections (or an
//! injection plus background activity) and still be teased apart offline.
//!
//! The events live in a [`Ring`]: when full, the oldest event is dropped
//! and counted, silently and without panicking.

use crate::json::Json;
use crate::ring::Ring;

/// One structured event on a fault's causal timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Simulated cycle at which the event occurred.
    pub cycle: u64,
    /// Cause-chain id grouping events that share a root cause.
    pub chain: u32,
    /// Stable event-kind label (e.g. `"inject"`, `"sphere-cross"`).
    pub kind: &'static str,
    /// Kind-specific payload (register index, store count, latency...).
    pub detail: u64,
}

impl FlightEvent {
    /// Renders the event as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("cycle", Json::U64(self.cycle))
            .with("chain", Json::U64(self.chain as u64))
            .with("kind", Json::Str(self.kind.to_string()))
            .with("detail", Json::U64(self.detail))
    }
}

/// Bounded ring buffer of [`FlightEvent`]s with cause-chain allocation.
///
/// # Examples
///
/// ```
/// use rmt_stats::flight::FlightRecorder;
///
/// let mut rec = FlightRecorder::new(4);
/// let chain = rec.begin_chain();
/// rec.record(100, chain, "inject", 7);
/// rec.record(105, chain, "sphere-cross", 1);
/// assert_eq!(rec.len(), 2);
/// assert_eq!(rec.dropped(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    ring: Ring<FlightEvent>,
    next_chain: u32,
}

impl FlightRecorder {
    /// Creates a recorder holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            ring: Ring::new(capacity),
            next_chain: 0,
        }
    }

    /// Allocates a fresh cause-chain id.
    pub fn begin_chain(&mut self) -> u32 {
        let id = self.next_chain;
        self.next_chain = self.next_chain.wrapping_add(1);
        id
    }

    /// Records one event, evicting the oldest if the ring is full.
    /// Never panics and never grows past the configured capacity.
    pub fn record(&mut self, cycle: u64, chain: u32, kind: &'static str, detail: u64) {
        self.ring.push(FlightEvent {
            cycle,
            chain,
            kind,
            detail,
        });
    }

    /// Events currently held, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &FlightEvent> {
        self.ring.iter()
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when no events are held.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Number of events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// Events belonging to one cause chain, oldest first.
    pub fn chain_events(&self, chain: u32) -> impl Iterator<Item = &FlightEvent> {
        self.ring.iter().filter(move |e| e.chain == chain)
    }

    /// Clears all events and the drop counter (chain ids keep advancing).
    pub fn clear(&mut self) {
        self.ring.clear();
    }

    /// Renders the recorder as `{"dropped": N, "events": [...]}`.
    pub fn to_json(&self) -> Json {
        Json::obj().with("dropped", Json::U64(self.dropped())).with(
            "events",
            Json::Arr(self.ring.iter().map(|e| e.to_json()).collect()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chains_separate_interleaved_timelines() {
        let mut rec = FlightRecorder::new(16);
        let a = rec.begin_chain();
        let b = rec.begin_chain();
        assert_ne!(a, b);
        rec.record(1, a, "inject", 0);
        rec.record(2, b, "inject", 0);
        rec.record(3, a, "detect", 0);
        assert_eq!(rec.chain_events(a).count(), 2);
        assert_eq!(rec.chain_events(b).count(), 1);
    }

    #[test]
    fn clear_resets_events_but_not_chain_ids() {
        let mut rec = FlightRecorder::new(2);
        let a = rec.begin_chain();
        rec.record(1, a, "x", 0);
        rec.record(2, a, "x", 0);
        rec.record(3, a, "x", 0);
        assert_eq!(rec.dropped(), 1);
        rec.clear();
        assert!(rec.is_empty());
        let b = rec.begin_chain();
        assert!(b > a);
    }

    #[test]
    fn json_round_trips_through_parser() {
        let mut rec = FlightRecorder::new(4);
        let c = rec.begin_chain();
        rec.record(5, c, "inject", 42);
        let j = rec.to_json();
        assert_eq!(j.get("dropped").unwrap().as_u64(), Some(0));
        let evs = j.get("events").unwrap().as_array().unwrap();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].get("kind").unwrap().as_str(), Some("inject"));
        let text = j.encode();
        assert_eq!(crate::json::parse(&text).unwrap(), j);
    }
}
