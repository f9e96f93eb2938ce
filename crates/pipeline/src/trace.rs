//! Pipeline event tracing.
//!
//! A bounded ring of per-stage events for debugging and for tests that
//! assert *mechanism* (e.g. "this load issued twice because the first
//! attempt hit a partial forward"). Tracing is off by default and costs
//! nothing when disabled; enable it with
//! [`crate::Core::enable_tracing`].
//!
//! # Examples
//!
//! ```
//! use rmt_pipeline::{Core, CoreConfig};
//! use rmt_pipeline::env::IndependentEnv;
//! use rmt_isa::{Inst, MemImage, Program, Reg};
//! use std::rc::Rc;
//!
//! let p = Program::from_insts(vec![Inst::addi(Reg::new(1), Reg::ZERO, 7), Inst::halt()]);
//! let mut core = Core::new(CoreConfig::base(), 0);
//! core.attach_thread(Rc::new(p), 0);
//! core.finalize_partitions();
//! core.enable_tracing(256);
//! let mut env = IndependentEnv::new(vec![MemImage::new()]);
//! let mut hier = rmt_mem::MemoryHierarchy::new(Default::default(), 1);
//! for c in 0..200 { core.tick(c, &mut hier, &mut env); }
//! let text = core.tracer().unwrap().render();
//! assert!(text.contains("retire"));
//! ```

use rmt_stats::ring::Ring;
use std::fmt;

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A chunk of `len` instructions entered the rate-matching buffer.
    FetchChunk {
        /// Instructions in the chunk.
        len: usize,
    },
    /// An instruction was renamed into the window.
    Rename,
    /// An instruction issued to functional unit `fu`.
    Issue {
        /// Functional unit id.
        fu: u8,
    },
    /// An instruction retired.
    Retire,
    /// The thread squashed from this instruction and redirected to
    /// `new_pc`.
    Squash {
        /// Redirect target.
        new_pc: u64,
    },
    /// A store left the sphere of replication.
    StoreRelease,
    /// A leading load's value entered the load value queue.
    LvqFill,
    /// A trailing load consumed its entry from the load value queue.
    LvqDrain,
    /// A leading chunk boundary pushed a prediction into the line
    /// prediction queue.
    LpqPush,
    /// The trailing thread consumed a line prediction (fetch-done).
    LpqPop,
    /// The output comparator checked a leading/trailing store pair.
    StoreCompare,
    /// A redundancy checker flagged a fault.
    FaultDetect,
}

impl TraceKind {
    /// Stable short name used as the Chrome-trace event name.
    pub fn name(&self) -> &'static str {
        match self {
            TraceKind::FetchChunk { .. } => "fetch",
            TraceKind::Rename => "rename",
            TraceKind::Issue { .. } => "issue",
            TraceKind::Retire => "retire",
            TraceKind::Squash { .. } => "squash",
            TraceKind::StoreRelease => "store-release",
            TraceKind::LvqFill => "lvq-fill",
            TraceKind::LvqDrain => "lvq-drain",
            TraceKind::LpqPush => "lpq-push",
            TraceKind::LpqPop => "lpq-pop",
            TraceKind::StoreCompare => "store-compare",
            TraceKind::FaultDetect => "fault-detect",
        }
    }
}

impl fmt::Display for TraceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceKind::FetchChunk { len } => write!(f, "fetch({len})"),
            TraceKind::Rename => write!(f, "rename"),
            TraceKind::Issue { fu } => write!(f, "issue(fu{fu})"),
            TraceKind::Retire => write!(f, "retire"),
            TraceKind::Squash { new_pc } => write!(f, "squash->{new_pc:#x}"),
            TraceKind::StoreRelease => write!(f, "store-release"),
            TraceKind::LvqFill => write!(f, "lvq-fill"),
            TraceKind::LvqDrain => write!(f, "lvq-drain"),
            TraceKind::LpqPush => write!(f, "lpq-push"),
            TraceKind::LpqPop => write!(f, "lpq-pop"),
            TraceKind::StoreCompare => write!(f, "store-compare"),
            TraceKind::FaultDetect => write!(f, "fault-detect"),
        }
    }
}

/// One traced event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Cycle of the event.
    pub cycle: u64,
    /// Hardware thread.
    pub tid: usize,
    /// PC involved (0 when not applicable).
    pub pc: u64,
    /// The event.
    pub kind: TraceKind,
}

/// A bounded ring of [`TraceRecord`]s.
#[derive(Debug, Clone)]
pub struct Tracer {
    events: Ring<TraceRecord>,
}

impl Tracer {
    /// Default ring capacity: ample for a warm measurement window of a few
    /// thousand cycles without evicting anything.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// Creates a tracer keeping the most recent `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        Tracer {
            events: Ring::new(capacity),
        }
    }

    /// Appends an event, evicting the oldest beyond capacity.
    pub fn record(&mut self, cycle: u64, tid: usize, pc: u64, kind: TraceKind) {
        self.events.push(TraceRecord {
            cycle,
            tid,
            pc,
            kind,
        });
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceRecord> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted due to the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.events.dropped()
    }

    /// Renders the retained events as one line each. When older events were
    /// evicted by the capacity bound, a trailing `... N older events
    /// dropped` line says so.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for e in self.events.iter() {
            let _ = writeln!(
                out,
                "[{:>8}] t{} pc={:#06x} {}",
                e.cycle, e.tid, e.pc, e.kind
            );
        }
        if self.dropped() > 0 {
            let _ = writeln!(out, "... {} older events dropped", self.dropped());
        }
        out
    }

    /// Exports the retained events in Chrome trace-event JSON, loadable in
    /// `chrome://tracing` or <https://ui.perfetto.dev>.
    ///
    /// Each event becomes a thread-scoped instant event (`"ph": "i"`) with
    /// the cycle number as its microsecond timestamp, the hardware thread
    /// as `tid`, and the PC plus kind-specific details in `args`.
    pub fn to_chrome_trace(&self) -> String {
        use rmt_stats::Json;
        let mut events = Vec::with_capacity(self.events.len());
        for e in self.events.iter() {
            let mut args = Json::obj().with("pc", Json::Str(format!("{:#x}", e.pc)));
            match e.kind {
                TraceKind::FetchChunk { len } => args.set("len", Json::U64(len as u64)),
                TraceKind::Issue { fu } => args.set("fu", Json::U64(u64::from(fu))),
                TraceKind::Squash { new_pc } => {
                    args.set("new_pc", Json::Str(format!("{new_pc:#x}")))
                }
                _ => {}
            }
            events.push(
                Json::obj()
                    .with("name", Json::Str(e.kind.name().to_string()))
                    .with("ph", Json::Str("i".to_string()))
                    .with("ts", Json::U64(e.cycle))
                    .with("pid", Json::U64(0))
                    .with("tid", Json::U64(e.tid as u64))
                    .with("s", Json::Str("t".to_string()))
                    .with("args", args),
            );
        }
        Json::obj()
            .with("traceEvents", Json::Arr(events))
            .with("displayTimeUnit", Json::Str("ns".to_string()))
            .encode()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_contains_all_fields() {
        let mut t = Tracer::new(4);
        t.record(7, 1, 0x40, TraceKind::Issue { fu: 3 });
        t.record(9, 1, 0x40, TraceKind::Squash { new_pc: 0x80 });
        let text = t.render();
        assert!(text.contains("issue(fu3)"));
        assert!(text.contains("squash->0x80"));
        assert!(text.contains("t1"));
    }

    #[test]
    fn render_reports_dropped_events() {
        let mut t = Tracer::new(2);
        for i in 0..5u64 {
            t.record(i, 0, 0x10, TraceKind::Retire);
        }
        let text = t.render();
        assert!(text.contains("... 3 older events dropped"), "{text}");
        // And not when nothing was dropped.
        let mut t = Tracer::new(8);
        t.record(0, 0, 0x10, TraceKind::Retire);
        assert!(!t.render().contains("dropped"));
    }

    #[test]
    fn chrome_trace_is_well_formed_json() {
        let mut t = Tracer::new(16);
        t.record(3, 1, 0x40, TraceKind::Issue { fu: 2 });
        t.record(5, 0, 0x44, TraceKind::LvqFill);
        t.record(6, 1, 0x48, TraceKind::Squash { new_pc: 0x80 });
        let text = t.to_chrome_trace();
        let doc = rmt_stats::json::parse(&text).expect("chrome trace must parse");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].get("name").unwrap().as_str(), Some("issue"));
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("i"));
        assert_eq!(events[0].get("ts").unwrap().as_u64(), Some(3));
        assert_eq!(events[1].get("name").unwrap().as_str(), Some("lvq-fill"));
        assert_eq!(
            events[2]
                .get("args")
                .unwrap()
                .get("new_pc")
                .unwrap()
                .as_str(),
            Some("0x80")
        );
    }

    #[test]
    fn sphere_crossing_kinds_render() {
        for (kind, label) in [
            (TraceKind::LvqFill, "lvq-fill"),
            (TraceKind::LvqDrain, "lvq-drain"),
            (TraceKind::LpqPush, "lpq-push"),
            (TraceKind::LpqPop, "lpq-pop"),
            (TraceKind::StoreCompare, "store-compare"),
            (TraceKind::FaultDetect, "fault-detect"),
        ] {
            assert_eq!(kind.to_string(), label);
            assert_eq!(kind.name(), label);
        }
    }
}
