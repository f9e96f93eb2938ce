//! The packed warming log a checkpoint carries.
//!
//! A fast-forward gap leaves tens of thousands of [`WarmEvent`]s, and a
//! checkpoint ladder keeps every gap's log until its runs end. Most of
//! an event is implied by the events before it, so [`WarmLog`] stores
//! only the rest:
//!
//! * **Folded fetch runs.** A fetch at the previous fetch's `pc + 4`
//!   (wrapping) takes no byte of its own: the high nibble of the next
//!   tag counts the run of such fetches ahead of its event, and a run too
//!   long for one nibble spills into a tag whose event is one more such
//!   fetch.
//! * **One tag byte per other event**, whose low nibble is its shape. A
//!   branch or jump at the last fetched pc carries no pc.
//! * **Delta payloads.** A fetch elsewhere carries its address, a load or
//!   store its address, a jump its target, and a branch or jump away from
//!   the last fetch its pc. Each is stored as the zigzag varint of its
//!   difference (wrapping) from the previous payload of its kind: data
//!   addresses (loads and stores) are one kind, code addresses (fetches,
//!   branch and jump pcs, jump targets) the other. Nearby addresses thus
//!   take a byte or two instead of eight.
//!
//! [`WarmLog::iter`] decodes the same state forwards, so it yields
//! exactly the events the log was collected from. Both sides start from
//! a last fetch and previous payloads of 0, so a log that opens on a
//! branch or jump whose fetch fell off the bounded ring's front still
//! round-trips.
//!
//! Replay decodes every event of a ladder once per run and hardware copy,
//! so the decoder is inlined into the replay loop: a folded fetch costs
//! one compare and an add, any other event one dispatch on its shape.

use rmt_core::WarmEvent;

// The low nibble of a tag: its event's shape, and the payloads that
// follow it.
const FETCH_NEXT: u8 = 0; // one more fetch at the last fetch + 4
const FETCH: u8 = 1; // addr
const LOAD: u8 = 2; // addr
const STORE: u8 = 3; // addr
const NOT_TAKEN: u8 = 4; // a branch at the last fetch
const TAKEN: u8 = 5; // a branch at the last fetch
const NOT_TAKEN_AT: u8 = 6; // pc
const TAKEN_AT: u8 = 7; // pc
const JUMP: u8 = 8; // target, of a jump at the last fetch
const JUMP_AT: u8 = 9; // pc, target
const SHAPE: u8 = 0xf;
/// The high nibble: the folded fetches ahead of the tag's own event.
const RUN_SHIFT: u32 = 4;
const MAX_RUN: u8 = 0xf;

// Payload kinds, each delta-coded against its own previous payload.
const DATA: usize = 0;
const CODE: usize = 1;

/// A packed sequence of [`WarmEvent`]s, oldest first, built by
/// collecting them.
///
/// # Examples
///
/// ```
/// use rmt_core::WarmEvent;
/// use rmt_sample::WarmLog;
///
/// let events = [
///     WarmEvent::IFetch { addr: 0x100 },
///     WarmEvent::IFetch { addr: 0x104 }, // folded into the next tag
///     WarmEvent::Branch { pc: 0x104, taken: true }, // pc implied
/// ];
/// let log: WarmLog = events.iter().copied().collect();
/// assert_eq!(log.len(), 3);
/// assert!(log.iter().eq(events));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarmLog {
    len: usize,
    tags: Vec<u8>,
    payloads: Vec<u8>,
}

impl WarmLog {
    /// Number of events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the log holds no event.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The events in the order they were collected.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            tags: &self.tags,
            payloads: self.payloads.iter(),
            run: 0,
            last_fetch: 0,
            prev: [0; 2],
        }
    }
}

/// Appends `value` to `out` as the zigzag varint of its difference from
/// `*prev`, and makes it the new `*prev`.
fn put(out: &mut Vec<u8>, prev: &mut u64, value: u64) {
    let d = value.wrapping_sub(*prev) as i64;
    *prev = value;
    let mut z = ((d << 1) ^ (d >> 63)) as u64;
    while z >= 0x80 {
        out.push(z as u8 | 0x80);
        z >>= 7;
    }
    out.push(z as u8);
}

/// Packs events in order into a log whose buffers are sized exactly.
impl FromIterator<WarmEvent> for WarmLog {
    fn from_iter<I: IntoIterator<Item = WarmEvent>>(events: I) -> Self {
        let mut tags = Vec::new();
        let mut payloads = Vec::new();
        let mut len = 0;
        let mut last_fetch = 0u64;
        let mut prev = [0u64; 2];
        // Folded fetches not yet counted in a tag.
        let mut run = 0u8;
        for ev in events {
            len += 1;
            let shape = match ev {
                WarmEvent::IFetch { addr } => {
                    let next = addr == last_fetch.wrapping_add(4);
                    last_fetch = addr;
                    if next && run < MAX_RUN {
                        run += 1;
                        continue;
                    } else if next {
                        FETCH_NEXT
                    } else {
                        put(&mut payloads, &mut prev[CODE], addr);
                        FETCH
                    }
                }
                WarmEvent::Load { addr } => {
                    put(&mut payloads, &mut prev[DATA], addr);
                    LOAD
                }
                WarmEvent::Store { addr } => {
                    put(&mut payloads, &mut prev[DATA], addr);
                    STORE
                }
                WarmEvent::Branch { pc, taken } => {
                    // Each taken shape is its not-taken shape + 1.
                    let not_taken = if pc == last_fetch {
                        NOT_TAKEN
                    } else {
                        put(&mut payloads, &mut prev[CODE], pc);
                        NOT_TAKEN_AT
                    };
                    not_taken + u8::from(taken)
                }
                WarmEvent::Jump { pc, target } => {
                    let shape = if pc == last_fetch {
                        JUMP
                    } else {
                        put(&mut payloads, &mut prev[CODE], pc);
                        JUMP_AT
                    };
                    put(&mut payloads, &mut prev[CODE], target);
                    shape
                }
            };
            tags.push(run << RUN_SHIFT | shape);
            run = 0;
        }
        if run > 0 {
            // A trailing run: all but one ahead of a FETCH_NEXT event.
            tags.push((run - 1) << RUN_SHIFT | FETCH_NEXT);
        }
        tags.shrink_to_fit();
        payloads.shrink_to_fit();
        WarmLog {
            len,
            tags,
            payloads,
        }
    }
}

/// The decoding iterator of a [`WarmLog`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    /// The tags not yet fully decoded; the first is the current one.
    tags: &'a [u8],
    payloads: std::slice::Iter<'a, u8>,
    /// Folded fetches of the current tag already yielded.
    run: u8,
    last_fetch: u64,
    prev: [u64; 2],
}

impl Iter<'_> {
    /// A fetch at the last fetch + 4.
    #[inline]
    fn fetch_next(&mut self) -> WarmEvent {
        self.last_fetch = self.last_fetch.wrapping_add(4);
        WarmEvent::IFetch {
            addr: self.last_fetch,
        }
    }

    /// The next payload of `kind`.
    #[inline]
    fn take(&mut self, kind: usize) -> u64 {
        let mut z = 0u64;
        let mut shift = 0;
        loop {
            let b = *self.payloads.next().expect("a packed payload");
            z |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                break;
            }
            shift += 7;
        }
        let d = (z >> 1) ^ (z & 1).wrapping_neg();
        self.prev[kind] = self.prev[kind].wrapping_add(d);
        self.prev[kind]
    }
}

impl Iterator for Iter<'_> {
    type Item = WarmEvent;

    // Replay runs in another crate; out of line, decoding cost about
    // 13 ns per event.
    #[inline]
    fn next(&mut self) -> Option<WarmEvent> {
        let (&tag, rest) = self.tags.split_first()?;
        if self.run < tag >> RUN_SHIFT {
            self.run += 1;
            return Some(self.fetch_next());
        }
        self.tags = rest;
        self.run = 0;
        let shape = tag & SHAPE;
        Some(match shape {
            FETCH_NEXT => self.fetch_next(),
            FETCH => {
                self.last_fetch = self.take(CODE);
                WarmEvent::IFetch {
                    addr: self.last_fetch,
                }
            }
            LOAD => WarmEvent::Load {
                addr: self.take(DATA),
            },
            STORE => WarmEvent::Store {
                addr: self.take(DATA),
            },
            NOT_TAKEN | TAKEN => WarmEvent::Branch {
                pc: self.last_fetch,
                taken: shape == TAKEN,
            },
            NOT_TAKEN_AT | TAKEN_AT => WarmEvent::Branch {
                pc: self.take(CODE),
                taken: shape == TAKEN_AT,
            },
            JUMP => WarmEvent::Jump {
                pc: self.last_fetch,
                target: self.take(CODE),
            },
            JUMP_AT => {
                let pc = self.take(CODE);
                WarmEvent::Jump {
                    pc,
                    target: self.take(CODE),
                }
            }
            _ => unreachable!("shape {shape} was never packed"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmt_stats::Xoshiro256;

    /// Payloads at the edges of the address space.
    const EDGES: [u64; 4] = [0, (1 << 61) - 1, 1 << 61, u64::MAX];

    fn round_trip(events: &[WarmEvent]) -> WarmLog {
        let log: WarmLog = events.iter().copied().collect();
        assert_eq!(log.len(), events.len());
        assert_eq!(log.iter().count(), events.len());
        assert!(log.iter().eq(events.iter().copied()), "{events:?}");
        log
    }

    /// The varint bytes of `values`, each delta-coded against the one
    /// before it (the first against 0).
    fn varints(values: &[u64]) -> Vec<u8> {
        let mut out = Vec::new();
        let mut prev = 0;
        for &v in values {
            put(&mut out, &mut prev, v);
        }
        out
    }

    /// An address from the edges, near a recent fetch, or anywhere.
    fn addr(rng: &mut Xoshiro256, last: u64) -> u64 {
        match rng.below(4) {
            0 => *rng.pick(&EDGES),
            1 => last.wrapping_add(4),
            2 => last,
            _ => rng.next_u64(),
        }
    }

    #[test]
    fn seeded_streams_round_trip() {
        for seed in 0..64 {
            let mut rng = Xoshiro256::seed_from(seed);
            let mut last = EDGES[(seed % 4) as usize];
            // Long straight-line runs in some streams, none in others.
            let straight = [0.0, 0.5, 0.95][(seed % 3) as usize];
            let events: Vec<WarmEvent> = (0..500)
                .map(|_| {
                    if rng.chance(straight) {
                        last = last.wrapping_add(4);
                        return WarmEvent::IFetch { addr: last };
                    }
                    let a = addr(&mut rng, last);
                    let b = addr(&mut rng, last);
                    match rng.below(6) {
                        0 | 1 => {
                            last = a;
                            WarmEvent::IFetch { addr: a }
                        }
                        2 => WarmEvent::Load { addr: a },
                        3 => WarmEvent::Store { addr: a },
                        4 => WarmEvent::Branch {
                            pc: a,
                            taken: rng.chance(0.5),
                        },
                        _ => WarmEvent::Jump { pc: a, target: b },
                    }
                })
                .collect();
            round_trip(&events);
        }
    }

    #[test]
    fn edge_addresses_round_trip_in_every_kind() {
        let mut events = Vec::new();
        for &a in &EDGES {
            events.extend([
                WarmEvent::IFetch { addr: a },
                WarmEvent::Load { addr: a },
                WarmEvent::Store { addr: a },
                WarmEvent::Branch { pc: a, taken: true },
                WarmEvent::Branch {
                    pc: a,
                    taken: false,
                },
                WarmEvent::Jump { pc: a, target: a },
            ]);
        }
        round_trip(&events);
    }

    #[test]
    fn payload_deltas_wrap_and_reach_both_extremes() {
        let min = 1u64 << 63;
        let max = min - 1;
        // Differences: 0, i64::MAX, -i64::MAX, i64::MIN, i64::MIN again
        // (0 - 2^63 wraps), then -1, +1, -1 across the wrap.
        let addrs = [0, max, 0, min, 0, u64::MAX, 0, u64::MAX];
        let loads: Vec<WarmEvent> = addrs.iter().map(|&a| WarmEvent::Load { addr: a }).collect();
        let log = round_trip(&loads);
        assert_eq!(log.payloads, varints(&addrs));
        assert_eq!(log.payloads.len(), 1 + 4 * 10 + 3);
        assert_eq!(log.payloads[..1], [0]);
        assert_eq!(log.payloads[41..], [1, 2, 1]);
        // Stores share the data kind; fetches and jumps share the code
        // kind, which keeps its own previous payload.
        let mixed = round_trip(&[
            WarmEvent::Load { addr: u64::MAX },
            WarmEvent::IFetch { addr: min },
            WarmEvent::Store { addr: 0 },
            WarmEvent::Jump { pc: 8, target: min },
        ]);
        let code = varints(&[min, 8, min]);
        assert_eq!(
            mixed.payloads,
            [&[1], &code[..10], &[2], &code[10..]].concat()
        );
    }

    #[test]
    fn straight_line_fetches_carry_no_payload_even_across_the_wrap() {
        let events: Vec<WarmEvent> = (0..8u64)
            .map(|i| WarmEvent::IFetch {
                addr: (u64::MAX - 11).wrapping_add(4 * i),
            })
            .collect();
        assert_eq!(events[3], WarmEvent::IFetch { addr: 0 });
        let log = round_trip(&events);
        // The first fetch, then a trailing run of 7: 6 ahead of one more.
        assert_eq!(log.tags, [FETCH, 6 << RUN_SHIFT | FETCH_NEXT]);
        assert_eq!(log.payloads, varints(&[u64::MAX - 11]));
    }

    #[test]
    fn a_fetch_run_longer_than_a_tag_counts_spills() {
        for len in [15, 16, 17, 31, 32, 33, 100] {
            let mut events: Vec<WarmEvent> = (0..=len)
                .map(|i| WarmEvent::IFetch { addr: 0x40 + 4 * i })
                .collect();
            let log = round_trip(&events);
            let full = (len / 16) as usize;
            assert_eq!(log.tags.len(), 1 + full + usize::from(len % 16 > 0));
            assert!(log.tags[1..=full]
                .iter()
                .all(|&t| t == MAX_RUN << RUN_SHIFT | FETCH_NEXT));
            // Ending on a load instead counts the rest in the load's tag.
            events.push(WarmEvent::Load { addr: 8 });
            let log = round_trip(&events);
            let rest = (len % 16) as u8;
            assert_eq!(log.tags.last(), Some(&(rest << RUN_SHIFT | LOAD)));
        }
    }

    #[test]
    fn control_at_the_last_fetch_carries_only_its_target() {
        let events = [
            WarmEvent::IFetch { addr: 0x40 },
            WarmEvent::Branch {
                pc: 0x40,
                taken: true,
            },
            WarmEvent::IFetch { addr: 0x80 },
            WarmEvent::Branch {
                pc: 0x80,
                taken: false,
            },
            WarmEvent::IFetch { addr: 0x84 },
            WarmEvent::Jump {
                pc: 0x84,
                target: 0x200,
            },
        ];
        let log = round_trip(&events);
        assert_eq!(log.payloads, varints(&[0x40, 0x80, 0x200]));
        assert_eq!(
            log.tags,
            [FETCH, TAKEN, FETCH, NOT_TAKEN, 1 << RUN_SHIFT | JUMP]
        );
    }

    #[test]
    fn control_whose_fetch_fell_off_the_front_carries_its_pc() {
        // A bounded log can start just after a branch's or jump's fetch.
        // One at pc 0 matches the initial last fetch and carries none.
        let at_zero = round_trip(&[
            WarmEvent::Jump { pc: 0, target: 8 },
            WarmEvent::Branch {
                pc: 0,
                taken: false,
            },
        ]);
        assert_eq!(at_zero.payloads, varints(&[8]));
        for first in [
            WarmEvent::Branch {
                pc: 0x40,
                taken: true,
            },
            WarmEvent::Branch {
                pc: 0x40,
                taken: false,
            },
            WarmEvent::Jump {
                pc: 0x40,
                target: 0x80,
            },
        ] {
            let log = round_trip(&[first, WarmEvent::IFetch { addr: 0x80 }]);
            assert_eq!(log.payloads[..2], varints(&[0x40]), "{first:?}");
        }
    }

    #[test]
    fn an_empty_log_yields_nothing() {
        let log = round_trip(&[]);
        assert!(log.is_empty());
        assert!(log.tags.is_empty() && log.payloads.is_empty());
        assert_eq!(log.iter().next(), None);
    }
}
