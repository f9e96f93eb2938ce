//! The packed warming log a checkpoint carries.
//!
//! A fast-forward gap leaves tens of thousands of [`WarmEvent`]s, and a
//! checkpoint ladder keeps every gap's log until its runs end. Most of
//! an event is implied by the fetch before it: straight-line fetches
//! step by 4, and a branch or jump is usually the instruction just
//! fetched. [`WarmLog`] therefore stores one tag byte per event and a
//! `u64` payload only for what the previous fetch does not imply:
//!
//! * a fetch has its address as a payload unless it is the previous
//!   fetch's `pc + 4` (wrapping);
//! * a load or store has its address, a jump its target;
//! * a branch or jump has its pc as a payload unless it is the last
//!   fetched pc.
//!
//! [`WarmLog::iter`] decodes the same state forwards, so it yields
//! exactly the events the log was collected from. Both sides start from
//! a last fetch of 0, so a log that opens on a branch or jump whose fetch
//! fell off the bounded ring's front still round-trips.
//!
//! Replay decodes every event of a ladder once per run and hardware copy,
//! so decoding is one jump-table dispatch on the tag with the next
//! payload read ahead of it, about as fast as iterating the events
//! themselves.

use rmt_core::WarmEvent;

// One tag per event shape; the comment names the payloads that follow.
const FETCH_NEXT: u8 = 0; // a fetch at the last fetch + 4
const FETCH: u8 = 1; // addr
const LOAD: u8 = 2; // addr
const STORE: u8 = 3; // addr
const NOT_TAKEN: u8 = 4; // a branch at the last fetch
const TAKEN: u8 = 5; // a branch at the last fetch
const NOT_TAKEN_AT: u8 = 6; // pc
const TAKEN_AT: u8 = 7; // pc
const JUMP: u8 = 8; // target, of a jump at the last fetch
const JUMP_AT: u8 = 9; // pc, target

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
///     WarmEvent::IFetch { addr: 0x104 }, // implied: one tag byte
///     WarmEvent::Branch { pc: 0x104, taken: true }, // pc implied
/// ];
/// let log: WarmLog = events.iter().copied().collect();
/// assert_eq!(log.len(), 3);
/// assert!(log.iter().eq(events));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarmLog {
    tags: Vec<u8>,
    payloads: Vec<u64>,
}

impl WarmLog {
    /// Number of events.
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// Whether the log holds no event.
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// The events in the order they were collected.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            tags: self.tags.iter(),
            payloads: &self.payloads,
            next: 0,
            last_fetch: 0,
        }
    }
}

/// Packs events in order into a log whose buffers are sized exactly.
impl FromIterator<WarmEvent> for WarmLog {
    fn from_iter<I: IntoIterator<Item = WarmEvent>>(events: I) -> Self {
        let events = events.into_iter();
        let mut tags = Vec::with_capacity(events.size_hint().0);
        let mut payloads = Vec::new();
        let mut last_fetch = 0u64;
        for ev in events {
            let tag = match ev {
                WarmEvent::IFetch { addr } => {
                    let next = addr == last_fetch.wrapping_add(4);
                    last_fetch = addr;
                    if next {
                        FETCH_NEXT
                    } else {
                        payloads.push(addr);
                        FETCH
                    }
                }
                WarmEvent::Load { addr } => {
                    payloads.push(addr);
                    LOAD
                }
                WarmEvent::Store { addr } => {
                    payloads.push(addr);
                    STORE
                }
                WarmEvent::Branch { pc, taken } => {
                    // Each taken tag is its not-taken tag + 1.
                    let not_taken = if pc == last_fetch {
                        NOT_TAKEN
                    } else {
                        payloads.push(pc);
                        NOT_TAKEN_AT
                    };
                    not_taken + u8::from(taken)
                }
                WarmEvent::Jump { pc, target } => {
                    let tag = if pc == last_fetch {
                        JUMP
                    } else {
                        payloads.push(pc);
                        JUMP_AT
                    };
                    payloads.push(target);
                    tag
                }
            };
            tags.push(tag);
        }
        tags.shrink_to_fit();
        payloads.shrink_to_fit();
        WarmLog { tags, payloads }
    }
}

/// The decoding iterator of a [`WarmLog`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    tags: std::slice::Iter<'a, u8>,
    payloads: &'a [u64],
    /// Index of the next unread payload.
    next: usize,
    last_fetch: u64,
}

impl Iter<'_> {
    /// The payload `i` places past the next unread one (0 past the end,
    /// where no tag reads it).
    #[inline]
    fn payload(&self, i: usize) -> u64 {
        self.payloads.get(self.next + i).copied().unwrap_or(0)
    }
}

impl Iterator for Iter<'_> {
    type Item = WarmEvent;

    // Replay runs in another crate; out of line, decoding cost about
    // 13 ns per event.
    #[inline]
    fn next(&mut self) -> Option<WarmEvent> {
        let tag = *self.tags.next()?;
        let p = self.payload(0);
        let (ev, read) = match tag {
            FETCH_NEXT => {
                self.last_fetch = self.last_fetch.wrapping_add(4);
                (
                    WarmEvent::IFetch {
                        addr: self.last_fetch,
                    },
                    0,
                )
            }
            FETCH => {
                self.last_fetch = p;
                (WarmEvent::IFetch { addr: p }, 1)
            }
            LOAD => (WarmEvent::Load { addr: p }, 1),
            STORE => (WarmEvent::Store { addr: p }, 1),
            NOT_TAKEN | TAKEN => {
                let (pc, taken) = (self.last_fetch, tag == TAKEN);
                (WarmEvent::Branch { pc, taken }, 0)
            }
            NOT_TAKEN_AT | TAKEN_AT => {
                let taken = tag == TAKEN_AT;
                (WarmEvent::Branch { pc: p, taken }, 1)
            }
            JUMP => {
                let pc = self.last_fetch;
                (WarmEvent::Jump { pc, target: p }, 1)
            }
            JUMP_AT => {
                let target = self.payload(1);
                (WarmEvent::Jump { pc: p, target }, 2)
            }
            _ => unreachable!("tag {tag} was never packed"),
        };
        self.next += read;
        Some(ev)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.tags.size_hint()
    }
}

impl ExactSizeIterator for Iter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use rmt_stats::Xoshiro256;

    /// Payloads at the edges of the address space.
    const EDGES: [u64; 4] = [0, (1 << 61) - 1, 1 << 61, u64::MAX];

    fn round_trip(events: &[WarmEvent]) -> WarmLog {
        let log: WarmLog = events.iter().copied().collect();
        assert_eq!(log.len(), events.len());
        assert_eq!(log.iter().len(), events.len());
        assert!(log.iter().eq(events.iter().copied()), "{events:?}");
        log
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
            let events: Vec<WarmEvent> = (0..500)
                .map(|_| {
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
    fn straight_line_fetches_carry_no_payload_even_across_the_wrap() {
        let events: Vec<WarmEvent> = (0..8u64)
            .map(|i| WarmEvent::IFetch {
                addr: (u64::MAX - 11).wrapping_add(4 * i),
            })
            .collect();
        assert_eq!(events[3], WarmEvent::IFetch { addr: 0 });
        let log = round_trip(&events);
        assert_eq!(log.payloads, [u64::MAX - 11]);
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
        assert_eq!(log.payloads, [0x40, 0x80, 0x200]);
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
        assert_eq!(at_zero.payloads, [8]);
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
            assert_eq!(log.payloads[0], 0x40, "{first:?}");
        }
    }

    #[test]
    fn an_empty_log_yields_nothing() {
        let log = round_trip(&[]);
        assert!(log.is_empty());
        assert_eq!(log.iter().next(), None);
    }
}
