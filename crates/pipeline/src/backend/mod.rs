//! PBOX (rename/dispatch), QBOX (issue + completion unit), store release
//! and squash recovery.
//!
//! Functional execution happens at issue time ("execute-at-issue"): values
//! live in the physical register file, so by the time an instruction's
//! operands are ready its producers have already computed theirs.
//! Mispredicted branches and memory-order violations schedule a squash for
//! their *resolution* cycle, which is what gives recovery its realistic
//! latency.
//!
//! One submodule per backend stage, in pipeline order:
//!
//! * `rename` — PBOX: rename/dispatch from the register map buffer into
//!   the issue queue, under the per-thread reservation rules.
//! * `issue` — QBOX: wakeup/select, execute-at-issue, and the per-cycle
//!   issue-slot attribution.
//! * `retire` — the completion unit (in-order retirement, sphere-crossing
//!   checks) and store release past the store comparator.
//! * `squash` — deferred squash events and recovery.

mod issue;
mod rename;
mod retire;
#[cfg(test)]
mod select_tests;
mod squash;
