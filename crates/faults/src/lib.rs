//! Fault injection and coverage analysis for the RMT architectures.
//!
//! The paper's subject is detection of **transient faults** (cosmic-ray /
//! alpha-particle bit flips, §1) and — with preferential space redundancy —
//! **permanent faults** (§4.5). This crate injects both kinds into running
//! devices and classifies the outcome of each injection:
//!
//! * **Detected** — an RMT mechanism (store comparator, LVQ address check,
//!   lockstep checker) flagged the fault.
//! * **Masked** — the fault had no architectural effect within the
//!   observation window (dead register, overwritten value, free physical
//!   register…), which mirrors architectural-vulnerability derating.
//! * **Silent** — the corrupted state escaped the sphere of replication
//!   undetected (silent data corruption): memory diverged from the golden
//!   model with no detection. On the *base* processor every unmasked fault
//!   is silent — that is the problem RMT exists to solve.
//!
//! Classification uses the reference interpreter as the golden model: the
//! device's architectural memory must equal the golden memory at the same
//! number of *released* stores.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrangements;
pub mod campaign;
pub mod forensics;
pub mod model;
mod observe;

pub use campaign::{injection_forensic, run_campaign, CampaignConfig, CampaignReport};
pub use forensics::{FaultForensics, FaultSite};
pub use model::{FaultKind, FaultOutcome};
