//! Prediction structures of the base processor's front end and memory
//! system (Table 1):
//!
//! * [`line`] — the line predictor that drives instruction fetch. The base
//!   processor fetches through *line predictions*, not branch predictions;
//!   the branch predictor only verifies them (§3.1). Line-predictor
//!   misprediction rates of 14–28% are what made the paper's branch outcome
//!   queue unusable as proposed and motivated the line prediction queue
//!   (§4.4). The predictors count nothing themselves: this reproduction's
//!   line mispredictions are the core's exported `core<N>/events/misfetches`.
//! * [`branch`] — a 21264-style tournament predictor (local + global with a
//!   chooser), a jump-target table and a per-thread return-address stack.
//! * [`storesets`] — the store-sets memory dependence predictor
//!   (Chrysos & Emer), 4K entries in the base processor.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod branch;
pub mod line;
pub mod storesets;

pub use branch::{BranchPredictor, BranchPredictorConfig, ReturnAddressStack};
pub use line::LinePredictor;
pub use storesets::StoreSets;
