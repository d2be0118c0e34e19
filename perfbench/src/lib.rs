#![forbid(unsafe_code)]
//! # perfbench
//!
//! The host-speed benchmark of the DIMM-Link simulator. It times the
//! public calls a user makes (trace generation, system construction and the
//! simulate calls), checks every result against a recorded fingerprint,
//! and, in a separate traced run, splits the time across layers by timing
//! each call apart and by replaying the workload's own traffic through the
//! public API of single layers. See `README.md` beside this crate.

pub mod calib;
pub mod fingerprint;
pub mod harness;
pub mod replay;
pub mod span;
pub mod stats;
pub mod workload;
