#![forbid(unsafe_code)]
//! Outside-in benchmark of the Flashmark inspection service.
//!
//! The untraced run ([`e2e`]) drives closed-loop lots through the
//! service's public API and reports the end-to-end metrics. The traced run
//! ([`traced`]) serves the same request stream, replays every lot through
//! each layer's public functions with a span around each call
//! ([`replay`], [`supply`], [`trace`]), and reports the per-layer rows.
//! Both runs gate on correctness: every request recorded exactly once, no
//! counterfeit class accepted, and replayed verdicts equal to the
//! service's.

pub mod e2e;
pub mod replay;
pub mod stats;
pub mod supply;
pub mod trace;
pub mod traced;
pub mod workload;
