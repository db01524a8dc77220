//! # sctc-core — SCTC for embedded software
//!
//! The paper's primary contribution, rebuilt in Rust: a SystemC-style
//! temporal checker extended to observe **embedded software** — its
//! variables in a microprocessor's memory and its function sequencing — and
//! the two simulation-based verification flows built on it.
//!
//! * [`Proposition`] — named atomic observations (paper Fig. 1), with
//!   adapters for memory words ([`mem`]) and interpreter state ([`esw`]).
//! * [`Sctc`] — the checker engine: property registration (FLTL/PSL text →
//!   AR-automaton), proposition binding, per-trigger sampling.
//! * [`EswMonitor`] — approach 1's monitor module with the
//!   initialisation handshake (paper Fig. 3).
//! * [`MicroprocessorFlow`] / [`DerivedModelFlow`] — the end-to-end flows.
//!
//! ## Example: verify a phase sequence on the derived model
//!
//! ```
//! use std::rc::Rc;
//! use minic::{lower, parse as parse_c, Interp};
//! use sctc_core::{esw, DerivedModelFlow, SingleRun};
//! use sctc_temporal::{parse, Verdict};
//!
//! let src = "
//!     int status = 0;
//!     int main() { status = 1; status = 2; return 0; }
//! ";
//! let ir = Rc::new(lower(&parse_c(src)?)?);
//! let mut flow = DerivedModelFlow::new(Interp::with_virtual_memory(ir));
//! let h = flow.interp();
//! flow.add_property(
//!     "phases",
//!     &parse("F (one & F[<=10] two)")?,
//!     vec![
//!         esw::global_eq("one", h.clone(), "status", 1),
//!         esw::global_eq("two", h.clone(), "status", 2),
//!     ],
//! ).unwrap();
//! let report = flow.run(Box::new(SingleRun::new()), 100_000).unwrap();
//! assert_eq!(report.properties[0].verdict, Verdict::True);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod checker;
mod esw_monitor;
mod flow;
mod proposition;
mod report;

pub use checker::{
    share_sctc, MonitorCounters, PropertyResult, Sctc, SctcError, SctcProcess, SharedSctc,
};
pub use esw_monitor::EswMonitor;
pub use flow::{
    DerivedModelFlow, InterpDriver, MicroprocessorFlow, RunReport, SingleRun, SocDriver,
};
pub use proposition::{esw, mem, sym, ClosureProp, Proposition, Watch};
// Diagnosis-layer types threaded through the flows (see `sctc_obs`).
pub use sctc_obs::{
    Histogram, MetricValue, Metrics, ProvenanceEntry, SharedProfiler, SpanProfiler, SpanStats,
    TraceContext, TraceEvent, VcdDoc, VcdValue, Witness, WitnessConfig,
};
// The live telemetry plane: `sctc_core::trace::emit(...)` works anywhere
// this crate is in scope, keeping the campaign layers free of a direct
// obs dependency.
pub use sctc_obs::trace;
