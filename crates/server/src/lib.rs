//! # sctc-server — verification as a service
//!
//! A long-lived, dependency-free framed-TCP front end over the campaign,
//! fault-injection, SMC, and scenario runners (ROADMAP item 1): clients
//! submit `(flow, properties, seed, query)` jobs and stream back reports,
//! witnesses, and VCDs. In front of the runners sits a content-addressed
//! **result cache** ([`cache::ResultCache`]): jobs are keyed on their wire
//! encoding, repeat traffic is a cache hit instead of a re-simulation, and
//! concurrent identical jobs coalesce into a single run (single-flight).
//!
//! Layers, bottom up:
//!
//! * [`wire`] — primitive encode/decode, framing, typed [`wire::WireError`].
//! * [`protocol`] — the request/reply grammar (see its module docs).
//! * [`job`] — job specs, content keys, execution, digests.
//! * [`cache`] — the single-flight result cache with its byte budget.
//! * [`server`] / [`client`] — the blocking TCP service and its client.
//!
//! ## Example
//!
//! ```no_run
//! use sctc_server::{spawn, Client, JobOptions, JobSpec, ServerConfig};
//!
//! let server = spawn(ServerConfig::default()).unwrap();
//! let mut client = Client::connect(server.addr()).unwrap();
//! let outcome = client
//!     .submit(&JobSpec::small_campaign(120, 7), &JobOptions::default())
//!     .unwrap();
//! println!("{outcome:?}");
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod job;
pub mod protocol;
pub mod server;
pub mod wire;

pub use client::{Client, ClientError, JobOutcome, ProgressFrame};
pub use job::{
    CampaignJob, FaultsJob, JobDigest, JobOptions, JobOutput, JobSpec, ScenarioJob, SmcJob,
};
pub use protocol::{Reply, Request, Served, TelemetryValue};
pub use server::{spawn, ServerConfig, ServerHandle};
pub use wire::{FrameBuf, WireError, MAX_FRAME};
