//! # grasp-serve — the campaign service daemon
//!
//! A dependency-free experiment service over a Unix domain socket: clients
//! submit serializable [`CampaignSpec`]s
//! (`grasp_core::spec`) as JSON, the daemon runs them on the library's
//! pipelined scheduler and streams per-cell result frames back as cells
//! complete. What the daemon adds over calling
//! [`Campaign::run`](grasp_core::campaign::Campaign::run) yourself:
//!
//! * **Single-flight recording** — every campaign shares one
//!   [`FlightRegistry`](grasp_core::FlightRegistry), so two clients whose
//!   grids overlap trigger exactly one recording per unique
//!   (dataset, technique, app) stream; the loser attaches to the winner's
//!   in-flight recording instead of re-running the application.
//! * **Single-flight replay** — the same registry keys in-flight cell
//!   replays by (stream, policy): campaigns that overlap in time replay
//!   each common cell once, the others take the leader's statistics (the
//!   `done` frame's `replayed` / `shared`).
//! * **Shared persistence** — one [`TraceStore`](grasp_core::TraceStore)
//!   across all clients, swept back under a byte budget after each
//!   campaign ([`ServeConfig::store_budget`]).
//! * **Admission control** — a bounded number of concurrent campaigns with
//!   a bounded wait queue ([`AdmissionGate`]); beyond that, requests fail
//!   fast with a `service/overloaded` error frame.
//!
//! The wire protocol (newline-delimited JSON frames, stable
//! machine-readable error kinds) is specified in [`protocol`] and
//! `docs/service.md`. `cargo xtask serve` / `cargo xtask client` wrap this
//! crate for the command line.
//!
//! [`CampaignSpec`]: grasp_core::CampaignSpec

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod client;
pub mod gate;
pub mod protocol;
pub mod server;

pub use gate::{AdmissionGate, Overloaded, Permit};
pub use protocol::{Request, KIND_OVERLOADED, KIND_REQUEST_INVALID, KIND_TOO_LARGE};
pub use server::{ServeConfig, Server};
