//! The networked planning frontend: `dpipe serve --listen`.
//!
//! DiffusionPipe's planner answers one question — how should this diffusion
//! model train on this cluster — and a training platform asks it constantly:
//! from CI, from sweep dashboards, from admission controllers deciding where
//! the next job fits. This crate puts the planning service on the wire as a
//! small, dependency-free HTTP/1.1 server over `std::net`, in the same
//! offline-shim discipline as the rest of the workspace (the build
//! environment has no crates.io access, so the wire layer is hand-rolled).
//!
//! Endpoints:
//!
//! * `POST /plan` — body is a [`PlanSpec`] JSON document; the 200 response
//!   is **byte-identical** to `dpipe plan --json --spec` for the same spec
//!   (both are rendered by `dpipe_serve::json::plan_response_doc`).
//! * `POST /sweep` — body is a `SweepSpec`; response matches
//!   `dpipe sweep --json --spec`.
//! * `GET /metrics` — request/response counters, shed and rate-limit
//!   totals, plans/s, cache hit rate, queue depth, latency histograms.
//! * `GET /healthz` — liveness.
//! * `POST /shutdown` — graceful drain (the CLI foreground loop exits once
//!   every in-flight request has been answered).
//!
//! The server is built to degrade loudly, not collapse: a bounded accept
//! queue and a plan-backlog cap shed overload as well-formed 503s, body and
//! header sizes are capped (413/431), socket reads time out (slowloris),
//! and per-client token buckets answer 429 past the configured rate.
//! [`ServerConfig`] holds the bounds.
//!
//! [`PlanSpec`]: dpipe_spec::PlanSpec
//!
//! # Example
//!
//! ```
//! use dpipe_http::{HttpClient, HttpServer, ServerConfig};
//!
//! let server = HttpServer::start(ServerConfig::default()).unwrap();
//! let mut client = HttpClient::connect(server.local_addr()).unwrap();
//! let health = client.request("GET", "/healthz", b"").unwrap();
//! assert_eq!(health.status, 200);
//! assert_eq!(health.text(), "{\"status\":\"ok\"}\n");
//! ```

mod client;
mod http1;
mod metrics;
mod ratelimit;
mod server;

pub use client::{HttpClient, HttpResponse};
pub use http1::{HttpError, Limits, Request};
pub use server::{HttpServer, ServerConfig};
