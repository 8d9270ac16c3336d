//! Real-bytes end-to-end benchmark of Hoplite's `LocalCluster`.
//!
//! Three closed-loop workloads drive the public `HopliteClient` calls from one
//! process and verify every returned byte:
//!
//! * `small-tcp` — 1 KiB put / get / delete over loopback TCP (the control plane);
//! * `bcast-tcp` — a 64 MiB object fetched by two nodes at once (the bulk data plane);
//! * `reduce-chan` — a 4-node sum reduce of 16 MiB f32 objects over channels (the
//!   reduce engine, no transport).
//!
//! An untraced run reports end-to-end metrics; a traced run reports per-layer
//! counters, span self times and layer probes. See `README.md` for the metric list.

pub mod probes;
pub mod report;
pub mod stats;
pub mod summary;
pub mod sysinfo;
pub mod trace;
pub mod verify;
pub mod workload;
