//! `moptbench`: the repository benchmark.
//!
//! It drives the release `moptd --listen` over TCP from one load-generator
//! process, and times three things: cold network planning, execution of
//! the schedules `moptd` serves (in `conv_exec`), and warm serving through
//! the cache and database tiers. Each layer is measured from outside — by
//! timing calls into the crates' public functions and by reading `Stats`
//! and the span trees `moptd` returns for `"trace": true` — so the program
//! under test carries no benchmark code.
//!
//! See `moptbench/README.md` for the workloads, the metric → layer →
//! workload map, and how to run it.

pub mod exec;
pub mod gates;
pub mod inproc;
pub mod load;
pub mod moptd;
pub mod spans;
pub mod stats;
pub mod steal;
pub mod workload;
