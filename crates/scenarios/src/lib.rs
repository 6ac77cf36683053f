//! # scenarios — topologies, workloads and the experiment suite
//!
//! This crate turns the building blocks of the reproduction (the [`simnet`]
//! substrate, the [`peerhood`] middleware and the [`migration`] applications)
//! into the concrete scenarios of the thesis: office-sized random fields,
//! corridors of bridge nodes, the two-server handover layout and the tunnel
//! of Fig. 6.1 — plus the experiment runners E1–E11 that regenerate every
//! figure-level result (`repro --list` prints the experiment index, `repro`
//! the tables), the dense-city scale family E12 and the fault & churn family
//! E13/E14 added on top of the thesis.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;
pub mod telemetry;
pub mod topology;

pub use experiments::{find, registry, run_all, Experiment, Param, Params, RunOutput, SampleRow};
pub use report::ExperimentReport;
pub use telemetry::{TelemetryCapture, TelemetryMode, TelemetrySettings};
