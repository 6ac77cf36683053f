//! # sweep — the parallel experiment-campaign engine
//!
//! Every experiment of the reproduction (E1–E19) is runnable through the
//! uniform [`Experiment`](scenarios::Experiment) registry; this crate turns
//! single runs into **campaigns**: a [`SweepSpec`] describes a seed range
//! and a parameter grid, the [executor](exec) expands it into a
//! deterministic job list and runs the jobs on a work-stealing thread pool,
//! and the [aggregation layer](report) folds the streamed
//! [`SampleRow`](scenarios::SampleRow)s into per-metric mean / stddev /
//! min / max and 95% confidence intervals, grouped by grid point, with
//! JSON and markdown emitters.
//!
//! ## Threading model
//!
//! A sequential simulation world is not `Send` (its agents need not be)
//! and never crosses a thread boundary. The executor therefore ships only [`JobSpec`]s (plain `Send`
//! data: experiment name, seed, grid point) to the workers; each worker
//! looks the experiment up in the static registry and constructs, runs
//! and drops every world **inside** its own thread, streaming the numeric
//! samples back over a channel. Jobs are pulled from a shared atomic
//! cursor, so idle workers steal whatever work is left.
//!
//! ## Determinism
//!
//! Job results are keyed by job id and re-sorted before aggregation, and
//! summaries fold values in job-id order — never in completion order — so
//! the aggregated JSON is byte-identical for any `--threads` value.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;
pub mod report;
pub mod spec;
pub mod stats;

pub use exec::{run_sweep, JobResult, SweepRun};
pub use report::{aggregate, SweepReport};
pub use spec::{JobSpec, SweepError, SweepSpec};
pub use stats::{summarize, Summary};
