//! The work-stealing thread-pool executor.
//!
//! Workers pull [`JobSpec`]s from a shared atomic cursor (an idle worker
//! steals whatever job is next, so uneven job durations still pack), build
//! every world entirely inside their own thread, and stream each
//! job's [`SampleRow`]s back over a channel. The collector re-sorts results
//! by job id, so downstream aggregation is byte-identical for every thread
//! count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use scenarios::experiments::{find, Params};
use scenarios::SampleRow;

use crate::spec::{JobSpec, SweepError, SweepSpec};

/// The samples of one completed job.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The job that produced the samples.
    pub job: JobSpec,
    /// Numeric samples of this run, one per report row.
    pub samples: Vec<SampleRow>,
    /// Wall-clock time this job took inside its worker.
    pub wall: Duration,
}

/// A completed campaign: every job's samples in job-id order, plus timing.
#[derive(Debug, Clone)]
pub struct SweepRun {
    /// The spec the run expanded.
    pub spec: SweepSpec,
    /// Results sorted by job id (deterministic, completion-order-free).
    pub results: Vec<JobResult>,
    /// Worker threads actually used.
    pub threads: usize,
    /// End-to-end wall clock of the campaign.
    pub wall: Duration,
}

impl SweepRun {
    /// Sum of per-job wall times — the single-core work the campaign
    /// represents; `busy() / wall` is the achieved speedup.
    pub fn busy(&self) -> Duration {
        self.results.iter().map(|r| r.wall).sum()
    }
}

/// Expands `spec` and runs every job on `threads` worker threads.
///
/// Fails fast (before any job runs) if the spec does not validate. Worker
/// panics propagate. Progress is reported on stderr as jobs complete.
pub fn run_sweep(spec: &SweepSpec, threads: usize) -> Result<SweepRun, SweepError> {
    spec.validate()?;
    let jobs = spec.jobs();
    let threads = threads.clamp(1, jobs.len().max(1));
    let started = Instant::now();
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<JobResult>();
    let mut results: Vec<JobResult> = Vec::with_capacity(jobs.len());
    thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let jobs = &jobs;
            let cursor = &cursor;
            scope.spawn(move || {
                // The worlds an experiment builds (not `Send`) live and die
                // inside this thread.
                let Some(first) = jobs.first() else { return };
                let experiment = find(&first.experiment).expect("validated above");
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = jobs.get(i) else { break };
                    let params = Params::from_pairs(&job.grid);
                    let job_started = Instant::now();
                    let output = experiment
                        .run(job.seed, &params, job.quick)
                        .expect("every grid value passed `validate`");
                    let result = JobResult {
                        job: job.clone(),
                        samples: output.samples,
                        wall: job_started.elapsed(),
                    };
                    if tx.send(result).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        for (done, result) in rx.iter().enumerate() {
            eprintln!(
                "  [{}/{}] {} ({:.2}s)",
                done + 1,
                jobs.len(),
                result.job.label(),
                result.wall.as_secs_f64()
            );
            results.push(result);
        }
    });
    results.sort_by_key(|r| r.job.id);
    Ok(SweepRun {
        spec: spec.clone(),
        results,
        threads,
        wall: started.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// E3 is pure computation (no world), so this exercises the pool fast.
    #[test]
    fn executor_returns_results_in_job_id_order_for_any_thread_count() {
        let spec = SweepSpec::new("routes").seed_range(1, 6).quick(true);
        let one = run_sweep(&spec, 1).unwrap();
        let many = run_sweep(&spec, 4).unwrap();
        assert_eq!(one.results.len(), 6);
        assert_eq!(many.results.len(), 6);
        assert_eq!(many.threads, 4);
        for (a, b) in one.results.iter().zip(&many.results) {
            assert_eq!(a.job, b.job);
            assert_eq!(a.samples, b.samples);
        }
    }

    #[test]
    fn invalid_specs_fail_before_any_job_runs() {
        let spec = SweepSpec::new("routes").seeds(vec![]);
        assert!(run_sweep(&spec, 2).is_err());
    }
}
