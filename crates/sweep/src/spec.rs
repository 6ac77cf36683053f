//! Campaign specification: seeds × parameter grid → deterministic job list.

use std::fmt;

use scenarios::experiments::find;

/// An error building or validating a sweep specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepError(pub String);

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for SweepError {}

/// One unit of work: run `experiment` once with `seed` and the parameter
/// overrides of one grid point. Plain `Send` data — the world it implies is
/// built inside whichever worker thread picks the job up.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Position in the expanded job list; fixes aggregation order.
    pub id: usize,
    /// Experiment slug (e.g. `"churn"`).
    pub experiment: String,
    /// The seed of this run.
    pub seed: u64,
    /// `(key, value)` overrides of this grid point, in axis order. Empty
    /// for a gridless sweep.
    pub grid: Vec<(String, String)>,
    /// Quick (CI-sized) or full settings.
    pub quick: bool,
}

impl JobSpec {
    /// Compact human-readable label, e.g. `churn seed=43 nodes=100`.
    pub fn label(&self) -> String {
        let mut s = format!("{} seed={}", self.experiment, self.seed);
        for (k, v) in &self.grid {
            s.push_str(&format!(" {k}={v}"));
        }
        s
    }
}

/// Builder for an experiment campaign: which experiment, which seeds, which
/// parameter grid, quick or full settings.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Experiment slug or id.
    pub experiment: String,
    /// Seeds to run every grid point with.
    pub seeds: Vec<u64>,
    /// Grid axes in declaration order; the cartesian product of their
    /// values forms the grid points.
    pub axes: Vec<(String, Vec<String>)>,
    /// Quick (CI-sized) or full settings.
    pub quick: bool,
}

impl SweepSpec {
    /// Starts a spec for `experiment` (slug or id) with the default seed
    /// range `42..=49` and no grid.
    pub fn new(experiment: impl Into<String>) -> Self {
        SweepSpec {
            experiment: experiment.into(),
            seeds: (42..50).collect(),
            axes: Vec::new(),
            quick: false,
        }
    }

    /// Replaces the seed list with `base, base+1, …, base+count-1`.
    pub fn seed_range(mut self, base: u64, count: usize) -> Self {
        self.seeds = (0..count as u64).map(|i| base.wrapping_add(i)).collect();
        self
    }

    /// Replaces the seed list.
    pub fn seeds(mut self, seeds: Vec<u64>) -> Self {
        self.seeds = seeds;
        self
    }

    /// Selects quick (CI-sized) settings.
    pub fn quick(mut self, quick: bool) -> Self {
        self.quick = quick;
        self
    }

    /// Adds a grid axis. Rejects duplicate keys — a grid with the same key
    /// twice has no well-defined cartesian product.
    pub fn axis(mut self, key: impl Into<String>, values: Vec<String>) -> Result<Self, SweepError> {
        let key = key.into();
        if self.axes.iter().any(|(k, _)| *k == key) {
            return Err(SweepError(format!("duplicate grid axis `{key}`")));
        }
        self.axes.push((key, values));
        Ok(self)
    }

    /// Validates the spec against the experiment registry: the experiment
    /// must exist, every axis key must be one of its declared parameters,
    /// every value must be one the parameter's own setter accepts
    /// ([`Experiment::check`](scenarios::Experiment::check)), and seed list
    /// and axis value lists must be non-empty.
    pub fn validate(&self) -> Result<(), SweepError> {
        let exp = find(&self.experiment)
            .ok_or_else(|| SweepError(format!("unknown experiment `{}` (see `repro --list`)", self.experiment)))?;
        if self.seeds.is_empty() {
            return Err(SweepError("seed list is empty".into()));
        }
        for (key, values) in &self.axes {
            if values.is_empty() {
                return Err(SweepError(format!("grid axis `{key}` has no values")));
            }
            for value in values {
                exp.check(key, value)
                    .map_err(|e| SweepError(format!("grid axis `{key}` of `{}`: {e}", exp.slug)))?;
            }
        }
        Ok(())
    }

    /// Number of grid points: the product of the axis value counts (1 for
    /// a gridless sweep, 0 if any axis has no values — the state
    /// [`SweepSpec::validate`] rejects).
    pub fn grid_points(&self) -> usize {
        self.axes.iter().map(|(_, vs)| vs.len()).product()
    }

    /// Expands the spec into the deterministic job list: grid points in
    /// odometer order (first axis slowest), seeds in declaration order
    /// within each point. Job ids are positions in this list. An axis with
    /// no values yields no grid points and therefore no jobs (consistent
    /// with [`SweepSpec::grid_points`]; `validate` rejects such specs).
    pub fn jobs(&self) -> Vec<JobSpec> {
        if self.axes.iter().any(|(_, vs)| vs.is_empty()) {
            return Vec::new();
        }
        let mut jobs = Vec::with_capacity(self.grid_points() * self.seeds.len());
        let mut counters = vec![0usize; self.axes.len()];
        loop {
            let grid: Vec<(String, String)> = self
                .axes
                .iter()
                .zip(&counters)
                .map(|((k, vs), &i)| (k.clone(), vs[i].clone()))
                .collect();
            for &seed in &self.seeds {
                jobs.push(JobSpec {
                    id: jobs.len(),
                    experiment: self.experiment.clone(),
                    seed,
                    grid: grid.clone(),
                    quick: self.quick,
                });
            }
            // Odometer increment, last axis fastest.
            let mut axis = self.axes.len();
            loop {
                if axis == 0 {
                    return jobs;
                }
                axis -= 1;
                counters[axis] += 1;
                if counters[axis] < self.axes[axis].1.len() {
                    break;
                }
                counters[axis] = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_is_the_cartesian_product_in_odometer_order() {
        let spec = SweepSpec::new("churn")
            .seed_range(7, 2)
            .axis("nodes", vec!["100".into(), "200".into()])
            .unwrap()
            .axis("churn", vec!["0".into(), "60".into(), "240".into()])
            .unwrap();
        assert_eq!(spec.grid_points(), 6);
        let jobs = spec.jobs();
        assert_eq!(jobs.len(), 12, "2 axes (2x3) x 2 seeds");
        // Ids are dense positions.
        assert!(jobs.iter().enumerate().all(|(i, j)| j.id == i));
        // First point: nodes=100, churn=0 with both seeds.
        assert_eq!(
            jobs[0].grid,
            vec![("nodes".into(), "100".into()), ("churn".into(), "0".into())]
        );
        assert_eq!((jobs[0].seed, jobs[1].seed), (7, 8));
        // Last axis increments fastest.
        assert_eq!(jobs[2].grid[1], ("churn".into(), "60".into()));
        assert_eq!(jobs[2].grid[0], ("nodes".into(), "100".into()));
        // First axis rolls over after the last axis exhausts.
        assert_eq!(jobs[6].grid[0], ("nodes".into(), "200".into()));
        assert_eq!(jobs[6].grid[1], ("churn".into(), "0".into()));
    }

    #[test]
    fn duplicate_axis_keys_are_rejected() {
        let err = SweepSpec::new("churn")
            .axis("nodes", vec!["100".into()])
            .unwrap()
            .axis("nodes", vec!["200".into()])
            .unwrap_err();
        assert!(err.0.contains("duplicate grid axis `nodes`"), "{err}");
    }

    #[test]
    fn validation_rejects_unknown_experiments_keys_and_bad_values() {
        assert!(SweepSpec::new("warp-drive").validate().is_err());
        let unknown_key = SweepSpec::new("churn").axis("color", vec!["red".into()]).unwrap();
        let err = unknown_key.validate().unwrap_err();
        assert!(err.0.contains("no grid parameter `color`"), "{err}");
        let bad_value = SweepSpec::new("churn").axis("nodes", vec!["many".into()]).unwrap();
        assert!(bad_value.validate().is_err());
        let empty_axis = SweepSpec::new("churn").axis("nodes", vec![]).unwrap();
        assert!(empty_axis.validate().is_err());
        // And even unvalidated, the expansion APIs agree: no points, no
        // jobs, no panic.
        assert_eq!(empty_axis.grid_points(), 0);
        assert!(empty_axis.jobs().is_empty());
        let ok = SweepSpec::new("churn")
            .axis("nodes", vec!["100".into()])
            .unwrap()
            .axis("churn", vec!["0".into(), "60".into()])
            .unwrap();
        assert!(ok.validate().is_ok());
        // Ids resolve too.
        assert!(SweepSpec::new("E13").validate().is_ok());
    }

    #[test]
    fn gridless_spec_expands_to_one_job_per_seed() {
        let jobs = SweepSpec::new("gnutella").seed_range(42, 3).jobs();
        assert_eq!(jobs.len(), 3);
        assert!(jobs.iter().all(|j| j.grid.is_empty()));
        assert_eq!(jobs[2].seed, 44);
        assert_eq!(jobs[1].label(), "gnutella seed=43");
    }
}
