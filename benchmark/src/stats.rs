//! Order statistics: a median with its quartiles, never a bare mean.

/// Median, quartiles, minimum and sample count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Smallest sample.
    pub min: f64,
    /// Sample count.
    pub n: usize,
}

/// The value at rank `p * (n + 1)` of a sorted sample, interpolated — the
/// "exclusive" method Python's `statistics.quantiles` uses, so spreads
/// computed here match the driver's. Clamped to the ends where Python would
/// extrapolate past them (only below three samples).
fn quantile(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    let rank = p * (n as f64 + 1.0);
    let below = (rank.floor() as usize).clamp(1, n);
    let above = (below + 1).min(n);
    let frac = (rank - below as f64).clamp(0.0, 1.0);
    sorted[below - 1] + (sorted[above - 1] - sorted[below - 1]) * frac
}

/// Summarises `samples`; `None` when there are none.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let min = *sorted.first()?;
    Some(Summary {
        median: quantile(&sorted, 0.5),
        q1: quantile(&sorted, 0.25),
        q3: quantile(&sorted, 0.75),
        min,
        n,
    })
}

/// The median of `samples` (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).map_or(0.0, |s| s.median)
}

/// The sample at or above a share `p` of the others (nearest rank). With 200
/// samples `p = 0.95` leaves ten beyond it, the least a tail figure may rest on.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n => sorted[((p * n as f64).ceil() as usize).clamp(1, n) - 1],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s = summarize(&[10.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.min, s.n), (2.75, 5.5, 8.25, 1.0, 10));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        let s = summarize(&[7.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (7.0, 7.0, 7.0));
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.95), 190.0);
        assert_eq!(percentile(&v, 0.5), 100.0);
        assert_eq!(percentile(&v, 1.0), 200.0);
        assert_eq!(percentile(&[], 0.95), 0.0);
    }
}
