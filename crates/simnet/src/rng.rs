//! Deterministic random number generation.
//!
//! Every stochastic decision in the simulator (connection setup latency,
//! connection faults, inquiry misses, mobility waypoints, quality noise) is
//! drawn from a [`SimRng`] derived from the world seed, so a run is fully
//! reproducible from `(seed, scenario)`.
//!
//! The generator is a self-contained xoshiro256++ seeded through a
//! SplitMix64 expansion — no external dependency, identical streams on every
//! platform.

/// Types that [`SimRng::range`] can draw uniformly.
///
/// Implemented for the integer and floating-point types the simulator uses;
/// the trait is sealed in practice by being driven only through
/// [`SampleRange`].
pub trait SampleUniform: Copy + PartialOrd {
    /// Draws a value in `[low, high]` (both ends inclusive) for integer
    /// types. Floating-point sampling is always half-open `[low, high)` —
    /// see the `f64` impl.
    fn sample_inclusive(rng: &mut SimRng, low: Self, high: Self) -> Self;
    /// The largest value strictly below `self` (integer predecessor; for
    /// floats the half-open upper bound is handled in the float impl
    /// directly, so this is identity there).
    fn half_open_high(self) -> Self;
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_inclusive(rng: &mut SimRng, low: Self, high: Self) -> Self {
                debug_assert!(low <= high);
                let span = (high as u64).wrapping_sub(low as u64).wrapping_add(1);
                if span == 0 {
                    // Full 64-bit span.
                    return rng.next_u64() as Self;
                }
                // Multiply-shift mapping of a 64-bit draw onto the span; the
                // bias is < 2^-64 per draw, far below anything the simulator
                // can observe.
                let hi = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                low.wrapping_add(hi as Self)
            }
            fn half_open_high(self) -> Self {
                self - 1
            }
        }
    )*};
}

impl_sample_uniform_int!(u8, u16, u32, u64, usize, i32, i64);

impl SampleUniform for f64 {
    fn sample_inclusive(rng: &mut SimRng, low: Self, high: Self) -> Self {
        // Uniform in [low, high) regardless of the range syntax used: the
        // closed upper end of `a..=b` is a measure-zero event no simulator
        // model depends on, so float sampling is uniformly half-open.
        low + (high - low) * rng.unit()
    }
    fn half_open_high(self) -> Self {
        self
    }
}

/// Ranges accepted by [`SimRng::range`]: `a..b` and `a..=b`.
pub trait SampleRange<T: SampleUniform> {
    /// Inclusive `(low, high)` bounds of the range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn bounds_inclusive(self) -> (T, T);
}

impl<T: SampleUniform> SampleRange<T> for std::ops::Range<T> {
    fn bounds_inclusive(self) -> (T, T) {
        assert!(self.start < self.end, "cannot sample an empty range");
        (self.start, self.end.half_open_high())
    }
}

impl<T: SampleUniform> SampleRange<T> for std::ops::RangeInclusive<T> {
    fn bounds_inclusive(self) -> (T, T) {
        let (start, end) = self.into_inner();
        assert!(start <= end, "cannot sample an empty range");
        (start, end)
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded random number generator with a few distribution helpers used by
/// the radio and mobility models.
///
/// ```
/// use simnet::rng::SimRng;
///
/// let mut a = SimRng::new(42);
/// let mut b = SimRng::new(42);
/// assert_eq!(a.range(0u32..100), b.range(0u32..100));
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    state: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        SimRng {
            state: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Derives an independent child generator from this one and a stream
    /// label. Children with different labels produce uncorrelated streams;
    /// deriving the same label twice from generators in the same state gives
    /// the same stream.
    pub fn derive(&self, label: u64) -> SimRng {
        // Mix the label with a SplitMix64-style finalizer so neighbouring
        // labels yield unrelated seeds.
        let mut z = label.wrapping_add(0x9E37_79B9_7F4A_7C15) ^ self.base_seed_hint();
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        SimRng::new(z)
    }

    /// The stream of node `raw_id` of a world whose master generator this is:
    /// the one label scheme both engines' `add_node` use, so a node draws the
    /// same numbers whichever engine (and shard) runs it.
    pub(crate) fn derive_node(&self, raw_id: u64) -> SimRng {
        self.derive(0x4E4F_4445_0000_0000 | raw_id)
    }

    fn base_seed_hint(&self) -> u64 {
        // Peek one draw from a clone to obtain a state-dependent hint without
        // disturbing `self`.
        let mut probe = self.clone();
        probe.next_u64()
    }

    /// Draws a value uniformly from the given range (`a..b` or `a..=b`).
    ///
    /// Integer ranges honour their bounds exactly; floating-point ranges are
    /// always sampled half-open `[low, high)`, even for `a..=b`.
    pub fn range<T, R>(&mut self, range: R) -> T
    where
        T: SampleUniform,
        R: SampleRange<T>,
    {
        let (low, high) = range.bounds_inclusive();
        T::sample_inclusive(self, low, high)
    }

    /// Draws a uniform value in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns true with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit() < p
        }
    }

    /// Draws from a uniform distribution over `[min, max]` seconds expressed
    /// as `f64`, useful for latency models.
    pub fn uniform_f64(&mut self, min: f64, max: f64) -> f64 {
        if max <= min {
            return min;
        }
        min + (max - min) * self.unit()
    }

    /// Draws a sample from an approximately normal distribution using the
    /// sum of uniforms (Irwin–Hall with 12 terms), which is accurate enough
    /// for link-quality noise and avoids an extra dependency.
    pub fn gaussian(&mut self, mean: f64, std_dev: f64) -> f64 {
        let mut acc = 0.0;
        for _ in 0..12 {
            acc += self.unit();
        }
        mean + (acc - 6.0) * std_dev
    }

    /// Draws from an exponential distribution with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        let u: f64 = self.unit().max(f64::EPSILON);
        -mean * u.ln()
    }

    /// Picks a uniformly random element index for a slice of length `len`.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn index(&mut self, len: usize) -> usize {
        assert!(len > 0, "cannot pick from an empty collection");
        self.range(0..len)
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        if items.len() < 2 {
            return;
        }
        for i in (1..items.len()).rev() {
            let j = self.range(0..=i);
            items.swap(i, j);
        }
    }

    /// Draws a raw 64-bit value (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s2 = s2 ^ s0;
        let mut s3 = s3 ^ s1;
        let s1 = s1 ^ s2;
        let s0 = s0 ^ s3;
        s2 ^= t;
        s3 = s3.rotate_left(45);
        self.state = [s0, s1, s2, s3];
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "streams should be essentially independent");
    }

    #[test]
    fn derive_is_deterministic_and_label_sensitive() {
        let root = SimRng::new(99);
        let mut c1 = root.derive(1);
        let mut c1b = root.derive(1);
        let mut c2 = root.derive(2);
        assert_eq!(c1.next_u64(), c1b.next_u64());
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(5);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-1.0));
        assert!(r.chance(2.0));
    }

    #[test]
    fn chance_probability_roughly_respected() {
        let mut r = SimRng::new(11);
        let hits = (0..10_000).filter(|_| r.chance(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "got {hits}");
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut r = SimRng::new(3);
        for _ in 0..1000 {
            let v = r.uniform_f64(1.5, 9.0);
            assert!((1.5..9.0).contains(&v));
        }
        assert_eq!(r.uniform_f64(4.0, 4.0), 4.0);
        assert_eq!(r.uniform_f64(4.0, 2.0), 4.0);
    }

    #[test]
    fn range_covers_integer_bounds() {
        let mut r = SimRng::new(13);
        let mut seen_low = false;
        let mut seen_high = false;
        for _ in 0..2000 {
            let v = r.range(0u32..4);
            assert!(v < 4);
            seen_low |= v == 0;
            seen_high |= v == 3;
        }
        assert!(seen_low && seen_high, "both ends of 0..4 should be drawn");
        for _ in 0..200 {
            let v = r.range(5u64..=5);
            assert_eq!(v, 5);
        }
    }

    #[test]
    fn gaussian_mean_and_spread() {
        let mut r = SimRng::new(21);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| r.gaussian(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.15, "std {}", var.sqrt());
    }

    #[test]
    fn exponential_mean() {
        let mut r = SimRng::new(77);
        let n = 20_000;
        let mean = (0..n).map(|_| r.exponential(5.0)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.25, "mean {mean}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::new(8);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic]
    fn index_empty_panics() {
        let mut r = SimRng::new(1);
        let _ = r.index(0);
    }
}
