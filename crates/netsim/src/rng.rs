//! Seeded randomness and the small distribution toolbox the simulator needs.
//!
//! `rand` is in the approved dependency set but `rand_distr` is not, so the
//! handful of distributions used here (normal, log-normal, exponential,
//! bounded) are implemented directly. All sampling flows through a seeded
//! `StdRng`, keeping every experiment reproducible.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sample a standard normal via Box-Muller.
pub fn sample_std_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Sample `N(mean, sd)`.
pub fn sample_normal(rng: &mut StdRng, mean: f64, sd: f64) -> f64 {
    mean + sd * sample_std_normal(rng)
}

/// Sample a log-normal with the given *underlying* normal parameters.
pub fn sample_lognormal(rng: &mut StdRng, mu: f64, sigma: f64) -> f64 {
    sample_normal(rng, mu, sigma).exp()
}

/// Sample `Exp(1/mean)`.
pub fn sample_exp(rng: &mut StdRng, mean: f64) -> f64 {
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    -mean * u.ln()
}

/// A duration distribution in milliseconds, clamped to `[min, max]`.
///
/// Operator latencies (LAU/RAU durations, re-attach times, switch delays)
/// are each described by one of these in the operator profile, which is how
/// the Figure 8 CDFs and Table 6 quantiles get their shapes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DurationDist {
    /// Constant duration.
    Fixed(u64),
    /// Uniform over `[lo, hi]`.
    Uniform {
        /// Lower bound, ms.
        lo: u64,
        /// Upper bound, ms.
        hi: u64,
    },
    /// Normal, clamped.
    Normal {
        /// Mean, ms.
        mean_ms: f64,
        /// Standard deviation, ms.
        sd_ms: f64,
        /// Clamp floor, ms.
        min_ms: u64,
        /// Clamp ceiling, ms.
        max_ms: u64,
    },
    /// Log-normal (heavy right tail — re-attach and stuck-in-3G times),
    /// clamped.
    LogNormal {
        /// Underlying normal mean (of ln ms).
        mu: f64,
        /// Underlying normal sd.
        sigma: f64,
        /// Clamp floor, ms.
        min_ms: u64,
        /// Clamp ceiling, ms.
        max_ms: u64,
    },
}

impl DurationDist {
    /// Draw a duration in milliseconds.
    pub fn sample_ms(&self, rng: &mut StdRng) -> u64 {
        match *self {
            DurationDist::Fixed(ms) => ms,
            DurationDist::Uniform { lo, hi } => rng.gen_range(lo..=hi.max(lo)),
            DurationDist::Normal {
                mean_ms,
                sd_ms,
                min_ms,
                max_ms,
            } => {
                let v = sample_normal(rng, mean_ms, sd_ms);
                (v.round().max(0.0) as u64).clamp(min_ms, max_ms)
            }
            DurationDist::LogNormal {
                mu,
                sigma,
                min_ms,
                max_ms,
            } => {
                let v = sample_lognormal(rng, mu, sigma);
                (v.round().max(0.0) as u64).clamp(min_ms, max_ms)
            }
        }
    }
}

/// Build the simulator RNG from a seed.
pub fn rng_from_seed(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_mean_and_sd_roughly_correct() {
        let mut rng = rng_from_seed(1);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_normal(&mut rng, 5.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "sd {}", var.sqrt());
    }

    #[test]
    fn exp_mean_roughly_correct() {
        let mut rng = rng_from_seed(2);
        let n = 20_000;
        let mean = (0..n).map(|_| sample_exp(&mut rng, 3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.15, "mean {mean}");
    }

    #[test]
    fn lognormal_is_positive_and_right_skewed() {
        let mut rng = rng_from_seed(3);
        let samples: Vec<f64> = (0..10_000)
            .map(|_| sample_lognormal(&mut rng, 1.0, 0.8))
            .collect();
        assert!(samples.iter().all(|&x| x > 0.0));
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[sorted.len() / 2];
        assert!(mean > median, "right skew: mean {mean} > median {median}");
    }

    #[test]
    fn duration_dist_respects_clamps() {
        let mut rng = rng_from_seed(4);
        let d = DurationDist::LogNormal {
            mu: 10.0,
            sigma: 2.0,
            min_ms: 100,
            max_ms: 5_000,
        };
        for _ in 0..1_000 {
            let v = d.sample_ms(&mut rng);
            assert!((100..=5_000).contains(&v));
        }
    }

    #[test]
    fn fixed_and_uniform() {
        let mut rng = rng_from_seed(5);
        assert_eq!(DurationDist::Fixed(42).sample_ms(&mut rng), 42);
        for _ in 0..100 {
            let v = DurationDist::Uniform { lo: 10, hi: 20 }.sample_ms(&mut rng);
            assert!((10..=20).contains(&v));
        }
    }

    #[test]
    fn seeded_rng_reproducible() {
        let mut a = rng_from_seed(9);
        let mut b = rng_from_seed(9);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }
}
