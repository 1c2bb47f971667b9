//! Random-number helpers: seeded RNG construction and Gaussian sampling.
//!
//! `rand_distr` is not in the approved dependency set, so normal samples are
//! produced with the Box-Muller transform on top of the `rand` core traits.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Construct the deterministic RNG used everywhere in this workspace.
pub fn seeded(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// One standard-normal sample via the Box-Muller transform.
pub fn normal<R: Rng>(rng: &mut R) -> f64 {
    // Avoid ln(0) by sampling u1 from the open interval (0, 1].
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Fill a slice with i.i.d. `N(0, std_dev^2)` samples (as `f32`).
pub fn fill_normal<R: Rng>(rng: &mut R, out: &mut [f32], std_dev: f64) {
    for v in out.iter_mut() {
        *v = (normal(rng) * std_dev) as f32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_under_seed() {
        let mut a = seeded(7);
        let mut b = seeded(7);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn normal_moments() {
        let mut rng = seeded(42);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }
}
