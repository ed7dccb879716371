//! Deterministic randomness helpers.
//!
//! Everything stochastic in the simulator — EC2 performance jitter,
//! straggler injection, workload synthesis, fault schedules — draws from a
//! [`DetRng`] seeded explicitly, so a run is a pure function of
//! `(config, seed)`. The generator is a self-contained xoshiro256++
//! (public-domain algorithm by Blackman & Vigna) seeded through SplitMix64,
//! keeping the workspace free of external RNG dependencies.

/// A seeded RNG with the distribution helpers the simulator needs.
#[derive(Debug, Clone)]
pub struct DetRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl DetRng {
    pub fn new(seed: u64) -> Self {
        // Expand the seed into the 256-bit state; SplitMix64 guarantees the
        // state is never all-zero.
        let mut sm = seed;
        DetRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// The next raw 64-bit draw (xoshiro256++).
    fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Derive an independent child stream; `salt` distinguishes siblings.
    /// Used to give every simulated slave its own stream so adding a slave
    /// does not perturb the draws of the others.
    pub fn fork(&self, salt: u64) -> DetRng {
        // SplitMix64-style mixing of the parent's next draw with the salt.
        // Peeking via a clone leaves the parent's own stream untouched.
        let mut z = self
            .clone()
            .next_u64()
            .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        DetRng::new(z ^ (z >> 31))
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        // 53 random mantissa bits, the standard float-from-bits recipe.
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index(0)");
        // Lemire multiply-shift; the modulo bias is far below anything the
        // simulator's statistics could resolve.
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Standard normal via Box-Muller.
    pub fn std_normal(&mut self) -> f64 {
        let u1: f64 = self.uniform().max(f64::MIN_POSITIVE);
        let u2: f64 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// A multiplicative jitter factor with mean ~1 and coefficient of
    /// variation `cv`, drawn from a lognormal. `cv = 0` returns exactly 1.
    /// This is the standard model for virtualized-instance performance
    /// variability (EC2 "noisy neighbours").
    pub fn jitter(&mut self, cv: f64) -> f64 {
        if cv <= 0.0 {
            return 1.0;
        }
        let sigma2 = (1.0 + cv * cv).ln();
        let mu = -sigma2 / 2.0; // so that E[exp(N(mu, sigma^2))] = 1
        (mu + sigma2.sqrt() * self.std_normal()).exp()
    }

    /// Bernoulli draw.
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..32).filter(|_| a.uniform() == b.uniform()).count();
        assert!(same < 4);
    }

    #[test]
    fn fork_streams_are_independent_and_stable() {
        let parent = DetRng::new(7);
        let mut c1 = parent.fork(1);
        let mut c1b = parent.fork(1);
        let mut c2 = parent.fork(2);
        assert_eq!(c1.uniform().to_bits(), c1b.uniform().to_bits());
        assert_ne!(c1.uniform().to_bits(), c2.uniform().to_bits());
    }

    #[test]
    fn jitter_mean_is_about_one() {
        let mut r = DetRng::new(3);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.jitter(0.2)).sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.02, "jitter mean {mean}");
        assert_eq!(r.jitter(0.0), 1.0);
    }

    #[test]
    fn jitter_is_positive() {
        let mut r = DetRng::new(11);
        for _ in 0..10_000 {
            assert!(r.jitter(0.5) > 0.0);
        }
    }

    #[test]
    fn index_in_bounds() {
        let mut r = DetRng::new(5);
        for _ in 0..1000 {
            assert!(r.index(7) < 7);
        }
    }

    #[test]
    fn uniform_is_well_spread() {
        let mut r = DetRng::new(9);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.uniform()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "uniform mean {mean}");
    }
}
