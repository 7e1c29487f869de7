//! The seeded open-loop arrival schedule.

/// SplitMix64: a tiny, well-mixed generator, so a schedule depends on
/// nothing but its seed.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in the open interval (0, 1).
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    /// Uniform integer in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Send offsets, in seconds from the start of the run, of a Poisson
/// process at `rate` per second over `seconds`: exponential gaps drawn
/// from `seed` alone.
pub fn poisson(seed: u64, rate: f64, seconds: f64) -> Vec<f64> {
    assert!(rate > 0.0 && seconds > 0.0, "degenerate schedule");
    let mut rng = SplitMix64::new(seed ^ 0x005E_ED0F_A441);
    let mut t = 0.0;
    let mut out = Vec::with_capacity((rate * seconds * 1.2) as usize + 16);
    loop {
        t += -rng.unit().ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_function_of_the_seed() {
        let a = poisson(11, 150.0, 20.0);
        assert_eq!(a, poisson(11, 150.0, 20.0));
        assert_ne!(a, poisson(12, 150.0, 20.0));
        assert!(a.windows(2).all(|w| w[0] < w[1]), "offsets increase");
        assert!(a.iter().all(|&t| (0.0..20.0).contains(&t)));
        // 3000 expected arrivals; a Poisson count is within 5 sigma.
        let n = a.len() as f64;
        assert!((n - 3000.0).abs() < 5.0 * 3000f64.sqrt(), "{n} arrivals");
    }

    #[test]
    fn generator_is_deterministic_and_in_range() {
        let mut r = SplitMix64::new(3);
        let xs: Vec<f64> = (0..1000).map(|_| r.unit()).collect();
        assert!(xs.iter().all(|&x| x > 0.0 && x < 1.0));
        let mut r2 = SplitMix64::new(3);
        assert!(xs.iter().all(|&x| x == r2.unit()));
        assert!((0..100).all(|_| r.below(7) < 7));
    }
}
