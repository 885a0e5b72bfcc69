//! Seeded open-loop arrival schedules.
//!
//! Independent users make an open loop: requests are due at Poisson
//! arrival times whatever the server does, and each request is timed from
//! when it was due, so a stall is charged to every request queued behind
//! it.

use trisolv_matrix::rng::Rng;

/// Poisson arrival offsets (seconds from phase start) at `rate` per
/// second over `[0, duration)`, ascending. The same `(rate, duration,
/// seed)` always gives the same schedule.
pub fn poisson(rate: f64, duration: f64, seed: u64) -> Vec<f64> {
    assert!(
        rate > 0.0 && duration > 0.0,
        "schedule needs a positive rate and span"
    );
    let mut rng = Rng::seed_from_u64(seed);
    let mut out = Vec::with_capacity((rate * duration * 1.2) as usize + 8);
    let mut t = 0.0f64;
    loop {
        // inverse-CDF exponential gap; 1 - u is in (0, 1], so ln is finite
        let u = rng.f64();
        t += -(1.0 - u).ln() / rate;
        if t >= duration {
            return out;
        }
        out.push(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_sorted_and_bounded() {
        let a = poisson(200.0, 5.0, 11);
        assert_eq!(a, poisson(200.0, 5.0, 11));
        assert_ne!(a, poisson(200.0, 5.0, 12));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| (0.0..5.0).contains(&t)));
    }

    #[test]
    fn schedule_offers_the_asked_rate() {
        // 1000 expected arrivals: the Poisson count is within 5 sigma
        let a = poisson(100.0, 10.0, 3);
        assert!(
            (a.len() as f64 - 1000.0).abs() < 5.0 * 1000f64.sqrt(),
            "{}",
            a.len()
        );
        let mean_gap = a.last().unwrap() / a.len() as f64;
        assert!((mean_gap - 0.01).abs() < 0.002, "{mean_gap}");
    }
}
