//! Order statistics and normalisers behind the reported metrics.

/// The percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Nearest-rank percentile of an ascending slice.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (nearest-rank p50) of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 50.0)
}

pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// A tail percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported.
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Samples strictly above `value`.
    pub beyond: usize,
    /// All samples.
    pub samples: usize,
}

/// The highest percentile at or below `want` that has at least ten samples
/// beyond it: a p99 needs about a thousand samples, and with fewer the
/// tail falls back down the ladder (to p50 at worst) instead of reporting
/// a maximum dressed up as a percentile.
pub fn tail(samples: &[f64], want: f64) -> Tail {
    let s = sorted(samples);
    let at = |pct: f64| {
        let value = percentile(&s, pct);
        Tail {
            pct,
            value,
            beyond: s.iter().filter(|&&x| x > value).count(),
            samples: s.len(),
        }
    };
    TAIL_LADDER
        .iter()
        .filter(|&&p| p <= want)
        .map(|&p| at(p))
        .find(|t| t.beyond >= 10)
        .unwrap_or_else(|| at(50.0))
}

/// Growth of a per-process resource (fds, threads) per 1000 connections.
pub fn per_1k(before: u64, after: u64, connections: u64) -> f64 {
    if connections == 0 {
        return 0.0;
    }
    (after as f64 - before as f64) * 1000.0 / connections as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = ramp(10);
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: p99 = 990 with exactly 10 beyond it.
        let t = tail(&ramp(1000), 99.0);
        assert_eq!(
            (t.pct, t.value, t.beyond, t.samples),
            (99.0, 990.0, 10, 1000)
        );
        // 999 samples: p99 has 9 beyond, so the tail drops to p95.
        let t = tail(&ramp(999), 99.0);
        assert_eq!(t.pct, 95.0);
        assert!(t.beyond >= 10);
        // 100 samples: p90 = 90 has 10 beyond.
        assert_eq!(tail(&ramp(100), 90.0).pct, 90.0);
        assert_eq!(tail(&ramp(99), 90.0).pct, 75.0);
    }

    #[test]
    fn tail_counts_ties_as_not_beyond() {
        let mut v = vec![1.0; 990];
        v.extend(std::iter::repeat_n(5.0, 10));
        let t = tail(&v, 99.0);
        assert_eq!((t.value, t.beyond), (1.0, 10));
    }

    #[test]
    fn tail_of_few_samples_falls_back_to_the_median() {
        let t = tail(&ramp(5), 99.0);
        assert_eq!((t.pct, t.value, t.samples), (50.0, 3.0, 5));
        assert!(t.beyond < 10);
    }

    #[test]
    fn growth_is_normalised_per_thousand_connections() {
        assert_eq!(per_1k(10, 2010, 2000), 1000.0);
        assert_eq!(per_1k(10, 10, 500), 0.0);
        assert_eq!(per_1k(12, 10, 1000), -2.0);
        assert_eq!(per_1k(10, 99, 0), 0.0);
    }
}
