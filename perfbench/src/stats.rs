//! Order statistics and the digest the determinism guard compares.

/// Percentiles the tail metric may report, highest first, in tenths of a
/// percent (integer, so ranks come out exact).
pub const TAIL_LADDER: [usize; 5] = [999, 990, 950, 900, 500];

/// Samples that must lie beyond a percentile before it counts as measured.
pub const TAIL_BEYOND: usize = 10;

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile (`per_mille` tenths of a percent) of an
/// ascending slice, with the number of samples strictly beyond its rank.
fn nearest_rank(sorted: &[f64], per_mille: usize) -> (f64, usize) {
    let rank = (per_mille * sorted.len()).div_ceil(1000);
    let index = rank.clamp(1, sorted.len()) - 1;
    (sorted[index], sorted.len() - 1 - index)
}

/// A tail percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (from [`TAIL_LADDER`]).
    pub percentile: f64,
    /// Its nearest-rank value.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

/// The highest percentile of [`TAIL_LADDER`] that has at least
/// [`TAIL_BEYOND`] samples beyond it, or `None` when even the median lacks
/// that many (fewer than 20 samples).
pub fn tail(values: &[f64]) -> Option<Tail> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return None;
    }
    TAIL_LADDER.iter().find_map(|&per_mille| {
        let (value, beyond) = nearest_rank(&sorted, per_mille);
        (beyond >= TAIL_BEYOND).then_some(Tail {
            percentile: per_mille as f64 / 10.0,
            value,
            samples: sorted.len(),
        })
    })
}

/// FNV-1a 64 over `bytes`, folded into `state` (start from [`FNV_OFFSET`]).
pub fn fnv1a_fold(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// FNV-1a 64 offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64 of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_fold(FNV_OFFSET, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: `tail` must sort.
        (1..=n).rev().map(|v| v as f64).collect()
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_the_percentile() {
        // 20 samples: p50 is rank 10, with exactly 10 beyond it.
        assert_eq!(tail(&ramp(20)), Some(Tail { percentile: 50.0, value: 10.0, samples: 20 }));
        // 19 samples: p50 (rank 10) has only 9 beyond it — nothing qualifies.
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn tail_climbs_the_ladder_as_samples_grow() {
        // 100 samples: p90 is rank 90 with 10 beyond; p95 would have 5.
        assert_eq!(tail(&ramp(100)), Some(Tail { percentile: 90.0, value: 90.0, samples: 100 }));
        // 1000 samples: p99 is rank 990 with 10 beyond; p99.9 would have 1.
        assert_eq!(tail(&ramp(1000)), Some(Tail { percentile: 99.0, value: 990.0, samples: 1000 }));
        // 10000 samples: p99.9 is rank 9990 with 10 beyond.
        let t = tail(&ramp(10_000)).unwrap();
        assert_eq!((t.percentile, t.value), (99.9, 9990.0));
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_fold(fnv1a(b"fo"), b"o"), fnv1a(b"foo"));
    }
}
