//! Order statistics for timings: medians and the tail-percentile rule.

/// Percentiles tried for a tail figure, highest first, in tenths of a
/// percent so that ranks come out exact.
const LADDER: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// Samples that must lie beyond a percentile before it may be reported.
pub const MIN_BEYOND: usize = 10;

/// The median of `xs` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least once.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let sorted = sorted(xs);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut out = xs.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// A reported tail figure: which percentile, its value, and the samples
/// behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (e.g. `99.0`), or `100.0` for the maximum
    /// when too few samples exist for any percentile.
    pub percentile: f64,
    /// The sample at that percentile (nearest rank).
    pub value: f64,
    /// How many samples the figure was taken over.
    pub samples: usize,
}

impl Tail {
    /// `p99 over 2400 samples`, or `max over 3 samples`.
    #[must_use]
    pub fn label(&self) -> String {
        if self.percentile >= 100.0 {
            format!("max over {} samples", self.samples)
        } else {
            format!("p{} over {} samples", self.percentile, self.samples)
        }
    }
}

/// The highest percentile of the ladder that leaves at least
/// [`MIN_BEYOND`] samples strictly above its nearest-rank position, or the
/// maximum when no percentile qualifies.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn tail(xs: &[f64]) -> Tail {
    tail_up_to(xs, 100.0)
}

/// [`tail`] with the ladder capped at `max_percentile`. A metric named
/// after a percentile caps there, so that more samples never move it to a
/// higher percentile.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn tail_up_to(xs: &[f64], max_percentile: f64) -> Tail {
    assert!(!xs.is_empty(), "tail of no samples");
    let sorted = sorted(xs);
    let n = sorted.len();
    for tenths in LADDER {
        let percentile = tenths as f64 / 10.0;
        if percentile > max_percentile {
            continue;
        }
        // Nearest rank: the smallest 1-based rank k with k/n >= p/100.
        let rank = (tenths * n).div_ceil(1000).max(1);
        if n - rank >= MIN_BEYOND {
            return Tail { percentile, value: sorted[rank - 1], samples: n };
        }
    }
    Tail { percentile: 100.0, value: sorted[n - 1], samples: n }
}

/// The p99 when at least [`MIN_BEYOND`] samples lie beyond it, else the
/// median: a run with fewer than a thousand requests has no tail to report,
/// and a lower percentile in its place would change meaning with the
/// sample count.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn p99_or_median(xs: &[f64]) -> Tail {
    let t = tail_up_to(xs, 99.0);
    if t.percentile == 99.0 {
        t
    } else {
        Tail { percentile: 50.0, value: median(xs), samples: xs.len() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990 leaves exactly 10 above.
        let t = tail(&ramp(1000));
        assert_eq!((t.percentile, t.value, t.samples), (99.0, 990.0, 1000));
        // 999 samples: p99 leaves only 9 above, so p95 is reported.
        let t = tail(&ramp(999));
        assert_eq!((t.percentile, t.value), (95.0, 950.0));
    }

    #[test]
    fn p999_is_reported_once_it_qualifies() {
        let t = tail(&ramp(10_000));
        assert_eq!((t.percentile, t.value), (99.9, 9990.0));
    }

    #[test]
    fn small_samples_fall_back_to_lower_percentiles_then_the_maximum() {
        assert_eq!(tail(&ramp(20)).percentile, 50.0);
        let t = tail(&ramp(19));
        assert_eq!((t.percentile, t.value), (100.0, 19.0));
        assert_eq!(t.label(), "max over 19 samples");
        assert_eq!(tail(&ramp(40)).label(), "p75 over 40 samples");
    }

    #[test]
    fn a_capped_tail_stays_at_its_percentile_as_samples_grow() {
        assert_eq!(tail_up_to(&ramp(10_000), 99.0).percentile, 99.0);
        assert_eq!(tail_up_to(&ramp(10_000), 99.0).value, 9900.0);
        assert_eq!(tail_up_to(&ramp(500), 99.0).percentile, 95.0);
        assert_eq!(tail_up_to(&ramp(5), 99.0).percentile, 100.0);
    }

    #[test]
    fn too_few_samples_for_a_p99_report_the_median() {
        let t = p99_or_median(&ramp(999));
        assert_eq!((t.percentile, t.value), (50.0, 500.0));
        assert_eq!(t.label(), "p50 over 999 samples");
        assert_eq!(p99_or_median(&ramp(1000)).value, 990.0);
    }

    #[test]
    fn order_of_samples_does_not_matter() {
        let mut xs = ramp(2000);
        xs.reverse();
        assert_eq!(tail(&xs), tail(&ramp(2000)));
    }
}
