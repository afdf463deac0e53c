//! Order statistics for the result file: a timing is reported as the
//! median of its samples, with min, max, MAD and the samples beside it.

/// Median of `values` (mean of the two middle values for an even count).
/// `NaN` for an empty slice, so a missing sample can never pass as a number.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of an already sorted slice.
pub fn percentile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// One metric's samples, reduced.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// What the metric reports: the median of a timing's samples (the
    /// `client.*` rows of `table::PER_LAYER` say what they report beside
    /// their per-segment samples), the value itself of a count.
    pub value: f64,
    pub median: f64,
    pub min: f64,
    pub max: f64,
    /// Median absolute deviation from the median.
    pub mad: f64,
    pub samples: Vec<f64>,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let m = median(values);
        let deviations: Vec<f64> = values.iter().map(|v| (v - m).abs()).collect();
        Summary {
            value: m,
            median: m,
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            mad: median(&deviations),
            samples: values.to_vec(),
        }
    }

    /// A count or a size: one exact value, no spread.
    pub fn exact(value: f64) -> Summary {
        Summary::of(&[value])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn summary_carries_spread() {
        let s = Summary::of(&[10.0, 12.0, 11.0, 30.0, 9.0]);
        assert_eq!(
            (s.median, s.min, s.max, s.samples.len()),
            (11.0, 9.0, 30.0, 5)
        );
        assert_eq!((s.mad, s.value), (1.0, 11.0));
        assert_eq!(Summary::exact(7.0).value, 7.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 50);
        assert_eq!(percentile_sorted(&v, 0.99), 99);
        assert_eq!(percentile_sorted(&v, 1.0), 100);
        assert_eq!(percentile_sorted(&[], 0.5), 0);
    }
}
