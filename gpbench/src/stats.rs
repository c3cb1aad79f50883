//! Percentiles and medians for the report.

/// Percentiles the report may quote, highest first.
const CANDIDATES: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 50.0];

/// A latency sample set, summarised.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub p50: f64,
    pub p99: f64,
    /// The highest percentile with at least ten samples beyond it, and its
    /// value; `None` when there are fewer than 20 samples.
    pub top: Option<(f64, f64)>,
}

/// 1-based nearest rank of percentile `p` among `n` samples, computed in
/// basis points so that e.g. p99.9 of 10,000 samples is exactly rank 9,990.
fn rank(p: f64, n: usize) -> usize {
    let bp = (p * 100.0).round() as usize;
    (bp * n).div_ceil(10_000).clamp(1, n)
}

/// Nearest-rank percentile of an ascending slice (`p` in `0..=100`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(p, sorted.len()) - 1]
}

/// The highest of [`CANDIDATES`] that leaves at least ten samples above it.
pub fn highest_supported(count: usize) -> Option<f64> {
    CANDIDATES
        .into_iter()
        .find(|p| count > 0 && count - rank(*p, count) >= 10)
}

/// Sort `samples` and summarise them; `None` for an empty set.
pub fn summarize(samples: &mut [f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    Some(Summary {
        count: samples.len(),
        p50: percentile(samples, 50.0),
        p99: percentile(samples, 99.0),
        top: highest_supported(samples.len()).map(|p| (p, percentile(samples, p))),
    })
}

/// Median of a non-empty set (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty set");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Interquartile mean: the mean of the middle half of a non-empty set, so
/// a few disturbed slices move it little while every value still counts.
pub fn iqm(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "interquartile mean of an empty set");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 4;
    let middle = &sorted[cut..sorted.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// p99 of each run of consecutive slices that together hold at least
/// `min` samples (a short tail joins the last run), and the median of
/// those p99s with the number of runs; `None` below `min` samples.
pub fn grouped_p99(slices: &[Vec<f64>], min: usize) -> Option<(f64, usize)> {
    let mut groups: Vec<Vec<f64>> = Vec::new();
    let mut current = Vec::new();
    for slice in slices {
        current.extend_from_slice(slice);
        if current.len() >= min {
            groups.push(std::mem::take(&mut current));
        }
    }
    match groups.last_mut() {
        Some(last) => last.extend(current),
        None => return None,
    }
    let p99s: Vec<f64> = groups
        .iter_mut()
        .map(|g| {
            g.sort_by(f64::total_cmp);
            percentile(g, 99.0)
        })
        .collect();
    Some((median(&p99s), p99s.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_reports_count_and_highest_supported_percentile() {
        let mut samples: Vec<f64> = (1..=1_000).map(f64::from).collect();
        let s = summarize(&mut samples).expect("non-empty");
        assert_eq!(s.count, 1_000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.p99, 990.0);
        // 1,000 samples: p99 leaves 10 beyond it, p99.9 only 1.
        assert_eq!(s.top, Some((99.0, 990.0)));

        let mut samples: Vec<f64> = (1..=10_000).map(f64::from).collect();
        let s = summarize(&mut samples).expect("non-empty");
        assert_eq!(s.top, Some((99.9, 9_990.0)));

        // 999 samples: p99 would leave 9.99 beyond it, so p90 is the top.
        assert_eq!(highest_supported(999), Some(90.0));
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(50.0));
    }

    #[test]
    fn percentile_is_nearest_rank_and_order_independent() {
        let mut samples = vec![5.0, 1.0, 4.0, 2.0, 3.0];
        let s = summarize(&mut samples).expect("non-empty");
        assert_eq!(s.p50, 3.0);
        assert_eq!(percentile(&samples, 0.0), 1.0);
        assert_eq!(percentile(&samples, 100.0), 5.0);
        assert!(summarize(&mut []).is_none());
    }

    #[test]
    fn iqm_drops_the_outer_quarters() {
        assert_eq!(iqm(&[100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0]), 3.5);
        assert_eq!(iqm(&[7.0]), 7.0);
    }

    #[test]
    fn grouped_p99_needs_enough_samples_per_group() {
        let slice = |v: f64| vec![v; 600];
        // Pairs of 600-sample slices form groups of 1,200; the odd slice
        // at the end joins the last group.
        let slices = vec![slice(1.0), slice(1.0), slice(2.0), slice(2.0), slice(3.0)];
        assert_eq!(grouped_p99(&slices, 1_000), Some((2.0, 2)));
        assert_eq!(grouped_p99(&slices[..1], 1_000), None);
        let one_spike = vec![vec![1.0; 1_000], vec![50.0; 1_000], vec![1.0; 1_000]];
        assert_eq!(grouped_p99(&one_spike, 1_000), Some((1.0, 3)));
    }

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
