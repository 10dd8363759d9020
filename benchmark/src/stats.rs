//! Order statistics and means used by every metric.

/// Sort a sample ascending (NaN-free by construction: all inputs are
/// measured durations or counts).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in samples"));
    v
}

/// The `p`-quantile (0 ≤ p ≤ 1) of an ascending sample, by linear
/// interpolation between closest ranks. Empty input yields 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = p.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// Median of an unsorted sample.
pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 0.5)
}

/// Geometric mean; every id weighs equally, so an expensive query
/// cannot hide a cheap one. Empty input yields 0.
pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    (v.iter().map(|x| x.max(f64::MIN_POSITIVE).ln()).sum::<f64>() / v.len() as f64).exp()
}

/// First, second and third quartile as Python's
/// `statistics.quantiles(v, n=4)` computes them (exclusive method), so
/// the spreads printed here are the ones the driver sees. Needs two
/// values; fewer yield the single value three times.
pub fn quartiles(v: &[f64]) -> [f64; 3] {
    let s = sorted(v.to_vec());
    let n = s.len();
    if n < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return [x, x, x];
    }
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let m = n + 1;
        let j = ((i + 1) * m / 4).clamp(1, n - 1);
        let delta = ((i + 1) * m) as f64 - (j * 4) as f64;
        *q = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range as a share of the median.
pub fn iqr_share(v: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(v);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2
    }
}

/// A value measured once per block of the timed window: the reported
/// figure is the median block, and `(max − min) / median` over blocks
/// is printed beside it as the within-run noise.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BlockStat {
    pub value: f64,
    pub noise: f64,
}

pub fn block_stat(per_block: &[f64]) -> BlockStat {
    let s = sorted(per_block.to_vec());
    let value = percentile(&s, 0.5);
    let noise = match (s.first(), s.last()) {
        (Some(lo), Some(hi)) if value > 0.0 => (hi - lo) / value,
        _ => 0.0,
    };
    BlockStat { value, noise }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&s, 0.0), 10.0);
        assert_eq!(percentile(&s, 1.0), 40.0);
        assert_eq!(percentile(&s, 0.5), 25.0);
        assert!((percentile(&s, 0.95) - 38.5).abs() < 1e-9);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn p95_of_200_samples_leaves_ten_beyond() {
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        let p95 = percentile(&s, 0.95);
        assert_eq!(s.iter().filter(|&&x| x > p95).count(), 10);
    }

    #[test]
    fn median_ignores_order() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn geomean_weighs_ids_equally() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[8.0, 8.0, 8.0]) - 8.0).abs() < 1e-9);
        // Doubling the cheap id moves it as much as doubling the dear one.
        let a = geomean(&[2.0, 100.0]);
        let b = geomean(&[1.0, 200.0]);
        assert!((a - b).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), [0.5, 2.0, 3.5]);
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        assert_eq!(
            quartiles(&[10.0, 20.0, 30.0, 40.0, 50.0]),
            [15.0, 30.0, 45.0]
        );
        assert!((iqr_share(&v) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn block_stat_is_median_block_with_range_noise() {
        let b = block_stat(&[100.0, 104.0, 98.0, 102.0, 110.0]);
        assert_eq!(b.value, 102.0);
        assert!((b.noise - 12.0 / 102.0).abs() < 1e-9);
        assert_eq!(
            block_stat(&[]),
            BlockStat {
                value: 0.0,
                noise: 0.0
            }
        );
    }
}
