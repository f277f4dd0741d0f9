//! The benchmark's own arithmetic: order statistics, the tail rule,
//! and the paired baseline/adaptive comparisons.

/// Median of `values` (mean of the middle two for an even count);
/// `None` when empty. NaNs sort last and so never become the median of
/// a sample that has finite values in its lower half.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let v = sorted(values);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The three quartile cut points, computed exactly like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method), so spreads printed here match the acceptance arithmetic.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let v = sorted(values);
    let m = n as i64 + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3i64) {
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        let delta = i * m - j * 4;
        let (lo, hi) = (v[j as usize - 1], v[j as usize]);
        *slot = (lo * (4 - delta) as f64 + hi * delta as f64) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median (`(q3 − q1) / q2`).
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// Candidate tail percentiles, highest first.
const TAIL_PERCENTILES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest candidate percentile that still has at least ten
/// samples beyond it, with its value (nearest-rank). `None` when even
/// the median has fewer than ten samples above it (n < 20).
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    TAIL_PERCENTILES.iter().find_map(|&p| {
        let beyond = n as f64 * (1.0 - p / 100.0);
        (beyond >= 10.0 - 1e-9).then(|| (p, percentile(&v, p)))
    })
}

/// Nearest-rank percentile of an already sorted sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// One baseline/adaptive pair's two comparisons, in percent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairDelta {
    /// `1 − p95_adaptive / p95_baseline`, as a percentage.
    pub g2g_p95_reduction_pct: f64,
    /// `ssim_adaptive / ssim_baseline − 1`, as a percentage.
    pub ssim_gain_pct: f64,
}

impl PairDelta {
    /// Compares one pair from its two p95 latencies and mean SSIMs.
    pub fn new(p95_base: f64, p95_adpt: f64, ssim_base: f64, ssim_adpt: f64) -> PairDelta {
        PairDelta {
            g2g_p95_reduction_pct: (1.0 - p95_adpt / p95_base) * 100.0,
            ssim_gain_pct: (ssim_adpt / ssim_base - 1.0) * 100.0,
        }
    }
}

/// Medians over pairs of the two paper metrics:
/// `(g2g_p95_reduction_pct, ssim_gain_pct)`. Pairs whose baseline has
/// no finite positive p95 or SSIM are skipped (they carry no ratio).
pub fn paired_medians(pairs: &[PairDelta]) -> Option<(f64, f64)> {
    let ok: Vec<&PairDelta> = pairs
        .iter()
        .filter(|d| d.g2g_p95_reduction_pct.is_finite() && d.ssim_gain_pct.is_finite())
        .collect();
    let red: Vec<f64> = ok.iter().map(|d| d.g2g_p95_reduction_pct).collect();
    let gain: Vec<f64> = ok.iter().map(|d| d.ssim_gain_pct).collect();
    Some((median(&red)?, median(&gain)?))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some([1.5, 3.0, 4.5]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        let share = iqr_share(&ten).unwrap();
        assert!((share - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // 1000 samples: 1 beyond p99.9 (too few), 10 beyond p99.
        assert_eq!(tail(&v), Some((99.0, 990.0)));
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&v), Some((95.0, 190.0)));
        let v: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(tail(&v).map(|t| t.0), Some(90.0));
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&v), Some((75.0, 30.0)));
        assert_eq!(tail(&[1.0; 19]), None);
        assert_eq!(tail(&[1.0; 20]).map(|t| t.0), Some(50.0));
    }

    #[test]
    fn paired_reduction_and_gain_against_hand_fixture() {
        // Pair 1: p95 400 → 100 ms (75 % cut), SSIM 0.90 → 0.918 (+2 %).
        // Pair 2: p95 200 → 150 ms (25 % cut), SSIM 0.80 → 0.808 (+1 %).
        // Pair 3: p95 100 →  50 ms (50 % cut), SSIM 0.95 → 0.9405 (−1 %).
        let pairs = [
            PairDelta::new(400.0, 100.0, 0.90, 0.918),
            PairDelta::new(200.0, 150.0, 0.80, 0.808),
            PairDelta::new(100.0, 50.0, 0.95, 0.9405),
        ];
        assert!((pairs[0].g2g_p95_reduction_pct - 75.0).abs() < 1e-9);
        assert!((pairs[2].ssim_gain_pct + 1.0).abs() < 1e-9);
        let (red, gain) = paired_medians(&pairs).unwrap();
        assert!((red - 50.0).abs() < 1e-9);
        assert!((gain - 1.0).abs() < 1e-9);
        // A pair without a usable baseline is skipped, not averaged in.
        let mut with_bad = pairs.to_vec();
        with_bad.push(PairDelta::new(0.0, 10.0, 0.0, 0.5));
        assert_eq!(paired_medians(&with_bad), Some((red, gain)));
        assert_eq!(paired_medians(&[]), None);
    }
}
