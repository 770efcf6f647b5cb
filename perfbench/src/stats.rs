//! The benchmark's own arithmetic: order statistics over repeated
//! samples and the growth ratio of a cost series.

/// Median of `values` (mean of the two middle values for an even count).
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First and third quartiles, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so the spreads this benchmark reports match the ones its acceptance
/// rule computes. `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let data = sorted(values);
    let n = data.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median: the steadiness
/// measure the benchmark is tuned against.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// The percentiles a tail timing may be reported at, highest first.
const TAIL_PERCENTILES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest of [`TAIL_PERCENTILES`] that leaves at least ten of
/// `count` samples beyond it, so a reported tail is never one or two
/// outliers. `None` when even the median has fewer than ten beyond it.
pub fn tail_percentile(count: usize) -> Option<f64> {
    TAIL_PERCENTILES.into_iter().find(|p| count as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-6)
}

/// Nearest-rank percentile `p` (0–100] of `values`. `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let data = sorted(values);
    if data.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * data.len() as f64).ceil() as usize;
    Some(data[rank.clamp(1, data.len()) - 1])
}

/// Wall time per completed op in the last quarter of a run over the
/// first quarter.
///
/// `points` are `(wall_ns, ops_completed)` samples taken at bucket
/// boundaries, in time order, starting from `(0, 0)`; `total` is the
/// run's op count. Wall time at an op count between two samples is
/// interpolated linearly. A run whose per-op cost is flat reads 1.0; one
/// whose per-op cost grows linearly with history (quadratic total) reads
/// about 7. `None` if the samples never reach `total` or a quarter took
/// no time.
pub fn growth_ratio(points: &[(f64, f64)], total: f64) -> Option<f64> {
    if total <= 0.0 {
        return None;
    }
    let wall_at = |ops: f64| -> Option<f64> {
        let mut prev = *points.first()?;
        for &p in points {
            if p.1 >= ops {
                if p.1 == prev.1 {
                    return Some(p.0);
                }
                let frac = (ops - prev.1) / (p.1 - prev.1);
                return Some(prev.0 + frac * (p.0 - prev.0));
            }
            prev = p;
        }
        None
    };
    let first = wall_at(total / 4.0)? - wall_at(0.0)?;
    let last = wall_at(total)? - wall_at(total * 3.0 / 4.0)?;
    (first > 0.0).then(|| last / first)
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
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_spread(&ten).unwrap() - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
    }

    #[test]
    fn nearest_rank_percentile() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 50.0), Some(50.0));
        assert_eq!(percentile(&hundred, 99.0), Some(99.0));
        assert_eq!(percentile(&hundred, 100.0), Some(100.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    /// Bucket samples every `step` ops of a run whose op `i` costs
    /// `cost(i)` nanoseconds.
    fn series(total: usize, step: usize, cost: impl Fn(usize) -> f64) -> Vec<(f64, f64)> {
        let mut points = vec![(0.0, 0.0)];
        let mut wall = 0.0;
        for i in 0..total {
            wall += cost(i);
            if (i + 1) % step == 0 {
                points.push((wall, (i + 1) as f64));
            }
        }
        points
    }

    #[test]
    fn growth_ratio_separates_linear_from_quadratic_runs() {
        let flat = series(4_000, 100, |_| 250.0);
        assert!((growth_ratio(&flat, 4_000.0).unwrap() - 1.0).abs() < 1e-9);
        // Op i costs i: total time is quadratic in the op count, and the
        // last quarter's mean cost over the first quarter's is 7/8 / 1/8.
        let quadratic = series(4_000, 100, |i| i as f64);
        assert!((growth_ratio(&quadratic, 4_000.0).unwrap() - 7.0).abs() < 0.01);
    }

    #[test]
    fn growth_ratio_ignores_idle_tail_and_interpolates() {
        // Buckets after the last op (idle timers up to the horizon) must
        // not count against the last quarter.
        let mut points = series(1_000, 50, |_| 10.0);
        let end = points.last().unwrap().0;
        points.push((end + 1e6, 1_000.0));
        assert!((growth_ratio(&points, 1_000.0).unwrap() - 1.0).abs() < 1e-9);
        // Quarters that fall between bucket boundaries.
        let coarse = series(1_000, 300, |_| 10.0);
        assert_eq!(growth_ratio(&coarse, 1_000.0), None, "samples never reach the total");
        let mut coarse = coarse;
        coarse.push((10_000.0, 1_000.0));
        assert!((growth_ratio(&coarse, 1_000.0).unwrap() - 1.0).abs() < 1e-9);
    }
}
