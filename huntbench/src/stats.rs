//! Order statistics for repeated measurements, matching Python's
//! `statistics.median` and `statistics.quantiles(values, n=4)` (the default
//! "exclusive" method), so spreads printed here agree with the ones computed
//! over a set of runs.

/// The median; `None` for no values.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The mean of the middle half: the lowest and the highest quarter of the
/// values (rounded down) are dropped. Robust to a few extreme values, and
/// closer to the mean than the median is on a wide, flat middle. `None`
/// for no values.
pub fn interquartile_mean(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let cut = v.len() / 4;
    let middle = &v[cut..v.len() - cut];
    (!middle.is_empty()).then(|| middle.iter().sum::<f64>() / middle.len() as f64)
}

/// First and third quartile by the exclusive method; `None` for fewer
/// than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// The `p`-th percentile by nearest rank (the smallest value with at least
/// a share `p` of the values at or below it); `None` for no values.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let v = sorted(values);
    let rank = (p * v.len() as f64).ceil() as usize;
    v.get(rank.clamp(1, v.len().max(1)) - 1).copied()
}

/// Interquartile distance as a share of the median (0 when undefined).
pub fn relative_spread(values: &[f64]) -> f64 {
    match (quartiles(values), median(values)) {
        (Some((q1, q3)), Some(med)) if med != 0.0 => (q3 - q1) / med.abs(),
        _ => 0.0,
    }
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
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn interquartile_mean_drops_the_outer_quarters() {
        assert_eq!(interquartile_mean(&[]), None);
        assert_eq!(interquartile_mean(&[4.0, 2.0]), Some(3.0));
        let eight: Vec<f64> = (1..=8).rev().map(f64::from).collect();
        assert_eq!(interquartile_mean(&eight), Some(4.5));
        assert_eq!(interquartile_mean(&[1000.0, 2.0, 3.0, 1.0]), Some(2.5));
        // Nine values: two dropped at each end.
        let nine: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(interquartile_mean(&nine), Some(5.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn percentile_by_nearest_rank() {
        let ten: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(percentile(&ten, 0.9), Some(9.0));
        assert_eq!(percentile(&ten, 0.5), Some(5.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.9), Some(3.0));
        assert_eq!(percentile(&[7.0], 0.9), Some(7.0));
        assert_eq!(percentile(&[], 0.9), None);
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_spread(&ten) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[2.0, 2.0, 2.0]), 0.0);
        assert_eq!(relative_spread(&[0.0, 0.0]), 0.0);
    }
}
