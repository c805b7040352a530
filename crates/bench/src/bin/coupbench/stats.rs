//! Estimators: median, quartiles as the contract's driver computes them,
//! and a percentile helper that refuses quantiles it cannot support.

/// Median of `values` (sorts in place). `NaN`-free input assumed.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Median of integer samples, as `f64`.
pub fn median_u64(values: &[u64]) -> f64 {
    let mut floats: Vec<f64> = values.iter().map(|&v| v as f64).collect();
    median(&mut floats)
}

/// `(q1, q2, q3)` exactly as Python's `statistics.quantiles(values, n=4)`
/// (the default "exclusive" method) — what the contract's driver uses to
/// judge spread, so `calibrate` reports the same figure.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// The `q`-quantile (nearest rank) of ascending `sorted`, or `None` when
/// fewer than ten samples lie beyond it — a p99 of 500 samples rests on five
/// observations and is not reported.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    assert!((0.0..1.0).contains(&q), "quantile out of range");
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "unsorted input");
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if rank > n || n - rank < 10 {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of nothing");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}
