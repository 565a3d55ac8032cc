//! Order statistics shared by the workloads and the steadiness report.

/// The `p`-th percentile (0–100) of `values` by nearest rank. Returns NaN
/// for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them, so the steadiness report matches an external check.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld == 0 {
        return (f64::NAN, f64::NAN);
    }
    if ld == 1 {
        return (data[0], data[0]);
    }
    let n = 4usize;
    let m = ld + 1;
    let at = |i: usize| -> f64 {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
    };
    (at(1), at(3))
}

/// How many samples lie strictly above the `p`-th percentile: the guide
/// for whether a percentile is a tail (at least ten beyond it) or noise.
pub fn beyond(values: &[f64], p: f64) -> usize {
    let cut = percentile(values, p);
    values.iter().filter(|&&v| v > cut).count()
}

/// Samples per window for the `p`-th percentile: enough that ten lie
/// beyond it.
pub fn window_for(p: f64) -> usize {
    (10.0 / (1.0 - p / 100.0)).round() as usize
}

/// The `p`-th percentile of each consecutive window of `window_for(p)`
/// samples (in time order), and the median across windows. A burst of
/// outside interference then moves one window's tail, not the figure.
/// With fewer than two whole windows it is the plain percentile.
pub fn windowed_percentile(in_time_order: &[f64], p: f64) -> f64 {
    let w = window_for(p);
    if in_time_order.len() < 2 * w {
        return percentile(in_time_order, p);
    }
    let per: Vec<f64> = in_time_order.chunks_exact(w).map(|c| percentile(c, p)).collect();
    median(&per)
}

/// Completions per second: the median over consecutive windows of
/// `window` completions (instants in nanoseconds, ascending, after
/// `start_ns`). With fewer than two whole windows, the overall rate.
pub fn windowed_rate(start_ns: u64, end_ns: u64, done_ns: &[u64], window: usize) -> f64 {
    if done_ns.len() < 2 * window {
        return done_ns.len() as f64 / ((end_ns - start_ns) as f64 / 1e9);
    }
    let mut from = start_ns;
    let rates: Vec<f64> = done_ns
        .chunks_exact(window)
        .map(|c| {
            let to = c[c.len() - 1];
            let rate = c.len() as f64 / ((to - from) as f64 / 1e9);
            from = to;
            rate
        })
        .collect();
    median(&rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn windowed_figures_ignore_one_disturbed_window() {
        assert_eq!(window_for(99.0), 1_000);
        assert_eq!(window_for(95.0), 200);
        let mut v: Vec<f64> = (0..3_000).map(|i| (i % 1_000) as f64).collect();
        v[1_500] = 1e9; // one burst inside the second window
        assert_eq!(windowed_percentile(&v, 99.0), 989.0);
        let done: Vec<u64> = (1..=4_000u64).map(|i| i * 1_000_000).collect();
        assert!((windowed_rate(0, 4_000_000_000, &done, 1_000) - 1_000.0).abs() < 1e-9);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(median(&v), 50.5);
        assert_eq!(beyond(&v, 95.0), 5);
    }
}
