//! Order statistics over a run's samples.

/// Sorted copy of `xs` (NaN-free input assumed; NaNs sort last).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// First quartile, median and third quartile, computed like Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method).
/// A single sample is its own quartiles; an empty input gives zeros.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let data = sorted(xs);
    let ld = data.len();
    match ld {
        0 => return [0.0; 3],
        1 => return [data[0]; 3],
        _ => {}
    }
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    out
}

pub fn median(xs: &[f64]) -> f64 {
    let data = sorted(xs);
    match data.len() {
        0 => 0.0,
        n if n % 2 == 1 => data[n / 2],
        n => (data[n / 2 - 1] + data[n / 2]) / 2.0,
    }
}

/// The highest percentile of `xs` that still has at least ten samples
/// above it: `(value, percentile, n)`. With ten samples or fewer no such
/// percentile exists and the median is returned at percentile 50.
pub fn tail(xs: &[f64]) -> (f64, f64, usize) {
    let data = sorted(xs);
    let n = data.len();
    if n <= 10 {
        return (median(xs), 50.0, n);
    }
    let i = n - 11;
    (data[i], 100.0 * i as f64 / (n - 1) as f64, n)
}

/// `a / b`, or 0 when `b` is 0 (a layer that saw no work).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
    }

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (0..41).map(f64::from).collect();
        let (v, p, n) = tail(&xs);
        assert_eq!((v, p, n), (30.0, 75.0, 41));
        assert_eq!(tail(&[1.0, 2.0, 3.0]), (2.0, 50.0, 3));
    }
}
