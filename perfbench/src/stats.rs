//! Order statistics over timing samples.

/// Median (mean of the two middle values for an even count); 0 if empty.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest whole percentile that still leaves at least ten samples
/// above it, as (percentile, nearest-rank value). Below twenty samples no
/// percentile from the median up qualifies, and the maximum is returned
/// as p100.
pub fn tail(v: &mut [f64]) -> (u32, f64) {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    // Nearest rank r = ceil(p·n/100) must satisfy n − r ≥ 10.
    match (50..100u32).rev().find(|&p| n >= rank(p, n) + 10) {
        Some(p) => (p, v[rank(p, n) - 1]),
        None => (100, v.last().copied().unwrap_or(0.0)),
    }
}

fn rank(p: u32, n: usize) -> usize {
    ((p as usize * n).div_ceil(100)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&mut v), (90, 90.0));
        let mut v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&mut v), (75, 30.0));
        let mut v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&mut v), (50, 10.0));
        let mut v: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(tail(&mut v), (100, 12.0));
    }
}
