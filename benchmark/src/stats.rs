//! Order statistics over timing samples.

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (the mean of the middle pair for an even count); `None`
/// without samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The nearest-rank `p`-th percentile, or `None` unless at least ten
/// samples lie beyond it: with fewer, one outlier moves the tail.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if rank > n || n - rank < 10 {
        return None;
    }
    Some(v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand, 99.0), Some(990.0));
        assert_eq!(percentile(&thousand[..999], 99.0), None);
        assert_eq!(percentile(&thousand[..20], 50.0), Some(10.0));
        assert_eq!(percentile(&thousand[..19], 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }
}
