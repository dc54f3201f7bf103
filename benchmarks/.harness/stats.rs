//! Order statistics over host-time samples, and the FNV-1a digest the
//! determinism self-checks fold workload outputs into.

use std::fmt;

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` of the samples at or below it. Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// Samples strictly beyond the nearest-rank `p` percentile of `n` samples.
/// A tail percentile is only reported as supported when this is >= 10
/// (choosing-metrics §1), which for p90 means >= 100 rounds.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

fn rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of no samples");
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Sorts `v` ascending. Host times are never NaN.
pub fn sort(v: &mut [f64]) {
    v.sort_by(|a, b| a.partial_cmp(b).expect("host times are finite"));
}

/// Median (nearest-rank p50) of unsorted samples.
pub fn median(mut v: Vec<f64>) -> f64 {
    sort(&mut v);
    percentile(&v, 0.5)
}

/// Coefficient of variation (population standard deviation / mean), in %.
pub fn cv_pct(v: &[f64]) -> f64 {
    let mean = v.iter().sum::<f64>() / v.len() as f64;
    let var = v.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / v.len() as f64;
    100.0 * var.sqrt() / mean
}

/// Incremental FNV-1a (64-bit). Implements `fmt::Write`, so `write!(d,
/// "{x:?}")` digests exactly the bytes the rendering would hold without
/// allocating them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

impl fmt::Write for Digest {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write as _;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn p90_needs_a_hundred_rounds_for_ten_samples_beyond() {
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(samples_beyond(99, 0.9), 9);
        assert_eq!(samples_beyond(3, 0.9), 0);
        assert_eq!(samples_beyond(125, 0.9), 12);
    }

    #[test]
    fn cv_of_constant_samples_is_zero() {
        assert_eq!(cv_pct(&[4.0, 4.0, 4.0]), 0.0);
        assert!((cv_pct(&[9.0, 11.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn digest_matches_fnv_reference_vectors_and_streams() {
        let mut d = Digest::default();
        d.bytes(b"a");
        assert_eq!(d.0, 0xaf63_dc4c_8601_ec8c);
        let mut whole = Digest::default();
        whole.bytes(b"foobar");
        assert_eq!(whole.0, 0x8594_4171_f739_67e8);
        let mut parts = Digest::default();
        let tail = "bar";
        write!(parts, "foo{tail}").unwrap();
        assert_eq!(parts, whole);
    }
}
