//! Exact latency accounting: integer histograms with nearest-rank
//! percentiles, and the mergeable per-run [`LoadReport`].
//!
//! Latencies are virtual milliseconds (`u64`), so the histogram is a
//! sparse count map with no binning error: merging two shard histograms
//! is plain count addition, and every percentile of the merged histogram
//! equals the percentile of the concatenated samples. That is what makes
//! a sharded 1M-op run byte-identical to the serial one at any `--jobs`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A sparse integer histogram: exact counts per observed value.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    counts: BTreeMap<u64, u64>,
    total: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        *self.counts.entry(v).or_insert(0) += 1;
        self.total += 1;
    }

    /// Number of recorded samples.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Adds every count of `other` into `self` (shard merge).
    pub fn merge(&mut self, other: &Histogram) {
        for (&v, &n) in &other.counts {
            *self.counts.entry(v).or_insert(0) += n;
        }
        self.total += other.total;
    }

    /// The exact nearest-rank percentile `num/den` (e.g. `p99` is
    /// `percentile(99, 100)`): the smallest recorded value whose
    /// cumulative count reaches `ceil(total * num / den)`. `None` on an
    /// empty histogram.
    pub fn percentile(&self, num: u64, den: u64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let rank = (self.total * num).div_ceil(den).max(1);
        let mut seen = 0;
        for (&v, &n) in &self.counts {
            seen += n;
            if seen >= rank {
                return Some(v);
            }
        }
        self.counts.keys().next_back().copied()
    }

    /// Median (nearest rank).
    pub fn p50(&self) -> Option<u64> {
        self.percentile(50, 100)
    }

    /// 99th percentile (nearest rank).
    pub fn p99(&self) -> Option<u64> {
        self.percentile(99, 100)
    }

    /// 99.9th percentile (nearest rank).
    pub fn p999(&self) -> Option<u64> {
        self.percentile(999, 1000)
    }

    /// Largest recorded value.
    pub fn max(&self) -> Option<u64> {
        self.counts.keys().next_back().copied()
    }
}

/// Per-run load accounting: issue/outcome counts, schedule lag, and the
/// latency histogram. Reports from independent shards [`merge`] into the
/// same report a serial run would produce.
///
/// [`merge`]: LoadReport::merge
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// Operations issued.
    pub issued: u64,
    /// Operations completed (any outcome).
    pub completed: u64,
    /// Completed with `Ok`.
    pub ok: u64,
    /// Completed with an explicit failure answer.
    pub failed: u64,
    /// Completed by client timeout (outcome unknown).
    pub timed_out: u64,
    /// Operations issued after their scheduled arrival (open-loop backlog).
    pub behind: u64,
    /// Largest issue-time lag behind the schedule, virtual ms.
    pub max_lag: u64,
    /// Completion latency (completion minus *scheduled* arrival, so queue
    /// wait counts), virtual ms.
    pub latency: Histogram,
}

impl LoadReport {
    /// Adds the counts of `other` (shard merge).
    pub fn merge(&mut self, other: &LoadReport) {
        self.issued += other.issued;
        self.completed += other.completed;
        self.ok += other.ok;
        self.failed += other.failed;
        self.timed_out += other.timed_out;
        self.behind += other.behind;
        self.max_lag = self.max_lag.max(other.max_lag);
        self.latency.merge(&other.latency);
    }

    /// One-line deterministic rendering, stable across shardings.
    pub fn render(&self) -> String {
        let p = |v: Option<u64>| match v {
            Some(v) => v.to_string(),
            None => "-".to_string(),
        };
        let mut out = String::new();
        let _ = write!(
            out,
            "issued={} ok={} fail={} timeout={} behind={} max-lag={} \
             p50={} p99={} p999={} max={}",
            self.issued,
            self.ok,
            self.failed,
            self.timed_out,
            self.behind,
            self.max_lag,
            p(self.latency.p50()),
            p(self.latency.p99()),
            p(self.latency.p999()),
            p(self.latency.max()),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank_exact() {
        let mut h = Histogram::new();
        for v in 1..=100 {
            h.record(v);
        }
        assert_eq!(h.p50(), Some(50));
        assert_eq!(h.p99(), Some(99));
        assert_eq!(h.p999(), Some(100));
        assert_eq!(h.max(), Some(100));
        assert_eq!(h.percentile(1, 100), Some(1));
    }

    #[test]
    fn empty_histogram_has_no_percentiles() {
        let h = Histogram::new();
        assert_eq!(h.p50(), None);
        assert_eq!(h.max(), None);
    }

    #[test]
    fn merge_equals_concatenation() {
        let mut all = Histogram::new();
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in 0..1000u64 {
            all.record(v * 7 % 113);
            if v % 2 == 0 {
                a.record(v * 7 % 113);
            } else {
                b.record(v * 7 % 113);
            }
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged, all);
        assert_eq!(merged.p999(), all.p999());
    }

    #[test]
    fn report_merge_and_render_are_stable() {
        let mut a = LoadReport {
            issued: 3,
            completed: 3,
            ok: 2,
            timed_out: 1,
            ..LoadReport::default()
        };
        a.latency.record(5);
        a.latency.record(7);
        let mut b = LoadReport {
            issued: 1,
            completed: 1,
            failed: 1,
            max_lag: 9,
            ..LoadReport::default()
        };
        b.latency.record(11);
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.issued, 4);
        assert_eq!(m.max_lag, 9);
        assert_eq!(
            m.render(),
            "issued=4 ok=2 fail=1 timeout=1 behind=0 max-lag=9 p50=7 p99=11 p999=11 max=11"
        );
    }

    #[test]
    fn empty_report_renders_dashes() {
        assert_eq!(
            LoadReport::default().render(),
            "issued=0 ok=0 fail=0 timeout=0 behind=0 max-lag=0 p50=- p99=- p999=- max=-"
        );
    }
}
