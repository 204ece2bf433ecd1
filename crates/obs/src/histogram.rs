//! Hand-rolled latency histograms, shared by the CLI's stage-timing
//! breakdown and `preinferd`'s `stats` verb.
//!
//! Latencies are recorded in microseconds into *log-linear* buckets:
//! values below 8 µs get one exact bucket each, and every power-of-two
//! octave `[2^h, 2^(h+1))` above that is split into 8 linear sub-buckets
//! of width `2^(h-3)`. That bounds the relative quantile error at 12.5%
//! (versus 2× for plain power-of-two buckets, which collapsed p50/p90/p99
//! to one shared bound under pipelined load) while staying lock-free on
//! the record path — the top octave `[2^45, 2^46)` µs caps the range at
//! about two years, far beyond any latency a serving tier can produce.
//!
//! High buckets additionally carry bounded *exemplar* slots: when a
//! sample belongs to a sampled request, `record_with_exemplar` remembers
//! the last `(trace_id, value)` per octave at or above 1.024 ms, and the
//! metrics registry renders those as Prometheus exemplars so a fat p99
//! bucket links directly to a retained distributed trace.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Linear sub-buckets per power-of-two octave (3 sub-bits).
const SUBS: usize = 8;

/// Highest octave: bucketed values top out at `2^(H_MAX+1) − 1` µs.
const H_MAX: usize = 45;

/// Number of buckets: 8 exact low buckets plus 8 per octave for
/// `h = 3..=H_MAX`.
pub const BUCKETS: usize = SUBS * (H_MAX - 1);

/// Octave floor for exemplar slots: only samples ≥ 2^10 µs (1.024 ms)
/// are worth linking to a trace.
const EXEMPLAR_MIN_OCTAVE: usize = 10;

/// Bounded exemplar storage: one slot per octave in
/// `EXEMPLAR_MIN_OCTAVE..=H_MAX`.
pub const EXEMPLAR_SLOTS: usize = H_MAX - EXEMPLAR_MIN_OCTAVE + 1;

/// A lock-free fixed-bucket latency histogram (microsecond samples).
#[derive(Debug)]
pub struct Histogram {
    counts: [AtomicU64; BUCKETS],
    sum_us: AtomicU64,
    /// Last exemplar per high octave; locked only on the (rare) sampled
    /// path and at scrape time, never on plain `record`.
    exemplars: Mutex<[Option<Exemplar>; EXEMPLAR_SLOTS]>,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_us: AtomicU64::new(0),
            exemplars: Mutex::new(std::array::from_fn(|_| None)),
        }
    }
}

fn bucket_of(us: u64) -> usize {
    if us < SUBS as u64 {
        return us as usize;
    }
    let h = (63 - us.leading_zeros()) as usize; // floor log2, >= 3
    if h > H_MAX {
        return BUCKETS - 1;
    }
    let sub = ((us >> (h - 3)) & (SUBS as u64 - 1)) as usize;
    SUBS * (h - 2) + sub
}

/// Upper bound (inclusive) of a bucket, in µs. The low buckets hold one
/// exact value each (`bound(k) = k`); sub-bucket `s` of octave `h` tops
/// out at `2^h + (s+1)·2^(h-3) − 1`.
fn bucket_bound(k: usize) -> u64 {
    if k < SUBS {
        return k as u64;
    }
    let h = k / SUBS + 2;
    let sub = (k % SUBS) as u64;
    (1u64 << h) + (sub + 1) * (1u64 << (h - 3)) - 1
}

/// Exemplar slot for a value, if it is high enough to carry one.
fn exemplar_slot(us: u64) -> Option<usize> {
    if us < (1u64 << EXEMPLAR_MIN_OCTAVE) {
        return None;
    }
    let h = ((63 - us.leading_zeros()) as usize).min(H_MAX);
    Some(h - EXEMPLAR_MIN_OCTAVE)
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one latency sample.
    pub fn record(&self, d: std::time::Duration) {
        let us = d.as_micros().min(u64::MAX as u128) as u64;
        self.counts[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Records one sample that belongs to a sampled request, remembering
    /// `(trace_id, value)` as the exemplar for the sample's octave if the
    /// sample is slow enough to have a slot. Last write wins — the slots
    /// are a bounded "most recent culprit" map, not a reservoir.
    pub fn record_with_exemplar(&self, d: std::time::Duration, trace_id: &str) {
        self.record(d);
        let us = d.as_micros().min(u64::MAX as u128) as u64;
        if let Some(slot) = exemplar_slot(us) {
            let ex =
                Exemplar { bucket: bucket_of(us), value_us: us, trace_id: trace_id.to_string() };
            self.exemplars.lock().expect("exemplar slots")[slot] = Some(ex);
        }
    }

    /// A point-in-time copy for exposition (buckets, sample sum, and the
    /// current exemplar per occupied high-octave slot).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let exemplars =
            self.exemplars.lock().expect("exemplar slots").iter().flatten().cloned().collect();
        HistogramSnapshot {
            buckets_us: std::array::from_fn(|k| {
                (bucket_bound(k), self.counts[k].load(Ordering::Relaxed))
            }),
            sum_us: self.sum_us.load(Ordering::Relaxed),
            exemplars,
        }
    }

    /// Adds every sample recorded in `other` into `self` (bucket-wise),
    /// and adopts `other`'s exemplars (the per-request sink's samples are
    /// newer than whatever a slot already holds). Used to fold a
    /// per-request sink's histograms back into a daemon aggregate once
    /// the request completes.
    pub fn merge_from(&self, other: &Histogram) {
        for (k, c) in other.counts.iter().enumerate() {
            let n = c.load(Ordering::Relaxed);
            if n > 0 {
                self.counts[k].fetch_add(n, Ordering::Relaxed);
            }
        }
        self.sum_us.fetch_add(other.sum_us.load(Ordering::Relaxed), Ordering::Relaxed);
        let theirs = other.exemplars.lock().expect("exemplar slots");
        let mut ours = self.exemplars.lock().expect("exemplar slots");
        for (slot, ex) in theirs.iter().enumerate() {
            if let Some(ex) = ex {
                ours[slot] = Some(ex.clone());
            }
        }
    }
}

/// The last sampled-request observation for one high bucket: enough to
/// render an OpenMetrics exemplar (`# {trace_id="..."} value`) that links
/// a latency bucket to a retained trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exemplar {
    /// Fine bucket index the sample landed in (its `le` line carries the
    /// exemplar).
    pub bucket: usize,
    /// The observed value, µs.
    pub value_us: u64,
    /// The distributed trace id of the request that produced it.
    pub trace_id: String,
}

/// A scrape-time copy of a [`Histogram`], consumed by the metrics
/// registry: rendered as buckets in `metrics` and summarized in `stats`.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// `(inclusive upper bound µs, count)` per bucket, in bucket order.
    pub buckets_us: [(u64, u64); BUCKETS],
    /// Sum of all recorded samples, µs.
    pub sum_us: u64,
    /// Current exemplars, at most one per high octave, bucket-ordered.
    pub exemplars: Vec<Exemplar>,
}

impl HistogramSnapshot {
    /// The one latency summary of these samples. The count is the bucket
    /// counts' sum, so the summary is self-consistent even when the copy
    /// raced a `record`.
    pub fn summary(&self) -> LatencySummary {
        let count = self.buckets_us.iter().map(|&(_, c)| c).sum();
        LatencySummary {
            count,
            total_us: self.sum_us,
            mean_us: self.sum_us.checked_div(count).unwrap_or(0),
            p50_us: self.quantile_us(count, 0.50),
            p90_us: self.quantile_us(count, 0.90),
            p99_us: self.quantile_us(count, 0.99),
        }
    }

    /// The `q`-quantile (`0 < q <= 1`) of `count` samples as the
    /// *inclusive* upper bound of the bucket containing that rank, in µs —
    /// so the reported quantile never exceeds every recorded sample. 0 with
    /// no samples.
    fn quantile_us(&self, count: u64, q: f64) -> u64 {
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        let bucket = self.buckets_us.iter().find(|&&(_, n)| {
            seen += n;
            seen >= rank
        });
        bucket.map_or(0, |&(bound, _)| bound)
    }
}

/// A latency summary: what `stats`, the `preinfer` stage footer and
/// `tables` report for a histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: u64,
    /// Sum of the samples, µs.
    pub total_us: u64,
    /// Mean sample, µs (0 with no samples).
    pub mean_us: u64,
    /// Quantiles, µs, each the inclusive upper bound of its bucket.
    pub p50_us: u64,
    pub p90_us: u64,
    pub p99_us: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn buckets_are_log_linear_ranges() {
        // Low values get exact buckets…
        for us in 0..8 {
            assert_eq!(bucket_of(us), us as usize);
            assert_eq!(bucket_bound(us as usize), us);
        }
        // …then 8 sub-buckets per octave, contiguous with the low region.
        assert_eq!(bucket_of(8), 8);
        assert_eq!(bucket_of(15), 15);
        assert_eq!(bucket_of(16), 16); // octave h=4 starts at bucket 16
                                       // 100 µs sits in octave h=6 (64..127), sub-bucket 4 (96..103).
        assert_eq!(bucket_bound(bucket_of(100)), 103);
        // 1023 µs is the top of octave h=9 — the bound is exact.
        assert_eq!(bucket_bound(bucket_of(1023)), 1023);
        assert_eq!(bucket_of(1024), bucket_of(1023) + 1);
        // 50 ms lands in a sub-bucket of octave h=15, not at the octave cap:
        // the log-linear split is what keeps distinct tail quantiles.
        assert_eq!(bucket_bound(bucket_of(50_000)), 53_247);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        // Bucket bounds are strictly increasing (sanity over the whole map).
        for k in 1..BUCKETS {
            assert!(bucket_bound(k) > bucket_bound(k - 1), "bound not monotone at {k}");
        }
        // Every value maps into the bucket whose bound covers it.
        for us in [0, 1, 7, 8, 100, 1023, 4096, 50_000, 1 << 20, (1 << 30) + 12345] {
            let k = bucket_of(us);
            assert!(us <= bucket_bound(k), "{us} above its bucket bound");
            assert!(k == 0 || us > bucket_bound(k - 1), "{us} below its bucket");
        }
    }

    #[test]
    fn quantiles_track_the_distribution() {
        let h = Histogram::new();
        // 90 fast samples (~100 µs), 10 slow (~50 ms).
        for _ in 0..90 {
            h.record(Duration::from_micros(100));
        }
        for _ in 0..10 {
            h.record(Duration::from_millis(50));
        }
        let s = h.snapshot().summary();
        assert_eq!(s.count, 100);
        assert_eq!(s.p50_us, 103, "p50 = {}", s.p50_us);
        assert_eq!(s.p90_us, 103, "p90 = {}", s.p90_us);
        assert_eq!(s.p99_us, 53_247, "p99 = {}", s.p99_us);
    }

    /// Regression for the saturated-tail bug: under 64-conn pipelined load
    /// every sample fell in one power-of-two bucket (32.8–65.5 ms), so
    /// p50/p90/p99/p999 all collapsed to the shared bound 65 535 µs. With
    /// log-linear sub-buckets a bimodal distribution inside that same
    /// octave reports distinct quantiles.
    #[test]
    fn bimodal_distribution_reports_distinct_quantiles() {
        let h = Histogram::new();
        // Both modes live inside the old 32 768..65 535 µs bucket.
        for _ in 0..90 {
            h.record(Duration::from_micros(35_000));
        }
        for _ in 0..10 {
            h.record(Duration::from_micros(60_000));
        }
        let LatencySummary { p50_us: p50, p99_us: p99, .. } = h.snapshot().summary();
        assert!(p50 < p99, "bimodal modes collapsed: p50 = {p50}, p99 = {p99}");
        assert!((35_000..36_864).contains(&p50), "p50 = {p50}");
        assert!((60_000..65_536).contains(&p99), "p99 = {p99}");
        // Neither quantile is a bucket-cap clamp.
        assert_ne!(p99, 65_535);
    }

    #[test]
    fn quantile_is_an_inclusive_bound() {
        // Regression: a constant 100 µs stream used to report p50 = 128 µs
        // — the bucket's *exclusive* bound, above every recorded sample.
        let h = Histogram::new();
        for _ in 0..100 {
            h.record(Duration::from_micros(100));
        }
        let s = h.snapshot().summary();
        assert_eq!((s.p50_us, s.p99_us), (103, 103));
        // Low buckets hold one exact value; their inclusive bound is it.
        let z = Histogram::new();
        z.record(Duration::ZERO);
        assert_eq!(z.snapshot().summary().p50_us, 0);
    }

    #[test]
    fn merge_from_adds_counts_and_sums() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(Duration::from_micros(100));
        b.record(Duration::from_micros(100));
        b.record(Duration::from_millis(50));
        a.merge_from(&b);
        let snap = a.snapshot();
        let s = snap.summary();
        assert_eq!((s.count, s.total_us), (3, 100 + 100 + 50_000));
        // The two 100 µs samples share a sub-bucket.
        assert!(snap.buckets_us.iter().any(|&(bound, c)| bound == 103 && c == 2));
    }

    #[test]
    fn exemplars_are_bounded_and_last_write_wins() {
        let h = Histogram::new();
        // Below the exemplar floor: recorded, but no slot.
        h.record_with_exemplar(Duration::from_micros(100), "tiny");
        assert!(h.snapshot().exemplars.is_empty());
        // Two samples in the same octave: the later one owns the slot.
        h.record_with_exemplar(Duration::from_millis(40), "first");
        h.record_with_exemplar(Duration::from_millis(50), "second");
        // A different octave gets its own slot.
        h.record_with_exemplar(Duration::from_millis(200), "slowest");
        let snap = h.snapshot();
        assert_eq!(snap.exemplars.len(), 2);
        let ids: Vec<&str> = snap.exemplars.iter().map(|e| e.trace_id.as_str()).collect();
        assert_eq!(ids, vec!["second", "slowest"]);
        for ex in &snap.exemplars {
            // The exemplar's bucket really contains its value.
            assert_eq!(ex.bucket, bucket_of(ex.value_us));
        }
        // merge_from adopts the per-request sink's exemplars.
        let agg = Histogram::new();
        agg.record_with_exemplar(Duration::from_millis(33), "stale");
        agg.merge_from(&h);
        let merged = agg.snapshot();
        assert!(merged.exemplars.iter().any(|e| e.trace_id == "second"));
        assert!(!merged.exemplars.iter().any(|e| e.trace_id == "stale"));
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let snap = Histogram::new().snapshot();
        assert_eq!(snap.summary(), LatencySummary::default());
        assert!(snap.exemplars.is_empty());
    }
}
