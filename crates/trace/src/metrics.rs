//! Named counters and histograms.
//!
//! `BTreeMap` keys keep iteration (and therefore rendering and equality)
//! deterministic, which the trace determinism test relies on.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::fmt::Write as _;

/// A log2-bucketed histogram of `u64` samples.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Histogram {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    /// `buckets[i]` counts samples with `bit_length(v) == i`, i.e. bucket 0
    /// holds v == 0, bucket i holds 2^(i-1) <= v < 2^i.
    pub buckets: [u64; 65],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: [0; 65],
        }
    }
}

impl Histogram {
    pub fn record(&mut self, v: u64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
        self.buckets[(64 - v.leading_zeros()) as usize] += 1;
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimate the `q`-quantile (`0.0 < q <= 1.0`) from the log2 buckets.
    ///
    /// The estimator finds the bucket holding the sample of rank
    /// `ceil(q * count)` and places the estimate at the midpoint of that
    /// sample's equal sub-range of the bucket, clamped to the observed
    /// `[min, max]`.  Integer arithmetic throughout, so the estimate is
    /// deterministic across platforms; the error is bounded by the bucket
    /// width (a factor of two).
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                // Bucket i holds [2^(i-1), 2^i) (bucket 0 holds only 0).
                let lo = if i == 0 { 0 } else { 1u64 << (i - 1) };
                let hi = if i == 0 {
                    0
                } else if i >= 64 {
                    u64::MAX
                } else {
                    (1u64 << i) - 1
                };
                // Midpoint of the (rank - seen)-th of n equal sub-ranges.
                let pos = rank - seen; // 1..=n
                let est = lo + (hi - lo) / n * (pos - 1) + (hi - lo) / (2 * n);
                return est.clamp(self.min, self.max);
            }
            seen += n;
        }
        self.max
    }

    /// Fold another histogram's samples into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (d, s) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *d += s;
        }
    }

    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    pub fn p95(&self) -> u64 {
        self.percentile(0.95)
    }

    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// Tail-of-the-tail quantile for resilience reporting: hedging and
    /// breakers are judged by what happens to the slowest 0.1%.
    pub fn p999(&self) -> u64 {
        self.percentile(0.999)
    }
}

/// Exact nearest-rank percentile of an ascending sample slice; `q` is in
/// per-mille (950 = p95). Returns 0 for an empty slice.
pub fn nearest_rank(sorted: &[u64], q_permille: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let n = sorted.len() as u64;
    let rank = (q_permille * n).div_ceil(1000).clamp(1, n);
    sorted[(rank - 1) as usize]
}

/// Exact percentiles over a retained sample set.
///
/// The log2-bucketed [`Histogram`] answers percentile queries only to
/// within a factor of two — its estimates are *upper bounds* on the true
/// quantile, which is too coarse to judge a "p99 within 2x of baseline"
/// SLO bound. `ExactPercentiles` keeps every sample, sorted, and answers
/// nearest-rank queries exactly. Memory is linear in the sample count.
///
/// Costs: a query is O(1); the set is built once, by
/// [`ExactPercentiles::from_samples`]'s one O(n log n) sort. A path that
/// must read one quantile between inserts keeps a [`StreamingPercentile`].
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ExactPercentiles {
    sorted: Vec<u64>,
}

impl ExactPercentiles {
    /// Build the set from unsorted samples with one sort.
    pub fn from_samples(mut samples: Vec<u64>) -> ExactPercentiles {
        samples.sort_unstable();
        ExactPercentiles { sorted: samples }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The samples, ascending.
    pub fn as_slice(&self) -> &[u64] {
        &self.sorted
    }

    /// Exact nearest-rank percentile; `q` in per-mille (990 = p99).
    pub fn percentile_permille(&self, q: u64) -> u64 {
        nearest_rank(&self.sorted, q)
    }

    pub fn p50(&self) -> u64 {
        self.percentile_permille(500)
    }

    pub fn p95(&self) -> u64 {
        self.percentile_permille(950)
    }

    pub fn p99(&self) -> u64 {
        self.percentile_permille(990)
    }

    pub fn p999(&self) -> u64 {
        self.percentile_permille(999)
    }

    pub fn max(&self) -> u64 {
        self.sorted.last().copied().unwrap_or(0)
    }

    /// How many samples are `<= bound` (SLO attainment numerator).
    pub fn count_at_most(&self, bound: u64) -> u64 {
        self.sorted.partition_point(|&x| x <= bound) as u64
    }
}

/// One exact nearest-rank quantile of a growing sample set, readable
/// after every insert: O(log n) [`StreamingPercentile::record`], O(1)
/// [`StreamingPercentile::value`]. Two heaps split the samples at rank
/// `ceil(q·n/1000)` — `low` holds the `rank` smallest with the answer on
/// top — so the value always equals [`nearest_rank`] over the sorted
/// samples recorded so far.
#[derive(Clone, Debug)]
pub struct StreamingPercentile {
    q_permille: u64,
    low: BinaryHeap<u64>,
    high: BinaryHeap<Reverse<u64>>,
}

impl StreamingPercentile {
    /// Track the `q_permille` quantile (950 = p95; 1..=1000).
    pub fn new(q_permille: u64) -> StreamingPercentile {
        debug_assert!((1..=1000).contains(&q_permille));
        StreamingPercentile {
            q_permille,
            low: BinaryHeap::new(),
            high: BinaryHeap::new(),
        }
    }

    pub fn record(&mut self, v: u64) {
        if self.low.peek().is_none_or(|&top| v <= top) {
            self.low.push(v);
        } else {
            self.high.push(Reverse(v));
        }
        // The rank grows by at most one per insert, so one move settles it.
        let n = self.len() as u64;
        let rank = (self.q_permille * n).div_ceil(1000).clamp(1, n) as usize;
        if self.low.len() > rank {
            let top = self.low.pop().expect("low is non-empty");
            self.high.push(Reverse(top));
        } else if self.low.len() < rank {
            let Reverse(least) = self.high.pop().expect("high holds the rest");
            self.low.push(least);
        }
    }

    pub fn len(&self) -> usize {
        self.low.len() + self.high.len()
    }

    pub fn is_empty(&self) -> bool {
        self.low.is_empty()
    }

    /// The tracked quantile of everything recorded; 0 when empty.
    pub fn value(&self) -> u64 {
        self.low.peek().copied().unwrap_or(0)
    }
}

/// A sampled time series: `(virtual time, value)` points appended in
/// non-decreasing time order by a fixed-cadence sampler.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct TimeSeries {
    pub points: Vec<(u64, u64)>,
}

impl TimeSeries {
    pub fn push(&mut self, t: u64, v: u64) {
        debug_assert!(self.points.last().is_none_or(|&(pt, _)| pt <= t));
        self.points.push((t, v));
    }

    pub fn len(&self) -> usize {
        self.points.len()
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    pub fn min(&self) -> u64 {
        self.points.iter().map(|&(_, v)| v).min().unwrap_or(0)
    }

    pub fn max(&self) -> u64 {
        self.points.iter().map(|&(_, v)| v).max().unwrap_or(0)
    }

    pub fn last(&self) -> u64 {
        self.points.last().map(|&(_, v)| v).unwrap_or(0)
    }
}

/// Deterministic registry of named counters, histograms and time series.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
    series: BTreeMap<String, TimeSeries>,
}

impl MetricsRegistry {
    /// Add `delta` to the counter `name`, creating it at zero if absent.
    pub fn add(&mut self, name: &str, delta: u64) {
        match self.counters.get_mut(name) {
            Some(c) => *c += delta,
            None => {
                self.counters.insert(name.to_string(), delta);
            }
        }
    }

    /// Set counter `name` to `value` (for one-shot aggregate snapshots).
    pub fn set(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_string(), value);
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Record one sample into the histogram `name`.
    pub fn record(&mut self, name: &str, v: u64) {
        match self.histograms.get_mut(name) {
            Some(h) => h.record(v),
            None => {
                let mut h = Histogram::default();
                h.record(v);
                self.histograms.insert(name.to_string(), h);
            }
        }
    }

    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Install a whole histogram under `name`, replacing any existing one.
    /// Used by snapshot restore to rebuild the registry exactly.
    pub fn set_histogram(&mut self, name: &str, h: Histogram) {
        self.histograms.insert(name.to_string(), h);
    }

    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Append one `(virtual time, value)` point to the series `name`.
    pub fn sample(&mut self, name: &str, t: u64, v: u64) {
        match self.series.get_mut(name) {
            Some(s) => s.push(t, v),
            None => {
                let mut s = TimeSeries::default();
                s.push(t, v);
                self.series.insert(name.to_string(), s);
            }
        }
    }

    pub fn time_series(&self, name: &str) -> Option<&TimeSeries> {
        self.series.get(name)
    }

    pub fn series(&self) -> impl Iterator<Item = (&str, &TimeSeries)> {
        self.series.iter().map(|(k, v)| (k.as_str(), v))
    }

    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty() && self.series.is_empty()
    }

    /// Fold another registry into this one (counters add, histogram samples
    /// merge, series points interleave by time — stable, so equal-time
    /// points keep self-before-other order).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, v) in &other.counters {
            self.add(k, *v);
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
        for (k, s) in &other.series {
            let dst = self.series.entry(k.clone()).or_default();
            dst.points.extend_from_slice(&s.points);
            dst.points.sort_by_key(|&(t, _)| t);
        }
    }

    /// Human-readable sorted dump. Histogram percentiles come from log2
    /// buckets and overestimate the true quantile by up to the bucket
    /// width (a factor of two), so they are printed as upper bounds
    /// (`p50<=`); exact figures need [`ExactPercentiles`].
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "{name:<40} {v:>14}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(
                out,
                "{:<40} n={} sum={} min={} mean={:.1} p50<={} p95<={} p99<={} max={}",
                name,
                h.count,
                h.sum,
                h.min,
                h.mean(),
                h.p50(),
                h.p95(),
                h.p99(),
                h.max
            );
        }
        for (name, s) in &self.series {
            let (t0, tn) = match (s.points.first(), s.points.last()) {
                (Some(&(t0, _)), Some(&(tn, _))) => (t0, tn),
                _ => (0, 0),
            };
            let _ = writeln!(
                out,
                "{:<40} series n={} span={}..{} min={} max={} last={}",
                name,
                s.len(),
                t0,
                tn,
                s.min(),
                s.max(),
                s.last()
            );
        }
        out
    }
}

/// Declare a struct of `u64` counters once; everything that walks its
/// counters is generated from that one list.
///
/// The struct derives `Clone, Copy, Debug, Default, PartialEq, Eq` and
/// keeps its typed fields, so a hot-path `stats.hits += 1` is a plain
/// add. It also gets `AddAssign` and `Sum` (the merge of per-core
/// stats), `to_array` / `from_array` (the counters as `[u64; LEN]` in
/// declaration order, which is also their order in a checkpoint) and,
/// when declared `as "prefix"`, `fill_metrics`, which sets one
/// [`MetricsRegistry`] counter `prefix.field` per field.
///
/// ```
/// hera_trace::counters! {
///     /// Lookup statistics.
///     pub struct LookupStats as "lookup" {
///         /// Lookups that found their key.
///         pub hits: u64,
///         /// Lookups that did not.
///         pub misses: u64,
///     }
/// }
/// let mut total: LookupStats = [LookupStats { hits: 1, misses: 2 }; 2].into_iter().sum();
/// total += LookupStats::from_array([3, 4]);
/// assert_eq!(total.to_array(), [5, 8]);
/// let mut reg = hera_trace::MetricsRegistry::default();
/// total.fill_metrics(&mut reg);
/// assert_eq!(reg.counter("lookup.misses"), 8);
/// ```
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident as $prefix:literal {
            $($(#[$fmeta:meta])* pub $field:ident: u64),* $(,)?
        }
    ) => {
        $crate::counters! {
            $(#[$meta])*
            $vis struct $name { $($(#[$fmeta])* pub $field: u64),* }
        }

        impl $name {
            /// Set one counter per field, named
            #[doc = concat!("`", $prefix, ".<field>`,")]
            /// on `reg`.
            pub fn fill_metrics(&self, reg: &mut $crate::MetricsRegistry) {
                $(reg.set(concat!($prefix, ".", stringify!($field)), self.$field);)*
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$fmeta:meta])* pub $field:ident: u64),* $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        $vis struct $name {
            $($(#[$fmeta])* pub $field: u64,)*
        }

        impl $name {
            /// Number of counters.
            pub const LEN: usize = [$(stringify!($field)),*].len();

            /// The counters in declaration order.
            pub fn to_array(self) -> [u64; Self::LEN] {
                [$(self.$field),*]
            }

            /// The inverse of `to_array`.
            pub fn from_array([$($field),*]: [u64; Self::LEN]) -> Self {
                $name { $($field),* }
            }
        }

        impl ::std::ops::AddAssign for $name {
            fn add_assign(&mut self, rhs: $name) {
                $(self.$field += rhs.$field;)*
            }
        }

        impl ::std::iter::Sum for $name {
            fn sum<I: Iterator<Item = $name>>(iter: I) -> $name {
                iter.fold($name::default(), |mut total, s| {
                    total += s;
                    total
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = MetricsRegistry::default();
        m.add("a", 2);
        m.add("a", 3);
        assert_eq!(m.counter("a"), 5);
        assert_eq!(m.counter("missing"), 0);
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let mut h = Histogram::default();
        h.record(0);
        h.record(1);
        h.record(7);
        h.record(8);
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 16);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 8);
        assert_eq!(h.buckets[0], 1); // 0
        assert_eq!(h.buckets[1], 1); // 1
        assert_eq!(h.buckets[3], 1); // 7 -> [4,8)
        assert_eq!(h.buckets[4], 1); // 8 -> [8,16)
    }

    #[test]
    fn merge_adds_counters_and_histograms() {
        let mut a = MetricsRegistry::default();
        a.add("c", 1);
        a.record("h", 4);
        let mut b = MetricsRegistry::default();
        b.add("c", 2);
        b.record("h", 16);
        a.merge(&b);
        assert_eq!(a.counter("c"), 3);
        let h = a.histogram("h").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.min, 4);
        assert_eq!(h.max, 16);
    }

    #[test]
    fn percentiles_on_empty_histogram_are_zero() {
        let h = Histogram::default();
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
    }

    #[test]
    fn percentiles_of_a_constant_stream_are_that_constant() {
        let mut h = Histogram::default();
        for _ in 0..100 {
            h.record(42);
        }
        // All samples in one bucket, clamped to [min, max] = [42, 42].
        assert_eq!(h.p50(), 42);
        assert_eq!(h.p95(), 42);
        assert_eq!(h.p99(), 42);
    }

    #[test]
    fn percentiles_are_monotone_and_bucket_accurate() {
        let mut h = Histogram::default();
        // 90 small samples, 9 mid, 1 huge: p50 must sit in the small
        // bucket, p95/p99 in the mid bucket, the 100th percentile at max.
        for _ in 0..90 {
            h.record(10); // bucket [8, 16)
        }
        for _ in 0..9 {
            h.record(1000); // bucket [512, 1024)
        }
        h.record(1_000_000); // bucket [2^19, 2^20)
        let (p50, p95, p99) = (h.p50(), h.p95(), h.p99());
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        assert!((8..16).contains(&p50), "p50={p50}");
        assert!((512..1024).contains(&p95), "p95={p95}");
        assert!((512..1024).contains(&p99), "p99={p99}");
        // Rank 100 lands in the tail bucket, within a factor of two of max.
        let p100 = h.percentile(1.0);
        assert!((524_288..=1_000_000).contains(&p100), "p100={p100}");
    }

    #[test]
    fn render_flags_histogram_percentiles_as_upper_bounds() {
        let mut m = MetricsRegistry::default();
        m.record("lat", 8);
        assert!(m.render().contains("p50<="));
        assert!(m.render().contains("p99<="));
    }

    #[test]
    fn nearest_rank_is_exact_on_small_sets() {
        assert_eq!(nearest_rank(&[], 500), 0);
        assert_eq!(nearest_rank(&[7], 500), 7);
        assert_eq!(nearest_rank(&[7], 999), 7);
        let v = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10];
        assert_eq!(nearest_rank(&v, 500), 5);
        assert_eq!(nearest_rank(&v, 950), 10);
        assert_eq!(nearest_rank(&v, 900), 9);
        assert_eq!(nearest_rank(&v, 100), 1);
    }

    #[test]
    fn exact_percentiles_match_nearest_rank_regardless_of_insert_order() {
        let e = ExactPercentiles::from_samples(vec![90, 10, 50, 70, 30, 20, 80, 40, 100, 60]);
        assert_eq!(e.as_slice(), &[10, 20, 30, 40, 50, 60, 70, 80, 90, 100]);
        assert_eq!(e.p50(), 50);
        assert_eq!(e.p95(), 100);
        assert_eq!(e.p99(), 100);
        assert_eq!(e.max(), 100);
        assert_eq!(e.count_at_most(55), 5);
        assert_eq!(e.count_at_most(5), 0);
        assert!(ExactPercentiles::from_samples(Vec::new()).is_empty());
    }

    #[test]
    fn exact_percentiles_are_exact_where_the_histogram_is_an_upper_bound() {
        // 99 fast samples and one straggler: the log2 histogram places
        // p50 somewhere in the [64, 128) bucket, the exact answer is 100.
        let mut h = Histogram::default();
        let mut samples = vec![100; 99];
        samples.push(1 << 20);
        for &v in &samples {
            h.record(v);
        }
        let e = ExactPercentiles::from_samples(samples);
        assert_eq!(e.p50(), 100);
        assert!(h.p50() >= e.p50(), "histogram p50 is an upper bound");
    }

    /// Random (with duplicates), ascending, descending and all-equal
    /// sample sequences, including n = 1.
    fn sample_sequences() -> Vec<Vec<u64>> {
        let mut rng = hera_rng::SplitMix64::new(0x7065_7263);
        let random: Vec<u64> = (0..700).map(|_| rng.next_below(300)).collect();
        let ascending: Vec<u64> = (0..500).collect();
        let descending: Vec<u64> = ascending.iter().rev().copied().collect();
        vec![random, ascending, descending, vec![9; 300], vec![42]]
    }

    #[test]
    fn streaming_percentile_equals_nearest_rank_after_every_insert() {
        for q in [500, 950, 990, 999] {
            for seq in sample_sequences() {
                let mut stream = StreamingPercentile::new(q);
                assert_eq!((stream.value(), stream.is_empty()), (0, true));
                let mut prefix = Vec::new();
                for &v in &seq {
                    stream.record(v);
                    prefix.push(v);
                    prefix.sort_unstable();
                    assert_eq!(stream.len(), prefix.len());
                    assert_eq!(
                        stream.value(),
                        nearest_rank(&prefix, q),
                        "q {q} after {} inserts",
                        prefix.len()
                    );
                }
            }
        }
    }

    #[test]
    fn series_render_and_merge_are_deterministic() {
        let mut m = MetricsRegistry::default();
        m.sample("fleet.q", 100, 3);
        m.sample("fleet.q", 200, 5);
        let mut o = MetricsRegistry::default();
        o.sample("fleet.q", 150, 4);
        m.merge(&o);
        let s = m.time_series("fleet.q").unwrap();
        assert_eq!(s.points, vec![(100, 3), (150, 4), (200, 5)]);
        assert_eq!(s.min(), 3);
        assert_eq!(s.max(), 5);
        assert_eq!(s.last(), 5);
        let r = m.render();
        assert!(
            r.contains("series n=3 span=100..200 min=3 max=5 last=5"),
            "{r}"
        );
        assert!(!m.is_empty());
    }

    #[test]
    fn render_is_sorted_and_stable() {
        let mut m = MetricsRegistry::default();
        m.add("zz", 1);
        m.add("aa", 2);
        let r = m.render();
        let za = r.find("zz").unwrap();
        let aa = r.find("aa").unwrap();
        assert!(aa < za);
        assert_eq!(r, m.render());
    }
}
