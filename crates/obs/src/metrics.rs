//! Labeled counters, gauges, and log-bucketed latency histograms.
//!
//! Every metric is keyed by name plus a sorted label set (e.g.
//! `("partition","2"), ("stream","3")`), mirroring the Prometheus data model
//! without any wire protocol. Histograms bucket by powers of two of
//! nanoseconds — 64 logical buckets cover the full `u64` range, stored
//! sparsely so high-cardinality per-queue histograms stay bounded — and
//! report interpolated p50/p95/p99/p999 plus the exact min/max. The
//! registry exposes the total populated-bucket footprint as the synthetic
//! `obs.histogram_buckets` gauge in every snapshot.

use std::cmp::Ordering;
use std::collections::BTreeMap;

use cronus_sim::SimNs;

use crate::json::Json;

/// A sorted `key=value` label set.
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LabelSet(Vec<(String, String)>);

impl LabelSet {
    /// An empty label set.
    pub fn empty() -> Self {
        LabelSet(Vec::new())
    }

    /// Builds a label set from `key=value` pairs (order-insensitive).
    pub fn from_pairs(pairs: &[(&str, &str)]) -> Self {
        let mut v: Vec<(String, String)> = pairs
            .iter()
            .map(|(k, val)| (k.to_string(), val.to_string()))
            .collect();
        v.sort();
        LabelSet(v)
    }

    /// The pairs, sorted by key.
    pub fn pairs(&self) -> &[(String, String)] {
        &self.0
    }

    fn to_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                .collect(),
        )
    }
}

/// Number of power-of-two buckets; covers every representable `u64` ns value.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A log-bucketed histogram of simulated durations.
///
/// Logical bucket `i` holds values whose floor(log2) is `i`, i.e. the
/// interval `[2^i, 2^(i+1))`, with bucket 0 also holding the value 0. Only
/// populated buckets are stored — as `(index, count)` pairs sorted by index —
/// so a typical latency distribution costs a handful of entries instead of a
/// fixed 64-slot array per label set.
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: Vec<(u8, u64)>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

/// Bucket index for a nanosecond value: floor(log2(v)), with 0 → bucket 0.
pub fn bucket_index(ns: u64) -> usize {
    if ns == 0 {
        0
    } else {
        63 - ns.leading_zeros() as usize
    }
}

/// Inclusive lower bound of bucket `i` (0 for bucket 0).
pub fn bucket_lower_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << i
    }
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&mut self, d: SimNs) {
        let ns = d.as_nanos();
        let idx = bucket_index(ns) as u8;
        match self.buckets.binary_search_by_key(&idx, |&(i, _)| i) {
            Ok(pos) => self.buckets[pos].1 += 1,
            Err(pos) => self.buckets.insert(pos, (idx, 1)),
        }
        self.count += 1;
        self.sum += ns as u128;
        self.min = self.min.min(ns);
        self.max = self.max.max(ns);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations in nanoseconds.
    pub fn sum_ns(&self) -> u128 {
        self.sum
    }

    /// Mean observation, zero if empty.
    pub fn mean(&self) -> SimNs {
        if self.count == 0 {
            SimNs::ZERO
        } else {
            SimNs::from_nanos((self.sum / self.count as u128) as u64)
        }
    }

    /// Smallest observation (exact), zero if empty.
    pub fn min(&self) -> SimNs {
        if self.count == 0 {
            SimNs::ZERO
        } else {
            SimNs::from_nanos(self.min)
        }
    }

    /// Largest observation (exact), zero if empty.
    pub fn max(&self) -> SimNs {
        SimNs::from_nanos(self.max)
    }

    /// Populated buckets as sorted `(bucket_index, count)` pairs.
    pub fn nonzero_buckets(&self) -> &[(u8, u64)] {
        &self.buckets
    }

    /// Estimated `q`-quantile (0 ≤ q ≤ 1), linearly interpolated within the
    /// containing bucket and clamped to the exact observed min/max.
    pub fn quantile(&self, q: f64) -> SimNs {
        if self.count == 0 {
            return SimNs::ZERO;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target observation, 1-based.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for &(idx, n) in &self.buckets {
            let i = idx as usize;
            if seen + n >= rank {
                let lo = bucket_lower_bound(i) as f64;
                let hi = if i >= 63 {
                    u64::MAX as f64
                } else {
                    (1u64 << (i + 1)) as f64
                };
                let frac = (rank - seen) as f64 / n as f64;
                let est = lo + (hi - lo) * frac;
                let est = est.min(self.max as f64).max(self.min as f64);
                return SimNs::from_nanos(est as u64);
            }
            seen += n;
        }
        SimNs::from_nanos(self.max)
    }

    /// Estimated number of observations strictly greater than `threshold`,
    /// counting whole buckets above it and linearly apportioning the bucket
    /// that straddles it. Used by the SLO layer's burn-rate computation.
    pub fn count_over(&self, threshold: SimNs) -> u64 {
        let t = threshold.as_nanos();
        if self.count == 0 || t >= self.max {
            return 0;
        }
        if t < self.min {
            return self.count;
        }
        let mut over = 0f64;
        for &(idx, n) in &self.buckets {
            let i = idx as usize;
            let lo = bucket_lower_bound(i);
            let hi = if i >= 63 {
                u64::MAX
            } else {
                (1u64 << (i + 1)) - 1
            };
            if lo > t {
                over += n as f64;
            } else if hi > t {
                let span = (hi - lo).max(1) as f64;
                over += n as f64 * ((hi - t) as f64 / span);
            }
        }
        (over.round() as u64).min(self.count)
    }

    /// Median.
    pub fn p50(&self) -> SimNs {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> SimNs {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> SimNs {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> SimNs {
        self.quantile(0.999)
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("count", Json::U64(self.count)),
            ("sum_ns", Json::F64(self.sum as f64)),
            ("mean_ns", Json::U64(self.mean().as_nanos())),
            ("min_ns", Json::U64(self.min().as_nanos())),
            ("p50_ns", Json::U64(self.p50().as_nanos())),
            ("p95_ns", Json::U64(self.p95().as_nanos())),
            ("p99_ns", Json::U64(self.p99().as_nanos())),
            ("p999_ns", Json::U64(self.p999().as_nanos())),
            ("max_ns", Json::U64(self.max().as_nanos())),
            ("buckets", Json::U64(self.buckets.len() as u64)),
        ])
    }
}

/// Default cap on distinct label sets per metric name. Request-scoped or
/// otherwise unbounded labels overflow into the [`overflow_labels`] series
/// instead of growing the registry without bound.
pub const DEFAULT_MAX_LABEL_SETS: usize = 64;

/// The label set that absorbs observations past the cardinality cap.
pub fn overflow_labels() -> LabelSet {
    LabelSet::from_pairs(&[("__overflow", "true")])
}

/// Handle to one counter series, resolved by [`MetricsRegistry::counter_id`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CounterId(u32);

/// Handle to one gauge series, resolved by [`MetricsRegistry::gauge_id`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct GaugeId(u32);

/// Handle to one histogram series, resolved by
/// [`MetricsRegistry::histogram_id`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct HistogramId(u32);

/// Where updates through one series id land.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Admission {
    /// Resolved but never written: the series does not exist yet (it is in
    /// no snapshot and does not count against the cap). The cap is applied
    /// on the first write, as it always was.
    Pending,
    /// The series exists.
    Live,
    /// The metric was at its cap on the first write: every write lands on
    /// the slot of the metric's `__overflow` series and counts as an
    /// overflow.
    Overflow(u32),
}

#[derive(Clone, Debug)]
struct Slot<V> {
    family: u32,
    admission: Admission,
    value: V,
}

/// All series of one metric name.
#[derive(Clone, Debug)]
struct Family {
    /// `(labels, slot)` sorted by labels.
    series: Vec<(LabelSet, u32)>,
    /// Series that exist (`Admission::Live`), the count the cap bounds.
    live: usize,
}

/// The series of one metric kind: values in an arena addressed by id, found
/// through a sorted `name -> labels` index so a lookup by borrowed name and
/// label pairs allocates nothing and a snapshot comes out in name-then-label
/// order.
#[derive(Clone, Debug, Default)]
struct SeriesTable<V> {
    slots: Vec<Slot<V>>,
    families: Vec<Family>,
    by_name: BTreeMap<String, u32>,
}

/// Orders a stored label set against borrowed, already sorted pairs.
fn cmp_pairs(stored: &LabelSet, pairs: &[(&str, &str)]) -> Ordering {
    stored
        .0
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .cmp(pairs.iter().copied())
}

impl<V: Default> SeriesTable<V> {
    /// Resolves `name{pairs}` to its slot, creating a pending one on first
    /// sight. Allocation-free when the series was resolved before and the
    /// pairs arrive sorted (as every call site writes them).
    fn resolve(&mut self, name: &str, pairs: &[(&str, &str)]) -> u32 {
        if pairs.is_sorted() {
            self.resolve_with(
                name,
                |l| cmp_pairs(l, pairs),
                || LabelSet::from_pairs(pairs),
            )
        } else {
            self.resolve_labels(name, LabelSet::from_pairs(pairs))
        }
    }

    fn resolve_labels(&mut self, name: &str, labels: LabelSet) -> u32 {
        self.resolve_with(name, |l| l.cmp(&labels), || labels.clone())
    }

    fn resolve_with(
        &mut self,
        name: &str,
        cmp: impl Fn(&LabelSet) -> Ordering,
        labels: impl FnOnce() -> LabelSet,
    ) -> u32 {
        let family = match self.by_name.get(name) {
            Some(&f) => f,
            None => {
                let f = self.families.len() as u32;
                self.families.push(Family {
                    series: Vec::new(),
                    live: 0,
                });
                self.by_name.insert(name.to_string(), f);
                f
            }
        };
        self.slot_in(family, cmp, labels)
    }

    /// The slot of the series of `family` that `cmp` finds, created pending
    /// (under `labels()`) when there is none yet.
    fn slot_in(
        &mut self,
        family: u32,
        cmp: impl Fn(&LabelSet) -> Ordering,
        labels: impl FnOnce() -> LabelSet,
    ) -> u32 {
        let series = &mut self.families[family as usize].series;
        match series.binary_search_by(|(l, _)| cmp(l)) {
            Ok(at) => series[at].1,
            Err(at) => {
                let slot = self.slots.len() as u32;
                series.insert(at, (labels(), slot));
                self.slots.push(Slot {
                    family,
                    admission: Admission::Pending,
                    value: V::default(),
                });
                slot
            }
        }
    }

    /// The value a write through `slot` lands on, applying the cardinality
    /// cap on a series' first write: an existing series or a metric under
    /// its cap keeps its own value, anything else is redirected to the
    /// `__overflow` series and bumps `label_overflow` on every write.
    fn admit(&mut self, slot: u32, cap: usize, label_overflow: &mut u64) -> &mut V {
        let target = match self.slots[slot as usize].admission {
            Admission::Live => slot,
            Admission::Overflow(to) => {
                *label_overflow += 1;
                to
            }
            Admission::Pending => {
                let family = self.slots[slot as usize].family;
                if self.families[family as usize].live < cap {
                    self.make_live(slot);
                    slot
                } else {
                    *label_overflow += 1;
                    let overflow = overflow_labels();
                    let to = self.slot_in(family, |l| l.cmp(&overflow), || overflow.clone());
                    if self.slots[to as usize].admission != Admission::Live {
                        self.make_live(to);
                    }
                    if to != slot {
                        self.slots[slot as usize].admission = Admission::Overflow(to);
                    }
                    to
                }
            }
        };
        &mut self.slots[target as usize].value
    }

    fn make_live(&mut self, slot: u32) {
        let s = &mut self.slots[slot as usize];
        s.admission = Admission::Live;
        self.families[s.family as usize].live += 1;
    }
}

impl<V> SeriesTable<V> {
    /// The existing series `name{labels}`.
    fn get(&self, name: &str, labels: &LabelSet) -> Option<&V> {
        let family = &self.families[*self.by_name.get(name)? as usize];
        let at = family
            .series
            .binary_search_by(|(l, _)| l.cmp(labels))
            .ok()?;
        let slot = &self.slots[family.series[at].1 as usize];
        (slot.admission == Admission::Live).then_some(&slot.value)
    }

    /// The existing series of `name`, sorted by labels.
    fn of_name(&self, name: &str) -> impl Iterator<Item = (&LabelSet, &V)> {
        self.by_name
            .get(name)
            .into_iter()
            .flat_map(|&f| self.of_family(f))
    }

    fn of_family(&self, family: u32) -> impl Iterator<Item = (&LabelSet, &V)> {
        self.families[family as usize]
            .series
            .iter()
            .map(|(l, slot)| (l, &self.slots[*slot as usize]))
            .filter(|(_, s)| s.admission == Admission::Live)
            .map(|(l, s)| (l, &s.value))
    }

    /// Every existing series, sorted by name then labels.
    fn iter(&self) -> impl Iterator<Item = (&str, &LabelSet, &V)> {
        self.by_name
            .iter()
            .flat_map(|(name, &f)| self.of_family(f).map(move |(l, v)| (name.as_str(), l, v)))
    }
}

/// The registry: all counters, gauges and histograms for one run.
///
/// Every series is addressed by an id ([`CounterId`], [`GaugeId`],
/// [`HistogramId`]). A site that updates the same series on every call
/// resolves the id once and updates through it; the string-keyed methods
/// resolve and then update through the same ids, so there is one store and
/// one set of rules (label cap, overflow accounting) whichever way an update
/// arrives.
#[derive(Clone, Debug)]
pub struct MetricsRegistry {
    counters: SeriesTable<u64>,
    gauges: SeriesTable<GaugeCell>,
    histograms: SeriesTable<Histogram>,
    max_label_sets: usize,
    label_overflow: u64,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry {
            counters: SeriesTable::default(),
            gauges: SeriesTable::default(),
            histograms: SeriesTable::default(),
            max_label_sets: DEFAULT_MAX_LABEL_SETS,
            label_overflow: 0,
        }
    }
}

#[derive(Clone, Debug, Default)]
struct GaugeCell {
    value: i64,
    max: i64,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Changes the per-metric label-set cap (mostly for tests).
    pub fn set_max_label_sets(&mut self, cap: usize) {
        self.max_label_sets = cap.max(1);
    }

    /// Observations redirected to an `__overflow` series so far.
    pub fn label_overflow(&self) -> u64 {
        self.label_overflow
    }

    /// Resolves the counter `name{pairs}`. Resolving creates nothing
    /// visible; the label cap is applied when the series is first written.
    pub fn counter_id(&mut self, name: &str, pairs: &[(&str, &str)]) -> CounterId {
        CounterId(self.counters.resolve(name, pairs))
    }

    /// Adds `delta` to a resolved counter.
    pub fn counter_bump(&mut self, id: CounterId, delta: u64) {
        *self
            .counters
            .admit(id.0, self.max_label_sets, &mut self.label_overflow) += delta;
    }

    /// Adds `delta` to the counter `name{labels}`.
    pub fn counter_add(&mut self, name: &str, labels: LabelSet, delta: u64) {
        let id = CounterId(self.counters.resolve_labels(name, labels));
        self.counter_bump(id, delta);
    }

    /// Current value of the counter `name{labels}` (zero if never touched).
    pub fn counter(&self, name: &str, labels: &LabelSet) -> u64 {
        self.counters.get(name, labels).copied().unwrap_or(0)
    }

    /// Sum of `name` across all label sets.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters.of_name(name).map(|(_, v)| v).sum()
    }

    /// Resolves the gauge `name{pairs}`; see [`MetricsRegistry::counter_id`].
    pub fn gauge_id(&mut self, name: &str, pairs: &[(&str, &str)]) -> GaugeId {
        GaugeId(self.gauges.resolve(name, pairs))
    }

    /// Sets a resolved gauge, tracking its high-water mark.
    pub fn gauge_store(&mut self, id: GaugeId, value: i64) {
        let cell = self
            .gauges
            .admit(id.0, self.max_label_sets, &mut self.label_overflow);
        cell.value = value;
        cell.max = cell.max.max(value);
    }

    /// Sets the gauge `name{labels}`, tracking its high-water mark.
    pub fn gauge_set(&mut self, name: &str, labels: LabelSet, value: i64) {
        let id = GaugeId(self.gauges.resolve_labels(name, labels));
        self.gauge_store(id, value);
    }

    /// Current value of a gauge (zero if never set).
    pub fn gauge(&self, name: &str, labels: &LabelSet) -> i64 {
        self.gauges.get(name, labels).map_or(0, |c| c.value)
    }

    /// High-water mark of a gauge (zero if never set).
    pub fn gauge_max(&self, name: &str, labels: &LabelSet) -> i64 {
        self.gauges.get(name, labels).map_or(0, |c| c.max)
    }

    /// Resolves the histogram `name{pairs}`; see
    /// [`MetricsRegistry::counter_id`].
    pub fn histogram_id(&mut self, name: &str, pairs: &[(&str, &str)]) -> HistogramId {
        HistogramId(self.histograms.resolve(name, pairs))
    }

    /// Records one duration into a resolved histogram.
    pub fn histogram_record(&mut self, id: HistogramId, d: SimNs) {
        self.histograms
            .admit(id.0, self.max_label_sets, &mut self.label_overflow)
            .observe(d);
    }

    /// Records one duration into the histogram `name{labels}`.
    pub fn observe(&mut self, name: &str, labels: LabelSet, d: SimNs) {
        let id = HistogramId(self.histograms.resolve_labels(name, labels));
        self.histogram_record(id, d);
    }

    /// The histogram `name{labels}`, if any observation was recorded.
    pub fn histogram(&self, name: &str, labels: &LabelSet) -> Option<&Histogram> {
        self.histograms.get(name, labels)
    }

    /// Iterates all histograms (name, labels, histogram).
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &LabelSet, &Histogram)> {
        self.histograms.iter()
    }

    /// Total populated (non-zero) buckets across every histogram series —
    /// the registry's histogram memory footprint, surfaced in snapshots as
    /// the synthetic `obs.histogram_buckets` gauge.
    pub fn histogram_buckets(&self) -> u64 {
        self.histograms
            .iter()
            .map(|(_, _, h)| h.nonzero_buckets().len() as u64)
            .sum()
    }

    /// Serializes the whole registry as a JSON snapshot. `meta` fields are
    /// placed at the top of the document (run name, simulated elapsed, …).
    pub fn snapshot_json(&self, meta: &[(&'static str, Json)]) -> String {
        let counters = self
            .counters
            .iter()
            .map(|(n, l, v)| {
                Json::obj([
                    ("name", Json::from(n)),
                    ("labels", l.to_json()),
                    ("value", Json::U64(*v)),
                ])
            })
            .collect();
        let mut gauges: Vec<Json> = self
            .gauges
            .iter()
            .map(|(n, l, c)| {
                Json::obj([
                    ("name", Json::from(n)),
                    ("labels", l.to_json()),
                    ("value", Json::I64(c.value)),
                    ("max", Json::I64(c.max)),
                ])
            })
            .collect();
        let bucket_footprint = self.histogram_buckets() as i64;
        gauges.push(Json::obj([
            ("name", Json::from("obs.histogram_buckets")),
            ("labels", LabelSet::empty().to_json()),
            ("value", Json::I64(bucket_footprint)),
            ("max", Json::I64(bucket_footprint)),
        ]));
        let histograms = self
            .histograms
            .iter()
            .map(|(n, l, h)| {
                let mut fields = vec![
                    ("name".to_string(), Json::Str(n.to_string())),
                    ("labels".to_string(), l.to_json()),
                ];
                if let Json::Obj(stat_fields) = h.to_json() {
                    fields.extend(stat_fields);
                }
                Json::Obj(fields)
            })
            .collect();
        let mut doc: Vec<(String, Json)> = meta
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect();
        doc.push(("label_overflow".to_string(), Json::U64(self.label_overflow)));
        doc.push(("counters".to_string(), Json::Arr(counters)));
        doc.push(("gauges".to_string(), Json::Arr(gauges)));
        doc.push(("histograms".to_string(), Json::Arr(histograms)));
        Json::Obj(doc).render()
    }
}

/// Shorthand for [`LabelSet::from_pairs`].
pub fn labels(pairs: &[(&str, &str)]) -> LabelSet {
    LabelSet::from_pairs(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::is_well_formed;

    fn ns(v: u64) -> SimNs {
        SimNs::from_nanos(v)
    }

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), 63);
        for i in 1..HISTOGRAM_BUCKETS {
            let lo = bucket_lower_bound(i);
            assert_eq!(bucket_index(lo), i, "lower bound lands in its bucket");
            assert_eq!(bucket_index(lo - 1), i - 1, "below the bound is previous");
        }
    }

    #[test]
    fn histogram_counts_and_extremes_are_exact() {
        let mut h = Histogram::default();
        for v in [100u64, 200, 300, 4_000, 50_000] {
            h.observe(ns(v));
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), ns(100));
        assert_eq!(h.max(), ns(50_000));
        assert_eq!(h.sum_ns(), 54_600);
        assert_eq!(h.mean(), ns(54_600 / 5));
    }

    #[test]
    fn quantiles_are_ordered_and_bounded() {
        let mut h = Histogram::default();
        for v in 1..=1000u64 {
            h.observe(ns(v * 17));
        }
        let (p50, p95, p99, max) = (h.p50(), h.p95(), h.p99(), h.max());
        assert!(p50 <= p95 && p95 <= p99 && p99 <= max);
        assert!(p50 >= h.min());
        // The median of 17..=17000 is ~8500; log-bucket resolution gives a
        // factor-of-two estimate at worst.
        let p50ns = p50.as_nanos();
        assert!(
            (4_250..=17_000).contains(&p50ns),
            "p50 ≈ median, got {p50ns}"
        );
    }

    #[test]
    fn quantile_of_single_observation_is_that_value() {
        let mut h = Histogram::default();
        h.observe(ns(777));
        assert_eq!(h.p50(), ns(777));
        assert_eq!(h.p99(), ns(777));
        assert_eq!(h.quantile(0.0), ns(777));
        assert_eq!(h.quantile(1.0), ns(777));
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), SimNs::ZERO);
        assert_eq!(h.min(), SimNs::ZERO);
        assert_eq!(h.max(), SimNs::ZERO);
    }

    #[test]
    fn sparse_buckets_track_only_populated_indices() {
        let mut h = Histogram::default();
        h.observe(ns(1)); // bucket 0
        h.observe(ns(1)); // bucket 0 again
        h.observe(ns(1 << 20)); // bucket 20
        h.observe(ns(u64::MAX)); // bucket 63
        assert_eq!(h.nonzero_buckets(), &[(0, 2), (20, 1), (63, 1)]);
        assert_eq!(h.count(), 4);
    }

    #[test]
    fn p999_sits_between_p99_and_max() {
        let mut h = Histogram::default();
        for v in 1..=10_000u64 {
            h.observe(ns(v));
        }
        assert!(h.p99() <= h.p999());
        assert!(h.p999() <= h.max());
        // The top permille of 1..=10000 starts near 9990.
        assert!(h.p999().as_nanos() >= 8_192, "p999 = {}", h.p999());
    }

    #[test]
    fn count_over_estimates_tail_fraction() {
        let mut h = Histogram::default();
        for v in 1..=1_000u64 {
            h.observe(ns(v));
        }
        assert_eq!(h.count_over(ns(2_000)), 0, "nothing above the max");
        assert_eq!(h.count_over(SimNs::ZERO), 1_000, "everything above zero");
        let over = h.count_over(ns(500));
        // Exactly 500 observations exceed 500ns; log-bucket apportioning is
        // approximate but must land in the right ballpark.
        assert!((300..=700).contains(&over), "count_over(500) = {over}");
    }

    #[test]
    fn registry_reports_histogram_bucket_footprint() {
        let mut m = MetricsRegistry::new();
        assert_eq!(m.histogram_buckets(), 0);
        m.observe("lat", labels(&[("q", "a")]), ns(10));
        m.observe("lat", labels(&[("q", "a")]), ns(11));
        m.observe("lat", labels(&[("q", "b")]), ns(1 << 30));
        assert_eq!(m.histogram_buckets(), 2, "one bucket per series here");
        let json = m.snapshot_json(&[]);
        assert!(json.contains("\"obs.histogram_buckets\""), "{json}");
        assert!(json.contains("\"p999_ns\""), "{json}");
    }

    #[test]
    fn counters_and_gauges_are_label_scoped() {
        let mut m = MetricsRegistry::new();
        let s1 = labels(&[("stream", "1")]);
        let s2 = labels(&[("stream", "2")]);
        m.counter_add("srpc.enqueued", s1.clone(), 3);
        m.counter_add("srpc.enqueued", s2.clone(), 4);
        assert_eq!(m.counter("srpc.enqueued", &s1), 3);
        assert_eq!(m.counter("srpc.enqueued", &s2), 4);
        assert_eq!(m.counter_total("srpc.enqueued"), 7);
        assert_eq!(m.counter("srpc.enqueued", &LabelSet::empty()), 0);

        m.gauge_set("ring.occupancy", s1.clone(), 5);
        m.gauge_set("ring.occupancy", s1.clone(), 2);
        assert_eq!(m.gauge("ring.occupancy", &s1), 2);
        assert_eq!(m.gauge_max("ring.occupancy", &s1), 5);
    }

    #[test]
    fn label_order_does_not_matter() {
        let a = labels(&[("partition", "2"), ("stream", "3")]);
        let b = labels(&[("stream", "3"), ("partition", "2")]);
        assert_eq!(a, b);
    }

    #[test]
    fn label_cardinality_overflows_into_one_series() {
        let mut m = MetricsRegistry::new();
        m.set_max_label_sets(4);
        for req in 0..100u64 {
            m.counter_add("per_req.bytes", labels(&[("req", &req.to_string())]), 1);
            m.observe("per_req.lat", labels(&[("req", &req.to_string())]), ns(req));
        }
        // Existing series keep accepting updates past the cap.
        m.counter_add("per_req.bytes", labels(&[("req", "0")]), 10);
        assert_eq!(m.counter("per_req.bytes", &labels(&[("req", "0")])), 11);
        assert_eq!(
            m.counters.of_name("per_req.bytes").count(),
            5,
            "4 + overflow"
        );
        assert_eq!(m.counter("per_req.bytes", &overflow_labels()), 96);
        assert_eq!(m.counter_total("per_req.bytes"), 110, "no observation lost");
        let h = m.histogram("per_req.lat", &overflow_labels()).unwrap();
        assert_eq!(h.count(), 96);
        assert_eq!(m.label_overflow(), 96 * 2);
        let json = m.snapshot_json(&[]);
        assert!(json.contains("\"label_overflow\":192"), "{json}");
        assert!(json.contains("__overflow"));
    }

    #[test]
    fn handle_resolved_past_the_cap_lands_on_the_overflow_series() {
        let mut m = MetricsRegistry::new();
        m.set_max_label_sets(2);
        // Resolved first, written last: resolving reserves nothing.
        let early = m.counter_id("calls", &[("stream", "9")]);
        m.counter_add("calls", labels(&[("stream", "1")]), 1);
        m.counter_add("calls", labels(&[("stream", "2")]), 1);
        let late = m.counter_id("calls", &[("stream", "3")]);
        m.counter_bump(late, 5);
        m.counter_bump(late, 5);
        m.counter_bump(early, 7);
        assert_eq!(m.counter("calls", &overflow_labels()), 17);
        assert_eq!(m.counter("calls", &labels(&[("stream", "3")])), 0);
        assert_eq!(m.counter("calls", &labels(&[("stream", "9")])), 0);
        assert_eq!(m.label_overflow(), 3, "every redirected write counts");
        // A series that existed before the cap was reached keeps its own
        // value through a handle resolved afterwards.
        let existing = m.counter_id("calls", &[("stream", "1")]);
        m.counter_bump(existing, 1);
        assert_eq!(m.counter("calls", &labels(&[("stream", "1")])), 2);
        assert_eq!(m.label_overflow(), 3);
        // Unsorted pairs resolve to the same series as sorted ones.
        let g = m.gauge_id("depth", &[("stream", "1"), ("lane", "0")]);
        assert_eq!(g, m.gauge_id("depth", &[("lane", "0"), ("stream", "1")]));
    }

    #[test]
    fn unlabeled_metrics_never_overflow() {
        let mut m = MetricsRegistry::new();
        m.set_max_label_sets(1);
        for _ in 0..10 {
            m.counter_add("plain", LabelSet::empty(), 1);
        }
        assert_eq!(m.counter("plain", &LabelSet::empty()), 10);
        assert_eq!(m.label_overflow(), 0);
    }

    #[test]
    fn snapshot_is_well_formed_json() {
        let mut m = MetricsRegistry::new();
        m.counter_add("faults", LabelSet::empty(), 2);
        m.gauge_set("occupancy", labels(&[("stream", "1")]), 9);
        m.observe("latency", labels(&[("device", "gpu")]), ns(12_345));
        let json = m.snapshot_json(&[
            ("run", Json::from("test")),
            ("elapsed_ns", Json::U64(1_000_000)),
        ]);
        assert!(is_well_formed(&json), "snapshot must parse: {json}");
        assert!(json.contains("\"run\":\"test\""));
        assert!(json.contains("\"p99_ns\""));
        assert!(json.contains("\"counters\""));
    }
}
