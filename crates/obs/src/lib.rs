//! Deterministic observability registry for the mrls workspace.
//!
//! Modelled on `mrls_core::timing`: collection is **off by default** and every
//! record call is gated on one relaxed atomic load, so instrumented hot paths
//! cost a single branch when disabled — no allocation, no map lookups, no
//! clock reads. When enabled, records accumulate in a **per-thread** store
//! that the owner (e.g. the serve service thread) drains with [`take`] and
//! folds into an owned cumulative [`Registry`].
//!
//! ## Determinism contract
//!
//! Counters, gauges, and histograms hold only **virtual-time or count valued**
//! data: same-seed, same-submission-order runs produce byte-identical
//! [`Snapshot`] JSON. Anything derived from the wall clock lives in the
//! separate `wall` namespace ([`observe_wall_us`]) which is explicitly
//! nondeterministic and excluded by [`Snapshot::deterministic`]. Snapshot JSON
//! is sorted (BTreeMap-backed) so rendering order never depends on insertion
//! order.
//!
//! Histograms use fixed log2 buckets: bucket 0 holds the value 0 and bucket
//! `k >= 1` holds values in `[2^(k-1), 2^k - 1]`, so bucket boundaries are a
//! pure function of the value — no configuration to drift between runs.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};

use serde::{Deserialize, Serialize};

pub mod blame;
pub mod chrome;
pub mod prometheus;
pub mod span;

static ENABLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    static STORE: std::cell::RefCell<Store> = std::cell::RefCell::new(Store::default());
}

#[derive(Default)]
struct Store {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, HistogramSnapshot>,
    wall: BTreeMap<&'static str, HistogramSnapshot>,
}

/// Turns collection on or off (process-wide; stores are per-thread).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// `true` iff collection is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Adds `v` to the named counter (saturating). One relaxed load when
/// disabled; the store update is kept out of line so instrumented hot loops
/// only inline the load and branch.
#[inline]
pub fn counter_add(name: &'static str, v: u64) {
    if enabled() {
        counter_add_slow(name, v);
    }
}

#[inline(never)]
fn counter_add_slow(name: &'static str, v: u64) {
    STORE.with(|s| {
        let mut store = s.borrow_mut();
        let slot = store.counters.entry(name).or_insert(0);
        *slot = slot.saturating_add(v);
    });
}

/// Sets the named gauge to `v` (last write wins).
#[inline]
pub fn gauge_set(name: &'static str, v: u64) {
    if enabled() {
        gauge_set_slow(name, v);
    }
}

#[inline(never)]
fn gauge_set_slow(name: &'static str, v: u64) {
    STORE.with(|s| {
        s.borrow_mut().gauges.insert(name, v);
    });
}

/// Records `v` into the named deterministic (count/virtual-time) histogram.
#[inline]
pub fn observe(name: &'static str, v: u64) {
    if enabled() {
        observe_slow(name, v);
    }
}

#[inline(never)]
fn observe_slow(name: &'static str, v: u64) {
    STORE.with(|s| {
        s.borrow_mut()
            .histograms
            .entry(name)
            .or_default()
            .observe(v);
    });
}

/// Records a wall-clock microsecond value into the nondeterministic `wall`
/// namespace. Excluded from [`Snapshot::deterministic`].
#[inline]
pub fn observe_wall_us(name: &'static str, us: u64) {
    if enabled() {
        observe_wall_us_slow(name, us);
    }
}

#[inline(never)]
fn observe_wall_us_slow(name: &'static str, us: u64) {
    STORE.with(|s| {
        s.borrow_mut().wall.entry(name).or_default().observe(us);
    });
}

/// Drains this thread's accumulated records into a [`Snapshot`], leaving the
/// store empty. Not gated: residue is drained even after collection stops.
pub fn take() -> Snapshot {
    STORE.with(|s| {
        let mut store = s.borrow_mut();
        Snapshot {
            counters: std::mem::take(&mut store.counters)
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            gauges: std::mem::take(&mut store.gauges)
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            histograms: std::mem::take(&mut store.histograms)
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            wall: std::mem::take(&mut store.wall)
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        }
    })
}

/// Log2 bucket index for `v`: 0 for 0, else `64 - v.leading_zeros()`, so
/// bucket `k >= 1` covers `[2^(k-1), 2^k - 1]` and the maximum index is 64.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `idx` (`u64::MAX` for the last bucket).
pub fn bucket_upper_bound(idx: usize) -> u64 {
    if idx == 0 {
        0
    } else if idx >= 64 {
        u64::MAX
    } else {
        (1u64 << idx) - 1
    }
}

/// Accumulated distribution with fixed log2 buckets. `buckets[i]` counts
/// observations whose [`bucket_index`] is `i`; trailing empty buckets are
/// never materialized, so the vector length is a pure function of the data.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Total number of observations (saturating).
    pub count: u64,
    /// Sum of observed values (saturating).
    pub sum: u64,
    /// Per-bucket observation counts, indexed by [`bucket_index`].
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Records one observation of `v`.
    pub fn observe(&mut self, v: u64) {
        let idx = bucket_index(v);
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] = self.buckets[idx].saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(v);
    }

    /// Folds `other` into `self` (element-wise saturating add).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (i, v) in other.buckets.iter().enumerate() {
            self.buckets[i] = self.buckets[i].saturating_add(*v);
        }
    }
}

/// A point-in-time view of all recorded metrics, sorted by name.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Monotone event counts (saturating adds).
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins instantaneous values.
    pub gauges: BTreeMap<String, u64>,
    /// Deterministic (count/virtual-time valued) distributions.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Wall-clock-valued distributions — explicitly nondeterministic.
    pub wall: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// `true` iff nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.wall.is_empty()
    }

    /// Folds `other` into `self`: counters and histograms add (saturating),
    /// gauges take `other`'s value (last write wins).
    pub fn merge(&mut self, other: &Snapshot) {
        for (k, v) in &other.counters {
            let slot = self.counters.entry(k.clone()).or_insert(0);
            *slot = slot.saturating_add(*v);
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
        for (k, h) in &other.wall {
            self.wall.entry(k.clone()).or_default().merge(h);
        }
    }

    /// Copy of this snapshot with the nondeterministic `wall` namespace
    /// cleared — the byte-comparable form pinned by the determinism tests.
    pub fn deterministic(&self) -> Snapshot {
        Snapshot {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            histograms: self.histograms.clone(),
            wall: BTreeMap::new(),
        }
    }

    /// Compact sorted JSON rendering (BTreeMap keys give a canonical order).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("snapshot serialization is infallible")
    }

    /// Parses a snapshot previously produced by [`Snapshot::to_json`].
    pub fn from_json(text: &str) -> Result<Snapshot, serde_json::Error> {
        serde_json::from_str(text)
    }

    /// Prometheus text-format rendering; see [`prometheus::render`].
    pub fn render_prometheus(&self) -> String {
        prometheus::render(self)
    }
}

/// Owned cumulative registry: the serve core absorbs per-round thread-local
/// deltas here so `QueryMetrics` sees totals since process start.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    snap: Snapshot,
}

impl Registry {
    /// Empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Folds a drained thread-local delta into the cumulative snapshot.
    pub fn absorb(&mut self, delta: Snapshot) {
        if !delta.is_empty() {
            self.snap.merge(&delta);
        }
    }

    /// Current cumulative snapshot.
    pub fn snapshot(&self) -> &Snapshot {
        &self.snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // One gating test (not several) because ENABLED is process-global and the
    // test harness runs tests concurrently; everything else operates on the
    // plain structs.
    #[test]
    fn collection_is_gated_accumulates_and_drains() {
        set_enabled(false);
        let _ = take();
        counter_add("c", 1);
        gauge_set("g", 2);
        observe("h", 3);
        observe_wall_us("w", 4);
        assert!(take().is_empty(), "disabled records are dropped");

        set_enabled(true);
        counter_add("c", 1);
        counter_add("c", 2);
        gauge_set("g", 7);
        gauge_set("g", 9);
        observe("h", 5);
        observe_wall_us("w", 11);
        set_enabled(false);
        let snap = take();
        assert_eq!(snap.counters.get("c"), Some(&3));
        assert_eq!(snap.gauges.get("g"), Some(&9));
        assert_eq!(snap.histograms.get("h").map(|h| h.count), Some(1));
        assert_eq!(snap.wall.get("w").map(|h| h.sum), Some(11));
        assert!(take().is_empty(), "take leaves the store empty");
    }

    #[test]
    fn bucket_boundaries_are_exact_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(u64::MAX), 64);
        for k in 1..64usize {
            let lo = 1u64 << (k - 1);
            let hi = (1u64 << k) - 1;
            assert_eq!(bucket_index(lo), k, "lower edge of bucket {k}");
            assert_eq!(bucket_index(hi), k, "upper edge of bucket {k}");
            assert_eq!(bucket_upper_bound(k), hi);
        }
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn histogram_observe_and_merge_saturate() {
        let mut h = HistogramSnapshot::default();
        h.observe(0);
        h.observe(1);
        h.observe(3);
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 4);
        assert_eq!(h.buckets, vec![1, 1, 1]);

        let mut big = HistogramSnapshot {
            count: u64::MAX - 1,
            sum: u64::MAX - 1,
            buckets: vec![u64::MAX],
        };
        big.observe(u64::MAX);
        assert_eq!(big.count, u64::MAX);
        assert_eq!(big.sum, u64::MAX);
        assert_eq!(big.buckets[0], u64::MAX, "bucket add saturates");
        assert_eq!(big.buckets[64], 1);

        let mut a = HistogramSnapshot {
            count: u64::MAX,
            sum: 10,
            buckets: vec![u64::MAX],
        };
        a.merge(&big);
        assert_eq!(a.count, u64::MAX);
        assert_eq!(a.buckets[0], u64::MAX);
        assert_eq!(a.buckets.len(), 65, "merge extends buckets");
    }

    #[test]
    fn snapshot_merge_and_deterministic_view() {
        let mut a = Snapshot::default();
        a.counters.insert("c".into(), u64::MAX);
        a.gauges.insert("g".into(), 1);
        let mut b = Snapshot::default();
        b.counters.insert("c".into(), 5);
        b.gauges.insert("g".into(), 2);
        b.wall.entry("w".into()).or_default().observe(9);
        a.merge(&b);
        assert_eq!(a.counters["c"], u64::MAX, "counter merge saturates");
        assert_eq!(a.gauges["g"], 2, "gauge merge is last-write-wins");
        assert_eq!(a.wall["w"].count, 1);
        let det = a.deterministic();
        assert!(det.wall.is_empty());
        assert_eq!(det.counters, a.counters);
    }

    #[test]
    fn snapshot_json_roundtrips() {
        let mut s = Snapshot::default();
        s.counters.insert("b".into(), 2);
        s.counters.insert("a".into(), 1);
        s.histograms.entry("h".into()).or_default().observe(42);
        let text = s.to_json();
        let back = Snapshot::from_json(&text).expect("roundtrip");
        assert_eq!(back, s);
        assert_eq!(back.to_json(), text, "rendering is canonical");
    }
}
