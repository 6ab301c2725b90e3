//! Process-wide metrics: named monotone counters and gauges.
//!
//! Each counter has one home, a cell in the registry. A [`Counter`] is a
//! handle on that cell whose only mutator adds, so counters only ever
//! increase by construction. A component that counts on a hot path takes
//! its handles once, when it is built, and then pays one atomic add per
//! increment — no lock, no key to format. [`MetricsRegistry::inc`] adds
//! to the same cell by name. Gauges are last-write-wins.
//!
//! A [`MetricsRegistry::render`] snapshot is a sorted, byte-stable text
//! table, so experiment output and tests can pin it the same way they pin
//! `LinkMetrics` — nothing here ever records wall-clock time. Snapshots
//! list only counters above zero: a handle that never counted is not
//! shown, exactly as if its name had never been incremented.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Handle on one named counter of a [`MetricsRegistry`]. Clones share the
/// cell; the only mutator adds.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    fn starting_at(value: u64) -> Counter {
        Counter(Arc::new(AtomicU64::new(value)))
    }

    /// Add `by` to the counter.
    pub fn add(&self, by: u64) {
        self.0.fetch_add(by, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Registry of named monotone counters and last-write-wins gauges.
///
/// A lock poisoned by a panicking holder is taken over as is: every
/// mutation is one map operation or one atomic add, so the map is never
/// left half-updated.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, i64>>,
}

impl MetricsRegistry {
    /// The one cell behind the named counter, created at zero on first
    /// use. [`inc`](Self::inc) on the same name adds to the same cell.
    pub fn counter_handle(&self, name: &str) -> Counter {
        let mut counters = self.counters.lock().unwrap_or_else(PoisonError::into_inner);
        counters.entry(name.to_string()).or_insert_with(|| Counter::starting_at(0)).clone()
    }

    /// Add `by` to the named counter (creating it at zero first).
    pub fn inc(&self, name: &str, by: u64) {
        let mut counters = self.counters.lock().unwrap_or_else(PoisonError::into_inner);
        match counters.get(name) {
            Some(cell) => cell.add(by),
            None => {
                counters.insert(name.to_string(), Counter::starting_at(by));
            }
        }
    }

    /// Current value of a counter (zero when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        let counters = self.counters.lock().unwrap_or_else(PoisonError::into_inner);
        counters.get(name).map_or(0, Counter::get)
    }

    /// Set a gauge to an absolute value.
    pub fn set_gauge(&self, name: &str, value: i64) {
        self.gauges.lock().unwrap_or_else(PoisonError::into_inner).insert(name.to_string(), value);
    }

    /// Current value of a gauge, if ever set.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.lock().unwrap_or_else(PoisonError::into_inner).get(name).copied()
    }

    /// Point-in-time copy of every counter above zero and every gauge,
    /// sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self.counters.lock().unwrap_or_else(PoisonError::into_inner);
        MetricsSnapshot {
            counters: counters
                .iter()
                .filter_map(|(name, cell)| {
                    let value = cell.get();
                    (value > 0).then(|| (name.clone(), value))
                })
                .collect(),
            gauges: self.gauges.lock().unwrap_or_else(PoisonError::into_inner).clone(),
        }
    }

    /// Sorted, byte-stable text table of the current state.
    pub fn render(&self) -> String {
        self.snapshot().render()
    }
}

/// Immutable copy of the registry at one instant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, i64>,
}

impl MetricsSnapshot {
    /// Counter value in this snapshot (zero when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sorted, byte-stable text table (`BTreeMap` iteration order).
    pub fn render(&self) -> String {
        let mut out = String::from("# counters\n");
        for (name, value) in &self.counters {
            let _ = writeln!(out, "{name} = {value}");
        }
        out.push_str("# gauges\n");
        for (name, value) in &self.gauges {
            let _ = writeln!(out, "{name} = {value}");
        }
        out
    }

    /// Every counter present in `earlier` is `>=` here. Returns the first
    /// regression as a message — the monotonicity check chaos tests run
    /// between snapshots.
    pub fn monotone_since(&self, earlier: &MetricsSnapshot) -> std::result::Result<(), String> {
        for (name, old) in &earlier.counters {
            let new = self.counter(name);
            if new < *old {
                return Err(format!("counter {name} regressed: {old} -> {new}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_render_sorted() {
        let m = MetricsRegistry::default();
        m.inc("b.second", 2);
        m.inc("a.first", 1);
        m.inc("a.first", 4);
        m.inc("c.zero", 0); // a counter at zero is not listed
        m.set_gauge("g.state", -3);
        assert_eq!(m.counter("a.first"), 5);
        assert_eq!(m.counter("missing"), 0);
        assert_eq!(m.gauge("g.state"), Some(-3));
        assert_eq!(m.render(), "# counters\na.first = 5\nb.second = 2\n# gauges\ng.state = -3\n");
    }

    #[test]
    fn monotonicity_check_catches_regressions() {
        let m = MetricsRegistry::default();
        m.inc("x", 3);
        let earlier = m.snapshot();
        m.inc("x", 1);
        m.inc("y", 7);
        let later = m.snapshot();
        later.monotone_since(&earlier).unwrap();
        assert!(earlier.monotone_since(&later).is_err());
    }

    #[test]
    fn a_handle_and_inc_add_to_one_cell() {
        let m = MetricsRegistry::default();
        let handle = m.counter_handle("link.failures");
        handle.add(2);
        m.inc("link.failures", 3);
        m.counter_handle("link.failures").add(1);
        assert_eq!((handle.get(), m.counter("link.failures")), (6, 6));
        assert_eq!(m.snapshot().counter("link.failures"), 6);
    }

    #[test]
    fn a_handle_that_never_counted_is_not_listed() {
        let m = MetricsRegistry::default();
        let idle = m.counter_handle("disk.read_failures");
        m.inc("statements.total", 1);
        let snap = m.snapshot();
        assert!(!snap.counters.contains_key("disk.read_failures"), "{snap:?}");
        assert_eq!(snap.counters.len(), 1);
        assert_eq!(m.render(), "# counters\nstatements.total = 1\n# gauges\n");
        idle.add(1);
        assert_eq!(m.snapshot().counters.len(), 2, "it is listed once it counts");
    }

    #[test]
    fn handles_and_inc_render_the_same_bytes() {
        let counts = [("link.delivered.to_host.bytes", 4096), ("link.failures", 2), ("a", 1)];
        let by_name = MetricsRegistry::default();
        let by_handle = MetricsRegistry::default();
        for (name, by) in counts {
            by_name.inc(name, by);
            by_handle.counter_handle(name).add(by);
        }
        by_handle.counter_handle("never.counted");
        assert_eq!(by_handle.render(), by_name.render());
        assert_eq!(by_handle.snapshot(), by_name.snapshot());
    }
}
