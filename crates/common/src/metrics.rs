//! Process-wide metrics: named monotone counters and gauges.
//!
//! Counters only ever increase (the registry enforces it), gauges are
//! last-write-wins. A [`MetricsRegistry::render`] snapshot is a sorted,
//! byte-stable text table, so experiment output and tests can pin it the
//! same way they pin `LinkMetrics` — nothing here ever records wall-clock
//! time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Mutex, PoisonError};

/// Registry of named monotone counters and last-write-wins gauges.
///
/// A lock poisoned by a panicking holder is taken over as is: every
/// mutation is one map operation, so the map is never left half-updated.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, u64>>,
    gauges: Mutex<BTreeMap<String, i64>>,
}

impl MetricsRegistry {
    /// Add `by` to the named counter (creating it at zero first).
    pub fn inc(&self, name: &str, by: u64) {
        if by == 0 {
            return;
        }
        let mut counters = self.counters.lock().unwrap_or_else(PoisonError::into_inner);
        match counters.get_mut(name) {
            Some(v) => *v += by,
            None => {
                counters.insert(name.to_string(), by);
            }
        }
    }

    /// Current value of a counter (zero when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.lock().unwrap_or_else(PoisonError::into_inner).get(name).copied().unwrap_or(0)
    }

    /// Set a gauge to an absolute value.
    pub fn set_gauge(&self, name: &str, value: i64) {
        self.gauges.lock().unwrap_or_else(PoisonError::into_inner).insert(name.to_string(), value);
    }

    /// Current value of a gauge, if ever set.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.lock().unwrap_or_else(PoisonError::into_inner).get(name).copied()
    }

    /// Point-in-time copy of every counter and gauge, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.lock().unwrap_or_else(PoisonError::into_inner).clone(),
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
        m.inc("a.first", 0); // no-op, doesn't even create
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
}
