//! Deterministic query-lifecycle tracing.
//!
//! Every statement the federation executes produces a **span tree**: parse,
//! privilege checks, the routing decision (with its reason), each wire
//! transfer, per-operator execution, retries, and recovery events. Spans are
//! stamped exclusively with the `idaa-netsim` *virtual clock*, so a given
//! seed yields a byte-identical trace rendering — tests assert on structure
//! ("this INSERT…SELECT shipped control frames only") instead of
//! reverse-engineering byte counts. Wall-clock time is never recorded here;
//! anything wall-clock lives in the experiment `*_ms` columns, which are the
//! one place allowed to vary run-to-run.
//!
//! The API is deliberately forgiving: a [`Trace`] is either *active* (backed
//! by a shared arena) or *disabled* (every call is a no-op), so call sites
//! never branch on whether tracing is on.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// Handle to one span in a [`Trace`] arena.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug)]
struct RawSpan {
    name: String,
    attrs: Vec<(String, String)>,
    start: Duration,
    end: Option<Duration>,
    children: Vec<usize>,
}

#[derive(Debug, Default)]
struct TraceInner {
    spans: Vec<RawSpan>,
    /// Open-span stack; new spans and events attach to the top.
    stack: Vec<usize>,
}

/// A cheaply clonable tracer. Cloning shares the underlying arena, so a
/// session and the internals it calls into all append to the same tree.
#[derive(Clone, Debug, Default)]
pub struct Trace(Option<Arc<Mutex<TraceInner>>>);

impl Trace {
    /// An active trace with an empty arena.
    pub fn enabled() -> Self {
        Trace(Some(Arc::new(Mutex::new(TraceInner::default()))))
    }

    /// A no-op trace: every method returns immediately.
    pub fn disabled() -> Self {
        Trace(None)
    }

    /// True when this trace records spans at all.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// True when a span is currently open (used to detect re-entrant
    /// statement execution: only the outermost statement owns the root).
    pub fn in_statement(&self) -> bool {
        match &self.0 {
            Some(inner) => !inner.lock().unwrap_or_else(PoisonError::into_inner).stack.is_empty(),
            None => false,
        }
    }

    /// Open a span as a child of the innermost open span (or as a root).
    pub fn begin(&self, name: &str, now: Duration) -> SpanId {
        let Some(inner) = &self.0 else { return SpanId(usize::MAX) };
        let mut t = inner.lock().unwrap_or_else(PoisonError::into_inner);
        let id = t.spans.len();
        t.spans.push(RawSpan {
            name: name.to_string(),
            attrs: Vec::new(),
            start: now,
            end: None,
            children: Vec::new(),
        });
        if let Some(&parent) = t.stack.last() {
            t.spans[parent].children.push(id);
        }
        t.stack.push(id);
        SpanId(id)
    }

    /// Close a span. Any spans opened after it that were never closed are
    /// closed with it (so error paths cannot leave the tree ill-nested).
    pub fn end(&self, id: SpanId, now: Duration) {
        let Some(inner) = &self.0 else { return };
        let mut t = inner.lock().unwrap_or_else(PoisonError::into_inner);
        while let Some(top) = t.stack.pop() {
            if t.spans[top].end.is_none() {
                t.spans[top].end = Some(now);
            }
            if top == id.0 {
                break;
            }
        }
    }

    /// Attach an attribute to a span. Duplicate keys keep the last value.
    pub fn attr(&self, id: SpanId, key: &str, value: impl ToString) {
        let Some(inner) = &self.0 else { return };
        let mut t = inner.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(span) = t.spans.get_mut(id.0) {
            let value = value.to_string();
            match span.attrs.iter_mut().find(|(k, _)| k == key) {
                Some(slot) => slot.1 = value,
                None => span.attrs.push((key.to_string(), value)),
            }
        }
    }

    /// Record a zero-duration child span (an *event*) under the innermost
    /// open span.
    pub fn event(&self, name: &str, attrs: &[(&str, &dyn std::fmt::Display)], now: Duration) {
        if self.0.is_none() {
            return;
        }
        let id = self.begin(name, now);
        for (k, v) in attrs {
            self.attr(id, k, v);
        }
        self.end(id, now);
    }

    /// Close the span (stamping `now`), snapshot its subtree, and — when it
    /// was the outermost open span — reset the arena for the next statement.
    pub fn finish(&self, id: SpanId, now: Duration) -> Option<SpanNode> {
        let Some(inner) = &self.0 else { return None };
        self.end(id, now);
        let mut t = inner.lock().unwrap_or_else(PoisonError::into_inner);
        let node = snapshot(&t.spans, id.0);
        if t.stack.is_empty() {
            t.spans.clear();
        }
        node
    }
}

fn snapshot(spans: &[RawSpan], id: usize) -> Option<SpanNode> {
    let raw = spans.get(id)?;
    Some(SpanNode {
        name: raw.name.clone(),
        attrs: raw.attrs.clone(),
        start: raw.start,
        end: raw.end.unwrap_or(raw.start),
        children: raw.children.iter().filter_map(|&c| snapshot(spans, c)).collect(),
    })
}

/// An immutable snapshot of one span and its subtree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanNode {
    pub name: String,
    /// Insertion-ordered `(key, value)` pairs; rendering sorts by key.
    pub attrs: Vec<(String, String)>,
    /// Virtual-clock timestamps (`NetLink::now()`), never wall clock.
    pub start: Duration,
    pub end: Duration,
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Attribute lookup by key.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// Every span in the subtree (preorder) whose name matches exactly.
    pub fn find_all(&self, name: &str) -> Vec<&SpanNode> {
        let mut out = Vec::new();
        self.collect(name, &mut out);
        out
    }

    fn collect<'a>(&'a self, name: &str, out: &mut Vec<&'a SpanNode>) {
        if self.name == name {
            out.push(self);
        }
        for c in &self.children {
            c.collect(name, out);
        }
    }

    /// First matching span in preorder, if any.
    pub fn find(&self, name: &str) -> Option<&SpanNode> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }

    /// Check well-nestedness: `start <= end`, children contained in the
    /// parent interval, sibling starts monotone non-decreasing. Returns the
    /// first violation as a human-readable message.
    pub fn validate(&self) -> std::result::Result<(), String> {
        if self.start > self.end {
            return Err(format!("span {} ends before it starts", self.name));
        }
        let mut prev_start = self.start;
        for c in &self.children {
            if c.start < self.start || c.end > self.end {
                return Err(format!("span {} escapes parent {}", c.name, self.name));
            }
            if c.start < prev_start {
                return Err(format!("span {} starts before its elder sibling", c.name));
            }
            prev_start = c.start;
            c.validate()?;
        }
        Ok(())
    }

    /// Deterministic indented rendering. Timestamps are virtual-clock
    /// offsets, so the rendering is byte-identical for a given seed.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        let dur = self.end.saturating_sub(self.start);
        let _ = write!(out, "{} @{:?} +{:?}", self.name, self.start, dur);
        let mut attrs: Vec<&(String, String)> = self.attrs.iter().collect();
        attrs.sort_by(|a, b| a.0.cmp(&b.0));
        for (k, v) in attrs {
            let _ = write!(out, " {k}={v}");
        }
        out.push('\n');
        for c in &self.children {
            c.render_into(out, depth + 1);
        }
    }
}

/// One executed statement's trace, as delivered to a [`TraceSink`].
#[derive(Clone, Debug)]
pub struct StatementTrace {
    pub session: u64,
    pub sql: String,
    pub root: SpanNode,
}

impl StatementTrace {
    /// Deterministic rendering: a header line plus the span tree.
    pub fn render(&self) -> String {
        format!("-- session {}: {}\n{}", self.session, self.sql, self.root.render())
    }
}

/// Bounded collector of statement traces, one per `Idaa`. Tests install
/// assertions against `statements()`/`last()`; the buffer keeps the most
/// recent `cap` entries so long chaos runs don't grow without bound.
#[derive(Debug)]
pub struct TraceSink {
    enabled: AtomicBool,
    cap: usize,
    buf: Mutex<VecDeque<StatementTrace>>,
}

impl Default for TraceSink {
    fn default() -> Self {
        TraceSink { enabled: AtomicBool::new(true), cap: 1024, buf: Mutex::new(VecDeque::new()) }
    }
}

impl TraceSink {
    /// Whether sessions created from now on get an active trace.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Enable or disable tracing for sessions created afterwards.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Record one finished statement trace.
    pub fn record(&self, trace: StatementTrace) {
        let mut buf = self.buf.lock().unwrap_or_else(PoisonError::into_inner);
        if buf.len() == self.cap {
            buf.pop_front();
        }
        buf.push_back(trace);
    }

    /// All buffered traces, oldest first.
    pub fn statements(&self) -> Vec<StatementTrace> {
        self.buf.lock().unwrap_or_else(PoisonError::into_inner).iter().cloned().collect()
    }

    /// The most recently recorded trace.
    pub fn last(&self) -> Option<StatementTrace> {
        self.buf.lock().unwrap_or_else(PoisonError::into_inner).back().cloned()
    }

    /// The most recent trace whose SQL contains `needle`.
    pub fn last_containing(&self, needle: &str) -> Option<StatementTrace> {
        let buf = self.buf.lock().unwrap_or_else(PoisonError::into_inner);
        buf.iter().rev().find(|t| t.sql.contains(needle)).cloned()
    }

    /// Drop all buffered traces.
    pub fn clear(&self) {
        self.buf.lock().unwrap_or_else(PoisonError::into_inner).clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn spans_nest_and_render_deterministically() {
        let t = Trace::enabled();
        let root = t.begin("statement", ms(0));
        t.attr(root, "sql", "SELECT 1");
        let child = t.begin("transfer", ms(1));
        t.attr(child, "bytes", 42u64);
        t.end(child, ms(3));
        t.event("route", &[("reason", &"aot" as &dyn std::fmt::Display)], ms(3));
        let node = t.finish(root, ms(5)).unwrap();
        node.validate().unwrap();
        assert_eq!(node.children.len(), 2);
        assert_eq!(node.find("transfer").unwrap().attr("bytes"), Some("42"));
        let rendered = node.render();
        assert_eq!(
            rendered,
            "statement @0ns +5ms sql=SELECT 1\n  transfer @1ms +2ms bytes=42\n  route @3ms +0ns reason=aot\n"
        );
    }

    #[test]
    fn disabled_trace_is_noop() {
        let t = Trace::disabled();
        let id = t.begin("x", ms(0));
        t.attr(id, "k", "v");
        assert!(t.finish(id, ms(1)).is_none());
        assert!(!t.in_statement());
    }

    #[test]
    fn unclosed_children_are_closed_with_parent() {
        let t = Trace::enabled();
        let root = t.begin("statement", ms(0));
        let _leaked = t.begin("transfer", ms(1));
        let node = t.finish(root, ms(4)).unwrap();
        node.validate().unwrap();
        assert_eq!(node.children[0].end, ms(4));
        assert!(!t.in_statement());
    }

    #[test]
    fn sink_is_bounded_and_searchable() {
        let sink = TraceSink::default();
        for i in 0..3 {
            sink.record(StatementTrace {
                session: i,
                sql: format!("SELECT {i}"),
                root: SpanNode {
                    name: "statement".into(),
                    attrs: vec![],
                    start: ms(0),
                    end: ms(0),
                    children: vec![],
                },
            });
        }
        assert_eq!(sink.statements().len(), 3);
        assert_eq!(sink.last().unwrap().session, 2);
        assert_eq!(sink.last_containing("SELECT 1").unwrap().session, 1);
        sink.clear();
        assert!(sink.last().is_none());
    }
}
