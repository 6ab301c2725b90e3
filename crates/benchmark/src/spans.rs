//! The harness's own span log (choosing-metrics §4): one record per call
//! into a layer's public function, kept in memory and written as JSON
//! lines when the run ends. Nothing here touches the product's
//! `TraceSink`, which stays at its default.

use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Op class of the statement this span belongs to.
    pub class: &'static str,
    /// Round id: spans of one round share it.
    pub round: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// A below-the-facade replay, recorded *after* its parent statement
    /// ended, so it never counts into the statement's own duration.
    pub probe: bool,
    /// Work done inside the span as a count — bytes for `wire.*` and
    /// `netsim.*`, rows for everything else; 0 when not recorded.
    pub qty: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct SpanLog {
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog { t0: Instant::now(), spans: Vec::new() }
    }
}

impl SpanLog {
    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn open(
        &mut self,
        name: &'static str,
        class: &'static str,
        round: u64,
        parent: Option<usize>,
        probe: bool,
    ) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            class,
            round,
            parent,
            start_ns,
            end_ns: start_ns,
            probe,
            qty: 0,
        });
        self.spans.len() - 1
    }

    /// Close span `id`; returns its duration.
    pub fn close(&mut self, id: usize) -> u64 {
        let end = self.now_ns();
        let s = &mut self.spans[id];
        s.end_ns = end;
        s.dur_ns()
    }

    /// Self time of every span: its duration minus the part of that
    /// interval its child spans cover. Children are clipped to the parent
    /// and never overlap one another (one client thread), so the covered
    /// part is the sum of the clipped child durations.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let lo = s.start_ns.max(parent.start_ns);
                let hi = s.end_ns.min(parent.end_ns);
                own[p] = own[p].saturating_sub(hi.saturating_sub(lo));
            }
        }
        own
    }

    /// Durations of every span called `name` (probe or not).
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::dur_ns).collect()
    }

    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"round\":{},\"name\":\"{}\",\"class\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"probe\":{},\"qty\":{}}}",
                s.round, s.name, s.class, s.start_ns, s.end_ns, s.probe, s.qty
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span { name: "s", class: "c", round: 0, parent, start_ns, end_ns, probe: false, qty: 0 }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let log = SpanLog {
            t0: Instant::now(),
            spans: vec![
                span(None, 0, 100),      // stmt
                span(Some(0), 5, 15),    // parse: 10
                span(Some(0), 15, 95),   // execute: 80
                span(Some(2), 20, 50),   // grandchild: 30
                span(Some(0), 110, 150), // probe recorded after the stmt ended
            ],
        };
        let own = log.self_ns();
        assert_eq!(own[0], 10, "100 - 10 - 80; the late probe covers none of it");
        assert_eq!(own[1], 10);
        assert_eq!(own[2], 50);
        assert_eq!(own[3], 30);
        assert_eq!(own[4], 40);
        // Self times of a tree sum to the root's duration.
        assert_eq!(own[0] + own[1] + own[2] + own[3], 100);
    }

    #[test]
    fn child_is_clipped_to_its_parent() {
        let log = SpanLog {
            t0: Instant::now(),
            spans: vec![span(None, 10, 20), span(Some(0), 5, 14), span(Some(0), 18, 30)],
        };
        assert_eq!(log.self_ns()[0], 10 - 4 - 2);
    }
}
