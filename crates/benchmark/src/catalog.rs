//! Every metric the benchmark reports, by name, with its unit, direction
//! and — for end-to-end metrics — the bound by which it may worsen before
//! a change counts as a regression. `BENCHMARK.json` repeats this table;
//! `tests/smoke.rs` checks the two agree.

use crate::workloads::{elt_pipeline, ingest_recover, olap_dash, oltp_mix};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// Relative worsening of the set median that counts as a regression
    /// (end-to-end metrics only; 0 for per-layer metrics).
    pub bound: f64,
}

fn m(name: impl Into<String>, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric { name: name.into(), unit, better, bound }
}

/// What a user of the system sees. Every one is reported for every
/// workload by a `--trace 0` run.
///
/// The timing bounds are as wide as the contract allows because that is what
/// this shared 2-core sandbox supports: ten back-to-back runs of one
/// commit spread (interquartile ÷ median) by 7–24 % on the timing metrics
/// (`README.md` has the table), and a bound tighter than the spread would
/// only ever report "unresolved". The three `link_*` metrics repeat
/// exactly per seed and differ by under 0.2 % between seeds.
///
/// `fail_ratio` is not in this list because the result line carries it as
/// `failed` / `attempted` (and a metric that is 0 on every good run has no
/// relative bound); any failure makes the run incorrect.
pub fn end_to_end() -> Vec<Metric> {
    use Better::*;
    vec![
        m("setup_s", "s", Lower, 0.25),
        m("round_p50_ms", "ms", Lower, 0.25),
        m("round_p95_ms", "ms", Lower, 0.25),
        m("rounds_per_s", "1/s", Higher, 0.25),
        m("link_bytes_per_round", "B", Lower, 0.01),
        m("link_msgs_per_round", "count", Lower, 0.01),
        m("link_virtual_ms_per_round", "ms", Lower, 0.01),
        m("peak_rss_mb", "MiB", Lower, 0.25),
    ]
}

/// All 27 op classes, in workload order.
pub fn classes() -> Vec<&'static str> {
    [&olap_dash::CLASSES[..], &oltp_mix::CLASSES, &elt_pipeline::CLASSES, &ingest_recover::CLASSES]
        .concat()
}

/// One layer's numbers, reported by a `--trace 1` run. A metric a workload
/// does not exercise reads 0 there.
pub fn per_layer() -> Vec<Metric> {
    use Better::*;
    let mut v = Vec::new();
    for c in classes() {
        v.push(m(format!("class.{c}.p50_ms"), "ms", Lower, 0.0));
        v.push(m(format!("class.{c}.share"), "ratio", Lower, 0.0));
    }
    v.push(m("class.max_share", "ratio", Lower, 0.0));
    v.extend([
        m("sql.parse_us_p50", "us", Lower, 0.0),
        m("sql.parse_share", "ratio", Lower, 0.0),
        m("core.self_us_p50", "us", Lower, 0.0),
        m("core.self_share", "ratio", Lower, 0.0),
        m("core.route_us_p50", "us", Lower, 0.0),
        m("core.commit_us_p50", "us", Lower, 0.0),
        m("core.replicate_us_per_change", "us", Lower, 0.0),
        m("core.prepared_vs_adhoc_ratio", "ratio", Lower, 0.0),
        m("obs.metrics_inc_ns", "ns", Lower, 0.0),
        m("obs.registry_entries", "count", Lower, 0.0),
        m("obs.trace_spans_per_stmt", "count", Lower, 0.0),
        m("obs.share", "ratio", Lower, 0.0),
        m("trace.overhead_ratio", "ratio", Lower, 0.0),
        m("trace.harness_share", "ratio", Lower, 0.0),
        m("trace.unattributed_share", "ratio", Lower, 0.0),
        m("host.query_us_p50", "us", Lower, 0.0),
        m("host.rows_scanned_per_op", "count", Lower, 0.0),
        m("host.index_lookups_per_op", "count", Lower, 0.0),
        m("host.share", "ratio", Lower, 0.0),
        m("accel.exec_share", "ratio", Lower, 0.0),
    ]);
    for c in olap_dash::CLASSES {
        v.push(m(format!("accel.query_ms_p50.{c}"), "ms", Lower, 0.0));
        v.push(m(format!("accel.vectorized_speedup.{c}"), "ratio", Higher, 0.0));
    }
    for c in &olap_dash::CLASSES[..3] {
        v.push(m(format!("accel.parallel_speedup.{c}"), "ratio", Higher, 0.0));
    }
    v.extend([
        m("accel.rows_scanned_per_s", "1/s", Higher, 0.0),
        m("accel.blocks_pruned_ratio", "ratio", Higher, 0.0),
        m("accel.workers", "count", Higher, 0.0),
        m("nproc", "count", Higher, 0.0),
        m("accel.plan_cached_us_p50", "us", Lower, 0.0),
        m("accel.plan_cache_hit_ratio", "ratio", Higher, 0.0),
        m("accel.write_rows_per_s", "1/s", Higher, 0.0),
        m("accel.groom_ms_p50", "ms", Lower, 0.0),
        m("accel.versions_groomed_per_round", "count", Lower, 0.0),
        m("durable.log_bytes_per_user_byte", "ratio", Lower, 0.0),
        m("durable.checkpoints_per_round", "count", Lower, 0.0),
        m("durable.restart_ms_p50", "ms", Lower, 0.0),
        m("durable.replayed_bytes_per_restart", "B", Lower, 0.0),
        m("durable.share", "ratio", Lower, 0.0),
        m("wire.encode_mb_per_s", "MB/s", Higher, 0.0),
        m("wire.decode_mb_per_s", "MB/s", Higher, 0.0),
        m("wire.compression_ratio", "ratio", Higher, 0.0),
        m("wire.share", "ratio", Lower, 0.0),
        m("netsim.transfer_us_p50", "us", Lower, 0.0),
        m("netsim.failures", "count", Lower, 0.0),
        m("netsim.share", "ratio", Lower, 0.0),
        m("loader.rows_per_s.direct", "1/s", Higher, 0.0),
        m("loader.rows_per_s.via_db2", "1/s", Higher, 0.0),
        m("loader.parse_us_per_row", "us", Lower, 0.0),
        m("loader.share", "ratio", Lower, 0.0),
        m("analytics.call_ms_p50", "ms", Lower, 0.0),
        m("check.fail_ratio", "ratio", Lower, 0.0),
    ]);
    v
}

/// Per-layer metrics that are counts from one deterministic client: two
/// runs of the same commit, seed and round count must agree on them bit
/// for bit.
pub fn is_exact_count(name: &str) -> bool {
    matches!(
        name,
        "obs.registry_entries"
            | "obs.trace_spans_per_stmt"
            | "host.rows_scanned_per_op"
            | "host.index_lookups_per_op"
            | "accel.blocks_pruned_ratio"
            | "accel.workers"
            | "nproc"
            | "accel.plan_cache_hit_ratio"
            | "accel.versions_groomed_per_round"
            | "durable.log_bytes_per_user_byte"
            | "durable.checkpoints_per_round"
            | "durable.replayed_bytes_per_restart"
            | "wire.compression_ratio"
            | "netsim.failures"
            | "check.fail_ratio"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_fit_the_contract() {
        let ok = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        };
        let (e, l) = (end_to_end(), per_layer());
        assert!(e.len() <= 16 && l.len() <= 128, "{} / {}", e.len(), l.len());
        assert_eq!(classes().len(), 27);
        let mut all: Vec<&str> = e.iter().chain(&l).map(|m| m.name.as_str()).collect();
        assert!(all.iter().all(|n| ok(n)));
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), e.len() + l.len(), "metric names are used once");
        assert!(e.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(e
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }
}
