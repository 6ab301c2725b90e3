//! Per-layer metrics of a traced run, derived from the harness's span log
//! and the product's public counters.
//!
//! Time is attributed over the *probe rounds* only (every 10th traced
//! round), where each statement's read work was replayed below the facade:
//!
//! ```text
//! stmt = sql.parse + main call + harness self time
//! main call (core.execute_stmt, loader.load, …)
//!      = Σ probes of the layers it called (accel.query, host.query,
//!        wire.encode, wire.decode, netsim.transfer_frame, obs.metrics_inc)
//!      + remainder
//! ```
//!
//! The remainder of a fully probed read (a top-level query: it has a
//! `core.route` probe) is `core` self time; of a `loader.load` it is the
//! loader's; of a restart it is `durable`'s; of any other write it is
//! *unattributed* — writes are never replayed. The buckets partition the
//! statement time exactly, so the shares sum to 1.

use crate::harness::{Exec, Phase};
use crate::spans::{Span, SpanLog};
use crate::stats::{self, median, ns_to_ms, ns_to_us, ratio};
use idaa_core::Idaa;
use std::collections::{BTreeMap, BTreeSet};

/// Probes of layers the main call itself called; `core.route` is core's
/// own work, `accel.plan_cached` happens inside `accel.query`, and
/// `accel.query_interpreted` / `loader.parse` are extra measurements.
const CALLED: [&str; 6] = [
    "accel.query",
    "host.query",
    "wire.encode",
    "wire.decode",
    "netsim.transfer_frame",
    "obs.metrics_inc",
];

#[derive(Debug, Default, Clone, PartialEq)]
pub struct Attribution {
    /// Σ statement spans of the probe rounds.
    pub total: u64,
    pub parse: u64,
    pub core_self: u64,
    pub accel: u64,
    pub host: u64,
    pub wire: u64,
    pub netsim: u64,
    pub obs: u64,
    pub loader: u64,
    pub durable: u64,
    pub unattributed: u64,
    pub harness: u64,
    /// Σ main-call spans (what the layer buckets must add up to).
    pub main: u64,
    /// `core` self time of each fully probed read.
    pub core_self_samples: Vec<u64>,
}

impl Attribution {
    /// The buckets by layer name, largest first.
    pub fn ranked(&self) -> Vec<(&'static str, u64)> {
        let mut v = vec![
            ("sql (parse)", self.parse),
            ("core (self)", self.core_self),
            ("accel (query)", self.accel),
            ("host (query)", self.host),
            ("wire (encode+decode)", self.wire),
            ("netsim", self.netsim),
            ("obs (metrics)", self.obs),
            ("loader (self)", self.loader),
            ("durable (restart)", self.durable),
            ("unattributed write", self.unattributed),
            ("harness", self.harness),
        ];
        v.sort_by_key(|(_, ns)| std::cmp::Reverse(*ns));
        v
    }

    /// Every bucket except `total`/`main`: they partition `total`.
    pub fn parts(&self) -> u64 {
        self.parse
            + self.core_self
            + self.accel
            + self.host
            + self.wire
            + self.netsim
            + self.obs
            + self.loader
            + self.durable
            + self.unattributed
            + self.harness
    }
}

fn is_stmt(s: &Span) -> bool {
    s.parent.is_none() && s.name.starts_with("stmt")
}

pub fn attribute(log: &SpanLog) -> Attribution {
    attribute_class(log, None)
}

/// [`attribute`] over the statements of one op class only.
pub fn attribute_class(log: &SpanLog, class: Option<&str>) -> Attribution {
    let spans = &log.spans;
    let probe_rounds: BTreeSet<u64> = spans.iter().filter(|s| s.probe).map(|s| s.round).collect();
    let mut kids: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            kids[p].push(i);
        }
    }
    let mut a = Attribution::default();
    for (i, st) in spans.iter().enumerate() {
        if !is_stmt(st) || !probe_rounds.contains(&st.round) || class.is_some_and(|c| c != st.class)
        {
            continue;
        }
        let mut parse = 0;
        let mut main: Option<&Span> = None;
        let mut probes: BTreeMap<&str, u64> = BTreeMap::new();
        for &k in &kids[i] {
            let c = &spans[k];
            if c.probe {
                *probes.entry(c.name).or_default() += c.dur_ns();
            } else if c.name == "sql.parse" {
                parse += c.dur_ns();
            } else {
                main = Some(c);
            }
        }
        let Some(main) = main else {
            // The statement did not parse: all of it is the parser's.
            a.total += st.dur_ns();
            a.parse += parse;
            a.harness += st.dur_ns() - parse;
            continue;
        };
        let d = main.dur_ns();
        a.total += st.dur_ns();
        a.main += d;
        a.parse += parse;
        a.harness += st.dur_ns().saturating_sub(parse + d);
        // A warm replay can come out slower than the call it replays; scale
        // the probes down so they never claim more than the call took.
        let called: u64 = CALLED.iter().filter_map(|n| probes.get(n)).sum();
        let scale = if called > d { d as f64 / called as f64 } else { 1.0 };
        let part = |name: &str| (probes.get(name).copied().unwrap_or(0) as f64 * scale) as u64;
        let (accel, host, netsim, obs) = (
            part("accel.query"),
            part("host.query"),
            part("netsim.transfer_frame"),
            part("obs.metrics_inc"),
        );
        let wire = part("wire.encode") + part("wire.decode");
        a.accel += accel;
        a.host += host;
        a.wire += wire;
        a.netsim += netsim;
        a.obs += obs;
        let rest = d.saturating_sub(accel + host + wire + netsim + obs);
        match main.name {
            "core.execute_stmt" | "server.prepared" if probes.contains_key("core.route") => {
                a.core_self += rest;
                a.core_self_samples.push(rest);
            }
            "loader.load" => a.loader += rest,
            "durable.restart" => a.durable += rest,
            _ => a.unattributed += rest,
        }
    }
    a
}

fn class_durs(log: &SpanLog, name: &str, class: &str) -> Vec<u64> {
    log.spans.iter().filter(|s| s.name == name && s.class == class).map(Span::dur_ns).collect()
}

/// Durations of the `core.execute_stmt` child of every statement span
/// called `mark`.
fn marked_exec_durs(log: &SpanLog, mark: &str) -> Vec<u64> {
    log.spans
        .iter()
        .filter(|s| s.name == "core.execute_stmt")
        .filter(|s| s.parent.is_some_and(|p| log.spans[p].name == mark))
        .map(Span::dur_ns)
        .collect()
}

/// `Σ qty / Σ seconds` over every span called `name`.
fn throughput(log: &SpanLog, name: &str) -> f64 {
    let (qty, ns) = log
        .spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0u64, 0u64), |(q, n), s| (q + s.qty, n + s.dur_ns()));
    ratio(qty as f64, ns as f64 / 1e9)
}

/// Per op class: where the statement time of the probe rounds went, top
/// three layers first — the reference breakdown ROADMAP item 1(d) asks for.
pub fn class_breakdown(log: &SpanLog, classes: &[&str]) -> Vec<String> {
    classes
        .iter()
        .map(|c| {
            let a = attribute_class(log, Some(c));
            let top: Vec<String> = a
                .ranked()
                .into_iter()
                .take(3)
                .filter(|(_, ns)| *ns > 0)
                .map(|(layer, ns)| {
                    format!("{layer} {:.0}%", 100.0 * ratio(ns as f64, a.total as f64))
                })
                .collect();
            format!("{c}: {}", top.join(", "))
        })
        .collect()
}

pub struct TracedRun<'a> {
    pub idaa: &'a Idaa,
    pub exec: &'a Exec,
    pub untraced: &'a Phase,
    pub traced: &'a Phase,
    /// Workload-specific metrics (`Workload::layer_extras`).
    pub extras: Vec<(String, f64)>,
}

fn class_p50_ns(p: &Phase, classes: &[&str], name: &str) -> u64 {
    classes.iter().position(|c| *c == name).map_or(0, |i| median(&p.class_ns[i]))
}

fn class_rate(p: &Phase, classes: &[&str], names: &[&str]) -> f64 {
    let (rows, ns) = names
        .iter()
        .filter_map(|n| classes.iter().position(|c| c == n))
        .fold((0u64, 0u64), |(r, t), i| (r + p.class_rows[i], t + stats::sum(&p.class_ns[i])));
    ratio(rows as f64, ns as f64 / 1e9)
}

/// Every per-layer metric this run can fill in, by name; the caller reports
/// 0 for catalog names that are absent (layers the workload never enters).
pub fn layer_metrics(run: TracedRun) -> BTreeMap<String, f64> {
    let TracedRun { idaa, exec: x, untraced: u, traced: t, extras } = run;
    let log = &x.spans;
    let classes = x.classes;
    let mut out: BTreeMap<String, f64> = extras.into_iter().collect();
    let mut put = |k: &str, v: f64| {
        out.insert(k.to_string(), v);
    };

    // Class latencies and shares come from the untraced phase.
    let round_total: u64 = stats::sum(&u.round_ns);
    let mut max_share = 0f64;
    for (i, c) in classes.iter().enumerate() {
        let share = ratio(stats::sum(&u.class_ns[i]) as f64, round_total as f64);
        max_share = max_share.max(share);
        put(&format!("class.{c}.p50_ms"), ns_to_ms(median(&u.class_ns[i])));
        put(&format!("class.{c}.share"), share);
    }
    put("class.max_share", max_share);

    let a = attribute(log);
    let share = |part: u64| ratio(part as f64, a.total as f64);
    put("sql.parse_us_p50", ns_to_us(median(&log.durations("sql.parse"))));
    put("sql.parse_share", share(a.parse));
    put("core.self_us_p50", ns_to_us(median(&a.core_self_samples)));
    put("core.self_share", share(a.core_self));
    put("core.route_us_p50", ns_to_us(median(&log.durations("core.route"))));
    put("core.commit_us_p50", ns_to_us(median(&marked_exec_durs(log, "stmt.commit"))));
    // An autocommit replicated point UPDATE, minus the same UPDATE inside
    // an open transaction (whose commit, CDC drain and accelerator apply
    // are deferred): what committing and replicating one change costs.
    let in_txn = median(&marked_exec_durs(log, "stmt.update_in_txn"));
    let repl = median(&class_durs(log, "core.execute_stmt", "host_update_repl"));
    put("core.replicate_us_per_change", ns_to_us(repl.saturating_sub(in_txn)));
    put(
        "core.prepared_vs_adhoc_ratio",
        ratio(
            class_p50_ns(u, classes, "accel_lookup_prepared") as f64,
            class_p50_ns(u, classes, "accel_lookup") as f64,
        ),
    );

    let incs = log.spans.iter().filter(|s| s.name == "obs.metrics_inc");
    let (inc_n, inc_ns) = incs.fold((0u64, 0u64), |(q, n), s| (q + s.qty, n + s.dur_ns()));
    put("obs.metrics_inc_ns", ratio(inc_ns as f64, inc_n as f64));
    let snap = idaa.metrics().snapshot();
    put("obs.registry_entries", (snap.counters.len() + snap.gauges.len()) as f64);
    let traces = idaa.tracer().statements();
    fn nodes(n: &idaa_common::SpanNode) -> usize {
        1 + n.children.iter().map(nodes).sum::<usize>()
    }
    let spans_total: usize = traces.iter().map(|t| nodes(&t.root)).sum();
    put("obs.trace_spans_per_stmt", ratio(spans_total as f64, traces.len() as f64));
    put("obs.share", share(a.obs));
    put("trace.overhead_ratio", ratio(median(&t.round_ns) as f64, median(&u.round_ns) as f64));
    put("trace.harness_share", share(a.harness));
    put("trace.unattributed_share", share(a.unattributed));

    let c = &u.counters;
    put("host.query_us_p50", ns_to_us(median(&log.durations("host.query"))));
    put("host.rows_scanned_per_op", ratio(c.host_rows_scanned as f64, c.host_statements as f64));
    put("host.index_lookups_per_op", ratio(c.host_index_lookups as f64, c.host_statements as f64));
    put("host.share", share(a.host));

    put("accel.exec_share", share(a.accel));
    for cl in crate::workloads::olap_dash::CLASSES {
        let vec_ns = median(&class_durs(log, "accel.query", cl));
        let int_ns = median(&class_durs(log, "accel.query_interpreted", cl));
        put(&format!("accel.query_ms_p50.{cl}"), ns_to_ms(vec_ns));
        put(&format!("accel.vectorized_speedup.{cl}"), ratio(int_ns as f64, vec_ns as f64));
    }
    put("accel.rows_scanned_per_s", throughput(log, "accel.query"));
    put(
        "accel.blocks_pruned_ratio",
        ratio(
            c.accel_blocks_pruned as f64,
            (c.accel_blocks_pruned + c.accel_blocks_scanned) as f64,
        ),
    );
    put("accel.workers", idaa_accel::AccelConfig::default().workers() as f64);
    put("nproc", std::thread::available_parallelism().map_or(1, |n| n.get()) as f64);
    put("accel.plan_cached_us_p50", ns_to_us(median(&log.durations("accel.plan_cached"))));
    put(
        "accel.plan_cache_hit_ratio",
        ratio(c.plan_cache_hits as f64, (c.plan_cache_hits + c.plan_cache_misses) as f64),
    );
    put("accel.write_rows_per_s", class_rate(u, classes, &["extract", "transform"]));
    let extra_p50 = |name: &str| u.extra_ns.get(name).map_or(0, |ns| median(ns));
    put("accel.groom_ms_p50", ns_to_ms(extra_p50("accel.groom")));
    put(
        "accel.versions_groomed_per_round",
        ratio(c.accel_versions_groomed as f64, u.rounds as f64),
    );

    // Log growth per user byte: bytes shipped to the accelerator where the
    // data crosses the link, else the probed AOT INSERT…SELECTs.
    let shipped = c.link.logical_bytes_to_accel;
    let (logged, user) = x.insert_select_bytes;
    put(
        "durable.log_bytes_per_user_byte",
        if user > 0 {
            ratio(logged as f64, user as f64)
        } else {
            ratio(u.log_appended as f64, shipped as f64)
        },
    );
    put("durable.checkpoints_per_round", ratio(u.checkpoints as f64, u.rounds as f64));
    put("durable.restart_ms_p50", ns_to_ms(extra_p50("durable.restart")));
    put("durable.share", share(a.durable));

    put("wire.encode_mb_per_s", throughput(log, "wire.encode") / 1e6);
    put("wire.decode_mb_per_s", throughput(log, "wire.decode") / 1e6);
    put(
        "wire.compression_ratio",
        ratio(c.link.total_logical_bytes() as f64, c.link.total_bytes() as f64),
    );
    put("wire.share", share(a.wire));
    put("netsim.transfer_us_p50", ns_to_us(median(&log.durations("netsim.transfer_frame"))));
    put("netsim.failures", (c.link.failures + t.counters.link.failures) as f64);
    put("netsim.share", share(a.netsim));

    put("loader.rows_per_s.direct", class_rate(u, classes, &["load_direct"]));
    put("loader.rows_per_s.via_db2", class_rate(u, classes, &["load_via_db2"]));
    let parse = log.spans.iter().filter(|s| s.name == "loader.parse");
    let (rows, ns) = parse.fold((0u64, 0u64), |(q, n), s| (q + s.qty, n + s.dur_ns()));
    put("loader.parse_us_per_row", ratio(ns as f64 / 1e3, rows as f64));
    put("loader.share", share(a.loader));
    put("analytics.call_ms_p50", ns_to_ms(class_p50_ns(u, classes, "analytics_call")));
    put("check.fail_ratio", ratio(x.failed as f64, x.attempted as f64));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-built log: one probed read and one unprobed write in a probe
    /// round, one statement in a round without probes.
    fn log() -> SpanLog {
        let mut log = SpanLog::default();
        let mut push = |name, round, parent, start_ns, end_ns, probe| {
            log.spans.push(Span {
                name,
                class: "c",
                round,
                parent,
                start_ns,
                end_ns,
                probe,
                qty: 0,
            });
        };
        push("stmt", 0, None, 0, 1000, false); // 0: read
        push("sql.parse", 0, Some(0), 10, 110, false); // 100
        push("core.execute_stmt", 0, Some(0), 110, 990, false); // 880
        push("core.route", 0, Some(0), 1000, 1050, true);
        push("accel.plan_cached", 0, Some(0), 1050, 1060, true);
        push("accel.query", 0, Some(0), 1060, 1660, true); // 600
        push("wire.encode", 0, Some(0), 1660, 1700, true); // 40
        push("wire.decode", 0, Some(0), 1700, 1730, true); // 30
        push("netsim.transfer_frame", 0, Some(0), 1730, 1740, true); // 10
        push("obs.metrics_inc", 0, Some(0), 1740, 1745, true); // 5
        push("stmt", 0, None, 2000, 2500, false); // 10: write, no probes
        push("sql.parse", 0, Some(10), 2000, 2050, false); // 50
        push("core.execute_stmt", 0, Some(10), 2050, 2500, false); // 450
        push("stmt", 1, None, 3000, 9000, false); // not a probe round
        push("core.execute_stmt", 1, Some(13), 3000, 9000, false);
        log
    }

    #[test]
    fn buckets_partition_the_probe_rounds() {
        let a = attribute(&log());
        assert_eq!(a.total, 1500);
        assert_eq!(a.parse, 150);
        assert_eq!(a.accel, 600);
        assert_eq!(a.wire, 70);
        assert_eq!(a.netsim, 10);
        assert_eq!(a.obs, 5);
        assert_eq!(a.core_self, 880 - 685, "execute_stmt minus the layers it called");
        assert_eq!(a.core_self_samples, vec![195]);
        assert_eq!(a.unattributed, 450, "a write is never split");
        assert_eq!(a.harness, 20);
        assert_eq!(a.parts(), a.total);
        assert_eq!(a.main, 880 + 450);
    }

    #[test]
    fn a_replay_slower_than_the_call_is_scaled_down() {
        let mut log = SpanLog::default();
        let mut push = |name, parent, start_ns, end_ns, probe| {
            log.spans.push(Span {
                name,
                class: "c",
                round: 0,
                parent,
                start_ns,
                end_ns,
                probe,
                qty: 0,
            });
        };
        push("stmt", None, 0, 100, false);
        push("core.execute_stmt", Some(0), 0, 100, false);
        push("core.route", Some(0), 100, 101, true);
        push("accel.query", Some(0), 101, 301, true); // 200 > 100
        let a = attribute(&log);
        assert_eq!(a.accel, 100);
        assert_eq!(a.core_self, 0);
        assert_eq!(a.parts(), a.total);
    }
}
