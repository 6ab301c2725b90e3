//! The closed-loop client: one thread, zero think time, a fixed seeded list
//! of rounds per workload. [`Exec`] is what a workload's round talks to; it
//! times every op, files it under its class, counts failures, and — in a
//! traced run — records the span log and triggers the layer probes.

use crate::probes;
use crate::spans::SpanLog;
use idaa_common::MetricsRegistry;
use idaa_core::{ExecOutcome, Idaa, Route, Session};
use idaa_netsim::{LinkConfig, LinkMetrics, NetLink};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering::Relaxed;
use std::time::{Duration, Instant};

/// In a traced run every `PROBE_EVERY`-th round is replayed below the
/// facade.
pub const PROBE_EVERY: u64 = 10;

/// Table sizes: `Full` is what `BENCHMARK.json` measures, `Smoke` is the
/// tiny variant `tests/smoke.rs` runs in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// Route expectations for [`Exec::sql`]: a class asserts where the facade
/// runs its statements; DDL, CALL and transaction control go anywhere.
pub const HOST: Option<Route> = Some(Route::Host);
pub const ACCEL: Option<Route> = Some(Route::Accelerator);
pub const ANY: Option<Route> = None;

/// One workload: a seeded system plus the rounds that drive it.
pub trait Workload {
    /// Op classes, in the order a round runs them.
    fn classes(&self) -> &'static [&'static str];
    fn idaa(&self) -> &Idaa;
    /// Run round `i`. Every literal is a pure function of `(seed, i)`.
    fn round(&mut self, x: &mut Exec, i: u64);
    /// Untimed answer checks after the timed phase, over a seeded 5 %
    /// sample of the `rounds` that ran. With `sabotage` the expected answer
    /// of the first check is deliberately wrong.
    fn verify(&mut self, x: &mut Exec, rounds: u64, sabotage: bool);
    /// Workload-specific per-layer metrics of the traced run.
    fn layer_extras(&mut self) -> Vec<(String, f64)> {
        Vec::new()
    }
}

/// Monotone product counters, read from the public stats at phase and
/// probe boundaries.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub accel_rows_scanned: u64,
    pub accel_blocks_scanned: u64,
    pub accel_blocks_pruned: u64,
    pub accel_rows_inserted: u64,
    pub accel_versions_groomed: u64,
    pub plan_cache_hits: u64,
    pub plan_cache_misses: u64,
    pub host_rows_scanned: u64,
    pub host_index_lookups: u64,
    pub host_statements: u64,
    pub link: LinkMetrics,
    /// `NetLink::now()`: wire time plus retry/recovery/checkpoint charges.
    pub virt: Duration,
}

impl Counters {
    pub fn read(idaa: &Idaa) -> Counters {
        let a = &idaa.accel().stats;
        let h = &idaa.host().stats;
        Counters {
            accel_rows_scanned: a.rows_scanned.load(Relaxed),
            accel_blocks_scanned: a.blocks_scanned.load(Relaxed),
            accel_blocks_pruned: a.blocks_pruned.load(Relaxed),
            accel_rows_inserted: a.rows_inserted.load(Relaxed),
            accel_versions_groomed: a.versions_groomed.load(Relaxed),
            plan_cache_hits: a.plan_cache_hits.load(Relaxed),
            plan_cache_misses: a.plan_cache_misses.load(Relaxed),
            host_rows_scanned: h.rows_scanned.load(Relaxed),
            host_index_lookups: h.index_lookups.load(Relaxed),
            host_statements: h.statements.load(Relaxed),
            link: idaa.fleet_link_metrics(),
            virt: idaa.link().now(),
        }
    }

    pub fn since(&self, e: &Counters) -> Counters {
        Counters {
            accel_rows_scanned: self.accel_rows_scanned - e.accel_rows_scanned,
            accel_blocks_scanned: self.accel_blocks_scanned - e.accel_blocks_scanned,
            accel_blocks_pruned: self.accel_blocks_pruned - e.accel_blocks_pruned,
            accel_rows_inserted: self.accel_rows_inserted - e.accel_rows_inserted,
            accel_versions_groomed: self.accel_versions_groomed - e.accel_versions_groomed,
            plan_cache_hits: self.plan_cache_hits - e.plan_cache_hits,
            plan_cache_misses: self.plan_cache_misses - e.plan_cache_misses,
            host_rows_scanned: self.host_rows_scanned - e.host_rows_scanned,
            host_index_lookups: self.host_index_lookups - e.host_index_lookups,
            host_statements: self.host_statements - e.host_statements,
            link: self.link.since(&e.link),
            virt: self.virt.saturating_sub(e.virt),
        }
    }

    pub fn add(&mut self, o: &Counters) {
        self.accel_rows_scanned += o.accel_rows_scanned;
        self.accel_blocks_scanned += o.accel_blocks_scanned;
        self.accel_blocks_pruned += o.accel_blocks_pruned;
        self.accel_rows_inserted += o.accel_rows_inserted;
        self.accel_versions_groomed += o.accel_versions_groomed;
        self.plan_cache_hits += o.plan_cache_hits;
        self.plan_cache_misses += o.plan_cache_misses;
        self.host_rows_scanned += o.host_rows_scanned;
        self.host_index_lookups += o.host_index_lookups;
        self.host_statements += o.host_statements;
        self.link.merge(&o.link);
        self.virt += o.virt;
    }
}

/// Durable-log growth seen from outside. `DurableStore::log_bytes` is the
/// *retained* size and drops when a checkpoint truncates, so an op during
/// which it shrank contributes nothing to `appended` (a lower bound that
/// repeats exactly, because checkpoints fire on the virtual clock).
#[derive(Debug, Default)]
pub struct LogWatch {
    last_bytes: u64,
    last_checkpoint: Option<Duration>,
    pub appended: u64,
    pub checkpoints: u64,
}

impl LogWatch {
    /// Re-read the store; returns the bytes appended since the last poll,
    /// or `None` if a checkpoint truncated in between.
    pub fn poll(&mut self, idaa: &Idaa) -> Option<u64> {
        let d = idaa.accel().durable();
        let (bytes, cp) = (d.log_bytes(), d.last_checkpoint_at());
        if cp != self.last_checkpoint {
            self.checkpoints += 1;
            self.last_checkpoint = cp;
        }
        let delta = bytes.checked_sub(self.last_bytes);
        self.last_bytes = bytes;
        self.appended += delta.unwrap_or(0);
        delta
    }
}

/// What one timed phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    pub rounds: u64,
    pub wall: Duration,
    /// Latency of every round, probes excluded.
    pub round_ns: Vec<u64>,
    /// Per class: latency of every op.
    pub class_ns: Vec<Vec<u64>>,
    /// Per class: rows the ops reported as affected.
    pub class_rows: Vec<u64>,
    /// Named timings outside the class list (groom cycle, restart).
    pub extra_ns: BTreeMap<&'static str, Vec<u64>>,
    /// Product counters over the phase, probes subtracted.
    pub counters: Counters,
    pub log_appended: u64,
    pub checkpoints: u64,
}

pub struct Exec {
    pub classes: &'static [&'static str],
    pub tracing: bool,
    pub spans: SpanLog,
    /// False during warm-up and verification: ops run and failures count,
    /// but no latency is recorded.
    recording: bool,
    pub round: u64,
    /// The current round is replayed below the facade.
    pub probing: bool,
    probe_ns_in_round: u64,
    /// Open class group: statements add into one class sample.
    group_ns: Option<u64>,
    phase: Phase,
    pub attempted: u64,
    pub failed: u64,
    /// First few failure messages, for the report.
    pub errors: Vec<String>,
    /// Span of the statement the probes hang under.
    pub cur_stmt: usize,
    /// Counter movement caused by probes (subtracted from phase totals).
    pub probe_counters: Counters,
    pub log: LogWatch,
    /// Private link and registry for the `netsim`/`obs` probes, so the
    /// system's own metrics never see a probe.
    pub probe_link: NetLink,
    pub probe_registry: MetricsRegistry,
    /// `(log bytes, user bytes)` of probed accelerator INSERT…SELECTs.
    pub insert_select_bytes: (u64, u64),
    /// Per class: `ExecMode::Interpreted` replays still to run.
    pub interpreted_left: Vec<u32>,
}

impl Exec {
    pub fn new(classes: &'static [&'static str]) -> Exec {
        Exec {
            classes,
            tracing: false,
            spans: SpanLog::default(),
            recording: false,
            round: 0,
            probing: false,
            probe_ns_in_round: 0,
            group_ns: None,
            phase: Phase::default(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            cur_stmt: 0,
            probe_counters: Counters::default(),
            log: LogWatch::default(),
            probe_link: NetLink::new(LinkConfig::default()),
            probe_registry: MetricsRegistry::default(),
            insert_select_bytes: (0, 0),
            interpreted_left: vec![probes::INTERPRETED_REPLAYS; classes.len()],
        }
    }

    pub fn class_id(&self, name: &str) -> usize {
        self.classes.iter().position(|c| *c == name).expect("class is declared by the workload")
    }

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }

    /// An answer check: counts as one attempt, and as a failure on a miss.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    fn record(&mut self, class: usize, ns: u64, rows: u64) {
        if !self.recording {
            return;
        }
        self.phase.class_rows[class] += rows;
        match &mut self.group_ns {
            Some(sum) => *sum += ns,
            None => self.phase.class_ns[class].push(ns),
        }
    }

    /// Statements until [`Exec::group_end`] form one op of their class
    /// (`txn_2pc` is BEGIN … COMMIT).
    pub fn group_begin(&mut self) {
        self.group_ns = Some(0);
    }

    pub fn group_end(&mut self, class: usize) {
        if let Some(ns) = self.group_ns.take() {
            if self.recording {
                self.phase.class_ns[class].push(ns);
            }
        }
    }

    /// One SQL statement of `class` through the facade, which must route it
    /// to `want` (if any). An `Err` or a wrong route is a failure.
    pub fn sql(
        &mut self,
        idaa: &Idaa,
        s: &mut Session,
        class: usize,
        sql: &str,
        want: Option<Route>,
    ) -> Option<ExecOutcome> {
        self.sql_marked(idaa, s, class, sql, want, "stmt")
    }

    /// [`Exec::sql`] whose statement span is called `mark` (must start
    /// with `stmt`), so one statement inside a class can be told apart.
    pub fn sql_marked(
        &mut self,
        idaa: &Idaa,
        s: &mut Session,
        class: usize,
        sql: &str,
        want: Option<Route>,
        mark: &'static str,
    ) -> Option<ExecOutcome> {
        self.attempted += 1;
        let (result, ns, parsed) = if self.tracing {
            let cname = self.classes[class];
            let st = self.spans.open(mark, cname, self.round, None, false);
            let p = self.spans.open("sql.parse", cname, self.round, Some(st), false);
            let parsed = idaa_sql::parse_statement(sql);
            self.spans.close(p);
            let result = match &parsed {
                Ok(stmt) => {
                    let e =
                        self.spans.open("core.execute_stmt", cname, self.round, Some(st), false);
                    let r = idaa.execute_stmt(s, stmt);
                    self.spans.close(e);
                    r
                }
                Err(e) => Err(e.clone()),
            };
            let ns = self.spans.close(st);
            self.cur_stmt = st;
            (result, ns, parsed.ok())
        } else {
            let t = Instant::now();
            let result = idaa.execute(s, sql);
            (result, t.elapsed().as_nanos() as u64, None)
        };
        let log_delta = self.log.poll(idaa);
        match result {
            Ok(out) => {
                self.record(class, ns, out.count() as u64);
                if want.is_some_and(|w| w != out.route) {
                    self.fail(format!("{sql:.80}: routed {:?}, expected {want:?}", out.route));
                }
                if let (true, Some(stmt)) = (self.probing, &parsed) {
                    self.spans.spans[self.cur_stmt].qty = out.count() as u64;
                    self.probed(idaa, |x| probes::replay(x, idaa, s, stmt, &out, log_delta));
                }
                Some(out)
            }
            Err(e) => {
                self.record(class, ns, 0);
                self.fail(format!("{sql:.80}: {e}"));
                None
            }
        }
    }

    /// One non-SQL op of `class` (a `Loader::load`, a prepared execution
    /// through the `Server`): in a traced run it becomes a `stmt` span with
    /// the single child `layer`. `f` returns the rows it affected.
    pub fn op(
        &mut self,
        idaa: &Idaa,
        class: usize,
        layer: &'static str,
        f: impl FnOnce() -> idaa_common::Result<u64>,
    ) -> bool {
        self.attempted += 1;
        let (result, ns) = self.timed(self.classes[class], layer, f);
        self.log.poll(idaa);
        match result {
            Ok(rows) => {
                self.record(class, ns, rows);
                true
            }
            Err(e) => {
                self.record(class, ns, 0);
                self.fail(format!("{layer} ({}): {e}", self.classes[class]));
                false
            }
        }
    }

    /// A timed step filed under `name` rather than as a class sample: the
    /// background groom cycle (no class), or the restart inside an open
    /// `crash_recover` group (whose sum it joins). Either way it is part of
    /// the round.
    pub fn extra<T>(
        &mut self,
        idaa: &Idaa,
        class: Option<usize>,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let (out, ns) = self.timed(class.map_or("-", |c| self.classes[c]), name, f);
        self.log.poll(idaa);
        if self.recording {
            self.phase.extra_ns.entry(name).or_default().push(ns);
            if let Some(sum) = &mut self.group_ns {
                *sum += ns;
            }
        }
        out
    }

    fn timed<T>(
        &mut self,
        class: &'static str,
        layer: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        if self.tracing {
            let st = self.spans.open("stmt", class, self.round, None, false);
            let l = self.spans.open(layer, class, self.round, Some(st), false);
            let out = f();
            self.spans.close(l);
            let ns = self.spans.close(st);
            self.cur_stmt = st;
            (out, ns)
        } else {
            let t = Instant::now();
            let out = f();
            (out, t.elapsed().as_nanos() as u64)
        }
    }

    /// Run probe code: its wall time is taken out of the round and its
    /// counter movement out of the phase totals.
    pub fn probed(&mut self, idaa: &Idaa, f: impl FnOnce(&mut Exec)) {
        if !self.probing {
            return;
        }
        let before = Counters::read(idaa);
        let t = Instant::now();
        f(self);
        self.probe_ns_in_round += t.elapsed().as_nanos() as u64;
        self.probe_counters.add(&Counters::read(idaa).since(&before));
    }

    /// Open a probe span under the current statement.
    pub fn probe_open(&mut self, name: &'static str) -> usize {
        let parent = &self.spans.spans[self.cur_stmt];
        let (class, round) = (parent.class, parent.round);
        self.spans.open(name, class, round, Some(self.cur_stmt), true)
    }

    /// Close a probe span, filing `qty` (bytes or rows of work) with it.
    pub fn probe_close(&mut self, id: usize, qty: u64) {
        self.spans.close(id);
        self.spans.spans[id].qty = qty;
    }

    /// Run rounds `first..first + n` of `w` as one timed phase.
    pub fn run_phase(&mut self, w: &mut dyn Workload, first: u64, n: u64, tracing: bool) -> Phase {
        self.tracing = tracing;
        self.recording = true;
        self.phase = Phase {
            class_ns: vec![Vec::new(); self.classes.len()],
            class_rows: vec![0; self.classes.len()],
            ..Phase::default()
        };
        self.probe_counters = Counters::default();
        self.log.poll(w.idaa());
        (self.log.appended, self.log.checkpoints) = (0, 0);
        let (before, t0) = (Counters::read(w.idaa()), Instant::now());
        let mut probe_total = 0u64;
        for i in first..first + n {
            self.round = i;
            self.probing = tracing && (i - first).is_multiple_of(PROBE_EVERY);
            self.probe_ns_in_round = 0;
            let round_start = Instant::now();
            w.round(self, i);
            let ns = round_start.elapsed().as_nanos() as u64;
            self.phase.round_ns.push(ns - self.probe_ns_in_round.min(ns));
            probe_total += self.probe_ns_in_round;
        }
        let mut phase = std::mem::take(&mut self.phase);
        phase.rounds = n;
        phase.wall = t0.elapsed().saturating_sub(Duration::from_nanos(probe_total));
        phase.counters = Counters::read(w.idaa()).since(&before).since(&self.probe_counters);
        phase.log_appended = self.log.appended;
        phase.checkpoints = self.log.checkpoints;
        self.recording = false;
        self.probing = false;
        self.tracing = false;
        phase
    }

    /// Untimed rounds: fill the plan cache, dictionaries and memos.
    pub fn warm_up(&mut self, w: &mut dyn Workload, first: u64, n: u64) {
        for i in first..first + n {
            self.round = i;
            w.round(self, i);
        }
    }
}

/// `VmHWM` of this process in MiB (0 where `/proc` is absent).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
