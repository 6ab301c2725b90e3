//! The federated system facade — "DB2 + IDAA" as one object.
//!
//! [`Idaa`] owns the host engine, the accelerator nodes (each with its
//! engine, metered link, and replication applier), and the
//! stored-procedure registry. [`Idaa::execute`] is the single SQL entry
//! point an application sees: it parses, opens the statement's trace span,
//! hands the statement to `dispatch` (plan, [`Idaa::authorize`] on the
//! host, route, run), and autocommits. What happens below that lives in the
//! sibling modules: `transfer` meters every byte that crosses a link, `txn`
//! coordinates two-phase commit when a transaction touched both sides, `recovery`
//! judges node readiness and drives restarts.

use crate::fleet::{on_accelerator, AccelNode, FleetConfig, FleetState};
use crate::procedures::{system_procedures, Procedure};
use crate::router::Route;
use crate::session::{Orphans, Session};
use crate::transfer::Message;
use idaa_accel::{AccelConfig, AccelEngine, RestartStats};
use idaa_common::trace::{SpanId, StatementTrace, Trace, TraceSink};
use idaa_common::wire;
use idaa_common::{Error, MetricsRegistry, ObjectName, Result, Row, Rows, Value};
use idaa_host::{Granted, HostEngine, Lsn, TableKind, SYSADM};
use idaa_netsim::{Direction, FaultRegistry, NetLink, SitePlan};
use idaa_sql::ast::Statement;
use idaa_sql::Privilege;
use idaa_sql::{parse_statement, parse_statements};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// System-wide configuration.
#[derive(Debug, Clone)]
pub struct IdaaConfig {
    /// Default schema for unqualified names (shared by both engines).
    pub default_schema: String,
    /// Accelerator tunables.
    pub accel: AccelConfig,
    /// Replication batch size (change records per shipped batch).
    pub replication_batch: usize,
    /// Drain the CDC log to the accelerator after every commit.
    pub auto_replicate: bool,
    /// Virtual-clock interval between periodic accelerator checkpoints
    /// (drives how much commit log a crash must replay — experiment E16
    /// sweeps it).
    pub checkpoint_every: Duration,
    /// Virtual-clock interval between background storage-scrub steps on
    /// each accelerator (re-verifying durable checksums between
    /// statements, so latent bit-rot is repaired before recovery reads
    /// it). `Duration::ZERO` — the default — disables the scrub;
    /// experiment E21 sweeps this knob.
    pub scrub_every: Duration,
    /// Fleet topology (accelerator count, AOT shards, replication factor).
    /// The default is the paper's single-accelerator pairing.
    pub fleet: FleetConfig,
}

impl Default for IdaaConfig {
    fn default() -> Self {
        IdaaConfig {
            default_schema: "APP".into(),
            accel: AccelConfig::default(),
            replication_batch: 1024,
            auto_replicate: true,
            checkpoint_every: Duration::from_millis(25),
            scrub_every: Duration::ZERO,
            fleet: FleetConfig::default(),
        }
    }
}

/// Failure-injection surface for tests and experiments.
///
/// Every injected failure — link drops and outage windows, crash sites,
/// protocol sites like
/// [`PREPARE_VOTE_NO`](idaa_netsim::sites::PREPARE_VOTE_NO), storage
/// faults — is a named site in one [`SitePlan`] on the node's one
/// [`FaultRegistry`], which replays the same firings for a given seed.
/// Node 0's registry is shared by the coordinator, the accelerator engine
/// and the link, so a single plan drives all three.
#[derive(Debug, Default)]
pub struct Faults {
    /// Simulate a *stopped* accelerator (operator ran ACCEL_STOP, or the
    /// appliance is down): offload-eligible queries fall back to DB2,
    /// while statements that require the accelerator (AOTs, ALL mode)
    /// fail with SQLCODE -904 (resource unavailable).
    pub accel_unavailable: AtomicBool,
    /// Node 0's named-site failure registry (link, crash, protocol and
    /// storage sites). Arm a one-shot with [`FaultRegistry::arm`] or
    /// install a seeded [`SitePlan`] via [`Idaa::set_fault_plan`].
    pub registry: Arc<FaultRegistry>,
}

/// What a statement produced.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// A result set.
    Rows(Rows),
    /// An affected-row count.
    Count(usize),
    /// Nothing (DDL, transaction control, SET).
    None,
}

/// Result of one statement: where it ran and what it returned.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecOutcome {
    pub route: Route,
    pub payload: Payload,
}

impl ExecOutcome {
    pub(crate) fn host(payload: Payload) -> ExecOutcome {
        ExecOutcome { route: Route::Host, payload }
    }

    pub(crate) fn accel(payload: Payload) -> ExecOutcome {
        ExecOutcome { route: Route::Accelerator, payload }
    }

    /// The result set, if any.
    pub fn rows(&self) -> Option<&Rows> {
        match &self.payload {
            Payload::Rows(r) => Some(r),
            _ => None,
        }
    }

    /// The affected-row count (0 for non-DML).
    pub fn count(&self) -> usize {
        match &self.payload {
            Payload::Count(n) => *n,
            _ => 0,
        }
    }
}

/// Scheduling context the workload manager attaches to a statement it
/// admits: recorded as a zero-duration "queue" event under the statement's
/// root span, so traces show how long the statement waited and in which
/// admission round it ran. Plain (serverless) callers never carry one.
#[derive(Debug, Clone)]
pub struct QueueInfo {
    /// Deterministic 1-based server seat (connect order), *not* the
    /// `Session::id`.
    pub seat: u64,
    /// Priority class name at admission.
    pub priority: &'static str,
    /// Virtual time the statement spent queued before admission.
    pub queued: Duration,
    /// Scheduler round (1-based) that admitted the statement.
    pub round: u64,
}

/// The federated DB2 + accelerator system.
///
/// The accelerator side is a *fleet* of one or more [`AccelNode`]s, each
/// behind its own metered link and fault registry; the paper's single
/// accelerator is the default fleet of one. Every statement follows the same
/// placement rule (see [`crate::fleet`]): tables that live whole on their
/// owners are served by one exchange per owner, and only a shard count above
/// one scatters accelerator-only tables and gathers at the coordinator.
pub struct Idaa {
    pub(crate) host: Arc<HostEngine>,
    /// The accelerator fleet; node 0's link carries the coordinator's clock.
    pub(crate) nodes: Vec<Arc<AccelNode>>,
    /// Shard placement, failover, and catch-up bookkeeping.
    pub(crate) fleet: FleetState,
    pub(crate) procedures: RwLock<HashMap<ObjectName, Arc<dyn Procedure>>>,
    pub(crate) config: IdaaConfig,
    pub faults: Faults,
    /// Collected statement traces (query-lifecycle span trees on the
    /// virtual clock).
    tracer: Arc<TraceSink>,
    /// Sessions numbered so far: each `Idaa` numbers its own from 1.
    sessions: AtomicU64,
    /// The units of work dropped sessions left open, for the next statement.
    pub(crate) orphans: Orphans,
    /// This system's monotone counters and gauges, the one home of every
    /// count: each node's link counts its delivered and failed traffic
    /// here (`link.*` for node 0, `link.node{i}.*` for the rest), and each
    /// engine its storage faults (`disk.*`, summed over the fleet).
    pub(crate) metrics: MetricsRegistry,
}

impl Default for Idaa {
    fn default() -> Self {
        Idaa::new(IdaaConfig::default())
    }
}

impl Idaa {
    /// Build the system and register the IDAA system procedures.
    pub fn new(config: IdaaConfig) -> Idaa {
        let faults = Faults::default();
        let metrics = MetricsRegistry::default();
        let nodes: Vec<Arc<AccelNode>> = (0..config.fleet.accelerators.max(1))
            .map(|i| {
                // Node 0 shares the public `faults.registry`; every other
                // node gets its own seeded registry.
                let registry = if i == 0 {
                    faults.registry.clone()
                } else {
                    Arc::new(FaultRegistry::default())
                };
                AccelNode::new(i, &config, registry, &metrics)
            })
            .collect();
        let idaa = Idaa {
            host: Arc::new(HostEngine::new(&config.default_schema)),
            nodes,
            fleet: FleetState::new(&config.fleet),
            procedures: RwLock::new(HashMap::new()),
            tracer: Arc::new(TraceSink::default()),
            sessions: AtomicU64::new(0),
            orphans: Orphans::default(),
            metrics,
            config,
            faults,
        };
        // The built-in procedures have distinct names and belong to SYSADM.
        for p in system_procedures() {
            idaa.host.privileges.write().set_owner(p.name(), SYSADM);
            idaa.procedures.write().insert(p.name(), Arc::from(p));
        }
        idaa
    }

    /// Open a session for `user`. When the system's [`TraceSink`] is
    /// enabled (the default), the session records a query-lifecycle span
    /// tree per statement, stamped with the link's virtual clock.
    pub fn session(&self, user: &str) -> Session {
        let mut s = Session::new(self.next_session_id(), user, &self.orphans);
        if self.tracer.enabled() {
            s.trace = Trace::enabled();
        }
        s
    }

    /// The next session id of this system.
    pub(crate) fn next_session_id(&self) -> u64 {
        self.sessions.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The statement-trace collector.
    pub fn tracer(&self) -> &TraceSink {
        &self.tracer
    }

    /// This system's metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The host engine (DB2 side).
    pub fn host(&self) -> &HostEngine {
        &self.host
    }

    /// The accelerator engine of node 0, for tests, experiments and the
    /// benchmark. It is one node's copy, not the table: product code reads
    /// and writes accelerator tables through the placement-aware entry
    /// points (`scan_accel_table`, `write_output_aot`, `load_direct`).
    pub fn accel(&self) -> &AccelEngine {
        &self.nodes[0].engine
    }

    /// The metered host↔accelerator link (node 0 of the fleet).
    pub fn link(&self) -> &NetLink {
        &self.nodes[0].link
    }

    /// The coordinator's health view of the accelerator (node 0).
    pub fn health(&self) -> &crate::health::HealthMonitor {
        &self.nodes[0].health
    }

    /// Install a seeded fault plan on node 0's registry: named link,
    /// crash, protocol and storage sites fire deterministically per seed.
    pub fn set_fault_plan(&self, plan: SitePlan) {
        self.faults.registry.set_plan(plan);
    }

    /// Stats of the most recent accelerator crash recovery, if any.
    pub fn last_restart(&self) -> Option<RestartStats> {
        *self.nodes[0].last_restart.lock()
    }

    /// COMMIT decisions queued on node 0 for its next message.
    pub fn pending_accel_commits(&self) -> usize {
        self.nodes[0].pending_commits.lock().len()
    }

    /// Deliver every node's queued COMMIT decisions, each node's on one
    /// message of its own: a check that reads a node engine directly needs
    /// them, which otherwise wait for the node's next message.
    pub fn flush_commit_decisions(&self) {
        self.nodes.iter().for_each(|node| self.flush_pending_commits_on(node));
    }

    /// In-doubt transactions the 2PC resolver recovered (diagnostics).
    pub fn in_doubt_resolved(&self) -> u64 {
        self.metrics.counter("twopc.in_doubt_resolved")
    }

    /// Statements redelivered after a lost reply and discarded as
    /// duplicates by the receiver's sequence tracker (diagnostics).
    pub fn statements_deduped(&self) -> u64 {
        self.metrics.counter("exchange.deduped")
    }

    /// Committed change records not yet applied on the accelerator.
    pub fn replication_backlog(&self) -> usize {
        let watermark = self.nodes[0].replicator.lock().last_applied();
        self.host.txns.changes_since(watermark).len()
    }

    /// Default schema for unqualified names.
    pub fn default_schema(&self) -> &str {
        &self.config.default_schema
    }

    /// DB2's one authorization step, before any other work of a request:
    /// each distinct (object, privilege) pair `user` holds becomes one
    /// `privilege` event on `trace` and one [`Granted`], in order; the first
    /// pair it lacks fails the request with -551.
    pub fn authorize<'a>(
        &self,
        user: &str,
        trace: &Trace,
        wants: impl IntoIterator<Item = (&'a ObjectName, Privilege)>,
    ) -> Result<Vec<Granted>> {
        let privs = self.host.privileges.read();
        let mut grants: Vec<Granted> = Vec::new();
        for (object, privilege) in wants {
            if !grants.iter().any(|g| g.covers(object, privilege)) {
                grants.push(privs.check(user, object, privilege)?);
                let now = self.link().now();
                trace.event("privilege", &[("object", object), ("priv", &privilege)], now);
            }
        }
        Ok(grants)
    }

    /// [`Idaa::authorize`] of one pair for the session's user.
    pub fn authorize_one(&self, s: &Session, object: &ObjectName, p: Privilege) -> Result<Granted> {
        self.authorize(&s.user, &s.trace, [(object, p)]).map(|mut grants| grants.remove(0))
    }

    /// Undo, as SYSADM, a table this request created but could not fill.
    pub(crate) fn discard_table(&self, name: &ObjectName) {
        let grant = self.authorize(SYSADM, &Trace::disabled(), [(name, Privilege::All)]);
        let _ = grant.and_then(|g| self.host.drop_table(&g[0]));
    }

    /// Register a stored procedure owned by `owner` (analytics framework
    /// deployment path).
    pub fn register_procedure(&self, proc: Arc<dyn Procedure>, owner: &str) -> Result<()> {
        let name = proc.name();
        let mut procs = self.procedures.write();
        if procs.contains_key(&name) {
            return Err(Error::AlreadyExists(format!("procedure {name} already registered")));
        }
        self.host.privileges.write().set_owner(name.clone(), owner);
        procs.insert(name, proc);
        Ok(())
    }

    /// GROOM (`ACCEL_GROOM_TABLES`): reclaim the row versions below DB2's
    /// oldest live snapshot from `table`'s local tables on every owner, or
    /// from every table on the accelerator when `table` is `None`. Returns
    /// versions reclaimed.
    pub fn accel_groom(&self, trace: &Trace, table: Option<&ObjectName>) -> Result<usize> {
        let horizon = self.host.txns.oldest_live();
        let names = table.map_or_else(|| self.host.table_names(), |t| vec![t.clone()]);
        let mut groomed = 0;
        for name in names {
            let meta = self.host.table_meta(&name)?;
            if table.is_some() || on_accelerator(&meta) {
                self.on_placement(trace, (&meta.name, meta.kind), || Ok(()), |node, local| {
                    self.flush_pending_commits_on(node);
                    groomed += node.engine.groom(local, horizon)?;
                    Ok(())
                })?;
            }
        }
        Ok(groomed)
    }

    /// Snapshot-load an accelerated table (ACCEL_LOAD_TABLES body): copy
    /// its committed rows to every node and enable replication. Every node
    /// must take the copy, or the table stays unloaded.
    pub fn load_accelerated_table(&self, trace: &Trace, table: &ObjectName) -> Result<usize> {
        let meta = self.host.table_meta(table)?;
        if meta.kind != TableKind::Regular {
            return Err(Error::InvalidAcceleratorUse(format!(
                "{table} is accelerator-only and cannot be loaded from DB2"
            )));
        }
        if meta.accel_status == idaa_host::AccelStatus::NotAccelerated {
            return Err(Error::UndefinedObject(format!(
                "table {table} has not been added to the accelerator (ACCEL_ADD_TABLES)"
            )));
        }
        // Bring the replication watermark up to now *before* the snapshot,
        // so changes committed before the load are not double-applied.
        self.replicate_now()?;
        let (mut n, mut read) = (0, None);
        let missed = self.on_placement(trace, (&meta.name, meta.kind), || Ok(()), |node, _| {
            n = self.copy_replica(node, &meta, &mut read, true)?;
            Ok(())
        })?;
        if let Some(node) = missed.first() {
            let reason = format!("accelerator node {node} missed the load of {}", meta.name);
            return Err(Error::ResourceUnavailable(reason));
        }
        self.host.set_accel_status(&meta.name, idaa_host::AccelStatus::Loaded)?;
        Ok(n)
    }

    /// Copy the accelerated DB2 table `meta` to `node` (replacing its rows
    /// when `reload`): one frame, a load at the LSN of `read` — the one
    /// locked DB2 read, taken under the first copy's load transaction — and
    /// an ack.
    pub(crate) fn copy_replica(
        &self,
        node: &AccelNode,
        meta: &idaa_host::TableMeta,
        read: &mut Option<(Vec<Row>, Lsn)>,
        reload: bool,
    ) -> Result<usize> {
        let txn = self.host.txns.next_id();
        let (rows, lsn) = match read {
            Some(read) => &*read,
            None => read.insert(self.host.read_table_at(txn, &meta.name)?),
        };
        let trace = &Trace::disabled();
        let delivered = self.ship_rows(node, trace, Direction::ToAccel, &meta.schema, rows, (0, 0))?;
        if reload {
            node.engine.truncate(&meta.name)?;
        }
        let n = node.engine.load_committed(txn, &meta.name, delivered, *lsn)?;
        node.copies.lock().insert(meta.name.clone(), *lsn);
        self.send(node, trace, Direction::ToHost, "control", Message::Control(wire::ACK_FRAME))?;
        Ok(n)
    }

    /// Drain committed changes to the accelerator now.
    ///
    /// Delivery failures do not error: the replicator leaves the watermark
    /// on the last *acknowledged* batch and catches up on a later round, so
    /// a link outage can never fail a host commit. Only engine errors
    /// (always a bug) propagate.
    pub fn replicate_now(&self) -> Result<usize> {
        if self.nodes.iter().all(|n| n.engine.is_crashed()) {
            // Nothing can apply while every accelerator is down: leave the
            // backlog queued in the host log and let recovery catch up.
            for node in &self.nodes {
                node.health.force_offline();
            }
            return Ok(0);
        }
        let mut total = 0usize;
        let mut watermarks = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            if node.engine.is_crashed() {
                // This stream's backlog stays queued in the host log (the
                // log only truncates at the *minimum* watermark below) and
                // re-applies after recovery.
                node.health.force_offline();
                watermarks.push(node.replicator.lock().last_applied());
                continue;
            }
            let mut rep = node.replicator.lock();
            let applied = rep.apply(&self.host, &node.engine, &node.link)?;
            total += applied;
            if rep.stalled() {
                if node.engine.is_crashed() {
                    // The accelerator crashed mid-apply (a crash site
                    // fired): the unacknowledged batch re-applies after
                    // recovery.
                    node.health.force_offline();
                } else {
                    node.health.record_failure();
                }
            }
            watermarks.push(rep.last_applied());
        }
        self.metrics.inc("replication.applied", total as u64);
        // Every node owns a replication stream, so the host log may only
        // truncate at the minimum watermark across all of them — a lagging
        // (or crashed) node must still find its backlog.
        if let Some(min) = watermarks.into_iter().min() {
            self.host.txns.truncate_log(min);
        }
        Ok(total)
    }

    /// Execute one SQL statement.
    pub fn execute(&self, session: &mut Session, sql: &str) -> Result<ExecOutcome> {
        let stmt = parse_statement(sql)?;
        self.execute_stmt(session, &stmt)
    }

    /// Execute a semicolon-separated script, stopping at the first error.
    pub fn execute_script(&self, session: &mut Session, sql: &str) -> Result<Vec<ExecOutcome>> {
        parse_statements(sql)?
            .iter()
            .map(|s| self.execute_stmt(session, s))
            .collect()
    }

    /// Execute a query and return its rows (errors if the statement does
    /// not produce a result set).
    pub fn query(&self, session: &mut Session, sql: &str) -> Result<Rows> {
        match self.execute(session, sql)?.payload {
            Payload::Rows(r) => Ok(r),
            other => Err(Error::TypeMismatch(format!(
                "statement did not produce a result set ({other:?})"
            ))),
        }
    }

    /// Execute one SQL statement with `?` parameter markers bound to
    /// `params` (prepared-statement style).
    pub fn execute_with_params(
        &self,
        session: &mut Session,
        sql: &str,
        params: &[Value],
    ) -> Result<ExecOutcome> {
        let stmt = parse_statement(sql)?;
        let bound = idaa_sql::params::bind_statement(&stmt, params)?;
        self.execute_stmt(session, &bound)
    }

    /// Execute an already-parsed statement.
    pub fn execute_stmt(&self, session: &mut Session, stmt: &Statement) -> Result<ExecOutcome> {
        self.execute_stmt_queued(session, stmt, None)
    }

    /// [`Idaa::execute_stmt`] with optional workload-manager context: when
    /// the server admits a queued statement it passes the admission facts
    /// here so the root span carries a "queue" event.
    pub(crate) fn execute_stmt_queued(
        &self,
        session: &mut Session,
        stmt: &Statement,
        queue: Option<&QueueInfo>,
    ) -> Result<ExecOutcome> {
        // Only the outermost statement owns the root "statement" span;
        // statements executed re-entrantly (procedures, EXPLAIN ANALYZE)
        // add their spans under whatever is already open.
        let trace = session.trace.clone();
        let root = if trace.is_enabled() && !trace.in_statement() {
            let id = trace.begin("statement", self.link().now());
            trace.attr(id, "sql", stmt);
            // Parsing consumes no virtual time — a zero-duration event.
            trace.event("parse", &[], self.link().now());
            if let Some(q) = queue {
                // Admission is also instantaneous *at* execution: the wait
                // already elapsed on the virtual clock while predecessors
                // ran, so the event only records it.
                let queued_us = q.queued.as_micros() as u64;
                trace.event(
                    "queue",
                    &[
                        ("seat", &q.seat),
                        ("priority", &q.priority),
                        ("queued_us", &queued_us),
                        ("round", &q.round),
                    ],
                    self.link().now(),
                );
            }
            Some(id)
        } else {
            None
        };
        // Units of work dropped sessions left open roll back first, with no
        // one left to report a failure to; this session's unit begins here.
        let orphans = std::mem::take(&mut *self.orphans.lock());
        orphans.into_iter().for_each(|unit| drop(self.roll_back(unit)));
        self.unit(session);
        let mut result = self.dispatch(session, stmt);
        // Autocommit unless inside an explicit transaction: on error, roll
        // the implicit transaction back (statement-level atomicity).
        if session.unit.as_ref().is_some_and(|u| !u.explicit) {
            result = match result {
                Ok(out) => self.commit_session(session).map(|()| out),
                Err(e) => self.rollback_session(session).and(Err(e)),
            };
        }
        self.metrics.inc("statements.total", 1);
        match &result {
            Ok(out) => {
                let route = match out.route {
                    Route::Host => "statements.route.host",
                    Route::Accelerator => "statements.route.accel",
                };
                self.metrics.inc(route, 1);
                if let Some(id) = root {
                    trace.attr(id, "route", format!("{:?}", out.route));
                }
                self.finish_statement_trace(session, stmt, root, None);
            }
            Err(e) => {
                self.metrics.inc(&format!("errors.sqlcode.{}", e.sqlcode()), 1);
                self.finish_statement_trace(session, stmt, root, Some(e));
            }
        }
        result
    }

    /// Close a root "statement" span and deliver it to the trace sink.
    fn finish_statement_trace(
        &self,
        session: &Session,
        stmt: &Statement,
        root: Option<SpanId>,
        err: Option<&Error>,
    ) {
        let Some(id) = root else { return };
        if let Some(e) = err {
            session.trace.attr(id, "sqlcode", e.sqlcode());
        }
        if let Some(node) = session.trace.finish(id, self.link().now()) {
            self.tracer.record(StatementTrace {
                session: session.id,
                sql: stmt.to_string(),
                root: node,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::HealthState;
    use idaa_netsim::sites;

    fn sys(idaa: &Idaa) -> Session {
        idaa.session(SYSADM)
    }

    fn setup_sales(idaa: &Idaa, s: &mut Session, rows: usize) {
        idaa.execute(s, "CREATE TABLE SALES (ID INT NOT NULL, REGION VARCHAR(8), AMOUNT DOUBLE)")
            .unwrap();
        let mut values = Vec::new();
        for i in 0..rows {
            values.push(format!(
                "({}, '{}', {}.0E0)",
                i,
                if i % 2 == 0 { "EU" } else { "US" },
                i
            ));
        }
        idaa.execute(s, &format!("INSERT INTO SALES VALUES {}", values.join(", ")))
            .unwrap();
    }

    #[test]
    fn ddl_dml_query_on_host() {
        let idaa = Idaa::default();
        let mut s = sys(&idaa);
        setup_sales(&idaa, &mut s, 10);
        let out = idaa.execute(&mut s, "SELECT COUNT(*) FROM sales").unwrap();
        assert_eq!(out.route, Route::Host);
        assert_eq!(out.rows().unwrap().scalar().unwrap(), &Value::BigInt(10));
        // Nothing crossed the link.
        assert_eq!(idaa.link().metrics().total_bytes(), 0);
    }

    #[test]
    fn acceleration_lifecycle_and_offload() {
        let idaa = Idaa::default();
        let mut s = sys(&idaa);
        setup_sales(&idaa, &mut s, 100);
        idaa.execute(&mut s, "CALL SYSPROC.ACCEL_ADD_TABLES('ACCEL1', 'SALES')").unwrap();
        idaa.execute(&mut s, "CALL SYSPROC.ACCEL_LOAD_TABLES('ACCEL1', 'SALES')").unwrap();
        // Still NONE: stays on host.
        let out = idaa.execute(&mut s, "SELECT SUM(amount) FROM sales").unwrap();
        assert_eq!(out.route, Route::Host);
        // ELIGIBLE: offloads.
        idaa.execute(&mut s, "SET CURRENT QUERY ACCELERATION = ELIGIBLE").unwrap();
        let out = idaa.execute(&mut s, "SELECT SUM(amount) FROM sales").unwrap();
        assert_eq!(out.route, Route::Accelerator);
        assert_eq!(out.rows().unwrap().scalar().unwrap(), &Value::Double(4950.0));
    }

    #[test]
    fn replication_keeps_replica_fresh() {
        let idaa = Idaa::default();
        let mut s = sys(&idaa);
        setup_sales(&idaa, &mut s, 20);
        idaa.execute(&mut s, "CALL ACCEL_ADD_TABLES('SALES')").unwrap();
        idaa.execute(&mut s, "CALL ACCEL_LOAD_TABLES('SALES')").unwrap();
        idaa.execute(&mut s, "SET CURRENT QUERY ACCELERATION = ELIGIBLE").unwrap();
        idaa.execute(&mut s, "INSERT INTO SALES VALUES (999, 'EU', 5.0E0)").unwrap();
        idaa.execute(&mut s, "UPDATE SALES SET AMOUNT = 7.0E0 WHERE ID = 999").unwrap();
        let out = idaa
            .execute(&mut s, "SELECT amount FROM sales WHERE id = 999")
            .unwrap();
        assert_eq!(out.route, Route::Accelerator);
        assert_eq!(out.rows().unwrap().scalar().unwrap(), &Value::Double(7.0));
    }

    #[test]
    fn aot_lifecycle_transforms_without_host_data() {
        let idaa = Idaa::default();
        let mut s = sys(&idaa);
        setup_sales(&idaa, &mut s, 50);
        idaa.execute(&mut s, "CALL ACCEL_ADD_TABLES('SALES')").unwrap();
        idaa.execute(&mut s, "CALL ACCEL_LOAD_TABLES('SALES')").unwrap();
        idaa.execute(&mut s, "SET CURRENT QUERY ACCELERATION = ELIGIBLE").unwrap();
        idaa.execute(
            &mut s,
            "CREATE TABLE STAGE1 (REGION VARCHAR(8), TOTAL DOUBLE) IN ACCELERATOR",
        )
        .unwrap();
        let out = idaa
            .execute(
                &mut s,
                "INSERT INTO STAGE1 SELECT region, SUM(amount) FROM sales GROUP BY region",
            )
            .unwrap();
        assert_eq!(out.route, Route::Accelerator);
        assert_eq!(out.count(), 2);
        let r = idaa.query(&mut s, "SELECT total FROM stage1 ORDER BY region").unwrap();
        assert_eq!(r.len(), 2);
        // The host has no storage for the AOT.
        assert_eq!(idaa.host().scan_count(&ObjectName::bare("STAGE1")), 0);
    }

    #[test]
    fn aot_mixed_with_host_only_table_fails() {
        let idaa = Idaa::default();
        let mut s = sys(&idaa);
        setup_sales(&idaa, &mut s, 5);
        idaa.execute(&mut s, "CREATE TABLE A1 (X INT) IN ACCELERATOR").unwrap();
        let err = idaa
            .execute(&mut s, "SELECT * FROM a1 INNER JOIN sales ON a1.x = sales.id")
            .unwrap_err();
        assert_eq!(err.sqlcode(), -4742);
    }

    #[test]
    fn explicit_txn_with_aot_sees_own_changes_and_commits_atomically() {
        let idaa = Idaa::default();
        let mut s = sys(&idaa);
        idaa.execute(&mut s, "CREATE TABLE W (X INT) IN ACCELERATOR").unwrap();
        idaa.execute(&mut s, "BEGIN").unwrap();
        idaa.execute(&mut s, "INSERT INTO W VALUES (1), (2)").unwrap();
        // Own uncommitted changes visible.
        let r = idaa.query(&mut s, "SELECT COUNT(*) FROM w").unwrap();
        assert_eq!(r.scalar().unwrap(), &Value::BigInt(2));
        // Another session does not see them.
        let mut s2 = sys(&idaa);
        let r2 = idaa.query(&mut s2, "SELECT COUNT(*) FROM w").unwrap();
        assert_eq!(r2.scalar().unwrap(), &Value::BigInt(0));
        idaa.execute(&mut s, "COMMIT").unwrap();
        let r3 = idaa.query(&mut s2, "SELECT COUNT(*) FROM w").unwrap();
        assert_eq!(r3.scalar().unwrap(), &Value::BigInt(2));
    }

    #[test]
    fn rollback_spans_host_and_accelerator() {
        let idaa = Idaa::default();
        let mut s = sys(&idaa);
        idaa.execute(&mut s, "CREATE TABLE HOSTT (X INT)").unwrap();
        idaa.execute(&mut s, "CREATE TABLE AOTT (X INT) IN ACCELERATOR").unwrap();
        idaa.execute(&mut s, "BEGIN").unwrap();
        idaa.execute(&mut s, "INSERT INTO HOSTT VALUES (1)").unwrap();
        idaa.execute(&mut s, "INSERT INTO AOTT VALUES (1)").unwrap();
        idaa.execute(&mut s, "ROLLBACK").unwrap();
        assert_eq!(
            idaa.query(&mut s, "SELECT COUNT(*) FROM hostt").unwrap().scalar().unwrap(),
            &Value::BigInt(0)
        );
        assert_eq!(
            idaa.query(&mut s, "SELECT COUNT(*) FROM aott").unwrap().scalar().unwrap(),
            &Value::BigInt(0)
        );
    }

    #[test]
    fn failed_prepare_rolls_back_everywhere() {
        let idaa = Idaa::default();
        let mut s = sys(&idaa);
        idaa.execute(&mut s, "CREATE TABLE HOSTT (X INT)").unwrap();
        idaa.execute(&mut s, "CREATE TABLE AOTT (X INT) IN ACCELERATOR").unwrap();
        idaa.execute(&mut s, "BEGIN").unwrap();
        idaa.execute(&mut s, "INSERT INTO HOSTT VALUES (1)").unwrap();
        idaa.execute(&mut s, "INSERT INTO AOTT VALUES (1)").unwrap();
        idaa.faults.registry.arm(idaa_netsim::sites::PREPARE_VOTE_NO, 0, 1);
        let err = idaa.execute(&mut s, "COMMIT").unwrap_err();
        assert!(matches!(err, Error::CommitFailed(_)));

        assert_eq!(
            idaa.query(&mut s, "SELECT COUNT(*) FROM hostt").unwrap().scalar().unwrap(),
            &Value::BigInt(0)
        );
        assert_eq!(
            idaa.query(&mut s, "SELECT COUNT(*) FROM aott").unwrap().scalar().unwrap(),
            &Value::BigInt(0)
        );
    }

    #[test]
    fn governance_checked_before_delegation() {
        let idaa = Idaa::default();
        let mut admin = sys(&idaa);
        idaa.execute(&mut admin, "CREATE TABLE SECRETS (X INT) IN ACCELERATOR").unwrap();
        idaa.execute(&mut admin, "INSERT INTO SECRETS VALUES (42)").unwrap();
        let mut bob = idaa.session("BOB");
        let err = idaa.query(&mut bob, "SELECT * FROM secrets").unwrap_err();
        assert_eq!(err.sqlcode(), -551);
        let err = idaa.execute(&mut bob, "DELETE FROM secrets").unwrap_err();
        assert_eq!(err.sqlcode(), -551);
        idaa.execute(&mut admin, "GRANT SELECT ON SECRETS TO BOB").unwrap();
        let r = idaa.query(&mut bob, "SELECT * FROM secrets").unwrap();
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn call_requires_execute_privilege() {
        let idaa = Idaa::default();
        let mut bob = idaa.session("BOB");
        let err = idaa
            .execute(&mut bob, "CALL SYSPROC.ACCEL_GROOM_TABLES()")
            .unwrap_err();
        assert_eq!(err.sqlcode(), -551);
        let mut admin = sys(&idaa);
        idaa.execute(&mut admin, "GRANT EXECUTE ON SYSPROC.ACCEL_GROOM_TABLES TO BOB")
            .unwrap();
        idaa.execute(&mut bob, "CALL SYSPROC.ACCEL_GROOM_TABLES()").unwrap();
    }

    #[test]
    fn unknown_procedure_errors() {
        let idaa = Idaa::default();
        let mut s = sys(&idaa);
        let err = idaa.execute(&mut s, "CALL NO_SUCH_PROC(1)").unwrap_err();
        assert_eq!(err.sqlcode(), -204);
    }

    #[test]
    fn insert_select_from_host_to_aot_moves_data_once() {
        let idaa = Idaa::default();
        let mut s = sys(&idaa);
        setup_sales(&idaa, &mut s, 30);
        // SALES is NOT accelerated: the source query runs on the host and
        // rows must cross the link into the AOT (the pre-AOT baseline path).
        idaa.execute(&mut s, "CREATE TABLE COPYT (ID INT, AMOUNT DOUBLE) IN ACCELERATOR")
            .unwrap();
        let before = idaa.link().metrics();
        let out = idaa
            .execute(&mut s, "INSERT INTO COPYT SELECT id, amount FROM sales")
            .unwrap();
        assert_eq!(out.count(), 30);
        let moved = idaa.link().metrics().since(&before);
        assert!(moved.bytes_to_accel > 30 * 8, "row payload must cross the link");
    }

    #[test]
    fn autocommit_statement_failure_rolls_back() {
        let idaa = Idaa::default();
        let mut s = sys(&idaa);
        idaa.execute(&mut s, "CREATE TABLE T1 (X INT NOT NULL)").unwrap();
        // Multi-row insert where the second row violates NOT NULL.
        let err = idaa.execute(&mut s, "INSERT INTO T1 VALUES (1), (NULL)");
        assert!(err.is_err());
        assert_eq!(
            idaa.query(&mut s, "SELECT COUNT(*) FROM t1").unwrap().scalar().unwrap(),
            &Value::BigInt(0),
            "autocommit statement failure must not leave partial rows"
        );
    }

    #[test]
    fn insert_with_column_list_fills_nulls() {
        let idaa = Idaa::default();
        let mut s = sys(&idaa);
        idaa.execute(&mut s, "CREATE TABLE T2 (A INT, B VARCHAR(4), C INT)").unwrap();
        idaa.execute(&mut s, "INSERT INTO T2 (C, A) VALUES (3, 1)").unwrap();
        let r = idaa.query(&mut s, "SELECT a, b, c FROM t2").unwrap();
        assert_eq!(r.rows[0], vec![Value::Int(1), Value::Null, Value::Int(3)]);
    }

    #[test]
    fn drop_aot_removes_both_sides() {
        let idaa = Idaa::default();
        let mut s = sys(&idaa);
        idaa.execute(&mut s, "CREATE TABLE D1 (X INT) IN ACCELERATOR").unwrap();
        assert!(idaa.accel().has_table(&ObjectName::bare("D1")));
        idaa.execute(&mut s, "DROP TABLE D1").unwrap();
        assert!(!idaa.accel().has_table(&ObjectName::bare("D1")));
        assert!(idaa.host().table_meta(&ObjectName::bare("D1")).is_err());
    }

    #[test]
    fn enable_mode_keeps_small_tables_on_host() {
        let idaa = Idaa::default();
        let mut s = sys(&idaa);
        setup_sales(&idaa, &mut s, 50);
        idaa.execute(&mut s, "CALL ACCEL_ADD_TABLES('SALES')").unwrap();
        idaa.execute(&mut s, "CALL ACCEL_LOAD_TABLES('SALES')").unwrap();
        idaa.execute(&mut s, "SET CURRENT QUERY ACCELERATION = ENABLE").unwrap();
        let out = idaa.execute(&mut s, "SELECT COUNT(*) FROM sales").unwrap();
        assert_eq!(out.route, Route::Host, "50 rows is below the offload threshold");
    }

    #[test]
    fn all_mode_fails_for_non_accelerated() {
        let idaa = Idaa::default();
        let mut s = sys(&idaa);
        setup_sales(&idaa, &mut s, 5);
        idaa.execute(&mut s, "SET CURRENT QUERY ACCELERATION = ALL").unwrap();
        let err = idaa.execute(&mut s, "SELECT COUNT(*) FROM sales").unwrap_err();
        assert_eq!(err.sqlcode(), -4742);
    }

    #[test]
    fn query_fails_over_to_host_when_link_fails_mid_statement() {
        let idaa = Idaa::default();
        let mut s = sys(&idaa);
        setup_sales(&idaa, &mut s, 100);
        idaa.execute(&mut s, "CALL ACCEL_ADD_TABLES('SALES')").unwrap();
        idaa.execute(&mut s, "CALL ACCEL_LOAD_TABLES('SALES')").unwrap();
        idaa.execute(&mut s, "SET CURRENT QUERY ACCELERATION = ELIGIBLE").unwrap();
        // Exhaust the retry budget for the shipped statement.
        idaa.faults.registry.arm(sites::LINK_TRANSFER, 0, 4);
        let out = idaa.execute(&mut s, "SELECT COUNT(*) FROM sales").unwrap();
        assert_eq!(out.route, Route::Host, "statement re-executes locally");
        assert_eq!(out.rows().unwrap().scalar().unwrap(), &Value::BigInt(100));
        assert_eq!(idaa.health().state(), HealthState::Degraded);
        // The link is healthy again: offload resumes and health recovers.
        let out = idaa.execute(&mut s, "SELECT COUNT(*) FROM sales").unwrap();
        assert_eq!(out.route, Route::Accelerator);
        assert_eq!(idaa.health().state(), HealthState::Online);
    }

    #[test]
    fn repeated_failures_take_accelerator_offline_and_recovery_restores_it() {
        let idaa = Idaa::default();
        let mut s = sys(&idaa);
        idaa.execute(&mut s, "CREATE TABLE T (X INT) IN ACCELERATOR").unwrap();
        idaa.set_fault_plan(
            SitePlan::default()
                .seeded(11)
                .and_probabilistic(sites::LINK_DROP_TO_ACCEL, 1.0)
                .and_probabilistic(sites::LINK_DROP_TO_HOST, 1.0),
        );
        for _ in 0..3 {
            let err = idaa.execute(&mut s, "INSERT INTO T VALUES (1)").unwrap_err();
            assert_eq!(err.sqlcode(), -30081);
        }
        assert_eq!(idaa.health().state(), HealthState::Offline);
        // Offline short-circuits: the AOT statement fails without the
        // enlist even being attempted (a probe may fire, but the plan is
        // still dropping everything).
        let err = idaa.execute(&mut s, "SELECT COUNT(*) FROM t").unwrap_err();
        assert_eq!(err.sqlcode(), -30081);
        idaa.faults.registry.clear();
        assert!(idaa.recover());
        assert_eq!(idaa.health().state(), HealthState::Online);
        idaa.execute(&mut s, "INSERT INTO T VALUES (1)").unwrap();
        let r = idaa.query(&mut s, "SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(r.scalar().unwrap(), &Value::BigInt(1));
    }

    #[test]
    fn lost_request_attempts_are_resent_without_duplication() {
        let idaa = Idaa::default();
        let mut s = sys(&idaa);
        idaa.execute(&mut s, "CREATE TABLE SEQT (X INT) IN ACCELERATOR").unwrap();
        // First attempt of each shipped message is lost in flight — the
        // statement never reached the accelerator, so the resend is a
        // first delivery, not a duplicate.
        for i in 0..5 {
            idaa.faults.registry.arm(sites::LINK_TRANSFER, 0, 1);
            idaa.execute(&mut s, &format!("INSERT INTO SEQT VALUES ({i})")).unwrap();
        }
        let r = idaa.query(&mut s, "SELECT COUNT(*) FROM seqt").unwrap();
        assert_eq!(r.scalar().unwrap(), &Value::BigInt(5));
        assert_eq!(idaa.statements_deduped(), 0);
        assert_eq!(idaa.health().state(), HealthState::Online);
    }

    #[test]
    fn crash_recovery_replays_to_the_same_answer() {
        let idaa = Idaa::default();
        let mut s = sys(&idaa);
        idaa.execute(&mut s, "CREATE TABLE R (X INT) IN ACCELERATOR").unwrap();
        idaa.execute(&mut s, "INSERT INTO R VALUES (1), (2), (3)").unwrap();
        let before = idaa.query(&mut s, "SELECT COUNT(*), SUM(x) FROM r").unwrap();
        idaa.accel().crash();
        // The next statement finds the accelerator offline, probes,
        // restarts it (checkpoint + log replay, virtual-clock cost only),
        // and then runs against the recovered state.
        let after = idaa.query(&mut s, "SELECT COUNT(*), SUM(x) FROM r").unwrap();
        assert_eq!(before.rows, after.rows);
        let stats = idaa.last_restart().expect("a restart happened");
        assert_eq!(stats.epoch, 2);
        assert!(stats.log_records_replayed > 0);
        assert_eq!(idaa.accel().epoch(), 2);
        assert_eq!(idaa.health().state(), HealthState::Online);
    }

    #[test]
    fn statements_fail_with_904_until_recovery_can_probe() {
        let idaa = Idaa::default();
        let mut s = sys(&idaa);
        idaa.execute(&mut s, "CREATE TABLE R (X INT) IN ACCELERATOR").unwrap();
        idaa.accel().crash();
        // Probes cannot round-trip during the outage window, so recovery
        // cannot start: statements requiring the accelerator get -904
        // (resource unavailable), not -30081.
        let window = Duration::ZERO..Duration::from_secs(1);
        idaa.set_fault_plan(SitePlan::default().and_window(sites::LINK_OUTAGE, window));
        let err = idaa.execute(&mut s, "INSERT INTO R VALUES (1)").unwrap_err();
        assert_eq!(err.sqlcode(), -904);
        // Past the window the next statement drives recovery end to end.
        idaa.link().advance(Duration::from_secs(2));
        idaa.execute(&mut s, "INSERT INTO R VALUES (1)").unwrap();
        assert_eq!(idaa.accel().epoch(), 2, "exactly one restart");
        assert_eq!(
            idaa.query(&mut s, "SELECT COUNT(*) FROM r").unwrap().scalar().unwrap(),
            &Value::BigInt(1)
        );
    }

    #[test]
    fn queued_commit_decision_survives_crash_and_resolves() {
        let idaa = Idaa::default();
        let mut s = sys(&idaa);
        idaa.execute(&mut s, "CREATE TABLE Q (X INT) IN ACCELERATOR").unwrap();
        idaa.execute(&mut s, "BEGIN").unwrap();
        idaa.execute(&mut s, "INSERT INTO Q VALUES (7)").unwrap();
        // COMMIT: the prepare request and YES vote round-trip, and the
        // decision waits for the node's next message while the accelerator
        // holds the transaction prepared (durably).
        idaa.execute(&mut s, "COMMIT").unwrap();
        assert_eq!(idaa.pending_accel_commits(), 1);
        // Crash. Restart re-materializes the prepared transaction from the
        // log; the queued decision resolves it instead of presumed abort.
        idaa.accel().crash();
        assert!(idaa.recover());
        assert_eq!(idaa.pending_accel_commits(), 0);
        assert_eq!(idaa.last_restart().unwrap().rematerialized_in_doubt, 1);
        assert_eq!(
            idaa.query(&mut s, "SELECT COUNT(*) FROM q").unwrap().scalar().unwrap(),
            &Value::BigInt(1)
        );
    }

    #[test]
    fn prepared_transaction_without_queued_decision_presumes_abort() {
        let idaa = Idaa::default();
        let mut s = sys(&idaa);
        idaa.execute(&mut s, "CREATE TABLE P (X INT) IN ACCELERATOR").unwrap();
        idaa.execute(&mut s, "BEGIN").unwrap();
        idaa.execute(&mut s, "INSERT INTO P VALUES (1)").unwrap();
        // The crash fires at the post-prepare site: the vote was logged
        // durably but never reached the coordinator, which rolls back.
        idaa.faults.registry.arm(sites::POST_PREPARE, 0, 1);
        let err = idaa.execute(&mut s, "COMMIT").unwrap_err();
        assert_eq!(err.sqlcode(), -926);
        // Recovery re-materializes the prepared transaction; with no
        // queued COMMIT decision, presumed abort rolls it back — matching
        // the coordinator's outcome.
        assert!(idaa.recover());
        assert_eq!(idaa.last_restart().unwrap().rematerialized_in_doubt, 1);
        assert_eq!(
            idaa.query(&mut s, "SELECT COUNT(*) FROM p").unwrap().scalar().unwrap(),
            &Value::BigInt(0)
        );
        assert_eq!(idaa.health().state(), HealthState::Online);
    }

    #[test]
    fn lost_reply_redelivers_statement_and_receiver_discards_duplicate() {
        let idaa = Idaa::default();
        let mut s = sys(&idaa);
        idaa.execute(&mut s, "CREATE TABLE T (X INT) IN ACCELERATOR").unwrap();
        idaa.execute(&mut s, "INSERT INTO T VALUES (10)").unwrap();
        // The UPDATE exchange is request (carrying BEGIN and PREPARE) and
        // reply (carrying the vote) — deliver the request but lose the
        // reply. The coordinator cannot tell whether the statement ran, so
        // it redelivers under the same sequence number; the receiver
        // recognizes the duplicate and resends the reply without executing
        // again (X + 1 must apply exactly once).
        idaa.faults.registry.arm(sites::LINK_TRANSFER, 1, 1);
        let out = idaa.execute(&mut s, "UPDATE T SET X = X + 1").unwrap();
        assert_eq!(out.count(), 1);
        assert_eq!(idaa.statements_deduped(), 1);
        let r = idaa.query(&mut s, "SELECT X FROM t").unwrap();
        assert_eq!(r.scalar().unwrap(), &Value::Int(11));
        assert_eq!(idaa.health().state(), HealthState::Online);
    }
}
