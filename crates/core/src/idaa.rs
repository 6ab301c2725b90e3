//! The federated system facade — "DB2 + IDAA" as one object.
//!
//! [`Idaa`] owns the host engine, the accelerator engine, the metered link
//! between them, the replication applier, and the stored-procedure
//! registry. [`Idaa::execute`] is the single SQL entry point an
//! application sees: it parses, authorizes (on the host — governance),
//! routes (host vs. accelerator), meters every byte that crosses the link,
//! and coordinates two-phase commit when a transaction touched both sides.

use crate::fleet::{shard_table, AccelNode, FleetConfig, FleetState};
use crate::health::{Delivery, HealthConfig, HealthState};
use crate::procedures::{system_procedures, Procedure};
use crate::router::{self, Route};
use crate::session::Session;
use idaa_accel::{AccelConfig, AccelEngine, RestartStats};
use idaa_common::trace::{SpanId, StatementTrace, Trace, TraceSink};
use idaa_common::wire;
use idaa_common::{Error, MetricsRegistry, ObjectName, Result, Row, Rows, Value};
use idaa_host::{HostEngine, TableKind, TxnId, SYSADM};
use idaa_netsim::{
    sites, CrashPlan, Direction, DiskFaultPlan, FaultPlan, FaultRegistry, LinkConfig, NetLink,
    RetryPolicy,
};
use idaa_sql::ast::{Expr, InsertSource, Query, Statement};
use idaa_sql::eval::{bind, eval, FlatResolver};
use idaa_sql::plan::{plan_query, Plan, PlanProfile};
use idaa_sql::{parse_statement, parse_statements, Privilege};
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
    /// Link parameters.
    pub link: LinkConfig,
    /// Replication batch size (change records per shipped batch).
    pub replication_batch: usize,
    /// Drain the CDC log to the accelerator after every commit.
    pub auto_replicate: bool,
    /// Retry policy for every host↔accelerator message (backoff consumes
    /// only the link's virtual clock).
    pub retry: RetryPolicy,
    /// Thresholds for the accelerator health state machine.
    pub health: HealthConfig,
    /// Virtual-clock interval between periodic accelerator checkpoints
    /// (drives how much commit log a crash must replay — experiment E16
    /// sweeps it).
    pub checkpoint_every: Duration,
    /// Fixed virtual-time cost of an accelerator restart, charged to the
    /// link clock before log replay.
    pub recovery_fixed: Duration,
    /// Virtual replay bandwidth: checkpoint + replayed-log bytes are
    /// charged to the link clock at this rate during recovery.
    pub recovery_bytes_per_sec: u64,
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
            link: LinkConfig::default(),
            replication_batch: 1024,
            auto_replicate: true,
            retry: RetryPolicy::default(),
            health: HealthConfig::default(),
            checkpoint_every: Duration::from_millis(25),
            recovery_fixed: Duration::from_millis(2),
            recovery_bytes_per_sec: 256 * 1024 * 1024,
            scrub_every: Duration::ZERO,
            fleet: FleetConfig::default(),
        }
    }
}

/// Failure-injection surface for tests and experiments.
///
/// Link-level faults (drops, outage windows) are configured on the link
/// itself via [`Idaa::set_fault_plan`]; conditions the link cannot express
/// go through the unified [`FaultRegistry`] — a [`CrashPlan`] names crash
/// sites (or protocol sites like [`sites::PREPARE_VOTE_NO`]) and the
/// registry replays the same firings for a given seed. One registry is
/// shared between the coordinator and the accelerator engine so a single
/// plan drives both.
#[derive(Debug, Default)]
pub struct Faults {
    /// Simulate a *stopped* accelerator (operator ran ACCEL_STOP, or the
    /// appliance is down): offload-eligible queries fall back to DB2,
    /// while statements that require the accelerator (AOTs, ALL mode)
    /// fail with SQLCODE -904 (resource unavailable).
    pub accel_unavailable: AtomicBool,
    /// Named-site failure registry (crash points, 2PC vote-NO). Arm a
    /// one-shot with [`FaultRegistry::arm`] or install a seeded
    /// [`CrashPlan`] via [`Idaa::set_crash_plan`].
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
    fn host(payload: Payload) -> ExecOutcome {
        ExecOutcome { route: Route::Host, payload }
    }

    fn accel(payload: Payload) -> ExecOutcome {
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
    /// process-global `Session::id`.
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
    procedures: RwLock<HashMap<ObjectName, Arc<dyn Procedure>>>,
    pub(crate) config: IdaaConfig,
    pub faults: Faults,
    /// In-doubt transactions resolved by the 2PC resolver (diagnostics).
    in_doubt_resolved: AtomicU64,
    /// Redelivered statements the receiver discarded as duplicates
    /// (diagnostics).
    statements_deduped: AtomicU64,
    /// Messages discarded because they carried a pre-crash recovery epoch
    /// (diagnostics).
    statements_fenced: AtomicU64,
    /// Collected statement traces (query-lifecycle span trees on the
    /// virtual clock).
    tracer: Arc<TraceSink>,
    /// Process-wide monotone counters and gauges; every node's link mirrors
    /// its delivered/failed counters here (`link.*` for node 0,
    /// `link.node{i}.*` for the rest).
    pub(crate) metrics: Arc<MetricsRegistry>,
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
        let nodes: Vec<Arc<AccelNode>> = (0..config.fleet.accelerators.max(1))
            .map(|i| {
                // Node 0 shares the public `faults.registry`; every other
                // node gets its own seeded registry.
                let registry = if i == 0 {
                    faults.registry.clone()
                } else {
                    Arc::new(FaultRegistry::default())
                };
                AccelNode::new(i, &config, registry)
            })
            .collect();
        let idaa = Idaa {
            host: Arc::new(HostEngine::new(&config.default_schema)),
            nodes,
            fleet: FleetState::new(&config.fleet),
            procedures: RwLock::new(HashMap::new()),
            in_doubt_resolved: AtomicU64::new(0),
            statements_deduped: AtomicU64::new(0),
            statements_fenced: AtomicU64::new(0),
            tracer: Arc::new(TraceSink::default()),
            metrics: Arc::new(MetricsRegistry::default()),
            config,
            faults,
        };
        // Mirror delivered/failed link traffic into the metrics registry
        // from the first transfer, so the per-link counters reconcile with
        // `LinkMetrics` by construction: node 0 under `link.*`, node i
        // under `link.node{i}.*`.
        for node in &idaa.nodes {
            if node.id == 0 {
                node.link.set_metrics(idaa.metrics.clone());
            } else {
                node.link.set_metrics_prefixed(idaa.metrics.clone(), &format!("link.node{}", node.id));
            }
        }
        for p in system_procedures() {
            idaa.register_procedure(Arc::from(p), SYSADM)
                .expect("registering system procedures cannot fail");
        }
        idaa
    }

    /// The first accelerator node — the one the public single-accelerator
    /// accessors (`accel()`, `link()`, `health()`, `ship*`) address.
    pub(crate) fn node0(&self) -> &AccelNode {
        &self.nodes[0]
    }

    /// Open a session for `user`. When the system's [`TraceSink`] is
    /// enabled (the default), the session records a query-lifecycle span
    /// tree per statement, stamped with the link's virtual clock.
    pub fn session(&self, user: &str) -> Session {
        let mut s = Session::new(user);
        if self.tracer.enabled() {
            s.trace = Trace::enabled();
        }
        s
    }

    /// The statement-trace collector.
    pub fn tracer(&self) -> &TraceSink {
        &self.tracer
    }

    /// The process-wide metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The `SHOW WORKLOAD` result set: one row per server seat, rendered
    /// entirely from the `server.session.*` entries the workload manager
    /// maintains in the metrics registry. A system without a server has no
    /// such entries and the view is empty — the statement itself never
    /// touches the link, so it can run even while the accelerator is down.
    fn workload_rows(&self) -> Rows {
        let snap = self.metrics.snapshot();
        // Every connected seat owns a `priority` gauge from connect time,
        // so the gauge keys are the authoritative seat list.
        let mut seats: Vec<u64> = snap
            .gauges
            .keys()
            .filter_map(|k| {
                let rest = k.strip_prefix("server.session.")?;
                let seat = rest.strip_suffix(".priority")?;
                seat.parse().ok()
            })
            .collect();
        seats.sort_unstable();
        let rows = seats
            .into_iter()
            .map(|seat| {
                let g = |field: &str| {
                    snap.gauges
                        .get(&format!("server.session.{seat}.{field}"))
                        .copied()
                        .unwrap_or(0)
                };
                let c = |field: &str| {
                    snap.counter(&format!("server.session.{seat}.{field}")) as i64
                };
                vec![
                    Value::BigInt(seat as i64),
                    Value::Varchar(crate::server::Priority::name_of_rank(g("priority")).into()),
                    Value::BigInt(g("queued")),
                    Value::BigInt(g("running")),
                    Value::BigInt(c("done")),
                    Value::BigInt(c("failed")),
                    Value::BigInt(c("queue_time_us")),
                    Value::BigInt(c("bytes")),
                ]
            })
            .collect();
        Rows::new(workload_schema(), rows)
    }

    /// The host engine (DB2 side).
    pub fn host(&self) -> &HostEngine {
        &self.host
    }

    /// The accelerator engine (node 0 of the fleet).
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

    /// Arm a deterministic fault plan on the link.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        self.link().set_fault_plan(plan);
    }

    /// Install a seeded crash plan on the shared failure registry: named
    /// sites (mid-bulk-load, post-prepare, mid-replication-apply,
    /// mid-checkpoint, 2PC vote-NO) fire deterministically per seed.
    pub fn set_crash_plan(&self, plan: CrashPlan) {
        self.faults.registry.set_plan(plan);
    }

    /// Install a seeded *storage* fault plan on the shared failure
    /// registry: named disk sites (torn log append, torn checkpoint,
    /// log/checkpoint bit-rot, read failure) fire deterministically per
    /// seed from a stream independent of the crash plan's.
    pub fn set_disk_plan(&self, plan: DiskFaultPlan) {
        self.faults.registry.set_disk_plan(plan);
    }

    /// Stats of the most recent accelerator crash recovery, if any.
    pub fn last_restart(&self) -> Option<RestartStats> {
        *self.node0().last_restart.lock()
    }

    /// Messages discarded because they carried a pre-crash recovery
    /// epoch (diagnostics).
    pub fn statements_fenced(&self) -> u64 {
        self.statements_fenced.load(Ordering::Relaxed)
    }

    /// COMMIT decisions queued for redelivery (phase-2 message lost).
    pub fn pending_accel_commits(&self) -> usize {
        self.node0().pending_commits.lock().len()
    }

    /// In-doubt transactions the 2PC resolver recovered (diagnostics).
    pub fn in_doubt_resolved(&self) -> u64 {
        self.in_doubt_resolved.load(Ordering::Relaxed)
    }

    /// Statements redelivered after a lost reply and discarded as
    /// duplicates by the receiver's sequence tracker (diagnostics).
    pub fn statements_deduped(&self) -> u64 {
        self.statements_deduped.load(Ordering::Relaxed)
    }

    /// Committed change records not yet applied on the accelerator.
    pub fn replication_backlog(&self) -> usize {
        let watermark = self.node0().replicator.lock().last_applied();
        self.host.txns.changes_since(watermark).len()
    }

    /// Default schema for unqualified names.
    pub fn default_schema(&self) -> &str {
        &self.config.default_schema
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

    /// Send one message over the link with bounded retry (backoff consumes
    /// only virtual time) and feed the outcome to the health monitor. Every
    /// federation path sends through here so consecutive communication
    /// failures decay the accelerator's health state.
    pub fn ship(&self, direction: Direction, bytes: usize) -> Result<Duration> {
        self.ship_on(self.node0(), direction, bytes)
    }

    /// [`Idaa::ship`] against a specific fleet node's link and health
    /// monitor.
    pub(crate) fn ship_on(
        &self,
        node: &AccelNode,
        direction: Direction,
        bytes: usize,
    ) -> Result<Duration> {
        match self.config.retry.transfer(&node.link, direction, bytes) {
            Ok(cost) => {
                node.health.record_success();
                Ok(cost)
            }
            Err(e) => {
                node.health.record_failure();
                Err(Error::LinkFailure(format!(
                    "communication with the accelerator failed: {e}"
                )))
            }
        }
    }

    /// Ship one encoded row frame over a node's link with the same bounded
    /// retry and health accounting as [`Idaa::ship_on`]. A frame rejected by
    /// the receiver's checksum ([`idaa_common::wire::verify`]) is
    /// retransmitted like any other lost message.
    pub(crate) fn ship_frame_on(
        &self,
        node: &AccelNode,
        direction: Direction,
        frame: &[u8],
    ) -> Result<Duration> {
        match self.config.retry.transfer_frame(&node.link, direction, frame) {
            Ok(cost) => {
                node.health.record_success();
                Ok(cost)
            }
            Err(e) => {
                node.health.record_failure();
                Err(Error::LinkFailure(format!(
                    "communication with the accelerator failed: {e}"
                )))
            }
        }
    }

    /// Stream a row batch across the link as chunked encoded frames and
    /// return what the receiving side decodes. The destination engine
    /// ingests the *decoded* payload — not the sender's in-memory rows —
    /// so the codec is on the actual data path, and a frame that fails
    /// checksum or fingerprint verification surfaces before any row lands.
    pub fn ship_rows(
        &self,
        direction: Direction,
        schema: &idaa_common::Schema,
        rows: &[Row],
    ) -> Result<Vec<Row>> {
        self.ship_rows_on(self.node0(), direction, schema, rows)
    }

    /// [`Idaa::ship_rows`] against a specific fleet node.
    pub(crate) fn ship_rows_on(
        &self,
        node: &AccelNode,
        direction: Direction,
        schema: &idaa_common::Schema,
        rows: &[Row],
    ) -> Result<Vec<Row>> {
        self.ship_rows_traced_on(node, &Trace::disabled(), direction, schema, rows)
    }

    /// Charge DDL/control-message shipping to a node's link.
    pub(crate) fn ship_ddl_on(&self, node: &AccelNode, text: &str) -> Result<()> {
        self.ship_on(node, Direction::ToAccel, text.len() + wire::CONTROL_FRAME)?;
        self.ship_on(node, Direction::ToHost, wire::CONTROL_FRAME)?;
        Ok(())
    }

    /// ACCEL_ADD_TABLES body for one table: ship the ADD to every fleet
    /// node and create the replicated accelerator copy there.
    pub fn accel_table_add(&self, meta: &idaa_host::TableMeta) -> Result<()> {
        let ddl = format!("ADD TABLE {}", meta.name);
        for node in &self.nodes {
            self.ship_ddl_on(node, &ddl)?;
            node.engine.create_table(&meta.name, meta.schema.clone(), &meta.distribute_by)?;
        }
        Ok(())
    }

    /// ACCEL_REMOVE_TABLES body for one table: drop the copy on every
    /// fleet node.
    pub fn accel_table_remove(&self, meta: &idaa_host::TableMeta) -> Result<()> {
        let ddl = format!("REMOVE TABLE {}", meta.name);
        for node in &self.nodes {
            self.ship_ddl_on(node, &ddl)?;
            node.engine.drop_table(&meta.name)?;
        }
        Ok(())
    }

    /// Groom every table on every fleet node; returns blocks reclaimed.
    pub fn accel_groom_all(&self) -> usize {
        self.nodes.iter().map(|n| n.engine.groom_all()).sum()
    }

    /// Groom one table across the fleet. Errors only when no node holds
    /// the table (on a single node this is the table's own groom error).
    pub fn accel_groom(&self, table: &ObjectName) -> Result<usize> {
        let mut total = 0usize;
        let mut hit = false;
        let mut last_err = None;
        for node in &self.nodes {
            match node.engine.groom(table) {
                Ok(n) => {
                    total += n;
                    hit = true;
                }
                Err(e) => last_err = Some(e),
            }
        }
        match (hit, last_err) {
            (true, _) => Ok(total),
            (false, Some(e)) => Err(e),
            (false, None) => Ok(0),
        }
    }

    /// Snapshot-load an accelerated table (ACCEL_LOAD_TABLES body): pull
    /// all rows from DB2, ship them over the link, and enable replication.
    pub fn load_accelerated_table(&self, table: &ObjectName) -> Result<usize> {
        let meta = self.host.table_meta(table)?;
        if meta.kind != TableKind::Regular {
            return Err(Error::InvalidAcceleratorUse(format!(
                "{table} is accelerator-only and cannot be loaded from DB2"
            )));
        }
        if !self.accel().has_table(&meta.name) {
            return Err(Error::UndefinedObject(format!(
                "table {table} has not been added to the accelerator (ACCEL_ADD_TABLES)"
            )));
        }
        // Bring the replication watermark up to now *before* the snapshot,
        // so changes committed before the load are not double-applied.
        self.replicate_now()?;
        let rows = self.host.scan_all(&meta.name)?;
        // Every fleet node holds a full replica of accelerated host tables;
        // each copy pays its own link cost.
        let mut n = 0;
        for node in &self.nodes {
            let delivered = self.ship_rows_on(node, Direction::ToAccel, &meta.schema, &rows)?;
            node.engine.truncate(&meta.name)?;
            n = node.engine.load_committed(&meta.name, delivered)?;
            self.ship_on(node, Direction::ToHost, wire::ACK_FRAME)?;
        }
        self.host.set_accel_status(&meta.name, idaa_host::AccelStatus::Loaded)?;
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
            if !self.faults.accel_unavailable.load(Ordering::Relaxed) {
                self.flush_pending_commits_on(node);
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

    /// Redeliver COMMIT decisions whose phase-2 message was lost; the
    /// accelerator holds those transactions prepared until the decision
    /// arrives.
    pub(crate) fn flush_pending_commits_on(&self, node: &AccelNode) {
        if node.engine.is_crashed() {
            // A crashed engine would silently drop the decision; keep it
            // queued until recovery re-materializes the prepared txn.
            return;
        }
        let mut pending = node.pending_commits.lock();
        pending.retain(|&txn| {
            // Through ship_on(), like every federation message, so
            // redelivery outcomes feed the health monitor; a failure keeps
            // the decision queued for the next round.
            if self.ship_on(node, Direction::ToAccel, wire::CONTROL_FRAME).is_ok() {
                node.engine.commit(txn);
                false
            } else {
                true
            }
        });
    }

    /// True when statements may be sent to one fleet node: its engine is
    /// not stopped, and its own health state machine has not declared it
    /// offline. While offline, a rate-limited probe (virtual clock) checks
    /// for recovery; a successful probe flushes queued commit decisions and
    /// lets replication catch up before reporting ready. A node that missed
    /// writes while unreachable first refreshes its shard copies from a live
    /// replica.
    pub(crate) fn node_ready(&self, node: &AccelNode) -> bool {
        if self.faults.accel_unavailable.load(Ordering::Relaxed) {
            return false;
        }
        if node.engine.is_crashed() {
            // A crashed accelerator is unreachable no matter what the
            // failure streaks said when the crash point fired.
            node.health.force_offline();
        }
        if node.health.state() != HealthState::Offline {
            if self.fleet.needs_catch_up(node.id) {
                return self.catch_up_node(node).is_ok()
                    && !self.fleet.needs_catch_up(node.id);
            }
            return true;
        }
        if node.health.should_probe(node.link.now())
            && node.health.probe(&node.link, &self.config.retry)
        {
            if node.engine.is_crashed() && self.restart_node(node).is_err() {
                return false;
            }
            if self.catch_up_node(node).is_err() {
                return false;
            }
            let _ = self.replicate_now();
            return true;
        }
        false
    }

    /// Force a recovery probe immediately, ignoring the probe interval
    /// (operator-initiated restart). On success the health returns to
    /// `Online`, a crashed engine restarts (checkpoint + log replay),
    /// queued commit decisions are redelivered, and replication catches
    /// up. Returns whether the accelerator is available again.
    pub fn recover(&self) -> bool {
        self.recover_node(0)
    }

    /// [`Idaa::recover`] for node `i` of the fleet.
    pub fn recover_node(&self, i: usize) -> bool {
        let node = self.nodes[i].clone();
        if self.faults.accel_unavailable.load(Ordering::Relaxed) {
            return false;
        }
        if node.engine.is_crashed() {
            node.health.force_offline();
        }
        if !node.health.probe(&node.link, &self.config.retry) {
            return false;
        }
        if node.engine.is_crashed() && self.restart_node(&node).is_err() {
            return false;
        }
        if self.fleet.needs_catch_up(node.id) && self.catch_up_node(&node).is_err() {
            return false;
        }
        let _ = self.replicate_now();
        true
    }

    /// [`Idaa::node_ready`], recording an "accel.restart" trace event when
    /// the readiness check drove a crash recovery.
    pub(crate) fn node_ready_traced(&self, node: &AccelNode, trace: &Trace) -> bool {
        let epoch_before = node.engine.epoch();
        let rebuilds_before = node.rebuilds.load(Ordering::Relaxed);
        let ready = self.node_ready(node);
        if trace.is_enabled() && node.engine.epoch() != epoch_before {
            let now = node.link.now();
            let id = trace.begin("accel.restart", now);
            trace.attr(id, "epoch", node.engine.epoch());
            if node.rebuilds.load(Ordering::Relaxed) != rebuilds_before {
                // This recovery discarded the corrupt media and re-shipped
                // the node's state from the host and replicas.
                trace.attr(id, "rebuilt", true);
            }
            if self.nodes.len() > 1 {
                trace.attr(id, "node", node.engine.identity());
            }
            if let Some(stats) = *node.last_restart.lock() {
                trace.attr(
                    id,
                    "replayed_bytes",
                    stats.checkpoint_bytes + stats.log_bytes_replayed,
                );
            }
            trace.end(id, now);
        }
        ready
    }

    /// Restart a crashed accelerator: rebuild state as checkpoint + log
    /// replay, charge the replay cost to the *virtual* clock, fence the
    /// statement tracker to the new recovery epoch, resolve re-materialized
    /// in-doubt transactions (presumed abort unless the coordinator holds
    /// a queued COMMIT decision), and redeliver queued decisions.
    pub(crate) fn restart_node(&self, node: &AccelNode) -> Result<()> {
        let before = Self::disk_stat_snapshot(&node.engine);
        // A rebuild that failed part-way (read fault, lost exchange) left
        // the node on fresh-but-empty media: booting it as-is would serve
        // silently empty tables, so the flag forces the rebuild to resume.
        let stats = if node.needs_rebuild.load(Ordering::Relaxed) {
            let r = self.rebuild_node(node);
            self.mirror_disk_stats(&node.engine, before);
            r?
        } else {
            match node.engine.restart() {
                Ok(stats) => {
                    self.mirror_disk_stats(&node.engine, before);
                    stats
                }
                Err(Error::StorageCorrupt(_)) => {
                    // Acknowledged durable state failed validation beyond
                    // local repair: discard the media wholesale and
                    // re-materialize the node from the host catalog and
                    // live replicas instead of serving damaged state.
                    let r = self.rebuild_node(node);
                    self.mirror_disk_stats(&node.engine, before);
                    r?
                }
                Err(e) => {
                    self.mirror_disk_stats(&node.engine, before);
                    return Err(e);
                }
            }
        };
        self.metrics.inc("accel.restarts", 1);
        self.metrics.inc(
            "accel.recovery.replayed_bytes",
            stats.checkpoint_bytes + stats.log_bytes_replayed,
        );
        // Recovery consumes virtual time only: a fixed restart latency
        // plus replaying checkpoint + log bytes at the configured
        // bandwidth. Never a wall-clock sleep. The cost lands on this
        // node's own link clock.
        let replayed = stats.checkpoint_bytes + stats.log_bytes_replayed;
        let replay_time = Duration::from_secs_f64(
            replayed as f64 / self.config.recovery_bytes_per_sec.max(1) as f64,
        );
        node.link.advance(self.config.recovery_fixed + replay_time);
        // Epoch fence: sequence state and acks from the previous
        // incarnation are stale.
        node.delivered.reset(stats.epoch);
        // Presumed abort: a prepared transaction whose COMMIT decision is
        // not queued on the coordinator was never decided — roll it back.
        // Queued decisions stay prepared until flush redelivers them.
        {
            let pending = node.pending_commits.lock();
            for txn in node.engine.in_doubt() {
                if !pending.contains(&txn) {
                    node.engine.abort(txn);
                }
            }
        }
        self.flush_pending_commits_on(node);
        *node.last_restart.lock() = Some(stats);
        Ok(())
    }

    /// Cumulative storage-fault counters of one engine, in the order of
    /// [`Idaa::DISK_METRIC_KEYS`].
    fn disk_stat_snapshot(engine: &AccelEngine) -> [u64; 5] {
        [
            engine.stats.disk_corruptions_detected.load(Ordering::Relaxed),
            engine.stats.disk_records_truncated.load(Ordering::Relaxed),
            engine.stats.disk_checkpoint_fallbacks.load(Ordering::Relaxed),
            engine.stats.disk_scrub_repairs.load(Ordering::Relaxed),
            engine.stats.disk_read_failures.load(Ordering::Relaxed),
        ]
    }

    /// Registry keys mirroring the engine-side storage-fault counters, in
    /// [`Idaa::disk_stat_snapshot`] order. The mirror is delta-based, so
    /// the registry totals reconcile exactly with the sum of the engines'
    /// own atomics (`tests/observability.rs`).
    const DISK_METRIC_KEYS: [&'static str; 5] = [
        "disk.corruptions_detected",
        "disk.records_truncated",
        "disk.checkpoint_fallbacks",
        "disk.scrub_repairs",
        "disk.read_failures",
    ];

    /// Mirror into the [`MetricsRegistry`] whatever the engine's storage
    /// counters gained since `before` was snapshotted.
    fn mirror_disk_stats(&self, engine: &AccelEngine, before: [u64; 5]) {
        let after = Self::disk_stat_snapshot(engine);
        for (i, key) in Self::DISK_METRIC_KEYS.iter().enumerate() {
            if after[i] > before[i] {
                self.metrics.inc(key, after[i] - before[i]);
            }
        }
    }

    /// Rebuild a node whose durable state is corrupt beyond local repair:
    /// discard the media wholesale, boot the engine empty, and
    /// re-materialize every accelerator-resident table — replicated host
    /// tables re-ship a snapshot from DB2 (the replication watermark
    /// fast-forwards past it), AOT shards recreate their definitions and
    /// refill from a live replica via the standard catch-up copy, and a
    /// shard with no other owner is quarantined (-904 until reloaded) —
    /// its rows existed nowhere else, and a silently empty table is the
    /// one outcome recovery must never produce. Any failure part-way
    /// re-crashes the engine so the next recovery probe resumes the
    /// rebuild rather than serving a half-rebuilt node.
    fn rebuild_node(&self, node: &AccelNode) -> Result<RestartStats> {
        node.needs_rebuild.store(true, Ordering::Relaxed);
        node.engine.durable().reset();
        let stats = node.engine.restart()?;
        let bytes_before = node.link.metrics().bytes_to_accel;
        let rebuild = || -> Result<()> {
            // The DB2 catalog iterates in name order, so recreation (and
            // every wire frame it ships) is deterministic.
            for name in self.host.table_names() {
                let meta = self.host.table_meta(&name)?;
                match meta.kind {
                    TableKind::Regular => {
                        if meta.accel_status == idaa_host::AccelStatus::NotAccelerated {
                            continue;
                        }
                        self.ship_ddl_on(node, &format!("ADD TABLE {}", meta.name))?;
                        node.engine.create_table(
                            &meta.name,
                            meta.schema.clone(),
                            &meta.distribute_by,
                        )?;
                        if meta.accel_status == idaa_host::AccelStatus::Loaded {
                            let rows = self.host.scan_all(&meta.name)?;
                            let delivered =
                                self.ship_rows_on(node, Direction::ToAccel, &meta.schema, &rows)?;
                            node.engine.load_committed(&meta.name, delivered)?;
                            self.ship_on(node, Direction::ToHost, wire::ACK_FRAME)?;
                        }
                    }
                    TableKind::AcceleratorOnly => {
                        for s in 0..self.fleet.shards {
                            let owners = self.fleet.owners(s);
                            if !owners.contains(&node.id) {
                                continue;
                            }
                            let st = shard_table(&meta.name, s, self.fleet.shards);
                            node.engine.create_table(
                                &st,
                                meta.schema.clone(),
                                &meta.distribute_by,
                            )?;
                            if !owners.iter().any(|&o| o != node.id) {
                                // This node was the shard's only owner:
                                // there is no replica to copy from.
                                node.engine.quarantine_table(&st)?;
                            }
                        }
                        // Shard contents arrive through the standard
                        // metered catch-up copy from a live replica.
                        self.fleet.mark_catch_up(node.id);
                    }
                }
            }
            // The snapshots above already contain every committed change:
            // replaying the backlog would double-apply it.
            node.replicator.lock().fast_forward(self.host.txns.current_lsn());
            Ok(())
        };
        if let Err(e) = rebuild() {
            // A half-rebuilt node must never serve: crash it so the next
            // recovery probe finds `needs_rebuild` still set and restarts
            // the rebuild from fresh media.
            node.engine.crash();
            return Err(e);
        }
        self.metrics.inc("disk.node_rebuilds", 1);
        self.metrics
            .inc("disk.repair.bytes", node.link.metrics().bytes_to_accel - bytes_before);
        node.rebuilds.fetch_add(1, Ordering::Relaxed);
        node.needs_rebuild.store(false, Ordering::Relaxed);
        Ok(stats)
    }

    /// The error a statement gets when it requires a node that is not
    /// ready: -904 when the accelerator is administratively stopped or
    /// crashed (recovery pending), -30081 when its health machine declared
    /// it offline after communication failures.
    pub(crate) fn node_unavailable(&self, node: &AccelNode) -> Error {
        if node.engine.is_crashed() {
            Error::ResourceUnavailable(
                "the accelerator crashed and is recovering; statements requiring it \
                 cannot run"
                    .into(),
            )
        } else if self.faults.accel_unavailable.load(Ordering::Relaxed) {
            Error::ResourceUnavailable(
                "the accelerator is stopped; statements requiring it cannot run".into(),
            )
        } else {
            Error::LinkFailure(
                "communication with the accelerator failed and the statement requires it"
                    .into(),
            )
        }
    }

    // -- SQL entry points ---------------------------------------------------

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
        session.statements += 1;
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
        let result = self.dispatch(session, stmt);
        match &result {
            Ok(_) => {
                // Autocommit unless inside an explicit transaction.
                if !session.explicit_txn
                    && !matches!(stmt, Statement::Begin | Statement::Commit | Statement::Rollback)
                {
                    if let Err(e) = self.commit_session(session) {
                        self.metrics.inc("statements.total", 1);
                        self.metrics.inc(&format!("errors.sqlcode.{}", e.sqlcode()), 1);
                        self.finish_statement_trace(session, stmt, root, Some(&e));
                        return Err(e);
                    }
                }
            }
            Err(_) => {
                // Statement-level atomicity in autocommit mode: roll the
                // implicit transaction back.
                if !session.explicit_txn && session.txn.is_some() {
                    self.rollback_session(session)?;
                }
            }
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

    /// Record a zero-duration "transfer" trace event (one link message)
    /// against a node's link; with more than one node the event also
    /// carries the node identity so per-shard transfer breakdowns fall out
    /// of the span tree.
    pub(crate) fn transfer_event_on(
        &self,
        node: &AccelNode,
        trace: &Trace,
        direction: Direction,
        kind: &str,
        bytes: usize,
        err: Option<String>,
    ) {
        if !trace.is_enabled() {
            return;
        }
        let now = node.link.now();
        let id = trace.begin("transfer", now);
        let dir = match direction {
            Direction::ToAccel => "to_accel",
            Direction::ToHost => "to_host",
        };
        trace.attr(id, "dir", dir);
        trace.attr(id, "kind", kind);
        trace.attr(id, "bytes", bytes);
        if self.nodes.len() > 1 {
            trace.attr(id, "node", node.engine.identity());
        }
        if let Some(e) = err {
            trace.attr(id, "err", e);
        }
        trace.end(id, now);
    }

    /// [`Idaa::ship_on`] with a "transfer" trace event for the outcome.
    pub(crate) fn ship_traced_on(
        &self,
        node: &AccelNode,
        trace: &Trace,
        direction: Direction,
        kind: &str,
        bytes: usize,
    ) -> Result<Duration> {
        match self.ship_on(node, direction, bytes) {
            Ok(d) => {
                self.transfer_event_on(node, trace, direction, kind, bytes, None);
                Ok(d)
            }
            Err(e) => {
                self.transfer_event_on(node, trace, direction, kind, bytes, Some(e.to_string()));
                Err(e)
            }
        }
    }

    /// [`Idaa::ship_rows_on`] with one "transfer" trace event per encoded
    /// wire frame (kind `frame`, sized at the encoded frame length).
    pub(crate) fn ship_rows_traced_on(
        &self,
        node: &AccelNode,
        trace: &Trace,
        direction: Direction,
        schema: &idaa_common::Schema,
        rows: &[Row],
    ) -> Result<Vec<Row>> {
        let mut delivered = Vec::with_capacity(rows.len());
        for frame in wire::encode_frames(schema, rows) {
            match self.ship_frame_on(node, direction, &frame) {
                Ok(_) => {
                    self.transfer_event_on(node, trace, direction, "frame", frame.len(), None)
                }
                Err(e) => {
                    self.transfer_event_on(
                        node,
                        trace,
                        direction,
                        "frame",
                        frame.len(),
                        Some(e.to_string()),
                    );
                    return Err(e);
                }
            }
            delivered.extend(wire::decode_rows(&frame, schema)?);
        }
        Ok(delivered)
    }

    fn dispatch(&self, session: &mut Session, stmt: &Statement) -> Result<ExecOutcome> {
        match stmt {
            Statement::Begin => {
                if session.explicit_txn {
                    return Err(Error::TransactionState("transaction already open".into()));
                }
                session.explicit_txn = true;
                self.ensure_txn(session);
                Ok(ExecOutcome::host(Payload::None))
            }
            Statement::Commit => {
                // A failed COMMIT ends the transaction too (everything was
                // rolled back) — the session must not stay "in transaction".
                let result = self.commit_session(session);
                session.explicit_txn = false;
                result?;
                Ok(ExecOutcome::host(Payload::None))
            }
            Statement::Rollback => {
                self.rollback_session(session)?;
                session.explicit_txn = false;
                Ok(ExecOutcome::host(Payload::None))
            }
            Statement::SetQueryAcceleration(mode) => {
                session.acceleration = *mode;
                Ok(ExecOutcome::host(Payload::None))
            }
            Statement::SetCurrentSchema(s) => {
                if s != &self.config.default_schema {
                    return Err(Error::Unsupported(
                        "per-session CURRENT SCHEMA is not supported; configure the \
                         system default instead"
                            .into(),
                    ));
                }
                Ok(ExecOutcome::host(Payload::None))
            }
            Statement::CreateTable { name, columns, in_accelerator, distribute_by } => {
                let schema = idaa_common::Schema::new(
                    columns
                        .iter()
                        .map(|c| idaa_common::ColumnDef {
                            name: c.name.clone(),
                            data_type: c.data_type,
                            not_null: c.not_null,
                        })
                        .collect(),
                )?;
                let kind = if *in_accelerator {
                    TableKind::AcceleratorOnly
                } else {
                    TableKind::Regular
                };
                self.host.create_table(
                    &session.user,
                    name,
                    schema.clone(),
                    kind,
                    distribute_by.clone(),
                )?;
                if *in_accelerator {
                    // Nickname proxy exists in DB2; actual table lives on
                    // the accelerator.
                    let resolved = name.resolve(&self.config.default_schema);
                    if let Err(e) =
                        self.create_aot(&resolved, &schema, distribute_by, &stmt.to_string())
                    {
                        // The DDL did not reach every owner: undo the
                        // catalog entry so both sides stay consistent.
                        let _ = self.host.drop_table(SYSADM, name);
                        return Err(e);
                    }
                    return Ok(ExecOutcome::accel(Payload::None));
                }
                Ok(ExecOutcome::host(Payload::None))
            }
            Statement::DropTable { name } => {
                let meta = self.host.table_meta(name)?;
                let on_accel = meta.kind == TableKind::AcceleratorOnly
                    || meta.accel_status != idaa_host::AccelStatus::NotAccelerated;
                self.host.drop_table(&session.user, name)?;
                if on_accel {
                    // Best effort: the DB2 catalog entry is gone either
                    // way; an unreachable accelerator cleans up its copy
                    // when the DDL is redelivered on recovery.
                    self.drop_accel_copies(&meta, &stmt.to_string());
                    return Ok(ExecOutcome::accel(Payload::None));
                }
                Ok(ExecOutcome::host(Payload::None))
            }
            Statement::CreateIndex { name, table, columns } => {
                self.host.create_index(&session.user, name, table, columns.clone())?;
                Ok(ExecOutcome::host(Payload::None))
            }
            Statement::Grant { privileges, object, grantees } => {
                let object = object.resolve(&self.config.default_schema);
                let mut privs = self.host.privileges.write();
                for g in grantees {
                    privs.grant(&session.user, g, &object, privileges)?;
                }
                Ok(ExecOutcome::host(Payload::None))
            }
            Statement::Revoke { privileges, object, grantees } => {
                let object = object.resolve(&self.config.default_schema);
                let mut privs = self.host.privileges.write();
                for g in grantees {
                    privs.revoke(&session.user, g, &object, privileges)?;
                }
                Ok(ExecOutcome::host(Payload::None))
            }
            Statement::ShowWorkload => {
                Ok(ExecOutcome::host(Payload::Rows(self.workload_rows())))
            }
            Statement::Call { procedure, args } => self.dispatch_call(session, procedure, args),
            Statement::Explain { analyze: false, stmt } => self.dispatch_explain(session, stmt),
            Statement::Explain { analyze: true, stmt } => {
                self.dispatch_explain_analyze(session, stmt)
            }
            Statement::Query(q) => self.dispatch_query(session, q),
            Statement::Insert { table, columns, source } => {
                self.dispatch_insert(session, table, columns, source)
            }
            Statement::Update { table, assignments, filter } => {
                match router::route_dml(&self.host, table)? {
                    Route::Host => {
                        let txn = self.ensure_txn(session);
                        let n = self.host.update_where(
                            &session.user,
                            txn,
                            table,
                            assignments,
                            filter.as_ref(),
                        )?;
                        Ok(ExecOutcome::host(Payload::Count(n)))
                    }
                    Route::Accelerator => {
                        let table_r = table.resolve(&self.config.default_schema);
                        self.host.privileges.read().check(
                            &session.user,
                            &table_r,
                            Privilege::Update,
                        )?;
                        let n = self.aot_statement(
                            session,
                            &table_r,
                            stmt.to_string().len() + wire::CONTROL_FRAME,
                            |node, txn, st| {
                                node.engine.update_where(txn, st, assignments, filter.as_ref())
                            },
                        )?;
                        Ok(ExecOutcome::accel(Payload::Count(n)))
                    }
                }
            }
            Statement::Delete { table, filter } => {
                match router::route_dml(&self.host, table)? {
                    Route::Host => {
                        let txn = self.ensure_txn(session);
                        let n =
                            self.host.delete_where(&session.user, txn, table, filter.as_ref())?;
                        Ok(ExecOutcome::host(Payload::Count(n)))
                    }
                    Route::Accelerator => {
                        let table_r = table.resolve(&self.config.default_schema);
                        self.host.privileges.read().check(
                            &session.user,
                            &table_r,
                            Privilege::Delete,
                        )?;
                        let n = self.aot_statement(
                            session,
                            &table_r,
                            stmt.to_string().len() + wire::CONTROL_FRAME,
                            |node, txn, st| node.engine.delete_where(txn, st, filter.as_ref()),
                        )?;
                        Ok(ExecOutcome::accel(Payload::Count(n)))
                    }
                }
            }
        }
    }

    fn dispatch_call(
        &self,
        session: &mut Session,
        procedure: &ObjectName,
        args: &[Expr],
    ) -> Result<ExecOutcome> {
        let name = match procedure.schema {
            Some(_) => procedure.clone(),
            // Procedures default to SYSPROC, then the default schema.
            None => {
                let sysproc = ObjectName::qualified("SYSPROC", &procedure.name);
                if self.procedures.read().contains_key(&sysproc) {
                    sysproc
                } else {
                    procedure.resolve(&self.config.default_schema)
                }
            }
        };
        let proc = self
            .procedures
            .read()
            .get(&name)
            .cloned()
            .ok_or_else(|| Error::UndefinedObject(format!("procedure {name} is not defined")))?;
        // Governance: EXECUTE on the procedure object, checked on DB2.
        self.host.privileges.read().check(&session.user, &name, Privilege::Execute)?;
        let arg_values: Vec<Value> = args
            .iter()
            .map(|e| {
                let resolver = FlatResolver::new(vec![]);
                eval(&bind(e, &resolver)?, &[])
            })
            .collect::<Result<_>>()?;
        let rows = proc.execute(self, session, &arg_values)?;
        Ok(ExecOutcome::host(Payload::Rows(rows)))
    }

    /// `EXPLAIN`: plan the statement, report the routing decision and the
    /// operator tree — without executing anything.
    fn dispatch_explain(&self, session: &mut Session, inner: &Statement) -> Result<ExecOutcome> {
        let (plan, route_desc) = match inner {
            Statement::Query(q) => {
                let plan = plan_query(q, &*self.host)?;
                let tables: Vec<ObjectName> = plan
                    .tables()
                    .iter()
                    .map(|t| t.resolve(&self.config.default_schema))
                    .collect();
                let mut mix = router::classify(&self.host, &tables)?;
                mix.indexed_point = router::is_indexed_point(&self.host, &plan);
                let (route, reason) =
                    router::route_query_with_reason(&mix, session.acceleration)?;
                let mut desc = format!(
                    "ROUTE: {route:?} (CURRENT QUERY ACCELERATION = {})\nREASON: {reason}",
                    session.acceleration
                );
                // For offloaded queries, also report which accelerator
                // pipeline would run — vectorized kernels, fused
                // aggregation, or the interpreted fallback.
                if route == router::Route::Accelerator {
                    if let Ok(pipeline) = self.accel().pipeline_of(q) {
                        desc.push_str(&format!("\nPIPELINE: {pipeline}"));
                    }
                }
                (plan, desc)
            }
            Statement::Insert { table, .. }
            | Statement::Update { table, .. }
            | Statement::Delete { table, .. } => {
                let route = router::route_dml(&self.host, table)?;
                let desc = format!("ROUTE: {route:?} (DML target {table})");
                match inner {
                    Statement::Insert { source: InsertSource::Query(q), .. } => {
                        (plan_query(q, &*self.host)?, desc)
                    }
                    _ => {
                        // No query plan to show for VALUES/UPDATE/DELETE —
                        // report the route only.
                        let lines = vec![vec![Value::Varchar(desc)]];
                        return Ok(ExecOutcome::host(Payload::Rows(Rows::new(
                            explain_schema(),
                            lines,
                        ))));
                    }
                }
            }
            other => {
                return Err(Error::Unsupported(format!(
                    "EXPLAIN is not supported for this statement: {other}"
                )))
            }
        };
        let mut lines: Vec<Row> = route_desc
            .lines()
            .map(|l| vec![Value::Varchar(l.to_string())])
            .collect();
        for l in plan.explain().lines() {
            lines.push(vec![Value::Varchar(l.to_string())]);
        }
        Ok(ExecOutcome::host(Payload::Rows(Rows::new(explain_schema(), lines))))
    }

    /// `EXPLAIN ANALYZE`: *execute* the statement (under a span tree even
    /// when session tracing is off), then report the plan followed by the
    /// executed spans — per-operator row counts and virtual-time costs.
    fn dispatch_explain_analyze(
        &self,
        session: &mut Session,
        inner: &Statement,
    ) -> Result<ExecOutcome> {
        // The report needs spans even when the session isn't tracing:
        // borrow an enabled trace for the duration of the inner statement.
        let borrowed = if session.trace.is_enabled() {
            None
        } else {
            Some(std::mem::replace(&mut session.trace, Trace::enabled()))
        };
        let trace = session.trace.clone();
        let span = trace.begin("analyze", self.link().now());
        let result = self.dispatch(session, inner);
        let analyzed = trace.finish(span, self.link().now());
        if let Some(original) = borrowed {
            session.trace = original;
        }
        let outcome = result?;
        let mut lines: Vec<Row> = vec![vec![Value::Varchar(format!(
            "ROUTE: {:?} (CURRENT QUERY ACCELERATION = {})",
            outcome.route, session.acceleration
        ))]];
        // Show the plan for the query shape, as plain EXPLAIN would.
        let query = match inner {
            Statement::Query(q) => Some(q.as_ref()),
            Statement::Insert { source: InsertSource::Query(q), .. } => Some(q.as_ref()),
            _ => None,
        };
        if let Some(q) = query {
            for l in plan_query(q, &*self.host)?.explain().lines() {
                lines.push(vec![Value::Varchar(l.to_string())]);
            }
        }
        lines.push(vec![Value::Varchar("-- ANALYZE --".into())]);
        if let Some(node) = analyzed {
            for child in &node.children {
                for l in child.render().lines() {
                    lines.push(vec![Value::Varchar(l.to_string())]);
                }
            }
        }
        Ok(ExecOutcome {
            route: outcome.route,
            payload: Payload::Rows(Rows::new(explain_schema(), lines)),
        })
    }

    fn dispatch_query(&self, session: &mut Session, q: &Query) -> Result<ExecOutcome> {
        let trace = session.trace.clone();
        let plan = plan_query(q, &*self.host)?;
        let tables: Vec<ObjectName> = plan
            .tables()
            .iter()
            .map(|t| t.resolve(&self.config.default_schema))
            .collect();
        let mut mix = router::classify(&self.host, &tables)?;
        mix.indexed_point = router::is_indexed_point(&self.host, &plan);
        let (mut route, mut reason) =
            router::route_query_with_reason(&mix, session.acceleration)?;
        // No owner of some shard the read touches is available (stopped,
        // crashed, or declared offline after consecutive communication
        // failures): fall back to DB2 when the data still lives there; fail
        // when only the accelerator side could answer. Judged once, before
        // the route event.
        let must_accelerate = router::must_accelerate(&mix, session.acceleration);
        let read_plan = self.read_plan(&tables)?;
        if route == Route::Accelerator {
            if let Err(e) = self.read_ready(session, &read_plan, &tables) {
                if must_accelerate {
                    return Err(e);
                }
                route = Route::Host;
                reason = "accelerator unavailable; falling back to DB2";
            }
        }
        self.route_event(&trace, route, reason, session);
        if route == Route::Accelerator {
            // Governance on DB2 before delegation — a failover must never
            // mask a privilege error.
            {
                let privs = self.host.privileges.read();
                for t in &tables {
                    if t.name == "SYSDUMMY1" {
                        continue;
                    }
                    privs.check(&session.user, t, Privilege::Select)?;
                    self.privilege_event(&trace, t, "SELECT");
                }
            }
            match self.accel_read(session, q, &tables, &read_plan) {
                Ok(rows) => return Ok(ExecOutcome::accel(Payload::Rows(rows))),
                // Communication failed mid-statement: like DB2, re-execute
                // the read-only query locally when the data allows it.
                Err(Error::LinkFailure(_)) if !must_accelerate => {
                    self.route_event(
                        &trace,
                        Route::Host,
                        "communication failed mid-statement; re-executing locally",
                        session,
                    );
                }
                // Every owner of a shard was lost mid-statement: the host
                // still holds the data unless the query must accelerate.
                Err(Error::ResourceUnavailable(_)) if !must_accelerate => {
                    self.route_event(
                        &trace,
                        Route::Host,
                        "accelerator unavailable; falling back to DB2",
                        session,
                    );
                }
                Err(e) => return Err(e),
            }
        }
        let txn = self.ensure_txn(session);
        let rows = if trace.is_enabled() {
            let now = self.link().now();
            let span = trace.begin("host.exec", now);
            let profiled = self.host.query_profiled(&session.user, txn, q);
            if let Ok((_, plan, profile)) = &profiled {
                self.emit_plan_spans(&trace, plan, profile, now);
            }
            trace.end(span, self.link().now());
            profiled?.0
        } else {
            self.host.query(&session.user, txn, q)?
        };
        Ok(ExecOutcome::host(Payload::Rows(rows)))
    }

    /// Record the routing decision (and its reason) as a trace event.
    fn route_event(&self, trace: &Trace, route: Route, reason: &str, session: &Session) {
        if !trace.is_enabled() {
            return;
        }
        let now = self.link().now();
        let id = trace.begin("route", now);
        trace.attr(id, "route", format!("{route:?}"));
        trace.attr(id, "reason", reason);
        trace.attr(id, "mode", session.acceleration);
        trace.end(id, now);
    }

    /// Record a passed host-side privilege check as a trace event.
    fn privilege_event(&self, trace: &Trace, object: &ObjectName, privilege: &str) {
        if !trace.is_enabled() {
            return;
        }
        let now = self.link().now();
        let id = trace.begin("privilege", now);
        trace.attr(id, "object", object);
        trace.attr(id, "priv", privilege);
        trace.end(id, now);
    }

    /// Mirror an executed plan (with its row-count profile) into the trace
    /// as nested zero-duration "op" spans. Operators consume no virtual
    /// time — only link transfers do — so only the tree shape and `rows`
    /// attributes carry information. A node without `rows` was fused into
    /// its parent. `now` is the executing side's clock.
    pub(crate) fn emit_plan_spans(
        &self,
        trace: &Trace,
        plan: &Plan,
        profile: &PlanProfile,
        now: Duration,
    ) {
        self.emit_plan_spans_at(trace, plan, profile, now, true);
    }

    fn emit_plan_spans_at(
        &self,
        trace: &Trace,
        plan: &Plan,
        profile: &PlanProfile,
        now: Duration,
        root: bool,
    ) {
        let id = trace.begin("op", now);
        trace.attr(id, "op", plan.label());
        if root {
            // Statement-level: did the compiled-plan cache serve this tree?
            if let Some(hit) = profile.cache_hit() {
                trace.attr(id, "cache", if hit { "hit" } else { "miss" });
            }
        }
        match profile.rows_out(plan) {
            Some(rows) => trace.attr(id, "rows", rows),
            None => trace.attr(id, "fused", "true"),
        }
        if let Some(batches) = profile.vectorized_batches(plan) {
            trace.attr(id, "kernel", "vectorized");
            trace.attr(id, "batches", batches);
        }
        if let Some(skipped) = profile.bloom_skipped(plan) {
            trace.attr(id, "bloom_skipped", skipped);
        }
        for child in plan.children() {
            self.emit_plan_spans_at(trace, child, profile, now, false);
        }
        trace.end(id, now);
    }

    fn dispatch_insert(
        &self,
        session: &mut Session,
        table: &ObjectName,
        columns: &[String],
        source: &InsertSource,
    ) -> Result<ExecOutcome> {
        let target = table.resolve(&self.config.default_schema);
        let meta = self.host.table_meta(&target)?;
        // Build full-width rows from VALUES, or run the source query.
        let rows: Vec<Row> = match source {
            InsertSource::Values(value_rows) => {
                let resolver = FlatResolver::new(vec![]);
                let mut out = Vec::with_capacity(value_rows.len());
                for exprs in value_rows {
                    let vals: Vec<Value> = exprs
                        .iter()
                        .map(|e| eval(&bind(e, &resolver)?, &[]))
                        .collect::<Result<_>>()?;
                    out.push(self.widen_row(&meta.schema, columns, vals)?);
                }
                out
            }
            InsertSource::Query(src_q) => {
                // Pushdown path — the paper's contribution: an AOT target
                // whose source tables all exist on the accelerator executes
                // entirely there; only the statement text crosses the link.
                // That needs target and sources whole on the same owners;
                // with more than one shard the source runs through the
                // scatter path below and the insert re-shards its result.
                if meta.kind == TableKind::AcceleratorOnly && self.fleet.shards == 1 {
                    let plan = plan_query(src_q, &*self.host)?;
                    let src_tables: Vec<ObjectName> = plan
                        .tables()
                        .iter()
                        .map(|t| t.resolve(&self.config.default_schema))
                        .collect();
                    let mix = router::classify(&self.host, &src_tables)?;
                    if mix.host_only == 0 {
                        let privs = self.host.privileges.read();
                        privs.check(&session.user, &target, Privilege::Insert)?;
                        for t in &src_tables {
                            if t.name == "SYSDUMMY1" {
                                continue;
                            }
                            privs.check(&session.user, t, Privilege::Select)?;
                        }
                        drop(privs);
                        let sql = format!("INSERT INTO {target} {src_q}");
                        let n = self.aot_statement(
                            session,
                            &target,
                            sql.len() + wire::CONTROL_FRAME,
                            |node, txn, st| {
                                let result = node.engine.query(txn, src_q)?;
                                let rows: Vec<Row> = result
                                    .rows
                                    .into_iter()
                                    .map(|r| self.widen_row(&meta.schema, columns, r))
                                    .collect::<Result<_>>()?;
                                node.engine.insert_rows(txn, st, rows)
                            },
                        )?;
                        return Ok(ExecOutcome::accel(Payload::Count(n)));
                    }
                }
                // Otherwise the source runs wherever routing says; result
                // rows materialize on the host side and pay link cost when
                // they came from the accelerator.
                let outcome = self.dispatch_query(session, src_q)?;
                let result = match outcome.payload {
                    Payload::Rows(r) => r,
                    _ => unreachable!("queries produce rows"),
                };
                result
                    .rows
                    .into_iter()
                    .map(|r| self.widen_row(&meta.schema, columns, r))
                    .collect::<Result<_>>()?
            }
        };
        match meta.kind {
            TableKind::Regular => {
                let txn = self.ensure_txn(session);
                let n = self.host.insert_rows(&session.user, txn, &target, rows)?;
                Ok(ExecOutcome::host(Payload::Count(n)))
            }
            TableKind::AcceleratorOnly => {
                self.host.privileges.read().check(&session.user, &target, Privilege::Insert)?;
                // Rows originate on the host side (VALUES literals or a
                // host-executed source query): they cross the link as
                // encoded frames and each owner inserts what it decodes.
                let n = self.aot_insert_rows(session, &meta, rows)?;
                Ok(ExecOutcome::accel(Payload::Count(n)))
            }
        }
    }

    /// Expand an explicit column list to a full-width row (missing columns
    /// become NULL, which `check_row` then validates).
    fn widen_row(
        &self,
        schema: &idaa_common::Schema,
        columns: &[String],
        values: Vec<Value>,
    ) -> Result<Row> {
        if columns.is_empty() {
            return Ok(values);
        }
        if columns.len() != values.len() {
            return Err(Error::Constraint(format!(
                "INSERT specifies {} columns but {} values",
                columns.len(),
                values.len()
            )));
        }
        let mut row = vec![Value::Null; schema.len()];
        for (col, v) in columns.iter().zip(values) {
            row[schema.index_of(col)?] = v;
        }
        Ok(row)
    }

    // -- transactions ---------------------------------------------------------

    fn ensure_txn(&self, session: &mut Session) -> TxnId {
        match session.txn {
            Some(t) => t,
            None => {
                let t = self.host.begin();
                session.txn = Some(t);
                t
            }
        }
    }

    /// Transaction id for a read on one fleet node: the session's
    /// transaction when that node is enlisted in it (own-writes
    /// visibility), else 0 (fresh snapshot).
    pub(crate) fn node_query_txn(&self, session: &Session, node: &AccelNode) -> TxnId {
        match session.txn {
            Some(t) if self.fleet.is_enlisted(t, node.id) => t,
            _ => 0,
        }
    }

    /// Enlist one fleet node in the session's transaction (starting one if
    /// needed) — required for AOT DML so that the paper's own-uncommitted-
    /// changes visibility holds. Callers have already verified the node is
    /// ready.
    pub(crate) fn enlist_node(&self, session: &mut Session, node: &AccelNode) -> Result<TxnId> {
        let trace = session.trace.clone();
        let txn = self.ensure_txn(session);
        if !self.fleet.is_enlisted(txn, node.id) {
            // BEGIN message
            self.ship_traced_on(node, &trace, Direction::ToAccel, "control", wire::CONTROL_FRAME)?;
            node.engine.begin(txn);
            self.fleet.enlist(txn, node.id);
        }
        Ok(txn)
    }

    /// One statement exchange with a fleet node: deliver the request (at
    /// least once), execute it exactly once, and deliver the reply. The
    /// exchange rides that node's link, health monitor, sequence tracker,
    /// and recovery epoch.
    ///
    /// The 32-byte request envelope carries the session id and a
    /// per-session sequence number. A lost *request* attempt means the
    /// statement never arrived and is simply resent. A lost *reply* leaves
    /// the coordinator unsure whether the statement ran, so it redelivers
    /// the request under the same sequence number — the receiver
    /// recognizes the duplicate in its [`SeqTracker`] and resends the
    /// reply without executing again, making shipping idempotent. Retries
    /// ride the bounded backoff of `config.retry` on the virtual clock;
    /// exhausting it fails the statement with SQLCODE -30081, and the
    /// outcome feeds the health monitor like every other federation path.
    ///
    /// `reply` makes one attempt at the reply leg and says what arrived on
    /// the host side; the exchange returns that next to the statement's
    /// result.
    ///
    /// [`SeqTracker`]: crate::health::SeqTracker
    fn exchange_on<T, R>(
        &self,
        node: &AccelNode,
        session: &mut Session,
        request_bytes: usize,
        exec: impl FnOnce() -> Result<T>,
        reply: impl Fn(&T) -> ReplyLeg<R>,
    ) -> Result<(T, R)> {
        let trace = session.trace.clone();
        let seq = session.next_seq();
        let mut exec = Some(exec);
        let mut result: Option<T> = None;
        let attempts = self.config.retry.max_attempts.max(1);
        let mut wait = self.config.retry.backoff;
        for attempt in 1..=attempts {
            if attempt > 1 {
                self.metrics.inc("exchange.retries", 1);
                trace.event("retry", &[("attempt", &attempt)], node.link.now());
                node.link.advance(wait);
                wait = wait.saturating_mul(self.config.retry.multiplier);
            }
            // Request leg: loss means the statement never reached the
            // accelerator — resend it.
            match node.link.transfer(Direction::ToAccel, request_bytes) {
                Ok(_) => self.transfer_event_on(
                    node,
                    &trace,
                    Direction::ToAccel,
                    "stmt",
                    request_bytes,
                    None,
                ),
                Err(e) => {
                    self.transfer_event_on(
                        node,
                        &trace,
                        Direction::ToAccel,
                        "stmt",
                        request_bytes,
                        Some(e.to_string()),
                    );
                    continue;
                }
            }
            node.health.record_success();
            // Receiver side: execute on first delivery, discard duplicates.
            // Every delivery is stamped with the accelerator's current
            // recovery epoch; anything stamped with a dead incarnation is
            // fenced off and the request is re-sent under the new epoch.
            match node.delivered.deliver_at(session.id, seq, node.engine.epoch()) {
                Delivery::Apply => {
                    let run = exec.take().expect("first delivery executes the statement");
                    result = Some(run()?);
                }
                Delivery::Duplicate => {
                    self.statements_deduped.fetch_add(1, Ordering::Relaxed);
                    self.metrics.inc("exchange.deduped", 1);
                }
                Delivery::Fenced => {
                    self.statements_fenced.fetch_add(1, Ordering::Relaxed);
                    self.metrics.inc("exchange.fenced", 1);
                    continue;
                }
            }
            let outcome = result.as_ref().expect("executed on or before this delivery");
            let ReplyLeg { kind, bytes, sent } = reply(outcome);
            match sent {
                Ok(arrived) => {
                    self.transfer_event_on(node, &trace, Direction::ToHost, kind, bytes, None);
                    node.health.record_success();
                    return Ok((result.take().expect("reply delivered"), arrived));
                }
                Err(e) => self.transfer_event_on(
                    node,
                    &trace,
                    Direction::ToHost,
                    kind,
                    bytes,
                    Some(e.to_string()),
                ),
            }
            // Reply lost: redeliver the request (same sequence number) on
            // the next attempt.
        }
        node.health.record_failure();
        Err(Error::LinkFailure(
            "communication with the accelerator failed; the statement exchange could \
             not be completed"
                .into(),
        ))
    }

    /// [`Idaa::exchange_on`] for a statement acknowledged by a fixed-size
    /// control message (counts, DDL acks).
    pub(crate) fn exchange_control<T>(
        &self,
        node: &AccelNode,
        session: &mut Session,
        request_bytes: usize,
        exec: impl FnOnce() -> Result<T>,
    ) -> Result<T> {
        let ack = |_: &T| ReplyLeg {
            kind: "control",
            bytes: wire::ACK_FRAME,
            sent: node.link.transfer(Direction::ToHost, wire::ACK_FRAME).map(drop),
        };
        Ok(self.exchange_on(node, session, request_bytes, exec, ack)?.0)
    }

    /// [`Idaa::exchange_on`] for a statement answered with rows: the result
    /// travels back as an encoded wire frame whose checksum the host side
    /// verifies on receipt, and the rows returned are the ones decoded from
    /// that frame — not the accelerator's in-memory rows.
    pub(crate) fn exchange_rows(
        &self,
        node: &AccelNode,
        session: &mut Session,
        request_bytes: usize,
        exec: impl FnOnce() -> Result<Rows>,
    ) -> Result<Rows> {
        let frame_reply = |r: &Rows| {
            let frame = wire::encode_frame(&r.schema, &r.rows);
            ReplyLeg {
                kind: "frame",
                bytes: frame.len(),
                sent: node.link.transfer_frame(Direction::ToHost, &frame).map(|_| frame),
            }
        };
        let (rows, frame) = self.exchange_on(node, session, request_bytes, exec, frame_reply)?;
        let decoded = wire::decode_rows(&frame, &rows.schema)?;
        Ok(Rows::new(rows.schema, decoded))
    }

    /// Commit the session's transaction. When accelerator nodes
    /// participated, run two-phase commit: PREPARE on every participant,
    /// COMMIT on DB2 (the coordinator), COMMIT on every participant.
    pub fn commit_session(&self, session: &mut Session) -> Result<()> {
        let Some(txn) = session.txn.take() else { return Ok(()) };
        let trace = session.trace.clone();
        let span = if trace.is_enabled() {
            Some(trace.begin("commit", self.link().now()))
        } else {
            None
        };
        let enlisted = self.fleet.take_enlisted(txn);
        if let Some(id) = span {
            trace.attr(id, "kind", if enlisted.is_empty() { "local" } else { "2pc" });
        }
        let result = if enlisted.is_empty() {
            self.metrics.inc("commits.local", 1);
            self.host.commit(txn);
            Ok(())
        } else {
            self.metrics.inc("commits.twopc", 1);
            self.commit_two_phase(&trace, txn, &enlisted)
        };
        if let Err(e) = result {
            if let Some(id) = span {
                trace.end(id, self.link().now());
            }
            return Err(e);
        }
        if self.config.auto_replicate {
            let applied = self.replicate_now();
            match &applied {
                Ok(n) if *n > 0 => {
                    trace.event("replicate", &[("applied", n)], self.link().now());
                }
                _ => {}
            }
            applied?;
        }
        // Periodic checkpoint policy on the virtual clock (each node
        // checkpoints on its own link clock). A crash while building the
        // checkpoint (the MID_CHECKPOINT site) must not fail the user's
        // commit — the decision is already durable; the next statement
        // observes the crash and drives recovery.
        for node in &self.nodes {
            self.sync_node_clock(node);
            if let Ok(true) =
                node.engine.maybe_checkpoint(node.link.now(), self.config.checkpoint_every)
            {
                self.metrics.inc("accel.checkpoints", 1);
                trace.event("checkpoint", &[], node.link.now());
            }
            self.maybe_scrub_node(node, &trace);
            self.absorb_node_clock(node);
        }
        if let Some(id) = span {
            trace.end(id, self.link().now());
        }
        Ok(())
    }

    /// One background storage-scrub step on `node`, driven between
    /// statements by the commit path when [`IdaaConfig::scrub_every`] is
    /// non-zero. Verification I/O is charged to the node's *virtual* clock
    /// at the recovery bandwidth; detections (and the repair checkpoint
    /// the engine takes) are mirrored into the metrics registry and
    /// recorded as a "disk.scrub" trace event. Like a mid-checkpoint
    /// crash, a scrub failure must not fail the user's already-durable
    /// commit — the next statement observes the crash and drives
    /// recovery.
    fn maybe_scrub_node(&self, node: &AccelNode, trace: &Trace) {
        if self.config.scrub_every.is_zero() {
            return;
        }
        let before = Self::disk_stat_snapshot(&node.engine);
        let result = node.engine.maybe_scrub(node.link.now(), self.config.scrub_every);
        self.mirror_disk_stats(&node.engine, before);
        let report = match result {
            Ok(Some(report)) => report,
            _ => return,
        };
        node.link.advance(Duration::from_secs_f64(
            report.scanned_bytes as f64 / self.config.recovery_bytes_per_sec.max(1) as f64,
        ));
        self.metrics.inc("disk.scrub.steps", 1);
        self.metrics.inc("disk.scrub.scanned_bytes", report.scanned_bytes);
        if report.corruptions() > 0 {
            trace.event(
                "disk.scrub",
                &[
                    ("corrupt_records", &(report.corrupt_records.len() as u64)),
                    ("corrupt_checkpoints", &report.corrupt_checkpoints),
                ],
                node.link.now(),
            );
        }
    }

    /// Two-phase commit across the enlisted nodes `ids`, hardened against a
    /// stopped accelerator and link-level message loss at every step: all
    /// prepare, all vote, one host decision, then per-node phase-2 delivery.
    fn commit_two_phase(&self, trace: &Trace, txn: TxnId, ids: &[usize]) -> Result<()> {
        // Roll back on every participant and report why.
        let abort_all = |why: Error| -> Result<()> {
            for &i in ids {
                self.nodes[i].engine.abort(txn);
            }
            self.host.rollback(txn)?;
            Err(why)
        };
        // One protocol message to or from one participant, on the shared
        // timeline.
        let ship = |i: usize, direction: Direction| {
            let node = &self.nodes[i];
            self.sync_node_clock(node);
            let shipped =
                self.ship_traced_on(node, trace, direction, "control", wire::CONTROL_FRAME);
            self.absorb_node_clock(node);
            shipped
        };
        // A stopped or crashed accelerator cannot vote: presume abort on
        // all sides. (A crashed engine's copy of the transaction is
        // aborted durably when recovery replays the log.)
        if self.faults.accel_unavailable.load(Ordering::Relaxed)
            || ids.iter().any(|&i| self.nodes[i].engine.is_crashed())
        {
            return abort_all(Error::ResourceUnavailable(
                "the accelerator is unavailable; transaction rolled back on all \
                 participants"
                    .into(),
            ));
        }
        // Phase 1: PREPARE request. Undeliverable after retries means the
        // participant never voted — presumed abort everywhere.
        for &i in ids {
            if let Err(e) = ship(i, Direction::ToAccel) {
                return abort_all(Error::CommitFailed(format!(
                    "PREPARE could not be delivered ({e}); transaction rolled back on all \
                     participants"
                )));
            }
        }
        // The PREPARE vote consults the failure registry: a fired
        // `coord.prepare.vote_no` site (armed one-shot or seeded plan)
        // makes a participant vote NO.
        if self.faults.registry.fire(sites::PREPARE_VOTE_NO) {
            return abort_all(Error::CommitFailed(
                "accelerator failed to prepare; transaction rolled back on all \
                 participants"
                    .into(),
            ));
        }
        for &i in ids {
            // A NO vote (or protocol error) aborts everywhere; the host
            // transaction must not stay open holding locks.
            if let Err(e) = self.nodes[i].engine.prepare(txn) {
                return abort_all(Error::CommitFailed(format!(
                    "accelerator PREPARE failed ({e}); transaction rolled back on all \
                     participants"
                )));
            }
        }
        // The YES votes travel back. Losing one leaves the transaction
        // in-doubt: the participant is prepared but the coordinator cannot
        // see the outcome. The resolver re-runs the status inquiry once;
        // if that fails too, all sides roll back (presumed abort).
        for &i in ids {
            if ship(i, Direction::ToHost).is_err() {
                let recovered =
                    ship(i, Direction::ToAccel).is_ok() && ship(i, Direction::ToHost).is_ok();
                if !recovered {
                    return abort_all(Error::CommitFailed(
                        "in-doubt transaction could not be resolved before timeout; rolled \
                         back on all participants"
                            .into(),
                    ));
                }
                self.in_doubt_resolved.fetch_add(1, Ordering::Relaxed);
                self.metrics.inc("twopc.in_doubt_resolved", 1);
            }
        }
        // Phase 2: the decision is durable once the coordinator commits.
        self.host.commit(txn);
        for &i in ids {
            let node = &self.nodes[i];
            if node.engine.is_crashed() || ship(i, Direction::ToAccel).is_err() {
                // The COMMIT decision is queued and redelivered on the next
                // replication round or recovery probe; the participant holds
                // the transaction prepared (durably — a crash re-materializes
                // it from the log) until the decision arrives.
                node.pending_commits.lock().push(txn);
                self.metrics.inc("twopc.decisions_queued", 1);
            } else {
                node.engine.commit(txn);
            }
        }
        Ok(())
    }

    /// Roll the session's transaction back on every participant.
    pub fn rollback_session(&self, session: &mut Session) -> Result<()> {
        let Some(txn) = session.txn.take() else { return Ok(()) };
        // Best-effort abort message per enlisted node — each participant
        // presumes abort for unresolved transactions on reconnect, so a
        // lost message cannot leave one committed.
        for i in self.fleet.take_enlisted(txn) {
            let node = &self.nodes[i];
            let _ = self.ship_on(node, Direction::ToAccel, wire::CONTROL_FRAME);
            node.engine.abort(txn);
        }
        self.host.rollback(txn)?;
        Ok(())
    }
}

fn explain_schema() -> idaa_common::Schema {
    idaa_common::Schema::new_unchecked(vec![idaa_common::ColumnDef::new(
        "PLAN",
        idaa_common::DataType::Varchar(255),
    )])
}

fn workload_schema() -> idaa_common::Schema {
    use idaa_common::{ColumnDef, DataType};
    idaa_common::Schema::new_unchecked(vec![
        ColumnDef::new("SESSION", DataType::BigInt),
        ColumnDef::new("PRIORITY", DataType::Varchar(8)),
        ColumnDef::new("QUEUED", DataType::BigInt),
        ColumnDef::new("RUNNING", DataType::BigInt),
        ColumnDef::new("DONE", DataType::BigInt),
        ColumnDef::new("FAILED", DataType::BigInt),
        ColumnDef::new("QUEUE_US", DataType::BigInt),
        ColumnDef::new("BYTES", DataType::BigInt),
    ])
}

/// One attempt at the reply leg of a statement exchange: how the transfer
/// shows up in the trace, and what the host side received.
struct ReplyLeg<R> {
    kind: &'static str,
    bytes: usize,
    sent: std::result::Result<R, idaa_netsim::LinkError>,
}

#[cfg(test)]
mod tests {
    use super::*;

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
        idaa.faults.registry.arm(idaa_netsim::sites::PREPARE_VOTE_NO, 1);
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
        idaa.link().fail_next_transfers(4);
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
        idaa.set_fault_plan(FaultPlan::dropping(11, 1.0));
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
        idaa.link().clear_faults();
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
            idaa.link().fail_next_transfers(1);
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
        idaa.set_fault_plan(FaultPlan::outage(Duration::ZERO, Duration::from_secs(1)));
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
        // COMMIT: the prepare request and YES vote round-trip, then every
        // phase-2 delivery attempt dies — the decision is queued while the
        // accelerator holds the transaction prepared (durably).
        idaa.link().fail_transfers_after(2, 8);
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
        idaa.faults.registry.arm(sites::POST_PREPARE, 1);
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
        // The UPDATE exchange is BEGIN, request, reply — deliver the
        // request but lose the reply. The coordinator cannot tell whether
        // the statement ran, so it redelivers under the same sequence
        // number; the receiver recognizes the duplicate and resends the
        // reply without executing again (X + 1 must apply exactly once).
        idaa.link().fail_transfers_after(2, 1);
        let out = idaa.execute(&mut s, "UPDATE T SET X = X + 1").unwrap();
        assert_eq!(out.count(), 1);
        assert_eq!(idaa.statements_deduped(), 1);
        let r = idaa.query(&mut s, "SELECT X FROM t").unwrap();
        assert_eq!(r.scalar().unwrap(), &Value::Int(11));
        assert_eq!(idaa.health().state(), HealthState::Online);
    }
}
