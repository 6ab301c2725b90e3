//! Multi-accelerator fleet: deterministic shard placement, scatter/gather
//! execution, and epoch-fenced replica failover.
//!
//! The accelerator side of [`Idaa`] is K nodes, each behind its own metered
//! [`NetLink`] and seeded [`FaultRegistry`]; the paper's single accelerator
//! is the fleet of one. One function, `Idaa::placement`, says where every
//! table lives at every size: hash shard `s` of an accelerator-only table
//! is the local table [`shard_table`] on `replication_factor` consecutive
//! nodes from `s % K`, and an accelerated DB2 table lives whole on every
//! node. Reads go to a shard's primary with failover in owner order; writes
//! and every fleet-wide operation (DDL, LOAD, GROOM) go to each ready
//! owner, and an owner that missed one catches up to DB2's catalog. Only
//! `shards > 1` scatters: every sharded scan of the plan gets one cut
//! ([`idaa_accel::cuts`]), the shards in ascending order ship each cut's
//! partial as one row frame, and the coordinator merges them with the
//! shared row operators and ends on the one plan walk
//! (`idaa_sql::exec::execute_plan`), answering every other scan — a whole
//! DB2 table — from DB2. A rebalance check on the virtual clock moves
//! failed-over shards back to their preferred owners. All of it is
//! deterministic, so a seed replays byte-identical `LinkMetrics` and traces.

use crate::health::{HealthMonitor, HealthState, SeqTracker};
use crate::idaa::{Idaa, IdaaConfig};
use crate::replication::Replicator;
use crate::router;
use crate::session::Session;
use crate::transfer::{Message, Request};
use idaa_accel::{cuts, AccelEngine, Cut, RestartStats, Snapshot};
use idaa_common::trace::Trace;
use idaa_common::{wire, Error, MetricsRegistry, ObjectName, Result, Row, Rows, Schema, Value};
use idaa_host::{AccelStatus, Granted, HostEngine, Lsn, TableKind, TableMeta, TxnId, SYSADM};
use idaa_netsim::{sites, Direction, FaultRegistry, LinkConfig, LinkMetrics, NetLink};
use idaa_sql::ast::{Query, TableRef};
use idaa_sql::exec::{execute_plan, RowSource};
use idaa_sql::plan::Plan;
use idaa_sql::{AccelerationMode, Privilege};
use parking_lot::Mutex;
use std::cell::OnceCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Fleet topology: how many accelerators and how AOTs shard across them.
///
/// The default (one accelerator, one shard, replication factor one) is the
/// paper's single-accelerator pairing: the one shard of every
/// accelerator-only table is the table itself, on the one node. How a
/// statement scatters is not configured: the plan's scatter cut decides
/// what each shard ships.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of accelerator nodes (K). Each gets its own metered link,
    /// fault registry, health monitor, and replication stream.
    pub accelerators: usize,
    /// Number of hash shards (N) for accelerator-only tables.
    pub shards: usize,
    /// Copies of every shard (clamped to `1..=accelerators`). Shard `s`
    /// lives on nodes `(s + r) % K` for `r in 0..replication_factor`.
    pub replication_factor: usize,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            accelerators: 1,
            shards: 1,
            replication_factor: 1,
        }
    }
}

/// Virtual-clock delay after a failover before the shard migrates back to
/// its preferred (recovered) owner.
const REBALANCE_AFTER: Duration = Duration::from_millis(20);

// ---------------------------------------------------------------------------
// Per-node state
// ---------------------------------------------------------------------------

/// One accelerator node: the engine plus everything the coordinator tracks
/// per peer — its metered link, seeded fault registry, health machine,
/// epoch-fenced delivery tracker, replication stream, queued COMMIT
/// decisions and table copies.
pub struct AccelNode {
    /// Position in the fleet (0-based; node 0 hosts the coordinator's clock).
    pub(crate) id: usize,
    /// The accelerator engine itself.
    pub(crate) engine: Arc<AccelEngine>,
    /// This node's host↔accelerator link. Every byte to or from the node is
    /// metered here.
    pub(crate) link: Arc<NetLink>,
    /// This node's seeded fault registry, shared by its engine and link.
    pub(crate) registry: Arc<FaultRegistry>,
    /// Circuit breaker for this node's link.
    pub(crate) health: HealthMonitor,
    /// Exactly-once statement delivery, fenced by this node's recovery epoch.
    pub(crate) delivered: SeqTracker,
    /// Replication stream shipping committed host changes to this node.
    pub(crate) replicator: Mutex<Replicator>,
    /// DB2's COMMIT decisions with their LSNs, queued until a message to the
    /// node carries them.
    pub(crate) pending_commits: Mutex<Vec<(TxnId, Lsn)>>,
    /// The commit LSN of each table's latest copy here (a load, a rebuild
    /// or a catch-up): no earlier snapshot reads the table on this node.
    pub(crate) copies: Mutex<HashMap<ObjectName, Lsn>>,
    /// Stats from this node's most recent crash restart.
    pub(crate) last_restart: Mutex<Option<RestartStats>>,
    /// Set when the node's durable state failed validation beyond local
    /// repair and a full rebuild (fresh media + re-ship from the host /
    /// replicas) is in progress. A rebuild that fails part-way leaves the
    /// flag set, so the next recovery probe resumes it instead of booting
    /// an empty engine.
    pub(crate) needs_rebuild: std::sync::atomic::AtomicBool,
    /// Completed storage rebuilds of this node (diagnostics + traces).
    pub(crate) rebuilds: AtomicU64,
}

impl AccelNode {
    /// Node `id`, counting into `metrics`: its link under `link.*` (node 0)
    /// or `link.node{id}.*`, its engine's storage faults under `disk.*`.
    pub(crate) fn new(
        id: usize,
        config: &IdaaConfig,
        registry: Arc<FaultRegistry>,
        metrics: &MetricsRegistry,
    ) -> Arc<AccelNode> {
        let engine = AccelEngine::new(&config.default_schema, config.accel.clone());
        let engine = Arc::new(engine.with_metrics(metrics));
        engine.set_identity(&format!("ACCEL{}", id + 1));
        engine.set_fault_registry(registry.clone());
        let prefix = if id == 0 { "link".to_string() } else { format!("link.node{id}") };
        let link = NetLink::with_registries(LinkConfig::default(), registry.clone(), metrics, &prefix);
        let node = AccelNode {
            id,
            engine,
            link: Arc::new(link),
            registry,
            health: HealthMonitor::default(),
            delivered: SeqTracker::default(),
            replicator: Mutex::new(Replicator::new(config.replication_batch)),
            pending_commits: Mutex::new(Vec::new()),
            copies: Mutex::new(HashMap::new()),
            last_restart: Mutex::new(None),
            needs_rebuild: std::sync::atomic::AtomicBool::new(false),
            rebuilds: AtomicU64::new(0),
        };
        node.delivered.reset(node.engine.epoch());
        Arc::new(node)
    }
}

// ---------------------------------------------------------------------------
// Placement
// ---------------------------------------------------------------------------

/// FNV-1a over the value's canonical debug rendering. Stable across runs and
/// platforms, so shard placement is deterministic per value.
pub fn shard_of(value: &Value, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in format!("{value:?}").bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    (h % shards as u64) as usize
}

/// Physical table holding `shard` of an accelerator-only table split
/// `shards` ways: the table itself when it has a single shard, else
/// `SCHEMA.NAME__S{shard}`.
pub fn shard_table(table: &ObjectName, shard: usize, shards: usize) -> ObjectName {
    if shards == 1 {
        return table.clone();
    }
    ObjectName { schema: table.schema.clone(), name: format!("{}__S{shard}", table.name) }
}

/// Coordinator-side fleet bookkeeping: current primaries, failover history
/// and nodes awaiting catch-up, with what each missed. Which tables are
/// sharded is not tracked here — the host catalog's
/// `TableKind::AcceleratorOnly` is the one registry.
pub(crate) struct FleetState {
    accelerators: usize,
    pub(crate) shards: usize,
    replicas: usize,
    current_primary: Mutex<Vec<usize>>,
    failed_over_at: Mutex<Vec<Option<Duration>>>,
    /// Nodes awaiting catch-up, each with the local tables it missed a
    /// write of (`None`: it may lag on every table it owns).
    catch_up: Mutex<BTreeMap<usize, Option<BTreeSet<ObjectName>>>>,
}

impl FleetState {
    pub(crate) fn new(config: &FleetConfig) -> FleetState {
        let accelerators = config.accelerators.max(1);
        let shards = config.shards.max(1);
        let replicas = config.replication_factor.clamp(1, accelerators);
        FleetState {
            accelerators,
            shards,
            replicas,
            current_primary: Mutex::new((0..shards).map(|s| s % accelerators).collect()),
            failed_over_at: Mutex::new(vec![None; shards]),
            catch_up: Mutex::new(BTreeMap::new()),
        }
    }

    /// Nodes owning `shard`, preferred owner first.
    pub(crate) fn owners(&self, shard: usize) -> Vec<usize> {
        (0..self.replicas).map(|r| (shard + r) % self.accelerators).collect()
    }

    /// The node a shard's reads prefer while it is healthy.
    pub(crate) fn preferred(&self, shard: usize) -> usize {
        self.owners(shard)[0]
    }

    pub(crate) fn primary_of(&self, shard: usize) -> usize {
        self.current_primary.lock()[shard]
    }

    pub(crate) fn record_failover(&self, shard: usize, to: usize, now: Duration) {
        let mut primaries = self.current_primary.lock();
        primaries[shard] = to;
        let preferred = self.preferred(shard);
        self.failed_over_at.lock()[shard] = if to == preferred { None } else { Some(now) };
    }

    pub(crate) fn failed_over_time(&self, shard: usize) -> Option<Duration> {
        self.failed_over_at.lock()[shard]
    }

    pub(crate) fn set_primary(&self, shard: usize, node: usize) {
        self.current_primary.lock()[shard] = node;
        self.failed_over_at.lock()[shard] = None;
    }

    /// Flag `node` for catch-up on every table it owns.
    pub(crate) fn mark_catch_up(&self, node: usize) {
        self.catch_up.lock().insert(node, None);
    }

    /// Flag each owner of `local` in `missed` for catch-up to DB2's
    /// catalog, and for a copy of `local` when another owner took its write.
    pub(crate) fn mark_missed(&self, (local, owners): &(ObjectName, Vec<usize>), missed: &BTreeSet<usize>) {
        let taken = owners.iter().any(|o| !missed.contains(o));
        for &o in owners.iter().filter(|o| missed.contains(o)) {
            if let Some(tables) = self.catch_up.lock().entry(o).or_insert(Some(BTreeSet::new())) {
                tables.extend(taken.then(|| local.clone()));
            }
        }
    }

    pub(crate) fn needs_catch_up(&self, node: usize) -> bool {
        self.catch_up.lock().contains_key(&node)
    }

    /// Whether `node` may lack a write of its local table `local`.
    pub(crate) fn lags_on(&self, node: usize, local: &ObjectName) -> bool {
        self.catch_up.lock().get(&node).is_some_and(|m| m.as_ref().is_none_or(|m| m.contains(local)))
    }

    pub(crate) fn clear_catch_up(&self, node: usize) {
        self.catch_up.lock().remove(&node);
    }
}

// ---------------------------------------------------------------------------
// Scatter requests
// ---------------------------------------------------------------------------

/// Retarget every FROM reference to a sharded table (resolved under
/// `default_schema`), anywhere in the FROM tree, derived tables and `UNION`
/// arms included, at its local table on one shard — `locals` pairs each
/// sharded table with it — keeping the original name visible as an alias so
/// column qualifiers still resolve.
fn with_shard_from(q: &Query, locals: &[(ObjectName, ObjectName)], default_schema: &str) -> Query {
    let target = |name: &ObjectName| {
        let table = name.resolve(default_schema);
        locals.iter().find(|(t, _)| *t == table).map(|(_, local)| local.clone())
    };
    fn retarget_query(q: &mut Query, target: &dyn Fn(&ObjectName) -> Option<ObjectName>) {
        if let Some(from) = &mut q.from {
            retarget(from, target);
        }
        q.unions.iter_mut().for_each(|(_, arm)| retarget_query(arm, target));
    }
    fn retarget(from: &mut TableRef, target: &dyn Fn(&ObjectName) -> Option<ObjectName>) {
        match from {
            TableRef::Table { name, alias } => {
                if let Some(shard) = target(name) {
                    *alias = Some(alias.take().unwrap_or_else(|| name.name.clone()));
                    *name = shard;
                }
            }
            TableRef::Join { left, right, .. } => {
                retarget(left, target);
                retarget(right, target);
            }
            TableRef::Subquery { query, .. } => retarget_query(query, target),
        }
    }
    let mut out = q.clone();
    retarget_query(&mut out, &target);
    out
}

/// What the coordinator runs a plan over, as the walk's row source: each
/// scatter cut's node with its merged partial, and every other scan — a
/// whole DB2 table — through DB2's locked read. No index serves it.
struct Gathered<'a> {
    schema: &'a str,
    host: &'a HostEngine,
    /// The DB2 reads' lock holder: the session's transaction (own writes
    /// visible), else an id DB2 numbers at the first read.
    txn: OnceCell<TxnId>,
    cuts: Vec<(&'a Plan, Vec<Row>)>,
}

impl RowSource for Gathered<'_> {
    fn node(&self, plan: &Plan, _: Option<&[bool]>) -> Result<Option<Vec<Row>>> {
        match (self.cuts.iter().find(|(node, _)| std::ptr::eq(*node, plan)), plan) {
            (Some((_, rows)), _) => Ok(Some(rows.clone())),
            (None, Plan::Scan { table, .. }) => {
                let txn = *self.txn.get_or_init(|| self.host.txns.next_id());
                self.host.read_table(txn, &table.resolve(self.schema)).map(Some)
            }
            (None, _) => Ok(None),
        }
    }
}

// ---------------------------------------------------------------------------
// Fleet execution
// ---------------------------------------------------------------------------

/// Where a read routed to the accelerator side runs. With no `sharded`
/// table the statement ships as it is to one of the nodes holding every
/// table it names whole; otherwise it scatters over the shards of the
/// `sharded` accelerator-only tables, gathers, and merges at the
/// coordinator.
pub(crate) struct ReadPlan {
    sharded: Vec<ObjectName>,
    /// Per shard (one when whole): the local table of each `sharded` table
    /// there, and the owners that serve it.
    shards: Vec<(Vec<ObjectName>, Vec<usize>)>,
}

impl Idaa {
    /// Number of accelerator nodes in the fleet.
    pub fn fleet_size(&self) -> usize {
        self.nodes.len()
    }

    /// Engine of node `i` (0-based).
    pub fn node_engine(&self, i: usize) -> &AccelEngine {
        &self.nodes[i].engine
    }

    /// Metered link of node `i`.
    pub fn node_link(&self, i: usize) -> &NetLink {
        &self.nodes[i].link
    }

    /// Seeded fault/crash registry of node `i`.
    pub fn node_registry(&self, i: usize) -> &Arc<FaultRegistry> {
        &self.nodes[i].registry
    }

    /// Install a seeded fault plan on node `i`'s registry.
    pub fn set_fault_plan_on(&self, i: usize, plan: idaa_netsim::SitePlan) {
        self.nodes[i].registry.set_plan(plan);
    }

    /// Completed storage rebuilds of node `i` (durable state discarded and
    /// re-shipped from the host and replicas after unrepairable
    /// corruption).
    pub fn node_rebuilds(&self, i: usize) -> u64 {
        self.nodes[i].rebuilds.load(Ordering::Relaxed)
    }

    /// Total failovers (a read served by a non-primary replica).
    pub fn fleet_failovers(&self) -> u64 {
        self.metrics.counter("fleet.failovers")
    }

    /// Total shards migrated back to their preferred owner.
    pub fn fleet_rebalances(&self) -> u64 {
        self.metrics.counter("fleet.rebalances")
    }

    /// Total wire bytes spent on shard catch-up copies.
    pub fn fleet_catch_up_bytes(&self) -> u64 {
        self.metrics.counter("fleet.catch_up.bytes")
    }

    /// Current primary node of every shard.
    pub fn current_primaries(&self) -> Vec<usize> {
        (0..self.fleet.shards).map(|s| self.fleet.primary_of(s)).collect()
    }

    /// Merged [`LinkMetrics`] across every node's link: the fleet-wide
    /// traffic totals the experiments report.
    pub fn fleet_link_metrics(&self) -> LinkMetrics {
        let per_node: Vec<LinkMetrics> = self.nodes.iter().map(|n| n.link.metrics()).collect();
        LinkMetrics::merged(per_node.iter())
    }

    /// Judge one node's readiness on the shared timeline, recording an
    /// "accel.restart" event if the check drove a recovery. A node that is
    /// not ready answers with its [`Idaa::node_unavailable`] error.
    fn ready_on(&self, node: &AccelNode, trace: &Trace) -> Result<()> {
        self.sync_node_clock(node);
        let ready = self.node_ready_traced(node, trace);
        self.absorb_node_clock(node);
        if ready {
            Ok(())
        } else {
            Err(self.node_unavailable(node))
        }
    }

    /// One statement attempt on one owner: [judge its
    /// readiness](Self::ready_on), then run the attempt.
    fn attempt_on<T>(
        &self,
        node: &AccelNode,
        session: &mut Session,
        run: impl FnOnce(&mut Session) -> Result<T>,
    ) -> Result<T> {
        self.ready_on(node, &session.trace.clone())?;
        let result = run(session);
        self.absorb_node_clock(node);
        result
    }

    /// The error for a shard none of whose owners could serve: the worst
    /// per-owner verdict, -904 before -30081. A fleet names the shard; a
    /// single node's own error already says everything.
    fn shard_error(&self, shard: usize, table: &ObjectName, down: Option<Error>) -> Error {
        match down {
            Some(e) if self.nodes.len() == 1 => e,
            Some(Error::ResourceUnavailable(_)) => Error::ResourceUnavailable(format!(
                "shard {shard} of {table} has no live replica; all owners are unavailable"
            )),
            _ => Error::LinkFailure(format!(
                "the exchange for shard {shard} of {table} failed after retries on every replica"
            )),
        }
    }

    /// Serve a read of `shard` from its `owners`: the current primary
    /// first, then the remaining replicas in fixed owner order. Returns the
    /// answer and the node that served it; a replica serving becomes the
    /// primary.
    fn read_on_owners<T>(
        &self,
        session: &mut Session,
        (shard, table): (usize, &ObjectName),
        owners: &[usize],
        run: impl Fn(&AccelNode, &mut Session) -> Result<T>,
    ) -> Result<(T, Arc<AccelNode>)> {
        let primary = self.fleet.primary_of(shard);
        let start = owners.iter().position(|&o| o == primary).unwrap_or(0);
        let mut down = None;
        for step in 0..owners.len() {
            let owner = owners[(start + step) % owners.len()];
            let node = self.nodes[owner].clone();
            match self.attempt_on(&node, session, |s| run(&node, s)) {
                Ok(v) => {
                    if owner != primary {
                        self.fleet.record_failover(shard, owner, self.link().now());
                        self.metrics.inc("fleet.failovers", 1);
                        session.trace.event(
                            "failover",
                            &[("shard", &shard), ("from", &primary), ("to", &owner)],
                            self.link().now(),
                        );
                    }
                    return Ok((v, node));
                }
                Err(e) => note_down(&mut down, e)?,
            }
        }
        Err(self.shard_error(shard, table, down))
    }

    /// Apply one write of `shard` of `table` to each live owner of its
    /// `placed` local table; the affected-row count is the first replica's.
    /// An owner that cannot take the write joins `missed` and sits out the
    /// rest of the write (every later shard that shares `missed`), so no
    /// mid-write catch-up can leave it half written. Once another owner took
    /// the write, it is flagged for a catch-up copy of the local table: a
    /// shard no owner took has nothing to catch up to.
    fn write_on_owners(
        &self,
        session: &mut Session,
        (shard, table): (usize, &ObjectName),
        placed: &(ObjectName, Vec<usize>),
        missed: &mut BTreeSet<usize>,
        mut run: impl FnMut(&AccelNode, &mut Session) -> Result<usize>,
    ) -> Result<usize> {
        let (mut counted, mut down) = (None, None);
        for &owner in &placed.1 {
            if missed.contains(&owner) {
                continue;
            }
            let node = self.nodes[owner].clone();
            match self.attempt_on(&node, session, |s| run(&node, s)) {
                Ok(n) => {
                    counted.get_or_insert(n);
                }
                Err(e) => {
                    note_down(&mut down, e)?;
                    missed.insert(owner);
                }
            }
        }
        let n = counted.ok_or_else(|| self.shard_error(shard, table, down))?;
        self.fleet.mark_missed(placed, missed);
        Ok(n)
    }

    /// How a read of `tables` runs on the accelerator side, by their
    /// [placement](Self::placement).
    pub(crate) fn read_plan(&self, tables: &[ObjectName]) -> Result<ReadPlan> {
        let whole = (Vec::new(), (0..self.nodes.len()).collect());
        let mut plan = ReadPlan { sharded: Vec::new(), shards: vec![whole] };
        for t in tables {
            let placement = self.placement(t, self.host.table_meta(t)?.kind);
            if placement.len() == 1 {
                plan.shards.iter_mut().for_each(|(_, owners)| owners.retain(|o| placement[0].1.contains(o)));
            } else if !plan.sharded.contains(t) {
                if plan.sharded.is_empty() {
                    plan.shards = placement.iter().map(|(_, owners)| (Vec::new(), owners.clone())).collect();
                }
                plan.sharded.push(t.clone());
                plan.shards.iter_mut().zip(placement).for_each(|((locals, _), (local, _))| locals.push(local));
            }
        }
        Ok(plan)
    }

    /// Whether `node` holds every DB2 commit up to snapshot `seq` a read of
    /// `tables` sees, else it is skipped like a down owner: no queued COMMIT
    /// decision up to `seq` may be left, unless the read's own request
    /// `carries` the queue; its replication watermark must reach `seq` when
    /// a table is replicated, and no copy of a table may be newer.
    fn serves(&self, node: &AccelNode, seq: Lsn, tables: &[ObjectName], carries: bool) -> Result<()> {
        let lags = node.replicator.lock().last_applied() < seq;
        let behind = !carries && node.pending_commits.lock().iter().any(|&(_, lsn)| lsn <= seq)
            || tables.iter().any(|t| {
                lags && self.host.table_meta(t).is_ok_and(|m| m.kind == TableKind::Regular)
                    || node.copies.lock().get(t).is_some_and(|&lsn| lsn > seq)
            });
        if !behind {
            return Ok(());
        }
        Err(Error::ResourceUnavailable(format!("{} lags the snapshot", node.engine.identity())))
    }

    /// Judge once, before the route event, whether the accelerator side can
    /// serve `plan`: every shard it touches needs one ready owner that
    /// [serves](Self::serves) it (which becomes the shard's primary).
    pub(crate) fn read_ready(
        &self,
        session: &mut Session,
        plan: &ReadPlan,
        tables: &[ObjectName],
    ) -> Result<()> {
        self.maybe_rebalance();
        let seq = self.snapshot(session).seq;
        let table = plan.sharded.first().unwrap_or(&tables[0]);
        let replicated =
            |t: &ObjectName| self.host.table_meta(t).is_ok_and(|m| m.kind == TableKind::Regular);
        let lags = |n: &Arc<AccelNode>| {
            n.health.state() != HealthState::Offline && n.replicator.lock().last_applied() < seq
        };
        if tables.iter().any(replicated) {
            // A scatter read's coordinator scans DB2 at its latest commit.
            if !plan.sharded.is_empty() && seq < self.host.txns.current_lsn() {
                return Err(Error::ResourceUnavailable("the snapshot predates DB2's commit".into()));
            }
            // One catch-up round at most, so the nodes that can serve hold
            // DB2's commits up to the snapshot.
            if self.nodes.iter().any(lags) {
                self.replicate_now()?;
            }
        }
        for (s, (_, owners)) in plan.shards.iter().enumerate() {
            self.read_on_owners(session, (s, table), owners, |node, _| self.serves(node, seq, tables, true))?;
        }
        Ok(())
    }

    /// Run a routed query (`q`, planned as `plan`) on the accelerator side
    /// and hand back the rows the host decodes from the reply frames.
    pub(crate) fn accel_read(
        &self,
        session: &mut Session,
        q: &Query,
        plan: &Plan,
        tables: &[ObjectName],
        read: &ReadPlan,
    ) -> Result<Rows> {
        let sharded = &read.sharded;
        if sharded.is_empty() {
            let served = self.read_on_owners(session, (0, &tables[0]), &read.shards[0].1, |node, s| {
                self.serves(node, self.snapshot(s).seq, tables, true)?;
                self.query_on(node, s, q, None)
            });
            return served.map(|(rows, _)| rows);
        }
        let schema = &self.config.default_schema;
        let cuts = cuts(plan, &|t: &ObjectName| sharded.contains(&t.resolve(schema)));
        let trace = session.trace.clone();
        let span = if trace.is_enabled() { Some(trace.begin("gather", self.link().now())) } else { None };
        if let Some(id) = span {
            let list = sharded.iter().map(|t| t.to_string()).collect::<Vec<_>>().join(",");
            trace.attr(id, "tables", list);
            trace.attr(id, "shards", read.shards.len());
            let merges: Vec<&str> = cuts.iter().map(|c| c.merge.name()).collect();
            trace.attr(id, "merge", merges.join(","));
        }
        let gathered = self.gather_partials(session, q, &cuts, (read, tables));
        let result = gathered.and_then(|gathered| execute_plan(plan, &gathered));
        if let Some(id) = span {
            if let Err(e) = &result {
                trace.attr(id, "err", e);
            }
            trace.end(id, self.link().now());
        }
        result
    }

    /// For each cut in order, the shards in ascending order ship the cut's
    /// partial; the coordinator merges them into the cut node's rows. A bare
    /// scan of a table an earlier cut already scanned bare reuses its rows.
    fn gather_partials<'a>(
        &'a self,
        session: &mut Session,
        q: &Query,
        cuts: &[Cut<'a>],
        scatter: (&ReadPlan, &[ObjectName]),
    ) -> Result<Gathered<'a>> {
        let schema = &self.config.default_schema;
        let mut merged: Vec<(&Plan, Vec<Row>)> = Vec::with_capacity(cuts.len());
        for (i, cut) in cuts.iter().enumerate() {
            let table = cut.table.resolve(schema);
            let bare = |c: &Cut| matches!(c.node, Plan::Scan { .. }) && c.table.resolve(schema) == table;
            let rows = match cuts[..i].iter().position(bare).filter(|_| bare(cut)) {
                Some(j) => merged[j].1.clone(),
                None => {
                    let parts = (0..scatter.0.shards.len()).map(|s| self.gather_shard(session, q, scatter, (i, &table), s));
                    cut.merge(parts.collect::<Result<_>>()?)?
                }
            };
            merged.push((cut.node, rows));
        }
        let txn = session.txn().map_or_else(OnceCell::new, OnceCell::from);
        Ok(Gathered { schema, host: &self.host, txn, cuts: merged })
    }

    /// Fetch shard `shard`'s partial of cut number `cut`, which covers
    /// `table`: `q`, its `sharded` tables retargeted at their local tables
    /// on the shard, runs there up to the cut, under a "shard" span naming
    /// the node that served it.
    fn gather_shard(
        &self,
        session: &mut Session,
        q: &Query,
        (plan, read): (&ReadPlan, &[ObjectName]),
        (cut, table): (usize, &ObjectName),
        shard: usize,
    ) -> Result<Vec<Row>> {
        let (tables, owners) = &plan.shards[shard];
        let locals: Vec<_> = plan.sharded.iter().cloned().zip(tables.iter().cloned()).collect();
        let pq = with_shard_from(q, &locals, &self.config.default_schema);
        let trace = session.trace.clone();
        let span = if trace.is_enabled() { Some(trace.begin("shard", self.link().now())) } else { None };
        if let Some(id) = span {
            trace.attr(id, "table", table);
            trace.attr(id, "shard", shard);
        }
        let result = self.read_on_owners(session, (shard, table), owners, |node, s| {
            self.serves(node, self.snapshot(s).seq, read, true)?;
            if let Err(e) = node.engine.crash_point(sites::MID_SCATTER) {
                self.fleet.mark_catch_up(node.id);
                return Err(e);
            }
            self.query_on(node, s, &pq, Some((tables, cut)))
        });
        if let Some(id) = span {
            match &result {
                Ok((_, node)) => {
                    trace.attr(id, "node", node.engine.identity());
                    trace.attr(id, "epoch", node.engine.epoch());
                }
                Err(e) => trace.attr(id, "err", e),
            }
            trace.end(id, self.link().now());
        }
        result.map(|(rows, _)| rows.rows)
    }

    /// Ship `q` to `node`, execute it there at the session's snapshot —
    /// whole, or up to the scatter cut `part` numbers over the node's shard
    /// tables — profiling the plan into "op" spans whenever tracing is on,
    /// and pay for the result's trip back as an encoded wire frame.
    fn query_on(
        &self,
        node: &AccelNode,
        session: &mut Session,
        q: &Query,
        part: Option<(&[ObjectName], usize)>,
    ) -> Result<Rows> {
        let snap = self.snapshot(session);
        let trace = session.trace.clone();
        let request = q.to_string().len() + wire::CONTROL_FRAME;
        self.exchange_rows(node, session, request, || {
            if part.is_none() && !trace.is_enabled() {
                return node.engine.query_at(snap, q);
            }
            let (rows, plan, profile) = node.engine.query_profiled(snap, q, part)?;
            if trace.is_enabled() {
                self.emit_plan_spans(&trace, &plan, &profile, node.link.now());
            }
            Ok(rows)
        })
    }

    /// Route failed-over shards back to their preferred owner once it is
    /// healthy, caught up, and the rebalance delay has elapsed on the
    /// virtual clock.
    pub(crate) fn maybe_rebalance(&self) {
        for s in 0..self.fleet.shards {
            let preferred = self.fleet.preferred(s);
            if self.fleet.primary_of(s) == preferred {
                continue;
            }
            let Some(at) = self.fleet.failed_over_time(s) else { continue };
            if self.link().now() < at + REBALANCE_AFTER {
                continue;
            }
            let node = &self.nodes[preferred];
            if node.engine.is_crashed()
                || node.health.state() == HealthState::Offline
                || self.fleet.needs_catch_up(preferred)
            {
                continue;
            }
            self.fleet.set_primary(s, preferred);
            self.metrics.inc("fleet.rebalances", 1);
        }
    }

    /// The one placement rule: each local table holding `table`'s rows, in
    /// shard order, with its owners — [`shard_table`] of each hash shard of
    /// an accelerator-only table, or an accelerated DB2 table on every node.
    pub(crate) fn placement(&self, table: &ObjectName, kind: TableKind) -> Vec<(ObjectName, Vec<usize>)> {
        let shards = self.fleet.shards;
        match kind {
            TableKind::AcceleratorOnly => {
                (0..shards).map(|s| (shard_table(table, s, shards), self.fleet.owners(s))).collect()
            }
            TableKind::Regular => vec![(table.clone(), (0..self.nodes.len()).collect())],
        }
    }

    /// The one loop of every fleet-wide operation (CREATE `IN ACCELERATOR`,
    /// DROP, ADD, REMOVE, LOAD, GROOM, the analytics output DDL), by
    /// [`write_on_owners`](Self::write_on_owners)' rule. Each owner of
    /// `table`'s placement is judged ready first, as statements judge it;
    /// with no ready owner for some shard, or a replicated table's node not
    /// ready, it fails (-904 or -30081) before anything changed. Then
    /// `catalog` changes DB2's catalog and each ready owner runs `apply` on
    /// its local table. The owners that missed it are flagged for catch-up,
    /// which brings them to the catalog (and copies each local table another
    /// owner took), and returned.
    pub(crate) fn on_placement(
        &self,
        trace: &Trace,
        (table, kind): (&ObjectName, TableKind),
        catalog: impl FnOnce() -> Result<()>,
        mut apply: impl FnMut(&AccelNode, &ObjectName) -> Result<()>,
    ) -> Result<BTreeSet<usize>> {
        let placement = self.placement(table, kind);
        // Each node is judged once: `Some(None)` when it is ready.
        let mut verdicts: Vec<Option<Option<Error>>> = vec![None; self.nodes.len()];
        for (s, (_, owners)) in placement.iter().enumerate() {
            let mut down = None;
            for &o in owners {
                let verdict = verdicts[o].get_or_insert_with(|| self.ready_on(&self.nodes[o], trace).err());
                if let Some(e) = verdict {
                    note_down(&mut down, e.clone())?;
                }
            }
            let served = owners.iter().any(|&o| verdicts[o] == Some(None));
            match down {
                Some(e) if kind == TableKind::Regular => return Err(e),
                down if !served => return Err(self.shard_error(s, table, down)),
                _ => {}
            }
        }
        catalog()?;
        let mut missed: BTreeSet<usize> =
            (0..self.nodes.len()).filter(|&o| matches!(verdicts[o], Some(Some(_)))).collect();
        for (local, owners) in &placement {
            for &o in owners {
                if !missed.contains(&o) {
                    if let Err(e) = apply(&self.nodes[o], local) {
                        note_down(&mut None, e)?;
                        missed.insert(o);
                    }
                }
            }
        }
        placement.iter().for_each(|shard| self.fleet.mark_missed(shard, &missed));
        Ok(missed)
    }

    /// The one shard split of every row writer: each row goes to the shard
    /// its first distribution column hashes to (column 0 without one), in
    /// ascending shard order. A single shard takes every batch, even an
    /// empty one, so enlistment and acks do not depend on what the batch
    /// held; with more shards an empty one is left out unless `every_shard`.
    fn split_by_shard(
        &self,
        meta: &TableMeta,
        rows: Vec<Row>,
        every_shard: bool,
    ) -> Result<Vec<(usize, Vec<Row>)>> {
        let shards = self.placement(&meta.name, meta.kind).len();
        let mut by_shard = vec![Vec::new(); shards];
        if shards == 1 {
            by_shard[0] = rows;
        } else {
            let dist = match meta.distribute_by.first() {
                Some(c) => meta.schema.index_of(c)?,
                None => 0,
            };
            for row in rows {
                by_shard[shard_of(&row[dist], shards)].push(row);
            }
        }
        let keep = |rows: &Vec<Row>| every_shard || shards == 1 || !rows.is_empty();
        Ok(by_shard.into_iter().enumerate().filter(|(_, rows)| keep(rows)).collect())
    }

    /// AOT insert of host-side rows: every live owner of each shard, enlisted
    /// in the session's transaction, ingests what it decodes from the
    /// exchange's row frames; the first frame to a node carries its BEGIN,
    /// the last its PREPARE, and the ack its vote ([`Carried`](crate::txn::Carried)).
    pub(crate) fn aot_insert_rows(
        &self,
        session: &mut Session,
        meta: &TableMeta,
        rows: Vec<Row>,
    ) -> Result<usize> {
        self.maybe_rebalance();
        let (mut total, mut missed) = (0usize, BTreeSet::new());
        let placement = self.placement(&meta.name, meta.kind);
        let batches = self.split_by_shard(meta, rows, false)?;
        let last = last_writes(batches.iter().map(|(s, _)| (*s, &placement[*s].1)));
        for (s, shard_rows) in batches {
            let st = &placement[s].0;
            total += self.write_on_owners(session, (s, &meta.name), &placement[s], &mut missed, |node, sess| {
                self.enlist_node(sess, node, last[&node.id] == s, |sess, carried| {
                    let frames = Request::Rows(&meta.schema, &shard_rows, (carried.begin, carried.prepare));
                    let ack = wire::ACK_FRAME + carried.prepare;
                    self.exchange_control(node, sess, (frames, ack), |delivered| {
                        carried.begin_on(node);
                        let n = node.engine.insert_rows(carried.txn, st, delivered)?;
                        carried.prepare_on(node);
                        Ok(n)
                    })
                })
            })?;
        }
        Ok(total)
    }

    /// A statement-shipped AOT write (UPDATE, DELETE, INSERT…SELECT
    /// pushdown): `op` runs at the session's snapshot on each shard's table
    /// on every live owner; only the statement text, with the unit's records
    /// it carries, and an ack, with any vote, cross ([`Carried`](crate::txn::Carried)).
    pub(crate) fn aot_statement(
        &self,
        session: &mut Session,
        table: &ObjectName,
        request_bytes: usize,
        op: impl Fn(&AccelNode, Snapshot, &ObjectName) -> Result<usize>,
    ) -> Result<usize> {
        self.maybe_rebalance();
        let (mut total, mut missed) = (0usize, BTreeSet::new());
        let placement = self.placement(table, TableKind::AcceleratorOnly);
        let last = last_writes(placement.iter().map(|(_, owners)| owners).enumerate());
        for (s, shard) in placement.iter().enumerate() {
            total += self.write_on_owners(session, (s, table), shard, &mut missed, |node, sess| {
                self.enlist_node(sess, node, last[&node.id] == s, |sess, carried| {
                    let snap = self.snapshot(sess);
                    let request = Request::Statement(request_bytes + carried.begin + carried.prepare);
                    self.exchange_control(node, sess, (request, wire::ACK_FRAME + carried.prepare), |_| {
                        carried.begin_on(node);
                        let n = op(node, snap, &shard.0)?;
                        carried.prepare_on(node);
                        Ok(n)
                    })
                })
            })?;
        }
        Ok(total)
    }

    /// The rows the session's transaction sees of the accelerator table
    /// `grant` authorizes SELECT on (accelerator-only, or an accelerated DB2
    /// table it has not changed in DB2), shard by shard in ascending shard
    /// order, each shard served by its owners: the primary first, then
    /// failover. No row crosses a link; this is how in-database analytics
    /// read.
    pub fn scan_accel_table(&self, session: &mut Session, grant: &Granted) -> Result<Rows> {
        self.read_accel_table(session, grant, false)
    }

    /// [`Idaa::scan_accel_table`] for a client-side extract: each shard's
    /// rows also cross the serving owner's link to the host as encoded
    /// frames, and the rows returned are the decoded ones.
    pub fn extract_accel_table(&self, session: &mut Session, grant: &Granted) -> Result<Rows> {
        self.read_accel_table(session, grant, true)
    }

    /// A SELECT's read rule: the table, classified for the session's
    /// transaction, routes as under `ALL` (-4742 when it is not on the
    /// accelerator for it), the read plan must be [ready](Self::read_ready),
    /// and each shard is scanned at the session's snapshot by an owner that
    /// [serves](Self::serves) it once its queued decisions are delivered
    /// (the scan sends it nothing).
    fn read_accel_table(&self, session: &mut Session, grant: &Granted, ship: bool) -> Result<Rows> {
        let meta = self.host.table_meta(grant.object_for(Privilege::Select)?)?;
        let tables = [meta.name.clone()];
        let mix = router::classify_for(&self.host, session.txn(), &tables)?;
        router::route_query(&mix, AccelerationMode::All)?;
        let read = self.read_plan(&tables)?;
        self.read_ready(session, &read, &tables)?;
        let snap = self.snapshot(session);
        let mut rows = Vec::new();
        for (s, (locals, owners)) in read.shards.iter().enumerate() {
            let st = locals.first().unwrap_or(&meta.name);
            let (part, _) = self.read_on_owners(session, (s, &meta.name), owners, |node, _| {
                self.flush_pending_commits_on(node);
                self.serves(node, snap.seq, &tables, false)?;
                let part = node.engine.scan_at(snap, st)?;
                if !ship {
                    return Ok(part);
                }
                self.ship_rows(node, &Trace::disabled(), Direction::ToHost, &meta.schema, &part, (0, 0))
            })?;
            rows.extend(part);
        }
        Ok(Rows::new(meta.schema, rows))
    }

    /// Create (or replace) the accelerator-only table `table`, owned by the
    /// session's user, holding `rows` that were computed on the accelerator
    /// (an analytics result). Replacing an existing table takes `replace`,
    /// the token to drop it. The table is DDL that autocommits; then every
    /// ready owner of every shard takes one exchange, a `CREATE_OUTPUT_FRAME`
    /// and an `ACK_FRAME`, and writes its rows. Inside `BEGIN` they are
    /// written in the session's transaction, which the node joins on the
    /// request, so they commit or roll back with it; outside, they commit at
    /// the session's snapshot as they land, like a load. No row crosses a
    /// link.
    pub fn write_output_aot(
        &self,
        session: &mut Session,
        table: &ObjectName,
        replace: Option<&Granted>,
        schema: Schema,
        rows: Vec<Row>,
    ) -> Result<()> {
        let name = table.resolve(&self.config.default_schema);
        let old = match self.host.table_meta(&name) {
            Ok(old) if old.kind != TableKind::AcceleratorOnly => {
                return Err(Error::InvalidAcceleratorUse(format!(
                    "output table {name} exists and is not accelerator-only"
                )));
            }
            Ok(_) => {
                let grant = replace.filter(|g| g.covers(&name, Privilege::All));
                Some(grant.ok_or_else(|| Error::internal(format!("no DROP token for {name}")))?)
            }
            Err(_) => None,
        };
        self.maybe_rebalance();
        let aot = TableKind::AcceleratorOnly;
        let catalog = || {
            old.map_or(Ok(()), |grant| self.host.drop_table(grant).map(drop))?;
            self.host.create_table(&session.user, &name, schema.clone(), aot, vec![]).map(drop)
        };
        // An owner that missed the DDL sits out the rows; catch-up gives it both.
        let mut missed = self.on_placement(&session.trace, (&name, aot), catalog, |node, local| {
            if node.engine.has_table(local) {
                node.engine.drop_table(local)?;
            }
            node.engine.create_table(local, schema.clone(), &[])
        })?;
        let meta = self.host.table_meta(&name)?;
        let (lsn, explicit) = (self.snapshot(session).seq, self.unit(session).explicit);
        let placement = self.placement(&name, aot);
        let write = || -> Result<()> {
            for (s, shard_rows) in self.split_by_shard(&meta, rows, true)? {
                let st = &placement[s].0;
                self.write_on_owners(session, (s, &name), &placement[s], &mut missed, |node, sess| {
                    let (rows, ack) = (shard_rows.clone(), wire::ACK_FRAME);
                    if !explicit {
                        let txn = self.host.txns.next_id();
                        let create = Request::Statement(wire::CREATE_OUTPUT_FRAME);
                        return self.exchange_control(node, sess, (create, ack), |_| {
                            node.engine.load_committed(txn, st, rows, lsn)
                        });
                    }
                    self.enlist_node(sess, node, false, |sess, carried| {
                        let create = Request::Statement(wire::CREATE_OUTPUT_FRAME + carried.begin);
                        self.exchange_control(node, sess, (create, ack), |_| {
                            carried.begin_on(node);
                            node.engine.insert_rows(carried.txn, st, rows)
                        })
                    })
                })?;
            }
            Ok(())
        };
        // A write that did not complete leaves no output table to read.
        write().inspect_err(|_| self.discard_table(&name))
    }

    /// Load rows into the accelerator table `grant` authorizes INSERT on, as
    /// one accelerator transaction: the loader's direct path. `fill` gets the
    /// batch writer: a batch splits by shard, crosses each owner's link as
    /// encoded frames, and each owner inserts what it decodes. When `fill`
    /// succeeds, every owner that took every batch prepares, commits and is
    /// acknowledged; otherwise no row becomes visible anywhere. The
    /// transaction is DB2's, but no session enlists it, so no BEGIN or 2PC
    /// frame crosses a link.
    pub fn load_direct<T>(
        &self,
        grant: &Granted,
        fill: impl FnOnce(&mut dyn FnMut(Vec<Row>) -> Result<()>) -> Result<T>,
    ) -> Result<T> {
        let meta = self.host.table_meta(grant.object_for(Privilege::Insert)?)?;
        if !on_accelerator(&meta) {
            return Err(Error::UndefinedObject(format!(
                "{} is not defined on the accelerator",
                meta.name
            )));
        }
        self.maybe_rebalance();
        let txn = self.host.begin();
        // The owner loop's context only: a load ships no statement.
        let mut session = Session::new(self.next_session_id(), SYSADM, &self.orphans);
        // The nodes that began the transaction, and the owners that missed
        // a batch (each sits out the rest of the load).
        let (mut joined, mut missed) = (BTreeSet::new(), BTreeSet::new());
        let placement = self.placement(&meta.name, meta.kind);
        let filled = fill(&mut |rows| {
            for (s, shard_rows) in self.split_by_shard(&meta, rows, false)? {
                let st = &placement[s].0;
                self.write_on_owners(&mut session, (s, &meta.name), &placement[s], &mut missed, |node, _| {
                    if joined.insert(node.id) {
                        node.engine.begin(txn);
                    }
                    let (trace, to) = (&Trace::disabled(), Direction::ToAccel);
                    let delivered = self.ship_rows(node, trace, to, &meta.schema, &shard_rows, (0, 0))?;
                    node.engine.insert_rows(txn, st, delivered)
                })?;
            }
            Ok(())
        });
        match filled {
            Ok(value) => self.commit_load(&meta, txn, &joined, &missed).map(|()| value),
            Err(e) => self.abort_on(txn, &joined).and(Err(e)),
        }
    }

    /// Finish a direct load: the owners that took every batch prepare, DB2
    /// decides, they commit and each is acknowledged. An owner that missed a
    /// batch aborts and catches up from a replica — except that every node
    /// must hold an accelerated DB2 table's rows, so there a miss fails the
    /// load.
    fn commit_load(
        &self,
        meta: &TableMeta,
        txn: TxnId,
        joined: &BTreeSet<usize>,
        missed: &BTreeSet<usize>,
    ) -> Result<()> {
        let committing: Vec<usize> = joined.difference(missed).copied().collect();
        let prepared = if meta.kind == TableKind::Regular && !missed.is_empty() {
            Err(Error::ResourceUnavailable(format!(
                "accelerator nodes {missed:?} missed part of the load into {}",
                meta.name
            )))
        } else {
            committing.iter().try_for_each(|&i| self.nodes[i].engine.prepare(txn))
        };
        if let Err(e) = prepared {
            return self.abort_on(txn, joined).and(Err(e));
        }
        let lsn = self.decide(txn, &committing);
        for &i in joined.intersection(missed) {
            self.nodes[i].engine.abort(txn);
        }
        for &i in &committing {
            self.nodes[i].engine.commit(txn, lsn);
            self.nodes[i].pending_commits.lock().retain(|&(t, _)| t != txn);
        }
        for &i in &committing {
            let node = &self.nodes[i];
            self.sync_node_clock(node);
            let ack = Message::Control(wire::ACK_FRAME);
            let acked = self.send(node, &Trace::disabled(), Direction::ToHost, "control", ack);
            self.absorb_node_clock(node);
            acked?;
        }
        Ok(())
    }
}

/// Whether `meta`'s rows live on the accelerator: an accelerator-only table,
/// or a DB2 table added to it.
pub(crate) fn on_accelerator(meta: &TableMeta) -> bool {
    meta.kind == TableKind::AcceleratorOnly || meta.accel_status != AccelStatus::NotAccelerated
}

/// Each node's last shard among `shards` (each with its owners), in write
/// order: where a statement's last write to the node goes.
fn last_writes<'a>(shards: impl Iterator<Item = (usize, &'a Vec<usize>)>) -> BTreeMap<usize, usize> {
    shards.flat_map(|(s, owners)| owners.iter().map(move |&o| (o, s))).collect()
}

/// Sort one owner's failure: a node that is down (not ready, exchange dead
/// after retries, or crashed mid-statement) is remembered — -904 outranks
/// -30081 — because another owner of the shard may still serve; any other
/// error is one every owner would answer the same way, and is returned.
fn note_down(down: &mut Option<Error>, e: Error) -> Result<()> {
    if !matches!(e, Error::LinkFailure(_) | Error::ResourceUnavailable(_)) {
        return Err(e);
    }
    if down.is_none() || matches!(e, Error::ResourceUnavailable(_)) {
        *down = Some(e);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use idaa_sql::parse_statement;
    use idaa_sql::ast::Statement;

    fn q(sql: &str) -> Query {
        match parse_statement(sql).expect("parse") {
            Statement::Query(q) => *q,
            other => panic!("not a query: {other:?}"),
        }
    }

    #[test]
    fn shard_placement_is_deterministic_and_wraps() {
        let fs = FleetState::new(&FleetConfig {
            accelerators: 3,
            shards: 4,
            replication_factor: 2,
        });
        assert_eq!(fs.owners(0), vec![0, 1]);
        assert_eq!(fs.owners(2), vec![2, 0]);
        assert_eq!(fs.owners(3), vec![0, 1]);
        let v = Value::BigInt(42);
        assert_eq!(shard_of(&v, 4), shard_of(&v, 4));
        assert_eq!(shard_of(&v, 1), 0);
        assert!(shard_of(&Value::Varchar("x".into()), 4) < 4);
    }

    #[test]
    fn replication_factor_clamps_to_fleet_size() {
        let fs = FleetState::new(&FleetConfig {
            accelerators: 2,
            shards: 2,
            replication_factor: 5,
        });
        assert_eq!(fs.owners(0), vec![0, 1]);
    }

    #[test]
    fn shard_table_names_keep_schema() {
        let t = ObjectName::qualified("APP", "SALES");
        assert_eq!(shard_table(&t, 2, 4).to_string(), "APP.SALES__S2");
        assert_eq!(shard_table(&t, 0, 1), t, "a single shard is the table itself");
    }

    #[test]
    fn with_shard_from_retargets_the_table_anywhere_in_the_from_tree() {
        let sales = ObjectName::qualified("APP", "SALES");
        let on = |shard: usize, tables: &[&ObjectName]| -> Vec<(ObjectName, ObjectName)> {
            tables.iter().map(|&t| (t.clone(), shard_table(t, shard, 4))).collect()
        };
        let retarget = |sql: &str| with_shard_from(&q(sql), &on(1, &[&sales]), "APP").to_string();
        assert_eq!(
            retarget("SELECT SALES.ID FROM SALES WHERE SALES.ID > 1"),
            "SELECT SALES.ID FROM APP.SALES__S1 AS SALES WHERE (SALES.ID > 1)"
        );
        assert_eq!(
            retarget("SELECT s.ID, d.NAME FROM DIM d JOIN APP.SALES s ON s.ID = d.ID"),
            "SELECT S.ID, D.NAME FROM DIM AS D INNER JOIN APP.SALES__S1 AS S ON (S.ID = D.ID)"
        );
        assert_eq!(
            retarget("SELECT COUNT(*) FROM (SELECT DISTINCT ID FROM SALES) AS u"),
            "SELECT COUNT(*) FROM (SELECT DISTINCT ID FROM APP.SALES__S1 AS SALES) AS U"
        );
        // A UNION arm, at the top level and inside a derived table.
        assert_eq!(
            retarget("SELECT ID FROM DIM UNION SELECT ID FROM SALES"),
            "SELECT ID FROM DIM UNION SELECT ID FROM APP.SALES__S1 AS SALES"
        );
        assert_eq!(
            retarget("SELECT COUNT(*) FROM (SELECT ID FROM DIM UNION ALL SELECT ID FROM SALES) AS u"),
            "SELECT COUNT(*) FROM (SELECT ID FROM DIM UNION ALL SELECT ID FROM APP.SALES__S1 AS SALES) AS U"
        );
        // Every sharded table of the statement moves to the same shard.
        let both = on(2, &[&sales, &ObjectName::qualified("APP", "CLICKS")]);
        assert_eq!(
            with_shard_from(&q("SELECT s.ID FROM SALES s JOIN CLICKS c ON s.ID = c.ID"), &both, "APP")
                .to_string(),
            "SELECT S.ID FROM APP.SALES__S2 AS S INNER JOIN APP.CLICKS__S2 AS C ON (S.ID = C.ID)"
        );
    }

    #[test]
    fn failover_bookkeeping_tracks_primaries() {
        let fs = FleetState::new(&FleetConfig { accelerators: 3, shards: 2, replication_factor: 2 });
        assert_eq!(fs.primary_of(1), 1);
        fs.record_failover(1, 2, Duration::from_millis(5));
        assert_eq!(fs.primary_of(1), 2);
        assert_eq!(fs.failed_over_time(1), Some(Duration::from_millis(5)));
        fs.set_primary(1, 1);
        assert_eq!(fs.primary_of(1), 1);
        assert_eq!(fs.failed_over_time(1), None);
    }
}
