//! Node availability and recovery: the readiness check every statement
//! attempt starts with, crash restart (checkpoint + log replay), rebuild of
//! a node whose durable state is corrupt beyond local repair, replica
//! catch-up copies, and the background storage scrub.
//!
//! Everything here consumes only virtual time (`link.advance`) and real,
//! metered wire frames; failure injection flows through the seeded
//! `FaultRegistry`, so a given seed replays byte-identically.

use crate::fleet::{on_accelerator, AccelNode};
use crate::health::HealthState;
use crate::idaa::Idaa;
use idaa_accel::{RestartStats, Snapshot};
use idaa_common::trace::Trace;
use idaa_common::{Error, ObjectName, Result};
use idaa_host::{AccelStatus, TableKind, TableMeta};
use idaa_netsim::Direction;
use std::sync::atomic::Ordering;
use std::time::Duration;

/// A table the catalog places on a node: its entry, local name, owners,
/// and whether the node just (re)created it.
type Placed = (TableMeta, ObjectName, Vec<usize>, bool);

/// Fixed virtual-time cost of an accelerator restart, charged to the node's
/// link clock before log replay.
const RESTART_LATENCY: Duration = Duration::from_millis(2);
/// Virtual replay bandwidth: a restart's checkpoint and replayed-log bytes,
/// and the bytes a scrub step verifies, are charged to the link clock at
/// this rate.
const REPLAY_BYTES_PER_SEC: u64 = 256 * 1024 * 1024;

impl Idaa {
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
        if node.health.should_probe(node.link.now()) && node.health.probe(&node.link) {
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
        if !node.health.probe(&node.link) {
            return false;
        }
        if node.engine.is_crashed() && self.restart_node(&node).is_err() {
            return false;
        }
        self.flush_pending_commits_on(&node);
        if self.fleet.needs_catch_up(node.id) && self.catch_up_node(&node).is_err() {
            return false;
        }
        let _ = self.replicate_now();
        true
    }

    /// Restart a crashed accelerator: rebuild state as checkpoint + log
    /// replay, charge the replay cost to the *virtual* clock, fence the
    /// statement tracker to the new recovery epoch, resolve re-materialized
    /// in-doubt transactions (presumed abort unless the coordinator holds
    /// a queued COMMIT decision), and redeliver queued decisions.
    pub(crate) fn restart_node(&self, node: &AccelNode) -> Result<()> {
        // A rebuild that failed part-way (read fault, lost exchange) left
        // the node on fresh-but-empty media: booting it as-is would serve
        // silently empty tables, so the flag forces the rebuild to resume.
        let stats = if node.needs_rebuild.load(Ordering::Relaxed) {
            self.rebuild_node(node)?
        } else {
            match node.engine.restart() {
                // Acknowledged durable state failed validation beyond local
                // repair: discard the media wholesale and re-materialize the
                // node from the host catalog and live replicas instead of
                // serving damaged state.
                Err(Error::StorageCorrupt(_)) => self.rebuild_node(node)?,
                r => r?,
            }
        };
        self.metrics.inc("accel.restarts", 1);
        self.metrics.inc(
            "accel.recovery.replayed_bytes",
            stats.checkpoint_bytes + stats.log_bytes_replayed,
        );
        // Recovery consumes virtual time only: a fixed restart latency
        // plus replaying checkpoint + log bytes at the replay bandwidth.
        // Never a wall-clock sleep. The cost lands on this node's own link
        // clock.
        let replayed = stats.checkpoint_bytes + stats.log_bytes_replayed;
        let replay_time = Duration::from_secs_f64(replayed as f64 / REPLAY_BYTES_PER_SEC as f64);
        node.link.advance(RESTART_LATENCY + replay_time);
        // Epoch fence: sequence state and acks from the previous
        // incarnation are stale.
        node.delivered.reset(stats.epoch);
        // Presumed abort: a prepared transaction whose COMMIT decision is
        // not queued on the coordinator was never decided — roll it back.
        // Queued decisions stay prepared until flush redelivers them.
        {
            let pending = node.pending_commits.lock();
            for txn in node.engine.in_doubt() {
                if !pending.iter().any(|&(t, _)| t == txn) {
                    node.engine.abort(txn);
                }
            }
        }
        self.flush_pending_commits_on(node);
        *node.last_restart.lock() = Some(stats);
        Ok(())
    }

    /// Rebuild a node whose durable state is corrupt beyond local repair:
    /// reset its media and restart it empty, then catch up — its tables from
    /// DB2's catalog; each loaded replicated table's snapshot from DB2, the
    /// replication watermark fast-forwarding past it; its other shards from
    /// live replicas, through the flagged catch-up copy — except that a
    /// shard it owns alone is quarantined (-904 until reloaded: its rows
    /// existed nowhere else, and a silently empty table is the one outcome
    /// recovery must never produce). Any failure part-way re-crashes the
    /// engine, so the next recovery probe resumes the rebuild.
    fn rebuild_node(&self, node: &AccelNode) -> Result<RestartStats> {
        node.needs_rebuild.store(true, Ordering::Relaxed);
        node.engine.durable().reset();
        let stats = node.engine.restart()?;
        let bytes_before = node.link.metrics().bytes_to_accel;
        let rebuild = || -> Result<()> {
            for (meta, local, owners, _) in &self.reconcile_tables(node)? {
                match meta.kind {
                    TableKind::AcceleratorOnly if owners.len() == 1 => {
                        node.engine.quarantine_table(local)?;
                    }
                    TableKind::Regular if meta.accel_status == AccelStatus::Loaded => {
                        self.copy_replica(node, meta, &mut None, false)?;
                    }
                    _ => {}
                }
            }
            node.replicator.lock().fast_forward(self.host.txns.current_lsn());
            self.fleet.mark_catch_up(node.id);
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

    /// Make `node`'s tables equal what DB2's catalog places there: drop each
    /// one the catalog does not place there or whose schema differs, then
    /// create each one missing, each change one metered DDL exchange.
    /// Returns what the catalog places there, in catalog name order then
    /// shard order.
    fn reconcile_tables(&self, node: &AccelNode) -> Result<Vec<Placed>> {
        let mut placed = Vec::new();
        for name in self.host.table_names() {
            let meta = self.host.table_meta(&name)?;
            for (local, owners) in self.placement(&meta.name, meta.kind) {
                if on_accelerator(&meta) && owners.contains(&node.id) {
                    placed.push((meta.clone(), local, owners, false));
                }
            }
        }
        for local in node.engine.table_names() {
            let schema = node.engine.table(&local)?.schema.clone();
            if !placed.iter().any(|(meta, l, _, _)| *l == local && meta.schema == schema) {
                self.ship_ddl_on(node, &format!("REMOVE TABLE {local}"))?;
                node.engine.drop_table(&local)?;
            }
        }
        for (meta, local, _, created) in &mut placed {
            if !node.engine.has_table(local) {
                self.ship_ddl_on(node, &format!("ADD TABLE {local}"))?;
                node.engine.create_table(local, meta.schema.clone(), &meta.distribute_by)?;
                *created = true;
            }
        }
        Ok(placed)
    }

    /// One background storage-scrub step on `node`, driven between
    /// statements by the commit path when [`IdaaConfig::scrub_every`] is
    /// non-zero. Verification I/O is charged to the node's *virtual* clock
    /// at the recovery bandwidth; the engine counts detections (and the
    /// repair checkpoint it takes) under `disk.*`, and a detection is
    /// recorded as a "disk.scrub" trace event. Like a mid-checkpoint
    /// crash, a scrub failure must not fail the user's already-durable
    /// commit — the next statement observes the crash and drives
    /// recovery.
    pub(crate) fn maybe_scrub_node(&self, node: &AccelNode, trace: &Trace) {
        let report = match node.engine.maybe_scrub(node.link.now(), self.config.scrub_every) {
            Ok(Some(report)) => report,
            _ => return,
        };
        node.link.advance(Duration::from_secs_f64(
            report.scanned_bytes as f64 / REPLAY_BYTES_PER_SEC as f64,
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

    /// Bring a lagging node to DB2's catalog: [its tables](Self::reconcile_tables),
    /// then every shard it lags on or just (re)created, copied from a live
    /// replica that holds the shard and lacks none of its writes, with both
    /// legs of the transfer metered and committed at DB2's current LSN (so a
    /// source must hold every COMMIT decision, and no undecided transaction's
    /// versions of the shard, which the copy would miss). The node stays
    /// flagged until a full pass succeeds: a node that finds no such owner to
    /// copy a shard it lags on from fails the pass (-904), so it never serves
    /// rows it may have missed. A pass that copied nothing is not counted.
    pub(crate) fn catch_up_node(&self, node: &AccelNode) -> Result<()> {
        let mut copied = false;
        let mut stranded = None;
        for (meta, st, owners, created) in &self.reconcile_tables(node)? {
            // A shard the node holds and lacks no write of needs no copy.
            if meta.kind != TableKind::AcceleratorOnly || !(*created || self.fleet.lags_on(node.id, st)) {
                continue;
            }
            let Some(src_id) = owners.iter().copied().find(|&o| {
                let src = &self.nodes[o];
                self.flush_pending_commits_on(src);
                o != node.id
                    && !src.engine.is_crashed()
                    && !self.fleet.lags_on(o, st)
                    && src.engine.has_table(st)
                    && src.pending_commits.lock().is_empty()
                    && !src.engine.undecided_on(st)
            }) else {
                // A sole owner has no one to lag behind.
                if owners.len() > 1 && self.fleet.lags_on(node.id, st) {
                    stranded = Some(st.clone());
                }
                continue;
            };
            let src = self.nodes[src_id].clone();
            let lsn = self.host.txns.current_lsn();
            let rows = src.engine.scan_at(Snapshot::latest(0), st)?;
            // Through DB2: one leg from the source, one to the node.
            let (from, to) = (src.link.metrics(), node.link.metrics());
            let (trace, schema) = (&Trace::disabled(), &meta.schema);
            let at_host = self.ship_rows(&src, trace, Direction::ToHost, schema, &rows, (0, 0))?;
            let delivered = self.ship_rows(node, trace, Direction::ToAccel, schema, &at_host, (0, 0))?;
            node.engine.truncate(st)?;
            node.engine.load_committed(self.host.txns.next_id(), st, delivered, lsn)?;
            node.copies.lock().insert(meta.name.clone(), lsn);
            let bytes = src.link.metrics().since(&from).bytes_to_host
                + node.link.metrics().since(&to).bytes_to_accel;
            self.metrics.inc("fleet.catch_up.bytes", bytes);
            copied = true;
        }
        if copied {
            self.metrics.inc("fleet.catch_ups", 1);
        }
        if let Some(shard) = stranded {
            return Err(Error::ResourceUnavailable(format!(
                "accelerator node {} cannot catch up {shard}: no up-to-date replica is available",
                node.id
            )));
        }
        self.fleet.clear_catch_up(node.id);
        Ok(())
    }
}
