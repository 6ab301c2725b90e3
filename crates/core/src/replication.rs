//! Incremental-update replication: ships committed DB2 changes on
//! accelerated tables to the accelerator in batches over the metered link.
//!
//! This is the *only* freshness mechanism for regular accelerated tables —
//! and the machinery whose per-stage round trips the paper's AOT extension
//! exists to avoid. Ablation experiment E9 sweeps the batch size.
//!
//! The applier survives link faults: the CDC watermark advances only when
//! a batch has been delivered *and acknowledged*, so a mid-stream failure
//! leaves the remaining changes queued in the host log for catch-up. A
//! batch whose acknowledgement was lost is redelivered on the next round
//! and deduplicated on the accelerator side *per change LSN* — batch
//! boundaries shift when new commits re-chunk the backlog, so a
//! redelivered batch may mix already-applied changes with new ones and
//! only the genuinely new suffix applies. Every committed change applies
//! exactly once no matter how often the link drops (experiment E14, chaos
//! suite in `tests/chaos.rs`).

use idaa_accel::AccelEngine;
use idaa_common::{wire, Error, ObjectName, Result, Row};
use idaa_host::{AccelStatus, ChangeOp, ChangeRecord, HostEngine, Lsn};
use idaa_netsim::{sites, Direction, NetLink, RetryPolicy};
use idaa_sql::ast::{BinaryOp, Expr};
use std::collections::VecDeque;

/// Replication applier state.
pub struct Replicator {
    /// Host-side watermark: highest LSN whose batch was acknowledged.
    last_applied: Lsn,
    /// Accelerator-side durable record of the highest applied LSN —
    /// redelivered changes at or below it are discarded.
    accel_applied: Lsn,
    /// The last apply round could not deliver everything (link fault); the
    /// backlog stays queued in the host log until the next round.
    stalled: bool,
    retry: RetryPolicy,
    /// Max change records shipped per apply message.
    pub batch_size: usize,
    pub batches_shipped: u64,
    /// Batches shipped more than once because their ack was lost.
    pub batches_redelivered: u64,
}

impl Default for Replicator {
    fn default() -> Self {
        Replicator::new(1024, RetryPolicy::default())
    }
}

impl Replicator {
    /// Applier starting at LSN 0 with the given batch size and per-message
    /// retry policy.
    pub fn new(batch_size: usize, retry: RetryPolicy) -> Replicator {
        Replicator {
            last_applied: 0,
            accel_applied: 0,
            stalled: false,
            retry,
            batch_size: batch_size.max(1),
            batches_shipped: 0,
            batches_redelivered: 0,
        }
    }

    /// LSN up to which changes have been acknowledged by the accelerator.
    pub fn last_applied(&self) -> Lsn {
        self.last_applied
    }

    /// True if the last apply round hit a link fault and left a backlog.
    pub fn stalled(&self) -> bool {
        self.stalled
    }

    /// Jump both watermarks forward to `lsn`. Used after a storage rebuild
    /// re-ships a full snapshot of every replicated table: the snapshot
    /// already contains every change at or below `lsn`, so replaying the
    /// backlog would double-apply it. Never moves a watermark backwards.
    pub fn fast_forward(&mut self, lsn: Lsn) {
        self.last_applied = self.last_applied.max(lsn);
        self.accel_applied = self.accel_applied.max(lsn);
    }

    /// Drain all committed changes newer than `last_applied` and apply them
    /// to the accelerator. Returns the number of change records applied.
    ///
    /// Only tables in `Loaded` state replicate; changes to other tables are
    /// skipped (their LSNs still advance the applied watermark).
    ///
    /// Link faults do not error: the round returns what it managed to
    /// apply, marks the stream [`stalled`](Self::stalled), and the next
    /// round resumes from the last acknowledged batch. Engine errors
    /// (always a bug) propagate.
    pub fn apply(
        &mut self,
        host: &HostEngine,
        accel: &AccelEngine,
        link: &NetLink,
    ) -> Result<usize> {
        self.stalled = false;
        let all = host.txns.changes_since(self.last_applied);
        if all.is_empty() {
            return Ok(0);
        }
        let last_lsn = all.last().expect("non-empty").lsn;
        // Only tables in Loaded state replicate; other changes never cross
        // the link (their LSNs still advance the watermark below).
        let mut changes = Vec::with_capacity(all.len());
        for c in all {
            if host.table_meta(&c.table)?.accel_status == AccelStatus::Loaded {
                changes.push(c);
            }
        }
        let mut applied = 0;
        for batch in changes.chunks(self.batch_size) {
            let batch_last = batch.last().expect("non-empty batch").lsn;
            // Full row images of every change in the batch cross the link as
            // encoded wire frames, one per table in first-occurrence order so
            // the frame sequence is deterministic for a given change stream.
            let mut groups: Vec<(ObjectName, Vec<Row>)> = Vec::new();
            for c in batch {
                let images: Vec<Row> = match &c.op {
                    ChangeOp::Insert(r) | ChangeOp::Delete(r) => vec![r.clone()],
                    ChangeOp::Update { old, new } => vec![old.clone(), new.clone()],
                };
                match groups.iter_mut().find(|(t, _)| *t == c.table) {
                    Some((_, g)) => g.extend(images),
                    None => groups.push((c.table.clone(), images)),
                }
            }
            // Ship every table's frame; the applier below works on the
            // *decoded* images, so what lands on the accelerator is exactly
            // what survived the checksum, not the host's in-memory rows.
            let mut delivered: Vec<(ObjectName, VecDeque<Row>)> =
                Vec::with_capacity(groups.len());
            let mut faulted = false;
            for (table, images) in &groups {
                let schema = host.table_meta(table)?.schema;
                let frame = wire::encode_frame(&schema, images);
                if self.retry.transfer_frame(link, Direction::ToAccel, &frame).is_err() {
                    faulted = true;
                    break;
                }
                delivered.push((table.clone(), wire::decode_rows(&frame, &schema)?.into()));
            }
            if faulted {
                self.stalled = true;
                return Ok(applied);
            }
            self.batches_shipped += 1;

            // Accelerator-side dedup, per change: anything at or below the
            // durable applied LSN landed in an earlier round whose ack was
            // lost. Batch boundaries are not stable across rounds (new
            // commits re-chunk the backlog), so a redelivered batch may mix
            // already-applied changes with new ones — only the genuinely
            // new suffix may apply.
            if batch_last > self.accel_applied {
                // Each batch applies under one accelerator transaction, so
                // a batch becomes visible atomically. DB2 numbers it.
                let txn = host.txns.next_id();
                accel.begin(txn);
                match apply_batch(accel, txn, batch, &mut delivered, self.accel_applied) {
                    Ok(fresh) => {
                        self.accel_applied = batch_last;
                        applied += fresh as usize;
                        if (fresh as usize) < batch.len() {
                            self.batches_redelivered += 1;
                        }
                    }
                    // The accelerator crashed mid-apply (a crash site
                    // fired): like a link fault, the batch went
                    // unacknowledged — `accel_applied` did not advance, so
                    // it re-applies in full under a fresh transaction after
                    // recovery; the partially-applied one is rolled back by
                    // restart's presumed-abort pass.
                    Err(Error::ResourceUnavailable(_)) => {
                        self.stalled = true;
                        return Ok(applied);
                    }
                    Err(e) => return Err(e),
                }
            } else {
                self.batches_redelivered += 1;
            }
            // Acknowledgement back to the host side; only an acknowledged
            // batch may advance the watermark.
            if self.retry.transfer(link, Direction::ToHost, wire::ACK_FRAME).is_err() {
                self.stalled = true;
                return Ok(applied);
            }
            self.last_applied = batch_last;
        }
        self.last_applied = last_lsn;
        self.accel_applied = self.accel_applied.max(last_lsn);
        // Truncation is the *caller's* decision: with one accelerator the
        // log truncates at this stream's watermark right after the round,
        // but in a fleet every node owns a replication stream and the log
        // may only truncate at the minimum watermark across all of them —
        // a lagging (or crashed) node must still find its backlog.
        Ok(applied)
    }
}

/// Apply one replication batch under transaction `txn`, consuming decoded
/// row images from `delivered` in change order — stale changes (at or
/// below `watermark`, redelivered after a lost ack) consume their frame
/// slots without applying. Returns the number of genuinely new changes
/// applied.
///
/// The `MID_REPL_APPLY` crash site fires before the first change; a crash
/// there (or at `prepare`'s `POST_PREPARE` site) surfaces as
/// `ResourceUnavailable`, which the caller treats like an unacknowledged
/// batch.
fn apply_batch(
    accel: &AccelEngine,
    txn: u64,
    batch: &[ChangeRecord],
    delivered: &mut [(ObjectName, VecDeque<Row>)],
    watermark: Lsn,
) -> Result<u64> {
    accel.crash_point(sites::MID_REPL_APPLY)?;
    let mut fresh: u64 = 0;
    for change in batch {
        // Decoded images are consumed in change order even for
        // deduplicated (stale) changes — they occupy frame slots.
        let queue = delivered
            .iter_mut()
            .find(|(t, _)| *t == change.table)
            .map(|(_, q)| q)
            .expect("every change's table shipped a frame");
        let stale = change.lsn <= watermark;
        match &change.op {
            ChangeOp::Insert(_) => {
                let row = queue.pop_front().expect("insert image in frame");
                if !stale {
                    accel.insert_rows(txn, &change.table, vec![row])?;
                }
            }
            ChangeOp::Delete(_) => {
                let row = queue.pop_front().expect("delete image in frame");
                if !stale {
                    delete_exact(accel, txn, &change.table, &row)?;
                }
            }
            ChangeOp::Update { .. } => {
                let old = queue.pop_front().expect("old image in frame");
                let new = queue.pop_front().expect("new image in frame");
                if !stale {
                    delete_exact(accel, txn, &change.table, &old)?;
                    accel.insert_rows(txn, &change.table, vec![new])?;
                }
            }
        }
        if !stale {
            fresh += 1;
        }
    }
    accel.prepare(txn)?;
    accel.commit(txn);
    Ok(fresh)
}

/// Delete exactly one accelerator row matching the full image `row`.
/// Log-based capture ships full before-images, so equality on all columns
/// identifies the victim.
fn delete_exact(
    accel: &AccelEngine,
    txn: u64,
    table: &ObjectName,
    row: &Row,
) -> Result<()> {
    let t = accel.table(table)?;
    let mut filter: Option<Expr> = None;
    for (col, v) in t.schema.columns().iter().zip(row) {
        let conj = if v.is_null() {
            Expr::IsNull { expr: Box::new(Expr::col(&col.name)), negated: false }
        } else {
            Expr::Binary {
                left: Box::new(Expr::col(&col.name)),
                op: BinaryOp::Eq,
                right: Box::new(Expr::Literal(v.clone())),
            }
        };
        filter = Some(match filter {
            None => conj,
            Some(f) => f.and(conj),
        });
    }
    // Delete only the first match when duplicates exist: emulate by
    // deleting all matches and re-inserting n-1 copies — but duplicates of
    // *full rows* are rare in practice; the simple implementation deletes
    // all matches and reinserts the surplus.
    let n = accel.delete_where(txn, table, filter.as_ref())?;
    if n > 1 {
        let surplus = vec![row.clone(); n - 1];
        accel.insert_rows(txn, table, surplus)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use idaa_common::{ColumnDef, DataType, Schema, Value};
    use idaa_host::{TableKind, SYSADM};
    use idaa_netsim::sites;
    use idaa_sql::Privilege;

    fn setup() -> (HostEngine, AccelEngine, NetLink) {
        let host = HostEngine::default();
        let accel = AccelEngine::default();
        let link = NetLink::default();
        let schema = Schema::new(vec![
            ColumnDef::not_null("ID", DataType::Integer),
            ColumnDef::new("V", DataType::Varchar(16)),
        ])
        .unwrap();
        let name = ObjectName::bare("T");
        host.create_table(SYSADM, &name, schema.clone(), TableKind::Regular, vec![]).unwrap();
        accel.create_table(&name, schema, &[]).unwrap();
        host.set_accel_status(&name, AccelStatus::Loaded).unwrap();
        (host, accel, link)
    }

    /// SYSADM's `privilege` on T.
    fn on_t(host: &HostEngine, privilege: Privilege) -> idaa_host::Granted {
        host.privileges.read().check(SYSADM, &host.resolve(&ObjectName::bare("T")), privilege).unwrap()
    }

    fn row(id: i32, v: &str) -> Row {
        vec![Value::Int(id), Value::Varchar(v.into())]
    }

    #[test]
    fn inserts_replicate() {
        let (host, accel, link) = setup();
        let mut rep = Replicator::new(10, RetryPolicy::default());
        let t = host.begin();
        host.insert_rows(&on_t(&host, Privilege::Insert), t, vec![row(1, "a"), row(2, "b")])
            .unwrap();
        host.commit(t);
        let n = rep.apply(&host, &accel, &link).unwrap();
        assert_eq!(n, 2);
        assert_eq!(accel.scan_visible(&ObjectName::bare("T")).unwrap().len(), 2);
        assert!(link.metrics().bytes_to_accel > 0);
    }

    #[test]
    fn uncommitted_changes_do_not_replicate() {
        let (host, accel, link) = setup();
        let mut rep = Replicator::new(10, RetryPolicy::default());
        let t = host.begin();
        host.insert_rows(&on_t(&host, Privilege::Insert), t, vec![row(1, "a")]).unwrap();
        assert_eq!(rep.apply(&host, &accel, &link).unwrap(), 0);
        host.rollback(t).unwrap();
        assert_eq!(rep.apply(&host, &accel, &link).unwrap(), 0);
        assert!(accel.scan_visible(&ObjectName::bare("T")).unwrap().is_empty());
    }

    #[test]
    fn updates_and_deletes_converge() {
        let (host, accel, link) = setup();
        let mut rep = Replicator::new(10, RetryPolicy::default());
        let t = host.begin();
        host.insert_rows(&on_t(&host, Privilege::Insert), t,
            vec![row(1, "a"), row(2, "b"), row(3, "c")],
        )
        .unwrap();
        host.commit(t);
        rep.apply(&host, &accel, &link).unwrap();
        let t2 = host.begin();
        host.update_where(&on_t(&host, Privilege::Update), t2,
            &[("V".into(), Expr::str("z"))],
            Some(&Expr::col("ID").eq(Expr::int(2))),
        )
        .unwrap();
        host.delete_where(&on_t(&host, Privilege::Delete), t2, Some(&Expr::col("ID").eq(Expr::int(3))))
            .unwrap();
        host.commit(t2);
        rep.apply(&host, &accel, &link).unwrap();
        let mut rows = accel.scan_visible(&ObjectName::bare("T")).unwrap();
        rows.sort_by(|a, b| a[0].cmp_total(&b[0]));
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1], row(2, "z"));
    }

    #[test]
    fn batching_controls_message_count() {
        let (host, accel, link) = setup();
        let t = host.begin();
        let rows: Vec<Row> = (0..100).map(|i| row(i, "x")).collect();
        host.insert_rows(&on_t(&host, Privilege::Insert), t, rows).unwrap();
        host.commit(t);
        let mut rep = Replicator::new(10, RetryPolicy::default());
        rep.apply(&host, &accel, &link).unwrap();
        assert_eq!(rep.batches_shipped, 10);
        assert_eq!(link.metrics().messages_to_accel, 10);
    }

    #[test]
    fn duplicate_rows_delete_only_one() {
        let (host, accel, link) = setup();
        let mut rep = Replicator::new(100, RetryPolicy::default());
        let t = host.begin();
        host.insert_rows(&on_t(&host, Privilege::Insert), t, vec![row(1, "a"), row(1, "a")])
            .unwrap();
        host.commit(t);
        rep.apply(&host, &accel, &link).unwrap();
        let t2 = host.begin();
        // Host deletes both (same predicate matches both rows there too),
        // producing two delete records; accel must converge to zero.
        host.delete_where(&on_t(&host, Privilege::Delete), t2, Some(&Expr::col("ID").eq(Expr::int(1))))
            .unwrap();
        host.commit(t2);
        rep.apply(&host, &accel, &link).unwrap();
        assert!(accel.scan_visible(&ObjectName::bare("T")).unwrap().is_empty());
    }

    #[test]
    fn watermark_advances_and_log_truncates() {
        let (host, accel, link) = setup();
        let mut rep = Replicator::new(10, RetryPolicy::default());
        let t = host.begin();
        host.insert_rows(&on_t(&host, Privilege::Insert), t, vec![row(1, "a")]).unwrap();
        host.commit(t);
        rep.apply(&host, &accel, &link).unwrap();
        assert!(rep.last_applied() > 0);
        assert!(
            host.txns.changes_since(rep.last_applied()).is_empty(),
            "backlog fully applied"
        );
        // Truncation is the caller's call (fleet: minimum watermark across
        // all streams) — here one stream, so its watermark is the minimum.
        host.txns.truncate_log(rep.last_applied());
        assert!(host.txns.changes_since(0).is_empty(), "log truncated at the watermark");
        // Idempotent when nothing new.
        assert_eq!(rep.apply(&host, &accel, &link).unwrap(), 0);
    }

    #[test]
    fn mid_stream_delivery_failure_resumes_without_loss() {
        let (host, accel, link) = setup();
        let t = host.begin();
        let rows: Vec<Row> = (0..100).map(|i| row(i, "x")).collect();
        host.insert_rows(&on_t(&host, Privilege::Insert), t, rows).unwrap();
        host.commit(t);
        let mut rep = Replicator::new(10, RetryPolicy::none());
        // Batches cost 2 transfers each (payload + ack); kill the payload
        // of batch 4 after 3 healthy batches.
        link.faults().arm(sites::LINK_TRANSFER, 6, 1);
        let first = rep.apply(&host, &accel, &link).unwrap();
        assert_eq!(first, 30, "three batches landed before the fault");
        assert!(rep.stalled());
        assert_eq!(accel.scan_visible(&ObjectName::bare("T")).unwrap().len(), 30);
        assert!(
            !host.txns.changes_since(rep.last_applied()).is_empty(),
            "backlog stays queued in the host log"
        );
        // Next round catches up from the last acknowledged batch.
        let second = rep.apply(&host, &accel, &link).unwrap();
        assert_eq!(second, 70);
        assert!(!rep.stalled());
        assert_eq!(accel.scan_visible(&ObjectName::bare("T")).unwrap().len(), 100);
        assert_eq!(rep.batches_shipped, 10);
        assert_eq!(rep.batches_redelivered, 0);
    }

    #[test]
    fn lost_ack_redelivers_batch_exactly_once() {
        let (host, accel, link) = setup();
        let t = host.begin();
        let rows: Vec<Row> = (0..20).map(|i| row(i, "x")).collect();
        host.insert_rows(&on_t(&host, Privilege::Insert), t, rows).unwrap();
        host.commit(t);
        let mut rep = Replicator::new(10, RetryPolicy::none());
        // Deliver batch 1, lose its acknowledgement (transfer #2).
        link.faults().arm(sites::LINK_TRANSFER, 1, 1);
        let first = rep.apply(&host, &accel, &link).unwrap();
        assert_eq!(first, 10);
        assert!(rep.stalled());
        assert_eq!(accel.scan_visible(&ObjectName::bare("T")).unwrap().len(), 10);
        // The watermark did not advance: batch 1 ships again, but its LSN
        // identifies it as already applied — no duplicate rows.
        let second = rep.apply(&host, &accel, &link).unwrap();
        assert_eq!(second, 10);
        assert_eq!(rep.batches_redelivered, 1);
        assert_eq!(accel.scan_visible(&ObjectName::bare("T")).unwrap().len(), 20);
        assert_eq!(first + second, 20, "every change applied exactly once");
    }

    #[test]
    fn rechunked_redelivery_applies_only_the_new_suffix() {
        let (host, accel, link) = setup();
        let t = host.begin();
        let rows: Vec<Row> = (0..15).map(|i| row(i, "x")).collect();
        host.insert_rows(&on_t(&host, Privilege::Insert), t, rows).unwrap();
        host.commit(t);
        let mut rep = Replicator::new(10, RetryPolicy::none());
        // Transfers: batch 1 payload, batch 1 ack, batch 2 payload, batch 2
        // ack — lose the *second* batch's ack, so a partial (5-change)
        // batch is applied but unacknowledged.
        link.faults().arm(sites::LINK_TRANSFER, 3, 1);
        let first = rep.apply(&host, &accel, &link).unwrap();
        assert_eq!(first, 15);
        assert!(rep.stalled());
        assert_eq!(accel.scan_visible(&ObjectName::bare("T")).unwrap().len(), 15);
        // New commits re-chunk the backlog: the first redelivered batch now
        // mixes the 5 already-applied changes with 5 new ones. Only the new
        // suffix may apply — batch-granularity dedup would duplicate rows.
        let t2 = host.begin();
        let more: Vec<Row> = (15..25).map(|i| row(i, "y")).collect();
        host.insert_rows(&on_t(&host, Privilege::Insert), t2, more).unwrap();
        host.commit(t2);
        let second = rep.apply(&host, &accel, &link).unwrap();
        assert_eq!(second, 10);
        assert!(!rep.stalled());
        assert_eq!(accel.scan_visible(&ObjectName::bare("T")).unwrap().len(), 25);
        assert_eq!(first + second, 25, "every change applied exactly once");
        assert_eq!(rep.batches_redelivered, 1);
    }

    #[test]
    fn outage_queues_changes_and_catches_up_after_window() {
        let (host, accel, link) = setup();
        link.faults().set_plan(idaa_netsim::SitePlan::default().and_window(
            sites::LINK_OUTAGE,
            std::time::Duration::ZERO..std::time::Duration::from_millis(50),
        ));
        let mut rep = Replicator::new(10, RetryPolicy::none());
        let t = host.begin();
        host.insert_rows(&on_t(&host, Privilege::Insert), t, vec![row(1, "a")]).unwrap();
        host.commit(t);
        assert_eq!(rep.apply(&host, &accel, &link).unwrap(), 0);
        assert!(rep.stalled());
        // More changes accumulate during the outage.
        let t2 = host.begin();
        host.insert_rows(&on_t(&host, Privilege::Insert), t2, vec![row(2, "b")]).unwrap();
        host.commit(t2);
        // The window passes on the virtual clock; everything catches up.
        link.advance(std::time::Duration::from_millis(60));
        assert_eq!(rep.apply(&host, &accel, &link).unwrap(), 2);
        assert!(!rep.stalled());
        assert_eq!(accel.scan_visible(&ObjectName::bare("T")).unwrap().len(), 2);
    }
}
