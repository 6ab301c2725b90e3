//! Incremental-update replication: ships committed DB2 transactions on
//! accelerated tables to the accelerator over the metered link.
//!
//! This is the *only* freshness mechanism for regular accelerated tables —
//! and the machinery whose per-stage round trips the paper's AOT extension
//! exists to avoid. Ablation experiment E9 sweeps the batch size.
//!
//! The unit is DB2's own, a whole commit. A batch is the whole commits that
//! fit in `batch_size` changes (at least one); it ships as messages of at
//! most `batch_size` changes and gets one ack. Once all of them arrived,
//! each commit applies as one accelerator transaction at its own DB2 commit
//! LSN. So a replica always holds a prefix of DB2's commits, never part of
//! one.
//!
//! The watermark advances only to the end of an acknowledged batch, so a
//! link fault leaves the rest queued in the host log for the next round; a
//! full round moves it to DB2's current LSN. A redelivered batch applies only
//! the commits above the accelerator's last applied commit. Every committed
//! change applies exactly once however often the link drops (experiment
//! E14, `tests/chaos.rs`).

use idaa_accel::{AccelEngine, Snapshot};
use idaa_common::{wire, Error, ObjectName, Result, Row};
use idaa_host::{AccelStatus, ChangeOp, ChangeRecord, HostEngine, Lsn, TxnId};
use idaa_netsim::{sites, Direction, NetLink, RetryPolicy};
use idaa_sql::ast::{BinaryOp, Expr};
use std::collections::VecDeque;

/// Replication applier state.
pub struct Replicator {
    /// Host-side watermark: every DB2 commit up to it is acknowledged.
    last_applied: Lsn,
    /// Accelerator-side durable record of the last applied commit —
    /// redelivered changes at or below it are discarded.
    accel_applied: Lsn,
    /// The last apply round could not deliver everything (link fault); the
    /// backlog stays queued in the host log until the next round.
    stalled: bool,
    /// Max change records per message.
    batch_size: usize,
}

impl Replicator {
    /// Applier starting at LSN 0 with the given batch size; each message
    /// is retried by the one [`RetryPolicy`].
    pub fn new(batch_size: usize) -> Replicator {
        Replicator { last_applied: 0, accel_applied: 0, stalled: false, batch_size: batch_size.max(1) }
    }

    /// The LSN up to which the accelerator acknowledged every DB2 commit.
    pub fn last_applied(&self) -> Lsn {
        self.last_applied
    }

    /// True if the last apply round hit a link fault and left a backlog.
    pub fn stalled(&self) -> bool {
        self.stalled
    }

    /// Jump both watermarks forward to `lsn` (never backwards), after a
    /// storage rebuild re-shipped every replicated table as of `lsn`:
    /// replaying the backlog would double-apply it.
    pub fn fast_forward(&mut self, lsn: Lsn) {
        self.last_applied = self.last_applied.max(lsn);
        self.accel_applied = self.accel_applied.max(lsn);
    }

    /// Apply every commit newer than `last_applied` to the accelerator, batch
    /// by batch. Returns the number of change records applied.
    ///
    /// Only tables in `Loaded` state replicate; changes to other tables are
    /// skipped (their LSNs still advance the applied watermark).
    ///
    /// Link faults do not error: the round returns what it managed to
    /// apply, marks the stream [`stalled`](Self::stalled), and the next
    /// round resumes after the last acknowledged batch. Engine errors
    /// (always a bug) propagate.
    pub fn apply(
        &mut self,
        host: &HostEngine,
        accel: &AccelEngine,
        link: &NetLink,
    ) -> Result<usize> {
        self.stalled = false;
        // Every commit up to `through` is in `all` or changed nothing.
        let through = host.txns.current_lsn();
        let all = host.txns.changes_since(self.last_applied);
        let through = all.last().map_or(through, |c| through.max(c.commit_lsn));
        let mut changes = Vec::with_capacity(all.len());
        for c in all {
            if host.table_meta(&c.table)?.accel_status == AccelStatus::Loaded {
                changes.push(c);
            }
        }
        let mut applied = 0;
        let mut rest = &changes[..];
        while !rest.is_empty() {
            let (batch, more) = rest.split_at(batch_len(rest, self.batch_size));
            let (fresh, acked) = self.ship_batch(host, accel, link, batch)?;
            applied += fresh;
            if !acked {
                self.stalled = true;
                return Ok(applied);
            }
            rest = more;
        }
        self.last_applied = through;
        self.accel_applied = self.accel_applied.max(through);
        Ok(applied)
    }

    /// Ship `batch`, whole commits, as messages of at most `batch_size`
    /// changes, apply it once all arrived, and take its one ack. Returns the
    /// changes applied and whether the batch was acknowledged.
    fn ship_batch(
        &mut self,
        host: &HostEngine,
        accel: &AccelEngine,
        link: &NetLink,
        batch: &[ChangeRecord],
    ) -> Result<(usize, bool)> {
        let end = batch.last().map_or(0, |c| c.commit_lsn);
        // Decoded row images per table, in change order.
        let mut delivered: Vec<(ObjectName, VecDeque<Row>)> = Vec::new();
        for message in batch.chunks(self.batch_size) {
            // Full row images cross as wire frames, one per table in
            // first-occurrence order: a function of the change stream.
            let mut groups: Vec<(ObjectName, Vec<Row>)> = Vec::new();
            for c in message {
                let images: Vec<Row> = match &c.op {
                    ChangeOp::Insert(r) | ChangeOp::Delete(r) => vec![r.clone()],
                    ChangeOp::Update { old, new } => vec![old.clone(), new.clone()],
                };
                match groups.iter_mut().find(|(t, _)| *t == c.table) {
                    Some((_, g)) => g.extend(images),
                    None => groups.push((c.table.clone(), images)),
                }
            }
            // What applies is the *decoded* images: what survived the checksum.
            for (table, images) in groups {
                let schema = host.table_meta(&table)?.schema;
                let frame = wire::encode_frame(&schema, &images);
                if RetryPolicy::default().transfer_frame(link, Direction::ToAccel, &frame).is_err() {
                    return Ok((0, false));
                }
                let rows = wire::decode_rows(&frame, &schema)?;
                match delivered.iter_mut().find(|(t, _)| *t == table) {
                    Some((_, q)) => q.extend(rows),
                    None => delivered.push((table, rows.into())),
                }
            }
        }
        // A commit at or below the accelerator's applied commit landed in an
        // earlier round whose ack was lost; it only consumes its images.
        let (mut fresh, mut first) = (0, true);
        for commit in batch.chunk_by(|a, b| a.commit_lsn == b.commit_lsn) {
            let lsn = commit[0].commit_lsn;
            let txn = (lsn > self.accel_applied).then(|| host.txns.next_id());
            match apply_commit(accel, txn, commit, &mut delivered, first && txn.is_some()) {
                // A crash site fired mid-apply: like a link fault, the batch
                // went unacknowledged, and its uncommitted rest re-applies
                // after recovery, whose presumed-abort pass rolls this
                // transaction back.
                Err(Error::ResourceUnavailable(_)) => return Ok((fresh, false)),
                applied => fresh += applied?,
            }
            first &= txn.is_none();
            self.accel_applied = self.accel_applied.max(lsn);
        }
        // Only an acknowledged batch may advance the watermark.
        let acked = RetryPolicy::default().transfer(link, Direction::ToHost, wire::ACK_FRAME).is_ok();
        if acked {
            self.last_applied = end;
        }
        Ok((fresh, acked))
    }
}

/// Length of the first batch of `changes`: the whole commits that fit in
/// `max` changes, or the first commit when even it does not.
fn batch_len(changes: &[ChangeRecord], max: usize) -> usize {
    let Some(cut) = changes.get(max) else { return changes.len() };
    match changes.partition_point(|c| c.commit_lsn < cut.commit_lsn) {
        0 => changes.partition_point(|c| c.commit_lsn == cut.commit_lsn),
        whole => whole,
    }
}

/// Apply one DB2 commit as transaction `txn`, committed at its LSN,
/// consuming its decoded images in `delivered` in change order; without a
/// `txn` (redelivered after a lost ack) it consumes the images only.
/// Returns the changes applied. The batch's `first` fresh commit consults
/// the `MID_REPL_APPLY` crash site once it began; a crash there or at
/// `prepare`'s `POST_PREPARE` surfaces as `ResourceUnavailable`.
fn apply_commit(
    accel: &AccelEngine,
    txn: Option<TxnId>,
    commit: &[ChangeRecord],
    delivered: &mut [(ObjectName, VecDeque<Row>)],
    first: bool,
) -> Result<usize> {
    if let Some(txn) = txn {
        accel.begin(txn);
        if first {
            accel.crash_point(sites::MID_REPL_APPLY)?;
        }
    }
    for change in commit {
        let table = &change.table;
        let mut image = || {
            let queue = delivered.iter_mut().find(|(t, _)| t == table);
            queue.and_then(|(_, q)| q.pop_front()).ok_or_else(|| {
                Error::internal(format!("the replication frames for {table} ran short"))
            })
        };
        match &change.op {
            ChangeOp::Insert(_) => {
                let row = image()?;
                if let Some(txn) = txn {
                    accel.insert_rows(txn, table, vec![row])?;
                }
            }
            ChangeOp::Delete(_) => {
                let row = image()?;
                if let Some(txn) = txn {
                    delete_exact(accel, txn, table, &row)?;
                }
            }
            ChangeOp::Update { .. } => {
                let (old, new) = (image()?, image()?);
                if let Some(txn) = txn {
                    delete_exact(accel, txn, table, &old)?;
                    accel.insert_rows(txn, table, vec![new])?;
                }
            }
        }
    }
    let Some(txn) = txn else { return Ok(0) };
    accel.prepare(txn)?;
    accel.commit(txn, commit[0].commit_lsn);
    Ok(commit.len())
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
    // Duplicates of a full row: delete every match, re-insert the surplus.
    let n = accel.delete_where(Snapshot::latest(txn), table, filter.as_ref())?;
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
        let mut rep = Replicator::new(10);
        let t = host.begin();
        host.insert_rows(&on_t(&host, Privilege::Insert), t, vec![row(1, "a"), row(2, "b")])
            .unwrap();
        host.commit(t);
        let n = rep.apply(&host, &accel, &link).unwrap();
        assert_eq!(n, 2);
        assert_eq!(accel.scan_at(Snapshot::latest(0), &ObjectName::bare("T")).unwrap().len(), 2);
        assert!(link.metrics().bytes_to_accel > 0);
    }

    #[test]
    fn uncommitted_changes_do_not_replicate() {
        let (host, accel, link) = setup();
        let mut rep = Replicator::new(10);
        let t = host.begin();
        host.insert_rows(&on_t(&host, Privilege::Insert), t, vec![row(1, "a")]).unwrap();
        assert_eq!(rep.apply(&host, &accel, &link).unwrap(), 0);
        host.rollback(t).unwrap();
        assert_eq!(rep.apply(&host, &accel, &link).unwrap(), 0);
        assert!(accel.scan_at(Snapshot::latest(0), &ObjectName::bare("T")).unwrap().is_empty());
    }

    #[test]
    fn updates_and_deletes_converge() {
        let (host, accel, link) = setup();
        let mut rep = Replicator::new(10);
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
        let mut rows = accel.scan_at(Snapshot::latest(0), &ObjectName::bare("T")).unwrap();
        rows.sort_by(|a, b| a[0].cmp_total(&b[0]));
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1], row(2, "z"));
    }

    /// Commit `n` rows with ids from `first` on, in one transaction.
    fn commit_rows(host: &HostEngine, first: i32, n: i32) {
        let t = host.begin();
        let rows: Vec<Row> = (first..first + n).map(|i| row(i, "x")).collect();
        host.insert_rows(&on_t(host, Privilege::Insert), t, rows).unwrap();
        host.commit(t);
    }

    fn accel_rows(accel: &AccelEngine) -> usize {
        accel.scan_at(Snapshot::latest(0), &ObjectName::bare("T")).unwrap().len()
    }

    #[test]
    fn batching_controls_message_count() {
        let (host, accel, link) = setup();
        // Five 2-row commits fill one 10-change batch; a 25-row commit is a
        // batch of its own, shipped as three messages.
        for c in 0..5 {
            commit_rows(&host, 2 * c, 2);
        }
        commit_rows(&host, 10, 25);
        let mut rep = Replicator::new(10);
        assert_eq!(rep.apply(&host, &accel, &link).unwrap(), 35);
        assert_eq!(link.metrics().messages_to_accel, 1 + 3);
        assert_eq!(link.metrics().messages_to_host, 2, "one ack per batch");
    }

    #[test]
    fn a_commit_is_never_applied_in_part() {
        let (host, accel, link) = setup();
        commit_rows(&host, 0, 25);
        let mut rep = Replicator::new(10);
        // Every attempt at the second of the commit's three messages is lost.
        link.faults().arm(sites::LINK_TRANSFER, 1, 4);
        assert_eq!(rep.apply(&host, &accel, &link).unwrap(), 0);
        assert!(rep.stalled());
        assert_eq!(accel_rows(&accel), 0, "no part of the commit is visible");
        assert_eq!(rep.apply(&host, &accel, &link).unwrap(), 25);
        assert_eq!(accel_rows(&accel), 25);
    }

    #[test]
    fn duplicate_rows_delete_only_one() {
        let (host, accel, link) = setup();
        let mut rep = Replicator::new(100);
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
        assert!(accel.scan_at(Snapshot::latest(0), &ObjectName::bare("T")).unwrap().is_empty());
    }

    #[test]
    fn watermark_advances_and_log_truncates() {
        let (host, accel, link) = setup();
        let mut rep = Replicator::new(10);
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
        for c in 0..10 {
            commit_rows(&host, 10 * c, 10);
        }
        let mut rep = Replicator::new(10);
        // Each 10-row commit is one batch costing 2 transfers (payload +
        // ack); kill every attempt at the payload of batch 4 after 3 healthy
        // batches.
        link.faults().arm(sites::LINK_TRANSFER, 6, 4);
        let first = rep.apply(&host, &accel, &link).unwrap();
        assert_eq!(first, 30, "three batches landed before the fault");
        assert!(rep.stalled());
        assert_eq!(accel_rows(&accel), 30);
        assert!(
            !host.txns.changes_since(rep.last_applied()).is_empty(),
            "backlog stays queued in the host log"
        );
        // Next round catches up from the last acknowledged batch.
        let second = rep.apply(&host, &accel, &link).unwrap();
        assert_eq!(second, 70);
        assert!(!rep.stalled());
        assert_eq!(accel_rows(&accel), 100);
        // Ten payloads and ten acks were delivered: nothing shipped twice.
        assert_eq!(link.metrics().messages_to_accel, 10);
        assert_eq!(link.metrics().messages_to_host, 10);
    }

    #[test]
    fn lost_ack_redelivers_batch_exactly_once() {
        let (host, accel, link) = setup();
        commit_rows(&host, 0, 10);
        commit_rows(&host, 10, 10);
        let mut rep = Replicator::new(10);
        // Deliver batch 1, lose every attempt at its acknowledgement (transfer
        // #2).
        link.faults().arm(sites::LINK_TRANSFER, 1, 4);
        let first = rep.apply(&host, &accel, &link).unwrap();
        assert_eq!(first, 10);
        assert!(rep.stalled());
        assert_eq!(accel_rows(&accel), 10);
        // The watermark did not advance: batch 1 ships again, but its LSNs
        // identify it as already applied — no duplicate rows.
        let second = rep.apply(&host, &accel, &link).unwrap();
        assert_eq!(second, 10);
        assert_eq!(link.metrics().messages_to_accel, 3, "batch 1 shipped twice");
        assert_eq!(accel_rows(&accel), 20);
        assert_eq!(first + second, 20, "every change applied exactly once");
    }

    #[test]
    fn rechunked_redelivery_applies_only_the_new_suffix() {
        let (host, accel, link) = setup();
        commit_rows(&host, 0, 10);
        commit_rows(&host, 10, 5);
        let mut rep = Replicator::new(10);
        // Transfers: batch 1 payload, batch 1 ack, batch 2 payload, batch 2
        // ack — lose every attempt at the *second* batch's ack, so the 5-row
        // commit is applied but unacknowledged.
        link.faults().arm(sites::LINK_TRANSFER, 3, 4);
        let first = rep.apply(&host, &accel, &link).unwrap();
        assert_eq!(first, 15);
        assert!(rep.stalled());
        assert_eq!(accel_rows(&accel), 15);
        // A new 5-row commit joins the redelivered one in one batch: only
        // the new commit may apply.
        commit_rows(&host, 15, 5);
        let second = rep.apply(&host, &accel, &link).unwrap();
        assert_eq!(second, 5);
        assert!(!rep.stalled());
        assert_eq!(accel_rows(&accel), 20);
        assert_eq!(first + second, 20, "every change applied exactly once");
        assert_eq!(link.metrics().messages_to_accel, 3, "the two commits shipped as one");
    }

    #[test]
    fn outage_queues_changes_and_catches_up_after_window() {
        let (host, accel, link) = setup();
        link.faults().set_plan(idaa_netsim::SitePlan::default().and_window(
            sites::LINK_OUTAGE,
            std::time::Duration::ZERO..std::time::Duration::from_millis(50),
        ));
        let mut rep = Replicator::new(10);
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
        assert_eq!(accel.scan_at(Snapshot::latest(0), &ObjectName::bare("T")).unwrap().len(), 2);
    }
}
