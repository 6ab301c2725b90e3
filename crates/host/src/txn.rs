//! Transactions: undo logging for rollback, and change capture (CDC) that
//! feeds the accelerator's incremental-update replication.

use crate::storage::Rid;
use idaa_common::{ObjectName, Row};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Transaction identifier.
pub type TxnId = u64;

/// Log sequence number of a committed change.
pub type Lsn = u64;

/// Undo record for one DML action, applied in reverse order on rollback.
#[derive(Debug, Clone)]
pub enum UndoRecord {
    /// Undo an insert: delete the row again.
    Insert { table: ObjectName, rid: Rid, row: Row },
    /// Undo a delete: restore the old row at its RID.
    Delete { table: ObjectName, rid: Rid, row: Row },
    /// Undo an update: put the old image back.
    Update { table: ObjectName, rid: Rid, old: Row, new: Row },
}

/// A committed, replicable change. The CDC applier ships whole commits to
/// the accelerator, so each change names the last LSN of its commit.
#[derive(Debug, Clone, PartialEq)]
pub struct ChangeRecord {
    pub lsn: Lsn,
    /// The last LSN of the commit this change belongs to.
    pub commit_lsn: Lsn,
    pub table: ObjectName,
    pub op: ChangeOp,
}

/// The change operation, carrying full row images (DB2's log-based capture
/// ships full images to IDAA too).
#[derive(Debug, Clone, PartialEq)]
pub enum ChangeOp {
    Insert(Row),
    Delete(Row),
    Update { old: Row, new: Row },
}

/// State of one live transaction on the host.
#[derive(Debug, Default)]
pub struct TxnState {
    /// Undo log in execution order.
    pub undo: Vec<UndoRecord>,
    /// Pending (uncommitted) change records awaiting commit.
    pub pending_changes: Vec<(ObjectName, ChangeOp)>,
}

/// Transaction manager: id assignment, per-transaction state, the committed
/// change log, and the system's one clock, the commit LSN.
#[derive(Debug, Default)]
pub struct TxnManager {
    next_id: AtomicU64,
    next_lsn: AtomicU64,
    active: Mutex<HashMap<TxnId, TxnState>>,
    committed_log: Mutex<Vec<ChangeRecord>>,
    /// The LSN of every live snapshot, once per holder.
    snapshots: Mutex<Vec<Lsn>>,
}

impl TxnManager {
    /// The next transaction id. The accelerator's loads and replication
    /// batches, and DB2 reads outside any transaction, take only this: they
    /// have no host undo state.
    pub fn next_id(&self) -> TxnId {
        self.next_id.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Start a transaction: a fresh id with open undo state.
    pub fn begin(&self) -> TxnId {
        let id = self.next_id();
        self.active.lock().insert(id, TxnState::default());
        id
    }

    /// True if `txn` is active.
    pub fn is_active(&self, txn: TxnId) -> bool {
        self.active.lock().contains_key(&txn)
    }

    /// True if the live transaction `txn` has changed `table`: one of the
    /// changes it would publish at commit names it.
    pub fn changed(&self, txn: TxnId, table: &ObjectName) -> bool {
        let active = self.active.lock();
        active.get(&txn).is_some_and(|s| s.pending_changes.iter().any(|(t, _)| t == table))
    }

    /// True if the live transaction `txn` changed a row: it has an undo record.
    pub fn wrote(&self, txn: TxnId) -> bool {
        self.active.lock().get(&txn).is_some_and(|s| !s.undo.is_empty())
    }

    /// Append an undo record and optionally a pending change for `txn`.
    pub fn record(&self, txn: TxnId, undo: UndoRecord, change: Option<(ObjectName, ChangeOp)>) {
        let mut active = self.active.lock();
        if let Some(state) = active.get_mut(&txn) {
            state.undo.push(undo);
            if let Some(c) = change {
                state.pending_changes.push(c);
            }
        }
    }

    /// Commit: move pending changes into the committed log, drop the undo
    /// log, and return the commit's LSN — one per change, at least one. The
    /// LSNs are assigned under the log lock, which snapshots take too: a log
    /// reader sees all of a commit or none, and a snapshot past it sees what
    /// `decided` did with the LSN.
    pub fn commit(&self, txn: TxnId, decided: impl FnOnce(Lsn)) -> Lsn {
        let state = self.active.lock().remove(&txn).unwrap_or_default();
        let mut log = self.committed_log.lock();
        let n = (state.pending_changes.len() as Lsn).max(1);
        let first = self.next_lsn.fetch_add(n, Ordering::Relaxed) + 1;
        let commit_lsn = first + n - 1;
        for (lsn, (table, op)) in (first..).zip(state.pending_changes) {
            log.push(ChangeRecord { lsn, commit_lsn, table, op });
        }
        decided(commit_lsn);
        commit_lsn
    }

    /// Abort: remove the transaction and hand back its undo log (newest
    /// first) for the engine to apply. Pending changes are discarded.
    pub fn rollback(&self, txn: TxnId) -> Vec<UndoRecord> {
        match self.active.lock().remove(&txn) {
            Some(mut s) => {
                s.undo.reverse();
                s.undo
            }
            None => Vec::new(),
        }
    }

    /// Committed changes with `lsn > after`, in LSN order — the replication
    /// applier's read interface.
    pub fn changes_since(&self, after: Lsn) -> Vec<ChangeRecord> {
        self.committed_log.lock().iter().filter(|c| c.lsn > after).cloned().collect()
    }

    /// Highest LSN assigned so far.
    pub fn current_lsn(&self) -> Lsn {
        self.next_lsn.load(Ordering::Relaxed)
    }

    /// Take a snapshot at the current LSN, live until released.
    pub fn pin_snapshot(&self) -> Lsn {
        let _log = self.committed_log.lock();
        let lsn = self.current_lsn();
        self.snapshots.lock().push(lsn);
        lsn
    }

    /// Release one hold of the snapshot at `lsn`.
    pub fn release_snapshot(&self, lsn: Lsn) {
        let mut live = self.snapshots.lock();
        if let Some(i) = live.iter().position(|&l| l == lsn) {
            live.swap_remove(i);
        }
    }

    /// The oldest live snapshot, else the current LSN: GROOM's horizon.
    pub fn oldest_live(&self) -> Lsn {
        self.snapshots.lock().iter().copied().min().unwrap_or_else(|| self.current_lsn())
    }

    /// Drop committed log entries with `lsn <= up_to` (log truncation once
    /// the applier confirmed them).
    pub fn truncate_log(&self, up_to: Lsn) {
        self.committed_log.lock().retain(|c| c.lsn > up_to);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idaa_common::Value;

    fn row(i: i32) -> Row {
        vec![Value::Int(i)]
    }

    fn t(n: &str) -> ObjectName {
        ObjectName::bare(n)
    }

    #[test]
    fn ids_are_unique_and_monotonic() {
        let tm = TxnManager::default();
        let a = tm.begin();
        let b = tm.begin();
        assert!(b > a);
        assert!(tm.is_active(a) && tm.is_active(b));
    }

    #[test]
    fn commit_publishes_changes_in_order() {
        let tm = TxnManager::default();
        let x = tm.begin();
        tm.record(
            x,
            UndoRecord::Insert { table: t("T"), rid: Rid::new(0, 0), row: row(1) },
            Some((t("T"), ChangeOp::Insert(row(1)))),
        );
        tm.record(
            x,
            UndoRecord::Insert { table: t("T"), rid: Rid::new(0, 1), row: row(2) },
            Some((t("T"), ChangeOp::Insert(row(2)))),
        );
        tm.commit(x, |_| ());
        let committed = tm.changes_since(0);
        assert_eq!(committed.len(), 2);
        assert!(committed[0].lsn < committed[1].lsn);
        assert!(committed.iter().all(|c| c.commit_lsn == committed[1].lsn), "one commit end");
        assert_eq!(tm.changes_since(committed[0].lsn).len(), 1);
        assert!(!tm.is_active(x));
    }

    #[test]
    fn a_live_transaction_knows_the_tables_it_changed() {
        let tm = TxnManager::default();
        let (x, y) = (tm.begin(), tm.begin());
        tm.record(
            x,
            UndoRecord::Insert { table: t("T"), rid: Rid::new(0, 0), row: row(1) },
            Some((t("T"), ChangeOp::Insert(row(1)))),
        );
        assert!(tm.changed(x, &t("T")));
        assert!(!tm.changed(x, &t("U")) && !tm.changed(y, &t("T")));
        tm.commit(x, |_| ());
        assert!(!tm.changed(x, &t("T")), "a committed transaction changes nothing more");
    }

    #[test]
    fn rollback_discards_changes_and_returns_undo_reversed() {
        let tm = TxnManager::default();
        let x = tm.begin();
        tm.record(
            x,
            UndoRecord::Insert { table: t("T"), rid: Rid::new(0, 0), row: row(1) },
            Some((t("T"), ChangeOp::Insert(row(1)))),
        );
        tm.record(
            x,
            UndoRecord::Delete { table: t("T"), rid: Rid::new(0, 1), row: row(2) },
            Some((t("T"), ChangeOp::Delete(row(2)))),
        );
        let undo = tm.rollback(x);
        assert_eq!(undo.len(), 2);
        assert!(matches!(undo[0], UndoRecord::Delete { .. }), "undo comes newest-first");
        assert!(tm.changes_since(0).is_empty(), "rolled-back changes never reach the log");
    }

    #[test]
    fn log_truncation() {
        let tm = TxnManager::default();
        let x = tm.begin();
        tm.record(
            x,
            UndoRecord::Insert { table: t("T"), rid: Rid::new(0, 0), row: row(1) },
            Some((t("T"), ChangeOp::Insert(row(1)))),
        );
        tm.commit(x, |_| ());
        let lsn = tm.changes_since(0)[0].lsn;
        tm.truncate_log(lsn);
        assert!(tm.changes_since(0).is_empty());
        assert_eq!(tm.current_lsn(), lsn);
    }

    #[test]
    fn every_commit_takes_an_lsn_and_snapshots_hold_the_horizon() {
        let tm = TxnManager::default();
        let x = tm.begin();
        let mut seen = None;
        assert_eq!(tm.commit(x, |lsn| seen = Some(lsn)), 1, "a commit without changes");
        assert_eq!(seen, Some(1));
        assert!(tm.changes_since(0).is_empty());
        assert_eq!(tm.oldest_live(), 1, "no snapshot live: the current LSN");
        let (a, b) = (tm.pin_snapshot(), tm.pin_snapshot());
        assert_eq!((a, b), (1, 1));
        assert_eq!(tm.commit(tm.begin(), |_| ()), 2);
        let c = tm.pin_snapshot();
        assert_eq!((c, tm.oldest_live()), (2, 1));
        tm.release_snapshot(a);
        assert_eq!(tm.oldest_live(), 1, "one hold of LSN 1 is left");
        tm.release_snapshot(b);
        assert_eq!(tm.oldest_live(), 2);
        tm.release_snapshot(c);
        assert_eq!(tm.commit(tm.begin(), |_| ()), 3);
        assert_eq!(tm.oldest_live(), 3);
    }

    #[test]
    fn interleaved_transactions_serialize_lsns() {
        let tm = TxnManager::default();
        let a = tm.begin();
        let b = tm.begin();
        tm.record(
            b,
            UndoRecord::Insert { table: t("T"), rid: Rid::new(0, 0), row: row(1) },
            Some((t("T"), ChangeOp::Insert(row(1)))),
        );
        tm.record(
            a,
            UndoRecord::Insert { table: t("T"), rid: Rid::new(0, 1), row: row(2) },
            Some((t("T"), ChangeOp::Insert(row(2)))),
        );
        tm.commit(b, |_| ());
        tm.commit(a, |_| ());
        let log = tm.changes_since(0);
        assert_eq!(log[0].op, ChangeOp::Insert(row(1)), "commit order decides replication order");
        assert!(log[0].lsn < log[1].lsn);
    }
}
