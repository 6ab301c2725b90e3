//! Multi-version concurrency control for the accelerator.
//!
//! The paper's AOT extension requires the accelerator to be *aware of the
//! DB2 transaction context*: a transaction sees its own uncommitted changes
//! while concurrent queries run under snapshot isolation. The rule:
//!
//! > a row version is visible to snapshot S of transaction T iff
//! >   (created by T) or (creator committed with sequence ≤ S)
//! > and not
//! >   (deleted by T) or (deleter committed with sequence ≤ S)
//!
//! DB2 is the one clock: transaction ids are DB2's, a commit's sequence is
//! DB2's commit LSN ([`TxnRegistry::commit`]), and a snapshot is DB2's
//! commit LSN at the reading transaction's first statement, which the
//! caller passes with every read. The registry keeps no clock of its own.

use parking_lot::RwLock;
use std::collections::HashMap;

/// Host transaction id (0 is reserved for "never").
pub type TxnId = u64;

/// A commit sequence number: DB2's commit LSN.
pub type CommitSeq = u64;

/// Lifecycle of a transaction as known to the accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnStatus {
    Active,
    /// Voted YES in 2PC; changes still invisible to others.
    Prepared,
    Committed(CommitSeq),
    Aborted,
}

/// A consistent read point.
#[derive(Debug, Clone, Copy)]
pub struct Snapshot {
    /// Commit sequences `<= seq` are visible.
    pub seq: CommitSeq,
    /// The observing transaction (sees its own writes).
    pub me: TxnId,
}

impl Snapshot {
    /// Everything this node has committed, seen by `me`: the read point of
    /// replication applies, copies and diagnostics.
    pub fn latest(me: TxnId) -> Snapshot {
        Snapshot { seq: CommitSeq::MAX, me }
    }
}

/// Registry of transaction states, shared by all accelerator tables.
#[derive(Debug, Default)]
pub struct TxnRegistry {
    states: RwLock<HashMap<TxnId, TxnStatus>>,
}

impl TxnRegistry {
    /// Register a (host) transaction as active on the accelerator.
    pub fn begin(&self, txn: TxnId) {
        self.states.write().insert(txn, TxnStatus::Active);
    }

    /// 2PC vote: mark prepared. Errors are impossible here — an unknown txn
    /// id is registered on the fly (idempotent replays are normal in 2PC).
    pub fn prepare(&self, txn: TxnId) {
        self.states.write().insert(txn, TxnStatus::Prepared);
    }

    /// Commit `txn` at DB2's commit LSN `seq` (log replay too). Idempotent:
    /// a redelivered phase-2 COMMIT keeps the first sequence.
    pub fn commit(&self, txn: TxnId, seq: CommitSeq) {
        let mut states = self.states.write();
        if !matches!(states.get(&txn), Some(TxnStatus::Committed(_))) {
            states.insert(txn, TxnStatus::Committed(seq));
        }
    }

    /// Abort.
    pub fn abort(&self, txn: TxnId) {
        self.states.write().insert(txn, TxnStatus::Aborted);
    }

    /// Current status (unknown ids are treated as aborted — conservative).
    pub fn status(&self, txn: TxnId) -> TxnStatus {
        self.states.read().get(&txn).copied().unwrap_or(TxnStatus::Aborted)
    }

    /// Transactions currently in the given status, sorted by id. Recovery
    /// uses this to enumerate in-doubt (`Prepared`) and in-flight
    /// (`Active`) transactions after log replay.
    pub fn with_status(&self, wanted: TxnStatus) -> Vec<TxnId> {
        let mut v: Vec<TxnId> = self
            .states
            .read()
            .iter()
            .filter(|(_, s)| **s == wanted)
            .map(|(t, _)| *t)
            .collect();
        v.sort_unstable();
        v
    }

    /// Full status map sorted by transaction id (checkpointing and state
    /// fingerprints need a canonical order).
    pub fn all_states(&self) -> Vec<(TxnId, TxnStatus)> {
        let mut v: Vec<(TxnId, TxnStatus)> = self.states.read().iter().map(|(t, s)| (*t, *s)).collect();
        v.sort_unstable_by_key(|(t, _)| *t);
        v
    }

    /// Drop all volatile state (a crash lost it).
    pub fn reset(&self) {
        self.states.write().clear();
    }

    /// Restore a checkpointed status map.
    pub fn restore(&self, states: &[(TxnId, TxnStatus)]) {
        let mut map = self.states.write();
        map.clear();
        map.extend(states.iter().copied());
    }

    /// Resolve visibility for `snap` under one acquisition of the registry
    /// read lock. The scan front end takes one view per block: a view must
    /// never be held across a call that re-enters the registry (`begin`,
    /// `commit`, `status`, …) — the lock is not reentrant.
    pub fn view(&self, snap: &Snapshot) -> Visibility<'_> {
        let states = self.states.read();
        let mut view = Visibility { states, snap: *snap, creator: (0, false), deleter: (0, false) };
        view.creator.1 = view.event_visible(0);
        view
    }
}

/// The visibility rule of the module doc, resolved against one locked view
/// of the registry. Consecutive versions usually share their creator (a bulk
/// load, a replication batch) and have no deleter, so the last creator and
/// deleter resolved are memoized: a run of such versions costs two integer
/// compares each and no map lookup.
pub struct Visibility<'a> {
    states: parking_lot::RwLockReadGuard<'a, HashMap<TxnId, TxnStatus>>,
    snap: Snapshot,
    /// Last creator / deleter resolved, with the answer.
    creator: (TxnId, bool),
    deleter: (TxnId, bool),
}

impl Visibility<'_> {
    /// Is a create or delete event by `txn` visible to the snapshot? Unknown
    /// ids count as aborted (conservative).
    fn event_visible(&self, txn: TxnId) -> bool {
        let (me, horizon) = (self.snap.me, self.snap.seq);
        txn == me
            || matches!(self.states.get(&txn), Some(TxnStatus::Committed(seq)) if *seq <= horizon)
    }

    /// Full row-version visibility rule (`deleted == 0` means not deleted).
    #[inline]
    pub fn visible(&mut self, created: TxnId, deleted: TxnId) -> bool {
        if created != self.creator.0 {
            self.creator = (created, self.event_visible(created));
        }
        if !self.creator.1 {
            return false;
        }
        if deleted == 0 {
            return true;
        }
        if deleted != self.deleter.0 {
            self.deleter = (deleted, self.event_visible(deleted));
        }
        !self.deleter.1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The textbook rule of the module doc, one registry lookup per event —
    /// the oracle [`Visibility`] is tested against.
    fn textbook_visible(
        reg: &TxnRegistry,
        created: TxnId,
        deleted: TxnId,
        snap: &Snapshot,
    ) -> bool {
        let event = |txn: TxnId| {
            txn == snap.me
                || matches!(reg.status(txn), TxnStatus::Committed(seq) if seq <= snap.seq)
        };
        event(created) && !(deleted != 0 && event(deleted))
    }

    /// One version through a fresh view, cross-checked against the oracle.
    fn visible(reg: &TxnRegistry, created: TxnId, deleted: TxnId, snap: &Snapshot) -> bool {
        let got = reg.view(snap).visible(created, deleted);
        assert_eq!(got, textbook_visible(reg, created, deleted, snap));
        got
    }

    /// Snapshot at DB2 commit LSN `seq` for `me`.
    fn at(seq: CommitSeq, me: TxnId) -> Snapshot {
        Snapshot { seq, me }
    }

    #[test]
    fn own_uncommitted_writes_visible() {
        let reg = TxnRegistry::default();
        reg.begin(7);
        assert!(visible(&reg, 7, 0, &at(0, 7)));
        // Another transaction does not see them.
        assert!(!visible(&reg, 7, 0, &at(0, 8)));
    }

    #[test]
    fn own_deletes_hide_rows() {
        let reg = TxnRegistry::default();
        reg.begin(1);
        reg.commit(1, 1); // row created by committed txn 1
        reg.begin(2);
        assert!(visible(&reg, 1, 0, &at(1, 2)));
        // Txn 2 deletes it: immediately invisible to itself…
        assert!(!visible(&reg, 1, 2, &at(1, 2)));
        // …but still visible to a concurrent txn 3.
        reg.begin(3);
        assert!(visible(&reg, 1, 2, &at(1, 3)));
    }

    #[test]
    fn snapshot_isolation_ignores_later_commits() {
        let reg = TxnRegistry::default();
        reg.begin(1);
        reg.begin(2);
        let snap2 = at(4, 2); // taken before txn 1 commits
        reg.commit(1, 5);
        assert!(!visible(&reg, 1, 0, &snap2), "commit after snapshot is invisible");
        assert!(visible(&reg, 1, 0, &at(5, 3)));
        assert!(visible(&reg, 1, 0, &Snapshot::latest(3)));
    }

    #[test]
    fn prepared_is_not_visible() {
        let reg = TxnRegistry::default();
        reg.begin(1);
        reg.prepare(1);
        assert!(!visible(&reg, 1, 0, &Snapshot::latest(2)));
        reg.commit(1, 3);
        assert!(visible(&reg, 1, 0, &at(3, 2)));
    }

    #[test]
    fn aborted_never_visible() {
        let reg = TxnRegistry::default();
        reg.begin(1);
        reg.abort(1);
        assert!(!visible(&reg, 1, 0, &Snapshot::latest(2)));
        // A delete by an aborted txn does not hide the row.
        reg.begin(3);
        reg.commit(3, 1);
        assert!(visible(&reg, 3, 1, &at(1, 4)));
    }

    #[test]
    fn unknown_txns_treated_as_aborted() {
        let reg = TxnRegistry::default();
        assert!(!visible(&reg, 999, 0, &Snapshot::latest(1)));
    }

    #[test]
    fn commit_is_idempotent_and_replay_restores_sequences() {
        let reg = TxnRegistry::default();
        reg.begin(1);
        reg.commit(1, 4);
        reg.commit(1, 9);
        assert_eq!(reg.status(1), TxnStatus::Committed(4), "a re-commit keeps the first LSN");
        // Replay commits out of id order, at the LSNs the records carry.
        reg.commit(9, 6);
        reg.commit(3, 2);
        assert_eq!(reg.status(9), TxnStatus::Committed(6));
        assert_eq!(reg.status(3), TxnStatus::Committed(2));
        // Restore from a checkpointed map.
        let reg2 = TxnRegistry::default();
        reg2.restore(&reg.all_states());
        assert_eq!(reg2.all_states(), reg.all_states());
        reg2.reset();
        assert!(reg2.all_states().is_empty());
    }

    #[test]
    fn with_status_enumerates_sorted() {
        let reg = TxnRegistry::default();
        reg.begin(5);
        reg.begin(2);
        reg.begin(8);
        reg.prepare(8);
        reg.abort(5);
        assert_eq!(reg.with_status(TxnStatus::Active), vec![2]);
        assert_eq!(reg.with_status(TxnStatus::Prepared), vec![8]);
        assert_eq!(reg.with_status(TxnStatus::Aborted), vec![5]);
    }

    /// Transaction ids 1..=9 go through a random history; 10 and 11 stay
    /// unknown to the registry.
    fn arb_history() -> impl Strategy<Value = Vec<(u8, u64)>> {
        proptest::collection::vec((0u8..5, 1u64..10), 0..60)
    }

    /// Version vectors as a scan meets them: runs sharing one creator (bulk
    /// loads) interleaved with per-row-distinct creators, deleters mostly 0.
    fn arb_versions() -> impl Strategy<Value = Vec<(u64, u64)>> {
        let run = (0u64..12, 0u64..12, 1usize..40, 0u8..4).prop_map(|(c, d, len, del)| {
            vec![(c, if del == 0 { d } else { 0 }); len]
        });
        let distinct = proptest::collection::vec((0u64..12, 0u64..12), 1..12);
        proptest::collection::vec(prop_oneof![run, distinct], 1..10)
            .prop_map(|chunks| chunks.concat())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// One view over a whole version vector answers exactly like the
        /// textbook rule applied per version: the run memo never leaks an
        /// answer across creators or deleters. The snapshot is taken
        /// mid-history, so ids end up active, prepared, committed before it,
        /// committed after it, aborted, or unknown; `me` ranges over all of
        /// those (own writes and own deletes).
        #[test]
        fn view_matches_textbook_rule(
            history in arb_history(),
            cut in 0usize..60,
            me in 0u64..12,
            versions in arb_versions(),
        ) {
            let reg = TxnRegistry::default();
            // DB2 numbers the commits 1, 2, … in history order.
            let mut lsn = 0;
            let mut apply = |ops: &[(u8, u64)]| {
                for (op, txn) in ops {
                    match op {
                        0 => reg.begin(*txn),
                        1 => reg.prepare(*txn),
                        2 | 3 => {
                            lsn += 1;
                            reg.commit(*txn, lsn);
                        }
                        _ => reg.abort(*txn),
                    }
                }
                lsn
            };
            let (before, after) = history.split_at(cut.min(history.len()));
            let snap = Snapshot { seq: apply(before), me };
            apply(after);
            let mut view = reg.view(&snap);
            let got: Vec<bool> = versions.iter().map(|&(c, d)| view.visible(c, d)).collect();
            drop(view);
            for (&(c, d), got) in versions.iter().zip(got) {
                let expect = textbook_visible(&reg, c, d, &snap);
                prop_assert_eq!(got, expect, "created={} deleted={} me={}", c, d, me);
            }
        }
    }
}
