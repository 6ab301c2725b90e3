//! Client sessions: authorization id, special registers, the unit of work.
//!
//! # Statement sequencing across a fleet
//!
//! Every statement shipped to an accelerator is stamped `(session.id,
//! seq)`, with [`Session::next_seq`] drawn from one per-session counter no
//! matter which node serves it. Each fleet node keeps its *own*
//! `SeqTracker`, so delivery is deduplicated per `(session, node)` pair:
//! a retry that ultimately lands on a failover replica is a first
//! delivery *there* and applies, while a duplicate of something the
//! primary already acked is dropped *there*. Trackers are additionally
//! fenced by the node's recovery epoch — after a crash restart the node
//! adopts a new epoch and deliveries stamped with an older one are
//! rejected, so a pre-crash ack can never apply against the new
//! incarnation even though the session's sequence numbers keep rising
//! monotonically across the failover.

use idaa_common::trace::Trace;
use idaa_common::Result;
use idaa_host::{HostEngine, Lsn, TxnId, TxnManager};
use idaa_sql::AccelerationMode;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The open units of work of dropped sessions, for the next statement to roll back.
pub(crate) type Orphans = Arc<Mutex<Vec<UnitOfWork>>>;

/// A unit of work's enlisted accelerator nodes, each with the vote its
/// last write's ack carried (an autocommit statement's early PREPARE),
/// once one arrived.
pub(crate) type Votes = BTreeMap<usize, Option<Result<()>>>;

/// One unit of work: a transaction, or a statement outside one. Its first
/// statement begins it; commit or rollback consumes it.
#[derive(Debug)]
pub(crate) struct UnitOfWork {
    /// DB2's transaction id, drawn at BEGIN or at first need.
    pub(crate) txn: Option<TxnId>,
    /// Its snapshot: DB2's commit LSN at its first statement, pinned.
    pub(crate) snapshot: Lsn,
    /// The accelerator nodes enlisted in its transaction, and their votes.
    pub(crate) enlisted: Votes,
    /// True inside `BEGIN … COMMIT` (suppresses autocommit).
    pub(crate) explicit: bool,
}

impl UnitOfWork {
    /// DB2's transaction id, drawn on first need.
    pub(crate) fn txn(&mut self, host: &HostEngine) -> TxnId {
        *self.txn.get_or_insert_with(|| host.begin())
    }

    /// End the unit: unpin its snapshot and hand back its transaction, once
    /// drawn, and its enlisted nodes, to commit or roll back.
    pub(crate) fn end(self, txns: &TxnManager) -> Option<(TxnId, Votes)> {
        txns.release_snapshot(self.snapshot);
        Some((self.txn?, self.enlisted))
    }
}

/// One application connection to the federated system.
#[derive(Debug)]
pub struct Session {
    /// Session id, unique per `Idaa`; statements shipped to the accelerator
    /// are sequenced per session so retried deliveries deduplicate.
    pub id: u64,
    /// Authorization id (user) — all governance checks use this.
    pub user: String,
    /// `CURRENT QUERY ACCELERATION` special register. DB2's default is
    /// NONE: nothing is offloaded until the application opts in.
    pub acceleration: AccelerationMode,
    /// The open unit of work, if any.
    pub(crate) unit: Option<UnitOfWork>,
    /// Query-lifecycle tracer. Sessions opened via `Idaa::session` get an
    /// active trace when the system's `TraceSink` is enabled; every span it
    /// records is stamped with the link's *virtual* clock only.
    pub trace: Trace,
    seq: u64,
    /// Where the open unit of work goes when the session is dropped.
    orphans: Orphans,
}

impl Session {
    /// Fresh session `id` for `user` with DB2 defaults, dropped into `orphans`.
    pub(crate) fn new(id: u64, user: &str, orphans: &Orphans) -> Session {
        Session {
            id,
            user: user.to_uppercase(),
            acceleration: AccelerationMode::None,
            unit: None,
            trace: Trace::disabled(),
            seq: 0,
            orphans: orphans.clone(),
        }
    }

    /// Next statement sequence number for idempotent shipping (1-based).
    pub fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// DB2's id of the open unit of work's transaction, once drawn.
    pub fn txn(&self) -> Option<TxnId> {
        self.unit.as_ref().and_then(|u| u.txn)
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        if let Some(unit) = self.unit.take() {
            self.orphans.lock().push(unit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_db2() {
        let s = Session::new(1, "alice", &Orphans::default());
        assert_eq!(s.user, "ALICE");
        assert_eq!(s.acceleration, AccelerationMode::None);
        assert!(s.unit.is_none() && s.txn().is_none());
    }
}
