//! Client sessions: authorization id, special registers, transaction state.
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
use idaa_host::{Lsn, TxnId};
use idaa_sql::AccelerationMode;
use std::collections::BTreeSet;

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
    /// Open explicit transaction, if any.
    pub txn: Option<TxnId>,
    /// The open unit of work's snapshot, which its accelerator work runs at.
    pub snapshot: Option<Lsn>,
    /// The accelerator nodes enlisted in the open transaction.
    pub enlisted: BTreeSet<usize>,
    /// True while inside `BEGIN … COMMIT` (suppresses autocommit).
    pub explicit_txn: bool,
    /// Query-lifecycle tracer. Sessions opened via `Idaa::session` get an
    /// active trace when the system's `TraceSink` is enabled; every span it
    /// records is stamped with the link's *virtual* clock only.
    pub trace: Trace,
    seq: u64,
}

impl Session {
    /// Fresh session `id` for `user` with DB2 defaults.
    pub fn new(id: u64, user: &str) -> Session {
        Session {
            id,
            user: user.to_uppercase(),
            acceleration: AccelerationMode::None,
            txn: None,
            snapshot: None,
            enlisted: BTreeSet::new(),
            explicit_txn: false,
            trace: Trace::disabled(),
            seq: 0,
        }
    }

    /// Next statement sequence number for idempotent shipping (1-based).
    pub fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_db2() {
        let s = Session::new(1, "alice");
        assert_eq!(s.user, "ALICE");
        assert_eq!(s.acceleration, AccelerationMode::None);
        assert!(s.txn.is_none() && s.snapshot.is_none());
        assert!(!s.explicit_txn);
    }
}
