//! Transactions: the session's unit of work, enlistment of accelerator
//! nodes in its DB2 transaction, commit (local, or two-phase across every
//! enlisted node), and rollback.
//!
//! DB2 is the coordinator and the one clock. A unit of work (a transaction,
//! or a statement outside one) reads at one snapshot on every node: DB2's
//! commit LSN at its first statement ([`Idaa::unit`]). A unit that wrote
//! nothing ends by releasing its locks and snapshot.
//!
//! The unit's control records ride messages its statements send anyway
//! ([`Idaa::enlist_node`], [`Carried`]); each adds its `CONTROL_FRAME` bytes
//! to the message carrying it:
//! - BEGIN rides a node's first request (statement or row frame) in the
//!   unit; the node joins the transaction when that request is delivered.
//! - In an autocommit unit, the statement's last write to each node also
//!   asks it to PREPARE, and the write's ack carries the vote.
//! - Commit sends PREPARE and takes a vote only from enlisted nodes whose
//!   vote has not arrived (every node of an explicit `BEGIN … COMMIT`), and
//!   resolves a lost vote by one status inquiry. A NO vote or a failed
//!   early prepare rolls back everywhere (presumed abort).
//! - DB2 numbers the decision with its commit LSN and queues it on each
//!   participant before the LSN is published. It rides the node's next
//!   message ([`Idaa::send`]), which applies it on delivery before the
//!   message's own work; a lost message keeps it queued. A read whose own
//!   request carries the queue may serve a snapshot past it; a path that
//!   reads a node without sending it anything (an in-process analytics
//!   scan, GROOM, a catch-up source, recovery) first delivers the queue on a
//!   message of its own.
//!
//! An autocommit write to one node thus costs two messages (request and
//! ack); an explicit transaction's COMMIT costs two per node (PREPARE and
//! vote).

use crate::fleet::AccelNode;
use crate::idaa::Idaa;
use crate::session::{Session, UnitOfWork, Votes};
use crate::transfer::Message;
use idaa_accel::Snapshot;
use idaa_common::trace::Trace;
use idaa_common::{wire, Error, Result};
use idaa_host::{Lsn, TxnId};
use idaa_netsim::{sites, Direction};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;

/// The control records one write to one node carries for its unit of work,
/// riding the write's own request and ack, and what the node did with them.
pub(crate) struct Carried {
    /// The unit's DB2 transaction.
    pub(crate) txn: TxnId,
    /// The bytes of the BEGIN the request carries: the node's first request
    /// in the unit (else 0).
    pub(crate) begin: usize,
    /// The bytes of the PREPARE the request carries, and of the vote on its
    /// ack: an autocommit statement's last write to the node (else 0).
    pub(crate) prepare: usize,
    /// Whether the node ran the BEGIN, that is joined the transaction.
    begun: Cell<bool>,
    /// The node's vote, once it prepared.
    vote: Cell<Option<Result<()>>>,
}

impl Carried {
    /// Receiver side, on the request's first delivery: join the transaction.
    pub(crate) fn begin_on(&self, node: &AccelNode) {
        if self.begin > 0 {
            node.engine.begin(self.txn);
            self.begun.set(true);
        }
    }

    /// Receiver side, after the write: prepare when asked. The vote rides
    /// the ack, so a failed prepare is the commit's to report, not the
    /// write's.
    pub(crate) fn prepare_on(&self, node: &AccelNode) {
        if self.prepare > 0 {
            self.vote.set(Some(node.engine.prepare(self.txn)));
        }
    }
}

impl Idaa {
    /// The session's unit of work, begun at its first statement: its
    /// snapshot is DB2's commit LSN now, pinned until the unit ends.
    pub(crate) fn unit<'s>(&self, session: &'s mut Session) -> &'s mut UnitOfWork {
        session.unit.get_or_insert_with(|| UnitOfWork {
            txn: None,
            snapshot: self.host.txns.pin_snapshot(),
            enlisted: BTreeMap::new(),
            explicit: false,
        })
    }

    /// The session's snapshot, seen by its transaction.
    pub(crate) fn snapshot(&self, session: &mut Session) -> Snapshot {
        let unit = self.unit(session);
        Snapshot { seq: unit.snapshot, me: unit.txn.unwrap_or(0) }
    }

    /// Run one `write` to `node` in the session's transaction, enlisting the
    /// node — required for AOT DML so that the paper's
    /// own-uncommitted-changes visibility holds. Ships nothing of its own:
    /// the write's messages carry the unit's records ([`Carried`]; `last`:
    /// it is the statement's last write to the node). The node is enlisted
    /// once it ran the BEGIN, even if the write then failed, and its vote
    /// counts once the write's ack arrived. Callers have already verified
    /// the node is ready.
    pub(crate) fn enlist_node(
        &self,
        session: &mut Session,
        node: &AccelNode,
        last: bool,
        write: impl FnOnce(&mut Session, &Carried) -> Result<usize>,
    ) -> Result<usize> {
        let unit = self.unit(session);
        let record = |carried: bool| if carried { wire::CONTROL_FRAME } else { 0 };
        let carried = Carried {
            txn: unit.txn(&self.host),
            begin: record(!unit.enlisted.contains_key(&node.id)),
            prepare: record(last && !unit.explicit),
            begun: Cell::new(false),
            vote: Cell::new(None),
        };
        let written = write(session, &carried);
        let unit = self.unit(session);
        if carried.begun.get() {
            unit.enlisted.insert(node.id, None);
        }
        let n = written?;
        if let Some(vote) = carried.vote.take() {
            unit.enlisted.insert(node.id, Some(vote));
        }
        Ok(n)
    }

    /// Commit the session's unit of work. When accelerator nodes
    /// participated, run two-phase commit: PREPARE on every participant,
    /// COMMIT on DB2 (the coordinator), whose decision each participant
    /// learns from its next message. A unit that wrote nothing only releases
    /// its locks and its snapshot.
    pub(crate) fn commit_session(&self, session: &mut Session) -> Result<()> {
        let unit = session.unit.take();
        let Some((txn, enlisted)) = unit.and_then(|u| u.end(&self.host.txns)) else { return Ok(()) };
        if enlisted.is_empty() && !self.host.txns.wrote(txn) {
            // DB2's rollback of an empty undo log: no LSN, nothing to ship.
            return self.host.rollback(txn);
        }
        let trace = session.trace.clone();
        let span = trace.begin("commit", self.link().now());
        trace.attr(span, "kind", if enlisted.is_empty() { "local" } else { "2pc" });
        let result = if enlisted.is_empty() {
            self.metrics.inc("commits.local", 1);
            self.host.commit(txn);
            Ok(())
        } else {
            self.metrics.inc("commits.twopc", 1);
            self.commit_two_phase(&trace, txn, enlisted)
        };
        if let Err(e) = result {
            trace.end(span, self.link().now());
            return Err(e);
        }
        if self.config.auto_replicate {
            let applied = self.replicate_now()?;
            if applied > 0 {
                trace.event("replicate", &[("applied", &applied)], self.link().now());
            }
        }
        // Periodic checkpoint policy on the virtual clock (each node
        // checkpoints on its own link clock). A crash while building the
        // checkpoint (the MID_CHECKPOINT site) must not fail the user's
        // commit — the decision is already durable; the next statement
        // observes the crash and drives recovery.
        for node in &self.nodes {
            self.sync_node_clock(node);
            if let Ok(true) = node.engine.maybe_checkpoint(node.link.now(), self.config.checkpoint_every) {
                self.metrics.inc("accel.checkpoints", 1);
                trace.event("checkpoint", &[], node.link.now());
            }
            self.maybe_scrub_node(node, &trace);
            self.absorb_node_clock(node);
        }
        trace.end(span, self.link().now());
        Ok(())
    }

    /// Two-phase commit across the `enlisted` nodes, hardened against a
    /// stopped accelerator and link-level message loss at every step: each
    /// node whose vote has not arrived prepares and votes, then one host
    /// decision, queued on every participant for its next message.
    fn commit_two_phase(&self, trace: &Trace, txn: TxnId, enlisted: Votes) -> Result<()> {
        let ids = &Vec::from_iter(enlisted.keys().copied());
        // Roll back on every participant and report why.
        let abort_all = |error: fn(String) -> Error, why: String| -> Result<()> {
            self.abort_on(txn, ids)?;
            Err(error(format!("{why}; transaction rolled back on all participants")))
        };
        // One protocol message to or from one participant, on the shared
        // timeline.
        let ship = |i: usize, direction: Direction| {
            let node = &self.nodes[i];
            self.sync_node_clock(node);
            let control = Message::Control(wire::CONTROL_FRAME);
            let shipped = self.send(node, trace, direction, "control", control);
            self.absorb_node_clock(node);
            shipped
        };
        // An early prepare that failed (its ack carried the failure) is a
        // NO vote. Checked first: a crash after the prepare leaves the
        // node crashed, and the vote, not the crash, is what failed.
        if let Some(Err(e)) = enlisted.values().flatten().find(|vote| vote.is_err()) {
            return abort_all(Error::CommitFailed, format!("accelerator PREPARE failed ({e})"));
        }
        // A stopped or crashed accelerator cannot vote: presume abort on
        // all sides. (A crashed engine's copy of the transaction is
        // aborted durably when recovery replays the log.)
        if self.faults.accel_unavailable.load(Ordering::Relaxed)
            || ids.iter().any(|&i| self.nodes[i].engine.is_crashed())
        {
            return abort_all(Error::ResourceUnavailable, "the accelerator is unavailable".into());
        }
        // Phase 1, for the nodes whose vote has not arrived: PREPARE
        // request. Undeliverable after retries means the participant never
        // voted — presumed abort everywhere.
        let unvoted = &Vec::from_iter(enlisted.iter().filter(|(_, v)| v.is_none()).map(|(&i, _)| i));
        for &i in unvoted {
            if let Err(e) = ship(i, Direction::ToAccel) {
                return abort_all(Error::CommitFailed, format!("PREPARE could not be delivered ({e})"));
            }
        }
        // The PREPARE vote consults the failure registry: a fired
        // `coord.prepare.vote_no` site (armed one-shot or seeded plan)
        // makes a participant vote NO.
        if self.faults.registry.fire(sites::PREPARE_VOTE_NO) {
            return abort_all(Error::CommitFailed, "accelerator failed to prepare".into());
        }
        for &i in unvoted {
            // A NO vote (or protocol error) aborts everywhere; the host
            // transaction must not stay open holding locks.
            if let Err(e) = self.nodes[i].engine.prepare(txn) {
                return abort_all(Error::CommitFailed, format!("accelerator PREPARE failed ({e})"));
            }
        }
        // The YES votes travel back. Losing one leaves the transaction
        // in-doubt: the participant is prepared but the coordinator cannot
        // see the outcome. The resolver re-runs the status inquiry once;
        // if that fails too, all sides roll back (presumed abort).
        for &i in unvoted {
            if ship(i, Direction::ToHost).is_err() {
                let recovered = ship(i, Direction::ToAccel).is_ok() && ship(i, Direction::ToHost).is_ok();
                if !recovered {
                    let why = "in-doubt transaction could not be resolved before timeout";
                    return abort_all(Error::CommitFailed, why.into());
                }
                self.metrics.inc("twopc.in_doubt_resolved", 1);
            }
        }
        // The decision is durable once the coordinator commits; it rides
        // each participant's next message ([`Idaa::send`]).
        self.decide(txn, ids);
        Ok(())
    }

    /// DB2 commits `txn`, queueing each of `ids`' decisions before a snapshot sees its LSN.
    pub(crate) fn decide(&self, txn: TxnId, ids: &[usize]) -> Lsn {
        self.host.commit_with(txn, |lsn| {
            for &i in ids {
                self.nodes[i].pending_commits.lock().push((txn, lsn));
            }
        })
    }

    /// Receiver side of a message that carried `node`'s queued decisions:
    /// commit each at its LSN, in decision order, and dequeue it.
    pub(crate) fn deliver_decisions(&self, node: &AccelNode, queue: &mut Vec<(TxnId, Lsn)>) {
        for (txn, lsn) in queue.drain(..) {
            node.engine.commit(txn, lsn);
        }
    }

    /// Abort `txn` on the nodes `ids`, then roll it back in DB2.
    pub(crate) fn abort_on<'a>(&self, txn: TxnId, ids: impl IntoIterator<Item = &'a usize>) -> Result<()> {
        for &i in ids {
            self.nodes[i].engine.abort(txn);
        }
        self.host.rollback(txn)
    }

    /// Roll the session's unit of work back on every participant.
    pub(crate) fn rollback_session(&self, session: &mut Session) -> Result<()> {
        session.unit.take().map_or(Ok(()), |unit| self.roll_back(unit))
    }

    /// Roll `unit` back: a best-effort abort message to each enlisted node —
    /// each participant presumes abort for unresolved transactions on
    /// reconnect, so a lost message cannot leave one committed — then the
    /// abort everywhere.
    pub(crate) fn roll_back(&self, unit: UnitOfWork) -> Result<()> {
        let Some((txn, enlisted)) = unit.end(&self.host.txns) else { return Ok(()) };
        for &i in enlisted.keys() {
            let abort = Message::Control(wire::CONTROL_FRAME);
            let _ = self.send(&self.nodes[i], &Trace::disabled(), Direction::ToAccel, "control", abort);
        }
        self.abort_on(txn, enlisted.keys())
    }

    /// Deliver `node`'s queued decisions on one message of their own, for a
    /// path that reads the node without sending it anything. A crashed
    /// engine keeps them queued until recovery re-materializes its prepared
    /// transactions; a lost message keeps them for the next one.
    pub(crate) fn flush_pending_commits_on(&self, node: &AccelNode) {
        let queued = node.pending_commits.lock().len() as u64;
        if queued == 0 || node.engine.is_crashed() {
            return;
        }
        let lone = Message::Control(0);
        if self.send(node, &Trace::disabled(), Direction::ToAccel, "control", lone).is_ok() {
            self.metrics.inc("twopc.decisions_alone", queued);
        }
    }
}
