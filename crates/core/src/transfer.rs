//! Link transfers and statement exchanges: every byte between DB2 and an
//! accelerator node leaves through here.
//!
//! `ship*` send one control message or a batch of encoded row frames over a
//! node's metered [`NetLink`](idaa_netsim::NetLink) with bounded retry,
//! feeding the outcome to that node's health monitor; the `*_traced_on`
//! variants add one zero-duration "transfer" event per message.
//! [`Idaa::exchange_control`] and [`Idaa::exchange_rows`] wrap a statement
//! in the idempotent request/reply protocol (per-session sequence numbers,
//! epoch-fenced duplicate detection). All timing is virtual: transfers,
//! retry backoff, and the per-node clock synchronization that keeps span
//! trees well-nested consume link time only.

use crate::fleet::AccelNode;
use crate::health::Delivery;
use crate::idaa::Idaa;
use crate::session::Session;
use idaa_common::trace::Trace;
use idaa_common::{wire, Error, Result, Row, Rows};
use idaa_netsim::{Direction, LinkError, RetryPolicy};
use std::time::Duration;

/// One attempt at the reply leg of a statement exchange: how the transfer
/// shows up in the trace, and what the host side received.
struct ReplyLeg<R> {
    kind: &'static str,
    bytes: usize,
    sent: std::result::Result<R, LinkError>,
}

/// Feed one (retried) message's outcome to the node's health monitor, so
/// consecutive communication failures decay its health state.
fn observe(
    node: &AccelNode,
    sent: std::result::Result<Duration, LinkError>,
) -> Result<Duration> {
    match sent {
        Ok(cost) => {
            node.health.record_success();
            Ok(cost)
        }
        Err(e) => {
            node.health.record_failure();
            Err(Error::LinkFailure(format!("communication with the accelerator failed: {e}")))
        }
    }
}

impl Idaa {
    /// Send one message over a node's link with bounded retry (backoff
    /// consumes only virtual time) and feed the outcome to its health
    /// monitor. Every federation path sends through here so consecutive
    /// communication failures decay the node's health state.
    pub(crate) fn ship_on(
        &self,
        node: &AccelNode,
        direction: Direction,
        bytes: usize,
    ) -> Result<Duration> {
        observe(node, RetryPolicy::default().transfer(&node.link, direction, bytes))
    }

    /// Ship one encoded row frame, and the `carried` bytes of control
    /// records riding it, over a node's link with the same bounded retry and
    /// health accounting as [`Idaa::ship_on`]. A frame rejected by the
    /// receiver's checksum ([`idaa_common::wire::verify`]) is retransmitted
    /// like any other lost message.
    pub(crate) fn ship_frame_on(
        &self,
        node: &AccelNode,
        direction: Direction,
        frame: &[u8],
        carried: usize,
    ) -> Result<Duration> {
        observe(node, RetryPolicy::default().transfer_frame(&node.link, direction, frame, carried))
    }

    /// Stream a row batch across a node's link as chunked encoded frames
    /// and return what the receiving side decodes. The destination ingests
    /// the *decoded* payload — not the sender's in-memory rows — so the
    /// codec is on the actual data path, and a frame that fails checksum or
    /// fingerprint verification surfaces before any row lands.
    pub(crate) fn ship_rows_on(
        &self,
        node: &AccelNode,
        direction: Direction,
        schema: &idaa_common::Schema,
        rows: &[Row],
    ) -> Result<Vec<Row>> {
        self.ship_rows_traced_on(node, &Trace::disabled(), direction, schema, rows, (0, 0))
    }

    /// Charge DDL/control-message shipping to a node's link.
    pub(crate) fn ship_ddl_on(&self, node: &AccelNode, text: &str) -> Result<()> {
        self.ship_on(node, Direction::ToAccel, text.len() + wire::CONTROL_FRAME)?;
        self.ship_on(node, Direction::ToHost, wire::CONTROL_FRAME)?;
        Ok(())
    }

    /// Record a zero-duration "transfer" trace event (one link message,
    /// delivered or — with `err` — lost) against a node's link; with more
    /// than one node the event also carries the node identity so per-shard
    /// transfer breakdowns fall out of the span tree.
    fn transfer_event_on(
        &self,
        node: &AccelNode,
        trace: &Trace,
        direction: Direction,
        kind: &str,
        bytes: usize,
        err: Option<&impl std::fmt::Display>,
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
        let shipped = self.ship_on(node, direction, bytes);
        self.transfer_event_on(node, trace, direction, kind, bytes, shipped.as_ref().err());
        shipped
    }

    /// [`Idaa::ship_rows_on`] with one "transfer" trace event per encoded
    /// wire frame (kind `frame`, sized at the encoded frame length plus what
    /// it carries). `(first, last)` are the bytes of control records riding
    /// the first and the last frame (one frame carries both).
    pub(crate) fn ship_rows_traced_on(
        &self,
        node: &AccelNode,
        trace: &Trace,
        direction: Direction,
        schema: &idaa_common::Schema,
        rows: &[Row],
        (first, last): (usize, usize),
    ) -> Result<Vec<Row>> {
        let mut delivered = Vec::with_capacity(rows.len());
        let frames = wire::encode_frames(schema, rows);
        for (i, frame) in frames.iter().enumerate() {
            let carried = if i == 0 { first } else { 0 } + if i + 1 == frames.len() { last } else { 0 };
            let shipped = self.ship_frame_on(node, direction, frame, carried);
            let lost = shipped.as_ref().err();
            self.transfer_event_on(node, trace, direction, "frame", frame.len() + carried, lost);
            shipped?;
            delivered.extend(wire::decode_rows(frame, schema)?);
        }
        Ok(delivered)
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
    /// ride the bounded backoff of the default [`RetryPolicy`] on the virtual clock;
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
        let retry = RetryPolicy::default();
        let mut wait = retry.backoff;
        for attempt in 1..=retry.max_attempts.max(1) {
            if attempt > 1 {
                self.metrics.inc("exchange.retries", 1);
                trace.event("retry", &[("attempt", &attempt)], node.link.now());
                node.link.advance(wait);
                wait = wait.saturating_mul(retry.multiplier);
            }
            // Request leg: loss means the statement never reached the
            // accelerator — resend it.
            let sent = node.link.transfer(Direction::ToAccel, request_bytes);
            let lost = sent.as_ref().err();
            self.transfer_event_on(node, &trace, Direction::ToAccel, "stmt", request_bytes, lost);
            if sent.is_err() {
                continue;
            }
            node.health.record_success();
            // Receiver side: execute on first delivery, discard duplicates.
            // Every delivery is stamped with the accelerator's current
            // recovery epoch; anything stamped with a dead incarnation is
            // fenced off and the request is re-sent under the new epoch.
            match node.delivered.deliver_at(session.id, seq, node.engine.epoch()) {
                Delivery::Apply => {
                    if let Some(run) = exec.take() {
                        result = Some(run()?);
                    }
                }
                Delivery::Duplicate => self.metrics.inc("exchange.deduped", 1),
                Delivery::Fenced => {
                    self.metrics.inc("exchange.fenced", 1);
                    continue;
                }
            }
            // The statement ran on this delivery or an earlier one.
            let Some(done) = result.take() else {
                return Err(Error::internal("statement exchange replied before executing"));
            };
            let ReplyLeg { kind, bytes, sent } = reply(&done);
            let lost = sent.as_ref().err();
            self.transfer_event_on(node, &trace, Direction::ToHost, kind, bytes, lost);
            match sent {
                Ok(arrived) => {
                    node.health.record_success();
                    return Ok((done, arrived));
                }
                // Reply lost: redeliver the request (same sequence number)
                // on the next attempt.
                Err(_) => result = Some(done),
            }
        }
        node.health.record_failure();
        Err(Error::LinkFailure(
            "communication with the accelerator failed; the statement exchange could \
             not be completed"
                .into(),
        ))
    }

    /// [`Idaa::exchange_on`] for a statement acknowledged by a control
    /// message of `ack_bytes` (a count, and any vote riding it).
    pub(crate) fn exchange_control<T>(
        &self,
        node: &AccelNode,
        session: &mut Session,
        (request_bytes, ack_bytes): (usize, usize),
        exec: impl FnOnce() -> Result<T>,
    ) -> Result<T> {
        let ack = |_: &T| ReplyLeg {
            kind: "control",
            bytes: ack_bytes,
            sent: node.link.transfer(Direction::ToHost, ack_bytes).map(drop),
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

    /// Lift a node's virtual clock up to the coordinator's "now". The
    /// coordinator timeline is node 0's link; a lagging node cannot serve a
    /// statement in the coordinator's past, so every per-node exchange first
    /// synchronizes the node clock forward. Together with
    /// [`Idaa::absorb_node_clock`] this keeps statement span trees
    /// well-nested on one monotone timeline even though every node's link
    /// meters (and delays) independently.
    pub(crate) fn sync_node_clock(&self, node: &AccelNode) {
        let (now, node_now) = (self.link().now(), node.link.now());
        if node_now < now {
            node.link.advance(now - node_now);
        }
    }

    /// Absorb into the coordinator's clock whatever virtual time a node
    /// consumed serving an exchange (transfer costs, retries, recovery).
    pub(crate) fn absorb_node_clock(&self, node: &AccelNode) {
        let (now, node_now) = (self.link().now(), node.link.now());
        if now < node_now {
            self.link().advance(node_now - now);
        }
    }
}
