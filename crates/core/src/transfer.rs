//! Link transfers and statement exchanges: every byte between DB2 and an
//! accelerator node leaves through here.
//!
//! [`Idaa::send`] is the one route of a message — a control message, or an
//! encoded row frame with the bytes of control records riding it — over a
//! node's metered [`NetLink`](idaa_netsim::NetLink): each attempt is traced
//! as one "transfer" event, each retry of the one [`RetryPolicy`] as one
//! "retry" event and one `exchange.retries` count, and the outcome feeds the
//! node's health monitor. A message to a node also carries the node's queued
//! COMMIT decisions, which it applies once the message is delivered.
//! [`Idaa::ship_rows`] sends a row batch as frames and returns what the
//! receiver decodes.
//!
//! A statement is one exchange ([`Idaa::exchange_control`],
//! [`Idaa::exchange_rows`]): its request is sent (with its own retries), the
//! receiver runs it once per sequence number, and its reply gets one
//! attempt. A lost reply redelivers the request under the same sequence
//! number, which the receiver deduplicates. All timing is virtual.

use crate::fleet::AccelNode;
use crate::health::Delivery;
use crate::idaa::Idaa;
use crate::session::Session;
use idaa_common::trace::Trace;
use idaa_common::{wire, Error, Result, Row, Rows, Schema};
use idaa_netsim::{Direction, LinkError, RetryPolicy};
use std::time::Duration;

/// One message on a node's link: a control message of so many bytes, or an
/// encoded row frame and the bytes of control records riding it.
#[derive(Clone, Copy)]
pub(crate) enum Message<'a> {
    Control(usize),
    Frame(&'a [u8], usize),
}

/// What a statement exchange delivers: statement text of so many bytes, or
/// rows as frames, with the bytes of control records riding the first and
/// the last frame.
#[derive(Clone, Copy)]
pub(crate) enum Request<'a> {
    Statement(usize),
    Rows(&'a Schema, &'a [Row], (usize, usize)),
}

impl Idaa {
    /// Send one message over a node's link, retried by the one
    /// [`RetryPolicy`] (backoff consumes only virtual time), and feed the
    /// outcome to its health monitor, so consecutive communication failures
    /// decay the node's health state. A message to the node carries its
    /// queued COMMIT decisions ([`Idaa::deliver_decisions`]).
    pub(crate) fn send(
        &self,
        node: &AccelNode,
        trace: &Trace,
        direction: Direction,
        kind: &str,
        message: Message,
    ) -> Result<Duration> {
        // The node's queued COMMIT decisions ride its next message while its
        // engine is up, and are applied once that message is delivered.
        let up = direction == Direction::ToAccel && !node.engine.is_crashed();
        let mut decisions = up.then(|| node.pending_commits.lock());
        let riding = decisions.as_ref().map_or(0, |d| d.len() * wire::CONTROL_FRAME);
        let message = match message {
            Message::Control(own) => Message::Control(own + riding),
            Message::Frame(frame, carried) => Message::Frame(frame, carried + riding),
        };
        let mut lost = String::new();
        for _ in self.attempts(node, trace) {
            match self.transmit(node, trace, direction, kind, message) {
                Ok(cost) => {
                    node.health.record_success();
                    if let Some(queue) = &mut decisions {
                        self.deliver_decisions(node, queue);
                    }
                    return Ok(cost);
                }
                Err(e) => lost = e.to_string(),
            }
        }
        node.health.record_failure();
        Err(Error::LinkFailure(format!("communication with the accelerator failed: {lost}")))
    }

    /// The one retry policy's attempts on a node's link; each retry is
    /// counted in `exchange.retries` and traced as a "retry" event.
    fn attempts<'a>(&'a self, node: &'a AccelNode, trace: &'a Trace) -> impl Iterator<Item = u32> + 'a {
        RetryPolicy::default().attempts(&node.link).inspect(move |&attempt| {
            if attempt > 1 {
                self.metrics.inc("exchange.retries", 1);
                trace.event("retry", &[("attempt", &attempt)], node.link.now());
            }
        })
    }

    /// One attempt at a message, recorded as a zero-duration "transfer"
    /// trace event (delivered or, with `err`, lost); with more than one node
    /// the event also names the node, so per-shard transfer breakdowns fall
    /// out of the span tree.
    fn transmit(
        &self,
        node: &AccelNode,
        trace: &Trace,
        direction: Direction,
        kind: &str,
        message: Message,
    ) -> std::result::Result<Duration, LinkError> {
        let (sent, bytes) = match message {
            Message::Control(bytes) => (node.link.transfer(direction, bytes), bytes),
            Message::Frame(frame, carried) => {
                (node.link.transfer_frame_carrying(direction, frame, carried), frame.len() + carried)
            }
        };
        if trace.is_enabled() {
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
            if let Err(e) = &sent {
                trace.attr(id, "err", e);
            }
            trace.end(id, now);
        }
        sent
    }

    /// Stream a row batch across a node's link as chunked encoded frames
    /// and return what the receiving side decodes. The destination ingests
    /// the *decoded* payload — not the sender's in-memory rows — so the
    /// codec is on the actual data path, and a frame that fails checksum or
    /// fingerprint verification surfaces before any row lands. `(first,
    /// last)` are the bytes of control records riding the first and the
    /// last frame (one frame carries both).
    pub(crate) fn ship_rows(
        &self,
        node: &AccelNode,
        trace: &Trace,
        direction: Direction,
        schema: &Schema,
        rows: &[Row],
        (first, last): (usize, usize),
    ) -> Result<Vec<Row>> {
        let mut delivered = Vec::with_capacity(rows.len());
        let frames = wire::encode_frames(schema, rows);
        for (i, frame) in frames.iter().enumerate() {
            let carried = if i == 0 { first } else { 0 } + if i + 1 == frames.len() { last } else { 0 };
            self.send(node, trace, direction, "frame", Message::Frame(frame, carried))?;
            delivered.extend(wire::decode_rows(frame, schema)?);
        }
        Ok(delivered)
    }

    /// Charge DDL/control-message shipping to a node's link.
    pub(crate) fn ship_ddl_on(&self, node: &AccelNode, text: &str) -> Result<()> {
        let control = |direction, bytes| {
            self.send(node, &Trace::disabled(), direction, "control", Message::Control(bytes)).map(drop)
        };
        control(Direction::ToAccel, text.len() + wire::CONTROL_FRAME)?;
        control(Direction::ToHost, wire::CONTROL_FRAME)
    }

    /// One statement exchange with a fleet node: deliver the request,
    /// execute it exactly once on the rows it carried, and deliver the
    /// reply. The exchange rides that node's link, health monitor, sequence
    /// tracker, and recovery epoch.
    ///
    /// The request carries the session id and a per-session sequence number
    /// (a statement's in its 32-byte envelope). It is [sent](Self::send)
    /// with its own retries; undeliverable, the statement never ran and the
    /// exchange fails. The reply gets one attempt: a lost reply leaves the
    /// coordinator unsure whether the statement ran, so it redelivers the
    /// request under the same sequence number — the receiver recognizes the
    /// duplicate in its [`SeqTracker`] and replies again without executing,
    /// making shipping idempotent. Redeliveries are bounded by the one
    /// [`RetryPolicy`]; exhausting it fails the statement with SQLCODE
    /// -30081, and the outcome feeds the health monitor.
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
        request: Request,
        exec: impl FnOnce(Vec<Row>) -> Result<T>,
        reply: impl Fn(&T) -> std::result::Result<R, LinkError>,
    ) -> Result<(T, R)> {
        let trace = session.trace.clone();
        let seq = session.next_seq();
        let mut exec = Some(exec);
        let mut result: Option<T> = None;
        for _ in self.attempts(node, &trace) {
            let delivered = match request {
                Request::Statement(bytes) => {
                    self.send(node, &trace, Direction::ToAccel, "stmt", Message::Control(bytes))?;
                    Vec::new()
                }
                Request::Rows(schema, rows, carried) => {
                    self.ship_rows(node, &trace, Direction::ToAccel, schema, rows, carried)?
                }
            };
            // Receiver side: execute on first delivery, discard duplicates.
            // Every delivery is stamped with the accelerator's current
            // recovery epoch; anything stamped with a dead incarnation is
            // fenced off and the request is re-sent under the new epoch.
            match node.delivered.deliver_at(session.id, seq, node.engine.epoch()) {
                Delivery::Apply => {
                    if let Some(run) = exec.take() {
                        result = Some(run(delivered)?);
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
            match reply(&done) {
                Ok(arrived) => {
                    node.health.record_success();
                    return Ok((done, arrived));
                }
                // Reply lost: redeliver the request (same sequence number).
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
    /// message of `ack` bytes (a count, and any vote riding it).
    pub(crate) fn exchange_control<T>(
        &self,
        node: &AccelNode,
        session: &mut Session,
        (request, ack): (Request, usize),
        exec: impl FnOnce(Vec<Row>) -> Result<T>,
    ) -> Result<T> {
        let trace = session.trace.clone();
        let ack = |_: &T| self.transmit(node, &trace, Direction::ToHost, "control", Message::Control(ack));
        Ok(self.exchange_on(node, session, request, exec, ack)?.0)
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
        let trace = session.trace.clone();
        let frame_reply = |r: &Rows| {
            let frame = wire::encode_frame(&r.schema, &r.rows);
            let sent = self.transmit(node, &trace, Direction::ToHost, "frame", Message::Frame(&frame, 0));
            sent.map(|_| frame)
        };
        let request = Request::Statement(request_bytes);
        let (rows, frame) = self.exchange_on(node, session, request, |_| exec(), frame_reply)?;
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
