//! Multi-session server front-end with a deterministic workload scheduler.
//!
//! The paper's deployment model is a shared accelerator serving many
//! concurrent mainframe sessions. [`Server`] reproduces that front-end on
//! top of the single-caller [`Idaa`] facade: N connected seats, each with
//! its own [`Session`] (statement sequencing, transaction state, special
//! registers) and per-seat prepared-statement handles, feeding a
//! **deterministic scheduler on the virtual clock**:
//!
//! * **Admission control** — at most [`ServerConfig::admission_limit`]
//!   statements are admitted per round (`0` means the accelerator's
//!   [`AccelConfig::workers`](idaa_accel::AccelConfig::workers) count).
//! * **FIFO within priority, round-robin across sessions** — rounds visit
//!   priority classes from [`Priority::System`] down to [`Priority::Low`];
//!   within a class, ready seats are visited in ascending seat order
//!   rotated by the round number, one statement per visit, so no ready
//!   seat starves behind a chatty neighbour.
//! * **Queue time is virtual time** — a queued statement waits while its
//!   predecessors consume the link clock; between rounds the scheduler
//!   charges one `RESCHEDULE_TICK` (50 µs) via
//!   [`NetLink::advance`](idaa_netsim::NetLink::advance), never a wall
//!   sleep. Queue/reschedule time lands in `LinkMetrics::fault_time`
//!   only — the delivered byte/message counters are untouched, so every
//!   byte-exact transfer assertion holds with or without the server.
//!
//! Scheduling state is mirrored into the system [`idaa_common::MetricsRegistry`] under
//! `server.*` — per-seat `queued`/`running` gauges and
//! `done`/`failed`/`queue_time_us`/`bytes` counters — which is exactly
//! what the `SHOW WORKLOAD` statement renders. Limits are governed, not
//! broken: one seat over [`ServerConfig::max_sessions`] or one statement
//! over [`ServerConfig::max_queue_depth`] is refused with SQLCODE **-905**
//! ([`Error::WorkloadLimit`]) while the system stays healthy.
//!
//! Determinism: for a given (seed, connect order, submission schedule) the
//! scheduler replays byte-identical `LinkMetrics`, traces, and
//! `SHOW WORKLOAD` output — seats are numbered 1.. in connect order
//! (never the `Session::id`), rounds and rotations derive only from
//! scheduler state, and execution is serialized in admission
//! order on the one virtual timeline. With one seat and one statement per
//! drain the server reproduces the plain single-caller paths byte for
//! byte: no reschedule tick is charged when nothing else is queued.

use crate::idaa::{ExecOutcome, Idaa, IdaaConfig, Payload, QueueInfo};
use crate::session::Session;
use idaa_common::{Error, Result, Rows, Value};
use idaa_sql::ast::Statement;
use idaa_sql::parse_statement;
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::time::Duration;

/// Workload priority class of a connected seat. Rounds admit classes from
/// `System` down to `Low`; within a class admission is round-robin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    Low,
    Normal,
    High,
    System,
}

impl Priority {
    /// Admission order: highest class first.
    pub(crate) const CLASSES: [Priority; 4] =
        [Priority::System, Priority::High, Priority::Normal, Priority::Low];

    /// Numeric rank stored in the `server.session.{seat}.priority` gauge.
    pub fn rank(self) -> i64 {
        match self {
            Priority::Low => 0,
            Priority::Normal => 1,
            Priority::High => 2,
            Priority::System => 3,
        }
    }

    /// Display name (the `PRIORITY` column of `SHOW WORKLOAD`).
    pub fn name(self) -> &'static str {
        match self {
            Priority::Low => "LOW",
            Priority::Normal => "NORMAL",
            Priority::High => "HIGH",
            Priority::System => "SYSTEM",
        }
    }

    /// Inverse of [`Priority::rank`] for rendering gauge values.
    pub fn name_of_rank(rank: i64) -> &'static str {
        match rank {
            0 => "LOW",
            1 => "NORMAL",
            2 => "HIGH",
            3 => "SYSTEM",
            _ => "UNKNOWN",
        }
    }
}

impl std::fmt::Display for Priority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Workload-manager tunables.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Statements admitted per scheduler round. `0` (the default) derives
    /// the limit from the accelerator's worker count — the shared device
    /// is the resource being multiplexed.
    pub admission_limit: usize,
    /// Per-seat queue depth bound; one more statement is refused with
    /// SQLCODE -905. `0` means unbounded.
    pub max_queue_depth: usize,
    /// Connected-seat bound; one more connect is refused with -905.
    /// `0` means unbounded.
    pub max_sessions: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            admission_limit: 0,
            max_queue_depth: 64,
            max_sessions: 64,
        }
    }
}

/// Virtual time charged between rounds while ready work remains queued
/// (via `NetLink::advance`; fault-time only, never traffic).
const RESCHEDULE_TICK: Duration = Duration::from_micros(50);

/// Deterministic 1-based seat number assigned in connect order. This — not
/// the `Session::id` — keys every `server.*` metric and the
/// `SHOW WORKLOAD` view, so replays are byte-identical across processes.
pub type SeatId = u64;

/// Server-wide 1-based statement ticket, in submission order.
pub type StatementId = u64;

/// Outcome of one scheduled statement, in completion (= admission) order.
#[derive(Debug)]
pub struct Completion {
    /// Seat that submitted the statement.
    pub session: SeatId,
    /// Submission ticket.
    pub statement: StatementId,
    /// Statement text as submitted (canonical text for prepared handles).
    pub sql: String,
    /// What the statement produced, or the error it failed with.
    pub result: Result<ExecOutcome>,
    /// Virtual time spent queued before execution began.
    pub queued: Duration,
    /// Scheduler round (1-based) that admitted it.
    pub round: u64,
    /// Full scheduler rounds the statement sat in queue before admission.
    pub waited_rounds: u64,
}

/// One queued statement.
#[derive(Debug)]
struct QueuedStmt {
    id: StatementId,
    /// Pre-parsed for prepared handles; raw text is parsed at execution so
    /// a parse error surfaces as that statement's completion, not a
    /// submission error.
    stmt: Option<Statement>,
    sql: String,
    arrival: Duration,
    waited_rounds: u64,
}

/// A connected session and its scheduler bookkeeping.
struct Seat {
    session: Session,
    priority: Priority,
    queue: VecDeque<QueuedStmt>,
    prepared: Vec<Statement>,
}

struct SchedState {
    seats: BTreeMap<SeatId, Seat>,
    next_seat: SeatId,
    next_stmt: StatementId,
    /// Completed scheduler rounds (also the rotation source).
    rounds: u64,
}

/// A statement pulled out of a queue by the admission pass.
struct Admitted {
    seat: SeatId,
    priority: Priority,
    stmt: QueuedStmt,
}

/// Multi-session front-end over one [`Idaa`] federation.
pub struct Server {
    idaa: Idaa,
    config: ServerConfig,
    state: Mutex<SchedState>,
}

impl Server {
    /// Build a fresh federation and serve it.
    pub fn new(config: IdaaConfig, server: ServerConfig) -> Server {
        Server::with_idaa(Idaa::new(config), server)
    }

    /// Serve an existing federation (tests often pre-load data through the
    /// plain facade first).
    pub fn with_idaa(idaa: Idaa, server: ServerConfig) -> Server {
        Server {
            idaa,
            config: server,
            state: Mutex::new(SchedState {
                seats: BTreeMap::new(),
                next_seat: 1,
                next_stmt: 1,
                rounds: 0,
            }),
        }
    }

    /// The underlying federation (metrics, tracer, fault surface, …).
    pub fn idaa(&self) -> &Idaa {
        &self.idaa
    }

    /// Effective per-round admission limit.
    pub fn admission_limit(&self) -> usize {
        if self.config.admission_limit > 0 {
            self.config.admission_limit
        } else {
            self.idaa.config.accel.workers().max(1)
        }
    }

    /// Connect a new seat for `user` at [`Priority::Normal`].
    pub fn connect(&self, user: &str) -> Result<SeatId> {
        self.connect_with_priority(user, Priority::Normal)
    }

    /// Connect a new seat with an explicit priority class. Refused with
    /// SQLCODE -905 once `max_sessions` seats are connected.
    pub fn connect_with_priority(&self, user: &str, priority: Priority) -> Result<SeatId> {
        let mut state = self.state.lock();
        if self.config.max_sessions > 0 && state.seats.len() >= self.config.max_sessions {
            self.idaa.metrics().inc("server.rejected.sessions", 1);
            return Err(Error::WorkloadLimit(format!(
                "session limit ({}) reached; connection for {user} refused",
                self.config.max_sessions
            )));
        }
        let seat = state.next_seat;
        state.next_seat += 1;
        let session = self.idaa.session(user);
        state.seats.insert(
            seat,
            Seat { session, priority, queue: VecDeque::new(), prepared: Vec::new() },
        );
        let m = self.idaa.metrics();
        m.inc("server.sessions.connected", 1);
        m.set_gauge(&format!("server.session.{seat}.priority"), priority.rank());
        m.set_gauge(&format!("server.session.{seat}.queued"), 0);
        m.set_gauge(&format!("server.session.{seat}.running"), 0);
        Ok(seat)
    }

    /// Queue one statement on a seat. Returns its ticket; the statement
    /// runs at the next [`Server::run_until_idle`]. Refused with -905 when
    /// the seat's queue is at `max_queue_depth`.
    pub fn submit(&self, seat: SeatId, sql: &str) -> Result<StatementId> {
        self.enqueue(seat, sql.to_string(), None)
    }

    /// Parse and register a prepared statement on a seat; the handle feeds
    /// [`Server::submit_prepared`]. The statement's canonical text is what
    /// keys the accelerator's compiled-plan cache, so repeated executions
    /// of one handle hit the same cached plan.
    pub fn prepare(&self, seat: SeatId, sql: &str) -> Result<u64> {
        let stmt = parse_statement(sql)?;
        let mut state = self.state.lock();
        let entry = seat_mut(&mut state, seat)?;
        entry.prepared.push(stmt);
        Ok(entry.prepared.len() as u64)
    }

    /// Queue an execution of a prepared handle with `?` markers bound to
    /// `params`.
    pub fn submit_prepared(
        &self,
        seat: SeatId,
        handle: u64,
        params: &[Value],
    ) -> Result<StatementId> {
        let bound = {
            let mut state = self.state.lock();
            let entry = seat_mut(&mut state, seat)?;
            let stmt = entry
                .prepared
                .get((handle as usize).wrapping_sub(1))
                .ok_or_else(|| {
                    Error::UndefinedObject(format!("prepared statement handle {handle}"))
                })?;
            idaa_sql::params::bind_statement(stmt, params)?
        };
        self.enqueue(seat, bound.to_string(), Some(bound))
    }

    fn enqueue(
        &self,
        seat: SeatId,
        sql: String,
        stmt: Option<Statement>,
    ) -> Result<StatementId> {
        let arrival = self.idaa.link().now();
        let mut state = self.state.lock();
        let max_depth = self.config.max_queue_depth;
        let id = state.next_stmt;
        let entry = seat_mut(&mut state, seat)?;
        if max_depth > 0 && entry.queue.len() >= max_depth {
            self.idaa.metrics().inc("server.rejected.statements", 1);
            return Err(Error::WorkloadLimit(format!(
                "queue depth limit ({max_depth}) reached on session {seat}"
            )));
        }
        entry.queue.push_back(QueuedStmt { id, stmt, sql, arrival, waited_rounds: 0 });
        let depth = entry.queue.len() as i64;
        state.next_stmt = id + 1;
        let m = self.idaa.metrics();
        m.inc("server.submitted", 1);
        m.set_gauge(&format!("server.session.{seat}.queued"), depth);
        Ok(id)
    }

    /// Submit one statement and drain the scheduler; returns *this*
    /// statement's outcome. With a single seat and an empty queue this is
    /// byte-identical to calling the plain facade directly — one round,
    /// no reschedule tick.
    pub fn execute(&self, seat: SeatId, sql: &str) -> Result<ExecOutcome> {
        let id = self.submit(seat, sql)?;
        let mut wanted = None;
        for c in self.run_until_idle() {
            if c.statement == id {
                wanted = Some(c.result);
            }
        }
        wanted.unwrap_or_else(|| {
            Err(Error::internal("scheduler drained without completing the statement"))
        })
    }

    /// [`Server::execute`] returning rows (errors unless a result set).
    pub fn query(&self, seat: SeatId, sql: &str) -> Result<Rows> {
        match self.execute(seat, sql)?.payload {
            Payload::Rows(r) => Ok(r),
            other => Err(Error::TypeMismatch(format!(
                "statement did not produce a result set ({other:?})"
            ))),
        }
    }

    /// Run scheduler rounds until every queue is empty, returning the
    /// completions in execution order. Each round admits up to
    /// [`Server::admission_limit`] statements (priority classes high to
    /// low, round-robin across a class's ready seats, FIFO within a
    /// seat), executes them serially in admission order, then — only if
    /// ready work remains — charges one reschedule tick of virtual time.
    pub fn run_until_idle(&self) -> Vec<Completion> {
        let mut state = self.state.lock();
        let mut completions = Vec::new();
        loop {
            let batch = self.admit_round(&mut state);
            if batch.is_empty() {
                break;
            }
            let round = state.rounds;
            for admitted in batch {
                completions.push(self.run_one(&mut state, admitted, round));
            }
            if state.seats.values().any(|s| !s.queue.is_empty()) {
                // Ready work survives the round: the scheduler "sleeps"
                // one tick on the virtual clock before re-admitting.
                self.idaa.link().advance(RESCHEDULE_TICK);
            }
        }
        completions
    }

    /// One admission pass. Pops up to the admission limit across priority
    /// classes; bumps `waited_rounds` on everything left queued.
    fn admit_round(&self, state: &mut SchedState) -> Vec<Admitted> {
        let limit = self.admission_limit();
        if !state.seats.values().any(|s| !s.queue.is_empty()) {
            return Vec::new();
        }
        state.rounds += 1;
        self.idaa.metrics().inc("server.rounds", 1);
        let rotation = (state.rounds - 1) as usize;
        let mut admitted = Vec::new();
        for class in Priority::CLASSES {
            if admitted.len() >= limit {
                break;
            }
            // Ready seats of this class, ascending seat order.
            let mut members: Vec<(&SeatId, &mut Seat)> = state
                .seats
                .iter_mut()
                .filter(|(_, s)| s.priority == class && !s.queue.is_empty())
                .collect();
            if members.is_empty() {
                continue;
            }
            // Round-robin: rotate the starting seat by the round number,
            // one statement per visit, multiple passes until the class is
            // drained or the limit is hit.
            let start = rotation % members.len();
            let len = members.len();
            'class: loop {
                let mut took = false;
                for i in 0..len {
                    let (seat, entry) = &mut members[(start + i) % len];
                    if let Some(stmt) = entry.queue.pop_front() {
                        admitted.push(Admitted { seat: **seat, priority: class, stmt });
                        took = true;
                        if admitted.len() >= limit {
                            break 'class;
                        }
                    }
                }
                if !took {
                    break;
                }
            }
        }
        for (seat, entry) in state.seats.iter_mut() {
            for q in entry.queue.iter_mut() {
                q.waited_rounds += 1;
            }
            self.idaa
                .metrics()
                .set_gauge(&format!("server.session.{seat}.queued"), entry.queue.len() as i64);
        }
        admitted
    }

    /// Execute one admitted statement on its seat's session, mirroring the
    /// outcome into the `server.*` metrics.
    fn run_one(&self, state: &mut SchedState, admitted: Admitted, round: u64) -> Completion {
        let Admitted { seat, priority, stmt: queued } = admitted;
        let m = self.idaa.metrics();
        let exec_start = self.idaa.link().now();
        let queued_for = exec_start.saturating_sub(queued.arrival);
        let before = self.idaa.fleet_link_metrics();
        m.set_gauge(&format!("server.session.{seat}.running"), 1);
        let info = QueueInfo { seat, priority: priority.name(), queued: queued_for, round };
        let result = seat_mut(state, seat).and_then(|entry| match &queued.stmt {
            Some(stmt) => self.idaa.execute_stmt_queued(&mut entry.session, stmt, Some(&info)),
            None => parse_statement(&queued.sql).and_then(|stmt| {
                self.idaa.execute_stmt_queued(&mut entry.session, &stmt, Some(&info))
            }),
        });
        let after = self.idaa.fleet_link_metrics();
        m.set_gauge(&format!("server.session.{seat}.running"), 0);
        m.inc("server.statements", 1);
        m.inc(
            &format!("server.session.{seat}.queue_time_us"),
            queued_for.as_micros() as u64,
        );
        m.inc(
            &format!("server.session.{seat}.bytes"),
            after.total_bytes() - before.total_bytes(),
        );
        match &result {
            Ok(_) => m.inc(&format!("server.session.{seat}.done"), 1),
            Err(_) => m.inc(&format!("server.session.{seat}.failed"), 1),
        }
        Completion {
            session: seat,
            statement: queued.id,
            sql: queued.sql,
            result,
            queued: queued_for,
            round,
            waited_rounds: queued.waited_rounds,
        }
    }

    /// Completed scheduler rounds so far.
    pub fn rounds(&self) -> u64 {
        self.state.lock().rounds
    }
}

fn seat_mut(state: &mut SchedState, seat: SeatId) -> Result<&mut Seat> {
    state
        .seats
        .get_mut(&seat)
        .ok_or_else(|| Error::UndefinedObject(format!("server session {seat}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use idaa_host::SYSADM;

    fn server() -> Server {
        Server::new(IdaaConfig::default(), ServerConfig::default())
    }

    #[test]
    fn connect_submit_drain_roundtrip() {
        let srv = server();
        let seat = srv.connect(SYSADM).unwrap();
        assert_eq!(seat, 1);
        srv.execute(seat, "CREATE TABLE T (A INT NOT NULL)").unwrap();
        srv.execute(seat, "INSERT INTO T VALUES (1), (2), (3)").unwrap();
        let rows = srv.query(seat, "SELECT COUNT(*) FROM T").unwrap();
        assert_eq!(rows.scalar().unwrap().render(), "3");
        let m = srv.idaa().metrics();
        assert_eq!(m.counter("server.statements"), 3);
        assert_eq!(m.counter("server.session.1.done"), 3);
        assert_eq!(m.counter("server.session.1.failed"), 0);
    }

    #[test]
    fn session_and_queue_limits_are_905() {
        let srv = Server::new(
            IdaaConfig::default(),
            ServerConfig { max_sessions: 1, max_queue_depth: 2, ..ServerConfig::default() },
        );
        let seat = srv.connect("ALICE").unwrap();
        let too_many = srv.connect("BOB").unwrap_err();
        assert_eq!(too_many.sqlcode(), -905);
        srv.submit(seat, "SET CURRENT QUERY ACCELERATION = NONE").unwrap();
        srv.submit(seat, "SET CURRENT QUERY ACCELERATION = ELIGIBLE").unwrap();
        let overflow = srv.submit(seat, "SET CURRENT QUERY ACCELERATION = ALL").unwrap_err();
        assert_eq!(overflow.sqlcode(), -905);
        assert_eq!(srv.idaa().metrics().counter("server.rejected.sessions"), 1);
        assert_eq!(srv.idaa().metrics().counter("server.rejected.statements"), 1);
        // Refusals govern, they don't poison: the queue still drains.
        assert_eq!(srv.run_until_idle().len(), 2);
    }

    #[test]
    fn priority_classes_admit_high_before_low() {
        let srv = Server::new(
            IdaaConfig::default(),
            ServerConfig { admission_limit: 1, ..ServerConfig::default() },
        );
        let low = srv.connect_with_priority("LOWUSER", Priority::Low).unwrap();
        let high = srv.connect_with_priority("HIGHUSER", Priority::High).unwrap();
        srv.submit(low, "SET CURRENT QUERY ACCELERATION = NONE").unwrap();
        srv.submit(high, "SET CURRENT QUERY ACCELERATION = ELIGIBLE").unwrap();
        let done = srv.run_until_idle();
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].session, high);
        assert_eq!(done[1].session, low);
        assert!(done[1].waited_rounds >= 1);
    }

    #[test]
    fn round_robin_rotates_within_a_class() {
        let srv = Server::new(
            IdaaConfig::default(),
            ServerConfig { admission_limit: 1, ..ServerConfig::default() },
        );
        let a = srv.connect("A").unwrap();
        let b = srv.connect("B").unwrap();
        for _ in 0..2 {
            srv.submit(a, "SET CURRENT QUERY ACCELERATION = NONE").unwrap();
            srv.submit(b, "SET CURRENT QUERY ACCELERATION = NONE").unwrap();
        }
        let order: Vec<SeatId> = srv.run_until_idle().iter().map(|c| c.session).collect();
        // One admission per round, alternating seats: nobody runs twice
        // before the other ready seat ran once.
        assert_eq!(order, vec![a, b, a, b]);
    }

    #[test]
    fn parse_errors_complete_instead_of_wedging_the_queue() {
        let srv = server();
        let seat = srv.connect(SYSADM).unwrap();
        srv.submit(seat, "NOT EVEN SQL").unwrap();
        srv.submit(seat, "SET CURRENT QUERY ACCELERATION = NONE").unwrap();
        let done = srv.run_until_idle();
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].result.as_ref().unwrap_err().sqlcode(), -104);
        assert!(done[1].result.is_ok());
        assert_eq!(srv.idaa().metrics().counter("server.session.1.failed"), 1);
    }

    #[test]
    fn prepared_handles_bind_and_rerun() {
        let srv = server();
        let seat = srv.connect(SYSADM).unwrap();
        srv.execute(seat, "CREATE TABLE P (A INT NOT NULL)").unwrap();
        srv.execute(seat, "INSERT INTO P VALUES (1), (2), (3)").unwrap();
        let h = srv.prepare(seat, "SELECT COUNT(*) FROM P WHERE A > ?").unwrap();
        let id = srv.submit_prepared(seat, h, &[Value::Int(1)]).unwrap();
        let done = srv.run_until_idle();
        let c = done.iter().find(|c| c.statement == id).unwrap();
        let rows = c.result.as_ref().unwrap().rows().unwrap();
        assert_eq!(rows.scalar().unwrap().render(), "2");
        let bad = srv.submit_prepared(seat, 99, &[]).unwrap_err();
        assert_eq!(bad.sqlcode(), -204);
    }
}
