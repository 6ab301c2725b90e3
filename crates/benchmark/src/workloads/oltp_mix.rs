//! `oltp_mix` — a business transaction: fourteen short statements, reads
//! beside writes. Per-statement overhead dominates — `sql` parse, `core`
//! dispatch / route / commit, metrics and trace bookkeeping, control
//! frames, log appends — while `accel::exec` does little. This is the
//! workload for dispatch- and observability-path changes.

use super::{accelerate, bulk_insert, first_row_i64, must};
use crate::harness::{Exec, Scale, Workload, ACCEL, ANY, HOST};
use crate::probes;
use crate::rng::SplitMix64;
use idaa_common::{Error, Value};
use idaa_core::{ExecOutcome, Idaa, Payload, Route, Server, ServerConfig, Session};
use idaa_host::SYSADM;

pub const CLASSES: [&str; 7] = [
    "host_lookup",
    "accel_lookup",
    "accel_lookup_prepared",
    "aot_insert",
    "aot_update",
    "host_update_repl",
    "txn_2pc",
];
// Indices into `CLASSES`.
const HOST_LOOKUP: usize = 0;
const ACCEL_LOOKUP: usize = 1;
const PREPARED: usize = 2;
const AOT_INSERT: usize = 3;
const AOT_UPDATE: usize = 4;
const HOST_UPDATE: usize = 5;
const TXN_2PC: usize = 6;
pub const ROUNDS_PER_SECOND: f64 = 200.0;

const EVENTS_DDL: &str =
    "CREATE TABLE EVENTS (ID BIGINT NOT NULL, ACCT INT, AMT BIGINT) IN ACCELERATOR";

struct Sizes {
    /// A point UPDATE on a host table costs time linear in its rows
    /// (`HostEngine::matching_rids`), and as much again per changed row on
    /// the accelerator copy; 2 000 rows keep `host_update_repl` and
    /// `txn_2pc` under 40 % of the round.
    acct: usize,
    reference: usize,
    /// Rounds between background maintenance cycles ([`OltpMix::maintain`]).
    groom_every: u64,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes { acct: 2_000, reference: 1_000, groom_every: 500 },
        Scale::Smoke => Sizes { acct: 200, reference: 100, groom_every: 10 },
    }
}

/// What the tables must add up to, tracked beside every acknowledged write.
#[derive(Debug, Default, PartialEq, Eq)]
struct Shadow {
    acct_bal: i64,
    events: i64,
    events_amt: i64,
    ref_v: i64,
}

pub struct OltpMix {
    srv: Server,
    s: Session,
    seed: u64,
    sizes: Sizes,
    /// `(seat, prepared handle)` of the two server connections.
    seats: [(u64, u64); 2],
    next_event: i64,
    rounds_run: u64,
    shadow: Shadow,
}

impl OltpMix {
    pub fn setup(seed: u64, scale: Scale) -> OltpMix {
        let idaa = Idaa::default();
        let mut s = idaa.session(SYSADM);
        let sizes = sizes(scale);
        let mut shadow = Shadow::default();
        let mut rng = SplitMix64::new(seed).fork(0xACC7);
        must(&idaa, &mut s, "CREATE TABLE ACCT (ID INT NOT NULL, OWNER VARCHAR(12), BAL BIGINT)");
        bulk_insert(&idaa, &mut s, "ACCT", sizes.acct, |id| {
            let bal = rng.range(1_000, 99_999);
            shadow.acct_bal += bal;
            format!("({id}, 'OWNER{:05}', {bal})", rng.below(100_000))
        });
        must(&idaa, &mut s, "CREATE INDEX ACCT_ID ON ACCT (ID)");
        accelerate(&idaa, &mut s, "ACCT");
        must(
            &idaa,
            &mut s,
            "CREATE TABLE REF (K INT NOT NULL, V BIGINT, NOTE VARCHAR(8)) IN ACCELERATOR",
        );
        bulk_insert(&idaa, &mut s, "REF", sizes.reference, |k| {
            let v = rng.range(0, 999);
            shadow.ref_v += v;
            format!("({k}, {v}, 'N{:04}')", rng.below(10_000))
        });
        must(&idaa, &mut s, EVENTS_DDL);
        must(&idaa, &mut s, "SET CURRENT QUERY ACCELERATION = ENABLE");

        let srv = Server::with_idaa(idaa, ServerConfig::default());
        let seats = [0, 1].map(|_| {
            let seat = srv.connect(SYSADM).expect("two seats fit the default session limit");
            srv.execute(seat, "SET CURRENT QUERY ACCELERATION = ENABLE").expect("SET cannot fail");
            let handle =
                srv.prepare(seat, "SELECT v, note FROM ref WHERE k = ?").expect("statement parses");
            (seat, handle)
        });
        OltpMix { srv, s, seed, sizes, seats, next_event: 0, rounds_run: 0, shadow }
    }

    fn event_id(&mut self) -> i64 {
        self.next_event += 1;
        self.next_event
    }

    /// The background cycle: groom the versions `aot_update` and the
    /// replication applier left behind, then rotate the append-only EVENTS
    /// table (checked against the shadow first) so that checkpoint images —
    /// and with them round latency — stop growing with the run.
    fn maintain(&mut self, x: &mut Exec) {
        let idaa = self.srv.idaa();
        let s = &mut self.s;
        let groomed =
            x.extra(idaa, None, "accel.groom", || idaa.execute(s, "CALL ACCEL_GROOM_TABLES()"));
        x.check(groomed.is_ok(), || format!("groom cycle failed: {groomed:?}"));
        let events =
            first_row_i64(x, idaa, s, HOST_LOOKUP, "SELECT COUNT(*), SUM(amt) FROM events", ACCEL);
        let want = [self.shadow.events, self.shadow.events_amt];
        x.check(events == want, || {
            format!("EVENTS is {events:?} at rotation, shadow says {want:?}")
        });
        x.extra(idaa, None, "events.rotate", || {
            must(idaa, s, "DROP TABLE EVENTS");
            must(idaa, s, EVENTS_DDL);
        });
        (self.shadow.events, self.shadow.events_amt) = (0, 0);
    }
}

impl Workload for OltpMix {
    fn classes(&self) -> &'static [&'static str] {
        &CLASSES
    }

    fn idaa(&self) -> &Idaa {
        self.srv.idaa()
    }

    fn round(&mut self, x: &mut Exec, i: u64) {
        let mut r = SplitMix64::new(self.seed).fork(i ^ 0x0717_0000_0000);
        let (n_acct, n_ref) = (self.sizes.acct as u64, self.sizes.reference as u64);
        // Literals first, statements after: the clock sees only the product.
        let lookups: [String; 4] =
            [0; 4].map(|_| format!("SELECT owner, bal FROM acct WHERE id = {}", r.below(n_acct)));
        let ref_keys: [i64; 4] = [0; 4].map(|_| r.below(n_ref) as i64);
        let inserts: [(i64, u64, i64); 4] =
            [0; 4].map(|_| (self.event_id(), r.below(n_acct), r.range(1, 500)));
        let (upd_ref, upd_acct, upd_delta) = (r.below(n_ref), r.below(n_acct), r.range(1, 50));
        let (txn_acct, txn_amt) = (r.below(n_acct), r.range(1, 50));
        let insert_sql = |(id, acct, amt): (i64, u64, i64)| {
            format!("INSERT INTO events VALUES ({id}, {acct}, {amt})")
        };

        let idaa = self.srv.idaa();
        let s = &mut self.s;
        for sql in &lookups {
            x.sql(idaa, s, HOST_LOOKUP, sql, HOST);
        }
        for k in &ref_keys[..2] {
            x.sql(idaa, s, ACCEL_LOOKUP, &format!("SELECT v, note FROM ref WHERE k = {k}"), ACCEL);
        }
        for (&(seat, handle), k) in self.seats.iter().zip(&ref_keys[2..]) {
            let srv = &self.srv;
            let done = x.op(idaa, PREPARED, "server.prepared", || {
                srv.submit_prepared(seat, handle, &[Value::Int(*k as i32)])?;
                let mut completions = srv.run_until_idle();
                match completions.pop().map(|c| c.result) {
                    Some(Ok(ExecOutcome {
                        route: Route::Accelerator,
                        payload: Payload::Rows(r),
                    })) if completions.is_empty() => Ok(r.len() as u64),
                    other => {
                        Err(Error::internal(format!("prepared lookup completed as {other:?}")))
                    }
                }
            });
            if done && x.probing {
                // The server parsed this text at prepare time; replay the
                // bound statement's read path like an ad-hoc query's.
                if let Ok(stmt) =
                    idaa_sql::parse_statement(&format!("SELECT v, note FROM ref WHERE k = {k}"))
                {
                    let out = ExecOutcome { route: Route::Accelerator, payload: Payload::None };
                    x.probed(idaa, |x| probes::replay(x, idaa, s, &stmt, &out, None));
                }
            }
        }
        for ins in &inserts[..3] {
            if x.sql(idaa, s, AOT_INSERT, &insert_sql(*ins), ACCEL).is_some() {
                self.shadow.events += 1;
                self.shadow.events_amt += ins.2;
            }
        }
        if x.sql(
            idaa,
            s,
            AOT_UPDATE,
            &format!("UPDATE ref SET v = v + 1 WHERE k = {upd_ref}"),
            ACCEL,
        )
        .is_some()
        {
            self.shadow.ref_v += 1;
        }
        let sql = format!("UPDATE acct SET bal = bal + {upd_delta} WHERE id = {upd_acct}");
        if x.sql(idaa, s, HOST_UPDATE, &sql, HOST).is_some() {
            self.shadow.acct_bal += upd_delta;
        }

        // One transaction across both systems: two-phase commit.
        x.group_begin();
        x.sql(idaa, s, TXN_2PC, "BEGIN", ANY);
        let sql = format!("UPDATE acct SET bal = bal - {txn_amt} WHERE id = {txn_acct}");
        x.sql_marked(idaa, s, TXN_2PC, &sql, HOST, "stmt.update_in_txn");
        x.sql(idaa, s, TXN_2PC, &insert_sql((inserts[3].0, txn_acct, txn_amt)), ACCEL);
        if x.sql_marked(idaa, s, TXN_2PC, "COMMIT", ANY, "stmt.commit").is_some() {
            self.shadow.acct_bal -= txn_amt;
            self.shadow.events += 1;
            self.shadow.events_amt += txn_amt;
        }
        x.group_end(TXN_2PC);

        self.rounds_run += 1;
        if self.rounds_run.is_multiple_of(self.sizes.groom_every) {
            self.maintain(x);
        }
    }

    fn verify(&mut self, x: &mut Exec, _rounds: u64, sabotage: bool) {
        let idaa = self.srv.idaa();
        let s = &mut self.s;
        let want = &self.shadow;
        // ACCT on DB2, and its replicated copy on the accelerator.
        let acct_bal = want.acct_bal + i64::from(sabotage);
        let host = first_row_i64(x, idaa, s, HOST_LOOKUP, "SELECT SUM(bal) FROM acct", HOST);
        x.check(host == [acct_bal], || {
            format!("ACCT on DB2 sums to {host:?}, shadow says {acct_bal}")
        });
        must(idaa, s, "SET CURRENT QUERY ACCELERATION = ELIGIBLE");
        let copy = first_row_i64(x, idaa, s, HOST_LOOKUP, "SELECT SUM(bal) FROM acct", ACCEL);
        x.check(copy == [want.acct_bal], || {
            format!("ACCT copy sums to {copy:?}, shadow says {}", want.acct_bal)
        });
        let events =
            first_row_i64(x, idaa, s, HOST_LOOKUP, "SELECT COUNT(*), SUM(amt) FROM events", ACCEL);
        x.check(events == [want.events, want.events_amt], || {
            format!("EVENTS is {events:?}, shadow says {} rows / {}", want.events, want.events_amt)
        });
        let reference = first_row_i64(x, idaa, s, HOST_LOOKUP, "SELECT SUM(v) FROM ref", ACCEL);
        x.check(reference == [want.ref_v], || {
            format!("REF sums to {reference:?}, shadow says {}", want.ref_v)
        });
        must(idaa, s, "SET CURRENT QUERY ACCELERATION = ENABLE");
    }
}
