//! Layer probes: the layers under `Idaa::execute_stmt` cannot be reached
//! from outside mid-call, so in every [`PROBE_EVERY`](crate::harness::PROBE_EVERY)-th
//! round of a traced run each statement's *read* work is replayed below
//! the facade, one public layer function at a time, as probe spans under
//! the statement's span.
//!
//! Limits, by construction: only reads are replayed (a write's layer split
//! is its class latency plus counters); a replay runs right after the
//! statement, so caches are warm and `accel.plan_cached` is always the hit
//! path; a layer's share is therefore a ceiling on what speeding it up
//! could save, not a measurement of it.

use crate::harness::Exec;
use crate::workloads::same_answer;
use idaa_accel::ExecMode;
use idaa_common::{wire, Rows};
use idaa_core::{router, ExecOutcome, Idaa, Route, Session};
use idaa_netsim::Direction;
use idaa_sql::ast::{InsertSource, Query, Statement};
use idaa_sql::plan::plan_query;
use std::sync::atomic::Ordering::Relaxed;

/// `ExecMode::Interpreted` replays per class (it is several times slower
/// than the vectorized path, and three samples give a median).
pub const INTERPRETED_REPLAYS: u32 = 3;

/// Snapshot owner for probe reads: no host transaction ever gets this id,
/// so the accelerator hands out a plain current snapshot for it.
pub const PROBE_TXN: u64 = u64::MAX - 11;

/// Replay the read work of `stmt`, which the facade just executed with
/// outcome `out`. `log_delta` is what the statement appended to the
/// durable log (`None` if a checkpoint truncated meanwhile).
pub fn replay(
    x: &mut Exec,
    idaa: &Idaa,
    s: &mut Session,
    stmt: &Statement,
    out: &ExecOutcome,
    log_delta: Option<u64>,
) {
    match stmt {
        Statement::Query(q) => {
            let id = x.probe_open("core.route");
            let route = route_of(idaa, s, q);
            x.probe_close(id, 0);
            if route != Some(out.route) {
                x.fail(format!("route probe says {route:?}, facade routed {:?}", out.route));
            }
            match out.route {
                Route::Accelerator => {
                    if let Some(rows) = accel_query(x, idaa, q, true) {
                        ship(x, &rows);
                    }
                }
                Route::Host => host_query(x, idaa, s, q),
            }
            metrics_inc(x);
        }
        Statement::Insert { source: InsertSource::Query(q), .. }
            if route_of(idaa, s, q) == Some(Route::Accelerator) =>
        {
            let Some(rows) = accel_query(x, idaa, q, false) else { return };
            if out.route == Route::Accelerator {
                // AOT target: nothing crosses the link; what the statement
                // logged against what it inserted is the write amplification.
                if let Some(logged) = log_delta {
                    x.insert_select_bytes.0 += logged;
                    x.insert_select_bytes.1 += wire::logical_size(&rows.rows) as u64;
                }
            } else {
                // DB2 target: the result set is pulled back over the link.
                ship(x, &rows);
            }
        }
        _ => {}
    }
}

/// The facade's routing decision for `q`, recomputed from the router's
/// public functions.
fn route_of(idaa: &Idaa, s: &Session, q: &Query) -> Option<Route> {
    let plan = plan_query(q, idaa.host()).ok()?;
    let tables: Vec<_> = plan.tables().iter().map(|t| t.resolve(idaa.default_schema())).collect();
    let mut mix = router::classify(idaa.host(), &tables).ok()?;
    mix.indexed_point = router::is_indexed_point(idaa.host(), &plan);
    router::route_query(&mix, s.acceleration).ok()
}

fn accel_query(x: &mut Exec, idaa: &Idaa, q: &Query, interpreted_too: bool) -> Option<Rows> {
    let accel = idaa.accel();
    let id = x.probe_open("accel.plan_cached");
    let planned = accel.plan_cached(q);
    x.probe_close(id, 0);
    planned.ok()?;

    let scanned = accel.stats.rows_scanned.load(Relaxed);
    let id = x.probe_open("accel.query");
    let rows = accel.query(PROBE_TXN, q);
    x.probe_close(id, accel.stats.rows_scanned.load(Relaxed) - scanned);
    let rows = rows.ok()?;

    let class = x.class_id(x.spans.spans[x.cur_stmt].class);
    if interpreted_too && x.interpreted_left[class] > 0 {
        x.interpreted_left[class] -= 1;
        let id = x.probe_open("accel.query_interpreted");
        let oracle = accel.query_with_mode(PROBE_TXN, q, ExecMode::Interpreted);
        x.probe_close(id, 0);
        // The interpreted path is the oracle for the vectorized one.
        x.check(oracle.is_ok_and(|o| same_answer(&o, &rows, true)), || {
            format!("vectorized and interpreted answers differ for {q:.80}")
        });
    }
    Some(rows)
}

fn host_query(x: &mut Exec, idaa: &Idaa, s: &Session, q: &Query) {
    let host = idaa.host();
    let txn = host.begin();
    let id = x.probe_open("host.query");
    let rows = host.query(&s.user, txn, q);
    x.probe_close(id, rows.as_ref().map_or(0, |r| r.len() as u64));
    host.commit(txn);
}

/// What crossing the link costs for `rows`: encode, decode, and one
/// transfer on the private link.
pub fn ship(x: &mut Exec, rows: &Rows) {
    let id = x.probe_open("wire.encode");
    let frame = wire::encode_frame(&rows.schema, &rows.rows);
    x.probe_close(id, frame.len() as u64);

    let id = x.probe_open("wire.decode");
    let decoded = wire::decode_rows(&frame, &rows.schema);
    x.probe_close(id, frame.len() as u64);
    x.check(decoded.as_ref().ok() == Some(&rows.rows), || "wire frame did not round-trip".into());

    let id = x.probe_open("netsim.transfer_frame");
    let sent = x.probe_link.transfer_frame(Direction::ToHost, &frame);
    x.probe_close(id, frame.len() as u64);
    x.check(sent.is_ok(), || "transfer on the private probe link failed".into());
}

/// The facade bumps about three registry entries per statement.
const INCS_PER_STATEMENT: u64 = 3;

fn metrics_inc(x: &mut Exec) {
    let id = x.probe_open("obs.metrics_inc");
    for name in ["statements.total", "statements.route.accel", "link.messages"] {
        x.probe_registry.inc(name, 1);
    }
    x.probe_close(id, INCS_PER_STATEMENT);
}
