//! The four workloads, and the set-up helpers they share. Every input is
//! generated here from the run's seed; the product sees only SQL text and
//! rows.

pub mod elt_pipeline;
pub mod ingest_recover;
pub mod olap_dash;
pub mod oltp_mix;

use crate::harness::{Exec, Scale, Workload};
use crate::probes::PROBE_TXN;
use crate::rng::SplitMix64;
use idaa_accel::ExecMode;
use idaa_common::{Rows, Value};
use idaa_core::{Idaa, Route, Session};
use idaa_sql::ast::Statement;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["olap_dash", "oltp_mix", "elt_pipeline", "ingest_recover"];

/// Why each workload exists, one line each (`BENCHMARK.json` repeats them).
pub const WHY: [&str; 4] = [
    "dashboard refresh: 4 accelerator-routed analytic queries; accel::exec does ~90% of the work, so \
     kernel and pipeline changes must show here and dispatch or metrics changes must not",
    "business transaction: 14 short reads and writes across DB2, AOTs, replication and 2PC; \
     per-statement parse, dispatch, commit, metrics and control frames dominate",
    "the paper's ELT chain on accelerator-only tables: INSERT-SELECT stages, predicate DML, join, \
     analytics CALL, pull back; the accelerator write path and log, with control frames only on the link",
    "ingest-and-recover cycle: both loader paths, bulk INSERT, pull to DB2, replicated deletes, crash and \
     recovery with a durability check; wire, netsim, loader, replication and durable replay do the work",
];

/// Build workload `name` from `seed` (schema, seeding, acceleration).
pub fn build(name: &str, seed: u64, scale: Scale) -> Option<Box<dyn Workload>> {
    Some(match name {
        "olap_dash" => Box::new(olap_dash::OlapDash::setup(seed, scale)),
        "oltp_mix" => Box::new(oltp_mix::OltpMix::setup(seed, scale)),
        "elt_pipeline" => Box::new(elt_pipeline::EltPipeline::setup(seed, scale)),
        "ingest_recover" => Box::new(ingest_recover::IngestRecover::setup(seed, scale)),
        _ => return None,
    })
}

/// Timed rounds per second of `--seconds`, calibrated on the seed commit
/// (2 cores) so a run measures for about that long. The round count is
/// fixed by this table, not by a stopwatch: both sides of a comparison do
/// identical work and every count metric repeats exactly.
pub fn rounds_per_second(name: &str, scale: Scale) -> f64 {
    match (name, scale) {
        (_, Scale::Smoke) => 20.0,
        ("olap_dash", _) => olap_dash::ROUNDS_PER_SECOND,
        ("oltp_mix", _) => oltp_mix::ROUNDS_PER_SECOND,
        ("elt_pipeline", _) => elt_pipeline::ROUNDS_PER_SECOND,
        _ => ingest_recover::ROUNDS_PER_SECOND,
    }
}

/// Set-up must not fail: a workload whose schema cannot be built has
/// nothing to measure.
pub fn must(idaa: &Idaa, s: &mut Session, sql: &str) {
    if let Err(e) = idaa.execute(s, sql) {
        panic!("benchmark set-up statement failed: {e}\n  {sql:.200}");
    }
}

/// Replicate a DB2 table to the accelerator (ADD + LOAD).
pub fn accelerate(idaa: &Idaa, s: &mut Session, table: &str) {
    must(idaa, s, &format!("CALL ACCEL_ADD_TABLES('{table}')"));
    must(idaa, s, &format!("CALL ACCEL_LOAD_TABLES('{table}')"));
}

/// Insert `rows` generated rows in 1000-row `INSERT … VALUES` statements.
pub fn bulk_insert(
    idaa: &Idaa,
    s: &mut Session,
    table: &str,
    rows: usize,
    mut row: impl FnMut(usize) -> String,
) {
    for chunk_start in (0..rows).step_by(1000) {
        let vals: Vec<String> = (chunk_start..rows.min(chunk_start + 1000)).map(&mut row).collect();
        must(idaa, s, &format!("INSERT INTO {table} VALUES {}", vals.join(", ")));
    }
}

pub const REGIONS: [&str; 8] = ["EMEA", "NA", "APAC", "LATAM", "DACH", "NORDIC", "MEA", "ANZ"];
pub const SEGMENTS: [&str; 6] = ["RETAIL", "SMB", "CORP", "GOV", "EDU", "NGO"];
pub const PRODUCTS: u64 = 200;

/// `SALES (ID, REGION, PRODUCT, AMOUNT, QTY, CUST)` with ids `0..rows`,
/// and `CUSTS (CUST, SEG, TIER)` with keys `0..custs`, both replicated.
pub fn seed_sales_and_custs(idaa: &Idaa, s: &mut Session, seed: u64, rows: usize, custs: usize) {
    must(
        idaa,
        s,
        "CREATE TABLE SALES (ID INT NOT NULL, REGION VARCHAR(8), PRODUCT VARCHAR(8), \
         AMOUNT DOUBLE, QTY INT, CUST INT)",
    );
    let mut rng = SplitMix64::new(seed).fork(0x5A1E5);
    bulk_insert(idaa, s, "SALES", rows, |id| {
        format!(
            "({id}, '{}', 'P{:03}', {}.{:02}E0, {}, {})",
            REGIONS[rng.below(REGIONS.len() as u64) as usize],
            rng.below(PRODUCTS),
            rng.below(1000),
            rng.below(100),
            rng.range(1, 9),
            rng.below(custs as u64),
        )
    });
    must(idaa, s, "CREATE TABLE CUSTS (CUST INT NOT NULL, SEG VARCHAR(8), TIER INT)");
    let mut rng = SplitMix64::new(seed).fork(0xC0575);
    bulk_insert(idaa, s, "CUSTS", custs, |cust| {
        format!(
            "({cust}, '{}', {})",
            SEGMENTS[rng.below(SEGMENTS.len() as u64) as usize],
            rng.range(1, 4)
        )
    });
    accelerate(idaa, s, "SALES");
    accelerate(idaa, s, "CUSTS");
}

/// `sql`'s answer from the accelerator's row-at-a-time path
/// (`ExecMode::Interpreted`), the oracle the vectorized pipeline is checked
/// against; `None` unless `sql` is a query the accelerator can run.
pub fn interpreted_answer(idaa: &Idaa, sql: &str) -> Option<Rows> {
    match idaa_sql::parse_statement(sql) {
        Ok(Statement::Query(q)) => {
            idaa.accel().query_with_mode(PROBE_TXN, &q, ExecMode::Interpreted).ok()
        }
        _ => None,
    }
}

/// First row of an aggregate query run as `class`, as integers (empty if
/// the statement failed, which `x` has then counted).
pub fn first_row_i64(
    x: &mut Exec,
    idaa: &Idaa,
    s: &mut Session,
    class: usize,
    sql: &str,
    want: Option<Route>,
) -> Vec<i64> {
    x.sql(idaa, s, class, sql, want)
        .and_then(|o| o.rows().and_then(|r| r.rows.first().cloned()))
        .map(|row| row.iter().map(|v| v.as_i64().unwrap_or(i64::MIN)).collect())
        .unwrap_or_default()
}

/// Verification re-runs at most this many rounds, so that answer checks
/// (each runs the host and interpreted paths too) stay a small part of a
/// run's wall time.
const MAX_SAMPLE: usize = 8;

/// The seeded 5 % sample of `0..rounds` that verification re-checks: at
/// least one round, at most `MAX_SAMPLE`.
pub fn sample_rounds(seed: u64, rounds: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed).fork(0x5A3B1E);
    let mut picked: Vec<u64> = (0..rounds).filter(|_| rng.below(20) == 0).collect();
    if picked.is_empty() && rounds > 0 {
        picked.push(rng.below(rounds));
    }
    // Thin an over-long sample evenly rather than keeping its head.
    let stride = picked.len().div_ceil(MAX_SAMPLE).max(1);
    picked.into_iter().step_by(stride).collect()
}

/// Do two result sets hold the same rows? Row order is ignored unless
/// `ordered`; doubles may differ by `1e-9` relative (host and accelerator
/// sum floats in different orders), everything else must be equal.
pub fn same_answer(a: &Rows, b: &Rows, ordered: bool) -> bool {
    if a.rows.len() != b.rows.len() {
        return false;
    }
    let sorted = |r: &Rows| {
        let mut rows = r.rows.clone();
        if !ordered {
            rows.sort_by(|x, y| {
                x.iter()
                    .zip(y)
                    .map(|(p, q)| p.cmp_total(q))
                    .find(|o| o.is_ne())
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
        }
        rows
    };
    sorted(a).iter().zip(sorted(b).iter()).all(|(x, y)| {
        x.len() == y.len()
            && x.iter().zip(y).all(|(p, q)| match (p, q) {
                (Value::Double(p), Value::Double(q)) => {
                    (p - q).abs() <= 1e-9 * p.abs().max(q.abs()).max(1.0)
                }
                _ => p == q,
            })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use idaa_common::Schema;

    #[test]
    fn answers_compare_modulo_order_and_float_noise() {
        let rows = |v: Vec<(i32, f64)>| {
            Rows::new(
                Schema::default(),
                v.into_iter().map(|(k, x)| vec![Value::Int(k), Value::Double(x)]).collect(),
            )
        };
        let a = rows(vec![(1, 10.0), (2, 20.0)]);
        assert!(same_answer(&a, &rows(vec![(2, 20.0 + 1e-12), (1, 10.0)]), false));
        assert!(!same_answer(&a, &rows(vec![(2, 20.0), (1, 10.0)]), true));
        assert!(!same_answer(&a, &rows(vec![(1, 10.0), (2, 20.1)]), false));
        assert!(!same_answer(&a, &rows(vec![(1, 10.0)]), false));
    }

    #[test]
    fn sample_is_seeded_and_never_empty() {
        assert_eq!(sample_rounds(3, 400), sample_rounds(3, 400));
        assert_eq!(sample_rounds(3, 5).len(), 1);
        assert!(sample_rounds(3, 10_000).len() <= 8);
        assert!(sample_rounds(3, 0).is_empty());
    }
}
