//! Query routing: decide *where* a statement runs.
//!
//! Mirrors the DB2/IDAA rules:
//!
//! * Statements touching only accelerator-only tables always run on the
//!   accelerator, regardless of the acceleration register — AOT data exists
//!   nowhere else.
//! * Read-only queries over *accelerated* regular tables are offloaded
//!   according to `CURRENT QUERY ACCELERATION`:
//!   `NONE` never offloads; `ENABLE` offloads when the (cost-heuristic)
//!   optimizer expects a benefit; `ELIGIBLE` offloads whenever possible;
//!   `ALL` offloads or fails (SQLCODE -4742 analogue).
//! * Queries mixing AOTs with tables *not present* on the accelerator fail
//!   with -4742 — there is no single place that can answer them. For a
//!   transaction, an accelerated table it has changed in DB2 is not
//!   present: the replica lacks the uncommitted changes.
//! * DML on regular tables always runs in DB2; DML on AOTs always runs on
//!   the accelerator.

use idaa_common::{Error, ObjectName, Result};
use idaa_host::engine::eq_literal;
use idaa_host::{AccelStatus, HostEngine, TableKind, TxnId};
use idaa_sql::exec::conjuncts;
use idaa_sql::plan::Plan;
use idaa_sql::AccelerationMode;

/// Where a statement executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    Host,
    Accelerator,
}

/// Classification of the tables a statement references.
#[derive(Debug, Default, Clone, Copy)]
pub struct TableMix {
    pub aot: usize,
    pub accelerated: usize,
    pub host_only: usize,
    /// Total rows across referenced host tables (cost heuristic input).
    pub host_rows: usize,
    /// The query is an indexed point access on the host — `ENABLE` keeps
    /// those local no matter the table size (DB2's optimizer would, too).
    pub indexed_point: bool,
}

/// Does the plan look like an indexed point access? True when every base
/// scan is filtered by a conjunct DB2's executor serves from an index:
/// `col = literal` (`engine::eq_literal`) on a column with a single-column
/// index (`HostEngine::has_column_index`).
pub fn is_indexed_point(host: &HostEngine, plan: &Plan) -> bool {
    fn walk(host: &HostEngine, plan: &Plan, all_indexed: &mut bool, scans: &mut usize) {
        match plan {
            Plan::Filter { input, predicate } => {
                if let Plan::Scan { table, cols, .. } = input.as_ref() {
                    *scans += 1;
                    let mut points =
                        conjuncts(predicate).into_iter().filter_map(|c| eq_literal(c, cols));
                    if !points.any(|(col, _)| host.has_column_index(table, col)) {
                        *all_indexed = false;
                    }
                } else {
                    walk(host, input, all_indexed, scans);
                }
            }
            Plan::Scan { cols, .. } => {
                if !cols.is_empty() {
                    *scans += 1;
                    *all_indexed = false; // unfiltered scan
                }
            }
            Plan::Project { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Distinct { input }
            | Plan::Limit { input, .. }
            | Plan::KeepCols { input, .. } => walk(host, input, all_indexed, scans),
            Plan::Join { left, right, .. } | Plan::Union { left, right, .. } => {
                walk(host, left, all_indexed, scans);
                walk(host, right, all_indexed, scans);
            }
        }
    }
    let mut all_indexed = true;
    let mut scans = 0;
    walk(host, plan, &mut all_indexed, &mut scans);
    scans > 0 && all_indexed
}

/// Classify the referenced tables (resolved against the host catalog —
/// the system of record for all metadata, per the paper's design) for a
/// read outside any transaction.
pub fn classify(host: &HostEngine, tables: &[ObjectName]) -> Result<TableMix> {
    classify_for(host, None, tables)
}

/// [`classify`] for a read by `txn`: an accelerated table that `txn` has
/// changed in DB2 counts as host-only, because its accelerator copy lacks
/// those changes.
pub fn classify_for(host: &HostEngine, txn: Option<TxnId>, tables: &[ObjectName]) -> Result<TableMix> {
    let mut mix = TableMix::default();
    for t in tables {
        let meta = host.table_meta(t)?;
        if meta.kind == TableKind::AcceleratorOnly {
            mix.aot += 1;
            continue;
        }
        mix.host_rows += host.scan_count(&meta.name);
        match meta.accel_status {
            AccelStatus::Loaded if !txn.is_some_and(|txn| host.txns.changed(txn, &meta.name)) => mix.accelerated += 1,
            _ => mix.host_only += 1,
        }
    }
    Ok(mix)
}

/// Row-count threshold above which `ENABLE` considers offload worthwhile.
/// DB2's real optimizer uses a cost model; a table-size threshold captures
/// the shape that matters for the experiments (small lookups stay, big
/// scans go).
pub const ENABLE_OFFLOAD_ROW_THRESHOLD: usize = 10_000;

/// Route a read-only query given the table mix and the session register.
pub fn route_query(mix: &TableMix, mode: AccelerationMode) -> Result<Route> {
    Ok(route_query_with_reason(mix, mode)?.0)
}

/// [`route_query`] plus a static, deterministic *reason* string — recorded
/// on the statement's `route` trace span and shown by `EXPLAIN`.
pub fn route_query_with_reason(
    mix: &TableMix,
    mode: AccelerationMode,
) -> Result<(Route, &'static str)> {
    if mix.aot > 0 {
        if mix.host_only > 0 {
            return Err(Error::InvalidAcceleratorUse(
                "statement references accelerator-only tables together with tables \
                 that are not available on the accelerator"
                    .into(),
            ));
        }
        return Ok((Route::Accelerator, "accelerator-only tables referenced"));
    }
    let all_offloadable = mix.host_only == 0 && mix.accelerated > 0;
    match mode {
        AccelerationMode::None => Ok((Route::Host, "acceleration register is NONE")),
        AccelerationMode::Enable => {
            if all_offloadable && mix.host_rows >= ENABLE_OFFLOAD_ROW_THRESHOLD {
                if mix.indexed_point {
                    Ok((Route::Host, "indexed point access stays local"))
                } else {
                    Ok((Route::Accelerator, "cost heuristic favors offload"))
                }
            } else if all_offloadable {
                Ok((Route::Host, "referenced tables below offload threshold"))
            } else {
                Ok((Route::Host, "not all tables available on the accelerator"))
            }
        }
        AccelerationMode::Eligible => {
            if all_offloadable {
                Ok((Route::Accelerator, "all tables accelerated"))
            } else {
                Ok((Route::Host, "not all tables available on the accelerator"))
            }
        }
        AccelerationMode::All => {
            if all_offloadable {
                Ok((Route::Accelerator, "ALL forces offload"))
            } else if mix.accelerated == 0 && mix.host_only == 0 {
                // FROM-less / catalog-only statements run locally.
                Ok((Route::Host, "no base tables referenced"))
            } else {
                Err(Error::NotOffloadable(
                    "the statement must run on the accelerator, but it references tables \
                     that are not on it for this transaction: not accelerated, or changed \
                     by the transaction in DB2"
                        .into(),
                ))
            }
        }
    }
}

/// True when a query routed to the accelerator has no host fallback: it
/// touches accelerator-only tables (the data exists nowhere else) or the
/// session demands `ALL`. Availability handling consults this — anything
/// else can re-run on the host when the accelerator is unreachable.
pub fn must_accelerate(mix: &TableMix, mode: AccelerationMode) -> bool {
    mix.aot > 0 || mode == AccelerationMode::All
}

/// Route DML by its *target* table.
pub fn route_dml(host: &HostEngine, target: &ObjectName) -> Result<Route> {
    let meta = host.table_meta(target)?;
    Ok(match meta.kind {
        TableKind::AcceleratorOnly => Route::Accelerator,
        TableKind::Regular => Route::Host,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix(aot: usize, accelerated: usize, host_only: usize, host_rows: usize) -> TableMix {
        TableMix { aot, accelerated, host_only, host_rows, indexed_point: false }
    }

    #[test]
    fn enable_keeps_indexed_point_lookups_local() {
        let m = TableMix { indexed_point: true, ..mix(0, 1, 0, 1_000_000) };
        assert_eq!(route_query(&m, AccelerationMode::Enable).unwrap(), Route::Host);
        // ELIGIBLE still offloads (the register demands it when possible).
        assert_eq!(route_query(&m, AccelerationMode::Eligible).unwrap(), Route::Accelerator);
    }

    #[test]
    fn indexed_point_detection() {
        use idaa_host::{HostEngine, TableKind, SYSADM};
        use idaa_sql::plan::plan_query;
        use idaa_sql::{parse_statement, Statement};
        let host = HostEngine::default();
        host.create_table(
            SYSADM,
            &ObjectName::bare("T"),
            idaa_common::Schema::new(vec![
                idaa_common::ColumnDef::new("ID", idaa_common::DataType::Integer),
                idaa_common::ColumnDef::new("V", idaa_common::DataType::Integer),
            ])
            .unwrap(),
            TableKind::Regular,
            vec![],
        )
        .unwrap();
        let t = ObjectName::qualified("APP", "T");
        let control = host.privileges.read().check(SYSADM, &t, idaa_sql::Privilege::All).unwrap();
        host.create_index(&control, &ObjectName::bare("I1"), vec!["ID".into()]).unwrap();
        let plan_of = |sql: &str| {
            let Statement::Query(q) = parse_statement(sql).unwrap() else { panic!() };
            plan_query(&q, &host).unwrap()
        };
        assert!(is_indexed_point(&host, &plan_of("SELECT v FROM t WHERE id = 5")));
        assert!(is_indexed_point(&host, &plan_of("SELECT v FROM t WHERE id = 5 AND v > 2")));
        assert!(!is_indexed_point(&host, &plan_of("SELECT v FROM t WHERE v = 5")), "no index on V");
        assert!(!is_indexed_point(&host, &plan_of("SELECT v FROM t WHERE id > 5")), "range, not point");
        assert!(!is_indexed_point(&host, &plan_of("SELECT SUM(v) FROM t")), "full scan");
        assert!(!is_indexed_point(&host, &plan_of("SELECT 1")), "no scan at all");
        assert!(!is_indexed_point(&host, &plan_of("SELECT v FROM t WHERE id = NULL")), "NULL key");
    }

    #[test]
    fn a_composite_index_is_no_indexed_point() {
        use idaa_host::{HostEngine, TableKind, SYSADM};
        use idaa_sql::plan::plan_query;
        use idaa_sql::{parse_statement, Statement};
        let host = HostEngine::default();
        let cols = ["A", "B"].map(|c| idaa_common::ColumnDef::new(c, idaa_common::DataType::Integer));
        let schema = idaa_common::Schema::new(cols.to_vec()).unwrap();
        let t = ObjectName::bare("T");
        host.create_table(SYSADM, &t, schema, TableKind::Regular, vec![]).unwrap();
        let control = host.privileges.read().check(SYSADM, &host.resolve(&t), idaa_sql::Privilege::All);
        let control = control.unwrap();
        host.create_index(&control, &ObjectName::bare("AB"), vec!["A".into(), "B".into()]).unwrap();
        let Statement::Query(q) = parse_statement("SELECT b FROM t WHERE a = 5").unwrap() else {
            panic!()
        };
        let plan = plan_query(&q, &host).unwrap();
        assert!(!is_indexed_point(&host, &plan), "DB2 would walk the heap");
        host.create_index(&control, &ObjectName::bare("A1"), vec!["A".into()]).unwrap();
        assert!(is_indexed_point(&host, &plan));
    }

    #[test]
    fn aot_always_offloads() {
        for mode in [
            AccelerationMode::None,
            AccelerationMode::Enable,
            AccelerationMode::Eligible,
            AccelerationMode::All,
        ] {
            assert_eq!(route_query(&mix(1, 0, 0, 0), mode).unwrap(), Route::Accelerator);
            assert_eq!(route_query(&mix(1, 2, 0, 0), mode).unwrap(), Route::Accelerator);
        }
    }

    #[test]
    fn aot_mixed_with_host_only_fails() {
        let err = route_query(&mix(1, 0, 1, 0), AccelerationMode::Eligible).unwrap_err();
        assert_eq!(err.sqlcode(), -4742);
    }

    #[test]
    fn none_never_offloads() {
        assert_eq!(
            route_query(&mix(0, 3, 0, 1_000_000), AccelerationMode::None).unwrap(),
            Route::Host
        );
    }

    #[test]
    fn enable_uses_cost_heuristic() {
        assert_eq!(
            route_query(&mix(0, 1, 0, 100), AccelerationMode::Enable).unwrap(),
            Route::Host,
            "small tables stay on the host"
        );
        assert_eq!(
            route_query(&mix(0, 1, 0, 1_000_000), AccelerationMode::Enable).unwrap(),
            Route::Accelerator
        );
    }

    #[test]
    fn eligible_offloads_when_possible() {
        assert_eq!(
            route_query(&mix(0, 1, 0, 10), AccelerationMode::Eligible).unwrap(),
            Route::Accelerator
        );
        assert_eq!(
            route_query(&mix(0, 1, 1, 10), AccelerationMode::Eligible).unwrap(),
            Route::Host,
            "non-accelerated reference forces host execution"
        );
    }

    #[test]
    fn must_accelerate_identifies_no_fallback_cases() {
        assert!(must_accelerate(&mix(1, 0, 0, 0), AccelerationMode::None));
        assert!(must_accelerate(&mix(0, 1, 0, 0), AccelerationMode::All));
        assert!(!must_accelerate(&mix(0, 2, 0, 1_000_000), AccelerationMode::Eligible));
        assert!(!must_accelerate(&mix(0, 1, 0, 50), AccelerationMode::Enable));
    }

    #[test]
    fn all_fails_when_not_offloadable() {
        assert_eq!(
            route_query(&mix(0, 2, 0, 10), AccelerationMode::All).unwrap(),
            Route::Accelerator
        );
        let err = route_query(&mix(0, 1, 1, 10), AccelerationMode::All).unwrap_err();
        assert_eq!(err.sqlcode(), -4742);
        // FROM-less is fine.
        assert_eq!(route_query(&mix(0, 0, 0, 0), AccelerationMode::All).unwrap(), Route::Host);
    }
}
