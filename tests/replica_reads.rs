//! A replica read sees whole, committed DB2 transactions. Each test is one
//! way a query on an accelerated table once saw something DB2 never
//! committed as a whole: half of a replicated transaction (A), shards read
//! at different DB2 commits (B, C), shards behind the statement's own DB2
//! scan (D), another session's uncommitted row (E), and a load that copied
//! an uncommitted row into the replica (F).
//!
//! The setup of B–E: `DIM(K, V)` holds (k1, 100) and (k2, 100) and is
//! accelerated and loaded; the accelerator-only `FACT(K)` is hashed over
//! the fleet's shards and holds k1 and k2. A "stall" makes every transfer
//! on some nodes' links fail while one DB2 transaction moves 10 from k1 to
//! k2, then lifts the fault.

use idaa::accel::Snapshot;
use idaa::{sites, Error, FleetConfig, Idaa, IdaaConfig, ObjectName, Route, Session, SYSADM};
use std::collections::BTreeMap;

/// A `(accelerators, shards, replication_factor)` fleet with DIM and FACT
/// over the keys `k`, acceleration ELIGIBLE.
fn fleet(topology: (usize, usize, usize), k: (i32, i32)) -> (Idaa, Session) {
    let (accelerators, shards, replication_factor) = topology;
    let fleet = FleetConfig { accelerators, shards, replication_factor };
    let idaa = Idaa::new(IdaaConfig { fleet, ..IdaaConfig::default() });
    let mut s = idaa.session(SYSADM);
    for sql in [
        "CREATE TABLE DIM (K INT NOT NULL, V INT)".to_string(),
        format!("INSERT INTO DIM VALUES ({}, 100), ({}, 100)", k.0, k.1),
        "CALL ACCEL_ADD_TABLES('DIM')".into(),
        "CALL ACCEL_LOAD_TABLES('DIM')".into(),
        "CREATE TABLE FACT (K INT NOT NULL) IN ACCELERATOR DISTRIBUTE BY HASH(K)".into(),
        format!("INSERT INTO FACT VALUES ({}), ({})", k.0, k.1),
        "SET CURRENT QUERY ACCELERATION = ELIGIBLE".into(),
    ] {
        idaa.execute(&mut s, &sql).unwrap();
    }
    (idaa, s)
}

/// Make the links of `nodes` fail every transfer after the next `skip`.
fn stall(idaa: &Idaa, nodes: &[usize], skip: u64) {
    for &n in nodes {
        idaa.node_registry(n).arm(sites::LINK_TRANSFER, skip, 1000);
    }
}

fn lift(idaa: &Idaa, nodes: &[usize]) {
    for &n in nodes {
        idaa.node_registry(n).clear();
    }
}

/// Move 10 from key `from` to key `to` of `table`'s column `col` in one
/// DB2 transaction.
fn move_ten(idaa: &Idaa, s: &mut Session, (table, col): (&str, &str), (from, to): (i32, i32)) {
    for sql in [
        "BEGIN".to_string(),
        format!("UPDATE {table} SET {col} = {col} - 10 WHERE K = {from}"),
        format!("UPDATE {table} SET {col} = {col} + 10 WHERE K = {to}"),
        "COMMIT".into(),
    ] {
        idaa.execute(s, &sql).unwrap();
    }
}

const JOIN_SUM: &str = "SELECT SUM(D.V) FROM FACT F JOIN DIM D ON F.K = D.K";
const JOIN_AND_DIM: &str =
    "SELECT D.K, D.V FROM FACT F JOIN DIM D ON F.K = D.K UNION ALL SELECT K, V FROM DIM";

/// The one value a query returns, rendered.
fn scalar(idaa: &Idaa, s: &mut Session, sql: &str) -> Result<String, Error> {
    Ok(idaa.query(s, sql)?.scalar().unwrap().render())
}

/// Every value each key has among `(K, V)` rows.
fn values_by_key(rows: &[idaa::Row]) -> BTreeMap<String, Vec<String>> {
    let mut by_key: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for r in rows {
        let values = by_key.entry(r[0].render()).or_default();
        if !values.contains(&r[1].render()) {
            values.push(r[1].render());
        }
    }
    by_key
}

#[test]
fn a_single_node_replica_never_holds_half_a_transaction() {
    let idaa = Idaa::new(IdaaConfig { replication_batch: 1, ..IdaaConfig::default() });
    let mut s = idaa.session(SYSADM);
    for sql in [
        "CREATE TABLE ACCT (K INT NOT NULL, BAL INT)",
        "INSERT INTO ACCT VALUES (1, 100), (2, 100)",
        "CALL ACCEL_ADD_TABLES('ACCT')",
        "CALL ACCEL_LOAD_TABLES('ACCT')",
        "SET CURRENT QUERY ACCELERATION = ELIGIBLE",
    ] {
        idaa.execute(&mut s, sql).unwrap();
    }
    // The commit's two changes ship as two messages; the link dies after.
    stall(&idaa, &[0], 2);
    move_ten(&idaa, &mut s, ("ACCT", "BAL"), (1, 2));
    lift(&idaa, &[0]);
    let out = idaa.execute(&mut s, "SELECT SUM(BAL) FROM ACCT").unwrap();
    assert_eq!(out.route, Route::Accelerator);
    assert_eq!(out.rows().unwrap().scalar().unwrap().render(), "200");
}

#[test]
fn every_shard_reads_the_same_db2_commit() {
    for stalled in [0, 2] {
        let (idaa, mut s) = fleet((3, 4, 2), (1, 3));
        stall(&idaa, &[stalled], 0);
        move_ten(&idaa, &mut s, ("DIM", "V"), (1, 3));
        lift(&idaa, &[stalled]);
        assert_eq!(scalar(&idaa, &mut s, JOIN_SUM).unwrap(), "200", "node {stalled} stalled");
        // While a stall lasts, only nodes at DB2's commit serve.
        let (idaa, mut s) = fleet((3, 4, 2), (1, 3));
        stall(&idaa, &[stalled], 0);
        move_ten(&idaa, &mut s, ("DIM", "V"), (1, 3));
        match scalar(&idaa, &mut s, JOIN_SUM) {
            Ok(sum) => assert_eq!(sum, "200", "node {stalled} stalled"),
            Err(e) => assert_eq!(e.sqlcode(), -904, "node {stalled} stalled: {e}"),
        }
    }
}

#[test]
fn a_failover_mid_gather_serves_only_from_a_node_at_db2s_commit() {
    let (idaa, mut s) = fleet((3, 2, 2), (1, 2));
    stall(&idaa, &[2], 0);
    move_ten(&idaa, &mut s, ("DIM", "V"), (1, 2));
    lift(&idaa, &[2]);
    idaa.node_registry(1).arm(sites::MID_SCATTER, 0, 1);
    match scalar(&idaa, &mut s, JOIN_SUM) {
        Ok(sum) => assert_eq!(sum, "200"),
        Err(e) => assert_eq!(e.sqlcode(), -904, "{e}"),
    }
}

#[test]
fn shards_and_the_statements_db2_scan_read_one_commit() {
    let (idaa, mut s) = fleet((3, 4, 2), (1, 3));
    stall(&idaa, &[0, 1, 2], 0);
    move_ten(&idaa, &mut s, ("DIM", "V"), (1, 3));
    lift(&idaa, &[0, 1, 2]);
    let out = idaa.execute(&mut s, JOIN_AND_DIM).unwrap();
    assert_eq!(out.route, Route::Accelerator);
    let rows = out.rows().unwrap().rows.clone();
    assert_eq!(rows.len(), 4);
    for (k, values) in values_by_key(&rows) {
        assert_eq!(values.len(), 1, "key {k} has values {values:?}");
    }
    // A transaction whose snapshot predates a DB2 commit: the shards read
    // at the snapshot, the coordinator's DB2 scan at the commit.
    let mut a = idaa.session(SYSADM);
    idaa.execute(&mut a, "SET CURRENT QUERY ACCELERATION = ELIGIBLE").unwrap();
    idaa.execute(&mut a, "BEGIN").unwrap();
    move_ten(&idaa, &mut s, ("DIM", "V"), (1, 3));
    match idaa.query(&mut a, JOIN_AND_DIM) {
        Ok(rows) => {
            for (k, values) in values_by_key(&rows.rows) {
                assert_eq!(values.len(), 1, "key {k} has values {values:?}");
            }
        }
        Err(e) => assert_eq!(e.sqlcode(), -904, "{e}"),
    }
}

#[test]
fn a_fleet_read_never_returns_another_sessions_uncommitted_row() {
    let (idaa, mut a) = fleet((3, 4, 2), (1, 3));
    idaa.execute(&mut a, "BEGIN").unwrap();
    idaa.execute(&mut a, "UPDATE DIM SET V = 0 WHERE K = 1").unwrap();
    let mut b = idaa.session(SYSADM);
    idaa.execute(&mut b, "SET CURRENT QUERY ACCELERATION = ELIGIBLE").unwrap();
    match idaa.query(&mut b, JOIN_AND_DIM) {
        Ok(rows) => {
            let values = values_by_key(&rows.rows);
            assert_eq!(values["1"], vec!["100".to_string()], "{values:?}");
        }
        Err(e) => assert_eq!(e.sqlcode(), -913, "{e}"),
    }
    idaa.execute(&mut a, "ROLLBACK").unwrap();
    let rows = idaa.query(&mut b, JOIN_AND_DIM).unwrap();
    assert_eq!(values_by_key(&rows.rows)["1"], vec!["100".to_string()]);
}

/// Load `T` while another session holds an uncommitted insert into it, then
/// end that session's transaction with `end`.
fn load_beside_an_open_insert(end: &str) {
    let idaa = Idaa::default();
    let mut a = idaa.session(SYSADM);
    for sql in [
        "CREATE TABLE T (K INT)",
        "INSERT INTO T VALUES (1)",
        "CALL ACCEL_ADD_TABLES('T')",
        "CALL ACCEL_LOAD_TABLES('T')",
        "BEGIN",
        "INSERT INTO T VALUES (99)",
    ] {
        idaa.execute(&mut a, sql).unwrap();
    }
    let mut b = idaa.session(SYSADM);
    let err = idaa.execute(&mut b, "CALL ACCEL_LOAD_TABLES('T')").unwrap_err();
    assert_eq!(err.sqlcode(), -913, "the load must not copy an uncommitted row: {err}");
    idaa.execute(&mut a, end).unwrap();
    let t = ObjectName::bare("T");
    let mut db2 = idaa.host().read_table(0, &t).unwrap();
    let mut replica = idaa.accel().scan_at(Snapshot::latest(0), &t).unwrap();
    db2.sort_by(|x, y| x[0].cmp_total(&y[0]));
    replica.sort_by(|x, y| x[0].cmp_total(&y[0]));
    assert_eq!(replica, db2, "after {end}");
}

#[test]
fn a_load_never_copies_an_uncommitted_row() {
    load_beside_an_open_insert("ROLLBACK");
    load_beside_an_open_insert("COMMIT");
}
