//! A read of accelerator rows runs in the caller's transaction: a SELECT and
//! an analytics `CALL` follow one rule. A table the transaction changed in
//! DB2 is read on DB2 (its replica lacks those changes), and everything else
//! is read at the transaction's snapshot, with its own accelerator writes,
//! from a replica that holds every DB2 commit up to it. Each test is one way
//! a read once ignored the caller's transaction, at one node and at three
//! nodes with four shards and two replicas:
//!
//! - W1: a SELECT of an accelerated table the transaction had updated read
//!   the replica, without the update;
//! - W2: an `INSERT INTO aot SELECT` from such a table copied the replica's
//!   rows;
//! - W3: an analytics read of an accelerator-only table missed the rows the
//!   transaction had inserted into it;
//! - W5: an analytics read of an accelerated table read a replica that had
//!   missed a DB2 commit;
//! - W4: an analytics result was written outside the transaction of the
//!   `CALL` that computed it: another session saw it before COMMIT, and
//!   ROLLBACK left it behind;
//! - O: an analytics result, committed after another session's commit,
//!   was invisible to the next read of the transaction that wrote it;
//! - J: a join of an accelerator-only table with an accelerated table the
//!   transaction had updated mixed DB2's rows with the replica's.
//!
//! The property: inside one transaction with random DB2 DML on accelerated
//! tables, every read returns the same rows under NONE (DB2 alone) and
//! under ELIGIBLE.

use idaa::analytics::deploy_all;
use idaa::{sites, FleetConfig, Idaa, IdaaConfig, Route, Session, SYSADM};
use proptest::prelude::*;

/// `(accelerators, shards, replication_factor)`.
type Topology = (usize, usize, usize);
const TOPOLOGIES: [Topology; 2] = [(1, 1, 1), (3, 4, 2)];

/// The accelerated `DIM(K, V)` holding (1, 100) and (2, 100), the
/// accelerator-only `FACT(K)` hashed over the shards holding 1 and 2, and
/// the accelerator-only `DATA(K, X)` holding 2 rows; acceleration ELIGIBLE.
fn system(topology: Topology) -> (Idaa, Session) {
    let (accelerators, shards, replication_factor) = topology;
    let fleet = FleetConfig { accelerators, shards, replication_factor };
    let idaa = Idaa::new(IdaaConfig { fleet, ..IdaaConfig::default() });
    deploy_all(&idaa, SYSADM).unwrap();
    let mut s = idaa.session(SYSADM);
    for sql in [
        "CREATE TABLE DIM (K INT NOT NULL, V INT)",
        "INSERT INTO DIM VALUES (1, 100), (2, 100)",
        "CALL ACCEL_ADD_TABLES('DIM')",
        "CALL ACCEL_LOAD_TABLES('DIM')",
        "CREATE TABLE FACT (K INT NOT NULL) IN ACCELERATOR DISTRIBUTE BY HASH(K)",
        "INSERT INTO FACT VALUES (1), (2)",
        "CREATE TABLE DATA (K INT NOT NULL, X DOUBLE) IN ACCELERATOR",
        "INSERT INTO DATA VALUES (1, 1.0E0), (2, 2.0E0)",
        "SET CURRENT QUERY ACCELERATION = ELIGIBLE",
    ] {
        idaa.execute(&mut s, sql).unwrap();
    }
    (idaa, s)
}

fn run(idaa: &Idaa, s: &mut Session, sqls: &[&str]) {
    for sql in sqls {
        idaa.execute(s, sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    }
}

/// The one value a query returns, rendered.
fn scalar(idaa: &Idaa, s: &mut Session, sql: &str) -> String {
    idaa.query(s, sql).unwrap().scalar().unwrap().render()
}

/// The rows of `sql`, rendered and sorted.
fn sorted_rows(idaa: &Idaa, s: &mut Session, sql: &str) -> Vec<Vec<String>> {
    let rows = idaa.query(s, sql).unwrap_or_else(|e| panic!("{sql}: {e}")).rows;
    let mut out: Vec<Vec<String>> = rows.iter().map(|r| r.iter().map(|v| v.render()).collect()).collect();
    out.sort();
    out
}

/// `sql` under `mode`, back at ELIGIBLE afterwards.
fn under(idaa: &Idaa, s: &mut Session, mode: &str, sql: &str) -> Vec<Vec<String>> {
    run(idaa, s, &[&format!("SET CURRENT QUERY ACCELERATION = {mode}")]);
    let rows = sorted_rows(idaa, s, sql);
    run(idaa, s, &["SET CURRENT QUERY ACCELERATION = ELIGIBLE"]);
    rows
}

#[test]
fn w1_a_select_sees_its_own_db2_update() {
    for topology in TOPOLOGIES {
        let (idaa, mut s) = system(topology);
        run(&idaa, &mut s, &["BEGIN", "UPDATE DIM SET V = 0 WHERE K = 1"]);
        let sum = "SELECT SUM(V) FROM DIM";
        let out = idaa.execute(&mut s, sum).unwrap();
        assert_eq!(out.route, Route::Host, "{topology:?}");
        assert_eq!(out.rows().unwrap().scalar().unwrap().render(), "100", "{topology:?}");
        assert_eq!(under(&idaa, &mut s, "NONE", sum), vec![vec!["100".to_string()]]);
        let plan = sorted_rows(&idaa, &mut s, &format!("EXPLAIN {sum}"));
        assert!(
            plan.iter().any(|l| l[0].starts_with("ROUTE: Host")),
            "{topology:?}: EXPLAIN must name the route the read takes: {plan:?}"
        );
        run(&idaa, &mut s, &["ROLLBACK"]);
        assert_eq!(idaa.execute(&mut s, sum).unwrap().route, Route::Accelerator, "{topology:?}");
    }
}

#[test]
fn w2_an_insert_select_copies_its_own_db2_update() {
    for topology in TOPOLOGIES {
        let (idaa, mut s) = system(topology);
        run(&idaa, &mut s, &[
            "CREATE TABLE OUTT (V INT) IN ACCELERATOR",
            "BEGIN",
            "UPDATE DIM SET V = 0 WHERE K = 1",
            "INSERT INTO OUTT SELECT V FROM DIM",
            "COMMIT",
        ]);
        assert_eq!(scalar(&idaa, &mut s, "SELECT SUM(V) FROM DIM"), "100", "{topology:?}");
        assert_eq!(scalar(&idaa, &mut s, "SELECT SUM(V) FROM OUTT"), "100", "{topology:?}");
    }
}

#[test]
fn w3_an_analytics_read_sees_its_own_accelerator_insert() {
    for topology in TOPOLOGIES {
        let (idaa, mut s) = system(topology);
        run(&idaa, &mut s, &["BEGIN", "INSERT INTO DATA VALUES (3, 3.0E0), (4, 4.0E0)"]);
        assert_eq!(scalar(&idaa, &mut s, "SELECT COUNT(*) FROM DATA"), "4", "{topology:?}");
        run(&idaa, &mut s, &["CALL ANALYTICS.DESCRIBE('DATA', 'STATS')"]);
        let cnt = "SELECT CNT FROM STATS WHERE COLUMN_NAME = 'X'";
        assert_eq!(scalar(&idaa, &mut s, cnt), "4", "{topology:?}");
        run(&idaa, &mut s, &["COMMIT"]);
    }
}

#[test]
fn an_analytics_output_feeds_the_next_read_of_its_transaction() {
    for topology in TOPOLOGIES {
        let (idaa, mut s) = system(topology);
        let mut other = idaa.session(SYSADM);
        run(&idaa, &mut s, &["CREATE TABLE H (K INT)", "BEGIN", "SELECT COUNT(*) FROM DATA"]);
        // Another session commits after this transaction's snapshot.
        run(&idaa, &mut other, &["INSERT INTO H VALUES (1)"]);
        run(&idaa, &mut s, &["CALL ANALYTICS.DESCRIBE('DATA', 'STATS')"]);
        assert_eq!(scalar(&idaa, &mut s, "SELECT COUNT(*) FROM STATS"), "2", "{topology:?}");
        run(&idaa, &mut s, &["CALL ANALYTICS.DESCRIBE('STATS', 'STATS2')"]);
        let cnt = "SELECT CNT FROM STATS2 WHERE COLUMN_NAME = 'CNT'";
        assert_eq!(scalar(&idaa, &mut s, cnt), "2", "{topology:?}");
        run(&idaa, &mut s, &["COMMIT"]);
    }
}

#[test]
fn w4_an_analytics_output_commits_and_rolls_back_with_its_caller() {
    let count = "SELECT COUNT(*) FROM STATS";
    for topology in TOPOLOGIES {
        let (idaa, mut s) = system(topology);
        let mut other = idaa.session(SYSADM);
        run(&idaa, &mut other, &["SET CURRENT QUERY ACCELERATION = ELIGIBLE"]);
        run(&idaa, &mut s, &["BEGIN", "CALL ANALYTICS.DESCRIBE('DATA', 'STATS')"]);
        assert_eq!(scalar(&idaa, &mut s, count), "2", "{topology:?}: the caller reads its output");
        assert_eq!(scalar(&idaa, &mut other, count), "0", "{topology:?}: no other session before COMMIT");
        run(&idaa, &mut s, &["ROLLBACK"]);
        assert_eq!(scalar(&idaa, &mut s, count), "0", "{topology:?}: ROLLBACK takes the rows away");
        run(&idaa, &mut s, &["BEGIN", "CALL ANALYTICS.DESCRIBE('DATA', 'STATS')", "COMMIT"]);
        assert_eq!(scalar(&idaa, &mut other, count), "2", "{topology:?}: COMMIT publishes them");
    }
}

#[test]
fn an_analytics_read_right_after_an_autocommit_insert_sees_the_row() {
    // The INSERT's decision waits on DATA's owners for their next message.
    // The CALL reads them in process, sending them nothing, so it first
    // delivers each owner's queue on a message of its own.
    for topology in TOPOLOGIES {
        let (idaa, mut s) = system(topology);
        run(&idaa, &mut s, &["INSERT INTO DATA VALUES (3, 3.0E0)", "CALL ANALYTICS.DESCRIBE('DATA', 'STATS')"]);
        let cnt = "SELECT CNT FROM STATS WHERE COLUMN_NAME = 'X'";
        assert_eq!(scalar(&idaa, &mut s, cnt), "3", "{topology:?}");
        assert!(idaa.metrics().counter("twopc.decisions_alone") >= 1, "{topology:?}");
    }
}

#[test]
fn w5_an_analytics_read_never_serves_a_replica_behind_db2() {
    for topology in TOPOLOGIES {
        let (idaa, mut s) = system(topology);
        let nodes = 0..idaa.fleet_size();
        nodes.clone().for_each(|n| idaa.node_registry(n).arm(sites::LINK_TRANSFER, 0, 1000));
        run(&idaa, &mut s, &["UPDATE DIM SET V = 7 WHERE K = 2"]);
        nodes.for_each(|n| idaa.node_registry(n).clear());
        match idaa.execute(&mut s, "CALL ANALYTICS.DESCRIBE('DIM', 'DS')") {
            Ok(_) => {
                let min = "SELECT MINV FROM DS WHERE COLUMN_NAME = 'V'";
                assert_eq!(scalar(&idaa, &mut s, min), "7.0", "{topology:?}: a stale replica served");
            }
            Err(e) => assert_eq!(e.sqlcode(), -904, "{topology:?}: {e}"),
        }
    }
}

#[test]
fn a_join_with_an_aot_fails_once_its_transaction_changed_the_db2_table() {
    let join = "SELECT D.K, D.V FROM FACT F JOIN DIM D ON F.K = D.K UNION ALL SELECT K, V FROM DIM";
    for topology in TOPOLOGIES {
        let (idaa, mut s) = system(topology);
        assert_eq!(sorted_rows(&idaa, &mut s, join).len(), 4, "{topology:?}");
        run(&idaa, &mut s, &["BEGIN", "UPDATE DIM SET V = 0 WHERE K = 1"]);
        let err = idaa.query(&mut s, join).unwrap_err();
        assert_eq!(err.sqlcode(), -4742, "{topology:?}: {err}");
        // An analytics read of the changed table fails the same way.
        let err = idaa.execute(&mut s, "CALL ANALYTICS.DESCRIBE('DIM', 'DS')").unwrap_err();
        assert_eq!(err.sqlcode(), -4742, "{topology:?}: {err}");
        run(&idaa, &mut s, &["ROLLBACK"]);
        assert_eq!(sorted_rows(&idaa, &mut s, join).len(), 4, "{topology:?}");
    }
}

/// Reads over the accelerated `DIM` and `EXT`, each answerable by DB2 and
/// by the accelerator.
const READS: [&str; 5] = [
    "SELECT K, V FROM DIM",
    "SELECT SUM(V), COUNT(*) FROM DIM",
    "SELECT D.K, D.V, E.W FROM DIM D JOIN EXT E ON D.K = E.K",
    "SELECT K, W FROM EXT WHERE W > 3",
    "SELECT COUNT(*) FROM EXT",
];

/// One step of a transaction: DB2 DML on `DIM` or `EXT`, or a read.
fn step_sql((op, k, v): (usize, i32, i32)) -> String {
    let (table, col) = if op % 2 == 0 { ("DIM", "V") } else { ("EXT", "W") };
    match op / 2 {
        0 => format!("INSERT INTO {table} VALUES ({k}, {v})"),
        1 => format!("UPDATE {table} SET {col} = {v} WHERE K = {k}"),
        2 => format!("DELETE FROM {table} WHERE K = {k}"),
        _ => READS[(k as usize) % READS.len()].to_string(),
    }
}

/// Cases per run: `PROPTEST_CASES` when set, else a budget that fits the
/// debug test run.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(32)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: cases() })]

    #[test]
    fn every_read_in_a_transaction_agrees_with_db2(
        fleet in any::<bool>(),
        steps in collection::vec((0usize..10, 0i32..5, 0i32..9), 1..12),
    ) {
        let (idaa, mut s) = system(if fleet { TOPOLOGIES[1] } else { TOPOLOGIES[0] });
        run(&idaa, &mut s, &[
            "CREATE TABLE EXT (K INT NOT NULL, W INT)",
            "INSERT INTO EXT VALUES (1, 2), (2, 4), (3, 6)",
            "CALL ACCEL_ADD_TABLES('EXT')",
            "CALL ACCEL_LOAD_TABLES('EXT')",
            "BEGIN",
        ]);
        for step in steps {
            let sql = step_sql(step);
            if sql.starts_with("SELECT") {
                let eligible = sorted_rows(&idaa, &mut s, &sql);
                prop_assert_eq!(eligible, under(&idaa, &mut s, "NONE", &sql), "{}", sql);
            } else {
                run(&idaa, &mut s, &[&sql]);
            }
        }
        for sql in READS {
            let eligible = sorted_rows(&idaa, &mut s, sql);
            prop_assert_eq!(eligible, under(&idaa, &mut s, "NONE", sql), "{}", sql);
        }
        run(&idaa, &mut s, &["COMMIT"]);
    }
}
