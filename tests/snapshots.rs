//! One snapshot per DB2 transaction. A transaction reads at DB2's commit LSN
//! at its first statement on every node, whether it writes or not, and a
//! node serves that read only when it holds every DB2 commit up to it. Each
//! test is one way a read once saw something else: a read-only transaction
//! whose re-read moved (S1), half of another transaction (S2), versions
//! GROOM reclaimed under a live snapshot (S3), a mixed transaction whose
//! replicated half had not arrived (S4), and a commit whose phase-2 decision
//! had not arrived (S5).

use idaa::{sites, Error, FleetConfig, Idaa, IdaaConfig, Session, SYSADM};

/// The single accelerator, and three accelerators with four shards of two
/// copies each.
const TOPOLOGIES: [(usize, usize, usize); 2] = [(1, 1, 1), (3, 4, 2)];

fn system((accelerators, shards, replication_factor): (usize, usize, usize)) -> Idaa {
    let fleet = FleetConfig { accelerators, shards, replication_factor };
    Idaa::new(IdaaConfig { fleet, ..IdaaConfig::default() })
}

fn run(idaa: &Idaa, s: &mut Session, sqls: &[&str]) {
    for sql in sqls {
        idaa.execute(s, sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    }
}

/// Every value of the one row `sql` returns, rendered.
fn row(idaa: &Idaa, s: &mut Session, sql: &str) -> Result<Vec<String>, Error> {
    let rows = idaa.query(s, sql)?;
    assert_eq!(rows.len(), 1, "{sql}");
    Ok(rows.rows[0].iter().map(|v| v.render()).collect())
}

/// The AOT `T(K)` hashed on K, holding 1–4.
fn four_rows(idaa: &Idaa) -> Session {
    let mut s = idaa.session(SYSADM);
    run(idaa, &mut s, &[
        "CREATE TABLE T (K INT NOT NULL) IN ACCELERATOR DISTRIBUTE BY HASH(K)",
        "INSERT INTO T VALUES (1), (2), (3), (4)",
    ]);
    s
}

const COUNT_T: &str = "SELECT COUNT(*) FROM T";

#[test]
fn a_read_only_transaction_rereads_its_snapshot() {
    let idaa = system((1, 1, 1));
    let mut b = four_rows(&idaa);
    let mut a = idaa.session(SYSADM);
    run(&idaa, &mut a, &["BEGIN"]);
    assert_eq!(row(&idaa, &mut a, COUNT_T).unwrap(), ["4"]);
    run(&idaa, &mut b, &["DELETE FROM T WHERE K <= 2"]);
    assert_eq!(row(&idaa, &mut a, COUNT_T).unwrap(), ["4"], "the re-read moved");
    run(&idaa, &mut a, &["COMMIT"]);
    assert_eq!(row(&idaa, &mut a, COUNT_T).unwrap(), ["2"]);
}

#[test]
fn a_transaction_never_sees_half_of_another() {
    for topology in TOPOLOGIES {
        // The reader first writes to the owners of one shard only.
        for p in 1..=8 {
            let idaa = system(topology);
            let mut b = idaa.session(SYSADM);
            run(&idaa, &mut b, &[
                "CREATE TABLE ACC (ID INT NOT NULL, BAL INT) IN ACCELERATOR DISTRIBUTE BY HASH(ID)",
                "CREATE TABLE PIN (X INT NOT NULL) IN ACCELERATOR DISTRIBUTE BY HASH(X)",
                "INSERT INTO ACC VALUES (1, 100), (2, 100), (3, 100), (4, 100), (5, 100), \
                 (6, 100), (7, 100), (8, 100)",
            ]);
            let mut a = idaa.session(SYSADM);
            run(&idaa, &mut a, &["BEGIN", &format!("INSERT INTO PIN VALUES ({p})")]);
            // A balanced transfer over all eight ids.
            run(&idaa, &mut b, &[
                "BEGIN",
                "UPDATE ACC SET BAL = BAL + 10 WHERE ID IN (2, 4, 6, 8)",
                "UPDATE ACC SET BAL = BAL - 10 WHERE ID IN (1, 3, 5, 7)",
                "COMMIT",
            ]);
            let seen = row(&idaa, &mut a, "SELECT SUM(BAL), COUNT(*) FROM ACC WHERE BAL > 100");
            assert_eq!(seen.unwrap(), ["NULL", "0"], "{topology:?}, pin {p}");
            run(&idaa, &mut a, &["COMMIT"]);
            let after = row(&idaa, &mut a, "SELECT SUM(BAL), COUNT(*) FROM ACC WHERE BAL > 100");
            assert_eq!(after.unwrap(), ["440", "4"], "{topology:?}, pin {p}");
        }
    }
}

#[test]
fn groom_keeps_what_a_live_snapshot_reads() {
    for topology in TOPOLOGIES {
        let idaa = system(topology);
        let mut b = four_rows(&idaa);
        let mut a = idaa.session(SYSADM);
        run(&idaa, &mut a, &["BEGIN"]);
        assert_eq!(row(&idaa, &mut a, COUNT_T).unwrap(), ["4"]);
        run(&idaa, &mut b, &["DELETE FROM T WHERE K <= 2", "CALL SYSPROC.ACCEL_GROOM_TABLES()"]);
        assert_eq!(row(&idaa, &mut a, COUNT_T).unwrap(), ["4"], "{topology:?}");
        // Once the snapshot ends, GROOM reclaims the two versions.
        run(&idaa, &mut a, &["COMMIT"]);
        let groomed = row(&idaa, &mut b, "CALL SYSPROC.ACCEL_GROOM_TABLES()").unwrap();
        assert_ne!(groomed, ["groomed 0 row versions"], "{topology:?}");
        assert_eq!(row(&idaa, &mut a, COUNT_T).unwrap(), ["2"], "{topology:?}");
    }
}

#[test]
fn a_mixed_transaction_is_never_seen_in_half() {
    let idaa = system((1, 1, 1));
    let mut s = idaa.session(SYSADM);
    run(&idaa, &mut s, &[
        "CREATE TABLE DIM (K INT NOT NULL, V INT)",
        "INSERT INTO DIM VALUES (1, 100)",
        "CALL ACCEL_ADD_TABLES('DIM')",
        "CALL ACCEL_LOAD_TABLES('DIM')",
        "CREATE TABLE LOG2 (K INT, V INT) IN ACCELERATOR",
        "BEGIN",
        "UPDATE DIM SET V = 0 WHERE K = 1",
        "INSERT INTO LOG2 VALUES (1, 0)",
    ]);
    // PREPARE, its vote and the phase-2 COMMIT arrive; the replication
    // batch that follows does not.
    idaa.faults.registry.arm(sites::LINK_TRANSFER, 3, 4);
    run(&idaa, &mut s, &["COMMIT"]);
    let mut other = idaa.session(SYSADM);
    run(&idaa, &mut other, &["SET CURRENT QUERY ACCELERATION = ELIGIBLE"]);
    match row(&idaa, &mut other, "SELECT L.V, D.V FROM LOG2 L JOIN DIM D ON L.K = D.K") {
        Ok(seen) => assert_eq!(seen, ["0", "0"]),
        Err(e) => assert!(matches!(e.sqlcode(), -904 | -30081), "{e}"),
    }
}

#[test]
fn a_lost_phase_two_commit_is_never_read_stale() {
    let idaa = Idaa::new(IdaaConfig { auto_replicate: false, ..IdaaConfig::default() });
    let mut s = idaa.session(SYSADM);
    run(&idaa, &mut s, &[
        "CREATE TABLE H (X INT)",
        "CREATE TABLE A (X INT) IN ACCELERATOR",
        "BEGIN",
        "INSERT INTO H VALUES (1)",
        "INSERT INTO A VALUES (1)",
    ]);
    // PREPARE and its vote arrive; every attempt of the next message, the
    // read request that carries the decision, is lost.
    idaa.faults.registry.arm(sites::LINK_TRANSFER, 2, 4);
    run(&idaa, &mut s, &["COMMIT"]);
    assert_eq!(idaa.pending_accel_commits(), 1);
    // A session that starts after the COMMIT returned.
    let mut other = idaa.session(SYSADM);
    match row(&idaa, &mut other, "SELECT COUNT(*) FROM A") {
        Ok(seen) => assert_eq!(seen, ["1"]),
        Err(e) => assert!(matches!(e.sqlcode(), -904 | -30081), "{e}"),
    }
    assert_eq!(idaa.pending_accel_commits(), 1, "a lost carrier leaves the decision queued");
    assert_eq!(row(&idaa, &mut other, "SELECT COUNT(*) FROM A").unwrap(), ["1"]);
    assert_eq!(idaa.pending_accel_commits(), 0);
}
