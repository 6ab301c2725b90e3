//! A unit of work is one owned value: a transaction, or a statement outside
//! one, begun at its first statement and consumed by commit or rollback.
//! Each test is one way a unit of work once outlived its meaning, at one
//! node and at three nodes with four shards and two replicas:
//!
//! - P3: a session dropped inside `BEGIN` kept its snapshot and its DB2
//!   locks for good, so GROOM reclaimed nothing and another session's
//!   UPDATE failed -913;
//! - P4: a read-only SELECT on DB2 committed: it took a DB2 LSN and counted
//!   a local commit.

use idaa::{FleetConfig, Idaa, IdaaConfig, Session, SYSADM};

/// The single accelerator, and three accelerators with four shards of two
/// copies each.
const TOPOLOGIES: [(usize, usize, usize); 2] = [(1, 1, 1), (3, 4, 2)];

/// The system at `topology` with DB2's `H(K, V)` holding (1, 1) to (4, 4)
/// and the AOT `T(K)` hashed on K holding 1 to 4, and a session.
fn system((accelerators, shards, replication_factor): (usize, usize, usize)) -> (Idaa, Session) {
    let fleet = FleetConfig { accelerators, shards, replication_factor };
    let idaa = Idaa::new(IdaaConfig { fleet, ..IdaaConfig::default() });
    let mut s = idaa.session(SYSADM);
    run(&idaa, &mut s, &[
        "CREATE TABLE H (K INT NOT NULL, V INT)",
        "INSERT INTO H VALUES (1, 1), (2, 2), (3, 3), (4, 4)",
        "CREATE TABLE T (K INT NOT NULL) IN ACCELERATOR DISTRIBUTE BY HASH(K)",
        "INSERT INTO T VALUES (1), (2), (3), (4)",
    ]);
    (idaa, s)
}

fn run(idaa: &Idaa, s: &mut Session, sqls: &[&str]) {
    for sql in sqls {
        idaa.execute(s, sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    }
}

/// The one value `sql` returns, rendered.
fn scalar(idaa: &Idaa, s: &mut Session, sql: &str) -> String {
    idaa.query(s, sql).unwrap_or_else(|e| panic!("{sql}: {e}")).scalar().unwrap().render()
}

#[test]
fn a_dropped_session_hands_its_unit_of_work_back() {
    for topology in TOPOLOGIES {
        let (idaa, mut s) = system(topology);
        let mut dropped = idaa.session(SYSADM);
        run(&idaa, &mut dropped, &[
            "BEGIN",
            "SELECT COUNT(*) FROM H",
            "UPDATE H SET V = 0 WHERE K = 3",
            "INSERT INTO T VALUES (5)",
        ]);
        drop(dropped);
        // One statement of another session rolls the dropped unit back.
        run(&idaa, &mut s, &["DELETE FROM T WHERE K <= 2"]);
        let groomed = scalar(&idaa, &mut s, "CALL SYSPROC.ACCEL_GROOM_TABLES()");
        assert_ne!(groomed, "groomed 0 row versions", "{topology:?}: the dropped snapshot still pins GROOM");
        run(&idaa, &mut s, &["UPDATE H SET V = 30 WHERE K = 3"]);
        assert_eq!(scalar(&idaa, &mut s, "SELECT V FROM H WHERE K = 3"), "30", "{topology:?}");
        assert_eq!(scalar(&idaa, &mut s, "SELECT COUNT(*) FROM T"), "2", "{topology:?}");
    }
}

#[test]
fn a_read_only_unit_of_work_commits_nothing() {
    for topology in TOPOLOGIES {
        let (idaa, mut s) = system(topology);
        let commits = |idaa: &Idaa| {
            let m = idaa.metrics().snapshot();
            let lsn = idaa.host().txns.current_lsn();
            (m.counter("commits.local"), m.counter("commits.twopc"), lsn)
        };
        let before = commits(&idaa);
        for _ in 0..5 {
            assert_eq!(scalar(&idaa, &mut s, "SELECT COUNT(*) FROM H"), "4");
        }
        assert_eq!(commits(&idaa), before, "{topology:?}: autocommit SELECTs");
        run(&idaa, &mut s, &["BEGIN", "SELECT COUNT(*) FROM H", "COMMIT"]);
        assert_eq!(commits(&idaa), before, "{topology:?}: BEGIN; SELECT; COMMIT");
        // A unit that wrote still commits.
        run(&idaa, &mut s, &["UPDATE H SET V = 40 WHERE K = 4"]);
        let (local, twopc, lsn) = commits(&idaa);
        assert_eq!((local, twopc), (before.0 + 1, before.1), "{topology:?}");
        assert!(lsn > before.2, "{topology:?}");
    }
}
