//! Cross-system transaction semantics: the paper's §2 requirement that
//! with AOTs "IDAA has to be aware of the DB2 transaction context so that
//! correct results are guaranteed" — own-uncommitted visibility, snapshot
//! isolation between sessions, atomic commit/rollback across both engines,
//! two-phase-commit failure handling, and lock behavior on the host.

use idaa::accel::Snapshot;
use idaa::core::fleet::shard_of;
use idaa::{sites, FleetConfig, Idaa, IdaaConfig, SitePlan, Value, SYSADM};
use std::sync::atomic::Ordering;
use std::time::Duration;

fn system() -> Idaa {
    Idaa::default()
}

/// BEGIN a transaction writing one row to a host table and one to an AOT,
/// leaving it open so the test can fail the COMMIT protocol.
fn open_mixed_txn(idaa: &Idaa) -> idaa::Session {
    let mut s = idaa.session(SYSADM);
    idaa.execute(&mut s, "CREATE TABLE H (X INT)").unwrap();
    idaa.execute(&mut s, "CREATE TABLE A (X INT) IN ACCELERATOR").unwrap();
    idaa.execute(&mut s, "BEGIN").unwrap();
    idaa.execute(&mut s, "INSERT INTO H VALUES (1)").unwrap();
    idaa.execute(&mut s, "INSERT INTO A VALUES (1)").unwrap();
    s
}

fn count(idaa: &Idaa, s: &mut idaa::Session, table: &str) -> i64 {
    match idaa.query(s, &format!("SELECT COUNT(*) FROM {table}")).unwrap().scalar().unwrap() {
        Value::BigInt(n) => *n,
        other => panic!("expected BIGINT count, got {other:?}"),
    }
}

#[test]
fn own_uncommitted_changes_visible_only_to_self() {
    let idaa = system();
    let mut writer = idaa.session(SYSADM);
    let mut reader = idaa.session(SYSADM);
    idaa.execute(&mut writer, "CREATE TABLE T (X INT) IN ACCELERATOR").unwrap();
    idaa.execute(&mut writer, "BEGIN").unwrap();
    idaa.execute(&mut writer, "INSERT INTO T VALUES (1), (2), (3)").unwrap();
    idaa.execute(&mut writer, "DELETE FROM T WHERE X = 2").unwrap();

    let mine = idaa.query(&mut writer, "SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(mine.scalar().unwrap(), &Value::BigInt(2));
    let theirs = idaa.query(&mut reader, "SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(theirs.scalar().unwrap(), &Value::BigInt(0));

    idaa.execute(&mut writer, "COMMIT").unwrap();
    let after = idaa.query(&mut reader, "SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(after.scalar().unwrap(), &Value::BigInt(2));
}

#[test]
fn snapshot_isolation_within_reader_transaction() {
    let idaa = system();
    let mut writer = idaa.session(SYSADM);
    let mut reader = idaa.session(SYSADM);
    idaa.execute(&mut writer, "CREATE TABLE T (X INT) IN ACCELERATOR").unwrap();
    idaa.execute(&mut writer, "INSERT INTO T VALUES (1)").unwrap();

    // The reader opens a transaction, which takes its snapshot, and writes
    // a row of its own.
    idaa.execute(&mut reader, "BEGIN").unwrap();
    idaa.execute(&mut reader, "INSERT INTO T VALUES (100)").unwrap();
    let c1 = idaa.query(&mut reader, "SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(c1.scalar().unwrap(), &Value::BigInt(2)); // 1 committed + own

    // A concurrent commit must stay invisible to the reader's snapshot.
    idaa.execute(&mut writer, "INSERT INTO T VALUES (2)").unwrap();
    let c2 = idaa.query(&mut reader, "SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(c2.scalar().unwrap(), &Value::BigInt(2), "snapshot must not move");

    idaa.execute(&mut reader, "COMMIT").unwrap();
    let c3 = idaa.query(&mut reader, "SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(c3.scalar().unwrap(), &Value::BigInt(3));
}

#[test]
fn dirty_reads_never_happen_across_engines() {
    let idaa = system();
    let mut a = idaa.session(SYSADM);
    let mut b = idaa.session(SYSADM);
    idaa.execute(&mut a, "CREATE TABLE HOSTT (X INT)").unwrap();
    idaa.execute(&mut a, "CREATE TABLE AOTT (X INT) IN ACCELERATOR").unwrap();
    idaa.execute(&mut a, "BEGIN").unwrap();
    idaa.execute(&mut a, "INSERT INTO AOTT VALUES (1)").unwrap();
    // The AOT write is invisible to b.
    let r = idaa.query(&mut b, "SELECT COUNT(*) FROM aott").unwrap();
    assert_eq!(r.scalar().unwrap(), &Value::BigInt(0));
    idaa.execute(&mut a, "ROLLBACK").unwrap();
    let r = idaa.query(&mut b, "SELECT COUNT(*) FROM aott").unwrap();
    assert_eq!(r.scalar().unwrap(), &Value::BigInt(0));
}

#[test]
fn write_write_conflict_on_aot_is_detected() {
    let idaa = system();
    let mut a = idaa.session(SYSADM);
    let mut b = idaa.session(SYSADM);
    idaa.execute(&mut a, "CREATE TABLE C (X INT) IN ACCELERATOR").unwrap();
    idaa.execute(&mut a, "INSERT INTO C VALUES (1)").unwrap();
    idaa.execute(&mut a, "BEGIN").unwrap();
    idaa.execute(&mut b, "BEGIN").unwrap();
    idaa.execute(&mut a, "DELETE FROM C WHERE X = 1").unwrap();
    // First-updater-wins: b's delete of the same version fails.
    let err = idaa.execute(&mut b, "DELETE FROM C WHERE X = 1");
    // b's snapshot still sees the row, so it attempts the delete and hits
    // the conflict.
    assert!(err.is_err(), "expected write-write conflict");
    idaa.execute(&mut a, "COMMIT").unwrap();
    idaa.execute(&mut b, "ROLLBACK").unwrap();
    let mut c = idaa.session(SYSADM);
    let r = idaa.query(&mut c, "SELECT COUNT(*) FROM c").unwrap();
    assert_eq!(r.scalar().unwrap(), &Value::BigInt(0));
}

#[test]
fn two_phase_commit_failure_is_atomic_and_recoverable() {
    let idaa = system();
    let mut s = idaa.session(SYSADM);
    idaa.execute(&mut s, "CREATE TABLE H (X INT)").unwrap();
    idaa.execute(&mut s, "CREATE TABLE A (X INT) IN ACCELERATOR").unwrap();

    // Failed 2PC leaves both sides clean…
    idaa.execute(&mut s, "BEGIN").unwrap();
    idaa.execute(&mut s, "INSERT INTO H VALUES (1)").unwrap();
    idaa.execute(&mut s, "INSERT INTO A VALUES (1)").unwrap();
    idaa.faults.registry.arm(idaa_netsim::sites::PREPARE_VOTE_NO, 0, 1);
    assert!(idaa.execute(&mut s, "COMMIT").is_err());
    assert_eq!(
        idaa.query(&mut s, "SELECT COUNT(*) FROM h").unwrap().scalar().unwrap(),
        &Value::BigInt(0)
    );
    assert_eq!(
        idaa.query(&mut s, "SELECT COUNT(*) FROM a").unwrap().scalar().unwrap(),
        &Value::BigInt(0)
    );

    // …and the session keeps working afterwards.
    idaa.execute(&mut s, "BEGIN").unwrap();
    idaa.execute(&mut s, "INSERT INTO H VALUES (2)").unwrap();
    idaa.execute(&mut s, "INSERT INTO A VALUES (2)").unwrap();
    idaa.execute(&mut s, "COMMIT").unwrap();
    assert_eq!(
        idaa.query(&mut s, "SELECT COUNT(*) FROM h").unwrap().scalar().unwrap(),
        &Value::BigInt(1)
    );
    assert_eq!(
        idaa.query(&mut s, "SELECT COUNT(*) FROM a").unwrap().scalar().unwrap(),
        &Value::BigInt(1)
    );
}

#[test]
fn concurrent_sessions_parallel_aot_inserts() {
    let idaa = std::sync::Arc::new(system());
    let mut s = idaa.session(SYSADM);
    idaa.execute(&mut s, "CREATE TABLE P (T INT, X INT) IN ACCELERATOR").unwrap();
    let threads: Vec<_> = (0..4)
        .map(|t| {
            let idaa = std::sync::Arc::clone(&idaa);
            std::thread::spawn(move || {
                let mut sess = idaa.session(SYSADM);
                for i in 0..50 {
                    idaa.execute(&mut sess, &format!("INSERT INTO P VALUES ({t}, {i})"))
                        .unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let r = idaa.query(&mut s, "SELECT COUNT(*), COUNT(DISTINCT t) FROM p").unwrap();
    assert_eq!(r.rows[0][0], Value::BigInt(200));
    assert_eq!(r.rows[0][1], Value::BigInt(4));
}

#[test]
fn host_lock_timeout_surfaces_as_minus_913() {
    let idaa = system();
    let mut a = idaa.session(SYSADM);
    idaa.execute(&mut a, "CREATE TABLE L (X INT)").unwrap();
    idaa.execute(&mut a, "BEGIN").unwrap();
    idaa.execute(&mut a, "INSERT INTO L VALUES (1)").unwrap(); // X lock held
    let idaa_ref = &idaa;
    std::thread::scope(|scope| {
        let h = scope.spawn(move || {
            let mut b = idaa_ref.session(SYSADM);
            idaa_ref.execute(&mut b, "SELECT COUNT(*) FROM l")
        });
        let err = h.join().unwrap().unwrap_err();
        assert_eq!(err.sqlcode(), -913);
    });
    idaa.execute(&mut a, "COMMIT").unwrap();
}

#[test]
fn autocommit_failure_of_multirow_aot_insert_is_atomic() {
    let idaa = system();
    let mut s = idaa.session(SYSADM);
    idaa.execute(&mut s, "CREATE TABLE NN (X INT NOT NULL) IN ACCELERATOR").unwrap();
    let err = idaa.execute(&mut s, "INSERT INTO NN VALUES (1), (NULL), (3)");
    assert!(err.is_err());
    let r = idaa.query(&mut s, "SELECT COUNT(*) FROM nn").unwrap();
    assert_eq!(r.scalar().unwrap(), &Value::BigInt(0));
}

#[test]
fn commit_without_begin_is_noop_and_begin_twice_errors() {
    let idaa = system();
    let mut s = idaa.session(SYSADM);
    idaa.execute(&mut s, "COMMIT").unwrap();
    idaa.execute(&mut s, "ROLLBACK").unwrap();
    idaa.execute(&mut s, "BEGIN").unwrap();
    let err = idaa.execute(&mut s, "BEGIN").unwrap_err();
    assert_eq!(err.kind(), "transaction_state");
    idaa.execute(&mut s, "COMMIT").unwrap();
}

#[test]
fn replication_waits_for_commit_lock_release() {
    // A committed host transaction must be fully visible on the accelerator
    // replica immediately after COMMIT (auto-replicate drains the log).
    let idaa = system();
    let mut s = idaa.session(SYSADM);
    idaa.execute(&mut s, "CREATE TABLE R (X INT)").unwrap();
    idaa.execute(&mut s, "CALL ACCEL_ADD_TABLES('R')").unwrap();
    idaa.execute(&mut s, "CALL ACCEL_LOAD_TABLES('R')").unwrap();
    idaa.execute(&mut s, "BEGIN").unwrap();
    for i in 0..20 {
        idaa.execute(&mut s, &format!("INSERT INTO R VALUES ({i})")).unwrap();
    }
    // Not replicated yet (uncommitted).
    assert_eq!(idaa.accel().scan_at(Snapshot::latest(0), &idaa::ObjectName::bare("R")).unwrap().len(), 0);
    idaa.execute(&mut s, "COMMIT").unwrap();
    assert_eq!(idaa.accel().scan_at(Snapshot::latest(0), &idaa::ObjectName::bare("R")).unwrap().len(), 20);
}

#[test]
fn undeliverable_prepare_rolls_back_everywhere() {
    // Link-level generalization of the vote-NO case: the PREPARE request
    // itself never arrives (all retries fail), so the participant never
    // voted — presumed abort on both sides.
    let idaa = system();
    let mut s = open_mixed_txn(&idaa);
    idaa.faults.registry.arm(sites::LINK_TRANSFER, 0, 4); // all 4 delivery attempts
    let err = idaa.execute(&mut s, "COMMIT").unwrap_err();
    assert_eq!(err.sqlcode(), -926);
    assert_eq!(count(&idaa, &mut s, "h"), 0);
    assert_eq!(count(&idaa, &mut s, "a"), 0);
    // The session keeps working afterwards.
    idaa.execute(&mut s, "INSERT INTO A VALUES (2)").unwrap();
    assert_eq!(count(&idaa, &mut s, "a"), 1);
}

#[test]
fn lost_vote_leaves_in_doubt_transaction_that_the_resolver_commits() {
    // The accelerator prepared, but its YES vote is lost: the transaction
    // is in-doubt. The resolver's status inquiry succeeds, so the commit
    // goes through — exactly once, on both sides.
    let idaa = system();
    let mut s = open_mixed_txn(&idaa);
    // COMMIT ships: PREPARE →accel (1 transfer), vote →host (fails ×4),
    // then the resolver re-runs the inquiry on a healed link.
    idaa.faults.registry.arm(sites::LINK_TRANSFER, 1, 4);
    idaa.execute(&mut s, "COMMIT").unwrap();
    assert_eq!(idaa.in_doubt_resolved(), 1);
    assert_eq!(count(&idaa, &mut s, "h"), 1);
    assert_eq!(count(&idaa, &mut s, "a"), 1);
    let mut other = idaa.session(SYSADM);
    assert_eq!(count(&idaa, &mut other, "a"), 1, "commit visible to other sessions");
}

#[test]
fn unresolvable_in_doubt_transaction_rolls_back_everywhere() {
    // Vote lost AND the resolver cannot reach the participant either:
    // presumed abort, both sides clean.
    let idaa = system();
    let mut s = open_mixed_txn(&idaa);
    // vote ×4 + resolver inquiry →accel ×4 all fail.
    idaa.faults.registry.arm(sites::LINK_TRANSFER, 1, 8);
    let err = idaa.execute(&mut s, "COMMIT").unwrap_err();
    assert_eq!(err.sqlcode(), -926);
    assert_eq!(idaa.in_doubt_resolved(), 0);
    assert_eq!(count(&idaa, &mut s, "h"), 0);
    assert_eq!(count(&idaa, &mut s, "a"), 0);
}

#[test]
fn lost_phase_two_commit_is_queued_and_redelivered() {
    // Both participants voted YES and the coordinator committed; the
    // decision is queued for the accelerator's next message, and every
    // attempt of that message is lost. The accelerator holds the
    // transaction prepared until redelivery, and no snapshot taken after
    // the COMMIT reads it there before: a read carries the decision, or
    // fails.
    let idaa = Idaa::new(IdaaConfig { auto_replicate: false, ..IdaaConfig::default() });
    let mut s = open_mixed_txn(&idaa);
    // PREPARE (1) and vote (2) deliver; the next message →accel fails ×4.
    idaa.faults.registry.arm(sites::LINK_TRANSFER, 2, 4);
    idaa.execute(&mut s, "COMMIT").unwrap(); // coordinator decision is durable
    assert_eq!(idaa.pending_accel_commits(), 1);
    assert_eq!(count(&idaa, &mut s, "h"), 1);
    let mut other = idaa.session(SYSADM);
    match idaa.query(&mut other, "SELECT COUNT(*) FROM a") {
        Ok(rows) => assert_eq!(rows.scalar().unwrap(), &Value::BigInt(1), "COMMIT returned"),
        Err(e) => assert!(matches!(e.sqlcode(), -904 | -30081), "{e}"),
    }
    assert_eq!(idaa.pending_accel_commits(), 1, "a lost carrier leaves the decision queued");
    // Recovery redelivers the queued decision.
    assert!(idaa.recover());
    assert_eq!(idaa.pending_accel_commits(), 0);
    assert_eq!(count(&idaa, &mut other, "a"), 1);
}

// ---------------------------------------------------------------------------
// An autocommit AOT write's early vote
//
// The write's last request to each node carries PREPARE and its ack carries
// the vote, so the fault windows of phase 1 move into the statement's own
// exchange. Each case runs at one node and at three nodes with four shards
// of two copies, where node 2 owns shards 1 and 2 of `T` and node 0 owns
// shards 0, 2 and 3; an `UPDATE` of every row sends one request and one
// ack per owned shard, in shard order, and leaves DB2's decision queued on
// each node for its next message.

/// One node, and three nodes with four shards of two copies.
const TOPOLOGIES: [(usize, usize, usize); 2] = [(1, 1, 1), (3, 4, 2)];

/// `T(K, V)` hashed on K, holding (1, 1) to (8, 8), at `topology`.
fn aot_system(topology: (usize, usize, usize), config: IdaaConfig) -> Idaa {
    let (accelerators, shards, replication_factor) = topology;
    let fleet = FleetConfig { accelerators, shards, replication_factor };
    let idaa = Idaa::new(IdaaConfig { fleet, ..config });
    let mut s = idaa.session(SYSADM);
    idaa.execute(&mut s, "CREATE TABLE T (K INT NOT NULL, V INT) IN ACCELERATOR DISTRIBUTE BY HASH(K)").unwrap();
    let rows: Vec<String> = (1..=8).map(|k| format!("({k}, {k})")).collect();
    idaa.execute(&mut s, &format!("INSERT INTO T VALUES {}", rows.join(", "))).unwrap();
    idaa
}

/// `SUM(V)` of `T`, read by a fresh session.
fn sum_v(idaa: &Idaa) -> i64 {
    match idaa.query(&mut idaa.session(SYSADM), "SELECT SUM(V) FROM T").unwrap().scalar().unwrap() {
        Value::BigInt(n) => *n,
        other => panic!("expected BIGINT sum, got {other:?}"),
    }
}

/// No node holds an undecided transaction: every participant decided.
fn assert_all_decided(idaa: &Idaa, nodes: usize) {
    for n in 0..nodes {
        let engine = idaa.node_engine(n);
        assert!(engine.in_doubt().is_empty(), "node {n} holds a prepared transaction");
        assert!(!engine.table_names().iter().any(|t| engine.undecided_on(t)), "node {n} holds an open write");
    }
}

#[test]
fn a_lost_ack_carrying_the_vote_is_redelivered_applied_once_and_committed() {
    // The ack of the write's last request to the node (node 0's only
    // exchange, node 2's shard-2 exchange) is lost once: the request is
    // redelivered under the same sequence number, deduplicated, and the
    // resent ack brings the vote.
    for (topology, (node, ack)) in TOPOLOGIES.into_iter().zip([(0, 1), (2, 3)]) {
        let idaa = aot_system(topology, IdaaConfig::default());
        let mut s = idaa.session(SYSADM);
        idaa.node_registry(node).arm(sites::LINK_TRANSFER, ack, 1);
        assert_eq!(idaa.execute(&mut s, "UPDATE T SET V = V + 1").unwrap().count(), 8, "{topology:?}");
        assert_eq!(idaa.statements_deduped(), 1, "{topology:?}");
        assert_eq!(sum_v(&idaa), 36 + 8, "{topology:?}: applied once and committed");
        assert_eq!(idaa.metrics().counter("twopc.in_doubt_resolved"), 0, "{topology:?}: no inquiry");
        assert_all_decided(&idaa, topology.0);
    }
}

#[test]
fn a_no_vote_on_an_autocommit_aot_write_rolls_back_everywhere() {
    for topology in TOPOLOGIES {
        let idaa = aot_system(topology, IdaaConfig::default());
        let mut s = idaa.session(SYSADM);
        idaa.faults.registry.arm(sites::PREPARE_VOTE_NO, 0, 1);
        let err = idaa.execute(&mut s, "UPDATE T SET V = 0").unwrap_err();
        assert_eq!(err.sqlcode(), -926, "{topology:?}: {err}");
        assert_all_decided(&idaa, topology.0);
        assert_eq!(sum_v(&idaa), 36, "{topology:?}");
    }
}

#[test]
fn a_crash_after_an_early_prepare_rolls_back_everywhere_and_misses_no_write() {
    // The node crashes right after logging the PREPARE its last request
    // carried. That is a failed vote, not an owner that missed the write:
    // COMMIT fails -926 (not -904 for a crashed participant), every other
    // participant aborts, the node is flagged for no catch-up, and its
    // restart presumes abort for the re-materialized transaction.
    for (topology, node) in TOPOLOGIES.into_iter().zip([0, 2]) {
        let idaa = aot_system(topology, IdaaConfig::default());
        let mut s = idaa.session(SYSADM);
        idaa.node_registry(node).arm(sites::POST_PREPARE, 0, 1);
        let err = idaa.execute(&mut s, "UPDATE T SET V = 0").unwrap_err();
        assert_eq!(err.sqlcode(), -926, "{topology:?}: {err}");
        assert!(idaa.node_engine(node).is_crashed(), "{topology:?}");
        assert!(idaa.recover_node(node), "{topology:?}");
        assert_eq!(idaa.fleet_catch_up_bytes(), 0, "{topology:?}: the node missed no write");
        assert_all_decided(&idaa, topology.0);
        assert_eq!(sum_v(&idaa), 36, "{topology:?}");
    }
}

#[test]
fn a_lost_commit_after_an_early_vote_stays_queued_until_redelivered() {
    // The UPDATE's decision waits on `node` for its next message: the
    // request of a read it serves (all of `T` at one node, shard 2 at three
    // nodes), every attempt of which is lost. The read fails (-30081) or
    // fails over, and the node holds the transaction prepared. The next
    // read it serves (shard 2 back on its preferred owner after the
    // rebalance delay) carries the decision once: its request is 32 B
    // longer than the one after it.
    for (topology, node) in TOPOLOGIES.into_iter().zip([0, 2]) {
        let idaa = aot_system(topology, IdaaConfig { auto_replicate: false, ..IdaaConfig::default() });
        let mut s = idaa.session(SYSADM);
        idaa.execute(&mut s, "UPDATE T SET V = V + 1").unwrap();
        idaa.node_registry(node).arm(sites::LINK_TRANSFER, 0, 4);
        match idaa.query(&mut s, "SELECT SUM(V) FROM T") {
            Ok(sum) => assert_eq!(sum.scalar().unwrap(), &Value::BigInt(44), "{topology:?}"),
            Err(e) => assert_eq!(e.sqlcode(), -30081, "{topology:?}: {e}"),
        }
        assert_eq!(idaa.node_engine(node).in_doubt().len(), 1, "{topology:?}: held prepared");
        idaa.link().advance(Duration::from_millis(25));
        let read = || {
            let before = idaa.node_link(node).metrics().bytes_to_accel;
            assert_eq!(sum_v(&idaa), 36 + 8, "{topology:?}");
            idaa.node_link(node).metrics().bytes_to_accel - before
        };
        let (carrying, next) = (read(), read());
        assert_eq!(carrying, next + 32, "{topology:?}: the decision rides one request");
        assert_eq!(idaa.metrics().counter("twopc.decisions_alone"), 0, "{topology:?}");
        assert_all_decided(&idaa, topology.0);
    }
}

// ---------------------------------------------------------------------------
// DB2's COMMIT decision rides the node's next message
//
// When DB2 commits, each participant's decision is queued and rides the
// next message sent to that node, adding its 32 B; the node applies it on
// delivery, before the message's own work. A lost message keeps it queued.

/// `sql`'s rows, and the messages and bytes it put on every node's link.
fn measured(idaa: &Idaa, s: &mut idaa::Session, sql: &str) -> (Vec<idaa::Row>, (u64, u64)) {
    let before = idaa.fleet_link_metrics();
    let out = idaa.execute(s, sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    let moved = idaa.fleet_link_metrics().since(&before);
    (out.rows().map(|r| r.rows.clone()).unwrap_or_default(), (moved.total_messages(), moved.total_bytes()))
}

#[test]
fn an_autocommit_aot_insert_is_one_exchange_and_the_next_read_carries_its_decision() {
    // The row (9, 9) lands on one shard: one request and one ack per owner
    // (one owner at one node, two at three). The next read's requests reach
    // both owners and carry their decisions, and the read sees the row.
    for (topology, owners) in TOPOLOGIES.into_iter().zip([1, 2]) {
        let idaa = aot_system(topology, IdaaConfig::default());
        let mut s = idaa.session(SYSADM);
        let count = "SELECT COUNT(*) FROM T";
        measured(&idaa, &mut s, count);
        let (_, insert) = measured(&idaa, &mut s, "INSERT INTO T VALUES (9, 9)");
        assert_eq!(insert.0, 2 * owners, "{topology:?}: one exchange per owner");
        let (rows, carrying) = measured(&idaa, &mut s, count);
        assert_eq!(rows, vec![vec![Value::BigInt(9)]], "{topology:?}");
        let (_, plain) = measured(&idaa, &mut s, count);
        assert_eq!(carrying, (plain.0, plain.1 + 32 * owners), "{topology:?}: +32 B per decision");
        assert_eq!(idaa.metrics().counter("twopc.decisions_alone"), 0, "{topology:?}");
    }
}

#[test]
fn a_failover_read_carries_the_secondary_owners_decision() {
    // The row's shard has two owners. The first, cut off, crashes before
    // any message carries its decision, so the read fails over to the
    // second, whose request carries that owner's decision. One shard on two
    // nodes stands in for one node, which has no owner to fail over to.
    for topology in [(2, 1, 2), (3, 4, 2)] {
        let idaa = aot_system(topology, IdaaConfig::default());
        let mut s = idaa.session(SYSADM);
        let count = "SELECT COUNT(*) FROM T";
        measured(&idaa, &mut s, count);
        idaa.execute(&mut s, "INSERT INTO T VALUES (9, 9)").unwrap();
        let shard = shard_of(&Value::Int(9), topology.1);
        let (first, second) = (shard % topology.0, (shard + 1) % topology.0);
        idaa.node_engine(first).crash();
        idaa.node_registry(first).arm(sites::LINK_TRANSFER, 0, u64::MAX);
        assert_eq!(idaa.node_engine(second).in_doubt().len(), 1, "{topology:?}: held prepared");
        let (rows, _) = measured(&idaa, &mut s, count);
        assert_eq!(rows, vec![vec![Value::BigInt(9)]], "{topology:?}");
        assert!(idaa.fleet_failovers() >= 1, "{topology:?}");
        assert!(idaa.node_engine(second).in_doubt().is_empty(), "{topology:?}: the request carried it");
        assert_eq!(idaa.metrics().counter("twopc.decisions_alone"), 0, "{topology:?}");
    }
}

#[test]
fn a_second_sessions_update_right_after_an_autocommit_update_is_not_refused() {
    // A row version an undecided transaction wrote is not B's to update
    // (without A's decision, B's UPDATE changes no row); B's request
    // carries A's decision and applies it before B's UPDATE runs.
    for topology in TOPOLOGIES {
        let idaa = aot_system(topology, IdaaConfig::default());
        let (mut a, mut b) = (idaa.session(SYSADM), idaa.session(SYSADM));
        idaa.execute(&mut a, "UPDATE T SET V = 100 WHERE K = 1").unwrap();
        let updated = idaa.execute(&mut b, "UPDATE T SET V = V + 1 WHERE K = 1");
        assert_eq!(updated.unwrap_or_else(|e| panic!("{topology:?}: {e}")).count(), 1, "{topology:?}");
        assert_eq!(sum_v(&idaa), 36 - 1 + 101, "{topology:?}");
        assert_all_decided(&idaa, topology.0);
    }
}

// ---------------------------------------------------------------------------
// One exchange per statement
//
// A statement's request is sent with its own retries; only a lost reply
// redelivers it, under the same sequence number, and the receiver
// deduplicates the redelivery. At (3, 4, 2) node 2 serves only shard 2 of a
// read of `T`, and a row's first owner is its shard modulo three.

#[test]
fn a_select_outlasts_three_lost_requests_and_then_three_lost_replies() {
    // The serving node's link loses the request's first three attempts
    // (hits 1 to 3; the fourth delivers it), then the reply to each of the
    // first three deliveries (hits 5, 7 and 9).
    for (topology, node) in TOPOLOGIES.into_iter().zip([0, 2]) {
        let idaa = aot_system(topology, IdaaConfig::default());
        let mut lost = SitePlan::default();
        for hit in [1, 2, 3, 5, 7, 9] {
            lost = lost.and_at(sites::LINK_TRANSFER, hit);
        }
        idaa.set_fault_plan_on(node, lost);
        let mut s = idaa.session(SYSADM);
        let rows = idaa.query(&mut s, "SELECT COUNT(*) FROM T");
        let rows = rows.unwrap_or_else(|e| panic!("{topology:?}: {e}"));
        assert_eq!(rows.scalar().unwrap(), &Value::BigInt(8), "{topology:?}");
        assert_eq!(idaa.statements_deduped(), 3, "{topology:?}");
        assert_eq!(idaa.metrics().counter("fleet.failovers"), 0, "{topology:?}: served where it was sent");
    }
}

#[test]
fn a_lost_insert_ack_redelivers_the_frame_and_applies_the_row_once() {
    // The row's first owner takes its frame (hit 1) and loses its ack (hit
    // 2), which carries the vote: the frame is redelivered and deduplicated.
    for topology in TOPOLOGIES {
        let idaa = aot_system(topology, IdaaConfig::default());
        let node = shard_of(&Value::Int(9), topology.1) % topology.0;
        idaa.node_registry(node).arm(sites::LINK_TRANSFER, 1, 1);
        let mut s = idaa.session(SYSADM);
        let inserted = idaa.execute(&mut s, "INSERT INTO T VALUES (9, 9)").unwrap();
        assert_eq!(inserted.count(), 1, "{topology:?}");
        assert_eq!(idaa.statements_deduped(), 1, "{topology:?}");
        assert_eq!(sum_v(&idaa), 36 + 9, "{topology:?}: applied once and committed");
        assert_all_decided(&idaa, topology.0);
    }
}

// ---------------------------------------------------------------------------
// Isolation-anomaly battery against AOTs
//
// Snapshot isolation forbids dirty reads, non-repeatable reads, lost
// updates, and phantoms — and (unlike serializability) permits write skew.
// A transaction reads at one snapshot, DB2's commit LSN at its first
// statement, whether it writes or not. Each probe checks the trace to prove
// the probed reads really ran on the accelerator.
// ---------------------------------------------------------------------------

/// The last trace for `needle` must show an accelerator-routed statement.
fn assert_ran_on_accel(idaa: &Idaa, needle: &str) {
    let trace = idaa
        .tracer()
        .last_containing(needle)
        .unwrap_or_else(|| panic!("no trace for {needle}"));
    trace.root.validate().unwrap();
    assert_eq!(
        trace.root.attr("route"),
        Some("Accelerator"),
        "probe must execute on the accelerator: {}",
        trace.root.render()
    );
}

/// An AOT `ACCOUNTS` table with two committed rows.
fn anomaly_setup(idaa: &Idaa) -> idaa::Session {
    let mut s = idaa.session(SYSADM);
    idaa.execute(&mut s, "CREATE TABLE ACCOUNTS (ID INT, BAL INT) IN ACCELERATOR").unwrap();
    idaa.execute(&mut s, "INSERT INTO ACCOUNTS VALUES (1, 50), (2, 50)").unwrap();
    s
}

fn balance(idaa: &Idaa, s: &mut idaa::Session, id: i32) -> i64 {
    idaa.query(s, &format!("SELECT bal FROM accounts WHERE id = {id}"))
        .unwrap()
        .scalar()
        .unwrap()
        .as_i64()
        .unwrap()
}

#[test]
fn anomaly_non_repeatable_read_prevented() {
    let idaa = system();
    let mut writer = anomaly_setup(&idaa);
    let mut reader = idaa.session(SYSADM);
    idaa.execute(&mut reader, "BEGIN").unwrap();
    let first = balance(&idaa, &mut reader, 1);
    assert_eq!(first, 50);
    // A concurrent committed update must not change what the reader's
    // transaction re-reads.
    idaa.execute(&mut writer, "UPDATE ACCOUNTS SET BAL = 99 WHERE ID = 1").unwrap();
    let second = balance(&idaa, &mut reader, 1);
    assert_eq!(second, first, "read must repeat under snapshot isolation");
    assert_ran_on_accel(&idaa, "SELECT BAL FROM ACCOUNTS");
    idaa.execute(&mut reader, "COMMIT").unwrap();
    // After commit the new value is visible.
    assert_eq!(balance(&idaa, &mut reader, 1), 99);
}

#[test]
fn anomaly_lost_update_rejected() {
    let idaa = system();
    let _admin = anomaly_setup(&idaa);
    let mut a = idaa.session(SYSADM);
    let mut b = idaa.session(SYSADM);
    idaa.execute(&mut a, "BEGIN").unwrap();
    idaa.execute(&mut b, "BEGIN").unwrap();
    // Both read the same balance, then both try read-modify-write.
    assert_eq!(balance(&idaa, &mut a, 1), 50);
    assert_eq!(balance(&idaa, &mut b, 1), 50);
    idaa.execute(&mut a, "UPDATE ACCOUNTS SET BAL = BAL + 10 WHERE ID = 1").unwrap();
    // First-updater-wins: b's update of the same version must fail, not
    // silently overwrite a's increment after both commit.
    let err = idaa.execute(&mut b, "UPDATE ACCOUNTS SET BAL = BAL + 25 WHERE ID = 1").unwrap_err();
    assert_eq!(err.sqlcode(), -913);
    assert_ran_on_accel(&idaa, "(BAL + 10)");
    // The rejected statement still reached the accelerator — its trace
    // shows the shipped request and the conflict SQLCODE.
    let rejected = idaa.tracer().last_containing("(BAL + 25)").unwrap();
    assert_eq!(rejected.root.attr("sqlcode"), Some("-913"));
    assert!(
        rejected.root.find_all("transfer").iter().any(|t| t.attr("dir") == Some("to_accel")),
        "{}",
        rejected.root.render()
    );
    idaa.execute(&mut a, "COMMIT").unwrap();
    idaa.execute(&mut b, "ROLLBACK").unwrap();
    let mut check = idaa.session(SYSADM);
    assert_eq!(balance(&idaa, &mut check, 1), 60, "exactly one increment applied");
}

#[test]
fn anomaly_phantom_prevented() {
    let idaa = system();
    let mut writer = anomaly_setup(&idaa);
    let mut reader = idaa.session(SYSADM);
    idaa.execute(&mut reader, "BEGIN").unwrap();
    let probe = "SELECT COUNT(*) FROM accounts WHERE bal >= 50";
    let first = idaa.query(&mut reader, probe).unwrap();
    assert_eq!(first.scalar().unwrap(), &Value::BigInt(2));
    // A concurrent commit inserts a row matching the predicate.
    idaa.execute(&mut writer, "INSERT INTO ACCOUNTS VALUES (3, 75)").unwrap();
    let second = idaa.query(&mut reader, probe).unwrap();
    assert_eq!(
        second.scalar().unwrap(),
        &Value::BigInt(2),
        "predicate re-read must not see a phantom"
    );
    assert_ran_on_accel(&idaa, "WHERE (BAL >= 50)");
    idaa.execute(&mut reader, "COMMIT").unwrap();
    let third = idaa.query(&mut reader, probe).unwrap();
    assert_eq!(third.scalar().unwrap(), &Value::BigInt(3));
}

#[test]
fn anomaly_write_skew_permitted_under_si() {
    // The classic SI anomaly: both transactions check SUM(bal) >= 100,
    // each drains a *different* row, and — because their write sets are
    // disjoint — both commit. Snapshot isolation permits this (it is not
    // serializable); the battery documents the boundary rather than
    // pretending the engine is serializable.
    let idaa = system();
    let _admin = anomaly_setup(&idaa);
    let mut a = idaa.session(SYSADM);
    let mut b = idaa.session(SYSADM);
    idaa.execute(&mut a, "BEGIN").unwrap();
    idaa.execute(&mut b, "BEGIN").unwrap();
    let sum = |idaa: &Idaa, s: &mut idaa::Session| {
        idaa.query(s, "SELECT SUM(bal) FROM accounts").unwrap().scalar().unwrap().as_i64().unwrap()
    };
    // Both see the invariant holding (sum = 100) on their snapshots…
    assert_eq!(sum(&idaa, &mut a), 100);
    assert_eq!(sum(&idaa, &mut b), 100);
    // …and each withdraws from its own row. Disjoint write sets: no
    // first-updater conflict fires.
    idaa.execute(&mut a, "UPDATE ACCOUNTS SET BAL = BAL - 50 WHERE ID = 1").unwrap();
    idaa.execute(&mut b, "UPDATE ACCOUNTS SET BAL = BAL - 50 WHERE ID = 2").unwrap();
    assert_ran_on_accel(&idaa, "UPDATE ACCOUNTS");
    idaa.execute(&mut a, "COMMIT").unwrap();
    idaa.execute(&mut b, "COMMIT").unwrap();
    let mut check = idaa.session(SYSADM);
    let total = sum(&idaa, &mut check);
    assert_eq!(total, 0, "write skew drains both rows — SI permits it");
}

#[test]
fn anomaly_dirty_read_prevented_with_trace_evidence() {
    // Dirty-read variant of `dirty_reads_never_happen_across_engines`,
    // with the trace proving the probe executed on the accelerator.
    let idaa = system();
    let mut writer = anomaly_setup(&idaa);
    let mut reader = idaa.session(SYSADM);
    idaa.execute(&mut writer, "BEGIN").unwrap();
    idaa.execute(&mut writer, "UPDATE ACCOUNTS SET BAL = 0 WHERE ID = 1").unwrap();
    // Uncommitted write invisible to the reader.
    assert_eq!(balance(&idaa, &mut reader, 1), 50);
    assert_ran_on_accel(&idaa, "SELECT BAL FROM ACCOUNTS");
    idaa.execute(&mut writer, "ROLLBACK").unwrap();
    assert_eq!(balance(&idaa, &mut reader, 1), 50);
}

#[test]
fn accel_stop_inside_open_transaction_rolls_back_cleanly() {
    // The accelerator is stopped while an explicit transaction has AOT
    // writes in flight: further AOT statements fail with -904, and COMMIT
    // rolls back both participants.
    let idaa = system();
    let mut s = open_mixed_txn(&idaa);
    idaa.faults.accel_unavailable.store(true, Ordering::Relaxed);
    assert_eq!(idaa.execute(&mut s, "INSERT INTO A VALUES (2)").unwrap_err().sqlcode(), -904);
    assert_eq!(idaa.execute(&mut s, "SELECT COUNT(*) FROM a").unwrap_err().sqlcode(), -904);
    assert!(!idaa.recover(), "a stopped accelerator cannot recover by probing");
    let err = idaa.execute(&mut s, "COMMIT").unwrap_err();
    assert_eq!(err.sqlcode(), -904);
    // Back online: both sides are clean and the session keeps working.
    idaa.faults.accel_unavailable.store(false, Ordering::Relaxed);
    assert_eq!(count(&idaa, &mut s, "h"), 0);
    assert_eq!(count(&idaa, &mut s, "a"), 0);
    idaa.execute(&mut s, "BEGIN").unwrap();
    idaa.execute(&mut s, "INSERT INTO H VALUES (2)").unwrap();
    idaa.execute(&mut s, "INSERT INTO A VALUES (2)").unwrap();
    idaa.execute(&mut s, "COMMIT").unwrap();
    assert_eq!(count(&idaa, &mut s, "h"), 1);
    assert_eq!(count(&idaa, &mut s, "a"), 1);
}

// ---------------------------------------------------------------------------
// Isolation-anomaly battery through *server* sessions
//
// The same anomalies, but the two transactions are server seats whose
// statements the deterministic workload scheduler interleaves — nothing is
// hand-driven past the submission order. Each probe proves the scheduler
// preserved snapshot isolation and that the traces carry the queue context.
// ---------------------------------------------------------------------------

/// A server over a fresh federation with the anomaly tables committed.
fn anomaly_server() -> idaa::Server {
    let srv = idaa::Server::with_idaa(Idaa::default(), idaa::ServerConfig::default());
    let idaa = srv.idaa();
    let mut s = idaa.session(SYSADM);
    idaa.execute(&mut s, "CREATE TABLE ACCOUNTS (ID INT, BAL INT) IN ACCELERATOR").unwrap();
    idaa.execute(&mut s, "INSERT INTO ACCOUNTS VALUES (1, 50), (2, 50)").unwrap();
    srv
}

fn seat_balance(srv: &idaa::Server, seat: u64, id: i32) -> i64 {
    srv.query(seat, &format!("SELECT bal FROM accounts WHERE id = {id}"))
        .unwrap()
        .scalar()
        .unwrap()
        .as_i64()
        .unwrap()
}

#[test]
fn server_sessions_dirty_read_prevented() {
    let srv = anomaly_server();
    let writer = srv.connect(SYSADM).unwrap();
    let reader = srv.connect(SYSADM).unwrap();
    srv.execute(writer, "BEGIN").unwrap();
    srv.execute(writer, "UPDATE ACCOUNTS SET BAL = 0 WHERE ID = 1").unwrap();
    // One batch: the scheduler interleaves more uncommitted writer work
    // with the reader's probe of the already-dirty row — whichever the
    // rotation admits first, the probe must not see the dirty value.
    srv.submit(writer, "UPDATE ACCOUNTS SET BAL = 0 WHERE ID = 2").unwrap();
    srv.submit(reader, "SELECT BAL FROM ACCOUNTS WHERE ID = 1").unwrap();
    let done = srv.run_until_idle();
    assert_eq!(done.len(), 2);
    let probe = done
        .iter()
        .find(|c| c.session == reader)
        .unwrap()
        .result
        .as_ref()
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(probe.scalar().unwrap().as_i64().unwrap(), 50, "no dirty read");
    srv.execute(writer, "ROLLBACK").unwrap();
    assert_eq!(seat_balance(&srv, reader, 1), 50);
    // The interleaved probe ran on the accelerator with queue context.
    let trace = srv.idaa().tracer().last_containing("SELECT BAL FROM ACCOUNTS").unwrap();
    assert_eq!(trace.root.attr("route"), Some("Accelerator"));
    let queue = trace.root.find_all("queue");
    assert_eq!(queue.len(), 1, "{}", trace.root.render());
    assert_eq!(queue[0].attr("seat"), Some("2"));
}

#[test]
fn server_sessions_lost_update_rejected() {
    let srv = anomaly_server();
    let a = srv.connect(SYSADM).unwrap();
    let b = srv.connect(SYSADM).unwrap();
    srv.execute(a, "BEGIN").unwrap();
    srv.execute(b, "BEGIN").unwrap();
    assert_eq!(seat_balance(&srv, a, 1), 50);
    assert_eq!(seat_balance(&srv, b, 1), 50);
    // Both read-modify-writes in one scheduler batch: first-updater-wins
    // must reject the second regardless of who submitted first in wall
    // time — admission order decides, deterministically.
    srv.submit(a, "UPDATE ACCOUNTS SET BAL = BAL + 10 WHERE ID = 1").unwrap();
    srv.submit(b, "UPDATE ACCOUNTS SET BAL = BAL + 25 WHERE ID = 1").unwrap();
    let done = srv.run_until_idle();
    assert_eq!(done.len(), 2);
    let winner = done.iter().find(|c| c.result.is_ok()).expect("one update applies");
    let loser = done.iter().find(|c| c.result.is_err()).expect("one update rejected");
    assert_eq!(
        loser.result.as_ref().unwrap_err().sqlcode(),
        -913,
        "second updater loses, never silently overwrites"
    );
    assert!(loser.round >= winner.round, "the earlier-admitted update wins");
    srv.execute(winner.session, "COMMIT").unwrap();
    srv.execute(loser.session, "ROLLBACK").unwrap();
    let check = srv.connect(SYSADM).unwrap();
    let expected = if winner.session == a { 60 } else { 75 };
    assert_eq!(seat_balance(&srv, check, 1), expected, "exactly one increment applied");
    // The workload view reconciles: the loser's seat carries the failure.
    let m = srv.idaa().metrics();
    assert_eq!(m.counter(&format!("server.session.{}.failed", loser.session)), 1);
    assert_eq!(m.counter(&format!("server.session.{}.failed", winner.session)), 0);
}

#[test]
fn server_sessions_write_skew_permitted_under_si() {
    let srv = anomaly_server();
    let a = srv.connect(SYSADM).unwrap();
    let b = srv.connect(SYSADM).unwrap();
    srv.execute(a, "BEGIN").unwrap();
    srv.execute(b, "BEGIN").unwrap();
    let sum = |seat: u64| {
        srv.query(seat, "SELECT SUM(bal) FROM accounts")
            .unwrap()
            .scalar()
            .unwrap()
            .as_i64()
            .unwrap()
    };
    // Both snapshots see the invariant holding…
    assert_eq!(sum(a), 100);
    assert_eq!(sum(b), 100);
    // …and the scheduler interleaves two disjoint-row withdrawals: no
    // first-updater conflict, so snapshot isolation lets both commit.
    srv.submit(a, "UPDATE ACCOUNTS SET BAL = BAL - 50 WHERE ID = 1").unwrap();
    srv.submit(b, "UPDATE ACCOUNTS SET BAL = BAL - 50 WHERE ID = 2").unwrap();
    for c in srv.run_until_idle() {
        c.result.as_ref().unwrap();
    }
    srv.submit(a, "COMMIT").unwrap();
    srv.submit(b, "COMMIT").unwrap();
    for c in srv.run_until_idle() {
        c.result.as_ref().unwrap();
    }
    let check = srv.connect(SYSADM).unwrap();
    assert_eq!(sum(check), 0, "write skew drains both rows — SI permits it");
}

#[test]
fn server_sessions_snapshot_pinned_across_scheduled_batches() {
    // Non-repeatable-read probe where every step flows through the
    // scheduler: the reader's snapshot survives a concurrent
    // committed update executed in a *later* scheduler round.
    let srv = anomaly_server();
    let writer = srv.connect(SYSADM).unwrap();
    let reader = srv.connect(SYSADM).unwrap();
    srv.execute(reader, "BEGIN").unwrap();
    assert_eq!(seat_balance(&srv, reader, 1), 50);
    srv.execute(writer, "UPDATE ACCOUNTS SET BAL = 99 WHERE ID = 1").unwrap();
    assert_eq!(seat_balance(&srv, reader, 1), 50, "read repeats under SI");
    srv.execute(reader, "COMMIT").unwrap();
    assert_eq!(seat_balance(&srv, reader, 1), 99, "post-commit the update is visible");
}
