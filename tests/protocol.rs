//! The link cost of each statement kind: the messages and bytes one
//! statement puts on the links, at one node and at three nodes with four
//! shards and two replicas.
//!
//! A unit of work's control records ride messages its statements send
//! anyway: BEGIN rides a node's first request, and an autocommit write's
//! PREPARE rides its last request to each node, with the vote on the ack.
//! DB2's COMMIT decision rides each participant's next request, whichever
//! statement sends it. Each record still adds its bytes to the message
//! carrying it, so the script moves the bytes it moved when each record was
//! a message of its own, and a decision's bytes move to the statement that
//! carries it. The tables pin messages and bytes, next to the count with a
//! phase-2 COMMIT message of its own and the count with every record
//! standalone (BEGIN, PREPARE, vote and COMMIT one message each).

use idaa::{FleetConfig, Idaa, IdaaConfig, Session, SYSADM};

/// One measured statement: its SQL, its messages, its messages with a
/// phase-2 COMMIT message of its own, its messages with every control
/// record standalone, and its bytes.
type Cost = (&'static str, u64, u64, u64, u64);

/// DB2's `H(K, V)`, accelerated and loaded, and the AOT `T(K, V)` hashed on K.
const SETUP: &[&str] = &[
    "CREATE TABLE H (K INT NOT NULL, V INT)",
    "INSERT INTO H VALUES (1, 1), (2, 2), (3, 3), (4, 4)",
    "CALL SYSPROC.ACCEL_ADD_TABLES('H')",
    "CALL SYSPROC.ACCEL_LOAD_TABLES('H')",
    "CREATE TABLE T (K INT NOT NULL, V INT) IN ACCELERATOR DISTRIBUTE BY HASH(K)",
    "SET CURRENT QUERY ACCELERATION = ELIGIBLE",
];

/// Each statement kind once: autocommit AOT writes, reads, DB2 writes, and
/// explicit transactions that commit and roll back.
const SCRIPT: &[&str] = &[
    "INSERT INTO T VALUES (1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (6, 6), (7, 7), (8, 8)",
    "UPDATE T SET V = V + 1",
    "DELETE FROM T WHERE K = 8",
    "INSERT INTO T SELECT K + 10, V FROM H",
    "SELECT COUNT(*) FROM T",
    "SELECT SUM(V) FROM H",
    "INSERT INTO H VALUES (9, 9)",
    "UPDATE H SET V = 0 WHERE K = 9",
    "BEGIN",
    "INSERT INTO T VALUES (20, 20)",
    "UPDATE T SET V = 0 WHERE K = 20",
    "COMMIT",
    "BEGIN",
    "INSERT INTO H VALUES (10, 10)",
    "DELETE FROM T WHERE K = 20",
    "COMMIT",
    "BEGIN",
    "DELETE FROM T WHERE K = 1",
    "ROLLBACK",
];

/// At one node. An autocommit AOT write is one exchange: its request
/// (carrying BEGIN, PREPARE and the previous statement's decision) and its
/// ack (carrying the vote). An explicit transaction's first AOT statement
/// is its request (carrying BEGIN) and its ack, and its COMMIT is PREPARE
/// and vote, plus a replication round when it changed DB2. A read's request
/// carries the decision the last write left queued (+32 B).
const ONE_NODE: &[Cost] = &[
    ("INSERT INTO T VALUES (1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (6, 6), (7, 7), (8, 8)", 2, 3, 6, 218),
    ("UPDATE T SET V = V + 1", 2, 3, 6, 248),
    ("DELETE FROM T WHERE K = 8", 2, 3, 6, 251),
    ("INSERT INTO T SELECT K + 10, V FROM H", 2, 3, 6, 267),
    ("SELECT COUNT(*) FROM T", 2, 2, 2, 126),
    ("SELECT SUM(V) FROM H", 2, 2, 2, 92),
    ("INSERT INTO H VALUES (9, 9)", 2, 2, 2, 108),
    ("UPDATE H SET V = 0 WHERE K = 9", 2, 2, 2, 110),
    ("BEGIN", 0, 0, 0, 0),
    ("INSERT INTO T VALUES (20, 20)", 2, 2, 3, 140),
    ("UPDATE T SET V = 0 WHERE K = 20", 2, 2, 2, 129),
    ("COMMIT", 2, 3, 3, 64),
    ("BEGIN", 0, 0, 0, 0),
    ("INSERT INTO H VALUES (10, 10)", 0, 0, 0, 0),
    ("DELETE FROM T WHERE K = 20", 2, 2, 3, 188),
    ("COMMIT", 4, 5, 5, 172),
    ("BEGIN", 0, 0, 0, 0),
    ("DELETE FROM T WHERE K = 1", 2, 2, 3, 187),
    ("ROLLBACK", 1, 1, 1, 32),
];

/// At three nodes, four shards, two replicas: each owner of each shard
/// takes a request and an ack, each enlisted node's first request carries
/// its BEGIN, and in autocommit its last request its PREPARE; each
/// participant's next request carries DB2's decision; a read of a
/// replicated table runs whole on one node.
const FLEET: &[Cost] = &[
    ("INSERT INTO T VALUES (1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (6, 6), (7, 7), (8, 8)", 16, 19, 28, 1168),
    ("UPDATE T SET V = V + 1", 16, 19, 28, 1344),
    ("DELETE FROM T WHERE K = 8", 16, 19, 28, 1368),
    ("INSERT INTO T SELECT K + 10, V FROM H", 18, 21, 30, 1355),
    ("SELECT COUNT(*) FROM T", 8, 8, 8, 524),
    ("SELECT SUM(V) FROM H", 2, 2, 2, 92),
    ("INSERT INTO H VALUES (9, 9)", 6, 6, 6, 324),
    ("UPDATE H SET V = 0 WHERE K = 9", 6, 6, 6, 330),
    ("BEGIN", 0, 0, 0, 0),
    ("INSERT INTO T VALUES (20, 20)", 4, 4, 6, 280),
    ("UPDATE T SET V = 0 WHERE K = 20", 16, 16, 17, 1064),
    ("COMMIT", 6, 9, 9, 192),
    ("BEGIN", 0, 0, 0, 0),
    ("INSERT INTO H VALUES (10, 10)", 0, 0, 0, 0),
    ("DELETE FROM T WHERE K = 20", 16, 16, 19, 1184),
    ("COMMIT", 12, 15, 15, 516),
    ("BEGIN", 0, 0, 0, 0),
    ("DELETE FROM T WHERE K = 1", 16, 16, 19, 1176),
    ("ROLLBACK", 3, 3, 3, 96),
];

/// Run the script at `topology`, print each statement's messages and bytes,
/// fleet-wide, and compare them with `expected`.
fn assert_costs((accelerators, shards, replication_factor): (usize, usize, usize), expected: &[Cost]) {
    let fleet = FleetConfig { accelerators, shards, replication_factor };
    let idaa = Idaa::new(IdaaConfig { fleet, ..IdaaConfig::default() });
    let mut s: Session = idaa.session(SYSADM);
    for sql in SETUP {
        idaa.execute(&mut s, sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    }
    println!(
        "({accelerators}, {shards}, {replication_factor}): messages (phase-2 COMMIT alone, \
         standalone records), bytes"
    );
    assert_eq!(SCRIPT.len(), expected.len());
    let mut actual = Vec::new();
    for (&sql, &(pinned, _, alone, standalone, _)) in SCRIPT.iter().zip(expected) {
        assert_eq!(sql, pinned);
        let before = idaa.fleet_link_metrics();
        idaa.execute(&mut s, sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        let m = idaa.fleet_link_metrics().since(&before);
        println!("  {:>3} ({alone:>2}, {standalone:>2}) {:>5} B  {sql}", m.total_messages(), m.total_bytes());
        actual.push((m.total_messages(), m.total_bytes()));
    }
    for (&(sql, msgs, _, _, bytes), &got) in expected.iter().zip(&actual) {
        assert_eq!(got, (msgs, bytes), "{sql}");
    }
}

#[test]
fn each_statement_kind_costs_its_pinned_messages_and_bytes_at_one_node() {
    assert_costs((1, 1, 1), ONE_NODE);
}

#[test]
fn each_statement_kind_costs_its_pinned_messages_and_bytes_in_a_fleet() {
    assert_costs((3, 4, 2), FLEET);
}
