//! Every fleet-wide operation follows DB2's catalog. CREATE `IN
//! ACCELERATOR`, DROP, ACCEL_ADD/REMOVE/LOAD/GROOM_TABLES and the analytics
//! output DDL either fail (-904 or -30081) before any node changed, or
//! change every ready owner — and a node that missed the change catches up
//! to the catalog when it comes back. Each test is one way a down node once
//! kept, or missed, a table DB2's catalog disagreed with, so that a later
//! ADD or CREATE failed -601 or a GROOM -204 (F1–F6); the property runs
//! random scripts of these operations around one down node.
//!
//! A node is taken down with `crash()`. With `unreachable`, its link also
//! drops every message until recovery, so no statement can restart it.
//! Recovery lifts the fault and recovers every node. After it, every
//! node's tables must equal what DB2's catalog places there, computed here
//! from the placement rule rather than from the product.

use idaa::analytics::deploy_all;
use idaa::host::{AccelStatus, TableKind};
use idaa::{sites, FleetConfig, Idaa, IdaaConfig, Session, SitePlan, SYSADM};
use proptest::prelude::*;
use std::time::Duration;

/// `(accelerators, shards, replication_factor)`.
type Topology = (usize, usize, usize);
const SINGLE: Topology = (1, 1, 1);
const FLEET: Topology = (3, 4, 2);

fn system(topology: Topology) -> (Idaa, Session) {
    let (accelerators, shards, replication_factor) = topology;
    let fleet = FleetConfig { accelerators, shards, replication_factor };
    let idaa = Idaa::new(IdaaConfig { fleet, ..IdaaConfig::default() });
    deploy_all(&idaa, SYSADM).unwrap();
    let mut s = idaa.session(SYSADM);
    run(&idaa, &mut s, &["SET CURRENT QUERY ACCELERATION = ELIGIBLE"]);
    (idaa, s)
}

fn run(idaa: &Idaa, s: &mut Session, sqls: &[&str]) {
    for sql in sqls {
        idaa.execute(s, sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    }
}

/// A DB2 table `name` holding `rows` rows.
fn db2_table(idaa: &Idaa, s: &mut Session, name: &str, rows: i32) {
    let values: Vec<String> = (0..rows).map(|k| format!("({k}, {})", k % 4)).collect();
    run(idaa, s, &[
        &format!("CREATE TABLE {name} (K INT NOT NULL, V INT)"),
        &format!("INSERT INTO {name} VALUES {}", values.join(", ")),
    ]);
}

/// A hashed accelerator-only table `name` holding `rows` rows.
fn aot(idaa: &Idaa, s: &mut Session, name: &str, rows: i32) {
    let values: Vec<String> = (0..rows).map(|k| format!("({k}, {})", k % 4)).collect();
    run(idaa, s, &[
        &format!("CREATE TABLE {name} (K INT NOT NULL, V INT) IN ACCELERATOR DISTRIBUTE BY HASH(K)"),
        &format!("INSERT INTO {name} VALUES {}", values.join(", ")),
    ]);
}

/// What DB2's catalog places on each node: shard `s` of an accelerator-only
/// table on nodes `(s + r) % K` for `r` below the replication factor, as
/// `T__S{s}` (the table itself when it has one shard), and an accelerated
/// DB2 table whole on every node.
fn catalog_placement(idaa: &Idaa, (k, shards, replicas): Topology) -> Vec<Vec<String>> {
    let mut nodes = vec![Vec::new(); k];
    for name in idaa.host().table_names() {
        let meta = idaa.host().table_meta(&name).unwrap();
        if meta.kind == TableKind::AcceleratorOnly {
            for s in 0..shards {
                let local = if shards == 1 { name.to_string() } else { format!("{name}__S{s}") };
                (0..replicas).for_each(|r| nodes[(s + r) % k].push(local.clone()));
            }
        } else if meta.accel_status != AccelStatus::NotAccelerated {
            nodes.iter_mut().for_each(|n| n.push(name.to_string()));
        }
    }
    nodes.iter_mut().for_each(|n| n.sort());
    nodes
}

/// Every node's tables.
fn node_tables(idaa: &Idaa) -> Vec<Vec<String>> {
    let names = |i| idaa.node_engine(i).table_names().iter().map(|t| t.to_string()).collect();
    (0..idaa.fleet_size()).map(names).collect()
}

/// Take node `i` down: crash it and, when `unreachable`, drop every message
/// on its link until recovery.
fn take_down(idaa: &Idaa, i: usize, unreachable: bool) {
    idaa.node_engine(i).crash();
    if unreachable {
        let window = Duration::ZERO..Duration::from_secs(3600);
        idaa.set_fault_plan_on(i, SitePlan::default().and_window(sites::LINK_OUTAGE, window));
    }
}

/// Lift every fault, recover every node, and check that each node's tables
/// equal what DB2's catalog places there.
fn recover_all(idaa: &Idaa, topology: Topology) {
    for i in 0..idaa.fleet_size() {
        idaa.node_registry(i).clear();
        assert!(idaa.recover_node(i), "node {i} did not recover");
    }
    assert_eq!(node_tables(idaa), catalog_placement(idaa, topology), "the nodes left DB2's catalog");
}

/// Run `sql` with node `down` taken down. It either succeeds, or fails -904
/// or -30081 with no node that stayed up changed; returns whether it ran.
fn under_fault(idaa: &Idaa, s: &mut Session, (down, unreachable): (usize, bool), sql: &str) -> bool {
    let before = node_tables(idaa);
    take_down(idaa, down, unreachable);
    check_attempt(idaa, &before, &idaa.execute(s, sql).map(drop), sql)
}

/// Whether an attempt ran; a failed one must be -904 or -30081 and have
/// left every node that is up as `before` found it.
fn check_attempt(idaa: &Idaa, before: &[Vec<String>], result: &idaa::Result<()>, sql: &str) -> bool {
    let Err(e) = result else { return true };
    assert!(matches!(e.sqlcode(), -904 | -30081), "{sql} failed with {e}");
    for (i, tables) in node_tables(idaa).iter().enumerate() {
        if !idaa.node_engine(i).is_crashed() {
            assert_eq!(tables, &before[i], "{sql} failed ({e}) but changed node {i}");
        }
    }
    false
}

fn count(idaa: &Idaa, s: &mut Session, table: &str) -> String {
    let rows = idaa.query(s, &format!("SELECT COUNT(*) FROM {table}")).unwrap();
    rows.scalar().unwrap().render()
}

/// Every down mode: a crash a statement may restart, and one it cannot.
const MODES: [bool; 2] = [false, true];

#[test]
fn f1_add_with_a_down_node_leaves_no_copy_behind() {
    for unreachable in MODES {
        let (idaa, mut s) = system(FLEET);
        db2_table(&idaa, &mut s, "NT", 6);
        let added = under_fault(&idaa, &mut s, (1, unreachable), "CALL ACCEL_ADD_TABLES('NT')");
        recover_all(&idaa, FLEET);
        if !added {
            run(&idaa, &mut s, &["CALL ACCEL_ADD_TABLES('NT')"]);
        }
        run(&idaa, &mut s, &["CALL ACCEL_LOAD_TABLES('NT')"]);
        assert_eq!(count(&idaa, &mut s, "NT"), "6");
        assert_eq!(node_tables(&idaa), catalog_placement(&idaa, FLEET));
    }
}

#[test]
fn f1c_remove_with_a_down_node_leaves_every_copy_or_none() {
    for unreachable in MODES {
        let (idaa, mut s) = system(FLEET);
        db2_table(&idaa, &mut s, "NT", 6);
        run(&idaa, &mut s, &["CALL ACCEL_ADD_TABLES('NT')", "CALL ACCEL_LOAD_TABLES('NT')"]);
        let removed = under_fault(&idaa, &mut s, (1, unreachable), "CALL ACCEL_REMOVE_TABLES('NT')");
        recover_all(&idaa, FLEET);
        if !removed {
            run(&idaa, &mut s, &["CALL ACCEL_REMOVE_TABLES('NT')"]);
        }
        run(&idaa, &mut s, &["CALL ACCEL_ADD_TABLES('NT')", "CALL ACCEL_LOAD_TABLES('NT')"]);
        assert_eq!(count(&idaa, &mut s, "NT"), "6");
        assert_eq!(node_tables(&idaa), catalog_placement(&idaa, FLEET));
    }
}

#[test]
fn f2_groom_of_one_hashed_table_grooms_its_shards() {
    let (idaa, mut s) = system(FLEET);
    aot(&idaa, &mut s, "T", 12);
    run(&idaa, &mut s, &["DELETE FROM T WHERE K < 6"]);
    let out = idaa.execute(&mut s, "CALL ACCEL_GROOM_TABLES('T')").unwrap();
    let message = out.rows().unwrap().scalar().unwrap().render();
    assert_ne!(message, "groomed 0 row versions", "every owner grooms its shards of T");
    recover_all(&idaa, FLEET);
    assert_eq!(count(&idaa, &mut s, "T"), "6");
}

/// DESCRIBE of the loaded DB2 table `R` into `ST`, and `ST`'s rows, sorted.
fn describe(idaa: &Idaa, s: &mut Session, down: Option<(usize, bool)>) -> Vec<String> {
    let call = "CALL ANALYTICS.DESCRIBE('R', 'ST')";
    let ran = match down {
        Some(down) => under_fault(idaa, s, down, call),
        None => idaa.execute(s, call).is_ok(),
    };
    recover_all(idaa, FLEET);
    if !ran {
        run(idaa, s, &[call]);
    }
    let rows = idaa.query(s, "SELECT * FROM ST").unwrap().rows;
    let mut rendered: Vec<String> =
        rows.iter().map(|r| r.iter().map(|v| v.render()).collect::<Vec<_>>().join("|")).collect();
    rendered.sort();
    rendered
}

#[test]
fn f3_describe_with_a_down_node_writes_its_output_on_every_owner() {
    let loaded = |idaa: &Idaa, s: &mut Session| {
        db2_table(idaa, s, "R", 16);
        run(idaa, s, &["CALL ACCEL_ADD_TABLES('R')", "CALL ACCEL_LOAD_TABLES('R')"]);
    };
    let (idaa, mut s) = system(FLEET);
    loaded(&idaa, &mut s);
    let fault_free = describe(&idaa, &mut s, None);
    assert_eq!(fault_free.len(), 2, "DESCRIBE summarizes K and V");
    for down in [1, 2] {
        for unreachable in MODES {
            let (idaa, mut s) = system(FLEET);
            loaded(&idaa, &mut s);
            assert_eq!(describe(&idaa, &mut s, Some((down, unreachable))), fault_free);
        }
    }
}

#[test]
fn f4_drop_of_an_aot_with_a_down_owner_leaves_no_shard_behind() {
    for (topology, down) in [(SINGLE, 0), (FLEET, 1)] {
        for unreachable in MODES {
            let (idaa, mut s) = system(topology);
            aot(&idaa, &mut s, "T", 8);
            let dropped = under_fault(&idaa, &mut s, (down, unreachable), "DROP TABLE T");
            recover_all(&idaa, topology);
            if !dropped {
                run(&idaa, &mut s, &["DROP TABLE T"]);
            }
            aot(&idaa, &mut s, "T", 3);
            assert_eq!(count(&idaa, &mut s, "T"), "3");
            run(&idaa, &mut s, &["CALL ACCEL_GROOM_TABLES('T')"]);
            assert_eq!(node_tables(&idaa), catalog_placement(&idaa, topology));
        }
    }
}

#[test]
fn f5_create_in_accelerator_with_a_down_owner_leaves_no_shard_behind() {
    for unreachable in MODES {
        let (idaa, mut s) = system(FLEET);
        let create = "CREATE TABLE T (K INT NOT NULL, V INT) IN ACCELERATOR DISTRIBUTE BY HASH(K)";
        let created = under_fault(&idaa, &mut s, (2, unreachable), create);
        recover_all(&idaa, FLEET);
        if !created {
            run(&idaa, &mut s, &[create]);
        }
        run(&idaa, &mut s, &["INSERT INTO T VALUES (1, 1), (2, 2), (3, 3)"]);
        assert_eq!(count(&idaa, &mut s, "T"), "3");
        run(&idaa, &mut s, &["DROP TABLE T", create]);
        assert_eq!(count(&idaa, &mut s, "T"), "0");
        assert_eq!(node_tables(&idaa), catalog_placement(&idaa, FLEET));
    }
}

#[test]
fn f6_drop_of_an_accelerated_table_with_a_down_node_leaves_no_replica_behind() {
    for topology in [SINGLE, FLEET] {
        for unreachable in MODES {
            let (idaa, mut s) = system(topology);
            db2_table(&idaa, &mut s, "NT", 5);
            run(&idaa, &mut s, &["CALL ACCEL_ADD_TABLES('NT')", "CALL ACCEL_LOAD_TABLES('NT')"]);
            let dropped = under_fault(&idaa, &mut s, (0, unreachable), "DROP TABLE NT");
            recover_all(&idaa, topology);
            if !dropped {
                run(&idaa, &mut s, &["DROP TABLE NT"]);
            }
            db2_table(&idaa, &mut s, "NT", 2);
            run(&idaa, &mut s, &["CALL ACCEL_ADD_TABLES('NT')", "CALL ACCEL_LOAD_TABLES('NT')"]);
            assert_eq!(count(&idaa, &mut s, "NT"), "2");
            assert_eq!(node_tables(&idaa), catalog_placement(&idaa, topology));
        }
    }
}

/// One step of a script over the DB2 tables `H0`, `H1` and the
/// accelerator-only `A0`, `A1` (table `t`): its statements in order.
fn step(op: usize, t: usize, n: usize) -> Vec<String> {
    let rows: Vec<String> = (0..=n as i32 % 5).map(|k| format!("({}, {k})", k + 10 * n as i32)).collect();
    let rows = rows.join(", ");
    match op {
        0 => vec![
            format!("CREATE TABLE A{t} (K INT NOT NULL, V INT) IN ACCELERATOR DISTRIBUTE BY HASH(K)"),
            format!("INSERT INTO A{t} VALUES {rows}"),
        ],
        1 => vec![format!("DROP TABLE A{t}")],
        2 => vec![
            format!("DROP TABLE H{t}"),
            format!("CREATE TABLE H{t} (K INT NOT NULL, V INT)"),
            format!("INSERT INTO H{t} VALUES {rows}"),
        ],
        3 => vec![format!("CALL ACCEL_ADD_TABLES('H{t}')")],
        4 => vec![format!("CALL ACCEL_REMOVE_TABLES('H{t}')")],
        5 => vec![format!("INSERT INTO H{t} VALUES {rows}"), format!("CALL ACCEL_LOAD_TABLES('H{t}')")],
        6 => vec![format!("DELETE FROM A{t} WHERE V < 2"), format!("CALL ACCEL_GROOM_TABLES('A{t}')")],
        7 => vec!["CALL ACCEL_GROOM_TABLES()".into()],
        _ => {
            let input = if n.is_multiple_of(2) { format!("H{t}") } else { format!("A{t}") };
            vec![format!("CALL ANALYTICS.DESCRIBE('{input}', 'D{t}')")]
        }
    }
}
const OPS: usize = 9;

/// Run `steps` on a fresh system, with node `down` taken down before step
/// `at` and every node recovered after it; a statement that failed -904 or
/// -30081 there runs again after recovery. Returns each statement's
/// outcome and, at the end, each table of DB2's catalog with its count.
fn script(
    topology: Topology,
    steps: &[(usize, usize)],
    fault: Option<(usize, usize, bool)>,
) -> (Vec<String>, Vec<(String, String)>) {
    let (idaa, mut s) = system(topology);
    for t in 0..2 {
        db2_table(&idaa, &mut s, &format!("H{t}"), 4);
        aot(&idaa, &mut s, &format!("A{t}"), 4);
    }
    let mut outcomes = Vec::new();
    for (n, &(op, t)) in steps.iter().enumerate() {
        let faulted = fault.filter(|&(at, _, _)| at == n);
        if let Some((_, down, unreachable)) = faulted {
            take_down(&idaa, down % topology.0, unreachable);
        }
        for sql in step(op, t, n) {
            let before = node_tables(&idaa);
            let mut result = idaa.execute(&mut s, &sql).map(drop);
            let down = matches!(&result, Err(e) if matches!(e.sqlcode(), -904 | -30081));
            if faulted.is_some() && down && !check_attempt(&idaa, &before, &result, &sql) {
                recover_all(&idaa, topology);
                result = idaa.execute(&mut s, &sql).map(drop);
            }
            outcomes.push(format!("{sql}: {:?}", result.map_err(|e| e.sqlcode())));
        }
        if faulted.is_some() {
            recover_all(&idaa, topology);
        }
    }
    recover_all(&idaa, topology);
    let tables = idaa.host().table_names().into_iter().map(|t| t.to_string());
    (outcomes, tables.map(|t| (t.clone(), count(&idaa, &mut s, &t))).collect())
}

/// Cases per run: `PROPTEST_CASES` when set (CI raises it), else a budget
/// that fits the debug test run.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(32)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: cases() })]

    #[test]
    fn a_down_node_leaves_the_fleet_on_db2s_catalog(
        fleet in any::<bool>(),
        steps in collection::vec((0usize..OPS, 0usize..2), 1..10),
        fault in (0usize..10, 0usize..3, any::<bool>()),
    ) {
        let topology = if fleet { FLEET } else { SINGLE };
        let faulted = script(topology, &steps, Some(fault));
        prop_assert_eq!(faulted, script(topology, &steps, None));
    }
}
