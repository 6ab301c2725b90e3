//! Replication convergence: random committed DML streams against an
//! accelerated table must leave the accelerator replica identical to the
//! host table — across batch sizes, interleavings, rollbacks, and reloads —
//! and at every moment in between, lossy link included, hold the table as
//! it stood after some DB2 commit, never part of one.

use idaa::accel::Snapshot;
use idaa::{sites, Idaa, IdaaConfig, ObjectName, SitePlan, Value, SYSADM};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn sorted(mut rows: Vec<idaa::Row>) -> Vec<idaa::Row> {
    rows.sort_by(|a, b| {
        for (x, y) in a.iter().zip(b) {
            let o = x.cmp_total(y);
            if o != std::cmp::Ordering::Equal {
                return o;
            }
        }
        std::cmp::Ordering::Equal
    });
    rows
}

/// DB2's committed rows of `table`, sorted.
fn db2_rows(idaa: &Idaa, table: &str) -> Vec<idaa::Row> {
    sorted(idaa.host().read_table(0, &ObjectName::bare(table)).unwrap())
}

/// The accelerator replica of `table`, sorted.
fn replica_rows(idaa: &Idaa, table: &str) -> Vec<idaa::Row> {
    sorted(idaa.accel().scan_at(Snapshot::latest(0), &ObjectName::bare(table)).unwrap())
}

fn assert_converged(idaa: &Idaa, table: &str) {
    assert_eq!(db2_rows(idaa, table), replica_rows(idaa, table), "replica diverged for {table}");
}

/// A seeded random DML stream on an accelerated table while node 0's link
/// drops messages both ways. After every statement that commits, the
/// replica must hold DB2's table as it stood after some commit no older
/// than the one it held before (`history` keeps DB2's state after each
/// commit); at the end, with the link healed, it must equal DB2.
fn random_dml_stream(batch_size: usize, seed: u64, steps: usize) {
    let idaa = Idaa::new(IdaaConfig { replication_batch: batch_size, ..Default::default() });
    let mut s = idaa.session(SYSADM);
    idaa.execute(&mut s, "CREATE TABLE T (K INT NOT NULL, V INT)").unwrap();
    idaa.execute(&mut s, "CALL ACCEL_ADD_TABLES('T')").unwrap();
    idaa.execute(&mut s, "CALL ACCEL_LOAD_TABLES('T')").unwrap();
    let lossy = SitePlan::default()
        .and_probabilistic(sites::LINK_DROP_TO_ACCEL, 0.7)
        .and_probabilistic(sites::LINK_DROP_TO_HOST, 0.7)
        .seeded(seed);
    idaa.set_fault_plan_on(0, lossy);

    let mut history = vec![db2_rows(&idaa, "T")];
    let mut held = 0;
    let mut check = |idaa: &Idaa, step: usize| {
        history.push(db2_rows(idaa, "T"));
        let replica = replica_rows(idaa, "T");
        match history[held..].iter().position(|h| *h == replica) {
            Some(p) => held += p,
            None => panic!(
                "seed {seed}, batch {batch_size}, step {step}: the replica {replica:?} is no \
                 DB2 commit at or after the one it held, {:?}",
                history[held]
            ),
        }
    };

    let mut rng = StdRng::seed_from_u64(seed);
    let mut next_key = 0;
    for step in 0..steps {
        let in_txn = rng.gen_bool(0.3);
        if in_txn {
            idaa.execute(&mut s, "BEGIN").unwrap();
        }
        let ops = rng.gen_range(1..5);
        for _ in 0..ops {
            match rng.gen_range(0..10) {
                0..=5 => {
                    let k = next_key;
                    next_key += 1;
                    idaa.execute(
                        &mut s,
                        &format!("INSERT INTO T VALUES ({k}, {})", rng.gen_range(0..100)),
                    )
                    .unwrap();
                }
                6..=7 => {
                    let k = rng.gen_range(0..next_key.max(1));
                    idaa.execute(
                        &mut s,
                        &format!("UPDATE T SET V = {} WHERE K = {k}", rng.gen_range(0..100)),
                    )
                    .unwrap();
                }
                _ => {
                    let k = rng.gen_range(0..next_key.max(1));
                    idaa.execute(&mut s, &format!("DELETE FROM T WHERE K = {k}")).unwrap();
                }
            }
            if !in_txn {
                check(&idaa, step);
            }
        }
        if in_txn {
            if rng.gen_bool(0.25) {
                idaa.execute(&mut s, "ROLLBACK").unwrap();
            } else {
                idaa.execute(&mut s, "COMMIT").unwrap();
            }
            check(&idaa, step);
        }
    }
    idaa.set_fault_plan_on(0, SitePlan::default());
    idaa.replicate_now().unwrap();
    assert_converged(&idaa, "T");
}

#[test]
fn converges_with_large_batches() {
    random_dml_stream(1024, 1, 60);
}

#[test]
fn converges_with_single_record_batches() {
    random_dml_stream(1, 2, 40);
}

#[test]
fn converges_with_small_batches() {
    random_dml_stream(8, 3, 60);
}

#[test]
fn reload_resets_replica_cleanly() {
    let idaa = Idaa::default();
    let mut s = idaa.session(SYSADM);
    idaa.execute(&mut s, "CREATE TABLE T (K INT)").unwrap();
    for i in 0..30 {
        idaa.execute(&mut s, &format!("INSERT INTO T VALUES ({i})")).unwrap();
    }
    idaa.execute(&mut s, "CALL ACCEL_ADD_TABLES('T')").unwrap();
    idaa.execute(&mut s, "CALL ACCEL_LOAD_TABLES('T')").unwrap();
    assert_converged(&idaa, "T");
    // More changes, then a full reload on top of the replicated state.
    for i in 30..60 {
        idaa.execute(&mut s, &format!("INSERT INTO T VALUES ({i})")).unwrap();
    }
    idaa.execute(&mut s, "CALL ACCEL_LOAD_TABLES('T')").unwrap();
    assert_converged(&idaa, "T");
    let r = idaa.query(&mut s, "SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(r.scalar().unwrap(), &Value::BigInt(60));
}

#[test]
fn offloaded_queries_see_replicated_changes_immediately_after_commit() {
    let idaa = Idaa::default();
    let mut s = idaa.session(SYSADM);
    idaa.execute(&mut s, "CREATE TABLE T (K INT, V VARCHAR(4))").unwrap();
    idaa.execute(&mut s, "CALL ACCEL_ADD_TABLES('T')").unwrap();
    idaa.execute(&mut s, "CALL ACCEL_LOAD_TABLES('T')").unwrap();
    idaa.execute(&mut s, "SET CURRENT QUERY ACCELERATION = ELIGIBLE").unwrap();
    for i in 0..10 {
        idaa.execute(&mut s, &format!("INSERT INTO T VALUES ({i}, 'a')")).unwrap();
        let out = idaa.execute(&mut s, "SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(out.route, idaa::Route::Accelerator);
        assert_eq!(out.rows().unwrap().scalar().unwrap(), &Value::BigInt(i + 1));
    }
}

#[test]
fn non_accelerated_tables_never_replicate() {
    let idaa = Idaa::default();
    let mut s = idaa.session(SYSADM);
    idaa.execute(&mut s, "CREATE TABLE PRIVATE (K INT)").unwrap();
    idaa.execute(&mut s, "INSERT INTO PRIVATE VALUES (1), (2)").unwrap();
    idaa.replicate_now().unwrap();
    assert!(!idaa.accel().has_table(&ObjectName::bare("PRIVATE")));
    assert_eq!(idaa.link().metrics().bytes_to_accel, 0, "no bytes may cross the link");
}

#[test]
fn mixed_tables_replicate_only_loaded_ones() {
    let idaa = Idaa::default();
    let mut s = idaa.session(SYSADM);
    idaa.execute(&mut s, "CREATE TABLE LOADED (K INT)").unwrap();
    idaa.execute(&mut s, "CREATE TABLE ADDED_ONLY (K INT)").unwrap();
    idaa.execute(&mut s, "CALL ACCEL_ADD_TABLES('LOADED')").unwrap();
    idaa.execute(&mut s, "CALL ACCEL_LOAD_TABLES('LOADED')").unwrap();
    idaa.execute(&mut s, "CALL ACCEL_ADD_TABLES('ADDED_ONLY')").unwrap();
    // ADDED_ONLY is defined but not loaded: no replication for it.
    idaa.execute(&mut s, "INSERT INTO LOADED VALUES (1)").unwrap();
    idaa.execute(&mut s, "INSERT INTO ADDED_ONLY VALUES (1)").unwrap();
    assert_eq!(idaa.accel().scan_at(Snapshot::latest(0), &ObjectName::bare("LOADED")).unwrap().len(), 1);
    assert_eq!(idaa.accel().scan_at(Snapshot::latest(0), &ObjectName::bare("ADDED_ONLY")).unwrap().len(), 0);
}
