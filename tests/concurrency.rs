//! Concurrency stress tests: many sessions hammering the federated system
//! at once — the paper's §2 requirement that "concurrent execution of
//! multiple queries in a single transaction are also supported" and that
//! correctness holds under interleaving.

use idaa::accel::Snapshot;
use idaa::{Idaa, ObjectName, Value, SYSADM};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

#[test]
fn concurrent_aot_writers_and_readers_stay_consistent() {
    let idaa = Arc::new(Idaa::default());
    let mut s = idaa.session(SYSADM);
    idaa.execute(&mut s, "CREATE TABLE LEDGER (WRITER INT, SEQ INT) IN ACCELERATOR").unwrap();

    const WRITERS: usize = 4;
    const PER_WRITER: usize = 40;
    let anomalies = Arc::new(AtomicUsize::new(0));

    std::thread::scope(|scope| {
        // Writers commit in explicit transactions of 4 rows each.
        for w in 0..WRITERS {
            let idaa = Arc::clone(&idaa);
            scope.spawn(move || {
                let mut sess = idaa.session(SYSADM);
                for chunk in 0..(PER_WRITER / 4) {
                    idaa.execute(&mut sess, "BEGIN").unwrap();
                    for i in 0..4 {
                        let seq = chunk * 4 + i;
                        idaa.execute(&mut sess, &format!("INSERT INTO LEDGER VALUES ({w}, {seq})"))
                            .unwrap();
                    }
                    idaa.execute(&mut sess, "COMMIT").unwrap();
                }
            });
        }
        // Readers continuously check that commits are atomic: every
        // writer's visible row count must be a multiple of 4.
        for _ in 0..2 {
            let idaa = Arc::clone(&idaa);
            let anomalies = Arc::clone(&anomalies);
            scope.spawn(move || {
                let mut sess = idaa.session(SYSADM);
                for _ in 0..30 {
                    let r = idaa
                        .query(&mut sess, "SELECT writer, COUNT(*) FROM ledger GROUP BY writer")
                        .unwrap();
                    for row in &r.rows {
                        if row[1].as_i64().unwrap() % 4 != 0 {
                            anomalies.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });

    assert_eq!(anomalies.load(Ordering::Relaxed), 0, "readers saw a partial transaction");
    let r = idaa.query(&mut s, "SELECT COUNT(*) FROM ledger").unwrap();
    assert_eq!(r.scalar().unwrap(), &Value::BigInt((WRITERS * PER_WRITER) as i64));
}

#[test]
fn loader_and_queries_run_concurrently() {
    use idaa::loader::{EventSource, LoadTarget, Loader};
    let idaa = Arc::new(Idaa::default());
    let mut s = idaa.session(SYSADM);
    idaa.execute(
        &mut s,
        "CREATE TABLE FEED (EVENT_ID INT, CUST_ID INT, TOPIC VARCHAR(10), \
         SENTIMENT DOUBLE, POSTED_AT TIMESTAMP) IN ACCELERATOR",
    )
    .unwrap();

    std::thread::scope(|scope| {
        let idaa2 = Arc::clone(&idaa);
        let load = scope.spawn(move || {
            Loader::new(SYSADM)
                .load(
                    &idaa2,
                    Box::new(EventSource::new(30_000, 3)),
                    &ObjectName::bare("FEED"),
                    LoadTarget::AcceleratorDirect,
                )
                .unwrap()
        });
        // Queries run while the load is in flight: counts must be 0 until
        // the single load transaction commits, then exactly 30000.
        let idaa3 = Arc::clone(&idaa);
        let watch = scope.spawn(move || {
            let mut sess = idaa3.session(SYSADM);
            let mut observed = Vec::new();
            for _ in 0..50 {
                let r = idaa3.query(&mut sess, "SELECT COUNT(*) FROM feed").unwrap();
                observed.push(r.scalar().unwrap().as_i64().unwrap());
            }
            observed
        });
        let report = load.join().unwrap();
        assert_eq!(report.rows_loaded, 30_000);
        let observed = watch.join().unwrap();
        assert!(
            observed.iter().all(|&n| n == 0 || n == 30_000),
            "load visibility must be atomic, saw {observed:?}"
        );
    });
    let r = idaa.query(&mut s, "SELECT COUNT(*) FROM feed").unwrap();
    assert_eq!(r.scalar().unwrap(), &Value::BigInt(30_000));
}

#[test]
fn replication_under_concurrent_host_writers_converges() {
    let idaa = Arc::new(Idaa::default());
    let mut s = idaa.session(SYSADM);
    idaa.execute(&mut s, "CREATE TABLE HOT (W INT, N INT)").unwrap();
    idaa.execute(&mut s, "CALL ACCEL_ADD_TABLES('HOT')").unwrap();
    idaa.execute(&mut s, "CALL ACCEL_LOAD_TABLES('HOT')").unwrap();

    std::thread::scope(|scope| {
        for w in 0..4 {
            let idaa = Arc::clone(&idaa);
            scope.spawn(move || {
                let mut sess = idaa.session(SYSADM);
                for n in 0..30 {
                    // Lock contention on the host serializes these; retries
                    // cover occasional -913 timeouts under heavy interleave.
                    loop {
                        match idaa.execute(&mut sess, &format!("INSERT INTO HOT VALUES ({w}, {n})")) {
                            Ok(_) => break,
                            Err(e) if e.sqlcode() == -913 => continue,
                            Err(e) => panic!("unexpected error: {e}"),
                        }
                    }
                }
            });
        }
    });
    idaa.replicate_now().unwrap();
    let host_rows = idaa.host().read_table(0, &ObjectName::bare("HOT")).unwrap().len();
    let accel_rows = idaa.accel().scan_at(Snapshot::latest(0), &ObjectName::bare("HOT")).unwrap().len();
    assert_eq!(host_rows, 120);
    assert_eq!(accel_rows, 120, "replica must converge to the host state");
}

#[test]
fn parallel_offloaded_queries_share_the_accelerator() {
    let idaa = Arc::new(Idaa::default());
    let mut s = idaa.session(SYSADM);
    idaa.execute(&mut s, "CREATE TABLE Q (K INT, V INT) IN ACCELERATOR").unwrap();
    let vals: Vec<String> = (0..5000).map(|i| format!("({}, {})", i % 100, i)).collect();
    for chunk in vals.chunks(1000) {
        idaa.execute(&mut s, &format!("INSERT INTO Q VALUES {}", chunk.join(", "))).unwrap();
    }
    std::thread::scope(|scope| {
        for _ in 0..6 {
            let idaa = Arc::clone(&idaa);
            scope.spawn(move || {
                let mut sess = idaa.session(SYSADM);
                for _ in 0..10 {
                    let r = idaa
                        .query(&mut sess, "SELECT COUNT(*), SUM(v) FROM q WHERE k < 50")
                        .unwrap();
                    assert_eq!(r.rows[0][0], Value::BigInt(2500));
                }
            });
        }
    });
}
