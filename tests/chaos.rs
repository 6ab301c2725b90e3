//! Chaos suite: random workloads under deterministic link-fault plans.
//!
//! Every test here runs on the virtual clock only — retries, backoff and
//! outage windows consume `NetLink` time, never wall time. Case count for
//! the randomized test follows `PROPTEST_CASES` (default 24) so CI can pin
//! it; each case derives from a fixed seed, so failures reproduce exactly.
//!
//! Tolerated statement outcomes under faults are the federation SQLCODEs:
//! -30081 (communication failure), -904 (accelerator stopped), -926
//! (transaction rolled back). Everything else is a bug.

use idaa::accel::Snapshot;
use idaa::netsim::sites;
use idaa::{
    FleetConfig, HealthState, Idaa, IdaaConfig, ObjectName, Route, SitePlan, Value, SYSADM,
};
use std::time::Duration;

/// splitmix64 — the same generator the fault registry's stream uses; good
/// enough to derive per-case workloads deterministically.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Drop a fraction `p` of messages in both directions.
fn dropping(seed: u64, p: f64) -> SitePlan {
    SitePlan::default()
        .seeded(seed)
        .and_probabilistic(sites::LINK_DROP_TO_ACCEL, p)
        .and_probabilistic(sites::LINK_DROP_TO_HOST, p)
}

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(24)
}

/// Build a system with one replicated host table (SALES) and one AOT (LOG),
/// ready for an ELIGIBLE-mode faulted workload.
fn faulted_system(batch: usize) -> (Idaa, idaa::Session) {
    let idaa = Idaa::new(IdaaConfig { replication_batch: batch, ..IdaaConfig::default() });
    let mut s = idaa.session(SYSADM);
    idaa.execute(&mut s, "CREATE TABLE SALES (ID INT NOT NULL)").unwrap();
    idaa.execute(&mut s, "CALL ACCEL_ADD_TABLES('SALES')").unwrap();
    idaa.execute(&mut s, "CALL ACCEL_LOAD_TABLES('SALES')").unwrap();
    idaa.execute(&mut s, "CREATE TABLE LOG (X INT) IN ACCELERATOR").unwrap();
    idaa.execute(&mut s, "SET CURRENT QUERY ACCELERATION = ELIGIBLE").unwrap();
    (idaa, s)
}

fn sorted_ints(rows: Vec<idaa::Row>) -> Vec<i32> {
    let mut out: Vec<i32> = rows
        .into_iter()
        .map(|r| match r[0] {
            Value::Int(v) => v,
            ref other => panic!("expected INT, got {other:?}"),
        })
        .collect();
    out.sort_unstable();
    out
}

fn assert_tolerated(e: &idaa::Error) {
    assert!(
        matches!(e.sqlcode(), -30081 | -904 | -926),
        "unexpected failure under link faults: {e} (sqlcode {})",
        e.sqlcode()
    );
}

/// Heal the link and bring the accelerator back: recovery probe, queued
/// phase-2 commit decisions, replication catch-up. Returns node 0's firing
/// log as it stood before the heal cleared it.
fn heal(idaa: &Idaa) -> Vec<(String, u64)> {
    let fired = idaa.faults.registry.fired();
    idaa.faults.registry.clear();
    assert!(idaa.recover(), "recovery probe must succeed on a healed link");
    idaa.replicate_now().unwrap();
    assert_eq!(idaa.health().state(), HealthState::Online);
    assert_eq!(idaa.pending_accel_commits(), 0);
    assert_eq!(idaa.replication_backlog(), 0);
    fired
}

/// One random workload under one random link-fault plan; panics on any
/// invariant violation.
fn chaos_case(case_seed: u64) {
    let mut rng = Rng(case_seed);
    let batch = [1usize, 5, 64][rng.below(3) as usize];
    let (idaa, mut s) = faulted_system(batch);

    let mut plan = SitePlan::default()
        .seeded(rng.next())
        .and_probabilistic(sites::LINK_DROP_TO_ACCEL, 0.02 + 0.23 * rng.f64())
        .and_probabilistic(sites::LINK_DROP_TO_HOST, 0.02 + 0.23 * rng.f64());
    if rng.below(3) == 0 {
        let start = idaa.link().now() + Duration::from_micros(rng.below(2_000));
        plan = plan.and_window(sites::LINK_OUTAGE, start..start + Duration::from_millis(2));
    }
    idaa.set_fault_plan(plan);
    shadow_workload(&idaa, &mut s, &mut rng);
}

/// The chaos workload against a shadow model, drawn from `rng` under
/// whatever plan is installed: host inserts, autocommitted AOT inserts,
/// explicit cross-engine transactions and offload-eligible counts. Every
/// statement succeeds or fails with a tolerated SQLCODE; after the heal
/// the replica and the AOT match the model. Returns the firing log.
fn shadow_workload(idaa: &Idaa, s: &mut idaa::Session, rng: &mut Rng) -> Vec<(String, u64)> {
    // Shadow model. Host-table rows are certain (link faults cannot fail a
    // host insert); AOT rows are certain when the statement succeeded and
    // ambiguous when it failed inside an explicit transaction that later
    // committed (the loss may have hit the acknowledgement, after the
    // accelerator applied the write).
    let mut expect_sales: Vec<i32> = Vec::new();
    let mut log_definite: Vec<i32> = Vec::new();
    let mut log_maybe: Vec<i32> = Vec::new();
    let mut next_val = 0i32;

    for _ in 0..rng.below(30) + 20 {
        match rng.below(4) {
            0 => {
                // Autocommitted host insert: always succeeds; replication
                // may stall and catch up later.
                let v = next_val;
                next_val += 1;
                idaa.execute(s, &format!("INSERT INTO SALES VALUES ({v})")).unwrap();
                expect_sales.push(v);
            }
            1 => {
                // Autocommitted AOT insert: statement-level atomicity — an
                // error rolls the implicit transaction back on both sides.
                let v = next_val;
                next_val += 1;
                match idaa.execute(s, &format!("INSERT INTO LOG VALUES ({v})")) {
                    Ok(_) => log_definite.push(v),
                    Err(e) => assert_tolerated(&e),
                }
            }
            2 => {
                // Explicit transaction across both engines: must be atomic.
                idaa.execute(s, "BEGIN").unwrap();
                let mut txn_sales: Vec<i32> = Vec::new();
                let mut txn_log_ok: Vec<i32> = Vec::new();
                let mut txn_log_err: Vec<i32> = Vec::new();
                for _ in 0..rng.below(4) + 1 {
                    let v = next_val;
                    next_val += 1;
                    if rng.below(2) == 0 {
                        idaa.execute(s, &format!("INSERT INTO SALES VALUES ({v})"))
                            .unwrap();
                        txn_sales.push(v);
                    } else {
                        match idaa.execute(s, &format!("INSERT INTO LOG VALUES ({v})")) {
                            Ok(_) => txn_log_ok.push(v),
                            Err(e) => {
                                // The loss may have hit the acknowledgement
                                // after the accelerator applied the write:
                                // the row is ambiguous if this txn commits.
                                assert_tolerated(&e);
                                txn_log_err.push(v);
                            }
                        }
                    }
                }
                if rng.below(5) == 0 {
                    idaa.execute(s, "ROLLBACK").unwrap();
                } else {
                    match idaa.execute(s, "COMMIT") {
                        Ok(_) => {
                            expect_sales.extend(txn_sales);
                            log_definite.extend(txn_log_ok);
                            log_maybe.extend(txn_log_err);
                        }
                        Err(e) => assert_tolerated(&e), // rolled back everywhere
                    }
                }
            }
            _ => {
                // Offload-eligible query: never errors — a link failure
                // mid-statement falls back to the host copy. The host
                // answer is exact; an accelerator answer may lag stalled
                // replication but can never overshoot.
                let out = idaa.execute(s, "SELECT COUNT(*) FROM sales").unwrap();
                let n = match out.rows().unwrap().scalar().unwrap() {
                    Value::BigInt(n) => *n,
                    other => panic!("expected BIGINT count, got {other:?}"),
                };
                match out.route {
                    Route::Host => assert_eq!(n, expect_sales.len() as i64),
                    Route::Accelerator => assert!(n <= expect_sales.len() as i64),
                }
            }
        }
    }

    let fired = heal(idaa);

    // Exactly-once replication: the accelerator replica equals the host
    // table, row for row — nothing lost, nothing applied twice.
    let host_sales = idaa.host().read_table(0, &ObjectName::bare("SALES")).unwrap();
    let host_sales = sorted_ints(host_sales);
    let accel_sales = sorted_ints(idaa.accel().scan_at(Snapshot::latest(0), &ObjectName::bare("SALES")).unwrap());
    expect_sales.sort_unstable();
    assert_eq!(host_sales, expect_sales, "host lost or invented committed rows");
    assert_eq!(accel_sales, expect_sales, "replica diverged from the host table");

    // AOT atomicity: every certain row present exactly once, every row
    // present accounted for (certain or ack-loss ambiguous), nothing from
    // rolled-back transactions.
    let log = sorted_ints(idaa.accel().scan_at(Snapshot::latest(0), &ObjectName::bare("LOG")).unwrap());
    for w in log.windows(2) {
        assert!(w[0] < w[1], "duplicate AOT row {} after redelivery", w[0]);
    }
    for v in &log_definite {
        assert!(log.binary_search(v).is_ok(), "committed AOT row {v} lost");
    }
    for v in &log {
        assert!(
            log_definite.contains(v) || log_maybe.contains(v),
            "AOT row {v} from a rolled-back or never-issued statement"
        );
    }
    fired
}

#[test]
fn chaos_random_workloads_converge_after_recovery() {
    for case in 0..cases() as u64 {
        chaos_case(0xc4a0_5000 + case);
    }
}

/// One seeded schedule varies link, crash and storage faults together on
/// node 0: probabilistic reply loss, a crash mid-replication-apply and a
/// torn commit-log append. The shadow-model workload converges under it,
/// every kind fires, and the same seed replays the same firing log (link
/// entries included), link metrics and metrics registry.
#[test]
fn one_schedule_varies_link_crash_and_disk_faults_together() {
    let run = |seed: u64| {
        let (idaa, mut s) = faulted_system(5);
        idaa.set_fault_plan(
            SitePlan::default()
                .seeded(seed)
                .and_probabilistic(sites::LINK_DROP_TO_HOST, 0.1)
                .and_at(sites::MID_REPL_APPLY, 4)
                .and_at(sites::TORN_LOG_APPEND, 40),
        );
        let fired = shadow_workload(&idaa, &mut s, &mut Rng(seed));
        (fired, idaa.link().metrics(), idaa.metrics().snapshot().render())
    };
    let first = run(0x0E5C_4ED1);
    for site in [sites::LINK_DROP_TO_HOST, sites::MID_REPL_APPLY, sites::TORN_LOG_APPEND] {
        assert!(first.0.iter().any(|(s, _)| s == site), "{site} never fired: {:?}", first.0);
    }
    assert_eq!(run(0x0E5C_4ED1), first, "one seed must replay one run");
}

/// Fixed-seed replay: the same workload under the same `SitePlan` seed
/// must produce byte-identical link metrics — delivered traffic, failure
/// count and fault time included.
#[test]
fn fixed_seed_ten_percent_drop_replays_byte_identically() {
    let run = || {
        let (idaa, mut s) = faulted_system(7);
        idaa.set_fault_plan(dropping(42, 0.10));
        let mut log_ok = 0i64;
        for i in 0..60 {
            idaa.execute(&mut s, &format!("INSERT INTO SALES VALUES ({i})")).unwrap();
            match idaa.execute(&mut s, &format!("INSERT INTO LOG VALUES ({i})")) {
                Ok(_) => log_ok += 1,
                Err(e) => assert_tolerated(&e),
            }
            let n = idaa.query(&mut s, "SELECT COUNT(*) FROM sales").unwrap();
            match n.scalar().unwrap() {
                // Accelerator answers may lag stalled replication.
                Value::BigInt(c) => assert!(*c <= i + 1),
                other => panic!("expected BIGINT count, got {other:?}"),
            }
        }
        heal(&idaa);
        let sales = idaa.accel().scan_at(Snapshot::latest(0), &ObjectName::bare("SALES")).unwrap().len();
        assert_eq!(sales, 60, "exactly-once replication under 10% drop");
        let log = idaa.accel().scan_at(Snapshot::latest(0), &ObjectName::bare("LOG")).unwrap().len();
        assert_eq!(log as i64, log_ok, "autocommitted AOT inserts are atomic");
        (idaa.link().metrics(), log_ok)
    };
    let (m1, ok1) = run();
    let (m2, ok2) = run();
    assert_eq!(ok1, ok2, "same seed must fail the same statements");
    assert_eq!(m1, m2, "link metrics must replay byte-identically");
    assert!(m1.failures > 0, "a 10% drop plan over 180+ messages must fault");
}

/// A scheduled outage window: offload-eligible work falls back to the
/// host, accelerator-bound statements fail with -30081, health decays to
/// Offline, and once the window passes recovery restores everything and
/// replication catches up.
#[test]
fn scheduled_outage_falls_back_then_recovers() {
    let (idaa, mut s) = faulted_system(16);
    idaa.execute(&mut s, "INSERT INTO SALES VALUES (1)").unwrap();
    idaa.execute(&mut s, "INSERT INTO LOG VALUES (1)").unwrap();

    let start = idaa.link().now();
    let window = start..start + Duration::from_millis(50);
    idaa.set_fault_plan(SitePlan::default().and_window(sites::LINK_OUTAGE, window));

    // Mid-statement failure on an eligible query: falls back to the host.
    let out = idaa.execute(&mut s, "SELECT COUNT(*) FROM sales").unwrap();
    assert_eq!(out.route, Route::Host);
    assert_eq!(out.rows().unwrap().scalar().unwrap(), &Value::BigInt(1));
    assert_eq!(idaa.health().state(), HealthState::Degraded);

    // Statements that require the accelerator fail with the communication
    // SQLCODE, and repeated failures take it offline.
    for _ in 0..2 {
        let err = idaa.execute(&mut s, "INSERT INTO LOG VALUES (2)").unwrap_err();
        assert_eq!(err.sqlcode(), -30081);
    }
    assert_eq!(idaa.health().state(), HealthState::Offline);

    // While offline, eligible queries route straight to the host and a
    // host-side commit queues its replication backlog for catch-up.
    idaa.execute(&mut s, "INSERT INTO SALES VALUES (2)").unwrap();
    let out = idaa.execute(&mut s, "SELECT COUNT(*) FROM sales").unwrap();
    assert_eq!(out.route, Route::Host);
    assert_eq!(out.rows().unwrap().scalar().unwrap(), &Value::BigInt(2));
    assert!(idaa.replication_backlog() > 0, "changes queue during the outage");

    // The window passes on the virtual clock; the operator probe brings the
    // accelerator back and drains the backlog.
    idaa.link().advance(Duration::from_millis(60));
    assert!(idaa.recover());
    assert_eq!(idaa.health().state(), HealthState::Online);
    assert_eq!(idaa.replication_backlog(), 0);
    let out = idaa.execute(&mut s, "SELECT COUNT(*) FROM sales").unwrap();
    assert_eq!(out.route, Route::Accelerator);
    assert_eq!(out.rows().unwrap().scalar().unwrap(), &Value::BigInt(2));
    idaa.execute(&mut s, "INSERT INTO LOG VALUES (3)").unwrap();
    let n = idaa.query(&mut s, "SELECT COUNT(*) FROM log").unwrap();
    assert_eq!(n.scalar().unwrap(), &Value::BigInt(2));
}

// ---------------------------------------------------------------------------
// Crash–restart recovery
// ---------------------------------------------------------------------------

/// Build the two-table system with an aggressive checkpoint cadence so the
/// mid-checkpoint crash site is reachable within a short workload.
fn crash_system() -> (Idaa, idaa::Session) {
    let idaa = Idaa::new(IdaaConfig {
        replication_batch: 4,
        checkpoint_every: Duration::from_micros(300),
        ..IdaaConfig::default()
    });
    let mut s = idaa.session(SYSADM);
    idaa.execute(&mut s, "CREATE TABLE SALES (ID INT NOT NULL)").unwrap();
    idaa.execute(&mut s, "CALL ACCEL_ADD_TABLES('SALES')").unwrap();
    idaa.execute(&mut s, "CALL ACCEL_LOAD_TABLES('SALES')").unwrap();
    idaa.execute(&mut s, "CREATE TABLE LOG (X INT) IN ACCELERATOR").unwrap();
    idaa.execute(&mut s, "SET CURRENT QUERY ACCELERATION = ELIGIBLE").unwrap();
    (idaa, s)
}

/// Execute a statement until it applies: a tolerated failure (the crash
/// itself, or -904 while the engine is down) triggers an operator recovery
/// — restart, log replay, catch-up — and a retry. Crash semantics make the
/// retry safe: a failed statement was rolled back on both sides (presumed
/// abort covers the post-prepare window).
fn exec_until_applied(idaa: &Idaa, s: &mut idaa::Session, sql: &str) {
    for _ in 0..6 {
        match idaa.execute(s, sql) {
            Ok(_) => return,
            Err(e) => {
                assert_tolerated(&e);
                idaa.link().advance(Duration::from_millis(10));
                idaa.recover();
            }
        }
    }
    panic!("`{sql}` still failing after recovery retries");
}

/// One deterministic workload under one crash plan: replicated host
/// inserts, retried AOT inserts, periodic full reloads (the bulk-load
/// path), replication pulls, and a steadily advancing virtual clock (the
/// checkpoint cadence). Heals at the end and returns the link metrics, the
/// registry's firing log, and the final accelerator contents.
#[allow(clippy::type_complexity)]
fn crash_run(plan: SitePlan) -> (idaa::LinkMetrics, Vec<(String, u64)>, Vec<i32>, Vec<i32>) {
    let (idaa, mut s) = crash_system();
    let expect_crash = !plan.sites.is_empty();
    idaa.set_fault_plan(plan);
    for i in 0..40 {
        idaa.execute(&mut s, &format!("INSERT INTO SALES VALUES ({i})")).unwrap();
        exec_until_applied(&idaa, &mut s, &format!("INSERT INTO LOG VALUES ({i})"));
        if i % 10 == 9 {
            exec_until_applied(&idaa, &mut s, "CALL ACCEL_LOAD_TABLES('SALES')");
        }
        idaa.replicate_now().unwrap();
        idaa.link().advance(Duration::from_micros(100));
    }
    let fired = idaa.faults.registry.fired();
    idaa.faults.registry.clear();
    assert!(idaa.recover(), "recovery must succeed once crash injection stops");
    idaa.replicate_now().unwrap();
    assert_eq!(idaa.health().state(), HealthState::Online);
    assert_eq!(idaa.pending_accel_commits(), 0);
    assert_eq!(idaa.replication_backlog(), 0);
    if expect_crash {
        let stats = idaa.last_restart().expect("a fired crash must force a restart");
        assert!(stats.epoch >= 2, "restart must advance the recovery epoch");
    }
    (
        idaa.link().metrics(),
        fired,
        sorted_ints(idaa.accel().scan_at(Snapshot::latest(0), &ObjectName::bare("SALES")).unwrap()),
        sorted_ints(idaa.accel().scan_at(Snapshot::latest(0), &ObjectName::bare("LOG")).unwrap()),
    )
}

/// Crash at every named site, at three different pinned hit counts each:
/// after recovery and catch-up the accelerator converges to the crash-free
/// answer, and replaying the same plan reproduces byte-identical link
/// metrics and the exact same firing log.
#[test]
fn crash_at_every_named_site_converges_to_the_crash_free_answer() {
    let (_, fired, sales_clean, log_clean) = crash_run(SitePlan::default());
    assert!(fired.is_empty(), "a clean plan must never fire");
    assert_eq!(sales_clean, (0..40).collect::<Vec<_>>());
    assert_eq!(log_clean, (0..40).collect::<Vec<_>>());

    for site in [
        sites::MID_BULK_LOAD,
        sites::POST_PREPARE,
        sites::MID_REPL_APPLY,
        sites::MID_CHECKPOINT,
    ] {
        for (k, seed) in [0xA11CEu64, 0xB0B, 0xC0FFEE].into_iter().enumerate() {
            let hit = k as u64 + 1;
            let plan = SitePlan::at(site, hit).seeded(seed);
            let (m1, fired1, sales, log) = crash_run(plan.clone());
            assert_eq!(
                fired1,
                vec![(site.to_string(), hit)],
                "the pinned crash must fire exactly once at {site} hit {hit}"
            );
            assert_eq!(sales, sales_clean, "replica diverged after crash at {site} hit {hit}");
            assert_eq!(log, log_clean, "AOT diverged after crash at {site} hit {hit}");

            let (m2, fired2, sales2, log2) = crash_run(plan);
            assert_eq!(m1, m2, "crash at {site} hit {hit} must replay byte-identically");
            assert_eq!(fired1, fired2, "firing log must replay identically");
            assert_eq!(sales, sales2);
            assert_eq!(log, log2);
        }
    }
}

/// The in-doubt window end to end: a prepared transaction whose COMMIT
/// decision is queued on the coordinator survives the crash and commits on
/// restart; one whose vote never reached the coordinator is presumed
/// aborted — matching the host's rollback.
#[test]
fn crash_preserves_in_doubt_transactions_until_the_coordinator_decides() {
    let (idaa, mut s) = faulted_system(7);

    // Queued decision: prepare round-trips, the host commits and queues the
    // accelerator's COMMIT for its next message. A crash comes first.
    idaa.execute(&mut s, "BEGIN").unwrap();
    idaa.execute(&mut s, "INSERT INTO LOG VALUES (88)").unwrap();
    idaa.execute(&mut s, "COMMIT").unwrap();
    assert_eq!(idaa.pending_accel_commits(), 1);
    idaa.accel().crash();
    assert!(idaa.recover());
    assert_eq!(idaa.pending_accel_commits(), 0, "queued decision resolved on restart");
    assert_eq!(idaa.last_restart().unwrap().rematerialized_in_doubt, 1);

    // No queued decision: the crash fires right after PREPARE is durably
    // logged, the coordinator rolls back, restart presumes abort.
    idaa.execute(&mut s, "BEGIN").unwrap();
    idaa.execute(&mut s, "INSERT INTO LOG VALUES (99)").unwrap();
    idaa.faults.registry.arm(sites::POST_PREPARE, 0, 1);
    let err = idaa.execute(&mut s, "COMMIT").unwrap_err();
    assert_eq!(err.sqlcode(), -926);
    assert!(idaa.recover());
    assert_eq!(idaa.last_restart().unwrap().rematerialized_in_doubt, 1);

    // Exactly the committed row survives; health is fully restored.
    assert_eq!(
        sorted_ints(idaa.accel().scan_at(Snapshot::latest(0), &ObjectName::bare("LOG")).unwrap()),
        vec![88]
    );
    assert_eq!(idaa.health().state(), HealthState::Online);
}

/// Corrupt faults end-to-end: a damaged frame is caught by the wire
/// codec's checksum on receive (not by fiat), surfaces as a retryable
/// link error, and a retry delivers the original bytes. Failed attempts
/// charge only the failure counters: every reply and acknowledgement is
/// *delivered* exactly once (to-host traffic is byte-identical to a
/// fault-free run), and the only extra delivered to-accel messages are
/// the at-least-once request redeliveries the receiver deduplicates.
/// The whole faulted run replays byte-identically per seed.
#[test]
fn corrupt_faults_are_detected_by_checksum_and_leave_delivered_traffic_clean() {
    let workload = |plan: Option<SitePlan>| {
        let (idaa, mut s) = faulted_system(7);
        if let Some(p) = plan {
            idaa.set_fault_plan(p);
        }
        for i in 0..40 {
            idaa.execute(&mut s, &format!("INSERT INTO SALES VALUES ({i})")).unwrap();
            idaa.execute(&mut s, &format!("INSERT INTO LOG VALUES ({i})")).unwrap();
            let n = idaa.query(&mut s, "SELECT COUNT(*) FROM log").unwrap();
            assert_eq!(n.scalar().unwrap(), &Value::BigInt(i + 1));
        }
        idaa.replicate_now().unwrap();
        // Exactly-once convergence despite mid-stream corruption.
        assert_eq!(idaa.accel().scan_at(Snapshot::latest(0), &ObjectName::bare("SALES")).unwrap().len(), 40);
        assert_eq!(idaa.accel().scan_at(Snapshot::latest(0), &ObjectName::bare("LOG")).unwrap().len(), 40);
        (idaa.link().metrics(), idaa.statements_deduped())
    };
    // The seed's plan fires each way but leaves every leg within its four
    // attempts: a request's sends, and the redeliveries its lost replies
    // cost. A 12 % corruptor each way still exhausts one leg (0.12⁴ per
    // leg, a -30081 by design) on about one seed in thirty.
    let corrupting = || {
        SitePlan::default()
            .seeded(32)
            .and_probabilistic(sites::LINK_CORRUPT_TO_ACCEL, 0.12)
            .and_probabilistic(sites::LINK_CORRUPT_TO_HOST, 0.12)
    };

    let (clean, clean_dedup) = workload(None);
    assert_eq!(clean_dedup, 0);
    let (faulted, deduped) = workload(Some(corrupting()));
    assert!(faulted.failures > 0, "a 12% corrupt plan over this workload must fire");
    assert!(faulted.fault_time > Duration::ZERO, "detected corruption costs virtual time");
    // Replies and acks were each delivered exactly once: checksum-rejected
    // attempts never touched the delivered to-host counters.
    assert_eq!(faulted.bytes_to_host, clean.bytes_to_host);
    assert_eq!(faulted.messages_to_host, clean.messages_to_host);
    assert_eq!(faulted.logical_bytes_to_host, clean.logical_bytes_to_host);
    // Every extra delivered to-accel message is a deduplicated statement
    // redelivery (a corrupted reply forces the request to go out again).
    assert!(deduped > 0, "corrupted replies force request redeliveries");
    assert_eq!(faulted.messages_to_accel, clean.messages_to_accel + deduped);

    let (replay, replay_dedup) = workload(Some(corrupting()));
    assert_eq!(faulted, replay, "same seed must replay byte-identically");
    assert_eq!(deduped, replay_dedup);
}

// ---------------------------------------------------------------------------
// Fleet failover chaos
// ---------------------------------------------------------------------------

/// A 3-node fleet with 4 shards at replication factor 2 and a sharded AOT
/// ready for a scatter/gather workload.
fn fleet_system() -> (Idaa, idaa::Session) {
    let idaa = Idaa::new(IdaaConfig {
        fleet: FleetConfig {
            accelerators: 3,
            shards: 4,
            replication_factor: 2,
        },
        ..IdaaConfig::default()
    });
    let mut s = idaa.session(SYSADM);
    idaa.execute(
        &mut s,
        "CREATE TABLE FLOG (X INT NOT NULL, G VARCHAR(2)) IN ACCELERATOR DISTRIBUTE BY HASH(X)",
    )
    .unwrap();
    idaa.execute(&mut s, "SET CURRENT QUERY ACCELERATION = ELIGIBLE").unwrap();
    (idaa, s)
}

/// One deterministic scatter/gather workload, optionally crashing node 0 at
/// the mid-scatter site. Returns every per-statement answer, the per-node
/// link metrics, node 0's firing log, and the failover/rebalance counters.
#[allow(clippy::type_complexity)]
fn fleet_crash_run(
    plan: Option<SitePlan>,
) -> (Vec<Vec<idaa::Row>>, Vec<idaa::LinkMetrics>, Vec<(String, u64)>, u64, u64) {
    let (idaa, mut s) = fleet_system();
    let crashing = plan.is_some();
    if let Some(p) = plan {
        idaa.set_fault_plan_on(0, p);
    }
    let mut answers = Vec::new();
    for i in 0..30 {
        let g = if i % 2 == 0 { "a" } else { "b" };
        idaa.execute(&mut s, &format!("INSERT INTO FLOG VALUES ({i}, '{g}')")).unwrap();
        let rows = idaa
            .query(&mut s, "SELECT G, COUNT(*), SUM(X) FROM FLOG GROUP BY G ORDER BY G")
            .unwrap();
        answers.push(rows.rows);
        idaa.link().advance(Duration::from_micros(100));
    }
    let fired = idaa.node_registry(0).fired();
    idaa.node_registry(0).clear();
    if crashing {
        assert!(idaa.recover_node(0), "node 0 must recover once crash injection stops");
        assert!(idaa.fleet_catch_up_bytes() > 0, "rejoin must copy shard data over the link");
        // The restarted node rejoins and the background rebalance (virtual
        // clock) migrates its shards back to the preferred placement.
        idaa.link().advance(Duration::from_millis(25));
    }
    let rows = idaa
        .query(&mut s, "SELECT G, COUNT(*), SUM(X) FROM FLOG GROUP BY G ORDER BY G")
        .unwrap();
    answers.push(rows.rows);
    assert_eq!(
        idaa.current_primaries(),
        vec![0, 1, 2, 0],
        "every shard must be back on its preferred primary"
    );
    let metrics = (0..idaa.fleet_size()).map(|i| idaa.node_link(i).metrics()).collect();
    (answers, metrics, fired, idaa.fleet_failovers(), idaa.fleet_rebalances())
}

/// The headline robustness path: crash shard 0's primary mid-scatter. The
/// router retargets the replica inside the same statement (every answer
/// matches the crash-free run), the restarted node rejoins via catch-up,
/// the rebalance task migrates the shards back, and the whole run —
/// including every node's link metrics — replays byte-identically per seed.
#[test]
fn fleet_primary_crash_mid_scatter_fails_over_and_converges() {
    let (clean_answers, _, clean_fired, clean_failovers, _) = fleet_crash_run(None);
    assert!(clean_fired.is_empty());
    assert_eq!(clean_failovers, 0, "a clean run never fails over");

    let plan = || SitePlan::at(sites::MID_SCATTER, 3).seeded(0xF1EE7);
    let (answers, metrics, fired, failovers, rebalances) = fleet_crash_run(Some(plan()));
    assert_eq!(
        fired,
        vec![(sites::MID_SCATTER.to_string(), 3)],
        "the pinned crash must fire exactly once"
    );
    assert!(failovers > 0, "the crashed primary's shards must fail over to the replica");
    assert!(rebalances > 0, "recovered shards must migrate back to the preferred owner");
    assert_eq!(answers, clean_answers, "failover must never change a query answer");

    let (answers2, metrics2, fired2, failovers2, rebalances2) = fleet_crash_run(Some(plan()));
    assert_eq!(answers, answers2);
    assert_eq!(metrics, metrics2, "per-node link metrics must replay byte-identically");
    assert_eq!(fired, fired2);
    assert_eq!(failovers, failovers2);
    assert_eq!(rebalances, rebalances2);
}

/// A lost PREPARE vote from one fleet participant leaves the transaction
/// in-doubt on that node only: the coordinator's status inquiry resolves it
/// and the commit goes through on every replica — exactly what the single
/// accelerator does, instead of rolling the whole transaction back.
#[test]
fn fleet_lost_vote_is_resolved_by_the_status_inquiry() {
    let (idaa, mut s) = fleet_system();
    idaa.execute(&mut s, "BEGIN").unwrap();
    // Sixteen keys hash across all four shards, so all three nodes enlist.
    let vals: Vec<String> = (0..16).map(|i| format!("({i}, 'a')")).collect();
    idaa.execute(&mut s, &format!("INSERT INTO FLOG VALUES {}", vals.join(", "))).unwrap();
    // On node 1's link: PREPARE is delivered, then every attempt of its YES
    // vote is lost; the inquiry that follows finds a healed link.
    idaa.node_registry(1).arm(sites::LINK_TRANSFER, 1, 4);
    idaa.execute(&mut s, "COMMIT").unwrap();
    assert_eq!(idaa.metrics().counter("twopc.in_doubt_resolved"), 1);
    assert_eq!(idaa.in_doubt_resolved(), 1);
    // The read's requests carry every node's decision: none goes alone.
    assert_eq!(idaa.metrics().counter("twopc.decisions_alone"), 0);

    let mut other = idaa.session(SYSADM);
    idaa.execute(&mut other, "SET CURRENT QUERY ACCELERATION = ELIGIBLE").unwrap();
    let n = idaa.query(&mut other, "SELECT COUNT(*) FROM FLOG").unwrap();
    assert_eq!(n.scalar().unwrap(), &Value::BigInt(16), "commit visible to other sessions");
    // Both replicas of every shard committed: 16 rows, two copies each.
    let copies: usize = (0..4usize)
        .flat_map(|shard| (0..2usize).map(move |r| (shard, (shard + r) % 3)))
        .map(|(shard, node)| {
            let table = idaa::shard_table(&ObjectName::bare("FLOG"), shard, 4);
            idaa.node_engine(node).scan_at(Snapshot::latest(0), &table).unwrap().len()
        })
        .sum();
    assert_eq!(copies, 32);
}

/// Fleet error surfaces: losing every replica of a shard is -904 (resource
/// unavailable), while a shard whose exchange dies after retries on every
/// live replica is -30081 (communication failure).
#[test]
fn fleet_shard_loss_maps_to_db2_sqlcodes() {
    // Replication factor 1: each shard has exactly one owner.
    let idaa = Idaa::new(IdaaConfig {
        fleet: FleetConfig {
            accelerators: 2,
            shards: 2,
            replication_factor: 1,
        },
        ..IdaaConfig::default()
    });
    let mut s = idaa.session(SYSADM);
    idaa.execute(
        &mut s,
        "CREATE TABLE FLOG (X INT NOT NULL) IN ACCELERATOR DISTRIBUTE BY HASH(X)",
    )
    .unwrap();
    idaa.execute(&mut s, "SET CURRENT QUERY ACCELERATION = ELIGIBLE").unwrap();
    idaa.execute(&mut s, "INSERT INTO FLOG VALUES (1), (2), (3), (4), (5)").unwrap();

    // Crash one owner *and* sever its link so the health probe cannot
    // revive it: its shard has no live replica left.
    idaa.node_engine(1).crash();
    idaa.node_registry(1).arm(sites::LINK_TRANSFER, 0, u64::MAX);
    let err = idaa.query(&mut s, "SELECT COUNT(*) FROM FLOG").unwrap_err();
    assert_eq!(err.sqlcode(), -904, "a shard with no live replica is -904: {err}");

    // Heal it and verify the fleet serves again.
    idaa.node_registry(1).clear();
    assert!(idaa.recover_node(1));
    assert_eq!(idaa.query(&mut s, "SELECT COUNT(*) FROM FLOG").unwrap().rows.len(), 1);

    // Now kill only the statement exchange (the node itself stays up and
    // Online): the shard's gather dies after retries — -30081.
    idaa.node_registry(1).arm(sites::LINK_TRANSFER, 0, u64::MAX);
    let err = idaa.query(&mut s, "SELECT COUNT(*) FROM FLOG").unwrap_err();
    assert_eq!(err.sqlcode(), -30081, "a dead exchange on every replica is -30081: {err}");
}

// ---------------------------------------------------------------------------
// Storage fault chaos: torn writes, bit-rot, scrub, rebuild
// ---------------------------------------------------------------------------

/// Build the two-table system with explicit checkpoint and scrub cadences
/// for the storage-fault runs (the bit-rot cases disable checkpoints so
/// every record stays in the replay tail; the torn cases keep them
/// aggressive so the checkpoint sites are reachable).
fn disk_system(checkpoint_every: Duration, scrub_every: Duration) -> (Idaa, idaa::Session) {
    let idaa = Idaa::new(IdaaConfig {
        replication_batch: 4,
        checkpoint_every,
        scrub_every,
        ..IdaaConfig::default()
    });
    let mut s = idaa.session(SYSADM);
    idaa.execute(&mut s, "CREATE TABLE SALES (ID INT NOT NULL)").unwrap();
    idaa.execute(&mut s, "CALL ACCEL_ADD_TABLES('SALES')").unwrap();
    idaa.execute(&mut s, "CALL ACCEL_LOAD_TABLES('SALES')").unwrap();
    idaa.execute(&mut s, "CREATE TABLE LOG (X INT) IN ACCELERATOR").unwrap();
    idaa.execute(&mut s, "SET CURRENT QUERY ACCELERATION = ELIGIBLE").unwrap();
    (idaa, s)
}

/// Everything a storage-fault run produces, for convergence and
/// byte-identical-replay comparisons.
#[derive(Debug, PartialEq)]
struct DiskRun {
    metrics: idaa::LinkMetrics,
    fired: Vec<(String, u64)>,
    sales: Vec<i32>,
    /// Final AOT contents — or the deterministic SQLCODE when the only
    /// copy was lost and the table is quarantined.
    log: std::result::Result<Vec<i32>, i32>,
    rebuilds: u64,
    truncated: u64,
    fallbacks: u64,
    scrub_repairs: u64,
}

/// One deterministic workload under one storage-fault plan (the disk
/// analogue of [`crash_run`]): replicated host inserts, retried AOT
/// inserts, periodic bulk reloads, replication pulls, a steady virtual
/// clock — then a forced crash + recovery so any *latent* (silent) damage
/// must be read back. Either recovery repairs it locally, the node is
/// rebuilt from the host, or the loss surfaces as a quarantine — never a
/// silently wrong answer.
fn disk_run(plan: SitePlan, checkpoint_every: Duration, scrub_every: Duration) -> DiskRun {
    let (idaa, mut s) = disk_system(checkpoint_every, scrub_every);
    let expect_fault = !plan.sites.is_empty();
    idaa.set_fault_plan(plan);
    for i in 0..40 {
        idaa.execute(&mut s, &format!("INSERT INTO SALES VALUES ({i})")).unwrap();
        exec_until_applied(&idaa, &mut s, &format!("INSERT INTO LOG VALUES ({i})"));
        if i % 10 == 9 {
            exec_until_applied(&idaa, &mut s, "CALL ACCEL_LOAD_TABLES('SALES')");
        }
        idaa.replicate_now().unwrap();
        idaa.link().advance(Duration::from_micros(100));
    }
    idaa.accel().crash();
    idaa.link().advance(Duration::from_millis(10));
    assert!(idaa.recover(), "recovery must bring the accelerator back");
    idaa.replicate_now().unwrap();
    assert_eq!(idaa.health().state(), HealthState::Online);
    assert_eq!(idaa.pending_accel_commits(), 0);
    assert_eq!(idaa.replication_backlog(), 0);
    let fired = idaa.faults.registry.fired();
    if expect_fault {
        assert!(!fired.is_empty(), "the pinned storage fault must fire");
    }
    DiskRun {
        metrics: idaa.link().metrics(),
        fired,
        sales: sorted_ints(idaa.accel().scan_at(Snapshot::latest(0), &ObjectName::bare("SALES")).unwrap()),
        log: match idaa.accel().scan_at(Snapshot::latest(0), &ObjectName::bare("LOG")) {
            Ok(rows) => Ok(sorted_ints(rows)),
            Err(e) => {
                assert!(e.to_string().contains("quarantined"), "unexpected AOT loss error: {e}");
                Err(e.sqlcode())
            }
        },
        rebuilds: idaa.node_rebuilds(0),
        truncated: idaa.metrics().counter("disk.records_truncated"),
        fallbacks: idaa.metrics().counter("disk.checkpoint_fallbacks"),
        scrub_repairs: idaa.metrics().counter("disk.scrub_repairs"),
    }
}

/// Torn writes at both named sites, at three pinned hit counts each: a
/// torn log append is truncated and durably re-logged, a torn checkpoint
/// leaves the previous one authoritative — both are locally repairable
/// (no rebuild), converge to the fault-free answer, and replay
/// byte-identically per seed.
#[test]
fn torn_writes_at_named_sites_self_heal_and_replay_byte_identically() {
    let cadence = Duration::from_micros(300);
    let clean = disk_run(SitePlan::default(), cadence, Duration::ZERO);
    assert!(clean.fired.is_empty(), "a clean disk plan must never fire");
    assert_eq!(clean.sales, (0..40).collect::<Vec<_>>());
    assert_eq!(clean.log, Ok((0..40).collect::<Vec<_>>()));
    assert_eq!((clean.rebuilds, clean.truncated, clean.fallbacks), (0, 0, 0));

    for site in [sites::TORN_LOG_APPEND, sites::TORN_CHECKPOINT] {
        for (k, seed) in [0xA11CEu64, 0xB0B, 0xC0FFEE].into_iter().enumerate() {
            let hit = k as u64 + 1;
            let plan = || SitePlan::at(site, hit).seeded(seed);
            let r1 = disk_run(plan(), cadence, Duration::ZERO);
            assert_eq!(
                r1.fired,
                vec![(site.to_string(), hit)],
                "the pinned tear must fire exactly once at {site} hit {hit}"
            );
            assert_eq!(r1.sales, clean.sales, "replica diverged after tear at {site} hit {hit}");
            assert_eq!(r1.log, clean.log, "AOT diverged after tear at {site} hit {hit}");
            assert_eq!(r1.rebuilds, 0, "a torn write is locally repairable at {site}");
            match site {
                s if s == sites::TORN_LOG_APPEND => {
                    assert!(r1.truncated >= 1, "recovery must truncate the torn tail")
                }
                _ => assert!(r1.fallbacks >= 1, "recovery must discard the torn checkpoint"),
            }
            let r2 = disk_run(plan(), cadence, Duration::ZERO);
            assert_eq!(r1, r2, "tear at {site} hit {hit} must replay byte-identically");
        }
    }
}

/// Bit-rot in an *acknowledged* log record with no scrub running: the
/// forced recovery detects the checksum mismatch, refuses to replay
/// damaged state, and rebuilds the node wholesale — the replicated host
/// table is re-shipped in full, while the AOT (whose only copy was on the
/// corrupted media) is quarantined behind a deterministic -904. Never a
/// silently wrong or empty answer, and byte-identical replay per seed.
#[test]
fn acked_bitrot_without_scrub_rebuilds_the_node_and_quarantines_the_aot() {
    // Checkpoints disabled: every record stays in the replay tail, so the
    // rot is always on recovery's critical path.
    let slow = Duration::from_secs(3600);
    let clean = disk_run(SitePlan::default(), slow, Duration::ZERO);
    assert_eq!(clean.sales, (0..40).collect::<Vec<_>>());
    assert_eq!(clean.log, Ok((0..40).collect::<Vec<_>>()));

    for (k, seed) in [0xA11CEu64, 0xB0B, 0xC0FFEE].into_iter().enumerate() {
        let hit = k as u64 + 1;
        let plan = || SitePlan::at(sites::BITROT_LOG_SEGMENT, hit).seeded(seed);
        let r1 = disk_run(plan(), slow, Duration::ZERO);
        assert_eq!(
            r1.fired,
            vec![(sites::BITROT_LOG_SEGMENT.to_string(), hit)],
            "the pinned rot must fire exactly once at hit {hit}"
        );
        assert_eq!(r1.rebuilds, 1, "acked rot in the tail must force a rebuild");
        assert_eq!(r1.sales, clean.sales, "the host table must be re-shipped in full");
        assert_eq!(r1.log, Err(-904), "a lost AOT is a deterministic error, never empty");
        let r2 = disk_run(plan(), slow, Duration::ZERO);
        assert_eq!(r1, r2, "rot at hit {hit} must replay byte-identically");
    }
}

/// The same acked bit-rot with the background scrub enabled: the scrub
/// finds the checksum mismatch between statements, while the in-memory
/// state is still authoritative, and repairs it with a fresh checkpoint —
/// so the forced recovery reads clean media, nothing is quarantined, and
/// the run converges to the fault-free answer.
#[test]
fn background_scrub_repairs_latent_bitrot_before_recovery_needs_it() {
    let slow = Duration::from_secs(3600);
    let scrub = Duration::from_micros(200);
    let clean = disk_run(SitePlan::default(), slow, scrub);
    assert_eq!(clean.sales, (0..40).collect::<Vec<_>>());
    assert_eq!(clean.log, Ok((0..40).collect::<Vec<_>>()));
    assert_eq!(clean.scrub_repairs, 0, "a clean run has nothing to repair");

    for (k, seed) in [0xA11CEu64, 0xB0B, 0xC0FFEE].into_iter().enumerate() {
        let hit = k as u64 + 1;
        let plan = || SitePlan::at(sites::BITROT_LOG_SEGMENT, hit).seeded(seed);
        let r1 = disk_run(plan(), slow, scrub);
        assert_eq!(r1.fired, vec![(sites::BITROT_LOG_SEGMENT.to_string(), hit)]);
        assert!(r1.scrub_repairs >= 1, "the scrub must find and repair the rot");
        assert_eq!(r1.rebuilds, 0, "scrub repair must pre-empt the rebuild");
        assert_eq!(r1.sales, clean.sales, "replica diverged despite scrub repair");
        assert_eq!(r1.log, Ok((0..40).collect::<Vec<_>>()), "the AOT must survive intact");
        let r2 = disk_run(plan(), slow, scrub);
        assert_eq!(r1, r2, "scrub repair at hit {hit} must replay byte-identically");
    }
}

/// Bit-rot in an installed checkpoint: crash while the rotted image is
/// still the newest one, and recovery falls back to the previous valid
/// checkpoint, replaying the longer log tail between them — full
/// convergence, no rebuild, byte-identical replay per seed.
#[test]
fn rotted_checkpoint_falls_back_to_the_previous_valid_one() {
    // Hits start at 2 so a previous valid checkpoint always exists; a
    // rotted *first* checkpoint has no fallback coverage and is the
    // rebuild path, covered above.
    // Crash while the rotted checkpoint is still the newest retained one,
    // so recovery must exercise the fallback. Checked after *every*
    // statement: transfer costs advance the clock, and waiting until the
    // end of an iteration would let a newer clean checkpoint install and
    // mask the rotted image.
    fn crash_on_first_fire(idaa: &Idaa, crashed: &mut bool) {
        if !*crashed && !idaa.faults.registry.fired().is_empty() {
            idaa.accel().crash();
            idaa.link().advance(Duration::from_millis(10));
            assert!(idaa.recover(), "fallback recovery must succeed");
            *crashed = true;
        }
    }
    let run = |hit: u64, seed: u64| {
        let (idaa, mut s) = disk_system(Duration::from_micros(300), Duration::ZERO);
        idaa.set_fault_plan(SitePlan::at(sites::BITROT_CHECKPOINT, hit).seeded(seed));
        let mut crashed_after_fire = false;
        for i in 0..40 {
            idaa.execute(&mut s, &format!("INSERT INTO SALES VALUES ({i})")).unwrap();
            crash_on_first_fire(&idaa, &mut crashed_after_fire);
            exec_until_applied(&idaa, &mut s, &format!("INSERT INTO LOG VALUES ({i})"));
            crash_on_first_fire(&idaa, &mut crashed_after_fire);
            idaa.replicate_now().unwrap();
            crash_on_first_fire(&idaa, &mut crashed_after_fire);
            idaa.link().advance(Duration::from_micros(100));
        }
        assert!(crashed_after_fire, "the pinned checkpoint rot must fire within the workload");
        idaa.replicate_now().unwrap();
        assert_eq!(idaa.health().state(), HealthState::Online);
        assert!(
            idaa.metrics().counter("disk.checkpoint_fallbacks") >= 1,
            "recovery must discard the rotted checkpoint"
        );
        assert_eq!(idaa.node_rebuilds(0), 0, "a retained valid checkpoint avoids the rebuild");
        idaa.flush_commit_decisions();
        (
            idaa.link().metrics(),
            idaa.faults.registry.fired(),
            sorted_ints(idaa.accel().scan_at(Snapshot::latest(0), &ObjectName::bare("SALES")).unwrap()),
            sorted_ints(idaa.accel().scan_at(Snapshot::latest(0), &ObjectName::bare("LOG")).unwrap()),
        )
    };
    for (k, seed) in [0xA11CEu64, 0xB0B, 0xC0FFEE].into_iter().enumerate() {
        let hit = k as u64 + 2;
        let (m1, fired1, sales, log) = run(hit, seed);
        assert_eq!(fired1, vec![(sites::BITROT_CHECKPOINT.to_string(), hit)]);
        assert_eq!(sales, (0..40).collect::<Vec<_>>(), "fallback replay diverged at hit {hit}");
        assert_eq!(log, (0..40).collect::<Vec<_>>(), "AOT diverged at hit {hit}");
        let (m2, fired2, sales2, log2) = run(hit, seed);
        assert_eq!(m1, m2, "checkpoint rot at hit {hit} must replay byte-identically");
        assert_eq!(fired1, fired2);
        assert_eq!(sales, sales2);
        assert_eq!(log, log2);
    }
}

/// Transient disk read failures during recovery: each failed attempt
/// leaves the engine crashed (statements stay -904) and is retried by the
/// next operator probe; once the media reads clean, the full log replays
/// and nothing is lost.
#[test]
fn transient_disk_read_faults_delay_recovery_without_losing_state() {
    let (idaa, mut s) = disk_system(Duration::from_micros(300), Duration::ZERO);
    for i in 0..10 {
        idaa.execute(&mut s, &format!("INSERT INTO LOG VALUES ({i})")).unwrap();
    }
    idaa.accel().crash();
    idaa.set_fault_plan(
        SitePlan::at(sites::DISK_READ_FAIL, 1)
            .and_at(sites::DISK_READ_FAIL, 2)
            .seeded(0xA11CE),
    );
    assert!(!idaa.recover(), "first restart attempt dies on the read fault");
    assert!(idaa.accel().is_crashed(), "a failed read leaves the engine down");
    assert!(!idaa.recover(), "second attempt dies too");
    assert!(idaa.recover(), "third attempt reads clean and replays the log");
    assert_eq!(
        sorted_ints(idaa.accel().scan_at(Snapshot::latest(0), &ObjectName::bare("LOG")).unwrap()),
        (0..10).collect::<Vec<_>>(),
        "transient read failures must not lose acknowledged state"
    );
    assert_eq!(idaa.metrics().counter("disk.read_failures"), 2);
    assert_eq!(
        idaa.faults.registry.fired(),
        vec![
            (sites::DISK_READ_FAIL.to_string(), 1),
            (sites::DISK_READ_FAIL.to_string(), 2)
        ]
    );
}

/// The quarantine lifecycle end to end: after a rebuild loses the only
/// copy of an AOT, every statement against it is a deterministic -904
/// (never a silently empty answer) until the operator recreates the table
/// — the reload path — which lifts the quarantine.
#[test]
fn quarantine_is_explicit_and_lifted_by_recreating_the_aot() {
    let (idaa, mut s) = disk_system(Duration::from_secs(3600), Duration::ZERO);
    idaa.set_fault_plan(SitePlan::at(sites::BITROT_LOG_SEGMENT, 1).seeded(0xA11CE));
    for i in 0..8 {
        idaa.execute(&mut s, &format!("INSERT INTO LOG VALUES ({i})")).unwrap();
        idaa.execute(&mut s, &format!("INSERT INTO SALES VALUES ({i})")).unwrap();
    }
    idaa.replicate_now().unwrap();
    idaa.accel().crash();
    assert!(idaa.recover(), "the rebuild path must bring the node back");
    assert_eq!(idaa.node_rebuilds(0), 1);
    assert_eq!(idaa.accel().quarantined_tables(), vec![ObjectName::qualified("APP", "LOG")]);

    // Reads and writes against the lost table are -904 with an explicit
    // quarantine message.
    let err = idaa.query(&mut s, "SELECT COUNT(*) FROM LOG").unwrap_err();
    assert_eq!(err.sqlcode(), -904, "{err}");
    assert!(err.to_string().contains("quarantined"), "{err}");
    let err = idaa.execute(&mut s, "INSERT INTO LOG VALUES (99)").unwrap_err();
    assert_eq!(err.sqlcode(), -904, "{err}");

    // The replicated host table was re-shipped in full and serves fine.
    let out = idaa.execute(&mut s, "SELECT COUNT(*) FROM sales").unwrap();
    assert_eq!(out.rows().unwrap().scalar().unwrap(), &Value::BigInt(8));

    // Recreating the AOT is the operator's reload path: the quarantine
    // lifts and the table serves again.
    idaa.execute(&mut s, "DROP TABLE LOG").unwrap();
    idaa.execute(&mut s, "CREATE TABLE LOG (X INT) IN ACCELERATOR").unwrap();
    assert!(idaa.accel().quarantined_tables().is_empty());
    idaa.execute(&mut s, "INSERT INTO LOG VALUES (1)").unwrap();
    let n = idaa.query(&mut s, "SELECT COUNT(*) FROM LOG").unwrap();
    assert_eq!(n.scalar().unwrap(), &Value::BigInt(1));
}

/// A quarantine is recoverable state: once a checkpoint covers the
/// quarantine record, a plain crash and restart replays no record of it,
/// and the lost AOT must still answer -904 — never a silently empty `0`.
#[test]
fn quarantine_survives_a_checkpoint_and_a_restart() {
    let (idaa, mut s) = disk_system(Duration::from_secs(3600), Duration::ZERO);
    idaa.set_fault_plan(SitePlan::at(sites::BITROT_LOG_SEGMENT, 1).seeded(0xA11CE));
    for i in 0..8 {
        idaa.execute(&mut s, &format!("INSERT INTO LOG VALUES ({i})")).unwrap();
        idaa.execute(&mut s, &format!("INSERT INTO SALES VALUES ({i})")).unwrap();
    }
    idaa.replicate_now().unwrap();
    idaa.accel().crash();
    assert!(idaa.recover(), "the rebuild path must bring the node back");
    assert_eq!(idaa.node_rebuilds(0), 1);
    let err = idaa.query(&mut s, "SELECT COUNT(*) FROM LOG").unwrap_err();
    assert_eq!(err.sqlcode(), -904, "{err}");

    idaa.accel().checkpoint(idaa.link().now()).unwrap();
    idaa.accel().crash();
    idaa.link().advance(Duration::from_millis(10));
    assert!(idaa.recover(), "a plain restart must bring the node back");
    assert_eq!(idaa.node_rebuilds(0), 1, "clean media restarts without a rebuild");
    assert_eq!(idaa.accel().quarantined_tables(), vec![ObjectName::qualified("APP", "LOG")]);
    let err = idaa.query(&mut s, "SELECT COUNT(*) FROM LOG").unwrap_err();
    assert_eq!(err.sqlcode(), -904, "{err}");
    assert!(err.to_string().contains("quarantined"), "{err}");
    let out = idaa.execute(&mut s, "SELECT COUNT(*) FROM sales").unwrap();
    assert_eq!(out.rows().unwrap().scalar().unwrap(), &Value::BigInt(8));
}

/// Fleet self-healing: a sharded AOT at replication factor 2 loses one
/// node's durable state to acked bit-rot. The rebuild recreates the shard
/// definitions and refills their contents from live replicas over metered
/// wire frames — answers converge to the fault-free run and the whole
/// repair replays byte-identically per seed.
#[test]
fn fleet_rebuilds_a_corrupt_node_from_its_replicas_and_converges() {
    let build = || {
        let idaa = Idaa::new(IdaaConfig {
            // Checkpoints disabled so the rot stays in node 1's replay tail.
            checkpoint_every: Duration::from_secs(3600),
            fleet: FleetConfig {
                accelerators: 3,
                shards: 4,
                replication_factor: 2,
            },
            ..IdaaConfig::default()
        });
        let mut s = idaa.session(SYSADM);
        idaa.execute(
            &mut s,
            "CREATE TABLE FLOG (X INT NOT NULL, G VARCHAR(2)) IN ACCELERATOR DISTRIBUTE BY HASH(X)",
        )
        .unwrap();
        idaa.execute(&mut s, "SET CURRENT QUERY ACCELERATION = ELIGIBLE").unwrap();
        (idaa, s)
    };
    #[allow(clippy::type_complexity)]
    let run = |plan: Option<SitePlan>| -> (Vec<idaa::Row>, Vec<idaa::LinkMetrics>, Vec<(String, u64)>) {
        let (idaa, mut s) = build();
        let corrupting = plan.is_some();
        if let Some(p) = plan {
            idaa.set_fault_plan_on(1, p);
        }
        for i in 0..30 {
            let g = if i % 2 == 0 { "a" } else { "b" };
            idaa.execute(&mut s, &format!("INSERT INTO FLOG VALUES ({i}, '{g}')")).unwrap();
            idaa.link().advance(Duration::from_micros(100));
        }
        if corrupting {
            idaa.node_engine(1).crash();
            assert!(idaa.recover_node(1), "the rebuild must bring node 1 back");
            assert_eq!(idaa.node_rebuilds(1), 1, "acked rot must force a rebuild");
            assert!(
                idaa.fleet_catch_up_bytes() > 0,
                "the repair must copy shard contents from live replicas"
            );
            // The shard contents arrive via the fleet's metered catch-up
            // copies; `disk.repair.bytes` only counts host re-shipments
            // during the rebuild itself, which a pure AOT fleet has none of.
            assert_eq!(idaa.metrics().counter("disk.node_rebuilds"), 1);
            assert!(
                idaa.metrics().counter("fleet.catch_up.bytes") > 0,
                "replica-copy repair traffic must be metered"
            );
            assert!(
                idaa.node_engine(1).quarantined_tables().is_empty(),
                "replicated shards are rebuilt, not quarantined"
            );
            idaa.link().advance(Duration::from_millis(25));
        }
        let rows = idaa
            .query(&mut s, "SELECT G, COUNT(*), SUM(X) FROM FLOG GROUP BY G ORDER BY G")
            .unwrap();
        let metrics = (0..idaa.fleet_size()).map(|i| idaa.node_link(i).metrics()).collect();
        (rows.rows, metrics, idaa.node_registry(1).fired())
    };

    let (clean_rows, _, clean_fired) = run(None);
    assert!(clean_fired.is_empty());

    let plan = || SitePlan::at(sites::BITROT_LOG_SEGMENT, 7).seeded(0xC0FFEE);
    let (rows, metrics, fired) = run(Some(plan()));
    assert_eq!(fired, vec![(sites::BITROT_LOG_SEGMENT.to_string(), 7)]);
    assert_eq!(rows, clean_rows, "the rebuilt node must serve the fault-free answer");

    let (rows2, metrics2, fired2) = run(Some(plan()));
    assert_eq!(rows, rows2);
    assert_eq!(metrics, metrics2, "the repair must replay byte-identically per seed");
    assert_eq!(fired, fired2);
}

/// A sole-owner shard (replication factor 1) lost to storage corruption
/// has nothing to rebuild from: its shard table is quarantined and the
/// gather surfaces the deterministic -904 — never an empty answer.
#[test]
fn fleet_sole_owner_shard_loss_is_a_deterministic_error() {
    let idaa = Idaa::new(IdaaConfig {
        checkpoint_every: Duration::from_secs(3600),
        fleet: FleetConfig {
            accelerators: 2,
            shards: 2,
            replication_factor: 1,
        },
        ..IdaaConfig::default()
    });
    let mut s = idaa.session(SYSADM);
    idaa.execute(
        &mut s,
        "CREATE TABLE FLOG (X INT NOT NULL) IN ACCELERATOR DISTRIBUTE BY HASH(X)",
    )
    .unwrap();
    idaa.execute(&mut s, "SET CURRENT QUERY ACCELERATION = ELIGIBLE").unwrap();
    idaa.set_fault_plan_on(1, SitePlan::at(sites::BITROT_LOG_SEGMENT, 3).seeded(0xB0B));
    idaa.execute(&mut s, "INSERT INTO FLOG VALUES (1), (2), (3), (4), (5)").unwrap();

    idaa.node_engine(1).crash();
    assert!(idaa.recover_node(1), "the node itself comes back (on empty media)");
    assert_eq!(idaa.node_rebuilds(1), 1);
    assert!(
        !idaa.node_engine(1).quarantined_tables().is_empty(),
        "the lost sole-owner shard must be quarantined on its engine"
    );
    let err = idaa.query(&mut s, "SELECT COUNT(*) FROM FLOG").unwrap_err();
    assert_eq!(err.sqlcode(), -904, "a lost sole-owner shard is -904: {err}");
    assert!(err.to_string().contains("no live replica"), "{err}");
}

// ---------------------------------------------------------------------------
// Direct loads and analytics output on a fleet
// ---------------------------------------------------------------------------

/// The reads that judge a loaded table `L` and its LINREG model `LM`:
/// rows, or the SQLCODE.
const LOADED_READS: [&str; 2] =
    ["SELECT COUNT(*), SUM(a), SUM(b) FROM l", "SELECT term, coefficient FROM lm ORDER BY term"];

fn loaded_reads(idaa: &Idaa, s: &mut idaa::Session) -> Vec<Result<Vec<idaa::Row>, i32>> {
    LOADED_READS.iter().map(|q| idaa.query(s, q).map(|r| r.rows).map_err(|e| e.sqlcode())).collect()
}

/// `fleet` with analytics deployed and `L (A, B)` direct-loaded (in
/// batches of 8) from 30 integer records, ready for `CALL ANALYTICS.LINREG`.
fn loaded_system(fleet: FleetConfig) -> (Idaa, idaa::Session) {
    use idaa::loader::{LoadTarget, Loader, VecSource};
    let idaa = Idaa::new(IdaaConfig { fleet, ..IdaaConfig::default() });
    let mut s = idaa.session(SYSADM);
    idaa::analytics::deploy_all(&idaa, SYSADM).unwrap();
    idaa.execute(&mut s, "CREATE TABLE L (A BIGINT, B BIGINT) IN ACCELERATOR DISTRIBUTE BY HASH(A)")
        .unwrap();
    let records = (0..30i64).map(|i| vec![i.to_string(), (3 * i + 1 + i % 4).to_string()]).collect();
    let mut loader = Loader::new(SYSADM);
    loader.config.batch_size = 8;
    let source = Box::new(VecSource::new(records));
    loader.load(&idaa, source, &ObjectName::bare("L"), LoadTarget::Auto).unwrap();
    (idaa, s)
}

const LINREG: &str = "CALL ANALYTICS.LINREG('L', 'B', 'A', 'LM')";

/// The single-accelerator answers of [`LOADED_READS`].
fn single_loaded_answers() -> Vec<Result<Vec<idaa::Row>, i32>> {
    let (idaa, mut s) = loaded_system(FleetConfig::default());
    idaa.query(&mut s, LINREG).unwrap();
    loaded_reads(&idaa, &mut s)
}

/// Every owner of every shard of `tables` holds the same rows, once each
/// node has its queued COMMIT decisions.
fn assert_replicas_agree(idaa: &Idaa, fleet: &FleetConfig, tables: &[&str]) {
    idaa.flush_commit_decisions();
    let (k, shards) = (fleet.accelerators, fleet.shards);
    for &table in tables {
        for shard in 0..shards {
            let st = idaa::shard_table(&ObjectName::bare(table), shard, shards);
            let copies: Vec<Vec<String>> = (0..fleet.replication_factor.min(k))
                .map(|r| {
                    let rows = idaa.node_engine((shard + r) % k).scan_at(Snapshot::latest(0), &st).unwrap();
                    let mut rendered: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
                    rendered.sort();
                    rendered
                })
                .collect();
            assert!(copies.windows(2).all(|w| w[0] == w[1]), "replicas of {st} differ");
        }
    }
}

/// Two accelerators, one shard, replication factor 2: a direct load and a
/// LINREG reach both replicas, so when node 0 crashes (its link cut, so no
/// probe revives it) both tables fail over to node 1 and answer exactly
/// like a single accelerator. The run replays byte-identically.
#[test]
fn fleet_failover_serves_direct_loads_and_analytics_output() {
    let fleet = FleetConfig { accelerators: 2, replication_factor: 2, ..FleetConfig::default() };
    let run = || {
        let (idaa, mut s) = loaded_system(fleet.clone());
        idaa.query(&mut s, LINREG).unwrap();
        assert_replicas_agree(&idaa, &fleet, &["L", "LM"]);
        idaa.node_engine(0).crash();
        idaa.node_registry(0).arm(sites::LINK_TRANSFER, 0, u64::MAX);
        let answers = loaded_reads(&idaa, &mut s);
        assert!(idaa.fleet_failovers() > 0, "the reads must fail over to node 1");
        let metrics: Vec<_> = (0..2).map(|i| idaa.node_link(i).metrics()).collect();
        (answers, metrics)
    };
    let (answers, metrics) = run();
    assert_eq!(answers, single_loaded_answers(), "failover must return the K=1 answers");
    assert_eq!(run(), (answers, metrics), "the run must replay byte-identically");
}

/// Two accelerators, one shard, replication factor 2: node 1's link dies
/// after the load's first frame. The load commits on node 0, which took
/// every batch; node 1 aborts its part (none of it ever becomes visible)
/// and, healed, catches up before it serves — so a failover read returns
/// every loaded row. The run replays byte-identically.
#[test]
fn fleet_direct_load_survives_an_owner_losing_its_link() {
    let fleet = FleetConfig { accelerators: 2, replication_factor: 2, ..FleetConfig::default() };
    let run = || {
        use idaa::loader::{LoadTarget, Loader, VecSource};
        let idaa = Idaa::new(IdaaConfig { fleet: fleet.clone(), ..IdaaConfig::default() });
        let mut s = idaa.session(SYSADM);
        idaa.execute(&mut s, "CREATE TABLE L (A BIGINT, B BIGINT) IN ACCELERATOR").unwrap();
        idaa.node_registry(1).arm(sites::LINK_TRANSFER, 1, u64::MAX);
        let records = (0..30i64).map(|i| vec![i.to_string(), (2 * i).to_string()]).collect();
        let mut loader = Loader::new(SYSADM);
        loader.config.batch_size = 8;
        let source = Box::new(VecSource::new(records));
        loader.load(&idaa, source, &ObjectName::bare("L"), LoadTarget::Auto).unwrap();
        let partial = idaa.node_engine(1).scan_at(Snapshot::latest(0), &ObjectName::bare("L")).unwrap();
        assert!(partial.is_empty(), "node 1's part of the load must not become visible");
        idaa.node_registry(1).clear();
        assert!(idaa.recover_node(1));
        assert_replicas_agree(&idaa, &fleet, &["L"]);
        idaa.node_engine(0).crash();
        idaa.node_registry(0).arm(sites::LINK_TRANSFER, 0, u64::MAX);
        let rows = idaa.query(&mut s, "SELECT COUNT(*), SUM(a), SUM(b) FROM l").unwrap().rows;
        let metrics: Vec<_> = (0..2).map(|i| idaa.node_link(i).metrics()).collect();
        (rows, metrics)
    };
    let (rows, metrics) = run();
    assert_eq!(rows, vec![vec![Value::BigInt(30), Value::BigInt(435), Value::BigInt(870)]]);
    assert_eq!(run(), (rows, metrics), "the run must replay byte-identically");
}

/// Two accelerators, one shard, replication factor 2: node 1 misses a
/// write while its link is down, then node 0 — the only up-to-date owner —
/// becomes unavailable. Node 1 cannot catch up from anyone, so it must not
/// serve: the read fails with -904, never with node 1's stale rows, and
/// returns the fault-free answer once node 0 is back.
#[test]
fn fleet_catch_up_without_a_source_keeps_the_lagging_node_out() {
    let fleet = FleetConfig { accelerators: 2, replication_factor: 2, ..FleetConfig::default() };
    let idaa = Idaa::new(IdaaConfig { fleet, ..IdaaConfig::default() });
    let mut s = idaa.session(SYSADM);
    idaa.execute(&mut s, "CREATE TABLE L (A BIGINT) IN ACCELERATOR").unwrap();
    idaa.execute(&mut s, "SET CURRENT QUERY ACCELERATION = ELIGIBLE").unwrap();
    idaa.execute(&mut s, "INSERT INTO L VALUES (1), (2)").unwrap();
    idaa.node_registry(1).arm(sites::LINK_TRANSFER, 0, u64::MAX);
    idaa.execute(&mut s, "INSERT INTO L VALUES (3)").unwrap();
    idaa.node_registry(1).clear();
    idaa.flush_commit_decisions();
    let stale = idaa.node_engine(1).scan_at(Snapshot::latest(0), &ObjectName::bare("L")).unwrap();
    assert_eq!(stale.len(), 2, "node 1 missed the second write");

    idaa.node_engine(0).crash();
    idaa.node_registry(0).arm(sites::LINK_TRANSFER, 0, u64::MAX);
    let count = "SELECT COUNT(*) FROM L";
    let err = idaa.query(&mut s, count).map(|r| r.rows).unwrap_err();
    assert_eq!(err.sqlcode(), -904, "a lagging replica with no source must not serve: {err}");

    idaa.node_registry(0).clear();
    assert!(idaa.recover_node(0), "node 0 comes back");
    let answer = vec![vec![Value::BigInt(3)]];
    assert_eq!(idaa.query(&mut s, count).unwrap().rows, answer);
    // Once caught up from node 0, node 1 serves the full answer alone.
    assert!(idaa.recover_node(1), "node 1 catches up from node 0");
    idaa.node_engine(0).crash();
    idaa.node_registry(0).arm(sites::LINK_TRANSFER, 0, u64::MAX);
    assert_eq!(idaa.query(&mut s, count).unwrap().rows, answer);
}

/// Three accelerators, four shards, replication factor 2: nodes 0 and 1,
/// the two owners of shards 0 and 3, both miss a write that no owner of
/// some shard took. The write changed nothing, so neither node lags the
/// other: both recover, and the table answers and takes writes again.
#[test]
fn fleet_a_write_no_owner_took_leaves_nothing_to_catch_up() {
    let fleet = FleetConfig { accelerators: 3, shards: 4, replication_factor: 2 };
    let idaa = Idaa::new(IdaaConfig { fleet, ..IdaaConfig::default() });
    let mut s = idaa.session(SYSADM);
    idaa.execute(&mut s, "CREATE TABLE T (K INT NOT NULL, V INT) IN ACCELERATOR").unwrap();
    idaa.execute(&mut s, "INSERT INTO T VALUES (1, 1), (2, 2), (3, 3), (4, 4)").unwrap();
    let insert = "INSERT INTO T VALUES (5, 5), (6, 6), (7, 7), (8, 8), (9, 9), (10, 10)";
    for node in [0, 1] {
        idaa.node_registry(node).arm(sites::LINK_TRANSFER, 0, u64::MAX);
    }
    let err = idaa.execute(&mut s, insert).unwrap_err();
    assert_eq!(err.sqlcode(), -30081, "{err}");
    for node in [0, 1] {
        idaa.node_registry(node).clear();
    }
    assert!(idaa.recover_node(0), "node 0 has nothing to catch up to");
    assert!(idaa.recover_node(1), "node 1 has nothing to catch up to");
    let count = "SELECT COUNT(*) FROM T";
    assert_eq!(idaa.query(&mut s, count).unwrap().rows, vec![vec![Value::BigInt(4)]]);
    assert_eq!(idaa.execute(&mut s, insert).unwrap().count(), 6);
    assert_eq!(idaa.query(&mut s, count).unwrap().rows, vec![vec![Value::BigInt(10)]]);
}

/// Three accelerators, four shards, replication factor 2; `T(K, V)` is
/// hashed on K, and node 2 owns shards 1 and 2. Node 2 misses one
/// single-row INSERT into shard 1 while it holds 2 000 rows of shard 2, so
/// its catch-up copies shard 1 alone (both legs of that one row's frame),
/// never shard 2, which it had not missed.
#[test]
fn fleet_catch_up_copies_only_the_shards_a_node_missed() {
    let fleet = FleetConfig { accelerators: 3, shards: 4, replication_factor: 2 };
    let idaa = Idaa::new(IdaaConfig { fleet: fleet.clone(), ..IdaaConfig::default() });
    let mut s = idaa.session(SYSADM);
    idaa.execute(&mut s, "CREATE TABLE T (K INT NOT NULL, V INT) IN ACCELERATOR DISTRIBUTE BY HASH(K)").unwrap();
    let keys = |shard| (0..).filter(move |&k| idaa::shard_of(&Value::Int(k), 4) == shard);
    let rows: Vec<String> = keys(2).take(2000).map(|k| format!("({k}, 0)")).collect();
    idaa.execute(&mut s, &format!("INSERT INTO T VALUES {}", rows.join(", "))).unwrap();
    let missed = keys(1).next().unwrap();
    idaa.node_registry(2).arm(sites::LINK_TRANSFER, 0, u64::MAX);
    idaa.execute(&mut s, &format!("INSERT INTO T VALUES ({missed}, 1)")).unwrap();
    idaa.node_registry(2).clear();

    assert!(idaa.recover_node(2), "node 2 catches up from node 1");
    let shard1 = idaa::shard_table(&ObjectName::bare("T"), 1, 4);
    let schema = idaa.node_engine(1).table(&shard1).unwrap().schema.clone();
    let row = vec![vec![Value::Int(missed), Value::Int(1)]];
    let frame = idaa::common::wire::encode_frame(&schema, &row).len() as u64;
    assert_eq!(idaa.fleet_catch_up_bytes(), 2 * frame, "shard 1's one row, not shard 2's 2 000");
    assert_replicas_agree(&idaa, &fleet, &["T"]);
    assert_eq!(idaa.query(&mut s, "SELECT COUNT(*) FROM T").unwrap().rows, vec![vec![Value::BigInt(2001)]]);
}

/// Three accelerators, four shards, replication factor 2: a crash at the
/// bulk-load site on one owner while LINREG writes its output. The CALL
/// completes on the surviving replicas or fails with the deterministic
/// -904; no read ever returns a wrong row, the crashed owner converges
/// after recovery, and every plan replays byte-identically.
#[test]
fn fleet_crash_mid_output_write_converges_or_fails_904() {
    let fleet = FleetConfig { accelerators: 3, shards: 4, replication_factor: 2 };
    let expected = single_loaded_answers();
    let run = |node: usize, plan: SitePlan| {
        let (idaa, mut s) = loaded_system(fleet.clone());
        idaa.set_fault_plan_on(node, plan);
        let call = idaa.query(&mut s, LINREG).map(drop).map_err(|e| e.sqlcode());
        let first = loaded_reads(&idaa, &mut s);
        let fired = idaa.node_registry(node).fired();
        idaa.node_registry(node).clear();
        assert!(idaa.recover_node(node), "node {node} must recover once injection stops");
        if call.is_err() {
            idaa.query(&mut s, LINREG).unwrap();
        }
        let after = loaded_reads(&idaa, &mut s);
        assert_replicas_agree(&idaa, &fleet, &["L", "LM"]);
        let metrics: Vec<_> = (0..3).map(|i| idaa.node_link(i).metrics()).collect();
        (call, first, after, fired, metrics)
    };
    for (node, hits) in [(0usize, 3u64), (1, 3), (2, 2)] {
        for hit in 1..=hits {
            let plan = || SitePlan::at(sites::MID_BULK_LOAD, hit).seeded(0xB17 + hit);
            let outcome = run(node, plan());
            let (call, first, after, fired, _) = &outcome;
            assert_eq!(fired, &vec![(sites::MID_BULK_LOAD.to_string(), hit)], "node {node} hit {hit}");
            match call {
                Ok(()) => assert_eq!(first, &expected, "node {node} hit {hit}: a wrong row"),
                Err(code) => assert_eq!(*code, -904, "node {node} hit {hit}"),
            }
            assert_eq!(after, &expected, "node {node} hit {hit} did not converge");
            assert_eq!(run(node, plan()), outcome, "node {node} hit {hit} must replay identically");
        }
    }
}

// ---------------------------------------------------------------------------
// Server scheduler chaos: crashes while statements sit queued
// ---------------------------------------------------------------------------

/// Render a completion so replay comparisons cover identity, answer,
/// admission order *and* queue timing.
fn render_completion(c: &idaa::Completion) -> String {
    let result = match &c.result {
        Ok(out) => match out.rows() {
            Some(rows) => rows.to_csv().replace('\n', ";"),
            None => format!("count={}", out.count()),
        },
        Err(e) => format!("sqlcode={}", e.sqlcode()),
    };
    format!(
        "seat={} stmt={} round={} waited={} queued_us={} sql={} -> {}",
        c.session,
        c.statement,
        c.round,
        c.waited_rounds,
        c.queued.as_micros(),
        c.sql,
        result
    )
}

/// One deterministic two-seat server workload over the 3-node fleet,
/// optionally crashing node 0 mid-scatter while later statements still sit
/// queued. Returns the rendered completion log, every node's link metrics,
/// node 0's firing log, and the post-recovery convergence answer.
#[allow(clippy::type_complexity)]
fn server_fleet_run(
    plan: Option<SitePlan>,
) -> (Vec<String>, Vec<idaa::LinkMetrics>, Vec<(String, u64)>, String) {
    let (idaa, mut admin) = fleet_system();
    for i in 0..8 {
        let g = if i % 2 == 0 { "a" } else { "b" };
        idaa.execute(&mut admin, &format!("INSERT INTO FLOG VALUES ({i}, '{g}')")).unwrap();
    }
    drop(admin);
    let srv = idaa::Server::with_idaa(
        idaa,
        idaa::ServerConfig { admission_limit: 1, ..idaa::ServerConfig::default() },
    );
    let writer = srv.connect(SYSADM).unwrap();
    let reader = srv.connect(SYSADM).unwrap();
    srv.execute(writer, "SET CURRENT QUERY ACCELERATION = ELIGIBLE").unwrap();
    srv.execute(reader, "SET CURRENT QUERY ACCELERATION = ELIGIBLE").unwrap();

    // Arm the crash only now, so the pinned hit lands inside the scheduled
    // batch below — while statements are still waiting in the queues.
    let crashing = plan.is_some();
    if let Some(p) = plan {
        srv.idaa().set_fault_plan_on(0, p);
    }
    for i in 8..20 {
        let g = if i % 2 == 0 { "a" } else { "b" };
        srv.submit(writer, &format!("INSERT INTO FLOG VALUES ({i}, '{g}')")).unwrap();
        srv.submit(reader, "SELECT G, COUNT(*), SUM(X) FROM FLOG GROUP BY G ORDER BY G").unwrap();
    }
    let completions = srv.run_until_idle();
    assert_eq!(completions.len(), 24, "every queued statement must drain to a completion");
    assert!(
        completions.iter().any(|c| c.waited_rounds > 0),
        "with admission limit 1 the batch must actually queue"
    );
    for c in &completions {
        if let Err(e) = &c.result {
            assert_tolerated(e);
        }
    }

    let idaa = srv.idaa();
    let fired = idaa.node_registry(0).fired();
    idaa.node_registry(0).clear();
    if crashing {
        assert!(idaa.recover_node(0), "node 0 must recover once crash injection stops");
        idaa.link().advance(Duration::from_millis(25));
    }
    let converged = srv
        .query(reader, "SELECT G, COUNT(*), SUM(X) FROM FLOG GROUP BY G ORDER BY G")
        .unwrap()
        .to_csv();
    assert_eq!(
        idaa.current_primaries(),
        vec![0, 1, 2, 0],
        "every shard must be back on its preferred primary"
    );
    let metrics = (0..idaa.fleet_size()).map(|i| idaa.node_link(i).metrics()).collect();
    (completions.iter().map(render_completion).collect(), metrics, fired, converged)
}

/// Drop the `queued_us=…` field from a rendered completion: failover
/// retries consume virtual time, so queue durations legitimately differ
/// between a clean and a crashed run (the timing column), while identity,
/// answer and admission order must not.
fn without_queue_time(line: &str) -> String {
    let start = line.find(" queued_us=").expect("rendered completion has a queued_us field");
    let rest = &line[start + 1..];
    let end = rest.find(' ').unwrap();
    format!("{}{}", &line[..start], &rest[end..])
}

/// Crash shard 0's primary mid-scatter while a two-seat batch sits queued
/// on the server: the scheduler keeps draining (failover retargets the
/// replica inside the running statement, so every answer matches the
/// crash-free run), the queue never wedges, and the whole run — completion
/// log, per-node link metrics, firing log — replays byte-identically per
/// seed.
#[test]
fn server_queued_statements_drain_across_a_mid_scatter_crash() {
    let (clean_log, _, clean_fired, clean_answer) = server_fleet_run(None);
    assert!(clean_fired.is_empty(), "a clean run must never fire");
    assert!(
        clean_log.iter().all(|l| !l.contains("sqlcode=")),
        "a clean run completes every statement"
    );

    let plan = || SitePlan::at(sites::MID_SCATTER, 3).seeded(0x5EA75);
    let (log1, metrics1, fired1, answer1) = server_fleet_run(Some(plan()));
    assert_eq!(
        fired1,
        vec![(sites::MID_SCATTER.to_string(), 3)],
        "the pinned crash must fire exactly once, mid-drain"
    );
    assert_eq!(
        log1.iter().map(|l| without_queue_time(l)).collect::<Vec<_>>(),
        clean_log.iter().map(|l| without_queue_time(l)).collect::<Vec<_>>(),
        "replica failover inside the scheduler must not change any completion"
    );
    assert_eq!(answer1, clean_answer, "post-recovery convergence answer diverged");

    let (log2, metrics2, fired2, answer2) = server_fleet_run(Some(plan()));
    assert_eq!(log1, log2, "the scheduled completion log must replay byte-identically");
    assert_eq!(metrics1, metrics2, "per-node link metrics must replay byte-identically");
    assert_eq!(fired1, fired2);
    assert_eq!(answer1, answer2);
}

/// Retry a statement through the server until it applies — the scheduled
/// analogue of [`exec_until_applied`]: a tolerated failure triggers an
/// operator recovery and a resubmission.
fn server_exec_until_applied(srv: &idaa::Server, seat: idaa::SeatId, sql: &str) {
    for _ in 0..6 {
        match srv.execute(seat, sql) {
            Ok(_) => return,
            Err(e) => {
                assert_tolerated(&e);
                srv.idaa().link().advance(Duration::from_millis(10));
                srv.idaa().recover();
            }
        }
    }
    panic!("`{sql}` still failing after recovery retries");
}

/// One deterministic two-seat server workload over a single accelerator
/// with a pinned storage-fault plan: queued AOT inserts drain (tolerated
/// failures are recovered and resubmitted), a forced crash then makes
/// recovery read back any latent damage, and the run must converge to the
/// fault-free contents.
#[allow(clippy::type_complexity)]
fn server_disk_run(
    plan: SitePlan,
) -> (idaa::LinkMetrics, Vec<(String, u64)>, Vec<String>, Vec<i32>, u64) {
    let (idaa, _admin) = disk_system(Duration::from_micros(300), Duration::ZERO);
    let srv = idaa::Server::with_idaa(
        idaa,
        idaa::ServerConfig { admission_limit: 1, ..idaa::ServerConfig::default() },
    );
    let a = srv.connect(SYSADM).unwrap();
    let b = srv.connect(SYSADM).unwrap();
    srv.idaa().set_fault_plan(plan);
    for i in 0..12 {
        let seat = if i % 2 == 0 { a } else { b };
        srv.submit(seat, &format!("INSERT INTO LOG VALUES ({i})")).unwrap();
        srv.idaa().link().advance(Duration::from_micros(100));
    }
    let completions = srv.run_until_idle();
    assert_eq!(completions.len(), 12, "every queued insert must drain to a completion");
    // A statement the storage fault killed completed with a tolerated
    // error; recover the engine and push it back through the scheduler.
    for c in &completions {
        if let Err(e) = &c.result {
            assert_tolerated(e);
            srv.idaa().link().advance(Duration::from_millis(10));
            srv.idaa().recover();
            server_exec_until_applied(&srv, c.session, &c.sql);
        }
    }

    // Forced crash + recovery: any *latent* torn record must now be read
    // back, truncated and durably re-logged — never silently dropped.
    let idaa = srv.idaa();
    idaa.accel().crash();
    idaa.link().advance(Duration::from_millis(10));
    for _ in 0..3 {
        if idaa.recover() {
            break;
        }
        idaa.link().advance(Duration::from_millis(10));
    }
    assert_eq!(idaa.health().state(), HealthState::Online);
    // Queued work resumes against the recovered engine.
    let post = srv.query(a, "SELECT COUNT(*) FROM LOG").unwrap();
    assert_eq!(post.scalar().unwrap().render(), "12");
    (
        idaa.link().metrics(),
        idaa.faults.registry.fired(),
        completions.iter().map(render_completion).collect(),
        sorted_ints(idaa.accel().scan_at(Snapshot::latest(0), &ObjectName::bare("LOG")).unwrap()),
        idaa.metrics().counter("disk.records_truncated"),
    )
}

/// A torn log append fired while server statements sit queued: the queue
/// drains (the damaged statement fails with a tolerated SQLCODE and is
/// resubmitted after recovery, or the tear stays latent until the forced
/// crash), recovery truncates and re-logs the torn tail, the AOT converges
/// to the fault-free contents, and the run replays byte-identically per
/// seed.
#[test]
fn server_queued_statements_survive_a_torn_log_append() {
    let (_, clean_fired, clean_log, clean_rows, clean_truncated) =
        server_disk_run(SitePlan::default());
    assert!(clean_fired.is_empty(), "a clean disk plan must never fire");
    assert_eq!(clean_rows, (0..12).collect::<Vec<_>>());
    assert_eq!(clean_truncated, 0);
    assert!(clean_log.iter().all(|l| !l.contains("sqlcode=")));

    let plan = || SitePlan::at(sites::TORN_LOG_APPEND, 3).seeded(0x70A7);
    let (m1, fired1, log1, rows1, truncated1) = server_disk_run(plan());
    assert_eq!(
        fired1,
        vec![(sites::TORN_LOG_APPEND.to_string(), 3)],
        "the pinned tear must fire exactly once"
    );
    assert_eq!(rows1, clean_rows, "the AOT must converge to the fault-free contents");
    assert!(truncated1 >= 1, "recovery must truncate and re-log the torn tail");

    let (m2, fired2, log2, rows2, truncated2) = server_disk_run(plan());
    assert_eq!(m1, m2, "the faulted server run must replay byte-identically");
    assert_eq!(fired1, fired2);
    assert_eq!(log1, log2, "the completion log must replay byte-identically");
    assert_eq!(rows1, rows2);
    assert_eq!(truncated1, truncated2);
}

/// The same fleet: while nodes 0 and 1 lose their links, a CREATE reaches
/// only node 2, and single-row inserts reach node 2 and miss the others.
/// Node 0 then lags only on shards node 1 holds whole, and node 1 only on
/// shards node 0 holds whole, so each catches up from the other or from
/// node 2, and every table answers with what its writes committed.
#[test]
fn fleet_owners_that_missed_different_shards_catch_up() {
    let fleet = FleetConfig { accelerators: 3, shards: 4, replication_factor: 2 };
    let idaa = Idaa::new(IdaaConfig { fleet, ..IdaaConfig::default() });
    let mut s = idaa.session(SYSADM);
    idaa.execute(&mut s, "CREATE TABLE T (K INT NOT NULL, V INT) IN ACCELERATOR").unwrap();
    idaa.execute(&mut s, "INSERT INTO T VALUES (1, 1), (2, 2), (3, 3), (4, 4)").unwrap();
    let (count, mut committed) = (|t: &str| format!("SELECT COUNT(*) FROM {t}"), 4);
    for round in 0..2 {
        for node in [0, 1] {
            idaa.node_registry(node).arm(sites::LINK_TRANSFER, 0, u64::MAX);
        }
        if round == 0 {
            idaa.execute(&mut s, "CREATE TABLE U (K INT NOT NULL) IN ACCELERATOR").unwrap();
        }
        for k in 11..19 {
            match idaa.execute(&mut s, &format!("INSERT INTO T VALUES ({k}, {k})")) {
                Ok(_) => committed += 1,
                Err(e) => assert_eq!(e.sqlcode(), -30081, "{e}"),
            }
        }
        for node in [0, 1] {
            idaa.node_registry(node).clear();
        }
        assert!(idaa.recover_node(0) && idaa.recover_node(1), "round {round}");
        let answer = |n| vec![vec![Value::BigInt(n)]];
        assert_eq!(idaa.query(&mut s, &count("T")).unwrap().rows, answer(committed), "round {round}");
        assert_eq!(idaa.query(&mut s, &count("U")).unwrap().rows, answer(0), "round {round}");
    }
    assert!(committed > 4, "some inserts reached node 2 alone");
}

/// The rows of `T(K, V)`, sorted.
fn kv_rows(idaa: &Idaa, s: &mut idaa::Session) -> Vec<(i32, i32)> {
    let rows = idaa.query(s, "SELECT K, V FROM T").unwrap().rows;
    let mut out: Vec<(i32, i32)> = rows
        .iter()
        .map(|r| match (&r[0], &r[1]) {
            (Value::Int(k), Value::Int(v)) => (*k, *v),
            other => panic!("not an INT pair: {other:?}"),
        })
        .collect();
    out.sort();
    out
}

/// Three accelerators, four shards, replication factor 2; `T(K, V)` is
/// hashed on K, and shard *s* is owned by nodes *s* and *s* + 1 mod 3.
/// After `setup`, which opens a transaction, node 2's link fails under
/// `faulted`: nodes 1 and 0 take the writes to the shards they share with
/// node 2, uncommitted, and node 2 is flagged to catch up. A catch-up copy
/// holds committed rows only, so node 2 must not copy a shard from an owner
/// holding the open transaction's versions of it: until the decision it
/// sits out like a down owner. Every read, in the transaction and after
/// COMMIT and recovery, returns `expected`, and every owner of every shard
/// holds the same committed rows.
fn an_undecided_write_is_never_copied_around(setup: &[&str], faulted: &[&str], expected: &[(i32, i32)]) {
    let fleet = FleetConfig { accelerators: 3, shards: 4, replication_factor: 2 };
    let idaa = Idaa::new(IdaaConfig { fleet: fleet.clone(), ..IdaaConfig::default() });
    let mut s = idaa.session(SYSADM);
    idaa.execute(&mut s, "CREATE TABLE T (K INT NOT NULL, V INT) IN ACCELERATOR DISTRIBUTE BY HASH(K)").unwrap();
    for sql in setup {
        idaa.execute(&mut s, sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    }
    idaa.node_registry(2).arm(sites::LINK_TRANSFER, 0, 1000);
    for sql in faulted {
        idaa.execute(&mut s, sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    }
    idaa.node_registry(2).clear();
    assert_eq!(kv_rows(&idaa, &mut s), expected, "in the transaction");
    assert_replicas_agree(&idaa, &fleet, &["T"]);
    idaa.execute(&mut s, "COMMIT").unwrap();
    assert!((0..3).all(|i| idaa.recover_node(i)), "every node recovers once the fault clears");
    assert_eq!(kv_rows(&idaa, &mut s), expected, "after COMMIT and recovery");
    assert_replicas_agree(&idaa, &fleet, &["T"]);
}

/// An INSERT of 11 to 18 into `T` holding (1, 1), (2, 2) and (3, 3), inside
/// a transaction whose statements before it were `opening`.
fn an_open_insert_is_never_copied_around(opening: &[&str]) {
    let mut setup = vec!["INSERT INTO T VALUES (1, 1), (2, 2), (3, 3)", "BEGIN"];
    setup.extend(opening);
    let insert = "INSERT INTO T VALUES (11, 1), (12, 1), (13, 1), (14, 1), (15, 1), (16, 1), (17, 1), (18, 1)";
    let mut expected = vec![(1, 1), (2, 2), (3, 3)];
    expected.extend((11..19).map(|k| (k, 1)));
    an_undecided_write_is_never_copied_around(&setup, &[insert], &expected);
}

#[test]
fn fleet_an_open_insert_is_never_copied_around() {
    an_open_insert_is_never_copied_around(&["SELECT K FROM T"]);
}

#[test]
fn fleet_an_open_first_statement_insert_is_never_copied_around() {
    an_open_insert_is_never_copied_around(&[]);
}

#[test]
fn fleet_an_open_update_and_delete_are_never_copied_around() {
    let setup = ["INSERT INTO T VALUES (1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (6, 6), (7, 7), (8, 8)", "BEGIN"];
    let faulted = ["UPDATE T SET V = V * 10", "DELETE FROM T WHERE K > 6"];
    let expected: Vec<(i32, i32)> = (1..7).map(|k| (k, 10 * k)).collect();
    an_undecided_write_is_never_copied_around(&setup, &faulted, &expected);
}
