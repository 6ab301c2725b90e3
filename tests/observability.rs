//! Query-lifecycle observability: deterministic trace span trees on the
//! virtual clock, each system's own metrics registry, and EXPLAIN ANALYZE.
//!
//! The invariants under test:
//!
//! * every statement produces a well-nested span tree whose timestamps are
//!   virtual-clock offsets only — two same-seed runs render byte-identical
//!   traces;
//! * an AOT `INSERT … SELECT` pushdown trace contains control-message
//!   transfers only (no row frames cross the link);
//! * the `link.*` and `link.node{i}.*` counters are each link's own
//!   counts, which `LinkMetrics` reads back, and counters stay monotone
//!   under seeded chaos;
//! * retries, crash recovery, and 2PC legs all surface as trace events;
//! * the `disk.*` storage-fault counters are the engines' own counts, and
//!   scrub detections / node rebuilds surface as structural trace events.

use idaa::accel::Snapshot;
use idaa::netsim::{sites, LinkMetrics};
use idaa::{FleetConfig, Idaa, IdaaConfig, Route, SitePlan, Value, SYSADM};
use std::time::Duration;

/// Drop a fraction `p` of messages in both directions.
fn dropping(seed: u64, p: f64) -> SitePlan {
    SitePlan::default()
        .seeded(seed)
        .and_probabilistic(sites::LINK_DROP_TO_ACCEL, p)
        .and_probabilistic(sites::LINK_DROP_TO_HOST, p)
}

fn seeded_system() -> (Idaa, idaa::Session) {
    let idaa = Idaa::default();
    let s = idaa.session(SYSADM);
    (idaa, s)
}

/// Build an accelerated SALES table plus an AOT staging table.
fn stage_setup(idaa: &Idaa, s: &mut idaa::Session, rows: usize) {
    idaa.execute(s, "CREATE TABLE SALES (ID INT NOT NULL, REGION VARCHAR(8), AMOUNT DOUBLE)")
        .unwrap();
    let vals: Vec<String> = (0..rows)
        .map(|i| format!("({i}, '{}', {}.0E0)", ["EU", "US"][i % 2], i))
        .collect();
    idaa.execute(s, &format!("INSERT INTO SALES VALUES {}", vals.join(", "))).unwrap();
    idaa.execute(s, "CALL ACCEL_ADD_TABLES('SALES')").unwrap();
    idaa.execute(s, "CALL ACCEL_LOAD_TABLES('SALES')").unwrap();
    idaa.execute(s, "CREATE TABLE STAGE (REGION VARCHAR(8), TOTAL DOUBLE) IN ACCELERATOR")
        .unwrap();
    idaa.execute(s, "SET CURRENT QUERY ACCELERATION = ELIGIBLE").unwrap();
}

#[test]
fn offloaded_query_trace_covers_the_whole_lifecycle() {
    let (idaa, mut s) = seeded_system();
    stage_setup(&idaa, &mut s, 64);
    idaa.tracer().clear();
    idaa.query(&mut s, "SELECT region, SUM(amount) FROM sales GROUP BY region").unwrap();

    let trace = idaa.tracer().last_containing("SUM(AMOUNT)").expect("trace recorded");
    let root = &trace.root;
    root.validate().unwrap();
    assert_eq!(root.name, "statement");
    assert_eq!(root.attr("route"), Some("Accelerator"));

    // Parse, route decision (with reason), privilege check, the shipped
    // statement and its reply frame, and per-operator spans all appear.
    assert!(root.find("parse").is_some(), "{}", root.render());
    let route = root.find("route").expect("route event");
    assert_eq!(route.attr("route"), Some("Accelerator"));
    assert_eq!(route.attr("reason"), Some("all tables accelerated"));
    assert_eq!(route.attr("mode"), Some("ELIGIBLE"));
    let privilege = root.find("privilege").expect("privilege event");
    assert_eq!(privilege.attr("priv"), Some("SELECT"));

    let transfers = root.find_all("transfer");
    assert!(
        transfers.iter().any(|t| t.attr("kind") == Some("stmt") && t.attr("dir") == Some("to_accel")),
        "statement request must cross the link: {}",
        root.render()
    );
    assert!(
        transfers.iter().any(|t| t.attr("kind") == Some("frame") && t.attr("dir") == Some("to_host")),
        "result frame must travel back: {}",
        root.render()
    );

    let ops = root.find_all("op");
    assert!(
        ops.iter().any(|o| o.attr("op").is_some_and(|l| l.starts_with("AGGREGATE"))),
        "aggregate operator span missing: {}",
        root.render()
    );
    assert!(
        ops.iter().any(|o| o.attr("rows") == Some("2")),
        "two groups out of the aggregate: {}",
        root.render()
    );
}

#[test]
fn aot_insert_select_trace_shows_control_frames_only() {
    // The pushdown holds wherever target and sources live whole on the same
    // owners: on the single accelerator, and on a two-node fleet whose one
    // shard is replicated on both nodes.
    aot_insert_select_is_a_pushdown_on(FleetConfig::default());
    aot_insert_select_is_a_pushdown_on(FleetConfig {
        accelerators: 2,
        shards: 1,
        replication_factor: 2,
    });
}

fn aot_insert_select_is_a_pushdown_on(fleet: FleetConfig) {
    let idaa = Idaa::new(IdaaConfig { fleet, ..IdaaConfig::default() });
    let mut s = idaa.session(SYSADM);
    stage_setup(&idaa, &mut s, 64);
    idaa.tracer().clear();
    let out = idaa
        .execute(&mut s, "INSERT INTO STAGE SELECT region, SUM(amount) FROM sales GROUP BY region")
        .unwrap();
    assert_eq!(out.route, Route::Accelerator);

    let trace = idaa.tracer().last_containing("INSERT INTO STAGE").expect("trace recorded");
    let root = &trace.root;
    root.validate().unwrap();
    let transfers = root.find_all("transfer");
    assert!(!transfers.is_empty(), "pushdown still ships control messages");
    for t in &transfers {
        assert_ne!(
            t.attr("kind"),
            Some("frame"),
            "AOT pushdown must not move row frames: {}",
            root.render()
        );
    }
    // Every replica of the target ran the statement on its own copy, and
    // holds it committed once its queued decision is delivered.
    idaa.flush_commit_decisions();
    for i in 0..idaa.fleet_size() {
        let stage = idaa.node_engine(i).scan_at(Snapshot::latest(0), &idaa::ObjectName::bare("STAGE")).unwrap();
        assert_eq!(stage.len(), 2, "node {i} must hold both groups");
    }
    // The same statement against a *host* source moves row frames — the
    // trace makes the pushdown visible structurally.
    idaa.execute(&mut s, "CREATE TABLE HOSTSRC (REGION VARCHAR(8), AMOUNT DOUBLE)").unwrap();
    idaa.execute(&mut s, "INSERT INTO HOSTSRC VALUES ('EU', 1.0E0), ('US', 2.0E0)").unwrap();
    idaa.tracer().clear();
    idaa.execute(&mut s, "INSERT INTO STAGE SELECT region, amount FROM hostsrc").unwrap();
    let trace = idaa.tracer().last_containing("INSERT INTO STAGE").expect("trace recorded");
    assert!(
        trace.root.find_all("transfer").iter().any(|t| t.attr("kind") == Some("frame")),
        "host-sourced insert must ship row frames: {}",
        trace.root.render()
    );
}

#[test]
fn commit_replication_and_checkpoint_events_are_traced() {
    let (idaa, mut s) = seeded_system();
    stage_setup(&idaa, &mut s, 64);
    idaa.tracer().clear();
    idaa.execute(&mut s, "BEGIN").unwrap();
    idaa.execute(&mut s, "INSERT INTO STAGE VALUES ('EU', 1.0E0)").unwrap();
    idaa.execute(&mut s, "COMMIT").unwrap();

    let trace = idaa.tracer().last_containing("COMMIT").expect("trace recorded");
    let commit = trace.root.find("commit").expect("commit span");
    assert_eq!(commit.attr("kind"), Some("2pc"));
    // PREPARE and vote cross as control messages; the decision waits for
    // the node's next message.
    assert_eq!(
        commit.find_all("transfer").len(),
        2,
        "2PC needs two control transfers: {}",
        trace.root.render()
    );
    assert_eq!(idaa.pending_accel_commits(), 1);
    assert_eq!(idaa.metrics().counter("commits.twopc"), 1);
}

#[test]
fn retry_and_recovery_events_surface_in_traces() {
    let (idaa, mut s) = seeded_system();
    idaa.execute(&mut s, "CREATE TABLE R (X INT) IN ACCELERATOR").unwrap();
    idaa.execute(&mut s, "INSERT INTO R VALUES (1), (2)").unwrap();

    // Lose the first delivery attempt of the shipped statement: the trace
    // records the failed transfer and the retry event.
    idaa.tracer().clear();
    idaa.faults.registry.arm(sites::LINK_TRANSFER, 0, 1);
    idaa.query(&mut s, "SELECT COUNT(*) FROM r").unwrap();
    let trace = idaa.tracer().last_containing("SELECT COUNT(*)").unwrap();
    let root = &trace.root;
    assert!(root.find("retry").is_some(), "retry event missing: {}", root.render());
    assert!(
        root.find_all("transfer").iter().any(|t| t.attr("err").is_some()),
        "failed transfer attempt must carry err: {}",
        root.render()
    );
    assert!(idaa.metrics().counter("exchange.retries") >= 1);

    // Crash the accelerator: the next statement drives recovery and the
    // trace carries the restart event with the new epoch.
    idaa.tracer().clear();
    idaa.accel().crash();
    idaa.query(&mut s, "SELECT COUNT(*) FROM r").unwrap();
    let trace = idaa.tracer().last_containing("SELECT COUNT(*)").unwrap();
    let restart = trace.root.find("accel.restart").expect("restart event");
    assert_eq!(restart.attr("epoch"), Some("2"));
    assert!(restart.attr("replayed_bytes").is_some());
    assert_eq!(idaa.metrics().counter("accel.restarts"), 1);
}

#[test]
fn metrics_reconcile_with_link_metrics_under_seeded_chaos() {
    let (idaa, mut s) = seeded_system();
    stage_setup(&idaa, &mut s, 128);
    // Probabilistic drops force retries and failures while the workload
    // keeps succeeding.
    idaa.set_fault_plan(dropping(7, 0.15));
    let before = idaa.metrics().snapshot();
    for i in 0..20 {
        let _ = idaa.execute(&mut s, &format!("INSERT INTO STAGE VALUES ('EU', {i}.0E0)"));
        let _ = idaa.query(&mut s, "SELECT COUNT(*) FROM stage");
    }
    let after = idaa.metrics().snapshot();
    // Counters are monotone: nothing in the registry ever decreases.
    after.monotone_since(&before).unwrap();

    // The link counts straight into the registry. Every firing of a drop
    // site is one failed attempt, and this seed's delivered traffic is
    // pinned: each INSERT's COMMIT decision rides the next SELECT's request,
    // one INSERT ack is lost, so its 117-byte frame is redelivered, and one
    // SELECT reply is lost, so its 58-byte request is redelivered without
    // the decision its first delivery carried.
    let drops = idaa.faults.registry.fired().len() as u64;
    assert_eq!(after.counter("link.failures"), drops, "\n{}", after.render());
    assert_eq!(drops, 11, "the fault plan must have bitten");
    let delivered = [
        "link.delivered.to_accel.bytes",
        "link.delivered.to_accel.msgs",
        "link.delivered.to_host.bytes",
        "link.delivered.to_host.msgs",
    ]
    .map(|name| after.counter(name));
    assert_eq!(delivered, [5959, 47, 2848, 43], "\n{}", after.render());
    assert_eq!(after.counter("exchange.deduped"), 4, "\n{}", after.render());
    // Statement accounting adds up: every statement is either host- or
    // accelerator-routed or failed with an SQLCODE.
    let statements = after.counter("statements.total");
    let routed = after.counter("statements.route.host") + after.counter("statements.route.accel");
    let errors: u64 = after
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("errors.sqlcode."))
        .map(|(_, v)| *v)
        .sum();
    assert_eq!(statements, routed + errors, "\n{}", after.render());
}

#[test]
fn same_seed_chaos_runs_render_identical_traces_and_metrics() {
    let run = || {
        let (idaa, mut s) = seeded_system();
        stage_setup(&idaa, &mut s, 96);
        idaa.set_fault_plan(dropping(23, 0.2));
        idaa.tracer().clear();
        for i in 0..12 {
            let _ = idaa.execute(&mut s, &format!("INSERT INTO STAGE VALUES ('EU', {i}.0E0)"));
            let _ = idaa.query(&mut s, "SELECT COUNT(*), SUM(total) FROM stage");
        }
        let traces: String = idaa.tracer().statements().iter().map(|t| t.render()).collect();
        (traces, idaa.metrics().snapshot().render(), idaa.accel().state_fingerprint())
    };
    let (traces_a, metrics_a, state_a) = run();
    let (traces_b, metrics_b, state_b) = run();
    assert_eq!(traces_a, traces_b, "same seed must render byte-identical traces");
    assert_eq!(metrics_a, metrics_b, "same seed must produce byte-identical metrics");
    assert_eq!(state_a, state_b, "same seed must leave the same accelerator state");
    assert!(traces_a.contains("transfer"), "sanity: the workload produced spans");
}

#[test]
fn disabling_the_sink_stops_collection_but_not_execution() {
    let (idaa, mut s) = seeded_system();
    idaa.execute(&mut s, "CREATE TABLE T (X INT) IN ACCELERATOR").unwrap();
    idaa.tracer().set_enabled(false);
    let mut quiet = idaa.session(SYSADM);
    idaa.tracer().clear();
    idaa.execute(&mut quiet, "INSERT INTO T VALUES (1)").unwrap();
    assert!(idaa.tracer().last().is_none(), "untraced session must record nothing");
    // EXPLAIN ANALYZE borrows an enabled trace even on an untraced session.
    let r = idaa.query(&mut quiet, "EXPLAIN ANALYZE SELECT COUNT(*) FROM t").unwrap();
    let text: Vec<String> = r.rows.iter().map(|row| row[0].render()).collect();
    assert!(text.iter().any(|l| l.contains("op=")), "{text:?}");
    assert!(idaa.tracer().last().is_none(), "the borrowed trace is not sink-recorded");
    idaa.tracer().set_enabled(true);
}

#[test]
fn virtual_clock_timestamps_only() {
    // The entire workload runs in well under a virtual minute; wall time
    // would be nanoseconds-since-epoch scale. Any span stamped from the
    // wall clock lands far outside the link clock's range.
    let (idaa, mut s) = seeded_system();
    stage_setup(&idaa, &mut s, 64);
    idaa.tracer().clear();
    idaa.query(&mut s, "SELECT COUNT(*) FROM sales").unwrap();
    idaa.execute(&mut s, "INSERT INTO STAGE SELECT region, SUM(amount) FROM sales GROUP BY region")
        .unwrap();
    let horizon = idaa.link().now() + Duration::from_secs(1);
    for t in idaa.tracer().statements() {
        t.root.validate().unwrap();
        let mut stack = vec![&t.root];
        while let Some(n) = stack.pop() {
            assert!(
                n.end <= horizon,
                "span {} stamped beyond the virtual clock: {:?}",
                n.name,
                n.end
            );
            stack.extend(&n.children);
        }
    }
}

#[test]
fn explain_analyze_reports_routed_execution() {
    let (idaa, mut s) = seeded_system();
    stage_setup(&idaa, &mut s, 64);
    let r = idaa
        .query(
            &mut s,
            "EXPLAIN ANALYZE SELECT region, SUM(amount) FROM sales GROUP BY region",
        )
        .unwrap();
    let text: Vec<String> = r.rows.iter().map(|row| row[0].render()).collect();
    assert!(text[0].contains("ROUTE: Accelerator"), "{text:?}");
    assert!(text.iter().any(|l| l.trim() == "-- ANALYZE --"), "{text:?}");
    assert!(
        text.iter().any(|l| l.contains("op=AGGREGATE") && l.contains("rows=2")),
        "per-operator row counts missing: {text:?}"
    );
    assert!(text.iter().any(|l| l.contains("transfer")), "{text:?}");
    // Executed — unlike plain EXPLAIN, the accelerator ran a query.
    let queries = idaa.accel().stats.queries.load(std::sync::atomic::Ordering::Relaxed);
    assert!(queries > 0);

    // A COUNT(*) sanity check of the analyzed statement's answer path:
    // EXPLAIN ANALYZE consumed the rows, so re-running returns them.
    let out = idaa.query(&mut s, "SELECT COUNT(*) FROM sales").unwrap();
    assert_eq!(out.scalar().unwrap(), &Value::BigInt(64));
}

// ---------------------------------------------------------------------------
// Storage faults: disk.* counters and scrub / rebuild observability
// ---------------------------------------------------------------------------

/// The engine counts its storage faults straight into the registry's
/// `disk.*` counters: one rotted record is one detection and one scrub
/// repair, with nothing truncated, no checkpoint fallback and no failed
/// read — and a scrub that detects latent bit-rot between statements
/// surfaces as a structural `disk.scrub` trace event, not a log line.
#[test]
fn disk_scrub_metrics_reconcile_with_engine_stats_and_emit_trace_events() {
    let idaa = Idaa::new(IdaaConfig {
        // Checkpoints off so the rot stays in the replay tail; the scrub
        // (not recovery) must be what finds it.
        checkpoint_every: Duration::from_secs(3600),
        scrub_every: Duration::from_micros(200),
        ..IdaaConfig::default()
    });
    let mut s = idaa.session(SYSADM);
    idaa.execute(&mut s, "CREATE TABLE R (X INT) IN ACCELERATOR").unwrap();
    idaa.set_fault_plan(SitePlan::at(sites::BITROT_LOG_SEGMENT, 2).seeded(0xA11CE));
    for i in 0..20 {
        idaa.execute(&mut s, &format!("INSERT INTO R VALUES ({i})")).unwrap();
        idaa.link().advance(Duration::from_micros(100));
    }

    let snap = idaa.metrics().snapshot();
    for (key, expected) in [
        ("disk.corruptions_detected", 1),
        ("disk.records_truncated", 0),
        ("disk.checkpoint_fallbacks", 0),
        ("disk.scrub_repairs", 1),
        ("disk.read_failures", 0),
    ] {
        assert_eq!(snap.counter(key), expected, "{key}\n{}", snap.render());
    }
    assert!(snap.counter("disk.scrub.steps") >= 1, "scrub work is metered");
    assert!(snap.counter("disk.scrub.scanned_bytes") > 0, "verification I/O is metered");

    // The detection is discoverable structurally in some statement's trace.
    let detections: Vec<_> = idaa
        .tracer()
        .statements()
        .iter()
        .flat_map(|t| {
            t.root
                .find_all("disk.scrub")
                .iter()
                .map(|e| e.attr("corrupt_records").map(str::to_string))
                .collect::<Vec<_>>()
        })
        .collect();
    assert!(!detections.is_empty(), "scrub detection must surface as a trace event");

    // The repair healed the media: a forced recovery replays clean.
    idaa.accel().crash();
    assert!(idaa.recover(), "scrubbed media must recover without a rebuild");
    assert_eq!(idaa.metrics().counter("disk.node_rebuilds"), 0);
}

/// A rebuild after unrepairable corruption is visible end to end: the
/// recovery-driving statement's `accel.restart` event carries the
/// `rebuilt` attribute, the host re-materialization bytes land in
/// `disk.repair.bytes`, and the one rotted record is counted once.
#[test]
fn node_rebuild_surfaces_in_restart_event_and_repair_metrics() {
    let idaa = Idaa::new(IdaaConfig {
        checkpoint_every: Duration::from_secs(3600),
        ..IdaaConfig::default()
    });
    let mut s = idaa.session(SYSADM);
    // SALES is replicated and loaded — rebuildable from the host. R is a
    // sole-copy AOT whose loss the rebuild must quarantine, not hide.
    idaa.execute(&mut s, "CREATE TABLE SALES (ID INT NOT NULL)").unwrap();
    idaa.execute(&mut s, "INSERT INTO SALES VALUES (1), (2), (3)").unwrap();
    idaa.execute(&mut s, "CALL ACCEL_ADD_TABLES('SALES')").unwrap();
    idaa.execute(&mut s, "CALL ACCEL_LOAD_TABLES('SALES')").unwrap();
    idaa.execute(&mut s, "CREATE TABLE R (X INT) IN ACCELERATOR").unwrap();
    idaa.execute(&mut s, "SET CURRENT QUERY ACCELERATION = ELIGIBLE").unwrap();
    idaa.set_fault_plan(SitePlan::at(sites::BITROT_LOG_SEGMENT, 1).seeded(0xB0B));
    idaa.execute(&mut s, "INSERT INTO R VALUES (1)").unwrap();

    idaa.accel().crash();
    idaa.tracer().clear();
    // The next statement drives recovery; acked rot in the replay tail
    // forces the rebuild, and SALES is re-shipped before the query runs.
    let out = idaa.query(&mut s, "SELECT COUNT(*) FROM SALES").unwrap();
    assert_eq!(out.scalar().unwrap(), &Value::BigInt(3));

    let trace = idaa.tracer().last_containing("SELECT COUNT(*)").expect("trace recorded");
    let restart = trace.root.find("accel.restart").expect("restart event");
    assert_eq!(restart.attr("rebuilt"), Some("true"), "{}", trace.root.render());
    assert!(restart.attr("epoch").is_some());

    assert_eq!(idaa.metrics().counter("disk.node_rebuilds"), 1);
    assert!(
        idaa.metrics().counter("disk.repair.bytes") > 0,
        "the SALES re-materialization must be metered as repair traffic"
    );
    assert_eq!(idaa.metrics().counter("disk.corruptions_detected"), 1);
    assert_eq!(
        idaa.accel().quarantined_tables(),
        vec![idaa::ObjectName::qualified("APP", "R")],
        "the sole-copy AOT is quarantined, never silently emptied"
    );
}

// ---------------------------------------------------------------------------
// Fleet: scatter/gather and failover traces
// ---------------------------------------------------------------------------

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
    let vals: Vec<String> =
        (0..32).map(|i| format!("({i}, '{}')", ["a", "b"][i % 2])).collect();
    idaa.execute(&mut s, &format!("INSERT INTO FLOG VALUES {}", vals.join(", "))).unwrap();
    (idaa, s)
}

/// A healthy scatter/gather renders one `gather` span covering every shard,
/// and each `shard` span names the node that served it (with its epoch) and
/// nests that node's own transfer spans — the per-shard link breakdown.
#[test]
fn fleet_gather_trace_breaks_down_per_shard() {
    let (idaa, mut s) = fleet_system();
    idaa.tracer().clear();
    idaa.query(&mut s, "SELECT G, COUNT(*) FROM FLOG GROUP BY G ORDER BY G").unwrap();

    let trace = idaa.tracer().last_containing("COUNT(*)").expect("trace recorded");
    let root = &trace.root;
    root.validate().unwrap();

    let gather = root.find("gather").expect("gather span");
    assert_eq!(gather.attr("shards"), Some("4"));
    assert!(gather.attr("tables").is_some_and(|t| t.contains("FLOG")), "{}", root.render());

    let shards = gather.find_all("shard");
    assert_eq!(shards.len(), 4, "one shard span per shard:\n{}", root.render());
    for sp in &shards {
        let node = sp.attr("node").expect("shard span names its serving node");
        assert!(node.starts_with("ACCEL"), "node identity, got {node}");
        assert_eq!(sp.attr("epoch"), Some("1"), "healthy nodes are in their first epoch");
        // Per-shard transfer breakdown: the statement + reply-frame
        // transfers inside a shard span carry that same node's identity.
        let transfers = sp.find_all("transfer");
        assert!(!transfers.is_empty(), "shard exchanges are traced:\n{}", root.render());
        assert!(
            transfers.iter().all(|t| t.attr("node") == Some(node)),
            "transfers in a shard span belong to its node:\n{}",
            root.render()
        );
    }
    // The preferred placement serves: shards 0..4 map to nodes 1,2,3,1.
    let served: Vec<_> = shards.iter().map(|sp| sp.attr("node").unwrap()).collect();
    assert_eq!(served, vec!["ACCEL1", "ACCEL2", "ACCEL3", "ACCEL1"]);

    assert!(root.find_all("failover").is_empty(), "healthy gathers never fail over");
}

/// A sharded ⋈ replicated join runs on the shards: each shard joins its
/// rows against its node's own replica of the dimension, so no row frame
/// crosses a link toward the accelerators, and each shard's reply frame is
/// exactly the encoded frame of that shard's joined rows.
#[test]
fn fleet_join_runs_on_the_shards() {
    use idaa::common::wire;
    use idaa::sql::{parse_statement, Statement};
    let (idaa, mut s) = fleet_system();
    let vals: Vec<String> = (32..200).map(|i| format!("({i}, '{}')", ["a", "b"][i % 2])).collect();
    idaa.execute(&mut s, &format!("INSERT INTO FLOG VALUES {}", vals.join(", "))).unwrap();
    // A tiny replicated dimension: only 4 of 200 fact keys can join.
    idaa.execute(&mut s, "CREATE TABLE FDIM (X INT NOT NULL, NAME VARCHAR(4))").unwrap();
    idaa.execute(&mut s, "INSERT INTO FDIM VALUES (3, 'a'), (50, 'b'), (111, 'c'), (180, 'd')")
        .unwrap();
    idaa.execute(&mut s, "CALL ACCEL_ADD_TABLES('FDIM')").unwrap();
    idaa.execute(&mut s, "CALL ACCEL_LOAD_TABLES('FDIM')").unwrap();
    idaa.tracer().clear();
    let join = |from: &str| format!("SELECT f.x, d.name FROM {from} f INNER JOIN fdim d ON f.x = d.x ORDER BY x");
    let rows = idaa.query(&mut s, &join("flog")).unwrap().rows;
    let xs: Vec<&Value> = rows.iter().map(|r| &r[0]).collect();
    assert_eq!(xs, [3, 50, 111, 180].map(Value::Int).iter().collect::<Vec<_>>());

    let trace = idaa.tracer().last_containing("INNER JOIN").expect("trace recorded");
    let root = &trace.root;
    root.validate().unwrap();
    let gather = root.find("gather").expect("gather span");
    assert_eq!(gather.attr("merge"), Some("run"), "{}", root.render());
    let transfers = root.find_all("transfer");
    let is = |t: &&idaa::SpanNode, dir: &str, kind: &str| {
        t.attr("dir") == Some(dir) && t.attr("kind") == Some(kind)
    };
    assert!(
        !transfers.iter().any(|t| is(t, "to_accel", "frame")),
        "no dimension row may cross a link:\n{}",
        root.render()
    );
    let shards = gather.find_all("shard");
    assert_eq!(shards.len(), 4);
    for (shard, sp) in shards.iter().enumerate() {
        let node: usize = sp.attr("node").unwrap()["ACCEL".len()..].parse().unwrap();
        let st = idaa::shard_table(&idaa::ObjectName::bare("FLOG"), shard, 4);
        let Statement::Query(q) = parse_statement(&join(&st.to_string())).unwrap() else {
            unreachable!()
        };
        let local = idaa.node_engine(node - 1).query(0, &q).unwrap();
        let replies: Vec<usize> = sp
            .find_all("transfer")
            .iter()
            .filter(|t| is(t, "to_host", "frame"))
            .map(|t| t.attr("bytes").unwrap().parse().unwrap())
            .collect();
        assert_eq!(
            replies,
            vec![wire::encode_frame(&local.schema, &local.rows).len()],
            "shard {shard} must ship exactly its joined rows"
        );
    }
}

/// Every sharded scan ships its own cut: a filtered `UNION` arm ships, per
/// shard, exactly the encoded frame of its filtered and projected rows, and
/// an unfiltered self-join fetches its one bare scan once — one reply frame
/// per shard.
#[test]
fn fleet_union_arm_and_self_join_ship_their_cuts() {
    use idaa::common::wire;
    use idaa::sql::{parse_statement, Statement};
    let (idaa, mut s) = fleet_system();
    idaa.execute(&mut s, "CREATE TABLE FDIM (X INT NOT NULL, NAME VARCHAR(4))").unwrap();
    idaa.execute(&mut s, "INSERT INTO FDIM VALUES (3, 'a'), (50, 'b')").unwrap();
    idaa.execute(&mut s, "CALL ACCEL_ADD_TABLES('FDIM')").unwrap();
    idaa.execute(&mut s, "CALL ACCEL_LOAD_TABLES('FDIM')").unwrap();
    let is = |t: &&idaa::SpanNode, dir: &str, kind: &str| {
        t.attr("dir") == Some(dir) && t.attr("kind") == Some(kind)
    };
    let replies = |sp: &idaa::SpanNode| -> Vec<usize> {
        let transfers = sp.find_all("transfer");
        let frames = transfers.iter().filter(|t| is(t, "to_host", "frame"));
        frames.map(|t| t.attr("bytes").unwrap().parse().unwrap()).collect()
    };

    idaa.tracer().clear();
    let union = "SELECT x FROM fdim UNION SELECT x FROM flog WHERE x < 10 ORDER BY 1";
    let rows = idaa.query(&mut s, union).unwrap().rows;
    let expected: Vec<Value> = (0..10).chain([50]).map(Value::Int).collect();
    assert_eq!(rows.iter().map(|r| r[0].clone()).collect::<Vec<_>>(), expected);
    let trace = idaa.tracer().last_containing("UNION").expect("trace recorded");
    let gather = trace.root.find("gather").expect("gather span");
    assert_eq!(gather.attr("merge"), Some("rows"), "{}", trace.root.render());
    let shards = gather.find_all("shard");
    assert_eq!(shards.len(), 4);
    for (shard, sp) in shards.iter().enumerate() {
        let node: usize = sp.attr("node").unwrap()["ACCEL".len()..].parse().unwrap();
        let st = idaa::shard_table(&idaa::ObjectName::bare("FLOG"), shard, 4);
        let sql = format!("SELECT x FROM {st} WHERE x < 10");
        let Statement::Query(q) = parse_statement(&sql).unwrap() else { unreachable!() };
        let local = idaa.node_engine(node - 1).query(0, &q).unwrap();
        assert_eq!(
            replies(sp),
            vec![wire::encode_frame(&local.schema, &local.rows).len()],
            "shard {shard} must ship exactly its filtered, projected rows"
        );
    }

    idaa.tracer().clear();
    let self_join = "SELECT a.x, b.g FROM flog a INNER JOIN flog b ON a.x = b.x ORDER BY 1";
    assert_eq!(idaa.query(&mut s, self_join).unwrap().rows.len(), 32);
    let trace = idaa.tracer().last_containing("INNER JOIN").expect("trace recorded");
    let gather = trace.root.find("gather").expect("gather span");
    assert_eq!(gather.attr("merge"), Some("rows,rows"), "{}", trace.root.render());
    let shards = gather.find_all("shard");
    assert_eq!(shards.len(), 4, "one exchange per shard:\n{}", trace.root.render());
    assert!(shards.iter().all(|sp| replies(sp).len() == 1), "{}", trace.root.render());
}

/// Crashing a primary mid-scatter surfaces in the trace: the affected shard
/// spans carry the *replica's* identity and a `failover` event records the
/// retarget (shard, from, to) — all discoverable structurally, no log
/// string-matching.
#[test]
fn fleet_failover_trace_names_replica_and_emits_failover_event() {
    let (idaa, mut s) = fleet_system();
    idaa.set_fault_plan_on(0, SitePlan::at(sites::MID_SCATTER, 1).seeded(0x0B5));
    idaa.tracer().clear();
    idaa.query(&mut s, "SELECT G, COUNT(*) FROM FLOG GROUP BY G ORDER BY G").unwrap();

    let trace = idaa.tracer().last_containing("COUNT(*)").expect("trace recorded");
    let root = &trace.root;
    root.validate().unwrap();

    // Node 0 (ACCEL1) crashes serving shard 0: that shard fails over to the
    // replica (ACCEL2). By the time the scatter reaches shard 3 — node 0's
    // other shard — the readiness probe has already restarted it, so ACCEL1
    // serves again, now in its second epoch.
    let gather = root.find("gather").expect("gather span");
    let shards = gather.find_all("shard");
    assert_eq!(shards.len(), 4);
    let by_shard: Vec<(&str, &str)> = shards
        .iter()
        .map(|sp| (sp.attr("node").unwrap(), sp.attr("epoch").unwrap()))
        .collect();
    assert_eq!(
        by_shard,
        vec![("ACCEL2", "1"), ("ACCEL2", "1"), ("ACCEL3", "1"), ("ACCEL1", "2")],
        "{}",
        root.render()
    );

    let failovers = root.find_all("failover");
    assert_eq!(failovers.len(), 1, "only the crashed attempt fails over:\n{}", root.render());
    assert_eq!(failovers[0].attr("shard"), Some("0"));
    assert_eq!(failovers[0].attr("from"), Some("0"));
    assert_eq!(failovers[0].attr("to"), Some("1"));
}

/// At (3, 4, 2) with replies dropped on every node, each node's link counts
/// into its own `link.*` (node 0) or `link.node{i}.*` names: those are the
/// node's `LinkMetrics`, their sum is the fleet total, they only grow, and
/// the same seeds render the same registry byte for byte.
#[test]
fn fleet_links_count_per_node_into_the_registry() {
    let run = || {
        let (idaa, mut s) = fleet_system();
        for i in 0..idaa.fleet_size() {
            let plan = SitePlan::default()
                .seeded(0xF1EE7 + i as u64)
                .and_probabilistic(sites::LINK_DROP_TO_HOST, 0.2);
            idaa.set_fault_plan_on(i, plan);
        }
        let corpus = [
            "SELECT G, COUNT(*) FROM FLOG GROUP BY G ORDER BY G",
            "INSERT INTO FLOG VALUES (100, 'a'), (101, 'b'), (102, 'c')",
            "SELECT COUNT(*), SUM(X) FROM FLOG",
            "UPDATE FLOG SET G = 'd' WHERE X < 8",
            "SELECT X FROM FLOG WHERE G = 'd' ORDER BY X",
            "DELETE FROM FLOG WHERE X > 100",
            "SELECT G, MAX(X) FROM FLOG GROUP BY G ORDER BY G",
        ];
        let mut last = idaa.metrics().snapshot();
        for sql in corpus.iter().cycle().take(3 * corpus.len()) {
            let _ = idaa.execute(&mut s, sql);
            let now = idaa.metrics().snapshot();
            now.monotone_since(&last).unwrap();
            last = now;
        }
        let five = |m: LinkMetrics| {
            [m.bytes_to_accel, m.messages_to_accel, m.bytes_to_host, m.messages_to_host, m.failures]
        };
        let mut sum = [0; 5];
        for i in 0..idaa.fleet_size() {
            let prefix = if i == 0 { "link".to_string() } else { format!("link.node{i}") };
            let counted = [
                "delivered.to_accel.bytes",
                "delivered.to_accel.msgs",
                "delivered.to_host.bytes",
                "delivered.to_host.msgs",
                "failures",
            ]
            .map(|name| last.counter(&format!("{prefix}.{name}")));
            assert_eq!(counted, five(idaa.node_link(i).metrics()), "node {i}");
            assert!(counted[4] > 0, "node {i}'s reply drops must have bitten");
            sum.iter_mut().zip(counted).for_each(|(total, n)| *total += n);
        }
        assert_eq!(sum, five(idaa.fleet_link_metrics()));
        last.render()
    };
    assert_eq!(run(), run(), "the same seeds must render byte-identical metrics");
}

// ---------------------------------------------------------------------------
// Server scheduler observability
// ---------------------------------------------------------------------------

/// Every statement the server schedules carries exactly one `queue` event
/// (seat, priority class, queue wait, admitting round) in its span tree,
/// and the `server.*` counters reconcile exactly with the scheduler's own
/// completion log — done/failed tallies, summed queue time, round count,
/// and drained per-seat gauges.
#[test]
fn server_queue_events_and_counters_reconcile_with_the_completion_log() {
    let idaa = Idaa::default();
    let mut s = idaa.session(SYSADM);
    idaa.execute(&mut s, "CREATE TABLE T (A BIGINT)").unwrap();
    idaa.execute(&mut s, "INSERT INTO T VALUES (1), (2), (3)").unwrap();
    drop(s);
    let srv = idaa::Server::with_idaa(
        idaa,
        idaa::ServerConfig { admission_limit: 1, ..idaa::ServerConfig::default() },
    );
    let hi = srv.connect_with_priority(SYSADM, idaa::Priority::High).unwrap();
    let lo = srv.connect(SYSADM).unwrap();
    for _ in 0..3 {
        srv.submit(lo, "SELECT A FROM T ORDER BY A").unwrap();
        srv.submit(hi, "SELECT COUNT(*) FROM T").unwrap();
    }
    srv.idaa().tracer().clear();
    let completions = srv.run_until_idle();
    assert_eq!(completions.len(), 6);
    assert!(
        completions[..3].iter().all(|c| c.session == hi),
        "the High seat must drain before Normal even though it submitted second"
    );

    // One trace per scheduled statement, in admission order, each with a
    // single queue event whose attributes mirror the completion record.
    let traces = srv.idaa().tracer().statements();
    assert_eq!(traces.len(), completions.len(), "one trace per scheduled statement");
    for (t, c) in traces.iter().zip(&completions) {
        t.root.validate().unwrap();
        let queue = t.root.find_all("queue");
        assert_eq!(queue.len(), 1, "exactly one queue event: {}", t.root.render());
        let q = queue[0];
        assert_eq!(q.attr("seat").unwrap(), c.session.to_string(), "{}", t.root.render());
        let expect_priority = if c.session == hi { "HIGH" } else { "NORMAL" };
        assert_eq!(q.attr("priority"), Some(expect_priority), "{}", t.root.render());
        assert_eq!(q.attr("queued_us").unwrap(), c.queued.as_micros().to_string());
        assert_eq!(q.attr("round").unwrap(), c.round.to_string());
    }
    // Unscheduled statements (the plain facade path) never carry one.
    let mut plain = srv.idaa().session(SYSADM);
    srv.idaa().query(&mut plain, "SELECT COUNT(*) FROM T").unwrap();
    let last = srv.idaa().tracer().last().unwrap();
    assert!(last.root.find_all("queue").is_empty(), "{}", last.root.render());

    // Counters reconcile with the completion log; gauges show a drained,
    // idle server.
    let m = srv.idaa().metrics();
    assert_eq!(m.counter("server.statements"), 6);
    assert_eq!(m.counter("server.submitted"), 6);
    assert_eq!(m.counter("server.rounds"), srv.rounds());
    assert_eq!(m.counter("server.sessions.connected"), 2);
    for seat in [hi, lo] {
        let done = completions.iter().filter(|c| c.session == seat && c.result.is_ok()).count();
        let failed = completions.iter().filter(|c| c.session == seat && c.result.is_err()).count();
        let queued: u64 =
            completions.iter().filter(|c| c.session == seat).map(|c| c.queued.as_micros() as u64).sum();
        assert_eq!(m.counter(&format!("server.session.{seat}.done")), done as u64);
        assert_eq!(m.counter(&format!("server.session.{seat}.failed")), failed as u64);
        assert_eq!(m.counter(&format!("server.session.{seat}.queue_time_us")), queued);
        assert_eq!(m.gauge(&format!("server.session.{seat}.queued")), Some(0));
        assert_eq!(m.gauge(&format!("server.session.{seat}.running")), Some(0));
    }
    assert_eq!(m.gauge(&format!("server.session.{hi}.priority")), Some(idaa::Priority::High.rank()));
}

// ---------------------------------------------------------------------------
// Single-accelerator golden: the K=1 path pinned byte for byte
// ---------------------------------------------------------------------------

/// Everything the default single-accelerator pairing renders for one fixed
/// script — every statement's span tree, the link metrics, and the metrics
/// registry — compared byte for byte against a committed fixture. The
/// script walks the whole accelerator lifecycle: AOT DDL, every AOT write
/// shape, 2PC (clean, rolled back, and with a lost vote resolved by the
/// status inquiry, and with a decision whose carrier is lost), an offloaded query, a stopped accelerator, a dropping
/// link, and a crash at every named site followed by recovery.
#[test]
fn single_accelerator_golden_is_byte_identical() {
    let (idaa, mut s) = seeded_system();
    let codes = std::cell::RefCell::new(Vec::new());
    let run = |s: &mut idaa::Session, sql: &str| {
        let code = idaa.execute(s, sql).map_or_else(|e| e.sqlcode(), |_| 0);
        codes.borrow_mut().push(format!("{code:>6}  {sql}"));
    };
    stage_setup(&idaa, &mut s, 48);

    // AOT DDL and the three write shapes: VALUES, INSERT…SELECT pushdown,
    // predicate UPDATE/DELETE.
    run(&mut s, "CREATE TABLE SCRATCH (X INT) IN ACCELERATOR");
    run(&mut s, "DROP TABLE SCRATCH");
    run(&mut s, "INSERT INTO STAGE VALUES ('AP', 1.5E0), ('LA', 2.5E0)");
    run(&mut s, "INSERT INTO STAGE SELECT region, SUM(amount) FROM sales GROUP BY region");
    run(&mut s, "UPDATE STAGE SET TOTAL = TOTAL + 1.0E0 WHERE REGION = 'EU'");
    run(&mut s, "DELETE FROM STAGE WHERE REGION = 'LA'");

    // Explicit transactions: a clean 2PC, a rollback, and a 2PC whose YES
    // vote is lost once and resolved by the status inquiry.
    run(&mut s, "BEGIN");
    run(&mut s, "INSERT INTO SALES VALUES (1000, 'EU', 1.0E0)");
    run(&mut s, "INSERT INTO STAGE VALUES ('T1', 1.0E0)");
    run(&mut s, "SELECT COUNT(*) FROM STAGE");
    run(&mut s, "COMMIT");
    run(&mut s, "BEGIN");
    run(&mut s, "INSERT INTO STAGE VALUES ('T2', 2.0E0)");
    run(&mut s, "ROLLBACK");
    run(&mut s, "BEGIN");
    run(&mut s, "INSERT INTO STAGE VALUES ('T3', 3.0E0)");
    idaa.faults.registry.arm(sites::LINK_TRANSFER, 1, 4);
    run(&mut s, "COMMIT");
    // A 2PC whose decision's carrier is lost: every attempt of the next
    // request (the offloaded SELECT's, which then runs on DB2) fails, the
    // decision stays queued, and the request after it carries it.
    run(&mut s, "BEGIN");
    run(&mut s, "INSERT INTO STAGE VALUES ('T4', 4.0E0)");
    idaa.faults.registry.arm(sites::LINK_TRANSFER, 2, 4);
    run(&mut s, "COMMIT");
    codes.borrow_mut().push(format!("pending_commits={}", idaa.pending_accel_commits()));

    // An offloaded query and a host-sourced insert into the AOT.
    run(&mut s, "SELECT region, COUNT(*), SUM(amount) FROM sales GROUP BY region ORDER BY region");
    run(&mut s, "SELECT region, total FROM stage ORDER BY region");
    run(&mut s, "CREATE TABLE HOSTSRC (REGION VARCHAR(8), AMOUNT DOUBLE)");
    run(&mut s, "INSERT INTO HOSTSRC VALUES ('HS', 9.0E0)");
    run(&mut s, "INSERT INTO STAGE SELECT region, amount FROM hostsrc");

    // Accelerator stopped: offloadable work falls back, AOT work is -904.
    idaa.faults.accel_unavailable.store(true, std::sync::atomic::Ordering::Relaxed);
    run(&mut s, "SELECT COUNT(*) FROM sales");
    run(&mut s, "SELECT COUNT(*) FROM stage");
    run(&mut s, "INSERT INTO STAGE VALUES ('NO', 0.0E0)");
    idaa.faults.accel_unavailable.store(false, std::sync::atomic::Ordering::Relaxed);

    // A link that drops everything: -30081 until the health machine goes
    // Offline, then operator recovery on a healed link.
    idaa.set_fault_plan(dropping(11, 1.0));
    for _ in 0..3 {
        run(&mut s, "INSERT INTO STAGE VALUES ('DR', 0.0E0)");
    }
    run(&mut s, "SELECT COUNT(*) FROM stage");
    run(&mut s, "SELECT COUNT(*) FROM sales");
    idaa.faults.registry.clear();
    codes.borrow_mut().push(format!("recover={}", idaa.recover()));
    run(&mut s, "SELECT COUNT(*) FROM stage");

    // A crash at every named site, each followed (once the probe interval
    // has passed on the virtual clock) by the statement that observes the
    // crash and drives the restart.
    let probe_due = || idaa.link().advance(Duration::from_millis(10));
    idaa.faults.registry.arm(sites::MID_BULK_LOAD, 0, 1);
    run(&mut s, "CALL ACCEL_LOAD_TABLES('SALES')");
    run(&mut s, "SELECT COUNT(*) FROM stage");
    probe_due();
    run(&mut s, "SELECT COUNT(*) FROM stage");
    run(&mut s, "CALL ACCEL_LOAD_TABLES('SALES')");
    idaa.faults.registry.arm(sites::POST_PREPARE, 0, 1);
    run(&mut s, "BEGIN");
    run(&mut s, "INSERT INTO STAGE VALUES ('PP', 4.0E0)");
    run(&mut s, "COMMIT");
    probe_due();
    run(&mut s, "INSERT INTO STAGE VALUES ('P2', 5.0E0)");
    idaa.faults.registry.arm(sites::MID_REPL_APPLY, 0, 1);
    run(&mut s, "INSERT INTO SALES VALUES (1001, 'US', 2.0E0)");
    probe_due();
    run(&mut s, "SELECT COUNT(*) FROM sales");
    idaa.faults.registry.arm(sites::MID_CHECKPOINT, 0, 1);
    idaa.link().advance(Duration::from_millis(30));
    run(&mut s, "INSERT INTO STAGE VALUES ('CK', 6.0E0)");
    probe_due();
    run(&mut s, "UPDATE STAGE SET TOTAL = 0.0E0 WHERE REGION = 'CK'");
    idaa.accel().crash();
    probe_due();
    codes.borrow_mut().push(format!("recover={}", idaa.recover()));
    run(&mut s, "SELECT region, total FROM stage ORDER BY region");
    run(&mut s, "SELECT COUNT(*) FROM sales");

    let mut actual = String::from("== statements ==\n");
    actual.push_str(&codes.borrow().join("\n"));
    actual.push_str("\n== traces ==\n");
    for t in idaa.tracer().statements() {
        actual.push_str(&format!("-- {}\n{}", t.sql, t.root.render()));
    }
    actual.push_str(&format!("== link ==\n{:#?}\n", idaa.link().metrics()));
    actual.push_str(&format!("== metrics ==\n{}", idaa.metrics().snapshot().render()));

    let expected = include_str!("fixtures/single_accelerator_golden.txt");
    if actual != expected {
        // Leave the actual rendering next to the build outputs so the
        // first differing line is one `diff` away.
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join("single_accelerator_golden.actual.txt");
        std::fs::write(&path, &actual).unwrap();
        let line = actual.lines().zip(expected.lines()).position(|(a, e)| a != e);
        panic!(
            "single-accelerator golden diverged (first differing line: {line:?}); \
             diff {} against tests/fixtures/single_accelerator_golden.txt",
            path.display()
        );
    }
}
