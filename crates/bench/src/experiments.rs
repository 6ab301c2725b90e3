//! The experiment suite E1–E22 (see DESIGN.md for the index and
//! EXPERIMENTS.md for the discussion). Each function regenerates one
//! section of the record in `golden/experiments.txt`.

use crate::{
    accelerate, det, fmt_bytes, insert_batched, measure, ms, seed_sales, system, timed, Report,
    Table, Wall,
};
use idaa_analytics::kmeans::{kmeans, KMeansConfig};
use idaa_analytics::pipeline::{Pipeline, PipelineMode};
use idaa_core::{Idaa, IdaaConfig, Session};
use idaa_host::SYSADM;
use idaa_loader::{EventSource, LoadTarget, Loader};
use idaa_netsim::LinkMetrics;
use idaa_sql::Privilege;

/// One entry of the experiment registry.
pub struct Experiment {
    pub id: &'static str,
    pub title: &'static str,
    pub run: fn(&mut Report),
}

/// Every experiment, in record order: the one index `exp`'s listing, the
/// banners, `exp all` and `exp --check` read.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment { id: "E1", title: "OLAP query offload (host row store vs accelerator), size sweep", run: e1_offload_crossover },
    Experiment { id: "E2", title: "OLTP point lookups (indexed host vs accelerator scan)", run: e2_oltp_point_access },
    Experiment { id: "E3", title: "multi-stage pipeline: materialize-in-DB2 vs accelerator-only tables", run: e3_pipeline_stages },
    Experiment { id: "E4", title: "INSERT FROM SELECT: accelerator-only target vs DB2 target", run: e4_insert_select_target },
    Experiment { id: "E5", title: "loader ingestion: direct-to-AOT vs via DB2 (+replication), worker sweep", run: e5_loader_paths },
    Experiment { id: "E6", title: "AOT transaction-context correctness probes", run: e6_transaction_correctness },
    Experiment { id: "E7", title: "k-means: in-database (on accelerator) vs extract-to-client", run: e7_in_database_analytics },
    Experiment { id: "E8", title: "naive-Bayes scoring: in-database vs extract-to-client", run: e8_in_database_scoring },
    Experiment { id: "E9", title: "replication batch-size ablation (20 commits of 1000 rows)", run: e9_replication_batch },
    Experiment { id: "E10", title: "accelerator ablation: zone maps, data slices, groom", run: e10_accelerator_ablation },
    Experiment { id: "E11", title: "governance: DB2 privilege-check overhead on delegated work", run: e11_governance_overhead },
    Experiment { id: "E12", title: "end-to-end churn scenario: legacy vs extended IDAA", run: e12_end_to_end_scenario },
    Experiment { id: "E14", title: "scheduled link outage: failover, queued replication, recovery", run: e14_outage_recovery },
    Experiment { id: "E15", title: "wire codec: logical vs. encoded bytes per workload", run: e15_wire_codec },
    Experiment { id: "E16", title: "crash recovery: checkpoint interval vs replay cost", run: e16_crash_recovery },
    Experiment { id: "E17", title: "statement tracing: span volume + per-operator attribution", run: e17_trace_attribution },
    Experiment { id: "E19", title: "fleet failover: replica factor vs failover latency + catch-up bytes", run: e19_fleet_failover },
    Experiment { id: "E20", title: "fleet shard-side join: sharded probe vs replicated dimension, \
        gather bytes", run: e20_fleet_shard_join },
    Experiment { id: "E21", title: "storage faults: scrub interval vs detection latency, \
        repair-path byte costs", run: e21_storage_faults },
    Experiment { id: "E22", title: "workload scheduler: queue-time percentiles vs session count at a \
        fixed admission limit", run: e22_workload_scheduler },
];

/// Look an experiment up by id, case-insensitively.
pub fn find(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.id.eq_ignore_ascii_case(id))
}

/// Load `rows` seeded synthetic events into `table` over the `target` path.
fn load_events(
    idaa: &Idaa,
    loader: &Loader,
    rows: usize,
    seed: u64,
    table: &str,
    target: LoadTarget,
) -> idaa_loader::LoadReport {
    let source = Box::new(EventSource::new(rows, seed));
    loader.load(idaa, source, &idaa_common::ObjectName::bare(table), target).unwrap()
}

/// E1 — OLAP offload: scan/aggregate latency, DB2 row store vs accelerator,
/// as table size grows. Claim: "extremely fast execution of complex,
/// analytical queries" on the accelerator.
fn e1_offload_crossover(out: &mut Report) {
    let query = "SELECT region, COUNT(*), SUM(amount), AVG(qty) FROM sales \
                 WHERE qty > 2 AND amount < 800 GROUP BY region";
    let mut table = Table::new(&[
        "rows", "host_ms", "accel_ms", "speedup", "accel+wire_ms",
    ]);
    for rows in [10_000usize, 50_000, 200_000, 500_000] {
        let (idaa, mut s) = system(IdaaConfig::default());
        seed_sales(&idaa, &mut s, rows);
        accelerate(&idaa, &mut s, "SALES");
        // Warm both paths once.
        idaa.execute(&mut s, "SET CURRENT QUERY ACCELERATION = NONE").unwrap();
        idaa.query(&mut s, query).unwrap();
        let (_, host_t) = timed(|| idaa.query(&mut s, query).unwrap());
        idaa.execute(&mut s, "SET CURRENT QUERY ACCELERATION = ELIGIBLE").unwrap();
        idaa.query(&mut s, query).unwrap();
        let (_, accel_t, link) = measure(&idaa, || idaa.query(&mut s, query).unwrap());
        table.row([
            det(rows),
            host_t.ms(),
            accel_t.ms(),
            host_t.speedup_over(accel_t),
            accel_t.plus(link.wire_time).ms(),
        ]);
    }
    out.table(table);
}

/// E2 — OLTP point access stays on the host: indexed point SELECTs,
/// host-with-index vs forced accelerator execution.
fn e2_oltp_point_access(out: &mut Report) {
    const ROWS: usize = 200_000;
    const PROBES: usize = 200;
    let (idaa, mut s) = system(IdaaConfig::default());
    seed_sales(&idaa, &mut s, ROWS);
    idaa.execute(&mut s, "CREATE INDEX SALES_ID ON SALES (ID)").unwrap();
    accelerate(&idaa, &mut s, "SALES");
    let probe = |idaa: &Idaa, s: &mut Session| {
        for i in 0..PROBES {
            let id = (i * 997) % ROWS;
            idaa.query(s, &format!("SELECT product FROM sales WHERE id = {id}")).unwrap();
        }
    };
    idaa.execute(&mut s, "SET CURRENT QUERY ACCELERATION = NONE").unwrap();
    let (_, host_t) = timed(|| probe(&idaa, &mut s));
    idaa.execute(&mut s, "SET CURRENT QUERY ACCELERATION = ELIGIBLE").unwrap();
    let (_, accel_t, link) = measure(&idaa, || probe(&idaa, &mut s));
    // Routing check: ENABLE keeps the point lookups local.
    idaa.execute(&mut s, "SET CURRENT QUERY ACCELERATION = ENABLE").unwrap();
    let routed = idaa.execute(&mut s, "SELECT product FROM sales WHERE id = 7").unwrap();
    let mut table = Table::new(&["path", "total_ms", "us/query", "wire_ms"]);
    let us = |s: f64| format!("{:.1}", s * 1e6);
    table.row([det("host (indexed)"), host_t.ms(), host_t.per(PROBES).cell(us), det("0.00")]);
    table.row([
        det("accelerator"),
        accel_t.ms(),
        accel_t.per(PROBES).cell(us),
        det(ms(link.wire_time)),
    ]);
    out.table(table);
    out.line(format!(
        "ENABLE-mode routing for a point lookup: {:?} (expected Host)",
        routed.route
    ));
}

/// E3 — the headline: multi-staged transformation pipeline, materialized in
/// DB2 (pre-AOT) vs accelerator-only tables, stage-count sweep.
fn e3_pipeline_stages(out: &mut Report) {
    const ROWS: usize = 50_000;
    let mut table = Table::new(&[
        "stages", "mode", "elapsed_ms", "bytes_moved", "msgs", "wire_ms",
    ]);
    for k in [1usize, 2, 4, 8] {
        for mode in [PipelineMode::MaterializeInDb2, PipelineMode::AcceleratorOnly] {
            let (idaa, mut s) = system(IdaaConfig::default());
            seed_sales(&idaa, &mut s, ROWS);
            accelerate(&idaa, &mut s, "SALES");
            idaa.execute(&mut s, "SET CURRENT QUERY ACCELERATION = ELIGIBLE").unwrap();
            let mut p = Pipeline::new();
            let mut prev = "SALES".to_string();
            for i in 0..k {
                let stage = format!("STG{i}");
                // Row-preserving transformation chain.
                let select = if i == 0 {
                    format!("SELECT id, amount, qty FROM {prev} WHERE qty >= 0")
                } else {
                    format!("SELECT id, amount * 1.01E0 AS AMOUNT, qty FROM {prev}")
                };
                p = p.stage(&stage, &select);
                prev = stage;
            }
            let (report, t) = timed(|| p.run(&idaa, &mut s, mode).unwrap());
            table.row([
                det(k),
                det(format!("{mode:?}")),
                t.ms(),
                det(fmt_bytes(report.link.total_bytes())),
                det(report.link.total_messages()),
                det(ms(report.link.wire_time)),
            ]);
        }
    }
    out.table(table);
}

/// E4 — `INSERT INTO … SELECT` target comparison: AOT target (pushdown,
/// no data movement) vs regular DB2 target (result materialization).
fn e4_insert_select_target(out: &mut Report) {
    let mut table = Table::new(&[
        "rows", "target", "elapsed_ms", "bytes_moved", "wire_ms",
    ]);
    for rows in [10_000usize, 100_000, 300_000] {
        for aot in [false, true] {
            let (idaa, mut s) = system(IdaaConfig::default());
            seed_sales(&idaa, &mut s, rows);
            accelerate(&idaa, &mut s, "SALES");
            idaa.execute(&mut s, "SET CURRENT QUERY ACCELERATION = ELIGIBLE").unwrap();
            let ddl = "(ID INT, AMOUNT DOUBLE, QTY INT)";
            let target = if aot { "AOT target" } else { "DB2 target" };
            idaa.execute(
                &mut s,
                &format!(
                    "CREATE TABLE OUT1 {ddl}{}",
                    if aot { " IN ACCELERATOR" } else { "" }
                ),
            )
            .unwrap();
            let (_, t, link) = measure(&idaa, || {
                idaa.execute(&mut s, "INSERT INTO OUT1 SELECT id, amount, qty FROM sales")
                    .unwrap()
            });
            table.row([
                det(rows),
                det(target),
                t.ms(),
                det(fmt_bytes(link.total_bytes())),
                det(ms(link.wire_time)),
            ]);
        }
    }
    out.table(table);
}

/// E5 — IDAA Loader paths: direct-to-accelerator vs through DB2 with
/// replication, with a parser-parallelism sweep.
fn e5_loader_paths(out: &mut Report) {
    const ROWS: usize = 100_000;
    let ddl = "(EVENT_ID INT, CUST_ID INT, TOPIC VARCHAR(10), SENTIMENT DOUBLE, \
               POSTED_AT TIMESTAMP)";
    let mut table = Table::new(&[
        "path", "workers", "rows/s", "elapsed_ms", "bytes_to_accel",
    ]);
    for workers in [1usize, 2, 4, 8] {
        for direct in [false, true] {
            let (idaa, mut s) = system(IdaaConfig::default());
            if direct {
                idaa.execute(&mut s, &format!("CREATE TABLE FEED {ddl} IN ACCELERATOR")).unwrap();
            } else {
                idaa.execute(&mut s, &format!("CREATE TABLE FEED {ddl}")).unwrap();
                accelerate(&idaa, &mut s, "FEED");
            }
            let mut loader = Loader::new(SYSADM);
            loader.config.parallelism = workers;
            let target = if direct { LoadTarget::AcceleratorDirect } else { LoadTarget::Db2 };
            let (report, t, link) =
                measure(&idaa, || load_events(&idaa, &loader, ROWS, 7, "FEED", target));
            assert_eq!(report.rows_loaded, ROWS);
            table.row([
                det(if direct { "direct-to-AOT" } else { "via DB2" }),
                det(workers),
                t.per(ROWS).cell(|s| format!("{:.0}", 1.0 / s)),
                t.ms(),
                det(fmt_bytes(link.bytes_to_accel)),
            ]);
        }
    }
    out.table(table);
}

/// E6 — transaction-correctness probes for AOTs (the paper's §2
/// correctness requirements), reported as a pass/fail table.
fn e6_transaction_correctness(out: &mut Report) {
    let mut table = Table::new(&["probe", "result"]);
    let check = |name: &str, ok: bool, table: &mut Table| {
        table.row([det(name), det(if ok { "PASS" } else { "FAIL" })]);
    };

    // Own uncommitted changes visible.
    let (idaa, mut s) = system(IdaaConfig::default());
    idaa.execute(&mut s, "CREATE TABLE T (X INT) IN ACCELERATOR").unwrap();
    idaa.execute(&mut s, "BEGIN").unwrap();
    idaa.execute(&mut s, "INSERT INTO T VALUES (1)").unwrap();
    let own = idaa.query(&mut s, "SELECT COUNT(*) FROM t").unwrap();
    check("own uncommitted inserts visible", own.scalar().unwrap().render() == "1", &mut table);

    // Not visible to a concurrent session (no dirty reads).
    let mut other = idaa.session(SYSADM);
    let theirs = idaa.query(&mut other, "SELECT COUNT(*) FROM t").unwrap();
    check("no dirty reads across sessions", theirs.scalar().unwrap().render() == "0", &mut table);
    idaa.execute(&mut s, "COMMIT").unwrap();

    // Snapshot stability inside a read-only transaction.
    let mut reader = idaa.session(SYSADM);
    idaa.execute(&mut reader, "BEGIN").unwrap();
    let before = idaa.query(&mut reader, "SELECT COUNT(*) FROM t").unwrap();
    idaa.execute(&mut s, "INSERT INTO T VALUES (2)").unwrap(); // concurrent commit
    let after = idaa.query(&mut reader, "SELECT COUNT(*) FROM t").unwrap();
    check(
        "snapshot stable under concurrent commit",
        before.scalar() == after.scalar(),
        &mut table,
    );
    idaa.execute(&mut reader, "ROLLBACK").unwrap();

    // Write-write conflict detection.
    let mut a = idaa.session(SYSADM);
    let mut b = idaa.session(SYSADM);
    idaa.execute(&mut a, "BEGIN").unwrap();
    idaa.execute(&mut b, "BEGIN").unwrap();
    idaa.execute(&mut a, "DELETE FROM T WHERE X = 1").unwrap();
    let conflict = idaa.execute(&mut b, "DELETE FROM T WHERE X = 1").is_err();
    check("first-updater-wins conflict detected", conflict, &mut table);
    idaa.execute(&mut a, "ROLLBACK").unwrap();
    idaa.execute(&mut b, "ROLLBACK").unwrap();

    // Cross-system atomic rollback.
    idaa.execute(&mut s, "CREATE TABLE H (X INT)").unwrap();
    idaa.execute(&mut s, "BEGIN").unwrap();
    idaa.execute(&mut s, "INSERT INTO H VALUES (1)").unwrap();
    idaa.execute(&mut s, "INSERT INTO T VALUES (9)").unwrap();
    idaa.execute(&mut s, "ROLLBACK").unwrap();
    let h = idaa.query(&mut s, "SELECT COUNT(*) FROM h").unwrap();
    let t = idaa.query(&mut s, "SELECT COUNT(*) FROM t WHERE x = 9").unwrap();
    check(
        "rollback atomic across host and accelerator",
        h.scalar().unwrap().render() == "0" && t.scalar().unwrap().render() == "0",
        &mut table,
    );

    // 2PC prepare failure leaves both sides clean.
    idaa.execute(&mut s, "BEGIN").unwrap();
    idaa.execute(&mut s, "INSERT INTO H VALUES (1)").unwrap();
    idaa.execute(&mut s, "INSERT INTO T VALUES (9)").unwrap();
    idaa.faults.registry.arm(idaa_netsim::sites::PREPARE_VOTE_NO, 0, 1);
    let failed = idaa.execute(&mut s, "COMMIT").is_err();
    let h = idaa.query(&mut s, "SELECT COUNT(*) FROM h").unwrap();
    let t = idaa.query(&mut s, "SELECT COUNT(*) FROM t WHERE x = 9").unwrap();
    check(
        "failed PREPARE rolls back all participants",
        failed && h.scalar().unwrap().render() == "0" && t.scalar().unwrap().render() == "0",
        &mut table,
    );
    out.table(table);
}

/// E7 — in-database analytics vs extract-to-client: k-means training.
fn e7_in_database_analytics(out: &mut Report) {
    let mut table = Table::new(&[
        "rows", "dims", "mode", "elapsed_ms", "bytes_moved", "wire_ms",
    ]);
    for rows in [10_000usize, 100_000, 300_000] {
        for dims in [4usize, 8] {
            let (idaa, mut s) = system(IdaaConfig::default());
            idaa_analytics::deploy_all(&idaa, SYSADM).unwrap();
            let cols: Vec<String> = (0..dims).map(|d| format!("F{d} DOUBLE")).collect();
            idaa.execute(
                &mut s,
                &format!("CREATE TABLE PTS (ID INT, {}) IN ACCELERATOR", cols.join(", ")),
            )
            .unwrap();
            let point = |i: usize| {
                let fs: Vec<String> = (0..dims)
                    .map(|d| {
                        let center = [0.0, 10.0, 20.0][i % 3];
                        format!("{:.2}E0", center + ((i * (d + 3)) % 100) as f64 / 100.0)
                    })
                    .collect();
                format!("({i}, {})", fs.join(", "))
            };
            insert_batched(&idaa, &mut s, "PTS", (0..rows).map(point));
            let col_list: Vec<String> = (0..dims).map(|d| format!("F{d}")).collect();
            let col_arg = col_list.join(",");
            let mut row = |mode: &str, t: Wall, link: &LinkMetrics| {
                table.row([
                    det(rows),
                    det(dims),
                    det(mode),
                    t.ms(),
                    det(fmt_bytes(link.total_bytes())),
                    det(ms(link.wire_time)),
                ]);
            };

            // In-database: CALL runs on the accelerator; no data movement.
            let (_, t_indb, link_indb) = measure(&idaa, || {
                idaa.query(
                    &mut s,
                    &format!("CALL ANALYTICS.KMEANS('PTS', '{col_arg}', 3, 20, 'KM_OUT')"),
                )
                .unwrap()
            });
            row("in-database", t_indb, &link_indb);

            // Client-side baseline: extract the matrix over the link, then
            // run the identical algorithm "at the client".
            let (_, t_client, link_client) = measure(&idaa, || {
                let (matrix, _) = idaa_analytics::io::extract_matrix_to_client(
                    &idaa,
                    &mut s,
                    &idaa_common::ObjectName::bare("PTS"),
                    &col_list,
                )
                .unwrap();
                kmeans(&matrix, &KMeansConfig { k: 3, max_iter: 20, ..Default::default() })
                    .unwrap()
            });
            row("extract-to-client", t_client, &link_client);
        }
    }
    out.table(table);
}

/// E8 — predictive scoring inside the accelerator vs at the client.
fn e8_in_database_scoring(out: &mut Report) {
    let mut table = Table::new(&[
        "score_rows", "mode", "elapsed_ms", "bytes_moved", "wire_ms",
    ]);
    for rows in [50_000usize, 200_000, 500_000] {
        let (idaa, mut s) = system(IdaaConfig::default());
        idaa_analytics::deploy_all(&idaa, SYSADM).unwrap();
        idaa.execute(
            &mut s,
            "CREATE TABLE OBS (ID INT, X DOUBLE, Y DOUBLE, LABEL VARCHAR(4)) IN ACCELERATOR",
        )
        .unwrap();
        let obs = |i: usize| {
            let hi = i % 2 == 1;
            let (cx, cy) = if hi { (8.0, 8.0) } else { (0.0, 0.0) };
            format!(
                "({i}, {:.2}E0, {:.2}E0, '{}')",
                cx + ((i * 53) % 100) as f64 / 100.0,
                cy + ((i * 31) % 100) as f64 / 100.0,
                if hi { "HI" } else { "LO" }
            )
        };
        insert_batched(&idaa, &mut s, "OBS", (0..rows).map(obs));
        idaa.query(&mut s, "CALL ANALYTICS.NAIVEBAYES_TRAIN('OBS', 'LABEL', 'X,Y', 'NBM')")
            .unwrap();
        let mut row = |mode: &str, t: Wall, link: &LinkMetrics| {
            table.row([
                det(rows),
                det(mode),
                t.ms(),
                det(fmt_bytes(link.total_bytes())),
                det(ms(link.wire_time)),
            ]);
        };

        let (_, t_indb, link_indb) = measure(&idaa, || {
            idaa.query(
                &mut s,
                "CALL ANALYTICS.NAIVEBAYES_SCORE('OBS', 'ID', 'X,Y', 'NBM', 'SCORES')",
            )
            .unwrap()
        });
        row("in-database", t_indb, &link_indb);

        let (_, t_client, link_client) = measure(&idaa, || {
            let model = idaa_analytics::procedures::load_nb_model(
                &idaa,
                &mut s,
                &idaa_common::ObjectName::bare("NBM"),
            )
            .unwrap();
            let (matrix, _) = idaa_analytics::io::extract_matrix_to_client(
                &idaa,
                &mut s,
                &idaa_common::ObjectName::bare("OBS"),
                &["X".to_string(), "Y".to_string()],
            )
            .unwrap();
            matrix.iter().map(|p| model.predict(p).0.to_string()).collect::<Vec<_>>()
        });
        row("extract-to-client", t_client, &link_client);
    }
    out.table(table);
}

/// E9 — ablation: replication batch size vs messages/bytes/latency.
fn e9_replication_batch(out: &mut Report) {
    const CHANGES: usize = 20_000;
    let mut table = Table::new(&[
        "batch", "apply_ms", "msgs", "bytes", "wire_ms",
    ]);
    for batch in [1usize, 32, 1024, 32_768] {
        let (idaa, mut s) = system(IdaaConfig {
            replication_batch: batch,
            auto_replicate: false,
            ..Default::default()
        });
        idaa.execute(&mut s, "CREATE TABLE T (K INT, V INT)").unwrap();
        accelerate(&idaa, &mut s, "T");
        insert_batched(&idaa, &mut s, "T", (0..CHANGES).map(|i| format!("({i}, {})", i % 100)));
        let (applied, t, link) = measure(&idaa, || idaa.replicate_now().unwrap());
        assert_eq!(applied, CHANGES);
        table.row([
            det(batch),
            t.ms(),
            det(link.total_messages()),
            det(fmt_bytes(link.total_bytes())),
            det(ms(link.wire_time)),
        ]);
    }
    out.table(table);
}

/// E10 — accelerator internals ablation: zone maps, slice parallelism,
/// groom after churn.
fn e10_accelerator_ablation(out: &mut Report) {
    const ROWS: usize = 1_000_000;
    let selective = "SELECT COUNT(*), SUM(v) FROM big WHERE k < 1000";

    let build = |slices: usize, zone_maps: bool| -> (Idaa, Session) {
        let cfg = IdaaConfig {
            accel: idaa_accel::AccelConfig { slices, zone_maps, parallel: true, parallelism: 0 },
            ..Default::default()
        };
        let (idaa, mut s) = system(cfg);
        idaa.execute(&mut s, "CREATE TABLE BIG (K INT, V INT) IN ACCELERATOR DISTRIBUTE BY HASH(K)")
            .unwrap();
        // Load sorted data directly (zone maps love clustering).
        let rows: Vec<idaa_common::Row> = (0..ROWS)
            .map(|i| vec![idaa_common::Value::Int(i as i32), idaa_common::Value::Int((i % 997) as i32)])
            .collect();
        let (txn, lsn) = (idaa.host().txns.next_id(), idaa.host().txns.current_lsn());
        idaa.accel().load_committed(txn, &idaa_common::ObjectName::bare("BIG"), rows, lsn).unwrap();
        (idaa, s)
    };

    let mut table = Table::new(&["slices", "zone_maps", "query_ms", "blocks_pruned"]);
    for slices in [1usize, 2, 4, 8] {
        for zones in [true, false] {
            let (idaa, mut s) = build(slices, zones);
            idaa.query(&mut s, selective).unwrap(); // warm
            let pruned0 = idaa.accel().stats.blocks_pruned.load(std::sync::atomic::Ordering::Relaxed);
            let (_, t, _) = measure(&idaa, || idaa.query(&mut s, selective).unwrap());
            let pruned = idaa.accel().stats.blocks_pruned.load(std::sync::atomic::Ordering::Relaxed)
                - pruned0;
            table.row([det(slices), det(zones), t.ms(), det(pruned)]);
        }
    }
    out.table(table);

    // Groom effect after churn.
    let (idaa, mut s) = build(4, true);
    idaa.execute(&mut s, "DELETE FROM BIG WHERE V < 500").unwrap();
    let full = "SELECT COUNT(*) FROM big";
    let (_, before, _) = measure(&idaa, || idaa.query(&mut s, full).unwrap());
    let groomed = idaa.accel_groom(&idaa_common::trace::Trace::disabled(), None).unwrap();
    let (_, after, _) = measure(&idaa, || idaa.query(&mut s, full).unwrap());
    let mut t2 = Table::new(&["phase", "scan_ms", "versions_groomed"]);
    t2.row([det("after 50% delete"), before.ms(), det(0)]);
    t2.row([det("after GROOM"), after.ms(), det(groomed)]);
    out.table(t2);
}

/// E11 — governance path overhead: DB2-side privilege checks on the
/// delegation path.
fn e11_governance_overhead(out: &mut Report) {
    let (idaa, mut s) = system(IdaaConfig::default());
    idaa_analytics::deploy_all(&idaa, SYSADM).unwrap();
    seed_sales(&idaa, &mut s, 20_000);
    accelerate(&idaa, &mut s, "SALES");
    idaa.execute(&mut s, "SET CURRENT QUERY ACCELERATION = ELIGIBLE").unwrap();
    idaa.execute(&mut s, "GRANT SELECT ON SALES TO ANALYST").unwrap();
    idaa.execute(&mut s, "GRANT EXECUTE ON ANALYTICS.DESCRIBE TO ANALYST").unwrap();

    // Raw privilege-check latency.
    const CHECKS: usize = 100_000;
    let table_name = idaa_common::ObjectName::qualified("APP", "SALES");
    let ((), t_checks) = timed(|| {
        for _ in 0..CHECKS {
            idaa.host()
                .privileges
                .read()
                .check("ANALYST", &table_name, Privilege::Select)
                .unwrap();
        }
    });

    // Authorized vs rejected CALL latency.
    let mut analyst = idaa.session("ANALYST");
    let (_, t_ok, _) = measure(&idaa, || {
        idaa.query(&mut analyst, "CALL ANALYTICS.DESCRIBE('SALES', 'SALES_STATS')").unwrap()
    });
    let mut intruder = idaa.session("INTRUDER");
    const REJECTS: usize = 1000;
    let ((), t_rejects) = timed(|| {
        for _ in 0..REJECTS {
            let _ = idaa
                .query(&mut intruder, "CALL ANALYTICS.DESCRIBE('SALES', 'X')")
                .unwrap_err();
        }
    });

    // Query-path overhead: offloaded query as admin (owner fast path) vs
    // as grantee (grant lookup).
    let q = "SELECT COUNT(*) FROM sales WHERE qty = 3";
    let (_, t_admin, _) = measure(&idaa, || idaa.query(&mut s, q).unwrap());
    idaa.execute(&mut analyst, "SET CURRENT QUERY ACCELERATION = ELIGIBLE").unwrap();
    let (_, t_analyst, _) = measure(&idaa, || idaa.query(&mut analyst, q).unwrap());

    let mut table = Table::new(&["metric", "value"]);
    let in_ms = |s: f64| format!("{:.2} ms", s * 1e3);
    table.row([
        det("privilege check"),
        t_checks.per(CHECKS).cell(|s| format!("{:.0} ns", s * 1e9)),
    ]);
    table.row([det("authorized CALL (DESCRIBE 20k rows)"), t_ok.cell(in_ms)]);
    table.row([det("rejected CALL"), t_rejects.per(REJECTS).cell(|s| format!("{:.1} us", s * 1e6))]);
    table.row([det("offloaded query as admin"), t_admin.cell(in_ms)]);
    table.row([det("offloaded query as grantee"), t_analyst.cell(in_ms)]);
    out.table(table);
}

/// E12 — the paper's end-to-end scenario: social-media-enriched churn
/// pipeline, legacy (no AOT, client-side mining) vs extended IDAA.
fn e12_end_to_end_scenario(out: &mut Report) {
    const CUSTOMERS: usize = 5_000;
    const EVENTS: usize = 50_000;

    let build = || -> (Idaa, Session) {
        let (idaa, mut s) = system(IdaaConfig::default());
        idaa_analytics::deploy_all(&idaa, SYSADM).unwrap();
        idaa.execute(
            &mut s,
            "CREATE TABLE CUSTOMERS (CUST_ID INT NOT NULL, TENURE_M INT, MONTHLY DOUBLE, \
             SUPPORT_CALLS INT, CHURNED VARCHAR(3))",
        )
        .unwrap();
        let customer = |i: i64| {
            let tenure = (i * 37 % 72) + 1;
            let calls = (i * 13) % 9;
            let churned = if tenure < 12 && calls > 4 { "YES" } else { "NO" };
            format!("({i}, {tenure}, {}.0E0, {calls}, '{churned}')", 20 + i % 80)
        };
        insert_batched(&idaa, &mut s, "CUSTOMERS", (0..CUSTOMERS as i64).map(customer));
        accelerate(&idaa, &mut s, "CUSTOMERS");
        idaa.execute(&mut s, "SET CURRENT QUERY ACCELERATION = ELIGIBLE").unwrap();
        (idaa, s)
    };

    let feature_sql = "SELECT c.cust_id, CAST(c.tenure_m AS DOUBLE) AS TENURE_M, c.monthly, \
                CAST(c.support_calls AS DOUBLE) AS SUPPORT_CALLS, \
                COALESCE(CAST(a.neg_posts AS DOUBLE), 0.0E0) AS NEG_POSTS, c.churned \
         FROM customers c LEFT JOIN social_agg a ON c.cust_id = a.cust_id".to_string();
    let agg_sql = format!(
        "SELECT cust_id % {CUSTOMERS} AS CUST_ID, \
                CAST(SUM(CASE WHEN sentiment < 0 THEN 1 ELSE 0 END) AS INT) AS NEG_POSTS \
         FROM social GROUP BY cust_id % {CUSTOMERS}"
    );

    let mut table = Table::new(&["mode", "elapsed_ms", "bytes_moved", "msgs", "wire_ms"]);

    // --- Extended IDAA: direct load + AOT stages + in-database mining -----
    {
        let (idaa, mut s) = build();
        let ((), t, link) = measure(&idaa, || {
            idaa.execute(
                &mut s,
                "CREATE TABLE SOCIAL (EVENT_ID INT, CUST_ID INT, TOPIC VARCHAR(10), \
                 SENTIMENT DOUBLE, POSTED_AT TIMESTAMP) IN ACCELERATOR",
            )
            .unwrap();
            let direct = LoadTarget::AcceleratorDirect;
            load_events(&idaa, &Loader::new(SYSADM), EVENTS, 5, "SOCIAL", direct);
            let p = Pipeline::new()
                .stage("SOCIAL_AGG", &agg_sql)
                .stage("FEATURES", &feature_sql);
            p.run(&idaa, &mut s, PipelineMode::AcceleratorOnly).unwrap();
            idaa.query(
                &mut s,
                "CALL ANALYTICS.DECTREE_TRAIN('FEATURES', 'CHURNED', \
                 'TENURE_M,MONTHLY,SUPPORT_CALLS,NEG_POSTS', 'MODEL', 5)",
            )
            .unwrap();
            idaa.query(
                &mut s,
                "CALL ANALYTICS.DECTREE_SCORE('FEATURES', 'CUST_ID', \
                 'TENURE_M,MONTHLY,SUPPORT_CALLS,NEG_POSTS', 'MODEL', 'SCORES')",
            )
            .unwrap();
        });
        table.row([
            det("extended IDAA (AOT + in-DB)"),
            t.ms(),
            det(fmt_bytes(link.total_bytes())),
            det(link.total_messages()),
            det(ms(link.wire_time)),
        ]);
    }

    // --- Legacy: load via DB2, materialize stages in DB2, mine client-side
    {
        let (idaa, mut s) = build();
        let ((), t, link) = measure(&idaa, || {
            idaa.execute(
                &mut s,
                "CREATE TABLE SOCIAL (EVENT_ID INT, CUST_ID INT, TOPIC VARCHAR(10), \
                 SENTIMENT DOUBLE, POSTED_AT TIMESTAMP)",
            )
            .unwrap();
            accelerate(&idaa, &mut s, "SOCIAL");
            load_events(&idaa, &Loader::new(SYSADM), EVENTS, 5, "SOCIAL", LoadTarget::Db2);
            let p = Pipeline::new()
                .stage("SOCIAL_AGG", &agg_sql)
                .stage("FEATURES", &feature_sql);
            p.run(&idaa, &mut s, PipelineMode::MaterializeInDb2).unwrap();
            // Client-side mining: extract features over the link, train and
            // score locally.
            let cols: Vec<String> = ["TENURE_M", "MONTHLY", "SUPPORT_CALLS", "NEG_POSTS"]
                .iter()
                .map(|c| c.to_string())
                .collect();
            // The extract crosses the link as encoded wire frames (client-side
            // baseline pays full data-movement cost, but through the same
            // codec). The join feeding FEATURES has no ORDER BY; its row
            // order follows the accelerator's slice count, not its workers.
            let features = idaa_common::ObjectName::qualified("APP", "FEATURES");
            let grant = idaa.authorize_one(&s, &features, Privilege::Select).unwrap();
            let idaa_common::Rows { schema, rows } =
                idaa.extract_accel_table(&mut s, &grant).unwrap();
            let (matrix, _) = idaa_analytics::io::numeric_matrix(&schema, &rows, &cols).unwrap();
            let labels = idaa_analytics::io::label_column(&schema, &rows, "CHURNED").unwrap();
            let model = idaa_analytics::dectree::train(
                &matrix,
                &labels,
                &idaa_analytics::dectree::TreeConfig { max_depth: 5, ..Default::default() },
            )
            .unwrap();
            let _scores: Vec<&str> = matrix.iter().map(|p| model.predict(p)).collect();
        });
        table.row([
            det("legacy (materialize + client)"),
            t.ms(),
            det(fmt_bytes(link.total_bytes())),
            det(link.total_messages()),
            det(ms(link.wire_time)),
        ]);
    }
    out.table(table);
}

/// E14 — link outage and recovery: offload-eligible queries fail over to
/// DB2, AOT statements surface -30081, committed changes queue for
/// catch-up, and an operator recovery probe restores acceleration and
/// drains the backlog. Claim: federation survives accelerator outages
/// without losing or duplicating replicated data.
fn e14_outage_recovery(out: &mut Report) {
    let (idaa, mut s) = system(IdaaConfig::default());
    seed_sales(&idaa, &mut s, 10_000);
    accelerate(&idaa, &mut s, "SALES");
    idaa.execute(&mut s, "CREATE TABLE EVENTS (X INT) IN ACCELERATOR").unwrap();
    idaa.execute(&mut s, "SET CURRENT QUERY ACCELERATION = ELIGIBLE").unwrap();

    let mut table = Table::new(&[
        "phase", "query_route", "aot_errs", "backlog_rows", "link_msgs", "link_bytes",
        "failed_xfers",
    ]);
    let mut next_id = 100_000usize;
    let mut phase = |name: &str,
                     s: &mut Session,
                     prep: &dyn Fn(&Idaa),
                     table: &mut Table| {
        let before = idaa.link().metrics();
        prep(&idaa);
        let mut aot_errs = 0u64;
        let mut route = idaa_core::Route::Host;
        for i in 0..40 {
            let id = next_id;
            next_id += 1;
            idaa.execute(
                s,
                &format!("INSERT INTO SALES VALUES ({id}, 'EU', 'P001', 1.5E0, 1, DATE '2015-01-01')"),
            )
            .unwrap();
            if idaa.execute(s, &format!("INSERT INTO EVENTS VALUES ({i})")).is_err() {
                aot_errs += 1;
            }
            route = idaa.execute(s, "SELECT COUNT(*) FROM sales").unwrap().route;
        }
        let m = idaa.link().metrics().since(&before);
        table.row([
            det(name),
            det(format!("{route:?}")),
            det(aot_errs),
            det(idaa.replication_backlog()),
            det(m.total_messages()),
            det(fmt_bytes(m.total_bytes())),
            det(m.failures),
        ]);
    };

    phase("healthy", &mut s, &|_| {}, &mut table);
    phase(
        "outage",
        &mut s,
        &|idaa: &Idaa| {
            let now = idaa.link().now();
            idaa.set_fault_plan(idaa_netsim::SitePlan::default().and_window(
                idaa_netsim::sites::LINK_OUTAGE,
                now..now + std::time::Duration::from_secs(30),
            ));
        },
        &mut table,
    );
    phase(
        "recovery",
        &mut s,
        &|idaa: &Idaa| {
            // The outage window passes on the virtual clock; an operator
            // probe restores the accelerator and drains the backlog.
            idaa.link().advance(std::time::Duration::from_secs(35));
            assert!(idaa.recover(), "recovery probe after the outage window");
        },
        &mut table,
    );
    out.table(table);
    out.line(
        "note: outage-phase AOT statements fail with SQLCODE -30081; the recovery \
         probe replays queued commits and replication catches up before new work.",
    );
}

/// E15 — wire codec: logical (pre-encoding) vs. encoded bytes and message
/// counts per workload. Dictionary/RLE/delta columns compress the
/// low-cardinality strings and sequential ids these workloads ship; framing
/// is deterministic and `wire_ms` is virtual-clock time, so the whole table is
/// byte-stable.
fn e15_wire_codec(out: &mut Report) {
    let mut table = Table::new(&[
        "workload", "rows", "logical", "wire", "ratio", "msgs", "wire_ms",
    ]);
    let codec_row = |workload: &str, rows: usize, m: &LinkMetrics| {
        let ratio = if m.total_bytes() == 0 {
            "-".to_string()
        } else {
            format!("{:.2}x", m.total_logical_bytes() as f64 / m.total_bytes() as f64)
        };
        [
            det(workload),
            det(rows),
            det(fmt_bytes(m.total_logical_bytes())),
            det(fmt_bytes(m.total_bytes())),
            det(ratio),
            det(m.total_messages()),
            det(ms(m.wire_time)),
        ]
    };
    const ROWS: usize = 20_000;

    // Bulk load: seeded event stream straight into an AOT — the loader's
    // chunked frame path.
    {
        let (idaa, _s) = system(IdaaConfig::default());
        let mut s = idaa.session(SYSADM);
        idaa.execute(
            &mut s,
            "CREATE TABLE EVENTS (EVENT_ID INT, USER_ID INT, TOPIC VARCHAR(10), \
             SENTIMENT DOUBLE, POSTED_AT TIMESTAMP) IN ACCELERATOR",
        )
        .unwrap();
        let direct = LoadTarget::AcceleratorDirect;
        let (_, _, m) = measure(&idaa, || {
            load_events(&idaa, &Loader::new(SYSADM), ROWS, 7, "EVENTS", direct)
        });
        table.row(codec_row("bulk load (direct)", ROWS, &m));
    }

    // INSERT … SELECT with a DB2 target: the accelerator's result set comes
    // back to the host as encoded frames.
    {
        let (idaa, mut s) = system(IdaaConfig::default());
        seed_sales(&idaa, &mut s, ROWS);
        accelerate(&idaa, &mut s, "SALES");
        idaa.execute(&mut s, "SET CURRENT QUERY ACCELERATION = ELIGIBLE").unwrap();
        idaa.execute(&mut s, "CREATE TABLE OUT1 (ID INT, REGION VARCHAR(8), AMOUNT DOUBLE)")
            .unwrap();
        let (_, _, m) = measure(&idaa, || {
            idaa.execute(&mut s, "INSERT INTO OUT1 SELECT id, region, amount FROM sales")
                .unwrap()
        });
        table.row(codec_row("INSERT..SELECT (accel->DB2)", ROWS, &m));
    }

    // Replication catch-up: a committed host backlog drains to the
    // accelerator as per-batch change frames. Auto-replication is off so
    // the backlog accumulates and one catch-up round ships it all.
    {
        let (idaa, mut s) = system(IdaaConfig { auto_replicate: false, ..Default::default() });
        seed_sales(&idaa, &mut s, ROWS);
        accelerate(&idaa, &mut s, "SALES");
        for i in 0..ROWS / 4 {
            let id = ROWS + i;
            let sale = if i % 500 == 0 {
                "'EU', 'P001', 1.5E0, 1, DATE '2015-01-01'"
            } else {
                "'US', 'P002', 2.5E0, 2, DATE '2015-02-02'"
            };
            idaa.execute(&mut s, &format!("INSERT INTO SALES VALUES ({id}, {sale})")).unwrap();
        }
        let (_, _, m) = measure(&idaa, || idaa.replicate_now().unwrap());
        table.row(codec_row("replication catch-up", ROWS / 4, &m));
    }

    // Analytics write-back: results are produced and stored on the
    // accelerator, so only fixed-size control frames cross (ratio 1.00x).
    {
        let (idaa, mut s) = system(IdaaConfig::default());
        idaa_analytics::deploy_all(&idaa, SYSADM).unwrap();
        idaa.execute(
            &mut s,
            "CREATE TABLE PTS (ID INT, F0 DOUBLE, F1 DOUBLE, F2 DOUBLE, F3 DOUBLE) IN ACCELERATOR",
        )
        .unwrap();
        let point = |i: usize| {
            let c = [(0.0), (10.0), (20.0)][i % 3];
            format!(
                "({i}, {:.2}E0, {:.2}E0, {:.2}E0, {:.2}E0)",
                c + (i % 100) as f64 / 100.0,
                c + (i % 77) as f64 / 100.0,
                c + (i % 53) as f64 / 100.0,
                c + (i % 31) as f64 / 100.0
            )
        };
        insert_batched(&idaa, &mut s, "PTS", (0..5_000).map(point));
        let (_, _, m) = measure(&idaa, || {
            idaa.query(&mut s, "CALL ANALYTICS.KMEANS('PTS', 'F0,F1,F2,F3', 3, 10, 'KM_OUT')")
                .unwrap()
        });
        table.row(codec_row("analytics write-back", 5000, &m));
    }
    out.table(table);
}

/// E16 — crash–restart recovery: checkpoint cadence vs restart cost. The
/// same AOT workload runs under different checkpoint intervals, then the
/// accelerator crashes with one transaction still in flight and an
/// operator probe restarts it. Frequent checkpoints shrink the log tail a
/// restart replays (and the virtual recovery time) at the price of more
/// checkpoint bytes written; recovery consumes virtual time only, so the
/// table is byte-stable per run.
fn e16_crash_recovery(out: &mut Report) {
    let mut table = Table::new(&[
        "ckpt_every", "ckpts", "ckpt_bytes", "tail_records", "tail_bytes",
        "recovery_virt_us", "aborted", "in_doubt",
    ]);
    use std::time::Duration;
    for every_us in [500u64, 2_000, 10_000, 0] {
        let (label, every) = if every_us == 0 {
            ("off".to_string(), Duration::from_secs(3600))
        } else {
            (format!("{every_us}us"), Duration::from_micros(every_us))
        };
        let (idaa, mut s) =
            system(IdaaConfig { checkpoint_every: every, ..IdaaConfig::default() });
        idaa.execute(&mut s, "CREATE TABLE EVENTS (ID INT, V INT) IN ACCELERATOR").unwrap();
        idaa.execute(&mut s, "SET CURRENT QUERY ACCELERATION = ELIGIBLE").unwrap();

        let mut ckpts = 0u64;
        let mut last_cp = idaa.accel().durable().last_checkpoint_at();
        for i in 0..400 {
            idaa.execute(&mut s, &format!("INSERT INTO EVENTS VALUES ({i}, 0)")).unwrap();
            if i % 10 == 9 {
                idaa.execute(&mut s, &format!("UPDATE EVENTS SET V = V + 1 WHERE ID <= {i}"))
                    .unwrap();
            }
            // A steady virtual-clock tick makes the checkpoint cadence the
            // interval's, not the wire time's.
            idaa.link().advance(Duration::from_micros(50));
            let cp = idaa.accel().durable().last_checkpoint_at();
            if cp != last_cp {
                ckpts += 1;
                last_cp = cp;
            }
        }
        // Crash with one transaction still unprepared: recovery must abort
        // it durably.
        idaa.execute(&mut s, "BEGIN").unwrap();
        idaa.execute(&mut s, "INSERT INTO EVENTS VALUES (9999, 9)").unwrap();
        idaa.accel().crash();
        let before = idaa.link().now();
        assert!(idaa.recover(), "recovery probe must succeed on a healthy link");
        let recovery_virt = idaa.link().now() - before;
        idaa.execute(&mut s, "ROLLBACK").unwrap();

        let stats = idaa.last_restart().expect("the crash forced a restart");
        let n = idaa.query(&mut s, "SELECT COUNT(*) FROM events").unwrap();
        assert_eq!(
            n.scalar().unwrap(),
            &idaa_common::Value::BigInt(400),
            "replay must rebuild exactly the committed rows"
        );
        table.row([
            det(label),
            det(ckpts),
            det(fmt_bytes(stats.checkpoint_bytes)),
            det(stats.log_records_replayed),
            det(fmt_bytes(stats.log_bytes_replayed)),
            det(recovery_virt.as_micros()),
            det(stats.aborted_in_flight),
            det(stats.rematerialized_in_doubt),
        ]);
    }
    out.table(table);
    out.line(
        "note: recovery time = fixed restart latency + (checkpoint + log tail) bytes \
         at the configured replay bandwidth, all on the virtual clock.",
    );
}

/// E17 — observability: what does full statement tracing record, and what
/// does it buy? The same offloaded workload runs with the trace sink off
/// and on; the span counts and rendered-trace bytes are deterministic
/// (virtual-clock timestamps only), so the table is byte-stable per seed.
/// A second table shows the per-operator row attribution EXPLAIN ANALYZE
/// reads off the same spans. (What tracing costs in wall time is
/// `trace.overhead_ratio` in `crates/benchmark`.)
fn e17_trace_attribution(out: &mut Report) {
    fn span_count(n: &idaa_common::SpanNode) -> usize {
        1 + n.children.iter().map(span_count).sum::<usize>()
    }
    let query = "SELECT region, COUNT(*), SUM(amount) FROM sales \
                 WHERE qty > 2 GROUP BY region ORDER BY region";
    let mut table = Table::new(&["tracing", "stmts", "traces", "spans", "trace_bytes"]);
    let mut attribution: Option<idaa_common::SpanNode> = None;
    for traced in [false, true] {
        let (idaa, mut setup) = system(IdaaConfig::default());
        seed_sales(&idaa, &mut setup, 20_000);
        accelerate(&idaa, &mut setup, "SALES");
        idaa.tracer().set_enabled(traced);
        idaa.tracer().clear();
        // Sessions capture the sink's enablement at creation, so open the
        // measured session *after* the toggle.
        let mut s = idaa.session(SYSADM);
        idaa.execute(&mut s, "SET CURRENT QUERY ACCELERATION = ELIGIBLE").unwrap();
        let stmts = 50usize;
        for _ in 0..stmts {
            idaa.query(&mut s, query).unwrap();
        }
        let traces = idaa.tracer().statements();
        let spans: usize = traces.iter().map(|t| span_count(&t.root)).sum();
        let bytes: usize = traces.iter().map(|t| t.root.render().len()).sum();
        table.row([
            det(if traced { "on" } else { "off" }),
            det(stmts),
            det(traces.len()),
            det(spans),
            det(fmt_bytes(bytes as u64)),
        ]);
        if traced {
            attribution = traces.last().map(|t| t.root.clone());
        }
    }
    out.table(table);
    let root = attribution.expect("traced run recorded statements");
    let mut ops = Table::new(&["operator", "rows_out"]);
    for op in root.find_all("op") {
        ops.row([
            det(op.attr("op").unwrap_or("?")),
            det(op.attr("rows").or(op.attr("fused").map(|_| "fused")).unwrap_or("?")),
        ]);
    }
    out.table(ops);
    out.line(
        "note: spans are stamped with virtual-clock timestamps only, so both tables \
         are byte-stable per seed; the sink caps retained statements at 1024.",
    );
}

/// E19 — fleet failover: the cost of losing a shard primary mid-scatter,
/// as the replication factor grows. A 3-node fleet serves a sharded AOT;
/// node 0 is crashed at the mid-scatter site and the same gather re-runs.
/// At replication factor 1 the only path back is waiting for the crashed
/// node's own restart (checkpoint + log replay) inside the statement; at
/// factor ≥ 2 the gather retargets a replica immediately and the restarted
/// node later rejoins via a metered catch-up copy before the rebalance
/// migrates its shards home. Everything runs on the virtual clock and the
/// seeded fault stream, so the table is byte-stable per run.
fn e19_fleet_failover(out: &mut Report) {
    use idaa_core::FleetConfig;
    use idaa_netsim::SitePlan;
    use std::time::Duration;

    let mut table = Table::new(&[
        "replicas", "post_crash_stmt", "healthy_virt_us", "failover_virt_us", "failovers",
        "catch_up_bytes", "rebalances", "fleet_bytes",
    ]);
    for replicas in [1usize, 2, 3] {
        let (idaa, mut s) = system(IdaaConfig {
            fleet: FleetConfig {
                accelerators: 3,
                shards: 6,
                replication_factor: replicas,
            },
            ..IdaaConfig::default()
        });
        idaa.execute(
            &mut s,
            "CREATE TABLE CLICKS (ID INT NOT NULL, SITE VARCHAR(8), HITS INT) \
             IN ACCELERATOR DISTRIBUTE BY HASH(ID)",
        )
        .unwrap();
        idaa.execute(&mut s, "SET CURRENT QUERY ACCELERATION = ELIGIBLE").unwrap();
        let vals: Vec<String> = (0..600)
            .map(|i| format!("({i}, 'S{}', {})", i % 5, i % 97))
            .collect();
        idaa.execute(&mut s, &format!("INSERT INTO CLICKS VALUES {}", vals.join(", ")))
            .unwrap();

        let gather = "SELECT SITE, COUNT(*), SUM(HITS) FROM CLICKS GROUP BY SITE ORDER BY SITE";
        // Healthy gather: the baseline virtual cost of the scatter.
        let before = idaa.link().now();
        let healthy = idaa.query(&mut s, gather).unwrap();
        let healthy_virt = idaa.link().now() - before;

        // Crash the primary of shards 0 and 3 mid-scatter and re-run. With a
        // sole replica the statement fails with -904 and the operator must
        // drive recovery before retrying; the retry's restart wait is part
        // of the failover latency.
        idaa.set_fault_plan_on(0, SitePlan::at(idaa_netsim::sites::MID_SCATTER, 1).seeded(0xE19));
        let before = idaa.link().now();
        let (post_crash, failed_over) = match idaa.query(&mut s, gather) {
            Ok(rows) => ("ok".to_string(), rows),
            Err(e) => {
                assert_eq!(e.sqlcode(), -904, "sole-replica loss surfaces as -904");
                assert!(idaa.recover_node(0), "operator recovery must succeed");
                (format!("{}", e.sqlcode()), idaa.query(&mut s, gather).unwrap())
            }
        };
        let failover_virt = idaa.link().now() - before;
        assert_eq!(healthy.rows, failed_over.rows, "failover must not change the answer");

        // Let the crashed node rejoin and the rebalance migrate shards home.
        assert!(idaa.recover_node(0), "post-crash recovery must succeed");
        idaa.link().advance(Duration::from_millis(25));
        let settled = idaa.query(&mut s, gather).unwrap();
        assert_eq!(healthy.rows, settled.rows);

        table.row([
            det(replicas),
            det(post_crash),
            det(healthy_virt.as_micros()),
            det(failover_virt.as_micros()),
            det(idaa.fleet_failovers()),
            det(fmt_bytes(idaa.fleet_catch_up_bytes())),
            det(idaa.fleet_rebalances()),
            det(fmt_bytes(idaa.fleet_link_metrics().total_bytes())),
        ]);
    }
    out.table(table);
    out.line(
        "note: at factor 1 the post-crash statement fails (-904) and the operator retry \
         waits out the restart; at factor >= 2 the gather retargets a replica with no \
         application-visible error, and the failover latency instead absorbs the crashed \
         node's in-statement restart plus its metered catch-up copy.",
    );
}

/// E20 — a join on a fleet's shards: a sharded-probe ⋈ replicated-build
/// join, where every shard joins against its node's replica of the
/// dimension, so only joined rows come back.
fn e20_fleet_shard_join(out: &mut Report) {
    use idaa_core::FleetConfig;

    let mut table = Table::new(&[
        "probe_rows", "dim_rows", "rows_out", "stmt_to_accel", "gather_to_host",
    ]);
    let (idaa, mut s) = system(IdaaConfig {
        fleet: FleetConfig {
            accelerators: 3,
            shards: 4,
            replication_factor: 2,
        },
        ..IdaaConfig::default()
    });
    idaa.execute(
        &mut s,
        "CREATE TABLE FJOIN (X INT NOT NULL, G VARCHAR(2)) IN ACCELERATOR \
         DISTRIBUTE BY HASH(X)",
    )
    .unwrap();
    let vals: Vec<String> =
        (0..4000).map(|i| format!("({i}, '{}')", ["a", "b"][i % 2])).collect();
    for chunk in vals.chunks(500) {
        idaa.execute(&mut s, &format!("INSERT INTO FJOIN VALUES {}", chunk.join(", "))).unwrap();
    }
    idaa.execute(&mut s, "CREATE TABLE FDIM (X INT NOT NULL, NAME VARCHAR(4))").unwrap();
    let dims: Vec<String> = (0..40).map(|i| format!("({}, 'D{:02}')", i * 100, i)).collect();
    idaa.execute(&mut s, &format!("INSERT INTO FDIM VALUES {}", dims.join(", "))).unwrap();
    accelerate(&idaa, &mut s, "FDIM");
    idaa.execute(&mut s, "SET CURRENT QUERY ACCELERATION = ELIGIBLE").unwrap();
    let join = "SELECT f.x, d.name FROM fjoin f INNER JOIN fdim d ON f.x = d.x \
                ORDER BY f.x, d.name";
    let (rows, _, delta) = measure(&idaa, || idaa.query(&mut s, join).unwrap());
    table.row([
        det(4000),
        det(40),
        det(rows.len()),
        det(fmt_bytes(delta.bytes_to_accel)),
        det(fmt_bytes(delta.bytes_to_host)),
    ]);
    out.table(table);

    // Part 2: the shapes whose sharded scan cannot cut at a join or a sink.
    // Each scan still ships its own cut, filtered and projected on the shards.
    let mut shapes = Table::new(&["shape", "merge", "rows_out", "stmt_to_accel", "gather_to_host"]);
    for (shape, sql) in [
        (
            "self_join",
            "SELECT a.g, COUNT(*) FROM fjoin a INNER JOIN fjoin b ON a.x = b.x \
             GROUP BY a.g ORDER BY a.g",
        ),
        ("union", "SELECT x FROM fjoin WHERE x < 100 UNION SELECT x FROM fdim ORDER BY 1"),
        (
            "null_supplying",
            "SELECT d.name, f.g FROM fdim d LEFT JOIN fjoin f ON d.x = f.x ORDER BY d.name",
        ),
        (
            "join_above_cut",
            "SELECT t.g, t.c, d.name FROM (SELECT g, COUNT(*) AS c FROM fjoin GROUP BY g) AS t \
             INNER JOIN fdim d ON d.x < t.c ORDER BY t.g, d.name",
        ),
    ] {
        let (rows, _, delta) = measure(&idaa, || idaa.query(&mut s, sql).unwrap());
        let trace = idaa.tracer().last().expect("the query is traced");
        let merge = trace.root.find("gather").and_then(|g| g.attr("merge")).unwrap_or("whole");
        shapes.row([
            det(shape),
            det(merge),
            det(rows.len()),
            det(fmt_bytes(delta.bytes_to_accel)),
            det(fmt_bytes(delta.bytes_to_host)),
        ]);
    }
    out.table(shapes);
    out.line(
        "note: the join result and the gather byte counts are deterministic; each shard \
         joins its rows against its own replica of the dimension and ships only its sorted \
         joined rows. In part 2 each sharded scan ships its own cut, the self-join's two \
         bare scans of one table once.",
    );
}

/// E21 — storage faults and self-healing durability. Part 1 sweeps the
/// background scrub interval under one pinned bit-rot firing: a faster
/// scrub finds the latent corruption sooner (shrinking the exposure
/// window before a crash would need the damaged record) and repairs it
/// with a local checkpoint, while `off` leaves detection to recovery,
/// which must discard the media and re-materialize the node from the
/// host. Part 2 prices the three repair paths — a rotted checkpoint
/// falling back to the previous valid image (longer log replay), a host
/// re-shipment after unrepairable log rot, and a fleet replica copy.
/// Both tables are byte-stable per seed.
fn e21_storage_faults(out: &mut Report) {
    use idaa_netsim::{sites, SitePlan};
    use std::time::Duration;

    let mut table = Table::new(&[
        "scrub_every", "detected_by", "exposure_virt_us", "scrub_steps", "scrub_scanned",
        "repair", "repair_bytes", "rows_ok",
    ]);
    for every_us in [0u64, 2_000, 500, 100] {
        let (label, every) = if every_us == 0 {
            ("off".to_string(), Duration::ZERO)
        } else {
            (format!("{every_us}us"), Duration::from_micros(every_us))
        };
        let (idaa, mut s) = system(IdaaConfig {
            // Checkpoints off so the rotted record stays in the replay
            // tail: detection is the scrub's job or recovery's, nothing
            // quietly truncates the damage away.
            checkpoint_every: Duration::from_secs(3600),
            scrub_every: every,
            ..IdaaConfig::default()
        });
        // A replicated, loaded table: if recovery has to discard the
        // media, the rebuild re-ships it from the host — no data loss,
        // just metered repair traffic.
        idaa.execute(&mut s, "CREATE TABLE EVENTS (ID INT NOT NULL, V INT)").unwrap();
        idaa.execute(&mut s, "CALL ACCEL_ADD_TABLES('EVENTS')").unwrap();
        idaa.execute(&mut s, "CALL ACCEL_LOAD_TABLES('EVENTS')").unwrap();
        idaa.execute(&mut s, "SET CURRENT QUERY ACCELERATION = ELIGIBLE").unwrap();
        idaa.set_fault_plan(SitePlan::at(sites::BITROT_LOG_SEGMENT, 5).seeded(0xE21));

        let mut rot_at = None;
        let mut found_at = None;
        for i in 0..300 {
            idaa.execute(&mut s, &format!("INSERT INTO EVENTS VALUES ({i}, 0)")).unwrap();
            if i % 20 == 19 {
                idaa.replicate_now().unwrap();
            }
            idaa.link().advance(Duration::from_micros(50));
            if rot_at.is_none() && !idaa.faults.registry.fired().is_empty() {
                rot_at = Some(idaa.link().now());
            }
            if found_at.is_none() && idaa.metrics().counter("disk.corruptions_detected") > 0 {
                found_at = Some(idaa.link().now());
            }
        }
        idaa.replicate_now().unwrap();
        let rot_at = rot_at.expect("the pinned bit-rot must fire within the workload");
        let scrubbed = found_at.is_some();
        // Crash: if the scrub never found the rot, recovery does — and the
        // exposure window is the whole remaining run.
        idaa.accel().crash();
        assert!(idaa.recover(), "every run must converge to a serving node");
        let found_at = found_at.unwrap_or_else(|| idaa.link().now());

        let n = idaa.query(&mut s, "SELECT COUNT(*) FROM events").unwrap();
        assert_eq!(
            n.scalar().unwrap(),
            &idaa_common::Value::BigInt(300),
            "a storage fault must never change the answer"
        );
        let rebuilds = idaa.metrics().counter("disk.node_rebuilds");
        assert_eq!(rebuilds, u64::from(!scrubbed), "scrub repair must pre-empt the rebuild");
        table.row([
            det(label),
            det(if scrubbed { "scrub" } else { "recovery" }),
            det((found_at - rot_at).as_micros()),
            det(idaa.metrics().counter("disk.scrub.steps")),
            det(fmt_bytes(idaa.metrics().counter("disk.scrub.scanned_bytes"))),
            det(if scrubbed { "local_ckpt" } else { "host_reship" }),
            det(fmt_bytes(idaa.metrics().counter("disk.repair.bytes"))),
            det(n.scalar().unwrap().render()),
        ]);
    }
    out.table(table);

    // Part 2: what each repair path costs in bytes, same fault family.
    let mut paths = Table::new(&[
        "path", "ckpt_fallbacks", "replayed", "repair_bytes", "catch_up_bytes", "quarantined",
    ]);

    // (a) A rotted checkpoint: recovery discards it and replays the longer
    // log tail behind the previous valid image — repair is pure replay.
    {
        let (idaa, mut s) = system(IdaaConfig {
            checkpoint_every: Duration::from_micros(300),
            ..IdaaConfig::default()
        });
        idaa.execute(&mut s, "CREATE TABLE EVENTS (ID INT, V INT) IN ACCELERATOR").unwrap();
        idaa.execute(&mut s, "SET CURRENT QUERY ACCELERATION = ELIGIBLE").unwrap();
        idaa.set_fault_plan(SitePlan::at(sites::BITROT_CHECKPOINT, 2).seeded(0xE21));
        let mut crashed = false;
        for i in 0..200 {
            idaa.execute(&mut s, &format!("INSERT INTO EVENTS VALUES ({i}, 0)")).unwrap();
            // Crash at the firing, while the rotted image is still the
            // newest retained checkpoint.
            if !crashed && !idaa.faults.registry.fired().is_empty() {
                idaa.accel().crash();
                idaa.link().advance(Duration::from_millis(10));
                assert!(idaa.recover(), "fallback recovery must succeed");
                crashed = true;
            }
            idaa.link().advance(Duration::from_micros(100));
        }
        assert!(crashed, "the pinned checkpoint rot must fire");
        let stats = idaa.last_restart().expect("the crash forced a restart");
        assert!(stats.checkpoint_fallbacks >= 1);
        paths.row([
            det("ckpt_fallback"),
            det(stats.checkpoint_fallbacks),
            det(fmt_bytes(stats.checkpoint_bytes + stats.log_bytes_replayed)),
            det(fmt_bytes(idaa.metrics().counter("disk.repair.bytes"))),
            det(0),
            det(0),
        ]);
    }

    // (b) Unrepairable log rot on a single accelerator: the rebuild
    // re-ships every replicated table from the host over the wire.
    {
        let (idaa, mut s) = system(IdaaConfig {
            checkpoint_every: Duration::from_secs(3600),
            ..IdaaConfig::default()
        });
        idaa.execute(&mut s, "CREATE TABLE EVENTS (ID INT NOT NULL, V INT)").unwrap();
        idaa.execute(&mut s, "CALL ACCEL_ADD_TABLES('EVENTS')").unwrap();
        idaa.execute(&mut s, "CALL ACCEL_LOAD_TABLES('EVENTS')").unwrap();
        idaa.execute(&mut s, "SET CURRENT QUERY ACCELERATION = ELIGIBLE").unwrap();
        idaa.set_fault_plan(SitePlan::at(sites::BITROT_LOG_SEGMENT, 3).seeded(0xE21));
        for i in 0..200 {
            idaa.execute(&mut s, &format!("INSERT INTO EVENTS VALUES ({i}, 0)")).unwrap();
        }
        idaa.replicate_now().unwrap();
        idaa.accel().crash();
        assert!(idaa.recover(), "the rebuild path must bring the node back");
        let stats = idaa.last_restart().expect("the crash forced a restart");
        let n = idaa.query(&mut s, "SELECT COUNT(*) FROM events").unwrap();
        assert_eq!(n.scalar().unwrap(), &idaa_common::Value::BigInt(200));
        paths.row([
            det("host_reship"),
            det(stats.checkpoint_fallbacks),
            det(fmt_bytes(stats.checkpoint_bytes + stats.log_bytes_replayed)),
            det(fmt_bytes(idaa.metrics().counter("disk.repair.bytes"))),
            det(0),
            det(idaa.accel().quarantined_tables().len()),
        ]);
    }

    // (c) The same rot on one node of a fleet: shard contents come back
    // from live replicas via the standard metered catch-up copy.
    {
        use idaa_core::FleetConfig;
        let (idaa, mut s) = system(IdaaConfig {
            checkpoint_every: Duration::from_secs(3600),
            fleet: FleetConfig {
                accelerators: 3,
                shards: 4,
                replication_factor: 2,
            },
            ..IdaaConfig::default()
        });
        idaa.execute(
            &mut s,
            "CREATE TABLE EVENTS (ID INT NOT NULL, V INT) IN ACCELERATOR \
             DISTRIBUTE BY HASH(ID)",
        )
        .unwrap();
        idaa.execute(&mut s, "SET CURRENT QUERY ACCELERATION = ELIGIBLE").unwrap();
        idaa.set_fault_plan_on(1, SitePlan::at(sites::BITROT_LOG_SEGMENT, 5).seeded(0xE21));
        for i in 0..200 {
            idaa.execute(&mut s, &format!("INSERT INTO EVENTS VALUES ({i}, 0)")).unwrap();
        }
        idaa.node_engine(1).crash();
        assert!(idaa.recover_node(1), "replica repair must bring node 1 back");
        let n = idaa.query(&mut s, "SELECT COUNT(*) FROM events").unwrap();
        assert_eq!(n.scalar().unwrap(), &idaa_common::Value::BigInt(200));
        paths.row([
            det("replica_copy"),
            det(0),
            det("0 B"),
            det(fmt_bytes(idaa.metrics().counter("disk.repair.bytes"))),
            det(fmt_bytes(idaa.metrics().counter("fleet.catch_up.bytes"))),
            det(idaa.node_engine(1).quarantined_tables().len()),
        ]);
    }
    out.table(paths);
    out.line(
        "note: every injected fault converges to the fault-free answer or a deterministic \
         error — never silently wrong rows. Scrub verification I/O and every repair byte \
         are charged to the virtual clock / metered links, so both tables are byte-stable \
         per seed.",
    );
}

/// E22 — workload scheduler: queue-time percentiles and scheduler rounds
/// as the concurrent session count grows at a fixed admission limit.
/// Each seat offers the same fixed statement load, so total offered work
/// grows with the session count. Claim: the admission limit — not the
/// session count — gates the accelerator, so throughput stays flat while
/// per-statement queue time stretches with the number of competing
/// seats; and because admission, queue waits and reschedule ticks all
/// live on the virtual clock, the table is byte-stable.
fn e22_workload_scheduler(out: &mut Report) {
    use idaa_core::{Server, ServerConfig};

    let mut table = Table::new(&[
        "sessions", "limit", "stmts", "rounds", "makespan_virt_us", "stmts_per_vsec",
        "q50_us", "q95_us", "qmax_us", "bytes_moved",
    ]);
    for sessions in [1usize, 2, 4, 8] {
        let (idaa, mut s) = system(IdaaConfig::default());
        seed_sales(&idaa, &mut s, 500);
        accelerate(&idaa, &mut s, "SALES");
        drop(s);
        let srv = Server::with_idaa(
            idaa,
            ServerConfig { admission_limit: 2, ..ServerConfig::default() },
        );
        let seats: Vec<_> = (0..sessions).map(|_| srv.connect(SYSADM).unwrap()).collect();
        for &seat in &seats {
            srv.execute(seat, "SET CURRENT QUERY ACCELERATION = ELIGIBLE").unwrap();
        }
        let queries = [
            "SELECT REGION, COUNT(*), SUM(QTY) FROM SALES GROUP BY REGION ORDER BY REGION",
            "SELECT COUNT(*) FROM SALES WHERE QTY > 3",
            "SELECT REGION, SUM(AMOUNT) FROM SALES GROUP BY REGION ORDER BY REGION",
        ];
        let bytes_before = srv.idaa().link().metrics().total_bytes();
        let start = srv.idaa().link().now();
        let stmts = 12 * sessions;
        for i in 0..stmts {
            srv.submit(seats[i % seats.len()], queries[i % queries.len()]).unwrap();
        }
        let completions = srv.run_until_idle();
        let makespan = srv.idaa().link().now() - start;
        assert_eq!(completions.len(), stmts);
        assert!(
            completions.iter().all(|c| c.result.is_ok()),
            "a clean scheduler run completes every statement"
        );
        let mut q: Vec<u64> = completions.iter().map(|c| c.queued.as_micros() as u64).collect();
        q.sort_unstable();
        let pct = |p: usize| q[(q.len() - 1) * p / 100];
        table.row([
            det(sessions),
            det(srv.admission_limit()),
            det(completions.len()),
            det(srv.rounds()),
            det(makespan.as_micros()),
            det(format!("{:.0}", completions.len() as f64 / makespan.as_secs_f64())),
            det(pct(50)),
            det(pct(95)),
            det(q[q.len() - 1]),
            det(fmt_bytes(srv.idaa().link().metrics().total_bytes() - bytes_before)),
        ]);
    }
    out.table(table);
    out.line(
        "note: queue waits and reschedule ticks are charged to the virtual clock only \
         (LinkMetrics::fault_time), so the admission limit caps accelerator concurrency \
         without perturbing any delivered byte/message counter.",
    );
}
