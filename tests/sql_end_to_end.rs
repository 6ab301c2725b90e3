//! End-to-end SQL behavior through the federated facade: DDL, DML,
//! queries, routing, and error codes — spanning idaa-sql, idaa-host,
//! idaa-accel, idaa-netsim and idaa-core.

use idaa::{Idaa, Route, Value, SYSADM};

fn system() -> (Idaa, idaa::Session) {
    let idaa = Idaa::default();
    let s = idaa.session(SYSADM);
    (idaa, s)
}

fn seed_sales(idaa: &Idaa, s: &mut idaa::Session, n: usize) {
    idaa.execute(
        s,
        "CREATE TABLE SALES (ID INT NOT NULL, REGION VARCHAR(8), AMOUNT DECIMAL(10,2), \
         QTY INT, SOLD_ON DATE)",
    )
    .unwrap();
    let mut vals = Vec::new();
    for i in 0..n {
        vals.push(format!(
            "({i}, '{}', {}.25, {}, DATE '2015-0{}-01')",
            ["EU", "US", "APAC"][i % 3],
            (i % 500) + 1,
            i % 7,
            (i % 9) + 1
        ));
        if vals.len() == 500 {
            idaa.execute(s, &format!("INSERT INTO SALES VALUES {}", vals.join(", "))).unwrap();
            vals.clear();
        }
    }
    if !vals.is_empty() {
        idaa.execute(s, &format!("INSERT INTO SALES VALUES {}", vals.join(", "))).unwrap();
    }
}

fn accelerate(idaa: &Idaa, s: &mut idaa::Session, table: &str) {
    idaa.execute(s, &format!("CALL ACCEL_ADD_TABLES('{table}')")).unwrap();
    idaa.execute(s, &format!("CALL ACCEL_LOAD_TABLES('{table}')")).unwrap();
}

/// This file's query corpus over `SALES`: every shape the suite offloads.
const SALES_QUERIES: [&str; 13] = [
    "SELECT COUNT(*) FROM sales",
    "SELECT region, COUNT(*), SUM(amount), AVG(qty) FROM sales GROUP BY region ORDER BY region",
    "SELECT id FROM sales WHERE amount > 400 AND qty = 3 ORDER BY id LIMIT 20",
    "SELECT region, SUM(qty) FROM sales WHERE sold_on >= DATE '2015-04-01' GROUP BY region \
     HAVING SUM(qty) > 10 ORDER BY region",
    "SELECT DISTINCT qty FROM sales ORDER BY qty",
    "SELECT CASE WHEN qty > 3 THEN 'hi' ELSE 'lo' END AS band, COUNT(*) FROM sales \
     GROUP BY CASE WHEN qty > 3 THEN 'hi' ELSE 'lo' END ORDER BY band",
    "SELECT MIN(sold_on), MAX(sold_on) FROM sales WHERE region = 'EU'",
    "SELECT COUNT(DISTINCT region), STDDEV(qty) FROM sales",
    // Join-heavy: the WHERE conjuncts are single-sided, so the planner
    // pushes them below the join on both engines; answers must agree.
    "SELECT a.id, b.id FROM sales a INNER JOIN sales b ON a.id = b.id \
     WHERE a.qty = 3 AND b.amount > 400 ORDER BY a.id",
    "SELECT a.id, b.id FROM sales a LEFT JOIN sales b ON a.id = b.id AND b.qty > 5 \
     WHERE a.id < 50 ORDER BY a.id, b.id",
    "SELECT COUNT(*), SUM(a.qty) FROM sales a INNER JOIN sales b ON a.qty = b.qty \
     WHERE a.id < 100 AND b.id < 100",
    "SELECT COUNT(*) FROM sales a INNER JOIN sales b ON a.id < b.id \
     WHERE a.id < 40 AND b.id < 40",
    "SELECT id, amount FROM sales ORDER BY amount DESC, id LIMIT 15",
];

/// The `EXPLAIN` shapes asserted further down (pipelines, fallbacks, joins).
const EXPLAINED_QUERIES: [&str; 9] = [
    "SELECT region, COUNT(*), SUM(amount) FROM sales WHERE qty > 2 GROUP BY region ORDER BY region",
    "SELECT region, COUNT(*), SUM(amount) FROM sales WHERE qty + qty > 4 GROUP BY region \
     ORDER BY region",
    "SELECT a.id, b.qty FROM sales a INNER JOIN sales b ON a.id = b.id \
     WHERE b.qty > 2 ORDER BY a.id LIMIT 10",
    "SELECT a.id FROM sales a INNER JOIN sales b ON a.region = b.region \
     WHERE b.id < 5 ORDER BY a.id LIMIT 10",
    "SELECT a.id, b.id FROM sales a LEFT JOIN sales b ON a.id = b.id ORDER BY a.id LIMIT 10",
    "SELECT COUNT(*) FROM sales a INNER JOIN sales b ON a.id = b.id AND a.region = b.region",
    "SELECT b.region, COUNT(*), SUM(a.qty) FROM sales a INNER JOIN sales b ON a.id = b.id \
     WHERE a.qty > 3 GROUP BY b.region",
    "SELECT id, qty + 1 FROM sales WHERE id < 40 AND qty * 2 > 4",
    "SELECT COUNT(*) FROM (SELECT id FROM sales WHERE qty > 3) a INNER JOIN sales b ON a.id = b.id",
];

#[test]
fn same_query_same_answer_on_both_engines() {
    let (idaa, mut s) = system();
    seed_sales(&idaa, &mut s, 3000);
    accelerate(&idaa, &mut s, "SALES");
    let queries = SALES_QUERIES;
    for q in queries {
        idaa.execute(&mut s, "SET CURRENT QUERY ACCELERATION = NONE").unwrap();
        let host = idaa.execute(&mut s, q).unwrap();
        assert_eq!(host.route, Route::Host);
        idaa.execute(&mut s, "SET CURRENT QUERY ACCELERATION = ELIGIBLE").unwrap();
        let accel = idaa.execute(&mut s, q).unwrap();
        assert_eq!(accel.route, Route::Accelerator, "query should offload: {q}");
        assert_rows_approx_eq(host.rows().unwrap(), accel.rows().unwrap(), q);
    }
}

/// Row-set equality with a relative tolerance on DOUBLE values: the two
/// engines accumulate floating-point sums in different row orders (the
/// accelerator's slices interleave), which is allowed to perturb the last
/// few bits.
fn assert_rows_approx_eq(a: &idaa::Rows, b: &idaa::Rows, context: &str) {
    assert_eq!(a.len(), b.len(), "row count mismatch for: {context}");
    for (ra, rb) in a.rows.iter().zip(&b.rows) {
        assert_eq!(ra.len(), rb.len(), "arity mismatch for: {context}");
        for (va, vb) in ra.iter().zip(rb) {
            match (va, vb) {
                (Value::Double(x), Value::Double(y)) => {
                    let scale = x.abs().max(y.abs()).max(1.0);
                    assert!(
                        (x - y).abs() / scale < 1e-9,
                        "double mismatch {x} vs {y} for: {context}"
                    );
                }
                _ => assert_eq!(va, vb, "value mismatch for: {context}"),
            }
        }
    }
}

#[test]
fn joins_across_replicated_tables_offload() {
    let (idaa, mut s) = system();
    seed_sales(&idaa, &mut s, 1000);
    idaa.execute(&mut s, "CREATE TABLE REGIONS (NAME VARCHAR(8) NOT NULL, MGR VARCHAR(10))")
        .unwrap();
    idaa.execute(
        &mut s,
        "INSERT INTO REGIONS VALUES ('EU', 'anna'), ('US', 'bob'), ('APAC', 'chen')",
    )
    .unwrap();
    accelerate(&idaa, &mut s, "SALES");
    accelerate(&idaa, &mut s, "REGIONS");
    idaa.execute(&mut s, "SET CURRENT QUERY ACCELERATION = ELIGIBLE").unwrap();
    let out = idaa
        .execute(
            &mut s,
            "SELECT r.mgr, COUNT(*) FROM sales sl INNER JOIN regions r ON sl.region = r.name \
             GROUP BY r.mgr ORDER BY r.mgr",
        )
        .unwrap();
    assert_eq!(out.route, Route::Accelerator);
    assert_eq!(out.rows().unwrap().len(), 3);
    // Partially accelerated join falls back to host under ELIGIBLE.
    idaa.execute(&mut s, "CREATE TABLE LOCAL_ONLY (NAME VARCHAR(8))").unwrap();
    idaa.execute(&mut s, "INSERT INTO LOCAL_ONLY VALUES ('EU')").unwrap();
    let out = idaa
        .execute(
            &mut s,
            "SELECT COUNT(*) FROM sales sl INNER JOIN local_only l ON sl.region = l.name",
        )
        .unwrap();
    assert_eq!(out.route, Route::Host);
}

#[test]
fn aot_dml_full_cycle() {
    let (idaa, mut s) = system();
    idaa.execute(&mut s, "CREATE TABLE STAGE (K INT NOT NULL, V VARCHAR(8)) IN ACCELERATOR")
        .unwrap();
    // INSERT VALUES, UPDATE, DELETE all run on the accelerator.
    let out = idaa
        .execute(&mut s, "INSERT INTO STAGE VALUES (1, 'a'), (2, 'b'), (3, 'c')")
        .unwrap();
    assert_eq!(out.route, Route::Accelerator);
    assert_eq!(out.count(), 3);
    let out = idaa.execute(&mut s, "UPDATE STAGE SET V = 'z' WHERE K >= 2").unwrap();
    assert_eq!(out.count(), 2);
    let out = idaa.execute(&mut s, "DELETE FROM STAGE WHERE K = 1").unwrap();
    assert_eq!(out.count(), 1);
    let rows = idaa.query(&mut s, "SELECT k, v FROM stage ORDER BY k").unwrap();
    assert_eq!(rows.rows, vec![
        vec![Value::Int(2), Value::Varchar("z".into())],
        vec![Value::Int(3), Value::Varchar("z".into())],
    ]);
}

#[test]
fn insert_select_between_aots_is_pure_pushdown() {
    let (idaa, mut s) = system();
    idaa.execute(&mut s, "CREATE TABLE A (X INT) IN ACCELERATOR").unwrap();
    idaa.execute(&mut s, "CREATE TABLE B (X INT, DOUBLED BIGINT) IN ACCELERATOR").unwrap();
    let vals: Vec<String> = (0..500).map(|i| format!("({i})")).collect();
    idaa.execute(&mut s, &format!("INSERT INTO A VALUES {}", vals.join(", "))).unwrap();
    let before = idaa.link().metrics();
    let out = idaa.execute(&mut s, "INSERT INTO B SELECT x, x * 2 FROM a WHERE x < 100").unwrap();
    assert_eq!(out.count(), 100);
    let moved = idaa.link().metrics().since(&before);
    assert!(
        moved.total_bytes() < 500,
        "pushdown must move only control messages, moved {} bytes",
        moved.total_bytes()
    );
}

#[test]
fn db2_error_codes_surface() {
    let (idaa, mut s) = system();
    assert_eq!(idaa.execute(&mut s, "SELECT * FROM nope").unwrap_err().sqlcode(), -204);
    idaa.execute(&mut s, "CREATE TABLE T (X INT)").unwrap();
    assert_eq!(idaa.execute(&mut s, "CREATE TABLE T (Y INT)").unwrap_err().sqlcode(), -601);
    assert_eq!(idaa.execute(&mut s, "SELECT nope FROM t").unwrap_err().sqlcode(), -206);
    assert_eq!(idaa.execute(&mut s, "SELEC 1").unwrap_err().sqlcode(), -104);
    idaa.execute(&mut s, "CREATE TABLE AO (X INT) IN ACCELERATOR").unwrap();
    assert_eq!(
        idaa.execute(&mut s, "SELECT * FROM ao INNER JOIN t ON ao.x = t.x")
            .unwrap_err()
            .sqlcode(),
        -4742
    );
}

#[test]
fn update_on_aot_visible_to_later_offloaded_query_same_txn() {
    let (idaa, mut s) = system();
    idaa.execute(&mut s, "CREATE TABLE W (X INT) IN ACCELERATOR").unwrap();
    idaa.execute(&mut s, "INSERT INTO W VALUES (10)").unwrap();
    idaa.execute(&mut s, "BEGIN").unwrap();
    idaa.execute(&mut s, "UPDATE W SET X = 99").unwrap();
    let r = idaa.query(&mut s, "SELECT x FROM w").unwrap();
    assert_eq!(r.scalar().unwrap(), &Value::Int(99), "own update visible before commit");
    idaa.execute(&mut s, "ROLLBACK").unwrap();
    let r = idaa.query(&mut s, "SELECT x FROM w").unwrap();
    assert_eq!(r.scalar().unwrap(), &Value::Int(10));
}

#[test]
fn groom_reclaims_after_churn() {
    let (idaa, mut s) = system();
    idaa.execute(&mut s, "CREATE TABLE G (X INT) IN ACCELERATOR").unwrap();
    let vals: Vec<String> = (0..200).map(|i| format!("({i})")).collect();
    idaa.execute(&mut s, &format!("INSERT INTO G VALUES {}", vals.join(", "))).unwrap();
    idaa.execute(&mut s, "DELETE FROM G WHERE X < 100").unwrap();
    idaa.execute(&mut s, "UPDATE G SET X = X + 1000 WHERE X < 150").unwrap();
    // versions: 200 inserts + 50 update-inserts = 250; dead: 100 deletes + 50 updated-old.
    let table = idaa.accel().table(&idaa::ObjectName::bare("G")).unwrap();
    assert_eq!(table.version_count(), 250);
    let r = idaa.query(&mut s, "CALL SYSPROC.ACCEL_GROOM_TABLES('G')").unwrap();
    assert!(r.rows[0][0].render().contains("150"), "groomed 150 versions: {:?}", r.rows);
    assert_eq!(table.version_count(), 100);
    let r = idaa.query(&mut s, "SELECT COUNT(*) FROM g").unwrap();
    assert_eq!(r.scalar().unwrap(), &Value::BigInt(100));
}

#[test]
fn script_execution_and_table_render() {
    let (idaa, mut s) = system();
    let outcomes = idaa
        .execute_script(
            &mut s,
            "CREATE TABLE SC (A INT, B VARCHAR(4));
             INSERT INTO SC VALUES (1, 'x'), (2, 'y');
             SELECT * FROM SC ORDER BY A;",
        )
        .unwrap();
    assert_eq!(outcomes.len(), 3);
    let table = outcomes[2].rows().unwrap().to_table();
    assert!(table.contains("| A |") || table.contains("| A  |"), "{table}");
    assert!(table.contains("2 row(s)"));
}

#[test]
fn order_by_non_projected_and_aggregate_keys() {
    let (idaa, mut s) = system();
    seed_sales(&idaa, &mut s, 300);
    let r = idaa
        .query(&mut s, "SELECT id FROM sales ORDER BY amount DESC, id LIMIT 3")
        .unwrap();
    assert_eq!(r.schema.len(), 1, "hidden sort key must be stripped");
    let r = idaa
        .query(
            &mut s,
            "SELECT region FROM sales GROUP BY region ORDER BY SUM(amount) DESC LIMIT 1",
        )
        .unwrap();
    assert_eq!(r.len(), 1);
}

#[test]
fn union_and_union_all() {
    let (idaa, mut s) = system();
    idaa.execute(&mut s, "CREATE TABLE U1 (X INT, TAG VARCHAR(4))").unwrap();
    idaa.execute(&mut s, "CREATE TABLE U2 (X INT, TAG VARCHAR(4))").unwrap();
    idaa.execute(&mut s, "INSERT INTO U1 VALUES (1, 'a'), (2, 'b')").unwrap();
    idaa.execute(&mut s, "INSERT INTO U2 VALUES (2, 'b'), (3, 'c')").unwrap();
    let r = idaa
        .query(&mut s, "SELECT x, tag FROM u1 UNION ALL SELECT x, tag FROM u2 ORDER BY x")
        .unwrap();
    assert_eq!(r.len(), 4);
    let r = idaa
        .query(&mut s, "SELECT x, tag FROM u1 UNION SELECT x, tag FROM u2 ORDER BY x")
        .unwrap();
    assert_eq!(r.len(), 3, "plain UNION dedups");
    assert_eq!(r.rows[0][0], Value::Int(1));
    // Offloaded union over accelerated tables matches host answer.
    accelerate(&idaa, &mut s, "U1");
    accelerate(&idaa, &mut s, "U2");
    idaa.execute(&mut s, "SET CURRENT QUERY ACCELERATION = ELIGIBLE").unwrap();
    let out = idaa
        .execute(&mut s, "SELECT x, tag FROM u1 UNION SELECT x, tag FROM u2 ORDER BY x")
        .unwrap();
    assert_eq!(out.route, Route::Accelerator);
    assert_eq!(out.rows().unwrap().rows, r.rows);
    // Mismatched arity errors.
    let err = idaa.query(&mut s, "SELECT x FROM u1 UNION SELECT x, tag FROM u2").unwrap_err();
    assert_eq!(err.sqlcode(), -104);
}

#[test]
fn decimal_arithmetic_through_sql() {
    let (idaa, mut s) = system();
    idaa.execute(&mut s, "CREATE TABLE MONEY (AMT DECIMAL(10,2))").unwrap();
    idaa.execute(&mut s, "INSERT INTO MONEY VALUES (10.25), (0.75), (5.00)").unwrap();
    let r = idaa.query(&mut s, "SELECT SUM(amt) FROM money").unwrap();
    assert_eq!(r.scalar().unwrap().render(), "16.00");
    let r = idaa.query(&mut s, "SELECT amt * 2 FROM money WHERE amt = 10.25").unwrap();
    assert_eq!(r.scalar().unwrap().render(), "20.50");
    let err = idaa.query(&mut s, "SELECT amt / 0 FROM money").unwrap_err();
    assert_eq!(err.sqlcode(), -802);
}

#[test]
fn subqueries_and_left_joins_offloaded() {
    let (idaa, mut s) = system();
    seed_sales(&idaa, &mut s, 2000);
    accelerate(&idaa, &mut s, "SALES");
    idaa.execute(&mut s, "SET CURRENT QUERY ACCELERATION = ELIGIBLE").unwrap();
    let q = "SELECT t.region, t.total FROM \
             (SELECT region, SUM(amount) AS total FROM sales GROUP BY region) AS t \
             WHERE t.total > 0 ORDER BY t.region";
    let out = idaa.execute(&mut s, q).unwrap();
    assert_eq!(out.route, Route::Accelerator);
    assert_eq!(out.rows().unwrap().len(), 3);
}

#[test]
fn explain_reports_route_and_plan() {
    let (idaa, mut s) = system();
    seed_sales(&idaa, &mut s, 100);
    accelerate(&idaa, &mut s, "SALES");
    idaa.execute(&mut s, "SET CURRENT QUERY ACCELERATION = ELIGIBLE").unwrap();
    let r = idaa
        .query(&mut s, "EXPLAIN SELECT region, SUM(amount) FROM sales WHERE qty > 2 GROUP BY region")
        .unwrap();
    let text: Vec<String> = r.rows.iter().map(|row| row[0].render()).collect();
    assert!(text[0].contains("ROUTE: Accelerator"), "{text:?}");
    assert!(text.iter().any(|l| l.contains("AGGREGATE")), "{text:?}");
    assert!(text.iter().any(|l| l.contains("SCAN")), "{text:?}");
    // EXPLAIN does not execute: no accelerator query was issued for it.
    let before = idaa.accel().stats.queries.load(std::sync::atomic::Ordering::Relaxed);
    idaa.query(&mut s, "EXPLAIN SELECT COUNT(*) FROM sales").unwrap();
    assert_eq!(
        idaa.accel().stats.queries.load(std::sync::atomic::Ordering::Relaxed),
        before
    );
    // DML explain shows the route.
    let r = idaa.query(&mut s, "EXPLAIN DELETE FROM sales WHERE id = 1").unwrap();
    assert!(r.rows[0][0].render().contains("ROUTE: Host"));
    // EXPLAIN of transaction control is unsupported.
    assert!(idaa.query(&mut s, "EXPLAIN COMMIT").is_err());
}

fn plan_lines(r: &idaa::Rows) -> Vec<String> {
    r.rows.iter().map(|row| row[0].render()).collect()
}

#[test]
fn explain_states_the_routing_reason() {
    let (idaa, mut s) = system();
    // ENABLE's cost heuristic only considers offload above
    // ENABLE_OFFLOAD_ROW_THRESHOLD rows, so seed past it.
    seed_sales(&idaa, &mut s, 12_000);
    accelerate(&idaa, &mut s, "SALES");
    idaa.execute(&mut s, "CREATE INDEX IDX_ID ON SALES (ID)").unwrap();
    // NONE: the register gates everything.
    let text = plan_lines(&idaa.query(&mut s, "EXPLAIN SELECT COUNT(*) FROM sales").unwrap());
    assert_eq!(text[1], "REASON: acceleration register is NONE", "{text:?}");
    // ENABLE keeps an indexed point lookup local even though the table is
    // accelerated and large.
    idaa.execute(&mut s, "SET CURRENT QUERY ACCELERATION = ENABLE").unwrap();
    let text =
        plan_lines(&idaa.query(&mut s, "EXPLAIN SELECT amount FROM sales WHERE id = 7").unwrap());
    assert!(text[0].contains("ROUTE: Host"), "{text:?}");
    assert_eq!(text[1], "REASON: indexed point access stays local", "{text:?}");
    // The scan-heavy aggregate offloads on cost.
    let text = plan_lines(&idaa.query(&mut s, "EXPLAIN SELECT SUM(amount) FROM sales").unwrap());
    assert!(text[0].contains("ROUTE: Accelerator"), "{text:?}");
    assert_eq!(text[1], "REASON: cost heuristic favors offload", "{text:?}");
}

#[test]
fn explain_analyze_point_lookup_golden() {
    let (idaa, mut s) = system();
    seed_sales(&idaa, &mut s, 100);
    idaa.execute(&mut s, "CREATE INDEX IDX_ID ON SALES (ID)").unwrap();
    let r = idaa.query(&mut s, "EXPLAIN ANALYZE SELECT qty FROM sales WHERE id = 7").unwrap();
    let text = plan_lines(&r);
    assert_eq!(text[0], "ROUTE: Host (CURRENT QUERY ACCELERATION = NONE)", "{text:?}");
    assert!(text.iter().any(|l| l.trim() == "-- ANALYZE --"), "{text:?}");
    // The executed section shows host-side operators with row counts —
    // exactly one row survives the point predicate.
    assert!(text.iter().any(|l| l.contains("host.exec")), "{text:?}");
    assert!(
        text.iter().any(|l| l.contains("op=FILTER") && l.contains("rows=1")),
        "point lookup must report one row out of the filter: {text:?}"
    );
    // Nothing crossed the link for a host-routed statement.
    assert!(!text.iter().any(|l| l.contains("transfer")), "{text:?}");
}

#[test]
fn explain_analyze_offloaded_join_aggregate_shows_transfers_and_rows() {
    let (idaa, mut s) = system();
    seed_sales(&idaa, &mut s, 2000);
    accelerate(&idaa, &mut s, "SALES");
    idaa.execute(&mut s, "SET CURRENT QUERY ACCELERATION = ELIGIBLE").unwrap();
    let r = idaa
        .query(
            &mut s,
            "EXPLAIN ANALYZE SELECT a.region, COUNT(*) FROM sales a \
             INNER JOIN sales b ON a.id = b.id WHERE a.qty > 3 \
             GROUP BY a.region ORDER BY a.region",
        )
        .unwrap();
    let text = plan_lines(&r);
    assert_eq!(text[0], "ROUTE: Accelerator (CURRENT QUERY ACCELERATION = ELIGIBLE)", "{text:?}");
    // The plan section shows the filter pushed below the join.
    let join_at = text.iter().position(|l| l.contains("JOIN")).expect("join line");
    let filter_at = text.iter().position(|l| l.contains("FILTER")).expect("filter line");
    assert!(filter_at > join_at, "filter renders below the join it was pushed under: {text:?}");
    // The executed section carries the wire transfers (statement over,
    // result frame back) and per-operator row counts.
    assert!(
        text.iter().any(|l| l.contains("transfer") && l.contains("kind=stmt")),
        "{text:?}"
    );
    assert!(
        text.iter().any(|l| l.contains("transfer") && l.contains("kind=frame")),
        "{text:?}"
    );
    assert!(
        text.iter().any(|l| l.contains("op=AGGREGATE") && l.contains("rows=3")),
        "three regions out of the aggregate: {text:?}"
    );
}

#[test]
fn explain_analyze_output_is_byte_identical_across_fresh_runs() {
    let run = || {
        let (idaa, mut s) = system();
        seed_sales(&idaa, &mut s, 500);
        accelerate(&idaa, &mut s, "SALES");
        idaa.execute(&mut s, "SET CURRENT QUERY ACCELERATION = ELIGIBLE").unwrap();
        let r = idaa
            .query(
                &mut s,
                "EXPLAIN ANALYZE SELECT region, SUM(amount) FROM sales \
                 WHERE qty > 1 GROUP BY region ORDER BY region",
            )
            .unwrap();
        plan_lines(&r).join("\n")
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "EXPLAIN ANALYZE must be deterministic on the virtual clock");
    assert!(a.contains("-- ANALYZE --"));
}

#[test]
fn explain_analyze_reports_vectorized_kernel_and_fallback() {
    let (idaa, mut s) = system();
    seed_sales(&idaa, &mut s, 2000);
    accelerate(&idaa, &mut s, "SALES");
    idaa.execute(&mut s, "SET CURRENT QUERY ACCELERATION = ELIGIBLE").unwrap();

    // A filter→aggregate over comparable columns compiles to batch kernels:
    // the executed span carries the pipeline attributes, and plain EXPLAIN
    // names the vectorized pipeline.
    let vectorizable = "SELECT region, COUNT(*), SUM(amount) FROM sales \
                        WHERE qty > 2 GROUP BY region ORDER BY region";
    let text = plan_lines(
        &idaa.query(&mut s, &format!("EXPLAIN ANALYZE {vectorizable}")).unwrap(),
    );
    assert!(
        text.iter().any(|l| l.contains("kernel=vectorized")),
        "vectorizable query must report its kernel: {text:?}"
    );
    assert!(
        text.iter().any(|l| l.contains("batches=")),
        "vectorized span must report its batch count: {text:?}"
    );
    let text = plan_lines(&idaa.query(&mut s, &format!("EXPLAIN {vectorizable}")).unwrap());
    assert!(
        text.iter().any(|l| l.starts_with("PIPELINE: vectorized")),
        "plain EXPLAIN must name the vectorized pipeline: {text:?}"
    );

    // An arithmetic predicate compiles to no kernels, so the same query
    // shape falls back to the row-at-a-time interpreter — no kernel
    // attribute anywhere, and EXPLAIN says so.
    let fallback = "SELECT region, COUNT(*), SUM(amount) FROM sales \
                    WHERE qty + qty > 4 GROUP BY region ORDER BY region";
    let text = plan_lines(
        &idaa.query(&mut s, &format!("EXPLAIN ANALYZE {fallback}")).unwrap(),
    );
    assert!(
        !text.iter().any(|l| l.contains("kernel=")),
        "interpreted fallback must not claim a kernel: {text:?}"
    );
    let text = plan_lines(&idaa.query(&mut s, &format!("EXPLAIN {fallback}")).unwrap());
    assert!(
        text.iter().any(|l| l.starts_with("PIPELINE: interpreted")),
        "plain EXPLAIN must report the interpreted fallback: {text:?}"
    );
}

/// The `PIPELINE: …` line of plain `EXPLAIN q`.
fn pipeline_line(idaa: &Idaa, s: &mut idaa::Session, q: &str) -> String {
    plan_lines(&idaa.query(s, &format!("EXPLAIN {q}")).unwrap())
        .into_iter()
        .find(|l| l.starts_with("PIPELINE: "))
        .unwrap_or_else(|| panic!("no PIPELINE line for {q}"))
}

#[test]
fn explain_names_join_pipelines_bloom_and_plan_cache() {
    let (idaa, mut s) = system();
    seed_sales(&idaa, &mut s, 1000);
    accelerate(&idaa, &mut s, "SALES");
    idaa.execute(&mut s, "SET CURRENT QUERY ACCELERATION = ELIGIBLE").unwrap();

    let pipeline_of = pipeline_line;

    // Typed i64 keys over a bare probe scan: kernelized build/probe with
    // the derived join filter pushed into the probe-side scan.
    let int_join = "SELECT a.id, b.qty FROM sales a INNER JOIN sales b ON a.id = b.id \
                    WHERE b.qty > 2 ORDER BY a.id LIMIT 10";
    assert_eq!(
        pipeline_of(&idaa, &mut s, int_join),
        "PIPELINE: vectorized (hash join: typed i64 keys, bloom-guarded probe, \
         derived probe filter)",
    );
    // Typed string keys: dictionary-code probes on the accelerator.
    assert_eq!(
        pipeline_of(
            &idaa,
            &mut s,
            "SELECT a.id FROM sales a INNER JOIN sales b ON a.region = b.region \
             WHERE b.id < 5 ORDER BY a.id LIMIT 10",
        ),
        "PIPELINE: vectorized (hash join: typed string keys, bloom-guarded probe, \
         derived probe filter)",
    );
    // LEFT joins stream too: a probe row without a match pairs with no
    // build row (NULL columns), so no probe row may be filtered out.
    assert_eq!(
        pipeline_of(
            &idaa,
            &mut s,
            "SELECT a.id, b.id FROM sales a LEFT JOIN sales b ON a.id = b.id \
             ORDER BY a.id LIMIT 10",
        ),
        "PIPELINE: vectorized (left hash join: typed i64 keys, bloom-guarded probe)",
    );
    // Multi-column keys probe with the key tuple's values.
    assert_eq!(
        pipeline_of(
            &idaa,
            &mut s,
            "SELECT COUNT(*) FROM sales a INNER JOIN sales b \
             ON a.id = b.id AND a.region = b.region",
        ),
        "PIPELINE: vectorized (hash join: generic keys)",
    );
    // Residual ON conjuncts and a cross-side WHERE evaluate over the
    // probe's (position, build row) pairs.
    assert_eq!(
        pipeline_of(
            &idaa,
            &mut s,
            "SELECT a.id FROM sales a INNER JOIN sales b ON a.id = b.id AND a.qty < b.qty \
             WHERE a.amount > b.amount",
        ),
        "PIPELINE: vectorized (hash join: typed i64 keys, bloom-guarded probe, \
         derived probe filter + interpreted residual)",
    );
    // A probe side that is not a scan joins on the row path.
    assert_eq!(
        pipeline_of(
            &idaa,
            &mut s,
            "SELECT COUNT(*) FROM (SELECT id FROM sales WHERE qty > 3) a \
             INNER JOIN sales b ON a.id = b.id",
        ),
        "PIPELINE: interpreted (hash join: generic keys)",
    );
    // Non-equi ON: nested loop.
    assert_eq!(
        pipeline_of(
            &idaa,
            &mut s,
            "SELECT COUNT(*) FROM sales a INNER JOIN sales b ON a.id < b.id \
             WHERE a.id < 30 AND b.id < 30",
        ),
        "PIPELINE: interpreted (nested-loop join)",
    );

    // Executed spans carry the Bloom counter, and the statement-level span
    // reports the compiled-plan cache: miss on first sight, hit on repeat.
    let text = plan_lines(&idaa.query(&mut s, &format!("EXPLAIN ANALYZE {int_join}")).unwrap());
    assert!(
        text.iter().any(|l| l.contains("bloom_skipped=")),
        "executed join span must report Bloom skips: {text:?}"
    );
    assert!(
        text.iter().any(|l| l.contains("cache=miss")),
        "first execution must report a plan-cache miss: {text:?}"
    );
    let text = plan_lines(&idaa.query(&mut s, &format!("EXPLAIN ANALYZE {int_join}")).unwrap());
    assert!(
        text.iter().any(|l| l.contains("cache=hit")),
        "repeated statement must report a plan-cache hit: {text:?}"
    );
}

/// What `EXPLAIN` says and what ran cannot drift: the `PIPELINE:` line of
/// plain `EXPLAIN` and the description on the executed statement's profile
/// are rendered from the same lowered plan, for every query of this file's
/// corpus — on a plan-cache miss and on the hit that follows.
#[test]
fn explain_pipeline_line_is_the_executed_pipeline() {
    let (idaa, mut s) = system();
    seed_sales(&idaa, &mut s, 1000);
    accelerate(&idaa, &mut s, "SALES");
    idaa.execute(&mut s, "SET CURRENT QUERY ACCELERATION = ELIGIBLE").unwrap();
    let mut seen = std::collections::BTreeSet::new();
    for q in SALES_QUERIES.iter().chain(&EXPLAINED_QUERIES) {
        let explained = pipeline_line(&idaa, &mut s, q).split_off("PIPELINE: ".len());
        let idaa::sql::Statement::Query(parsed) = idaa::sql::parse_statement(q).unwrap() else {
            panic!("not a query: {q}")
        };
        for run in ["miss", "hit"] {
            let (_, _, profile) = idaa.accel().query_profiled(idaa::accel::Snapshot::latest(0), &parsed, None).unwrap();
            assert_eq!(profile.pipeline().as_deref(), Some(explained.as_str()), "{run}: {q}");
        }
        seen.insert(explained);
    }
    // The corpus covers every way a plan can run.
    for flavour in [
        "vectorized (fused scan-filter-aggregate)",
        "vectorized (hash join: typed i64 keys, bloom-guarded probe, derived probe filter)",
        "vectorized (hash join: typed string keys, bloom-guarded probe, derived probe filter)",
        "vectorized (left hash join: typed i64 keys, bloom-guarded probe)",
        "vectorized (left hash join: typed i64 keys, bloom-guarded probe + interpreted residual)",
        "vectorized (hash join: generic keys)",
        "interpreted (hash join: generic keys)",
        "interpreted (nested-loop join)",
        "vectorized (2/2 conjuncts as kernels)",
        "vectorized (1/2 conjuncts as kernels + interpreted residual)",
        "interpreted (0/1 conjuncts compile to kernels)",
        "vectorized (columnar scan, no kernels)",
    ] {
        assert!(seen.contains(flavour), "no corpus query runs as {flavour}: {seen:?}");
    }
}

#[test]
fn parameter_markers_execute() {
    let (idaa, mut s) = system();
    idaa.execute(&mut s, "CREATE TABLE PM (A INT, B VARCHAR(8))").unwrap();
    idaa.execute_with_params(
        &mut s,
        "INSERT INTO PM VALUES (?, ?)",
        &[Value::Int(1), Value::Varchar("one".into())],
    )
    .unwrap();
    idaa.execute_with_params(
        &mut s,
        "INSERT INTO PM VALUES (?, ?)",
        &[Value::Int(2), Value::Varchar("two".into())],
    )
    .unwrap();
    let out = idaa
        .execute_with_params(&mut s, "SELECT b FROM pm WHERE a = ?", &[Value::Int(2)])
        .unwrap();
    assert_eq!(out.rows().unwrap().scalar().unwrap(), &Value::Varchar("two".into()));
    // Unbound marker is a clear error.
    assert!(idaa.execute(&mut s, "SELECT b FROM pm WHERE a = ?").is_err());
    assert!(idaa
        .execute_with_params(&mut s, "SELECT b FROM pm WHERE a = ? AND b = ?", &[Value::Int(1)])
        .is_err());
}

#[test]
fn accelerator_outage_falls_back_where_possible() {
    let (idaa, mut s) = system();
    seed_sales(&idaa, &mut s, 200);
    accelerate(&idaa, &mut s, "SALES");
    idaa.execute(&mut s, "CREATE TABLE OUT_AOT (X INT) IN ACCELERATOR").unwrap();
    idaa.execute(&mut s, "INSERT INTO OUT_AOT VALUES (1)").unwrap();
    idaa.execute(&mut s, "SET CURRENT QUERY ACCELERATION = ELIGIBLE").unwrap();

    idaa.faults.accel_unavailable.store(true, std::sync::atomic::Ordering::Relaxed);
    // Replicated table: falls back to the host copy.
    let out = idaa.execute(&mut s, "SELECT COUNT(*) FROM sales").unwrap();
    assert_eq!(out.route, Route::Host);
    assert_eq!(out.rows().unwrap().scalar().unwrap(), &Value::BigInt(200));
    // AOT query cannot fall back: the accelerator is stopped, -904.
    assert_eq!(idaa.execute(&mut s, "SELECT * FROM out_aot").unwrap_err().sqlcode(), -904);
    // AOT DML cannot fall back either.
    assert_eq!(idaa.execute(&mut s, "INSERT INTO OUT_AOT VALUES (2)").unwrap_err().sqlcode(), -904);
    // ALL mode demands the accelerator: fail.
    idaa.execute(&mut s, "SET CURRENT QUERY ACCELERATION = ALL").unwrap();
    assert_eq!(idaa.execute(&mut s, "SELECT COUNT(*) FROM sales").unwrap_err().sqlcode(), -904);

    // Accelerator comes back: everything resumes.
    idaa.faults.accel_unavailable.store(false, std::sync::atomic::Ordering::Relaxed);
    let out = idaa.execute(&mut s, "SELECT COUNT(*) FROM sales").unwrap();
    assert_eq!(out.route, Route::Accelerator);
    let r = idaa.query(&mut s, "SELECT COUNT(*) FROM out_aot").unwrap();
    assert_eq!(r.scalar().unwrap(), &Value::BigInt(1));
}

#[test]
fn union_type_mismatch_rejected() {
    let (idaa, mut s) = system();
    idaa.execute(&mut s, "CREATE TABLE UA (X INT)").unwrap();
    idaa.execute(&mut s, "CREATE TABLE UB (NAME VARCHAR(8))").unwrap();
    let err = idaa.query(&mut s, "SELECT x FROM ua UNION SELECT name FROM ub").unwrap_err();
    assert_eq!(err.sqlcode(), -420);
    // Compatible numeric widening is fine.
    idaa.execute(&mut s, "CREATE TABLE UC (Y BIGINT)").unwrap();
    idaa.query(&mut s, "SELECT x FROM ua UNION SELECT y FROM uc").unwrap();
}

#[test]
fn csv_export_reimports_through_the_loader() {
    use idaa::loader::{CsvSource, LoadTarget, Loader};
    let (idaa, mut s) = system();
    idaa.execute(
        &mut s,
        "CREATE TABLE SRC (ID INT, NOTE VARCHAR(32), AMT DECIMAL(8,2), D DATE)",
    )
    .unwrap();
    idaa.execute(
        &mut s,
        "INSERT INTO SRC VALUES \
         (1, 'plain', 10.50, DATE '2015-06-01'), \
         (2, 'has, comma', 0.25, DATE '2015-06-02'), \
         (3, NULL, NULL, NULL)",
    )
    .unwrap();
    let exported = idaa.query(&mut s, "SELECT * FROM src ORDER BY id").unwrap();
    let csv = exported.to_csv();

    idaa.execute(
        &mut s,
        "CREATE TABLE DST (ID INT, NOTE VARCHAR(32), AMT DECIMAL(8,2), D DATE) IN ACCELERATOR",
    )
    .unwrap();
    let report = Loader::new(SYSADM)
        .load(
            &idaa,
            Box::new(CsvSource::with_header(&csv)),
            &idaa::ObjectName::bare("DST"),
            LoadTarget::Auto,
        )
        .unwrap();
    assert_eq!(report.rows_loaded, 3);
    assert_eq!(report.rows_rejected, 0);
    let reimported = idaa.query(&mut s, "SELECT * FROM dst ORDER BY id").unwrap();
    assert_eq!(exported.rows, reimported.rows, "export → import must round-trip");
}

#[test]
fn show_workload_golden_reports_per_seat_scheduler_state() {
    let (idaa, mut s) = system();
    seed_sales(&idaa, &mut s, 10);
    drop(s);
    let srv = idaa::Server::with_idaa(
        idaa,
        idaa::ServerConfig { admission_limit: 1, ..idaa::ServerConfig::default() },
    );
    let hi = srv.connect_with_priority(SYSADM, idaa::Priority::High).unwrap();
    let lo = srv.connect(SYSADM).unwrap();
    srv.submit(hi, "SELECT COUNT(*) FROM SALES").unwrap();
    srv.submit(lo, "SELECT COUNT(*) FROM MISSING").unwrap();
    srv.submit(lo, "SELECT COUNT(*) FROM SALES").unwrap();
    let completions = srv.run_until_idle();
    assert_eq!(completions.len(), 3);
    assert_eq!(
        completions.iter().filter(|c| c.result.is_err()).count(),
        1,
        "exactly the MISSING probe fails"
    );

    // The workload view snapshots the scheduler mid-statement: the seat
    // running the SHOW itself reports RUNNING=1. Everything — including
    // the virtual queue-time column — is deterministic, so the whole
    // table is a golden.
    let rows = srv.query(hi, "SHOW WORKLOAD").unwrap();
    assert_eq!(
        rows.to_csv(),
        "SESSION,PRIORITY,QUEUED,RUNNING,DONE,FAILED,QUEUE_US,BYTES\n\
         1,HIGH,0,1,1,0,0,0\n\
         2,NORMAL,0,0,1,1,150,0\n"
    );

    // Outside a server the view exists but is empty — no seats to report.
    let plain = Idaa::default();
    let mut p = plain.session(SYSADM);
    let rows = plain.query(&mut p, "SHOW WORKLOAD").unwrap();
    assert_eq!(rows.to_csv(), "SESSION,PRIORITY,QUEUED,RUNNING,DONE,FAILED,QUEUE_US,BYTES\n");
}
