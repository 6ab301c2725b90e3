//! The in-database analytics framework end-to-end: every deployed
//! procedure invoked through `CALL`, numerical sanity of the results, the
//! AOT model/score tables, and the governance path (privileges checked by
//! DB2 before any accelerator work happens).

use idaa::analytics;
use idaa::{Idaa, Value, SYSADM};

fn system_with_features(n: usize) -> (Idaa, idaa::Session) {
    let idaa = Idaa::default();
    analytics::deploy_all(&idaa, SYSADM).unwrap();
    let mut s = idaa.session(SYSADM);
    idaa.execute(
        &mut s,
        "CREATE TABLE DATA (ID INT NOT NULL, X DOUBLE, Y DOUBLE, NOISY DOUBLE, \
         LABEL VARCHAR(8)) IN ACCELERATOR",
    )
    .unwrap();
    let mut vals = Vec::new();
    for i in 0..n {
        // Two clusters: around (0,0) labeled LO, around (10,10) labeled HI.
        let hi = i % 2 == 1;
        let (cx, cy) = if hi { (10.0, 10.0) } else { (0.0, 0.0) };
        let jx = ((i * 53) % 100) as f64 / 100.0 - 0.5;
        let jy = ((i * 31) % 100) as f64 / 100.0 - 0.5;
        let noisy = if i % 10 == 0 { "NULL".to_string() } else { format!("{}.0E0", i % 7) };
        vals.push(format!(
            "({i}, {:.3}E0, {:.3}E0, {}, '{}')",
            cx + jx,
            cy + jy,
            noisy,
            if hi { "HI" } else { "LO" }
        ));
        if vals.len() == 500 {
            idaa.execute(&mut s, &format!("INSERT INTO DATA VALUES {}", vals.join(", ")))
                .unwrap();
            vals.clear();
        }
    }
    if !vals.is_empty() {
        idaa.execute(&mut s, &format!("INSERT INTO DATA VALUES {}", vals.join(", "))).unwrap();
    }
    (idaa, s)
}

#[test]
fn kmeans_train_and_score() {
    let (idaa, mut s) = system_with_features(1000);
    let r = idaa
        .query(&mut s, "CALL ANALYTICS.KMEANS('DATA', 'X,Y', 2, 25, 'KM_MODEL')")
        .unwrap();
    let iterations = r.rows[0][1].as_i64().unwrap();
    assert!(iterations >= 1);
    // Model table: 2 clusters × 2 dims in long format.
    let m = idaa.query(&mut s, "SELECT COUNT(*) FROM km_model").unwrap();
    assert_eq!(m.scalar().unwrap(), &Value::BigInt(4));
    // Centroids near (0,0) and (10,10).
    let c = idaa
        .query(&mut s, "SELECT cluster_id, SUM(center) FROM km_model GROUP BY cluster_id ORDER BY 2")
        .unwrap();
    assert!(c.rows[0][1].as_f64().unwrap().abs() < 1.0);
    assert!((c.rows[1][1].as_f64().unwrap() - 20.0).abs() < 1.0);
    // Scoring separates the halves perfectly.
    idaa.query(&mut s, "CALL ANALYTICS.KMEANS_SCORE('DATA', 'ID', 'X,Y', 'KM_MODEL', 'KM_OUT')")
        .unwrap();
    let r = idaa
        .query(
            &mut s,
            "SELECT d.label, COUNT(DISTINCT o.cluster_id) FROM km_out o \
             INNER JOIN data d ON o.id = d.id GROUP BY d.label",
        )
        .unwrap();
    for row in &r.rows {
        assert_eq!(row[1], Value::BigInt(1), "each label maps to exactly one cluster");
    }
}

#[test]
fn linreg_recovers_plane() {
    let (idaa, mut s) = system_with_features(400);
    // TARGET = 3*X - 2*Y + 5 constructed in SQL on the accelerator.
    idaa.execute(
        &mut s,
        "CREATE TABLE REG (ID INT, X DOUBLE, Y DOUBLE, TARGET DOUBLE) IN ACCELERATOR",
    )
    .unwrap();
    idaa.execute(
        &mut s,
        "INSERT INTO REG SELECT id, x, y, 3.0E0 * x - 2.0E0 * y + 5.0E0 FROM data",
    )
    .unwrap();
    let r = idaa
        .query(&mut s, "CALL ANALYTICS.LINREG('REG', 'TARGET', 'X,Y', 'REG_MODEL')")
        .unwrap();
    let r2 = r.rows[0][0].as_f64().unwrap();
    assert!(r2 > 0.999, "R² = {r2}");
    let coef = idaa
        .query(&mut s, "SELECT term, coefficient FROM reg_model ORDER BY term")
        .unwrap();
    // Terms sorted: INTERCEPT, X, Y.
    assert!((coef.rows[0][1].as_f64().unwrap() - 5.0).abs() < 1e-6);
    assert!((coef.rows[1][1].as_f64().unwrap() - 3.0).abs() < 1e-6);
    assert!((coef.rows[2][1].as_f64().unwrap() + 2.0).abs() < 1e-6);
}

#[test]
fn classifiers_train_and_score_through_sql() {
    let (idaa, mut s) = system_with_features(800);
    idaa.query(&mut s, "CALL ANALYTICS.SPLIT('DATA', 'TR', 'TE', 0.75, 11)").unwrap();
    let tr = idaa.query(&mut s, "SELECT COUNT(*) FROM tr").unwrap();
    assert_eq!(tr.scalar().unwrap(), &Value::BigInt(600));

    // Naive Bayes.
    let r = idaa
        .query(&mut s, "CALL ANALYTICS.NAIVEBAYES_TRAIN('TR', 'LABEL', 'X,Y', 'NB_MODEL')")
        .unwrap();
    assert!(r.rows[0][1].as_f64().unwrap() > 0.99, "NB train accuracy");
    idaa.query(&mut s, "CALL ANALYTICS.NAIVEBAYES_SCORE('TE', 'ID', 'X,Y', 'NB_MODEL', 'NB_OUT')")
        .unwrap();
    let acc = idaa
        .query(
            &mut s,
            "SELECT SUM(CASE WHEN o.class = d.label THEN 1.0E0 ELSE 0.0E0 END) / COUNT(*) \
             FROM nb_out o INNER JOIN data d ON o.id = d.id",
        )
        .unwrap();
    assert!(acc.scalar().unwrap().as_f64().unwrap() > 0.99, "NB holdout accuracy");

    // Decision tree.
    let r = idaa
        .query(&mut s, "CALL ANALYTICS.DECTREE_TRAIN('TR', 'LABEL', 'X,Y', 'DT_MODEL', 4)")
        .unwrap();
    assert!(r.rows[0][1].as_f64().unwrap() > 0.99, "tree train accuracy");
    idaa.query(&mut s, "CALL ANALYTICS.DECTREE_SCORE('TE', 'ID', 'X,Y', 'DT_MODEL', 'DT_OUT')")
        .unwrap();
    let acc = idaa
        .query(
            &mut s,
            "SELECT SUM(CASE WHEN o.class = d.label THEN 1.0E0 ELSE 0.0E0 END) / COUNT(*) \
             FROM dt_out o INNER JOIN data d ON o.id = d.id",
        )
        .unwrap();
    assert!(acc.scalar().unwrap().as_f64().unwrap() > 0.99, "tree holdout accuracy");
}

#[test]
fn describe_and_normalize() {
    let (idaa, mut s) = system_with_features(500);
    idaa.query(&mut s, "CALL ANALYTICS.DESCRIBE('DATA', 'STATS')").unwrap();
    let r = idaa
        .query(&mut s, "SELECT column_name, cnt, nulls FROM stats ORDER BY column_name")
        .unwrap();
    // ID, NOISY, X, Y are numeric.
    assert_eq!(r.len(), 4);
    let noisy = r.rows.iter().find(|row| row[0].render() == "NOISY").unwrap();
    assert_eq!(noisy[2], Value::BigInt(50), "10% NULLs in NOISY");

    let r = idaa
        .query(&mut s, "CALL ANALYTICS.NORMALIZE('DATA', 'X,Y,NOISY', 'MINMAX', 'NORMED')")
        .unwrap();
    assert_eq!(r.rows[0][1], Value::BigInt(50), "imputed NOISY cells");
    let bounds = idaa
        .query(&mut s, "SELECT MIN(x), MAX(x), MIN(noisy), MAX(noisy) FROM normed")
        .unwrap();
    assert_eq!(bounds.rows[0][0].as_f64().unwrap(), 0.0);
    assert_eq!(bounds.rows[0][1].as_f64().unwrap(), 1.0);
    // All rows kept.
    let n = idaa.query(&mut s, "SELECT COUNT(*) FROM normed").unwrap();
    assert_eq!(n.scalar().unwrap(), &Value::BigInt(500));
}

#[test]
fn governance_enforced_end_to_end() {
    let (idaa, mut admin) = system_with_features(100);
    let mut analyst = idaa.session("ANALYST");

    // No EXECUTE on the procedure: rejected at dispatch.
    let err = idaa
        .query(&mut analyst, "CALL ANALYTICS.KMEANS('DATA', 'X,Y', 2, 5, 'M1')")
        .unwrap_err();
    assert_eq!(err.sqlcode(), -551);

    // EXECUTE granted, but no SELECT on the input: rejected by the
    // procedure's own check — still on DB2, before touching the data.
    idaa.execute(&mut admin, "GRANT EXECUTE ON ANALYTICS.KMEANS TO ANALYST").unwrap();
    let err = idaa
        .query(&mut analyst, "CALL ANALYTICS.KMEANS('DATA', 'X,Y', 2, 5, 'M1')")
        .unwrap_err();
    assert_eq!(err.sqlcode(), -551);

    // With SELECT the call succeeds and the output belongs to the analyst.
    idaa.execute(&mut admin, "GRANT SELECT ON DATA TO ANALYST").unwrap();
    idaa.query(&mut analyst, "CALL ANALYTICS.KMEANS('DATA', 'X,Y', 2, 5, 'M1')").unwrap();
    idaa.query(&mut analyst, "SELECT COUNT(*) FROM m1").unwrap();
    // The admin cannot be locked out (SYSADM), but another user can:
    let mut other = idaa.session("OTHER");
    let err = idaa.query(&mut other, "SELECT * FROM m1").unwrap_err();
    assert_eq!(err.sqlcode(), -551);
}

#[test]
fn analytics_rejects_host_only_inputs() {
    let idaa = Idaa::default();
    analytics::deploy_all(&idaa, SYSADM).unwrap();
    let mut s = idaa.session(SYSADM);
    idaa.execute(&mut s, "CREATE TABLE HOSTDATA (ID INT, X DOUBLE)").unwrap();
    idaa.execute(&mut s, "INSERT INTO HOSTDATA VALUES (1, 1.0E0), (2, 2.0E0), (3, 3.0E0)")
        .unwrap();
    let err = idaa
        .query(&mut s, "CALL ANALYTICS.KMEANS('HOSTDATA', 'X', 2, 5, 'M')")
        .unwrap_err();
    assert_eq!(err.sqlcode(), -4742, "input must live on the accelerator");
    // After accelerating it, the same call works.
    idaa.execute(&mut s, "CALL ACCEL_ADD_TABLES('HOSTDATA')").unwrap();
    idaa.execute(&mut s, "CALL ACCEL_LOAD_TABLES('HOSTDATA')").unwrap();
    idaa.query(&mut s, "CALL ANALYTICS.KMEANS('HOSTDATA', 'X', 2, 5, 'M')").unwrap();
}

#[test]
fn model_tables_are_aots_and_feed_next_stages() {
    let (idaa, mut s) = system_with_features(200);
    idaa.query(&mut s, "CALL ANALYTICS.KMEANS('DATA', 'X,Y', 2, 10, 'KM2')").unwrap();
    // The model is an AOT: a catalog proxy with no host storage.
    let meta = idaa.host().table_meta(&idaa::ObjectName::bare("KM2")).unwrap();
    assert_eq!(meta.kind, idaa::host::TableKind::AcceleratorOnly);
    assert_eq!(idaa.host().scan_count(&idaa::ObjectName::bare("KM2")), 0);
    // And it can feed a plain SQL stage.
    idaa.execute(
        &mut s,
        "CREATE TABLE BIG_CLUSTERS (CLUSTER_ID INT) IN ACCELERATOR",
    )
    .unwrap();
    let out = idaa
        .execute(
            &mut s,
            "INSERT INTO BIG_CLUSTERS SELECT DISTINCT cluster_id FROM km2 WHERE cluster_size > 50",
        )
        .unwrap();
    assert!(out.count() >= 1);
}

#[test]
fn procedure_argument_errors() {
    let (idaa, mut s) = system_with_features(50);
    // Wrong arity.
    assert!(idaa.query(&mut s, "CALL ANALYTICS.KMEANS('DATA')").is_err());
    // Non-numeric column.
    assert!(idaa
        .query(&mut s, "CALL ANALYTICS.KMEANS('DATA', 'LABEL', 2, 5, 'M')")
        .is_err());
    // Unknown input table.
    assert_eq!(
        idaa.query(&mut s, "CALL ANALYTICS.KMEANS('NOPE', 'X', 2, 5, 'M')")
            .unwrap_err()
            .sqlcode(),
        -204
    );
    // k larger than the data.
    assert!(idaa
        .query(&mut s, "CALL ANALYTICS.KMEANS('DATA', 'X,Y', 500, 5, 'M')")
        .is_err());
}

#[test]
fn linreg_score_predicts_through_sql() {
    let (idaa, mut s) = system_with_features(300);
    idaa.execute(
        &mut s,
        "CREATE TABLE REG2 (ID INT, X DOUBLE, Y DOUBLE, TARGET DOUBLE) IN ACCELERATOR",
    )
    .unwrap();
    idaa.execute(
        &mut s,
        "INSERT INTO REG2 SELECT id, x, y, 2.0E0 * x + 0.5E0 * y - 1.0E0 FROM data",
    )
    .unwrap();
    idaa.query(&mut s, "CALL ANALYTICS.LINREG('REG2', 'TARGET', 'X,Y', 'RM')").unwrap();
    let r = idaa
        .query(&mut s, "CALL ANALYTICS.LINREG_SCORE('REG2', 'ID', 'X,Y', 'RM', 'PREDS')")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::BigInt(300));
    // Predictions match the constructed target to numerical precision.
    let err = idaa
        .query(
            &mut s,
            "SELECT MAX(ABS(p.prediction - r.target)) FROM preds p \
             INNER JOIN reg2 r ON p.id = r.id",
        )
        .unwrap();
    assert!(err.scalar().unwrap().as_f64().unwrap() < 1e-6);
    // Feature mismatch against the model errors clearly.
    assert!(idaa
        .query(&mut s, "CALL ANALYTICS.LINREG_SCORE('REG2', 'ID', 'X', 'RM', 'P2')")
        .is_err());
}

#[test]
fn malformed_naive_bayes_model_is_a_load_error() {
    let (idaa, mut s) = system_with_features(200);
    idaa.query(&mut s, "CALL ANALYTICS.NAIVEBAYES_TRAIN('DATA', 'LABEL', 'X,Y', 'NB_MODEL')")
        .unwrap();
    let score = "CALL ANALYTICS.NAIVEBAYES_SCORE('DATA', 'ID', 'X,Y', 'NB_MODEL', 'NB_OUT')";
    // A user-inserted row whose feature index no model of this table can
    // have: negative, or far past the row count (it would size the class's
    // parameter vectors).
    for idx in [-1, i32::MAX] {
        idaa.execute(&mut s, &format!("INSERT INTO NB_MODEL VALUES ('HI', 0.5E0, {idx}, 0.0E0, 1.0E0)"))
            .unwrap();
        let err = idaa.query(&mut s, score).unwrap_err();
        assert_eq!(err.sqlcode(), -103, "{err}");
        assert!(err.to_string().contains("NB_MODEL"), "the error names the table: {err}");
        // The session still answers, and the repaired model scores again.
        let n = idaa.query(&mut s, "SELECT COUNT(*) FROM NB_MODEL").unwrap();
        assert_eq!(n.scalar().unwrap(), &Value::BigInt(5));
        idaa.execute(&mut s, &format!("DELETE FROM NB_MODEL WHERE FEATURE_IDX = {idx}")).unwrap();
        idaa.query(&mut s, score).unwrap();
    }
}
