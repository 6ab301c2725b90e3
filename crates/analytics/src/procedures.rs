//! Deployable analytics procedures — the paper's §3 framework: arbitrary
//! analytics operations shipped to the accelerator, invoked through plain
//! `CALL` statements, governed entirely by DB2 privileges, with results
//! materialized in accelerator-only tables for the next pipeline stage.
//!
//! Model tables use long/flat layouts so any dimensionality fits the same
//! schema, and scoring procedures reconstruct models from those tables.

use crate::dectree::{self, Node, TreeConfig, TreeModel};
use crate::io::{labeled_matrix, numeric_matrix, parse_column_list, read_accel_table, summary_row};
use crate::io::write_output;
use crate::kmeans::{kmeans, KMeansConfig, KMeansModel};
use crate::linreg;
use crate::naive_bayes::{self, ClassParams, NaiveBayesModel};
use crate::prep;
use idaa_common::{ColumnDef, DataType, Error, ObjectName, Result, Row, Rows, Schema, Value};
use idaa_core::{Idaa, Procedure, Session};
use std::sync::Arc;

/// Schema under which analytics procedures are registered.
pub const ANALYTICS_SCHEMA: &str = "ANALYTICS";

fn arg_str(args: &[Value], i: usize, what: &str) -> Result<String> {
    args.get(i)
        .ok_or_else(|| Error::TypeMismatch(format!("missing argument {i} ({what})")))?
        .as_str()
        .map(str::to_string)
        .map_err(|_| Error::TypeMismatch(format!("argument {i} ({what}) must be a string")))
}

fn arg_i64(args: &[Value], i: usize, what: &str) -> Result<i64> {
    args.get(i)
        .ok_or_else(|| Error::TypeMismatch(format!("missing argument {i} ({what})")))?
        .as_i64()
        .map_err(|_| Error::TypeMismatch(format!("argument {i} ({what}) must be an integer")))
}

fn arg_f64(args: &[Value], i: usize, what: &str) -> Result<f64> {
    args.get(i)
        .ok_or_else(|| Error::TypeMismatch(format!("missing argument {i} ({what})")))?
        .as_f64()
        .map_err(|_| Error::TypeMismatch(format!("argument {i} ({what}) must be numeric")))
}

// ---------------------------------------------------------------------------
// K-means
// ---------------------------------------------------------------------------

/// `CALL ANALYTICS.KMEANS(in_table, columns_csv, k, max_iter, out_table)`
///
/// Trains k-means on the accelerator and writes a long-format centroid
/// table `(CLUSTER_ID, CLUSTER_SIZE, DIM, CENTER)`.
pub struct KMeansProc;

impl Procedure for KMeansProc {
    fn name(&self) -> ObjectName {
        ObjectName::qualified(ANALYTICS_SCHEMA, "KMEANS")
    }

    fn execute(&self, idaa: &Idaa, session: &mut Session, args: &[Value]) -> Result<Rows> {
        let input = ObjectName::from(arg_str(args, 0, "input table")?.as_str());
        let columns = parse_column_list(&arg_str(args, 1, "columns")?);
        let k = arg_i64(args, 2, "k")? as usize;
        let max_iter = arg_i64(args, 3, "max_iter")? as usize;
        let output = ObjectName::from(arg_str(args, 4, "output table")?.as_str());

        let (schema, rows) = read_accel_table(idaa, session, &input)?;
        let (matrix, skipped) = numeric_matrix(&schema, &rows, &columns)?;
        let model = kmeans(&matrix, &KMeansConfig { k, max_iter, ..Default::default() })?;

        let out_schema = Schema::new(vec![
            ColumnDef::not_null("CLUSTER_ID", DataType::Integer),
            ColumnDef::not_null("CLUSTER_SIZE", DataType::Integer),
            ColumnDef::not_null("DIM", DataType::Integer),
            ColumnDef::not_null("CENTER", DataType::Double),
        ])?;
        let mut out_rows: Vec<Row> = Vec::new();
        for (c, centroid) in model.centroids.iter().enumerate() {
            for (d, v) in centroid.iter().enumerate() {
                out_rows.push(vec![
                    Value::Int(c as i32),
                    Value::Int(model.cluster_sizes[c] as i32),
                    Value::Int(d as i32),
                    Value::Double(*v),
                ]);
            }
        }
        write_output(idaa, session, &output, out_schema, out_rows)?;
        Ok(summary_row(&[
            ("K", Value::Int(k as i32)),
            ("ITERATIONS", Value::Int(model.iterations as i32)),
            ("INERTIA", Value::Double(model.inertia)),
            ("ROWS_USED", Value::BigInt(matrix.len() as i64)),
            ("ROWS_SKIPPED", Value::BigInt(skipped as i64)),
        ]))
    }
}

/// Rebuild a [`KMeansModel`] from a centroid table written by
/// [`KMeansProc`].
pub fn load_kmeans_model(
    idaa: &Idaa,
    session: &mut Session,
    table: &ObjectName,
) -> Result<KMeansModel> {
    let (schema, rows) = read_accel_table(idaa, session, table)?;
    let cid = schema.index_of("CLUSTER_ID")?;
    let csz = schema.index_of("CLUSTER_SIZE")?;
    let dim = schema.index_of("DIM")?;
    let cen = schema.index_of("CENTER")?;
    let k = rows
        .iter()
        .map(|r| r[cid].as_i64().unwrap_or(0) as usize + 1)
        .max()
        .ok_or_else(|| Error::Load(format!("model table {table} is empty")))?;
    let dims = rows.iter().map(|r| r[dim].as_i64().unwrap_or(0) as usize + 1).max().unwrap_or(0);
    let mut centroids = vec![vec![0.0; dims]; k];
    let mut sizes = vec![0usize; k];
    for r in &rows {
        let c = r[cid].as_i64()? as usize;
        centroids[c][r[dim].as_i64()? as usize] = r[cen].as_f64()?;
        sizes[c] = r[csz].as_i64()? as usize;
    }
    Ok(KMeansModel { centroids, cluster_sizes: sizes, inertia: 0.0, iterations: 0 })
}

/// `CALL ANALYTICS.KMEANS_SCORE(in_table, id_col, columns_csv, model_table, out_table)`
///
/// Assigns each input row to its nearest centroid; output
/// `(ID …, CLUSTER_ID)`.
pub struct KMeansScoreProc;

impl Procedure for KMeansScoreProc {
    fn name(&self) -> ObjectName {
        ObjectName::qualified(ANALYTICS_SCHEMA, "KMEANS_SCORE")
    }

    fn execute(&self, idaa: &Idaa, session: &mut Session, args: &[Value]) -> Result<Rows> {
        let model = load_kmeans_model(idaa, session, &model_arg(args)?)?;
        let out = ColumnDef::new("CLUSTER_ID", DataType::Integer);
        score_rows(idaa, session, args, out, |point| Value::Int(model.assign(point) as i32))
    }
}

// ---------------------------------------------------------------------------
// Linear regression
// ---------------------------------------------------------------------------

/// `CALL ANALYTICS.LINREG(in_table, target_col, features_csv, out_table)`
///
/// Output `(TERM, COEFFICIENT)` with `INTERCEPT` as the first term.
pub struct LinRegProc;

impl Procedure for LinRegProc {
    fn name(&self) -> ObjectName {
        ObjectName::qualified(ANALYTICS_SCHEMA, "LINREG")
    }

    fn execute(&self, idaa: &Idaa, session: &mut Session, args: &[Value]) -> Result<Rows> {
        let input = ObjectName::from(arg_str(args, 0, "input table")?.as_str());
        let target = idaa_common::ident::normalize(&arg_str(args, 1, "target column")?);
        let features = parse_column_list(&arg_str(args, 2, "features")?);
        let output = ObjectName::from(arg_str(args, 3, "output table")?.as_str());

        let (schema, rows) = read_accel_table(idaa, session, &input)?;
        let mut all_cols = features.clone();
        all_cols.push(target.clone());
        let (matrix, skipped) = numeric_matrix(&schema, &rows, &all_cols)?;
        let x: Vec<Vec<f64>> =
            matrix.iter().map(|r| r[..features.len()].to_vec()).collect();
        let y: Vec<f64> = matrix.iter().map(|r| r[features.len()]).collect();
        let model = linreg::fit(&x, &y)?;

        let out_schema = Schema::new(vec![
            ColumnDef::not_null("TERM", DataType::Varchar(64)),
            ColumnDef::not_null("COEFFICIENT", DataType::Double),
        ])?;
        let mut out_rows: Vec<Row> =
            vec![vec![Value::Varchar("INTERCEPT".into()), Value::Double(model.intercept)]];
        for (f, c) in features.iter().zip(&model.coefficients) {
            out_rows.push(vec![Value::Varchar(f.clone()), Value::Double(*c)]);
        }
        write_output(idaa, session, &output, out_schema, out_rows)?;
        Ok(summary_row(&[
            ("R2", Value::Double(model.r2)),
            ("N", Value::BigInt(model.n as i64)),
            ("ROWS_SKIPPED", Value::BigInt(skipped as i64)),
        ]))
    }
}

/// Rebuild a [`linreg::LinRegModel`]-shaped predictor from a coefficient
/// table written by [`LinRegProc`]. Returns `(intercept, coefficients)` in
/// the order of `features`.
pub fn load_linreg_model(
    idaa: &Idaa,
    session: &mut Session,
    table: &ObjectName,
    features: &[String],
) -> Result<(f64, Vec<f64>)> {
    let (schema, rows) = read_accel_table(idaa, session, table)?;
    let term_i = schema.index_of("TERM")?;
    let coef_i = schema.index_of("COEFFICIENT")?;
    let mut intercept = 0.0;
    let mut coefs = vec![0.0; features.len()];
    let mut covered = vec![false; features.len()];
    for r in &rows {
        let term = r[term_i].as_str()?.to_string();
        let c = r[coef_i].as_f64()?;
        if term == "INTERCEPT" {
            intercept = c;
        } else if let Some(i) = features.iter().position(|f| *f == term) {
            coefs[i] = c;
            covered[i] = true;
        } else {
            return Err(Error::Load(format!(
                "model term {term} is not among the scoring features {features:?}"
            )));
        }
    }
    if let Some(i) = covered.iter().position(|c| !c) {
        return Err(Error::Load(format!(
            "scoring feature {} has no coefficient in model table {table}",
            features[i]
        )));
    }
    Ok((intercept, coefs))
}

/// `CALL ANALYTICS.LINREG_SCORE(in_table, id_col, features_csv, model_table, out_table)`
///
/// Output `(ID, PREDICTION DOUBLE)`.
pub struct LinRegScoreProc;

impl Procedure for LinRegScoreProc {
    fn name(&self) -> ObjectName {
        ObjectName::qualified(ANALYTICS_SCHEMA, "LINREG_SCORE")
    }

    fn execute(&self, idaa: &Idaa, session: &mut Session, args: &[Value]) -> Result<Rows> {
        let features = parse_column_list(&arg_str(args, 2, "features")?);
        let (intercept, coefs) = load_linreg_model(idaa, session, &model_arg(args)?, &features)?;
        let out = ColumnDef::new("PREDICTION", DataType::Double);
        score_rows(idaa, session, args, out, |point| {
            Value::Double(point.iter().zip(&coefs).fold(intercept, |acc, (v, c)| acc + c * v))
        })
    }
}

// ---------------------------------------------------------------------------
// Naive Bayes
// ---------------------------------------------------------------------------

/// `CALL ANALYTICS.NAIVEBAYES_TRAIN(in_table, label_col, features_csv, model_table)`
pub struct NaiveBayesTrainProc;

impl Procedure for NaiveBayesTrainProc {
    fn name(&self) -> ObjectName {
        ObjectName::qualified(ANALYTICS_SCHEMA, "NAIVEBAYES_TRAIN")
    }

    fn execute(&self, idaa: &Idaa, session: &mut Session, args: &[Value]) -> Result<Rows> {
        let input = ObjectName::from(arg_str(args, 0, "input table")?.as_str());
        let label = idaa_common::ident::normalize(&arg_str(args, 1, "label column")?);
        let features = parse_column_list(&arg_str(args, 2, "features")?);
        let output = ObjectName::from(arg_str(args, 3, "model table")?.as_str());

        let (schema, rows) = read_accel_table(idaa, session, &input)?;
        let (matrix, labels) = labeled_matrix(&schema, &rows, &features, &label)?;
        let model = naive_bayes::train(&matrix, &labels)?;

        let out_schema = Schema::new(vec![
            ColumnDef::not_null("CLASS", DataType::Varchar(64)),
            ColumnDef::not_null("PRIOR", DataType::Double),
            ColumnDef::not_null("FEATURE_IDX", DataType::Integer),
            ColumnDef::not_null("MEAN", DataType::Double),
            ColumnDef::not_null("VARIANCE", DataType::Double),
        ])?;
        let mut out_rows: Vec<Row> = Vec::new();
        for c in &model.classes {
            for (i, (m, v)) in c.means.iter().zip(&c.variances).enumerate() {
                out_rows.push(vec![
                    Value::Varchar(c.label.clone()),
                    Value::Double(c.prior),
                    Value::Int(i as i32),
                    Value::Double(*m),
                    Value::Double(*v),
                ]);
            }
        }
        write_output(idaa, session, &output, out_schema, out_rows)?;
        Ok(summary_row(&[
            ("CLASSES", Value::Int(model.classes.len() as i32)),
            ("TRAIN_ACCURACY", Value::Double(model.accuracy(&matrix, &labels))),
        ]))
    }
}

/// Rebuild a [`NaiveBayesModel`] from its model table.
pub fn load_nb_model(
    idaa: &Idaa,
    session: &mut Session,
    table: &ObjectName,
) -> Result<NaiveBayesModel> {
    let (schema, rows) = read_accel_table(idaa, session, table)?;
    let class_i = schema.index_of("CLASS")?;
    let prior_i = schema.index_of("PRIOR")?;
    let feat_i = schema.index_of("FEATURE_IDX")?;
    let mean_i = schema.index_of("MEAN")?;
    let var_i = schema.index_of("VARIANCE")?;
    let mut classes: Vec<ClassParams> = Vec::new();
    for r in &rows {
        let label = r[class_i].as_str()?;
        // A well-formed model has one row per class per feature, so every
        // valid index is below the row count; anything else (a negative or
        // huge user-inserted index) is a malformed model, not an allocation.
        let idx = r[feat_i].as_i64()?;
        let idx = usize::try_from(idx).ok().filter(|&i| i < rows.len()).ok_or_else(|| {
            Error::Load(format!("model table {table} has FEATURE_IDX {idx} out of range"))
        })?;
        let pos = match classes.iter().position(|c| c.label == label) {
            Some(pos) => pos,
            None => {
                classes.push(ClassParams {
                    label: label.to_string(),
                    prior: r[prior_i].as_f64()?,
                    means: Vec::new(),
                    variances: Vec::new(),
                });
                classes.len() - 1
            }
        };
        let entry = &mut classes[pos];
        if entry.means.len() <= idx {
            entry.means.resize(idx + 1, 0.0);
            entry.variances.resize(idx + 1, 1.0);
        }
        entry.means[idx] = r[mean_i].as_f64()?;
        entry.variances[idx] = r[var_i].as_f64()?;
    }
    if classes.is_empty() {
        return Err(Error::Load(format!("model table {table} is empty")));
    }
    // Training orders classes by label (ties predict the first); the table
    // comes back in shard order.
    classes.sort_by(|a, b| a.label.cmp(&b.label));
    Ok(NaiveBayesModel { classes })
}

/// `CALL ANALYTICS.NAIVEBAYES_SCORE(in_table, id_col, features_csv, model_table, out_table)`
pub struct NaiveBayesScoreProc;

impl Procedure for NaiveBayesScoreProc {
    fn name(&self) -> ObjectName {
        ObjectName::qualified(ANALYTICS_SCHEMA, "NAIVEBAYES_SCORE")
    }

    fn execute(&self, idaa: &Idaa, session: &mut Session, args: &[Value]) -> Result<Rows> {
        let model = load_nb_model(idaa, session, &model_arg(args)?)?;
        score_rows(idaa, session, args, class_column(), |point| {
            Value::Varchar(model.predict(point).0.to_string())
        })
    }
}

// ---------------------------------------------------------------------------
// Decision tree
// ---------------------------------------------------------------------------

/// `CALL ANALYTICS.DECTREE_TRAIN(in_table, label_col, features_csv, model_table, max_depth)`
pub struct DecTreeTrainProc;

impl Procedure for DecTreeTrainProc {
    fn name(&self) -> ObjectName {
        ObjectName::qualified(ANALYTICS_SCHEMA, "DECTREE_TRAIN")
    }

    fn execute(&self, idaa: &Idaa, session: &mut Session, args: &[Value]) -> Result<Rows> {
        let input = ObjectName::from(arg_str(args, 0, "input table")?.as_str());
        let label = idaa_common::ident::normalize(&arg_str(args, 1, "label column")?);
        let features = parse_column_list(&arg_str(args, 2, "features")?);
        let output = ObjectName::from(arg_str(args, 3, "model table")?.as_str());
        let max_depth = arg_i64(args, 4, "max depth")? as usize;

        let (schema, rows) = read_accel_table(idaa, session, &input)?;
        let (matrix, labels) = labeled_matrix(&schema, &rows, &features, &label)?;
        let model =
            dectree::train(&matrix, &labels, &TreeConfig { max_depth, ..Default::default() })?;

        let out_schema = Schema::new(vec![
            ColumnDef::not_null("NODE_ID", DataType::Integer),
            ColumnDef::not_null("KIND", DataType::Varchar(5)),
            ColumnDef::new("FEATURE", DataType::Integer),
            ColumnDef::new("THRESHOLD", DataType::Double),
            ColumnDef::new("LEFT_CHILD", DataType::Integer),
            ColumnDef::new("RIGHT_CHILD", DataType::Integer),
            ColumnDef::new("LABEL", DataType::Varchar(64)),
        ])?;
        let out_rows: Vec<Row> = model
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| match n {
                Node::Split { feature, threshold, left, right } => vec![
                    Value::Int(i as i32),
                    Value::Varchar("SPLIT".into()),
                    Value::Int(*feature as i32),
                    Value::Double(*threshold),
                    Value::Int(*left as i32),
                    Value::Int(*right as i32),
                    Value::Null,
                ],
                Node::Leaf { label } => vec![
                    Value::Int(i as i32),
                    Value::Varchar("LEAF".into()),
                    Value::Null,
                    Value::Null,
                    Value::Null,
                    Value::Null,
                    Value::Varchar(label.clone()),
                ],
            })
            .collect();
        write_output(idaa, session, &output, out_schema, out_rows)?;
        Ok(summary_row(&[
            ("NODES", Value::Int(model.size() as i32)),
            ("TRAIN_ACCURACY", Value::Double(model.accuracy(&matrix, &labels))),
        ]))
    }
}

/// Rebuild a [`TreeModel`] from its model table.
pub fn load_tree_model(
    idaa: &Idaa,
    session: &mut Session,
    table: &ObjectName,
) -> Result<TreeModel> {
    let (schema, mut rows) = read_accel_table(idaa, session, table)?;
    let node_i = schema.index_of("NODE_ID")?;
    rows.sort_by_key(|r| r[node_i].as_i64().unwrap_or(0));
    let kind_i = schema.index_of("KIND")?;
    let feat_i = schema.index_of("FEATURE")?;
    let thr_i = schema.index_of("THRESHOLD")?;
    let left_i = schema.index_of("LEFT_CHILD")?;
    let right_i = schema.index_of("RIGHT_CHILD")?;
    let label_i = schema.index_of("LABEL")?;
    let nodes: Vec<Node> = rows
        .iter()
        .map(|r| {
            Ok(if r[kind_i].as_str()? == "SPLIT" {
                Node::Split {
                    feature: r[feat_i].as_i64()? as usize,
                    threshold: r[thr_i].as_f64()?,
                    left: r[left_i].as_i64()? as usize,
                    right: r[right_i].as_i64()? as usize,
                }
            } else {
                Node::Leaf { label: r[label_i].as_str()?.to_string() }
            })
        })
        .collect::<Result<_>>()?;
    if nodes.is_empty() {
        return Err(Error::Load(format!("model table {table} is empty")));
    }
    Ok(TreeModel { nodes })
}

/// `CALL ANALYTICS.DECTREE_SCORE(in_table, id_col, features_csv, model_table, out_table)`
pub struct DecTreeScoreProc;

impl Procedure for DecTreeScoreProc {
    fn name(&self) -> ObjectName {
        ObjectName::qualified(ANALYTICS_SCHEMA, "DECTREE_SCORE")
    }

    fn execute(&self, idaa: &Idaa, session: &mut Session, args: &[Value]) -> Result<Rows> {
        let model = load_tree_model(idaa, session, &model_arg(args)?)?;
        score_rows(idaa, session, args, class_column(), |point| {
            Value::Varchar(model.predict(point).to_string())
        })
    }
}

/// The model-table argument (index 3) of every `*_SCORE` procedure.
fn model_arg(args: &[Value]) -> Result<ObjectName> {
    Ok(ObjectName::from(arg_str(args, 3, "model table")?.as_str()))
}

/// The `CLASS` column a classifier's scores land in.
fn class_column() -> ColumnDef {
    ColumnDef::new("CLASS", DataType::Varchar(64))
}

/// The scoring loop of every `*_SCORE(in_table, id_col, features_csv,
/// model_table, out_table)` procedure: read the input, `predict` each row
/// whose features are all non-NULL (the others score NULL), and write
/// `(ID, out)` to the output table.
fn score_rows(
    idaa: &Idaa,
    session: &mut Session,
    args: &[Value],
    out: ColumnDef,
    mut predict: impl FnMut(&[f64]) -> Value,
) -> Result<Rows> {
    let input = ObjectName::from(arg_str(args, 0, "input table")?.as_str());
    let id_col = idaa_common::ident::normalize(&arg_str(args, 1, "id column")?);
    let features = parse_column_list(&arg_str(args, 2, "features")?);
    let output = ObjectName::from(arg_str(args, 4, "output table")?.as_str());
    let (schema, rows) = read_accel_table(idaa, session, &input)?;
    let id = schema.index_of(&id_col)?;
    let ordinals: Vec<usize> =
        features.iter().map(|c| schema.index_of(c)).collect::<Result<_>>()?;
    let mut out_rows = Vec::with_capacity(rows.len());
    let mut scored = 0usize;
    for row in &rows {
        let point: Option<Vec<f64>> = ordinals.iter().map(|&i| row[i].as_f64().ok()).collect();
        let score = point.map_or(Value::Null, |p| {
            scored += 1;
            predict(&p)
        });
        out_rows.push(vec![row[id].clone(), score]);
    }
    let id_def = ColumnDef::new(id_col, schema.columns()[id].data_type);
    let out_schema = Schema::new(vec![id_def, out])?;
    write_output(idaa, session, &output, out_schema, out_rows)?;
    Ok(summary_row(&[("ROWS_SCORED", Value::BigInt(scored as i64))]))
}

// ---------------------------------------------------------------------------
// Data preparation procedures
// ---------------------------------------------------------------------------

/// `CALL ANALYTICS.DESCRIBE(in_table, out_table)` — summary statistics of
/// every numeric column.
pub struct DescribeProc;

impl Procedure for DescribeProc {
    fn name(&self) -> ObjectName {
        ObjectName::qualified(ANALYTICS_SCHEMA, "DESCRIBE")
    }

    fn execute(&self, idaa: &Idaa, session: &mut Session, args: &[Value]) -> Result<Rows> {
        let input = ObjectName::from(arg_str(args, 0, "input table")?.as_str());
        let output = ObjectName::from(arg_str(args, 1, "output table")?.as_str());
        let (schema, rows) = read_accel_table(idaa, session, &input)?;
        let numeric: Vec<(String, usize)> = schema
            .columns()
            .iter()
            .enumerate()
            .filter(|(_, c)| c.data_type.is_numeric())
            .map(|(i, c)| (c.name.clone(), i))
            .collect();
        let columns: Vec<(String, Vec<Option<f64>>)> = numeric
            .iter()
            .map(|(name, i)| {
                (name.clone(), rows.iter().map(|r| r[*i].as_f64().ok()).collect())
            })
            .collect();
        let stats = prep::describe(&columns);
        let out_schema = Schema::new(vec![
            ColumnDef::not_null("COLUMN_NAME", DataType::Varchar(64)),
            ColumnDef::not_null("CNT", DataType::BigInt),
            ColumnDef::not_null("NULLS", DataType::BigInt),
            ColumnDef::not_null("MEAN", DataType::Double),
            ColumnDef::not_null("STDDEV", DataType::Double),
            ColumnDef::not_null("MINV", DataType::Double),
            ColumnDef::not_null("MAXV", DataType::Double),
        ])?;
        let out_rows: Vec<Row> = stats
            .iter()
            .map(|s| {
                vec![
                    Value::Varchar(s.name.clone()),
                    Value::BigInt(s.count as i64),
                    Value::BigInt(s.nulls as i64),
                    Value::Double(s.mean),
                    Value::Double(s.stddev),
                    Value::Double(s.min),
                    Value::Double(s.max),
                ]
            })
            .collect();
        write_output(idaa, session, &output, out_schema, out_rows)?;
        Ok(summary_row(&[("COLUMNS_DESCRIBED", Value::Int(stats.len() as i32))]))
    }
}

/// `CALL ANALYTICS.NORMALIZE(in_table, columns_csv, method, out_table)` —
/// copy of the input with the named columns normalized (NULLs imputed to
/// the column mean first).
pub struct NormalizeProc;

impl Procedure for NormalizeProc {
    fn name(&self) -> ObjectName {
        ObjectName::qualified(ANALYTICS_SCHEMA, "NORMALIZE")
    }

    fn execute(&self, idaa: &Idaa, session: &mut Session, args: &[Value]) -> Result<Rows> {
        let input = ObjectName::from(arg_str(args, 0, "input table")?.as_str());
        let columns = parse_column_list(&arg_str(args, 1, "columns")?);
        let method = prep::NormalizeMethod::parse(&arg_str(args, 2, "method")?)?;
        let output = ObjectName::from(arg_str(args, 3, "output table")?.as_str());

        let (schema, rows) = read_accel_table(idaa, session, &input)?;
        let mut imputed_total = 0usize;
        // Output schema: normalized columns become DOUBLE and nullable.
        let out_schema = Schema::new(
            schema
                .columns()
                .iter()
                .map(|c| {
                    if columns.contains(&c.name) {
                        ColumnDef::new(c.name.clone(), DataType::Double)
                    } else {
                        c.clone()
                    }
                })
                .collect(),
        )?;
        let mut out_rows: Vec<Row> = rows.clone();
        for col in &columns {
            let i = schema.index_of(col)?;
            if !schema.columns()[i].data_type.is_numeric() {
                return Err(Error::TypeMismatch(format!("column {col} is not numeric")));
            }
            let mut vals: Vec<Option<f64>> =
                rows.iter().map(|r| r[i].as_f64().ok()).collect();
            imputed_total += prep::impute_mean(&mut vals);
            let mut dense: Vec<f64> = vals.iter().map(|v| v.expect("imputed")).collect();
            prep::normalize_column(&mut dense, method);
            for (r, v) in out_rows.iter_mut().zip(dense) {
                r[i] = Value::Double(v);
            }
        }
        let n = out_rows.len();
        write_output(idaa, session, &output, out_schema, out_rows)?;
        Ok(summary_row(&[
            ("ROWS", Value::BigInt(n as i64)),
            ("CELLS_IMPUTED", Value::BigInt(imputed_total as i64)),
        ]))
    }
}

/// `CALL ANALYTICS.SPLIT(in_table, train_out, test_out, train_fraction, seed)`
pub struct SplitProc;

impl Procedure for SplitProc {
    fn name(&self) -> ObjectName {
        ObjectName::qualified(ANALYTICS_SCHEMA, "SPLIT")
    }

    fn execute(&self, idaa: &Idaa, session: &mut Session, args: &[Value]) -> Result<Rows> {
        let input = ObjectName::from(arg_str(args, 0, "input table")?.as_str());
        let train_out = ObjectName::from(arg_str(args, 1, "train table")?.as_str());
        let test_out = ObjectName::from(arg_str(args, 2, "test table")?.as_str());
        let fraction = arg_f64(args, 3, "train fraction")?;
        let seed = arg_i64(args, 4, "seed")? as u64;

        let (schema, rows) = read_accel_table(idaa, session, &input)?;
        let (train_idx, test_idx) = prep::train_test_split(rows.len(), fraction, seed)?;
        let pick = |idx: &[usize]| -> Vec<Row> { idx.iter().map(|&i| rows[i].clone()).collect() };
        let train_rows = pick(&train_idx);
        let test_rows = pick(&test_idx);
        let (tn, sn) = (train_rows.len(), test_rows.len());
        write_output(idaa, session, &train_out, schema.clone(), train_rows)?;
        write_output(idaa, session, &test_out, schema, test_rows)?;
        Ok(summary_row(&[
            ("TRAIN_ROWS", Value::BigInt(tn as i64)),
            ("TEST_ROWS", Value::BigInt(sn as i64)),
        ]))
    }
}

/// All analytics procedures, ready for deployment.
pub fn all_procedures() -> Vec<Arc<dyn Procedure>> {
    vec![
        Arc::new(KMeansProc),
        Arc::new(KMeansScoreProc),
        Arc::new(LinRegProc),
        Arc::new(LinRegScoreProc),
        Arc::new(NaiveBayesTrainProc),
        Arc::new(NaiveBayesScoreProc),
        Arc::new(DecTreeTrainProc),
        Arc::new(DecTreeScoreProc),
        Arc::new(DescribeProc),
        Arc::new(NormalizeProc),
        Arc::new(SplitProc),
    ]
}

/// Register every analytics procedure on `idaa`, owned by `owner`.
pub fn deploy_all(idaa: &Idaa, owner: &str) -> Result<()> {
    for p in all_procedures() {
        idaa.register_procedure(p, owner)?;
    }
    Ok(())
}
