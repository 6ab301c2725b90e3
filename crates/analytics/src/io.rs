//! Governed table I/O for analytics procedures.
//!
//! Each table is authorized through [`Idaa::authorize`], DB2's one
//! authorization step, before its rows are touched. A read follows a
//! SELECT's rule in the caller's transaction ([`Idaa::scan_accel_table`]):
//! the input must be on the accelerator for it (an AOT, or a loaded replica
//! it has not changed in DB2; else -4742), and is read at its snapshot,
//! with its own writes, never crossing the link. Results are written with
//! [`Idaa::write_output_aot`] to accelerator-only tables, ready to feed the
//! next pipeline stage; they commit at once, outside the caller's
//! transaction.

use idaa_common::{Error, ObjectName, Result, Row, Rows, Schema, Value};
use idaa_core::{Idaa, Session};
use idaa_host::Granted;
use idaa_sql::Privilege;

/// The session's SELECT token on `table`, once DB2 knows the table.
fn select_grant(idaa: &Idaa, session: &Session, table: &ObjectName) -> Result<Granted> {
    idaa.authorize_one(session, &idaa.host().table_meta(table)?.name, Privilege::Select)
}

/// Read an accelerator-resident table (schema + visible rows), authorized
/// for SELECT on DB2. Data does **not** cross the link: the caller is
/// executing *on* the accelerator.
pub fn read_accel_table(
    idaa: &Idaa,
    session: &mut Session,
    table: &ObjectName,
) -> Result<(Schema, Vec<Row>)> {
    let grant = select_grant(idaa, session, table)?;
    let read = idaa.scan_accel_table(session, &grant)?;
    Ok((read.schema, read.rows))
}

/// Write an analytics result to the accelerator-only table `table`
/// ([`Idaa::write_output_aot`]): replacing one needs what DROP needs; a new
/// one needs nothing and belongs to the session's user.
pub fn write_output(
    idaa: &Idaa,
    session: &mut Session,
    table: &ObjectName,
    schema: Schema,
    rows: Vec<Row>,
) -> Result<()> {
    let name = table.resolve(idaa.default_schema());
    let exists = idaa.host().table_meta(&name).is_ok();
    let replace = exists.then(|| idaa.authorize_one(session, &name, Privilege::All)).transpose()?;
    idaa.write_output_aot(session, &name, replace.as_ref(), schema, rows)
}

/// Split a `"COL1,COL2"` argument into normalized column names.
pub fn parse_column_list(arg: &str) -> Vec<String> {
    arg.split(',')
        .map(|c| idaa_common::ident::normalize(c.trim()))
        .filter(|c| !c.is_empty())
        .collect()
}

/// Extract named numeric columns as a row-major `f64` matrix. Rows
/// containing NULL in any requested column are skipped; the skip count is
/// returned alongside.
pub fn numeric_matrix(
    schema: &Schema,
    rows: &[Row],
    columns: &[String],
) -> Result<(Vec<Vec<f64>>, usize)> {
    let ordinals: Vec<usize> = columns
        .iter()
        .map(|c| {
            let i = schema.index_of(c)?;
            let t = schema.columns()[i].data_type;
            if !t.is_numeric() {
                return Err(Error::TypeMismatch(format!(
                    "column {c} has type {t}; analytics requires numeric columns"
                )));
            }
            Ok(i)
        })
        .collect::<Result<_>>()?;
    let mut out = Vec::with_capacity(rows.len());
    let mut skipped = 0;
    'row: for row in rows {
        let mut v = Vec::with_capacity(ordinals.len());
        for &i in &ordinals {
            match row[i].as_f64() {
                Ok(x) => v.push(x),
                Err(_) => {
                    skipped += 1;
                    continue 'row;
                }
            }
        }
        out.push(v);
    }
    Ok((out, skipped))
}

/// Extract one column rendered as strings (labels). NULLs become `"?"`.
pub fn label_column(schema: &Schema, rows: &[Row], column: &str) -> Result<Vec<String>> {
    let i = schema.index_of(column)?;
    Ok(rows
        .iter()
        .map(|r| if r[i].is_null() { "?".to_string() } else { r[i].render() })
        .collect())
}

/// [`numeric_matrix`] of `features` beside the `label` of every row it
/// kept (the classifiers' training input).
pub fn labeled_matrix(
    schema: &Schema,
    rows: &[Row],
    features: &[String],
    label: &str,
) -> Result<(Vec<Vec<f64>>, Vec<String>)> {
    let (matrix, _) = numeric_matrix(schema, rows, features)?;
    let ordinals: Vec<usize> = features.iter().map(|c| schema.index_of(c)).collect::<Result<_>>()?;
    let complete = |r: &Row| ordinals.iter().all(|&i| r[i].as_f64().is_ok());
    let labels = label_column(schema, rows, label)?;
    Ok((matrix, rows.iter().zip(labels).filter(|(r, _)| complete(r)).map(|(_, l)| l).collect()))
}

/// Pull an accelerator table's numeric matrix *to the client side*,
/// paying full link cost — the extract-then-compute baseline the paper's
/// in-database framework replaces (used by experiment E7/E8 baselines).
pub fn extract_matrix_to_client(
    idaa: &Idaa,
    session: &mut Session,
    table: &ObjectName,
    columns: &[String],
) -> Result<(Vec<Vec<f64>>, usize)> {
    // The full result set crosses the link as encoded frames; the client
    // computes on the decoded rows, as a real extract would.
    let grant = select_grant(idaa, session, table)?;
    let delivered = idaa.extract_accel_table(session, &grant)?;
    numeric_matrix(&delivered.schema, &delivered.rows, columns)
}

/// Convenience: a one-row summary result (procedure return value).
pub fn summary_row(pairs: &[(&str, Value)]) -> Rows {
    let schema = Schema::new_unchecked(
        pairs
            .iter()
            .map(|(n, v)| {
                idaa_common::ColumnDef::new(
                    *n,
                    v.data_type().unwrap_or(idaa_common::DataType::Varchar(64)),
                )
            })
            .collect(),
    );
    Rows::new(schema, vec![pairs.iter().map(|(_, v)| v.clone()).collect()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use idaa_common::{ColumnDef, DataType};

    #[test]
    fn column_list_parsing() {
        assert_eq!(parse_column_list("a, b ,C"), vec!["A", "B", "C"]);
        assert!(parse_column_list("").is_empty());
    }

    fn schema() -> Schema {
        Schema::new(vec![
            ColumnDef::new("ID", DataType::Integer),
            ColumnDef::new("X", DataType::Double),
            ColumnDef::new("NAME", DataType::Varchar(8)),
        ])
        .unwrap()
    }

    #[test]
    fn matrix_extraction_skips_nulls() {
        let rows = vec![
            vec![Value::Int(1), Value::Double(2.0), Value::Varchar("a".into())],
            vec![Value::Int(2), Value::Null, Value::Varchar("b".into())],
        ];
        let (m, skipped) =
            numeric_matrix(&schema(), &rows, &["ID".into(), "X".into()]).unwrap();
        assert_eq!(m, vec![vec![1.0, 2.0]]);
        assert_eq!(skipped, 1);
    }

    #[test]
    fn matrix_rejects_non_numeric() {
        let r = numeric_matrix(&schema(), &[], &["NAME".into()]);
        assert!(matches!(r, Err(Error::TypeMismatch(_))));
        assert!(numeric_matrix(&schema(), &[], &["NOPE".into()]).is_err());
    }

    #[test]
    fn labels_follow_the_rows_the_matrix_keeps() {
        let rows = vec![
            vec![Value::Int(1), Value::Double(2.0), Value::Varchar("a".into())],
            vec![Value::Int(2), Value::Null, Value::Varchar("b".into())],
            vec![Value::Int(3), Value::Double(3.0), Value::Null],
        ];
        assert_eq!(label_column(&schema(), &rows, "NAME").unwrap(), vec!["a", "b", "?"]);
        let (m, labels) = labeled_matrix(&schema(), &rows, &["X".into()], "NAME").unwrap();
        assert_eq!(m, vec![vec![2.0], vec![3.0]]);
        assert_eq!(labels, vec!["a", "?"]);
    }

    #[test]
    fn summary_row_shape() {
        let r = summary_row(&[("K", Value::Int(3)), ("NOTE", Value::Varchar("ok".into()))]);
        assert_eq!(r.schema.columns()[0].name, "K");
        assert_eq!(r.rows[0][1].render(), "ok");
    }
}
