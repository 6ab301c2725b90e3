//! The parallel load pipeline: reader → parse workers → writer.
//!
//! Reading pulls record batches from the source; a configurable number of
//! parser workers convert text records into typed rows against the target
//! schema (the "format conversion" stage of the real loader); the writer
//! applies parsed batches to the target. Experiment E5 sweeps the worker
//! count.

use crate::source::{Record, RecordSource};
use crossbeam_channel::bounded;
use idaa_common::{DataType, Error, Result, Row, Schema, Value};
use std::collections::BTreeMap;

/// How to react to malformed records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectPolicy {
    /// First bad record fails the load.
    FailFast,
    /// Skip bad records up to a limit, then fail.
    SkipUpTo(usize),
}

/// Load pipeline configuration.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Parser worker threads.
    pub parallelism: usize,
    /// Records per batch through the pipeline.
    pub batch_size: usize,
    /// Malformed-record policy.
    pub rejects: RejectPolicy,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig { parallelism: 4, batch_size: 4096, rejects: RejectPolicy::SkipUpTo(0) }
    }
}

/// Outcome of a load.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoadReport {
    pub rows_loaded: usize,
    pub rows_rejected: usize,
    pub batches: usize,
}

/// Parse one text field into a typed [`Value`] for `data_type`. Empty
/// fields load as NULL (classic loader convention).
pub fn parse_field(field: &str, data_type: DataType) -> Result<Value> {
    let t = field.trim();
    if t.is_empty() || t.eq_ignore_ascii_case("null") {
        return Ok(Value::Null);
    }
    let bad = |what: &str| Error::Load(format!("cannot parse '{field}' as {what}"));
    Ok(match data_type {
        DataType::Boolean => match t.to_ascii_uppercase().as_str() {
            "TRUE" | "T" | "1" | "Y" | "YES" => Value::Boolean(true),
            "FALSE" | "F" | "0" | "N" | "NO" => Value::Boolean(false),
            _ => return Err(bad("BOOLEAN")),
        },
        DataType::SmallInt => Value::SmallInt(t.parse().map_err(|_| bad("SMALLINT"))?),
        DataType::Integer => Value::Int(t.parse().map_err(|_| bad("INTEGER"))?),
        DataType::BigInt => Value::BigInt(t.parse().map_err(|_| bad("BIGINT"))?),
        DataType::Double => Value::Double(t.parse().map_err(|_| bad("DOUBLE"))?),
        DataType::Decimal(_, s) => {
            let d = idaa_common::Decimal::parse(t).map_err(|_| bad("DECIMAL"))?;
            Value::Decimal(d.rescale(s)?)
        }
        DataType::Varchar(_) | DataType::Char(_) => Value::Varchar(field.to_string()),
        DataType::Date => Value::Date(
            idaa_common::value::parse_date(t).map_err(|_| bad("DATE"))?,
        ),
        DataType::Timestamp => Value::Timestamp(
            idaa_common::value::parse_timestamp(t).map_err(|_| bad("TIMESTAMP"))?,
        ),
    })
}

/// Parse one record against `schema` (arity + per-field typing +
/// constraint validation).
pub fn parse_record(record: &Record, schema: &Schema) -> Result<Row> {
    if record.len() != schema.len() {
        return Err(Error::Load(format!(
            "record has {} fields but target table has {} columns",
            record.len(),
            schema.len()
        )));
    }
    let row: Row = record
        .iter()
        .zip(schema.columns())
        .map(|(f, c)| parse_field(f, c.data_type))
        .collect::<Result<_>>()?;
    schema.check_row(&row).map_err(|e| Error::Load(e.to_string()))
}

/// A parser worker's output for one raw batch: typed rows plus the count
/// of skipped records, or the error that fails the load.
type Parsed = Result<(Vec<Row>, usize)>;

/// Run the pipeline: parse all records from `source` against `schema` with
/// `config.parallelism` workers, handing each parsed batch to `write`.
///
/// `write` is called from the coordinating thread only, and sees batches in
/// *source* order whatever order the workers finish in: the reader numbers
/// raw batches and the writer side holds early finishers back, so what a
/// load writes depends on the source alone, never on thread timing.
pub fn run_pipeline(
    mut source: Box<dyn RecordSource>,
    schema: &Schema,
    config: &LoadConfig,
    write: impl FnMut(Vec<Row>) -> Result<()>,
) -> Result<LoadReport> {
    let workers = config.parallelism.max(1);
    let (raw_tx, raw_rx) = bounded::<(usize, Vec<Record>)>(workers * 2);
    let (parsed_tx, parsed_rx) = bounded::<(usize, Parsed)>(workers * 2);

    let reject_limit = match config.rejects {
        RejectPolicy::FailFast => None,
        RejectPolicy::SkipUpTo(n) => Some(n),
    };

    let mut writer = InOrderWriter {
        write,
        reject_limit,
        report: LoadReport::default(),
        next: 0,
        early: BTreeMap::new(),
    };
    std::thread::scope(|scope| -> Result<()> {
        // Parser workers.
        for _ in 0..workers {
            let raw_rx = raw_rx.clone();
            let parsed_tx = parsed_tx.clone();
            scope.spawn(move || {
                for (seq, batch) in raw_rx.iter() {
                    let mut rows = Vec::with_capacity(batch.len());
                    let mut rejected = 0;
                    let mut failure: Option<Error> = None;
                    for rec in &batch {
                        match parse_record(rec, schema) {
                            Ok(row) => rows.push(row),
                            Err(e) => {
                                if reject_limit.is_none() {
                                    failure = Some(e);
                                    break;
                                }
                                rejected += 1;
                            }
                        }
                    }
                    let msg = match failure {
                        Some(e) => Err(e),
                        None => Ok((rows, rejected)),
                    };
                    if parsed_tx.send((seq, msg)).is_err() {
                        return;
                    }
                }
            });
        }
        drop(parsed_tx);

        // Reader: feed numbered raw batches, draining parsed output
        // opportunistically to keep the pipeline moving. Once as many
        // batches are unwritten as the two channels hold, wait for output
        // instead, so one slow batch cannot grow the reorder buffer past
        // that; the batch the writer waits for is then still in the
        // pipeline, so the wait ends.
        let feed_result: Result<()> = (|| {
            let mut sent = 0;
            while let Some(batch) = source.next_batch(config.batch_size)? {
                raw_tx
                    .send((sent, batch))
                    .map_err(|_| Error::internal("load pipeline workers terminated early"))?;
                sent += 1;
                loop {
                    let msg = if sent - writer.next >= workers * 4 {
                        parsed_rx.recv().ok()
                    } else {
                        parsed_rx.try_recv().ok()
                    };
                    let Some(msg) = msg else { break };
                    writer.accept(msg)?;
                }
            }
            Ok(())
        })();
        drop(raw_tx);
        // Drain the remaining parsed batches (after a feed error, drain
        // without writing so the workers can terminate).
        for msg in parsed_rx.iter() {
            if feed_result.is_ok() {
                writer.accept(msg)?;
            }
        }
        feed_result
    })?;
    Ok(writer.report)
}

/// The writer end of the pipeline: applies parsed batches in sequence
/// order, parking those that finish ahead of their turn.
struct InOrderWriter<W> {
    write: W,
    reject_limit: Option<usize>,
    report: LoadReport,
    /// Sequence number of the batch `write` takes next.
    next: usize,
    early: BTreeMap<usize, Parsed>,
}

impl<W: FnMut(Vec<Row>) -> Result<()>> InOrderWriter<W> {
    fn accept(&mut self, (seq, msg): (usize, Parsed)) -> Result<()> {
        self.early.insert(seq, msg);
        while let Some(msg) = self.early.remove(&self.next) {
            self.next += 1;
            let (rows, rejected) = msg?;
            self.report.rows_rejected += rejected;
            if let Some(limit) = self.reject_limit {
                if self.report.rows_rejected > limit {
                    return Err(Error::Load(format!(
                        "reject limit exceeded: {} records rejected (limit {limit})",
                        self.report.rows_rejected
                    )));
                }
            }
            if !rows.is_empty() {
                self.report.rows_loaded += rows.len();
                self.report.batches += 1;
                (self.write)(rows)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::VecSource;
    use idaa_common::ColumnDef;

    fn schema() -> Schema {
        Schema::new(vec![
            ColumnDef::not_null("ID", DataType::Integer),
            ColumnDef::new("NAME", DataType::Varchar(10)),
            ColumnDef::new("SCORE", DataType::Double),
        ])
        .unwrap()
    }

    #[test]
    fn field_parsing_by_type() {
        assert_eq!(parse_field("42", DataType::Integer).unwrap(), Value::Int(42));
        assert_eq!(parse_field(" 4.5 ", DataType::Double).unwrap(), Value::Double(4.5));
        assert_eq!(
            parse_field("12.345", DataType::Decimal(10, 2)).unwrap().render(),
            "12.34"
        );
        assert_eq!(parse_field("yes", DataType::Boolean).unwrap(), Value::Boolean(true));
        assert_eq!(parse_field("", DataType::Integer).unwrap(), Value::Null);
        assert_eq!(parse_field("NULL", DataType::Double).unwrap(), Value::Null);
        assert_eq!(
            parse_field("2016-03-15", DataType::Date).unwrap(),
            Value::Date(idaa_common::value::parse_date("2016-03-15").unwrap())
        );
        assert!(parse_field("abc", DataType::Integer).is_err());
        assert!(parse_field("2016-13-40", DataType::Date).is_err());
    }

    #[test]
    fn record_parsing_checks_arity_and_constraints() {
        let s = schema();
        let row = parse_record(&vec!["1".into(), "bob".into(), "2.5".into()], &s).unwrap();
        assert_eq!(row[0], Value::Int(1));
        assert!(parse_record(&vec!["1".into()], &s).is_err());
        // NOT NULL violation surfaces as a Load error.
        let r = parse_record(&vec!["".into(), "x".into(), "1.0".into()], &s);
        assert!(matches!(r, Err(Error::Load(_))));
    }

    fn records(n: usize) -> Vec<Record> {
        (0..n)
            .map(|i| vec![i.to_string(), format!("n{i}"), format!("{}.5", i)])
            .collect()
    }

    #[test]
    fn pipeline_loads_everything() {
        for workers in [1, 4] {
            let cfg = LoadConfig {
                parallelism: workers,
                batch_size: 16,
                rejects: RejectPolicy::SkipUpTo(0),
            };
            let mut collected = Vec::new();
            let report = run_pipeline(
                Box::new(VecSource::new(records(100))),
                &schema(),
                &cfg,
                |rows| {
                    collected.extend(rows);
                    Ok(())
                },
            )
            .unwrap();
            assert_eq!(report.rows_loaded, 100);
            assert_eq!(report.rows_rejected, 0);
            // Seven batches, written in source order whichever worker
            // finishes first.
            let ids: Vec<Value> = collected.iter().map(|r| r[0].clone()).collect();
            assert_eq!(ids, (0..100).map(Value::Int).collect::<Vec<_>>());
        }
    }

    #[test]
    fn pipeline_rejects_up_to_limit() {
        let mut recs = records(10);
        recs[3][0] = "bad".into();
        recs[7][0] = "worse".into();
        let cfg =
            LoadConfig { parallelism: 2, batch_size: 4, rejects: RejectPolicy::SkipUpTo(5) };
        let mut n = 0;
        let report = run_pipeline(Box::new(VecSource::new(recs)), &schema(), &cfg, |rows| {
            n += rows.len();
            Ok(())
        })
        .unwrap();
        assert_eq!(report.rows_loaded, 8);
        assert_eq!(report.rows_rejected, 2);
        assert_eq!(n, 8);
    }

    #[test]
    fn pipeline_fail_fast() {
        let mut recs = records(10);
        recs[5][0] = "bad".into();
        let cfg = LoadConfig { parallelism: 1, batch_size: 4, rejects: RejectPolicy::FailFast };
        let r = run_pipeline(Box::new(VecSource::new(recs)), &schema(), &cfg, |_| Ok(()));
        assert!(matches!(r, Err(Error::Load(_))));
    }

    #[test]
    fn pipeline_reject_limit_exceeded() {
        let mut recs = records(10);
        for r in recs.iter_mut().take(4) {
            r[0] = "bad".into();
        }
        let cfg =
            LoadConfig { parallelism: 1, batch_size: 2, rejects: RejectPolicy::SkipUpTo(2) };
        let r = run_pipeline(Box::new(VecSource::new(recs)), &schema(), &cfg, |_| Ok(()));
        assert!(matches!(r, Err(Error::Load(_))));
    }

    #[test]
    fn writer_error_propagates() {
        let cfg = LoadConfig::default();
        let r = run_pipeline(Box::new(VecSource::new(records(10))), &schema(), &cfg, |_| {
            Err(Error::internal("disk full"))
        });
        assert!(r.is_err());
    }
}
