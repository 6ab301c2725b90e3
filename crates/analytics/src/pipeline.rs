//! SPSS-style multi-staged pipelines — the workload the paper's
//! introduction motivates.
//!
//! "Predictive analytics tools like SPSS resort to multiple SQL
//! statements, each implementing a step or stage in a chain of data
//! preparation, transformation, and evaluation tasks. For each stage,
//! base data needs to be transferred to IDAA before mining algorithms can
//! be run and result data has to be materialized within DB2 before it can
//! be used as input for the next stage."
//!
//! [`Pipeline::run`] executes the same stage chain in either of two modes:
//!
//! * [`PipelineMode::MaterializeInDb2`] — the pre-AOT baseline: each
//!   stage's result is pulled back to a regular DB2 table, then re-added
//!   and re-loaded onto the accelerator so the next stage can run there.
//! * [`PipelineMode::AcceleratorOnly`] — the paper's extension: each stage
//!   writes an accelerator-only table via `INSERT … SELECT`, so no stage
//!   result ever crosses the link.
//!
//! Experiment E3 sweeps the stage count and reports bytes moved and link
//! messages per mode (its wall-clock column is timed by the harness).

use idaa_common::{Error, ObjectName, Result, Rows};
use idaa_core::{Idaa, Payload, Session};
use idaa_netsim::LinkMetrics;
use idaa_sql::plan::plan_query;
use idaa_sql::{parse_statement, Statement};

/// One transformation stage: `output ← SELECT …`.
#[derive(Debug, Clone)]
pub struct Stage {
    /// Unqualified output table name.
    pub output: String,
    /// The SELECT producing this stage's rows (may reference previous
    /// stage outputs and base tables).
    pub select_sql: String,
}

/// Execution strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineMode {
    /// Materialize every stage in DB2 and re-load it to the accelerator
    /// (the pre-AOT behavior).
    MaterializeInDb2,
    /// Keep every stage on the accelerator via AOTs.
    AcceleratorOnly,
}

/// Per-stage measurement.
#[derive(Debug, Clone)]
pub struct StageReport {
    pub output: String,
    pub rows: usize,
    pub link: LinkMetrics,
}

/// Whole-pipeline measurement.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    pub mode: PipelineMode,
    pub stages: Vec<StageReport>,
    pub link: LinkMetrics,
}

impl PipelineReport {
    /// Total bytes moved across the link by the whole pipeline.
    pub fn bytes_moved(&self) -> u64 {
        self.link.total_bytes()
    }
}

/// A multi-stage transformation pipeline.
#[derive(Debug, Clone, Default)]
pub struct Pipeline {
    pub stages: Vec<Stage>,
}

impl Pipeline {
    /// Empty pipeline.
    pub fn new() -> Pipeline {
        Pipeline::default()
    }

    /// Append a stage.
    pub fn stage(mut self, output: &str, select_sql: &str) -> Pipeline {
        self.stages.push(Stage { output: output.to_string(), select_sql: select_sql.to_string() });
        self
    }

    /// Run all stages under `mode`, measuring link traffic per stage.
    pub fn run(
        &self,
        idaa: &Idaa,
        session: &mut Session,
        mode: PipelineMode,
    ) -> Result<PipelineReport> {
        let link0 = idaa.link().metrics();
        let mut stages = Vec::with_capacity(self.stages.len());
        for stage in &self.stages {
            let l0 = idaa.link().metrics();
            let rows = match mode {
                PipelineMode::AcceleratorOnly => self.run_stage_aot(idaa, session, stage)?,
                PipelineMode::MaterializeInDb2 => self.run_stage_db2(idaa, session, stage)?,
            };
            stages.push(StageReport {
                output: stage.output.clone(),
                rows,
                link: idaa.link().metrics().since(&l0),
            });
        }
        Ok(PipelineReport { mode, stages, link: idaa.link().metrics().since(&link0) })
    }

    /// Derive the stage output's DDL column list from the SELECT's plan.
    fn output_ddl(&self, idaa: &Idaa, stage: &Stage) -> Result<String> {
        let Statement::Query(q) = parse_statement(&stage.select_sql)? else {
            return Err(Error::Parse(format!(
                "stage {} must be a SELECT statement",
                stage.output
            )));
        };
        let plan = plan_query(&q, idaa.host())?;
        let cols: Vec<String> = plan
            .cols()
            .iter()
            .map(|c| format!("{} {}", c.name, c.data_type))
            .collect();
        Ok(cols.join(", "))
    }

    fn run_stage_aot(&self, idaa: &Idaa, session: &mut Session, stage: &Stage) -> Result<usize> {
        let ddl = self.output_ddl(idaa, stage)?;
        idaa.execute(
            session,
            &format!("CREATE TABLE {} ({ddl}) IN ACCELERATOR", stage.output),
        )?;
        let out = idaa.execute(
            session,
            &format!("INSERT INTO {} {}", stage.output, stage.select_sql),
        )?;
        Ok(out.count())
    }

    fn run_stage_db2(&self, idaa: &Idaa, session: &mut Session, stage: &Stage) -> Result<usize> {
        let ddl = self.output_ddl(idaa, stage)?;
        // 1. Materialize the stage result in DB2 (result rows cross the
        //    link when the SELECT was offloaded).
        idaa.execute(session, &format!("CREATE TABLE {} ({ddl})", stage.output))?;
        let out = idaa.execute(
            session,
            &format!("INSERT INTO {} {}", stage.output, stage.select_sql),
        )?;
        // 2. Transfer the materialized stage back to the accelerator so
        //    the next stage can run there (ADD + LOAD round trip).
        idaa.execute(session, &format!("CALL SYSPROC.ACCEL_ADD_TABLES('{}')", stage.output))?;
        idaa.execute(session, &format!("CALL SYSPROC.ACCEL_LOAD_TABLES('{}')", stage.output))?;
        Ok(out.count())
    }

    /// Drop every stage output (cleanup between experiment repetitions).
    pub fn drop_outputs(&self, idaa: &Idaa, session: &mut Session) -> Result<()> {
        for stage in self.stages.iter().rev() {
            let _ = idaa.execute(session, &format!("DROP TABLE {}", stage.output));
        }
        Ok(())
    }
}

/// Fetch a stage output for inspection.
pub fn fetch(idaa: &Idaa, session: &mut Session, table: &str) -> Result<Rows> {
    match idaa.execute(session, &format!("SELECT * FROM {table}"))?.payload {
        Payload::Rows(r) => Ok(r),
        _ => Err(Error::internal("SELECT produced no rows payload")),
    }
}

/// The base tables a pipeline references that are *not* produced by one of
/// its own stages (useful to pre-accelerate them).
pub fn external_inputs(pipeline: &Pipeline) -> Result<Vec<ObjectName>> {
    let mut produced: Vec<String> = Vec::new();
    let mut inputs = Vec::new();
    for stage in &pipeline.stages {
        let Statement::Query(q) = parse_statement(&stage.select_sql)? else {
            return Err(Error::Parse("stage must be a SELECT".into()));
        };
        collect_tables(&q, &mut |t: &ObjectName| {
            if !produced.contains(&t.name) && !inputs.contains(t) {
                inputs.push(t.clone());
            }
        });
        produced.push(idaa_common::ident::normalize(&stage.output));
    }
    Ok(inputs)
}

fn collect_tables(q: &idaa_sql::ast::Query, f: &mut impl FnMut(&ObjectName)) {
    fn walk_ref(tr: &idaa_sql::ast::TableRef, f: &mut impl FnMut(&ObjectName)) {
        match tr {
            idaa_sql::ast::TableRef::Table { name, .. } => f(name),
            idaa_sql::ast::TableRef::Subquery { query, .. } => collect_tables(query, f),
            idaa_sql::ast::TableRef::Join { left, right, .. } => {
                walk_ref(left, f);
                walk_ref(right, f);
            }
        }
    }
    if let Some(from) = &q.from {
        walk_ref(from, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idaa_host::SYSADM;

    fn setup() -> (Idaa, Session) {
        let idaa = Idaa::default();
        let mut s = idaa.session(SYSADM);
        idaa.execute(&mut s, "CREATE TABLE BASE (ID INT NOT NULL, GRP VARCHAR(4), V DOUBLE)")
            .unwrap();
        let vals: Vec<String> = (0..200)
            .map(|i| format!("({i}, '{}', {}.0E0)", if i % 4 == 0 { "A" } else { "B" }, i))
            .collect();
        idaa.execute(&mut s, &format!("INSERT INTO BASE VALUES {}", vals.join(", ")))
            .unwrap();
        idaa.execute(&mut s, "CALL ACCEL_ADD_TABLES('BASE')").unwrap();
        idaa.execute(&mut s, "CALL ACCEL_LOAD_TABLES('BASE')").unwrap();
        idaa.execute(&mut s, "SET CURRENT QUERY ACCELERATION = ELIGIBLE").unwrap();
        (idaa, s)
    }

    fn two_stage() -> Pipeline {
        Pipeline::new()
            .stage("S1", "SELECT id, grp, v * 2 AS V2 FROM base WHERE v >= 100")
            .stage("S2", "SELECT grp, SUM(v2) AS TOTAL FROM s1 GROUP BY grp")
    }

    #[test]
    fn both_modes_produce_identical_results() {
        let (idaa, mut s) = setup();
        let p = two_stage();
        let aot = p.run(&idaa, &mut s, PipelineMode::AcceleratorOnly).unwrap();
        let mut aot_rows = fetch(&idaa, &mut s, "S2").unwrap().rows;
        p.drop_outputs(&idaa, &mut s).unwrap();
        let db2 = p.run(&idaa, &mut s, PipelineMode::MaterializeInDb2).unwrap();
        let mut db2_rows = fetch(&idaa, &mut s, "S2").unwrap().rows;
        aot_rows.sort_by(|a, b| a[0].cmp_total(&b[0]));
        db2_rows.sort_by(|a, b| a[0].cmp_total(&b[0]));
        assert_eq!(aot_rows, db2_rows);
        assert_eq!(aot.stages.len(), 2);
        assert_eq!(db2.stages.len(), 2);
    }

    #[test]
    fn aot_mode_moves_fewer_bytes() {
        let (idaa, mut s) = setup();
        let p = two_stage();
        let aot = p.run(&idaa, &mut s, PipelineMode::AcceleratorOnly).unwrap();
        p.drop_outputs(&idaa, &mut s).unwrap();
        let db2 = p.run(&idaa, &mut s, PipelineMode::MaterializeInDb2).unwrap();
        assert!(
            db2.bytes_moved() > 3 * aot.bytes_moved(),
            "baseline {} bytes should dwarf AOT {} bytes",
            db2.bytes_moved(),
            aot.bytes_moved()
        );
    }

    #[test]
    fn stage_counts_rows() {
        let (idaa, mut s) = setup();
        let p = two_stage();
        let rep = p.run(&idaa, &mut s, PipelineMode::AcceleratorOnly).unwrap();
        assert_eq!(rep.stages[0].rows, 100);
        assert_eq!(rep.stages[1].rows, 2);
    }

    #[test]
    fn non_select_stage_rejected() {
        let (idaa, mut s) = setup();
        let p = Pipeline::new().stage("X", "DELETE FROM base");
        assert!(p.run(&idaa, &mut s, PipelineMode::AcceleratorOnly).is_err());
    }

    #[test]
    fn external_inputs_excludes_stage_outputs() {
        let p = two_stage();
        let inputs = external_inputs(&p).unwrap();
        assert_eq!(inputs, vec![ObjectName::bare("BASE")]);
    }
}
