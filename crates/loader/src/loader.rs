//! The IDAA Loader facade: load a record source into a DB2 table or
//! *directly* into an accelerator(-only) table — the paper's Fig. 1 dual
//! ingestion paths.
//!
//! * **DB2 path**: rows are inserted through the host engine under normal
//!   transactions; if the table is accelerated, incremental replication
//!   ships the rows to the accelerator *again* (double movement — exactly
//!   what direct load avoids).
//! * **Direct path**: rows cross the link once, straight into the
//!   accelerator table (AOT or replicated table being initially filled),
//!   as one accelerator transaction. Where the rows go is `idaa-core`'s
//!   placement rule ([`Idaa::load_direct`]): each batch splits by shard
//!   and crosses the link of every owner of its shard.
//!
//! Experiment E5 compares the two paths.

use crate::pipeline::{run_pipeline, LoadConfig, LoadReport};
use crate::source::RecordSource;
use idaa_common::trace::Trace;
use idaa_common::{Error, ObjectName, Result};
use idaa_core::Idaa;
use idaa_host::{Granted, TableKind};
use idaa_sql::Privilege;

/// Which path the loader takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadTarget {
    /// Through DB2 (only valid for regular tables).
    Db2,
    /// Directly into the accelerator (valid for AOTs and for regular
    /// tables that were added to the accelerator).
    AcceleratorDirect,
    /// Pick automatically: AOTs load directly, regular tables through DB2.
    Auto,
}

/// The loader.
pub struct Loader {
    pub config: LoadConfig,
    /// Rows per commit on the DB2 path.
    pub commit_every: usize,
    /// Authorization id performing the load.
    pub user: String,
}

impl Loader {
    /// Loader for `user` with default pipeline settings.
    pub fn new(user: &str) -> Loader {
        Loader { config: LoadConfig::default(), commit_every: 10_000, user: user.to_string() }
    }

    /// Load `source` into `table` via `target` path.
    pub fn load(
        &self,
        idaa: &Idaa,
        source: Box<dyn RecordSource>,
        table: &ObjectName,
        target: LoadTarget,
    ) -> Result<LoadReport> {
        let meta = idaa.host().table_meta(table)?;
        // Governance: loading is an INSERT, authorized on DB2 once per load
        // whatever the path; every batch writes under the one token.
        let insert = [(&meta.name, Privilege::Insert)];
        let grants = idaa.authorize(&self.user, &Trace::disabled(), insert)?;
        // `Auto` loads an AOT directly and a regular table through DB2.
        match (target, meta.kind) {
            (LoadTarget::Db2, TableKind::AcceleratorOnly) => Err(Error::InvalidAcceleratorUse(
                format!("{} is accelerator-only; use the direct load path", meta.name),
            )),
            (LoadTarget::Db2 | LoadTarget::Auto, TableKind::Regular) => {
                self.load_via_db2(idaa, source, &grants[0], &meta.schema)
            }
            (LoadTarget::AcceleratorDirect | LoadTarget::Auto, _) => {
                idaa.load_direct(&grants[0], |write| {
                    run_pipeline(source, &meta.schema, &self.config, write)
                })
            }
        }
    }

    fn load_via_db2(
        &self,
        idaa: &Idaa,
        source: Box<dyn RecordSource>,
        grant: &Granted,
        schema: &idaa_common::Schema,
    ) -> Result<LoadReport> {
        let host = idaa.host();
        let mut txn = host.begin();
        let mut since_commit = 0usize;
        let report = run_pipeline(source, schema, &self.config, |rows| {
            since_commit += rows.len();
            host.insert_rows(grant, txn, rows)?;
            if since_commit >= self.commit_every {
                host.commit(txn);
                txn = host.begin();
                since_commit = 0;
            }
            Ok(())
        });
        match report {
            Ok(r) => {
                host.commit(txn);
                // Committed rows flow to the accelerator via replication
                // when the table is accelerated.
                idaa.replicate_now()?;
                Ok(r)
            }
            Err(e) => {
                host.rollback(txn)?;
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{CsvSource, EventSource, VecSource};
    use idaa_common::Value;
    use idaa_core::Session;

    fn system() -> (Idaa, Session) {
        let idaa = Idaa::default();
        let s = idaa.session(idaa_host::SYSADM);
        (idaa, s)
    }

    #[test]
    fn csv_into_db2_table() {
        let (idaa, mut s) = system();
        idaa.execute(&mut s, "CREATE TABLE CUST (ID INT NOT NULL, NAME VARCHAR(20), SCORE DOUBLE)")
            .unwrap();
        let loader = Loader::new(idaa_host::SYSADM);
        let csv = "1,ann,0.5\n2,bob,0.7\n3,carol,\n";
        let report = loader
            .load(
                &idaa,
                Box::new(CsvSource::new(csv)),
                &ObjectName::bare("CUST"),
                LoadTarget::Auto,
            )
            .unwrap();
        assert_eq!(report.rows_loaded, 3);
        let r = idaa.query(&mut s, "SELECT COUNT(*) FROM cust").unwrap();
        assert_eq!(r.scalar().unwrap(), &Value::BigInt(3));
        let r = idaa.query(&mut s, "SELECT score FROM cust WHERE id = 3").unwrap();
        assert!(r.scalar().unwrap().is_null());
    }

    #[test]
    fn direct_load_into_aot_skips_db2() {
        let (idaa, mut s) = system();
        idaa.execute(
            &mut s,
            "CREATE TABLE EVENTS (EVENT_ID INT, USER_ID INT, TOPIC VARCHAR(10), \
             SENTIMENT DOUBLE, POSTED_AT TIMESTAMP) IN ACCELERATOR",
        )
        .unwrap();
        let loader = Loader::new(idaa_host::SYSADM);
        let before = idaa.link().metrics();
        let report = loader
            .load(
                &idaa,
                Box::new(EventSource::new(500, 42)),
                &ObjectName::bare("EVENTS"),
                LoadTarget::Auto,
            )
            .unwrap();
        assert_eq!(report.rows_loaded, 500);
        let moved = idaa.link().metrics().since(&before);
        assert!(moved.bytes_to_accel > 0);
        let r = idaa.query(&mut s, "SELECT COUNT(*) FROM events").unwrap();
        assert_eq!(r.scalar().unwrap(), &Value::BigInt(500));
        assert_eq!(idaa.host().scan_count(&ObjectName::bare("EVENTS")), 0);
    }

    #[test]
    fn db2_path_rejected_for_aot() {
        let (idaa, mut s) = system();
        idaa.execute(&mut s, "CREATE TABLE A (X INT) IN ACCELERATOR").unwrap();
        let loader = Loader::new(idaa_host::SYSADM);
        let r = loader.load(
            &idaa,
            Box::new(VecSource::new(vec![vec!["1".into()]])),
            &ObjectName::bare("A"),
            LoadTarget::Db2,
        );
        assert!(matches!(r, Err(Error::InvalidAcceleratorUse(_))));
    }

    #[test]
    fn direct_path_requires_accelerator_table() {
        let (idaa, mut s) = system();
        idaa.execute(&mut s, "CREATE TABLE R (X INT)").unwrap();
        let loader = Loader::new(idaa_host::SYSADM);
        let r = loader.load(
            &idaa,
            Box::new(VecSource::new(vec![vec!["1".into()]])),
            &ObjectName::bare("R"),
            LoadTarget::AcceleratorDirect,
        );
        assert!(matches!(r, Err(Error::UndefinedObject(_))));
    }

    #[test]
    fn load_requires_insert_privilege() {
        let (idaa, mut s) = system();
        idaa.execute(&mut s, "CREATE TABLE P (X INT)").unwrap();
        let loader = Loader::new("BOB");
        let r = loader.load(
            &idaa,
            Box::new(VecSource::new(vec![vec!["1".into()]])),
            &ObjectName::bare("P"),
            LoadTarget::Auto,
        );
        assert!(matches!(r, Err(Error::Privilege(_))));
        idaa.execute(&mut s, "GRANT INSERT ON P TO BOB").unwrap();
        loader
            .load(
                &idaa,
                Box::new(VecSource::new(vec![vec!["1".into()]])),
                &ObjectName::bare("P"),
                LoadTarget::Auto,
            )
            .unwrap();
    }

    #[test]
    fn failed_direct_load_leaves_nothing_visible() {
        let (idaa, mut s) = system();
        idaa.execute(&mut s, "CREATE TABLE B (X INT) IN ACCELERATOR").unwrap();
        let mut loader = Loader::new(idaa_host::SYSADM);
        loader.config.rejects = crate::pipeline::RejectPolicy::FailFast;
        loader.config.batch_size = 1;
        let r = loader.load(
            &idaa,
            Box::new(VecSource::new(vec![
                vec!["1".into()],
                vec!["oops".into()],
                vec!["3".into()],
            ])),
            &ObjectName::bare("B"),
            LoadTarget::Auto,
        );
        assert!(r.is_err());
        let rows = idaa.query(&mut s, "SELECT COUNT(*) FROM b").unwrap();
        assert_eq!(rows.scalar().unwrap(), &Value::BigInt(0));
    }

    #[test]
    fn db2_load_replicates_to_accelerated_table() {
        let (idaa, mut s) = system();
        idaa.execute(&mut s, "CREATE TABLE T (X INT)").unwrap();
        idaa.execute(&mut s, "CALL ACCEL_ADD_TABLES('T')").unwrap();
        idaa.execute(&mut s, "CALL ACCEL_LOAD_TABLES('T')").unwrap();
        let loader = Loader::new(idaa_host::SYSADM);
        loader
            .load(
                &idaa,
                Box::new(VecSource::new((0..50).map(|i| vec![i.to_string()]).collect())),
                &ObjectName::bare("T"),
                LoadTarget::Db2,
            )
            .unwrap();
        idaa.execute(&mut s, "SET CURRENT QUERY ACCELERATION = ELIGIBLE").unwrap();
        let out = idaa.execute(&mut s, "SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(out.route, idaa_core::Route::Accelerator);
        assert_eq!(out.rows().unwrap().scalar().unwrap(), &Value::BigInt(50));
    }

    #[test]
    fn commit_every_batches_transactions() {
        let (idaa, mut s) = system();
        idaa.execute(&mut s, "CREATE TABLE CE (X INT)").unwrap();
        let mut loader = Loader::new(idaa_host::SYSADM);
        loader.commit_every = 10;
        loader.config.batch_size = 5;
        loader
            .load(
                &idaa,
                Box::new(VecSource::new((0..37).map(|i| vec![i.to_string()]).collect())),
                &ObjectName::bare("CE"),
                LoadTarget::Db2,
            )
            .unwrap();
        let r = idaa.query(&mut s, "SELECT COUNT(*) FROM ce").unwrap();
        assert_eq!(r.scalar().unwrap(), &Value::BigInt(37));
    }
}
