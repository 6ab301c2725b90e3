//! Stored procedures: the IDAA system procedures (`SYSPROC.ACCEL_*`) and
//! the registry through which the analytics framework deploys arbitrary
//! in-database operations (paper §3).
//!
//! Governance contract: dispatch authorizes the caller's `EXECUTE`
//! privilege on the procedure object in the *DB2* privilege catalog, all
//! a system procedure needs for its arguments. A body that reads or writes
//! tables (the analytics framework's) authorizes them through
//! [`Idaa::authorize`] and reaches rows only with the tokens it returns —
//! the accelerator itself never authorizes anything.

use crate::idaa::Idaa;
use crate::session::Session;
use idaa_common::{ColumnDef, DataType, Error, ObjectName, Result, Rows, Schema, Value};
use idaa_host::AccelStatus;

/// A stored procedure callable via `CALL name(args…)`.
pub trait Procedure: Send + Sync {
    /// Fully-qualified procedure name.
    fn name(&self) -> ObjectName;
    /// Run the procedure. Dispatch authorized EXECUTE; the body authorizes
    /// the tables it uses through [`Idaa::authorize`].
    fn execute(&self, idaa: &Idaa, session: &mut Session, args: &[Value]) -> Result<Rows>;
}

/// One-row, one-column result helper ("message style" procedure output).
pub fn message_result(msg: impl Into<String>) -> Rows {
    Rows::new(
        Schema::new_unchecked(vec![ColumnDef::new("MESSAGE", DataType::Varchar(255))]),
        vec![vec![Value::Varchar(msg.into())]],
    )
}

/// Extract the *table name* argument: system procedures accept either
/// `(table)` or `(accelerator, table)` — we model a single accelerator, so
/// a leading accelerator name is accepted and ignored.
fn table_arg(args: &[Value]) -> Result<ObjectName> {
    let name = match args {
        [t] => t.as_str()?,
        [_accel, t] => t.as_str()?,
        _ => {
            return Err(Error::TypeMismatch(
                "expected (table) or (accelerator, table) arguments".into(),
            ))
        }
    };
    Ok(ObjectName::from(name))
}

/// `SYSPROC.ACCEL_ADD_TABLES` — define a DB2 table on the accelerator
/// (schema only; no data yet).
pub struct AccelAddTables;

impl Procedure for AccelAddTables {
    fn name(&self) -> ObjectName {
        ObjectName::qualified("SYSPROC", "ACCEL_ADD_TABLES")
    }

    fn execute(&self, idaa: &Idaa, _session: &mut Session, args: &[Value]) -> Result<Rows> {
        let table = table_arg(args)?;
        let meta = idaa.host().table_meta(&table)?;
        if meta.kind != idaa_host::TableKind::Regular {
            return Err(Error::InvalidAcceleratorUse(format!(
                "{table} is accelerator-only; it is already on the accelerator"
            )));
        }
        idaa.accel_table_add(&meta)?;
        idaa.host().set_accel_status(&meta.name, AccelStatus::Added)?;
        Ok(message_result(format!("table {} added to accelerator", meta.name)))
    }
}

/// `SYSPROC.ACCEL_LOAD_TABLES` — snapshot-load a previously added table
/// and switch on incremental replication for it.
pub struct AccelLoadTables;

impl Procedure for AccelLoadTables {
    fn name(&self) -> ObjectName {
        ObjectName::qualified("SYSPROC", "ACCEL_LOAD_TABLES")
    }

    fn execute(&self, idaa: &Idaa, _session: &mut Session, args: &[Value]) -> Result<Rows> {
        let table = table_arg(args)?;
        let n = idaa.load_accelerated_table(&table)?;
        Ok(message_result(format!("loaded {n} rows into accelerator table {table}")))
    }
}

/// `SYSPROC.ACCEL_REMOVE_TABLES` — undefine a table from the accelerator.
pub struct AccelRemoveTables;

impl Procedure for AccelRemoveTables {
    fn name(&self) -> ObjectName {
        ObjectName::qualified("SYSPROC", "ACCEL_REMOVE_TABLES")
    }

    fn execute(&self, idaa: &Idaa, _session: &mut Session, args: &[Value]) -> Result<Rows> {
        let table = table_arg(args)?;
        let meta = idaa.host().table_meta(&table)?;
        idaa.accel_table_remove(&meta)?;
        idaa.host().set_accel_status(&meta.name, AccelStatus::NotAccelerated)?;
        Ok(message_result(format!("table {} removed from accelerator", meta.name)))
    }
}

/// `SYSPROC.ACCEL_GROOM_TABLES` — reclaim dead row versions on the
/// accelerator (Netezza `GROOM`).
pub struct AccelGroomTables;

impl Procedure for AccelGroomTables {
    fn name(&self) -> ObjectName {
        ObjectName::qualified("SYSPROC", "ACCEL_GROOM_TABLES")
    }

    fn execute(&self, idaa: &Idaa, _session: &mut Session, args: &[Value]) -> Result<Rows> {
        let n = if args.is_empty() {
            idaa.accel_groom_all()
        } else {
            let table = table_arg(args)?;
            idaa.accel_groom(&table.resolve(idaa.default_schema()))?
        };
        Ok(message_result(format!("groomed {n} row versions")))
    }
}

/// `SYSPROC.ACCEL_APPLY_REPLICATION` — manually drain the CDC log to the
/// accelerator (normally automatic at commit when `auto_replicate` is on).
pub struct AccelApplyReplication;

impl Procedure for AccelApplyReplication {
    fn name(&self) -> ObjectName {
        ObjectName::qualified("SYSPROC", "ACCEL_APPLY_REPLICATION")
    }

    fn execute(&self, idaa: &Idaa, _session: &mut Session, _args: &[Value]) -> Result<Rows> {
        let n = idaa.replicate_now()?;
        Ok(message_result(format!("applied {n} change records")))
    }
}

/// The set of built-in system procedures.
pub fn system_procedures() -> Vec<Box<dyn Procedure>> {
    vec![
        Box::new(AccelAddTables),
        Box::new(AccelLoadTables),
        Box::new(AccelRemoveTables),
        Box::new(AccelGroomTables),
        Box::new(AccelApplyReplication),
    ]
}
