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
use idaa_host::{AccelStatus, TableKind};

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
/// `(table)` or `(accelerator, table)`. A table lives on the nodes DB2's
/// catalog places it on, whatever accelerator the call names, so a leading
/// accelerator name is accepted and ignored.
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

/// `SYSPROC.ACCEL_ADD_TABLES` — define a DB2 table on every accelerator
/// node (schema only; no data yet).
pub struct AccelAddTables;

impl Procedure for AccelAddTables {
    fn name(&self) -> ObjectName {
        ObjectName::qualified("SYSPROC", "ACCEL_ADD_TABLES")
    }

    fn execute(&self, idaa: &Idaa, session: &mut Session, args: &[Value]) -> Result<Rows> {
        let table = table_arg(args)?;
        let meta = idaa.host().table_meta(&table)?;
        if meta.kind != TableKind::Regular {
            return Err(Error::InvalidAcceleratorUse(format!(
                "{table} is accelerator-only; it is already on the accelerator"
            )));
        }
        let ddl = format!("ADD TABLE {}", meta.name);
        let catalog = || idaa.host().set_accel_status(&meta.name, AccelStatus::Added);
        idaa.on_placement(&session.trace, (&meta.name, meta.kind), catalog, |node, local| {
            idaa.ship_ddl_on(node, &ddl)?;
            node.engine.create_table(local, meta.schema.clone(), &meta.distribute_by)
        })?;
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

    fn execute(&self, idaa: &Idaa, session: &mut Session, args: &[Value]) -> Result<Rows> {
        let table = table_arg(args)?;
        let n = idaa.load_accelerated_table(&session.trace, &table)?;
        Ok(message_result(format!("loaded {n} rows into accelerator table {table}")))
    }
}

/// `SYSPROC.ACCEL_REMOVE_TABLES` — undefine a table from the accelerator.
pub struct AccelRemoveTables;

impl Procedure for AccelRemoveTables {
    fn name(&self) -> ObjectName {
        ObjectName::qualified("SYSPROC", "ACCEL_REMOVE_TABLES")
    }

    fn execute(&self, idaa: &Idaa, session: &mut Session, args: &[Value]) -> Result<Rows> {
        let table = table_arg(args)?;
        let meta = idaa.host().table_meta(&table)?;
        if meta.kind != TableKind::Regular || meta.accel_status == AccelStatus::NotAccelerated {
            return Err(Error::UndefinedObject(format!(
                "table {table} has not been added to the accelerator (ACCEL_ADD_TABLES)"
            )));
        }
        let ddl = format!("REMOVE TABLE {}", meta.name);
        let catalog = || idaa.host().set_accel_status(&meta.name, AccelStatus::NotAccelerated);
        idaa.on_placement(&session.trace, (&meta.name, meta.kind), catalog, |node, local| {
            idaa.ship_ddl_on(node, &ddl)?;
            node.engine.drop_table(local)
        })?;
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

    fn execute(&self, idaa: &Idaa, session: &mut Session, args: &[Value]) -> Result<Rows> {
        let table = (!args.is_empty()).then(|| table_arg(args)).transpose()?;
        let table = table.map(|t| t.resolve(idaa.default_schema()));
        let n = idaa.accel_groom(&session.trace, table.as_ref())?;
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
