//! The host engine facade: DB2-for-z/OS stand-in.
//!
//! Glues catalog, heap storage, indexes, the lock manager, transactions,
//! change capture and the row executor into one object with a
//! statement-level API. The federation layer (`idaa-core`) sits on top and
//! decides which statements ever reach this engine versus the accelerator.

use crate::catalog::{AccelStatus, Catalog, TableId, TableKind, TableMeta};
use crate::index::BTreeIndex;
use crate::lock::{LockManager, LockMode};
use crate::privilege::{Granted, PrivilegeCatalog};
use crate::storage::{HeapTable, Rid};
use crate::txn::{ChangeOp, Lsn, TxnId, TxnManager, UndoRecord};
use idaa_common::{Error, ObjectName, Result, Row, Rows, Schema, Value};
use idaa_sql::ast::{BinaryOp, Expr, Query};
use idaa_sql::eval::{bind, eval, eval_predicate, FlatResolver};
use idaa_sql::exec::{apply, conjuncts, execute_plan, execute_plan_profiled, flip, RowSource};
use idaa_sql::plan::{is_pseudo_table, plan_query, Plan, PlanCol, PlanProfile, SchemaProvider};
use idaa_sql::Privilege;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Storage attached to one regular table.
struct TableStore {
    heap: HeapTable,
    indexes: RwLock<Vec<Arc<BTreeIndex>>>,
}

/// Simple operation counters (exposed to the bench harness).
#[derive(Debug, Default)]
pub struct HostStats {
    pub rows_scanned: AtomicU64,
    pub rows_inserted: AtomicU64,
    pub rows_deleted: AtomicU64,
    pub rows_updated: AtomicU64,
    pub index_lookups: AtomicU64,
    pub index_range_scans: AtomicU64,
    pub statements: AtomicU64,
}

/// The DB2-style host engine.
pub struct HostEngine {
    catalog: RwLock<Catalog>,
    stores: RwLock<HashMap<TableId, Arc<TableStore>>>,
    pub txns: TxnManager,
    pub locks: LockManager,
    pub privileges: RwLock<PrivilegeCatalog>,
    pub stats: HostStats,
    default_schema: String,
}

/// The authorization id that administers the system.
pub const SYSADM: &str = "SYSADM";

impl Default for HostEngine {
    fn default() -> Self {
        Self::new("APP")
    }
}

impl HostEngine {
    /// Engine with the given default schema and a SYSADM administrator.
    pub fn new(default_schema: &str) -> HostEngine {
        HostEngine {
            catalog: RwLock::new(Catalog::default()),
            stores: RwLock::new(HashMap::new()),
            txns: TxnManager::default(),
            locks: LockManager::default(),
            privileges: RwLock::new(PrivilegeCatalog::with_admin(SYSADM)),
            stats: HostStats::default(),
            default_schema: default_schema.to_string(),
        }
    }

    /// Resolve a possibly-unqualified name in the default schema.
    pub fn resolve(&self, name: &ObjectName) -> ObjectName {
        name.resolve(&self.default_schema)
    }

    // -- transactions --------------------------------------------------------

    /// Begin a transaction.
    pub fn begin(&self) -> TxnId {
        self.txns.begin()
    }

    /// Commit: publish CDC records, release all locks, return the LSN.
    pub fn commit(&self, txn: TxnId) -> Lsn {
        self.commit_with(txn, |_| ())
    }

    /// [`commit`](Self::commit), running `decided` ([`TxnManager::commit`]).
    pub fn commit_with(&self, txn: TxnId, decided: impl FnOnce(Lsn)) -> Lsn {
        let lsn = self.txns.commit(txn, decided);
        self.locks.release_all(txn);
        lsn
    }

    /// Roll back: apply the undo log in reverse, then release locks.
    pub fn rollback(&self, txn: TxnId) -> Result<()> {
        let undo = self.txns.rollback(txn);
        for rec in undo {
            match rec {
                UndoRecord::Insert { table, rid, row } => {
                    let store = self.store(&table)?;
                    store.heap.delete(rid)?;
                    for idx in store.indexes.read().iter() {
                        idx.remove(&row, rid);
                    }
                }
                UndoRecord::Delete { table, rid, row } => {
                    let store = self.store(&table)?;
                    store.heap.restore(rid, row.clone())?;
                    for idx in store.indexes.read().iter() {
                        idx.insert(&row, rid);
                    }
                }
                UndoRecord::Update { table, rid, old, new } => {
                    let store = self.store(&table)?;
                    store.heap.update(rid, old.clone())?;
                    for idx in store.indexes.read().iter() {
                        idx.remove(&new, rid);
                        idx.insert(&old, rid);
                    }
                }
            }
        }
        self.locks.release_all(txn);
        Ok(())
    }

    // -- DDL ------------------------------------------------------------------

    /// `CREATE TABLE`. For `kind == AcceleratorOnly` only the catalog proxy
    /// is created — data placement is the federation layer's job.
    pub fn create_table(
        &self,
        user: &str,
        name: &ObjectName,
        schema: Schema,
        kind: TableKind,
        distribute_by: Vec<String>,
    ) -> Result<TableId> {
        let name = self.resolve(name);
        let id = self.catalog.write().create_table(
            name.clone(),
            schema.clone(),
            kind,
            distribute_by,
            user,
        )?;
        if kind == TableKind::Regular {
            self.stores.write().insert(
                id,
                Arc::new(TableStore { heap: HeapTable::new(&schema), indexes: RwLock::new(vec![]) }),
            );
        }
        self.privileges.write().set_owner(name, user);
        Ok(id)
    }

    /// `DROP TABLE` of `grant`'s table; DROP needs control, modeled as ALL.
    pub fn drop_table(&self, grant: &Granted) -> Result<TableMeta> {
        let name = self.resolve(grant.object_for(Privilege::All)?);
        let meta = self.catalog.write().drop_table(&name)?;
        self.stores.write().remove(&meta.id);
        self.privileges.write().drop_object(&name);
        Ok(meta)
    }

    /// `CREATE INDEX` on `grant`'s table, which needs ALL (backfills rows).
    pub fn create_index(
        &self,
        grant: &Granted,
        index_name: &ObjectName,
        columns: Vec<String>,
    ) -> Result<()> {
        let table = self.resolve(grant.object_for(Privilege::All)?);
        self.catalog.write().create_index(index_name.clone(), &table, columns.clone())?;
        let meta = self.table_meta(&table)?;
        let ordinals: Vec<usize> = columns
            .iter()
            .map(|c| meta.schema.index_of(c))
            .collect::<Result<_>>()?;
        let idx = Arc::new(BTreeIndex::new(index_name.to_string(), ordinals));
        let store = self.store(&table)?;
        store.heap.for_each(|rid, row| idx.insert(row, rid));
        store.indexes.write().push(idx);
        Ok(())
    }

    // -- metadata access ------------------------------------------------------

    /// Catalog entry for `name`.
    pub fn table_meta(&self, name: &ObjectName) -> Result<TableMeta> {
        let name = self.resolve(name);
        self.catalog.read().table(&name).cloned()
    }

    /// Update the acceleration status of a regular table.
    pub fn set_accel_status(&self, name: &ObjectName, status: AccelStatus) -> Result<()> {
        let name = self.resolve(name);
        self.catalog.write().table_mut(&name)?.accel_status = status;
        Ok(())
    }

    /// Names of all tables in the catalog.
    pub fn table_names(&self) -> Vec<ObjectName> {
        self.catalog.read().all_tables().map(|t| t.name.clone()).collect()
    }

    fn store(&self, name: &ObjectName) -> Result<Arc<TableStore>> {
        let name = self.resolve(name);
        let meta = self.catalog.read().table(&name)?.clone();
        if meta.kind == TableKind::AcceleratorOnly {
            return Err(Error::InvalidAcceleratorUse(format!(
                "table {name} is accelerator-only; the host holds no data for it"
            )));
        }
        self.stores
            .read()
            .get(&meta.id)
            .cloned()
            .ok_or_else(|| Error::internal(format!("missing store for {name}")))
    }

    // -- DML -------------------------------------------------------------------

    /// Insert fully-materialized rows (after `check_row` coercion) into the
    /// regular table `grant` names. Returns the number of rows inserted.
    pub fn insert_rows(&self, grant: &Granted, txn: TxnId, rows: Vec<Row>) -> Result<usize> {
        let table = self.resolve(grant.object_for(Privilege::Insert)?);
        let meta = self.table_meta(&table)?;
        self.locks.lock(txn, &table, LockMode::Exclusive)?;
        let store = self.store(&table)?;
        let mut n = 0;
        for raw in rows {
            let row = meta.schema.check_row(&raw)?;
            let rid = store.heap.insert(row.clone());
            for idx in store.indexes.read().iter() {
                idx.insert(&row, rid);
            }
            self.txns.record(
                txn,
                UndoRecord::Insert { table: table.clone(), rid, row: row.clone() },
                Some((table.clone(), ChangeOp::Insert(row))),
            );
            n += 1;
        }
        self.stats.rows_inserted.fetch_add(n as u64, Ordering::Relaxed);
        self.stats.statements.fetch_add(1, Ordering::Relaxed);
        Ok(n)
    }

    /// `DELETE FROM table [WHERE filter]` on `grant`'s table; returns rows deleted.
    pub fn delete_where(
        &self,
        grant: &Granted,
        txn: TxnId,
        filter: Option<&Expr>,
    ) -> Result<usize> {
        let table = self.resolve(grant.object_for(Privilege::Delete)?);
        let meta = self.table_meta(&table)?;
        self.locks.lock(txn, &table, LockMode::Exclusive)?;
        let store = self.store(&table)?;
        let victims = self.matching_rids(&store, &meta, filter)?;
        for (rid, row) in &victims {
            store.heap.delete(*rid)?;
            for idx in store.indexes.read().iter() {
                idx.remove(row, *rid);
            }
            self.txns.record(
                txn,
                UndoRecord::Delete { table: table.clone(), rid: *rid, row: row.clone() },
                Some((table.clone(), ChangeOp::Delete(row.clone()))),
            );
        }
        self.stats.rows_deleted.fetch_add(victims.len() as u64, Ordering::Relaxed);
        self.stats.statements.fetch_add(1, Ordering::Relaxed);
        Ok(victims.len())
    }

    /// `UPDATE table SET assignments [WHERE filter]` on `grant`'s table;
    /// returns rows updated.
    pub fn update_where(
        &self,
        grant: &Granted,
        txn: TxnId,
        assignments: &[(String, Expr)],
        filter: Option<&Expr>,
    ) -> Result<usize> {
        let table = self.resolve(grant.object_for(Privilege::Update)?);
        let meta = self.table_meta(&table)?;
        self.locks.lock(txn, &table, LockMode::Exclusive)?;
        let store = self.store(&table)?;
        let resolver = FlatResolver::from_schema(Some(&table.name), &meta.schema);
        let bound: Vec<(usize, idaa_sql::eval::BoundExpr)> = assignments
            .iter()
            .map(|(col, e)| Ok((meta.schema.index_of(col)?, bind(e, &resolver)?)))
            .collect::<Result<_>>()?;
        let victims = self.matching_rids(&store, &meta, filter)?;
        for (rid, old) in &victims {
            let mut new = old.clone();
            for (ordinal, expr) in &bound {
                new[*ordinal] = eval(expr, old)?;
            }
            let new = meta.schema.check_row(&new)?;
            store.heap.update(*rid, new.clone())?;
            for idx in store.indexes.read().iter() {
                idx.remove(old, *rid);
                idx.insert(&new, *rid);
            }
            self.txns.record(
                txn,
                UndoRecord::Update {
                    table: table.clone(),
                    rid: *rid,
                    old: old.clone(),
                    new: new.clone(),
                },
                Some((table.clone(), ChangeOp::Update { old: old.clone(), new })),
            );
        }
        self.stats.rows_updated.fetch_add(victims.len() as u64, Ordering::Relaxed);
        self.stats.statements.fetch_add(1, Ordering::Relaxed);
        Ok(victims.len())
    }

    fn matching_rids(
        &self,
        store: &TableStore,
        meta: &TableMeta,
        filter: Option<&Expr>,
    ) -> Result<Vec<(Rid, Row)>> {
        self.stats.rows_scanned.fetch_add(store.heap.len() as u64, Ordering::Relaxed);
        let bound = match filter {
            None => None,
            Some(f) => {
                let resolver = FlatResolver::from_schema(Some(&meta.name.name), &meta.schema);
                Some(bind(f, &resolver)?)
            }
        };
        // Evaluate in place; only victims are cloned out of the heap.
        let mut victims = Vec::new();
        let mut failed = None;
        store.heap.for_each(|rid, row| {
            if failed.is_some() {
                return;
            }
            match bound.as_ref().map_or(Ok(true), |b| eval_predicate(b, row)) {
                Ok(true) => victims.push((rid, row.clone())),
                Ok(false) => {}
                Err(e) => failed = Some(e),
            }
        });
        match failed {
            Some(e) => Err(e),
            None => Ok(victims),
        }
    }

    // -- queries ---------------------------------------------------------------

    /// DB2's own SQL entry for a `SELECT`: plan, authorize SELECT on every
    /// table the plan reads, then [`HostEngine::run_plan`].
    pub fn query(&self, user: &str, txn: TxnId, query: &Query) -> Result<Rows> {
        let plan = plan_query(query, self)?;
        let privs = self.privileges.read();
        let select = |t: ObjectName| privs.check(user, &self.resolve(&t), Privilege::Select);
        let grants = plan.tables().into_iter().map(select).collect::<Result<Vec<_>>>()?;
        drop(privs);
        self.run_plan(&grants, txn, &plan, None)
    }

    /// Run a planned `SELECT` under `grants`, which must hold SELECT on
    /// every table it reads: S locks (cursor stability — released at
    /// statement end), then the walk, recording per-operator row counts
    /// into `profile` when given (`EXPLAIN ANALYZE` / tracing).
    pub fn run_plan(
        &self,
        grants: &[Granted],
        txn: TxnId,
        plan: &Plan,
        profile: Option<&PlanProfile>,
    ) -> Result<Rows> {
        for t in plan.tables().iter().map(|t| self.resolve(t)) {
            if !grants.iter().any(|g| g.covers(&t, Privilege::Select)) {
                return Err(Error::internal(format!("no SELECT authorization covers {t}")));
            }
            self.locks.lock(txn, &t, LockMode::Shared)?;
        }
        let source = EngineSource { engine: self };
        let result = match profile {
            Some(profile) => execute_plan_profiled(plan, &source, profile),
            None => execute_plan(plan, &source),
        };
        self.locks.release_shared(txn);
        self.stats.statements.fetch_add(1, Ordering::Relaxed);
        result
    }

    /// Live row count of a regular table (0 for AOT proxies) — the
    /// router's cost-heuristic input, analogous to catalog statistics.
    pub fn scan_count(&self, name: &ObjectName) -> usize {
        self.store(name).map(|s| s.heap.len()).unwrap_or(0)
    }

    /// The single-column index on `column` of `table`, wherever it sits in
    /// the table's index list: the one index choice behind point and range
    /// access. A composite index serves neither.
    fn column_index(
        &self,
        table: &ObjectName,
        column: &str,
    ) -> Result<Option<(Arc<TableStore>, Arc<BTreeIndex>)>> {
        let store = self.store(table)?;
        let ordinal = self.table_meta(table)?.schema.index_of(column)?;
        let idx = store.indexes.read().iter().find(|i| i.key_columns == [ordinal]).cloned();
        Ok(idx.map(|idx| (store, idx)))
    }

    /// Whether an index serves `column = literal` on `table` — the router's
    /// indexed-point test, by the executor's own index choice.
    pub fn has_column_index(&self, table: &ObjectName, column: &str) -> bool {
        self.column_index(table, column).is_ok_and(|found| found.is_some())
    }

    /// `table`'s rows read for `txn` under a SELECT's S lock, released after
    /// the read: another transaction's uncommitted change makes it wait and
    /// fail -913, `txn`'s own are visible. The one way DB2 rows leave DB2.
    pub fn read_table(&self, txn: TxnId, table: &ObjectName) -> Result<Vec<Row>> {
        self.read_table_at(txn, table).map(|(rows, _)| rows)
    }

    /// [`read_table`](Self::read_table) and the commit LSN the rows reflect.
    pub fn read_table_at(&self, txn: TxnId, table: &ObjectName) -> Result<(Vec<Row>, Lsn)> {
        self.locks.lock(txn, &self.resolve(table), LockMode::Shared)?;
        let read = self.heap_rows(table).map(|rows| (rows, self.txns.current_lsn()));
        self.locks.release_shared(txn);
        read
    }

    /// Every row in `table`'s heap, read under a lock the caller holds.
    fn heap_rows(&self, table: &ObjectName) -> Result<Vec<Row>> {
        let store = self.store(table)?;
        let rows: Vec<Row> = store.heap.scan().into_iter().map(|(_, r)| r).collect();
        self.stats.rows_scanned.fetch_add(rows.len() as u64, Ordering::Relaxed);
        Ok(rows)
    }
}

impl SchemaProvider for HostEngine {
    fn table_schema(&self, name: &ObjectName) -> Result<Schema> {
        if is_pseudo_table(name) {
            return Ok(Schema::default());
        }
        Ok(self.table_meta(name)?.schema)
    }
}

/// Engine storage as the walk's row source under `run_plan`'s locks: scans
/// read the heap (whole rows: DB2 is a row store, so the column mask is
/// ignored), and a
/// `Filter` directly over a `Scan` reads an index when one serves.
struct EngineSource<'a> {
    engine: &'a HostEngine,
}

impl RowSource for EngineSource<'_> {
    fn node(&self, plan: &Plan, _: Option<&[bool]>) -> Result<Option<Vec<Row>>> {
        match plan {
            Plan::Scan { table, .. } => self.engine.heap_rows(table).map(Some),
            // The index serves a superset; the filter decides.
            Plan::Filter { input, predicate } => match self.index_access(input, predicate)? {
                Some(rows) => apply(plan, rows).map(Some),
                None => Ok(None),
            },
            _ => Ok(None),
        }
    }
}

impl EngineSource<'_> {
    /// DB2's access path for a `Filter` directly over a `Scan`: the rows an
    /// index serves for an equality conjunct (most selective first), else
    /// for the merged bounds of one column; `None` when no index serves any.
    fn index_access(&self, input: &Plan, predicate: &Expr) -> Result<Option<Vec<Row>>> {
        let Plan::Scan { table, cols, .. } = input else { return Ok(None) };
        let engine = self.engine;
        for (col, val) in conjuncts(predicate).into_iter().filter_map(|c| eq_literal(c, cols)) {
            if let Some((store, idx)) = engine.column_index(table, col)? {
                engine.stats.index_lookups.fetch_add(1, Ordering::Relaxed);
                let rids = idx.lookup(std::slice::from_ref(val));
                return Ok(Some(rids.into_iter().filter_map(|rid| store.heap.get(rid)).collect()));
            }
        }
        let mut merged: Vec<RangeBound> = Vec::new();
        for rb in conjuncts(predicate).into_iter().filter_map(|c| range_literal(c, cols)) {
            match merged.iter_mut().find(|m| m.column == rb.column) {
                Some(m) => {
                    m.low = rb.low.or(m.low);
                    m.high = rb.high.or(m.high);
                }
                None => merged.push(rb),
            }
        }
        // The range is inclusive; strict bounds read a superset.
        for rb in merged.iter().filter(|rb| rb.low.is_some() || rb.high.is_some()) {
            if let Some((store, idx)) = engine.column_index(table, rb.column)? {
                engine.stats.index_range_scans.fetch_add(1, Ordering::Relaxed);
                let rids = idx.range(rb.low, rb.high);
                return Ok(Some(rids.into_iter().filter_map(|rid| store.heap.get(rid)).collect()));
            }
        }
        Ok(None)
    }
}

/// `e` as a bare reference to one of `cols`: the column's name.
fn column_of<'a>(e: &'a Expr, cols: &[PlanCol]) -> Option<&'a str> {
    let Expr::Column { qualifier, name } = e else { return None };
    let matches = |c: &PlanCol| {
        c.name == *name
            && qualifier.as_ref().is_none_or(|q| c.qualifier.as_deref() == Some(q.as_str()))
    };
    cols.iter().any(matches).then_some(name.as_str())
}

/// `e` as a non-NULL literal.
fn literal_of(e: &Expr) -> Option<&Value> {
    match e {
        Expr::Literal(v) if !v.is_null() => Some(v),
        _ => None,
    }
}

/// If `conj` is `col = literal` (either side, the literal not NULL) over
/// `cols`, the column name and value: the index-eligible shape, for DB2's
/// access path and the router's indexed-point test alike.
pub fn eq_literal<'a>(conj: &'a Expr, cols: &[PlanCol]) -> Option<(&'a str, &'a Value)> {
    let Expr::Binary { left, op: BinaryOp::Eq, right } = conj else { return None };
    match (column_of(left, cols), literal_of(right)) {
        (Some(c), Some(v)) => Some((c, v)),
        _ => column_of(right, cols).zip(literal_of(left)),
    }
}

/// A range bound extracted from a conjunct: `column` bounded below/above.
struct RangeBound<'a> {
    column: &'a str,
    low: Option<&'a Value>,
    high: Option<&'a Value>,
}

/// If `conj` bounds a single column (`col < lit`, `lit <= col`,
/// `col BETWEEN a AND b`), the inclusive-superset bound.
fn range_literal<'a>(conj: &'a Expr, cols: &[PlanCol]) -> Option<RangeBound<'a>> {
    let bound = |column, low, high| Some(RangeBound { column, low, high });
    match conj {
        Expr::Between { expr, low, high, negated: false } => {
            bound(column_of(expr, cols)?, literal_of(low), literal_of(high))
        }
        Expr::Binary { left, op, right } => {
            // `col OP lit`, or `lit OP col` read with the operator flipped.
            let (column, v, op) = match (column_of(left, cols), literal_of(right)) {
                (Some(c), Some(v)) => (c, v, *op),
                _ => (column_of(right, cols)?, literal_of(left)?, flip(*op)?),
            };
            match op {
                BinaryOp::Lt | BinaryOp::LtEq => bound(column, None, Some(v)),
                BinaryOp::Gt | BinaryOp::GtEq => bound(column, Some(v), None),
                _ => None,
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idaa_common::{ColumnDef, DataType};
    use idaa_sql::{parse_statement, Statement};

    fn schema() -> Schema {
        Schema::new(vec![
            ColumnDef::not_null("ID", DataType::Integer),
            ColumnDef::new("NAME", DataType::Varchar(16)),
            ColumnDef::new("PAY", DataType::Integer),
        ])
        .unwrap()
    }

    fn setup() -> HostEngine {
        let e = HostEngine::default();
        e.create_table(SYSADM, &ObjectName::bare("EMP"), schema(), TableKind::Regular, vec![])
            .unwrap();
        e
    }

    /// DB2's authorization of `user` for `privilege` on table `name`.
    fn grant(e: &HostEngine, user: &str, name: &str, privilege: Privilege) -> Result<Granted> {
        e.privileges.read().check(user, &e.resolve(&ObjectName::bare(name)), privilege)
    }

    /// SYSADM's `privilege` on EMP.
    fn admin(e: &HostEngine, privilege: Privilege) -> Granted {
        grant(e, SYSADM, "EMP", privilege).unwrap()
    }

    fn query(e: &HostEngine, user: &str, txn: TxnId, sql: &str) -> Result<Rows> {
        let Statement::Query(q) = parse_statement(sql).unwrap() else { panic!() };
        e.query(user, txn, &q)
    }

    fn row(id: i32, name: &str, pay: i32) -> Row {
        vec![Value::Int(id), Value::Varchar(name.into()), Value::Int(pay)]
    }

    #[test]
    fn insert_query_roundtrip() {
        let e = setup();
        let t = e.begin();
        e.insert_rows(&admin(&e, Privilege::Insert), t, vec![row(1, "ann", 10)]).unwrap();
        e.commit(t);
        let t2 = e.begin();
        let r = query(&e, SYSADM, t2, "SELECT name FROM emp WHERE id = 1").unwrap();
        assert_eq!(r.scalar().unwrap(), &Value::Varchar("ann".into()));
    }

    #[test]
    fn rollback_undoes_everything() {
        let e = setup();
        let t = e.begin();
        e.insert_rows(&admin(&e, Privilege::Insert), t, vec![row(1, "a", 1), row(2, "b", 2)])
            .unwrap();
        e.commit(t);
        let t2 = e.begin();
        e.insert_rows(&admin(&e, Privilege::Insert), t2, vec![row(3, "c", 3)]).unwrap();
        e.update_where(
            &admin(&e, Privilege::Update),
            t2,
            &[("PAY".into(), Expr::int(99))],
            Some(&Expr::col("ID").eq(Expr::int(1))),
        )
        .unwrap();
        e.delete_where(&admin(&e, Privilege::Delete), t2, Some(&Expr::col("ID").eq(Expr::int(2))))
            .unwrap();
        e.rollback(t2).unwrap();
        let t3 = e.begin();
        let r = query(&e, SYSADM, t3, "SELECT id, pay FROM emp ORDER BY id").unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.rows[0], vec![Value::Int(1), Value::Int(1)]);
        assert_eq!(r.rows[1], vec![Value::Int(2), Value::Int(2)]);
    }

    #[test]
    fn commit_publishes_cdc() {
        let e = setup();
        let t = e.begin();
        e.insert_rows(&admin(&e, Privilege::Insert), t, vec![row(1, "a", 1)]).unwrap();
        e.commit(t);
        let changes = e.txns.changes_since(0);
        assert_eq!(changes.len(), 1);
        assert!(matches!(changes[0].op, ChangeOp::Insert(_)));
    }

    #[test]
    fn read_table_waits_for_uncommitted_writers_and_sees_own_writes() {
        let locks = LockManager::new(std::time::Duration::from_millis(20));
        let e = HostEngine { locks, ..setup() };
        let writer = e.begin();
        e.insert_rows(&admin(&e, Privilege::Insert), writer, vec![row(1, "a", 1)]).unwrap();
        assert_eq!(e.read_table(writer, &ObjectName::bare("EMP")).unwrap().len(), 1);
        let reader = e.begin();
        let err = e.read_table(reader, &ObjectName::bare("EMP")).unwrap_err();
        assert_eq!(err.sqlcode(), -913, "another transaction's uncommitted row is not read");
        e.rollback(writer).unwrap();
        assert!(e.read_table(reader, &ObjectName::bare("EMP")).unwrap().is_empty());
        assert_eq!(e.locks.held(reader, &ObjectName::bare("EMP").resolve("APP")), None);
    }

    #[test]
    fn not_null_enforced() {
        let e = setup();
        let t = e.begin();
        let r = e.insert_rows(&admin(&e, Privilege::Insert), t,
            vec![vec![Value::Null, Value::Null, Value::Null]],
        );
        assert!(matches!(r, Err(Error::Constraint(_))));
    }

    #[test]
    fn privileges_enforced_on_dml_and_query() {
        let e = setup();
        let t = e.begin();
        assert!(matches!(grant(&e, "BOB", "EMP", Privilege::Insert), Err(Error::Privilege(_))));
        assert!(matches!(
            query(&e, "BOB", t, "SELECT * FROM emp"),
            Err(Error::Privilege(_))
        ));
        e.privileges
            .write()
            .grant(SYSADM, "BOB", &ObjectName::qualified("APP", "EMP"), &[Privilege::Select])
            .unwrap();
        query(&e, "BOB", t, "SELECT * FROM emp").unwrap();
    }

    #[test]
    fn a_token_opens_only_its_own_object_and_privilege() {
        let e = setup();
        let t = e.begin();
        let r = e.insert_rows(&admin(&e, Privilege::Select), t, vec![row(1, "x", 1)]);
        assert!(matches!(r, Err(Error::Internal(_))), "{r:?}");
        let Statement::Query(q) = parse_statement("SELECT * FROM emp").unwrap() else { panic!() };
        let plan = plan_query(&q, &e).unwrap();
        let r = e.run_plan(&[admin(&e, Privilege::Insert)], t, &plan, None);
        assert!(matches!(r, Err(Error::Internal(_))), "{r:?}");
        assert_eq!(e.run_plan(&[admin(&e, Privilege::Select)], t, &plan, None).unwrap().len(), 0);
    }

    #[test]
    fn index_speeds_point_lookup_and_stays_consistent() {
        let e = setup();
        let t = e.begin();
        let rows: Vec<Row> = (0..500).map(|i| row(i, "n", i * 2)).collect();
        e.insert_rows(&admin(&e, Privilege::Insert), t, rows).unwrap();
        e.commit(t);
        e.create_index(&admin(&e, Privilege::All), &ObjectName::bare("EMP_ID"), vec!["ID".into()]).unwrap();
        let t2 = e.begin();
        let before = e.stats.index_lookups.load(Ordering::Relaxed);
        let r = query(&e, SYSADM, t2, "SELECT pay FROM emp WHERE id = 123").unwrap();
        assert_eq!(r.scalar().unwrap(), &Value::Int(246));
        assert_eq!(e.stats.index_lookups.load(Ordering::Relaxed), before + 1);
        // Update moves the row in the index.
        e.update_where(
            &admin(&e, Privilege::Update),
            t2,
            &[("ID".into(), Expr::int(9999))],
            Some(&Expr::col("ID").eq(Expr::int(123))),
        )
        .unwrap();
        let r = query(&e, SYSADM, t2, "SELECT pay FROM emp WHERE id = 9999").unwrap();
        assert_eq!(r.len(), 1);
        let r = query(&e, SYSADM, t2, "SELECT pay FROM emp WHERE id = 123").unwrap();
        assert_eq!(r.len(), 0);
    }

    #[test]
    fn point_lookup_finds_the_single_column_index_behind_a_composite_one() {
        let e = setup();
        let t = e.begin();
        e.insert_rows(&admin(&e, Privilege::Insert), t, (0..50).map(|i| row(i, "n", i)).collect())
            .unwrap();
        e.commit(t);
        let emp = admin(&e, Privilege::All);
        e.create_index(&emp, &ObjectName::bare("EMP_AB"), vec!["ID".into(), "NAME".into()]).unwrap();
        e.create_index(&emp, &ObjectName::bare("EMP_A1"), vec!["ID".into()]).unwrap();
        let before = e.stats.index_lookups.load(Ordering::Relaxed);
        let r = query(&e, SYSADM, e.begin(), "SELECT pay FROM emp WHERE id = 5").unwrap();
        assert_eq!(r.scalar().unwrap(), &Value::Int(5));
        assert_eq!(e.stats.index_lookups.load(Ordering::Relaxed), before + 1);
    }

    #[test]
    fn index_range_scan_serves_between_and_comparisons() {
        let e = setup();
        let t = e.begin();
        let rows: Vec<Row> = (0..1000).map(|i| row(i, "n", i)).collect();
        e.insert_rows(&admin(&e, Privilege::Insert), t, rows).unwrap();
        e.commit(t);
        e.create_index(&admin(&e, Privilege::All), &ObjectName::bare("EMP_ID"), vec!["ID".into()]).unwrap();
        let t2 = e.begin();
        let before = e.stats.index_range_scans.load(Ordering::Relaxed);
        let r = query(&e, SYSADM, t2, "SELECT COUNT(*) FROM emp WHERE id BETWEEN 100 AND 199").unwrap();
        assert_eq!(r.scalar().unwrap(), &Value::BigInt(100));
        assert_eq!(e.stats.index_range_scans.load(Ordering::Relaxed), before + 1);
        // Strict bounds return the exact answer (superset + residual).
        let r = query(&e, SYSADM, t2, "SELECT COUNT(*) FROM emp WHERE id > 990 AND id < 995").unwrap();
        assert_eq!(r.scalar().unwrap(), &Value::BigInt(4));
        assert_eq!(e.stats.index_range_scans.load(Ordering::Relaxed), before + 2);
        // Unindexed column still answers via scan.
        let r = query(&e, SYSADM, t2, "SELECT COUNT(*) FROM emp WHERE pay < 10").unwrap();
        assert_eq!(r.scalar().unwrap(), &Value::BigInt(10));
        assert_eq!(e.stats.index_range_scans.load(Ordering::Relaxed), before + 2);
    }

    #[test]
    fn write_blocks_concurrent_reader_until_commit() {
        let e = Arc::new(HostEngine::new("APP"));
        e.create_table(SYSADM, &ObjectName::bare("EMP"), schema(), TableKind::Regular, vec![])
            .unwrap();
        let t1 = e.begin();
        e.insert_rows(&admin(&e, Privilege::Insert), t1, vec![row(1, "a", 1)]).unwrap();
        let e2 = Arc::clone(&e);
        let reader = std::thread::spawn(move || {
            let t2 = e2.begin();
            let r = query(&e2, SYSADM, t2, "SELECT COUNT(*) FROM emp");
            e2.commit(t2);
            r
        });
        std::thread::sleep(std::time::Duration::from_millis(30));
        e.commit(t1);
        let r = reader.join().unwrap().unwrap();
        // Reader waited for the X lock; sees the committed row.
        assert_eq!(r.scalar().unwrap(), &Value::BigInt(1));
    }

    #[test]
    fn aot_proxy_has_no_host_storage() {
        let e = setup();
        e.create_table(
            SYSADM,
            &ObjectName::bare("STAGE"),
            schema(),
            TableKind::AcceleratorOnly,
            vec![],
        )
        .unwrap();
        let t = e.begin();
        let stage = grant(&e, SYSADM, "STAGE", Privilege::Insert).unwrap();
        let r = e.insert_rows(&stage, t, vec![row(1, "x", 1)]);
        assert!(matches!(r, Err(Error::InvalidAcceleratorUse(_))));
        // But the schema is visible through the catalog proxy.
        assert_eq!(e.table_meta(&ObjectName::bare("STAGE")).unwrap().schema.len(), 3);
    }

    #[test]
    fn drop_table_requires_control() {
        let e = setup();
        assert!(matches!(grant(&e, "BOB", "EMP", Privilege::All), Err(Error::Privilege(_))));
        e.drop_table(&admin(&e, Privilege::All)).unwrap();
        assert!(e.table_meta(&ObjectName::bare("EMP")).is_err());
    }

    #[test]
    fn update_with_expression_assignment() {
        let e = setup();
        let t = e.begin();
        e.insert_rows(&admin(&e, Privilege::Insert), t, vec![row(1, "a", 10), row(2, "b", 20)])
            .unwrap();
        let n = e
            .update_where(
                &admin(&e, Privilege::Update),
                t,
                &[(
                    "PAY".into(),
                    Expr::Binary {
                        left: Box::new(Expr::col("PAY")),
                        op: idaa_sql::ast::BinaryOp::Mul,
                        right: Box::new(Expr::int(2)),
                    },
                )],
                None,
            )
            .unwrap();
        assert_eq!(n, 2);
        let r = query(&e, SYSADM, t, "SELECT SUM(pay) FROM emp").unwrap();
        assert_eq!(r.scalar().unwrap(), &Value::BigInt(60));
    }
}
