//! Statement dispatch: one parsed statement in, one [`ExecOutcome`] out.
//!
//! Plan (resolve names against DB2's catalog), then authorize every object
//! the statement touches in one [`Idaa::authorize`] call, before any
//! transaction, route, restart or link byte; then route (host vs.
//! accelerator side, the reason recorded as a "route" trace event), then
//! execute: host statements on the host engine under their tokens,
//! accelerator reads through the fleet's read plan, and
//! accelerator-only-table writes through its owner loop.

use crate::fleet::{on_accelerator, AccelNode};
use crate::idaa::{ExecOutcome, Idaa, Payload};
use crate::router::{self, Route, TableMix};
use crate::session::Session;
use idaa_accel::Snapshot;
use idaa_common::trace::Trace;
use idaa_common::{wire, Error, ObjectName, Result, Row, Rows, Value};
use idaa_host::{Granted, TableKind, TxnId};
use idaa_sql::ast::{Expr, InsertSource, Query, Statement};
use idaa_sql::eval::{bind, eval, FlatResolver};
use idaa_sql::plan::{plan_query, Plan, PlanProfile};
use idaa_sql::Privilege;
use std::time::Duration;

impl Idaa {
    pub(crate) fn dispatch(&self, session: &mut Session, stmt: &Statement) -> Result<ExecOutcome> {
        match stmt {
            Statement::Begin => {
                let unit = self.unit(session);
                if std::mem::replace(&mut unit.explicit, true) {
                    return Err(Error::TransactionState("transaction already open".into()));
                }
                unit.txn(&self.host);
                Ok(ExecOutcome::host(Payload::None))
            }
            // Both consume the unit of work, so a failed COMMIT (everything
            // was rolled back) leaves the session outside a transaction too.
            Statement::Commit => self.commit_session(session).map(|()| ExecOutcome::host(Payload::None)),
            Statement::Rollback => self.rollback_session(session).map(|()| ExecOutcome::host(Payload::None)),
            Statement::SetQueryAcceleration(mode) => {
                session.acceleration = *mode;
                Ok(ExecOutcome::host(Payload::None))
            }
            Statement::SetCurrentSchema(s) => {
                if s != &self.config.default_schema {
                    return Err(Error::Unsupported(
                        "per-session CURRENT SCHEMA is not supported; configure the \
                         system default instead"
                            .into(),
                    ));
                }
                Ok(ExecOutcome::host(Payload::None))
            }
            Statement::CreateTable { name, columns, in_accelerator, distribute_by } => {
                let schema = idaa_common::Schema::new(
                    columns
                        .iter()
                        .map(|c| idaa_common::ColumnDef {
                            name: c.name.clone(),
                            data_type: c.data_type,
                            not_null: c.not_null,
                        })
                        .collect(),
                )?;
                let user = &session.user;
                let create = |kind| {
                    self.host.create_table(user, name, schema.clone(), kind, distribute_by.clone()).map(drop)
                };
                if !*in_accelerator {
                    create(TableKind::Regular)?;
                    return Ok(ExecOutcome::host(Payload::None));
                }
                // Nickname proxy exists in DB2; actual table lives on the
                // accelerator.
                let (resolved, ddl) = (name.resolve(&self.config.default_schema), stmt.to_string());
                let aot = TableKind::AcceleratorOnly;
                self.on_placement(&session.trace, (&resolved, aot), || create(aot), |node, local| {
                    self.ship_ddl_on(node, &ddl)?;
                    node.engine.create_table(local, schema.clone(), distribute_by)
                })?;
                Ok(ExecOutcome::accel(Payload::None))
            }
            Statement::DropTable { name } => {
                let meta = self.host.table_meta(name)?;
                let grant = self.authorize_one(session, &meta.name, Privilege::All)?;
                if !on_accelerator(&meta) {
                    self.host.drop_table(&grant)?;
                    return Ok(ExecOutcome::host(Payload::None));
                }
                let ddl = stmt.to_string();
                let catalog = || self.host.drop_table(&grant).map(drop);
                self.on_placement(&session.trace, (&meta.name, meta.kind), catalog, |node, local| {
                    self.ship_ddl_on(node, &ddl)?;
                    node.engine.drop_table(local)
                })?;
                Ok(ExecOutcome::accel(Payload::None))
            }
            Statement::CreateIndex { name, table, columns } => {
                let table = table.resolve(&self.config.default_schema);
                let grant = self.authorize_one(session, &table, Privilege::All)?;
                self.host.create_index(&grant, name, columns.clone())?;
                Ok(ExecOutcome::host(Payload::None))
            }
            Statement::Grant { privileges, object, grantees } => {
                let object = object.resolve(&self.config.default_schema);
                let mut privs = self.host.privileges.write();
                for g in grantees {
                    privs.grant(&session.user, g, &object, privileges)?;
                }
                Ok(ExecOutcome::host(Payload::None))
            }
            Statement::Revoke { privileges, object, grantees } => {
                let object = object.resolve(&self.config.default_schema);
                let mut privs = self.host.privileges.write();
                for g in grantees {
                    privs.revoke(&session.user, g, &object, privileges)?;
                }
                Ok(ExecOutcome::host(Payload::None))
            }
            Statement::ShowWorkload => {
                Ok(ExecOutcome::host(Payload::Rows(self.workload_rows())))
            }
            Statement::Call { procedure, args } => self.dispatch_call(session, procedure, args),
            Statement::Explain { analyze: false, stmt } => self.dispatch_explain(session, stmt),
            Statement::Explain { analyze: true, stmt } => {
                self.dispatch_explain_analyze(session, stmt)
            }
            Statement::Query(q) => self.dispatch_query(session, q),
            Statement::Insert { table, columns, source } => {
                self.dispatch_insert(session, table, columns, source)
            }
            Statement::Update { table, assignments, filter } => self.dispatch_dml(
                session,
                stmt,
                (table, Privilege::Update),
                |grant, txn| self.host.update_where(grant, txn, assignments, filter.as_ref()),
                |node, snap, st| node.engine.update_where(snap, st, assignments, filter.as_ref()),
            ),
            Statement::Delete { table, filter } => self.dispatch_dml(
                session,
                stmt,
                (table, Privilege::Delete),
                |grant, txn| self.host.delete_where(grant, txn, filter.as_ref()),
                |node, snap, st| node.engine.delete_where(snap, st, filter.as_ref()),
            ),
        }
    }

    /// UPDATE or DELETE `stmt` of `table`, which needs `privilege`: DB2 runs
    /// it on a regular table, each owner's shard on an accelerator-only one.
    fn dispatch_dml(
        &self,
        session: &mut Session,
        stmt: &Statement,
        (table, privilege): (&ObjectName, Privilege),
        on_host: impl FnOnce(&Granted, TxnId) -> Result<usize>,
        on_node: impl Fn(&AccelNode, Snapshot, &ObjectName) -> Result<usize>,
    ) -> Result<ExecOutcome> {
        let route = router::route_dml(&self.host, table)?;
        let table = table.resolve(&self.config.default_schema);
        let grant = self.authorize_one(session, &table, privilege)?;
        let n = match route {
            Route::Host => on_host(&grant, self.unit(session).txn(&self.host))?,
            Route::Accelerator => {
                let request_bytes = stmt.to_string().len() + wire::CONTROL_FRAME;
                self.aot_statement(session, &table, request_bytes, on_node)?
            }
        };
        Ok(ExecOutcome { route, payload: Payload::Count(n) })
    }

    /// The plan's tables, resolved in the default schema.
    fn resolved_tables(&self, plan: &Plan) -> Vec<ObjectName> {
        plan.tables().iter().map(|t| t.resolve(&self.config.default_schema)).collect()
    }

    fn dispatch_call(
        &self,
        session: &mut Session,
        procedure: &ObjectName,
        args: &[Expr],
    ) -> Result<ExecOutcome> {
        let name = match procedure.schema {
            Some(_) => procedure.clone(),
            // Procedures default to SYSPROC, then the default schema.
            None => {
                let sysproc = ObjectName::qualified("SYSPROC", &procedure.name);
                if self.procedures.read().contains_key(&sysproc) {
                    sysproc
                } else {
                    procedure.resolve(&self.config.default_schema)
                }
            }
        };
        let proc = self
            .procedures
            .read()
            .get(&name)
            .cloned()
            .ok_or_else(|| Error::UndefinedObject(format!("procedure {name} is not defined")))?;
        // EXECUTE is all a CALL needs; the body authorizes the tables it uses.
        self.authorize_one(session, &name, Privilege::Execute)?;
        let arg_values: Vec<Value> = args.iter().map(constant).collect::<Result<_>>()?;
        let rows = proc.execute(self, session, &arg_values)?;
        Ok(ExecOutcome::host(Payload::Rows(rows)))
    }

    /// `EXPLAIN`: plan the statement, report the routing decision and the
    /// operator tree — without executing anything.
    fn dispatch_explain(&self, session: &mut Session, inner: &Statement) -> Result<ExecOutcome> {
        let (desc, plan) = match inner {
            Statement::Query(q) => {
                let plan = plan_query(q, &*self.host)?;
                let (_, route, reason) = self.read_route(session, &plan, &self.resolved_tables(&plan))?;
                let mode = session.acceleration;
                let mut desc = format!("ROUTE: {route:?} (CURRENT QUERY ACCELERATION = {mode})\nREASON: {reason}");
                // For offloaded queries, also report which accelerator
                // pipeline would run — vectorized kernels, fused
                // aggregation, or the interpreted fallback.
                if route == Route::Accelerator {
                    if let Ok(pipeline) = self.accel().pipeline_of(q) {
                        desc.push_str(&format!("\nPIPELINE: {pipeline}"));
                    }
                }
                (desc, Some(plan))
            }
            Statement::Insert { table, .. }
            | Statement::Update { table, .. }
            | Statement::Delete { table, .. } => {
                let desc = format!("ROUTE: {:?} (DML target {table})", router::route_dml(&self.host, table)?);
                // VALUES, UPDATE and DELETE have no query plan to show.
                let plan = match inner {
                    Statement::Insert { source: InsertSource::Query(q), .. } => Some(plan_query(q, &*self.host)?),
                    _ => None,
                };
                (desc, plan)
            }
            other => {
                return Err(Error::Unsupported(format!(
                    "EXPLAIN is not supported for this statement: {other}"
                )))
            }
        };
        let text = [desc, plan.map(|p| p.explain()).unwrap_or_default()];
        Ok(ExecOutcome::host(explain_rows(&text)))
    }

    /// `EXPLAIN ANALYZE`: *execute* the statement (under a span tree even
    /// when session tracing is off), then report the plan followed by the
    /// executed spans — per-operator row counts and virtual-time costs.
    fn dispatch_explain_analyze(
        &self,
        session: &mut Session,
        inner: &Statement,
    ) -> Result<ExecOutcome> {
        // The report needs spans even when the session isn't tracing:
        // borrow an enabled trace for the duration of the inner statement.
        let borrowed = if session.trace.is_enabled() {
            None
        } else {
            Some(std::mem::replace(&mut session.trace, Trace::enabled()))
        };
        let trace = session.trace.clone();
        let span = trace.begin("analyze", self.link().now());
        let result = self.dispatch(session, inner);
        let analyzed = trace.finish(span, self.link().now());
        if let Some(original) = borrowed {
            session.trace = original;
        }
        let outcome = result?;
        let mut text =
            vec![format!("ROUTE: {:?} (CURRENT QUERY ACCELERATION = {})", outcome.route, session.acceleration)];
        // Show the plan for the query shape, as plain EXPLAIN would.
        if let Statement::Query(q) | Statement::Insert { source: InsertSource::Query(q), .. } = inner {
            text.push(plan_query(q, &*self.host)?.explain());
        }
        text.push("-- ANALYZE --".into());
        text.extend(analyzed.iter().flat_map(|node| node.children.iter().map(|c| c.render())));
        Ok(ExecOutcome { route: outcome.route, payload: explain_rows(&text) })
    }

    fn dispatch_query(&self, session: &mut Session, q: &Query) -> Result<ExecOutcome> {
        let plan = plan_query(q, &*self.host)?;
        let tables = self.resolved_tables(&plan);
        let wants = tables.iter().map(|t| (t, Privilege::Select));
        let grants = self.authorize(&session.user, &session.trace, wants)?;
        self.run_read(session, q, &plan, &tables, &grants)
    }

    /// Route and run the read `q`, planned as `plan` over `tables`, which
    /// `grants` authorize.
    fn run_read(
        &self,
        session: &mut Session,
        q: &Query,
        plan: &Plan,
        tables: &[ObjectName],
        grants: &[Granted],
    ) -> Result<ExecOutcome> {
        let trace = session.trace.clone();
        let (mix, mut route, mut reason) = self.read_route(session, plan, tables)?;
        // No owner of some shard the read touches is available (stopped,
        // crashed, or declared offline after consecutive communication
        // failures): fall back to DB2 when the data still lives there; fail
        // when only the accelerator side could answer. Judged once, before
        // the route event.
        let must_accelerate = router::must_accelerate(&mix, session.acceleration);
        let read_plan = self.read_plan(tables)?;
        if route == Route::Accelerator {
            if let Err(e) = self.read_ready(session, &read_plan, tables) {
                if must_accelerate {
                    return Err(e);
                }
                route = Route::Host;
                reason = "accelerator unavailable; falling back to DB2";
            }
        }
        self.route_event(&trace, route, reason, session);
        if route == Route::Accelerator {
            match self.accel_read(session, q, plan, tables, &read_plan) {
                Ok(rows) => return Ok(ExecOutcome::accel(Payload::Rows(rows))),
                // Communication failed mid-statement: like DB2, re-execute
                // the read-only query locally when the data allows it.
                Err(Error::LinkFailure(_)) if !must_accelerate => {
                    self.route_event(
                        &trace,
                        Route::Host,
                        "communication failed mid-statement; re-executing locally",
                        session,
                    );
                }
                // Every owner of a shard was lost mid-statement: the host
                // still holds the data unless the query must accelerate.
                Err(Error::ResourceUnavailable(_)) if !must_accelerate => {
                    self.route_event(
                        &trace,
                        Route::Host,
                        "accelerator unavailable; falling back to DB2",
                        session,
                    );
                }
                Err(e) => return Err(e),
            }
        }
        let txn = self.unit(session).txn(&self.host);
        let (now, profile) = (self.link().now(), trace.is_enabled().then(PlanProfile::default));
        let span = trace.begin("host.exec", now);
        let rows = self.host.run_plan(grants, txn, plan, profile.as_ref());
        if let (Ok(_), Some(profile)) = (&rows, &profile) {
            self.emit_plan_spans(&trace, plan, profile, now);
        }
        trace.end(span, self.link().now());
        Ok(ExecOutcome::host(Payload::Rows(rows?)))
    }

    /// The one routing of a read of `tables`, planned as `plan`: the tables
    /// are classified for the session's transaction (one it changed in DB2
    /// is host-only), then routed by its register, with the reason.
    fn read_route(
        &self,
        session: &Session,
        plan: &Plan,
        tables: &[ObjectName],
    ) -> Result<(TableMix, Route, &'static str)> {
        let mut mix = router::classify_for(&self.host, session.txn(), tables)?;
        mix.indexed_point = router::is_indexed_point(&self.host, plan);
        let (route, reason) = router::route_query_with_reason(&mix, session.acceleration)?;
        Ok((mix, route, reason))
    }

    /// Record the routing decision (and its reason) as a trace event.
    fn route_event(&self, trace: &Trace, route: Route, reason: &str, session: &Session) {
        if !trace.is_enabled() {
            return;
        }
        let now = self.link().now();
        let id = trace.begin("route", now);
        trace.attr(id, "route", format!("{route:?}"));
        trace.attr(id, "reason", reason);
        trace.attr(id, "mode", session.acceleration);
        trace.end(id, now);
    }

    /// Mirror an executed plan (with its row-count profile) into the trace
    /// as nested zero-duration "op" spans. Operators consume no virtual
    /// time — only link transfers do — so only the tree shape and `rows`
    /// attributes carry information. A node without `rows` was fused into
    /// its parent. `now` is the executing side's clock.
    pub(crate) fn emit_plan_spans(
        &self,
        trace: &Trace,
        plan: &Plan,
        profile: &PlanProfile,
        now: Duration,
    ) {
        self.emit_plan_spans_at(trace, plan, profile, now, true);
    }

    fn emit_plan_spans_at(
        &self,
        trace: &Trace,
        plan: &Plan,
        profile: &PlanProfile,
        now: Duration,
        root: bool,
    ) {
        let id = trace.begin("op", now);
        trace.attr(id, "op", plan.label());
        if root {
            // Statement-level: did the compiled-plan cache serve this tree?
            if let Some(hit) = profile.cache_hit() {
                trace.attr(id, "cache", if hit { "hit" } else { "miss" });
            }
        }
        match profile.rows_out(plan) {
            Some(rows) => trace.attr(id, "rows", rows),
            None => trace.attr(id, "fused", "true"),
        }
        if let Some(batches) = profile.vectorized_batches(plan) {
            trace.attr(id, "kernel", "vectorized");
            trace.attr(id, "batches", batches);
        }
        if let Some(skipped) = profile.bloom_skipped(plan) {
            trace.attr(id, "bloom_skipped", skipped);
        }
        for child in plan.children() {
            self.emit_plan_spans_at(trace, child, profile, now, false);
        }
        trace.end(id, now);
    }

    fn dispatch_insert(
        &self,
        session: &mut Session,
        table: &ObjectName,
        columns: &[String],
        source: &InsertSource,
    ) -> Result<ExecOutcome> {
        let target = table.resolve(&self.config.default_schema);
        let meta = self.host.table_meta(&target)?;
        let plan = match source {
            InsertSource::Query(q) => Some(plan_query(q, &*self.host)?),
            InsertSource::Values(_) => None,
        };
        let src_tables = plan.as_ref().map_or_else(Vec::new, |p| self.resolved_tables(p));
        // One authorization for target and sources; the target's token is first.
        let sources = src_tables.iter().map(|t| (t, Privilege::Select));
        let wants = std::iter::once((&target, Privilege::Insert)).chain(sources);
        let grants = self.authorize(&session.user, &session.trace, wants)?;
        // Build full-width rows from VALUES, or run the source query.
        let rows: Vec<Row> = match (source, &plan) {
            (InsertSource::Values(value_rows), _) => value_rows
                .iter()
                .map(|exprs| self.widen_row(&meta.schema, columns, exprs.iter().map(constant).collect::<Result<_>>()?))
                .collect::<Result<_>>()?,
            (InsertSource::Query(src_q), Some(plan)) => {
                // Pushdown path — the paper's contribution: an AOT target
                // whose source tables all exist on the accelerator for this
                // transaction executes entirely there; only the statement
                // text crosses the link.
                // That needs target and sources whole on the same owners;
                // with more than one shard the source runs through the
                // scatter path below and the insert re-shards its result.
                if meta.kind == TableKind::AcceleratorOnly
                    && self.fleet.shards == 1
                    && self.read_route(session, plan, &src_tables)?.0.host_only == 0
                {
                    if !src_tables.is_empty() {
                        // The sources are read where the target lives.
                        let plan = self.read_plan(&[&src_tables[..], std::slice::from_ref(&target)].concat())?;
                        self.read_ready(session, &plan, &src_tables)?;
                    }
                    let sql = format!("INSERT INTO {target} {src_q}");
                    let n = self.aot_statement(
                        session,
                        &target,
                        sql.len() + wire::CONTROL_FRAME,
                        |node, snap, st| {
                            let result = node.engine.query_at(snap, src_q)?;
                            let rows: Vec<Row> = result
                                .rows
                                .into_iter()
                                .map(|r| self.widen_row(&meta.schema, columns, r))
                                .collect::<Result<_>>()?;
                            node.engine.insert_rows(snap.me, st, rows)
                        },
                    )?;
                    return Ok(ExecOutcome::accel(Payload::Count(n)));
                }
                // Otherwise the source runs wherever routing says; result
                // rows materialize on the host side and pay link cost when
                // they came from the accelerator.
                let outcome = self.run_read(session, src_q, plan, &src_tables, &grants)?;
                let Payload::Rows(result) = outcome.payload else {
                    return Err(Error::internal("an INSERT source query produced no rows"));
                };
                result
                    .rows
                    .into_iter()
                    .map(|r| self.widen_row(&meta.schema, columns, r))
                    .collect::<Result<_>>()?
            }
            _ => return Err(Error::internal("an INSERT source query was not planned")),
        };
        match meta.kind {
            TableKind::Regular => {
                let txn = self.unit(session).txn(&self.host);
                let n = self.host.insert_rows(&grants[0], txn, rows)?;
                Ok(ExecOutcome::host(Payload::Count(n)))
            }
            TableKind::AcceleratorOnly => {
                // Rows originate on the host side (VALUES literals or a
                // host-executed source query): they cross the link as
                // encoded frames and each owner inserts what it decodes.
                let n = self.aot_insert_rows(session, &meta, rows)?;
                Ok(ExecOutcome::accel(Payload::Count(n)))
            }
        }
    }

    /// Expand an explicit column list to a full-width row (missing columns
    /// become NULL, which `check_row` then validates).
    fn widen_row(
        &self,
        schema: &idaa_common::Schema,
        columns: &[String],
        values: Vec<Value>,
    ) -> Result<Row> {
        if columns.is_empty() {
            return Ok(values);
        }
        if columns.len() != values.len() {
            return Err(Error::Constraint(format!(
                "INSERT specifies {} columns but {} values",
                columns.len(),
                values.len()
            )));
        }
        let mut row = vec![Value::Null; schema.len()];
        for (col, v) in columns.iter().zip(values) {
            row[schema.index_of(col)?] = v;
        }
        Ok(row)
    }

    /// The `SHOW WORKLOAD` result set: one row per server seat, rendered
    /// entirely from the `server.session.*` entries the workload manager
    /// maintains in the metrics registry. A system without a server has no
    /// such entries and the view is empty — the statement itself never
    /// touches the link, so it can run even while the accelerator is down.
    fn workload_rows(&self) -> Rows {
        let snap = self.metrics.snapshot();
        // Every connected seat owns a `priority` gauge from connect time,
        // so the gauge keys are the authoritative seat list.
        let mut seats: Vec<u64> = snap
            .gauges
            .keys()
            .filter_map(|k| {
                let rest = k.strip_prefix("server.session.")?;
                let seat = rest.strip_suffix(".priority")?;
                seat.parse().ok()
            })
            .collect();
        seats.sort_unstable();
        let rows = seats
            .into_iter()
            .map(|seat| {
                let g = |field: &str| {
                    snap.gauges
                        .get(&format!("server.session.{seat}.{field}"))
                        .copied()
                        .unwrap_or(0)
                };
                let c = |field: &str| {
                    snap.counter(&format!("server.session.{seat}.{field}")) as i64
                };
                vec![
                    Value::BigInt(seat as i64),
                    Value::Varchar(crate::server::Priority::name_of_rank(g("priority")).into()),
                    Value::BigInt(g("queued")),
                    Value::BigInt(g("running")),
                    Value::BigInt(c("done")),
                    Value::BigInt(c("failed")),
                    Value::BigInt(c("queue_time_us")),
                    Value::BigInt(c("bytes")),
                ]
            })
            .collect();
        Rows::new(workload_schema(), rows)
    }
}

/// The value of the column-free expression `e` (a CALL argument, a VALUES
/// item).
fn constant(e: &Expr) -> Result<Value> {
    eval(&bind(e, &FlatResolver::new(Vec::new()))?, &[])
}

/// The EXPLAIN result: one `PLAN` row per line of `text`.
fn explain_rows(text: &[String]) -> Payload {
    let schema = idaa_common::ColumnDef::new("PLAN", idaa_common::DataType::Varchar(255));
    let lines = text.iter().flat_map(|t| t.lines()).map(|l| vec![Value::Varchar(l.to_string())]);
    Payload::Rows(Rows::new(idaa_common::Schema::new_unchecked(vec![schema]), lines.collect()))
}

fn workload_schema() -> idaa_common::Schema {
    use idaa_common::{ColumnDef, DataType};
    idaa_common::Schema::new_unchecked(vec![
        ColumnDef::new("SESSION", DataType::BigInt),
        ColumnDef::new("PRIORITY", DataType::Varchar(8)),
        ColumnDef::new("QUEUED", DataType::BigInt),
        ColumnDef::new("RUNNING", DataType::BigInt),
        ColumnDef::new("DONE", DataType::BigInt),
        ColumnDef::new("FAILED", DataType::BigInt),
        ColumnDef::new("QUEUE_US", DataType::BigInt),
        ColumnDef::new("BYTES", DataType::BigInt),
    ])
}
