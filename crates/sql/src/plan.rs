//! Engine-independent logical planning.
//!
//! Translates a [`Query`] AST into a [`Plan`] tree: scans, joins, filters,
//! aggregation (with aggregate-call rewriting), projection, sort, distinct
//! and limit. The host engine runs the plan through the row operators of
//! [`crate::exec`]; the accelerator lowers it to vectorized columnar
//! pipelines, falling back to those same operators — but both consume this
//! same structure, which is also what the federation router inspects to
//! decide *where* a statement may run.

use crate::ast::{is_aggregate_name, Expr, JoinKind, Query, SelectItem, TableRef};
use crate::eval::AggregateKind;
use crate::exec::{conjuncts, resolver_of};
use idaa_common::{DataType, Error, ObjectName, Result, Schema};
use std::sync::PoisonError;

/// A column flowing out of a plan node.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanCol {
    /// Table alias / name this column is addressable under (None for
    /// computed columns).
    pub qualifier: Option<String>,
    /// Column name.
    pub name: String,
    /// Inferred type.
    pub data_type: DataType,
}

impl PlanCol {
    fn new(qualifier: Option<String>, name: impl Into<String>, data_type: DataType) -> Self {
        PlanCol { qualifier, name: name.into(), data_type }
    }
}

/// One aggregate call extracted from a query.
#[derive(Debug, Clone, PartialEq)]
pub struct AggCall {
    pub kind: AggregateKind,
    /// Argument expression (None for `COUNT(*)`).
    pub arg: Option<Expr>,
    pub distinct: bool,
}

/// Logical plan tree. Expressions inside nodes are *unbound* AST
/// expressions; engines bind them against the child's output columns.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Base-table scan.
    Scan { table: ObjectName, alias: Option<String>, cols: Vec<PlanCol> },
    /// σ predicate.
    Filter { input: Box<Plan>, predicate: Expr },
    /// π with explicit output names.
    Project { input: Box<Plan>, exprs: Vec<(Expr, String)>, cols: Vec<PlanCol> },
    /// Binary join.
    Join { left: Box<Plan>, right: Box<Plan>, kind: JoinKind, on: Expr },
    /// γ grouping: output = group key columns then aggregate columns.
    Aggregate {
        input: Box<Plan>,
        group_exprs: Vec<Expr>,
        aggs: Vec<AggCall>,
        cols: Vec<PlanCol>,
    },
    /// ORDER BY: `(input column ordinal, descending)` pairs. Keys are always
    /// ordinals into the child's output — the planner materializes computed
    /// sort keys as hidden projection columns first.
    Sort { input: Box<Plan>, keys: Vec<(usize, bool)> },
    /// DISTINCT over full rows.
    Distinct { input: Box<Plan> },
    /// Row-count cap.
    Limit { input: Box<Plan>, n: u64 },
    /// Keep only the first `n` columns (drops hidden ORDER BY columns).
    KeepCols { input: Box<Plan>, n: usize },
    /// `UNION [ALL]` of two inputs (left-associative folding of longer
    /// chains). `all == false` dedups the combined rows.
    Union { left: Box<Plan>, right: Box<Plan>, all: bool },
}

impl Plan {
    /// Columns this node produces, in order.
    pub fn cols(&self) -> Vec<PlanCol> {
        match self {
            Plan::Scan { cols, .. } | Plan::Project { cols, .. } | Plan::Aggregate { cols, .. } => {
                cols.clone()
            }
            Plan::Filter { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Distinct { input }
            | Plan::Limit { input, .. } => input.cols(),
            Plan::Join { left, right, .. } => {
                let mut c = left.cols();
                c.extend(right.cols());
                c
            }
            Plan::KeepCols { input, n } => {
                let mut c = input.cols();
                c.truncate(*n);
                c
            }
            // Union output takes the first branch's names/types (DB2 also
            // names union columns after the first subselect).
            Plan::Union { left, .. } => left.cols(),
        }
    }

    /// Result schema (duplicate names allowed, all columns nullable).
    pub fn schema(&self) -> Schema {
        Schema::new_unchecked(
            self.cols()
                .into_iter()
                .map(|c| idaa_common::ColumnDef::new(c.name, c.data_type))
                .collect(),
        )
    }

    /// All base tables referenced anywhere in the plan; the FROM-less
    /// pseudo-scan ([`is_pseudo_table`]) references none.
    pub fn tables(&self) -> Vec<ObjectName> {
        let mut out = Vec::new();
        self.collect_tables(&mut out);
        out
    }

    /// Multi-line, indented plan rendering for `EXPLAIN`.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(0, &mut out);
        out
    }

    fn explain_into(&self, depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth);
        out.push_str(&pad);
        out.push_str(&self.label());
        out.push('\n');
        for child in self.children() {
            child.explain_into(depth + 1, out);
        }
    }

    /// This node's own `EXPLAIN` line (no indentation, no children).
    pub fn label(&self) -> String {
        match self {
            Plan::Scan { table, alias, cols } => format!(
                "SCAN {table}{} [{} cols]",
                alias.as_ref().map(|a| format!(" AS {a}")).unwrap_or_default(),
                cols.len()
            ),
            Plan::Filter { predicate, .. } => format!("FILTER {predicate}"),
            Plan::Project { exprs, .. } => {
                let items: Vec<String> =
                    exprs.iter().map(|(e, n)| format!("{e} AS {n}")).collect();
                format!("PROJECT {}", items.join(", "))
            }
            Plan::Join { kind, on, .. } => format!("{kind:?} JOIN ON {on}"),
            Plan::Aggregate { group_exprs, aggs, .. } => {
                let keys: Vec<String> = group_exprs.iter().map(|e| e.to_string()).collect();
                format!(
                    "AGGREGATE [{} aggs] GROUP BY {}",
                    aggs.len(),
                    if keys.is_empty() { "()".to_string() } else { keys.join(", ") }
                )
            }
            Plan::Sort { keys, .. } => {
                let ks: Vec<String> = keys
                    .iter()
                    .map(|(i, d)| format!("#{i}{}", if *d { " DESC" } else { "" }))
                    .collect();
                format!("SORT {}", ks.join(", "))
            }
            Plan::Distinct { .. } => "DISTINCT".to_string(),
            Plan::Limit { n, .. } => format!("LIMIT {n}"),
            Plan::KeepCols { n, .. } => format!("KEEP FIRST {n} COLS"),
            Plan::Union { all, .. } => format!("UNION{}", if *all { " ALL" } else { "" }),
        }
    }

    /// Child nodes in `EXPLAIN` order.
    pub fn children(&self) -> Vec<&Plan> {
        match self {
            Plan::Scan { .. } => Vec::new(),
            Plan::Filter { input, .. }
            | Plan::Project { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Distinct { input }
            | Plan::Limit { input, .. }
            | Plan::KeepCols { input, .. } => vec![input],
            Plan::Join { left, right, .. } | Plan::Union { left, right, .. } => {
                vec![left, right]
            }
        }
    }

    fn collect_tables(&self, out: &mut Vec<ObjectName>) {
        match self {
            Plan::Scan { table, .. } if is_pseudo_table(table) => {}
            Plan::Scan { table, .. } => out.push(table.clone()),
            Plan::Filter { input, .. }
            | Plan::Project { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Distinct { input }
            | Plan::Limit { input, .. }
            | Plan::KeepCols { input, .. } => input.collect_tables(out),
            Plan::Join { left, right, .. } | Plan::Union { left, right, .. } => {
                left.collect_tables(out);
                right.collect_tables(out);
            }
        }
    }
}

/// Per-operator row counts collected during one execution of a [`Plan`].
///
/// Keyed by plan-node *identity* (address), so the profiled plan must live
/// at a stable address for the profile's lifetime — keep the root boxed and
/// don't move it between execution and readout. Executors record each
/// node's output cardinality as they unwind; operator fusion (e.g. a filter
/// fused into its scan) legitimately leaves the fused child unrecorded.
#[derive(Debug, Default)]
pub struct PlanProfile {
    rows_out: std::sync::Mutex<std::collections::HashMap<usize, u64>>,
    /// Nodes the vectorized batch pipeline executed, with the number of
    /// column batches (non-pruned blocks) it processed. Absence means the
    /// node ran through the row-at-a-time interpreter.
    vectorized: std::sync::Mutex<std::collections::HashMap<usize, u64>>,
    /// Join nodes whose probe consulted a Bloom filter, with the number of
    /// probe rows the filter skipped before any hash-table lookup.
    bloom: std::sync::Mutex<std::collections::HashMap<usize, u64>>,
    /// Whether this statement's plan came from the compiled-plan cache
    /// (`Some(true)` = hit, `Some(false)` = miss, `None` = not consulted).
    cache_hit: std::sync::Mutex<Option<bool>>,
    /// The executor's description of the pipeline that ran (what plain
    /// `EXPLAIN` prints as `PIPELINE:`), when the executor reports one.
    pipeline: std::sync::Mutex<Option<String>>,
}

impl PlanProfile {
    fn key(node: &Plan) -> usize {
        node as *const Plan as usize
    }

    /// Record `node`'s output row count.
    pub fn record(&self, node: &Plan, rows: u64) {
        self.rows_out.lock().unwrap_or_else(PoisonError::into_inner).insert(Self::key(node), rows);
    }

    /// Output row count for `node`, if it executed unfused.
    pub fn rows_out(&self, node: &Plan) -> Option<u64> {
        self.rows_out.lock().unwrap_or_else(PoisonError::into_inner).get(&Self::key(node)).copied()
    }

    /// Record that `node` ran through the vectorized batch pipeline,
    /// processing `batches` column batches.
    pub fn record_vectorized(&self, node: &Plan, batches: u64) {
        self.vectorized
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(Self::key(node), batches);
    }

    /// Batch count for `node` if the vectorized pipeline executed it;
    /// `None` means it was interpreted (or fused into another node).
    pub fn vectorized_batches(&self, node: &Plan) -> Option<u64> {
        self.vectorized
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&Self::key(node))
            .copied()
    }

    /// Record that `node`'s join probe consulted a Bloom filter which
    /// skipped `skipped` probe rows.
    pub fn record_bloom(&self, node: &Plan, skipped: u64) {
        self.bloom.lock().unwrap_or_else(PoisonError::into_inner).insert(Self::key(node), skipped);
    }

    /// Bloom-skipped probe row count for `node`; `None` means no Bloom
    /// filter was consulted there.
    pub fn bloom_skipped(&self, node: &Plan) -> Option<u64> {
        self.bloom.lock().unwrap_or_else(PoisonError::into_inner).get(&Self::key(node)).copied()
    }

    /// Record whether the statement's plan came from the compiled-plan
    /// cache.
    pub fn set_cache_hit(&self, hit: bool) {
        *self.cache_hit.lock().unwrap_or_else(PoisonError::into_inner) = Some(hit);
    }

    /// `Some(true)` when the plan was a cache hit, `Some(false)` on a miss,
    /// `None` when no cache was consulted.
    pub fn cache_hit(&self) -> Option<bool> {
        *self.cache_hit.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Record the executor's description of the pipeline that runs the plan.
    pub fn set_pipeline(&self, description: String) {
        *self.pipeline.lock().unwrap_or_else(PoisonError::into_inner) = Some(description);
    }

    /// The pipeline description the executor recorded, if any.
    pub fn pipeline(&self) -> Option<String> {
        self.pipeline.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }
}

/// What a FROM-less SELECT scans: DB2's one-row, no-column table.
const PSEUDO_TABLE: &str = "SYSDUMMY1";

/// Whether `name` is the FROM-less pseudo-table, the unqualified
/// `SYSDUMMY1`: it holds no data, so it needs no privilege. A qualified
/// `X.SYSDUMMY1` is an ordinary table.
pub fn is_pseudo_table(name: &ObjectName) -> bool {
    name.schema.is_none() && name.name == PSEUDO_TABLE
}

/// Supplies table schemas during planning. Every provider answers the
/// pseudo-table ([`is_pseudo_table`]) with the empty schema.
pub trait SchemaProvider {
    /// Schema of a base table (name resolution, including default-schema
    /// handling, is the provider's business).
    fn table_schema(&self, name: &ObjectName) -> Result<Schema>;
}

/// Plan a query against `provider`.
pub fn plan_query(q: &Query, provider: &dyn SchemaProvider) -> Result<Plan> {
    if !q.unions.is_empty() {
        return plan_union(q, provider);
    }
    plan_block(q, provider)
}

/// Plan a `UNION` chain: fold the blocks left-associatively, then apply the
/// outer ORDER BY/LIMIT over the combined output columns.
fn plan_union(q: &Query, provider: &dyn SchemaProvider) -> Result<Plan> {
    let first_core = Query { unions: Vec::new(), order_by: Vec::new(), limit: None, ..q.clone() };
    let mut plan = plan_block(&first_core, provider)?;
    let width = plan.cols().len();
    let first_cols = plan.cols();
    for (all, block) in &q.unions {
        let rhs = plan_block(block, provider)?;
        let rhs_cols = rhs.cols();
        if rhs_cols.len() != width {
            return Err(Error::Parse(format!(
                "UNION branches have different column counts ({width} vs {})",
                rhs_cols.len()
            )));
        }
        for (a, b) in first_cols.iter().zip(&rhs_cols) {
            DataType::unify(a.data_type, b.data_type).map_err(|_| {
                Error::TypeMismatch(format!(
                    "UNION column {} has incompatible types {} and {}",
                    a.name, a.data_type, b.data_type
                ))
            })?;
        }
        plan = Plan::Union { left: Box::new(plan), right: Box::new(rhs), all: *all };
    }
    // ORDER BY over a union may reference output ordinals or unique output
    // column names only (there is no single underlying block to evaluate
    // arbitrary expressions against).
    if !q.order_by.is_empty() {
        let cols = plan.cols();
        let mut keys = Vec::new();
        for item in &q.order_by {
            let Some(ordinal) = output_column(&item.expr, &cols)? else {
                return Err(Error::Unsupported(format!(
                    "ORDER BY on UNION must reference output columns, not {}",
                    item.expr
                )));
            };
            keys.push((ordinal, item.desc));
        }
        plan = Plan::Sort { input: Box::new(plan), keys };
    }
    if let Some(n) = q.limit {
        plan = Plan::Limit { input: Box::new(plan), n };
    }
    Ok(plan)
}

/// The output column an ORDER BY key names: an ordinal (`ORDER BY 2` is the
/// second column) or a bare name matching exactly one of `cols` (an alias
/// or a projected column name). `None` when the key is neither; an ordinal
/// outside `cols` is an error.
fn output_column(key: &Expr, cols: &[PlanCol]) -> Result<Option<usize>> {
    use idaa_common::Value;
    match key {
        Expr::Literal(v @ (Value::BigInt(_) | Value::Int(_) | Value::SmallInt(_))) => {
            let i = v.as_i64()?;
            match usize::try_from(i) {
                Ok(n) if (1..=cols.len()).contains(&n) => Ok(Some(n - 1)),
                _ => Err(Error::Parse(format!("ORDER BY position {i} out of range"))),
            }
        }
        Expr::Column { qualifier: None, name } => {
            let mut named = cols.iter().enumerate().filter(|(_, c)| c.name == *name);
            Ok(match (named.next(), named.next()) {
                (Some((i, _)), None) => Some(i),
                _ => None,
            })
        }
        _ => Ok(None),
    }
}

/// Plan one SELECT block (no unions).
fn plan_block(q: &Query, provider: &dyn SchemaProvider) -> Result<Plan> {
    let mut plan = match &q.from {
        Some(tr) => plan_table_ref(tr, provider)?,
        None => {
            // FROM-less SELECT: a single empty row.
            Plan::Scan { table: ObjectName::bare(PSEUDO_TABLE), alias: None, cols: vec![] }
        }
    };
    if let Some(pred) = &q.filter {
        if pred.contains_aggregate() {
            return Err(Error::Parse("aggregates are not allowed in WHERE".into()));
        }
        plan = Plan::Filter { input: Box::new(plan), predicate: pred.clone() };
        // Push single-sided WHERE conjuncts below joins: both engines compile
        // `Filter(Scan)` shapes to their best access path (indexes on the
        // host, zone-map-pruned kernels on the accelerator), and because the
        // rewrite lives in the shared planner, host/accelerator answer
        // agreement is preserved by construction.
        plan = push_filters_below_joins(plan);
    }

    let needs_agg = !q.group_by.is_empty()
        || q.projection.iter().any(|item| match item {
            SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
            _ => false,
        })
        || q.having.as_ref().map(|h| h.contains_aggregate()).unwrap_or(false);

    // Expand wildcards against the pre-aggregation columns.
    let input_cols = plan.cols();
    let mut proj: Vec<(Expr, Option<String>)> = Vec::new();
    for item in &q.projection {
        match item {
            SelectItem::Wildcard => {
                if needs_agg {
                    return Err(Error::Parse("SELECT * cannot be combined with GROUP BY".into()));
                }
                for c in &input_cols {
                    proj.push((
                        Expr::Column { qualifier: c.qualifier.clone(), name: c.name.clone() },
                        Some(c.name.clone()),
                    ));
                }
            }
            SelectItem::QualifiedWildcard(qual) => {
                let mut any = false;
                for c in input_cols.iter().filter(|c| c.qualifier.as_deref() == Some(qual)) {
                    proj.push((
                        Expr::Column { qualifier: c.qualifier.clone(), name: c.name.clone() },
                        Some(c.name.clone()),
                    ));
                    any = true;
                }
                if !any {
                    return Err(Error::UndefinedObject(format!("unknown qualifier {qual}.*")));
                }
            }
            SelectItem::Expr { expr, alias } => proj.push((expr.clone(), alias.clone())),
        }
    }

    // Output names come from the *original* projection (before aggregate
    // rewriting replaces calls with #AGG references).
    let orig_names: Vec<Option<String>> = proj
        .iter()
        .map(|(e, alias)| {
            alias.clone().or(match e {
                Expr::Column { name, .. } => Some(name.clone()),
                _ => None,
            })
        })
        .collect();

    let mut having = q.having.clone();
    let mut order_exprs: Vec<Expr> = q.order_by.iter().map(|o| o.expr.clone()).collect();
    if needs_agg {
        let (agg_plan, rewritten_proj, rewritten_having, rewritten_order) =
            plan_aggregate(plan, &q.group_by, proj, having, order_exprs)?;
        plan = agg_plan;
        proj = rewritten_proj;
        having = rewritten_having;
        order_exprs = rewritten_order;
    }
    if let Some(h) = having {
        if !needs_agg {
            return Err(Error::Parse("HAVING requires GROUP BY or aggregates".into()));
        }
        plan = Plan::Filter { input: Box::new(plan), predicate: h };
    }

    // Projection (visible columns).
    let in_cols = plan.cols();
    let mut out_cols = Vec::new();
    let mut exprs = Vec::new();
    for (i, (expr, _)) in proj.iter().enumerate() {
        let name = match &orig_names[i] {
            Some(n) => n.clone(),
            None => format!("C{}", i + 1),
        };
        let qualifier = match expr {
            Expr::Column { qualifier, .. } => qualifier.clone(),
            _ => None,
        };
        let data_type = infer_type(expr, &in_cols)?;
        out_cols.push(PlanCol::new(qualifier, name.clone(), data_type));
        exprs.push((expr.clone(), name));
    }
    let visible = exprs.len();

    // Resolve each ORDER BY key to an output ordinal; keys that reference
    // the projection's *input* (non-projected columns, computed keys) are
    // materialized as hidden columns appended to the projection.
    let mut sort_keys: Vec<(usize, bool)> = Vec::new();
    for (item, key_expr) in q.order_by.iter().zip(order_exprs) {
        let ordinal = match output_column(&key_expr, &out_cols[..visible])? {
            Some(i) => i,
            // Anything else is evaluated over the projection input as a
            // hidden column.
            None => {
                if q.distinct {
                    return Err(Error::Parse(
                        "with SELECT DISTINCT, ORDER BY must reference output columns".into(),
                    ));
                }
                let idx = exprs.len();
                let name = format!("#ORD{}", idx - visible);
                out_cols.push(PlanCol::new(None, name.clone(), infer_type(&key_expr, &in_cols)?));
                exprs.push((key_expr, name));
                idx
            }
        };
        sort_keys.push((ordinal, item.desc));
    }
    let hidden = exprs.len() - visible;
    plan = Plan::Project { input: Box::new(plan), exprs, cols: out_cols };

    if q.distinct {
        plan = Plan::Distinct { input: Box::new(plan) };
    }
    if !sort_keys.is_empty() {
        plan = Plan::Sort { input: Box::new(plan), keys: sort_keys };
    }
    if hidden > 0 {
        plan = Plan::KeepCols { input: Box::new(plan), n: visible };
    }
    if let Some(n) = q.limit {
        plan = Plan::Limit { input: Box::new(plan), n };
    }
    Ok(plan)
}

/// AND-fold a list of conjuncts back into one predicate.
fn and_all(conjs: Vec<Expr>) -> Option<Expr> {
    conjs.into_iter().reduce(|a, b| Expr::Binary {
        left: Box::new(a),
        op: crate::ast::BinaryOp::And,
        right: Box::new(b),
    })
}

/// Does `conj` bind cleanly (every column resolved, unambiguously) against
/// one join input's columns?
fn binds_against(conj: &Expr, cols: &[PlanCol]) -> bool {
    crate::eval::bind(conj, &resolver_of(cols)).is_ok()
}

/// Join predicate pushdown: move WHERE conjuncts that reference columns of
/// exactly one join input below the join, onto that input.
///
/// A conjunct is moved only when it binds against one side and *fails* to
/// bind against the other — conjuncts referencing both sides, ambiguous
/// unqualified names, or no columns at all stay above the join untouched.
/// For LEFT joins only the preserved (left) side accepts pushdown: filtering
/// the nullable side below the join would change null-extension semantics.
/// The rewrite recurses so multi-level join trees push predicates all the
/// way down to their scans.
pub fn push_filters_below_joins(plan: Plan) -> Plan {
    let (input, predicate) = match plan {
        Plan::Filter { input, predicate } => (input, predicate),
        other => return other,
    };
    let (left, right, kind, on) = match *input {
        Plan::Join { left, right, kind, on } => (left, right, kind, on),
        other => return Plan::Filter { input: Box::new(other), predicate },
    };
    let lcols = left.cols();
    let rcols = right.cols();
    let mut to_left: Vec<Expr> = Vec::new();
    let mut to_right: Vec<Expr> = Vec::new();
    let mut residual: Vec<Expr> = Vec::new();
    for conj in conjuncts(&predicate).into_iter().cloned() {
        let on_l = binds_against(&conj, &lcols);
        let on_r = binds_against(&conj, &rcols);
        if on_l && !on_r {
            to_left.push(conj);
        } else if on_r && !on_l && kind == JoinKind::Inner {
            to_right.push(conj);
        } else {
            residual.push(conj);
        }
    }
    let new_left = apply_pushed_filter(*left, to_left);
    let new_right = apply_pushed_filter(*right, to_right);
    let joined =
        Plan::Join { left: Box::new(new_left), right: Box::new(new_right), kind, on };
    match and_all(residual) {
        Some(p) => Plan::Filter { input: Box::new(joined), predicate: p },
        None => joined,
    }
}

/// Wrap `child` in the pushed conjuncts (merging with an existing filter so
/// scans keep their single fused `Filter(Scan)` shape), then keep pushing
/// through any join below.
fn apply_pushed_filter(child: Plan, preds: Vec<Expr>) -> Plan {
    let child = match and_all(preds) {
        None => child,
        Some(p) => match child {
            Plan::Filter { input, predicate } => Plan::Filter {
                input,
                predicate: Expr::Binary {
                    left: Box::new(predicate),
                    op: crate::ast::BinaryOp::And,
                    right: Box::new(p),
                },
            },
            other => Plan::Filter { input: Box::new(other), predicate: p },
        },
    };
    push_filters_below_joins(child)
}

fn plan_table_ref(tr: &TableRef, provider: &dyn SchemaProvider) -> Result<Plan> {
    match tr {
        TableRef::Table { name, alias } => {
            let schema = provider.table_schema(name)?;
            let qual = alias.clone().unwrap_or_else(|| name.name.clone());
            let cols = schema
                .columns()
                .iter()
                .map(|c| PlanCol::new(Some(qual.clone()), c.name.clone(), c.data_type))
                .collect();
            Ok(Plan::Scan { table: name.clone(), alias: alias.clone(), cols })
        }
        TableRef::Subquery { query, alias } => {
            let inner = plan_query(query, provider)?;
            // Re-qualify the subquery's outputs under the alias.
            let cols = inner
                .cols()
                .into_iter()
                .map(|c| PlanCol::new(Some(alias.clone()), c.name, c.data_type))
                .collect();
            let exprs = inner
                .cols()
                .into_iter()
                .map(|c| {
                    (
                        Expr::Column { qualifier: c.qualifier, name: c.name.clone() },
                        c.name,
                    )
                })
                .collect();
            Ok(Plan::Project { input: Box::new(inner), exprs, cols })
        }
        TableRef::Join { left, right, kind, on } => {
            let l = plan_table_ref(left, provider)?;
            let r = plan_table_ref(right, provider)?;
            Ok(Plan::Join { left: Box::new(l), right: Box::new(r), kind: *kind, on: on.clone() })
        }
    }
}

/// Build the Aggregate node and rewrite projection/having so that aggregate
/// calls and group expressions become column references into the aggregate's
/// output (`keys… then #AGG0…`).
#[allow(clippy::type_complexity)]
fn plan_aggregate(
    input: Plan,
    group_by: &[Expr],
    proj: Vec<(Expr, Option<String>)>,
    having: Option<Expr>,
    order_exprs: Vec<Expr>,
) -> Result<(Plan, Vec<(Expr, Option<String>)>, Option<Expr>, Vec<Expr>)> {
    let input_cols = input.cols();
    // Collect unique aggregate calls.
    let mut aggs: Vec<(Expr, AggCall)> = Vec::new();
    for (e, _) in &proj {
        collect_aggs(e, &mut aggs)?;
    }
    if let Some(h) = &having {
        collect_aggs(h, &mut aggs)?;
    }
    for e in &order_exprs {
        collect_aggs(e, &mut aggs)?;
    }

    // Output columns: group keys first (named after the expr when it is a
    // bare column, else KEY{i}), then one per aggregate.
    let mut cols = Vec::new();
    for (i, g) in group_by.iter().enumerate() {
        let (qualifier, name) = match g {
            Expr::Column { qualifier, name } => (qualifier.clone(), name.clone()),
            _ => (None, format!("#KEY{i}")),
        };
        cols.push(PlanCol::new(qualifier, name, infer_type(g, &input_cols)?));
    }
    for (i, (expr, _)) in aggs.iter().enumerate() {
        cols.push(PlanCol::new(None, format!("#AGG{i}"), infer_type(expr, &input_cols)?));
    }

    let plan = Plan::Aggregate {
        input: Box::new(input),
        group_exprs: group_by.to_vec(),
        aggs: aggs.iter().map(|(_, c)| c.clone()).collect(),
        cols,
    };

    let rewrite_all = |e: &Expr| -> Expr { rewrite_agg_expr(e, group_by, &aggs) };
    let proj = proj.into_iter().map(|(e, a)| (rewrite_all(&e), a)).collect();
    let having = having.map(|h| rewrite_all(&h));
    let order_exprs = order_exprs.iter().map(rewrite_all).collect();
    Ok((plan, proj, having, order_exprs))
}

fn collect_aggs(e: &Expr, out: &mut Vec<(Expr, AggCall)>) -> Result<()> {
    match e {
        Expr::Function { name, args, distinct } if is_aggregate_name(name) => {
            if args.iter().any(|a| a.contains_aggregate()) {
                return Err(Error::Parse("nested aggregate functions are not allowed".into()));
            }
            if args.len() > 1 {
                return Err(Error::Parse(format!("{name} takes at most one argument")));
            }
            let kind = AggregateKind::from_name(name, !args.is_empty())
                .ok_or_else(|| Error::Parse(format!("unknown aggregate {name}")))?;
            if !out.iter().any(|(seen, _)| seen == e) {
                out.push((
                    e.clone(),
                    AggCall { kind, arg: args.first().cloned(), distinct: *distinct },
                ));
            }
            Ok(())
        }
        Expr::Function { args, .. } => {
            args.iter().try_for_each(|a| collect_aggs(a, out))
        }
        Expr::Binary { left, right, .. } => {
            collect_aggs(left, out)?;
            collect_aggs(right, out)
        }
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Cast { expr, .. } => {
            collect_aggs(expr, out)
        }
        Expr::InList { expr, list, .. } => {
            collect_aggs(expr, out)?;
            list.iter().try_for_each(|e| collect_aggs(e, out))
        }
        Expr::Between { expr, low, high, .. } => {
            collect_aggs(expr, out)?;
            collect_aggs(low, out)?;
            collect_aggs(high, out)
        }
        Expr::Like { expr, pattern, .. } => {
            collect_aggs(expr, out)?;
            collect_aggs(pattern, out)
        }
        Expr::Case { operand, branches, else_result } => {
            if let Some(o) = operand {
                collect_aggs(o, out)?;
            }
            for (w, t) in branches {
                collect_aggs(w, out)?;
                collect_aggs(t, out)?;
            }
            if let Some(e) = else_result {
                collect_aggs(e, out)?;
            }
            Ok(())
        }
        Expr::Literal(_) | Expr::Column { .. } | Expr::Parameter(_) => Ok(()),
    }
}

/// Replace aggregate calls with `#AGGi` references and group-by expression
/// matches with references to the corresponding key output column.
fn rewrite_agg_expr(e: &Expr, group_by: &[Expr], aggs: &[(Expr, AggCall)]) -> Expr {
    if let Some(i) = aggs.iter().position(|(seen, _)| seen == e) {
        return Expr::Column { qualifier: None, name: format!("#AGG{i}") };
    }
    if let Some(i) = group_by.iter().position(|g| g == e) {
        return match &group_by[i] {
            Expr::Column { qualifier, name } => {
                Expr::Column { qualifier: qualifier.clone(), name: name.clone() }
            }
            _ => Expr::Column { qualifier: None, name: format!("#KEY{i}") },
        };
    }
    match e {
        Expr::Binary { left, op, right } => Expr::Binary {
            left: Box::new(rewrite_agg_expr(left, group_by, aggs)),
            op: *op,
            right: Box::new(rewrite_agg_expr(right, group_by, aggs)),
        },
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(rewrite_agg_expr(expr, group_by, aggs)),
        },
        Expr::Function { name, args, distinct } => Expr::Function {
            name: name.clone(),
            args: args.iter().map(|a| rewrite_agg_expr(a, group_by, aggs)).collect(),
            distinct: *distinct,
        },
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(rewrite_agg_expr(expr, group_by, aggs)),
            negated: *negated,
        },
        Expr::InList { expr, list, negated } => Expr::InList {
            expr: Box::new(rewrite_agg_expr(expr, group_by, aggs)),
            list: list.iter().map(|e| rewrite_agg_expr(e, group_by, aggs)).collect(),
            negated: *negated,
        },
        Expr::Between { expr, low, high, negated } => Expr::Between {
            expr: Box::new(rewrite_agg_expr(expr, group_by, aggs)),
            low: Box::new(rewrite_agg_expr(low, group_by, aggs)),
            high: Box::new(rewrite_agg_expr(high, group_by, aggs)),
            negated: *negated,
        },
        Expr::Like { expr, pattern, negated } => Expr::Like {
            expr: Box::new(rewrite_agg_expr(expr, group_by, aggs)),
            pattern: Box::new(rewrite_agg_expr(pattern, group_by, aggs)),
            negated: *negated,
        },
        Expr::Case { operand, branches, else_result } => Expr::Case {
            operand: operand
                .as_ref()
                .map(|o| Box::new(rewrite_agg_expr(o, group_by, aggs))),
            branches: branches
                .iter()
                .map(|(w, t)| {
                    (rewrite_agg_expr(w, group_by, aggs), rewrite_agg_expr(t, group_by, aggs))
                })
                .collect(),
            else_result: else_result
                .as_ref()
                .map(|e| Box::new(rewrite_agg_expr(e, group_by, aggs))),
        },
        Expr::Cast { expr, data_type } => Expr::Cast {
            expr: Box::new(rewrite_agg_expr(expr, group_by, aggs)),
            data_type: *data_type,
        },
        Expr::Literal(_) | Expr::Column { .. } | Expr::Parameter(_) => e.clone(),
    }
}

/// Infer the result type of `expr` over `cols`.
pub fn infer_type(expr: &Expr, cols: &[PlanCol]) -> Result<DataType> {
    Ok(match expr {
        Expr::Literal(v) => v.data_type().unwrap_or(DataType::Varchar(1)),
        Expr::Column { qualifier, name } => {
            let mut matches = cols.iter().filter(|c| {
                c.name == *name
                    && match qualifier {
                        Some(q) => c.qualifier.as_deref() == Some(q.as_str()),
                        None => true,
                    }
            });
            let first = matches.next().ok_or_else(|| {
                Error::UndefinedColumn(format!(
                    "column {}{name} not found",
                    qualifier.as_ref().map(|q| format!("{q}.")).unwrap_or_default()
                ))
            })?;
            // Ambiguity is diagnosed at bind time; for typing take the first.
            first.data_type
        }
        Expr::Binary { left, op, right } => {
            use crate::ast::BinaryOp::*;
            match op {
                Or | And | Eq | Neq | Lt | LtEq | Gt | GtEq => DataType::Boolean,
                Concat => DataType::Varchar(255),
                Add | Sub | Mul | Div | Mod => {
                    let lt = infer_type(left, cols)?;
                    let rt = infer_type(right, cols)?;
                    if lt == DataType::Date && rt.is_integer() {
                        DataType::Date
                    } else if lt.is_numeric() && rt.is_numeric() {
                        // Integer family unifies to BIGINT at runtime.
                        let u = DataType::unify(lt, rt)?;
                        if u.is_integer() {
                            DataType::BigInt
                        } else {
                            u
                        }
                    } else {
                        return Err(Error::TypeMismatch(format!(
                            "arithmetic between {lt} and {rt}"
                        )));
                    }
                }
            }
        }
        Expr::Unary { op: crate::ast::UnaryOp::Not, .. } => DataType::Boolean,
        Expr::Unary { op: crate::ast::UnaryOp::Neg, expr } => infer_type(expr, cols)?,
        Expr::Function { name, args, .. } => match name.as_str() {
            "COUNT" => DataType::BigInt,
            "SUM" => {
                let t = infer_type(&args[0], cols)?;
                if t.is_integer() {
                    DataType::BigInt
                } else {
                    t
                }
            }
            "AVG" | "STDDEV" | "VARIANCE" | "SQRT" | "LN" | "EXP" | "POWER" | "FLOOR" | "CEIL"
            | "CEILING" | "ROUND" => DataType::Double,
            "MIN" | "MAX" | "ABS" | "COALESCE" | "VALUE" => infer_type(&args[0], cols)?,
            "MOD" => DataType::BigInt,
            "LENGTH" | "YEAR" | "MONTH" | "DAY" => DataType::Integer,
            "UPPER" | "LOWER" | "UCASE" | "LCASE" | "TRIM" | "STRIP" | "SUBSTR" | "SUBSTRING" => {
                DataType::Varchar(255)
            }
            _ => DataType::Varchar(255),
        },
        Expr::IsNull { .. } | Expr::InList { .. } | Expr::Between { .. } | Expr::Like { .. } => {
            DataType::Boolean
        }
        Expr::Case { branches, else_result, .. } => {
            let mut t: Option<DataType> = None;
            for (_, then) in branches {
                let bt = infer_type(then, cols)?;
                t = Some(match t {
                    None => bt,
                    Some(prev) => DataType::unify(prev, bt).unwrap_or(prev),
                });
            }
            if let Some(e) = else_result {
                let et = infer_type(e, cols)?;
                t = Some(match t {
                    None => et,
                    Some(prev) => DataType::unify(prev, et).unwrap_or(prev),
                });
            }
            t.unwrap_or(DataType::Varchar(1))
        }
        Expr::Cast { data_type, .. } => *data_type,
        Expr::Parameter(_) => DataType::Varchar(255),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_statement;
    use crate::Statement;
    use idaa_common::ColumnDef;

    struct Fixed;

    impl SchemaProvider for Fixed {
        fn table_schema(&self, name: &ObjectName) -> Result<Schema> {
            match name.name.as_str() {
                "T" => Schema::new(vec![
                    ColumnDef::new("A", DataType::Integer),
                    ColumnDef::new("B", DataType::Varchar(20)),
                    ColumnDef::new("C", DataType::Double),
                ]),
                "S" => Schema::new(vec![
                    ColumnDef::new("A", DataType::Integer),
                    ColumnDef::new("D", DataType::Date),
                ]),
                other => Err(Error::UndefinedObject(other.to_string())),
            }
        }
    }

    fn plan(sql: &str) -> Plan {
        let Statement::Query(q) = parse_statement(sql).unwrap() else { panic!() };
        plan_query(&q, &Fixed).unwrap()
    }

    fn plan_err(sql: &str) -> Error {
        let Statement::Query(q) = parse_statement(sql).unwrap() else { panic!() };
        plan_query(&q, &Fixed).unwrap_err()
    }

    #[test]
    fn simple_select_star() {
        let p = plan("SELECT * FROM t");
        let cols = p.cols();
        assert_eq!(cols.len(), 3);
        assert_eq!(cols[0].name, "A");
        assert_eq!(cols[0].data_type, DataType::Integer);
    }

    #[test]
    fn projection_names_and_types() {
        let p = plan("SELECT a + 1 AS next, b, c * 2 FROM t");
        let cols = p.cols();
        assert_eq!(cols[0].name, "NEXT");
        assert_eq!(cols[0].data_type, DataType::BigInt);
        assert_eq!(cols[1].name, "B");
        assert_eq!(cols[2].name, "C3");
        assert_eq!(cols[2].data_type, DataType::Double);
    }

    #[test]
    fn join_merges_columns() {
        let p = plan("SELECT t.a, s.d FROM t INNER JOIN s ON t.a = s.a");
        assert_eq!(p.tables().len(), 2);
        let cols = p.cols();
        assert_eq!(cols.len(), 2);
        assert_eq!(cols[1].data_type, DataType::Date);
    }

    #[test]
    fn join_pushdown_moves_single_sided_conjuncts() {
        let p = plan(
            "SELECT t.a FROM t INNER JOIN s ON t.a = s.a \
             WHERE t.c > 1 AND s.a = 3 AND t.a < s.a",
        );
        let Plan::Project { input, .. } = &p else { panic!("{p:?}") };
        // Residual keeps only the two-sided conjunct above the join.
        let Plan::Filter { input: join, predicate } = input.as_ref() else { panic!("{input:?}") };
        assert_eq!(predicate.to_string(), "(T.A < S.A)");
        let Plan::Join { left, right, .. } = join.as_ref() else { panic!("{join:?}") };
        let Plan::Filter { input: lscan, predicate: lp } = left.as_ref() else {
            panic!("left not filtered: {left:?}")
        };
        assert!(matches!(lscan.as_ref(), Plan::Scan { .. }));
        assert_eq!(lp.to_string(), "(T.C > 1)");
        let Plan::Filter { input: rscan, predicate: rp } = right.as_ref() else {
            panic!("right not filtered: {right:?}")
        };
        assert!(matches!(rscan.as_ref(), Plan::Scan { .. }));
        assert_eq!(rp.to_string(), "(S.A = 3)");
    }

    #[test]
    fn join_pushdown_never_moves_two_sided_or_ambiguous_conjuncts() {
        // Unqualified A exists on both sides: ambiguous, must stay above.
        let p = plan("SELECT t.b FROM t INNER JOIN s ON t.a = s.a WHERE a = 5");
        let Plan::Project { input, .. } = &p else { panic!("{p:?}") };
        let Plan::Filter { input: join, predicate } = input.as_ref() else { panic!("{input:?}") };
        assert_eq!(predicate.to_string(), "(A = 5)");
        let Plan::Join { left, right, .. } = join.as_ref() else { panic!("{join:?}") };
        assert!(matches!(left.as_ref(), Plan::Scan { .. }));
        assert!(matches!(right.as_ref(), Plan::Scan { .. }));
    }

    #[test]
    fn left_join_pushdown_only_touches_preserved_side() {
        let p = plan(
            "SELECT t.a FROM t LEFT JOIN s ON t.a = s.a WHERE t.c > 1 AND s.d IS NULL",
        );
        let Plan::Project { input, .. } = &p else { panic!("{p:?}") };
        // The nullable-side conjunct must stay above the join (pushing it
        // below would change null-extension semantics)…
        let Plan::Filter { input: join, predicate } = input.as_ref() else { panic!("{input:?}") };
        assert_eq!(predicate.to_string(), "(S.D IS NULL)");
        let Plan::Join { left, right, .. } = join.as_ref() else { panic!("{join:?}") };
        // …while the preserved-side conjunct still pushes down.
        let Plan::Filter { predicate: lp, .. } = left.as_ref() else { panic!("{left:?}") };
        assert_eq!(lp.to_string(), "(T.C > 1)");
        assert!(matches!(right.as_ref(), Plan::Scan { .. }));
    }

    #[test]
    fn join_pushdown_recurses_into_nested_joins() {
        let p = plan(
            "SELECT t.a FROM t INNER JOIN s ON t.a = s.a \
             INNER JOIN t AS u ON s.a = u.a WHERE u.c > 9 AND t.b = 'x'",
        );
        let Plan::Project { input, .. } = &p else { panic!("{p:?}") };
        // Both conjuncts are single-sided: nothing remains above the join.
        let Plan::Join { left, right, .. } = input.as_ref() else { panic!("{input:?}") };
        let Plan::Filter { predicate: up, .. } = right.as_ref() else { panic!("{right:?}") };
        assert_eq!(up.to_string(), "(U.C > 9)");
        // t.b = 'x' pushed through the outer join into the inner one.
        let Plan::Join { left: t_side, .. } = left.as_ref() else { panic!("{left:?}") };
        let Plan::Filter { predicate: tp, .. } = t_side.as_ref() else { panic!("{t_side:?}") };
        assert_eq!(tp.to_string(), "(T.B = 'x')");
    }

    #[test]
    fn aggregate_rewrites() {
        let p = plan("SELECT b, SUM(a) + 1, COUNT(*) FROM t GROUP BY b HAVING SUM(a) > 5");
        // Shape: Project <- Filter(having) <- Aggregate <- Scan
        let Plan::Project { input, exprs, .. } = &p else { panic!("{p:?}") };
        assert!(exprs[1].0.to_string().contains("#AGG0"));
        let Plan::Filter { input, predicate } = input.as_ref() else { panic!() };
        assert!(predicate.to_string().contains("#AGG0"));
        assert!(matches!(input.as_ref(), Plan::Aggregate { .. }));
    }

    #[test]
    fn aggregate_dedup() {
        let p = plan("SELECT SUM(a), SUM(a) * 2 FROM t");
        let Plan::Project { input, .. } = &p else { panic!() };
        let Plan::Aggregate { aggs, .. } = input.as_ref() else { panic!() };
        assert_eq!(aggs.len(), 1);
    }

    #[test]
    fn group_by_expression_key() {
        let p = plan("SELECT a % 10, COUNT(*) FROM t GROUP BY a % 10");
        let Plan::Project { exprs, .. } = &p else { panic!() };
        assert_eq!(exprs[0].0.to_string(), "#KEY0");
    }

    #[test]
    fn count_star_type() {
        let p = plan("SELECT COUNT(*) FROM t");
        assert_eq!(p.cols()[0].data_type, DataType::BigInt);
    }

    #[test]
    fn subquery_requalifies() {
        let p = plan("SELECT x FROM (SELECT a AS x FROM t) AS sub");
        assert_eq!(p.cols()[0].name, "X");
        assert_eq!(p.cols()[0].data_type, DataType::Integer);
    }

    #[test]
    fn order_by_position() {
        let p = plan("SELECT a, b FROM t ORDER BY 2 DESC");
        let Plan::Sort { keys, .. } = &p else { panic!() };
        assert_eq!(keys[0], (1, true));
    }

    #[test]
    fn order_by_non_projected_column_uses_hidden_key() {
        let p = plan("SELECT a FROM t ORDER BY c");
        let Plan::KeepCols { input, n } = &p else { panic!("{p:?}") };
        assert_eq!(*n, 1);
        let Plan::Sort { keys, .. } = input.as_ref() else { panic!() };
        assert_eq!(keys[0], (1, false));
        assert_eq!(p.cols().len(), 1);
    }

    #[test]
    fn order_by_aggregate() {
        let p = plan("SELECT b FROM t GROUP BY b ORDER BY SUM(a) DESC");
        let Plan::KeepCols { input, .. } = &p else { panic!("{p:?}") };
        let Plan::Sort { keys, .. } = input.as_ref() else { panic!() };
        assert_eq!(keys[0], (1, true));
    }

    #[test]
    fn order_by_alias() {
        let p = plan("SELECT a AS x FROM t ORDER BY x");
        let Plan::Sort { keys, .. } = &p else { panic!("{p:?}") };
        assert_eq!(keys[0], (0, false));
    }

    #[test]
    fn distinct_with_hidden_order_key_rejected() {
        assert!(matches!(plan_err("SELECT DISTINCT a FROM t ORDER BY c"), Error::Parse(_)));
    }

    #[test]
    fn order_by_position_out_of_range() {
        assert!(matches!(plan_err("SELECT a FROM t ORDER BY 3"), Error::Parse(_)));
        let union = "SELECT a FROM t UNION SELECT a FROM s ORDER BY";
        assert!(matches!(plan_err(&format!("{union} 2")), Error::Parse(_)));
        assert!(matches!(plan_err(&format!("{union} 0")), Error::Parse(_)));
    }

    #[test]
    fn distinct_and_limit_nodes() {
        let p = plan("SELECT DISTINCT a FROM t LIMIT 5");
        let Plan::Limit { input, n } = &p else { panic!() };
        assert_eq!(*n, 5);
        assert!(matches!(input.as_ref(), Plan::Distinct { .. }));
    }

    #[test]
    fn where_with_aggregate_rejected() {
        assert!(matches!(plan_err("SELECT a FROM t WHERE SUM(a) > 1"), Error::Parse(_)));
    }

    #[test]
    fn having_without_group_rejected() {
        // HAVING with aggregate is fine (implicit global group); HAVING on a
        // plain query is not.
        assert!(plan_err("SELECT a FROM t HAVING a > 1").to_string().contains("HAVING"));
    }

    #[test]
    fn star_with_group_by_rejected() {
        assert!(matches!(plan_err("SELECT * FROM t GROUP BY a"), Error::Parse(_)));
    }

    #[test]
    fn unknown_table_and_column() {
        assert!(matches!(plan_err("SELECT a FROM missing"), Error::UndefinedObject(_)));
        assert!(matches!(plan_err("SELECT zzz FROM t"), Error::UndefinedColumn(_)));
    }

    #[test]
    fn nested_aggregates_rejected() {
        assert!(matches!(plan_err("SELECT SUM(COUNT(*)) FROM t"), Error::Parse(_)));
    }

    #[test]
    fn type_inference_cases() {
        let p = plan("SELECT CASE WHEN a > 1 THEN 1.5 ELSE 2.5 END FROM t");
        assert!(matches!(p.cols()[0].data_type, DataType::Decimal(_, _)));
        let p = plan("SELECT CAST(a AS VARCHAR(8)) FROM t");
        assert_eq!(p.cols()[0].data_type, DataType::Varchar(8));
        let p = plan("SELECT a IS NULL FROM t");
        assert_eq!(p.cols()[0].data_type, DataType::Boolean);
    }
}
