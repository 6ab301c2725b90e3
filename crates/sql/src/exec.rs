//! The plan operators every row executor shares, and the one walk over a
//! [`Plan`] that runs them.
//!
//! One operator per [`Plan`] node, plain and serial over materialized rows:
//! [`apply`] for the single-input nodes, [`hash_join`] under a bound
//! [`JoinSpec`], [`dedup`] for `DISTINCT`/`UNION`, a stable sort and
//! [`merge_runs`], and grouped aggregation ([`aggregate`], [`merge_groups`],
//! [`finish_groups`]). One Volcano-style walk, [`run`], calls them for DB2,
//! the accelerator and the fleet coordinator alike, so they give one answer
//! by construction. What differs between them is the [`RowSource`]: its one
//! hook may answer any sub-plan itself, and the walk descends wherever it
//! does not.
//!
//! * DB2 (`idaa-host`) answers scans from its heaps and a `Filter` directly
//!   over a `Scan` through a B-tree index when one serves. It is
//!   deliberately a *row* engine: every operator touches full rows and
//!   expressions are interpreted per row — the cost model the accelerator's
//!   columnar engine is compared against;
//! * the accelerator (`idaa-accel`) answers each sub-plan its lowering
//!   streams with a pipeline, and every other scan with its compiled scan.
//!   The walk hands it the columns the caller reads ([`input_mask`]), so an
//!   unread column is never decoded;
//! * the fleet coordinator (`idaa-core`) answers a scatter cut with the
//!   shards' merged partial, and scans with the rows it gathered.
//!
//! A new `Plan` node is one operator here (plus a pipeline stage in
//! `idaa-accel` if it should vectorize); every `Plan` match is exhaustive,
//! so the compiler lists the rest.

use crate::ast::{BinaryOp, Expr, JoinKind};
use crate::eval::{bind, eval, eval_predicate, AggState, BoundExpr, FlatResolver};
use crate::plan::{is_pseudo_table, AggCall, Plan, PlanCol, PlanProfile};
use idaa_common::{Error, Result, Row, Rows, Value};
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};

/// Where [`run`] gets rows from.
pub trait RowSource {
    /// The rows of `plan`, if this source answers that sub-plan itself;
    /// `None` makes the walk run the node's operator over its children.
    /// `needed[i] == false` means no caller reads output column `i`, so it
    /// may be left NULL (`None`: every column is read). A `Scan` no source
    /// answers is an internal error.
    fn node(&self, plan: &Plan, needed: Option<&[bool]>) -> Result<Option<Vec<Row>>>;
}

/// Execute `plan` against `src`, producing a materialized result.
pub fn execute_plan(plan: &Plan, src: &dyn RowSource) -> Result<Rows> {
    Ok(Rows::new(plan.schema(), run(plan, src, None, None)?))
}

/// Like [`execute_plan`], recording each node's output cardinality into
/// `profile` (for `EXPLAIN ANALYZE` / tracing).
pub fn execute_plan_profiled(
    plan: &Plan,
    src: &dyn RowSource,
    profile: &PlanProfile,
) -> Result<Rows> {
    Ok(Rows::new(plan.schema(), run(plan, src, None, Some(profile))?))
}

/// The walk: the rows of `plan`, of which the caller reads the `needed`
/// columns. The source answers the node, or its operator runs over its
/// children's rows; either way, when profiling, the node's output
/// cardinality is recorded on the way out.
pub fn run(
    plan: &Plan,
    src: &dyn RowSource,
    needed: Option<&[bool]>,
    prof: Option<&PlanProfile>,
) -> Result<Vec<Row>> {
    let rows = match plan {
        // FROM-less SELECT evaluates over one empty row.
        Plan::Scan { table, .. } if is_pseudo_table(table) => vec![vec![]],
        _ => match src.node(plan, needed)? {
            Some(rows) => rows,
            None => run_operator(plan, src, needed, prof)?,
        },
    };
    if let Some(prof) = prof {
        prof.record(plan, rows.len() as u64);
    }
    Ok(rows)
}

/// `plan`'s own operator over its children, each run by the walk.
fn run_operator(
    plan: &Plan,
    src: &dyn RowSource,
    needed: Option<&[bool]>,
    prof: Option<&PlanProfile>,
) -> Result<Vec<Row>> {
    match plan {
        Plan::Scan { .. } => Err(Error::internal(format!("no row source answers {}", plan.label()))),
        Plan::Join { left, right, kind, on } => {
            let spec = JoinSpec::bind(left, right, on)?;
            let lwidth = left.cols().len();
            // Each side reads what the caller reads of it plus what the ON
            // predicate (keys and residual conjuncts alike) reads.
            let (lmask, rmask) = match needed {
                None => (None, None),
                Some(m) => {
                    let mut l = union_mask(m, &mask_of(lwidth + right.cols().len(), [&spec.on]));
                    let r = l.split_off(lwidth);
                    (Some(l), Some(r))
                }
            };
            // Build side (right) first, like the pipeline's probe stage.
            let rrows = run(right, src, rmask.as_deref(), prof)?;
            let lrows = run(left, src, lmask.as_deref(), prof)?;
            hash_join(&lrows, &rrows, &spec, *kind, right.cols().len())
        }
        Plan::Union { left, right, all } => {
            // Plain UNION dedups on full rows, so branches must materialize
            // every column; UNION ALL can push the caller's mask through.
            let needed = if *all { needed } else { None };
            let mut rows = run(left, src, needed, prof)?;
            rows.extend(run(right, src, needed, prof)?);
            Ok(if *all { rows } else { dedup(rows) })
        }
        Plan::Filter { input, .. }
        | Plan::Project { input, .. }
        | Plan::Aggregate { input, .. }
        | Plan::Sort { input, .. }
        | Plan::Distinct { input }
        | Plan::Limit { input, .. }
        | Plan::KeepCols { input, .. } => {
            apply(plan, run(input, src, input_mask(plan, needed)?.as_deref(), prof)?)
        }
    }
}

/// What a single-input node reads of its input's columns, given what its
/// caller reads of its own (`None`: every column).
pub fn input_mask(plan: &Plan, needed: Option<&[bool]>) -> Result<Option<Vec<bool>>> {
    let Some(input) = plan.children().first().map(|c| c.cols()) else {
        return Ok(needed.map(<[bool]>::to_vec));
    };
    let width = input.len();
    let resolver = FlatResolver::new(input.into_iter().map(|c| (c.qualifier, c.name)).collect());
    let reads = |exprs: &mut dyn Iterator<Item = &Expr>| -> Result<Vec<bool>> {
        let bound: Vec<BoundExpr> = exprs.map(|e| bind(e, &resolver)).collect::<Result<_>>()?;
        Ok(mask_of(width, &bound))
    };
    // What the caller reads, widened to the input, plus what `plan` reads.
    let plus = |own: Vec<bool>| needed.map(|m| union_mask(m, &own));
    Ok(match plan {
        Plan::Filter { predicate, .. } if needed.is_some() => {
            plus(reads(&mut std::iter::once(predicate))?)
        }
        Plan::Project { exprs, .. } => Some(reads(&mut exprs.iter().map(|(e, _)| e))?),
        Plan::Aggregate { group_exprs, aggs, .. } => {
            Some(reads(&mut group_exprs.iter().chain(aggs.iter().filter_map(|a| a.arg.as_ref())))?)
        }
        Plan::Sort { keys, .. } => plus((0..width).map(|i| keys.iter().any(|k| k.0 == i)).collect()),
        Plan::KeepCols { .. } => plus(vec![false; width]),
        // Row-level dedup reads every column: no pushdown through here.
        Plan::Distinct { .. } => None,
        _ => needed.map(<[bool]>::to_vec),
    })
}

/// Union the column ordinals of `bound` into a mask over `width` columns.
pub fn mask_of<'e>(width: usize, bound: impl IntoIterator<Item = &'e BoundExpr>) -> Vec<bool> {
    let mut set = HashSet::new();
    for b in bound {
        b.collect_columns(&mut set);
    }
    (0..width).map(|i| set.contains(&i)).collect()
}

/// `a` or `b` per column, over `b`'s width.
pub fn union_mask(a: &[bool], b: &[bool]) -> Vec<bool> {
    b.iter().enumerate().map(|(i, y)| *y || a.get(i).copied().unwrap_or(false)).collect()
}

/// The comparison `a OP b` as `b OP' a`; `None` for anything else.
pub fn flip(op: BinaryOp) -> Option<BinaryOp> {
    Some(match op {
        BinaryOp::Eq => BinaryOp::Eq,
        BinaryOp::Neq => BinaryOp::Neq,
        BinaryOp::Lt => BinaryOp::Gt,
        BinaryOp::LtEq => BinaryOp::GtEq,
        BinaryOp::Gt => BinaryOp::Lt,
        BinaryOp::GtEq => BinaryOp::LtEq,
        _ => return None,
    })
}

/// Split a predicate into its AND-ed conjuncts.
pub fn conjuncts(e: &Expr) -> Vec<&Expr> {
    match e {
        Expr::Binary { left, op: BinaryOp::And, right } => {
            let mut out = conjuncts(left);
            out.extend(conjuncts(right));
            out
        }
        other => vec![other],
    }
}

/// The conjunction of `conjs`, bound (`None` when there are none).
pub fn bind_all(conjs: Vec<&Expr>, resolver: &FlatResolver) -> Result<Option<BoundExpr>> {
    conjs
        .into_iter()
        .cloned()
        .reduce(|a, b| Expr::Binary { left: Box::new(a), op: BinaryOp::And, right: Box::new(b) })
        .map(|combined| bind(&combined, resolver))
        .transpose()
}

/// Name resolution over a node's output columns.
pub fn resolver_of(cols: &[PlanCol]) -> FlatResolver {
    FlatResolver::new(cols.iter().map(|c| (c.qualifier.clone(), c.name.clone())).collect())
}

/// One single-input node's operator over its input's rows.
pub fn apply(plan: &Plan, mut rows: Vec<Row>) -> Result<Vec<Row>> {
    let bind_on = |input: &Plan, e: &Expr| bind(e, &resolver_of(&input.cols()));
    match plan {
        Plan::Filter { input, predicate } => {
            let bound = bind_on(input, predicate)?;
            let mut kept = Vec::with_capacity(rows.len());
            for row in rows {
                if eval_predicate(&bound, &row)? {
                    kept.push(row);
                }
            }
            Ok(kept)
        }
        Plan::Project { input, exprs, .. } => {
            let bound: Vec<BoundExpr> =
                exprs.iter().map(|(e, _)| bind_on(input, e)).collect::<Result<_>>()?;
            rows.iter().map(|row| bound.iter().map(|b| eval(b, row)).collect()).collect()
        }
        Plan::Aggregate { input, group_exprs, aggs, .. } => {
            finish_groups(aggregate(input, group_exprs, aggs, &rows)?, !group_exprs.is_empty(), aggs)
        }
        Plan::Sort { keys, .. } => {
            // A stable sort: the oracle every sort / top-K sink is held to.
            rows.sort_by(sort_cmp(keys));
            Ok(rows)
        }
        Plan::Distinct { .. } => Ok(dedup(rows)),
        Plan::Limit { n, .. } => {
            rows.truncate(*n as usize);
            Ok(rows)
        }
        Plan::KeepCols { n, .. } => {
            rows.iter_mut().for_each(|row| row.truncate(*n));
            Ok(rows)
        }
        Plan::Scan { .. } | Plan::Join { .. } | Plan::Union { .. } => {
            Err(Error::internal(format!("{} is not a single-input operator", plan.label())))
        }
    }
}

/// First occurrences of each distinct row, in input order.
pub fn dedup(mut rows: Vec<Row>) -> Vec<Row> {
    let mut seen: HashSet<Row> = HashSet::with_capacity(rows.len());
    rows.retain(|r| seen.insert(r.clone()));
    rows
}

/// Comparator over `Plan::Sort` keys (shared by the row sort and the run
/// merge).
fn sort_cmp(keys: &[(usize, bool)]) -> impl Fn(&Row, &Row) -> Ordering + Sync + '_ {
    move |a, b| {
        for (i, desc) in keys {
            let o = a[*i].cmp_total(&b[*i]);
            let o = if *desc { o.reverse() } else { o };
            if o != Ordering::Equal {
                return o;
            }
        }
        Ordering::Equal
    }
}

/// K-way merge of runs that are each sorted by `keys`, breaking ties toward
/// the earliest run — with stably sorted runs of consecutive input, exactly
/// a stable sort of their concatenation.
pub fn merge_runs(mut runs: Vec<Vec<Row>>, keys: &[(usize, bool)]) -> Vec<Row> {
    runs.retain(|r| !r.is_empty());
    if runs.len() <= 1 {
        return runs.pop().unwrap_or_default();
    }
    let cmp = sort_cmp(keys);
    let mut cursors = vec![0usize; runs.len()];
    let mut out = Vec::with_capacity(runs.iter().map(Vec::len).sum());
    loop {
        let mut best: Option<usize> = None;
        for ri in 0..runs.len() {
            if cursors[ri] >= runs[ri].len() {
                continue;
            }
            best = match best {
                Some(b) if cmp(&runs[ri][cursors[ri]], &runs[b][cursors[b]]) != Ordering::Less => {
                    Some(b)
                }
                _ => Some(ri),
            };
        }
        let Some(b) = best else { return out };
        out.push(std::mem::take(&mut runs[b][cursors[b]]));
        cursors[b] += 1;
    }
}

/// A join's static decisions, bound once: the ON predicate split into
/// equi-key pairs per side and the conjuncts left over. [`hash_join`] runs
/// from it; the accelerator also describes it in `EXPLAIN` and lowers its
/// pipeline probe stage from the same value.
#[derive(Debug)]
pub struct JoinSpec {
    pub lkeys: Vec<BoundExpr>,
    pub rkeys: Vec<BoundExpr>,
    /// The whole ON predicate over the concatenated (left, right) row.
    pub on: BoundExpr,
    /// The ON conjuncts that are not equi-key pairs, over the concatenated
    /// row; `None` when key equality is the whole predicate.
    pub residual: Option<BoundExpr>,
}

impl JoinSpec {
    /// Split `on` over the rows of `left` and `right`, binding every part.
    pub fn bind(left: &Plan, right: &Plan, on: &Expr) -> Result<JoinSpec> {
        let (lres, rres) = (resolver_of(&left.cols()), resolver_of(&right.cols()));
        let both = lres.concat(&rres);
        let (mut lkeys, mut rkeys, mut rest) = (Vec::new(), Vec::new(), Vec::new());
        for conj in conjuncts(on) {
            let pair = match conj {
                Expr::Binary { left: a, op: BinaryOp::Eq, right: b } => {
                    match (bind(a, &lres), bind(b, &rres)) {
                        (Ok(l), Ok(r)) => Some((l, r)),
                        _ => bind(b, &lres).ok().zip(bind(a, &rres).ok()),
                    }
                }
                _ => None,
            };
            match pair {
                Some((l, r)) => {
                    lkeys.push(l);
                    rkeys.push(r);
                }
                None => rest.push(conj),
            }
        }
        let residual = bind_all(rest, &both)?;
        Ok(JoinSpec { lkeys, rkeys, on: bind(on, &both)?, residual })
    }
}

/// The row join: build rows indexed by key tuple (`Value` equality; a NULL
/// key never joins), probe rows in input order, each matched against its
/// candidates in build order, kept when the residual ON conjuncts hold; an
/// unmatched LEFT probe row null-extends in place. Without equi-key pairs
/// every build row is a candidate: a nested loop.
pub fn hash_join(
    lrows: &[Row],
    rrows: &[Row],
    spec: &JoinSpec,
    kind: JoinKind,
    rwidth: usize,
) -> Result<Vec<Row>> {
    let key = |keys: &[BoundExpr], row: &Row| -> Result<Option<Vec<Value>>> {
        let key: Vec<Value> = keys.iter().map(|k| eval(k, row)).collect::<Result<_>>()?;
        Ok((!key.iter().any(Value::is_null)).then_some(key))
    };
    let mut index: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
    for (i, row) in rrows.iter().enumerate() {
        if let Some(k) = key(&spec.rkeys, row)? {
            index.entry(k).or_default().push(i);
        }
    }
    let mut out = Vec::new();
    for lrow in lrows {
        let mut matched = false;
        let cands = key(&spec.lkeys, lrow)?.and_then(|k| index.get(&k));
        for &ri in cands.into_iter().flatten() {
            let mut j = lrow.clone();
            j.extend(rrows[ri].iter().cloned());
            if spec.residual.as_ref().map_or(Ok(true), |r| eval_predicate(r, &j))? {
                matched = true;
                out.push(j);
            }
        }
        if !matched && kind == JoinKind::Left {
            let mut j = lrow.clone();
            j.extend(std::iter::repeat_n(Value::Null, rwidth));
            out.push(j);
        }
    }
    Ok(out)
}

/// Grouped aggregation state: insertion-ordered groups. Insertion order is
/// what makes partials deterministic — merging per-slice or per-shard
/// groups in order reproduces the serial first-encounter group order
/// exactly.
pub type Groups = Vec<(Vec<Value>, Vec<AggState>)>;

/// One fresh state per aggregate call.
pub fn new_states(aggs: &[AggCall]) -> Vec<AggState> {
    aggs.iter().map(|a| AggState::new(a.kind, a.distinct)).collect()
}

/// Fold partial groups together in part order.
pub fn merge_groups(parts: Vec<Groups>) -> Result<Groups> {
    let mut iter = parts.into_iter();
    let mut acc = iter.next().unwrap_or_default();
    let mut index: HashMap<Vec<Value>, usize> =
        acc.iter().enumerate().map(|(i, (k, _))| (k.clone(), i)).collect();
    for part in iter {
        for (key, states) in part {
            match index.get(&key) {
                Some(&i) => {
                    for (a, b) in acc[i].1.iter_mut().zip(&states) {
                        a.merge(b)?;
                    }
                }
                None => {
                    index.insert(key.clone(), acc.len());
                    acc.push((key, states));
                }
            }
        }
    }
    Ok(acc)
}

/// Turn finished groups into output rows (`key columns… then aggregates…`);
/// without GROUP BY keys an empty input still makes one row.
pub fn finish_groups(mut groups: Groups, grouped: bool, aggs: &[AggCall]) -> Result<Vec<Row>> {
    if groups.is_empty() && !grouped {
        groups.push((vec![], new_states(aggs)));
    }
    groups
        .into_iter()
        .map(|(mut key, states)| {
            for s in states {
                key.push(s.finish()?);
            }
            Ok(key)
        })
        .collect()
}

/// The row aggregate: one pass over `rows` (the output of `input`) in
/// order, groups by first occurrence.
pub fn aggregate(input: &Plan, group_exprs: &[Expr], aggs: &[AggCall], rows: &[Row]) -> Result<Groups> {
    let resolver = resolver_of(&input.cols());
    let bound_keys: Vec<BoundExpr> =
        group_exprs.iter().map(|e| bind(e, &resolver)).collect::<Result<_>>()?;
    let bound_args: Vec<Option<BoundExpr>> = aggs
        .iter()
        .map(|a| a.arg.as_ref().map(|e| bind(e, &resolver)).transpose())
        .collect::<Result<_>>()?;
    let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
    let mut groups: Groups = Vec::new();
    for row in rows {
        let key: Vec<Value> = bound_keys.iter().map(|k| eval(k, row)).collect::<Result<_>>()?;
        let gi = *index.entry(key).or_insert_with_key(|key| {
            groups.push((key.clone(), new_states(aggs)));
            groups.len() - 1
        });
        for (state, arg) in groups[gi].1.iter_mut().zip(&bound_args) {
            // COUNT(*) counts the row regardless.
            let v = match arg {
                Some(b) => eval(b, row)?,
                None => Value::Null,
            };
            state.update(&v)?;
        }
    }
    Ok(groups)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_statement;
    use crate::plan::{plan_query, SchemaProvider};
    use crate::Statement;
    use idaa_common::{ColumnDef, DataType, ObjectName, Schema};

    struct Mem {
        tables: HashMap<String, (Schema, Vec<Row>)>,
    }

    impl Mem {
        fn demo() -> Mem {
            let mut tables = HashMap::new();
            tables.insert(
                "EMP".to_string(),
                (
                    Schema::new(vec![
                        ColumnDef::new("ID", DataType::Integer),
                        ColumnDef::new("DEPT", DataType::Varchar(8)),
                        ColumnDef::new("PAY", DataType::Integer),
                    ])
                    .unwrap(),
                    vec![
                        vec![Value::Int(1), Value::Varchar("ENG".into()), Value::Int(100)],
                        vec![Value::Int(2), Value::Varchar("ENG".into()), Value::Int(200)],
                        vec![Value::Int(3), Value::Varchar("OPS".into()), Value::Int(150)],
                        vec![Value::Int(4), Value::Varchar("OPS".into()), Value::Null],
                    ],
                ),
            );
            tables.insert(
                "DEPT".to_string(),
                (
                    Schema::new(vec![
                        ColumnDef::new("NAME", DataType::Varchar(8)),
                        ColumnDef::new("SITE", DataType::Varchar(8)),
                    ])
                    .unwrap(),
                    vec![
                        vec![Value::Varchar("ENG".into()), Value::Varchar("BB".into())],
                        vec![Value::Varchar("FIN".into()), Value::Varchar("NY".into())],
                    ],
                ),
            );
            Mem { tables }
        }
    }

    impl SchemaProvider for Mem {
        fn table_schema(&self, name: &ObjectName) -> Result<Schema> {
            self.tables
                .get(&name.name)
                .map(|(s, _)| s.clone())
                .ok_or_else(|| Error::UndefinedObject(name.to_string()))
        }
    }

    impl RowSource for Mem {
        fn node(&self, plan: &Plan, _: Option<&[bool]>) -> Result<Option<Vec<Row>>> {
            let Plan::Scan { table, .. } = plan else { return Ok(None) };
            let rows = self.tables.get(&table.name).map(|(_, r)| r.clone());
            rows.map(Some).ok_or_else(|| Error::UndefinedObject(table.to_string()))
        }
    }

    /// [`Mem`], answering each scan with every column outside `needed` set
    /// to NULL: what a source that skips unread columns returns.
    struct Masked(Mem);

    impl RowSource for Masked {
        fn node(&self, plan: &Plan, needed: Option<&[bool]>) -> Result<Option<Vec<Row>>> {
            let Some(mut rows) = self.0.node(plan, needed)? else { return Ok(None) };
            let Some(m) = needed else { return Ok(Some(rows)) };
            for row in &mut rows {
                for (i, v) in row.iter_mut().enumerate() {
                    if m.get(i) != Some(&true) {
                        *v = Value::Null;
                    }
                }
            }
            Ok(Some(rows))
        }
    }

    /// `sql`'s answer, which the walk's column masks must not change.
    fn q(sql: &str) -> Rows {
        let mem = Mem::demo();
        let Statement::Query(query) = parse_statement(sql).unwrap() else { panic!() };
        let plan = plan_query(&query, &mem).unwrap();
        let rows = execute_plan(&plan, &mem).unwrap();
        let masked = execute_plan(&plan, &Masked(Mem::demo())).unwrap();
        assert_eq!(masked.rows, rows.rows, "masked scans change the answer to {sql}");
        rows
    }

    #[test]
    fn scan_project_filter() {
        let r = q("SELECT id FROM emp WHERE pay > 120");
        assert_eq!(r.len(), 2);
        let ids: Vec<i64> = r.rows.iter().map(|x| x[0].as_i64().unwrap()).collect();
        assert_eq!(ids, vec![2, 3]);
    }

    #[test]
    fn null_pay_filtered_out() {
        let r = q("SELECT id FROM emp WHERE pay < 1000");
        assert_eq!(r.len(), 3, "NULL pay must not satisfy the predicate");
    }

    #[test]
    fn computed_projection() {
        let r = q("SELECT id * 10 AS x FROM emp WHERE id = 1");
        assert_eq!(r.scalar().unwrap(), &Value::BigInt(10));
        assert_eq!(r.schema.columns()[0].name, "X");
    }

    #[test]
    fn order_and_limit() {
        let r = q("SELECT id FROM emp ORDER BY pay DESC LIMIT 2");
        // NULL sorts high... DESC reverses: NULL first.
        assert_eq!(r.rows[0][0], Value::Int(4));
        assert_eq!(r.rows[1][0], Value::Int(2));
    }

    #[test]
    fn group_by_aggregates() {
        let r = q("SELECT dept, COUNT(*), SUM(pay), AVG(pay) FROM emp GROUP BY dept ORDER BY dept");
        assert_eq!(r.len(), 2);
        assert_eq!(r.rows[0][0], Value::Varchar("ENG".into()));
        assert_eq!(r.rows[0][1], Value::BigInt(2));
        assert_eq!(r.rows[0][2], Value::BigInt(300));
        assert_eq!(r.rows[0][3], Value::Double(150.0));
        // OPS: one NULL pay -> SUM=150, COUNT(*)=2
        assert_eq!(r.rows[1][1], Value::BigInt(2));
        assert_eq!(r.rows[1][2], Value::BigInt(150));
    }

    #[test]
    fn global_aggregate_on_empty_filter() {
        let r = q("SELECT COUNT(*), SUM(pay) FROM emp WHERE id > 100");
        assert_eq!(r.rows[0][0], Value::BigInt(0));
        assert!(r.rows[0][1].is_null());
    }

    #[test]
    fn having_filters_groups() {
        let r = q("SELECT dept FROM emp GROUP BY dept HAVING SUM(pay) > 200");
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows[0][0], Value::Varchar("ENG".into()));
    }

    #[test]
    fn inner_join_hash_path() {
        let r = q("SELECT e.id, d.site FROM emp e INNER JOIN dept d ON e.dept = d.name ORDER BY e.id");
        assert_eq!(r.len(), 2);
        assert_eq!(r.rows[0][1], Value::Varchar("BB".into()));
    }

    #[test]
    fn left_join_emits_nulls() {
        let r = q("SELECT e.id, d.site FROM emp e LEFT JOIN dept d ON e.dept = d.name ORDER BY e.id");
        assert_eq!(r.len(), 4);
        assert!(r.rows[2][1].is_null(), "OPS has no dept row");
    }

    #[test]
    fn non_equi_join_nested_loop() {
        let r = q("SELECT e.id FROM emp e INNER JOIN dept d ON e.pay > 100 AND d.site = 'BB'");
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn distinct_rows() {
        let r = q("SELECT DISTINCT dept FROM emp ORDER BY dept");
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn count_distinct() {
        let r = q("SELECT COUNT(DISTINCT dept) FROM emp");
        assert_eq!(r.scalar().unwrap(), &Value::BigInt(2));
    }

    #[test]
    fn subquery_pipeline() {
        let r = q("SELECT x + 1 AS y FROM (SELECT pay AS x FROM emp WHERE dept = 'ENG') s ORDER BY y");
        assert_eq!(r.len(), 2);
        assert_eq!(r.rows[0][0], Value::BigInt(101));
    }

    #[test]
    fn fromless_select() {
        let r = q("SELECT 1 + 1");
        assert_eq!(r.scalar().unwrap(), &Value::BigInt(2));
    }

    #[test]
    fn case_in_projection() {
        let r = q("SELECT id, CASE WHEN pay IS NULL THEN 'unknown' ELSE 'known' END FROM emp ORDER BY id");
        assert_eq!(r.rows[3][1], Value::Varchar("unknown".into()));
    }

    #[test]
    fn masks_hold_across_unions_residual_joins_having_and_hidden_sort_keys() {
        let count = |sql: &str| q(sql).len();
        assert_eq!(count("SELECT dept FROM emp UNION SELECT name FROM dept"), 3);
        assert_eq!(count("SELECT dept FROM emp UNION ALL SELECT name FROM dept"), 6);
        let through_union_all = "SELECT x FROM (SELECT id AS x, dept AS d, pay AS y FROM emp \
                                 UNION ALL SELECT 1, name, 2 FROM dept) s WHERE y > 100";
        assert_eq!(count(through_union_all), 2);
        // The residual ON conjunct reads a column nothing projects.
        let r = q("SELECT e.id FROM emp e JOIN dept d ON e.dept = d.name AND d.site = 'BB' \
                   ORDER BY e.id");
        assert_eq!(r.rows, vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
        let r = q("SELECT dept FROM emp GROUP BY dept HAVING COUNT(*) > 1 AND MAX(id) > 3");
        assert_eq!(r.rows, vec![vec![Value::Varchar("OPS".into())]]);
        let r = q("SELECT dept FROM emp ORDER BY id DESC");
        assert_eq!(r.rows[0], vec![Value::Varchar("OPS".into())]);
        assert_eq!(r.rows[3], vec![Value::Varchar("ENG".into())]);
    }

    /// Deterministic pseudo-random rows: (key, payload) pairs with heavy
    /// key duplication so joins and sorts exercise ties.
    fn synth_rows(n: usize, seed: u64, key_mod: i64) -> Vec<Row> {
        let mut x = seed;
        (0..n)
            .map(|i| {
                // splitmix64 step — fixed, no external RNG.
                x = x.wrapping_add(0x9e3779b97f4a7c15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
                z ^= z >> 31;
                vec![Value::BigInt((z % key_mod as u64) as i64), Value::BigInt(i as i64)]
            })
            .collect()
    }

    #[test]
    fn merged_sorted_runs_equal_a_stable_sort_of_their_concatenation() {
        // Many ties on the first key: the merge must break them toward the
        // earliest run, like a stable sort of the concatenated input does.
        let rows = synth_rows(501, 7, 13);
        for keys in [vec![(0usize, false), (1usize, true)], vec![(0usize, true)]] {
            let mut expect = rows.clone();
            expect.sort_by(sort_cmp(&keys));
            for chunk in [1usize, 7, 100, 501, 600] {
                let runs = rows
                    .chunks(chunk)
                    .map(|c| {
                        let mut run = c.to_vec();
                        run.sort_by(sort_cmp(&keys));
                        run
                    })
                    .collect();
                assert_eq!(merge_runs(runs, &keys), expect, "chunk={chunk}");
            }
        }
        assert!(merge_runs(vec![Vec::new(), Vec::new()], &[(0, false)]).is_empty());
    }

    /// Row-at-a-time oracle from the join's defining semantics: probe rows
    /// in input order, each matched against build rows in input order, NULL
    /// keys never matching, LEFT padding in place.
    fn oracle_join(lrows: &[Row], rrows: &[Row], kind: JoinKind) -> Vec<Row> {
        let mut out = Vec::new();
        for lrow in lrows {
            let mut matched = false;
            for rrow in rrows {
                if lrow[0] == Value::Null || rrow[0] == Value::Null || lrow[0] != rrow[0] {
                    continue;
                }
                let mut j = lrow.clone();
                j.extend(rrow.iter().cloned());
                matched = true;
                out.push(j);
            }
            if !matched && kind == JoinKind::Left {
                let mut j = lrow.clone();
                j.extend(std::iter::repeat_n(Value::Null, 2));
                out.push(j);
            }
        }
        out
    }

    /// A join spec on column 0 of each side (`lkeys` empty: a nested loop
    /// over `residual`).
    fn spec(keyed: bool, residual: Option<BoundExpr>) -> JoinSpec {
        let key = || if keyed { vec![BoundExpr::Column(0)] } else { Vec::new() };
        JoinSpec { lkeys: key(), rkeys: key(), on: BoundExpr::Literal(Value::Null), residual }
    }

    #[test]
    fn hash_join_serial_output_order_is_pinned() {
        let mut lrows = synth_rows(150, 9, 13);
        let mut rrows = synth_rows(120, 10, 13);
        for i in (0..rrows.len()).step_by(17) {
            rrows[i][0] = Value::Null;
        }
        for i in (0..lrows.len()).step_by(19) {
            lrows[i][0] = Value::Null;
        }
        // The same equality as a residual over the joined row.
        let on = BoundExpr::Binary {
            left: Box::new(BoundExpr::Column(0)),
            op: BinaryOp::Eq,
            right: Box::new(BoundExpr::Column(2)),
        };
        for kind in [JoinKind::Inner, JoinKind::Left] {
            // Byte-identical to the nested oracle, not just the same
            // multiset: probe order, then build order — on hashed keys and
            // as a nested loop alike.
            let expect = oracle_join(&lrows, &rrows, kind);
            for spec in [spec(true, None), spec(false, Some(on.clone()))] {
                assert_eq!(hash_join(&lrows, &rrows, &spec, kind, 2).unwrap(), expect, "{kind:?}");
            }
        }
    }

    #[test]
    fn join_keys_follow_value_equality() {
        // Mixed numeric representations of one quantity share a key, NULL
        // never gets one, and 'EU' joins 'EU  ' (DB2 padded comparison) —
        // exactly like `Value` equality.
        let rows = vec![vec![Value::BigInt(2)], vec![Value::Double(2.0)], vec![Value::Null]];
        let out = hash_join(&rows, &rows, &spec(true, None), JoinKind::Inner, 1).unwrap();
        assert_eq!(out.len(), 4);
        let lrows: Vec<Row> =
            vec![vec![Value::Varchar("EU".into())], vec![Value::Varchar("US ".into())]];
        let rrows: Vec<Row> =
            vec![vec![Value::Varchar("EU  ".into())], vec![Value::Varchar("ASIA".into())]];
        let out = hash_join(&lrows, &rrows, &spec(true, None), JoinKind::Inner, 1).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0][0], Value::Varchar("EU".into()));
    }
}
