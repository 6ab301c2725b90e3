//! Columnar, slice-parallel execution for the accelerator.
//!
//! Every read and every UPDATE/DELETE victim selection goes through one
//! *scan front end* (`scan_blocks`), whose cost follows the rows that
//! survive and the columns that are read, not the versions stored. Per
//! 4096-row block it (1) skips the block when a kernel's zone map proves it
//! empty, (2) resolves MVCC visibility under a single registry view
//! ([`crate::mvcc::TxnRegistry::view`]: one lock acquisition per block, and
//! two integer compares per version while creator and deleter repeat) into
//! a selection vector of visible positions, and (3) lets each compiled
//! kernel — numeric comparisons, BETWEEN ranges, dictionary-code string
//! equality, IS \[NOT\] NULL over bitmap words — compact that vector in
//! place over the typed column vectors. Rows are materialized only for
//! positions that survive visibility + kernel + residual filtering, and
//! only for the columns the plan above reads (the projection mask flows
//! through filters, sorts, aggregates and both sides of a join);
//! filter→aggregate chains feed aggregate states directly from the
//! surviving selection. Any conjunct the compiler cannot prove exact (see
//! `guarded_lit`) stays with the row-at-a-time interpreter as a residual —
//! results are always exact, never approximate.
//!
//! Slices, join partitions and sort/aggregate chunks all fan out through
//! `run_parts`: *what* the parts are is fixed by the configuration (so
//! output order is too), *who* runs them is decided per call from the
//! worker count and the input size.

use crate::column::{Column, NullMap};
use crate::engine::AccelEngine;
use crate::mvcc::Snapshot;
use crate::table::{AccelTable, RowPos, Slice, ZoneEntry, BLOCK_ROWS};
use idaa_common::wire::{key_hash_i64, key_hash_str, KeySummary};
use idaa_common::{ColumnDef, Result, Row, Rows, Schema, Value};
use idaa_sql::ast::{BinaryOp, Expr, JoinKind};
use idaa_sql::eval::{bind, eval, eval_predicate, AggState, BoundExpr, FlatResolver};
use idaa_sql::plan::{Plan, PlanCol, PlanProfile};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// `Limit(Sort(…))` fuses into a bounded top-K selection when the limit is
/// at most this many rows (beyond that a full parallel sort wins).
const TOPK_MAX: u64 = 1024;

/// Run `f(0)..f(parts-1)` and return the results in part order — the one
/// fan-out every parallel operator uses. The caller fixes the partitioning
/// (`parts`) from the configuration, which keeps output deterministic for a
/// given configuration; this function only decides the schedule. An input
/// of at most one batch (`input` counts rows or versions) runs every part
/// inline: spawning costs more than the work. Otherwise `min(workers,
/// parts) - 1` scoped helpers plus the calling thread claim parts from a
/// shared counter until none are left.
fn run_parts<T, F>(parts: usize, workers: usize, input: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = workers.min(parts);
    if threads <= 1 || input <= BLOCK_ROWS {
        return (0..parts).map(f).collect();
    }
    // Relaxed: the counter only hands out indices; results are published by
    // the joins.
    let next = AtomicUsize::new(0);
    let claim = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= parts {
                return done;
            }
            done.push((i, f(i)));
        }
    };
    let mut done = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads).map(|_| scope.spawn(claim)).collect();
        let mut done = claim();
        for h in helpers {
            done.extend(h.join().expect("worker thread panicked"));
        }
        done
    });
    done.sort_unstable_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, t)| t).collect()
}

/// Which execution pipeline the accelerator uses for scans and fused
/// aggregation. `Vectorized` (the default) compiles predicate conjuncts to
/// batch kernels that filter block-sized selection vectors directly over
/// the column vectors; `Interpreted` forces the row-at-a-time expression
/// interpreter — kept as the exactness oracle and the fallback for any
/// expression the compiler cannot prove exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    #[default]
    Vectorized,
    Interpreted,
}

/// Execution context for one statement.
pub struct ExecCtx<'a> {
    pub engine: &'a AccelEngine,
    pub snap: Snapshot,
    pub mode: ExecMode,
    /// When set, each executed plan node records its output cardinality
    /// (fused children stay unrecorded — fusion is visible in the profile).
    pub profile: Option<&'a PlanProfile>,
}

/// Execute a logical plan on the accelerator.
pub fn execute_plan(plan: &Plan, ctx: &ExecCtx) -> Result<Rows> {
    let rows = run(plan, ctx)?;
    let schema = Schema::new_unchecked(
        plan.cols()
            .into_iter()
            .map(|c| ColumnDef::new(c.name, c.data_type))
            .collect(),
    );
    Ok(Rows::new(schema, rows))
}

fn resolver_of(cols: &[PlanCol]) -> FlatResolver {
    FlatResolver::new(cols.iter().map(|c| (c.qualifier.clone(), c.name.clone())).collect())
}

pub(crate) fn run(plan: &Plan, ctx: &ExecCtx) -> Result<Vec<Row>> {
    run_masked(plan, ctx, None)
}

/// Dispatch one node and, when profiling, record its output cardinality on
/// the way out.
fn run_masked(plan: &Plan, ctx: &ExecCtx, needed: Option<Vec<bool>>) -> Result<Vec<Row>> {
    let rows = run_masked_inner(plan, ctx, needed)?;
    if let Some(prof) = ctx.profile {
        prof.record(plan, rows.len() as u64);
    }
    Ok(rows)
}

/// Union the column ordinals of `exprs` into a mask over `width` columns.
fn mask_of(width: usize, bound: &[&BoundExpr]) -> Vec<bool> {
    let mut set = std::collections::HashSet::new();
    for b in bound {
        b.collect_columns(&mut set);
    }
    (0..width).map(|i| set.contains(&i)).collect()
}

fn union_mask(a: Option<Vec<bool>>, b: Vec<bool>) -> Vec<bool> {
    match a {
        None => b,
        Some(a) => a.iter().zip(&b).map(|(x, y)| *x || *y).collect(),
    }
}

/// Execute with *projection pushdown*: `needed[i] == false` means the
/// caller never reads output column `i`, so scans may leave it NULL and
/// skip decoding the column vector — the columnar engine's signature
/// advantage.
fn run_masked_inner(plan: &Plan, ctx: &ExecCtx, needed: Option<Vec<bool>>) -> Result<Vec<Row>> {
    match plan {
        Plan::Scan { table, cols, .. } => {
            if cols.is_empty() && table.name == "SYSDUMMY1" {
                return Ok(vec![vec![]]);
            }
            let t = ctx.engine.table(table)?;
            scan_filtered_with(&t, None, ctx, needed, Some(plan), None)
        }
        Plan::Filter { input, predicate } => {
            if let Plan::Scan { table, .. } = input.as_ref() {
                let t = ctx.engine.table(table)?;
                let cols = input.cols();
                return scan_filtered_with(
                    &t,
                    Some((predicate, &cols)),
                    ctx,
                    needed,
                    Some(plan),
                    None,
                );
            }
            let cols = input.cols();
            let bound = bind(predicate, &resolver_of(&cols))?;
            let child_mask = needed.map(|m| union_mask(Some(m), mask_of(cols.len(), &[&bound])));
            let rows = run_masked(input, ctx, child_mask)?;
            rows.into_iter()
                .filter_map(|row| match eval_predicate(&bound, &row) {
                    Ok(true) => Some(Ok(row)),
                    Ok(false) => None,
                    Err(e) => Some(Err(e)),
                })
                .collect()
        }
        Plan::Project { input, exprs, .. } => {
            let in_cols = input.cols();
            let resolver = resolver_of(&in_cols);
            let bound: Vec<BoundExpr> =
                exprs.iter().map(|(e, _)| bind(e, &resolver)).collect::<Result<_>>()?;
            let refs: Vec<&BoundExpr> = bound.iter().collect();
            let child_mask = mask_of(in_cols.len(), &refs);
            let rows = run_masked(input, ctx, Some(child_mask))?;
            rows.into_iter()
                .map(|row| bound.iter().map(|b| eval(b, &row)).collect())
                .collect()
        }
        Plan::Join { left, right, kind, on } => {
            run_join(plan, left, right, *kind, on, ctx, needed)
        }
        Plan::Aggregate { input, group_exprs, aggs, .. } => {
            if let Some(rows) = try_fused_aggregate(plan, input, group_exprs, aggs, ctx)? {
                return Ok(rows);
            }
            run_aggregate(input, group_exprs, aggs, ctx)
        }
        Plan::Sort { input, keys } => {
            let in_width = input.cols().len();
            let child_mask = needed.map(|mut m| {
                m.resize(in_width, false);
                for (i, _) in keys {
                    if *i < in_width {
                        m[*i] = true;
                    }
                }
                m
            });
            let rows = run_masked(input, ctx, child_mask)?;
            Ok(sort_rows(rows, keys, ctx.engine.config.workers()))
        }
        Plan::Distinct { input } => {
            // Row-level dedup reads every column: no pushdown through here.
            let rows = run_masked(input, ctx, None)?;
            let mut seen: HashMap<Vec<Value>, ()> = HashMap::with_capacity(rows.len());
            let mut out = Vec::new();
            for row in rows {
                if seen.insert(row.clone(), ()).is_none() {
                    out.push(row);
                }
            }
            Ok(out)
        }
        Plan::Limit { input, n } => {
            // `Limit(Sort(…))` fuses into a bounded top-K selection: keep the
            // `n` best rows by (sort key, input position) in one pass instead
            // of sorting everything. The position tiebreak makes the result
            // identical to a stable sort followed by truncation.
            if let Plan::Sort { input: sorted, keys } = input.as_ref() {
                if *n <= TOPK_MAX {
                    let in_width = sorted.cols().len();
                    let child_mask = needed.clone().map(|mut m| {
                        m.resize(in_width, false);
                        for (i, _) in keys {
                            if *i < in_width {
                                m[*i] = true;
                            }
                        }
                        m
                    });
                    let rows = run_masked(sorted, ctx, child_mask)?;
                    return Ok(top_k(rows, *n as usize, sort_cmp(keys)));
                }
            }
            let mut rows = run_masked(input, ctx, needed)?;
            rows.truncate(*n as usize);
            Ok(rows)
        }
        Plan::KeepCols { input, n } => {
            let in_width = input.cols().len();
            let child_mask = needed.map(|mut m| {
                m.resize(in_width, false);
                m
            });
            let mut rows = run_masked(input, ctx, child_mask)?;
            for row in &mut rows {
                row.truncate(*n);
            }
            Ok(rows)
        }
        Plan::Union { left, right, all } => {
            // Plain UNION dedups on full rows, so branches must materialize
            // every column; UNION ALL can push the caller's mask through.
            let child_mask = if *all { needed } else { None };
            let mut rows = run_masked(left, ctx, child_mask.clone())?;
            rows.extend(run_masked(right, ctx, child_mask)?);
            if !*all {
                let mut seen: HashMap<Vec<Value>, ()> = HashMap::with_capacity(rows.len());
                rows.retain(|r| seen.insert(r.clone(), ()).is_none());
            }
            Ok(rows)
        }
    }
}

/// The columns of a bare scan of `table`, qualified by its name.
fn table_cols(table: &AccelTable) -> Vec<PlanCol> {
    table
        .schema
        .columns()
        .iter()
        .map(|c| PlanCol {
            qualifier: Some(table.name.name.clone()),
            name: c.name.clone(),
            data_type: c.data_type,
        })
        .collect()
}

/// Scan with an optional predicate, materializing every column.
pub(crate) fn scan_filtered(
    table: &AccelTable,
    predicate: Option<&Expr>,
    ctx: &ExecCtx,
) -> Result<Vec<Row>> {
    let cols = table_cols(table);
    let pred = predicate.map(|p| (p, cols.as_slice()));
    scan_filtered_with(table, pred, ctx, None, None, None)
}

/// The kernel IR: one compiled single-column predicate. A conjunction
/// compiles into a list of kernels that each filter the block's selection
/// vector in turn; anything the compiler can't prove exact stays in the
/// interpreted residual.
#[derive(Debug, Clone)]
enum Kernel {
    /// Numeric comparison against a constant.
    Num { col: usize, op: BinaryOp, val: f64 },
    /// `col [NOT] BETWEEN lo AND hi` over a numeric column.
    Range { col: usize, lo: f64, hi: f64, negated: bool },
    /// String equality / inequality against a constant.
    Str { col: usize, val: String, negated: bool },
    /// `col IS [NOT] NULL` over the packed null bitmap.
    IsNull { col: usize, negated: bool },
}

impl Kernel {
    /// The column whose zone map can prune blocks for this kernel, if any.
    /// String and NULL-ness kernels never prune: zone maps track numeric
    /// min/max only, and staying a superset is the correctness rule.
    fn zone_col(&self) -> Option<usize> {
        match self {
            Kernel::Num { col, .. } | Kernel::Range { col, .. } => Some(*col),
            Kernel::Str { .. } | Kernel::IsNull { .. } => None,
        }
    }

    /// Can the zone map of `z` prove no row in the block matches?
    fn prunes(&self, z: &ZoneEntry) -> bool {
        if !z.valid {
            return false;
        }
        match self {
            Kernel::Num { op, val, .. } => match op {
                BinaryOp::Eq => *val < z.min || *val > z.max,
                BinaryOp::Lt => z.min >= *val,
                BinaryOp::LtEq => z.min > *val,
                BinaryOp::Gt => z.max <= *val,
                BinaryOp::GtEq => z.max < *val,
                BinaryOp::Neq => z.min == z.max && z.min == *val,
                _ => false,
            },
            Kernel::Range { lo, hi, negated: false, .. } => z.max < *lo || z.min > *hi,
            // Every non-NULL row inside [lo, hi] ⇒ NOT BETWEEN matches none
            // (NULL rows never match either way, and zones ignore NULLs).
            Kernel::Range { lo, hi, negated: true, .. } => z.min >= *lo && z.max <= *hi,
            Kernel::Str { .. } | Kernel::IsNull { .. } => false,
        }
    }

    /// Resolve this kernel against one slice's physical column vectors,
    /// picking the tightest typed loop the storage admits. String kernels
    /// reuse the column's memoized dictionary probe, so repeated slices
    /// (and repeated queries) don't re-scan the dictionary.
    fn specialize<'s>(&'s self, slice: &'s Slice) -> SpecKernel<'s> {
        match self {
            Kernel::Num { col, op, val } => {
                let c: &Column = &slice.columns[*col];
                if let (Some(vals), Some(i)) = (c.i64_data(), exact_i64(*val)) {
                    SpecKernel::I64Cmp { vals, nulls: &c.nulls, op: *op, val: i }
                } else if let Some(vals) = c.f64_data() {
                    SpecKernel::F64Cmp { vals, nulls: &c.nulls, op: *op, val: *val }
                } else {
                    SpecKernel::NumCmp { col: c, op: *op, val: *val }
                }
            }
            Kernel::Range { col, lo, hi, negated } => {
                let c: &Column = &slice.columns[*col];
                if let (Some(vals), Some(l), Some(h)) =
                    (c.i64_data(), exact_i64(*lo), exact_i64(*hi))
                {
                    SpecKernel::I64Range { vals, nulls: &c.nulls, lo: l, hi: h, negated: *negated }
                } else if let Some(vals) = c.f64_data() {
                    SpecKernel::F64Range {
                        vals,
                        nulls: &c.nulls,
                        lo: *lo,
                        hi: *hi,
                        negated: *negated,
                    }
                } else {
                    SpecKernel::NumRange { col: c, lo: *lo, hi: *hi, negated: *negated }
                }
            }
            Kernel::Str { col, val, negated } => {
                let c: &Column = &slice.columns[*col];
                let Some(codes) = c.str_codes() else { return SpecKernel::Never };
                SpecKernel::Str {
                    codes,
                    nulls: &c.nulls,
                    matches: c.codes_matching(val),
                    negated: *negated,
                }
            }
            Kernel::IsNull { col, negated } => {
                SpecKernel::IsNull { nulls: &slice.columns[*col].nulls, negated: *negated }
            }
        }
    }
}

/// The f64 image of an i64 column value compares exactly against `v` (in
/// the i64 domain) only when `v` is integral with magnitude strictly below
/// 2^53 — above that, distinct integers share an f64 image and Eq/Neq
/// would lie. Within the limit the typed i64 loop is provably identical to
/// the f64-image comparison the interpreter performs.
fn exact_i64(v: f64) -> Option<i64> {
    const LIMIT: f64 = 9_007_199_254_740_992.0; // 2^53
    if v.fract() == 0.0 && v.abs() < LIMIT {
        Some(v as i64)
    } else {
        None
    }
}

/// A [`Kernel`] resolved against one slice's physical data. Each variant
/// filters a selection vector of candidate positions in place — the batch
/// replacement for the old per-row `matches` test.
enum SpecKernel<'s> {
    I64Cmp { vals: &'s [i64], nulls: &'s NullMap, op: BinaryOp, val: i64 },
    F64Cmp { vals: &'s [f64], nulls: &'s NullMap, op: BinaryOp, val: f64 },
    /// Generic numeric compare through `numeric_at` (DECIMAL storage, or an
    /// i64 column against a fractional / out-of-range literal).
    NumCmp { col: &'s Column, op: BinaryOp, val: f64 },
    I64Range { vals: &'s [i64], nulls: &'s NullMap, lo: i64, hi: i64, negated: bool },
    F64Range { vals: &'s [f64], nulls: &'s NullMap, lo: f64, hi: f64, negated: bool },
    NumRange { col: &'s Column, lo: f64, hi: f64, negated: bool },
    Str { codes: &'s [u32], nulls: &'s NullMap, matches: &'s [u32], negated: bool },
    IsNull { nulls: &'s NullMap, negated: bool },
    /// Structurally impossible (e.g. non-dictionary column): matches nothing.
    Never,
}

/// Compact `sel` in place, keeping positions where `keep` holds. Survivor
/// order stays ascending, which is what keeps vectorized output order
/// identical to the row-at-a-time scan.
#[inline]
fn compact(sel: &mut Vec<u32>, mut keep: impl FnMut(usize) -> bool) {
    let mut w = 0;
    for r in 0..sel.len() {
        if keep(sel[r] as usize) {
            sel[w] = sel[r];
            w += 1;
        }
    }
    sel.truncate(w);
}

/// Typed comparison loop shared by the i64 and f64 kernels.
fn cmp_filter<T: PartialOrd + Copy>(
    sel: &mut Vec<u32>,
    vals: &[T],
    nulls: &NullMap,
    op: BinaryOp,
    val: T,
) {
    match op {
        BinaryOp::Eq => compact(sel, |p| !nulls.is_null(p) && vals[p] == val),
        BinaryOp::Neq => compact(sel, |p| !nulls.is_null(p) && vals[p] != val),
        BinaryOp::Lt => compact(sel, |p| !nulls.is_null(p) && vals[p] < val),
        BinaryOp::LtEq => compact(sel, |p| !nulls.is_null(p) && vals[p] <= val),
        BinaryOp::Gt => compact(sel, |p| !nulls.is_null(p) && vals[p] > val),
        BinaryOp::GtEq => compact(sel, |p| !nulls.is_null(p) && vals[p] >= val),
        _ => sel.clear(),
    }
}

fn range_filter<T: PartialOrd + Copy>(
    sel: &mut Vec<u32>,
    vals: &[T],
    nulls: &NullMap,
    lo: T,
    hi: T,
    negated: bool,
) {
    if negated {
        compact(sel, |p| !(nulls.is_null(p) || vals[p] >= lo && vals[p] <= hi));
    } else {
        compact(sel, |p| !nulls.is_null(p) && vals[p] >= lo && vals[p] <= hi);
    }
}

fn cmp_f64(op: BinaryOp, x: f64, val: f64) -> bool {
    match op {
        BinaryOp::Eq => x == val,
        BinaryOp::Neq => x != val,
        BinaryOp::Lt => x < val,
        BinaryOp::LtEq => x <= val,
        BinaryOp::Gt => x > val,
        BinaryOp::GtEq => x >= val,
        _ => false,
    }
}

impl SpecKernel<'_> {
    /// Filter the selection vector in place, keeping only positions this
    /// kernel accepts. NULL never matches a comparison, matching SQL.
    fn filter(&self, sel: &mut Vec<u32>) {
        match self {
            SpecKernel::I64Cmp { vals, nulls, op, val } => {
                cmp_filter(sel, vals, nulls, *op, *val)
            }
            SpecKernel::F64Cmp { vals, nulls, op, val } => {
                cmp_filter(sel, vals, nulls, *op, *val)
            }
            SpecKernel::NumCmp { col, op, val } => compact(sel, |p| match col.numeric_at(p) {
                None => false,
                Some(x) => cmp_f64(*op, x, *val),
            }),
            SpecKernel::I64Range { vals, nulls, lo, hi, negated } => {
                range_filter(sel, vals, nulls, *lo, *hi, *negated)
            }
            SpecKernel::F64Range { vals, nulls, lo, hi, negated } => {
                range_filter(sel, vals, nulls, *lo, *hi, *negated)
            }
            SpecKernel::NumRange { col, lo, hi, negated } => {
                compact(sel, |p| match col.numeric_at(p) {
                    None => false,
                    Some(x) => (x >= *lo && x <= *hi) != *negated,
                })
            }
            SpecKernel::Str { codes, nulls, matches, negated } => {
                let neg = *negated;
                match matches.len() {
                    0 if !neg => sel.clear(),
                    0 => compact(sel, |p| !nulls.is_null(p)),
                    1 => {
                        let c = matches[0];
                        if neg {
                            compact(sel, |p| !nulls.is_null(p) && codes[p] != c)
                        } else {
                            compact(sel, |p| !nulls.is_null(p) && codes[p] == c)
                        }
                    }
                    _ => compact(sel, |p| {
                        !nulls.is_null(p) && (matches.binary_search(&codes[p]).is_ok() != neg)
                    }),
                }
            }
            SpecKernel::IsNull { nulls, negated } => {
                // Word-at-a-time over the packed bitmap: the 64-bit null
                // word is reloaded only when the selection crosses into
                // the next word.
                let words = nulls.words();
                let neg = *negated;
                let mut cur = usize::MAX;
                let mut word = 0u64;
                compact(sel, |p| {
                    let wi = p / 64;
                    if wi != cur {
                        cur = wi;
                        word = words.get(wi).copied().unwrap_or(0);
                    }
                    ((word >> (p % 64)) & 1 == 1) != neg
                })
            }
            SpecKernel::Never => sel.clear(),
        }
    }
}

/// Resolve a bare column reference against this scan's schema.
fn scan_ordinal(col_expr: &Expr, table: &AccelTable, scan_cols: &[PlanCol]) -> Option<usize> {
    let Expr::Column { qualifier, name } = col_expr else { return None };
    // The qualifier must refer to this scan.
    if let Some(q) = qualifier {
        if !scan_cols.iter().any(|c| c.qualifier.as_deref() == Some(q.as_str())) {
            return None;
        }
    }
    table.schema.index_of(name).ok()
}

/// Literal → f64 under the exactness guard. Kernels compare in f64; an
/// integer literal beyond 2^53 is not exactly representable, which would
/// make equality kernels lie — such predicates stay with the exact
/// residual evaluator.
fn guarded_lit(lit: &Value) -> Option<f64> {
    let val = match lit {
        Value::Null => return None,
        v => v.as_f64().ok()?,
    };
    if let Ok(i) = lit.as_i64() {
        if (val as i64) != i {
            return None;
        }
    }
    Some(val)
}

fn numeric_family(t: idaa_common::DataType) -> bool {
    t.is_numeric()
        || matches!(
            t,
            idaa_common::DataType::Date | idaa_common::DataType::Timestamp | idaa_common::DataType::Boolean
        )
}

/// Try to compile one conjunct into a kernel over `table`'s columns.
fn compile_kernel(conj: &Expr, table: &AccelTable, scan_cols: &[PlanCol]) -> Option<Kernel> {
    match conj {
        Expr::Binary { left, op, right } => {
            let (col_expr, lit, op) = match (left.as_ref(), right.as_ref()) {
                (Expr::Column { .. }, Expr::Literal(v)) => (left.as_ref(), v, *op),
                (Expr::Literal(v), Expr::Column { .. }) => (right.as_ref(), v, flip(*op)?),
                _ => return None,
            };
            let ordinal = scan_ordinal(col_expr, table, scan_cols)?;
            let col_type = table.schema.columns()[ordinal].data_type;
            if numeric_family(col_type) {
                let val = guarded_lit(lit)?;
                if matches!(
                    op,
                    BinaryOp::Eq
                        | BinaryOp::Neq
                        | BinaryOp::Lt
                        | BinaryOp::LtEq
                        | BinaryOp::Gt
                        | BinaryOp::GtEq
                ) {
                    return Some(Kernel::Num { col: ordinal, op, val });
                }
                return None;
            }
            if col_type.is_character() {
                let Value::Varchar(s) = lit else { return None };
                return match op {
                    BinaryOp::Eq => {
                        Some(Kernel::Str { col: ordinal, val: s.clone(), negated: false })
                    }
                    BinaryOp::Neq => {
                        Some(Kernel::Str { col: ordinal, val: s.clone(), negated: true })
                    }
                    _ => None,
                };
            }
            None
        }
        Expr::Between { expr, low, high, negated } => {
            let ordinal = scan_ordinal(expr, table, scan_cols)?;
            if !numeric_family(table.schema.columns()[ordinal].data_type) {
                return None;
            }
            let (Expr::Literal(lo), Expr::Literal(hi)) = (low.as_ref(), high.as_ref()) else {
                return None;
            };
            let lo = guarded_lit(lo)?;
            let hi = guarded_lit(hi)?;
            Some(Kernel::Range { col: ordinal, lo, hi, negated: *negated })
        }
        Expr::IsNull { expr, negated } => {
            let ordinal = scan_ordinal(expr, table, scan_cols)?;
            Some(Kernel::IsNull { col: ordinal, negated: *negated })
        }
        _ => None,
    }
}

fn flip(op: BinaryOp) -> Option<BinaryOp> {
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

/// Any-kernel zone test for one block: a block is skipped when any kernel's
/// zone map proves it empty (superset rule: pruning is only ever a subset
/// of what the kernels would reject row by row).
fn zone_prunes(kernels: &[Kernel], slice: &Slice, b: usize) -> bool {
    kernels.iter().any(|k| {
        k.zone_col()
            .and_then(|c| slice.zones[c].get(b))
            .map(|z| k.prunes(z))
            .unwrap_or(false)
    })
}

/// Fill `sel` with the visible positions of block `b`, ascending. Returns
/// the block's `(start, end)` row range. Visibility is resolved under one
/// registry view — one lock acquisition for the block — that is dropped
/// before anything else runs.
fn select_block(
    sel: &mut Vec<u32>,
    slice: &Slice,
    b: usize,
    total: usize,
    ctx: &ExecCtx,
) -> (usize, usize) {
    let start = b * BLOCK_ROWS;
    let end = (start + BLOCK_ROWS).min(total);
    sel.clear();
    let mut vis = ctx.engine.txns.view(&ctx.snap);
    let versions = slice.created[start..end].iter().zip(&slice.deleted[start..end]);
    for (pos, (&created, &deleted)) in (start..end).zip(versions) {
        if vis.visible(created, deleted) {
            sel.push(pos as u32);
        }
    }
    (start, end)
}

/// The scan front end for one slice. Per block: skip it when a kernel's
/// zone map proves it empty, resolve visibility into a selection vector
/// ([`select_block`]), let each kernel and then the derived join-filter
/// compact it, and hand the survivors (ascending positions) to `sink`.
/// Returns the number of batches run. `counted` is false for DML victim
/// selection: the scan counters describe query work in every experiment
/// table, so DML leaves them alone.
fn scan_blocks(
    slice: &Slice,
    kernels: &[Kernel],
    prefilter: Option<&ProbeFilter>,
    ctx: &ExecCtx,
    counted: bool,
    mut sink: impl FnMut(&[u32]) -> Result<()>,
) -> Result<u64> {
    let count = |counter: &AtomicU64, n: usize| {
        if counted {
            counter.fetch_add(n as u64, Ordering::Relaxed);
        }
    };
    let stats = &ctx.engine.stats;
    let use_zones = ctx.engine.config.zone_maps;
    let spec: Vec<SpecKernel> = kernels.iter().map(|k| k.specialize(slice)).collect();
    let probe: Option<SpecProbe> = prefilter.map(|pf| pf.specialize(slice));
    let total = slice.version_count();
    let mut sel: Vec<u32> = Vec::with_capacity(BLOCK_ROWS.min(total));
    let mut batches = 0u64;
    for b in 0..slice.block_count() {
        count(&stats.blocks_scanned, 1);
        if use_zones && zone_prunes(kernels, slice, b) {
            count(&stats.blocks_pruned, 1);
            continue;
        }
        batches += 1;
        let (start, end) = select_block(&mut sel, slice, b, total, ctx);
        for k in &spec {
            if sel.is_empty() {
                break;
            }
            k.filter(&mut sel);
        }
        // The derived join-filter runs after the scan's own kernels: it
        // only shrinks the selection, never prunes blocks, so every
        // stats counter stays identical with and without it.
        if let Some(p) = &probe {
            if !sel.is_empty() {
                p.filter(&mut sel);
            }
        }
        sink(&sel)?;
        count(&stats.rows_scanned, end - start);
    }
    Ok(batches)
}

/// Run `f` over every slice of `table` through [`run_parts`], each part
/// holding its slice's read lock; results come back in slice order.
fn for_each_slice<T: Send>(
    table: &AccelTable,
    ctx: &ExecCtx,
    f: impl Fn(&Slice) -> Result<T> + Sync,
) -> Result<Vec<T>> {
    let slices = table.slices();
    let workers = ctx.engine.config.workers();
    run_parts(slices.len(), workers, table.version_count(), |si| f(&slices[si].read()))
        .into_iter()
        .collect()
}

fn scan_filtered_with(
    table: &AccelTable,
    pred: Option<(&Expr, &[PlanCol])>,
    ctx: &ExecCtx,
    needed: Option<Vec<bool>>,
    prof_node: Option<&Plan>,
    prefilter: Option<&ProbeFilter>,
) -> Result<Vec<Row>> {
    scan_table(table, pred, ctx, needed, prof_node, prefilter, false).map(|(rows, _)| rows)
}

/// `UPDATE`/`DELETE … WHERE` victim selection: the rows `filter` selects
/// under `ctx.snap` with their positions, slice-major in ascending position
/// order. Same front end as a query — kernels, zone pruning, block
/// visibility, residual re-check — so a row is built only for a victim
/// (and only its `needed` columns plus what the residual reads).
pub(crate) fn scan_victims(
    table: &AccelTable,
    filter: Option<&Expr>,
    ctx: &ExecCtx,
    needed: Option<Vec<bool>>,
) -> Result<Vec<(RowPos, Row)>> {
    let cols = table_cols(table);
    let pred = filter.map(|f| (f, cols.as_slice()));
    let (rows, positions) = scan_table(table, pred, ctx, needed, None, None, true)?;
    Ok(positions.into_iter().zip(rows).collect())
}

/// Scan `table`: the surviving rows, plus their positions when `victims`
/// is set (a victim scan also leaves the scan counters untouched).
fn scan_table(
    table: &AccelTable,
    pred: Option<(&Expr, &[PlanCol])>,
    ctx: &ExecCtx,
    needed: Option<Vec<bool>>,
    prof_node: Option<&Plan>,
    prefilter: Option<&ProbeFilter>,
    victims: bool,
) -> Result<(Vec<Row>, Vec<RowPos>)> {
    // Compile conjuncts into kernels plus a residual predicate. Forced
    // interpreter mode compiles nothing: the whole predicate is residual.
    let mut kernels: Vec<Kernel> = Vec::new();
    let mut residual: Option<BoundExpr> = None;
    if let Some((predicate, scan_cols)) = pred {
        let mut leftover: Vec<&Expr> = Vec::new();
        for conj in idaa_host_conjuncts(predicate) {
            let compiled = match ctx.mode {
                ExecMode::Vectorized => compile_kernel(conj, table, scan_cols),
                ExecMode::Interpreted => None,
            };
            match compiled {
                Some(k) => kernels.push(k),
                None => leftover.push(conj),
            }
        }
        if !leftover.is_empty() {
            let resolver = resolver_of(scan_cols);
            let combined = leftover
                .into_iter()
                .cloned()
                .reduce(|a, b| Expr::Binary {
                    left: Box::new(a),
                    op: BinaryOp::And,
                    right: Box::new(b),
                })
                .expect("non-empty");
            residual = Some(bind(&combined, &resolver)?);
        }
    }
    // Effective materialization mask: what the caller reads plus what the
    // residual predicate reads. Kernel columns are evaluated directly on
    // the typed vectors and need no materialization.
    let width = table.schema.len();
    let mask: Option<Vec<bool>> = match (&needed, &residual) {
        (None, _) => None,
        (Some(m), None) => Some(m.clone()),
        (Some(m), Some(res)) => {
            let mut set = std::collections::HashSet::new();
            res.collect_columns(&mut set);
            Some((0..width).map(|i| m.get(i).copied().unwrap_or(false) || set.contains(&i)).collect())
        }
    };

    // Late materialization: with no interpreted residual left, survivors
    // are assembled column-at-a-time by projection kernels instead of the
    // per-row loop. Interpreted mode keeps the row loop as the oracle.
    let late_mat = ctx.mode == ExecMode::Vectorized && residual.is_none();

    // Per slice: materialize (and residual-check) only the survivors the
    // front end hands over, in ascending position order — the same output
    // order as a per-row loop, without its per-row dispatch.
    let scan_one = |slice: &Slice| -> Result<(Vec<Row>, Vec<u32>, u64)> {
        let mut out = Vec::new();
        let mut positions: Vec<u32> = Vec::new();
        let batches = scan_blocks(slice, &kernels, prefilter, ctx, !victims, |sel| {
            if late_mat {
                materialize_block(slice, sel, mask.as_deref(), &mut out);
                if victims {
                    positions.extend_from_slice(sel);
                }
                return Ok(());
            }
            for &p in sel {
                let pos = p as usize;
                let row: Row = match &mask {
                    None => slice.row_at(pos),
                    Some(m) => slice
                        .columns
                        .iter()
                        .enumerate()
                        .map(|(i, c)| if m[i] { c.get(pos) } else { Value::Null })
                        .collect(),
                };
                if let Some(res) = &residual {
                    if !eval_predicate(res, &row)? {
                        continue;
                    }
                }
                out.push(row);
                if victims {
                    positions.push(p);
                }
            }
            Ok(())
        })?;
        Ok((out, positions, batches))
    };

    let mut out = Vec::new();
    let mut positions = Vec::new();
    let mut batches = 0u64;
    for (si, (rows, pos, b)) in for_each_slice(table, ctx, scan_one)?.into_iter().enumerate() {
        out.extend(rows);
        positions.extend(pos.into_iter().map(|p| RowPos { slice: si, pos: p as usize }));
        batches += b;
    }
    // A scan counts as vectorized only when at least one kernel compiled
    // (or a derived join-filter ran as one) — with zero kernels every row
    // goes through the interpreted residual.
    if let (Some(prof), Some(node)) = (ctx.profile, prof_node) {
        if !kernels.is_empty() || prefilter.is_some() {
            prof.record_vectorized(node, batches);
        }
    }
    Ok((out, positions))
}

/// Assemble output rows for one block's surviving selection with projection
/// kernels: one typed pass per column (masked-out columns append NULL), so
/// the per-position storage dispatch is paid once per column instead of
/// once per value. Output is byte-identical to the per-row loop.
fn materialize_block(slice: &Slice, sel: &[u32], mask: Option<&[bool]>, out: &mut Vec<Row>) {
    if sel.is_empty() {
        return;
    }
    let width = slice.columns.len();
    let base = out.len();
    out.extend(std::iter::repeat_with(|| Row::with_capacity(width)).take(sel.len()));
    for (i, c) in slice.columns.iter().enumerate() {
        if mask.is_none_or(|m| m[i]) {
            c.gather_into(sel, &mut out[base..]);
        } else {
            for row in &mut out[base..] {
                row.push(Value::Null);
            }
        }
    }
}

/// Conjunct splitting (same shape as the host's — duplicated on purpose:
/// the engines are independent systems in the architecture).
fn idaa_host_conjuncts(e: &Expr) -> Vec<&Expr> {
    match e {
        Expr::Binary { left, op: BinaryOp::And, right } => {
            let mut out = idaa_host_conjuncts(left);
            out.extend(idaa_host_conjuncts(right));
            out
        }
        other => vec![other],
    }
}

/// Comparator over `Plan::Sort` keys (shared by sort and top-K).
fn sort_cmp(keys: &[(usize, bool)]) -> impl Fn(&Row, &Row) -> std::cmp::Ordering + Sync + '_ {
    move |a, b| {
        for (i, desc) in keys {
            let o = a[*i].cmp_total(&b[*i]);
            let o = if *desc { o.reverse() } else { o };
            if o != std::cmp::Ordering::Equal {
                return o;
            }
        }
        std::cmp::Ordering::Equal
    }
}

/// Stable sort, parallelized as chunk-sorts plus a k-way merge that breaks
/// ties toward the earliest chunk — output is identical to a serial stable
/// sort regardless of worker count.
fn sort_rows(mut rows: Vec<Row>, keys: &[(usize, bool)], workers: usize) -> Vec<Row> {
    let cmp = sort_cmp(keys);
    if workers <= 1 || rows.len() <= 1 {
        rows.sort_by(&cmp);
        return rows;
    }
    let chunk = rows.len().div_ceil(workers).max(1);
    let total = rows.len();
    // `run_parts` wants `Fn`: each part takes its own (uncontended) lock to
    // reach its chunk mutably.
    let chunks: Vec<parking_lot::Mutex<&mut [Row]>> =
        rows.chunks_mut(chunk).map(parking_lot::Mutex::new).collect();
    run_parts(chunks.len(), workers, total, |ci| chunks[ci].lock().sort_by(&cmp));
    drop(chunks);
    let mut bounds: Vec<(usize, usize)> = Vec::new();
    let mut start = 0;
    while start < rows.len() {
        let end = (start + chunk).min(rows.len());
        bounds.push((start, end));
        start = end;
    }
    let mut cursors: Vec<usize> = bounds.iter().map(|(s, _)| *s).collect();
    let mut out = Vec::with_capacity(rows.len());
    loop {
        let mut best: Option<usize> = None;
        for ci in 0..bounds.len() {
            if cursors[ci] >= bounds[ci].1 {
                continue;
            }
            best = match best {
                None => Some(ci),
                Some(b)
                    if cmp(&rows[cursors[ci]], &rows[cursors[b]])
                        == std::cmp::Ordering::Less =>
                {
                    Some(ci)
                }
                keep => keep,
            };
        }
        match best {
            None => break,
            Some(b) => {
                out.push(std::mem::take(&mut rows[cursors[b]]));
                cursors[b] += 1;
            }
        }
    }
    out
}

/// Bounded top-K selection: the `k` smallest rows under `(cmp, input
/// position)`, in that order — exactly a stable sort followed by
/// `truncate(k)`, without sorting the rest.
fn top_k<F: Fn(&Row, &Row) -> std::cmp::Ordering>(rows: Vec<Row>, k: usize, cmp: F) -> Vec<Row> {
    if k == 0 {
        return Vec::new();
    }
    // Sorted buffer of the current best k, worst last. Entries carry their
    // input position so ties keep first-seen order (stable-sort semantics).
    let mut buf: Vec<(usize, Row)> = Vec::with_capacity(k + 1);
    for (seq, row) in rows.into_iter().enumerate() {
        if buf.len() == k {
            let (_, worst) = buf.last().expect("k > 0");
            // Existing entries always have earlier positions, so an Equal
            // comparison means the newcomer loses the tiebreak too.
            if cmp(&row, worst) != std::cmp::Ordering::Less {
                continue;
            }
        }
        let pos = buf.partition_point(|(_, b)| cmp(b, &row) != std::cmp::Ordering::Greater);
        buf.insert(pos, (seq, row));
        buf.truncate(k);
    }
    buf.into_iter().map(|(_, r)| r).collect()
}

/// How a join's equi-key tuple is represented during build and probe.
/// The layout is decided *statically* from the declared column types of the
/// key expressions — integer↔integer keys compare exactly as raw `i64` and
/// character↔character keys as trimmed strings, matching [`Value`] equality
/// for those type pairs — and *verified* during extraction: any value
/// outside the layout's class falls the whole join back to the generic
/// `Vec<Value>` representation. Exact-or-fallback, like every kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KeyLayout {
    I64,
    Str,
    Generic,
}

/// One row's join key under a [`KeyLayout`]. Both sides of a join always
/// share a layout, so equality never compares across variants.
#[derive(Debug, Clone, PartialEq)]
enum JoinKey {
    I64(i64),
    /// Trailing blanks already trimmed (DB2 padded CHAR comparison).
    Str(String),
    Row(Vec<Value>),
}

impl JoinKey {
    /// Hash in the layout's shared domain: typed keys use the wire-level
    /// key hashes (the same domain fleet gather summaries are built in),
    /// generic keys keep the `Vec<Value>` hasher.
    fn key_hash(&self) -> u64 {
        match self {
            JoinKey::I64(v) => key_hash_i64(*v),
            JoinKey::Str(s) => key_hash_str(s),
            JoinKey::Row(key) => {
                let mut hasher = std::collections::hash_map::DefaultHasher::new();
                key.hash(&mut hasher);
                hasher.finish()
            }
        }
    }
}

/// One side's keys, extracted once: `None` marks a NULL key (SQL join keys
/// never match on NULL), else the key plus its 64-bit hash.
type Keyed = Vec<Option<(u64, JoinKey)>>;

/// Declared types whose values compare exactly as raw `i64` among
/// themselves under [`Value`] integer-family equality.
fn int_key_type(t: idaa_common::DataType) -> bool {
    matches!(
        t,
        idaa_common::DataType::SmallInt
            | idaa_common::DataType::Integer
            | idaa_common::DataType::BigInt
    )
}

/// Pick the key layout a join's equi-keys admit. Only single-key joins on
/// bare columns qualify for a typed layout: mixed-type pairs (e.g. INT vs
/// DOUBLE) must keep full [`Value`] equality semantics, and multi-key
/// tuples keep the generic path.
fn key_layout(
    lkeys: &[BoundExpr],
    lcols: &[PlanCol],
    rkeys: &[BoundExpr],
    rcols: &[PlanCol],
) -> KeyLayout {
    if lkeys.len() != 1 {
        return KeyLayout::Generic;
    }
    let (Some(li), Some(ri)) = (lkeys[0].as_column(), rkeys[0].as_column()) else {
        return KeyLayout::Generic;
    };
    let lt = lcols[li].data_type;
    let rt = rcols[ri].data_type;
    if int_key_type(lt) && int_key_type(rt) {
        KeyLayout::I64
    } else if lt.is_character() && rt.is_character() {
        KeyLayout::Str
    } else {
        KeyLayout::Generic
    }
}

/// Evaluate one side's keys once, into the shared layout. Returns
/// `Ok(None)` when a value falls outside the layout's class (the declared
/// type lied — e.g. an expression rewrote the column) — the caller then
/// re-extracts *both* sides generically.
fn try_extract_keys(keys: &[BoundExpr], rows: &[Row], layout: KeyLayout) -> Result<Option<Keyed>> {
    if layout == KeyLayout::Generic {
        return extract_generic(keys, rows).map(Some);
    }
    let key_expr = &keys[0];
    let mut out: Keyed = Vec::with_capacity(rows.len());
    for row in rows {
        let k = match (layout, eval(key_expr, row)?) {
            (_, Value::Null) => None,
            (KeyLayout::I64, Value::SmallInt(x)) => Some(JoinKey::I64(x as i64)),
            (KeyLayout::I64, Value::Int(x)) => Some(JoinKey::I64(x as i64)),
            (KeyLayout::I64, Value::BigInt(x)) => Some(JoinKey::I64(x)),
            (KeyLayout::Str, Value::Varchar(mut s)) => {
                s.truncate(s.trim_end_matches(' ').len());
                Some(JoinKey::Str(s))
            }
            _ => return Ok(None),
        };
        out.push(k.map(|k| (k.key_hash(), k)));
    }
    Ok(Some(out))
}

/// Generic key extraction: the full `Vec<Value>` tuple per row, evaluated
/// once per side (never re-hashed per probe).
fn extract_generic(keys: &[BoundExpr], rows: &[Row]) -> Result<Keyed> {
    rows.iter()
        .map(|row| {
            let key: Vec<Value> = keys.iter().map(|k| eval(k, row)).collect::<Result<_>>()?;
            if key.iter().any(Value::is_null) {
                return Ok(None);
            }
            let k = JoinKey::Row(key);
            Ok(Some((k.key_hash(), k)))
        })
        .collect()
}

/// A derived join-filter pushed into the probe-side scan: the build side's
/// key digest applied to the probe key column as one more selection-vector
/// filter. It runs after the scan's compiled kernels and never prunes
/// blocks, so `blocks_scanned`/`blocks_pruned`/`rows_scanned` stay
/// byte-identical with and without it; the digest only ever false-positives
/// (an inserted key always tests present), so on an INNER join it can only
/// drop probe rows that could never match.
struct ProbeFilter {
    /// Probe key ordinal in the scan's schema.
    col: usize,
    summary: KeySummary,
}

/// A [`ProbeFilter`] resolved against one slice's physical column vectors.
enum SpecProbe<'s> {
    I64 { vals: &'s [i64], nulls: &'s NullMap, summary: &'s KeySummary },
    /// Dictionary columns test each distinct value once, then filter rows
    /// by code through the precomputed keep table.
    Dict { codes: &'s [u32], nulls: &'s NullMap, keep: Vec<bool> },
    Generic { col: &'s Column, summary: &'s KeySummary },
}

impl ProbeFilter {
    fn specialize<'s>(&'s self, slice: &'s Slice) -> SpecProbe<'s> {
        let c = &slice.columns[self.col];
        if let Some(vals) = c.i64_data() {
            if int_key_type(c.data_type) {
                return SpecProbe::I64 { vals, nulls: &c.nulls, summary: &self.summary };
            }
        }
        if let (Some(codes), Some(dict)) = (c.str_codes(), c.dictionary()) {
            let keep = dict.iter().map(|v| self.summary.contains_str(v)).collect();
            return SpecProbe::Dict { codes, nulls: &c.nulls, keep };
        }
        SpecProbe::Generic { col: c, summary: &self.summary }
    }
}

impl SpecProbe<'_> {
    /// Drop selected positions whose key provably matches no build key.
    /// NULL probe keys never join, so they drop too (INNER-only pushdown).
    fn filter(&self, sel: &mut Vec<u32>) {
        match self {
            SpecProbe::I64 { vals, nulls, summary } => {
                compact(sel, |p| !nulls.is_null(p) && summary.contains_i64(vals[p]))
            }
            SpecProbe::Dict { codes, nulls, keep } => {
                compact(sel, |p| !nulls.is_null(p) && keep[codes[p] as usize])
            }
            SpecProbe::Generic { col, summary } => {
                compact(sel, |p| summary.matches_value(&col.get(p)))
            }
        }
    }
}

/// Is this plan a bare (possibly filtered) scan the derived join-filter can
/// push into?
fn probe_is_scan(plan: &Plan) -> bool {
    match plan {
        Plan::Scan { .. } => true,
        Plan::Filter { input, .. } => matches!(input.as_ref(), Plan::Scan { .. }),
        _ => false,
    }
}

/// Split an ON predicate into equi-key pairs bindable against the two
/// sides. Returns the key expression lists plus the total conjunct count
/// (equal lengths mean key equality covers the whole predicate).
fn equi_keys(
    on: &Expr,
    lres: &FlatResolver,
    rres: &FlatResolver,
) -> (Vec<BoundExpr>, Vec<BoundExpr>, usize) {
    let conjs = idaa_host_conjuncts(on);
    let total = conjs.len();
    let mut lkeys: Vec<BoundExpr> = Vec::new();
    let mut rkeys: Vec<BoundExpr> = Vec::new();
    for conj in conjs {
        if let Expr::Binary { left: a, op: BinaryOp::Eq, right: b } = conj {
            if let (Ok(la), Ok(rb)) = (bind(a, lres), bind(b, rres)) {
                lkeys.push(la);
                rkeys.push(rb);
                continue;
            }
            if let (Ok(lb), Ok(ra)) = (bind(b, lres), bind(a, rres)) {
                lkeys.push(lb);
                rkeys.push(ra);
            }
        }
    }
    (lkeys, rkeys, total)
}

/// Digest the build side's keys for probe-side pushdown. Only INNER joins
/// with a typed layout over a plain (possibly filtered) probe-side scan
/// qualify: LEFT joins must see every probe row to null-extend, and the
/// interpreted oracle pushes nothing.
fn derive_probe_filter(
    left: &Plan,
    lkeys: &[BoundExpr],
    layout: KeyLayout,
    kind: JoinKind,
    mode: ExecMode,
    rkeyed: &Keyed,
) -> Option<ProbeFilter> {
    if kind != JoinKind::Inner
        || mode != ExecMode::Vectorized
        || layout == KeyLayout::Generic
        || !probe_is_scan(left)
    {
        return None;
    }
    let col = lkeys[0].as_column()?;
    let mut summary = KeySummary::with_capacity(rkeyed.len());
    for (_, key) in rkeyed.iter().flatten() {
        match key {
            JoinKey::I64(v) => summary.insert_i64(*v),
            JoinKey::Str(s) => summary.insert_str(s),
            JoinKey::Row(_) => return None,
        }
    }
    Some(ProbeFilter { col, summary })
}

/// Execute the probe side of a join with a derived join-filter pushed into
/// its scan (shapes pre-checked by [`derive_probe_filter`]; anything else
/// falls back to the plain path).
fn run_probe_scan(
    left: &Plan,
    ctx: &ExecCtx,
    pf: &ProbeFilter,
    needed: Option<Vec<bool>>,
) -> Result<Vec<Row>> {
    let rows = match left {
        Plan::Scan { table, .. } => {
            let t = ctx.engine.table(table)?;
            scan_filtered_with(&t, None, ctx, needed, Some(left), Some(pf))?
        }
        Plan::Filter { input, predicate }
            if matches!(input.as_ref(), Plan::Scan { .. }) =>
        {
            let Plan::Scan { table, .. } = input.as_ref() else { unreachable!() };
            let t = ctx.engine.table(table)?;
            let cols = input.cols();
            scan_filtered_with(&t, Some((predicate, &cols)), ctx, needed, Some(left), Some(pf))?
        }
        _ => return run_masked(left, ctx, needed),
    };
    if let Some(prof) = ctx.profile {
        prof.record(left, rows.len() as u64);
    }
    Ok(rows)
}

fn run_join(
    plan: &Plan,
    left: &Plan,
    right: &Plan,
    kind: JoinKind,
    on: &Expr,
    ctx: &ExecCtx,
    needed: Option<Vec<bool>>,
) -> Result<Vec<Row>> {
    let lcols = left.cols();
    let rcols = right.cols();
    let lres = resolver_of(&lcols);
    let rres = resolver_of(&rcols);
    let combined = lres.concat(&rres);
    let bound_on = bind(on, &combined)?;

    let (lkeys, rkeys, total_conjs) = equi_keys(on, &lres, &rres);
    // When every ON conjunct became an equi-key pair, key equality *is* the
    // whole predicate — matched candidates skip the per-row ON re-check.
    let on_covered = lkeys.len() == total_conjs;

    let rwidth = rcols.len();
    let workers = ctx.engine.config.workers();

    // Projection pushdown through the join: each side materializes what the
    // caller reads of it plus what the ON predicate (keys and residual
    // conjuncts alike) reads; every other column stays NULL.
    let (lmask, rmask) = match needed {
        None => (None, None),
        Some(mut m) => {
            m.resize(lcols.len() + rwidth, false);
            let mut l = union_mask(Some(m), mask_of(lcols.len() + rwidth, &[&bound_on]));
            let r = l.split_off(lcols.len());
            (Some(l), Some(r))
        }
    };

    // Build side (right) first: its finished key digest can pre-filter the
    // probe-side scan before any probe row materializes.
    let rrows = run_masked(right, ctx, rmask)?;

    if lkeys.is_empty() {
        let lrows = run_masked(left, ctx, lmask)?;
        return nested_loop_join(&lrows, &rrows, kind, &bound_on, rwidth, workers);
    }

    let mut layout = key_layout(&lkeys, &lcols, &rkeys, &rcols);
    let mut rkeyed = match try_extract_keys(&rkeys, &rrows, layout)? {
        Some(k) => k,
        None => {
            layout = KeyLayout::Generic;
            extract_generic(&rkeys, &rrows)?
        }
    };

    let prefilter = derive_probe_filter(left, &lkeys, layout, kind, ctx.mode, &rkeyed);
    let lrows = match &prefilter {
        Some(pf) => run_probe_scan(left, ctx, pf, lmask)?,
        None => run_masked(left, ctx, lmask)?,
    };

    let lkeyed = match try_extract_keys(&lkeys, &lrows, layout)? {
        Some(k) => k,
        None => {
            // A probe value fell outside the layout class. This can only
            // happen when no filter was pushed (a typed layout over a bare
            // scan column always yields in-class values), so re-extracting
            // both sides generically is safe and exact.
            rkeyed = extract_generic(&rkeys, &rrows)?;
            extract_generic(&lkeys, &lrows)?
        }
    };

    let residual_on = if on_covered { None } else { Some(&bound_on) };
    let (out, bloom_skipped) =
        hash_join(&lrows, &rrows, kind, &lkeyed, &rkeyed, residual_on, rwidth, workers)?;
    if let Some(prof) = ctx.profile {
        prof.record_bloom(plan, bloom_skipped);
    }
    Ok(out)
}

/// Partitioned parallel hash join over pre-extracted keys: both sides are
/// split by key hash across the worker pool, each partition builds a hash
/// table *and a Bloom filter* over its build keys and probes independently,
/// and partition outputs concatenate in partition order (deterministic for
/// a given configuration). The Bloom filter is consulted before any hash
/// table lookup; it only ever false-positives, so skipped probes are
/// exactly the hash-table misses (the second returned value counts them).
/// LEFT-join padding stays correct because a probe row's key maps it to
/// exactly one partition — a Bloom skip leaves `matched` false and the row
/// null-extends in place; probe rows with NULL keys ride along in
/// partition 0 and can only null-extend.
#[allow(clippy::too_many_arguments)]
fn hash_join(
    lrows: &[Row],
    rrows: &[Row],
    kind: JoinKind,
    lkeyed: &Keyed,
    rkeyed: &Keyed,
    residual_on: Option<&BoundExpr>,
    rwidth: usize,
    workers: usize,
) -> Result<(Vec<Row>, u64)> {
    let parts = workers.clamp(1, lrows.len().max(1));
    let mut build_parts: Vec<Vec<usize>> = vec![Vec::new(); parts];
    for (i, k) in rkeyed.iter().enumerate() {
        if let Some((h, _)) = k {
            build_parts[(h % parts as u64) as usize].push(i);
        }
    }
    let mut probe_parts: Vec<Vec<usize>> = vec![Vec::new(); parts];
    for (i, k) in lkeyed.iter().enumerate() {
        let h = k.as_ref().map(|(h, _)| *h).unwrap_or(0);
        probe_parts[(h % parts as u64) as usize].push(i);
    }

    let input = lrows.len() + rrows.len();
    let results = run_parts(parts, workers, input, |p| -> Result<(Vec<Row>, u64)> {
        let mut table: HashMap<u64, Vec<usize>> =
            HashMap::with_capacity(build_parts[p].len());
        let mut bloom = KeySummary::with_capacity(build_parts[p].len());
        for &ri in &build_parts[p] {
            let (h, _) = rkeyed[ri].as_ref().expect("build partitions hold keyed rows");
            bloom.insert_hash(*h);
            table.entry(*h).or_default().push(ri);
        }
        let mut out = Vec::new();
        let mut skipped = 0u64;
        for &li in &probe_parts[p] {
            let mut matched = false;
            if let Some((h, key)) = &lkeyed[li] {
                if !bloom.might_contain(*h) {
                    skipped += 1;
                } else if let Some(cands) = table.get(h) {
                    for &ri in cands {
                        let (_, rkey) = rkeyed[ri].as_ref().expect("keyed");
                        if rkey != key {
                            continue; // same hash bucket, different key
                        }
                        let mut j = lrows[li].clone();
                        j.extend(rrows[ri].iter().cloned());
                        if let Some(b) = residual_on {
                            if !eval_predicate(b, &j)? {
                                continue;
                            }
                        }
                        matched = true;
                        out.push(j);
                    }
                }
            }
            if !matched && kind == JoinKind::Left {
                let mut j = lrows[li].clone();
                j.extend(std::iter::repeat_n(Value::Null, rwidth));
                out.push(j);
            }
        }
        Ok((out, skipped))
    });
    let mut out = Vec::new();
    let mut skipped = 0u64;
    for r in results {
        let (rows, s) = r?;
        out.extend(rows);
        skipped += s;
    }
    Ok((out, skipped))
}

/// Nested-loop join for non-equi conditions, parallelized over contiguous
/// probe chunks — chunk order concatenation reproduces the serial output
/// exactly.
fn nested_loop_join(
    lrows: &[Row],
    rrows: &[Row],
    kind: JoinKind,
    bound_on: &BoundExpr,
    rwidth: usize,
    workers: usize,
) -> Result<Vec<Row>> {
    let chunk = lrows.len().div_ceil(workers.max(1)).max(1);
    let chunks: Vec<&[Row]> = lrows.chunks(chunk).collect();
    // The work is the pairs evaluated, not the rows read.
    let input = lrows.len().saturating_mul(rrows.len());
    let results = run_parts(chunks.len(), workers, input, |ci| -> Result<Vec<Row>> {
        let mut out = Vec::new();
        for lrow in chunks[ci] {
            let mut matched = false;
            for rrow in rrows {
                let mut j = lrow.clone();
                j.extend(rrow.iter().cloned());
                if eval_predicate(bound_on, &j)? {
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
    });
    let mut out = Vec::new();
    for r in results {
        out.extend(r?);
    }
    Ok(out)
}

/// One aggregate argument in a fused pipeline.
enum FusedArg {
    Star,
    Col(usize),
    Expr(BoundExpr),
}

/// A [`FusedArg`] specialized against one slice's column vectors. Integer
/// and double columns feed accumulators through the typed
/// [`AggState::update_i64`]/[`AggState::update_f64`] entry points — no
/// per-row [`Value`] construction; every other shape keeps the generic
/// per-value path.
enum ArgSlot<'a> {
    Star,
    I64 { vals: &'a [i64], nulls: &'a NullMap, native: fn(i64) -> Value },
    F64 { vals: &'a [f64], nulls: &'a NullMap },
    Generic(usize),
    Expr(&'a BoundExpr),
}

impl<'a> ArgSlot<'a> {
    fn specialize(arg: &'a FusedArg, slice: &'a Slice) -> ArgSlot<'a> {
        match arg {
            FusedArg::Star => ArgSlot::Star,
            FusedArg::Expr(b) => ArgSlot::Expr(b),
            FusedArg::Col(i) => {
                let c = &slice.columns[*i];
                // `native` must rebuild exactly what `Column::get` renders
                // for the declared type, or typed accumulation drifts from
                // the interpreter (e.g. a single-row SUM keeps the native
                // type; only the second value promotes to BigInt).
                let native: Option<fn(i64) -> Value> = match c.data_type {
                    idaa_common::DataType::SmallInt => Some(|v| Value::SmallInt(v as i16)),
                    idaa_common::DataType::Integer => Some(|v| Value::Int(v as i32)),
                    idaa_common::DataType::BigInt => Some(Value::BigInt),
                    _ => None,
                };
                match (c.i64_data(), c.f64_data(), native) {
                    (Some(vals), _, Some(native)) => {
                        ArgSlot::I64 { vals, nulls: &c.nulls, native }
                    }
                    (_, Some(vals), _) if c.data_type == idaa_common::DataType::Double => {
                        ArgSlot::F64 { vals, nulls: &c.nulls }
                    }
                    _ => ArgSlot::Generic(*i),
                }
            }
        }
    }
}

/// A fully compiled fused scan→filter→aggregate pipeline. Produced by
/// [`compile_fused`]; `None` from there means the plan takes the
/// interpreted [`run_aggregate`] path instead.
struct FusedPipeline {
    table: std::sync::Arc<AccelTable>,
    key_ords: Vec<usize>,
    args: Vec<FusedArg>,
    /// Ordinals any expression argument reads (scratch-row fill list).
    expr_cols: Vec<usize>,
    kernels: Vec<Kernel>,
}

/// Check whether `Aggregate(input)` can run fused, and compile it if so:
/// the input must be `Scan` or `Filter(Scan)`, every group key a bare
/// column, every aggregate argument bindable against the scan, and the
/// whole predicate must compile to kernels.
fn compile_fused(
    input: &Plan,
    group_exprs: &[Expr],
    aggs: &[idaa_sql::plan::AggCall],
    engine: &AccelEngine,
) -> Result<Option<FusedPipeline>> {
    let (table_name, predicate, scan_cols) = match input {
        Plan::Scan { table, cols, .. } if !cols.is_empty() => (table, None, cols.clone()),
        Plan::Filter { input: inner, predicate } => match inner.as_ref() {
            Plan::Scan { table, cols, .. } if !cols.is_empty() => {
                (table, Some(predicate), cols.clone())
            }
            _ => return Ok(None),
        },
        _ => return Ok(None),
    };
    let table = engine.table(table_name)?;
    // Group keys must be bare columns of the scan; aggregate arguments may
    // additionally be scalar expressions over scan columns (CAST, arithmetic
    // on a column, …) — those evaluate against a scratch row holding only
    // the columns the expression reads.
    let resolver = resolver_of(&scan_cols);
    let mut key_ords = Vec::with_capacity(group_exprs.len());
    for g in group_exprs {
        match bind(g, &resolver) {
            Ok(b) => match b.as_column() {
                Some(i) => key_ords.push(i),
                None => return Ok(None),
            },
            Err(_) => return Ok(None),
        }
    }
    let mut args: Vec<FusedArg> = Vec::with_capacity(aggs.len());
    let mut expr_cols: std::collections::HashSet<usize> = std::collections::HashSet::new();
    for a in aggs {
        match &a.arg {
            None => args.push(FusedArg::Star),
            Some(e) => match bind(e, &resolver) {
                Ok(b) => match b.as_column() {
                    Some(i) => args.push(FusedArg::Col(i)),
                    None => {
                        b.collect_columns(&mut expr_cols);
                        args.push(FusedArg::Expr(b));
                    }
                },
                Err(_) => return Ok(None),
            },
        }
    }
    let expr_cols: Vec<usize> = {
        let mut v: Vec<usize> = expr_cols.into_iter().collect();
        v.sort_unstable();
        v
    };
    // The whole predicate must compile to kernels.
    let mut kernels: Vec<Kernel> = Vec::new();
    if let Some(pred) = predicate {
        for conj in idaa_host_conjuncts(pred) {
            match compile_kernel(conj, &table, &scan_cols) {
                Some(k) => kernels.push(k),
                None => return Ok(None),
            }
        }
    }
    Ok(Some(FusedPipeline { table, key_ords, args, expr_cols, kernels }))
}

/// Fused vectorized aggregation: when the plan is `Aggregate(Filter(Scan))`
/// (or `Aggregate(Scan)`), every group key and aggregate argument is a bare
/// column, and the whole predicate compiles to kernels, aggregate states are
/// fed *directly from the column vectors* over the surviving selection
/// vector — no row materialization, no per-row expression interpretation.
/// This is the accelerator's bread and butter for reporting queries.
fn try_fused_aggregate(
    agg_node: &Plan,
    input: &Plan,
    group_exprs: &[Expr],
    aggs: &[idaa_sql::plan::AggCall],
    ctx: &ExecCtx,
) -> Result<Option<Vec<Row>>> {
    if ctx.mode == ExecMode::Interpreted {
        return Ok(None);
    }
    let Some(fused) = compile_fused(input, group_exprs, aggs, ctx.engine)? else {
        return Ok(None);
    };
    let FusedPipeline { table, key_ords, args, expr_cols, kernels } = &fused;
    let width = table.schema.len();
    let new_states =
        || -> Vec<AggState> { aggs.iter().map(|a| AggState::new(a.kind, a.distinct)).collect() };

    let fuse_slice = |slice: &Slice| -> Result<(Groups, u64)> {
        let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
        let mut groups: Groups = Vec::new();
        // Typed accumulation slots: column arguments whose slice vector
        // is numeric feed `AggState` through the monomorphic
        // `update_i64`/`update_f64` entry points; everything else goes
        // through the generic per-value path.
        let slots: Vec<ArgSlot<'_>> = args.iter().map(|a| ArgSlot::specialize(a, slice)).collect();
        // Single dictionary-string group key: map dictionary codes to
        // group indices through a dense table (slot 0 = NULL) instead
        // of hashing a materialized `Vec<Value>` key per row. Group
        // creation stays in first-occurrence order, so merge order is
        // unchanged.
        let mut dict_key: Option<(&[u32], &NullMap, Vec<usize>)> = match key_ords.as_slice() {
            [k] => {
                let col = &slice.columns[*k];
                col.str_codes().map(|codes| {
                    let dict_len = col.dictionary().map_or(0, <[String]>::len);
                    (codes, &col.nulls, vec![usize::MAX; dict_len + 1])
                })
            }
            _ => None,
        };
        // Scratch row for expression arguments: only the ordinals an
        // expression reads are ever filled in.
        let mut scratch: Row = vec![Value::Null; width];
        let batches = scan_blocks(slice, kernels, None, ctx, true, |sel| {
            for &p in sel {
                let pos = p as usize;
                let gi = if key_ords.is_empty() {
                    if groups.is_empty() {
                        groups.push((Vec::new(), new_states()));
                    }
                    0
                } else if let Some((codes, knulls, map)) = &mut dict_key {
                    // NULL rows carry the empty-string code, so the
                    // null bit must decide the slot before the code.
                    let slot = if knulls.is_null(pos) { 0 } else { codes[pos] as usize + 1 };
                    match map[slot] {
                        usize::MAX => {
                            groups.push((vec![slice.columns[key_ords[0]].get(pos)], new_states()));
                            map[slot] = groups.len() - 1;
                            groups.len() - 1
                        }
                        i => i,
                    }
                } else {
                    let key: Vec<Value> =
                        key_ords.iter().map(|&i| slice.columns[i].get(pos)).collect();
                    match index.get(&key) {
                        Some(&i) => i,
                        None => {
                            groups.push((key.clone(), new_states()));
                            index.insert(key, groups.len() - 1);
                            groups.len() - 1
                        }
                    }
                };
                for &c in expr_cols {
                    scratch[c] = slice.columns[c].get(pos);
                }
                for (state, slot) in groups[gi].1.iter_mut().zip(&slots) {
                    match slot {
                        ArgSlot::Star => state.update(&Value::Null)?,
                        ArgSlot::I64 { vals, nulls, native } => {
                            if !nulls.is_null(pos) {
                                state.update_i64(vals[pos], native)?;
                            }
                        }
                        ArgSlot::F64 { vals, nulls } => {
                            if !nulls.is_null(pos) {
                                state.update_f64(vals[pos])?;
                            }
                        }
                        ArgSlot::Generic(i) => state.update(&slice.columns[*i].get(pos))?,
                        ArgSlot::Expr(b) => state.update(&eval(b, &scratch)?)?,
                    }
                }
            }
            Ok(())
        })?;
        Ok((groups, batches))
    };

    // One partial per slice, fanned out like the base scan, merged in slice
    // order so group order matches the serial pass.
    let partials = for_each_slice(table, ctx, fuse_slice)?;
    let mut batches = 0u64;
    let mut groups_parts = Vec::with_capacity(partials.len());
    for (g, b) in partials {
        groups_parts.push(g);
        batches += b;
    }
    if let Some(prof) = ctx.profile {
        prof.record_vectorized(agg_node, batches);
    }
    let groups = merge_groups(groups_parts)?;
    Ok(Some(finish_groups(groups, group_exprs, aggs)?))
}

/// Classify which pipeline the accelerator would use for `plan` — surfaced
/// through plain `EXPLAIN` without executing anything.
pub fn describe_pipeline(plan: &Plan, engine: &AccelEngine) -> String {
    if let Some(desc) = find_fused(plan, engine) {
        return desc;
    }
    if let Some(desc) = find_join(plan) {
        return desc;
    }
    describe_scan(plan, engine)
        .unwrap_or_else(|| "interpreted (no batch-eligible scan)".to_string())
}

/// Report on the first join in the tree, mirroring `run_join`'s static
/// decisions: equi-key extraction, declared-type key layout, Bloom-guarded
/// probe, and whether the build digest pushes into the probe scan as a
/// derived join-filter.
fn find_join(plan: &Plan) -> Option<String> {
    if let Plan::Join { left, right, kind, on } = plan {
        let lcols = left.cols();
        let rcols = right.cols();
        let lres = resolver_of(&lcols);
        let rres = resolver_of(&rcols);
        let (lkeys, rkeys, _) = equi_keys(on, &lres, &rres);
        if lkeys.is_empty() {
            return Some("interpreted (nested-loop join)".to_string());
        }
        let layout = key_layout(&lkeys, &lcols, &rkeys, &rcols);
        let keys = match layout {
            KeyLayout::I64 => "typed i64 keys",
            KeyLayout::Str => "typed string keys",
            KeyLayout::Generic => "generic keys",
        };
        let pushdown =
            layout != KeyLayout::Generic && *kind == JoinKind::Inner && probe_is_scan(left);
        return Some(match (layout, pushdown) {
            (KeyLayout::Generic, _) => {
                format!("interpreted (hash join: {keys}, bloom-guarded probe)")
            }
            (_, true) => format!(
                "vectorized (hash join: {keys}, bloom-guarded probe, derived probe filter)"
            ),
            (_, false) => format!("vectorized (hash join: {keys}, bloom-guarded probe)"),
        });
    }
    plan.children().into_iter().find_map(find_join)
}

/// Find the first aggregate in the tree that would take the fused path
/// (aggregates usually sit under a `Project`, so the root alone is not
/// enough).
fn find_fused(plan: &Plan, engine: &AccelEngine) -> Option<String> {
    if let Plan::Aggregate { input, group_exprs, aggs, .. } = plan {
        if matches!(compile_fused(input, group_exprs, aggs, engine), Ok(Some(_))) {
            return Some("vectorized (fused scan-filter-aggregate)".to_string());
        }
    }
    plan.children().into_iter().find_map(|c| find_fused(c, engine))
}

/// Report on the first filtered scan in the tree: how many conjuncts
/// compile to kernels and whether an interpreted residual remains.
fn describe_scan(plan: &Plan, engine: &AccelEngine) -> Option<String> {
    match plan {
        Plan::Filter { input, predicate } => {
            if let Plan::Scan { table, .. } = input.as_ref() {
                let t = engine.table(table).ok()?;
                let cols = input.cols();
                let conjs = idaa_host_conjuncts(predicate);
                let total = conjs.len();
                let compiled =
                    conjs.iter().filter(|c| compile_kernel(c, &t, &cols).is_some()).count();
                return Some(if compiled == 0 {
                    format!("interpreted (0/{total} conjuncts compile to kernels)")
                } else if compiled == total {
                    format!("vectorized ({compiled}/{total} conjuncts as kernels)")
                } else {
                    format!(
                        "vectorized ({compiled}/{total} conjuncts as kernels + interpreted residual)"
                    )
                });
            }
            describe_scan(input, engine)
        }
        Plan::Scan { .. } => Some("vectorized (columnar scan, no kernels)".to_string()),
        _ => plan.children().into_iter().find_map(|c| describe_scan(c, engine)),
    }
}

/// Grouped partial-aggregation state: insertion-ordered groups plus a key
/// index. Insertion order is what makes chunked aggregation deterministic —
/// merging chunk results in chunk order reproduces the serial
/// first-encounter group order exactly.
type Groups = Vec<(Vec<Value>, Vec<AggState>)>;

/// Aggregate one run of rows into insertion-ordered groups.
fn aggregate_rows(
    rows: &[Row],
    bound_keys: &[BoundExpr],
    bound_args: &[Option<BoundExpr>],
    aggs: &[idaa_sql::plan::AggCall],
) -> Result<Groups> {
    let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
    let mut groups: Groups = Vec::new();
    for row in rows {
        let key: Vec<Value> = bound_keys.iter().map(|k| eval(k, row)).collect::<Result<_>>()?;
        let gi = match index.get(&key) {
            Some(&i) => i,
            None => {
                groups.push((
                    key.clone(),
                    aggs.iter().map(|a| AggState::new(a.kind, a.distinct)).collect(),
                ));
                index.insert(key, groups.len() - 1);
                groups.len() - 1
            }
        };
        for (state, arg) in groups[gi].1.iter_mut().zip(bound_args) {
            let v = match arg {
                Some(b) => eval(b, row)?,
                None => Value::Null,
            };
            state.update(&v)?;
        }
    }
    Ok(groups)
}

/// Fold per-worker partial groups together in worker order.
fn merge_groups(parts: Vec<Groups>) -> Result<Groups> {
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

/// Turn finished groups into output rows (`key columns… then aggregates…`).
fn finish_groups(mut groups: Groups, group_exprs: &[Expr], aggs: &[idaa_sql::plan::AggCall]) -> Result<Vec<Row>> {
    if groups.is_empty() && group_exprs.is_empty() {
        groups.push((vec![], aggs.iter().map(|a| AggState::new(a.kind, a.distinct)).collect()));
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

fn run_aggregate(
    input: &Plan,
    group_exprs: &[Expr],
    aggs: &[idaa_sql::plan::AggCall],
    ctx: &ExecCtx,
) -> Result<Vec<Row>> {
    let cols = input.cols();
    let resolver = resolver_of(&cols);
    let bound_keys: Vec<BoundExpr> =
        group_exprs.iter().map(|e| bind(e, &resolver)).collect::<Result<_>>()?;
    let bound_args: Vec<Option<BoundExpr>> = aggs
        .iter()
        .map(|a| a.arg.as_ref().map(|e| bind(e, &resolver)).transpose())
        .collect::<Result<_>>()?;

    let refs: Vec<&BoundExpr> =
        bound_keys.iter().chain(bound_args.iter().flatten()).collect();
    let child_mask = mask_of(cols.len(), &refs);
    let rows = run_masked(input, ctx, Some(child_mask))?;

    let workers = ctx.engine.config.workers();
    let groups = if workers > 1 && rows.len() > 1 {
        let chunk = rows.len().div_ceil(workers).max(1);
        let chunks: Vec<&[Row]> = rows.chunks(chunk).collect();
        let parts: Vec<Groups> = run_parts(chunks.len(), workers, rows.len(), |ci| {
            aggregate_rows(chunks[ci], &bound_keys, &bound_args, aggs)
        })
        .into_iter()
        .collect::<Result<_>>()?;
        merge_groups(parts)?
    } else {
        aggregate_rows(&rows, &bound_keys, &bound_args, aggs)?
    };
    finish_groups(groups, group_exprs, aggs)
}

// Kernel-level unit tests live here; engine-level behavior is tested in
// `engine.rs` and the integration suite.
#[cfg(test)]
mod tests {
    use super::*;
    use idaa_common::{DataType, ObjectName};

    #[test]
    fn zone_pruning_rules() {
        let z = ZoneEntry { min: 10.0, max: 20.0, valid: true };
        let k = |op, val| Kernel::Num { col: 0, op, val };
        assert!(k(BinaryOp::Eq, 5.0).prunes(&z));
        assert!(k(BinaryOp::Eq, 25.0).prunes(&z));
        assert!(!k(BinaryOp::Eq, 15.0).prunes(&z));
        assert!(k(BinaryOp::Lt, 10.0).prunes(&z));
        assert!(!k(BinaryOp::Lt, 11.0).prunes(&z));
        assert!(k(BinaryOp::Gt, 20.0).prunes(&z));
        assert!(!k(BinaryOp::Gt, 19.0).prunes(&z));
        assert!(k(BinaryOp::LtEq, 9.0).prunes(&z));
        assert!(k(BinaryOp::GtEq, 21.0).prunes(&z));
        let point = ZoneEntry { min: 7.0, max: 7.0, valid: true };
        assert!(k(BinaryOp::Neq, 7.0).prunes(&point));
        assert!(!k(BinaryOp::Neq, 8.0).prunes(&point));
        // Invalid zones never prune.
        let inv = ZoneEntry::default();
        assert!(!k(BinaryOp::Eq, 5.0).prunes(&inv));
    }

    #[test]
    fn range_and_null_zone_pruning_rules() {
        let z = ZoneEntry { min: 10.0, max: 20.0, valid: true };
        let range = |lo, hi, negated| Kernel::Range { col: 0, lo, hi, negated };
        // BETWEEN prunes blocks entirely outside [lo, hi]…
        assert!(range(1.0, 9.0, false).prunes(&z));
        assert!(range(21.0, 30.0, false).prunes(&z));
        // …but never blocks that touch the range.
        assert!(!range(1.0, 10.0, false).prunes(&z));
        assert!(!range(20.0, 30.0, false).prunes(&z));
        assert!(!range(12.0, 14.0, false).prunes(&z));
        // NOT BETWEEN prunes only blocks entirely inside [lo, hi].
        assert!(range(10.0, 20.0, true).prunes(&z));
        assert!(range(5.0, 25.0, true).prunes(&z));
        assert!(!range(11.0, 20.0, true).prunes(&z));
        assert!(!range(10.0, 19.0, true).prunes(&z));
        // Invalid zones never prune.
        assert!(!range(1.0, 9.0, false).prunes(&ZoneEntry::default()));
        // NULL-ness kernels never prune (zones don't track NULLs), and
        // neither do string kernels.
        let isnull = Kernel::IsNull { col: 0, negated: false };
        assert!(!isnull.prunes(&z));
        assert!(isnull.zone_col().is_none());
        let s = Kernel::Str { col: 0, val: "x".into(), negated: false };
        assert!(s.zone_col().is_none());
    }

    #[test]
    fn kernel_compilation() {
        let table = AccelTable::new(
            ObjectName::bare("T"),
            Schema::new(vec![
                ColumnDef::new("A", DataType::Integer),
                ColumnDef::new("S", DataType::Varchar(8)),
            ])
            .unwrap(),
            vec![],
            1,
        );
        let cols: Vec<PlanCol> = table
            .schema
            .columns()
            .iter()
            .map(|c| PlanCol {
                qualifier: Some("T".into()),
                name: c.name.clone(),
                data_type: c.data_type,
            })
            .collect();
        // col < lit compiles.
        let e = idaa_sql::parse_statement("SELECT 1 FROM t WHERE a < 5").unwrap();
        let idaa_sql::Statement::Query(q) = e else { panic!() };
        let k = compile_kernel(q.filter.as_ref().unwrap(), &table, &cols);
        assert!(matches!(k, Some(Kernel::Num { op: BinaryOp::Lt, .. })));
        // lit > col flips.
        let e = idaa_sql::parse_statement("SELECT 1 FROM t WHERE 5 > a").unwrap();
        let idaa_sql::Statement::Query(q) = e else { panic!() };
        let k = compile_kernel(q.filter.as_ref().unwrap(), &table, &cols);
        assert!(matches!(k, Some(Kernel::Num { op: BinaryOp::Lt, .. })));
        // string equality compiles to the string kernel.
        let e = idaa_sql::parse_statement("SELECT 1 FROM t WHERE s = 'x'").unwrap();
        let idaa_sql::Statement::Query(q) = e else { panic!() };
        let k = compile_kernel(q.filter.as_ref().unwrap(), &table, &cols);
        assert!(matches!(k, Some(Kernel::Str { negated: false, .. })));
        // LIKE does not compile (stays residual).
        let e = idaa_sql::parse_statement("SELECT 1 FROM t WHERE s LIKE 'x%'").unwrap();
        let idaa_sql::Statement::Query(q) = e else { panic!() };
        assert!(compile_kernel(q.filter.as_ref().unwrap(), &table, &cols).is_none());

        let compile = |sql: &str| {
            let e = idaa_sql::parse_statement(sql).unwrap();
            let idaa_sql::Statement::Query(q) = e else { panic!() };
            compile_kernel(q.filter.as_ref().unwrap(), &table, &cols)
        };
        // BETWEEN over a numeric column compiles to a range kernel.
        let k = compile("SELECT 1 FROM t WHERE a BETWEEN 1 AND 5");
        assert!(
            matches!(k, Some(Kernel::Range { lo, hi, negated: false, .. }) if lo == 1.0 && hi == 5.0)
        );
        let k = compile("SELECT 1 FROM t WHERE a NOT BETWEEN 1 AND 5");
        assert!(matches!(k, Some(Kernel::Range { negated: true, .. })));
        // String BETWEEN stays residual (kernels only range over numerics).
        assert!(compile("SELECT 1 FROM t WHERE s BETWEEN 'a' AND 'b'").is_none());
        // A bound beyond 2^53 is not exactly representable in f64: bail to
        // the exact residual evaluator (same guard as plain comparisons).
        assert!(compile("SELECT 1 FROM t WHERE a BETWEEN 1 AND 9007199254740993").is_none());
        assert!(compile("SELECT 1 FROM t WHERE a = 9007199254740993").is_none());
        // IS [NOT] NULL compiles for any column type.
        assert!(matches!(
            compile("SELECT 1 FROM t WHERE a IS NULL"),
            Some(Kernel::IsNull { negated: false, .. })
        ));
        assert!(matches!(
            compile("SELECT 1 FROM t WHERE s IS NOT NULL"),
            Some(Kernel::IsNull { negated: true, .. })
        ));
    }

    /// Run `kernel` over all positions of the first slice of `table`,
    /// returning the surviving positions.
    fn filter_positions(table: &AccelTable, n: usize, kernel: &Kernel) -> Vec<u32> {
        let slice = table.slices()[0].read();
        let spec = kernel.specialize(&slice);
        let mut sel: Vec<u32> = (0..n as u32).collect();
        spec.filter(&mut sel);
        sel
    }

    #[test]
    fn str_kernel_negated_matches_values_absent_from_dictionary() {
        let table = AccelTable::new(
            ObjectName::bare("T"),
            Schema::new(vec![ColumnDef::new("S", DataType::Varchar(8))]).unwrap(),
            vec![],
            1,
        );
        let rows: Vec<Row> = vec![
            vec![Value::Varchar("a".into())],
            vec![Value::Null],
            vec![Value::Varchar("b".into())],
            vec![Value::Varchar("a".into())],
        ];
        let checked: Vec<Row> =
            rows.iter().map(|r| table.schema.check_row(r).unwrap()).collect();
        table.insert_bulk(&checked, 1).unwrap();
        let run = |negated: bool, val: &str| {
            filter_positions(&table, rows.len(), &Kernel::Str {
                col: 0,
                val: val.into(),
                negated,
            })
        };
        // "zzz" is absent from the dictionary: equality matches nothing,
        // while the negated kernel matches every non-NULL row.
        assert_eq!(run(false, "zzz"), Vec::<u32>::new());
        assert_eq!(run(true, "zzz"), vec![0, 2, 3]);
        // Present value: Eq picks the matching rows, Neq the other non-NULLs.
        assert_eq!(run(false, "a"), vec![0, 3]);
        assert_eq!(run(true, "a"), vec![2]);
        // The dictionary probe is memoized: repeated lookups return the
        // same slice, not a rebuilt one.
        let slice = table.slices()[0].read();
        let first = slice.columns[0].codes_matching("a").as_ptr();
        let second = slice.columns[0].codes_matching("a").as_ptr();
        assert_eq!(first, second);
    }

    #[test]
    fn batch_kernels_match_row_oracle() {
        let table = AccelTable::new(
            ObjectName::bare("T"),
            Schema::new(vec![
                ColumnDef::new("A", DataType::BigInt),
                ColumnDef::new("D", DataType::Double),
            ])
            .unwrap(),
            vec![],
            1,
        );
        let mut rows: Vec<Row> = Vec::new();
        for i in 0..300i64 {
            let a = if i % 7 == 0 { Value::Null } else { Value::BigInt(i % 50 - 10) };
            let d = if i % 11 == 0 {
                Value::Null
            } else {
                Value::Double((i % 40) as f64 * 0.25)
            };
            rows.push(vec![a, d]);
        }
        let checked: Vec<Row> =
            rows.iter().map(|r| table.schema.check_row(r).unwrap()).collect();
        table.insert_bulk(&checked, 1).unwrap();
        let kernels = [
            Kernel::Num { col: 0, op: BinaryOp::Lt, val: 7.0 },
            Kernel::Num { col: 0, op: BinaryOp::Eq, val: -3.0 },
            Kernel::Num { col: 1, op: BinaryOp::GtEq, val: 4.5 },
            Kernel::Range { col: 0, lo: -5.0, hi: 12.0, negated: false },
            Kernel::Range { col: 0, lo: -5.0, hi: 12.0, negated: true },
            Kernel::Range { col: 1, lo: 1.25, hi: 6.75, negated: false },
            Kernel::Range { col: 1, lo: 1.25, hi: 6.75, negated: true },
            // Fractional bounds against the i64 column exercise the
            // generic `numeric_at` fallback loop.
            Kernel::Range { col: 0, lo: -4.5, hi: 11.5, negated: false },
            Kernel::Num { col: 0, op: BinaryOp::Gt, val: 2.5 },
            Kernel::IsNull { col: 0, negated: false },
            Kernel::IsNull { col: 0, negated: true },
            Kernel::IsNull { col: 1, negated: false },
        ];
        let slice = table.slices()[0].read();
        for kernel in &kernels {
            // Per-row oracle straight from the kernel's defining semantics:
            // NULL never matches a comparison or range, and IS [NOT] NULL
            // reads only the null bitmap.
            let oracle: Vec<u32> = (0..rows.len())
                .filter(|&p| {
                    let null = slice.columns[match kernel {
                        Kernel::Num { col, .. }
                        | Kernel::Range { col, .. }
                        | Kernel::Str { col, .. }
                        | Kernel::IsNull { col, .. } => *col,
                    }]
                    .nulls
                    .is_null(p);
                    match kernel {
                        Kernel::Num { col, op, val } => match slice.columns[*col].numeric_at(p)
                        {
                            None => false,
                            Some(x) => cmp_f64(*op, x, *val),
                        },
                        Kernel::Range { col, lo, hi, negated } => {
                            match slice.columns[*col].numeric_at(p) {
                                None => false,
                                Some(x) => (x >= *lo && x <= *hi) != *negated,
                            }
                        }
                        Kernel::IsNull { negated, .. } => null != *negated,
                        Kernel::Str { .. } => unreachable!(),
                    }
                })
                .map(|p| p as u32)
                .collect();
            let spec = kernel.specialize(&slice);
            let mut sel: Vec<u32> = (0..rows.len() as u32).collect();
            spec.filter(&mut sel);
            assert_eq!(sel, oracle, "kernel {kernel:?}");
        }
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

    fn canon(mut rows: Vec<Row>) -> Vec<Row> {
        rows.sort_by(|a, b| {
            a.iter()
                .zip(b.iter())
                .map(|(x, y)| x.cmp_total(y))
                .find(|o| *o != std::cmp::Ordering::Equal)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        rows
    }

    #[test]
    fn run_parts_keeps_part_order_and_runs_small_inputs_on_the_caller() {
        let caller = std::thread::current().id();
        let part = |i: usize| (i * i, std::thread::current().id());
        // One batch or less: every part runs inline, whatever the workers.
        let small = run_parts(9, 8, BLOCK_ROWS, part);
        assert!(small.iter().all(|(_, t)| *t == caller));
        // More than a batch: helpers join in (more parts than threads, so
        // parts are claimed, not assigned) and results stay in part order.
        for workers in [1, 2, 3, 8] {
            let got = run_parts(37, workers, BLOCK_ROWS + 1, part);
            let squares: Vec<usize> = got.iter().map(|(v, _)| *v).collect();
            assert_eq!(squares, (0..37).map(|i| i * i).collect::<Vec<_>>(), "workers={workers}");
            if workers == 1 {
                assert!(got.iter().all(|(_, t)| *t == caller));
            }
        }
        assert!(run_parts(0, 4, usize::MAX, part).is_empty());
    }

    #[test]
    fn parallel_sort_matches_serial() {
        let rows = synth_rows(501, 7, 13);
        let keys = [(0usize, false), (1usize, true)];
        let serial = sort_rows(rows.clone(), &keys, 1);
        for workers in [2, 3, 4, 8] {
            assert_eq!(sort_rows(rows.clone(), &keys, workers), serial, "workers={workers}");
        }
    }

    #[test]
    fn parallel_sort_is_stable_like_serial() {
        // Many ties on the single sort key: the k-way merge must preserve
        // the original relative order of equal rows, like the serial
        // stable sort does.
        let rows = synth_rows(200, 3, 4);
        let keys = [(0usize, false)];
        let serial = sort_rows(rows.clone(), &keys, 1);
        assert_eq!(sort_rows(rows, &keys, 4), serial);
    }

    #[test]
    fn top_k_matches_stable_sort_truncate() {
        let rows = synth_rows(300, 11, 9);
        let keys = [(0usize, true)];
        for k in [0usize, 1, 5, 50, 299, 300, 400] {
            let mut expect = sort_rows(rows.clone(), &keys, 1);
            expect.truncate(k);
            let got = top_k(rows.clone(), k, sort_cmp(&keys));
            assert_eq!(got, expect, "k={k}");
        }
    }

    /// Extract both sides under `layout`, with the whole-join generic
    /// fallback `run_join` applies when a value falls outside the class.
    fn extract_both(
        lkeys: &[BoundExpr],
        lrows: &[Row],
        rkeys: &[BoundExpr],
        rrows: &[Row],
        layout: KeyLayout,
    ) -> (Keyed, Keyed) {
        match (
            try_extract_keys(lkeys, lrows, layout).unwrap(),
            try_extract_keys(rkeys, rrows, layout).unwrap(),
        ) {
            (Some(l), Some(r)) => (l, r),
            _ => (
                extract_generic(lkeys, lrows).unwrap(),
                extract_generic(rkeys, rrows).unwrap(),
            ),
        }
    }

    #[test]
    fn hash_join_parallel_matches_serial() {
        let mut lrows = synth_rows(400, 1, 37);
        let mut rrows = synth_rows(350, 2, 37);
        // Sprinkle NULL keys on both sides: they must never match, and
        // LEFT joins must null-extend the probe-side ones exactly once.
        for i in (0..rrows.len()).step_by(41) {
            rrows[i][0] = Value::Null;
        }
        for i in (0..lrows.len()).step_by(53) {
            lrows[i][0] = Value::Null;
        }
        let lkeys = [BoundExpr::Column(0)];
        let rkeys = [BoundExpr::Column(0)];
        for layout in [KeyLayout::I64, KeyLayout::Generic] {
            let (lkeyed, rkeyed) = extract_both(&lkeys, &lrows, &rkeys, &rrows, layout);
            for kind in [JoinKind::Inner, JoinKind::Left] {
                let (serial, _) =
                    hash_join(&lrows, &rrows, kind, &lkeyed, &rkeyed, None, 2, 1).unwrap();
                for workers in [2, 4, 8] {
                    let (par, _) =
                        hash_join(&lrows, &rrows, kind, &lkeyed, &rkeyed, None, 2, workers)
                            .unwrap();
                    // Partition concatenation order differs from serial row
                    // order, but the multiset of joined rows is identical.
                    assert_eq!(
                        canon(par),
                        canon(serial.clone()),
                        "{layout:?} {kind:?} workers={workers}"
                    );
                }
                if kind == JoinKind::Left {
                    let padded = serial
                        .iter()
                        .filter(|r| r[2] == Value::Null && r[3] == Value::Null)
                        .count();
                    assert!(padded > 0, "expected null-extended probe rows");
                }
            }
        }
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
        let keys = [BoundExpr::Column(0)];
        for layout in [KeyLayout::I64, KeyLayout::Generic] {
            let (lkeyed, rkeyed) = extract_both(&keys, &lrows, &keys, &rrows, layout);
            for kind in [JoinKind::Inner, JoinKind::Left] {
                // One partition ⇒ byte-identical to the nested oracle, not
                // just the same multiset: probe order, then build order.
                let (got, _) =
                    hash_join(&lrows, &rrows, kind, &lkeyed, &rkeyed, None, 2, 1).unwrap();
                assert_eq!(got, oracle_join(&lrows, &rrows, kind), "{layout:?} {kind:?}");
            }
        }
    }

    #[test]
    fn typed_key_extraction_falls_back_on_layout_violation() {
        let keys = [BoundExpr::Column(0)];
        // A Double value under the I64 layout: the whole side refuses.
        let rows = vec![vec![Value::BigInt(1)], vec![Value::Double(2.5)]];
        assert!(try_extract_keys(&keys, &rows, KeyLayout::I64).unwrap().is_none());
        // A number under the Str layout likewise.
        let rows = vec![vec![Value::Varchar("a".into())], vec![Value::Int(3)]];
        assert!(try_extract_keys(&keys, &rows, KeyLayout::Str).unwrap().is_none());
        // The generic layout accepts anything.
        let rows = vec![vec![Value::BigInt(1)], vec![Value::Double(2.5)], vec![Value::Null]];
        let keyed = try_extract_keys(&keys, &rows, KeyLayout::Generic).unwrap().unwrap();
        assert!(keyed[0].is_some() && keyed[1].is_some() && keyed[2].is_none());
    }

    #[test]
    fn string_keys_join_with_db2_padded_semantics() {
        // 'EU' must join 'EU  ' under both the typed and generic layouts,
        // exactly like Value equality for CHAR-family pairs.
        let lrows: Vec<Row> =
            vec![vec![Value::Varchar("EU".into())], vec![Value::Varchar("US ".into())]];
        let rrows: Vec<Row> =
            vec![vec![Value::Varchar("EU  ".into())], vec![Value::Varchar("ASIA".into())]];
        let keys = [BoundExpr::Column(0)];
        let mut outs = Vec::new();
        for layout in [KeyLayout::Str, KeyLayout::Generic] {
            let (lkeyed, rkeyed) = extract_both(&keys, &lrows, &keys, &rrows, layout);
            let (out, _) =
                hash_join(&lrows, &rrows, JoinKind::Inner, &lkeyed, &rkeyed, None, 1, 1)
                    .unwrap();
            outs.push(out);
        }
        assert_eq!(outs[0], outs[1]);
        assert_eq!(outs[0].len(), 1);
        assert_eq!(outs[0][0][0], Value::Varchar("EU".into()));
    }

    #[test]
    fn probe_filter_drops_only_never_matching_rows() {
        let table = AccelTable::new(
            ObjectName::bare("T"),
            Schema::new(vec![
                ColumnDef::new("K", DataType::BigInt),
                ColumnDef::new("S", DataType::Varchar(8)),
            ])
            .unwrap(),
            vec![],
            1,
        );
        let mut rows: Vec<Row> = Vec::new();
        for i in 0..500i64 {
            let k = if i % 23 == 0 { Value::Null } else { Value::BigInt(i % 90) };
            let s = if i % 31 == 0 {
                Value::Null
            } else {
                Value::Varchar(format!("V{}", i % 60))
            };
            rows.push(vec![k, s]);
        }
        let checked: Vec<Row> =
            rows.iter().map(|r| table.schema.check_row(r).unwrap()).collect();
        table.insert_bulk(&checked, 1).unwrap();

        // Build-side keys 0..40 on the i64 column, V0..V25 on the dict one.
        let mut int_summary = KeySummary::with_capacity(40);
        for v in 0..40i64 {
            int_summary.insert_i64(v);
        }
        let mut str_summary = KeySummary::with_capacity(25);
        for v in 0..25 {
            str_summary.insert_str(&format!("V{v}"));
        }
        let slice = table.slices()[0].read();
        for (pf, matches) in [
            (
                ProbeFilter { col: 0, summary: int_summary },
                (0..rows.len())
                    .filter(|&p| matches!(rows[p][0], Value::BigInt(v) if v < 40))
                    .collect::<Vec<usize>>(),
            ),
            (
                ProbeFilter { col: 1, summary: str_summary },
                (0..rows.len())
                    .filter(|&p| match &rows[p][1] {
                        Value::Varchar(s) => {
                            s[1..].parse::<i64>().expect("V<number>") < 25
                        }
                        _ => false,
                    })
                    .collect::<Vec<usize>>(),
            ),
        ] {
            let spec = pf.specialize(&slice);
            let mut sel: Vec<u32> = (0..rows.len() as u32).collect();
            spec.filter(&mut sel);
            // No false negatives: every truly matching position survives,
            // in ascending order; NULLs always drop.
            for &p in &matches {
                assert!(sel.binary_search(&(p as u32)).is_ok(), "dropped true match {p}");
            }
            for &p in &sel {
                assert!(rows[p as usize][pf.col] != Value::Null, "kept a NULL key");
            }
            assert!(sel.windows(2).all(|w| w[0] < w[1]), "selection not ascending");
        }
    }

    #[test]
    fn materialize_block_matches_per_row_get() {
        let table = AccelTable::new(
            ObjectName::bare("T"),
            Schema::new(vec![
                ColumnDef::new("I", DataType::Integer),
                ColumnDef::new("D", DataType::Double),
                ColumnDef::new("N", DataType::Decimal(7, 2)),
                ColumnDef::new("S", DataType::Varchar(8)),
            ])
            .unwrap(),
            vec![],
            1,
        );
        let mut rows: Vec<Row> = Vec::new();
        for i in 0..40i64 {
            rows.push(vec![
                if i % 5 == 0 { Value::Null } else { Value::Int(i as i32 - 7) },
                if i % 7 == 0 { Value::Null } else { Value::Double(i as f64 * 0.5) },
                if i % 9 == 0 {
                    Value::Null
                } else {
                    Value::Decimal(idaa_common::Decimal::new((i * 125) as i128, 2))
                },
                if i % 4 == 0 { Value::Null } else { Value::Varchar(format!("s{}", i % 6)) },
            ]);
        }
        let checked: Vec<Row> =
            rows.iter().map(|r| table.schema.check_row(r).unwrap()).collect();
        table.insert_bulk(&checked, 1).unwrap();
        let slice = table.slices()[0].read();
        let sel: Vec<u32> = (0..rows.len() as u32).step_by(3).collect();
        for mask in [None, Some(vec![true, false, true, false])] {
            let mut got: Vec<Row> = Vec::new();
            materialize_block(&slice, &sel, mask.as_deref(), &mut got);
            let expect: Vec<Row> = sel
                .iter()
                .map(|&p| {
                    slice
                        .columns
                        .iter()
                        .enumerate()
                        .map(|(i, c)| {
                            if mask.as_ref().is_none_or(|m| m[i]) {
                                c.get(p as usize)
                            } else {
                                Value::Null
                            }
                        })
                        .collect()
                })
                .collect();
            assert_eq!(got, expect, "mask={mask:?}");
        }
    }

    #[test]
    fn nested_loop_parallel_matches_serial_order_exactly() {
        let lrows = synth_rows(120, 5, 11);
        let rrows = synth_rows(90, 6, 11);
        // Non-equi ON: left.key < right.key.
        let on = BoundExpr::Binary {
            left: Box::new(BoundExpr::Column(0)),
            op: BinaryOp::Lt,
            right: Box::new(BoundExpr::Column(2)),
        };
        for kind in [JoinKind::Inner, JoinKind::Left] {
            let serial = nested_loop_join(&lrows, &rrows, kind, &on, 2, 1).unwrap();
            for workers in [2, 4, 7] {
                // Chunk-order concatenation reproduces the serial output
                // byte for byte — not just as a multiset.
                let par = nested_loop_join(&lrows, &rrows, kind, &on, 2, workers).unwrap();
                assert_eq!(par, serial, "{kind:?} workers={workers}");
            }
        }
    }
}
