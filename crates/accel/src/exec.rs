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
//! place over the typed column vectors. Any conjunct the compiler cannot
//! prove exact (see `guarded_lit`) stays with the row-at-a-time interpreter
//! as a residual — results are always exact, never approximate.
//!
//! What consumes the surviving selection is decided once per plan by
//! `pipeline::lower`: a sub-plan whose probe side is a (filtered) scan runs
//! as one `pipeline::Pipeline` (join probe, residuals, projection,
//! aggregate / sort / top-K / row sink over the typed vectors; a row is
//! built only at the sink). The plan itself runs on the walk DB2 runs,
//! `idaa_sql::exec::run`, with [`ExecCtx`] as its row source: the source
//! answers the sub-plans lowered to a pipeline or a compiled scan, and the
//! walk runs every other node's shared row operator plainly and serially.
//! Under [`ExecMode::Interpreted`], the oracle, the source answers scans
//! only.
//!
//! Only slices fan out: scans and pipelines go through `for_each_slice` →
//! `run_parts`, whose parts are the table's slices (so output order is a
//! function of the data) and whose schedule is decided per call from the
//! worker count and the input size.

use crate::column::{Column, NullMap};
use crate::engine::AccelEngine;
use crate::mvcc::Snapshot;
use crate::partial::group_rows;
use crate::pipeline::{gather, Kind, Lowered, OutCol};
use crate::table::{AccelTable, RowPos, Slice, ZoneEntry, BLOCK_ROWS};
use idaa_common::{Error, ObjectName, Result, Row, Value};
use idaa_sql::ast::{BinaryOp, Expr};
use idaa_sql::eval::{eval_predicate, BoundExpr};
use idaa_sql::exec::{
    aggregate, bind_all, conjuncts, flip, input_mask, mask_of, resolver_of, run, union_mask,
    RowSource,
};
use idaa_sql::plan::{Plan, PlanCol, PlanProfile};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Run `f(0)..f(parts-1)` and return the results in part order — the one
/// fan-out, reached only through [`for_each_slice`]. The caller fixes the
/// partitioning (`parts`) from the configuration and the data, which keeps
/// output deterministic; this function only decides the schedule. An input of at
/// most one batch (`input` counts the rows or versions the parts will read)
/// runs every part inline: spawning costs more than the work. Otherwise
/// `min(workers, parts) - 1` scoped helpers plus the calling thread claim
/// parts from a shared counter until none are left.
pub(crate) fn run_parts<T, F>(parts: usize, workers: usize, input: usize, f: F) -> Vec<T>
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
            // A part that panicked keeps panicking on the caller's thread.
            done.extend(h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
        }
        done
    });
    done.sort_unstable_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, t)| t).collect()
}

/// Which executor runs a statement. `Vectorized` (the default) lowers the
/// plan to batch pipelines wherever it can stream and compiles predicate
/// conjuncts to kernels over block-sized selection vectors; `Interpreted`
/// forces the serial row-at-a-time interpreter for every node — kept as the
/// exactness oracle (and the fallback for the few shapes the lowering does
/// not cover).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    #[default]
    Vectorized,
    Interpreted,
}

/// Execution context for one statement, and the accelerator's row source
/// for the shared walk: it answers each node its lowering maps to a
/// pipeline or a compiled scan, and the walk runs every other node.
pub struct ExecCtx<'a> {
    pub engine: &'a AccelEngine,
    pub snap: Snapshot,
    pub mode: ExecMode,
    /// When set, each executed plan node records its output cardinality
    /// (fused children stay unrecorded — fusion is visible in the profile).
    pub profile: Option<&'a PlanProfile>,
    /// The statement's lowering (empty for a bare table scan).
    pub(crate) low: &'a Lowered,
}

impl RowSource for ExecCtx<'_> {
    /// `needed` is *projection pushdown*: a column no caller reads is left
    /// NULL and its column vector never decoded.
    fn node(&self, plan: &Plan, needed: Option<&[bool]>) -> Result<Option<Vec<Row>>> {
        match self.low.kind(plan) {
            Some(Kind::Pipe(pipe)) => pipe.run(plan, self, needed, false).map(Some),
            Some(Kind::Scan(spec)) => {
                let t = self.engine.table(&spec.table)?;
                scan_table(&t, spec, self, needed, Some(plan), false).map(|(rows, _)| Some(rows))
            }
            Some(Kind::Join { .. }) | None => Ok(None),
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
    let spec = ScanSpec::compile(table, predicate, &table_cols(table), ctx.mode)?;
    scan_table(table, &spec, ctx, None, None, false).map(|(rows, _)| rows)
}

/// The kernel IR: one compiled single-column predicate. A conjunction
/// compiles into a list of kernels that each filter the block's selection
/// vector in turn; anything the compiler can't prove exact stays in the
/// interpreted residual.
#[derive(Debug, Clone)]
pub(crate) enum Kernel {
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
                let c: &Column = &slice.columns()[*col];
                if let (Some(vals), Some(i)) = (c.i64_data(), exact_i64(*val)) {
                    SpecKernel::I64Cmp { vals, nulls: &c.nulls, op: *op, val: i }
                } else if let Some(vals) = c.f64_data() {
                    SpecKernel::F64Cmp { vals, nulls: &c.nulls, op: *op, val: *val }
                } else {
                    SpecKernel::NumCmp { col: c, op: *op, val: *val }
                }
            }
            Kernel::Range { col, lo, hi, negated } => {
                let c: &Column = &slice.columns()[*col];
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
                let c: &Column = &slice.columns()[*col];
                let Some(codes) = c.str_codes() else { return SpecKernel::Never };
                SpecKernel::Str {
                    codes,
                    nulls: &c.nulls,
                    matches: c.codes_matching(val),
                    negated: *negated,
                }
            }
            Kernel::IsNull { col, negated } => {
                SpecKernel::IsNull { nulls: &slice.columns()[*col].nulls, negated: *negated }
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
pub(crate) fn compact(sel: &mut Vec<u32>, mut keep: impl FnMut(usize) -> bool) {
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

/// A `Scan` / `Filter(Scan)` leaf, compiled once: the conjuncts that became
/// kernels plus whatever stays with the interpreter as a residual.
#[derive(Debug)]
pub(crate) struct ScanSpec {
    pub(crate) table: ObjectName,
    pub(crate) kernels: Vec<Kernel>,
    pub(crate) residual: Option<BoundExpr>,
    /// Conjuncts in the predicate (kernels + those folded into `residual`).
    conjuncts: usize,
}

impl ScanSpec {
    /// Compile `predicate` over a scan of `table`. Forced interpreter mode
    /// compiles nothing: the whole predicate is residual.
    pub(crate) fn compile(
        table: &AccelTable,
        predicate: Option<&Expr>,
        scan_cols: &[PlanCol],
        mode: ExecMode,
    ) -> Result<ScanSpec> {
        let mut kernels: Vec<Kernel> = Vec::new();
        let mut leftover: Vec<&Expr> = Vec::new();
        let conjs = predicate.map(conjuncts).unwrap_or_default();
        let conjuncts = conjs.len();
        for conj in conjs {
            let compiled = match mode {
                ExecMode::Vectorized => compile_kernel(conj, table, scan_cols),
                ExecMode::Interpreted => None,
            };
            match compiled {
                Some(k) => kernels.push(k),
                None => leftover.push(conj),
            }
        }
        let residual = bind_all(leftover, &resolver_of(scan_cols))?;
        Ok(ScanSpec { table: table.name.clone(), kernels, residual, conjuncts })
    }

    /// How this scan runs, for `EXPLAIN`'s `PIPELINE:` line.
    pub(crate) fn describe(&self) -> String {
        let (compiled, total) = (self.kernels.len(), self.conjuncts);
        if total == 0 {
            "vectorized (columnar scan, no kernels)".to_string()
        } else if compiled == 0 {
            format!("interpreted (0/{total} conjuncts compile to kernels)")
        } else if compiled == total {
            format!("vectorized ({compiled}/{total} conjuncts as kernels)")
        } else {
            format!("vectorized ({compiled}/{total} conjuncts as kernels + interpreted residual)")
        }
    }
}

/// Any-kernel zone test for one block: a block is skipped when any kernel's
/// zone map proves it empty (superset rule: pruning is only ever a subset
/// of what the kernels would reject row by row).
fn zone_prunes(kernels: &[Kernel], slice: &Slice, b: usize) -> bool {
    kernels.iter().any(|k| {
        k.zone_col()
            .and_then(|c| slice.zones()[c].get(b))
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
    let versions = slice.created()[start..end].iter().zip(&slice.deleted()[start..end]);
    for (pos, (&created, &deleted)) in (start..end).zip(versions) {
        if vis.visible(created, deleted) {
            sel.push(pos as u32);
        }
    }
    (start, end)
}

/// The scan front end for one slice — the source of every pipeline and of
/// every row-path scan. Per block: skip it when a kernel's zone map proves
/// it empty, resolve visibility into a selection vector ([`select_block`]),
/// let each kernel compact it, and hand the survivors (ascending positions)
/// to `sink`, which may compact the vector further. Returns the number of
/// batches run. `counted` is false for DML victim selection: the scan
/// counters describe query work in every experiment table, so DML leaves
/// them alone.
pub(crate) fn scan_blocks(
    slice: &Slice,
    kernels: &[Kernel],
    ctx: &ExecCtx,
    counted: bool,
    mut sink: impl FnMut(&mut Vec<u32>) -> Result<()>,
) -> Result<u64> {
    let count = |counter: &AtomicU64, n: usize| {
        if counted {
            counter.fetch_add(n as u64, Ordering::Relaxed);
        }
    };
    let stats = &ctx.engine.stats;
    let use_zones = ctx.engine.config.zone_maps;
    let spec: Vec<SpecKernel> = kernels.iter().map(|k| k.specialize(slice)).collect();
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
        sink(&mut sel)?;
        count(&stats.rows_scanned, end - start);
    }
    Ok(batches)
}

/// Run `f` over every slice of `table` through [`run_parts`], each part
/// holding its slice's read lock; results come back in slice order. The
/// schedule follows what the parts will read — the rows in blocks `kernels`'
/// zone maps cannot prune — so a narrow range query over a large table
/// stays on the caller's thread.
pub(crate) fn for_each_slice<T: Send>(
    table: &AccelTable,
    kernels: &[Kernel],
    ctx: &ExecCtx,
    f: impl Fn(&Slice) -> Result<T> + Sync,
) -> Result<Vec<T>> {
    let slices = table.slices();
    let config = &ctx.engine.config;
    // Sized only as far as the schedule needs: stop once past one batch.
    let mut input = 0usize;
    'sized: for s in slices.iter().filter(|_| config.workers() > 1) {
        let s = s.read();
        let total = s.version_count();
        for b in 0..s.block_count() {
            let pruned = config.zone_maps && zone_prunes(kernels, &s, b);
            input += if pruned { 0 } else { BLOCK_ROWS.min(total - b * BLOCK_ROWS) };
            if input > BLOCK_ROWS {
                break 'sized;
            }
        }
    }
    run_parts(slices.len(), config.workers(), input, |si| f(&slices[si].read()))
        .into_iter()
        .collect()
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
    let spec = ScanSpec::compile(table, filter, &table_cols(table), ctx.mode)?;
    let (rows, positions) = scan_table(table, &spec, ctx, needed.as_deref(), None, true)?;
    Ok(positions.into_iter().zip(rows).collect())
}

/// Scan `table` into rows: the survivors of `spec`, plus their positions
/// when `victims` is set (a victim scan also leaves the scan counters
/// untouched).
pub(crate) fn scan_table(
    table: &AccelTable,
    spec: &ScanSpec,
    ctx: &ExecCtx,
    needed: Option<&[bool]>,
    prof_node: Option<&Plan>,
    victims: bool,
) -> Result<(Vec<Row>, Vec<RowPos>)> {
    let ScanSpec { kernels, residual, .. } = spec;
    // Effective materialization mask: what the caller reads plus what the
    // residual predicate reads. Kernel columns are evaluated directly on
    // the typed vectors and need no materialization.
    let width = table.schema.len();
    let mask: Option<Vec<bool>> = needed.map(|m| union_mask(m, &mask_of(width, residual)));

    // Late materialization: with no interpreted residual left, survivors
    // are assembled column-at-a-time by the pipeline's row gather instead
    // of the per-row loop. Interpreted mode keeps the row loop as the oracle.
    let late_mat = ctx.mode == ExecMode::Vectorized && residual.is_none();
    let all_cols: Vec<OutCol> = (0..width).map(OutCol::Probe).collect();

    // Per slice: materialize (and residual-check) only the survivors the
    // front end hands over, in ascending position order — the same output
    // order as a per-row loop, without its per-row dispatch.
    let scan_one = |slice: &Slice| -> Result<(Vec<Row>, Vec<u32>, u64)> {
        let mut out = Vec::new();
        let mut positions: Vec<u32> = Vec::new();
        let batches = scan_blocks(slice, kernels, ctx, !victims, |sel| {
            if late_mat {
                gather(&all_cols, mask.as_deref(), slice, &[], sel, &[], &mut out)?;
                if victims {
                    positions.extend_from_slice(sel);
                }
                return Ok(());
            }
            for &p in sel.iter() {
                let pos = p as usize;
                let row: Row = match &mask {
                    None => slice.row_at(pos),
                    Some(m) => slice
                        .columns()
                        .iter()
                        .enumerate()
                        .map(|(i, c)| if m[i] { c.get(pos) } else { Value::Null })
                        .collect(),
                };
                if let Some(res) = residual {
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
    let per_slice = for_each_slice(table, kernels, ctx, scan_one)?;
    for (si, (rows, pos, b)) in per_slice.into_iter().enumerate() {
        out.extend(rows);
        positions.extend(pos.into_iter().map(|p| RowPos { slice: si, pos: p as usize }));
        batches += b;
    }
    // A scan counts as vectorized only when at least one kernel compiled —
    // with zero kernels every row goes through the interpreted residual.
    if let (Some(prof), Some(node)) = (ctx.profile, prof_node) {
        if !kernels.is_empty() {
            prof.record_vectorized(node, batches);
        }
    }
    Ok((out, positions))
}

/// A fleet shard's partial of an `Aggregate` node: its groups merged but
/// not finished, as [`group_rows`] ships them.
pub(crate) fn run_partial_groups(plan: &Plan, ctx: &ExecCtx) -> Result<Vec<Row>> {
    if let Some(Kind::Pipe(pipe)) = ctx.low.kind(plan) {
        return pipe.run(plan, ctx, None, true);
    }
    let Plan::Aggregate { input, group_exprs, aggs, .. } = plan else {
        return Err(Error::internal(format!("{} has no partial groups", plan.label())));
    };
    let rows = run(input, ctx, input_mask(plan, None)?.as_deref(), ctx.profile)?;
    let rows = group_rows(aggregate(input, group_exprs, aggs, &rows)?);
    if let Some(prof) = ctx.profile {
        prof.record(plan, rows.len() as u64);
    }
    Ok(rows)
}

// Kernel-level unit tests live here; engine-level behavior is tested in
// `engine.rs` and the integration suite.
#[cfg(test)]
mod tests {
    use super::*;
    use idaa_common::{ColumnDef, DataType, ObjectName, Schema};

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
        let cols = table_cols(&table);
        let compile = |sql: &str| {
            let e = idaa_sql::parse_statement(sql).unwrap();
            let idaa_sql::Statement::Query(q) = e else { panic!() };
            compile_kernel(q.filter.as_ref().unwrap(), &table, &cols)
        };
        // col < lit compiles; lit > col flips.
        for sql in ["SELECT 1 FROM t WHERE a < 5", "SELECT 1 FROM t WHERE 5 > a"] {
            assert!(matches!(compile(sql), Some(Kernel::Num { op: BinaryOp::Lt, .. })), "{sql}");
        }
        // string equality compiles to the string kernel.
        let k = compile("SELECT 1 FROM t WHERE s = 'x'");
        assert!(matches!(k, Some(Kernel::Str { negated: false, .. })));
        // LIKE does not compile (stays residual).
        assert!(compile("SELECT 1 FROM t WHERE s LIKE 'x%'").is_none());
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
            filter_positions(&table, rows.len(), &Kernel::Str { col: 0, val: val.into(), negated })
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
        let first = slice.columns()[0].codes_matching("a").as_ptr();
        let second = slice.columns()[0].codes_matching("a").as_ptr();
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
                .filter(|&p| match kernel {
                    Kernel::Num { col, op, val } => {
                        slice.columns()[*col].numeric_at(p).is_some_and(|x| cmp_f64(*op, x, *val))
                    }
                    Kernel::Range { col, lo, hi, negated } => slice.columns()[*col]
                        .numeric_at(p)
                        .is_some_and(|x| (x >= *lo && x <= *hi) != *negated),
                    Kernel::IsNull { col, negated } => {
                        slice.columns()[*col].nulls.is_null(p) != *negated
                    }
                    Kernel::Str { .. } => unreachable!(),
                })
                .map(|p| p as u32)
                .collect();
            let spec = kernel.specialize(&slice);
            let mut sel: Vec<u32> = (0..rows.len() as u32).collect();
            spec.filter(&mut sel);
            assert_eq!(sel, oracle, "kernel {kernel:?}");
        }
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
    fn gather_matches_per_row_get() {
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
        let all: Vec<OutCol> = (0..4).map(OutCol::Probe).collect();
        for mask in [None, Some(vec![true, false, true, false])] {
            let mut got: Vec<Row> = Vec::new();
            gather(&all, mask.as_deref(), &slice, &[], &sel, &[], &mut got).unwrap();
            let kept = |i: usize| mask.as_ref().is_none_or(|m| m[i]);
            let cell = |p: u32, i: usize| {
                if kept(i) { slice.columns()[i].get(p as usize) } else { Value::Null }
            };
            let expect: Vec<Row> = sel.iter().map(|&p| (0..4).map(|i| cell(p, i)).collect()).collect();
            assert_eq!(got, expect, "mask={mask:?}");
        }
    }
}
