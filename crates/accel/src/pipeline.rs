//! The executor's pipeline IR: what a [`Plan`] lowers to, once, before it
//! runs — and what the plan cache keeps beside the plan.
//!
//! [`lower`] turns every sub-plan whose probe side is a (filtered) scan into
//! one [`Pipeline`]:
//!
//! * **source** — `scan_blocks` over one slice: zone pruning, block
//!   visibility and the compiled filter kernels yield the block's ascending
//!   selection vector, and a residual no kernel took compacts it further;
//! * **stages** over that vector — an INNER or LEFT equi-join *probe*
//!   against a build table built once per execution from any lowered child
//!   and shared read-only. Typed `i64` / dictionary-code keys get a derived
//!   join-filter; any other key tuple (multi-key, mixed types, expressions)
//!   is hashed as its [`Value`]s. The probe emits a build-row index vector
//!   beside the position vector — `NONE` for a LEFT position without a
//!   match, which every build column reads as NULL — so no joined row is
//!   ever assembled, and residual ON conjuncts decide among the candidates.
//!   Then one *residual* stage over the `(position, build row)` pairs (a
//!   `Filter` above the join), and *projection*, folded at lowering into
//!   the column list the sink reads (a bare column reference is a rename;
//!   only real expressions evaluate);
//! * **sink** — `Agg` (also `DISTINCT`: every column a key, no aggregates)
//!   fed from typed column slices on either join side, `Sort` / top-K
//!   comparing key columns by `(position, build row)` and gathering rows
//!   only for the survivors (then truncating hidden sort-key columns), or
//!   `Rows` via `Column::gather_into`. Group and sort keys may be computed.
//!
//! Parts are slices, run through `for_each_slice`; partials merge in slice
//! order, so output order is a function of the data (slice-major probe
//! order, each position's build rows in build order), never of the worker
//! count — and it is the order the shared walk (`idaa_sql::exec::run`)
//! produces. The walk runs the plan; the accelerator's row source answers
//! each node [`Lowered`] maps to a pipeline or a compiled scan, and the
//! walk runs the shared row operator for what does not stream — nested-loop
//! joins, a join whose probe side is not a scan, `UNION`, nodes above an
//! aggregate. `EXPLAIN`'s `PIPELINE:` line ([`Lowered::describe`]) and the
//! executed profile's `kernel=` / `batches=` / `fused=` / `bloom_skipped=`
//! attributes are both rendered from that one value. A new vectorized
//! operator is added here, as a stage or a sink, and nowhere else.

use crate::column::{Column, NullMap};
use crate::engine::AccelEngine;
use crate::partial::group_rows;
use crate::exec::{compact, for_each_slice, scan_blocks, ExecCtx, ExecMode, ScanSpec};
use crate::table::Slice;
use idaa_common::wire::KeySummary;
use idaa_common::{DataType, Error, ObjectName, Result, Row, Value};
use idaa_sql::ast::{Expr, JoinKind};
use idaa_sql::eval::{bind, eval, BoundExpr};
use idaa_sql::exec::{
    finish_groups, merge_groups, merge_runs, new_states, resolver_of, run, Groups, JoinSpec,
};
use idaa_sql::plan::{AggCall, Plan, PlanCol, PlanProfile};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::Hash;

/// `Limit(Sort(…))` lowers to a bounded top-K sink when the limit is at
/// most this many rows (beyond that the full sort sink runs and the limit
/// truncates).
const TOPK_MAX: u64 = 1024;

/// End of a build-row chain / "no build row" (a LEFT position without a
/// match, whose build columns read as NULL).
const NONE: u32 = u32::MAX;

/// A plan's lowering: what the accelerator decided for its nodes, keyed by
/// node address (the plan lives behind an `Arc` beside it, so addresses
/// are stable). A node without an entry runs the walk's operator.
#[derive(Debug, Default)]
pub(crate) struct Lowered {
    /// A handful of entries per plan, kept exact-size: the plan cache holds
    /// thousands of lowerings.
    kinds: Vec<(usize, Kind)>,
}

#[derive(Debug)]
pub(crate) enum Kind {
    /// This node and everything below it stream as one pipeline.
    Pipe(Box<Pipeline>),
    /// A `Scan` / `Filter(Scan)` leaf: the compiled scan answers it.
    Scan(ScanSpec),
    /// A join the walk runs row by row; `nested_loop` when it has no
    /// equi-key pair (for `describe`).
    Join { nested_loop: bool },
}

/// `Scan` or `Filter(Scan)`: the table, the predicate and the scan's columns.
/// (A FROM-less SELECT's `SYSDUMMY1` pseudo-scan has no columns and no table.)
fn scan_shape(plan: &Plan) -> Option<(&ObjectName, Option<&Expr>, &[PlanCol])> {
    match plan {
        Plan::Scan { cols, .. } if cols.is_empty() => None,
        Plan::Scan { table, cols, .. } => Some((table, None, cols)),
        Plan::Filter { input, predicate } => match input.as_ref() {
            Plan::Scan { table, cols, .. } => Some((table, Some(predicate), cols)),
            _ => None,
        },
        _ => None,
    }
}

/// Lower `plan` for `mode`. Interpreted mode lowers no pipeline and
/// compiles no kernel: the compiled scans answer scans only, and the walk
/// runs every other node — the row-at-a-time oracle.
pub(crate) fn lower(plan: &Plan, engine: &AccelEngine, mode: ExecMode) -> Result<Lowered> {
    let mut low = Lowered::default();
    low.add(plan, engine, mode)?;
    low.kinds.shrink_to_fit();
    Ok(low)
}

impl Lowered {
    /// What the accelerator decided for `plan`, if anything.
    pub(crate) fn kind(&self, plan: &Plan) -> Option<&Kind> {
        let key = plan as *const Plan as usize;
        self.kinds.iter().find(|(k, _)| *k == key).map(|(_, kind)| kind)
    }

    fn add(&mut self, plan: &Plan, engine: &AccelEngine, mode: ExecMode) -> Result<()> {
        let pipe = match mode {
            ExecMode::Vectorized => Pipeline::lower(plan, engine, self)?,
            ExecMode::Interpreted => None,
        };
        let kind = if let Some(pipe) = pipe {
            Kind::Pipe(Box::new(pipe))
        } else if let Some((table, pred, cols)) = scan_shape(plan) {
            Kind::Scan(ScanSpec::compile(&*engine.table(table)?, pred, cols, mode)?)
        } else {
            for child in plan.children() {
                self.add(child, engine, mode)?;
            }
            let Plan::Join { left, right, on, .. } = plan else { return Ok(()) };
            Kind::Join { nested_loop: JoinSpec::bind(left, right, on)?.lkeys.is_empty() }
        };
        self.kinds.push((plan as *const Plan as usize, kind));
        Ok(())
    }

    /// Which pipeline runs `plan` — `EXPLAIN`'s `PIPELINE:` line, and the
    /// description attached to an executed profile. A fused aggregate
    /// anywhere in the tree names the plan, else its first join, else its
    /// first scan.
    pub(crate) fn describe(&self, plan: &Plan) -> String {
        let fused = |k: &Kind| match k {
            Kind::Pipe(p) if p.fused_agg() => {
                Some("vectorized (fused scan-filter-aggregate)".to_string())
            }
            _ => None,
        };
        let join = |k: &Kind| match k {
            Kind::Pipe(p) => p.probe.as_ref().map(|probe| p.describe_join(probe)),
            Kind::Join { nested_loop: true } => Some("interpreted (nested-loop join)".to_string()),
            Kind::Join { nested_loop: false } => {
                Some("interpreted (hash join: generic keys)".to_string())
            }
            _ => None,
        };
        let scan = |k: &Kind| match k {
            Kind::Pipe(p) => Some(p.source.describe()),
            Kind::Scan(spec) => Some(spec.describe()),
            _ => None,
        };
        self.find(plan, &fused)
            .or_else(|| self.find(plan, &join))
            .or_else(|| self.find(plan, &scan))
            .unwrap_or_else(|| "interpreted (no batch-eligible scan)".to_string())
    }

    /// The first pick in `plan`'s nodes, top down, stopping at the sub-plans
    /// a pipeline or a compiled scan answers.
    fn find(&self, plan: &Plan, pick: &dyn Fn(&Kind) -> Option<String>) -> Option<String> {
        let kind = self.kind(plan);
        if let Some(found) = kind.and_then(pick) {
            return Some(found);
        }
        match kind {
            Some(Kind::Pipe(_) | Kind::Scan(_)) => None,
            _ => plan.children().into_iter().find_map(|c| self.find(c, pick)),
        }
    }
}

/// One column a sink reads, over a `(probe position, build row)` pair.
#[derive(Debug, Clone)]
pub(crate) enum OutCol {
    /// Column of the source table, read from the slice's typed vector.
    Probe(usize),
    /// Column of the join's build row (NULL at build row `NONE`).
    Build(usize),
    /// A real expression, evaluated over a scratch row in which only the
    /// listed ordinals are filled (each from a `Probe` / `Build` column).
    Expr(BoundExpr, Vec<(usize, OutCol)>),
}

impl OutCol {
    /// `bound` over the columns `cols`: a bare reference is a rename; an
    /// expression composes only over plain columns (else: not streamable).
    fn lower(bound: &BoundExpr, cols: &[OutCol]) -> Option<OutCol> {
        if let Some(i) = bound.as_column() {
            return cols.get(i).cloned();
        }
        let mut read = std::collections::HashSet::new();
        bound.collect_columns(&mut read);
        let mut fills: Vec<(usize, OutCol)> = Vec::with_capacity(read.len());
        for i in read {
            match cols.get(i)? {
                OutCol::Expr(..) => return None,
                plain => fills.push((i, plain.clone())),
            }
        }
        fills.sort_unstable_by_key(|(i, _)| *i);
        Some(OutCol::Expr(bound.clone(), fills))
    }

    /// Mark the build columns this column reads.
    fn mark_build(&self, mask: &mut [bool]) {
        match self {
            OutCol::Probe(_) => {}
            OutCol::Build(c) => mask[*c] = true,
            OutCol::Expr(_, fills) => fills.iter().for_each(|(_, c)| c.mark_build(mask)),
        }
    }

    /// The value at one `(position, build row)` pair; `scratch` is the
    /// expression scratch row (wide enough for every fill ordinal).
    fn value(&self, slice: &Slice, brows: &[Row], pos: usize, bi: u32, scratch: &mut Row) -> Result<Value> {
        Ok(match self {
            OutCol::Probe(c) => slice.columns()[*c].get(pos),
            OutCol::Build(c) => brows.get(bi as usize).map_or(Value::Null, |row| row[*c].clone()),
            OutCol::Expr(expr, fills) => {
                for (i, c) in fills {
                    scratch[*i] = c.value(slice, brows, pos, bi, &mut Vec::new())?;
                }
                eval(expr, scratch)?
            }
        })
    }

    /// A predicate's verdict at one pair: SQL truth, NULL counting as false.
    fn holds(&self, slice: &Slice, brows: &[Row], pos: usize, bi: u32, scratch: &mut Row) -> Result<bool> {
        match self.value(slice, brows, pos, bi, scratch)? {
            Value::Boolean(b) => Ok(b),
            Value::Null => Ok(false),
            other => Err(Error::TypeMismatch(format!("predicate evaluated to {other}"))),
        }
    }

    /// The residual stage: keep the pairs `(psel[k], bsel[k])` this
    /// predicate holds for, in order (`bsel` is empty before a join).
    fn retain(
        &self,
        slice: &Slice,
        brows: &[Row],
        psel: &mut Vec<u32>,
        bsel: &mut Vec<u32>,
        scratch: &mut Row,
    ) -> Result<()> {
        let mut kept = 0;
        for k in 0..psel.len() {
            let bi = bsel.get(k).copied().unwrap_or(NONE);
            if self.holds(slice, brows, psel[k] as usize, bi, scratch)? {
                psel[kept] = psel[k];
                if let Some(b) = bsel.get_mut(kept) {
                    *b = bi;
                }
                kept += 1;
            }
        }
        psel.truncate(kept);
        bsel.truncate(kept);
        Ok(())
    }

    /// Scratch-row width this column needs.
    fn scratch_width(&self) -> usize {
        match self {
            OutCol::Expr(_, fills) => fills.last().map_or(0, |(i, _)| i + 1),
            _ => 0,
        }
    }
}

fn scratch_for<'c>(cols: impl IntoIterator<Item = &'c OutCol>) -> Row {
    vec![Value::Null; cols.into_iter().map(OutCol::scratch_width).max().unwrap_or(0)]
}

/// Assemble output rows for `(psel[k], bsel[k])` pairs, one typed pass per
/// column (masked-out columns append NULL): the per-position storage
/// dispatch is paid once per column, and every appended [`Value`] is what a
/// per-row `Column::get` would render. `bsel` is empty without a join.
pub(crate) fn gather(
    cols: &[OutCol],
    mask: Option<&[bool]>,
    slice: &Slice,
    brows: &[Row],
    psel: &[u32],
    bsel: &[u32],
    out: &mut Vec<Row>,
) -> Result<()> {
    let base = out.len();
    out.extend(std::iter::repeat_with(|| Row::with_capacity(cols.len())).take(psel.len()));
    let rows = &mut out[base..];
    let mut scratch = scratch_for(cols);
    for (i, col) in cols.iter().enumerate() {
        if !mask.is_none_or(|m| m.get(i).copied().unwrap_or(false)) {
            rows.iter_mut().for_each(|row| row.push(Value::Null));
            continue;
        }
        match col {
            OutCol::Probe(c) => slice.columns()[*c].gather_into(psel, rows),
            OutCol::Build(c) => {
                for (row, &b) in rows.iter_mut().zip(bsel) {
                    row.push(brows.get(b as usize).map_or(Value::Null, |r| r[*c].clone()));
                }
            }
            OutCol::Expr(..) => {
                for (k, row) in rows.iter_mut().enumerate() {
                    let bi = bsel.get(k).copied().unwrap_or(NONE);
                    row.push(col.value(slice, brows, psel[k] as usize, bi, &mut scratch)?);
                }
            }
        }
    }
    Ok(())
}

/// One streaming sub-plan: source → residual → probe → residual →
/// (projection, folded into the columns the sink reads) → sink.
#[derive(Debug)]
pub(crate) struct Pipeline {
    source: ScanSpec,
    /// The source's interpreted residual, over the kernels' survivors.
    residual: Option<OutCol>,
    probe: Option<Probe>,
    /// A `Filter` above the join, over its `(position, build row)` pairs.
    filter: Option<OutCol>,
    /// The columns flowing into the sink (after every projection).
    cols: Vec<OutCol>,
    sink: Sink,
}

/// The join stage: an INNER or LEFT equi-join of the source table (the
/// probe side, preserved by a LEFT join) against any build side.
#[derive(Debug)]
struct Probe {
    kind: JoinKind,
    keys: Keys,
    /// Residual ON conjuncts over (source, build) columns: a candidate
    /// failing them does not match.
    on: Option<OutCol>,
    /// Build-side columns the pipeline reads (keys included).
    build_mask: Vec<bool>,
}

/// How a position finds its build rows, decided *statically*.
/// Integer↔integer and character↔character keys of one bare-column pair
/// over a (filtered) build scan compare exactly as raw `i64` and as
/// blank-trimmed strings, matching [`Value`] equality for those type pairs;
/// everything else — multi-key tuples, mixed types (INT vs DOUBLE keep full
/// [`Value`] equality), key expressions, computed build columns — is
/// `Generic`: the key tuple's [`Value`]s, hashed, decided by `Value`
/// equality, the row path's rule.
#[derive(Debug)]
enum Keys {
    I64 { probe: usize, build: usize },
    Str { probe: usize, build: usize },
    Generic { probe: Vec<OutCol>, build: Vec<BoundExpr> },
}

impl Keys {
    /// The keys of `spec` over `left` (the source, columns `src`) ⋈
    /// `right`; `None` for a join without equi-key pairs (a nested loop).
    fn lower(spec: &JoinSpec, left: &Plan, right: &Plan, src: &[OutCol]) -> Option<Keys> {
        use DataType::{BigInt, Integer, SmallInt};
        if spec.lkeys.is_empty() {
            return None;
        }
        if let ([l], [r], Some(_)) = (&spec.lkeys[..], &spec.rkeys[..], scan_shape(right)) {
            if let (Some(probe), Some(build)) = (l.as_column(), r.as_column()) {
                let (lt, rt) = (left.cols()[probe].data_type, right.cols()[build].data_type);
                let int = |t| matches!(t, SmallInt | Integer | BigInt);
                if int(lt) && int(rt) {
                    return Some(Keys::I64 { probe, build });
                }
                if lt.is_character() && rt.is_character() {
                    return Some(Keys::Str { probe, build });
                }
            }
        }
        let probe = spec.lkeys.iter().map(|k| OutCol::lower(k, src)).collect::<Option<_>>()?;
        Some(Keys::Generic { probe, build: spec.rkeys.clone() })
    }

    fn mark_build(&self, mask: &mut [bool]) {
        match self {
            Keys::I64 { build, .. } | Keys::Str { build, .. } => mask[*build] = true,
            Keys::Generic { build, .. } => {
                let mut read = std::collections::HashSet::new();
                build.iter().for_each(|k| k.collect_columns(&mut read));
                read.into_iter().for_each(|c| mask[c] = true);
            }
        }
    }
}

#[derive(Debug)]
enum Sink {
    /// Rows, in slice-major probe order.
    Rows,
    /// Grouped aggregation (`DISTINCT`: every column a key, no aggregates);
    /// an argument of `None` is `COUNT(*)`.
    Agg { keys: Vec<OutCol>, args: Vec<Option<OutCol>> },
    /// Stable sort; with a limit, bounded top-K; `keep` then drops the
    /// hidden sort-key columns.
    Sort { keys: Vec<(usize, bool)>, limit: Option<usize>, keep: Option<usize> },
}

/// The plan nodes one pipeline covers, top down: the sink's node(s), the
/// projections, a filter above the join, the join, and the source's top node.
struct Spine<'p> {
    /// `Aggregate`, `Distinct`, or `[Limit] [KeepCols] Sort`; empty for a
    /// row sink.
    sink: Vec<&'p Plan>,
    sort: Option<&'p [(usize, bool)]>,
    limit: Option<usize>,
    keep: Option<usize>,
    projects: Vec<&'p Plan>,
    filter: Option<&'p Plan>,
    join: Option<&'p Plan>,
    source: &'p Plan,
}

fn spine(plan: &Plan) -> Option<Spine<'_>> {
    let (mut sink, mut sort, mut limit, mut keep) = (Vec::new(), None, None, None);
    let mut node = plan;
    if let Plan::Limit { input, n } = node {
        if *n > TOPK_MAX {
            return None;
        }
        (sink, limit, node) = (vec![node], Some(*n as usize), input);
    }
    if let Plan::KeepCols { input, n } = node {
        sink.push(node);
        (keep, node) = (Some(*n), input);
    }
    match node {
        Plan::Sort { input, keys } => {
            sink.push(node);
            (sort, node) = (Some(keys.as_slice()), input);
        }
        Plan::Aggregate { input, .. } | Plan::Distinct { input } if sink.is_empty() => {
            (sink, node) = (vec![node], input);
        }
        // A limit or column truncate over anything but a sort.
        _ if !sink.is_empty() => return None,
        _ => {}
    }
    let mut projects = Vec::new();
    while let Plan::Project { input, .. } = node {
        projects.push(node);
        node = input;
    }
    let mut filter = None;
    if let Plan::Filter { input, .. } = node {
        if let Plan::Join { .. } = input.as_ref() {
            (filter, node) = (Some(node), input);
        }
    }
    let mut join = None;
    if let Plan::Join { left, .. } = node {
        (join, node) = (Some(node), left);
    }
    scan_shape(node)?;
    // A bare scan under a row sink is the row path's `Kind::Scan`.
    (!sink.is_empty() || join.is_some() || !projects.is_empty())
        .then_some(Spine { sink, sort, limit, keep, projects, filter, join, source: node })
}

/// `exprs` over `input`'s columns, lowered onto `cols`; `None` when one of
/// them does not stream.
fn lower_all<'e>(
    exprs: impl IntoIterator<Item = &'e Expr>,
    input: &Plan,
    cols: &[OutCol],
) -> Result<Option<Vec<OutCol>>> {
    let resolver = resolver_of(&input.cols());
    let mut out = Vec::new();
    for e in exprs {
        let Some(c) = OutCol::lower(&bind(e, &resolver)?, cols) else { return Ok(None) };
        out.push(c);
    }
    Ok(Some(out))
}

impl Pipeline {
    /// Lower the sub-plan rooted at `plan` (its join's build side into
    /// `low`), or `None` when it does not stream (the walk then runs `plan`'s
    /// operator over its children). Every structural decision comes first:
    /// nothing is compiled or lowered for a spine that turns out not to
    /// stream.
    fn lower(plan: &Plan, engine: &AccelEngine, low: &mut Lowered) -> Result<Option<Pipeline>> {
        let Some(spine) = spine(plan) else { return Ok(None) };
        let Some((table, pred, scan_cols)) = scan_shape(spine.source) else { return Ok(None) };
        let src: Vec<OutCol> = (0..scan_cols.len()).map(OutCol::Probe).collect();
        // Until the first projection every column is plain, so expressions
        // over them always lower.
        let plain = |bound: &BoundExpr, cols: &[OutCol]| {
            OutCol::lower(bound, cols).ok_or_else(|| Error::internal("residual over a computed column"))
        };
        let mut cols = src.clone();
        let mut join = None;
        if let Some(Plan::Join { left, right, kind, on }) = spine.join {
            let spec = JoinSpec::bind(left, right, on)?;
            let Some(keys) = Keys::lower(&spec, left, right, &src) else { return Ok(None) };
            cols.extend((0..right.cols().len()).map(OutCol::Build));
            let on = spec.residual.as_ref().map(|r| plain(r, &cols)).transpose()?;
            join = Some((*kind, keys, on, right));
        }
        let filter = match spine.filter {
            Some(Plan::Filter { input, predicate }) => {
                Some(plain(&bind(predicate, &resolver_of(&input.cols()))?, &cols)?)
            }
            _ => None,
        };
        for project in spine.projects.iter().rev() {
            let Plan::Project { input, exprs, .. } = project else { continue };
            let Some(next) = lower_all(exprs.iter().map(|(e, _)| e), input, &cols)? else {
                return Ok(None);
            };
            cols = next;
        }
        let sink = match (spine.sink.last(), spine.sort) {
            (_, Some(keys)) => {
                Sink::Sort { keys: keys.to_vec(), limit: spine.limit, keep: spine.keep }
            }
            (Some(Plan::Aggregate { input, group_exprs, aggs, .. }), _) => {
                let args = aggs.iter().filter_map(|a| a.arg.as_ref());
                let (Some(keys), Some(args)) =
                    (lower_all(group_exprs, input, &cols)?, lower_all(args, input, &cols)?)
                else {
                    return Ok(None);
                };
                let mut args = args.into_iter();
                let args = aggs.iter().map(|a| a.arg.as_ref().and_then(|_| args.next())).collect();
                Sink::Agg { keys, args }
            }
            (Some(_), _) => Sink::Agg { keys: cols.clone(), args: Vec::new() },
            (None, _) => Sink::Rows,
        };

        let source =
            ScanSpec::compile(&*engine.table(table)?, pred, scan_cols, ExecMode::Vectorized)?;
        let residual = source.residual.as_ref().map(|r| plain(r, &src)).transpose()?;
        let mut probe = None;
        if let Some((kind, keys, on, right)) = join {
            let mut build_mask = vec![false; right.cols().len()];
            keys.mark_build(&mut build_mask);
            let reads: Vec<&OutCol> = match &sink {
                Sink::Agg { keys, args } => keys.iter().chain(args.iter().flatten()).collect(),
                _ => cols.iter().collect(),
            };
            for c in reads.into_iter().chain(&on).chain(&filter) {
                c.mark_build(&mut build_mask);
            }
            low.add(right, engine, ExecMode::Vectorized)?;
            probe = Some(Probe { kind, keys, on, build_mask });
        }
        Ok(Some(Pipeline { source, residual, probe, filter, cols, sink }))
    }

    /// A scan-filter-aggregate with no join and no interpreted residual.
    fn fused_agg(&self) -> bool {
        self.probe.is_none() && self.residual.is_none() && matches!(self.sink, Sink::Agg { .. })
    }

    fn describe_join(&self, probe: &Probe) -> String {
        let keys = match probe.keys {
            Keys::I64 { .. } => "typed i64 keys, bloom-guarded probe",
            Keys::Str { .. } => "typed string keys, bloom-guarded probe",
            Keys::Generic { .. } => "generic keys",
        };
        let (join, filter) = match (probe.kind, &probe.keys) {
            (JoinKind::Left, _) => ("left hash join", ""),
            (JoinKind::Inner, Keys::Generic { .. }) => ("hash join", ""),
            (JoinKind::Inner, _) => ("hash join", ", derived probe filter"),
        };
        let residual = [&self.residual, &probe.on, &self.filter].iter().any(|r| r.is_some());
        let residual = if residual { " + interpreted residual" } else { "" };
        format!("vectorized ({join}: {keys}{filter}{residual})")
    }

    /// Run the pipeline rooted at `plan`: build side once, then one part
    /// per slice of the source table, partials merged in slice order. With
    /// `partial`, an aggregate sink stops at its merged groups and hands
    /// them back unfinished, as a fleet shard's partial ([`group_rows`]).
    pub(crate) fn run(
        &self,
        plan: &Plan,
        ctx: &ExecCtx,
        needed: Option<&[bool]>,
        partial: bool,
    ) -> Result<Vec<Row>> {
        let spine = spine(plan).ok_or_else(|| Error::internal("plan and pipeline disagree"))?;
        let table = ctx.engine.table(&self.source.table)?;
        let build = match (&self.probe, spine.join) {
            (Some(p), Some(Plan::Join { right, .. })) => {
                Some(BuildTable::new(p, &self.sink, right, ctx)?)
            }
            _ => None,
        };
        let aggs: &[AggCall] = match spine.sink.last() {
            Some(Plan::Aggregate { aggs, .. }) => aggs,
            _ => &[],
        };
        // Sort keys are read back from the gathered rows by the run merge.
        let mask: Option<Vec<bool>> = match (&self.sink, needed) {
            (Sink::Sort { keys, .. }, Some(m)) => {
                let mut m = m.to_vec();
                m.resize(self.cols.len(), false);
                keys.iter().for_each(|(i, _)| m[*i] = true);
                Some(m)
            }
            (_, m) => m.map(<[bool]>::to_vec),
        };
        let parts = for_each_slice(&table, &self.source.kernels, ctx, |slice| {
            self.run_slice(slice, build.as_ref(), ctx, mask.as_deref(), aggs)
        })?;
        let mut counts = Counts::default();
        let (mut runs, mut groups) = (Vec::new(), Vec::new());
        for (rows, part_groups, c) in parts {
            runs.push(rows);
            groups.push(part_groups);
            counts.batches += c.batches;
            counts.source += c.source;
            counts.joined += c.joined;
            counts.filtered += c.filtered;
            counts.skipped += c.skipped;
        }
        let out = match &self.sink {
            Sink::Rows => runs.into_iter().flatten().collect(),
            Sink::Agg { .. } if partial => group_rows(merge_groups(groups)?),
            Sink::Agg { keys, .. } => finish_groups(merge_groups(groups)?, !keys.is_empty(), aggs)?,
            Sink::Sort { keys, limit, keep } => {
                let mut rows = merge_runs(runs, keys);
                rows.truncate(limit.unwrap_or(usize::MAX));
                if let Some(n) = keep {
                    rows.iter_mut().for_each(|row| row.truncate(*n));
                }
                rows
            }
        };
        if let Some(prof) = ctx.profile {
            self.record(prof, &spine, out.len() as u64, &counts);
        }
        Ok(out)
    }

    /// Record every plan node the pipeline covers: each stage counts what
    /// it emits, so a pipelined plan profiles like its node-by-node run. The
    /// nodes under a top-K limit, and the scan under an aggregate sink with
    /// no join, stay unrecorded — they have no output of their own
    /// (`fused=true`).
    fn record(&self, prof: &PlanProfile, spine: &Spine, out: u64, c: &Counts) {
        for (i, node) in spine.sink.iter().enumerate() {
            if i == 0 || spine.limit.is_none() {
                prof.record(node, out);
            }
        }
        let fused_agg = self.fused_agg();
        if let (true, Some(root)) = (fused_agg, spine.sink.first()) {
            prof.record_vectorized(root, c.batches);
        }
        for node in spine.projects.iter().chain(&spine.filter) {
            prof.record(node, c.filtered);
        }
        if let (Some(join), Some(probe)) = (spine.join, &self.probe) {
            prof.record(join, c.joined);
            if !matches!(probe.keys, Keys::Generic { .. }) {
                prof.record_bloom(join, c.skipped);
            }
        }
        if !fused_agg {
            prof.record(spine.source, c.source);
            if !self.source.kernels.is_empty() || self.probe.is_some() {
                prof.record_vectorized(spine.source, c.batches);
            }
        }
    }

    /// One part: stream one slice's blocks through the stages into the
    /// sink. Hands back the sink's rows or groups for the slice-order merge.
    fn run_slice(
        &self,
        slice: &Slice,
        build: Option<&BuildTable>,
        ctx: &ExecCtx,
        mask: Option<&[bool]>,
        aggs: &[AggCall],
    ) -> Result<(Vec<Row>, Groups, Counts)> {
        let mut probe = match (&self.probe, build) {
            (Some(p), Some(b)) => Some(b.specialize(p, slice)?),
            _ => None,
        };
        let brows: &[Row] = build.map_or(&[], |b| &b.rows);
        let mut counts = Counts::default();
        let (mut psel, mut bsel) = (Vec::new(), Vec::new());
        let mut scratch = scratch_for(self.residual.iter().chain(&self.filter));
        let mut sink = match &self.sink {
            Sink::Rows => SinkState::Rows(Vec::new()),
            Sink::Agg { keys, args } => {
                SinkState::Agg(AggSink::new(keys, args, aggs, slice, build))
            }
            Sink::Sort { keys, limit, .. } => {
                SinkState::Sort(SortSink::new(&self.cols, keys, *limit, slice, brows))
            }
        };
        let batches = scan_blocks(slice, &self.source.kernels, ctx, true, |sel| {
            if let Some(residual) = &self.residual {
                residual.retain(slice, &[], sel, &mut Vec::new(), &mut scratch)?;
            }
            let (p, b) = match &mut probe {
                Some(probe) => {
                    counts.skipped += probe.run(sel, &mut psel, &mut bsel)?;
                    counts.source += sel.len() as u64;
                    (&mut psel, &mut bsel)
                }
                None => {
                    counts.source += sel.len() as u64;
                    (sel, &mut bsel)
                }
            };
            counts.joined += p.len() as u64;
            if let Some(filter) = &self.filter {
                filter.retain(slice, brows, p, b, &mut scratch)?;
            }
            counts.filtered += p.len() as u64;
            match &mut sink {
                SinkState::Rows(out) => gather(&self.cols, mask, slice, brows, p, b, out),
                SinkState::Agg(agg) => agg.consume(p, b),
                SinkState::Sort(sort) => sort.consume(p, b),
            }
        })?;
        counts.batches = batches;
        Ok(match sink {
            SinkState::Rows(out) => (out, Vec::new(), counts),
            SinkState::Agg(agg) => (Vec::new(), agg.groups, counts),
            SinkState::Sort(sort) => {
                let mut out = Vec::new();
                sort.finish(&self.cols, mask, &mut out)?;
                (out, Vec::new(), counts)
            }
        })
    }
}

/// What the stages of one part emitted.
#[derive(Default)]
struct Counts {
    batches: u64,
    /// Positions leaving the source (after its residual and the derived
    /// join-filter).
    source: u64,
    /// `(position, build row)` pairs leaving the probe (= `source` without one).
    joined: u64,
    /// Pairs leaving the filter above the join (= `joined` without one).
    filtered: u64,
    /// Positions the derived join-filter spared a table lookup.
    skipped: u64,
}

/// A join's build side, built once per execution and shared read-only by
/// every part: the build rows, a key → first-build-row index chained
/// through `next` in build-row order, the key digest the derived
/// join-filter tests, and — for an aggregate sink grouping on build-side
/// columns only — each build row's group-key code.
struct BuildTable {
    rows: Vec<Row>,
    index: KeyIndex,
    next: Vec<u32>,
    summary: KeySummary,
    group_of: Vec<u32>,
    group_keys: Vec<Vec<Value>>,
    /// The group-key code of build row `NONE`: every key NULL.
    none_group: u32,
}

enum KeyIndex {
    I64(HashMap<i64, u32>),
    /// Keys with trailing blanks trimmed (DB2 padded CHAR comparison).
    Str(HashMap<String, u32>),
    Generic(HashMap<Vec<Value>, u32>),
}

/// Index `rows` by `key_of` (`None`: a NULL key, which never joins), back
/// to front, so every chain through `next` runs in ascending build-row order.
fn chain<K: Hash + Eq>(
    rows: &[Row],
    next: &mut [u32],
    mut key_of: impl FnMut(&Row) -> Result<Option<K>>,
) -> Result<HashMap<K, u32>> {
    let mut index = HashMap::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate().rev() {
        if let Some(k) = key_of(row)? {
            next[i] = index.insert(k, i as u32).unwrap_or(NONE);
        }
    }
    Ok(index)
}

impl BuildTable {
    fn new(probe: &Probe, sink: &Sink, node: &Plan, ctx: &ExecCtx) -> Result<BuildTable> {
        let rows = run(node, ctx, Some(&probe.build_mask), ctx.profile)?;
        let outside = |v: &Value| Error::internal(format!("join build key {v} outside its key layout"));
        let mut summary = KeySummary::with_capacity(rows.len());
        let mut next = vec![NONE; rows.len()];
        let index = match &probe.keys {
            Keys::I64 { build, .. } => KeyIndex::I64(chain(&rows, &mut next, |row| {
                match &row[*build] {
                    Value::Null => Ok(None),
                    v @ (Value::SmallInt(_) | Value::Int(_) | Value::BigInt(_)) => {
                        let k = v.as_i64()?;
                        summary.insert_i64(k);
                        Ok(Some(k))
                    }
                    other => Err(outside(other)),
                }
            })?),
            Keys::Str { build, .. } => KeyIndex::Str(chain(&rows, &mut next, |row| {
                match &row[*build] {
                    Value::Null => Ok(None),
                    Value::Varchar(s) => Ok(Some(s.trim_end_matches(' ').to_string())),
                    other => Err(outside(other)),
                }
            })?),
            Keys::Generic { build, .. } => KeyIndex::Generic(chain(&rows, &mut next, |row| {
                let key: Vec<Value> = build.iter().map(|k| eval(k, row)).collect::<Result<_>>()?;
                Ok((!key.iter().any(Value::is_null)).then_some(key))
            })?),
        };
        let (mut group_of, mut group_keys, mut none_group) = (Vec::new(), Vec::new(), NONE);
        if let Sink::Agg { keys, .. } = sink {
            let ords: Option<Vec<usize>> = keys
                .iter()
                .map(|k| if let OutCol::Build(c) = k { Some(*c) } else { None })
                .collect();
            if let Some(ords) = ords.filter(|o| !o.is_empty()) {
                // Every build row's key, then build row `NONE`'s.
                let null = Value::Null;
                let all_null = std::iter::once(vec![&null; ords.len()]);
                let mut codes: HashMap<Vec<&Value>, u32> = HashMap::new();
                for key in rows.iter().map(|row| ords.iter().map(|c| &row[*c]).collect()).chain(all_null) {
                    let fresh = group_keys.len() as u32;
                    group_of.push(*codes.entry(key).or_insert_with_key(|key| {
                        group_keys.push(key.iter().map(|v| (*v).clone()).collect());
                        fresh
                    }));
                }
                none_group = group_of.pop().unwrap_or(NONE);
            }
        }
        Ok(BuildTable { rows, index, next, summary, group_of, group_keys, none_group })
    }

    /// Resolve the probe against one slice's key columns.
    fn specialize<'s>(&'s self, probe: &'s Probe, slice: &'s Slice) -> Result<SpecProbe<'s>> {
        let storage = || Error::internal("join probe column storage does not match its key layout");
        let (key, generic): (SpecKey, &[OutCol]) = match (&probe.keys, &self.index) {
            (Keys::I64 { probe: c, .. }, KeyIndex::I64(index)) => {
                let col = &slice.columns()[*c];
                let vals = col.i64_data().ok_or_else(storage)?;
                (SpecKey::I64 { vals, nulls: &col.nulls, index }, &[])
            }
            // Each distinct value is looked up once; rows then probe by code.
            (Keys::Str { probe: c, .. }, KeyIndex::Str(index)) => {
                let col = &slice.columns()[*c];
                let (Some(codes), Some(dict)) = (col.str_codes(), col.dictionary()) else {
                    return Err(storage());
                };
                let heads = dict
                    .iter()
                    .map(|v| index.get(v.trim_end_matches(' ')).copied().unwrap_or(NONE))
                    .collect();
                (SpecKey::Dict { codes, nulls: &col.nulls, heads }, &[])
            }
            (Keys::Generic { probe: keys, .. }, KeyIndex::Generic(index)) => {
                (SpecKey::Generic { keys, index }, keys)
            }
            _ => return Err(storage()),
        };
        let scratch = scratch_for(probe.on.iter().chain(generic));
        Ok(SpecProbe { key, probe, table: self, slice, scratch })
    }
}

/// The probe stage resolved against one slice.
struct SpecProbe<'s> {
    key: SpecKey<'s>,
    probe: &'s Probe,
    table: &'s BuildTable,
    slice: &'s Slice,
    scratch: Row,
}

enum SpecKey<'s> {
    I64 { vals: &'s [i64], nulls: &'s NullMap, index: &'s HashMap<i64, u32> },
    Dict { codes: &'s [u32], nulls: &'s NullMap, heads: Vec<u32> },
    Generic { keys: &'s [OutCol], index: &'s HashMap<Vec<Value>, u32> },
}

impl SpecProbe<'_> {
    /// The derived join-filter: can position `p` join at all? NULL keys
    /// never join, and the build digest (only ever false-positive) or, for
    /// dictionary keys, the per-code lookup proves other keys absent.
    fn may_join(&self, p: usize) -> bool {
        match &self.key {
            SpecKey::I64 { vals, nulls, .. } => {
                !nulls.is_null(p) && self.table.summary.contains_i64(vals[p])
            }
            SpecKey::Dict { codes, nulls, heads } => {
                !nulls.is_null(p) && heads[codes[p] as usize] != NONE
            }
            SpecKey::Generic { .. } => true,
        }
    }

    /// The first build row whose key equals position `p`'s, or `NONE`.
    fn head(&mut self, p: usize) -> Result<u32> {
        Ok(match &self.key {
            SpecKey::I64 { vals, index, .. } => index.get(&vals[p]).copied().unwrap_or(NONE),
            SpecKey::Dict { codes, heads, .. } => heads[codes[p] as usize],
            // No build key holding a NULL is indexed, so a NULL finds none.
            SpecKey::Generic { keys, index } => {
                let key = keys
                    .iter()
                    .map(|k| k.value(self.slice, &self.table.rows, p, NONE, &mut self.scratch))
                    .collect::<Result<Vec<_>>>()?;
                index.get(&key).copied().unwrap_or(NONE)
            }
        })
    }

    /// Emit one `(position, build row)` pair per match of each position in
    /// `sel`, in position then build-row order; a candidate matches when
    /// the residual ON conjuncts hold for it. An INNER join first compacts
    /// `sel` with the derived join-filter; a LEFT join keeps every position
    /// and pairs one without a match with `NONE`. Returns how many
    /// positions the join-filter spared a table lookup.
    fn run(&mut self, sel: &mut Vec<u32>, psel: &mut Vec<u32>, bsel: &mut Vec<u32>) -> Result<u64> {
        psel.clear();
        bsel.clear();
        let left = self.probe.kind == JoinKind::Left;
        let before = sel.len();
        if !left {
            compact(sel, |p| self.may_join(p));
        }
        let mut skipped = (before - sel.len()) as u64;
        for &p in sel.iter() {
            let pos = p as usize;
            let mut bi = if left && !self.may_join(pos) {
                skipped += 1;
                NONE
            } else {
                self.head(pos)?
            };
            let start = psel.len();
            while bi != NONE {
                let matched = match &self.probe.on {
                    None => true,
                    Some(on) => on.holds(self.slice, &self.table.rows, pos, bi, &mut self.scratch)?,
                };
                if matched {
                    psel.push(p);
                    bsel.push(bi);
                }
                bi = self.table.next[bi as usize];
            }
            if left && psel.len() == start {
                psel.push(p);
                bsel.push(NONE);
            }
        }
        Ok(skipped)
    }
}

enum SinkState<'a> {
    Rows(Vec<Row>),
    Agg(AggSink<'a>),
    Sort(SortSink<'a>),
}

/// One aggregate argument resolved against a slice. Integer and double
/// columns of the source feed accumulators through the typed
/// `AggState::update_i64` / `update_f64` entry points — no per-row
/// [`Value`] construction; every other shape (DECIMAL and string columns,
/// build-side columns, expressions) keeps the generic per-value path.
enum ArgSlot<'a> {
    Star,
    I64 { vals: &'a [i64], nulls: &'a NullMap, native: fn(i64) -> Value },
    F64 { vals: &'a [f64], nulls: &'a NullMap },
    Value(&'a OutCol),
}

impl<'a> ArgSlot<'a> {
    fn specialize(arg: Option<&'a OutCol>, slice: &'a Slice) -> ArgSlot<'a> {
        let (arg, c) = match arg {
            None => return ArgSlot::Star,
            Some(arg @ OutCol::Probe(c)) => (arg, &slice.columns()[*c]),
            Some(other) => return ArgSlot::Value(other),
        };
        // `native` must rebuild exactly what `Column::get` renders for the
        // declared type, or typed accumulation drifts from the interpreter
        // (e.g. a single-row SUM keeps the native type; only the second
        // value promotes to BigInt).
        let native: Option<fn(i64) -> Value> = match c.data_type {
            DataType::SmallInt => Some(|v| Value::SmallInt(v as i16)),
            DataType::Integer => Some(|v| Value::Int(v as i32)),
            DataType::BigInt => Some(Value::BigInt),
            _ => None,
        };
        match (c.i64_data(), c.f64_data(), native) {
            (Some(vals), _, Some(native)) => ArgSlot::I64 { vals, nulls: &c.nulls, native },
            (_, Some(vals), _) if c.data_type == DataType::Double => {
                ArgSlot::F64 { vals, nulls: &c.nulls }
            }
            _ => ArgSlot::Value(arg),
        }
    }
}

/// How the aggregate sink finds a pair's group without hashing a
/// materialized `Vec<Value>` key per row. Groups are always created in
/// first-occurrence order, so the slice-order merge is unchanged.
enum KeySlot<'a> {
    /// No GROUP BY: one group.
    Single,
    /// One dictionary-string source column: dictionary code → group through
    /// a dense table (slot 0 = NULL).
    Dict { codes: &'a [u32], nulls: &'a NullMap, col: &'a Column, map: Vec<usize> },
    /// Build-side columns only: the build row's precomputed key code → group.
    Build { table: &'a BuildTable, map: Vec<usize> },
    /// Anything else: the key tuple, hashed.
    Generic(&'a [OutCol]),
}

/// The aggregate sink for one part: insertion-ordered groups fed straight
/// from the column vectors over each block's surviving pairs.
struct AggSink<'a> {
    slice: &'a Slice,
    brows: &'a [Row],
    aggs: &'a [AggCall],
    key: KeySlot<'a>,
    slots: Vec<ArgSlot<'a>>,
    groups: Groups,
    index: HashMap<Vec<Value>, usize>,
    scratch: Row,
}

impl<'a> AggSink<'a> {
    fn new(
        keys: &'a [OutCol],
        args: &'a [Option<OutCol>],
        aggs: &'a [AggCall],
        slice: &'a Slice,
        build: Option<&'a BuildTable>,
    ) -> AggSink<'a> {
        let key = match (keys, build) {
            ([], _) => KeySlot::Single,
            // `BuildTable::new` coded every build row's key under this rule.
            (_, Some(table)) if keys.iter().all(|k| matches!(k, OutCol::Build(_))) => {
                KeySlot::Build { table, map: vec![usize::MAX; table.group_keys.len()] }
            }
            ([OutCol::Probe(k)], _) => {
                let col = &slice.columns()[*k];
                match col.str_codes() {
                    Some(codes) => KeySlot::Dict {
                        codes,
                        nulls: &col.nulls,
                        col,
                        map: vec![usize::MAX; col.dictionary().map_or(0, <[String]>::len) + 1],
                    },
                    None => KeySlot::Generic(keys),
                }
            }
            _ => KeySlot::Generic(keys),
        };
        AggSink {
            slice,
            brows: build.map_or(&[], |b| &b.rows),
            aggs,
            key,
            slots: args.iter().map(|a| ArgSlot::specialize(a.as_ref(), slice)).collect(),
            groups: Vec::new(),
            index: HashMap::new(),
            scratch: scratch_for(keys.iter().chain(args.iter().flatten())),
        }
    }

    fn consume(&mut self, psel: &[u32], bsel: &[u32]) -> Result<()> {
        let AggSink { slice, brows, aggs, key, slots, groups, index, scratch } = self;
        for (k, &p) in psel.iter().enumerate() {
            let pos = p as usize;
            let bi = bsel.get(k).copied().unwrap_or(NONE);
            let gi = match key {
                KeySlot::Single => {
                    if groups.is_empty() {
                        groups.push((Vec::new(), new_states(aggs)));
                    }
                    0
                }
                KeySlot::Dict { codes, nulls, col, map } => {
                    // NULL rows carry the empty-string code, so the null
                    // bit must decide the slot before the code.
                    let slot = if nulls.is_null(pos) { 0 } else { codes[pos] as usize + 1 };
                    if map[slot] == usize::MAX {
                        // Codes that differ only in blank padding share a
                        // group, as their `Value`s are equal.
                        map[slot] = *index.entry(vec![col.get(pos)]).or_insert_with_key(|key| {
                            groups.push((key.clone(), new_states(aggs)));
                            groups.len() - 1
                        });
                    }
                    map[slot]
                }
                KeySlot::Build { table, map } => {
                    let code = *table.group_of.get(bi as usize).unwrap_or(&table.none_group) as usize;
                    if map[code] == usize::MAX {
                        groups.push((table.group_keys[code].clone(), new_states(aggs)));
                        map[code] = groups.len() - 1;
                    }
                    map[code]
                }
                KeySlot::Generic(cols) => {
                    let key: Vec<Value> = cols
                        .iter()
                        .map(|c| c.value(slice, brows, pos, bi, scratch))
                        .collect::<Result<_>>()?;
                    match index.get(&key) {
                        Some(&i) => i,
                        None => {
                            groups.push((key.clone(), new_states(aggs)));
                            index.insert(key, groups.len() - 1);
                            groups.len() - 1
                        }
                    }
                }
            };
            for (state, slot) in groups[gi].1.iter_mut().zip(slots.iter()) {
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
                    ArgSlot::Value(c) => state.update(&c.value(slice, brows, pos, bi, scratch)?)?,
                }
            }
        }
        Ok(())
    }
}

/// A sort candidate: `(position, build row, computed-key slot)`.
type Cand = (u32, u32, u32);

/// One sort key resolved against a slice: compares two candidates exactly
/// as `Value::cmp_total` compares the column's values — NULLs high,
/// integers / dates / booleans as their `i64` image, doubles by
/// `partial_cmp` with NaN equal to everything, strings blank-trimmed.
enum KeyCol<'a> {
    I64 { vals: &'a [i64], nulls: &'a NullMap },
    F64 { vals: &'a [f64], nulls: &'a NullMap },
    Str { codes: &'a [u32], nulls: &'a NullMap, dict: &'a [String] },
    /// DECIMAL storage and build-side columns: through their [`Value`]s.
    Value(&'a OutCol),
    /// A computed key: the `i`-th value materialized in the candidate's slot.
    Computed(usize),
}

impl<'a> KeyCol<'a> {
    fn specialize(col: &'a OutCol, slice: &'a Slice) -> KeyCol<'a> {
        let OutCol::Probe(c) = col else { return KeyCol::Value(col) };
        let c = &slice.columns()[*c];
        let nulls = &c.nulls;
        match (c.i64_data(), c.f64_data(), c.str_codes(), c.dictionary()) {
            (Some(vals), ..) => KeyCol::I64 { vals, nulls },
            (_, Some(vals), ..) => KeyCol::F64 { vals, nulls },
            (_, _, Some(codes), Some(dict)) => KeyCol::Str { codes, nulls, dict },
            _ => KeyCol::Value(col),
        }
    }
}

/// The sort / top-K sink for one part. Candidates are compared through the
/// typed key columns, computed keys through their values, evaluated once
/// per candidate; they arrive in ascending input order, so "insert after
/// every entry that is not greater" (top-K) and a stable sort (full sort)
/// both break ties by input position — exactly a stable sort of the part's
/// rows, truncated.
struct SortSink<'a> {
    slice: &'a Slice,
    brows: &'a [Row],
    keys: Vec<(KeyCol<'a>, bool)>,
    /// The computed keys with their output column, and their values:
    /// `computed.len()` per slot.
    computed: Vec<(usize, &'a OutCol)>,
    values: Vec<Value>,
    scratch: Row,
    limit: Option<usize>,
    cands: Vec<Cand>,
}

impl<'a> SortSink<'a> {
    fn new(
        cols: &'a [OutCol],
        keys: &[(usize, bool)],
        limit: Option<usize>,
        slice: &'a Slice,
        brows: &'a [Row],
    ) -> SortSink<'a> {
        let mut computed = Vec::new();
        let mut key = |i: usize| match &cols[i] {
            col @ OutCol::Expr(..) => {
                computed.push((i, col));
                KeyCol::Computed(computed.len() - 1)
            }
            col => KeyCol::specialize(col, slice),
        };
        let keys = keys.iter().map(|(i, desc)| (key(*i), *desc)).collect();
        let scratch = scratch_for(computed.iter().map(|(_, c)| *c));
        SortSink { slice, brows, keys, computed, values: Vec::new(), scratch, limit, cands: Vec::new() }
    }

    fn cmp(&self, a: Cand, b: Cand) -> Ordering {
        let (pa, pb) = (a.0 as usize, b.0 as usize);
        for (key, desc) in &self.keys {
            let typed = |nulls: &NullMap, non_null: &dyn Fn() -> Ordering| {
                match (nulls.is_null(pa), nulls.is_null(pb)) {
                    (true, true) => Ordering::Equal,
                    (true, false) => Ordering::Greater,
                    (false, true) => Ordering::Less,
                    (false, false) => non_null(),
                }
            };
            let o = match key {
                KeyCol::I64 { vals, nulls } => typed(nulls, &|| vals[pa].cmp(&vals[pb])),
                KeyCol::F64 { vals, nulls } => {
                    typed(nulls, &|| vals[pa].partial_cmp(&vals[pb]).unwrap_or(Ordering::Equal))
                }
                KeyCol::Str { codes, nulls, dict } => typed(nulls, &|| {
                    let s = |p: usize| dict[codes[p] as usize].trim_end_matches(' ');
                    s(pa).cmp(s(pb))
                }),
                // Plain columns: no scratch.
                KeyCol::Value(col) => {
                    let v = |(p, b, _): Cand| {
                        col.value(self.slice, self.brows, p as usize, b, &mut Vec::new())
                    };
                    match (v(a), v(b)) {
                        (Ok(x), Ok(y)) => x.cmp_total(&y),
                        _ => Ordering::Equal,
                    }
                }
                KeyCol::Computed(i) => {
                    let at = |c: Cand| &self.values[c.2 as usize * self.computed.len() + i];
                    at(a).cmp_total(at(b))
                }
            };
            let o = if *desc { o.reverse() } else { o };
            if o != Ordering::Equal {
                return o;
            }
        }
        Ordering::Equal
    }

    fn consume(&mut self, psel: &[u32], bsel: &[u32]) -> Result<()> {
        let width = self.computed.len();
        for (k, &p) in psel.iter().enumerate() {
            let bi = bsel.get(k).copied().unwrap_or(NONE);
            let slot = self.values.len().checked_div(width).unwrap_or(0);
            for (_, col) in &self.computed {
                let v = col.value(self.slice, self.brows, p as usize, bi, &mut self.scratch)?;
                self.values.push(v);
            }
            let cand = (p, bi, slot as u32);
            let Some(limit) = self.limit else {
                self.cands.push(cand);
                continue;
            };
            if self.cands.len() == limit {
                // `limit == 0` keeps nothing. Kept entries all came earlier,
                // so an equal newcomer loses the position tiebreak too.
                match self.cands.last() {
                    Some(&worst) if self.cmp(cand, worst) == Ordering::Less => {}
                    _ => {
                        self.values.truncate(slot * width);
                        continue;
                    }
                }
            }
            let at = self.cands.partition_point(|&e| self.cmp(e, cand) != Ordering::Greater);
            self.cands.insert(at, cand);
            self.cands.truncate(limit);
        }
        Ok(())
    }

    /// Gather the part's survivors in output order; computed key columns
    /// take the values the comparisons used instead of evaluating again.
    fn finish(mut self, cols: &[OutCol], mask: Option<&[bool]>, out: &mut Vec<Row>) -> Result<()> {
        if self.limit.is_none() {
            let mut cands = std::mem::take(&mut self.cands);
            cands.sort_by(|a, b| self.cmp(*a, *b));
            self.cands = cands;
        }
        let mut mask = mask.map_or_else(|| vec![true; cols.len()], <[bool]>::to_vec);
        self.computed.iter().for_each(|(i, _)| mask[*i] = false);
        let (p, b): (Vec<u32>, Vec<u32>) = self.cands.iter().map(|&(p, b, _)| (p, b)).unzip();
        gather(cols, Some(&mask), self.slice, self.brows, &p, &b, out)?;
        let width = self.computed.len();
        for (row, &(_, _, slot)) in out.iter_mut().zip(&self.cands) {
            for (j, (i, _)) in self.computed.iter().enumerate() {
                row[*i] = std::mem::replace(&mut self.values[slot as usize * width + j], Value::Null);
            }
        }
        Ok(())
    }
}
