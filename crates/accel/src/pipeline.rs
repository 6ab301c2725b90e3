//! The executor's pipeline IR: what a [`Plan`] lowers to, once, before it
//! runs — and what the plan cache keeps beside the plan.
//!
//! [`lower`] turns every sub-plan that can stream into one [`Pipeline`]:
//!
//! * **source** — `scan_blocks` over one slice: zone pruning, block
//!   visibility and the compiled filter kernels yield the block's ascending
//!   selection vector;
//! * **stages** over that vector — an INNER equi-join *probe* against a
//!   build table built once per execution and shared read-only (the derived
//!   join-filter compacts the selection first; the typed `i64` /
//!   dictionary-code lookup then emits a build-row index vector beside the
//!   position vector, so no joined row is ever assembled), and
//!   *projection*, folded at lowering into the column list the sink reads
//!   (a bare column reference is a rename; only real expressions evaluate);
//! * **sink** — `Agg` fed from typed column slices on either join side,
//!   `Sort` / top-K comparing typed key columns by `(position, build row)`
//!   and gathering rows only for the survivors, or `Rows` via
//!   `Column::gather_into`.
//!
//! Parts are slices, run through the one `run_parts`; partials merge in
//! slice order, so output order is a function of the data (slice-major
//! probe order), never of the worker count. Everything the lowering cannot
//! stream — LEFT and nested-loop joins, multi-key or generic-layout keys,
//! residual predicates, `DISTINCT`, `UNION` — stays a row-producing node
//! of the interpreter in `exec.rs` (exact-or-fallback), and its scans and
//! joins carry their compiled decisions in the same [`Lowered`] tree.
//! `EXPLAIN`'s `PIPELINE:` line ([`Lowered::describe`]) and the executed
//! profile's `kernel=` / `batches=` / `fused=` / `bloom_skipped=` attributes
//! are both rendered from that one value. A new vectorized operator is
//! added here, as a stage or a sink, and nowhere else.

use crate::column::{Column, NullMap};
use crate::engine::AccelEngine;
use crate::exec::{
    compact, finish_groups, for_each_slice, merge_groups, merge_runs, new_states, resolver_of,
    scan_blocks, scan_table, ExecCtx, ExecMode, Groups, JoinSpec, KeyLayout, ScanSpec,
};
use crate::table::Slice;
use idaa_common::wire::KeySummary;
use idaa_common::{DataType, Error, ObjectName, Result, Row, Value};
use idaa_sql::ast::{Expr, JoinKind};
use idaa_sql::eval::{bind, eval, BoundExpr};
use idaa_sql::plan::{AggCall, Plan, PlanCol, PlanProfile};
use std::cmp::Ordering;
use std::collections::HashMap;

/// `Limit(Sort(…))` lowers to a bounded top-K sink when the limit is at
/// most this many rows (beyond that the full sort sink runs and the limit
/// truncates).
const TOPK_MAX: u64 = 1024;

/// End of a build-row chain / "no build row".
const NONE: u32 = u32::MAX;

/// A lowered plan node, in lockstep with [`Plan::children`].
#[derive(Debug)]
pub(crate) struct Lowered {
    pub(crate) kind: Kind,
    pub(crate) children: Vec<Lowered>,
}

#[derive(Debug)]
pub(crate) enum Kind {
    /// This node and everything below it stream as one pipeline.
    Pipe(Box<Pipeline>),
    /// A `Scan` / `Filter(Scan)` leaf the row path runs.
    Scan(ScanSpec),
    /// A join the row path runs, with its key decisions.
    Join(JoinSpec),
    /// Any other node: the interpreter, over lowered children.
    Rows,
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
/// compiles no kernel: every node is the row-at-a-time oracle.
pub(crate) fn lower(plan: &Plan, engine: &AccelEngine, mode: ExecMode) -> Result<Lowered> {
    let leaf = |kind| Ok(Lowered { kind, children: Vec::new() });
    if mode == ExecMode::Vectorized {
        if let Some(pipe) = Pipeline::lower(plan, engine)? {
            return leaf(Kind::Pipe(Box::new(pipe)));
        }
    }
    if let Some((table, pred, cols)) = scan_shape(plan) {
        return leaf(Kind::Scan(ScanSpec::compile(&*engine.table(table)?, pred, cols, mode)?));
    }
    let children =
        plan.children().into_iter().map(|c| lower(c, engine, mode)).collect::<Result<_>>()?;
    let kind = match plan {
        Plan::Join { left, right, on, .. } => Kind::Join(JoinSpec::bind(left, right, on)?),
        _ => Kind::Rows,
    };
    Ok(Lowered { kind, children })
}

impl Lowered {
    /// Which pipeline runs this plan — `EXPLAIN`'s `PIPELINE:` line, and the
    /// description attached to an executed profile. A fused aggregate
    /// anywhere in the tree names the plan, else its first join, else its
    /// first scan.
    pub(crate) fn describe(&self) -> String {
        let fused = |k: &Kind| match k {
            Kind::Pipe(p) if p.probe.is_none() && matches!(p.sink, Sink::Agg { .. }) => {
                Some("vectorized (fused scan-filter-aggregate)".to_string())
            }
            _ => None,
        };
        let join = |k: &Kind| match k {
            Kind::Pipe(p) => p.probe.as_ref().map(|probe| {
                let keys = if probe.layout == KeyLayout::Str { "string" } else { "i64" };
                format!(
                    "vectorized (hash join: typed {keys} keys, bloom-guarded probe, \
                     derived probe filter)"
                )
            }),
            Kind::Join(spec) if spec.lkeys.is_empty() => {
                Some("interpreted (nested-loop join)".to_string())
            }
            Kind::Join(_) => {
                Some("interpreted (hash join: generic keys, bloom-guarded probe)".to_string())
            }
            _ => None,
        };
        let scan = |k: &Kind| match k {
            Kind::Pipe(p) => Some(p.source.describe()),
            Kind::Scan(spec) => Some(spec.describe()),
            _ => None,
        };
        self.find(&fused)
            .or_else(|| self.find(&join))
            .or_else(|| self.find(&scan))
            .unwrap_or_else(|| "interpreted (no batch-eligible scan)".to_string())
    }

    fn find(&self, pick: &dyn Fn(&Kind) -> Option<String>) -> Option<String> {
        pick(&self.kind).or_else(|| self.children.iter().find_map(|c| c.find(pick)))
    }
}

/// One column a sink reads, over a `(probe position, build row)` pair.
#[derive(Debug, Clone)]
pub(crate) enum OutCol {
    /// Column of the source table, read from the slice's typed vector.
    Probe(usize),
    /// Column of the join's build row.
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
    fn value(&self, slice: &Slice, brows: &[Row], pos: usize, bi: usize, scratch: &mut Row) -> Result<Value> {
        Ok(match self {
            OutCol::Probe(c) => slice.columns[*c].get(pos),
            OutCol::Build(c) => brows[bi][*c].clone(),
            OutCol::Expr(expr, fills) => {
                for (i, c) in fills {
                    scratch[*i] = c.value(slice, brows, pos, bi, &mut Vec::new())?;
                }
                eval(expr, scratch)?
            }
        })
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
            OutCol::Probe(c) => slice.columns[*c].gather_into(psel, rows),
            OutCol::Build(c) => {
                for (row, &b) in rows.iter_mut().zip(bsel) {
                    row.push(brows[b as usize][*c].clone());
                }
            }
            OutCol::Expr(..) => {
                for (k, row) in rows.iter_mut().enumerate() {
                    let bi = bsel.get(k).map_or(0, |b| *b as usize);
                    row.push(col.value(slice, brows, psel[k] as usize, bi, &mut scratch)?);
                }
            }
        }
    }
    Ok(())
}

/// One streaming sub-plan: source → probe → (projection, folded into the
/// columns the sink reads) → sink.
#[derive(Debug)]
pub(crate) struct Pipeline {
    source: ScanSpec,
    probe: Option<Probe>,
    /// The columns flowing into the sink (after every projection).
    cols: Vec<OutCol>,
    sink: Sink,
}

/// The join stage: an INNER single-key equi-join whose build side is a
/// (filtered) scan, probed with the source table's typed key column.
#[derive(Debug)]
struct Probe {
    build: ScanSpec,
    /// Build-side columns the pipeline reads (key included).
    build_mask: Vec<bool>,
    probe_col: usize,
    build_col: usize,
    /// `I64` or `Str`, never `Generic`.
    layout: KeyLayout,
}

#[derive(Debug)]
enum Sink {
    /// Rows, in slice-major probe order.
    Rows,
    /// Grouped aggregation; keys are plain columns, `None` is `COUNT(*)`.
    Agg { keys: Vec<OutCol>, args: Vec<Option<OutCol>> },
    /// Stable sort on plain key columns; with a limit, bounded top-K.
    Sort { keys: Vec<(usize, bool)>, limit: Option<usize> },
}

/// The plan nodes one pipeline covers, top down: the sink's node(s), the
/// projections, the join, and the source's top node.
struct Spine<'p> {
    /// `Aggregate`, `Sort`, or `Limit` over a `Sort`; `None` for a row sink.
    root: Option<&'p Plan>,
    /// The sort keys, when the root sorts, and the top-K limit above them.
    sort: Option<&'p [(usize, bool)]>,
    limit: Option<usize>,
    projects: Vec<&'p Plan>,
    /// The join and its build (right) side.
    join: Option<(&'p Plan, &'p Plan)>,
    source: &'p Plan,
}

fn spine(plan: &Plan) -> Option<Spine<'_>> {
    let (root, sort, limit, mut node) = match plan {
        Plan::Aggregate { input, .. } => (Some(plan), None, None, input.as_ref()),
        Plan::Sort { input, keys } => (Some(plan), Some(keys.as_slice()), None, input.as_ref()),
        Plan::Limit { input, n } if *n <= TOPK_MAX => match input.as_ref() {
            Plan::Sort { input, keys } => {
                (Some(plan), Some(keys.as_slice()), Some(*n as usize), input.as_ref())
            }
            _ => return None,
        },
        Plan::Project { .. } | Plan::Join { .. } => (None, None, None, plan),
        _ => return None,
    };
    let mut projects = Vec::new();
    while let Plan::Project { input, .. } = node {
        projects.push(node);
        node = input;
    }
    let mut join = None;
    if let Plan::Join { left, right, kind: JoinKind::Inner, .. } = node {
        join = Some((node, right.as_ref()));
        node = left;
    }
    scan_shape(node)?;
    // A bare scan under a row sink is the row path's `Kind::Scan`.
    (root.is_some() || join.is_some() || !projects.is_empty())
        .then_some(Spine { root, sort, limit, projects, join, source: node })
}

impl Pipeline {
    /// Lower the sub-plan rooted at `plan`, or `None` when it does not
    /// stream (the interpreter then runs `plan` over lowered children).
    fn lower(plan: &Plan, engine: &AccelEngine) -> Result<Option<Pipeline>> {
        let Some(spine) = spine(plan) else { return Ok(None) };
        let Some((table, pred, scan_cols)) = scan_shape(spine.source) else { return Ok(None) };
        let source =
            ScanSpec::compile(&*engine.table(table)?, pred, scan_cols, ExecMode::Vectorized)?;
        if source.residual.is_some() {
            return Ok(None);
        }
        let mut cols: Vec<OutCol> = (0..scan_cols.len()).map(OutCol::Probe).collect();
        let mut probe = None;
        if let Some((Plan::Join { left, right, on, .. }, _)) = spine.join {
            let Some(p) = Probe::lower(left, right, on, engine)? else { return Ok(None) };
            cols.extend((0..p.build_mask.len()).map(OutCol::Build));
            probe = Some(p);
        }
        for project in spine.projects.iter().rev() {
            let Plan::Project { input, exprs, .. } = project else { continue };
            let resolver = resolver_of(&input.cols());
            let mut next = Vec::with_capacity(exprs.len());
            for (e, _) in exprs {
                let Some(c) = OutCol::lower(&bind(e, &resolver)?, &cols) else { return Ok(None) };
                next.push(c);
            }
            cols = next;
        }
        let sink = match (plan, spine.sort) {
            (Plan::Aggregate { input, group_exprs, aggs, .. }, _) => {
                let resolver = resolver_of(&input.cols());
                let mut keys = Vec::with_capacity(group_exprs.len());
                for g in group_exprs {
                    match bind(g, &resolver)?.as_column().and_then(|i| cols.get(i)) {
                        Some(c) if !matches!(c, OutCol::Expr(..)) => keys.push(c.clone()),
                        _ => return Ok(None),
                    }
                }
                let mut args = Vec::with_capacity(aggs.len());
                for a in aggs {
                    let arg = a.arg.as_ref().map(|e| Ok(OutCol::lower(&bind(e, &resolver)?, &cols)));
                    match arg.transpose()? {
                        Some(None) => return Ok(None),
                        arg => args.push(arg.flatten()),
                    }
                }
                Sink::Agg { keys, args }
            }
            (_, Some(keys)) => {
                if !keys.iter().all(|(i, _)| matches!(cols.get(*i), Some(OutCol::Probe(_) | OutCol::Build(_)))) {
                    return Ok(None);
                }
                Sink::Sort { keys: keys.to_vec(), limit: spine.limit }
            }
            _ => Sink::Rows,
        };
        if let Some(p) = &mut probe {
            p.build_mask[p.build_col] = true;
            match &sink {
                Sink::Agg { keys, args } => keys
                    .iter()
                    .chain(args.iter().flatten())
                    .for_each(|c| c.mark_build(&mut p.build_mask)),
                _ => cols.iter().for_each(|c| c.mark_build(&mut p.build_mask)),
            }
        }
        Ok(Some(Pipeline { source, probe, cols, sink }))
    }

    /// Run the pipeline rooted at `plan`: build side once, then one part
    /// per slice of the source table, partials merged in slice order.
    pub(crate) fn run(
        &self,
        plan: &Plan,
        ctx: &ExecCtx,
        needed: Option<&[bool]>,
    ) -> Result<Vec<Row>> {
        let spine = ctx.profile.and_then(|_| spine(plan));
        let table = ctx.engine.table(&self.source.table)?;
        let right = spine.as_ref().and_then(|s| s.join).map(|(_, right)| right);
        let build = match &self.probe {
            Some(p) => Some(BuildTable::new(p, &self.sink, right, ctx)?),
            None => None,
        };
        let (aggs, group_exprs): (&[AggCall], &[Expr]) = match plan {
            Plan::Aggregate { aggs, group_exprs, .. } => (aggs, group_exprs),
            _ => (&[], &[]),
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
            counts.skipped += c.skipped;
        }
        let out = match &self.sink {
            Sink::Rows => runs.into_iter().flatten().collect(),
            Sink::Agg { .. } => finish_groups(merge_groups(groups)?, group_exprs, aggs)?,
            Sink::Sort { keys, limit } => {
                let mut rows = merge_runs(runs, keys);
                rows.truncate(limit.unwrap_or(usize::MAX));
                rows
            }
        };
        if let (Some(prof), Some(spine)) = (ctx.profile, spine) {
            self.record(prof, &spine, out.len() as u64, &counts);
        }
        Ok(out)
    }

    /// Record every plan node the pipeline covers: each stage counts what
    /// it emits, so a pipelined plan profiles like its node-by-node run. A
    /// sort under a top-K limit, and the scan under an aggregate sink with
    /// no join, stay unrecorded — they have no output of their own
    /// (`fused=true`).
    fn record(&self, prof: &PlanProfile, spine: &Spine, out: u64, c: &Counts) {
        let fused_agg = self.probe.is_none() && matches!(self.sink, Sink::Agg { .. });
        if let Some(root) = spine.root {
            prof.record(root, out);
            if fused_agg {
                prof.record_vectorized(root, c.batches);
            }
        }
        for project in &spine.projects {
            prof.record(project, c.joined);
        }
        if let Some((join, _)) = spine.join {
            prof.record(join, c.joined);
            prof.record_bloom(join, c.skipped);
        }
        if !fused_agg {
            prof.record(spine.source, c.source);
            if !self.source.kernels.is_empty() || self.probe.is_some() {
                prof.record_vectorized(spine.source, c.batches);
            }
        }
    }

    /// One part: stream one slice's blocks through the probe into the sink.
    /// Hands back the sink's rows or groups for the slice-order merge.
    fn run_slice(
        &self,
        slice: &Slice,
        build: Option<&BuildTable>,
        ctx: &ExecCtx,
        mask: Option<&[bool]>,
        aggs: &[AggCall],
    ) -> Result<(Vec<Row>, Groups, Counts)> {
        let probe = match (&self.probe, build) {
            (Some(p), Some(b)) => Some(b.specialize(p, slice)?),
            _ => None,
        };
        let brows: &[Row] = build.map_or(&[], |b| &b.rows);
        let mut counts = Counts::default();
        let (mut psel, mut bsel) = (Vec::new(), Vec::new());
        let mut sink = match &self.sink {
            Sink::Rows => SinkState::Rows(Vec::new()),
            Sink::Agg { keys, args } => {
                SinkState::Agg(AggSink::new(keys, args, aggs, slice, build))
            }
            Sink::Sort { keys, limit } => SinkState::Sort(SortSink {
                slice,
                brows,
                keys: keys
                    .iter()
                    .map(|(i, desc)| (KeyCol::specialize(&self.cols[*i], slice), *desc))
                    .collect(),
                limit: *limit,
                cands: Vec::new(),
            }),
        };
        let batches = scan_blocks(slice, &self.source.kernels, ctx, true, |sel| {
            if let Some(probe) = &probe {
                counts.skipped += probe.run(sel, &mut psel, &mut bsel);
            }
            let (p, b): (&[u32], &[u32]) =
                if probe.is_some() { (&psel, &bsel) } else { (sel, &[]) };
            counts.source += sel.len() as u64;
            counts.joined += p.len() as u64;
            match &mut sink {
                SinkState::Rows(out) => gather(&self.cols, mask, slice, brows, p, b, out),
                SinkState::Agg(agg) => agg.consume(p, b),
                SinkState::Sort(sort) => {
                    sort.consume(p, b);
                    Ok(())
                }
            }
        })?;
        counts.batches = batches;
        Ok(match sink {
            SinkState::Rows(out) => (out, Vec::new(), counts),
            SinkState::Agg(agg) => (Vec::new(), agg.groups, counts),
            SinkState::Sort(sort) => {
                let mut out = Vec::new();
                let (p, b) = sort.finish();
                gather(&self.cols, mask, slice, brows, &p, &b, &mut out)?;
                (out, Vec::new(), counts)
            }
        })
    }
}

impl Probe {
    /// The probe stage for `left ⋈ right ON on`, when the join is a
    /// single-key INNER equi-join with a typed layout whose whole predicate
    /// is the key equality and whose build side is a (filtered) scan.
    fn lower(left: &Plan, right: &Plan, on: &Expr, engine: &AccelEngine) -> Result<Option<Probe>> {
        let spec = JoinSpec::bind(left, right, on)?;
        if !spec.on_covered || spec.layout == KeyLayout::Generic {
            return Ok(None);
        }
        // A typed layout means one key pair of bare columns.
        let (Some(probe_col), Some(build_col)) = (
            spec.lkeys.first().and_then(BoundExpr::as_column),
            spec.rkeys.first().and_then(BoundExpr::as_column),
        ) else {
            return Ok(None);
        };
        let Some((table, pred, cols)) = scan_shape(right) else { return Ok(None) };
        let build = ScanSpec::compile(&*engine.table(table)?, pred, cols, ExecMode::Vectorized)?;
        Ok(Some(Probe {
            build,
            build_mask: vec![false; cols.len()],
            probe_col,
            build_col,
            layout: spec.layout,
        }))
    }
}

/// What the stages of one part emitted.
#[derive(Default)]
struct Counts {
    batches: u64,
    /// Positions leaving the source (after the derived join-filter).
    source: u64,
    /// `(position, build row)` pairs leaving the probe (= `source` without one).
    joined: u64,
    /// Positions the derived join-filter dropped before any table lookup.
    skipped: u64,
}

/// A join's build side, built once per execution and shared read-only by
/// every part: the build rows, a typed key → first-build-row index chained
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
}

enum KeyIndex {
    I64(HashMap<i64, u32>),
    /// Keys with trailing blanks trimmed (DB2 padded CHAR comparison).
    Str(HashMap<String, u32>),
}

impl BuildTable {
    fn new(probe: &Probe, sink: &Sink, node: Option<&Plan>, ctx: &ExecCtx) -> Result<BuildTable> {
        let table = ctx.engine.table(&probe.build.table)?;
        let (rows, _) =
            scan_table(&table, &probe.build, ctx, Some(probe.build_mask.clone()), node, false)?;
        if let (Some(prof), Some(node)) = (ctx.profile, node) {
            prof.record(node, rows.len() as u64);
        }
        let mut index = match probe.layout {
            KeyLayout::Str => KeyIndex::Str(HashMap::with_capacity(rows.len())),
            _ => KeyIndex::I64(HashMap::with_capacity(rows.len())),
        };
        let mut summary = KeySummary::with_capacity(rows.len());
        let mut next = vec![NONE; rows.len()];
        // Back to front, so every chain runs in ascending build-row order.
        for (i, row) in rows.iter().enumerate().rev() {
            let later = match (&mut index, &row[probe.build_col]) {
                (_, Value::Null) => continue, // NULL keys never join
                (KeyIndex::I64(m), Value::SmallInt(_) | Value::Int(_) | Value::BigInt(_)) => {
                    let k = row[probe.build_col].as_i64()?;
                    summary.insert_i64(k);
                    m.insert(k, i as u32)
                }
                (KeyIndex::Str(m), Value::Varchar(s)) => {
                    m.insert(s.trim_end_matches(' ').to_string(), i as u32)
                }
                (_, other) => {
                    return Err(Error::internal(format!(
                        "join build key {other} outside its declared key layout"
                    )))
                }
            };
            next[i] = later.unwrap_or(NONE);
        }
        let (mut group_of, mut group_keys) = (Vec::new(), Vec::new());
        if let Sink::Agg { keys, .. } = sink {
            let ords: Option<Vec<usize>> = keys
                .iter()
                .map(|k| if let OutCol::Build(c) = k { Some(*c) } else { None })
                .collect();
            if let Some(ords) = ords.filter(|o| !o.is_empty()) {
                let mut codes: HashMap<Vec<&Value>, u32> = HashMap::new();
                for row in &rows {
                    let key: Vec<&Value> = ords.iter().map(|c| &row[*c]).collect();
                    let fresh = group_keys.len() as u32;
                    group_of.push(*codes.entry(key).or_insert_with_key(|key| {
                        group_keys.push(key.iter().map(|v| (*v).clone()).collect());
                        fresh
                    }));
                }
            }
        }
        Ok(BuildTable { rows, index, next, summary, group_of, group_keys })
    }

    /// Resolve the probe against one slice's key column.
    fn specialize<'s>(&'s self, probe: &Probe, slice: &'s Slice) -> Result<SpecProbe<'s>> {
        let c = &slice.columns[probe.probe_col];
        match (&self.index, c.i64_data(), c.str_codes(), c.dictionary()) {
            (KeyIndex::I64(index), Some(vals), ..) => {
                Ok(SpecProbe::I64 { vals, nulls: &c.nulls, index, table: self })
            }
            // Each distinct value is looked up once; rows then probe by code.
            (KeyIndex::Str(index), _, Some(codes), Some(dict)) => {
                let heads = dict
                    .iter()
                    .map(|v| index.get(v.trim_end_matches(' ')).copied().unwrap_or(NONE))
                    .collect();
                Ok(SpecProbe::Dict { codes, nulls: &c.nulls, heads, table: self })
            }
            _ => Err(Error::internal("join probe column storage does not match its key layout")),
        }
    }

    /// Push `pos` once per build row on the chain from `head`.
    #[inline]
    fn emit(&self, pos: u32, mut head: u32, psel: &mut Vec<u32>, bsel: &mut Vec<u32>) {
        while head != NONE {
            psel.push(pos);
            bsel.push(head);
            head = self.next[head as usize];
        }
    }
}

/// The probe stage resolved against one slice's physical key column.
enum SpecProbe<'s> {
    I64 { vals: &'s [i64], nulls: &'s NullMap, index: &'s HashMap<i64, u32>, table: &'s BuildTable },
    Dict { codes: &'s [u32], nulls: &'s NullMap, heads: Vec<u32>, table: &'s BuildTable },
}

impl SpecProbe<'_> {
    /// Compact `sel` to the positions that can join (the derived
    /// join-filter: NULL keys and keys the build digest — or, for
    /// dictionary keys, the per-code lookup — proves absent never join),
    /// then emit one `(position, build row)` pair per match, in position
    /// then build-row order. Returns how many positions the filter dropped.
    fn run(&self, sel: &mut Vec<u32>, psel: &mut Vec<u32>, bsel: &mut Vec<u32>) -> u64 {
        let before = sel.len();
        psel.clear();
        bsel.clear();
        match self {
            SpecProbe::I64 { vals, nulls, index, table } => {
                // The digest only ever false-positives; the exact lookup
                // below removes those.
                compact(sel, |p| !nulls.is_null(p) && table.summary.contains_i64(vals[p]));
                for &p in sel.iter() {
                    let head = index.get(&vals[p as usize]).copied().unwrap_or(NONE);
                    table.emit(p, head, psel, bsel);
                }
            }
            SpecProbe::Dict { codes, nulls, heads, table } => {
                compact(sel, |p| !nulls.is_null(p) && heads[codes[p] as usize] != NONE);
                for &p in sel.iter() {
                    table.emit(p, heads[codes[p as usize] as usize], psel, bsel);
                }
            }
        }
        (before - sel.len()) as u64
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
            Some(arg @ OutCol::Probe(c)) => (arg, &slice.columns[*c]),
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
    Build { group_of: &'a [u32], keys: &'a [Vec<Value>], map: Vec<usize> },
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
            (_, Some(b)) if keys.iter().all(|k| matches!(k, OutCol::Build(_))) => KeySlot::Build {
                group_of: &b.group_of,
                keys: &b.group_keys,
                map: vec![usize::MAX; b.group_keys.len()],
            },
            ([OutCol::Probe(k)], _) => {
                let col = &slice.columns[*k];
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
            scratch: scratch_for(args.iter().flatten()),
        }
    }

    fn consume(&mut self, psel: &[u32], bsel: &[u32]) -> Result<()> {
        let AggSink { slice, brows, aggs, key, slots, groups, index, scratch } = self;
        for (k, &p) in psel.iter().enumerate() {
            let pos = p as usize;
            let bi = bsel.get(k).map_or(0, |b| *b as usize);
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
                KeySlot::Build { group_of, keys, map } => {
                    let code = group_of[bi] as usize;
                    if map[code] == usize::MAX {
                        groups.push((keys[code].clone(), new_states(aggs)));
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

/// One sort key resolved against a slice: compares two `(position, build
/// row)` pairs exactly as `Value::cmp_total` compares the column's values —
/// NULLs high, integers / dates / booleans as their `i64` image, doubles
/// by `partial_cmp` with NaN equal to everything, strings blank-trimmed.
enum KeyCol<'a> {
    I64 { vals: &'a [i64], nulls: &'a NullMap },
    F64 { vals: &'a [f64], nulls: &'a NullMap },
    Str { codes: &'a [u32], nulls: &'a NullMap, dict: &'a [String] },
    /// DECIMAL storage and build-side columns: through their [`Value`]s.
    Value(&'a OutCol),
}

impl<'a> KeyCol<'a> {
    fn specialize(col: &'a OutCol, slice: &'a Slice) -> KeyCol<'a> {
        let OutCol::Probe(c) = col else { return KeyCol::Value(col) };
        let c = &slice.columns[*c];
        let nulls = &c.nulls;
        match (c.i64_data(), c.f64_data(), c.str_codes(), c.dictionary()) {
            (Some(vals), ..) => KeyCol::I64 { vals, nulls },
            (_, Some(vals), ..) => KeyCol::F64 { vals, nulls },
            (_, _, Some(codes), Some(dict)) => KeyCol::Str { codes, nulls, dict },
            _ => KeyCol::Value(col),
        }
    }

    fn cmp(&self, slice: &Slice, brows: &[Row], a: (u32, u32), b: (u32, u32)) -> Ordering {
        let (pa, pb) = (a.0 as usize, b.0 as usize);
        let typed = |nulls: &NullMap, non_null: &dyn Fn() -> Ordering| {
            match (nulls.is_null(pa), nulls.is_null(pb)) {
                (true, true) => Ordering::Equal,
                (true, false) => Ordering::Greater,
                (false, true) => Ordering::Less,
                (false, false) => non_null(),
            }
        };
        match self {
            KeyCol::I64 { vals, nulls } => typed(nulls, &|| vals[pa].cmp(&vals[pb])),
            KeyCol::F64 { vals, nulls } => {
                typed(nulls, &|| vals[pa].partial_cmp(&vals[pb]).unwrap_or(Ordering::Equal))
            }
            KeyCol::Str { codes, nulls, dict } => typed(nulls, &|| {
                let s = |p: usize| dict[codes[p] as usize].trim_end_matches(' ');
                s(pa).cmp(s(pb))
            }),
            // Sort keys are plain columns (see `Pipeline::lower`): no scratch.
            KeyCol::Value(col) => {
                let v = |(p, b): (u32, u32)| {
                    col.value(slice, brows, p as usize, b as usize, &mut Vec::new())
                };
                match (v(a), v(b)) {
                    (Ok(x), Ok(y)) => x.cmp_total(&y),
                    _ => Ordering::Equal,
                }
            }
        }
    }
}

/// The sort / top-K sink for one part. Candidates are `(position, build
/// row)` pairs compared through the typed key columns; they arrive in
/// ascending input order, so "insert after every entry that is not greater"
/// (top-K) and a stable sort (full sort) both break ties by input position
/// — exactly a stable sort of the part's rows, truncated.
struct SortSink<'a> {
    slice: &'a Slice,
    brows: &'a [Row],
    keys: Vec<(KeyCol<'a>, bool)>,
    limit: Option<usize>,
    cands: Vec<(u32, u32)>,
}

impl SortSink<'_> {
    fn cmp(&self, a: (u32, u32), b: (u32, u32)) -> Ordering {
        for (key, desc) in &self.keys {
            let o = key.cmp(self.slice, self.brows, a, b);
            let o = if *desc { o.reverse() } else { o };
            if o != Ordering::Equal {
                return o;
            }
        }
        Ordering::Equal
    }

    fn consume(&mut self, psel: &[u32], bsel: &[u32]) {
        let pairs = psel.iter().enumerate().map(|(k, &p)| (p, bsel.get(k).copied().unwrap_or(0)));
        let Some(k) = self.limit else {
            self.cands.extend(pairs);
            return;
        };
        for cand in pairs {
            if self.cands.len() == k {
                // `k == 0` keeps nothing. Kept entries all came earlier, so
                // an equal newcomer loses the position tiebreak too.
                let Some(&worst) = self.cands.last() else { return };
                if self.cmp(cand, worst) != Ordering::Less {
                    continue;
                }
            }
            let at = self.cands.partition_point(|&e| self.cmp(e, cand) != Ordering::Greater);
            self.cands.insert(at, cand);
            self.cands.truncate(k);
        }
    }

    /// The part's survivors in output order, as position and build-row
    /// vectors for the row gather.
    fn finish(mut self) -> (Vec<u32>, Vec<u32>) {
        if self.limit.is_none() {
            let mut cands = std::mem::take(&mut self.cands);
            cands.sort_by(|a, b| self.cmp(*a, *b));
            self.cands = cands;
        }
        self.cands.into_iter().unzip()
    }
}
