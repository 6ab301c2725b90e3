//! Expression binding and evaluation.
//!
//! Both engines share this evaluator: the host runs it row-at-a-time inside
//! Volcano operators, the accelerator uses it for residual expressions its
//! vectorized kernels don't cover. Column references are resolved once at
//! bind time into ordinals, so evaluation never does name lookups.

use crate::ast::{BinaryOp, Expr, UnaryOp};
use idaa_common::{DataType, Decimal, Error, Result, Value};
use std::collections::HashSet;

/// Resolves a (possibly qualified) column name to an ordinal in the input
/// row and reports its type.
pub trait ColumnResolver {
    /// Ordinal of `qualifier.name` in the runtime row.
    fn resolve(&self, qualifier: Option<&str>, name: &str) -> Result<usize>;
}

/// A resolver over a flat list of `(qualifier, column_name)` pairs — the
/// shape produced by scans and joins.
pub struct FlatResolver {
    columns: Vec<(Option<String>, String)>,
}

impl FlatResolver {
    /// Build from `(qualifier, name)` pairs in row order.
    pub fn new(columns: Vec<(Option<String>, String)>) -> Self {
        FlatResolver { columns }
    }

    /// Resolver for an unqualified schema (single table scan).
    pub fn from_schema(qualifier: Option<&str>, schema: &idaa_common::Schema) -> Self {
        FlatResolver {
            columns: schema
                .columns()
                .iter()
                .map(|c| (qualifier.map(|q| q.to_string()), c.name.clone()))
                .collect(),
        }
    }

    /// The column list (used to build join resolvers).
    pub fn columns(&self) -> &[(Option<String>, String)] {
        &self.columns
    }

    /// Concatenate two resolvers (join output = left columns then right).
    pub fn concat(&self, other: &FlatResolver) -> FlatResolver {
        let mut columns = self.columns.clone();
        columns.extend(other.columns.iter().cloned());
        FlatResolver { columns }
    }
}

impl ColumnResolver for FlatResolver {
    fn resolve(&self, qualifier: Option<&str>, name: &str) -> Result<usize> {
        let matches: Vec<usize> = self
            .columns
            .iter()
            .enumerate()
            .filter(|(_, (q, n))| {
                n == name
                    && match qualifier {
                        Some(want) => q.as_deref() == Some(want),
                        None => true,
                    }
            })
            .map(|(i, _)| i)
            .collect();
        match matches.len() {
            0 => Err(Error::UndefinedColumn(format!(
                "column {}{name} not found",
                qualifier.map(|q| format!("{q}.")).unwrap_or_default()
            ))),
            1 => Ok(matches[0]),
            _ => Err(Error::UndefinedColumn(format!("column {name} is ambiguous"))),
        }
    }
}

/// An expression with all column references bound to row ordinals.
#[derive(Debug, Clone)]
pub enum BoundExpr {
    Literal(Value),
    Column(usize),
    Binary { left: Box<BoundExpr>, op: BinaryOp, right: Box<BoundExpr> },
    Unary { op: UnaryOp, expr: Box<BoundExpr> },
    Function { name: String, args: Vec<BoundExpr> },
    IsNull { expr: Box<BoundExpr>, negated: bool },
    InList { expr: Box<BoundExpr>, list: Vec<BoundExpr>, negated: bool },
    Between { expr: Box<BoundExpr>, low: Box<BoundExpr>, high: Box<BoundExpr>, negated: bool },
    Like { expr: Box<BoundExpr>, pattern: Box<BoundExpr>, negated: bool },
    Case {
        operand: Option<Box<BoundExpr>>,
        branches: Vec<(BoundExpr, BoundExpr)>,
        else_result: Option<Box<BoundExpr>>,
    },
    Cast { expr: Box<BoundExpr>, data_type: DataType },
}

impl BoundExpr {
    /// The ordinal if this is a bare column reference.
    pub fn as_column(&self) -> Option<usize> {
        match self {
            BoundExpr::Column(i) => Some(*i),
            _ => None,
        }
    }

    /// Collect every column ordinal this expression reads (projection
    /// pushdown uses this to avoid materializing untouched columns).
    pub fn collect_columns(&self, out: &mut std::collections::HashSet<usize>) {
        match self {
            BoundExpr::Literal(_) => {}
            BoundExpr::Column(i) => {
                out.insert(*i);
            }
            BoundExpr::Binary { left, right, .. } => {
                left.collect_columns(out);
                right.collect_columns(out);
            }
            BoundExpr::Unary { expr, .. }
            | BoundExpr::IsNull { expr, .. }
            | BoundExpr::Cast { expr, .. } => expr.collect_columns(out),
            BoundExpr::Function { args, .. } => {
                for a in args {
                    a.collect_columns(out);
                }
            }
            BoundExpr::InList { expr, list, .. } => {
                expr.collect_columns(out);
                for e in list {
                    e.collect_columns(out);
                }
            }
            BoundExpr::Between { expr, low, high, .. } => {
                expr.collect_columns(out);
                low.collect_columns(out);
                high.collect_columns(out);
            }
            BoundExpr::Like { expr, pattern, .. } => {
                expr.collect_columns(out);
                pattern.collect_columns(out);
            }
            BoundExpr::Case { operand, branches, else_result } => {
                if let Some(o) = operand {
                    o.collect_columns(out);
                }
                for (w, t) in branches {
                    w.collect_columns(out);
                    t.collect_columns(out);
                }
                if let Some(e) = else_result {
                    e.collect_columns(out);
                }
            }
        }
    }
}

/// Bind `expr` against `resolver`. Aggregate calls are rejected — callers
/// must rewrite aggregates before binding (the planners do).
pub fn bind(expr: &Expr, resolver: &dyn ColumnResolver) -> Result<BoundExpr> {
    Ok(match expr {
        Expr::Literal(v) => BoundExpr::Literal(v.clone()),
        Expr::Column { qualifier, name } => {
            BoundExpr::Column(resolver.resolve(qualifier.as_deref(), name)?)
        }
        Expr::Binary { left, op, right } => BoundExpr::Binary {
            left: Box::new(bind(left, resolver)?),
            op: *op,
            right: Box::new(bind(right, resolver)?),
        },
        Expr::Unary { op, expr } => {
            BoundExpr::Unary { op: *op, expr: Box::new(bind(expr, resolver)?) }
        }
        Expr::Function { name, args, .. } => {
            if crate::ast::is_aggregate_name(name) {
                return Err(Error::Internal(format!(
                    "aggregate {name} must be rewritten before binding"
                )));
            }
            BoundExpr::Function {
                name: name.clone(),
                args: args.iter().map(|a| bind(a, resolver)).collect::<Result<_>>()?,
            }
        }
        Expr::IsNull { expr, negated } => {
            BoundExpr::IsNull { expr: Box::new(bind(expr, resolver)?), negated: *negated }
        }
        Expr::InList { expr, list, negated } => BoundExpr::InList {
            expr: Box::new(bind(expr, resolver)?),
            list: list.iter().map(|e| bind(e, resolver)).collect::<Result<_>>()?,
            negated: *negated,
        },
        Expr::Between { expr, low, high, negated } => BoundExpr::Between {
            expr: Box::new(bind(expr, resolver)?),
            low: Box::new(bind(low, resolver)?),
            high: Box::new(bind(high, resolver)?),
            negated: *negated,
        },
        Expr::Like { expr, pattern, negated } => BoundExpr::Like {
            expr: Box::new(bind(expr, resolver)?),
            pattern: Box::new(bind(pattern, resolver)?),
            negated: *negated,
        },
        Expr::Case { operand, branches, else_result } => BoundExpr::Case {
            operand: operand.as_ref().map(|e| bind(e, resolver).map(Box::new)).transpose()?,
            branches: branches
                .iter()
                .map(|(w, t)| Ok((bind(w, resolver)?, bind(t, resolver)?)))
                .collect::<Result<_>>()?,
            else_result: else_result
                .as_ref()
                .map(|e| bind(e, resolver).map(Box::new))
                .transpose()?,
        },
        Expr::Cast { expr, data_type } => {
            BoundExpr::Cast { expr: Box::new(bind(expr, resolver)?), data_type: *data_type }
        }
        Expr::Parameter(i) => {
            return Err(Error::Unsupported(format!(
                "unbound parameter marker ?{i}; substitute parameters before execution"
            )))
        }
    })
}

/// Evaluate a bound expression against a row.
pub fn eval(expr: &BoundExpr, row: &[Value]) -> Result<Value> {
    match expr {
        BoundExpr::Literal(v) => Ok(v.clone()),
        BoundExpr::Column(i) => row
            .get(*i)
            .cloned()
            .ok_or_else(|| Error::internal(format!("column ordinal {i} out of range"))),
        BoundExpr::Binary { left, op, right } => eval_binary(left, *op, right, row),
        BoundExpr::Unary { op, expr } => {
            let v = eval(expr, row)?;
            match op {
                UnaryOp::Not => match v {
                    Value::Null => Ok(Value::Null),
                    Value::Boolean(b) => Ok(Value::Boolean(!b)),
                    other => Err(Error::TypeMismatch(format!("NOT applied to {other}"))),
                },
                UnaryOp::Neg => match v {
                    Value::Null => Ok(Value::Null),
                    Value::SmallInt(x) => Ok(Value::SmallInt(-x)),
                    Value::Int(x) => Ok(Value::Int(-x)),
                    Value::BigInt(x) => Ok(Value::BigInt(-x)),
                    Value::Double(x) => Ok(Value::Double(-x)),
                    Value::Decimal(d) => Ok(Value::Decimal(d.neg())),
                    other => Err(Error::TypeMismatch(format!("negation applied to {other}"))),
                },
            }
        }
        BoundExpr::Function { name, args } => {
            let vals: Vec<Value> = args.iter().map(|a| eval(a, row)).collect::<Result<_>>()?;
            eval_scalar_function(name, &vals)
        }
        BoundExpr::IsNull { expr, negated } => {
            let v = eval(expr, row)?;
            Ok(Value::Boolean(v.is_null() != *negated))
        }
        BoundExpr::InList { expr, list, negated } => {
            let v = eval(expr, row)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut saw_null = false;
            for item in list {
                let iv = eval(item, row)?;
                match v.compare(&iv)? {
                    Some(std::cmp::Ordering::Equal) => {
                        return Ok(Value::Boolean(!*negated));
                    }
                    None => saw_null = true,
                    _ => {}
                }
            }
            if saw_null {
                Ok(Value::Null)
            } else {
                Ok(Value::Boolean(*negated))
            }
        }
        BoundExpr::Between { expr, low, high, negated } => {
            let v = eval(expr, row)?;
            let lo = eval(low, row)?;
            let hi = eval(high, row)?;
            match (v.compare(&lo)?, v.compare(&hi)?) {
                (Some(a), Some(b)) => {
                    let within = a != std::cmp::Ordering::Less && b != std::cmp::Ordering::Greater;
                    Ok(Value::Boolean(within != *negated))
                }
                _ => Ok(Value::Null),
            }
        }
        BoundExpr::Like { expr, pattern, negated } => {
            let v = eval(expr, row)?;
            let p = eval(pattern, row)?;
            if v.is_null() || p.is_null() {
                return Ok(Value::Null);
            }
            let m = like_match(v.as_str()?, p.as_str()?);
            Ok(Value::Boolean(m != *negated))
        }
        BoundExpr::Case { operand, branches, else_result } => {
            match operand {
                Some(op) => {
                    let base = eval(op, row)?;
                    for (w, t) in branches {
                        let wv = eval(w, row)?;
                        if base.compare(&wv)? == Some(std::cmp::Ordering::Equal) {
                            return eval(t, row);
                        }
                    }
                }
                None => {
                    for (w, t) in branches {
                        if eval(w, row)? == Value::Boolean(true) {
                            return eval(t, row);
                        }
                    }
                }
            }
            match else_result {
                Some(e) => eval(e, row),
                None => Ok(Value::Null),
            }
        }
        BoundExpr::Cast { expr, data_type } => eval(expr, row)?.cast(*data_type),
    }
}

/// Evaluate a bound predicate to SQL filter semantics: NULL counts as not
/// satisfied.
pub fn eval_predicate(expr: &BoundExpr, row: &[Value]) -> Result<bool> {
    match eval(expr, row)? {
        Value::Boolean(b) => Ok(b),
        Value::Null => Ok(false),
        other => Err(Error::TypeMismatch(format!("predicate evaluated to {other}"))),
    }
}

fn eval_binary(left: &BoundExpr, op: BinaryOp, right: &BoundExpr, row: &[Value]) -> Result<Value> {
    use std::cmp::Ordering::*;
    let l = eval(left, row)?;
    // AND/OR use Kleene logic and short-circuit.
    match op {
        BinaryOp::And if l == Value::Boolean(false) => return Ok(Value::Boolean(false)),
        BinaryOp::Or if l == Value::Boolean(true) => return Ok(Value::Boolean(true)),
        _ => {}
    }
    let r = eval(right, row)?;
    let compared = |holds: fn(std::cmp::Ordering) -> bool| -> Result<Value> {
        Ok(l.compare(&r)?.map_or(Value::Null, |o| Value::Boolean(holds(o))))
    };
    match op {
        BinaryOp::And => kleene_and(l, r),
        BinaryOp::Or => kleene_or(l, r),
        BinaryOp::Eq => compared(|o| o == Equal),
        BinaryOp::Neq => compared(|o| o != Equal),
        BinaryOp::Lt => compared(|o| o == Less),
        BinaryOp::LtEq => compared(|o| o != Greater),
        BinaryOp::Gt => compared(|o| o == Greater),
        BinaryOp::GtEq => compared(|o| o != Less),
        BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div | BinaryOp::Mod => {
            arithmetic(&l, op, &r)
        }
        BinaryOp::Concat => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            Ok(Value::Varchar(format!("{}{}", l.render(), r.render())))
        }
    }
}

fn kleene_and(l: Value, r: Value) -> Result<Value> {
    match (bool3(&l)?, bool3(&r)?) {
        (Some(false), _) | (_, Some(false)) => Ok(Value::Boolean(false)),
        (Some(true), Some(true)) => Ok(Value::Boolean(true)),
        _ => Ok(Value::Null),
    }
}

fn kleene_or(l: Value, r: Value) -> Result<Value> {
    match (bool3(&l)?, bool3(&r)?) {
        (Some(true), _) | (_, Some(true)) => Ok(Value::Boolean(true)),
        (Some(false), Some(false)) => Ok(Value::Boolean(false)),
        _ => Ok(Value::Null),
    }
}

fn bool3(v: &Value) -> Result<Option<bool>> {
    match v {
        Value::Null => Ok(None),
        Value::Boolean(b) => Ok(Some(*b)),
        other => Err(Error::TypeMismatch(format!("{other} used as boolean"))),
    }
}

/// Numeric binary arithmetic with DB2-style type promotion: DOUBLE wins,
/// then DECIMAL, then BIGINT.
pub fn arithmetic(l: &Value, op: BinaryOp, r: &Value) -> Result<Value> {
    // Only NULL has no type.
    let (Some(lt), Some(rt)) = (l.data_type(), r.data_type()) else { return Ok(Value::Null) };
    let not_arithmetic = || Error::internal(format!("{op:?} is not an arithmetic operator"));
    if !lt.is_numeric() || !rt.is_numeric() {
        // DATE ± integer days is the one non-numeric arithmetic we support.
        if let (Value::Date(d), BinaryOp::Add | BinaryOp::Sub, Ok(days)) = (l, op, r.as_i64()) {
            if rt.is_integer() {
                let delta = if op == BinaryOp::Add { days } else { -days };
                return Ok(Value::Date(d + delta as i32));
            }
        }
        return Err(Error::TypeMismatch(format!("arithmetic on {l} and {r}")));
    }
    if lt == DataType::Double || rt == DataType::Double {
        let a = l.as_f64()?;
        let b = r.as_f64()?;
        let v = match op {
            BinaryOp::Add => a + b,
            BinaryOp::Sub => a - b,
            BinaryOp::Mul => a * b,
            BinaryOp::Div => {
                if b == 0.0 {
                    return Err(Error::Arithmetic("division by zero".into()));
                }
                a / b
            }
            BinaryOp::Mod => {
                if b == 0.0 {
                    return Err(Error::Arithmetic("division by zero".into()));
                }
                a % b
            }
            _ => return Err(not_arithmetic()),
        };
        return Ok(Value::Double(v));
    }
    if matches!(lt, DataType::Decimal(_, _)) || matches!(rt, DataType::Decimal(_, _)) {
        let a = to_decimal(l)?;
        let b = to_decimal(r)?;
        let v = match op {
            BinaryOp::Add => a.add(&b)?,
            BinaryOp::Sub => a.sub(&b)?,
            BinaryOp::Mul => a.mul(&b)?,
            BinaryOp::Div => a.div(&b)?,
            BinaryOp::Mod => {
                if b.is_zero() {
                    return Err(Error::Arithmetic("division by zero".into()));
                }
                let q = a.div(&b)?.rescale(0)?;
                a.sub(&q.mul(&b)?)?
            }
            _ => return Err(not_arithmetic()),
        };
        return Ok(Value::Decimal(v));
    }
    let a = l.as_i64()?;
    let b = r.as_i64()?;
    let v = match op {
        BinaryOp::Add => a.checked_add(b),
        BinaryOp::Sub => a.checked_sub(b),
        BinaryOp::Mul => a.checked_mul(b),
        BinaryOp::Div => {
            if b == 0 {
                return Err(Error::Arithmetic("division by zero".into()));
            }
            a.checked_div(b)
        }
        BinaryOp::Mod => {
            if b == 0 {
                return Err(Error::Arithmetic("division by zero".into()));
            }
            a.checked_rem(b)
        }
        _ => return Err(not_arithmetic()),
    }
    .ok_or_else(|| Error::Arithmetic("integer overflow".into()))?;
    Ok(Value::BigInt(v))
}

fn to_decimal(v: &Value) -> Result<Decimal> {
    match v {
        Value::Decimal(d) => Ok(*d),
        _ => Ok(Decimal::from_int(v.as_i64()?)),
    }
}

/// SQL `LIKE` with `%` (any run) and `_` (single char), over Unicode chars.
pub fn like_match(text: &str, pattern: &str) -> bool {
    fn rec(t: &[char], p: &[char]) -> bool {
        match p.first() {
            None => t.is_empty(),
            Some('%') => {
                // Collapse consecutive %.
                let p_rest = &p[1..];
                (0..=t.len()).any(|skip| rec(&t[skip..], p_rest))
            }
            Some('_') => !t.is_empty() && rec(&t[1..], &p[1..]),
            Some(c) => t.first() == Some(c) && rec(&t[1..], &p[1..]),
        }
    }
    let t: Vec<char> = text.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    rec(&t, &p)
}

/// Scalar (non-aggregate) builtin functions.
pub fn eval_scalar_function(name: &str, args: &[Value]) -> Result<Value> {
    let argc_err =
        |n: usize| Error::TypeMismatch(format!("{name} expects {n} argument(s), got {}", args.len()));
    // COALESCE handles NULLs itself; every other function is NULL-in/NULL-out.
    if name == "COALESCE" || name == "VALUE" {
        if args.is_empty() {
            return Err(argc_err(1));
        }
        return Ok(args.iter().find(|v| !v.is_null()).cloned().unwrap_or(Value::Null));
    }
    if args.iter().any(Value::is_null) {
        return Ok(Value::Null);
    }
    match name {
        "ABS" => {
            let [v] = args else { return Err(argc_err(1)) };
            match v {
                Value::SmallInt(x) => Ok(Value::SmallInt(x.abs())),
                Value::Int(x) => Ok(Value::Int(x.abs())),
                Value::BigInt(x) => Ok(Value::BigInt(x.abs())),
                Value::Double(x) => Ok(Value::Double(x.abs())),
                Value::Decimal(d) => Ok(Value::Decimal(d.abs())),
                other => Err(Error::TypeMismatch(format!("ABS({other})"))),
            }
        }
        "MOD" => {
            let [a, b] = args else { return Err(argc_err(2)) };
            arithmetic(a, BinaryOp::Mod, b)
        }
        "POWER" => {
            let [a, b] = args else { return Err(argc_err(2)) };
            Ok(Value::Double(a.as_f64()?.powf(b.as_f64()?)))
        }
        "SQRT" => {
            let [v] = args else { return Err(argc_err(1)) };
            let x = v.as_f64()?;
            if x < 0.0 {
                return Err(Error::Arithmetic("SQRT of negative value".into()));
            }
            Ok(Value::Double(x.sqrt()))
        }
        "LN" => {
            let [v] = args else { return Err(argc_err(1)) };
            let x = v.as_f64()?;
            if x <= 0.0 {
                return Err(Error::Arithmetic("LN of non-positive value".into()));
            }
            Ok(Value::Double(x.ln()))
        }
        "EXP" => {
            let [v] = args else { return Err(argc_err(1)) };
            Ok(Value::Double(v.as_f64()?.exp()))
        }
        "FLOOR" => {
            let [v] = args else { return Err(argc_err(1)) };
            Ok(Value::Double(v.as_f64()?.floor()))
        }
        "CEIL" | "CEILING" => {
            let [v] = args else { return Err(argc_err(1)) };
            Ok(Value::Double(v.as_f64()?.ceil()))
        }
        "ROUND" => match args {
            [v] => Ok(Value::Double(v.as_f64()?.round())),
            [v, places] => {
                let p = places.as_i64()?;
                let f = 10f64.powi(p as i32);
                Ok(Value::Double((v.as_f64()? * f).round() / f))
            }
            _ => Err(argc_err(2)),
        },
        "UPPER" | "UCASE" => {
            let [v] = args else { return Err(argc_err(1)) };
            Ok(Value::Varchar(v.as_str()?.to_uppercase()))
        }
        "LOWER" | "LCASE" => {
            let [v] = args else { return Err(argc_err(1)) };
            Ok(Value::Varchar(v.as_str()?.to_lowercase()))
        }
        "LENGTH" => {
            let [v] = args else { return Err(argc_err(1)) };
            Ok(Value::Int(v.as_str()?.chars().count() as i32))
        }
        "TRIM" | "STRIP" => {
            let [v] = args else { return Err(argc_err(1)) };
            Ok(Value::Varchar(v.as_str()?.trim().to_string()))
        }
        "SUBSTR" | "SUBSTRING" => {
            let (s, start, len) = match args {
                [s, start] => (s, start, None),
                [s, start, len] => (s, start, Some(len)),
                _ => return Err(argc_err(2)),
            };
            let chars: Vec<char> = s.as_str()?.chars().collect();
            // SQL SUBSTR is 1-based.
            let start = (start.as_i64()?.max(1) - 1) as usize;
            let take = match len {
                Some(l) => l.as_i64()?.max(0) as usize,
                None => chars.len().saturating_sub(start),
            };
            Ok(Value::Varchar(chars.iter().skip(start).take(take).collect()))
        }
        "YEAR" | "MONTH" | "DAY" => {
            let [v] = args else { return Err(argc_err(1)) };
            let Value::Date(days) = v.cast(DataType::Date)? else {
                return Err(Error::TypeMismatch(name.into()));
            };
            let (year, month, day) = idaa_common::value::civil_from_days(days);
            Ok(Value::Int(match name {
                "YEAR" => year,
                "MONTH" => month,
                _ => day,
            }))
        }
        other => Err(Error::Unsupported(format!("function {other} is not implemented"))),
    }
}

// ---------------------------------------------------------------------------
// Aggregates
// ---------------------------------------------------------------------------

/// The aggregate functions supported by both engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregateKind {
    CountStar,
    Count,
    Sum,
    Avg,
    Min,
    Max,
    /// Sample standard deviation.
    Stddev,
    /// Sample variance.
    Variance,
}

impl AggregateKind {
    /// Map a function name (+argument presence) to an aggregate kind.
    pub fn from_name(name: &str, has_arg: bool) -> Option<AggregateKind> {
        Some(match (name, has_arg) {
            ("COUNT", false) => AggregateKind::CountStar,
            ("COUNT", true) => AggregateKind::Count,
            ("SUM", true) => AggregateKind::Sum,
            ("AVG", true) => AggregateKind::Avg,
            ("MIN", true) => AggregateKind::Min,
            ("MAX", true) => AggregateKind::Max,
            ("STDDEV", true) => AggregateKind::Stddev,
            ("VARIANCE", true) | ("VAR", true) => AggregateKind::Variance,
            _ => return None,
        })
    }
}

/// Incremental accumulator for one aggregate over one group.
#[derive(Debug, Clone)]
pub struct AggState {
    kind: AggregateKind,
    #[allow(dead_code)] // recorded for symmetry with the planner AggCall
    distinct: bool,
    seen: Option<HashSet<Value>>,
    count: i64,
    sum: Option<Value>,
    min: Option<Value>,
    max: Option<Value>,
    // Welford accumulators for STDDEV/VARIANCE.
    w_mean: f64,
    w_m2: f64,
}

impl AggState {
    /// Fresh accumulator.
    pub fn new(kind: AggregateKind, distinct: bool) -> AggState {
        AggState {
            kind,
            distinct,
            seen: if distinct { Some(HashSet::new()) } else { None },
            count: 0,
            sum: None,
            min: None,
            max: None,
            w_mean: 0.0,
            w_m2: 0.0,
        }
    }

    /// Feed one input value (`Null` for `COUNT(*)` rows is still counted;
    /// for every other aggregate NULLs are skipped per SQL).
    pub fn update(&mut self, v: &Value) -> Result<()> {
        if self.kind == AggregateKind::CountStar {
            self.count += 1;
            return Ok(());
        }
        if v.is_null() {
            return Ok(());
        }
        if let Some(seen) = &mut self.seen {
            if !seen.insert(v.clone()) {
                return Ok(());
            }
        }
        self.count += 1;
        match self.kind {
            AggregateKind::Count | AggregateKind::CountStar => {}
            AggregateKind::Sum | AggregateKind::Avg => {
                self.sum = Some(match self.sum.take() {
                    None => v.clone(),
                    Some(acc) => arithmetic(&acc, BinaryOp::Add, v)?,
                });
            }
            AggregateKind::Min => {
                let replace = match &self.min {
                    None => true,
                    Some(cur) => v.compare(cur)? == Some(std::cmp::Ordering::Less),
                };
                if replace {
                    self.min = Some(v.clone());
                }
            }
            AggregateKind::Max => {
                let replace = match &self.max {
                    None => true,
                    Some(cur) => v.compare(cur)? == Some(std::cmp::Ordering::Greater),
                };
                if replace {
                    self.max = Some(v.clone());
                }
            }
            AggregateKind::Stddev | AggregateKind::Variance => {
                let x = v.as_f64()?;
                let delta = x - self.w_mean;
                self.w_mean += delta / self.count as f64;
                self.w_m2 += delta * (x - self.w_mean);
            }
        }
        Ok(())
    }

    /// Typed fast path for a non-NULL value backed by an `i64` column
    /// vector: bit-identical to `update(&native(v))` but without the
    /// per-row `Value` construction and `arithmetic`/`compare` dispatch.
    /// `native` rebuilds the column's declared SQL value (`SmallInt`,
    /// `Int`, `BigInt`) and is only invoked off the hot path: the first
    /// value of an accumulator, a new MIN/MAX, DISTINCT, and the
    /// Welford kinds. Callers must pass `native` consistent with how the
    /// column's `get` would render the value, or results drift from the
    /// interpreter.
    #[inline]
    pub fn update_i64(&mut self, v: i64, native: impl Fn(i64) -> Value) -> Result<()> {
        if self.seen.is_some() {
            return self.update(&native(v));
        }
        match self.kind {
            AggregateKind::Stddev | AggregateKind::Variance => return self.update(&native(v)),
            AggregateKind::Count | AggregateKind::CountStar => {}
            AggregateKind::Sum | AggregateKind::Avg => match &mut self.sum {
                // After the first value, integer sums are always BigInt
                // (`arithmetic` promotes every integer result to BigInt).
                Some(Value::BigInt(acc)) => {
                    *acc = acc
                        .checked_add(v)
                        .ok_or_else(|| Error::Arithmetic("integer overflow".into()))?;
                }
                None => self.sum = Some(native(v)),
                Some(acc) => *acc = arithmetic(acc, BinaryOp::Add, &native(v))?,
            },
            AggregateKind::Min => match &mut self.min {
                Some(Value::BigInt(m)) => {
                    if v < *m {
                        *m = v;
                    }
                }
                Some(Value::Int(m)) => {
                    if v < i64::from(*m) {
                        self.min = Some(native(v));
                    }
                }
                Some(Value::SmallInt(m)) => {
                    if v < i64::from(*m) {
                        self.min = Some(native(v));
                    }
                }
                None => self.min = Some(native(v)),
                Some(cur) => {
                    let nv = native(v);
                    if nv.compare(cur)? == Some(std::cmp::Ordering::Less) {
                        *cur = nv;
                    }
                }
            },
            AggregateKind::Max => match &mut self.max {
                Some(Value::BigInt(m)) => {
                    if v > *m {
                        *m = v;
                    }
                }
                Some(Value::Int(m)) => {
                    if v > i64::from(*m) {
                        self.max = Some(native(v));
                    }
                }
                Some(Value::SmallInt(m)) => {
                    if v > i64::from(*m) {
                        self.max = Some(native(v));
                    }
                }
                None => self.max = Some(native(v)),
                Some(cur) => {
                    let nv = native(v);
                    if nv.compare(cur)? == Some(std::cmp::Ordering::Greater) {
                        *cur = nv;
                    }
                }
            },
        }
        self.count += 1;
        Ok(())
    }

    /// Typed fast path for a non-NULL `f64` value; see [`Self::update_i64`].
    /// Double sums accumulate in feed order (`a + b` per step), so the
    /// float result is bit-identical to the interpreter's, and MIN/MAX
    /// replacement uses the same strict partial order (`NaN` never
    /// replaces, matching `Value::compare` returning `None`).
    #[inline]
    pub fn update_f64(&mut self, v: f64) -> Result<()> {
        if self.seen.is_some() {
            return self.update(&Value::Double(v));
        }
        match self.kind {
            AggregateKind::Stddev | AggregateKind::Variance => return self.update(&Value::Double(v)),
            AggregateKind::Count | AggregateKind::CountStar => {}
            AggregateKind::Sum | AggregateKind::Avg => match &mut self.sum {
                Some(Value::Double(acc)) => *acc += v,
                None => self.sum = Some(Value::Double(v)),
                Some(acc) => *acc = arithmetic(acc, BinaryOp::Add, &Value::Double(v))?,
            },
            AggregateKind::Min => match &mut self.min {
                Some(Value::Double(m)) => {
                    if v < *m {
                        *m = v;
                    }
                }
                None => self.min = Some(Value::Double(v)),
                Some(cur) => {
                    let nv = Value::Double(v);
                    if nv.compare(cur)? == Some(std::cmp::Ordering::Less) {
                        *cur = nv;
                    }
                }
            },
            AggregateKind::Max => match &mut self.max {
                Some(Value::Double(m)) => {
                    if v > *m {
                        *m = v;
                    }
                }
                None => self.max = Some(Value::Double(v)),
                Some(cur) => {
                    let nv = Value::Double(v);
                    if nv.compare(cur)? == Some(std::cmp::Ordering::Greater) {
                        *cur = nv;
                    }
                }
            },
        }
        self.count += 1;
        Ok(())
    }

    /// Fold another accumulator of the same kind into this one, as if its
    /// inputs had been fed after ours. Parallel operators build per-worker
    /// partials and merge them in a fixed worker order, so results are
    /// deterministic for a given configuration (float sums may still differ
    /// from the serial feed order, which the engines already tolerate).
    pub fn merge(&mut self, other: &AggState) -> Result<()> {
        debug_assert_eq!(self.kind, other.kind);
        if let Some(theirs) = &other.seen {
            // DISTINCT: replay the other side's distinct values through
            // `update`, which dedups against our own `seen` set and keeps
            // every downstream accumulator consistent.
            for v in theirs {
                self.update(v)?;
            }
            return Ok(());
        }
        match self.kind {
            AggregateKind::CountStar | AggregateKind::Count => self.count += other.count,
            AggregateKind::Sum | AggregateKind::Avg => {
                self.count += other.count;
                self.sum = match (self.sum.take(), &other.sum) {
                    (None, None) => None,
                    (Some(a), None) => Some(a),
                    (None, Some(b)) => Some(b.clone()),
                    (Some(a), Some(b)) => Some(arithmetic(&a, BinaryOp::Add, b)?),
                };
            }
            AggregateKind::Min => {
                self.count += other.count;
                if let Some(v) = &other.min {
                    let replace = match &self.min {
                        None => true,
                        Some(cur) => v.compare(cur)? == Some(std::cmp::Ordering::Less),
                    };
                    if replace {
                        self.min = Some(v.clone());
                    }
                }
            }
            AggregateKind::Max => {
                self.count += other.count;
                if let Some(v) = &other.max {
                    let replace = match &self.max {
                        None => true,
                        Some(cur) => v.compare(cur)? == Some(std::cmp::Ordering::Greater),
                    };
                    if replace {
                        self.max = Some(v.clone());
                    }
                }
            }
            AggregateKind::Stddev | AggregateKind::Variance => {
                // Chan et al. parallel Welford combination.
                if other.count > 0 {
                    if self.count == 0 {
                        self.count = other.count;
                        self.w_mean = other.w_mean;
                        self.w_m2 = other.w_m2;
                    } else {
                        let (n1, n2) = (self.count as f64, other.count as f64);
                        let delta = other.w_mean - self.w_mean;
                        self.w_mean += delta * n2 / (n1 + n2);
                        self.w_m2 += other.w_m2 + delta * delta * n1 * n2 / (n1 + n2);
                        self.count += other.count;
                    }
                }
            }
        }
        Ok(())
    }

    /// Final aggregate value for the group.
    pub fn finish(&self) -> Result<Value> {
        Ok(match self.kind {
            AggregateKind::CountStar | AggregateKind::Count => Value::BigInt(self.count),
            AggregateKind::Sum => self.sum.clone().unwrap_or(Value::Null),
            AggregateKind::Avg => match &self.sum {
                None => Value::Null,
                Some(s) => {
                    // AVG is computed in floating point (DB2 computes DECIMAL
                    // division; DOUBLE keeps the engines simple and the
                    // analytics consumers numeric).
                    Value::Double(s.as_f64()? / self.count as f64)
                }
            },
            AggregateKind::Min => self.min.clone().unwrap_or(Value::Null),
            AggregateKind::Max => self.max.clone().unwrap_or(Value::Null),
            AggregateKind::Variance => {
                if self.count < 2 {
                    Value::Null
                } else {
                    Value::Double(self.w_m2 / (self.count as f64 - 1.0))
                }
            }
            AggregateKind::Stddev => {
                if self.count < 2 {
                    Value::Null
                } else {
                    Value::Double((self.w_m2 / (self.count as f64 - 1.0)).sqrt())
                }
            }
        })
    }

    /// The columns a partial state of `kind` ships as, in order: name and
    /// type, `None` standing for the aggregate argument's type (a wire frame
    /// keeps each value's own variant either way). A DISTINCT state ships
    /// its value set instead, one value per tuple.
    pub fn state_columns(
        kind: AggregateKind,
        distinct: bool,
    ) -> &'static [(&'static str, Option<DataType>)] {
        const COUNT: (&str, Option<DataType>) = ("COUNT", Some(DataType::BigInt));
        match kind {
            _ if distinct => &[("VALUE", None)],
            AggregateKind::CountStar | AggregateKind::Count => &[COUNT],
            AggregateKind::Sum | AggregateKind::Avg => &[("SUM", None), COUNT],
            AggregateKind::Min => &[("MIN", None)],
            AggregateKind::Max => &[("MAX", None)],
            AggregateKind::Stddev | AggregateKind::Variance => {
                &[COUNT, ("MEAN", Some(DataType::Double)), ("M2", Some(DataType::Double))]
            }
        }
    }

    /// This state as tuples in the layout of [`AggState::state_columns`]:
    /// one tuple holding the accumulator, or for a DISTINCT state one per
    /// value of its set in `cmp_total` order (one NULL for an empty set).
    /// Read back through [`AggState::read_columns`], the tuples merge into
    /// what this state holds.
    pub fn write_columns(&self) -> Vec<Vec<Value>> {
        if let Some(seen) = &self.seen {
            let mut values: Vec<Value> = seen.iter().cloned().collect();
            values.sort_by(Value::cmp_total);
            if values.is_empty() {
                values.push(Value::Null);
            }
            return values.into_iter().map(|v| vec![v]).collect();
        }
        let or_null = |v: &Option<Value>| v.clone().unwrap_or(Value::Null);
        let count = Value::BigInt(self.count);
        vec![match self.kind {
            AggregateKind::CountStar | AggregateKind::Count => vec![count],
            AggregateKind::Sum | AggregateKind::Avg => vec![or_null(&self.sum), count],
            AggregateKind::Min => vec![or_null(&self.min)],
            AggregateKind::Max => vec![or_null(&self.max)],
            AggregateKind::Stddev | AggregateKind::Variance => {
                vec![count, Value::Double(self.w_mean), Value::Double(self.w_m2)]
            }
        }]
    }

    /// The state one tuple of [`AggState::write_columns`] stands for; an
    /// all-NULL tuple is the empty state.
    pub fn read_columns(kind: AggregateKind, distinct: bool, cols: &[Value]) -> Result<AggState> {
        let mut state = AggState::new(kind, distinct);
        let width = || Error::internal(format!("a partial {kind:?} state of {} columns", cols.len()));
        if distinct {
            let [v] = cols else { return Err(width()) };
            state.update(v)?;
            return Ok(state);
        }
        let count = |v: &Value| if v.is_null() { Ok(0) } else { v.as_i64() };
        let float = |v: &Value| if v.is_null() { Ok(0.0) } else { v.as_f64() };
        let value = |v: &Value| (!v.is_null()).then(|| v.clone());
        match (kind, cols) {
            (AggregateKind::CountStar | AggregateKind::Count, [n]) => state.count = count(n)?,
            (AggregateKind::Sum | AggregateKind::Avg, [sum, n]) => {
                state.sum = value(sum);
                state.count = count(n)?;
            }
            (AggregateKind::Min, [v]) => state.min = value(v),
            (AggregateKind::Max, [v]) => state.max = value(v),
            (AggregateKind::Stddev | AggregateKind::Variance, [n, mean, m2]) => {
                state.count = count(n)?;
                state.w_mean = float(mean)?;
                state.w_m2 = float(m2)?;
            }
            _ => return Err(width()),
        }
        Ok(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_statement;
    use crate::Statement;

    fn expr(sql: &str) -> Expr {
        let s = parse_statement(&format!("SELECT {sql} FROM t")).unwrap();
        let Statement::Query(q) = s else { panic!() };
        let crate::SelectItem::Expr { expr, .. } = q.projection.into_iter().next().unwrap() else {
            panic!()
        };
        expr
    }

    fn eval_str(sql: &str, cols: &[(&str, Value)]) -> Result<Value> {
        let resolver = FlatResolver::new(
            cols.iter().map(|(n, _)| (None, n.to_string())).collect(),
        );
        let row: Vec<Value> = cols.iter().map(|(_, v)| v.clone()).collect();
        let bound = bind(&expr(sql), &resolver)?;
        eval(&bound, &row)
    }

    fn eval_const(sql: &str) -> Result<Value> {
        eval_str(sql, &[])
    }

    #[test]
    fn arithmetic_promotion() {
        assert_eq!(eval_const("1 + 2 * 3").unwrap(), Value::BigInt(7));
        assert_eq!(eval_const("1 + 2.5").unwrap().render(), "3.5");
        assert_eq!(eval_const("7 / 2").unwrap(), Value::BigInt(3));
        assert_eq!(eval_const("7.0E0 / 2").unwrap(), Value::Double(3.5));
        assert_eq!(eval_const("7 % 3").unwrap(), Value::BigInt(1));
    }

    #[test]
    fn division_by_zero() {
        assert!(matches!(eval_const("1 / 0"), Err(Error::Arithmetic(_))));
        assert!(matches!(eval_const("1.5 / 0.0"), Err(Error::Arithmetic(_))));
    }

    #[test]
    fn null_propagation() {
        assert!(eval_const("1 + NULL").unwrap().is_null());
        assert!(eval_const("NULL = NULL").unwrap().is_null());
        assert_eq!(eval_const("NULL IS NULL").unwrap(), Value::Boolean(true));
    }

    #[test]
    fn kleene_logic() {
        assert_eq!(eval_const("FALSE AND NULL").unwrap(), Value::Boolean(false));
        assert!(eval_const("TRUE AND NULL").unwrap().is_null());
        assert_eq!(eval_const("TRUE OR NULL").unwrap(), Value::Boolean(true));
        assert!(eval_const("FALSE OR NULL").unwrap().is_null());
        assert!(eval_const("NOT NULL").unwrap().is_null());
    }

    #[test]
    fn comparisons() {
        assert_eq!(eval_const("1 < 2").unwrap(), Value::Boolean(true));
        assert_eq!(eval_const("'abc' = 'abc'").unwrap(), Value::Boolean(true));
        assert_eq!(eval_const("2 >= 3").unwrap(), Value::Boolean(false));
    }

    #[test]
    fn in_list_three_valued() {
        assert_eq!(eval_const("2 IN (1, 2)").unwrap(), Value::Boolean(true));
        assert_eq!(eval_const("3 NOT IN (1, 2)").unwrap(), Value::Boolean(true));
        // Unknown when not found but NULL present.
        assert!(eval_const("3 IN (1, NULL)").unwrap().is_null());
        assert_eq!(eval_const("1 IN (1, NULL)").unwrap(), Value::Boolean(true));
    }

    #[test]
    fn between() {
        assert_eq!(eval_const("2 BETWEEN 1 AND 3").unwrap(), Value::Boolean(true));
        assert_eq!(eval_const("0 BETWEEN 1 AND 3").unwrap(), Value::Boolean(false));
        assert_eq!(eval_const("0 NOT BETWEEN 1 AND 3").unwrap(), Value::Boolean(true));
        assert!(eval_const("NULL BETWEEN 1 AND 3").unwrap().is_null());
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("hello", "h%o"));
        assert!(like_match("hello", "_ello"));
        assert!(like_match("hello", "%"));
        assert!(!like_match("hello", "h_o"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("a%b", "a%b"));
        assert_eq!(eval_const("'abcdef' LIKE 'abc%'").unwrap(), Value::Boolean(true));
    }

    #[test]
    fn case_forms() {
        assert_eq!(
            eval_const("CASE WHEN 1 > 2 THEN 'a' ELSE 'b' END").unwrap(),
            Value::Varchar("b".into())
        );
        assert_eq!(
            eval_const("CASE 2 WHEN 1 THEN 'one' WHEN 2 THEN 'two' END").unwrap(),
            Value::Varchar("two".into())
        );
        assert!(eval_const("CASE 9 WHEN 1 THEN 'one' END").unwrap().is_null());
    }

    #[test]
    fn scalar_functions() {
        assert_eq!(eval_const("ABS(-4)").unwrap(), Value::BigInt(4));
        assert_eq!(eval_const("UPPER('ab')").unwrap(), Value::Varchar("AB".into()));
        assert_eq!(eval_const("LENGTH('abc')").unwrap(), Value::Int(3));
        assert_eq!(eval_const("SUBSTR('hello', 2, 3)").unwrap(), Value::Varchar("ell".into()));
        assert_eq!(eval_const("SUBSTR('hello', 2)").unwrap(), Value::Varchar("ello".into()));
        assert_eq!(eval_const("COALESCE(NULL, NULL, 7)").unwrap(), Value::BigInt(7));
        assert_eq!(eval_const("MOD(7, 3)").unwrap(), Value::BigInt(1));
        assert_eq!(eval_const("SQRT(9)").unwrap(), Value::Double(3.0));
        assert_eq!(eval_const("ROUND(2.567E0, 1)").unwrap(), Value::Double(2.6));
        assert_eq!(eval_const("FLOOR(2.9)").unwrap(), Value::Double(2.0));
        assert_eq!(eval_const("YEAR(DATE '2016-03-15')").unwrap(), Value::Int(2016));
        assert_eq!(eval_const("MONTH(DATE '2016-03-15')").unwrap(), Value::Int(3));
        assert_eq!(eval_const("DAY(DATE '2016-03-15')").unwrap(), Value::Int(15));
    }

    #[test]
    fn functions_null_in_null_out() {
        assert!(eval_const("ABS(NULL)").unwrap().is_null());
        assert!(eval_const("UPPER(NULL)").unwrap().is_null());
    }

    #[test]
    fn unknown_function_errors() {
        assert!(matches!(eval_const("FROBNICATE(1)"), Err(Error::Unsupported(_))));
    }

    #[test]
    fn date_arithmetic() {
        assert_eq!(
            eval_const("DATE '2016-03-15' + 2").unwrap(),
            Value::Date(idaa_common::value::parse_date("2016-03-17").unwrap())
        );
        assert_eq!(
            eval_const("DATE '2016-03-15' - 15").unwrap(),
            Value::Date(idaa_common::value::parse_date("2016-02-29").unwrap())
        );
    }

    #[test]
    fn concat() {
        assert_eq!(eval_const("'a' || 'b' || 1").unwrap(), Value::Varchar("ab1".into()));
        assert!(eval_const("'a' || NULL").unwrap().is_null());
    }

    #[test]
    fn column_resolution() {
        let v = eval_str("a + b", &[("A", Value::Int(2)), ("B", Value::Int(3))]).unwrap();
        assert_eq!(v, Value::BigInt(5));
    }

    #[test]
    fn ambiguous_and_missing_columns() {
        let resolver =
            FlatResolver::new(vec![(Some("T1".into()), "X".into()), (Some("T2".into()), "X".into())]);
        assert!(matches!(
            resolver.resolve(None, "X"),
            Err(Error::UndefinedColumn(_))
        ));
        assert_eq!(resolver.resolve(Some("T2"), "X").unwrap(), 1);
        assert!(resolver.resolve(None, "Y").is_err());
    }

    #[test]
    fn predicate_null_is_false() {
        let resolver = FlatResolver::new(vec![(None, "A".into())]);
        let bound = bind(&expr("a > 5"), &resolver).unwrap();
        assert!(!eval_predicate(&bound, &[Value::Null]).unwrap());
        assert!(eval_predicate(&bound, &[Value::Int(9)]).unwrap());
    }

    #[test]
    fn binding_rejects_aggregates_and_parameters() {
        let resolver = FlatResolver::new(vec![(None, "A".into())]);
        assert!(bind(&expr("SUM(a)"), &resolver).is_err());
        assert!(bind(&Expr::Parameter(0), &resolver).is_err());
    }

    #[test]
    fn agg_count_and_sum() {
        let mut c = AggState::new(AggregateKind::CountStar, false);
        let mut s = AggState::new(AggregateKind::Sum, false);
        for v in [Value::Int(1), Value::Null, Value::Int(3)] {
            c.update(&v).unwrap();
            s.update(&v).unwrap();
        }
        assert_eq!(c.finish().unwrap(), Value::BigInt(3)); // COUNT(*) counts NULL rows
        assert_eq!(s.finish().unwrap(), Value::BigInt(4)); // SUM skips NULL
    }

    #[test]
    fn agg_count_skips_nulls() {
        let mut c = AggState::new(AggregateKind::Count, false);
        for v in [Value::Int(1), Value::Null, Value::Int(3)] {
            c.update(&v).unwrap();
        }
        assert_eq!(c.finish().unwrap(), Value::BigInt(2));
    }

    #[test]
    fn agg_min_max_avg() {
        let mut mn = AggState::new(AggregateKind::Min, false);
        let mut mx = AggState::new(AggregateKind::Max, false);
        let mut av = AggState::new(AggregateKind::Avg, false);
        for v in [Value::Int(4), Value::Int(1), Value::Int(7)] {
            mn.update(&v).unwrap();
            mx.update(&v).unwrap();
            av.update(&v).unwrap();
        }
        assert_eq!(mn.finish().unwrap(), Value::Int(1));
        assert_eq!(mx.finish().unwrap(), Value::Int(7));
        assert_eq!(av.finish().unwrap(), Value::Double(4.0));
    }

    #[test]
    fn agg_distinct() {
        let mut c = AggState::new(AggregateKind::Count, true);
        let mut s = AggState::new(AggregateKind::Sum, true);
        for v in [Value::Int(2), Value::Int(2), Value::Int(3)] {
            c.update(&v).unwrap();
            s.update(&v).unwrap();
        }
        assert_eq!(c.finish().unwrap(), Value::BigInt(2));
        assert_eq!(s.finish().unwrap(), Value::BigInt(5));
    }

    #[test]
    fn agg_stddev_variance() {
        let mut sd = AggState::new(AggregateKind::Stddev, false);
        let mut var = AggState::new(AggregateKind::Variance, false);
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            sd.update(&Value::Double(v)).unwrap();
            var.update(&Value::Double(v)).unwrap();
        }
        let Value::Double(v) = var.finish().unwrap() else { panic!() };
        assert!((v - 4.571428571428571).abs() < 1e-9);
        let Value::Double(s) = sd.finish().unwrap() else { panic!() };
        assert!((s - v.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn agg_empty_inputs() {
        assert_eq!(AggState::new(AggregateKind::CountStar, false).finish().unwrap(), Value::BigInt(0));
        assert!(AggState::new(AggregateKind::Sum, false).finish().unwrap().is_null());
        assert!(AggState::new(AggregateKind::Min, false).finish().unwrap().is_null());
        assert!(AggState::new(AggregateKind::Stddev, false).finish().unwrap().is_null());
    }

    #[test]
    fn aggregate_kind_mapping() {
        assert_eq!(AggregateKind::from_name("COUNT", false), Some(AggregateKind::CountStar));
        assert_eq!(AggregateKind::from_name("COUNT", true), Some(AggregateKind::Count));
        assert_eq!(AggregateKind::from_name("STDDEV", true), Some(AggregateKind::Stddev));
        assert_eq!(AggregateKind::from_name("NOPE", true), None);
    }
}
