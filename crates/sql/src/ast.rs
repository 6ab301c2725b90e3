//! Abstract syntax tree for the supported DB2-dialect subset, with
//! `Display` implementations that emit SQL which re-parses to the same AST.

use idaa_common::{DataType, ObjectName, Value};
use std::fmt;

/// A complete SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `CREATE TABLE name (cols…) [IN ACCELERATOR] [DISTRIBUTE BY HASH(col,…)]`
    CreateTable {
        name: ObjectName,
        columns: Vec<ColumnSpec>,
        /// The paper's AOT extension clause.
        in_accelerator: bool,
        /// Netezza-style distribution key for accelerator tables.
        distribute_by: Vec<String>,
    },
    /// `DROP TABLE name`
    DropTable { name: ObjectName },
    /// `CREATE INDEX name ON table (col, …)`
    CreateIndex { name: ObjectName, table: ObjectName, columns: Vec<String> },
    /// `INSERT INTO t [(cols)] VALUES … | SELECT …`
    Insert { table: ObjectName, columns: Vec<String>, source: InsertSource },
    /// `UPDATE t SET c = e, … [WHERE p]`
    Update { table: ObjectName, assignments: Vec<(String, Expr)>, filter: Option<Expr> },
    /// `DELETE FROM t [WHERE p]`
    Delete { table: ObjectName, filter: Option<Expr> },
    /// A `SELECT` query.
    Query(Box<Query>),
    /// `BEGIN`
    Begin,
    /// `COMMIT`
    Commit,
    /// `ROLLBACK`
    Rollback,
    /// `SET CURRENT QUERY ACCELERATION = …` (DB2 special register).
    SetQueryAcceleration(AccelerationMode),
    /// `SET CURRENT SCHEMA = name`
    SetCurrentSchema(String),
    /// `CALL proc(arg, …)` — stored procedures, including the IDAA system
    /// procedures and deployed analytics operations.
    Call { procedure: ObjectName, args: Vec<Expr> },
    /// `GRANT priv, … ON table TO user, …`
    Grant { privileges: Vec<Privilege>, object: ObjectName, grantees: Vec<String> },
    /// `REVOKE priv, … ON table FROM user, …`
    Revoke { privileges: Vec<Privilege>, object: ObjectName, grantees: Vec<String> },
    /// `EXPLAIN statement` — report the plan and routing decision without
    /// executing. With `analyze`, the statement *is* executed and the
    /// report appends the executed span tree (per-operator row counts and
    /// virtual-time costs).
    Explain { analyze: bool, stmt: Box<Statement> },
    /// `SHOW WORKLOAD` — the server's workload-manager view: one row per
    /// connected session (queued/running/done counts, queue time, bytes),
    /// rendered from the `server.*` metrics. Empty outside a server.
    ShowWorkload,
}

/// Column definition inside `CREATE TABLE`.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnSpec {
    pub name: String,
    pub data_type: DataType,
    pub not_null: bool,
}

/// Source of inserted rows.
#[derive(Debug, Clone, PartialEq)]
pub enum InsertSource {
    Values(Vec<Vec<Expr>>),
    Query(Box<Query>),
}

/// `CURRENT QUERY ACCELERATION` register values (DB2 for z/OS).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccelerationMode {
    /// Never offload.
    None,
    /// Offload when the optimizer deems it beneficial; run locally otherwise.
    Enable,
    /// Offload when possible; fail if the query references accelerated
    /// tables but cannot be offloaded.
    Eligible,
    /// Offload everything; fail any query that cannot be offloaded.
    All,
}

impl AccelerationMode {
    /// Parse a register value keyword.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_uppercase().as_str() {
            "NONE" => Some(Self::None),
            "ENABLE" => Some(Self::Enable),
            "ELIGIBLE" => Some(Self::Eligible),
            "ALL" => Some(Self::All),
            _ => None,
        }
    }
}

impl fmt::Display for AccelerationMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::None => write!(f, "NONE"),
            Self::Enable => write!(f, "ENABLE"),
            Self::Eligible => write!(f, "ELIGIBLE"),
            Self::All => write!(f, "ALL"),
        }
    }
}

/// Table privileges for `GRANT`/`REVOKE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Privilege {
    Select,
    Insert,
    Update,
    Delete,
    /// Required to `CALL` a procedure (`EXECUTE` privilege in DB2).
    Execute,
    /// All of the above.
    All,
}

impl Privilege {
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_uppercase().as_str() {
            "SELECT" => Some(Self::Select),
            "INSERT" => Some(Self::Insert),
            "UPDATE" => Some(Self::Update),
            "DELETE" => Some(Self::Delete),
            "EXECUTE" => Some(Self::Execute),
            "ALL" => Some(Self::All),
            _ => None,
        }
    }
}

impl fmt::Display for Privilege {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Select => write!(f, "SELECT"),
            Self::Insert => write!(f, "INSERT"),
            Self::Update => write!(f, "UPDATE"),
            Self::Delete => write!(f, "DELETE"),
            Self::Execute => write!(f, "EXECUTE"),
            Self::All => write!(f, "ALL"),
        }
    }
}

/// A `SELECT` query block, optionally combined with further blocks via
/// `UNION [ALL]`. `ORDER BY` and `LIMIT` on the outer query apply to the
/// whole union.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub distinct: bool,
    pub projection: Vec<SelectItem>,
    pub from: Option<TableRef>,
    pub filter: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub having: Option<Expr>,
    /// Further blocks combined with this one: `(all, block)` per
    /// `UNION [ALL]` arm. Inner blocks never carry ORDER BY/LIMIT/unions.
    pub unions: Vec<(bool, Query)>,
    pub order_by: Vec<OrderByItem>,
    pub limit: Option<u64>,
}

impl Query {
    /// An empty `SELECT` skeleton for programmatic construction.
    pub fn select(projection: Vec<SelectItem>) -> Self {
        Query {
            distinct: false,
            projection,
            from: None,
            filter: None,
            group_by: Vec::new(),
            having: None,
            unions: Vec::new(),
            order_by: Vec::new(),
            limit: None,
        }
    }
}

/// One item of the projection list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `t.*`
    QualifiedWildcard(String),
    /// `expr [AS alias]`
    Expr { expr: Expr, alias: Option<String> },
}

/// A table expression in `FROM`.
#[derive(Debug, Clone, PartialEq)]
pub enum TableRef {
    /// Base table with optional correlation name.
    Table { name: ObjectName, alias: Option<String> },
    /// Derived table: `(SELECT …) AS alias`.
    Subquery { query: Box<Query>, alias: String },
    /// Binary join.
    Join { left: Box<TableRef>, right: Box<TableRef>, kind: JoinKind, on: Expr },
}

/// Supported join kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    Inner,
    Left,
}

impl fmt::Display for JoinKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JoinKind::Inner => write!(f, "INNER JOIN"),
            JoinKind::Left => write!(f, "LEFT JOIN"),
        }
    }
}

/// `ORDER BY` element.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderByItem {
    pub expr: Expr,
    pub desc: bool,
}

/// Scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Literal constant.
    Literal(Value),
    /// Column reference, optionally qualified by table/alias.
    Column { qualifier: Option<String>, name: String },
    /// Binary operation.
    Binary { left: Box<Expr>, op: BinaryOp, right: Box<Expr> },
    /// Unary operation.
    Unary { op: UnaryOp, expr: Box<Expr> },
    /// Function call (scalar or aggregate; `COUNT(*)` is
    /// `Function { name: "COUNT", args: [], .. }`).
    Function { name: String, args: Vec<Expr>, distinct: bool },
    /// `expr IS [NOT] NULL`
    IsNull { expr: Box<Expr>, negated: bool },
    /// `expr [NOT] IN (v, …)`
    InList { expr: Box<Expr>, list: Vec<Expr>, negated: bool },
    /// `expr [NOT] BETWEEN low AND high`
    Between { expr: Box<Expr>, low: Box<Expr>, high: Box<Expr>, negated: bool },
    /// `expr [NOT] LIKE pattern`
    Like { expr: Box<Expr>, pattern: Box<Expr>, negated: bool },
    /// `CASE [operand] WHEN … THEN … [ELSE …] END`
    Case {
        operand: Option<Box<Expr>>,
        branches: Vec<(Expr, Expr)>,
        else_result: Option<Box<Expr>>,
    },
    /// `CAST(expr AS type)`
    Cast { expr: Box<Expr>, data_type: DataType },
    /// `?` host-variable style parameter marker (bound at execution).
    Parameter(usize),
}

impl Expr {
    /// Unqualified column reference.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column { qualifier: None, name: idaa_common::ident::normalize(&name.into()) }
    }

    /// Integer literal.
    pub fn int(v: i64) -> Expr {
        Expr::Literal(Value::BigInt(v))
    }

    /// String literal.
    pub fn str(v: impl Into<String>) -> Expr {
        Expr::Literal(Value::Varchar(v.into()))
    }

    /// `self = other`.
    pub fn eq(self, other: Expr) -> Expr {
        Expr::Binary { left: Box::new(self), op: BinaryOp::Eq, right: Box::new(other) }
    }

    /// `self AND other`.
    pub fn and(self, other: Expr) -> Expr {
        Expr::Binary { left: Box::new(self), op: BinaryOp::And, right: Box::new(other) }
    }

    /// True if the expression tree contains an aggregate function call.
    pub fn contains_aggregate(&self) -> bool {
        match self {
            Expr::Function { name, .. } if is_aggregate_name(name) => true,
            Expr::Function { args, .. } => args.iter().any(Expr::contains_aggregate),
            Expr::Binary { left, right, .. } => {
                left.contains_aggregate() || right.contains_aggregate()
            }
            Expr::Unary { expr, .. }
            | Expr::IsNull { expr, .. }
            | Expr::Cast { expr, .. } => expr.contains_aggregate(),
            Expr::InList { expr, list, .. } => {
                expr.contains_aggregate() || list.iter().any(Expr::contains_aggregate)
            }
            Expr::Between { expr, low, high, .. } => {
                expr.contains_aggregate() || low.contains_aggregate() || high.contains_aggregate()
            }
            Expr::Like { expr, pattern, .. } => {
                expr.contains_aggregate() || pattern.contains_aggregate()
            }
            Expr::Case { operand, branches, else_result } => {
                operand.as_ref().map(|e| e.contains_aggregate()).unwrap_or(false)
                    || branches
                        .iter()
                        .any(|(w, t)| w.contains_aggregate() || t.contains_aggregate())
                    || else_result.as_ref().map(|e| e.contains_aggregate()).unwrap_or(false)
            }
            Expr::Literal(_) | Expr::Column { .. } | Expr::Parameter(_) => false,
        }
    }
}

/// The aggregate function names the engines implement.
pub fn is_aggregate_name(name: &str) -> bool {
    matches!(name, "COUNT" | "SUM" | "AVG" | "MIN" | "MAX" | "STDDEV" | "VARIANCE")
}

/// Binary operators, grouped by precedence in the parser.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    Or,
    And,
    Eq,
    Neq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Concat,
}

impl fmt::Display for BinaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinaryOp::Or => "OR",
            BinaryOp::And => "AND",
            BinaryOp::Eq => "=",
            BinaryOp::Neq => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::LtEq => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::GtEq => ">=",
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Mod => "%",
            BinaryOp::Concat => "||",
        };
        write!(f, "{s}")
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    Not,
    Neg,
}

// ---------------------------------------------------------------------------
// Display: SQL generation. Expressions are printed fully parenthesized so the
// printed form unambiguously re-parses to the identical tree.
// ---------------------------------------------------------------------------

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Literal(Value::Varchar(s)) => write!(f, "'{}'", s.replace('\'', "''")),
            Expr::Literal(Value::Null) => write!(f, "NULL"),
            Expr::Literal(Value::Boolean(b)) => {
                write!(f, "{}", if *b { "TRUE" } else { "FALSE" })
            }
            Expr::Literal(Value::Date(d)) => {
                write!(f, "DATE '{}'", idaa_common::value::render_date(*d))
            }
            Expr::Literal(Value::Timestamp(t)) => {
                write!(f, "TIMESTAMP '{}'", idaa_common::value::render_timestamp(*t))
            }
            Expr::Literal(Value::Double(v)) => {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    write!(f, "{v:.1}E0")
                } else {
                    write!(f, "{v:E}")
                }
            }
            Expr::Literal(v) => write!(f, "{}", v.render()),
            Expr::Column { qualifier: Some(q), name } => write!(f, "{q}.{name}"),
            Expr::Column { qualifier: None, name } => write!(f, "{name}"),
            Expr::Binary { left, op, right } => write!(f, "({left} {op} {right})"),
            Expr::Unary { op: UnaryOp::Not, expr } => write!(f, "(NOT {expr})"),
            Expr::Unary { op: UnaryOp::Neg, expr } => write!(f, "(- {expr})"),
            Expr::Function { name, args, distinct } => {
                if name == "COUNT" && args.is_empty() {
                    return write!(f, "COUNT(*)");
                }
                write!(f, "{name}(")?;
                if *distinct {
                    write!(f, "DISTINCT ")?;
                }
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Expr::IsNull { expr, negated } => {
                write!(f, "({expr} IS {}NULL)", if *negated { "NOT " } else { "" })
            }
            Expr::InList { expr, list, negated } => {
                write!(f, "({expr} {}IN (", if *negated { "NOT " } else { "" })?;
                for (i, e) in list.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, "))")
            }
            Expr::Between { expr, low, high, negated } => write!(
                f,
                "({expr} {}BETWEEN {low} AND {high})",
                if *negated { "NOT " } else { "" }
            ),
            Expr::Like { expr, pattern, negated } => {
                write!(f, "({expr} {}LIKE {pattern})", if *negated { "NOT " } else { "" })
            }
            Expr::Case { operand, branches, else_result } => {
                write!(f, "CASE")?;
                if let Some(op) = operand {
                    write!(f, " {op}")?;
                }
                for (w, t) in branches {
                    write!(f, " WHEN {w} THEN {t}")?;
                }
                if let Some(e) = else_result {
                    write!(f, " ELSE {e}")?;
                }
                write!(f, " END")
            }
            Expr::Cast { expr, data_type } => write!(f, "CAST({expr} AS {data_type})"),
            Expr::Parameter(i) => write!(f, "?{i}"),
        }
    }
}

impl fmt::Display for SelectItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectItem::Wildcard => write!(f, "*"),
            SelectItem::QualifiedWildcard(q) => write!(f, "{q}.*"),
            SelectItem::Expr { expr, alias: Some(a) } => write!(f, "{expr} AS {a}"),
            SelectItem::Expr { expr, alias: None } => write!(f, "{expr}"),
        }
    }
}

impl fmt::Display for TableRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableRef::Table { name, alias: Some(a) } => write!(f, "{name} AS {a}"),
            TableRef::Table { name, alias: None } => write!(f, "{name}"),
            TableRef::Subquery { query, alias } => write!(f, "({query}) AS {alias}"),
            TableRef::Join { left, right, kind, on } => {
                write!(f, "{left} {kind} {right} ON {on}")
            }
        }
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT ")?;
        if self.distinct {
            write!(f, "DISTINCT ")?;
        }
        for (i, p) in self.projection.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        if let Some(from) = &self.from {
            write!(f, " FROM {from}")?;
        }
        if let Some(w) = &self.filter {
            write!(f, " WHERE {w}")?;
        }
        if !self.group_by.is_empty() {
            write!(f, " GROUP BY ")?;
            for (i, g) in self.group_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{g}")?;
            }
        }
        if let Some(h) = &self.having {
            write!(f, " HAVING {h}")?;
        }
        for (all, block) in &self.unions {
            write!(f, " UNION {}{block}", if *all { "ALL " } else { "" })?;
        }
        if !self.order_by.is_empty() {
            write!(f, " ORDER BY ")?;
            for (i, o) in self.order_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}{}", o.expr, if o.desc { " DESC" } else { "" })?;
            }
        }
        if let Some(l) = self.limit {
            write!(f, " LIMIT {l}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Statement::CreateTable { name, columns, in_accelerator, distribute_by } => {
                write!(f, "CREATE TABLE {name} (")?;
                for (i, c) in columns.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{} {}", c.name, c.data_type)?;
                    if c.not_null {
                        write!(f, " NOT NULL")?;
                    }
                }
                write!(f, ")")?;
                if *in_accelerator {
                    write!(f, " IN ACCELERATOR")?;
                }
                if !distribute_by.is_empty() {
                    write!(f, " DISTRIBUTE BY HASH({})", distribute_by.join(", "))?;
                }
                Ok(())
            }
            Statement::DropTable { name } => write!(f, "DROP TABLE {name}"),
            Statement::CreateIndex { name, table, columns } => {
                write!(f, "CREATE INDEX {name} ON {table} ({})", columns.join(", "))
            }
            Statement::Insert { table, columns, source } => {
                write!(f, "INSERT INTO {table}")?;
                if !columns.is_empty() {
                    write!(f, " ({})", columns.join(", "))?;
                }
                match source {
                    InsertSource::Values(rows) => {
                        write!(f, " VALUES ")?;
                        for (i, row) in rows.iter().enumerate() {
                            if i > 0 {
                                write!(f, ", ")?;
                            }
                            write!(f, "(")?;
                            for (j, e) in row.iter().enumerate() {
                                if j > 0 {
                                    write!(f, ", ")?;
                                }
                                write!(f, "{e}")?;
                            }
                            write!(f, ")")?;
                        }
                        Ok(())
                    }
                    InsertSource::Query(q) => write!(f, " {q}"),
                }
            }
            Statement::Update { table, assignments, filter } => {
                write!(f, "UPDATE {table} SET ")?;
                for (i, (c, e)) in assignments.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{c} = {e}")?;
                }
                if let Some(p) = filter {
                    write!(f, " WHERE {p}")?;
                }
                Ok(())
            }
            Statement::Delete { table, filter } => {
                write!(f, "DELETE FROM {table}")?;
                if let Some(p) = filter {
                    write!(f, " WHERE {p}")?;
                }
                Ok(())
            }
            Statement::Query(q) => write!(f, "{q}"),
            Statement::Begin => write!(f, "BEGIN"),
            Statement::Commit => write!(f, "COMMIT"),
            Statement::Rollback => write!(f, "ROLLBACK"),
            Statement::SetQueryAcceleration(m) => {
                write!(f, "SET CURRENT QUERY ACCELERATION = {m}")
            }
            Statement::SetCurrentSchema(s) => write!(f, "SET CURRENT SCHEMA = {s}"),
            Statement::Call { procedure, args } => {
                write!(f, "CALL {procedure}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Statement::Grant { privileges, object, grantees } => {
                write!(
                    f,
                    "GRANT {} ON {object} TO {}",
                    privileges.iter().map(|p| p.to_string()).collect::<Vec<_>>().join(", "),
                    grantees.join(", ")
                )
            }
            Statement::Revoke { privileges, object, grantees } => {
                write!(
                    f,
                    "REVOKE {} ON {object} FROM {}",
                    privileges.iter().map(|p| p.to_string()).collect::<Vec<_>>().join(", "),
                    grantees.join(", ")
                )
            }
            Statement::Explain { analyze, stmt } => {
                write!(f, "EXPLAIN {}{stmt}", if *analyze { "ANALYZE " } else { "" })
            }
            Statement::ShowWorkload => write!(f, "SHOW WORKLOAD"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_builders() {
        let e = Expr::col("a").eq(Expr::int(1)).and(Expr::col("b").eq(Expr::str("x")));
        assert_eq!(e.to_string(), "((A = 1) AND (B = 'x'))");
    }

    #[test]
    fn aggregate_detection() {
        let e = Expr::Function { name: "SUM".into(), args: vec![Expr::col("x")], distinct: false };
        assert!(e.contains_aggregate());
        let wrapped = Expr::Binary {
            left: Box::new(e),
            op: BinaryOp::Add,
            right: Box::new(Expr::int(1)),
        };
        assert!(wrapped.contains_aggregate());
        assert!(!Expr::col("x").contains_aggregate());
    }

    #[test]
    fn count_star_prints() {
        let e = Expr::Function { name: "COUNT".into(), args: vec![], distinct: false };
        assert_eq!(e.to_string(), "COUNT(*)");
    }

    #[test]
    fn string_literal_escapes() {
        let e = Expr::str("it's");
        assert_eq!(e.to_string(), "'it''s'");
    }

    #[test]
    fn create_table_in_accelerator_prints_clause() {
        let s = Statement::CreateTable {
            name: ObjectName::bare("T1"),
            columns: vec![ColumnSpec {
                name: "A".into(),
                data_type: DataType::Integer,
                not_null: true,
            }],
            in_accelerator: true,
            distribute_by: vec!["A".into()],
        };
        assert_eq!(
            s.to_string(),
            "CREATE TABLE T1 (A INTEGER NOT NULL) IN ACCELERATOR DISTRIBUTE BY HASH(A)"
        );
    }
}
