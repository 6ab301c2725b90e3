//! Scatter/gather over hash-sharded tables: where a plan is cut, what each
//! shard ships, and how the coordinator merges the shards' partials.
//!
//! The cut rule ([`cuts`]) is a pure function of a [`Plan`] and which tables
//! are sharded, so a shard and the coordinator planning the same statement
//! cut it alike: each sharded scan's cut walks up through row-local nodes —
//! `Filter`, `Project`, `KeepCols`, and a `Join` that keeps the shard's rows
//! (INNER, or the preserved side of a LEFT join) and whose other input holds
//! no sharded scan — and stops at the first blocking node:
//!
//! | cut         | a shard ships                          | the coordinator, in shard order |
//! |-------------|----------------------------------------|---------------------------------|
//! | `Aggregate` | its groups' unfinished `AggState`s     | `merge_groups`, `finish_groups` |
//! | `Distinct`  | its distinct rows                      | `dedup`                         |
//! | `Sort`      | its sorted run (top-K under a `Limit`) | `merge_runs`                    |
//! | `Limit`     | its first n rows                       | concatenates and truncates      |
//! | none        | its rows                               | concatenates                    |
//!
//! A `UNION` or a join that fails the test stops the walk below it: the
//! shards ship the rows of the child on the path (at worst the filtered,
//! projected scan). The coordinator runs the plan on the shared walk
//! (`idaa_sql::exec::run`), its source answering each cut with its merge.

use idaa_common::{ColumnDef, DataType, Error, ObjectName, Result, Row, Schema, Value};
use idaa_sql::ast::JoinKind;
use idaa_sql::eval::AggState;
use idaa_sql::exec::{dedup, finish_groups, merge_groups, merge_runs, Groups};
use idaa_sql::plan::{infer_type, Plan};

/// How the coordinator merges the shards' partials of a [`Cut`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Merge {
    Groups,
    Distinct,
    Run,
    Limit,
    Rows,
}

impl Merge {
    /// The value of a gather span's `merge` attribute.
    pub fn name(self) -> &'static str {
        match self {
            Merge::Groups => "groups",
            Merge::Distinct => "distinct",
            Merge::Run => "run",
            Merge::Limit => "limit",
            Merge::Rows => "rows",
        }
    }
}

/// Where a plan is cut for one sharded scan: the node each shard computes
/// over its shard, and how the coordinator merges what the shards ship.
#[derive(Debug)]
pub struct Cut<'p> {
    /// The node each shard computes; the coordinator answers it with the
    /// merged partial.
    pub node: &'p Plan,
    pub merge: Merge,
    /// The sharded table the cut's one scan reads, as the plan names it.
    pub table: &'p ObjectName,
    /// A `Limit` above a `Sort` cut (through `KeepCols`): each shard ships
    /// only its first `n` sorted rows.
    top_k: Option<u64>,
}

/// One cut per scan of a `sharded` table in `plan`, in plan pre-order (see
/// the module documentation). A plan with no sharded scan has none.
pub fn cuts<'p>(plan: &'p Plan, sharded: &dyn Fn(&ObjectName) -> bool) -> Vec<Cut<'p>> {
    let mut paths = Vec::new();
    sharded_paths(plan, sharded, &mut Vec::new(), &mut paths);
    let cut = |(path, table): &(Vec<&'p Plan>, &'p ObjectName)| {
        // Walk up from the scan, `at` indexing the current node.
        let mut at = path.len() - 1;
        let merge = loop {
            let Some(parent) = at.checked_sub(1).map(|i| path[i]) else { break Merge::Rows };
            let stop = match parent {
                Plan::Filter { .. } | Plan::Project { .. } | Plan::KeepCols { .. } => None,
                // A join keeping the shard's rows, if ours is its only sharded scan.
                Plan::Join { left, kind, .. }
                    if (*kind == JoinKind::Inner || std::ptr::eq(&**left, path[at]))
                        && parent.tables().iter().filter(|t| sharded(t)).count() == 1 => None,
                Plan::Aggregate { .. } => Some(Merge::Groups),
                Plan::Distinct { .. } => Some(Merge::Distinct),
                Plan::Sort { .. } => Some(Merge::Run),
                Plan::Limit { .. } => Some(Merge::Limit),
                Plan::Join { .. } | Plan::Union { .. } | Plan::Scan { .. } => break Merge::Rows,
            };
            at -= 1;
            if let Some(merge) = stop {
                break merge;
            }
        };
        let top_k = match path[..at].iter().rev().find(|p| !matches!(p, Plan::KeepCols { .. })) {
            Some(Plan::Limit { n, .. }) if merge == Merge::Run => Some(*n),
            _ => None,
        };
        Cut { node: path[at], merge, table, top_k }
    };
    paths.iter().map(cut).collect()
}

/// Each root-to-scan path of `plan` ending at a `sharded` table's scan, with that table.
fn sharded_paths<'p>(
    plan: &'p Plan,
    sharded: &dyn Fn(&ObjectName) -> bool,
    prefix: &mut Vec<&'p Plan>,
    out: &mut Vec<(Vec<&'p Plan>, &'p ObjectName)>,
) {
    prefix.push(plan);
    match plan {
        Plan::Scan { table, .. } if sharded(table) => out.push((prefix.clone(), table)),
        _ => plan.children().into_iter().for_each(|c| sharded_paths(c, sharded, prefix, out)),
    }
    prefix.pop();
}

impl Cut<'_> {
    /// The sub-plan a shard runs: the cut node, under its `Limit` when the
    /// shard ships a top-K run.
    pub(crate) fn shard_plan(&self) -> Plan {
        match self.top_k {
            Some(n) => Plan::Limit { input: Box::new(self.node.clone()), n },
            None => self.node.clone(),
        }
    }

    /// Merge the shards' partials (`parts`, in shard order) into the rows
    /// the cut node produces over the whole table.
    pub fn merge(&self, parts: Vec<Vec<Row>>) -> Result<Vec<Row>> {
        Ok(match (self.merge, self.node) {
            (Merge::Groups, Plan::Aggregate { group_exprs, aggs, .. }) => {
                let groups = read_groups(parts.concat(), group_exprs.len(), aggs)?;
                finish_groups(merge_groups(groups)?, !group_exprs.is_empty(), aggs)?
            }
            (Merge::Distinct, _) => dedup(parts.concat()),
            (Merge::Run, Plan::Sort { keys, .. }) => merge_runs(parts, keys),
            (Merge::Limit, Plan::Limit { n, .. }) => {
                let mut rows = parts.concat();
                rows.truncate(*n as usize);
                rows
            }
            (Merge::Rows, _) => parts.concat(),
            (merge, node) => {
                return Err(Error::internal(format!("a {} cut at {}", merge.name(), node.label())))
            }
        })
    }
}

/// A shard's partial groups as rows: the group key, then each aggregate's
/// [`AggState::write_columns`] tuple. A DISTINCT aggregate ships one value
/// of its set per row, so a group spans as many rows as its largest set,
/// the other aggregates shipping their empty (all-NULL) state on the extra
/// rows.
pub(crate) fn group_rows(groups: Groups) -> Vec<Row> {
    let mut out = Vec::with_capacity(groups.len());
    for (key, states) in groups {
        let tuples: Vec<Vec<Vec<Value>>> = states.iter().map(AggState::write_columns).collect();
        for i in 0..tuples.iter().map(Vec::len).max().unwrap_or(1) {
            let mut row = key.clone();
            for state in &tuples {
                match state.get(i) {
                    Some(cols) => row.extend_from_slice(cols),
                    None => {
                        let width = state.first().map_or(0, Vec::len);
                        row.extend(std::iter::repeat_n(Value::Null, width));
                    }
                }
            }
            out.push(row);
        }
    }
    out
}

/// The shards' partial group rows back as groups, one per row (in order),
/// for `merge_groups` to fold together.
fn read_groups(rows: Vec<Row>, keys: usize, aggs: &[idaa_sql::plan::AggCall]) -> Result<Vec<Groups>> {
    rows.into_iter()
        .map(|mut key| {
            let mut cols = key.split_off(keys.min(key.len())).into_iter();
            let states = aggs
                .iter()
                .map(|a| {
                    let width = AggState::state_columns(a.kind, a.distinct).len();
                    let tuple: Vec<Value> = cols.by_ref().take(width).collect();
                    AggState::read_columns(a.kind, a.distinct, &tuple)
                })
                .collect::<Result<_>>()?;
            Ok(vec![(key, states)])
        })
        .collect()
}

/// The schema of an `Aggregate` node's partial groups ([`group_rows`]).
pub(crate) fn groups_schema(plan: &Plan) -> Result<Schema> {
    let Plan::Aggregate { input, group_exprs, aggs, cols } = plan else {
        return Err(Error::internal(format!("{} has no partial groups", plan.label())));
    };
    let in_cols = input.cols();
    let mut defs: Vec<ColumnDef> = cols
        .iter()
        .take(group_exprs.len())
        .map(|c| ColumnDef::new(c.name.clone(), c.data_type))
        .collect();
    for (i, a) in aggs.iter().enumerate() {
        let arg = a.arg.as_ref().map_or(Ok(DataType::BigInt), |e| infer_type(e, &in_cols))?;
        for (name, t) in AggState::state_columns(a.kind, a.distinct) {
            defs.push(ColumnDef::new(format!("#AGG{i}.{name}"), t.unwrap_or(arg)));
        }
    }
    Ok(Schema::new_unchecked(defs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use idaa_sql::ast::Statement;
    use idaa_sql::eval::AggregateKind;
    use idaa_sql::plan::{plan_query, AggCall, SchemaProvider};

    /// `F` and `L` are sharded, `D` lives whole on every node.
    struct Tables;

    impl SchemaProvider for Tables {
        fn table_schema(&self, name: &ObjectName) -> Result<Schema> {
            let cols = match name.name.as_str() {
                "F" | "L" => vec![("A", DataType::BigInt), ("B", DataType::BigInt), ("G", DataType::Varchar(2))],
                "D" => vec![("A", DataType::BigInt), ("NAME", DataType::Varchar(2))],
                other => return Err(Error::UndefinedObject(other.into())),
            };
            Schema::new(cols.into_iter().map(|(n, t)| ColumnDef::new(n, t)).collect())
        }
    }

    /// The cuts of `sql`: each one's merge, and the first word of the cut
    /// node's and of the shard plan's labels.
    fn cuts_of(sql: &str) -> Vec<(Merge, String, String)> {
        let Ok(Statement::Query(q)) = idaa_sql::parse_statement(sql) else { panic!("{sql}") };
        let plan = plan_query(&q, &Tables).unwrap();
        let word = |p: &Plan| p.label().split(' ').next().unwrap_or_default().to_string();
        let cuts = cuts(&plan, &|t| t.name == "F" || t.name == "L");
        cuts.iter().map(|c| (c.merge, word(c.node), word(&c.shard_plan()))).collect()
    }

    #[test]
    fn cut_rule_stops_at_the_first_blocking_node() {
        let expect = |m: Merge, node: &str, shard: &str| vec![(m, node.to_string(), shard.to_string())];
        let grouped = "SELECT g, COUNT(*) FROM f GROUP BY g HAVING COUNT(*) > 1 ORDER BY g LIMIT 2";
        assert_eq!(cuts_of(grouped), expect(Merge::Groups, "AGGREGATE", "AGGREGATE"));
        let joined = "SELECT d.name, COUNT(*) FROM f JOIN d ON f.a = d.a GROUP BY d.name";
        assert_eq!(cuts_of(joined), expect(Merge::Groups, "AGGREGATE", "AGGREGATE"));
        let distinct = "SELECT DISTINCT g FROM f ORDER BY g";
        assert_eq!(cuts_of(distinct), expect(Merge::Distinct, "DISTINCT", "DISTINCT"));
        // The coordinator runs the aggregate above the cut.
        let nested = "SELECT COUNT(*) FROM (SELECT DISTINCT g FROM f) AS u";
        assert_eq!(cuts_of(nested), expect(Merge::Distinct, "DISTINCT", "DISTINCT"));
        assert_eq!(cuts_of("SELECT a FROM f ORDER BY a"), expect(Merge::Run, "SORT", "SORT"));
        // A limit above the sort (through the hidden-key KeepCols): top-K.
        let top_k = "SELECT a FROM f ORDER BY b LIMIT 3";
        assert_eq!(cuts_of(top_k), expect(Merge::Run, "SORT", "LIMIT"));
        assert_eq!(cuts_of("SELECT a FROM f LIMIT 3"), expect(Merge::Limit, "LIMIT", "LIMIT"));
        assert_eq!(cuts_of("SELECT a FROM f WHERE b > 1"), expect(Merge::Rows, "PROJECT", "PROJECT"));
        let preserved = "SELECT f.a, d.name FROM f LEFT JOIN d ON f.a = d.a";
        assert_eq!(cuts_of(preserved), expect(Merge::Rows, "PROJECT", "PROJECT"));
    }

    #[test]
    fn every_sharded_scan_gets_a_cut() {
        let rows = |node: &str| (Merge::Rows, node.to_string(), node.to_string());
        for (sql, expected) in [
            // The sharded scan on a LEFT join's null-supplying side.
            ("SELECT d.name, f.b FROM d LEFT JOIN f ON d.a = f.a", vec![rows("SCAN")]),
            // Two sharded scans under one join: each stops below it.
            ("SELECT x.a FROM f AS x JOIN f AS y ON x.a = y.a", vec![rows("SCAN"), rows("SCAN")]),
            (
                "SELECT x.a FROM (SELECT a FROM f WHERE b > 1) AS x \
                 JOIN (SELECT a FROM l WHERE b < 5) AS y ON x.a = y.a",
                vec![rows("PROJECT"), rows("PROJECT")],
            ),
            // Under a UNION, in either arm.
            ("SELECT a FROM f WHERE b > 1 UNION SELECT a FROM d", vec![rows("PROJECT")]),
            ("SELECT a FROM d UNION ALL SELECT a FROM l", vec![rows("PROJECT")]),
            // A join above the cut.
            (
                "SELECT u.g, d.name FROM (SELECT g, COUNT(*) AS n FROM f GROUP BY g) AS u \
                 JOIN d ON u.n = d.a",
                vec![(Merge::Groups, "AGGREGATE".into(), "AGGREGATE".into())],
            ),
            // No sharded scan at all.
            ("SELECT a FROM d", vec![]),
        ] {
            assert_eq!(cuts_of(sql), expected, "{sql}");
        }
    }

    #[test]
    fn partial_groups_merge_like_the_states_they_carry() {
        let agg = |kind, distinct| AggCall { kind, arg: None, distinct };
        let aggs = [
            agg(AggregateKind::CountStar, false),
            agg(AggregateKind::Sum, false),
            agg(AggregateKind::Avg, false),
            agg(AggregateKind::Min, false),
            agg(AggregateKind::Max, false),
            agg(AggregateKind::Count, true),
        ];
        let group = |key: &str, vals: &[i64]| {
            let states = aggs
                .iter()
                .map(|a| {
                    let mut s = AggState::new(a.kind, a.distinct);
                    vals.iter().for_each(|v| s.update(&Value::BigInt(*v)).unwrap());
                    s
                })
                .collect();
            (vec![Value::Varchar(key.into())], states)
        };
        let shard0 = group_rows(vec![group("x", &[1, 2, 2])]);
        assert_eq!(shard0.len(), 2, "a DISTINCT set of two spans two rows");
        let shard1 = group_rows(vec![group("x", &[2, 5]), group("y", &[7]), group("z", &[])]);
        let parts = read_groups([shard0, shard1].concat(), 1, &aggs).unwrap();
        let merged = finish_groups(merge_groups(parts).unwrap(), true, &aggs).unwrap();
        let whole = vec![group("x", &[1, 2, 2, 2, 5]), group("y", &[7]), group("z", &[])];
        assert_eq!(merged, finish_groups(whole, true, &aggs).unwrap());
    }
}
