//! Property-based tests over the core invariants:
//!
//! * the SQL pretty-printer and parser are inverses on random ASTs;
//! * `LIKE` matching agrees with an independent DP oracle;
//! * decimal arithmetic laws;
//! * `Value` ordering/hashing consistency;
//! * zone-map pruning never changes query answers;
//! * host and accelerator engines agree on random data;
//! * accelerator UPDATE/DELETE victim selection matches the interpreted
//!   `SELECT` and the host, own in-flight changes included;
//! * random committed DML streams keep the replica convergent;
//! * commit-log replay is idempotent: any restart schedule rebuilds
//!   byte-identical engine state — including under torn-write and bit-rot
//!   schedules, where recovery either converges or fails with the same
//!   deterministic `storage_corrupt` verdict on every attempt;
//! * a checkpoint re-encodes exactly the slices whose rows changed, and
//!   every frame it keeps equals a fresh encoding.

use idaa::accel::Snapshot;
use idaa::sql::ast::*;
use idaa::sql::{parse_statement, Statement};
use idaa::{DataType, Decimal, FleetConfig, Idaa, IdaaConfig, ObjectName, Value, SYSADM};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

fn arb_ident() -> impl Strategy<Value = String> {
    // C-prefixed identifiers can never collide with keywords.
    "[C][0-9]{1,3}".prop_map(|s| s)
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Boolean),
        (-1_000_000i64..1_000_000).prop_map(Value::BigInt),
        (-1e9f64..1e9)
            .prop_filter("finite", |v| v.is_finite())
            .prop_map(Value::Double),
        (-10_000i64..10_000, 0u8..4).prop_map(|(units, scale)| {
            Value::Decimal(Decimal::new(units as i128, scale))
        }),
        "[a-z ]{0,8}".prop_map(Value::Varchar),
        (-3000i32..30000).prop_map(Value::Date),
    ]
}

fn arb_data_type() -> impl Strategy<Value = DataType> {
    prop_oneof![
        Just(DataType::SmallInt),
        Just(DataType::Integer),
        Just(DataType::BigInt),
        Just(DataType::Double),
        (1u8..18, 0u8..5).prop_map(|(p, s)| DataType::Decimal(p.max(s + 1), s)),
        (1u16..200).prop_map(DataType::Varchar),
        (1u16..20).prop_map(DataType::Char),
        Just(DataType::Date),
        Just(DataType::Timestamp),
        Just(DataType::Boolean),
    ]
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        arb_value().prop_map(Expr::Literal),
        arb_ident().prop_map(|name| Expr::Column { qualifier: None, name }),
        (arb_ident(), arb_ident())
            .prop_map(|(q, name)| Expr::Column { qualifier: Some(q), name }),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone(), prop_oneof![
                Just(BinaryOp::Add), Just(BinaryOp::Sub), Just(BinaryOp::Mul),
                Just(BinaryOp::Div), Just(BinaryOp::Mod), Just(BinaryOp::Eq),
                Just(BinaryOp::Neq), Just(BinaryOp::Lt), Just(BinaryOp::LtEq),
                Just(BinaryOp::Gt), Just(BinaryOp::GtEq), Just(BinaryOp::And),
                Just(BinaryOp::Or), Just(BinaryOp::Concat),
            ])
                .prop_map(|(l, r, op)| Expr::Binary {
                    left: Box::new(l),
                    op,
                    right: Box::new(r)
                }),
            // NOT over anything; unary minus only over columns (the parser
            // folds -literal into the literal).
            inner.clone().prop_map(|e| Expr::Unary { op: UnaryOp::Not, expr: Box::new(e) }),
            arb_ident().prop_map(|name| Expr::Unary {
                op: UnaryOp::Neg,
                expr: Box::new(Expr::Column { qualifier: None, name })
            }),
            (arb_ident(), proptest::collection::vec(inner.clone(), 0..3))
                .prop_map(|(name, args)| {
                    // COUNT() would print as COUNT(*); keep generated
                    // functions distinct from the aggregate namespace.
                    Expr::Function { name: format!("F{name}"), args, distinct: false }
                }),
            (inner.clone(), any::<bool>()).prop_map(|(e, negated)| Expr::IsNull {
                expr: Box::new(e),
                negated
            }),
            (inner.clone(), proptest::collection::vec(inner.clone(), 1..4), any::<bool>())
                .prop_map(|(e, list, negated)| Expr::InList {
                    expr: Box::new(e),
                    list,
                    negated
                }),
            (inner.clone(), inner.clone(), inner.clone(), any::<bool>()).prop_map(
                |(e, lo, hi, negated)| Expr::Between {
                    expr: Box::new(e),
                    low: Box::new(lo),
                    high: Box::new(hi),
                    negated
                }
            ),
            (inner.clone(), "[a-z%_]{0,6}", any::<bool>()).prop_map(|(e, pat, negated)| {
                Expr::Like {
                    expr: Box::new(e),
                    pattern: Box::new(Expr::Literal(Value::Varchar(pat))),
                    negated,
                }
            }),
            (
                proptest::option::of(inner.clone()),
                proptest::collection::vec((inner.clone(), inner.clone()), 1..3),
                proptest::option::of(inner.clone())
            )
                .prop_map(|(operand, branches, else_result)| Expr::Case {
                    operand: operand.map(Box::new),
                    branches,
                    else_result: else_result.map(Box::new),
                }),
            (inner, arb_data_type()).prop_map(|(e, data_type)| Expr::Cast {
                expr: Box::new(e),
                data_type
            }),
        ]
    })
}

fn arb_query_block() -> impl Strategy<Value = Query> {
    (
        any::<bool>(),
        proptest::collection::vec(
            (arb_expr(), proptest::option::of(arb_ident())),
            1..4,
        ),
        proptest::option::of((arb_ident(), proptest::option::of(arb_ident()))),
        proptest::option::of(arb_expr()),
        proptest::collection::vec(arb_expr(), 0..3),
        proptest::option::of(arb_expr()),
        proptest::collection::vec((arb_expr(), any::<bool>()), 0..3),
        proptest::option::of(0u64..1000),
    )
        .prop_map(
            |(distinct, proj, from, filter, group_by, having, order_by, limit)| Query {
                unions: Vec::new(),
                distinct,
                projection: proj
                    .into_iter()
                    .map(|(expr, alias)| SelectItem::Expr { expr, alias })
                    .collect(),
                from: from.map(|(name, alias)| TableRef::Table {
                    name: ObjectName::bare(name),
                    alias,
                }),
                filter,
                group_by,
                having,
                order_by: order_by
                    .into_iter()
                    .map(|(expr, desc)| OrderByItem { expr, desc })
                    .collect(),
                limit,
            },
        )
}

fn arb_query() -> impl Strategy<Value = Query> {
    // Optionally chain UNION blocks (blocks carry no ORDER BY/LIMIT; the
    // outer query's ORDER BY must be output-resolvable, so strip it when a
    // union is attached to keep generated queries plan-valid in shape).
    (
        arb_query_block(),
        proptest::collection::vec((any::<bool>(), arb_query_block()), 0..3),
    )
        .prop_map(|(mut q, unions)| {
            if !unions.is_empty() {
                q.unions = unions
                    .into_iter()
                    .map(|(all, mut b)| {
                        b.order_by = Vec::new();
                        b.limit = None;
                        b.unions = Vec::new();
                        (all, b)
                    })
                    .collect();
                q.order_by = Vec::new();
            }
            q
        })
}

/// Rows in a canonical order, for comparing results as multisets.
fn sorted(mut rows: Vec<idaa::Row>) -> Vec<idaa::Row> {
    rows.sort_by(|a, b| {
        a.iter()
            .zip(b)
            .map(|(x, y)| x.cmp_total(y))
            .find(|o| *o != std::cmp::Ordering::Equal)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    rows
}

// ---------------------------------------------------------------------------
// Parser round trips
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn printed_queries_reparse_identically(q in arb_query()) {
        let stmt = Statement::Query(Box::new(q));
        let printed = stmt.to_string();
        let reparsed = parse_statement(&printed)
            .unwrap_or_else(|e| panic!("failed to reparse `{printed}`: {e}"));
        prop_assert_eq!(stmt, reparsed);
    }

    #[test]
    fn printed_dml_reparses(
        table in arb_ident(),
        cols in proptest::collection::vec(arb_ident(), 1..4),
        exprs in proptest::collection::vec(arb_expr(), 1..4),
        filter in proptest::option::of(arb_expr()),
    ) {
        let n = cols.len().min(exprs.len());
        let insert = Statement::Insert {
            table: ObjectName::bare(&table),
            columns: cols[..n].to_vec(),
            source: InsertSource::Values(vec![exprs[..n].to_vec()]),
        };
        let printed = insert.to_string();
        prop_assert_eq!(insert, parse_statement(&printed).unwrap());

        let update = Statement::Update {
            table: ObjectName::bare(&table),
            assignments: cols[..n].iter().cloned().zip(exprs[..n].iter().cloned()).collect(),
            filter: filter.clone(),
        };
        let printed = update.to_string();
        prop_assert_eq!(update, parse_statement(&printed).unwrap());

        let delete = Statement::Delete { table: ObjectName::bare(&table), filter };
        let printed = delete.to_string();
        prop_assert_eq!(delete, parse_statement(&printed).unwrap());
    }

    #[test]
    fn printed_ddl_reparses(
        table in arb_ident(),
        cols in proptest::collection::vec((arb_ident(), arb_data_type(), any::<bool>()), 1..5),
        in_accel in any::<bool>(),
    ) {
        let mut seen = std::collections::HashSet::new();
        let columns: Vec<ColumnSpec> = cols
            .into_iter()
            .filter(|(n, _, _)| seen.insert(n.clone()))
            .map(|(name, data_type, not_null)| ColumnSpec { name, data_type, not_null })
            .collect();
        let dist = if in_accel { vec![columns[0].name.clone()] } else { vec![] };
        let stmt = Statement::CreateTable {
            name: ObjectName::bare(&table),
            columns,
            in_accelerator: in_accel,
            distribute_by: dist,
        };
        let printed = stmt.to_string();
        prop_assert_eq!(stmt, parse_statement(&printed).unwrap());
    }
}

// ---------------------------------------------------------------------------
// LIKE oracle
// ---------------------------------------------------------------------------

/// Independent O(n·m) dynamic-programming LIKE implementation.
fn like_oracle(text: &str, pattern: &str) -> bool {
    let t: Vec<char> = text.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    let mut dp = vec![vec![false; p.len() + 1]; t.len() + 1];
    dp[0][0] = true;
    for j in 1..=p.len() {
        dp[0][j] = p[j - 1] == '%' && dp[0][j - 1];
    }
    for i in 1..=t.len() {
        for j in 1..=p.len() {
            dp[i][j] = match p[j - 1] {
                '%' => dp[i - 1][j] || dp[i][j - 1],
                '_' => dp[i - 1][j - 1],
                c => c == t[i - 1] && dp[i - 1][j - 1],
            };
        }
    }
    dp[t.len()][p.len()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn like_agrees_with_oracle(text in "[ab]{0,8}", pattern in "[ab%_]{0,6}") {
        prop_assert_eq!(
            idaa::sql::eval::like_match(&text, &pattern),
            like_oracle(&text, &pattern),
            "text={:?} pattern={:?}", text, pattern
        );
    }
}

// ---------------------------------------------------------------------------
// Decimal laws
// ---------------------------------------------------------------------------

fn arb_decimal() -> impl Strategy<Value = Decimal> {
    (-1_000_000i64..1_000_000, 0u8..6).prop_map(|(u, s)| Decimal::new(u as i128, s))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn decimal_display_parse_roundtrip(d in arb_decimal()) {
        let printed = d.to_string();
        let back = Decimal::parse(&printed).unwrap();
        prop_assert_eq!(d.compare(&back), std::cmp::Ordering::Equal);
        prop_assert_eq!(back.to_string(), printed);
    }

    #[test]
    fn decimal_addition_commutes_and_sub_inverts(a in arb_decimal(), b in arb_decimal()) {
        let ab = a.add(&b).unwrap();
        let ba = b.add(&a).unwrap();
        prop_assert_eq!(ab.compare(&ba), std::cmp::Ordering::Equal);
        let back = ab.sub(&b).unwrap();
        prop_assert_eq!(back.compare(&a), std::cmp::Ordering::Equal);
    }

    #[test]
    fn decimal_order_matches_f64(a in arb_decimal(), b in arb_decimal()) {
        // Within these magnitudes f64 is exact enough to be an oracle.
        let expect = a.to_f64().partial_cmp(&b.to_f64()).unwrap();
        prop_assert_eq!(a.compare(&b), expect);
    }

    #[test]
    fn value_group_eq_implies_hash_eq(a in arb_value(), b in arb_value()) {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |v: &Value| {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        if a.group_eq(&b) {
            prop_assert_eq!(h(&a), h(&b), "equal values must hash equally: {} vs {}", a, b);
        }
    }

    #[test]
    fn value_total_order_is_antisymmetric(a in arb_value(), b in arb_value()) {
        let ab = a.cmp_total(&b);
        let ba = b.cmp_total(&a);
        prop_assert_eq!(ab, ba.reverse());
    }

    #[test]
    fn value_total_order_is_transitive(a in arb_value(), b in arb_value(), c in arb_value()) {
        use std::cmp::Ordering::*;
        let (ab, bc, ac) = (a.cmp_total(&b), b.cmp_total(&c), a.cmp_total(&c));
        if ab != Greater && bc != Greater {
            prop_assert_ne!(ac, Greater, "a={} b={} c={}", a, b, c);
        }
    }
}

// ---------------------------------------------------------------------------
// Zone maps and engine equivalence
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn zone_map_pruning_never_changes_answers(
        rows in proptest::collection::vec((-5000i64..5000, -100i64..100), 100..400),
        threshold in -5000i64..5000,
    ) {
        use idaa::accel::{AccelConfig, AccelEngine};
        use idaa::common::{ColumnDef, Schema};
        let schema = Schema::new(vec![
            ColumnDef::new("A", DataType::BigInt),
            ColumnDef::new("B", DataType::BigInt),
        ]).unwrap();
        let data: Vec<idaa::Row> = rows
            .iter()
            .map(|(a, b)| vec![Value::BigInt(*a), Value::BigInt(*b)])
            .collect();
        let mut results = Vec::new();
        for zone_maps in [true, false] {
            let engine = AccelEngine::new("APP", AccelConfig { slices: 2, zone_maps, parallel: false, parallelism: 0 });
            engine.create_table(&ObjectName::bare("T"), schema.clone(), &[]).unwrap();
            engine.load_committed(1, &ObjectName::bare("T"), data.clone(), 1).unwrap();
            let Statement::Query(q) = parse_statement(
                &format!("SELECT COUNT(*), SUM(b) FROM t WHERE a < {threshold}")
            ).unwrap() else { unreachable!() };
            results.push(engine.query(0, &q).unwrap().rows);
        }
        prop_assert_eq!(&results[0], &results[1]);
    }

    #[test]
    fn engines_agree_on_random_data(
        rows in proptest::collection::vec(
            (0i64..1000, 0i64..50, "[a-c]{1}"),
            50..200,
        ),
    ) {
        let idaa = Idaa::default();
        let mut s = idaa.session(SYSADM);
        idaa.execute(&mut s, "CREATE TABLE T (A BIGINT, B BIGINT, G VARCHAR(2))").unwrap();
        let vals: Vec<String> = rows
            .iter()
            .map(|(a, b, g)| format!("({a}, {b}, '{g}')"))
            .collect();
        for chunk in vals.chunks(200) {
            idaa.execute(&mut s, &format!("INSERT INTO T VALUES {}", chunk.join(", "))).unwrap();
        }
        // A few NULL-bearing rows so IS [NOT] NULL predicates and NULL-
        // skipping aggregates have something to disagree about.
        idaa.execute(
            &mut s,
            "INSERT INTO T VALUES (1, NULL, NULL), (NULL, 5, 'a'), (500, NULL, 'b'), (NULL, NULL, NULL)",
        ).unwrap();
        idaa.execute(&mut s, "CALL ACCEL_ADD_TABLES('T')").unwrap();
        idaa.execute(&mut s, "CALL ACCEL_LOAD_TABLES('T')").unwrap();
        for q in [
            "SELECT COUNT(*) FROM t WHERE a BETWEEN 100 AND 700",
            "SELECT g, COUNT(*), SUM(a), MIN(b), MAX(b) FROM t GROUP BY g ORDER BY g",
            "SELECT a, b FROM t WHERE b = 7 ORDER BY a, b",
            "SELECT COUNT(DISTINCT b) FROM t WHERE g <> 'a'",
            "SELECT a FROM t WHERE g = 'a' UNION SELECT b FROM t WHERE g = 'b' ORDER BY 1",
            "SELECT a FROM t UNION ALL SELECT a FROM t ORDER BY 1 LIMIT 50",
            // Join-heavy: equi self-join with single-sided WHERE conjuncts
            // (exercises the filter-below-join rewrite on both executors).
            "SELECT x.a, y.b FROM t AS x INNER JOIN t AS y ON x.a = y.a \
             WHERE x.g = 'a' AND y.b < 25 ORDER BY x.a, y.b",
            "SELECT x.g, COUNT(*) FROM t AS x LEFT JOIN t AS y ON x.b = y.a \
             GROUP BY x.g ORDER BY x.g",
            "SELECT x.a, y.a FROM t AS x INNER JOIN t AS y ON x.b = y.b AND x.g = y.g \
             WHERE x.a < y.a ORDER BY x.a, y.a LIMIT 40",
            "SELECT a + b, g FROM t WHERE a + b > 500 ORDER BY 1, 2 LIMIT 30",
            "SELECT b, MAX(a) FROM t WHERE g BETWEEN 'a' AND 'b' GROUP BY b \
             HAVING MAX(a) > 100 ORDER BY b",
            "SELECT x.g, SUM(y.b) FROM t AS x INNER JOIN t AS y ON x.a = y.a \
             GROUP BY x.g ORDER BY x.g",
            // Vectorized-kernel shapes: IS [NOT] NULL, string inequality,
            // multi-conjunct numeric ranges, and agg-over-filtered-scan.
            "SELECT COUNT(*) FROM t WHERE b IS NULL",
            "SELECT a, b FROM t WHERE b IS NOT NULL AND g IS NULL ORDER BY a, b",
            "SELECT a, g FROM t WHERE g <> 'b' ORDER BY a, g LIMIT 40",
            "SELECT COUNT(*), MIN(a), MAX(a) FROM t WHERE a NOT BETWEEN 200 AND 800",
            "SELECT g, COUNT(*), SUM(b) FROM t \
             WHERE a BETWEEN 50 AND 950 AND b BETWEEN 5 AND 45 GROUP BY g ORDER BY g",
            "SELECT COUNT(*), SUM(a) FROM t \
             WHERE a >= 100 AND a < 900 AND b <> 13 AND g IS NOT NULL",
            // Typed string-key joins (dictionary-code probes on the
            // accelerator) and string-key join under aggregation.
            "SELECT x.a, y.b FROM t AS x INNER JOIN t AS y ON x.g = y.g \
             WHERE x.a < 100 AND y.b < 10 ORDER BY x.a, y.b LIMIT 60",
            "SELECT x.g, SUM(y.a) FROM t AS x INNER JOIN t AS y ON x.g = y.g \
             GROUP BY x.g ORDER BY x.g",
            // LEFT join with string keys: NULL G rows must null-extend
            // identically on both engines.
            "SELECT x.a, y.a FROM t AS x LEFT JOIN t AS y ON x.g = y.g \
             WHERE x.a > 900 ORDER BY x.a, y.a LIMIT 60",
        ] {
            idaa.execute(&mut s, "SET CURRENT QUERY ACCELERATION = NONE").unwrap();
            let host = idaa.query(&mut s, q).unwrap();
            idaa.execute(&mut s, "SET CURRENT QUERY ACCELERATION = ELIGIBLE").unwrap();
            let accel = idaa.query(&mut s, q).unwrap();
            prop_assert_eq!(host.rows, accel.rows, "disagreement on {}", q);
        }
    }

    /// Every statement trace is structurally well formed (well nested,
    /// monotone virtual timestamps, children contained in parents), and two
    /// runs of the same workload on fresh systems render byte-identical
    /// span trees — the trace layer is as deterministic as the link it
    /// observes.
    #[test]
    fn traces_are_well_formed_and_deterministic(
        rows in proptest::collection::vec(
            (0i64..1000, 0i64..50, "[a-c]{1}"),
            40..120,
        ),
    ) {
        let run = |rows: &[(i64, i64, String)]| -> Vec<idaa::StatementTrace> {
            let idaa = Idaa::default();
            let mut s = idaa.session(SYSADM);
            idaa.execute(&mut s, "CREATE TABLE T (A BIGINT, B BIGINT, G VARCHAR(2))").unwrap();
            let vals: Vec<String> = rows
                .iter()
                .map(|(a, b, g)| format!("({a}, {b}, '{g}')"))
                .collect();
            idaa.execute(&mut s, &format!("INSERT INTO T VALUES {}", vals.join(", "))).unwrap();
            idaa.execute(&mut s, "CALL ACCEL_ADD_TABLES('T')").unwrap();
            idaa.execute(&mut s, "CALL ACCEL_LOAD_TABLES('T')").unwrap();
            idaa.execute(&mut s, "SET CURRENT QUERY ACCELERATION = ELIGIBLE").unwrap();
            idaa.execute(&mut s, "CREATE TABLE STAGE (G VARCHAR(2), N BIGINT) IN ACCELERATOR")
                .unwrap();
            idaa.execute(
                &mut s,
                "INSERT INTO STAGE SELECT g, COUNT(*) FROM T GROUP BY g",
            ).unwrap();
            idaa.query(&mut s, "SELECT g, COUNT(*), SUM(a) FROM t GROUP BY g ORDER BY g").unwrap();
            idaa.query(&mut s, "SELECT g, n FROM stage ORDER BY g").unwrap();
            // An error-path statement must leave a well-formed trace too.
            let _ = idaa.query(&mut s, "SELECT nope FROM t");
            idaa.tracer().statements()
        };
        let first = run(&rows);
        let second = run(&rows);
        prop_assert!(!first.is_empty());
        for trace in first.iter().chain(second.iter()) {
            if let Err(e) = trace.root.validate() {
                prop_assert!(false, "malformed trace: {}", e);
            }
            // Timestamps come from the virtual clock and only move forward.
            let mut spans = vec![&trace.root];
            while let Some(span) = spans.pop() {
                prop_assert!(span.start <= span.end);
                spans.extend(span.children.iter());
            }
        }
        let render = |traces: &[idaa::StatementTrace]| -> String {
            traces.iter().map(|t| t.render()).collect::<Vec<_>>().join("\n")
        };
        prop_assert_eq!(
            render(&first),
            render(&second),
            "same workload must render identical traces"
        );
    }

    #[test]
    fn parallel_and_serial_accel_agree(
        rows in proptest::collection::vec((0i64..200, 0i64..40), 100..300),
    ) {
        use idaa::accel::{AccelConfig, AccelEngine};
        use idaa::common::{ColumnDef, Schema};
        // All-integer data: every operator is exact, so parallel execution
        // must reproduce the serial answers bit for bit, in row order: only
        // slices fan out, and they merge in slice order.
        let schema = Schema::new(vec![
            ColumnDef::new("A", DataType::BigInt),
            ColumnDef::new("B", DataType::BigInt),
        ]).unwrap();
        let data: Vec<idaa::Row> = rows
            .iter()
            .map(|(a, b)| vec![Value::BigInt(*a), Value::BigInt(*b)])
            .collect();
        // Whether slices run on the caller or fan out over helper threads
        // depends on the input, not the configuration: T (at most one
        // 4096-row batch) takes the inline schedule everywhere, BIG (the
        // same rows cycled past one batch, shifted per cycle so the joins'
        // output stays small) the fanned-out one.
        let big: Vec<idaa::Row> = (0..4500)
            .map(|i| {
                let (a, b) = rows[i % rows.len()];
                let cycle = (i / rows.len()) as i64;
                vec![Value::BigInt(a + 200 * cycle), Value::BigInt(b + 40 * cycle)]
            })
            .collect();
        let run = |parallelism: usize| -> Vec<Vec<idaa::Row>> {
            let config = if parallelism == 0 {
                AccelConfig { slices: 4, zone_maps: true, parallel: false, parallelism: 0 }
            } else {
                AccelConfig { slices: 4, zone_maps: true, parallel: true, parallelism }
            };
            let engine = AccelEngine::new("APP", config);
            for (txn, name, rows) in [(1, "T", &data), (2, "BIG", &big)] {
                engine.create_table(&ObjectName::bare(name), schema.clone(), &[]).unwrap();
                engine.load_committed(txn, &ObjectName::bare(name), rows.clone(), txn).unwrap();
            }
            let queries = [
                "SELECT x.a, y.b FROM {t} AS x INNER JOIN {t} AS y ON x.a = y.a WHERE y.b < 20",
                // LEFT with a residual ON conjunct, multi-key, cross-side WHERE.
                "SELECT x.a, y.b FROM {t} AS x LEFT JOIN {t} AS y ON x.a = y.a AND y.b > 30",
                "SELECT x.a, y.b FROM {t} AS x INNER JOIN {t} AS y ON x.a = y.a AND x.b = y.b",
                "SELECT x.a, y.a FROM {t} AS x INNER JOIN {t} AS y ON x.b = y.b WHERE x.a < y.a",
                // Nested loop (no equi-key): the serial row path.
                "SELECT x.a, y.a FROM {t} AS x INNER JOIN {t} AS y ON x.a < y.a \
                 WHERE x.a < 70 AND y.a < 70",
                "SELECT b, COUNT(*), SUM(a), MIN(a), MAX(a) FROM {t} GROUP BY b",
                "SELECT a + b, COUNT(*), SUM(b) FROM {t} GROUP BY a + b",
                "SELECT DISTINCT b FROM {t}",
                "SELECT COUNT(DISTINCT a), SUM(b) FROM {t}",
                "SELECT a, b FROM {t} ORDER BY a DESC, b",
                "SELECT a, b FROM {t} ORDER BY b, a LIMIT 17",
                // Vectorized-kernel shapes across worker counts: ranges,
                // NOT BETWEEN, IS [NOT] NULL, fused agg over filtered scan.
                "SELECT COUNT(*), SUM(a), MIN(b), MAX(b) FROM {t} \
                 WHERE a BETWEEN 40 AND 160 AND b BETWEEN 5 AND 35",
                "SELECT b, COUNT(*), SUM(a) FROM {t} WHERE a NOT BETWEEN 60 AND 140 GROUP BY b",
                "SELECT COUNT(*) FROM {t} WHERE a IS NULL",
                "SELECT a, b FROM {t} WHERE a IS NOT NULL AND b >= 10 AND b <= 30 AND a <> 77 \
                 ORDER BY a, b",
            ];
            ["t", "big"]
                .into_iter()
                .flat_map(|table| queries.map(|q| q.replace("{t}", table)))
                .map(|q| {
                    let Statement::Query(q) = parse_statement(&q).unwrap() else { unreachable!() };
                    engine.query(0, &q).unwrap().rows
                })
                .collect()
        };
        let serial = run(0);
        for workers in [1usize, 2, 3, 8] {
            for (i, (s, p)) in serial.iter().zip(&run(workers)).enumerate() {
                prop_assert_eq!(s, p, "query #{} mismatch at workers={}", i, workers);
            }
        }
    }

    /// The vectorized batch pipeline is an optimization, never a semantic
    /// change: for every generated query — including shapes that bail out
    /// of kernel compilation, like a literal at 2^53 + 1 — forcing the
    /// row-at-a-time interpreter produces identical rows. Data is chosen
    /// exactness-safe (integers, dyadic doubles, dictionary strings, real
    /// NULLs) so "identical" means bit-for-bit equality, not approximately.
    #[test]
    fn vectorized_and_interpreted_agree(
        rows in proptest::collection::vec(
            (
                proptest::option::of(0i64..1000),
                proptest::option::of(0i64..80),
                proptest::option::of(0usize..3),
            ),
            100..300,
        ),
    ) {
        use idaa::accel::{AccelConfig, AccelEngine, ExecMode};
        use idaa::common::{ColumnDef, Schema};
        let schema = Schema::new(vec![
            ColumnDef::new("A", DataType::BigInt),
            ColumnDef::new("D", DataType::Double),
            ColumnDef::new("G", DataType::Varchar(2)),
            ColumnDef::new("E", DataType::BigInt),
        ]).unwrap();
        // Dyadic doubles (multiples of 0.25) so every comparison and SUM is
        // exact in both the f64 kernel path and the interpreter.
        let data: Vec<idaa::Row> = rows
            .iter()
            .map(|(a, d, g)| vec![
                a.map_or(Value::Null, Value::BigInt),
                d.map_or(Value::Null, |v| Value::Double(v as f64 * 0.25)),
                g.map_or(Value::Null, |i| Value::Varchar(["a", "b", "c"][i].into())),
                a.map_or(Value::Null, |v| Value::BigInt(v % 7)),
            ])
            .collect();
        // BIG: the same rows cycled until every slice spans several
        // 4096-row blocks, with doubles that are *not* exactly summable.
        let big: Vec<idaa::Row> = (0..13_000)
            .map(|i| {
                let mut row = data[i % data.len()].clone();
                if let Value::Double(d) = row[1] {
                    row[1] = Value::Double(d * 0.4 + i as f64 * 0.1);
                }
                row
            })
            .collect();
        let engine = AccelEngine::new(
            "APP",
            AccelConfig { slices: 3, zone_maps: true, parallel: false, parallelism: 0 },
        );
        for (txn, name, rows) in [(1, "T", data), (2, "BIG", big)] {
            engine.create_table(&ObjectName::bare(name), schema.clone(), &[]).unwrap();
            engine.load_committed(txn, &ObjectName::bare(name), rows, txn).unwrap();
        }
        let both_modes = |q: &str| -> (Vec<idaa::Row>, Vec<idaa::Row>) {
            let Statement::Query(parsed) = parse_statement(q).unwrap() else { unreachable!() };
            let fast = engine.query(0, &parsed).unwrap().rows;
            let slow = engine.query_with_mode(0, &parsed, ExecMode::Interpreted).unwrap().rows;
            (fast, slow)
        };
        for q in [
            // Fused scan-filter-aggregate over an i64 range kernel.
            "SELECT COUNT(*), SUM(a), MIN(a), MAX(a) FROM t WHERE a BETWEEN 100 AND 700",
            // f64 comparison kernels plus projection.
            "SELECT a, d FROM t WHERE d >= 2.5 AND d < 10.25 ORDER BY a, d",
            // Negated range kernel.
            "SELECT COUNT(*) FROM t WHERE a NOT BETWEEN 200 AND 800",
            // Dictionary-code inequality + grouped fused aggregation.
            "SELECT g, COUNT(*), MIN(d), MAX(d) FROM t WHERE g <> 'b' GROUP BY g ORDER BY g",
            // Null-bitmap kernels, both polarities.
            "SELECT COUNT(*) FROM t WHERE d IS NULL",
            "SELECT a FROM t WHERE g IS NOT NULL AND a >= 50 ORDER BY a LIMIT 30",
            // Mixed kernel + interpreted residual (arithmetic conjunct).
            "SELECT a, d FROM t WHERE a BETWEEN 50 AND 900 AND a + a > 300 ORDER BY a, d",
            // 2^53 + 1 literal: kernel compilation must bail out (the f64
            // image collides with 2^53), leaving the interpreter's exact
            // i64 comparison in charge on both paths.
            "SELECT COUNT(*) FROM t WHERE a < 9007199254740993",
            // AVG: both modes accumulate in ascending row order, so the
            // float division input is identical.
            "SELECT COUNT(*), AVG(d) FROM t WHERE a >= 100 AND a <= 900",
            // Join shapes: typed i64 keys with a derived probe filter and
            // late-materialized probe scan vs the interpreted hash join.
            "SELECT x.a, y.d FROM t AS x INNER JOIN t AS y ON x.a = y.a \
             WHERE y.d < 5.0 ORDER BY x.a, y.d LIMIT 60",
            // Typed string keys: dictionary-code probe + NULL keys never
            // matching on either path.
            "SELECT x.a, y.a FROM t AS x INNER JOIN t AS y ON x.g = y.g \
             WHERE x.a < 100 AND y.a < 100 ORDER BY x.a, y.a",
            // LEFT join: Bloom skips must still null-extend, bit for bit.
            "SELECT x.a, y.d FROM t AS x LEFT JOIN t AS y ON x.a = y.a \
             AND y.d > 15.0 ORDER BY x.a, y.d LIMIT 60",
            // Join under aggregation (fused downstream of the join).
            "SELECT x.g, COUNT(*), SUM(y.a) FROM t AS x INNER JOIN t AS y \
             ON x.a = y.a GROUP BY x.g ORDER BY x.g",
            // Multi-key ON falls back to generic keys on both paths.
            "SELECT COUNT(*) FROM t AS x INNER JOIN t AS y \
             ON x.a = y.a AND x.g = y.g",
            // Joins under Aggregate / Project that read a strict subset of
            // each side's columns, so the projection mask flows through the
            // join: the residual ON conjunct over `d` is the only reader of
            // that column, and LEFT joins must still null-extend.
            "SELECT x.g, COUNT(*), SUM(y.e) FROM t AS x INNER JOIN t AS y \
             ON x.a = y.a AND x.d <= y.d GROUP BY x.g ORDER BY x.g",
            "SELECT x.g, COUNT(*), COUNT(y.e) FROM t AS x LEFT JOIN t AS y \
             ON x.a = y.a AND x.d < y.d GROUP BY x.g ORDER BY x.g",
            "SELECT x.e, y.g FROM t AS x INNER JOIN t AS y \
             ON x.a = y.a AND x.d <= y.d ORDER BY x.e, y.g LIMIT 80",
            "SELECT x.e, y.g FROM t AS x LEFT JOIN t AS y \
             ON x.a = y.a AND y.d > 10.0 ORDER BY x.e, y.g LIMIT 80",
        ] {
            let (fast, slow) = both_modes(q);
            prop_assert_eq!(fast, slow, "mode disagreement on {}", q);
        }
        // Across slices the fused pipeline adds per-slice partial sums while
        // the interpreter adds row by row, so double SUM/AVG agree only up
        // to summation order (1e-9 relative pins it); every other value —
        // counts, integer sums, MIN/MAX, group keys — stays exact.
        for q in [
            "SELECT g, COUNT(*), SUM(a), SUM(d), AVG(d), MIN(d), MAX(d) FROM big \
             WHERE a BETWEEN 100 AND 900 GROUP BY g ORDER BY g",
            "SELECT COUNT(*), SUM(d), AVG(d) FROM big",
        ] {
            let (fast, slow) = both_modes(q);
            prop_assert_eq!(fast.len(), slow.len(), "group count on {}", q);
            for (f, s) in fast.iter().flatten().zip(slow.iter().flatten()) {
                match (f, s) {
                    (Value::Double(f), Value::Double(s)) => prop_assert!(
                        (f - s).abs() <= 1e-9 * f.abs().max(s.abs()),
                        "{} vs {} on {}", f, s, q
                    ),
                    _ => prop_assert_eq!(f, s, "mode disagreement on {}", q),
                }
            }
        }
    }

    #[test]
    fn replication_converges_on_random_streams(
        ops in proptest::collection::vec((0u8..10, 0i64..30, -50i64..50), 10..60),
        batch in prop_oneof![Just(1usize), Just(7), Just(64)],
    ) {
        let idaa = Idaa::new(idaa::IdaaConfig { replication_batch: batch, ..Default::default() });
        let mut s = idaa.session(SYSADM);
        idaa.execute(&mut s, "CREATE TABLE T (K BIGINT, V BIGINT)").unwrap();
        idaa.execute(&mut s, "CALL ACCEL_ADD_TABLES('T')").unwrap();
        idaa.execute(&mut s, "CALL ACCEL_LOAD_TABLES('T')").unwrap();
        for (op, k, v) in ops {
            match op {
                0..=5 => {
                    idaa.execute(&mut s, &format!("INSERT INTO T VALUES ({k}, {v})")).unwrap();
                }
                6..=7 => {
                    idaa.execute(&mut s, &format!("UPDATE T SET V = {v} WHERE K = {k}")).unwrap();
                }
                _ => {
                    idaa.execute(&mut s, &format!("DELETE FROM T WHERE K = {k}")).unwrap();
                }
            }
        }
        idaa.replicate_now().unwrap();
        let sort = |mut rows: Vec<idaa::Row>| {
            rows.sort_by(|a, b| {
                a.iter().zip(b).map(|(x, y)| x.cmp_total(y))
                    .find(|o| *o != std::cmp::Ordering::Equal)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            rows
        };
        let host_rows = sort(idaa.host().read_table(0, &ObjectName::bare("T")).unwrap());
        let accel_rows = sort(idaa.accel().scan_at(Snapshot::latest(0), &ObjectName::bare("T")).unwrap());
        prop_assert_eq!(host_rows, accel_rows);
    }
}

// ---------------------------------------------------------------------------
// Every pipeline sink against the row-at-a-time interpreter
// ---------------------------------------------------------------------------

/// Do two result sets hold the same rows — in order when `ordered`, else as
/// multisets? Doubles may differ by 1e-9 relative (a pipeline adds per-slice
/// partial sums, the interpreter adds row by row); every other value,
/// including NULLs, strings and integers, must be equal.
fn rows_agree(a: &[idaa::Row], b: &[idaa::Row], ordered: bool) -> bool {
    let (a, b) = if ordered { (a.to_vec(), b.to_vec()) } else { (sorted(a.to_vec()), sorted(b.to_vec())) };
    a.len() == b.len()
        && a.iter().zip(&b).all(|(x, y)| {
            x.len() == y.len()
                && x.iter().zip(y).all(|(p, q)| match (p, q) {
                    (Value::Double(p), Value::Double(q)) => {
                        (p - q).abs() <= 1e-9 * p.abs().max(q.abs()).max(1.0)
                    }
                    _ => p.is_null() == q.is_null() && p == q,
                })
        })
}

/// FACT (probe side) and DIM (build side) for the sink tests: duplicate
/// and NULL keys on both sides, fact keys with no dimension row, doubles
/// that are not exactly summable, a dictionary column on each side whose
/// values meet only across blank padding ('ab ' / 'ab', 'n2' / 'n2 ').
fn sink_tables(
    engine: &idaa::AccelEngine,
    fact: &[(Option<i64>, i64, Option<i64>, usize)],
    dim: &[(Option<i64>, usize, i64)],
) {
    use idaa::common::{ColumnDef, Schema};
    let fact_schema = Schema::new(vec![
        ColumnDef::new("K", DataType::BigInt),
        ColumnDef::new("V", DataType::BigInt),
        ColumnDef::new("D", DataType::Double),
        ColumnDef::new("G", DataType::Varchar(4)),
    ]).unwrap();
    let dim_schema = Schema::new(vec![
        ColumnDef::new("K", DataType::BigInt),
        ColumnDef::new("NAME", DataType::Varchar(4)),
        ColumnDef::new("W", DataType::BigInt),
    ]).unwrap();
    let names = ["n0", "n1", "n2 ", "ab"];
    engine.create_table(&ObjectName::bare("FACT"), fact_schema, &[]).unwrap();
    engine.create_table(&ObjectName::bare("DIM"), dim_schema, &[]).unwrap();
    // Load ids stay clear of the explicit transactions the tests begin.
    engine.load_committed(1001, &ObjectName::bare("FACT"), fact.iter().map(|(k, v, d, g)| vec![
        k.map_or(Value::Null, Value::BigInt),
        Value::BigInt(*v),
        d.map_or(Value::Null, |d| Value::Double(d as f64 * 0.1)),
        if *g == 4 { Value::Null } else { Value::Varchar(["ab ", "cd", "n2", "n1"][*g].into()) },
    ]).collect(), 1001).unwrap();
    engine.load_committed(1002, &ObjectName::bare("DIM"), dim.iter().map(|(k, n, w)| vec![
        k.map_or(Value::Null, Value::BigInt),
        Value::Varchar(names[*n].into()),
        Value::BigInt(*w),
    ]).collect(), 1002).unwrap();
}

/// `(ordered, query)`: every sink — rows, aggregate (dense and hashed group
/// keys on either join side), full sort, top-K — with and without a join
/// probe. Ordered queries sort on enough keys that the order is total over
/// what they return, or return ties whose order is the scan order.
const SINK_QUERIES: &[(bool, &str)] = &[
    // Top-K and sort: duplicate keys, NULL keys, mixed ASC/DESC; ties keep
    // scan order, so non-key columns must line up too.
    // (A hidden sort-key column puts `KeepCols` between `Limit` and `Sort`:
    // top-K, then the column truncate.)
    (true, "SELECT g, k, v, d FROM fact ORDER BY g LIMIT 30"),
    (true, "SELECT g, v, k, d FROM fact ORDER BY g DESC, v LIMIT 7"),
    (true, "SELECT k, v, d FROM fact ORDER BY g DESC, v LIMIT 7"),
    (true, "SELECT d, k, g FROM fact ORDER BY d DESC, k LIMIT 25"),
    (true, "SELECT k, v FROM fact ORDER BY k, v DESC LIMIT 3"),
    (true, "SELECT k, v FROM fact ORDER BY v LIMIT 0"),
    (true, "SELECT k, v FROM fact WHERE v < 0 ORDER BY v LIMIT 5"),
    (true, "SELECT v, g FROM fact ORDER BY g, d DESC LIMIT 5000"),
    (true, "SELECT v, k + v FROM fact WHERE v >= 3 ORDER BY v DESC, d"),
    (true, "SELECT g, d FROM fact WHERE k IS NOT NULL ORDER BY d, g DESC"),
    // Rows sink: renames, a real expression, a masked column.
    (true, "SELECT v, g, v * 2 + 1 FROM fact WHERE v BETWEEN 2 AND 40"),
    // Join → rows, integer and string keys (NULL and non-matching keys on
    // both sides never join).
    (false, "SELECT f.k, f.v, d.name, d.w FROM fact f INNER JOIN dim d ON f.k = d.k"),
    (false, "SELECT f.v, d.k FROM fact f INNER JOIN dim d ON f.g = d.name WHERE d.w > 2"),
    (false, "SELECT f.v + d.w, d.name FROM fact f INNER JOIN dim d ON f.k = d.k WHERE f.v > 5"),
    // Join → aggregate: group keys on the build side, the probe side, both.
    (false, "SELECT d.name, COUNT(*), SUM(f.v), SUM(f.d), MIN(f.d), MAX(d.w) FROM fact f \
             INNER JOIN dim d ON f.k = d.k GROUP BY d.name"),
    (false, "SELECT f.g, COUNT(*), AVG(f.d), COUNT(DISTINCT d.name) FROM fact f \
             INNER JOIN dim d ON f.k = d.k GROUP BY f.g"),
    (false, "SELECT f.g, d.name, SUM(f.v * d.w) FROM fact f INNER JOIN dim d ON f.k = d.k \
             GROUP BY f.g, d.name"),
    (false, "SELECT COUNT(*), SUM(d.w) FROM fact f INNER JOIN dim d ON f.g = d.name"),
    // An empty build side.
    (false, "SELECT f.k, d.w FROM fact f INNER JOIN dim d ON f.k = d.k WHERE d.w < -5"),
    (false, "SELECT d.name, COUNT(*) FROM fact f INNER JOIN dim d ON f.k = d.k \
             WHERE d.w < -5 GROUP BY d.name"),
    // Join → top-K / sort, keys from both sides (total over the output).
    (true, "SELECT f.v, f.k, d.name FROM fact f INNER JOIN dim d ON f.k = d.k \
            ORDER BY f.v DESC, f.k, d.name LIMIT 9"),
    (true, "SELECT d.w, f.v, d.name FROM fact f INNER JOIN dim d ON f.k = d.k \
            ORDER BY d.w, f.v, d.name"),
    // LEFT joins: typed and generic keys, with and without a residual ON
    // conjunct — `d.w > 8` fails every candidate of most positions, which
    // must then null-extend — into every sink.
    (false, "SELECT f.k, f.v, d.w FROM fact f LEFT JOIN dim d ON f.k = d.k AND d.w > 3"),
    (false, "SELECT f.k, f.v, d.name FROM fact f LEFT JOIN dim d ON f.k = d.k"),
    (false, "SELECT f.v, d.k, d.w FROM fact f LEFT JOIN dim d ON f.g = d.name AND d.w > 8"),
    (false, "SELECT d.name, COUNT(*), COUNT(d.w), SUM(f.v) FROM fact f LEFT JOIN dim d \
             ON f.k = d.k AND f.v > d.w GROUP BY d.name"),
    (true, "SELECT f.v, f.k, d.w FROM fact f LEFT JOIN dim d ON f.k = d.k \
            ORDER BY d.w DESC, f.v, f.k LIMIT 12"),
    (false, "SELECT f.k, d.w FROM fact f LEFT JOIN dim d ON f.k = d.k WHERE d.w IS NULL"),
    // Generic keys: multi-key, INT ⋈ DOUBLE, an expression key.
    (false, "SELECT f.v, d.w FROM fact f INNER JOIN dim d ON f.k = d.k AND f.g = d.name"),
    (false, "SELECT f.v, d.name FROM fact f INNER JOIN dim d ON f.d = d.w"),
    (false, "SELECT f.k, d.k, d.w FROM fact f INNER JOIN dim d ON f.k + 1 = d.k"),
    // A build side that is an aggregate subquery, with a residual ON.
    (false, "SELECT f.k, f.v, a.n FROM fact f INNER JOIN \
             (SELECT k, COUNT(*) AS n, MAX(w) AS m FROM dim GROUP BY k) a \
             ON f.k = a.k AND f.v > a.m"),
    // A cross-side WHERE over a join, and residuals on the probe scan.
    (false, "SELECT f.k, f.v, d.w FROM fact f INNER JOIN dim d ON f.k = d.k WHERE f.v > d.w * 5"),
    (false, "SELECT d.name, SUM(f.v) FROM fact f INNER JOIN dim d ON f.k = d.k \
             WHERE f.v + f.k > 20 GROUP BY d.name"),
    (true, "SELECT k, v FROM fact WHERE k * 2 < v AND v < 45 ORDER BY v, k LIMIT 9"),
    // Computed group and sort keys, DISTINCT, and ORDER BY a column that is
    // not projected (`KeepCols` between `Limit` and `Sort`).
    (false, "SELECT k + v, COUNT(*), SUM(v), MIN(g) FROM fact GROUP BY k + v"),
    (false, "SELECT DISTINCT k, g FROM fact"),
    (false, "SELECT DISTINCT g FROM fact"),
    (true, "SELECT v, k + v FROM fact ORDER BY k + v, v DESC"),
    (true, "SELECT v, g FROM fact ORDER BY k * v DESC, v LIMIT 11"),
    (true, "SELECT f.v FROM fact f LEFT JOIN dim d ON f.k = d.k ORDER BY d.w, f.v DESC LIMIT 8"),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Whatever a plan lowers to — one pipeline, pipelines under interpreter
    /// nodes, or no pipeline at all — the answer is the interpreter's.
    #[test]
    fn pipeline_sinks_agree_with_the_interpreter(
        fact in proptest::collection::vec(
            (proptest::option::of(0i64..40), 0i64..50, proptest::option::of(0i64..300), 0usize..5),
            60..260,
        ),
        dim in proptest::collection::vec((proptest::option::of(0i64..50), 0usize..4, 0i64..9), 0..40),
        parallelism in 1usize..4,
    ) {
        use idaa::accel::{AccelConfig, AccelEngine, ExecMode};
        let engine = AccelEngine::new(
            "APP",
            AccelConfig { slices: 3, zone_maps: true, parallel: true, parallelism },
        );
        sink_tables(&engine, &fact, &dim);
        let check = |txn: u64, ordered: bool, sql: &str| -> usize {
            let Statement::Query(q) = parse_statement(sql).unwrap() else { unreachable!() };
            let fast = engine.query(txn, &q).unwrap().rows;
            let slow = engine.query_with_mode(txn, &q, ExecMode::Interpreted).unwrap().rows;
            prop_assert!(
                rows_agree(&fast, &slow, ordered),
                "txn {} modes disagree on {}:\n{:?}\nvs\n{:?}", txn, sql, fast, slow
            );
            fast.len()
        };
        for (ordered, sql) in SINK_QUERIES {
            check(0, *ordered, sql);
        }
        // The same cached plans under concurrent snapshots: txn 7 has
        // uncommitted inserts on both sides, txn 8 uncommitted deletes.
        // Each sees its own changes only; a fresh reader sees neither.
        engine.begin(7);
        engine.begin(8);
        engine.insert_rows(7, &ObjectName::bare("FACT"), vec![
            vec![Value::BigInt(3), Value::BigInt(-7), Value::Double(0.5), Value::Varchar("ab".into())],
            vec![Value::BigInt(41), Value::BigInt(-8), Value::Null, Value::Null],
        ]).unwrap();
        engine.insert_rows(7, &ObjectName::bare("DIM"), vec![
            vec![Value::BigInt(41), Value::Varchar("n0".into()), Value::BigInt(1)],
        ]).unwrap();
        let parse_filter = |sql: &str| {
            let Statement::Query(q) = parse_statement(sql).unwrap() else { unreachable!() };
            q.filter.unwrap()
        };
        engine.delete_where(idaa::accel::Snapshot::latest(8), &ObjectName::bare("FACT"), Some(&parse_filter("SELECT 1 FROM fact WHERE v < 10"))).unwrap();
        engine.delete_where(idaa::accel::Snapshot::latest(8), &ObjectName::bare("DIM"), Some(&parse_filter("SELECT 1 FROM dim WHERE w = 0"))).unwrap();
        for txn in [7u64, 8, 9] {
            for (ordered, sql) in SINK_QUERIES {
                check(txn, *ordered, sql);
            }
        }
        let own = check(7, true, "SELECT k, v FROM fact WHERE v < 0 ORDER BY v LIMIT 5");
        prop_assert_eq!(own, 2, "txn 7 must see its own uncommitted inserts");
        engine.abort(7);
        engine.abort(8);
        // Writes between two executions of one cached plan keep the plan —
        // every lookup below is a hit — and it still answers like the
        // interpreter: a dictionary that grows (the new strings must group,
        // sort and join like any other), a GROOM that rebuilds slices, and a
        // TRUNCATE plus reload.
        let joins = "SELECT f.v, d.k FROM fact f INNER JOIN dim d ON f.g = d.name WHERE d.w > 2";
        let misses = engine.stats.plan_cache_misses.load(std::sync::atomic::Ordering::Relaxed);
        engine.load_committed(1003, &ObjectName::bare("FACT"), vec![
            vec![Value::BigInt(1), Value::BigInt(60), Value::Double(1.5), Value::Varchar("zz".into())],
            vec![Value::BigInt(45), Value::BigInt(61), Value::Double(2.5), Value::Varchar("new".into())],
        ], 1003).unwrap();
        engine.load_committed(1004, &ObjectName::bare("DIM"), vec![
            vec![Value::BigInt(45), Value::Varchar("new".into()), Value::BigInt(3)],
        ], 1004).unwrap();
        for (ordered, sql) in SINK_QUERIES {
            check(0, *ordered, sql);
        }
        prop_assert!(check(0, false, joins) >= 1, "the grown dictionary's 'new' key must join");
        engine.begin(10);
        engine.delete_where(idaa::accel::Snapshot::latest(10), &ObjectName::bare("FACT"), Some(&parse_filter("SELECT 1 FROM fact WHERE v > 40"))).unwrap();
        engine.commit(10, 10);
        engine.groom(&ObjectName::bare("FACT"), u64::MAX).unwrap();
        let dim_rows = engine.scan_at(Snapshot::latest(0), &ObjectName::bare("DIM")).unwrap();
        engine.truncate(&ObjectName::bare("DIM")).unwrap();
        engine.load_committed(1005, &ObjectName::bare("DIM"), dim_rows, 1005).unwrap();
        for (ordered, sql) in SINK_QUERIES {
            check(0, *ordered, sql);
        }
        prop_assert!(check(0, false, joins) >= 1, "the reloaded 'new' key must join");
        prop_assert_eq!(
            engine.stats.plan_cache_misses.load(std::sync::atomic::Ordering::Relaxed),
            misses,
            "dictionary growth, GROOM and TRUNCATE must keep every cached plan"
        );
    }
}

/// Pipelines on an input large enough to fan out (ten batches survive zone
/// pruning): every worker count returns the one-worker answer *bit for bit*
/// — parts are slices fixed by the configuration and merged in slice order,
/// so who runs them never shows, the pipelines' doubles included. Every
/// shape in `SINK_QUERIES` runs as a vectorized pipeline.
#[test]
fn pipelines_fan_out_without_changing_a_bit() {
    use idaa::accel::{AccelConfig, AccelEngine};
    let mut x = 7u64;
    let mut next = move |m: u64| {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (x >> 33) % m
    };
    let fact: Vec<_> = (0..40_000)
        .map(|_| {
            let k = if next(17) == 0 { None } else { Some(next(60) as i64) };
            (k, next(500) as i64, Some(next(3000) as i64), next(5) as usize)
        })
        .collect();
    let dim: Vec<_> = (0..50).map(|i| (Some(i as i64), next(4) as usize, next(9) as i64)).collect();
    let run = |parallelism: usize| -> Vec<Vec<idaa::Row>> {
        let engine = AccelEngine::new(
            "APP",
            AccelConfig { slices: 4, zone_maps: true, parallel: true, parallelism },
        );
        sink_tables(&engine, &fact, &dim);
        SINK_QUERIES
            .iter()
            .map(|(_, sql)| {
                let Statement::Query(q) = parse_statement(sql).unwrap() else { unreachable!() };
                let pipeline = engine.pipeline_of(&q).unwrap();
                assert!(pipeline.starts_with("vectorized ("), "{sql} runs as {pipeline}");
                engine.query(0, &q).unwrap().rows
            })
            .collect()
    };
    let one = run(1);
    for parallelism in [2, 3, 8] {
        assert_eq!(run(parallelism), one, "parallelism={parallelism}");
    }
    // The string-key probe joins across blank padding in both directions:
    // FACT 'ab ' ⋈ DIM 'ab' and FACT 'n2' ⋈ DIM 'n2 ', beside 'n1' ⋈ 'n1'.
    let pairs = |joins: &[(usize, usize)]| -> i64 {
        let of = |(g, n): (usize, usize)| {
            fact.iter().filter(|f| f.3 == g).count() * dim.iter().filter(|d| d.1 == n).count()
        };
        joins.iter().map(|j| of(*j) as i64).sum()
    };
    assert!(pairs(&[(0, 3)]) > 0 && pairs(&[(2, 2)]) > 0, "no padded key pair in the data");
    let by_name = "SELECT COUNT(*), SUM(d.w) FROM fact f INNER JOIN dim d ON f.g = d.name";
    let at = SINK_QUERIES.iter().position(|(_, sql)| *sql == by_name).unwrap();
    assert_eq!(one[at][0][0], Value::BigInt(pairs(&[(0, 3), (2, 2), (3, 1)])));
}

// ---------------------------------------------------------------------------
// DML victim selection goes through the scan front end
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// `UPDATE`/`DELETE … WHERE p` on the accelerator pick their victims
    /// with the executor's scan front end (kernels, zone pruning, block
    /// visibility, residual re-check). On multi-block tables with NULLs and
    /// the transaction's own uncommitted inserts, deletes and updates, they
    /// must touch exactly the rows `SELECT … WHERE p` returns under the
    /// interpreter, and leave the AOT equal to a host table that ran the
    /// same statements. `p` covers a zone-prunable range, string equality,
    /// `IS NULL`, a residual no kernel compiles (`a + 1 > b`), and
    /// conjunctions of these. Replicated changes reach the same code through
    /// `replication::delete_exact`, including duplicate full rows.
    #[test]
    fn dml_victims_match_select(
        seed in 0u64..u64::MAX,
        lo in 0i64..9_500,
        width in 1i64..700,
        pick in 0usize..3,
    ) {
        use idaa::accel::{AccelConfig, ExecMode};
        const ROWS: i64 = 10_000;
        const COLS: &str = "(A BIGINT, B BIGINT, G VARCHAR(2), M BIGINT)";
        let g = ["a", "b", "c"][pick];
        let mut state = seed;
        // `a` ascends, so with two slices each slice's second block holds
        // a >= 8192 and range predicates prune; b, g and a few a are NULL.
        let values: Vec<String> = (0..ROWS)
            .map(|i| {
                let r = splitmix(&mut state);
                let a = if r.is_multiple_of(97) { "NULL".to_string() } else { i.to_string() };
                let b = match r.is_multiple_of(19) {
                    true => "NULL".to_string(),
                    false => ((r >> 8) % 12_000).to_string(),
                };
                let g = match (r >> 40) % 31 {
                    0 => "NULL".to_string(),
                    k => format!("'{}'", ["a", "b", "c"][k as usize % 3]),
                };
                format!("({a}, {b}, {g}, 0)")
            })
            .collect();
        let idaa = Idaa::new(IdaaConfig {
            accel: AccelConfig { slices: 2, ..Default::default() },
            ..Default::default()
        });
        let mut s = idaa.session(SYSADM);
        let mut run = |sql: &str| idaa.execute(&mut s, sql).unwrap().count();
        run(&format!("CREATE TABLE H {COLS}"));
        run(&format!("CREATE TABLE R {COLS}"));
        run("SET CURRENT QUERY ACCELERATION = ELIGIBLE");
        run(&format!("CREATE TABLE T {COLS} IN ACCELERATOR"));
        for chunk in values.chunks(500) {
            for table in ["H", "T", "R"] {
                run(&format!("INSERT INTO {table} VALUES {}", chunk.join(", ")));
            }
        }
        run("INSERT INTO R VALUES (-5, 1, 'a', 0), (-5, 1, 'a', 0), (-5, 1, 'a', 0), \
             (-6, NULL, NULL, 0), (-6, NULL, NULL, 0)");
        run("CALL ACCEL_ADD_TABLES('R')");
        run("CALL ACCEL_LOAD_TABLES('R')");

        // The statement's own transaction has changes in flight on both
        // engines: inserts inside the range, a delete, an update to NULL.
        run("BEGIN");
        for table in ["H", "T"] {
            run(&format!(
                "INSERT INTO {table} VALUES \
                 ({lo}, 5, 'a', 0), ({}, NULL, 'b', 0), (NULL, 7, NULL, 0)",
                lo + 1
            ));
            run(&format!("DELETE FROM {table} WHERE a = {}", lo + 2));
            run(&format!("UPDATE {table} SET b = NULL WHERE a = {}", lo + 3));
        }
        let hi = lo + width;
        let predicates = [
            format!("a BETWEEN {lo} AND {hi}"),
            format!("g = '{g}' AND a >= {} AND a < {}", hi, hi + 400),
            format!("b IS NULL AND g = '{g}' AND a < 5000"),
            format!("a + 1 > b AND a BETWEEN {} AND {}", hi + 400, hi + 900),
            "b IS NULL".to_string(),
            format!("g = '{g}'"),
            "a + 1 > b".to_string(),
        ];
        for (k, p) in predicates.iter().enumerate() {
            let txn = s.txn().expect("explicit transaction is open");
            let Statement::Query(select) =
                parse_statement(&format!("SELECT a, b, g FROM t WHERE {p}")).unwrap()
            else { unreachable!() };
            let expected = sorted(
                idaa.accel().query_with_mode(txn, &select, ExecMode::Interpreted).unwrap().rows,
            );
            let host = idaa.query(&mut s, &format!("SELECT a, b, g FROM h WHERE {p}")).unwrap();
            prop_assert_eq!(&expected, &sorted(host.rows), "SELECT on {}", p);

            let mark = k + 1;
            for table in ["T", "H"] {
                let n = idaa
                    .execute(&mut s, &format!("UPDATE {table} SET m = {mark} WHERE {p}"))
                    .unwrap()
                    .count();
                prop_assert_eq!(n, expected.len(), "UPDATE {} WHERE {}", table, p);
            }
            let marked =
                idaa.query(&mut s, &format!("SELECT a, b, g FROM t WHERE m = {mark}")).unwrap();
            prop_assert_eq!(&expected, &sorted(marked.rows), "rows UPDATE touched for {}", p);
            let both = |s: &mut idaa::Session| {
                let t = idaa.query(s, "SELECT a, b, g, m FROM t").unwrap();
                let h = idaa.query(s, "SELECT a, b, g, m FROM h").unwrap();
                (sorted(t.rows), sorted(h.rows))
            };
            let (t, h) = both(&mut s);
            prop_assert_eq!(t, h, "tables diverged after UPDATE WHERE {}", p);

            for table in ["T", "H"] {
                let delete = format!("DELETE FROM {table} WHERE {p}");
                let n = idaa.execute(&mut s, &delete).unwrap().count();
                prop_assert_eq!(n, expected.len(), "DELETE FROM {} WHERE {}", table, p);
            }
            let (t, h) = both(&mut s);
            prop_assert_eq!(t, h, "tables diverged after DELETE WHERE {}", p);
        }
        idaa.execute(&mut s, "COMMIT").unwrap();

        // Replicated changes: every changed row is one full-column-equality
        // delete on the accelerator, duplicates and NULL columns included.
        for sql in [
            "DELETE FROM R WHERE a = -5".to_string(),
            "UPDATE R SET m = 9 WHERE a = -6".to_string(),
            format!("UPDATE R SET b = NULL WHERE a BETWEEN {lo} AND {}", lo + 40),
            format!("DELETE FROM R WHERE a BETWEEN {} AND {}", lo + 20, lo + 60),
        ] {
            idaa.execute(&mut s, &sql).unwrap();
        }
        idaa.replicate_now().unwrap();
        let host_rows = sorted(idaa.host().read_table(0, &ObjectName::bare("R")).unwrap());
        let accel_rows = sorted(idaa.accel().scan_at(Snapshot::latest(0), &ObjectName::bare("R")).unwrap());
        prop_assert_eq!(host_rows, accel_rows);
    }
}

// ---------------------------------------------------------------------------
// Crash recovery: commit-log replay is idempotent
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A random committed/aborted DML stream with checkpoints sprinkled in,
    /// then every restart schedule — replay the tail once, replay it again
    /// (double restart), and optionally fold the whole log into a fresh
    /// checkpoint between restarts (re-chunking the same history into a
    /// different checkpoint/tail split) — rebuilds byte-identical state.
    /// A second table is quarantined at a drawn op and maybe truncated
    /// later, which lifts the quarantine: its status survives every
    /// schedule too, whether a checkpoint or the tail holds it.
    #[test]
    fn commit_log_replay_is_idempotent(
        ops in proptest::collection::vec((0u8..10, 0i64..40, -100i64..100), 10..50),
        checkpoint_between in any::<bool>(),
        quarantine_at in 0usize..40,
        truncate_after in proptest::option::of(1usize..30),
    ) {
        use idaa::accel::{AccelConfig, AccelEngine};
        use idaa::common::{ColumnDef, Schema};
        use idaa::sql::ast::{BinaryOp, Expr};
        use std::time::Duration;

        let engine = AccelEngine::new(
            "APP",
            AccelConfig { slices: 3, zone_maps: true, parallel: false, parallelism: 0 },
        );
        let t = ObjectName::bare("T");
        let schema = Schema::new(vec![
            ColumnDef::new("K", DataType::BigInt),
            ColumnDef::new("V", DataType::BigInt),
        ]).unwrap();
        engine.create_table(&t, schema.clone(), &[]).unwrap();
        let lost = ObjectName::bare("LOST");
        engine.create_table(&lost, schema, &[]).unwrap();
        engine.begin(100);
        let rows = (0..10).map(|k| vec![Value::BigInt(k), Value::BigInt(k)]).collect();
        engine.insert_rows(100, &lost, rows).unwrap();
        engine.commit(100, 100);
        let key_eq = |k: i64| Expr::Binary {
            left: Box::new(Expr::Column { qualifier: None, name: "K".into() }),
            op: BinaryOp::Eq,
            right: Box::new(Expr::Literal(Value::BigInt(k))),
        };
        let mut txn = 100u64;
        for (i, (op, k, v)) in ops.iter().enumerate() {
            if i == quarantine_at {
                engine.quarantine_table(&lost).unwrap();
            }
            if truncate_after.is_some_and(|d| i == quarantine_at + d) {
                engine.truncate(&lost).unwrap();
            }
            txn += 1;
            let row = vec![Value::BigInt(*k), Value::BigInt(*v)];
            match op {
                0..=4 => {
                    engine.begin(txn);
                    engine.insert_rows(txn, &t, vec![row]).unwrap();
                    engine.commit(txn, txn);
                }
                5..=6 => {
                    engine.begin(txn);
                    engine.update_where(
                        idaa::accel::Snapshot::latest(txn),
                        &t,
                        &[("V".to_string(), Expr::Literal(Value::BigInt(*v)))],
                        Some(&key_eq(*k)),
                    ).unwrap();
                    engine.commit(txn, txn);
                }
                7 => {
                    engine.begin(txn);
                    engine.delete_where(idaa::accel::Snapshot::latest(txn), &t, Some(&key_eq(*k))).unwrap();
                    engine.commit(txn, txn);
                }
                8 => {
                    // Aborted work: its effects must never reappear after
                    // any replay.
                    engine.begin(txn);
                    engine.insert_rows(txn, &t, vec![row]).unwrap();
                    engine.abort(txn);
                }
                _ => {
                    engine.groom(&t, u64::MAX).unwrap();
                }
            }
            // Mid-stream checkpoints exercise checkpoint-plus-tail replay.
            if i % 13 == 7 {
                engine.checkpoint(Duration::from_millis(i as u64)).unwrap();
            }
        }
        let fp_live = engine.state_fingerprint();
        let rows_live = engine.scan_at(Snapshot::latest(0), &t).unwrap();
        let quarantined_live = engine.quarantined_tables();

        engine.crash();
        engine.restart().unwrap();
        prop_assert_eq!(engine.state_fingerprint(), fp_live, "first replay diverged");
        prop_assert_eq!(&engine.scan_at(Snapshot::latest(0), &t).unwrap(), &rows_live);
        prop_assert_eq!(&engine.quarantined_tables(), &quarantined_live, "first replay");

        if checkpoint_between {
            engine.checkpoint(Duration::from_secs(1)).unwrap();
        }
        engine.crash();
        engine.restart().unwrap();
        prop_assert_eq!(engine.state_fingerprint(), fp_live, "second replay diverged");
        prop_assert_eq!(&engine.scan_at(Snapshot::latest(0), &t).unwrap(), &rows_live);
        prop_assert_eq!(&engine.quarantined_tables(), &quarantined_live, "second replay");
    }

    /// The same idempotency contract under storage faults: a torn log
    /// append and a bit-rotted log record are armed at random points in
    /// the stream. Torn tails self-heal (truncate + durably re-log), so
    /// every restart schedule still rebuilds byte-identical state; rot
    /// either gets excised by a covering checkpoint (replay converges) or
    /// surfaces as a *deterministic* `storage_corrupt` on every restart
    /// attempt — never a silently divergent fingerprint.
    #[test]
    fn commit_log_replay_is_idempotent_under_storage_faults(
        ops in proptest::collection::vec((0u8..10, 0i64..40, -100i64..100), 10..50),
        checkpoint_between in any::<bool>(),
        tear_at in 0usize..40,
        rot_at in 0usize..40,
    ) {
        use idaa::accel::{AccelConfig, AccelEngine};
        use idaa::common::{ColumnDef, Schema};
        use idaa::netsim::sites;
        use idaa::sql::ast::{BinaryOp, Expr};
        use std::time::Duration;

        let engine = AccelEngine::new(
            "APP",
            AccelConfig { slices: 3, zone_maps: true, parallel: false, parallelism: 0 },
        );
        let t = ObjectName::bare("T");
        let schema = Schema::new(vec![
            ColumnDef::new("K", DataType::BigInt),
            ColumnDef::new("V", DataType::BigInt),
        ]).unwrap();
        engine.create_table(&t, schema, &[]).unwrap();
        let key_eq = |k: i64| Expr::Binary {
            left: Box::new(Expr::Column { qualifier: None, name: "K".into() }),
            op: BinaryOp::Eq,
            right: Box::new(Expr::Literal(Value::BigInt(k))),
        };
        // Both restart attempts after a corruption verdict must agree: the
        // error is a property of the media, not of the retry schedule.
        let corrupt_stays_corrupt = |e: &idaa::Error| {
            assert_eq!(e.kind(), "storage_corrupt", "unexpected restart error: {e}");
            let again = engine.restart().expect_err("corrupt media cannot heal by retrying");
            assert_eq!(again.kind(), "storage_corrupt", "verdict changed: {again}");
        };
        let mut corrupted = false;
        for (i, (op, k, v)) in ops.iter().enumerate() {
            if i == tear_at {
                engine.fault_registry().arm(sites::TORN_LOG_APPEND, 0, 1);
            }
            if i == rot_at {
                engine.fault_registry().arm(sites::BITROT_LOG_SEGMENT, 0, 1);
            }
            let txn = 101 + i as u64;
            let row = vec![Value::BigInt(*k), Value::BigInt(*v)];
            let attempt: idaa::Result<()> = (|| {
                match op {
                    0..=4 => {
                        engine.begin(txn);
                        engine.insert_rows(txn, &t, vec![row.clone()])?;
                        engine.commit(txn, txn);
                    }
                    5..=6 => {
                        engine.begin(txn);
                        engine.update_where(
                            idaa::accel::Snapshot::latest(txn),
                            &t,
                            &[("V".to_string(), Expr::Literal(Value::BigInt(*v)))],
                            Some(&key_eq(*k)),
                        )?;
                        engine.commit(txn, txn);
                    }
                    7 => {
                        engine.begin(txn);
                        engine.delete_where(idaa::accel::Snapshot::latest(txn), &t, Some(&key_eq(*k)))?;
                        engine.commit(txn, txn);
                    }
                    8 => {
                        engine.begin(txn);
                        engine.insert_rows(txn, &t, vec![row.clone()])?;
                        engine.abort(txn);
                    }
                    _ => {
                        engine.groom(&t, u64::MAX)?;
                    }
                }
                Ok(())
            })();
            if let Err(e) = attempt {
                // The armed torn write crashed the engine mid-append; the
                // restart must truncate the torn tail and re-log the
                // truncation — unless earlier rot sits in the replay tail,
                // in which case the failure is deterministic.
                prop_assert_eq!(e.sqlcode(), -904, "torn append must surface -904: {}", e);
                prop_assert!(engine.is_crashed(), "a torn append must crash the engine");
                if let Err(e) = engine.restart() {
                    corrupt_stays_corrupt(&e);
                    corrupted = true;
                    break;
                }
            }
            if i % 13 == 7 {
                engine.checkpoint(Duration::from_millis(i as u64)).unwrap();
            }
        }
        if !corrupted {
            let fp_live = engine.state_fingerprint();
            let rows_live = engine.scan_at(Snapshot::latest(0), &t).unwrap();

            engine.crash();
            match engine.restart() {
                Err(e) => corrupt_stays_corrupt(&e),
                Ok(_) => {
                    prop_assert_eq!(
                        engine.state_fingerprint(), fp_live, "first faulted replay diverged"
                    );
                    prop_assert_eq!(&engine.scan_at(Snapshot::latest(0), &t).unwrap(), &rows_live);

                    if checkpoint_between {
                        engine.checkpoint(Duration::from_secs(1)).unwrap();
                    }
                    engine.crash();
                    engine.restart().unwrap();
                    prop_assert_eq!(
                        engine.state_fingerprint(), fp_live, "second faulted replay diverged"
                    );
                    prop_assert_eq!(&engine.scan_at(Snapshot::latest(0), &t).unwrap(), &rows_live);
                }
            }
        }
    }

    /// The frame a slice keeps for checkpoints never goes stale. A random
    /// stream of inserts, updates, deletes, aborted inserts, GROOM,
    /// TRUNCATE, checkpoints and crash + restart runs over `T`, which takes
    /// every kind of write, and `U`, which only ever gets delete marks. At
    /// every checkpoint, the image `recover_scan` reads back holds:
    /// - per slice, exactly the encoding the test makes of the slice's rows;
    /// - for a slice whose rows no statement rewrote since the previous
    ///   checkpoint, the previous checkpoint's frame itself (`Arc::ptr_eq`);
    /// - a `bytes()` equal to that of the same image with no frame shared.
    #[test]
    fn checkpoint_reencodes_only_changed_slices(
        ops in proptest::collection::vec((0u8..14, 0i64..40, -100i64..100), 10..60),
    ) {
        use idaa::accel::{AccelConfig, AccelEngine, Checkpoint};
        use idaa::common::{wire, ColumnDef, Row, Schema};
        use idaa::sql::ast::{BinaryOp, Expr};
        use std::sync::Arc;
        use std::time::Duration;

        let engine = AccelEngine::new(
            "APP",
            AccelConfig { slices: 3, zone_maps: true, parallel: false, parallelism: 0 },
        );
        let tables = [ObjectName::bare("T"), ObjectName::bare("U")];
        let [t, u] = &tables;
        let schema = Schema::new(vec![
            ColumnDef::new("K", DataType::BigInt),
            ColumnDef::new("V", DataType::BigInt),
        ]).unwrap();
        for name in &tables {
            engine.create_table(name, schema.clone(), &[]).unwrap();
        }
        engine.begin(1);
        let loaded = (0..40).map(|k| vec![Value::BigInt(k), Value::BigInt(-k)]).collect();
        engine.insert_rows(1, u, loaded).unwrap();
        engine.commit(1, 1);
        let key_eq = |k: i64| Expr::Binary {
            left: Box::new(Expr::Column { qualifier: None, name: "K".into() }),
            op: BinaryOp::Eq,
            right: Box::new(Expr::Literal(Value::BigInt(k))),
        };
        // A statement rewrote a slice's rows exactly when it changed the
        // slice's creator vector: an append grows it, and a GROOM or
        // TRUNCATE that removes anything shrinks it.
        let creators = |engine: &AccelEngine| -> Vec<Vec<Vec<u64>>> {
            tables
                .iter()
                .map(|name| {
                    let table = engine.table(name).unwrap();
                    table.slices().iter().map(|s| s.read().created().to_vec()).collect()
                })
                .collect()
        };
        let mut before = creators(&engine);
        let mut rewritten = [[false; 3]; 2];
        let mut last: Option<Checkpoint> = None;
        for (i, (op, k, v)) in ops.iter().enumerate() {
            let txn = 101 + i as u64;
            let row = vec![Value::BigInt(*k), Value::BigInt(*v)];
            let mut restarted = false;
            match op {
                0..=3 => {
                    engine.begin(txn);
                    engine.insert_rows(txn, t, vec![row]).unwrap();
                    engine.commit(txn, txn);
                }
                4..=5 => {
                    engine.begin(txn);
                    engine.update_where(
                        idaa::accel::Snapshot::latest(txn),
                        t,
                        &[("V".to_string(), Expr::Literal(Value::BigInt(*v)))],
                        Some(&key_eq(*k)),
                    ).unwrap();
                    engine.commit(txn, txn);
                }
                6 | 10 | 11 => {
                    let table = if *op == 6 { t } else { u };
                    engine.begin(txn);
                    engine.delete_where(idaa::accel::Snapshot::latest(txn), table, Some(&key_eq(*k))).unwrap();
                    engine.commit(txn, txn);
                }
                7 => {
                    engine.begin(txn);
                    engine.insert_rows(txn, t, vec![row]).unwrap();
                    engine.abort(txn);
                }
                8 => {
                    engine.groom(t, u64::MAX).unwrap();
                }
                9 => engine.truncate(t).unwrap(),
                12 => {
                    engine.crash();
                    engine.restart().unwrap();
                    restarted = true;
                }
                _ => {}
            }
            let after = creators(&engine);
            for (ti, slices) in after.iter().enumerate() {
                for (si, created) in slices.iter().enumerate() {
                    rewritten[ti][si] |= restarted || *created != before[ti][si];
                }
            }
            before = after;
            if *op == 13 || i % 5 == 4 {
                engine.checkpoint(Duration::from_millis(i as u64)).unwrap();
                let scan = engine.durable().recover_scan().expect("a fresh checkpoint validates");
                let cp = scan.checkpoint.expect("checkpoint installed");
                prop_assert_eq!(cp.tables.len(), tables.len());
                let mut unshared = cp.clone();
                for (ti, name) in tables.iter().enumerate() {
                    let table = engine.table(name).unwrap();
                    for (si, slice) in table.slices().iter().enumerate() {
                        let slice = slice.read();
                        let rows: Vec<Row> =
                            (0..slice.version_count()).map(|p| slice.row_at(p)).collect();
                        let fresh = wire::encode_frame(&table.schema, &rows);
                        let frame = &cp.tables[ti].slices[si].frame;
                        prop_assert!(
                            frame[..] == fresh[..],
                            "op {}: {} slice {} checkpointed a stale frame", i, name, si
                        );
                        if let (Some(prev), false) = (&last, rewritten[ti][si]) {
                            prop_assert!(
                                Arc::ptr_eq(&prev.tables[ti].slices[si].frame, frame),
                                "op {}: {} slice {} re-encoded unchanged rows", i, name, si
                            );
                        }
                        unshared.tables[ti].slices[si].frame = fresh.into();
                    }
                }
                prop_assert_eq!(cp.bytes(), unshared.bytes());
                last = Some(cp);
                rewritten = [[false; 3]; 2];
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Wire codec: encode -> decode round-trips arbitrary batches losslessly
// ---------------------------------------------------------------------------

/// Deterministic cell for column type `dt` from the raw 64-bit draw `x`:
/// NULL one time in five, otherwise a full-range typed value (negative
/// ints, empty strings, decimals with scale all reachable).
fn wire_cell(dt: DataType, x: u64) -> Value {
    if x.is_multiple_of(5) {
        return Value::Null;
    }
    let text = |mut bits: u64| {
        let len = (bits % 9) as usize;
        let mut s = String::new();
        for _ in 0..len {
            s.push((b'a' + (bits % 26) as u8) as char);
            bits /= 26;
        }
        s
    };
    match dt {
        DataType::Boolean => Value::Boolean(x & 1 == 1),
        DataType::SmallInt => Value::SmallInt(x as i16),
        DataType::Integer => Value::Int(x as i32),
        DataType::BigInt => Value::BigInt(x as i64),
        DataType::Double => Value::Double((x as i64 >> 11) as f64 * 0.25),
        DataType::Decimal(_, s) => Value::Decimal(Decimal::new((x as i64 >> 20) as i128, s)),
        DataType::Varchar(_) | DataType::Char(_) => Value::Varchar(text(x >> 8)),
        DataType::Date => Value::Date(x as i32 % 1_000_000),
        DataType::Timestamp => Value::Timestamp(x as i64 >> 4),
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn wire_frames_roundtrip(
        types in proptest::collection::vec(arb_data_type(), 1..6),
        n in 0usize..60,
        seed in any::<u64>(),
    ) {
        use idaa::common::{wire, ColumnDef};
        let schema = idaa::Schema::new(
            types
                .iter()
                .enumerate()
                .map(|(i, dt)| ColumnDef::new(format!("C{i}"), *dt))
                .collect(),
        )
        .unwrap();
        let mut st = seed;
        let rows: Vec<idaa::Row> = (0..n)
            .map(|_| types.iter().map(|dt| wire_cell(*dt, splitmix(&mut st))).collect())
            .collect();

        // Chunked framing round-trips the batch losslessly, exact variants
        // included, and every frame passes its checksum and carries the
        // batch's logical size split across frames.
        let frames = wire::encode_frames(&schema, &rows);
        prop_assert!(!frames.is_empty());
        let mut decoded = Vec::new();
        let mut logical = 0u64;
        for f in &frames {
            prop_assert!(wire::verify(f));
            logical += wire::frame_logical_len(f).unwrap();
            decoded.extend(wire::decode_rows(f, &schema).unwrap());
        }
        prop_assert_eq!(&decoded, &rows);
        prop_assert_eq!(logical, wire::logical_size(&rows) as u64);

        // Encoding is a pure function of (schema, rows).
        prop_assert_eq!(&frames, &wire::encode_frames(&schema, &rows));
    }
}

// ---------------------------------------------------------------------------
// Fleet: scatter/gather over sharded AOTs reproduces the single-accelerator
// answer for any topology
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A K-node fleet with hash-sharded AOT placement and any replication
    /// factor answers every query exactly like a single accelerator: shard
    /// placement is value-deterministic, each sharded scan's shards ship
    /// their partial at its cut (group states, distinct rows, a sorted run,
    /// filtered and projected rows) and the partials merge in fixed shard
    /// order — so topology is invisible to results (these integer queries,
    /// AVG over BIGINT included, are exact). Direct loads and analytics
    /// output follow the same placement: every owner holds its shards.
    #[test]
    fn fleet_and_single_accel_agree(
        rows in proptest::collection::vec(
            (0i64..1000, 0i64..50, "[a-c]{1}"),
            30..120,
        ),
        shards in 1usize..=4,
        accelerators in 1usize..=3,
        replicas in 1usize..=2,
    ) {
        // Each query with the merge its gather takes at (3, 4, 2).
        let queries = [
            ("SELECT COUNT(*) FROM f", "groups"),
            ("SELECT g, COUNT(*), SUM(a), MIN(b), MAX(b) FROM f GROUP BY g ORDER BY g", "groups"),
            ("SELECT COUNT(*), MIN(a), MAX(a) FROM f WHERE a BETWEEN 100 AND 700", "groups"),
            ("SELECT a, b FROM f WHERE b = 7 ORDER BY a, b", "run"),
            ("SELECT a, b, g FROM f ORDER BY a DESC, b, g LIMIT 10", "run"),
            ("SELECT AVG(b) FROM f WHERE g = 'a'", "groups"),
            ("SELECT COUNT(DISTINCT b) FROM f", "groups"),
            ("SELECT g, AVG(b), COUNT(DISTINCT b) FROM f GROUP BY g ORDER BY g", "groups"),
            ("SELECT DISTINCT g FROM f ORDER BY g", "distinct"),
            ("SELECT g, COUNT(*) FROM f GROUP BY g HAVING COUNT(*) > 10 ORDER BY g", "groups"),
            ("SELECT g, SUM(a) FROM f GROUP BY g ORDER BY SUM(a) DESC, g LIMIT 2", "groups"),
            ("SELECT COUNT(*) FROM (SELECT DISTINCT g FROM f) AS u", "distinct"),
            // Two sharded scans: each ships its rows below the join.
            ("SELECT x.g, COUNT(*) FROM f AS x INNER JOIN f AS y ON x.a = y.a \
              GROUP BY x.g ORDER BY x.g", "rows,rows"),
            ("SELECT x.a, y.b FROM (SELECT a, b FROM f WHERE b < 20) AS x \
              INNER JOIN (SELECT a, b FROM f WHERE b > 30) AS y ON x.a = y.a \
              ORDER BY x.a, y.b", "rows,rows"),
            ("SELECT x.a, x.b, y.a, y.g FROM f AS x INNER JOIN l AS y ON x.b = y.a \
              ORDER BY x.a, x.b, y.a, y.g", "rows,rows"),
            // Sharded ⋈ replicated: each shard joins against its own replica.
            ("SELECT x.a, d.name FROM f AS x INNER JOIN d ON x.a = d.a \
              ORDER BY x.a, d.name", "run"),
            ("SELECT d.name, COUNT(*), SUM(x.b) FROM f AS x INNER JOIN d ON x.a = d.a \
              GROUP BY d.name ORDER BY d.name", "groups"),
            ("SELECT x.a, d.name FROM f AS x LEFT JOIN d ON x.a = d.a \
              ORDER BY x.a, d.name", "run"),
            // The sharded side is the null-supplying side: its bare scan.
            ("SELECT d.a, d.name, x.b FROM d LEFT JOIN f AS x ON d.a = x.a \
              ORDER BY d.a, d.name, x.b", "rows"),
            // Sharded scans under a UNION, and a join above the cut.
            ("SELECT a FROM f WHERE b < 10 UNION SELECT a FROM d ORDER BY 1", "rows"),
            ("SELECT a FROM d UNION SELECT a FROM f ORDER BY 1", "rows"),
            ("SELECT a, g FROM f UNION ALL SELECT a, g FROM l ORDER BY 1, 2", "rows,rows"),
            ("SELECT t.g, t.c, d.name FROM (SELECT g, COUNT(*) AS c FROM f GROUP BY g) AS t \
              INNER JOIN d ON d.a < t.c ORDER BY t.g, d.name", "groups"),
            // The direct-loaded table and the LINREG model table.
            ("SELECT COUNT(*), SUM(a), SUM(b), MIN(g), MAX(g) FROM l", "groups"),
            ("SELECT g, COUNT(*), SUM(b) FROM l GROUP BY g ORDER BY g", "groups"),
            ("SELECT term, coefficient FROM lm ORDER BY term", "run"),
        ];
        #[allow(clippy::type_complexity)]
        let run = |config: IdaaConfig| -> (Vec<Vec<idaa::Row>>, Vec<String>, idaa::LinkMetrics, idaa::LinkMetrics) {
            let FleetConfig { accelerators: k, shards, replication_factor: rf, .. } = config.fleet;
            let idaa = Idaa::new(config);
            let mut s = idaa.session(SYSADM);
            idaa.execute(
                &mut s,
                "CREATE TABLE F (A BIGINT, B BIGINT, G VARCHAR(2)) IN ACCELERATOR \
                 DISTRIBUTE BY HASH(A)",
            ).unwrap();
            let vals: Vec<String> = rows
                .iter()
                .map(|(a, b, g)| format!("({a}, {b}, '{g}')"))
                .collect();
            for chunk in vals.chunks(50) {
                idaa.execute(&mut s, &format!("INSERT INTO F VALUES {}", chunk.join(", ")))
                    .unwrap();
            }
            idaa.execute(
                &mut s,
                "INSERT INTO F VALUES (1, NULL, NULL), (NULL, 5, 'a'), (NULL, NULL, NULL)",
            ).unwrap();
            // A small replicated dimension, whole on every node.
            idaa.execute(&mut s, "CREATE TABLE D (A BIGINT, NAME VARCHAR(2))").unwrap();
            idaa.execute(
                &mut s,
                "INSERT INTO D VALUES (1, 'x'), (7, 'y'), (100, 'z'), (500, 'w'), (NULL, 'n')",
            ).unwrap();
            idaa.execute(&mut s, "CALL ACCEL_ADD_TABLES('D')").unwrap();
            idaa.execute(&mut s, "CALL ACCEL_LOAD_TABLES('D')").unwrap();
            // The paper's other two paths on the same topology: a direct
            // load (several batches) of rows derived from the input, and an
            // in-database LINREG over its integer-valued columns — integer
            // sums are exact in f64, so the model does not depend on the
            // order shards hand their rows over.
            idaa.execute(
                &mut s,
                "CREATE TABLE L (A BIGINT, B BIGINT, G VARCHAR(2)) IN ACCELERATOR \
                 DISTRIBUTE BY HASH(B)",
            ).unwrap();
            let records: Vec<Vec<String>> = rows
                .iter()
                .map(|(a, b, g)| vec![b.to_string(), (a + b).to_string(), g.clone()])
                .chain([["0", "0", "z"], ["50", "1", "z"]].map(|r| r.map(String::from).to_vec()))
                .collect();
            let mut loader = idaa::loader::Loader::new(SYSADM);
            loader.config.batch_size = 16;
            let source = Box::new(idaa::loader::VecSource::new(records.clone()));
            loader.load(&idaa, source, &ObjectName::bare("L"), idaa::loader::LoadTarget::Auto).unwrap();
            // A DB2 table added to the accelerator takes a direct load on
            // every node, each a full replica.
            idaa.execute(&mut s, "CREATE TABLE R (A BIGINT, B BIGINT, G VARCHAR(2))").unwrap();
            idaa.execute(&mut s, "CALL ACCEL_ADD_TABLES('R')").unwrap();
            let source = Box::new(idaa::loader::VecSource::new(records.clone()));
            let target = idaa::loader::LoadTarget::AcceleratorDirect;
            loader.load(&idaa, source, &ObjectName::bare("R"), target).unwrap();
            let r = ObjectName::bare("R");
            let replicas: Vec<_> =
                (0..k).map(|i| sorted(idaa.node_engine(i).scan_at(Snapshot::latest(0), &r).unwrap())).collect();
            assert_eq!(replicas[0].len(), records.len());
            assert!(replicas.windows(2).all(|w| w[0] == w[1]), "replicas of R differ");
            idaa::analytics::deploy_all(&idaa, SYSADM).unwrap();
            idaa.query(&mut s, "CALL ANALYTICS.LINREG('L', 'B', 'A', 'LM')").unwrap();
            idaa.execute(&mut s, "SET CURRENT QUERY ACCELERATION = ELIGIBLE").unwrap();
            let (mut answers, mut merges) = (Vec::new(), Vec::new());
            for (q, _) in queries {
                answers.push(idaa.query(&mut s, q).unwrap().rows);
                let trace = idaa.tracer().last().unwrap();
                let merge = trace.root.find("gather").and_then(|g| g.attr("merge"));
                merges.push(merge.unwrap_or("whole").to_string());
            }
            // Every owner of every shard holds the same rows.
            for table in ["F", "L", "LM"] {
                for shard in 0..shards {
                    let st = idaa::shard_table(&ObjectName::bare(table), shard, shards);
                    let copies: Vec<Vec<idaa::Row>> = (0..rf.min(k))
                        .map(|r| sorted(idaa.node_engine((shard + r) % k).scan_at(Snapshot::latest(0), &st).unwrap()))
                        .collect();
                    assert!(copies.windows(2).all(|w| w[0] == w[1]), "replicas of {st} differ");
                }
            }
            (answers, merges, idaa.link().metrics(), idaa.fleet_link_metrics())
        };
        let (single, _, single_link, _) = run(IdaaConfig::default());
        // The drawn topology, and four fixed ones every case covers.
        let topologies = [(accelerators, shards, replicas), (1, 1, 1), (2, 1, 2), (2, 2, 1), (3, 4, 2)];
        for (accelerators, shards, replication_factor) in topologies {
            let (fleet, merges, _, fleet_links) = run(IdaaConfig {
                fleet: FleetConfig { accelerators, shards, replication_factor },
                ..IdaaConfig::default()
            });
            for (i, (lhs, rhs)) in single.iter().zip(&fleet).enumerate() {
                prop_assert_eq!(
                    lhs, rhs, "fleet {:?} disagreed with single accelerator on {}",
                    (accelerators, shards, replication_factor), queries[i].0
                );
            }
            if (accelerators, shards, replication_factor) == (3, 4, 2) {
                let expected: Vec<&str> = queries.iter().map(|(_, merge)| *merge).collect();
                prop_assert_eq!(merges, expected);
            }
            // A fleet of one node and one shard *is* the single accelerator:
            // not just the answers but every byte on the wire must match.
            if (accelerators, shards, replication_factor) == (1, 1, 1) {
                prop_assert_eq!(&fleet_links, &single_link);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Server: the workload scheduler is deterministic and fair
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A random (session count × priority mix × submission schedule)
    /// replayed on two fresh servers produces byte-identical completions,
    /// `server.*` metrics, statement traces, and `SHOW WORKLOAD` output —
    /// and within the top priority class no ready seat starves: a
    /// statement's wait stays linearly bounded by its position in its
    /// seat's FIFO times the class size (round-robin), never by the total
    /// backlog.
    #[test]
    fn scheduler_is_deterministic_and_fair(
        priorities in proptest::collection::vec(0i64..4, 2..6),
        schedule in proptest::collection::vec((0usize..8, 0usize..4), 8..32),
        limit in 1usize..4,
    ) {
        use idaa::{Priority, Server, ServerConfig};
        let prio = |rank: i64| match rank {
            0 => Priority::Low,
            1 => Priority::Normal,
            2 => Priority::High,
            _ => Priority::System,
        };
        struct RunOut {
            report: String,
            completions: Vec<(u64, i64, u64)>, // (seat, priority rank, waited_rounds)
        }
        let run = |priorities: &[i64], schedule: &[(usize, usize)]| -> RunOut {
            let idaa = Idaa::default();
            let mut setup = idaa.session(SYSADM);
            idaa.execute(&mut setup, "CREATE TABLE W (A BIGINT, G VARCHAR(2))").unwrap();
            idaa.execute(
                &mut setup,
                "INSERT INTO W VALUES (1, 'a'), (2, 'b'), (3, 'a'), (4, 'c')",
            ).unwrap();
            let srv = Server::with_idaa(
                idaa,
                ServerConfig { admission_limit: limit, ..ServerConfig::default() },
            );
            let seats: Vec<u64> = priorities
                .iter()
                .map(|r| srv.connect_with_priority(SYSADM, prio(*r)).unwrap())
                .collect();
            for (i, (sel, kind)) in schedule.iter().enumerate() {
                let seat = seats[sel % seats.len()];
                let sql = match kind {
                    0 => "SELECT COUNT(*) FROM W".to_string(),
                    1 => "SELECT A, G FROM W ORDER BY A, G".to_string(),
                    2 => format!("INSERT INTO W VALUES ({}, 'z')", 100 + i),
                    _ => "SET CURRENT QUERY ACCELERATION = NONE".to_string(),
                };
                srv.submit(seat, &sql).unwrap();
            }
            let done = srv.run_until_idle();
            // Byte-stable report: completions, full metrics registry,
            // full trace renders, and the SHOW WORKLOAD rows.
            let mut report = String::new();
            for c in &done {
                let outcome = match &c.result {
                    Ok(out) => format!("{:?}", out.payload),
                    Err(e) => format!("sqlcode {}", e.sqlcode()),
                };
                report.push_str(&format!(
                    "seat={} stmt={} round={} waited={} queued_us={} sql={} -> {}\n",
                    c.session, c.statement, c.round, c.waited_rounds,
                    c.queued.as_micros(), c.sql, outcome,
                ));
            }
            report.push_str(&srv.idaa().metrics().render());
            for t in srv.idaa().tracer().statements() {
                report.push_str(&t.render());
                report.push('\n');
            }
            let mut viewer = srv.idaa().session(SYSADM);
            report.push_str(&srv.idaa().query(&mut viewer, "SHOW WORKLOAD").unwrap().to_csv());
            let completions = done
                .iter()
                .map(|c| {
                    let rank = prio(priorities[seats.iter().position(|s| *s == c.session).unwrap()]).rank();
                    (c.session, rank, c.waited_rounds)
                })
                .collect();
            RunOut { report, completions }
        };
        let first = run(&priorities, &schedule);
        let second = run(&priorities, &schedule);
        prop_assert_eq!(
            &first.report,
            &second.report,
            "same submission schedule must replay byte-identically"
        );
        // Every submitted statement completed exactly once.
        prop_assert_eq!(first.completions.len(), schedule.len());
        // Fairness in the top class (nothing above it can delay it): the
        // i-th statement of a seat's FIFO waits O(i * class_size) rounds,
        // independent of how much total backlog other classes hold.
        let top = first.completions.iter().map(|(_, r, _)| *r).max().unwrap_or(0);
        let class_seats: std::collections::BTreeSet<u64> = first
            .completions
            .iter()
            .filter(|(_, r, _)| *r == top)
            .map(|(s, _, _)| *s)
            .collect();
        let k = class_seats.len() as u64;
        for seat in &class_seats {
            for (i, (_, _, waited)) in first
                .completions
                .iter()
                .filter(|(s, _, _)| s == seat)
                .enumerate()
            {
                let bound = (i as u64 + 2) * k + 2;
                prop_assert!(
                    *waited <= bound,
                    "seat {} statement {} waited {} rounds (> bound {}): starvation",
                    seat, i, waited, bound
                );
            }
        }
    }
}
