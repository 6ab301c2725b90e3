//! A run is a function of its seed and script, not of the process.
//!
//! Every identity a run mints is numbered by the federation that mints it:
//! DB2's transaction manager numbers every transaction (the accelerator's
//! internal loads and replication batches included) and each `Idaa`
//! numbers its own sessions. So the same seeded script, run twice in one
//! process — on two threads at once, or one system after another — leaves
//! every observable byte-identical: each node's state fingerprint, durable
//! log and checkpoint, DB2's rows, the link metrics, the metrics registry
//! and every rendered statement trace.

use idaa::host::TableKind;
use idaa::netsim::sites;
use idaa::sql::Privilege;
use idaa::{
    ExecOutcome, FleetConfig, Idaa, IdaaConfig, ObjectName, Result, Row, Server, ServerConfig,
    SitePlan, Trace, Value, SYSADM,
};
use std::sync::Barrier;
use std::time::Duration;

/// splitmix64, the generator the fault registry's stream uses.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Everything a run lets a caller observe, each part rendered.
struct Observed {
    /// Per node: the state fingerprint and the durable media.
    nodes: Vec<(u64, String)>,
    host_rows: String,
    fleet_link: String,
    metrics: String,
    traces: String,
    /// Every statement's outcome, the server's completions included.
    outcomes: String,
}

/// What an engine's disk holds: the log's extent, and the newest
/// checkpoint plus every log record past it, as recovery reads them.
fn durable(engine: &idaa::AccelEngine) -> String {
    let store = engine.durable();
    let scan = store.recover_scan().expect("the media must be readable");
    let extent = (store.last_lsn(), store.log_len(), store.log_bytes());
    format!("{extent:?}\n{scan:?}")
}

/// A statement's outcome: where it ran and what it returned, or its
/// SQLCODE under faults.
fn outcome(result: &Result<ExecOutcome>) -> String {
    match result {
        Ok(o) => format!("{:?} {:?}", o.route, o.payload),
        Err(e) => format!("sqlcode {}", e.sqlcode()),
    }
}

/// Run `sqls` in order on one session, recording each outcome.
fn exec(idaa: &Idaa, sqls: &[&str], out: &mut String) {
    let mut s = idaa.session(SYSADM);
    for sql in sqls {
        let result = idaa.execute(&mut s, sql);
        out.push_str(&format!("{sql} -> {}\n", outcome(&result)));
    }
}

const SALES_BY_REGION: &str =
    "SELECT REGION, COUNT(*), SUM(AMOUNT) FROM SALES GROUP BY REGION ORDER BY REGION";
const FLOG_BY_G: &str = "SELECT G, COUNT(*), SUM(X) FROM FLOG GROUP BY G ORDER BY G";

/// The seeded script at (K=3, shards=4, rf=2): a replicated table and an
/// AOT, `ACCEL_LOAD_TABLES` and a direct load, an analytics `CALL` that
/// writes an output AOT, then a two-seat server schedule with replication
/// rounds under one `SitePlan` on node 1 — link drops and one crash in the
/// middle of a replication apply — and every node's restart.
fn run(seed: u64) -> Observed {
    let mut rng = Rng(seed);
    let mut out = String::new();
    let idaa = Idaa::new(IdaaConfig {
        fleet: FleetConfig { accelerators: 3, shards: 4, replication_factor: 2 },
        ..IdaaConfig::default()
    });
    let regions = ["EU", "US", "APAC"];
    let sales: Vec<String> = (0..40)
        .map(|i| format!("({i}, '{}', {})", regions[rng.below(3) as usize], rng.below(1000)))
        .collect();
    let insert = format!("INSERT INTO SALES VALUES {}", sales.join(", "));
    exec(
        &idaa,
        &[
            "CREATE TABLE SALES (ID INT NOT NULL, REGION VARCHAR(8), AMOUNT BIGINT)",
            &insert,
            "CALL ACCEL_ADD_TABLES('SALES')",
            "CALL ACCEL_LOAD_TABLES('SALES')",
            "CREATE TABLE FLOG (X INT NOT NULL, G VARCHAR(2)) IN ACCELERATOR DISTRIBUTE BY HASH(X)",
            "CREATE TABLE L (A BIGINT, B BIGINT, G VARCHAR(2)) IN ACCELERATOR DISTRIBUTE BY HASH(B)",
        ],
        &mut out,
    );
    let rows: Vec<Row> = (0..48)
        .map(|i| {
            let b = rng.below(50) as i64;
            let g = ["a", "b"][(i % 2) as usize];
            vec![Value::BigInt(3 * b + i % 5), Value::BigInt(b), Value::Varchar(g.into())]
        })
        .collect();
    let l = ObjectName::qualified("APP", "L");
    let grants = idaa.authorize(SYSADM, &Trace::disabled(), [(&l, Privilege::Insert)]).unwrap();
    idaa.load_direct(&grants[0], |write| {
        rows.chunks(16).try_for_each(|c| write(c.to_vec()))
    })
    .unwrap();
    idaa::analytics::deploy_all(&idaa, SYSADM).unwrap();
    exec(&idaa, &["CALL ANALYTICS.LINREG('L', 'B', 'A', 'LM')"], &mut out);

    idaa.set_fault_plan_on(
        1,
        SitePlan::at(sites::MID_REPL_APPLY, 2)
            .seeded(seed)
            .and_probabilistic(sites::LINK_DROP_TO_ACCEL, 0.1)
            .and_probabilistic(sites::LINK_DROP_TO_HOST, 0.1),
    );
    // A fixed admission limit: the default derives it from the worker count.
    let config = ServerConfig { admission_limit: 2, ..ServerConfig::default() };
    let srv = Server::with_idaa(idaa, config);
    let seats = [srv.connect(SYSADM).unwrap(), srv.connect(SYSADM).unwrap()];
    for seat in seats {
        srv.submit(seat, "SET CURRENT QUERY ACCELERATION = ELIGIBLE").unwrap();
    }
    for round in 0..4 {
        for i in 0..6 {
            let seat = seats[rng.below(2) as usize];
            let sql = match rng.below(5) {
                0 => format!("INSERT INTO SALES VALUES ({}, 'EU', 7)", 100 + 10 * round + i),
                1 => format!("DELETE FROM SALES WHERE ID = {}", rng.below(40)),
                2 => format!("INSERT INTO FLOG VALUES ({}, 'a')", rng.below(100)),
                3 => SALES_BY_REGION.to_string(),
                _ => FLOG_BY_G.to_string(),
            };
            srv.submit(seat, &sql).unwrap();
        }
        for c in srv.run_until_idle() {
            let (seat, stmt, sql) = (c.session, c.statement, &c.sql);
            out.push_str(&format!("seat {seat} #{stmt}: {sql} -> {}\n", outcome(&c.result)));
        }
        let applied = srv.idaa().replicate_now().map_err(|e| e.sqlcode());
        out.push_str(&format!("replication round {round}: {applied:?}\n"));
        srv.idaa().link().advance(Duration::from_millis(5));
    }
    let idaa = srv.idaa();
    let fired = idaa.node_registry(1).fired();
    assert!(
        fired.iter().any(|(site, _)| site == sites::MID_REPL_APPLY),
        "the crash must fire: {fired:?}"
    );
    idaa.set_fault_plan_on(1, SitePlan::default());
    for i in 0..idaa.fleet_size() {
        assert!(idaa.recover_node(i), "node {i} must recover once the faults stop");
    }
    exec(
        idaa,
        &[
            "SET CURRENT QUERY ACCELERATION = ELIGIBLE",
            SALES_BY_REGION,
            FLOG_BY_G,
            "SELECT COUNT(*), SUM(A), SUM(B) FROM L",
            "SELECT TERM, COEFFICIENT FROM LM ORDER BY TERM",
        ],
        &mut out,
    );

    let nodes = (0..idaa.fleet_size())
        .map(|i| (idaa.node_engine(i).state_fingerprint(), durable(idaa.node_engine(i))))
        .collect();
    let mut host_rows = String::new();
    for name in idaa.host().table_names() {
        if idaa.host().table_meta(&name).unwrap().kind == TableKind::Regular {
            let rows = idaa.host().read_table(0, &name).unwrap();
            host_rows.push_str(&format!("{name}: {rows:?}\n"));
        }
    }
    let traces = idaa.tracer().statements().iter().map(|t| t.render() + "\n").collect();
    Observed {
        nodes,
        host_rows,
        fleet_link: format!("{:?}", idaa.fleet_link_metrics()),
        metrics: idaa.metrics().snapshot().render(),
        traces,
        outcomes: out,
    }
}

/// Assert two renderings agree, showing where they first differ.
fn same(what: &str, a: &str, b: &str) {
    let Some(at) = a.bytes().zip(b.bytes()).position(|(x, y)| x != y) else {
        return assert_eq!(a.len(), b.len(), "{what} differs in length");
    };
    let line = 1 + a.as_bytes()[..at].iter().filter(|&&c| c == b'\n').count();
    let around = |s: &str| {
        let window = at.saturating_sub(80)..(at + 80).min(s.len());
        String::from_utf8_lossy(&s.as_bytes()[window]).into_owned()
    };
    panic!("{what} differs on line {line}:\n  …{}…\n  …{}…", around(a), around(b));
}

#[test]
fn one_seeded_script_run_twice_at_once_is_byte_identical() {
    const SEED: u64 = 0x1DAA_5EED;
    let barrier = Barrier::new(2);
    let [a, b] = std::thread::scope(|scope| {
        let runs = [(); 2].map(|()| {
            scope.spawn(|| {
                barrier.wait();
                run(SEED)
            })
        });
        runs.map(|r| r.join().unwrap())
    });
    for (i, (x, y)) in a.nodes.iter().zip(&b.nodes).enumerate() {
        same(&format!("node {i}'s durable media"), &x.1, &y.1);
        assert_eq!(x.0, y.0, "node {i}'s state fingerprint differs");
    }
    same("DB2's rows", &a.host_rows, &b.host_rows);
    same("the fleet's link metrics", &a.fleet_link, &b.fleet_link);
    same("the metrics registry", &a.metrics, &b.metrics);
    same("the statement traces", &a.traces, &b.traces);
    same("the statement outcomes", &a.outcomes, &b.outcomes);
    // The script did what it claims: both seats ran, node 1's link dropped
    // messages, and every trace carries its session header.
    assert!(a.outcomes.contains("seat 1 ") && a.outcomes.contains("seat 2 "), "{}", a.outcomes);
    assert!(a.metrics.contains("link.node1.failures"), "{}", a.metrics);
    assert!(a.traces.starts_with("-- session "), "{}", a.traces);
}

/// The short federation-level probe: two default systems, built one after
/// the other in one test, run the same script and end in the same state.
#[test]
fn two_federations_built_in_turn_end_in_the_same_state() {
    let run = || {
        let idaa = Idaa::default();
        idaa::analytics::deploy_all(&idaa, SYSADM).unwrap();
        let mut out = String::new();
        exec(
            &idaa,
            &[
                "CREATE TABLE T (K BIGINT, V BIGINT)",
                "INSERT INTO T VALUES (1, 2), (2, 3), (3, 5), (4, 4)",
                "CALL ACCEL_ADD_TABLES('T')",
                "CALL ACCEL_LOAD_TABLES('T')",
                "INSERT INTO T VALUES (5, 7)",
            ],
            &mut out,
        );
        idaa.replicate_now().unwrap();
        exec(&idaa, &["CALL ANALYTICS.LINREG('T', 'V', 'K', 'M')"], &mut out);
        assert!(!out.contains("sqlcode"), "{out}");
        (idaa.accel().state_fingerprint(), durable(idaa.accel()))
    };
    let (first, second) = (run(), run());
    same("the durable media", &first.1, &second.1);
    assert_eq!(first.0, second.0, "the state fingerprints differ");
}
