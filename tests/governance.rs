//! DB2 authorizes each statement once, before any work.
//!
//! A statement or a load is authorized for every (object, privilege) pair
//! it touches in one step on DB2's privilege catalog, and nothing precedes
//! that step: no transaction, no route, no accelerator restart, no link
//! byte. An analytics `CALL` is authorized for EXECUTE first and for each
//! table before its rows are touched. So a denied request answers -551 and
//! leaves no trace — the link metrics, every node's crash state and state
//! fingerprint, and DB2's rows and catalog are as they were. The regression
//! tests pin one shape each; the property draws grants, revokes and
//! requests at one and at three accelerators, with and without a crashed
//! node, and checks every outcome against a reference predicate.

use idaa::analytics::deploy_all;
use idaa::loader::{LoadTarget, Loader, VecSource};
use idaa::sql::Privilege;
use idaa::{FleetConfig, Idaa, IdaaConfig, LinkMetrics, ObjectName, Session, Value, SYSADM};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

const MODES: [&str; 4] = ["NONE", "ENABLE", "ELIGIBLE", "ALL"];

fn fleet() -> IdaaConfig {
    let fleet = FleetConfig { accelerators: 3, shards: 4, replication_factor: 2 };
    IdaaConfig { fleet, ..IdaaConfig::default() }
}

fn run(idaa: &Idaa, s: &mut Session, sqls: &[&str]) {
    for sql in sqls {
        idaa.execute(s, sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    }
}

/// The SQLCODE a statement answers with (0 on success).
fn sqlcode(idaa: &Idaa, s: &mut Session, sql: &str) -> i32 {
    idaa.execute(s, sql).map_or_else(|e| e.sqlcode(), |_| 0)
}

/// SYSADM's accelerator-only table A1 with 32 rows over `idaa`'s fleet.
fn with_a1(idaa: &Idaa) {
    let mut admin = idaa.session(SYSADM);
    let values: Vec<String> = (0..32).map(|i| format!("({i}, {})", i % 5)).collect();
    run(
        idaa,
        &mut admin,
        &[
            "CREATE TABLE A1 (K INT NOT NULL, V INT) IN ACCELERATOR DISTRIBUTE BY HASH(K)",
            &format!("INSERT INTO A1 VALUES {}", values.join(", ")),
        ],
    );
}

#[test]
fn a_table_named_sysdummy1_is_governed_like_any_other() {
    let idaa = Idaa::default();
    let mut alice = idaa.session("ALICE");
    let create = "CREATE TABLE APP.SYSDUMMY1 (SECRET INT)";
    run(&idaa, &mut alice, &[create, "INSERT INTO APP.SYSDUMMY1 VALUES (42)"]);
    let mut bob = idaa.session("BOB");
    assert_eq!(sqlcode(&idaa, &mut bob, "SELECT * FROM APP.SYSDUMMY1"), -551);
    let rows = idaa.query(&mut alice, "SELECT * FROM APP.SYSDUMMY1").unwrap();
    assert_eq!(rows.rows, vec![vec![Value::Int(42)]]);
}

#[test]
fn from_less_selects_need_no_privilege_under_every_mode() {
    let idaa = Idaa::default();
    let mut nobody = idaa.session("NOBODY");
    for mode in MODES {
        run(&idaa, &mut nobody, &[&format!("SET CURRENT QUERY ACCELERATION = {mode}")]);
        for (sql, want) in [("SELECT 1 + 1", 2), ("SELECT 1 FROM SYSDUMMY1", 1)] {
            let out = idaa.execute(&mut nobody, sql);
            let out = out.unwrap_or_else(|e| panic!("{mode}: {sql}: {e}"));
            assert_eq!(out.route, idaa::Route::Host, "{mode}: {sql}");
            let rows = &out.rows().unwrap().rows;
            assert_eq!(rows.len(), 1, "{mode}: {sql}");
            assert_eq!(rows[0][0].as_i64().unwrap(), want, "{mode}: {sql}");
        }
    }
}

/// With every node of `config`'s fleet crashed, a grantless read of A1 is
/// -551, restarts nothing and moves nothing.
fn denied_read_on_crashed_nodes(config: IdaaConfig) {
    let idaa = Idaa::new(config);
    with_a1(&idaa);
    for i in 0..idaa.fleet_size() {
        idaa.node_engine(i).crash();
    }
    let before = idaa.fleet_link_metrics();
    let mut carol = idaa.session("CAROL");
    run(&idaa, &mut carol, &["SET CURRENT QUERY ACCELERATION = ELIGIBLE"]);
    assert_eq!(sqlcode(&idaa, &mut carol, "SELECT * FROM A1"), -551);
    assert_eq!(idaa.fleet_link_metrics(), before, "a denied read moved link traffic");
    for i in 0..idaa.fleet_size() {
        assert!(idaa.node_engine(i).is_crashed(), "a denied read restarted node {i}");
    }
}

#[test]
fn a_denied_read_leaves_a_crashed_accelerator_crashed() {
    denied_read_on_crashed_nodes(IdaaConfig::default());
}

#[test]
fn a_denied_read_leaves_a_crashed_fleet_crashed() {
    denied_read_on_crashed_nodes(fleet());
}

#[test]
fn a_denied_insert_select_into_db2_runs_no_source() {
    let idaa = Idaa::default();
    let mut admin = idaa.session(SYSADM);
    let values: Vec<String> = (0..64).map(|i| format!("({i}, {})", i * 3)).collect();
    run(
        &idaa,
        &mut admin,
        &[
            "CREATE TABLE SRC (K INT NOT NULL, V INT)",
            &format!("INSERT INTO SRC VALUES {}", values.join(", ")),
            "CALL ACCEL_ADD_TABLES('SRC')",
            "CALL ACCEL_LOAD_TABLES('SRC')",
            "CREATE TABLE HOSTT (K INT NOT NULL, V INT)",
            "GRANT SELECT ON SRC TO BOB",
        ],
    );
    let mut bob = idaa.session("BOB");
    run(&idaa, &mut bob, &["SET CURRENT QUERY ACCELERATION = ALL"]);
    let before = idaa.fleet_link_metrics();
    assert_eq!(sqlcode(&idaa, &mut bob, "INSERT INTO HOSTT SELECT * FROM SRC"), -551);
    assert_eq!(idaa.fleet_link_metrics(), before, "a denied INSERT … SELECT ran its source");
}

#[test]
fn a_denied_scatter_insert_select_runs_no_source() {
    let idaa = Idaa::new(fleet());
    with_a1(&idaa);
    let mut admin = idaa.session(SYSADM);
    run(
        &idaa,
        &mut admin,
        &["CREATE TABLE A2 (K INT NOT NULL, V INT) IN ACCELERATOR", "GRANT SELECT ON A1 TO BOB"],
    );
    let mut bob = idaa.session("BOB");
    let before = idaa.fleet_link_metrics();
    assert_eq!(sqlcode(&idaa, &mut bob, "INSERT INTO A2 SELECT * FROM A1"), -551);
    assert_eq!(idaa.fleet_link_metrics(), before, "a denied INSERT … SELECT ran its source");
}

#[test]
fn a_stopped_accelerator_does_not_hide_a_privilege_error() {
    let idaa = Idaa::default();
    with_a1(&idaa);
    idaa.faults.accel_unavailable.store(true, std::sync::atomic::Ordering::Relaxed);
    let mut carol = idaa.session("CAROL");
    assert_eq!(sqlcode(&idaa, &mut carol, "SELECT COUNT(*) FROM A1"), -551);
    assert_eq!(sqlcode(&idaa, &mut carol, "INSERT INTO A1 VALUES (1, 1)"), -551);
}

// ---------------------------------------------------------------------------
// The property: an operation runs exactly when DB2 grants it
// ---------------------------------------------------------------------------

/// The users who draw grants and run requests; none is an administrator.
const USERS: [&str; 3] = ["ALICE", "BOB", "CAROL"];

/// The governed objects with their owners. ALICE owns the DB2 table —
/// named like DB2's dummy table, so only its schema tells them apart — and
/// one accelerator-only table; SYSADM owns the accelerated table, the
/// other accelerator-only table and both procedures.
const OBJECTS: [(&str, &str); 6] = [
    ("APP.SYSDUMMY1", "ALICE"),
    ("APP.R", SYSADM),
    ("APP.A1", SYSADM),
    ("APP.A2", "ALICE"),
    ("SYSPROC.ACCEL_GROOM_TABLES", SYSADM),
    ("ANALYTICS.DESCRIBE", SYSADM),
];
const H: usize = 0;
const R: usize = 1;
const A1: usize = 2;
const A2: usize = 3;
const P1: usize = 4;
const P2: usize = 5;
const TABLES: [usize; 4] = [H, R, A1, A2];

/// What a property case asks for, by one user.
#[derive(Debug)]
enum Request {
    Sql(String),
    Load(usize, LoadTarget),
}

/// Request `op` (with its table choice `arg`; `n` numbers new names) and
/// the (object, privilege) pairs it needs.
fn request(op: usize, arg: usize, n: usize) -> (Request, Vec<(usize, Privilege)>) {
    use Privilege::*;
    let name = |o: usize| OBJECTS[o].0;
    let pick = |choices: &[usize]| choices[arg % choices.len()];
    let sql = |text: String, needs: Vec<(usize, Privilege)>| (Request::Sql(text), needs);
    match op {
        0 => {
            let t = pick(&TABLES);
            sql(format!("SELECT COUNT(*) FROM {}", name(t)), vec![(t, Select)])
        }
        1 => {
            let (a, b) = [(A1, A2), (R, A1), (H, R)][arg % 3];
            let text = format!(
                "SELECT COUNT(*) FROM {} X INNER JOIN {} Y ON X.K = Y.K",
                name(a),
                name(b)
            );
            sql(text, vec![(a, Select), (b, Select)])
        }
        2 => {
            let t = pick(&TABLES);
            sql(format!("INSERT INTO {} VALUES ({}, 1)", name(t), 100 + n), vec![(t, Insert)])
        }
        // Accelerator-only targets: the pushdown at one shard, the scatter
        // at four.
        3 | 4 => {
            let (to, from) = if op == 3 { [(A2, A1), (A1, R)] } else { [(H, A1), (R, H)] }[arg % 2];
            let text = format!("INSERT INTO {} SELECT * FROM {}", name(to), name(from));
            sql(text, vec![(to, Insert), (from, Select)])
        }
        5 => {
            let t = pick(&TABLES);
            sql(format!("UPDATE {} SET V = V + 1 WHERE K = 1", name(t)), vec![(t, Update)])
        }
        6 => {
            let t = pick(&TABLES);
            sql(format!("DELETE FROM {} WHERE K = 2", name(t)), vec![(t, Delete)])
        }
        7 => {
            let t = pick(&[H, R]);
            sql(format!("CREATE INDEX IX{n} ON {} (K)", name(t)), vec![(t, All)])
        }
        8 => sql(format!("CALL {}()", name(P1)), vec![(P1, Execute)]),
        9 => {
            let t = pick(&[R, A1, A2]);
            let text = format!("CALL {}('{}', 'APP.D{n}')", name(P2), name(t));
            sql(text, vec![(P2, Execute), (t, Select)])
        }
        10 => {
            let t = pick(&[H, R]);
            (Request::Load(t, LoadTarget::Db2), vec![(t, Insert)])
        }
        11 => {
            let t = pick(&[A1, A2]);
            (Request::Load(t, LoadTarget::AcceleratorDirect), vec![(t, Insert)])
        }
        _ => {
            let t = pick(&TABLES);
            sql(format!("DROP TABLE {}", name(t)), vec![(t, All)])
        }
    }
}
const OPS: usize = 12;
const DROP: usize = OPS;

fn perform(idaa: &Idaa, s: &mut Session, request: &Request) -> idaa::Result<()> {
    match request {
        Request::Sql(sql) => idaa.execute(s, sql).map(drop),
        Request::Load(t, target) => {
            let records = (0..4).map(|i| vec![format!("{}", 200 + i), "7".into()]).collect();
            let source = Box::new(VecSource::new(records));
            let table = ObjectName::from(OBJECTS[*t].0);
            Loader::new(&s.user).load(idaa, source, &table, *target).map(drop)
        }
    }
}

/// The reference predicate: a user may do what it owns, and what it holds
/// a grant of that privilege or of ALL for (no user is an administrator).
#[derive(Default)]
struct Reference {
    grants: HashMap<(usize, usize), HashSet<Privilege>>,
}

impl Reference {
    fn allows(&self, user: usize, needs: &[(usize, Privilege)]) -> bool {
        needs.iter().all(|&(o, p)| {
            let held = self.grants.get(&(user, o));
            OBJECTS[o].1 == USERS[user]
                || held.is_some_and(|set| set.contains(&p) || set.contains(&Privilege::All))
        })
    }

    fn change(&mut self, user: usize, object: usize, p: Privilege, grant: bool) {
        let set = self.grants.entry((user, object)).or_default();
        match (grant, p) {
            (true, _) => drop(set.insert(p)),
            (false, Privilege::All) => set.clear(),
            (false, _) => drop(set.remove(&p)),
        }
    }
}

/// Everything a denied request must leave as it was.
#[derive(Debug, PartialEq)]
struct Footprint {
    link: LinkMetrics,
    crashed: Vec<bool>,
    /// Each live node's state fingerprint.
    states: Vec<Option<u64>>,
    /// Row counts of the two DB2 tables.
    host_rows: Vec<usize>,
    catalog: Vec<String>,
}

fn footprint(idaa: &Idaa) -> Footprint {
    let nodes = 0..idaa.fleet_size();
    let crashed: Vec<bool> = nodes.clone().map(|i| idaa.node_engine(i).is_crashed()).collect();
    let state = |i: usize| (!crashed[i]).then(|| idaa.node_engine(i).state_fingerprint());
    let mut catalog: Vec<String> =
        idaa.host().table_names().iter().map(|t| t.to_string()).collect();
    catalog.sort();
    Footprint {
        link: idaa.fleet_link_metrics(),
        states: nodes.map(state).collect(),
        crashed,
        host_rows: [H, R].map(|t| idaa.host().scan_count(&ObjectName::from(OBJECTS[t].0))).to_vec(),
        catalog,
    }
}

/// The case's system: the objects with a few rows each, the analytics
/// procedures deployed, and every user's session at ELIGIBLE.
fn governed_system(fleet_of_three: bool) -> (Idaa, Vec<Session>) {
    let idaa = Idaa::new(if fleet_of_three { fleet() } else { IdaaConfig::default() });
    deploy_all(&idaa, SYSADM).unwrap();
    let values: Vec<String> = (0..16).map(|i| format!("({i}, {})", i % 3)).collect();
    let values = values.join(", ");
    let mut admin = idaa.session(SYSADM);
    run(
        &idaa,
        &mut admin,
        &[
            "CREATE TABLE R (K INT NOT NULL, V INT)",
            &format!("INSERT INTO R VALUES {values}"),
            "CALL ACCEL_ADD_TABLES('R')",
            "CALL ACCEL_LOAD_TABLES('R')",
            "CREATE TABLE A1 (K INT NOT NULL, V INT) IN ACCELERATOR DISTRIBUTE BY HASH(K)",
            &format!("INSERT INTO A1 VALUES {values}"),
        ],
    );
    let mut alice = idaa.session("ALICE");
    run(
        &idaa,
        &mut alice,
        &[
            "CREATE TABLE APP.SYSDUMMY1 (K INT NOT NULL, V INT)",
            &format!("INSERT INTO APP.SYSDUMMY1 VALUES {values}"),
            "CREATE TABLE A2 (K INT NOT NULL, V INT) IN ACCELERATOR",
            &format!("INSERT INTO A2 VALUES {values}"),
        ],
    );
    let sessions = USERS
        .iter()
        .map(|u| {
            let mut s = idaa.session(u);
            run(&idaa, &mut s, &["SET CURRENT QUERY ACCELERATION = ELIGIBLE"]);
            s
        })
        .collect();
    (idaa, sessions)
}

/// Cases per run: `PROPTEST_CASES` when set (CI raises it), else a budget
/// that fits the debug test run.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(48)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: cases() })]

    #[test]
    fn an_operation_runs_exactly_when_db2_grants_it(
        fleet_of_three in any::<bool>(),
        changes in collection::vec((0usize..3, 0usize..6, 0usize..5, 0usize..4), 0..40),
        crash in option::of(0usize..3),
        ops in collection::vec((0usize..OPS, 0usize..3, 0usize..12), 1..8),
        drop_last in option::of((0usize..3, 0usize..4)),
    ) {
        let (idaa, mut sessions) = governed_system(fleet_of_three);
        let mut reference = Reference::default();
        let mut owners: HashMap<&str, Session> = HashMap::new();
        // Three grants to one revoke.
        for (user, object, p, kind) in changes {
            let grant = kind > 0;
            use Privilege::*;
            let privileges: &[Privilege] =
                if object >= P1 { &[Execute, All] } else { &[Select, Insert, Update, Delete, All] };
            let p = privileges[p % privileges.len()];
            let (name, owner) = OBJECTS[object];
            let (verb, to) = if grant { ("GRANT", "TO") } else { ("REVOKE", "FROM") };
            let s = owners.entry(owner).or_insert_with(|| idaa.session(owner));
            run(&idaa, s, &[&format!("{verb} {p} ON {name} {to} {}", USERS[user])]);
            reference.change(user, object, p, grant);
        }
        if let Some(node) = crash {
            idaa.node_engine(node % idaa.fleet_size()).crash();
        }
        let drop = drop_last.map(|(user, arg)| (DROP, user, arg));
        for (n, (op, user, arg)) in ops.into_iter().chain(drop).enumerate() {
            let (request, needs) = request(op, arg, n);
            let allowed = reference.allows(user, &needs);
            let before = footprint(&idaa);
            let result = perform(&idaa, &mut sessions[user], &request);
            let who = USERS[user];
            match result {
                Ok(()) => assert!(allowed, "{who} ran {request:?} without a grant for {needs:?}"),
                Err(e) if allowed => panic!("{who} holds {needs:?} but {request:?} failed: {e}"),
                Err(e) => {
                    assert_eq!(e.sqlcode(), -551, "{who}'s denied {request:?} answered {e}");
                    assert_eq!(footprint(&idaa), before, "{who}'s denied {request:?} left a trace");
                }
            }
        }
    }
}
