//! Structural rules of the code base, checked against the source tree:
//! deleted machinery stays deleted, every engine runs one set of row
//! operators on one plan walk, the accelerator has one fan-out, only
//! `idaa-core` decides where accelerator rows live and it does so in one
//! placement function, wall time is read only where it is measured, every
//! config field is set by some caller, recoverable accelerator state has
//! one image, every read of accelerator rows follows one rule, injected
//! faults draw from one seeded stream, the link counts only through
//! registry handles, product code keeps no process-global state, only DB2
//! authorizes, a session's unit of work is one value whose control records
//! ride its statements, and every message leaves through one send.

use std::path::{Path, PathBuf};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `dir` (relative to the repository root), with its
/// text.
fn sources(dir: &str) -> Vec<(PathBuf, String)> {
    let mut out = Vec::new();
    let mut stack = vec![root().join(dir)];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let text = std::fs::read_to_string(&path).unwrap();
                out.push((path, text));
            }
        }
    }
    out
}

/// A file's text before its unit-test module.
fn product(text: &str) -> &str {
    text.split("\n#[cfg(test)]").next().unwrap_or(text)
}

/// The function declared by `decl` in `src`, up to its closing brace.
fn body<'a>(src: &'a str, decl: &str) -> &'a str {
    let start = src.find(decl).unwrap_or_else(|| panic!("no `{decl}`"));
    let len = src[start..].find("\n}\n").unwrap_or_else(|| panic!("`{decl}` never ends"));
    &src[start..start + len]
}

/// Every `.rs` file under a `src` directory of `crates/`, with its text
/// before the unit tests.
fn product_sources() -> Vec<(PathBuf, String)> {
    sources("crates")
        .into_iter()
        .filter(|(path, _)| path.components().any(|c| c.as_os_str() == "src"))
        .map(|(path, text)| (path, product(&text).to_string()))
        .collect()
}

/// Assert `fn {name}(` is defined exactly once in product code, in
/// `crates/sql/src`.
fn defined_once_in_sql(product: &[(PathBuf, String)], name: &str) {
    let decl = format!("fn {name}(");
    let homes: Vec<&Path> = product
        .iter()
        .flat_map(|(path, text)| text.matches(&decl).map(move |_| path.as_path()))
        .collect();
    assert!(
        matches!(&homes[..], [home] if home.starts_with(root().join("crates/sql/src"))),
        "`{decl}` is defined in {homes:?}, not once in crates/sql/src"
    );
}

#[test]
fn deleted_names_stay_deleted() {
    // The executor fusions the pipeline IR replaced, and the interpreter's
    // own parallel machinery (it is a serial oracle).
    let executor: &[&str] = &[
        "try_fused_aggregate",
        "compile_fused",
        "run_probe_scan",
        "derive_probe_filter",
        "JoinSide",
        "sort_rows",
        "nested_loop_join",
        "aggregate_rows",
    ];
    // The fleet fork of the accelerator path (one node is a fleet of one),
    // the fleet's SQL rewrite, scratch-table staging and Bloom gather
    // pushdown, and its raw gather (every sharded scan ships its partial at
    // its own scatter cut). `select_star` is matched as a definition: DB2's
    // parser and planner tests name the SQL form.
    let fleet: &[&str] = &[
        "fleet_active",
        "commit_two_phase_fleet",
        "enlist_accel",
        "accel_exchange",
        "plan_two_phase_aggregate",
        "plan_top_k",
        "find_join_pushdown",
        "GatherFilter",
        "encode_summary",
        "decode_summary",
        "__GATHER",
        "join_pushdown:",
        "gather_raw",
        "fn select_star(",
        "\"raw\"",
    ];
    // Knobs no caller set (constants beside their one reader now) and
    // product code no caller used.
    let unused: &[&str] = &[
        "HealthConfig",
        "recovery_bytes_per_sec",
        "rebalance_after",
        "reschedule_tick",
        "fn slow(",
        "fn set_config(",
        "fn insert_select(",
        "RecoverySet",
    ];
    // Piecemeal access to recoverable table state: a table is imaged into
    // and rebuilt from a `TableImage` as a whole.
    let image: &[&str] = &["fn rr_cursor(", "fn set_rr_cursor(", "fn restore_slice("];
    // The link's own fault plan and injection counters, and the registry's
    // second (disk) slot: every injected failure is a site in one plan.
    let faults: &[&str] = &[
        "FaultPlan",
        "FaultSpec",
        "OutageWindow",
        "CrashPlan",
        "DiskFaultPlan",
        "fail_next_transfers",
        "fail_transfers_after",
        "fn set_disk_plan(",
        "fn disk_hits(",
        "inject_skip",
        "delay_extra",
    ];
    // Second homes of a count: the link's registry mirror and `reset`, the
    // engine's storage-fault atomics and their delta mirror, and the
    // replicator's running sum of what `apply` returns. The registry keys
    // use dots, so the underscore field names cannot match them.
    let metrics: &[&str] = &[
        "set_metrics_prefixed",
        "fn set_metrics(",
        "disk_stat_snapshot",
        "DISK_METRIC_KEYS",
        "mirror_disk_stats",
        "disk_corruptions_detected",
        "disk_records_truncated",
        "disk_checkpoint_fallbacks",
        "disk_scrub_repairs",
        "disk_read_failures",
        "link().reset()",
        "changes_applied",
    ];
    // Process-global id counters: DB2 numbers every transaction and each
    // `Idaa` its own sessions.
    let ids: &[&str] = &["NEXT_LOAD_TXN", "NEXT_APPLY_TXN", "NEXT_SESSION_ID", "next_apply_txn"];
    // Authorization sites other than the one step: DB2's profiled second
    // query path (dispatch runs the plan it built), the query preamble's
    // privilege half, dispatch's own trace event and the analytics check.
    // The accelerator keeps its own `query_profiled`.
    let governance: &[&str] = &["check_and_lock_for_query", "privilege_event", "fn authorized("];
    let host_query: &[&str] = &["query_profiled"];
    // DB2's raw heap scan, which read other sessions' uncommitted rows (DB2
    // rows leave DB2 only through its locked read), and the counters of the
    // replication chunks that cut a commit apart (a batch is whole commits).
    let replication: &[&str] = &["scan_all", "batches_shipped", "batches_redelivered"];
    // Each node's own commit counter and per-transaction snapshot map, and
    // the special cases they needed: DB2's commit LSN numbers every commit,
    // and a transaction reads at its one snapshot on every node.
    let clock: &[&str] = &["snapshot_for", "commit_at", "node_query_txn", "at_commit"];
    // The hand-rolled node loops of fleet-wide operations and their own
    // placement: each one passes its apply step to `Idaa::on_placement`.
    let fleet_ops: &[&str] =
        &["accel_table_add", "accel_table_remove", "create_aot", "drop_accel_copies", "shard_owners"];
    // The analytics read's latest-committed scan: every read of accelerator
    // rows runs at its caller's snapshot (`scan_at`).
    let reads: &[&str] = &["fn scan_visible("];
    // The unit of work's scattered setter: a session's transaction is part
    // of its one `UnitOfWork`, which draws the id on first need.
    let units: &[&str] = &["fn ensure_txn("];
    // The link's separate send routes, their health hook and the retry
    // policy's one-attempt variant: every message leaves through `send`,
    // retried by the one policy.
    let sends: &[&str] = &[
        "fn ship_on(",
        "fn ship_frame_on(",
        "fn ship_traced_on(",
        "fn ship_rows_on(",
        "fn ship_rows_traced_on(",
        "fn observe(",
        "RetryPolicy::none",
    ];
    // Phase 2 as a message of its own, and the counter of decisions it
    // failed to deliver: a decision rides its node's next message.
    let phase_two: &[&str] = &["fn deliver_commit(", "decisions_queued"];
    let everywhere = &["crates", "src", "tests"][..];
    for (names, dirs) in [
        (executor, &["crates/accel/src"][..]),
        (fleet, everywhere),
        (unused, everywhere),
        (image, everywhere),
        (faults, everywhere),
        (metrics, &["crates", "src", "tests", "examples"][..]),
        (ids, everywhere),
        (governance, everywhere),
        (host_query, &["crates/host/src"][..]),
        (replication, everywhere),
        (clock, everywhere),
        (fleet_ops, everywhere),
        (reads, everywhere),
        (units, everywhere),
        (sends, everywhere),
        (phase_two, everywhere),
    ] {
        for (path, text) in dirs.iter().flat_map(|d| sources(d)) {
            if path.ends_with("tests/contract.rs") {
                continue;
            }
            for name in names {
                assert!(!text.contains(name), "{} mentions the deleted `{name}`", path.display());
            }
        }
    }
}

#[test]
fn one_unit_of_work() {
    // A session's transaction id, snapshot pin, enlisted nodes and BEGIN
    // flag are one value, built in one place; its snapshot is unpinned in
    // one place, where the unit ends.
    let (mut built, mut released) = (0, 0);
    for (path, text) in product_sources() {
        // A literal, not a declaration or a type in a signature.
        let types = ["struct", "impl", "for", "->", "mut"];
        let literal = |at: &usize| !types.iter().any(|kw| text[..*at].trim_end().ends_with(kw));
        built += text.match_indices("UnitOfWork {").map(|(at, _)| at).filter(literal).count();
        if path.starts_with(root().join("crates/core/src")) {
            released += text.matches("release_snapshot(").count();
        }
    }
    assert_eq!(built, 1, "a `UnitOfWork` literal is built in more than one place");
    assert_eq!(released, 1, "`release_snapshot(` is called in more than one place");
}

#[test]
fn control_records_ride_statements() {
    // BEGIN, and an autocommit write's PREPARE and vote, ride the messages
    // a unit of work's statements send: enlisting a node ships nothing.
    let text = std::fs::read_to_string(root().join("crates/core/src/txn.rs")).unwrap();
    let body = text.split("fn enlist_node(").nth(1).expect("`enlist_node` exists");
    let body = body.split("\n    }\n").next().unwrap();
    assert!(!body.contains("ship"), "`enlist_node` ships a message of its own");
}

#[test]
fn decisions_ride_messages() {
    // A participant learns DB2's COMMIT decision from the next message it is
    // sent: `send` hands the decisions that message carried to the one
    // delivery function, which commits them. A direct load, which ships no
    // decision, commits its owners itself right after DB2 decides.
    let homes = [("txn.rs", "    pub(crate) fn deliver_decisions("), ("fleet.rs", "    fn commit_load(")];
    let mut in_send = 0;
    for (path, text) in product_sources() {
        if !path.starts_with(root().join("crates/core/src")) {
            continue;
        }
        let file = path.file_name().unwrap().to_str().unwrap();
        for (home, decl) in homes {
            if file == home {
                assert_eq!(method(&text, decl).matches("engine.commit(").count(), 1, "{decl} commits once");
            }
        }
        let homed = homes.iter().any(|(home, _)| file == *home);
        let commits = text.matches("engine.commit(").count();
        assert_eq!(commits, usize::from(homed), "{} commits a decision outside its home", path.display());
        let delivers = text.matches("self.deliver_decisions(").count();
        let send = if file == "transfer.rs" { method(&text, "    pub(crate) fn send(") } else { "" };
        let from_send = send.matches("self.deliver_decisions(").count();
        assert_eq!(delivers, from_send, "{} delivers decisions outside `send`", path.display());
        in_send += from_send;
    }
    assert_eq!(in_send, 1, "`send` delivers the decisions its message carried");
}

#[test]
fn every_message_leaves_through_one_send() {
    // In `idaa-core` a message reaches a link only in `transmit`: the one
    // attempt that `send` retries, and that a statement's reply makes once.
    // Replication and the health probe send on their link directly, as each
    // judges its link once per round or probe. Only `send` and a
    // statement's redeliveries take the retry policy's attempts, and only
    // the exchange delivers a sequenced statement; its request leaves
    // through `send`, so it has no retry loop of its own over it.
    let link = [".transfer(", ".transfer_frame(", ".transfer_frame_carrying("];
    // Each name's one home, a method in `transfer.rs`.
    let homes: [(&str, &[&str]); 4] = [
        ("    fn transmit(", &link),
        ("    fn attempts<", &["RetryPolicy::default()"]),
        ("    pub(crate) fn send(", &["self.attempts("]),
        ("    fn exchange_on<", &["self.attempts(", "deliver_at("]),
    ];
    for (path, text) in product_sources() {
        let file = path.file_name().unwrap().to_str().unwrap();
        let direct = ["replication.rs", "health.rs"].contains(&file);
        if direct || !path.starts_with(root().join("crates/core/src")) {
            continue;
        }
        for name in link.iter().chain(&["RetryPolicy::default()", "self.attempts(", "deliver_at("]) {
            let home = homes.iter().filter(|(_, names)| file == "transfer.rs" && names.contains(name));
            let at_home: usize = home.map(|(decl, _)| method(&text, decl).matches(name).count()).sum();
            let uses = text.matches(name).count();
            assert_eq!(uses, at_home, "{} names `{name}` outside its one home", path.display());
        }
    }
    let core = |file: &str| std::fs::read_to_string(root().join("crates/core/src").join(file)).unwrap();
    let (transfer, fleet, recovery) = (core("transfer.rs"), core("fleet.rs"), core("recovery.rs"));
    let exchange = method(&transfer, "    fn exchange_on<");
    assert!(!exchange.contains("transmit("), "`exchange_on` sends its request itself");
    let insert = method(&fleet, "    pub(crate) fn aot_insert_rows(");
    for name in ["send(", "ship_rows("] {
        assert!(!insert.contains(name), "an AOT INSERT ships outside its exchange: `{name}`");
    }
    let catch_up = method(&recovery, "    pub(crate) fn catch_up_node(");
    assert!(!catch_up.contains("encode_frames"), "catch-up encodes its own frames");
}

#[test]
fn no_process_global_state() {
    // A run is a function of its seed and script, so product code keeps no
    // mutable state outside the system that owns it. The one exception is
    // a read-only cache of the machine's worker count.
    let shared = ["Atomic", "Mutex", "RwLock", "OnceLock", "LazyLock", "Cell"];
    let facade = sources("src").into_iter().map(|(path, text)| (path, product(&text).to_string()));
    let mut found = Vec::new();
    for (path, text) in product_sources().into_iter().chain(facade) {
        let worker_count = path.ends_with("crates/accel/src/engine.rs");
        for line in text.lines().map(str::trim) {
            let decl = line.trim_start_matches("pub(crate) ").trim_start_matches("pub ");
            let allowed = worker_count && decl.starts_with("static AUTO: OnceLock<usize>");
            let global = decl.starts_with("static mut ")
                || (decl.starts_with("static ") && shared.iter().any(|t| decl.contains(t)));
            if (global && !allowed) || line.contains("thread_local!") {
                found.push(format!("{}: {line}", path.display()));
            }
        }
    }
    assert!(found.is_empty(), "process-global state in product code:\n{}", found.join("\n"));
}

#[test]
fn one_fault_stream() {
    // The fault registry's splitmix64 stream is seeded in one place; link,
    // crash and storage sites all draw from it.
    let seeds: Vec<String> = sources("crates/netsim/src")
        .iter()
        .flat_map(|(path, text)| {
            let seeds = product(text).lines().filter(|l| l.contains("seed ^"));
            seeds.map(move |l| format!("{}: {}", path.display(), l.trim()))
        })
        .collect();
    assert_eq!(seeds.len(), 1, "the fault stream is seeded in {seeds:#?}");
}

#[test]
fn the_link_counts_through_handles() {
    // Each count has one home in the metrics registry. The link takes its
    // handles when it is built, so no transfer looks a counter up by name
    // or formats one.
    for (path, text) in sources("crates/netsim/src") {
        assert!(!product(&text).contains(".inc("), "{} counts by name", path.display());
    }
    let netsim = std::fs::read_to_string(root().join("crates/netsim/src/lib.rs")).unwrap();
    for decl in ["    fn attempt(", "    fn fail("] {
        let f = &netsim[netsim.find(decl).unwrap_or_else(|| panic!("no `{decl}`"))..];
        let f = &f[..f.find("\n    }\n").unwrap_or(f.len())];
        assert!(!f.contains("format!"), "`{}` formats on the transfer path", decl.trim());
    }
}

#[test]
fn one_image_of_recoverable_state() {
    // Checkpoint and state fingerprint take the one image the builder
    // makes; nothing else enumerates the transaction states.
    let calls: Vec<PathBuf> = sources("crates/accel/src")
        .into_iter()
        .flat_map(|(path, text)| {
            let n = product(&text).matches(".all_states()").count();
            std::iter::repeat_n(path, n)
        })
        .collect();
    let engine = std::fs::read_to_string(root().join("crates/accel/src/engine.rs")).unwrap();
    let image = &engine[engine.find("    fn image(").expect("no image builder")..];
    let image = &image[..image.find("\n    }\n").unwrap_or(image.len())];
    assert!(
        matches!(&calls[..], [path] if path.ends_with("crates/accel/src/engine.rs"))
            && image.contains(".all_states()"),
        "`.all_states()` is called once, by `AccelEngine::image`, not from {calls:?}"
    );
}

#[test]
fn one_row_executor() {
    // DB2, the accelerator's interpreter and the fleet coordinator run the
    // plan operators of `idaa-sql`; none keeps a copy.
    let product_src = product_sources();
    for name in ["hash_join", "aggregate", "dedup", "conjuncts", "merge_runs", "execute_plan"] {
        defined_once_in_sql(&product_src, name);
    }
    assert!(!root().join("crates/host/src/exec.rs").exists(), "DB2 keeps no executor of its own");
    // One engine per accelerator node: nothing is staged in a scratch engine.
    let count = |text: &str| text.matches("AccelEngine::new(").count();
    let total: usize = sources("crates/core/src").iter().map(|(_, text)| count(product(text))).sum();
    let fleet = std::fs::read_to_string(root().join("crates/core/src/fleet.rs")).unwrap();
    let node = body(&fleet, "impl AccelNode {");
    let node_new = &node[node.find("fn new(").expect("no `AccelNode::new`")..];
    let node_new = &node_new[..node_new.find("\n    }\n").unwrap_or(node_new.len())];
    assert_eq!((total, count(node_new)), (1, 1), "`AccelNode::new` is the one `AccelEngine::new(`");
}

#[test]
fn one_plan_walk() {
    // DB2, the accelerator and the fleet coordinator run one walk over a
    // plan; a source answers the sub-plans it can through one hook.
    let product_src = product_sources();
    let calls: Vec<(&Path, &str)> = product_src
        .iter()
        .flat_map(|(path, text)| {
            let calls = text.matches("hash_join(").count() - text.matches("fn hash_join(").count();
            std::iter::repeat_n((path.as_path(), text.as_str()), calls)
        })
        .collect();
    let exec = root().join("crates/sql/src/exec.rs");
    assert!(
        matches!(&calls[..], [(path, text)] if *path == exec
            && body(text, "fn run_operator(").contains("hash_join(")),
        "`hash_join(` is called once, from the walk, not from {:?}",
        calls.iter().map(|(p, _)| p).collect::<Vec<_>>()
    );
    defined_once_in_sql(&product_src, "input_mask");
    for (path, text) in sources("crates/accel/src") {
        for walk in ["fn run_node(", "fn run_join(", "fn above("] {
            assert!(!product(&text).contains(walk), "{} defines `{walk}`", path.display());
        }
    }
    let exec_src = std::fs::read_to_string(&exec).unwrap();
    let source = body(&exec_src, "pub trait RowSource {");
    assert_eq!(source.matches("fn ").count(), 1, "`RowSource` declares one method:\n{source}");
    for (path, text) in sources("crates/sql/src") {
        for name in ["index_lookup", "index_range"] {
            assert!(!text.contains(name), "{} names `{name}`", path.display());
        }
    }
}

#[test]
fn only_slices_fan_out() {
    let accel = sources("crates/accel/src");
    let count = |needle: &str| -> usize {
        accel.iter().map(|(_, text)| product(text).matches(needle).count()).sum()
    };
    assert_eq!(count("std::thread::scope"), 1, "`run_parts` is the one place accel spawns threads");
    let exec = std::fs::read_to_string(root().join("crates/accel/src/exec.rs")).unwrap();
    let exec = product(&exec);
    let slices = body(exec, "pub(crate) fn for_each_slice");
    assert_eq!(count("run_parts("), 1, "`run_parts` is called once, from `for_each_slice`");
    assert_eq!(slices.matches("run_parts(").count(), 1, "`for_each_slice` calls `run_parts`");
    assert_eq!(
        exec.matches("workers()").count(),
        slices.matches("workers()").count(),
        "only `for_each_slice` reads `workers()` in exec.rs"
    );
}

#[test]
fn only_core_places_accelerator_rows() {
    // Node-0 engines, per-node engines, physical shard names and raw link
    // sends are placement decisions; analytics and the loader go through
    // `idaa-core`'s placement-aware entry points instead.
    let placement = [".accel()", "node_engine(", "shard_table(", ".ship(", ".ship_rows("];
    let files = sources("crates/analytics/src").into_iter().chain(sources("crates/loader/src"));
    for (path, text) in files {
        for name in placement {
            assert!(!product(&text).contains(name), "{} names `{name}`", path.display());
        }
    }
}

#[test]
fn one_placement() {
    // Which local tables hold a table's rows, and which nodes own each, is
    // decided in one function; every other path in `idaa-core` asks it.
    let home = "    pub(crate) fn placement(";
    for (path, text) in product_sources() {
        if !path.starts_with(root().join("crates/core/src")) {
            continue;
        }
        let placement = if path.ends_with("fleet.rs") { method(&text, home) } else { "" };
        for name in ["shard_table(", "fleet.owners("] {
            let uses = text.matches(name).count() - text.matches(&format!("fn {name}")).count();
            assert_eq!(uses, placement.matches(name).count(), "{} names `{name}` outside `placement`", path.display());
        }
    }
}

#[test]
fn one_read_rule() {
    // A SELECT and an analytics read each classify their tables for the
    // caller's transaction once, in their read rule, and the analytics read
    // keeps no residency check of its own.
    let homes = [
        ("crates/core/src/dispatch.rs", "    fn read_route("),
        ("crates/core/src/fleet.rs", "    fn read_accel_table("),
    ];
    for (path, text) in product_sources() {
        if !path.starts_with(root().join("crates/core/src")) {
            continue;
        }
        let home = homes.iter().find(|(file, _)| path.ends_with(file));
        let rule = home.map_or("", |(_, decl)| method(&text, decl));
        let calls = text.matches("router::classify").count();
        let at_home = rule.matches("router::classify").count();
        let expected = (usize::from(home.is_some()), calls);
        assert_eq!((calls, at_home), expected, "{} classifies a read outside its rule", path.display());
    }
    let fleet = std::fs::read_to_string(root().join("crates/core/src/fleet.rs")).unwrap();
    let read = method(product(&fleet), "    fn read_accel_table(");
    assert!(!read.contains("on_accelerator("), "the analytics read checks residency on its own");
}

#[test]
fn wall_time_is_read_only_where_it_is_measured() {
    // The experiment harness and the benchmark measure wall time; the one
    // product read is the lock manager's wait deadline. Everything else
    // runs on the virtual clock.
    let allowed = |path: &Path| {
        path.starts_with(root().join("crates/bench"))
            || path.starts_with(root().join("crates/benchmark"))
            || path.ends_with("crates/host/src/lock.rs")
    };
    for (path, text) in sources("crates").into_iter().chain(sources("src")) {
        let in_src = path.components().any(|c| c.as_os_str() == "src");
        if in_src && !allowed(&path) {
            assert!(!product(&text).contains("Instant"), "{} reads `Instant`", path.display());
        }
    }
}

/// The text between the `{` at byte `open` of `src` and its matching `}`
/// (empty when the braces never balance).
fn braced(src: &str, open: usize) -> &str {
    let mut depth = 0;
    for (i, c) in src[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return &src[open + 1..open + i];
                }
            }
            _ => {}
        }
    }
    ""
}

/// The field names a struct literal's body (`a: 1, b, ..base`) sets.
fn literal_fields(body: &str) -> Vec<&str> {
    let mut fields = Vec::new();
    let (mut depth, mut start) = (0, 0);
    for (i, c) in body.char_indices().chain([(body.len(), ',')]) {
        match c {
            '(' | '[' | '{' => depth += 1,
            ')' | ']' | '}' => depth -= 1,
            ',' if depth == 0 => {
                let item = body[start..i].trim();
                let name = item.split_once(':').map_or(item, |(name, _)| name).trim();
                if !name.is_empty() && name.chars().all(|c| c.is_alphanumeric() || c == '_') {
                    fields.push(name);
                }
                start = i + 1;
            }
            _ => {}
        }
    }
    fields
}

#[test]
fn config_fields_are_set_by_some_caller() {
    // A field every caller leaves at its default is a constant in disguise:
    // it belongs beside its one reader. `default_schema` is a deployment
    // setting and stays configurable.
    let exempt = ["IdaaConfig::default_schema"];
    let files: Vec<String> = ["crates", "src", "tests", "examples"]
        .iter()
        .flat_map(|dir| sources(dir))
        .filter(|(path, _)| !path.ends_with("tests/contract.rs"))
        // A comment may name a field without setting it.
        .map(|(_, text)| {
            text.lines().filter(|l| !l.trim_start().starts_with("//")).collect::<Vec<_>>().join("\n")
        })
        .collect();
    let mut unset = Vec::new();
    for name in ["IdaaConfig", "AccelConfig", "FleetConfig", "ServerConfig", "LoadConfig", "LinkConfig"] {
        let decl = format!("pub struct {name} {{");
        let body = files
            .iter()
            .find_map(|text| text.find(&decl).map(|at| braced(text, at + decl.len() - 1)))
            .unwrap_or_else(|| panic!("no `{decl}`"));
        let fields = body
            .lines()
            .filter_map(|line| Some(line.trim().strip_prefix("pub ")?.split_once(':')?.0.trim()));
        // Every field a literal of the struct names, outside its `Default`.
        let (literal, default) = (format!("{name} {{"), format!("impl Default for {name} {{"));
        let mut set = Vec::new();
        for text in &files {
            let skip = text.find(&default).map(|at| {
                let open = at + default.len() - 1;
                at..open + braced(text, open).len()
            });
            for (at, _) in text.match_indices(&literal) {
                let before = text[..at].trim_end();
                let declares = ["struct", "impl", "for", "->"].iter().any(|kw| before.ends_with(kw));
                let longer_name = text[..at].ends_with(|c: char| c.is_alphanumeric() || c == '_');
                if declares || longer_name || skip.as_ref().is_some_and(|r| r.contains(&at)) {
                    continue;
                }
                set.extend(literal_fields(braced(text, at + literal.len() - 1)));
            }
        }
        for field in fields {
            let qualified = format!("{name}::{field}");
            let assigned = files.iter().any(|text| text.contains(&format!(".{field} = ")));
            if !set.contains(&field) && !assigned && !exempt.contains(&qualified.as_str()) {
                unset.push(qualified);
            }
        }
    }
    assert!(unset.is_empty(), "no caller sets {unset:?}: make each a constant beside its reader");
}

/// The method declared by `decl` (indented once, inside an `impl`) in
/// `src`, up to its closing brace.
fn method<'a>(src: &'a str, decl: &str) -> &'a str {
    let start = src.find(decl).unwrap_or_else(|| panic!("no `{decl}`"));
    let len = src[start..].find("\n    }\n").unwrap_or_else(|| panic!("`{decl}` never ends"));
    &src[start..start + len]
}

#[test]
fn only_db2_authorizes() {
    // `PrivilegeCatalog::check` mints the only `Granted`, and product code
    // calls it in two places: the federation's one authorization step and
    // DB2's own SQL entry. The experiment harness and the benchmark time
    // it; they are not product code.
    let homes = [
        ("crates/core/src/idaa.rs", "    pub fn authorize<"),
        ("crates/host/src/engine.rs", "    pub fn query("),
    ];
    let harness = |path: &Path| {
        path.starts_with(root().join("crates/bench"))
            || path.starts_with(root().join("crates/benchmark"))
    };
    let mut calls = 0;
    for (path, text) in product_sources().into_iter().filter(|(path, _)| !harness(path)) {
        let at_home = homes
            .iter()
            .filter(|(file, _)| path.ends_with(file))
            .map(|(_, decl)| method(&text, decl).matches(".check(").count())
            .sum::<usize>();
        let all = text.matches(".check(").count();
        assert_eq!(all, at_home, "{} calls `check` outside the authorization step", path.display());
        calls += all;
        // The token's fields are private; no literal builds one elsewhere.
        if !path.ends_with("crates/host/src/privilege.rs") {
            for (i, _) in text.match_indices("Granted {") {
                let before = text[..i].trim_end();
                assert!(before.ends_with("->"), "{} builds a `Granted`", path.display());
            }
        }
        // One predicate knows the FROM-less pseudo-table by name.
        let named = text.matches("\"SYSDUMMY1\"").count();
        let home = path.ends_with("crates/sql/src/plan.rs");
        assert_eq!(named, usize::from(home), "{} names \"SYSDUMMY1\"", path.display());
    }
    assert_eq!(calls, homes.len(), "`check` is called once in each home");
}
