//! Structural rules of the code base, checked against the source tree:
//! deleted machinery stays deleted, every engine runs one set of row
//! operators, the accelerator has one fan-out, only `idaa-core` decides
//! where accelerator rows live, and wall time is read only where it is
//! measured.

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
    // and the fleet's SQL rewrite, scratch-table staging and Bloom gather
    // pushdown (a shard ships its plan's partial at the scatter cut).
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
    ];
    for (names, dirs) in [(executor, &["crates/accel/src"][..]), (fleet, &["crates", "src", "tests"])] {
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
fn one_row_executor() {
    // DB2, the accelerator's interpreter, the fleet coordinator and its Raw
    // gather run the plan operators of `idaa-sql`; none keeps a copy.
    let sql = root().join("crates/sql/src");
    let crates = sources("crates");
    for name in ["hash_join", "aggregate", "dedup", "conjuncts", "merge_runs", "execute_plan"] {
        let decl = format!("fn {name}(");
        let homes: Vec<&Path> = crates
            .iter()
            .filter(|(path, _)| path.components().any(|c| c.as_os_str() == "src"))
            .flat_map(|(path, text)| product(text).matches(&decl).map(move |_| path.as_path()))
            .collect();
        assert!(
            matches!(&homes[..], [home] if home.starts_with(&sql)),
            "`{decl}` is defined in {homes:?}, not once in crates/sql/src"
        );
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
