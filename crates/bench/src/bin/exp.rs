//! Experiment runner: regenerates and checks the record of E1–E22.
//!
//! ```text
//! cargo run --release -p idaa-bench --bin exp                  # list the registry
//! cargo run --release -p idaa-bench --bin exp -- e3            # print one experiment
//! cargo run --release -p idaa-bench --bin exp -- all           # print the whole suite
//! cargo run --release -p idaa-bench --bin exp -- --check       # the masked diff, all
//! cargo run --release -p idaa-bench --bin exp -- --check e6    # the masked diff, some
//! ```
//! `--check` renders wall-clock cells as `~` and compares everything else
//! with `crates/bench/golden/experiments.txt`; on a mismatch it names the
//! experiment, row and column, leaves the actual rendering under
//! `target/tmp/`, and exits 1.

use idaa_bench::experiments::{find, Experiment, EXPERIMENTS};
use idaa_bench::ACTUAL_PATH;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let checking = args.first().is_some_and(|a| a == "--check");
    let ids = &args[usize::from(checking)..];
    if args.is_empty() {
        eprintln!("usage: exp [--check] <id|all>...   (--check alone checks all)");
        for e in EXPERIMENTS {
            eprintln!("  {:<4}{}", e.id, e.title);
        }
        std::process::exit(2);
    }
    let mut selected: Vec<&Experiment> = Vec::new();
    for id in ids {
        match find(id) {
            Some(e) => selected.push(e),
            None if id == "all" => selected.extend(EXPERIMENTS),
            None => {
                eprintln!("unknown experiment id: {id}");
                std::process::exit(2);
            }
        }
    }
    if !checking {
        for e in selected {
            print!("{}", e.render(false));
        }
        return;
    }
    if selected.is_empty() {
        selected.extend(EXPERIMENTS);
    }
    match idaa_bench::check(&selected) {
        Ok(()) => println!("{} experiment(s) match the golden", selected.len()),
        Err(failures) => {
            for f in &failures {
                eprintln!("{f}");
            }
            eprintln!("diff crates/bench/golden/experiments.txt {ACTUAL_PATH}");
            std::process::exit(1);
        }
    }
}
