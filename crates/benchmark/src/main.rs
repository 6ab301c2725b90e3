//! `benchmark` — run one workload, run a whole result set, or compare two
//! sets. See `README.md` beside this crate.

use idaa_benchmark::harness::Scale;
use idaa_benchmark::json::Json;
use idaa_benchmark::rng::DEFAULT_SEED;
use idaa_benchmark::run::{run, Options, Report};
use idaa_benchmark::workloads;
use idaa_benchmark::{catalog, compare};
use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 12.0;

const USAGE: &str = "\
usage:
  benchmark [run] --workload <name> [--seed N] [--seconds S | --rounds N] [--trace 0|1]
                  [--scale full|smoke] [--out-dir DIR] [--append SET.jsonl]
  benchmark set <SET.jsonl> [--runs N] [--seed BASE] [--seconds S] [--scale full|smoke]
  benchmark compare <A.jsonl> <B.jsonl>
  benchmark manifest            (prints BENCHMARK.json from the metric catalog)

workloads: olap_dash, oltp_mix, elt_pipeline, ingest_recover
The last line of `run`'s standard output is the result as one JSON object.";

/// Where a traced run writes `trace-<workload>.jsonl` unless told otherwise:
/// beside the build, which `.gitignore` already covers.
fn default_out_dir() -> PathBuf {
    PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()))
        .join("idaa-benchmark")
}

struct Args(Vec<String>);

impl Args {
    /// Remove `--flag value` and return the value.
    fn take(&mut self, flag: &str) -> Result<Option<String>, String> {
        let Some(i) = self.0.iter().position(|a| a == flag) else { return Ok(None) };
        if i + 1 >= self.0.len() {
            return Err(format!("{flag} needs a value"));
        }
        self.0.remove(i);
        Ok(Some(self.0.remove(i)))
    }

    fn parsed<T: std::str::FromStr>(&mut self, flag: &str) -> Result<Option<T>, String> {
        match self.take(flag)? {
            None => Ok(None),
            Some(v) => v.parse().map(Some).map_err(|_| format!("{flag}: cannot read '{v}'")),
        }
    }

    fn flag(&mut self, flag: &str) -> bool {
        let before = self.0.len();
        self.0.retain(|a| a != flag);
        self.0.len() != before
    }

    fn scale(&mut self) -> Result<Scale, String> {
        match self.take("--scale")?.as_deref() {
            None | Some("full") => Ok(Scale::Full),
            Some("smoke") => Ok(Scale::Smoke),
            Some(other) => Err(format!("--scale: '{other}' is neither full nor smoke")),
        }
    }

    fn done(&self) -> Result<(), String> {
        match self.0.first() {
            None => Ok(()),
            Some(extra) => Err(format!("unexpected argument '{extra}'")),
        }
    }
}

fn record(opts: &Options, report: &Report) -> String {
    Json::Obj(vec![
        ("workload".into(), Json::Str(opts.workload.clone())),
        ("seed".into(), Json::Num(opts.seed as f64)),
        ("trace".into(), Json::Num(f64::from(u8::from(opts.trace)))),
        ("rounds".into(), Json::Num(report.rounds as f64)),
        ("result".into(), report.result_json()),
    ])
    .render()
}

fn cmd_run(mut args: Args) -> Result<bool, String> {
    let workload = args.take("--workload")?.ok_or("--workload is required")?;
    let trace = match args.take("--trace")?.as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace: '{other}' is neither 0 nor 1")),
    };
    let opts = Options {
        workload,
        seed: args.parsed("--seed")?.unwrap_or(DEFAULT_SEED),
        seconds: args.parsed("--seconds")?.unwrap_or(DEFAULT_SECONDS),
        rounds: args.parsed("--rounds")?,
        trace,
        scale: args.scale()?,
        out_dir: Some(args.take("--out-dir")?.map_or_else(default_out_dir, PathBuf::from)),
        sabotage: args.flag("--sabotage"),
    };
    let append = args.take("--append")?;
    args.done()?;
    let report = run(&opts)?;
    if let Some(path) = append {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| format!("{path}: {e}"))?;
        writeln!(f, "{}", record(&opts, &report)).map_err(|e| format!("{path}: {e}"))?;
    }
    print!("{}", report.table());
    println!("{}", report.result_line());
    Ok(true)
}

/// One result set: every workload `runs` times untraced (seeds `BASE`,
/// `BASE+1`, …) plus one traced run, each in its own process so that
/// `peak_rss_mb` is per workload.
fn cmd_set(mut args: Args) -> Result<bool, String> {
    let runs: u64 = args.parsed("--runs")?.unwrap_or(10);
    let base: u64 = args.parsed("--seed")?.unwrap_or(DEFAULT_SEED);
    let seconds: f64 = args.parsed("--seconds")?.unwrap_or(DEFAULT_SECONDS);
    let scale = args.take("--scale")?.unwrap_or_else(|| "full".into());
    let out = args.0.pop().ok_or("set: name the output file")?;
    args.done()?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    for w in workloads::NAMES {
        for k in 0..=runs {
            let (seed, trace) = if k == runs { (base, "1") } else { (base + k, "0") };
            eprintln!("set: {w} seed {seed} trace {trace}");
            let status = Command::new(&exe)
                .args([
                    "run",
                    "--workload",
                    w,
                    "--trace",
                    trace,
                    "--scale",
                    &scale,
                    "--append",
                    &out,
                ])
                .args(["--seed", &seed.to_string(), "--seconds", &seconds.to_string()])
                .stdout(std::process::Stdio::null())
                .status()
                .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            ok &= status.success();
        }
    }
    Ok(ok)
}

fn cmd_compare(args: Args) -> Result<bool, String> {
    let [a, b] = args.0.as_slice() else { return Err("compare: name two set files".into()) };
    let read = |p: &String| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| compare::parse_set(&t).map_err(|e| format!("{p}: {e}")))
    };
    let (table, pass) = compare::compare(&read(a)?, &read(b)?);
    print!("{table}");
    println!("{}", if pass { "PASS: no regression, no failed run" } else { "FAIL" });
    Ok(pass)
}

/// `BENCHMARK.json`, in the shape the driver's contract prescribes, from
/// the one metric catalog the harness itself reports by.
fn manifest() -> String {
    let strs =
        |items: &[&str]| items.iter().map(|s| format!("\"{s}\"")).collect::<Vec<_>>().join(", ");
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "-p",
        "idaa-benchmark",
        "--bin",
        "benchmark",
        "--",
    ];
    let workloads: Vec<String> = workloads::NAMES
        .iter()
        .zip(workloads::WHY)
        .map(|(n, why)| format!("    {{\"name\": \"{n}\", \"why\": \"{why}\"}}"))
        .collect();
    let metric = |m: &catalog::Metric, bounded: bool| {
        let bound = if bounded { format!(", \"bound\": {}", m.bound) } else { String::new() };
        format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
            m.name,
            m.unit,
            m.better.as_str()
        )
    };
    let end_to_end: Vec<String> = catalog::end_to_end().iter().map(|m| metric(m, true)).collect();
    let per_layer: Vec<String> = catalog::per_layer().iter().map(|m| metric(m, false)).collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"crates/benchmark\"],\n  \"run_seconds\": {},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        strs(&command),
        DEFAULT_SECONDS,
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match argv.first().map(String::as_str) {
        Some("run" | "set" | "compare") => argv.remove(0),
        Some("manifest") => {
            print!("{}", manifest());
            return ExitCode::SUCCESS;
        }
        Some(a) if a.starts_with("--") => "run".to_string(),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match cmd.as_str() {
        "set" => cmd_set(Args(argv)),
        "compare" => cmd_compare(Args(argv)),
        _ => cmd_run(Args(argv)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
