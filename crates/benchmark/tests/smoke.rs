//! All four workloads at `--scale smoke`, twice each: the declared metric
//! names are exactly what comes out, counts repeat bit for bit, nothing
//! fails — and a deliberately wrong expected answer does.

use idaa_benchmark::catalog::{self, Metric};
use idaa_benchmark::harness::Scale;
use idaa_benchmark::json::Json;
use idaa_benchmark::run::{run, Options, Report};
use idaa_benchmark::workloads::NAMES;

const ROUNDS: u64 = 20;

fn smoke(workload: &str, trace: bool, sabotage: bool) -> Report {
    let opts = Options {
        workload: workload.into(),
        seed: 7,
        seconds: 0.0,
        rounds: Some(ROUNDS),
        trace,
        scale: Scale::Smoke,
        out_dir: None,
        sabotage,
    };
    run(&opts).expect("smoke run completes")
}

fn names(metrics: &[Metric]) -> Vec<&str> {
    metrics.iter().map(|m| m.name.as_str()).collect()
}

fn reported(r: &Report) -> Vec<&str> {
    r.metrics.iter().map(|(m, _)| m.name.as_str()).collect()
}

#[test]
fn untraced_runs_report_the_end_to_end_metrics_and_exact_link_counts() {
    for w in NAMES {
        let (a, b) = (smoke(w, false, false), smoke(w, false, false));
        assert_eq!(reported(&a), names(&catalog::end_to_end()), "{w}");
        assert_eq!(a.failed, 0, "{w}: {:?}", a.errors);
        assert!(a.correct() && a.attempted > ROUNDS, "{w}");
        assert_eq!(a.attempted, b.attempted, "{w}: attempts repeat");
        for m in ["link_bytes_per_round", "link_msgs_per_round", "link_virtual_ms_per_round"] {
            let (va, vb) = (a.value(m).unwrap(), b.value(m).unwrap());
            assert_eq!(va.to_bits(), vb.to_bits(), "{w} {m}: {va} vs {vb}");
            assert!(va > 0.0, "{w} {m} is never 0");
        }
        for (m, v) in &a.metrics {
            assert!(v.is_finite() && *v > 0.0, "{w} {}: {v}", m.name);
        }
        // The result line is the driver's contract.
        let line = Json::parse(&a.result_line()).unwrap();
        let keys: Vec<&str> = line.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        let entry = line.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(entry.get("unit").and_then(Json::as_str), Some("s"));
    }
}

#[test]
fn traced_runs_report_the_per_layer_metrics_and_exact_counts() {
    for w in NAMES {
        let (a, b) = (smoke(w, true, false), smoke(w, true, false));
        assert_eq!(reported(&a), names(&catalog::per_layer()), "{w}");
        assert_eq!(a.failed, 0, "{w}: {:?}", a.errors);
        assert_eq!(a.value("check.fail_ratio"), Some(0.0), "{w}");
        assert_eq!(a.value("netsim.failures"), Some(0.0), "{w}");
        for (m, va) in &a.metrics {
            let vb = b.value(&m.name).unwrap();
            assert!(va.is_finite(), "{w} {}", m.name);
            if catalog::is_exact_count(&m.name) {
                assert_eq!(va.to_bits(), vb.to_bits(), "{w} {}: {va} vs {vb}", m.name);
            }
        }
        // The layer buckets partition the statement time of the probe
        // rounds: shares plus the unattributed remainder come to 1.
        let shares: f64 = [
            "sql.parse_share",
            "core.self_share",
            "accel.exec_share",
            "host.share",
            "wire.share",
            "netsim.share",
            "obs.share",
            "loader.share",
            "durable.share",
            "trace.unattributed_share",
            "trace.harness_share",
        ]
        .iter()
        .map(|s| a.value(s).unwrap())
        .sum();
        assert!((shares - 1.0).abs() < 0.05, "{w}: shares sum to {shares}");
        assert!(a.value("trace.overhead_ratio").unwrap() > 0.0, "{w}");
        // Only this workload's classes carry numbers.
        let own = a.metrics.iter().filter(|(m, v)| {
            m.name.ends_with(".p50_ms") && m.name.starts_with("class.") && *v > 0.0
        });
        assert!(own.count() >= 4, "{w}");
    }
}

#[test]
fn a_deliberately_wrong_expected_answer_is_a_failure() {
    for w in NAMES {
        let r = smoke(w, false, true);
        assert!(r.failed > 0 && !r.correct(), "{w}: sabotage went unnoticed");
        assert!(r.result_line().contains("\"correct\": false"), "{w}");
    }
}

/// `BENCHMARK.json` at the repo root repeats the catalog; the two must not
/// drift apart.
#[test]
fn benchmark_json_declares_exactly_the_catalog() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is at the repo root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let keys: Vec<&str> = doc.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);

    let name_ok = |n: &str| {
        n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let str_of =
        |e: &Json, k: &str| e.get(k).and_then(Json::as_str).unwrap_or_default().to_string();

    let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
    assert!((2..=8).contains(&workloads.len()));
    let declared: Vec<String> = workloads.iter().map(|w| str_of(w, "name")).collect();
    assert_eq!(declared, NAMES);
    assert!(workloads
        .iter()
        .all(|w| !str_of(w, "why").is_empty() && str_of(w, "why").len() <= 200));

    let check = |key: &str, catalog: Vec<Metric>, cap: usize, bounded: bool| {
        let entries = doc.get(key).and_then(Json::as_arr).unwrap();
        assert!(entries.len() <= cap, "{key}: {}", entries.len());
        assert_eq!(entries.len(), catalog.len(), "{key}");
        for (e, m) in entries.iter().zip(&catalog) {
            assert!(name_ok(&m.name), "{}", m.name);
            assert_eq!(str_of(e, "name"), m.name);
            assert_eq!(str_of(e, "unit"), m.unit, "{}", m.name);
            assert_eq!(str_of(e, "better"), m.better.as_str(), "{}", m.name);
            assert_eq!(
                e.get("bound").and_then(Json::as_f64),
                bounded.then_some(m.bound),
                "{}",
                m.name
            );
        }
    };
    check("end_to_end", catalog::end_to_end(), 16, true);
    check("per_layer", catalog::per_layer(), 128, false);
    assert_eq!(
        doc.get("paths").and_then(Json::as_arr).unwrap(),
        [Json::Str("crates/benchmark".into())]
    );
}
