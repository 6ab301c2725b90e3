//! One benchmark invocation: set up, warm up, run the timed rounds, check
//! answers, and assemble the metrics the catalog names.

use crate::catalog::{self, Metric};
use crate::harness::{peak_rss_mib, Exec, Scale};
use crate::json::Json;
use crate::layers::{class_breakdown, layer_metrics, TracedRun};
use crate::stats::{self, median, ns_to_ms, percentile};
use crate::workloads;
use std::path::PathBuf;
use std::time::Instant;

/// Set-ups per `--trace 0` run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Warm-up rounds are numbered from here, so they never share literals
/// with a timed round.
const WARM_UP_BASE: u64 = 1 << 40;

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    /// Sizes the timed phase: rounds = `seconds` × the workload's
    /// calibrated rounds per second.
    pub seconds: f64,
    /// Exact timed round count (overrides `seconds`).
    pub rounds: Option<u64>,
    pub trace: bool,
    pub scale: Scale,
    /// Where `trace-<workload>.jsonl` goes (traced runs only).
    pub out_dir: Option<PathBuf>,
    /// Corrupt one expected answer, to show the checks can fail.
    pub sabotage: bool,
}

#[derive(Debug, Clone)]
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub rounds: u64,
    pub attempted: u64,
    pub failed: u64,
    /// `(metric, value)` in catalog order: the end-to-end metrics of an
    /// untraced run, or the per-layer metrics of a traced one.
    pub metrics: Vec<(Metric, f64)>,
    pub errors: Vec<String>,
    /// Extra lines for people (the per-class layer breakdown).
    pub notes: Vec<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(m, _)| m.name == name).map(|(_, v)| *v)
    }

    /// The result line of the driver's contract.
    pub fn result_line(&self) -> String {
        self.result_json().render()
    }

    pub fn result_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(m, v)| {
                let entry = vec![
                    ("value".into(), Json::Num(*v)),
                    ("unit".into(), Json::Str(m.unit.into())),
                ];
                (m.name.clone(), Json::Obj(entry))
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }

    /// Every metric by name with its unit, for people.
    pub fn table(&self) -> String {
        let mut out = format!(
            "workload {}  seed {}  {}  rounds {}  (closed loop, 1 client, 0 think time)\n",
            self.workload,
            self.seed,
            if self.trace { "traced" } else { "untraced" },
            self.rounds
        );
        for (m, v) in &self.metrics {
            out.push_str(&format!("  {:<44} {:>16.6} {}\n", m.name, v, m.unit));
        }
        if !self.trace {
            let supported = stats::highest_supported_percentile(self.rounds as usize);
            out.push_str(&format!(
                "  round latencies: {} samples, which support up to p{}\n",
                self.rounds,
                supported.map_or("50".to_string(), |p| format!("{}", p * 100.0))
            ));
        }
        out.push_str(&format!(
            "  attempted {}  failed {}  fail_ratio {}\n",
            self.attempted,
            self.failed,
            stats::ratio(self.failed as f64, self.attempted as f64)
        ));
        for n in &self.notes {
            out.push_str(&format!("  {n}\n"));
        }
        for e in &self.errors {
            out.push_str(&format!("  FAILED: {e}\n"));
        }
        out
    }
}

pub fn run(opts: &Options) -> Result<Report, String> {
    if !workloads::NAMES.contains(&opts.workload.as_str()) {
        return Err(format!(
            "unknown workload '{}' (one of {:?})",
            opts.workload,
            workloads::NAMES
        ));
    }
    let rate = workloads::rounds_per_second(&opts.workload, opts.scale);
    let rounds = opts.rounds.unwrap_or((opts.seconds * rate).round() as u64).max(1);
    if opts.trace {
        run_traced(opts, rounds)
    } else {
        run_untraced(opts, rounds)
    }
}

fn build(opts: &Options) -> Box<dyn crate::harness::Workload> {
    workloads::build(&opts.workload, opts.seed, opts.scale).expect("workload name was checked")
}

fn run_untraced(opts: &Options, rounds: u64) -> Result<Report, String> {
    // Set up several times and report the median, so one slow allocation
    // does not decide `setup_s`; the last system is the one measured.
    let mut setup_ns = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let t = Instant::now();
        let mut w = build(opts);
        let mut x = Exec::new(w.classes());
        x.warm_up(w.as_mut(), WARM_UP_BASE, rounds.div_ceil(10));
        setup_ns.push(t.elapsed().as_nanos() as u64);
        last = Some((w, x));
    }
    let (mut w, mut x) = last.expect("SETUPS > 0");

    let phase = x.run_phase(w.as_mut(), 0, rounds, false);
    w.verify(&mut x, rounds, opts.sabotage);

    let n = phase.rounds as f64;
    let c = &phase.counters;
    let values = [
        ("setup_s", median(&setup_ns) as f64 / 1e9),
        ("round_p50_ms", ns_to_ms(median(&phase.round_ns))),
        ("round_p95_ms", ns_to_ms(percentile(&phase.round_ns, 0.95))),
        ("rounds_per_s", n / phase.wall.as_secs_f64()),
        ("link_bytes_per_round", c.link.total_bytes() as f64 / n),
        ("link_msgs_per_round", c.link.total_messages() as f64 / n),
        ("link_virtual_ms_per_round", c.virt.as_secs_f64() * 1e3 / n),
        ("peak_rss_mb", peak_rss_mib()),
    ];
    let metrics = catalog::end_to_end()
        .into_iter()
        .map(|m| {
            let v = values.iter().find(|(k, _)| *k == m.name).map_or(0.0, |(_, v)| *v);
            (m, v)
        })
        .collect();
    Ok(Report {
        workload: opts.workload.clone(),
        seed: opts.seed,
        trace: false,
        rounds,
        attempted: x.attempted,
        failed: x.failed,
        metrics,
        errors: x.errors.clone(),
        notes: Vec::new(),
    })
}

fn run_traced(opts: &Options, rounds: u64) -> Result<Report, String> {
    let mut w = build(opts);
    let mut x = Exec::new(w.classes());
    // An untraced phase first (class latencies, and the baseline the
    // tracing overhead is measured against), then the same seeded rounds
    // continue with spans and probes on.
    let (untraced_rounds, traced_rounds) = (rounds.div_ceil(2), rounds.div_ceil(5));
    x.warm_up(w.as_mut(), WARM_UP_BASE, untraced_rounds.div_ceil(10));
    let untraced = x.run_phase(w.as_mut(), 0, untraced_rounds, false);
    let traced = x.run_phase(w.as_mut(), untraced_rounds, traced_rounds, true);
    let extras = w.layer_extras();

    if let Some(dir) = &opts.out_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("trace-{}.jsonl", opts.workload));
        x.spans.write_jsonl(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let mut notes = vec!["layer breakdown of the probe rounds, per class (top 3):".to_string()];
    notes.extend(class_breakdown(&x.spans, x.classes).into_iter().map(|l| format!("  {l}")));
    let values = layer_metrics(TracedRun {
        idaa: w.idaa(),
        exec: &x,
        untraced: &untraced,
        traced: &traced,
        extras,
    });
    let metrics = catalog::per_layer()
        .into_iter()
        .map(|m| {
            let v = values.get(&m.name).copied().unwrap_or(0.0);
            (m, v)
        })
        .collect();
    Ok(Report {
        workload: opts.workload.clone(),
        seed: opts.seed,
        trace: true,
        rounds: untraced_rounds + traced_rounds,
        attempted: x.attempted,
        failed: x.failed,
        metrics,
        errors: x.errors.clone(),
        notes,
    })
}
