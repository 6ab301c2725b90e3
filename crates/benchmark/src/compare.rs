//! `benchmark compare <a.jsonl> <b.jsonl>`: apply each end-to-end metric's
//! bound to two result sets.
//!
//! A *set* is a file of run records, one JSON object per line, as written
//! by `--append` / `benchmark set`:
//! `{"workload": …, "seed": …, "trace": 0|1, "rounds": …, "result": <result line>}`.
//! Per workload the set's value of a metric is the median over its
//! untraced runs; its spread is the interquartile distance as a share of
//! that median (Python's `statistics.quantiles(values, n=4)`).

use crate::catalog::{self, Better, Metric};
use crate::json::Json;
use crate::workloads;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Unchanged,
    Improved,
    Regressed,
    /// The spread between runs exceeds the bound and the two sets overlap:
    /// nothing can be said either way.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The three cut points of `statistics.quantiles(values, n=4)` (exclusive
/// method). Fewer than two values have no spread: all three are the value.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    if m < 2 {
        return [v.first().copied().unwrap_or(0.0); 3];
    }
    [1, 2, 3].map(|i| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Judge set `b` (the change) against set `a` (the parent) on one metric.
pub fn judge(m: &Metric, a: &[f64], b: &[f64]) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    // Positive = worse, as a share of the parent's median.
    let worse = match (m.better, ma == 0.0) {
        (_, true) => 0.0,
        (Better::Lower, _) => (mb - ma) / ma.abs(),
        (Better::Higher, _) => (ma - mb) / ma.abs(),
    };
    let is_better = |x: f64, y: f64| match m.better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let all = |pred: &dyn Fn(f64, f64) -> bool| b.iter().all(|&y| a.iter().all(|&x| pred(y, x)));
    if spread(a).max(spread(b)) > m.bound {
        // Too noisy for the bound: only a clean separation counts.
        if all(&|y, x| is_better(y, x)) {
            Verdict::Improved
        } else if worse > m.bound && all(&|y, x| is_better(x, y)) {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        }
    } else if worse > m.bound {
        Verdict::Regressed
    } else if -worse > spread(a) && all(&|y, x| is_better(y, x)) {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Untraced runs of one set: workload → metric → values, plus failures.
#[derive(Debug, Default)]
pub struct Set {
    pub values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    pub failed_runs: Vec<String>,
}

pub fn parse_set(text: &str) -> Result<Set, String> {
    let mut set = Set::default();
    for (n, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let rec = Json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let field = |k: &str| rec.get(k).ok_or(format!("line {}: no \"{k}\"", n + 1));
        let workload = field("workload")?.as_str().unwrap_or_default().to_string();
        let result = field("result")?;
        let failed = result.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        if failed > 0.0 || result.get("correct") != Some(&Json::Bool(true)) {
            let seed = field("seed")?.as_f64().unwrap_or(0.0);
            set.failed_runs.push(format!("{workload} seed {seed}: {failed} failed"));
        }
        if field("trace")?.as_f64() != Some(0.0) {
            continue;
        }
        let metrics = result.get("metrics").and_then(Json::as_obj).unwrap_or_default();
        for (name, entry) in metrics {
            let v = entry
                .get("value")
                .and_then(Json::as_f64)
                .ok_or(format!("line {}: {name} has no value", n + 1))?;
            set.values
                .entry(workload.clone())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(v);
        }
    }
    Ok(set)
}

/// Compare two sets; returns the printed table and whether `b` passes (no
/// regression, no failed run in either set).
pub fn compare(a: &Set, b: &Set) -> (String, bool) {
    let mut out = format!(
        "{:<15} {:<26} {:>14} {:>14} {:>8} {:>7} {:>6}  verdict\n",
        "workload", "metric", "a (median)", "b (median)", "change", "spread", "bound"
    );
    let mut pass = true;
    for w in workloads::NAMES {
        let (Some(wa), Some(wb)) = (a.values.get(w), b.values.get(w)) else { continue };
        for m in catalog::end_to_end() {
            let (Some(va), Some(vb)) = (wa.get(&m.name), wb.get(&m.name)) else { continue };
            let verdict = judge(&m, va, vb);
            pass &= verdict != Verdict::Regressed;
            let (ma, mb) = (median(va), median(vb));
            out.push_str(&format!(
                "{w:<15} {:<26} {ma:>14.4} {mb:>14.4} {:>+7.1}% {:>6.1}% {:>5.0}%  {}{}\n",
                m.name,
                if ma == 0.0 { 0.0 } else { (mb - ma) / ma * 100.0 },
                spread(va).max(spread(vb)) * 100.0,
                m.bound * 100.0,
                verdict.as_str(),
                if va.len() != vb.len() {
                    format!("  (n = {} vs {})", va.len(), vb.len())
                } else {
                    String::new()
                },
            ));
        }
    }
    for f in a
        .failed_runs
        .iter()
        .map(|f| format!("a: {f}"))
        .chain(b.failed_runs.iter().map(|f| format!("b: {f}")))
    {
        out.push_str(&format!("FAILED RUN  {f}\n"));
        pass = false;
    }
    (out, pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: Better, bound: f64) -> Metric {
        Metric { name: "x".into(), unit: "ms", better, bound }
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn verdicts() {
        let m = metric(Better::Lower, 0.10);
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(judge(&m, &a, &[103.0, 104.0, 102.0, 103.5, 102.5]), Verdict::Unchanged);
        assert_eq!(judge(&m, &a, &[113.0, 114.0, 112.0, 113.5, 112.5]), Verdict::Regressed);
        assert_eq!(judge(&m, &a, &[90.0, 91.0, 89.0, 90.5, 89.5]), Verdict::Improved);
        // Spread wider than the bound, sets overlap: nothing can be said.
        let noisy = [80.0, 100.0, 120.0, 90.0, 130.0];
        assert_eq!(judge(&m, &noisy, &[85.0, 105.0, 125.0, 95.0, 140.0]), Verdict::Unresolved);
        // … unless every run of the change beats every run of the parent.
        assert_eq!(judge(&m, &noisy, &[50.0, 60.0, 70.0, 55.0, 65.0]), Verdict::Improved);
        assert_eq!(judge(&m, &noisy, &[150.0, 160.0, 170.0, 155.0, 165.0]), Verdict::Regressed);
        let up = metric(Better::Higher, 0.10);
        assert_eq!(judge(&up, &a, &[80.0, 81.0, 79.0, 80.5, 79.5]), Verdict::Regressed);
        assert_eq!(judge(&up, &a, &[120.0, 121.0, 119.0, 120.5, 119.5]), Verdict::Improved);
    }

    #[test]
    fn a_failed_run_fails_the_comparison() {
        let line = |failed: u32| {
            format!(
                "{{\"workload\": \"olap_dash\", \"seed\": 1, \"trace\": 0, \"rounds\": 5, \"result\": \
                 {{\"correct\": {}, \"attempted\": 10, \"failed\": {failed}, \"metrics\": \
                 {{\"round_p50_ms\": {{\"value\": 1.5, \"unit\": \"ms\"}}}}}}}}",
                failed == 0
            )
        };
        let good = parse_set(&line(0)).unwrap();
        let bad = parse_set(&line(2)).unwrap();
        assert!(compare(&good, &good).1);
        let (table, pass) = compare(&good, &bad);
        assert!(!pass && table.contains("FAILED RUN"), "{table}");
    }
}
