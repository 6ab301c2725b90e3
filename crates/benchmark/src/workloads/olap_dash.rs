//! `olap_dash` — a dashboard refresh: four accelerator-routed analytic
//! queries over replicated tables. `accel::exec` does nearly all the work;
//! `core`, `wire`, `netsim` and `sql` almost none. This is the workload on
//! which a kernel or pipeline change must show, and on which a dispatch or
//! metrics change must *not* move.

use super::{interpreted_answer, must, same_answer, sample_rounds, seed_sales_and_custs, REGIONS};
use crate::harness::{Exec, Scale, Workload, ACCEL, HOST};
use crate::rng::SplitMix64;
use crate::stats;
use idaa_accel::AccelConfig;
use idaa_core::{Idaa, IdaaConfig, Session};
use idaa_host::SYSADM;
use std::time::Instant;

pub const CLASSES: [&str; 4] = ["scan_agg", "join_topk", "sort_limit", "dict_group"];
pub const ROUNDS_PER_SECOND: f64 = 32.0;

/// Rounds are numbered in blocks of 2^32 (timed rounds in block 0, warm-up
/// in another), and a round only ever reuses literals of its own block.
const BLOCK: u64 = 1 << 32;

struct Sizes {
    sales: usize,
    custs: usize,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes { sales: 100_000, custs: 2_000 },
        Scale::Smoke => Sizes { sales: 4_000, custs: 100 },
    }
}

pub struct OlapDash {
    idaa: Idaa,
    s: Session,
    seed: u64,
    scale: Scale,
    sizes: Sizes,
}

impl OlapDash {
    pub fn setup(seed: u64, scale: Scale) -> OlapDash {
        Self::setup_with(seed, scale, IdaaConfig::default())
    }

    fn setup_with(seed: u64, scale: Scale, config: IdaaConfig) -> OlapDash {
        let idaa = Idaa::new(config);
        let mut s = idaa.session(SYSADM);
        let sizes = sizes(scale);
        seed_sales_and_custs(&idaa, &mut s, seed, sizes.sales, sizes.custs);
        must(&idaa, &mut s, "SET CURRENT QUERY ACCELERATION = ELIGIBLE");
        OlapDash { idaa, s, seed, scale, sizes }
    }

    /// The four query texts of round `i`, with whether their row order is
    /// fully determined. Even rounds draw fresh literals (plan-cache
    /// misses); odd rounds reuse those of a seeded earlier even round of
    /// the same block (hits).
    fn queries(&self, i: u64) -> [(String, bool); 4] {
        let (block, k) = (i / BLOCK * BLOCK, i % BLOCK);
        let src = if k % 2 == 1 {
            block + 2 * SplitMix64::new(self.seed).fork(i).below(k.div_ceil(2))
        } else {
            i
        };
        let mut r = SplitMix64::new(self.seed).fork(src ^ 0x0D45_0000_0000);
        let n = self.sizes.sales as i64;
        let window = |r: &mut SplitMix64, share_pct: i64| {
            let len = n * share_pct / 100;
            let lo = r.range(0, n - len);
            (lo, lo + len)
        };
        let (a_lo, a_hi) = window(&mut r, 50);
        let a_qty = r.range(1, 9);
        let (j_lo, j_hi) = window(&mut r, 6);
        let (s_lo, s_hi) = window(&mut r, 10);
        let d_region = REGIONS[r.below(REGIONS.len() as u64) as usize];
        let d_lo = r.range(0, n / 10);
        [
            (
                format!(
                    "SELECT region, COUNT(*), SUM(amount), MIN(qty), MAX(qty) FROM sales \
                     WHERE id BETWEEN {a_lo} AND {a_hi} AND qty <> {a_qty} GROUP BY region"
                ),
                false,
            ),
            (
                format!(
                    "SELECT c.seg, COUNT(*), SUM(s.amount) FROM sales s \
                     INNER JOIN custs c ON s.cust = c.cust \
                     WHERE s.id BETWEEN {j_lo} AND {j_hi} \
                     GROUP BY c.seg ORDER BY 3 DESC LIMIT 5"
                ),
                true,
            ),
            (
                format!(
                    "SELECT id, amount, qty FROM sales WHERE id BETWEEN {s_lo} AND {s_hi} \
                     ORDER BY amount DESC, id LIMIT 20"
                ),
                true,
            ),
            (
                format!(
                    "SELECT product, COUNT(*), SUM(amount) FROM sales \
                     WHERE region = '{d_region}' AND id >= {d_lo} \
                     GROUP BY product ORDER BY 2 DESC, product LIMIT 10"
                ),
                true,
            ),
        ]
    }
}

impl Workload for OlapDash {
    fn classes(&self) -> &'static [&'static str] {
        &CLASSES
    }

    fn idaa(&self) -> &Idaa {
        &self.idaa
    }

    fn round(&mut self, x: &mut Exec, i: u64) {
        for (class, (sql, _)) in self.queries(i).iter().enumerate() {
            x.sql(&self.idaa, &mut self.s, class, sql, ACCEL);
        }
    }

    fn verify(&mut self, x: &mut Exec, rounds: u64, sabotage: bool) {
        let mut sabotage = sabotage;
        for i in sample_rounds(self.seed, rounds) {
            for (class, (sql, ordered)) in self.queries(i).iter().enumerate() {
                let Some(accel) = x.sql(&self.idaa, &mut self.s, class, sql, ACCEL) else {
                    continue;
                };
                let Some(accel) = accel.rows().cloned() else { continue };
                must(&self.idaa, &mut self.s, "SET CURRENT QUERY ACCELERATION = NONE");
                let host = x.sql(&self.idaa, &mut self.s, class, sql, HOST);
                must(&self.idaa, &mut self.s, "SET CURRENT QUERY ACCELERATION = ELIGIBLE");
                let mut host = host.and_then(|o| o.rows().cloned()).unwrap_or_default();
                if std::mem::take(&mut sabotage) {
                    host.rows.pop();
                }
                x.check(same_answer(&accel, &host, *ordered), || {
                    format!("round {i} {}: accelerator and host answers differ", CLASSES[class])
                });
                let interpreted = interpreted_answer(&self.idaa, sql);
                let agree = interpreted.is_some_and(|o| same_answer(&o, &accel, true));
                x.check(agree, || {
                    format!(
                        "round {i} {}: vectorized and interpreted answers differ",
                        CLASSES[class]
                    )
                });
            }
        }
    }

    /// ROADMAP item 1(d): slice parallelism observed on this box's cores.
    /// A second system with `AccelConfig { parallel: false }` answers the
    /// same seeded queries; speed-up = serial ÷ default per-class median.
    fn layer_extras(&mut self) -> Vec<(String, f64)> {
        let serial_config = IdaaConfig {
            accel: AccelConfig { parallel: false, ..AccelConfig::default() },
            ..IdaaConfig::default()
        };
        let mut serial = OlapDash::setup_with(self.seed, self.scale, serial_config);
        // Serial and default runs of one query alternate, so that a slow
        // spell of the machine lands on both sides of the ratio.
        const REPS: u64 = 9;
        let timed = |w: &mut OlapDash, sql: &str| {
            let t = Instant::now();
            let _ = std::hint::black_box(w.idaa.query(&mut w.s, sql));
            t.elapsed().as_nanos() as u64
        };
        CLASSES[..3]
            .iter()
            .enumerate()
            .map(|(class, name)| {
                let (mut ser, mut par) = (Vec::new(), Vec::new());
                for k in 0..REPS {
                    let sql = &self.queries(2 * k)[class].0;
                    ser.push(timed(&mut serial, sql));
                    par.push(timed(self, sql));
                }
                let speedup = stats::ratio(stats::median(&ser) as f64, stats::median(&par) as f64);
                (format!("accel.parallel_speedup.{name}"), speedup)
            })
            .collect()
    }
}
