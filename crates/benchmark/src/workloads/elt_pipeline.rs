//! `elt_pipeline` — the paper's headline chain on accelerator-only tables:
//! extract → transform → predicate DML → join/aggregate → in-database
//! analytics → pull back only the result. It drives the accelerator's
//! *write* path (`insert_select`, MVCC delete marks, durable log,
//! checkpoints) through the same `accel::exec` that `olap_dash` only reads
//! with, so a scan speed-up that slows writes or bloats the log shows here.
//! The link carries control messages only — the paper's claim, asserted in
//! verification.

use super::{interpreted_answer, must, same_answer, sample_rounds, seed_sales_and_custs};
use crate::harness::{Exec, Scale, Workload, ACCEL, ANY, HOST};
use crate::rng::SplitMix64;
use idaa_common::{Rows, Value};
use idaa_core::{Idaa, Session};
use idaa_host::SYSADM;

pub const CLASSES: [&str; 9] = [
    "ddl",
    "extract",
    "transform",
    "stage_update",
    "stage_delete",
    "join_agg",
    "analytics_call",
    "pullback",
    "drop",
];
// Indices into `CLASSES`.
const DDL: usize = 0;
const EXTRACT: usize = 1;
const TRANSFORM: usize = 2;
const STAGE_UPDATE: usize = 3;
const STAGE_DELETE: usize = 4;
const JOIN_AGG: usize = 5;
const ANALYTICS_CALL: usize = 6;
const PULLBACK: usize = 7;
const DROP: usize = 8;
pub const ROUNDS_PER_SECOND: f64 = 20.0;

/// A statement that stays on the accelerator may ship its text and an
/// acknowledgement, never rows.
const CONTROL_ONLY_BYTES: u64 = 1024;

struct Sizes {
    sales: usize,
    custs: usize,
    /// Rows `extract` copies out of SALES.
    window: i64,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes { sales: 50_000, custs: 2_000, window: 12_000 },
        Scale::Smoke => Sizes { sales: 3_000, custs: 100, window: 800 },
    }
}

/// Round `i`'s literals.
struct Lits {
    lo: i64,
    hi: i64,
    /// `stage_update` bumps rows with this quantity.
    qty: i64,
    /// `stage_delete` removes ids below this.
    cut: i64,
}

pub struct EltPipeline {
    idaa: Idaa,
    s: Session,
    seed: u64,
    sizes: Sizes,
}

impl EltPipeline {
    pub fn setup(seed: u64, scale: Scale) -> EltPipeline {
        let idaa = Idaa::default();
        idaa_analytics::deploy_all(&idaa, SYSADM).expect("analytics procedures deploy once");
        let mut s = idaa.session(SYSADM);
        let sizes = sizes(scale);
        seed_sales_and_custs(&idaa, &mut s, seed, sizes.sales, sizes.custs);
        must(&idaa, &mut s, "CREATE TABLE RESULT (SEG VARCHAR(8), N BIGINT, TOTAL DOUBLE)");
        must(&idaa, &mut s, "SET CURRENT QUERY ACCELERATION = ELIGIBLE");
        EltPipeline { idaa, s, seed, sizes }
    }

    fn lits(&self, i: u64) -> Lits {
        let mut r = SplitMix64::new(self.seed).fork(i ^ 0x0E17_0000_0000);
        let lo = r.range(0, self.sizes.sales as i64 - self.sizes.window);
        Lits {
            lo,
            hi: lo + self.sizes.window - 1,
            qty: r.range(2, 9),
            cut: lo + self.sizes.window / 10,
        }
    }

    /// `ddl` … `join_agg`: after this STG2 holds the round's answer.
    fn stage(&mut self, x: &mut Exec, l: &Lits) {
        let (idaa, s) = (&self.idaa, &mut self.s);
        x.group_begin();
        for ddl in [
            "CREATE TABLE STG0 (ID INT, CUST INT, AMOUNT DOUBLE, QTY INT) IN ACCELERATOR",
            "CREATE TABLE STG1 (ID INT, CUST INT, AMOUNT DOUBLE, QTY INT) IN ACCELERATOR",
            "CREATE TABLE STG2 (SEG VARCHAR(8), N BIGINT, TOTAL DOUBLE) IN ACCELERATOR",
        ] {
            x.sql(idaa, s, DDL, ddl, ANY);
        }
        x.group_end(DDL);
        let Lits { lo, hi, qty, cut } = l;
        let extract = format!(
            "INSERT INTO STG0 SELECT id, cust, amount, qty FROM sales WHERE id BETWEEN {lo} AND {hi}"
        );
        x.sql(idaa, s, EXTRACT, &extract, ACCEL);
        let transform =
            "INSERT INTO STG1 SELECT id, cust, amount * 1.01E0, qty FROM stg0 WHERE qty >= 2";
        x.sql(idaa, s, TRANSFORM, transform, ACCEL);
        let update = format!("UPDATE stg1 SET amount = amount + 1.0E0 WHERE qty = {qty}");
        x.sql(idaa, s, STAGE_UPDATE, &update, ACCEL);
        x.sql(idaa, s, STAGE_DELETE, &format!("DELETE FROM stg1 WHERE id < {cut}"), ACCEL);
        x.sql(idaa, s, JOIN_AGG, &format!("INSERT INTO STG2 {JOIN_AGG_SELECT}"), ACCEL);
    }

    /// `analytics_call`, `pullback`, `drop`: leaves the database the size
    /// the round found it.
    fn finish(&mut self, x: &mut Exec, i: u64) {
        let (idaa, s) = (&self.idaa, &mut self.s);
        let call = if i.is_multiple_of(2) {
            "CALL ANALYTICS.DESCRIBE('STG1', 'STG1_OUT')"
        } else {
            "CALL ANALYTICS.LINREG('STG1', 'AMOUNT', 'QTY', 'STG1_OUT')"
        };
        x.sql(idaa, s, ANALYTICS_CALL, call, ANY);
        // The only rows that cross the link: one per customer segment.
        let pulled =
            x.sql(idaa, s, PULLBACK, "INSERT INTO RESULT SELECT seg, n, total FROM stg2", ANY);
        let segments = pulled.map_or(0, |o| o.count());
        x.check((1..=super::SEGMENTS.len()).contains(&segments), || {
            format!("round {i}: pulled back {segments} rows, expected one per segment")
        });
        x.group_begin();
        for table in ["STG0", "STG1", "STG2", "STG1_OUT"] {
            x.sql(idaa, s, DROP, &format!("DROP TABLE {table}"), ANY);
        }
        x.sql(idaa, s, DROP, "DELETE FROM result", HOST);
        x.group_end(DROP);
    }

    /// What STG2 must hold for `l`, computed on DB2 from the replicated
    /// source tables: the transform scales every amount by 1.01, and the
    /// update adds 1.0 to each row with the chosen quantity.
    fn expected_on_host(&mut self, x: &mut Exec, l: &Lits) -> Rows {
        let (idaa, s) = (&self.idaa, &mut self.s);
        must(idaa, s, "SET CURRENT QUERY ACCELERATION = NONE");
        let Lits { hi, qty, cut, .. } = l;
        let base = format!(
            "FROM sales s INNER JOIN custs c ON s.cust = c.cust \
             WHERE s.id BETWEEN {cut} AND {hi} AND s.qty >= 2"
        );
        let mut per_seg = |x: &mut Exec, sql: String| {
            x.sql(idaa, s, JOIN_AGG, &sql, HOST).and_then(|o| o.rows().cloned()).unwrap_or_default()
        };
        let mut all = per_seg(
            x,
            format!("SELECT c.seg, COUNT(*), SUM(s.amount * 1.01E0) {base} GROUP BY c.seg"),
        );
        let bumped =
            per_seg(x, format!("SELECT c.seg, COUNT(*) {base} AND s.qty = {qty} GROUP BY c.seg"));
        must(idaa, s, "SET CURRENT QUERY ACCELERATION = ELIGIBLE");
        for row in &mut all.rows {
            let bumps =
                bumped.rows.iter().find(|b| b[0] == row[0]).and_then(|b| b[1].as_i64().ok());
            if let (Value::Double(total), Some(n)) = (&row[2], bumps) {
                row[2] = Value::Double(total + n as f64);
            }
        }
        all
    }
}

const JOIN_AGG_SELECT: &str = "SELECT c.seg, COUNT(*), SUM(s.amount) FROM stg1 s \
                               INNER JOIN custs c ON s.cust = c.cust GROUP BY c.seg";

impl Workload for EltPipeline {
    fn classes(&self) -> &'static [&'static str] {
        &CLASSES
    }

    fn idaa(&self) -> &Idaa {
        &self.idaa
    }

    fn round(&mut self, x: &mut Exec, i: u64) {
        let l = self.lits(i);
        self.stage(x, &l);
        self.finish(x, i);
    }

    fn verify(&mut self, x: &mut Exec, rounds: u64, sabotage: bool) {
        let mut sabotage = sabotage;
        for i in sample_rounds(self.seed, rounds) {
            let l = self.lits(i);
            let before = self.idaa.fleet_link_metrics();
            self.stage(x, &l);
            let moved = self.idaa.fleet_link_metrics().since(&before);
            // Six statements stayed on the accelerator: control frames only.
            x.check(moved.total_bytes() <= 8 * CONTROL_ONLY_BYTES, || {
                format!("round {i}: staging moved {} B over the link", moved.total_bytes())
            });
            let staged = x
                .sql(&self.idaa, &mut self.s, JOIN_AGG, "SELECT seg, n, total FROM stg2", ACCEL)
                .and_then(|o| o.rows().cloned())
                .unwrap_or_default();
            let mut expected = self.expected_on_host(x, &l);
            if std::mem::take(&mut sabotage) {
                expected.rows.pop();
            }
            x.check(same_answer(&staged, &expected, false), || {
                format!("round {i}: STG2 differs from the same chain computed on DB2")
            });
            let interpreted = interpreted_answer(&self.idaa, JOIN_AGG_SELECT);
            x.check(interpreted.is_some_and(|o| same_answer(&o, &staged, false)), || {
                format!("round {i}: STG2 differs from the interpreted join/aggregate")
            });
            self.finish(x, i);
        }
    }
}
