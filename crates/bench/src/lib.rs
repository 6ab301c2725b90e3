//! The experiment harness: a deterministic, self-checking record of E1–E22.
//!
//! The EDBT 2016 poster contains no quantitative evaluation, so the
//! experiment suite (indexed in `DESIGN.md`, discussed in `EXPERIMENTS.md`)
//! operationalizes each claim in the paper's text. The evidence is the
//! deterministic columns — where data lives, how many bytes and messages
//! cross the link, simulated wire time — and `exp --check` compares every
//! one of them against `golden/experiments.txt`. Wall-clock readings are a
//! separate type ([`Wall`]) that can only become a wall cell, which the
//! check masks; whether a cell is masked is therefore decided where the
//! `Instant` is read, never by a column name. Performance claims live in
//! `crates/benchmark`, not here.

use idaa_core::{Idaa, IdaaConfig, Session};
use idaa_host::SYSADM;
use idaa_netsim::LinkMetrics;
use std::time::{Duration, Instant};

pub mod experiments;
mod report;

pub use report::{check, det, Cell, Report, Table, ACTUAL_PATH};

/// Build a system with an admin session. No result depends on the
/// accelerator's worker count, so "auto" parallelism stays the product's.
pub fn system(config: IdaaConfig) -> (Idaa, Session) {
    let idaa = Idaa::new(config);
    let session = idaa.session(SYSADM);
    (idaa, session)
}

/// Run `INSERT INTO <table> VALUES …` over `tuples` in statements of up to
/// 1000 rows.
pub fn insert_batched(
    idaa: &Idaa,
    s: &mut Session,
    table: &str,
    tuples: impl Iterator<Item = String>,
) {
    let mut tuples = tuples.peekable();
    while tuples.peek().is_some() {
        let chunk: Vec<String> = tuples.by_ref().take(1000).collect();
        idaa.execute(s, &format!("INSERT INTO {table} VALUES {}", chunk.join(", ")))
            .expect("insert");
    }
}

/// Create and fill the canonical SALES fact table:
/// `(ID, REGION, PRODUCT, AMOUNT, QTY, SOLD_ON)` with `rows` rows.
pub fn seed_sales(idaa: &Idaa, s: &mut Session, rows: usize) {
    idaa.execute(
        s,
        "CREATE TABLE SALES (ID INT NOT NULL, REGION VARCHAR(8), PRODUCT VARCHAR(8), \
         AMOUNT DOUBLE, QTY INT, SOLD_ON DATE)",
    )
    .expect("create SALES");
    let tuple = |i: usize| {
        format!(
            "({i}, '{}', 'P{:03}', {}.5E0, {}, DATE '2015-0{}-0{}')",
            ["EU", "US", "APAC", "LATAM"][i % 4],
            i % 200,
            (i * 13) % 1000,
            (i % 9) + 1,
            (i % 9) + 1,
            (i % 8) + 1
        )
    };
    insert_batched(idaa, s, "SALES", (0..rows).map(tuple));
}

/// Accelerate a table (ADD + LOAD).
pub fn accelerate(idaa: &Idaa, s: &mut Session, table: &str) {
    idaa.execute(s, &format!("CALL ACCEL_ADD_TABLES('{table}')")).expect("add");
    idaa.execute(s, &format!("CALL ACCEL_LOAD_TABLES('{table}')")).expect("load");
}

/// A wall-clock reading, in seconds. Only [`timed`] (and [`measure`] on top
/// of it) constructs one, and it has no accessor, `Display` or `Debug`: the
/// only way out is a wall [`Cell`], which `exp --check` renders as `~`.
#[derive(Clone, Copy)]
pub struct Wall(f64);

impl Wall {
    /// Wall cell formatted by `fmt` from seconds. A plain `fn` cannot
    /// capture, so the reading cannot leave through it.
    pub fn cell(self, fmt: fn(f64) -> String) -> Cell {
        Cell::wall(fmt(self.0))
    }

    /// Wall cell in milliseconds with two decimals.
    pub fn ms(self) -> Cell {
        self.cell(|s| format!("{:.2}", s * 1e3))
    }

    /// Wall cell `self / faster` as a speedup factor.
    pub fn speedup_over(self, faster: Wall) -> Cell {
        Cell::wall(format!("{:.1}x", self.0 / faster.0))
    }

    /// Mean time per item over `n` items.
    pub fn per(self, n: usize) -> Wall {
        Wall(self.0 / n as f64)
    }

    /// This reading plus simulated time (compute + virtual wire).
    pub fn plus(self, virt: Duration) -> Wall {
        Wall(self.0 + virt.as_secs_f64())
    }
}

/// Run `f` and read the wall clock around it.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Wall) {
    let t0 = Instant::now();
    let out = f();
    (out, Wall(t0.elapsed().as_secs_f64()))
}

/// Measure wall time and link delta of `f`. Traffic is the fleet-wide
/// total ([`Idaa::fleet_link_metrics`], i.e. [`LinkMetrics::merged`] over
/// every node's link) — never a hand-summed estimate — which reduces to
/// the single link's metrics for a one-node fleet.
pub fn measure<T>(idaa: &Idaa, f: impl FnOnce() -> T) -> (T, Wall, LinkMetrics) {
    let before = idaa.fleet_link_metrics();
    let (out, wall) = timed(f);
    (out, wall, idaa.fleet_link_metrics().since(&before))
}

/// Milliseconds with two decimals, for virtual-clock durations
/// ([`LinkMetrics::wire_time`]); wall readings go through [`Wall::ms`].
pub fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1000.0)
}

/// Human-readable byte count.
pub fn fmt_bytes(b: u64) -> String {
    if b >= 10_000_000 {
        format!("{:.1} MB", b as f64 / 1e6)
    } else if b >= 10_000 {
        format!("{:.1} KB", b as f64 / 1e3)
    } else {
        format!("{b} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_and_measure() {
        let (idaa, mut s) = system(IdaaConfig::default());
        seed_sales(&idaa, &mut s, 1500);
        let (rows, _elapsed, link) = measure(&idaa, || {
            idaa.query(&mut s, "SELECT COUNT(*) FROM sales").unwrap()
        });
        assert_eq!(rows.scalar().unwrap().render(), "1500");
        assert_eq!(link.total_bytes(), 0);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(40_000), "40.0 KB");
        assert_eq!(fmt_bytes(25_000_000), "25.0 MB");
        assert_eq!(ms(Duration::from_micros(1500)), "1.50");
    }
}
