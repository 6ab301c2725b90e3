//! `ingest_recover` — an ingest-and-recover cycle: both loader paths, a
//! bulk `INSERT … VALUES`, a pull back to DB2, replicated deletes, then an
//! accelerator crash and recovery after which every acknowledged row must
//! still be there. `common::wire`, `netsim`, `loader`, `core::replication`
//! and `accel::durable` replay do the work; `accel::exec` almost none.

use super::{accelerate, first_row_i64, must};
use crate::harness::{Exec, Scale, Workload, ACCEL, ANY, HOST};
use crate::probes;
use crate::rng::SplitMix64;
use idaa_common::{Error, ObjectName, Rows};
use idaa_core::{Idaa, Session};
use idaa_host::SYSADM;
use idaa_loader::{parse_record, EventSource, LoadTarget, Loader, RecordSource, TOPICS};

pub const CLASSES: [&str; 7] = [
    "load_direct",
    "load_via_db2",
    "bulk_values",
    "pull_rows",
    "repl_delete",
    "crash_recover",
    "reset",
];
// Indices into `CLASSES`.
const LOAD_DIRECT: usize = 0;
const LOAD_VIA_DB2: usize = 1;
const BULK_VALUES: usize = 2;
const PULL_ROWS: usize = 3;
const REPL_DELETE: usize = 4;
const CRASH_RECOVER: usize = 5;
const RESET: usize = 6;
pub const ROUNDS_PER_SECOND: f64 = 19.0;

/// Schema of `loader::EventSource` records.
const FEED_COLUMNS: &str =
    "(EVENT_ID INT, CUST_ID INT, TOPIC VARCHAR(10), SENTIMENT DOUBLE, POSTED_AT TIMESTAMP)";

/// `bulk_values` ids start here, clear of every loaded event id.
const BULK_BASE: i64 = 1_000_000;

struct Sizes {
    direct: usize,
    via_db2: usize,
    bulk: usize,
    pull: usize,
    /// A `DELETE` on a replicated table costs one full-column-equality scan
    /// of the accelerator copy per deleted row
    /// (`replication::delete_exact`), so this stays small.
    delete: usize,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes { direct: 4_000, via_db2: 1_500, bulk: 400, pull: 2_000, delete: 10 },
        Scale::Smoke => Sizes { direct: 600, via_db2: 300, bulk: 60, pull: 300, delete: 5 },
    }
}

pub struct IngestRecover {
    idaa: Idaa,
    s: Session,
    seed: u64,
    sizes: Sizes,
    loader: Loader,
    /// `(restarts, checkpoint + log bytes they replayed)`.
    replayed: (u64, u64),
}

fn create_feeds(idaa: &Idaa, s: &mut Session) {
    must(idaa, s, &format!("CREATE TABLE FEED_AOT {FEED_COLUMNS} IN ACCELERATOR"));
    must(idaa, s, &format!("CREATE TABLE FEED_DB2 {FEED_COLUMNS}"));
    accelerate(idaa, s, "FEED_DB2");
    must(idaa, s, &format!("CREATE TABLE PULLED {FEED_COLUMNS}"));
}

/// `1 + 2 + … + n`.
fn triangle(n: i64) -> i64 {
    n * (n + 1) / 2
}

impl IngestRecover {
    pub fn setup(seed: u64, scale: Scale) -> IngestRecover {
        let idaa = Idaa::default();
        let mut s = idaa.session(SYSADM);
        create_feeds(&idaa, &mut s);
        must(&idaa, &mut s, "SET CURRENT QUERY ACCELERATION = ELIGIBLE");
        IngestRecover {
            idaa,
            s,
            seed,
            sizes: sizes(scale),
            loader: Loader::new(SYSADM),
            replayed: (0, 0),
        }
    }

    fn load(
        &self,
        x: &mut Exec,
        class: usize,
        table: &str,
        rows: usize,
        source_seed: u64,
        target: LoadTarget,
    ) {
        let idaa = &self.idaa;
        let name = ObjectName::bare(table);
        let loaded = x.op(idaa, class, "loader.load", || {
            let report = self.loader.load(
                idaa,
                Box::new(EventSource::new(rows, source_seed)),
                &name,
                target,
            )?;
            if report.rows_loaded == rows && report.rows_rejected == 0 {
                Ok(rows as u64)
            } else {
                Err(Error::Load(format!("{table}: {report:?}, expected {rows} rows")))
            }
        });
        if loaded && x.probing {
            // What the load's text-to-row parsing and its trip over the
            // link cost on their own, on the same seeded records.
            x.probed(idaa, |x| {
                let Ok(meta) = idaa.host().table_meta(&name) else { return };
                let records = EventSource::new(rows, source_seed)
                    .next_batch(rows)
                    .ok()
                    .flatten()
                    .unwrap_or_default();
                let id = x.probe_open("loader.parse");
                let parsed: Vec<_> =
                    records.iter().filter_map(|r| parse_record(r, &meta.schema).ok()).collect();
                x.probe_close(id, parsed.len() as u64);
                probes::ship(x, &Rows::new(meta.schema, parsed));
            });
        }
    }

    /// `SELECT COUNT(*), SUM(event_id)` of `table` on the accelerator.
    fn count_and_sum(&mut self, x: &mut Exec, table: &str) -> Vec<i64> {
        let sql = format!("SELECT COUNT(*), SUM(event_id) FROM {table}");
        first_row_i64(x, &self.idaa, &mut self.s, CRASH_RECOVER, &sql, ACCEL)
    }
}

impl Workload for IngestRecover {
    fn classes(&self) -> &'static [&'static str] {
        &CLASSES
    }

    fn idaa(&self) -> &Idaa {
        &self.idaa
    }

    fn round(&mut self, x: &mut Exec, i: u64) {
        let mut r = SplitMix64::new(self.seed).fork(i ^ 0x1A6E_0000_0000);
        let Sizes { direct, via_db2, bulk, pull, delete } = self.sizes;
        let (seed_direct, seed_db2) = (r.next_u64(), r.next_u64());
        let values: Vec<String> = (0..bulk as i64)
            .map(|k| {
                format!(
                    "({}, {}, '{}', {}.{:04}E0, TIMESTAMP '2015-{:02}-{:02} {:02}:{:02}:{:02}')",
                    BULK_BASE + k,
                    r.range(1, 100_000),
                    TOPICS[r.below(TOPICS.len() as u64) as usize],
                    r.range(-1, 0),
                    r.below(10_000),
                    r.range(1, 12),
                    r.range(1, 28),
                    r.below(24),
                    r.below(60),
                    r.below(60),
                )
            })
            .collect();
        let bulk_sql = format!("INSERT INTO FEED_DB2 VALUES {}", values.join(", "));

        self.load(x, LOAD_DIRECT, "FEED_AOT", direct, seed_direct, LoadTarget::AcceleratorDirect);
        self.load(x, LOAD_VIA_DB2, "FEED_DB2", via_db2, seed_db2, LoadTarget::Db2);
        x.sql(&self.idaa, &mut self.s, BULK_VALUES, &bulk_sql, HOST);
        let pull_sql = format!(
            "INSERT INTO PULLED SELECT event_id, cust_id, topic, sentiment, posted_at \
             FROM feed_aot WHERE event_id <= {pull}"
        );
        let pulled =
            x.sql(&self.idaa, &mut self.s, PULL_ROWS, &pull_sql, ANY).map_or(0, |o| o.count());
        x.check(pulled == pull, || format!("round {i}: pulled {pulled} rows, expected {pull}"));
        let delete_sql = format!("DELETE FROM feed_db2 WHERE event_id <= {delete}");
        x.sql(&self.idaa, &mut self.s, REPL_DELETE, &delete_sql, HOST);

        // The durability check: crash the accelerator, recover from its
        // durable log and checkpoints, and every acknowledged load, insert
        // and delete must be reflected — no more, no less.
        x.group_begin();
        let idaa = &self.idaa;
        let recovered = x.extra(idaa, Some(CRASH_RECOVER), "durable.restart", || {
            idaa.accel().crash();
            idaa.recover()
        });
        x.check(recovered, || format!("round {i}: accelerator did not recover"));
        if let Some(stats) = self.idaa.last_restart() {
            self.replayed.0 += 1;
            self.replayed.1 += stats.checkpoint_bytes + stats.log_bytes_replayed;
        }
        let (direct, via_db2, bulk, delete) =
            (direct as i64, via_db2 as i64, bulk as i64, delete as i64);
        let aot = self.count_and_sum(x, "FEED_AOT");
        x.check(aot == [direct, triangle(direct)], || {
            format!("round {i}: FEED_AOT after recovery is {aot:?}, acknowledged {direct} rows")
        });
        let want = [
            via_db2 + bulk - delete,
            triangle(via_db2) + bulk * BULK_BASE + triangle(bulk - 1) - triangle(delete),
        ];
        let copy = self.count_and_sum(x, "FEED_DB2");
        x.check(copy == want, || {
            format!("round {i}: FEED_DB2 copy after recovery is {copy:?}, expected {want:?}")
        });
        x.group_end(CRASH_RECOVER);

        x.group_begin();
        for table in ["FEED_AOT", "FEED_DB2", "PULLED"] {
            x.sql(&self.idaa, &mut self.s, RESET, &format!("DROP TABLE {table}"), ANY);
        }
        let (idaa, s) = (&self.idaa, &mut self.s);
        x.op(idaa, RESET, "core.execute_stmt", || {
            create_feeds(idaa, s);
            Ok(0)
        });
        x.group_end(RESET);
    }

    /// Every round already checked its post-recovery state against the
    /// acknowledged loads; what is left is that the last reset emptied
    /// everything.
    fn verify(&mut self, x: &mut Exec, _rounds: u64, sabotage: bool) {
        let aot = self.count_and_sum(x, "FEED_AOT");
        let want = i64::from(sabotage);
        x.check(aot.first() == Some(&want), || {
            format!("FEED_AOT holds {aot:?} after the last reset, expected {want} rows")
        });
    }

    fn layer_extras(&mut self) -> Vec<(String, f64)> {
        let (restarts, bytes) = self.replayed;
        let per_restart = crate::stats::ratio(bytes as f64, restarts as f64);
        vec![("durable.replayed_bytes_per_restart".into(), per_restart)]
    }
}
