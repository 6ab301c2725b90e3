//! The accelerator engine facade — the "IDAA server + Netezza backend"
//! stand-in that the federation layer talks to.
//!
//! Holds the accelerator-side catalog (replicated tables *and*
//! accelerator-only tables look identical here), the transaction registry
//! (enrolled in host transactions), and entry points for queries, AOT DML,
//! bulk load, and grooming.

use crate::durable::{Checkpoint, DurableStore, LogRecord, Lsn, ScrubReport};
use crate::exec::{run_partial_groups, scan_filtered, scan_victims, ExecCtx, ExecMode};
use crate::partial::{cuts, groups_schema};
use crate::mvcc::{CommitSeq, Snapshot, TxnId, TxnRegistry, TxnStatus};
use crate::pipeline::{lower, Lowered};
use crate::table::{AccelTable, RowPos, Slice};
use idaa_common::{wire, Counter, Error, MetricsRegistry, ObjectName, Result, Row, Rows, Schema};
use idaa_netsim::{sites, FaultRegistry};
use idaa_sql::ast::{Expr, Query};
use idaa_sql::eval::{bind, eval, FlatResolver};
use idaa_sql::exec::run;
use idaa_sql::plan::{is_pseudo_table, plan_query, Plan, PlanProfile, SchemaProvider};
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Tunables for the accelerator (ablation experiments flip these).
#[derive(Debug, Clone)]
pub struct AccelConfig {
    /// Data slices per table (worker parallelism).
    pub slices: usize,
    /// Use zone maps for block pruning.
    pub zone_maps: bool,
    /// Scan slices in parallel threads.
    pub parallel: bool,
    /// Worker threads the slices of a scan or pipeline are spread over.
    /// `0` means "auto": `available_parallelism()` capped at `slices`.
    pub parallelism: usize,
}

impl Default for AccelConfig {
    fn default() -> Self {
        AccelConfig { slices: 4, zone_maps: true, parallel: true, parallelism: 0 }
    }
}

impl AccelConfig {
    /// Effective worker count for parallel operators: 1 when `parallel` is
    /// off, else the explicit `parallelism`, else `available_parallelism()`
    /// capped at the slice count. The machine is asked once per process:
    /// the call reads affinity masks and cgroup files, and every slice
    /// fan-out sizes itself from here.
    pub fn workers(&self) -> usize {
        static AUTO: OnceLock<usize> = OnceLock::new();
        if !self.parallel {
            return 1;
        }
        if self.parallelism > 0 {
            return self.parallelism;
        }
        let auto = *AUTO
            .get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1));
        auto.min(self.slices.max(1))
    }
}

/// Operation counters exposed to the bench harness.
#[derive(Debug, Default)]
pub struct AccelStats {
    pub rows_scanned: AtomicU64,
    pub blocks_scanned: AtomicU64,
    pub blocks_pruned: AtomicU64,
    pub queries: AtomicU64,
    pub rows_inserted: AtomicU64,
    pub rows_deleted: AtomicU64,
    pub versions_groomed: AtomicU64,
    /// Compiled-plan cache hits (statement planned before, deps unchanged).
    pub plan_cache_hits: AtomicU64,
    /// Compiled-plan cache misses (first sight, or invalidated deps).
    pub plan_cache_misses: AtomicU64,
}

/// Storage-fault counts: handles on the `disk.*` counters of the metrics
/// registry the engine counts into. Every node of a fleet counts into the
/// same named cells, so each is a fleet-wide total.
struct DiskCounters {
    /// `disk.corruptions_detected`: torn tails, rotted records or
    /// checkpoints, found by recovery scans and the background scrub.
    corruptions_detected: Counter,
    /// `disk.records_truncated`: torn log records truncated (and durably
    /// re-logged) by recovery.
    records_truncated: Counter,
    /// `disk.checkpoint_fallbacks`: invalid checkpoints durably discarded
    /// in favor of an older valid one (the fallback replays the longer log
    /// tail).
    checkpoint_fallbacks: Counter,
    /// `disk.scrub_repairs`: background-scrub passes that repaired latent
    /// damage (fresh checkpoint + excision of the rotted media).
    scrub_repairs: Counter,
    /// `disk.read_failures`: transient recovery-time disk read failures
    /// (`DISK_READ_FAIL`); the restart attempt errors and is retried.
    read_failures: Counter,
}

impl DiskCounters {
    fn new(metrics: &MetricsRegistry) -> DiskCounters {
        DiskCounters {
            corruptions_detected: metrics.counter_handle("disk.corruptions_detected"),
            records_truncated: metrics.counter_handle("disk.records_truncated"),
            checkpoint_fallbacks: metrics.counter_handle("disk.checkpoint_fallbacks"),
            scrub_repairs: metrics.counter_handle("disk.scrub_repairs"),
            read_failures: metrics.counter_handle("disk.read_failures"),
        }
    }
}

/// One cached compiled plan plus the catalog state it was compiled
/// against. Entries validate lazily at lookup: any referenced table whose
/// schema fingerprint moved invalidates the entry and the statement
/// replans. Writes do not: a lowering bakes in no table data — kernels
/// specialize per slice at run time, and dictionary probes are memoized on
/// each `Column`, reset when its dictionary grows.
struct CachedPlan {
    /// The statement's canonical text. The cache key is only its 64-bit
    /// hash, so a hit must also compare the text: a colliding statement
    /// replans instead of being served this plan.
    text: String,
    plan: Arc<Plan>,
    /// `plan` lowered for [`ExecMode::Vectorized`]: bound keys, compiled
    /// kernels, pipelines — a hit skips all of it.
    lowered: Arc<Lowered>,
    /// `(table, schema fingerprint)` per referenced table, in
    /// [`Plan::tables`] order.
    deps: Vec<(ObjectName, u64)>,
}

/// The compiled-plan cache: statement fingerprint → [`CachedPlan`], bounded
/// at [`PLAN_CACHE_MAX`] entries with first-in-first-out eviction (a
/// workload whose statements never repeat costs O(1) per insert and a
/// fixed amount of memory).
#[derive(Default)]
struct PlanCache {
    map: HashMap<u64, CachedPlan>,
    /// Keys in insertion order; every key is in `map` exactly once.
    order: VecDeque<u64>,
}

/// Entries the plan cache holds before the oldest is evicted.
const PLAN_CACHE_MAX: usize = 4096;

impl PlanCache {
    fn insert(&mut self, key: u64, entry: CachedPlan) {
        if self.map.insert(key, entry).is_none() {
            self.order.push_back(key);
            if self.order.len() > PLAN_CACHE_MAX {
                if let Some(oldest) = self.order.pop_front() {
                    self.map.remove(&oldest);
                }
            }
        }
    }

    fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
    }
}

/// What one [`AccelEngine::restart`] did: sizes feed the recovery-time
/// cost model (virtual time charged by the coordinator) and E16's table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RestartStats {
    /// Recovery epoch (incarnation number) after this restart.
    pub epoch: u64,
    /// Bytes of the checkpoint image restored (0 if none existed).
    pub checkpoint_bytes: u64,
    /// Log records replayed past the checkpoint.
    pub log_records_replayed: u64,
    /// Durable bytes of the replayed log tail.
    pub log_bytes_replayed: u64,
    /// In-flight (unprepared) transactions aborted by recovery.
    pub aborted_in_flight: u64,
    /// Prepared (in-doubt) transactions re-materialized for the
    /// coordinator's resolution.
    pub rematerialized_in_doubt: u64,
    /// Torn log records this restart truncated (and durably re-logged).
    pub torn_truncated: u64,
    /// Invalid checkpoints this restart discarded before finding a valid
    /// one (each fallback lengthens the replayed tail).
    pub checkpoint_fallbacks: u64,
    /// Storage corruptions this restart detected in total.
    pub corruptions_detected: u64,
}

/// The accelerator.
pub struct AccelEngine {
    tables: RwLock<HashMap<ObjectName, Arc<AccelTable>>>,
    pub txns: TxnRegistry,
    pub config: AccelConfig,
    pub stats: AccelStats,
    disk: DiskCounters,
    default_schema: String,
    /// The in-memory "disk": checkpoints + commit log. Survives `crash`.
    durable: DurableStore,
    /// Unified failure-injection registry (shared with the coordinator).
    faults: RwLock<Arc<FaultRegistry>>,
    /// True between a crash and the end of the next `restart`.
    crashed: AtomicBool,
    /// True while `restart` replays the log (suppresses re-logging).
    replaying: AtomicBool,
    /// Recovery epoch: bumped by every completed restart. Exchanges carry
    /// it so pre-crash sequence state can be fenced off.
    epoch: AtomicU64,
    /// Stable appliance identity ("ACCEL1" by default; a fleet names its
    /// members ACCEL1..ACCELK). Carried on trace spans and error messages
    /// so failover paths can say *which* accelerator acted.
    identity: RwLock<String>,
    /// Compiled-plan cache, keyed by statement fingerprint. Volatile: a
    /// crash clears it along with the rest of in-memory state.
    plan_cache: RwLock<PlanCache>,
    /// Tables whose contents were lost to unrepairable storage corruption
    /// (durably logged as [`LogRecord::Quarantine`]): statements against
    /// them fail with -904 until a TRUNCATE + reload — never a silently
    /// empty answer. Volatile mirror of the durable state; the checkpoint
    /// image or the replayed log tail restores it.
    quarantined: RwLock<HashSet<ObjectName>>,
    /// Virtual time of the last background-scrub step (drives
    /// [`maybe_scrub`](Self::maybe_scrub)).
    last_scrub_at: Mutex<Option<Duration>>,
}

impl Default for AccelEngine {
    fn default() -> Self {
        AccelEngine::new("APP", AccelConfig::default())
    }
}

impl AccelEngine {
    /// Engine with the given default schema (must match the host's) and
    /// configuration, counting its storage faults into a metrics registry
    /// of its own.
    pub fn new(default_schema: &str, config: AccelConfig) -> AccelEngine {
        AccelEngine {
            tables: RwLock::new(HashMap::new()),
            txns: TxnRegistry::default(),
            config,
            stats: AccelStats::default(),
            disk: DiskCounters::new(&MetricsRegistry::default()),
            default_schema: default_schema.to_string(),
            durable: DurableStore::default(),
            faults: RwLock::new(Arc::new(FaultRegistry::default())),
            crashed: AtomicBool::new(false),
            replaying: AtomicBool::new(false),
            epoch: AtomicU64::new(1),
            identity: RwLock::new("ACCEL1".to_string()),
            plan_cache: RwLock::new(PlanCache::default()),
            quarantined: RwLock::new(HashSet::new()),
            last_scrub_at: Mutex::new(None),
        }
    }

    /// The engine, counting its storage faults into `metrics` (the
    /// `disk.*` counters) instead.
    pub fn with_metrics(mut self, metrics: &MetricsRegistry) -> AccelEngine {
        self.disk = DiskCounters::new(metrics);
        self
    }

    /// Name this appliance (fleet members are ACCEL1..ACCELK). Identity is
    /// operator-assigned at attach time and survives crashes — a restart
    /// changes the recovery [`epoch`](Self::epoch), never the identity.
    pub fn set_identity(&self, name: &str) {
        *self.identity.write() = name.to_string();
    }

    /// Stable appliance identity (default "ACCEL1").
    pub fn identity(&self) -> String {
        self.identity.read().clone()
    }

    fn resolve(&self, name: &ObjectName) -> ObjectName {
        name.resolve(&self.default_schema)
    }

    // -- crash / recovery --------------------------------------------------------

    /// Share a failure-injection registry (the coordinator installs its
    /// own so one `SitePlan` drives accelerator, link and protocol sites).
    pub fn set_fault_registry(&self, registry: Arc<FaultRegistry>) {
        *self.faults.write() = registry;
    }

    /// The engine's current failure-injection registry.
    pub fn fault_registry(&self) -> Arc<FaultRegistry> {
        self.faults.read().clone()
    }

    /// The durable store (observability: log length/bytes, checkpoints).
    pub fn durable(&self) -> &DurableStore {
        &self.durable
    }

    /// Has the engine crashed and not yet been restarted?
    pub fn is_crashed(&self) -> bool {
        self.crashed.load(Ordering::Relaxed)
    }

    /// Recovery epoch (incarnation number): 1 at first boot, +1 per
    /// completed [`restart`](Self::restart).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Prepared (in-doubt) transactions awaiting the coordinator's 2PC
    /// decision — the set a restart re-materializes from the log.
    pub fn in_doubt(&self) -> Vec<TxnId> {
        self.txns.with_status(TxnStatus::Prepared)
    }

    /// True if an undecided (active or prepared) transaction has a version
    /// or a delete mark of `table` here.
    pub fn undecided_on(&self, table: &ObjectName) -> bool {
        let undecided = [TxnStatus::Active, TxnStatus::Prepared].map(|s| self.txns.with_status(s)).concat();
        let touched = |s: &Slice| s.created().iter().chain(s.deleted()).any(|txn| undecided.contains(txn));
        !undecided.is_empty() && self.table(table).is_ok_and(|t| t.slices().iter().any(|s| touched(&s.read())))
    }

    /// Statements must not reach a crashed engine; the coordinator maps
    /// this to SQLCODE -904 (resource unavailable) while recovery runs.
    fn ensure_up(&self) -> Result<()> {
        if self.crashed.load(Ordering::Relaxed) && !self.replaying.load(Ordering::Relaxed) {
            return Err(Error::ResourceUnavailable(
                "accelerator crashed; restart and log replay required".into(),
            ));
        }
        Ok(())
    }

    /// Append to the commit log — unless recovery is replaying it. Used
    /// for small lifecycle records (begin/prepare/commit/abort and the
    /// quarantine marker), which the fault model treats as sector-atomic:
    /// they never tear. Already-written media can still rot afterwards
    /// (the `BITROT_LOG_SEGMENT` consult).
    fn log(&self, record: LogRecord) {
        if !self.replaying.load(Ordering::Relaxed) {
            self.durable.append(record);
            self.rot_point();
        }
    }

    /// Append a data-bearing record (inserts, delete-marks, DDL). These
    /// can tear mid-write (`TORN_LOG_APPEND`): the torn record occupies
    /// its LSN but was never acknowledged, the engine crashes on the
    /// spot, and recovery truncates the tear.
    fn log_data(&self, record: LogRecord) -> Result<()> {
        if self.replaying.load(Ordering::Relaxed) {
            return Ok(());
        }
        if self.faults.read().fire_disk(sites::TORN_LOG_APPEND).is_some() {
            self.durable.append_torn(record);
            self.crash();
            return Err(Error::ResourceUnavailable(format!(
                "accelerator crashed at fault site {}: commit-log append torn",
                sites::TORN_LOG_APPEND
            )));
        }
        self.durable.append(record);
        self.rot_point();
        Ok(())
    }

    /// Consult the bit-rot site after a successful append: a firing
    /// silently damages one already-written log record (chosen by the
    /// seeded parameter draw). Nothing is detected here — that is the
    /// scrub's and recovery's job.
    fn rot_point(&self) {
        if let Some(draw) = self.faults.read().fire_disk(sites::BITROT_LOG_SEGMENT) {
            self.durable.rot_log(draw);
        }
    }

    /// Consult the failure registry at a named crash site; a firing site
    /// crashes the engine (volatile state is lost) and surfaces as -904.
    pub fn crash_point(&self, site: &str) -> Result<()> {
        if self.replaying.load(Ordering::Relaxed) {
            return Ok(());
        }
        if self.faults.read().fire(site) {
            self.crash();
            return Err(Error::ResourceUnavailable(format!(
                "accelerator crashed at fault site {site}"
            )));
        }
        Ok(())
    }

    /// Crash now: all volatile state (tables, transaction registry) is
    /// lost; only the durable store survives. The engine refuses work until
    /// [`restart`](Self::restart).
    pub fn crash(&self) {
        self.crashed.store(true, Ordering::Relaxed);
        self.reset_volatile();
    }

    /// Discard all volatile state: tables, cached plans, the quarantine set
    /// and the transaction registry.
    fn reset_volatile(&self) {
        self.tables.write().clear();
        self.plan_cache.write().clear();
        self.quarantined.write().clear();
        self.txns.reset();
    }

    /// Rebuild state as checkpoint + log replay, durably abort in-flight
    /// (unprepared) transactions, and re-materialize prepared (in-doubt)
    /// transactions for the coordinator's 2PC resolver. Replaying the same
    /// durable state again (a second restart) reproduces the same engine
    /// state byte for byte.
    pub fn restart(&self) -> Result<RestartStats> {
        // A transient disk read failure aborts this restart attempt
        // before anything is touched; the engine stays crashed and the
        // coordinator's health machinery retries later.
        if self.faults.read().fire_disk(sites::DISK_READ_FAIL).is_some() {
            self.disk.read_failures.add(1);
            return Err(Error::ResourceUnavailable(format!(
                "disk read failed at fault site {} during recovery; retry",
                sites::DISK_READ_FAIL
            )));
        }
        self.replaying.store(true, Ordering::Relaxed);
        // Whatever volatile state remains is discarded: recovery starts
        // from the disk image alone.
        self.reset_volatile();

        // Validating read: torn tails truncated (durably re-logged),
        // invalid checkpoints discarded in favor of older valid ones.
        // Corruption beyond local repair leaves the engine crashed and
        // surfaces distinctly, so the coordinator can rebuild the node
        // from a replica or the host instead of serving damaged state.
        let set = match self.durable.recover_scan() {
            Ok(scan) => scan,
            Err(c) => {
                self.disk.corruptions_detected.add(c.corruptions_detected.max(1));
                self.replaying.store(false, Ordering::Relaxed);
                return Err(Error::StorageCorrupt(format!(
                    "durable state beyond local repair: {}",
                    c.detail
                )));
            }
        };
        self.disk.corruptions_detected.add(set.corruptions_detected);
        self.disk.records_truncated.add(set.torn_truncated);
        self.disk.checkpoint_fallbacks.add(set.checkpoint_fallbacks);
        let mut checkpoint_bytes = 0;
        if let Some(cp) = &set.checkpoint {
            checkpoint_bytes = cp.bytes();
            self.restore(cp)?;
        }
        let log_records_replayed = set.tail.len() as u64;
        let mut log_bytes_replayed = 0;
        for (_, record) in &set.tail {
            log_bytes_replayed += record.bytes();
            self.apply_log_record(record)?;
        }
        self.crashed.store(false, Ordering::Relaxed);
        self.replaying.store(false, Ordering::Relaxed);
        // Unprepared transactions lost their session with the crash:
        // abort them durably (so a second crash replays the aborts too).
        let in_flight = self.txns.with_status(TxnStatus::Active);
        let aborted_in_flight = in_flight.len() as u64;
        for txn in in_flight {
            self.abort(txn);
        }
        let rematerialized_in_doubt = self.txns.with_status(TxnStatus::Prepared).len() as u64;
        let epoch = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        Ok(RestartStats {
            epoch,
            checkpoint_bytes,
            log_records_replayed,
            log_bytes_replayed,
            aborted_in_flight,
            rematerialized_in_doubt,
            torn_truncated: set.torn_truncated,
            checkpoint_fallbacks: set.checkpoint_fallbacks,
            corruptions_detected: set.corruptions_detected,
        })
    }

    /// Install a checkpoint image as the engine's state: the status map,
    /// every table, and the quarantine set.
    fn restore(&self, cp: &Checkpoint) -> Result<()> {
        self.txns.restore(&cp.txn_states);
        let mut tables = HashMap::new();
        for img in &cp.tables {
            tables.insert(img.name.clone(), Arc::new(AccelTable::from_image(img)?));
        }
        *self.tables.write() = tables;
        *self.quarantined.write() = cp.quarantined.iter().cloned().collect();
        Ok(())
    }

    /// The one image of recoverable state: every table with its slices
    /// framed by `frame`, the MVCC status map, and the quarantine set.
    /// [`checkpoint`](Self::checkpoint) installs it and
    /// [`state_fingerprint`](Self::state_fingerprint) hashes it.
    fn image(
        &self,
        taken_at: Duration,
        covers_lsn: Lsn,
        frame: fn(&Slice, &Schema) -> Arc<[u8]>,
    ) -> Checkpoint {
        let mut tables: Vec<Arc<AccelTable>> = self.tables.read().values().cloned().collect();
        tables.sort_by(|a, b| a.name.cmp(&b.name));
        Checkpoint {
            taken_at,
            covers_lsn,
            txn_states: self.txns.all_states(),
            tables: tables.iter().map(|t| t.image(frame)).collect(),
            quarantined: self.quarantined_tables(),
        }
    }

    fn apply_log_record(&self, record: &LogRecord) -> Result<()> {
        match record {
            LogRecord::Begin { txn } => self.txns.begin(*txn),
            LogRecord::Prepare { txn } => self.txns.prepare(*txn),
            LogRecord::Commit { txn, seq } => self.txns.commit(*txn, *seq),
            LogRecord::Abort { txn } => self.txns.abort(*txn),
            LogRecord::Insert { txn, table, frame } => {
                let t = self.table(table)?;
                let rows = wire::decode_rows(frame, &t.schema)?;
                t.insert_bulk(&rows, *txn)?;
            }
            LogRecord::Marks { txn, table, positions } => {
                let t = self.table(table)?;
                for &(slice, pos) in positions {
                    t.replay_delete_mark(RowPos { slice, pos }, *txn);
                }
            }
            LogRecord::CreateTable { name, schema, dist_cols, slices } => {
                self.tables.write().insert(
                    name.clone(),
                    Arc::new(AccelTable::new(
                        name.clone(),
                        schema.clone(),
                        dist_cols.clone(),
                        *slices,
                    )),
                );
            }
            LogRecord::DropTable { name } => {
                self.tables.write().remove(name);
                self.quarantined.write().remove(name);
            }
            LogRecord::Truncate { table } => {
                self.table(table)?.groom(|_| true, |_| true)?;
                self.quarantined.write().remove(table);
            }
            LogRecord::Groom { table, horizon } => {
                // The replayed registry is in the same state the original
                // was at this point in the log, so the same versions go.
                let t = self.table(table)?;
                self.groom_versions(&t, *horizon)?;
            }
            LogRecord::TornTail { .. } => {
                // Recovery's durably re-logged truncation decision: the
                // torn record it replaced was never acknowledged, so
                // there is nothing to apply.
            }
            LogRecord::Quarantine { table } => {
                self.quarantined.write().insert(table.clone());
            }
        }
        Ok(())
    }

    /// Take a checkpoint stamped with virtual time `now`: a consistent cut
    /// of every table heap and the full status map.
    /// Atomic: a crash mid-build (the `MID_CHECKPOINT` site) loses nothing
    /// — the previous checkpoint and the whole log stay intact. A slice
    /// whose rows did not change since the last checkpoint reuses its
    /// frame instead of being encoded again. Returns the installed
    /// checkpoint's size in bytes.
    pub fn checkpoint(&self, now: Duration) -> Result<u64> {
        self.ensure_up()?;
        let cp = self.durable.with_consistent_cut(|lsn| self.image(now, lsn, Slice::frame));
        self.crash_point(sites::MID_CHECKPOINT)?;
        // The install itself can tear mid-write: the torn image occupies
        // a retention slot but the previous checkpoint stays
        // authoritative, and the engine crashes on the spot.
        if self.faults.read().fire_disk(sites::TORN_CHECKPOINT).is_some() {
            self.durable.install_torn_checkpoint(cp);
            self.crash();
            return Err(Error::ResourceUnavailable(format!(
                "accelerator crashed at fault site {}: checkpoint write torn",
                sites::TORN_CHECKPOINT
            )));
        }
        let bytes = cp.bytes();
        self.durable.install_checkpoint(cp);
        // Already-written checkpoints can silently rot afterwards;
        // detection is the scrub's / recovery's job.
        if let Some(draw) = self.faults.read().fire_disk(sites::BITROT_CHECKPOINT) {
            self.durable.rot_checkpoint(draw);
        }
        Ok(bytes)
    }

    /// Periodic-checkpoint policy on the virtual clock: checkpoint if at
    /// least `every` has elapsed since the last one (or since boot) and
    /// there are records past the newest checkpoint's coverage. (The
    /// retained log can be longer — fallback coverage for the previous
    /// checkpoint — without making checkpoints due.) Returns whether a
    /// checkpoint was taken.
    pub fn maybe_checkpoint(&self, now: Duration, every: Duration) -> Result<bool> {
        if self.crashed.load(Ordering::Relaxed) || self.durable.tail_len() == 0 {
            return Ok(false);
        }
        let due = match self.durable.last_checkpoint_at() {
            None => now >= every,
            Some(last) => now >= last + every,
        };
        if !due {
            return Ok(false);
        }
        self.checkpoint(now)?;
        Ok(true)
    }

    /// Log records one background-scrub step re-verifies (a "segment").
    pub const SCRUB_SEGMENT_RECORDS: usize = 32;

    /// One background-scrub step: re-verify a segment of the durable
    /// media (round-robin cursor; checkpoints are re-verified when the
    /// cursor wraps). If anything fails verification, repair immediately
    /// while the in-memory state is still authoritative: take a fresh
    /// checkpoint at `now` and compact the store to it, excising the
    /// rotted record or checkpoint before it is ever read on the
    /// critical recovery path.
    pub fn scrub(&self, now: Duration) -> Result<ScrubReport> {
        self.ensure_up()?;
        let report = self.durable.scrub_step(Self::SCRUB_SEGMENT_RECORDS);
        if report.corruptions() > 0 {
            self.disk.corruptions_detected.add(report.corruptions());
            self.checkpoint(now)?;
            self.durable.compact_to_latest();
            self.disk.scrub_repairs.add(1);
        }
        Ok(report)
    }

    /// Periodic-scrub policy on the virtual clock: run one
    /// [`scrub`](Self::scrub) step if at least `every` has elapsed since
    /// the last one. `Duration::ZERO` disables scrubbing entirely (the
    /// default — the scrub is opt-in so fault-free runs stay
    /// byte-identical with older versions).
    pub fn maybe_scrub(&self, now: Duration, every: Duration) -> Result<Option<ScrubReport>> {
        if every.is_zero() || self.crashed.load(Ordering::Relaxed) {
            return Ok(None);
        }
        let due = match *self.last_scrub_at.lock() {
            None => now >= every,
            Some(last) => now >= last + every,
        };
        if !due {
            return Ok(None);
        }
        *self.last_scrub_at.lock() = Some(now);
        self.scrub(now).map(Some)
    }

    /// Durably quarantine `table` after its contents were lost to
    /// unrepairable storage corruption with nothing to rebuild from:
    /// statements against it fail with -904 (never a silently empty
    /// answer) until a TRUNCATE + reload lifts the quarantine.
    pub fn quarantine_table(&self, table: &ObjectName) -> Result<()> {
        self.ensure_up()?;
        let name = self.resolve(table);
        // Set before it is logged: a checkpoint cut between the two sees
        // the quarantine, and replaying the record again is a no-op.
        self.quarantined.write().insert(name.clone());
        self.log(LogRecord::Quarantine { table: name });
        Ok(())
    }

    /// Tables currently quarantined (sorted, diagnostics).
    pub fn quarantined_tables(&self) -> Vec<ObjectName> {
        let mut v: Vec<ObjectName> = self.quarantined.read().iter().cloned().collect();
        v.sort();
        v
    }

    /// Statements must not touch a quarantined table (the coordinator
    /// maps this to -904 until the table is reloaded).
    fn ensure_not_quarantined(&self, name: &ObjectName) -> Result<()> {
        let name = self.resolve(name);
        if self.quarantined.read().contains(&name) {
            return Err(Error::ResourceUnavailable(format!(
                "accelerator table {name} is quarantined after storage loss; reload required"
            )));
        }
        Ok(())
    }

    /// Deterministic fingerprint of all recoverable engine state: the
    /// state part of the image a checkpoint would take now, with every
    /// slice encoded afresh so the fingerprint does not trust the frame
    /// cache. Two engines answer queries identically if their fingerprints
    /// match; the replay-idempotence property test asserts byte-identical
    /// state across restarts.
    pub fn state_fingerprint(&self) -> u64 {
        self.image(Duration::ZERO, 0, Slice::encode).state_fingerprint()
    }

    // -- catalog ---------------------------------------------------------------

    /// Define a table on the accelerator (replicated or accelerator-only —
    /// the accelerator does not distinguish).
    pub fn create_table(
        &self,
        name: &ObjectName,
        schema: Schema,
        distribute_by: &[String],
    ) -> Result<()> {
        self.ensure_up()?;
        let name = self.resolve(name);
        if self.tables.read().contains_key(&name) {
            return Err(Error::AlreadyExists(format!("accelerator table {name} already exists")));
        }
        let dist: Vec<usize> = distribute_by
            .iter()
            .map(|c| schema.index_of(c))
            .collect::<Result<_>>()?;
        // Logged before the in-memory insert, and with no lock held: a
        // torn append crashes the engine (wiping the table map) before
        // the table ever existed in memory.
        self.log_data(LogRecord::CreateTable {
            name: name.clone(),
            schema: schema.clone(),
            dist_cols: dist.clone(),
            slices: self.config.slices,
        })?;
        self.tables.write().insert(
            name.clone(),
            Arc::new(AccelTable::new(name, schema, dist, self.config.slices)),
        );
        self.plan_cache.write().clear();
        Ok(())
    }

    /// Remove a table.
    pub fn drop_table(&self, name: &ObjectName) -> Result<()> {
        self.ensure_up()?;
        let name = self.resolve(name);
        if self.tables.write().remove(&name).is_none() {
            return Err(Error::UndefinedObject(format!("accelerator table {name} not defined")));
        }
        self.log_data(LogRecord::DropTable { name: name.clone() })?;
        self.quarantined.write().remove(&name);
        self.plan_cache.write().clear();
        Ok(())
    }

    /// Does a table exist here?
    pub fn has_table(&self, name: &ObjectName) -> bool {
        self.tables.read().contains_key(&self.resolve(name))
    }

    /// Handle to a table.
    pub fn table(&self, name: &ObjectName) -> Result<Arc<AccelTable>> {
        let name = self.resolve(name);
        self.tables
            .read()
            .get(&name)
            .cloned()
            .ok_or_else(|| Error::UndefinedObject(format!("accelerator table {name} not defined")))
    }

    /// Names of all tables defined on the accelerator.
    pub fn table_names(&self) -> Vec<ObjectName> {
        let mut v: Vec<ObjectName> = self.tables.read().keys().cloned().collect();
        v.sort();
        v
    }

    // -- transactions ------------------------------------------------------------

    /// Enroll a host transaction. A no-op on a crashed engine — the
    /// coordinator checks readiness before enlisting.
    pub fn begin(&self, txn: TxnId) {
        if self.is_crashed() {
            return;
        }
        self.txns.begin(txn);
        self.log(LogRecord::Begin { txn });
    }

    /// 2PC phase 1. A transaction that never enrolled votes YES trivially.
    /// The PREPARE is durably logged *before* the post-prepare crash site,
    /// so a crash in the in-doubt window re-materializes the transaction
    /// as `Prepared` on restart.
    pub fn prepare(&self, txn: TxnId) -> Result<()> {
        self.ensure_up()?;
        // Unknown ids read as aborted: a trivially-prepared participant.
        if let TxnStatus::Committed(_) = self.txns.status(txn) {
            return Err(Error::TransactionState(format!(
                "transaction {txn} already committed on the accelerator"
            )));
        }
        self.txns.prepare(txn);
        self.log(LogRecord::Prepare { txn });
        self.crash_point(sites::POST_PREPARE)?;
        Ok(())
    }

    /// 2PC phase 2: commit at DB2's commit LSN `seq`. Idempotent (a
    /// redelivered COMMIT keeps the original sequence); a no-op on a crashed
    /// engine.
    pub fn commit(&self, txn: TxnId, seq: CommitSeq) {
        if self.is_crashed() {
            return;
        }
        self.txns.commit(txn, seq);
        self.log(LogRecord::Commit { txn, seq });
    }

    /// Abort / rollback. A no-op on a crashed engine (restart aborts
    /// in-flight transactions durably on its own).
    pub fn abort(&self, txn: TxnId) {
        if self.is_crashed() {
            return;
        }
        self.txns.abort(txn);
        self.log(LogRecord::Abort { txn });
    }

    // -- queries -------------------------------------------------------------------

    /// Execute a `SELECT` as `txn` at [`Snapshot::latest`].
    pub fn query(&self, txn: TxnId, query: &Query) -> Result<Rows> {
        self.query_at(Snapshot::latest(txn), query)
    }

    /// Execute a `SELECT` at `snap`.
    pub fn query_at(&self, snap: Snapshot, query: &Query) -> Result<Rows> {
        self.run_query(snap, query, ExecMode::Vectorized, None, None).map(|(rows, _)| rows)
    }

    /// [`query`](Self::query) with an explicit execution mode.
    /// `ExecMode::Interpreted` forces the row-at-a-time fallback path and
    /// is the oracle the vectorized pipeline is tested (and benchmarked)
    /// against.
    pub fn query_with_mode(&self, txn: TxnId, query: &Query, mode: ExecMode) -> Result<Rows> {
        self.run_query(Snapshot::latest(txn), query, mode, None, None).map(|(rows, _)| rows)
    }

    /// Plan `query` through the compiled-plan cache. The cache is keyed by
    /// the statement's rendered text and each entry remembers the schema
    /// fingerprint of every table it touches; a lookup revalidates those
    /// lazily, so DDL forces a replan while inserts, updates, GROOM and
    /// TRUNCATE keep the plan. Returns the shared plan and whether it was
    /// a hit.
    pub fn plan_cached(&self, query: &Query) -> Result<(Arc<Plan>, bool)> {
        self.plan_lowered(query).map(|(plan, _, hit)| (plan, hit))
    }

    /// [`plan_cached`](Self::plan_cached), with the plan's vectorized
    /// lowering that is cached beside it.
    fn plan_lowered(&self, query: &Query) -> Result<(Arc<Plan>, Arc<Lowered>, bool)> {
        let text = query.to_string();
        let key = wire::hash64(text.as_bytes());
        if let Some(entry) = self.plan_cache.read().map.get(&key) {
            let valid = entry.text == text
                && entry.deps.iter().all(|(name, fp)| {
                    self.table(name).is_ok_and(|t| wire::schema_fingerprint(&t.schema) == *fp)
                });
            if valid {
                self.stats.plan_cache_hits.fetch_add(1, Ordering::Relaxed);
                return Ok((entry.plan.clone(), entry.lowered.clone(), true));
            }
        }
        self.stats.plan_cache_misses.fetch_add(1, Ordering::Relaxed);
        let plan = Arc::new(plan_query(query, self)?);
        let lowered = Arc::new(lower(&plan, self, ExecMode::Vectorized)?);
        let deps = plan
            .tables()
            .into_iter()
            .filter_map(|name| {
                self.table(&name).ok().map(|t| (name, wire::schema_fingerprint(&t.schema)))
            })
            .collect();
        let entry = CachedPlan { text, plan: plan.clone(), lowered: lowered.clone(), deps };
        self.plan_cache.write().insert(key, entry);
        Ok((plan, lowered, false))
    }

    /// Which pipeline would execute `query` (`EXPLAIN`'s PIPELINE line).
    /// Plans and lowers but does not run the query, and touches neither the
    /// plan cache nor [`AccelStats`]'s query counter.
    pub fn pipeline_of(&self, query: &Query) -> Result<String> {
        self.ensure_up()?;
        let plan = plan_query(query, self)?;
        Ok(lower(&plan, self, ExecMode::Vectorized)?.describe(&plan))
    }

    /// Execute a `SELECT` at `snap` — whole, or as a fleet shard's share:
    /// with `part = (shards, cut)` the plan runs up to scatter cut number
    /// `cut` over this node's `shards` ([`crate::partial::cuts`]) and the
    /// cut's partial comes back. Also returns the plan that ran and its
    /// per-operator row-count profile (for `EXPLAIN ANALYZE` / tracing); the
    /// plan comes back shared, as the profile is keyed by node address and
    /// the cached tree is address-stable behind its `Arc`.
    pub fn query_profiled(
        &self,
        snap: Snapshot,
        query: &Query,
        part: Option<(&[ObjectName], usize)>,
    ) -> Result<(Rows, Arc<Plan>, PlanProfile)> {
        let profile = PlanProfile::default();
        let (rows, plan) = self.run_query(snap, query, ExecMode::Vectorized, Some(&profile), part)?;
        Ok((rows, plan, profile))
    }

    /// One `SELECT`, start to finish: cached plan and lowering (the
    /// interpreted oracle and a shard's partial sub-plan lower afresh),
    /// quarantine check, execution. A profile also learns whether the cache
    /// hit and which pipeline ran, rendered from the lowering that ran.
    fn run_query(
        &self,
        snap: Snapshot,
        query: &Query,
        mode: ExecMode,
        profile: Option<&PlanProfile>,
        shard: Option<(&[ObjectName], usize)>,
    ) -> Result<(Rows, Arc<Plan>)> {
        self.ensure_up()?;
        let (mut plan, mut lowered, hit) = self.plan_lowered(query)?;
        if let Some((shards, i)) = shard {
            let sharded = |t: &ObjectName| shards.contains(&t.resolve(&self.default_schema));
            let part = cuts(&plan, &sharded).get(i).map(|cut| cut.shard_plan());
            plan = Arc::new(part.ok_or_else(|| Error::internal(format!("no scatter cut {i} in the plan")))?);
        }
        if mode == ExecMode::Interpreted || shard.is_some() {
            lowered = Arc::new(lower(&plan, self, mode)?);
        }
        for t in plan.tables() {
            self.ensure_not_quarantined(&t)?;
        }
        self.stats.queries.fetch_add(1, Ordering::Relaxed);
        if let Some(profile) = profile {
            profile.set_cache_hit(hit);
            profile.set_pipeline(lowered.describe(&plan));
        }
        let ctx = ExecCtx { engine: self, snap, mode, profile, low: &lowered };
        // A shard's cut at an aggregate ships its groups unfinished.
        let rows = match (shard, plan.as_ref()) {
            (Some(_), Plan::Aggregate { .. }) => {
                Rows::new(groups_schema(&plan)?, run_partial_groups(&plan, &ctx)?)
            }
            _ => Rows::new(plan.schema(), run(&plan, &ctx, None, profile)?),
        };
        Ok((rows, plan))
    }

    // -- DML (the AOT path) -----------------------------------------------------------

    /// Insert pre-validated rows into a table as `txn`.
    pub fn insert_rows(&self, txn: TxnId, table: &ObjectName, rows: Vec<Row>) -> Result<usize> {
        self.ensure_up()?;
        self.ensure_not_quarantined(table)?;
        let t = self.table(table)?;
        let mut checked = Vec::with_capacity(rows.len());
        for r in rows {
            checked.push(t.schema.check_row(&r)?);
        }
        let n = t.insert_bulk(&checked, txn)?;
        if !checked.is_empty() {
            // A torn append crashes the engine, wiping the in-memory
            // insert along with everything else — the statement was
            // never acknowledged, so nothing is lost.
            self.log_data(LogRecord::Insert {
                txn,
                table: t.name.clone(),
                frame: wire::encode_frame(&t.schema, &checked),
            })?;
        }
        self.stats.rows_inserted.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }

    /// `DELETE FROM table WHERE …` as `snap.me`, over the rows `snap` sees.
    pub fn delete_where(
        &self,
        snap: Snapshot,
        table: &ObjectName,
        filter: Option<&Expr>,
    ) -> Result<usize> {
        self.ensure_up()?;
        self.ensure_not_quarantined(table)?;
        let t = self.table(table)?;
        // Only the positions are used: materialize no column.
        let victims = self.matching_positions(&t, snap, filter, Some(vec![false; t.schema.len()]))?;
        self.mark_all(&t, &victims, snap.me)?;
        self.log_marks(snap.me, &t, &victims)?;
        self.stats.rows_deleted.fetch_add(victims.len() as u64, Ordering::Relaxed);
        Ok(victims.len())
    }

    /// `UPDATE table SET … WHERE …` as `snap.me`, over the rows `snap`
    /// sees: delete-mark the old versions and append new ones.
    pub fn update_where(
        &self,
        snap: Snapshot,
        table: &ObjectName,
        assignments: &[(String, Expr)],
        filter: Option<&Expr>,
    ) -> Result<usize> {
        self.ensure_up()?;
        self.ensure_not_quarantined(table)?;
        let t = self.table(table)?;
        let resolver = FlatResolver::from_schema(Some(&t.name.name), &t.schema);
        let bound: Vec<(usize, idaa_sql::eval::BoundExpr)> = assignments
            .iter()
            .map(|(col, e)| Ok((t.schema.index_of(col)?, bind(e, &resolver)?)))
            .collect::<Result<_>>()?;
        let txn = snap.me;
        let victims = self.matching_positions(&t, snap, filter, None)?;
        // Build all replacement rows first (any evaluation error aborts the
        // statement before any mark is placed).
        let mut replacements = Vec::with_capacity(victims.len());
        for (_, old) in &victims {
            let mut new = old.clone();
            for (ordinal, expr) in &bound {
                new[*ordinal] = eval(expr, old)?;
            }
            replacements.push(t.schema.check_row(&new)?);
        }
        self.mark_all(&t, &victims, txn)?;
        t.insert_bulk(&replacements, txn)?;
        self.log_marks(txn, &t, &victims)?;
        if !replacements.is_empty() {
            self.log_data(LogRecord::Insert {
                txn,
                table: t.name.clone(),
                frame: wire::encode_frame(&t.schema, &replacements),
            })?;
        }
        self.stats.rows_inserted.fetch_add(replacements.len() as u64, Ordering::Relaxed);
        self.stats.rows_deleted.fetch_add(victims.len() as u64, Ordering::Relaxed);
        Ok(victims.len())
    }

    /// Durably log one statement's successfully-placed delete-marks.
    fn log_marks(&self, txn: TxnId, t: &AccelTable, victims: &[(RowPos, Row)]) -> Result<()> {
        if victims.is_empty() {
            return Ok(());
        }
        self.log_data(LogRecord::Marks {
            txn,
            table: t.name.clone(),
            positions: victims.iter().map(|(p, _)| (p.slice, p.pos)).collect(),
        })
    }

    /// Positions (and their rows) visible to `snap` matching `filter`,
    /// found by the executor's scan front end. `needed` masks the columns
    /// the caller reads of each victim row (`None` = all).
    fn matching_positions(
        &self,
        t: &AccelTable,
        snap: Snapshot,
        filter: Option<&Expr>,
        needed: Option<Vec<bool>>,
    ) -> Result<Vec<(RowPos, Row)>> {
        let ctx = ExecCtx {
            engine: self,
            snap,
            mode: ExecMode::Vectorized,
            profile: None,
            low: &Lowered::default(),
        };
        scan_victims(t, filter, &ctx, needed)
    }

    /// Mark all victims deleted; on a write-write conflict, roll the
    /// statement's marks back and fail atomically.
    fn mark_all(&self, t: &AccelTable, victims: &[(RowPos, Row)], txn: TxnId) -> Result<()> {
        let is_dead = |other: TxnId| matches!(self.txns.status(other), TxnStatus::Aborted);
        for (i, (pos, _)) in victims.iter().enumerate() {
            if let Err(e) = t.mark_deleted(*pos, txn, is_dead) {
                for (p, _) in &victims[..i] {
                    t.unmark_deleted(*p, txn);
                }
                return Err(e);
            }
        }
        Ok(())
    }

    // -- bulk / maintenance -------------------------------------------------------------

    /// Bulk load committed rows (table loads, analytics output, rebuilds,
    /// catch-up copies) as transaction `txn`, a fresh DB2 id, which begins
    /// here and commits at `seq`, the DB2 commit LSN the rows reflect.
    pub fn load_committed(
        &self,
        txn: TxnId,
        table: &ObjectName,
        rows: Vec<Row>,
        seq: CommitSeq,
    ) -> Result<usize> {
        self.ensure_up()?;
        self.ensure_not_quarantined(table)?;
        self.txns.begin(txn);
        self.log(LogRecord::Begin { txn });
        let n = self.insert_rows(txn, table, rows)?;
        // A crash here leaves the load transaction unprepared in the log;
        // restart aborts it, so a half-loaded batch is never visible.
        self.crash_point(sites::MID_BULK_LOAD)?;
        self.commit(txn, seq);
        Ok(n)
    }

    /// Remove all rows of `table` (used before a full reload).
    pub fn truncate(&self, table: &ObjectName) -> Result<()> {
        self.ensure_up()?;
        let t = self.table(table)?;
        t.groom(|_| true, |_| true)?;
        self.log_data(LogRecord::Truncate { table: t.name.clone() })?;
        // The truncate-then-reload path is how an operator recovers a
        // quarantined table — the durable Truncate record lifts the
        // quarantine on replay just like it does here.
        self.quarantined.write().remove(&t.name);
        Ok(())
    }

    /// Scan every row of `table` visible at `snap`: the analytics reads at
    /// the caller's snapshot, catch-up copies at [`Snapshot::latest`].
    pub fn scan_at(&self, snap: Snapshot, table: &ObjectName) -> Result<Vec<Row>> {
        self.ensure_up()?;
        self.ensure_not_quarantined(table)?;
        let t = self.table(table)?;
        let ctx = ExecCtx {
            engine: self,
            snap,
            mode: ExecMode::Vectorized,
            profile: None,
            low: &Lowered::default(),
        };
        scan_filtered(&t, None, &ctx)
    }

    /// Groom one table: drop versions from aborted creators and versions
    /// whose deleter committed at or below `horizon`, DB2's oldest live
    /// snapshot. Returns versions reclaimed.
    pub fn groom(&self, table: &ObjectName, horizon: CommitSeq) -> Result<usize> {
        self.ensure_up()?;
        let t = self.table(table)?;
        let n = self.groom_versions(&t, horizon)?;
        if n > 0 {
            self.log_data(LogRecord::Groom { table: t.name.clone(), horizon })?;
        }
        self.stats.versions_groomed.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }

    /// Groom every table below `horizon`.
    pub fn groom_all(&self, horizon: CommitSeq) -> usize {
        self.table_names().iter().map(|n| self.groom(n, horizon).unwrap_or(0)).sum()
    }

    /// The versions GROOM reclaims below `horizon`, removed from `t`.
    fn groom_versions(&self, t: &AccelTable, horizon: CommitSeq) -> Result<usize> {
        t.groom(
            |c| matches!(self.txns.status(c), TxnStatus::Aborted),
            |d| matches!(self.txns.status(d), TxnStatus::Committed(seq) if seq <= horizon),
        )
    }
}

impl SchemaProvider for AccelEngine {
    fn table_schema(&self, name: &ObjectName) -> Result<Schema> {
        if is_pseudo_table(name) {
            return Ok(Schema::default());
        }
        Ok(self.table(name)?.schema.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idaa_common::{ColumnDef, DataType, Value};
    use idaa_sql::{parse_statement, Statement};

    fn schema() -> Schema {
        Schema::new(vec![
            ColumnDef::not_null("ID", DataType::Integer),
            ColumnDef::new("GRP", DataType::Varchar(8)),
            ColumnDef::new("VAL", DataType::Double),
        ])
        .unwrap()
    }

    fn engine() -> AccelEngine {
        let e = AccelEngine::default();
        e.create_table(&ObjectName::bare("T"), schema(), &["ID".to_string()]).unwrap();
        e
    }

    fn row(id: i32, grp: &str, val: f64) -> Row {
        vec![Value::Int(id), Value::Varchar(grp.into()), Value::Double(val)]
    }

    fn q(e: &AccelEngine, txn: TxnId, sql: &str) -> Result<Rows> {
        let Statement::Query(query) = parse_statement(sql).unwrap() else { panic!() };
        e.query(txn, &query)
    }

    #[test]
    fn load_and_query() {
        let e = engine();
        let rows: Vec<Row> = (0..1000)
            .map(|i| row(i, if i % 2 == 0 { "A" } else { "B" }, i as f64))
            .collect();
        e.load_committed(101, &ObjectName::bare("T"), rows, 101).unwrap();
        let r = q(&e, 0, "SELECT grp, COUNT(*), AVG(val) FROM t GROUP BY grp ORDER BY grp").unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.rows[0][1], Value::BigInt(500));
    }

    #[test]
    fn plan_cache_hits_repeated_statements_and_returns_identical_rows() {
        let e = engine();
        let rows: Vec<Row> = (0..100).map(|i| row(i, if i % 3 == 0 { "A" } else { "B" }, i as f64)).collect();
        e.load_committed(101, &ObjectName::bare("T"), rows, 101).unwrap();
        let sql = "SELECT grp, COUNT(*) FROM t WHERE grp = 'A' GROUP BY grp";
        let Statement::Query(query) = parse_statement(sql).unwrap() else { panic!() };
        let (p1, hit1) = e.plan_cached(&query).unwrap();
        let (p2, hit2) = e.plan_cached(&query).unwrap();
        assert!(!hit1, "first sight must miss");
        assert!(hit2, "second sight must hit");
        assert!(Arc::ptr_eq(&p1, &p2), "hit returns the cached tree itself");
        // The executed answers are identical across the miss and hit runs.
        let miss_rows = q(&e, 0, sql).unwrap();
        let hit_rows = q(&e, 0, sql).unwrap();
        assert_eq!(miss_rows.rows, hit_rows.rows);
        assert_eq!(e.stats.plan_cache_hits.load(Ordering::Relaxed), 3);
        assert_eq!(e.stats.plan_cache_misses.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn plan_cache_survives_writes_and_replans_on_ddl_and_restart() {
        let e = engine();
        e.load_committed(101, &ObjectName::bare("T"), vec![row(1, "A", 1.0)], 101).unwrap();
        let Statement::Query(query) =
            parse_statement("SELECT COUNT(*) FROM t WHERE grp = 'A'").unwrap()
        else {
            panic!()
        };
        assert!(!e.plan_cached(&query).unwrap().1);
        assert!(e.plan_cached(&query).unwrap().1);
        // Writes keep the plan: dictionary growth, GROOM and TRUNCATE.
        e.load_committed(102, &ObjectName::bare("T"), vec![row(2, "NEW", 2.0)], 102).unwrap();
        assert!(e.plan_cached(&query).unwrap().1, "dictionary growth keeps the plan");
        e.begin(9);
        e.delete_where(Snapshot::latest(9), &ObjectName::bare("T"), None).unwrap();
        e.commit(9, 9);
        assert!(e.groom(&ObjectName::bare("T"), CommitSeq::MAX).unwrap() > 0);
        assert!(e.plan_cached(&query).unwrap().1, "GROOM keeps the plan");
        e.truncate(&ObjectName::bare("T")).unwrap();
        assert!(e.plan_cached(&query).unwrap().1, "TRUNCATE keeps the plan");
        // DDL on any table clears the whole cache.
        e.create_table(&ObjectName::bare("U"), schema(), &["ID".to_string()]).unwrap();
        assert!(!e.plan_cached(&query).unwrap().1, "DDL must invalidate");
        assert!(e.plan_cached(&query).unwrap().1);
        // A crash loses the (volatile) cache with the rest of memory.
        e.checkpoint(Duration::ZERO).unwrap();
        e.crash();
        e.restart().unwrap();
        assert!(!e.plan_cached(&query).unwrap().1, "restart starts with a cold cache");
        assert!(e.plan_cached(&query).unwrap().1);
    }

    #[test]
    fn plan_cache_hash_collision_replans_instead_of_serving_the_other_plan() {
        let e = engine();
        e.load_committed(101, &ObjectName::bare("T"), vec![row(1, "A", 1.0), row(7, "B", 2.0)], 101)
            .unwrap();
        let parse = |sql: &str| match parse_statement(sql).unwrap() {
            Statement::Query(q) => q,
            _ => panic!(),
        };
        let other = parse("SELECT COUNT(*) FROM t");
        let wanted = parse("SELECT id FROM t WHERE grp = 'B'");
        // Plant `other`'s (still valid) entry under `wanted`'s key, as a
        // 64-bit collision between the two texts would.
        e.plan_cached(&other).unwrap();
        let key_of = |q: &Query| wire::hash64(q.to_string().as_bytes());
        let planted = e.plan_cache.write().map.remove(&key_of(&other)).unwrap();
        e.plan_cache.write().map.insert(key_of(&wanted), planted);
        let misses = e.stats.plan_cache_misses.load(Ordering::Relaxed);
        let rows = e.query(1, &wanted).unwrap();
        assert_eq!(rows.rows, vec![vec![Value::Int(7)]], "served the colliding statement's plan");
        assert_eq!(e.stats.plan_cache_misses.load(Ordering::Relaxed), misses + 1);
        // The replan took the slot over without growing the queue.
        assert!(e.plan_cached(&wanted).unwrap().1);
        let cache = e.plan_cache.read();
        assert_eq!((cache.map.len(), cache.order.len()), (1, 1));
    }

    #[test]
    fn plan_cache_is_bounded_and_evicts_first_in_first_out() {
        let e = engine();
        e.load_committed(101, &ObjectName::bare("T"), vec![row(1, "A", 1.0)], 101).unwrap();
        let q = |i: usize| match parse_statement(&format!("SELECT id FROM t WHERE id = {i}")) {
            Ok(Statement::Query(q)) => q,
            _ => panic!(),
        };
        for i in 0..PLAN_CACHE_MAX {
            assert!(!e.plan_cached(&q(i)).unwrap().1);
        }
        // Full, nothing evicted yet: the oldest entry still hits.
        assert!(e.plan_cached(&q(0)).unwrap().1);
        // One more distinct statement evicts the oldest — and only it.
        assert!(!e.plan_cached(&q(PLAN_CACHE_MAX)).unwrap().1);
        assert!(e.plan_cached(&q(1)).unwrap().1);
        assert!(!e.plan_cached(&q(0)).unwrap().1, "the oldest entry was evicted");
        assert!(!e.plan_cached(&q(1)).unwrap().1, "re-admitting it evicted the next oldest");
        assert!(e.plan_cached(&q(PLAN_CACHE_MAX)).unwrap().1);
        let cache = e.plan_cache.read();
        assert_eq!((cache.map.len(), cache.order.len()), (PLAN_CACHE_MAX, PLAN_CACHE_MAX));
    }

    #[test]
    fn own_transaction_sees_uncommitted_inserts() {
        let e = engine();
        let count_at = |snap: Snapshot| {
            let Statement::Query(query) = parse_statement("SELECT COUNT(*) FROM t").unwrap() else {
                panic!()
            };
            e.query_at(snap, &query).unwrap().scalar().unwrap().clone()
        };
        e.begin(5);
        e.insert_rows(5, &ObjectName::bare("T"), vec![row(1, "A", 1.0)]).unwrap();
        assert_eq!(count_at(Snapshot { seq: 0, me: 5 }), Value::BigInt(1));
        // A concurrent transaction does not.
        let theirs = Snapshot { seq: 0, me: 6 };
        assert_eq!(count_at(theirs), Value::BigInt(0));
        // Txn 5 commits at DB2 LSN 1: txn 6's snapshot stays before it, a
        // snapshot at 1 sees it.
        e.prepare(5).unwrap();
        e.commit(5, 1);
        assert_eq!(count_at(theirs), Value::BigInt(0), "txn-level snapshot isolation");
        assert_eq!(count_at(Snapshot { seq: 1, me: 7 }), Value::BigInt(1));
    }

    #[test]
    fn abort_discards_changes() {
        let e = engine();
        e.begin(1);
        e.insert_rows(1, &ObjectName::bare("T"), vec![row(1, "A", 1.0)]).unwrap();
        e.abort(1);
        e.begin(2);
        assert_eq!(q(&e, 2, "SELECT COUNT(*) FROM t").unwrap().scalar().unwrap(), &Value::BigInt(0));
        // Groom reclaims the aborted version.
        assert_eq!(e.groom_all(CommitSeq::MAX), 1);
    }

    #[test]
    fn delete_and_update_with_own_visibility() {
        let e = engine();
        e.load_committed(
            101,
            &ObjectName::bare("T"),
            vec![row(1, "A", 1.0), row(2, "A", 2.0), row(3, "B", 3.0)],
            101,
        )
        .unwrap();
        e.begin(10);
        let n = e
            .delete_where(Snapshot::latest(10), &ObjectName::bare("T"), Some(&Expr::col("GRP").eq(Expr::str("A"))))
            .unwrap();
        assert_eq!(n, 2);
        assert_eq!(q(&e, 10, "SELECT COUNT(*) FROM t").unwrap().scalar().unwrap(), &Value::BigInt(1));
        // Update the remaining row (visible to self).
        let n = e
            .update_where(
                Snapshot::latest(10),
                &ObjectName::bare("T"),
                &[("VAL".into(), Expr::int(99))],
                None,
            )
            .unwrap();
        assert_eq!(n, 1);
        let r = q(&e, 10, "SELECT val FROM t").unwrap();
        assert_eq!(r.scalar().unwrap(), &Value::Double(99.0));
        // Other transactions still see the original three rows.
        e.begin(11);
        assert_eq!(q(&e, 11, "SELECT COUNT(*) FROM t").unwrap().scalar().unwrap(), &Value::BigInt(3));
        e.prepare(10).unwrap();
        e.commit(10, 10);
        e.begin(12);
        let r = q(&e, 12, "SELECT id, val FROM t").unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows[0][1], Value::Double(99.0));
    }

    #[test]
    fn insert_select_stays_on_accelerator() {
        let e = engine();
        e.create_table(
            &ObjectName::bare("T2"),
            Schema::new(vec![
                ColumnDef::new("GRP", DataType::Varchar(8)),
                ColumnDef::new("TOTAL", DataType::Double),
            ])
            .unwrap(),
            &[],
        )
        .unwrap();
        e.load_committed(
            101,
            &ObjectName::bare("T"),
            vec![row(1, "A", 1.0), row(2, "A", 2.0), row(3, "B", 3.0)],
            101,
        )
        .unwrap();
        e.begin(1);
        let Statement::Query(sel) =
            parse_statement("SELECT grp, SUM(val) FROM t GROUP BY grp").unwrap()
        else {
            panic!()
        };
        // What the AOT pushdown runs: query, then insert the rows on the engine.
        let rows = e.query(1, &sel).unwrap().rows;
        let n = e.insert_rows(1, &ObjectName::bare("T2"), rows).unwrap();
        assert_eq!(n, 2);
        e.prepare(1).unwrap();
        e.commit(1, 1);
        e.begin(2);
        let r = q(&e, 2, "SELECT total FROM t2 ORDER BY grp").unwrap();
        assert_eq!(r.rows[0][0], Value::Double(3.0));
    }

    #[test]
    fn write_write_conflict_rolls_back_statement_marks() {
        let e = engine();
        e.load_committed(101, &ObjectName::bare("T"), vec![row(1, "A", 1.0), row(2, "A", 2.0)], 101)
            .unwrap();
        e.begin(1);
        e.begin(2);
        // Txn 1 deletes row 2.
        e.delete_where(Snapshot::latest(1), &ObjectName::bare("T"), Some(&Expr::col("ID").eq(Expr::int(2))))
            .unwrap();
        // Txn 2 tries to delete everything — conflicts on row 2, statement
        // fails atomically, leaving row 1 unmarked.
        let r = e.delete_where(Snapshot::latest(2), &ObjectName::bare("T"), None);
        assert!(matches!(r, Err(Error::LockTimeout(_))));
        // Row 1 must still be deletable by txn 1 (marks were rolled back).
        let n = e
            .delete_where(Snapshot::latest(1), &ObjectName::bare("T"), Some(&Expr::col("ID").eq(Expr::int(1))))
            .unwrap();
        assert_eq!(n, 1);
    }

    #[test]
    fn zone_maps_prune_blocks() {
        let cfg = AccelConfig { slices: 1, zone_maps: true, parallel: false, parallelism: 0 };
        let e = AccelEngine::new("APP", cfg);
        e.create_table(&ObjectName::bare("T"), schema(), &[]).unwrap();
        // Two blocks worth of ordered ids: 0..4095 and 4096..8191.
        let rows: Vec<Row> = (0..8192).map(|i| row(i, "A", i as f64)).collect();
        e.load_committed(101, &ObjectName::bare("T"), rows, 101).unwrap();
        let before = e.stats.blocks_pruned.load(Ordering::Relaxed);
        let r = q(&e, 0, "SELECT COUNT(*) FROM t WHERE id < 100").unwrap();
        assert_eq!(r.scalar().unwrap(), &Value::BigInt(100));
        assert!(
            e.stats.blocks_pruned.load(Ordering::Relaxed) > before,
            "second block should have been pruned"
        );
    }

    #[test]
    fn string_equality_kernel_matches_residual_semantics() {
        let e = engine();
        e.load_committed(
            101,
            &ObjectName::bare("T"),
            (0..300)
                .map(|i| row(i, ["A", "B", "C"][(i % 3) as usize], i as f64))
                .collect(),
                101,
        )
        .unwrap();
        let r = q(&e, 0, "SELECT COUNT(*) FROM t WHERE grp = 'B'").unwrap();
        assert_eq!(r.scalar().unwrap(), &Value::BigInt(100));
        let r = q(&e, 0, "SELECT COUNT(*) FROM t WHERE grp <> 'B'").unwrap();
        assert_eq!(r.scalar().unwrap(), &Value::BigInt(200));
        // Combined numeric + string kernels.
        let r = q(&e, 0, "SELECT COUNT(*) FROM t WHERE grp = 'A' AND id < 30").unwrap();
        assert_eq!(r.scalar().unwrap(), &Value::BigInt(10));
        // Value not in the dictionary at all.
        let r = q(&e, 0, "SELECT COUNT(*) FROM t WHERE grp = 'ZZ'").unwrap();
        assert_eq!(r.scalar().unwrap(), &Value::BigInt(0));
        // NULL group rows never match equality or inequality kernels.
        e.load_committed(102, &ObjectName::bare("T"), vec![vec![
            Value::Int(999),
            Value::Null,
            Value::Double(0.0),
        ]], 102)
        .unwrap();
        let r = q(&e, 0, "SELECT COUNT(*) FROM t WHERE grp <> 'B'").unwrap();
        assert_eq!(r.scalar().unwrap(), &Value::BigInt(200), "NULL is neither equal nor unequal");
    }

    #[test]
    fn truncate_empties_table() {
        let e = engine();
        e.load_committed(101, &ObjectName::bare("T"), vec![row(1, "A", 1.0)], 101).unwrap();
        e.truncate(&ObjectName::bare("T")).unwrap();
        assert_eq!(q(&e, 0, "SELECT COUNT(*) FROM t").unwrap().scalar().unwrap(), &Value::BigInt(0));
        assert_eq!(e.table(&ObjectName::bare("T")).unwrap().version_count(), 0);
    }

    #[test]
    fn duplicate_and_missing_tables() {
        let e = engine();
        assert!(matches!(
            e.create_table(&ObjectName::bare("T"), schema(), &[]),
            Err(Error::AlreadyExists(_))
        ));
        assert!(matches!(
            e.query(0, {
                let Statement::Query(q) = parse_statement("SELECT 1 FROM missing").unwrap() else {
                    panic!()
                };
                &q.clone()
            }),
            Err(Error::UndefinedObject(_))
        ));
        assert!(e.drop_table(&ObjectName::bare("NOPE")).is_err());
        e.drop_table(&ObjectName::bare("T")).unwrap();
        assert!(!e.has_table(&ObjectName::bare("T")));
    }

    fn count(e: &AccelEngine, txn: TxnId) -> i64 {
        let Value::BigInt(n) = *q(e, txn, "SELECT COUNT(*) FROM t").unwrap().scalar().unwrap()
        else {
            panic!()
        };
        n
    }

    #[test]
    fn crash_without_restart_refuses_statements_with_904() {
        let e = engine();
        e.load_committed(101, &ObjectName::bare("T"), vec![row(1, "A", 1.0)], 101).unwrap();
        e.crash();
        assert!(e.is_crashed());
        let err = q(&e, 0, "SELECT COUNT(*) FROM t").unwrap_err();
        assert_eq!(err.sqlcode(), -904);
        let err = e.insert_rows(0, &ObjectName::bare("T"), vec![row(2, "B", 2.0)]).unwrap_err();
        assert_eq!(err.sqlcode(), -904);
        assert_eq!(e.prepare(1).unwrap_err().sqlcode(), -904);
    }

    #[test]
    fn restart_replays_log_from_empty_checkpoint() {
        let e = engine();
        e.load_committed(
            101,
            &ObjectName::bare("T"),
            (0..100).map(|i| row(i, "A", i as f64)).collect(),
            101,
        )
        .unwrap();
        e.begin(5);
        e.delete_where(Snapshot::latest(5), &ObjectName::bare("T"), Some(&Expr::col("ID").eq(Expr::int(7)))).unwrap();
        e.prepare(5).unwrap();
        e.commit(5, 5);
        let fp_before = e.state_fingerprint();
        e.crash();
        let stats = e.restart().unwrap();
        assert_eq!(stats.checkpoint_bytes, 0, "no checkpoint was ever taken");
        assert!(stats.log_records_replayed > 0);
        assert_eq!(stats.epoch, 2);
        assert_eq!(e.state_fingerprint(), fp_before, "replay rebuilt identical state");
        assert_eq!(count(&e, 0), 99);
    }

    #[test]
    fn restart_from_checkpoint_plus_tail_and_is_idempotent() {
        let e = engine();
        e.load_committed(
            101,
            &ObjectName::bare("T"),
            (0..50).map(|i| row(i, "A", i as f64)).collect(),
            101,
        )
        .unwrap();
        e.checkpoint(Duration::from_millis(1)).unwrap();
        assert_eq!(e.durable().log_len(), 0, "checkpoint truncated the covered log");
        // Post-checkpoint tail: an update and a second load.
        e.begin(9);
        e.update_where(Snapshot::latest(9), &ObjectName::bare("T"), &[("VAL".into(), Expr::int(-1))], Some(&Expr::col("ID").eq(Expr::int(3))))
            .unwrap();
        e.prepare(9).unwrap();
        e.commit(9, 9);
        e.load_committed(102, &ObjectName::bare("T"), vec![row(1000, "Z", 0.0)], 102).unwrap();
        let fp_before = e.state_fingerprint();
        e.crash();
        let stats = e.restart().unwrap();
        assert!(stats.checkpoint_bytes > 0);
        assert!(stats.log_records_replayed > 0);
        assert_eq!(e.state_fingerprint(), fp_before);
        // Replaying the same durable state again (second crash–restart)
        // reproduces the state byte for byte.
        e.crash();
        e.restart().unwrap();
        assert_eq!(e.state_fingerprint(), fp_before);
        assert_eq!(count(&e, 0), 51);
    }

    #[test]
    fn restart_aborts_in_flight_and_rematerializes_prepared() {
        let e = engine();
        e.load_committed(101, &ObjectName::bare("T"), vec![row(1, "A", 1.0)], 101).unwrap();
        // Txn 10: prepared (in-doubt) at crash time.
        e.begin(10);
        e.insert_rows(10, &ObjectName::bare("T"), vec![row(2, "B", 2.0)]).unwrap();
        e.prepare(10).unwrap();
        // Txn 11: active (unprepared) at crash time.
        e.begin(11);
        e.insert_rows(11, &ObjectName::bare("T"), vec![row(3, "C", 3.0)]).unwrap();
        e.crash();
        let stats = e.restart().unwrap();
        assert_eq!(stats.aborted_in_flight, 1);
        assert_eq!(stats.rematerialized_in_doubt, 1);
        assert_eq!(e.txns.status(10), TxnStatus::Prepared, "in-doubt survives the crash");
        assert_eq!(e.txns.status(11), TxnStatus::Aborted, "unprepared is rolled back");
        // The coordinator resolves the in-doubt transaction: commit it.
        e.commit(10, 102);
        assert_eq!(e.txns.status(10), TxnStatus::Committed(102));
        assert_eq!(count(&e, 0), 2, "committed in-doubt insert visible, aborted one not");
        // A second restart replays the resolution too.
        e.crash();
        e.restart().unwrap();
        assert_eq!(count(&e, 0), 2);
    }

    #[test]
    fn crash_point_mid_bulk_load_loses_no_committed_data() {
        use idaa_netsim::{sites, SitePlan};
        let e = engine();
        e.load_committed(101, &ObjectName::bare("T"), vec![row(1, "A", 1.0)], 101).unwrap();
        e.fault_registry().set_plan(SitePlan::at(sites::MID_BULK_LOAD, 1));
        let err = e
            .load_committed(
                102,
                &ObjectName::bare("T"),
                (10..20).map(|i| row(i, "B", 0.0)).collect(),
                102,
            )
            .unwrap_err();
        assert_eq!(err.sqlcode(), -904);
        assert!(e.is_crashed());
        e.restart().unwrap();
        assert_eq!(count(&e, 0), 1, "half-loaded batch rolled back, old data intact");
        // The interrupted load can simply be retried.
        e.load_committed(103, &ObjectName::bare("T"), (10..20).map(|i| row(i, "B", 0.0)).collect(), 103)
            .unwrap();
        assert_eq!(count(&e, 0), 11);
    }

    #[test]
    fn crash_point_mid_checkpoint_keeps_previous_checkpoint() {
        use idaa_netsim::{sites, SitePlan};
        let e = engine();
        e.load_committed(101, &ObjectName::bare("T"), vec![row(1, "A", 1.0)], 101).unwrap();
        e.checkpoint(Duration::from_millis(1)).unwrap();
        e.load_committed(102, &ObjectName::bare("T"), vec![row(2, "B", 2.0)], 102).unwrap();
        let fp_before = e.state_fingerprint();
        e.fault_registry().set_plan(SitePlan::at(sites::MID_CHECKPOINT, 1));
        assert_eq!(e.checkpoint(Duration::from_millis(2)).unwrap_err().sqlcode(), -904);
        let stats = e.restart().unwrap();
        assert!(stats.checkpoint_bytes > 0, "previous checkpoint survived");
        assert!(stats.log_records_replayed > 0, "tail past it survived too");
        assert_eq!(e.state_fingerprint(), fp_before);
        assert_eq!(count(&e, 0), 2);
    }

    #[test]
    fn maybe_checkpoint_follows_virtual_clock_interval() {
        let e = engine();
        e.load_committed(101, &ObjectName::bare("T"), vec![row(1, "A", 1.0)], 101).unwrap();
        let every = Duration::from_millis(10);
        assert!(!e.maybe_checkpoint(Duration::from_millis(5), every).unwrap());
        assert!(e.maybe_checkpoint(Duration::from_millis(10), every).unwrap());
        // Nothing new in the log: no checkpoint even past the interval.
        assert!(!e.maybe_checkpoint(Duration::from_millis(25), every).unwrap());
        e.load_committed(102, &ObjectName::bare("T"), vec![row(2, "B", 2.0)], 102).unwrap();
        assert!(!e.maybe_checkpoint(Duration::from_millis(15), every).unwrap(), "too soon");
        assert!(e.maybe_checkpoint(Duration::from_millis(20), every).unwrap());
    }

    #[test]
    fn quarantine_survives_checkpoint_and_restart() {
        let e = engine();
        let t = ObjectName::bare("T");
        e.load_committed(101, &t, vec![row(1, "A", 1.0)], 101).unwrap();
        e.quarantine_table(&t).unwrap();
        // The checkpoint covers the quarantine record, so the log tail
        // replayed on restart no longer holds it: only the image does.
        e.checkpoint(Duration::from_millis(1)).unwrap();
        assert_eq!(e.durable().log_len(), 0);
        let fp_before = e.state_fingerprint();
        e.crash();
        e.restart().unwrap();
        assert_eq!(e.quarantined_tables(), vec![ObjectName::qualified("APP", "T")]);
        assert_eq!(q(&e, 0, "SELECT COUNT(*) FROM t").unwrap_err().sqlcode(), -904);
        assert_eq!(e.state_fingerprint(), fp_before);
        // A TRUNCATE after the checkpoint lifts it again on replay.
        e.truncate(&t).unwrap();
        e.crash();
        e.restart().unwrap();
        assert!(e.quarantined_tables().is_empty());
        assert_eq!(count(&e, 0), 0);
    }

    #[test]
    fn groom_before_crash_replays_identically() {
        let e = engine();
        e.load_committed(
            101,
            &ObjectName::bare("T"),
            (0..20).map(|i| row(i, "A", i as f64)).collect(),
            101,
        )
        .unwrap();
        e.begin(1);
        let id_lt_5 = Expr::Binary {
            left: Box::new(Expr::col("ID")),
            op: idaa_sql::ast::BinaryOp::Lt,
            right: Box::new(Expr::int(5)),
        };
        e.delete_where(Snapshot::latest(1), &ObjectName::bare("T"), Some(&id_lt_5)).unwrap();
        e.prepare(1).unwrap();
        e.commit(1, 1);
        assert_eq!(e.groom_all(CommitSeq::MAX), 5);
        let fp = e.state_fingerprint();
        e.crash();
        e.restart().unwrap();
        assert_eq!(e.state_fingerprint(), fp, "groom replays against the same txn states");
        assert_eq!(count(&e, 0), 15);
    }

    #[test]
    fn groom_after_committed_deletes() {
        let e = engine();
        e.load_committed(
            101,
            &ObjectName::bare("T"),
            (0..100).map(|i| row(i, "A", i as f64)).collect(),
            101,
        )
        .unwrap();
        e.begin(1);
        e.delete_where(Snapshot::latest(1), &ObjectName::bare("T"), Some(&Expr::col("ID").eq(Expr::int(5))))
            .unwrap();
        // Before commit nothing can be groomed (deleter not committed).
        assert_eq!(e.groom_all(CommitSeq::MAX), 0);
        e.prepare(1).unwrap();
        e.commit(1, 102);
        // A snapshot at 101 still reads the deleted version: kept.
        assert_eq!(e.groom_all(101), 0);
        assert_eq!(e.groom_all(102), 1);
        e.begin(2);
        assert_eq!(
            q(&e, 2, "SELECT COUNT(*) FROM t").unwrap().scalar().unwrap(),
            &Value::BigInt(99)
        );
    }
}
