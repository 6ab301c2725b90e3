//! Durable accelerator storage: checkpoints plus an append-only commit log.
//!
//! The paper's transaction-awareness claim only matters if accelerator
//! state survives the accelerator itself failing. This module is the
//! in-memory stand-in for the appliance's disks: atomically-installed
//! [`Checkpoint`]s — the one image of recoverable state: tables, MVCC
//! statuses, quarantine set — and an LSN-ordered
//! [`LogRecord`] stream of everything that changed since.
//! Row payloads inside log records and checkpoint images are encoded with
//! the `idaa_common::wire` codec — the same deterministic format that
//! crosses the host link — so recovery replays byte-identical row data.
//!
//! A checkpoint re-encodes only the slices whose rows changed since the
//! last one: every other slice hands over the frame it already has, so the
//! retained checkpoints share unchanged frames in memory. Each image is
//! still a full image on the simulated disk — [`Checkpoint::bytes`] counts
//! every frame, and its checksum hashes every frame's bytes. The
//! `sites::BITROT_CHECKPOINT` fault flips a bit of the stored checksum word,
//! never of a frame, so rot on one image cannot reach a frame it shares.
//!
//! Recovery is `checkpoint + log tail`: [`crate::engine::AccelEngine::restart`]
//! installs the newest checkpoint and re-applies every logged record with
//! an LSN past the checkpoint's coverage, in log order. Because records
//! are LSN-stamped and the checkpoint remembers the LSN it covers, replay
//! is idempotent: replaying the same tail twice (or any prefix/suffix
//! re-chunking of it) reconstructs the same state.
//!
//! The disk is *not* trusted: every record and checkpoint carries a
//! checksum computed at write time, writes can tear (the
//! `sites::TORN_LOG_APPEND` / `sites::TORN_CHECKPOINT` storage faults),
//! and already-written bytes can rot (`sites::BITROT_*`). Recovery runs
//! [`DurableStore::recover_scan`], which validates everything it reads:
//! torn tails are truncated and the truncation durably re-logged as a
//! [`LogRecord::TornTail`] marker, invalid checkpoints are durably
//! discarded in favor of the previous valid one (replaying the longer log
//! tail), and corruption with no valid coverage is reported — never
//! silently replayed. The two most recent checkpoints are retained so a
//! checkpoint-rot fallback always has log coverage, and a background
//! scrub ([`DurableStore::scrub_step`]) walks segments between statements
//! so latent rot is found while the in-memory state can still repair it.
//!
//! Timing is keyed off the netsim virtual clock: checkpoints are stamped
//! with the virtual time they were taken and the periodic-checkpoint
//! policy compares against that stamp, so the whole subsystem is
//! deterministic and consumes no wall-clock time.

use crate::mvcc::{CommitSeq, TxnId, TxnStatus};
use idaa_common::{wire, ObjectName, Schema};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

/// Log sequence number (1-based; 0 means "before any record").
pub type Lsn = u64;

/// One durably-logged accelerator event.
///
/// Transaction lifecycle records mirror the 2PC protocol; data records
/// carry row payloads as wire-codec frames and delete-marks as explicit
/// `(slice, pos)` coordinates (physical logging — replay needs no
/// predicate re-evaluation, so it cannot diverge from the original run).
#[derive(Debug, Clone)]
pub enum LogRecord {
    /// A (host) transaction enrolled on the accelerator.
    Begin { txn: TxnId },
    /// 2PC phase 1: the transaction voted YES and is now in-doubt.
    Prepare { txn: TxnId },
    /// 2PC phase 2: committed at DB2's commit LSN `seq`. Replay restores
    /// the exact sequence so snapshot visibility is reproduced bit-for-bit.
    Commit { txn: TxnId, seq: CommitSeq },
    /// Rolled back.
    Abort { txn: TxnId },
    /// Rows inserted by `txn` into `table`, encoded as one wire frame of
    /// already-schema-checked rows.
    Insert { txn: TxnId, table: ObjectName, frame: Vec<u8> },
    /// Delete-marks placed by `txn` in one statement: `(slice, pos)`
    /// version coordinates. Logged only after the statement's marks all
    /// succeeded, so replay applies them unconditionally.
    Marks { txn: TxnId, table: ObjectName, positions: Vec<(usize, usize)> },
    /// DDL: table created.
    CreateTable { name: ObjectName, schema: Schema, dist_cols: Vec<usize>, slices: usize },
    /// DDL: table dropped.
    DropTable { name: ObjectName },
    /// All versions removed (pre-reload truncation).
    Truncate { table: ObjectName },
    /// `GROOM` below `horizon` ran against the then-current transaction
    /// states. Replay re-runs it logically; the replayed registry is in the
    /// same state as the original was at this point in the log, so the same
    /// versions go.
    Groom { table: ObjectName, horizon: CommitSeq },
    /// Recovery truncated a torn (partially-written, never-acknowledged)
    /// record that had been assigned LSN `lost`, and durably re-logged the
    /// decision in its place so every later replay makes the same call.
    /// No-op when replayed.
    TornTail { lost: Lsn },
    /// `table`'s contents were lost to unrepairable storage corruption
    /// with no replica or host copy to rebuild from. Statements against
    /// it fail deterministically (-904) until a TRUNCATE + reload lifts
    /// the quarantine — never a silently empty answer.
    Quarantine { table: ObjectName },
}

impl LogRecord {
    /// Approximate durable size of this record in bytes (fixed header plus
    /// any wire-encoded payload). Used for log-volume metrics and the
    /// recovery-time cost model, never for protocol framing.
    pub fn bytes(&self) -> u64 {
        const RECORD_HEADER: u64 = 24;
        match self {
            LogRecord::Begin { .. }
            | LogRecord::Prepare { .. }
            | LogRecord::Commit { .. }
            | LogRecord::Abort { .. }
            | LogRecord::DropTable { .. }
            | LogRecord::Truncate { .. }
            | LogRecord::Groom { .. }
            | LogRecord::TornTail { .. }
            | LogRecord::Quarantine { .. } => RECORD_HEADER,
            LogRecord::Insert { frame, .. } => RECORD_HEADER + frame.len() as u64,
            LogRecord::Marks { positions, .. } => RECORD_HEADER + 16 * positions.len() as u64,
            LogRecord::CreateTable { schema, .. } => RECORD_HEADER + 32 * schema.len() as u64,
        }
    }
}

/// Deterministic per-record checksum over the record's LSN and logical
/// content (frames contribute their `wire::hash64`). Computed at append
/// time and re-verified by recovery and the scrub, so any post-write
/// damage is detected before the record is replayed.
fn record_fingerprint(lsn: Lsn, record: &LogRecord) -> u64 {
    let mut buf = Vec::new();
    buf.extend_from_slice(&lsn.to_le_bytes());
    match record {
        // A lifecycle record is the status it moves its transaction to.
        LogRecord::Begin { txn } => put_status(&mut buf, *txn, TxnStatus::Active),
        LogRecord::Prepare { txn } => put_status(&mut buf, *txn, TxnStatus::Prepared),
        LogRecord::Commit { txn, seq } => put_status(&mut buf, *txn, TxnStatus::Committed(*seq)),
        LogRecord::Abort { txn } => put_status(&mut buf, *txn, TxnStatus::Aborted),
        LogRecord::Insert { txn, table, frame } => {
            buf.push(4);
            buf.extend_from_slice(&txn.to_le_bytes());
            put_name(&mut buf, table);
            buf.extend_from_slice(&wire::hash64(frame).to_le_bytes());
        }
        LogRecord::Marks { txn, table, positions } => {
            buf.push(5);
            buf.extend_from_slice(&txn.to_le_bytes());
            put_name(&mut buf, table);
            for (s, p) in positions {
                buf.extend_from_slice(&(*s as u64).to_le_bytes());
                buf.extend_from_slice(&(*p as u64).to_le_bytes());
            }
        }
        LogRecord::CreateTable { name: n, schema, dist_cols, slices } => {
            buf.push(6);
            put_name(&mut buf, n);
            buf.extend_from_slice(&wire::schema_fingerprint(schema).to_le_bytes());
            for d in dist_cols {
                buf.extend_from_slice(&(*d as u64).to_le_bytes());
            }
            buf.extend_from_slice(&(*slices as u64).to_le_bytes());
        }
        LogRecord::DropTable { name: n } => {
            buf.push(7);
            put_name(&mut buf, n);
        }
        LogRecord::Truncate { table } => {
            buf.push(8);
            put_name(&mut buf, table);
        }
        LogRecord::Groom { table, horizon } => {
            buf.push(9);
            put_name(&mut buf, table);
            buf.extend_from_slice(&horizon.to_le_bytes());
        }
        LogRecord::TornTail { lost } => {
            buf.push(10);
            buf.extend_from_slice(&lost.to_le_bytes());
        }
        LogRecord::Quarantine { table } => {
            buf.push(11);
            put_name(&mut buf, table);
        }
    }
    wire::hash64(&buf)
}

/// Checksum encoding of an object name (length-prefixed).
fn put_name(buf: &mut Vec<u8>, name: &ObjectName) {
    let s = name.to_string();
    buf.extend_from_slice(&(s.len() as u64).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

/// Checksum encoding of one transaction's status: a tag (0–3, below every
/// other log record's tag), the commit sequence (0 unless committed), then
/// the transaction id.
fn put_status(buf: &mut Vec<u8>, txn: TxnId, status: TxnStatus) {
    let (tag, seq) = match status {
        TxnStatus::Active => (0u8, 0),
        TxnStatus::Prepared => (1, 0),
        TxnStatus::Committed(s) => (2, s),
        TxnStatus::Aborted => (3, 0),
    };
    buf.push(tag);
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(&txn.to_le_bytes());
}

/// Frozen image of one data slice inside a [`Checkpoint`]: the rows as a
/// wire frame plus the MVCC version vectors, positionally aligned.
///
/// The frame is an immutable shared buffer: a slice whose rows did not
/// change between two checkpoints hands both the same one
/// ([`crate::table::Slice::frame`]), so the retained checkpoints, a
/// recovery clone and the live slice hold one copy of it in memory. On the
/// simulated disk each image still holds its frame in full — see
/// [`Checkpoint::bytes`].
#[derive(Debug, Clone)]
pub struct SliceImage {
    /// All row versions of the slice, wire-encoded against the table
    /// schema (empty-row frames are valid and cheap).
    pub frame: Arc<[u8]>,
    pub created: Vec<TxnId>,
    pub deleted: Vec<TxnId>,
}

/// Frozen image of one table inside a [`Checkpoint`].
#[derive(Debug, Clone)]
pub struct TableImage {
    pub name: ObjectName,
    pub schema: Schema,
    pub dist_cols: Vec<usize>,
    /// Round-robin insert cursor at checkpoint time. Restoring it makes
    /// post-checkpoint replayed inserts land on the same slices as the
    /// original run, which keeps result-row order — and therefore encoded
    /// result frames and [`idaa_netsim::LinkMetrics`] — byte-identical.
    pub rr: usize,
    pub slices: Vec<SliceImage>,
}

/// A consistent full-state snapshot, atomically installed: the one
/// definition of recoverable state, also hashed as the engine's
/// [`state_fingerprint`](crate::engine::AccelEngine::state_fingerprint).
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Virtual-clock time the checkpoint was taken.
    pub taken_at: Duration,
    /// Log records with `lsn <= covers_lsn` are reflected in the images;
    /// recovery replays only the tail past this watermark.
    pub covers_lsn: Lsn,
    /// Full transaction-status map (sorted by id for determinism).
    pub txn_states: Vec<(TxnId, TxnStatus)>,
    /// Every table, sorted by name.
    pub tables: Vec<TableImage>,
    /// Quarantined tables (see [`LogRecord::Quarantine`]), sorted.
    pub quarantined: Vec<ObjectName>,
}

impl Checkpoint {
    /// Approximate durable size in bytes (slice frames + version vectors +
    /// status map + quarantine list). Drives the recovery cost model and
    /// E16's table.
    ///
    /// This is the size on disk: every frame counts in full, including one
    /// this image shares in memory with another checkpoint.
    pub fn bytes(&self) -> u64 {
        let mut n = 64 + 12 * self.txn_states.len() as u64 + 32 * self.quarantined.len() as u64;
        for t in &self.tables {
            n += 64 + 32 * t.schema.len() as u64;
            for s in &t.slices {
                n += s.frame.len() as u64 + 16 * s.created.len() as u64;
            }
        }
        n
    }

    /// Deterministic hash of the image's state: everything but
    /// `taken_at` and `covers_lsn`, so two engines in the same state agree
    /// whenever and from whichever log position they built the image.
    pub fn state_fingerprint(&self) -> u64 {
        let mut buf = Vec::new();
        self.put_state(&mut buf);
        wire::hash64(&buf)
    }

    /// The bytes both the state fingerprint and the checkpoint checksum
    /// hash (frames contribute their `wire::hash64`).
    fn put_state(&self, buf: &mut Vec<u8>) {
        for (txn, status) in &self.txn_states {
            put_status(buf, *txn, *status);
        }
        for t in &self.tables {
            put_name(buf, &t.name);
            buf.extend_from_slice(&wire::schema_fingerprint(&t.schema).to_le_bytes());
            buf.extend_from_slice(&(t.rr as u64).to_le_bytes());
            for d in &t.dist_cols {
                buf.extend_from_slice(&(*d as u64).to_le_bytes());
            }
            for slice in &t.slices {
                buf.extend_from_slice(&wire::hash64(&slice.frame).to_le_bytes());
                for c in &slice.created {
                    buf.extend_from_slice(&c.to_le_bytes());
                }
                for d in &slice.deleted {
                    buf.extend_from_slice(&d.to_le_bytes());
                }
            }
        }
        for q in &self.quarantined {
            put_name(buf, q);
        }
    }
}

/// Write-time checksum of a checkpoint: its header (`taken_at`,
/// `covers_lsn`) followed by its state bytes. Re-verified before the
/// checkpoint is trusted by recovery or the scrub.
fn checkpoint_fingerprint(cp: &Checkpoint) -> u64 {
    let mut buf = Vec::new();
    buf.extend_from_slice(&(cp.taken_at.as_nanos() as u64).to_le_bytes());
    buf.extend_from_slice(&cp.covers_lsn.to_le_bytes());
    cp.put_state(&mut buf);
    wire::hash64(&buf)
}

/// A log record as it sits on the simulated disk: payload plus the
/// write-time checksum, and a torn marker for appends whose tail was lost
/// mid-write (set only by the `TORN_LOG_APPEND` storage fault — a torn
/// record was never acknowledged, so truncating it loses nothing).
#[derive(Debug, Clone)]
struct StoredRecord {
    lsn: Lsn,
    checksum: u64,
    torn: bool,
    record: LogRecord,
}

impl StoredRecord {
    fn valid(&self) -> bool {
        !self.torn && self.checksum == record_fingerprint(self.lsn, &self.record)
    }
}

/// A checkpoint as it sits on the simulated disk (image + write-time
/// checksum + torn marker for a crash mid-checkpoint-write).
#[derive(Debug, Clone)]
struct StoredCheckpoint {
    checksum: u64,
    torn: bool,
    checkpoint: Checkpoint,
}

impl StoredCheckpoint {
    fn valid(&self) -> bool {
        !self.torn && self.checksum == checkpoint_fingerprint(&self.checkpoint)
    }
}

/// Result of a validating [`DurableStore::recover_scan`]: what recovery
/// rebuilds the engine from — the newest valid checkpoint (if any) and the
/// log tail past it, in LSN order — plus what self-healing had to do.
#[derive(Debug, Clone, Default)]
pub struct RecoveryScan {
    pub checkpoint: Option<Checkpoint>,
    pub tail: Vec<(Lsn, LogRecord)>,
    /// Torn tail records truncated (and durably re-logged as
    /// [`LogRecord::TornTail`]).
    pub torn_truncated: u64,
    /// Invalid (torn or rotted) checkpoints durably discarded in favor of
    /// an older valid one.
    pub checkpoint_fallbacks: u64,
    /// Total invalid items detected (torn tails + bad checkpoints + bad
    /// records).
    pub corruptions_detected: u64,
}

/// Durable state failed validation beyond local repair: acknowledged data
/// (a mid-tail record, or every checkpoint covering truncated log) is
/// unreadable. The node must be rebuilt from a replica or the host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorruptionBeyondRepair {
    /// Human-readable description of what failed validation.
    pub detail: String,
    /// Invalid items detected before the scan gave up.
    pub corruptions_detected: u64,
}

/// One background-scrub increment over the durable media (see
/// [`DurableStore::scrub_step`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Log records whose checksums were re-verified this step.
    pub scanned_records: u64,
    /// Durable bytes re-read for verification this step.
    pub scanned_bytes: u64,
    /// LSNs of log records that failed verification.
    pub corrupt_records: Vec<Lsn>,
    /// Checkpoints that failed verification (checked when the cursor
    /// wraps past the end of the log).
    pub corrupt_checkpoints: u64,
    /// True when this step wrapped around to the start of the media.
    pub wrapped: bool,
}

impl ScrubReport {
    /// Total invalid items this step found.
    pub fn corruptions(&self) -> u64 {
        self.corrupt_records.len() as u64 + self.corrupt_checkpoints
    }
}

/// How many retained checkpoints the store keeps. Two, so that a rotted
/// newest checkpoint can fall back to the previous one with the log tail
/// between them still on disk.
const RETAINED_CHECKPOINTS: usize = 2;

#[derive(Debug, Default)]
struct DurableInner {
    /// Retained checkpoints, oldest first (at most
    /// [`RETAINED_CHECKPOINTS`]).
    checkpoints: Vec<StoredCheckpoint>,
    log: Vec<StoredRecord>,
    next_lsn: Lsn,
    log_bytes: u64,
    last_checkpoint_at: Option<Duration>,
    /// Records with `lsn <= truncated_below` have been discarded from the
    /// log; recovery uses this to prove (or disprove) that a fallback
    /// checkpoint still has full log coverage.
    truncated_below: Lsn,
    /// Background-scrub position (index into `log`).
    scrub_cursor: usize,
}

impl DurableInner {
    fn newest_covers(&self) -> Lsn {
        self.checkpoints.last().map(|c| c.checkpoint.covers_lsn).unwrap_or(0)
    }

    fn truncate_log_below(&mut self, covers: Lsn) {
        self.log.retain(|r| r.lsn > covers);
        self.truncated_below = self.truncated_below.max(covers);
        self.log_bytes = self.log.iter().map(|r| r.record.bytes()).sum();
        self.scrub_cursor = self.scrub_cursor.min(self.log.len());
    }
}

/// The accelerator's in-memory "disk": survives [`crate::engine::AccelEngine::crash`]
/// (which wipes only volatile state) and feeds
/// [`crate::engine::AccelEngine::restart`].
#[derive(Debug, Default)]
pub struct DurableStore {
    inner: Mutex<DurableInner>,
}

impl DurableStore {
    /// Append one record; returns its LSN (1-based, strictly increasing).
    pub fn append(&self, record: LogRecord) -> Lsn {
        self.push(record, false)
    }

    /// Append one record whose tail is lost mid-write (the
    /// `TORN_LOG_APPEND` storage fault): the LSN is consumed and the
    /// record occupies the disk, but it is marked torn — recovery will
    /// detect and truncate it. The caller crashes immediately after, so
    /// the torn record is always the last one on disk.
    pub fn append_torn(&self, record: LogRecord) -> Lsn {
        self.push(record, true)
    }

    fn push(&self, record: LogRecord, torn: bool) -> Lsn {
        let mut inner = self.inner.lock();
        inner.next_lsn += 1;
        let lsn = inner.next_lsn;
        inner.log_bytes += record.bytes();
        let checksum = record_fingerprint(lsn, &record);
        inner.log.push(StoredRecord { lsn, checksum, torn, record });
        lsn
    }

    /// Highest LSN ever assigned (0 if the log was never written).
    pub fn last_lsn(&self) -> Lsn {
        self.inner.lock().next_lsn
    }

    /// Records currently retained in the log.
    pub fn log_len(&self) -> usize {
        self.inner.lock().log.len()
    }

    /// Records past the newest checkpoint's coverage — what a restart
    /// right now would replay. (The retained log can be longer: records
    /// between the two retained checkpoints stay on disk as fallback
    /// coverage.)
    pub fn tail_len(&self) -> usize {
        let inner = self.inner.lock();
        let covers = inner.newest_covers();
        inner.log.iter().filter(|r| r.lsn > covers).count()
    }

    /// Durable bytes currently retained in the log.
    pub fn log_bytes(&self) -> u64 {
        self.inner.lock().log_bytes
    }

    /// Virtual time of the last installed checkpoint.
    pub fn last_checkpoint_at(&self) -> Option<Duration> {
        self.inner.lock().last_checkpoint_at
    }

    /// Atomically install `checkpoint`, replacing the oldest retained one
    /// once `RETAINED_CHECKPOINTS` are on disk, and truncate the log up
    /// to the *oldest retained* checkpoint's coverage watermark (keeping
    /// the tail between the retained checkpoints as fallback coverage).
    /// Until this call the previous checkpoints and the full log stay
    /// intact — a crash while *building* a checkpoint loses nothing.
    pub fn install_checkpoint(&self, checkpoint: Checkpoint) {
        let mut inner = self.inner.lock();
        inner.last_checkpoint_at = Some(checkpoint.taken_at);
        let checksum = checkpoint_fingerprint(&checkpoint);
        inner.checkpoints.push(StoredCheckpoint { checksum, torn: false, checkpoint });
        while inner.checkpoints.len() > RETAINED_CHECKPOINTS {
            inner.checkpoints.remove(0);
        }
        let covers = inner.checkpoints[0].checkpoint.covers_lsn;
        inner.truncate_log_below(covers);
    }

    /// Install a checkpoint whose write was torn mid-flight (the
    /// `TORN_CHECKPOINT` storage fault): the image occupies a retention
    /// slot but is marked torn, the log is *not* truncated, and
    /// `last_checkpoint_at` does not advance — the previous checkpoint
    /// stays authoritative and recovery discards this one.
    pub fn install_torn_checkpoint(&self, checkpoint: Checkpoint) {
        let mut inner = self.inner.lock();
        let checksum = checkpoint_fingerprint(&checkpoint);
        inner.checkpoints.push(StoredCheckpoint { checksum, torn: true, checkpoint });
        while inner.checkpoints.len() > RETAINED_CHECKPOINTS {
            inner.checkpoints.remove(0);
        }
    }

    /// Run `build` while holding the store's lock, excluding concurrent
    /// log appends, and hand it the current last LSN — this is how a
    /// checkpoint gets a consistent cut of state + watermark.
    pub fn with_consistent_cut<T>(&self, build: impl FnOnce(Lsn) -> T) -> T {
        let inner = self.inner.lock();
        build(inner.next_lsn)
    }

    /// Validating read of the recovery set, with durable self-healing:
    ///
    /// 1. Checkpoints are verified newest-first; torn or checksum-invalid
    ///    ones are durably discarded (`checkpoint_fallbacks`) and the
    ///    newest *valid* one is chosen.
    /// 2. If the chosen coverage needs log records that were already
    ///    truncated, acknowledged state is unreadable —
    ///    [`CorruptionBeyondRepair`].
    /// 3. The tail past the chosen coverage is verified record by record.
    ///    A torn final record is truncated and durably replaced (same
    ///    LSN) by a [`LogRecord::TornTail`] marker, so every later replay
    ///    makes the identical decision. A torn or checksum-invalid record
    ///    *before* the tail end was acknowledged —
    ///    [`CorruptionBeyondRepair`].
    ///
    /// The scan mutates only durable metadata (discarded checkpoints,
    /// truncated torn tails); it never invents or reorders records, so
    /// running it again returns the same set — replay stays idempotent.
    pub fn recover_scan(&self) -> Result<RecoveryScan, CorruptionBeyondRepair> {
        let mut inner = self.inner.lock();
        let mut scan = RecoveryScan::default();
        // 1. Choose the newest valid checkpoint, durably dropping invalid
        // ones (newest-first, so a valid older one survives the purge).
        while let Some(stored) = inner.checkpoints.last() {
            if stored.valid() {
                break;
            }
            scan.checkpoint_fallbacks += 1;
            scan.corruptions_detected += 1;
            inner.checkpoints.pop();
        }
        let chosen = inner.checkpoints.last().map(|c| c.checkpoint.clone());
        let covers = chosen.as_ref().map(|c| c.covers_lsn).unwrap_or(0);
        // 2. Coverage check: every record past `covers` must still be on
        // disk, else acknowledged state is unreadable.
        if inner.truncated_below > covers {
            return Err(CorruptionBeyondRepair {
                detail: format!(
                    "no valid checkpoint covers log records {}..={} (already truncated)",
                    covers + 1,
                    inner.truncated_below
                ),
                corruptions_detected: scan.corruptions_detected,
            });
        }
        // 3. Validate the tail. A torn record can only be the last write
        // before the crash; anything invalid earlier was acknowledged.
        let last_idx = inner.log.len().checked_sub(1);
        for i in 0..inner.log.len() {
            if inner.log[i].lsn <= covers {
                continue;
            }
            if inner.log[i].torn {
                if Some(i) != last_idx {
                    return Err(CorruptionBeyondRepair {
                        detail: format!(
                            "torn record at lsn {} is not the log tail",
                            inner.log[i].lsn
                        ),
                        corruptions_detected: scan.corruptions_detected + 1,
                    });
                }
                let lost = inner.log[i].lsn;
                let marker = LogRecord::TornTail { lost };
                let prior = inner.log[i].record.bytes();
                inner.log_bytes = inner.log_bytes - prior + marker.bytes();
                inner.log[i] = StoredRecord {
                    lsn: lost,
                    checksum: record_fingerprint(lost, &marker),
                    torn: false,
                    record: marker,
                };
                scan.torn_truncated += 1;
                scan.corruptions_detected += 1;
            } else if !inner.log[i].valid() {
                return Err(CorruptionBeyondRepair {
                    detail: format!(
                        "log record at lsn {} failed checksum verification",
                        inner.log[i].lsn
                    ),
                    corruptions_detected: scan.corruptions_detected + 1,
                });
            }
        }
        scan.tail = inner
            .log
            .iter()
            .filter(|r| r.lsn > covers)
            .map(|r| (r.lsn, r.record.clone()))
            .collect();
        scan.checkpoint = chosen;
        Ok(scan)
    }

    /// One background-scrub increment: re-verify up to `max_records` log
    /// records from the saved cursor, and when the cursor wraps past the
    /// end of the log, re-verify the retained checkpoints too. Detection
    /// only — repair (a fresh checkpoint excising the damage) is the
    /// engine's call, while the in-memory state is still authoritative.
    pub fn scrub_step(&self, max_records: usize) -> ScrubReport {
        let mut inner = self.inner.lock();
        let mut report = ScrubReport::default();
        let start = inner.scrub_cursor.min(inner.log.len());
        let end = (start + max_records.max(1)).min(inner.log.len());
        for r in &inner.log[start..end] {
            report.scanned_records += 1;
            report.scanned_bytes += r.record.bytes();
            if !r.valid() {
                report.corrupt_records.push(r.lsn);
            }
        }
        if end >= inner.log.len() {
            for c in &inner.checkpoints {
                report.scanned_bytes += c.checkpoint.bytes();
                if !c.valid() {
                    report.corrupt_checkpoints += 1;
                }
            }
            report.wrapped = true;
            inner.scrub_cursor = 0;
        } else {
            inner.scrub_cursor = end;
        }
        report
    }

    /// Durably excise everything a fresh checkpoint supersedes: retain
    /// only the newest checkpoint and drop every log record it covers.
    /// This is the scrub's repair step — after a fresh checkpoint of the
    /// (healthy, in-memory) state, any rotted older record or checkpoint
    /// is no longer needed and is destroyed.
    pub fn compact_to_latest(&self) {
        let mut inner = self.inner.lock();
        while inner.checkpoints.len() > 1 {
            inner.checkpoints.remove(0);
        }
        let covers = inner.newest_covers();
        inner.truncate_log_below(covers);
    }

    /// Flip a bit in one already-written log record, chosen by the seeded
    /// `draw` (the `BITROT_LOG_SEGMENT` storage fault). The damage lands
    /// in the stored checksum word, so the record fails verification
    /// exactly like payload rot would. Returns the damaged LSN, or `None`
    /// if the log is empty.
    pub fn rot_log(&self, draw: u64) -> Option<Lsn> {
        let mut inner = self.inner.lock();
        if inner.log.is_empty() {
            return None;
        }
        let idx = (draw % inner.log.len() as u64) as usize;
        let bit = (draw >> 32) % 64;
        inner.log[idx].checksum ^= 1 << bit;
        Some(inner.log[idx].lsn)
    }

    /// Flip a bit in one retained checkpoint, chosen by the seeded `draw`
    /// (the `BITROT_CHECKPOINT` storage fault). Prefers the newest
    /// checkpoint so the fallback path is exercised. The damage lands in
    /// the stored checksum word, never in a frame's bytes, which the other
    /// retained checkpoint and the live slice may share. Returns true if a
    /// checkpoint existed to damage.
    pub fn rot_checkpoint(&self, draw: u64) -> bool {
        let mut inner = self.inner.lock();
        if inner.checkpoints.is_empty() {
            return false;
        }
        let last = inner.checkpoints.len() - 1;
        let bit = (draw >> 32) % 64;
        inner.checkpoints[last].checksum ^= 1 << bit;
        true
    }

    /// Factory-wipe the disk (node rebuild from replica/host: everything
    /// local is discarded and re-created from scratch).
    pub fn reset(&self) {
        *self.inner.lock() = DurableInner::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lsns_are_strictly_increasing_and_survive_truncation() {
        let store = DurableStore::default();
        let a = store.append(LogRecord::Begin { txn: 1 });
        let b = store.append(LogRecord::Commit { txn: 1, seq: 1 });
        assert!(b > a);
        store.install_checkpoint(Checkpoint {
            taken_at: Duration::ZERO,
            covers_lsn: b,
            txn_states: vec![],
            tables: vec![],
            quarantined: vec![],
        });
        assert_eq!(store.log_len(), 0, "covered records truncated");
        let c = store.append(LogRecord::Begin { txn: 2 });
        assert!(c > b, "LSNs never restart after truncation");
        let rs = store.recover_scan().unwrap();
        assert_eq!(rs.tail.len(), 1);
        assert_eq!(rs.tail[0].0, c);
    }

    #[test]
    fn checkpoint_install_is_atomic_until_called() {
        let store = DurableStore::default();
        store.append(LogRecord::Begin { txn: 1 });
        // A checkpoint being "built" (nothing installed yet) leaves the
        // log intact — a crash mid-build recovers from the full log.
        let rs = store.recover_scan().unwrap();
        assert_eq!(rs.tail.len(), 1);
        assert!(rs.checkpoint.is_none());
        assert_eq!(store.last_checkpoint_at(), None);
    }

    #[test]
    fn log_bytes_track_payload_sizes() {
        let store = DurableStore::default();
        store.append(LogRecord::Begin { txn: 1 });
        let small = store.log_bytes();
        store.append(LogRecord::Insert {
            txn: 1,
            table: ObjectName::bare("T"),
            frame: vec![0u8; 1000],
        });
        assert!(store.log_bytes() >= small + 1000);
    }

    fn cp(covers: Lsn, at_us: u64) -> Checkpoint {
        Checkpoint {
            taken_at: Duration::from_micros(at_us),
            covers_lsn: covers,
            txn_states: vec![],
            tables: vec![],
            quarantined: vec![],
        }
    }

    #[test]
    fn torn_tail_is_truncated_and_relogged_idempotently() {
        let store = DurableStore::default();
        store.append(LogRecord::Begin { txn: 1 });
        store.append_torn(LogRecord::Insert {
            txn: 1,
            table: ObjectName::bare("T"),
            frame: vec![9u8; 128],
        });
        let scan = store.recover_scan().expect("torn tail is repairable");
        assert_eq!(scan.torn_truncated, 1);
        assert_eq!(scan.corruptions_detected, 1);
        assert_eq!(scan.tail.len(), 2);
        assert!(matches!(scan.tail[1].1, LogRecord::TornTail { lost: 2 }));
        // A second scan sees the durably re-logged marker, not the tear.
        let again = store.recover_scan().expect("second scan clean");
        assert_eq!(again.torn_truncated, 0);
        assert_eq!(again.corruptions_detected, 0);
        assert_eq!(again.tail.len(), 2);
    }

    #[test]
    fn rotted_newest_checkpoint_falls_back_to_previous_valid_one() {
        let store = DurableStore::default();
        store.append(LogRecord::Begin { txn: 1 });
        store.install_checkpoint(cp(1, 10));
        store.append(LogRecord::Begin { txn: 2 });
        store.install_checkpoint(cp(2, 20));
        assert!(store.rot_checkpoint(0));
        let scan = store.recover_scan().expect("older checkpoint still valid");
        assert_eq!(scan.checkpoint_fallbacks, 1);
        assert_eq!(scan.checkpoint.as_ref().map(|c| c.covers_lsn), Some(1));
        // The tail between the two checkpoints was retained on disk, so
        // the longer replay has full coverage.
        assert_eq!(scan.tail.len(), 1);
        assert_eq!(scan.tail[0].0, 2);
    }

    #[test]
    fn torn_checkpoint_leaves_previous_authoritative() {
        let store = DurableStore::default();
        store.append(LogRecord::Begin { txn: 1 });
        store.install_checkpoint(cp(1, 10));
        let at = store.last_checkpoint_at();
        store.append(LogRecord::Begin { txn: 2 });
        store.install_torn_checkpoint(cp(2, 20));
        assert_eq!(store.last_checkpoint_at(), at, "torn install does not advance");
        let scan = store.recover_scan().expect("previous checkpoint valid");
        assert_eq!(scan.checkpoint_fallbacks, 1);
        assert_eq!(scan.checkpoint.as_ref().map(|c| c.covers_lsn), Some(1));
        assert_eq!(scan.tail.len(), 1, "tail past the authoritative checkpoint");
    }

    #[test]
    fn midtail_rot_is_beyond_repair() {
        let store = DurableStore::default();
        store.append(LogRecord::Begin { txn: 1 });
        store.append(LogRecord::Commit { txn: 1, seq: 1 });
        let lsn = store.rot_log(0).expect("log non-empty");
        assert_eq!(lsn, 1);
        let err = store.recover_scan().expect_err("acknowledged rot is fatal");
        assert!(err.detail.contains("lsn 1"));
        assert_eq!(err.corruptions_detected, 1);
    }

    #[test]
    fn rot_below_every_checkpoint_is_beyond_repair_once_truncated() {
        let store = DurableStore::default();
        store.append(LogRecord::Begin { txn: 1 });
        store.install_checkpoint(cp(1, 10));
        store.append(LogRecord::Begin { txn: 2 });
        store.install_checkpoint(cp(2, 20));
        // Rot both retained checkpoints: recovery has no valid coverage
        // for the records truncated at install time.
        assert!(store.rot_checkpoint(0));
        let mut scanned_both = false;
        // Rot the older one too (rot_checkpoint prefers the newest, so
        // pop the newest by scanning once — instead, damage via a second
        // call after the first fallback would happen at scan time; here
        // we simply rot the remaining one by installing nothing and
        // flipping again after recover_scan drops the newest).
        if store.recover_scan().is_ok() {
            assert!(store.rot_checkpoint(0));
            scanned_both = true;
        }
        let err = store.recover_scan().expect_err("no valid coverage left");
        assert!(scanned_both);
        assert!(err.detail.contains("already truncated"));
    }

    #[test]
    fn scrub_detects_rot_and_compaction_excises_it() {
        let store = DurableStore::default();
        for i in 0..10 {
            store.append(LogRecord::Begin { txn: i });
        }
        let lsn = store.rot_log(3).expect("log non-empty");
        let mut corrupt = Vec::new();
        let mut steps = 0;
        loop {
            let r = store.scrub_step(4);
            corrupt.extend(r.corrupt_records.clone());
            steps += 1;
            if r.wrapped {
                break;
            }
        }
        assert_eq!(corrupt, vec![lsn]);
        assert!(steps >= 3, "segment-sized steps, not one big scan");
        // Repair: fresh checkpoint covering everything + compaction.
        store.install_checkpoint(cp(store.last_lsn(), 99));
        store.compact_to_latest();
        assert_eq!(store.log_len(), 0);
        let scan = store.recover_scan().expect("rot excised");
        assert_eq!(scan.corruptions_detected, 0);
    }
}
