//! Accelerator tables: hash-distributed data slices of versioned columns
//! with per-block zone maps.
//!
//! A table is split across `n` *data slices* (Netezza's S-Blades/dataslices;
//! here: independently lockable shards scanned in parallel). Within a
//! slice, rows live in columnar vectors plus two version vectors
//! (`created`/`deleted` transaction ids) implementing the MVCC rule from
//! [`crate::mvcc`]. Every 4096-row block keeps min/max *zone maps* per
//! numeric column, letting selective scans skip whole blocks — ablation
//! experiment E10 switches this off to measure its contribution.

use crate::column::Column;
use crate::durable::{SliceImage, TableImage};
use crate::mvcc::TxnId;
use idaa_common::{wire, Error, ObjectName, Result, Row, Schema};
use parking_lot::RwLock;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Rows per zone-map block.
pub const BLOCK_ROWS: usize = 4096;

/// Min/max summary of one block of one column.
#[derive(Debug, Clone, Copy)]
pub struct ZoneEntry {
    pub min: f64,
    pub max: f64,
    /// Any row in range (zone invalid/empty blocks never prune).
    pub valid: bool,
}

impl Default for ZoneEntry {
    fn default() -> Self {
        ZoneEntry { min: f64::INFINITY, max: f64::NEG_INFINITY, valid: false }
    }
}

impl ZoneEntry {
    fn extend(&mut self, v: Option<f64>) {
        // NULLs don't widen the range; blocks of pure NULLs stay invalid
        // (= unprunable, which is conservative and still sound).
        if let Some(x) = v {
            self.min = self.min.min(x);
            self.max = self.max.max(x);
            self.valid = true;
        }
    }
}

/// One data slice: columnar row storage plus version vectors.
///
/// The storage fields are private so that every row reaches a slice
/// through `Slice::append`, which is what keeps the cached checkpoint
/// frame from going stale. Only `deleted` changes in place, and the frame
/// does not cover it.
#[derive(Debug)]
pub struct Slice {
    columns: Vec<Column>,
    created: Vec<TxnId>,
    deleted: Vec<TxnId>,
    /// `zones[col][block]`.
    zones: Vec<Vec<ZoneEntry>>,
    /// What [`Slice::frame`] returns until the next append clears it.
    frame: OnceLock<Arc<[u8]>>,
}

impl Slice {
    fn new(schema: &Schema) -> Slice {
        Slice {
            columns: schema.columns().iter().map(|c| Column::new(c.data_type)).collect(),
            created: Vec::new(),
            deleted: Vec::new(),
            zones: vec![Vec::new(); schema.len()],
            frame: OnceLock::new(),
        }
    }

    /// A slice holding `rows` with their creator and deleter ids, in
    /// position order; zone maps are rebuilt by appending. Fails if the
    /// three lengths differ or a row does not fit `schema`.
    fn from_parts(
        schema: &Schema,
        rows: &[Row],
        created: &[TxnId],
        deleted: &[TxnId],
    ) -> Result<Slice> {
        if rows.len() != created.len() || rows.len() != deleted.len() {
            return Err(Error::internal("slice rows and version vectors differ in length"));
        }
        let mut slice = Slice::new(schema);
        for (row, &txn) in rows.iter().zip(created) {
            slice.append(row, txn)?;
        }
        slice.deleted.copy_from_slice(deleted);
        Ok(slice)
    }

    /// The row columns, one per schema column.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Creating transaction of each row version, by position.
    pub fn created(&self) -> &[TxnId] {
        &self.created
    }

    /// Deleting transaction of each row version (0 = live), by position.
    pub fn deleted(&self) -> &[TxnId] {
        &self.deleted
    }

    /// Zone maps, `zones()[col][block]`.
    pub fn zones(&self) -> &[Vec<ZoneEntry>] {
        &self.zones
    }

    /// Every row version of the slice as one wire frame under its table's
    /// `schema`, byte for byte what [`wire::encode_frame`] makes of them.
    /// Encoded on the first call after an append and shared until the next.
    pub fn frame(&self, schema: &Schema) -> Arc<[u8]> {
        self.frame.get_or_init(|| self.encode(schema)).clone()
    }

    /// Every row version of the slice encoded afresh, bypassing the cache
    /// [`Slice::frame`] reads.
    pub fn encode(&self, schema: &Schema) -> Arc<[u8]> {
        let rows: Vec<Row> = (0..self.version_count()).map(|p| self.row_at(p)).collect();
        wire::encode_frame(schema, &rows).into()
    }

    /// Number of row versions (live or not).
    pub fn version_count(&self) -> usize {
        self.created.len()
    }

    /// Number of [`BLOCK_ROWS`]-sized blocks this slice spans — the batch
    /// granularity of the vectorized scan (and of the zone maps).
    pub fn block_count(&self) -> usize {
        self.version_count().div_ceil(BLOCK_ROWS)
    }

    fn append(&mut self, row: &Row, txn: TxnId) -> Result<()> {
        self.frame.take();
        let pos = self.created.len();
        let block = pos / BLOCK_ROWS;
        for (ci, (col, v)) in self.columns.iter_mut().zip(row).enumerate() {
            col.push(v)?;
            if self.zones[ci].len() <= block {
                self.zones[ci].push(ZoneEntry::default());
            }
            self.zones[ci][block].extend(col.numeric_at(pos));
        }
        self.created.push(txn);
        self.deleted.push(0);
        Ok(())
    }

    /// Materialize the full row at `pos`.
    pub fn row_at(&self, pos: usize) -> Row {
        self.columns.iter().map(|c| c.get(pos)).collect()
    }
}

/// A table stored on the accelerator (replicated copy of a DB2 table or an
/// accelerator-only table).
pub struct AccelTable {
    pub name: ObjectName,
    pub schema: Schema,
    /// Ordinals of the distribution key (empty = round robin).
    pub dist_cols: Vec<usize>,
    slices: Vec<RwLock<Slice>>,
    rr: AtomicUsize,
}

/// Position of one row version inside a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowPos {
    pub slice: usize,
    pub pos: usize,
}

impl AccelTable {
    /// New table with `slices` data slices.
    pub fn new(
        name: ObjectName,
        schema: Schema,
        dist_cols: Vec<usize>,
        slices: usize,
    ) -> AccelTable {
        let slices = slices.max(1);
        AccelTable {
            dist_cols,
            slices: (0..slices).map(|_| RwLock::new(Slice::new(&schema))).collect(),
            rr: AtomicUsize::new(0),
            name,
            schema,
        }
    }

    /// The data slices (exec scans them, usually in parallel).
    pub fn slices(&self) -> &[RwLock<Slice>] {
        &self.slices
    }

    /// This table as a checkpoint image, each slice's rows framed by
    /// `frame` (the cached [`Slice::frame`] or a fresh [`Slice::encode`]).
    pub fn image(&self, frame: fn(&Slice, &Schema) -> Arc<[u8]>) -> TableImage {
        let slices = self.slices.iter().map(|slice| {
            let slice = slice.read();
            SliceImage {
                frame: frame(&slice, &self.schema),
                created: slice.created.clone(),
                deleted: slice.deleted.clone(),
            }
        });
        TableImage {
            name: self.name.clone(),
            schema: self.schema.clone(),
            dist_cols: self.dist_cols.clone(),
            rr: self.rr.load(Ordering::Relaxed),
            slices: slices.collect(),
        }
    }

    /// Rebuild a table verbatim from its checkpoint image: every slice's
    /// rows with their original creator/deleter ids, and the round-robin
    /// cursor.
    pub fn from_image(image: &TableImage) -> Result<AccelTable> {
        let schema = &image.schema;
        let slices = image.slices.iter().map(|s| {
            let rows = wire::decode_rows(&s.frame, schema)?;
            Ok(RwLock::new(Slice::from_parts(schema, &rows, &s.created, &s.deleted)?))
        });
        Ok(AccelTable {
            name: image.name.clone(),
            schema: schema.clone(),
            dist_cols: image.dist_cols.clone(),
            slices: slices.collect::<Result<_>>()?,
            rr: AtomicUsize::new(image.rr),
        })
    }

    /// Recovery replay of a logged delete-mark: applied verbatim, with no
    /// conflict check — the original statement already won its conflicts
    /// before the mark was logged.
    pub fn replay_delete_mark(&self, at: RowPos, txn: TxnId) {
        self.slices[at.slice].write().deleted[at.pos] = txn;
    }

    /// Total stored versions across slices (live + dead).
    pub fn version_count(&self) -> usize {
        self.slices.iter().map(|s| s.read().version_count()).sum()
    }

    fn target_slice(&self, row: &Row) -> usize {
        if self.dist_cols.is_empty() {
            return self.rr.fetch_add(1, Ordering::Relaxed) % self.slices.len();
        }
        let mut h = DefaultHasher::new();
        for &c in &self.dist_cols {
            row[c].hash(&mut h);
        }
        (h.finish() as usize) % self.slices.len()
    }

    /// Insert one row version created by `txn` (row must already satisfy
    /// the schema — callers run `check_row` first).
    pub fn insert(&self, row: &Row, txn: TxnId) -> Result<RowPos> {
        let si = self.target_slice(row);
        let mut slice = self.slices[si].write();
        slice.append(row, txn)?;
        Ok(RowPos { slice: si, pos: slice.version_count() - 1 })
    }

    /// Bulk append (replication batches / loader). Rows are routed to their
    /// slices in one pass per slice to amortize locking.
    pub fn insert_bulk(&self, rows: &[Row], txn: TxnId) -> Result<usize> {
        let mut buckets: Vec<Vec<&Row>> = vec![Vec::new(); self.slices.len()];
        for row in rows {
            buckets[self.target_slice(row)].push(row);
        }
        for (si, bucket) in buckets.into_iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            let mut slice = self.slices[si].write();
            for row in bucket {
                slice.append(row, txn)?;
            }
        }
        Ok(rows.len())
    }

    /// Mark a row version deleted by `txn`. Enforces first-updater-wins:
    /// a version already deleted by a *live or committed* transaction
    /// cannot be deleted again (write-write conflict under SI).
    pub fn mark_deleted(
        &self,
        at: RowPos,
        txn: TxnId,
        is_dead: impl Fn(TxnId) -> bool,
    ) -> Result<()> {
        let mut slice = self.slices[at.slice].write();
        let cur = slice.deleted[at.pos];
        if cur != 0 && cur != txn && !is_dead(cur) {
            return Err(Error::LockTimeout(format!(
                "write-write conflict on {}: version already deleted by transaction {cur}",
                self.name
            )));
        }
        slice.deleted[at.pos] = txn;
        Ok(())
    }

    /// Undo a deletion mark set by `txn` (statement-level rollback).
    pub fn unmark_deleted(&self, at: RowPos, txn: TxnId) {
        let mut slice = self.slices[at.slice].write();
        if slice.deleted[at.pos] == txn {
            slice.deleted[at.pos] = 0;
        }
    }

    /// Reclaim dead versions: rows created by `aborted` transactions and
    /// rows whose deletion is visible to everyone. Returns versions removed.
    /// (Netezza's `GROOM TABLE`.)
    pub fn groom(
        &self,
        created_aborted: impl Fn(TxnId) -> bool,
        delete_final: impl Fn(TxnId) -> bool,
    ) -> Result<usize> {
        let mut removed = 0;
        for slice_lock in &self.slices {
            let mut slice = slice_lock.write();
            let keep: Vec<usize> = (0..slice.version_count())
                .filter(|&p| {
                    let (c, d) = (slice.created[p], slice.deleted[p]);
                    !(created_aborted(c) || (d != 0 && delete_final(d)))
                })
                .collect();
            if keep.len() == slice.version_count() {
                continue;
            }
            removed += slice.version_count() - keep.len();
            let rows: Vec<Row> = keep.iter().map(|&p| slice.row_at(p)).collect();
            let created: Vec<TxnId> = keep.iter().map(|&p| slice.created[p]).collect();
            let deleted: Vec<TxnId> = keep.iter().map(|&p| slice.deleted[p]).collect();
            *slice = Slice::from_parts(&self.schema, &rows, &created, &deleted)?;
        }
        Ok(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idaa_common::{ColumnDef, DataType, Value};

    fn schema() -> Schema {
        Schema::new(vec![
            ColumnDef::new("ID", DataType::Integer),
            ColumnDef::new("V", DataType::Double),
        ])
        .unwrap()
    }

    fn row(id: i32, v: f64) -> Row {
        vec![Value::Int(id), Value::Double(v)]
    }

    #[test]
    fn insert_routes_by_distribution_key() {
        let t = AccelTable::new(ObjectName::bare("T"), schema(), vec![0], 4);
        for i in 0..100 {
            t.insert(&row(i, i as f64), 1).unwrap();
        }
        assert_eq!(t.version_count(), 100);
        // Same key always lands on the same slice.
        let p1 = t.insert(&row(42, 0.0), 1).unwrap();
        let p2 = t.insert(&row(42, 1.0), 1).unwrap();
        assert_eq!(p1.slice, p2.slice);
    }

    #[test]
    fn round_robin_spreads_evenly() {
        let t = AccelTable::new(ObjectName::bare("T"), schema(), vec![], 4);
        for i in 0..40 {
            t.insert(&row(i, 0.0), 1).unwrap();
        }
        for s in t.slices() {
            assert_eq!(s.read().version_count(), 10);
        }
    }

    #[test]
    fn bulk_insert_equivalent() {
        let t = AccelTable::new(ObjectName::bare("T"), schema(), vec![0], 2);
        let rows: Vec<Row> = (0..50).map(|i| row(i, i as f64)).collect();
        assert_eq!(t.insert_bulk(&rows, 1).unwrap(), 50);
        assert_eq!(t.version_count(), 50);
    }

    #[test]
    fn zone_maps_track_min_max() {
        let t = AccelTable::new(ObjectName::bare("T"), schema(), vec![], 1);
        for i in 0..10 {
            t.insert(&row(i, (i * 10) as f64), 1).unwrap();
        }
        let slice = t.slices()[0].read();
        let z = slice.zones[1][0];
        assert!(z.valid);
        assert_eq!(z.min, 0.0);
        assert_eq!(z.max, 90.0);
    }

    #[test]
    fn write_write_conflict_detected() {
        let t = AccelTable::new(ObjectName::bare("T"), schema(), vec![], 1);
        let p = t.insert(&row(1, 1.0), 1).unwrap();
        t.mark_deleted(p, 2, |_| false).unwrap();
        let r = t.mark_deleted(p, 3, |_| false);
        assert!(matches!(r, Err(Error::LockTimeout(_))));
        // But if the first deleter aborted, the second may proceed.
        t.mark_deleted(p, 3, |txn| txn == 2).unwrap();
        // Re-delete by the same txn is idempotent.
        t.mark_deleted(p, 3, |_| false).unwrap();
    }

    #[test]
    fn unmark_restores_only_own_marks() {
        let t = AccelTable::new(ObjectName::bare("T"), schema(), vec![], 1);
        let p = t.insert(&row(1, 1.0), 1).unwrap();
        t.mark_deleted(p, 2, |_| false).unwrap();
        t.unmark_deleted(p, 3); // someone else's unmark is ignored
        assert!(t.mark_deleted(p, 3, |_| false).is_err());
        t.unmark_deleted(p, 2);
        t.mark_deleted(p, 3, |_| false).unwrap();
    }

    #[test]
    fn groom_reclaims_dead_versions() {
        let t = AccelTable::new(ObjectName::bare("T"), schema(), vec![], 2);
        for i in 0..20 {
            t.insert(&row(i, i as f64), 1).unwrap(); // txn 1: will commit
        }
        for i in 20..30 {
            t.insert(&row(i, i as f64), 2).unwrap(); // txn 2: will abort
        }
        // Delete five committed rows with txn 3 (committed).
        let mut marked = 0;
        for (si, slice_lock) in t.slices().iter().enumerate() {
            let count = slice_lock.read().version_count();
            for pos in 0..count {
                let (c, id) = {
                    let s = slice_lock.read();
                    (s.created[pos], s.row_at(pos)[0].as_i64().unwrap())
                };
                if c == 1 && id < 5 {
                    t.mark_deleted(RowPos { slice: si, pos }, 3, |_| false).unwrap();
                    marked += 1;
                }
            }
        }
        assert_eq!(marked, 5);
        let removed = t.groom(|c| c == 2, |d| d == 3).unwrap();
        assert_eq!(removed, 15, "10 aborted inserts + 5 committed deletes");
        assert_eq!(t.version_count(), 15);
        // Zone maps were rebuilt and stay sound.
        for s in t.slices() {
            let s = s.read();
            for z in &s.zones[0] {
                if z.valid {
                    assert!(z.min >= 5.0);
                }
            }
        }
    }
}
