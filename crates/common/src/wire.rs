//! Columnar wire protocol for host↔accelerator row transfers.
//!
//! Every row batch that crosses the federation link is encoded into one or
//! more self-describing *frames* before `idaa-netsim` is charged for the
//! transfer, so the byte counts the experiments report are the bytes a real
//! link would carry. A frame is column-major with per-column encodings:
//!
//! - integers, dates and timestamps: zig-zag LEB128 varints, either plain,
//!   delta-coded, or run-length coded — whichever is smallest (ties prefer
//!   delta, then RLE);
//! - strings: a first-occurrence-order dictionary with varint indices
//!   (plain or run-length coded) when that beats raw length-prefixed
//!   bytes, ties prefer the dictionary;
//! - doubles: raw 8-byte IEEE bits, run-length coded when strictly
//!   smaller;
//! - decimals: per-value scale byte plus zig-zag varint unit count;
//! - booleans: bit-packed;
//! - NULLs: a packed per-column null bitmap, so null cells cost one bit.
//!
//! The frame header carries a magic/version, the row and column counts, a
//! fingerprint of the producing schema, and the *logical* (pre-encoding)
//! size of the batch; a 64-bit XXH64-style checksum trails the payload.
//! The receive side verifies the checksum before decoding, which is what
//! lets a link corrupt site's damage become a *detected* link error that
//! feeds the existing retry/health machinery instead of a simulated coin
//! flip.
//!
//! Everything here is deterministic: encoding decisions depend only on the
//! input values, never on randomness, hash-map iteration order, or time —
//! a given workload produces byte-identical frames on every run, which
//! keeps `LinkMetrics` replayable per fault seed and the experiment tables
//! byte-stable.

use crate::decimal::Decimal;
use crate::error::{Error, Result};
use crate::row::Row;
use crate::schema::Schema;
use crate::value::Value;

/// Logical size of a small fixed-layout control message (DDL, BEGIN,
/// prepare/commit votes, rollback). Control messages carry no rows and are
/// charged at this size directly.
pub const CONTROL_FRAME: usize = 32;

/// Logical size of an acknowledgement / count-reply message.
pub const ACK_FRAME: usize = 64;

/// Logical per-result framing overhead of a row batch (schema summary,
/// cursor state). Part of [`logical_size`]; kept equal to the historical
/// result-frame estimate so logical byte counters remain comparable with
/// the byte counts earlier revisions reported as wire bytes.
pub const RESULT_FRAME: usize = 64;

/// Logical size of a "create output table" control message used by the
/// analytics write-back path (DDL text plus column metadata).
pub const CREATE_OUTPUT_FRAME: usize = 96;

/// Logical per-row framing overhead, matching the historical estimate.
pub const ROW_OVERHEAD: usize = 4;

/// Maximum rows per frame on the chunked streaming path: bulk loads ship
/// as a sequence of bounded frames instead of one monolithic payload.
pub const MAX_FRAME_ROWS: usize = 4096;

/// Frame magic (little-endian on the wire).
const MAGIC: u16 = 0xDA7A;
/// Current frame format version.
const VERSION: u8 = 1;
/// Header bytes before the column payload.
const HEADER_LEN: usize = 28;
/// Trailing checksum bytes.
const CHECKSUM_LEN: usize = 8;

// Physical column tags: which `Value` variant every non-null cell holds.
const PHYS_BOOLEAN: u8 = 0;
const PHYS_SMALLINT: u8 = 1;
const PHYS_INT: u8 = 2;
const PHYS_BIGINT: u8 = 3;
const PHYS_DOUBLE: u8 = 4;
const PHYS_DECIMAL: u8 = 5;
const PHYS_VARCHAR: u8 = 6;
const PHYS_DATE: u8 = 7;
const PHYS_TIMESTAMP: u8 = 8;
/// Heterogeneous (or empty) column: cells carry their own tags.
const PHYS_MIXED: u8 = 9;

// Per-column encoding tags.
const ENC_RAW: u8 = 0;
const ENC_DELTA: u8 = 1;
const ENC_RLE: u8 = 2;
const ENC_DICT: u8 = 3;

// Dictionary index sub-encodings.
const IDX_PLAIN: u8 = 0;
const IDX_RLE: u8 = 1;

/// A decoded frame: the schema fingerprint and logical size the sender
/// stamped, plus the reconstructed rows (exact `Value` variants preserved).
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedFrame {
    /// Fingerprint of the schema the sender encoded under.
    pub fingerprint: u64,
    /// Sender-stamped logical (pre-encoding) byte size of the batch.
    pub logical_len: u64,
    /// The row batch, losslessly reconstructed.
    pub rows: Vec<Row>,
}

// ---------------------------------------------------------------------------
// Hashing and varints
// ---------------------------------------------------------------------------

const PRIME64_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME64_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME64_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME64_4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME64_5: u64 = 0x27D4_EB2F_1656_67C5;

#[inline]
fn xxh_round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(PRIME64_2)).rotate_left(31).wrapping_mul(PRIME64_1)
}

/// XXH64 (seed 0): the frame checksum and the schema-fingerprint hash.
pub fn hash64(data: &[u8]) -> u64 {
    let len = data.len() as u64;
    let (stripes, mut rest) = data.as_chunks::<32>();
    let mut h: u64;
    if !stripes.is_empty() {
        let mut v = [PRIME64_1.wrapping_add(PRIME64_2), PRIME64_2, 0, 0u64.wrapping_sub(PRIME64_1)];
        for stripe in stripes {
            for (acc, lane) in v.iter_mut().zip(stripe.as_chunks::<8>().0) {
                *acc = xxh_round(*acc, u64::from_le_bytes(*lane));
            }
        }
        let [v1, v2, v3, v4] = v;
        h = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        for v in [v1, v2, v3, v4] {
            h = (h ^ xxh_round(0, v)).wrapping_mul(PRIME64_1).wrapping_add(PRIME64_4);
        }
    } else {
        h = PRIME64_5;
    }
    h = h.wrapping_add(len);
    while let Some((word, tail)) = rest.split_first_chunk::<8>() {
        h = (h ^ xxh_round(0, u64::from_le_bytes(*word)))
            .rotate_left(27)
            .wrapping_mul(PRIME64_1)
            .wrapping_add(PRIME64_4);
        rest = tail;
    }
    if let Some((word, tail)) = rest.split_first_chunk::<4>() {
        h = (h ^ (u32::from_le_bytes(*word) as u64).wrapping_mul(PRIME64_1))
            .rotate_left(23)
            .wrapping_mul(PRIME64_2)
            .wrapping_add(PRIME64_3);
        rest = tail;
    }
    for &b in rest {
        h = (h ^ (b as u64).wrapping_mul(PRIME64_5)).rotate_left(11).wrapping_mul(PRIME64_1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(PRIME64_2);
    h ^= h >> 29;
    h = h.wrapping_mul(PRIME64_3);
    h ^= h >> 32;
    h
}

#[inline]
fn zigzag64(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag64(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[inline]
fn zigzag128(v: i128) -> u128 {
    ((v << 1) ^ (v >> 127)) as u128
}

#[inline]
fn unzigzag128(v: u128) -> i128 {
    ((v >> 1) as i128) ^ -((v & 1) as i128)
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn put_varint128(out: &mut Vec<u8>, mut v: u128) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Cursor over frame bytes with bounds-checked reads; any overrun or
/// malformed varint surfaces as an internal decode error.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn bad<T>(&self) -> Result<T> {
        Err(Error::Internal("malformed wire frame".into()))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return self.bad();
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// `N` raw bytes, e.g. a little-endian word.
    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        match self.take(N)?.first_chunk() {
            Some(a) => Ok(*a),
            None => self.bad(),
        }
    }

    fn varint(&mut self) -> Result<u64> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            v |= ((b & 0x7f) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        self.bad()
    }

    fn varint128(&mut self) -> Result<u128> {
        let mut v = 0u128;
        for shift in (0..128).step_by(7) {
            let b = self.u8()?;
            v |= ((b & 0x7f) as u128) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        self.bad()
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

// ---------------------------------------------------------------------------
// Logical sizes and schema fingerprints
// ---------------------------------------------------------------------------

/// Logical (pre-encoding) size of one row: per-value variable encoding
/// plus the per-row framing overhead. This is the single entry point that
/// replaces the four copy-pasted per-call-site estimates.
pub fn row_logical_size(row: &[Value]) -> usize {
    ROW_OVERHEAD + row.iter().map(Value::wire_size).sum::<usize>()
}

/// Logical size of a row batch: result-frame overhead plus every row's
/// logical size. Equals what earlier revisions charged the link directly,
/// so wire-vs-logical ratios read as genuine compression.
pub fn logical_size(rows: &[Row]) -> usize {
    RESULT_FRAME + rows.iter().map(|r| row_logical_size(r)).sum::<usize>()
}

/// Order-sensitive fingerprint of a schema (names, types, nullability).
/// Sender stamps it into every frame; [`decode_rows`] refuses frames whose
/// fingerprint does not match the receiver's schema.
pub fn schema_fingerprint(schema: &Schema) -> u64 {
    let mut buf = Vec::with_capacity(schema.len() * 16);
    for col in schema.columns() {
        put_varint(&mut buf, col.name.len() as u64);
        buf.extend_from_slice(col.name.as_bytes());
        let (tag, a, b) = match col.data_type {
            crate::DataType::Boolean => (0u8, 0u16, 0u16),
            crate::DataType::SmallInt => (1, 0, 0),
            crate::DataType::Integer => (2, 0, 0),
            crate::DataType::BigInt => (3, 0, 0),
            crate::DataType::Double => (4, 0, 0),
            crate::DataType::Decimal(p, s) => (5, p as u16, s as u16),
            crate::DataType::Varchar(n) => (6, n, 0),
            crate::DataType::Char(n) => (7, n, 0),
            crate::DataType::Date => (8, 0, 0),
            crate::DataType::Timestamp => (9, 0, 0),
        };
        buf.push(tag);
        buf.extend_from_slice(&a.to_le_bytes());
        buf.extend_from_slice(&b.to_le_bytes());
        buf.push(col.not_null as u8);
    }
    hash64(&buf)
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn phys_tag(v: &Value) -> u8 {
    match v {
        Value::Null => PHYS_MIXED, // never chosen: callers skip nulls
        Value::Boolean(_) => PHYS_BOOLEAN,
        Value::SmallInt(_) => PHYS_SMALLINT,
        Value::Int(_) => PHYS_INT,
        Value::BigInt(_) => PHYS_BIGINT,
        Value::Double(_) => PHYS_DOUBLE,
        Value::Decimal(_) => PHYS_DECIMAL,
        Value::Varchar(_) => PHYS_VARCHAR,
        Value::Date(_) => PHYS_DATE,
        Value::Timestamp(_) => PHYS_TIMESTAMP,
    }
}

/// The integer behind an integer-family cell (`None` for any other).
fn int_of(v: &Value) -> Option<i64> {
    match v {
        Value::SmallInt(x) => Some(*x as i64),
        Value::Int(x) => Some(*x as i64),
        Value::BigInt(x) => Some(*x),
        Value::Date(x) => Some(*x as i64),
        Value::Timestamp(x) => Some(*x),
        _ => None,
    }
}

/// Bit-pack booleans / null flags: bit `i % 8` of byte `i / 8`.
fn pack_bits(bits: impl Iterator<Item = bool>, count: usize, out: &mut Vec<u8>) {
    let start = out.len();
    out.resize(start + count.div_ceil(8), 0);
    for (i, bit) in bits.enumerate() {
        if bit {
            out[start + i / 8] |= 1 << (i % 8);
        }
    }
}

fn encode_int_column(vals: &[i64], out: &mut Vec<u8>) {
    // Candidate encodings, all computed; smallest wins with a fixed
    // preference order (delta, then RLE, then raw) so the choice is a pure
    // function of the values.
    let mut raw = Vec::new();
    for &v in vals {
        put_varint(&mut raw, zigzag64(v));
    }
    let mut delta = Vec::new();
    let mut prev = 0i64;
    for (i, &v) in vals.iter().enumerate() {
        if i == 0 {
            put_varint(&mut delta, zigzag64(v));
        } else {
            put_varint(&mut delta, zigzag64(v.wrapping_sub(prev)));
        }
        prev = v;
    }
    let mut rle = Vec::new();
    let mut i = 0;
    while i < vals.len() {
        let mut j = i + 1;
        while j < vals.len() && vals[j] == vals[i] {
            j += 1;
        }
        put_varint(&mut rle, (j - i) as u64);
        put_varint(&mut rle, zigzag64(vals[i]));
        i = j;
    }
    if delta.len() <= rle.len() && delta.len() <= raw.len() {
        out.push(ENC_DELTA);
        out.extend_from_slice(&delta);
    } else if rle.len() <= raw.len() {
        out.push(ENC_RLE);
        out.extend_from_slice(&rle);
    } else {
        out.push(ENC_RAW);
        out.extend_from_slice(&raw);
    }
}

fn encode_double_column(vals: &[f64], out: &mut Vec<u8>) {
    let mut raw = Vec::with_capacity(vals.len() * 8);
    for &v in vals {
        raw.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    let mut rle = Vec::new();
    let mut i = 0;
    while i < vals.len() {
        let mut j = i + 1;
        // Run detection on the bit pattern keeps NaN and -0.0 exact.
        while j < vals.len() && vals[j].to_bits() == vals[i].to_bits() {
            j += 1;
        }
        put_varint(&mut rle, (j - i) as u64);
        rle.extend_from_slice(&vals[i].to_bits().to_le_bytes());
        i = j;
    }
    if rle.len() < raw.len() {
        out.push(ENC_RLE);
        out.extend_from_slice(&rle);
    } else {
        out.push(ENC_RAW);
        out.extend_from_slice(&raw);
    }
}

fn encode_string_column(vals: &[&str], out: &mut Vec<u8>) {
    let mut raw = Vec::new();
    for v in vals {
        put_varint(&mut raw, v.len() as u64);
        raw.extend_from_slice(v.as_bytes());
    }
    // First-occurrence-order dictionary: deterministic, no hash-map
    // iteration order involved.
    let mut entries: Vec<&str> = Vec::new();
    let mut indices: Vec<u64> = Vec::with_capacity(vals.len());
    for v in vals {
        match entries.iter().position(|e| e == v) {
            Some(i) => indices.push(i as u64),
            None => {
                indices.push(entries.len() as u64);
                entries.push(v);
            }
        }
    }
    let mut dict = Vec::new();
    put_varint(&mut dict, entries.len() as u64);
    for e in &entries {
        put_varint(&mut dict, e.len() as u64);
        dict.extend_from_slice(e.as_bytes());
    }
    let mut plain_idx = Vec::new();
    for &ix in &indices {
        put_varint(&mut plain_idx, ix);
    }
    let mut rle_idx = Vec::new();
    let mut i = 0;
    while i < indices.len() {
        let mut j = i + 1;
        while j < indices.len() && indices[j] == indices[i] {
            j += 1;
        }
        put_varint(&mut rle_idx, (j - i) as u64);
        put_varint(&mut rle_idx, indices[i]);
        i = j;
    }
    if plain_idx.len() <= rle_idx.len() {
        dict.push(IDX_PLAIN);
        dict.extend_from_slice(&plain_idx);
    } else {
        dict.push(IDX_RLE);
        dict.extend_from_slice(&rle_idx);
    }
    if dict.len() <= raw.len() {
        out.push(ENC_DICT);
        out.extend_from_slice(&dict);
    } else {
        out.push(ENC_RAW);
        out.extend_from_slice(&raw);
    }
}

fn encode_decimal_column(vals: &[Decimal], out: &mut Vec<u8>) {
    out.push(ENC_RAW);
    for d in vals {
        out.push(d.scale());
        put_varint128(out, zigzag128(d.units()));
    }
}

fn encode_bool_column(vals: &[bool], out: &mut Vec<u8>) {
    out.push(ENC_RAW);
    pack_bits(vals.iter().copied(), vals.len(), out);
}

/// Tagged per-value encoding for heterogeneous columns.
fn encode_mixed_value(v: &Value, out: &mut Vec<u8>) {
    out.push(phys_tag(v));
    match v {
        Value::Boolean(b) => out.push(*b as u8),
        Value::Double(x) => out.extend_from_slice(&x.to_bits().to_le_bytes()),
        Value::Decimal(d) => {
            out.push(d.scale());
            put_varint128(out, zigzag128(d.units()));
        }
        Value::Varchar(s) => {
            put_varint(out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
        // Integer-family cells; a NULL has no body (it lives in the bitmap).
        _ => {
            if let Some(x) = int_of(v) {
                put_varint(out, zigzag64(x));
            }
        }
    }
}

/// The payload of every cell when all of them hold the `Value` variant
/// tagged `phys`, else `None`.
fn typed<'a, T>(present: &[&'a Value], phys: u8, get: impl Fn(&'a Value) -> Option<T>) -> Option<Vec<T>> {
    present.iter().map(|v| if phys_tag(v) == phys { get(v) } else { None }).collect()
}

fn encode_column(rows: &[Row], col: usize, out: &mut Vec<u8>) {
    let nrows = rows.len();
    let present: Vec<&Value> = rows.iter().map(|r| &r[col]).filter(|v| !v.is_null()).collect();
    let tag_at = out.len();
    out.push(PHYS_MIXED);
    pack_bits(rows.iter().map(|r| r[col].is_null()), nrows, out);
    // A column is physically typed when every non-null cell holds the same
    // `Value` variant; otherwise (or when empty) cells carry their own tags.
    let phys = present.first().map_or(PHYS_MIXED, |v| phys_tag(v));
    let body = match phys {
        PHYS_BOOLEAN => typed(&present, phys, |v| match v {
            Value::Boolean(b) => Some(*b),
            _ => None,
        })
        .map(|vals| encode_bool_column(&vals, out)),
        PHYS_SMALLINT | PHYS_INT | PHYS_BIGINT | PHYS_DATE | PHYS_TIMESTAMP => {
            typed(&present, phys, int_of).map(|vals| encode_int_column(&vals, out))
        }
        PHYS_DOUBLE => typed(&present, phys, |v| match v {
            Value::Double(x) => Some(*x),
            _ => None,
        })
        .map(|vals| encode_double_column(&vals, out)),
        PHYS_DECIMAL => typed(&present, phys, |v| match v {
            Value::Decimal(d) => Some(*d),
            _ => None,
        })
        .map(|vals| encode_decimal_column(&vals, out)),
        PHYS_VARCHAR => typed(&present, phys, |v| match v {
            Value::Varchar(s) => Some(s.as_str()),
            _ => None,
        })
        .map(|vals| encode_string_column(&vals, out)),
        _ => None,
    };
    if body.is_some() {
        out[tag_at] = phys;
    } else {
        out.push(ENC_RAW);
        for v in &present {
            encode_mixed_value(v, out);
        }
    }
}

/// Encode one row batch into a single framed byte buffer. The result is
/// what [`crate::row::Rows`]-bearing transfers charge the link with, byte
/// for byte. Deterministic: equal inputs produce equal frames.
///
/// Panics if a row's arity differs from the schema's (all shipping paths
/// carry schema-checked rows).
pub fn encode_frame(schema: &Schema, rows: &[Row]) -> Vec<u8> {
    let ncols = schema.len();
    for r in rows {
        assert_eq!(r.len(), ncols, "row arity must match the frame schema");
    }
    let mut out = Vec::with_capacity(HEADER_LEN + 16 * rows.len().max(1));
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.push(VERSION);
    out.push(0); // flags, reserved
    out.extend_from_slice(&schema_fingerprint(schema).to_le_bytes());
    out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
    out.extend_from_slice(&(ncols as u32).to_le_bytes());
    out.extend_from_slice(&(logical_size(rows) as u64).to_le_bytes());
    debug_assert_eq!(out.len(), HEADER_LEN);
    for col in 0..ncols {
        encode_column(rows, col, &mut out);
    }
    let checksum = hash64(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Chunked streaming encode: splits the batch into bounded frames of at
/// most [`MAX_FRAME_ROWS`] rows. Always produces at least one frame, so an
/// empty batch still ships its (empty) frame and acknowledgement.
pub fn encode_frames(schema: &Schema, rows: &[Row]) -> Vec<Vec<u8>> {
    if rows.is_empty() {
        return vec![encode_frame(schema, rows)];
    }
    rows.chunks(MAX_FRAME_ROWS).map(|chunk| encode_frame(schema, chunk)).collect()
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Verify a frame's trailing checksum without decoding it. This is what
/// the simulated link runs against (possibly corrupted) delivered bytes.
pub fn verify(frame: &[u8]) -> bool {
    if frame.len() < HEADER_LEN + CHECKSUM_LEN {
        return false;
    }
    let Some((body, tail)) = frame.split_last_chunk::<CHECKSUM_LEN>() else { return false };
    frame.first_chunk() == Some(&MAGIC.to_le_bytes()) && hash64(body) == u64::from_le_bytes(*tail)
}

/// Sender-stamped logical byte size of a frame, read from the header
/// (`None` when the buffer is too short to be a frame). Used by the link
/// to account logical alongside wire bytes.
pub fn frame_logical_len(frame: &[u8]) -> Option<u64> {
    if frame.len() < HEADER_LEN + CHECKSUM_LEN || frame.first_chunk() != Some(&MAGIC.to_le_bytes()) {
        return None;
    }
    frame[20..].first_chunk().map(|w| u64::from_le_bytes(*w))
}

/// The integer-family `Value` variant a physical tag names.
#[derive(Clone, Copy)]
enum IntKind {
    SmallInt,
    Int,
    BigInt,
    Date,
    Timestamp,
}

impl IntKind {
    fn of(phys: u8) -> Option<IntKind> {
        Some(match phys {
            PHYS_SMALLINT => IntKind::SmallInt,
            PHYS_INT => IntKind::Int,
            PHYS_BIGINT => IntKind::BigInt,
            PHYS_DATE => IntKind::Date,
            PHYS_TIMESTAMP => IntKind::Timestamp,
            _ => return None,
        })
    }

    fn value(self, v: i64) -> Value {
        match self {
            IntKind::SmallInt => Value::SmallInt(v as i16),
            IntKind::Int => Value::Int(v as i32),
            IntKind::BigInt => Value::BigInt(v),
            IntKind::Date => Value::Date(v as i32),
            IntKind::Timestamp => Value::Timestamp(v),
        }
    }
}

fn decode_int_body(r: &mut Reader, kind: IntKind, n: usize) -> Result<Vec<Value>> {
    let enc = r.u8()?;
    let mut vals = Vec::with_capacity(n);
    match enc {
        ENC_RAW => {
            for _ in 0..n {
                vals.push(unzigzag64(r.varint()?));
            }
        }
        ENC_DELTA => {
            let mut prev = 0i64;
            for i in 0..n {
                let d = unzigzag64(r.varint()?);
                prev = if i == 0 { d } else { prev.wrapping_add(d) };
                vals.push(prev);
            }
        }
        ENC_RLE => {
            while vals.len() < n {
                let run = r.varint()? as usize;
                let v = unzigzag64(r.varint()?);
                if run == 0 || vals.len() + run > n {
                    return r.bad();
                }
                vals.extend(std::iter::repeat_n(v, run));
            }
        }
        _ => return r.bad(),
    }
    Ok(vals.into_iter().map(|v| kind.value(v)).collect())
}

fn decode_double_body(r: &mut Reader, n: usize) -> Result<Vec<Value>> {
    let enc = r.u8()?;
    let mut vals = Vec::with_capacity(n);
    match enc {
        ENC_RAW => {
            for _ in 0..n {
                vals.push(f64::from_bits(u64::from_le_bytes(r.array()?)));
            }
        }
        ENC_RLE => {
            while vals.len() < n {
                let run = r.varint()? as usize;
                let v = f64::from_bits(u64::from_le_bytes(r.array()?));
                if run == 0 || vals.len() + run > n {
                    return r.bad();
                }
                vals.extend(std::iter::repeat_n(v, run));
            }
        }
        _ => return r.bad(),
    }
    Ok(vals.into_iter().map(Value::Double).collect())
}

fn decode_string_body(r: &mut Reader, n: usize) -> Result<Vec<Value>> {
    let enc = r.u8()?;
    let mut vals = Vec::with_capacity(n);
    match enc {
        ENC_RAW => {
            for _ in 0..n {
                let len = r.varint()? as usize;
                let s = std::str::from_utf8(r.take(len)?).map_err(|_| Error::Internal("malformed wire frame".into()))?;
                vals.push(Value::Varchar(s.into()));
            }
        }
        ENC_DICT => {
            let nentries = r.varint()? as usize;
            let mut entries = Vec::with_capacity(nentries);
            for _ in 0..nentries {
                let len = r.varint()? as usize;
                let s = std::str::from_utf8(r.take(len)?).map_err(|_| Error::Internal("malformed wire frame".into()))?;
                entries.push(s.to_string());
            }
            let idx_enc = r.u8()?;
            let mut indices = Vec::with_capacity(n);
            match idx_enc {
                IDX_PLAIN => {
                    for _ in 0..n {
                        indices.push(r.varint()? as usize);
                    }
                }
                IDX_RLE => {
                    while indices.len() < n {
                        let run = r.varint()? as usize;
                        let ix = r.varint()? as usize;
                        if run == 0 || indices.len() + run > n {
                            return r.bad();
                        }
                        indices.extend(std::iter::repeat_n(ix, run));
                    }
                }
                _ => return r.bad(),
            }
            for ix in indices {
                let s = entries.get(ix).ok_or_else(|| Error::Internal("malformed wire frame".into()))?;
                vals.push(Value::Varchar(s.clone()));
            }
        }
        _ => return r.bad(),
    }
    Ok(vals)
}

fn decode_decimal_body(r: &mut Reader, n: usize) -> Result<Vec<Value>> {
    if r.u8()? != ENC_RAW {
        return r.bad();
    }
    let mut vals = Vec::with_capacity(n);
    for _ in 0..n {
        let scale = r.u8()?;
        let units = unzigzag128(r.varint128()?);
        vals.push(Value::Decimal(Decimal::new(units, scale)));
    }
    Ok(vals)
}

fn decode_bool_body(r: &mut Reader, n: usize) -> Result<Vec<Value>> {
    if r.u8()? != ENC_RAW {
        return r.bad();
    }
    let bytes = r.take(n.div_ceil(8))?;
    Ok((0..n).map(|i| Value::Boolean(bytes[i / 8] >> (i % 8) & 1 == 1)).collect())
}

fn decode_mixed_body(r: &mut Reader, n: usize) -> Result<Vec<Value>> {
    if r.u8()? != ENC_RAW {
        return r.bad();
    }
    let mut vals = Vec::with_capacity(n);
    for _ in 0..n {
        let tag = r.u8()?;
        vals.push(match tag {
            PHYS_BOOLEAN => Value::Boolean(r.u8()? != 0),
            PHYS_DOUBLE => Value::Double(f64::from_bits(u64::from_le_bytes(r.array()?))),
            PHYS_DECIMAL => {
                let scale = r.u8()?;
                Value::Decimal(Decimal::new(unzigzag128(r.varint128()?), scale))
            }
            PHYS_VARCHAR => {
                let len = r.varint()? as usize;
                let s = std::str::from_utf8(r.take(len)?).map_err(|_| Error::Internal("malformed wire frame".into()))?;
                Value::Varchar(s.into())
            }
            _ => match IntKind::of(tag) {
                Some(kind) => kind.value(unzigzag64(r.varint()?)),
                None => return r.bad(),
            },
        });
    }
    Ok(vals)
}

fn decode_column(r: &mut Reader, nrows: usize) -> Result<Vec<Value>> {
    let phys = r.u8()?;
    let bitmap = r.take(nrows.div_ceil(8))?.to_vec();
    let null_at = |i: usize| bitmap[i / 8] >> (i % 8) & 1 == 1;
    let n_present = (0..nrows).filter(|&i| !null_at(i)).count();
    let present = match phys {
        PHYS_BOOLEAN => decode_bool_body(r, n_present)?,
        PHYS_DOUBLE => decode_double_body(r, n_present)?,
        PHYS_DECIMAL => decode_decimal_body(r, n_present)?,
        PHYS_VARCHAR => decode_string_body(r, n_present)?,
        PHYS_MIXED => decode_mixed_body(r, n_present)?,
        _ => match IntKind::of(phys) {
            Some(kind) => decode_int_body(r, kind, n_present)?,
            None => return r.bad(),
        },
    };
    if present.len() != n_present {
        return r.bad();
    }
    // One present value per non-null position, so the fallback never fires.
    let mut it = present.into_iter();
    Ok((0..nrows).map(|i| if null_at(i) { Value::Null } else { it.next().unwrap_or(Value::Null) }).collect())
}

/// Decode a frame back into rows, verifying the checksum first. A failed
/// checksum surfaces as [`Error::LinkFailure`] (SQLCODE -30081) so it
/// feeds the same retry path as any other communication failure;
/// structurally malformed frames are internal errors.
pub fn decode_frame(frame: &[u8]) -> Result<DecodedFrame> {
    if !verify(frame) {
        return Err(Error::LinkFailure("wire frame checksum mismatch".into()));
    }
    let body = &frame[..frame.len() - CHECKSUM_LEN];
    if body[2] != VERSION {
        return Err(Error::Internal(format!("unsupported wire frame version {}", body[2])));
    }
    let mut header = Reader::new(&body[4..HEADER_LEN]);
    let fingerprint = u64::from_le_bytes(header.array()?);
    let nrows = u32::from_le_bytes(header.array()?) as usize;
    let ncols = u32::from_le_bytes(header.array()?) as usize;
    let logical_len = u64::from_le_bytes(header.array()?);
    let mut r = Reader::new(&body[HEADER_LEN..]);
    let mut columns = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        columns.push(decode_column(&mut r, nrows)?);
    }
    if !r.done() {
        return r.bad();
    }
    let mut rows: Vec<Row> = (0..nrows).map(|_| Vec::with_capacity(ncols)).collect();
    for col in columns {
        for (row, v) in rows.iter_mut().zip(col) {
            row.push(v);
        }
    }
    Ok(DecodedFrame { fingerprint, logical_len, rows })
}

/// Decode a frame that must have been produced under `schema`; a
/// fingerprint mismatch means sender and receiver disagree about the table
/// shape and is an internal error.
pub fn decode_rows(frame: &[u8], schema: &Schema) -> Result<Vec<Row>> {
    let decoded = decode_frame(frame)?;
    if decoded.fingerprint != schema_fingerprint(schema) {
        return Err(Error::Internal("wire frame schema fingerprint mismatch".into()));
    }
    Ok(decoded.rows)
}

// ---------------------------------------------------------------------------
// Join-key summaries (Bloom bits + min/max range)
// ---------------------------------------------------------------------------

/// Cap on Bloom words (64 Ki words = 4 Mi bits digests ~400k keys).
const SUMMARY_MAX_WORDS: usize = 1 << 16;

/// Hash of an integer-family join key.
pub fn key_hash_i64(v: i64) -> u64 {
    hash64(&v.to_le_bytes())
}

/// Digest of a join's build-side integer keys: a Bloom filter over key
/// hashes plus their min/max. Membership tests may *only* false-positive
/// (a key that was inserted always tests present), so pre-filtering a probe
/// side with a summary can never drop a joining row — the exact key compare
/// downstream removes the false positives. Construction is a pure function
/// of the inserted keys.
#[derive(Debug, Clone)]
pub struct KeySummary {
    /// Bloom bit words; the word count is a power of two so bit positions
    /// reduce with a mask.
    words: Vec<u64>,
    min: Option<i64>,
    max: Option<i64>,
}

impl KeySummary {
    /// A summary sized for roughly `nkeys` distinct keys (~10 bits/key with
    /// two probes ⇒ a few percent false-positive rate).
    pub fn with_capacity(nkeys: usize) -> KeySummary {
        let nbits = nkeys.saturating_mul(10).next_power_of_two().clamp(64, SUMMARY_MAX_WORDS * 64);
        KeySummary { words: vec![0; nbits / 64], min: None, max: None }
    }

    /// The two Bloom bit positions for one key hash.
    fn bit_positions(&self, h: u64) -> [usize; 2] {
        let mask = self.words.len() * 64 - 1;
        [h as usize & mask, (h >> 32) as usize & mask]
    }

    /// Insert an integer key, widening the min/max range.
    pub fn insert_i64(&mut self, v: i64) {
        self.min = Some(self.min.map_or(v, |m| m.min(v)));
        self.max = Some(self.max.map_or(v, |m| m.max(v)));
        for b in self.bit_positions(key_hash_i64(v)) {
            self.words[b / 64] |= 1 << (b % 64);
        }
    }

    /// Could an integer probe key join? Range check first, then Bloom bits.
    pub fn contains_i64(&self, v: i64) -> bool {
        if let (Some(lo), Some(hi)) = (self.min, self.max) {
            if v < lo || v > hi {
                return false;
            }
        }
        let bits = self.bit_positions(key_hash_i64(v));
        bits.iter().all(|&b| self.words[b / 64] >> (b % 64) & 1 == 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use crate::DataType;

    fn schema() -> Schema {
        Schema::new(vec![
            ColumnDef::not_null("id", DataType::Integer),
            ColumnDef::new("region", DataType::Varchar(8)),
            ColumnDef::new("amount", DataType::Double),
            ColumnDef::new("price", DataType::Decimal(10, 2)),
            ColumnDef::new("sold", DataType::Date),
            ColumnDef::new("flag", DataType::Boolean),
        ])
        .unwrap()
    }

    fn sample_rows(n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| {
                vec![
                    Value::Int(i as i32),
                    if i % 7 == 0 {
                        Value::Null
                    } else {
                        Value::Varchar(if i % 3 == 0 { "EU".into() } else { "US".into() })
                    },
                    Value::Double(i as f64 * 1.5),
                    Value::Decimal(Decimal::new(-12345 + i as i128, 2)),
                    Value::Date(17_000 + (i / 10) as i32),
                    Value::Boolean(i % 2 == 0),
                ]
            })
            .collect()
    }

    #[test]
    fn roundtrip_preserves_exact_variants() {
        let s = schema();
        let rows = sample_rows(100);
        let frame = encode_frame(&s, &rows);
        assert!(verify(&frame));
        let back = decode_rows(&frame, &s).unwrap();
        assert_eq!(back.len(), rows.len());
        for (a, b) in rows.iter().zip(&back) {
            for (x, y) in a.iter().zip(b) {
                // `Value::PartialEq` compares across representations; the
                // discriminant check pins the exact variant.
                assert_eq!(std::mem::discriminant(x), std::mem::discriminant(y));
                assert_eq!(x, y);
            }
        }
    }

    #[test]
    fn empty_batch_roundtrips() {
        let s = schema();
        let frame = encode_frame(&s, &[]);
        assert!(verify(&frame));
        assert_eq!(decode_rows(&frame, &s).unwrap(), Vec::<Row>::new());
        assert_eq!(frame_logical_len(&frame), Some(RESULT_FRAME as u64));
    }

    #[test]
    fn encoding_is_deterministic() {
        let s = schema();
        let rows = sample_rows(64);
        assert_eq!(encode_frame(&s, &rows), encode_frame(&s, &rows));
    }

    #[test]
    fn compresses_low_cardinality_and_sequences() {
        let s = schema();
        let rows = sample_rows(1000);
        let frame = encode_frame(&s, &rows);
        let logical = logical_size(&rows);
        assert_eq!(frame_logical_len(&frame), Some(logical as u64));
        assert!(
            frame.len() * 2 < logical,
            "expected ≥2x compression, got {} wire vs {} logical",
            frame.len(),
            logical
        );
    }

    #[test]
    fn chunking_bounds_frames_and_roundtrips() {
        let s = schema();
        let rows = sample_rows(MAX_FRAME_ROWS + 17);
        let frames = encode_frames(&s, &rows);
        assert_eq!(frames.len(), 2);
        let mut back = Vec::new();
        for f in &frames {
            back.extend(decode_rows(f, &s).unwrap());
        }
        assert_eq!(back, rows);
        assert_eq!(encode_frames(&s, &[]).len(), 1, "empty batches still frame");
    }

    #[test]
    fn corruption_is_detected_anywhere() {
        let s = schema();
        let frame = encode_frame(&s, &sample_rows(40));
        for pos in [0, 2, HEADER_LEN - 1, HEADER_LEN + 5, frame.len() - 1] {
            let mut bad = frame.clone();
            bad[pos] ^= 0x40;
            assert!(!verify(&bad), "flip at {pos} must fail the checksum");
            let err = decode_frame(&bad).unwrap_err();
            assert_eq!(err.sqlcode(), -30081, "corrupt frame maps to -30081");
        }
        let err = decode_frame(&frame[..10]).unwrap_err();
        assert_eq!(err.sqlcode(), -30081, "truncated frame maps to -30081");
    }

    #[test]
    fn fingerprint_mismatch_is_rejected() {
        let s = schema();
        let other = Schema::new(vec![ColumnDef::new("x", DataType::Integer)]).unwrap();
        let frame = encode_frame(&s, &sample_rows(3));
        assert!(decode_rows(&frame, &other).is_err());
        assert_ne!(schema_fingerprint(&s), schema_fingerprint(&other));
    }

    #[test]
    fn mixed_and_all_null_columns_roundtrip() {
        let s = Schema::new(vec![
            ColumnDef::new("a", DataType::Varchar(20)),
            ColumnDef::new("b", DataType::Integer),
        ])
        .unwrap();
        // Heterogeneous column (result sets can mix variants) and an
        // all-null column.
        let rows: Vec<Row> = vec![
            vec![Value::Varchar(String::new()), Value::Null],
            vec![Value::BigInt(-9_000_000_000), Value::Null],
            vec![Value::Timestamp(1_458_048_330_000_250), Value::Null],
            vec![Value::Null, Value::Null],
            vec![Value::Boolean(false), Value::Null],
            vec![Value::Double(-0.0), Value::Null],
            vec![Value::Decimal(Decimal::new(i128::from(i64::MIN) * 7, 31)), Value::Null],
            vec![Value::SmallInt(-32768), Value::Null],
        ];
        let frame = encode_frame(&s, &rows);
        let back = decode_frame(&frame).unwrap().rows;
        for (a, b) in rows.iter().zip(&back) {
            for (x, y) in a.iter().zip(b) {
                assert_eq!(std::mem::discriminant(x), std::mem::discriminant(y));
            }
        }
        // Bit-exact doubles: -0.0 must come back as -0.0.
        match back[5][0] {
            Value::Double(d) => assert!(d == 0.0 && d.is_sign_negative()),
            ref other => panic!("expected DOUBLE, got {other:?}"),
        }
        assert_eq!(back, rows);
    }

    #[test]
    fn logical_size_matches_rows_wire_size() {
        let s = schema();
        let rows = sample_rows(25);
        let batch = crate::Rows::new(s, rows.clone());
        assert_eq!(logical_size(&rows), batch.wire_size());
        assert_eq!(logical_size(&[]), RESULT_FRAME);
    }

    #[test]
    fn extreme_integers_roundtrip() {
        let s = Schema::new(vec![ColumnDef::new("v", DataType::BigInt)]).unwrap();
        let rows: Vec<Row> = [i64::MIN, i64::MAX, 0, -1, 1, i64::MIN + 1]
            .iter()
            .map(|&v| vec![Value::BigInt(v)])
            .collect();
        let frame = encode_frame(&s, &rows);
        assert_eq!(decode_rows(&frame, &s).unwrap(), rows);
    }

    #[test]
    fn key_summary_never_false_negatives() {
        let mut s = KeySummary::with_capacity(200);
        for v in 0..200i64 {
            s.insert_i64(v * 3);
        }
        for v in 0..200i64 {
            assert!(s.contains_i64(v * 3), "inserted key {v} must test present");
        }
        // Min/max makes out-of-range misses exact, not probabilistic.
        assert!(!s.contains_i64(-1));
        assert!(!s.contains_i64(598));
        // Some in-range non-members must miss, or the filter is useless.
        let misses = (0..200i64).filter(|v| !s.contains_i64(v * 3 + 1)).count();
        assert!(misses > 150, "expected most non-members to miss, got {misses}/200");
        // An empty summary matches nothing.
        assert!(!KeySummary::with_capacity(0).contains_i64(0));
    }

    #[test]
    fn hash64_known_properties() {
        // Stability pin: the checksum function must never change silently,
        // or recorded experiment byte counts drift.
        assert_eq!(hash64(b""), hash64(b""));
        assert_ne!(hash64(b"a"), hash64(b"b"));
        assert_ne!(hash64(b"abcd"), hash64(b"abce"));
        let long: Vec<u8> = (0..255u8).collect();
        assert_ne!(hash64(&long), hash64(&long[..254]));
    }
}
