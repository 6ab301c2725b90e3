//! # idaa-accel
//!
//! The Netezza-technology stand-in: a columnar MPP engine with
//! hash-distributed data slices, per-block zone maps, MVCC snapshot
//! isolation that enrolls in *host* transactions (the paper's AOT
//! transaction-awareness requirement), vectorized slice-parallel scans,
//! and `GROOM`-style space reclamation.
//!
//! The accelerator never makes authorization decisions and has no SQL
//! entry point of its own in the architecture — `idaa-core` ships it
//! statements over the metered link after DB2-side governance checks.

pub mod column;
pub mod durable;
pub mod engine;
pub mod exec;
pub mod mvcc;
mod partial;
mod pipeline;
pub mod table;

pub use durable::{Checkpoint, DurableStore, LogRecord, Lsn};
pub use engine::{AccelConfig, AccelEngine, AccelStats, RestartStats};
pub use exec::ExecMode;
pub use partial::{cuts, Cut, Merge};
pub use mvcc::{CommitSeq, Snapshot, TxnRegistry, TxnStatus, Visibility};
pub use table::{AccelTable, RowPos, BLOCK_ROWS};
