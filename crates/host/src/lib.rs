//! # idaa-host
//!
//! The DB2-for-z/OS stand-in: a row-store engine with slotted-page heaps,
//! B-tree indexes, a table-level lock manager implementing cursor-stability
//! isolation, undo-logged transactions with commit-time change capture
//! (CDC), a catalog that also records accelerator bookkeeping (nickname
//! proxies for accelerator-only tables, acceleration status), a privilege
//! catalog for the paper's governance requirement, and DB2's row source for
//! the one plan walk (`idaa_sql::exec::run`, which the accelerator and the
//! fleet coordinator run too): `EngineSource` answers scans from the heaps
//! and a filtered scan through a B-tree index when one serves.
//!
//! Everything the paper assumes about "DB2" is modeled here; everything
//! about "the accelerator" lives in `idaa-accel`; the federation between
//! them — the paper's actual contribution — is `idaa-core`.

pub mod catalog;
pub mod engine;
pub mod index;
pub mod lock;
pub mod privilege;
pub mod storage;
pub mod txn;

pub use catalog::{AccelStatus, TableId, TableKind, TableMeta};
pub use engine::{HostEngine, SYSADM};
pub use lock::{LockManager, LockMode};
pub use privilege::Granted;
pub use storage::Rid;
pub use txn::{ChangeOp, ChangeRecord, Lsn, TxnId, TxnManager};
