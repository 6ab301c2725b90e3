//! # idaa-core
//!
//! The paper's contribution: the federation layer that turns a DB2-style
//! host (`idaa-host`) and a Netezza-style accelerator (`idaa-accel`) into
//! one transparent system —
//!
//! * **query routing** honoring `CURRENT QUERY ACCELERATION` and the
//!   accelerator-only-table rules ([`router`]),
//! * **accelerator-only tables** created with `CREATE TABLE … IN
//!   ACCELERATOR`, populated and transformed entirely on the accelerator,
//! * **transaction awareness**: the accelerator enrolls in DB2 transactions
//!   and a two-phase commit keeps both sides atomic ([`Idaa::execute`]),
//! * **incremental replication** for regular accelerated tables
//!   ([`replication`]),
//! * **governed stored procedures** for system management and in-database
//!   analytics deployment ([`procedures`]).
//!
//! The accelerator side is a fleet of one or more nodes behind one code
//! path ([`fleet`]); [`idaa`] is the facade, and the statement lifecycle
//! behind it is split into `dispatch` (governance → route → execute),
//! `transfer` (link messages and the idempotent statement exchange), `txn`
//! (enlistment, two-phase commit, rollback) and `recovery` (readiness,
//! restart, rebuild, catch-up, scrub).

mod dispatch;
pub mod fleet;
pub mod health;
pub mod idaa;
pub mod procedures;
mod recovery;
pub mod replication;
pub mod router;
pub mod server;
pub mod session;
mod transfer;
mod txn;

pub use fleet::{shard_of, shard_table, AccelNode, FleetConfig};
pub use health::{Delivery, HealthMonitor, HealthState, SeqTracker};
pub use idaa::{ExecOutcome, Faults, Idaa, IdaaConfig, Payload, QueueInfo};
pub use procedures::{message_result, Procedure};
pub use router::{Route, TableMix};
pub use server::{Completion, Priority, SeatId, Server, ServerConfig, StatementId};
pub use session::Session;
