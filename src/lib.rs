//! # idaa — Extending Database Accelerators for Data Transformations and Predictive Analytics
//!
//! A from-scratch Rust reproduction of the EDBT 2016 paper by Stolze,
//! Beier and Martin (IBM): a DB2-for-z/OS-style OLTP host federated with a
//! Netezza-style columnar MPP accelerator, extended with the paper's three
//! contributions —
//!
//! 1. **Accelerator-only tables (AOTs)**: `CREATE TABLE … IN ACCELERATOR`
//!    creates a table whose data lives solely on the accelerator (DB2
//!    keeps a catalog proxy), so multi-staged ELT / data-mining pipelines
//!    transform data *in place* instead of materializing every stage back
//!    in DB2.
//! 2. **Direct data ingestion** (the IDAA Loader): bulk loads from
//!    external sources into DB2 tables *or* straight into AOTs.
//! 3. **A governed in-database analytics framework**: mining algorithms
//!    run on the accelerator while DB2 keeps making every authorization
//!    decision.
//!
//! ## Quickstart
//!
//! ```
//! use idaa::{Idaa, Route};
//!
//! let idaa = Idaa::default();
//! let mut session = idaa.session("SYSADM");
//!
//! idaa.execute(&mut session, "CREATE TABLE SALES (ID INT NOT NULL, AMOUNT DOUBLE)").unwrap();
//! idaa.execute(&mut session, "INSERT INTO SALES VALUES (1, 10.5E0), (2, 20.0E0)").unwrap();
//!
//! // Stage data on the accelerator without ever materializing in DB2:
//! idaa.execute(&mut session, "CREATE TABLE STAGE (TOTAL DOUBLE) IN ACCELERATOR").unwrap();
//! let out = idaa
//!     .execute(&mut session, "INSERT INTO STAGE SELECT SUM(AMOUNT) FROM SALES")
//!     .unwrap();
//! assert_eq!(out.count(), 1);
//!
//! let rows = idaa.query(&mut session, "SELECT TOTAL FROM STAGE").unwrap();
//! assert_eq!(rows.scalar().unwrap().render(), "30.5");
//! ```
//!
//! The facade re-exports the public APIs of every subsystem crate; see
//! `DESIGN.md` for the architecture and `EXPERIMENTS.md` for the
//! experiment suite.

pub use idaa_accel as accel;
pub use idaa_analytics as analytics;
pub use idaa_common as common;
pub use idaa_core as core;
pub use idaa_host as host;
pub use idaa_loader as loader;
pub use idaa_netsim as netsim;
pub use idaa_sql as sql;

pub use idaa_accel::{AccelConfig, AccelEngine};
pub use idaa_common::{
    DataType, Decimal, Error, MetricsRegistry, MetricsSnapshot, ObjectName, Result, Row, Rows,
    Schema, SpanNode, StatementTrace, Trace, TraceSink, Value,
};
pub use idaa_core::{
    shard_of, shard_table, Completion, ExecOutcome, FleetConfig, HealthState, Idaa, IdaaConfig,
    Payload, Priority, QueueInfo, Route, SeatId, Server, ServerConfig, Session, StatementId,
};
pub use idaa_host::{HostEngine, SYSADM};
pub use idaa_netsim::{
    sites, Direction, FaultRegistry, LinkConfig, LinkError, LinkMetrics, NetLink, RetryPolicy,
    SitePlan,
};
