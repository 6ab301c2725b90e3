//! # idaa-common
//!
//! Shared foundation types for the `idaa-rs` workspace: SQL values, data
//! types, schemas, rows, identifiers and the workspace-wide error type.
//!
//! Everything in this crate is deliberately engine-agnostic: both the
//! DB2-style host engine (`idaa-host`) and the Netezza-style accelerator
//! engine (`idaa-accel`) speak in terms of these types, which is what makes
//! shipping rows across the federation boundary (and metering the bytes that
//! cross it) straightforward.

pub mod decimal;
pub mod error;
pub mod ident;
pub mod metrics;
pub mod row;
pub mod schema;
pub mod trace;
pub mod types;
pub mod value;
pub mod wire;

pub use decimal::Decimal;
pub use error::{Error, Result};
pub use ident::ObjectName;
pub use metrics::{Counter, MetricsRegistry, MetricsSnapshot};
pub use row::{Row, Rows};
pub use schema::{ColumnDef, Schema};
pub use trace::{SpanId, SpanNode, StatementTrace, Trace, TraceSink};
pub use types::DataType;
pub use value::Value;
