//! # idaa-sql
//!
//! Lexer, AST, and recursive-descent parser for the DB2-dialect subset the
//! reproduction supports — including the paper's DDL extension
//! `CREATE TABLE … IN ACCELERATOR`, the `CURRENT QUERY ACCELERATION`
//! special register, `CALL` for (analytics) stored procedures, and
//! `GRANT`/`REVOKE` for the governance experiments — plus what every engine
//! runs a query with: the logical [`plan`], expression [`eval`]uation, and
//! the row operators and row executor of [`exec`].
//!
//! All AST nodes implement `Display`, producing SQL that re-parses to the
//! same AST (verified by property tests), which the federation layer uses
//! to ship statements to the accelerator as text.

pub mod ast;
pub mod eval;
pub mod exec;
pub mod lexer;
pub mod params;
pub mod parser;
pub mod plan;

pub use ast::*;
pub use parser::{parse_statement, parse_statements};
