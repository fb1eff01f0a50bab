//! Query algebra for the query-trading optimizer.
//!
//! The unit of trade in QT is a *query* — a select-project-join block with
//! optional aggregation, whose `FROM` extents may be restricted to explicit
//! subsets of each relation's horizontal partitions. This crate provides:
//!
//! * [`query`] — the [`Query`] type itself, its invariants, canonical form,
//!   and SQL rendering;
//! * [`predicate`] — column references, comparison predicates, and the small
//!   amount of predicate calculus (implication, simplification) the analysers
//!   need;
//! * [`partset`] — compact partition-subset bitsets, the representation of
//!   "the part of the data the seller actually has" (§3.4);
//! * [`shared`] — [`SharedQuery`], the immutable reference-counted handle
//!   (with a memoised fingerprint) under which an offer's query travels;
//! * [`sql`] — a recursive-descent parser for the SQL subset used in examples
//!   and tests;
//! * [`rewrite`] — the seller-side query-rewriting algorithm of §3.4
//!   (remove non-local relations, restrict extents to local partitions);
//! * [`contain`] — conjunctive-predicate implication used for view matching
//!   and redundancy elimination;
//! * [`views`] — materialized-view definitions and the subset/superset
//!   matching used by the seller predicates analyser (§3.5).
//!
//! Every type here that crosses the wire has its layout declared once, in
//! the private `wire` module, through [`qt_catalog::impl_wire!`].
//!
//! ## Simplifications vs. full SQL
//!
//! Each relation appears at most once per query (no self-joins), predicates
//! are conjunctions of `col op col` / `col op const` comparisons, and
//! aggregates are `COUNT/SUM/AVG/MIN/MAX` over a single column with an
//! optional `GROUP BY`. This covers the paper's entire running workload.

pub mod contain;
pub mod partset;
pub mod predicate;
pub mod query;
pub mod rewrite;
pub mod shared;
pub mod sql;
pub mod views;
mod wire;

pub use contain::{implies, implies_all};
pub use partset::PartSet;
pub use predicate::{Col, CompOp, Operand, Predicate};
pub use query::{AggFunc, Query, QueryError, SelectItem};
pub use rewrite::rewrite_for_holdings;
pub use shared::SharedQuery;
pub use sql::{parse_query, ParseError};
pub use views::{MaterializedView, ViewMatch};
