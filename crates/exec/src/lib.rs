//! Physical plans, the executors that run them, and the data they read.
//!
//! QT never *executes* anything during optimization ("no query or part of it
//! is physically executed during the whole optimization procedure", §3.1) —
//! but a reproduction needs to demonstrate that the plans the optimizer
//! produces actually compute the right answers. This crate provides:
//!
//! * [`plan`] — the physical operator tree ([`PhysPlan`]): scans, filters,
//!   projections, hash/merge/nested-loop joins, unions, sorts, hash
//!   aggregation, and [`PhysPlan::Input`] slots for pre-materialized
//!   (purchased) tables;
//! * [`columnar`] — the vectorized executor every answer runs on, over
//!   typed column batches ([`ColBatch`]), spilling to disk under a memory
//!   budget;
//! * [`datastore`] — one node's partitions, held once as column batches
//!   ([`DataStore`]); both executors and the evaluator read them;
//! * [`exec`] — a straightforward materializing row executor, the columnar
//!   executor's oracle, which reads partitions transposed into rows;
//! * [`mod@reference`] — a brute-force evaluator of [`qt_query::Query`]
//!   semantics used to cross-check every plan the optimizers emit;
//! * [`trace`] — per-operator row counts and timings;
//! * [`arena`] — plan nodes in one flat arena, for the local optimizer's
//!   join enumeration.

pub mod arena;
pub mod columnar;
pub mod datastore;
pub mod error;
pub mod exec;
pub mod plan;
pub mod reference;
mod spill;
pub mod trace;

pub use arena::{ArenaPlan, PlanArena, PlanId};
pub use columnar::{
    batches_to_rows, execute_columnar_batches, execute_columnar_with_stats, lower, rows_to_batches,
    ColBatch, ColExecStats, ColOp, Column, ColumnarConfig, DEFAULT_BATCH_ROWS,
};
pub use datastore::DataStore;
pub use error::ExecError;
pub use exec::execute;
pub use plan::{AggSpec, PhysPlan};
pub use reference::evaluate_query;
pub use trace::{execute_traced, OpTiming, OpTrace};

/// A row of values.
pub type Row = Vec<qt_catalog::Value>;
/// A materialized table.
pub type Table = Vec<Row>;
