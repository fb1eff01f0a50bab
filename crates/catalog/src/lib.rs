//! Schemas, horizontal partitions, statistics, and placement.
//!
//! This crate is the bottom layer of the query-trading (QT) stack. It models
//! what the paper's federation of autonomous DBMS nodes *stores*:
//!
//! * [`schema`] — relation schemas (attributes and their types) and the
//!   [`value::Value`] domain.
//! * [`partition`] — horizontal partitioning of a relation
//!   (range / list / hash on one attribute), as in the paper's
//!   `customer` table partitioned by `office`.
//! * [`stats`] — per-partition statistics (row counts, per-column
//!   min/max/NDV) used by the local optimizers for cardinality estimation.
//! * [`placement`] — which node holds replicas of which partition, plus each
//!   node's *local view* ([`placement::NodeHoldings`]). Autonomy is enforced
//!   by construction: QT buyers and sellers only ever see a
//!   `NodeHoldings`, never the global [`Catalog`]. Only the *baseline*
//!   optimizers (which model classical, full-knowledge distributed
//!   optimization) are handed the global catalog.
//! * [`fnv`] — [`Fnv1a`], the deterministic hasher behind hash
//!   partitioning here and query fingerprints in `qt-query`.
//! * [`wire`] — the one binary codec ([`wire::Wire`]) behind protocol
//!   messages, calibration snapshots and spill files; each crate above
//!   declares its own types' layouts with [`impl_wire!`].
//!
//! Nothing in this crate knows about queries, costs, or the network; those
//! live in the crates stacked above.

pub mod builder;
pub mod error;
pub mod fnv;
pub mod ident;
pub mod partition;
pub mod placement;
pub mod schema;
pub mod stats;
pub mod value;
pub mod wire;

pub use builder::CatalogBuilder;
pub use error::CatalogError;
pub use fnv::Fnv1a;
pub use ident::{NodeId, PartId, RelId};
pub use partition::{Partitioning, Restriction};
pub use placement::{Catalog, NodeHoldings, Placement, RelationMeta, SchemaDict};
pub use schema::{AttrType, Attribute, RelationSchema};
pub use stats::{ColumnStats, PartitionStats};
pub use value::Value;
