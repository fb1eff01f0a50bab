//! Generic trading-negotiation framework (§2 of the paper).
//!
//! A trading framework has two orthogonal pieces per party:
//!
//! * a **negotiation protocol** — the rules of the exchange (bidding,
//!   bargaining, auctions) deciding who wins and at what value;
//! * a **strategy module** — the party's private policy choosing what to
//!   offer/ask given its true valuation and what it knows about the others.
//!
//! QT reuses this machinery unchanged for the *nested* winner-selection
//! negotiation of each iteration (steps B3/S3); what QT changes is only that
//! the negotiated item set differs per iteration. The negotiation machinery
//! itself knows nothing about queries — it trades abstract items whose
//! buyer-side scores and seller-side costs are already known. The one
//! query-aware piece here is [`semcache`], the federation-wide semantic
//! cache both trading layers share (it lives here so seller and serving
//! integrations reuse one index structure).

pub mod contract;
pub mod offer;
pub mod protocol;
pub mod semcache;
pub mod strategy;

pub use contract::ContractState;
pub use offer::{Bid, NegotiationOutcome};
pub use protocol::{ProtocolKind, SessionId, MAX_ENGLISH_ROUNDS};
/// The workspace codec's trait, re-exported from [`qt_catalog::wire`].
pub use qt_catalog::wire::Wire;
pub use semcache::{CacheStats, Probe, ProbeOutcome, SemCache, SemEntry};
pub use strategy::{BuyerValueBook, SellerStrategy};
