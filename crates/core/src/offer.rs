//! RFB items and offers — the protocol payloads of the trading loop.

use qt_catalog::NodeId;
use qt_cost::AnswerProperties;
use qt_query::{Query, SharedQuery};

/// One entry of a Request-For-Bids: a query the buyer wants valued, with the
/// buyer's current reference value for it (step B1's strategic estimate).
#[derive(Debug, Clone, PartialEq)]
pub struct RfbItem {
    /// The query being requested.
    pub query: Query,
    /// The buyer's reference value (its walk-away reserve derives from it).
    pub ref_value: f64,
}

/// How the offered rows relate to the offered query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OfferKind {
    /// Plain rows of the offer's (SPJ) query.
    Rows,
    /// Pre-aggregated rows: one row per group *within the seller's
    /// fragment*; the buyer must re-aggregate partial groups.
    PartialAggregate,
    /// Rows served from a materialized view (possibly stale, hence the
    /// `freshness` property).
    FromView,
}

/// A seller's offer: "I will deliver the answer of `query` with properties
/// `props`". Offers are the commodity of QT (§3.1).
#[derive(Debug, Clone, PartialEq)]
pub struct Offer {
    /// Unique id within the optimization run.
    pub id: u64,
    /// The offering seller.
    pub seller: NodeId,
    /// The exact (rewritten) query whose answer is promised: one shared
    /// allocation from the seller's DP to the buyer's plan, carrying its
    /// memoised fingerprint (the buyer's value-book key, the brokers' pruning
    /// key and the hints digest of the seller's offer-cache key).
    pub query: SharedQuery,
    /// Asking properties (after the seller's strategy markup).
    pub props: AnswerProperties,
    /// The seller's true delivery cost in valuation units. Private in a real
    /// federation; carried here to drive auction dynamics and surplus
    /// accounting in the simulation.
    pub true_cost: f64,
    /// What the delivered rows are.
    pub kind: OfferKind,
    /// Which RFB round produced this offer.
    pub round: u32,
    /// Sub-purchases this offer depends on (§3.5 subcontracting): the seller
    /// will buy these fragments from third nodes to assemble its answer.
    /// Empty for ordinary offers.
    pub subcontracts: Vec<(NodeId, SharedQuery)>,
}

impl Offer {
    /// Does this offer promise `query` as `kind` — i.e. does it compete for
    /// the same purchase? Memoised fingerprints settle almost every "no"
    /// before the queries themselves are compared.
    pub fn promises(&self, query: &SharedQuery, kind: OfferKind) -> bool {
        self.kind == kind && self.query.fingerprint() == query.fingerprint() && self.query == *query
    }
}
