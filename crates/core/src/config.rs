//! Configuration of a QT optimization run.

use qt_cost::{CostParams, NetLink, Valuation};
use qt_optimizer::JoinEnumerator;
use qt_trade::{ProtocolKind, SellerStrategy};

/// Tunables of the QT algorithm and its surrounding simulation.
#[derive(Debug, Clone)]
pub struct QtConfig {
    /// Maximum trading iterations before the buyer settles (the algorithm
    /// usually converges earlier; see experiment E6).
    pub max_iterations: u32,
    /// Maximum size of k-way partial join results sellers include in offers
    /// (§3.4 modified DP). Ablated in E12.
    pub max_partial_k: usize,
    /// Nested winner-selection protocol (B3/S3). Compared in E7.
    pub protocol: ProtocolKind,
    /// The buyer's offer-ranking valuation (§3.1).
    pub valuation: Valuation,
    /// Default seller strategy (cooperative truthful vs. competitive markup;
    /// individual sellers may override). Compared in E8.
    pub seller_strategy: SellerStrategy,
    /// Join enumerator used by seller-local optimizers.
    pub enumerator: JoinEnumerator,
    /// Enable the buyer predicates analyser (B5/B6). Ablated in E11; with it
    /// off, QT degenerates to one-shot Contract-Net bidding.
    pub enable_buyer_analyser: bool,
    /// Let sellers offer *partial aggregates* (pre-aggregated fragments à la
    /// the Corfu/Myconos SUMs of the motivating example).
    pub enable_partial_agg: bool,
    /// Let sellers answer from materialized views (§3.5).
    pub enable_views: bool,
    /// Let sellers subcontract missing fragments from third nodes (§3.5's
    /// deferred extension; evaluated in E10). Off by default, as in the
    /// paper.
    pub enable_subcontracting: bool,
    /// Cap on new queries the buyer predicates analyser may add to the
    /// working set per iteration (keeps RFBs bounded on fragmented data).
    pub max_new_queries_per_round: usize,
    /// RFB response deadline of a networked run: the buyer closes a round
    /// after this many seconds even if some sellers never answered
    /// (autonomous nodes are free to ignore RFBs).
    pub seller_timeout: f64,
    /// RFB retransmissions of a networked run: when the response deadline
    /// fires with sellers still unheard-from, the buyer re-sends the RFB to
    /// just those sellers up to this many times before degrading the round
    /// to the offers that arrived. Sellers dedup retransmissions by request
    /// id, so retries are idempotent.
    pub max_rfb_retries: u32,
    /// Backoff multiplier between RFB retransmissions: retry `n` waits
    /// `seller_timeout * rfb_retry_backoff^n`, capped at 8× the base
    /// timeout.
    pub rfb_retry_backoff: f64,
    /// Simulated seconds charged per sub-plan an optimizer enumerates
    /// (drives the optimization-time figures deterministically).
    pub per_subplan_seconds: f64,
    /// Simulated seconds the buyer spends per offer considered during plan
    /// generation.
    pub per_offer_seconds: f64,
    /// Link model between any two distinct nodes.
    pub link: NetLink,
    /// Shared operator cost constants.
    pub cost_params: CostParams,
    /// Approximate bytes of one serialized query in protocol messages.
    pub query_msg_bytes: f64,
    /// Approximate bytes of one serialized offer in protocol messages.
    pub offer_msg_bytes: f64,
    /// Run the full contract lifecycle after trading converges: two-phase
    /// awards (ack/decline with retransmission), execution leases renewed by
    /// heartbeat, and deterministic failover to runner-up offers or scoped
    /// re-trades when a winner is lost. Off by default — with it off, awards
    /// stay the pre-lifecycle one-way notices and every run is bit-identical
    /// to earlier releases.
    pub enable_contracts: bool,
    /// Seconds the buyer waits for an `AwardAck` before retransmitting the
    /// award (capped exponential backoff, like RFB retries).
    pub award_timeout: f64,
    /// Award retransmissions before the winner is declared lost and the
    /// contract fails over.
    pub max_award_retries: u32,
    /// Seconds between lease heartbeats the buyer sends to an awarded
    /// seller. Heartbeats are zero-byte control traffic (counted in
    /// `lease_events`, not `messages`) but ride the faultable network, so a
    /// crashed or partitioned winner stops renewing.
    pub lease_interval: f64,
    /// Consecutive missed lease renewals before the lease expires and the
    /// contract fails over.
    pub max_lease_misses: u32,
    /// Successful lease renewals after which the contract is considered
    /// firmly held and completes (bounds the lifecycle phase in virtual
    /// time).
    pub lease_probes: u32,
    /// Scoped re-trade rounds (mini QT rounds restricted to the lost
    /// subqueries) the buyer may run per optimization when the bid book has
    /// no runner-up left, before abandoning the slot.
    pub max_retrade_rounds: u32,
    /// Fan seller offer generation out across OS threads: the direct driver
    /// evaluates sellers concurrently and each seller evaluates its RFB items
    /// concurrently. Deterministic — results merge in input order, so plans,
    /// costs, and offer ids are bit-identical to a serial run. The worker
    /// budget follows `QT_THREADS` / the host core count (see `qt-par`).
    pub parallel: bool,
    /// Let seller offer caches answer RFBs *semantically*: an exact-key miss
    /// falls back to the §3.5 view matcher over cached replies, so offers
    /// priced for a subsuming query `Q'` are re-issued (suitably rewritten)
    /// for any `Q ⊑ Q'` at zero offer-construction effort. Off by default —
    /// with it off the cache is the PR-1 exact-fingerprint cache and every
    /// run is bit-identical to earlier releases.
    pub enable_semantic_cache: bool,
    /// Max entries per seller offer cache (`0` = unbounded, the PR-1
    /// behaviour). When bounded, admission/eviction is weighted by the
    /// offer-construction effort each entry saves per hit.
    pub offer_cache_entries: usize,
}

impl Default for QtConfig {
    fn default() -> Self {
        QtConfig {
            max_iterations: 8,
            max_partial_k: 2,
            protocol: ProtocolKind::SealedBid,
            valuation: Valuation::response_time(),
            seller_strategy: SellerStrategy::Truthful,
            enumerator: JoinEnumerator::Exhaustive,
            enable_buyer_analyser: true,
            enable_partial_agg: true,
            enable_views: true,
            enable_subcontracting: false,
            max_new_queries_per_round: 16,
            seller_timeout: 30.0,
            max_rfb_retries: 2,
            rfb_retry_backoff: 2.0,
            per_subplan_seconds: 2e-5,
            per_offer_seconds: 1e-5,
            link: NetLink::wan(),
            cost_params: CostParams::reference(),
            query_msg_bytes: 256.0,
            offer_msg_bytes: 128.0,
            enable_contracts: false,
            award_timeout: 10.0,
            max_award_retries: 2,
            lease_interval: 15.0,
            max_lease_misses: 2,
            lease_probes: 2,
            max_retrade_rounds: 2,
            parallel: true,
            enable_semantic_cache: false,
            offer_cache_entries: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = QtConfig::default();
        assert!(c.max_iterations >= 1);
        assert!(c.max_partial_k >= 1);
        assert!(c.enable_buyer_analyser);
        assert_eq!(c.protocol, ProtocolKind::SealedBid);
    }

    #[test]
    fn contracts_default_off_with_bounded_lifecycle() {
        let c = QtConfig::default();
        assert!(!c.enable_contracts, "lifecycle must be opt-in");
        assert!(c.award_timeout > 0.0);
        assert!(c.lease_interval > 0.0);
        assert!(c.lease_probes >= 1, "the lease phase must terminate");
        assert!(c.max_retrade_rounds >= 1);
    }

    #[test]
    fn semantic_cache_defaults_off_and_unbounded() {
        let c = QtConfig::default();
        assert!(!c.enable_semantic_cache, "subsumption hits must be opt-in");
        assert_eq!(c.offer_cache_entries, 0, "PR-1 cache was unbounded");
    }

    #[test]
    fn discovery_defaults_off() {
        let c = crate::session::ServeConfig::default();
        assert!(c.hierarchy.is_none(), "scoped routing must be opt-in");
    }
}
