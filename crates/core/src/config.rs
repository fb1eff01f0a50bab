//! Configuration of a QT optimization run, and the protocol and charging
//! constants every run shares.

use qt_cost::{CostParams, Valuation};
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
    /// Let sellers subcontract missing fragments from third nodes (§3.5's
    /// deferred extension; evaluated in E10). Off by default, as in the
    /// paper.
    pub enable_subcontracting: bool,
    /// RFB response deadline of a networked run: the buyer closes a round
    /// after this many seconds even if some sellers never answered
    /// (autonomous nodes are free to ignore RFBs).
    pub seller_timeout: f64,
    /// Shared operator cost constants.
    pub cost_params: CostParams,
    /// Run the full contract lifecycle after trading converges: two-phase
    /// awards (ack/decline with retransmission), execution leases renewed by
    /// heartbeat, and deterministic failover to runner-up offers or scoped
    /// re-trades when a winner is lost. Off by default — with it off, awards
    /// stay the pre-lifecycle one-way notices and every run is bit-identical
    /// to earlier releases.
    pub enable_contracts: bool,
    /// Seconds between lease heartbeats the buyer sends to an awarded
    /// seller. Heartbeats are zero-byte control traffic (counted in
    /// `lease_events`, not `messages`) but ride the faultable network, so a
    /// crashed or partitioned winner stops renewing.
    pub lease_interval: f64,
    /// Read by nothing: sellers answer on the calling thread whatever it
    /// says. The field stays only because the benchmark harness's struct
    /// literals name it; it goes with the next change to that harness.
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
            enable_subcontracting: false,
            seller_timeout: 30.0,
            cost_params: CostParams::reference(),
            enable_contracts: false,
            lease_interval: 15.0,
            parallel: true,
            enable_semantic_cache: false,
            offer_cache_entries: 0,
        }
    }
}

/// Cap on new queries the buyer predicates analyser may add to the working
/// set per iteration (keeps RFBs bounded on fragmented data).
pub(crate) const MAX_NEW_QUERIES_PER_ROUND: usize = 16;

/// RFB retransmissions of a networked run: when the response deadline fires
/// with sellers still unheard-from, the buyer re-sends the RFB to just those
/// sellers up to this many times before degrading the round to the offers
/// that arrived. Sellers dedup retransmissions by request id, so retries are
/// idempotent.
pub(crate) const MAX_RFB_RETRIES: u32 = 2;

/// Backoff multiplier between retransmissions (see [`retry_delay`]).
const RFB_RETRY_BACKOFF: f64 = 2.0;

/// Delay of retransmission `n` after a `base` deadline:
/// `base * RFB_RETRY_BACKOFF^n`, capped at 8× the base. Every retry of the
/// protocol (RFBs at the buyer and at brokers, awards, the post-shed
/// re-admission) waits by this rule.
pub(crate) fn retry_delay(base: f64, n: u32) -> f64 {
    (base * RFB_RETRY_BACKOFF.powi(n as i32)).min(8.0 * base)
}

/// Simulated seconds charged per sub-plan an optimizer enumerates (drives
/// the optimization-time figures deterministically).
pub const PER_SUBPLAN_SECONDS: f64 = 2e-5;

/// Simulated seconds the buyer spends per offer considered during plan
/// generation.
pub const PER_OFFER_SECONDS: f64 = 1e-5;

/// Approximate bytes of one serialized query in protocol messages.
pub const QUERY_MSG_BYTES: f64 = 256.0;

/// Approximate bytes of one serialized offer in protocol messages.
pub(crate) const OFFER_MSG_BYTES: f64 = 128.0;

/// Seconds the buyer waits for an `AwardAck` before retransmitting the award
/// (capped exponential backoff, like RFB retries).
pub(crate) const AWARD_TIMEOUT: f64 = 10.0;

/// Award retransmissions before the winner is declared lost and the contract
/// fails over.
pub(crate) const MAX_AWARD_RETRIES: u32 = 2;

/// Consecutive missed lease renewals before the lease expires and the
/// contract (or a standby broker's primary) fails over.
pub const MAX_LEASE_MISSES: u32 = 2;

/// Successful lease renewals after which the contract is considered firmly
/// held and completes (bounds the lifecycle phase in virtual time).
pub(crate) const LEASE_PROBES: u32 = 2;

/// Scoped re-trade rounds (mini QT rounds restricted to the lost subqueries)
/// the buyer may run per optimization when the bid book has no runner-up
/// left, before abandoning the slot.
pub(crate) const MAX_RETRADE_ROUNDS: u32 = 2;

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
        const {
            assert!(MAX_NEW_QUERIES_PER_ROUND >= 1);
            assert!(PER_SUBPLAN_SECONDS > 0.0 && PER_OFFER_SECONDS > 0.0);
            assert!(QUERY_MSG_BYTES > 0.0 && OFFER_MSG_BYTES > 0.0);
        }
    }

    #[test]
    fn contracts_default_off_with_bounded_lifecycle() {
        let c = QtConfig::default();
        assert!(!c.enable_contracts, "lifecycle must be opt-in");
        assert!(c.lease_interval > 0.0);
        const {
            assert!(AWARD_TIMEOUT > 0.0);
            assert!(LEASE_PROBES >= 1, "the lease phase must terminate");
            assert!(MAX_RETRADE_ROUNDS >= 1);
        }
    }

    #[test]
    fn retry_delay_doubles_up_to_eight_times_the_base() {
        let schedule: Vec<f64> = (1..=4).map(|n| retry_delay(3.0, n)).collect();
        assert_eq!(schedule, [6.0, 12.0, 24.0, 24.0]);
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
