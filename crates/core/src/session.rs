//! The networked buyer and its runners: many queries trading concurrently
//! over one federation.
//!
//! [`SessionManager`] is the only buyer that speaks over a network. It
//! multiplexes M negotiations — each a [`SessionId`]-tagged buyer engine —
//! over the same sellers, on the discrete-event simulator
//! ([`run_qt_serve`], [`run_qt_serve_with_faults`]) or the real transport
//! ([`run_qt_serve_real`], [`run_qt_serve_real_with_faults`]). A
//! single-query trade is the M = 1 case: one arrival at t = 0, read off its
//! [`SessionReport`] and the run's [`ServeOutcome`].
//!
//! * **Sessions** arrive on a clock (see `qt_workload`'s arrival generator),
//!   queue behind an admission limit (`concurrency`), and run the ordinary
//!   QT loop to completion, after which the next queued arrival is admitted.
//! * **Batching**: all RFB items destined for the same seller in the same
//!   scheduling instant coalesce into one [`ServeMsg::Rfb`] message (one
//!   entry per session), and the seller answers the whole batch with one
//!   [`SellerEngine::respond_batch`] pass — the reply path every seller
//!   call goes through, here with one request per session: one evaluation
//!   pass, one reply message — sharing its offer cache across
//!   sessions while offer ids and hints stay session-isolated.
//! * **Fan-out**: a session round is a `discovery::Gather` over the buyer's
//!   `discovery::Region` — the round every [`BrokerNode`] runs one tier
//!   down, with the same digest scoping, reply acceptance, laggard retries,
//!   region swap on a standby promotion and `(seller, offer id)` merge. The
//!   buyer's own policy: retries ride the staged batches, a region still
//!   silent after them is routed around through its sellers (failover on),
//!   and a round that stays incomplete closes degraded.
//! * **Determinism**: every simulator event is ordered by `(virtual time,
//!   arrival seq)`; batched entries are sorted by session id; sellers are
//!   iterated in ascending `NodeId`; and all per-session state (engines,
//!   offer-id counters, reply memos) is keyed by session. A session's
//!   observable results — plan, cost bits, offer ids — are therefore a pure
//!   function of its own query, independent of what else is in flight.
//!   `crates/core/tests/serve.rs` holds the proptest.

pub use crate::broker::BrokerNode;
use crate::buyer::{remote_awards, BuyerEngine, IterationStats, RoundOutcome};
use crate::compensate::compensate_plan;
use crate::config::{
    retry_delay, QtConfig, MAX_RFB_RETRIES, OFFER_MSG_BYTES, PER_OFFER_SECONDS, PER_SUBPLAN_SECONDS,
};
use crate::contract::{
    is_repair_round, ContractAction, ContractController, ContractReport, ContractStats,
    LEGACY_CONTRACT,
};
use crate::discovery::{Gather, Region, Swap};
use crate::dist_plan::DistributedPlan;
use crate::offer::{Offer, RfbItem};
use crate::seller::{session_req, SellerEngine, SessionRfb};
use qt_catalog::{NodeId, RelId, SchemaDict};
use qt_cost::NetLink;
use qt_net::{Ctx, FaultPlan, Handler, Simulator, Topology};
use qt_query::Query;
use qt_trade::semcache::{Probe, ProbeOutcome, SemCache};
use qt_trade::SessionId;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::{Arc, Mutex};

/// A result cache shared across serving sessions (and, via the `Arc`,
/// across serving *runs* over the same federation). Holds finished
/// [`DistributedPlan`]s keyed by query fingerprint; semantic probes answer
/// subsumed queries with a compensated copy of a cached plan (see
/// [`crate::compensate`]).
///
/// Invalidation hooks: the cache never observes the federation directly, so
/// whoever mutates shared state must tell it —
///
/// * **catalog/statistics drift or resource/view mutation**: call
///   [`SemCache::invalidate_rels`] with the mutated relations (or
///   [`SemCache::clear`] for a federation-wide change);
/// * **strategy-moving awards**: the serving loop does this itself — every
///   finished session whose award moves adaptive seller asks invalidates
///   the entries intersecting the traded relations before inserting its own
///   plan.
pub type SharedResultCache = Arc<Mutex<SemCache<DistributedPlan>>>;

/// A fresh, empty [`SharedResultCache`] (`capacity` 0 = unbounded).
pub fn new_result_cache(capacity: usize) -> SharedResultCache {
    Arc::new(Mutex::new(SemCache::new(capacity)))
}

/// Knobs of the serving layer (the trading loop itself is [`QtConfig`]).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Maximum sessions trading at once; arrivals beyond it queue FIFO.
    pub concurrency: usize,
    /// Coalesce same-instant RFBs per seller into one message (the default).
    /// `false` sends one message per session — the baseline the batching
    /// experiments compare against.
    pub batch_rfbs: bool,
    /// Cross-session result cache: admitted queries answered by a cached
    /// (possibly compensated) plan complete instantly with zero trading
    /// traffic. `None` (the default) disables result caching entirely and
    /// keeps every run bit-identical to earlier releases.
    pub result_cache: Option<SharedResultCache>,
    /// Broker/aggregator hierarchy (see [`crate::discovery`]): `Some` routes
    /// RFBs through a seller-discovery broker tree instead of broadcasting
    /// to every seller. `None` (the default) is the flat federation,
    /// bit-identical to earlier releases.
    pub hierarchy: Option<HierarchyConfig>,
    /// Calibrated-cost snapshot (see [`crate::calib`]): when set, the serving
    /// runners load fitted [`qt_cost::CostParams`] from this path before the
    /// first RFB and every engine — buyer and sellers — prices with them. A
    /// missing or unreadable snapshot silently keeps the configured params.
    pub calibration_path: Option<std::path::PathBuf>,
    /// Per-session priorities, indexed by arrival order (higher = more
    /// important; sessions beyond the vector get priority 0). Brokers under
    /// `max_broker_inflight` shed the lowest-priority session first instead
    /// of the newest. Empty (the default) gives every session priority 0,
    /// which reproduces the pre-priority newest-first shedding bit-for-bit.
    pub priorities: Vec<u8>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            concurrency: 1,
            batch_rfbs: true,
            result_cache: None,
            hierarchy: None,
            calibration_path: None,
            priorities: Vec::new(),
        }
    }
}

/// Shape and policies of the broker tier.
#[derive(Debug, Clone)]
pub struct HierarchyConfig {
    /// Maximum children per broker (and per buyer). Sellers are grouped
    /// under level-1 brokers, brokers under level-2 brokers, … until one
    /// level fits the fanout. With `sellers <= fanout` no brokers are built
    /// and the buyer scopes RFBs straight to seller digests.
    pub fanout: usize,
    /// Admission control: distinct sessions a broker forwards concurrently.
    /// An RFB for a session beyond the bound is answered with an explicit
    /// [`ServeMsg::Shed`] (the buyer aborts that session, reported with
    /// `plan: None`) rather than silently queued. `0` = unbounded.
    pub max_broker_inflight: usize,
    /// Extra advertisement ticks the runner injects at `(virtual time,
    /// node)` — elastic membership: a node crashed at t=0 joins the
    /// federation when its first post-recovery advertisement lands, and a
    /// seller whose catalog drifted re-advertises here.
    pub advertise_at: Vec<(f64, NodeId)>,
    /// Regional broker failover: every broker gets a standby replica that
    /// shadows the region's advertisements, probes its primary with
    /// zero-byte leases ([`QtConfig::lease_interval`],
    /// [`MAX_LEASE_MISSES`](crate::config::MAX_LEASE_MISSES)), and promotes
    /// itself when the primary goes silent — re-advertising the region
    /// digest upward and re-scoping in-flight RFBs so aggregation stays
    /// lossless. `false` (the default) builds no standbys and keeps runs
    /// bit-identical to earlier releases.
    pub failover: bool,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig {
            fanout: 8,
            max_broker_inflight: 0,
            advertise_at: Vec::new(),
            failover: false,
        }
    }
}

/// Protocol messages of the serving layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeMsg {
    /// A query arrives at the buyer node (injected by the runner; a local
    /// event, excluded from protocol message counts).
    Arrive {
        /// The session being opened.
        session: SessionId,
    },
    /// A batched RFB: one entry per session with items for this seller.
    Rfb {
        /// Per-session request slices, ascending session id.
        entries: Vec<SessionRfb>,
    },
    /// A seller's replies to a batched RFB, one per entry, in entry order.
    Offers {
        /// `(session, round, offers)` per answered entry.
        replies: Vec<(SessionId, u32, Vec<Offer>)>,
    },
    /// Zero-delay self-timer draining the staged outbound batches.
    Flush,
    /// Per-session RFB response deadline.
    Timeout {
        /// The session whose round the timer guards.
        session: SessionId,
        /// The round it was armed for.
        round: u32,
    },
    /// Award notice to a winning seller. With the lifecycle off the contract
    /// id is [`LEGACY_CONTRACT`]: the seller records the win and drops the
    /// session's memos, sending nothing back (the pre-lifecycle one-way
    /// notice). Otherwise the seller answers with ack/decline and holds an
    /// execution lease until released.
    Award {
        /// The finished session.
        session: SessionId,
        /// Contract id (or [`LEGACY_CONTRACT`]).
        contract: u64,
        /// The awarded offer id.
        offer: u64,
    },
    /// Seller → buyer: award accepted, lease begins.
    AwardAck {
        /// The owning session.
        session: SessionId,
        /// Contract id.
        contract: u64,
    },
    /// Seller → buyer: award refused; the buyer fails the slot over.
    AwardDecline {
        /// The owning session.
        session: SessionId,
        /// Contract id.
        contract: u64,
    },
    /// Buyer → seller: zero-byte lease heartbeat.
    Lease {
        /// The owning session.
        session: SessionId,
        /// Contract id.
        contract: u64,
    },
    /// Seller → buyer: lease renewed (zero-byte).
    LeaseAck {
        /// The owning session.
        session: SessionId,
        /// Contract id.
        contract: u64,
    },
    /// Buyer → seller: contract completed; release the lease (and, once the
    /// seller holds no more contracts of the session, its memos).
    Release {
        /// The owning session.
        session: SessionId,
        /// Contract id.
        contract: u64,
    },
    /// Buyer-local timer: award-ack deadline.
    AwardTimeout {
        /// The owning session.
        session: SessionId,
        /// Contract id.
        contract: u64,
    },
    /// Buyer-local timer: periodic lease-renewal check.
    LeaseTick {
        /// The owning session.
        session: SessionId,
        /// Contract id.
        contract: u64,
    },
    /// Buyer-local timer: scoped re-trade response deadline.
    RetradeTimeout {
        /// The owning session.
        session: SessionId,
        /// Repair round number.
        round: u32,
    },
    /// Synthetic nested-negotiation traffic (auction rounds, bargaining).
    Negotiate,
    /// Make a seller (re)compute and advertise its relation digest. Injected
    /// by the runner at t=0 and at every `advertise_at` entry (join /
    /// recovery / catalog drift). Local — injections are excluded from
    /// protocol message counts like `Arrive`.
    AdTick,
    /// Digest advertisement, child → parent: `(advertiser, digest, epoch)`
    /// triples. Sellers advertise their own digest; brokers advertise the OR
    /// of their children's. Stale epochs are discarded.
    Advertise {
        /// The advertisements (in practice one — the sender's own).
        ads: Vec<crate::discovery::SellerAd>,
    },
    /// Broker admission control refused a session's round; relayed upward
    /// until the buyer aborts the session (explicit load shedding, never a
    /// silent drop).
    Shed {
        /// The refused session.
        session: SessionId,
        /// The round the refused RFB carried.
        round: u32,
    },
    /// A broker's aggregated answer for one session round: all its
    /// children's offers, plus the seller descendants that never answered
    /// (after broker-side retries).
    AggOffers {
        /// The session being answered.
        session: SessionId,
        /// The round being answered.
        round: u32,
        /// The offers, ascending `(seller, offer id)`.
        offers: Vec<Offer>,
        /// Seller descendants that never answered.
        missing: Vec<NodeId>,
    },
    /// Broker-local timer: child-response deadline for a session round.
    BrokerTimeout {
        /// The session whose round the timer guards.
        session: SessionId,
        /// The round it was armed for.
        round: u32,
    },
    /// Standby → primary: zero-byte broker liveness probe (sent via
    /// [`Ctx::send_lease`], exempt from protocol message totals).
    BrokerLease,
    /// Primary → standby: probe answered (zero-byte lease event).
    BrokerLeaseAck,
    /// Standby-local timer driving the probe cadence (`lease_interval`).
    BrokerLeaseTick,
    /// Promoted standby → region children: re-point your parent from
    /// `failed` to the sender.
    Promote {
        /// The crashed primary being replaced.
        failed: NodeId,
    },
    /// Promoted standby → region parent: swap `failed` for the sender,
    /// adopt the region digest, and re-scope any round still waiting on the
    /// crashed broker.
    RegionUpdate {
        /// The crashed primary being replaced.
        failed: NodeId,
        /// OR of the region's advertised digests, as mirrored on the standby.
        digest: u64,
        /// The standby's advertisement epoch for the digest.
        epoch: u64,
    },
    /// Buyer → broker tier once every session has settled: stop the standby
    /// lease probes so a failover-enabled simulation drains. Forwarded down
    /// broker levels and to each broker's standby.
    Quiesce,
    /// Fault-plane control: the target broker becomes unreachable (drops
    /// everything, answers nothing) until [`ServeMsg::Restart`]. Injected by
    /// the runners from [`FaultPlan::broker_crashes`] on both transports;
    /// injections are excluded from protocol message counts like `Arrive`.
    Crash,
    /// Fault-plane control: the target broker processes traffic again (its
    /// state survived — a crash models an unreachable process, not amnesia).
    Restart,
    /// Buyer-local timer: re-admit a shed session on the flat path after
    /// its capped backoff.
    ShedRetry {
        /// The session to re-admit.
        session: SessionId,
    },
}

/// A federation node in the serving simulator.
pub enum ServeNode {
    /// A pure seller.
    Seller(Box<SellerEngine>),
    /// The buyer node multiplexing every session.
    Buyer(Box<SessionManager>),
    /// A broker/aggregator of the scale-out tier (never buys or sells).
    Broker(Box<BrokerNode>),
}

/// Per-session trading state held by the [`SessionManager`].
struct Session {
    engine: BuyerEngine,
    /// The open round's fan-out, `None` between rounds. Replies wait here
    /// until the round closes and then enter the engine in `(seller, offer
    /// id)` order, so the offer pool does not depend on the order replies
    /// *arrived* in — which shifts with batching and concurrency and would
    /// otherwise leak into cost ties in plan generation.
    gather: Option<Gather>,
    /// `(round, seller)` replies already consumed (duplicate discard).
    seen: BTreeSet<(u32, NodeId)>,
    cur_items: Arc<Vec<RfbItem>>,
    cur_hints: Arc<Vec<Offer>>,
    prev_neg_msgs: u64,
    prev_neg_rts: u64,
    arrived: f64,
    started: f64,
}

/// What one finished session looked like.
#[derive(Debug)]
pub struct SessionReport {
    /// The session.
    pub session: SessionId,
    /// Virtual arrival time.
    pub arrived: f64,
    /// Virtual time admission let it start trading.
    pub started: f64,
    /// Virtual time trading finished.
    pub finished: f64,
    /// Trading iterations executed.
    pub iterations: u32,
    /// The final plan (None = no coverage, or an unrepairable winner loss).
    pub plan: Option<DistributedPlan>,
    /// Contracts re-awarded to runner-up offers (lifecycle only).
    pub reawards: u64,
    /// Scoped re-trade rounds run to refill an exhausted bid book.
    pub rescoped_trades: u64,
    /// Whether any slot of the plan was repaired after a winner loss.
    pub repaired: bool,
    /// Whether the session was shed by broker admission control and
    /// re-admitted on the flat path (its latency includes the backoff).
    pub shed_retried: bool,
    /// Per-round buyer statistics (empty for a result-cache hit).
    pub history: Vec<IterationStats>,
    /// Per-contract final standing (empty with `enable_contracts` off).
    pub contracts: Vec<ContractReport>,
}

impl SessionReport {
    /// End-to-end session latency (queue wait + trading), virtual seconds.
    pub fn latency(&self) -> f64 {
        self.finished - self.arrived
    }
}

/// The buyer node's session multiplexer: admission control, per-session
/// buyer engines, and the per-seller outbound staging area.
pub struct SessionManager {
    node: NodeId,
    dict: Arc<SchemaDict>,
    config: QtConfig,
    serve: ServeConfig,
    remote_sellers: Vec<NodeId>,
    /// The buyer's direct children — top brokers, or every remote seller
    /// when there are none — with their advertised digests and seller
    /// descendants. Advertisement is membership: a child that never
    /// advertised routes nothing.
    region: Region,
    /// RFB deadline multiplier: the broker tree's hop depth (1 = flat), so
    /// deep trees get proportionally longer buyer-side deadlines.
    timeout_scale: f64,
    /// The buyer's own seller side (its local data competes, message-free).
    local_seller: Option<SellerEngine>,
    /// Arrival-order query backlog; taken when a session starts.
    queries: Vec<Option<Query>>,
    arrive_times: Vec<f64>,
    /// Live sessions.
    sessions: BTreeMap<SessionId, Session>,
    /// Admitted-but-not-started arrivals, FIFO.
    waiting: VecDeque<SessionId>,
    /// Outbound RFB entries staged per seller, drained by the next `Flush`.
    stage: BTreeMap<NodeId, Vec<SessionRfb>>,
    flush_pending: bool,
    /// Finished sessions, in completion order.
    pub completed: Vec<SessionReport>,
    /// RFB retransmissions sent.
    pub retries: u64,
    /// Response deadlines that fired while their round was open.
    pub timeouts_fired: u64,
    /// Rounds closed with sellers still missing.
    pub degraded_rounds: u64,
    /// Sellers that never answered their last RFB (any session).
    pub unreachable: BTreeSet<NodeId>,
    /// Per-session contract lifecycles still running (the contract phase
    /// continues in the background after the trading slot is freed).
    lifecycles: BTreeMap<SessionId, ContractController>,
    /// Lifecycle counters aggregated over settled sessions.
    pub contract_stats: ContractStats,
    /// Sessions answered from the shared result cache (exact or semantic).
    pub result_cache_hits: u64,
    /// Sessions that probed the result cache and traded from cold.
    pub result_cache_misses: u64,
    /// Sessions aborted by broker admission control ([`ServeMsg::Shed`]).
    pub shed_sessions: u64,
    /// Shed sessions re-admitted once on the flat path (capped backoff).
    pub shed_retries: u64,
    /// Sessions whose next admission bypasses the broker tier (shed retry).
    flat_retry: BTreeSet<SessionId>,
    /// Sessions that already used their one shed retry.
    shed_retried: BTreeSet<SessionId>,
    /// Rounds that routed around a silent region straight to its sellers.
    pub region_fallbacks: u64,
    /// Silent broker children routed around by asking their seller
    /// descendants directly (the failover last resort), for every session
    /// at once. A child leaves the set when it advertises, answers, or its
    /// region is adopted by a promoted standby — the rule a broker's `down`
    /// set follows.
    detoured: BTreeSet<NodeId>,
    /// Whether the failover quiesce broadcast went out already.
    quiesce_sent: bool,
}

impl Handler<ServeMsg> for ServeNode {
    fn on_message(&mut self, ctx: &mut Ctx<ServeMsg>, from: NodeId, msg: ServeMsg) {
        match (self, msg) {
            (ServeNode::Seller(engine), ServeMsg::Rfb { mut entries }) => {
                if !engine.offline_rounds.is_empty() {
                    // Autonomy: the node simply does not answer rounds it
                    // sits out.
                    entries.retain(|e| !engine.offline_rounds.contains(&e.round));
                    if entries.is_empty() {
                        return;
                    }
                }
                let resps = engine.respond_batch(&entries);
                let effort: u64 = resps.iter().map(|r| r.effort).sum();
                ctx.charge_compute(effort as f64 * PER_SUBPLAN_SECONDS);
                let offers: usize = resps.iter().map(|r| r.offers.len()).sum();
                let bytes = offers as f64 * OFFER_MSG_BYTES;
                let replies: Vec<(SessionId, u32, Vec<Offer>)> = entries
                    .iter()
                    .zip(resps)
                    .map(|(e, r)| (e.session, e.round, r.offers))
                    .collect();
                ctx.send(from, ServeMsg::Offers { replies }, bytes, "offers");
            }
            (
                ServeNode::Seller(engine),
                ServeMsg::Award {
                    session,
                    contract,
                    offer,
                },
            ) => {
                if contract == LEGACY_CONTRACT {
                    // Lifecycle off: one-way notice, exactly the old protocol.
                    // Resolve the invalidation scope from the awarded offer's
                    // reply memo *before* forgetting the session drops it.
                    engine.observe_award_for_offer(true, session, offer);
                    engine.forget_session(session);
                } else {
                    if engine.accept_award(contract) {
                        engine.observe_award_for_offer(true, session, offer);
                    }
                    ctx.send(
                        from,
                        ServeMsg::AwardAck { session, contract },
                        OFFER_MSG_BYTES,
                        "award-ack",
                    );
                }
            }
            (ServeNode::Seller(engine), ServeMsg::Lease { session, contract }) => {
                if engine.has_contract(contract) {
                    ctx.send_lease(from, ServeMsg::LeaseAck { session, contract }, "lease-ack");
                }
            }
            (ServeNode::Seller(engine), ServeMsg::Release { session, contract }) => {
                engine.release_contract(contract);
                if !engine.session_has_contracts(session) {
                    engine.forget_session(session);
                }
            }
            (ServeNode::Seller(engine), ServeMsg::AdTick) => {
                let Some(parent) = engine.advertise_to else {
                    return; // flat federation: never advertises
                };
                engine.ad_epoch += 1;
                let d = crate::discovery::seller_digest(engine);
                let ad = ServeMsg::Advertise {
                    ads: vec![(ctx.node(), d, engine.ad_epoch)],
                };
                ctx.send(parent, ad.clone(), AD_BYTES, "advertise");
                if let Some(cc) = engine.advertise_cc {
                    // Mirror to the region standby so a promoted replica
                    // already knows the membership it inherits.
                    ctx.send(cc, ad, AD_BYTES, "advertise");
                }
            }
            (ServeNode::Seller(engine), ServeMsg::Promote { failed }) => {
                // The region standby took over: report to it from now on.
                if engine.advertise_to == Some(failed) {
                    engine.advertise_to = Some(from);
                    engine.advertise_cc = None; // no standby-of-standby
                }
            }
            (ServeNode::Seller(_), _) => {}
            (ServeNode::Broker(b), msg) => b.on_message(ctx, from, msg),
            (ServeNode::Buyer(m), ServeMsg::Arrive { session }) => {
                m.waiting.push_back(session);
                m.admit(ctx);
            }
            (ServeNode::Buyer(m), ServeMsg::Offers { replies }) => {
                for (session, round, offers) in replies {
                    m.on_offers(ctx, from, session, round, offers);
                }
            }
            (
                ServeNode::Buyer(m),
                ServeMsg::AggOffers {
                    session,
                    round,
                    offers,
                    missing,
                },
            ) => {
                // One broker child's aggregated answer. Sellers it reports
                // missing are accounted unreachable (and un-flagged the
                // moment one of their offers comes back through any round).
                if !missing.is_empty() {
                    m.degraded_rounds += 1;
                    m.unreachable.extend(missing);
                }
                for o in &offers {
                    m.unreachable.remove(&o.seller);
                }
                m.on_offers(ctx, from, session, round, offers);
            }
            (ServeNode::Buyer(m), ServeMsg::Advertise { ads }) => {
                for (origin, digest, epoch) in ads {
                    m.region.record(origin, digest, epoch);
                    // Advertising proves liveness: route through it again.
                    m.detoured.remove(&origin);
                }
            }
            (ServeNode::Buyer(m), ServeMsg::Shed { session, .. }) => m.on_shed(ctx, session),
            (ServeNode::Buyer(m), ServeMsg::Flush) => m.flush(ctx),
            (ServeNode::Buyer(m), ServeMsg::Timeout { session, round }) => {
                m.on_timeout(ctx, session, round)
            }
            (ServeNode::Buyer(m), ServeMsg::AwardAck { session, contract }) => {
                m.ctl_event(ctx, session, |c| c.on_award_ack(contract));
            }
            (ServeNode::Buyer(m), ServeMsg::AwardDecline { session, contract }) => {
                m.ctl_event(ctx, session, |c| c.on_award_decline(contract));
            }
            (ServeNode::Buyer(m), ServeMsg::LeaseAck { session, contract }) => {
                m.ctl_event(ctx, session, |c| c.on_lease_ack(contract));
            }
            (ServeNode::Buyer(m), ServeMsg::AwardTimeout { session, contract }) => {
                m.ctl_event(ctx, session, |c| c.on_award_timeout(contract));
            }
            (ServeNode::Buyer(m), ServeMsg::LeaseTick { session, contract }) => {
                m.ctl_event(ctx, session, |c| c.on_lease_tick(contract));
            }
            (ServeNode::Buyer(m), ServeMsg::RetradeTimeout { session, round }) => {
                m.ctl_event(ctx, session, |c| c.on_retrade_timeout(round));
            }
            (
                ServeNode::Buyer(m),
                ServeMsg::RegionUpdate {
                    failed,
                    digest,
                    epoch,
                },
            ) => m.on_region_update(ctx, from, failed, digest, epoch),
            (ServeNode::Buyer(m), ServeMsg::ShedRetry { session }) => {
                m.waiting.push_back(session);
                m.admit(ctx);
            }
            (ServeNode::Buyer(_), _) => {}
        }
    }
}

impl SessionManager {
    /// The buyer node of a serving run. `arrivals` become sessions in order;
    /// rounds go to `tree`'s root children — every remote seller in flat
    /// serving, otherwise the top brokers (or the sellers themselves when
    /// the federation fits the fanout).
    #[allow(clippy::too_many_arguments)]
    fn new(
        node: NodeId,
        dict: Arc<SchemaDict>,
        config: QtConfig,
        serve: ServeConfig,
        local_seller: Option<SellerEngine>,
        remote_sellers: Vec<NodeId>,
        tree: &crate::discovery::BrokerTree,
        arrivals: Vec<(f64, Query)>,
    ) -> SessionManager {
        let (arrive_times, queries) = arrivals.into_iter().map(|(at, q)| (at, Some(q))).unzip();
        SessionManager {
            node,
            dict,
            config,
            serve,
            remote_sellers,
            region: Region::new(&tree.root_children, tree),
            timeout_scale: tree.depth as f64,
            local_seller,
            queries,
            arrive_times,
            sessions: BTreeMap::new(),
            waiting: VecDeque::new(),
            stage: BTreeMap::new(),
            flush_pending: false,
            completed: Vec::new(),
            retries: 0,
            timeouts_fired: 0,
            degraded_rounds: 0,
            unreachable: BTreeSet::new(),
            lifecycles: BTreeMap::new(),
            contract_stats: ContractStats::default(),
            result_cache_hits: 0,
            result_cache_misses: 0,
            shed_sessions: 0,
            shed_retries: 0,
            flat_retry: BTreeSet::new(),
            shed_retried: BTreeSet::new(),
            region_fallbacks: 0,
            detoured: BTreeSet::new(),
            quiesce_sent: false,
        }
    }

    /// Start queued arrivals while slots are free. Sessions admitted in the
    /// same event stage their opening RFBs into the same flush.
    fn admit(&mut self, ctx: &mut Ctx<ServeMsg>) {
        while self.sessions.len() < self.serve.concurrency {
            let Some(s) = self.waiting.pop_front() else {
                self.maybe_quiesce(ctx);
                return;
            };
            let query = self.queries[s.0 as usize].take().expect("arrival unseen");
            if let Some(plan) = self.try_result_cache(&query) {
                // Served from the shared result cache: an earlier session
                // already traded for these rows and only buyer-local
                // compensation remains — no rounds, no messages, and the
                // trading slot stays free for the next arrival.
                debug_assert!(plan.query == query, "a cached plan answers another query");
                self.complete(SessionReport {
                    session: s,
                    arrived: self.arrive_times[s.0 as usize],
                    started: ctx.now(),
                    finished: ctx.now(),
                    iterations: 0,
                    plan: Some(plan),
                    reawards: 0,
                    rescoped_trades: 0,
                    repaired: false,
                    shed_retried: false,
                    history: Vec::new(),
                    contracts: Vec::new(),
                });
                continue;
            }
            let mut engine =
                BuyerEngine::new(self.node, self.dict.clone(), query, self.config.clone());
            let items = engine.start();
            self.sessions.insert(
                s,
                Session {
                    engine,
                    gather: None,
                    seen: BTreeSet::new(),
                    cur_items: Arc::new(Vec::new()),
                    cur_hints: Arc::new(Vec::new()),
                    prev_neg_msgs: 0,
                    prev_neg_rts: 0,
                    arrived: self.arrive_times[s.0 as usize],
                    started: ctx.now(),
                },
            );
            self.stage_round(ctx, s, items, Vec::new());
        }
    }

    /// Probe the shared result cache for `query`: an exact hit reuses the
    /// cached plan outright; a semantic hit compensates the cached plan for
    /// the subsumed query (and re-inserts the compensated plan under the
    /// query's own key, so the next identical arrival hits exactly). Returns
    /// `None` on a miss or with caching disabled.
    ///
    /// An exact hit needs the cached query itself to equal `query`, not just
    /// its fingerprint: arrivals come from users and FNV-1a is not
    /// collision-resistant, so a colliding entry would otherwise answer with
    /// another query's plan. A collision holds the key, so it is a miss —
    /// the session trades, and its finished plan takes the key over.
    fn try_result_cache(&mut self, query: &Query) -> Option<DistributedPlan> {
        let cache = self.serve.result_cache.as_ref()?;
        let mut c = cache.lock().expect("result cache lock");
        let key = query.fingerprint();
        match c.probe(key, query, true) {
            Probe::Exact => {
                let hit = c.get(key).filter(|e| e.query == *query);
                if let Some(plan) = hit.map(|e| e.value.clone()) {
                    c.record(ProbeOutcome::HitExact);
                    self.result_cache_hits += 1;
                    return Some(plan);
                }
            }
            Probe::Semantic(candidates) => {
                for (k, m) in candidates {
                    let Some(entry) = c.get(k) else { continue };
                    if let Some(plan) = compensate_plan(&entry.value, query, &m) {
                        c.record(ProbeOutcome::HitSemantic);
                        self.result_cache_hits += 1;
                        c.insert(key, query.clone(), plan.clone(), 0.0);
                        return Some(plan);
                    }
                }
            }
            Probe::Miss => {}
        }
        c.record(ProbeOutcome::Miss);
        self.result_cache_misses += 1;
        None
    }

    /// Publish a finished session's plan to the shared result cache. An
    /// award moves adaptive sellers' asks, so entries priced before it and
    /// touching the same relations are invalidated first (selectively — a
    /// disjoint query's cached plan survives). The entry's eviction weight
    /// is the trading work a future hit saves: rounds times remote sellers.
    fn cache_finished_plan(&mut self, iterations: u32, plan: &DistributedPlan) {
        let Some(cache) = self.serve.result_cache.as_ref() else {
            return;
        };
        let mut c = cache.lock().expect("result cache lock");
        if self.config.seller_strategy.adapts()
            && plan.purchases.iter().any(|p| p.offer.seller != self.node)
        {
            let rels: BTreeSet<RelId> = plan.query.rel_ids().collect();
            c.invalidate_rels(&rels);
        }
        let benefit = iterations as f64 * self.remote_sellers.len().max(1) as f64;
        c.insert(
            plan.query.fingerprint(),
            plan.query.clone(),
            plan.clone(),
            benefit,
        );
    }

    /// Open a round for `s`: local seller answers immediately (no network),
    /// remote sellers get one staged entry each, the deadline timer is armed.
    fn stage_round(
        &mut self,
        ctx: &mut Ctx<ServeMsg>,
        s: SessionId,
        items: Vec<RfbItem>,
        hints: Vec<Offer>,
    ) {
        let sess = self.sessions.get_mut(&s).expect("staged session is live");
        sess.cur_items = Arc::new(items);
        sess.cur_hints = Arc::new(hints);
        let round = sess.engine.round;
        let entry = self.current_rfb(s);
        let recipients = self.scope_recipients(s, &entry.items);
        let sess = self.sessions.get_mut(&s).expect("staged session is live");
        if let Some(local) = &mut self.local_seller {
            let resp = local
                .respond_batch(std::slice::from_ref(&entry))
                .pop()
                .expect("one entry, one response");
            ctx.charge_compute(resp.effort as f64 * PER_SUBPLAN_SECONDS);
            sess.engine.receive_offers(resp.offers);
        }
        sess.gather = Some(Gather::new(recipients.clone()));
        if recipients.is_empty() {
            // Nothing to ask: no remote sellers, or no child's digest
            // intersects the round — the local offers are all there is.
            self.close_round(ctx, s);
            return;
        }
        for &child in &recipients {
            self.stage.entry(child).or_default().push(entry.clone());
        }
        self.ensure_flush(ctx);
        ctx.schedule(
            self.config.seller_timeout * self.timeout_scale,
            ServeMsg::Timeout { session: s, round },
            "timeout",
        );
    }

    /// The session's shedding priority (arrival-indexed; 0 by default).
    fn priority_of(&self, s: SessionId) -> u8 {
        self.serve
            .priorities
            .get(s.0 as usize)
            .copied()
            .unwrap_or(0)
    }

    /// `s`'s current round again, as first staged: same request id, items
    /// and hints, for a retransmission or a re-scoped resend.
    fn current_rfb(&self, s: SessionId) -> SessionRfb {
        let sess = &self.sessions[&s];
        let round = sess.engine.round;
        SessionRfb {
            session: s,
            req: session_req(s, round),
            round,
            items: Arc::clone(&sess.cur_items),
            hints: Arc::clone(&sess.cur_hints),
            priority: self.priority_of(s),
        }
    }

    /// Is broker failover switched on for this run?
    fn failover_on(&self) -> bool {
        self.serve.hierarchy.as_ref().is_some_and(|h| h.failover)
    }

    /// The children a round actually goes to: every remote seller in flat
    /// serving; under a hierarchy, the direct children whose advertised
    /// digest intersects the round's relations. Subcontracting widens back
    /// to every child — any seller may then bid on any item via hints. A
    /// session on its post-shed retry bypasses the broker tier entirely:
    /// the flat path has no admission control, so the retry cannot shed.
    fn scope_recipients(&self, s: SessionId, items: &[RfbItem]) -> Vec<NodeId> {
        if self.serve.hierarchy.is_none() || self.flat_retry.contains(&s) {
            return self.remote_sellers.clone();
        }
        let scoped = if self.config.enable_subcontracting {
            self.region.children().to_vec()
        } else {
            self.region.scope(items)
        };
        // Once a dead region is detoured, every round asks its sellers
        // directly — re-routing through the silent broker would only stall
        // the whole retry chain again.
        if self.detoured.is_empty() {
            return scoped;
        }
        let mut out: Vec<NodeId> = Vec::new();
        for c in scoped {
            if self.detoured.contains(&c) {
                out.extend(self.region.desc.get(&c).into_iter().flatten().copied());
            } else {
                out.push(c);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Broker admission control refused `s`'s round somewhere below. First
    /// time: free the slot now, then re-admit the session once on the flat
    /// path after a capped backoff — the flat path has no admission control,
    /// so the retry completes. A second shed (impossible on the flat path,
    /// kept as a guard) aborts with `plan: None` as before. Later sheds,
    /// stragglers, and stale timers for the session all no-op on the
    /// missing entry.
    fn on_shed(&mut self, ctx: &mut Ctx<ServeMsg>, s: SessionId) {
        let Some(sess) = self.sessions.remove(&s) else {
            return;
        };
        if let Some(local) = &mut self.local_seller {
            local.forget_session(s);
        }
        if self.shed_retried.insert(s) {
            self.shed_retries += 1;
            self.flat_retry.insert(s);
            self.queries[s.0 as usize] = Some(sess.engine.query.clone());
            let delay = retry_delay(self.config.seller_timeout * self.timeout_scale, 1);
            ctx.schedule(delay, ServeMsg::ShedRetry { session: s }, "shed-retry");
            self.admit(ctx);
            return;
        }
        self.shed_sessions += 1;
        self.complete(SessionReport {
            session: s,
            arrived: sess.arrived,
            started: sess.started,
            finished: ctx.now(),
            iterations: sess.engine.round + 1,
            plan: None,
            reawards: 0,
            rescoped_trades: 0,
            repaired: false,
            shed_retried: false,
            history: sess.engine.history,
            contracts: Vec::new(),
        });
        self.admit(ctx);
    }

    /// Arm the zero-delay flush timer once per scheduling instant: every
    /// session that stages between now and the timer firing rides the same
    /// batch.
    fn ensure_flush(&mut self, ctx: &mut Ctx<ServeMsg>) {
        if !self.flush_pending {
            self.flush_pending = true;
            ctx.schedule(0.0, ServeMsg::Flush, "flush");
        }
    }

    /// Drain the staging area: one message per seller (batched) or one per
    /// entry (unbatched baseline). Sellers go out in ascending `NodeId`,
    /// entries within a batch in ascending `(session, round)` — both fixed
    /// orders, so the wire schedule is deterministic.
    fn flush(&mut self, ctx: &mut Ctx<ServeMsg>) {
        self.flush_pending = false;
        let stage = std::mem::take(&mut self.stage);
        for (seller, mut entries) in stage {
            entries.sort_by_key(|e| (e.session, e.round));
            if self.serve.batch_rfbs {
                let bytes = entries.iter().map(SessionRfb::wire_bytes).sum();
                ctx.send(seller, ServeMsg::Rfb { entries }, bytes, "rfb");
            } else {
                for e in entries {
                    let bytes = e.wire_bytes();
                    ctx.send(seller, ServeMsg::Rfb { entries: vec![e] }, bytes, "rfb");
                }
            }
        }
    }

    fn on_offers(
        &mut self,
        ctx: &mut Ctx<ServeMsg>,
        from: NodeId,
        session: SessionId,
        round: u32,
        offers: Vec<Offer>,
    ) {
        self.unreachable.remove(&from);
        // Answering proves liveness: route through the child again.
        self.detoured.remove(&from);
        if is_repair_round(round) {
            // Scoped re-trade replies belong to the session's contract
            // lifecycle, which outlives the trading session itself.
            self.ctl_event(ctx, session, |c| c.on_retrade_offers(from, round, offers));
            return;
        }
        let complete = {
            let Some(sess) = self.sessions.get_mut(&session) else {
                return; // straggler for an already-finished session
            };
            if !sess.seen.insert((round, from)) {
                return; // duplicated delivery or dedup resend
            }
            let accepted = match &mut sess.gather {
                Some(g) if round == sess.engine.round => g.accept(from, offers, Vec::new()),
                _ => Err(offers),
            };
            // A straggler from an already-closed round (or a child the
            // round was not sent to) is still market information, consumed
            // immediately.
            accepted.unwrap_or_else(|offers| {
                sess.engine.receive_offers(offers);
                false
            })
        };
        if complete {
            self.close_round(ctx, session);
        }
    }

    fn on_timeout(&mut self, ctx: &mut Ctx<ServeMsg>, session: SessionId, round: u32) {
        let failover = self.failover_on();
        let Some(sess) = self.sessions.get_mut(&session) else {
            return;
        };
        let Some(g) = sess.gather.as_mut().filter(|_| round == sess.engine.round) else {
            return; // stale timer from an already-closed round
        };
        g.repoint(&self.region.promoted);
        let missing = g.laggards();
        self.timeouts_fired += 1;
        let base = self.config.seller_timeout * self.timeout_scale;
        // A broker child has seller descendants to detour to; a seller
        // child (its own only descendant) is itself the silent party.
        let detour = |m: &NodeId| self.region.desc.get(m).is_some_and(|d| *d != [*m]);
        if !missing.is_empty() && g.attempt < MAX_RFB_RETRIES {
            g.attempt += 1;
            let delay = retry_delay(base, g.attempt);
            let entry = self.current_rfb(session);
            for t in missing {
                self.retries += 1;
                self.stage.entry(t).or_default().push(entry.clone());
            }
            self.ensure_flush(ctx);
            ctx.schedule(delay, ServeMsg::Timeout { session, round }, "timeout");
        } else if failover && missing.iter().any(detour) {
            // Retries exhausted and no promotion heard: last resort, route
            // around the silent regions by asking their seller descendants
            // directly. Over-asks relative to the region digest but stays
            // lossless: the merge order is by seller, whoever relays.
            self.region_fallbacks += 1;
            let dead: Vec<NodeId> = missing.into_iter().filter(detour).collect();
            for c in dead {
                self.detoured.insert(c);
                let sellers = self.region.desc[&c].clone();
                self.rescope(ctx, c, &sellers);
            }
            ctx.schedule(base, ServeMsg::Timeout { session, round }, "timeout");
        } else {
            if !missing.is_empty() {
                self.degraded_rounds += 1;
                self.unreachable.extend(missing);
            }
            self.close_round(ctx, session);
        }
    }

    /// B3–B8 for one session: close the trading round, send the nested
    /// negotiation traffic, then either stage the next round or finalize.
    fn close_round(&mut self, ctx: &mut Ctx<ServeMsg>, s: SessionId) {
        let sess = self.sessions.get_mut(&s).expect("closing a live session");
        let mut gather = sess.gather.take().expect("closing an open round");
        // The local seller's offers went in when the round was staged.
        sess.engine.receive_offers(gather.merge().0);
        let outcome = sess.engine.close_round();
        let considered = sess
            .engine
            .history
            .last()
            .map(|h| h.considered)
            .unwrap_or(0);
        ctx.charge_compute(considered as f64 * PER_OFFER_SECONDS);
        let neg_msgs = sess.engine.negotiation_messages - sess.prev_neg_msgs;
        let neg_rts = sess.engine.negotiation_round_trips - sess.prev_neg_rts;
        sess.prev_neg_msgs = sess.engine.negotiation_messages;
        sess.prev_neg_rts = sess.engine.negotiation_round_trips;
        ctx.charge_compute(neg_rts as f64 * 2.0 * NetLink::wan().latency);
        // Negotiation traffic targets the children the round actually spoke
        // to (identical to all remote sellers in flat serving).
        let neg_targets = gather.recipients();
        if !neg_targets.is_empty() {
            for i in 0..neg_msgs {
                let to = neg_targets[i as usize % neg_targets.len()];
                ctx.send(to, ServeMsg::Negotiate, OFFER_MSG_BYTES, "negotiate");
            }
        }
        match outcome {
            RoundOutcome::Continue(items) => {
                let hints = if self.config.enable_subcontracting {
                    self.sessions[&s].engine.hints()
                } else {
                    Vec::new()
                };
                self.stage_round(ctx, s, items, hints);
            }
            RoundOutcome::Done => self.finalize(ctx, s),
        }
    }

    /// Session over: award the winners, free the slot, report, admit next.
    /// With the lifecycle on, the awards run as a background
    /// [`ContractController`] (id base `(s+1) << 32`, so seller-side releases
    /// stay session-scoped) and the report's plan/repair counters are patched
    /// once it settles.
    fn finalize(&mut self, ctx: &mut Ctx<ServeMsg>, s: SessionId) {
        let sess = self.sessions.remove(&s).expect("finalizing a live session");
        if self.config.enable_contracts {
            if let Some(plan) = sess.engine.best.clone() {
                let (ctl, actions) = ContractController::new(
                    self.node,
                    self.config.clone(),
                    plan,
                    &sess.engine.offers,
                    self.remote_sellers.clone(),
                    (s.0 + 1) << 32,
                );
                self.lifecycles.insert(s, ctl);
                self.apply_actions(ctx, s, actions);
            }
        } else if let Some(plan) = &sess.engine.best {
            for (_, seller, offer) in remote_awards(plan, self.node) {
                ctx.send(
                    seller,
                    ServeMsg::Award {
                        session: s,
                        contract: LEGACY_CONTRACT,
                        offer,
                    },
                    OFFER_MSG_BYTES,
                    "award",
                );
            }
        }
        if let Some(local) = &mut self.local_seller {
            local.forget_session(s);
        }
        // With the lifecycle off the plan is final here; publish it to the
        // shared result cache. (With it on, publication waits for the
        // lifecycle to settle — see `settle_lifecycle` — so a repaired or
        // invalidated plan is never served to later sessions.)
        if !self.config.enable_contracts {
            if let Some(plan) = &sess.engine.best {
                self.cache_finished_plan(sess.engine.round + 1, plan);
            }
        }
        self.complete(SessionReport {
            session: s,
            arrived: sess.arrived,
            started: sess.started,
            finished: ctx.now(),
            iterations: sess.engine.round + 1,
            plan: sess.engine.best,
            reawards: 0,
            rescoped_trades: 0,
            repaired: false,
            shed_retried: false,
            history: sess.engine.history,
            contracts: Vec::new(),
        });
        self.settle_lifecycle(s);
        self.admit(ctx);
    }

    /// Record a finished session and drop the shed-retry bookkeeping kept
    /// for it: `shed_retried` is read into the report here, after which
    /// nothing refers to the session again.
    fn complete(&mut self, mut report: SessionReport) {
        report.shed_retried = self.shed_retried.remove(&report.session);
        self.flat_retry.remove(&report.session);
        self.completed.push(report);
    }

    /// With failover on, tell the broker tier to stop its standby lease
    /// probes once every session has settled — otherwise the perpetual
    /// probe timers would keep the event queue alive forever. Sent exactly
    /// once; forwarded down broker levels and to each standby.
    fn maybe_quiesce(&mut self, ctx: &mut Ctx<ServeMsg>) {
        if self.quiesce_sent
            || !self.failover_on()
            || self.completed.len() < self.queries.len()
            || !self.lifecycles.is_empty()
        {
            return;
        }
        self.quiesce_sent = true;
        for &c in self.region.children() {
            ctx.send(c, ServeMsg::Quiesce, 0.0, "quiesce");
        }
        // Regions that already failed over: their promoted standby is in
        // `children`, but the demoted primary may restart and is harmless;
        // nothing probes it, so no extra traffic is needed.
    }

    /// A region standby promoted itself over crashed child `failed`: swap
    /// the child, adopt the mirrored digest, and re-scope every open round
    /// still waiting on the dead broker by resending its entry to the
    /// standby. Seller-side reply memos make the re-asked rounds replay
    /// identical offers, so the re-scoped aggregation is lossless and
    /// deterministic.
    fn on_region_update(
        &mut self,
        ctx: &mut Ctx<ServeMsg>,
        from: NodeId,
        failed: NodeId,
        digest: u64,
        epoch: u64,
    ) {
        if !self.region.adopt(failed, from, digest, epoch) {
            return; // not a region of ours
        }
        self.unreachable.remove(&failed);
        self.detoured.remove(&failed);
        self.rescope(ctx, failed, &[from]);
    }

    /// Every open round still waiting on child `failed` waits on `by`
    /// instead — a promoted standby, or the sellers of a detoured region:
    /// resend its RFB to those of `by` that have not answered, and close
    /// the rounds that are complete without them.
    fn rescope(&mut self, ctx: &mut Ctx<ServeMsg>, failed: NodeId, by: &[NodeId]) {
        let mut resend: Vec<(SessionId, Vec<NodeId>)> = Vec::new();
        let mut complete: Vec<SessionId> = Vec::new();
        for (&s, sess) in self.sessions.iter_mut() {
            match sess.gather.as_mut().map(|g| g.swap(failed, by)) {
                Some(Swap::Resend(to)) => resend.push((s, to)),
                Some(Swap::Complete) => complete.push(s),
                _ => {}
            }
        }
        for (s, to) in resend {
            let entry = self.current_rfb(s);
            for t in to {
                self.retries += 1;
                self.stage.entry(t).or_default().push(entry.clone());
            }
        }
        self.ensure_flush(ctx);
        for s in complete {
            self.close_round(ctx, s);
        }
    }

    /// Route a lifecycle event to `s`'s controller (no-op once settled and
    /// removed), apply the actions it emits, and fold it into the report if
    /// it just settled.
    fn ctl_event(
        &mut self,
        ctx: &mut Ctx<ServeMsg>,
        s: SessionId,
        event: impl FnOnce(&mut ContractController) -> Vec<ContractAction>,
    ) {
        let Some(ctl) = self.lifecycles.get_mut(&s) else {
            return; // stale timer or straggler after settlement
        };
        let actions = event(ctl);
        self.apply_actions(ctx, s, actions);
        self.settle_lifecycle(s);
        self.maybe_quiesce(ctx);
    }

    /// Turn controller actions into serve-protocol traffic and timers.
    fn apply_actions(
        &mut self,
        ctx: &mut Ctx<ServeMsg>,
        s: SessionId,
        actions: Vec<ContractAction>,
    ) {
        for action in actions {
            match action {
                ContractAction::SendAward {
                    seller,
                    contract,
                    offer,
                } => ctx.send(
                    seller,
                    ServeMsg::Award {
                        session: s,
                        contract,
                        offer,
                    },
                    OFFER_MSG_BYTES,
                    "award",
                ),
                ContractAction::ArmAwardTimer { contract, delay } => ctx.schedule(
                    delay,
                    ServeMsg::AwardTimeout {
                        session: s,
                        contract,
                    },
                    "award-timeout",
                ),
                ContractAction::SendLease { seller, contract } => ctx.send_lease(
                    seller,
                    ServeMsg::Lease {
                        session: s,
                        contract,
                    },
                    "lease",
                ),
                ContractAction::ArmLeaseTimer { contract, delay } => ctx.schedule(
                    delay,
                    ServeMsg::LeaseTick {
                        session: s,
                        contract,
                    },
                    "lease-tick",
                ),
                ContractAction::SendRelease { seller, contract } => ctx.send(
                    seller,
                    ServeMsg::Release {
                        session: s,
                        contract,
                    },
                    OFFER_MSG_BYTES,
                    "release",
                ),
                ContractAction::SendRetrade {
                    targets,
                    round,
                    items,
                } => {
                    let entry = SessionRfb {
                        session: s,
                        req: session_req(s, round),
                        round,
                        priority: self.priority_of(s),
                        items: Arc::new(items),
                        hints: Arc::new(Vec::new()),
                    };
                    let bytes = entry.wire_bytes();
                    for seller in targets {
                        ctx.send(
                            seller,
                            ServeMsg::Rfb {
                                entries: vec![entry.clone()],
                            },
                            bytes,
                            "rfb-repair",
                        );
                    }
                }
                ContractAction::ArmRetradeTimer { round, delay } => ctx.schedule(
                    delay,
                    ServeMsg::RetradeTimeout { session: s, round },
                    "retrade-timeout",
                ),
            }
        }
    }

    /// If `s`'s lifecycle has settled, retire it: accumulate its counters and
    /// patch the session's report with the (possibly repaired) plan.
    fn settle_lifecycle(&mut self, s: SessionId) {
        let settled = self.lifecycles.get(&s).map(|c| c.settled).unwrap_or(false);
        if !settled {
            return;
        }
        let ctl = self.lifecycles.remove(&s).expect("checked above");
        self.contract_stats.accumulate(&ctl.stats);
        let mut settled_plan = None;
        if let Some(report) = self.completed.iter_mut().find(|r| r.session == s) {
            report.plan = ctl.plan_valid().then(|| ctl.plan.clone());
            report.reawards = ctl.stats.reawards;
            report.rescoped_trades = ctl.stats.rescoped_trades;
            report.repaired = ctl.stats.contracts_repaired > 0;
            report.contracts = ctl.reports();
            settled_plan = report.plan.clone().map(|p| (report.iterations, p));
        }
        // The (possibly repaired) plan is final only now.
        if let Some((iterations, plan)) = settled_plan {
            self.cache_finished_plan(iterations, &plan);
        }
    }
}

/// Approximate bytes of one advertisement / shed notice on the wire.
pub(crate) const AD_BYTES: f64 = 24.0;

/// Aggregate result of one serving run.
#[derive(Debug)]
pub struct ServeOutcome {
    /// Per-session reports, ascending session id.
    pub reports: Vec<SessionReport>,
    /// Raw simulator metrics.
    pub metrics: qt_net::Metrics,
    /// First arrival to last completion, virtual seconds.
    pub makespan: f64,
    /// Completed sessions per virtual second.
    pub qps: f64,
    /// Median session latency (arrival → finish), virtual seconds.
    pub p50_latency: f64,
    /// 95th-percentile session latency, virtual seconds.
    pub p95_latency: f64,
    /// 99th-percentile session latency, virtual seconds.
    pub p99_latency: f64,
    /// 99.9th-percentile tail latency, virtual seconds.
    pub p999_latency: f64,
    /// Protocol messages exchanged (arrival injections excluded).
    pub messages: u64,
    /// `messages / sessions`.
    pub messages_per_query: f64,
    /// Total seller optimization effort (sub-plans enumerated).
    pub seller_effort: u64,
    /// RFB retransmissions the buyer sent after a response deadline expired
    /// or to a region's successor (promoted standby or detoured sellers).
    pub retries: u64,
    /// Buyer response deadlines that fired while their round was open.
    pub timeouts: u64,
    /// Rounds the buyer closed without hearing from every seller.
    pub degraded_rounds: u64,
    /// RFB items answered from seller offer caches.
    pub offer_cache_hits: u64,
    /// RFB items evaluated fresh.
    pub offer_cache_misses: u64,
    /// Sessions answered from the shared result cache (zero traffic).
    pub result_cache_hits: u64,
    /// Sessions that probed the result cache and traded from cold (zero
    /// when no cache is configured).
    pub result_cache_misses: u64,
    /// Sessions aborted by broker admission control (explicit
    /// [`ServeMsg::Shed`]; their reports carry `plan: None`). With shed
    /// recovery a session only lands here after its flat-path retry was
    /// shed again.
    pub shed_sessions: u64,
    /// Shed sessions re-admitted once on the flat path after capped backoff.
    pub shed_retries: u64,
    /// Buyer rounds that fell back to a failed region's seller descendants
    /// because no promotion arrived within the retry budget.
    pub region_fallbacks: u64,
    /// Standby promotions performed across the broker tree.
    pub promotions: u64,
    /// `(failed primary, promoted standby, promotion time)` per region that
    /// failed over, ascending by primary. Times are virtual seconds on the
    /// simulator and wall seconds on the real transport.
    pub promoted_regions: Vec<(NodeId, NodeId, f64)>,
    /// Aggregated contract-lifecycle counters (zeros with the lifecycle off).
    pub contracts: ContractStats,
    /// Sellers that never answered their last RFB (even after retries) and
    /// were traded around, as the buyer knew them when the run drained. A
    /// seller that answers any later round is removed.
    pub unreachable_sellers: Vec<NodeId>,
}

/// Serve `arrivals` — `(virtual arrival time, query)` pairs, arrival times
/// non-decreasing — through one federation on the discrete-event simulator
/// over a uniform WAN topology ([`NetLink::wan`]).
///
/// Every query becomes a [`SessionId`] in arrival order. At most
/// `serve.concurrency` sessions trade at once; the rest queue FIFO. Returns
/// per-session reports plus the throughput aggregates.
pub fn run_qt_serve(
    buyer_node: NodeId,
    dict: Arc<SchemaDict>,
    arrivals: Vec<(f64, Query)>,
    sellers: BTreeMap<NodeId, SellerEngine>,
    config: &QtConfig,
    serve: &ServeConfig,
) -> ServeOutcome {
    let wan = Topology::Uniform(NetLink::wan());
    run_qt_serve_with_faults(
        buyer_node, dict, arrivals, sellers, config, serve, wan, None,
    )
}

/// [`run_qt_serve`] over an arbitrary [`Topology`] (e.g.
/// [`Topology::TwoTier`] regional offices) under an optional injected
/// [`FaultPlan`] — message drops, duplicates, jitter, crash windows,
/// partitions; `None` (or an inert plan) injects nothing. Sellers still
/// *estimate* delivery over a WAN link — autonomous nodes do not know where
/// the buyer sits — while actual message transport follows the topology.
/// Under faults the buyer retransmits unanswered RFBs with capped
/// exponential backoff and then degrades the round to the offers that
/// arrived ([`ServeOutcome::retries`], [`ServeOutcome::timeouts`],
/// [`ServeOutcome::degraded_rounds`]). With `config.enable_contracts` the
/// per-session contract lifecycles detect winner losses and repair the
/// affected sessions' plans; a session whose plan could not be repaired
/// reports `plan: None` while every other session completes untouched.
///
/// A single-query trade is a run with one arrival at t = 0: its report's
/// `finished` time is the optimization time.
#[allow(clippy::too_many_arguments)]
pub fn run_qt_serve_with_faults(
    buyer_node: NodeId,
    dict: Arc<SchemaDict>,
    arrivals: Vec<(f64, Query)>,
    sellers: BTreeMap<NodeId, SellerEngine>,
    config: &QtConfig,
    serve: &ServeConfig,
    topology: Topology,
    faults: Option<FaultPlan>,
) -> ServeOutcome {
    let fed = assemble(
        buyer_node,
        dict,
        arrivals,
        sellers,
        config,
        serve,
        faults.as_ref(),
    );
    let mut sim: Simulator<ServeMsg, ServeNode> = Simulator::new(topology);
    if let Some(plan) = faults {
        sim.set_fault_plan(plan);
    }
    let ids: Vec<NodeId> = fed.nodes.iter().map(|(id, _)| *id).collect();
    for (id, node) in fed.nodes {
        sim.add_node(id, node);
    }
    for (at, node, msg, kind) in fed.boot {
        sim.inject(at, node, node, msg, kind);
    }
    sim.run(100_000_000);

    let metrics = sim.metrics.clone();
    // The event queue ran dry: every timer fired.
    let nodes = ids.iter().filter_map(|&id| Some((id, sim.handler(id)?)));
    let tally = Tally::of(nodes, true);
    let Some(ServeNode::Buyer(m)) = sim.handler_mut(buyer_node) else {
        panic!("buyer node is not a session manager");
    };
    finish_serve_outcome(m, fed.sessions, fed.cache_before, tally, metrics)
}

/// [`run_qt_serve`] on the real thread-per-node transport (`qt_net::real`):
/// the session manager and every seller run on their own OS thread,
/// connected by bounded channels or loopback TCP per `real`. The handlers
/// are the exact ones the simulator runs, so per-session plans are
/// bit-identical to [`run_qt_serve`] under the same configuration. Latency
/// and makespan figures are **wall clock** — never compare them against the
/// simulator's virtual-time numbers.
pub fn run_qt_serve_real(
    buyer_node: NodeId,
    dict: Arc<SchemaDict>,
    arrivals: Vec<(f64, Query)>,
    sellers: BTreeMap<NodeId, SellerEngine>,
    config: &QtConfig,
    serve: &ServeConfig,
    real: qt_net::RealConfig,
) -> ServeOutcome {
    run_qt_serve_real_with_faults(
        buyer_node, dict, arrivals, sellers, config, serve, real, None,
    )
}

/// [`run_qt_serve_real`] under a [`FaultPlan`]'s *broker crash windows*. The
/// thread runtime has no transport fault plane — drop/jitter/partition
/// entries are ignored — but broker crashes are handler-level control
/// injections, so the promotion protocol runs identically to
/// [`run_qt_serve_with_faults`] and promotion outcomes are comparable
/// across transports. Crash times are virtual: the injector delivers them
/// at `time * time_scale` wall seconds, like every other injection.
#[allow(clippy::too_many_arguments)]
pub fn run_qt_serve_real_with_faults(
    buyer_node: NodeId,
    dict: Arc<SchemaDict>,
    arrivals: Vec<(f64, Query)>,
    sellers: BTreeMap<NodeId, SellerEngine>,
    config: &QtConfig,
    serve: &ServeConfig,
    real: qt_net::RealConfig,
    faults: Option<FaultPlan>,
) -> ServeOutcome {
    let fed = assemble(
        buyer_node,
        dict,
        arrivals,
        sellers,
        config,
        serve,
        faults.as_ref(),
    );
    let mut rt: qt_net::RealRuntime<ServeMsg, ServeNode> = qt_net::RealRuntime::new(real);
    for (id, node) in fed.nodes {
        rt.add_node(id, node);
    }
    for (at, node, msg, kind) in fed.boot {
        rt.inject(at, node, node, msg, kind);
    }
    // Serving is over when every session completed and (with the lifecycle
    // on) every contract settled; channel FIFO guarantees trailing awards
    // and releases are delivered before the shutdown marker.
    let n = fed.sessions;
    let mut out = rt.run(
        buyer_node,
        |h| matches!(h, ServeNode::Buyer(m) if m.completed.len() == n && m.lifecycles.is_empty()),
    );
    // The run stops with the last session: broker deadline timers may still
    // be pending.
    let tally = Tally::of(out.handlers.iter().map(|(id, h)| (*id, h)), false);
    let m = out
        .handlers
        .iter_mut()
        .find_map(|(_, h)| match h {
            ServeNode::Buyer(m) => Some(m),
            _ => None,
        })
        .expect("session manager returned");
    finish_serve_outcome(m, n, fed.cache_before, tally, out.metrics)
}

/// A serving federation ready to boot: every node's handler plus the
/// self-injections that start it. Each runtime replays both lists, in
/// order, through its own `add_node`/`inject`.
struct Assembly {
    /// Buyer, sellers (ascending), then each broker followed by its standby.
    nodes: Vec<(NodeId, ServeNode)>,
    /// `(time, node, message, kind)` in injection order: boot and
    /// `advertise_at` advertisement ticks, standby probe boots, broker
    /// crash/restart control, then the arrivals. Boot advertisements precede
    /// any arrival of the same instant; a crashed-from-boot node's tick is
    /// dropped at delivery, so it joins only when a later `advertise_at`
    /// tick lands post-recovery.
    boot: Vec<(f64, NodeId, ServeMsg, &'static str)>,
    /// Sessions the run must complete.
    sessions: usize,
    /// Seller offer-cache `(hits, misses)` before the run.
    cache_before: (u64, u64),
}

fn assemble(
    buyer_node: NodeId,
    dict: Arc<SchemaDict>,
    arrivals: Vec<(f64, Query)>,
    mut sellers: BTreeMap<NodeId, SellerEngine>,
    config: &QtConfig,
    serve: &ServeConfig,
    faults: Option<&FaultPlan>,
) -> Assembly {
    assert!(serve.concurrency >= 1, "concurrency must be at least 1");
    let config = calibrated_config(config, serve, &mut sellers);
    let cache_before = (
        sellers.values().map(|s| s.cache_hits).sum(),
        sellers.values().map(|s| s.cache_misses).sum(),
    );
    let local_seller = sellers.remove(&buyer_node);
    let remote: Vec<NodeId> = sellers.keys().copied().collect();
    let tree = build_hierarchy(buyer_node, &remote, serve, &mut sellers);

    let mut boot = Vec::new();
    if let Some(h) = serve.hierarchy.as_ref() {
        boot.extend(remote.iter().map(|&s| (0.0, s, ServeMsg::AdTick, "ad")));
        boot.extend(
            h.advertise_at
                .iter()
                .map(|&(t, node)| (t, node, ServeMsg::AdTick, "ad")),
        );
        // The standby probe chains (failover only; the tick is a local
        // control event, subtracted from the message totals).
        boot.extend(
            tree.brokers
                .iter()
                .filter_map(|spec| spec.standby)
                .map(|sb| (0.0, sb, ServeMsg::BrokerLeaseTick, "boot")),
        );
    }
    // Broker crash windows become handler-level control injections, so
    // the sim and the thread runtime run the exact same promotion
    // protocol.
    for w in faults.iter().flat_map(|p| &p.broker_crashes) {
        boot.push((w.from, w.node, ServeMsg::Crash, "fault"));
        if w.until.is_finite() {
            boot.push((w.until, w.node, ServeMsg::Restart, "fault"));
        }
    }
    boot.extend(arrivals.iter().enumerate().map(|(i, &(at, _))| {
        let session = SessionId(i as u64);
        (at, buyer_node, ServeMsg::Arrive { session }, "arrive")
    }));

    let sessions = arrivals.len();
    let manager = SessionManager::new(
        buyer_node,
        dict,
        config.clone(),
        serve.clone(),
        local_seller,
        remote,
        &tree,
        arrivals,
    );
    let mut nodes = vec![(buyer_node, ServeNode::Buyer(Box::new(manager)))];
    nodes.extend(
        sellers
            .into_iter()
            .map(|(node, engine)| (node, ServeNode::Seller(Box::new(engine)))),
    );
    for spec in &tree.brokers {
        let hier = serve.hierarchy.clone().expect("brokers imply hierarchy");
        let mut primary = BrokerNode::new(spec, &tree, config.clone(), hier.clone());
        primary.set_parent_standby(tree.standby_of(spec.parent));
        nodes.push((spec.node, ServeNode::Broker(Box::new(primary))));
        if let Some(sb) = spec.standby {
            let mut standby = BrokerNode::new_standby(spec, &tree, config.clone(), hier);
            standby.set_parent_standby(tree.standby_of(spec.parent));
            nodes.push((sb, ServeNode::Broker(Box::new(standby))));
        }
    }
    Assembly {
        nodes,
        boot,
        sessions,
        cache_before,
    }
}

/// Apply the calibration snapshot (see [`crate::calib`]): when
/// `serve.calibration_path` holds a loadable snapshot, every engine —
/// buyer-side config and all sellers — re-prices with the fitted params
/// before the first RFB. Missing or unreadable snapshots keep the
/// configured params.
fn calibrated_config(
    config: &QtConfig,
    serve: &ServeConfig,
    sellers: &mut BTreeMap<NodeId, SellerEngine>,
) -> QtConfig {
    let mut config = config.clone();
    if let Some(path) = &serve.calibration_path {
        if let Some(params) = crate::calib::load_cost_params(path) {
            for e in sellers.values_mut() {
                e.set_cost_params(params.clone());
            }
            config.cost_params = params;
        }
    }
    config
}

/// Build the broker tree of a hierarchy run and point every remote seller
/// at its broker (or straight at the buyer when the federation fits the
/// fanout). Flat serving gets the degenerate tree: no brokers, every remote
/// seller a root child, depth 1.
fn build_hierarchy(
    buyer_node: NodeId,
    remote: &[NodeId],
    serve: &ServeConfig,
    sellers: &mut BTreeMap<NodeId, SellerEngine>,
) -> crate::discovery::BrokerTree {
    let Some(h) = serve.hierarchy.as_ref() else {
        return crate::discovery::BrokerTree {
            brokers: Vec::new(),
            root_children: remote.to_vec(),
            depth: 1,
        };
    };
    let first_broker = remote
        .iter()
        .map(|n| n.0)
        .chain([buyer_node.0])
        .max()
        .unwrap_or(0)
        + 1;
    let mut tree = crate::discovery::BrokerTree::build(remote, h.fanout, first_broker);
    tree.set_root(buyer_node);
    if h.failover && !tree.brokers.is_empty() {
        let first_standby = tree.brokers.iter().map(|b| b.node.0).max().unwrap_or(0) + 1;
        tree.assign_standbys(first_standby);
    }
    let parents = tree.seller_parents();
    for (n, e) in sellers.iter_mut() {
        let parent = parents.get(n).copied().unwrap_or(buyer_node);
        e.advertise_to = Some(parent);
        // With failover on, the region's standby mirrors the seller ads so a
        // promoted replica knows the digest without a discovery round-trip.
        e.advertise_cc = tree.standby_of(parent);
    }
    tree
}

/// Counters read off the seller and broker nodes once a run has drained,
/// and the drain-time audit of what those nodes still hold.
#[derive(Default)]
struct Tally {
    seller_effort: u64,
    cache_hits: u64,
    cache_misses: u64,
    promotions: u64,
    promoted_regions: Vec<(NodeId, NodeId, f64)>,
}

impl Tally {
    /// `timers_drained`: the runtime delivered every scheduled timer, so a
    /// broker round still open is a leak rather than a pending deadline.
    fn of<'a>(nodes: impl Iterator<Item = (NodeId, &'a ServeNode)>, timers_drained: bool) -> Tally {
        let mut t = Tally::default();
        for (node, handler) in nodes {
            match handler {
                ServeNode::Seller(e) => {
                    // Losing sellers are never told a session ended; their
                    // per-session state must stay bounded all the same.
                    assert!(
                        e.remembered_sessions() <= crate::seller::SELLER_SESSION_MEMORY,
                        "seller {node} remembers {} sessions",
                        e.remembered_sessions()
                    );
                    t.seller_effort += e.total_effort;
                    t.cache_hits += e.cache_hits;
                    t.cache_misses += e.cache_misses;
                }
                // The buyer's local seller is added by `finish_serve_outcome`.
                ServeNode::Buyer(_) => {}
                // Brokers hold routing state only; the buyer's shed counter
                // is the authoritative one. Promotion bookkeeping lives on
                // the standbys, though.
                ServeNode::Broker(b) => {
                    assert!(
                        !timers_drained || b.leaked_rounds() == 0,
                        "broker {node} drained with {} rounds open",
                        b.leaked_rounds()
                    );
                    if b.promotions > 0 {
                        t.promotions += b.promotions;
                        t.promoted_regions.push((
                            b.promoted_from
                                .expect("promoted standby records its primary"),
                            node,
                            b.promoted_at.unwrap_or(0.0),
                        ));
                    }
                }
            }
        }
        t.promoted_regions.sort_by_key(|a| (a.0, a.1));
        t
    }
}

/// Shared post-processing for the simulator and real-transport serving
/// runners: fold the manager's state, the node counters and the transport's
/// `metrics` into a [`ServeOutcome`].
fn finish_serve_outcome(
    m: &mut SessionManager,
    n: usize,
    cache_before: (u64, u64),
    mut tally: Tally,
    metrics: qt_net::Metrics,
) -> ServeOutcome {
    assert_eq!(m.completed.len(), n, "run drained with sessions unfinished");
    assert!(
        m.lifecycles.is_empty(),
        "run drained with contract lifecycles unsettled"
    );
    assert!(
        m.sessions.is_empty()
            && m.waiting.is_empty()
            && m.stage.is_empty()
            && m.flat_retry.is_empty()
            && m.shed_retried.is_empty(),
        "run drained with per-session state still held"
    );
    if let Some(local) = &m.local_seller {
        // The buyer forgets every session at its own seller side itself.
        assert_eq!(
            local.remembered_sessions(),
            0,
            "run drained with the local seller remembering sessions"
        );
        tally.seller_effort += local.total_effort;
        tally.cache_hits += local.cache_hits;
        tally.cache_misses += local.cache_misses;
    }
    let mut reports = std::mem::take(&mut m.completed);
    reports.sort_by_key(|r| r.session);

    let t0 = m.arrive_times.iter().copied().fold(f64::INFINITY, f64::min);
    let t_end = reports.iter().map(|r| r.finished).fold(0.0f64, f64::max);
    let makespan = if n == 0 { 0.0 } else { t_end - t0 };
    let mut latencies: Vec<f64> = reports.iter().map(|r| r.latency()).collect();
    latencies.sort_by(f64::total_cmp);
    // Per-mille indexing so p99.9 is expressible; `(len-1)*500/1000` floors
    // to the same index as the old `(len-1)*50/100`, keeping p50/p95
    // bit-identical to earlier releases.
    let pct = |p_milli: usize| -> f64 {
        if latencies.is_empty() {
            0.0
        } else {
            latencies[(latencies.len() - 1) * p_milli / 1000]
        }
    };
    // Arrival and advertisement-tick injections are local events, not
    // protocol traffic (the Advertise messages they trigger do count) —
    // likewise the standby boot ticks and the fault plane's crash/restart
    // control injections.
    let messages = metrics.messages
        - metrics.kind_count("arrive")
        - metrics.kind_count("ad")
        - metrics.kind_count("boot")
        - metrics.kind_count("fault");
    ServeOutcome {
        qps: if makespan > 0.0 {
            n as f64 / makespan
        } else {
            0.0
        },
        p50_latency: pct(500),
        p95_latency: pct(950),
        p99_latency: pct(990),
        p999_latency: pct(999),
        messages,
        messages_per_query: if n > 0 {
            messages as f64 / n as f64
        } else {
            0.0
        },
        seller_effort: tally.seller_effort,
        retries: m.retries,
        timeouts: m.timeouts_fired,
        degraded_rounds: m.degraded_rounds,
        offer_cache_hits: tally.cache_hits - cache_before.0,
        offer_cache_misses: tally.cache_misses - cache_before.1,
        result_cache_hits: m.result_cache_hits,
        result_cache_misses: m.result_cache_misses,
        shed_sessions: m.shed_sessions,
        shed_retries: m.shed_retries,
        region_fallbacks: m.region_fallbacks,
        promotions: tally.promotions,
        promoted_regions: tally.promoted_regions,
        contracts: m.contract_stats,
        unreachable_sellers: m.unreachable.iter().copied().collect(),
        makespan,
        reports,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qt_workload::{build_federation, FederationSpec};

    fn spec(nodes: u32, seed: u64) -> FederationSpec {
        FederationSpec {
            nodes,
            relations: 3,
            partitions_per_relation: 2,
            replication: 2,
            rows_per_partition: 20_000,
            scale: 1,
            seed,
            with_data: false,
            speed_spread: 1.0,
            data_skew: 0.0,
        }
    }

    fn engines(fed: &qt_workload::Federation, cfg: &QtConfig) -> BTreeMap<NodeId, SellerEngine> {
        fed.catalog
            .nodes
            .iter()
            .map(|&n| {
                (
                    n,
                    SellerEngine::new(fed.catalog.holdings_of(n), cfg.clone()),
                )
            })
            .collect()
    }

    fn workload(fed: &qt_workload::Federation, n: usize) -> Vec<(f64, Query)> {
        use qt_workload::{gen_join_query, QueryShape};
        (0..n)
            .map(|i| {
                let shape = if i % 2 == 0 {
                    QueryShape::Chain
                } else {
                    QueryShape::Star
                };
                let q = gen_join_query(&fed.catalog.dict, shape, 2 + i % 2, i % 3 == 0, i as u64);
                (i as f64 * 0.05, q)
            })
            .collect()
    }

    fn run(fed: &qt_workload::Federation, n: usize, serve: &ServeConfig) -> ServeOutcome {
        let cfg = QtConfig::default();
        run_qt_serve(
            NodeId(0),
            fed.catalog.dict.clone(),
            workload(fed, n),
            engines(fed, &cfg),
            &cfg,
            serve,
        )
    }

    #[test]
    fn all_sessions_complete_with_plans() {
        let fed = build_federation(&spec(6, 3));
        let out = run(&fed, 8, &ServeConfig::default());
        assert_eq!(out.reports.len(), 8);
        for r in &out.reports {
            assert!(r.plan.is_some(), "session {} found no plan", r.session);
            assert!(r.finished >= r.started && r.started >= r.arrived);
        }
        assert!(out.qps > 0.0);
        assert!(out.p95_latency >= out.p50_latency);
        assert!(out.messages > 0);
    }

    #[test]
    fn concurrent_results_match_sequential() {
        let fed = build_federation(&spec(6, 7));
        let seq = run(&fed, 8, &ServeConfig::default());
        let conc = run(
            &fed,
            8,
            &ServeConfig {
                concurrency: 4,
                batch_rfbs: true,
                ..ServeConfig::default()
            },
        );
        for (a, b) in seq.reports.iter().zip(&conc.reports) {
            assert_eq!(a.session, b.session);
            assert_eq!(
                format!("{:?}", a.plan),
                format!("{:?}", b.plan),
                "plans diverge for {}",
                a.session
            );
        }
    }

    #[test]
    fn batching_reduces_messages() {
        let fed = build_federation(&spec(8, 11));
        let conc = ServeConfig {
            concurrency: 8,
            batch_rfbs: true,
            ..ServeConfig::default()
        };
        let unbatched = ServeConfig {
            concurrency: 8,
            batch_rfbs: false,
            ..ServeConfig::default()
        };
        let a = run(&fed, 12, &conc);
        let b = run(&fed, 12, &unbatched);
        assert!(
            a.messages < b.messages,
            "batched {} >= unbatched {}",
            a.messages,
            b.messages
        );
        // Batching changes the wire schedule, never the results.
        for (x, y) in a.reports.iter().zip(&b.reports) {
            assert_eq!(format!("{:?}", x.plan), format!("{:?}", y.plan));
        }
    }

    #[test]
    fn concurrency_improves_virtual_throughput() {
        let fed = build_federation(&spec(6, 5));
        let seq = run(&fed, 10, &ServeConfig::default());
        let conc = run(
            &fed,
            10,
            &ServeConfig {
                concurrency: 8,
                batch_rfbs: true,
                ..ServeConfig::default()
            },
        );
        assert!(
            conc.qps >= seq.qps,
            "concurrency should not reduce throughput: {} vs {}",
            conc.qps,
            seq.qps
        );
    }

    #[test]
    fn admission_limits_live_sessions() {
        // Simultaneous arrivals at t=0 with concurrency 2: later sessions
        // must start strictly after earlier ones finish.
        let fed = build_federation(&spec(5, 9));
        let cfg = QtConfig::default();
        let arrivals: Vec<(f64, Query)> = workload(&fed, 6)
            .into_iter()
            .map(|(_, q)| (0.0, q))
            .collect();
        let out = run_qt_serve(
            NodeId(0),
            fed.catalog.dict.clone(),
            arrivals,
            engines(&fed, &cfg),
            &cfg,
            &ServeConfig {
                concurrency: 2,
                batch_rfbs: true,
                ..ServeConfig::default()
            },
        );
        assert_eq!(out.reports.len(), 6);
        let mut by_start: Vec<(f64, f64)> = out
            .reports
            .iter()
            .map(|r| (r.started, r.finished))
            .collect();
        by_start.sort_by(|a, b| a.0.total_cmp(&b.0));
        for w in by_start.windows(3) {
            // With 2 slots, the 3rd-later start waits for some finish.
            assert!(w[2].0 >= w[0].1.min(w[1].1) - 1e-12);
        }
    }
}
