//! The seller side: partial query constructor & cost estimator (S2.1–S2.2)
//! and the seller predicates analyser (S2.3).

use crate::config::{QtConfig, QUERY_MSG_BYTES};
use crate::offer::{Offer, OfferKind, RfbItem};
use qt_catalog::{NodeHoldings, NodeId, RelId};
use qt_cost::{AnswerProperties, CardinalityEstimator, NetLink, NodeResources};
use qt_optimizer::LocalOptimizer;
use qt_query::views::match_view;
use qt_query::{rewrite_for_holdings, MaterializedView, Query};
use qt_trade::semcache::{CacheStats, Probe, ProbeOutcome, SemCache};
use qt_trade::SessionId;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::Arc;

/// A seller's reply to one RFB.
#[derive(Debug, Clone, Default)]
pub struct SellerResponse {
    /// The offers made.
    pub offers: Vec<Offer>,
    /// Optimization effort spent producing them: the sub-plans the model
    /// enumerates for each item, summed over the items. Items that share a
    /// local rewrite each count its enumeration, though the seller runs it
    /// once per reply ([`SellerEngine::local_evaluations`] counts the runs
    /// made).
    pub effort: u64,
}

/// One session's slice of a batched RFB: the buyer coalesces every session's
/// current-round request to the same seller into one message, one entry per
/// session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionRfb {
    /// The negotiation this entry belongs to.
    pub session: SessionId,
    /// Request id, unique per (session, round); retransmissions reuse it.
    pub req: u64,
    /// The session's trading round.
    pub round: u32,
    /// The queries out for bid.
    pub items: Arc<Vec<RfbItem>>,
    /// Market hints for subcontracting sellers (session-isolated: only this
    /// session's own offer pool feeds them).
    pub hints: Arc<Vec<Offer>>,
    /// Session priority (higher = more important). Sellers ignore it;
    /// brokers use it for priority-aware admission shedding.
    pub priority: u8,
}

impl SessionRfb {
    /// The entry's size on the wire, as the simulator charges it: one
    /// [`QUERY_MSG_BYTES`] per item and per hint.
    pub(crate) fn wire_bytes(&self) -> f64 {
        (self.items.len() + self.hints.len()) as f64 * QUERY_MSG_BYTES
    }
}

/// One autonomous selling node's trading engine.
///
/// Owns the node's private state: holdings (data + statistics), resources,
/// materialized views, and strategy. Produces offers for RFBs; learns from
/// award outcomes.
///
/// Replies are memoized per requested query ([`Query::fingerprint`] plus a
/// hints digest when subcontracting is on): a persistent seller that is asked
/// the same query again — the common case for recurring workloads — answers
/// from the cache without re-running its local DP. Cached offers embed the
/// strategy's asks, so anything that changes what a fresh computation would
/// produce (resources, views, a strategy update after an award) invalidates
/// the cache; direct mutation of the public fields must be followed by
/// [`invalidate_offer_cache`](Self::invalidate_offer_cache).
pub struct SellerEngine {
    /// This node's id.
    pub node: NodeId,
    /// Private holdings and statistics.
    pub holdings: NodeHoldings,
    /// Private resources.
    pub resources: NodeResources,
    /// Materialized views this node keeps.
    pub views: Vec<MaterializedView>,
    /// This node's strategy (may differ from the federation default).
    pub strategy: qt_trade::SellerStrategy,
    /// Cumulative optimization effort across all RFBs (read by the drivers).
    pub total_effort: u64,
    /// Rounds in which this node is offline/unresponsive (failure injection
    /// for the availability experiments; networked runs only).
    pub offline_rounds: std::collections::BTreeSet<u32>,
    /// RFB items answered from the offer cache (cumulative).
    pub cache_hits: u64,
    /// RFB items that required a fresh evaluation (cumulative).
    pub cache_misses: u64,
    /// Runs of the modified DP on a local rewrite (cumulative): one per
    /// distinct rewrite per reply call, however many of the call's items
    /// share it. At most `cache_misses` plus the rare recomputation of an
    /// entry evicted mid-reply.
    pub local_evaluations: u64,
    /// RFBs answered from the request-id dedup table (retransmissions and
    /// duplicated deliveries; cumulative).
    pub duplicate_rfbs: u64,
    /// The broker this seller registers its relation digest with (serving
    /// layer with a hierarchy configured; `None` = flat, never advertises).
    pub advertise_to: Option<NodeId>,
    /// Monotone advertisement epoch; brokers discard stale re-deliveries.
    pub ad_epoch: u64,
    /// Standby replica of `advertise_to`'s region, if broker failover is
    /// on: advertisements are mirrored there so a promoted standby already
    /// holds the region's membership and digests.
    pub advertise_cc: Option<NodeId>,
    /// Contracts currently held (awarded and not yet released). Serve-path
    /// ids embed the session (`(session + 1) << 32 | n`), so
    /// [`forget_session`](Self::forget_session) can release one session's
    /// leases without touching the others'.
    contracts: std::collections::BTreeSet<u64>,
    config: QtConfig,
    next_offer: u64,
    /// What the multiplexed serving path remembers per session (offer-id
    /// counter, reply memo), for the [`SELLER_SESSION_MEMORY`] most recent
    /// sessions: a winner is told when its session ends and forgets it
    /// ([`forget_session`](Self::forget_session)), a loser never hears of it
    /// again, so the oldest session makes room for the newest.
    sessions: BTreeMap<SessionId, SessionMemo>,
    /// Memoized RFB replies, keyed by [`cache_key`](Self::cache_key). With
    /// `config.enable_semantic_cache`, an exact-key miss falls back to the
    /// §3.5 view matcher over the cached queries and *derives* offers for
    /// the subsumed request from a cached reply (see
    /// [`derive_offers`](Self::derive_offers)).
    ///
    /// An exact hit trusts the key alone, unlike the serving layer's result
    /// cache, which compares the queries: a colliding entry only hands out
    /// offers that each promise rows for their *own* `query`, and the buyer's
    /// plan generator discards every offer whose query does not fit the
    /// shape it needs. A collision costs the buyer offers, never a wrong
    /// answer, so the per-item deep comparison is not paid.
    offer_cache: SemCache<Vec<Offer>>,
}

/// How many sessions a seller remembers at once: far more than any buyer
/// keeps in flight, so a live session is never the one evicted.
pub(crate) const SELLER_SESSION_MEMORY: usize = 1024;

/// One session's state at a seller.
#[derive(Default)]
struct SessionMemo {
    /// The session's own offer-id sequence: its ids depend only on that
    /// session's request sequence, so a query traded concurrently with
    /// others receives bit-identical offer ids to the same query traded
    /// alone.
    next_offer: u64,
    /// `(request id, the exact reply already sent)` per answered round — a
    /// handful. Distinct from the offer cache: a dedup hit resends
    /// *identical* offers (same ids) so the buyer can discard the duplicate,
    /// whereas an offer-cache hit mints fresh ids.
    replies: Vec<(u64, Vec<Offer>)>,
}

/// Stamp `offers` with `round` and consecutive ids from `next` in `node`'s
/// id space, appending them to `out`.
fn stamp_into(
    out: &mut Vec<Offer>,
    offers: impl IntoIterator<Item = Offer>,
    node: NodeId,
    round: u32,
    next: &mut u64,
) {
    for mut o in offers {
        o.id = ((node.0 as u64) << 32) | *next;
        *next += 1;
        o.round = round;
        out.push(o);
    }
}

impl SellerEngine {
    /// Build a seller from its private holdings.
    pub fn new(holdings: NodeHoldings, config: QtConfig) -> Self {
        let offer_cache = SemCache::new(config.offer_cache_entries);
        SellerEngine {
            node: holdings.node,
            resources: NodeResources::reference(),
            views: Vec::new(),
            strategy: config.seller_strategy.clone(),
            holdings,
            total_effort: 0,
            offline_rounds: std::collections::BTreeSet::new(),
            cache_hits: 0,
            cache_misses: 0,
            local_evaluations: 0,
            duplicate_rfbs: 0,
            advertise_to: None,
            ad_epoch: 0,
            advertise_cc: None,
            contracts: std::collections::BTreeSet::new(),
            config,
            next_offer: 0,
            sessions: BTreeMap::new(),
            offer_cache,
        }
    }

    /// Swap in (re)calibrated cost constants — e.g. a snapshot persisted by
    /// [`crate::calib`] from an earlier serving session. Cached replies were
    /// priced under the old constants, so the offer cache is cleared.
    pub fn set_cost_params(&mut self, params: qt_cost::CostParams) {
        self.config.cost_params = params;
        self.invalidate_offer_cache();
    }

    /// Builder-style resources override.
    pub fn with_resources(mut self, r: NodeResources) -> Self {
        self.resources = r;
        self.invalidate_offer_cache();
        self
    }

    /// Builder-style views. Invalidation is *selective*: only cached replies
    /// whose relation sets intersect the old or new view definitions are
    /// dropped — replies over unrelated relations stay warm.
    pub fn with_views(mut self, views: Vec<MaterializedView>) -> Self {
        let mut rels: BTreeSet<RelId> = self.views.iter().flat_map(|v| v.query.rel_ids()).collect();
        rels.extend(views.iter().flat_map(|v| v.query.rel_ids()));
        self.views = views;
        self.invalidate_offer_cache_rels(&rels);
        self
    }

    /// Drop all memoized replies. Called automatically when resources or
    /// (via an unscoped award observation) the strategy change; call it
    /// manually after mutating the public state fields directly.
    pub fn invalidate_offer_cache(&mut self) {
        self.offer_cache.clear();
    }

    /// Drop only the memoized replies whose relation set intersects `rels` —
    /// the selective hook for relation-scoped mutations (view changes,
    /// partition-stats drift, awards resolved to specific queries). Returns
    /// how many entries were dropped.
    pub fn invalidate_offer_cache_rels(&mut self, rels: &BTreeSet<RelId>) -> usize {
        self.offer_cache.invalidate_rels(rels)
    }

    /// Hit/miss/evict/invalidate counters of the offer cache.
    pub fn cache_stats(&self) -> &CacheStats {
        self.offer_cache.stats()
    }

    fn optimizer(&self) -> LocalOptimizer<'_, NodeHoldings> {
        let mut o = LocalOptimizer::new(&self.holdings)
            .with_enumerator(self.config.enumerator)
            .with_resources(self.resources.clone());
        o.params = self.config.cost_params.clone();
        o
    }

    /// Sessions currently remembered (offer-id counter and reply memo).
    pub(crate) fn remembered_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Delivery properties for a result of `rows × width` bytes costing
    /// `local_cost` node-seconds to produce.
    fn delivery_props(&self, local_cost: f64, rows: f64, width: f64) -> AnswerProperties {
        let bytes = rows * width;
        let transfer = NetLink::wan().transfer_time(bytes);
        let mut p = AnswerProperties::timed(local_cost + transfer, rows, bytes);
        p.first_row_time = local_cost * 0.5 + NetLink::wan().first_byte_time();
        p
    }

    /// Offers carry a placeholder round and id (0) until
    /// [`evaluate`](Self::evaluate) sets each item's round and the merge
    /// step of a reply stamps the ids, so evaluation runs on `&self`.
    fn make_offer(&self, query: Query, true_props: AnswerProperties, kind: OfferKind) -> Offer {
        let ask = self.strategy.ask_for(&true_props);
        Offer {
            id: 0,
            seller: self.node,
            query: query.into(),
            true_cost: self.config.valuation.score(&true_props),
            props: ask,
            kind,
            round: 0,
            subcontracts: vec![],
        }
    }

    /// The memoization key for one RFB item: the query fingerprint, mixed
    /// with a digest of the hint book when subcontracting is on (composite
    /// offers are assembled *from* the hints, so a reply is only reusable
    /// while the hints match).
    ///
    /// The hint digest is order-canonical: each hint is FNV-digested on its
    /// own and the per-hint digests combine with a commutative fold, so the
    /// same hint *set* arriving in a different order — offers travel through
    /// order-scrambling transports — maps to the same key instead of a
    /// spurious miss.
    ///
    /// This is the one place an RFB item is fingerprinted: the [`ItemKey`]
    /// carries the fingerprint on to the cache insertion.
    fn cache_key(&self, q: &Query, hints: &[Offer]) -> ItemKey {
        let fingerprint = q.fingerprint();
        let mut key = fingerprint;
        if self.config.enable_subcontracting && !hints.is_empty() {
            let mut combined = 0u64;
            for h in hints {
                let mut digest = 0xcbf2_9ce4_8422_2325u64;
                let mut mix = |v: u64| {
                    digest ^= v;
                    digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
                };
                mix(h.seller.0 as u64);
                mix(h.query.fingerprint());
                mix(h.props.total_time.to_bits());
                mix(h.props.price.to_bits());
                combined = combined.wrapping_add(digest);
            }
            key ^= combined;
        }
        ItemKey { fingerprint, key }
    }

    /// Memoize `offers` as the reply to `query` under `key`.
    fn cache_reply(&mut self, key: ItemKey, query: &Query, offers: &[Offer], benefit: f64) {
        self.offer_cache.insert_fingerprinted(
            key.key,
            key.fingerprint,
            query.clone(),
            offers.to_vec(),
            benefit,
        );
    }

    /// Respond to an RFB: rewrite each requested query for local holdings,
    /// run the modified DP for partial offers, add partial-aggregate and
    /// materialized-view offers.
    pub fn respond(&mut self, round: u32, items: &[RfbItem]) -> SellerResponse {
        self.respond_with_hints(round, items, &[])
    }

    /// Like [`respond`](Self::respond), but with *market hints* — fragment
    /// offers the buyer has already seen, which subcontracting sellers may
    /// buy from third nodes to assemble composite offers (§3.5).
    ///
    /// The RFB is one request of the seller's one reply path (`schedule`,
    /// then `merge`), its offer ids drawn from the engine-wide sequence.
    pub fn respond_with_hints(
        &mut self,
        round: u32,
        items: &[RfbItem],
        hints: &[Offer],
    ) -> SellerResponse {
        let mut scheduled = self.schedule(vec![(round, items, hints)]);
        let mut next = self.next_offer;
        let resp = self.merge(&mut scheduled, 0, &mut next);
        self.next_offer = next;
        resp
    }

    /// The lookup and evaluation half of a reply to `requests`. Each
    /// distinct item key is probed once, in the pre-reply cache state, at
    /// its first reference: exact hits need no work, semantic hits derive
    /// their offers here (cheap, read-only), and the misses of *all* the
    /// requests are evaluated together — one run of the modified DP per
    /// distinct local rewrite.
    fn schedule<'a>(&mut self, requests: Vec<Request<'a>>) -> Scheduled<'a> {
        let mut jobs: Vec<EvalJob<'a>> = Vec::new();
        let mut seen = HashSet::new();
        let semantic = self.config.enable_semantic_cache;
        let mut slotted = Vec::with_capacity(requests.len());
        for (round, items, hints) in requests {
            let mut slots = Vec::with_capacity(items.len());
            for item in items {
                let key = self.cache_key(&item.query, hints);
                let probe = seen
                    .insert(key.key)
                    .then(|| self.offer_cache.probe(key.key, &item.query, semantic));
                let derived = match probe {
                    None | Some(Probe::Exact) => {
                        slots.push((key, Slot::Cached));
                        continue;
                    }
                    Some(Probe::Semantic(cands)) => cands.iter().find_map(|(k, _)| {
                        let e = self.offer_cache.get(*k).expect("probed candidate exists");
                        self.derive_offers(round, &item.query, &e.query, &e.value)
                    }),
                    Some(Probe::Miss) => None,
                };
                let slot = match derived {
                    Some(d) => Slot::Derived(d),
                    None => {
                        jobs.push(EvalJob {
                            round,
                            query: &item.query,
                            hints,
                        });
                        Slot::Fresh(jobs.len() - 1)
                    }
                };
                slots.push((key, slot));
            }
            slotted.push(((round, items, hints), slots));
        }
        Scheduled {
            fresh: self.evaluate(&jobs),
            requests: slotted,
        }
    }

    /// The merge half: request `i`'s reply, its items in order, its offers
    /// stamped with ids from `next`. The cache is filled at each key's first
    /// reference (= scheduling order), which is charged the effort of a
    /// fresh evaluation; later references in the same call are cache hits,
    /// exactly as they would be had the requests arrived one by one.
    fn merge(&mut self, scheduled: &mut Scheduled<'_>, i: usize, next: &mut u64) -> SellerResponse {
        let ((round, items, hints), ref mut slots) = scheduled.requests[i];
        let mut resp = SellerResponse::default();
        for (item, (key, slot)) in items.iter().zip(std::mem::take(slots)) {
            let offers = match slot {
                Slot::Fresh(j) => {
                    let r = std::mem::take(&mut scheduled.fresh[j]);
                    self.cache_misses += 1;
                    self.offer_cache.record(ProbeOutcome::Miss);
                    resp.effort += r.effort;
                    self.cache_reply(key, &item.query, &r.offers, r.effort as f64);
                    r.offers
                }
                Slot::Derived(d) => {
                    self.cache_hits += 1;
                    self.offer_cache.record(ProbeOutcome::HitSemantic);
                    self.cache_reply(key, &item.query, &d, 0.0);
                    d
                }
                Slot::Cached => {
                    self.cache_hits += 1;
                    self.offer_cache.record(ProbeOutcome::HitExact);
                    if let Some(e) = self.offer_cache.get(key.key) {
                        let cached = e.value.iter().cloned();
                        stamp_into(&mut resp.offers, cached, self.node, round, next);
                        continue;
                    }
                    // Evicted between probe and merge by an earlier item's
                    // insertion (bounded cache): recompute.
                    let job = EvalJob {
                        round,
                        query: &item.query,
                        hints,
                    };
                    let r = self.evaluate(&[job]).remove(0);
                    resp.effort += r.effort;
                    r.offers
                }
            };
            stamp_into(&mut resp.offers, offers, self.node, round, next);
        }
        self.total_effort += resp.effort;
        resp
    }

    /// Rewrite the offers of a cached reply for `cached_q` into offers for
    /// the subsumed request `q` (`q ⊑ cached_q`, same `FROM` extents). The
    /// derived offers use the exact syntactic shapes the buyer's plan
    /// generator matches, and each one's `query` field still describes the
    /// rows the seller would deliver — execution always re-derives from the
    /// offered query over the seller's holdings, so a derived promise is
    /// sound whenever the original was; only the attached pricing stays the
    /// estimate struck for `cached_q`. Returns `None` when any offer resists
    /// a sound rewrite, and the caller falls back to a fresh evaluation.
    fn derive_offers(
        &self,
        round: u32,
        q: &Query,
        cached_q: &Query,
        offers: &[Offer],
    ) -> Option<Vec<Offer>> {
        let q_core = q.strip_aggregation();
        let mut out = Vec::with_capacity(offers.len());
        for o in offers {
            if !o.subcontracts.is_empty() {
                // Composite offers embed third-party promises shaped for
                // `cached_q`; rewriting those is not ours to do.
                return None;
            }
            let derived_query = if o.query == *cached_q {
                // Whole-answer promise (sorted delivery, view answers): a
                // node able to produce all of `cached_q` can produce all of
                // the narrower `q` over the same extents.
                q.clone()
            } else if o.kind == OfferKind::PartialAggregate {
                // Pre-aggregated fragment over this node's partitions, in
                // `q`'s aggregate shape (mirrors the fresh-path guard).
                if !q.is_aggregate() || !q.aggregates_decomposable() {
                    return None;
                }
                let mut agg = q.clone();
                agg.order_by.clear();
                for (rel, parts) in &o.query.relations {
                    agg.relations.insert(*rel, *parts);
                }
                agg
            } else {
                // Row fragment over a relation subset: re-derive `q`'s
                // canonical fragment over the same subset, keeping the
                // offer's partition coverage.
                let rels: BTreeSet<RelId> = o.query.rel_ids().collect();
                let mut frag = q_core.restrict_to_rels(&rels);
                for (rel, parts) in &o.query.relations {
                    frag.relations.insert(*rel, *parts);
                }
                frag
            };
            let mut d = o.clone();
            d.query = derived_query.into();
            d.round = round;
            out.push(d);
        }
        Some(out)
    }

    /// Answer a batched RFB covering several concurrent sessions in one
    /// pass. Returns one [`SellerResponse`] per entry, in entry order.
    ///
    /// The offer cache is *shared across sessions* — two sessions asking the
    /// same query (same fingerprint, same hints digest) evaluate it once, in
    /// the one `schedule` of the whole batch — while everything a session
    /// can observe stays isolated: offer ids come from per-session counters,
    /// and hints only affect the cache key of the session that sent them. Entries whose request id is already in the
    /// dedup memo (retransmissions, or a request repeated within the batch)
    /// are answered identically at zero effort.
    pub fn respond_batch(&mut self, entries: &[SessionRfb]) -> Vec<SellerResponse> {
        // A remembered request schedules nothing; the memo is checked again
        // at merge time.
        let requests = entries
            .iter()
            .map(|e| {
                let memoised = self.memoised_reply(e).is_some();
                (
                    e.round,
                    if memoised { &[] } else { &e.items[..] },
                    &e.hints[..],
                )
            })
            .collect();
        let mut scheduled = self.schedule(requests);
        let mut out = Vec::with_capacity(entries.len());
        for (i, e) in entries.iter().enumerate() {
            if let Some(offers) = self.memoised_reply(e) {
                let offers = offers.clone();
                self.duplicate_rfbs += 1;
                out.push(SellerResponse { offers, effort: 0 });
                continue;
            }
            let mut next = self.sessions.get(&e.session).map_or(0, |m| m.next_offer);
            let resp = self.merge(&mut scheduled, i, &mut next);
            let memo = self.sessions.entry(e.session).or_default();
            memo.next_offer = next;
            memo.replies.push((e.req, resp.offers.clone()));
            while self.sessions.len() > SELLER_SESSION_MEMORY {
                self.sessions.pop_first();
            }
            out.push(resp);
        }
        out
    }

    /// The reply already sent for `e`'s request id, if still remembered.
    fn memoised_reply(&self, e: &SessionRfb) -> Option<&Vec<Offer>> {
        let memo = self.sessions.get(&e.session)?;
        memo.replies.iter().find(|r| r.0 == e.req).map(|r| &r.1)
    }

    /// Drop the offer-id counter, reply memos and leases of a finished
    /// session. Reached at the sellers a session awarded (or released); the
    /// others age the session out of `SELLER_SESSION_MEMORY`.
    pub fn forget_session(&mut self, session: SessionId) {
        self.sessions.remove(&session);
        self.contracts.retain(|&c| (c >> 32) != session.0 + 1);
    }

    /// Record an incoming award. Returns `true` the first time `contract` is
    /// seen — the caller fires [`observe_award`](Self::observe_award) exactly
    /// once; retransmitted awards are re-acked without re-learning.
    pub fn accept_award(&mut self, contract: u64) -> bool {
        self.contracts.insert(contract)
    }

    /// Whether this seller currently holds `contract` (lease renewals only
    /// answer for contracts actually held).
    pub fn has_contract(&self, contract: u64) -> bool {
        self.contracts.contains(&contract)
    }

    /// The buyer released `contract` (completed). Idempotent.
    pub fn release_contract(&mut self, contract: u64) {
        self.contracts.remove(&contract);
    }

    /// Whether any live contract belongs to `session` (serve path: the
    /// seller's per-session state is kept until the last lease is released).
    pub fn session_has_contracts(&self, session: SessionId) -> bool {
        let lo = (session.0 + 1) << 32;
        let hi = (session.0 + 2) << 32;
        self.contracts.range(lo..hi).next().is_some()
    }

    /// Fresh replies for `jobs`, in job order, with the modified DP run once
    /// per distinct local rewrite: S2.1 rewrites every job for the local
    /// holdings, the jobs are grouped by rewrite ([`group_by_rewrite`]), and
    /// the groups are evaluated in order.
    ///
    /// A job's reply is its group's [`local_offers`](Self::local_offers)
    /// followed by its own [`item_offers`](Self::item_offers), every offer
    /// carrying the job's round, and reports the effort of both: exactly
    /// what evaluating the job alone would produce. Effort is the model's
    /// count of enumerated sub-plans per item, so a shared evaluation is
    /// replayed into every item that shares it; the DP runs actually made
    /// are counted in [`local_evaluations`](Self::local_evaluations).
    fn evaluate(&mut self, jobs: &[EvalJob<'_>]) -> Vec<SellerResponse> {
        // An all-hits reply, a warm seller's normal case, skips the set-up.
        if jobs.is_empty() {
            return Vec::new();
        }
        let rewrites: Vec<Option<Query>> = jobs
            .iter()
            .map(|job| rewrite_for_holdings(job.query, &self.holdings))
            .collect();
        let groups = group_by_rewrite(&rewrites);
        self.local_evaluations += groups.iter().filter(|g| g.local.is_some()).count() as u64;
        let optimizer = self.optimizer();
        let mut out = vec![SellerResponse::default(); jobs.len()];
        for group in &groups {
            let mut shared = group
                .local
                .map_or_else(SellerResponse::default, |(_, q_local)| {
                    self.local_offers(q_local, &optimizer)
                });
            let last = group.members.len() - 1;
            for (i, &j) in group.members.iter().enumerate() {
                let mine = self.item_offers(&jobs[j], rewrites[j].as_ref(), &optimizer);
                // The last member takes the group's offers; the others copy.
                let mut offers = if i == last {
                    std::mem::take(&mut shared.offers)
                } else {
                    shared.offers.clone()
                };
                offers.extend(mine.offers);
                for o in &mut offers {
                    o.round = jobs[j].round;
                }
                out[j] = SellerResponse {
                    offers,
                    effort: shared.effort + mine.effort,
                };
            }
        }
        out
    }

    /// S2.2 on one local rewrite: the modified DP's optimal k-way partials
    /// become offers. Depends only on `q_local` and this seller's state, so
    /// every item with this rewrite shares the result.
    fn local_offers(
        &self,
        q_local: &Query,
        optimizer: &LocalOptimizer<'_, NodeHoldings>,
    ) -> SellerResponse {
        let (partials, mut effort) = optimizer.partial_results(q_local, self.config.max_partial_k);
        // Each partial's sub-query moves into its offer; its plan is never
        // built — an offer promises rows, not a plan.
        let mut offers: Vec<Offer> = partials
            .into_iter()
            .map(|p| {
                let props = self.delivery_props(p.cost, p.rows, p.width);
                self.make_offer(p.query, props, OfferKind::Rows)
            })
            .collect();
        // Per-partition sub-offers for multi-partition single-relation
        // fragments: replicas overlap across sellers, and the buyer can only
        // union *disjoint* fragments — singleton-partition offers guarantee
        // an exact tiling always exists.
        for i in 0..offers.len() {
            let whole = offers[i].query.clone();
            if whole.num_relations() != 1 {
                continue;
            }
            let (&rel, parts) = whole.relations.iter().next().expect("one relation");
            if parts.len() <= 1 {
                continue;
            }
            for idx in parts.iter() {
                let sub = whole.with_partset(rel, qt_query::PartSet::single(idx));
                let o = optimizer.optimize(&sub);
                effort += o.effort;
                let props = self.delivery_props(o.cost, o.rows, o.width);
                offers.push(self.make_offer(sub, props, OfferKind::Rows));
            }
        }
        SellerResponse { offers, effort }
    }

    /// The offers one RFB item gets beyond its rewrite's
    /// [`local_offers`](Self::local_offers): those that depend on the
    /// requested query itself or on the hints.
    fn item_offers(
        &self,
        job: &EvalJob<'_>,
        q_local: Option<&Query>,
        optimizer: &LocalOptimizer<'_, NodeHoldings>,
    ) -> SellerResponse {
        let q = job.query;
        let mut resp = SellerResponse::default();
        if let Some(q_local) = q_local {
            // Partial aggregates: only meaningful when the seller sees every
            // relation of the query (its fragment is then a clean sub-cube
            // of the join, pre-aggregable per group).
            if q.is_aggregate()
                && q.aggregates_decomposable()
                && q_local.num_relations() == q.num_relations()
            {
                let mut agg_q = q.clone();
                agg_q.order_by.clear();
                for (rel, parts) in &q_local.relations {
                    agg_q.relations.insert(*rel, *parts);
                }
                let o = optimizer.optimize(&agg_q);
                resp.effort += o.effort;
                let props = self.delivery_props(o.cost, o.rows, o.width);
                resp.offers
                    .push(self.make_offer(agg_q, props, OfferKind::PartialAggregate));
            }

            // Sorted delivery: when the query wants an ordering and this
            // node can answer it exactly, offer the *sorted* answer — the
            // buyer can then skip its local sort (the "addition/removal of
            // sorting predicates" dimension of the predicates analysers).
            if !q.is_aggregate()
                && !q.order_by.is_empty()
                && qt_query::rewrite::can_answer_exactly(q, &self.holdings)
            {
                let o = optimizer.optimize(q);
                resp.effort += o.effort;
                let props = self.delivery_props(o.cost, o.rows, o.width);
                resp.offers
                    .push(self.make_offer(q.clone(), props, OfferKind::Rows));
            }

            // §3.5 subcontracting: when this node lacks some relations, it
            // may buy their fragments from third nodes (via the buyer's
            // market hints) and offer the composite join wholesale.
            if self.config.enable_subcontracting
                && !job.hints.is_empty()
                && q_local.num_relations() < q.num_relations()
            {
                if let Some((offer, effort)) =
                    self.subcontract_offer(q, q_local, job.hints, optimizer)
                {
                    resp.effort += effort;
                    resp.offers.push(offer);
                }
            }
        }

        // S2.3: seller predicates analyser — materialized views can answer
        // the query (even over data this node does not hold as base
        // relations) at the cost of a view scan plus residual work.
        resp.offers.extend(
            self.views
                .iter()
                .filter_map(|view| self.view_offer(q, view)),
        );
        resp
    }

    /// Build a composite offer for the whole SPJ core of `q`: this node's
    /// local fragment joined with purchased fragments of the relations it
    /// lacks. Returns `None` unless every missing relation has a hint
    /// covering its full requested extent.
    fn subcontract_offer(
        &self,
        q: &Query,
        q_local: &Query,
        hints: &[Offer],
        optimizer: &LocalOptimizer<'_, NodeHoldings>,
    ) -> Option<(Offer, u64)> {
        let q_core = q.strip_aggregation();
        let mut subs = Vec::new();
        let mut sub_delivery = 0.0f64;
        let mut sub_price = 0.0f64;
        let mut sub_rows = 0.0f64;
        let mut sub_bytes = 0.0f64;
        for rel in q.rel_ids() {
            if q_local.relations.contains_key(&rel) {
                continue;
            }
            let expected = q_core.restrict_to_rels(&std::collections::BTreeSet::from([rel]));
            let hint = hints
                .iter()
                .filter(|h| h.query == expected && h.seller != self.node)
                .min_by(|a, b| a.props.total_time.total_cmp(&b.props.total_time))?;
            sub_delivery = sub_delivery.max(hint.props.total_time);
            sub_price += hint.props.price;
            sub_rows = sub_rows.max(hint.props.rows);
            sub_bytes += hint.props.bytes;
            subs.push((hint.seller, hint.query.clone()));
        }
        if subs.is_empty() {
            return None;
        }
        // Composite query: the full SPJ core, with this node's partition
        // coverage on its own relations.
        let mut composite = q_core.clone();
        for (rel, parts) in &q_local.relations {
            composite.relations.insert(*rel, *parts);
        }
        // Cost: local fragment computed in parallel with sub-deliveries,
        // then joined locally and shipped out.
        let own = optimizer.optimize(q_local);
        let p = &self.config.cost_params;
        let est = CardinalityEstimator::new(&self.holdings);
        let composite_est = est.estimate(&composite);
        let out_rows = composite_est.rows.max(1.0);
        let join_cost = p.hash_join(
            own.rows.min(sub_rows.max(1.0)),
            own.rows.max(sub_rows),
            out_rows,
        ) * self.resources.cpu_factor();
        let width = composite_est.width;
        let local_path = own.cost.max(sub_delivery) + join_cost;
        let mut props = self.delivery_props(local_path, out_rows, width);
        props.bytes += sub_bytes; // shipped twice: to us, then onward
        props.price += sub_price;
        let mut offer = self.make_offer(composite, props, OfferKind::Rows);
        offer.subcontracts = subs;
        Some((offer, own.effort))
    }

    fn view_offer(&self, q: &Query, view: &MaterializedView) -> Option<Offer> {
        let m = match_view(&view.query, q)?;
        let est = CardinalityEstimator::new(&self.holdings);
        let view_rows = est.estimate(&view.query);
        let out = est.estimate(q);
        // Cost: scan the materialized rows, apply residuals / re-aggregate.
        let p = &self.config.cost_params;
        let mut cost = p.scan(view_rows.rows, view_rows.width) * self.resources.io_factor();
        if !m.residual_predicates.is_empty() {
            cost += p.filter(view_rows.rows) * self.resources.cpu_factor();
        }
        if m.needs_reaggregation {
            cost += p.aggregate(view_rows.rows, out.rows) * self.resources.cpu_factor();
        }
        let mut props = self.delivery_props(cost, out.rows, out.width);
        props.freshness = 0.9; // materialized data is one refresh behind
        Some(self.make_offer(q.clone(), props, OfferKind::FromView))
    }

    /// Learn from the buyer's award: `won` per offer this seller made.
    /// Cached replies embed asks priced under the pre-award strategy, so a
    /// strategy update (adaptive markup) drops them — this unscoped form
    /// conservatively drops *all* of them; prefer the scoped variants when
    /// the award's queries are known.
    pub fn observe_award(&mut self, won: bool) {
        let before = self.strategy.clone();
        self.strategy.observe_outcome(won);
        if self.strategy != before {
            self.invalidate_offer_cache();
        }
    }

    /// [`observe_award`](Self::observe_award) with the awarded (or lost)
    /// queries' relation set: a strategy move only drops cached replies
    /// whose relations intersect `rels` — replies about unrelated data keep
    /// their asks, which were computed by the *same* strategy state those
    /// queries would see on a fresh trade next time they are RFB'd alone.
    pub fn observe_award_scoped(&mut self, won: bool, rels: &BTreeSet<RelId>) {
        let before = self.strategy.clone();
        self.strategy.observe_outcome(won);
        if self.strategy != before {
            self.invalidate_offer_cache_rels(rels);
        }
    }

    /// Award observation keyed by `(session, offer id)`, as carried by the
    /// wire `Award` messages: the invalidation scope is resolved from the
    /// session's own reply memo (offer ids are per-session sequences). An id
    /// the memo no longer knows falls back to the conservative full clear.
    pub fn observe_award_for_offer(&mut self, won: bool, session: SessionId, offer_id: u64) {
        let awarded = self.sessions.get(&session).and_then(|m| {
            let mut replies = m.replies.iter().flat_map(|r| &r.1);
            replies.find(|o| o.id == offer_id)
        });
        match awarded {
            Some(o) => {
                let rels: BTreeSet<RelId> = o.query.rel_ids().collect();
                self.observe_award_scoped(won, &rels);
            }
            None => self.observe_award(won),
        }
    }
}

/// One RFB item's identity, computed once per item by
/// [`SellerEngine::cache_key`].
#[derive(Debug, Clone, Copy)]
struct ItemKey {
    /// The requested query's [`Query::fingerprint`].
    fingerprint: u64,
    /// The offer-cache key: the fingerprint, mixed with the hints digest
    /// when subcontracting is on.
    key: u64,
}

/// One RFB a reply answers: a round, its items and the hints they came
/// with.
type Request<'a> = (u32, &'a [RfbItem], &'a [Offer]);

/// A reply after [`SellerEngine::schedule`], waiting for
/// [`SellerEngine::merge`].
struct Scheduled<'a> {
    /// The requests, in call order, each with its items' keys and slots in
    /// item order.
    requests: Vec<(Request<'a>, Vec<(ItemKey, Slot)>)>,
    /// The misses' fresh evaluations, in job order.
    fresh: Vec<SellerResponse>,
}

/// Where the merge finds one item's offers, decided at scheduling.
enum Slot {
    /// The cache: an exact hit, or a key an earlier item of the call
    /// references first.
    Cached,
    /// A semantic hit's derived offers.
    Derived(Vec<Offer>),
    /// A miss: its evaluation's index in [`Scheduled::fresh`].
    Fresh(usize),
}

/// One RFB item to evaluate afresh ([`SellerEngine::evaluate`]).
struct EvalJob<'a> {
    /// The round its offers are made in.
    round: u32,
    /// The requested query.
    query: &'a Query,
    /// The market hints it came with.
    hints: &'a [Offer],
}

/// Jobs that share a local rewrite: their modified DP runs once.
struct RewriteGroup<'a> {
    /// The shared rewrite and its fingerprint; `None` for the jobs this
    /// node holds nothing of.
    local: Option<(u64, &'a Query)>,
    /// The member jobs' indices, ascending.
    members: Vec<usize>,
}

/// Group job indices by their local rewrite: one group per distinct rewrite,
/// told apart by fingerprint first and then by equality (two rewrites whose
/// fingerprints collide stay apart), plus one group for the jobs without a
/// rewrite. A reply has a few groups — about one per seller and RFB on
/// `trade_cold` — so a scan of them beats a hash map. The grouping lives
/// for one reply call, so nothing needs invalidating.
fn group_by_rewrite(rewrites: &[Option<Query>]) -> Vec<RewriteGroup<'_>> {
    let mut groups: Vec<RewriteGroup<'_>> = Vec::new();
    for (j, rewrite) in rewrites.iter().enumerate() {
        let local = rewrite.as_ref().map(|q| (q.fingerprint(), q));
        // The tuple compares fingerprints before it compares queries.
        match groups.iter_mut().find(|g| g.local == local) {
            Some(g) => g.members.push(j),
            None => groups.push(RewriteGroup {
                local,
                members: vec![j],
            }),
        }
    }
    groups
}

/// Canonical request id for `session`'s RFB in `round`: the session (plus
/// one, so no id is zero) in the high word, the round in the low word.
/// Contract ids use the same high word, and
/// [`SellerEngine::forget_session`] relies on that encoding to drop exactly
/// one session's memos and leases.
pub fn session_req(session: SessionId, round: u32) -> u64 {
    ((session.0 + 1) << 32) | round as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use qt_catalog::{
        AttrType, Catalog, CatalogBuilder, PartId, PartitionStats, Partitioning, RelationSchema,
        Value,
    };
    use qt_query::{parse_query, PartSet, SharedQuery};

    /// The telecom setup: customer partitioned over 3 offices, invoiceline
    /// held fully by Myconos (node 2) and Athens (node 0).
    fn catalog() -> Catalog {
        let mut b = CatalogBuilder::new();
        let cust = b.add_relation(
            RelationSchema::new(
                "customer",
                vec![
                    ("custid", AttrType::Int),
                    ("custname", AttrType::Str),
                    ("office", AttrType::Str),
                ],
            ),
            Partitioning::List {
                attr: 2,
                groups: vec![
                    vec![Value::str("Athens")],
                    vec![Value::str("Corfu")],
                    vec![Value::str("Myconos")],
                ],
            },
        );
        let inv = b.add_relation(
            RelationSchema::new(
                "invoiceline",
                vec![
                    ("invid", AttrType::Int),
                    ("linenum", AttrType::Int),
                    ("custid", AttrType::Int),
                    ("charge", AttrType::Float),
                ],
            ),
            Partitioning::Single,
        );
        for i in 0..3u16 {
            b.set_stats(
                PartId::new(cust, i),
                PartitionStats::synthetic(1_000, &[1_000, 900, 1]),
            );
            b.place(PartId::new(cust, i), NodeId(i as u32));
        }
        b.set_stats(
            PartId::new(inv, 0),
            PartitionStats::synthetic(10_000, &[2_000, 5, 3_000, 500]),
        );
        b.place(PartId::new(inv, 0), NodeId(0));
        b.place(PartId::new(inv, 0), NodeId(2));
        b.build()
    }

    fn motivating(cat: &Catalog) -> Query {
        parse_query(
            &cat.dict,
            "SELECT office, SUM(charge) FROM customer, invoiceline \
             WHERE customer.custid = invoiceline.custid GROUP BY office",
        )
        .unwrap()
    }

    fn rfb(q: &Query) -> Vec<RfbItem> {
        vec![RfbItem {
            query: q.clone(),
            ref_value: f64::INFINITY,
        }]
    }

    /// Session 0's request for `q` in `round`, as the buyer stages it.
    fn entry(round: u32, q: &Query) -> SessionRfb {
        SessionRfb {
            session: SessionId(0),
            req: session_req(SessionId(0), round),
            round,
            items: Arc::new(rfb(q)),
            hints: Arc::new(Vec::new()),
            priority: 0,
        }
    }

    #[test]
    fn myconos_offers_partials_and_partial_aggregate() {
        let cat = catalog();
        let q = motivating(&cat);
        let mut seller = SellerEngine::new(cat.holdings_of(NodeId(2)), QtConfig::default());
        let resp = seller.respond(0, &rfb(&q));
        assert!(resp.effort > 0);
        // Singletons (customer_myc, invoiceline), the 2-way join, and the
        // partial aggregate.
        let kinds: Vec<OfferKind> = resp.offers.iter().map(|o| o.kind).collect();
        assert!(kinds.contains(&OfferKind::PartialAggregate));
        assert!(
            resp.offers
                .iter()
                .filter(|o| o.kind == OfferKind::Rows)
                .count()
                >= 3
        );
        // The partial aggregate is restricted to the Myconos partition.
        let agg = resp
            .offers
            .iter()
            .find(|o| o.kind == OfferKind::PartialAggregate)
            .unwrap();
        assert_eq!(
            agg.query.relations[&qt_catalog::RelId(0)],
            PartSet::single(2)
        );
        assert!(agg.query.is_aggregate());
        // Offers are priced: positive time, positive rows.
        for o in &resp.offers {
            assert!(o.props.total_time > 0.0, "{:?}", o);
            assert!(o.true_cost > 0.0);
        }
    }

    #[test]
    fn corfu_cannot_offer_partial_aggregate_without_invoiceline() {
        let cat = catalog();
        let q = motivating(&cat);
        let mut seller = SellerEngine::new(cat.holdings_of(NodeId(1)), QtConfig::default());
        let resp = seller.respond(0, &rfb(&q));
        assert!(resp.offers.iter().all(|o| o.kind == OfferKind::Rows));
        // It still offers its customer partition.
        assert_eq!(resp.offers.len(), 1);
        assert_eq!(resp.offers[0].query.num_relations(), 1);
    }

    #[test]
    fn empty_node_offers_nothing() {
        let cat = catalog();
        let q = motivating(&cat);
        let mut seller = SellerEngine::new(cat.holdings_of(NodeId(9)), QtConfig::default());
        let resp = seller.respond(0, &rfb(&q));
        assert!(resp.offers.is_empty());
        assert_eq!(resp.effort, 0);
    }

    #[test]
    fn markup_strategy_inflates_asks() {
        let cat = catalog();
        let q = motivating(&cat);
        let cfg = QtConfig::default();
        let mut honest = SellerEngine::new(cat.holdings_of(NodeId(2)), cfg.clone());
        let mut greedy = SellerEngine::new(cat.holdings_of(NodeId(2)), cfg);
        greedy.strategy = qt_trade::SellerStrategy::fixed_markup(2.0);
        let h = honest.respond(0, &rfb(&q));
        let g = greedy.respond(0, &rfb(&q));
        for (a, b) in h.offers.iter().zip(&g.offers) {
            assert!(b.props.total_time > a.props.total_time * 1.9);
            assert!(
                (a.true_cost - b.true_cost).abs() < 1e-9,
                "true cost unchanged"
            );
        }
    }

    #[test]
    fn view_offer_answers_query_cheaply() {
        let cat = catalog();
        let q = motivating(&cat);
        // Node 1 (Corfu) materializes the full aggregate at finer grain.
        let finer = parse_query(
            &cat.dict,
            "SELECT office, custname, SUM(charge) FROM customer, invoiceline \
             WHERE customer.custid = invoiceline.custid GROUP BY office, custname",
        )
        .unwrap();
        let mut seller = SellerEngine::new(cat.holdings_of(NodeId(1)), QtConfig::default())
            .with_views(vec![MaterializedView::new("charges_by_cust", finer)]);
        let resp = seller.respond(0, &rfb(&q));
        let view_offers: Vec<&Offer> = resp
            .offers
            .iter()
            .filter(|o| o.kind == OfferKind::FromView)
            .collect();
        assert_eq!(view_offers.len(), 1);
        let vo = view_offers[0];
        assert_eq!(vo.query, q, "view offer promises the full query");
        assert!(vo.props.freshness < 1.0);
    }

    #[test]
    fn offer_ids_are_unique_across_rounds() {
        let cat = catalog();
        let q = motivating(&cat);
        let mut seller = SellerEngine::new(cat.holdings_of(NodeId(2)), QtConfig::default());
        let mut ids = std::collections::HashSet::new();
        for round in 0..3 {
            for o in seller.respond(round, &rfb(&q)).offers {
                assert!(ids.insert(o.id), "duplicate offer id {}", o.id);
            }
        }
    }

    #[test]
    fn adaptive_strategy_learns_from_awards() {
        let cat = catalog();
        let mut seller = SellerEngine::new(cat.holdings_of(NodeId(2)), QtConfig::default());
        seller.strategy = qt_trade::SellerStrategy::adaptive_markup(1.2);
        seller.observe_award(false);
        assert!(seller.strategy.current_markup() < 1.2);
    }

    #[test]
    fn repeated_rfb_hits_offer_cache() {
        let cat = catalog();
        let q = motivating(&cat);
        let mut seller = SellerEngine::new(cat.holdings_of(NodeId(2)), QtConfig::default());
        let first = seller.respond(0, &rfb(&q));
        assert_eq!((seller.cache_hits, seller.cache_misses), (0, 1));
        let effort_after_first = seller.total_effort;
        assert!(effort_after_first > 0);

        let second = seller.respond(1, &rfb(&q));
        assert_eq!((seller.cache_hits, seller.cache_misses), (1, 1));
        assert_eq!(second.effort, 0, "a cache hit costs no optimization effort");
        assert_eq!(seller.total_effort, effort_after_first);
        assert_eq!(first.offers.len(), second.offers.len());
        for (a, b) in first.offers.iter().zip(&second.offers) {
            assert_ne!(a.id, b.id, "replies always carry fresh offer ids");
            assert_eq!(
                b.round, 1,
                "cached offers are restamped to the current round"
            );
            assert_eq!(a.query, b.query);
            assert_eq!(a.props, b.props);
            assert_eq!(a.kind, b.kind);
        }
    }

    /// A fingerprint collision in the offer cache — simulated by filing the
    /// reply priced for another query under the request's key — is served
    /// as an exact hit, yet the buyer's plan stays correct: each poisoned
    /// offer promises rows for its own query, and plan generation discards
    /// the ones that do not fit, however cheap.
    #[test]
    fn a_poisoned_offer_cache_never_yields_a_wrong_plan() {
        use crate::driver::run_qt_direct;
        use qt_exec::reference::approx_same_rows;
        use qt_exec::{evaluate_query, DataStore};
        use qt_workload::{telecom_federation, TelecomSpec};
        // invoiceline replicas on nodes 0 and 2.
        let (cat, stores) = telecom_federation(&TelecomSpec {
            offices: 4,
            invoice_replicas: 2,
            ..TelecomSpec::default()
        });
        let cfg = QtConfig::default();
        let sql =
            |floor: u32| format!("SELECT invid, charge FROM invoiceline WHERE charge > {floor}");
        let q = parse_query(&cat.dict, &sql(100)).unwrap();
        let narrower = parse_query(&cat.dict, &sql(190)).unwrap();
        let mut sellers: BTreeMap<NodeId, SellerEngine> = cat
            .nodes
            .iter()
            .map(|&n| (n, SellerEngine::new(cat.holdings_of(n), cfg.clone())))
            .collect();
        let poisoned = sellers.get_mut(&NodeId(2)).expect("replica holder");
        let reply = poisoned.respond(0, &rfb(&narrower)).offers;
        assert!(
            reply.iter().any(|o| o.query == narrower),
            "a whole-answer offer"
        );
        poisoned
            .offer_cache
            .insert(q.fingerprint(), narrower.clone(), reply, 1.0);
        let hits = poisoned.cache_hits;

        let out = run_qt_direct(NodeId(0), cat.dict.clone(), &q, &mut sellers, &cfg);
        assert!(
            sellers[&NodeId(2)].cache_hits > hits,
            "the poison was served"
        );
        let plan = out.plan.expect("the clean replica covers the query");
        assert_eq!(plan.query, q);
        assert!(plan.purchases.iter().all(|p| p.offer.query != narrower));
        let mut all = DataStore::new();
        for s in stores.values() {
            all.merge_from(s);
        }
        let rows = plan.execute_on(&cat.dict, &stores).unwrap();
        let want = evaluate_query(&q, &all).unwrap();
        assert!(approx_same_rows(&rows, &want, 1e-9));
    }

    #[test]
    fn retransmitted_rfb_is_answered_identically_at_zero_effort() {
        let cat = catalog();
        let q = motivating(&cat);
        let mut seller = SellerEngine::new(cat.holdings_of(NodeId(2)), QtConfig::default());
        let first = seller.respond_batch(&[entry(0, &q)]).remove(0);
        let effort_after = seller.total_effort;
        let again = seller.respond_batch(&[entry(0, &q)]).remove(0);
        assert_eq!(seller.duplicate_rfbs, 1);
        assert_eq!(again.effort, 0, "a dedup hit costs nothing");
        assert_eq!(seller.total_effort, effort_after);
        assert_eq!(first.offers.len(), again.offers.len());
        for (a, b) in first.offers.iter().zip(&again.offers) {
            assert_eq!(a.id, b.id, "the dedup table resends identical ids");
        }
        // A new request id is a new reply — fresh ids, offer cache welcome.
        let fresh = seller.respond_batch(&[entry(1, &q)]).remove(0);
        assert_ne!(fresh.offers[0].id, first.offers[0].id);
        assert_eq!(seller.duplicate_rfbs, 1);
    }

    #[test]
    fn cached_replied_and_memoised_offers_share_one_query_allocation() {
        let cat = catalog();
        let q = motivating(&cat);
        let mut seller = SellerEngine::new(cat.holdings_of(NodeId(2)), QtConfig::default());
        let first = seller.respond_batch(&[entry(0, &q)]).remove(0);
        let key = seller.cache_key(&q, &[]).key;
        let cached = &seller.offer_cache.get(key).expect("reply cached").value;
        let memoised = seller
            .memoised_reply(&entry(0, &q))
            .expect("reply memoised");
        assert_eq!(
            (cached.len(), memoised.len()),
            (first.offers.len(), first.offers.len())
        );
        for ((replied, cached), memoised) in first.offers.iter().zip(cached).zip(memoised) {
            assert!(SharedQuery::ptr_eq(&replied.query, &cached.query));
            assert!(SharedQuery::ptr_eq(&replied.query, &memoised.query));
        }
        // A later cache hit hands out the same allocations again.
        let hit = seller.respond_batch(&[entry(1, &q)]).remove(0);
        assert_eq!(seller.cache_hits, 1);
        for (a, b) in first.offers.iter().zip(&hit.offers) {
            assert!(SharedQuery::ptr_eq(&a.query, &b.query));
        }
    }

    #[test]
    fn a_seller_that_never_hears_of_a_session_again_ages_it_out() {
        let cat = catalog();
        let q = motivating(&cat);
        let mut seller = SellerEngine::new(cat.holdings_of(NodeId(2)), QtConfig::default());
        let ask = |session: u64| SessionRfb {
            session: SessionId(session),
            req: session_req(SessionId(session), 0),
            ..entry(0, &q)
        };
        // No award, no release: the seller lost every one of these sessions.
        let n = SELLER_SESSION_MEMORY as u64 + 10;
        let first = seller.respond_batch(&[ask(0)]).remove(0);
        for session in 1..n {
            seller.respond_batch(&[ask(session)]);
        }
        assert_eq!(seller.remembered_sessions(), SELLER_SESSION_MEMORY);
        assert_eq!(seller.duplicate_rfbs, 0);
        // The newest session's retransmission is still a dedup hit…
        seller.respond_batch(&[ask(n - 1)]);
        assert_eq!(seller.duplicate_rfbs, 1);
        // …the oldest one's is answered afresh, ids restarting with the
        // session's forgotten counter.
        let again = seller.respond_batch(&[ask(0)]).remove(0);
        assert_eq!(seller.duplicate_rfbs, 1);
        assert_eq!(again.offers[0].id, first.offers[0].id);
        assert_eq!(seller.remembered_sessions(), SELLER_SESSION_MEMORY);
        // A winner is told, and forgets at once.
        seller.forget_session(SessionId(n - 1));
        assert_eq!(seller.remembered_sessions(), SELLER_SESSION_MEMORY - 1);
    }

    #[test]
    fn award_under_adaptive_strategy_invalidates_cache() {
        let cat = catalog();
        let q = motivating(&cat);
        let mut seller = SellerEngine::new(cat.holdings_of(NodeId(2)), QtConfig::default());
        seller.strategy = qt_trade::SellerStrategy::adaptive_markup(1.5);
        let first = seller.respond(0, &rfb(&q));
        // Losing moves the adaptive markup → cached asks are stale.
        seller.observe_award(false);
        let second = seller.respond(1, &rfb(&q));
        assert_eq!((seller.cache_hits, seller.cache_misses), (0, 2));
        // Fresh evaluation re-priced the asks under the lowered markup.
        let ask = |r: &SellerResponse| r.offers.iter().map(|o| o.props.total_time).sum::<f64>();
        assert!(
            ask(&second) < ask(&first),
            "{} vs {}",
            ask(&second),
            ask(&first)
        );
    }

    #[test]
    fn award_under_truthful_strategy_keeps_cache() {
        let cat = catalog();
        let q = motivating(&cat);
        let mut seller = SellerEngine::new(cat.holdings_of(NodeId(2)), QtConfig::default());
        seller.respond(0, &rfb(&q));
        // Truthful pricing is award-independent, so the cache survives.
        seller.observe_award(true);
        seller.observe_award(false);
        seller.respond(1, &rfb(&q));
        assert_eq!((seller.cache_hits, seller.cache_misses), (1, 1));
    }

    #[test]
    fn contracts_are_idempotent_and_session_scoped() {
        let cat = catalog();
        let mut seller = SellerEngine::new(cat.holdings_of(NodeId(2)), QtConfig::default());
        let s0 = SessionId(0);
        let s1 = SessionId(1);
        let c0 = (s0.0 + 1) << 32;
        let c1 = (s1.0 + 1) << 32;
        assert!(seller.accept_award(c0), "first award is new");
        assert!(!seller.accept_award(c0), "retransmission is not");
        assert!(seller.accept_award(c1));
        assert!(seller.has_contract(c0));
        assert!(seller.session_has_contracts(s0));
        // Forgetting one session releases only its leases.
        seller.forget_session(s0);
        assert!(!seller.has_contract(c0));
        assert!(!seller.session_has_contracts(s0));
        assert!(seller.has_contract(c1));
        seller.release_contract(c1);
        seller.release_contract(c1); // idempotent
        assert!(!seller.session_has_contracts(s1));
        // Single-query ids (< 2³²) belong to no session.
        assert!(seller.accept_award(3));
        assert!(!seller.session_has_contracts(SessionId(0)));
    }

    fn hint(seller: u32, q: &Query, t: f64) -> Offer {
        Offer {
            id: 1,
            seller: NodeId(seller),
            query: q.clone().into(),
            true_cost: t,
            props: AnswerProperties::timed(t, 100.0, 1000.0),
            kind: OfferKind::Rows,
            round: 0,
            subcontracts: vec![],
        }
    }

    #[test]
    fn permuted_hints_hit_the_same_cache_entry() {
        let cat = catalog();
        let q = motivating(&cat);
        let cfg = QtConfig {
            enable_subcontracting: true,
            ..QtConfig::default()
        };
        let mut seller = SellerEngine::new(cat.holdings_of(NodeId(2)), cfg);
        let h1 = hint(
            0,
            &parse_query(&cat.dict, "SELECT custname FROM customer").unwrap(),
            1.0,
        );
        let h2 = hint(
            1,
            &parse_query(&cat.dict, "SELECT charge FROM invoiceline").unwrap(),
            2.0,
        );
        let first = seller.respond_with_hints(0, &rfb(&q), &[h1.clone(), h2.clone()]);
        assert_eq!((seller.cache_hits, seller.cache_misses), (0, 1));
        // The same hint set in the opposite arrival order is the same market
        // state: it must hit, not spuriously re-evaluate.
        let second = seller.respond_with_hints(1, &rfb(&q), &[h2.clone(), h1.clone()]);
        assert_eq!((seller.cache_hits, seller.cache_misses), (1, 1));
        assert_eq!(second.effort, 0);
        assert_eq!(first.offers.len(), second.offers.len());
        // A genuinely different hint book still misses.
        let h3 = hint(1, &h1.query, 9.0);
        seller.respond_with_hints(2, &rfb(&q), &[h1, h3]);
        assert_eq!((seller.cache_hits, seller.cache_misses), (1, 2));
    }

    #[test]
    fn scoped_award_keeps_unrelated_cache_entries() {
        let cat = catalog();
        let q_cust = parse_query(&cat.dict, "SELECT custname FROM customer").unwrap();
        let q_inv = parse_query(&cat.dict, "SELECT charge FROM invoiceline").unwrap();
        let mut seller = SellerEngine::new(cat.holdings_of(NodeId(2)), QtConfig::default());
        seller.strategy = qt_trade::SellerStrategy::adaptive_markup(1.5);
        seller.respond(0, &rfb(&q_cust));
        seller.respond(0, &rfb(&q_inv));
        assert_eq!((seller.cache_hits, seller.cache_misses), (0, 2));
        // A lost award about `customer` moves the markup, but only the
        // customer reply goes stale — the invoiceline reply survives.
        seller.observe_award_scoped(false, &BTreeSet::from([qt_catalog::RelId(0)]));
        seller.respond(1, &rfb(&q_inv));
        assert_eq!((seller.cache_hits, seller.cache_misses), (1, 2));
        seller.respond(1, &rfb(&q_cust));
        assert_eq!((seller.cache_hits, seller.cache_misses), (1, 3));
        assert_eq!(seller.cache_stats().invalidated, 1);
    }

    #[test]
    fn offer_id_award_resolves_scope_from_reply_memos() {
        let cat = catalog();
        let q_cust = parse_query(&cat.dict, "SELECT custname FROM customer").unwrap();
        let q_inv = parse_query(&cat.dict, "SELECT charge FROM invoiceline").unwrap();
        let mut seller = SellerEngine::new(cat.holdings_of(NodeId(2)), QtConfig::default());
        seller.strategy = qt_trade::SellerStrategy::adaptive_markup(1.5);
        let r_cust = seller.respond_batch(&[entry(0, &q_cust)]).remove(0);
        seller.respond_batch(&[entry(1, &q_inv)]);
        // Award resolved to a customer offer id: only that entry drops.
        seller.observe_award_for_offer(true, SessionId(0), r_cust.offers[0].id);
        seller.respond(1, &rfb(&q_inv));
        seller.respond(1, &rfb(&q_cust));
        assert_eq!((seller.cache_hits, seller.cache_misses), (1, 3));
        // An id the memos don't know falls back to the full clear.
        seller.observe_award_for_offer(true, SessionId(0), u64::MAX);
        seller.respond(2, &rfb(&q_inv));
        assert_eq!((seller.cache_hits, seller.cache_misses), (1, 4));
    }

    #[test]
    fn semantic_hit_derives_offers_for_subsumed_query() {
        let cat = catalog();
        let wide = parse_query(
            &cat.dict,
            "SELECT custname, office, charge FROM customer, invoiceline \
             WHERE customer.custid = invoiceline.custid",
        )
        .unwrap();
        let narrow = parse_query(
            &cat.dict,
            "SELECT custname FROM customer, invoiceline \
             WHERE customer.custid = invoiceline.custid AND charge > 100",
        )
        .unwrap();
        let cfg = QtConfig {
            enable_semantic_cache: true,
            ..QtConfig::default()
        };
        let mut warm = SellerEngine::new(cat.holdings_of(NodeId(2)), cfg.clone());
        warm.respond(0, &rfb(&wide));
        assert_eq!((warm.cache_hits, warm.cache_misses), (0, 1));
        let derived = warm.respond(1, &rfb(&narrow));
        assert_eq!(
            (warm.cache_hits, warm.cache_misses),
            (1, 1),
            "the subsumed query is served from the wide reply"
        );
        assert_eq!(derived.effort, 0, "no local DP ran for the hit");
        assert_eq!(warm.cache_stats().hits_semantic, 1);
        // The derived offers promise exactly the queries a cold seller would
        // promise for the narrow request (pricing may differ; the promises —
        // what execution is contractually bound to — may not).
        let mut cold = SellerEngine::new(cat.holdings_of(NodeId(2)), cfg);
        let fresh = cold.respond(1, &rfb(&narrow));
        let queries = |r: &SellerResponse| {
            r.offers
                .iter()
                .map(|o| Query::clone(&o.query))
                .collect::<BTreeSet<Query>>()
        };
        assert_eq!(queries(&derived), queries(&fresh));
        // A second identical request is now an exact hit.
        warm.respond(2, &rfb(&narrow));
        assert_eq!((warm.cache_hits, warm.cache_misses), (2, 1));
        assert_eq!(warm.cache_stats().hits_exact, 1);
    }

    #[test]
    fn semantic_cache_off_by_default_misses_subsumed_queries() {
        let cat = catalog();
        let wide = parse_query(&cat.dict, "SELECT custname, office FROM customer").unwrap();
        let narrow = parse_query(
            &cat.dict,
            "SELECT custname FROM customer WHERE office = 'Myconos'",
        )
        .unwrap();
        let mut seller = SellerEngine::new(cat.holdings_of(NodeId(2)), QtConfig::default());
        seller.respond(0, &rfb(&wide));
        seller.respond(1, &rfb(&narrow));
        assert_eq!((seller.cache_hits, seller.cache_misses), (0, 2));
    }

    /// Every seller of a `trade_cold`-shaped federation (16 nodes, 6
    /// relations × 2 partitions, 2 replicas) and the buyer's round-1 RFB for
    /// a 5-relation aggregate chain: sub-queries that each seller rewrites to
    /// a handful of local queries.
    fn round1_market(cfg: &QtConfig) -> (Vec<SellerEngine>, Vec<RfbItem>) {
        use crate::buyer::{BuyerEngine, RoundOutcome};
        use qt_workload::{build_federation, gen_join_query_with_cut, FederationSpec, QueryShape};
        let fed = build_federation(&FederationSpec {
            nodes: 16,
            relations: 6,
            replication: 2,
            seed: 5,
            ..FederationSpec::default()
        });
        let q = gen_join_query_with_cut(&fed.catalog.dict, QueryShape::Chain, 5, true, 30);
        let sellers = || -> Vec<SellerEngine> {
            fed.catalog
                .nodes
                .iter()
                .map(|&n| SellerEngine::new(fed.catalog.holdings_of(n), cfg.clone()))
                .collect()
        };
        let mut buyer = BuyerEngine::new(NodeId(0), fed.catalog.dict.clone(), q, cfg.clone());
        let round0 = buyer.start();
        for s in &mut sellers() {
            buyer.receive_offers(s.respond(0, &round0).offers);
        }
        let RoundOutcome::Continue(items) = buyer.close_round() else {
            panic!("the buyer asks sub-queries in round 1");
        };
        (sellers(), items)
    }

    /// The distinct local rewrites of `items` at `seller`.
    fn distinct_rewrites(seller: &SellerEngine, items: &[RfbItem]) -> usize {
        let rewrites: BTreeSet<Query> = items
            .iter()
            .filter_map(|item| rewrite_for_holdings(&item.query, &seller.holdings))
            .collect();
        rewrites.len()
    }

    #[test]
    fn one_rfb_equals_its_items_sent_one_by_one() {
        let cfg = QtConfig::default();
        let (sellers, items) = round1_market(&cfg);
        let (twins, _) = round1_market(&cfg);
        assert!(items.len() >= 8, "{} items", items.len());
        let mut shared = 0;
        for (mut seller, mut twin) in sellers.into_iter().zip(twins) {
            let grouped = seller.respond(1, &items);
            let mut alone = SellerResponse::default();
            for item in &items {
                let r = twin.respond(1, std::slice::from_ref(item));
                alone.offers.extend(r.offers);
                alone.effort += r.effort;
            }
            assert_eq!(grouped.offers, alone.offers, "node {:?}", seller.node);
            assert_eq!(grouped.effort, alone.effort, "node {:?}", seller.node);
            assert!(grouped.offers.iter().all(|o| o.round == 1));
            assert_eq!(seller.total_effort, twin.total_effort);
            assert_eq!(seller.cache_misses, items.len() as u64);
            let distinct = distinct_rewrites(&seller, &items);
            assert_eq!(seller.local_evaluations, distinct as u64);
            let held = items
                .iter()
                .filter(|i| rewrite_for_holdings(&i.query, &seller.holdings).is_some())
                .count();
            assert_eq!(twin.local_evaluations, held as u64);
            shared += held - distinct;
        }
        assert!(shared > 0, "some items share a rewrite");
    }

    #[test]
    fn sessions_at_different_rounds_share_an_evaluation_but_not_a_round() {
        let cfg = QtConfig::default();
        let (sellers, items) = round1_market(&cfg);
        let (twins, _) = round1_market(&cfg);
        let (first, second) = items.split_at(items.len() / 2);
        let ask = |session: u64, round: u32, items: &[RfbItem]| SessionRfb {
            session: SessionId(session),
            req: session_req(SessionId(session), round),
            round,
            items: Arc::new(items.to_vec()),
            hints: Arc::new(Vec::new()),
            priority: 0,
        };
        let entries = [ask(0, 0, first), ask(1, 1, second)];
        let mut saved = 0;
        for (mut seller, mut twin) in sellers.into_iter().zip(twins) {
            let together = seller.respond_batch(&entries);
            let apart: Vec<SellerResponse> = entries
                .iter()
                .map(|e| twin.respond_batch(std::slice::from_ref(e)).remove(0))
                .collect();
            for (t, a) in together.iter().zip(&apart) {
                assert_eq!(t.offers, a.offers, "node {:?}", seller.node);
                assert_eq!(t.effort, a.effort, "node {:?}", seller.node);
            }
            // The cache holds what the twin's does: each item's offers,
            // carrying that item's own round.
            for e in &entries {
                for item in e.items.iter() {
                    let key = seller.cache_key(&item.query, &[]).key;
                    let cached = &seller.offer_cache.get(key).expect("cached").value;
                    assert_eq!(cached, &twin.offer_cache.get(key).expect("cached").value);
                    assert!(cached.iter().all(|o| o.round == e.round));
                }
            }
            assert!(seller.local_evaluations <= twin.local_evaluations);
            saved += twin.local_evaluations - seller.local_evaluations;
        }
        assert!(saved > 0, "some rewrite is shared across the two sessions");
    }

    /// A bounded cache can evict an item's exact hit between the lookup and
    /// the merge: the reply's earlier miss is inserted first and displaces
    /// it. The item is then evaluated afresh, so the reply equals an
    /// unbounded twin's and costs that item's fresh effort on top.
    #[test]
    fn an_exact_hit_evicted_mid_reply_is_recomputed() {
        let cat = catalog();
        let join = motivating(&cat);
        let scan = parse_query(&cat.dict, "SELECT custname FROM customer").unwrap();
        let both = [rfb(&join), rfb(&scan)].concat();
        let seller = |entries| {
            let cfg = QtConfig {
                offer_cache_entries: entries,
                ..QtConfig::default()
            };
            SellerEngine::new(cat.holdings_of(NodeId(2)), cfg)
        };
        let session = |round: u32, items: &[RfbItem]| SessionRfb {
            items: Arc::new(items.to_vec()),
            ..entry(round, &scan)
        };
        // Direct replies, then one session's batch entries.
        type Replies<'a> = &'a dyn Fn(&mut SellerEngine) -> (SellerResponse, SellerResponse);
        let direct: Replies = &|s| {
            let warm = s.respond(0, &rfb(&scan));
            (warm, s.respond(1, &both))
        };
        let batched: Replies = &|s| {
            let warm = s.respond_batch(&[session(0, &rfb(&scan))]).remove(0);
            (warm, s.respond_batch(&[session(1, &both)]).remove(0))
        };
        for reply in [direct, batched] {
            let (mut bounded, mut twin) = (seller(1), seller(0));
            let (warm, evicted) = reply(&mut bounded);
            let (_, kept) = reply(&mut twin);
            assert_eq!(bounded.cache_stats().evictions, 1, "the scan was evicted");
            assert_eq!(twin.cache_stats().evictions, 0);
            assert_eq!((bounded.cache_hits, bounded.cache_misses), (1, 2));
            assert_eq!(evicted.offers, kept.offers);
            assert!(warm.effort > 0);
            assert_eq!(evicted.effort, kept.effort + warm.effort);
        }
    }

    #[test]
    fn resource_change_invalidates_cache() {
        let cat = catalog();
        let q = motivating(&cat);
        let mut seller = SellerEngine::new(cat.holdings_of(NodeId(2)), QtConfig::default());
        let first = seller.respond(0, &rfb(&q));
        seller = seller.with_resources(NodeResources::uniform(4.0));
        let second = seller.respond(1, &rfb(&q));
        assert_eq!((seller.cache_hits, seller.cache_misses), (0, 2));
        // A 4× faster node quotes faster answers.
        let t = |r: &SellerResponse| r.offers.iter().map(|o| o.props.total_time).sum::<f64>();
        assert!(t(&second) < t(&first));
    }
}
