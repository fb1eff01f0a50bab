//! The broker tier of a hierarchical federation: [`BrokerNode`] scopes RFBs
//! downward by child digests, aggregates the answers upward, sheds load
//! explicitly, and — with failover on — runs the standby lease/promotion
//! protocol. Brokers speak [`ServeMsg`] and are assembled by the serving
//! runners in [`session`](crate::session).

use crate::config::{
    retry_delay, QtConfig, MAX_LEASE_MISSES, MAX_RFB_RETRIES, OFFER_MSG_BYTES, QUERY_MSG_BYTES,
};
use crate::offer::Offer;
use crate::seller::SessionRfb;
use crate::session::{HierarchyConfig, ServeMsg, AD_BYTES};
use qt_catalog::NodeId;
use qt_net::Ctx;
use qt_trade::SessionId;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// How many answered rounds a broker remembers for duplicate replay.
const BROKER_DONE_MEMORY: usize = 64;

/// One gathering round at a broker.
struct BrokerRound {
    /// The RFB entry, kept for child-level retransmission.
    entry: SessionRfb,
    /// Whoever forwarded the entry down (parent broker or buyer).
    from_parent: NodeId,
    /// The scoped children the entry went to.
    recipients: Vec<NodeId>,
    /// Child → (offers, missing seller descendants), ascending child order.
    pending: BTreeMap<NodeId, (Vec<Offer>, Vec<NodeId>)>,
    /// Child-level retransmission attempts.
    attempt: u32,
}

/// A broker/aggregator node: scopes RFBs downward by child digests, gathers
/// the answers, and sends one pruned [`ServeMsg::AggOffers`] upward per
/// session round — the buyer sees O(children) messages however many sellers
/// sit below. Holds no trading state; everything here is routing.
pub struct BrokerNode {
    node: NodeId,
    /// Where aggregates, sheds, and digest updates go (buyer or upper broker).
    parent: NodeId,
    /// Direct children (sellers at level 1, brokers above), ascending.
    children: Vec<NodeId>,
    /// Tree level: 1 = children are sellers.
    level: u32,
    config: QtConfig,
    hier: HierarchyConfig,
    /// Seller descendants per child (the child itself at level 1); reported
    /// upward as `missing` when a child subtree goes quiet.
    desc: BTreeMap<NodeId, Vec<NodeId>>,
    /// Latest advertisement per child: child → (digest, epoch).
    child_ads: BTreeMap<NodeId, (u64, u64)>,
    /// Children that missed a round even after retries: routed around (their
    /// digest contribution is zeroed upward) until they advertise or answer
    /// again.
    down: BTreeSet<NodeId>,
    /// Own advertisement epoch (bumped on every upward digest push).
    epoch: u64,
    /// Open gathering rounds.
    open: BTreeMap<(SessionId, u32), BrokerRound>,
    /// Recently answered rounds → the exact reply sent, replayed verbatim on
    /// parent retransmissions (bounded FIFO of [`BROKER_DONE_MEMORY`]).
    done: BTreeMap<(SessionId, u32), (Vec<Offer>, Vec<NodeId>)>,
    done_order: VecDeque<(SessionId, u32)>,
    /// Session rounds refused by admission control.
    pub shed: u64,
    /// RFB retransmissions sent to laggard children.
    pub retries: u64,
    /// `Some(primary)` while this node is a passive standby replica: it
    /// mirrors the region's advertisements and probes the primary, but
    /// routes nothing until promoted.
    standby_of: Option<NodeId>,
    /// This primary's own standby (Quiesce forwarding, Promote re-point).
    standby: Option<NodeId>,
    /// The parent region's standby — upward advertisements are mirrored
    /// there so a promoted parent replica knows this region's digest.
    parent_standby: Option<NodeId>,
    /// Fault plane: while set, every delivery (own timers included) is
    /// silently dropped — an unreachable process, not amnesia.
    crashed: bool,
    /// Was this broker ever crashed? A crash also swallows the deadline
    /// timers of the rounds then open, so those rounds may never close.
    ever_crashed: bool,
    /// Standby probe state: consecutive unanswered lease intervals.
    misses: u32,
    /// Did a `BrokerLeaseAck` arrive since the last tick?
    ack_seen: bool,
    /// Quiesce received: stop re-arming the probe timer.
    quiesced: bool,
    /// Promotions this node performed (0, or 1 after taking over).
    pub promotions: u64,
    /// Virtual time of the promotion, if any.
    pub promoted_at: Option<f64>,
    /// The crashed primary this node replaced, if promoted.
    pub promoted_from: Option<NodeId>,
    /// Child-region promotions observed: failed child → successor.
    promoted: BTreeMap<NodeId, NodeId>,
}

impl BrokerNode {
    /// A broker for one [`crate::discovery::BrokerSpec`] of the tree.
    pub fn new(
        spec: &crate::discovery::BrokerSpec,
        desc: BTreeMap<NodeId, Vec<NodeId>>,
        config: QtConfig,
        hier: HierarchyConfig,
    ) -> BrokerNode {
        BrokerNode {
            node: spec.node,
            parent: spec.parent,
            children: spec.children.clone(),
            level: spec.level,
            config,
            hier,
            desc,
            child_ads: BTreeMap::new(),
            down: BTreeSet::new(),
            epoch: 0,
            open: BTreeMap::new(),
            done: BTreeMap::new(),
            done_order: VecDeque::new(),
            shed: 0,
            retries: 0,
            standby_of: None,
            standby: spec.standby,
            parent_standby: None,
            crashed: false,
            ever_crashed: false,
            misses: 0,
            ack_seen: true, // the boot tick must not count as a miss
            quiesced: false,
            promotions: 0,
            promoted_at: None,
            promoted_from: None,
            promoted: BTreeMap::new(),
        }
    }

    /// The standby replica for `spec`'s region: same children, descendants,
    /// level, and parent as the primary, but passive until promoted.
    pub fn new_standby(
        spec: &crate::discovery::BrokerSpec,
        desc: BTreeMap<NodeId, Vec<NodeId>>,
        config: QtConfig,
        hier: HierarchyConfig,
    ) -> BrokerNode {
        let mut b = BrokerNode::new(spec, desc, config, hier);
        b.node = spec.standby.expect("standby spec has a standby id");
        b.standby_of = Some(spec.node);
        b.standby = None;
        b
    }

    /// Gathering rounds this broker should have closed and did not: every
    /// round ends with its last child reply or its deadline timer, unless a
    /// crash swallowed the timer. Zero once a simulation has drained.
    pub(crate) fn leaked_rounds(&self) -> usize {
        if self.ever_crashed {
            0
        } else {
            self.open.len()
        }
    }

    /// Set the CC target for upward advertisements (the parent region's
    /// standby); called by the runners when failover is on.
    pub fn set_parent_standby(&mut self, sb: Option<NodeId>) {
        self.parent_standby = sb;
    }

    /// One standby probe interval: count the silence, promote past the
    /// lease deadline, otherwise probe again and re-arm. Stops once
    /// promoted or quiesced (so fault-free failover runs still drain).
    fn on_lease_tick(&mut self, ctx: &mut Ctx<ServeMsg>) {
        let Some(primary) = self.standby_of else {
            return; // promoted meanwhile: the probe chain ends
        };
        if self.quiesced {
            return;
        }
        if self.ack_seen {
            self.misses = 0;
        } else {
            self.misses += 1;
        }
        self.ack_seen = false;
        if self.misses > MAX_LEASE_MISSES {
            self.promote(ctx, primary);
            return;
        }
        ctx.send_lease(primary, ServeMsg::BrokerLease, "broker-lease");
        ctx.schedule(
            self.config.lease_interval,
            ServeMsg::BrokerLeaseTick,
            "broker-lease-tick",
        );
    }

    /// Take over the region: activate, push the mirrored digest to the
    /// parent (which re-scopes in-flight rounds), and re-point the children.
    fn promote(&mut self, ctx: &mut Ctx<ServeMsg>, primary: NodeId) {
        self.standby_of = None;
        self.promotions += 1;
        self.promoted_at = Some(ctx.now());
        self.promoted_from = Some(primary);
        let agg: u64 = self
            .children
            .iter()
            .fold(0, |d, &c| d | self.effective_digest(c));
        self.epoch += 1;
        ctx.send(
            self.parent,
            ServeMsg::RegionUpdate {
                failed: primary,
                digest: agg,
                epoch: self.epoch,
            },
            AD_BYTES,
            "region-update",
        );
        for &c in &self.children.clone() {
            ctx.send(
                c,
                ServeMsg::Promote { failed: primary },
                AD_BYTES,
                "promote",
            );
        }
    }

    /// A child region failed over: swap the child, adopt its mirrored
    /// digest, re-scope in-flight rounds toward the successor, and push the
    /// (possibly changed) aggregate digest upward.
    fn on_region_update(
        &mut self,
        ctx: &mut Ctx<ServeMsg>,
        from: NodeId,
        failed: NodeId,
        digest: u64,
        epoch: u64,
    ) {
        if let Some(pos) = self.children.iter().position(|&c| c == failed) {
            self.children[pos] = from;
            self.children.sort_unstable();
        } else if !self.children.contains(&from) {
            return; // not a child region of ours
        }
        self.child_ads.remove(&failed);
        let e = self.child_ads.entry(from).or_insert((0, 0));
        if epoch > e.1 {
            *e = (digest, epoch);
        }
        self.promoted.insert(failed, from);
        self.down.remove(&failed);
        if let Some(d) = self.desc.remove(&failed) {
            self.desc.insert(from, d);
        }
        let mut resend: Vec<(SessionRfb, NodeId)> = Vec::new();
        let mut finish: Vec<(SessionId, u32)> = Vec::new();
        for (&key, r) in self.open.iter_mut() {
            let Some(pos) = r.recipients.iter().position(|&c| c == failed) else {
                continue;
            };
            if r.pending.contains_key(&failed) {
                continue; // answered before the crash
            }
            if r.recipients.contains(&from) {
                r.recipients.remove(pos);
            } else {
                r.recipients[pos] = from;
                r.recipients.sort_unstable();
            }
            if !r.pending.contains_key(&from) {
                resend.push((r.entry.clone(), from));
            } else if r.pending.len() == r.recipients.len() {
                finish.push(key);
            }
        }
        for (entry, to) in resend {
            self.retries += 1;
            let bytes = (entry.items.len() + entry.hints.len()) as f64 * QUERY_MSG_BYTES;
            ctx.send(
                to,
                ServeMsg::Rfb {
                    entries: vec![entry],
                },
                bytes,
                "rfb-retry",
            );
        }
        for key in finish {
            self.finish_round(ctx, key);
        }
        self.advertise_up(ctx);
    }

    /// Child-response deadline: half the buyer's per-hop budget, growing
    /// with the level so a parent broker always outwaits its children.
    fn deadline(&self) -> f64 {
        self.config.seller_timeout * 0.5 * self.level as f64
    }

    /// A child's routable digest: its latest advertisement, zero while the
    /// child is marked down or has never advertised (membership).
    fn effective_digest(&self, child: NodeId) -> u64 {
        if self.down.contains(&child) {
            return 0;
        }
        self.child_ads.get(&child).map_or(0, |&(d, _)| d)
    }

    /// Push the OR of the children's routable digests upward. A passive
    /// standby only mirrors — it never advertises (the primary owns the
    /// region until promotion). With failover on, the parent's standby gets
    /// a copy so a promoted parent replica knows this region's digest.
    fn advertise_up(&mut self, ctx: &mut Ctx<ServeMsg>) {
        if self.standby_of.is_some() {
            return;
        }
        let agg: u64 = self
            .children
            .iter()
            .fold(0, |d, &c| d | self.effective_digest(c));
        self.epoch += 1;
        let ad = ServeMsg::Advertise {
            ads: vec![(self.node, agg, self.epoch)],
        };
        ctx.send(self.parent, ad.clone(), AD_BYTES, "advertise");
        if let Some(cc) = self.parent_standby {
            ctx.send(cc, ad, AD_BYTES, "advertise");
        }
    }

    fn on_advertise(
        &mut self,
        ctx: &mut Ctx<ServeMsg>,
        from: NodeId,
        ads: Vec<crate::discovery::SellerAd>,
    ) {
        let mut changed = false;
        for (origin, digest, epoch) in ads {
            if origin != from || !self.children.contains(&origin) {
                continue; // not ours to track
            }
            let e = self.child_ads.entry(origin).or_insert((0, 0));
            if epoch > e.1 {
                changed |= e.0 != digest;
                *e = (digest, epoch);
            }
            // Advertising proves liveness: route through the child again.
            changed |= self.down.remove(&origin);
        }
        if changed || self.epoch == 0 {
            self.advertise_up(ctx);
        }
    }

    fn on_rfb(&mut self, ctx: &mut Ctx<ServeMsg>, from: NodeId, entries: Vec<SessionRfb>) {
        if self.standby_of.is_some() {
            return; // passive standby: nothing routes through it yet
        }
        // Forwards grouped per child so same-instant sessions share one
        // downward message, exactly like the buyer's own batching.
        let mut fwd: BTreeMap<NodeId, Vec<SessionRfb>> = BTreeMap::new();
        for entry in entries {
            let key = (entry.session, entry.round);
            if let Some((offers, missing)) = self.done.get(&key) {
                // Parent retransmission of an answered round: replay the
                // exact reply (the parent dedups).
                let bytes = offers.len() as f64 * OFFER_MSG_BYTES;
                ctx.send(
                    from,
                    ServeMsg::AggOffers {
                        session: key.0,
                        round: key.1,
                        offers: offers.clone(),
                        missing: missing.clone(),
                    },
                    bytes,
                    "agg-offers",
                );
                continue;
            }
            if let Some(r) = self.open.get_mut(&key) {
                // Retransmission while still gathering: nudge the laggards.
                for &c in &r.recipients {
                    if !r.pending.contains_key(&c) {
                        fwd.entry(c).or_default().push(entry.clone());
                    }
                }
                continue;
            }
            // Admission control: a bounded broker refuses rounds of sessions
            // beyond its inflight budget with an explicit shed — never a
            // silent queue that would blow the buyer's deadline. Priority-
            // aware: if some inflight session has *strictly lower* priority
            // than the newcomer, the lowest-priority (newest on ties)
            // inflight session is evicted instead; with uniform priorities
            // this degenerates to shedding the newcomer, bit-identical to
            // the pre-priority behavior.
            if self.hier.max_broker_inflight > 0 {
                let inflight: BTreeSet<SessionId> = self.open.keys().map(|k| k.0).collect();
                if inflight.len() >= self.hier.max_broker_inflight
                    && !inflight.contains(&entry.session)
                {
                    let victim = inflight
                        .iter()
                        .map(|&s| (self.inflight_priority(s), s))
                        .filter(|&(p, _)| p < entry.priority)
                        .min_by_key(|&(p, s)| (p, std::cmp::Reverse(s)));
                    match victim {
                        Some((_, v)) => self.evict(ctx, v),
                        None => {
                            self.shed += 1;
                            ctx.send(
                                from,
                                ServeMsg::Shed {
                                    session: entry.session,
                                    round: entry.round,
                                },
                                AD_BYTES,
                                "shed",
                            );
                            continue;
                        }
                    }
                }
            }
            let want: u64 = entry
                .items
                .iter()
                .fold(0, |d, it| d | crate::discovery::query_digest(&it.query));
            let recipients: Vec<NodeId> = self
                .children
                .iter()
                .copied()
                .filter(|&c| self.effective_digest(c) & want != 0)
                .collect();
            if recipients.is_empty() {
                // No child can bid: answer empty immediately.
                self.remember_done(key, Vec::new(), Vec::new());
                ctx.send(
                    from,
                    ServeMsg::AggOffers {
                        session: key.0,
                        round: key.1,
                        offers: Vec::new(),
                        missing: Vec::new(),
                    },
                    0.0,
                    "agg-offers",
                );
                continue;
            }
            for &c in &recipients {
                fwd.entry(c).or_default().push(entry.clone());
            }
            ctx.schedule(
                self.deadline(),
                ServeMsg::BrokerTimeout {
                    session: key.0,
                    round: key.1,
                },
                "broker-timeout",
            );
            self.open.insert(
                key,
                BrokerRound {
                    entry,
                    from_parent: from,
                    recipients,
                    pending: BTreeMap::new(),
                    attempt: 0,
                },
            );
        }
        for (child, ents) in fwd {
            let bytes: f64 = ents
                .iter()
                .map(|e| (e.items.len() + e.hints.len()) as f64)
                .sum::<f64>()
                * QUERY_MSG_BYTES;
            ctx.send(child, ServeMsg::Rfb { entries: ents }, bytes, "rfb");
        }
    }

    fn on_child_reply(
        &mut self,
        ctx: &mut Ctx<ServeMsg>,
        child: NodeId,
        session: SessionId,
        round: u32,
        offers: Vec<Offer>,
        missing: Vec<NodeId>,
    ) {
        // Answering proves liveness, whatever the round.
        if self.down.remove(&child) {
            self.advertise_up(ctx);
        }
        let key = (session, round);
        let Some(r) = self.open.get_mut(&key) else {
            return; // straggler for an answered (or shed) round
        };
        if !r.recipients.contains(&child) || r.pending.contains_key(&child) {
            return; // not asked, or a duplicate
        }
        r.pending.insert(child, (offers, missing));
        if r.pending.len() == r.recipients.len() {
            self.finish_round(ctx, key);
        }
    }

    /// The stored priority of an inflight session (from its open rounds).
    fn inflight_priority(&self, s: SessionId) -> u8 {
        self.open
            .range((s, 0)..=(s, u32::MAX))
            .next()
            .map(|(_, r)| r.entry.priority)
            .unwrap_or(0)
    }

    /// Priority eviction: shed every open round of `v` upward so a
    /// higher-priority newcomer can take its inflight slot.
    fn evict(&mut self, ctx: &mut Ctx<ServeMsg>, v: SessionId) {
        let keys: Vec<(SessionId, u32)> = self
            .open
            .range((v, 0)..=(v, u32::MAX))
            .map(|(&k, _)| k)
            .collect();
        for key in keys {
            let r = self.open.remove(&key).expect("victim round open");
            self.shed += 1;
            ctx.send(
                r.from_parent,
                ServeMsg::Shed {
                    session: key.0,
                    round: key.1,
                },
                AD_BYTES,
                "shed",
            );
        }
    }

    fn on_timeout(&mut self, ctx: &mut Ctx<ServeMsg>, session: SessionId, round: u32) {
        let key = (session, round);
        {
            let Some(r) = self.open.get_mut(&key) else {
                return; // stale timer: the round closed
            };
            // Silent children whose region already failed over are re-pointed
            // at the promoted standby so the retry below reaches a live node.
            for i in 0..r.recipients.len() {
                let c = r.recipients[i];
                if !r.pending.contains_key(&c) {
                    if let Some(&sb) = self.promoted.get(&c) {
                        if !r.recipients.contains(&sb) {
                            r.recipients[i] = sb;
                        }
                    }
                }
            }
            r.recipients.sort_unstable();
            r.recipients.dedup();
        }
        let r = self.open.get_mut(&key).expect("checked above");
        let lag: Vec<NodeId> = r
            .recipients
            .iter()
            .copied()
            .filter(|c| !r.pending.contains_key(c))
            .collect();
        if r.attempt < MAX_RFB_RETRIES {
            r.attempt += 1;
            let attempt = r.attempt;
            let entry = r.entry.clone();
            let bytes = (entry.items.len() + entry.hints.len()) as f64 * QUERY_MSG_BYTES;
            for &c in &lag {
                self.retries += 1;
                ctx.send(
                    c,
                    ServeMsg::Rfb {
                        entries: vec![entry.clone()],
                    },
                    bytes,
                    "rfb-retry",
                );
            }
            let delay = retry_delay(self.deadline(), attempt);
            ctx.schedule(
                delay,
                ServeMsg::BrokerTimeout { session, round },
                "broker-timeout",
            );
        } else {
            // Give up on the laggards: mark them down (future rounds route
            // around them until they advertise or answer again), report
            // their seller descendants missing, and answer with what came.
            let mut changed = false;
            for &c in &lag {
                let desc = self.desc.get(&c).cloned().unwrap_or_else(|| vec![c]);
                self.open
                    .get_mut(&key)
                    .expect("round open above")
                    .pending
                    .insert(c, (Vec::new(), desc));
                changed |= self.down.insert(c);
            }
            self.finish_round(ctx, key);
            if changed {
                self.advertise_up(ctx);
            }
        }
    }

    /// Close a gathering round: concatenate the children's offers and sort
    /// them by `(seller, offer id)` — with contiguous seller ranges per child
    /// this is exactly the order a flat buyer drains its reply map in, so
    /// aggregation reproduces flat plans bit-for-bit.
    fn finish_round(&mut self, ctx: &mut Ctx<ServeMsg>, key: (SessionId, u32)) {
        let r = self.open.remove(&key).expect("closing an open round");
        let mut offers = Vec::new();
        let mut missing = Vec::new();
        for (_, (o, m)) in r.pending {
            offers.extend(o);
            missing.extend(m);
        }
        offers.sort_by_key(|o| (o.seller.0, o.id));
        // Distinct keys make the sort's result independent of the order the
        // children's offers were concatenated in.
        debug_assert!(
            offers
                .windows(2)
                .all(|w| (w[0].seller, w[0].id) != (w[1].seller, w[1].id)),
            "a broker aggregated two offers with the same (seller, offer id)"
        );
        missing.sort_unstable();
        missing.dedup();
        let bytes = offers.len() as f64 * OFFER_MSG_BYTES;
        self.remember_done(key, offers.clone(), missing.clone());
        ctx.send(
            r.from_parent,
            ServeMsg::AggOffers {
                session: key.0,
                round: key.1,
                offers,
                missing,
            },
            bytes,
            "agg-offers",
        );
    }

    fn remember_done(&mut self, key: (SessionId, u32), offers: Vec<Offer>, missing: Vec<NodeId>) {
        if self.done.insert(key, (offers, missing)).is_none() {
            self.done_order.push_back(key);
        }
        while self.done_order.len() > BROKER_DONE_MEMORY {
            let old = self.done_order.pop_front().expect("non-empty");
            self.done.remove(&old);
        }
    }
}

impl BrokerNode {
    /// One delivery at this broker (the broker arm of
    /// [`ServeNode`](crate::session::ServeNode)'s handler).
    pub(crate) fn on_message(&mut self, ctx: &mut Ctx<ServeMsg>, from: NodeId, msg: ServeMsg) {
        // Broker crash plane: a crashed broker is an unreachable process —
        // it blackholes every delivery (its own timers included) until the
        // matching Restart, on both transports identically.
        match msg {
            ServeMsg::Crash => {
                self.crashed = true;
                self.ever_crashed = true;
            }
            ServeMsg::Restart => {
                self.crashed = false;
            }
            _ if self.crashed => {}
            ServeMsg::Rfb { entries } => self.on_rfb(ctx, from, entries),
            ServeMsg::Offers { replies } => {
                for (session, round, offers) in replies {
                    self.on_child_reply(ctx, from, session, round, offers, Vec::new());
                }
            }
            ServeMsg::AggOffers {
                session,
                round,
                offers,
                missing,
            } => self.on_child_reply(ctx, from, session, round, offers, missing),
            ServeMsg::Advertise { ads } => self.on_advertise(ctx, from, ads),
            ServeMsg::BrokerTimeout { session, round } => self.on_timeout(ctx, session, round),
            ServeMsg::Shed { session, round } => {
                // A lower broker shed the session: relay toward the buyer and
                // close our own bookkeeping for the round (the child's
                // descendants are reported unreachable so the partial round
                // is explicit, not silent).
                ctx.send(
                    self.parent,
                    ServeMsg::Shed { session, round },
                    AD_BYTES,
                    "shed",
                );
                let missing = self.desc.get(&from).cloned().unwrap_or_else(|| vec![from]);
                self.on_child_reply(ctx, from, session, round, Vec::new(), missing);
            }
            ServeMsg::BrokerLease => {
                // Primary answering its standby's probe (zero-byte lease).
                ctx.send_lease(from, ServeMsg::BrokerLeaseAck, "broker-lease-ack");
            }
            ServeMsg::BrokerLeaseAck if self.standby_of == Some(from) => {
                self.ack_seen = true;
            }
            ServeMsg::BrokerLeaseTick => self.on_lease_tick(ctx),
            // Our parent's region failed over to the sender.
            ServeMsg::Promote { failed } if self.parent == failed => {
                self.parent = from;
                self.parent_standby = None; // no standby-of-standby
                if let Some(sb) = self.standby {
                    // Keep our own standby's upward pointer in sync, so a
                    // later promotion of *this* region reports to the right
                    // parent.
                    ctx.send(sb, ServeMsg::Promote { failed }, AD_BYTES, "promote");
                }
            }
            ServeMsg::RegionUpdate {
                failed,
                digest,
                epoch,
            } => self.on_region_update(ctx, from, failed, digest, epoch),
            ServeMsg::Quiesce => {
                self.quiesced = true;
                if let Some(sb) = self.standby {
                    ctx.send(sb, ServeMsg::Quiesce, 0.0, "quiesce");
                }
                if self.level >= 2 {
                    for &c in &self.children.clone() {
                        ctx.send(c, ServeMsg::Quiesce, 0.0, "quiesce");
                    }
                }
            }
            _ => {}
        }
    }
}
