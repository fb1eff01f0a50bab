//! The broker tier of a hierarchical federation: [`BrokerNode`] scopes RFBs
//! downward by child digests, aggregates the answers upward, sheds load
//! explicitly, and — with failover on — runs the standby lease/promotion
//! protocol. Brokers speak [`ServeMsg`] and are assembled by the serving
//! runners in [`session`](crate::session).
//!
//! A broker runs the buyer's fan-out round one level down: its children and
//! their digests are a `discovery::Region`, each open round a
//! `discovery::Gather`, and the scoping, reply acceptance, laggard set,
//! re-pointing at a promoted standby, region swap and `(seller, offer id)`
//! merge are the code the buyer's
//! [`SessionManager`](crate::session::SessionManager) runs. The broker's own
//! policy: a child still silent after the retries is marked down and its
//! sellers are reported missing upward, and retries go out as direct
//! `rfb-retry` sends rather than through the buyer's staged batches. A
//! crash swallows the deadline timers of the rounds then open; `Restart`
//! re-arms those still open.

use crate::config::{retry_delay, QtConfig, MAX_LEASE_MISSES, MAX_RFB_RETRIES, OFFER_MSG_BYTES};
use crate::discovery::{Gather, Region, Swap};
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
    /// The scoped children the entry went to and their answers.
    gather: Gather,
}

/// A broker/aggregator node: scopes RFBs downward by child digests, gathers
/// the answers, and sends one aggregated [`ServeMsg::AggOffers`] upward per
/// session round — the buyer sees O(children) messages however many sellers
/// sit below. Holds no trading state; everything here is routing.
pub struct BrokerNode {
    node: NodeId,
    /// Where aggregates, sheds, and digest updates go (buyer or upper broker).
    parent: NodeId,
    /// Tree level: 1 = children are sellers.
    level: u32,
    config: QtConfig,
    hier: HierarchyConfig,
    /// The children (sellers at level 1, brokers above), their digests and
    /// seller descendants, and which of them are down.
    region: Region,
    /// Own advertisement epoch (bumped on every upward digest push).
    epoch: u64,
    /// Open gathering rounds.
    open: BTreeMap<(SessionId, u32), BrokerRound>,
    /// Recently answered rounds → the exact reply sent, replayed verbatim on
    /// parent retransmissions (bounded FIFO of [`BROKER_DONE_MEMORY`]).
    done: BTreeMap<(SessionId, u32), (Vec<Offer>, Vec<NodeId>)>,
    done_order: VecDeque<(SessionId, u32)>,
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
    /// Rounds whose deadline timer fired while crashed: re-armed at
    /// `Restart`, so a round the crash interrupted still closes.
    swallowed: BTreeSet<(SessionId, u32)>,
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
}

impl BrokerNode {
    /// A broker for one [`crate::discovery::BrokerSpec`] of the tree.
    pub fn new(
        spec: &crate::discovery::BrokerSpec,
        tree: &crate::discovery::BrokerTree,
        config: QtConfig,
        hier: HierarchyConfig,
    ) -> BrokerNode {
        BrokerNode {
            node: spec.node,
            parent: spec.parent,
            level: spec.level,
            config,
            hier,
            region: Region::new(&spec.children, tree),
            epoch: 0,
            open: BTreeMap::new(),
            done: BTreeMap::new(),
            done_order: VecDeque::new(),
            standby_of: None,
            standby: spec.standby,
            parent_standby: None,
            crashed: false,
            swallowed: BTreeSet::new(),
            misses: 0,
            ack_seen: true, // the boot tick must not count as a miss
            quiesced: false,
            promotions: 0,
            promoted_at: None,
            promoted_from: None,
        }
    }

    /// The standby replica for `spec`'s region: same children, descendants,
    /// level, and parent as the primary, but passive until promoted.
    pub fn new_standby(
        spec: &crate::discovery::BrokerSpec,
        tree: &crate::discovery::BrokerTree,
        config: QtConfig,
        hier: HierarchyConfig,
    ) -> BrokerNode {
        let mut b = BrokerNode::new(spec, tree, config, hier);
        b.node = spec.standby.expect("standby spec has a standby id");
        b.standby_of = Some(spec.node);
        b.standby = None;
        b
    }

    /// Gathering rounds this broker should have closed and did not: every
    /// round ends with its last child reply or its deadline timer (re-armed
    /// at `Restart` when a crash swallowed it). Zero once a simulation has
    /// drained, unless the broker is still crashed.
    pub(crate) fn leaked_rounds(&self) -> usize {
        if self.crashed {
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
        self.epoch += 1;
        ctx.send(
            self.parent,
            ServeMsg::RegionUpdate {
                failed: primary,
                digest: self.region.aggregate(),
                epoch: self.epoch,
            },
            AD_BYTES,
            "region-update",
        );
        let promote = ServeMsg::Promote { failed: primary };
        for &c in self.region.children() {
            ctx.send(c, promote.clone(), AD_BYTES, "promote");
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
        if !self.region.adopt(failed, from, digest, epoch) {
            return; // not a child region of ours
        }
        let mut resend: Vec<SessionRfb> = Vec::new();
        let mut finish: Vec<(SessionId, u32)> = Vec::new();
        for (&key, r) in self.open.iter_mut() {
            match r.gather.swap(failed, &[from]) {
                Swap::Resend(_) => resend.push(r.entry.clone()),
                Swap::Complete => finish.push(key),
                Swap::Unaffected => {}
            }
        }
        for entry in resend {
            send_retry(ctx, from, entry);
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

    /// Push the OR of the children's routable digests upward. A passive
    /// standby only mirrors — it never advertises (the primary owns the
    /// region until promotion). With failover on, the parent's standby gets
    /// a copy so a promoted parent replica knows this region's digest.
    fn advertise_up(&mut self, ctx: &mut Ctx<ServeMsg>) {
        if self.standby_of.is_some() {
            return;
        }
        self.epoch += 1;
        let ad = ServeMsg::Advertise {
            ads: vec![(self.node, self.region.aggregate(), self.epoch)],
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
            if origin != from || !self.region.children().contains(&origin) {
                continue; // not ours to track
            }
            changed |= self.region.record(origin, digest, epoch);
            // Advertising proves liveness: route through the child again.
            changed |= self.region.down.remove(&origin);
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
                send_agg(ctx, from, key, offers.clone(), missing.clone());
                continue;
            }
            if let Some(r) = self.open.get(&key) {
                // Retransmission while still gathering: nudge the laggards.
                for c in r.gather.laggards() {
                    fwd.entry(c).or_default().push(entry.clone());
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
                            send_shed(ctx, from, key);
                            continue;
                        }
                    }
                }
            }
            let recipients = self.region.scope(&entry.items);
            if recipients.is_empty() {
                // No child can bid: answer empty immediately.
                self.remember_done(key, Vec::new(), Vec::new());
                send_agg(ctx, from, key, Vec::new(), Vec::new());
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
                    gather: Gather::new(recipients),
                },
            );
        }
        for (child, ents) in fwd {
            let bytes = ents.iter().map(SessionRfb::wire_bytes).sum();
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
        if self.region.down.remove(&child) {
            self.advertise_up(ctx);
        }
        let key = (session, round);
        let Some(r) = self.open.get_mut(&key) else {
            return; // straggler for an answered (or shed) round
        };
        // Not asked, or a duplicate: dropped.
        if matches!(r.gather.accept(child, offers, missing), Ok(true)) {
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
            send_shed(ctx, r.from_parent, key);
        }
    }

    fn on_timeout(&mut self, ctx: &mut Ctx<ServeMsg>, session: SessionId, round: u32) {
        let key = (session, round);
        let Some(r) = self.open.get_mut(&key) else {
            return; // stale timer: the round closed
        };
        r.gather.repoint(&self.region.promoted);
        let lag = r.gather.laggards();
        if r.gather.attempt < MAX_RFB_RETRIES {
            r.gather.attempt += 1;
            let attempt = r.gather.attempt;
            let entry = r.entry.clone();
            for &c in &lag {
                send_retry(ctx, c, entry.clone());
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
                let _ = r.gather.accept(c, Vec::new(), self.region.sellers_under(c));
                changed |= self.region.down.insert(c);
            }
            self.finish_round(ctx, key);
            if changed {
                self.advertise_up(ctx);
            }
        }
    }

    /// Close a gathering round: the children's offers merged in
    /// `(seller, offer id)` order ([`Gather::merge`]) go to the parent.
    fn finish_round(&mut self, ctx: &mut Ctx<ServeMsg>, key: (SessionId, u32)) {
        let mut r = self.open.remove(&key).expect("closing an open round");
        let (offers, missing) = r.gather.merge();
        self.remember_done(key, offers.clone(), missing.clone());
        send_agg(ctx, r.from_parent, key, offers, missing);
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
            ServeMsg::Crash => self.crashed = true,
            ServeMsg::Restart => {
                self.crashed = false;
                for (session, round) in std::mem::take(&mut self.swallowed) {
                    if self.open.contains_key(&(session, round)) {
                        let timeout = ServeMsg::BrokerTimeout { session, round };
                        ctx.schedule(self.deadline(), timeout, "broker-timeout");
                    }
                }
            }
            ServeMsg::BrokerTimeout { session, round } if self.crashed => {
                self.swallowed.insert((session, round));
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
                send_shed(ctx, self.parent, (session, round));
                let missing = self.region.sellers_under(from);
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
                    for &c in self.region.children() {
                        ctx.send(c, ServeMsg::Quiesce, 0.0, "quiesce");
                    }
                }
            }
            _ => {}
        }
    }
}

/// One round's aggregated answer to the parent.
fn send_agg(
    ctx: &mut Ctx<ServeMsg>,
    to: NodeId,
    (session, round): (SessionId, u32),
    offers: Vec<Offer>,
    missing: Vec<NodeId>,
) {
    let bytes = offers.len() as f64 * OFFER_MSG_BYTES;
    let msg = ServeMsg::AggOffers {
        session,
        round,
        offers,
        missing,
    };
    ctx.send(to, msg, bytes, "agg-offers");
}

/// One round's shed notice, toward the buyer.
fn send_shed(ctx: &mut Ctx<ServeMsg>, to: NodeId, (session, round): (SessionId, u32)) {
    ctx.send(to, ServeMsg::Shed { session, round }, AD_BYTES, "shed");
}

/// One round's RFB again, to one child.
fn send_retry(ctx: &mut Ctx<ServeMsg>, to: NodeId, entry: SessionRfb) {
    let bytes = entry.wire_bytes();
    let entries = vec![entry];
    ctx.send(to, ServeMsg::Rfb { entries }, bytes, "rfb-retry");
}

#[cfg(test)]
mod tests {
    use crate::{run_qt_serve_with_faults, HierarchyConfig, QtConfig, SellerEngine, ServeConfig};
    use qt_catalog::NodeId;
    use qt_cost::NetLink;
    use qt_net::{FaultPlan, Topology};
    use qt_workload::{build_federation, gen_arrivals, synthetic_mix, ArrivalSpec, FederationSpec};
    use std::collections::BTreeMap;

    /// A broker that crashes with rounds open and restarts later closes
    /// them: the crash swallowed their deadline timers, and `Restart`
    /// re-arms them. Without that the drain audit finds the rounds open.
    #[test]
    fn restarted_broker_closes_the_rounds_its_crash_interrupted() {
        // 16 nodes, fanout 4: buyer 0, sellers 1–15, level-1 brokers 16–19.
        let fed = build_federation(&FederationSpec {
            nodes: 16,
            relations: 4,
            partitions_per_relation: 2,
            replication: 2,
            rows_per_partition: 100_000,
            scale: 1,
            seed: 11,
            with_data: false,
            speed_spread: 2.0,
            data_skew: 0.0,
        });
        let cfg = QtConfig {
            seller_timeout: 300.0,
            lease_interval: 2.0,
            ..QtConfig::default()
        };
        let sellers: BTreeMap<NodeId, SellerEngine> = fed
            .catalog
            .nodes
            .iter()
            .map(|&n| {
                let mut e = SellerEngine::new(fed.catalog.holdings_of(n), cfg.clone());
                if let Some(r) = fed.resources.get(&n) {
                    e.resources = r.clone();
                }
                (n, e)
            })
            .collect();
        let mix = synthetic_mix(&fed.catalog.dict, 4, 11);
        let spec = ArrivalSpec {
            n_queries: 12,
            mean_interarrival: 0.5,
            seed: 11,
        };
        let arrivals = gen_arrivals(&mix, &spec)
            .into_iter()
            .map(|(t, q)| (t + 5.0, q))
            .collect();
        let serve = ServeConfig {
            concurrency: 4,
            hierarchy: Some(HierarchyConfig {
                fanout: 4,
                ..HierarchyConfig::default()
            }),
            ..ServeConfig::default()
        };
        let faults = FaultPlan::default().with_broker_crash(NodeId(16), 6.0, 6000.0);
        let out = run_qt_serve_with_faults(
            NodeId(0),
            fed.catalog.dict.clone(),
            arrivals,
            sellers,
            &cfg,
            &serve,
            Topology::Uniform(NetLink::wan()),
            Some(faults),
        );
        assert_eq!(out.reports.len(), 12);
        assert!(out.degraded_rounds > 0, "the crash cost rounds");
    }
}
