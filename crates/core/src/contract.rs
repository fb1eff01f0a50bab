//! Buyer-side contract lifecycle: two-phase awards, execution leases, and
//! deterministic failover to runner-up offers or scoped re-trades.
//!
//! The trading loop ends with the buyer holding a plan; with
//! [`QtConfig::enable_contracts`] on, each purchase then becomes a
//! *contract* driven through the `qt_trade::ContractState` machine by the
//! [`ContractController`]. The controller is a pure state machine: every
//! event handler returns a list of [`ContractAction`]s for the driver to
//! translate into simulator sends and timers. Because all decisions are
//! made here — single-threaded, over `BTreeMap`-ordered state, with
//! runner-ups picked by a total order over `(score, seller, offer id)` —
//! repaired plans are bit-deterministic across `QT_THREADS`, fault seeds,
//! and reply-arrival orders.
//!
//! Failover is layered: on winner loss the slot first re-awards to the best
//! surviving runner-up in the persisted bid book (every Pareto offer the
//! round produced, not just the winner); when the book runs dry the buyer
//! runs a *scoped re-trade* — one mini QT round whose RFB is restricted to
//! the lost subqueries — and splices the repaired subplan into the
//! distributed plan. Both repairs recompute the plan estimate, so cost
//! figures stay honest.

use crate::config::{
    retry_delay, QtConfig, AWARD_TIMEOUT, LEASE_PROBES, MAX_AWARD_RETRIES, MAX_LEASE_MISSES,
    MAX_RETRADE_ROUNDS,
};
use crate::dist_plan::{estimate_from, DistributedPlan};
use crate::offer::{Offer, OfferKind, RfbItem};
use qt_catalog::NodeId;
use qt_query::{Query, SharedQuery};
use qt_trade::ContractState;
use std::collections::{BTreeMap, BTreeSet};

/// Sentinel contract id of a pre-lifecycle one-way award notice: the seller
/// records the win and sends nothing back, preserving bit-identical message
/// counts for `enable_contracts = false` runs.
pub const LEGACY_CONTRACT: u64 = u64::MAX;

/// Scoped re-trade rounds are numbered from here down from `u32::MAX`, far
/// above any trading round (`max_iterations` is tiny), so one `round` field
/// serves both phases and sellers memoize repair RFBs like any other.
pub const REPAIR_ROUND_BASE: u32 = u32::MAX - 16;

/// Whether a round number denotes a scoped re-trade, not a trading round.
pub fn is_repair_round(round: u32) -> bool {
    round > REPAIR_ROUND_BASE
}

/// What the driver must do on the wire for the controller. The controller
/// never touches the simulator; drivers map actions onto `Ctx` calls (and
/// the direct driver onto analytic counters).
#[derive(Debug, Clone)]
pub enum ContractAction {
    /// Send (or retransmit) an award for `offer` under contract id
    /// `contract` to `seller`.
    SendAward {
        /// The awarded seller.
        seller: NodeId,
        /// Contract id.
        contract: u64,
        /// Awarded offer id.
        offer: u64,
    },
    /// Arm the award-ack deadline for `contract`.
    ArmAwardTimer {
        /// Contract id.
        contract: u64,
        /// Seconds until the deadline fires.
        delay: f64,
    },
    /// Send a zero-byte lease heartbeat to the contract's seller.
    SendLease {
        /// The leasing seller.
        seller: NodeId,
        /// Contract id.
        contract: u64,
    },
    /// Arm the lease-renewal check for `contract`.
    ArmLeaseTimer {
        /// Contract id.
        contract: u64,
        /// Seconds until the check fires.
        delay: f64,
    },
    /// Tell the seller its contract completed and the lease is released.
    SendRelease {
        /// The released seller.
        seller: NodeId,
        /// Contract id.
        contract: u64,
    },
    /// Broadcast a scoped re-trade RFB for the lost subqueries.
    SendRetrade {
        /// Live remote sellers to ask.
        targets: Vec<NodeId>,
        /// Repair round number (`> REPAIR_ROUND_BASE`).
        round: u32,
        /// The lost subqueries out for re-bid.
        items: Vec<RfbItem>,
    },
    /// Arm the re-trade response deadline.
    ArmRetradeTimer {
        /// Repair round number.
        round: u32,
        /// Seconds until the deadline fires.
        delay: f64,
    },
}

/// Lifecycle counters, accumulated by the controller and surfaced through
/// [`ServeOutcome::contracts`](crate::ServeOutcome::contracts).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ContractStats {
    /// Contracts created (initial awards, re-awards, and re-trade awards).
    pub contracts_awarded: u64,
    /// Distinct plan slots whose replacement contract completed.
    pub contracts_repaired: u64,
    /// Re-awards to a runner-up offer from the bid book.
    pub reawards: u64,
    /// Scoped re-trade rounds run.
    pub rescoped_trades: u64,
    /// Award messages sent (including retransmissions).
    pub awards_sent: u64,
    /// Award retransmissions after an unanswered ack deadline.
    pub award_retries: u64,
    /// Awards whose ack never arrived within the retry budget.
    pub lost_awards: u64,
    /// Leases expired after consecutive missed renewals.
    pub lease_expiries: u64,
    /// Slots abandoned with book and re-trade budget both exhausted.
    pub failed_repairs: u64,
}

impl ContractStats {
    /// Fold another session's counters into this aggregate.
    pub fn accumulate(&mut self, other: &ContractStats) {
        self.contracts_awarded += other.contracts_awarded;
        self.contracts_repaired += other.contracts_repaired;
        self.reawards += other.reawards;
        self.rescoped_trades += other.rescoped_trades;
        self.awards_sent += other.awards_sent;
        self.award_retries += other.award_retries;
        self.lost_awards += other.lost_awards;
        self.lease_expiries += other.lease_expiries;
        self.failed_repairs += other.failed_repairs;
    }
}

/// One contract's final (or current) standing, for
/// [`SessionReport::contracts`](crate::SessionReport::contracts) and the
/// `qtsh \contracts` dump.
#[derive(Debug, Clone)]
pub struct ContractReport {
    /// Contract id.
    pub id: u64,
    /// Plan slot the contract fills.
    pub slot: usize,
    /// The awarded seller.
    pub seller: NodeId,
    /// The awarded offer id.
    pub offer: u64,
    /// Lifecycle state label (`qt_trade::ContractState::label`).
    pub state: &'static str,
    /// Whether this contract replaced a lost one (re-award or re-trade).
    pub replacement: bool,
}

struct Contract {
    id: u64,
    slot: usize,
    seller: NodeId,
    offer: u64,
    state: ContractState,
    /// Award retransmissions so far.
    attempts: u32,
    /// Consecutive missed lease renewals.
    misses: u32,
    /// Successful lease renewals.
    probes: u32,
    /// Renewed since the last lease check.
    renewed: bool,
    replacement: bool,
}

/// Per-slot bid book: the subquery identity plus every competing offer,
/// persisted from the trading rounds for failover.
struct Slot {
    query: SharedQuery,
    kind: OfferKind,
    /// Candidates sorted by `(valuation score, seller, id)` — the failover
    /// preference order.
    candidates: Vec<Offer>,
    /// Sellers already awarded this slot (never re-tried).
    tried: BTreeSet<NodeId>,
}

/// Drives every contract of one distributed plan to a terminal state.
pub struct ContractController {
    buyer: NodeId,
    cfg: QtConfig,
    /// The plan under management; repairs splice replacement purchases in
    /// and recompute `est`.
    pub plan: DistributedPlan,
    slots: Vec<Slot>,
    contracts: BTreeMap<u64, Contract>,
    /// Contract-id namespace base (0 single-query; `(session+1) << 32` in
    /// the serving layer, mirroring its request-id encoding).
    base: u64,
    next: u64,
    /// Sellers declared lost (award retries exhausted or lease expired).
    pub lost: BTreeSet<NodeId>,
    repaired_slots: BTreeSet<usize>,
    /// Slots abandoned after the book and the re-trade budget ran dry.
    pub failed_slots: BTreeSet<usize>,
    // Scoped re-trade state.
    retrade_pending: BTreeSet<usize>,
    retrade_round: Option<u32>,
    retrade_targets: BTreeSet<NodeId>,
    retrade_answered: BTreeSet<NodeId>,
    retrade_offers: BTreeMap<NodeId, Vec<Offer>>,
    retrade_rounds_used: u32,
    remote_sellers: Vec<NodeId>,
    /// Lifecycle counters.
    pub stats: ContractStats,
    /// True once every contract is terminal and no re-trade is in flight.
    pub settled: bool,
}

impl ContractController {
    /// Take ownership of `plan`, persist the bid book from `all_offers`,
    /// and emit the initial award actions. Buyer-local purchases complete
    /// instantly (no wire).
    pub fn new(
        buyer: NodeId,
        cfg: QtConfig,
        plan: DistributedPlan,
        all_offers: &[Offer],
        remote_sellers: Vec<NodeId>,
        base: u64,
    ) -> (Self, Vec<ContractAction>) {
        let slots: Vec<Slot> = plan
            .purchases
            .iter()
            .map(|p| {
                let mut candidates: Vec<Offer> = all_offers
                    .iter()
                    .filter(|o| o.promises(&p.offer.query, p.offer.kind))
                    .cloned()
                    .collect();
                sort_candidates(&mut candidates, &cfg);
                Slot {
                    query: p.offer.query.clone(),
                    kind: p.offer.kind,
                    candidates,
                    tried: BTreeSet::new(),
                }
            })
            .collect();
        let mut ctl = ContractController {
            buyer,
            cfg,
            plan,
            slots,
            contracts: BTreeMap::new(),
            base,
            next: 0,
            lost: BTreeSet::new(),
            repaired_slots: BTreeSet::new(),
            failed_slots: BTreeSet::new(),
            retrade_pending: BTreeSet::new(),
            retrade_round: None,
            retrade_targets: BTreeSet::new(),
            retrade_answered: BTreeSet::new(),
            retrade_offers: BTreeMap::new(),
            retrade_rounds_used: 0,
            remote_sellers,
            stats: ContractStats::default(),
            settled: false,
        };
        let mut actions = Vec::new();
        for slot in 0..ctl.plan.purchases.len() {
            let offer = ctl.plan.purchases[slot].offer.clone();
            ctl.award(slot, &offer, false, &mut actions);
        }
        ctl.check_settled();
        (ctl, actions)
    }

    /// Create a contract for `offer` at `slot` and emit its award (or
    /// complete it instantly when the buyer sells to itself).
    fn award(
        &mut self,
        slot: usize,
        offer: &Offer,
        replacement: bool,
        actions: &mut Vec<ContractAction>,
    ) {
        let id = self.base + self.next;
        self.next += 1;
        self.slots[slot].tried.insert(offer.seller);
        self.stats.contracts_awarded += 1;
        let mut c = Contract {
            id,
            slot,
            seller: offer.seller,
            offer: offer.id,
            state: ContractState::Proposed,
            attempts: 0,
            misses: 0,
            probes: 0,
            renewed: false,
            replacement,
        };
        if offer.seller == self.buyer {
            // The buyer's own data needs no wire protocol: the "delivery" is
            // local, so the contract completes on the spot.
            transition(&mut c, ContractState::Completed);
            if replacement {
                self.repaired_slots.insert(slot);
                self.stats.contracts_repaired = self.repaired_slots.len() as u64;
            }
        } else {
            transition(&mut c, ContractState::Awarded);
            self.stats.awards_sent += 1;
            actions.push(ContractAction::SendAward {
                seller: offer.seller,
                contract: id,
                offer: offer.id,
            });
            actions.push(ContractAction::ArmAwardTimer {
                contract: id,
                delay: AWARD_TIMEOUT,
            });
        }
        self.contracts.insert(id, c);
    }

    /// The seller acknowledged an award: the contract moves to `Leased` and
    /// the heartbeat cycle starts. Duplicate acks are ignored.
    pub fn on_award_ack(&mut self, contract: u64) -> Vec<ContractAction> {
        let mut actions = Vec::new();
        if let Some(c) = self.contracts.get_mut(&contract) {
            if c.state == ContractState::Awarded {
                transition(c, ContractState::Acked);
                transition(c, ContractState::Leased);
                actions.push(ContractAction::SendLease {
                    seller: c.seller,
                    contract,
                });
                actions.push(ContractAction::ArmLeaseTimer {
                    contract,
                    delay: self.cfg.lease_interval,
                });
            }
        }
        actions
    }

    /// The seller refused the award: fail the slot over immediately.
    pub fn on_award_decline(&mut self, contract: u64) -> Vec<ContractAction> {
        let mut actions = Vec::new();
        let Some(c) = self.contracts.get_mut(&contract) else {
            return actions;
        };
        if c.state != ContractState::Awarded {
            return actions;
        }
        transition(c, ContractState::Declined);
        let slot = c.slot;
        // A decline is a refusal, not a loss: the seller stays live (its
        // other contracts stand) but is never re-tried for this slot (it is
        // already in `tried`).
        self.repair_slot(slot, &mut actions);
        self.check_settled();
        actions
    }

    /// The award-ack deadline fired: retransmit with capped exponential
    /// backoff, or declare the winner lost and fail over.
    pub fn on_award_timeout(&mut self, contract: u64) -> Vec<ContractAction> {
        let mut actions = Vec::new();
        let Some(c) = self.contracts.get_mut(&contract) else {
            return actions;
        };
        if c.state != ContractState::Awarded {
            return actions; // stale timer: the contract already moved on
        }
        if c.attempts < MAX_AWARD_RETRIES {
            c.attempts += 1;
            self.stats.award_retries += 1;
            self.stats.awards_sent += 1;
            let delay = retry_delay(AWARD_TIMEOUT, c.attempts);
            actions.push(ContractAction::SendAward {
                seller: c.seller,
                contract,
                offer: c.offer,
            });
            actions.push(ContractAction::ArmAwardTimer { contract, delay });
        } else {
            self.stats.lost_awards += 1;
            self.fail_contract(contract, &mut actions);
            self.check_settled();
        }
        actions
    }

    /// The seller renewed its lease.
    pub fn on_lease_ack(&mut self, contract: u64) -> Vec<ContractAction> {
        if let Some(c) = self.contracts.get_mut(&contract) {
            if c.state == ContractState::Leased {
                c.renewed = true;
            }
        }
        Vec::new()
    }

    /// The lease-renewal check fired: probe again, complete after enough
    /// successful renewals, or expire after too many consecutive misses.
    pub fn on_lease_tick(&mut self, contract: u64) -> Vec<ContractAction> {
        let mut actions = Vec::new();
        let Some(c) = self.contracts.get_mut(&contract) else {
            return actions;
        };
        if c.state != ContractState::Leased {
            return actions;
        }
        if c.renewed {
            c.renewed = false;
            c.misses = 0;
            c.probes += 1;
            if c.probes >= LEASE_PROBES {
                // The winner held its lease through probation: the contract
                // stands and the seller is released from heartbeating.
                transition(c, ContractState::Completed);
                actions.push(ContractAction::SendRelease {
                    seller: c.seller,
                    contract,
                });
                if c.replacement {
                    let slot = c.slot;
                    self.repaired_slots.insert(slot);
                    self.stats.contracts_repaired = self.repaired_slots.len() as u64;
                }
                self.check_settled();
                return actions;
            }
        } else {
            c.misses += 1;
            if c.misses >= MAX_LEASE_MISSES {
                self.stats.lease_expiries += 1;
                self.fail_contract(contract, &mut actions);
                self.check_settled();
                return actions;
            }
        }
        actions.push(ContractAction::SendLease {
            seller: c.seller,
            contract,
        });
        actions.push(ContractAction::ArmLeaseTimer {
            contract,
            delay: self.cfg.lease_interval,
        });
        actions
    }

    /// Offers answering a scoped re-trade RFB arrived.
    pub fn on_retrade_offers(
        &mut self,
        from: NodeId,
        round: u32,
        offers: Vec<Offer>,
    ) -> Vec<ContractAction> {
        let mut actions = Vec::new();
        if self.retrade_round != Some(round) || !self.retrade_targets.contains(&from) {
            return actions; // stale or unsolicited
        }
        if self.retrade_answered.insert(from) {
            self.retrade_offers.insert(from, offers);
            if self.retrade_answered.len() == self.retrade_targets.len() {
                self.close_retrade(&mut actions);
            }
        }
        actions
    }

    /// The re-trade response deadline fired: close the round on whatever
    /// arrived.
    pub fn on_retrade_timeout(&mut self, round: u32) -> Vec<ContractAction> {
        let mut actions = Vec::new();
        if self.retrade_round == Some(round) {
            self.close_retrade(&mut actions);
        }
        actions
    }

    /// Declare a contract's seller lost, expire every live contract it
    /// holds, and fail the affected slots over.
    fn fail_contract(&mut self, contract: u64, actions: &mut Vec<ContractAction>) {
        let Some(c) = self.contracts.get_mut(&contract) else {
            return;
        };
        let seller = c.seller;
        transition(c, ContractState::Expired);
        self.lost.insert(seller);
        // The loss is per-node: proactively expire the seller's other live
        // contracts instead of waiting for their own timers.
        let mut slots = vec![c.slot];
        let others: Vec<u64> = self
            .contracts
            .values()
            .filter(|o| o.seller == seller && !o.state.is_terminal())
            .map(|o| o.id)
            .collect();
        for id in others {
            let o = self.contracts.get_mut(&id).expect("contract exists");
            transition(o, ContractState::Expired);
            slots.push(o.slot);
        }
        for slot in slots {
            self.repair_slot(slot, actions);
        }
    }

    /// Fail one slot over: re-award to the best surviving runner-up in the
    /// bid book, or queue the slot for a scoped re-trade.
    fn repair_slot(&mut self, slot: usize, actions: &mut Vec<ContractAction>) {
        let runner_up = {
            let s = &self.slots[slot];
            s.candidates
                .iter()
                .find(|o| {
                    !self.lost.contains(&o.seller)
                        && !s.tried.contains(&o.seller)
                        && o.subcontracts.iter().all(|(n, _)| !self.lost.contains(n))
                })
                .cloned()
        };
        match runner_up {
            Some(offer) => {
                self.stats.reawards += 1;
                self.splice(slot, &offer);
                self.award(slot, &offer, true, actions);
            }
            None => {
                self.retrade_pending.insert(slot);
                if self.retrade_round.is_none() {
                    self.start_retrade(actions);
                }
            }
        }
    }

    /// Replace the slot's purchase with `offer` and recompute the plan
    /// estimate, keeping cost figures honest after repair.
    fn splice(&mut self, slot: usize, offer: &Offer) {
        let p = &mut self.plan.purchases[slot];
        p.offer = offer.clone();
        p.agreed_value = self.cfg.valuation.score(&offer.props);
        let rows = self.plan.est.rows;
        let buyer_compute = self.plan.est.buyer_compute;
        self.plan.est = estimate_from(&self.plan.purchases, buyer_compute, rows);
    }

    /// Open a scoped re-trade round for the queued slots, or abandon them
    /// when the budget ran dry.
    fn start_retrade(&mut self, actions: &mut Vec<ContractAction>) {
        if self.retrade_pending.is_empty() {
            return;
        }
        if self.retrade_rounds_used >= MAX_RETRADE_ROUNDS {
            let pending: Vec<usize> = self.retrade_pending.iter().copied().collect();
            for slot in pending {
                self.abandon(slot);
            }
            self.retrade_pending.clear();
            return;
        }
        let targets: Vec<NodeId> = self
            .remote_sellers
            .iter()
            .copied()
            .filter(|s| !self.lost.contains(s))
            .collect();
        if targets.is_empty() {
            let pending: Vec<usize> = self.retrade_pending.iter().copied().collect();
            for slot in pending {
                self.abandon(slot);
            }
            self.retrade_pending.clear();
            return;
        }
        self.retrade_rounds_used += 1;
        self.stats.rescoped_trades += 1;
        let round = REPAIR_ROUND_BASE + self.retrade_rounds_used;
        let items: Vec<RfbItem> = self
            .retrade_pending
            .iter()
            .map(|&slot| RfbItem {
                query: Query::clone(&self.slots[slot].query),
                ref_value: self.plan.purchases[slot].agreed_value,
            })
            .collect();
        self.retrade_round = Some(round);
        self.retrade_targets = targets.iter().copied().collect();
        self.retrade_answered.clear();
        self.retrade_offers.clear();
        actions.push(ContractAction::SendRetrade {
            targets,
            round,
            items,
        });
        actions.push(ContractAction::ArmRetradeTimer {
            round,
            delay: self.cfg.seller_timeout,
        });
    }

    /// Close the re-trade round: consume replies in ascending seller order
    /// (determinism), refill the books, award repaired slots, and re-open
    /// for any still uncovered.
    fn close_retrade(&mut self, actions: &mut Vec<ContractAction>) {
        self.retrade_round = None;
        let offers: Vec<Offer> = std::mem::take(&mut self.retrade_offers)
            .into_values()
            .flatten()
            .collect();
        self.retrade_targets.clear();
        self.retrade_answered.clear();
        // Fresh bids extend every matching slot's book, then the ordinary
        // runner-up rule picks winners — a re-trade is just a book refill.
        for slot in &mut self.slots {
            slot.candidates.extend(
                offers
                    .iter()
                    .filter(|o| o.promises(&slot.query, slot.kind))
                    .cloned(),
            );
            let cfg = &self.cfg;
            sort_candidates(&mut slot.candidates, cfg);
            slot.candidates.dedup_by_key(|o| (o.seller, o.id));
        }
        let pending: Vec<usize> = std::mem::take(&mut self.retrade_pending)
            .into_iter()
            .collect();
        for slot in pending {
            self.repair_slot(slot, actions);
        }
        // Slots the refill still could not cover queue another round (or
        // abandonment) via repair_slot; open it now.
        if self.retrade_round.is_none() && !self.retrade_pending.is_empty() {
            self.start_retrade(actions);
        }
        self.check_settled();
    }

    /// Give a slot up: book exhausted and no re-trade budget left.
    fn abandon(&mut self, slot: usize) {
        self.stats.failed_repairs += 1;
        self.failed_slots.insert(slot);
    }

    /// Whether every slot is backed by a completed-or-live contract from a
    /// live seller (no abandoned slots).
    pub fn plan_valid(&self) -> bool {
        self.failed_slots.is_empty()
    }

    fn check_settled(&mut self) {
        self.settled = self.retrade_round.is_none()
            && self.retrade_pending.is_empty()
            && self.contracts.values().all(|c| c.state.is_terminal());
    }

    /// Per-contract standing, in contract-id order.
    pub fn reports(&self) -> Vec<ContractReport> {
        self.contracts
            .values()
            .map(|c| ContractReport {
                id: c.id,
                slot: c.slot,
                seller: c.seller,
                offer: c.offer,
                state: c.state.label(),
                replacement: c.replacement,
            })
            .collect()
    }
}

/// The failover preference order: best valuation score first, ties broken
/// by seller then offer id — a total order, so repairs are deterministic.
fn sort_candidates(candidates: &mut [Offer], cfg: &QtConfig) {
    candidates.sort_by(|a, b| {
        cfg.valuation
            .score(&a.props)
            .total_cmp(&cfg.valuation.score(&b.props))
            .then(a.seller.cmp(&b.seller))
            .then(a.id.cmp(&b.id))
    });
}

fn transition(c: &mut Contract, to: ContractState) {
    debug_assert!(
        c.state.may_transition(to),
        "illegal contract transition {:?} -> {to:?}",
        c.state
    );
    c.state = to;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist_plan::Purchase;
    use qt_catalog::{
        AttrType, CatalogBuilder, PartId, PartitionStats, Partitioning, RelationSchema,
    };
    use qt_cost::AnswerProperties;
    use qt_exec::PhysPlan;
    use qt_query::parse_query;

    fn fixture_query() -> Query {
        let mut b = CatalogBuilder::new();
        let r = b.add_relation(
            RelationSchema::new("r", vec![("a", AttrType::Int)]),
            Partitioning::Single,
        );
        b.set_stats(PartId::new(r, 0), PartitionStats::synthetic(10, &[10]));
        b.place(PartId::new(r, 0), NodeId(1));
        let cat = b.build();
        parse_query(&cat.dict, "SELECT a FROM r").unwrap()
    }

    fn offer(id: u64, seller: u32, q: &Query, time: f64) -> Offer {
        Offer {
            id,
            seller: NodeId(seller),
            query: q.clone().into(),
            props: AnswerProperties::timed(time, 10.0, 80.0),
            true_cost: time,
            kind: OfferKind::Rows,
            round: 0,
            subcontracts: vec![],
        }
    }

    fn plan_of(q: &Query, winner: &Offer) -> DistributedPlan {
        let purchases = vec![Purchase {
            offer: winner.clone(),
            slot: 0,
            agreed_value: QtConfig::default().valuation.score(&winner.props),
        }];
        let est = estimate_from(&purchases, 0.0, 10.0);
        DistributedPlan {
            query: q.clone(),
            purchases,
            assembly: PhysPlan::Input {
                slot: 0,
                schema: vec![],
            },
            est,
        }
    }

    fn controller(offers: &[Offer], remotes: &[u32]) -> (ContractController, Vec<ContractAction>) {
        let q = fixture_query();
        let plan = plan_of(&q, &offers[0]);
        ContractController::new(
            NodeId(0),
            QtConfig::default(),
            plan,
            offers,
            remotes.iter().map(|&n| NodeId(n)).collect(),
            0,
        )
    }

    #[test]
    fn fault_free_lifecycle_completes_with_lease_probes() {
        let q = fixture_query();
        let offers = [offer(1, 1, &q, 1.0), offer(2, 2, &q, 2.0)];
        let (mut ctl, actions) = controller(&offers, &[1, 2]);
        assert!(matches!(
            actions[0],
            ContractAction::SendAward {
                seller: NodeId(1),
                contract: 0,
                offer: 1
            }
        ));
        assert!(matches!(actions[1], ContractAction::ArmAwardTimer { .. }));
        let acts = ctl.on_award_ack(0);
        assert!(matches!(acts[0], ContractAction::SendLease { .. }));
        // Duplicate acks (retransmitted award) are harmless.
        assert!(ctl.on_award_ack(0).is_empty());
        for probe in 0..LEASE_PROBES {
            ctl.on_lease_ack(0);
            let acts = ctl.on_lease_tick(0);
            if probe + 1 == LEASE_PROBES {
                assert!(matches!(acts[0], ContractAction::SendRelease { .. }));
            } else {
                assert!(matches!(acts[0], ContractAction::SendLease { .. }));
            }
        }
        assert!(ctl.settled);
        assert!(ctl.plan_valid());
        assert_eq!(ctl.stats.contracts_awarded, 1);
        assert_eq!(ctl.stats.contracts_repaired, 0);
        assert_eq!(ctl.reports()[0].state, "completed");
    }

    #[test]
    fn lost_award_reawards_the_runner_up() {
        let q = fixture_query();
        let offers = [offer(1, 1, &q, 1.0), offer(2, 2, &q, 2.0)];
        let (mut ctl, _) = controller(&offers, &[1, 2]);
        // Never acked: retries, then failover to seller 2.
        let mut retries = 0;
        loop {
            let acts = ctl.on_award_timeout(0);
            if let Some(ContractAction::SendAward { seller, .. }) = acts.first() {
                if *seller == NodeId(2) {
                    break; // the re-award
                }
                retries += 1;
                assert_eq!(*seller, NodeId(1));
            } else {
                panic!("expected a retransmission or a re-award");
            }
        }
        assert_eq!(retries, MAX_AWARD_RETRIES);
        assert_eq!(ctl.stats.lost_awards, 1);
        assert_eq!(ctl.stats.reawards, 1);
        assert!(ctl.lost.contains(&NodeId(1)));
        assert_eq!(ctl.plan.purchases[0].offer.seller, NodeId(2));
        // The replacement completes → the slot counts as repaired.
        let c = ctl.reports().last().unwrap().id;
        ctl.on_award_ack(c);
        for _ in 0..LEASE_PROBES {
            ctl.on_lease_ack(c);
            ctl.on_lease_tick(c);
        }
        assert!(ctl.settled);
        assert_eq!(ctl.stats.contracts_repaired, 1);
    }

    #[test]
    fn lease_expiry_fails_over_deterministically() {
        let q = fixture_query();
        let offers = [offer(1, 1, &q, 1.0), offer(2, 2, &q, 2.0)];
        let (mut ctl, _) = controller(&offers, &[1, 2]);
        ctl.on_award_ack(0);
        // The seller stops renewing: misses accumulate to expiry.
        let mut reawarded = false;
        for _ in 0..MAX_LEASE_MISSES {
            let acts = ctl.on_lease_tick(0);
            if acts.iter().any(
                |a| matches!(a, ContractAction::SendAward { seller, .. } if *seller == NodeId(2)),
            ) {
                reawarded = true;
            }
        }
        assert!(reawarded, "expiry must re-award the runner-up");
        assert_eq!(ctl.stats.lease_expiries, 1);
        assert_eq!(ctl.stats.reawards, 1);
    }

    #[test]
    fn decline_moves_on_without_marking_the_seller_lost() {
        let q = fixture_query();
        let offers = [offer(1, 1, &q, 1.0), offer(2, 2, &q, 2.0)];
        let (mut ctl, _) = controller(&offers, &[1, 2]);
        let acts = ctl.on_award_decline(0);
        assert!(acts.iter().any(
            |a| matches!(a, ContractAction::SendAward { seller, .. } if *seller == NodeId(2))
        ));
        assert!(!ctl.lost.contains(&NodeId(1)), "a decline is not a crash");
        assert_eq!(ctl.reports()[0].state, "declined");
    }

    #[test]
    fn exhausted_book_runs_a_scoped_retrade_and_splices() {
        let q = fixture_query();
        // Only the winner is in the book: loss forces a re-trade.
        let offers = [offer(1, 1, &q, 1.0)];
        let (mut ctl, _) = controller(&offers, &[1, 2]);
        let mut acts = Vec::new();
        for _ in 0..=MAX_AWARD_RETRIES {
            acts = ctl.on_award_timeout(0);
        }
        let Some(ContractAction::SendRetrade {
            targets,
            round,
            items,
        }) = acts
            .iter()
            .find(|a| matches!(a, ContractAction::SendRetrade { .. }))
        else {
            panic!("book exhausted: expected a scoped re-trade, got {acts:?}");
        };
        assert_eq!(targets, &[NodeId(2)], "only live sellers are asked");
        assert!(is_repair_round(*round));
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].query, q);
        assert_eq!(ctl.stats.rescoped_trades, 1);
        // Seller 2 answers; its bid is spliced in and awarded.
        let acts = ctl.on_retrade_offers(NodeId(2), *round, vec![offer(9, 2, &q, 3.0)]);
        assert!(acts.iter().any(
            |a| matches!(a, ContractAction::SendAward { seller, .. } if *seller == NodeId(2))
        ));
        assert_eq!(ctl.plan.purchases[0].offer.id, 9);
        assert!(ctl.plan_valid());
        // Duplicate replies to a closed round are ignored.
        assert!(ctl.on_retrade_offers(NodeId(2), *round, vec![]).is_empty());
    }

    #[test]
    fn dry_retrades_abandon_the_slot() {
        let q = fixture_query();
        let offers = [offer(1, 1, &q, 1.0)];
        let (mut ctl, _) = controller(&offers, &[1, 2]);
        let mut acts = Vec::new();
        for _ in 0..=MAX_AWARD_RETRIES {
            acts = ctl.on_award_timeout(0);
        }
        // Every re-trade round times out empty until the budget runs dry.
        for _ in 0..MAX_RETRADE_ROUNDS {
            let Some(ContractAction::ArmRetradeTimer { round, .. }) = acts
                .iter()
                .find(|a| matches!(a, ContractAction::ArmRetradeTimer { .. }))
            else {
                panic!("expected a re-trade deadline, got {acts:?}");
            };
            acts = ctl.on_retrade_timeout(*round);
        }
        assert!(ctl.settled);
        assert!(!ctl.plan_valid());
        assert_eq!(ctl.stats.failed_repairs, 1);
        assert_eq!(ctl.stats.rescoped_trades, MAX_RETRADE_ROUNDS as u64);
    }

    #[test]
    fn buyer_local_purchases_complete_instantly() {
        let q = fixture_query();
        let offers = [offer(1, 0, &q, 1.0)]; // the buyer sells to itself
        let (ctl, actions) = controller(&offers, &[1, 2]);
        assert!(actions.is_empty(), "no wire protocol for local data");
        assert!(ctl.settled);
        assert_eq!(ctl.reports()[0].state, "completed");
        assert_eq!(ctl.stats.contracts_awarded, 1);
    }

    #[test]
    fn losing_a_seller_fails_its_other_contracts_proactively() {
        let q = fixture_query();
        let w1 = offer(1, 1, &q, 1.0);
        let w2 = offer(2, 1, &q, 1.5); // same seller holds both slots
        let runner = offer(3, 2, &q, 2.0);
        let offers = [w1.clone(), w2.clone(), runner];
        let purchases = vec![
            Purchase {
                offer: w1,
                slot: 0,
                agreed_value: 1.0,
            },
            Purchase {
                offer: w2,
                slot: 1,
                agreed_value: 1.5,
            },
        ];
        let est = estimate_from(&purchases, 0.0, 10.0);
        let plan = DistributedPlan {
            query: q.clone(),
            purchases,
            assembly: PhysPlan::Input {
                slot: 0,
                schema: vec![],
            },
            est,
        };
        let (mut ctl, _) = ContractController::new(
            NodeId(0),
            QtConfig::default(),
            plan,
            &offers,
            vec![NodeId(1), NodeId(2)],
            0,
        );
        // Contract 0's award never acks; contract 1 is still Awarded when
        // the seller is declared lost — both must fail over to seller 2.
        for _ in 0..=MAX_AWARD_RETRIES {
            ctl.on_award_timeout(0);
        }
        assert!(ctl.lost.contains(&NodeId(1)));
        assert_eq!(ctl.plan.purchases[0].offer.seller, NodeId(2));
        assert_eq!(ctl.plan.purchases[1].offer.seller, NodeId(2));
        assert_eq!(ctl.stats.reawards, 2);
    }

    #[test]
    fn repair_round_constants_are_disjoint_from_trading_rounds() {
        assert!(!is_repair_round(0));
        assert!(!is_repair_round(QtConfig::default().max_iterations));
        assert!(!is_repair_round(REPAIR_ROUND_BASE));
        assert!(is_repair_round(REPAIR_ROUND_BASE + 1));
        assert!(is_repair_round(u32::MAX));
    }
}
