//! The buyer query plan generator (B4): *answering queries using offers*.
//!
//! Offers are views over the requested data; the generator composes them —
//! unions across partition fragments, buyer-local joins across relation
//! subsets, re-aggregation of partial aggregates — into complete candidate
//! plans, and keeps the cheapest. The general problem is NP-complete (it is
//! answering-queries-using-views); like the paper we use a dynamic program
//! over relation subsets with a greedy cover step per subset.

use crate::config::QtConfig;
use crate::dist_plan::{answer_schema, estimate_from, DistributedPlan, Purchase};
use crate::offer::{Offer, OfferKind};
use crate::relset::RelSet;
use qt_catalog::{RelId, SchemaDict};
use qt_cost::NodeResources;
use qt_exec::{AggSpec, PhysPlan};
use qt_query::{Col, CompOp, Operand, Predicate, Query, SelectItem};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// What the generator returns.
#[derive(Debug)]
pub struct GenOutput {
    /// The best plan found, if any.
    pub plan: Option<DistributedPlan>,
    /// Offers/combinations considered (drives simulated planning time).
    pub considered: u64,
    /// Relation-subset pairs joined *at the buyer* in the best plan — the
    /// buyer predicates analyser turns these into next-round queries.
    pub join_sites: Vec<(BTreeSet<RelId>, BTreeSet<RelId>)>,
}

/// The relation numbering of one generator invocation: index ↔ `RelId` for
/// the target query's `FROM` list (ascending `RelId`), so subsets live in
/// [`RelSet`] words throughout the search.
struct RelSpace {
    rels: Vec<RelId>,
    index: BTreeMap<RelId, usize>,
}

impl RelSpace {
    fn new(q: &Query) -> RelSpace {
        let rels: Vec<RelId> = q.rel_ids().collect();
        let index = rels.iter().enumerate().map(|(i, &r)| (r, i)).collect();
        RelSpace { rels, index }
    }

    fn n(&self) -> usize {
        self.rels.len()
    }

    /// Members of `set` as `RelId`s, ascending.
    fn rel_ids(&self, set: RelSet) -> impl Iterator<Item = RelId> + '_ {
        set.iter().map(move |i| self.rels[i])
    }

    /// Pack `rels` into a [`RelSet`]; `None` if any is outside the space.
    fn set_of(&self, rels: impl IntoIterator<Item = RelId>) -> Option<RelSet> {
        let mut s = RelSet::EMPTY;
        for r in rels {
            s.insert(*self.index.get(&r)?);
        }
        Some(s)
    }

    /// Expand to the boundary representation.
    fn to_btree(&self, set: RelSet) -> BTreeSet<RelId> {
        self.rel_ids(set).collect()
    }
}

/// Plan skeleton built during search; materialized into [`PhysPlan`] at the
/// end (slot assignment happens then).
#[derive(Debug, Clone)]
enum Skel {
    Buy(usize),
    Union(Vec<usize>),
    Join {
        left: Box<Skel>,
        right: Box<Skel>,
        left_rels: RelSet,
        right_rels: RelSet,
    },
}

impl Skel {
    fn offers(&self, out: &mut Vec<usize>) {
        match self {
            Skel::Buy(i) => out.push(*i),
            Skel::Union(v) => out.extend(v.iter().copied()),
            Skel::Join { left, right, .. } => {
                left.offers(out);
                right.offers(out);
            }
        }
    }

    fn join_sites(&self, out: &mut Vec<(RelSet, RelSet)>) {
        if let Skel::Join {
            left,
            right,
            left_rels,
            right_rels,
        } = self
        {
            out.push((*left_rels, *right_rels));
            left.join_sites(out);
            right.join_sites(out);
        }
    }
}

#[derive(Debug, Clone)]
struct Entry {
    skel: Skel,
    cost: f64,
    rows: f64,
}

/// The plan generator for one target query.
pub struct PlanGenerator<'a> {
    /// Shared dictionary.
    pub dict: &'a SchemaDict,
    /// The target query.
    pub query: &'a Query,
    /// Config (valuation, cost params).
    pub config: &'a QtConfig,
    /// The buyer node's resources (local assembly runs there).
    pub buyer_resources: NodeResources,
}

impl<'a> PlanGenerator<'a> {
    /// Score an offer under the buyer's valuation.
    fn score(&self, o: &Offer) -> f64 {
        self.config.valuation.score(&o.props)
    }

    fn cpu(&self) -> f64 {
        self.buyer_resources.cpu_factor()
    }

    /// Measure of a coverage box: the product over relations of covered
    /// partition counts (within the requested sets).
    fn box_measure(&self, q: &Query, rels: RelSet, space: &RelSpace) -> u64 {
        space
            .rel_ids(rels)
            .map(|r| {
                q.relations
                    .get(&r)
                    .map(|p| p.intersect(&self.query.relations[&r]).len() as u64)
                    .unwrap_or(0)
            })
            .product()
    }

    /// Are two fragment queries provably disjoint? (Some relation's
    /// partition sets are disjoint.)
    fn boxes_disjoint(a: &Query, b: &Query) -> bool {
        a.relations
            .iter()
            .any(|(rel, pa)| b.relations.get(rel).is_some_and(|pb| pa.is_disjoint(pb)))
    }

    /// Greedy disjoint cover: pick offers (cheapest first) whose boxes are
    /// pairwise disjoint until they tile the full requested box over `rels`.
    fn greedy_cover(
        &self,
        offers: &[(usize, &Offer)],
        rels: RelSet,
        space: &RelSpace,
        considered: &mut u64,
    ) -> Option<Vec<usize>> {
        let full_measure: u64 = space
            .rel_ids(rels)
            .map(|r| self.query.relations[&r].len() as u64)
            .product();
        // Order by per-partition price (so large cheap fragments are laid
        // down first and singletons fill the gaps), then absolute score.
        let mut order: Vec<(usize, &Offer)> = offers.to_vec();
        order.sort_by(|a, b| {
            let ma = self.box_measure(&a.1.query, rels, space).max(1) as f64;
            let mb = self.box_measure(&b.1.query, rels, space).max(1) as f64;
            (self.score(a.1) / ma)
                .total_cmp(&(self.score(b.1) / mb))
                .then(self.score(a.1).total_cmp(&self.score(b.1)))
                .then(a.1.id.cmp(&b.1.id))
        });
        let mut chosen: Vec<usize> = Vec::new();
        let mut chosen_queries: Vec<&Query> = Vec::new();
        let mut measure = 0u64;
        for (idx, offer) in order {
            *considered += 1;
            if chosen_queries
                .iter()
                .any(|q| !Self::boxes_disjoint(q, &offer.query))
            {
                continue;
            }
            measure += self.box_measure(&offer.query, rels, space);
            chosen.push(idx);
            chosen_queries.push(&offer.query);
            if measure == full_measure {
                return Some(chosen);
            }
            if measure > full_measure {
                return None; // can't happen with disjoint boxes, defensive
            }
        }
        None
    }

    /// Main entry: generate the best plan from `offers`. The search works
    /// on borrowed offers; only the purchases of the winning plan clone one
    /// (a reference-count bump on its query).
    pub fn generate(&self, offers: &[Offer]) -> GenOutput {
        let mut considered = 0u64;
        let q_core = self.query.strip_aggregation();
        let space = RelSpace::new(self.query);
        let n = space.n();

        // ---- Classify offers --------------------------------------------
        let mut whole: Vec<(usize, &Offer)> = Vec::new();
        let mut partial_agg: Vec<(usize, &Offer)> = Vec::new();
        // Row fragments grouped by relation subset, deduped per coverage box.
        let mut groups: BTreeMap<RelSet, Vec<(usize, &Offer)>> = BTreeMap::new();
        let mut best_per_box: HashMap<(RelSet, Vec<u64>), (usize, f64)> = HashMap::new();
        // The fragment shape expected over each relation subset, derived at
        // the subset's first offer: a pool holds a handful of subsets.
        let mut shapes: HashMap<RelSet, Query> = HashMap::new();
        // Offers' fingerprints are memoised in their query handles, so a
        // mismatch settles "not the whole answer" without a deep comparison.
        let target = self.query.fingerprint();

        for (i, o) in offers.iter().enumerate() {
            considered += 1;
            match o.kind {
                _ if o.query.fingerprint() == target && o.query == *self.query => {
                    whole.push((i, o));
                    continue;
                }
                OfferKind::PartialAggregate => {
                    if self.usable_partial_agg(o) {
                        partial_agg.push((i, o));
                    }
                    continue;
                }
                _ => {}
            }
            let Some(subset) = self.usable_fragment(&q_core, o, &space, &mut shapes) else {
                continue;
            };
            // Dedup: keep the cheapest offer per exact coverage box.
            let box_key: Vec<u64> = space
                .rel_ids(subset)
                .map(|r| o.query.relations[&r].bits())
                .collect();
            let score = self.score(o);
            let key = (subset, box_key);
            match best_per_box.get(&key) {
                Some((_, s)) if *s <= score => continue,
                _ => {
                    best_per_box.insert(key, (i, score));
                }
            }
        }
        for ((subset, _), (i, _)) in best_per_box {
            groups.entry(subset).or_default().push((i, &offers[i]));
        }

        // ---- Per-subset assemblies --------------------------------------
        let mut table: HashMap<RelSet, Entry> = HashMap::new();
        let mut by_size: Vec<Vec<RelSet>> = vec![Vec::new(); n + 1];
        let p = &self.config.cost_params;
        for (&subset, group) in &groups {
            let Some(chosen) = self.greedy_cover(group, subset, &space, &mut considered) else {
                continue;
            };
            let rows: f64 = chosen.iter().map(|&i| offers[i].props.rows).sum();
            let mut cost: f64 = chosen.iter().map(|&i| self.score(&offers[i])).sum();
            let skel = if chosen.len() == 1 {
                Skel::Buy(chosen[0])
            } else {
                cost += p.union(rows) * self.cpu();
                Skel::Union(chosen)
            };
            // One group per subset: always a new table entry.
            table.insert(subset, Entry { skel, cost, rows });
            by_size[subset.len()].push(subset);
        }

        // ---- DP joins over subsets --------------------------------------
        for size in 2..=n {
            // A join of `size` relations only ever adds masks of that size,
            // so the smaller sizes' lists can be read while it grows.
            let (smaller, same_size) = by_size.split_at_mut(size);
            for s1 in 1..=size / 2 {
                let s2 = size - s1;
                for &m1 in &smaller[s1] {
                    for &m2 in &smaller[s2] {
                        if !m1.is_disjoint(m2) || (s1 == s2 && m1 >= m2) {
                            continue;
                        }
                        considered += 1;
                        let (Some(l), Some(r)) = (table.get(&m1), table.get(&m2)) else {
                            continue;
                        };
                        let (mut has_eq, mut has_residual) = (false, false);
                        for (_, _, p) in connecting(&q_core, m1, m2, &space) {
                            if p.op == CompOp::Eq {
                                has_eq = true;
                            } else {
                                has_residual = true;
                            }
                        }
                        let (out_rows, join_cost) = if has_eq {
                            (
                                l.rows.max(r.rows),
                                p.hash_join(
                                    l.rows.min(r.rows),
                                    l.rows.max(r.rows),
                                    l.rows.max(r.rows),
                                ) * self.cpu(),
                            )
                        } else {
                            let out = l.rows * r.rows;
                            (out, p.nl_join(l.rows, r.rows, out) * self.cpu())
                        };
                        let mut cost = l.cost + r.cost + join_cost;
                        if has_residual && has_eq {
                            cost += p.filter(out_rows) * self.cpu();
                        }
                        // Most candidates lose to the entry already there:
                        // only a winner's skeleton (two sub-tree copies) is
                        // built.
                        let mask = m1.union(m2);
                        if matches!(table.get(&mask), Some(e) if e.cost <= cost) {
                            continue;
                        }
                        let entry = Entry {
                            skel: Skel::Join {
                                left: Box::new(l.skel.clone()),
                                right: Box::new(r.skel.clone()),
                                left_rels: m1,
                                right_rels: m2,
                            },
                            cost,
                            rows: out_rows,
                        };
                        if table.insert(mask, entry).is_none() {
                            same_size[0].push(mask);
                        }
                    }
                }
            }
        }

        // ---- Candidates --------------------------------------------------
        struct Candidate {
            skel: Option<Skel>, // None = whole-answer buy
            whole_offer: Option<usize>,
            partial_agg: Option<Vec<usize>>,
            cost: f64,
            buyer_compute: f64,
            rows: f64,
        }
        let mut candidates: Vec<Candidate> = Vec::new();

        let full_mask = RelSet::full(n);
        if let Some(entry) = table.get(&full_mask) {
            // Finish the SPJ core at the buyer.
            let mut compute = 0.0;
            let mut rows = entry.rows;
            if self.query.is_aggregate() {
                compute += p.aggregate(entry.rows, entry.rows) * self.cpu();
                rows = entry.rows.clamp(1.0, 1_000.0);
            } else if !self.query.order_by.is_empty() {
                compute += p.sort(entry.rows) * self.cpu();
            }
            compute += p.filter(rows) * self.cpu(); // final projection
                                                    // entry.cost already contains union/join compute; split it out:
            let purchase_cost: f64 = {
                let mut used = Vec::new();
                entry.skel.offers(&mut used);
                used.iter().map(|&i| self.score(&offers[i])).sum()
            };
            let local = entry.cost - purchase_cost + compute;
            candidates.push(Candidate {
                skel: Some(entry.skel.clone()),
                whole_offer: None,
                partial_agg: None,
                cost: entry.cost + compute,
                buyer_compute: local,
                rows,
            });
        }

        if !partial_agg.is_empty() {
            if let Some(chosen) =
                self.greedy_cover(&partial_agg, full_mask, &space, &mut considered)
            {
                let rows_in: f64 = chosen.iter().map(|&i| offers[i].props.rows).sum();
                let mut cost: f64 = chosen.iter().map(|&i| self.score(&offers[i])).sum();
                let mut compute = 0.0;
                if chosen.len() > 1 {
                    compute += p.union(rows_in) * self.cpu();
                }
                compute += p.aggregate(rows_in, rows_in) * self.cpu();
                compute += p.filter(rows_in) * self.cpu();
                cost += compute;
                candidates.push(Candidate {
                    skel: None,
                    whole_offer: None,
                    partial_agg: Some(chosen),
                    cost,
                    buyer_compute: compute,
                    rows: rows_in,
                });
            }
        }

        if let Some((i, o)) = whole
            .iter()
            .min_by(|a, b| self.score(a.1).total_cmp(&self.score(b.1)))
        {
            candidates.push(Candidate {
                skel: None,
                whole_offer: Some(*i),
                partial_agg: None,
                cost: self.score(o),
                buyer_compute: 0.0,
                rows: o.props.rows,
            });
        }

        let Some(best) = candidates
            .into_iter()
            .min_by(|a, b| a.cost.total_cmp(&b.cost))
        else {
            return GenOutput {
                plan: None,
                considered,
                join_sites: Vec::new(),
            };
        };

        // ---- Materialize -------------------------------------------------
        let mut purchases: Vec<Purchase> = Vec::new();
        let mut slot_of: HashMap<usize, usize> = HashMap::new();
        let mut join_sites = Vec::new();
        let assembly: PhysPlan = if let Some(i) = best.whole_offer {
            let slot = buy_slot(self, i, offers, &mut purchases, &mut slot_of);
            PhysPlan::Input {
                slot,
                schema: answer_schema(&offers[i].query),
            }
        } else if let Some(chosen) = &best.partial_agg {
            let inputs: Vec<PhysPlan> = chosen
                .iter()
                .map(|&i| {
                    let slot = buy_slot(self, i, offers, &mut purchases, &mut slot_of);
                    PhysPlan::Input {
                        slot,
                        schema: answer_schema(&offers[i].query),
                    }
                })
                .collect();
            let unioned = if inputs.len() == 1 {
                inputs.into_iter().next().expect("one input")
            } else {
                PhysPlan::Union { inputs }
            };
            self.reaggregate_plan(unioned, &offers[chosen[0]].query)
        } else {
            let skel = best.skel.as_ref().expect("skeleton candidate");
            let mut sites: Vec<(RelSet, RelSet)> = Vec::new();
            skel.join_sites(&mut sites);
            join_sites = sites
                .into_iter()
                .map(|(l, r)| (space.to_btree(l), space.to_btree(r)))
                .collect();
            let core_plan =
                self.materialize_skel(skel, &q_core, &space, offers, &mut purchases, &mut slot_of);
            self.finish_plan(core_plan)
        };

        let est = estimate_from(&purchases, best.buyer_compute, best.rows);
        GenOutput {
            plan: Some(DistributedPlan {
                query: self.query.clone(),
                purchases,
                assembly,
                est,
            }),
            considered,
            join_sites,
        }
    }

    /// Validate a partial-aggregate offer: same logical query as the target
    /// restricted to some partition subsets, with every group key delivered.
    fn usable_partial_agg(&self, o: &Offer) -> bool {
        if !self.query.is_aggregate() || !self.query.aggregates_decomposable() {
            return false;
        }
        let q = &o.query;
        if q.select != self.query.select
            || q.group_by != self.query.group_by
            || q.predicates != self.query.predicates
            || q.relations.len() != self.query.relations.len()
        {
            return false;
        }
        // Group keys must appear among the delivered plain columns.
        for g in &self.query.group_by {
            if !q.select.contains(&SelectItem::Col(*g)) {
                return false;
            }
        }
        // Partition subsets within the requested extents.
        q.relations.iter().all(|(rel, parts)| {
            self.query
                .relations
                .get(rel)
                .is_some_and(|req| parts.is_subset(req))
        })
    }

    /// Validate a row-fragment offer: it must be exactly the target's SPJ
    /// core restricted to a relation subset (arbitrary partition coverage).
    /// Returns the subset on success.
    fn usable_fragment(
        &self,
        q_core: &Query,
        o: &Offer,
        space: &RelSpace,
        shapes: &mut HashMap<RelSet, Query>,
    ) -> Option<RelSet> {
        if o.query.is_aggregate() {
            return None;
        }
        // `set_of` fails exactly when the offer mentions a relation outside
        // the target's FROM list.
        let subset = space.set_of(o.query.rel_ids())?;
        let expected = shapes
            .entry(subset)
            .or_insert_with(|| q_core.restrict_to_rels(&space.to_btree(subset)));
        if o.query.select != expected.select || o.query.predicates != expected.predicates {
            return None;
        }
        // Coverage within the requested extents.
        for (rel, parts) in &o.query.relations {
            if !parts.is_subset(&self.query.relations[rel]) {
                return None;
            }
        }
        Some(subset)
    }

    /// The equi-join keys `(left column, right column)` and the residual
    /// join predicates between two sides, for the join that is materialized.
    fn connecting_preds(
        q_core: &Query,
        left: RelSet,
        right: RelSet,
        space: &RelSpace,
    ) -> (Vec<(Col, Col)>, Vec<Predicate>) {
        let mut eq = Vec::new();
        let mut residual = Vec::new();
        for (l, r, p) in connecting(q_core, left, right, space) {
            if p.op == CompOp::Eq {
                eq.push((l, r));
            } else {
                residual.push(p.clone());
            }
        }
        (eq, residual)
    }

    fn materialize_skel(
        &self,
        skel: &Skel,
        q_core: &Query,
        space: &RelSpace,
        offers: &[Offer],
        purchases: &mut Vec<Purchase>,
        slot_of: &mut HashMap<usize, usize>,
    ) -> PhysPlan {
        match skel {
            Skel::Buy(i) => {
                let slot = buy_slot(self, *i, offers, purchases, slot_of);
                PhysPlan::Input {
                    slot,
                    schema: answer_schema(&offers[*i].query),
                }
            }
            Skel::Union(v) => {
                let inputs: Vec<PhysPlan> = v
                    .iter()
                    .map(|&i| {
                        let slot = buy_slot(self, i, offers, purchases, slot_of);
                        PhysPlan::Input {
                            slot,
                            schema: answer_schema(&offers[i].query),
                        }
                    })
                    .collect();
                PhysPlan::Union { inputs }
            }
            Skel::Join {
                left,
                right,
                left_rels,
                right_rels,
            } => {
                let l = self.materialize_skel(left, q_core, space, offers, purchases, slot_of);
                let r = self.materialize_skel(right, q_core, space, offers, purchases, slot_of);
                let (eq_keys, residual) =
                    Self::connecting_preds(q_core, *left_rels, *right_rels, space);
                let mut plan = if eq_keys.is_empty() {
                    PhysPlan::NlJoin {
                        left: Box::new(l),
                        right: Box::new(r),
                        predicates: residual.clone(),
                    }
                } else {
                    PhysPlan::HashJoin {
                        left: Box::new(l),
                        right: Box::new(r),
                        left_keys: eq_keys.iter().map(|k| k.0).collect(),
                        right_keys: eq_keys.iter().map(|k| k.1).collect(),
                    }
                };
                if !eq_keys.is_empty() && !residual.is_empty() {
                    plan = PhysPlan::Filter {
                        input: Box::new(plan),
                        predicates: residual,
                    };
                }
                plan
            }
        }
    }

    /// Layer final aggregation / sort / projection over the assembled core.
    fn finish_plan(&self, core: PhysPlan) -> PhysPlan {
        let q = self.query;
        if q.is_aggregate() {
            let aggs: Vec<AggSpec> = q
                .select
                .iter()
                .filter_map(|s| match s {
                    SelectItem::Agg { func, arg } => Some(AggSpec {
                        func: *func,
                        arg: *arg,
                    }),
                    SelectItem::Col(_) => None,
                })
                .collect();
            let agged = PhysPlan::HashAggregate {
                input: Box::new(core),
                group_by: q.group_by.clone(),
                aggs,
            };
            let agg_schema = agged.schema();
            let mut agg_idx = q.group_by.len();
            let cols: Vec<Col> = q
                .select
                .iter()
                .map(|s| match s {
                    SelectItem::Col(c) => *c,
                    SelectItem::Agg { .. } => {
                        let c = agg_schema[agg_idx];
                        agg_idx += 1;
                        c
                    }
                })
                .collect();
            PhysPlan::Project {
                input: Box::new(agged),
                cols,
            }
        } else {
            let mut plan = core;
            if !q.order_by.is_empty() {
                plan = PhysPlan::Sort {
                    input: Box::new(plan),
                    keys: q.order_by.clone(),
                };
            }
            let cols: Vec<Col> = q
                .select
                .iter()
                .map(|s| match s {
                    SelectItem::Col(c) => *c,
                    SelectItem::Agg { .. } => unreachable!("aggregate handled above"),
                })
                .collect();
            PhysPlan::Project {
                input: Box::new(plan),
                cols,
            }
        }
    }

    /// Re-aggregate unioned partial-aggregate rows into final groups.
    fn reaggregate_plan(&self, unioned: PhysPlan, offer_query: &Query) -> PhysPlan {
        let q = self.query;
        let input_schema = answer_schema(offer_query);
        let aggs: Vec<AggSpec> = q
            .select
            .iter()
            .enumerate()
            .filter_map(|(i, s)| match s {
                SelectItem::Agg { func, .. } => Some(AggSpec {
                    func: func.reaggregate_with(),
                    arg: Some(input_schema[i]),
                }),
                SelectItem::Col(_) => None,
            })
            .collect();
        let agged = PhysPlan::HashAggregate {
            input: Box::new(unioned),
            group_by: q.group_by.clone(),
            aggs,
        };
        let agg_schema = agged.schema();
        let mut agg_idx = q.group_by.len();
        let cols: Vec<Col> = q
            .select
            .iter()
            .map(|s| match s {
                SelectItem::Col(c) => *c,
                SelectItem::Agg { .. } => {
                    let c = agg_schema[agg_idx];
                    agg_idx += 1;
                    c
                }
            })
            .collect();
        PhysPlan::Project {
            input: Box::new(agged),
            cols,
        }
    }
}

/// Register offer `i` as a purchase (idempotent) and return its input slot.
fn buy_slot(
    pg: &PlanGenerator<'_>,
    i: usize,
    offers: &[Offer],
    purchases: &mut Vec<Purchase>,
    slot_of: &mut HashMap<usize, usize>,
) -> usize {
    *slot_of.entry(i).or_insert_with(|| {
        let slot = purchases.len();
        purchases.push(Purchase {
            offer: offers[i].clone(),
            slot,
            agreed_value: pg.config.valuation.score(&offers[i].props),
        });
        slot
    })
}

/// The join predicates of `q_core` with one column on each side, oriented
/// `(left side's column, right side's column, predicate)`.
fn connecting<'q>(
    q_core: &'q Query,
    left: RelSet,
    right: RelSet,
    space: &'q RelSpace,
) -> impl Iterator<Item = (Col, Col, &'q Predicate)> + 'q {
    let side =
        move |set: RelSet, rel: RelId| space.index.get(&rel).is_some_and(|&i| set.contains(i));
    q_core.join_predicates().filter_map(move |p| {
        let Operand::Col(rc) = &p.right else {
            return None;
        };
        let (a, b) = (p.left, *rc);
        if side(left, a.rel) && side(right, b.rel) {
            Some((a, b, p))
        } else if side(left, b.rel) && side(right, a.rel) {
            Some((b, a, p))
        } else {
            None
        }
    })
}
