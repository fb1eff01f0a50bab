//! Distributed execution plans: purchased sub-results plus buyer-local
//! assembly.

use crate::offer::Offer;
use qt_catalog::{NodeId, SchemaDict};
use qt_exec::{execute, AggSpec, DataStore, ExecError, PhysPlan, Table};
use qt_query::{Col, Query, SelectItem};
use std::collections::BTreeMap;

/// One purchased offer, wired to an input slot of the assembly plan.
#[derive(Debug, Clone)]
pub struct Purchase {
    /// The winning offer.
    pub offer: Offer,
    /// Which [`PhysPlan::Input`] slot its delivered rows fill.
    pub slot: usize,
    /// The value agreed in the nested negotiation (defaults to the ask
    /// score under sealed-bid).
    pub agreed_value: f64,
}

/// Cost estimates of a distributed plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanEstimate {
    /// Response time: deliveries happen in parallel, buyer work after —
    /// `max(delivery) + buyer_compute`.
    pub response_time: f64,
    /// The additive objective the plan generator minimizes:
    /// `Σ agreed values + buyer_compute`.
    pub additive_cost: f64,
    /// Total monetary price of the purchases.
    pub price: f64,
    /// Estimated output rows.
    pub rows: f64,
    /// Buyer-local compute seconds.
    pub buyer_compute: f64,
}

/// A complete distributed execution plan for a query: buy these answers,
/// assemble them like this.
#[derive(Debug, Clone)]
pub struct DistributedPlan {
    /// The optimized query.
    pub query: Query,
    /// Purchases, indexed by their input slot.
    pub purchases: Vec<Purchase>,
    /// Buyer-local assembly over [`PhysPlan::Input`] slots (no scans).
    pub assembly: PhysPlan,
    /// Cost estimates.
    pub est: PlanEstimate,
}

/// The positional schema of an offer's delivered rows: the offered query's
/// `SELECT` in order, with synthetic marker columns for aggregate items (so
/// buyer-side re-aggregation plans can address them).
pub fn answer_schema(q: &Query) -> Vec<Col> {
    q.select
        .iter()
        .enumerate()
        .map(|(i, s)| match s {
            SelectItem::Col(c) => *c,
            SelectItem::Agg { arg, .. } => {
                let base = arg
                    .or(q.group_by.first().copied())
                    .unwrap_or(Col::new(*q.relations.keys().next().expect("FROM"), 0));
                Col::new(
                    base.rel,
                    qt_exec::plan::AGG_ATTR_BASE + i * 10_000 + base.attr,
                )
            }
        })
        .collect()
}

impl DistributedPlan {
    /// Number of distinct seller nodes purchased from.
    pub fn seller_count(&self) -> usize {
        let mut sellers: Vec<NodeId> = self.purchases.iter().map(|p| p.offer.seller).collect();
        sellers.sort_unstable();
        sellers.dedup();
        sellers.len()
    }

    /// Human-readable summary.
    pub fn describe(&self, dict: &SchemaDict) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "DistributedPlan: {} purchases from {} sellers, est. response {:.3}s (cost {:.3})",
            self.purchases.len(),
            self.seller_count(),
            self.est.response_time,
            self.est.additive_cost,
        );
        for p in &self.purchases {
            let _ = writeln!(
                s,
                "  [slot {}] buy from {} @ {:.3}s ({:?}): {}",
                p.slot,
                p.offer.seller,
                p.offer.props.total_time,
                p.offer.kind,
                p.offer.query.display_with(dict)
            );
        }
        let _ = write!(s, "  assemble:\n{}", indent(&self.assembly.pretty(), 4));
        s
    }

    /// Like [`execute_on`](Self::execute_on), but additionally traces
    /// per-operator row counts of the buyer assembly (for
    /// `EXPLAIN ANALYZE`-style output).
    pub fn execute_traced_on(
        &self,
        dict: &SchemaDict,
        stores: &BTreeMap<NodeId, DataStore>,
    ) -> Result<(Table, Vec<qt_exec::OpTrace>), ExecError> {
        let inputs = self.fetch_inputs(dict, stores)?;
        let empty = DataStore::new();
        qt_exec::execute_traced(&self.assembly, &empty, &inputs)
    }

    fn fetch_inputs(
        &self,
        dict: &SchemaDict,
        stores: &BTreeMap<NodeId, DataStore>,
    ) -> Result<Vec<Table>, ExecError> {
        let mut inputs: Vec<Table> = vec![Vec::new(); self.purchases.len()];
        for p in &self.purchases {
            // Sink the naive plan's top-level filter into the join tree:
            // order-preserving, and it keeps scaled fragments from
            // materializing cross products.
            let plan = qt_optimizer::sink_predicates(&naive_plan(dict, &p.offer.query));
            inputs[p.slot] = execute(&plan, &seller_store(&p.offer, stores), &[])?;
        }
        Ok(inputs)
    }

    /// Execute the plan against per-node data stores: each purchase runs a
    /// straightforward plan for its offered query on the seller's store,
    /// then the buyer assembly combines the delivered tables.
    pub fn execute_on(
        &self,
        dict: &SchemaDict,
        stores: &BTreeMap<NodeId, DataStore>,
    ) -> Result<Table, ExecError> {
        let inputs = self.fetch_inputs(dict, stores)?;
        let empty = DataStore::new();
        execute(&self.assembly, &empty, &inputs)
    }

    /// Like [`execute_on`](Self::execute_on), but running every seller-side
    /// plan and the buyer assembly through the columnar executor. A
    /// purchase's answer crosses to the assembly's `Input` slot as the
    /// column batches the fragment produced — the payload a `Deliver` frame
    /// would carry — and becomes rows once, at the final result. Returns
    /// the result (bit-identical to `execute_on` — the row executor is the
    /// oracle) plus merged spill counters and per-operator timings, which
    /// feed the `qt_cost::calibrate` loop.
    pub fn execute_columnar_on(
        &self,
        dict: &SchemaDict,
        stores: &BTreeMap<NodeId, DataStore>,
        cfg: &qt_exec::ColumnarConfig,
    ) -> Result<(Table, qt_exec::ColExecStats), ExecError> {
        let empty = DataStore::new();
        let mut merged_stats = qt_exec::ColExecStats::default();
        let absorb = |s: qt_exec::ColExecStats, into: &mut qt_exec::ColExecStats| {
            into.spill_files += s.spill_files;
            into.spill_rows += s.spill_rows;
            into.spill_bytes += s.spill_bytes;
            into.timings.extend(s.timings);
        };
        let mut inputs: Vec<Vec<qt_exec::ColBatch>> = vec![Vec::new(); self.purchases.len()];
        for p in &self.purchases {
            let plan = qt_optimizer::sink_predicates(&naive_plan(dict, &p.offer.query));
            let store = seller_store(&p.offer, stores);
            let (batches, stats) = qt_exec::execute_columnar_batches(&plan, &store, &[], cfg)?;
            inputs[p.slot] = batches;
            absorb(stats, &mut merged_stats);
        }
        let (result, stats) =
            qt_exec::execute_columnar_batches(&self.assembly, &empty, &inputs, cfg)?;
        absorb(stats, &mut merged_stats);
        Ok((qt_exec::batches_to_rows(&result), merged_stats))
    }
}

/// The data a purchased offer is answered from: the seller's store, merged
/// with its subcontractors' when it bought parts of the answer itself.
/// Stores share their partitions, so this copies handles, never rows.
fn seller_store(offer: &Offer, stores: &BTreeMap<NodeId, DataStore>) -> DataStore {
    let mut store = stores.get(&offer.seller).cloned().unwrap_or_default();
    for (sub, _) in &offer.subcontracts {
        if let Some(s) = stores.get(sub) {
            store.merge_from(s);
        }
    }
    store
}

fn indent(s: &str, by: usize) -> String {
    let pad = " ".repeat(by);
    s.lines().map(|l| format!("{pad}{l}\n")).collect()
}

/// A correct (not optimized) physical plan for `q`: union-of-scans per
/// relation, nested-loop joins, filter, aggregate, sort, project. Used to
/// *execute* purchased offers; sellers cost offers with their real
/// optimizers, but any correct plan yields the same rows.
pub fn naive_plan(dict: &SchemaDict, q: &Query) -> PhysPlan {
    let mut plan: Option<PhysPlan> = None;
    for (&rel, parts) in &q.relations {
        let arity = dict.rel(rel).schema.arity();
        let scans: Vec<PhysPlan> = parts
            .iter()
            .map(|idx| PhysPlan::Scan {
                part: qt_catalog::PartId::new(rel, idx),
                arity,
            })
            .collect();
        let leaf = if scans.len() == 1 {
            scans.into_iter().next().expect("one scan")
        } else {
            PhysPlan::Union { inputs: scans }
        };
        plan = Some(match plan {
            None => leaf,
            Some(p) => PhysPlan::NlJoin {
                left: Box::new(p),
                right: Box::new(leaf),
                predicates: vec![],
            },
        });
    }
    let mut plan = plan.expect("query has relations");
    if !q.predicates.is_empty() {
        plan = PhysPlan::Filter {
            input: Box::new(plan),
            predicates: q.predicates.clone(),
        };
    }
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
        plan = PhysPlan::HashAggregate {
            input: Box::new(plan),
            group_by: q.group_by.clone(),
            aggs,
        };
        let agg_schema = plan.schema();
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
        plan = PhysPlan::Project {
            input: Box::new(plan),
            cols,
        };
    } else {
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
                SelectItem::Agg { .. } => unreachable!(),
            })
            .collect();
        plan = PhysPlan::Project {
            input: Box::new(plan),
            cols,
        };
    }
    plan
}

/// Recompute a [`PlanEstimate`] from purchases and buyer compute.
pub fn estimate_from(purchases: &[Purchase], buyer_compute: f64, rows: f64) -> PlanEstimate {
    let max_delivery = purchases
        .iter()
        .map(|p| p.offer.props.total_time)
        .fold(0.0f64, f64::max);
    PlanEstimate {
        response_time: max_delivery + buyer_compute,
        additive_cost: purchases.iter().map(|p| p.agreed_value).sum::<f64>() + buyer_compute,
        price: purchases.iter().map(|p| p.offer.props.price).sum(),
        rows,
        buyer_compute,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offer::OfferKind;
    use qt_catalog::{
        AttrType, Catalog, CatalogBuilder, PartId, PartitionStats, Partitioning, RelationSchema,
        Value,
    };
    use qt_exec::evaluate_query;
    use qt_exec::reference::same_rows;
    use qt_query::parse_query;

    fn setup() -> (Catalog, DataStore) {
        let mut b = CatalogBuilder::new();
        let r = b.add_relation(
            RelationSchema::new("r", vec![("a", AttrType::Int), ("b", AttrType::Int)]),
            Partitioning::Hash { attr: 0, parts: 2 },
        );
        let s = b.add_relation(
            RelationSchema::new("s", vec![("a", AttrType::Int), ("c", AttrType::Int)]),
            Partitioning::Single,
        );
        for i in 0..2 {
            b.set_stats(PartId::new(r, i), PartitionStats::synthetic(8, &[8, 8]));
            b.place(PartId::new(r, i), NodeId(0));
        }
        b.set_stats(PartId::new(s, 0), PartitionStats::synthetic(4, &[4, 2]));
        b.place(PartId::new(s, 0), NodeId(0));
        let cat = b.build();
        let mut store = DataStore::new();
        store.load_relation(
            &cat.dict,
            r,
            (0..8)
                .map(|i| vec![Value::Int(i % 4), Value::Int(i)])
                .collect(),
        );
        store.load_relation(
            &cat.dict,
            s,
            (0..4)
                .map(|i| vec![Value::Int(i), Value::Int(i % 2)])
                .collect(),
        );
        (cat, store)
    }

    #[test]
    fn naive_plan_matches_reference_on_spj() {
        let (cat, store) = setup();
        for sql in [
            "SELECT b FROM r WHERE a = 1",
            "SELECT b, c FROM r, s WHERE r.a = s.a",
            "SELECT b FROM r ORDER BY b",
            "SELECT c, SUM(b) FROM r, s WHERE r.a = s.a GROUP BY c",
            "SELECT COUNT(*) FROM r",
        ] {
            let q = parse_query(&cat.dict, sql).unwrap();
            let plan = naive_plan(&cat.dict, &q);
            let got = execute(&plan, &store, &[]).unwrap();
            let want = evaluate_query(&q, &store).unwrap();
            assert!(same_rows(&got, &want), "{sql}");
        }
    }

    #[test]
    fn answer_schema_matches_select_arity() {
        let (cat, _) = setup();
        let q = parse_query(
            &cat.dict,
            "SELECT c, SUM(b) FROM r, s WHERE r.a = s.a GROUP BY c",
        )
        .unwrap();
        let schema = answer_schema(&q);
        assert_eq!(schema.len(), 2);
        assert!(schema[1].attr >= qt_exec::plan::AGG_ATTR_BASE);
        // Distinct markers for distinct aggregate positions.
        let q2 = parse_query(
            &cat.dict,
            "SELECT c, SUM(b), COUNT(b) FROM r, s WHERE r.a = s.a GROUP BY c",
        )
        .unwrap();
        let s2 = answer_schema(&q2);
        assert_ne!(s2[1], s2[2]);
    }

    #[test]
    fn estimate_takes_max_delivery() {
        let (cat, _) = setup();
        let q = parse_query(&cat.dict, "SELECT b FROM r").unwrap();
        let mk = |t: f64, slot: usize| Purchase {
            offer: Offer {
                id: slot as u64,
                seller: NodeId(slot as u32),
                query: q.clone().into(),
                props: qt_cost::AnswerProperties::timed(t, 10.0, 80.0),
                true_cost: t,
                kind: OfferKind::Rows,
                round: 0,
                subcontracts: vec![],
            },
            slot,
            agreed_value: t,
        };
        let est = estimate_from(&[mk(10.0, 0), mk(4.0, 1)], 1.0, 20.0);
        assert!((est.response_time - 11.0).abs() < 1e-9);
        assert!((est.additive_cost - 15.0).abs() < 1e-9);
    }
}
