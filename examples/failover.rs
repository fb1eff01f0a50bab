//! Autonomy in action: sellers that ignore RFBs, buyer timeouts, and
//! adaptive re-planning from the accumulated offer pool when a seller dies
//! after trading — no second trading round needed.
//!
//! ```text
//! cargo run -p qt-bench --example failover
//! ```

use qt_catalog::{NodeId, RelId};
use qt_core::buyer::RoundOutcome;
use qt_core::{run_qt_serve, BuyerEngine, QtConfig, SellerEngine, ServeConfig};
use qt_exec::evaluate_query;
use qt_exec::reference::approx_same_rows;
use qt_query::{parse_query, PartSet};
use qt_workload::{telecom_federation, TelecomSpec};
use std::collections::{BTreeMap, BTreeSet};

fn main() {
    // Every office keeps an invoiceline replica; customers are per-office.
    let (catalog, stores) = telecom_federation(&TelecomSpec {
        offices: 3,
        customers_per_office: 40,
        lines_per_customer: 5,
        invoice_replicas: 2, // invoiceline lives on Athens and Corfu
        seed: 15,
    });
    let dict = catalog.dict.clone();
    let query = parse_query(
        &dict,
        "SELECT office, SUM(charge) FROM customer, invoiceline \
         WHERE customer.custid = invoiceline.custid GROUP BY office",
    )
    .unwrap()
    // Myconos customers: their partition lives only on node 2, while the
    // invoiceline side of the join has two replicas to fail over between.
    .with_partset(RelId(0), PartSet::single(2));

    // --- Act 1: a seller sleeps through the RFB -------------------------
    println!("act 1: Corfu ignores the RFB; the buyer's timeout closes the round\n");
    let cfg = QtConfig {
        seller_timeout: 1.5,
        ..QtConfig::default()
    };
    let mut sellers: BTreeMap<NodeId, SellerEngine> = catalog
        .nodes
        .iter()
        .map(|&n| (n, SellerEngine::new(catalog.holdings_of(n), cfg.clone())))
        .collect();
    sellers.get_mut(&NodeId(1)).unwrap().offline_rounds = (0..8).collect();
    // One query arriving at t = 0: the session's finish time is its trading
    // time.
    let one = vec![(0.0, query.clone())];
    let serve = ServeConfig::default();
    let out = run_qt_serve(NodeId(7), dict.clone(), one, sellers, &cfg, &serve);
    let report = &out.reports[0];
    let plan = report
        .plan
        .as_ref()
        .expect("Athens' invoiceline replica covers for Corfu");
    println!(
        "  plan found anyway: {} purchases, {:.2}s trading time ({} timeout timer(s) fired)\n",
        plan.purchases.len(),
        report.finished,
        out.metrics.kind_count("timeout"),
    );

    // --- Act 2: a winning seller dies after trading ----------------------
    println!("act 2: re-plan from the offer pool after a winner dies\n");
    // A data-less coordinator (node 7) buys, so every purchase is remote.
    let cfg = QtConfig::default();
    let mut buyer = BuyerEngine::new(NodeId(7), dict.clone(), query.clone(), cfg.clone());
    let mut sellers: BTreeMap<NodeId, SellerEngine> = catalog
        .nodes
        .iter()
        .map(|&n| (n, SellerEngine::new(catalog.holdings_of(n), cfg.clone())))
        .collect();
    let mut items = buyer.start();
    loop {
        for engine in sellers.values_mut() {
            buyer.receive_offers(engine.respond(buyer.round, &items).offers);
        }
        match buyer.close_round() {
            RoundOutcome::Continue(next) => items = next,
            RoundOutcome::Done => break,
        }
    }
    let original = buyer.best.clone().expect("plan");
    // Kill the provider of the replicated invoiceline fragment — the
    // customer partition's sole holder must survive for recovery to exist.
    let victim = original
        .purchases
        .iter()
        .find(|p| {
            p.offer.query.relations.contains_key(&RelId(1))
                && !p.offer.query.relations.contains_key(&RelId(0))
        })
        .map(|p| p.offer.seller)
        .expect("an invoiceline-only purchase exists");
    println!(
        "  original plan buys from {:?}",
        original
            .purchases
            .iter()
            .map(|p| p.offer.seller.to_string())
            .collect::<Vec<_>>()
    );
    println!("  {victim} dies before execution...");

    let failed: BTreeSet<NodeId> = [victim].into_iter().collect();
    let recovered = buyer
        .replan_excluding(&failed)
        .expect("replicas cover the failure");
    println!(
        "  recovered plan buys from {:?} (no new trading round)",
        recovered
            .purchases
            .iter()
            .map(|p| p.offer.seller.to_string())
            .collect::<Vec<_>>()
    );

    // Execute the recovered plan on the surviving stores and verify.
    let mut surviving = stores.clone();
    surviving.remove(&victim);
    let got = recovered.execute_on(&dict, &surviving).expect("executes");
    let mut all = qt_exec::DataStore::new();
    for s in stores.values() {
        all.merge_from(s);
    }
    let want = evaluate_query(&query, &all).expect("reference");
    assert!(approx_same_rows(&got, &want, 1e-9));
    println!("\n  recovered answer verified: {} row(s)", got.len());
}
