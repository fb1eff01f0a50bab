//! Seller replies, pinned bit for bit.
//!
//! A seller's reply to an RFB is the whole of what the market sees of it:
//! every offer's query, kind, id, round, asked properties and true cost, and
//! the effort the reply reports. [`GOLDEN`] folds those for every seller of a
//! `trade_cold`-shaped federation answering round 0 (the original query) and
//! round 1 (every sub-query the buyer analyser derives) of 48 seeded trades.
//! Run the ignored `print_golden_table` test to regenerate the literal; a row
//! that moves means some seller now offers something else.
//!
//! The three columns answer the same RFBs three ways: through
//! `respond_with_hints`, through `respond_batch` as one session's entries,
//! and through `respond_with_hints` with subcontracting on and a hint for
//! every relation of the query attached to both RFBs (this federation has
//! no node holding a whole relation, so the buyer itself never has one).

use qt_catalog::NodeId;
use qt_core::analyser::next_queries;
use qt_core::config::MAX_NEW_QUERIES_PER_ROUND;
use qt_core::plangen::PlanGenerator;
use qt_core::{
    session_req, BuyerEngine, Offer, OfferKind, QtConfig, RfbItem, SellerEngine, SessionRfb,
};
use qt_cost::AnswerProperties;
use qt_query::{Col, Query};
use qt_trade::SessionId;
use qt_workload::{
    build_federation, gen_join_query_with_cut, Federation, FederationSpec, QueryShape,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// 3 shapes × 5 sizes (2–6 relations), over the [`VARIANTS`] in turn.
const CASES: usize = 48;

const VARIANTS: [&str; 4] = ["plain", "sum", "order-by", "sum"];

/// `[respond_with_hints fold, respond_batch fold, subcontracting fold]`.
type Row = [u64; 3];

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

fn fold(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
}

/// The `trade_cold` federation: 16 nodes, 6 relations × 2 partitions,
/// 2 replicas, federation seed 5.
fn federation() -> Federation {
    build_federation(&FederationSpec {
        nodes: 16,
        relations: 6,
        partitions_per_relation: 2,
        replication: 2,
        rows_per_partition: 100_000,
        scale: 1,
        seed: 5,
        with_data: false,
        speed_spread: 1.0,
        data_skew: 0.0,
    })
}

fn config(subcontracting: bool) -> QtConfig {
    QtConfig {
        parallel: false,
        enable_subcontracting: subcontracting,
        ..QtConfig::default()
    }
}

/// Case `i`: chain/star/cycle × 2–6 relations, variant `i / 15`.
fn case(fed: &Federation, i: usize) -> Query {
    let shape = [QueryShape::Chain, QueryShape::Star, QueryShape::Cycle][i % 3];
    let rels = 2 + i / 3 % 5;
    let cut = 10 + (i as i64 * 13) % 80;
    let dict = &fed.catalog.dict;
    let q = match VARIANTS[i / 15] {
        "plain" => gen_join_query_with_cut(dict, shape, rels, false, cut),
        "sum" => gen_join_query_with_cut(dict, shape, rels, true, cut),
        _ => gen_join_query_with_cut(dict, shape, rels, false, cut)
            .with_order_by(vec![Col::new(qt_catalog::RelId(0), 1)]),
    };
    q.validate(dict).expect("generated query is valid");
    q
}

/// Fresh sellers for every node, with the federation's resources.
fn sellers(fed: &Federation, cfg: &QtConfig) -> BTreeMap<NodeId, SellerEngine> {
    fed.catalog
        .nodes
        .iter()
        .map(|&n| {
            let mut e = SellerEngine::new(fed.catalog.holdings_of(n), cfg.clone());
            e.resources = fed.resources[&n].clone();
            (n, e)
        })
        .collect()
}

fn fold_reply(h: u64, offers: &[Offer], effort: u64) -> u64 {
    let mut h = fold(h, offers.len() as u64);
    for o in offers {
        let p = &o.props;
        for v in [
            o.query.fingerprint(),
            o.kind as u64,
            o.id,
            o.round as u64,
            p.total_time.to_bits(),
            p.first_row_time.to_bits(),
            p.rows_per_sec.to_bits(),
            p.rows.to_bits(),
            p.bytes.to_bits(),
            p.freshness.to_bits(),
            p.completeness.to_bits(),
            p.price.to_bits(),
            o.true_cost.to_bits(),
            o.subcontracts.len() as u64,
        ] {
            h = fold(h, v);
        }
    }
    fold(h, effort)
}

/// Market hints for subcontracting: one whole-relation fragment of `q` per
/// relation, offered by a node outside the federation.
fn hints(q: &Query) -> Vec<Offer> {
    let core = q.strip_aggregation();
    q.rel_ids()
        .map(|rel| Offer {
            id: rel.0 as u64,
            seller: NodeId(1000),
            query: core.restrict_to_rels(&BTreeSet::from([rel])).into(),
            true_cost: 0.5,
            props: AnswerProperties::timed(0.25 + rel.0 as f64 * 0.125, 5e4, 1e6),
            kind: OfferKind::Rows,
            round: 0,
            subcontracts: vec![],
        })
        .collect()
}

/// The buyer analyser's round-1 items after round 0, capped as the buyer
/// caps them, before the buyer drops those no seller answers anew:
/// the subject here is the seller's reply, not the buyer's choice. Empty
/// when round 0 bought no plan.
fn analyser_items(buyer: &BuyerEngine, cfg: &QtConfig) -> Vec<RfbItem> {
    let gen = PlanGenerator {
        dict: &buyer.dict,
        query: &buyer.query,
        config: cfg,
        buyer_resources: buyer.resources.clone(),
    }
    .generate(&buyer.offers);
    if gen.plan.is_none() {
        return Vec::new();
    }
    let asked = BTreeSet::from([buyer.query.clone()]);
    let mut items = next_queries(&buyer.dict, &buyer.query, &gen, &buyer.offers, &asked);
    items.truncate(MAX_NEW_QUERIES_PER_ROUND);
    items
        .into_iter()
        .map(|query| RfbItem {
            ref_value: buyer.value_book.estimate(query.fingerprint()),
            query,
        })
        .collect()
}

/// Trades `q` for two rounds against fresh sellers, each RFB carrying
/// `hints`. Returns the fold of every seller's reply to the round-0 RFB (the
/// original query) and to the analyser's round-1 items, and both RFBs.
fn trade(fed: &Federation, q: &Query, cfg: &QtConfig, hints: &[Offer]) -> (u64, [Vec<RfbItem>; 2]) {
    let mut buyer = BuyerEngine::new(NodeId(0), fed.catalog.dict.clone(), q.clone(), cfg.clone());
    let mut sellers = sellers(fed, cfg);
    let round0 = buyer.start();
    let mut h = FNV_BASIS;
    for s in sellers.values_mut() {
        let r = s.respond_with_hints(0, &round0, hints);
        h = fold_reply(h, &r.offers, r.effort);
        buyer.receive_offers(r.offers);
    }
    let round1 = analyser_items(&buyer, cfg);
    for s in sellers.values_mut() {
        let r = s.respond_with_hints(1, &round1, hints);
        h = fold_reply(h, &r.offers, r.effort);
    }
    (h, [round0, round1])
}

/// The same two RFBs as one session's entries of `respond_batch`.
fn batched(fed: &Federation, rfbs: &[Vec<RfbItem>; 2], cfg: &QtConfig) -> u64 {
    let mut sellers = sellers(fed, cfg);
    let mut h = FNV_BASIS;
    for (round, items) in rfbs.iter().enumerate() {
        let round = round as u32;
        let entry = SessionRfb {
            session: SessionId(0),
            req: session_req(SessionId(0), round),
            round,
            items: Arc::new(items.clone()),
            hints: Arc::new(Vec::new()),
            priority: 0,
        };
        for s in sellers.values_mut() {
            let r = s.respond_batch(std::slice::from_ref(&entry)).remove(0);
            h = fold_reply(h, &r.offers, r.effort);
        }
    }
    h
}

fn row(fed: &Federation, q: &Query) -> Row {
    let (direct, rfbs) = trade(fed, q, &config(false), &[]);
    let batch = batched(fed, &rfbs, &config(false));
    let (subcontracting, _) = trade(fed, q, &config(true), &hints(q));
    [direct, batch, subcontracting]
}

#[test]
fn seller_replies_reproduce_the_golden_table() {
    let fed = federation();
    for (i, want) in GOLDEN.iter().enumerate() {
        let q = case(&fed, i);
        assert_eq!(&row(&fed, &q), want, "case {i} ({})", VARIANTS[i / 15]);
    }
}

/// Regenerates the [`GOLDEN`] literal: `cargo test -p qt-core --test
/// seller_reply_golden -- --ignored --nocapture`. Only meaningful on a commit
/// whose seller replies are trusted.
#[test]
#[ignore]
fn print_golden_table() {
    let fed = federation();
    println!("static GOLDEN: [Row; CASES] = [");
    for i in 0..CASES {
        let q = case(&fed, i);
        let cells: Vec<String> = row(&fed, &q).iter().map(|v| format!("{v:#x}")).collect();
        println!(
            "    [{}], // {i} {} x{}",
            cells.join(", "),
            VARIANTS[i / 15],
            q.num_relations()
        );
    }
    println!("];");
}

#[rustfmt::skip]
static GOLDEN: [Row; CASES] = [
    [0x56565adb1c6a24cd, 0x56565adb1c6a24cd, 0xbcbacf9569d85c9b], // 0 plain x2
    [0x64eba190ae6d4f99, 0x64eba190ae6d4f99, 0x651c2977c6bc1831], // 1 plain x2
    [0x3e41b9a918f08b09, 0x3e41b9a918f08b09, 0x88b8c2827e27cd65], // 2 plain x2
    [0xa7221bb3ac55217e, 0xa7221bb3ac55217e, 0x6b54c904b9280f56], // 3 plain x3
    [0xbbd94355425c896f, 0xbbd94355425c896f, 0x4a70d333b715cdc4], // 4 plain x3
    [0xd7d675b15727daaf, 0xd7d675b15727daaf, 0x32ecca76304a9f96], // 5 plain x3
    [0x76d49e0890080d0b, 0x76d49e0890080d0b, 0x58aedd970bb007d2], // 6 plain x4
    [0x5234d442a5309720, 0x5234d442a5309720, 0x855a35a3b068d814], // 7 plain x4
    [0x7c351b4f80b59076, 0x7c351b4f80b59076, 0x1865bf1085ddcc60], // 8 plain x4
    [0xf534897c2deaeb8b, 0xf534897c2deaeb8b, 0xb12f17262640af6d], // 9 plain x5
    [0x76aaac711697efb3, 0x76aaac711697efb3, 0xca0ae319e620f86a], // 10 plain x5
    [0x5a527272be536195, 0x5a527272be536195, 0x13b73ae08cd840b0], // 11 plain x5
    [0xc551204c93730a7b, 0xc551204c93730a7b, 0x66c815fcece51d0a], // 12 plain x6
    [0x21ab76de1deccf3e, 0x21ab76de1deccf3e, 0xb38c46f0cb4c98fd], // 13 plain x6
    [0xbcd1eeaec5c79b00, 0xbcd1eeaec5c79b00, 0xb869317abcd281b7], // 14 plain x6
    [0x3a7b665f110c43dd, 0x3a7b665f110c43dd, 0x632efa9fef1d5ebd], // 15 sum x2
    [0x869d5f8f19220c7, 0x869d5f8f19220c7, 0x132b17b0b11f36ba], // 16 sum x2
    [0x363de966a93f36c9, 0x363de966a93f36c9, 0x5583e4488d7e60fd], // 17 sum x2
    [0x266b352d5d6b2a88, 0x266b352d5d6b2a88, 0x7616125ad4eabc5f], // 18 sum x3
    [0x4bc4efffd512b747, 0x4bc4efffd512b747, 0xc405902e848accca], // 19 sum x3
    [0x5218dff9c1cfaf61, 0x5218dff9c1cfaf61, 0x9ebce4f089963df1], // 20 sum x3
    [0xebc2029fbfdd0e6a, 0xebc2029fbfdd0e6a, 0xf7f005f73270fb0], // 21 sum x4
    [0xb8200b6cd3517ac1, 0xb8200b6cd3517ac1, 0x87f5a8710eff138c], // 22 sum x4
    [0xa75cc3d5231c8300, 0xa75cc3d5231c8300, 0x76bf4450b0489776], // 23 sum x4
    [0x46fab8e50b6d13e, 0x46fab8e50b6d13e, 0x45d4924562761433], // 24 sum x5
    [0xbf1a4370fef5fb2c, 0xbf1a4370fef5fb2c, 0x7d7d0349135415cc], // 25 sum x5
    [0xaa2b4adf65118249, 0xaa2b4adf65118249, 0xc982ad54b34a1fa3], // 26 sum x5
    [0xb8febd66dbe8c61a, 0xb8febd66dbe8c61a, 0x4a7feb928334d6fe], // 27 sum x6
    [0x701867c8cb3c219f, 0x701867c8cb3c219f, 0xa14952fc57880bf9], // 28 sum x6
    [0x114619671e7c064c, 0x114619671e7c064c, 0x7d886594f263b935], // 29 sum x6
    [0x5ec8315ea1c8d8a5, 0x5ec8315ea1c8d8a5, 0x704e589c19ca34ed], // 30 order-by x2
    [0xa9f968f5ae4c759c, 0xa9f968f5ae4c759c, 0x45330f3ccd8ce2f5], // 31 order-by x2
    [0x4bc8ac6edbc173ba, 0x4bc8ac6edbc173ba, 0x56afbb0e86f3c88f], // 32 order-by x2
    [0x750dbd48ee85242c, 0x750dbd48ee85242c, 0xb7155b8307debb63], // 33 order-by x3
    [0x19b9696248ec69ef, 0x19b9696248ec69ef, 0xaf302d1486388b0a], // 34 order-by x3
    [0x569d3d80ea2b7e4d, 0x569d3d80ea2b7e4d, 0xd51709a488bcef0c], // 35 order-by x3
    [0xd4727060ad3344ab, 0xd4727060ad3344ab, 0x750bef847364dcc6], // 36 order-by x4
    [0xf8ccebc621511527, 0xf8ccebc621511527, 0x21860a23b92aa3f1], // 37 order-by x4
    [0x247d1b19fff7433a, 0x247d1b19fff7433a, 0x1bb150b98336b8c4], // 38 order-by x4
    [0x67aa6616156d5dd0, 0x67aa6616156d5dd0, 0x35bc10fde42599c0], // 39 order-by x5
    [0xe722c63215f013cb, 0xe722c63215f013cb, 0xaeff217bf92d49ba], // 40 order-by x5
    [0xc17b0f972ac447ef, 0xc17b0f972ac447ef, 0x9755c0a7fb62b5bd], // 41 order-by x5
    [0xefbc317f81bdcc42, 0xefbc317f81bdcc42, 0xe7be02a718ff09b3], // 42 order-by x6
    [0xf18ed65b734ea2f2, 0xf18ed65b734ea2f2, 0x2d4fcb628621caaf], // 43 order-by x6
    [0xadcb6c9120e696f, 0xadcb6c9120e696f, 0xe708764abd80ff04], // 44 order-by x6
    [0x9181640ea79c491a, 0x9181640ea79c491a, 0x614dbb105693c16], // 45 sum x2
    [0x5de40b913a4a4f1a, 0x5de40b913a4a4f1a, 0xd5e60f18d8d19142], // 46 sum x2
    [0x89af4fe61bc967e5, 0x89af4fe61bc967e5, 0xdd745e821f7f916a], // 47 sum x2
];
