//! Encoded bytes, pinned.
//!
//! Every protocol message the real transport carries and every calibration
//! snapshot a serving run stores is a byte string other nodes and later
//! runs must read. [`GOLDEN`] holds the length and the FNV-1a hash of the
//! encoding of one sample of each of the 29 [`ServeMsg`] variants, with real
//! payloads: an RFB whose items cover every predicate, select, group-by and
//! order-by shape, offers with subcontracts, aggregated offers with missing
//! sellers and an advertisement of several ads. [`CALIBRATION`] does the same
//! for a snapshot written by `save_cost_params`. Run the ignored
//! `print_golden_table` test to print both literals; a row that moves means
//! the bytes on the wire (or on disk) moved.

use qt_catalog::{Fnv1a, NodeId, RelId, Value};
use qt_core::{save_cost_params, Offer, OfferKind, RfbItem, ServeMsg, SessionRfb};
use qt_cost::{AnswerProperties, CostParams};
use qt_query::{AggFunc, Col, CompOp, Operand, PartSet, Predicate, Query, SelectItem};
use qt_trade::{SessionId, Wire};
use std::collections::BTreeMap;
use std::hash::Hasher;
use std::sync::Arc;

/// `(variant, encoded length, FNV-1a of the encoding)`, in tag order.
const GOLDEN: &[(&str, usize, u64)] = &[
    ("Arrive", 9, 0x2c23d803e2f46cf9),
    ("Rfb", 4344, 0x8d12cc895fb5e950),
    ("Offers", 4496, 0xbf706642fad79e12),
    ("Flush", 1, 0xaf63be4c8601b992),
    ("Timeout", 13, 0x674d0d07933980a7),
    ("Award", 25, 0x515146e38d0335a5),
    ("AwardAck", 17, 0x2d4ff2a449f7dddc),
    ("AwardDecline", 17, 0x036b1a8a44ad8b44),
    ("Lease", 17, 0x47b03f2de7089814),
    ("LeaseAck", 17, 0x15d68b4cbb957884),
    ("Release", 17, 0xe361902cf72ed1bc),
    ("AwardTimeout", 17, 0xb9b1a40374416124),
    ("LeaseTick", 17, 0x10828920491906c4),
    ("RetradeTimeout", 13, 0x4c0490c812b97f0d),
    ("Negotiate", 1, 0xaf63c34c8601c211),
    ("AdTick", 1, 0xaf63c24c8601c05e),
    ("Advertise", 65, 0xb83edf88d201f154),
    ("Shed", 13, 0xa12e09917daf2bcb),
    ("AggOffers", 2895, 0x7a7f09a1f6cb2c8b),
    ("BrokerTimeout", 13, 0x3619790fd7f274a6),
    ("BrokerLease", 1, 0xaf63c94c8601cc43),
    ("BrokerLeaseAck", 1, 0xaf63c84c8601ca90),
    ("BrokerLeaseTick", 1, 0xaf63cb4c8601cfa9),
    ("Promote", 5, 0x29edc484750e43d7),
    ("RegionUpdate", 21, 0x3118d810fcf7a2b2),
    ("Quiesce", 1, 0xaf63d44c8601def4),
    ("Crash", 1, 0xaf63d74c8601e40d),
    ("Restart", 1, 0xaf63d64c8601e25a),
    ("ShedRetry", 9, 0xa848bb9bd689f77d),
];

/// `(file length, FNV-1a of the file)` of [`calibration_snapshot`].
const CALIBRATION: (usize, u64) = (61, 0x1311461a1b0e8257);

fn col(rel: u32, attr: usize) -> Col {
    Col::new(RelId(rel), attr)
}

/// Every comparison operator, a column and every kind of constant on the
/// right; every aggregate with and without an argument; group-by and
/// order-by lists; partition masks up to bit 63.
fn every_shape_query() -> Query {
    let ops = [
        CompOp::Eq,
        CompOp::Ne,
        CompOp::Lt,
        CompOp::Le,
        CompOp::Gt,
        CompOp::Ge,
    ];
    let rights = [
        Operand::Col(col(2, 1)),
        Operand::Const(Value::Int(-7)),
        Operand::Const(Value::Int(i64::MAX)),
        Operand::Const(Value::Float(2.5)),
        Operand::Const(Value::Float(-0.0)),
        Operand::Const(Value::str("corfu")),
        Operand::Const(Value::str("")),
        Operand::Const(Value::Null),
    ];
    let predicates = ops
        .iter()
        .enumerate()
        .flat_map(|(i, &op)| {
            rights.iter().map(move |right| Predicate {
                left: col(i as u32 % 3, i),
                op,
                right: right.clone(),
            })
        })
        .collect();
    let funcs = [
        AggFunc::Count,
        AggFunc::Sum,
        AggFunc::Avg,
        AggFunc::Min,
        AggFunc::Max,
    ];
    let mut select = vec![SelectItem::Col(col(0, 2)), SelectItem::Col(col(5, 0))];
    for func in funcs {
        select.push(SelectItem::Agg {
            func,
            arg: Some(col(2, 3)),
        });
        select.push(SelectItem::Agg { func, arg: None });
    }
    Query {
        relations: BTreeMap::from([
            (RelId(0), PartSet::from_indices([0, 1, 3])),
            (RelId(2), PartSet::from_indices([1])),
            (RelId(5), PartSet::from_indices([0, 31, 32, 63])),
        ]),
        predicates,
        select,
        group_by: vec![col(0, 2), col(5, 0)],
        order_by: vec![col(5, 0), col(0, 2), col(2, 3)],
    }
}

/// A two-relation join with no aggregate and no ordering.
fn plain_query() -> Query {
    Query {
        relations: BTreeMap::from([
            (RelId(1), PartSet::from_indices([0])),
            (RelId(4), PartSet::from_indices([0, 1])),
        ]),
        predicates: vec![Predicate {
            left: col(1, 0),
            op: CompOp::Eq,
            right: Operand::Col(col(4, 0)),
        }],
        select: vec![SelectItem::Col(col(1, 1)), SelectItem::Col(col(4, 2))],
        group_by: vec![],
        order_by: vec![],
    }
}

fn offer(id: u64, kind: OfferKind, subcontracts: usize) -> Offer {
    Offer {
        id,
        seller: NodeId(3 + id as u32),
        query: every_shape_query().into(),
        props: AnswerProperties {
            total_time: 1.5 + id as f64,
            first_row_time: 0.25,
            rows_per_sec: 1000.0,
            rows: 1500.0,
            bytes: 96_000.0,
            freshness: 1.0,
            completeness: 0.75,
            price: f64::INFINITY,
        },
        true_cost: 1.2,
        kind,
        round: 2,
        subcontracts: (0..subcontracts)
            .map(|i| (NodeId(10 + i as u32), plain_query().into()))
            .collect(),
    }
}

/// One sample per [`ServeMsg`] variant, in tag order.
fn samples() -> Vec<(&'static str, ServeMsg)> {
    let s = SessionId(6);
    let rfb = |session: SessionId, req: u64, hints: Vec<Offer>| SessionRfb {
        session,
        req,
        round: 1,
        priority: 2,
        items: Arc::new(vec![
            RfbItem {
                query: every_shape_query(),
                ref_value: 1.5,
            },
            RfbItem {
                query: plain_query(),
                ref_value: f64::INFINITY,
            },
        ]),
        hints: Arc::new(hints),
    };
    vec![
        ("Arrive", ServeMsg::Arrive { session: s }),
        (
            "Rfb",
            ServeMsg::Rfb {
                entries: vec![
                    rfb(s, (7u64 << 32) | 1, vec![]),
                    rfb(SessionId(u64::MAX), 9, vec![offer(4, OfferKind::Rows, 1)]),
                ],
            },
        ),
        (
            "Offers",
            ServeMsg::Offers {
                replies: vec![
                    (
                        s,
                        1,
                        vec![
                            offer(11, OfferKind::Rows, 0),
                            offer(12, OfferKind::PartialAggregate, 2),
                        ],
                    ),
                    (SessionId(9), 2, vec![]),
                    (SessionId(10), 0, vec![offer(13, OfferKind::FromView, 1)]),
                ],
            },
        ),
        ("Flush", ServeMsg::Flush),
        (
            "Timeout",
            ServeMsg::Timeout {
                session: s,
                round: 2,
            },
        ),
        (
            "Award",
            ServeMsg::Award {
                session: s,
                contract: 1,
                offer: 2,
            },
        ),
        (
            "AwardAck",
            ServeMsg::AwardAck {
                session: s,
                contract: 3,
            },
        ),
        (
            "AwardDecline",
            ServeMsg::AwardDecline {
                session: s,
                contract: 4,
            },
        ),
        (
            "Lease",
            ServeMsg::Lease {
                session: s,
                contract: 5,
            },
        ),
        (
            "LeaseAck",
            ServeMsg::LeaseAck {
                session: s,
                contract: 6,
            },
        ),
        (
            "Release",
            ServeMsg::Release {
                session: s,
                contract: 7,
            },
        ),
        (
            "AwardTimeout",
            ServeMsg::AwardTimeout {
                session: s,
                contract: 8,
            },
        ),
        (
            "LeaseTick",
            ServeMsg::LeaseTick {
                session: s,
                contract: 9,
            },
        ),
        (
            "RetradeTimeout",
            ServeMsg::RetradeTimeout {
                session: s,
                round: 3,
            },
        ),
        ("Negotiate", ServeMsg::Negotiate),
        ("AdTick", ServeMsg::AdTick),
        (
            "Advertise",
            ServeMsg::Advertise {
                ads: vec![
                    (NodeId(4), 0b1011, 7),
                    (NodeId(9), u64::MAX, 1),
                    (NodeId(0), 0, 0),
                ],
            },
        ),
        (
            "Shed",
            ServeMsg::Shed {
                session: s,
                round: 1,
            },
        ),
        (
            "AggOffers",
            ServeMsg::AggOffers {
                session: s,
                round: 2,
                offers: vec![
                    offer(21, OfferKind::Rows, 1),
                    offer(22, OfferKind::PartialAggregate, 0),
                ],
                missing: vec![NodeId(3), NodeId(8), NodeId(u32::MAX)],
            },
        ),
        (
            "BrokerTimeout",
            ServeMsg::BrokerTimeout {
                session: s,
                round: 2,
            },
        ),
        ("BrokerLease", ServeMsg::BrokerLease),
        ("BrokerLeaseAck", ServeMsg::BrokerLeaseAck),
        ("BrokerLeaseTick", ServeMsg::BrokerLeaseTick),
        ("Promote", ServeMsg::Promote { failed: NodeId(17) }),
        (
            "RegionUpdate",
            ServeMsg::RegionUpdate {
                failed: NodeId(17),
                digest: 0b1101,
                epoch: 9,
            },
        ),
        ("Quiesce", ServeMsg::Quiesce),
        ("Crash", ServeMsg::Crash),
        ("Restart", ServeMsg::Restart),
        ("ShedRetry", ServeMsg::ShedRetry { session: s }),
    ]
}

/// The bytes `save_cost_params` writes for non-reference params.
fn calibration_snapshot() -> Vec<u8> {
    let path = std::env::temp_dir().join(format!("qt-wire-golden-{}.qtcp", std::process::id()));
    let params = CostParams {
        cpu_tuple: 3.3e-8,
        io_byte: 1.25e-9,
        hash_build: 7.0e-8,
        hash_probe: 4.5e-8,
        sort_tuple_log: 2.0e-8,
        agg_tuple: 5.5e-8,
        startup: 1e-3,
    };
    save_cost_params(&path, &params).expect("snapshot written");
    let bytes = std::fs::read(&path).expect("snapshot read");
    std::fs::remove_file(&path).ok();
    bytes
}

fn fnv(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.write(bytes);
    h.finish()
}

#[test]
fn every_serve_msg_encodes_to_its_pinned_bytes() {
    let got: Vec<(&str, usize, u64)> = samples()
        .iter()
        .map(|(name, msg)| {
            let bytes = msg.encode();
            (*name, bytes.len(), fnv(&bytes))
        })
        .collect();
    assert_eq!(got.len(), 29, "one sample per ServeMsg variant");
    assert_eq!(got, GOLDEN);
}

#[test]
fn a_calibration_snapshot_is_its_pinned_bytes() {
    let bytes = calibration_snapshot();
    assert_eq!((bytes.len(), fnv(&bytes)), CALIBRATION);
}

#[test]
#[ignore = "generator: prints the GOLDEN and CALIBRATION literals"]
fn print_golden_table() {
    println!("const GOLDEN: &[(&str, usize, u64)] = &[");
    for (name, msg) in samples() {
        let bytes = msg.encode();
        println!("    (\"{name}\", {}, {:#018x}),", bytes.len(), fnv(&bytes));
    }
    println!("];");
    let bytes = calibration_snapshot();
    println!(
        "const CALIBRATION: (usize, u64) = ({}, {:#018x});",
        bytes.len(),
        fnv(&bytes)
    );
}
