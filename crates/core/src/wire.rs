//! Wire layouts of the QT protocol messages.
//!
//! The codec is [`qt_catalog::wire`]; the query algebra, the answer
//! properties and the session id declare their own layouts in the crates
//! that own them. This module declares the rest of what crosses the real
//! transport: offers, RFB items, session RFB entries and the protocol
//! message enum, [`ServeMsg`]. With these, TCP carries every protocol
//! message byte-identically to what the in-process channels move by
//! ownership.

use crate::offer::{Offer, OfferKind, RfbItem};
use crate::seller::SessionRfb;
use crate::session::ServeMsg;
use qt_catalog::impl_wire;

impl_wire!(enum OfferKind { 0 => Rows, 1 => PartialAggregate, 2 => FromView });
impl_wire!(Offer {
    id,
    seller,
    query,
    props,
    true_cost,
    kind,
    round,
    subcontracts
});
impl_wire!(RfbItem { query, ref_value });
impl_wire!(SessionRfb {
    session,
    req,
    round,
    priority,
    items,
    hints
});
impl_wire!(enum ServeMsg {
    0 => Arrive { session },
    1 => Rfb { entries },
    2 => Offers { replies },
    3 => Flush,
    4 => Timeout { session, round },
    5 => Award { session, contract, offer },
    6 => AwardAck { session, contract },
    7 => AwardDecline { session, contract },
    8 => Lease { session, contract },
    9 => LeaseAck { session, contract },
    10 => Release { session, contract },
    11 => AwardTimeout { session, contract },
    12 => LeaseTick { session, contract },
    13 => RetradeTimeout { session, round },
    14 => Negotiate,
    15 => AdTick,
    16 => Advertise { ads },
    17 => Shed { session, round },
    18 => AggOffers { session, round, offers, missing },
    19 => BrokerTimeout { session, round },
    20 => BrokerLease,
    21 => BrokerLeaseAck,
    22 => BrokerLeaseTick,
    23 => Promote { failed },
    24 => RegionUpdate { failed, digest, epoch },
    25 => Quiesce,
    26 => Crash,
    27 => Restart,
    28 => ShedRetry { session },
});

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use qt_catalog::wire::{Wire, WireError};
    use qt_catalog::{NodeId, RelId, Value};
    use qt_cost::{AnswerProperties, CostParams};
    use qt_query::{
        AggFunc, Col, CompOp, Operand, PartSet, Predicate, Query, SelectItem, SharedQuery,
    };
    use qt_trade::SessionId;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    fn sample_query() -> Query {
        Query {
            relations: BTreeMap::from([
                (RelId(0), PartSet::from_indices([0, 1, 3])),
                (RelId(2), PartSet::from_indices([1])),
            ]),
            predicates: vec![
                Predicate {
                    left: Col {
                        rel: RelId(0),
                        attr: 0,
                    },
                    op: CompOp::Eq,
                    right: Operand::Col(Col {
                        rel: RelId(2),
                        attr: 1,
                    }),
                },
                Predicate {
                    left: Col {
                        rel: RelId(2),
                        attr: 3,
                    },
                    op: CompOp::Gt,
                    right: Operand::Const(Value::Float(5.0)),
                },
            ],
            select: vec![
                SelectItem::Col(Col {
                    rel: RelId(0),
                    attr: 2,
                }),
                SelectItem::Agg {
                    func: AggFunc::Sum,
                    arg: Some(Col {
                        rel: RelId(2),
                        attr: 3,
                    }),
                },
                SelectItem::Agg {
                    func: AggFunc::Count,
                    arg: None,
                },
            ],
            group_by: vec![Col {
                rel: RelId(0),
                attr: 2,
            }],
            order_by: vec![],
        }
    }

    fn sample_offer(id: u64) -> Offer {
        Offer {
            id,
            seller: NodeId(3),
            query: sample_query().into(),
            props: AnswerProperties {
                total_time: 1.5,
                first_row_time: 0.25,
                rows_per_sec: 1000.0,
                rows: 1500.0,
                bytes: 96_000.0,
                freshness: 1.0,
                completeness: 0.75,
                price: 0.0,
            },
            true_cost: 1.2,
            kind: OfferKind::PartialAggregate,
            round: 2,
            subcontracts: vec![(NodeId(5), sample_query().into())],
        }
    }

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: &T) {
        let bytes = v.encode();
        assert_eq!(&T::decode(&bytes).expect("decode(encode(v))"), v);
        // Every strict prefix must error (never panic, never mis-decode).
        for cut in 0..bytes.len() {
            assert!(T::decode(&bytes[..cut]).is_err(), "prefix {cut} decoded");
        }
        // Trailing garbage must be rejected.
        let mut extended = bytes.clone();
        extended.push(0xAB);
        assert!(T::decode(&extended).is_err());
    }

    #[test]
    fn queries_roundtrip_bit_exactly() {
        let q = sample_query();
        let back = Query::decode(&q.encode()).expect("query decodes");
        assert_eq!(back, q);
        assert_eq!(back.fingerprint(), q.fingerprint());
    }

    #[test]
    fn a_decoded_offer_is_an_equal_query_in_a_new_allocation() {
        let sent = sample_offer(1);
        let fingerprint = sent.query.fingerprint();
        let got = Offer::decode(&sent.encode()).expect("offer decodes");
        assert_eq!(got.query, sent.query);
        assert!(!SharedQuery::ptr_eq(&got.query, &sent.query));
        assert_eq!(got.query.fingerprint(), fingerprint);
    }

    #[test]
    fn offers_and_rfb_items_roundtrip() {
        roundtrip(&sample_offer(42));
        roundtrip(&RfbItem {
            query: sample_query(),
            ref_value: 3.25,
        });
        roundtrip(&SessionRfb {
            session: SessionId(7),
            req: (8u64 << 32) | 3,
            round: 3,
            priority: 5,
            items: Arc::new(vec![RfbItem {
                query: sample_query(),
                ref_value: 1.0,
            }]),
            hints: Arc::new(vec![sample_offer(9)]),
        });
    }

    #[test]
    fn every_serve_msg_variant_roundtrips() {
        let s = SessionId(6);
        let entry = SessionRfb {
            session: s,
            req: (7u64 << 32) | 1,
            round: 1,
            priority: 2,
            items: Arc::new(vec![RfbItem {
                query: sample_query(),
                ref_value: 1.5,
            }]),
            hints: Arc::new(vec![]),
        };
        let variants = vec![
            ServeMsg::Arrive { session: s },
            ServeMsg::Rfb {
                entries: vec![entry],
            },
            ServeMsg::Offers {
                replies: vec![(s, 1, vec![sample_offer(11)]), (SessionId(9), 2, vec![])],
            },
            ServeMsg::Flush,
            ServeMsg::Timeout {
                session: s,
                round: 2,
            },
            ServeMsg::Award {
                session: s,
                contract: 1,
                offer: 2,
            },
            ServeMsg::AwardAck {
                session: s,
                contract: 1,
            },
            ServeMsg::AwardDecline {
                session: s,
                contract: 1,
            },
            ServeMsg::Lease {
                session: s,
                contract: 1,
            },
            ServeMsg::LeaseAck {
                session: s,
                contract: 1,
            },
            ServeMsg::Release {
                session: s,
                contract: 1,
            },
            ServeMsg::AwardTimeout {
                session: s,
                contract: 1,
            },
            ServeMsg::LeaseTick {
                session: s,
                contract: 1,
            },
            ServeMsg::RetradeTimeout {
                session: s,
                round: 3,
            },
            ServeMsg::Negotiate,
            ServeMsg::AdTick,
            ServeMsg::Advertise {
                ads: vec![(NodeId(4), 0b1011, 7), (NodeId(9), u64::MAX, 1)],
            },
            ServeMsg::Shed {
                session: s,
                round: 1,
            },
            ServeMsg::AggOffers {
                session: s,
                round: 2,
                offers: vec![sample_offer(21), sample_offer(22)],
                missing: vec![NodeId(3), NodeId(8)],
            },
            ServeMsg::BrokerTimeout {
                session: s,
                round: 2,
            },
            ServeMsg::BrokerLease,
            ServeMsg::BrokerLeaseAck,
            ServeMsg::BrokerLeaseTick,
            ServeMsg::Promote { failed: NodeId(17) },
            ServeMsg::RegionUpdate {
                failed: NodeId(17),
                digest: 0b1101,
                epoch: 9,
            },
            ServeMsg::Quiesce,
            ServeMsg::Crash,
            ServeMsg::Restart,
            ServeMsg::ShedRetry { session: s },
        ];
        for v in &variants {
            roundtrip(v);
        }
        assert!(matches!(
            ServeMsg::decode(&[200]),
            Err(WireError::BadTag("ServeMsg", 200))
        ));
    }

    #[test]
    fn garbage_inputs_error_without_panicking() {
        // Deterministic pseudo-random garbage: an LCG over byte buffers.
        let mut x = 0x2545F4914F6CDD1Du64;
        for len in 0..96usize {
            let bytes: Vec<u8> = (0..len)
                .map(|_| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (x >> 56) as u8
                })
                .collect();
            let _ = ServeMsg::decode(&bytes);
            let _ = Offer::decode(&bytes);
            let _ = Query::decode(&bytes);
        }
    }

    #[test]
    fn empty_and_tiny_buffers_error() {
        assert_eq!(SessionId::decode(&[]), Err(WireError::Truncated));
        assert_eq!(SessionId::decode(&[1, 2]), Err(WireError::Truncated));
        assert_eq!(Offer::decode(&[]), Err(WireError::Truncated));
        assert!(Vec::<Offer>::decode(&[1, 0, 0]).is_err());
        assert!(ServeMsg::decode(&[]).is_err());
    }

    proptest! {
        #[test]
        fn session_and_contract_ids_roundtrip(a in 0u64..u64::MAX, b in 0u64..u64::MAX) {
            roundtrip(&SessionId(a));
            roundtrip(&ServeMsg::AwardAck { session: SessionId(a), contract: b });
        }

        #[test]
        fn values_roundtrip(i in -1000i64..1000, x in -1e6f64..1e6) {
            roundtrip(&Value::Int(i));
            roundtrip(&Value::Float(x));
            roundtrip(&Value::str("corfu"));
            roundtrip(&Value::Null);
        }

        #[test]
        fn cost_params_roundtrip(cpu in 1e-12f64..1e-3, io in 1e-12f64..1e-3) {
            roundtrip(&CostParams {
                cpu_tuple: cpu,
                io_byte: io,
                hash_build: cpu * 2.0,
                hash_probe: cpu * 1.5,
                sort_tuple_log: cpu * 0.5,
                agg_tuple: cpu * 1.2,
                startup: 0.001,
            });
        }

        #[test]
        fn props_roundtrip(t in 0.0f64..1e6, rows in 0.0f64..1e9) {
            roundtrip(&AnswerProperties {
                total_time: t,
                first_row_time: t / 2.0,
                rows_per_sec: rows.max(1.0),
                rows,
                bytes: rows * 64.0,
                freshness: 1.0,
                completeness: 1.0,
                price: 0.0,
            });
        }

        #[test]
        fn garbage_never_panics(bytes in prop::collection::vec(0u8..=255, 0..64)) {
            // Any of these may Ok or Err; none may panic.
            let _ = Value::decode(&bytes);
            let _ = AnswerProperties::decode(&bytes);
            let _ = Option::<SessionId>::decode(&bytes);
            let _ = Vec::<(NodeId, u64, u64)>::decode(&bytes);
            let _ = SelectItem::decode(&bytes);
            let _ = Predicate::decode(&bytes);
            let _ = SessionRfb::decode(&bytes);
            let _ = ServeMsg::decode(&bytes);
        }
    }
}
