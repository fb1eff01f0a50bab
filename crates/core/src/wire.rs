//! Wire encodings for the QT protocol messages.
//!
//! The [`Wire`] trait and the primitive/trading-type codecs live in
//! [`qt_trade::wire`]; this module supplies the query-algebra helpers (the
//! coherence rules keep `qt-core` from implementing a `qt-trade` trait for
//! `qt-query` types, so those go through free `put_*`/`get_*` functions)
//! and the [`Wire`] impl for the protocol message enum, [`ServeMsg`]. With
//! these, the real transport can carry every protocol message over TCP
//! byte-identically to what the in-process channels move by ownership.

use crate::offer::{Offer, OfferKind, RfbItem};
use crate::seller::SessionRfb;
use crate::session::ServeMsg;
use qt_catalog::{NodeId, RelId};
use qt_query::{AggFunc, Col, CompOp, Operand, PartSet, Predicate, Query, SelectItem};
use qt_trade::wire::{put_f64, put_len, put_u32, put_u64, put_u8, Reader, Wire, WireError};
use qt_trade::SessionId;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Append a column reference.
pub fn put_col(out: &mut Vec<u8>, c: &Col) {
    put_u32(out, c.rel.0);
    put_u64(out, c.attr as u64);
}

/// Read a column reference.
pub fn get_col(r: &mut Reader<'_>) -> Result<Col, WireError> {
    let rel = RelId(r.u32()?);
    let attr = usize::try_from(r.u64()?).map_err(|_| WireError::BadLen)?;
    Ok(Col { rel, attr })
}

fn put_comp_op(out: &mut Vec<u8>, op: CompOp) {
    let tag = match op {
        CompOp::Eq => 0,
        CompOp::Ne => 1,
        CompOp::Lt => 2,
        CompOp::Le => 3,
        CompOp::Gt => 4,
        CompOp::Ge => 5,
    };
    put_u8(out, tag);
}

fn get_comp_op(r: &mut Reader<'_>) -> Result<CompOp, WireError> {
    Ok(match r.u8()? {
        0 => CompOp::Eq,
        1 => CompOp::Ne,
        2 => CompOp::Lt,
        3 => CompOp::Le,
        4 => CompOp::Gt,
        5 => CompOp::Ge,
        t => return Err(WireError::BadTag("CompOp", t)),
    })
}

fn put_operand(out: &mut Vec<u8>, o: &Operand) {
    match o {
        Operand::Col(c) => {
            put_u8(out, 0);
            put_col(out, c);
        }
        Operand::Const(v) => {
            put_u8(out, 1);
            v.put(out);
        }
    }
}

fn get_operand(r: &mut Reader<'_>) -> Result<Operand, WireError> {
    Ok(match r.u8()? {
        0 => Operand::Col(get_col(r)?),
        1 => Operand::Const(Wire::get(r)?),
        t => return Err(WireError::BadTag("Operand", t)),
    })
}

/// Append one `WHERE` conjunct.
pub fn put_predicate(out: &mut Vec<u8>, p: &Predicate) {
    put_col(out, &p.left);
    put_comp_op(out, p.op);
    put_operand(out, &p.right);
}

/// Read one `WHERE` conjunct.
pub fn get_predicate(r: &mut Reader<'_>) -> Result<Predicate, WireError> {
    Ok(Predicate {
        left: get_col(r)?,
        op: get_comp_op(r)?,
        right: get_operand(r)?,
    })
}

fn put_select_item(out: &mut Vec<u8>, s: &SelectItem) {
    match s {
        SelectItem::Col(c) => {
            put_u8(out, 0);
            put_col(out, c);
        }
        SelectItem::Agg { func, arg } => {
            put_u8(out, 1);
            let tag = match func {
                AggFunc::Count => 0,
                AggFunc::Sum => 1,
                AggFunc::Avg => 2,
                AggFunc::Min => 3,
                AggFunc::Max => 4,
            };
            put_u8(out, tag);
            match arg {
                None => put_u8(out, 0),
                Some(c) => {
                    put_u8(out, 1);
                    put_col(out, c);
                }
            }
        }
    }
}

fn get_select_item(r: &mut Reader<'_>) -> Result<SelectItem, WireError> {
    Ok(match r.u8()? {
        0 => SelectItem::Col(get_col(r)?),
        1 => {
            let func = match r.u8()? {
                0 => AggFunc::Count,
                1 => AggFunc::Sum,
                2 => AggFunc::Avg,
                3 => AggFunc::Min,
                4 => AggFunc::Max,
                t => return Err(WireError::BadTag("AggFunc", t)),
            };
            let arg = match r.u8()? {
                0 => None,
                1 => Some(get_col(r)?),
                t => return Err(WireError::BadTag("Option<Col>", t)),
            };
            SelectItem::Agg { func, arg }
        }
        t => return Err(WireError::BadTag("SelectItem", t)),
    })
}

fn put_cols(out: &mut Vec<u8>, cols: &[Col]) {
    put_len(out, cols.len());
    for c in cols {
        put_col(out, c);
    }
}

fn get_cols(r: &mut Reader<'_>) -> Result<Vec<Col>, WireError> {
    let n = r.len(12)?;
    (0..n).map(|_| get_col(r)).collect()
}

/// Append a full query: relations with their partition masks, then the
/// predicate, select, group-by, and order-by lists.
pub fn put_query(out: &mut Vec<u8>, q: &Query) {
    put_len(out, q.relations.len());
    for (rel, parts) in &q.relations {
        put_u32(out, rel.0);
        put_u64(out, parts.bits());
    }
    put_len(out, q.predicates.len());
    for p in &q.predicates {
        put_predicate(out, p);
    }
    put_len(out, q.select.len());
    for s in &q.select {
        put_select_item(out, s);
    }
    put_cols(out, &q.group_by);
    put_cols(out, &q.order_by);
}

/// Read a full query.
pub fn get_query(r: &mut Reader<'_>) -> Result<Query, WireError> {
    let n_rel = r.len(12)?;
    let mut relations = BTreeMap::new();
    for _ in 0..n_rel {
        let rel = RelId(r.u32()?);
        let bits = r.u64()?;
        let parts = PartSet::from_indices((0..64u16).filter(|i| bits & (1u64 << i) != 0));
        relations.insert(rel, parts);
    }
    let n_pred = r.len(1)?;
    let predicates = (0..n_pred)
        .map(|_| get_predicate(r))
        .collect::<Result<Vec<_>, _>>()?;
    let n_sel = r.len(1)?;
    let select = (0..n_sel)
        .map(|_| get_select_item(r))
        .collect::<Result<Vec<_>, _>>()?;
    let group_by = get_cols(r)?;
    let order_by = get_cols(r)?;
    Ok(Query {
        relations,
        predicates,
        select,
        group_by,
        order_by,
    })
}

impl Wire for OfferKind {
    fn put(&self, out: &mut Vec<u8>) {
        let tag = match self {
            OfferKind::Rows => 0,
            OfferKind::PartialAggregate => 1,
            OfferKind::FromView => 2,
        };
        put_u8(out, tag);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => OfferKind::Rows,
            1 => OfferKind::PartialAggregate,
            2 => OfferKind::FromView,
            t => return Err(WireError::BadTag("OfferKind", t)),
        })
    }
}

impl Wire for Offer {
    fn put(&self, out: &mut Vec<u8>) {
        put_u64(out, self.id);
        self.seller.put(out);
        put_query(out, &self.query);
        self.props.put(out);
        put_f64(out, self.true_cost);
        self.kind.put(out);
        put_u32(out, self.round);
        put_len(out, self.subcontracts.len());
        for (node, q) in &self.subcontracts {
            node.put(out);
            put_query(out, q);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let id = r.u64()?;
        let seller = NodeId::get(r)?;
        // A fresh handle: a fingerprint is never taken off the wire, the
        // receiver hashes what it decoded (once).
        let query = get_query(r)?.into();
        let props = Wire::get(r)?;
        let true_cost = r.f64()?;
        let kind = OfferKind::get(r)?;
        let round = r.u32()?;
        let n_sub = r.len(1)?;
        let mut subcontracts = Vec::with_capacity(n_sub);
        for _ in 0..n_sub {
            let node = NodeId::get(r)?;
            subcontracts.push((node, get_query(r)?.into()));
        }
        Ok(Offer {
            id,
            seller,
            query,
            props,
            true_cost,
            kind,
            round,
            subcontracts,
        })
    }
}

impl Wire for RfbItem {
    fn put(&self, out: &mut Vec<u8>) {
        put_query(out, &self.query);
        put_f64(out, self.ref_value);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(RfbItem {
            query: get_query(r)?,
            ref_value: r.f64()?,
        })
    }
}

impl Wire for SessionRfb {
    fn put(&self, out: &mut Vec<u8>) {
        self.session.put(out);
        put_u64(out, self.req);
        put_u32(out, self.round);
        put_u8(out, self.priority);
        self.items.put(out);
        self.hints.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(SessionRfb {
            session: SessionId::get(r)?,
            req: r.u64()?,
            round: r.u32()?,
            priority: r.u8()?,
            items: Arc::<Vec<RfbItem>>::get(r)?,
            hints: Arc::<Vec<Offer>>::get(r)?,
        })
    }
}

impl Wire for ServeMsg {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            ServeMsg::Arrive { session } => {
                put_u8(out, 0);
                session.put(out);
            }
            ServeMsg::Rfb { entries } => {
                put_u8(out, 1);
                entries.put(out);
            }
            ServeMsg::Offers { replies } => {
                put_u8(out, 2);
                replies.put(out);
            }
            ServeMsg::Flush => put_u8(out, 3),
            ServeMsg::Timeout { session, round } => {
                put_u8(out, 4);
                session.put(out);
                put_u32(out, *round);
            }
            ServeMsg::Award {
                session,
                contract,
                offer,
            } => {
                put_u8(out, 5);
                session.put(out);
                put_u64(out, *contract);
                put_u64(out, *offer);
            }
            ServeMsg::AwardAck { session, contract } => {
                put_u8(out, 6);
                session.put(out);
                put_u64(out, *contract);
            }
            ServeMsg::AwardDecline { session, contract } => {
                put_u8(out, 7);
                session.put(out);
                put_u64(out, *contract);
            }
            ServeMsg::Lease { session, contract } => {
                put_u8(out, 8);
                session.put(out);
                put_u64(out, *contract);
            }
            ServeMsg::LeaseAck { session, contract } => {
                put_u8(out, 9);
                session.put(out);
                put_u64(out, *contract);
            }
            ServeMsg::Release { session, contract } => {
                put_u8(out, 10);
                session.put(out);
                put_u64(out, *contract);
            }
            ServeMsg::AwardTimeout { session, contract } => {
                put_u8(out, 11);
                session.put(out);
                put_u64(out, *contract);
            }
            ServeMsg::LeaseTick { session, contract } => {
                put_u8(out, 12);
                session.put(out);
                put_u64(out, *contract);
            }
            ServeMsg::RetradeTimeout { session, round } => {
                put_u8(out, 13);
                session.put(out);
                put_u32(out, *round);
            }
            ServeMsg::Negotiate => put_u8(out, 14),
            ServeMsg::AdTick => put_u8(out, 15),
            ServeMsg::Advertise { ads } => {
                put_u8(out, 16);
                put_len(out, ads.len());
                for (node, digest, epoch) in ads {
                    node.put(out);
                    put_u64(out, *digest);
                    put_u64(out, *epoch);
                }
            }
            ServeMsg::Shed { session, round } => {
                put_u8(out, 17);
                session.put(out);
                put_u32(out, *round);
            }
            ServeMsg::AggOffers {
                session,
                round,
                offers,
                missing,
            } => {
                put_u8(out, 18);
                session.put(out);
                put_u32(out, *round);
                offers.put(out);
                put_len(out, missing.len());
                for n in missing {
                    n.put(out);
                }
            }
            ServeMsg::BrokerTimeout { session, round } => {
                put_u8(out, 19);
                session.put(out);
                put_u32(out, *round);
            }
            ServeMsg::BrokerLease => put_u8(out, 20),
            ServeMsg::BrokerLeaseAck => put_u8(out, 21),
            ServeMsg::BrokerLeaseTick => put_u8(out, 22),
            ServeMsg::Promote { failed } => {
                put_u8(out, 23);
                failed.put(out);
            }
            ServeMsg::RegionUpdate {
                failed,
                digest,
                epoch,
            } => {
                put_u8(out, 24);
                failed.put(out);
                put_u64(out, *digest);
                put_u64(out, *epoch);
            }
            ServeMsg::Quiesce => put_u8(out, 25),
            ServeMsg::Crash => put_u8(out, 26),
            ServeMsg::Restart => put_u8(out, 27),
            ServeMsg::ShedRetry { session } => {
                put_u8(out, 28);
                session.put(out);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => ServeMsg::Arrive {
                session: SessionId::get(r)?,
            },
            1 => ServeMsg::Rfb {
                entries: Vec::<SessionRfb>::get(r)?,
            },
            2 => ServeMsg::Offers {
                replies: Vec::<(SessionId, u32, Vec<Offer>)>::get(r)?,
            },
            3 => ServeMsg::Flush,
            4 => ServeMsg::Timeout {
                session: SessionId::get(r)?,
                round: r.u32()?,
            },
            5 => ServeMsg::Award {
                session: SessionId::get(r)?,
                contract: r.u64()?,
                offer: r.u64()?,
            },
            6 => ServeMsg::AwardAck {
                session: SessionId::get(r)?,
                contract: r.u64()?,
            },
            7 => ServeMsg::AwardDecline {
                session: SessionId::get(r)?,
                contract: r.u64()?,
            },
            8 => ServeMsg::Lease {
                session: SessionId::get(r)?,
                contract: r.u64()?,
            },
            9 => ServeMsg::LeaseAck {
                session: SessionId::get(r)?,
                contract: r.u64()?,
            },
            10 => ServeMsg::Release {
                session: SessionId::get(r)?,
                contract: r.u64()?,
            },
            11 => ServeMsg::AwardTimeout {
                session: SessionId::get(r)?,
                contract: r.u64()?,
            },
            12 => ServeMsg::LeaseTick {
                session: SessionId::get(r)?,
                contract: r.u64()?,
            },
            13 => ServeMsg::RetradeTimeout {
                session: SessionId::get(r)?,
                round: r.u32()?,
            },
            14 => ServeMsg::Negotiate,
            15 => ServeMsg::AdTick,
            16 => {
                let n = r.len(20)?;
                let mut ads = Vec::with_capacity(n);
                for _ in 0..n {
                    let node = NodeId::get(r)?;
                    let digest = r.u64()?;
                    let epoch = r.u64()?;
                    ads.push((node, digest, epoch));
                }
                ServeMsg::Advertise { ads }
            }
            17 => ServeMsg::Shed {
                session: SessionId::get(r)?,
                round: r.u32()?,
            },
            18 => {
                let session = SessionId::get(r)?;
                let round = r.u32()?;
                let offers = Vec::<Offer>::get(r)?;
                let n = r.len(4)?;
                let missing = (0..n)
                    .map(|_| NodeId::get(r))
                    .collect::<Result<Vec<_>, _>>()?;
                ServeMsg::AggOffers {
                    session,
                    round,
                    offers,
                    missing,
                }
            }
            19 => ServeMsg::BrokerTimeout {
                session: SessionId::get(r)?,
                round: r.u32()?,
            },
            20 => ServeMsg::BrokerLease,
            21 => ServeMsg::BrokerLeaseAck,
            22 => ServeMsg::BrokerLeaseTick,
            23 => ServeMsg::Promote {
                failed: NodeId::get(r)?,
            },
            24 => ServeMsg::RegionUpdate {
                failed: NodeId::get(r)?,
                digest: r.u64()?,
                epoch: r.u64()?,
            },
            25 => ServeMsg::Quiesce,
            26 => ServeMsg::Crash,
            27 => ServeMsg::Restart,
            28 => ServeMsg::ShedRetry {
                session: SessionId::get(r)?,
            },
            t => return Err(WireError::BadTag("ServeMsg", t)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qt_catalog::Value;
    use qt_cost::AnswerProperties;
    use qt_query::SharedQuery;

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
        for cut in 0..bytes.len() {
            assert!(T::decode(&bytes[..cut]).is_err(), "prefix {cut} decoded");
        }
    }

    #[test]
    fn queries_roundtrip_bit_exactly() {
        let q = sample_query();
        let mut out = Vec::new();
        put_query(&mut out, &q);
        let mut r = Reader::new(&out);
        let back = get_query(&mut r).expect("query decodes");
        r.finish().expect("no trailing bytes");
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
            let mut r = Reader::new(&bytes);
            let _ = get_query(&mut r);
        }
    }
}
