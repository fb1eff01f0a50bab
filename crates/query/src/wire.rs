//! Wire layouts of the query algebra (the codec is [`qt_catalog::wire`]).
//!
//! A query is its relations with their partition masks, then its predicate,
//! select, group-by and order-by lists. A decoded [`SharedQuery`] is a fresh
//! handle: a fingerprint is never taken off the wire, the receiver hashes
//! what it decoded (once).

use crate::{AggFunc, Col, CompOp, Operand, PartSet, Predicate, Query, SelectItem, SharedQuery};
use qt_catalog::impl_wire;

impl_wire!(Col { rel, attr });
impl_wire!(enum CompOp { 0 => Eq, 1 => Ne, 2 => Lt, 3 => Le, 4 => Gt, 5 => Ge });
impl_wire!(enum Operand { 0 => Col(c), 1 => Const(v) });
impl_wire!(Predicate { left, op, right });
impl_wire!(enum AggFunc { 0 => Count, 1 => Sum, 2 => Avg, 3 => Min, 4 => Max });
impl_wire!(enum SelectItem { 0 => Col(c), 1 => Agg { func, arg } });
impl_wire!(PartSet as u64: |p| p.bits(), |bits| PartSet::from_bits(bits));
impl_wire!(Query {
    relations,
    predicates,
    select,
    group_by,
    order_by
});
impl_wire!(SharedQuery as Query: |q| **q, |q| SharedQuery::from(q));
