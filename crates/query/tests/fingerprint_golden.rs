//! Fingerprint and hash-partition values, pinned.
//!
//! [`Query::fingerprint`] keys seller offer caches, buyer value books and the
//! shared result cache, breaks ties in the semantic cache's candidate order
//! and sits under the committed experiment results; [`value_bucket`] decides
//! which hash partition a loaded row lands in. Both are FNV-1a over the
//! derived `Hash` feed, so a change to the hasher — or to how any part of a
//! query or value is fed to it — moves them silently. [`FINGERPRINTS`] and
//! [`BUCKETS`] were captured from the byte-at-a-time hasher (run the ignored
//! `print_golden_tables` test to regenerate the literals): every `CompOp`,
//! column and constant operands, `Int` constants at the byte and sign
//! boundaries and both extremes, a `Float`, `Str`s (including the empty
//! string), every `AggFunc` (`COUNT(*)` too), `GROUP BY`, `ORDER BY`, and
//! partition sets with bit 0 and with bit 63 set.

use qt_catalog::partition::value_bucket;
use qt_catalog::{
    AttrType, CatalogBuilder, NodeId, PartId, PartitionStats, Partitioning, RelId, RelationSchema,
    SchemaDict, Value,
};
use qt_query::{AggFunc, Col, CompOp, Operand, PartSet, Predicate, Query, SelectItem};
use std::sync::Arc;

const CUSTOMER: RelId = RelId(0);
const INVOICELINE: RelId = RelId(1);
const ORDERS: RelId = RelId(2);

/// customer(custid, custname, office) list-partitioned on the three telecom
/// offices; invoiceline(invid, linenum, custid, charge) unpartitioned;
/// orders(okey, ocust, ototal, ostatus) hash-partitioned 64 ways on okey.
fn dict() -> Arc<SchemaDict> {
    let mut b = CatalogBuilder::new();
    let cust = b.add_relation(
        RelationSchema::new(
            "customer",
            vec![
                ("custid", AttrType::Int),
                ("custname", AttrType::Str),
                ("office", AttrType::Str),
            ],
        ),
        Partitioning::List {
            attr: 2,
            groups: vec![
                vec![Value::str("Athens")],
                vec![Value::str("Corfu")],
                vec![Value::str("Myconos")],
            ],
        },
    );
    let inv = b.add_relation(
        RelationSchema::new(
            "invoiceline",
            vec![
                ("invid", AttrType::Int),
                ("linenum", AttrType::Int),
                ("custid", AttrType::Int),
                ("charge", AttrType::Float),
            ],
        ),
        Partitioning::Single,
    );
    let orders = b.add_relation(
        RelationSchema::new(
            "orders",
            vec![
                ("okey", AttrType::Int),
                ("ocust", AttrType::Int),
                ("ototal", AttrType::Float),
                ("ostatus", AttrType::Str),
            ],
        ),
        Partitioning::Hash { attr: 0, parts: 64 },
    );
    for i in 0..3 {
        b.set_stats(
            PartId::new(cust, i),
            PartitionStats::synthetic(100, &[100, 90, 1]),
        );
        b.place(PartId::new(cust, i), NodeId(i as u32));
    }
    b.set_stats(
        PartId::new(inv, 0),
        PartitionStats::synthetic(1000, &[200, 5, 100, 50]),
    );
    b.place(PartId::new(inv, 0), NodeId(0));
    for i in 0..64 {
        b.set_stats(
            PartId::new(orders, i),
            PartitionStats::synthetic(10, &[10, 5, 10, 3]),
        );
        b.place(PartId::new(orders, i), NodeId(u32::from(i % 4)));
    }
    b.build().dict
}

fn col(rel: RelId, attr: usize) -> Col {
    Col::new(rel, attr)
}

fn cols(c: &[Col]) -> Vec<SelectItem> {
    c.iter().copied().map(SelectItem::Col).collect()
}

fn agg(func: AggFunc, arg: Option<Col>) -> SelectItem {
    SelectItem::Agg { func, arg }
}

/// The pinned queries, in table order.
fn cases(dict: &SchemaDict) -> Vec<(&'static str, Query)> {
    let custid = col(CUSTOMER, 0);
    let custname = col(CUSTOMER, 1);
    let office = col(CUSTOMER, 2);
    let invid = col(INVOICELINE, 0);
    let linenum = col(INVOICELINE, 1);
    let inv_cust = col(INVOICELINE, 2);
    let charge = col(INVOICELINE, 3);
    let okey = col(ORDERS, 0);
    let ocust = col(ORDERS, 1);
    let ototal = col(ORDERS, 2);
    let ostatus = col(ORDERS, 3);
    let join = Predicate::eq_cols(custid, inv_cust);
    let customers = || Query::over_full(dict, [CUSTOMER]);
    let invoices = || Query::over_full(dict, [INVOICELINE]);
    let orders = || Query::over_full(dict, [ORDERS]);
    let charges = || Query::over_full(dict, [CUSTOMER, INVOICELINE]);
    let on_custid = |op: CompOp, v: i64| {
        customers()
            .with_predicates(vec![Predicate::with_const(custid, op, v)])
            .with_select(cols(&[custname]))
    };
    let office_is = |v: &str| {
        customers()
            .with_predicates(vec![Predicate::with_const(office, CompOp::Eq, v)])
            .with_select(cols(&[custid]))
    };
    let invoice_agg =
        |func: AggFunc, arg: Option<Col>| invoices().with_select(vec![agg(func, arg)]);
    let okey_of = |parts: PartSet| {
        orders()
            .with_select(cols(&[okey]))
            .with_partset(ORDERS, parts)
    };
    vec![
        ("custid = 0", on_custid(CompOp::Eq, 0)),
        ("custid <> 255", on_custid(CompOp::Ne, 255)),
        ("custid < 256", on_custid(CompOp::Lt, 256)),
        ("custid <= -1", on_custid(CompOp::Le, -1)),
        ("custid > i64::MIN", on_custid(CompOp::Gt, i64::MIN)),
        ("custid >= i64::MAX", on_custid(CompOp::Ge, i64::MAX)),
        (
            "join custid = custid",
            charges()
                .with_predicates(vec![join.clone()])
                .with_select(cols(&[custname, charge])),
        ),
        (
            "linenum < invid",
            invoices()
                .with_predicates(vec![Predicate {
                    left: linenum,
                    op: CompOp::Lt,
                    right: Operand::Col(invid),
                }])
                .with_select(cols(&[invid])),
        ),
        (
            "join + custid >= invid",
            charges()
                .with_predicates(vec![
                    join.clone(),
                    Predicate {
                        left: custid,
                        op: CompOp::Ge,
                        right: Operand::Col(invid),
                    },
                ])
                .with_select(cols(&[office, invid])),
        ),
        (
            "ototal > 4000.0",
            orders()
                .with_predicates(vec![Predicate::with_const(ototal, CompOp::Gt, 4000.0)])
                .with_select(cols(&[okey, ototal])),
        ),
        ("office = 'Athens'", office_is("Athens")),
        ("office = 'Corfu'", office_is("Corfu")),
        ("office = 'Myconos'", office_is("Myconos")),
        (
            "custname = ''",
            customers()
                .with_predicates(vec![Predicate::with_const(custname, CompOp::Eq, "")])
                .with_select(cols(&[custid])),
        ),
        ("COUNT(*)", invoice_agg(AggFunc::Count, None)),
        ("COUNT(invid)", invoice_agg(AggFunc::Count, Some(invid))),
        ("SUM(charge)", invoice_agg(AggFunc::Sum, Some(charge))),
        ("AVG(charge)", invoice_agg(AggFunc::Avg, Some(charge))),
        ("MIN(charge)", invoice_agg(AggFunc::Min, Some(charge))),
        ("MAX(charge)", invoice_agg(AggFunc::Max, Some(charge))),
        (
            "SUM(charge) GROUP BY office, Corfu + Myconos",
            charges()
                .with_predicates(vec![join.clone()])
                .with_select(vec![
                    SelectItem::Col(office),
                    agg(AggFunc::Sum, Some(charge)),
                ])
                .with_group_by(vec![office])
                .with_partset(CUSTOMER, PartSet::from_indices([1, 2])),
        ),
        (
            "COUNT(*), MAX(charge) GROUP BY office, custname",
            charges()
                .with_predicates(vec![join.clone()])
                .with_select(vec![
                    SelectItem::Col(office),
                    SelectItem::Col(custname),
                    agg(AggFunc::Count, None),
                    agg(AggFunc::Max, Some(charge)),
                ])
                .with_group_by(vec![office, custname]),
        ),
        (
            "ORDER BY charge, custname",
            charges()
                .with_predicates(vec![join.clone()])
                .with_select(cols(&[custname, charge]))
                .with_order_by(vec![charge, custname]),
        ),
        (
            "customer partition {0}",
            customers()
                .with_select(cols(&[custname]))
                .with_partset(CUSTOMER, PartSet::single(0)),
        ),
        ("orders partition {63}", okey_of(PartSet::single(63))),
        (
            "orders partitions {0, 63}",
            okey_of(PartSet::from_indices([0, 63])),
        ),
        ("orders, all 64 partitions", okey_of(PartSet::all(64))),
        (
            "orders x customer, ostatus = 'F', ORDER BY ototal",
            Query::over_full(dict, [CUSTOMER, ORDERS])
                .with_predicates(vec![
                    Predicate::eq_cols(ocust, custid),
                    Predicate::with_const(ostatus, CompOp::Eq, "F"),
                    Predicate::with_const(ototal, CompOp::Le, -0.5),
                ])
                .with_select(cols(&[okey, custname, ototal]))
                .with_order_by(vec![ototal])
                .with_partset(ORDERS, PartSet::from_indices([1, 62, 63])),
        ),
    ]
}

/// The pinned values, in table order.
fn values() -> Vec<Value> {
    vec![
        Value::Int(0),
        Value::Int(255),
        Value::Int(256),
        Value::Int(-1),
        Value::Int(i64::MIN),
        Value::Int(i64::MAX),
        Value::Float(4000.0),
        Value::str("Athens"),
        Value::str("Corfu"),
        Value::str("Myconos"),
        Value::str(""),
        Value::Null,
    ]
}

const MODULI: [u32; 3] = [2, 7, 1000];

fn buckets(v: &Value) -> [u32; 3] {
    MODULI.map(|m| value_bucket(v, m))
}

#[test]
fn fingerprints_reproduce_the_golden_table() {
    let dict = dict();
    let cases = cases(&dict);
    assert_eq!(cases.len(), FINGERPRINTS.len());
    for ((label, q), &want) in cases.iter().zip(&FINGERPRINTS) {
        q.validate(&dict).expect("pinned query is valid");
        assert_eq!(q.fingerprint(), want, "{label}");
    }
}

#[test]
fn value_buckets_reproduce_the_golden_table() {
    let values = values();
    assert_eq!(values.len(), BUCKETS.len());
    for (v, want) in values.iter().zip(&BUCKETS) {
        assert_eq!(&buckets(v), want, "{v}");
    }
}

/// Regenerates the [`FINGERPRINTS`] and [`BUCKETS`] literals: `cargo test -p
/// qt-query --test fingerprint_golden -- --ignored --nocapture`. Only
/// meaningful on a commit whose hasher is trusted.
#[test]
#[ignore]
fn print_golden_tables() {
    let dict = dict();
    let cases = cases(&dict);
    println!("static FINGERPRINTS: [u64; {}] = [", cases.len());
    for (label, q) in &cases {
        println!("    {:#018x}, // {label}", q.fingerprint());
    }
    println!("];");
    let values = values();
    println!("static BUCKETS: [[u32; 3]; {}] = [", values.len());
    for v in &values {
        let [a, b, c] = buckets(v);
        println!("    [{a}, {b}, {c}], // {v}");
    }
    println!("];");
}

#[rustfmt::skip]
static FINGERPRINTS: [u64; 28] = [
    0xf3f9a459c2cd3a99, // custid = 0
    0x3fb6ef13019ffc19, // custid <> 255
    0x771fca6c72eec688, // custid < 256
    0xc43ca4ade71e0bc8, // custid <= -1
    0x6a0e9101fca891a5, // custid > i64::MIN
    0xdc9a07c096f6da9a, // custid >= i64::MAX
    0xdd0a5482ad7fef33, // join custid = custid
    0xe636d3e5c9a86d20, // linenum < invid
    0xae5b19788f3a1544, // join + custid >= invid
    0x097133560d6d0c76, // ototal > 4000.0
    0x9b20c51403bf5268, // office = 'Athens'
    0x979f8089580a7d02, // office = 'Corfu'
    0xf9e7137f2cc81f71, // office = 'Myconos'
    0x4d46fef460ef61ec, // custname = ''
    0x605a40efc3fc3a94, // COUNT(*)
    0x712ae91081a92874, // COUNT(invid)
    0xef1a1326ba8753c6, // SUM(charge)
    0xfa8d9af85c98e075, // AVG(charge)
    0x0485c95b5d394ca4, // MIN(charge)
    0x850d2e7c8933a2d3, // MAX(charge)
    0xf3ea9dc109ce0053, // SUM(charge) GROUP BY office, Corfu + Myconos
    0x6267d0b5a1e1c2c3, // COUNT(*), MAX(charge) GROUP BY office, custname
    0xb9b63e81db69f542, // ORDER BY charge, custname
    0xbbd1ed9724456245, // customer partition {0}
    0x1caa73664f763e75, // orders partition {63}
    0x8ba22383bb82ae84, // orders partitions {0, 63}
    0x5318bb4ac281eaed, // orders, all 64 partitions
    0x3060c5c8eb5824a8, // orders x customer, ostatus = 'F', ORDER BY ototal
];

#[rustfmt::skip]
static BUCKETS: [[u32; 3]; 12] = [
    [1, 2, 599], // 0
    [0, 5, 648], // 255
    [0, 6, 548], // 256
    [1, 4, 311], // -1
    [1, 3, 591], // -9223372036854775808
    [1, 3, 319], // 9223372036854775807
    [1, 2, 715], // 4000.0
    [1, 2, 509], // 'Athens'
    [1, 0, 535], // 'Corfu'
    [0, 0, 316], // 'Myconos'
    [0, 2, 766], // ''
    [0, 6, 666], // NULL
];
