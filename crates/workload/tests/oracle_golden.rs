//! The brute-force answer oracle, `qt_exec::evaluate_query`, pinned to a
//! golden table.
//!
//! Every row-level correctness check in the workspace compares against the
//! oracle, so nothing else notices when the oracle itself drifts. [`GOLDEN`]
//! holds, per case, the number of rows and an FNV-1a fold of their `Debug`
//! rendering *in output order* (or of the error, for a store that lacks a
//! partition). It was captured from the cross-product evaluator; run the
//! ignored `print_golden_table` test to regenerate the literal. A reworked
//! oracle must return the same rows in the same order and fail with the
//! same error.
//!
//! Cases: seeded synthetic joins (chain, star and cycle over 2–4
//! relations, half aggregated) against the whole federation and against
//! one node's store; the TPC-H mix at 400 orders; the telecom mix and a
//! seeded telecom template mix (residual filters, `ORDER BY`, rollups).

use qt_catalog::NodeId;
use qt_exec::{evaluate_query, DataStore, ExecError, Table};
use qt_query::Query;
use qt_workload::{
    build_federation, gen_join_query, telecom_federation, telecom_mix, template_mix,
    tpch_federation, tpch_mix, FederationSpec, QueryShape, TelecomSpec, TpchSpec,
};

/// Seeded synthetic federations.
const SYNTHETIC: u64 = 24;

/// `[rows (u64::MAX for an error), fnv of the rows' or the error's Debug]`.
type Row = [u64; 2];

fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn row(result: &Result<Table, ExecError>) -> Row {
    match result {
        Ok(rows) => [rows.len() as u64, fnv(&format!("{rows:?}"))],
        Err(e) => [u64::MAX, fnv(&format!("{e:?}"))],
    }
}

fn union(stores: &std::collections::BTreeMap<NodeId, DataStore>) -> DataStore {
    let mut all = DataStore::new();
    for s in stores.values() {
        all.merge_from(s);
    }
    all
}

/// Every case's row, in table order.
fn rows() -> Vec<Row> {
    let mut out = Vec::new();
    for i in 0..SYNTHETIC {
        let fed = build_federation(&FederationSpec {
            nodes: 4,
            relations: 4,
            partitions_per_relation: 2,
            replication: 1,
            rows_per_partition: 16,
            scale: 1,
            seed: i,
            with_data: true,
            speed_spread: 1.0,
            data_skew: 0.0,
        });
        let shape = [QueryShape::Chain, QueryShape::Star, QueryShape::Cycle][(i % 3) as usize];
        let rels = 2 + (i / 3 % 3) as usize;
        let q: Query = gen_join_query(&fed.catalog.dict, shape, rels, i % 2 == 0, i);
        out.push(row(&evaluate_query(&q, &fed.union_store())));
        let one = fed.stores.values().nth(i as usize % fed.stores.len());
        let one = one.expect("a data-holding node");
        out.push(row(&evaluate_query(&q, one)));
    }
    let (cat, stores, _) = tpch_federation(&TpchSpec {
        nodes: 8,
        orders: 400,
        ..TpchSpec::default()
    });
    let all = union(&stores);
    for q in tpch_mix(&cat.dict) {
        out.push(row(&evaluate_query(&q, &all)));
    }
    let (cat, stores) = telecom_federation(&TelecomSpec {
        offices: 4,
        invoice_replicas: 2,
        ..TelecomSpec::default()
    });
    let all = union(&stores);
    for q in telecom_mix(&cat.dict)
        .into_iter()
        .chain(template_mix(&cat.dict, 12, 5))
    {
        out.push(row(&evaluate_query(&q, &all)));
    }
    out
}

#[test]
fn oracle_reproduces_the_golden_table() {
    let got = rows();
    assert_eq!(got.len(), GOLDEN.len());
    for (i, (g, want)) in got.iter().zip(&GOLDEN).enumerate() {
        assert_eq!(g, want, "case {i}");
    }
}

/// Regenerates the [`GOLDEN`] literal: `cargo test -p qt-workload --test
/// oracle_golden -- --ignored --nocapture`. Only meaningful on a commit whose
/// oracle is trusted.
#[test]
#[ignore]
fn print_golden_table() {
    let rows = rows();
    println!("static GOLDEN: [Row; {}] = [", rows.len());
    for (i, r) in rows.iter().enumerate() {
        println!("    [{:#x}, {:#x}], // {i}", r[0], r[1]);
    }
    println!("];");
}

#[rustfmt::skip]
static GOLDEN: [Row; 67] = [
    [0xd, 0xa529caf0bcd8b276], // 0
    [0xffffffffffffffff, 0xcf448f6a842fc0f3], // 1
    [0x21, 0x54570a6851506e93], // 2
    [0xffffffffffffffff, 0xcf448f6a842fc0f3], // 3
    [0x3, 0x51acddec00dea053], // 4
    [0xffffffffffffffff, 0x2cfadd622c04230e], // 5
    [0x7, 0x155ca1959256c70], // 6
    [0xffffffffffffffff, 0xcf448f6a842fc0f3], // 7
    [0x5, 0x115f0fa4672b4aef], // 8
    [0xffffffffffffffff, 0xcf448f6a842fc0f3], // 9
    [0x0, 0x9612b07b5ecb5a5], // 10
    [0xffffffffffffffff, 0xcf448f6a842fc0f3], // 11
    [0x4, 0x586b9c867f41d91a], // 12
    [0xffffffffffffffff, 0x2cfadd622c04230e], // 13
    [0x5, 0x26f187d936969c70], // 14
    [0xffffffffffffffff, 0x2cfadd622c04230e], // 15
    [0x0, 0x9612b07b5ecb5a5], // 16
    [0xffffffffffffffff, 0xcf448f6a842fc0f3], // 17
    [0x4, 0xd588273ff8fa0c52], // 18
    [0xffffffffffffffff, 0xcf448f6a842fc0f3], // 19
    [0x13, 0xe7c01063c5272e47], // 20
    [0xffffffffffffffff, 0xcf448f6a842fc0f3], // 21
    [0x1d, 0x6e775dfc448624f4], // 22
    [0xffffffffffffffff, 0xcf448f6a842fc0f3], // 23
    [0x7, 0x83f42e183119396d], // 24
    [0xffffffffffffffff, 0xcf448f6a842fc0f3], // 25
    [0x1b, 0xf9317e325e9af8ad], // 26
    [0xffffffffffffffff, 0xcf448f6a842fc0f3], // 27
    [0x0, 0x9612b07b5ecb5a5], // 28
    [0xffffffffffffffff, 0xcf448f6a842fc0f3], // 29
    [0x5, 0x531d0e6598516f01], // 30
    [0xffffffffffffffff, 0xcf448f6a842fc0f3], // 31
    [0x2, 0xcf94d785d8f9d84a], // 32
    [0xffffffffffffffff, 0xcf448f6a842fc0f3], // 33
    [0x0, 0x9612b07b5ecb5a5], // 34
    [0xffffffffffffffff, 0x6cbed2b3813d6eb4], // 35
    [0xf, 0x755133b463d6e521], // 36
    [0xffffffffffffffff, 0xcf448f6a842fc0f3], // 37
    [0x16, 0xaa0ee44fcc364985], // 38
    [0xffffffffffffffff, 0xcf448f6a842fc0f3], // 39
    [0x6, 0x9dcf0d53b37c3029], // 40
    [0xffffffffffffffff, 0x6cbed2b3813d6eb4], // 41
    [0xe, 0xc7c2ac39d0fad913], // 42
    [0xffffffffffffffff, 0xcf448f6a842fc0f3], // 43
    [0x7, 0x53658c6f5fac34db], // 44
    [0xffffffffffffffff, 0xcf448f6a842fc0f3], // 45
    [0x0, 0x9612b07b5ecb5a5], // 46
    [0xffffffffffffffff, 0xcf448f6a842fc0f3], // 47
    [0x9, 0xca49879f896f4a06], // 48
    [0x50, 0x82f66f44d5f8a6b9], // 49
    [0x8, 0xad5bbc3dbc99b684], // 50
    [0x4, 0x4db99c2e24688746], // 51
    [0x50, 0x5cf0d2efb6fe0ec5], // 52
    [0x138, 0x28ab15b0e43a3ee5], // 53
    [0x140, 0xa036dfa4fab6a9f5], // 54
    [0xd9, 0x555104a6a8ed3f53], // 55
    [0x77, 0xda87592f98890be6], // 56
    [0x4, 0x2ccc7a162ecdbfb2], // 57
    [0x50, 0x9ffde6840c6f6961], // 58
    [0x8e, 0x9008cb362d58f42a], // 59
    [0x5c, 0x9348dae001709570], // 60
    [0x4, 0x725c6059ac1401c4], // 61
    [0x50, 0x5d3f57c4470f3ff2], // 62
    [0x25, 0xfb4aa565fd9aa4c6], // 63
    [0x2d, 0x7c14514410b46d28], // 64
    [0x4, 0x840b8089db7eb3fa], // 65
    [0x21, 0x33c024d5a64c42b2], // 66
];
