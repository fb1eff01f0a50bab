//! Sub-query derivation, pinned to the straightforward implementation.
//!
//! `Query::restrict_to_rels`, `strip_aggregation().restrict_to_rels(..)` and
//! `rewrite_for_holdings` are on every step of the trading loop, so they were
//! rewritten for speed. [`GOLDEN`] was captured from the implementations that
//! rewrite replaced (run the ignored `print_golden_table` test to regenerate
//! the literal), and there is no second implementation to compare against:
//! each row folds the [`Query::fingerprint`]s of every derived sub-query of
//! one seeded query, so a row that reproduces proves both that the derived
//! queries are structurally identical and that `fingerprint` still returns
//! the same value for the same query.

use qt_catalog::RelId;
use qt_query::{rewrite_for_holdings, AggFunc, Col, Operand, PartSet, Query, SelectItem};
use qt_workload::{
    build_federation, gen_join_query_with_cut, Federation, FederationSpec, QueryShape,
};
use std::collections::BTreeSet;

/// 3 shapes × 5 sizes (2–6 relations) × 5 `SELECT` variants.
const CASES: usize = 75;

const VARIANTS: [&str; 5] = ["plain", "sum", "order-by", "count(*)", "min+count(*)"];

/// `[restrict_to_rels fold, strip_aggregation + restrict_to_rels fold,
/// rewrite_for_holdings fold]`.
type Row = [u64; 3];

fn fold(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
}

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// 16 nodes, 6 relations × 2 partitions, 2 replicas: nodes hold one or two
/// relations each, so most rewrites drop the query's first relation.
fn federation() -> Federation {
    build_federation(&FederationSpec {
        nodes: 16,
        relations: 6,
        partitions_per_relation: 2,
        replication: 2,
        rows_per_partition: 100_000,
        scale: 1,
        seed: 42,
        with_data: false,
        speed_spread: 1.0,
        data_skew: 0.0,
    })
}

/// Case `i`: chain/star/cycle × 2–6 relations × the [`VARIANTS`]; odd cases
/// ask for one partition of `r0` only.
fn case(fed: &Federation, i: usize) -> Query {
    let shape = [QueryShape::Chain, QueryShape::Star, QueryShape::Cycle][i % 3];
    let rels = 2 + i / 3 % 5;
    let variant = i / 15;
    let cut = 10 + (i as i64 * 7) % 80;
    let dict = &fed.catalog.dict;
    let first = RelId(0);
    let last = RelId(rels as u32 - 1);
    let count_star = SelectItem::Agg {
        func: AggFunc::Count,
        arg: None,
    };
    let q = match variant {
        0 => gen_join_query_with_cut(dict, shape, rels, false, cut),
        1 => gen_join_query_with_cut(dict, shape, rels, true, cut),
        // ORDER BY columns count for `restrict_to_rels` but are dropped by
        // `strip_aggregation`; `r{last}.b` is mentioned nowhere else.
        2 => gen_join_query_with_cut(dict, shape, rels, false, cut)
            .with_order_by(vec![Col::new(last, 1), Col::new(first, 2)]),
        // COUNT(*) with `r0.a` mentioned nowhere: only `strip_aggregation`'s
        // fallback column brings it in, and on a star (no join left) a subset
        // without `r0` needs no column at all, which is `restrict_to_rels`'
        // own first-attribute fallback.
        3 => {
            let q = gen_join_query_with_cut(dict, shape, rels, false, cut);
            let first_a = Col::new(first, 0);
            let kept = q
                .predicates
                .iter()
                .filter(|p| p.left != first_a && p.right != Operand::Col(first_a))
                .cloned()
                .collect();
            q.with_predicates(kept).with_select(vec![count_star])
        }
        _ => gen_join_query_with_cut(dict, shape, rels, false, cut)
            .with_select(vec![
                SelectItem::Col(Col::new(last, 1)),
                SelectItem::Col(Col::new(first, 1)),
                SelectItem::Agg {
                    func: AggFunc::Min,
                    arg: Some(Col::new(RelId(1), 2)),
                },
                count_star,
            ])
            .with_group_by(vec![Col::new(last, 1), Col::new(first, 1)]),
    };
    q.validate(dict).expect("generated query is valid");
    if i % 2 == 1 {
        q.with_partset(first, PartSet::single((i / 2 % 2) as u16))
    } else {
        q
    }
}

fn row(fed: &Federation, q: &Query) -> Row {
    let rels: Vec<RelId> = q.rel_ids().collect();
    let core = q.strip_aggregation();
    let mut restricted = FNV_BASIS;
    let mut stripped = FNV_BASIS;
    for mask in 1u32..1 << rels.len() {
        let subset: BTreeSet<RelId> = rels
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, &r)| r)
            .collect();
        restricted = fold(restricted, q.restrict_to_rels(&subset).fingerprint());
        stripped = fold(stripped, core.restrict_to_rels(&subset).fingerprint());
    }
    let rewritten = fed.catalog.nodes.iter().fold(FNV_BASIS, |h, &n| {
        let local = rewrite_for_holdings(q, &fed.catalog.holdings_of(n));
        fold(h, local.map_or(0, |l| l.fingerprint()))
    });
    [restricted, stripped, rewritten]
}

#[test]
fn derived_sub_queries_reproduce_the_golden_table() {
    let fed = federation();
    assert_eq!(fed.catalog.nodes.len(), 16);
    for (i, want) in GOLDEN.iter().enumerate() {
        let q = case(&fed, i);
        assert_eq!(&row(&fed, &q), want, "case {i} ({})", VARIANTS[i / 15]);
    }
}

/// Regenerates the [`GOLDEN`] literal: `cargo test -p qt-core --test
/// restrict_golden -- --ignored --nocapture`. Only meaningful on a commit
/// whose restriction and rewrite are trusted.
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
    [0x4862a8b2b0f8673e, 0x4862a8b2b0f8673e, 0x2b7369796f927aad], // 0 plain x2
    [0x637b65aa45df4446, 0x637b65aa45df4446, 0xcf1e2d84dc621183], // 1 plain x2
    [0x182096b8eb60668e, 0x182096b8eb60668e, 0x3deb9c870e4492fd], // 2 plain x2
    [0x6fcc0b3cb7e08d40, 0x6fcc0b3cb7e08d40, 0xa5c4d436d27a1f6a], // 3 plain x3
    [0x1c63ddf5878b24a8, 0x1c63ddf5878b24a8, 0x7f58ae50960cbb60], // 4 plain x3
    [0x1607faf82def755c, 0x1607faf82def755c, 0x2ed5e69b666a93e8], // 5 plain x3
    [0xc7fc6c8fc016b988, 0xc7fc6c8fc016b988, 0xda82c05ba29de80c], // 6 plain x4
    [0x83738209a2129c22, 0x83738209a2129c22, 0x6729fe07fa978024], // 7 plain x4
    [0x12b4b96e36d301a6, 0x12b4b96e36d301a6, 0x259a8182c9579ea1], // 8 plain x4
    [0xbdf754439987099e, 0xbdf754439987099e, 0x5aa65fe2e622d2ea], // 9 plain x5
    [0xb068cca292c65b12, 0xb068cca292c65b12, 0x154546882636cb11], // 10 plain x5
    [0x64e0357ea1e1050e, 0x64e0357ea1e1050e, 0xc06dbb696f43e0ff], // 11 plain x5
    [0x8e8d6127ed2646c2, 0x8e8d6127ed2646c2, 0x38253984631ecc51], // 12 plain x6
    [0x238b6df4edebce1a, 0x238b6df4edebce1a, 0x3eb9792dc5bfcb32], // 13 plain x6
    [0x15530fad5c717d7a, 0x15530fad5c717d7a, 0xeb14c8009d294ac7], // 14 plain x6
    [0x919a656632d58d8a, 0x919a656632d58d8a, 0x4bd60c97471eb21d], // 15 sum x2
    [0xe8ce17b2cd18d1be, 0xe8ce17b2cd18d1be, 0x215cb0efe1ed3f6d], // 16 sum x2
    [0x24ddce10d1b7cd06, 0x24ddce10d1b7cd06, 0x797ac1cfa5ba2083], // 17 sum x2
    [0xd8d54eb40c136c14, 0xd8d54eb40c136c14, 0x4d0f34f92d71965a], // 18 sum x3
    [0xbaf0cc39cf67ba70, 0xbaf0cc39cf67ba70, 0xccfbf97a9c325f84], // 19 sum x3
    [0x5804b8dd29180490, 0x5804b8dd29180490, 0x4f72370847dcb4ce], // 20 sum x3
    [0x3bea90eb8407b898, 0x3bea90eb8407b898, 0x9a10cba8e3a14bae], // 21 sum x4
    [0x39731c198b609492, 0x39731c198b609492, 0x42090faefb3b2dfc], // 22 sum x4
    [0xe56b967fcb344a, 0xe56b967fcb344a, 0x38c557364ec817a1], // 23 sum x4
    [0x4916be560d17f58e, 0x4916be560d17f58e, 0xa17c01736a0f2070], // 24 sum x5
    [0xd5ae6860e23c531a, 0xd5ae6860e23c531a, 0xa8532cdd46d77523], // 25 sum x5
    [0xc48e74110514479a, 0xc48e74110514479a, 0x97e023f7ff6d2893], // 26 sum x5
    [0x71f3d3bd4f764f0a, 0x71f3d3bd4f764f0a, 0x662e3674b6fb1745], // 27 sum x6
    [0x651941a7196d9112, 0x651941a7196d9112, 0x90259db377f5ff8c], // 28 sum x6
    [0x538c9806f59030a6, 0x538c9806f59030a6, 0x3368d7afd3d2c04d], // 29 sum x6
    [0x62b30b9d3398c332, 0xb36f2502158f7bc6, 0x64ca736044c0e495], // 30 order-by x2
    [0x20ad31ac91b606d6, 0xf96ac6b7c5b2854a, 0xa7fc8e6d2d6d7f1d], // 31 order-by x2
    [0x27a2c0ce7fbfc0b6, 0xd4ed06bdc23a46be, 0x2f2ec21d95aeabad], // 32 order-by x2
    [0xa9c879434b3658dc, 0x163eb41d484a2da8, 0x560bd409737676a8], // 33 order-by x3
    [0x7ace6383a7d112d8, 0xb6d0bf16483d370, 0xcce5bdf0ba602334], // 34 order-by x3
    [0xd2137d94e6f676d4, 0x25624fa311574a5c, 0xb1953dc07db0dc8a], // 35 order-by x3
    [0x7a0458dfe82ed3d8, 0xfb1fab4085acac68, 0x3d1e69ebbf1eb57c], // 36 order-by x4
    [0x1ac525f5c600c446, 0x65e8570d7201a256, 0x513bb052a71d7c5e], // 37 order-by x4
    [0xd8ca45ebccccbc92, 0xab03f0e9c42c5836, 0x4adba2762a54c341], // 38 order-by x4
    [0x35741f77c5c39ea, 0x3520cfa808aca1a, 0x435ff6398399345c], // 39 order-by x5
    [0x3b99944471dc78be, 0x4036fd05922425aa, 0x73ba38774e9dab01], // 40 order-by x5
    [0xf27b8394490d620a, 0xa30b2ec6596e0eda, 0xbd1ee20842ab87fd], // 41 order-by x5
    [0x71d109d9985bc60a, 0x8fdf1a839c4b024a, 0xaea116eb0a42d069], // 42 order-by x6
    [0x137a4b2c833cfe4a, 0x78990ebb6e545b82, 0x35da6b97b0e9ab0c], // 43 order-by x6
    [0xbb2e17628da5f1ae, 0xf44734f8901b1412, 0x9e4dabf4781dcf13], // 44 order-by x6
    [0xb6ac9aee4d5c6d00, 0x96d6adbd6a530ad4, 0x4cb71fe19f5d9cc3], // 45 count(*) x2
    [0xda6721c51c778aa8, 0xd6e09179efc853a4, 0x354b7941e8e2be55], // 46 count(*) x2
    [0x87df143fb0ee9238, 0xc72c28e5db1425ec, 0xedec57816f6d013d], // 47 count(*) x2
    [0x6f326e47993c11e2, 0x4826d75135e444c6, 0xd2e089c6f1b630f], // 48 count(*) x3
    [0x14f6e4f770aad3bc, 0xef1a5b204c43f200, 0x1e0465d183e54af], // 49 count(*) x3
    [0x829a012a70fbc1c, 0x6d8134bb45c1f890, 0x1845be2bd3ebcaa9], // 50 count(*) x3
    [0xf8a0d79ca6446ba6, 0x7479b63e1a880d6e, 0x93bd66a49b253c48], // 51 count(*) x4
    [0x669f5f41f3e76636, 0x85e43810511813ae, 0x21f3a8c37af01398], // 52 count(*) x4
    [0xfff50b16c2eeb2dc, 0x20ccca6b62da5334, 0xd1677f932ffdd3ad], // 53 count(*) x4
    [0x43524fc2a486add6, 0x177343d0b147ee7e, 0xd8fb206c2f9a118c], // 54 count(*) x5
    [0xfb8b04d8777b434a, 0x6203b1077cc90b72, 0x455bbac9b56655a9], // 55 count(*) x5
    [0x8c1b42476f3da5a6, 0x8024db6869268896, 0x9bbfb15af67e3a1b], // 56 count(*) x5
    [0x51a86a4180c24e1a, 0xef6d44f3a996590e, 0x58ae2f5479eadd2d], // 57 count(*) x6
    [0x66a30236cada4d72, 0xc2afd7d938e73d8a, 0x2d051d715d5be3ac], // 58 count(*) x6
    [0xee7b6e73e1c91f12, 0x10b7f16c80af3d1e, 0xe058306ab766f969], // 59 count(*) x6
    [0x1f4ea9332135bd64, 0x1f4ea9332135bd64, 0xc9bd1fb3adff52c7], // 60 min+count(*) x2
    [0xdb9cf8aa01f96070, 0xdb9cf8aa01f96070, 0x1f54b22a753c0e75], // 61 min+count(*) x2
    [0xa4bff77627c21c10, 0xa4bff77627c21c10, 0xdb4cad17c970b35f], // 62 min+count(*) x2
    [0xb4da874e94144e08, 0xb4da874e94144e08, 0xa280cc7f8a97ca7d], // 63 min+count(*) x3
    [0x4a63d6f15d36c3b4, 0x4a63d6f15d36c3b4, 0xdc2db0efdbcab6bb], // 64 min+count(*) x3
    [0xaf2c0fbbc450ecb8, 0xaf2c0fbbc450ecb8, 0xed0d137fb77b780b], // 65 min+count(*) x3
    [0x75860dfdeced0c44, 0x75860dfdeced0c44, 0xa1103d955ba38d], // 66 min+count(*) x4
    [0x60880bdb70066896, 0x60880bdb70066896, 0xa52c3446e7737345], // 67 min+count(*) x4
    [0x4df42dc2d94414e6, 0x4df42dc2d94414e6, 0x3fd82cb70039ba7d], // 68 min+count(*) x4
    [0xcfa33f6101766abe, 0xcfa33f6101766abe, 0x272ef4ac1582945e], // 69 min+count(*) x5
    [0xa61a19eb6a42cebe, 0xa61a19eb6a42cebe, 0x818a2b581e7a44c9], // 70 min+count(*) x5
    [0x39618f0a7711ec92, 0x39618f0a7711ec92, 0xd07fb5f215cf5305], // 71 min+count(*) x5
    [0x55940beea953b7a6, 0x55940beea953b7a6, 0xad20fd4abfed642d], // 72 min+count(*) x6
    [0x9429aa70a8e9deba, 0x9429aa70a8e9deba, 0x6b5c6f31db30c8ee], // 73 min+count(*) x6
    [0xd857ab8812b4dff2, 0xd857ab8812b4dff2, 0xdda4b10df702e2fd], // 74 min+count(*) x6
];
