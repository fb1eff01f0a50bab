//! Seeded input generation. Everything the program under test receives is
//! derived here (or in `qt-workload`) from `--seed`; nothing is read from
//! the environment.

use qt_catalog::SchemaDict;
use qt_query::Query;
use qt_workload::{gen_join_query_with_cut, QueryShape};
use std::collections::BTreeSet;
use std::ops::RangeInclusive;

/// SplitMix64: the benchmark's own generator, so the streams do not shift
/// when the workspace's `rand` stand-in changes.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, (self.next_u64() % (i as u64 + 1)) as usize);
        }
    }
}

/// Derive an independent sub-seed for stream `stream` of run seed `seed`.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    SplitMix64(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f)).next_u64()
}

const SHAPES: [QueryShape; 3] = [QueryShape::Chain, QueryShape::Star, QueryShape::Cycle];

/// Selection cuts on `r0.b` (domain `0..100`) that keep between 1% and 99%.
const CUTS: i64 = 99;

/// `n` queries with pairwise distinct fingerprints over the synthetic schema
/// `r{i}(a, b, c)`: query `i` takes the `i`-th combination of shape × number
/// of relations × aggregated-or-not in a fixed rotation — so every seed has
/// the same share of cheap and expensive joins — and the next selection cut
/// from that combination's own seeded shuffle of `1..=99`.
pub fn distinct_queries(
    dict: &SchemaDict,
    rels: RangeInclusive<usize>,
    n: usize,
    seed: u64,
) -> Vec<Query> {
    let mut combos = Vec::new();
    for nrels in rels {
        for shape in SHAPES {
            // Two relations join one way only: star and cycle are the chain.
            if nrels == 2 && shape != QueryShape::Chain {
                continue;
            }
            for aggregate in [false, true] {
                combos.push((shape, nrels, aggregate));
            }
        }
    }
    assert!(
        n <= combos.len() * CUTS as usize,
        "query space too small for {n} distinct queries"
    );
    let mut rng = SplitMix64(seed);
    let cuts: Vec<Vec<i64>> = combos
        .iter()
        .map(|_| {
            let mut c: Vec<i64> = (1..=CUTS).collect();
            rng.shuffle(&mut c);
            c
        })
        .collect();
    let out: Vec<Query> = (0..n)
        .map(|i| {
            let (shape, nrels, aggregate) = combos[i % combos.len()];
            let cut = cuts[i % combos.len()][i / combos.len()];
            gen_join_query_with_cut(dict, shape, nrels, aggregate, cut)
        })
        .collect();
    let prints: BTreeSet<u64> = out.iter().map(Query::fingerprint).collect();
    assert_eq!(prints.len(), n, "generated queries must be distinct");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qt_workload::{build_federation, FederationSpec};

    #[test]
    fn streams_are_distinct_and_seed_deterministic() {
        let fed = build_federation(&FederationSpec {
            relations: 6,
            ..FederationSpec::default()
        });
        let dict = &fed.catalog.dict;
        let a = distinct_queries(dict, 2..=6, 2000, 11);
        let b = distinct_queries(dict, 2..=6, 2000, 11);
        let c = distinct_queries(dict, 2..=6, 2000, 12);
        assert_eq!(a, b, "same seed, same stream");
        assert_ne!(a, c, "another seed, another stream");
        let prints: BTreeSet<u64> = a.iter().map(Query::fingerprint).collect();
        assert_eq!(prints.len(), 2000);
        // The rotation fixes the size mix whatever the seed: 6 of the 26
        // combinations join six relations.
        for s in [&a, &c] {
            let six = s.iter().filter(|q| q.num_relations() == 6).count();
            assert!((460..=463).contains(&six), "{six} six-relation queries");
        }
    }

    #[test]
    fn sub_seeds_differ_per_stream() {
        assert_ne!(sub_seed(11, 1), sub_seed(11, 2));
        assert_ne!(sub_seed(11, 1), sub_seed(12, 1));
    }
}
