//! Semantic cache with view subsumption (ROADMAP item 3).
//!
//! The PR-1 offer cache keyed entries on exact [`Query::fingerprint`]
//! equality, so near-duplicate queries — the common case under
//! template-heavy, Zipf-skewed traffic — re-traded from scratch. This
//! module promotes that cache to a *semantic* index: a cached value for
//! `Q'` can serve any request `Q ⊑ Q'` found by the §3.5
//! answering-queries-using-views matcher ([`match_view`]), with the
//! caller attaching a compensation step (residual filter / re-aggregation
//! / projection) described by the returned [`ViewMatch`].
//!
//! The cache is generic over the cached value `V` so the same structure
//! backs both integration layers:
//!
//! * **seller-side** (`qt_core::seller`): `V = Vec<Offer>` — cached RFB
//!   replies, where a semantic hit derives offers for `Q` from the offers
//!   priced for `Q'`;
//! * **serving-side** (`qt_core::session`): `V = DistributedPlan` — a
//!   session-shared result cache where a semantic hit wraps the cached
//!   assembly in a compensation plan.
//!
//! ## Determinism
//!
//! All probe results are deterministic functions of the cache contents:
//! candidate enumeration walks a `BTreeMap`/`BTreeSet` index (never a
//! `HashMap` iteration order) and ties are broken by a total order
//! (exactness, residual work, benefit bits, entry key). [`SemCache::probe`]
//! takes `&self` only, so parallel seller shards may probe concurrently
//! while all mutation happens in the deterministic serial merge — the same
//! split the PR-1 cache used.
//!
//! ## Admission and eviction
//!
//! Entries carry a `benefit` — the effort the entry saves per hit (sellers
//! pass the metered offer-construction effort; the serving layer passes a
//! trading-round/message count). When a capacity is configured, a full
//! cache admits a new entry only by evicting the minimum-benefit entry,
//! and only if the newcomer's benefit is at least that minimum (ties broken
//! by insertion stamp, then key — oldest goes first). Capacity `0` means
//! unbounded, which preserves the PR-1 behaviour.

use qt_catalog::RelId;
use qt_query::views::{match_view, ViewMatch};
use qt_query::Query;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// One cached entry: the query it answers, the cached value, and the
/// admission metadata.
#[derive(Debug, Clone)]
pub struct SemEntry<V> {
    /// The query this entry answers exactly.
    pub query: Query,
    /// The cached value (offers, a plan, …).
    pub value: V,
    /// Effort saved per hit; the eviction weight.
    pub benefit: f64,
    /// Insertion order stamp (monotone per cache).
    pub stamp: u64,
    /// May this entry serve *subsuming* (non-exact) probes? Entries whose
    /// key mixes in non-query state (e.g. subcontract hint digests) answer
    /// only exact probes.
    pub subsumable: bool,
}

/// Monotone hit/miss/churn counters, surfaced by `qtsh \cache` and the
/// serving-layer outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Probes answered by an exact-key entry.
    pub hits_exact: u64,
    /// Probes answered by a subsuming entry via [`match_view`].
    pub hits_semantic: u64,
    /// Probes answered by neither.
    pub misses: u64,
    /// Entries admitted (including replacements).
    pub insertions: u64,
    /// Entries denied admission by the benefit policy.
    pub rejected: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Entries dropped by [`SemCache::invalidate_rels`] / [`SemCache::clear`].
    pub invalidated: u64,
}

impl CacheStats {
    /// Total hits, exact plus semantic.
    pub fn hits(&self) -> u64 {
        self.hits_exact + self.hits_semantic
    }

    /// Total probes recorded.
    pub fn probes(&self) -> u64 {
        self.hits() + self.misses
    }

    /// Hit rate in `[0, 1]`; `0` when nothing was probed.
    pub fn hit_rate(&self) -> f64 {
        if self.probes() == 0 {
            0.0
        } else {
            self.hits() as f64 / self.probes() as f64
        }
    }

    /// Fold another stats block into this one (for federation-wide totals).
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits_exact += other.hits_exact;
        self.hits_semantic += other.hits_semantic;
        self.misses += other.misses;
        self.insertions += other.insertions;
        self.rejected += other.rejected;
        self.evictions += other.evictions;
        self.invalidated += other.invalidated;
    }
}

/// Result of a [`SemCache::probe`].
#[derive(Debug, Clone)]
pub enum Probe {
    /// The key itself is cached: the value answers the query verbatim.
    Exact,
    /// No exact entry, but subsuming candidates exist — ranked best-first.
    /// Each carries the entry key and the [`ViewMatch`] describing the
    /// compensation the caller must apply.
    Semantic(Vec<(u64, ViewMatch)>),
    /// Nothing applicable.
    Miss,
}

/// A semantic, subsumption-aware cache from query keys to values.
///
/// Probing is read-only and deterministic; all mutation (insertion,
/// eviction, invalidation, stats) happens through `&mut self` so callers
/// can keep it in their serial merge phase.
#[derive(Debug, Clone)]
pub struct SemCache<V> {
    entries: HashMap<u64, SemEntry<V>>,
    /// Inverted index: sorted relation-id set → entry keys over it. The
    /// matcher requires equal `FROM` lists, so only the bucket of the
    /// probe's own relation set can contain candidates; invalidation by
    /// mutated relation scans bucket keys, not entries.
    by_rels: BTreeMap<Vec<RelId>, BTreeSet<u64>>,
    /// Max entries; `0` = unbounded.
    capacity: usize,
    /// When false, probes never consult the matcher regardless of the
    /// caller's flag — the exact-fingerprint baseline the experiments
    /// compare the semantic cache against.
    semantic: bool,
    /// Next insertion stamp.
    clock: u64,
    stats: CacheStats,
}

impl<V> Default for SemCache<V> {
    fn default() -> Self {
        SemCache::new(0)
    }
}

impl<V> SemCache<V> {
    /// An empty cache holding at most `capacity` entries (`0` = unbounded).
    pub fn new(capacity: usize) -> Self {
        SemCache {
            entries: HashMap::new(),
            by_rels: BTreeMap::new(),
            capacity,
            semantic: true,
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// A cache that only ever hits on exact fingerprints (the PR-1
    /// behaviour): the baseline arm of the semantic-cache experiments.
    pub fn exact_only(capacity: usize) -> Self {
        SemCache {
            semantic: false,
            ..SemCache::new(capacity)
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The counters so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The entry stored under `key`, if any.
    pub fn get(&self, key: u64) -> Option<&SemEntry<V>> {
        self.entries.get(&key)
    }

    fn rels_of(query: &Query) -> Vec<RelId> {
        // BTreeMap keys iterate sorted, so this vec is canonical.
        query.rel_ids().collect()
    }

    /// Look up `key` / `query`. Read-only — record the outcome afterwards
    /// with [`SemCache::record`] from the serial phase.
    ///
    /// With `semantic` false this degrades to the PR-1 exact probe. With it
    /// true, a key miss falls back to the §3.5 matcher over the entries
    /// sharing the query's relation set, returning all candidates ranked:
    /// exact rewritings first, then fewest residual steps, then highest
    /// benefit, then smallest key. Callers take the first candidate they
    /// can actually compensate for.
    pub fn probe(&self, key: u64, query: &Query, semantic: bool) -> Probe {
        if self.entries.contains_key(&key) {
            return Probe::Exact;
        }
        if !semantic || !self.semantic {
            return Probe::Miss;
        }
        let Some(bucket) = self.by_rels.get(&Self::rels_of(query)) else {
            return Probe::Miss;
        };
        let mut candidates: Vec<(u64, ViewMatch)> = Vec::new();
        for &k in bucket {
            let e = &self.entries[&k];
            if !e.subsumable {
                continue;
            }
            if let Some(m) = match_view(&e.query, query) {
                candidates.push((k, m));
            }
        }
        if candidates.is_empty() {
            return Probe::Miss;
        }
        let weight = |k: u64, m: &ViewMatch| {
            let work = m.residual_predicates.len() + usize::from(m.needs_reaggregation);
            let benefit = self.entries[&k].benefit;
            // Sort ascending: exact first, least residual work, highest
            // benefit, smallest key.
            (
                u8::from(!m.exact),
                work,
                std::cmp::Reverse(FloatOrd(benefit)),
                k,
            )
        };
        candidates.sort_by_key(|a| weight(a.0, &a.1));
        Probe::Semantic(candidates)
    }

    /// Record a probe outcome in the counters.
    pub fn record(&mut self, outcome: ProbeOutcome) {
        match outcome {
            ProbeOutcome::HitExact => self.stats.hits_exact += 1,
            ProbeOutcome::HitSemantic => self.stats.hits_semantic += 1,
            ProbeOutcome::Miss => self.stats.misses += 1,
        }
    }

    /// Insert `value` for `query` under `key`, evicting per the benefit
    /// policy if at capacity. Returns `false` when the policy denies
    /// admission (cache full of strictly more beneficial entries).
    ///
    /// Entries whose `key` is exactly `query.fingerprint()` may serve
    /// subsuming probes; entries under derived keys (hint digests) answer
    /// only exact probes.
    pub fn insert(&mut self, key: u64, query: Query, value: V, benefit: f64) -> bool {
        let fingerprint = query.fingerprint();
        self.insert_fingerprinted(key, fingerprint, query, value, benefit)
    }

    /// [`insert`](Self::insert) for a caller that already holds
    /// `fingerprint == query.fingerprint()` — sellers derive `key` from it.
    pub fn insert_fingerprinted(
        &mut self,
        key: u64,
        fingerprint: u64,
        query: Query,
        value: V,
        benefit: f64,
    ) -> bool {
        debug_assert_eq!(fingerprint, query.fingerprint());
        let replacing = self.entries.contains_key(&key);
        if !replacing && self.capacity > 0 && self.entries.len() >= self.capacity {
            // Victim: minimum (benefit, stamp, key) — the least valuable,
            // oldest entry. Deterministic: the scan order doesn't matter
            // because the ordering is total.
            let victim = self
                .entries
                .iter()
                .map(|(&k, e)| (FloatOrd(e.benefit), e.stamp, k))
                .min()
                .expect("capacity > 0 and cache full");
            if FloatOrd(benefit) < victim.0 {
                self.stats.rejected += 1;
                return false;
            }
            self.remove_key(victim.2);
            self.stats.evictions += 1;
        }
        if replacing {
            self.remove_key(key);
        }
        let subsumable = key == fingerprint;
        let rels = Self::rels_of(&query);
        self.by_rels.entry(rels).or_default().insert(key);
        let stamp = self.clock;
        self.clock += 1;
        self.entries.insert(
            key,
            SemEntry {
                query,
                value,
                benefit,
                stamp,
                subsumable,
            },
        );
        self.stats.insertions += 1;
        true
    }

    fn remove_key(&mut self, key: u64) -> Option<SemEntry<V>> {
        let e = self.entries.remove(&key)?;
        let rels = Self::rels_of(&e.query);
        if let Some(bucket) = self.by_rels.get_mut(&rels) {
            bucket.remove(&key);
            if bucket.is_empty() {
                self.by_rels.remove(&rels);
            }
        }
        Some(e)
    }

    /// Drop every entry whose relation set intersects `rels`; returns how
    /// many were dropped. This is the *selective* invalidation hook: an
    /// award or view/resource/stats mutation touching relation `R` only
    /// stales entries reading `R` — unrelated entries survive.
    pub fn invalidate_rels(&mut self, rels: &BTreeSet<RelId>) -> usize {
        let keys: Vec<u64> = self
            .by_rels
            .iter()
            .filter(|(bucket_rels, _)| bucket_rels.iter().any(|r| rels.contains(r)))
            .flat_map(|(_, keys)| keys.iter().copied())
            .collect();
        for k in &keys {
            self.remove_key(*k);
        }
        self.stats.invalidated += keys.len() as u64;
        keys.len()
    }

    /// Drop everything; returns how many entries were dropped.
    pub fn clear(&mut self) -> usize {
        let n = self.entries.len();
        self.entries.clear();
        self.by_rels.clear();
        self.stats.invalidated += n as u64;
        n
    }
}

/// What a probe turned out to be, for [`SemCache::record`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeOutcome {
    /// Exact-key hit.
    HitExact,
    /// Subsumption hit.
    HitSemantic,
    /// Miss.
    Miss,
}

/// Total order over non-NaN f64 benefits (`total_cmp` wrapper).
#[derive(Debug, Clone, Copy, PartialEq)]
struct FloatOrd(f64);

impl Eq for FloatOrd {}

impl PartialOrd for FloatOrd {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for FloatOrd {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qt_catalog::{AttrType, CatalogBuilder, PartitionStats, Partitioning, RelationSchema};
    use qt_catalog::{NodeId, PartId, RelId};
    use qt_query::predicate::{Col, CompOp, Predicate};
    use qt_query::query::SelectItem;

    fn dict() -> std::sync::Arc<qt_catalog::SchemaDict> {
        let mut b = CatalogBuilder::new();
        for name in ["alpha", "beta"] {
            let r = b.add_relation(
                RelationSchema::new(name, vec![("id", AttrType::Int), ("v", AttrType::Int)]),
                Partitioning::Single,
            );
            b.set_stats(
                PartId::new(r, 0),
                PartitionStats::synthetic(100, &[100, 10]),
            );
            b.place(PartId::new(r, 0), NodeId(0));
        }
        b.build().dict
    }

    fn wide(rel: RelId) -> Query {
        Query::over_full(&dict(), [rel]).with_select(vec![
            SelectItem::Col(Col::new(rel, 0)),
            SelectItem::Col(Col::new(rel, 1)),
        ])
    }

    fn narrow(rel: RelId, cut: i64) -> Query {
        Query::over_full(&dict(), [rel])
            .with_predicates(vec![Predicate::with_const(
                Col::new(rel, 0),
                CompOp::Gt,
                cut,
            )])
            .with_select(vec![SelectItem::Col(Col::new(rel, 1))])
    }

    #[test]
    fn exact_probe_hits_only_same_key() {
        let mut c: SemCache<u32> = SemCache::new(0);
        let q = wide(RelId(0));
        assert!(c.insert(q.fingerprint(), q.clone(), 7, 1.0));
        assert!(matches!(c.probe(q.fingerprint(), &q, false), Probe::Exact));
        let other = narrow(RelId(0), 5);
        assert!(matches!(
            c.probe(other.fingerprint(), &other, false),
            Probe::Miss
        ));
    }

    #[test]
    fn semantic_probe_finds_subsuming_entry() {
        let mut c: SemCache<u32> = SemCache::new(0);
        let q = wide(RelId(0));
        c.insert(q.fingerprint(), q.clone(), 7, 1.0);
        let sub = narrow(RelId(0), 5);
        match c.probe(sub.fingerprint(), &sub, true) {
            Probe::Semantic(cands) => {
                assert_eq!(cands.len(), 1);
                assert_eq!(cands[0].0, q.fingerprint());
                assert_eq!(cands[0].1.residual_predicates.len(), 1);
            }
            p => panic!("expected semantic hit, got {p:?}"),
        }
    }

    #[test]
    fn unrelated_relation_set_never_matches() {
        let mut c: SemCache<u32> = SemCache::new(0);
        let q = wide(RelId(0));
        c.insert(q.fingerprint(), q, 7, 1.0);
        let sub = narrow(RelId(1), 5);
        assert!(matches!(
            c.probe(sub.fingerprint(), &sub, true),
            Probe::Miss
        ));
    }

    #[test]
    fn hint_keyed_entries_serve_only_exact_probes() {
        let mut c: SemCache<u32> = SemCache::new(0);
        let q = wide(RelId(0));
        let hinted_key = q.fingerprint() ^ 0xdead_beef;
        c.insert(hinted_key, q.clone(), 7, 1.0);
        assert!(matches!(c.probe(hinted_key, &q, true), Probe::Exact));
        let sub = narrow(RelId(0), 5);
        assert!(matches!(
            c.probe(sub.fingerprint(), &sub, true),
            Probe::Miss
        ));
    }

    #[test]
    fn only_fingerprint_keyed_entries_are_subsumable() {
        let q = wide(RelId(0));
        let fp = q.fingerprint();
        let hinted = fp ^ 0xdead_beef;
        let mut c: SemCache<u32> = SemCache::new(0);
        c.insert(fp, q.clone(), 1, 1.0);
        c.insert(hinted, q.clone(), 2, 1.0);
        assert!(c.get(fp).unwrap().subsumable);
        assert!(!c.get(hinted).unwrap().subsumable);
        // The same through the insertion that is handed the fingerprint.
        let mut c: SemCache<u32> = SemCache::new(0);
        c.insert_fingerprinted(fp, fp, q.clone(), 1, 1.0);
        c.insert_fingerprinted(hinted, fp, q, 2, 1.0);
        assert!(c.get(fp).unwrap().subsumable);
        assert!(!c.get(hinted).unwrap().subsumable);
    }

    #[test]
    fn ranking_prefers_exact_then_least_residual_work() {
        let mut c: SemCache<u32> = SemCache::new(0);
        let rel = RelId(0);
        let wide_q = wide(rel);
        // A closer superset: already enforces id > 3, so serving id > 5
        // leaves the same residual count — but an *exact* entry for the
        // probe query itself must outrank both.
        let closer = Query::over_full(&dict(), [rel])
            .with_predicates(vec![Predicate::with_const(
                Col::new(rel, 0),
                CompOp::Gt,
                3i64,
            )])
            .with_select(vec![
                SelectItem::Col(Col::new(rel, 0)),
                SelectItem::Col(Col::new(rel, 1)),
            ]);
        c.insert(wide_q.fingerprint(), wide_q.clone(), 1, 1.0);
        c.insert(closer.fingerprint(), closer.clone(), 2, 9.0);
        let sub = narrow(rel, 5);
        match c.probe(sub.fingerprint(), &sub, true) {
            Probe::Semantic(cands) => {
                assert_eq!(cands.len(), 2);
                // Equal residual work (1 residual each) → higher benefit wins.
                assert_eq!(cands[0].0, closer.fingerprint());
            }
            p => panic!("expected semantic candidates, got {p:?}"),
        }
    }

    #[test]
    fn invalidate_rels_is_selective() {
        let mut c: SemCache<u32> = SemCache::new(0);
        let a = wide(RelId(0));
        let b = wide(RelId(1));
        c.insert(a.fingerprint(), a.clone(), 1, 1.0);
        c.insert(b.fingerprint(), b.clone(), 2, 1.0);
        let dropped = c.invalidate_rels(&BTreeSet::from([RelId(0)]));
        assert_eq!(dropped, 1);
        assert!(matches!(c.probe(a.fingerprint(), &a, false), Probe::Miss));
        assert!(matches!(c.probe(b.fingerprint(), &b, false), Probe::Exact));
        assert_eq!(c.stats().invalidated, 1);
    }

    #[test]
    fn capacity_evicts_minimum_benefit_and_rejects_worse() {
        let mut c: SemCache<u32> = SemCache::new(2);
        let a = wide(RelId(0));
        let b = wide(RelId(1));
        let s = narrow(RelId(0), 5);
        assert!(c.insert(a.fingerprint(), a.clone(), 1, 5.0));
        assert!(c.insert(b.fingerprint(), b.clone(), 2, 1.0));
        // Worse than both → rejected.
        assert!(!c.insert(s.fingerprint(), s.clone(), 3, 0.5));
        assert_eq!(c.stats().rejected, 1);
        // Better than the minimum → evicts b (benefit 1.0).
        assert!(c.insert(s.fingerprint(), s.clone(), 3, 2.0));
        assert_eq!(c.len(), 2);
        assert!(matches!(c.probe(b.fingerprint(), &b, false), Probe::Miss));
        assert!(matches!(c.probe(a.fingerprint(), &a, false), Probe::Exact));
        assert_eq!(c.stats().evictions, 1);
        // Replacing an existing key never needs an eviction.
        assert!(c.insert(a.fingerprint(), a.clone(), 9, 6.0));
        assert_eq!(c.get(a.fingerprint()).unwrap().value, 9);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn stats_record_and_merge() {
        let mut c: SemCache<u32> = SemCache::new(0);
        c.record(ProbeOutcome::HitExact);
        c.record(ProbeOutcome::HitSemantic);
        c.record(ProbeOutcome::Miss);
        assert_eq!(c.stats().hits(), 2);
        assert_eq!(c.stats().probes(), 3);
        let mut total = CacheStats::default();
        total.merge(c.stats());
        total.merge(c.stats());
        assert_eq!(total.hits_semantic, 2);
        assert!((total.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }
}
