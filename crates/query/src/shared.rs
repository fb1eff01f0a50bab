//! [`SharedQuery`] — the immutable, reference-counted form of a [`Query`]
//! that offers carry.

use crate::query::Query;
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// One allocation holding a [`Query`] and, once somebody asked for it, its
/// fingerprint. Cloning bumps a reference count.
///
/// An offer's query is built once by the seller and then crosses the offer
/// cache, the reply memo, broker tiers, the buyer's pool, plans and bid
/// books; every one of those hops used to deep-copy the `BTreeMap` and four
/// `Vec`s of a `Query`, and every receiver re-hashed it. The handle is
/// read-only — there is deliberately no `DerefMut` — so the memoised
/// fingerprint cannot go stale: a changed query is a new handle
/// (`SharedQuery::from(changed)`).
#[derive(Clone)]
pub struct SharedQuery(Arc<Inner>);

struct Inner {
    query: Query,
    fingerprint: OnceLock<u64>,
}

impl SharedQuery {
    /// [`Query::fingerprint`] of the shared query, hashed at most once per
    /// allocation. Shadows the method `Deref` would otherwise reach.
    pub fn fingerprint(&self) -> u64 {
        *self
            .0
            .fingerprint
            .get_or_init(|| self.0.query.fingerprint())
    }

    /// Do both handles point at the same allocation?
    pub fn ptr_eq(a: &SharedQuery, b: &SharedQuery) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

impl From<Query> for SharedQuery {
    fn from(query: Query) -> Self {
        SharedQuery(Arc::new(Inner {
            query,
            fingerprint: OnceLock::new(),
        }))
    }
}

impl Deref for SharedQuery {
    type Target = Query;

    fn deref(&self) -> &Query {
        &self.0.query
    }
}

impl PartialEq for SharedQuery {
    fn eq(&self, other: &SharedQuery) -> bool {
        SharedQuery::ptr_eq(self, other) || **self == **other
    }
}

impl Eq for SharedQuery {}

impl PartialEq<Query> for SharedQuery {
    fn eq(&self, other: &Query) -> bool {
        **self == *other
    }
}

/// Prints exactly what the inner [`Query`] prints: plan `Debug` strings are
/// compared and hashed by the conformance suites.
impl fmt::Debug for SharedQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Col, PartSet, SelectItem};
    use qt_catalog::RelId;

    fn query(parts: PartSet) -> Query {
        Query::new([(RelId(0), parts), (RelId(1), PartSet::all(2))])
            .with_select(vec![SelectItem::Col(Col::new(RelId(0), 0))])
            .with_order_by(vec![Col::new(RelId(1), 1)])
    }

    #[test]
    fn fingerprint_is_the_querys_and_discriminates() {
        let q = query(PartSet::all(2));
        let shared = SharedQuery::from(q.clone());
        assert_eq!(shared.fingerprint(), q.fingerprint());
        assert_eq!(shared.fingerprint(), q.fingerprint(), "memo repeats");
        assert_eq!(shared.clone().fingerprint(), q.fingerprint());
        let restricted = SharedQuery::from(query(PartSet::single(0)));
        assert_ne!(shared.fingerprint(), restricted.fingerprint());
        assert_ne!(shared, restricted);
    }

    #[test]
    fn equal_but_distinct_handles_compare_equal() {
        let a = SharedQuery::from(query(PartSet::all(2)));
        let b = SharedQuery::from(query(PartSet::all(2)));
        assert!(!SharedQuery::ptr_eq(&a, &b));
        assert_eq!(a, b);
        assert!(SharedQuery::ptr_eq(&a, &a.clone()));
        assert_eq!(a, query(PartSet::all(2)));
    }

    #[test]
    fn debug_prints_the_inner_query() {
        let q = query(PartSet::single(1));
        let shared = SharedQuery::from(q.clone());
        assert_eq!(format!("{shared:?}"), format!("{q:?}"));
        assert_eq!(format!("{shared:#?}"), format!("{q:#?}"));
    }
}
