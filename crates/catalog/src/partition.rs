//! Horizontal partitioning of relations.
//!
//! The paper's relations "may be horizontally partitioned and/or replicated
//! across the regional offices". A [`Partitioning`] describes how a
//! relation's extent is split into disjoint partitions, and each partition is
//! described by a [`Restriction`] — the predicate the seller's query-rewrite
//! algorithm (§3.4) conjoins to queries so that offers only promise data the
//! seller actually holds (`office = 'Myconos'` in the running example).

use crate::fnv::Fnv1a;
use crate::schema::RelationSchema;
use crate::value::Value;
use std::fmt;

/// A single-attribute restriction describing a horizontal partition.
///
/// Restrictions are deliberately simpler than full query predicates (those
/// live in `qt-query`): partitioning in practice is on one attribute, and
/// keeping this type closed makes disjointness/coverage reasoning exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Restriction {
    /// The whole extent (an unpartitioned relation).
    All,
    /// `attr IN (values)` — list partitioning. A single value displays as
    /// `attr = value`.
    In {
        /// Attribute index in the relation schema.
        attr: usize,
        /// Admitted values, sorted and deduplicated.
        values: Vec<Value>,
    },
    /// `lo <= attr < hi` — range partitioning. `None` bounds are open.
    Range {
        /// Attribute index in the relation schema.
        attr: usize,
        /// Inclusive lower bound.
        lo: Option<Value>,
        /// Exclusive upper bound.
        hi: Option<Value>,
    },
    /// `hash(attr) % modulus == residue` — hash partitioning.
    Hash {
        /// Attribute index in the relation schema.
        attr: usize,
        /// Number of hash buckets.
        modulus: u32,
        /// Bucket selected by this restriction.
        residue: u32,
    },
}

/// Deterministic value hash used by hash partitioning (and by the executor's
/// repartitioning operators, so both sides agree). [`Fnv1a`] rather than a
/// fixed-seed `DefaultHasher`, whose SipHash is not stable across releases:
/// partition layouts are reproducible forever.
pub fn value_bucket(v: &Value, modulus: u32) -> u32 {
    use std::hash::{Hash, Hasher};
    let mut h = Fnv1a::default();
    v.hash(&mut h);
    (h.finish() % modulus as u64) as u32
}

impl Restriction {
    /// Does the row (as a full tuple of the relation) satisfy the restriction?
    pub fn matches_row(&self, row: &[Value]) -> bool {
        match self {
            Restriction::All => true,
            Restriction::In { attr, values } => values.contains(&row[*attr]),
            Restriction::Range { attr, lo, hi } => {
                let v = &row[*attr];
                lo.as_ref().is_none_or(|l| v >= l) && hi.as_ref().is_none_or(|h| v < h)
            }
            Restriction::Hash {
                attr,
                modulus,
                residue,
            } => value_bucket(&row[*attr], *modulus) == *residue,
        }
    }

    /// The attribute this restriction constrains, if any.
    pub fn attr(&self) -> Option<usize> {
        match self {
            Restriction::All => None,
            Restriction::In { attr, .. }
            | Restriction::Range { attr, .. }
            | Restriction::Hash { attr, .. } => Some(*attr),
        }
    }

    /// Conservative disjointness test: `true` means the two restrictions can
    /// share no row; `false` means they might overlap.
    pub fn disjoint_with(&self, other: &Restriction) -> bool {
        match (self, other) {
            (Restriction::All, _) | (_, Restriction::All) => false,
            (
                Restriction::In {
                    attr: a,
                    values: va,
                },
                Restriction::In {
                    attr: b,
                    values: vb,
                },
            ) => a == b && va.iter().all(|v| !vb.contains(v)),
            (
                Restriction::Range {
                    attr: a,
                    lo: alo,
                    hi: ahi,
                },
                Restriction::Range {
                    attr: b,
                    lo: blo,
                    hi: bhi,
                },
            ) => {
                a == b
                    && (match (ahi, blo) {
                        (Some(h), Some(l)) => h <= l,
                        _ => false,
                    } || match (bhi, alo) {
                        (Some(h), Some(l)) => h <= l,
                        _ => false,
                    })
            }
            (Restriction::In { attr: a, values }, Restriction::Range { attr: b, lo, hi })
            | (Restriction::Range { attr: b, lo, hi }, Restriction::In { attr: a, values }) => {
                a == b
                    && values.iter().all(|v| {
                        !(lo.as_ref().is_none_or(|l| v >= l) && hi.as_ref().is_none_or(|h| v < h))
                    })
            }
            (
                Restriction::Hash {
                    attr: a,
                    modulus: am,
                    residue: ar,
                },
                Restriction::Hash {
                    attr: b,
                    modulus: bm,
                    residue: br,
                },
            ) => a == b && am == bm && ar != br,
            _ => false,
        }
    }

    /// Render as a SQL-ish predicate using `schema` for attribute names.
    pub fn display_with<'a>(&'a self, schema: &'a RelationSchema) -> RestrictionDisplay<'a> {
        RestrictionDisplay { r: self, schema }
    }
}

/// Display adapter produced by [`Restriction::display_with`].
pub struct RestrictionDisplay<'a> {
    r: &'a Restriction,
    schema: &'a RelationSchema,
}

impl fmt::Display for RestrictionDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.r {
            Restriction::All => write!(f, "TRUE"),
            Restriction::In { attr, values } => {
                let name = &self.schema.attr(*attr).name;
                if values.len() == 1 {
                    write!(f, "{name} = {}", values[0])
                } else {
                    write!(f, "{name} IN (")?;
                    for (i, v) in values.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{v}")?;
                    }
                    write!(f, ")")
                }
            }
            Restriction::Range { attr, lo, hi } => {
                let name = &self.schema.attr(*attr).name;
                match (lo, hi) {
                    (Some(l), Some(h)) => write!(f, "{l} <= {name} AND {name} < {h}"),
                    (Some(l), None) => write!(f, "{name} >= {l}"),
                    (None, Some(h)) => write!(f, "{name} < {h}"),
                    (None, None) => write!(f, "TRUE"),
                }
            }
            Restriction::Hash {
                attr,
                modulus,
                residue,
            } => {
                let name = &self.schema.attr(*attr).name;
                write!(f, "hash({name}) % {modulus} = {residue}")
            }
        }
    }
}

/// How a relation's extent is split into horizontal partitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Partitioning {
    /// A single partition holding the whole extent.
    Single,
    /// List partitioning: partition `i` holds rows whose `attr` value is in
    /// `groups[i]`. Groups must be pairwise disjoint.
    List {
        /// Attribute index partitioned on.
        attr: usize,
        /// Value groups, one per partition.
        groups: Vec<Vec<Value>>,
    },
    /// Range partitioning with `bounds.len() + 1` partitions: partition 0 is
    /// `attr < bounds[0]`, partition `i` is `bounds[i-1] <= attr < bounds[i]`,
    /// the last partition is `attr >= bounds.last()`. Bounds must be strictly
    /// increasing.
    Range {
        /// Attribute index partitioned on.
        attr: usize,
        /// Strictly increasing split points.
        bounds: Vec<Value>,
    },
    /// Hash partitioning into `parts` buckets on `attr`.
    Hash {
        /// Attribute index partitioned on.
        attr: usize,
        /// Number of buckets (>= 1).
        parts: u32,
    },
}

impl Partitioning {
    /// Number of partitions this scheme defines.
    pub fn num_partitions(&self) -> u16 {
        match self {
            Partitioning::Single => 1,
            Partitioning::List { groups, .. } => groups.len() as u16,
            Partitioning::Range { bounds, .. } => (bounds.len() + 1) as u16,
            Partitioning::Hash { parts, .. } => *parts as u16,
        }
    }

    /// The [`Restriction`] describing partition `idx`.
    ///
    /// # Panics
    /// Panics if `idx >= self.num_partitions()`.
    pub fn restriction(&self, idx: u16) -> Restriction {
        assert!(idx < self.num_partitions(), "partition index out of range");
        match self {
            Partitioning::Single => Restriction::All,
            Partitioning::List { attr, groups } => Restriction::In {
                attr: *attr,
                values: groups[idx as usize].clone(),
            },
            Partitioning::Range { attr, bounds } => {
                let i = idx as usize;
                Restriction::Range {
                    attr: *attr,
                    lo: (i > 0).then(|| bounds[i - 1].clone()),
                    hi: (i < bounds.len()).then(|| bounds[i].clone()),
                }
            }
            Partitioning::Hash { attr, parts } => Restriction::Hash {
                attr: *attr,
                modulus: *parts,
                residue: idx as u32,
            },
        }
    }

    /// Which partition a full row belongs to. `None` only for list
    /// partitioning when the value is in no group.
    pub fn partition_of(&self, row: &[Value]) -> Option<u16> {
        match self {
            Partitioning::Single => Some(0),
            Partitioning::List { attr, groups } => groups
                .iter()
                .position(|g| g.contains(&row[*attr]))
                .map(|i| i as u16),
            Partitioning::Range { attr, bounds } => {
                let v = &row[*attr];
                Some(bounds.iter().position(|b| v < b).unwrap_or(bounds.len()) as u16)
            }
            Partitioning::Hash { attr, parts } => Some(value_bucket(&row[*attr], *parts) as u16),
        }
    }

    /// Validate internal invariants (disjoint list groups, increasing range
    /// bounds, nonzero hash buckets).
    pub fn validate(&self) -> Result<(), String> {
        match self {
            Partitioning::Single => Ok(()),
            Partitioning::List { groups, .. } => {
                if groups.is_empty() {
                    return Err("list partitioning needs at least one group".into());
                }
                for (i, g) in groups.iter().enumerate() {
                    if g.is_empty() {
                        return Err(format!("list group {i} is empty"));
                    }
                    for h in &groups[i + 1..] {
                        if g.iter().any(|v| h.contains(v)) {
                            return Err("list groups overlap".into());
                        }
                    }
                }
                Ok(())
            }
            Partitioning::Range { bounds, .. } => {
                if bounds.is_empty() {
                    return Err("range partitioning needs at least one bound".into());
                }
                if bounds.windows(2).any(|w| w[0] >= w[1]) {
                    return Err("range bounds must be strictly increasing".into());
                }
                Ok(())
            }
            Partitioning::Hash { parts, .. } => {
                if *parts == 0 {
                    Err("hash partitioning needs at least one bucket".into())
                } else {
                    Ok(())
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{AttrType, RelationSchema};

    fn schema() -> RelationSchema {
        RelationSchema::new(
            "customer",
            vec![("custid", AttrType::Int), ("office", AttrType::Str)],
        )
    }

    #[test]
    fn single_covers_everything() {
        let p = Partitioning::Single;
        assert_eq!(p.num_partitions(), 1);
        assert_eq!(p.restriction(0), Restriction::All);
        assert_eq!(p.partition_of(&[Value::Int(1), Value::str("x")]), Some(0));
    }

    #[test]
    fn list_partitioning_routes_rows() {
        let p = Partitioning::List {
            attr: 1,
            groups: vec![vec![Value::str("Athens")], vec![Value::str("Myconos")]],
        };
        p.validate().unwrap();
        assert_eq!(p.num_partitions(), 2);
        let athens = [Value::Int(1), Value::str("Athens")];
        let myconos = [Value::Int(2), Value::str("Myconos")];
        let corfu = [Value::Int(3), Value::str("Corfu")];
        assert_eq!(p.partition_of(&athens), Some(0));
        assert_eq!(p.partition_of(&myconos), Some(1));
        assert_eq!(p.partition_of(&corfu), None);
        assert!(p.restriction(0).matches_row(&athens));
        assert!(!p.restriction(0).matches_row(&myconos));
    }

    #[test]
    fn range_partitioning_routes_rows() {
        let p = Partitioning::Range {
            attr: 0,
            bounds: vec![Value::Int(10), Value::Int(20)],
        };
        p.validate().unwrap();
        assert_eq!(p.num_partitions(), 3);
        assert_eq!(p.partition_of(&[Value::Int(5), Value::str("")]), Some(0));
        assert_eq!(p.partition_of(&[Value::Int(10), Value::str("")]), Some(1));
        assert_eq!(p.partition_of(&[Value::Int(25), Value::str("")]), Some(2));
        // restriction(i) must match exactly the rows routed to i
        for id in [0i64, 9, 10, 15, 20, 100] {
            let row = [Value::Int(id), Value::str("")];
            let part = p.partition_of(&row).unwrap();
            for i in 0..p.num_partitions() {
                assert_eq!(
                    p.restriction(i).matches_row(&row),
                    i == part,
                    "id={id} i={i}"
                );
            }
        }
    }

    #[test]
    fn hash_partitioning_routes_rows() {
        let p = Partitioning::Hash { attr: 0, parts: 4 };
        p.validate().unwrap();
        for id in 0..64i64 {
            let row = [Value::Int(id), Value::str("")];
            let part = p.partition_of(&row).unwrap();
            assert!(part < 4);
            assert!(p.restriction(part).matches_row(&row));
        }
    }

    #[test]
    fn disjointness_in_in() {
        let a = Restriction::In {
            attr: 1,
            values: vec![Value::str("a")],
        };
        let b = Restriction::In {
            attr: 1,
            values: vec![Value::str("b")],
        };
        let c = Restriction::In {
            attr: 1,
            values: vec![Value::str("a"), Value::str("c")],
        };
        assert!(a.disjoint_with(&b));
        assert!(!a.disjoint_with(&c));
        assert!(!a.disjoint_with(&Restriction::All));
    }

    #[test]
    fn disjointness_range_range() {
        let lo = Restriction::Range {
            attr: 0,
            lo: None,
            hi: Some(Value::Int(10)),
        };
        let hi = Restriction::Range {
            attr: 0,
            lo: Some(Value::Int(10)),
            hi: None,
        };
        let mid = Restriction::Range {
            attr: 0,
            lo: Some(Value::Int(5)),
            hi: Some(Value::Int(15)),
        };
        assert!(lo.disjoint_with(&hi));
        assert!(!lo.disjoint_with(&mid));
        assert!(!hi.disjoint_with(&mid));
    }

    #[test]
    fn disjointness_in_range() {
        let r = Restriction::Range {
            attr: 0,
            lo: Some(Value::Int(0)),
            hi: Some(Value::Int(10)),
        };
        let inside = Restriction::In {
            attr: 0,
            values: vec![Value::Int(5)],
        };
        let outside = Restriction::In {
            attr: 0,
            values: vec![Value::Int(10), Value::Int(11)],
        };
        assert!(!r.disjoint_with(&inside));
        assert!(r.disjoint_with(&outside));
        assert!(outside.disjoint_with(&r));
    }

    #[test]
    fn hash_disjointness() {
        let a = Restriction::Hash {
            attr: 0,
            modulus: 4,
            residue: 0,
        };
        let b = Restriction::Hash {
            attr: 0,
            modulus: 4,
            residue: 1,
        };
        let c = Restriction::Hash {
            attr: 0,
            modulus: 8,
            residue: 1,
        };
        assert!(a.disjoint_with(&b));
        assert!(!a.disjoint_with(&c)); // different modulus: conservative "maybe"
    }

    #[test]
    fn display_forms() {
        let s = schema();
        let eq = Restriction::In {
            attr: 1,
            values: vec![Value::str("Myconos")],
        };
        assert_eq!(eq.display_with(&s).to_string(), "office = 'Myconos'");
        let many = Restriction::In {
            attr: 1,
            values: vec![Value::str("a"), Value::str("b")],
        };
        assert_eq!(many.display_with(&s).to_string(), "office IN ('a', 'b')");
        let r = Restriction::Range {
            attr: 0,
            lo: Some(Value::Int(1)),
            hi: Some(Value::Int(5)),
        };
        assert_eq!(r.display_with(&s).to_string(), "1 <= custid AND custid < 5");
        assert_eq!(Restriction::All.display_with(&s).to_string(), "TRUE");
    }

    #[test]
    fn validation_rejects_bad_schemes() {
        assert!(Partitioning::List {
            attr: 0,
            groups: vec![]
        }
        .validate()
        .is_err());
        assert!(Partitioning::List {
            attr: 0,
            groups: vec![vec![Value::Int(1)], vec![Value::Int(1)]]
        }
        .validate()
        .is_err());
        assert!(Partitioning::Range {
            attr: 0,
            bounds: vec![Value::Int(2), Value::Int(1)]
        }
        .validate()
        .is_err());
        assert!(Partitioning::Hash { attr: 0, parts: 0 }.validate().is_err());
    }

    #[test]
    fn bucket_is_deterministic() {
        let v = Value::str("Myconos");
        assert_eq!(value_bucket(&v, 7), value_bucket(&v, 7));
    }
}
