//! The [`Query`] type — the commodity traded by QT.

use crate::partset::PartSet;
use crate::predicate::{Col, Predicate};
use qt_catalog::{Fnv1a, RelId, SchemaDict};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Aggregate functions supported in `SELECT` lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AggFunc {
    /// `COUNT(*)` / `COUNT(col)` (no `NULL`s in this model, so equivalent).
    Count,
    /// `SUM(col)`
    Sum,
    /// `AVG(col)`
    Avg,
    /// `MIN(col)`
    Min,
    /// `MAX(col)`
    Max,
}

impl AggFunc {
    /// Can partial aggregates over *disjoint* partitions be re-aggregated
    /// into the global aggregate? (`AVG` cannot without auxiliary columns;
    /// the paper's motivating `SUM` can.)
    pub fn is_decomposable(&self) -> bool {
        !matches!(self, AggFunc::Avg)
    }

    /// The function that re-aggregates partial results of `self`
    /// (`COUNT` partials are *summed*).
    pub fn reaggregate_with(&self) -> AggFunc {
        match self {
            AggFunc::Count | AggFunc::Sum => AggFunc::Sum,
            AggFunc::Min => AggFunc::Min,
            AggFunc::Max => AggFunc::Max,
            AggFunc::Avg => AggFunc::Avg, // not decomposable; callers must check
        }
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        };
        f.write_str(s)
    }
}

/// One item of a `SELECT` list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SelectItem {
    /// A plain column.
    Col(Col),
    /// An aggregate over a column (`None` arg = `COUNT(*)`).
    Agg {
        /// The aggregate function.
        func: AggFunc,
        /// The aggregated column; `None` only for `COUNT(*)`.
        arg: Option<Col>,
    },
}

impl SelectItem {
    /// Is this an aggregate item?
    pub fn is_agg(&self) -> bool {
        matches!(self, SelectItem::Agg { .. })
    }

    /// The column mentioned, if any.
    pub fn col(&self) -> Option<Col> {
        match self {
            SelectItem::Col(c) => Some(*c),
            SelectItem::Agg { arg, .. } => *arg,
        }
    }
}

/// Validation errors for [`Query`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// A column references a relation outside the `FROM` list.
    UnknownRelation(RelId),
    /// A column's attribute index is out of the schema's range.
    BadAttr(Col),
    /// A relation's partition set is empty or mentions partitions the
    /// partitioning scheme does not define.
    BadPartSet(RelId),
    /// A mixed aggregate/plain `SELECT` whose plain columns are not all in
    /// `GROUP BY`.
    UngroupedColumn(Col),
    /// `GROUP BY` given without any aggregate item.
    GroupByWithoutAggregate,
    /// `ORDER BY` on an aggregate query (unsupported in this model).
    OrderByOnAggregate,
    /// Empty `SELECT` list.
    EmptySelect,
    /// Empty `FROM` list.
    EmptyFrom,
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::UnknownRelation(r) => write!(f, "column references {r} not in FROM"),
            QueryError::BadAttr(c) => write!(f, "attribute {} out of range for {}", c.attr, c.rel),
            QueryError::BadPartSet(r) => write!(f, "invalid partition set for {r}"),
            QueryError::UngroupedColumn(c) => {
                write!(f, "column {:?} not in GROUP BY", c)
            }
            QueryError::GroupByWithoutAggregate => write!(f, "GROUP BY without aggregates"),
            QueryError::OrderByOnAggregate => write!(f, "ORDER BY unsupported on aggregates"),
            QueryError::EmptySelect => write!(f, "empty SELECT list"),
            QueryError::EmptyFrom => write!(f, "empty FROM list"),
        }
    }
}

impl std::error::Error for QueryError {}

/// A select-project-join query with optional aggregation, over explicit
/// partition subsets of its relations.
///
/// `Query` is a *value* type with structural equality and hashing over its
/// canonical form — queries are deduplicated, keyed, and compared all over
/// the trading loop. Always construct via [`Query::new`] + setters or the SQL
/// parser, then treat as immutable.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Query {
    /// `FROM`: each relation with the partition subset the query ranges
    /// over. [`PartSet::all`] = the full extent.
    pub relations: BTreeMap<RelId, PartSet>,
    /// Conjunctive `WHERE` clause, kept canonical (sorted, deduplicated,
    /// canonical predicate forms).
    pub predicates: Vec<Predicate>,
    /// `SELECT` list.
    pub select: Vec<SelectItem>,
    /// `GROUP BY` columns (only with aggregate select items).
    pub group_by: Vec<Col>,
    /// `ORDER BY` columns (non-aggregate queries only).
    pub order_by: Vec<Col>,
}

impl Query {
    /// A query over `relations` (full extents), selecting everything the
    /// caller adds later. Prefer the setter chain:
    /// `Query::new(...).with_select(...).with_predicates(...)`.
    pub fn new(relations: impl IntoIterator<Item = (RelId, PartSet)>) -> Query {
        Query {
            relations: relations.into_iter().collect(),
            predicates: Vec::new(),
            select: Vec::new(),
            group_by: Vec::new(),
            order_by: Vec::new(),
        }
    }

    /// A query over the full extents of `rels` as defined in `dict`.
    pub fn over_full(dict: &SchemaDict, rels: impl IntoIterator<Item = RelId>) -> Query {
        Query::new(rels.into_iter().map(|r| {
            let n = dict.rel(r).partitioning.num_partitions();
            (r, PartSet::all(n))
        }))
    }

    /// Replace the `SELECT` list.
    pub fn with_select(mut self, select: Vec<SelectItem>) -> Query {
        self.select = select;
        self
    }

    /// Replace the predicates (canonicalized).
    pub fn with_predicates(mut self, preds: Vec<Predicate>) -> Query {
        self.predicates = preds;
        self.canonicalize();
        self
    }

    /// Replace `GROUP BY`.
    pub fn with_group_by(mut self, cols: Vec<Col>) -> Query {
        self.group_by = cols;
        self
    }

    /// Replace `ORDER BY`.
    pub fn with_order_by(mut self, cols: Vec<Col>) -> Query {
        self.order_by = cols;
        self
    }

    /// Sort/dedup predicates and put each in canonical form. Equality and
    /// hashing assume this has run (all constructors call it).
    pub fn canonicalize(&mut self) {
        for p in &mut self.predicates {
            *p = p.clone().canonical();
        }
        self.predicates.sort();
        self.predicates.dedup();
    }

    /// A 64-bit fingerprint of the canonical query structure: FNV-1a
    /// ([`Fnv1a`]) over the `Hash` feed, independent of `RandomState` so
    /// equal queries map to the same key in every hasher, process-wide. The
    /// trading layer keys seller offer caches, buyer value books and the
    /// result cache on it.
    ///
    /// The values must not move: they break ties in the semantic cache's
    /// candidate order and sit under the committed experiment results, so
    /// `tests/fingerprint_golden.rs` pins them. The hasher folds integers a
    /// word at a time yet returns exactly the byte-at-a-time values — the
    /// same bytes in the same order, with each run of `k` trailing zero
    /// bytes folded as one multiplication by `PRIME^k`.
    ///
    /// Equal fingerprints do not prove equal queries (FNV-1a is not
    /// collision-resistant): a cache that hands out an answer *for this
    /// query* compares the queries too, and a fingerprint mismatch settles
    /// inequality without one.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = Fnv1a::default();
        self.hash(&mut h);
        h.finish()
    }

    /// The relations in `FROM`.
    pub fn rel_ids(&self) -> impl Iterator<Item = RelId> + '_ {
        self.relations.keys().copied()
    }

    /// Number of relations in `FROM`.
    pub fn num_relations(&self) -> usize {
        self.relations.len()
    }

    /// Join predicates only.
    pub fn join_predicates(&self) -> impl Iterator<Item = &Predicate> {
        self.predicates.iter().filter(|p| p.is_join())
    }

    /// Selection predicates on relation `rel` only.
    pub fn selections_of(&self, rel: RelId) -> impl Iterator<Item = &Predicate> {
        self.predicates
            .iter()
            .filter(move |p| p.is_selection() && p.left.rel == rel)
    }

    /// Does the query contain any aggregate select item?
    pub fn is_aggregate(&self) -> bool {
        self.select.iter().any(SelectItem::is_agg)
    }

    /// Are all aggregates decomposable over disjoint partition unions?
    pub fn aggregates_decomposable(&self) -> bool {
        self.select.iter().all(|s| match s {
            SelectItem::Agg { func, .. } => func.is_decomposable(),
            SelectItem::Col(_) => true,
        })
    }

    /// All columns the query mentions anywhere.
    pub fn all_cols(&self) -> BTreeSet<Col> {
        self.output_cols()
            .chain(self.order_by.iter().copied())
            .chain(self.predicates.iter().flat_map(Predicate::cols))
            .collect()
    }

    /// Group-by keys, then the columns of the `SELECT` list (plain or
    /// aggregated).
    fn output_cols(&self) -> impl Iterator<Item = Col> + '_ {
        self.group_by
            .iter()
            .copied()
            .chain(self.select.iter().filter_map(SelectItem::col))
    }

    /// What the SPJ core delivers: [`output_cols`](Self::output_cols), or —
    /// for a `COUNT(*)` with no group-by, where any column will do for
    /// counting — the first attribute of the first relation.
    pub(crate) fn core_cols(&self) -> impl Iterator<Item = Col> + '_ {
        let mut cols = self.output_cols().peekable();
        let fallback = cols.peek().is_none().then(|| {
            let rel = *self.relations.keys().next().expect("query has relations");
            Col::new(rel, 0)
        });
        cols.chain(fallback)
    }

    /// The SPJ core of an aggregate query: same `FROM`/`WHERE`, selecting the
    /// group-by keys and aggregate arguments as plain columns. Non-aggregate
    /// queries are returned unchanged (minus `ORDER BY`).
    pub fn strip_aggregation(&self) -> Query {
        let mut cols: Vec<Col> = Vec::new();
        for c in self.core_cols() {
            if !cols.contains(&c) {
                cols.push(c);
            }
        }
        Query {
            relations: self.relations.clone(),
            predicates: self.predicates.clone(),
            select: cols.into_iter().map(SelectItem::Col).collect(),
            group_by: Vec::new(),
            order_by: Vec::new(),
        }
    }

    /// Restrict the query to the sub-join over `rels` ⊆ `FROM`: keeps the
    /// relations (with their partition subsets), the predicates entirely over
    /// `rels`, and selects every column of `rels` the full query needs
    /// (including join columns to the dropped relations). Aggregation is
    /// stripped — partial results are plain row sets.
    ///
    /// This is the building block of both the seller's rewrite (§3.4) and the
    /// modified-DP partial offers.
    pub fn restrict_to_rels(&self, rels: &BTreeSet<RelId>) -> Query {
        let relations = self
            .relations
            .iter()
            .filter(|(r, _)| rels.contains(r))
            .map(|(r, p)| (*r, *p))
            .collect();
        self.sub_join(
            relations,
            self.output_cols().chain(self.order_by.iter().copied()),
        )
    }

    /// The sub-join over `relations` (a subset of `FROM`, each with the
    /// extent the result ranges over) of a query that needs `needed` besides
    /// its predicates' columns: one pass over the predicates keeps those
    /// entirely over `relations` and collects the kept relations' columns.
    ///
    /// Canonical predicates restrict to canonical predicates — a subsequence
    /// of a strictly sorted list — so the result is only re-canonicalized
    /// when the pass finds `predicates` (a `pub` field) out of form.
    pub(crate) fn sub_join(
        &self,
        relations: BTreeMap<RelId, PartSet>,
        needed: impl Iterator<Item = Col>,
    ) -> Query {
        let kept = |r: RelId| relations.contains_key(&r);
        let mut cols: Vec<Col> = needed.filter(|c| kept(c.rel)).collect();
        let mut predicates: Vec<Predicate> = Vec::new();
        let mut canonical = true;
        for p in &self.predicates {
            cols.extend(p.cols().filter(|c| kept(c.rel)));
            if p.rels().all(kept) {
                canonical &= p.is_canonical() && predicates.last().is_none_or(|prev| prev < p);
                predicates.push(p.clone());
            }
        }
        // `Col` orders by relation first, so this is each kept relation's
        // needed columns in turn.
        cols.sort_unstable();
        cols.dedup();
        if cols.is_empty() {
            // Nothing upstream needs a column (e.g. COUNT(*) query): keep the
            // first attribute of each relation so the sub-result is well-formed.
            cols.extend(relations.keys().map(|r| Col::new(*r, 0)));
        }
        let mut q = Query {
            relations,
            predicates,
            select: cols.into_iter().map(SelectItem::Col).collect(),
            group_by: Vec::new(),
            order_by: Vec::new(),
        };
        if !canonical {
            q.canonicalize();
        }
        q
    }

    /// Same query with the partition set of `rel` replaced.
    pub fn with_partset(&self, rel: RelId, parts: PartSet) -> Query {
        let mut q = self.clone();
        q.relations.insert(rel, parts);
        q
    }

    /// Validate against the dictionary. Every constructor path in examples,
    /// the parser, and the trading loop calls this before a query crosses a
    /// module boundary.
    pub fn validate(&self, dict: &SchemaDict) -> Result<(), QueryError> {
        if self.relations.is_empty() {
            return Err(QueryError::EmptyFrom);
        }
        if self.select.is_empty() {
            return Err(QueryError::EmptySelect);
        }
        for (&rel, parts) in &self.relations {
            let n = dict.rel(rel).partitioning.num_partitions();
            if parts.is_empty() || !parts.is_subset(&PartSet::all(n)) {
                return Err(QueryError::BadPartSet(rel));
            }
        }
        for c in self.all_cols() {
            let Some(parts) = self.relations.get(&c.rel) else {
                return Err(QueryError::UnknownRelation(c.rel));
            };
            let _ = parts;
            if c.attr >= dict.rel(c.rel).schema.arity() {
                return Err(QueryError::BadAttr(c));
            }
        }
        let has_agg = self.is_aggregate();
        if has_agg {
            for s in &self.select {
                if let SelectItem::Col(c) = s {
                    if !self.group_by.contains(c) {
                        return Err(QueryError::UngroupedColumn(*c));
                    }
                }
            }
            if !self.order_by.is_empty() {
                return Err(QueryError::OrderByOnAggregate);
            }
        } else if !self.group_by.is_empty() {
            return Err(QueryError::GroupByWithoutAggregate);
        }
        Ok(())
    }

    /// Does the query range over the full extent of every relation?
    pub fn covers_full_extents(&self, dict: &SchemaDict) -> bool {
        self.relations.iter().all(|(&rel, parts)| {
            *parts == PartSet::all(dict.rel(rel).partitioning.num_partitions())
        })
    }

    /// Render as SQL. Partition subsets are rendered as the disjunction of
    /// the member partitions' restrictions — exactly the predicates the
    /// paper's rewrite appends (`office = 'Myconos'`).
    pub fn display_with<'a>(&'a self, dict: &'a SchemaDict) -> QueryDisplay<'a> {
        QueryDisplay { q: self, dict }
    }
}

/// Display adapter produced by [`Query::display_with`].
pub struct QueryDisplay<'a> {
    q: &'a Query,
    dict: &'a SchemaDict,
}

impl fmt::Display for QueryDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let dict = self.dict;
        write!(f, "SELECT ")?;
        for (i, s) in self.q.select.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match s {
                SelectItem::Col(c) => write!(f, "{}", c.display_with(dict))?,
                SelectItem::Agg { func, arg: Some(c) } => {
                    write!(f, "{func}({})", c.display_with(dict))?
                }
                SelectItem::Agg { func, arg: None } => write!(f, "{func}(*)")?,
            }
        }
        write!(f, " FROM ")?;
        for (i, rel) in self.q.rel_ids().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", dict.rel(rel).schema.name)?;
        }
        let mut wrote_where = false;
        let sep = |f: &mut fmt::Formatter<'_>, wrote: &mut bool| -> fmt::Result {
            if *wrote {
                write!(f, " AND ")
            } else {
                *wrote = true;
                write!(f, " WHERE ")
            }
        };
        for p in &self.q.predicates {
            sep(f, &mut wrote_where)?;
            write!(f, "{}", p.display_with(dict))?;
        }
        for (&rel, parts) in &self.q.relations {
            let meta = dict.rel(rel);
            let total = meta.partitioning.num_partitions();
            if *parts == PartSet::all(total) {
                continue;
            }
            sep(f, &mut wrote_where)?;
            if parts.len() > 1 {
                write!(f, "(")?;
            }
            for (i, idx) in parts.iter().enumerate() {
                if i > 0 {
                    write!(f, " OR ")?;
                }
                let r = meta.partitioning.restriction(idx);
                write!(f, "{}", r.display_with(&meta.schema))?;
            }
            if parts.len() > 1 {
                write!(f, ")")?;
            }
        }
        if !self.q.group_by.is_empty() {
            write!(f, " GROUP BY ")?;
            for (i, c) in self.q.group_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", c.display_with(dict))?;
            }
        }
        if !self.q.order_by.is_empty() {
            write!(f, " ORDER BY ")?;
            for (i, c) in self.q.order_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", c.display_with(dict))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::predicate::{CompOp, Operand};
    use qt_catalog::{
        AttrType, CatalogBuilder, NodeId, PartId, PartitionStats, Partitioning, RelationSchema,
        Value,
    };

    /// customer(custid, custname, office) list-partitioned on office;
    /// invoiceline(invid, linenum, custid, charge) unpartitioned.
    pub(crate) fn telecom_dict() -> std::sync::Arc<SchemaDict> {
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
        for i in 0..3 {
            b.set_stats(
                PartId::new(cust, i),
                PartitionStats::synthetic(1000, &[1000, 900, 1]),
            );
            b.place(PartId::new(cust, i), NodeId(i as u32));
        }
        b.set_stats(
            PartId::new(inv, 0),
            PartitionStats::synthetic(10000, &[2000, 5, 3000, 500]),
        );
        b.place(PartId::new(inv, 0), NodeId(0));
        b.build().dict
    }

    fn cust() -> RelId {
        RelId(0)
    }
    fn inv() -> RelId {
        RelId(1)
    }

    /// SELECT office, SUM(charge) FROM customer, invoiceline
    /// WHERE customer.custid = invoiceline.custid AND office IN (...) GROUP BY office
    pub(crate) fn motivating_query(dict: &SchemaDict) -> Query {
        Query::over_full(dict, [cust(), inv()])
            .with_predicates(vec![Predicate::eq_cols(
                Col::new(cust(), 0),
                Col::new(inv(), 2),
            )])
            .with_select(vec![
                SelectItem::Col(Col::new(cust(), 2)),
                SelectItem::Agg {
                    func: AggFunc::Sum,
                    arg: Some(Col::new(inv(), 3)),
                },
            ])
            .with_group_by(vec![Col::new(cust(), 2)])
            .with_partset(cust(), PartSet::from_indices([1, 2])) // Corfu, Myconos
    }

    #[test]
    fn validates_motivating_query() {
        let dict = telecom_dict();
        let q = motivating_query(&dict);
        q.validate(&dict).unwrap();
        assert!(q.is_aggregate());
        assert!(q.aggregates_decomposable());
        assert!(!q.covers_full_extents(&dict));
    }

    #[test]
    fn sql_rendering_includes_partition_restrictions() {
        let dict = telecom_dict();
        let q = motivating_query(&dict);
        let sql = q.display_with(&dict).to_string();
        assert!(
            sql.starts_with("SELECT customer.office, SUM(invoiceline.charge) FROM"),
            "{sql}"
        );
        assert!(
            sql.contains("customer.custid = invoiceline.custid"),
            "{sql}"
        );
        assert!(
            sql.contains("office = 'Corfu' OR office = 'Myconos'"),
            "{sql}"
        );
        assert!(sql.ends_with("GROUP BY customer.office"), "{sql}");
    }

    #[test]
    fn strip_aggregation_keeps_keys_and_args() {
        let dict = telecom_dict();
        let q = motivating_query(&dict).strip_aggregation();
        q.validate(&dict).unwrap();
        assert!(!q.is_aggregate());
        assert_eq!(
            q.select,
            vec![
                SelectItem::Col(Col::new(cust(), 2)),
                SelectItem::Col(Col::new(inv(), 3)),
            ]
        );
    }

    #[test]
    fn restrict_to_rels_keeps_join_columns() {
        let dict = telecom_dict();
        let q = motivating_query(&dict);
        let only_inv = q.restrict_to_rels(&BTreeSet::from([inv()]));
        only_inv.validate(&dict).unwrap();
        // Must output the join column custid and the aggregate arg charge.
        let cols: BTreeSet<Col> = only_inv.select.iter().filter_map(|s| s.col()).collect();
        assert!(cols.contains(&Col::new(inv(), 2)), "join col kept");
        assert!(cols.contains(&Col::new(inv(), 3)), "agg arg kept");
        // The cross-relation join predicate is gone.
        assert_eq!(only_inv.predicates.len(), 0);
        assert_eq!(only_inv.num_relations(), 1);
    }

    /// `predicates` is a `pub` field: a query whose predicates were pushed
    /// out of canonical form by hand must still restrict to the canonical
    /// sub-query — each kind of damage on its own, and all of them at once.
    #[test]
    fn restrict_to_rels_recanonicalizes_hand_mutated_predicates() {
        let dict = telecom_dict();
        let join = Predicate::eq_cols(Col::new(cust(), 0), Col::new(inv(), 2));
        let flipped = Predicate {
            left: Col::new(inv(), 2),
            op: CompOp::Eq,
            right: Operand::Col(Col::new(cust(), 0)),
        };
        assert!(join.is_canonical() && !flipped.is_canonical());
        let charge = Predicate::with_const(Col::new(inv(), 3), CompOp::Gt, 100.0);
        let line = Predicate::with_const(Col::new(inv(), 1), CompOp::Le, 3i64);
        let q = Query::over_full(&dict, [cust(), inv()])
            .with_predicates(vec![join.clone(), charge.clone(), line.clone()])
            .with_select(vec![SelectItem::Col(Col::new(cust(), 1))]);
        assert_eq!(
            q.predicates,
            vec![join.clone(), line.clone(), charge.clone()]
        );
        let damaged = [
            vec![flipped.clone(), line.clone(), charge.clone()],
            vec![join.clone(), charge.clone(), line.clone()],
            vec![join.clone(), line.clone(), line.clone(), charge.clone()],
            vec![charge.clone(), flipped, line.clone(), charge, join, line],
        ];
        for rels in [
            BTreeSet::from([inv()]),
            BTreeSet::from([cust()]),
            BTreeSet::from([cust(), inv()]),
        ] {
            let want = q.restrict_to_rels(&rels);
            want.validate(&dict).unwrap();
            for predicates in &damaged {
                let mut bad = q.clone();
                bad.predicates = predicates.clone();
                assert_eq!(bad.restrict_to_rels(&rels), want, "{predicates:?}");
            }
        }
    }

    #[test]
    fn validation_rejects_bad_queries() {
        let dict = telecom_dict();
        // Column outside FROM.
        let q = Query::over_full(&dict, [cust()])
            .with_select(vec![SelectItem::Col(Col::new(inv(), 0))]);
        assert_eq!(q.validate(&dict), Err(QueryError::UnknownRelation(inv())));
        // Bad attribute index.
        let q = Query::over_full(&dict, [cust()])
            .with_select(vec![SelectItem::Col(Col::new(cust(), 99))]);
        assert_eq!(
            q.validate(&dict),
            Err(QueryError::BadAttr(Col::new(cust(), 99)))
        );
        // Ungrouped plain column next to an aggregate.
        let q = Query::over_full(&dict, [cust()]).with_select(vec![
            SelectItem::Col(Col::new(cust(), 0)),
            SelectItem::Agg {
                func: AggFunc::Count,
                arg: None,
            },
        ]);
        assert_eq!(
            q.validate(&dict),
            Err(QueryError::UngroupedColumn(Col::new(cust(), 0)))
        );
        // Empty partition set.
        let q = Query::new([(cust(), PartSet::EMPTY)])
            .with_select(vec![SelectItem::Col(Col::new(cust(), 0))]);
        assert_eq!(q.validate(&dict), Err(QueryError::BadPartSet(cust())));
        // Empty FROM / SELECT.
        let q = Query::new([]).with_select(vec![]);
        assert_eq!(q.validate(&dict), Err(QueryError::EmptyFrom));
        let q = Query::over_full(&dict, [cust()]);
        assert_eq!(q.validate(&dict), Err(QueryError::EmptySelect));
    }

    #[test]
    fn canonical_queries_compare_equal() {
        let dict = telecom_dict();
        let p1 = Predicate::eq_cols(Col::new(cust(), 0), Col::new(inv(), 2));
        let p2 = Predicate::eq_cols(Col::new(inv(), 2), Col::new(cust(), 0));
        let sel = vec![SelectItem::Col(Col::new(cust(), 1))];
        let a = Query::over_full(&dict, [cust(), inv()])
            .with_predicates(vec![p1.clone(), p2.clone()])
            .with_select(sel.clone());
        let b = Query::over_full(&dict, [cust(), inv()])
            .with_predicates(vec![p2])
            .with_select(sel);
        assert_eq!(a, b);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |q: &Query| {
            let mut s = DefaultHasher::new();
            q.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&a), h(&b));
    }

    #[test]
    fn fingerprint_tracks_structural_equality() {
        let dict = telecom_dict();
        let q = motivating_query(&dict);
        assert_eq!(q.fingerprint(), q.clone().fingerprint());
        // Commuted predicate canonicalizes to the same fingerprint.
        let p1 = Predicate::eq_cols(Col::new(cust(), 0), Col::new(inv(), 2));
        let p2 = Predicate::eq_cols(Col::new(inv(), 2), Col::new(cust(), 0));
        let sel = vec![SelectItem::Col(Col::new(cust(), 1))];
        let a = Query::over_full(&dict, [cust(), inv()])
            .with_predicates(vec![p1])
            .with_select(sel.clone());
        let b = Query::over_full(&dict, [cust(), inv()])
            .with_predicates(vec![p2])
            .with_select(sel);
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Any structural difference moves the fingerprint.
        assert_ne!(
            q.fingerprint(),
            q.with_partset(cust(), PartSet::single(1)).fingerprint()
        );
        assert_ne!(a.fingerprint(), q.fingerprint());
    }

    #[test]
    fn count_star_strip_produces_some_column() {
        let dict = telecom_dict();
        let q = Query::over_full(&dict, [cust()]).with_select(vec![SelectItem::Agg {
            func: AggFunc::Count,
            arg: None,
        }]);
        q.validate(&dict).unwrap();
        let core = q.strip_aggregation();
        core.validate(&dict).unwrap();
        assert_eq!(core.select.len(), 1);
    }

    #[test]
    fn avg_blocks_decomposability() {
        let dict = telecom_dict();
        let q = Query::over_full(&dict, [inv()]).with_select(vec![SelectItem::Agg {
            func: AggFunc::Avg,
            arg: Some(Col::new(inv(), 3)),
        }]);
        assert!(!q.aggregates_decomposable());
        assert!(AggFunc::Sum.is_decomposable());
        assert_eq!(AggFunc::Count.reaggregate_with(), AggFunc::Sum);
    }

    #[test]
    fn selections_of_filters_by_relation() {
        let dict = telecom_dict();
        let q = Query::over_full(&dict, [cust(), inv()])
            .with_predicates(vec![
                Predicate::eq_cols(Col::new(cust(), 0), Col::new(inv(), 2)),
                Predicate::with_const(Col::new(inv(), 3), CompOp::Gt, 100.0),
            ])
            .with_select(vec![SelectItem::Col(Col::new(cust(), 1))]);
        assert_eq!(q.selections_of(inv()).count(), 1);
        assert_eq!(q.selections_of(cust()).count(), 0);
        assert_eq!(q.join_predicates().count(), 1);
    }
}
