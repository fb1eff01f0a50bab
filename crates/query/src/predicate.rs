//! Column references and comparison predicates.

use qt_catalog::{RelId, SchemaDict, Value};
use std::fmt;

/// Reference to one attribute of one relation. Because a relation appears at
/// most once per query, `(rel, attr)` identifies a column unambiguously.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Col {
    /// The relation.
    pub rel: RelId,
    /// Attribute index within the relation schema.
    pub attr: usize,
}

impl Col {
    /// Convenience constructor.
    pub fn new(rel: RelId, attr: usize) -> Self {
        Col { rel, attr }
    }

    /// Render as `relname.attrname`.
    pub fn display_with<'a>(&'a self, dict: &'a SchemaDict) -> impl fmt::Display + 'a {
        struct D<'a>(&'a Col, &'a SchemaDict);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let meta = self.1.rel(self.0.rel);
                write!(
                    f,
                    "{}.{}",
                    meta.schema.name,
                    meta.schema.attr(self.0.attr).name
                )
            }
        }
        D(self, dict)
    }
}

/// Comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CompOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CompOp {
    /// The operator with sides swapped: `a op b  ≡  b op.flip() a`.
    pub fn flip(&self) -> CompOp {
        match self {
            CompOp::Eq => CompOp::Eq,
            CompOp::Ne => CompOp::Ne,
            CompOp::Lt => CompOp::Gt,
            CompOp::Le => CompOp::Ge,
            CompOp::Gt => CompOp::Lt,
            CompOp::Ge => CompOp::Le,
        }
    }

    /// Evaluate on ordered values.
    pub fn eval(&self, l: &Value, r: &Value) -> bool {
        match self {
            CompOp::Eq => l == r,
            CompOp::Ne => l != r,
            CompOp::Lt => l < r,
            CompOp::Le => l <= r,
            CompOp::Gt => l > r,
            CompOp::Ge => l >= r,
        }
    }
}

impl fmt::Display for CompOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CompOp::Eq => "=",
            CompOp::Ne => "<>",
            CompOp::Lt => "<",
            CompOp::Le => "<=",
            CompOp::Gt => ">",
            CompOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// Right-hand side of a comparison.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Operand {
    /// Another column (a join predicate when the relations differ).
    Col(Col),
    /// A constant (a selection predicate).
    Const(Value),
}

/// One conjunct of a query's `WHERE` clause: `left op right`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Predicate {
    /// Left column.
    pub left: Col,
    /// Comparison operator.
    pub op: CompOp,
    /// Right column or constant.
    pub right: Operand,
}

impl Predicate {
    /// `left = right` between two columns (the common join form).
    pub fn eq_cols(a: Col, b: Col) -> Predicate {
        Predicate {
            left: a,
            op: CompOp::Eq,
            right: Operand::Col(b),
        }
        .canonical()
    }

    /// `col op value`.
    pub fn with_const(col: Col, op: CompOp, value: impl Into<Value>) -> Predicate {
        Predicate {
            left: col,
            op,
            right: Operand::Const(value.into()),
        }
    }

    /// Is this a join predicate (column-to-column across two relations)?
    pub fn is_join(&self) -> bool {
        matches!(&self.right, Operand::Col(c) if c.rel != self.left.rel)
    }

    /// Is this a selection predicate (column-to-constant, or column-to-column
    /// within one relation)?
    pub fn is_selection(&self) -> bool {
        !self.is_join()
    }

    /// The right-hand column, if the comparison is column-to-column.
    fn right_col(&self) -> Option<Col> {
        match &self.right {
            Operand::Col(c) => Some(*c),
            Operand::Const(_) => None,
        }
    }

    /// All relations the predicate mentions (1 or 2), left first.
    pub fn rels(&self) -> impl Iterator<Item = RelId> {
        let left = self.left.rel;
        let right = self.right_col().map(|c| c.rel).filter(|&r| r != left);
        std::iter::once(left).chain(right)
    }

    /// All columns the predicate mentions (1 or 2), left first.
    pub fn cols(&self) -> impl Iterator<Item = Col> {
        std::iter::once(self.left).chain(self.right_col())
    }

    /// Is the predicate in the form [`canonical`](Self::canonical) produces?
    pub(crate) fn is_canonical(&self) -> bool {
        self.right_col().is_none_or(|c| self.left <= c)
    }

    /// Canonical form: column-to-column comparisons put the smaller column on
    /// the left (flipping the operator), so that syntactically different but
    /// equivalent predicates compare equal.
    pub fn canonical(mut self) -> Predicate {
        if let Some(c) = self.right_col() {
            if c < self.left {
                self.right = Operand::Col(self.left);
                self.left = c;
                self.op = self.op.flip();
            }
        }
        self
    }

    /// Render with attribute names from `dict`.
    pub fn display_with<'a>(&'a self, dict: &'a SchemaDict) -> impl fmt::Display + 'a {
        struct D<'a>(&'a Predicate, &'a SchemaDict);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{} {} ", self.0.left.display_with(self.1), self.0.op)?;
                match &self.0.right {
                    Operand::Col(c) => write!(f, "{}", c.display_with(self.1)),
                    Operand::Const(v) => write!(f, "{v}"),
                }
            }
        }
        D(self, dict)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(r: u32, a: usize) -> Col {
        Col::new(RelId(r), a)
    }

    #[test]
    fn flip_is_involutive() {
        for op in [
            CompOp::Eq,
            CompOp::Ne,
            CompOp::Lt,
            CompOp::Le,
            CompOp::Gt,
            CompOp::Ge,
        ] {
            assert_eq!(op.flip().flip(), op);
        }
    }

    #[test]
    fn eval_matches_semantics() {
        let a = Value::Int(1);
        let b = Value::Int(2);
        assert!(CompOp::Lt.eval(&a, &b));
        assert!(CompOp::Le.eval(&a, &a));
        assert!(CompOp::Ne.eval(&a, &b));
        assert!(!CompOp::Gt.eval(&a, &b));
        assert!(CompOp::Ge.eval(&b, &b));
        assert!(CompOp::Eq.eval(&a, &a));
    }

    #[test]
    fn canonical_orders_join_columns() {
        let p1 = Predicate {
            left: col(1, 0),
            op: CompOp::Lt,
            right: Operand::Col(col(0, 2)),
        }
        .canonical();
        let p2 = Predicate {
            left: col(0, 2),
            op: CompOp::Gt,
            right: Operand::Col(col(1, 0)),
        }
        .canonical();
        assert_eq!(p1, p2);
        assert_eq!(p1.left, col(0, 2));
        assert_eq!(p1.op, CompOp::Gt);
    }

    #[test]
    fn join_vs_selection_classification() {
        let join = Predicate::eq_cols(col(0, 0), col(1, 1));
        assert!(join.is_join());
        assert!(join.rels().eq([RelId(0), RelId(1)]));
        assert!(join.cols().eq([col(0, 0), col(1, 1)]));
        let sel = Predicate::with_const(col(0, 0), CompOp::Gt, 5i64);
        assert!(sel.is_selection());
        assert!(sel.rels().eq([RelId(0)]));
        assert!(sel.cols().eq([col(0, 0)]));
        let same_rel = Predicate::eq_cols(col(0, 0), col(0, 1));
        assert!(same_rel.is_selection());
        assert!(same_rel.rels().eq([RelId(0)]));
        assert!(same_rel.cols().eq([col(0, 0), col(0, 1)]));
    }

    #[test]
    fn flip_preserves_semantics() {
        let vals = [Value::Int(1), Value::Int(2), Value::Int(2)];
        for op in [
            CompOp::Eq,
            CompOp::Ne,
            CompOp::Lt,
            CompOp::Le,
            CompOp::Gt,
            CompOp::Ge,
        ] {
            for l in &vals {
                for r in &vals {
                    assert_eq!(op.eval(l, r), op.flip().eval(r, l), "{op} {l} {r}");
                }
            }
        }
    }
}
