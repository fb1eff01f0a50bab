//! Columnar vectorized executor.
//!
//! Executes the same [`PhysPlan`] trees as the row executor in
//! [`crate::exec`], but operator-at-a-time over typed column batches instead
//! of row-at-a-time over `Vec<Value>` rows:
//!
//! * [`ColBatch`] — up to `batch_rows` (default 1024) rows as typed column
//!   vectors (`Vec<i64>` / `Vec<f64>` / dictionary-coded strings) with
//!   validity bitmaps for NULLs, plus a `Mixed` fallback for dynamically
//!   typed columns;
//! * vectorized filter/project kernels over column slices;
//! * hash join build/probe over column keys with batch-wise probe output
//!   (probe batches run in parallel via `qt-par`);
//! * hash aggregation over grouped batches (a single integer key is grouped
//!   by value, a single string key by dictionary code), emitted straight
//!   into typed columns;
//! * grace-hash spilling: join build sides and aggregate state whose input
//!   exceeds [`ColumnarConfig::mem_budget_bytes`] partition to disk via the
//!   hand-rolled framing in the private `spill` module and are processed one
//!   partition at a time.
//!
//! # Where columns live
//!
//! An answer is columnar from the store to the buyer; rows exist at the two
//! ends only.
//!
//! * **At rest.** [`crate::DataStore`] keeps, next to each partition's rows,
//!   a *column image*: the same rows as batches of [`DEFAULT_BATCH_ROWS`].
//!   The first columnar `Scan` of a partition builds it (loading a store
//!   pays nothing for partitions nobody queries); it then stays resident and
//!   is shared — with the rows it mirrors — by every clone, subset and merge
//!   of that store. Whatever changes the partition (`insert`,
//!   `load_relation`, `merge_from`) replaces the image, and the next scan
//!   rebuilds it. A source reaches it through [`RowSource::image_of`]; one
//!   that answers `None` (test sources) is transposed on every scan, as
//!   before. The price is memory: a scanned partition is resident twice,
//!   rows and image (roughly 8 bytes per numeric cell, 4 per string cell
//!   plus the dictionary), until the row engine stops being an executor.
//! * **In flight.** Columns are immutable behind `Arc`s, so `Scan`,
//!   `Project`, `Union` and a filter that keeps every row hand on reference
//!   counts, not copies. `Scan` and `Input` still emit batches of at most
//!   `batch_rows` whatever size they were given (re-cut by copying when a
//!   plan asks for smaller batches than the image's).
//! * **Between plans.** [`execute_columnar_batches`] takes and returns
//!   batches. A seller fragment's result fills the buyer assembly's `Input`
//!   slot as it is — batches, not rows, cross the seller/buyer boundary,
//!   which makes them the payload a `Deliver` frame has to carry — and only
//!   the final result is turned into rows. [`execute_columnar`] and
//!   [`execute_columnar_with_stats`] are the rows-in / rows-out wrapper.
//!
//! # Keys that index, keys that hash
//!
//! Joins and group-bys on one non-null `Int` column — surrogate keys such as
//! TPC-H's suppkey, custkey, orderkey — number their keys through one type,
//! `IntIds`, shared by the join table and the grouping.
//!
//! * **The rule is memory parity.** `IntIds` first takes the key column's
//!   min and max (the span in `i128`, so `i64::MIN..=i64::MAX` cannot
//!   overflow). It indexes a slot array by `key - min` when that array needs
//!   no more bytes than the `HashMap<i64, u32>` it replaces would reserve
//!   for the same rows — the build rows for a join, the input rows (the
//!   bound on groups) for a grouping. No tuned factor: 7 924 build rows
//!   spread over 40 000 orderkeys take a 160 KB array where the map would
//!   have reserved ≈ 278 KB.
//! * **Otherwise the key is hashed, with std's SipHash.** Keys are other
//!   nodes' data; a sparse or hostile range falls back to exactly the map it
//!   had before, so it costs what it cost before and no more.
//! * **Slots hold id + 1.** 0 means absent, so the array is one zeroed
//!   allocation whose untouched pages are never faulted. A probe key is
//!   located by a wrapping `key - min`: one below the range, above it, or at
//!   the far end of the domain lands past the array and misses, as do NULL,
//!   `Float` and `Str` probe keys — exactly as with the map. Ids are handed
//!   out in first-seen order, so match lists stay in build order and groups
//!   in first-seen order on both paths.
//! * **Aggregate state is flat.** Group keys are stored `nk` values per
//!   group and states as one `Vec<AggState>` indexed `g * aggs + j`, so a
//!   new group allocates nothing of its own; the groups are emitted straight
//!   into typed columns cut at `batch_rows`, through the same value→`Column`
//!   builder that turns rows into batches.
//!
//! # The oracle
//!
//! The row executor stays the correctness oracle: for every plan,
//! [`execute_columnar`] returns a table **bit-identical** to
//! [`crate::execute`] — same rows in the same order — whatever the batch
//! size, memory budget (spill on/off), or `QT_THREADS`. Spilled operators
//! tag every row with a sequence number and restore the oracle's order when
//! merging partitions; parallel sections map over fixed batch boundaries and
//! reassemble in order. Per-operator wall-clock timings and row counts are
//! recorded in [`ColExecStats::timings`] ([`OpTiming`]) — the measurements
//! the `qt-cost` calibration loop consumes.

use crate::error::ExecError;
use crate::exec::{AggState, RowSource};
use crate::plan::{AggSpec, PhysPlan};
use crate::spill::{SpillFile, SpillWriter};
use crate::trace::OpTiming;
use crate::{Row, Table};
use qt_catalog::{PartId, Value};
use qt_query::{AggFunc, Col, CompOp, Operand, Predicate};
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

/// Default rows per column batch.
pub const DEFAULT_BATCH_ROWS: usize = 1024;

/// Knobs for the columnar executor. The defaults (1024-row batches,
/// unlimited memory, 8 spill partitions) match the row executor's behavior
/// exactly; every setting changes only performance, never results.
#[derive(Debug, Clone)]
pub struct ColumnarConfig {
    /// Rows per batch produced by scans and inputs.
    pub batch_rows: usize,
    /// Memory budget for a hash-join build side or hash-aggregate input;
    /// above it the operator grace-hash partitions to disk.
    pub mem_budget_bytes: usize,
    /// Number of spill partitions per spilling operator.
    pub spill_partitions: usize,
}

impl Default for ColumnarConfig {
    fn default() -> Self {
        ColumnarConfig {
            batch_rows: DEFAULT_BATCH_ROWS,
            mem_budget_bytes: usize::MAX,
            spill_partitions: 8,
        }
    }
}

/// Counters and per-operator timings from one columnar execution.
#[derive(Debug, Clone, Default)]
pub struct ColExecStats {
    /// Spill partition files written (build + probe + aggregate inputs).
    pub spill_files: u64,
    /// Rows written to spill files.
    pub spill_rows: u64,
    /// Bytes written to spill files.
    pub spill_bytes: u64,
    /// Per-operator measured timings, post-order (children before parents).
    pub timings: Vec<OpTiming>,
}

// ---------------------------------------------------------------------------
// Column batches
// ---------------------------------------------------------------------------

/// Validity bitmap: `None` = all rows valid; bit set = valid.
type Validity = Option<Vec<u64>>;

fn bit_get(v: &Validity, i: usize) -> bool {
    match v {
        None => true,
        Some(words) => words[i / 64] >> (i % 64) & 1 == 1,
    }
}

fn all_valid_words(len: usize) -> Vec<u64> {
    vec![u64::MAX; len.div_ceil(64)]
}

fn bit_clear(words: &mut [u64], i: usize) {
    words[i / 64] &= !(1u64 << (i % 64));
}

/// One typed column of a batch.
#[derive(Debug, Clone)]
pub enum Column {
    /// 64-bit integers, with NULLs marked invalid in the bitmap.
    Int { vals: Vec<i64>, validity: Validity },
    /// 64-bit floats (bit-exact; never reordered within a column).
    Float { vals: Vec<f64>, validity: Validity },
    /// Dictionary-coded strings: `codes[i]` indexes `dict`. The dictionary
    /// is shared by every batch gathered or sliced from this one, so it may
    /// hold entries no row of a given batch refers to.
    Str {
        dict: Arc<[Arc<str>]>,
        codes: Vec<u32>,
        validity: Validity,
    },
    /// Fallback for columns mixing value types (rare: only hand-built data).
    Mixed(Vec<Value>),
}

fn dict_bytes(dict: &[Arc<str>]) -> usize {
    dict.iter().map(|s| s.len()).sum()
}

impl Column {
    /// Approximate heap bytes less a string column's dictionary, which the
    /// columns gathered from one batch share ([`batches_bytes`] counts each
    /// dictionary once).
    fn payload_bytes(&self) -> usize {
        let words = |validity: &Validity| validity.as_ref().map_or(0, |w| w.len() * 8);
        match self {
            Column::Int { vals, validity } => vals.len() * 8 + words(validity),
            Column::Float { vals, validity } => vals.len() * 8 + words(validity),
            Column::Str {
                codes, validity, ..
            } => codes.len() * 4 + words(validity),
            Column::Mixed(v) => v.iter().map(|x| x.byte_width() as usize + 8).sum(),
        }
    }

    /// Reconstruct the `Value` at row `i`.
    pub fn value_at(&self, i: usize) -> Value {
        match self {
            Column::Int { vals, validity } => {
                if bit_get(validity, i) {
                    Value::Int(vals[i])
                } else {
                    Value::Null
                }
            }
            Column::Float { vals, validity } => {
                if bit_get(validity, i) {
                    Value::Float(vals[i])
                } else {
                    Value::Null
                }
            }
            Column::Str {
                dict,
                codes,
                validity,
            } => {
                if bit_get(validity, i) {
                    Value::Str(dict[codes[i] as usize].clone())
                } else {
                    Value::Null
                }
            }
            Column::Mixed(v) => v[i].clone(),
        }
    }

    /// Gather the rows at `idx` into a new column (vectorized take).
    fn take(&self, idx: &[u32]) -> Column {
        let gather_validity = |validity: &Validity| -> Validity {
            validity.as_ref().map(|_| {
                let mut words = all_valid_words(idx.len());
                for (out, &i) in idx.iter().enumerate() {
                    if !bit_get(validity, i as usize) {
                        bit_clear(&mut words, out);
                    }
                }
                words
            })
        };
        match self {
            Column::Int { vals, validity } => Column::Int {
                vals: idx.iter().map(|&i| vals[i as usize]).collect(),
                validity: gather_validity(validity),
            },
            Column::Float { vals, validity } => Column::Float {
                vals: idx.iter().map(|&i| vals[i as usize]).collect(),
                validity: gather_validity(validity),
            },
            Column::Str {
                dict,
                codes,
                validity,
            } => Column::Str {
                dict: dict.clone(),
                codes: idx.iter().map(|&i| codes[i as usize]).collect(),
                validity: gather_validity(validity),
            },
            Column::Mixed(v) => Column::Mixed(idx.iter().map(|&i| v[i as usize].clone()).collect()),
        }
    }

    /// Build a typed column from `vals`, walking them twice: once to pick
    /// the type, once to fill it. Both rows ([`ColBatch::from_rows`]) and
    /// aggregate groups become columns through here.
    fn from_values<'a, I>(vals: I) -> Column
    where
        I: ExactSizeIterator<Item = &'a Value> + Clone,
    {
        let (mut ints, mut floats, mut strs, mut nulls) = (false, false, false, false);
        for v in vals.clone() {
            match v {
                Value::Int(_) => ints = true,
                Value::Float(_) => floats = true,
                Value::Str(_) => strs = true,
                Value::Null => nulls = true,
            }
        }
        let n = vals.len();
        let validity = || -> Validity {
            if !nulls {
                return None;
            }
            let mut words = all_valid_words(n);
            for (i, v) in vals.clone().enumerate() {
                if v.is_null() {
                    bit_clear(&mut words, i);
                }
            }
            Some(words)
        };
        match (ints, floats, strs) {
            (true, false, false) | (false, false, false) => Column::Int {
                vals: vals.clone().map(|v| v.as_int().unwrap_or(0)).collect(),
                validity: if ints {
                    validity()
                } else {
                    Some(vec![0; n.div_ceil(64)])
                },
            },
            (false, true, false) => Column::Float {
                vals: vals
                    .clone()
                    .map(|v| match v {
                        Value::Float(x) => *x,
                        _ => 0.0,
                    })
                    .collect(),
                validity: validity(),
            },
            (false, false, true) => {
                let mut dict: Vec<Arc<str>> = Vec::new();
                let mut lookup: HashMap<Arc<str>, u32> = HashMap::new();
                let codes = vals
                    .clone()
                    .map(|v| match v {
                        Value::Str(s) => *lookup.entry(s.clone()).or_insert_with(|| {
                            dict.push(s.clone());
                            (dict.len() - 1) as u32
                        }),
                        _ => 0,
                    })
                    .collect();
                Column::Str {
                    dict: dict.into(),
                    codes,
                    validity: validity(),
                }
            }
            _ => Column::Mixed(vals.cloned().collect()),
        }
    }
}

/// A batch of rows in columnar layout. All columns have length `len`.
/// Columns are immutable and shared: cloning a batch, projecting it or
/// handing it to another plan bumps reference counts and copies no payload.
#[derive(Debug, Clone)]
pub struct ColBatch {
    /// Number of rows.
    pub len: usize,
    /// One typed column per schema position.
    pub cols: Vec<Arc<Column>>,
}

impl ColBatch {
    /// Convert a row slice (all rows of width `width`) into one batch.
    pub fn from_rows(rows: &[Row], width: usize) -> ColBatch {
        ColBatch {
            len: rows.len(),
            cols: (0..width)
                .map(|c| Arc::new(Column::from_values(rows.iter().map(|r| &r[c]))))
                .collect(),
        }
    }

    /// The `Value` at `(col, row)`.
    pub fn value_at(&self, col: usize, row: usize) -> Value {
        self.cols[col].value_at(row)
    }

    /// Materialize row `i`.
    pub fn row(&self, i: usize) -> Row {
        self.cols.iter().map(|c| c.value_at(i)).collect()
    }

    /// Approximate heap bytes, a shared dictionary counted once.
    pub fn bytes(&self) -> usize {
        batches_bytes(std::slice::from_ref(self))
    }

    fn gather(&self, idx: &[u32]) -> ColBatch {
        ColBatch {
            len: idx.len(),
            cols: self.cols.iter().map(|c| Arc::new(c.take(idx))).collect(),
        }
    }

    fn hstack(mut self, right: ColBatch) -> ColBatch {
        debug_assert_eq!(self.len, right.len);
        self.cols.extend(right.cols);
        self
    }
}

/// Chunk rows into batches of `batch_rows`.
pub fn rows_to_batches(rows: &[Row], width: usize, batch_rows: usize) -> Vec<ColBatch> {
    let step = batch_rows.max(1);
    rows.chunks(step)
        .map(|chunk| ColBatch::from_rows(chunk, width))
        .collect()
}

/// Flatten batches back into rows, preserving order.
pub fn batches_to_rows(batches: &[ColBatch]) -> Table {
    let mut out = Vec::with_capacity(batches.iter().map(|b| b.len).sum());
    for b in batches {
        for i in 0..b.len {
            out.push(b.row(i));
        }
    }
    out
}

/// Approximate heap bytes of `batches`, the spill budget's measure. Batches
/// gathered or re-cut from one batch share its string dictionaries (`Arc`),
/// so each distinct dictionary is counted once, not once per batch.
fn batches_bytes(batches: &[ColBatch]) -> usize {
    let mut dicts: HashSet<*const [Arc<str>]> = HashSet::new();
    let mut bytes = 0;
    for col in batches.iter().flat_map(|b| &b.cols) {
        bytes += col.payload_bytes();
        if let Column::Str { dict, .. } = &**col {
            if dicts.insert(Arc::as_ptr(dict)) {
                bytes += dict_bytes(dict);
            }
        }
    }
    bytes
}

fn batches_rows(batches: &[ColBatch]) -> usize {
    batches.iter().map(|b| b.len).sum()
}

/// Concatenate batches into one (for join build sides). Columns keep their
/// typed representation when every batch agrees; otherwise fall back to
/// `Mixed`.
fn concat_batches(batches: &[ColBatch], width: usize) -> ColBatch {
    if let [only] = batches {
        return only.clone();
    }
    let total: usize = batches_rows(batches);
    let mut cols = Vec::with_capacity(width);
    for c in 0..width {
        cols.push(Arc::new(concat_columns(batches, c, total)));
    }
    ColBatch { len: total, cols }
}

fn concat_columns(batches: &[ColBatch], c: usize, total: usize) -> Column {
    let all_int = batches
        .iter()
        .all(|b| matches!(*b.cols[c], Column::Int { .. }));
    let all_float = batches
        .iter()
        .all(|b| matches!(*b.cols[c], Column::Float { .. }));
    let all_str = batches
        .iter()
        .all(|b| matches!(*b.cols[c], Column::Str { .. }));
    let merge_validity = |parts: Vec<(&Validity, usize)>| -> Validity {
        if parts.iter().all(|(v, _)| v.is_none()) {
            return None;
        }
        let mut words = all_valid_words(total);
        let mut at = 0;
        for (v, len) in parts {
            for i in 0..len {
                if !bit_get(v, i) {
                    bit_clear(&mut words, at + i);
                }
            }
            at += len;
        }
        Some(words)
    };
    if all_int {
        let mut vals = Vec::with_capacity(total);
        let mut parts = Vec::new();
        for b in batches {
            if let Column::Int { vals: v, validity } = &*b.cols[c] {
                vals.extend_from_slice(v);
                parts.push((validity, v.len()));
            }
        }
        return Column::Int {
            vals,
            validity: merge_validity(parts),
        };
    }
    if all_float {
        let mut vals = Vec::with_capacity(total);
        let mut parts = Vec::new();
        for b in batches {
            if let Column::Float { vals: v, validity } = &*b.cols[c] {
                vals.extend_from_slice(v);
                parts.push((validity, v.len()));
            }
        }
        return Column::Float {
            vals,
            validity: merge_validity(parts),
        };
    }
    if all_str {
        let mut dict: Vec<Arc<str>> = Vec::new();
        let mut lookup: HashMap<Arc<str>, u32> = HashMap::new();
        let mut codes = Vec::with_capacity(total);
        let mut parts = Vec::new();
        for b in batches {
            if let Column::Str {
                dict: d,
                codes: cs,
                validity,
            } = &*b.cols[c]
            {
                let remap: Vec<u32> = d
                    .iter()
                    .map(|s| {
                        *lookup.entry(s.clone()).or_insert_with(|| {
                            dict.push(s.clone());
                            (dict.len() - 1) as u32
                        })
                    })
                    .collect();
                codes.extend(cs.iter().map(|&code| remap[code as usize]));
                parts.push((validity, cs.len()));
            }
        }
        return Column::Str {
            dict: dict.into(),
            codes,
            validity: merge_validity(parts),
        };
    }
    let mut vals = Vec::with_capacity(total);
    for b in batches {
        for i in 0..b.len {
            vals.push(b.cols[c].value_at(i));
        }
    }
    Column::Mixed(vals)
}

// ---------------------------------------------------------------------------
// Lowering: PhysPlan → ColOp
// ---------------------------------------------------------------------------

/// A predicate with schema positions resolved at lowering time.
#[derive(Debug, Clone)]
struct LoweredPred {
    left: usize,
    op: CompOp,
    right: LoweredOperand,
}

#[derive(Debug, Clone)]
enum LoweredOperand {
    Const(Value),
    Col(usize),
}

/// A lowered columnar operator with its output arity.
#[derive(Debug, Clone)]
pub struct ColOp {
    width: usize,
    kind: ColKind,
}

#[derive(Debug, Clone)]
enum ColKind {
    Scan {
        part: PartId,
    },
    Input {
        slot: usize,
    },
    Filter {
        input: Box<ColOp>,
        preds: Vec<LoweredPred>,
    },
    Project {
        input: Box<ColOp>,
        cols: Vec<usize>,
    },
    HashJoin {
        build: Box<ColOp>,
        probe: Box<ColOp>,
        build_keys: Vec<usize>,
        probe_keys: Vec<usize>,
    },
    MergeJoin {
        left: Box<ColOp>,
        right: Box<ColOp>,
        left_keys: Vec<usize>,
        right_keys: Vec<usize>,
    },
    NlJoin {
        left: Box<ColOp>,
        right: Box<ColOp>,
        preds: Vec<LoweredPred>,
    },
    Union {
        inputs: Vec<ColOp>,
    },
    Sort {
        input: Box<ColOp>,
        keys: Vec<usize>,
    },
    HashAggregate {
        input: Box<ColOp>,
        key_cols: Vec<usize>,
        aggs: Vec<(AggFunc, Option<usize>)>,
    },
}

fn position(schema: &[Col], col: Col) -> Result<usize, ExecError> {
    schema
        .iter()
        .position(|c| *c == col)
        .ok_or(ExecError::UnresolvedColumn(col))
}

fn lower_preds(preds: &[Predicate], schema: &[Col]) -> Result<Vec<LoweredPred>, ExecError> {
    preds
        .iter()
        .map(|p| {
            Ok(LoweredPred {
                left: position(schema, p.left)?,
                op: p.op,
                right: match &p.right {
                    Operand::Const(v) => LoweredOperand::Const(v.clone()),
                    Operand::Col(c) => LoweredOperand::Col(position(schema, *c)?),
                },
            })
        })
        .collect()
}

/// Lower a physical plan to the columnar operator tree — the plan→columnar
/// boundary. All column references are resolved to schema positions here, so
/// execution never touches `Col` identities again.
pub fn lower(plan: &PhysPlan) -> Result<ColOp, ExecError> {
    let width = plan.schema().len();
    let kind = match plan {
        PhysPlan::Scan { part, .. } => ColKind::Scan { part: *part },
        PhysPlan::Input { slot, .. } => ColKind::Input { slot: *slot },
        PhysPlan::Filter { input, predicates } => ColKind::Filter {
            preds: lower_preds(predicates, &input.schema())?,
            input: Box::new(lower(input)?),
        },
        PhysPlan::Project { input, cols } => {
            let schema = input.schema();
            ColKind::Project {
                cols: cols
                    .iter()
                    .map(|c| position(&schema, *c))
                    .collect::<Result<_, _>>()?,
                input: Box::new(lower(input)?),
            }
        }
        PhysPlan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
        } => {
            let ls = left.schema();
            let rs = right.schema();
            ColKind::HashJoin {
                build_keys: left_keys
                    .iter()
                    .map(|c| position(&ls, *c))
                    .collect::<Result<_, _>>()?,
                probe_keys: right_keys
                    .iter()
                    .map(|c| position(&rs, *c))
                    .collect::<Result<_, _>>()?,
                build: Box::new(lower(left)?),
                probe: Box::new(lower(right)?),
            }
        }
        PhysPlan::MergeJoin {
            left,
            right,
            left_keys,
            right_keys,
        } => {
            let ls = left.schema();
            let rs = right.schema();
            ColKind::MergeJoin {
                left_keys: left_keys
                    .iter()
                    .map(|c| position(&ls, *c))
                    .collect::<Result<_, _>>()?,
                right_keys: right_keys
                    .iter()
                    .map(|c| position(&rs, *c))
                    .collect::<Result<_, _>>()?,
                left: Box::new(lower(left)?),
                right: Box::new(lower(right)?),
            }
        }
        PhysPlan::NlJoin {
            left,
            right,
            predicates,
        } => ColKind::NlJoin {
            preds: lower_preds(predicates, &plan.schema())?,
            left: Box::new(lower(left)?),
            right: Box::new(lower(right)?),
        },
        PhysPlan::Union { inputs } => ColKind::Union {
            inputs: inputs.iter().map(lower).collect::<Result<_, _>>()?,
        },
        PhysPlan::Sort { input, keys } => {
            let schema = input.schema();
            ColKind::Sort {
                keys: keys
                    .iter()
                    .map(|c| position(&schema, *c))
                    .collect::<Result<_, _>>()?,
                input: Box::new(lower(input)?),
            }
        }
        PhysPlan::HashAggregate {
            input,
            group_by,
            aggs,
        } => {
            let schema = input.schema();
            ColKind::HashAggregate {
                key_cols: group_by
                    .iter()
                    .map(|c| position(&schema, *c))
                    .collect::<Result<_, _>>()?,
                aggs: aggs
                    .iter()
                    .map(|AggSpec { func, arg }| {
                        Ok((*func, arg.map(|c| position(&schema, c)).transpose()?))
                    })
                    .collect::<Result<Vec<_>, ExecError>>()?,
                input: Box::new(lower(input)?),
            }
        }
    };
    Ok(ColOp { width, kind })
}

// ---------------------------------------------------------------------------
// Filter kernels
// ---------------------------------------------------------------------------

fn ord_ok(op: CompOp) -> fn(Ordering) -> bool {
    match op {
        CompOp::Eq => |o| o == Ordering::Equal,
        CompOp::Ne => |o| o != Ordering::Equal,
        CompOp::Lt => |o| o == Ordering::Less,
        CompOp::Le => |o| o != Ordering::Greater,
        CompOp::Gt => |o| o == Ordering::Greater,
        CompOp::Ge => |o| o != Ordering::Less,
    }
}

/// AND one predicate into `mask`, vectorized per column type.
fn apply_pred(batch: &ColBatch, pred: &LoweredPred, mask: &mut [bool]) {
    let ok = ord_ok(pred.op);
    match (&*batch.cols[pred.left], &pred.right) {
        // Int column vs Int constant: the hot kernel.
        (
            Column::Int {
                vals,
                validity: None,
            },
            LoweredOperand::Const(Value::Int(c)),
        ) => {
            for (m, v) in mask.iter_mut().zip(vals) {
                *m &= ok(v.cmp(c));
            }
        }
        // Float column vs Float constant (total order, same as Value::cmp).
        (
            Column::Float {
                vals,
                validity: None,
            },
            LoweredOperand::Const(Value::Float(c)),
        ) => {
            for (m, v) in mask.iter_mut().zip(vals) {
                *m &= ok(v.total_cmp(c));
            }
        }
        // Str column vs Str constant: compare each dict entry once.
        (
            Column::Str {
                dict,
                codes,
                validity: None,
            },
            LoweredOperand::Const(Value::Str(c)),
        ) => {
            let per_code: Vec<bool> = dict.iter().map(|s| ok(s.as_ref().cmp(c))).collect();
            for (m, code) in mask.iter_mut().zip(codes) {
                *m &= per_code[*code as usize];
            }
        }
        // Int-Int column comparison.
        (
            Column::Int {
                vals: a,
                validity: None,
            },
            LoweredOperand::Col(rc),
        ) if matches!(&*batch.cols[*rc], Column::Int { validity: None, .. }) => {
            if let Column::Int { vals: b, .. } = &*batch.cols[*rc] {
                for i in 0..mask.len() {
                    mask[i] &= ok(a[i].cmp(&b[i]));
                }
            }
        }
        // Everything else (mixed types, NULLs, cross-type constants):
        // fall back to Value comparison, which is the oracle semantics.
        _ => {
            for (i, m) in mask.iter_mut().enumerate() {
                let l = batch.value_at(pred.left, i);
                let ok = match &pred.right {
                    LoweredOperand::Const(v) => pred.op.eval(&l, v),
                    LoweredOperand::Col(c) => pred.op.eval(&l, &batch.value_at(*c, i)),
                };
                *m &= ok;
            }
        }
    }
}

fn filter_batch(batch: &ColBatch, preds: &[LoweredPred]) -> ColBatch {
    let mut mask = vec![true; batch.len];
    for p in preds {
        apply_pred(batch, p, &mut mask);
    }
    let idx: Vec<u32> = mask
        .iter()
        .enumerate()
        .filter_map(|(i, &m)| m.then_some(i as u32))
        .collect();
    if idx.len() == batch.len {
        return batch.clone();
    }
    batch.gather(&idx)
}

// ---------------------------------------------------------------------------
// Integer key ids
// ---------------------------------------------------------------------------

/// Dense ids `0, 1, 2, …` for the distinct values of a single non-null `Int`
/// key column, numbered in first-seen order — the join table's key groups
/// and the grouping's group ids.
///
/// A key indexes a slot array when the observed range is narrow enough that
/// the array needs no more memory than the hash map it replaces would
/// reserve for the same rows ([`hashed_bytes`]); otherwise the key is hashed
/// with std's SipHash, as before, so a sparse or hostile key range costs
/// exactly what it did. Keys are other nodes' data: the choice is a memory
/// rule over the observed range and row count, never a workload setting.
struct IntIds {
    len: u32,
    index: IdIndex,
}

enum IdIndex {
    /// `slots[key - min]` holds the key's id + 1; 0 means absent, so the
    /// array is a zeroed allocation whose untouched pages are never faulted.
    Direct {
        min: i64,
        slots: Vec<u32>,
    },
    Hashed(HashMap<i64, u32>),
}

/// Bytes std's `HashMap<i64, u32>` reserves for `rows` entries: its table
/// rounds `rows * 8 / 7` up to a power-of-two bucket count (4 or 8 buckets
/// below 8 rows), each bucket a 16-byte `(i64, u32)` entry plus a control
/// byte, plus one trailing 16-byte control group.
fn hashed_bytes(rows: usize) -> usize {
    let buckets = match rows {
        0 => return 0,
        1..=3 => 4,
        4..=7 => 8,
        _ => (rows * 8 / 7).next_power_of_two(),
    };
    buckets * 17 + 16
}

/// `key`'s slot in a direct index starting at `min`. The subtraction wraps,
/// so a key below `min` (or one whose distance does not fit) lands past the
/// end of any slot array instead of aliasing a slot.
fn offset(min: i64, key: i64) -> usize {
    usize::try_from(key.wrapping_sub(min) as u64).unwrap_or(usize::MAX)
}

impl IntIds {
    /// Ids for the keys of `cols` — no id assigned yet — indexed or hashed
    /// by their observed range and count. A hashed index reserves room for
    /// `reserve` keys up front.
    fn over(cols: &[&[i64]], reserve: usize) -> IntIds {
        let rows: usize = cols.iter().map(|c| c.len()).sum();
        let mut all = cols.iter().flat_map(|c| c.iter().copied());
        let range = all
            .next()
            .map(|first| all.fold((first, first), |(lo, hi), k| (lo.min(k), hi.max(k))));
        // In `i128`: the span of `i64::MIN..=i64::MAX` overflows `i64`.
        let span = range.map_or(0, |(min, max)| max as i128 - min as i128 + 1);
        let index = match range {
            Some((min, _)) if span * 4 <= hashed_bytes(rows) as i128 => IdIndex::Direct {
                min,
                slots: vec![0; span as usize],
            },
            _ => IdIndex::Hashed(HashMap::with_capacity(reserve)),
        };
        IntIds { len: 0, index }
    }

    /// Appends the id of each key to `ids`, numbering a key not seen before
    /// `len` and calling `fresh(key)` for it. (One loop per index kind: a
    /// per-key call that matches on the kind each time costs the integer
    /// grouping ~10 %.)
    fn assign(&mut self, keys: &[i64], ids: &mut Vec<u32>, mut fresh: impl FnMut(i64)) {
        let len = &mut self.len;
        match &mut self.index {
            IdIndex::Direct { min, slots } => {
                for &k in keys {
                    let slot = &mut slots[offset(*min, k)];
                    if *slot == 0 {
                        *len += 1;
                        *slot = *len;
                        fresh(k);
                    }
                    ids.push(*slot - 1);
                }
            }
            IdIndex::Hashed(map) => {
                for &k in keys {
                    let id = *map.entry(k).or_insert_with(|| {
                        *len += 1;
                        fresh(k);
                        *len - 1
                    });
                    ids.push(id);
                }
            }
        }
    }

    /// The id of `key`, if it has one.
    fn get(&self, key: i64) -> Option<u32> {
        match &self.index {
            IdIndex::Direct { min, slots } => slots.get(offset(*min, key))?.checked_sub(1),
            IdIndex::Hashed(map) => map.get(&key).copied(),
        }
    }
}

// ---------------------------------------------------------------------------
// Hash-join machinery
// ---------------------------------------------------------------------------

/// Build-side hash table: either specialized on a single non-null Int key or
/// generic over `Vec<Value>` keys. Values are row indices into the
/// concatenated build batch, in build order — matching the row executor's
/// per-key insertion order.
enum JoinTable {
    /// Every key's match list in one allocation: `ids` numbers the distinct
    /// keys, and `rows[starts[g]..starts[g + 1]]` are the build rows of key
    /// group `g`, ascending.
    Int {
        ids: IntIds,
        starts: Vec<u32>,
        rows: Vec<u32>,
    },
    Generic(HashMap<Vec<Value>, Vec<u32>>),
}

fn build_join_table(build: &ColBatch, keys: &[usize]) -> JoinTable {
    if keys.len() == 1 {
        if let Column::Int {
            vals,
            validity: None,
        } = &*build.cols[keys[0]]
        {
            // One id lookup per build row assigns its group; a counting sort
            // by group then lays the row ids out contiguously.
            let mut ids = IntIds::over(&[vals.as_slice()], vals.len());
            let mut gids: Vec<u32> = Vec::with_capacity(vals.len());
            ids.assign(vals, &mut gids, |_| {});
            let mut starts = vec![0u32; ids.len as usize + 1];
            for &g in &gids {
                starts[g as usize + 1] += 1;
            }
            for g in 1..starts.len() {
                starts[g] += starts[g - 1];
            }
            let mut cursor = starts.clone();
            let mut rows = vec![0u32; vals.len()];
            for (i, &g) in gids.iter().enumerate() {
                let at = &mut cursor[g as usize];
                rows[*at as usize] = i as u32;
                *at += 1;
            }
            return JoinTable::Int { ids, starts, rows };
        }
    }
    let mut t: HashMap<Vec<Value>, Vec<u32>> = HashMap::with_capacity(build.len);
    for i in 0..build.len {
        let key: Vec<Value> = keys.iter().map(|&k| build.value_at(k, i)).collect();
        t.entry(key).or_default().push(i as u32);
    }
    JoinTable::Generic(t)
}

/// Probe one batch; returns (build indices, probe indices) of matches, in
/// probe-row order with build matches in insertion order.
fn probe_batch(batch: &ColBatch, keys: &[usize], table: &JoinTable) -> (Vec<u32>, Vec<u32>) {
    let mut bidx = Vec::new();
    let mut pidx = Vec::new();
    match table {
        JoinTable::Int { ids, starts, rows } => {
            let mut emit = |probe_row: usize, g: u32| {
                let (from, to) = (starts[g as usize], starts[g as usize + 1]);
                for &b in &rows[from as usize..to as usize] {
                    bidx.push(b);
                    pidx.push(probe_row as u32);
                }
            };
            // The build side is all non-null Int, so only Int probe keys can
            // match (cross-type Values are never equal).
            match &*batch.cols[keys[0]] {
                Column::Int {
                    vals,
                    validity: None,
                } => {
                    for (i, &v) in vals.iter().enumerate() {
                        if let Some(g) = ids.get(v) {
                            emit(i, g);
                        }
                    }
                }
                other => {
                    for i in 0..batch.len {
                        if let Some(g) = other.value_at(i).as_int().and_then(|v| ids.get(v)) {
                            emit(i, g);
                        }
                    }
                }
            }
        }
        JoinTable::Generic(t) => {
            for i in 0..batch.len {
                let key: Vec<Value> = keys.iter().map(|&k| batch.value_at(k, i)).collect();
                if let Some(matches) = t.get(&key) {
                    for &b in matches {
                        bidx.push(b);
                        pidx.push(i as u32);
                    }
                }
            }
        }
    }
    (bidx, pidx)
}

/// Deterministic spill partition of a key (fixed-seed std hasher).
fn partition_of(key: &[Value], parts: usize) -> usize {
    let mut h = DefaultHasher::new();
    for v in key {
        v.hash(&mut h);
    }
    (h.finish() % parts.max(1) as u64) as usize
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

struct Ctx<'a> {
    source: &'a dyn RowSource,
    inputs: &'a [Vec<ColBatch>],
    cfg: &'a ColumnarConfig,
}

/// Execute `plan` columnar; results are bit-identical to [`crate::execute`].
pub fn execute_columnar(
    plan: &PhysPlan,
    source: &dyn RowSource,
    inputs: &[Table],
    cfg: &ColumnarConfig,
) -> Result<Table, ExecError> {
    execute_columnar_with_stats(plan, source, inputs, cfg).map(|(t, _)| t)
}

/// Like [`execute_columnar`], also returning spill counters and
/// per-operator timings for the cost-calibration loop. The rows-in /
/// rows-out wrapper of [`execute_columnar_batches`]: input tables are
/// transposed before the plan runs and the result once after it.
pub fn execute_columnar_with_stats(
    plan: &PhysPlan,
    source: &dyn RowSource,
    inputs: &[Table],
    cfg: &ColumnarConfig,
) -> Result<(Table, ColExecStats), ExecError> {
    let inputs: Vec<Vec<ColBatch>> = inputs
        .iter()
        .map(|t| rows_to_batches(t, t.first().map_or(0, Vec::len), cfg.batch_rows))
        .collect();
    let (batches, stats) = execute_columnar_batches(plan, source, &inputs, cfg)?;
    Ok((batches_to_rows(&batches), stats))
}

/// The executor's one entry point: `inputs[slot]` fills the plan's
/// [`PhysPlan::Input`] slots with column batches (of any size — `Input`
/// re-cuts them to `cfg.batch_rows`), scans read `source`, and the result
/// stays columnar, so a seller fragment's output can be handed to the buyer
/// assembly without ever becoming rows.
pub fn execute_columnar_batches(
    plan: &PhysPlan,
    source: &dyn RowSource,
    inputs: &[Vec<ColBatch>],
    cfg: &ColumnarConfig,
) -> Result<(Vec<ColBatch>, ColExecStats), ExecError> {
    let lowered = lower(plan)?;
    let mut stats = ColExecStats::default();
    let ctx = Ctx {
        source,
        inputs,
        cfg,
    };
    let batches = eval(&lowered, &ctx, &mut stats)?;
    Ok((batches, stats))
}

/// Resident batches (a partition's column image, a purchased fragment) as
/// batches of at most `batch_rows`: shared as they are when they already
/// fit, re-cut by copying otherwise.
fn recut(batches: &[ColBatch], batch_rows: usize) -> Vec<ColBatch> {
    let step = batch_rows.max(1);
    if batches.iter().all(|b| b.len <= step) {
        return batches.to_vec();
    }
    let mut out = Vec::new();
    for b in batches {
        for start in (0..b.len).step_by(step) {
            let idx: Vec<u32> = (start as u32..(start + step).min(b.len) as u32).collect();
            out.push(b.gather(&idx));
        }
    }
    out
}

fn timing(
    stats: &mut ColExecStats,
    op: &'static str,
    rows_in: usize,
    rows_out: usize,
    bytes_in: usize,
    started: Instant,
) {
    stats.timings.push(OpTiming {
        op,
        rows_in: rows_in as u64,
        rows_out: rows_out as u64,
        bytes_in: bytes_in as u64,
        secs: started.elapsed().as_secs_f64(),
    });
}

fn eval(op: &ColOp, ctx: &Ctx<'_>, stats: &mut ColExecStats) -> Result<Vec<ColBatch>, ExecError> {
    let threads = qt_par::max_threads();
    match &op.kind {
        ColKind::Scan { part } => {
            let t0 = Instant::now();
            let (rows, batches) = match ctx.source.image_of(*part) {
                Some(image) => (batches_rows(image), recut(image, ctx.cfg.batch_rows)),
                // A source without a resident image: transpose per query.
                None => {
                    let rows = ctx
                        .source
                        .rows_of(*part)
                        .ok_or(ExecError::MissingPartition(*part))?;
                    (
                        rows.len(),
                        rows_to_batches(rows, op.width, ctx.cfg.batch_rows),
                    )
                }
            };
            let bytes = batches_bytes(&batches);
            timing(stats, "Scan", rows, rows, bytes, t0);
            Ok(batches)
        }
        ColKind::Input { slot } => {
            let given = ctx
                .inputs
                .get(*slot)
                .ok_or(ExecError::MissingInput(*slot))?;
            let t0 = Instant::now();
            let batches = recut(given, ctx.cfg.batch_rows);
            let rows = batches_rows(&batches);
            let bytes = batches_bytes(&batches);
            timing(stats, "Input", rows, rows, bytes, t0);
            Ok(batches)
        }
        ColKind::Filter { input, preds } => {
            let in_batches = eval(input, ctx, stats)?;
            let rows_in = batches_rows(&in_batches);
            let bytes_in = batches_bytes(&in_batches);
            let t0 = Instant::now();
            let out: Vec<ColBatch> =
                qt_par::par_map_ref(&in_batches, threads, |b| filter_batch(b, preds))
                    .into_iter()
                    .filter(|b| b.len > 0)
                    .collect();
            timing(stats, "Filter", rows_in, batches_rows(&out), bytes_in, t0);
            Ok(out)
        }
        ColKind::Project { input, cols } => {
            let in_batches = eval(input, ctx, stats)?;
            let rows_in = batches_rows(&in_batches);
            let bytes_in = batches_bytes(&in_batches);
            let t0 = Instant::now();
            let out: Vec<ColBatch> = in_batches
                .iter()
                .map(|b| ColBatch {
                    len: b.len,
                    cols: cols.iter().map(|&c| b.cols[c].clone()).collect(),
                })
                .collect();
            timing(stats, "Project", rows_in, rows_in, bytes_in, t0);
            Ok(out)
        }
        ColKind::HashJoin {
            build,
            probe,
            build_keys,
            probe_keys,
        } => {
            let build_batches = eval(build, ctx, stats)?;
            let probe_batches = eval(probe, ctx, stats)?;
            hash_join(
                &build_batches,
                &probe_batches,
                build.width,
                probe.width,
                build_keys,
                probe_keys,
                /* probe_cols_first = */ false,
                &[],
                ctx,
                stats,
            )
        }
        ColKind::MergeJoin {
            left,
            right,
            left_keys,
            right_keys,
        } => {
            let lb = eval(left, ctx, stats)?;
            let rb = eval(right, ctx, stats)?;
            let rows_in = batches_rows(&lb) + batches_rows(&rb);
            let bytes_in = batches_bytes(&lb) + batches_bytes(&rb);
            let t0 = Instant::now();
            let lrows = batches_to_rows(&lb);
            let rrows = batches_to_rows(&rb);
            let key_of = |row: &Row, pos: &[usize]| -> Vec<Value> {
                pos.iter().map(|&i| row[i].clone()).collect()
            };
            let mut out_rows: Table = Vec::new();
            let (mut i, mut j) = (0usize, 0usize);
            while i < lrows.len() && j < rrows.len() {
                let lk = key_of(&lrows[i], left_keys);
                let rk = key_of(&rrows[j], right_keys);
                match lk.cmp(&rk) {
                    Ordering::Less => i += 1,
                    Ordering::Greater => j += 1,
                    Ordering::Equal => {
                        let i_end = (i..lrows.len())
                            .find(|&x| key_of(&lrows[x], left_keys) != lk)
                            .unwrap_or(lrows.len());
                        let j_end = (j..rrows.len())
                            .find(|&x| key_of(&rrows[x], right_keys) != rk)
                            .unwrap_or(rrows.len());
                        for lrow in &lrows[i..i_end] {
                            for rrow in &rrows[j..j_end] {
                                let mut combined = lrow.clone();
                                combined.extend(rrow.iter().cloned());
                                out_rows.push(combined);
                            }
                        }
                        i = i_end;
                        j = j_end;
                    }
                }
            }
            let out = rows_to_batches(&out_rows, op.width, ctx.cfg.batch_rows);
            timing(stats, "MergeJoin", rows_in, out_rows.len(), bytes_in, t0);
            Ok(out)
        }
        ColKind::NlJoin { left, right, preds } => {
            let lb = eval(left, ctx, stats)?;
            let rb = eval(right, ctx, stats)?;
            nl_join(&lb, &rb, left.width, right.width, preds, ctx, stats)
        }
        ColKind::Union { inputs } => {
            let mut out = Vec::new();
            let mut rows_in = 0;
            for i in inputs {
                let b = eval(i, ctx, stats)?;
                rows_in += batches_rows(&b);
                out.extend(b);
            }
            // Appending batch handles is the whole operator, so the timing
            // records the row count and no measurable work (the calibration
            // fit leaves `Union` and `Project` out for that reason).
            timing(stats, "Union", rows_in, rows_in, 0, Instant::now());
            Ok(out)
        }
        ColKind::Sort { input, keys } => {
            let in_batches = eval(input, ctx, stats)?;
            let rows_in = batches_rows(&in_batches);
            let bytes_in = batches_bytes(&in_batches);
            let t0 = Instant::now();
            let mut rows = batches_to_rows(&in_batches);
            rows.sort_by(|a, b| {
                for &i in keys {
                    let ord = a[i].cmp(&b[i]);
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
                Ordering::Equal
            });
            let out = rows_to_batches(&rows, op.width, ctx.cfg.batch_rows);
            timing(stats, "Sort", rows_in, rows_in, bytes_in, t0);
            Ok(out)
        }
        ColKind::HashAggregate {
            input,
            key_cols,
            aggs,
        } => {
            let in_batches = eval(input, ctx, stats)?;
            hash_aggregate(&in_batches, op.width, key_cols, aggs, ctx, stats)
        }
    }
}

// ---------------------------------------------------------------------------
// Hash join (in-memory + grace spill)
// ---------------------------------------------------------------------------

/// Shared join body. `probe_cols_first` controls output column order:
/// `false` = build ++ probe (HashJoin: build is the plan's left child),
/// `true` = probe ++ build (NlJoin lowered to hash: probe is the left/outer
/// child whose columns come first). `residual` predicates are applied to the
/// combined batch afterwards (positions in combined schema).
#[allow(clippy::too_many_arguments)]
fn hash_join(
    build_batches: &[ColBatch],
    probe_batches: &[ColBatch],
    build_width: usize,
    probe_width: usize,
    build_keys: &[usize],
    probe_keys: &[usize],
    probe_cols_first: bool,
    residual: &[LoweredPred],
    ctx: &Ctx<'_>,
    stats: &mut ColExecStats,
) -> Result<Vec<ColBatch>, ExecError> {
    let threads = qt_par::max_threads();
    let build_bytes = batches_bytes(build_batches);
    let op_build: &'static str = "HashJoinBuild";
    let op_probe: &'static str = "HashJoinProbe";
    if build_bytes > ctx.cfg.mem_budget_bytes {
        return spill_join(
            build_batches,
            probe_batches,
            build_width,
            probe_width,
            build_keys,
            probe_keys,
            probe_cols_first,
            residual,
            ctx,
            stats,
        );
    }
    let t0 = Instant::now();
    let build_all = concat_batches(build_batches, build_width);
    let table = build_join_table(&build_all, build_keys);
    timing(
        stats,
        op_build,
        build_all.len,
        build_all.len,
        build_bytes,
        t0,
    );
    let probe_rows = batches_rows(probe_batches);
    let probe_bytes = batches_bytes(probe_batches);
    let t0 = Instant::now();
    let mut out: Vec<ColBatch> = qt_par::par_map_ref(probe_batches, threads, |pb| {
        let (bidx, pidx) = probe_batch(pb, probe_keys, &table);
        let joined = if probe_cols_first {
            pb.gather(&pidx).hstack(build_all.gather(&bidx))
        } else {
            build_all.gather(&bidx).hstack(pb.gather(&pidx))
        };
        if residual.is_empty() {
            joined
        } else {
            filter_batch(&joined, residual)
        }
    })
    .into_iter()
    .filter(|b| b.len > 0)
    .collect();
    let rows_out = batches_rows(&out);
    timing(stats, op_probe, probe_rows, rows_out, probe_bytes, t0);
    // Normalize away zero-length batch vectors for stable downstream math.
    if rows_out == 0 {
        out.clear();
    }
    Ok(out)
}

/// Grace-hash join: partition both sides to disk by key hash, then join one
/// partition at a time. Rows carry sequence numbers so the merged output is
/// re-sorted into exactly the in-memory (= row executor) order.
#[allow(clippy::too_many_arguments)]
fn spill_join(
    build_batches: &[ColBatch],
    probe_batches: &[ColBatch],
    build_width: usize,
    probe_width: usize,
    build_keys: &[usize],
    probe_keys: &[usize],
    probe_cols_first: bool,
    residual: &[LoweredPred],
    ctx: &Ctx<'_>,
    stats: &mut ColExecStats,
) -> Result<Vec<ColBatch>, ExecError> {
    let parts = ctx.cfg.spill_partitions.max(1);
    let t0 = Instant::now();
    let spill_side =
        |batches: &[ColBatch], keys: &[usize]| -> Result<(Vec<SpillFile>, usize), ExecError> {
            let mut writers: Vec<SpillWriter> = (0..parts)
                .map(|_| SpillWriter::create())
                .collect::<Result<_, _>>()?;
            let mut seq = 0u64;
            for b in batches {
                for i in 0..b.len {
                    let key: Vec<Value> = keys.iter().map(|&k| b.value_at(k, i)).collect();
                    writers[partition_of(&key, parts)].push(seq, &b.row(i))?;
                    seq += 1;
                }
            }
            let files: Vec<SpillFile> = writers
                .into_iter()
                .map(SpillWriter::finish)
                .collect::<Result<_, _>>()?;
            Ok((files, seq as usize))
        };
    let (bfiles, build_rows) = spill_side(build_batches, build_keys)?;
    let (pfiles, probe_rows) = spill_side(probe_batches, probe_keys)?;
    for f in bfiles.iter().chain(&pfiles) {
        stats.spill_files += 1;
        stats.spill_rows += f.rows;
        stats.spill_bytes += f.bytes;
    }
    timing(
        stats,
        "HashJoinBuild",
        build_rows,
        build_rows,
        batches_bytes(build_batches),
        t0,
    );

    let t0 = Instant::now();
    // (probe_seq, build_seq, combined row) — sorted at the end to restore
    // the probe-major, build-insertion-minor oracle order.
    let mut tagged: Vec<(u64, u64, Row)> = Vec::new();
    for (bf, pf) in bfiles.iter().zip(&pfiles) {
        let brows = bf.read_all()?;
        let mut table: HashMap<Vec<Value>, Vec<(u64, Row)>> = HashMap::new();
        for (seq, row) in brows {
            let key: Vec<Value> = build_keys.iter().map(|&k| row[k].clone()).collect();
            table.entry(key).or_default().push((seq, row));
        }
        for (pseq, prow) in pf.read_all()? {
            let key: Vec<Value> = probe_keys.iter().map(|&k| prow[k].clone()).collect();
            if let Some(matches) = table.get(&key) {
                for (bseq, brow) in matches {
                    let mut combined = if probe_cols_first {
                        let mut c = prow.clone();
                        c.extend(brow.iter().cloned());
                        c
                    } else {
                        let mut c = brow.clone();
                        c.extend(prow.iter().cloned());
                        c
                    };
                    if !residual.is_empty() {
                        let keep = residual.iter().all(|p| {
                            let l = &combined[p.left];
                            match &p.right {
                                LoweredOperand::Const(v) => p.op.eval(l, v),
                                LoweredOperand::Col(c) => p.op.eval(l, &combined[*c]),
                            }
                        });
                        if !keep {
                            continue;
                        }
                    }
                    combined.shrink_to_fit();
                    tagged.push((pseq, *bseq, combined));
                }
            }
        }
    }
    tagged.sort_unstable_by_key(|t| (t.0, t.1));
    let rows: Table = tagged.into_iter().map(|(_, _, r)| r).collect();
    let out = rows_to_batches(&rows, build_width + probe_width, ctx.cfg.batch_rows);
    timing(
        stats,
        "HashJoinProbe",
        probe_rows,
        rows.len(),
        batches_bytes(probe_batches),
        t0,
    );
    Ok(out)
}

/// Nested-loop join. Pure equi-join predicate sets lower to a hash join with
/// the outer (left) side probing — output order (left-major, right
/// insertion-minor) and column order (left ++ right) match the row executor's
/// pair loop exactly. Anything else falls back to the literal pair loop.
fn nl_join(
    lb: &[ColBatch],
    rb: &[ColBatch],
    left_width: usize,
    right_width: usize,
    preds: &[LoweredPred],
    ctx: &Ctx<'_>,
    stats: &mut ColExecStats,
) -> Result<Vec<ColBatch>, ExecError> {
    // Split predicates into cross-side equalities and residuals.
    let mut lkeys = Vec::new();
    let mut rkeys = Vec::new();
    let mut residual = Vec::new();
    for p in preds {
        if p.op == CompOp::Eq {
            if let LoweredOperand::Col(rc) = p.right {
                let (a, b) = (p.left, rc);
                if a < left_width && b >= left_width {
                    lkeys.push(a);
                    rkeys.push(b - left_width);
                    continue;
                }
                if b < left_width && a >= left_width {
                    lkeys.push(b);
                    rkeys.push(a - left_width);
                    continue;
                }
            }
        }
        residual.push(p.clone());
    }
    if !lkeys.is_empty() {
        // Build on the inner (right) side, probe with the outer (left) side.
        return hash_join(
            rb,
            lb,
            right_width,
            left_width,
            &rkeys,
            &lkeys,
            /* probe_cols_first = */ true,
            &residual,
            ctx,
            stats,
        );
    }
    let rows_in = batches_rows(lb) + batches_rows(rb);
    let bytes_in = batches_bytes(lb) + batches_bytes(rb);
    let t0 = Instant::now();
    let lrows = batches_to_rows(lb);
    let rrows = batches_to_rows(rb);
    let mut out_rows: Table = Vec::new();
    for lrow in &lrows {
        for rrow in &rrows {
            let mut combined = lrow.clone();
            combined.extend(rrow.iter().cloned());
            let keep = preds.iter().all(|p| {
                let l = &combined[p.left];
                match &p.right {
                    LoweredOperand::Const(v) => p.op.eval(l, v),
                    LoweredOperand::Col(c) => p.op.eval(l, &combined[*c]),
                }
            });
            if keep {
                out_rows.push(combined);
            }
        }
    }
    let out = rows_to_batches(&out_rows, left_width + right_width, ctx.cfg.batch_rows);
    timing(stats, "NlJoin", rows_in, out_rows.len(), bytes_in, t0);
    Ok(out)
}

// ---------------------------------------------------------------------------
// Hash aggregation (in-memory + grace spill)
// ---------------------------------------------------------------------------

/// Group-id assignment: specialized on a single non-null Int key, on a
/// single non-null dictionary-coded Str key, or generic.
enum GroupKeys {
    Int(IntIds),
    /// Strings are hashed once per (dictionary, code), not once per row:
    /// `code_gid[code]` caches the group of a code of the dictionary `of`,
    /// and is kept across consecutive batches that share that dictionary.
    Str {
        map: HashMap<Arc<str>, u32>,
        of: Option<Arc<[Arc<str>]>>,
        code_gid: Vec<u32>,
    },
    Generic(HashMap<Vec<Value>, u32>),
}

/// `code_gid` entry of a dictionary code no row has referred to yet.
const UNRESOLVED: u32 = u32::MAX;

/// Aggregate groups, flat and in first-seen order: group `g`'s key is
/// `keys[g * nk..(g + 1) * nk]` and its `j`-th aggregate state
/// `states[g * aggs.len() + j]` — no allocation per group.
struct Groups<'a> {
    aggs: &'a [(AggFunc, Option<usize>)],
    keys: Vec<Value>,
    states: Vec<AggState>,
    len: usize,
}

impl Groups<'_> {
    /// Appends a group keyed `key`; returns its id. Kept out of line: it runs
    /// once per group, and inlined it bloats the per-row id loops that call
    /// it (the dictionary-code loop ran ~20 % slower).
    #[inline(never)]
    fn add(&mut self, key: &[Value]) -> u32 {
        self.keys.extend_from_slice(key);
        self.states
            .extend(self.aggs.iter().map(|&(f, _)| AggState::new(f)));
        self.len += 1;
        (self.len - 1) as u32
    }

    /// The groups as rows `key ++ finished states`, straight into typed
    /// columns cut at `batch_rows`.
    fn emit(self, nk: usize, batch_rows: usize) -> Vec<ColBatch> {
        let na = self.aggs.len();
        let finished: Vec<Value> = self.states.into_iter().map(AggState::finish).collect();
        let column = |flat: &[Value], stride: usize, c: usize, groups: std::ops::Range<usize>| {
            Arc::new(Column::from_values(groups.map(|g| &flat[g * stride + c])))
        };
        let step = batch_rows.max(1);
        (0..self.len)
            .step_by(step)
            .map(|lo| {
                let groups = lo..(lo + step).min(self.len);
                ColBatch {
                    len: groups.len(),
                    cols: (0..nk)
                        .map(|c| column(&self.keys, nk, c, groups.clone()))
                        .chain((0..na).map(|j| column(&finished, na, j, groups.clone())))
                        .collect(),
                }
            })
            .collect()
    }
}

/// The column `key` of every batch as non-null `i64`s, if it is one in all
/// of them.
fn int_key_cols(batches: &[ColBatch], key: usize) -> Option<Vec<&[i64]>> {
    batches
        .iter()
        .map(|b| match &*b.cols[key] {
            Column::Int {
                vals,
                validity: None,
            } => Some(vals.as_slice()),
            _ => None,
        })
        .collect()
}

fn hash_aggregate(
    in_batches: &[ColBatch],
    width: usize,
    key_cols: &[usize],
    aggs: &[(AggFunc, Option<usize>)],
    ctx: &Ctx<'_>,
    stats: &mut ColExecStats,
) -> Result<Vec<ColBatch>, ExecError> {
    let rows_in = batches_rows(in_batches);
    let bytes_in = batches_bytes(in_batches);
    if bytes_in > ctx.cfg.mem_budget_bytes {
        return spill_aggregate(in_batches, width, key_cols, aggs, ctx, stats);
    }
    let t0 = Instant::now();
    let single_key = key_cols.len() == 1;
    let int_cols = single_key
        .then(|| int_key_cols(in_batches, key_cols[0]))
        .flatten();
    let mut keys = if let Some(cols) = int_cols {
        // The input rows bound the groups the index must hold; a hashed
        // index starts empty and grows, as it always has.
        GroupKeys::Int(IntIds::over(&cols, 0))
    } else if single_key
        && in_batches
            .iter()
            .all(|b| matches!(&*b.cols[key_cols[0]], Column::Str { validity: None, .. }))
    {
        GroupKeys::Str {
            map: HashMap::new(),
            of: None,
            code_gid: Vec::new(),
        }
    } else {
        GroupKeys::Generic(HashMap::new())
    };
    let na = aggs.len();
    let mut groups = Groups {
        aggs,
        keys: Vec::new(),
        states: Vec::new(),
        len: 0,
    };
    let mut gids: Vec<u32> = Vec::new();
    for b in in_batches {
        gids.clear();
        gids.reserve(b.len);
        match &mut keys {
            GroupKeys::Int(ids) => {
                if let Column::Int { vals, .. } = &*b.cols[key_cols[0]] {
                    ids.assign(vals, &mut gids, |k| {
                        groups.add(&[Value::Int(k)]);
                    });
                }
            }
            GroupKeys::Str { map, of, code_gid } => {
                if let Column::Str { dict, codes, .. } = &*b.cols[key_cols[0]] {
                    if !of.as_ref().is_some_and(|d| Arc::ptr_eq(d, dict)) {
                        *of = Some(dict.clone());
                        code_gid.clear();
                        code_gid.resize(dict.len(), UNRESOLVED);
                    }
                    // A code is resolved at its first row, so a group is
                    // created exactly where the row executor first sees it.
                    for &code in codes {
                        let slot = &mut code_gid[code as usize];
                        if *slot == UNRESOLVED {
                            let s = &dict[code as usize];
                            *slot = *map
                                .entry(s.clone())
                                .or_insert_with(|| groups.add(&[Value::Str(s.clone())]));
                        }
                        gids.push(*slot);
                    }
                }
            }
            GroupKeys::Generic(map) => {
                for i in 0..b.len {
                    let key: Vec<Value> = key_cols.iter().map(|&k| b.value_at(k, i)).collect();
                    let gid = match map.get(&key) {
                        Some(&gid) => gid,
                        None => {
                            let gid = groups.add(&key);
                            map.insert(key, gid);
                            gid
                        }
                    };
                    gids.push(gid);
                }
            }
        }
        for (j, &(func, arg)) in aggs.iter().enumerate() {
            fold_agg_column(b, &gids, func, arg, j, na, &mut groups.states)?;
        }
    }
    // Scalar aggregate over zero rows still yields one (NULL-heavy) row.
    if key_cols.is_empty() && groups.len == 0 {
        groups.add(&[]);
    }
    let rows_out = groups.len;
    let out = groups.emit(key_cols.len(), ctx.cfg.batch_rows);
    timing(stats, "HashAggregate", rows_in, rows_out, bytes_in, t0);
    Ok(out)
}

/// Fold aggregate `j` (of `na` per group) over a whole batch, vectorized per
/// column type. The per-state fold order is the input row order, identical
/// to the row executor's per-row fold.
fn fold_agg_column(
    b: &ColBatch,
    gids: &[u32],
    func: AggFunc,
    arg: Option<usize>,
    j: usize,
    na: usize,
    states: &mut [AggState],
) -> Result<(), ExecError> {
    let at = |g: u32| g as usize * na + j;
    match (func, arg.map(|a| &*b.cols[a])) {
        (AggFunc::Count, _) => {
            for &g in gids {
                if let AggState::Count(n) = &mut states[at(g)] {
                    *n += 1;
                }
            }
        }
        (
            AggFunc::Sum,
            Some(Column::Int {
                vals,
                validity: None,
            }),
        ) => {
            for (&g, &v) in gids.iter().zip(vals) {
                if let AggState::Sum(acc) = &mut states[at(g)] {
                    acc.add_int(v);
                }
            }
        }
        (
            AggFunc::Sum,
            Some(Column::Float {
                vals,
                validity: None,
            }),
        ) => {
            for (&g, &v) in gids.iter().zip(vals) {
                if let AggState::Sum(acc) = &mut states[at(g)] {
                    acc.add_float(v);
                }
            }
        }
        _ => {
            for (i, &g) in gids.iter().enumerate() {
                let v = arg.map(|a| b.value_at(a, i));
                states[at(g)].fold(v.as_ref())?;
            }
        }
    }
    Ok(())
}

/// Grace-hash aggregation: partition input rows to disk by group-key hash,
/// fold one partition's groups at a time, then emit groups in global
/// first-seen order via carried sequence numbers.
fn spill_aggregate(
    in_batches: &[ColBatch],
    width: usize,
    key_cols: &[usize],
    aggs: &[(AggFunc, Option<usize>)],
    ctx: &Ctx<'_>,
    stats: &mut ColExecStats,
) -> Result<Vec<ColBatch>, ExecError> {
    let rows_in = batches_rows(in_batches);
    let bytes_in = batches_bytes(in_batches);
    let parts = ctx.cfg.spill_partitions.max(1);
    let t0 = Instant::now();
    let mut writers: Vec<SpillWriter> = (0..parts)
        .map(|_| SpillWriter::create())
        .collect::<Result<_, _>>()?;
    let mut seq = 0u64;
    for b in in_batches {
        for i in 0..b.len {
            let key: Vec<Value> = key_cols.iter().map(|&k| b.value_at(k, i)).collect();
            writers[partition_of(&key, parts)].push(seq, &b.row(i))?;
            seq += 1;
        }
    }
    let files: Vec<SpillFile> = writers
        .into_iter()
        .map(SpillWriter::finish)
        .collect::<Result<_, _>>()?;
    for f in &files {
        stats.spill_files += 1;
        stats.spill_rows += f.rows;
        stats.spill_bytes += f.bytes;
    }
    // (first-seen seq, key row, states)
    let mut finished: Vec<(u64, Vec<Value>, Vec<AggState>)> = Vec::new();
    for f in &files {
        let mut map: HashMap<Vec<Value>, usize> = HashMap::new();
        let mut local: Vec<(u64, Vec<Value>, Vec<AggState>)> = Vec::new();
        for (seq, row) in f.read_all()? {
            let key: Vec<Value> = key_cols.iter().map(|&k| row[k].clone()).collect();
            let slot = *map.entry(key.clone()).or_insert_with(|| {
                local.push((
                    seq,
                    key,
                    aggs.iter().map(|&(f, _)| AggState::new(f)).collect(),
                ));
                local.len() - 1
            });
            for (j, &(_, arg)) in aggs.iter().enumerate() {
                let v = arg.map(|a| row[a].clone());
                local[slot].2[j].fold(v.as_ref())?;
            }
        }
        finished.extend(local);
    }
    finished.sort_unstable_by_key(|(s, _, _)| *s);
    let mut out_rows: Table = finished
        .into_iter()
        .map(|(_, mut key, st)| {
            key.extend(st.into_iter().map(AggState::finish));
            key
        })
        .collect();
    if key_cols.is_empty() && out_rows.is_empty() {
        out_rows.push(
            aggs.iter()
                .map(|&(f, _)| AggState::new(f).finish())
                .collect(),
        );
    }
    let out = rows_to_batches(&out_rows, width, ctx.cfg.batch_rows);
    timing(
        stats,
        "HashAggregate",
        rows_in,
        out_rows.len(),
        bytes_in,
        t0,
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use qt_catalog::RelId;
    use std::collections::BTreeMap;

    struct Mem(BTreeMap<PartId, Table>);

    impl RowSource for Mem {
        fn rows_of(&self, part: PartId) -> Option<&[Row]> {
            self.0.get(&part).map(|t| t.as_slice())
        }
    }

    fn store(n: i64) -> Mem {
        let r: Table = (0..n)
            .map(|i| {
                vec![
                    Value::Int(i % 17),
                    Value::Int(i),
                    Value::Float(i as f64 * 0.5),
                ]
            })
            .collect();
        let s: Table = (0..n / 2)
            .map(|i| vec![Value::Int(i % 23), Value::str(format!("s{}", i % 5))])
            .collect();
        Mem(
            [(PartId::new(RelId(0), 0), r), (PartId::new(RelId(1), 0), s)]
                .into_iter()
                .collect(),
        )
    }

    fn scan(rel: u32, arity: usize) -> PhysPlan {
        PhysPlan::Scan {
            part: PartId::new(RelId(rel), 0),
            arity,
        }
    }

    fn demo_plan() -> PhysPlan {
        PhysPlan::HashAggregate {
            input: Box::new(PhysPlan::HashJoin {
                left: Box::new(PhysPlan::Filter {
                    input: Box::new(scan(0, 3)),
                    predicates: vec![Predicate::with_const(
                        Col::new(RelId(0), 1),
                        CompOp::Ge,
                        10i64,
                    )],
                }),
                right: Box::new(scan(1, 2)),
                left_keys: vec![Col::new(RelId(0), 0)],
                right_keys: vec![Col::new(RelId(1), 0)],
            }),
            group_by: vec![Col::new(RelId(1), 1)],
            aggs: vec![
                AggSpec {
                    func: AggFunc::Sum,
                    arg: Some(Col::new(RelId(0), 1)),
                },
                AggSpec {
                    func: AggFunc::Count,
                    arg: None,
                },
                AggSpec {
                    func: AggFunc::Min,
                    arg: Some(Col::new(RelId(0), 2)),
                },
            ],
        }
    }

    fn assert_oracle_match(plan: &PhysPlan, src: &Mem, cfg: &ColumnarConfig) -> ColExecStats {
        let oracle = execute(plan, src, &[]).unwrap();
        let (got, stats) = execute_columnar_with_stats(plan, src, &[], cfg).unwrap();
        assert_eq!(got, oracle);
        stats
    }

    #[test]
    fn matches_row_executor_across_batch_sizes() {
        let src = store(500);
        let plan = demo_plan();
        for batch_rows in [1, 7, 1024] {
            let cfg = ColumnarConfig {
                batch_rows,
                ..Default::default()
            };
            let stats = assert_oracle_match(&plan, &src, &cfg);
            assert_eq!(stats.spill_rows, 0);
            assert!(stats.timings.iter().any(|t| t.op == "HashAggregate"));
        }
    }

    #[test]
    fn tiny_budget_spills_and_stays_bit_identical() {
        let src = store(400);
        let plan = demo_plan();
        let cfg = ColumnarConfig {
            batch_rows: 64,
            mem_budget_bytes: 256,
            spill_partitions: 4,
        };
        let stats = assert_oracle_match(&plan, &src, &cfg);
        assert!(stats.spill_files > 0);
        assert!(stats.spill_rows > 0);
        assert!(stats.spill_bytes > 0);
    }

    #[test]
    fn nl_join_equi_lowering_matches_pair_loop_order() {
        let src = store(120);
        let plan = PhysPlan::NlJoin {
            left: Box::new(scan(0, 3)),
            right: Box::new(scan(1, 2)),
            predicates: vec![
                Predicate::eq_cols(Col::new(RelId(0), 0), Col::new(RelId(1), 0)),
                Predicate::with_const(Col::new(RelId(0), 1), CompOp::Lt, 100i64),
            ],
        };
        assert_oracle_match(&plan, &src, &ColumnarConfig::default());
        // And with a budget that forces the equi-lowered join to spill.
        assert_oracle_match(
            &plan,
            &src,
            &ColumnarConfig {
                mem_budget_bytes: 128,
                ..Default::default()
            },
        );
    }

    #[test]
    fn non_equi_nl_union_sort_project_match() {
        let src = store(60);
        let plan = PhysPlan::Sort {
            input: Box::new(PhysPlan::Project {
                input: Box::new(PhysPlan::NlJoin {
                    left: Box::new(PhysPlan::Union {
                        inputs: vec![scan(0, 3), scan(0, 3)],
                    }),
                    right: Box::new(scan(1, 2)),
                    predicates: vec![Predicate {
                        left: Col::new(RelId(0), 0),
                        op: CompOp::Lt,
                        right: Operand::Col(Col::new(RelId(1), 0)),
                    }],
                }),
                cols: vec![Col::new(RelId(1), 1), Col::new(RelId(0), 1)],
            }),
            keys: vec![Col::new(RelId(0), 1)],
        };
        assert_oracle_match(&plan, &src, &ColumnarConfig::default());
    }

    #[test]
    fn merge_join_and_input_slots_match() {
        let src = store(80);
        let sorted = |rel: u32, arity: usize, key: Col| PhysPlan::Sort {
            input: Box::new(scan(rel, arity)),
            keys: vec![key],
        };
        let plan = PhysPlan::MergeJoin {
            left: Box::new(sorted(0, 3, Col::new(RelId(0), 0))),
            right: Box::new(sorted(1, 2, Col::new(RelId(1), 0))),
            left_keys: vec![Col::new(RelId(0), 0)],
            right_keys: vec![Col::new(RelId(1), 0)],
        };
        assert_oracle_match(&plan, &src, &ColumnarConfig::default());

        let table = vec![
            vec![Value::Int(3), Value::Null],
            vec![Value::str("x"), Value::Float(1.5)],
        ];
        let p = PhysPlan::Input {
            slot: 0,
            schema: vec![Col::new(RelId(5), 0), Col::new(RelId(5), 1)],
        };
        let oracle = execute(&p, &src, std::slice::from_ref(&table)).unwrap();
        let got = execute_columnar(
            &p,
            &src,
            std::slice::from_ref(&table),
            &ColumnarConfig::default(),
        )
        .unwrap();
        assert_eq!(got, oracle);
    }

    #[test]
    fn errors_match_row_executor() {
        let src = store(10);
        let missing = PhysPlan::Scan {
            part: PartId::new(RelId(9), 0),
            arity: 1,
        };
        assert_eq!(
            execute_columnar(&missing, &src, &[], &ColumnarConfig::default()),
            Err(ExecError::MissingPartition(PartId::new(RelId(9), 0)))
        );
        let bad_col = PhysPlan::Project {
            input: Box::new(scan(0, 3)),
            cols: vec![Col::new(RelId(7), 0)],
        };
        assert!(matches!(
            execute_columnar(&bad_col, &src, &[], &ColumnarConfig::default()),
            Err(ExecError::UnresolvedColumn(_))
        ));
    }

    #[test]
    fn null_and_mixed_columns_roundtrip() {
        let rows: Table = vec![
            vec![Value::Int(1), Value::Null, Value::str("a")],
            vec![Value::Null, Value::Float(2.5), Value::str("b")],
            vec![Value::Int(3), Value::Int(7), Value::str("a")],
        ];
        let b = ColBatch::from_rows(&rows, 3);
        assert!(matches!(*b.cols[1], Column::Mixed(_)));
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(&b.row(i), r);
        }
        let taken = b.gather(&[2, 0]);
        assert_eq!(taken.row(0), rows[2]);
        assert_eq!(taken.row(1), rows[0]);
    }

    /// (string key, float payload) rows; `None` = a NULL key.
    fn keyed(rows: &[(Option<&str>, f64)]) -> Mem {
        let rows = rows
            .iter()
            .map(|(k, x)| vec![k.map_or(Value::Null, Value::str), Value::Float(*x)])
            .collect();
        Mem([(PartId::new(RelId(0), 0), rows)].into_iter().collect())
    }

    fn sum_by_key() -> PhysPlan {
        PhysPlan::HashAggregate {
            input: Box::new(scan(0, 2)),
            group_by: vec![Col::new(RelId(0), 0)],
            aggs: vec![AggSpec {
                func: AggFunc::Sum,
                arg: Some(Col::new(RelId(0), 1)),
            }],
        }
    }

    #[test]
    fn str_keys_group_by_code_across_differing_dictionaries() {
        // Batches of 3: dictionaries {b,a}, {c,a}, {b,c,d} — they differ,
        // overlap, and number the same string differently. The float sums
        // only come out bit-equal when each group folds in input-row order.
        let src = keyed(&[
            (Some("b"), 0.1),
            (Some("a"), 0.2),
            (Some("b"), 0.3),
            (Some("c"), 1e16),
            (Some("a"), -0.7),
            (Some("c"), 1.0),
            (Some("b"), 1e-9),
            (Some("c"), -1e16),
            (Some("d"), 0.5),
        ]);
        for batch_rows in [1, 3, 1024] {
            let cfg = ColumnarConfig {
                batch_rows,
                ..Default::default()
            };
            assert_oracle_match(&sum_by_key(), &src, &cfg);
        }
        let got = execute_columnar(&sum_by_key(), &src, &[], &ColumnarConfig::default()).unwrap();
        let order: Vec<&Value> = got.iter().map(|r| &r[0]).collect();
        assert_eq!(
            order,
            [
                &Value::str("b"),
                &Value::str("a"),
                &Value::str("c"),
                &Value::str("d")
            ],
            "groups appear in first-seen order"
        );
    }

    #[test]
    fn null_str_key_takes_the_generic_path() {
        let src = keyed(&[
            (Some("a"), 1.5),
            (None, 2.5),
            (Some("a"), 0.25),
            (None, -1.0),
            (Some("b"), 4.0),
        ]);
        for batch_rows in [2, 1024] {
            let cfg = ColumnarConfig {
                batch_rows,
                ..Default::default()
            };
            assert_oracle_match(&sum_by_key(), &src, &cfg);
        }
    }

    #[test]
    fn str_key_groups_survive_a_shared_dictionary() {
        // Join output batches are gathered from one probe batch each and
        // share its dictionary, unused entries included.
        let src = store(300);
        let plan = PhysPlan::HashAggregate {
            input: Box::new(PhysPlan::HashJoin {
                left: Box::new(scan(0, 3)),
                right: Box::new(scan(1, 2)),
                left_keys: vec![Col::new(RelId(0), 0)],
                right_keys: vec![Col::new(RelId(1), 0)],
            }),
            group_by: vec![Col::new(RelId(1), 1)],
            aggs: vec![AggSpec {
                func: AggFunc::Sum,
                arg: Some(Col::new(RelId(0), 2)),
            }],
        };
        for batch_rows in [1, 7, 1024] {
            let cfg = ColumnarConfig {
                batch_rows,
                ..Default::default()
            };
            assert_oracle_match(&plan, &src, &cfg);
        }
    }

    /// Two relations of (key, payload) rows, the keys as given.
    fn two(build: &[Value], probe: &[Value]) -> Mem {
        let rel = |keys: &[Value]| -> Table {
            keys.iter()
                .enumerate()
                .map(|(i, k)| vec![k.clone(), Value::Int(i as i64)])
                .collect()
        };
        Mem([
            (PartId::new(RelId(0), 0), rel(build)),
            (PartId::new(RelId(1), 0), rel(probe)),
        ]
        .into_iter()
        .collect())
    }

    /// `rel0 ⋈ rel1` on their first columns, building on `rel0`.
    fn key_join() -> PhysPlan {
        PhysPlan::HashJoin {
            left: Box::new(scan(0, 2)),
            right: Box::new(scan(1, 2)),
            left_keys: vec![Col::new(RelId(0), 0)],
            right_keys: vec![Col::new(RelId(1), 0)],
        }
    }

    /// `SUM(payload), COUNT(*)` of `rel` grouped by its first column.
    fn per_key(rel: u32) -> PhysPlan {
        PhysPlan::HashAggregate {
            input: Box::new(scan(rel, 2)),
            group_by: vec![Col::new(RelId(rel), 0)],
            aggs: vec![
                AggSpec {
                    func: AggFunc::Sum,
                    arg: Some(Col::new(RelId(rel), 1)),
                },
                AggSpec {
                    func: AggFunc::Count,
                    arg: None,
                },
            ],
        }
    }

    fn ints(keys: &[i64]) -> Vec<Value> {
        keys.iter().map(|&k| Value::Int(k)).collect()
    }

    /// Whether the join table built over `keys` indexes them directly.
    fn join_is_direct(keys: &[i64]) -> bool {
        let build = ColBatch::from_rows(
            &keys.iter().map(|&k| vec![Value::Int(k)]).collect::<Table>(),
            1,
        );
        match build_join_table(&build, &[0]) {
            JoinTable::Int { ids, .. } => matches!(ids.index, IdIndex::Direct { .. }),
            JoinTable::Generic(_) => panic!("a non-null Int key takes the Int table"),
        }
    }

    /// Join and group-by of `build`/`probe` keys equal the row oracle at
    /// batch sizes 1, 7 and 1024.
    fn assert_keys_match(build: &[Value], probe: &[Value]) {
        let src = two(build, probe);
        for batch_rows in [1, 7, 1024] {
            let cfg = ColumnarConfig {
                batch_rows,
                ..Default::default()
            };
            for plan in [key_join(), per_key(0), per_key(1)] {
                assert_oracle_match(&plan, &src, &cfg);
            }
        }
    }

    /// Build keys repeat across batches (k5, k9, k5, k7, k9, k5, ...); probe
    /// keys include a value the build side lacks, a NULL and a string.
    fn join_keeps_build_order(key: fn(i64) -> i64) {
        let build: Table = (0..40)
            .map(|i| vec![Value::Int(key([5, 9, 5, 7][i % 4])), Value::Int(i as i64)])
            .collect();
        let probe: Table = vec![
            vec![Value::Int(key(9)), Value::str("p0")],
            vec![Value::Int(key(6)), Value::str("p1")],
            vec![Value::Null, Value::str("p2")],
            vec![Value::Int(key(5)), Value::str("p3")],
            vec![Value::str("5"), Value::str("p4")],
            vec![Value::Int(key(9)), Value::str("p5")],
        ];
        let src = Mem([
            (PartId::new(RelId(0), 0), build),
            (PartId::new(RelId(1), 0), probe),
        ]
        .into_iter()
        .collect());
        let plan = key_join();
        for batch_rows in [1, 7, 1024] {
            let cfg = ColumnarConfig {
                batch_rows,
                ..Default::default()
            };
            assert_oracle_match(&plan, &src, &cfg);
        }
        let got = execute_columnar(&plan, &src, &[], &ColumnarConfig::default()).unwrap();
        let of_p3: Vec<i64> = got
            .iter()
            .filter(|r| r[3] == Value::str("p3"))
            .map(|r| r[1].as_int().unwrap())
            .collect();
        assert_eq!(of_p3.len(), 20);
        assert!(
            of_p3.windows(2).all(|w| w[0] < w[1]),
            "build order: {of_p3:?}"
        );
    }

    #[test]
    fn int_join_table_keeps_build_order_for_duplicate_and_absent_keys() {
        assert!(join_is_direct(&[5, 9, 7]));
        join_keeps_build_order(|k| k);
    }

    #[test]
    fn hashed_int_join_table_keeps_build_order_for_duplicate_and_absent_keys() {
        let spread = |k: i64| k << 50;
        assert!(!join_is_direct(&[spread(5), spread(9), spread(7)]));
        join_keeps_build_order(spread);
    }

    #[test]
    fn negative_keys_index_directly() {
        let build = [-7, -3, -7, 0, -1, -3, 2];
        assert!(join_is_direct(&build));
        assert_keys_match(&ints(&build), &ints(&[-3, -8, 2, -7, 3, -1, i64::MIN]));
    }

    #[test]
    fn a_build_holding_both_extremes_is_hashed() {
        let build = [i64::MAX, 0, i64::MIN, -1, i64::MAX];
        assert!(!join_is_direct(&build));
        assert_keys_match(
            &ints(&build),
            &ints(&[i64::MIN, 1, i64::MAX, -1, 0, i64::MIN + 1]),
        );
    }

    #[test]
    fn probe_keys_outside_the_direct_range_miss() {
        // Near the top of the domain `key - min` wraps for a probe at the
        // bottom, and near the bottom for a probe at the top: both must land
        // past the slot array, not on a slot.
        let top = [i64::MAX - 2, i64::MAX, i64::MAX - 1];
        let bottom = [i64::MIN + 2, i64::MIN, i64::MIN + 1];
        for build in [top, bottom] {
            assert!(join_is_direct(&build));
            let probe = [i64::MIN, i64::MIN + 1, i64::MIN + 2, i64::MIN + 3, -1, 0, 1]
                .into_iter()
                .chain([i64::MAX, i64::MAX - 1, i64::MAX - 2, i64::MAX - 3]);
            assert_keys_match(&ints(&build), &ints(&probe.collect::<Vec<_>>()));
        }
        let build = [10, 12, 11];
        assert_keys_match(&ints(&build), &ints(&[9, 13, 10, 12, -10, 0, 1 << 40]));
    }

    #[test]
    fn null_float_and_str_probe_keys_miss_a_direct_table() {
        let build = [5, 6, 5, 7];
        assert!(join_is_direct(&build));
        // A nullable Int probe column, then a Mixed one.
        let nullable = [Value::Int(5), Value::Null, Value::Int(7), Value::Null];
        let mixed = [
            Value::Float(5.0),
            Value::Int(6),
            Value::str("5"),
            Value::Null,
            Value::Int(5),
            Value::Float(7.0),
        ];
        for probe in [&nullable[..], &mixed[..]] {
            assert_keys_match(&ints(&build), probe);
        }
    }

    #[test]
    fn the_direct_index_is_chosen_by_memory_up_to_the_boundary() {
        // 8 keys reserve 16 buckets × 17 bytes + 16 = 288 bytes hashed: a
        // span of 72 four-byte slots fits exactly, 73 does not.
        assert_eq!(hashed_bytes(8), 288);
        assert_eq!(hashed_bytes(7924), 16_384 * 17 + 16);
        for (max, direct) in [(71, true), (72, false)] {
            let build = [0, 1, 2, 3, 4, 5, 6, max];
            assert_eq!(join_is_direct(&build), direct, "span {}", max + 1);
            assert_eq!(
                matches!(IntIds::over(&[&build[..]], 0).index, IdIndex::Direct { .. }),
                direct
            );
            assert_keys_match(&ints(&build), &ints(&[max, 6, max - 1, 0, 8]));
        }
    }

    #[test]
    fn more_groups_than_a_batch_come_out_in_first_seen_order() {
        // 50 distinct keys first seen in a scrambled order, each seen again.
        let order: Vec<i64> = (0..50).map(|i| (i * 37) % 50).collect();
        let spreads: [fn(i64) -> i64; 2] = [|k| k - 25, |k| k << 40];
        for key in spreads {
            let keys: Vec<i64> = order
                .iter()
                .chain(order.iter().rev())
                .map(|&k| key(k))
                .collect();
            assert_eq!(
                matches!(IntIds::over(&[&keys[..]], 0).index, IdIndex::Direct { .. }),
                key(1) - key(0) == 1
            );
            let src = two(&ints(&keys), &[]);
            let cfg = ColumnarConfig {
                batch_rows: 7,
                ..Default::default()
            };
            let (out, _) = execute_columnar_batches(&per_key(0), &src, &[], &cfg).unwrap();
            assert_eq!(out.len(), 8, "50 groups cut at 7");
            assert!(out.iter().all(|b| b.len <= 7));
            let firsts: Vec<Value> = batches_to_rows(&out)
                .into_iter()
                .map(|r| r[0].clone())
                .collect();
            assert_eq!(firsts, ints(&keys[..50]));
            assert_oracle_match(&per_key(0), &src, &cfg);
        }
    }

    #[test]
    fn scalar_aggregate_over_zero_rows_emits_one_row() {
        let src = store(40);
        let plan = PhysPlan::HashAggregate {
            input: Box::new(PhysPlan::Filter {
                input: Box::new(scan(0, 3)),
                predicates: vec![Predicate::with_const(
                    Col::new(RelId(0), 1),
                    CompOp::Lt,
                    0i64,
                )],
            }),
            group_by: vec![],
            aggs: [AggFunc::Sum, AggFunc::Count, AggFunc::Min, AggFunc::Avg]
                .into_iter()
                .map(|func| AggSpec {
                    func,
                    arg: (func != AggFunc::Count).then_some(Col::new(RelId(0), 2)),
                })
                .collect(),
        };
        for batch_rows in [1, 1024] {
            let cfg = ColumnarConfig {
                batch_rows,
                ..Default::default()
            };
            assert_oracle_match(&plan, &src, &cfg);
        }
        let got = execute_columnar(&plan, &src, &[], &ColumnarConfig::default()).unwrap();
        assert_eq!(
            got,
            vec![vec![
                Value::Null,
                Value::Int(0),
                Value::Null,
                Value::Float(0.0)
            ]]
        );
    }

    /// 200 rows whose string column has 40 distinct 100-byte values, as one
    /// batch: a 4 000-byte dictionary.
    fn long_strings() -> Table {
        (0..200)
            .map(|i| vec![Value::str(format!("{:0>100}", i % 40)), Value::Int(i)])
            .collect()
    }

    #[test]
    fn batches_sharing_a_dictionary_count_it_once() {
        let one = ColBatch::from_rows(&long_strings(), 2);
        let payload = 200 * 4 + 200 * 8;
        assert_eq!(one.bytes(), payload + 4000);
        let gathered: Vec<ColBatch> = (0..20u32)
            .map(|i| one.gather(&(i * 10..i * 10 + 10).collect::<Vec<_>>()))
            .collect();
        assert_eq!(batches_bytes(&gathered), payload + 4000);
        // Two batches with their own dictionaries count both.
        let other = ColBatch::from_rows(&long_strings(), 2);
        assert_eq!(batches_bytes(&[one, other]), 2 * (payload + 4000));
    }

    #[test]
    fn a_shared_dictionary_does_not_push_an_aggregate_over_budget() {
        // Input re-cuts the one batch into 20 that share its dictionary:
        // 6 400 bytes, counted 82 400 when each batch paid for it.
        let table = long_strings();
        let delivered = [rows_to_batches(&table, 2, 1024)];
        let plan = PhysPlan::HashAggregate {
            input: Box::new(PhysPlan::Input {
                slot: 0,
                schema: vec![Col::new(RelId(5), 0), Col::new(RelId(5), 1)],
            }),
            group_by: vec![Col::new(RelId(5), 0)],
            aggs: vec![AggSpec {
                func: AggFunc::Sum,
                arg: Some(Col::new(RelId(5), 1)),
            }],
        };
        let cfg = ColumnarConfig {
            batch_rows: 10,
            mem_budget_bytes: 10_000,
            spill_partitions: 4,
        };
        let (out, stats) = execute_columnar_batches(&plan, &store(0), &delivered, &cfg).unwrap();
        assert_eq!(stats.spill_files, 0);
        let agg = stats
            .timings
            .iter()
            .find(|t| t.op == "HashAggregate")
            .unwrap();
        assert_eq!(agg.bytes_in, 6400);
        let oracle = execute(&plan, &store(0), &[table]).unwrap();
        assert_eq!(batches_to_rows(&out), oracle);
    }

    #[test]
    fn batch_entry_point_recuts_inputs_and_stays_columnar() {
        let src = store(0);
        let table: Table = (0..50)
            .map(|i| vec![Value::Int(i % 4), Value::str(format!("s{}", i % 3))])
            .collect();
        let plan = PhysPlan::Filter {
            input: Box::new(PhysPlan::Input {
                slot: 0,
                schema: vec![Col::new(RelId(5), 0), Col::new(RelId(5), 1)],
            }),
            predicates: vec![Predicate::with_const(
                Col::new(RelId(5), 0),
                CompOp::Ge,
                1i64,
            )],
        };
        let oracle = execute(&plan, &src, std::slice::from_ref(&table)).unwrap();
        // Delivered in batches of 16, consumed in batches of 7 and of 1024.
        let delivered = [rows_to_batches(&table, 2, 16)];
        for batch_rows in [7, 1024] {
            let cfg = ColumnarConfig {
                batch_rows,
                ..Default::default()
            };
            let (out, stats) = execute_columnar_batches(&plan, &src, &delivered, &cfg).unwrap();
            assert!(out.iter().all(|b| b.len <= batch_rows));
            assert_eq!(batches_to_rows(&out), oracle);
            let input = stats.timings.iter().find(|t| t.op == "Input").unwrap();
            assert_eq!(input.rows_in, 50);
        }
    }

    #[test]
    fn str_columns_are_dictionary_coded() {
        let rows: Table = (0..100)
            .map(|i| vec![Value::str(format!("tag{}", i % 3))])
            .collect();
        let b = ColBatch::from_rows(&rows, 1);
        match &*b.cols[0] {
            Column::Str { dict, codes, .. } => {
                assert_eq!(dict.len(), 3);
                assert_eq!(codes.len(), 100);
            }
            other => panic!("expected dict-coded strings, got {other:?}"),
        }
    }
}
