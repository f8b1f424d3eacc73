//! Scan and join operator implementations with Steinbrunn-style cost
//! formulas.
//!
//! The paper's implementation "considers all standard operators"
//! (Section 3); time complexity grows linearly in the number of operator
//! implementations (Section 5.4). We provide one scan and three joins.
//! Costs are in abstract work units proportional to tuple touches; buffer
//! costs are in bytes of working memory. Both are the classic textbook
//! formulas used by the Steinbrunn et al. benchmark the paper builds on.
//!
//! Interesting orders: a sort-merge join consumes sorted inputs and produces
//! output sorted on the join attribute; re-using that order lets a later
//! sort-merge skip a sort. An [`Order`] identifies the table whose join
//! attribute the tuple stream is sorted on. We use the conservative
//! simplification that an order is satisfied only by the exact attribute
//! (no equivalence-class propagation); this keeps the memo mechanics the
//! paper describes (one optimal plan per set *and interesting order*,
//! Section 5.4) while staying compact.

use crate::cardinality::CardinalityEstimator;
use crate::vector::CostVector;
use mpq_model::TableSet;
use serde::{Deserialize, Serialize};

/// Sort order of a tuple stream: unsorted, or sorted on the join attribute
/// of a specific table.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Order {
    /// No useful order.
    None,
    /// Sorted on the join attribute of table `t`.
    OnAttribute(u8),
}

impl Order {
    /// Compact encoding for memo keys: 0 = unsorted, `t + 1` = sorted on
    /// table `t`'s attribute.
    pub fn to_code(self) -> u8 {
        match self {
            Order::None => 0,
            Order::OnAttribute(t) => t + 1,
        }
    }

    /// Inverse of [`Order::to_code`].
    pub fn from_code(code: u8) -> Self {
        if code == 0 {
            Order::None
        } else {
            Order::OnAttribute(code - 1)
        }
    }
}

/// Scan operator: a full sequential scan.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ScanOp {
    /// Sequential scan of a base table; output unsorted.
    Full,
}

impl ScanOp {
    /// Cost of scanning table `t`.
    pub fn cost(&self, est: &mut CardinalityEstimator<'_>, t: usize) -> CostVector {
        let card = est.cardinality(TableSet::singleton(t));
        let bytes = est.tuple_bytes(TableSet::singleton(t));
        match self {
            // Time: one touch per tuple. Buffer: one page-sized read buffer,
            // approximated by a single tuple.
            ScanOp::Full => CostVector::new(card, bytes / card.max(1.0)),
        }
    }

    /// Output order of the scan.
    pub fn output_order(&self) -> Order {
        Order::None
    }
}

/// Join operator implementations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum JoinOp {
    /// Block-nested-loop join: outer × inner tuple comparisons.
    NestedLoop,
    /// Hash join: build on the inner (right) operand, probe with the outer.
    Hash,
    /// Sort-merge join on the first predicate connecting the operands;
    /// inapplicable to cross products.
    SortMerge,
}

/// All join operators, in the order they are tried by the optimizer.
pub const JOIN_OPS: [JoinOp; 3] = [JoinOp::NestedLoop, JoinOp::Hash, JoinOp::SortMerge];

/// Everything the optimizer needs to know about applying one join operator
/// to a pair of operands.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JoinApplication {
    /// Incremental cost of the operator itself (children not included).
    pub cost: CostVector,
    /// Sort order of the operator's output.
    pub output_order: Order,
}

/// The split-invariant inputs of the join cost formulas for one split
/// `(left, right)`.
///
/// Every value here is per split: it depends only on the two operand
/// sets, never on which operand plans are joined or by which operator.
/// The DP kernels therefore build one `SplitFacts` per split and price
/// every (left plan × right plan × operator) candidate of that split from
/// it with [`JoinOp::apply_split`], instead of re-reading cardinalities,
/// re-summing tuple widths and re-scanning the predicates per candidate.
/// The fields are private so that facts can only come from
/// [`SplitFacts::new`], i.e. always describe a real split.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SplitFacts {
    /// Estimated cardinality of the outer (left) operand.
    lc: f64,
    /// Estimated cardinality of the inner (right) operand.
    rc: f64,
    /// Tuple width in bytes of the outer operand.
    lbytes: f64,
    /// Tuple width in bytes of the inner operand.
    rbytes: f64,
    /// Join attributes `(outer, inner)` a sort-merge join would sort on:
    /// the endpoints of the lowest-numbered predicate crossing the split,
    /// or `None` for a cross product (sort-merge inapplicable).
    sort_merge: Option<(u8, u8)>,
}

impl SplitFacts {
    /// Gathers the facts of joining `left` (outer) with `right` (inner).
    pub fn new(est: &mut CardinalityEstimator<'_>, left: TableSet, right: TableSet) -> Self {
        SplitFacts {
            lc: est.cardinality(left),
            rc: est.cardinality(right),
            lbytes: est.tuple_bytes(left),
            rbytes: est.tuple_bytes(right),
            sort_merge: sort_merge_attributes(est, left, right),
        }
    }
}

impl JoinOp {
    /// Computes the incremental cost of joining `left` (outer) with `right`
    /// (inner), given the orders the operand plans deliver. Returns `None`
    /// if the operator is inapplicable (sort-merge join on a cross product).
    ///
    /// Equivalent to [`JoinOp::apply_split`] over `SplitFacts::new(est,
    /// left, right)`; callers pricing many candidates of one split should
    /// build the facts once and call `apply_split` directly.
    pub fn apply(
        &self,
        est: &mut CardinalityEstimator<'_>,
        left: TableSet,
        right: TableSet,
        left_order: Order,
        right_order: Order,
    ) -> Option<JoinApplication> {
        self.apply_split(&SplitFacts::new(est, left, right), left_order, right_order)
    }

    /// The join cost formulas: the incremental cost of this operator on
    /// the split described by `facts`, given the orders the operand plans
    /// deliver. Returns `None` if the operator is inapplicable (sort-merge
    /// join on a cross product).
    pub fn apply_split(
        &self,
        facts: &SplitFacts,
        left_order: Order,
        right_order: Order,
    ) -> Option<JoinApplication> {
        let SplitFacts {
            lc,
            rc,
            lbytes,
            rbytes,
            sort_merge,
        } = *facts;
        match self {
            JoinOp::NestedLoop => {
                // Time: every outer tuple compared with every inner tuple.
                // Buffer: one block of each operand; approximate with the
                // inner tuple width (the block that is repeatedly rescanned).
                let time = lc * rc;
                let buffer = rbytes;
                Some(JoinApplication {
                    cost: CostVector::new(time, buffer),
                    output_order: left_order, // preserves outer order
                })
            }
            JoinOp::Hash => {
                // Time: build inner (2 touches/tuple) + probe outer.
                // Buffer: the hash table holds the inner operand.
                let time = 2.0 * rc + lc;
                let buffer = rc * rbytes;
                Some(JoinApplication {
                    cost: CostVector::new(time, buffer),
                    // Hash join output follows the probe (outer) order.
                    output_order: left_order,
                })
            }
            JoinOp::SortMerge => {
                let (la, ra) = sort_merge?;
                let want_left = Order::OnAttribute(la);
                let want_right = Order::OnAttribute(ra);
                let mut time = lc + rc; // the merge itself
                let mut buffer: f64 = 0.0;
                if left_order != want_left {
                    time += sort_cost(lc);
                    buffer = buffer.max(lc * lbytes);
                }
                if right_order != want_right {
                    time += sort_cost(rc);
                    buffer = buffer.max(rc * rbytes);
                }
                Some(JoinApplication {
                    cost: CostVector::new(time, buffer),
                    // Output is sorted on the outer-side attribute.
                    output_order: want_left,
                })
            }
        }
    }
}

/// The join attributes a sort-merge join between `left` and `right` would
/// sort on: the endpoints of the lowest-numbered predicate crossing the two
/// sets, or `None` for a cross product.
fn sort_merge_attributes(
    est: &CardinalityEstimator<'_>,
    left: TableSet,
    right: TableSet,
) -> Option<(u8, u8)> {
    for p in &est.query().predicates {
        if left.contains(p.left) && right.contains(p.right) {
            return Some((p.left as u8, p.right as u8));
        }
        if left.contains(p.right) && right.contains(p.left) {
            return Some((p.right as u8, p.left as u8));
        }
    }
    None
}

/// `n log2 n` sort cost, safe for tiny inputs.
fn sort_cost(card: f64) -> f64 {
    card * card.max(2.0).log2()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpq_model::{Catalog, JoinGraph, Predicate, Query, TableStats};

    fn two_table_query(lc: f64, rc: f64, sel: f64) -> Query {
        let catalog = Catalog::from_stats(vec![
            TableStats {
                cardinality: lc,
                tuple_bytes: 10.0,
                join_domain: lc,
            },
            TableStats {
                cardinality: rc,
                tuple_bytes: 10.0,
                join_domain: rc,
            },
        ]);
        Query {
            catalog,
            predicates: vec![Predicate {
                left: 0,
                right: 1,
                selectivity: sel,
            }],
            graph: JoinGraph::Chain,
        }
    }

    #[test]
    fn order_encode_roundtrip() {
        for o in [Order::None, Order::OnAttribute(0), Order::OnAttribute(13)] {
            assert_eq!(Order::from_code(o.to_code()), o);
        }
    }

    #[test]
    fn scan_cost_is_cardinality() {
        let q = two_table_query(500.0, 100.0, 0.01);
        let mut est = CardinalityEstimator::new(&q);
        let c = ScanOp::Full.cost(&mut est, 0);
        assert_eq!(c.time, 500.0);
        assert_eq!(ScanOp::Full.output_order(), Order::None);
    }

    #[test]
    fn nested_loop_quadratic() {
        let q = two_table_query(100.0, 200.0, 0.01);
        let mut est = CardinalityEstimator::new(&q);
        let a = JoinOp::NestedLoop
            .apply(
                &mut est,
                TableSet::singleton(0),
                TableSet::singleton(1),
                Order::None,
                Order::None,
            )
            .unwrap();
        assert_eq!(a.cost.time, 100.0 * 200.0);
        assert_eq!(a.output_order, Order::None);
    }

    #[test]
    fn hash_join_linear_and_buffer_on_inner() {
        let q = two_table_query(100.0, 200.0, 0.01);
        let mut est = CardinalityEstimator::new(&q);
        let a = JoinOp::Hash
            .apply(
                &mut est,
                TableSet::singleton(0),
                TableSet::singleton(1),
                Order::None,
                Order::None,
            )
            .unwrap();
        assert_eq!(a.cost.time, 2.0 * 200.0 + 100.0);
        assert_eq!(a.cost.buffer, 200.0 * 10.0);
    }

    #[test]
    fn sort_merge_skips_sort_on_sorted_input() {
        let q = two_table_query(1000.0, 1000.0, 0.001);
        let mut est = CardinalityEstimator::new(&q);
        let unsorted = JoinOp::SortMerge
            .apply(
                &mut est,
                TableSet::singleton(0),
                TableSet::singleton(1),
                Order::None,
                Order::None,
            )
            .unwrap();
        let sorted = JoinOp::SortMerge
            .apply(
                &mut est,
                TableSet::singleton(0),
                TableSet::singleton(1),
                Order::OnAttribute(0),
                Order::OnAttribute(1),
            )
            .unwrap();
        assert!(sorted.cost.time < unsorted.cost.time);
        // A fully sorted pair costs just the merge.
        assert_eq!(sorted.cost.time, 2000.0);
        assert_eq!(sorted.output_order, Order::OnAttribute(0));
    }

    #[test]
    fn sort_merge_rejects_cross_product() {
        let catalog = Catalog::from_stats(vec![
            TableStats::with_cardinality(10.0),
            TableStats::with_cardinality(10.0),
        ]);
        let q = Query {
            catalog,
            predicates: vec![],
            graph: JoinGraph::Chain,
        };
        let mut est = CardinalityEstimator::new(&q);
        assert!(JoinOp::SortMerge
            .apply(
                &mut est,
                TableSet::singleton(0),
                TableSet::singleton(1),
                Order::None,
                Order::None
            )
            .is_none());
    }

    #[test]
    fn nested_loop_preserves_outer_order() {
        let q = two_table_query(10.0, 10.0, 0.1);
        let mut est = CardinalityEstimator::new(&q);
        let a = JoinOp::NestedLoop
            .apply(
                &mut est,
                TableSet::singleton(0),
                TableSet::singleton(1),
                Order::OnAttribute(0),
                Order::None,
            )
            .unwrap();
        assert_eq!(a.output_order, Order::OnAttribute(0));
    }

    #[test]
    fn split_facts_price_like_apply() {
        let q = two_table_query(300.0, 40.0, 0.05);
        let mut est = CardinalityEstimator::new(&q);
        let (l, r) = (TableSet::singleton(1), TableSet::singleton(0));
        let facts = SplitFacts::new(&mut est, l, r);
        assert_eq!(facts.lc, 40.0);
        assert_eq!(facts.rc, 300.0);
        assert_eq!((facts.lbytes, facts.rbytes), (10.0, 10.0));
        // The predicate is 0-1; seen from the (1, 0) split it flips.
        assert_eq!(facts.sort_merge, Some((1, 0)));
        let orders = [Order::None, Order::OnAttribute(0), Order::OnAttribute(1)];
        for op in JOIN_OPS {
            for lo in orders {
                for ro in orders {
                    assert_eq!(
                        op.apply(&mut est, l, r, lo, ro),
                        op.apply_split(&facts, lo, ro),
                        "{op:?} {lo:?} {ro:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn all_ops_listed_once() {
        assert_eq!(JOIN_OPS.len(), 3);
        let mut seen = std::collections::HashSet::new();
        for op in JOIN_OPS {
            assert!(seen.insert(format!("{op:?}")));
        }
    }
}
