//! Golden pins of the DP kernels' exact answers and work counters.
//!
//! Every kernel prices candidate plans with the same cost formulas, so a
//! change to how those formulas are evaluated (hoisting per-split facts,
//! reordering loops, caching widths) must leave every cost bit and every
//! work counter exactly where it was. The kernel differential suite only
//! proves that the kernels agree with *each other*; these constants prove
//! that they still agree with the numbers recorded before such a change.
//!
//! Pinned per case: `plans_generated`, `splits_tried`, `total_entries`,
//! `stored_sets`, and the `(time, buffer)` bit patterns of every returned
//! plan (one optimum for `Objective::Single`, the whole frontier for
//! `Objective::Multi` and parametric DP).
//!
//! To print the constants after an *intentional* cost-model change:
//! `cargo test -p mpq_dp --test cost_golden -- --ignored --nocapture`
//! and paste the printed constants below.

// Tests/examples assert on infallible paths; the workspace-level
// unwrap/expect denies target shipping code (see [workspace.lints]).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use mpq_cost::Objective;
use mpq_dp::{
    optimize_parametric, optimize_partition, optimize_partition_dense, optimize_partition_topdown,
    optimize_serial, ParametricOutcome, ParametricQuery, PartitionOutcome, WorkerStats,
};
use mpq_model::{Query, WorkloadConfig, WorkloadGenerator};
use mpq_partition::{partition_constraints, ConstraintSet, Grouping, PlanSpace};

/// Exact counters and returned cost bits of one kernel run.
struct Golden {
    plans_generated: u64,
    splits_tried: u64,
    total_entries: u64,
    stored_sets: u64,
    /// `(time.to_bits(), buffer.to_bits())` of each returned plan, in
    /// returned order.
    costs: &'static [(u64, u64)],
}

/// The owned form of [`Golden`] measured from a run.
#[derive(Debug, PartialEq, Eq)]
struct Measured {
    plans_generated: u64,
    splits_tried: u64,
    total_entries: u64,
    stored_sets: u64,
    costs: Vec<(u64, u64)>,
}

impl Measured {
    fn new(stats: &WorkerStats, costs: Vec<(u64, u64)>) -> Self {
        Measured {
            plans_generated: stats.plans_generated,
            splits_tried: stats.splits_tried,
            total_entries: stats.total_entries,
            stored_sets: stats.stored_sets,
            costs,
        }
    }

    fn of(out: &PartitionOutcome) -> Self {
        let costs = out
            .plans
            .iter()
            .map(|p| (p.cost().time.to_bits(), p.cost().buffer.to_bits()))
            .collect();
        Measured::new(&out.stats, costs)
    }

    fn of_parametric(out: &ParametricOutcome) -> Self {
        let costs = out
            .plans
            .iter()
            .map(|(_, c)| (c.time.to_bits(), c.buffer.to_bits()))
            .collect();
        Measured::new(&out.stats, costs)
    }

    fn assert_matches(&self, golden: &Golden, case: &str) {
        let expected = Measured {
            plans_generated: golden.plans_generated,
            splits_tried: golden.splits_tried,
            total_entries: golden.total_entries,
            stored_sets: golden.stored_sets,
            costs: golden.costs.to_vec(),
        };
        assert_eq!(self, &expected, "{case}: kernel output moved");
    }

    /// Rust source for the constant pinning this measurement.
    fn constant(&self, name: &str) -> String {
        let costs: Vec<String> = self
            .costs
            .iter()
            .map(|(t, b)| format!("({t:#018x}, {b:#018x})"))
            .collect();
        format!(
            "const {name}: Golden = Golden {{\n    plans_generated: {},\n    \
             splits_tried: {},\n    total_entries: {},\n    stored_sets: {},\n    \
             costs: &[{}],\n}};",
            self.plans_generated,
            self.splits_tried,
            self.total_entries,
            self.stored_sets,
            costs.join(", ")
        )
    }
}

fn star_query(n: usize) -> Query {
    WorkloadGenerator::new(WorkloadConfig::paper_default(n), 1).next_query()
}

/// Low/high scenarios of one query: same tables, selectivities scaled.
fn parametric_query(n: usize, seed: u64) -> ParametricQuery {
    let low = WorkloadGenerator::new(WorkloadConfig::paper_default(n), seed).next_query();
    let mut high = low.clone();
    for p in &mut high.predicates {
        p.selectivity = (p.selectivity * 50.0).min(0.5);
    }
    ParametricQuery::new(low, high)
}

fn serial_linear16() -> Measured {
    Measured::of(&optimize_serial(
        &star_query(16),
        PlanSpace::Linear,
        Objective::Single,
    ))
}

fn serial_bushy12() -> Measured {
    Measured::of(&optimize_serial(
        &star_query(12),
        PlanSpace::Bushy,
        Objective::Single,
    ))
}

fn partition_of_two(n: usize, space: PlanSpace, id: u64) -> Measured {
    let cs = partition_constraints(n, space, id, 2);
    Measured::of(&optimize_partition(
        &star_query(n),
        space,
        Objective::Single,
        &cs,
    ))
}

fn linear16_part0() -> Measured {
    partition_of_two(16, PlanSpace::Linear, 0)
}

fn linear16_part1() -> Measured {
    partition_of_two(16, PlanSpace::Linear, 1)
}

fn bushy12_part0() -> Measured {
    partition_of_two(12, PlanSpace::Bushy, 0)
}

fn bushy12_part1() -> Measured {
    partition_of_two(12, PlanSpace::Bushy, 1)
}

fn multi_frontier() -> Measured {
    Measured::of(&optimize_serial(
        &star_query(7),
        PlanSpace::Bushy,
        Objective::Multi { alpha: 1.0 },
    ))
}

fn parametric_linear() -> Measured {
    Measured::of_parametric(&optimize_parametric(
        &parametric_query(6, 3),
        PlanSpace::Linear,
    ))
}

fn unconstrained(n: usize, space: PlanSpace) -> ConstraintSet {
    ConstraintSet::unconstrained(Grouping::new(n, space))
}

fn dense_bushy9() -> Measured {
    let cs = unconstrained(9, PlanSpace::Bushy);
    Measured::of(&optimize_partition_dense(
        &star_query(9),
        PlanSpace::Bushy,
        Objective::Single,
        &cs,
    ))
}

fn topdown_linear9() -> Measured {
    let cs = unconstrained(9, PlanSpace::Linear);
    Measured::of(&optimize_partition_topdown(
        &star_query(9),
        PlanSpace::Linear,
        Objective::Single,
        &cs,
    ))
}

// ---------------------------------------------------------------------------
// Pinned constants (16-table linear and 12-table bushy star, seed 1: the
// `big-query` shapes; the 2-partition cases are the two workers' shares).
// ---------------------------------------------------------------------------

const LINEAR16: Golden = Golden {
    plans_generated: 7225266,
    splits_tried: 524272,
    total_entries: 344062,
    stored_sets: 65535,
    costs: &[(0x4143c96ba8b4c37b, 0x416bb8fd80000000)],
};

const BUSHY12: Golden = Golden {
    plans_generated: 6264660,
    splits_tried: 523250,
    total_entries: 17406,
    stored_sets: 4095,
    costs: &[(0x41362f39983f1d91, 0x411ff78433795920)],
};

const LINEAR16_PART0: Golden = Golden {
    plans_generated: 6569908,
    splits_tried: 376817,
    total_entries: 311295,
    stored_sets: 49152,
    costs: &[(0x4143c96ba8b4c37b, 0x416bb8fd80000000)],
};

const LINEAR16_PART1: Golden = Golden {
    plans_generated: 1572792,
    splits_tried: 376817,
    total_entries: 81919,
    stored_sets: 49152,
    costs: &[(0x41449725ce5c5406, 0x416bb8fd80000000)],
};

const BUSHY12_PART0: Golden = Golden {
    plans_generated: 5521826,
    splits_tried: 406176,
    total_entries: 16894,
    stored_sets: 3583,
    costs: &[(0x41362f39983f1d91, 0x411ff78433795920)],
};

const BUSHY12_PART1: Golden = Golden {
    plans_generated: 4283106,
    splits_tried: 406176,
    total_entries: 13566,
    stored_sets: 3583,
    costs: &[(0x41362f39983f1d91, 0x411ff78433795920)],
};

const MULTI_BUSHY7: Golden = Golden {
    plans_generated: 90490,
    splits_tried: 1932,
    total_entries: 1295,
    stored_sets: 127,
    costs: &[
        (0x41ad3f354d111184, 0x410851c2a6a69117),
        (0x41b1e973a337336c, 0x410621a000000000),
        (0x41ca7e9cc61b99b6, 0x40fb962c0c91ab5b),
        (0x41ad3e7649f9eca9, 0x41093fb6cb065067),
        (0x41a97e482fe9aeb5, 0x410ef48c85e2360d),
        (0x419e440a20c10f40, 0x4115cb49afe2569c),
        (0x4128a25cd7f76d44, 0x411dcc8841888c05),
        (0x41d829c18cab2a4e, 0x4058c00000000000),
        (0x41cbaafd373f5329, 0x405e400000000000),
        (0x419e440bfbfebb93, 0x41156cacf75fd32d),
    ],
};

const PARAMETRIC_LINEAR6: Golden = Golden {
    plans_generated: 1404,
    splits_tried: 186,
    total_entries: 211,
    stored_sets: 63,
    costs: &[
        (0x4122c78f15006821, 0x4238550125810af8),
        (0x41207b43058f810c, 0x42385503022488f1),
    ],
};

const DENSE_BUSHY9: Golden = Golden {
    plans_generated: 185062,
    splits_tried: 18660,
    total_entries: 1790,
    stored_sets: 511,
    costs: &[(0x412ee8f27638ca55, 0x411dcc8841888c05)],
};

const TOPDOWN_LINEAR9: Golden = Golden {
    plans_generated: 19669,
    splits_tried: 2295,
    total_entries: 1790,
    stored_sets: 511,
    costs: &[(0x4135615d9d8e3295, 0x416138f000000000)],
};

type Case = (&'static str, fn() -> Measured, &'static Golden);

/// Every pinned case: constant name, the run that measures it, the pin.
const CASES: [Case; 10] = [
    ("LINEAR16", serial_linear16, &LINEAR16),
    ("BUSHY12", serial_bushy12, &BUSHY12),
    ("LINEAR16_PART0", linear16_part0, &LINEAR16_PART0),
    ("LINEAR16_PART1", linear16_part1, &LINEAR16_PART1),
    ("BUSHY12_PART0", bushy12_part0, &BUSHY12_PART0),
    ("BUSHY12_PART1", bushy12_part1, &BUSHY12_PART1),
    ("MULTI_BUSHY7", multi_frontier, &MULTI_BUSHY7),
    ("PARAMETRIC_LINEAR6", parametric_linear, &PARAMETRIC_LINEAR6),
    ("DENSE_BUSHY9", dense_bushy9, &DENSE_BUSHY9),
    ("TOPDOWN_LINEAR9", topdown_linear9, &TOPDOWN_LINEAR9),
];

fn check(name: &str) {
    let (_, run, golden) = CASES
        .iter()
        .find(|(n, _, _)| *n == name)
        .expect("case is listed");
    run().assert_matches(golden, name);
}

#[test]
fn serial_linear16_star() {
    check("LINEAR16");
}

#[test]
fn serial_bushy12_star() {
    check("BUSHY12");
}

#[test]
fn linear16_two_partitions() {
    check("LINEAR16_PART0");
    check("LINEAR16_PART1");
}

#[test]
fn bushy12_two_partitions() {
    check("BUSHY12_PART0");
    check("BUSHY12_PART1");
}

#[test]
fn multi_objective_frontier() {
    check("MULTI_BUSHY7");
}

#[test]
fn parametric_frontier() {
    check("PARAMETRIC_LINEAR6");
}

#[test]
fn dense_reference_kernel() {
    check("DENSE_BUSHY9");
}

#[test]
fn topdown_kernel() {
    check("TOPDOWN_LINEAR9");
}

/// Prints every constant of this file from the current kernels.
#[test]
#[ignore = "generator: run with --ignored --nocapture to print constants"]
fn print_golden_constants() {
    for (name, run, _) in CASES {
        println!("{}\n", run().constant(name));
    }
}
