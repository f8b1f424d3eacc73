//! The dp layer's work ratios on paper-default star queries at two
//! workers. The counts do not depend on the query's statistics, so any
//! seed reproduces them.

use perfbench::trace::optimize_partitions;
use pqopt::cost::Objective;
use pqopt::dp::optimize_serial;
use pqopt::model::{WorkloadConfig, WorkloadGenerator};
use pqopt::partition::PlanSpace;

/// `(max partition plans, summed partition plans, serial plans)`.
fn counts(tables: usize, space: PlanSpace, seed: u64) -> (u64, u64, u64) {
    let query = WorkloadGenerator::new(WorkloadConfig::paper_default(tables), seed).next_query();
    let plans: Vec<u64> = optimize_partitions(&query, space)
        .iter()
        .map(|(_, outcome, _, _)| outcome.stats.plans_generated)
        .collect();
    let serial = optimize_serial(&query, space, Objective::Single)
        .stats
        .plans_generated;
    (
        plans.iter().copied().max().unwrap(),
        plans.iter().sum(),
        serial,
    )
}

fn round2(x: f64) -> f64 {
    (x * 100.0).round() / 100.0
}

#[test]
fn linear_16_table_star() {
    for seed in [1, 2] {
        let (max, sum, serial) = counts(16, PlanSpace::Linear, seed);
        assert_eq!((max, serial), (6_569_908, 7_225_266));
        assert_eq!(round2(max as f64 / serial as f64), 0.91);
        assert_eq!(round2(sum as f64 / serial as f64), 1.13);
    }
}

#[test]
fn bushy_12_table_star() {
    let (max, sum, serial) = counts(12, PlanSpace::Bushy, 1);
    assert_eq!(round2(max as f64 / serial as f64), 0.88);
    assert_eq!(round2(sum as f64 / serial as f64), 1.57);
}
