//! The plan check's reference: every pool query's optimum from the serial
//! dynamic program (`mpq_dp::optimize_serial`).
//!
//! The references are computed before any timing, in a child process of
//! the benchmark (`perfbench oracle ...`), so neither the serial DP's time
//! nor its memory lands in a measured window or in the peak RSS.

use crate::workload::{Pool, Workload};
use pqopt::cost::Objective;
use pqopt::dp::optimize_serial;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// The serial optimum of one query and the work it took.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reference {
    /// Bits of the optimal plan's time cost.
    pub cost_bits: u64,
    /// Plans the serial DP generated.
    pub plans: u64,
    /// Wall-clock time of the serial DP, nanoseconds.
    pub nanos: u64,
}

/// Computes the references of every pool query, in pool order.
pub fn compute(pool: &Pool) -> Vec<Reference> {
    pool.queries
        .iter()
        .zip(&pool.spaces)
        .map(|(query, &space)| {
            let t0 = Instant::now();
            let out = optimize_serial(query, space, Objective::Single);
            let nanos = t0.elapsed().as_nanos() as u64;
            Reference {
                cost_bits: out.plans[0].cost().time.to_bits(),
                plans: out.stats.plans_generated,
                nanos,
            }
        })
        .collect()
}

/// One reference per line: `cost_bits plans nanos`.
pub fn format(refs: &[Reference]) -> String {
    refs.iter()
        .map(|r| format!("{} {} {}\n", r.cost_bits, r.plans, r.nanos))
        .collect()
}

/// Parses [`format`]'s output.
pub fn parse(text: &str) -> Option<Vec<Reference>> {
    text.lines()
        .map(|line| {
            let mut f = line.split(' ').map(str::parse::<u64>);
            match (f.next(), f.next(), f.next(), f.next()) {
                (Some(Ok(cost_bits)), Some(Ok(plans)), Some(Ok(nanos)), None) => Some(Reference {
                    cost_bits,
                    plans,
                    nanos,
                }),
                _ => None,
            }
        })
        .collect()
}

/// Runs `exe oracle` for `workload` and `seed` in a child process and
/// reads back one reference per pool query.
pub fn from_child(
    exe: &Path,
    workload: Workload,
    seed: u64,
    pool_len: usize,
) -> Result<Vec<Reference>, String> {
    let out = Command::new(exe)
        .args([
            "oracle",
            "--workload",
            workload.name(),
            "--seed",
            &seed.to_string(),
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run the oracle: {e}"))?;
    if !out.status.success() {
        return Err(format!("oracle failed: {}", out.status));
    }
    let refs = parse(&String::from_utf8_lossy(&out.stdout)).ok_or("unparsable oracle output")?;
    if refs.len() != pool_len {
        return Err(format!(
            "oracle returned {} references for {pool_len} queries",
            refs.len()
        ));
    }
    Ok(refs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn references_round_trip_through_text() {
        let refs = vec![
            Reference {
                cost_bits: 1.5f64.to_bits(),
                plans: 7,
                nanos: 9,
            },
            Reference {
                cost_bits: 3,
                plans: 0,
                nanos: 1,
            },
        ];
        assert_eq!(parse(&format(&refs)), Some(refs));
        assert_eq!(parse("1 2\n"), None);
    }
}
