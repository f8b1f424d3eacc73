//! The three workloads: their service configuration and their query
//! streams. Everything here is a pure function of the workload seed; the
//! program under test only ever sees the generated `Query` values.

use pqopt::model::{Query, WorkloadConfig, WorkloadGenerator};
use pqopt::partition::PlanSpace;

/// Worker nodes of every workload (the benchmark box has 2 cores).
pub const WORKERS: usize = 2;

/// Per-worker byte budget of the shard-local plan caches on `small-stream`
/// and `hot-repeat`: room for the hot set, far below either unique pool.
pub const CACHE_BYTES: usize = 48 * 1024;

/// Distinct queries of `small-stream`; visited cyclically, so each repeats
/// only after every other one has evicted it from the caches.
const SMALL_POOL: usize = 8192;
/// Hot set of `hot-repeat`, drawn Zipf-skewed.
const HOT_SET: usize = 16;
/// Zipf exponent of the hot-set draws.
const ZIPF_S: f64 = 1.1;
/// Share of `hot-repeat` submissions drawn from the hot set.
const HOT_SHARE: f64 = 0.8;
/// Distinct cold queries of `hot-repeat`, visited cyclically.
const COLD_POOL: usize = 2048;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One client, in-process cluster, no cache: 16-table linear and
    /// 12-table bushy star queries, alternating.
    BigQuery,
    /// Eight outstanding unique 6-table queries over unix sockets to two
    /// `pqopt worker` processes; caches on but always missing.
    SmallStream,
    /// Eight outstanding 8-table queries, 80% from a Zipf hot set,
    /// in-process cluster with caches and coalescing.
    HotRepeat,
}

/// How the service reaches its workers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Plane {
    /// `OptimizerService::spawn`: worker threads inside this process.
    InProcess,
    /// `OptimizerService::connect`: `pqopt worker` processes over unix
    /// sockets.
    Sockets,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [
        Workload::BigQuery,
        Workload::SmallStream,
        Workload::HotRepeat,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BigQuery => "big-query",
            Workload::SmallStream => "small-stream",
            Workload::HotRepeat => "hot-repeat",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Submissions kept outstanding by the closed loop.
    pub fn outstanding(self) -> usize {
        match self {
            Workload::BigQuery => 1,
            Workload::SmallStream | Workload::HotRepeat => 8,
        }
    }

    /// Where the workers run.
    pub fn plane(self) -> Plane {
        match self {
            Workload::SmallStream => Plane::Sockets,
            Workload::BigQuery | Workload::HotRepeat => Plane::InProcess,
        }
    }

    /// Per-worker cache budget (0 = caching off).
    pub fn cache_bytes(self) -> usize {
        match self {
            Workload::BigQuery => 0,
            Workload::SmallStream | Workload::HotRepeat => CACHE_BYTES,
        }
    }

    /// Whether the facade coalesces identical in-flight submissions.
    pub fn coalesce(self) -> bool {
        self == Workload::HotRepeat
    }

    /// A timed window ends only after a whole number of this many
    /// submissions, so `big-query` always completes as many linear as
    /// bushy queries.
    pub fn stop_multiple(self) -> u64 {
        match self {
            Workload::BigQuery => 2,
            Workload::SmallStream | Workload::HotRepeat => 1,
        }
    }

    /// Measured windows of a `seconds`-long run; end-to-end timings are
    /// medians over them, which keeps a burst of load from other tenants
    /// of the host out of the figures. `big-query` completes about three
    /// queries a second, too few to split, so it is one window.
    pub fn windows(self, seconds: f64) -> usize {
        match self {
            Workload::BigQuery => 1,
            Workload::SmallStream | Workload::HotRepeat => (seconds.round() as usize).max(1),
        }
    }

    /// Percentile `latency_tail_ms` is taken at. It is fixed per
    /// workload, so runs always compare the same percentile, and leaves
    /// far more than ten samples beyond it in every window at the
    /// workload's usual rate (about 90 samples a run for `big-query`,
    /// about 10,000 a window for the others). p95 rather than p99 on the
    /// streams: on a shared 2-vCPU host their per-window p99 varied by
    /// 27-53% between runs, p95 by a third of that. A window with too few
    /// samples falls back to a lower percentile, and the run says so.
    pub fn tail_percentile(self) -> f64 {
        match self {
            Workload::BigQuery => 60.0,
            Workload::SmallStream | Workload::HotRepeat => 95.0,
        }
    }

    /// Set-ups per run, each through the first accepted submit; `setup_s`
    /// is their median. A `big-query` set-up must then wait out a 0.4 s
    /// query, so it runs fewer.
    pub fn setup_probes(self) -> usize {
        match self {
            Workload::BigQuery => 7,
            Workload::SmallStream | Workload::HotRepeat => 21,
        }
    }

    /// The distinct queries the stream draws from.
    pub fn pool(self, seed: u64) -> Pool {
        match self {
            Workload::BigQuery => {
                let mut linear = generator(16, seed, 1);
                let mut bushy = generator(12, seed, 2);
                let mut pool = Pool::default();
                for _ in 0..2 {
                    pool.push(linear.next_query(), PlanSpace::Linear);
                    pool.push(bushy.next_query(), PlanSpace::Bushy);
                }
                pool
            }
            Workload::SmallStream => {
                let mut gen = generator(6, seed, 3);
                let mut pool = Pool::default();
                for _ in 0..SMALL_POOL {
                    pool.push(gen.next_query(), PlanSpace::Linear);
                }
                pool
            }
            Workload::HotRepeat => {
                let mut hot = generator(8, seed, 4);
                let mut cold = generator(8, seed, 5);
                let mut pool = Pool::default();
                for _ in 0..HOT_SET {
                    pool.push(hot.next_query(), PlanSpace::Linear);
                }
                for _ in 0..COLD_POOL {
                    pool.push(cold.next_query(), PlanSpace::Linear);
                }
                pool
            }
        }
    }

    /// The submission order: an endless sequence of pool indices.
    pub fn stream(self, seed: u64) -> Stream {
        Stream {
            workload: self,
            rng: SplitMix(mix(seed, 6)),
            zipf: zipf_cdf(HOT_SET, ZIPF_S),
            next: 0,
            next_cold: 0,
        }
    }
}

/// A workload's distinct queries, each with the plan space it is
/// optimized in.
#[derive(Clone, Debug, Default)]
pub struct Pool {
    /// The queries.
    pub queries: Vec<Query>,
    /// Plan space of each query.
    pub spaces: Vec<PlanSpace>,
}

impl Pool {
    fn push(&mut self, query: Query, space: PlanSpace) {
        self.queries.push(query);
        self.spaces.push(space);
    }

    /// Number of distinct queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }
}

/// Endless, seed-determined sequence of pool indices.
pub struct Stream {
    workload: Workload,
    rng: SplitMix,
    zipf: Vec<f64>,
    next: usize,
    next_cold: usize,
}

impl Iterator for Stream {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let i = self.next;
        self.next += 1;
        Some(match self.workload {
            Workload::BigQuery => i % 4,
            Workload::SmallStream => i % SMALL_POOL,
            Workload::HotRepeat => {
                if self.rng.unit() < HOT_SHARE {
                    let u = self.rng.unit();
                    self.zipf.iter().position(|&c| u < c).unwrap_or(HOT_SET - 1)
                } else {
                    let cold = HOT_SET + self.next_cold % COLD_POOL;
                    self.next_cold += 1;
                    cold
                }
            }
        })
    }
}

/// A paper-default (star, Steinbrunn statistics) generator for `tables`
/// tables, seeded from the workload seed and a per-stream tag.
fn generator(tables: usize, seed: u64, tag: u64) -> WorkloadGenerator {
    WorkloadGenerator::new(WorkloadConfig::paper_default(tables), mix(seed, tag))
}

/// Derives an independent seed from `seed` and `tag`.
fn mix(seed: u64, tag: u64) -> u64 {
    SplitMix(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// Cumulative distribution of a Zipf(`s`) law over `n` ranks.
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let weights: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(s)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

/// SplitMix64: a tiny, well-mixed deterministic generator.
struct SplitMix(u64);

impl SplitMix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_for_a_seed_and_differ_across_seeds() {
        let a: Vec<usize> = Workload::HotRepeat.stream(1).take(500).collect();
        let b: Vec<usize> = Workload::HotRepeat.stream(1).take(500).collect();
        let c: Vec<usize> = Workload::HotRepeat.stream(2).take(500).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn hot_repeat_draws_mostly_hot_and_skewed() {
        let s: Vec<usize> = Workload::HotRepeat.stream(9).take(20_000).collect();
        let hot = s.iter().filter(|&&i| i < HOT_SET).count() as f64 / s.len() as f64;
        assert!((hot - HOT_SHARE).abs() < 0.02, "hot share {hot}");
        let rank0 = s.iter().filter(|&&i| i == 0).count();
        let rank15 = s.iter().filter(|&&i| i == 15).count();
        assert!(rank0 > 5 * rank15);
    }

    #[test]
    fn big_query_alternates_linear_and_bushy() {
        let pool = Workload::BigQuery.pool(3);
        let spaces: Vec<PlanSpace> = Workload::BigQuery
            .stream(3)
            .take(6)
            .map(|i| pool.spaces[i])
            .collect();
        assert_eq!(spaces[0], PlanSpace::Linear);
        assert!(spaces.windows(2).all(|w| w[0] != w[1]));
    }
}
