//! The traced run: per-layer metrics, measured from outside each layer by
//! timing calls into its public functions ("replay").
//!
//! 1. **service** — the workload's closed loop through `OptimizerService`,
//!    with a span around every `submit`, `wait` and request, and `/proc`
//!    counters of this process and the worker processes around it.
//! 2. **mpq** — the identical submission sequence replayed through a bare
//!    `MpqService` on the same worker plane, with a span around every
//!    `submit`, `wait` and session, plus each session's `MpqMetrics`.
//! 3. **partition**, **dp**, **codec** — a fixed sample of the pool replayed
//!    through `partition_constraints` / `AdmissibleSets::new`,
//!    `optimize_partition` (against the oracle's `optimize_serial`), and
//!    `Wire` encode/decode of the MPQ task and reply messages.
//!
//! Spans stay in memory until the end; those of the first 20,000 requests
//! per layer, and all replay spans, are then written to
//! `.perfbench_out/<workload>-seed<seed>.csv`.

use crate::drive::{closed_loop, LoopResult, SessionFacts, Stop, Tracer};
use crate::e2e::{Ctx, Inputs, WindowStats};
use crate::procfs::{parallel_speedup, Snapshot, ThreadTimes};
use crate::report::{Metric, Report};
use crate::sut::{MpqSut, Sut};
use crate::workload::{Plane, Workload, WORKERS};
use pqopt::cluster::Wire;
use pqopt::cost::Objective;
use pqopt::dp::{optimize_partition, PartitionOutcome};
use pqopt::model::Query;
use pqopt::mpq::{MasterMessage, WorkerMsg, WorkerReply};
use pqopt::partition::{effective_workers, partition_constraints, AdmissibleSets, PlanSpace};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Directory the span files are written to.
pub const OUT_DIR: &str = ".perfbench_out";

/// Requests per layer whose spans are written out (all are kept in memory
/// and feed the metrics).
const WRITTEN_REQUESTS: u64 = 20_000;

/// Minimum measured time of each repeated replay, so sub-microsecond
/// calls are timed over many repetitions.
const REPLAY_MIN: Duration = Duration::from_millis(300);

/// Pool queries replayed through the partition, dp and codec layers.
fn sample_len(workload: Workload) -> usize {
    match workload {
        Workload::BigQuery => 4,
        Workload::SmallStream | Workload::HotRepeat => 256,
    }
}

/// Exact work counts of one workload are compared across runs of one seed
/// by the benchmark's own test; `hot-repeat`'s message count depends on
/// coalescing timing and is left out.
fn messages_exact(workload: Workload) -> bool {
    workload != Workload::HotRepeat
}

/// Rounds of the interleaved facade / MPQ replay. Alternating the two
/// layers in short rounds cancels slow drifts of the host between them.
const ROUNDS: u32 = 4;

/// Counter deltas summed over the facade's measured rounds.
#[derive(Default)]
struct Counters {
    all: ThreadTimes,
    readers: ThreadTimes,
    dp_workers: ThreadTimes,
    syscalls: u64,
    messages: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_bytes_saved: u64,
    coalesce_saved: u64,
}

impl Counters {
    /// Adds the `/proc` deltas of one round.
    fn add_proc(&mut self, plane: Plane, before: &Snapshot, after: &Snapshot) {
        let add = |into: &mut ThreadTimes, t: ThreadTimes| {
            into.run_ns += t.run_ns;
            into.wait_ns += t.wait_ns;
            into.slices += t.slices;
        };
        add(&mut self.all, after.thread_delta(before, |_, _| true));
        // Thread names are cut to 15 bytes: `mpq-socket-reader-0` reads
        // `mpq-socket-read`.
        add(
            &mut self.readers,
            after.thread_delta(before, |p, name| {
                p == 0 && name.starts_with("mpq-socket-read")
            }),
        );
        add(
            &mut self.dp_workers,
            match plane {
                Plane::InProcess => {
                    after.thread_delta(before, |p, name| p == 0 && name.starts_with("mpq-worker-"))
                }
                Plane::Sockets => after.thread_delta(before, |p, _| p > 0),
            },
        );
        self.syscalls += after.syscalls_since(before);
    }
}

/// The facade's stream and its replay one layer down.
struct ServicePhases {
    warm: LoopResult,
    facade: LoopResult,
    mpq: LoopResult,
    counters: Counters,
}

/// Replays `order` through the bare scheduler.
fn replay(
    msut: &mut MpqSut,
    w: Workload,
    inputs: &Inputs,
    order: &[usize],
    tracer: &mut Tracer,
    into: &mut LoopResult,
) {
    closed_loop(
        &mut msut.service,
        &inputs.pool,
        &inputs.refs,
        &mut order.iter().copied(),
        w.outstanding(),
        Stop::Count(order.len()),
        tracer,
        into,
    )
}

/// Runs the workload through the facade with spans on and, round by
/// round, replays each round's exact submission sequence (warm-up
/// included) through a bare `MpqService` on its own workers.
fn service_phases(
    ctx: &Ctx,
    inputs: &mut Inputs,
    tracer: &mut Tracer,
) -> Result<ServicePhases, String> {
    let w = ctx.workload;
    let t0 = Instant::now();
    let mut sut = Sut::setup(w, &ctx.pqopt)?;
    tracer.record("service.setup", 0, None, t0, Instant::now());
    let mut msut = MpqSut::setup(w, &ctx.pqopt)?;
    let warm = ctx.warm(&mut sut, inputs);
    let mut phases = ServicePhases {
        mpq: LoopResult::default(),
        facade: LoopResult::default(),
        counters: Counters::default(),
        warm,
    };
    let mut mpq_warm = LoopResult::default();
    replay(
        &mut msut,
        w,
        inputs,
        &phases.warm.order,
        &mut Tracer::new(false),
        &mut mpq_warm,
    );
    phases.warm.attempted += mpq_warm.attempted;
    phases.warm.failed += mpq_warm.failed;

    let round = Stop::After(
        Duration::from_secs_f64(ctx.seconds / 2.0 / f64::from(ROUNDS)),
        w.stop_multiple(),
    );
    let pids = sut.pids();
    for _ in 0..ROUNDS {
        let net0 = sut.service.network_snapshot().unwrap_or_default();
        let cache0 = sut.service.cache_stats();
        let co0 = sut.service.coalesce_stats();
        let submitted = phases.facade.order.len();
        let before = Snapshot::before(&pids).map_err(|e| format!("/proc: {e}"))?;
        closed_loop(
            &mut sut.service,
            &inputs.pool,
            &inputs.refs,
            &mut inputs.stream,
            w.outstanding(),
            round,
            tracer,
            &mut phases.facade,
        );
        let after = Snapshot::after(&pids).map_err(|e| format!("/proc: {e}"))?;
        let net1 = sut.service.network_snapshot().unwrap_or_default();
        let cache1 = sut.service.cache_stats();
        let co1 = sut.service.coalesce_stats();
        let c = &mut phases.counters;
        c.add_proc(w.plane(), &before, &after);
        c.messages += net1.messages - net0.messages;
        c.cache_hits += cache1.hits - cache0.hits;
        c.cache_misses += cache1.misses - cache0.misses;
        c.cache_bytes_saved += cache1.bytes_saved - cache0.bytes_saved;
        c.coalesce_saved += co1.saved_optimizations - co0.saved_optimizations;
        let order = phases.facade.order[submitted..].to_vec();
        replay(&mut msut, w, inputs, &order, tracer, &mut phases.mpq);
    }
    sut.shutdown();
    msut.shutdown();
    Ok(phases)
}

/// Per-query results of the partition, dp and codec replays over the sample.
#[derive(Default)]
struct LayerReplay {
    queries: u64,
    failed: u64,
    partition_ns: f64,
    admissible_max_sum: u64,
    kernel_max_ns: f64,
    kernel_sum_ns: f64,
    plans_max: u64,
    plans_sum: u64,
    splits_max: u64,
    stored_max: u64,
    serial_plans: u64,
    serial_ns: u64,
    encode_ns: f64,
    decode_ns: f64,
    bytes: u64,
}

/// Repeats `pass` until [`REPLAY_MIN`] has elapsed; returns nanoseconds
/// per pass. The first pass runs with `first = true`.
fn repeat(mut pass: impl FnMut(bool)) -> f64 {
    let t0 = Instant::now();
    let mut passes = 0u32;
    while passes == 0 || t0.elapsed() < REPLAY_MIN {
        pass(passes == 0);
        passes += 1;
    }
    t0.elapsed().as_nanos() as f64 / f64::from(passes)
}

/// Optimizes every partition of `query` (as many as the workers use) one
/// after another with `optimize_partition`; returns each partition id,
/// outcome and the call's start and end.
pub fn optimize_partitions(
    query: &Query,
    space: PlanSpace,
) -> Vec<(u64, PartitionOutcome, Instant, Instant)> {
    let tables = query.num_tables();
    let m = effective_workers(space, tables, WORKERS as u64);
    (0..m)
        .map(|part| {
            let cs = partition_constraints(tables, space, part, m);
            let t0 = Instant::now();
            let outcome = optimize_partition(query, space, Objective::Single, &cs);
            (part, outcome, t0, Instant::now())
        })
        .collect()
}

/// Replays the sample through the partition, dp and codec layers.
fn layer_phase(ctx: &Ctx, inputs: &Inputs, tracer: &mut Tracer) -> LayerReplay {
    let n = sample_len(ctx.workload).min(inputs.pool.len());
    let pool = &inputs.pool;
    let shape = |i: usize| {
        let tables = pool.queries[i].num_tables();
        let space = pool.spaces[i];
        (
            tables,
            space,
            effective_workers(space, tables, WORKERS as u64),
        )
    };
    let mut out = LayerReplay {
        queries: n as u64,
        ..LayerReplay::default()
    };

    // partition: constraint decoding and admissible-set enumeration.
    let mut admissible = vec![0u64; n];
    out.partition_ns = repeat(|first| {
        for (i, adm_max) in admissible.iter_mut().enumerate() {
            let (tables, space, m) = shape(i);
            for part in 0..m {
                let t0 = Instant::now();
                let cs = partition_constraints(tables, space, part, m);
                let t1 = Instant::now();
                let sets = AdmissibleSets::new(black_box(&cs));
                let t2 = Instant::now();
                if first {
                    *adm_max = (*adm_max).max(sets.len() as u64);
                    tracer.record("partition.constraints", i as u64, None, t0, t1);
                    tracer.record("partition.admissible", i as u64, None, t1, t2);
                }
                black_box(sets);
            }
        }
    });
    out.admissible_max_sum = admissible.iter().sum();

    // dp: every partition of every sample query, once, against the serial
    // reference from the oracle.
    let mut messages: Vec<(MasterMessage, WorkerMsg)> = Vec::new();
    for i in 0..n {
        let (_, space, m) = shape(i);
        let query = &pool.queries[i];
        let t_query = Instant::now();
        let mut kernels = Vec::new();
        let mut stats = Vec::new();
        let mut best = f64::INFINITY;
        for (part, outcome, t0, t1) in optimize_partitions(query, space) {
            kernels.push((t0, t1));
            best = best.min(outcome.plans[0].cost().time);
            stats.push(outcome.stats);
            messages.push((
                MasterMessage {
                    query: query.clone(),
                    space,
                    objective: Objective::Single,
                    first_partition: part,
                    partition_count: 1,
                    total_partitions: m,
                    progress_every: 0,
                },
                WorkerMsg::Reply(WorkerReply {
                    first_partition: part,
                    partition_count: 1,
                    plans: outcome.plans,
                    stats: outcome.stats,
                    cache_hits: 0,
                    cache_misses: 1,
                }),
            ));
        }
        let parent = tracer.record("dp.query", i as u64, None, t_query, Instant::now());
        let kernel_ns: Vec<u64> = kernels
            .iter()
            .map(|(t0, t1)| t1.duration_since(*t0).as_nanos() as u64)
            .collect();
        for (t0, t1) in kernels {
            tracer.record("dp.kernel", i as u64, parent, t0, t1);
        }
        let max_ns = kernel_ns.iter().copied().max().unwrap_or(0);
        let sum_ns: u64 = kernel_ns.iter().sum();
        out.plans_max += stats.iter().map(|s| s.plans_generated).max().unwrap_or(0);
        out.plans_sum += stats.iter().map(|s| s.plans_generated).sum::<u64>();
        out.splits_max += stats.iter().map(|s| s.splits_tried).max().unwrap_or(0);
        out.stored_max += stats.iter().map(|s| s.stored_sets).max().unwrap_or(0);
        out.kernel_max_ns += max_ns as f64;
        out.kernel_sum_ns += sum_ns as f64;
        out.serial_plans += inputs.refs[i].plans;
        out.serial_ns += inputs.refs[i].nanos;
        if best.to_bits() != inputs.refs[i].cost_bits {
            out.failed += 1;
            eprintln!(
                "dp replay of query {i}: best partition plan differs from the serial optimum"
            );
        }
    }

    // codec: the task and reply messages of every sample query.
    let encoded: Vec<(Vec<u8>, Vec<u8>)> = messages
        .iter()
        .map(|(task, reply)| (task.to_bytes().to_vec(), reply.to_bytes().to_vec()))
        .collect();
    out.bytes = encoded
        .iter()
        .map(|(t, r)| (t.len() + r.len()) as u64)
        .sum();
    let t0 = Instant::now();
    out.encode_ns = repeat(|_| {
        for (task, reply) in &messages {
            black_box(task.to_bytes());
            black_box(reply.to_bytes());
        }
    });
    tracer.record("codec.encode", 0, None, t0, Instant::now());
    let t0 = Instant::now();
    let mut decoded_ok = true;
    out.decode_ns = repeat(|first| {
        for ((task, reply), (task_bytes, reply_bytes)) in messages.iter().zip(&encoded) {
            let t = MasterMessage::from_bytes(black_box(task_bytes));
            let r = WorkerMsg::from_bytes(black_box(reply_bytes));
            if first {
                decoded_ok &= t.as_ref() == Ok(task) && r.as_ref() == Ok(reply);
            }
            let _ = black_box((t, r));
        }
    });
    tracer.record("codec.decode", 0, None, t0, Instant::now());
    if !decoded_ok {
        out.failed += 1;
        eprintln!("codec replay: a message did not decode to what was encoded");
    }
    out
}

/// Mean of a per-session field.
fn facts_mean(facts: &[SessionFacts], f: impl Fn(&SessionFacts) -> f64) -> f64 {
    if facts.is_empty() {
        return 0.0;
    }
    facts.iter().map(f).sum::<f64>() / facts.len() as f64
}

/// The traced run.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut inputs = ctx.inputs()?;
    let mut tracer = Tracer::new(true);
    let phases = service_phases(ctx, &mut inputs, &mut tracer)?;
    let layers = layer_phase(ctx, &inputs, &mut tracer);
    let speedup = parallel_speedup();
    let (facade, mpq, c) = (&phases.facade, &phases.mpq, &phases.counters);

    let w = ctx.workload;
    let done = facade.completed().max(1) as f64;
    let sample = layers.queries.max(1) as f64;
    let serial_plans = layers.serial_plans.max(1) as f64;
    let request_ms = tracer.mean_ns("service.request") / 1e6;
    let kernel_ms_max = layers.kernel_max_ns / sample / 1e6;
    let lookups = (c.cache_hits + c.cache_misses).max(1) as f64;
    let messages_per_query = c.messages as f64 / done;

    let metrics = vec![
        Metric::measured(
            "service.self_us",
            "us",
            (tracer.mean_ns("service.request") - tracer.mean_ns("mpq.session")) / 1e3,
        ),
        Metric::measured(
            "service.coalesce_saved_frac",
            "frac",
            c.coalesce_saved as f64 / facade.attempted.max(1) as f64,
        ),
        Metric::measured(
            "service.cache_hit_rate",
            "frac",
            c.cache_hits as f64 / lookups,
        ),
        Metric::measured(
            "service.cache_bytes_saved_per_query",
            "bytes",
            c.cache_bytes_saved as f64 / done,
        ),
        Metric::measured("mpq.submit_us", "us", tracer.mean_ns("mpq.submit") / 1e3),
        Metric::measured("mpq.session_us", "us", tracer.mean_ns("mpq.session") / 1e3),
        Metric::measured(
            "mpq.master_overhead_us",
            "us",
            facts_mean(&mpq.facts, |f| f.total_us as f64 - f.max_worker_us as f64),
        ),
        Metric::count(
            "mpq.partitions_per_query",
            "count",
            facts_mean(&mpq.facts, |f| f.partitions as f64),
        ),
        Metric::measured(
            "mpq.retries_per_query",
            "count",
            facts_mean(&mpq.facts, |f| f.retries as f64),
        ),
        Metric::measured("codec.encode_ns_per_query", "ns", layers.encode_ns / sample),
        Metric::measured("codec.decode_ns_per_query", "ns", layers.decode_ns / sample),
        Metric::count(
            "codec.bytes_per_query",
            "bytes",
            layers.bytes as f64 / sample,
        ),
        if messages_exact(w) {
            Metric::count("transport.messages_per_query", "count", messages_per_query)
        } else {
            Metric::measured("transport.messages_per_query", "count", messages_per_query)
        },
        Metric::measured(
            "transport.syscalls_per_query",
            "count",
            c.syscalls as f64 / done,
        ),
        Metric::measured(
            "transport.reader_cpu_us_per_query",
            "us",
            c.readers.run_ns as f64 / done / 1e3,
        ),
        Metric::measured(
            "transport.reader_wakeups_per_query",
            "count",
            c.readers.slices as f64 / done,
        ),
        Metric::measured(
            "partition.build_us_per_query",
            "us",
            layers.partition_ns / sample / 1e3,
        ),
        Metric::count(
            "partition.admissible_sets_max",
            "count",
            layers.admissible_max_sum as f64 / sample,
        ),
        Metric::measured("dp.kernel_ms_max", "ms", kernel_ms_max),
        Metric::measured(
            "dp.kernel_ms_sum",
            "ms",
            layers.kernel_sum_ns / sample / 1e6,
        ),
        Metric::measured("dp.serial_ms", "ms", layers.serial_ns as f64 / sample / 1e6),
        Metric::measured(
            "dp.ns_per_plan",
            "ns",
            layers.kernel_sum_ns / layers.plans_sum.max(1) as f64,
        ),
        Metric::count(
            "dp.plans_generated_max",
            "count",
            layers.plans_max as f64 / sample,
        ),
        Metric::count(
            "dp.plans_generated_sum",
            "count",
            layers.plans_sum as f64 / sample,
        ),
        Metric::count(
            "dp.splits_tried_max",
            "count",
            layers.splits_max as f64 / sample,
        ),
        Metric::count(
            "dp.stored_sets_max",
            "count",
            layers.stored_max as f64 / sample,
        ),
        Metric::count(
            "dp.critical_path_ratio",
            "ratio",
            layers.plans_max as f64 / serial_plans,
        ),
        Metric::count(
            "dp.redundancy_ratio",
            "ratio",
            layers.plans_sum as f64 / serial_plans,
        ),
        Metric::measured(
            "dp.worker_cpu_ms_per_query",
            "ms",
            c.dp_workers.run_ns as f64 / done / 1e6,
        ),
        Metric::measured(
            "dp.latency_share",
            "frac",
            if request_ms > 0.0 {
                kernel_ms_max / request_ms
            } else {
                0.0
            },
        ),
        Metric::measured(
            "host.runqueue_wait_frac",
            "frac",
            c.all.wait_ns as f64 / (c.all.run_ns + c.all.wait_ns).max(1) as f64,
        ),
        Metric::measured("host.parallel_speedup", "ratio", speedup),
    ];

    let mut report = Report {
        attempted: phases.warm.attempted + facade.attempted + mpq.attempted + layers.queries,
        failed: phases.warm.failed + facade.failed + mpq.failed + layers.failed,
        metrics,
        notes: vec![format!("workload {} seed {} (traced)", w.name(), ctx.seed)],
    };
    let traced = [WindowStats::of(w, facade, c.all.run_ns as f64 / 1e9)];
    report
        .notes
        .push(format!("traced facade: {}", WindowStats::note(&traced)));
    for m in WindowStats::metrics(&traced) {
        report.notes.push(format!(
            "traced end-to-end {} = {} {}",
            m.name, m.value, m.unit
        ));
    }
    report.notes.push(format!(
        "replayed {} facade submissions through MpqService; {} sample queries through partition, dp and codec",
        mpq.attempted, layers.queries
    ));

    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    let path = Path::new(OUT_DIR).join(format!("{}-seed{}.csv", w.name(), ctx.seed));
    tracer
        .write_csv(&path, WRITTEN_REQUESTS)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    report.notes.push(format!(
        "spans of the first {WRITTEN_REQUESTS} requests per layer written to {}",
        path.display()
    ));
    Ok(report)
}
