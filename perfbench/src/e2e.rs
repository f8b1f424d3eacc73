//! The untraced run: the seven end-to-end metrics of one workload.

use crate::drive::{closed_loop, plan_ok, LoopResult, Stop, Tracer};
use crate::oracle::{self, Reference};
use crate::procfs::{parallel_speedup, Snapshot};
use crate::report::{Metric, Report};
use crate::stats;
use crate::sut::Sut;
use crate::workload::{Pool, Stream, Workload};
use pqopt::cost::Objective;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Everything a run needs to know.
#[derive(Clone, Debug)]
pub struct Ctx {
    /// The workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: f64,
    /// This benchmark's own executable (re-run as the oracle).
    pub exe: PathBuf,
    /// The `pqopt` executable (run as `pqopt worker`).
    pub pqopt: PathBuf,
}

/// A workload's pool, its references, and a fresh stream.
pub struct Inputs {
    /// Distinct queries.
    pub pool: Pool,
    /// Serial optimum of each pool query.
    pub refs: Vec<Reference>,
    /// Submission order.
    pub stream: Stream,
}

impl Ctx {
    /// Generates the inputs and computes their references (untimed).
    pub fn inputs(&self) -> Result<Inputs, String> {
        let pool = self.workload.pool(self.seed);
        let refs = oracle::from_child(&self.exe, self.workload, self.seed, pool.len())?;
        Ok(Inputs {
            pool,
            refs,
            stream: self.workload.stream(self.seed),
        })
    }

    /// Runs the workload's closed loop through `sut` on `inputs`' stream
    /// until `stop`.
    pub fn drive(
        &self,
        sut: &mut Sut,
        inputs: &mut Inputs,
        stop: Stop,
        tracer: &mut Tracer,
    ) -> LoopResult {
        let mut result = LoopResult::default();
        closed_loop(
            &mut sut.service,
            &inputs.pool,
            &inputs.refs,
            &mut inputs.stream,
            self.workload.outstanding(),
            stop,
            tracer,
            &mut result,
        );
        result
    }

    /// Runs a warm-up of `min(1 s, seconds / 10)` through `sut` on
    /// `inputs`' stream, so caches fill and lazy set-up finishes before
    /// anything is measured.
    pub fn warm(&self, sut: &mut Sut, inputs: &mut Inputs) -> LoopResult {
        let window = Duration::from_secs_f64((self.seconds / 10.0).min(1.0));
        let stop = Stop::After(window, self.workload.stop_multiple());
        self.drive(sut, inputs, stop, &mut Tracer::new(false))
    }
}

/// One set-up: service up (worker processes started and connected for the
/// socket workload) through the first accepted submit. The submission is
/// then redeemed, checked, and the service shut down, untimed. Returns the
/// set-up time and whether the plan was the serial optimum.
fn setup_probe(ctx: &Ctx, inputs: &Inputs) -> Result<(f64, bool), String> {
    let first = 0;
    let query = &inputs.pool.queries[first];
    let t0 = Instant::now();
    let mut sut = Sut::setup(ctx.workload, &ctx.pqopt)?;
    let handle = sut
        .service
        .submit(query, inputs.pool.spaces[first], Objective::Single)
        .map_err(|e| format!("first submit refused: {e}"))?;
    let setup = t0.elapsed().as_secs_f64();
    let ok = match sut.service.wait(handle) {
        Ok(plans) => plan_ok(&plans, &inputs.refs[first]),
        Err(e) => {
            eprintln!("set-up probe failed: {e}");
            false
        }
    };
    sut.shutdown();
    if !ok {
        eprintln!("set-up probe: no optimal plan");
    }
    Ok((setup, ok))
}

/// End-to-end figures of one measured window.
#[derive(Clone, Debug)]
pub struct WindowStats {
    /// Median latency, ms.
    pub p50_ms: f64,
    /// Percentile the tail latency is taken at.
    pub tail_pct: f64,
    /// Tail latency, ms.
    pub tail_ms: f64,
    /// Correct plans per second.
    pub qps: f64,
    /// CPU per correct plan, ms.
    pub cpu_ms_per_query: f64,
    /// Latency samples.
    pub samples: usize,
}

impl WindowStats {
    /// The figures of `run`, a window of `workload` that used `cpu_s`
    /// seconds of CPU.
    pub fn of(workload: Workload, run: &LoopResult, cpu_s: f64) -> WindowStats {
        let lat_ms: Vec<f64> = run.latencies_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
        let (tail_pct, tail_ms) = stats::tail(&lat_ms, workload.tail_percentile());
        WindowStats {
            p50_ms: stats::median(&lat_ms),
            tail_pct,
            tail_ms,
            qps: run.completed() as f64 / run.elapsed.as_secs_f64().max(1e-9),
            cpu_ms_per_query: cpu_s * 1e3 / run.completed().max(1) as f64,
            samples: lat_ms.len(),
        }
    }

    /// The four latency and throughput metrics: per metric, the median
    /// over `windows`.
    pub fn metrics(windows: &[WindowStats]) -> Vec<Metric> {
        let med =
            |f: fn(&WindowStats) -> f64| stats::median(&windows.iter().map(f).collect::<Vec<_>>());
        vec![
            Metric::measured("latency_p50_ms", "ms", med(|w| w.p50_ms)),
            Metric::measured("latency_tail_ms", "ms", med(|w| w.tail_ms)),
            Metric::measured("qps", "1/s", med(|w| w.qps)),
            Metric::measured("cpu_ms_per_query", "ms", med(|w| w.cpu_ms_per_query)),
        ]
    }

    /// A line naming the windows, their tail percentiles and sample counts.
    pub fn note(windows: &[WindowStats]) -> String {
        let pcts: Vec<String> = windows.iter().map(|w| format!("p{}", w.tail_pct)).collect();
        let samples: Vec<String> = windows.iter().map(|w| w.samples.to_string()).collect();
        let qps: Vec<String> = windows.iter().map(|w| format!("{:.0}", w.qps)).collect();
        format!(
            "medians over {} window(s); latency_tail_ms at {} of {} samples; qps {}",
            windows.len(),
            pcts.join("/"),
            samples.join("/"),
            qps.join("/")
        )
    }
}

/// The untraced run.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut inputs = ctx.inputs()?;
    let mut report = Report::default();
    let probes = ctx.workload.setup_probes();
    let mut setups = Vec::with_capacity(probes);
    for _ in 0..probes {
        let (setup, ok) = setup_probe(ctx, &inputs)?;
        setups.push(setup);
        report.attempted += 1;
        report.failed += u64::from(!ok);
    }

    let speedup_before = parallel_speedup();
    let mut sut = Sut::setup(ctx.workload, &ctx.pqopt)?;
    let warm = ctx.warm(&mut sut, &mut inputs);
    report.attempted += warm.attempted;
    report.failed += warm.failed;
    let pids = sut.pids();
    let count = ctx.workload.windows(ctx.seconds);
    let window = Stop::After(
        Duration::from_secs_f64(ctx.seconds / count as f64),
        ctx.workload.stop_multiple(),
    );
    let mut windows = Vec::with_capacity(count);
    let mut last = None;
    for _ in 0..count {
        let before = Snapshot::before(&pids).map_err(|e| format!("/proc: {e}"))?;
        let run = ctx.drive(&mut sut, &mut inputs, window, &mut Tracer::new(false));
        let after = Snapshot::after(&pids).map_err(|e| format!("/proc: {e}"))?;
        windows.push(WindowStats::of(
            ctx.workload,
            &run,
            after.cpu_s_since(&before),
        ));
        report.attempted += run.attempted;
        report.failed += run.failed;
        last = Some(after);
    }
    sut.shutdown();

    report.notes.push(format!(
        "workload {} seed {}",
        ctx.workload.name(),
        ctx.seed
    ));
    report.notes.push(format!(
        "host parallel speedup {speedup_before:.2} before the windows, {:.2} after",
        parallel_speedup()
    ));
    report.notes.push(WindowStats::note(&windows));
    report
        .notes
        .push(format!("setup_s is the median of {} set-ups", setups.len()));
    let mut metrics = WindowStats::metrics(&windows);
    let after = last.unwrap_or_default();
    metrics.push(Metric::measured("peak_rss_mib", "MiB", after.hwm_mib()));
    metrics.push(Metric::measured("setup_s", "s", stats::median(&setups)));
    let ok_frac = 1.0 - report.failed as f64 / report.attempted.max(1) as f64;
    metrics.push(Metric::measured("ok_frac", "frac", ok_frac));
    report.metrics = metrics;
    Ok(report)
}
