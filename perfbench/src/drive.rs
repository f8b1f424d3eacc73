//! The closed-loop runner and the in-memory span recorder.
//!
//! One thread keeps a fixed number of submissions outstanding: it waits
//! for the oldest, checks its plan against the serial optimum, and only
//! then submits the next query — a DBMS session that blocks on its plan
//! before it runs the query. The same loop drives the facade
//! (`OptimizerService`) and, in the traced run, a bare `MpqService`
//! replaying the facade's stream.

use crate::oracle::Reference;
use crate::workload::Pool;
use pqopt::cost::Objective;
use pqopt::model::Query;
use pqopt::mpq::{MpqService, QueryHandle};
use pqopt::partition::PlanSpace;
use pqopt::plan::Plan;
use pqopt::prelude::{OptimizerService, ServiceHandle};
use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span: a named interval at a layer boundary.
#[derive(Clone, Debug)]
pub struct Span {
    /// `layer.boundary`, e.g. `service.submit`.
    pub name: &'static str,
    /// The request it belongs to (submission sequence number), or the
    /// sample index for replayed layer calls.
    pub id: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

/// Spans kept in memory until the run ends. A disabled tracer records
/// nothing.
pub struct Tracer {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            on,
            spans: Vec::new(),
        }
    }

    /// Records a span and returns its index (`None` while disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        Some(self.spans.len() - 1)
    }

    /// Mean duration of the spans called `name`, in nanoseconds (0 if none).
    pub fn mean_ns(&self, name: &str) -> f64 {
        let durations: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect();
        crate::stats::mean(&durations)
    }

    /// Writes the spans with `id < max_id` as CSV:
    /// `index,name,id,parent,start_ns,end_ns`, where `parent` is the
    /// parent's `index`. A stream workload records millions of spans; the
    /// first `max_id` requests of each layer show their shape.
    pub fn write_csv(&self, path: &Path, max_id: u64) -> std::io::Result<()> {
        let mut out = BufWriter::new(File::create(path)?);
        writeln!(out, "index,name,id,parent,start_ns,end_ns")?;
        for (i, s) in self.spans.iter().enumerate().filter(|(_, s)| s.id < max_id) {
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
            writeln!(
                out,
                "{i},{},{},{parent},{},{}",
                s.name, s.id, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Per-session facts the MPQ scheduler reports with each outcome.
#[derive(Clone, Copy, Debug, Default)]
pub struct SessionFacts {
    /// Master-side session time (`MpqMetrics::total_micros`).
    pub total_us: u64,
    /// Slowest worker's pure optimization time.
    pub max_worker_us: u64,
    /// Plan-space partitions used.
    pub partitions: u64,
    /// Task re-issues.
    pub retries: u64,
}

/// A layer the closed loop can drive.
pub trait Target {
    /// Ticket of one submission.
    type Handle;
    /// Span-name prefix of this layer.
    const LAYER: [&'static str; 3];
    /// Submits one query.
    fn submit(&mut self, query: &Query, space: PlanSpace) -> Result<Self::Handle, String>;
    /// Blocks until the submission completes; returns its plans.
    fn wait(&mut self, handle: Self::Handle) -> Result<(Vec<Plan>, Option<SessionFacts>), String>;
}

impl Target for OptimizerService {
    type Handle = ServiceHandle;
    const LAYER: [&'static str; 3] = ["service.request", "service.submit", "service.wait"];

    fn submit(&mut self, query: &Query, space: PlanSpace) -> Result<ServiceHandle, String> {
        OptimizerService::submit(self, query, space, Objective::Single).map_err(|e| e.to_string())
    }

    fn wait(&mut self, handle: ServiceHandle) -> Result<(Vec<Plan>, Option<SessionFacts>), String> {
        OptimizerService::wait(self, handle)
            .map(|plans| (plans, None))
            .map_err(|e| e.to_string())
    }
}

impl Target for MpqService {
    type Handle = QueryHandle;
    const LAYER: [&'static str; 3] = ["mpq.session", "mpq.submit", "mpq.wait"];

    fn submit(&mut self, query: &Query, space: PlanSpace) -> Result<QueryHandle, String> {
        MpqService::submit(self, query, space, Objective::Single).map_err(|e| e.to_string())
    }

    fn wait(&mut self, handle: QueryHandle) -> Result<(Vec<Plan>, Option<SessionFacts>), String> {
        let out = MpqService::wait(self, handle).map_err(|e| e.to_string())?;
        let m = &out.metrics;
        let facts = SessionFacts {
            total_us: m.total_micros,
            max_worker_us: m.max_worker_micros,
            partitions: m.partitions,
            retries: m.retries,
        };
        Ok((out.plans, Some(facts)))
    }
}

/// When a closed loop stops submitting.
#[derive(Clone, Copy, Debug)]
pub enum Stop {
    /// After this long, at the next whole multiple of submissions.
    After(Duration, u64),
    /// After exactly this many submissions.
    Count(usize),
}

/// What one closed loop did.
#[derive(Clone, Debug, Default)]
pub struct LoopResult {
    /// Pool index of every submission, in submission order.
    pub order: Vec<usize>,
    /// Submit → plan latency of every completed submission, nanoseconds.
    pub latencies_ns: Vec<u64>,
    /// Per-session scheduler facts (MPQ layer only).
    pub facts: Vec<SessionFacts>,
    /// Submissions attempted.
    pub attempted: u64,
    /// Submissions that failed, were refused, or returned a wrong plan.
    pub failed: u64,
    /// First submission to the last completion, summed over the loops
    /// that appended to this result.
    pub elapsed: Duration,
}

impl LoopResult {
    /// Submissions that returned a correct plan.
    pub fn completed(&self) -> u64 {
        self.attempted - self.failed
    }
}

/// Whether `plans` is exactly the serial optimum `reference`.
pub fn plan_ok(plans: &[Plan], reference: &Reference) -> bool {
    plans.len() == 1 && plans[0].cost().time.to_bits() == reference.cost_bits
}

/// Runs a closed loop of `outstanding` submissions against `target`,
/// drawing pool indices from `order`, until `stop`; appends what it did to
/// `result`, whose submission count continues the sequence numbers.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop<T: Target>(
    target: &mut T,
    pool: &Pool,
    refs: &[Reference],
    order: &mut dyn Iterator<Item = usize>,
    outstanding: usize,
    stop: Stop,
    tracer: &mut Tracer,
    result: &mut LoopResult,
) {
    let [request, submit_name, wait_name] = T::LAYER;
    let mut queue: VecDeque<(u64, usize, Instant, Instant, T::Handle)> = VecDeque::new();
    let start = Instant::now();
    let first = result.attempted;
    let more = |r: &LoopResult| match stop {
        Stop::After(window, multiple) => {
            start.elapsed() < window || !r.attempted.is_multiple_of(multiple.max(1))
        }
        Stop::Count(n) => r.attempted - first < n as u64,
    };
    loop {
        while queue.len() < outstanding && more(result) {
            let Some(idx) = order.next() else { break };
            let seq = result.attempted;
            result.attempted += 1;
            result.order.push(idx);
            let t0 = Instant::now();
            let handle = target.submit(&pool.queries[idx], pool.spaces[idx]);
            let t1 = Instant::now();
            match handle {
                Ok(h) => queue.push_back((seq, idx, t0, t1, h)),
                Err(e) => {
                    result.failed += 1;
                    eprintln!("submission {seq} refused: {e}");
                }
            }
        }
        let Some((seq, idx, t0, t1, handle)) = queue.pop_front() else {
            break;
        };
        let t2 = Instant::now();
        let outcome = target.wait(handle);
        let t3 = Instant::now();
        match outcome {
            Ok((plans, facts)) if plan_ok(&plans, &refs[idx]) => {
                result
                    .latencies_ns
                    .push(t3.duration_since(t0).as_nanos() as u64);
                result.facts.extend(facts);
            }
            Ok(_) => {
                result.failed += 1;
                eprintln!("submission {seq}: plan differs from the serial optimum");
            }
            Err(e) => {
                result.failed += 1;
                eprintln!("submission {seq} failed: {e}");
            }
        }
        let parent = tracer.record(request, seq, None, t0, t3);
        tracer.record(submit_name, seq, parent, t0, t1);
        tracer.record(wait_name, seq, parent, t2, t3);
    }
    result.elapsed += start.elapsed();
}
