//! Dependency-free readers for the `/proc` counters the benchmark reports.
//!
//! Every counter is sampled twice, around a measured phase, and the
//! difference is attributed to that phase. Per-thread CPU and run-queue
//! wait come from `/proc/<pid>/task/<tid>/schedstat` (nanoseconds on the
//! CPU, nanoseconds runnable but waiting for one), keyed by the thread's
//! name, so a thread's busy time means the same on 2 cores as on 64.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Read};

/// One thread's scheduler counters.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ThreadTimes {
    /// Nanoseconds spent running on a CPU.
    pub run_ns: u64,
    /// Nanoseconds spent runnable but waiting on a run queue.
    pub wait_ns: u64,
    /// Times the thread was switched onto a CPU (a blocked thread's
    /// wake-ups, plus preemptions).
    pub slices: u64,
}

/// A snapshot of one process's counters.
#[derive(Clone, Debug, Default)]
pub struct ProcSample {
    /// Peak resident set size (`VmHWM`) in KiB.
    pub hwm_kib: u64,
    /// Read plus write system calls (`syscr + syscw` of `/proc/<pid>/io`).
    pub syscalls: u64,
    /// Live threads by `<tid>` → (name, scheduler counters).
    pub threads: BTreeMap<u64, (String, ThreadTimes)>,
}

impl ProcSample {
    /// Samples process `pid`. The system-call counter is read last when
    /// `io_last`, first otherwise, so the reads of a snapshot taken before
    /// a window and one taken after it both fall outside the window.
    pub fn read(pid: u32, io_last: bool) -> io::Result<ProcSample> {
        let syscalls = || -> io::Result<u64> {
            // One read: the kernel samples the counters during it and
            // counts the read itself only afterwards.
            let mut buf = [0u8; 1024];
            let n = fs::File::open(format!("/proc/{pid}/io"))?.read(&mut buf)?;
            let io_text = String::from_utf8_lossy(&buf[..n]);
            Ok(parse_io_field(&io_text, "syscr:")? + parse_io_field(&io_text, "syscw:")?)
        };
        let early = if io_last { 0 } else { syscalls()? };
        let status = fs::read_to_string(format!("/proc/{pid}/status"))?;
        let threads = read_threads(pid)?;
        Ok(ProcSample {
            hwm_kib: parse_kib_field(&status, "VmHWM:")?,
            syscalls: if io_last { syscalls()? } else { early },
            threads,
        })
    }
}

/// Scheduler counters of every live thread of `pid`.
fn read_threads(pid: u32) -> io::Result<BTreeMap<u64, (String, ThreadTimes)>> {
    let mut threads = BTreeMap::new();
    for entry in fs::read_dir(format!("/proc/{pid}/task"))? {
        let entry = entry?;
        let Some(tid) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<u64>().ok())
        else {
            continue;
        };
        // A thread may exit between listing and reading; skip it.
        let Ok(sched) = fs::read_to_string(entry.path().join("schedstat")) else {
            continue;
        };
        let Ok(comm) = fs::read_to_string(entry.path().join("comm")) else {
            continue;
        };
        threads.insert(tid, (comm.trim().to_string(), parse_schedstat(&sched)?));
    }
    Ok(threads)
}

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("unparsable {what}"))
}

/// A `Name:   123 kB` field of `/proc/<pid>/status`.
pub fn parse_kib_field(status: &str, key: &str) -> io::Result<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| bad(key))
}

/// A `name: 123` field of `/proc/<pid>/io`.
pub fn parse_io_field(io_text: &str, key: &str) -> io::Result<u64> {
    io_text
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| bad(key))
}

/// The three fields of a `schedstat` line.
pub fn parse_schedstat(text: &str) -> io::Result<ThreadTimes> {
    let mut it = text.split_whitespace().map(str::parse::<u64>);
    match (it.next(), it.next(), it.next()) {
        (Some(Ok(run_ns)), Some(Ok(wait_ns)), Some(Ok(slices))) => Ok(ThreadTimes {
            run_ns,
            wait_ns,
            slices,
        }),
        _ => Err(bad("schedstat")),
    }
}

/// Counters of a set of processes (the benchmark and its worker
/// processes) sampled together.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// One sample per process, in the order the pids were given.
    pub procs: Vec<ProcSample>,
}

impl Snapshot {
    /// Samples every process in `pids` at the start of a window.
    pub fn before(pids: &[u32]) -> io::Result<Snapshot> {
        Snapshot::take(pids, true)
    }

    /// Samples every process in `pids` at the end of a window.
    pub fn after(pids: &[u32]) -> io::Result<Snapshot> {
        Snapshot::take(pids, false)
    }

    fn take(pids: &[u32], io_last: bool) -> io::Result<Snapshot> {
        Ok(Snapshot {
            procs: pids
                .iter()
                .map(|&p| ProcSample::read(p, io_last))
                .collect::<io::Result<_>>()?,
        })
    }

    /// CPU seconds of every thread alive in both snapshots, over all
    /// processes, from `schedstat` (nanosecond resolution; the resident
    /// threads of a service outlive any measured window).
    pub fn cpu_s_since(&self, before: &Snapshot) -> f64 {
        self.thread_delta(before, |_, _| true).run_ns as f64 / 1e9
    }

    /// Read plus write system calls over all processes since `before`,
    /// less the one read of `/proc/<pid>/io` that `before` itself made
    /// after sampling each process.
    pub fn syscalls_since(&self, before: &Snapshot) -> u64 {
        self.procs
            .iter()
            .zip(&before.procs)
            .map(|(a, b)| a.syscalls.saturating_sub(b.syscalls + 1))
            .sum()
    }

    /// Summed peak RSS over all processes, in MiB.
    pub fn hwm_mib(&self) -> f64 {
        self.procs.iter().map(|p| p.hwm_kib).sum::<u64>() as f64 / 1024.0
    }

    /// Scheduler counters summed over the threads, in any process, whose
    /// name `pick` selects. Only threads alive in both snapshots count.
    pub fn thread_delta(
        &self,
        before: &Snapshot,
        pick: impl Fn(usize, &str) -> bool,
    ) -> ThreadTimes {
        let mut total = ThreadTimes::default();
        for (i, (after, earlier)) in self.procs.iter().zip(&before.procs).enumerate() {
            for (tid, (name, t)) in &after.threads {
                if !pick(i, name) {
                    continue;
                }
                let base = earlier
                    .threads
                    .get(tid)
                    .map(|(_, b)| b.clone())
                    .unwrap_or_default();
                total.run_ns += t.run_ns.saturating_sub(base.run_ns);
                total.wait_ns += t.wait_ns.saturating_sub(base.wait_ns);
                total.slices += t.slices.saturating_sub(base.slices);
            }
        }
        total
    }
}

/// Throughput of two threads spinning at once relative to one thread
/// alone: 2 on two free cores, 1 on one core. The median of five trials.
/// This is the host's parallel capacity, which no `/proc` counter of a
/// virtual machine's guest shows.
pub fn parallel_speedup() -> f64 {
    fn spin() -> u64 {
        let mut x = 1u64;
        for i in 0..50_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
        }
        x
    }
    let trials: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = std::time::Instant::now();
            std::hint::black_box(spin());
            let one = t0.elapsed().as_secs_f64();
            let t0 = std::time::Instant::now();
            std::thread::scope(|s| {
                let other = s.spawn(spin);
                std::hint::black_box(spin());
                std::hint::black_box(other.join().expect("spin thread panicked"));
            });
            2.0 * one / t0.elapsed().as_secs_f64()
        })
        .collect();
    crate::stats::median(&trials)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_io_and_schedstat_fields() {
        assert_eq!(
            parse_kib_field("VmPeak:\t 9 kB\nVmHWM:\t  1692 kB\n", "VmHWM:").unwrap(),
            1692
        );
        assert_eq!(
            parse_io_field("rchar: 1\nsyscr: 9\nsyscw: 2\n", "syscw:").unwrap(),
            2
        );
        let t = parse_schedstat("563438880 3278457 28\n").unwrap();
        assert_eq!((t.run_ns, t.wait_ns, t.slices), (563438880, 3278457, 28));
    }

    #[test]
    fn own_process_is_readable() {
        let s = ProcSample::read(std::process::id(), true).unwrap();
        assert!(s.hwm_kib > 0);
        assert!(!s.threads.is_empty());
    }
}
