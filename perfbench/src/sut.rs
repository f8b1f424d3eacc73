//! The system under test: an `OptimizerService` (or, for the per-layer
//! replay, a bare `MpqService`) configured for one workload, plus the
//! `pqopt worker` processes behind it when the workload runs over sockets.

use crate::workload::{Plane, Workload, WORKERS};
use pqopt::cluster::{SocketTransport, WorkerAddr};
use pqopt::mpq::{MpqConfig, MpqService};
use pqopt::prelude::{Backend, OptimizerService, ServiceConfig};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Directory, relative to the working directory, that holds the worker
/// processes' unix sockets. Relative keeps socket paths short.
pub const SOCKET_DIR: &str = ".perfbench_run";

/// How long a worker process may take to exit once its master hung up.
const EXIT_GRACE: Duration = Duration::from_secs(5);

/// Running `pqopt worker` processes. Dropping this waits for them to exit
/// (they do once their master disconnects), killing any that do not, and
/// removes their sockets.
pub struct Workers {
    children: Vec<Child>,
    /// Kept open so a worker never writes into a closed pipe.
    stdouts: Vec<BufReader<ChildStdout>>,
    sockets: Vec<PathBuf>,
}

impl Workers {
    /// Starts `WORKERS` worker processes of the `pqopt` binary at `pqopt`
    /// and waits until each listens.
    pub fn start(pqopt: &Path, cache_bytes: usize) -> Result<(Workers, Vec<WorkerAddr>), String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        std::fs::create_dir_all(SOCKET_DIR)
            .map_err(|e| format!("cannot create {SOCKET_DIR}: {e}"))?;
        let mut workers = Workers {
            children: Vec::new(),
            stdouts: Vec::new(),
            sockets: Vec::new(),
        };
        let mut addrs = Vec::new();
        for _ in 0..WORKERS {
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let socket = PathBuf::from(format!("{SOCKET_DIR}/{}-{n}.sock", std::process::id()));
            let _ = std::fs::remove_file(&socket);
            let listen = format!("unix:{}", socket.display());
            let mut child = Command::new(pqopt)
                .args(["worker", "--backend", "mpq", "--listen", &listen])
                .args(["--cache-bytes", &cache_bytes.to_string()])
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .spawn()
                .map_err(|e| format!("cannot start {}: {e}", pqopt.display()))?;
            let stdout = child.stdout.take();
            workers.children.push(child);
            workers.sockets.push(socket);
            let Some(stdout) = stdout else {
                return Err("worker stdout not captured".into());
            };
            // The worker prints its bound address once it listens.
            let mut reader = BufReader::new(stdout);
            let mut line = String::new();
            let read = reader.read_line(&mut line);
            workers.stdouts.push(reader);
            if !matches!(read, Ok(n) if n > 0) || !line.starts_with("listening on") {
                return Err(format!("worker did not come up (said {line:?})"));
            }
            addrs.push(listen.parse::<WorkerAddr>()?);
        }
        Ok((workers, addrs))
    }

    /// Process ids of the workers.
    pub fn pids(&self) -> Vec<u32> {
        self.children.iter().map(Child::id).collect()
    }
}

impl Drop for Workers {
    fn drop(&mut self) {
        let deadline = Instant::now() + EXIT_GRACE;
        for child in &mut self.children {
            loop {
                match child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(2))
                    }
                    _ => {
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                }
            }
        }
        for socket in &self.sockets {
            let _ = std::fs::remove_file(socket);
        }
    }
}

/// The facade configured for a workload.
pub struct Sut {
    /// The service every end-to-end request goes through.
    pub service: OptimizerService,
    workers: Option<Workers>,
}

impl Sut {
    /// Brings the workload's service up: spawns worker threads, or starts
    /// worker processes and connects to them.
    pub fn setup(workload: Workload, pqopt: &Path) -> Result<Sut, String> {
        let config = ServiceConfig {
            cache_bytes: workload.cache_bytes(),
            coalesce: workload.coalesce(),
            ..ServiceConfig::new(Backend::Mpq, WORKERS)
        };
        match workload.plane() {
            Plane::InProcess => Ok(Sut {
                service: OptimizerService::spawn(config).map_err(|e| e.to_string())?,
                workers: None,
            }),
            Plane::Sockets => {
                let (workers, addrs) = Workers::start(pqopt, workload.cache_bytes())?;
                let service =
                    OptimizerService::connect(config, &addrs).map_err(|e| e.to_string())?;
                Ok(Sut {
                    service,
                    workers: Some(workers),
                })
            }
        }
    }

    /// This process followed by the worker processes.
    pub fn pids(&self) -> Vec<u32> {
        own_and(self.workers.as_ref())
    }

    /// Shuts the service down and waits for every worker to end.
    pub fn shutdown(self) {
        self.service.shutdown();
        drop(self.workers);
    }
}

/// A bare MPQ scheduler configured like the workload's facade backend,
/// for replaying the facade's stream one layer down.
pub struct MpqSut {
    /// The scheduler.
    pub service: MpqService,
    workers: Option<Workers>,
}

impl MpqSut {
    /// Brings the scheduler up on the workload's worker plane.
    pub fn setup(workload: Workload, pqopt: &Path) -> Result<MpqSut, String> {
        let config = MpqConfig {
            cache_bytes: workload.cache_bytes(),
            ..MpqConfig::default()
        };
        match workload.plane() {
            Plane::InProcess => Ok(MpqSut {
                service: MpqService::spawn(WORKERS, config).map_err(|e| e.to_string())?,
                workers: None,
            }),
            Plane::Sockets => {
                let (workers, addrs) = Workers::start(pqopt, workload.cache_bytes())?;
                let transport = SocketTransport::connect(&addrs).map_err(|e| e.to_string())?;
                let service = MpqService::with_transport(Box::new(transport), config)
                    .map_err(|e| e.to_string())?;
                Ok(MpqSut {
                    service,
                    workers: Some(workers),
                })
            }
        }
    }

    /// This process followed by the worker processes.
    pub fn pids(&self) -> Vec<u32> {
        own_and(self.workers.as_ref())
    }

    /// Shuts the scheduler down and waits for every worker to end.
    pub fn shutdown(self) {
        self.service.shutdown();
        drop(self.workers);
    }
}

fn own_and(workers: Option<&Workers>) -> Vec<u32> {
    let mut pids = vec![std::process::id()];
    pids.extend(workers.map(Workers::pids).unwrap_or_default());
    pids
}
