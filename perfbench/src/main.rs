//! `perfbench`: run one workload of the benchmark.
//!
//! ```text
//! perfbench run --workload NAME --seed N --seconds S --trace 0|1
//! perfbench oracle --workload NAME --seed N
//! ```
//!
//! `run` prints a table of metrics and, as its last line, one JSON object
//! with the keys `correct`, `attempted`, `failed` and `metrics`; it exits
//! non-zero if any plan differs from the serial optimum. `oracle` prints
//! the serial optimum of every pool query (used by `run` before timing).
//! The worker processes are the `pqopt` executable next to this one.

use perfbench::e2e::Ctx;
use perfbench::workload::Workload;
use perfbench::{e2e, oracle, trace};
use std::process::ExitCode;

fn main() -> ExitCode {
    match cli(&std::env::args().skip(1).collect::<Vec<_>>()) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Value of `--flag` in `args`.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.windows(2)
        .find(|w| w[0] == name)
        .map(|w| w[1].as_str())
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    let raw = flag(args, name).ok_or(format!("missing {name}"))?;
    raw.parse().map_err(|_| format!("bad {name} {raw:?}"))
}

fn cli(args: &[String]) -> Result<ExitCode, String> {
    let command = args.first().map(String::as_str).unwrap_or("");
    let name = flag(args, "--workload").ok_or("missing --workload")?;
    let workload = Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?;
    let seed: u64 = parsed(args, "--seed")?;
    match command {
        "oracle" => {
            print!("{}", oracle::format(&oracle::compute(&workload.pool(seed))));
            Ok(ExitCode::SUCCESS)
        }
        "run" => {
            let seconds: f64 = parsed(args, "--seconds")?;
            if !(seconds > 0.0 && seconds <= 600.0) {
                return Err(format!("--seconds {seconds} out of range"));
            }
            let traced = match flag(args, "--trace").unwrap_or("0") {
                "0" => false,
                "1" => true,
                other => return Err(format!("bad --trace {other:?}")),
            };
            let exe = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
            let pqopt = exe.with_file_name("pqopt");
            let ctx = Ctx {
                workload,
                seed,
                seconds,
                exe,
                pqopt,
            };
            let report = if traced {
                trace::run(&ctx)?
            } else {
                e2e::run(&ctx)?
            };
            print!("{}", report.render());
            Ok(if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        other => Err(format!("unknown command {other:?} (run|oracle)")),
    }
}
