//! `perfbench` — the GlueFL workspace's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <sim-femnist|sim-wide-quant|loopback|all> --seed <n> \
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! `--workload all` runs every workload untraced and then traced, each in
//! a child process of its own so `peak_rss_mb` stays per workload, and
//! exits non-zero when any of them does.
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` makes the traced run and reports the per-layer metrics,
//! prints a self-time table and writes every span to
//! `.bench_out/spans-<workload>-seed<n>.tsv`. Either way the run checks
//! the program's outputs and ends standard output with one JSON line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! Exit status: 0 when every check passed, 1 when one failed, 2 on bad
//! usage.

mod layers;
mod loopback;
mod reference;
mod report;
mod sim;
mod spans;
mod stats;
mod wirestats;
mod workloads;

use spans::Spans;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use workloads::Workload;

/// One invocation's arguments.
pub struct Run {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u32,
    pub trace: bool,
}

impl Run {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut workload = None;
        let (mut seed, mut seconds, mut trace) = (1u64, 10u32, false);
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    );
                }
                "--seed" => seed = value.parse().map_err(bad)?,
                "--seconds" => seconds = value.parse().map_err(bad)?,
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                    }
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds: seconds.max(1),
            trace,
        })
    }

    /// Prints the traced run's self-time table and writes its spans.
    pub fn finish_trace(&self, spans: &Spans) {
        println!("self time, {} traced run:", self.workload.name());
        print!("{}", spans.self_time_table());
        let path = PathBuf::from(".bench_out").join(format!(
            "spans-{}-seed{}.tsv",
            self.workload.name(),
            self.seed
        ));
        match spans.write_tsv(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
    }
}

/// Runs every workload, untraced then traced, as child processes with
/// the same seed and seconds; `workload_at` indexes the `all` value.
fn run_all(args: &[String], workload_at: usize) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut all_ok = true;
    for w in Workload::ALL {
        for trace in ["0", "1"] {
            let mut child = args.to_vec();
            child[workload_at] = w.name().to_string();
            // The last occurrence of a flag wins.
            child.extend(["--trace".to_string(), trace.to_string()]);
            let ok = Command::new(&exe)
                .args(&child)
                .status()
                .is_ok_and(|s| s.success());
            all_ok &= ok;
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--workload") {
        if args.get(i + 1).is_some_and(|w| w == "all") {
            return run_all(&args, i + 1);
        }
    }
    let run = match Run::parse(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <sim-femnist|sim-wide-quant|loopback|all> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let mut report = match (run.workload, run.trace) {
        (Workload::Loopback, false) => loopback::run(&run),
        (Workload::Loopback, true) => loopback::run_traced(&run),
        (w, false) => sim::run(w, &run),
        (w, true) => sim::run_traced(w, &run),
    };
    if !run.trace {
        match stats::peak_rss_mb() {
            Ok(mb) => report.metric("peak_rss_mb", mb, "MB"),
            Err(e) => report.check(false, e),
        }
    }
    report.print(run.workload.name());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
