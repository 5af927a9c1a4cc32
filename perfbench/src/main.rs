//! The repository benchmark: one process runs the `stream`, `timetravel`
//! and `farm` phases against the workspace's public API, checks the
//! simulated outputs, and prints every metric by name and unit. The last
//! line of standard output is the JSON result.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paced --seed 1 --seconds 50 --trace 0
//! ```
//!
//! `--trace 1` turns the host profiler on and prints the per-layer metrics
//! instead of the end-to-end ones; `--manifest` prints `BENCHMARK.json`.
//! See `perfbench/README.md` for what each phase and metric measures.

mod farm;
mod link;
mod reference;
mod report;
mod script;
mod stats;
mod stream;
mod sys;
mod timetravel;

use hitactix::Workload as Guest;
use hx_machine::{Machine, MachineConfig};
use report::{Checks, Results};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// How `BENCHMARK.json` runs the benchmark (relative to the checkout).
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--",
];
pub const RUN_SECONDS: u64 = 50;

/// One benchmark workload: the streaming rate every guest of every phase
/// is asked for, and the simulated span of each `stream` platform.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub rate_mbps: u64,
    /// `stream` span per platform (raw, lvmm, hosted), in cycles: each
    /// takes roughly the same host time.
    pub stream_spans: [u64; 3],
}

/// Cycles per simulated millisecond.
const MS: u64 = hx_machine::timing::DEFAULT_CLOCK_HZ / 1_000;

pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "paced",
        why: "every guest asks for 100 Mbit/s: real-hw and lvmm keep idle headroom, so idle skipping and exits share the path",
        rate_mbps: 100,
        stream_spans: [400 * MS, 360 * MS, 1500 * MS],
    },
    Workload {
        name: "saturated",
        why: "every guest asks for 300 Mbit/s: lvmm and hosted saturate, so busy execution and monitor exits dominate",
        rate_mbps: 300,
        stream_spans: [140 * MS, 280 * MS, 1500 * MS],
    },
];

/// One phase of a run: a repeatable unit of work and its summary.
pub trait Phase {
    /// Runs one unit: a `stream` round, a farm, or a time-travel session.
    fn unit(&mut self, checks: &mut Checks);
    /// Whether the units so far give every metric its samples.
    fn enough(&self) -> bool;
    /// Publishes the phase's metrics and returns its median set-up time
    /// in seconds.
    fn finish(&self, out: &mut Results) -> f64;
}

/// Builds the streaming kernel for `rate_mbps` and loads it into a fresh
/// default machine; also returns the build + load time in seconds.
pub fn boot_machine(rate_mbps: u64) -> (Machine, f64) {
    let mut machine = Machine::new(MachineConfig::default());
    let t = Instant::now();
    let program = Guest::new(rate_mbps)
        .build(&machine)
        .expect("streaming kernel assembles");
    machine.load_program(&program);
    (machine, t.elapsed().as_secs_f64())
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <paced|saturated> --seed <n> --seconds <s> --trace <0|1>\n       perfbench --manifest";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == v)
                        .ok_or(format!("unknown workload `{v}`"))?,
                );
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument `{a}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|&s| s > 0)
            .ok_or("--seconds must be positive")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--manifest") {
        print!("{}", report::manifest(&WORKLOADS, RUN_SECONDS));
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    sys::map_large_allocations();
    let w = args.workload;
    let budget = Duration::from_secs(args.seconds);
    let mut checks = Checks::default();
    let mut out = Results::default();
    // Each phase with its share of the measuring time.
    let mut phases: [(&str, f64, Box<dyn Phase>); 3] = [
        ("stream", 0.30, Box::new(stream::Stream::new(w, args.trace))),
        (
            "farm",
            0.25,
            Box::new(farm::FarmPhase::new(w, args.seed, args.trace)),
        ),
        (
            "timetravel",
            0.45,
            Box::new(timetravel::TimeTravel::new(w, args.seed, args.trace)),
        ),
    ];
    // Interleave the phases' units, always running the phase furthest
    // behind its share, so slow drifts of the host's speed spread over
    // every phase instead of landing on one.
    let mut spent = [Duration::ZERO; 3];
    loop {
        let behind = |i: usize| spent[i].as_secs_f64() / phases[i].1;
        let next = (0..3)
            .filter(|&i| !phases[i].2.enough() || spent[i] < budget.mul_f64(phases[i].1))
            .min_by(|&a, &b| behind(a).total_cmp(&behind(b)));
        let Some(i) = next else { break };
        let t = Instant::now();
        phases[i].2.unit(&mut checks);
        spent[i] += t.elapsed();
        // Hand freed heap back, so the peak follows the largest live set
        // rather than how fragmented earlier units left the allocator.
        sys::release_free_memory();
    }
    let mut setup = 0.0;
    for ((name, _, phase), spent) in phases.iter().zip(spent) {
        eprintln!("{name}: {:.1} s", spent.as_secs_f64());
        setup += phase.finish(&mut out);
    }
    out.set("setup_s", setup, 1);
    out.set("peak_rss_mb", sys::peak_rss_mb().unwrap_or(f64::NAN), 1);

    let defs = if args.trace {
        report::per_layer()
    } else {
        report::end_to_end()
    };
    for f in &checks.first_failures {
        eprintln!("FAILED: {f}");
    }
    print!("{}", out.table(&defs));
    match out.json(&defs, &checks) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&args(
            "--workload saturated --seed 7 --seconds 30 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.name, a.seed, a.seconds, a.trace),
            ("saturated", 7, 30, true)
        );
        assert!(parse_args(&args("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&args("--workload paced --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&args("--workload paced --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&args("--workload paced --seed 1 --seconds 1")).is_err());
    }
}
