//! Metric definitions, the collected results of one run, and the JSON the
//! run prints (and that `BENCHMARK.json` is generated from).

use hx_obs::{Dev, ExitCause};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Platforms of the `stream` phase, by the label the metric names use.
pub const PLATFORMS: [&str; 3] = ["raw", "lvmm", "hosted"];

/// Monitor exit causes reported per monitor.
pub const CORE_EXITS: [ExitCause; 5] = [
    ExitCause::Privileged,
    ExitCause::Mmio,
    ExitCause::Shadow,
    ExitCause::IrqReflect,
    ExitCause::IrqInject,
];
pub const FULLVMM_EXITS: [ExitCause; 6] = [
    ExitCause::Privileged,
    ExitCause::Mmio,
    ExitCause::Shadow,
    ExitCause::IrqReflect,
    ExitCause::IrqInject,
    ExitCause::HostRelay,
];
/// Devices each monitor emulates. The other (platform, device) pairs never
/// enter device emulation, so their host time is always zero and is not
/// reported.
pub const EMULATED: [(&str, &[Dev]); 2] = [
    ("lvmm", &[Dev::Pit, Dev::Pic]),
    ("hosted", &[Dev::Nic, Dev::Hdc, Dev::Pit, Dev::Pic]),
];
/// Host-profiler phases of farm guests up to settling, grouped: every
/// `exit-*` phase is `exit`, every `device-*` phase is `device`. No
/// debugger has connected yet, so `debug-link` (like `other`) is zero.
pub const FARM_PHASES: [&str; 5] = ["guest-exec", "exit", "device", "journal", "idle"];
pub const LINKS: [&str; 2] = ["uart", "tcp"];
/// End-to-end metrics whose tracing overhead the traced run reports.
pub const OVERHEAD: [(&str, &str); 8] = [
    ("sim_instr_per_s.raw", "instr/s"),
    ("sim_instr_per_s.lvmm", "instr/s"),
    ("sim_instr_per_s.hosted", "instr/s"),
    ("rec_instr_per_s", "instr/s"),
    ("stub_rtt_us.p50", "us"),
    ("travel_ms.p50", "ms"),
    ("farm_settle_s", "s"),
    ("farm_rtt_ms.p50", "ms"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

fn e2e(name: &str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        better,
        bound: Some(bound),
    }
}

/// The end-to-end metrics every untraced run prints.
pub fn end_to_end() -> Vec<MetricDef> {
    use Better::*;
    vec![
        e2e("setup_s", "s", Lower, 0.25),
        e2e("sim_instr_per_s.raw", "instr/s", Higher, 0.25),
        e2e("sim_instr_per_s.lvmm", "instr/s", Higher, 0.25),
        e2e("sim_instr_per_s.hosted", "instr/s", Higher, 0.25),
        e2e("rec_instr_per_s", "instr/s", Higher, 0.25),
        e2e("stub_rtt_us.p50", "us", Lower, 0.25),
        e2e("stub_rtt_us.p99", "us", Lower, 0.25),
        e2e("travel_ms.p50", "ms", Lower, 0.25),
        e2e("travel_ms.p90", "ms", Lower, 0.25),
        e2e("farm_settle_s", "s", Lower, 0.25),
        e2e("farm_rtt_ms.p50", "ms", Lower, 0.1),
        e2e("farm_rtt_ms.p90", "ms", Lower, 0.1),
        e2e("farm_sessions_per_s", "1/s", Higher, 0.1),
        e2e("control_rtt_ms.p50", "ms", Lower, 0.15),
        e2e("peak_rss_mb", "MB", Lower, 0.15),
    ]
}

/// The per-layer metrics every traced run prints.
pub fn per_layer() -> Vec<MetricDef> {
    let mut v = Vec::new();
    let mut m = |name: String, unit: &'static str, better: Better| {
        v.push(MetricDef {
            name,
            unit,
            better,
            bound: None,
        })
    };
    use Better::*;
    m("hitactix.build_ms".into(), "ms", Lower);
    for p in PLATFORMS {
        m(format!("hx-cpu.instret.{p}"), "count", Higher);
        m(format!("hx-cpu.exec_ns_per_instr.{p}"), "ns/instr", Lower);
        m(format!("hx-cpu.decode_hit_ratio.{p}"), "ratio", Higher);
        m(format!("hx-cpu.decode_invalidations.{p}"), "count", Lower);
        m(format!("hx-cpu.tlb_miss_ratio.{p}"), "ratio", Lower);
    }
    for (p, devices) in EMULATED {
        for d in devices {
            m(
                format!("hx-machine.device_ns.{}.{p}", d.label()),
                "ns",
                Lower,
            );
        }
        // Raw hardware has no monitor to mark idle stretches apart from
        // guest execution; its idle host time is inside `exec_ns_per_instr`.
        m(format!("hx-machine.idle_ns.{p}"), "ns", Lower);
    }
    for p in PLATFORMS {
        m(format!("hx-machine.idle_share.{p}"), "ratio", Higher);
        m(format!("hx-machine.tx_frames.{p}"), "count", Higher);
    }
    for c in CORE_EXITS.map(ExitCause::label) {
        m(format!("core.exits.{c}"), "count", Lower);
        m(format!("core.exit_ns.{c}"), "ns", Lower);
    }
    m("core.stub_commands".into(), "count", Higher);
    m("core.stub_bytes_in".into(), "count", Lower);
    m("core.stub_bytes_out".into(), "count", Lower);
    m("core.seek_ms".into(), "ms", Lower);
    m("core.reverse_step_ms".into(), "ms", Lower);
    m("core.travel_cycles".into(), "count", Lower);
    for c in FULLVMM_EXITS.map(ExitCause::label) {
        m(format!("fullvmm.exits.{c}"), "count", Lower);
        m(format!("fullvmm.exit_ns.{c}"), "ns", Lower);
    }
    m("fullvmm.relayed_tx_frames".into(), "count", Higher);
    m("hx-obs.checkpoints".into(), "count", Lower);
    m("hx-obs.journal_ns".into(), "ns", Lower);
    m("hx-obs.journal_ns_per_checkpoint".into(), "ns", Lower);
    m("hx-obs.rss_mb_per_checkpoint".into(), "MB", Lower);
    m("hx-obs.recorder_enable_ms".into(), "ms", Lower);
    for p in PLATFORMS {
        m(format!("hx-obs.hostprof_coverage.{p}"), "ratio", Higher);
    }
    m("hx-query.query_first_ms".into(), "ms", Lower);
    for c in crate::script::StubCmd::LABELS {
        m(format!("rdbg.cmd_us.{c}"), "us", Lower);
    }
    for l in LINKS {
        m(format!("rdbg.sends_per_cmd.{l}"), "count", Lower);
        m(format!("rdbg.pumps_per_cmd.{l}"), "count", Lower);
        m(format!("rdbg.empty_pump_ratio.{l}"), "ratio", Lower);
        m(format!("rdbg.pump_us.{l}"), "us", Lower);
    }
    m("hx-farm.launch_ms".into(), "ms", Lower);
    m("hx-farm.fleet_instr_per_s".into(), "instr/s", Higher);
    for p in FARM_PHASES {
        m(format!("hx-farm.guest_phase_ns.{p}"), "ns", Lower);
    }
    m("hx-farm.connect_ms".into(), "ms", Lower);
    for c in ["status", "stats", "metrics"] {
        m(format!("hx-farm.control_ms.{c}"), "ms", Lower);
    }
    for (name, unit) in OVERHEAD {
        m(format!("trace_overhead.{name}"), unit, Lower);
    }
    v
}

/// Operations attempted and failed, with the first few failures kept for
/// the log.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub first_failures: Vec<String>,
}

impl Checks {
    /// Counts one operation; `ok == false` makes it a failed one.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Marks an already-counted operation as failed.
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.first_failures.len() < 20 {
            self.first_failures.push(msg);
        }
    }

    /// Records the outcome of an operation that returns a `Result`.
    pub fn result<T, E: std::fmt::Debug>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what}: {e:?}"));
                None
            }
        }
    }
}

/// Metric values of one run, with the sample count behind each.
#[derive(Debug, Default)]
pub struct Results {
    values: BTreeMap<String, (f64, usize)>,
}

impl Results {
    pub fn set(&mut self, name: impl Into<String>, value: f64, samples: usize) {
        self.values.insert(name.into(), (value, samples));
    }

    /// Sets each named value to its median over `units` (one list of
    /// `(name, value)` per traced repetition, session or farm).
    pub fn set_medians<'a>(&mut self, units: impl IntoIterator<Item = &'a [(String, f64)]>) {
        let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for unit in units {
            for (name, v) in unit {
                by_name.entry(name).or_default().push(*v);
            }
        }
        for (name, v) in by_name {
            let m = crate::stats::median(&v).expect("at least one value");
            self.set(name, m, v.len());
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|v| v.0)
    }

    /// The human-readable table: one line per metric with its samples.
    pub fn table(&self, defs: &[MetricDef]) -> String {
        let mut s = String::new();
        for d in defs {
            if let Some((v, n)) = self.values.get(&d.name) {
                let tail = crate::stats::highest_supported(*n, &[90.0, 99.0, 99.9])
                    .map_or(String::new(), |p| format!(" (supports p{p})"));
                let _ = writeln!(s, "{:<44} {:>18.6} {:<9} n={n}{tail}", d.name, v, d.unit);
            }
        }
        s
    }

    /// The result line: `correct`, `attempted`, `failed` and one entry per
    /// metric of `defs`. Errors name every metric the run did not produce.
    pub fn json(&self, defs: &[MetricDef], checks: &Checks) -> Result<String, String> {
        let missing: Vec<&str> = defs
            .iter()
            .filter(|d| !self.get(&d.name).is_some_and(f64::is_finite))
            .map(|d| d.name.as_str())
            .collect();
        if !missing.is_empty() {
            return Err(format!("metrics not produced: {}", missing.join(", ")));
        }
        let metrics: Vec<String> = defs
            .iter()
            .map(|d| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name, self.values[&d.name].0, d.unit
                )
            })
            .collect();
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            checks.failed == 0 && checks.attempted > 0,
            checks.attempted,
            checks.failed,
            metrics.join(", ")
        ))
    }
}

/// `BENCHMARK.json`, generated from the definitions above so the file and
/// the metrics a run prints cannot drift apart.
pub fn manifest(workloads: &[crate::Workload], run_seconds: u64) -> String {
    let better = |b: Better| match b {
        Better::Lower => "lower",
        Better::Higher => "higher",
    };
    let list = |defs: Vec<MetricDef>| -> String {
        defs.iter()
            .map(|d| {
                let bound = d
                    .bound
                    .map_or(String::new(), |b| format!(", \"bound\": {b}"));
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
                    d.name,
                    d.unit,
                    better(d.better)
                )
            })
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let workloads = workloads
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"perfbench\"],\n  \"run_seconds\": {run_seconds},\n  \"workloads\": [\n{workloads}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        crate::COMMAND
            .iter()
            .map(|a| format!("\"{a}\""))
            .collect::<Vec<_>>()
            .join(", "),
        list(end_to_end()),
        list(per_layer()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn metric_names_and_units_fit_the_manifest_rules() {
        let e = end_to_end();
        let p = per_layer();
        assert!((1..=16).contains(&e.len()));
        assert!(
            (1..=128).contains(&p.len()),
            "{} per-layer metrics",
            p.len()
        );
        let mut names: Vec<&str> = e.iter().chain(&p).map(|d| d.name.as_str()).collect();
        assert!(names.iter().all(|n| valid_name(n)));
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric names");
        for d in e.iter().chain(&p) {
            assert!(d.unit.len() <= 16);
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(e
            .iter()
            .all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = e.iter().find(|d| d.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = e.iter().filter_map(|d| d.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest));
    }

    #[test]
    fn committed_manifest_matches_the_definitions() {
        let committed =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to the benchmark directory");
        assert_eq!(committed, manifest(&crate::WORKLOADS, crate::RUN_SECONDS));
    }

    #[test]
    fn result_line_has_every_metric_or_none() {
        let defs = vec![
            e2e("a", "s", Better::Lower, 0.1),
            e2e("b", "ms", Better::Lower, 0.1),
        ];
        let mut r = Results::default();
        let mut c = Checks::default();
        c.op(true, String::new);
        r.set("a", 1.5, 3);
        assert!(r.json(&defs, &c).unwrap_err().contains('b'));
        r.set("b", 0.25, 1);
        assert_eq!(
            r.json(&defs, &c).unwrap(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"a\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 0.25, \"unit\": \"ms\"}}}"
        );
        c.op(false, || "broken".into());
        assert!(r
            .json(&defs, &c)
            .unwrap()
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
    }
}
