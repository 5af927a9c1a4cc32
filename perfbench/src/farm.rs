//! The `farm` phase: `hx_farm::Farm` in-process with four recording
//! `lvmm` guests over two workers. Phase 1 times launch to settled with no
//! client traffic; phase 2 runs one client thread that opens one debug
//! session at a time, round-robin over the guests, with control-socket
//! requests between sessions. This is the only phase that exercises
//! socket → worker wake → slice → stub → reply.

use crate::link::{CountingLink, WireCounters};
use crate::report::{Checks, Results, FARM_PHASES};
use crate::script::{self, Control, Rng};
use crate::stats::{median, percentile};
use crate::Workload;
use hx_farm::{control_request, Farm, FarmConfig, GuestHealth, GuestSpec, TcpLink};
use rdbg::{Debugger, StopReason};
use std::time::{Duration, Instant};

const GUESTS: usize = 4;
const WORKERS: usize = 2;
/// Simulated horizon (~27 ms at 150 MHz): just past the checkpoint at
/// 4 M cycles. Session traffic then advances each settled guest well short
/// of the next checkpoint at 6 M, so every farm holds the same number of
/// checkpoints and the process peak does not depend on timing.
const HORIZON: u64 = 4_100_000;
/// Farms per untraced run at least; the settle time is their median.
const MIN_ROUNDS: usize = 4;
/// Sessions per farm, so that `MIN_ROUNDS` farms give the 100 samples the
/// `p90` of command round trips needs.
const SESSIONS: usize = 8;

/// Open connections of the load generator, with their high-water mark.
#[derive(Debug, Default)]
struct Gauge {
    open: usize,
    high: usize,
}

impl Gauge {
    fn open(&mut self) {
        self.open += 1;
        self.high = self.high.max(self.open);
    }

    fn close(&mut self) {
        self.open -= 1;
    }
}

/// Everything one farm (launch, settle, sessions, shutdown) measured.
#[derive(Default)]
struct Round {
    launch_s: f64,
    settle_s: f64,
    fleet_instr_per_s: f64,
    sessions: usize,
    session_wall_s: f64,
    rtt_ms: Vec<f64>,
    connect_ms: Vec<f64>,
    control_ms: Vec<(Control, f64)>,
    wire: WireCounters,
    phase_ns: Vec<(String, f64)>,
}

/// The first unsigned integer after `"key":` in `json`.
fn field(json: &str, key: &str) -> Option<u64> {
    let at = json.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = json[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Checks a control `stats` reply: the fleet totals must equal the sum of
/// the per-guest objects, field by field.
fn stats_add_up(reply: &str) -> bool {
    let Some((totals, guests)) = reply.split_once("\"guests\":[") else {
        return false;
    };
    let guests: Vec<&str> = guests.split("},{").collect();
    guests.len() == GUESTS
        && [
            "instret",
            "guest_cycles",
            "monitor_cycles",
            "host_model_cycles",
            "idle_cycles",
            "frames",
            "stream_bytes",
            "journal_payload_bytes",
            "sessions",
        ]
        .iter()
        .all(|k| {
            let sum: Option<u64> = guests.iter().map(|g| field(g, k)).sum();
            sum.is_some() && sum == field(totals, k)
        })
}

/// One debug session over TCP: connect, halt, read registers and memory,
/// step, resume, disconnect. Every command must answer `Ok`.
fn session(
    port: u16,
    s: &script::FarmSession,
    r: &mut Round,
    gauge: &mut Gauge,
    checks: &mut Checks,
) {
    let t = Instant::now();
    gauge.open();
    let link = checks.result(
        "farm: connect",
        TcpLink::connect(&format!("127.0.0.1:{port}")),
    );
    r.connect_ms.push(t.elapsed().as_secs_f64() * 1e3);
    let Some(link) = link else {
        gauge.close();
        return;
    };
    let mut dbg = Debugger::new(CountingLink::new(link));
    let mut cmd = |what: &str, f: &mut dyn FnMut(&mut Debugger<CountingLink<TcpLink>>) -> bool| {
        let t = Instant::now();
        let ok = f(&mut dbg);
        r.rtt_ms.push(t.elapsed().as_secs_f64() * 1e3);
        checks.op(ok, || format!("farm: `{what}` on port {port} failed"));
    };
    cmd("halt", &mut |d| d.halt().is_ok());
    cmd("read registers", &mut |d| d.read_registers().is_ok());
    cmd("read 64 B", &mut |d| {
        d.read_memory(s.mem64, 64).is_ok_and(|v| v.len() == 64)
    });
    cmd("read 1 KiB", &mut |d| {
        d.read_memory(s.mem1k, 1024).is_ok_and(|v| v.len() == 1024)
    });
    cmd("step", &mut |d| {
        matches!(d.step(), Ok(StopReason::Step { .. }))
    });
    cmd("resume", &mut |d| d.resume().is_ok());
    r.wire.add(&dbg.link_ref().counters);
    drop(dbg);
    gauge.close();
    r.sessions += 1;
}

/// Launches a farm, lets it settle, runs `sessions` debug sessions, shuts
/// it down.
fn round(
    w: &Workload,
    seed: u64,
    sessions: usize,
    traced: bool,
    gauge: &mut Gauge,
    checks: &mut Checks,
) -> Round {
    let mut r = Round::default();
    let spec = GuestSpec {
        rate_mbps: w.rate_mbps,
        hostprof: traced,
        ..GuestSpec::default()
    };
    let cfg = FarmConfig {
        guests: vec![spec; GUESTS],
        workers: WORKERS,
        horizon: Some(HORIZON),
        ..FarmConfig::default()
    };
    let t = Instant::now();
    let Some(farm) = checks.result("farm: launch", Farm::launch(cfg)) else {
        return r;
    };
    r.launch_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let settled = farm.wait_settled(Duration::from_secs(120));
    r.settle_s = t.elapsed().as_secs_f64();
    let port = farm.control_port();
    let control = |c: Control, r: &mut Round, gauge: &mut Gauge, checks: &mut Checks| {
        let t = Instant::now();
        gauge.open();
        let reply = control_request(port, c.command());
        gauge.close();
        r.control_ms.push((c, t.elapsed().as_secs_f64() * 1e3));
        let ok = match (&reply, c) {
            (Ok(s), Control::Stats) => stats_add_up(s),
            (Ok(s), _) => !s.contains("\"error\""),
            (Err(_), _) => false,
        };
        checks.op(ok, || {
            format!("farm: control `{}` answered {reply:?}", c.command())
        });
        reply.unwrap_or_default()
    };
    let status = control(Control::Status, &mut r, gauge, checks);
    checks.op(
        settled && field(&status, "done") == Some(GUESTS as u64),
        || format!("farm: fleet did not settle done: {status}"),
    );
    let stats = control(Control::Stats, &mut r, gauge, checks);
    if let Some(instret) = field(&stats, "instret") {
        r.fleet_instr_per_s = instret as f64 / (r.launch_s + r.settle_s);
    }
    if traced {
        let m = control(Control::Metrics, &mut r, gauge, checks);
        let phases = m.split_once("\"phase_ns\":").map_or("", |p| p.1);
        for group in FARM_PHASES {
            let ns: u64 = phases
                .trim_matches(|c| c == '{' || c == '}')
                .split(',')
                .filter_map(|kv| kv.split_once(':'))
                .filter(|(k, _)| {
                    let k = k.trim_matches('"');
                    k == group || k.strip_prefix(group).is_some_and(|s| s.starts_with('-'))
                })
                .filter_map(|(_, v)| v.parse::<u64>().ok())
                .sum();
            r.phase_ns
                .push((format!("hx-farm.guest_phase_ns.{group}"), ns as f64));
        }
    }

    let t = Instant::now();
    let ports = farm.ports().to_vec();
    for s in script::farm_sessions(seed, sessions, GUESTS, traced) {
        session(ports[s.guest], &s, &mut r, gauge, checks);
        for c in s.controls {
            control(c, &mut r, gauge, checks);
        }
    }
    r.session_wall_s = t.elapsed().as_secs_f64();

    for g in farm.shutdown() {
        checks.op(g.health == GuestHealth::Done, || {
            format!("farm: guest {} ended {:?}", g.id, g.health)
        });
    }
    r
}

/// The phase: whole farms, one after another. Traced runs alternate guests
/// without and with the host profiler.
pub struct FarmPhase {
    workload: &'static Workload,
    trace: bool,
    rng: Rng,
    gauge: Gauge,
    plain: Vec<Round>,
    traced: Vec<Round>,
}

impl FarmPhase {
    pub fn new(workload: &'static Workload, seed: u64, trace: bool) -> FarmPhase {
        FarmPhase {
            workload,
            trace,
            rng: Rng::new(seed ^ 0x6661_726d),
            gauge: Gauge::default(),
            plain: Vec::new(),
            traced: Vec::new(),
        }
    }
}

impl crate::Phase for FarmPhase {
    fn unit(&mut self, checks: &mut Checks) {
        let traced = self.trace && self.plain.len() > self.traced.len();
        let r = round(
            self.workload,
            self.rng.next_u64(),
            SESSIONS,
            traced,
            &mut self.gauge,
            checks,
        );
        let (nproc, held) = (crate::sys::nproc(), self.gauge.high);
        checks.op(held <= nproc, || {
            format!("farm: the load generator held {held} connections at once")
        });
        if traced {
            self.traced.push(r)
        } else {
            self.plain.push(r)
        }
    }

    fn enough(&self) -> bool {
        if self.trace {
            !self.traced.is_empty()
        } else {
            self.plain.len() >= MIN_ROUNDS
        }
    }

    fn finish(&self, out: &mut Results) -> f64 {
        let (plain, traced) = (&self.plain, &self.traced);
        let all = |v: &[Round], f: fn(&Round) -> &Vec<f64>| -> Vec<f64> {
            v.iter().flat_map(|r| f(r).iter().copied()).collect()
        };
        let each = |v: &[Round], f: fn(&Round) -> f64| -> Vec<f64> { v.iter().map(f).collect() };
        let med = |v: &[f64]| median(v).unwrap_or(f64::NAN);
        let rtt = all(plain, |r| &r.rtt_ms);
        let control: Vec<f64> = plain
            .iter()
            .flat_map(|r| r.control_ms.iter().map(|c| c.1))
            .collect();
        let settle = med(&each(plain, |r| r.settle_s));
        let rtt_p50 = med(&rtt);
        out.set("farm_settle_s", settle, plain.len());
        out.set("farm_rtt_ms.p50", rtt_p50, rtt.len());
        if let Some(p) = percentile(&rtt, 90.0) {
            out.set("farm_rtt_ms.p90", p, rtt.len());
        }
        out.set(
            "farm_sessions_per_s",
            med(&each(plain, |r| r.sessions as f64 / r.session_wall_s)),
            plain.len(),
        );
        out.set("control_rtt_ms.p50", med(&control), control.len());

        if !traced.is_empty() {
            let trtt = all(traced, |r| &r.rtt_ms);
            out.set(
                "trace_overhead.farm_settle_s",
                med(&each(traced, |r| r.settle_s)) - settle,
                traced.len(),
            );
            out.set(
                "trace_overhead.farm_rtt_ms.p50",
                med(&trtt) - rtt_p50,
                trtt.len(),
            );
            out.set(
                "hx-farm.launch_ms",
                med(&each(traced, |r| r.launch_s)) * 1e3,
                traced.len(),
            );
            out.set(
                "hx-farm.fleet_instr_per_s",
                med(&each(traced, |r| r.fleet_instr_per_s)),
                traced.len(),
            );
            let connect = all(traced, |r| &r.connect_ms);
            out.set("hx-farm.connect_ms", med(&connect), connect.len());
            for c in [Control::Status, Control::Stats, Control::Metrics] {
                let v: Vec<f64> = traced
                    .iter()
                    .flat_map(|r| r.control_ms.iter().filter(|x| x.0 == c).map(|x| x.1))
                    .collect();
                out.set(
                    format!("hx-farm.control_ms.{}", c.command()),
                    med(&v),
                    v.len(),
                );
            }
            out.set_medians(traced.iter().map(|r| &r.phase_ns[..]));
            let mut wire = WireCounters::default();
            traced.iter().for_each(|r| wire.add(&r.wire));
            crate::link::report(out, "tcp", &wire, trtt.len());
        }
        med(&each(plain, |r| r.launch_s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_totals_must_be_the_per_guest_sums() {
        let guest = |i: u64| {
            format!("{{\"id\":{i},\"health\":\"done\",\"now\":5,\"instret\":{i}0,\"guest_cycles\":1,\"monitor_cycles\":2,\"host_model_cycles\":0,\"idle_cycles\":3,\"frames\":4,\"stream_bytes\":5,\"journal_payload_bytes\":6,\"sessions\":{i}}}")
        };
        let guests: Vec<String> = (0..4).map(guest).collect();
        let reply = |instret: u64| {
            format!("{{\"qstats\":{{\"instret\":{instret},\"guest_cycles\":4,\"monitor_cycles\":8,\"host_model_cycles\":0,\"idle_cycles\":12,\"frames\":16,\"stream_bytes\":20,\"journal_payload_bytes\":24,\"sessions\":6}},\"guests\":[{}]}}", guests.join(","))
        };
        assert!(stats_add_up(&reply(60)));
        assert!(!stats_add_up(&reply(61)));
        assert!(!stats_add_up("{\"error\":\"no\"}"));
    }

    #[test]
    fn load_generator_stays_within_nproc_connections() {
        let w = &crate::WORKLOADS[0];
        let mut gauge = Gauge::default();
        let mut checks = Checks::default();
        let r = round(w, 1, 2, false, &mut gauge, &mut checks);
        assert_eq!(checks.failed, 0, "{:?}", checks.first_failures);
        assert_eq!(r.sessions, 2);
        assert!(
            gauge.high >= 1 && gauge.high <= crate::sys::nproc(),
            "{}",
            gauge.high
        );
        assert_eq!(gauge.open, 0);
    }
}
