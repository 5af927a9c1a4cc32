//! The `timetravel` phase: an `lvmm` guest under the flight recorder,
//! driven in-process by `rdbg::Debugger` over the simulated UART.
//!
//! One session has five steps: record forward; halt and run a seeded
//! closed loop of cheap stub commands; run seeded time-travel rounds; run
//! a second seeded loop of stub commands; resume. Checkpoint capture, the
//! journal, restore with re-execution, and the wire and stub do the work
//! here, and none of it runs in `stream`.

use crate::link::{CountingLink, WireCounters};
use crate::report::{Checks, Results};
use crate::script::{self, Rng, StubCmd};
use crate::stats::{median, percentile, samples_needed};
use crate::{boot_machine, sys, Workload};
use hitactix::kernel::layout;
use hitactix::GuestStats;
use hx_machine::Platform;
use hx_obs::{CheckpointStore, HostPhase};
use lvmm::{LvmmPlatform, UartLink};
use rdbg::{Debugger, StopReason};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

const EVERY: u64 = CheckpointStore::<()>::DEFAULT_EVERY;
/// Recorded forward span: three checkpoint intervals.
const SPAN: u64 = 3 * EVERY;
/// Recording runs in slices of this many cycles; each slice end is a
/// step boundary whose guest memory the session remembers.
const BOUNDARY: u64 = 100_000;
/// Stub commands per script, two scripts per session. A halted guest
/// still advances one `UartLink` slice (5,000 cycles) per pump, about
/// 45,000 cycles per command, and every checkpoint interval it crosses
/// costs a full-RAM checkpoint — during the script and again after each
/// later seek.
const SCRIPT_LEN: usize = 60;
const _: () = assert!(
    SCRIPT_LEN.is_multiple_of(script::BLOCK),
    "whole blocks keep the mix fixed"
);
const ROUNDS: usize = 2;
/// Deepest backward seek, in boundaries (1.5 checkpoint intervals).
const MAX_BACK: usize = 30;

type Dbg = Debugger<CountingLink<UartLink<LvmmPlatform>>>;

/// Guest memory the session compares across time: the stats block and
/// 1 KiB of frame headers at `hdr`. Only the guest writes either (no
/// device DMA lands there), so a halted guest leaves them as they were.
fn window(p: &LvmmPlatform, hdr: u32) -> Vec<u8> {
    let mem = p.machine().mem.as_bytes();
    let s = layout::STATS as usize;
    let h = hdr as usize;
    [&mem[s..s + 64], &mem[h..h + 1024]].concat()
}

fn read_window(dbg: &mut Dbg, hdr: u32) -> Option<Vec<u8>> {
    let stats = dbg.read_memory(layout::STATS, 64).ok()?;
    let headers = dbg.read_memory(hdr, 1024).ok()?;
    Some([stats, headers].concat())
}

#[derive(Default)]
struct Session {
    setup_s: f64,
    enable_s: f64,
    rec_instr_per_s: f64,
    /// `(label, µs)` of every timed stub command.
    stub_us: Vec<(&'static str, f64)>,
    /// `(kind, ms, cycles travelled)` of every time-travel operation.
    travel: Vec<(&'static str, f64, u64)>,
    wire: WireCounters,
    /// Traced sessions only.
    layers: Vec<(String, f64)>,
}

fn landed(r: &Result<StopReason, rdbg::DbgError>) -> Option<u64> {
    match r {
        Ok(StopReason::TimeTravel { cycle, .. }) => Some(*cycle),
        _ => None,
    }
}

/// Runs one stub script on the halted guest, timing every command into
/// `s`, then reads back every address it wrote.
fn run_script(dbg: &mut Dbg, cmds: &[StubCmd], s: &mut Session, checks: &mut Checks) {
    let mut written = BTreeMap::new();
    for cmd in cmds {
        let label = cmd.label();
        let mut timed = |dbg: &mut Dbg, f: &mut dyn FnMut(&mut Dbg) -> bool| {
            let before = dbg.link_ref().counters;
            let t = Instant::now();
            let ok = f(dbg);
            s.stub_us.push((label, t.elapsed().as_secs_f64() * 1e6));
            s.wire.add(&dbg.link_ref().counters.since(&before));
            ok
        };
        let ok = match cmd {
            StubCmd::Regs => timed(dbg, &mut |d| d.read_registers().is_ok()),
            StubCmd::Mem64(a) => timed(dbg, &mut |d| {
                d.read_memory(*a, 64).is_ok_and(|v| v.len() == 64)
            }),
            StubCmd::Mem1k(a) => timed(dbg, &mut |d| {
                d.read_memory(*a, 1024).is_ok_and(|v| v.len() == 1024)
            }),
            StubCmd::Write64(a, data) => {
                written.insert(*a, data);
                timed(dbg, &mut |d| d.write_memory(*a, data).is_ok())
            }
            StubCmd::Bp(a) => {
                timed(dbg, &mut |d| d.set_breakpoint(*a).is_ok())
                    && timed(dbg, &mut |d| d.clear_breakpoint(*a).is_ok())
            }
            StubCmd::Step => timed(dbg, &mut |d| {
                matches!(d.step(), Ok(StopReason::Step { .. }))
            }),
            StubCmd::QStats => timed(dbg, &mut |d| d.query_stats().is_ok()),
        };
        checks.op(ok, || format!("timetravel: stub command {cmd:?} failed"));
    }
    for (addr, data) in written {
        let back = dbg.read_memory(addr, 64);
        checks.op(back.as_ref() == Ok(data), || {
            format!("timetravel: {addr:#x} reads {back:?} after writing {data:?}")
        });
    }
}

fn session(rate: u64, rng: &mut Rng, traced: bool, checks: &mut Checks) -> Session {
    let mut s = Session::default();
    let script_seed = rng.next_u64();
    let travel_seed = rng.next_u64();
    let win =
        layout::HDR_POOL + 1024 * rng.range(0, u64::from(layout::HDR_SLOTS) * 64 / 1024 - 1) as u32;
    let scripts = [script_seed, rng.next_u64()]
        .map(|seed| script::stub_script(seed, SCRIPT_LEN, layout::ENTRY));

    // Step 1: boot, enable the recorder, record forward.
    let t0 = Instant::now();
    let (machine, _) = boot_machine(rate);
    let mut vmm = LvmmPlatform::new(machine, layout::ENTRY);
    if traced {
        vmm.machine_mut().obs.enable_hostprof();
    }
    let rss0 = sys::rss_mb();
    let te = Instant::now();
    vmm.enable_flight_recorder(EVERY);
    s.enable_s = te.elapsed().as_secs_f64();
    s.setup_s = t0.elapsed().as_secs_f64();
    let journal_ns = |p: &LvmmPlatform| {
        p.machine()
            .obs
            .host_attribution()
            .map_or(0, |a| a.phase_ns[HostPhase::Journal.index()])
    };
    let journal0 = journal_ns(&vmm);
    let cps0 = vmm.checkpoint_count();
    let start = vmm.machine().now();
    let i0 = vmm.machine().cpu.instret();
    let mut marks = vec![(start, window(&vmm, win))];
    let mut host = Duration::ZERO;
    while vmm.machine().now() < start + SPAN {
        let t = Instant::now();
        vmm.run_for(BOUNDARY);
        host += t.elapsed();
        marks.push((vmm.machine().now(), window(&vmm, win)));
    }
    s.rec_instr_per_s = (vmm.machine().cpu.instret() - i0) as f64 / host.as_secs_f64();
    if traced {
        let cps = vmm.checkpoint_count();
        let journal = (journal_ns(&vmm) - journal0) as f64;
        s.layers.push(("hx-obs.checkpoints".into(), cps as f64));
        s.layers.push(("hx-obs.journal_ns".into(), journal));
        s.layers.push((
            "hx-obs.journal_ns_per_checkpoint".into(),
            journal / (cps - cps0).max(1) as f64,
        ));
        if let (Some(a), Some(b)) = (rss0, sys::rss_mb()) {
            s.layers
                .push(("hx-obs.rss_mb_per_checkpoint".into(), (b - a) / cps as f64));
        }
    }
    let (base, base_window) = marks.last().cloned().expect("recorded at least once");

    // Step 2: halt, park on the end of the recording, run the script. The
    // halt comes one pump after the recording ends so the break-in is
    // journaled after, not at, the cycle the session parks on.
    let mut dbg: Dbg = Debugger::new(CountingLink::new(UartLink::new(vmm)));
    let _ = dbg.poll_stop();
    let halted = dbg.halt();
    checks.op(matches!(halted, Ok(StopReason::Halted { .. })), || {
        format!("timetravel: halt answered {halted:?}")
    });
    let parked = dbg.seek(base);
    let mem = read_window(&mut dbg, win);
    checks.op(
        landed(&parked) == Some(base) && mem == Some(base_window),
        || format!("timetravel: seek to the end of the recording ({base}) answered {parked:?}"),
    );
    let stub0 = dbg.link_ref().inner.platform.stub_stats();
    run_script(&mut dbg, &scripts[0], &mut s, checks);
    let stub1 = dbg.link_ref().inner.platform.stub_stats();

    // Step 3: time-travel rounds from the parked stop. A landing rewrites
    // history after it (the guest stays halted on the new branch, and
    // `seek` lands on the first stopped-guest poll at or after its
    // target), so memory is compared only where the rounds guarantee the
    // recorded history still stands: at each backward seek target.
    let cycles: Vec<u64> = marks.iter().map(|m| m.0).collect();
    let poll = lvmm::costs::STUB_POLL;
    let mut at = base;
    for r in script::travel_rounds(travel_seed, ROUNDS, &cycles, MAX_BACK) {
        let (back, back_window) = marks[marks.len() - 1 - r.back].clone();
        let mut travel = |dbg: &mut Dbg,
                          kind: &'static str,
                          f: &mut dyn FnMut(&mut Dbg) -> Option<u64>|
         -> Option<u64> {
            let t = Instant::now();
            let to = f(dbg);
            s.travel.push((
                kind,
                t.elapsed().as_secs_f64() * 1e3,
                to.map_or(0, |c| c.abs_diff(at)),
            ));
            if let Some(c) = to {
                at = c;
            }
            to
        };
        let near_base = |to: Option<u64>| to.is_some_and(|c| c >= base && c - base < poll);
        let to = travel(&mut dbg, "seek", &mut |d| landed(&d.seek(back)));
        let mem = read_window(&mut dbg, win);
        checks.op(to == Some(back) && mem.as_ref() == Some(&back_window), || {
            format!(
                "timetravel: seek back to {back} landed at {to:?}; memory matches the recording: {}",
                mem.as_ref() == Some(&back_window)
            )
        });
        let to = travel(&mut dbg, "reverse_step", &mut |d| landed(&d.reverse_step()));
        checks.op(to.is_some_and(|c| c < back), || {
            format!("timetravel: reverse step from {back} landed at {to:?}")
        });
        let to = travel(&mut dbg, "seek", &mut |d| landed(&d.seek(base)));
        checks.op(near_base(to), || {
            format!("timetravel: seek forward to {base} landed at {to:?}")
        });
        let expr = format!("cycle >= {}", r.query_at);
        let mut hit = None;
        let to = travel(
            &mut dbg,
            "query_first",
            &mut |d| match d.query_first(&expr) {
                Ok(Some((h, StopReason::TimeTravel { cycle, .. }))) => {
                    hit = Some(h);
                    Some(cycle)
                }
                _ => None,
            },
        );
        checks.op(
            hit.is_some_and(|h| h >= r.query_at && to == Some(h)),
            || format!("timetravel: `{expr}` hit {hit:?}, landed at {to:?}"),
        );
        let to = travel(&mut dbg, "seek", &mut |d| landed(&d.seek(base)));
        checks.op(near_base(to), || {
            format!("timetravel: seek to {base} after the search landed at {to:?}")
        });
    }

    // Step 4: the second script, on the stop the last round parked on. A
    // script takes milliseconds of host time, so one script samples the
    // host's speed at one moment; two scripts a second apart halve the
    // weight of each moment in `stub_rtt_us`.
    run_script(&mut dbg, &scripts[1], &mut s, checks);

    // Step 5: resume; the guest must keep streaming.
    let resumed = dbg.resume();
    checks.op(resumed.is_ok(), || {
        format!("timetravel: resume answered {resumed:?}")
    });
    let vmm = &mut dbg.link_mut().inner.platform;
    let frames = vmm.machine().nic.counters().tx_frames;
    vmm.run_for(2 * EVERY);
    let g = GuestStats::read(vmm.machine());
    checks.op(
        g.is_ok_and(|g| g.fault_cause == 0) && vmm.machine().nic.counters().tx_frames > frames,
        || "timetravel: guest stopped streaming after the session".into(),
    );
    if traced {
        // Seeks rewind the stub's own counters, so take the first script's
        // span.
        let d = |f: fn(&lvmm::stub::StubStats) -> u64| (f(&stub1) - f(&stub0)) as f64;
        s.layers
            .push(("core.stub_commands".into(), d(|x| x.commands)));
        s.layers
            .push(("core.stub_bytes_in".into(), d(|x| x.bytes_in)));
        s.layers
            .push(("core.stub_bytes_out".into(), d(|x| x.bytes_out)));
        s.layers
            .push(("hx-obs.recorder_enable_ms".into(), s.enable_s * 1e3));
    }
    s
}

/// The phase: whole sessions, one after another. Traced runs alternate
/// untraced and traced sessions.
pub struct TimeTravel {
    rate_mbps: u64,
    trace: bool,
    rng: Rng,
    plain: Vec<Session>,
    traced: Vec<Session>,
}

impl TimeTravel {
    pub fn new(w: &Workload, seed: u64, trace: bool) -> TimeTravel {
        TimeTravel {
            rate_mbps: w.rate_mbps,
            trace,
            rng: Rng::new(seed ^ 0x7454_7261_7665_6c00),
            plain: Vec::new(),
            traced: Vec::new(),
        }
    }
}

impl crate::Phase for TimeTravel {
    fn unit(&mut self, checks: &mut Checks) {
        let traced = self.trace && self.plain.len() > self.traced.len();
        let s = session(self.rate_mbps, &mut self.rng.fork(), traced, checks);
        if traced {
            self.traced.push(s)
        } else {
            self.plain.push(s)
        }
    }

    fn enough(&self) -> bool {
        let v = &self.plain;
        if self.trace {
            !self.traced.is_empty()
        } else {
            v.iter().map(|s| s.stub_us.len()).sum::<usize>() >= samples_needed(99.0)
                && v.iter().map(|s| s.travel.len()).sum::<usize>() >= samples_needed(90.0)
        }
    }

    fn finish(&self, out: &mut Results) -> f64 {
        let (plain, traced) = (&self.plain, &self.traced);
        let summary = |v: &[Session]| {
            let stub: Vec<f64> = v
                .iter()
                .flat_map(|s| s.stub_us.iter().map(|x| x.1))
                .collect();
            let travel: Vec<f64> = v
                .iter()
                .flat_map(|s| s.travel.iter().map(|x| x.1))
                .collect();
            let rec: Vec<f64> = v.iter().map(|s| s.rec_instr_per_s).collect();
            (stub, travel, rec)
        };
        let (stub, travel, rec) = summary(plain);
        let n = plain.len();
        let rec_median = median(&rec).expect("one session");
        let stub_p50 = median(&stub).expect("stub samples");
        let travel_p50 = median(&travel).expect("travel samples");
        out.set("rec_instr_per_s", rec_median, n);
        out.set("stub_rtt_us.p50", stub_p50, stub.len());
        out.set("travel_ms.p50", travel_p50, travel.len());
        if let Some(p) = percentile(&stub, 99.0) {
            out.set("stub_rtt_us.p99", p, stub.len());
        }
        if let Some(p) = percentile(&travel, 90.0) {
            out.set("travel_ms.p90", p, travel.len());
        }
        let setup =
            median(&plain.iter().map(|s| s.setup_s).collect::<Vec<_>>()).expect("one session");
        if traced.is_empty() {
            return setup;
        }
        let (tstub, ttravel, trec) = summary(traced);
        let med = |v: &[f64]| median(v).expect("samples");
        out.set(
            "trace_overhead.rec_instr_per_s",
            med(&trec) - rec_median,
            traced.len(),
        );
        out.set(
            "trace_overhead.stub_rtt_us.p50",
            med(&tstub) - stub_p50,
            tstub.len(),
        );
        out.set(
            "trace_overhead.travel_ms.p50",
            med(&ttravel) - travel_p50,
            ttravel.len(),
        );
        out.set_medians(traced.iter().map(|s| &s.layers[..]));
        for label in StubCmd::LABELS {
            let v: Vec<f64> = traced
                .iter()
                .flat_map(|s| s.stub_us.iter().filter(|x| x.0 == label).map(|x| x.1))
                .collect();
            if let Some(m) = median(&v) {
                out.set(format!("rdbg.cmd_us.{label}"), m, v.len());
            }
        }
        for (kind, name) in [
            ("seek", "core.seek_ms"),
            ("reverse_step", "core.reverse_step_ms"),
            ("query_first", "hx-query.query_first_ms"),
        ] {
            let v: Vec<f64> = traced
                .iter()
                .flat_map(|s| s.travel.iter().filter(|x| x.0 == kind).map(|x| x.1))
                .collect();
            out.set(name, med(&v), v.len());
        }
        let cycles: Vec<f64> = traced
            .iter()
            .flat_map(|s| s.travel.iter().map(|x| x.2 as f64))
            .collect();
        out.set("core.travel_cycles", med(&cycles), cycles.len());
        let mut wire = WireCounters::default();
        traced.iter().for_each(|s| wire.add(&s.wire));
        crate::link::report(out, "uart", &wire, tstub.len());
        setup
    }
}
