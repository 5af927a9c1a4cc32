//! The `stream` phase: the Fig 3.1 streaming guest on each platform, with
//! no recorder and no debugger. The interpreter, the engine and devices,
//! and the monitor exit paths do all the work.

use crate::reference::{self, Counters};
use crate::report::{Checks, Results, CORE_EXITS, FULLVMM_EXITS, PLATFORMS};
use crate::stats::median;
use crate::{boot_machine, Workload};
use hosted_vmm::HostedPlatform;
use hx_machine::{Machine, Platform, RawPlatform};
use hx_obs::{Dev, HostAttribution, HostPhase};
use lvmm::LvmmPlatform;
use std::collections::BTreeMap;
use std::time::Instant;

enum Booted {
    Raw(RawPlatform),
    Lvmm(LvmmPlatform),
    Hosted(HostedPlatform),
}

impl Booted {
    fn machine(&self) -> &Machine {
        match self {
            Booted::Raw(p) => p.machine(),
            Booted::Lvmm(p) => p.machine(),
            Booted::Hosted(p) => p.machine(),
        }
    }

    fn platform(&mut self) -> &mut dyn Platform {
        match self {
            Booted::Raw(p) => p,
            Booted::Lvmm(p) => p,
            Booted::Hosted(p) => p,
        }
    }
}

/// One timed run of one platform.
struct Rep {
    setup_s: f64,
    build_s: f64,
    instr_per_s: f64,
    counters: Counters,
    /// Traced runs only: per-layer values of this run.
    layers: Vec<(String, f64)>,
}

fn run_once(plat: &str, rate: u64, span: u64, traced: bool) -> Rep {
    let t0 = Instant::now();
    let (machine, build_s) = boot_machine(rate);
    let entry = hitactix::kernel::layout::ENTRY;
    let mut booted = match plat {
        "raw" => Booted::Raw(RawPlatform::new(machine)),
        "lvmm" => Booted::Lvmm(LvmmPlatform::new(machine, entry)),
        _ => Booted::Hosted(HostedPlatform::new(machine, entry)),
    };
    let setup_s = t0.elapsed().as_secs_f64();
    let p = booted.platform();
    if traced {
        p.machine_mut().obs.enable_hostprof();
    }
    let t = Instant::now();
    p.run_for(span);
    let host_s = t.elapsed().as_secs_f64();
    let counters = Counters::of(p);
    let instr_per_s = counters.instret as f64 / host_s;
    let mut layers = Vec::new();
    if traced {
        // Guest time is charged at the next phase boundary; close it.
        let obs = &booted.machine().obs;
        obs.host_mark(HostPhase::GuestExec);
        let att = obs.host_attribution().expect("host profiler enabled");
        layers = layer_values(plat, &booted, &counters, &att);
    }
    Rep {
        setup_s,
        build_s,
        instr_per_s,
        counters,
        layers,
    }
}

fn layer_values(
    plat: &str,
    booted: &Booted,
    c: &Counters,
    att: &HostAttribution,
) -> Vec<(String, f64)> {
    let ns = |phase: HostPhase| att.phase_ns[phase.index()] as f64;
    let m = booted.machine();
    let d = m.cpu.decode_stats();
    let (tlb_hits, tlb_misses) = m.cpu.tlb_stats();
    let mut v = vec![
        (format!("hx-cpu.instret.{plat}"), c.instret as f64),
        (
            format!("hx-cpu.exec_ns_per_instr.{plat}"),
            ns(HostPhase::GuestExec) / c.instret as f64,
        ),
        (format!("hx-cpu.decode_hit_ratio.{plat}"), d.hit_rate()),
        (
            format!("hx-cpu.decode_invalidations.{plat}"),
            d.invalidations as f64,
        ),
        (
            format!("hx-cpu.tlb_miss_ratio.{plat}"),
            tlb_misses as f64 / (tlb_hits + tlb_misses).max(1) as f64,
        ),
        (format!("hx-machine.idle_ns.{plat}"), ns(HostPhase::Idle)),
        (
            format!("hx-machine.idle_share.{plat}"),
            c.idle as f64 / (c.guest + c.monitor + c.host_model + c.idle) as f64,
        ),
        (format!("hx-machine.tx_frames.{plat}"), c.tx_frames as f64),
        (format!("hx-obs.hostprof_coverage.{plat}"), att.coverage()),
    ];
    for d in Dev::ALL {
        v.push((
            format!("hx-machine.device_ns.{}.{plat}", d.label()),
            ns(HostPhase::Device(d)),
        ));
    }
    let monitor = match booted {
        Booted::Lvmm(_) => Some(("core", &CORE_EXITS[..])),
        Booted::Hosted(_) => Some(("fullvmm", &FULLVMM_EXITS[..])),
        Booted::Raw(_) => None,
    };
    if let Some((layer, causes)) = monitor {
        for &cause in causes {
            let label = cause.label();
            v.push((
                format!("{layer}.exits.{label}"),
                c.exits[cause.index()] as f64,
            ));
            v.push((
                format!("{layer}.exit_ns.{label}"),
                ns(HostPhase::Exit(cause)),
            ));
        }
    }
    if let Booted::Hosted(h) = booted {
        v.push((
            "fullvmm.relayed_tx_frames".to_string(),
            h.relayed_tx_frames() as f64,
        ));
    }
    v
}

/// The phase: rounds of one repetition per platform. The first round
/// warms the allocator and caches and is only checked, not timed. Traced
/// runs alternate untraced and traced rounds so the difference is the
/// tracing overhead.
pub struct Stream {
    workload: &'static Workload,
    trace: bool,
    rounds: usize,
    reps: BTreeMap<&'static str, Vec<Rep>>,
    traced: BTreeMap<&'static str, Vec<Rep>>,
}

impl Stream {
    pub fn new(workload: &'static Workload, trace: bool) -> Stream {
        Stream {
            workload,
            trace,
            rounds: 0,
            reps: BTreeMap::new(),
            traced: BTreeMap::new(),
        }
    }
}

impl crate::Phase for Stream {
    fn unit(&mut self, checks: &mut Checks) {
        let w = self.workload;
        let traced = self.trace && self.rounds.is_multiple_of(2);
        for (plat, &span) in PLATFORMS.iter().zip(&w.stream_spans) {
            let rep = run_once(plat, w.rate_mbps, span, traced);
            let expected = reference::lookup(w.name, plat);
            checks.op(expected == Some(rep.counters), || {
                format!(
                    "stream {plat}: simulated counters {:?} differ from the reference {expected:?}",
                    rep.counters
                )
            });
            if self.rounds > 0 {
                let into = if traced {
                    &mut self.traced
                } else {
                    &mut self.reps
                };
                into.entry(plat).or_default().push(rep);
            }
        }
        self.rounds += 1;
    }

    fn enough(&self) -> bool {
        self.rounds >= if self.trace { 3 } else { 4 }
    }

    fn finish(&self, out: &mut Results) -> f64 {
        let mut setup = 0.0;
        let mut build = Vec::new();
        for plat in PLATFORMS {
            let r = &self.reps[plat];
            let col = |f: fn(&Rep) -> f64| r.iter().map(f).collect::<Vec<_>>();
            let speed = median(&col(|r| r.instr_per_s)).expect("at least one run");
            out.set(format!("sim_instr_per_s.{plat}"), speed, r.len());
            setup += median(&col(|r| r.setup_s)).expect("at least one run");
            build.extend(col(|r| r.build_s * 1e3));
            if let Some(t) = self.traced.get(plat) {
                let traced_speed: Vec<f64> = t.iter().map(|r| r.instr_per_s).collect();
                out.set(
                    format!("trace_overhead.sim_instr_per_s.{plat}"),
                    median(&traced_speed).expect("at least one run") - speed,
                    t.len(),
                );
                out.set_medians(t.iter().map(|r| &r.layers[..]));
            }
        }
        out.set(
            "hitactix.build_ms",
            median(&build).expect("at least one run"),
            build.len(),
        );
        setup
    }
}
