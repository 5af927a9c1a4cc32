//! End-to-end data-integrity tests: the streaming workload's wire output is
//! verified byte-for-byte against the deterministic disk content on every
//! platform — covering zero-copy DMA, scatter-gather TX, passthrough (lvmm)
//! and the double-copy host relay (hosted).

use lwvmm::guest::{kernel::layout, verify, GuestStats, Workload};
use lwvmm::hosted::HostedPlatform;
use lwvmm::machine::{Machine, MachineConfig, Platform, RawPlatform};
use lwvmm::monitor::LvmmPlatform;
use lwvmm::obs::journal::{fnv1a, FNV_OFFSET};

fn boot(rate: u64) -> (Machine, u64) {
    let mut machine = Machine::new(MachineConfig::default());
    let program = Workload::new(rate)
        .build(&machine)
        .expect("kernel assembles");
    machine.load_program(&program);
    let clock = machine.config().clock_hz;
    (machine, clock)
}

fn run_and_verify(platform: &mut dyn Platform, clock: u64, ms: u64) -> GuestStats {
    platform.machine_mut().nic.set_capture(true);
    platform.run_for(clock / 1_000 * ms);
    let stats = GuestStats::read(platform.machine()).expect("guest must finish booting");
    assert_eq!(stats.fault_cause, 0, "guest fault at {:#x}", stats.fault_pc);
    assert!(stats.booted, "guest must finish booting");
    let frames = platform.machine_mut().nic.take_captured();
    assert!(!frames.is_empty(), "stream must produce frames");
    verify::verify_frames(&frames).expect("wire data == disk data");
    assert_eq!(
        frames.len() as u64,
        platform.machine().nic.counters().tx_frames
    );
    stats
}

#[test]
fn raw_hardware_stream_is_correct() {
    let (machine, clock) = boot(100);
    let mut hw = RawPlatform::new(machine);
    let stats = run_and_verify(&mut hw, clock, 40);
    assert!(stats.frames > 100, "{stats:?}");
    assert!(stats.ticks > 30, "pacing ticks must arrive: {stats:?}");
}

#[test]
fn lvmm_stream_is_correct() {
    let (machine, clock) = boot(100);
    let mut vmm = LvmmPlatform::new(machine, layout::ENTRY);
    let stats = run_and_verify(&mut vmm, clock, 40);
    assert!(stats.frames > 100, "{stats:?}");
    // Passthrough: zero emulation exits for disk/NIC data movement, but
    // plenty of interrupt virtualization.
    let ms = vmm.monitor_stats();
    assert!(ms.irqs_injected > 50);
    assert_eq!(ms.protection_violations, 0);
}

#[test]
fn hosted_stream_is_correct() {
    let (machine, clock) = boot(30);
    let mut vmm = HostedPlatform::new(machine, layout::ENTRY);
    let stats = run_and_verify(&mut vmm, clock, 40);
    assert!(stats.frames > 30, "{stats:?}");
    let hs = vmm.monitor_stats();
    assert!(hs.exits_mmio > 200, "every device access must exit: {hs:?}");
    assert!(
        vmm.host_relay_ops() > 30,
        "data must go through the host model"
    );
}

#[test]
fn nic_checksum_counter_matches_capture() {
    // The NIC's running FNV checksum must agree with a recomputation over
    // the captured frames — so the cheap counter can stand in for full
    // capture in long benchmark runs.
    let (machine, clock) = boot(100);
    let mut hw = RawPlatform::new(machine);
    hw.machine_mut().nic.set_capture(true);
    hw.run_for(clock / 50);
    let frames = hw.machine_mut().nic.take_captured();
    let mut fnv = FNV_OFFSET;
    for f in &frames {
        fnv = fnv1a(fnv, f);
    }
    assert_eq!(hw.machine().nic.counters().tx_checksum, fnv);
}

#[test]
fn paced_rates_are_respected() {
    // At a rate below even the hosted monitor's ceiling (~27 Mbps), every
    // platform must deliver approximately the requested rate — the pacing
    // token bucket, not the platform, is the limit.
    for (name, mut platform, clock) in platforms(20) {
        platform.run_for(clock / 10); // 100 ms
        let bytes = platform.machine().nic.counters().tx_bytes;
        let seconds = platform.machine().now() as f64 / clock as f64;
        let mbps = bytes as f64 * 8.0 / seconds / 1e6;
        assert!(
            (15.0..25.0).contains(&mbps),
            "{name}: expected ~20 Mbps, measured {mbps:.1}"
        );
    }
}

fn platforms(rate: u64) -> Vec<(&'static str, Box<dyn Platform>, u64)> {
    let mut out: Vec<(&'static str, Box<dyn Platform>, u64)> = Vec::new();
    let (machine, clock) = boot(rate);
    out.push(("real-hw", Box::new(RawPlatform::new(machine)), clock));
    let (machine, clock) = boot(rate);
    out.push((
        "lvmm",
        Box::new(LvmmPlatform::new(machine, layout::ENTRY)),
        clock,
    ));
    let (machine, clock) = boot(rate);
    out.push((
        "hosted",
        Box::new(HostedPlatform::new(machine, layout::ENTRY)),
        clock,
    ));
    out
}

#[test]
fn identical_streams_across_platforms() {
    // The three platforms run the same image and must transmit the *same
    // byte stream* (prefix-wise; they advance at different speeds).
    let mut captures = Vec::new();
    for (_, mut platform, clock) in platforms(30) {
        platform.machine_mut().nic.set_capture(true);
        platform.run_for(clock / 50);
        captures.push(platform.machine_mut().nic.take_captured());
    }
    let shortest = captures.iter().map(Vec::len).min().unwrap();
    assert!(shortest > 20, "need a meaningful common prefix");
    for (i, frame) in captures[0][..shortest].iter().enumerate() {
        assert_eq!(frame, &captures[1][i], "frame {i}: raw vs lvmm");
        assert_eq!(frame, &captures[2][i], "frame {i}: raw vs hosted");
    }
}
