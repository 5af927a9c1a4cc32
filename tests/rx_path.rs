//! NIC receive-path tests: frames injected from the outside world reach a
//! guest-posted RX ring — directly on raw hardware, via passthrough DMA
//! under the lightweight monitor, and via the host relay under the hosted
//! monitor.

use lwvmm::hosted::HostedPlatform;
use lwvmm::machine::{map, Machine, MachineConfig, Platform, RawPlatform};
use lwvmm::monitor::LvmmPlatform;

/// A guest that posts one RX buffer, sleeps, and on the RX interrupt copies
/// the first payload byte into `s1` and sets `s2 = 1`.
fn rx_guest() -> hx_asm::Program {
    hx_asm::assemble(&format!(
        "        .org 0x1000
         start:  csrw tvec, h
                 ; one RX descriptor: buffer 0x8000, capacity 2048
                 li   t0, 0x2000
                 li   t1, 0x8000
                 sw   t1, 0(t0)
                 li   t1, 2048
                 sw   t1, 4(t0)
                 li   t0, {nic:#x}
                 li   t1, 0x2000
                 sw   t1, 0x20(t0)      ; RX_BASE
                 li   t1, 4
                 sw   t1, 0x24(t0)      ; RX_LEN
                 li   t1, 1
                 sw   t1, 0x2c(t0)      ; RX_TAIL doorbell
                 csrs status, 1
         idle:   wfi
                 j    idle
         h:      li   t0, 0x8000
                 lbu  s1, 0(t0)         ; first received byte
                 li   t0, {nic:#x}
                 lw   t1, 0x10(t0)
                 sw   t1, 0x14(t0)      ; IACK
                 li   t0, {pic:#x}
                 li   t1, {rx_irq}
                 sw   t1, 0xc(t0)       ; EOI
                 li   s2, 1
         done:   j done
        ",
        nic = map::NIC_BASE,
        pic = map::PIC_BASE,
        rx_irq = map::irq::NIC_RX,
    ))
    .expect("rx guest assembles")
}

fn machine() -> Machine {
    let mut m = Machine::new(MachineConfig {
        ram_size: 8 << 20,
        ..Default::default()
    });
    m.load_program(&rx_guest());
    m
}

#[test]
fn rx_reaches_guest_on_raw_hardware() {
    let mut hw = RawPlatform::new(machine());
    hw.run_for(100_000); // guest posts its ring and sleeps
    hw.machine_mut().nic_inject_rx(vec![0x5a; 96]);
    hw.run_for(200_000);
    assert_eq!(hw.machine().cpu.reg(hx_cpu::Reg::R20), 1, "RX handler ran");
    assert_eq!(hw.machine().cpu.reg(hx_cpu::Reg::R19), 0x5a);
    assert_eq!(hw.machine().nic.counters().rx_frames, 1);
    // The descriptor records the received length.
    assert_eq!(hw.machine().mem.word(0x2000 + 8), 96);
}

#[test]
fn rx_reaches_guest_under_lvmm_passthrough() {
    // Under the lightweight monitor the ring, the DMA and the device are
    // all direct; only the interrupt takes the reflect/inject detour.
    let mut vmm = LvmmPlatform::new(machine(), 0x1000);
    vmm.run_for(400_000);
    let reflects_before = vmm.monitor_stats().exits_irq_reflect;
    vmm.machine_mut().nic_inject_rx(vec![0xc3; 64]);
    vmm.run_for(400_000);
    assert_eq!(vmm.machine().cpu.reg(hx_cpu::Reg::R20), 1, "RX handler ran");
    assert_eq!(vmm.machine().cpu.reg(hx_cpu::Reg::R19), 0xc3);
    assert!(vmm.monitor_stats().exits_irq_reflect > reflects_before);
    assert!(!vmm.guest_stopped());
}

#[test]
fn rx_reaches_guest_under_hosted_relay() {
    let mut vmm = HostedPlatform::new(machine(), 0x1000);
    vmm.run_for(2_000_000); // every ring write is an exit; give it time
    vmm.inject_rx_frame(&[0x7e; 128]);
    vmm.run_for(2_000_000);
    assert_eq!(vmm.machine().cpu.reg(hx_cpu::Reg::R20), 1, "RX handler ran");
    assert_eq!(vmm.machine().cpu.reg(hx_cpu::Reg::R19), 0x7e);
    assert!(vmm.time_stats().host_model > 0, "relay charged host time");
}

#[test]
fn device_registers_reject_subword_access() {
    // PC/AT-style devices are word-registered; a byte store from the guest
    // must surface as a store access fault, identically on raw hardware.
    let src = format!(
        "        .org 0x1000
         start:  csrw tvec, h
                 li   t0, {nic:#x}
                 sb   t0, 0(t0)      ; byte store to a device register
                 li   s2, 1          ; must be skipped
         halt:   j halt
         h:      csrr s1, cause
         spin:   j spin
        ",
        nic = map::NIC_BASE
    );
    let program = hx_asm::assemble(&src).unwrap();
    let mut m = Machine::new(MachineConfig {
        ram_size: 8 << 20,
        ..Default::default()
    });
    m.load_program(&program);
    let mut hw = RawPlatform::new(m);
    hw.run_for(50_000);
    assert_eq!(
        hw.machine().cpu.reg(hx_cpu::Reg::R19),
        hx_cpu::Cause::StoreAccessFault.code()
    );
    assert_eq!(hw.machine().cpu.reg(hx_cpu::Reg::R20), 0);
}
