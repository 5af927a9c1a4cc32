//! End-to-end remote-debugging tests over the full stack: host `Debugger`
//! → wire protocol → simulated UART → monitor-resident stub → guest.

use lwvmm::debugger::{DbgError, Debugger, StopReason};
use lwvmm::guest::{apps, kernel::layout, Workload};
use lwvmm::machine::{Machine, MachineConfig, Platform};
use lwvmm::monitor::{LvmmPlatform, UartLink};

type Dbg = Debugger<UartLink<LvmmPlatform>>;

fn counter_session() -> (Dbg, hx_asm::Program) {
    let program = apps::counter_guest();
    let mut machine = Machine::new(MachineConfig {
        ram_size: 8 << 20,
        ..Default::default()
    });
    machine.load_program(&program);
    let platform = LvmmPlatform::new(machine, program.base());
    (Debugger::new(UartLink::new(platform)), program)
}

#[test]
fn halt_inspect_resume() {
    let (mut dbg, program) = counter_session();
    dbg.link_mut().platform.run_for(50_000);
    let stop = dbg.halt().expect("halt");
    assert!(matches!(stop, StopReason::Halted { .. }));
    assert!(dbg.link_ref().platform.guest_stopped());

    let regs = dbg.read_registers().expect("regs");
    assert_eq!(regs.gprs[0], 0, "r0 reads zero");
    // s0 holds the counter address the guest loaded at boot.
    assert_eq!(regs.gpr(18), program.symbols.get("counter").unwrap());

    dbg.resume().expect("resume");
    assert!(!dbg.link_ref().platform.guest_stopped());
    // Guest keeps making progress.
    let counter = program.symbols.get("counter").unwrap();
    let before = dbg.link_ref().platform.machine().mem.word(counter);
    dbg.link_mut().platform.run_for(50_000);
    let after = dbg.link_ref().platform.machine().mem.word(counter);
    assert!(after > before);
}

#[test]
fn breakpoint_hits_exactly_at_symbol() {
    let (mut dbg, program) = counter_session();
    let bump = program.symbols.get("bump").unwrap();
    dbg.halt().unwrap();
    dbg.set_breakpoint(bump).unwrap();
    for _ in 0..3 {
        let stop = dbg.continue_until_stop().expect("hit");
        assert_eq!(stop, StopReason::Breakpoint { pc: bump });
    }
    // Memory reads mask the planted ebreak.
    let word = dbg.read_memory(bump, 4).unwrap();
    let instr = hx_cpu::Instr::decode(u32::from_le_bytes(word.try_into().unwrap())).unwrap();
    assert!(
        matches!(instr, hx_cpu::Instr::Load { .. }),
        "original instruction visible"
    );
    // Clearing restores the original word physically.
    dbg.clear_breakpoint(bump).unwrap();
    let raw = dbg.link_ref().platform.machine().mem.word(bump);
    assert!(matches!(
        hx_cpu::Instr::decode(raw),
        Ok(hx_cpu::Instr::Load { .. })
    ));
}

#[test]
fn single_step_walks_instructions() {
    let (mut dbg, program) = counter_session();
    let bump = program.symbols.get("bump").unwrap();
    dbg.halt().unwrap();
    dbg.set_breakpoint(bump).unwrap();
    dbg.continue_until_stop().unwrap();
    // Step through lw, addi, sw, ret — and land back in main_loop.
    let pcs: Vec<u32> = (0..4).map(|_| dbg.step().unwrap().pc()).collect();
    assert_eq!(pcs[0], bump + 4);
    assert_eq!(pcs[1], bump + 8);
    assert_eq!(pcs[2], bump + 12);
    // `ret` jumps back to the caller.
    let main_loop = program.symbols.get("main_loop").unwrap();
    assert_eq!(pcs[3], main_loop + 4);
}

#[test]
fn single_step_over_emulated_instructions() {
    // A `csrr` and a virtual-PIC `lw` are completed by the monitor, not the
    // hardware; a step over either must still stop at the next instruction.
    let program = hx_asm::assemble(&format!(
        "start:  li   t0, {pic:#x}
         lp:     csrr a0, status
         pic_lw: lw   a1, {imr}(t0)
                 addi a2, a2, 1
                 j    lp
        ",
        pic = lwvmm::machine::map::PIC_BASE,
        imr = lwvmm::machine::pic::reg::IMR,
    ))
    .unwrap();
    let mut machine = Machine::new(MachineConfig {
        ram_size: 8 << 20,
        ..Default::default()
    });
    machine.load_program(&program);
    let platform = LvmmPlatform::new(machine, program.base());
    let mut dbg = Debugger::new(UartLink::new(platform));
    for bp in ["lp", "pic_lw"] {
        let bp = program.symbols.get(bp).unwrap();
        dbg.halt().unwrap();
        dbg.set_breakpoint(bp).unwrap();
        assert_eq!(
            dbg.continue_until_stop().unwrap(),
            StopReason::Breakpoint { pc: bp }
        );
        assert_eq!(dbg.step().unwrap(), StopReason::Step { pc: bp + 4 });
        dbg.clear_breakpoint(bp).unwrap();
        dbg.resume().unwrap();
    }
}

#[test]
fn watchpoint_fires_on_guest_store() {
    let (mut dbg, program) = counter_session();
    let counter = program.symbols.get("counter").unwrap();
    dbg.halt().unwrap();
    dbg.set_watchpoint(counter, 4).unwrap();
    let stop = dbg.continue_until_stop().expect("watch");
    match stop {
        StopReason::Watchpoint { addr, pc } => {
            assert_eq!(addr, counter);
            // The faulting store is the `sw` in bump.
            assert_eq!(pc, program.symbols.get("bump").unwrap() + 8);
        }
        other => panic!("expected watchpoint, got {other:?}"),
    }
    dbg.clear_watchpoint(counter).unwrap();
    dbg.resume().unwrap();
    dbg.link_mut().platform.run_for(50_000);
    assert!(!dbg.link_ref().platform.guest_stopped());
}

#[test]
fn register_and_pc_writes() {
    let (mut dbg, _program) = counter_session();
    dbg.halt().unwrap();
    dbg.write_register(5, 0x1234_5678).unwrap();
    assert_eq!(dbg.read_registers().unwrap().gpr(5), 0x1234_5678);
    // Writing r0 is accepted and discarded.
    dbg.write_register(0, 0xffff_ffff).unwrap();
    assert_eq!(dbg.read_registers().unwrap().gpr(0), 0);
    // Bad register selector is a target error.
    assert_eq!(dbg.write_register(99, 1), Err(DbgError::Target(2)));
}

#[test]
fn memory_errors_are_reported() {
    let (mut dbg, _program) = counter_session();
    dbg.halt().unwrap();
    // Reads beyond guest RAM (into the monitor or off the end) fail.
    let monitor_base = dbg.link_ref().platform.monitor_base();
    assert_eq!(dbg.read_memory(monitor_base, 4), Err(DbgError::Target(3)));
    assert_eq!(dbg.read_memory(0xffff_f000, 4), Err(DbgError::Target(3)));
    assert_eq!(
        dbg.write_memory(monitor_base, &[0]),
        Err(DbgError::Target(3))
    );
}

#[test]
fn step_and_continue_require_stopped_guest() {
    let (mut dbg, _program) = counter_session();
    // Guest is running: flow-control commands are rejected, inspection
    // works live (the paper's monitoring-during-I/O requirement).
    assert!(dbg.read_registers().is_ok());
    assert!(matches!(
        dbg.resume(),
        Err(DbgError::Target(code)) if code == 4
    ));
}

#[test]
fn debugging_while_streaming_at_full_rate() {
    // The paper's core scenario: debug commands served while the guest
    // drives high-throughput I/O.
    let mut machine = Machine::new(MachineConfig::default());
    let program = Workload::new(100).build(&machine).unwrap();
    machine.load_program(&program);
    let platform = LvmmPlatform::new(machine, layout::ENTRY);
    let mut dbg = Debugger::new(UartLink {
        platform,
        slice: 5_000,
    });

    dbg.link_mut().platform.run_for(2_000_000);
    let frames0 = dbg.link_ref().platform.machine().nic.counters().tx_frames;
    assert!(frames0 > 0, "stream running");

    // Live inspection without stopping.
    let regs = dbg.read_registers().expect("live regs");
    assert_ne!(regs.pc, 0);
    let stats_mem = dbg.read_memory(layout::STATS, 32).expect("live stats read");
    let frames_guest = u32::from_le_bytes(stats_mem[8..12].try_into().unwrap());
    assert!(frames_guest > 0);

    // The stream continued throughout.
    dbg.link_mut().platform.run_for(2_000_000);
    let frames1 = dbg.link_ref().platform.machine().nic.counters().tx_frames;
    assert!(frames1 > frames0, "stream must keep flowing while debugged");
    assert!(!dbg.link_ref().platform.guest_stopped());
}

#[test]
fn break_in_halts_streaming_guest_and_reset_restarts_it() {
    let mut machine = Machine::new(MachineConfig::default());
    let program = Workload::new(100).build(&machine).unwrap();
    machine.load_program(&program);
    let platform = LvmmPlatform::new(machine, layout::ENTRY);
    let mut dbg = Debugger::new(UartLink {
        platform,
        slice: 5_000,
    });

    dbg.link_mut().platform.run_for(2_000_000);
    let stop = dbg.halt().expect("break-in during streaming");
    assert!(matches!(stop, StopReason::Halted { .. }));
    let frames_at_halt = dbg.link_ref().platform.machine().nic.counters().tx_frames;

    // While stopped, the stream is frozen.
    dbg.link_mut().platform.run_for(1_000_000);
    let frames_later = dbg.link_ref().platform.machine().nic.counters().tx_frames;
    // In-flight frames may drain, but no new work is submitted.
    assert!(frames_later <= frames_at_halt + 130, "guest must be frozen");

    // Reset restarts the guest from its entry point.
    dbg.reset().expect("reset");
    let stop = dbg.query_stop().expect("stopped after reset");
    assert_eq!(stop.pc(), layout::ENTRY);
    dbg.resume().expect("resume after reset");
    dbg.link_mut().platform.run_for(4_000_000);
    let stats = lwvmm::guest::GuestStats::read(dbg.link_ref().platform.machine())
        .expect("guest re-booted after reset");
    assert!(stats.booted, "guest re-booted after reset");
    assert_eq!(stats.fault_cause, 0);
}

#[test]
fn stub_survives_protocol_garbage() {
    let (mut dbg, _program) = counter_session();
    // Inject garbage and malformed packets directly.
    dbg.link_mut()
        .platform
        .machine_mut()
        .uart_input(b"\xff\x00garbage$bad#zz$x#00");
    dbg.link_mut().platform.run_for(200_000);
    // The stub still answers properly afterwards.
    dbg.halt().expect("stub alive after garbage");
    assert!(dbg.read_registers().is_ok());
}
