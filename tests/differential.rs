//! Differential testing: the lightweight monitor must be **transparent**.
//!
//! For randomly generated guest programs, the architectural state a guest
//! computes under the monitor (deprivileged, shadow-paged, trap-emulated)
//! must equal the state it computes on raw hardware. This is the deepest
//! correctness property of the reproduction — the paper's monitor promises
//! to run "any OSs running on PC/AT architectures" unmodified.

use hx_cpu::isa::{AluOp, BranchCond, Instr, LoadKind, Reg, StoreKind};
use lwvmm::hosted::HostedPlatform;
use lwvmm::machine::{Machine, MachineConfig, Platform, RawPlatform};
use lwvmm::monitor::LvmmPlatform;
use proptest::prelude::*;

/// Sandbox data region the generated programs may address.
const DATA_BASE: u32 = 0x8000;
const CODE_BASE: u32 = 0x1000;

/// A safely executable random instruction: ALU ops, sandboxed memory
/// accesses, and strictly forward branches (no loops, no privileged ops).
fn arb_safe_instr() -> impl Strategy<Value = Instr> {
    let reg = || (1u8..16).prop_map(|n| Reg::new(n).unwrap());
    prop_oneof![
        4 => (proptest::sample::select(&AluOp::ALL[..]), reg(), reg(), reg())
            .prop_map(|(op, rd, rs1, rs2)| Instr::Alu { op, rd, rs1, rs2 }),
        4 => (reg(), reg(), any::<i16>()).prop_map(|(rd, rs1, imm)| Instr::Addi { rd, rs1, imm }),
        2 => (reg(), any::<u16>()).prop_map(|(rd, imm)| Instr::Lui { rd, imm }),
        2 => (reg(), reg(), 0u8..32).prop_map(|(rd, rs1, shamt)| Instr::Srli { rd, rs1, shamt }),
        // Loads/stores: base register is r20 (pinned to DATA_BASE by the
        // prologue), offsets word-aligned within the sandbox.
        2 => (reg(), (0i16..1024).prop_map(|o| o * 4 % 4096)).prop_map(|(rd, offset)| {
            Instr::Load { kind: LoadKind::W, rd, rs1: Reg::R20, offset }
        }),
        2 => (reg(), (0i16..1024).prop_map(|o| o * 4 % 4096)).prop_map(|(rs2, offset)| {
            Instr::Store { kind: StoreKind::W, rs1: Reg::R20, rs2, offset }
        }),
        // Forward-only short branches: always make progress.
        1 => (
            prop_oneof![Just(BranchCond::Eq), Just(BranchCond::Ne), Just(BranchCond::Ltu)],
            reg(),
            reg(),
            (1i16..4)
        )
            .prop_map(|(cond, rs1, rs2, skip)| Instr::Branch {
                cond,
                rs1,
                rs2,
                offset: (skip + 1) * 4,
            }),
    ]
}

/// Builds the test image: pin r20 to the sandbox, seed some registers,
/// run the random body, then `ebreak`.
fn build_image(body: &[Instr]) -> Vec<u32> {
    let mut words = Vec::new();
    words.push(
        Instr::Lui {
            rd: Reg::R20,
            imm: 0,
        }
        .encode(),
    );
    words.push(
        Instr::Ori {
            rd: Reg::R20,
            rs1: Reg::R20,
            imm: DATA_BASE as i16,
        }
        .encode(),
    );
    for i in 1..16u8 {
        words.push(
            Instr::Addi {
                rd: Reg::new(i).unwrap(),
                rs1: Reg::R0,
                imm: (i as i16) * 257 - 2048,
            }
            .encode(),
        );
    }
    words.extend(body.iter().map(|i| i.encode()));
    // Terminator, padded so a trailing forward branch (max skip 3) still
    // lands on an ebreak.
    for _ in 0..5 {
        words.push(
            Instr::Sys {
                op: hx_cpu::isa::SysOp::Ebreak,
            }
            .encode(),
        );
    }
    words
}

fn load_machine(words: &[u32]) -> Machine {
    let mut machine = Machine::new(MachineConfig {
        ram_size: 8 << 20,
        ..Default::default()
    });
    for (i, w) in words.iter().enumerate() {
        machine
            .mem
            .write(CODE_BASE + (i as u32) * 4, *w, hx_cpu::MemSize::Word)
            .unwrap();
    }
    // Seed the sandbox with a recognizable pattern so loads see data.
    for i in 0..1024u32 {
        machine
            .mem
            .write(
                DATA_BASE + i * 4,
                i.wrapping_mul(0x9e37_79b9),
                hx_cpu::MemSize::Word,
            )
            .unwrap();
    }
    machine.cpu.set_pc(CODE_BASE);
    machine
}

/// Final architectural state: registers + PC + the data sandbox.
fn snapshot(machine: &Machine) -> (Vec<u32>, u32, Vec<u8>) {
    (
        machine.cpu.regs().to_vec(),
        machine.cpu.pc(),
        machine.mem.as_bytes()[DATA_BASE as usize..(DATA_BASE + 4096) as usize].to_vec(),
    )
}

/// Runs on raw hardware until the terminating `ebreak` trap. The stop PC
/// is taken from the EPC csr (architectural delivery moved the live PC to
/// the trap vector).
fn run_raw(words: &[u32]) -> (Vec<u32>, u32, Vec<u8>) {
    let mut hw = RawPlatform::new(load_machine(words));
    for _ in 0..1_000_000 {
        hw.step();
        if hw.machine().cpu.read_csr(hx_cpu::Csr::Cause) == hx_cpu::Cause::Breakpoint.code() {
            let (regs, _, mem) = snapshot(hw.machine());
            return (regs, hw.machine().cpu.read_csr(hx_cpu::Csr::Epc), mem);
        }
    }
    panic!("raw run did not terminate");
}

/// Runs under a monitor until the guest's unhandled `ebreak` parks it.
fn run_lvmm(words: &[u32]) -> (Vec<u32>, u32, Vec<u8>) {
    let mut vmm = LvmmPlatform::new(load_machine(words), CODE_BASE);
    for _ in 0..1_000_000 {
        vmm.step();
        if vmm.guest_stopped() {
            return snapshot(vmm.machine());
        }
    }
    panic!("lvmm run did not terminate");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Register file and data memory after a random program are identical
    /// on raw hardware and under the lightweight monitor.
    #[test]
    fn lvmm_is_transparent(body in proptest::collection::vec(arb_safe_instr(), 1..60)) {
        let words = build_image(&body);
        let (raw_regs, raw_pc, raw_mem) = run_raw(&words);
        let (lv_regs, lv_pc, lv_mem) = run_lvmm(&words);
        // The stop PC is the ebreak address in both worlds.
        prop_assert_eq!(raw_pc, lv_pc);
        prop_assert_eq!(raw_regs, lv_regs);
        prop_assert_eq!(raw_mem, lv_mem);
    }
}

/// The predecoded-instruction cache must be *simulation-invisible*: a full
/// streaming run with the cache on and off produces identical machine
/// state, guest statistics, exit histograms and trace spans on every
/// platform. Only host-side speed may differ.
#[test]
fn decode_cache_is_simulation_invisible_on_every_platform() {
    use lwvmm::guest::{kernel::layout, GuestStats, Workload};
    use lwvmm::obs::journal::{fnv1a, FNV_OFFSET};

    fn boot_workload() -> Machine {
        let mut machine = Machine::new(MachineConfig::default());
        let program = Workload::new(80).build(&machine).unwrap();
        machine.load_program(&program);
        machine
    }

    #[allow(clippy::type_complexity)]
    fn run(
        mut platform: Box<dyn Platform>,
        cache: bool,
    ) -> (
        u64,
        u64,
        u32,
        Vec<u32>,
        u64,
        GuestStats,
        Vec<lwvmm::obs::Span>,
        Vec<u64>,
    ) {
        platform.machine_mut().cpu.set_decode_cache(cache);
        platform.machine_mut().obs.enable_tracing();
        platform.run_for(MachineConfig::default().clock_hz / 50);
        let m = platform.machine();
        let decode = m.cpu.decode_stats();
        if cache {
            assert!(decode.hits > 0, "cache on but never hit");
        } else {
            assert_eq!(decode.hits, 0, "cache off but hit");
            assert_eq!(decode.fast_fetches, 0, "cache off but fast-fetched");
        }
        (
            m.now(),
            m.cpu.cycles(),
            m.cpu.pc(),
            m.cpu.regs().to_vec(),
            fnv1a(FNV_OFFSET, m.mem.as_bytes()),
            GuestStats::read(m).expect("guest stats"),
            m.obs.spans.spans().to_vec(),
            m.obs.exits.counts().to_vec(),
        )
    }

    let platforms: [fn() -> Box<dyn Platform>; 3] = [
        || Box::new(RawPlatform::new(boot_workload())),
        || Box::new(LvmmPlatform::new(boot_workload(), layout::ENTRY)),
        || Box::new(HostedPlatform::new(boot_workload(), layout::ENTRY)),
    ];
    for make in platforms {
        let on = run(make(), true);
        let off = run(make(), false);
        assert_eq!(on, off);
    }
}

#[test]
fn hosted_monitor_is_transparent_on_a_fixed_program() {
    // The hosted monitor shares the CPU-virtualization machinery; one
    // deterministic spot check keeps it honest too.
    let body: Vec<Instr> = (0..40)
        .map(|i| {
            if i % 3 == 0 {
                Instr::Addi {
                    rd: Reg::R5,
                    rs1: Reg::R5,
                    imm: 7,
                }
            } else if i % 3 == 1 {
                Instr::Store {
                    kind: StoreKind::W,
                    rs1: Reg::R20,
                    rs2: Reg::R5,
                    offset: (i * 4) as i16,
                }
            } else {
                Instr::Alu {
                    op: AluOp::Xor,
                    rd: Reg::R6,
                    rs1: Reg::R6,
                    rs2: Reg::R5,
                }
            }
        })
        .collect();
    let words = build_image(&body);
    let raw = run_raw(&words);

    let mut ho = HostedPlatform::new(load_machine(&words), CODE_BASE);
    for _ in 0..1_000_000 {
        ho.step();
        // The hosted monitor reflects the unhandled breakpoint into the
        // guest (tvec = 0): the guest parks at PC 0 with CAUSE set in the
        // virtual CPU.
        if ho.vcpu().cause == hx_cpu::Cause::Breakpoint.code() {
            break;
        }
    }
    assert_eq!(ho.vcpu().cause, hx_cpu::Cause::Breakpoint.code());
    // EPC points at the ebreak, like the raw CAUSE/EPC pair.
    assert_eq!(ho.vcpu().epc, raw.1);
    assert_eq!(ho.machine().cpu.regs().to_vec(), raw.0);
    let mem = ho.machine().mem.as_bytes()[DATA_BASE as usize..(DATA_BASE + 4096) as usize].to_vec();
    assert_eq!(mem, raw.2);
}

/// Guest self single-step is transparent for privileged code: a kernel
/// that arms `STATUS.TF` takes one step trap after every instruction it
/// runs with TF set — including the ones a monitor emulates (`csrr`, a
/// virtual-PIC `lw`, and the `csrc` that disarms TF, which still owes its
/// step because TF is sampled before the instruction runs).
#[test]
fn guest_single_step_is_transparent_on_every_platform() {
    let program = hx_asm::assemble(&format!(
        "        .org 0x1000
         start:  la   t0, handler
                 csrw tvec, t0
                 li   t0, {pic:#x}
                 li   t1, {tf:#x}
                 csrs status, t1
                 addi a0, a0, 1
                 addi a0, a0, 1
                 lw   a1, {imr}(t0)
                 csrr a2, status
                 addi a0, a0, 1
                 csrc status, t1
                 addi a0, a0, 1
         halt:   j    halt
         handler:
                 addi s0, s0, 1
                 tret
        ",
        pic = lwvmm::machine::map::PIC_BASE,
        imr = lwvmm::machine::pic::reg::IMR,
        tf = hx_cpu::csr::Status::TF,
    ))
    .unwrap();
    let entry = program.symbols.get("start").unwrap();
    let boot = || {
        let mut machine = Machine::new(MachineConfig {
            ram_size: 8 << 20,
            ..Default::default()
        });
        machine.load_program(&program);
        machine.cpu.set_pc(entry);
        machine
    };
    let platforms: [Box<dyn Platform>; 3] = [
        Box::new(RawPlatform::new(boot())),
        Box::new(LvmmPlatform::new(boot(), entry)),
        Box::new(HostedPlatform::new(boot(), entry)),
    ];
    for mut p in platforms {
        p.run_for(50_000);
        let cpu = &p.machine().cpu;
        assert_eq!(
            (cpu.reg(Reg::R18), cpu.reg(Reg::R4)),
            (6, 4),
            "{}: step-handler entries and guest progress",
            p.name()
        );
    }
}
