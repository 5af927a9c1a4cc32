//! `MonitorCore`: the one trap-and-emulate core behind both monitors.
//!
//! The lightweight monitor ([`crate::LvmmPlatform`]) and the hosted full
//! monitor (`hosted_vmm::HostedPlatform`) virtualize the CPU identically:
//! the guest kernel runs deprivileged against a virtual CPU
//! ([`crate::VCpu`]), behind shadow page tables ([`crate::ShadowPager`]),
//! with a virtual PIC/PIT ([`crate::chipset::VChipset`]) and virtual IPIs.
//! This module holds the single copy of that machinery — trap dispatch,
//! privileged-instruction and device-register emulation, shadow fills,
//! virtual interrupt injection, per-core vCPU seating — plus the
//! [`ExitPolicy`] and [`Platform`] glue.
//!
//! The two platforms differ only at three seams, supplied by a [`Seams`]
//! implementation:
//!
//! 1. **Cost table** ([`Seams::COSTS`]): exit, reflect and device-register
//!    costs and the size of the monitor's memory region.
//! 2. **Device policy**: which device pages are passed through, where
//!    emulated device registers and real interrupts go.
//! 3. **Debug attachment**: the lightweight monitor's stub (breakpoints,
//!    single steps, watchpoints, stops on faults and livelock, the flight
//!    recorder). The hosted monitor has none and keeps the defaults, which
//!    do what the hardware would.
//!
//! **The retire rule.** Every instruction the monitor completes on the
//! guest's behalf ends in `MonitorCore::retire_emulated`: it advances the
//! PC, evaluates logpoints at the retired PC, and raises the single-step
//! trap the hardware would raise — with TF sampled before the emulation
//! ran, exactly as `Cpu::step` samples it — inside the same exit.

use crate::chipset::VChipset;
use crate::costs;
use crate::shadow::{classify, guest_walk, GuestWalkErr, PageClass, ShadowPager, ShadowStats};
use crate::vcpu::VCpu;
use hx_cpu::csr::{Csr, Status};
use hx_cpu::isa::{CsrOp, Instr, LoadKind, StoreKind, SysOp};
use hx_cpu::mmu::{pte, Access, PAGE_MASK};
use hx_cpu::trap::{Cause, Trap};
use hx_cpu::{MemSize, Mode};
use hx_machine::engine::{ExitPolicy, ProgressGuard};
use hx_machine::platform::PlatformStep;
use hx_machine::{map, smp, Machine, Platform, TimeBucket, TimeStats};
use hx_obs::{EventKind, ExitCause, HostPhase};
use rdbg::msg::StopReason;

/// A platform's cost table: fixed per platform, not a setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Costs {
    /// World switch charged on every exit.
    pub exit_base: u64,
    /// Extra cost of reflecting a real interrupt or IPI, on top of
    /// `exit_base`.
    pub reflect_irq: u64,
    /// Emulating one device-register access.
    pub emul_dev_reg: u64,
    /// Bytes of RAM reserved at the top of memory for the monitor.
    pub monitor_mem: u32,
}

/// Exit counters — the paper-adjacent ablation data (Table A).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MonitorStats {
    /// Privileged-instruction emulations (CSR, `tret`, `wfi`, `tlbflush`).
    pub exits_privileged: u64,
    /// Emulated device-register accesses.
    pub exits_mmio: u64,
    /// Shadow page-table fills.
    pub exits_shadow: u64,
    /// Real device interrupts and IPIs reflected into the guest.
    pub exits_irq_reflect: u64,
    /// Debug exits (breakpoints, single steps, watchpoints, break-ins).
    pub exits_debug: u64,
    /// Guest faults re-injected to the guest's own handler.
    pub faults_injected: u64,
    /// Virtual interrupts injected.
    pub irqs_injected: u64,
    /// Guest attempts to reach monitor memory or page tables outside guest
    /// RAM — all blocked.
    pub protection_violations: u64,
    /// Single guest stores emulated because a watchpoint shares their page.
    pub emulated_stores: u64,
    /// Single guest loads emulated because a read watchpoint shares their
    /// page.
    pub emulated_loads: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RunState {
    Running,
    GuestIdle,
    Stopped,
}

/// Where the two monitors differ (see the [module docs](self)). Every hook
/// is an associated function over the whole core, so the exit path stays
/// statically dispatched; the debug-attachment hooks default to "no
/// debugger attached".
pub trait Seams: Sized + Send + std::fmt::Debug {
    /// Platform name reported by [`Platform::name`].
    const NAME: &'static str;
    /// The platform's cost table.
    const COSTS: Costs;

    /// Builds the platform part on the machine the core is installing
    /// itself on. Returns it with the end of the shadow-table pool, which
    /// starts at `monitor_base`.
    fn attach(machine: &mut Machine, monitor_base: u32, entry: u32) -> (Self, u32);

    /// Classifies a guest-physical page under the platform's device policy.
    fn classify(gpa: u32, monitor_base: u32, ram_size: u32) -> PageClass {
        classify(gpa, monitor_base, ram_size)
    }

    /// Emulates a guest word read of a device register that is neither in
    /// the virtual chipset nor the IPI block; `None` routes it to the
    /// virtual chipset.
    fn mmio_read(_core: &mut MonitorCore<Self>, _page: u32, _offset: u32) -> Option<u32> {
        None
    }

    /// Write counterpart of [`Seams::mmio_read`]; `false` routes the write
    /// to the virtual chipset.
    fn mmio_write(_core: &mut MonitorCore<Self>, _page: u32, _offset: u32, _val: u32) -> bool {
        false
    }

    /// Services a real device interrupt the monitor took and retired.
    /// Returns whether to latch it into the virtual PIC.
    fn route_irq(core: &mut MonitorCore<Self>, irq: u8) -> bool;

    /// Delivers a received network frame to the guest.
    fn inject_rx(core: &mut MonitorCore<Self>, frame: &[u8]) {
        core.machine.nic_inject_rx(frame.to_vec());
    }

    /// Parks the guest for the debugger. `false` when no debugger is
    /// attached: the caller then does what the hardware would.
    fn park(_core: &mut MonitorCore<Self>, _reason: StopReason) -> bool {
        false
    }

    /// Handles an `ebreak` exit; without a debugger it is the guest's own.
    fn breakpoint(core: &mut MonitorCore<Self>, trap: Trap) -> ExitCause {
        core.inject_guest_trap(Cause::Breakpoint, trap.epc, trap.tval);
        ExitCause::IrqInject
    }

    /// Offers the single-step trap at `epc` to the debugger; `false` leaves
    /// it to the guest.
    fn claim_step(_core: &mut MonitorCore<Self>, _epc: u32) -> bool {
        false
    }

    /// Is the debugger single-stepping the guest?
    fn step_armed(_core: &MonitorCore<Self>) -> bool {
        false
    }

    /// Gives the debugger first look at a fault on guest RAM (data
    /// watchpoints); `Some` when it handled the access.
    fn watch_fault(
        _core: &mut MonitorCore<Self>,
        _trap: Trap,
        _gpa: u32,
        _access: Access,
    ) -> Option<ExitCause> {
        None
    }

    /// PTE permission bits a shadow fill of guest RAM at `va` must withhold
    /// so that watched accesses keep faulting.
    fn withheld_perms(_core: &MonitorCore<Self>, _va: u32) -> u32 {
        0
    }

    /// One unit of progress while the guest is parked for the debugger.
    fn stopped_step(_core: &mut MonitorCore<Self>) -> PlatformStep {
        PlatformStep::Stuck
    }

    /// Runs before every platform step.
    fn before_step(_core: &mut MonitorCore<Self>) {}

    /// May the engine batch guest instructions right now?
    fn may_batch(_core: &MonitorCore<Self>) -> bool {
        true
    }

    /// See [`ExitPolicy::on_instr_boundary`].
    fn on_instr_boundary(_core: &mut MonitorCore<Self>, _at: u64) {}
}

/// The state both monitors share and the one copy of their exit handlers,
/// parameterized by the platform part `P` (see the [module docs](self)).
#[derive(Debug)]
pub struct MonitorCore<P> {
    /// The machine under the monitor.
    pub machine: Machine,
    pub(crate) vcpu: VCpu,
    /// Seat storage for every core's virtual CPU; `vcpus[cur_core]` holds a
    /// stale placeholder while that core's state lives in `self.vcpu`
    /// (mirrors how [`Machine`] seats its real CPUs).
    pub(crate) vcpus: Vec<VCpu>,
    /// The core whose virtual CPU is in `self.vcpu`.
    pub(crate) cur_core: usize,
    /// Per-core pending *virtual* IPI line masks: the monitor consumed the
    /// real IPI and owes the guest core an injected vector.
    pub(crate) vipi: Vec<u8>,
    pub(crate) shadow: ShadowPager,
    pub(crate) chipset: VChipset,
    pub(crate) stats: TimeStats,
    pub(crate) mstats: MonitorStats,
    pub(crate) state: RunState,
    pub(crate) monitor_base: u32,
    pub(crate) ram_size: u32,
    /// Livelock guard: identical consecutive shadow faults indicate a bug.
    pub(crate) progress: ProgressGuard,
    /// The platform's own part: its devices and debug attachment.
    pub plat: P,
}

impl<P: Seams> MonitorCore<P> {
    /// Installs the monitor on `machine` and prepares the guest to boot at
    /// `entry` (image already loaded). The guest starts in *virtual*
    /// supervisor mode with paging off — exactly what it would see on real
    /// hardware — while the real CPU runs it in user mode behind an
    /// identity shadow table.
    ///
    /// # Panics
    ///
    /// Panics if the machine's RAM is too small for the monitor region.
    pub fn new(mut machine: Machine, entry: u32) -> Self {
        let ram_size = machine.config().ram_size as u32;
        assert!(
            P::COSTS.monitor_mem < ram_size,
            "monitor region exceeds RAM"
        );
        let monitor_base = ram_size - P::COSTS.monitor_mem;
        let (plat, shadow_end) = P::attach(&mut machine, monitor_base, entry);
        let mut shadow = ShadowPager::new(monitor_base, shadow_end);

        // Deprivilege the guest; the monitor owns the real privileged state.
        machine.cpu.set_mode(Mode::User);
        machine.cpu.set_pc(entry);
        machine.cpu.write_csr(Csr::Status, Status::IE);
        // Identity shadow context (guest paging off), kernel view active.
        let root = shadow.root_for(&mut machine.mem, 0, Mode::Supervisor);
        machine.cpu.write_csr(Csr::Ptbr, root | 1);
        // Secondary cores boot deprivileged too, sharing the identity
        // shadow until they install their own address space; their PC is
        // set by the startup IPI when the guest brings them online.
        let cores = machine.num_cores();
        for i in 1..cores {
            let c = machine.core_mut(i);
            c.set_mode(Mode::User);
            c.write_csr(Csr::Status, Status::IE);
            c.write_csr(Csr::Ptbr, root | 1);
        }
        MonitorCore {
            machine,
            vcpu: VCpu::new(),
            vcpus: vec![VCpu::new(); cores],
            cur_core: 0,
            vipi: vec![0; cores],
            shadow,
            chipset: VChipset::new(),
            stats: TimeStats::new(),
            mstats: MonitorStats::default(),
            state: RunState::Running,
            monitor_base,
            ram_size,
            progress: ProgressGuard::new(),
            plat,
        }
    }

    /// Monitor exit/injection counters.
    pub fn monitor_stats(&self) -> MonitorStats {
        self.mstats
    }

    /// Shadow-paging counters.
    pub fn shadow_stats(&self) -> ShadowStats {
        self.shadow.stats
    }

    /// The guest's virtual CPU state (diagnostics and tests).
    pub fn vcpu(&self) -> &VCpu {
        &self.vcpu
    }

    /// Base of the monitor-reserved memory region.
    pub fn monitor_base(&self) -> u32 {
        self.monitor_base
    }

    /// Virtual-PIC `(IRR, ISR, IMR)` snapshot, for diagnostics.
    pub fn chipset_vpic(&self) -> (u8, u8, u8) {
        let vpic = &self.chipset.vpic;
        (vpic.irr(), vpic.isr(), vpic.imr())
    }

    /// Latches `irq` into the virtual PIC and injects it if the guest's
    /// interrupt window is open.
    pub fn raise_irq(&mut self, irq: u8) {
        self.chipset.vpic.assert_irq(irq);
        self.maybe_inject_irq();
    }

    pub(crate) fn consume_monitor(&mut self, cycles: u64) {
        self.consume(TimeBucket::Monitor, cycles);
    }

    fn shadow_key(&self) -> u32 {
        if self.vcpu.paging_enabled() {
            self.vcpu.ptbr
        } else {
            0
        }
    }

    /// Activates the shadow view matching the guest's current virtual mode
    /// and address space.
    pub(crate) fn activate_shadow(&mut self) {
        let key = self.shadow_key();
        let root = self
            .shadow
            .root_for(&mut self.machine.mem, key, self.vcpu.vmode);
        self.machine.cpu.write_csr(Csr::Ptbr, root | 1);
    }

    /// Points the guest at `pc` in its (possibly new) virtual mode.
    fn vector_to(&mut self, pc: u32) {
        self.activate_shadow();
        self.machine.cpu.set_pc(pc);
        self.sync_tf();
    }

    /// Injects a virtual trap into the guest (its handler runs next).
    pub(crate) fn inject_guest_trap(&mut self, cause: Cause, epc: u32, tval: u32) {
        let unhandled = self.vcpu.tvec == 0;
        // Double fault: a synchronous fault raised *at the handler entry
        // itself* means the guest's handler is gone (e.g. overwritten by
        // the bug under investigation). A real kernel would triple-fault
        // and reset; a debugger parks the guest instead — the stability
        // story of the paper.
        let double_fault = epc == self.vcpu.tvec
            && !matches!(cause, Cause::Interrupt | Cause::EcallU | Cause::EcallS);
        let reason = StopReason::Fault {
            pc: epc,
            cause: cause.code(),
        };
        if (unhandled || double_fault) && P::park(self, reason) {
            return;
        }
        let vcause = self.vcpu.virtual_cause(cause);
        let handler = self.vcpu.enter_trap(vcause, epc, tval);
        self.vector_to(handler);
        self.consume_monitor(costs::INJECT_TRAP);
        self.mstats.faults_injected += 1;
    }

    /// Aligns the monitor's per-core virtual CPU with the machine's active
    /// core. The machine rotates cores at its own quantum boundaries; the
    /// monitor only observes the outcome at its next exit, so every exit
    /// entry point calls this first. No-op (and byte-free) on single-core.
    pub(crate) fn sync_core(&mut self) {
        let active = self.machine.active_core();
        if active == self.cur_core {
            return;
        }
        let prev = self.cur_core;
        std::mem::swap(&mut self.vcpu, &mut self.vcpus[prev]);
        std::mem::swap(&mut self.vcpu, &mut self.vcpus[active]);
        self.cur_core = active;
        // The real Ptbr travels with the core's seat, but the shadow tables
        // may have been flushed while another core held the seat — recompute
        // the root for this core's virtual address space.
        self.activate_shadow();
    }

    /// Takes a real interrupt surfaced to the active core. A device
    /// interrupt is retired at the real PIC and routed by the device
    /// policy; an IPI is re-latched as a *virtual* IPI. Either is injected
    /// when the guest's window opens.
    fn handle_irq(&mut self, irq: u8) {
        self.sync_core();
        let ipi = irq >= smp::IRQ_BASE;
        if !ipi {
            self.machine.pic.eoi(irq);
        }
        let cost = P::COSTS.exit_base + P::COSTS.reflect_irq;
        self.consume_monitor(cost);
        self.record_exit(ExitCause::IrqReflect, cost);
        self.mstats.exits_irq_reflect += 1;
        if ipi {
            self.vipi[self.cur_core] |= 1 << (irq - smp::IRQ_BASE);
        } else if P::route_irq(self, irq) {
            self.chipset.vpic.assert_irq(irq);
        }
        self.maybe_inject_irq();
    }

    /// Opens the virtual interrupt window if possible: injects the highest
    /// priority pending virtual interrupt. Virtual IPIs outrank the virtual
    /// PIC (they model the local APIC), matching the machine's own
    /// arbitration order; the virtual PIC wires to core 0 only, like the
    /// real one.
    fn maybe_inject_irq(&mut self) {
        if self.state == RunState::Stopped || !self.vcpu.interrupts_enabled() {
            return;
        }
        let pending = self.vipi[self.cur_core];
        let vector = if pending != 0 {
            let line = pending.trailing_zeros() as u8;
            self.vipi[self.cur_core] &= !(1 << line);
            smp::VECTOR_BASE + line
        } else if self.cur_core != 0 {
            return;
        } else if let Some((irq, vector)) = self.chipset.vpic.inta() {
            let now = self.machine.now();
            self.machine.obs.prof_irq_entry(irq as u32, now);
            // Virtual-PIC INTA is the guest's ISR entry under a monitor —
            // the causal dispatch flow ends here, not at the monitor's
            // earlier receipt of the real interrupt.
            self.machine.obs.inta(now, irq as u32);
            vector
        } else {
            return;
        };
        let epc = self.machine.cpu.pc();
        let handler = self.vcpu.enter_trap(Cause::Interrupt, epc, vector as u32);
        self.vector_to(handler);
        self.consume_monitor(costs::INJECT_TRAP);
        self.record_exit(ExitCause::IrqInject, costs::INJECT_TRAP);
        self.mstats.irqs_injected += 1;
        // The injected vector is this core's wake event if it parked.
        self.machine.wake_core(self.cur_core);
        self.state = RunState::Running;
    }

    /// Sets the real `STATUS.TF`.
    pub(crate) fn set_real_tf(&mut self, on: bool) {
        let s = Status(self.machine.cpu.read_csr(Csr::Status));
        self.machine
            .cpu
            .write_csr(Csr::Status, s.with(Status::TF, on).0);
    }

    /// Mirrors the *virtual* single-step flag and any debugger stepping
    /// onto the real `STATUS.TF`.
    pub(crate) fn sync_tf(&mut self) {
        let want = P::step_armed(self) || self.vcpu.status.tf();
        self.set_real_tf(want);
    }

    /// The single-step trap an emulated instruction will owe, sampled
    /// before it runs (as `Cpu::step` samples TF): `Some(guest_tf)` when
    /// the real TF is armed, `guest_tf` telling whether the guest's own
    /// virtual TF is among the reasons.
    pub(crate) fn owed_step(&self) -> Option<bool> {
        Status(self.machine.cpu.read_csr(Csr::Status))
            .tf()
            .then_some(self.vcpu.status.tf())
    }

    /// The retire rule: completes an instruction at `pc` that the monitor
    /// emulated, exactly as the hardware retires one — the PC moves to
    /// `next`, logpoints at `pc` fire, and the step trap `owed` (from
    /// [`Self::owed_step`]) is delivered within this exit.
    pub(crate) fn retire_emulated(&mut self, pc: u32, next: u32, owed: Option<bool>) {
        self.machine.cpu.set_pc(next);
        self.machine.note_logpoints(pc);
        if let Some(guest_tf) = owed {
            self.single_step(next, guest_tf);
        }
    }

    /// Delivers a single-step trap at `epc` to the debugger or, if the
    /// guest armed its own TF, to the guest's handler.
    fn single_step(&mut self, epc: u32, guest_tf: bool) {
        // The monitor intercepted the step (no `take_trap` ran), so the real
        // TF is still armed; drop it before deciding what happens next.
        self.set_real_tf(false);
        if !P::claim_step(self, epc) && guest_tf {
            self.inject_guest_trap(Cause::DebugStep, epc, 0);
        }
    }

    // ------------------------------------------------------------------
    // Trap dispatch
    // ------------------------------------------------------------------

    fn dispatch_trap(&mut self, trap: Trap) {
        self.sync_core();
        // Measure the monitor cycles this exit costs, end to end, and
        // attribute them to one cause in the exit histograms. The trailing
        // interrupt-window check accounts separately (as `irq-inject`).
        let monitor_before = self.stats.monitor;
        self.consume_monitor(P::COSTS.exit_base);
        let cause = match trap.cause {
            Cause::PrivilegedInstruction => {
                self.mstats.exits_privileged += 1;
                self.emulate_privileged(trap);
                ExitCause::Privileged
            }
            Cause::InstrPageFault | Cause::LoadPageFault | Cause::StorePageFault => {
                self.handle_shadow_fault(trap)
            }
            Cause::Breakpoint => P::breakpoint(self, trap),
            Cause::DebugStep => {
                let guest_tf = self.vcpu.status.tf();
                self.single_step(trap.epc, guest_tf);
                ExitCause::Debug
            }
            other => {
                // Ecall, misalignments, access faults, illegal instructions:
                // the guest's business — reflect to its virtual handler.
                self.inject_guest_trap(other, trap.epc, trap.tval);
                ExitCause::IrqInject
            }
        };
        let delta = self.stats.monitor - monitor_before;
        self.record_exit(cause, delta);
        self.maybe_inject_irq();
    }

    // ------------------------------------------------------------------
    // Privileged-instruction emulation (the "CPU-resources emulator")
    // ------------------------------------------------------------------

    fn emulate_privileged(&mut self, trap: Trap) {
        let pc = trap.epc;
        let owed = self.owed_step();
        let instr = Instr::decode(trap.tval).ok();
        let next = match instr {
            Some(Instr::Csr { op, rd, rs1, csr }) => {
                self.consume_monitor(costs::EMUL_CSR);
                let Some(c) = Csr::from_number(csr) else {
                    self.inject_guest_trap(Cause::IllegalInstruction, pc, trap.tval);
                    return;
                };
                let old = self.vcpu.read_csr(c, &self.machine.cpu);
                let writes = op == CsrOp::Rw || rs1 != hx_cpu::Reg::R0;
                if writes {
                    if c.is_read_only() {
                        self.inject_guest_trap(Cause::IllegalInstruction, pc, trap.tval);
                        return;
                    }
                    let src = self.machine.cpu.reg(rs1);
                    let new = match op {
                        CsrOp::Rw => src,
                        CsrOp::Rs => old | src,
                        CsrOp::Rc => old & !src,
                    };
                    let sensitive = self.vcpu.write_csr(c, new);
                    if c == Csr::Ptbr && sensitive {
                        // Guest address-space switch: activate (and possibly
                        // build) the matching shadow context.
                        self.consume_monitor(costs::SHADOW_FLUSH);
                        self.activate_shadow();
                    }
                    if c == Csr::Status {
                        self.sync_tf();
                    }
                }
                self.machine.cpu.set_reg(rd, old);
                pc.wrapping_add(4)
            }
            Some(Instr::Sys { op: SysOp::Tret }) => {
                self.consume_monitor(costs::EMUL_TRET);
                let resume = self.vcpu.leave_trap();
                self.activate_shadow();
                self.sync_tf();
                resume
            }
            Some(Instr::Sys { op: SysOp::Wfi }) => {
                self.consume_monitor(costs::EMUL_WFI);
                // With TF armed the hardware raises the step trap instead
                // of waiting.
                if owed.is_none() {
                    if self.machine.num_cores() > 1 {
                        // Park just this core at the machine level so the
                        // scheduler hands the seat to a runnable sibling;
                        // the platform state stays Running for the others.
                        self.machine.park_active();
                    } else {
                        self.state = RunState::GuestIdle;
                    }
                }
                pc.wrapping_add(4)
            }
            Some(Instr::Sys {
                op: SysOp::TlbFlush,
            }) => {
                self.consume_monitor(costs::SHADOW_FLUSH);
                let key = self.shadow_key();
                self.shadow.flush_context(&mut self.machine.mem, key);
                self.machine.cpu.tlb_flush();
                pc.wrapping_add(4)
            }
            _ => {
                self.inject_guest_trap(Cause::IllegalInstruction, pc, trap.tval);
                return;
            }
        };
        self.retire_emulated(pc, next, owed);
    }

    // ------------------------------------------------------------------
    // Shadow fault handling (paging + device emulation + level-3
    // protection)
    // ------------------------------------------------------------------

    fn handle_shadow_fault(&mut self, trap: Trap) -> ExitCause {
        let va = trap.tval;
        let access = Access::from_fault(trap.cause);
        let vmode = self.vcpu.vmode;
        let now = self.machine.now();
        self.machine
            .obs
            .event(now, EventKind::ShadowFault { vaddr: va });

        // Resolve the guest-physical address and guest permissions.
        let (gpa, gflags) = if self.vcpu.paging_enabled() {
            let root = self.vcpu.page_table_root();
            match guest_walk(
                &mut self.machine.mem,
                root,
                va,
                access,
                vmode,
                self.monitor_base,
                true,
            ) {
                Ok(w) => (w.gpa, w.pte),
                Err(GuestWalkErr::GuestFault) => {
                    self.inject_guest_trap(trap.cause, trap.epc, va);
                    return ExitCause::Shadow;
                }
                Err(GuestWalkErr::BadTable) => return self.protection_violation(trap),
            }
        } else {
            // Identity: kernel-era physical addressing.
            (
                va,
                pte::V | pte::R | pte::W | pte::X | pte::U | pte::A | pte::D,
            )
        };

        let class = P::classify(gpa, self.monitor_base, self.ram_size);
        let flags = match class {
            // Level-3 protection: the monitor is untouchable.
            PageClass::Monitor => return self.protection_violation(trap),
            PageClass::Unmapped => {
                self.inject_guest_trap(access.fault_cause(), trap.epc, va);
                return ExitCause::Shadow;
            }
            PageClass::EmulatedMmio => {
                self.mstats.exits_mmio += 1;
                self.emulate_mmio(trap, va, gpa, access);
                return ExitCause::Mmio;
            }
            PageClass::PassthroughMmio => pte::V | pte::R | pte::W | pte::U | pte::A | pte::D,
            PageClass::GuestRam => {
                let mut flags = pte::V | pte::U | pte::A | pte::D | (gflags & (pte::R | pte::X));
                if gflags & pte::W != 0 && gflags & pte::D != 0 {
                    flags |= pte::W;
                }
                flags & !P::withheld_perms(self, va)
            }
        };
        // The guard applies only to fill paths; emulated-MMIO faults
        // legitimately repeat at the same PC.
        if self.progress.no_progress(&trap) {
            let reason = StopReason::Fault {
                pc: trap.epc,
                cause: trap.cause.code(),
            };
            if P::park(self, reason) {
                return ExitCause::Debug;
            }
            // Unrecoverable without a debugger: surface to the guest.
            self.inject_guest_trap(trap.cause, trap.epc, trap.tval);
            self.progress.reset();
            return ExitCause::Shadow;
        }
        if class == PageClass::GuestRam {
            if let Some(cause) = P::watch_fault(self, trap, gpa, access) {
                return cause;
            }
        }
        self.mstats.exits_shadow += 1;
        self.consume_monitor(costs::SHADOW_FILL);
        let key = self.shadow_key();
        self.shadow.map(
            &mut self.machine.mem,
            key,
            vmode,
            va & !PAGE_MASK,
            gpa & !PAGE_MASK,
            flags,
        );
        ExitCause::Shadow
    }

    /// A guest access aimed at monitor memory, directly or through a page
    /// table outside guest RAM: blocked and surfaced as the guest's fault.
    fn protection_violation(&mut self, trap: Trap) -> ExitCause {
        self.mstats.protection_violations += 1;
        self.shadow.stats.protection_violations += 1;
        self.inject_guest_trap(trap.cause, trap.epc, trap.tval);
        ExitCause::Protection
    }

    /// Decodes and completes the guest's faulting load/store against an
    /// emulated device register ("partial hardware emulation").
    fn emulate_mmio(&mut self, trap: Trap, va: u32, gpa: u32, access: Access) {
        self.consume_monitor(P::COSTS.emul_dev_reg);
        let owed = self.owed_step();
        let Some(instr) = self.fetch_guest_instr(trap.epc) else {
            self.inject_guest_trap(Cause::InstrPageFault, trap.epc, trap.epc);
            return;
        };
        let page = gpa & !(map::DEV_PAGE - 1);
        let offset = gpa & (map::DEV_PAGE - 1);
        let retired = match (instr, access) {
            (
                Instr::Load {
                    kind: LoadKind::W,
                    rd,
                    ..
                },
                Access::Load,
            ) => {
                let val = self.mmio_read(page, offset);
                self.machine.cpu.set_reg(rd, val);
                true
            }
            (
                Instr::Store {
                    kind: StoreKind::W,
                    rs2,
                    ..
                },
                Access::Store,
            ) => {
                let val = self.machine.cpu.reg(rs2);
                self.mmio_write(page, offset, val);
                true
            }
            _ => {
                // Sub-word or executable access to a device page: reflect
                // as an access fault, like real hardware would.
                self.inject_guest_trap(access.fault_cause(), trap.epc, va);
                false
            }
        };
        // Attribute the emulation's host time to the device itself; the
        // trailing `record_exit(Mmio)` then covers only exit bookkeeping.
        if let Some(dev) = map::dev_of(gpa) {
            self.machine.obs.host_mark(HostPhase::Device(dev));
        }
        if retired {
            self.retire_emulated(trap.epc, trap.epc.wrapping_add(4), owed);
        }
    }

    fn mmio_read(&mut self, page: u32, offset: u32) -> u32 {
        if page == map::PIC_BASE && offset >= smp::reg::SEND {
            return self.ipi_mmio_read(offset);
        }
        match P::mmio_read(self, page, offset) {
            Some(val) => val,
            None => self.chipset.mmio_read(&mut self.machine, page, offset),
        }
    }

    fn mmio_write(&mut self, page: u32, offset: u32, val: u32) {
        if page == map::PIC_BASE && offset == hx_machine::pic::reg::EOI {
            // The guest is retiring a virtual interrupt: close the
            // profiler's entry→EOI latency window and the causal
            // ISR-service flow. The monitor's own retirement of the *real*
            // PIC goes through the device directly, so this is the only
            // EOI the causal layer sees.
            let now = self.machine.now();
            self.machine.obs.prof_irq_eoi(now);
            self.machine.obs.eoi(now);
        }
        if page == map::PIC_BASE && offset >= smp::reg::SEND {
            self.ipi_mmio_write(offset, val);
        } else if !P::mmio_write(self, page, offset, val) {
            self.chipset
                .mmio_write(&mut self.machine, page, offset, val);
        }
    }

    /// Emulates a guest read of the IPI registers (the block above the
    /// 8259 registers on the PIC page). The monitor answers `CORE_ID` and
    /// `NUM_CORES` itself and reads `ENTRY` through the machine, so the
    /// deprivileged guest sees exactly what a raw guest would.
    fn ipi_mmio_read(&mut self, offset: u32) -> u32 {
        match offset {
            smp::reg::ENTRY => self.machine.ipi_entry(),
            smp::reg::CORE_ID => self.cur_core as u32,
            smp::reg::NUM_CORES => self.machine.num_cores() as u32,
            _ => {
                self.chipset.bad_accesses += 1;
                0
            }
        }
    }

    /// Emulates a guest write to the IPI registers: sends route through the
    /// machine's own delivery path so virtual and raw IPI timing agree.
    fn ipi_mmio_write(&mut self, offset: u32, val: u32) {
        match offset {
            smp::reg::SEND => {
                let target = (val & 0xff) as u8;
                let line = ((val >> 8) & 0xff) as u8;
                if !self.machine.ipi_send(target, line) {
                    self.chipset.bad_accesses += 1;
                }
            }
            smp::reg::ENTRY => self.machine.set_ipi_entry(val),
            _ => self.chipset.bad_accesses += 1,
        }
    }

    /// Fetches the instruction word at a guest virtual PC.
    pub(crate) fn fetch_guest_instr(&mut self, pc: u32) -> Option<Instr> {
        let pa = self.debug_translate(pc)?;
        let word = self.machine.mem.read(pa, MemSize::Word).ok()?;
        Instr::decode(word).ok()
    }

    /// Translates a guest virtual address for debugger access: guest page
    /// tables are honoured but permission bits are not (the debugger may
    /// read execute-only pages). Only guest RAM is reachable. Uses the
    /// *active* core's address space.
    pub(crate) fn debug_translate(&mut self, va: u32) -> Option<u32> {
        let root = self
            .vcpu
            .paging_enabled()
            .then(|| self.vcpu.page_table_root());
        self.translate_for_debug(root, va)
    }

    pub(crate) fn translate_for_debug(&mut self, paging_root: Option<u32>, va: u32) -> Option<u32> {
        let gpa = if let Some(root) = paging_root {
            let l1_addr = root + hx_cpu::mmu::l1_index(va) * 4;
            if l1_addr + 4 > self.monitor_base {
                return None;
            }
            let l1e = self.machine.mem.read(l1_addr, MemSize::Word).ok()?;
            if l1e & pte::V == 0 || l1e & (pte::R | pte::W | pte::X) != 0 {
                return None;
            }
            let l2_addr = (l1e & pte::PPN_MASK) + hx_cpu::mmu::l2_index(va) * 4;
            if l2_addr + 4 > self.monitor_base {
                return None;
            }
            let leaf = self.machine.mem.read(l2_addr, MemSize::Word).ok()?;
            if leaf & pte::V == 0 {
                return None;
            }
            (leaf & pte::PPN_MASK) | (va & PAGE_MASK)
        } else {
            va
        };
        (gpa < self.monitor_base).then_some(gpa)
    }

    fn step_impl(&mut self, batch: bool) -> PlatformStep {
        P::before_step(self);
        match self.state {
            RunState::Running => self.guest_step(batch),
            RunState::GuestIdle => self.guest_idle_step(),
            RunState::Stopped => P::stopped_step(self),
        }
    }
}

impl<P: Seams> ExitPolicy for MonitorCore<P> {
    fn mach(&self) -> &Machine {
        &self.machine
    }

    fn mach_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    fn time_stats_mut(&mut self) -> &mut TimeStats {
        &mut self.stats
    }

    fn handle_trap(&mut self, trap: Trap) {
        self.dispatch_trap(trap);
    }

    fn handle_interrupt(&mut self, irq: u8, _vector: u8) {
        self.handle_irq(irq);
    }

    fn on_instr_boundary(&mut self, at: u64) {
        P::on_instr_boundary(self, at);
    }
}

impl<P: Seams> Platform for MonitorCore<P> {
    fn name(&self) -> &'static str {
        P::NAME
    }

    fn machine(&self) -> &Machine {
        &self.machine
    }

    fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    fn time_stats(&self) -> &TimeStats {
        &self.stats
    }

    fn step(&mut self) -> PlatformStep {
        // The profiler (its PC attribution anchor) and armed logpoints need
        // per-instruction boundaries, and so may the platform part;
        // batching is only enabled when none of them does.
        let batch =
            P::may_batch(self) && !self.machine.obs.profiling() && !self.machine.has_logpoints();
        self.step_impl(batch)
    }

    fn step_precise(&mut self) -> PlatformStep {
        self.step_impl(false)
    }

    fn inject_rx_frame(&mut self, frame: &[u8]) {
        P::inject_rx(self, frame);
    }
}
