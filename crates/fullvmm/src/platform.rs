//! `HostedPlatform`: the guest under the hosted full monitor.
//!
//! CPU virtualization (ring compression, virtual CSRs, shadow paging) is the
//! lightweight monitor's: both run the shared [`MonitorCore`] from the
//! `lvmm` crate. The difference is the device-policy seam: **nothing** is
//! passed through. Every device page the guest touches is emulated, and
//! disk/NIC data is relayed through the modeled host OS with world
//! switches, host stack costs and extra copies ([`crate::costs`]). There is
//! no debug stub.

use crate::costs;
use crate::vdev::{VDisk, VNic, DISK_BOUNCE_SECTORS, HOST_BUF_SIZE, HOST_RING_LEN};
use hx_cpu::MemSize;
use hx_machine::engine::ExitPolicy;
use hx_machine::platform::PlatformStep;
use hx_machine::{map, Machine, Platform, TimeBucket, TimeStats};
use hx_obs::ExitCause;
use lvmm::shadow::{classify, PageClass};
use lvmm::{Costs, MonitorCore, MonitorStats, Seams, VCpu, MONITOR_MEM};

/// Bytes of RAM reserved at the top of memory for the monitor and the host
/// OS model: the shadow-table pool, then bounce buffers and host device
/// rings.
pub const HOST_MEM: u32 = 4 * 1024 * 1024;

/// The hosted monitor's platform part: the virtual disk and NIC models
/// behind the host relay.
#[derive(Debug)]
pub struct Hosted {
    vdisk: VDisk,
    vnic: VNic,
    /// Device operations relayed through the modeled host OS.
    relay_ops: u64,
}

/// Charges `cycles` of modeled host-OS work for one relayed device
/// operation.
fn consume_host(core: &mut MonitorCore<Hosted>, cycles: u64) {
    if cycles > 0 {
        core.consume(TimeBucket::HostModel, cycles);
        core.plat.relay_ops += 1;
        // Every relay op is one `host-relay` histogram entry: the cost of
        // bouncing a device operation through the modeled host OS.
        core.record_exit(ExitCause::HostRelay, cycles);
    }
}

impl Seams for Hosted {
    const NAME: &'static str = "hosted";
    const COSTS: Costs = Costs {
        exit_base: costs::EXIT_BASE,
        reflect_irq: 0,
        emul_dev_reg: costs::EMUL_DEV_REG,
        monitor_mem: HOST_MEM,
    };

    fn attach(machine: &mut Machine, monitor_base: u32, _entry: u32) -> (Self, u32) {
        // Host memory layout: a shadow pool the size of the lightweight
        // monitor's whole region, then the bounce/ring area.
        let ram_size = machine.config().ram_size as u32;
        let shadow_end = monitor_base + MONITOR_MEM;
        assert!(shadow_end < ram_size, "host region too small");
        let mut cursor = shadow_end;
        let mut take = |bytes: u32| {
            let a = cursor;
            cursor += bytes;
            assert!(cursor <= ram_size, "host region layout overflow");
            a
        };
        let disk_bounce = [
            take(DISK_BOUNCE_SECTORS * 512),
            take(DISK_BOUNCE_SECTORS * 512),
            take(DISK_BOUNCE_SECTORS * 512),
        ];
        let host_ring = take(HOST_RING_LEN * 16);
        let host_bufs = take(HOST_RING_LEN * HOST_BUF_SIZE);
        let plat = Hosted {
            vdisk: VDisk::new(disk_bounce),
            vnic: VNic::new(machine, host_ring, host_bufs),
            relay_ops: 0,
        };
        (plat, shadow_end)
    }

    /// The defining property of the hosted monitor: *all* devices are
    /// emulated, including the high-throughput ones.
    fn classify(gpa: u32, monitor_base: u32, ram_size: u32) -> PageClass {
        match classify(gpa, monitor_base, ram_size) {
            PageClass::PassthroughMmio => PageClass::EmulatedMmio,
            class => class,
        }
    }

    fn mmio_read(core: &mut MonitorCore<Self>, page: u32, offset: u32) -> Option<u32> {
        Some(match page {
            map::HDC_BASE => {
                let (v, host) = core.plat.vdisk.read_reg(offset);
                consume_host(core, host);
                v
            }
            map::NIC_BASE => core.plat.vnic.read_reg(offset),
            // Tracepoint registers read as zero everywhere; route through
            // the machine bus so raw and hosted agree.
            map::TRACE_BASE => core
                .machine
                .bus_read(page + offset, MemSize::Word)
                .unwrap_or_default(),
            _ => return None,
        })
    }

    fn mmio_write(core: &mut MonitorCore<Self>, page: u32, offset: u32, val: u32) -> bool {
        let host = match page {
            map::HDC_BASE => core.plat.vdisk.write_reg(&mut core.machine, offset, val),
            map::NIC_BASE => core.plat.vnic.write_reg(&mut core.machine, offset, val),
            // Tracepoint store: forward to the machine bus, where the
            // causal/journal hooks live, so guest tracepoints behave
            // identically on all three platforms.
            map::TRACE_BASE => {
                let _ = core.machine.bus_write(page + offset, val, MemSize::Word);
                0
            }
            _ => return false,
        };
        consume_host(core, host);
        true
    }

    fn route_irq(core: &mut MonitorCore<Self>, irq: u8) -> bool {
        match irq {
            map::irq::PIT => true,
            map::irq::UART => {
                // No debug stub in the hosted monitor: the host consumes
                // its own serial traffic.
                while core.machine.uart.pop_rx().is_some() {}
                false
            }
            map::irq::HDC0 | map::irq::HDC1 | map::irq::HDC2 => {
                let unit = (irq - map::irq::HDC0) as usize;
                let (done, host) = core.plat.vdisk.on_host_complete(&mut core.machine, unit);
                consume_host(core, host);
                done
            }
            map::irq::NIC_TX => {
                let (raise, host) = core.plat.vnic.on_host_tx_complete(&mut core.machine);
                consume_host(core, host);
                raise
            }
            // Host-side receive has nothing to relay in this model (frames
            // enter via `inject_rx`).
            _ => false,
        }
    }

    /// Injects a frame from the outside world into the guest's virtual RX
    /// ring via the host model.
    fn inject_rx(core: &mut MonitorCore<Self>, frame: &[u8]) {
        // This path bypasses `Machine::nic_inject_rx` (frames enter through
        // the host model, not the passthrough NIC), so it must journal the
        // nondeterministic input itself.
        if core.machine.obs.journaling() {
            let now = core.machine.now();
            core.machine
                .obs
                .journal_input(now, hx_obs::JournalInput::NicRx(frame.to_vec()));
        }
        let (ok, host) = core.plat.vnic.deliver_rx(&mut core.machine, frame);
        consume_host(core, host);
        if ok {
            core.raise_irq(map::irq::NIC_RX);
        }
    }
}

/// The hosted full-VMM platform (see the [module docs](self)).
#[derive(Debug)]
pub struct HostedPlatform(MonitorCore<Hosted>);

impl HostedPlatform {
    /// Installs the hosted monitor and prepares the guest to boot at
    /// `entry` (image already loaded).
    ///
    /// # Panics
    ///
    /// Panics if RAM is too small for the host region.
    pub fn new(machine: Machine, entry: u32) -> HostedPlatform {
        HostedPlatform(MonitorCore::new(machine, entry))
    }

    /// Monitor exit/injection counters.
    pub fn monitor_stats(&self) -> MonitorStats {
        self.0.monitor_stats()
    }

    /// Device operations relayed through the modeled host OS.
    pub fn host_relay_ops(&self) -> u64 {
        self.0.plat.relay_ops
    }

    /// The guest's virtual CPU (tests/diagnostics).
    pub fn vcpu(&self) -> &VCpu {
        self.0.vcpu()
    }

    /// Frames the virtual NIC relayed to the wire.
    pub fn relayed_tx_frames(&self) -> u64 {
        self.0.plat.vnic.tx_frames
    }
}

impl Platform for HostedPlatform {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn inject_rx_frame(&mut self, frame: &[u8]) {
        self.0.inject_rx_frame(frame);
    }

    fn machine(&self) -> &Machine {
        self.0.machine()
    }

    fn machine_mut(&mut self) -> &mut Machine {
        self.0.machine_mut()
    }

    fn time_stats(&self) -> &TimeStats {
        self.0.time_stats()
    }

    fn step(&mut self) -> PlatformStep {
        self.0.step()
    }

    fn step_precise(&mut self) -> PlatformStep {
        self.0.step_precise()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hx_machine::MachineConfig;

    fn boot(src: &str) -> HostedPlatform {
        let program = hx_asm::assemble(src).expect("guest assembles");
        let mut machine = Machine::new(MachineConfig {
            ram_size: 16 << 20,
            ..MachineConfig::default()
        });
        machine.load_program(&program);
        let entry = program.symbols.get("start").unwrap_or(program.base());
        HostedPlatform::new(machine, entry)
    }

    #[test]
    fn disk_read_through_host_relay() {
        let mut vmm = boot(&format!(
            "start:  li   t0, {hdc:#x}
                     li   t1, 3
                     sw   t1, 0(t0)
                     li   t1, 1
                     sw   t1, 4(t0)
                     li   t1, 0x9000
                     sw   t1, 8(t0)
                     li   t1, 1
                     sw   t1, 0xc(t0)
             poll:   lw   t2, 0x10(t0)
                     andi t2, t2, 2
                     beqz t2, poll
                     li   s0, 1
             halt:   j halt
            ",
            hdc = map::HDC_BASE
        ));
        vmm.run_for(2_000_000);
        assert_eq!(
            vmm.machine().cpu.reg(hx_cpu::Reg::R18),
            1,
            "transfer completed"
        );
        let mut expect = vec![0u8; 512];
        hx_machine::disk::fill_expected(0, 3, &mut expect);
        assert_eq!(&vmm.machine().mem.as_bytes()[0x9000..0x9200], &expect[..]);
        let hs = vmm.monitor_stats();
        assert!(
            hs.exits_mmio > 4,
            "every register access is an exit: {hs:?}"
        );
        assert!(vmm.time_stats().host_model > 0, "host relay time charged");
    }

    #[test]
    fn nic_tx_through_host_relay() {
        let mut vmm = boot(&format!(
            "start:  ; build one 600-byte frame at 0x4000 (contents: zeros)
                     li   t0, 0x1000         ; ring
                     li   t1, 0x4000
                     sw   t1, 0(t0)          ; desc.addr
                     li   t1, 600
                     sw   t1, 4(t0)          ; desc.len
                     sw   zero, 12(t0)       ; desc.status
                     li   t0, {nic:#x}
                     li   t1, 0x1000
                     sw   t1, 0(t0)          ; TX_BASE
                     li   t1, 8
                     sw   t1, 4(t0)          ; TX_LEN
                     li   t1, 1
                     sw   t1, 0xc(t0)        ; TX_TAIL doorbell
             poll:   lw   t2, 8(t0)          ; TX_HEAD
                     beqz t2, poll
                     li   s0, 1
             halt:   j halt
            ",
            nic = map::NIC_BASE
        ));
        vmm.run_for(3_000_000);
        assert_eq!(
            vmm.machine().cpu.reg(hx_cpu::Reg::R18),
            1,
            "frame completed"
        );
        assert_eq!(vmm.relayed_tx_frames(), 1);
        let c = vmm.machine().nic.counters();
        assert_eq!(c.tx_frames, 1, "the real wire saw the frame");
        assert_eq!(c.tx_bytes, 600);
        assert!(vmm.time_stats().host_model as f64 > costs::HOST_PACKET_TX as f64);
    }

    #[test]
    fn hosted_io_costs_more_than_lvmm() {
        // The same single-sector disk read on both monitors; the hosted one
        // must burn more monitor+host cycles. This is the paper's central
        // comparison in miniature.
        let src = format!(
            "start:  li   t0, {hdc:#x}
                     li   t1, 3
                     sw   t1, 0(t0)
                     li   t1, 1
                     sw   t1, 4(t0)
                     li   t1, 0x9000
                     sw   t1, 8(t0)
                     li   t1, 1
                     sw   t1, 0xc(t0)
             poll:   lw   t2, 0x10(t0)
                     andi t2, t2, 2
                     beqz t2, poll
                     li   s0, 1
             halt:   j halt
            ",
            hdc = map::HDC_BASE
        );
        let program = hx_asm::assemble(&src).unwrap();

        let mut m1 = Machine::new(MachineConfig {
            ram_size: 16 << 20,
            ..MachineConfig::default()
        });
        m1.load_program(&program);
        let mut lv = lvmm::LvmmPlatform::new(m1, program.base());
        lv.run_for(2_000_000);
        assert_eq!(lv.machine().cpu.reg(hx_cpu::Reg::R18), 1);

        let mut m2 = Machine::new(MachineConfig {
            ram_size: 16 << 20,
            ..MachineConfig::default()
        });
        m2.load_program(&program);
        let mut ho = HostedPlatform::new(m2, program.base());
        ho.run_for(2_000_000);
        assert_eq!(ho.machine().cpu.reg(hx_cpu::Reg::R18), 1);

        let lv_overhead = lv.time_stats().monitor + lv.time_stats().host_model;
        let ho_overhead = ho.time_stats().monitor + ho.time_stats().host_model;
        assert!(
            ho_overhead > 2 * lv_overhead,
            "hosted overhead {ho_overhead} must dwarf lvmm {lv_overhead}"
        );
    }

    #[test]
    fn rx_injection_reaches_guest_ring() {
        let mut vmm = boot(&format!(
            "start:  li   t0, 0x2000
                     li   t1, 0x8000
                     sw   t1, 0(t0)
                     li   t1, 1024
                     sw   t1, 4(t0)
                     li   t0, {nic:#x}
                     li   t1, 0x2000
                     sw   t1, 0x20(t0)
                     li   t1, 4
                     sw   t1, 0x24(t0)
                     li   t1, 1
                     sw   t1, 0x2c(t0)
                     li   s0, 1
             halt:   j halt
            ",
            nic = map::NIC_BASE
        ));
        vmm.run_for(500_000);
        assert_eq!(vmm.machine().cpu.reg(hx_cpu::Reg::R18), 1);
        vmm.inject_rx_frame(&[7u8; 64]);
        assert_eq!(vmm.machine().mem.as_bytes()[0x8000], 7);
        assert_eq!(vmm.machine().mem.word(0x2000 + 8), 64);
    }

    #[test]
    fn determinism() {
        let run = || {
            let mut vmm = boot(
                "start:  li t0, 200
                 l:      addi t0, t0, -1
                         bnez t0, l
                 halt:   j halt
                ",
            );
            vmm.run_for(50_000);
            (vmm.machine().now(), *vmm.time_stats(), vmm.monitor_stats())
        };
        assert_eq!(run(), run());
    }
}
