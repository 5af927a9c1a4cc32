//! `hosted-vmm`: a VMware-Workstation-4-style **hosted full virtual machine
//! monitor** — the conventional baseline the paper compares against.
//!
//! Architecture (after Sugerman et al., *Virtualizing I/O Devices on VMware
//! Workstation's Hosted Virtual Machine Monitor*, USENIX ATC 2001 — the
//! paper's own reference \[2\]):
//!
//! * The guest kernel is deprivileged and shadow-paged exactly like under
//!   the lightweight monitor: both run `lvmm`'s shared `MonitorCore`, and
//!   differ only in its cost table, device policy and debug attachment —
//!   not in CPU virtualization.
//! * **Every** device page is emulated. The disk controller and the NIC —
//!   passthrough under the lightweight monitor — are full software models
//!   here ([`vdev`]), so every register access the guest driver makes is a
//!   trap-and-emulate exit.
//! * Device I/O is relayed through a modeled **host OS**: each transfer
//!   pays world switches between the monitor and host contexts, a host
//!   stack/driver traversal, and an extra data copy through host bounce
//!   buffers ([`costs`]). The real (simulated) devices are owned by the
//!   host model and programmed from host memory.
//!
//! The result, as in the paper's Fig. 3.1, is correct but slow I/O: the
//! same guest OS image boots and streams, at a fraction of the rate.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use hx_machine::{Machine, MachineConfig, Platform};
//! use hosted_vmm::HostedPlatform;
//!
//! let program = hx_asm::assemble(
//!     "start:  li t0, 7\n halt: j halt\n",
//! )?;
//! let mut machine = Machine::new(MachineConfig::default());
//! machine.load_program(&program);
//! let mut vmm = HostedPlatform::new(machine, program.base());
//! vmm.run_for(10_000);
//! assert_eq!(vmm.machine().cpu.reg(hx_cpu::Reg::R10), 7);
//! # Ok(())
//! # }
//! ```

pub mod costs;
pub mod platform;
pub mod vdev;

pub use platform::{HostedPlatform, HOST_MEM};

/// Compile-time proof the hosted monitor stays [`Send`] — the debug farm
/// schedules hosted guests onto worker threads like any other platform.
#[allow(dead_code)]
fn assert_send_types() {
    fn is_send<T: Send>() {}
    is_send::<HostedPlatform>();
}
