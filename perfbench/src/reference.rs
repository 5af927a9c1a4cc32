//! Simulated counters every `stream` run must reproduce exactly. The
//! simulation is deterministic, so a change that only makes the simulator
//! faster leaves every value here identical; a mismatch is a failed
//! operation. On a deliberate change to guest-visible behaviour, the run
//! prints the new values to copy in here.

use hx_machine::Platform;
use hx_obs::ExitCause;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counters {
    pub instret: u64,
    pub guest: u64,
    pub monitor: u64,
    pub host_model: u64,
    pub idle: u64,
    pub tx_bytes: u64,
    pub tx_frames: u64,
    /// Exits per cause, in `ExitCause::ALL` order.
    pub exits: [u64; ExitCause::COUNT],
}

impl Counters {
    pub fn of(p: &dyn Platform) -> Counters {
        let m = p.machine();
        let t = p.time_stats();
        let nic = m.nic.counters();
        Counters {
            instret: m.cpu.instret(),
            guest: t.guest,
            monitor: t.monitor,
            host_model: t.host_model,
            idle: t.idle,
            tx_bytes: nic.tx_bytes,
            tx_frames: nic.tx_frames,
            exits: m.obs.exits.counts(),
        }
    }
}

/// The reference for `workload` on `platform` (metric label).
pub fn lookup(workload: &str, platform: &str) -> Option<Counters> {
    REFERENCE
        .iter()
        .find(|(w, p, _)| *w == workload && *p == platform)
        .map(|r| r.2)
}

const fn c(
    [instret, guest, monitor, host_model, idle, tx_bytes, tx_frames]: [u64; 7],
    exits: [u64; ExitCause::COUNT],
) -> Counters {
    Counters {
        instret,
        guest,
        monitor,
        host_model,
        idle,
        tx_bytes,
        tx_frames,
        exits,
    }
}

/// `(workload, platform, counters)` after each platform's `stream` span.
#[rustfmt::skip]
const REFERENCE: &[(&str, &str, Counters)] = &[
    ("paced", "raw", c(
        [6_209_977, 10_791_861, 0, 0, 49_215_989, 5_133_462, 3_463],
        [0, 0, 0, 0, 0, 0, 0, 0])),
    ("paced", "lvmm", c(
        [5_560_231, 10_674_066, 28_534_030, 0, 14_808_957, 4_619_352, 3_116],
        [24_587, 3_517, 199, 3_514, 3_514, 0, 0, 0])),
    ("paced", "hosted", c(
        [6_077_250, 10_934_559, 50_240_550, 163_450_352, 375_184, 5_022_536, 3_388],
        [31_504, 15_297, 197, 4_930, 4_930, 0, 0, 6_862])),
    ("saturated", "raw", c(
        [6_475_735, 11_216_357, 0, 0, 9_791_493, 5_365_726, 3_619],
        [0, 0, 0, 0, 0, 0, 0, 0])),
    ("saturated", "lvmm", c(
        [6_089_107, 11_634_318, 29_897_560, 0, 468_251, 5_064_480, 3_416],
        [25_597, 3_740, 199, 3_738, 3_738, 0, 0, 0])),
    // Hosted saturates below either rate, so both workloads stream alike.
    ("saturated", "hosted", c(
        [6_077_250, 10_934_559, 50_240_550, 163_450_352, 375_184, 5_022_536, 3_388],
        [31_504, 15_297, 197, 4_930, 4_930, 0, 0, 6_862])),
];
