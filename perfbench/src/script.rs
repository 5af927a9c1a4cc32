//! Seeded load scripts. Every script is a pure function of the seed (and
//! of sizes fixed by the workload): the same seed gives the same commands.

use hitactix::kernel::layout;

/// SplitMix64: tiny, fast, and good enough to pick addresses and mixes.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// A seed for an independent stream, so one script's length never
    /// shifts another's draws.
    pub fn fork(&mut self) -> Rng {
        Rng::new(self.next_u64())
    }
}

/// Guest RAM the streaming kernel never touches: stub writes land here.
const SCRATCH_BASE: u32 = 0x0008_0000;
const SCRATCH_SPAN: u64 = 0x1_0000;

/// One cheap stub command of the time-travel session's closed loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StubCmd {
    Regs,
    Mem64(u32),
    Mem1k(u32),
    Write64(u32, Vec<u8>),
    /// Set, then clear, a breakpoint at this address.
    Bp(u32),
    Step,
    QStats,
}

impl StubCmd {
    /// Label used in the `rdbg.cmd_us.<label>` metrics.
    pub fn label(&self) -> &'static str {
        match self {
            StubCmd::Regs => "regs",
            StubCmd::Mem64(_) => "mem64",
            StubCmd::Mem1k(_) => "mem1k",
            StubCmd::Write64(..) => "write64",
            StubCmd::Bp(_) => "bp",
            StubCmd::Step => "step",
            StubCmd::QStats => "qstats",
        }
    }

    pub const LABELS: [&'static str; 7] =
        ["regs", "mem64", "mem1k", "write64", "step", "bp", "qstats"];
}

/// A 64-byte read of live kernel state: globals, stats or a header slot.
fn mem64_addr(rng: &mut Rng) -> u32 {
    match rng.range(0, 2) {
        0 => layout::GLOB,
        1 => layout::STATS,
        _ => layout::HDR_POOL + 64 * rng.range(0, u64::from(layout::HDR_SLOTS) - 1) as u32,
    }
}

/// A 1 KiB read inside the disk buffers the guest streams from.
fn mem1k_addr(rng: &mut Rng) -> u32 {
    let span = u64::from(layout::NUM_BUFS * layout::BUF_SIZE) / 1024;
    layout::BUF_BASE + 1024 * rng.range(0, span - 1) as u32
}

/// Commands of each kind in every block of [`BLOCK`] script commands, in
/// `StubCmd::LABELS` order: 20% register reads, 20% 64 B reads, 15% 1 KiB
/// reads, 15% 64 B writes, 10% each breakpoint set/clear, step and
/// `qStats`. The mix is fixed so the latency median sits at the same rank
/// of the same mixture under every seed; the seed orders each block and
/// picks addresses and data.
const BLOCK_MIX: [usize; 7] = [4, 4, 3, 3, 2, 2, 2];
pub const BLOCK: usize = 20;

/// One stub script of a time-travel session: `n` commands, a seeded
/// shuffle of [`BLOCK_MIX`] in every block of [`BLOCK`].
pub fn stub_script(seed: u64, n: usize, kernel_entry: u32) -> Vec<StubCmd> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::with_capacity(n + BLOCK);
    while out.len() < n {
        let mut kinds: Vec<usize> = (0..BLOCK_MIX.len())
            .flat_map(|k| std::iter::repeat_n(k, BLOCK_MIX[k]))
            .collect();
        for i in (1..kinds.len()).rev() {
            kinds.swap(i, rng.range(0, i as u64) as usize);
        }
        out.extend(kinds.into_iter().map(|k| match StubCmd::LABELS[k] {
            "regs" => StubCmd::Regs,
            "mem64" => StubCmd::Mem64(mem64_addr(&mut rng)),
            "mem1k" => StubCmd::Mem1k(mem1k_addr(&mut rng)),
            "write64" => {
                let addr = SCRATCH_BASE + 64 * rng.range(0, SCRATCH_SPAN / 64 - 1) as u32;
                let data = (0..64).map(|_| rng.next_u64() as u8).collect();
                StubCmd::Write64(addr, data)
            }
            "step" => StubCmd::Step,
            "bp" => StubCmd::Bp(kernel_entry + 4 * rng.range(0, 255) as u32),
            _ => StubCmd::QStats,
        }));
    }
    out.truncate(n);
    out
}

/// One round of step 3: seek back to the boundary `back` positions before
/// the session's base stop, reverse-step, seek forward to the base, search
/// for the first cycle at or after `query_at`, and seek to the base again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TravelRound {
    /// Recorded boundaries back from the base stop.
    pub back: usize,
    /// Cycle searched for by `query_first("cycle >= …")`.
    pub query_at: u64,
}

/// The step-3 rounds of one session over recorded boundary cycles `marks`
/// (oldest first; the last is the base stop). Time travel rewrites history
/// after every landing (the guest stays halted on the new branch), so each
/// round goes back further than every earlier landing: `back` strictly
/// increases up to `max_back`, and each search lands at or after its
/// round's seek target. Every backward seek then lands on recorded history.
pub fn travel_rounds(seed: u64, rounds: usize, marks: &[u64], max_back: usize) -> Vec<TravelRound> {
    let mut rng = Rng::new(seed);
    let max_back = max_back.min(marks.len() - 1);
    let bin = (max_back / rounds).max(1);
    let base = marks[marks.len() - 1];
    (0..rounds)
        .map(|i| {
            let back = (i * bin + rng.range(1, bin as u64) as usize).min(max_back);
            let target = marks[marks.len() - 1 - back];
            TravelRound {
                back,
                query_at: rng.range(target, base),
            }
        })
        .collect()
}

/// One farm debug session: which guest, and what it reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FarmSession {
    pub guest: usize,
    pub mem64: u32,
    pub mem1k: u32,
    /// Control requests issued after the session.
    pub controls: [Control; 6],
}

/// A control-socket request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    Status,
    Stats,
    Metrics,
}

impl Control {
    pub fn command(self) -> &'static str {
        match self {
            Control::Status => "status",
            Control::Stats => "stats",
            Control::Metrics => "metrics",
        }
    }
}

/// `n` farm sessions, round-robin over `guests` from a seeded start.
/// `metrics` adds the control `metrics` request to the mix (traced runs,
/// whose guests have the host profiler on).
pub fn farm_sessions(seed: u64, n: usize, guests: usize, metrics: bool) -> Vec<FarmSession> {
    let mut rng = Rng::new(seed);
    let first = rng.range(0, guests as u64 - 1) as usize;
    let kinds = if metrics { 2 } else { 1 };
    (0..n)
        .map(|i| FarmSession {
            guest: (first + i) % guests,
            mem64: mem64_addr(&mut rng),
            mem1k: mem1k_addr(&mut rng),
            controls: [(); 6].map(|_| match rng.range(0, kinds) {
                0 => Control::Status,
                1 => Control::Stats,
                _ => Control::Metrics,
            }),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripts_are_pure_functions_of_the_seed() {
        assert_eq!(stub_script(7, 500, 0x1000), stub_script(7, 500, 0x1000));
        assert_ne!(stub_script(7, 500, 0x1000), stub_script(8, 500, 0x1000));
        let marks: Vec<u64> = (0..=60).map(|i| 1000 + i * 100_000).collect();
        let t = |s| travel_rounds(s, 3, &marks, 30);
        assert_eq!(t(3), t(3));
        assert_ne!(t(3), t(4));
        assert_eq!(farm_sessions(5, 50, 4, true), farm_sessions(5, 50, 4, true));
        assert_ne!(farm_sessions(5, 50, 4, true), farm_sessions(6, 50, 4, true));
    }

    #[test]
    fn a_longer_script_extends_a_shorter_one() {
        let short = stub_script(11, 100, 0x1000);
        let long = stub_script(11, 300, 0x1000);
        assert_eq!(short[..], long[..100]);
    }

    #[test]
    fn stub_script_uses_every_command_inside_safe_ranges() {
        let s = stub_script(1, 2000, 0x1000);
        for label in StubCmd::LABELS {
            assert!(s.iter().any(|c| c.label() == label), "{label} missing");
        }
        for c in &s {
            if let StubCmd::Write64(addr, data) = c {
                assert!(
                    *addr >= SCRATCH_BASE
                        && u64::from(*addr) + 64 <= u64::from(SCRATCH_BASE) + SCRATCH_SPAN
                );
                assert_eq!(data.len(), 64);
            }
            if let StubCmd::Mem1k(addr) = c {
                assert!(*addr + 1024 <= layout::BUF_BASE + layout::NUM_BUFS * layout::BUF_SIZE);
            }
        }
    }

    #[test]
    fn every_block_has_the_same_mix_in_a_seeded_order() {
        let count =
            |b: &[StubCmd]| StubCmd::LABELS.map(|l| b.iter().filter(|c| c.label() == l).count());
        let a = stub_script(5, 10 * BLOCK, 0x1000);
        for block in a.chunks(BLOCK) {
            assert_eq!(count(block), BLOCK_MIX);
        }
        let b = stub_script(6, 10 * BLOCK, 0x1000);
        let order = |s: &[StubCmd]| s.iter().map(StubCmd::label).collect::<Vec<_>>();
        assert_ne!(order(&a), order(&b));
    }

    #[test]
    fn travel_rounds_only_go_back_further_and_search_after_their_target() {
        let marks: Vec<u64> = (0..=60).map(|i| 1000 + i * 100_003).collect();
        for seed in 0..200 {
            let rounds = travel_rounds(seed, 2, &marks, 30);
            assert_eq!(rounds.len(), 2);
            assert!(rounds[0].back >= 1 && rounds[0].back < rounds[1].back);
            assert!(rounds[1].back <= 30);
            for r in rounds {
                let target = marks[60 - r.back];
                assert!(r.query_at >= target && r.query_at <= marks[60]);
            }
        }
    }

    #[test]
    fn farm_sessions_round_robin_and_gate_metrics() {
        let s = farm_sessions(2, 12, 4, false);
        for w in s.windows(2) {
            assert_eq!(w[1].guest, (w[0].guest + 1) % 4);
        }
        assert!(s.iter().all(|x| !x.controls.contains(&Control::Metrics)));
        let t = farm_sessions(2, 200, 4, true);
        assert!(t.iter().any(|x| x.controls.contains(&Control::Metrics)));
    }
}
