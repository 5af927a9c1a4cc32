//! A counting wrapper around any `rdbg::Link`: the wire layer measured
//! from outside, without touching `rdbg`.
//!
//! A *pump* is one `Link::pump` call — one simulated slice on a
//! `UartLink`, one socket wait of at most 2 ms on a `TcpLink`. An *empty*
//! pump returned no bytes: time the debugger spent waiting. More than one
//! `send` per command means acks, naks or retransmissions.

use crate::report::Results;
use std::time::Instant;

/// Cumulative wire counters. Subtract two snapshots for one command.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WireCounters {
    pub sends: u64,
    pub pumps: u64,
    pub empty_pumps: u64,
    pub pump_ns: u64,
}

impl WireCounters {
    /// Field-wise difference since an earlier snapshot.
    pub fn since(&self, earlier: &WireCounters) -> WireCounters {
        WireCounters {
            sends: self.sends - earlier.sends,
            pumps: self.pumps - earlier.pumps,
            empty_pumps: self.empty_pumps - earlier.empty_pumps,
            pump_ns: self.pump_ns - earlier.pump_ns,
        }
    }

    /// Field-wise sum.
    pub fn add(&mut self, other: &WireCounters) {
        self.sends += other.sends;
        self.pumps += other.pumps;
        self.empty_pumps += other.empty_pumps;
        self.pump_ns += other.pump_ns;
    }
}

/// The wrapped link plus its counters.
#[derive(Debug)]
pub struct CountingLink<L> {
    pub inner: L,
    pub counters: WireCounters,
}

impl<L> CountingLink<L> {
    pub fn new(inner: L) -> CountingLink<L> {
        CountingLink {
            inner,
            counters: WireCounters::default(),
        }
    }
}

impl<L: rdbg::Link> rdbg::Link for CountingLink<L> {
    fn send(&mut self, bytes: &[u8]) {
        self.counters.sends += 1;
        self.inner.send(bytes);
    }

    fn pump(&mut self) -> Vec<u8> {
        let t = Instant::now();
        let out = self.inner.pump();
        self.counters.pump_ns += t.elapsed().as_nanos() as u64;
        self.counters.pumps += 1;
        if out.is_empty() {
            self.counters.empty_pumps += 1;
        }
        out
    }
}

/// Publishes the `rdbg.*.<link>` ratios of `cmds` commands' counters.
pub fn report(out: &mut Results, link: &str, w: &WireCounters, cmds: usize) {
    let per = |x: u64, base: u64| x as f64 / base.max(1) as f64;
    let n = cmds as u64;
    out.set(format!("rdbg.sends_per_cmd.{link}"), per(w.sends, n), cmds);
    out.set(format!("rdbg.pumps_per_cmd.{link}"), per(w.pumps, n), cmds);
    out.set(
        format!("rdbg.empty_pump_ratio.{link}"),
        per(w.empty_pumps, w.pumps),
        cmds,
    );
    out.set(
        format!("rdbg.pump_us.{link}"),
        per(w.pump_ns, w.pumps) / 1e3,
        cmds,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// Answers each send with the same bytes after one empty pump.
    struct Echo {
        queue: VecDeque<Vec<u8>>,
        turn: bool,
    }

    impl rdbg::Link for Echo {
        fn send(&mut self, bytes: &[u8]) {
            self.queue.push_back(bytes.to_vec());
        }
        fn pump(&mut self) -> Vec<u8> {
            self.turn = !self.turn;
            if self.turn {
                Vec::new()
            } else {
                self.queue.pop_front().unwrap_or_default()
            }
        }
    }

    #[test]
    fn counts_sends_pumps_and_empty_pumps() {
        use rdbg::Link;
        let mut l = CountingLink::new(Echo {
            queue: VecDeque::new(),
            turn: false,
        });
        l.send(b"abc");
        let before = l.counters;
        assert!(l.pump().is_empty());
        assert_eq!(l.pump(), b"abc".to_vec());
        let d = l.counters.since(&before);
        assert_eq!((d.sends, d.pumps, d.empty_pumps), (0, 2, 1));
        assert_eq!(l.counters.sends, 1);
    }
}
