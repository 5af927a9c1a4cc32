//! What the benchmark reads about its own process (peak memory and the
//! number of host processors the load generator may use), and how it has
//! the allocator hand memory back.

/// `VmHWM` (peak resident set) in kibibytes, parsed from the text of
/// `/proc/<pid>/status`; `None` if the line is missing or malformed.
pub fn parse_vmhwm_kib(status: &str) -> Option<u64> {
    parse_status_kib(status, "VmHWM:")
}

/// `VmRSS` (current resident set) in kibibytes, from the same text.
pub fn parse_vmrss_kib(status: &str) -> Option<u64> {
    parse_status_kib(status, "VmRSS:")
}

fn parse_status_kib(status: &str, key: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with(key))?;
    let mut words = line[key.len()..].split_whitespace();
    let value = words.next()?.parse().ok()?;
    (words.next()? == "kB").then_some(value)
}

fn own_status() -> Option<String> {
    std::fs::read_to_string("/proc/self/status").ok()
}

/// Peak resident set of this process so far, in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    own_status()
        .as_deref()
        .and_then(parse_vmhwm_kib)
        .map(|k| k as f64 / 1024.0)
}

/// Current resident set of this process, in MiB.
pub fn rss_mb() -> Option<f64> {
    own_status()
        .as_deref()
        .and_then(parse_vmrss_kib)
        .map(|k| k as f64 / 1024.0)
}

/// Returns memory the allocator holds but no longer uses to the system,
/// so each phase's peak reflects what it keeps live, not what earlier
/// phases left fragmented.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: `malloc_trim` only walks glibc's own heaps; it has no
        // preconditions and touches no memory the program still uses.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Serves every allocation of 1 MiB or more — guest RAM and each
/// checkpoint's copy of it — from a mapping of its own, returned to the
/// system when freed. By default glibc raises this threshold when the
/// first such block is freed and serves later copies from its heaps, where
/// how much freed memory stays resident depends on thread timing: the
/// process peak then moved by whole checkpoints (24 MiB) between farms of
/// one run and between runs.
pub fn map_large_allocations() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        use std::os::raw::c_int;
        extern "C" {
            fn mallopt(param: c_int, value: c_int) -> c_int;
        }
        const M_MMAP_THRESHOLD: c_int = -3;
        // SAFETY: `mallopt` only changes glibc's allocation policy for
        // later requests; it is called before the run allocates anything
        // large.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 1 << 20);
        }
    }
}

/// Host processors available to this process (at least 1).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\tperfbench\nVmPeak:\t  912340 kB\nVmHWM:\t  401232 kB\nVmRSS:\t  123456 kB\nThreads:\t3\n";

    #[test]
    fn reads_vmhwm_and_vmrss() {
        assert_eq!(parse_vmhwm_kib(STATUS), Some(401_232));
        assert_eq!(parse_vmrss_kib(STATUS), Some(123_456));
    }

    #[test]
    fn rejects_missing_or_malformed_lines() {
        assert_eq!(parse_vmhwm_kib("Name:\tx\n"), None);
        assert_eq!(parse_vmhwm_kib("VmHWM:\tlots kB\n"), None);
        assert_eq!(parse_vmhwm_kib("VmHWM:\t12 MB\n"), None);
        assert_eq!(parse_vmhwm_kib("VmHWM:\t12\n"), None);
        // A key that merely starts the same way is not the key.
        assert_eq!(parse_vmhwm_kib("VmHWMx:\t12 kB\n"), None);
    }

    #[test]
    fn own_process_has_a_peak_at_least_its_current_size() {
        let peak = peak_rss_mb().expect("procfs available");
        let now = rss_mb().expect("procfs available");
        assert!(peak > 0.0 && peak >= now);
    }
}
