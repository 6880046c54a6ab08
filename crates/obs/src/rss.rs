//! Peak RSS for the bench harness, from the kernel's own high-water mark.
//!
//! Linux reports a process's peak resident set in `/proc/self/status`
//! (`VmHWM`) and resets it to the current resident set when `5` is written
//! to `/proc/self/clear_refs`. A measurement window is therefore one reset
//! at its start ([`reset_peak_rss`]) and one read at its end
//! ([`lifetime_peak_rss_bytes`]). The kernel raises the mark before it
//! lowers the resident set, so memory allocated and freed inside the
//! window — on any thread, between any two reads — still counts.
//!
//! On platforms without procfs the reset fails and the read returns
//! `None`; callers surface that as `peak_rss_bytes: 0` rather than
//! failing.

/// Reads one field of `/proc/self/status` given its `Vm*:` label, in
/// bytes. The file reports kB.
#[cfg(target_os = "linux")]
fn proc_status_bytes(label: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        let Some(rest) = line.strip_prefix(label) else { continue };
        let rest = rest.strip_prefix(':')?;
        let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
        return Some(kb * 1024);
    }
    None
}

/// Peak RSS in bytes (`VmHWM`) since process start or the last
/// [`reset_peak_rss`], if the platform exposes it.
pub fn lifetime_peak_rss_bytes() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        proc_status_bytes("VmHWM")
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Resets the kernel's peak-RSS mark to the current resident set (writes
/// `5` to `/proc/self/clear_refs`) and returns whether that succeeded.
///
/// The mark is process-wide: a reset moves the peak every thread and
/// every other reader of [`lifetime_peak_rss_bytes`] sees. Only the bench
/// harness, which owns its process's measurement windows, calls this;
/// profiling, serving and library code never do, so a process that reads
/// the mark once for its whole run gets its true lifetime peak.
pub fn reset_peak_rss() -> bool {
    #[cfg(target_os = "linux")]
    {
        std::fs::write("/proc/self/clear_refs", "5").is_ok()
    }
    #[cfg(not(target_os = "linux"))]
    {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BLOCK: usize = 64 << 20;

    /// Allocates, touches and frees `BLOCK` bytes on a joined thread, so
    /// the block is gone again before the caller reads the mark.
    fn touch_block_on_a_thread() {
        std::thread::spawn(|| {
            let block = vec![1u8; BLOCK];
            std::hint::black_box(&block);
        })
        .join()
        .expect("ballast thread");
    }

    #[test]
    fn a_window_peak_covers_a_block_freed_inside_it() {
        if !cfg!(target_os = "linux") {
            assert!(!reset_peak_rss());
            assert_eq!(lifetime_peak_rss_bytes(), None);
            return;
        }
        // Raise the mark first, so a reset that did nothing would leave the
        // window's starting mark a full block high.
        touch_block_on_a_thread();
        assert!(reset_peak_rss(), "clear_refs is writable by the process itself");
        let start = lifetime_peak_rss_bytes().expect("VmHWM");
        touch_block_on_a_thread();
        let peak = lifetime_peak_rss_bytes().expect("VmHWM");
        assert!(peak >= start + BLOCK as u64 / 2, "start={start} peak={peak}");
    }
}
