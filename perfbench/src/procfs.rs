//! Peak memory and CPU time of a process, read from `/proc` with `std`
//! only.

use std::io;

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/<pid>/stat` (`USER_HZ`, 100 on every Linux target).
const CLOCK_TICKS_PER_SEC: f64 = 100.0;

/// Peak resident set size (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mb(pid: u32) -> io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM line"))?;
    Ok(kb / 1024.0)
}

/// Resets the peak RSS (`VmHWM`) of this process to its current RSS.
pub fn reset_self_peak_rss() -> io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// User plus system CPU time consumed so far by process `pid` (all of its
/// threads), in seconds.
pub fn cpu_seconds(pid: u32) -> io::Result<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // The command name (field 2) may contain spaces; fields after the
    // closing parenthesis start at field 3 (`state`).
    let after_name = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed stat"))?;
    let fields: Vec<&str> = after_name.split_whitespace().collect();
    // utime and stime are fields 14 and 15, i.e. indices 11 and 12 here.
    let tick = |i: usize| -> io::Result<f64> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "short stat"))
    };
    Ok((tick(11)? + tick(12)?) / CLOCK_TICKS_PER_SEC)
}

/// [`cpu_seconds`] of this process.
pub fn self_cpu_seconds() -> f64 {
    cpu_seconds(std::process::id()).unwrap_or(0.0)
}

/// [`peak_rss_mb`] of this process.
pub fn self_peak_rss_mb() -> f64 {
    peak_rss_mb(std::process::id()).unwrap_or(0.0)
}
