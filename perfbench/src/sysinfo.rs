//! Process and host counters read from procfs (Linux): memory high-water mark,
//! process CPU time, and host steal time — the noise diagnostics of a run record.

/// Clock ticks per second of `/proc` CPU counters (`USER_HZ`, 100 on Linux).
const USER_HZ: f64 = 100.0;

const MIB: f64 = 1024.0 * 1024.0;

fn status_kib(field: &str) -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    text.lines().find_map(|l| {
        let rest = l.strip_prefix(field)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse::<f64>().ok()
    })
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    status_kib("VmHWM").map(|kib| kib * 1024.0 / MIB)
}

/// Current resident set size (`VmRSS`), in MiB.
pub fn rss_mb() -> Option<f64> {
    status_kib("VmRSS").map(|kib| kib * 1024.0 / MIB)
}

/// `/proc/self/stat` fields `first` and `first + 1` (1-based, as in proc(5)),
/// summed and converted from ticks to seconds.
fn stat_cpu_pair(first: usize) -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may contain spaces; fields resume after its ')',
    // so field k of the line is index k - 3 of the rest.
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let a: f64 = fields.get(first - 3)?.parse().ok()?;
    let b: f64 = fields.get(first - 2)?.parse().ok()?;
    Some((a + b) / USER_HZ)
}

/// User + system CPU seconds consumed by this process so far, all threads
/// (`utime` + `stime`).
pub fn process_cpu_s() -> Option<f64> {
    stat_cpu_pair(14)
}

/// User + system CPU seconds of this process's reaped children (`cutime` +
/// `cstime`).
pub fn children_cpu_s() -> Option<f64> {
    stat_cpu_pair(16)
}

/// Host-wide CPU steal seconds so far (summed over CPUs): time this VM was ready to
/// run but the hypervisor ran someone else.
pub fn host_steal_s() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = text.lines().find(|l| l.starts_with("cpu "))?;
    // cpu user nice system idle iowait irq softirq steal ...
    let steal: f64 = cpu.split_whitespace().nth(8)?.parse().ok()?;
    Some(steal / USER_HZ)
}
