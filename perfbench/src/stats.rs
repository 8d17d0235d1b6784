//! Process measurements (CPU time, peak RSS, host cores) and the summary
//! statistics the benchmark reports.

/// Whole-process CPU seconds (user + system over every thread, including
/// threads that have already exited) from `/proc/self/stat`. Resolution is
/// one clock tick (10 ms on Linux).
pub fn process_cpu_secs() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    // The command name is parenthesized and may contain spaces; utime and
    // stime are the 12th and 13th fields after it.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed /proc/self/stat")?;
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick = || -> Result<f64, String> {
        fields
            .next()
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    let (utime, stime) = (tick()?, tick()?);
    const USER_HZ: f64 = 100.0;
    Ok((utime + stime) / USER_HZ)
}

/// Peak resident set size of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Median of `values` (mean of the middle pair for even counts); NaN when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `max - min` of `values`; 0 when empty.
pub fn range(values: &[f64]) -> f64 {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if values.is_empty() {
        0.0
    } else {
        hi - lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn range_of_values() {
        assert_eq!(range(&[0.5, 0.25, 1.0]), 0.75);
        assert_eq!(range(&[]), 0.0);
    }

    #[test]
    fn proc_readers_parse() {
        assert!(process_cpu_secs().expect("procfs") >= 0.0);
        assert!(peak_rss_mb().expect("procfs") > 0.0);
    }
}
