//! Measurement helpers: process CPU time, peak resident memory, summary
//! statistics, and the check that per-layer times add up to a total.

use std::time::Instant;

/// Seconds since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

#[repr(C)]
struct Timespec {
    tv_sec: std::os::raw::c_long,
    tv_nsec: std::os::raw::c_long,
}

extern "C" {
    fn clock_gettime(clock: std::os::raw::c_int, tp: *mut Timespec) -> std::os::raw::c_int;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: std::os::raw::c_int = 2;

/// CPU seconds consumed by this process so far, summed over all of its
/// threads, including threads that have already exited.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` with the C
    // layout, and the clock id is a valid constant on Linux; the call
    // writes only into `ts`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// The `VmHWM` (peak resident set) line of a `/proc/<pid>/status`
/// document, in MiB.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kb: f64 = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(kb / 1024.0)
}

/// Peak resident memory of this process so far, in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    parse_vm_hwm_mb(&status).ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Median of `xs` (mean of the middle pair for an even count); 0 for
/// an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Geometric mean of positive values; 0 for an empty slice.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    assert!(
        xs.iter().all(|&x| x > 0.0),
        "geometric mean of non-positive values"
    );
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Tolerance for [`reconcile`]: the parts may exceed the total by at
/// most `slack_s` (clock granularity), and may fall short of it by at
/// most `max_share` of the total plus `slack_s`.
#[derive(Clone, Copy, Debug)]
pub struct Tolerance {
    pub max_share: f64,
    pub slack_s: f64,
}

/// Check that `parts` add up to `total` within `tol`, returning the
/// remainder `total - sum(parts)` (the time no part accounts for).
pub fn reconcile(what: &str, parts: &[f64], total: f64, tol: Tolerance) -> Result<f64, String> {
    let rest = total - parts.iter().sum::<f64>();
    if rest < -tol.slack_s {
        return Err(format!(
            "{what}: parts exceed the total {total:.6}s by {:.6}s",
            -rest
        ));
    }
    if rest > tol.max_share * total + tol.slack_s {
        return Err(format!(
            "{what}: {rest:.6}s of {total:.6}s ({:.1}%) is not accounted for (limit {:.1}%)",
            100.0 * rest / total,
            100.0 * tol.max_share
        ));
    }
    Ok(rest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_known_values() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 10.0, 100.0]) - 10.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-positive")]
    fn geomean_rejects_zero() {
        geomean(&[1.0, 0.0]);
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn cpu_time_grows_with_work() {
        let c0 = process_cpu_s();
        let t0 = Instant::now();
        let mut x = 0u64;
        while secs(t0) < 0.05 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let used = process_cpu_s() - c0;
        assert!(used > 0.02, "50 ms of spinning used only {used}s of CPU");
        assert!(used < 5.0);
    }

    #[test]
    fn cpu_time_counts_other_threads() {
        let c0 = process_cpu_s();
        std::thread::spawn(|| {
            let t0 = Instant::now();
            let mut x = 0u64;
            while secs(t0) < 0.05 {
                x = std::hint::black_box(x.wrapping_add(1));
            }
        })
        .join()
        .expect("spinning thread panicked");
        assert!(process_cpu_s() - c0 > 0.02);
    }

    #[test]
    fn vm_hwm_parsing() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(2.0));
        assert_eq!(parse_vm_hwm_mb("VmRSS:\t1024 kB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t12 MB\n"), None);
    }

    #[test]
    fn peak_rss_grows_with_allocation() {
        let before = peak_rss_mb().expect("peak rss");
        assert!(before > 0.0);
        let block = vec![1u8; 64 << 20];
        std::hint::black_box(&block);
        let after = peak_rss_mb().expect("peak rss");
        assert!(after >= before + 32.0, "{before} -> {after} MiB");
    }

    #[test]
    fn reconcile_reports_remainder() {
        let tol = Tolerance {
            max_share: 0.05,
            slack_s: 1e-3,
        };
        let rest = reconcile("t", &[1.0, 2.0], 3.1, tol).expect("within 5%");
        assert!((rest - 0.1).abs() < 1e-12);
        // slightly over the total, inside the clock slack
        assert!(reconcile("t", &[1.0, 2.0005], 3.0, tol).is_ok());
        // over the total by more than the slack: double counting
        assert!(reconcile("t", &[1.0, 2.5], 3.0, tol).is_err());
        // too much unaccounted time
        assert!(reconcile("t", &[1.0, 1.0], 3.0, tol).is_err());
    }
}
