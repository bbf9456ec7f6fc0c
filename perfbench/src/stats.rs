//! Order statistics and process measurements.

use std::time::Duration;

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values`, linearly interpolated
/// between the two nearest ranks.
///
/// # Panics
/// Panics on an empty slice or a NaN value.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Rounds per sub-window of a timed window: enough for each sub-window's
/// p90 to have ten samples beyond it.
const SUB_WINDOW: usize = 100;

/// Splits consecutive round times (ms) into sub-windows of at least
/// [`SUB_WINDOW`] rounds and returns the median over sub-windows of
/// `stat`. A window shorter than two sub-windows is one sub-window.
/// Interference from other tenants of the machine arrives in bursts that
/// leave most sub-windows untouched, so the median over sub-windows
/// repeats across runs where one statistic over the whole window does not.
pub fn windowed(round_ms: &[f64], stat: impl Fn(&[f64]) -> f64) -> f64 {
    let n = (round_ms.len() / SUB_WINDOW).max(1);
    let per_window: Vec<f64> = (0..n)
        .map(|i| stat(&round_ms[i * round_ms.len() / n..(i + 1) * round_ms.len() / n]))
        .collect();
    median(&per_window)
}

/// Rounds per second over a run of consecutive round times (ms).
pub fn rate_per_s(round_ms: &[f64]) -> f64 {
    round_ms.len() as f64 / (round_ms.iter().sum::<f64>() / 1e3)
}

pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    sum / n.max(1) as f64
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[repr(C)]
struct Timespec {
    tv_sec: std::ffi::c_long,
    tv_nsec: std::ffi::c_long,
}

extern "C" {
    fn clock_gettime(clock: std::ffi::c_int, tp: *mut Timespec) -> std::ffi::c_int;
}

const CLOCK_PROCESS_CPUTIME_ID: std::ffi::c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: std::ffi::c_int = 3;

fn cpu_clock(clock: std::ffi::c_int) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` for the whole call.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU time the calling thread has run. The kernel's task clock leaves
/// out the time the thread waited for a CPU and, on a guest with
/// paravirtual steal-time accounting, the time the hypervisor ran other
/// guests on its vCPU. On a shared host those waits come and go over
/// minutes; the thread's own work does not.
pub fn thread_cpu() -> Duration {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time all threads of this process have run, as [`thread_cpu`]
/// counts it. A thread running on another CPU at the call has its
/// current slice counted at its next tick or switch, so the figure is
/// exact across an interval's sum, not to the microsecond at each end.
pub fn process_cpu() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// Peak resident set of this process in MB (`VmHWM`, Linux).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
    }

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (t0, p0) = (thread_cpu(), process_cpu());
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(thread_cpu() > t0);
        assert!(process_cpu() > p0);
        assert!(process_cpu() >= thread_cpu());
    }

    #[test]
    fn windowed_median_ignores_a_burst_in_one_sub_window() {
        let mut v = vec![1.0; 500];
        v[100..200].iter_mut().for_each(|x| *x = 9.0);
        assert_eq!(windowed(&v, |w| quantile(w, 0.9)), 1.0);
        assert_eq!(windowed(&v, rate_per_s), 1000.0);
        // Fewer than two sub-windows: one statistic over everything.
        assert_eq!(windowed(&v[..150], |w| w.len() as f64), 150.0);
    }
}
