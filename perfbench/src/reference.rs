//! The reference kernel that every time metric is scaled by.
//!
//! On a shared host the CPU itself changes speed: another tenant on the
//! sibling hyperthread or on the memory bus slows every instruction, on a
//! 2-core x86-64 VM by as much as 70% for seconds to minutes at a time,
//! and thread CPU time slows with it. A fixed kernel owned by the
//! benchmark, timed beside the program's work, slows by about as much. So
//! each time metric is the program's CPU time scaled to a machine on
//! which this kernel takes [`REF_MS`]: `cpu_ms × REF_MS / reference_ms`.
//! The program never runs this code, so no change to the program moves
//! the kernel's time.

use crate::stats::{median, ms, thread_cpu};
use std::hint::black_box;

/// The nominal reference time, ms: close to the kernel's time on a 2-core
/// x86-64 VM, so scaled times read close to what that machine measures.
pub const REF_MS: f64 = 18.0;

/// Runs the kernel once and returns this thread's CPU time for it, ms.
/// The kernel has three parts of about equal time, each like one kind of
/// work the program does. No single part slows in step with the program
/// under every kind of interference; their sum does, to a few percent,
/// where the program's own time moves by as much as 70%.
pub fn reference_ms() -> f64 {
    let t = thread_cpu();
    black_box(matmul());
    black_box(sort());
    black_box(stream());
    ms(thread_cpu() - t)
}

/// Compute: five accumulating 96×96 f32 multiplies, scalar indexed loops.
fn matmul() -> f32 {
    const N: usize = 96;
    let a: Vec<f32> = (0..N * N).map(|i| (i % 17) as f32 * 0.01).collect();
    let b: Vec<f32> = (0..N * N).map(|i| (i % 13) as f32 * 0.02).collect();
    let mut c = vec![0f32; N * N];
    for _ in 0..5 {
        for i in 0..N {
            for k in 0..N {
                let aik = a[i * N + k];
                for j in 0..N {
                    c[i * N + j] += aik * b[k * N + j];
                }
            }
        }
    }
    black_box(&c)[N + 1]
}

/// Branches and cache: sorting 200 000 xorshift keys (800 KB) in a fresh
/// buffer.
fn sort() -> u32 {
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    let mut keys: Vec<u32> = (0..200_000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u32
        })
        .collect();
    keys.sort_unstable();
    black_box(&keys)[1000]
}

/// Bandwidth: 25 vectorisable passes over a fresh 1 MB f32 buffer.
fn stream() -> f32 {
    let a: Vec<f32> = (0..262_144).map(|i| (i % 7) as f32).collect();
    let mut sum = 0f32;
    for _ in 0..25 {
        sum += black_box(&a).iter().map(|x| x * 1.5).sum::<f32>();
    }
    sum
}

/// `refs` smoothed by a centred running median over five samples: a
/// single run of the kernel is noisy, the machine's speed changes over
/// seconds.
pub fn smooth(refs: &[f64]) -> Vec<f64> {
    (0..refs.len())
        .map(|i| median(&refs[i.saturating_sub(2)..(i + 3).min(refs.len())]))
        .collect()
}

/// `cpu_ms` scaled to the reference speed, given the kernel's time
/// measured beside it.
pub fn scaled(cpu_ms: f64, ref_ms: f64) -> f64 {
    cpu_ms * REF_MS / ref_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_timed() {
        assert_eq!(matmul(), matmul());
        assert_eq!(sort(), sort());
        assert_eq!(stream(), stream());
        assert!(reference_ms() > 0.0);
    }

    #[test]
    fn smoothing_drops_a_lone_outlier_and_keeps_a_step() {
        assert_eq!(smooth(&[1.0, 1.0, 9.0, 1.0, 1.0]), vec![1.0; 5]);
        assert_eq!(
            smooth(&[1.0, 1.0, 1.0, 2.0, 2.0, 2.0]),
            vec![1.0, 1.0, 1.0, 2.0, 2.0, 2.0]
        );
        assert_eq!(scaled(3.0, 2.0 * REF_MS), 1.5);
    }
}
