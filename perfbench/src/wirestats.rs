//! Deltas of the process-wide `gluefl_wire::stats` counters.

use crate::report::Report;
use gluefl_wire::stats::{self, FrameCount};

/// The `(kind, codec)` rows reported as `wire.frames_encoded.<kind>.<codec>`:
/// every row the three workloads encode. Any other row lands in
/// `wire.frames_encoded.other`, so nothing goes uncounted.
const FRAME_ROWS: [(&str, &str); 7] = [
    ("dense", "f32"),
    ("mask", "f32"),
    ("sparse_bitmap", "f32"),
    ("known_mask", "f32"),
    ("sparse_delta", "quant_u8"),
    ("sparse_bitmap", "quant_u8"),
    ("known_mask", "quant_u8"),
];

pub struct WireSnap {
    encoded: Vec<FrameCount>,
    pub decode_errors: u64,
}

impl WireSnap {
    pub fn take() -> Self {
        Self {
            encoded: stats::encoded_frames(),
            decode_errors: stats::decode_errors().iter().map(|&(_, n)| n).sum(),
        }
    }

    /// Decode errors recorded since `self`.
    pub fn decode_errors_since(&self) -> u64 {
        Self::take().decode_errors - self.decode_errors
    }

    /// Reports the frames encoded between `self` and `later`, per round
    /// over `rounds`.
    pub fn report_frames(&self, later: &WireSnap, rounds: u32, report: &mut Report) {
        let before = |f: &FrameCount| {
            self.encoded
                .iter()
                .find(|b| b.kind == f.kind && b.codec == f.codec)
                .map_or(0, |b| b.count)
        };
        let mut rows = vec![0u64; FRAME_ROWS.len()];
        let mut other = 0u64;
        for f in &later.encoded {
            let delta = f.count - before(f);
            match FRAME_ROWS
                .iter()
                .position(|&(k, c)| k == f.kind.name() && c == f.codec.name())
            {
                Some(i) => rows[i] += delta,
                None => other += delta,
            }
        }
        let per_round = |n: u64| n as f64 / f64::from(rounds.max(1));
        for (&(kind, codec), &n) in FRAME_ROWS.iter().zip(&rows) {
            report.metric(
                format!("wire.frames_encoded.{kind}.{codec}"),
                per_round(n),
                "count/round",
            );
        }
        report.metric("wire.frames_encoded.other", per_round(other), "count/round");
    }
}
