//! The per-layer figures of a traced run. Every workload reports the same
//! set; a layer a workload never enters reads 0 there.

use crate::report::Report;

/// Round-message envelope kinds reported as `transport.bytes.<dir>.<frame>`.
pub const ROUND_MSGS: [(&str, &str); 4] = [
    ("down", "invite"),
    ("down", "grant"),
    ("up", "offer"),
    ("up", "upload"),
];

/// Per-round means unless noted.
#[derive(Debug, Default)]
pub struct Layers {
    /// Test accuracy and loss after the run (not per round).
    pub final_accuracy: f64,
    pub final_loss: f64,
    /// Mean modeled round time of the traced rounds, seconds (paper TT).
    pub modeled_round_s: f64,
    /// Dataset generation done by one set-up, in total.
    pub data_generate_ms: f64,
    pub draw_us: f64,
    pub rebalance_us: f64,
    /// Kept over invited uploads, summed over the traced rounds.
    pub kept_ratio: f64,
    pub train_ms: f64,
    pub samples_per_s: f64,
    pub encode_ms: f64,
    pub decode_ms: f64,
    /// Over the whole run.
    pub decode_errors: f64,
    pub broadcast_us: f64,
    pub fold_ms: f64,
    pub topk_ms: f64,
    pub apply_ms: f64,
    pub changed_positions: f64,
    pub unattributed_ms: f64,
    pub handle_invite_ms: f64,
    pub encode_granted_ms: f64,
    pub wait_ms: f64,
    /// kB per round, in [`ROUND_MSGS`] order.
    pub transport_kb: [f64; ROUND_MSGS.len()],
    pub socket_down_mb: f64,
    pub socket_up_mb: f64,
    /// Counts over the whole socket session.
    pub offers_granted: f64,
    pub deadlines_expired: f64,
    pub uploads_skipped: f64,
    pub clients_killed: f64,
    pub failed_upload_ratio: f64,
    pub untraced_p50_ms: f64,
    pub traced_p50_ms: f64,
    pub coverage: f64,
}

impl Layers {
    pub fn report(&self, r: &mut Report) {
        r.metric("final_accuracy", self.final_accuracy, "1");
        r.metric("final_loss", self.final_loss, "1");
        r.metric("modeled_round_s", self.modeled_round_s, "s");
        r.metric("data.generate_ms", self.data_generate_ms, "ms");
        r.metric("sampling.draw_us", self.draw_us, "us");
        r.metric("sampling.rebalance_us", self.rebalance_us, "us");
        r.metric("sampling.kept_ratio", self.kept_ratio, "1");
        r.metric("ml.train_ms", self.train_ms, "ms");
        r.metric("ml.samples_per_s", self.samples_per_s, "1/s");
        r.metric("compress.encode_ms", self.encode_ms, "ms");
        r.metric("wire.decode_ms", self.decode_ms, "ms");
        r.metric("wire.decode_errors", self.decode_errors, "count");
        r.metric("core.broadcast_us", self.broadcast_us, "us");
        r.metric("core.fold_ms", self.fold_ms, "ms");
        r.metric("core.topk_ms", self.topk_ms, "ms");
        r.metric("core.apply_ms", self.apply_ms, "ms");
        r.metric("core.changed_positions", self.changed_positions, "count");
        r.metric("core.unattributed_ms", self.unattributed_ms, "ms");
        r.metric("client.handle_invite_ms", self.handle_invite_ms, "ms");
        r.metric("client.encode_granted_ms", self.encode_granted_ms, "ms");
        r.metric("client.wait_ms", self.wait_ms, "ms");
        for ((dir, frame), kb) in ROUND_MSGS.iter().zip(self.transport_kb) {
            r.metric(format!("transport.bytes.{dir}.{frame}"), kb, "kB/round");
        }
        r.metric(
            "transport.socket_down_mb_per_round",
            self.socket_down_mb,
            "MB",
        );
        r.metric("transport.socket_up_mb_per_round", self.socket_up_mb, "MB");
        r.metric("transport.offers_granted", self.offers_granted, "count");
        r.metric(
            "transport.deadlines_expired",
            self.deadlines_expired,
            "count",
        );
        r.metric("transport.uploads_skipped", self.uploads_skipped, "count");
        r.metric("transport.clients_killed", self.clients_killed, "count");
        r.metric("failed_upload_ratio", self.failed_upload_ratio, "1");
        r.metric("trace.untraced_round_ms.p50", self.untraced_p50_ms, "ms");
        r.metric("trace.traced_round_ms.p50", self.traced_p50_ms, "ms");
        r.metric(
            "trace.overhead_ratio",
            self.traced_p50_ms / self.untraced_p50_ms,
            "1",
        );
        r.metric("trace.coverage", self.coverage, "1");
    }
}
