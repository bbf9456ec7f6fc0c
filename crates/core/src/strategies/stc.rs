//! STC: top-`q` masking on clients and server (Sattler et al. 2019).

use super::{FoldAcc, Group, RoundPlan, Strategy, Upload};
use crate::aggregate::{accumulate_into, accumulate_uploads};
use crate::scratch::ScratchPool;
use gluefl_compress::stc::keep_count;
use gluefl_sampling::{ClientId, OnlineQuery, UniformSampler};
use gluefl_tensor::{top_k_abs_masked_into, BitMask, MaskedUpdate, TopKScope};
use rand::rngs::StdRng;

/// The masking-only STC of Algorithm 1: clients upload `top_q(Δ_i)` (with
/// classic error feedback), the server aggregates with `(N/K)p_i` weights
/// and re-masks the aggregate with another `top_q`, so only `q·d`
/// positions change per round. The client half (top-`q` with error
/// feedback and optional ternary quantization) is
/// [`crate::codec::ClientCodec`].
#[derive(Debug)]
pub struct StcStrategy {
    sampler: UniformSampler,
    k: usize,
    oc: f64,
    weights: Vec<f64>,
    q: f64,
    /// Number of trainable positions (ratio base).
    trainable: usize,
    dim: usize,
    /// Positions strategies must not select (BN statistics).
    stats_excluded: BitMask,
    /// Clients ternary-quantize their uploads (footnote 1).
    quantize: bool,
}

impl StcStrategy {
    /// Creates the strategy. `stats_excluded` marks positions that may
    /// never enter a mask (BN statistics).
    #[allow(clippy::too_many_arguments)]
    #[must_use]
    pub fn new(
        n: usize,
        k: usize,
        oc: f64,
        weights: Vec<f64>,
        q: f64,
        trainable: usize,
        dim: usize,
        stats_excluded: BitMask,
    ) -> Self {
        assert_eq!(weights.len(), n, "weights length must equal population");
        assert!((0.0..=1.0).contains(&q), "q must be in [0,1]");
        Self {
            sampler: UniformSampler::new(n),
            k,
            oc,
            weights,
            q,
            trainable,
            dim,
            stats_excluded,
            quantize: false,
        }
    }

    /// Marks uploads as ternary-quantized: every kept value is sent as
    /// `sign·μ` (one bit each plus one shared magnitude). Only the
    /// display name changes here; the clients' codec quantizes.
    #[must_use]
    pub fn with_quantization(mut self) -> Self {
        self.quantize = true;
        self
    }

    /// The configured mask ratio `q`.
    #[must_use]
    pub fn q(&self) -> f64 {
        self.q
    }
}

impl Strategy for StcStrategy {
    fn name(&self) -> String {
        if self.quantize {
            "stc-quant".into()
        } else {
            "stc".into()
        }
    }

    fn plan_round(
        &mut self,
        _round: u32,
        rng: &mut StdRng,
        online: &mut dyn OnlineQuery,
    ) -> RoundPlan {
        let invites = (self.k as f64 * self.oc).round() as usize;
        RoundPlan {
            sticky_invites: Vec::new(),
            fresh_invites: self.sampler.draw(rng, invites, online),
            keep_sticky: 0,
            keep_fresh: self.k,
        }
    }

    fn client_weight(&self, id: ClientId, _group: Group) -> f64 {
        self.sampler.population() as f64 / self.k as f64 * self.weights[id]
    }

    fn mask_download_bytes(&self, _round: u32) -> u64 {
        0
    }

    fn aggregate(
        &mut self,
        _round: u32,
        kept: &[(ClientId, Group, Upload)],
        scratch: &mut ScratchPool,
    ) -> MaskedUpdate {
        let entries: Vec<(f32, &Upload)> = kept
            .iter()
            .map(|(id, group, upload)| (self.client_weight(*id, *group) as f32, upload))
            .collect();
        let acc = accumulate_uploads(&entries, self.dim, scratch);
        // Server-side masking (Algorithm 1 line 17): the update *is* the
        // top q of the aggregate, so the mask/packed-values layout is
        // emitted directly — no dense re-materialisation.
        let mut mask = scratch.take_mask(self.dim);
        let mut values = scratch.take_cleared();
        let k = keep_count(self.trainable, self.q);
        let idx = top_k_abs_masked_into(
            &acc,
            k,
            TopKScope::Outside(&self.stats_excluded),
            &mut scratch.topk,
        );
        // `idx` is strictly increasing, so pushes land in mask-bit order.
        for &i in idx {
            mask.set(i, true);
            values.push(acc[i]);
        }
        scratch.put(acc);
        MaskedUpdate::new(mask, values)
    }

    fn fold_begin(&mut self, _round: u32, scratch: &mut ScratchPool) -> FoldAcc {
        FoldAcc {
            dense: Some(scratch.take_zeroed(self.dim)),
            packed: None,
            indices: None,
            count: 0,
        }
    }

    fn fold_upload(
        &mut self,
        _round: u32,
        acc: &mut FoldAcc,
        id: ClientId,
        group: Group,
        upload: &Upload,
        _scratch: &mut ScratchPool,
    ) {
        let w = self.client_weight(id, group) as f32;
        let dense = acc
            .dense
            .as_mut()
            .expect("fold_begin allocates the accumulator");
        accumulate_into(&[(w, upload)], dense);
        acc.count += 1;
    }

    fn fold_finish(
        &mut self,
        _round: u32,
        acc: FoldAcc,
        scratch: &mut ScratchPool,
    ) -> MaskedUpdate {
        let acc = acc.dense.expect("fold_begin allocates the accumulator");
        // Identical finishing step to `aggregate`: server-side top-q
        // re-masking over the streamed partial sum.
        let mut mask = scratch.take_mask(self.dim);
        let mut values = scratch.take_cleared();
        let k = keep_count(self.trainable, self.q);
        let idx = top_k_abs_masked_into(
            &acc,
            k,
            TopKScope::Outside(&self.stats_excluded),
            &mut scratch.topk,
        );
        for &i in idx {
            mask.set(i, true);
            values.push(acc[i]);
        }
        scratch.put(acc);
        MaskedUpdate::new(mask, values)
    }

    fn finish_round(&mut self, _round: u32, _rng: &mut StdRng, _s: &[ClientId], _f: &[ClientId]) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::ClientCodec;
    use crate::config::StrategyConfig;
    use gluefl_tensor::SparseUpdate;
    use rand::SeedableRng;

    fn strategy(q: f64) -> StcStrategy {
        StcStrategy::new(10, 3, 1.0, vec![0.1; 10], q, 8, 8, BitMask::zeros(8))
    }

    /// The client codec of STC with ratio `q` (ternary when `quantize`)
    /// over `dim` positions, all trainable except `excluded`.
    fn codec(q: f64, quantize: bool, dim: usize, excluded: BitMask) -> ClientCodec {
        let stc = if quantize {
            StrategyConfig::StcQuantized { q }
        } else {
            StrategyConfig::Stc { q }
        };
        let trainable = dim - excluded.count_ones();
        ClientCodec::new(&stc, 3, &[0.1; 10], trainable, dim, excluded)
    }

    #[test]
    fn upload_is_top_q_sparse() {
        let mut s = codec(0.25, false, 8, BitMask::zeros(8));
        let mut delta = vec![0.1f32, -9.0, 0.2, 8.0, 0.0, 0.0, 0.0, 0.0];
        let mut pool = ScratchPool::new();
        let up = s.compress(0, 0, Group::Fresh, &mut delta, None, &mut pool);
        match up {
            Upload::Sparse(u) => {
                assert_eq!(u.indices(), &[1, 3]);
            }
            other => panic!("expected sparse upload, got {other:?}"),
        }
    }

    #[test]
    fn error_feedback_carries_residual() {
        let mut s = codec(0.25, false, 8, BitMask::zeros(8));
        // Round 1: client 5 sends top-2 of [4,3,2,1,...]; residual = rest.
        let mut d1 = vec![4.0f32, 3.0, 2.0, 1.0, 0.0, 0.0, 0.0, 0.0];
        let mut pool = ScratchPool::new();
        let _ = s.compress(0, 5, Group::Fresh, &mut d1, None, &mut pool);
        // Round 2: zero fresh delta; compensation resurrects the residual,
        // so the upload now contains the previously-dropped coordinates.
        let mut d2 = vec![0.0f32; 8];
        let up = s.compress(1, 5, Group::Fresh, &mut d2, None, &mut pool);
        match up {
            Upload::Sparse(u) => {
                assert_eq!(u.indices(), &[2, 3]);
                assert_eq!(u.values(), &[2.0, 1.0]);
            }
            other => panic!("expected sparse upload, got {other:?}"),
        }
    }

    #[test]
    fn aggregate_is_server_masked() {
        let mut s = strategy(0.25);
        // Two clients agree on positions 0, 7; noise elsewhere.
        let mk = |vals: Vec<(u32, f32)>| Upload::Sparse(SparseUpdate::from_pairs(8, vals));
        let kept = vec![
            (0usize, Group::Fresh, mk(vec![(0, 5.0), (6, 0.1)])),
            (1usize, Group::Fresh, mk(vec![(0, 5.0), (7, 6.0)])),
        ];
        let mut pool = ScratchPool::new();
        let agg = s.aggregate(0, &kept, &mut pool);
        // top 25% of 8 = 2 positions survive: 0 (sum 10·w) and 7 (6·w).
        let mut nonzero = Vec::new();
        agg.for_each_nonzero(|i, _| nonzero.push(i));
        assert_eq!(nonzero, vec![0, 7]);
    }

    #[test]
    fn changed_positions_bounded_by_q() {
        let mut s = strategy(0.25);
        let kept: Vec<(ClientId, Group, Upload)> = (0..3)
            .map(|i| {
                let vals: Vec<(u32, f32)> = (0..8)
                    .map(|j| (j as u32, (i + 1) as f32 * (j as f32 - 3.5)))
                    .collect();
                (
                    i,
                    Group::Fresh,
                    Upload::Sparse(SparseUpdate::from_pairs(8, vals)),
                )
            })
            .collect();
        let mut pool = ScratchPool::new();
        let agg = s.aggregate(0, &kept, &mut pool);
        assert!(agg.nnz() <= 2, "mask covers {} > q·d = 2", agg.nnz());
        let mut changed = 0usize;
        agg.for_each_nonzero(|_, _| changed += 1);
        assert!(changed <= 2, "changed {changed} exceeds q·d = 2");
    }

    #[test]
    fn stats_positions_never_selected() {
        let mut excluded = BitMask::zeros(8);
        excluded.set(0, true); // pretend position 0 is a BN statistic
        let mut s = codec(0.25, false, 8, excluded);
        let mut delta = vec![100.0f32, 1.0, 2.0, 3.0, 0.0, 0.0, 0.0, 0.0];
        let mut pool = ScratchPool::new();
        let up = s.compress(0, 0, Group::Fresh, &mut delta, None, &mut pool);
        match up {
            Upload::Sparse(u) => {
                assert!(!u.indices().contains(&0), "selected excluded position");
            }
            other => panic!("expected sparse upload, got {other:?}"),
        }
    }

    #[test]
    fn quantized_upload_costs_fewer_bytes() {
        let mut plain = codec(0.5, false, 8, BitMask::zeros(8));
        let mut quant = codec(0.5, true, 8, BitMask::zeros(8));
        let delta = vec![4.0f32, -3.0, 2.0, -1.0, 0.5, 0.25, 0.1, 0.05];
        let mut pool = ScratchPool::new();
        let up_plain = plain.compress(0, 0, Group::Fresh, &mut delta.clone(), None, &mut pool);
        let up_quant = quant.compress(0, 0, Group::Fresh, &mut delta.clone(), None, &mut pool);
        assert!(up_quant.bytes() < up_plain.bytes());
    }

    #[test]
    fn quantized_upload_preserves_signs_and_support() {
        let mut s = codec(0.5, true, 8, BitMask::zeros(8));
        let mut delta = vec![4.0f32, -3.0, 2.0, -1.0, 0.0, 0.0, 0.0, 0.0];
        let mut pool = ScratchPool::new();
        let up = s.compress(0, 0, Group::Fresh, &mut delta, None, &mut pool);
        match up {
            Upload::Ternary(t) => {
                let back = t.dequantize();
                assert_eq!(back.indices(), &[0, 1, 2, 3]);
                assert!(back.values()[0] > 0.0 && back.values()[1] < 0.0);
                // μ = mean(4, 3, 2, 1) = 2.5.
                assert!((t.mu - 2.5).abs() < 1e-6);
            }
            other => panic!("expected ternary upload, got {other:?}"),
        }
    }

    #[test]
    fn quantization_error_is_carried_by_feedback() {
        let mut s = codec(1.0, true, 4, BitMask::zeros(4));
        // q = 1: everything is kept, only quantization loses information.
        let mut d1 = vec![4.0f32, 2.0, 0.0, 0.0];
        let mut pool = ScratchPool::new();
        let _ = s.compress(0, 7, Group::Fresh, &mut d1, None, &mut pool);
        // Sent sign·μ = ±3: residuals are (1, −1, 0, 0).
        let mut d2 = vec![0.0f32; 4];
        let up = s.compress(1, 7, Group::Fresh, &mut d2, None, &mut pool);
        match up {
            Upload::Ternary(t) => {
                let back = t.dequantize();
                // Residual (1, −1) quantizes to signs (+, −) with μ ≈ ...
                assert!(back.values().iter().any(|v| *v > 0.0));
                assert!(back.values().iter().any(|v| *v < 0.0));
            }
            other => panic!("expected ternary upload, got {other:?}"),
        }
    }

    #[test]
    fn plan_is_uniform_without_stickiness() {
        let mut s = strategy(0.2);
        let mut rng = StdRng::seed_from_u64(1);
        let plan = s.plan_round(0, &mut rng, &mut gluefl_sampling::AllOnline);
        assert!(plan.sticky_invites.is_empty());
        assert_eq!(plan.fresh_invites.len(), 3);
    }
}
