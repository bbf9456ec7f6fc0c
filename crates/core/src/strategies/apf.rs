//! APF: Adaptive Parameter Freezing as a server masking strategy
//! (Chen et al. 2021; the paper's parameter-freezing baseline).

use super::{bitmap_bytes, FoldAcc, Group, RoundPlan, Strategy, Upload};
use crate::aggregate::{accumulate_into, accumulate_weighted_values};
use crate::scratch::ScratchPool;
use gluefl_compress::{Apf, ApfConfig};
use gluefl_sampling::{ClientId, OnlineQuery, UniformSampler};
use gluefl_tensor::{BitMask, MaskedUpdate};
use rand::rngs::StdRng;

/// APF with uniform sampling: the server maintains a per-parameter freeze
/// state; each round only *active* (unfrozen) parameters are trained,
/// uploaded (values aligned to the known active mask), aggregated, and
/// synchronised. The active mask itself is broadcast as a bitmap.
///
/// Because every upload of a round is aligned to the same active mask,
/// aggregation runs entirely in the packed layout: the clients' value
/// arrays are summed contiguously and the result *is* the round's
/// [`MaskedUpdate`] — no dense `d`-sized accumulator is ever built.
#[derive(Debug)]
pub struct ApfStrategy {
    sampler: UniformSampler,
    k: usize,
    oc: f64,
    weights: Vec<f64>,
    apf: Apf,
    /// Cached copy of [`Apf::active_mask`] for the current round
    /// (refreshed after each observe, so [`Strategy::round_mask`] lends
    /// it without allocating).
    active: BitMask,
    dim: usize,
}

impl ApfStrategy {
    /// Creates the strategy over `dim` flat parameters.
    ///
    /// BN statistics need no special casing here: they receive zero
    /// "update" signal from the strategy's viewpoint and [`Apf`] never
    /// freezes a zero-signal parameter.
    #[must_use]
    pub fn new(
        n: usize,
        k: usize,
        oc: f64,
        weights: Vec<f64>,
        config: ApfConfig,
        dim: usize,
    ) -> Self {
        assert_eq!(weights.len(), n, "weights length must equal population");
        let apf = Apf::new(dim, config);
        let active = apf.active_mask();
        Self {
            sampler: UniformSampler::new(n),
            k,
            oc,
            weights,
            apf,
            active,
            dim,
        }
    }

    /// Fraction of parameters currently frozen (observability hook).
    #[must_use]
    pub fn frozen_fraction(&self) -> f64 {
        self.apf.frozen_fraction()
    }
}

impl Strategy for ApfStrategy {
    fn name(&self) -> String {
        "apf".into()
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
        // The active mask is shipped as a bitmap with each sync.
        bitmap_bytes(self.dim)
    }

    fn round_mask(&self, _round: u32) -> Option<&BitMask> {
        // The active mask: broadcast at sync time and the alignment of
        // every known-mask upload this round (aggregate() refreshes it
        // only after consuming the round's uploads).
        Some(&self.active)
    }

    fn aggregate(
        &mut self,
        _round: u32,
        kept: &[(ClientId, Group, Upload)],
        scratch: &mut ScratchPool,
    ) -> MaskedUpdate {
        // Every upload is aligned to the round's active mask, so the
        // shards accumulate straight into the packed layout (frozen
        // positions are structurally absent — nothing to re-zero).
        let active_nnz = self.active.count_ones();
        let entries: Vec<(f32, &[f32])> = kept
            .iter()
            .map(|(id, group, upload)| {
                let w = self.client_weight(*id, *group) as f32;
                match upload {
                    Upload::KnownMask(u) => {
                        assert_eq!(u.nnz(), active_nnz, "upload not aligned to the active mask");
                        (w, u.values())
                    }
                    other => panic!("APF aggregate received non-known-mask upload {other:?}"),
                }
            })
            .collect();
        let values = accumulate_weighted_values(&entries, active_nnz, scratch);
        self.apf.observe_masked(&values, &self.active);
        let mut mask = scratch.take_mask(self.dim);
        mask.copy_from(&self.active);
        // The observe above may have frozen/thawed parameters: refresh
        // the cached mask for the next round's uploads.
        self.apf.fill_active_mask(&mut self.active);
        MaskedUpdate::new(mask, values)
    }

    fn fold_begin(&mut self, _round: u32, scratch: &mut ScratchPool) -> FoldAcc {
        // APF folds straight into the packed active-mask layout — no
        // dense d-sized accumulator exists on the streaming path either.
        FoldAcc {
            dense: None,
            packed: Some(scratch.take_zeroed(self.active.count_ones())),
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
        let packed = acc
            .packed
            .as_mut()
            .expect("fold_begin allocates the accumulator");
        match upload {
            Upload::KnownMask(u) => {
                assert_eq!(
                    u.nnz(),
                    packed.len(),
                    "upload not aligned to the active mask"
                );
                accumulate_into(&[(w, u.values())], packed);
            }
            other => panic!("APF aggregate received non-known-mask upload {other:?}"),
        }
        acc.count += 1;
    }

    fn fold_finish(
        &mut self,
        _round: u32,
        acc: FoldAcc,
        scratch: &mut ScratchPool,
    ) -> MaskedUpdate {
        let values = acc.packed.expect("fold_begin allocates the accumulator");
        self.apf.observe_masked(&values, &self.active);
        let mut mask = scratch.take_mask(self.dim);
        mask.copy_from(&self.active);
        self.apf.fill_active_mask(&mut self.active);
        MaskedUpdate::new(mask, values)
    }

    fn finish_round(&mut self, _round: u32, _rng: &mut StdRng, _s: &[ClientId], _f: &[ClientId]) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::ClientCodec;
    use crate::config::StrategyConfig;

    fn cfg() -> ApfConfig {
        ApfConfig {
            threshold: 0.1,
            ema_beta: 0.9,
            initial_period: 2,
            max_period: 8,
            warmup_rounds: 3,
        }
    }

    fn strategy() -> ApfStrategy {
        ApfStrategy::new(10, 3, 1.0, vec![0.1; 10], cfg(), 6)
    }

    fn codec() -> ClientCodec {
        let apf = StrategyConfig::Apf { config: cfg() };
        ClientCodec::new(&apf, 3, &[0.1; 10], 6, 6, BitMask::zeros(6))
    }

    #[test]
    fn everything_active_initially() {
        let s = strategy();
        let mut delta = vec![1.0f32; 6];
        let mut pool = ScratchPool::new();
        let up = codec().compress(0, 0, Group::Fresh, &mut delta, s.round_mask(0), &mut pool);
        match up {
            Upload::KnownMask(u) => assert_eq!(u.nnz(), 6),
            other => panic!("expected known-mask upload, got {other:?}"),
        }
    }

    #[test]
    fn oscillating_positions_get_frozen_and_uploads_shrink() {
        let mut pool = ScratchPool::new();
        let mut s = strategy();
        let mut c = codec();
        // Positions 0..3 oscillate; 3..6 move steadily.
        for r in 0..20 {
            let sign = if r % 2 == 0 { 1.0 } else { -1.0 };
            let kept: Vec<(ClientId, Group, Upload)> = (0..3)
                .map(|id| {
                    let mut delta = vec![0.0f32; 6];
                    for (j, d) in delta.iter_mut().enumerate() {
                        *d = if j < 3 { sign * 0.5 } else { 0.5 };
                    }
                    let up =
                        c.compress(r, id, Group::Fresh, &mut delta, s.round_mask(r), &mut pool);
                    (id, Group::Fresh, up)
                })
                .collect();
            let _ = s.aggregate(r, &kept, &mut pool);
        }
        assert!(s.frozen_fraction() > 0.0, "nothing froze");
        // Steady positions must still be active.
        let mut probe = vec![1.0f32; 6];
        let up = c.compress(99, 0, Group::Fresh, &mut probe, s.round_mask(99), &mut pool);
        match up {
            Upload::KnownMask(u) => {
                assert!(u.indices().contains(&4) && u.indices().contains(&5));
                assert!(u.nnz() < 6, "no position was dropped");
            }
            other => panic!("expected known-mask upload, got {other:?}"),
        }
    }

    #[test]
    fn frozen_positions_do_not_change_in_aggregate() {
        let mut pool = ScratchPool::new();
        let mut s = strategy();
        let mut c = codec();
        // Freeze positions 0..3 as above. The mask relevant to round r is
        // the one in force *before* aggregation advances the APF state.
        for r in 0..20 {
            let sign = if r % 2 == 0 { 1.0 } else { -1.0 };
            let active_before = s.apf.active_mask();
            let kept: Vec<(ClientId, Group, Upload)> = (0..3)
                .map(|id| {
                    let mut delta = vec![sign * 0.5, sign * 0.5, sign * 0.5, 0.5, 0.5, 0.5];
                    let up =
                        c.compress(r, id, Group::Fresh, &mut delta, s.round_mask(r), &mut pool);
                    (id, Group::Fresh, up)
                })
                .collect();
            let agg = s.aggregate(r, &kept, &mut pool);
            // The update's support is exactly the round's active mask, so
            // frozen positions are structurally excluded from the apply.
            assert_eq!(agg.mask(), &active_before, "round {r}");
            agg.for_each_nonzero(|j, _| {
                assert!(active_before.get(j), "frozen position {j} changed");
            });
        }
    }

    #[test]
    fn mask_bitmap_is_charged_per_sync() {
        let s = strategy();
        assert_eq!(s.mask_download_bytes(0), 1 + 16); // ceil(6/8) + header
    }

    #[test]
    fn weight_matches_fedavg_rule() {
        let s = strategy();
        assert!((s.client_weight(2, Group::Fresh) - 10.0 / 3.0 * 0.1).abs() < 1e-12);
    }
}
