//! GlueFL: sticky sampling + mask shifting (Algorithm 3).

use super::{bitmap_bytes, FoldAcc, Group, RoundPlan, Strategy, Upload};
use crate::aggregate::{
    accumulate_into, accumulate_sparse_packed, accumulate_weighted_values, packed_rank,
    scatter_add_packed,
};
use crate::config::GlueFlParams;
use crate::scratch::ScratchPool;
use gluefl_compress::mask_shift::shift_mask_packed_into;
use gluefl_compress::stc::keep_count;
use gluefl_sampling::overcommit::{plan as oc_plan, OcStrategy};
use gluefl_sampling::{ClientId, OnlineQuery, StickySampler};
use gluefl_tensor::{top_k_abs_packed_into, BitMask, MaskedUpdate, SparseUpdate, TopKScope};
use rand::rngs::StdRng;

/// The paper's framework: sticky sampling (§3.1) for client selection,
/// mask shifting (§3.2) for compression, with shared-mask regeneration
/// (§3.3). The client half — the shared/unique split and re-scaled error
/// compensation — is [`crate::codec::ClientCodec`].
#[derive(Debug)]
pub struct GlueFlStrategy {
    sampler: StickySampler,
    params: GlueFlParams,
    k: usize,
    oc: f64,
    oc_strategy: OcStrategy,
    weights: Vec<f64>,
    /// Current shared mask `M_t` (⊆ trainable positions).
    shared_mask: BitMask,
    /// Cached `|M_t|` (the length of every mask-aligned shared upload).
    shared_nnz: usize,
    /// Positions that may never be masked/selected (BN statistics).
    stats_excluded: BitMask,
    /// Cached `¬stats`: positions eligible for the shared mask.
    eligible: BitMask,
    /// Number of trainable positions (base for `q` ratios).
    trainable: usize,
    dim: usize,
}

impl GlueFlStrategy {
    /// Creates the strategy. The initial shared mask is a random
    /// `q_shr`-fraction of trainable positions (before the first round
    /// there is no update signal to select by).
    ///
    /// # Panics
    /// Panics if the sticky configuration is inconsistent
    /// (`C > S`, `S > N`, `C > K`, or `q_shr > q`).
    #[allow(clippy::too_many_arguments)]
    #[must_use]
    pub fn new(
        n: usize,
        k: usize,
        oc: f64,
        oc_strategy: OcStrategy,
        weights: Vec<f64>,
        params: GlueFlParams,
        trainable: usize,
        dim: usize,
        stats_excluded: BitMask,
        rng: &mut StdRng,
    ) -> Self {
        assert_eq!(weights.len(), n, "weights length must equal population");
        assert!(
            params.q_shr <= params.q,
            "q_shr {} must not exceed q {}",
            params.q_shr,
            params.q
        );
        assert!(
            params.sticky_draw <= params.sticky_group
                && params.sticky_group <= n
                && params.sticky_draw <= k,
            "invalid sticky configuration"
        );
        let sampler = StickySampler::new(n, params.sticky_group, rng);
        // Random initial mask over trainable positions (word-level
        // complement walk instead of d per-bit tests).
        let k_mask = keep_count(trainable, params.q_shr);
        let mut picked: Vec<usize> = stats_excluded.iter_zeros().collect();
        use rand::seq::SliceRandom;
        let (sel, _) = picked.partial_shuffle(rng, k_mask);
        let shared_mask = BitMask::from_indices(dim, sel.iter().copied());
        let shared_nnz = shared_mask.count_ones();
        let eligible = stats_excluded.not();
        Self {
            sampler,
            params,
            k,
            oc,
            oc_strategy,
            weights,
            shared_mask,
            shared_nnz,
            stats_excluded,
            eligible,
            trainable,
            dim,
        }
    }

    /// Installs a freshly shifted/regenerated shared mask, swapping the
    /// old one out for the caller to recycle.
    fn set_shared_mask(&mut self, mask: BitMask) -> BitMask {
        self.shared_nnz = mask.count_ones();
        std::mem::replace(&mut self.shared_mask, mask)
    }

    /// The current shared mask `M_t`.
    #[must_use]
    pub fn shared_mask(&self) -> &BitMask {
        &self.shared_mask
    }

    /// The sticky sampler (for inspection in tests/experiments).
    #[must_use]
    pub fn sampler(&self) -> &StickySampler {
        &self.sampler
    }

    /// Finishing steps shared by [`Strategy::aggregate`] and
    /// [`Strategy::fold_finish`], entirely in packed space — `O(q·d)`
    /// values touched, no dense `d`-length staging:
    ///
    /// 1. Δ̃_uni = top `q−q_shr` of the packed unique aggregate (line 23),
    ///    selected by the packed top-k (positions off `uni_support` are
    ///    exact zeros, so the selection equals the dense kernel's);
    /// 2. Δ̃ = Δ̃_shr + Δ̃_uni (line 24) emitted directly as
    ///    `(mask, values)`: the shared and unique supports are disjoint by
    ///    construction (clients pick unique coordinates outside
    ///    `M_t ∪ stats`), so each combined value is a plain copy — and a
    ///    zero-fill-up selection (top-k ran out of nonzeros) lands as an
    ///    exact `0.0`, just as the dense staging held. Copying is bitwise
    ///    what the dense path computed: a sum started at `+0.0` is never
    ///    `-0.0`, so the old `0.0 + x·1.0` add reproduced `x` exactly;
    /// 3. the shared mask shifts to the top `q_shr` of the packed combined
    ///    update (line 26), regeneration rounds re-seeding it from the
    ///    unique part alone (§3.3).
    fn finish_packed(
        &mut self,
        round: u32,
        shr_vals: &[f32],
        uni_support: &BitMask,
        uni_offsets: &[u32],
        uni_vals: &[f32],
        scratch: &mut ScratchPool,
    ) -> MaskedUpdate {
        let regen = self.params.is_regen_round(round);
        let unique_k = self.params.unique_keep(round, self.trainable);
        let mut mask = scratch.take_mask(self.dim);
        if !regen {
            mask.copy_from(&self.shared_mask);
        }
        {
            let idx = top_k_abs_packed_into(
                uni_support,
                uni_vals,
                unique_k,
                TopKScope::Outside(&self.stats_excluded),
                &mut scratch.topk,
            );
            for &i in idx {
                mask.set(i, true);
            }
        }
        let mut values = scratch.take_cleared();
        let uwords = uni_support.as_words();
        let mut sp = 0usize;
        mask.for_each_one(|i| {
            if !regen && self.shared_mask.get(i) {
                values.push(shr_vals[sp]);
                sp += 1;
            } else if uni_support.get(i) {
                values.push(uni_vals[packed_rank(uwords, uni_offsets, i)]);
            } else {
                values.push(0.0);
            }
        });

        let mut next_mask = scratch.take_mask(self.dim);
        shift_mask_packed_into(
            &mask,
            &values,
            self.params.q_shr,
            Some(&self.eligible),
            &mut scratch.topk,
            &mut next_mask,
        );
        let old = self.set_shared_mask(next_mask);
        scratch.put_mask(old);
        MaskedUpdate::new(mask, values)
    }
}

impl Strategy for GlueFlStrategy {
    fn name(&self) -> String {
        if self.params.equal_weights {
            "gluefl-equal".into()
        } else {
            "gluefl".into()
        }
    }

    fn plan_round(
        &mut self,
        _round: u32,
        rng: &mut StdRng,
        online: &mut dyn OnlineQuery,
    ) -> RoundPlan {
        let plan = oc_plan(self.k, self.params.sticky_draw, self.oc, self.oc_strategy);
        let draw = self
            .sampler
            .draw(rng, plan.sticky_invites, plan.fresh_invites, online);
        RoundPlan {
            sticky_invites: draw.sticky,
            fresh_invites: draw.fresh,
            keep_sticky: plan.keep_sticky,
            keep_fresh: plan.keep_fresh,
        }
    }

    fn client_weight(&self, id: ClientId, group: Group) -> f64 {
        self.params
            .propensity_weight(self.sampler.population(), self.k, self.weights[id], group)
    }

    fn mask_download_bytes(&self, _round: u32) -> u64 {
        // The shared mask M_t travels as a bitmap with each sync
        // (Algorithm 3 line 7).
        bitmap_bytes(self.dim)
    }

    fn round_mask(&self, _round: u32) -> Option<&BitMask> {
        // M_t: broadcast at sync time, and the alignment of every
        // shared-part upload until aggregate() shifts it.
        Some(&self.shared_mask)
    }

    fn aggregate(
        &mut self,
        round: u32,
        kept: &[(ClientId, Group, Upload)],
        scratch: &mut ScratchPool,
    ) -> MaskedUpdate {
        let regen = self.params.is_regen_round(round);
        let mut shared_entries: Vec<(f32, &[f32])> = Vec::with_capacity(kept.len());
        let mut unique_entries: Vec<(f32, &SparseUpdate)> = Vec::with_capacity(kept.len());
        for (id, group, upload) in kept {
            let w = self.client_weight(*id, *group) as f32;
            match upload {
                Upload::MaskSplit(split) => {
                    if !regen {
                        assert_eq!(
                            split.shared.nnz(),
                            self.shared_nnz,
                            "shared part not aligned to the current mask"
                        );
                        shared_entries.push((w, split.shared.values()));
                    }
                    unique_entries.push((w, &split.unique));
                }
                other => panic!("GlueFL aggregate received non-split upload {other:?}"),
            }
        }
        // Shared parts all carry the same support M_t, so they are summed
        // as contiguous value arrays (no per-element index indirection) —
        // the shards already emit the masked (packed) layout.
        let shr_vals = accumulate_weighted_values(&shared_entries, self.shared_nnz, scratch);
        // Unique aggregate directly in packed (support, values) form —
        // O(Σ nnz + d/64) work, no dense d-length staging anywhere on the
        // aggregate path.
        let mut uni_support = scratch.take_mask(self.dim);
        let (mut uni_offsets, mut uni_vals) = scratch.take_sparse();
        accumulate_sparse_packed(
            &unique_entries,
            self.dim,
            &mut uni_support,
            &mut uni_offsets,
            &mut uni_vals,
        );
        let update = self.finish_packed(
            round,
            &shr_vals,
            &uni_support,
            &uni_offsets,
            &uni_vals,
            scratch,
        );
        scratch.put(shr_vals);
        scratch.put_mask(uni_support);
        scratch.put_sparse(uni_offsets, uni_vals);
        update
    }

    fn fold_begin(&mut self, _round: u32, scratch: &mut ScratchPool) -> FoldAcc {
        // The packed shared sum (aligned to M_t) plus the deferred unique
        // stream: positions in `indices`, weighted values in `dense` —
        // the union support and packed unique sum are built once at
        // fold_finish, so the streaming path stages no d-length buffer
        // either.
        let (stream_idx, stream_vals) = scratch.take_sparse();
        FoldAcc {
            dense: Some(stream_vals),
            packed: Some(scratch.take_zeroed(self.shared_nnz)),
            indices: Some(stream_idx),
            count: 0,
        }
    }

    fn fold_upload(
        &mut self,
        round: u32,
        acc: &mut FoldAcc,
        id: ClientId,
        group: Group,
        upload: &Upload,
        _scratch: &mut ScratchPool,
    ) {
        let regen = self.params.is_regen_round(round);
        let w = self.client_weight(id, group) as f32;
        let stream_vals = acc
            .dense
            .as_mut()
            .expect("fold_begin allocates the accumulator");
        let shr_acc = acc
            .packed
            .as_mut()
            .expect("fold_begin allocates the accumulator");
        let stream_idx = acc
            .indices
            .as_mut()
            .expect("fold_begin allocates the accumulator");
        match upload {
            Upload::MaskSplit(split) => {
                if !regen {
                    assert_eq!(
                        split.shared.nnz(),
                        self.shared_nnz,
                        "shared part not aligned to the current mask"
                    );
                    accumulate_into(&[(w, split.shared.values())], shr_acc);
                }
                // Defer the unique part as a flat (position, w·v) stream;
                // the fold_finish scatter replays these adds in exactly
                // this order, so the packed sum is bit-identical to the
                // dense per-upload `acc[i] += w·v` fold.
                stream_idx.extend_from_slice(split.unique.indices());
                stream_vals.extend(split.unique.values().iter().map(|&v| w * v));
            }
            other => panic!("GlueFL aggregate received non-split upload {other:?}"),
        }
        acc.count += 1;
    }

    fn fold_finish(&mut self, round: u32, acc: FoldAcc, scratch: &mut ScratchPool) -> MaskedUpdate {
        let shr_vals = acc.packed.expect("fold_begin allocates the accumulator");
        let stream_vals = acc.dense.expect("fold_begin allocates the accumulator");
        let stream_idx = acc.indices.expect("fold_begin allocates the accumulator");
        let mut uni_support = scratch.take_mask(self.dim);
        let (mut uni_offsets, mut uni_vals) = scratch.take_sparse();
        scatter_add_packed(
            &stream_idx,
            &stream_vals,
            self.dim,
            &mut uni_support,
            &mut uni_offsets,
            &mut uni_vals,
        );
        let update = self.finish_packed(
            round,
            &shr_vals,
            &uni_support,
            &uni_offsets,
            &uni_vals,
            scratch,
        );
        scratch.put(shr_vals);
        scratch.put_mask(uni_support);
        scratch.put_sparse(uni_offsets, uni_vals);
        scratch.put_sparse(stream_idx, stream_vals);
        update
    }

    fn finish_round(
        &mut self,
        _round: u32,
        rng: &mut StdRng,
        kept_sticky: &[ClientId],
        kept_fresh: &[ClientId],
    ) {
        self.sampler.rebalance(rng, kept_sticky, kept_fresh);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::ClientCodec;
    use crate::config::StrategyConfig;
    use gluefl_compress::CompensationMode;
    use rand::SeedableRng;

    fn params() -> GlueFlParams {
        GlueFlParams {
            q: 0.3,
            q_shr: 0.2,
            sticky_group: 8,
            sticky_draw: 3,
            regen_interval: Some(5),
            compensation: CompensationMode::Rescaled,
            equal_weights: false,
        }
    }

    /// The client codec matching [`strategy`] with parameters `p` over
    /// `dim` positions.
    fn codec(p: &GlueFlParams, dim: usize) -> ClientCodec {
        let gluefl = StrategyConfig::GlueFl(p.clone());
        ClientCodec::new(&gluefl, 4, &[0.05; 20], dim, dim, BitMask::zeros(dim))
    }

    fn strategy(seed: u64) -> GlueFlStrategy {
        let mut rng = StdRng::seed_from_u64(seed);
        GlueFlStrategy::new(
            20,
            4,
            1.0,
            OcStrategy::Proportional,
            vec![0.05; 20],
            params(),
            20,
            20,
            BitMask::zeros(20),
            &mut rng,
        )
    }

    #[test]
    fn initial_mask_has_qshr_density() {
        let s = strategy(0);
        assert_eq!(s.shared_mask().count_ones(), 4); // 20% of 20
    }

    #[test]
    fn plan_draws_sticky_and_fresh() {
        let mut s = strategy(1);
        let mut rng = StdRng::seed_from_u64(2);
        let plan = s.plan_round(0, &mut rng, &mut gluefl_sampling::AllOnline);
        assert_eq!(plan.sticky_invites.len(), 3);
        assert_eq!(plan.fresh_invites.len(), 1);
        assert_eq!(plan.keep_sticky, 3);
        assert_eq!(plan.keep_fresh, 1);
        assert!(plan
            .sticky_invites
            .iter()
            .all(|&c| s.sampler().is_sticky(c)));
    }

    #[test]
    fn weights_are_inverse_propensity() {
        let s = strategy(3);
        // ν_s = (S/C)·p = (8/3)·0.05; ν_r = ((N−S)/(K−C))·p = 12·0.05.
        assert!((s.client_weight(0, Group::Sticky) - 8.0 / 3.0 * 0.05).abs() < 1e-12);
        assert!((s.client_weight(0, Group::Fresh) - 12.0 * 0.05).abs() < 1e-12);
    }

    #[test]
    fn equal_weights_variant() {
        let mut p = params();
        p.equal_weights = true;
        let mut rng = StdRng::seed_from_u64(4);
        let s = GlueFlStrategy::new(
            20,
            4,
            1.0,
            OcStrategy::Proportional,
            vec![0.05; 20],
            p,
            20,
            20,
            BitMask::zeros(20),
            &mut rng,
        );
        assert_eq!(s.name(), "gluefl-equal");
        assert_eq!(s.client_weight(0, Group::Sticky), 0.25);
        assert_eq!(s.client_weight(0, Group::Fresh), 0.25);
    }

    #[test]
    fn compress_splits_along_mask() {
        let s = strategy(5);
        let mask = s.shared_mask().clone();
        let mut delta: Vec<f32> = (0..20).map(|i| i as f32 - 10.0).collect();
        let mut pool = ScratchPool::new();
        let up = codec(&params(), 20).compress(
            1,
            0,
            Group::Sticky,
            &mut delta,
            s.round_mask(1),
            &mut pool,
        );
        match up {
            Upload::MaskSplit(split) => {
                assert_eq!(split.shared.support(), mask);
                assert_eq!(split.unique.support().overlap(&mask), 0);
                // q−q_shr = 10% of 20 = 2 unique coordinates.
                assert_eq!(split.unique.nnz(), 2);
            }
            other => panic!("expected mask split, got {other:?}"),
        }
    }

    #[test]
    fn regen_round_sends_no_shared_part() {
        let s = strategy(6);
        let p = params();
        assert!(p.is_regen_round(5));
        assert!(!p.is_regen_round(4));
        assert!(!p.is_regen_round(0)); // round 0 never regenerates
        let mut delta: Vec<f32> = (0..20).map(|i| (i as f32) * 0.1).collect();
        let mut pool = ScratchPool::new();
        let up =
            codec(&p, 20).compress(5, 0, Group::Sticky, &mut delta, s.round_mask(5), &mut pool);
        match up {
            Upload::MaskSplit(split) => {
                assert!(split.shared.is_empty());
                // Full q = 30% of 20 = 6 coordinates.
                assert_eq!(split.unique.nnz(), 6);
            }
            other => panic!("expected mask split, got {other:?}"),
        }
    }

    #[test]
    fn aggregate_updates_mask_to_top_qshr_of_combined() {
        let mut s = strategy(7);
        let mut c = codec(&params(), 20);
        let mut delta: Vec<f32> = (0..20).map(|i| if i < 6 { 10.0 } else { 0.01 }).collect();
        let mut pool = ScratchPool::new();
        let mask = s.round_mask(1);
        let up = c.compress(1, 0, Group::Sticky, &mut delta.clone(), mask, &mut pool);
        let _ = up;
        let up = c.compress(1, 1, Group::Sticky, &mut delta, mask, &mut pool);
        let agg = s.aggregate(1, &[(1, Group::Sticky, up)], &mut pool);
        assert_eq!(agg.dim(), 20);
        // New mask has q_shr density.
        assert_eq!(s.shared_mask().count_ones(), 4);
    }

    #[test]
    fn consecutive_update_overlap_at_least_qshr() {
        let mut pool = ScratchPool::new();
        // The support of round t+1's combined update always contains
        // M_{t+1}, which was chosen from round t's combined update —
        // so consecutive supports overlap in ≥ q_shr·d positions as long
        // as clients keep sending the shared part. (Regeneration rounds
        // intentionally break this, so disable them here.)
        let mut p = params();
        p.regen_interval = None;
        let mut init_rng = StdRng::seed_from_u64(8);
        let mut c = codec(&p, 20);
        let mut s = GlueFlStrategy::new(
            20,
            4,
            1.0,
            OcStrategy::Proportional,
            vec![0.05; 20],
            p,
            20,
            20,
            BitMask::zeros(20),
            &mut init_rng,
        );
        let mut rng = StdRng::seed_from_u64(9);
        let mut prev_support: Option<BitMask> = None;
        for round in 1..6u32 {
            // Three sticky clients with pseudo-random deltas.
            let kept: Vec<(ClientId, Group, Upload)> = (0..3)
                .map(|id| {
                    use rand::Rng;
                    let mut delta: Vec<f32> = (0..20).map(|_| rng.gen_range(-1.0..1.0)).collect();
                    let mask = s.round_mask(round);
                    let up = c.compress(round, id, Group::Sticky, &mut delta, mask, &mut pool);
                    (id, Group::Sticky, up)
                })
                .collect();
            let agg = s.aggregate(round, &kept, &mut pool);
            let mut nonzero = Vec::new();
            agg.for_each_nonzero(|i, _| nonzero.push(i));
            let support = BitMask::from_indices(20, nonzero);
            if let Some(prev) = &prev_support {
                let overlap = prev.overlap(&support);
                assert!(
                    overlap >= 4,
                    "round {round}: overlap {overlap} below q_shr·d = 4"
                );
            }
            prev_support = Some(support);
        }
    }

    /// The aggregate is O(q·d) in memory as well as time: at d = 100 000
    /// with sparse clients, no pooled staging buffer ever reaches d/2
    /// floats — the dense combined/unique accumulators of the old
    /// implementation are gone. Both the one-shot and the streaming fold
    /// paths are checked, against a pool that has never seen a dense
    /// buffer.
    #[test]
    fn aggregate_stages_no_dense_buffer() {
        let dim = 100_000;
        let mut p = params();
        p.q = 0.01;
        p.q_shr = 0.005;
        let mk = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            GlueFlStrategy::new(
                20,
                4,
                1.0,
                OcStrategy::Proportional,
                vec![0.05; 20],
                p.clone(),
                dim,
                dim,
                BitMask::zeros(dim),
                &mut rng,
            )
        };
        let mut compress_pool = ScratchPool::new();
        let make_kept = |s: &GlueFlStrategy, pool: &mut ScratchPool| {
            let mut c = codec(&p, dim);
            (0..3)
                .map(|id| {
                    let mut delta: Vec<f32> = (0..dim)
                        .map(|i| ((i * 7 + id * 13) % 101) as f32 / 50.0 - 1.0)
                        .collect();
                    let up = c.compress(1, id, Group::Sticky, &mut delta, s.round_mask(1), pool);
                    (id, Group::Sticky, up)
                })
                .collect::<Vec<(ClientId, Group, Upload)>>()
        };

        let mut s = mk(21);
        let kept = make_kept(&s, &mut compress_pool);
        let mut agg_pool = ScratchPool::new();
        let update = s.aggregate(1, &kept, &mut agg_pool);
        assert!(update.mask().count_ones() > 0);
        assert!(
            agg_pool.max_idle_value_capacity() < dim / 2,
            "aggregate staged a near-dense buffer: {} floats",
            agg_pool.max_idle_value_capacity()
        );

        // Streaming fold path, fresh pool: same bound.
        let mut s2 = mk(21);
        let kept2 = make_kept(&s2, &mut compress_pool);
        let mut fold_pool = ScratchPool::new();
        let mut acc = s2.fold_begin(1, &mut fold_pool);
        for (id, group, up) in &kept2 {
            s2.fold_upload(1, &mut acc, *id, *group, up, &mut fold_pool);
        }
        let folded = s2.fold_finish(1, acc, &mut fold_pool);
        assert!(
            fold_pool.max_idle_value_capacity() < dim / 2,
            "fold staged a near-dense buffer: {} floats",
            fold_pool.max_idle_value_capacity()
        );
        // And the two paths agree bitwise, as everywhere else.
        assert_eq!(folded.mask(), update.mask());
        assert!(folded
            .values()
            .iter()
            .zip(update.values())
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn rescaled_compensation_survives_group_switch() {
        let s = strategy(10);
        let mut c = codec(&params(), 20);
        // Client 0 participates as Fresh (weight 12·0.05 = 0.6), residual
        // recorded; later participates as Sticky (weight 8/3·0.05 ≈ 0.133).
        // Craft a delta where one coordinate is dropped: make 3 positions
        // outside the mask large, so top-2 keeps the two largest.
        let mask = s.shared_mask().clone();
        let outside: Vec<usize> = (0..20).filter(|&i| !mask.get(i)).collect();
        let mut d = vec![0.0f32; 20];
        d[outside[0]] = 5.0;
        d[outside[1]] = 4.0;
        d[outside[2]] = 3.0; // dropped by top-2 → residual
        let mut pool = ScratchPool::new();
        let _ = c.compress(1, 0, Group::Fresh, &mut d, s.round_mask(1), &mut pool);
        // Next round, zero delta: compensation should re-inject the
        // residual scaled by ν_fresh/ν_sticky = 0.6/0.1333... = 4.5.
        let mut d2 = vec![0.0f32; 20];
        let up = c.compress(2, 0, Group::Sticky, &mut d2, s.round_mask(2), &mut pool);
        match up {
            Upload::MaskSplit(split) => {
                let dense = {
                    let mut v = split.shared.to_dense();
                    split.unique.apply(&mut v);
                    v
                };
                let expected = 3.0 * (0.6 / (8.0 / 3.0 * 0.05));
                assert!(
                    (dense[outside[2]] - expected as f32).abs() < 1e-3,
                    "residual {} vs expected {expected}",
                    dense[outside[2]]
                );
            }
            other => panic!("expected mask split, got {other:?}"),
        }
    }

    #[test]
    fn finish_round_rebalances_sticky_group() {
        let mut s = strategy(11);
        let mut rng = StdRng::seed_from_u64(12);
        let plan = s.plan_round(0, &mut rng, &mut gluefl_sampling::AllOnline);
        s.finish_round(0, &mut rng, &plan.sticky_invites, &plan.fresh_invites);
        assert_eq!(s.sampler().group_size(), 8);
        assert!(plan.fresh_invites.iter().all(|&c| s.sampler().is_sticky(c)));
    }

    #[test]
    #[should_panic(expected = "q_shr")]
    fn rejects_qshr_above_q() {
        let mut p = params();
        p.q_shr = 0.5;
        let mut rng = StdRng::seed_from_u64(0);
        let _ = GlueFlStrategy::new(
            20,
            4,
            1.0,
            OcStrategy::Proportional,
            vec![0.05; 20],
            p,
            20,
            20,
            BitMask::zeros(20),
            &mut rng,
        );
    }
}
