//! The client half of every strategy: [`ClientCodec`] turns a trained
//! delta into an [`Upload`].
//!
//! A client's compression depends only on its own history (the
//! error-compensation residual keyed by its id), the strategy's static
//! parameters (`q`, scopes, propensity weights, the ternary flag) and
//! the round mask it receives with the broadcast. None of that is
//! server state, so one type serves both drivers: the in-process
//! [`crate::Simulation`] holds one codec for every client, and a socket
//! client holds one whose residual bank only ever holds its own row.
//! Rows of different clients never interact, so both hold the same bits
//! for the same `(client, round)` sequence.

use crate::config::{GlueFlParams, StrategyConfig};
use crate::scratch::ScratchPool;
use crate::strategies::{Group, Upload};
use gluefl_compress::mask_shift::ClientSplit;
use gluefl_compress::stc::{keep_count, TernaryUpdate};
use gluefl_compress::{CompensationMode, ErrorCompensator};
use gluefl_sampling::ClientId;
use gluefl_tensor::{top_k_abs_masked_into, BitMask, SparseUpdate, TopKScope};

/// Which upload a strategy's clients produce, with the state it needs.
#[derive(Debug)]
enum Kind {
    /// FedAvg / MD-FedAvg: the dense delta is the upload.
    Dense,
    /// STC: error feedback, top-`q` outside the BN statistics, optional
    /// ternary quantization (footnote 1).
    TopQ {
        q: f64,
        quantize: bool,
        ec: ErrorCompensator,
    },
    /// APF: values under the round's active mask.
    KnownMask,
    /// GlueFL (Algorithm 3): re-scaled error compensation, the shared
    /// part under `M_t`, the unique top-`(q−q_shr)` outside
    /// `M_t ∪ stats`.
    MaskSplit {
        params: GlueFlParams,
        /// Round size `K` (for the propensity factors).
        k: usize,
        /// Importance weights `p_i` of the whole population.
        weights: Vec<f64>,
        ec: ErrorCompensator,
    },
}

/// Client-side compression for one configured strategy.
#[derive(Debug)]
pub struct ClientCodec {
    kind: Kind,
    /// Number of trainable positions (the base of every `q` ratio).
    trainable: usize,
    dim: usize,
    /// Positions no top-k may select (BN statistics).
    stats_excluded: BitMask,
}

impl ClientCodec {
    /// Builds the codec for `strategy` with round size `round_size`,
    /// population importance weights `weights`, `trainable` of `dim`
    /// positions trainable and `stats_excluded` marking the rest.
    #[must_use]
    pub fn new(
        strategy: &StrategyConfig,
        round_size: usize,
        weights: &[f64],
        trainable: usize,
        dim: usize,
        stats_excluded: BitMask,
    ) -> Self {
        let kind = match strategy {
            StrategyConfig::FedAvg | StrategyConfig::MdFedAvg => Kind::Dense,
            StrategyConfig::Stc { q } | StrategyConfig::StcQuantized { q } => Kind::TopQ {
                q: *q,
                quantize: matches!(strategy, StrategyConfig::StcQuantized { .. }),
                ec: ErrorCompensator::new(CompensationMode::Raw, dim),
            },
            StrategyConfig::Apf { .. } => Kind::KnownMask,
            StrategyConfig::GlueFl(params) => Kind::MaskSplit {
                params: params.clone(),
                k: round_size,
                weights: weights.to_vec(),
                ec: ErrorCompensator::new(params.compensation, dim),
            },
        };
        Self {
            kind,
            trainable,
            dim,
            stats_excluded,
        }
    }

    /// Whether [`ClientCodec::compress`] needs the round mask (APF's
    /// active set, GlueFL's `M_t`).
    #[must_use]
    pub fn needs_round_mask(&self) -> bool {
        matches!(self.kind, Kind::KnownMask | Kind::MaskSplit { .. })
    }

    /// Whether `upload` is the variant this strategy's clients produce —
    /// the only variant its server-side fold accepts.
    #[must_use]
    pub fn accepts(&self, upload: &Upload) -> bool {
        matches!(
            (&self.kind, upload),
            (Kind::Dense, Upload::Dense(_))
                | (
                    Kind::TopQ {
                        quantize: false,
                        ..
                    },
                    Upload::Sparse(_)
                )
                | (Kind::TopQ { quantize: true, .. }, Upload::Ternary(_))
                | (Kind::KnownMask, Upload::KnownMask(_))
                | (Kind::MaskSplit { .. }, Upload::MaskSplit(_))
        )
    }

    /// Compresses client `id`'s trainable delta (stats positions zeroed)
    /// for round `round` into an upload. Error-compensating strategies
    /// first add the client's residual to `delta` in place, then record
    /// the new one. `round_mask` is the mask both sides hold this round
    /// ([`crate::strategies::Strategy::round_mask`]).
    ///
    /// # Panics
    /// Panics if the strategy needs a round mask and `round_mask` is
    /// `None` (see [`ClientCodec::needs_round_mask`]).
    pub fn compress(
        &mut self,
        round: u32,
        id: ClientId,
        group: Group,
        delta: &mut [f32],
        round_mask: Option<&BitMask>,
        scratch: &mut ScratchPool,
    ) -> Upload {
        match &mut self.kind {
            Kind::Dense => Upload::Dense(scratch.take_copy(delta)),
            Kind::TopQ { q, quantize, ec } => {
                // Error feedback: add the residual from the client's
                // previous participation, sparsify, remember the rest.
                ec.apply(id, delta, 1.0);
                let (ix, vals) = scratch.take_sparse();
                let idx = top_k_abs_masked_into(
                    delta,
                    keep_count(self.trainable, *q),
                    TopKScope::Outside(&self.stats_excluded),
                    &mut scratch.topk,
                );
                let sparse = SparseUpdate::gather_in(delta, idx, ix, vals);
                if *quantize {
                    // The residual reflects what the server receives (the
                    // dequantized values), so quantization loss is
                    // carried into the next round too.
                    let ternary = TernaryUpdate::quantize(&sparse);
                    ec.record_sent_parts(id, delta, &[&ternary.dequantize()], 1.0);
                    Upload::Ternary(ternary)
                } else {
                    ec.record_sent_parts(id, delta, &[&sparse], 1.0);
                    Upload::Sparse(sparse)
                }
            }
            Kind::KnownMask => {
                // Frozen parameters stay frozen locally, so the upload
                // carries only active positions, whose identities the
                // server already knows.
                let mask = round_mask.expect("APF compression needs the round's active mask");
                let (ix, vals) = scratch.take_sparse();
                Upload::KnownMask(SparseUpdate::from_dense_masked_in(delta, mask, ix, vals))
            }
            Kind::MaskSplit {
                params,
                k,
                weights,
                ec,
            } => {
                let mask = round_mask.expect("GlueFL compression needs the shared mask M_t");
                let weight = params.propensity_weight(weights.len(), *k, weights[id], group);
                // Re-scaled error compensation (Equation 7).
                ec.apply(id, delta, weight);
                let regen = params.is_regen_round(round);
                // Shared part: values under M_t (empty on regeneration
                // rounds). Unique part: top-(q−q_shr) outside M_t ∪ stats.
                let mut scope = scratch.take_mask(self.dim);
                let shared = if regen {
                    scope.copy_from(&self.stats_excluded);
                    SparseUpdate::empty(self.dim)
                } else {
                    scope.copy_from(mask);
                    scope.union_with(&self.stats_excluded);
                    let (ix, vals) = scratch.take_sparse();
                    SparseUpdate::from_dense_masked_in(delta, mask, ix, vals)
                };
                let (ix, vals) = scratch.take_sparse();
                let idx = top_k_abs_masked_into(
                    delta,
                    params.unique_keep(round, self.trainable),
                    TopKScope::Outside(&scope),
                    &mut scratch.topk,
                );
                let unique = SparseUpdate::gather_in(delta, idx, ix, vals);
                scratch.put_mask(scope);
                // Residual: h = Δ − (Δ̃_shr + Δ̃_uni), recorded without
                // materialising the dense `sent` vector.
                ec.record_sent_parts(id, delta, &[&shared, &unique], weight);
                Upload::MaskSplit(ClientSplit { shared, unique })
            }
        }
    }

    /// Folds the wire codec's loss on client `id`'s serialized upload
    /// into its residual: `sent` is what [`ClientCodec::compress`] handed
    /// the encoder at `indices`, `shipped` what the lossy codec actually
    /// delivered. The drivers fire it once per value-bearing frame of a
    /// *kept* upload when a lossy codec runs with `quant_ec` on, so codec
    /// loss re-enters the next round; strategies without a residual bank
    /// drop it.
    pub fn fold_codec_error(
        &mut self,
        id: ClientId,
        indices: &[u32],
        sent: &[f32],
        shipped: &[f32],
    ) {
        match &mut self.kind {
            Kind::TopQ { ec, .. } | Kind::MaskSplit { ec, .. } => {
                ec.fold_shipped_error(id, indices, sent, shipped);
            }
            Kind::Dense | Kind::KnownMask => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const N: usize = 10;
    const DIM: usize = 40;
    /// Positions `STATS_FROM..DIM` play the BN-statistic role.
    const STATS_FROM: usize = 36;
    const ROUNDS: u32 = 7;
    /// Clients a, b and c.
    const IDS: [ClientId; 3] = [2, 5, 7];

    fn configs() -> Vec<StrategyConfig> {
        vec![
            StrategyConfig::Stc { q: 0.25 },
            StrategyConfig::StcQuantized { q: 0.25 },
            StrategyConfig::GlueFl(GlueFlParams {
                q: 0.3,
                q_shr: 0.2,
                sticky_group: 4,
                sticky_draw: 2,
                regen_interval: Some(3),
                compensation: CompensationMode::Rescaled,
                equal_weights: false,
            }),
        ]
    }

    fn codec(strategy: &StrategyConfig) -> ClientCodec {
        let weights: Vec<f64> = (0..N).map(|i| (1 + i) as f64 / 55.0).collect();
        let stats = BitMask::from_indices(DIM, STATS_FROM..DIM);
        ClientCodec::new(strategy, 4, &weights, STATS_FROM, DIM, stats)
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Compresses on both sides and asserts bit-identical uploads and
    /// bit-identical compensated deltas (`Δ` plus the re-scaled
    /// residual the codec added in place).
    #[allow(clippy::too_many_arguments)]
    fn compress_both(
        shared: &mut ClientCodec,
        single: &mut ClientCodec,
        round: u32,
        id: ClientId,
        group: Group,
        delta: &[f32],
        mask: &BitMask,
        pool: &mut ScratchPool,
    ) -> Upload {
        let (mut da, mut db) = (delta.to_vec(), delta.to_vec());
        let ua = shared.compress(round, id, group, &mut da, Some(mask), pool);
        let ub = single.compress(round, id, group, &mut db, Some(mask), pool);
        assert_eq!(
            format!("{ua:?}"),
            format!("{ub:?}"),
            "upload of {id} in {round}"
        );
        assert_eq!(bits(&da), bits(&db), "residual of {id} in {round}");
        pool.reclaim_upload(ub);
        ua
    }

    /// The drivers' identity: one codec serving clients a, b and c
    /// interleaved (the simulator) holds exactly the residual rows of
    /// three single-client codecs (socket clients), through group
    /// switches, regeneration rounds and codec-loss feedback.
    fn check_shared_bank(strategy: &StrategyConfig, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pool = ScratchPool::new();
        let mut shared = codec(strategy);
        let mut singles: Vec<ClientCodec> = IDS.iter().map(|_| codec(strategy)).collect();
        for round in 0..ROUNDS {
            let mask = BitMask::from_indices(DIM, (0..STATS_FROM).filter(|_| rng.gen_bool(0.2)));
            let mut order: Vec<usize> = (0..IDS.len()).filter(|_| rng.gen_bool(0.7)).collect();
            if round == 1 || round == 2 {
                // a and b both participate and swap groups between the
                // two rounds.
                order = vec![1, 0, 2];
            }
            for &k in &order {
                let id = IDS[k];
                let group = match (round, k) {
                    (1, 0) | (2, 1) => Group::Sticky,
                    (1, 1) | (2, 0) => Group::Fresh,
                    _ if rng.gen_bool(0.5) => Group::Sticky,
                    _ => Group::Fresh,
                };
                let delta: Vec<f32> = (0..DIM)
                    .map(|j| {
                        if j < STATS_FROM {
                            rng.gen_range(-1.0f32..1.0)
                        } else {
                            0.0
                        }
                    })
                    .collect();
                let upload = compress_both(
                    &mut shared,
                    &mut singles[k],
                    round,
                    id,
                    group,
                    &delta,
                    &mask,
                    &mut pool,
                );
                // A kept upload's codec loss folds back on both sides.
                let sent = match &upload {
                    Upload::Sparse(u) => Some(u),
                    Upload::MaskSplit(s) => Some(&s.unique),
                    _ => None,
                };
                if let Some(u) = sent.filter(|_| rng.gen_bool(0.5)) {
                    let shipped: Vec<f32> =
                        u.values().iter().map(|v| (v * 8.0).round() / 8.0).collect();
                    shared.fold_codec_error(id, u.indices(), u.values(), &shipped);
                    singles[k].fold_codec_error(id, u.indices(), u.values(), &shipped);
                }
                pool.reclaim_upload(upload);
            }
        }
        // Final residual rows: a zero delta re-sends exactly the residual.
        let mask = BitMask::zeros(DIM);
        for (k, &id) in IDS.iter().enumerate() {
            let zero = vec![0.0f32; DIM];
            let upload = compress_both(
                &mut shared,
                &mut singles[k],
                ROUNDS + 1,
                id,
                Group::Fresh,
                &zero,
                &mask,
                &mut pool,
            );
            pool.reclaim_upload(upload);
        }
    }

    proptest! {
        #[test]
        fn shared_bank_matches_per_client_banks(seed in 0u64..100_000) {
            for strategy in configs() {
                check_shared_bank(&strategy, seed);
            }
        }
    }
}
