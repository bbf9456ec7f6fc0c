//! The run state both round drivers derive from a [`SimConfig`].
//!
//! Every participant of a run — the in-process [`crate::Simulation`], a
//! socket server, each socket client — must agree on the synthetic
//! dataset, the model layout and the BN-statistic positions. They all
//! build them through [`RunSetup::new`], from the same seed labels.
//! What only the server side needs (the strategy, network and device
//! models, availability, staleness, the round RNG) is [`ServerSetup`],
//! which clients never build.

use crate::codec::ClientCodec;
use crate::config::SimConfig;
use crate::metrics::RoundRecord;
use crate::scratch::ScratchPool;
use crate::staleness::StalenessTracker;
use crate::strategies::{build_strategy, Group, RoundPlan, Strategy};
use gluefl_data::SyntheticFlDataset;
use gluefl_ml::Mlp;
use gluefl_net::timing::{fastest, seconds_for_bytes, ClientRoundTime};
use gluefl_net::{LazyAvailability, LinkCache, SpeedCache};
use gluefl_tensor::rng::{derive_seed, seeded_rng};
use gluefl_tensor::{BitMask, MaskedUpdate};
use rand::rngs::StdRng;

/// The seed-derived state every participant of a run agrees on.
#[derive(Debug)]
pub struct RunSetup {
    /// The synthetic federated dataset (seed label `"data"`).
    pub data: SyntheticFlDataset,
    /// The global model at initialisation (seed label `"model-init"`).
    pub model: Mlp,
    /// Number of trainable positions (the base of every `q` ratio).
    pub trainable: usize,
    /// Mask of trainable positions.
    pub trainable_mask: BitMask,
    /// Mask of BN-statistic positions (the complement), which no
    /// strategy mask or top-k may select.
    pub stats_excluded: BitMask,
    /// Flat indices of the BN-statistic positions, ascending.
    pub stats_positions: Vec<usize>,
}

impl RunSetup {
    /// Generates the dataset and initial model for `cfg`.
    #[must_use]
    pub fn new(cfg: &SimConfig) -> Self {
        let data =
            SyntheticFlDataset::generate(cfg.dataset.clone(), derive_seed(cfg.seed, "data", 0));
        let mut init_rng = seeded_rng(cfg.seed, "model-init", 0);
        let model = cfg
            .model
            .build(data.feature_dim(), data.classes(), &mut init_rng);
        let layout = model.layout();
        let trainable = layout.trainable_count();
        let trainable_mask = layout.trainable_mask();
        let stats_excluded = trainable_mask.not();
        let stats_positions = stats_excluded.iter_ones().collect();
        Self {
            data,
            model,
            trainable,
            trainable_mask,
            stats_excluded,
            stats_positions,
        }
    }

    /// Flat parameter count `d`.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.model.num_params()
    }

    /// The client-side codec of the configured strategy, with an empty
    /// residual bank.
    #[must_use]
    pub fn codec(&self, cfg: &SimConfig) -> ClientCodec {
        ClientCodec::new(
            &cfg.strategy,
            cfg.round_size,
            self.data.client_weights(),
            self.trainable,
            self.dim(),
            self.stats_excluded.clone(),
        )
    }

    /// Evaluates the model on the test set after round `round` when the
    /// schedule asks for it (every `eval_every` rounds and after the
    /// last), filling `rec`'s accuracy and loss.
    pub fn eval_on_schedule(
        &self,
        cfg: &SimConfig,
        scratch: &mut ScratchPool,
        round: u32,
        rec: &mut RoundRecord,
    ) {
        let every = cfg.eval_every.max(1);
        if (round + 1).is_multiple_of(every) || round + 1 == cfg.rounds {
            // Evaluate through a pooled slot so eval rounds reuse warm
            // forward buffers. At test-set batch sizes the `parallel`
            // feature shards GEMM row blocks across threads inside the
            // kernel (bit-identical to serial — rows never share an
            // accumulator).
            let mut slot = scratch.take_train_slot();
            let (tx, ty) = self.data.test_set();
            let m = self.model.evaluate_into(tx, ty, &mut slot.scratch);
            scratch.put_train_slot(slot);
            rec.accuracy = Some(if cfg.use_top5 { m.top5 } else { m.top1 });
            rec.loss = Some(m.loss);
        }
    }
}

/// The server-side state of a run: the strategy, staleness, and the
/// network, device and availability models the server schedules
/// against.
pub struct ServerSetup {
    /// The configured strategy (seed label `"strategy"`).
    pub strategy: Box<dyn Strategy>,
    /// On-demand per-client links; only participants are ever sampled.
    links: LinkCache,
    /// On-demand per-client compute speeds.
    speeds: SpeedCache,
    /// Lazy availability process; `None` means every client is always
    /// online. Clients are materialised on first touch, so the resident
    /// state is O(touched clients), not O(N).
    availability: Option<LazyAvailability>,
    /// Position change history and client versions.
    pub staleness: StalenessTracker,
    /// The round RNG (invitation draws, sticky rebalancing).
    rng: StdRng,
    /// Multiplier applied to byte counts when computing transfer *times*
    /// (1.0 unless `cfg.paper_time_model`).
    time_byte_factor: f64,
    /// Parameter count used for compute-time estimation.
    time_params: usize,
}

impl ServerSetup {
    /// Builds the server-side state for `cfg` over `setup`'s model.
    #[must_use]
    pub fn new(cfg: &SimConfig, setup: &RunSetup) -> Self {
        let n = setup.data.num_clients();
        let dim = setup.dim();
        let mut strat_rng = seeded_rng(cfg.seed, "strategy", 0);
        let strategy = build_strategy(
            cfg,
            setup.data.client_weights(),
            setup.trainable,
            dim,
            setup.stats_excluded.clone(),
            &mut strat_rng,
        );
        let availability = cfg.availability.map(|a| {
            LazyAvailability::new(
                n,
                a.online_fraction,
                a.mean_session_rounds,
                derive_seed(cfg.seed, "availability", 0),
            )
        });
        let (time_byte_factor, time_params) = if cfg.paper_time_model {
            (
                cfg.model.paper_scale_factor(dim),
                cfg.model.reference_params as usize,
            )
        } else {
            (1.0, dim)
        };
        Self {
            strategy,
            links: LinkCache::new(cfg.network, derive_seed(cfg.seed, "network", 0)),
            speeds: SpeedCache::new(cfg.device, derive_seed(cfg.seed, "devices", 0)),
            availability,
            staleness: StalenessTracker::new(dim, n),
            rng: seeded_rng(cfg.seed, "simulation", 0),
            time_byte_factor,
            time_params,
        }
    }

    /// Plans round `round`'s invitations among the clients for which
    /// `alive` holds and, when availability is modelled, that are online.
    /// Only the candidates the strategy considers are queried.
    pub fn plan_round(&mut self, round: u32, alive: impl Fn(usize) -> bool) -> RoundPlan {
        let Self {
            strategy,
            availability,
            rng,
            ..
        } = self;
        match availability {
            Some(av) => {
                strategy.plan_round(round, rng, &mut |id| alive(id) && av.is_online(id, round))
            }
            None => strategy.plan_round(round, rng, &mut |id| alive(id)),
        }
    }

    /// Download accounting: every invited client syncs the positions it
    /// is stale on (§2.3's partial synchronisation) plus the strategy's
    /// mask. Returns the bytes per invited client.
    pub fn sync_invited(&mut self, round: u32, invited: &[(usize, Group)]) -> Vec<u64> {
        // Price every download before marking anyone synced: a
        // multinomial draw may invite one client twice.
        let mask_bytes = self.strategy.mask_download_bytes(round);
        let bytes = invited
            .iter()
            .map(|&(id, _)| self.staleness.download_bytes(id) + mask_bytes)
            .collect();
        for &(id, _) in invited {
            self.staleness.mark_synced(id);
        }
        bytes
    }

    /// Applies the round's masked `update` to `setup.model`, adds the
    /// plain mean of the kept clients' BN-statistic drifts `stats_rows`
    /// (Appendix D) straight into the parameters, records the changed
    /// positions with the staleness tracker, and recycles the update.
    /// Returns the number of changed positions.
    pub fn apply_update(
        &mut self,
        setup: &mut RunSetup,
        update: MaskedUpdate,
        stats_rows: &[&[f32]],
        changed: &mut Vec<usize>,
        scratch: &mut ScratchPool,
    ) -> usize {
        // A masking strategy's update covers O(q·d) positions; the
        // word-level scatter / masked AXPY touches only those, and the
        // changed-position scan walks the mask, not the dense vector.
        let stats_positions = &setup.stats_positions;
        update.add_to(setup.model.params_mut());
        changed.clear();
        update.for_each_nonzero(|j, _| {
            // Strategy contract: BN-statistic positions are uncovered or
            // carry exact zeros — a nonzero here would double-apply with
            // the Appendix-D mean below.
            debug_assert!(
                stats_positions.binary_search(&j).is_err(),
                "strategy update has a nonzero value at BN-statistic position {j}"
            );
            changed.push(j);
        });
        if !stats_rows.is_empty() {
            let inv_k = 1.0 / stats_rows.len() as f32;
            let params = setup.model.params_mut();
            for (j, &p) in stats_positions.iter().enumerate() {
                let mean: f32 = stats_rows.iter().map(|row| row[j]).sum::<f32>() * inv_k;
                params[p] += mean;
                if mean != 0.0 {
                    changed.push(p);
                }
            }
        }
        self.staleness.record_update(changed.iter().copied());
        scratch.put_update(update);
        changed.len()
    }

    /// Sticky rebalancing with the kept invitations `kept` (indices
    /// into `invited`).
    pub fn finish_round(&mut self, round: u32, invited: &[(usize, Group)], kept: &[usize]) {
        let ids = |group: Group| -> Vec<usize> {
            kept.iter()
                .map(|&i| invited[i])
                .filter(|&(_, g)| g == group)
                .map(|(id, _)| id)
                .collect()
        };
        let (sticky, fresh) = (ids(Group::Sticky), ids(Group::Fresh));
        self.strategy
            .finish_round(round, &mut self.rng, &sticky, &fresh);
    }

    /// Modeled seconds for client `id` to download `down_bytes` and run
    /// the round's local steps; `upload_secs` is left at 0.
    pub fn download_compute_time(
        &mut self,
        cfg: &SimConfig,
        id: usize,
        down_bytes: u64,
    ) -> ClientRoundTime {
        let t_down = (down_bytes as f64 * self.time_byte_factor) as u64;
        ClientRoundTime {
            download_secs: seconds_for_bytes(t_down, self.links.get(id).down_mbps),
            compute_secs: cfg.local_steps as f64
                * cfg
                    .device
                    .step_seconds(self.time_params, self.speeds.get(id)),
            upload_secs: 0.0,
        }
    }

    /// Modeled seconds for client `id` to upload `up_bytes`.
    pub fn upload_secs(&mut self, id: usize, up_bytes: u64) -> f64 {
        let t_up = (up_bytes as f64 * self.time_byte_factor) as u64;
        seconds_for_bytes(t_up, self.links.get(id).up_mbps)
    }
}

/// Over-commitment (§5.6): the invitations kept this round — the
/// fastest `keep_sticky` of the sticky invites, then the fastest
/// `keep_fresh` of the fresh ones — as indices into
/// [`RoundPlan::invited`] order, given each invite's modeled `times`.
#[must_use]
pub fn keep_fastest(plan: &RoundPlan, times: &[ClientRoundTime]) -> Vec<usize> {
    let sticky_n = plan.sticky_invites.len();
    let (sticky_times, fresh_times) = times.split_at(sticky_n);
    let mut kept = fastest(sticky_times, plan.keep_sticky);
    kept.extend(
        fastest(fresh_times, plan.keep_fresh)
            .iter()
            .map(|&i| i + sticky_n),
    );
    kept
}
