//! Hot-path kernel microbenchmarks: pre-refactor baselines vs the current
//! word-level kernels, with a machine-readable `BENCH_kernels.json`.
//!
//! This is the perf ledger for the compute spine (top-k sparsification,
//! masked delta aggregation, masked apply, and the `K × steps` local
//! client training loop — the per-round dominant costs). The *baselines
//! are compiled into this experiment*: they are verbatim copies of the
//! pre-refactor implementations (per-bit scope filtering + index-keyed
//! introselect; per-client indirect sparse scatter; deep-clone-per-client
//! allocating training, see the `local_train_baseline` module), so every
//! run re-measures the speedup on the machine at hand rather than
//! trusting historical numbers. Each pair is also checked for identical
//! output before timing.
//!
//! Run with `expt kernels [--quick] [--out DIR] [--check FILE]
//! [--filter KERNEL]`; writes `BENCH_kernels.json` into the output
//! directory. With `--check FILE` the run fails if the committed ledger
//! `FILE` is missing any kernel entry this benchmark emits (CI's
//! ledger-freshness gate). With `--filter KERNEL` only entries whose
//! name contains the substring are measured and emitted — the fast loop
//! for re-running one kernel while tuning (input generation is shared
//! and unconditional, so a filtered entry sees exactly the data the full
//! run would hand it).
//!
//! The `gemm_*` entries time the blocked [`gluefl_tensor::gemm`] kernels
//! against their plain-loop reference twins at the paper's MLP shapes
//! ([192, 96] hidden layers, batch 16, plus an eval-sized batch); each
//! pair is asserted bit-identical before timing.
//!
//! The `wire_*` entries time the [`gluefl_wire`] frame writer (the
//! per-client serialize/deserialize step of every round) against
//! first-cut twins — fresh allocations, per-element pushes, per-bit
//! bitmap walks, and the definitional bit-at-a-time CRC-16 — at the
//! paper's upload shape (q = 4% of d): the legacy v1 layout (bitmap
//! positions) and the v2 entropy layout (`wire_encode_varint`, the
//! delta-varint position section). Every encoder pair is asserted
//! byte-identical and the decoder pair reconstruction-identical before
//! timing.
//!
//! The `stream_fold_sparse` entry times the round loop's aggregation
//! phase end to end: the per-arrival streaming fold (the
//! `StreamingAggregator` path the socket server and the simulator now
//! share) against the pre-refactor collect-then-aggregate round, both
//! producing bit-identical `MaskedUpdate`s over the same K = 30 sparse
//! uploads.

use super::local_train_baseline::{baseline_local_train, pooled_local_train, BaselineMlp};
use crate::ExptOpts;
use gluefl_core::aggregate::{
    accumulate_sparse, accumulate_sparse_packed, accumulate_weighted_values,
};
use gluefl_core::batch_local_train_into;
use gluefl_core::ScratchPool;
use gluefl_core::TrainSlot;
use gluefl_data::{DatasetProfile, SyntheticFlDataset};
use gluefl_ml::{BatchTrainScratch, Mlp, MlpConfig, Sgd, TrainScratch};
use gluefl_tensor::gemm::{
    gemm_nn, gemm_nn_batch, gemm_nn_ref, gemm_nt, gemm_nt_ref, gemm_tn, gemm_tn_ref, BatchOperand,
};
use gluefl_tensor::rng::derive_seed;
use gluefl_tensor::{
    top_k_abs_masked_into, top_k_abs_packed_into, vecops, BitMask, MaskedUpdate, SparseUpdate,
    TopKScope, TopKScratch,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::time::Instant;

/// One measured kernel pair.
struct Entry {
    name: &'static str,
    baseline_ns: f64,
    new_ns: f64,
}

impl Entry {
    fn speedup(&self) -> f64 {
        self.baseline_ns / self.new_ns
    }
}

/// Runs the kernel benchmark suite and writes `BENCH_kernels.json`.
///
/// # Errors
/// Returns an error when the output directory cannot be written.
pub fn run(opts: &ExptOpts) -> Result<(), String> {
    // Paper scale: ShuffleNet-sized flat model, q_shr = 16%, q = 20%.
    let d = if opts.quick { 100_000 } else { 1_000_000 };
    let reps = if opts.quick { 3 } else { 9 };
    let clients = 30;

    let mut rng = StdRng::seed_from_u64(opts.seed);
    let values: Vec<f32> = (0..d).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let mask = BitMask::from_indices(d, (0..d).filter(|_| rng.gen::<f64>() < 0.16));
    let k = d / 25; // q − q_shr = 4%

    let mut entries = Vec::new();

    // --- top-k over the Outside scope (Algorithm 3 line 17). ---
    if opts.kernel_selected("topk_outside_16pct_mask") {
        let expected = baseline_top_k_outside(&values, k, &mask);
        let mut scratch = TopKScratch::with_capacity(d);
        let got = top_k_abs_masked_into(&values, k, TopKScope::Outside(&mask), &mut scratch);
        assert_eq!(got, expected.as_slice(), "top-k kernels disagree");
        let (baseline_ns, new_ns) = time_pair_ns(
            reps,
            || baseline_top_k_outside(&values, k, &mask).len(),
            || top_k_abs_masked_into(&values, k, TopKScope::Outside(&mask), &mut scratch).len(),
        );
        entries.push(Entry {
            name: "topk_outside_16pct_mask",
            baseline_ns,
            new_ns,
        });
    }

    // --- top-k on a regeneration round (Algorithm 3 line 17 with the
    // shared mask dropped): k = q·d = 20% over every position except the
    // BN statistics, modelled as one 64-value run per 4096 positions. ---
    if opts.kernel_selected("topk_regen_full_q") {
        let stats = BitMask::from_indices(d, (0..d).filter(|i| i % 4096 < 64));
        let k_regen = d / 5;
        let expected = baseline_top_k_outside(&values, k_regen, &stats);
        let mut scratch = TopKScratch::with_capacity(d);
        let got = top_k_abs_masked_into(&values, k_regen, TopKScope::Outside(&stats), &mut scratch);
        assert_eq!(
            got,
            expected.as_slice(),
            "regeneration top-k kernels disagree"
        );
        let (baseline_ns, new_ns) = time_pair_ns(
            reps,
            || baseline_top_k_outside(&values, k_regen, &stats).len(),
            || {
                top_k_abs_masked_into(&values, k_regen, TopKScope::Outside(&stats), &mut scratch)
                    .len()
            },
        );
        entries.push(Entry {
            name: "topk_regen_full_q",
            baseline_ns,
            new_ns,
        });
    }

    // --- pool-parallel top-k filter pass (parallel builds only). ---
    // The All-scope selection over the full 1M-dim vector routes its
    // filter pass through the work-stealing pool; the baseline is the
    // same verbatim pre-refactor twin (an all-zeros Outside scope visits
    // every position).
    #[cfg(feature = "parallel")]
    if opts.kernel_selected("topk_parallel") {
        let zeros = BitMask::zeros(d);
        let expected = baseline_top_k_outside(&values, k, &zeros);
        let mut scratch = TopKScratch::with_capacity(d);
        let got = top_k_abs_masked_into(&values, k, TopKScope::All, &mut scratch);
        assert_eq!(got, expected.as_slice(), "parallel top-k diverged");
        let (baseline_ns, new_ns) = time_pair_ns(
            reps,
            || baseline_top_k_outside(&values, k, &zeros).len(),
            || top_k_abs_masked_into(&values, k, TopKScope::All, &mut scratch).len(),
        );
        entries.push(Entry {
            name: "topk_parallel",
            baseline_ns,
            new_ns,
        });
    }

    // --- masked delta aggregation (Algorithm 3 lines 21–24). ---
    if opts.kernel_selected("aggregate_masked_30_clients") {
        let splits: Vec<(SparseUpdate, SparseUpdate)> = (0..clients)
            .map(|c| {
                let mut crng = StdRng::seed_from_u64(opts.seed ^ (c as u64 + 1));
                let shared_vals: Vec<(u32, f32)> = mask
                    .iter_ones()
                    .map(|i| (i as u32, crng.gen_range(-1.0f32..1.0)))
                    .collect();
                let shared = SparseUpdate::from_pairs(d, shared_vals);
                let mut uniq = Vec::new();
                for i in 0..d as u32 {
                    if crng.gen::<f64>() < 0.04 {
                        uniq.push((i, crng.gen_range(-1.0f32..1.0)));
                    }
                }
                (shared, SparseUpdate::from_pairs(d, uniq))
            })
            .collect();
        let weights: Vec<f32> = (0..clients).map(|c| 1.0 / (c + 1) as f32).collect();

        let expected = baseline_aggregate(&splits, &weights, d);
        let mut pool = ScratchPool::new();
        let got = fused_aggregate(&splits, &weights, d, &mask, &mut pool);
        // Per accumulator position both paths add contributions in client
        // order, so the fused kernel is bit-identical to the baseline.
        assert_eq!(expected, got, "aggregation kernels diverged");
        pool.put(got);
        let (baseline_ns, new_ns) = time_pair_ns(
            reps,
            || baseline_aggregate(&splits, &weights, d).len(),
            || {
                let out = fused_aggregate(&splits, &weights, d, &mask, &mut pool);
                let n = out.len();
                pool.put(out);
                n
            },
        );
        entries.push(Entry {
            name: "aggregate_masked_30_clients",
            baseline_ns,
            new_ns,
        });
    }

    // --- packed unique aggregation + packed top-k (the O(q·d) GlueFL
    // aggregate). Baseline: the dense-era staging — accumulate the 30
    // clients' unique parts into a d-length buffer and run the dense
    // top-k over it. New: accumulate straight into (support, packed)
    // form and select over the packed pair, never touching O(d) floats.
    // Both paths are gated for identical selections and bit-identical
    // sums before timing. ---
    if opts.kernel_selected("aggregate_packed_topk") {
        let uniques: Vec<SparseUpdate> = (0..clients)
            .map(|c| {
                let mut crng = StdRng::seed_from_u64(opts.seed ^ 0x9a77 ^ ((c as u64) << 8));
                let mut pairs = Vec::new();
                for i in 0..d as u32 {
                    if crng.gen::<f64>() < 0.04 {
                        pairs.push((i, crng.gen_range(-1.0f32..1.0)));
                    }
                }
                SparseUpdate::from_pairs(d, pairs)
            })
            .collect();
        let weights: Vec<f32> = (0..clients).map(|c| 1.0 / (c + 1) as f32).collect();
        let uentries: Vec<(f32, &SparseUpdate)> =
            uniques.iter().zip(&weights).map(|(u, &w)| (w, u)).collect();
        let mut pool = ScratchPool::new();
        let mut dense_scratch = TopKScratch::with_capacity(d);
        let mut packed_scratch = TopKScratch::new();
        let mut support = BitMask::zeros(d);
        let mut offsets = Vec::new();
        let mut packed = Vec::new();
        // Equivalence gate: same selection, bit-identical sums.
        {
            let dense = accumulate_sparse(&uentries, d, &mut pool);
            let want =
                top_k_abs_masked_into(&dense, k, TopKScope::Outside(&mask), &mut dense_scratch)
                    .to_vec();
            accumulate_sparse_packed(&uentries, d, &mut support, &mut offsets, &mut packed);
            let got = top_k_abs_packed_into(
                &support,
                &packed,
                k,
                TopKScope::Outside(&mask),
                &mut packed_scratch,
            );
            assert_eq!(got, want.as_slice(), "packed aggregate top-k diverged");
            let mut r = 0usize;
            support.for_each_one(|i| {
                assert_eq!(
                    packed[r].to_bits(),
                    dense[i].to_bits(),
                    "packed sum diverged at {i}"
                );
                r += 1;
            });
            pool.put(dense);
        }
        let (baseline_ns, new_ns) = time_pair_ns(
            reps,
            || {
                let dense = accumulate_sparse(&uentries, d, &mut pool);
                let n =
                    top_k_abs_masked_into(&dense, k, TopKScope::Outside(&mask), &mut dense_scratch)
                        .len();
                pool.put(dense);
                n
            },
            || {
                accumulate_sparse_packed(&uentries, d, &mut support, &mut offsets, &mut packed);
                top_k_abs_packed_into(
                    &support,
                    &packed,
                    k,
                    TopKScope::Outside(&mask),
                    &mut packed_scratch,
                )
                .len()
            },
        );
        entries.push(Entry {
            name: "aggregate_packed_topk",
            baseline_ns,
            new_ns,
        });
    }

    // --- masked server-update application (the simulator apply path). ---
    // Baseline: the pre-refactor dense walk — densified update added with
    // `add_assign` over all d positions, then a dense changed-position
    // scan. New: `MaskedUpdate::add_to` (word-level scatter) plus the
    // mask-driven `for_each_nonzero` scan. Two densities: the full round
    // support q = 20% (near break-even: a random 20% mask leaves almost
    // no skippable words) and the slowly-shifting q − q_shr = 4% tail,
    // where the structural sparsity pays off.
    for (name, density) in [("masked_apply_20pct", 0.20), ("masked_apply_4pct", 0.04)] {
        let apply_mask = BitMask::from_indices(d, (0..d).filter(|_| rng.gen::<f64>() < density));
        let packed: Vec<f32> = (0..apply_mask.count_ones())
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect();
        let update = MaskedUpdate::new(apply_mask, packed);
        let dense_update = update.to_dense();
        let params: Vec<f32> = (0..d).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        // The inputs above always consume `rng`, so a filtered run hands
        // the surviving entries exactly the full run's data.
        if !opts.kernel_selected(name) {
            continue;
        }
        // Equivalence gate: both apply paths and both scans must agree.
        {
            let mut a = params.clone();
            vecops::add_assign(&mut a, &dense_update);
            let mut b = params.clone();
            update.add_to(&mut b);
            assert!(
                a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()),
                "apply kernels diverged"
            );
            let dense_changed = dense_update.iter().filter(|v| **v != 0.0).count();
            let mut masked_changed = 0usize;
            update.for_each_nonzero(|_, _| masked_changed += 1);
            assert_eq!(dense_changed, masked_changed, "changed scans diverged");
        }
        let mut params_base = params.clone();
        let mut params_new = params;
        let (baseline_ns, new_ns) = time_pair_ns(
            reps,
            || {
                vecops::add_assign(&mut params_base, &dense_update);
                dense_update.iter().filter(|v| **v != 0.0).count()
            },
            || {
                update.add_to(&mut params_new);
                let mut changed = 0usize;
                update.for_each_nonzero(|_, _| changed += 1);
                changed
            },
        );
        entries.push(Entry {
            name,
            baseline_ns,
            new_ns,
        });
    }

    // --- run-walk masked scatter (the `MaskedUpdate::add_to` inner loop). ---
    // Baseline: the per-bit word walk `BitMask::scatter_add` (one scalar
    // add per set bit). New: `BitMask::scatter_add_runs` — one contiguous
    // AXPY per run, the kernel `add_to` now dispatches to. The shape is
    // the run-structured case the apply path actually sees: a blocky
    // shared mask (64-wide runs, 16% density, mirroring layer-clustered
    // supports), where the run walk amortises the per-bit dispatch.
    {
        let rle_mask = BitMask::from_indices(d, (0..d).filter(|i| i % 400 < 64));
        let rle_packed: Vec<f32> = (0..rle_mask.count_ones())
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect();
        // Inputs always consume `rng`, so filtered runs see the full
        // run's data.
        if opts.kernel_selected("masked_apply_rle") {
            let params: Vec<f32> = values.clone();
            let mut params_base = params.clone();
            let mut params_new = params;
            rle_mask.scatter_add(&mut params_base, &rle_packed, 1.0);
            rle_mask.scatter_add_runs(&mut params_new, &rle_packed, 1.0);
            assert!(
                params_base
                    .iter()
                    .zip(&params_new)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "run-walk scatter diverged from the per-bit walk"
            );
            let (baseline_ns, new_ns) = time_pair_ns(
                reps,
                || {
                    rle_mask.scatter_add(&mut params_base, &rle_packed, 1.0);
                    rle_packed.len()
                },
                || {
                    rle_mask.scatter_add_runs(&mut params_new, &rle_packed, 1.0);
                    rle_packed.len()
                },
            );
            entries.push(Entry {
                name: "masked_apply_rle",
                baseline_ns,
                new_ns,
            });
        }
    }

    // --- local client training (the K × steps per-round inner loop). ---
    // Baseline: the pre-refactor path — deep model clone per client,
    // fresh activation/cache/gradient/velocity allocations per minibatch.
    // New: `local_train_into` over one pooled `TrainSlot` (parameter
    // buffer `copy_from_slice`, reused `TrainScratch`). Both are gated
    // for bit-identical deltas before timing. The shape mirrors the
    // simulator's paper setup: FEMNIST profile (64 features, 62 classes),
    // ShuffleNet-like hidden [192, 96] with BatchNorm (~38k params),
    // batch 16, E = 10 local steps, K = 30 kept clients. NOTE: the
    // arithmetic is pinned bit-identical — including through the blocked
    // GEMM linear kernels, which preserve every reduction order — so the
    // serial entries measure the allocator overhead plus the GEMM win on
    // the matmul-bound minibatch steps.
    if opts.kernel_selected("local_train_step") || opts.kernel_selected("local_train_round") {
        let (clients, steps) = if opts.quick { (6, 3) } else { (30, 10) };
        let batch = 16;
        let (lr, momentum) = (0.05f32, 0.9f32);
        let mut ds_cfg = DatasetProfile::Femnist.config(0.02);
        ds_cfg.test_samples = 32;
        let mcfg = MlpConfig {
            input_dim: ds_cfg.feature_dim,
            hidden: vec![192, 96],
            classes: ds_cfg.classes,
            batch_norm: true,
        };
        let mut mrng = StdRng::seed_from_u64(opts.seed ^ 0x10c4);
        let model = Mlp::new(mcfg, &mut mrng);
        let proto = BaselineMlp::from_model(&model);
        let data = SyntheticFlDataset::generate(ds_cfg, opts.seed ^ 0x77);
        assert!(data.num_clients() >= clients, "dataset too small");
        let global = model.params().to_vec();
        let trainable_mask = model.layout().trainable_mask();
        let stats_positions: Vec<usize> = trainable_mask.not().iter_ones().collect();
        let dm = model.num_params();
        let mut slot = TrainSlot::default();

        // Equivalence gate: bit-identical deltas and BN drift per client.
        for id in 0..clients.min(4) {
            let seed = derive_seed(opts.seed, "bench-train", id as u64);
            let mut out_b = vec![0.0f32; dm];
            let mut stats_b = vec![0.0f32; stats_positions.len()];
            baseline_local_train(
                &proto,
                &global,
                &data.client(id),
                steps,
                batch,
                lr,
                momentum,
                seed,
                &mut out_b,
                &stats_positions,
                &mut stats_b,
                &trainable_mask,
            );
            let mut out_n = vec![0.0f32; dm];
            let mut stats_n = vec![0.0f32; stats_positions.len()];
            pooled_local_train(
                &model,
                &global,
                &data,
                id,
                steps,
                batch,
                lr,
                momentum,
                seed,
                &mut out_n,
                &stats_positions,
                &mut stats_n,
                &trainable_mask,
                &mut slot,
            );
            assert!(
                out_b
                    .iter()
                    .zip(&out_n)
                    .chain(stats_b.iter().zip(&stats_n))
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "local-train kernels diverged for client {id}"
            );
        }

        // Per-step: one loss_and_grad + SGD update on a fixed minibatch.
        if opts.kernel_selected("local_train_step") {
            let (bx, by) = data
                .client(0)
                .sample_batch(&mut StdRng::seed_from_u64(opts.seed ^ 0x51ec), batch);
            let mut bmodel = proto.clone();
            let mut bopt = Sgd::new(dm, lr, momentum);
            let mut params_new = global.clone();
            let mut scratch = TrainScratch::new();
            scratch.reset_velocity();
            let topo = model.topology();
            let (baseline_ns, new_ns) = time_pair_ns(
                reps,
                || {
                    let (_, g) = bmodel.loss_and_grad(&bx, &by);
                    bopt.step(bmodel.params_mut(), &g);
                    g.len()
                },
                || {
                    let _ = topo.loss_and_grad_into(&mut params_new, &bx, &by, &mut scratch);
                    scratch.sgd_step(&mut params_new, lr, momentum);
                    params_new.len()
                },
            );
            entries.push(Entry {
                name: "local_train_step",
                baseline_ns,
                new_ns,
            });
        }

        // Per-round: every client starts from the global weights and
        // trains `steps` minibatches — the simulator's whole training
        // phase. Baseline: the clone-era per-client loop (deep model
        // clone + fresh allocations per minibatch). New: the lockstep
        // *batched* driver — all K clients stacked into batched GEMMs
        // from one pooled `BatchTrainScratch`, exactly the arm
        // `Simulation::train_invited` runs.
        if opts.kernel_selected("local_train_round") {
            let mut out_b = vec![0.0f32; dm];
            let mut stats_b = vec![0.0f32; stats_positions.len()];
            let ids: Vec<usize> = (0..clients).collect();
            let seeds: Vec<u64> = ids
                .iter()
                .map(|&id| derive_seed(opts.seed, "bench-round", id as u64))
                .collect();
            let topo = model.topology();
            let mut batch_scratch = BatchTrainScratch::default();
            let mut outs: Vec<Vec<f32>> = (0..clients).map(|_| vec![0.0f32; dm]).collect();
            let stats_len = stats_positions.len();
            let mut stats_all = vec![0.0f32; clients * stats_len];
            // Equivalence gate: the one-call batched driver reproduces
            // the clone-era baseline bitwise for every client.
            batch_local_train_into(
                topo,
                &global,
                &data,
                &ids,
                &seeds,
                steps,
                batch,
                lr,
                momentum,
                &mut outs,
                &stats_positions,
                &mut stats_all,
                &trainable_mask,
                &mut batch_scratch,
                None,
            );
            for id in 0..clients {
                baseline_local_train(
                    &proto,
                    &global,
                    &data.client(id),
                    steps,
                    batch,
                    lr,
                    momentum,
                    seeds[id],
                    &mut out_b,
                    &stats_positions,
                    &mut stats_b,
                    &trainable_mask,
                );
                assert!(
                    out_b
                        .iter()
                        .zip(&outs[id])
                        .chain(
                            stats_b
                                .iter()
                                .zip(&stats_all[id * stats_len..][..stats_len])
                        )
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "batched round driver diverged for client {id}"
                );
            }
            let (baseline_ns, new_ns) = time_pair_ns(
                reps,
                || {
                    for (id, &seed) in seeds.iter().enumerate().take(clients) {
                        baseline_local_train(
                            &proto,
                            &global,
                            &data.client(id),
                            steps,
                            batch,
                            lr,
                            momentum,
                            seed,
                            &mut out_b,
                            &stats_positions,
                            &mut stats_b,
                            &trainable_mask,
                        );
                    }
                    clients
                },
                || {
                    batch_local_train_into(
                        topo,
                        &global,
                        &data,
                        &ids,
                        &seeds,
                        steps,
                        batch,
                        lr,
                        momentum,
                        &mut outs,
                        &stats_positions,
                        &mut stats_all,
                        &trainable_mask,
                        &mut batch_scratch,
                        None,
                    );
                    clients
                },
            );
            entries.push(Entry {
                name: "local_train_round",
                baseline_ns,
                new_ns,
            });
        }
    }

    // --- blocked GEMM vs plain-loop reference (the linear-layer spine). ---
    run_gemm_entries(opts, reps, &mut entries);

    // --- wire codec: sparse-frame encode/decode (gluefl-wire). ---
    run_wire_entries(opts, reps, d, &values, &mut entries);

    // --- streaming aggregation: per-arrival fold vs collect-then-fold. ---
    run_stream_entries(opts, reps, d, &mut entries);

    // --- million-client control plane: availability + round planning. ---
    run_scale_kernels(opts, reps, &mut entries);

    // --- Report. ---
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"dim\": {d},");
    let _ = writeln!(json, "  \"clients\": {clients},");
    let _ = writeln!(json, "  \"kernels\": [");
    for (i, e) in entries.iter().enumerate() {
        println!(
            "{:<32} baseline {:>12.0} ns   new {:>12.0} ns   speedup {:>6.2}x",
            e.name,
            e.baseline_ns,
            e.new_ns,
            e.speedup()
        );
        let comma = if i + 1 < entries.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"baseline_ns\": {:.0}, \"new_ns\": {:.0}, \"speedup\": {:.2}}}{}",
            e.name,
            e.baseline_ns,
            e.new_ns,
            e.speedup(),
            comma
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("create {}: {e}", opts.out_dir.display()))?;
    let path = opts.out_dir.join("BENCH_kernels.json");
    std::fs::write(&path, json).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    if let Some(committed) = &opts.check {
        check_ledger_freshness(committed, &entries)?;
    }
    Ok(())
}

/// Times the blocked GEMM kernels against their plain-loop reference
/// twins at the paper MLP's hottest shapes and appends one ledger entry
/// per layout: the training-batch forward/backward-data/backward-weights
/// trio on the 192 → 96 hidden layer, plus an eval-sized forward batch
/// on the 64 → 192 input layer. Every pair is asserted **bit-identical**
/// before timing — blocking must not reassociate any reduction.
fn run_gemm_entries(opts: &ExptOpts, reps: usize, entries: &mut Vec<Entry>) {
    // (name, m = batch, n = out_dim, k = in_dim, inner timing reps).
    let shapes: [(&'static str, usize, usize, usize, usize); 4] = [
        ("gemm_nn_b16", 16, 96, 192, 64),
        ("gemm_tn_b16", 16, 96, 192, 64),
        ("gemm_nt_b16", 16, 96, 192, 64),
        ("gemm_nn_eval_b1024", 1024, 192, 64, 4),
    ];
    for (name, m, n, k, inner) in shapes {
        if !opts.kernel_selected(name) {
            continue;
        }
        let mut rng = StdRng::seed_from_u64(opts.seed ^ 0x6e44);
        let x: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let w: Vec<f32> = (0..n * k).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let bias: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        // Backward-layout operands: d_out is batch × out_dim, and the
        // weight-gradient accumulator starts from a non-trivial value.
        let d_out: Vec<f32> = (0..m * n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let grad0: Vec<f32> = (0..n * k).map(|_| rng.gen_range(-1.0f32..1.0)).collect();

        // Each timing sample runs `inner` back-to-back invocations so
        // microsecond kernels are measured over ~1 ms windows; the medians
        // are divided back down so the ledger reports per-invocation ns,
        // comparable with every other entry.
        let (batch_baseline_ns, batch_new_ns) = match name {
            "gemm_nn_b16" | "gemm_nn_eval_b1024" => {
                let mut got = vec![0.0f32; m * n];
                let mut want = vec![0.0f32; m * n];
                gemm_nn(&x, &w, &bias, m, n, k, &mut got);
                gemm_nn_ref(&x, &w, &bias, m, n, k, &mut want);
                assert_bits_identical(&got, &want, name);
                time_pair_ns(
                    reps,
                    || {
                        for _ in 0..inner {
                            gemm_nn_ref(&x, &w, &bias, m, n, k, &mut want);
                        }
                        want.len()
                    },
                    || {
                        for _ in 0..inner {
                            gemm_nn(&x, &w, &bias, m, n, k, &mut got);
                        }
                        got.len()
                    },
                )
            }
            "gemm_tn_b16" => {
                let mut got = vec![0.0f32; m * k];
                let mut want = vec![0.0f32; m * k];
                gemm_tn(&d_out, &w, m, n, k, &mut got);
                gemm_tn_ref(&d_out, &w, m, n, k, &mut want);
                assert_bits_identical(&got, &want, name);
                time_pair_ns(
                    reps,
                    || {
                        for _ in 0..inner {
                            gemm_tn_ref(&d_out, &w, m, n, k, &mut want);
                        }
                        want.len()
                    },
                    || {
                        for _ in 0..inner {
                            gemm_tn(&d_out, &w, m, n, k, &mut got);
                        }
                        got.len()
                    },
                )
            }
            "gemm_nt_b16" => {
                let mut got = grad0.clone();
                let mut want = grad0.clone();
                gemm_nt(&d_out, &x, m, n, k, &mut got);
                gemm_nt_ref(&d_out, &x, m, n, k, &mut want);
                assert_bits_identical(&got, &want, name);
                time_pair_ns(
                    reps,
                    || {
                        for _ in 0..inner {
                            gemm_nt_ref(&d_out, &x, m, n, k, &mut want);
                        }
                        want.len()
                    },
                    || {
                        for _ in 0..inner {
                            gemm_nt(&d_out, &x, m, n, k, &mut got);
                        }
                        got.len()
                    },
                )
            }
            other => unreachable!("unmapped gemm entry {other}"),
        };
        entries.push(Entry {
            name,
            baseline_ns: batch_baseline_ns / inner as f64,
            new_ns: batch_new_ns / inner as f64,
        });
    }

    // Batched-client stacking: the round's 30 × (16 × 64 → 192) step-0
    // forwards in one `gemm_nn_batch` call (shared weights → a single
    // stacked GEMM, row-sharded across the pool under `parallel`) vs the
    // per-client `gemm_nn` loop it replaced. Gated bit-identical.
    if opts.kernel_selected("gemm_batch_clients") {
        let (kclients, mb, n, kk, inner) = (30usize, 16usize, 192usize, 64usize, 8usize);
        let mut rng = StdRng::seed_from_u64(opts.seed ^ 0xba7c);
        let a: Vec<f32> = (0..kclients * mb * kk)
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect();
        let w: Vec<f32> = (0..n * kk).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let bias: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let mut got = vec![0.0f32; kclients * mb * n];
        let mut want = vec![0.0f32; kclients * mb * n];
        gemm_nn_batch(
            &a,
            &BatchOperand::Shared(&w),
            &BatchOperand::Shared(&bias),
            kclients,
            mb,
            n,
            kk,
            &mut got,
        );
        for c in 0..kclients {
            gemm_nn(
                &a[c * mb * kk..][..mb * kk],
                &w,
                &bias,
                mb,
                n,
                kk,
                &mut want[c * mb * n..][..mb * n],
            );
        }
        assert_bits_identical(&got, &want, "gemm_batch_clients");
        let (batch_baseline_ns, batch_new_ns) = time_pair_ns(
            reps,
            || {
                for _ in 0..inner {
                    for c in 0..kclients {
                        gemm_nn(
                            &a[c * mb * kk..][..mb * kk],
                            &w,
                            &bias,
                            mb,
                            n,
                            kk,
                            &mut want[c * mb * n..][..mb * n],
                        );
                    }
                }
                want.len()
            },
            || {
                for _ in 0..inner {
                    gemm_nn_batch(
                        &a,
                        &BatchOperand::Shared(&w),
                        &BatchOperand::Shared(&bias),
                        kclients,
                        mb,
                        n,
                        kk,
                        &mut got,
                    );
                }
                got.len()
            },
        );
        entries.push(Entry {
            name: "gemm_batch_clients",
            baseline_ns: batch_baseline_ns / inner as f64,
            new_ns: batch_new_ns / inner as f64,
        });
    }
}

/// Times the [`gluefl_wire`] sparse-frame codec against its first-cut
/// twins at the round loop's upload shape: `nnz = d/25` (q = 4%, GlueFL's
/// full-mask upload density → bitmap positions). The baselines replicate
/// the frame layout byte for byte the way a straightforward
/// implementation would — fresh buffers per call, per-element pushes,
/// per-bit bitmap walks, and the definitional bit-at-a-time CRC-16 — and
/// both pairs are gated on identical output before timing.
fn run_wire_entries(
    opts: &ExptOpts,
    reps: usize,
    d: usize,
    dense: &[f32],
    entries: &mut Vec<Entry>,
) {
    if !opts.kernel_selected("wire_encode_sparse")
        && !opts.kernel_selected("wire_decode_sparse")
        && !opts.kernel_selected("wire_encode_varint")
    {
        return;
    }
    use gluefl_wire::{Codec, FrameWriter, Rounding, WirePolicy};
    let round = 11u32;
    let indices: Vec<u32> = (0..d as u32).step_by(25).collect();
    let values: Vec<f32> = indices.iter().map(|&i| dense[i as usize]).collect();

    // Equivalence gates: byte-identical frames, identical reconstruction.
    let legacy_writer = FrameWriter::new(WirePolicy::legacy(Codec::F32));
    let baseline_frame = baseline_encode_sparse(round, d, &indices, &values);
    let mut frame_buf = Vec::new();
    let n = legacy_writer.sparse(
        &mut frame_buf,
        round,
        Rounding::Nearest,
        d,
        &indices,
        &values,
    );
    assert_eq!(n, frame_buf.len());
    assert_eq!(baseline_frame, frame_buf, "wire encoders diverged");
    let (base_ix, base_vals) = baseline_decode_sparse(&baseline_frame);
    let decoded = gluefl_wire::decode_frame(&frame_buf).expect("valid frame");
    let (mut fast_ix, mut fast_vals) = (Vec::new(), Vec::new());
    decoded.indices_into(&mut fast_ix);
    decoded.values_into(&mut fast_vals);
    assert_eq!(base_ix, fast_ix, "wire decoders diverged on indices");
    assert!(
        base_vals
            .iter()
            .zip(&fast_vals)
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "wire decoders diverged on values"
    );

    if opts.kernel_selected("wire_encode_sparse") {
        let mut pooled = Vec::with_capacity(frame_buf.len());
        let (baseline_ns, new_ns) = time_pair_ns(
            reps,
            || baseline_encode_sparse(round, d, &indices, &values).len(),
            || {
                pooled.clear();
                legacy_writer.sparse(&mut pooled, round, Rounding::Nearest, d, &indices, &values)
            },
        );
        entries.push(Entry {
            name: "wire_encode_sparse",
            baseline_ns,
            new_ns,
        });
    }
    if opts.kernel_selected("wire_decode_sparse") {
        let (baseline_ns, new_ns) = time_pair_ns(
            reps,
            || baseline_decode_sparse(&baseline_frame).0.len(),
            || {
                fast_ix.clear();
                fast_vals.clear();
                let frame = gluefl_wire::decode_frame(&frame_buf).expect("valid frame");
                frame.indices_into(&mut fast_ix);
                frame.values_into(&mut fast_vals);
                fast_ix.len()
            },
        );
        entries.push(Entry {
            name: "wire_decode_sparse",
            baseline_ns,
            new_ns,
        });
    }

    // v2 entropy layout: the delta-varint position section on a *random*
    // 4% support (irregular gaps, so the varints are genuinely
    // variable-width), against a naive per-element delta+varint twin
    // producing the identical SparseDelta frame.
    if opts.kernel_selected("wire_encode_varint") {
        let mut vrng = StdRng::seed_from_u64(opts.seed ^ 0x77a9);
        let vix: Vec<u32> = (0..d as u32).filter(|_| vrng.gen::<f64>() < 0.04).collect();
        let vvals: Vec<f32> = vix.iter().map(|&i| dense[i as usize]).collect();
        let entropy_writer = FrameWriter::new(WirePolicy::entropy(Codec::F32));

        // Equivalence gate: byte-identical frames (which also pins the
        // cost chooser to the delta layout at this density), plus a
        // round-trip decode of the varint section.
        let baseline_frame = baseline_encode_sparse_delta(round, d, &vix, &vvals);
        let mut frame_buf = Vec::new();
        let n = entropy_writer.sparse(&mut frame_buf, round, Rounding::Nearest, d, &vix, &vvals);
        assert_eq!(n, frame_buf.len());
        assert_eq!(baseline_frame, frame_buf, "varint encoders diverged");
        let decoded = gluefl_wire::decode_frame(&frame_buf).expect("valid frame");
        let mut got_ix = Vec::new();
        decoded.indices_into(&mut got_ix);
        assert_eq!(got_ix, vix, "varint round trip diverged");

        let mut pooled = Vec::with_capacity(frame_buf.len());
        let (baseline_ns, new_ns) = time_pair_ns(
            reps,
            || baseline_encode_sparse_delta(round, d, &vix, &vvals).len(),
            || {
                pooled.clear();
                entropy_writer.sparse(&mut pooled, round, Rounding::Nearest, d, &vix, &vvals)
            },
        );
        entries.push(Entry {
            name: "wire_encode_varint",
            baseline_ns,
            new_ns,
        });
    }
}

/// Times the round loop's aggregation phase end to end: the streaming
/// per-arrival fold ([`gluefl_core::stream::StreamingAggregator`], the
/// path the socket server and the simulator now share) against the
/// pre-refactor collect-then-aggregate round — every kept upload staged
/// in an `O(K·nnz)` buffer, then one batch [`Strategy::aggregate`] over
/// the id-sorted set.
///
/// The shape is the paper's upload profile: K = 30 kept clients, each a
/// sparse STC upload with `nnz ≈ 4%·d` on its own random support, folded
/// under an [`StcStrategy`] (whose fold seams are stateless, so both
/// twins can be re-timed from identically constructed instances). Each
/// side clones every upload per invocation — the stand-in for the decode
/// step producing a fresh upload — so the measured difference is the
/// staging buffer and deferred fold against fold-on-arrival with buffers
/// recycled through the [`ScratchPool`]. The gate asserts the two paths'
/// `MaskedUpdate`s (mask identity and value bits) agree exactly.
///
/// [`Strategy::aggregate`]: gluefl_core::strategies::Strategy::aggregate
/// [`StcStrategy`]: gluefl_core::strategies::StcStrategy
fn run_stream_entries(opts: &ExptOpts, reps: usize, d: usize, entries: &mut Vec<Entry>) {
    if !opts.kernel_selected("stream_fold_sparse") {
        return;
    }
    use gluefl_core::strategies::{Group, StcStrategy, Strategy, Upload};
    use gluefl_core::stream::StreamingAggregator;

    let clients = 30usize;
    let round = 0u32;
    let q = 0.04f64;
    // One sparse upload per kept client, each on its own ~4% support.
    let uploads: Vec<(usize, Group, Upload)> = (0..clients)
        .map(|c| {
            let mut crng = StdRng::seed_from_u64(opts.seed ^ 0x5f01 ^ ((c as u64) << 8));
            let mut pairs = Vec::new();
            for i in 0..d as u32 {
                if crng.gen::<f64>() < q {
                    pairs.push((i, crng.gen_range(-1.0f32..1.0)));
                }
            }
            (
                c,
                Group::Fresh,
                Upload::Sparse(SparseUpdate::from_pairs(d, pairs)),
            )
        })
        .collect();
    let ids: Vec<(usize, Group)> = uploads.iter().map(|&(c, g, _)| (c, g)).collect();
    let mk_strategy = || {
        StcStrategy::new(
            clients,
            clients,
            1.0,
            vec![1.0 / clients as f64; clients],
            q,
            d,
            d,
            BitMask::zeros(d),
        )
    };

    // Equivalence gate: batch aggregate ≡ streaming fold, bit for bit.
    let mut strat_base = mk_strategy();
    let mut pool_base = ScratchPool::new();
    let want = strat_base.aggregate(round, &uploads, &mut pool_base);
    let mut strat_new = mk_strategy();
    let mut pool_new = ScratchPool::new();
    let mut gate = StreamingAggregator::begin(round, &ids, &mut strat_new, &mut pool_new);
    for (c, _, upload) in &uploads {
        gate.accept(&mut strat_new, *c, upload.clone(), &mut pool_new)
            .expect("kept client accepted");
    }
    assert!(gate.complete());
    let got = gate.finish(&mut strat_new, &mut pool_new);
    assert_eq!(want.mask(), got.mask(), "fold masks diverged");
    assert!(
        want.values()
            .iter()
            .zip(got.values())
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "fold values diverged"
    );
    pool_base.put_update(want);
    pool_new.put_update(got);

    let (baseline_ns, new_ns) = time_pair_ns(
        reps,
        || {
            // Pre-refactor round: stage a copy of every arrival, then
            // one batch aggregate over the full staged set.
            let staged: Vec<(usize, Group, Upload)> = uploads
                .iter()
                .map(|(c, g, u)| (*c, *g, u.clone()))
                .collect();
            let out = strat_base.aggregate(round, &staged, &mut pool_base);
            let n = out.nnz();
            pool_base.put_update(out);
            for (_, _, u) in staged {
                pool_base.reclaim_upload(u);
            }
            n
        },
        || {
            // Streaming round: each arrival folds immediately and its
            // buffers go straight back to the pool.
            let mut gate = StreamingAggregator::begin(round, &ids, &mut strat_new, &mut pool_new);
            for (c, _, u) in &uploads {
                gate.accept(&mut strat_new, *c, u.clone(), &mut pool_new)
                    .expect("kept client accepted");
            }
            let out = gate.finish(&mut strat_new, &mut pool_new);
            let n = out.nnz();
            pool_new.put_update(out);
            n
        },
    );
    entries.push(Entry {
        name: "stream_fold_sparse",
        baseline_ns,
        new_ns,
    });
}

/// Times the million-client control-plane kernels — the per-round costs
/// that used to scale with the population size N rather than the
/// participant count:
///
/// * `avail_advance_1m` — one round of availability state for the ~39
///   clients a round actually touches. Baseline: the eager
///   [`AvailabilityTraceRef`] twin advances all N Markov chains. New:
///   [`LazyAvailability`] advances only the touched clients' private
///   session trajectories. The two consume identical counter-based draw
///   streams, so the gate asserts bit-identical states before timing.
/// * `plan_round_1m` — one sticky round (draw + rebalance) at the
///   paper's K = 30, C = 24, OC = 1.3, S = 120. Baseline: a verbatim
///   copy of the pre-refactor round — dense candidate materialisation on
///   every draw and a full population rescan on every rebalance. New:
///   [`StickySampler`] with rejection-sampled fresh candidates and
///   in-place membership edits. The RNG streams differ, so the gate is
///   structural: draw sizes, group disjointness, and the constant group
///   size.
///
/// N is 10⁶ (10⁵ under `--quick`).
fn run_scale_kernels(opts: &ExptOpts, reps: usize, entries: &mut Vec<Entry>) {
    use gluefl_net::{AvailabilityTraceRef, LazyAvailability};
    use gluefl_sampling::overcommit::{plan as oc_plan, OcStrategy};
    use gluefl_sampling::{AllOnline, StickySampler};

    let n = if opts.quick { 100_000 } else { 1_000_000 };
    let (f, mean) = (0.7f64, 24.0f64);
    let seed = opts.seed ^ 0xa5a5;

    if opts.kernel_selected("avail_advance_1m") {
        // The ~K × OC clients one round actually looks at, spread across
        // the id space.
        let touched: Vec<usize> = (0..39).map(|i| i * (n / 39)).collect();
        // Equivalence gate: lazy ≡ eager bit for bit on the touched set.
        {
            let mut eager = AvailabilityTraceRef::new(n, f, mean, seed);
            let mut lazy = LazyAvailability::new(n, f, mean, seed);
            for r in 0..4u32 {
                for &c in &touched {
                    assert_eq!(
                        lazy.is_online(c, r),
                        eager.is_online(c),
                        "availability kernels diverged at client {c} round {r}"
                    );
                }
                eager.advance();
            }
        }
        let mut eager = AvailabilityTraceRef::new(n, f, mean, seed);
        let mut lazy = LazyAvailability::new(n, f, mean, seed);
        let mut lazy_round = 0u32;
        let (baseline_ns, new_ns) = time_pair_ns(
            reps,
            || {
                eager.advance();
                touched.iter().filter(|&&c| eager.is_online(c)).count() + 1
            },
            || {
                let r = lazy_round;
                lazy_round += 1;
                touched.iter().filter(|&&c| lazy.is_online(c, r)).count() + 1
            },
        );
        entries.push(Entry {
            name: "avail_advance_1m",
            baseline_ns,
            new_ns,
        });
    }

    if opts.kernel_selected("plan_round_1m") {
        let s_size = 120usize;
        let plan = oc_plan(30, 24, 1.3, OcStrategy::Proportional);
        let mut new_rng = StdRng::seed_from_u64(seed ^ 1);
        let mut sampler = StickySampler::new(n, s_size, &mut new_rng);
        let mut base_rng = StdRng::seed_from_u64(seed ^ 2);
        let mut baseline = BaselineSticky::new(n, s_size, &mut base_rng);
        // Structural gate: the two samplers consume different streams, so
        // the invariants (not the ids) must agree.
        {
            let d = sampler.draw(
                &mut new_rng,
                plan.sticky_invites,
                plan.fresh_invites,
                &mut AllOnline,
            );
            let (bs, bf) = baseline.draw(&mut base_rng, plan.sticky_invites, plan.fresh_invites);
            assert_eq!(d.sticky.len(), bs.len(), "sticky draw sizes diverged");
            assert_eq!(d.fresh.len(), bf.len(), "fresh draw sizes diverged");
            assert!(d.sticky.iter().all(|&c| sampler.is_sticky(c)));
            assert!(d.fresh.iter().all(|&c| !sampler.is_sticky(c)));
            sampler.rebalance(
                &mut new_rng,
                &d.sticky[..plan.keep_sticky],
                &d.fresh[..plan.keep_fresh],
            );
            baseline.rebalance(
                &mut base_rng,
                &bs[..plan.keep_sticky],
                &bf[..plan.keep_fresh],
            );
            assert_eq!(sampler.group_size(), s_size);
            assert_eq!(baseline.sticky.len(), s_size);
        }
        let (baseline_ns, new_ns) = time_pair_ns(
            reps,
            || {
                let (bs, bf) =
                    baseline.draw(&mut base_rng, plan.sticky_invites, plan.fresh_invites);
                baseline.rebalance(
                    &mut base_rng,
                    &bs[..plan.keep_sticky],
                    &bf[..plan.keep_fresh],
                );
                bs.len() + bf.len()
            },
            || {
                let d = sampler.draw(
                    &mut new_rng,
                    plan.sticky_invites,
                    plan.fresh_invites,
                    &mut AllOnline,
                );
                sampler.rebalance(
                    &mut new_rng,
                    &d.sticky[..plan.keep_sticky],
                    &d.fresh[..plan.keep_fresh],
                );
                d.sticky.len() + d.fresh.len()
            },
        );
        entries.push(Entry {
            name: "plan_round_1m",
            baseline_ns,
            new_ns,
        });
    }
}

/// Verbatim pre-refactor sticky sampler round: every draw materialises
/// the full non-sticky candidate vector and every rebalance rebuilds the
/// membership list with a population scan — the O(N) control plane the
/// current [`gluefl_sampling::StickySampler`] replaces.
struct BaselineSticky {
    n: usize,
    in_sticky: Vec<bool>,
    sticky: Vec<usize>,
}

impl BaselineSticky {
    fn new<R: Rng>(n: usize, group_size: usize, rng: &mut R) -> Self {
        use rand::seq::SliceRandom;
        let mut ids: Vec<usize> = (0..n).collect();
        let (chosen, _) = ids.partial_shuffle(rng, group_size);
        let mut sticky = chosen.to_vec();
        sticky.sort_unstable();
        let mut in_sticky = vec![false; n];
        for &c in &sticky {
            in_sticky[c] = true;
        }
        Self {
            n,
            in_sticky,
            sticky,
        }
    }

    fn draw<R: Rng>(&self, rng: &mut R, c: usize, fresh_count: usize) -> (Vec<usize>, Vec<usize>) {
        use rand::seq::SliceRandom;
        let mut sticky_pool = self.sticky.clone();
        let mut fresh_pool: Vec<usize> = (0..self.n).filter(|&i| !self.in_sticky[i]).collect();
        let take = c.min(sticky_pool.len());
        let (sp, _) = sticky_pool.partial_shuffle(rng, take);
        let mut sticky: Vec<usize> = sp.to_vec();
        let take_f = fresh_count.min(fresh_pool.len());
        let (fp, _) = fresh_pool.partial_shuffle(rng, take_f);
        let mut fresh: Vec<usize> = fp.to_vec();
        sticky.sort_unstable();
        fresh.sort_unstable();
        (sticky, fresh)
    }

    fn rebalance<R: Rng>(&mut self, rng: &mut R, participated: &[usize], admitted: &[usize]) {
        use rand::seq::SliceRandom;
        let mut evictable: Vec<usize> = self
            .sticky
            .iter()
            .copied()
            .filter(|c| !participated.contains(c))
            .collect();
        let evict_n = admitted.len().min(evictable.len());
        let (evicted, _) = evictable.partial_shuffle(rng, evict_n);
        for &c in evicted.iter() {
            self.in_sticky[c] = false;
        }
        for &c in &admitted[..evict_n] {
            self.in_sticky[c] = true;
        }
        self.sticky = (0..self.n).filter(|&i| self.in_sticky[i]).collect();
    }
}

/// First-cut sparse-frame encoder: the same byte layout as
/// a legacy-policy [`gluefl_wire::FrameWriter`] (asserted identical), written the
/// naive way — fresh output and bitmap buffers each call, per-element
/// pushes, a checksum-input copy, and the bit-at-a-time CRC.
fn baseline_encode_sparse(round: u32, dim: usize, indices: &[u32], values: &[f32]) -> Vec<u8> {
    let nnz = indices.len();
    let bitmap_len = dim.div_ceil(8);
    let use_bitmap = bitmap_len <= 4 * nnz;
    // Frame kind ids: 1 = SparseBitmap, 2 = SparseIndex (codec F32 = 0).
    let kind: u8 = if use_bitmap { 1 } else { 2 };
    let mut out = Vec::new();
    out.push(gluefl_wire::MAGIC);
    out.push((gluefl_wire::VERSION << 6) | (kind << 3));
    out.extend_from_slice(&round.to_le_bytes());
    out.extend_from_slice(&u32::try_from(dim).expect("dim fits u32").to_le_bytes());
    out.extend_from_slice(&u32::try_from(nnz).expect("nnz fits u32").to_le_bytes());
    out.extend_from_slice(&[0, 0]);
    if use_bitmap {
        let mut bitmap = vec![0u8; bitmap_len];
        for &i in indices {
            bitmap[i as usize / 8] |= 1 << (i % 8);
        }
        out.extend_from_slice(&bitmap);
    } else {
        for &i in indices {
            out.extend_from_slice(&i.to_le_bytes());
        }
    }
    for &v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    let mut check_input = out[..14].to_vec();
    check_input.extend_from_slice(&out[16..]);
    let crc = gluefl_wire::crc::crc16_bitwise(&check_input);
    out[14..16].copy_from_slice(&crc.to_le_bytes());
    out
}

/// First-cut v2 entropy encoder: the same `SparseDelta` byte layout the
/// [`gluefl_wire::FrameWriter`] emits under `WirePolicy::entropy`
/// (asserted identical), written the naive way — fresh output buffer,
/// one push per varint byte, a checksum-input copy, and the
/// bit-at-a-time CRC.
fn baseline_encode_sparse_delta(
    round: u32,
    dim: usize,
    indices: &[u32],
    values: &[f32],
) -> Vec<u8> {
    // Frame kind id 7 = SparseDelta (codec F32 = 0); version 2 spills the
    // kind's fourth bit into the former reserved bit.
    let kind: u8 = 7;
    let mut out = Vec::new();
    out.push(gluefl_wire::MAGIC);
    out.push((gluefl_wire::VERSION_ENTROPY << 6) | ((kind & 0x07) << 3) | (kind >> 3));
    out.extend_from_slice(&round.to_le_bytes());
    out.extend_from_slice(&u32::try_from(dim).expect("dim fits u32").to_le_bytes());
    out.extend_from_slice(
        &u32::try_from(indices.len())
            .expect("nnz fits u32")
            .to_le_bytes(),
    );
    out.extend_from_slice(&[0, 0]);
    let mut prev: Option<u32> = None;
    for &i in indices {
        // First index absolute, then gap − 1 (indices are strictly
        // increasing); canonical LEB128.
        let mut v = match prev {
            None => u64::from(i),
            Some(p) => u64::from(i - p - 1),
        };
        prev = Some(i);
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                out.push(byte);
                break;
            }
            out.push(byte | 0x80);
        }
    }
    for &v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    let mut check_input = out[..14].to_vec();
    check_input.extend_from_slice(&out[16..]);
    let crc = gluefl_wire::crc::crc16_bitwise(&check_input);
    out[14..16].copy_from_slice(&crc.to_le_bytes());
    out
}

/// First-cut sparse-frame decoder: checksum-input copy + bit-at-a-time
/// CRC, per-bit bitmap walk over all `d` positions, per-element value
/// reads into fresh vectors.
fn baseline_decode_sparse(buf: &[u8]) -> (Vec<u32>, Vec<f32>) {
    assert!(buf.len() >= 16 && buf[0] == gluefl_wire::MAGIC, "bad frame");
    let kind = (buf[1] >> 3) & 7;
    let dim = u32::from_le_bytes(buf[6..10].try_into().expect("4 bytes")) as usize;
    let nnz = u32::from_le_bytes(buf[10..14].try_into().expect("4 bytes")) as usize;
    let stored = u16::from_le_bytes(buf[14..16].try_into().expect("2 bytes"));
    let mut check_input = buf[..14].to_vec();
    check_input.extend_from_slice(&buf[16..]);
    assert_eq!(
        gluefl_wire::crc::crc16_bitwise(&check_input),
        stored,
        "bad checksum"
    );
    let mut indices = Vec::new();
    let mut pos = 16usize;
    if kind == 1 {
        let bitmap = &buf[pos..pos + dim.div_ceil(8)];
        for i in 0..dim {
            if bitmap[i / 8] >> (i % 8) & 1 == 1 {
                indices.push(u32::try_from(i).expect("dim fits u32"));
            }
        }
        pos += dim.div_ceil(8);
    } else {
        for _ in 0..nnz {
            indices.push(u32::from_le_bytes(
                buf[pos..pos + 4].try_into().expect("4 bytes"),
            ));
            pos += 4;
        }
    }
    assert_eq!(indices.len(), nnz, "bad position section");
    let mut values = Vec::new();
    for _ in 0..nnz {
        values.push(f32::from_le_bytes(
            buf[pos..pos + 4].try_into().expect("4 bytes"),
        ));
        pos += 4;
    }
    (indices, values)
}

/// Panics unless two kernel outputs agree to the last bit.
fn assert_bits_identical(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length mismatch");
    assert!(
        got.iter()
            .zip(want)
            .all(|(g, w)| g.to_bits() == w.to_bits()),
        "{what}: blocked and reference kernels diverged"
    );
}

/// The ledger-freshness gate: every kernel entry this benchmark emits
/// must already be present (by name) in the committed ledger at `path`,
/// otherwise the committed numbers are stale — e.g. a new kernel landed
/// without re-running `expt kernels` and committing the refreshed
/// `BENCH_kernels.json`.
fn check_ledger_freshness(path: &std::path::Path, entries: &[Entry]) -> Result<(), String> {
    let committed = std::fs::read_to_string(path)
        .map_err(|e| format!("ledger check: read {}: {e}", path.display()))?;
    let missing: Vec<&str> = entries
        .iter()
        .map(|e| e.name)
        .filter(|n| !committed.contains(&format!("\"name\": \"{n}\"")))
        .collect();
    if missing.is_empty() {
        println!(
            "ledger {} covers all {} kernel entries",
            path.display(),
            entries.len()
        );
        Ok(())
    } else {
        Err(format!(
            "committed ledger {} is stale: missing kernel entries {missing:?} — \
             re-run `expt kernels --out .` and commit the refreshed BENCH_kernels.json",
            path.display()
        ))
    }
}

/// Median wall-clock nanoseconds of two kernels measured back to back
/// per repetition, so machine-load drift biases both sides equally. Each
/// result is consumed so the calls cannot be optimized away.
fn time_pair_ns(
    reps: usize,
    mut baseline: impl FnMut() -> usize,
    mut new: impl FnMut() -> usize,
) -> (f64, f64) {
    let sample = |f: &mut dyn FnMut() -> usize| -> f64 {
        let start = Instant::now();
        let n = std::hint::black_box(f());
        let ns = start.elapsed().as_nanos() as f64;
        assert!(n > 0);
        ns
    };
    // Warm both kernels once before sampling.
    sample(&mut baseline);
    sample(&mut new);
    let mut base_samples = Vec::with_capacity(reps);
    let mut new_samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        base_samples.push(sample(&mut baseline));
        new_samples.push(sample(&mut new));
    }
    (median(base_samples), median(new_samples))
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

/// Verbatim pre-refactor `top_k_abs_masked` for `TopKScope::Outside`:
/// per-bit mask tests materialize a candidate index vector, introselect
/// runs with an indirect magnitude-then-index key, and the survivors are
/// sorted at the end.
fn baseline_top_k_outside(values: &[f32], k: usize, m: &BitMask) -> Vec<usize> {
    let mut candidates: Vec<u32> = (0..values.len())
        .filter(|&i| !m.get(i))
        .map(|i| i as u32)
        .collect();
    if k == 0 || candidates.is_empty() {
        return Vec::new();
    }
    if k >= candidates.len() {
        return candidates.into_iter().map(|i| i as usize).collect();
    }
    let key = |i: u32| -> (f32, std::cmp::Reverse<u32>) {
        let m = values[i as usize].abs();
        (if m.is_nan() { -1.0 } else { m }, std::cmp::Reverse(i))
    };
    let cmp = |a: &u32, b: &u32| {
        let (ma, ia) = key(*a);
        let (mb, ib) = key(*b);
        mb.partial_cmp(&ma)
            .expect("magnitudes are never NaN after mapping")
            .then(ib.cmp(&ia))
    };
    candidates.select_nth_unstable_by(k - 1, cmp);
    candidates.truncate(k);
    candidates.sort_unstable();
    candidates.into_iter().map(|i| i as usize).collect()
}

/// Verbatim pre-refactor GlueFL aggregation inner loop: one indirect
/// sparse scatter per client part into freshly allocated accumulators.
fn baseline_aggregate(
    splits: &[(SparseUpdate, SparseUpdate)],
    weights: &[f32],
    dim: usize,
) -> Vec<f32> {
    let mut shr_acc = vec![0.0f32; dim];
    let mut uni_acc = vec![0.0f32; dim];
    for ((shared, unique), &w) in splits.iter().zip(weights) {
        shared.add_scaled_into(&mut shr_acc, w);
        unique.add_scaled_into(&mut uni_acc, w);
    }
    for (s, u) in shr_acc.iter_mut().zip(&uni_acc) {
        *s += u;
    }
    shr_acc
}

/// The current kernel path: shared parts summed as contiguous value
/// arrays and scattered through the mask once; unique parts block-reduced.
fn fused_aggregate(
    splits: &[(SparseUpdate, SparseUpdate)],
    weights: &[f32],
    dim: usize,
    mask: &BitMask,
    pool: &mut ScratchPool,
) -> Vec<f32> {
    let shared_entries: Vec<(f32, &[f32])> = splits
        .iter()
        .zip(weights)
        .map(|((shared, _), &w)| (w, shared.values()))
        .collect();
    let unique_entries: Vec<(f32, &SparseUpdate)> = splits
        .iter()
        .zip(weights)
        .map(|((_, unique), &w)| (w, unique))
        .collect();
    let nnz = mask.count_ones();
    let shr_vals = accumulate_weighted_values(&shared_entries, nnz, pool);
    let mut combined = accumulate_sparse(&unique_entries, dim, pool);
    mask.scatter_add(&mut combined, &shr_vals, 1.0);
    pool.put(shr_vals);
    combined
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_pairs_agree_and_report_is_written() {
        let dir = std::env::temp_dir().join("gluefl_kernels_test");
        let opts = ExptOpts {
            quick: true,
            out_dir: dir.clone(),
            ..ExptOpts::default()
        };
        run(&opts).unwrap();
        let json = std::fs::read_to_string(dir.join("BENCH_kernels.json")).unwrap();
        assert!(json.contains("topk_outside_16pct_mask"));
        assert!(json.contains("topk_regen_full_q"));
        assert!(json.contains("aggregate_masked_30_clients"));
        assert!(json.contains("masked_apply_20pct"));
        assert!(json.contains("masked_apply_rle"));
        assert!(json.contains("local_train_step"));
        assert!(json.contains("local_train_round"));
        assert!(json.contains("gemm_nn_b16"));
        assert!(json.contains("gemm_tn_b16"));
        assert!(json.contains("gemm_nt_b16"));
        assert!(json.contains("gemm_nn_eval_b1024"));
        assert!(json.contains("gemm_batch_clients"));
        assert!(json.contains("aggregate_packed_topk"));
        #[cfg(feature = "parallel")]
        assert!(json.contains("topk_parallel"));
        assert!(json.contains("wire_encode_sparse"));
        assert!(json.contains("wire_decode_sparse"));
        assert!(json.contains("wire_encode_varint"));
        assert!(json.contains("stream_fold_sparse"));
        assert!(json.contains("avail_advance_1m"));
        assert!(json.contains("plan_round_1m"));
        assert!(json.contains("speedup"));
    }

    /// `--filter` measures and emits only the matching entries; `--check`
    /// then gates exactly that emitted subset (unchanged semantics).
    #[test]
    fn filter_restricts_emitted_entries() {
        let dir = std::env::temp_dir().join("gluefl_kernels_filter_test");
        let opts = ExptOpts {
            quick: true,
            out_dir: dir.clone(),
            filter: Some("gemm".into()),
            ..ExptOpts::default()
        };
        run(&opts).unwrap();
        let json = std::fs::read_to_string(dir.join("BENCH_kernels.json")).unwrap();
        assert!(json.contains("gemm_nn_b16"));
        assert!(json.contains("gemm_tn_b16"));
        assert!(json.contains("gemm_nt_b16"));
        assert!(json.contains("gemm_nn_eval_b1024"));
        assert!(json.contains("gemm_batch_clients"));
        assert!(!json.contains("topk_outside_16pct_mask"));
        assert!(!json.contains("topk_regen_full_q"));
        assert!(!json.contains("aggregate_packed_topk"));
        assert!(!json.contains("local_train_step"));
        assert!(!json.contains("wire_encode_sparse"));
        assert!(!json.contains("wire_encode_varint"));
        assert!(!json.contains("masked_apply_rle"));
        assert!(!json.contains("stream_fold_sparse"));
        // --check against the filtered output: the committed full ledger
        // covers the subset, so the gate passes…
        let full = dir.join("full.json");
        std::fs::write(
            &full,
            "{\"kernels\": [
    {\"name\": \"gemm_nn_b16\"}, {\"name\": \"gemm_tn_b16\"},
    {\"name\": \"gemm_nt_b16\"}, {\"name\": \"gemm_nn_eval_b1024\"},
    {\"name\": \"gemm_batch_clients\"},
    {\"name\": \"topk_outside_16pct_mask\"}]}",
        )
        .unwrap();
        let opts_checked = ExptOpts {
            check: Some(full),
            ..opts.clone()
        };
        run(&opts_checked).unwrap();
        // …and a ledger missing a *selected* entry still fails.
        let stale = dir.join("stale.json");
        std::fs::write(&stale, "{\"kernels\": [{\"name\": \"gemm_nn_b16\"}]}").unwrap();
        let opts_stale = ExptOpts {
            check: Some(stale),
            ..opts
        };
        let err = run(&opts_stale).unwrap_err();
        assert!(err.contains("gemm_tn_b16"), "unexpected error: {err}");
    }

    /// The freshness gate passes when every emitted entry is present in
    /// the committed ledger (matching the emitter's exact JSON shape) and
    /// fails, naming the gap, when one is missing.
    #[test]
    fn ledger_freshness_gate_detects_stale_ledger() {
        let dir = std::env::temp_dir().join("gluefl_kernels_check_test");
        std::fs::create_dir_all(&dir).unwrap();
        let entries = vec![
            Entry {
                name: "local_train_step",
                baseline_ns: 2.0,
                new_ns: 1.0,
            },
            Entry {
                name: "local_train_round",
                baseline_ns: 3.0,
                new_ns: 1.0,
            },
        ];
        // Fresh ledger: both names present, in the emitter's format.
        let fresh = dir.join("fresh.json");
        std::fs::write(
            &fresh,
            "{\"kernels\": [\n    {\"name\": \"local_train_step\", \"speedup\": 2.00},\n    \
             {\"name\": \"local_train_round\", \"speedup\": 3.00}\n]}\n",
        )
        .unwrap();
        check_ledger_freshness(&fresh, &entries).unwrap();
        // Stale ledger: one emitted entry missing.
        let stale = dir.join("stale.json");
        std::fs::write(
            &stale,
            "{\"kernels\": [{\"name\": \"local_train_step\", \"speedup\": 2.00}]}\n",
        )
        .unwrap();
        let err = check_ledger_freshness(&stale, &entries).unwrap_err();
        assert!(err.contains("stale"), "unexpected error: {err}");
        assert!(err.contains("local_train_round"));
        // Unreadable ledger is an error, not a pass.
        assert!(check_ledger_freshness(&dir.join("missing.json"), &entries).is_err());
    }
}
