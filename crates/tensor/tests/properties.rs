//! Property-based tests for the tensor crate's core invariants.

use gluefl_tensor::{top_k_abs, top_k_abs_masked, BitMask, SparseUpdate, TopKScope, WireCost};
use proptest::prelude::*;

fn small_vec() -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-100.0f32..100.0, 0..200)
}

proptest! {
    /// top_k result always has exactly min(k, n) indices, sorted & unique.
    #[test]
    fn topk_cardinality_and_order(v in small_vec(), k in 0usize..250) {
        let idx = top_k_abs(&v, k);
        prop_assert_eq!(idx.len(), k.min(v.len()));
        prop_assert!(idx.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(idx.iter().all(|&i| i < v.len()));
    }

    /// Every selected magnitude dominates every non-selected magnitude.
    #[test]
    fn topk_dominance(v in small_vec(), k in 1usize..50) {
        let idx = top_k_abs(&v, k);
        if idx.len() < v.len() {
            let selected: std::collections::HashSet<usize> = idx.iter().copied().collect();
            let min_sel = idx.iter().map(|&i| v[i].abs()).fold(f32::INFINITY, f32::min);
            for (i, value) in v.iter().enumerate() {
                if !selected.contains(&i) {
                    prop_assert!(value.abs() <= min_sel,
                        "unselected {} has |{}| > min selected {}", i, value, min_sel);
                }
            }
        }
    }

    /// Inside-scope ∪ outside-scope selections partition an all-scope
    /// selection when k covers everything.
    #[test]
    fn topk_scopes_partition(v in small_vec(), ones in proptest::collection::vec(any::<bool>(), 0..200)) {
        let n = v.len().min(ones.len());
        let v = &v[..n];
        let mask = BitMask::from_indices(n, (0..n).filter(|&i| ones[i]));
        let inside = top_k_abs_masked(v, n, TopKScope::Inside(&mask));
        let outside = top_k_abs_masked(v, n, TopKScope::Outside(&mask));
        prop_assert_eq!(inside.len() + outside.len(), n);
        let mut all: Vec<usize> = inside.into_iter().chain(outside).collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..n).collect::<Vec<_>>());
    }

    /// Mask algebra: De Morgan and cardinality identities.
    #[test]
    fn mask_de_morgan(ones_a in proptest::collection::vec(any::<bool>(), 1..300),
                      ones_b in proptest::collection::vec(any::<bool>(), 1..300)) {
        let n = ones_a.len().min(ones_b.len());
        let a = BitMask::from_indices(n, (0..n).filter(|&i| ones_a[i]));
        let b = BitMask::from_indices(n, (0..n).filter(|&i| ones_b[i]));
        // ¬(A ∪ B) == ¬A ∩ ¬B
        prop_assert_eq!(a.or(&b).not(), a.not().and(&b.not()));
        // |A| + |B| == |A ∪ B| + |A ∩ B|
        prop_assert_eq!(
            a.count_ones() + b.count_ones(),
            a.or(&b).count_ones() + a.and(&b).count_ones()
        );
        // A \ B == A ∩ ¬B
        prop_assert_eq!(a.and_not(&b), a.and(&b.not()));
        // overlap == |A ∩ B|
        prop_assert_eq!(a.overlap(&b), a.and(&b).count_ones());
    }

    /// iter_ones is the inverse of from_indices.
    #[test]
    fn mask_iteration_roundtrip(idx in proptest::collection::btree_set(0usize..500, 0..100)) {
        let m = BitMask::from_indices(500, idx.iter().copied());
        let back: Vec<usize> = m.iter_ones().collect();
        prop_assert_eq!(back, idx.into_iter().collect::<Vec<_>>());
    }

    /// Sparse extract + densify == mask ⊙ dense.
    #[test]
    fn sparse_masked_extraction(v in small_vec(), ones in proptest::collection::vec(any::<bool>(), 0..200)) {
        let n = v.len().min(ones.len());
        let v = &v[..n];
        let mask = BitMask::from_indices(n, (0..n).filter(|&i| ones[i]));
        let sparse = SparseUpdate::from_dense_masked(v, &mask);
        let mut masked = v.to_vec();
        mask.apply_to(&mut masked);
        prop_assert_eq!(sparse.to_dense(), masked);
        prop_assert_eq!(sparse.nnz(), mask.count_ones());
    }

    /// apply-then-gather is the identity on the support set.
    #[test]
    fn sparse_apply_gather_roundtrip(pairs in proptest::collection::btree_map(0u32..100, -10.0f32..10.0, 0..40)) {
        let u = SparseUpdate::from_pairs(100, pairs.clone().into_iter().collect());
        let mut w = vec![0.0f32; 100];
        u.apply(&mut w);
        let idx: Vec<usize> = pairs.keys().map(|&i| i as usize).collect();
        let g = SparseUpdate::gather(&w, &idx);
        prop_assert_eq!(g, u);
    }

    /// Wire cost never exceeds the dense cost by more than the position
    /// encoding minimum, and value bytes are exact.
    #[test]
    fn wire_cost_bounds(dim in 1usize..10_000, frac in 0.0f64..1.0) {
        let nnz = ((dim as f64) * frac) as usize;
        let c = WireCost::sparse(dim, nnz);
        prop_assert_eq!(c.value_bytes, nnz as u64 * 4);
        // position bytes = min(bitmap, index list)
        let bitmap = (dim as u64).div_ceil(8);
        let index = nnz as u64 * 4;
        prop_assert_eq!(c.position_bytes, bitmap.min(index));
    }
}

/// Full-sort reference for scoped top-k with the documented tie-break
/// (magnitude descending, then index ascending; NaN below everything).
fn scoped_topk_reference(values: &[f32], k: usize, keep: impl Fn(usize) -> bool) -> Vec<usize> {
    top_of(&ranked(values, keep), k)
}

/// The scope's candidates ranked by the documented order: magnitude
/// descending (NaN last), then index ascending.
fn ranked(values: &[f32], keep: impl Fn(usize) -> bool) -> Vec<usize> {
    let key = |i: usize| {
        let m = values[i].abs();
        if m.is_nan() {
            -1.0
        } else {
            m
        }
    };
    let mut idx: Vec<usize> = (0..values.len()).filter(|&i| keep(i)).collect();
    idx.sort_by(|&a, &b| key(b).partial_cmp(&key(a)).unwrap().then(a.cmp(&b)));
    idx
}

/// The first `k` of a ranking, in increasing index order.
fn top_of(ranking: &[usize], k: usize) -> Vec<usize> {
    let mut top = ranking[..k.min(ranking.len())].to_vec();
    top.sort_unstable();
    top
}

proptest! {
    /// The kernel is exactly the full-sort reference,
    /// for every scope, across dimensions, k, and mask densities.
    #[test]
    fn topk_kernel_matches_reference_across_scopes(
        v in proptest::collection::vec(-100.0f32..100.0, 0..400),
        ones in proptest::collection::vec(any::<bool>(), 0..400),
        k in 0usize..450,
    ) {
        let n = v.len().min(ones.len());
        let v = &v[..n];
        let mask = BitMask::from_indices(n, (0..n).filter(|&i| ones[i]));
        prop_assert_eq!(
            top_k_abs_masked(v, k, TopKScope::All),
            scoped_topk_reference(v, k, |_| true)
        );
        prop_assert_eq!(
            top_k_abs_masked(v, k, TopKScope::Inside(&mask)),
            scoped_topk_reference(v, k, |i| mask.get(i))
        );
        prop_assert_eq!(
            top_k_abs_masked(v, k, TopKScope::Outside(&mask)),
            scoped_topk_reference(v, k, |i| !mask.get(i))
        );
    }

    /// Heavy magnitude ties (quantized values) still match the reference
    /// tie-break exactly.
    #[test]
    fn topk_kernel_matches_reference_with_ties(
        v in proptest::collection::vec(-3i32..4, 1..300),
        ones in proptest::collection::vec(any::<bool>(), 1..300),
        k in 0usize..300,
    ) {
        let n = v.len().min(ones.len());
        let v: Vec<f32> = v[..n].iter().map(|&x| x as f32).collect();
        let mask = BitMask::from_indices(n, (0..n).filter(|&i| ones[i]));
        prop_assert_eq!(
            top_k_abs_masked(&v, k, TopKScope::Outside(&mask)),
            scoped_topk_reference(&v, k, |i| !mask.get(i))
        );
    }

    /// A reused scratch arena never changes results.
    #[test]
    fn topk_scratch_reuse_is_pure(
        a in proptest::collection::vec(-10.0f32..10.0, 1..200),
        b in proptest::collection::vec(-10.0f32..10.0, 1..200),
        k in 0usize..200,
    ) {
        use gluefl_tensor::{top_k_abs_masked_into, TopKScratch};
        let mut scratch = TopKScratch::new();
        let first = top_k_abs_masked_into(&a, k, TopKScope::All, &mut scratch).to_vec();
        let _ = top_k_abs_masked_into(&b, k, TopKScope::All, &mut scratch).to_vec();
        let again = top_k_abs_masked_into(&a, k, TopKScope::All, &mut scratch).to_vec();
        prop_assert_eq!(&first, &again);
        prop_assert_eq!(first, top_k_abs(&a, k.min(a.len())).into_iter().take(k).collect::<Vec<_>>());
    }

    /// iter_zeros is the exact complement of iter_ones.
    #[test]
    fn mask_iter_zeros_complements_ones(ones in proptest::collection::vec(any::<bool>(), 0..400)) {
        let n = ones.len();
        let m = BitMask::from_indices(n, (0..n).filter(|&i| ones[i]));
        let zeros: Vec<usize> = m.iter_zeros().collect();
        let expected: Vec<usize> = (0..n).filter(|&i| !ones[i]).collect();
        prop_assert_eq!(zeros, expected);
        let mut via_callback = Vec::new();
        m.for_each_one(|i| via_callback.push(i));
        prop_assert_eq!(via_callback, m.iter_ones().collect::<Vec<_>>());
    }

    /// scatter_add through a mask equals a per-position reference.
    #[test]
    fn mask_scatter_add_matches_reference(
        ones in proptest::collection::vec(any::<bool>(), 1..300),
        scale in -2.0f32..2.0,
    ) {
        let n = ones.len();
        let m = BitMask::from_indices(n, (0..n).filter(|&i| ones[i]));
        let vals: Vec<f32> = (0..m.count_ones()).map(|j| j as f32 - 3.0).collect();
        let mut fast = vec![1.0f32; n];
        m.scatter_add(&mut fast, &vals, scale);
        let mut slow = vec![1.0f32; n];
        for (j, i) in m.iter_ones().enumerate() {
            slow[i] += scale * vals[j];
        }
        prop_assert_eq!(fast, slow);
    }

    /// Fused masked vecops equal their compose-then-mask references.
    #[test]
    fn masked_vecops_match_reference(
        a in proptest::collection::vec(-10.0f32..10.0, 1..300),
        ones in proptest::collection::vec(any::<bool>(), 1..300),
        s in -2.0f32..2.0,
    ) {
        use gluefl_tensor::vecops;
        let n = a.len().min(ones.len());
        let a = &a[..n];
        let b: Vec<f32> = a.iter().map(|x| x * 0.5 + 1.0).collect();
        let m = BitMask::from_indices(n, (0..n).filter(|&i| ones[i]));

        let mut fused = b.clone();
        vecops::masked_axpy(&mut fused, s, a, &m);
        let mut reference = b.clone();
        for i in m.iter_ones() {
            reference[i] += s * a[i];
        }
        prop_assert_eq!(&fused, &reference);

        let mut fused_sub = vec![f32::NAN; n];
        vecops::masked_sub_into(&mut fused_sub, a, &b, &m);
        let mut ref_sub = vecops::sub(a, &b);
        m.apply_to(&mut ref_sub);
        prop_assert_eq!(fused_sub, ref_sub);
    }

    /// Range-sharded sparse accumulation partitions the full scatter for
    /// any shard size.
    #[test]
    fn sparse_range_add_partitions(
        pairs in proptest::collection::btree_map(0u32..300, -5.0f32..5.0, 0..80),
        shard in 1usize..310,
    ) {
        let dim = 300;
        let u = SparseUpdate::from_pairs(dim, pairs.into_iter().collect());
        let mut full = vec![0.0f32; dim];
        u.add_scaled_into(&mut full, 1.5);
        let mut sharded = vec![0.0f32; dim];
        for (t, chunk) in sharded.chunks_mut(shard).enumerate() {
            u.add_scaled_range_into(chunk, 1.5, t * shard);
        }
        prop_assert_eq!(full, sharded);
    }
}

// ---------------------------------------------------------------------------
// Packed top-k: selecting over `(support, packed values)` pairs must be
// indistinguishable from densifying first — packed values at the set
// positions, exact `0.0` elsewhere — for every scope.
// ---------------------------------------------------------------------------

proptest! {
    /// [`top_k_abs_packed_into`] equals [`top_k_abs_masked_into`] on the
    /// virtual dense vector, including the zero fill-up selections that
    /// land outside the support.
    #[test]
    fn packed_top_k_matches_dense_twin(
        dim in 1usize..400,
        pairs in proptest::collection::btree_map(0u32..400, -4.0f32..4.0, 0..120),
        k in 0usize..150,
        scope_sel in 0u8..3,
        seed in any::<u64>(),
    ) {
        use gluefl_tensor::{top_k_abs_masked_into, top_k_abs_packed_into, TopKScratch};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut support = BitMask::zeros(dim);
        let mut packed = Vec::new();
        for (&i, &v) in &pairs {
            if (i as usize) < dim {
                support.set(i as usize, true);
                packed.push(v);
            }
        }
        let mut dense = vec![0.0f32; dim];
        {
            let mut r = 0;
            support.for_each_one(|i| {
                dense[i] = packed[r];
                r += 1;
            });
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let scope_mask =
            BitMask::from_indices(dim, (0..dim).filter(|_| rng.gen_bool(0.5)));
        let scope = match scope_sel {
            0 => TopKScope::All,
            1 => TopKScope::Inside(&scope_mask),
            _ => TopKScope::Outside(&scope_mask),
        };
        let mut s1 = TopKScratch::new();
        let mut s2 = TopKScratch::new();
        let got = top_k_abs_packed_into(&support, &packed, k, scope, &mut s1).to_vec();
        let scope = match scope_sel {
            0 => TopKScope::All,
            1 => TopKScope::Inside(&scope_mask),
            _ => TopKScope::Outside(&scope_mask),
        };
        let want = top_k_abs_masked_into(&dense, k, scope, &mut s2).to_vec();
        prop_assert_eq!(got, want, "dim={} k={} scope={}", dim, k, scope_sel);
    }
}

// ---------------------------------------------------------------------------
// Past the sampling gate: inputs of 4096 or more coordinates pick their
// filter threshold from a stride sample. Every shape below must still
// select exactly what the full-sort reference selects.
// ---------------------------------------------------------------------------

/// A `dim`-length delta of one of five shapes: uniform, heavy-tailed,
/// quantized to a few levels (heavy ties), special values (±0, NaN, ±inf)
/// mixed into small ones, or large spikes on a lattice of `period`
/// positions from `phase`, which puts the largest keys on a grid like the
/// sample's strata. (Spikes at exactly the sampled positions, which force
/// the filter to run again at the minimum key, are a unit test beside the
/// kernel, where the positions are visible.)
fn large_values(dim: usize, shape: u8, period: usize, phase: usize, seed: u64) -> Vec<f32> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    (0..dim)
        .map(|i| match shape {
            0 => rng.gen_range(-1.0f32..1.0),
            1 => rng.gen_range(-1.0f32..1.0) * rng.gen_range(-4.0f32..4.0).exp(),
            2 => rng.gen_range(-3i32..4) as f32 * 0.25,
            3 => match rng.gen_range(0..10) {
                0 => 0.0,
                1 => -0.0,
                2 => f32::NAN,
                3 => f32::INFINITY,
                4 => f32::NEG_INFINITY,
                _ => rng.gen_range(-1.0f32..1.0),
            },
            _ if i % period == phase % period => 1.0e6,
            _ => rng.gen_range(-1.0f32..1.0),
        })
        .collect()
}

proptest! {
    /// The sampled-threshold kernel equals the full-sort reference on
    /// every scope, shape and `k ∈ {0, 1, n/25, n/4, n−1, n, n+7}`.
    #[test]
    fn topk_matches_reference_past_the_sampling_gate(
        dim in 4096usize..12_000,
        shape in 0u8..5,
        period in 7usize..10,
        phase in 0usize..9,
        density in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        use gluefl_tensor::{top_k_abs_masked_into, TopKScratch};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let v = large_values(dim, shape, period, phase, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let mask = BitMask::from_indices(dim, (0..dim).filter(|_| rng.gen_bool(density)));
        let mut scratch = TopKScratch::new();
        for (name, scope) in [
            ("all", TopKScope::All),
            ("inside", TopKScope::Inside(&mask)),
            ("outside", TopKScope::Outside(&mask)),
        ] {
            let ranking = match scope {
                TopKScope::All => ranked(&v, |_| true),
                TopKScope::Inside(m) => ranked(&v, |i| m.get(i)),
                TopKScope::Outside(m) => ranked(&v, |i| !m.get(i)),
            };
            let n = ranking.len();
            for k in [0, 1, n / 25, n / 4, n.saturating_sub(1), n, n + 7] {
                let got = top_k_abs_masked_into(&v, k, scope, &mut scratch);
                prop_assert_eq!(
                    got,
                    top_of(&ranking, k).as_slice(),
                    "dim={} shape={} scope={} k={}", dim, shape, name, k
                );
            }
        }
    }

    /// Past the sampling gate the packed kernel still equals its dense
    /// twin, on every scope and shape, including supports too sparse for
    /// `k` (the zero and NaN fill-ups).
    #[test]
    fn packed_top_k_matches_dense_twin_past_the_sampling_gate(
        dim in 4096usize..12_000,
        shape in 0u8..5,
        support_density in 0.0f64..1.0,
        scope_density in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        use gluefl_tensor::{top_k_abs_masked_into, top_k_abs_packed_into, TopKScratch};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let all = large_values(dim, shape, 8, 4, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let support = BitMask::from_indices(dim, (0..dim).filter(|_| rng.gen_bool(support_density)));
        let scope_mask = BitMask::from_indices(dim, (0..dim).filter(|_| rng.gen_bool(scope_density)));
        let packed: Vec<f32> = support.iter_ones().map(|i| all[i]).collect();
        let mut dense = vec![0.0f32; dim];
        support.for_each_one(|i| dense[i] = all[i]);
        let mut s1 = TopKScratch::new();
        let mut s2 = TopKScratch::new();
        for (name, scope) in [
            ("all", TopKScope::All),
            ("inside", TopKScope::Inside(&scope_mask)),
            ("outside", TopKScope::Outside(&scope_mask)),
        ] {
            let n = match scope {
                TopKScope::All => dim,
                TopKScope::Inside(m) => m.count_ones(),
                TopKScope::Outside(m) => dim - m.count_ones(),
            };
            for k in [0, 1, n / 25, n / 4, n.saturating_sub(1), n, n + 7] {
                let got = top_k_abs_packed_into(&support, &packed, k, scope, &mut s1).to_vec();
                let want = top_k_abs_masked_into(&dense, k, scope, &mut s2).to_vec();
                prop_assert_eq!(got, want, "dim={} shape={} scope={} k={}", dim, shape, name, k);
            }
        }
    }
}
