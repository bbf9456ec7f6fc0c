//! The sampled threshold on realistic deltas: no fallbacks, and a survivor
//! set close to `k`.
//!
//! This is a test binary of its own because [`topk_stats`] is process-wide:
//! no other test may select while this one reads the counters.

use gluefl_tensor::{top_k_abs_masked_into, topk_stats, BitMask, TopKScope, TopKScratch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Model dimensions: the wide `[512, 256]` model and the ShuffleNet-profile
/// `[192, 96]` one, whose scope of ~31k candidates samples every 8th
/// position, a divisor of its layer widths.
const DIMS: [usize; 2] = [183_616, 38_174];

/// A heavy-tailed, layer-structured synthetic delta. Like a weight
/// gradient (error times input), each value is a row scale times a column
/// scale times noise, in layer-sized blocks with row lengths of common
/// layer widths. A sample whose positions repeat with the row length
/// would see only some columns and misjudge the threshold.
fn heavy_tailed_delta(dim: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut log_normal = move |sigma: f32| rng.gen_range(-sigma..sigma).exp();
    let mut delta = Vec::with_capacity(dim);
    let mut layer = 0usize;
    while delta.len() < dim {
        let row = [62usize, 64, 96, 192, 256, 512][layer % 6];
        let rows = (4096 + layer * 7919 % 30_000) / row;
        let cols: Vec<f32> = (0..row).map(|_| log_normal(2.0)).collect();
        for _ in 0..rows.min((dim - delta.len()).div_ceil(row)) {
            let r = log_normal(2.0);
            for &c in &cols {
                let noise: f32 = (0..4).map(|_| log_normal(1.0) - log_normal(1.0)).sum();
                delta.push(r * c * noise);
            }
        }
        layer += 1;
    }
    delta.truncate(dim);
    delta
}

#[test]
fn sampled_threshold_never_falls_back_on_heavy_tailed_deltas() {
    let mut scratch = TopKScratch::new();
    for (dim, seed) in DIMS
        .into_iter()
        .flat_map(|d| (0..6u64).map(move |s| (d, s)))
    {
        let delta = heavy_tailed_delta(dim, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xface);
        // Client compression: top 4% outside a 16% shared mask.
        let shared = BitMask::from_indices(dim, (0..dim).filter(|_| rng.gen_bool(0.16)));
        // Regeneration round: top q = 20% over all but the BN statistics.
        let stats = BitMask::from_indices(dim, (0..dim).filter(|i| i % 97 < 2));
        for (shape, k, scope) in [
            ("k=4% outside shared", dim / 25, TopKScope::Outside(&shared)),
            ("k=20% outside stats", dim / 5, TopKScope::Outside(&stats)),
        ] {
            let before = topk_stats();
            let selected = top_k_abs_masked_into(&delta, k, scope, &mut scratch).len();
            let after = topk_stats();
            assert_eq!(selected, k, "d={dim} seed {seed} {shape}");
            assert_eq!(after.calls - before.calls, 1, "d={dim} seed {seed} {shape}");
            assert_eq!(
                after.fallbacks, before.fallbacks,
                "d={dim} seed {seed} {shape}"
            );
            let survivors = after.survivors - before.survivors;
            assert!(
                survivors >= k as u64 && survivors <= (k + k / 2) as u64,
                "d={dim} seed {seed} {shape}: {survivors} survivors for k = {k}"
            );
        }
    }
}
