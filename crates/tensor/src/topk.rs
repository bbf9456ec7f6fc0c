//! Exact top-k selection by absolute value.
//!
//! Sparsification in STC and GlueFL is the `top_q(·)` operator: keep the `k`
//! coordinates of a delta with the largest magnitudes. Every invited client
//! runs it every round, so the kernel reads the delta once and ranks only a
//! small survivor set:
//!
//! 1. **Keys** — a value's rank key is a `u32`: the bits of `|v|` plus one,
//!    with NaN mapped to `0`. Non-negative floats order like their bit
//!    patterns, so integer comparison ranks magnitudes exactly, `+0.0` and
//!    `−0.0` share a key, and NaN sorts below every magnitude.
//! 2. **Sampled threshold** — on inputs of at least 4096 coordinates a
//!    stride sample of the scope's keys (one per stride-wide stratum, at a
//!    hashed offset) picks a conservative threshold: the sample key at the
//!    k-th key's expected rank plus a few standard deviations. Smaller
//!    inputs use the minimum key, which keeps every candidate.
//! 3. **Filter pass** — one word-level walk over the delta (`u64` scope
//!    words, 64 values compared per word) appends the `(index, key)`
//!    survivors above the threshold, already in index order, and the first
//!    `k` positions *at* it (so a mostly-zero delta whose threshold is the
//!    zero key keeps `k` entries, not all of them). Under the `parallel`
//!    feature large inputs shard this pass by word ranges; the per-range
//!    lists concatenate in index order.
//! 4. **Select and emit** — the exact k-th key is selected among the
//!    survivors only. Survivors above it are emitted, and ties at it fill
//!    the remaining slots smallest-index-first, so the output is sorted and
//!    equals a full stable ranking (magnitude, then smaller index).
//!
//! If the sample undershoots (fewer than `k` candidates at or above the
//! threshold), the filter runs again with the threshold at the minimum
//! key. The selection path is the same either way, so every input is
//! exact; [`topk_stats`] counts how often that happens.
//!
//! All allocation lives in [`TopKScratch`]; the `*_into` entry points are
//! allocation-free after warm-up, which is what the per-round hot paths
//! (`Strategy::compress` / `Strategy::aggregate`) use.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::BitMask;

/// Restricts which coordinates a top-k selection may choose from.
///
/// GlueFL's client masking (Algorithm 3 line 17) selects the unique local
/// gradient from positions *outside* the shared mask, i.e. `¬M_t ⊙ Δ`; the
/// server-side mask update (line 26) selects over all positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopKScope<'a> {
    /// Consider every coordinate.
    All,
    /// Consider only coordinates covered by the mask.
    Inside(&'a BitMask),
    /// Consider only coordinates *not* covered by the mask.
    Outside(&'a BitMask),
}

/// Reusable buffers for [`top_k_abs_masked_into`].
///
/// Owning one `TopKScratch` per simulation (or per thread) makes repeated
/// top-k calls allocation-free once the buffers have grown. The buffers are
/// sized by the sample and the survivor count, not by the model dimension.
#[derive(Debug, Clone, Default)]
pub struct TopKScratch {
    /// Sample keys for the threshold, then the survivors' keys for the
    /// exact select.
    select: Vec<u32>,
    /// What the filter pass kept.
    survivors: Survivors,
    /// Per-range survivors of the sharded filter pass.
    #[cfg(feature = "parallel")]
    shards: Vec<Survivors>,
    /// Output arena for the selected indices.
    out: Vec<usize>,
}

impl TopKScratch {
    /// Creates an empty scratch arena.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a scratch arena pre-sized for dimension-`dim` selections.
    #[must_use]
    pub fn with_capacity(dim: usize) -> Self {
        Self {
            select: Vec::with_capacity(dim.min(SAMPLE_MAX)),
            out: Vec::with_capacity(dim),
            ..Self::default()
        }
    }
}

/// Process-wide counters of the top-k kernels' survivor selection.
///
/// Counted with one relaxed add per selection, never per element, and
/// monotonic over the process lifetime; concurrent callers should compare
/// deltas of two snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TopKStats {
    /// Selections run: calls with `0 < k <` the scope's candidate count.
    pub calls: u64,
    /// Selections whose sampled threshold lay above the k-th key, so the
    /// filter ran again at the minimum key.
    pub fallbacks: u64,
    /// Survivors the final filter pass kept, summed over all calls.
    pub survivors: u64,
}

static CALLS: AtomicU64 = AtomicU64::new(0);
static FALLBACKS: AtomicU64 = AtomicU64::new(0);
static SURVIVORS: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the process-wide [`TopKStats`].
#[must_use]
pub fn topk_stats() -> TopKStats {
    TopKStats {
        calls: CALLS.load(Ordering::Relaxed),
        fallbacks: FALLBACKS.load(Ordering::Relaxed),
        survivors: SURVIVORS.load(Ordering::Relaxed),
    }
}

fn record_selection(survivors: usize, fallback: bool) {
    CALLS.fetch_add(1, Ordering::Relaxed);
    SURVIVORS.fetch_add(survivors as u64, Ordering::Relaxed);
    if fallback {
        FALLBACKS.fetch_add(1, Ordering::Relaxed);
    }
}

/// The key of a NaN, and the minimum key: a filter at it keeps everything.
const NAN_KEY: u32 = 0;
/// The key of `±0.0`.
const ZERO_KEY: u32 = 1;

/// The magnitude rank key: `|v|`'s bits plus one, NaN below everything.
#[inline]
fn key_of(v: f32) -> u32 {
    let a = v.to_bits() & 0x7fff_ffff;
    if a > f32::INFINITY.to_bits() {
        NAN_KEY
    } else {
        a + 1
    }
}

/// Inputs shorter than this skip the sample and filter at the minimum key.
const SAMPLE_MIN_DIM: usize = 4096;
/// Sample size above which the stride grows instead.
const SAMPLE_MAX: usize = 8192;
/// Smallest sample stride: at most one position in eight is sampled.
const SAMPLE_MIN_STRIDE: usize = 8;
/// Standard deviations added to the k-th key's expected sample rank.
const SAMPLE_SIGMAS: f64 = 4.0;

/// Distance between sampled positions for a scope of `n` candidates, so
/// that about `min(n / 8, SAMPLE_MAX)` of the sampled positions fall in
/// the scope.
fn sample_stride(n: usize) -> usize {
    (n / SAMPLE_MAX).max(SAMPLE_MIN_STRIDE)
}

/// The sampled positions of a `len`-position input: one in each
/// `stride`-wide stratum, at an offset hashed from the stratum's number.
/// A fixed offset would alias with a layer's row length and sample only
/// some of its columns; the hashed offsets keep the sample representative
/// and deterministic.
fn sample_positions(len: usize, stride: usize) -> impl Iterator<Item = usize> {
    (0..len / stride).map(move |j| {
        let hash = (j as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32;
        j * stride + ((hash * stride as u64) >> 32) as usize
    })
}

/// Whether position `i` (in range) is a candidate of `scope`.
#[inline]
fn in_scope(scope: TopKScope<'_>, i: usize) -> bool {
    let bit = |m: &BitMask| m.as_words()[i / 64] >> (i % 64) & 1 == 1;
    match scope {
        TopKScope::All => true,
        TopKScope::Inside(m) => bit(m),
        TopKScope::Outside(m) => !bit(m),
    }
}

/// Picks the filter threshold from `sample`, the keys of the scope's
/// sampled positions, for the k-th largest of `n` candidate keys. Returns
/// the threshold and the survivor count it is expected to keep.
///
/// Of the `m` sampled keys about `p·m` (`p = k/n`) lie above the k-th
/// key, with standard deviation `√(p·m·(1−p))`. The threshold is the sample
/// key at that expected descending rank plus [`SAMPLE_SIGMAS`] deviations,
/// so it almost always sits at or below the k-th key. When the sample is
/// too small to bound the rank, the threshold is [`NAN_KEY`].
fn sample_threshold(sample: &mut [u32], k: usize, n: usize) -> (u32, usize) {
    let m = sample.len();
    let p = k as f64 / n as f64;
    let mean = p * m as f64;
    let rank = (mean + SAMPLE_SIGMAS * (mean * (1.0 - p)).sqrt()).ceil() as usize + 1;
    if rank >= m {
        return (NAN_KEY, n);
    }
    let thr = *sample.select_nth_unstable(m - rank).1;
    (thr, n * rank / m)
}

/// The scope's candidate bits within word `wi` of a `len`-bit space.
#[inline]
fn scope_word(scope: TopKScope<'_>, wi: usize, len: usize) -> u64 {
    let nwords = len.div_ceil(64);
    let tail = len % 64;
    let full = if wi == nwords - 1 && tail != 0 {
        (1u64 << tail) - 1
    } else {
        !0u64
    };
    match scope {
        TopKScope::All => full,
        TopKScope::Inside(m) => m.as_words()[wi],
        TopKScope::Outside(m) => !m.as_words()[wi] & full,
    }
}

/// Number of candidate positions the scope admits over a `len`-bit space.
fn scope_count(scope: TopKScope<'_>, len: usize) -> usize {
    match scope {
        TopKScope::All => len,
        TopKScope::Inside(m) => m.count_ones(),
        TopKScope::Outside(m) => len - m.count_ones(),
    }
}

/// Appends every candidate position of the scope to `out`, ascending.
fn emit_scope(scope: TopKScope<'_>, len: usize, out: &mut Vec<usize>) {
    for wi in 0..len.div_ceil(64) {
        let mut w = scope_word(scope, wi, len);
        let base = wi * 64;
        while w != 0 {
            out.push(base + w.trailing_zeros() as usize);
            w &= w - 1;
        }
    }
}

/// Bits of `chunk` (at most 64 values) whose keys are at least `thr`.
#[inline]
fn keys_at_least(chunk: &[f32], thr: u32) -> u64 {
    let bits = |c: &[f32]| {
        c.iter().enumerate().fold(0u64, |bits, (b, &v)| {
            bits | u64::from(key_of(v) >= thr) << b
        })
    };
    match <&[f32; 64]>::try_from(chunk) {
        // A whole word's fixed trip count lets the compare vectorize.
        Ok(word) => bits(word),
        Err(_) => bits(chunk),
    }
}

/// The candidates a filter pass at threshold `thr` keeps.
#[derive(Debug, Clone, Default)]
struct Survivors {
    /// `(index, key)` of every candidate above the threshold, in index
    /// order.
    above: Vec<(u32, u32)>,
    /// The first `k` candidates at the threshold, in index order. No more
    /// of them can be selected, so a heavily tied threshold (the zero key
    /// of a mostly-zero delta) keeps `k` entries, not all of them.
    ties: Vec<u32>,
    /// Candidates at the threshold, counting those past the first `k`.
    tied: usize,
}

impl Survivors {
    /// Empties the lists, reserving room for `expected` candidates above
    /// the threshold.
    fn reset(&mut self, expected: usize) {
        self.above.clear();
        self.above.reserve(expected);
        self.ties.clear();
        self.tied = 0;
    }

    /// Keeps candidate `i`, whose key is at least `thr`.
    #[inline]
    fn keep(&mut self, i: usize, key: u32, thr: u32, k: usize) {
        if key > thr {
            self.above.push((i as u32, key));
        } else {
            if self.ties.len() < k {
                self.ties.push(i as u32);
            }
            self.tied += 1;
        }
    }

    /// Appends the survivors of the next word range.
    #[cfg(feature = "parallel")]
    fn append(&mut self, next: &Survivors, k: usize) {
        self.above.extend_from_slice(&next.above);
        let room = k - self.ties.len();
        self.ties
            .extend_from_slice(&next.ties[..next.ties.len().min(room)]);
        self.tied += next.tied;
    }

    /// Whether at least `k` candidates reached the threshold, i.e. the
    /// threshold is at or below the k-th key and the top k all survived.
    fn covers(&self, k: usize) -> bool {
        self.above.len() + self.tied >= k
    }

    /// Entries kept.
    fn len(&self) -> usize {
        self.above.len() + self.ties.len()
    }

    /// Appends the top-k indices to `out` ascending: every survivor above
    /// the exact k-th key, then ties at it smallest-index-first. Needs
    /// `0 < k` and [`Survivors::covers`]`(k)`.
    fn select_into(&self, k: usize, keys: &mut Vec<u32>, out: &mut Vec<usize>) {
        debug_assert!(0 < k && self.covers(k));
        out.reserve(k);
        let a = self.above.len();
        if a < k {
            // The k-th key is the threshold itself: everything above it
            // plus the first k − a ties, merged in index order.
            let mut ties = self.ties[..k - a].iter().map(|&t| t as usize).peekable();
            for &(i, _) in &self.above {
                while let Some(t) = ties.next_if(|&t| t < i as usize) {
                    out.push(t);
                }
                out.push(i as usize);
            }
            out.extend(ties);
        } else {
            keys.clear();
            keys.extend(self.above.iter().map(|&(_, key)| key));
            let (_, &mut thr, above) = keys.select_nth_unstable(a - k);
            let mut ties_left = k - above.iter().filter(|&&x| x > thr).count();
            for &(i, key) in &self.above {
                if key > thr {
                    out.push(i as usize);
                } else if key == thr && ties_left > 0 {
                    out.push(i as usize);
                    ties_left -= 1;
                }
            }
        }
        debug_assert_eq!(out.len(), k);
    }
}

/// Keeps the scope's candidates with key ≥ `thr` within words
/// `[wi_lo, wi_hi)` in `out`, in increasing index order.
fn filter_words(
    values: &[f32],
    scope: TopKScope<'_>,
    thr: u32,
    k: usize,
    (wi_lo, wi_hi): (usize, usize),
    out: &mut Survivors,
) {
    let len = values.len();
    for wi in wi_lo..wi_hi {
        let mut w = scope_word(scope, wi, len);
        if w == 0 {
            continue;
        }
        let base = wi * 64;
        let chunk = &values[base..len.min(base + 64)];
        if thr > NAN_KEY {
            w &= keys_at_least(chunk, thr);
        }
        while w != 0 {
            let b = w.trailing_zeros() as usize;
            out.keep(base + b, key_of(chunk[b]), thr, k);
            w &= w - 1;
        }
    }
}

/// Words per job of the sharded filter pass (2¹⁸ positions).
#[cfg(feature = "parallel")]
const PAR_SHARD_WORDS: usize = 1 << 12;

/// Refills `scratch.survivors` with the scope's candidates at or above
/// `thr`, reserving room for `expected` of them. Under the `parallel`
/// feature inputs of two or more shards run one [`gluefl_pool`] job per
/// word range; each fills its own [`Survivors`], and they concatenate in
/// range order, which is exactly the serial order.
fn filter(
    values: &[f32],
    scope: TopKScope<'_>,
    thr: u32,
    k: usize,
    expected: usize,
    scratch: &mut TopKScratch,
) {
    let nwords = values.len().div_ceil(64);
    scratch.survivors.reset(expected);
    #[cfg(feature = "parallel")]
    if nwords > PAR_SHARD_WORDS {
        let threads = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        if threads > 1 {
            let jobs = nwords.div_ceil(PAR_SHARD_WORDS);
            scratch.shards.resize_with(jobs, Survivors::default);
            let work: Vec<(usize, &mut Survivors)> =
                scratch.shards[..jobs].iter_mut().enumerate().collect();
            gluefl_pool::run(threads, work, |(j, shard)| {
                let lo = j * PAR_SHARD_WORDS;
                shard.reset(0);
                let words = (lo, (lo + PAR_SHARD_WORDS).min(nwords));
                filter_words(values, scope, thr, k, words, shard);
            });
            for shard in &scratch.shards[..jobs] {
                scratch.survivors.append(shard, k);
            }
            return;
        }
    }
    filter_words(values, scope, thr, k, (0, nwords), &mut scratch.survivors);
}

/// Returns the indices of the `k` largest-magnitude entries of `values`,
/// sorted in increasing index order.
///
/// Ties in magnitude are broken toward the smaller index, which makes the
/// selection deterministic. If `k >= values.len()` every index is returned.
///
/// # Example
///
/// ```
/// let v = [1.0f32, -5.0, 0.0, 5.0, 2.0];
/// // |-5.0| ties with |5.0|; both beat the rest, k=3 adds index 4.
/// assert_eq!(gluefl_tensor::top_k_abs(&v, 3), vec![1, 3, 4]);
/// ```
#[must_use]
pub fn top_k_abs(values: &[f32], k: usize) -> Vec<usize> {
    top_k_abs_masked(values, k, TopKScope::All)
}

/// Like [`top_k_abs`], but restricted to a [`TopKScope`].
///
/// Returns fewer than `k` indices when the scope contains fewer than `k`
/// candidates. NaN magnitudes are treated as smaller than every finite
/// magnitude (they are only selected when nothing else is left).
///
/// Allocates fresh buffers per call; hot paths should hold a
/// [`TopKScratch`] and use [`top_k_abs_masked_into`] instead.
///
/// # Panics
///
/// Panics if a scope mask's length differs from `values.len()`.
///
/// # Example
///
/// ```
/// use gluefl_tensor::{top_k_abs_masked, BitMask, TopKScope};
/// let v = [9.0f32, 1.0, 8.0, 2.0];
/// let m = BitMask::from_indices(4, [0usize, 2]);
/// // Outside the mask only indices 1 and 3 are candidates.
/// assert_eq!(
///     top_k_abs_masked(&v, 1, TopKScope::Outside(&m)),
///     vec![3]
/// );
/// ```
#[must_use]
pub fn top_k_abs_masked(values: &[f32], k: usize, scope: TopKScope<'_>) -> Vec<usize> {
    let mut scratch = TopKScratch::new();
    top_k_abs_masked_into(values, k, scope, &mut scratch).to_vec()
}

/// Allocation-free [`top_k_abs_masked`]: selects into `scratch` and
/// returns the sorted indices as a borrow of its output arena.
///
/// # Panics
///
/// Panics if a scope mask's length differs from `values.len()`, or if
/// `values.len()` exceeds `u32::MAX`.
///
/// # Example
///
/// ```
/// use gluefl_tensor::{top_k_abs_masked_into, TopKScope, TopKScratch};
/// let mut scratch = TopKScratch::new();
/// let v = [1.0f32, -5.0, 0.0, 5.0, 2.0];
/// let idx = top_k_abs_masked_into(&v, 2, TopKScope::All, &mut scratch);
/// assert_eq!(idx, &[1, 3]);
/// ```
pub fn top_k_abs_masked_into<'s>(
    values: &[f32],
    k: usize,
    scope: TopKScope<'_>,
    scratch: &'s mut TopKScratch,
) -> &'s [usize] {
    match scope {
        TopKScope::Inside(m) | TopKScope::Outside(m) => {
            assert_eq!(m.len(), values.len(), "scope mask length mismatch");
        }
        TopKScope::All => {}
    }
    assert!(
        u32::try_from(values.len()).is_ok(),
        "top-k input longer than u32::MAX"
    );
    let len = values.len();
    scratch.out.clear();
    let n = scope_count(scope, len);
    if k == 0 || n == 0 {
        return &scratch.out;
    }
    if k >= n {
        // The scope has no more than k candidates: emit them all.
        emit_scope(scope, len, &mut scratch.out);
        return &scratch.out;
    }

    let (thr, expected) = if len >= SAMPLE_MIN_DIM {
        sample_keys(values, scope, n, &mut scratch.select);
        sample_threshold(&mut scratch.select, k, n)
    } else {
        (NAN_KEY, n)
    };
    filter(values, scope, thr, k, expected, scratch);
    let fallback = !scratch.survivors.covers(k);
    if fallback {
        filter(values, scope, NAN_KEY, k, n, scratch);
    }
    let survivors = &scratch.survivors;
    survivors.select_into(k, &mut scratch.select, &mut scratch.out);
    record_selection(survivors.len(), fallback);
    &scratch.out
}

/// Fills `sample` with the keys at the scope's sampled positions, for a
/// scope of `n` candidates.
fn sample_keys(values: &[f32], scope: TopKScope<'_>, n: usize, sample: &mut Vec<u32>) {
    sample.clear();
    for i in sample_positions(values.len(), sample_stride(n)) {
        if in_scope(scope, i) {
            sample.push(key_of(values[i]));
        }
    }
}

/// Walks the support∩scope positions in increasing order, calling
/// `f(position, key)` where the key is `key_of` of the position's packed
/// value (`rank` within the support mask indexes `packed`).
#[inline]
fn for_each_packed_candidate(
    support: &BitMask,
    packed: &[f32],
    scope: TopKScope<'_>,
    mut f: impl FnMut(usize, u32),
) {
    let dim = support.len();
    let mut rank = 0usize;
    for (wi, &sw) in support.as_words().iter().enumerate() {
        if sw == 0 {
            continue;
        }
        let cw = scope_word(scope, wi, dim);
        let base = wi * 64;
        let mut w = sw;
        while w != 0 {
            let bit = w.trailing_zeros() as usize;
            if cw >> bit & 1 == 1 {
                f(base + bit, key_of(packed[rank]));
            }
            rank += 1;
            w &= w - 1;
        }
    }
}

/// Top-k by magnitude over a **(support mask, packed values)** pair,
/// bit-identical to running [`top_k_abs_masked_into`] on the equivalent
/// dense vector — the one holding `packed[rank]` at each of the support
/// mask's one-positions and an exact `0.0` everywhere else — without ever
/// materialising that vector.
///
/// The cost is `O(dim/64 + support_nnz)` instead of `O(dim)`: positions
/// outside the support all share the virtual key of `0.0`, so the
/// selection samples the virtual vector for a threshold, keeps only the
/// packed candidates of positive magnitude at or above it, and falls back
/// to counting-based zero/NaN tie fills when fewer than `k` candidates
/// have positive magnitude. This is what lets GlueFL's aggregate run its
/// mask-shift top-k directly over the packed accumulator.
///
/// Ordering, tie-breaks (smaller index first), and NaN handling (selected
/// last) are exactly those of the dense kernel; `k >= scope size` emits
/// every scope position.
///
/// # Panics
///
/// Panics if `packed.len()` differs from the support popcount, if a scope
/// mask's length differs from `support.len()`, or if `support.len()`
/// exceeds `u32::MAX`.
///
/// # Example
///
/// ```
/// use gluefl_tensor::{top_k_abs_packed_into, BitMask, TopKScope, TopKScratch};
/// let mut scratch = TopKScratch::new();
/// let support = BitMask::from_indices(6, [1usize, 3, 4]);
/// // Virtual dense vector: [0, 2.0, 0, -5.0, 1.0, 0]
/// let idx = top_k_abs_packed_into(&support, &[2.0, -5.0, 1.0], 2, TopKScope::All, &mut scratch);
/// assert_eq!(idx, &[1, 3]);
/// ```
pub fn top_k_abs_packed_into<'s>(
    support: &BitMask,
    packed: &[f32],
    k: usize,
    scope: TopKScope<'_>,
    scratch: &'s mut TopKScratch,
) -> &'s [usize] {
    assert_eq!(
        support.count_ones(),
        packed.len(),
        "packed length must equal the support popcount"
    );
    match scope {
        TopKScope::Inside(m) | TopKScope::Outside(m) => {
            assert_eq!(m.len(), support.len(), "scope mask length mismatch");
        }
        TopKScope::All => {}
    }
    let dim = support.len();
    assert!(
        u32::try_from(dim).is_ok(),
        "top-k input longer than u32::MAX"
    );
    scratch.out.clear();
    if k == 0 {
        return &scratch.out;
    }
    let total = scope_count(scope, dim);
    if total == 0 {
        return &scratch.out;
    }
    if k >= total {
        // Dense `k >= n` branch: every scope position is emitted.
        emit_scope(scope, dim, &mut scratch.out);
        return &scratch.out;
    }

    // Only positive magnitudes can outrank the virtual zeros, so the
    // survivor threshold is never below the smallest positive key.
    let positive = ZERO_KEY + 1;
    let (thr, expected) = if dim >= SAMPLE_MIN_DIM {
        sample_packed_keys(support, packed, scope, total, &mut scratch.select);
        sample_threshold(&mut scratch.select, k, total)
    } else {
        (NAN_KEY, packed.len())
    };
    let (thr, expected) = (thr.max(positive), expected.min(packed.len()));
    let survivors = &mut scratch.survivors;
    filter_packed(support, packed, scope, thr, k, expected, survivors);
    let fallback = thr > positive && !survivors.covers(k);
    if fallback {
        filter_packed(support, packed, scope, positive, k, packed.len(), survivors);
    }
    record_selection(survivors.len(), fallback);
    if survivors.covers(k) {
        // The k-th largest virtual key is positive, so no zero-valued
        // position outside the support can be selected: the dense
        // selection restricted to the positive packed candidates is exact
        // (zeros and NaNs sort below every positive key, so dropping them
        // changes neither the threshold nor the tie fill).
        survivors.select_into(k, &mut scratch.select, &mut scratch.out);
        return &scratch.out;
    }
    // At the minimum positive key the pass counted every positive one.
    let positives = survivors.above.len() + survivors.tied;

    // Degenerate fill-up: fewer than k positive magnitudes in scope. The
    // dense threshold is the zero key (zero-key positions fill the
    // remainder, smallest index first) or the NaN key (all zeros consumed
    // too; NaN-key candidates fill up). Walk the scope ascending with
    // virtual keys and stop as soon as both the above-threshold and tie
    // budgets are spent.
    let (mut candidates, mut zero_candidates) = (0usize, 0usize);
    for_each_packed_candidate(support, packed, scope, |_, key| {
        candidates += 1;
        zero_candidates += usize::from(key == ZERO_KEY);
    });
    let zero_keys = (total - candidates) + zero_candidates;
    let (thr, mut ties_left, mut above_left) = if positives + zero_keys >= k {
        (ZERO_KEY, k - positives, positives)
    } else {
        (NAN_KEY, k - positives - zero_keys, positives + zero_keys)
    };
    let out = &mut scratch.out;
    let support_words = support.as_words();
    let mut rank_base = 0usize;
    'words: for (wi, &sw) in support_words.iter().enumerate() {
        let base = wi * 64;
        let mut w = scope_word(scope, wi, dim);
        while w != 0 {
            let bit = w.trailing_zeros() as usize;
            let key = if sw >> bit & 1 == 1 {
                let rank = rank_base + (sw & ((1u64 << bit) - 1)).count_ones() as usize;
                key_of(packed[rank])
            } else {
                ZERO_KEY
            };
            if key > thr {
                out.push(base + bit);
                above_left -= 1;
            } else if key == thr && ties_left > 0 {
                out.push(base + bit);
                ties_left -= 1;
            }
            if above_left == 0 && ties_left == 0 {
                break 'words;
            }
            w &= w - 1;
        }
        rank_base += sw.count_ones() as usize;
    }
    debug_assert_eq!(scratch.out.len(), k);
    &scratch.out
}

/// Fills `sample` with the virtual dense vector's keys at the scope's
/// sampled positions: the packed value's key on the support, the zero key
/// off it. Ranks are counted word by word as the positions advance.
fn sample_packed_keys(
    support: &BitMask,
    packed: &[f32],
    scope: TopKScope<'_>,
    total: usize,
    sample: &mut Vec<u32>,
) {
    sample.clear();
    let dim = support.len();
    let words = support.as_words();
    let (mut counted, mut rank_base) = (0usize, 0usize);
    for i in sample_positions(dim, sample_stride(total)) {
        if !in_scope(scope, i) {
            continue;
        }
        let (wi, bit) = (i / 64, i % 64);
        while counted < wi {
            rank_base += words[counted].count_ones() as usize;
            counted += 1;
        }
        let sw = words[wi];
        sample.push(if sw >> bit & 1 == 1 {
            key_of(packed[rank_base + (sw & ((1u64 << bit) - 1)).count_ones() as usize])
        } else {
            ZERO_KEY
        });
    }
}

/// Refills `out` with the support∩scope candidates whose packed keys are
/// at least `thr`, in increasing index order, reserving room for
/// `expected` of them.
fn filter_packed(
    support: &BitMask,
    packed: &[f32],
    scope: TopKScope<'_>,
    thr: u32,
    k: usize,
    expected: usize,
    out: &mut Survivors,
) {
    out.reset(expected);
    for_each_packed_candidate(support, packed, scope, |i, key| {
        if key >= thr {
            out.keep(i, key, thr, k);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Reference implementation: full sort.
    fn top_k_by_sort(values: &[f32], k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..values.len()).collect();
        idx.sort_by(|&a, &b| {
            let ma = if values[a].abs().is_nan() {
                -1.0
            } else {
                values[a].abs()
            };
            let mb = if values[b].abs().is_nan() {
                -1.0
            } else {
                values[b].abs()
            };
            mb.partial_cmp(&ma).unwrap().then(a.cmp(&b))
        });
        idx.truncate(k.min(values.len()));
        idx.sort_unstable();
        idx
    }

    #[test]
    fn matches_sort_reference_on_random_inputs() {
        let mut rng = StdRng::seed_from_u64(11);
        for trial in 0..50 {
            let n = rng.gen_range(1..300);
            let values: Vec<f32> = (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect();
            let k = rng.gen_range(0..=n);
            assert_eq!(
                top_k_abs(&values, k),
                top_k_by_sort(&values, k),
                "trial {trial} n={n} k={k}"
            );
        }
    }

    #[test]
    fn matches_sort_reference_with_many_ties() {
        // Quantized values force heavy magnitude ties, stressing the
        // threshold tie-fill path.
        let mut rng = StdRng::seed_from_u64(13);
        for trial in 0..50 {
            let n = rng.gen_range(1..200);
            let values: Vec<f32> = (0..n).map(|_| (rng.gen_range(-3i32..4)) as f32).collect();
            let k = rng.gen_range(0..=n);
            assert_eq!(
                top_k_abs(&values, k),
                top_k_by_sort(&values, k),
                "trial {trial} n={n} k={k}"
            );
        }
    }

    #[test]
    fn scratch_reuse_is_consistent() {
        let mut scratch = TopKScratch::with_capacity(64);
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..20 {
            let n = rng.gen_range(1..64);
            let values: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let k = rng.gen_range(0..=n);
            let got = top_k_abs_masked_into(&values, k, TopKScope::All, &mut scratch).to_vec();
            assert_eq!(got, top_k_by_sort(&values, k));
        }
    }

    #[test]
    fn k_zero_is_empty() {
        assert!(top_k_abs(&[1.0, 2.0], 0).is_empty());
    }

    #[test]
    fn k_ge_len_returns_all() {
        assert_eq!(top_k_abs(&[1.0, 2.0], 5), vec![0, 1]);
    }

    #[test]
    fn empty_input() {
        assert!(top_k_abs(&[], 3).is_empty());
    }

    #[test]
    fn ties_break_toward_smaller_index() {
        let v = [2.0f32, -2.0, 2.0, 2.0];
        assert_eq!(top_k_abs(&v, 2), vec![0, 1]);
    }

    #[test]
    fn nan_is_selected_last() {
        let v = [f32::NAN, 1.0, 0.5];
        assert_eq!(top_k_abs(&v, 2), vec![1, 2]);
        assert_eq!(top_k_abs(&v, 3), vec![0, 1, 2]);
    }

    #[test]
    fn all_nan_input_selects_by_index() {
        let v = [f32::NAN, f32::NAN, f32::NAN];
        assert_eq!(top_k_abs(&v, 2), vec![0, 1]);
    }

    #[test]
    fn inside_scope_restricts_candidates() {
        let v = [10.0f32, 9.0, 8.0, 7.0];
        let m = BitMask::from_indices(4, [2usize, 3]);
        assert_eq!(top_k_abs_masked(&v, 1, TopKScope::Inside(&m)), vec![2]);
    }

    #[test]
    fn outside_scope_excludes_mask() {
        let v = [10.0f32, 9.0, 8.0, 7.0];
        let m = BitMask::from_indices(4, [0usize]);
        assert_eq!(top_k_abs_masked(&v, 2, TopKScope::Outside(&m)), vec![1, 2]);
    }

    #[test]
    fn scoped_selection_matches_filtered_reference() {
        let mut rng = StdRng::seed_from_u64(23);
        for trial in 0..40 {
            let n = rng.gen_range(1..300);
            let values: Vec<f32> = (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect();
            let density = rng.gen_range(0.0..1.0);
            let mask = BitMask::from_indices(n, (0..n).filter(|_| rng.gen::<f64>() < density));
            let k = rng.gen_range(0..=n);

            // Reference: rank only the scope's candidates via full sort.
            let reference = |keep: &dyn Fn(usize) -> bool| -> Vec<usize> {
                let cands: Vec<usize> = (0..n).filter(|&i| keep(i)).collect();
                let mut idx = cands.clone();
                idx.sort_by(|&a, &b| {
                    let ma = if values[a].abs().is_nan() {
                        -1.0
                    } else {
                        values[a].abs()
                    };
                    let mb = if values[b].abs().is_nan() {
                        -1.0
                    } else {
                        values[b].abs()
                    };
                    mb.partial_cmp(&ma).unwrap().then(a.cmp(&b))
                });
                idx.truncate(k.min(cands.len()));
                idx.sort_unstable();
                idx
            };

            assert_eq!(
                top_k_abs_masked(&values, k, TopKScope::Inside(&mask)),
                reference(&|i| mask.get(i)),
                "trial {trial} inside n={n} k={k}"
            );
            assert_eq!(
                top_k_abs_masked(&values, k, TopKScope::Outside(&mask)),
                reference(&|i| !mask.get(i)),
                "trial {trial} outside n={n} k={k}"
            );
        }
    }

    #[test]
    fn scope_with_fewer_candidates_than_k() {
        let v = [1.0f32, 2.0, 3.0];
        let m = BitMask::from_indices(3, [1usize]);
        assert_eq!(top_k_abs_masked(&v, 5, TopKScope::Inside(&m)), vec![1]);
    }

    #[test]
    fn negative_values_use_magnitude() {
        let v = [-10.0f32, 1.0, 2.0];
        assert_eq!(top_k_abs(&v, 1), vec![0]);
    }

    #[test]
    #[should_panic(expected = "scope mask length mismatch")]
    fn scope_length_mismatch_panics() {
        let m = BitMask::zeros(2);
        let _ = top_k_abs_masked(&[1.0, 2.0, 3.0], 1, TopKScope::Inside(&m));
    }

    /// Expands a (support, packed) pair into its equivalent dense vector.
    fn densify(support: &BitMask, packed: &[f32]) -> Vec<f32> {
        let mut dense = vec![0.0f32; support.len()];
        let mut rank = 0;
        for (i, slot) in dense.iter_mut().enumerate() {
            if support.get(i) {
                *slot = packed[rank];
                rank += 1;
            }
        }
        assert_eq!(rank, packed.len());
        dense
    }

    #[test]
    fn packed_matches_dense_twin_across_scopes() {
        let mut rng = StdRng::seed_from_u64(29);
        let mut packed_scratch = TopKScratch::new();
        let mut dense_scratch = TopKScratch::new();
        for trial in 0..60 {
            let n = rng.gen_range(1..300);
            let density = rng.gen_range(0.0..1.0);
            let support = BitMask::from_indices(n, (0..n).filter(|_| rng.gen::<f64>() < density));
            // Values with heavy ties, exact zeros, signed zeros, and NaNs
            // so every selection path (positive threshold, zero fill-up,
            // NaN fill-up) is exercised.
            let packed: Vec<f32> = (0..support.count_ones())
                .map(|_| match rng.gen_range(0..6) {
                    0 => 0.0,
                    1 => -0.0,
                    2 => f32::NAN,
                    3 => rng.gen_range(-3i32..4) as f32,
                    _ => rng.gen_range(-5.0..5.0),
                })
                .collect();
            let dense = densify(&support, &packed);
            let scope_mask =
                BitMask::from_indices(n, (0..n).filter(|_| rng.gen::<f64>() < density));
            for k in [0, 1, n / 7, n / 2, n.saturating_sub(1), n, n + 3] {
                for (name, scope) in [
                    ("all", TopKScope::All),
                    ("inside", TopKScope::Inside(&scope_mask)),
                    ("outside", TopKScope::Outside(&scope_mask)),
                ] {
                    let got =
                        top_k_abs_packed_into(&support, &packed, k, scope, &mut packed_scratch)
                            .to_vec();
                    let want = top_k_abs_masked_into(&dense, k, scope, &mut dense_scratch).to_vec();
                    assert_eq!(got, want, "trial {trial} scope {name} n={n} k={k}");
                }
            }
        }
    }

    #[test]
    fn packed_with_empty_support_selects_zero_positions() {
        // All virtual keys are 0.0: the fill-up path must pick the
        // smallest scope indices, exactly like the dense kernel.
        let support = BitMask::zeros(10);
        let mut scratch = TopKScratch::new();
        let got = top_k_abs_packed_into(&support, &[], 3, TopKScope::All, &mut scratch);
        assert_eq!(got, &[0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "packed length must equal the support popcount")]
    fn packed_length_mismatch_panics() {
        let support = BitMask::from_indices(4, [0usize, 2]);
        let mut scratch = TopKScratch::new();
        let _ = top_k_abs_packed_into(&support, &[1.0], 1, TopKScope::All, &mut scratch);
    }

    /// Values of magnitude 1000 at exactly the sampled positions and
    /// small magnitudes everywhere else: with `k` above the spike count
    /// the sampled threshold keeps only the spikes, so the filter must
    /// fall back to the minimum key and still select exactly — in the
    /// dense kernel and in the packed one.
    #[test]
    fn sample_defeating_input_falls_back_and_stays_exact() {
        let mut rng = StdRng::seed_from_u64(37);
        let n = 50_000;
        let mut values: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let spikes: Vec<usize> = sample_positions(n, sample_stride(n)).collect();
        for &i in &spikes {
            values[i] = 1000.0;
        }
        let support = BitMask::from_indices(n, 0..n);
        let mut scratch = TopKScratch::new();
        for k in [spikes.len() + 1, 2 * spikes.len(), n / 3] {
            let want = top_k_by_sort(&values, k);
            let before = topk_stats();
            let got = top_k_abs_masked_into(&values, k, TopKScope::All, &mut scratch).to_vec();
            assert_eq!(got, want, "dense k={k}");
            let between = topk_stats();
            assert!(
                between.fallbacks > before.fallbacks,
                "dense k={k} did not fall back"
            );
            let got = top_k_abs_packed_into(&support, &values, k, TopKScope::All, &mut scratch);
            assert_eq!(got, want.as_slice(), "packed k={k}");
            assert!(
                topk_stats().fallbacks > between.fallbacks,
                "packed k={k} did not fall back"
            );
        }
    }

    /// A delta that is almost all exact zeros (late rounds of a small
    /// model) puts the sampled threshold at the zero key: the pass must
    /// keep the nonzeros and only the first ties, and still be exact.
    #[test]
    fn mostly_zero_delta_keeps_at_most_k_ties() {
        let mut rng = StdRng::seed_from_u64(43);
        let n = 40_000;
        let values: Vec<f32> = (0..n)
            .map(|_| {
                if rng.gen_bool(0.01) {
                    rng.gen_range(-1.0..1.0)
                } else {
                    0.0
                }
            })
            .collect();
        let mut scratch = TopKScratch::new();
        for k in [n / 25, n / 5] {
            let got = top_k_abs_masked_into(&values, k, TopKScope::All, &mut scratch).to_vec();
            assert_eq!(got, top_k_by_sort(&values, k), "k={k}");
            let kept = scratch.survivors.len();
            assert!(kept <= 2 * k, "k={k} kept {kept}");
        }
    }

    #[test]
    fn sample_positions_cover_each_stratum_once() {
        for (len, stride) in [(100, 8), (4096, 8), (183_616, 22), (1 << 20, 128)] {
            let positions: Vec<usize> = sample_positions(len, stride).collect();
            assert_eq!(positions.len(), len / stride);
            for (j, &i) in positions.iter().enumerate() {
                assert_eq!(i / stride, j, "len {len} stride {stride}");
            }
        }
    }

    /// The sampled threshold of a typical input keeps all of the top k
    /// plus a modest margin, with no fallback.
    #[test]
    fn sampled_threshold_keeps_a_small_superset() {
        let mut rng = StdRng::seed_from_u64(41);
        let n = 100_000;
        let values: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut scratch = TopKScratch::new();
        for k in [n / 100, n / 25, n / 5] {
            let got = top_k_abs_masked_into(&values, k, TopKScope::All, &mut scratch).to_vec();
            assert_eq!(got, top_k_by_sort(&values, k), "k={k}");
            let kept = scratch.survivors.len();
            assert!(kept >= k && kept <= k + k / 2, "k={k} kept {kept}");
        }
    }

    #[test]
    fn keys_order_like_magnitudes() {
        let ordered = [
            f32::NAN,
            0.0,
            f32::from_bits(1),
            f32::MIN_POSITIVE,
            1.0,
            f32::MAX,
            f32::INFINITY,
        ];
        for pair in ordered.windows(2) {
            assert!(key_of(pair[0]) < key_of(pair[1]), "{pair:?}");
            assert!(key_of(-pair[0]) < key_of(-pair[1]), "{pair:?}");
        }
        assert_eq!(key_of(-0.0), key_of(0.0));
        assert_eq!(key_of(-f32::NAN), NAN_KEY);
    }

    /// The pool-sharded filter pass must select exactly what a full sort
    /// selects: the input spans several shards and ends off a word
    /// boundary.
    #[cfg(feature = "parallel")]
    #[test]
    fn sharded_filter_pass_is_exact() {
        let mut rng = StdRng::seed_from_u64(31);
        let n = 2 * 64 * super::PAR_SHARD_WORDS + 4321;
        let values: Vec<f32> = (0..n)
            .map(|_| match rng.gen_range(0..8) {
                0 => 0.0,
                1 => f32::NAN,
                2 => rng.gen_range(-2i32..3) as f32,
                _ => rng.gen_range(-1.0..1.0),
            })
            .collect();
        let mask = BitMask::from_indices(n, (0..n).filter(|_| rng.gen::<f64>() < 0.2));
        let mut scratch = TopKScratch::new();
        for k in [1, 97, n / 50, n / 3] {
            for (name, keep) in [
                ("all", TopKScope::All),
                ("inside", TopKScope::Inside(&mask)),
                ("outside", TopKScope::Outside(&mask)),
            ] {
                let cands: Vec<usize> = (0..n).filter(|&i| in_scope(keep, i)).collect();
                let mut ranked = cands.clone();
                ranked.sort_by_key(|&i| (std::cmp::Reverse(key_of(values[i])), i));
                let mut want: Vec<usize> = ranked.into_iter().take(k).collect();
                want.sort_unstable();
                let got = top_k_abs_masked_into(&values, k, keep, &mut scratch).to_vec();
                assert_eq!(got, want, "scope {name} k={k}");
            }
        }
    }
}
