//! Four-lane SIMD kernels for the Shoup/lazy hot loops, behind runtime
//! backend dispatch.
//!
//! # Lane width and backends
//!
//! Every kernel in this module processes [`LANES`] = 4 residues per block.
//! Three implementations share one code shape (block loop over
//! `chunks_exact(LANES)` plus a scalar tail for pointwise kernels):
//!
//! * [`SimdBackend::Avx512`] — x86_64 with AVX512F+DQ+VL: 8 lanes per
//!   iteration (odd 4-lane remainders delegate to the AVX2 kernels),
//!   native `vpmullq` 64-bit low multiplies, and mask-register compares
//!   for the conditional subtractions. Preferred over AVX2 when detected.
//! * [`SimdBackend::Avx2`] — x86_64 with AVX2. There is no 64×64→128
//!   multiply in AVX2, so the high and low halves of every product are
//!   emulated from four `vpmuludq` (32×32→64) cross products; see
//!   `avx2::mulhi_epu64` for the exactness argument.
//! * [`SimdBackend::Neon`] — aarch64. Same cross-product emulation built
//!   from `umull` (`vmull_u32`) over narrowed 32-bit halves, two
//!   `uint64x2_t` registers per 4-lane block.
//! * [`SimdBackend::Portable`] — a 4-lane scalar-unrolled fallback with the
//!   identical blocking shape, compiled on every platform. This is the
//!   default wherever no vector unit is detected, so all targets exercise
//!   the same dispatch structure and block layout.
//!
//! [`SimdBackend::Scalar`] is a sentinel for the canonical scalar path in
//! `pi-poly`'s NTT engine (the differential-test oracle); when it is
//! selected, callers run their original element-at-a-time loops and the
//! kernels here are never entered.
//!
//! All four paths compute the *identical* sequence of wrapping u64
//! operations, so results agree with the scalar engine **bit for bit**,
//! including unreduced lazy-domain representatives — which is what the
//! `ntt_simd_differential` umbrella suite asserts.
//!
//! # Gather/permute lane contracts
//!
//! The gather kernels ([`gather_u64`], [`gather_add_lazy`],
//! [`dyadic_mul_acc_shoup_gather2`]) read `src[idx[j]]` for every output
//! lane `j`:
//!
//! * **Bounds** are asserted once up front by the safe wrappers here
//!   (`idx[j] < src.len()` for all `j`) — the backend kernels themselves
//!   perform *unchecked* hardware gathers (`vpgatherdq` on x86_64), so the
//!   wrapper assert is the entire safety argument. Indices are 32-bit and
//!   sign-extended by the hardware, so tables are limited to `2^31`
//!   elements (far above any ring dimension here).
//! * **Aliasing**: `src` must not overlap the destination/accumulator
//!   slices (enforced by Rust borrows at the wrapper signatures).
//! * NEON has no arbitrary-stride gather (`tbl` only permutes in-register
//!   bytes), so its gather kernels do scalar indexed loads feeding lane
//!   arithmetic — still bit-for-bit identical, since data movement has no
//!   arithmetic to diverge.
//!
//! The **blocked-permute** kernels ([`permute8`], [`permute8_add_lazy`],
//! [`permute8_mul_acc_shoup2`]) are the fast path for the same data
//! movement when the index table has the aligned-8-block structure that
//! every Galois automorphism has in the bit-reversed slot order: each
//! aligned 8-lane output block reads a permutation of exactly one aligned
//! 8-lane source block, `out[8b+t] = src[8·bsrc[b] + pat_b(t)]`. Measured
//! on this workload, hardware gathers (`vpgatherdq`) *lose* to scalar
//! copies when no arithmetic amortizes their latency; the blocked form
//! replaces eight gather lanes with one contiguous zmm load + one
//! `vpermq` (`_mm512_permutexvar_epi64`) steered by the packed pattern
//! byte `pat_b(t) = (bpat[b] >> 8t) & 7`. Backends without a cross-lane
//! 64-bit runtime permute (AVX2, NEON, portable) shuffle block-locally out
//! of a single cache line and keep the lane arithmetic vectorized. Safety
//! is again entirely in the wrapper asserts: `8·bsrc[b] + 8 ≤ src.len()`
//! and every pattern byte `< 8`. Same bit-for-bit contract as the gathers.
//!
//! # Lazy-range invariants per kernel
//!
//! With `q < 2^62` every value in `[0, 4q)` fits a `u64` (see the
//! `modulus` module docs):
//!
//! | kernel                    | inputs                    | outputs    |
//! |---------------------------|---------------------------|------------|
//! | [`forward_stage`]         | `[0, 4q)`                 | `[0, 4q)`  |
//! | [`inverse_stage`]         | `[0, 2q)`                 | `[0, 2q)`  |
//! | [`inverse_last_stage`]    | `[0, 2q)`                 | `[0, q)`   |
//! | [`reduce_4q`]             | `[0, 4q)`                 | `[0, q)`   |
//! | [`dyadic_mul_shoup`]      | `a` any u64, op reduced   | `[0, q)`   |
//! | [`dyadic_mul_acc_shoup`]  | acc `[0, 2q)`, `a` any    | `[0, 2q)`  |
//! | [`dyadic_mul`]            | both `[0, q)`             | `[0, q)`   |
//! | [`dyadic_mul_acc`]        | all `[0, q)`              | `[0, q)`   |
//! | [`gather_u64`]            | any u64                   | unchanged  |
//! | [`gather_add_lazy`]       | acc, src `[0, 2q)`        | `[0, 2q)`  |
//! | [`dyadic_mul_acc_shoup_gather2`] | acc `[0, 2q)`, src any | `[0, 2q)` |
//! | [`round_term_acc_wide`]   | digits `[0, q_src)`       | 128-bit    |
//! | [`channel_finish`]        | `(hi, lo)` 128-bit, y any | `[0, q)`   |
//! | [`garner_step`]           | v `[0, q)`, t `[0, q)`    | `[0, q)`   |
//!
//! The butterfly kernels implement exactly the Harvey formulation from
//! `pi-poly`: the forward stage conditionally subtracts `2q` from the upper
//! operand, runs `mul_shoup_lazy` on the lower one, and emits `u + v` /
//! `u + 2q − v`; the inverse stage pairs `add_lazy` with a lazy Shoup
//! multiply of `u + 2q − v`; the last inverse stage folds `n^{-1}` into its
//! twiddles and reduces exactly.
//!
//! # Dispatch rules
//!
//! [`backend`] resolves once per process (cached in an atomic), in order:
//!
//! 1. a programmatic override installed with [`force_backend`] (used by the
//!    differential tests to pin both sides of a comparison);
//! 2. the `PI_SIMD` environment variable: `scalar`/`off`/`0` select the
//!    scalar oracle, `portable` the 4-lane fallback, `avx2`/`avx512`/
//!    `neon` demand that specific vector unit (**panicking** if it
//!    is not compiled in or not detected — a forced-SIMD CI run fails
//!    loudly instead of silently degrading), and `auto`/`on`/`1` the
//!    automatic choice;
//! 3. automatic detection: AVX-512 (F+DQ+VL), then AVX2, via
//!    `is_x86_feature_detected!` on x86_64; NEON unconditionally on
//!    aarch64 (baseline feature); otherwise the portable fallback.
//!
//! Compiling with `--no-default-features` (disabling the `simd` cargo
//! feature) removes the intrinsics backends entirely; resolution then picks
//! the portable fallback, which is how the non-AVX2 code path is built and
//! tested on every CI run.
//!
//! Stage granularity: `pi-poly` routes a butterfly stage here only when the
//! stride `t` is at least [`LANES`]; the `log2(LANES)` stages with smaller
//! strides (twiddles change faster than a vector register fills) always run
//! the canonical scalar butterflies, as do full transforms under the
//! `Scalar` backend.

use crate::modulus::{Modulus, ShoupMul};
use std::sync::atomic::{AtomicU8, Ordering};

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod avx2;
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod avx512;
#[cfg(all(feature = "simd", target_arch = "aarch64"))]
mod neon;
mod portable;

/// Number of lanes processed per vector block.
pub const LANES: usize = 4;

/// The selected kernel implementation (see the module docs for the
/// dispatch rules).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum SimdBackend {
    /// The canonical scalar path in the callers — the differential oracle.
    /// Kernels in this module are never entered under this backend.
    Scalar = 1,
    /// The 4-lane scalar-unrolled fallback (compiled on every platform).
    Portable = 2,
    /// AVX2 `vpmuludq` high-half emulation on x86_64.
    Avx2 = 3,
    /// NEON `umull` cross products on aarch64.
    Neon = 4,
    /// AVX-512 (F+DQ+VL): 8 lanes, native `vpmullq` low multiplies, mask
    /// compares. Preferred over AVX2 when detected.
    Avx512 = 5,
}

impl SimdBackend {
    /// Short lowercase name, used in bench/CI logs (`csv,simd_backend,…`).
    pub fn name(self) -> &'static str {
        match self {
            SimdBackend::Scalar => "scalar",
            SimdBackend::Portable => "portable",
            SimdBackend::Avx2 => "avx2",
            SimdBackend::Neon => "neon",
            SimdBackend::Avx512 => "avx512",
        }
    }

    /// Whether this backend routes through the lane kernels in this module
    /// (everything except the scalar oracle).
    pub fn is_vector(self) -> bool {
        self != SimdBackend::Scalar
    }

    /// Whether this backend can run on the current build and CPU.
    pub fn available(self) -> bool {
        match self {
            SimdBackend::Scalar | SimdBackend::Portable => true,
            SimdBackend::Avx2 => {
                #[cfg(all(feature = "simd", target_arch = "x86_64"))]
                {
                    std::arch::is_x86_feature_detected!("avx2")
                }
                #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
                {
                    false
                }
            }
            SimdBackend::Neon => cfg!(all(feature = "simd", target_arch = "aarch64")),
            SimdBackend::Avx512 => {
                #[cfg(all(feature = "simd", target_arch = "x86_64"))]
                {
                    std::arch::is_x86_feature_detected!("avx512f")
                        && std::arch::is_x86_feature_detected!("avx512dq")
                        && std::arch::is_x86_feature_detected!("avx512vl")
                }
                #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
                {
                    false
                }
            }
        }
    }

    fn from_u8(v: u8) -> SimdBackend {
        match v {
            1 => SimdBackend::Scalar,
            2 => SimdBackend::Portable,
            3 => SimdBackend::Avx2,
            4 => SimdBackend::Neon,
            5 => SimdBackend::Avx512,
            _ => unreachable!("invalid backend encoding"),
        }
    }
}

/// 0 = unresolved; otherwise a `SimdBackend` discriminant.
static BACKEND: AtomicU8 = AtomicU8::new(0);

/// The backend every dispatching caller should use, resolved once per
/// process (override > `PI_SIMD` environment variable > detection) and
/// cached. See the module docs for the full rules.
#[inline]
pub fn backend() -> SimdBackend {
    match BACKEND.load(Ordering::Relaxed) {
        0 => {
            let be = resolve();
            BACKEND.store(be as u8, Ordering::Relaxed);
            be
        }
        v => SimdBackend::from_u8(v),
    }
}

/// The backend automatic detection would pick on this build and CPU,
/// ignoring any override or environment setting.
pub fn auto_backend() -> SimdBackend {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        if SimdBackend::Avx512.available() {
            return SimdBackend::Avx512;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return SimdBackend::Avx2;
        }
    }
    #[cfg(all(feature = "simd", target_arch = "aarch64"))]
    return SimdBackend::Neon;
    #[allow(unreachable_code)]
    SimdBackend::Portable
}

/// Pins the dispatched backend, overriding environment and detection.
/// Intended for differential tests and benchmarks that compare paths
/// in-process; serialize callers that flip it concurrently.
///
/// # Panics
///
/// Panics if the requested backend is not available on this build/CPU.
pub fn force_backend(be: SimdBackend) {
    assert!(
        be.available(),
        "SIMD backend {} is not available on this build/CPU",
        be.name()
    );
    BACKEND.store(be as u8, Ordering::Relaxed);
}

/// Removes a [`force_backend`] override; the next [`backend`] call
/// re-resolves from the environment and detection.
pub fn clear_forced_backend() {
    BACKEND.store(0, Ordering::Relaxed);
}

fn resolve() -> SimdBackend {
    match std::env::var("PI_SIMD") {
        Err(_) => auto_backend(),
        Ok(v) => match v.to_ascii_lowercase().as_str() {
            "" | "1" | "on" | "auto" => auto_backend(),
            "0" | "off" | "scalar" => SimdBackend::Scalar,
            "portable" => SimdBackend::Portable,
            "avx2" => {
                assert!(
                    SimdBackend::Avx2.available(),
                    "PI_SIMD=avx2 requested but AVX2 is unavailable \
                     (not an x86_64 build with the `simd` feature, or the CPU lacks it)"
                );
                SimdBackend::Avx2
            }
            "avx512" => {
                assert!(
                    SimdBackend::Avx512.available(),
                    "PI_SIMD=avx512 requested but AVX-512 (F+DQ+VL) is unavailable \
                     (not an x86_64 build with the `simd` feature, or the CPU lacks it)"
                );
                SimdBackend::Avx512
            }
            "neon" => {
                assert!(
                    SimdBackend::Neon.available(),
                    "PI_SIMD=neon requested but NEON is unavailable \
                     (not an aarch64 build with the `simd` feature)"
                );
                SimdBackend::Neon
            }
            other => panic!(
                "unknown PI_SIMD value {other:?} \
                 (expected scalar|portable|avx2|avx512|neon|auto)"
            ),
        },
    }
}

/// Routes one kernel invocation to the requested backend. An unavailable
/// vector backend (possible only if a caller passes a stale enum value,
/// since [`force_backend`]/[`backend`] validate) degrades to the portable
/// fallback rather than risking an illegal-instruction fault.
macro_rules! dispatch {
    ($be:expr, $name:ident($($arg:expr),* $(,)?)) => {{
        match $be {
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            SimdBackend::Avx512 if SimdBackend::Avx512.available() => {
                // SAFETY: AVX512F/DQ/VL support was just verified on this CPU.
                #[allow(unsafe_code)]
                unsafe { avx512::$name($($arg),*) }
            }
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            SimdBackend::Avx2 if std::arch::is_x86_feature_detected!("avx2") => {
                // SAFETY: AVX2 support was just verified on this CPU.
                #[allow(unsafe_code)]
                unsafe { avx2::$name($($arg),*) }
            }
            #[cfg(all(feature = "simd", target_arch = "aarch64"))]
            SimdBackend::Neon => {
                // SAFETY: NEON is a baseline feature of every aarch64 target.
                #[allow(unsafe_code)]
                unsafe { neon::$name($($arg),*) }
            }
            _ => portable::$name($($arg),*),
        }
    }};
}

/// One forward Cooley–Tukey butterfly stage: `m` blocks of stride `t`, the
/// `i`-th block using twiddle `(w_vals[i], w_quots[i])` in Shoup form.
/// Values stay in the `[0, 4q)` forward domain.
///
/// # Panics
///
/// Panics if `a.len() != 2·m·t`, the twiddle slices are shorter than `m`,
/// or the stride is unsupported: the 4-lane backends require `t` to be a
/// positive multiple of [`LANES`], while `Avx512` additionally accepts any
/// `t` when `a.len()` is a multiple of 16 (the permute-based small-stride
/// path).
pub fn forward_stage(
    be: SimdBackend,
    q: &Modulus,
    w_vals: &[u64],
    w_quots: &[u64],
    a: &mut [u64],
    m: usize,
    t: usize,
) {
    assert_stage_geometry(be, w_vals, w_quots, a, m, t);
    dispatch!(be, forward_stage(q, w_vals, w_quots, a, m, t))
}

/// The batched form of [`forward_stage`]: the same stage applied to every
/// column in `batch`, with the loop order flipped to twiddle-outer /
/// column-inner so each Shoup pair is splat into registers **once for the
/// whole batch** instead of once per column. Arithmetic per element is
/// identical to the single-column kernel, so outputs are bit-for-bit equal.
///
/// # Panics
///
/// Panics if any column fails the [`forward_stage`] geometry conditions.
pub fn forward_stage_many(
    be: SimdBackend,
    q: &Modulus,
    w_vals: &[u64],
    w_quots: &[u64],
    batch: &mut [&mut [u64]],
    m: usize,
    t: usize,
) {
    for a in batch.iter() {
        assert_stage_geometry(be, w_vals, w_quots, a, m, t);
    }
    dispatch!(be, forward_stage_many(q, w_vals, w_quots, batch, m, t))
}

/// One inverse Gentleman–Sande butterfly stage (not the last): `h` blocks
/// of stride `t` over the `[0, 2q)` lazy domain.
///
/// # Panics
///
/// Panics under the same geometry conditions as [`forward_stage`].
pub fn inverse_stage(
    be: SimdBackend,
    q: &Modulus,
    w_vals: &[u64],
    w_quots: &[u64],
    a: &mut [u64],
    h: usize,
    t: usize,
) {
    assert_stage_geometry(be, w_vals, w_quots, a, h, t);
    dispatch!(be, inverse_stage(q, w_vals, w_quots, a, h, t))
}

/// The batched form of [`inverse_stage`] (see [`forward_stage_many`] for
/// the twiddle-outer / column-inner rationale).
///
/// # Panics
///
/// Panics if any column fails the [`forward_stage`] geometry conditions.
pub fn inverse_stage_many(
    be: SimdBackend,
    q: &Modulus,
    w_vals: &[u64],
    w_quots: &[u64],
    batch: &mut [&mut [u64]],
    h: usize,
    t: usize,
) {
    for a in batch.iter() {
        assert_stage_geometry(be, w_vals, w_quots, a, h, t);
    }
    dispatch!(be, inverse_stage_many(q, w_vals, w_quots, batch, h, t))
}

/// The last inverse stage with the `n^{-1}` scaling folded into its two
/// twiddles; reduces exactly into `[0, q)`.
///
/// # Panics
///
/// Panics if `a.len()` is odd or `a.len()/2` is not a positive multiple of
/// [`LANES`].
pub fn inverse_last_stage(
    be: SimdBackend,
    q: &Modulus,
    n_inv: ShoupMul,
    psi_n_inv: ShoupMul,
    a: &mut [u64],
) {
    let half = a.len() / 2;
    assert!(a.len().is_multiple_of(2) && half >= LANES && half.is_multiple_of(LANES));
    dispatch!(be, inverse_last_stage(q, n_inv, psi_n_inv, a))
}

/// Final correction pass `[0, 4q) → [0, q)` over a slice (two conditional
/// subtractions per element; arbitrary length, scalar tail).
pub fn reduce_4q(be: SimdBackend, q: &Modulus, a: &mut [u64]) {
    dispatch!(be, reduce_4q(q, a))
}

/// Pointwise Shoup product `out[i] = a[i]·w[i] mod q`, strictly reduced.
/// `a` may be in the lazy range (any u64, per the Shoup contract);
/// `(vals, quots)` are the per-element Shoup pairs.
///
/// # Panics
///
/// Panics on length mismatch.
pub fn dyadic_mul_shoup(
    be: SimdBackend,
    q: &Modulus,
    out: &mut [u64],
    a: &[u64],
    vals: &[u64],
    quots: &[u64],
) {
    let n = out.len();
    assert!(a.len() == n && vals.len() == n && quots.len() == n);
    dispatch!(be, dyadic_mul_shoup(q, out, a, vals, quots))
}

/// Lazy pointwise Shoup multiply-accumulate over the `[0, 2q)` domain:
/// `acc[i] ← add_lazy(acc[i], mul_shoup_lazy(a[i], w[i]))`.
///
/// # Panics
///
/// Panics on length mismatch.
pub fn dyadic_mul_acc_shoup(
    be: SimdBackend,
    q: &Modulus,
    acc: &mut [u64],
    a: &[u64],
    vals: &[u64],
    quots: &[u64],
) {
    let n = acc.len();
    assert!(a.len() == n && vals.len() == n && quots.len() == n);
    dispatch!(be, dyadic_mul_acc_shoup(q, acc, a, vals, quots))
}

/// Pointwise Shoup product against one broadcast multiplicand:
/// `out[i] = a[i]·w mod q`, strictly reduced (`a` may be any u64). The
/// digit-scaling pass of the fast base conversion.
///
/// # Panics
///
/// Panics on length mismatch.
pub fn mul_shoup_bcast(be: SimdBackend, q: &Modulus, out: &mut [u64], a: &[u64], w: ShoupMul) {
    assert_eq!(a.len(), out.len());
    dispatch!(be, mul_shoup_bcast(q, out, a, w))
}

/// 128-bit-wide lazy Shoup multiply-accumulate against one broadcast
/// multiplicand: `(hi[i], lo[i]) += mul_shoup_lazy(a[i], w)` with the pair
/// holding an exact 128-bit sum (the lane form of the `u128` accumulator
/// in [`crate::fbc::FastBaseConverter::fold`]). Each term is `< 2q <
/// 2^63`, so `hi` grows by at most one per call.
///
/// # Panics
///
/// Panics on length mismatch.
pub fn mul_shoup_lazy_acc_wide(
    be: SimdBackend,
    q: &Modulus,
    lo: &mut [u64],
    hi: &mut [u64],
    a: &[u64],
    w: ShoupMul,
) {
    assert!(hi.len() == lo.len() && a.len() == lo.len());
    dispatch!(be, mul_shoup_lazy_acc_wide(q, lo, hi, a, w))
}

/// Finishes a fold: `out[i] = reduce_u128((hi[i], lo[i])) − v[i]·q_mod
/// (mod q)` — the Barrett reduction of the 128-bit accumulator followed by
/// the correction subtrahend, exactly as the scalar
/// [`crate::fbc::FastBaseConverter::fold`].
///
/// # Panics
///
/// Panics on length mismatch.
pub fn fold_finish(
    be: SimdBackend,
    q: &Modulus,
    out: &mut [u64],
    lo: &[u64],
    hi: &[u64],
    v: &[u64],
    q_mod: ShoupMul,
) {
    let n = out.len();
    assert!(lo.len() == n && hi.len() == n && v.len() == n);
    dispatch!(be, fold_finish(q, out, lo, hi, v, q_mod))
}

/// Bounds check shared by every gather wrapper: this assert is the entire
/// safety argument for the unchecked hardware gathers in the backends.
#[inline]
fn assert_gather_idx(idx: &[u32], src_len: usize) {
    assert!(
        idx.iter().all(|&i| (i as usize) < src_len),
        "gather index out of bounds (src len {src_len})"
    );
}

/// Gather `out[j] = src[idx[j]]` — the lane form of `GaloisPerm::apply`
/// (pure data movement, bit-for-bit on every backend, lazy inputs
/// included).
///
/// # Panics
///
/// Panics on length mismatch or any out-of-bounds index.
pub fn gather_u64(be: SimdBackend, out: &mut [u64], src: &[u64], idx: &[u32]) {
    assert_eq!(out.len(), idx.len());
    assert_gather_idx(idx, src.len());
    dispatch!(be, gather_u64(out, src, idx))
}

/// Fused gather + lazy add over the `[0, 2q)` domain:
/// `acc[j] ← add_lazy(acc[j], src[idx[j]])` — one pass over memory instead
/// of gather-then-add.
///
/// # Panics
///
/// Panics on length mismatch or any out-of-bounds index.
pub fn gather_add_lazy(be: SimdBackend, q: &Modulus, acc: &mut [u64], src: &[u64], idx: &[u32]) {
    assert_eq!(acc.len(), idx.len());
    assert_gather_idx(idx, src.len());
    dispatch!(be, gather_add_lazy(q, acc, src, idx))
}

/// The fused key-switch inner loop: gather `t = src[idx[j]]` once, then
/// `acc0[j] ← add_lazy(acc0[j], mul_shoup_lazy(t, w0[j]))` and the same
/// for `acc1`/`w1` — the permuted digit feeds both halves of the switching
/// key in one pass over memory (no materialized permuted buffer).
///
/// # Panics
///
/// Panics on length mismatch or any out-of-bounds index.
#[allow(clippy::too_many_arguments)]
pub fn dyadic_mul_acc_shoup_gather2(
    be: SimdBackend,
    q: &Modulus,
    acc0: &mut [u64],
    acc1: &mut [u64],
    src: &[u64],
    idx: &[u32],
    vals0: &[u64],
    quots0: &[u64],
    vals1: &[u64],
    quots1: &[u64],
) {
    let n = acc0.len();
    assert!(
        acc1.len() == n
            && idx.len() == n
            && vals0.len() == n
            && quots0.len() == n
            && vals1.len() == n
            && quots1.len() == n
    );
    assert_gather_idx(idx, src.len());
    dispatch!(
        be,
        dyadic_mul_acc_shoup_gather2(q, acc0, acc1, src, idx, vals0, quots0, vals1, quots1)
    )
}

/// Bounds check shared by the blocked-permute wrappers — the entire safety
/// argument for the unchecked loads and `vpermq` steering in the backends:
/// every source block must lie inside `src` and every packed pattern byte
/// must select an intra-block lane (`< 8`).
#[inline]
fn assert_permute8_args(out_len: usize, src_len: usize, bsrc: &[u32], bpat: &[u64]) {
    assert!(out_len.is_multiple_of(8), "blocked permute needs 8 | len");
    let blocks = out_len / 8;
    assert!(bsrc.len() == blocks && bpat.len() == blocks);
    assert!(
        bsrc.iter().all(|&b| (b as usize) * 8 + 8 <= src_len),
        "permute source block out of bounds (src len {src_len})"
    );
    assert!(
        bpat.iter().all(|&p| p & !0x0707_0707_0707_0707 == 0),
        "permute pattern byte out of block range"
    );
}

/// Blocked in-register permutation: `out[8b+t] = src[8·bsrc[b] + pat_b(t)]`
/// where `pat_b(t)` is byte `t` of `bpat[b]`. This is `gather_u64` for the
/// aligned-8-block index structure every power-of-two Galois automorphism
/// has in the bit-reversed slot order: on AVX-512 each block is one zmm
/// load + one `vpermq` + one store (no hardware gather); the other
/// backends move block-locally out of a single cache line. Pure data
/// movement — bit-for-bit on every backend, lazy inputs included.
///
/// # Panics
///
/// Panics on length mismatch, an out-of-range source block, or a pattern
/// byte `≥ 8`.
pub fn permute8(be: SimdBackend, out: &mut [u64], src: &[u64], bsrc: &[u32], bpat: &[u64]) {
    assert_permute8_args(out.len(), src.len(), bsrc, bpat);
    dispatch!(be, permute8(out, src, bsrc, bpat))
}

/// Blocked-permute form of [`gather_add_lazy`]:
/// `acc[8b+t] ← add_lazy(acc[8b+t], src[8·bsrc[b] + pat_b(t)])`.
///
/// # Panics
///
/// Panics under the same conditions as [`permute8`].
pub fn permute8_add_lazy(
    be: SimdBackend,
    q: &Modulus,
    acc: &mut [u64],
    src: &[u64],
    bsrc: &[u32],
    bpat: &[u64],
) {
    assert_permute8_args(acc.len(), src.len(), bsrc, bpat);
    dispatch!(be, permute8_add_lazy(q, acc, src, bsrc, bpat))
}

/// Blocked-permute form of [`dyadic_mul_acc_shoup_gather2`]: the permuted
/// lane feeds both lazy Shoup accumulations in one pass, with the gather
/// replaced by the load + `vpermq` block schedule of [`permute8`].
///
/// # Panics
///
/// Panics on length mismatch or under the [`permute8`] block conditions.
#[allow(clippy::too_many_arguments)]
pub fn permute8_mul_acc_shoup2(
    be: SimdBackend,
    q: &Modulus,
    acc0: &mut [u64],
    acc1: &mut [u64],
    src: &[u64],
    bsrc: &[u32],
    bpat: &[u64],
    vals0: &[u64],
    quots0: &[u64],
    vals1: &[u64],
    quots1: &[u64],
) {
    let n = acc0.len();
    assert!(
        acc1.len() == n
            && vals0.len() == n
            && quots0.len() == n
            && vals1.len() == n
            && quots1.len() == n
    );
    assert_permute8_args(n, src.len(), bsrc, bpat);
    dispatch!(
        be,
        permute8_mul_acc_shoup2(q, acc0, acc1, src, bsrc, bpat, vals0, quots0, vals1, quots1)
    )
}

/// One source-prime term of the FBC 64.64 fixed-point centered correction:
/// `(hi[i], lo[i]) += floor(d[i]·frac / 2^64)` with the pair holding an
/// exact 128-bit sum (the lane form of the `u128` accumulator in
/// `FastBaseConverter::round_correction`). The term is computed as
/// `d·frac_hi + mulhi(d, frac_lo)`, which is exact and `< 2^64` for
/// `d < q_src` — see the scalar oracle for the fraction's provenance.
///
/// # Panics
///
/// Panics on length mismatch.
pub fn round_term_acc_wide(be: SimdBackend, lo: &mut [u64], hi: &mut [u64], d: &[u64], frac: u128) {
    assert!(hi.len() == lo.len() && d.len() == lo.len());
    dispatch!(be, round_term_acc_wide(lo, hi, d, frac))
}

/// Finishes the Shenoy–Kumaresan channel correction:
/// `out[i] = (reduce_u128((hi[i], lo[i])) − y[i]) · q_inv mod q`, exactly
/// as the scalar `FastBaseConverter::channel_correction` (the per-prime
/// cross terms having been accumulated with [`mul_shoup_lazy_acc_wide`]).
///
/// # Panics
///
/// Panics on length mismatch.
pub fn channel_finish(
    be: SimdBackend,
    q: &Modulus,
    out: &mut [u64],
    lo: &[u64],
    hi: &[u64],
    y: &[u64],
    q_inv: ShoupMul,
) {
    let n = out.len();
    assert!(lo.len() == n && hi.len() == n && y.len() == n);
    dispatch!(be, channel_finish(q, out, lo, hi, y, q_inv))
}

/// One Garner mixed-radix elimination step over a residue column:
/// `v[i] ← (v[i] − t[i]) · inv mod q`, computed as
/// `v·inv − t·inv (mod q)` so both products use the precomputed Shoup
/// pair — the same unique strict value as the scalar
/// `CrtBasis::compose` digit recurrence.
///
/// # Panics
///
/// Panics on length mismatch.
pub fn garner_step(be: SimdBackend, q: &Modulus, v: &mut [u64], t: &[u64], inv: ShoupMul) {
    assert_eq!(v.len(), t.len());
    dispatch!(be, garner_step(q, v, t, inv))
}

/// Pointwise Barrett product `out[i] = a[i]·b[i] mod q` of strictly
/// reduced slices (the full 128-bit Barrett reduction in lane form).
///
/// # Panics
///
/// Panics on length mismatch.
pub fn dyadic_mul(be: SimdBackend, q: &Modulus, out: &mut [u64], a: &[u64], b: &[u64]) {
    let n = out.len();
    assert!(a.len() == n && b.len() == n);
    dispatch!(be, dyadic_mul(q, out, a, b))
}

/// Pointwise Barrett multiply-accumulate
/// `acc[i] = (acc[i] + a[i]·b[i]) mod q` for strictly reduced inputs —
/// one fused reduction per slot, like [`Modulus::mul_add`].
///
/// # Panics
///
/// Panics on length mismatch.
pub fn dyadic_mul_acc(be: SimdBackend, q: &Modulus, acc: &mut [u64], a: &[u64], b: &[u64]) {
    let n = acc.len();
    assert!(a.len() == n && b.len() == n);
    dispatch!(be, dyadic_mul_acc(q, acc, a, b))
}

fn assert_stage_geometry(
    be: SimdBackend,
    w_vals: &[u64],
    w_quots: &[u64],
    a: &[u64],
    m: usize,
    t: usize,
) {
    let lane_ok = t >= LANES && t.is_multiple_of(LANES);
    let small_ok = be == SimdBackend::Avx512 && a.len().is_multiple_of(16);
    assert!(
        t >= 1 && (lane_ok || small_ok),
        "stage stride {t} not supported by backend {}",
        be.name()
    );
    assert_eq!(a.len(), 2 * m * t, "stage slice length mismatch");
    assert!(
        w_vals.len() >= m && w_quots.len() >= m,
        "twiddle slice too short"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::find_ntt_prime;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// Backends whose kernels can run here (portable everywhere, plus any
    /// detected vector unit). `Scalar` is excluded by construction: the
    /// kernels are never entered under it.
    fn runnable_backends() -> Vec<SimdBackend> {
        let mut v = vec![SimdBackend::Portable];
        for be in [SimdBackend::Avx2, SimdBackend::Avx512, SimdBackend::Neon] {
            if be.available() {
                v.push(be);
            }
        }
        v
    }

    fn boundary_moduli() -> Vec<Modulus> {
        // 28/45/59-bit NTT primes as in the scalar Shoup==Barrett tests,
        // plus the 61/62-bit overflow edges where w·a approaches 2^126 and
        // the forward domain approaches 2^64 (62 bits is the Modulus
        // ceiling and the production BFV modulus).
        [28u32, 45, 59, 61, 62]
            .iter()
            .map(|&bits| Modulus::new(find_ntt_prime(bits, 4096)))
            .collect()
    }

    /// Operand grid at the range boundaries of every lazy domain.
    fn boundary_operands(q: &Modulus) -> Vec<u64> {
        vec![
            0,
            1,
            q.value() - 1,
            q.value(),
            q.twice() - 1,
            q.twice(),
            4 * q.value() - 1,
            u64::MAX,
        ]
    }

    #[test]
    fn dyadic_mul_shoup_boundary_values_match_scalar() {
        for q in boundary_moduli() {
            let a = boundary_operands(&q);
            let w_raw: Vec<u64> = vec![
                0,
                1,
                q.value() - 1,
                q.value() / 2,
                q.value() - 1,
                2,
                q.value() / 3,
                q.value() - 2,
            ];
            let shoups: Vec<ShoupMul> = w_raw.iter().map(|&w| q.shoup(w)).collect();
            let vals: Vec<u64> = shoups.iter().map(|s| s.value).collect();
            let quots: Vec<u64> = shoups.iter().map(|s| s.quotient).collect();
            let expect: Vec<u64> = a
                .iter()
                .zip(&shoups)
                .map(|(&x, &s)| q.mul_shoup(x, s))
                .collect();
            for be in runnable_backends() {
                let mut out = vec![0u64; a.len()];
                dyadic_mul_shoup(be, &q, &mut out, &a, &vals, &quots);
                assert_eq!(out, expect, "backend {} q {}", be.name(), q);
            }
        }
    }

    #[test]
    fn dyadic_mul_acc_shoup_boundary_values_match_scalar_bitwise() {
        for q in boundary_moduli() {
            let a = boundary_operands(&q);
            // Accumulator pinned at the top of its [0, 2q) domain.
            let acc0: Vec<u64> = (0..a.len() as u64)
                .map(|i| {
                    if i % 2 == 0 {
                        q.twice() - 1
                    } else {
                        q.value() - 1
                    }
                })
                .collect();
            let w = q.shoup(q.value() - 1);
            let vals = vec![w.value; a.len()];
            let quots = vec![w.quotient; a.len()];
            let expect: Vec<u64> = acc0
                .iter()
                .zip(&a)
                .map(|(&o, &x)| q.add_lazy(o, q.mul_shoup_lazy(x, w)))
                .collect();
            for be in runnable_backends() {
                let mut acc = acc0.clone();
                dyadic_mul_acc_shoup(be, &q, &mut acc, &a, &vals, &quots);
                // Bit-for-bit on the unreduced lazy representatives.
                assert_eq!(acc, expect, "backend {} q {}", be.name(), q);
            }
        }
    }

    #[test]
    fn dyadic_barrett_boundary_values_match_scalar() {
        for q in boundary_moduli() {
            // Barrett kernels require strictly reduced operands.
            let a = vec![
                0,
                1,
                q.value() - 1,
                q.value() / 2,
                q.value() - 1,
                2,
                3,
                q.value() - 2,
            ];
            let b = vec![
                q.value() - 1,
                q.value() - 1,
                q.value() - 1,
                q.value() / 2,
                1,
                0,
                q.value() - 3,
                q.value() - 2,
            ];
            let acc0 = vec![q.value() - 1; a.len()];
            let expect_mul: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| q.mul(x, y)).collect();
            let expect_acc: Vec<u64> = acc0
                .iter()
                .zip(a.iter().zip(&b))
                .map(|(&c, (&x, &y))| q.mul_add(x, y, c))
                .collect();
            for be in runnable_backends() {
                let mut out = vec![0u64; a.len()];
                dyadic_mul(be, &q, &mut out, &a, &b);
                assert_eq!(out, expect_mul, "mul backend {} q {}", be.name(), q);
                let mut acc = acc0.clone();
                dyadic_mul_acc(be, &q, &mut acc, &a, &b);
                assert_eq!(acc, expect_acc, "mul_acc backend {} q {}", be.name(), q);
            }
        }
    }

    #[test]
    fn butterfly_stages_boundary_values_match_scalar_bitwise() {
        // One stage with m = 2 blocks of stride t = 4, inputs pinned at the
        // domain boundaries, twiddles at w = q−1 (the high-half emulation's
        // worst case) — mirrors the scalar Harvey invariants tests.
        for q in boundary_moduli() {
            let two_q = q.twice();
            let w = [q.shoup(q.value() - 1), q.shoup(q.value() / 2)];
            let vals: Vec<u64> = w.iter().map(|s| s.value).collect();
            let quots: Vec<u64> = w.iter().map(|s| s.quotient).collect();

            // Forward stage: inputs in [0, 4q).
            let fwd_in: Vec<u64> = (0..16u64)
                .map(|i| [0, q.value() - 1, two_q - 1, 4 * q.value() - 1][(i % 4) as usize])
                .collect();
            let mut expect = fwd_in.clone();
            #[allow(clippy::needless_range_loop)] // blk indexes both w and expect blocks
            for blk in 0..2 {
                for j in 0..4 {
                    let (lo, hi) = (blk * 8 + j, blk * 8 + 4 + j);
                    let mut u = expect[lo];
                    if u >= two_q {
                        u -= two_q;
                    }
                    let v = q.mul_shoup_lazy(expect[hi], w[blk]);
                    expect[lo] = u + v;
                    expect[hi] = u + two_q - v;
                }
            }
            for be in runnable_backends() {
                let mut a = fwd_in.clone();
                forward_stage(be, &q, &vals, &quots, &mut a, 2, 4);
                assert_eq!(a, expect, "forward backend {} q {}", be.name(), q);
            }

            // Inverse stage: inputs in [0, 2q).
            let inv_in: Vec<u64> = (0..16u64)
                .map(|i| [0, 1, q.value() - 1, two_q - 1][(i % 4) as usize])
                .collect();
            let mut expect = inv_in.clone();
            #[allow(clippy::needless_range_loop)] // blk indexes both w and expect blocks
            for blk in 0..2 {
                for j in 0..4 {
                    let (lo, hi) = (blk * 8 + j, blk * 8 + 4 + j);
                    let (u, v) = (expect[lo], expect[hi]);
                    expect[lo] = q.add_lazy(u, v);
                    expect[hi] = q.mul_shoup_lazy(u + two_q - v, w[blk]);
                }
            }
            for be in runnable_backends() {
                let mut a = inv_in.clone();
                inverse_stage(be, &q, &vals, &quots, &mut a, 2, 4);
                assert_eq!(a, expect, "inverse backend {} q {}", be.name(), q);
            }

            // Last inverse stage (folded n^{-1}): output strictly reduced.
            let n_inv = q.shoup(q.inv(8).unwrap());
            let psi_n_inv = q.shoup(q.mul(q.value() - 3 % q.value(), q.inv(8).unwrap()));
            let mut expect = inv_in.clone();
            let half = expect.len() / 2;
            for j in 0..half {
                let (u, v) = (expect[j], expect[half + j]);
                expect[j] = q.mul_shoup(u + v, n_inv);
                expect[half + j] = q.mul_shoup(u + two_q - v, psi_n_inv);
            }
            for be in runnable_backends() {
                let mut a = inv_in.clone();
                inverse_last_stage(be, &q, n_inv, psi_n_inv, &mut a);
                assert_eq!(a, expect, "last stage backend {} q {}", be.name(), q);
            }

            // reduce_4q over an odd-length slice (scalar tail included).
            let a: Vec<u64> = (0..13u64)
                .map(|i| [0, q.value() - 1, two_q, 4 * q.value() - 1][(i % 4) as usize])
                .collect();
            let expect: Vec<u64> = a.iter().map(|&x| q.reduce_4q(x)).collect();
            for be in runnable_backends() {
                let mut got = a.clone();
                reduce_4q(be, &q, &mut got);
                assert_eq!(got, expect, "reduce_4q backend {} q {}", be.name(), q);
            }
        }
    }

    #[test]
    fn backend_resolution_reports_available_name() {
        let be = auto_backend();
        assert!(be.available());
        assert!(be.is_vector());
        assert!(["portable", "avx2", "avx512", "neon"].contains(&be.name()));
    }

    #[test]
    fn gather_kernels_match_scalar_bitwise() {
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for q in boundary_moduli() {
            // 37 elements: exercises both the lane body and the scalar tail.
            let n = 37usize;
            let src: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q.twice())).collect();
            let mut idx: Vec<u32> = (0..n as u32).collect();
            for i in (1..n).rev() {
                idx.swap(i, rng.gen_range(0..=i));
            }
            let acc0: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q.twice())).collect();
            let w0: Vec<ShoupMul> = (0..n)
                .map(|_| q.shoup(rng.gen_range(0..q.value())))
                .collect();
            let w1: Vec<ShoupMul> = (0..n)
                .map(|_| q.shoup(rng.gen_range(0..q.value())))
                .collect();
            let (v0, q0): (Vec<u64>, Vec<u64>) = w0.iter().map(|s| (s.value, s.quotient)).unzip();
            let (v1, q1): (Vec<u64>, Vec<u64>) = w1.iter().map(|s| (s.value, s.quotient)).unzip();

            let expect_gather: Vec<u64> = idx.iter().map(|&i| src[i as usize]).collect();
            let expect_add: Vec<u64> = acc0
                .iter()
                .zip(&idx)
                .map(|(&a, &i)| q.add_lazy(a, src[i as usize]))
                .collect();
            let expect0: Vec<u64> = acc0
                .iter()
                .zip(idx.iter().zip(&w0))
                .map(|(&a, (&i, &w))| q.add_lazy(a, q.mul_shoup_lazy(src[i as usize], w)))
                .collect();
            let expect1: Vec<u64> = acc0
                .iter()
                .zip(idx.iter().zip(&w1))
                .map(|(&a, (&i, &w))| q.add_lazy(a, q.mul_shoup_lazy(src[i as usize], w)))
                .collect();

            for be in runnable_backends() {
                let mut out = vec![0u64; n];
                gather_u64(be, &mut out, &src, &idx);
                assert_eq!(out, expect_gather, "gather backend {} q {}", be.name(), q);

                let mut acc = acc0.clone();
                gather_add_lazy(be, &q, &mut acc, &src, &idx);
                assert_eq!(acc, expect_add, "gather_add backend {} q {}", be.name(), q);

                let mut a0 = acc0.clone();
                let mut a1 = acc0.clone();
                dyadic_mul_acc_shoup_gather2(
                    be, &q, &mut a0, &mut a1, &src, &idx, &v0, &q0, &v1, &q1,
                );
                assert_eq!(a0, expect0, "gather2/0 backend {} q {}", be.name(), q);
                assert_eq!(a1, expect1, "gather2/1 backend {} q {}", be.name(), q);
            }
        }
    }

    #[test]
    fn permute8_kernels_match_scalar_bitwise() {
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        for q in boundary_moduli() {
            // 8 output blocks over a 16-block source; patterns include
            // duplicates and identity (the kernel contract only requires
            // bytes < 8, not a bijection).
            let blocks = 8usize;
            let n = blocks * 8;
            let src: Vec<u64> = (0..128).map(|_| rng.gen_range(0..q.twice())).collect();
            let bsrc: Vec<u32> = (0..blocks as u32).map(|_| rng.gen_range(0..16)).collect();
            let bpat: Vec<u64> = (0..blocks)
                .map(|b| {
                    let mut p = 0u64;
                    for t in 0..8 {
                        let lane = if b == 0 {
                            t as u64
                        } else {
                            rng.gen_range(0..8u64)
                        };
                        p |= lane << (8 * t);
                    }
                    p
                })
                .collect();
            let idx: Vec<u32> = (0..n)
                .map(|j| bsrc[j / 8] * 8 + ((bpat[j / 8] >> (8 * (j % 8))) as u32 & 7))
                .collect();
            let acc0: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q.twice())).collect();
            let w0: Vec<ShoupMul> = (0..n)
                .map(|_| q.shoup(rng.gen_range(0..q.value())))
                .collect();
            let w1: Vec<ShoupMul> = (0..n)
                .map(|_| q.shoup(rng.gen_range(0..q.value())))
                .collect();
            let (v0, q0): (Vec<u64>, Vec<u64>) = w0.iter().map(|s| (s.value, s.quotient)).unzip();
            let (v1, q1): (Vec<u64>, Vec<u64>) = w1.iter().map(|s| (s.value, s.quotient)).unzip();

            let expect_perm: Vec<u64> = idx.iter().map(|&i| src[i as usize]).collect();
            let expect_add: Vec<u64> = acc0
                .iter()
                .zip(&idx)
                .map(|(&a, &i)| q.add_lazy(a, src[i as usize]))
                .collect();
            let expect0: Vec<u64> = acc0
                .iter()
                .zip(idx.iter().zip(&w0))
                .map(|(&a, (&i, &w))| q.add_lazy(a, q.mul_shoup_lazy(src[i as usize], w)))
                .collect();
            let expect1: Vec<u64> = acc0
                .iter()
                .zip(idx.iter().zip(&w1))
                .map(|(&a, (&i, &w))| q.add_lazy(a, q.mul_shoup_lazy(src[i as usize], w)))
                .collect();

            for be in runnable_backends() {
                let mut out = vec![0u64; n];
                permute8(be, &mut out, &src, &bsrc, &bpat);
                assert_eq!(out, expect_perm, "permute8 backend {} q {}", be.name(), q);

                let mut acc = acc0.clone();
                permute8_add_lazy(be, &q, &mut acc, &src, &bsrc, &bpat);
                assert_eq!(
                    acc,
                    expect_add,
                    "permute8_add backend {} q {}",
                    be.name(),
                    q
                );

                let mut a0 = acc0.clone();
                let mut a1 = acc0.clone();
                permute8_mul_acc_shoup2(
                    be, &q, &mut a0, &mut a1, &src, &bsrc, &bpat, &v0, &q0, &v1, &q1,
                );
                assert_eq!(a0, expect0, "permute8_mac2/0 backend {} q {}", be.name(), q);
                assert_eq!(a1, expect1, "permute8_mac2/1 backend {} q {}", be.name(), q);
            }
        }
    }

    #[test]
    fn correction_and_garner_kernels_match_scalar_bitwise() {
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for q in boundary_moduli() {
            let n = 37usize;
            // round_term_acc_wide: worst-case digits (q−1) and fractions at
            // both ends of the 64.64 window, plus random fills. The largest
            // fraction the converter ever builds is ⌊(2^128−1)/q⌋ (so
            // d·frac never overflows 128 bits for d < q — the kernel's
            // exactness precondition).
            for frac in [
                1u128,
                u64::MAX as u128,
                u128::MAX / q.value() as u128,
                (1u128 << 64) + 12345,
            ] {
                let d: Vec<u64> = (0..n)
                    .map(|i| {
                        if i % 3 == 0 {
                            q.value() - 1
                        } else {
                            rng.gen_range(0..q.value())
                        }
                    })
                    .collect();
                let lo0: Vec<u64> = (0..n).map(|_| rng.r#gen()).collect();
                let hi0: Vec<u64> = (0..n).map(|_| rng.gen_range(0..8)).collect();
                let mut expect_lo = lo0.clone();
                let mut expect_hi = hi0.clone();
                for j in 0..n {
                    let term = ((d[j] as u128 * frac) >> 64) as u64;
                    let (s, carry) = expect_lo[j].overflowing_add(term);
                    expect_lo[j] = s;
                    expect_hi[j] += carry as u64;
                }
                for be in runnable_backends() {
                    let mut lo = lo0.clone();
                    let mut hi = hi0.clone();
                    round_term_acc_wide(be, &mut lo, &mut hi, &d, frac);
                    assert_eq!(lo, expect_lo, "round lo backend {} q {}", be.name(), q);
                    assert_eq!(hi, expect_hi, "round hi backend {} q {}", be.name(), q);
                }
            }

            // channel_finish: 128-bit accumulators (incl. u64::MAX limbs)
            // against the scalar composition of reduce/sub/mul_shoup.
            let q_inv = q.shoup(rng.gen_range(1..q.value()));
            let lo: Vec<u64> = (0..n)
                .map(|i| if i % 4 == 0 { u64::MAX } else { rng.r#gen() })
                .collect();
            let hi: Vec<u64> = (0..n)
                .map(|i| if i % 4 == 1 { u64::MAX } else { rng.r#gen() })
                .collect();
            let y: Vec<u64> = (0..n)
                .map(|i| if i % 4 == 2 { u64::MAX } else { rng.r#gen() })
                .collect();
            let expect: Vec<u64> = (0..n)
                .map(|j| {
                    let acc = ((hi[j] as u128) << 64) | lo[j] as u128;
                    q.mul_shoup(q.sub(q.reduce_u128(acc), q.reduce(y[j])), q_inv)
                })
                .collect();
            for be in runnable_backends() {
                let mut out = vec![0u64; n];
                channel_finish(be, &q, &mut out, &lo, &hi, &y, q_inv);
                assert_eq!(out, expect, "channel backend {} q {}", be.name(), q);
            }

            // garner_step: strict inputs, strict outputs.
            let inv = q.shoup(rng.gen_range(1..q.value()));
            let v0: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q.value())).collect();
            let t: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q.value())).collect();
            let expect: Vec<u64> = v0
                .iter()
                .zip(&t)
                .map(|(&x, &tj)| q.sub(q.mul_shoup(x, inv), q.mul_shoup(tj, inv)))
                .collect();
            for be in runnable_backends() {
                let mut v = v0.clone();
                garner_step(be, &q, &mut v, &t, inv);
                assert_eq!(v, expect, "garner backend {} q {}", be.name(), q);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn dyadic_kernels_match_scalar_random(seed in any::<u64>(), bits in 28u32..=62) {
            let q = Modulus::new(find_ntt_prime(bits, 64));
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let n = 37; // deliberately not a multiple of LANES: tail path
            let a: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q.value())).collect();
            let b: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q.value())).collect();
            let lazy_a: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q.twice())).collect();
            let acc0: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q.twice())).collect();
            let shoups: Vec<ShoupMul> = b.iter().map(|&w| q.shoup(w)).collect();
            let vals: Vec<u64> = shoups.iter().map(|s| s.value).collect();
            let quots: Vec<u64> = shoups.iter().map(|s| s.quotient).collect();

            for be in runnable_backends() {
                let mut out = vec![0u64; n];
                dyadic_mul(be, &q, &mut out, &a, &b);
                let expect: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| q.mul(x, y)).collect();
                prop_assert_eq!(&out, &expect);

                let mut acc = a.clone();
                dyadic_mul_acc(be, &q, &mut acc, &a, &b);
                let expect: Vec<u64> =
                    a.iter().zip(a.iter().zip(&b)).map(|(&c, (&x, &y))| q.mul_add(x, y, c)).collect();
                prop_assert_eq!(&acc, &expect);

                let mut out = vec![0u64; n];
                dyadic_mul_shoup(be, &q, &mut out, &lazy_a, &vals, &quots);
                let expect: Vec<u64> =
                    lazy_a.iter().zip(&shoups).map(|(&x, &s)| q.mul_shoup(x, s)).collect();
                prop_assert_eq!(&out, &expect);

                let mut acc = acc0.clone();
                dyadic_mul_acc_shoup(be, &q, &mut acc, &lazy_a, &vals, &quots);
                let expect: Vec<u64> = acc0
                    .iter()
                    .zip(lazy_a.iter().zip(&shoups))
                    .map(|(&o, (&x, &s))| q.add_lazy(o, q.mul_shoup_lazy(x, s)))
                    .collect();
                prop_assert_eq!(&acc, &expect);
            }
        }
    }
}
