//! Differential suite: the fast (RNS-native, big-int-free) CRT-boundary
//! kernels against their exact big-integer oracles.
//!
//! Two layers, matching the stack:
//! * `pi-field`'s `FastBaseConverter` vs `CrtBasis::compose` + decompose /
//!   `extend_centered`, over 1–4-prime bases at 30/45/50-bit primes,
//!   including worst-case values at `±Q/2` where the fixed-point FBC
//!   correction is allowed to pick either centered representative;
//! * `pi-poly`'s batched `convert_basis_fast` / `extend_fast` vs
//!   `extend_centered` at n ∈ {16, 256, 2048}.

use private_inference::field::{CrtBasis, FastBaseConverter, U1024};
use private_inference::poly::rns::{convert_columns_fast, RnsContext, RnsPoly};
use private_inference::poly::PolyForm;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Splits `src_count + dst_count` NTT-friendly primes into disjoint bases.
fn split_basis(bits: u32, src_count: usize, dst_count: usize, n: u64) -> (CrtBasis, CrtBasis) {
    let primes =
        private_inference::field::find_distinct_ntt_primes(bits, src_count + dst_count, 2 * n)
            .unwrap();
    (
        CrtBasis::new(&primes[..src_count]).unwrap(),
        CrtBasis::new(&primes[src_count..]).unwrap(),
    )
}

fn random_below_q(b: &CrtBasis, rng: &mut impl Rng) -> U1024 {
    let residues: Vec<u64> = b
        .moduli()
        .iter()
        .map(|m| rng.gen_range(0..m.value()))
        .collect();
    b.compose(&residues)
}

// ---------------------------------------------------------------------------
// Field layer: FastBaseConverter vs compose + decompose.
// ---------------------------------------------------------------------------

#[test]
fn fbc_matches_exact_oracle_across_bases() {
    for &bits in &[30u32, 45, 50] {
        for k in 1..=4usize {
            let (src, dst) = split_basis(bits, k, k + 2, 1024);
            let conv = FastBaseConverter::new(&src, dst.moduli());
            let mut rng = rand::rngs::StdRng::seed_from_u64((bits as u64) << 8 | k as u64);
            for _ in 0..64 {
                let x = random_below_q(&src, &mut rng);
                assert_eq!(
                    conv.convert(&src.decompose(&x)),
                    src.extend_centered(&x, &dst),
                    "bits={bits} k={k}"
                );
            }
        }
    }
}

#[test]
fn fbc_worst_case_near_half_q_stays_congruent_and_small() {
    // Within 2k·Q/2^64 of Q/2 the fixed-point correction may legitimately
    // return the other centered representative. Both candidates are ≡ x
    // (mod Q); nothing else is acceptable.
    for &(bits, k) in &[(30u32, 3usize), (45, 2), (50, 4)] {
        let (src, dst) = split_basis(bits, k, k + 2, 1024);
        let conv = FastBaseConverter::new(&src, dst.moduli());
        let half = *src.half_product();
        for delta in 0u64..4 {
            for x in [
                half.overflowing_sub(&U1024::from_u64(delta)).0,
                half.overflowing_add(&U1024::from_u64(delta + 1)).0,
            ] {
                let composed = dst.compose(&conv.convert(&src.decompose(&x)));
                let cand_pos = x;
                let cand_neg = dst
                    .product()
                    .overflowing_sub(&src.product().overflowing_sub(&x).0)
                    .0;
                assert!(
                    composed == cand_pos || composed == cand_neg,
                    "bits={bits} k={k} delta={delta}: not a representative of x mod Q"
                );
            }
        }
        // Small negatives (x near Q) sit far from the window: bit-exact.
        for delta in 1u64..5 {
            let x = src.product().overflowing_sub(&U1024::from_u64(delta)).0;
            assert_eq!(
                conv.convert(&src.decompose(&x)),
                src.extend_centered(&x, &dst)
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Poly layer: batched conversion vs exact centered extension.
// ---------------------------------------------------------------------------

fn rns_ctx_pair(
    n: usize,
    bits: u32,
    k: usize,
) -> (Arc<RnsContext>, Arc<RnsContext>, FastBaseConverter) {
    let primes =
        private_inference::field::find_distinct_ntt_primes(bits, 2 * k + 1, 2 * n as u64).unwrap();
    let small = Arc::new(RnsContext::new(
        n,
        Arc::new(CrtBasis::new(&primes[..k]).unwrap()),
    ));
    let big = Arc::new(RnsContext::new(
        n,
        Arc::new(CrtBasis::new(&primes).unwrap()),
    ));
    let conv = FastBaseConverter::new(small.basis(), &big.basis().moduli()[k..]);
    (small, big, conv)
}

fn random_rns(ctx: &Arc<RnsContext>, rng: &mut impl Rng) -> RnsPoly {
    let data = (0..ctx.len())
        .map(|i| {
            let q = ctx.modulus(i).value();
            (0..ctx.n()).map(|_| rng.gen_range(0..q)).collect()
        })
        .collect();
    RnsPoly::from_residues(ctx.clone(), data, PolyForm::Coeff)
}

#[test]
fn poly_extend_fast_matches_extend_centered() {
    for &(n, bits, k) in &[(16usize, 30u32, 3usize), (256, 45, 3), (2048, 45, 3)] {
        let (small, big, conv) = rns_ctx_pair(n, bits, k);
        let mut rng = rand::rngs::StdRng::seed_from_u64(n as u64 + bits as u64);
        for _ in 0..4 {
            let a = random_rns(&small, &mut rng);
            assert_eq!(
                a.extend_fast(&big, &conv),
                a.extend_centered(&big),
                "n={n} bits={bits} k={k}"
            );
        }
    }
}

#[test]
fn poly_convert_worst_case_columns_stay_congruent() {
    // Every coefficient pinned to the ±Q/2 boundary: each converted
    // coefficient must still be a representative of the same residue class.
    let (small, big, conv) = rns_ctx_pair(256, 30, 3);
    let src_basis = small.basis();
    let half = *src_basis.half_product();
    let boundary: Vec<U1024> = (0..256u64)
        .map(|j| {
            let delta = j % 8;
            if j % 2 == 0 {
                half.overflowing_sub(&U1024::from_u64(delta)).0
            } else {
                half.overflowing_add(&U1024::from_u64(delta + 1)).0
            }
        })
        .collect();
    let a = RnsPoly::from_big_coeffs(small.clone(), &boundary);
    let cols = convert_columns_fast(&conv, a.residues());
    let dst_moduli = &big.basis().moduli()[small.len()..];
    let dst_basis =
        CrtBasis::new(&dst_moduli.iter().map(|m| m.value()).collect::<Vec<_>>()).unwrap();
    for (j, x) in boundary.iter().enumerate() {
        let residues: Vec<u64> = cols.iter().map(|c| c[j]).collect();
        let composed = dst_basis.compose(&residues);
        let cand_pos = *x;
        let cand_neg = dst_basis
            .product()
            .overflowing_sub(&src_basis.product().overflowing_sub(x).0)
            .0;
        assert!(
            composed == cand_pos || composed == cand_neg,
            "coefficient {j} is not a representative of its class"
        );
    }
}

#[test]
fn forward_many_nonpow2_and_singleton_batches_match_individual() {
    // Coverage gap fix: the batched stage-major transform was only ever
    // exercised with "round" batch sizes. Batch counts 1 (degenerate
    // single-polynomial batch), 3 and 5 (non-powers-of-two) walk different
    // stage-major strides; each must agree with per-polynomial transforms,
    // in both directions.
    let ctx = Arc::new(RnsContext::with_ntt_primes(128, 45, 3));
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    for batch_len in [1usize, 3, 5] {
        let polys: Vec<RnsPoly> = (0..batch_len).map(|_| random_rns(&ctx, &mut rng)).collect();
        let expect: Vec<RnsPoly> = polys.iter().map(|p| p.clone().into_ntt()).collect();
        let mut batch: Vec<Vec<Vec<u64>>> = polys.iter().map(|p| p.residues().to_vec()).collect();
        {
            let mut refs: Vec<&mut [Vec<u64>]> =
                batch.iter_mut().map(|p| p.as_mut_slice()).collect();
            ctx.ntt().forward_many(&mut refs);
        }
        for (got, want) in batch.iter().zip(&expect) {
            assert_eq!(got.as_slice(), want.residues(), "batch_len={batch_len}");
        }
        {
            let mut refs: Vec<&mut [Vec<u64>]> =
                batch.iter_mut().map(|p| p.as_mut_slice()).collect();
            ctx.ntt().inverse_many(&mut refs);
        }
        for (got, want) in batch.iter().zip(&polys) {
            assert_eq!(got.as_slice(), want.residues(), "batch_len={batch_len}");
        }
    }
}

#[test]
fn forward_many_single_column_basis_matches_individual() {
    // The other half of the gap: a one-prime basis (a single residue
    // column per polynomial), where the residue-outermost batching
    // degenerates to one stage-major pass.
    let n = 128u64;
    let prime = private_inference::field::find_ntt_prime(45, 2 * n);
    let ctx = Arc::new(RnsContext::new(
        n as usize,
        Arc::new(CrtBasis::new(&[prime]).unwrap()),
    ));
    let mut rng = rand::rngs::StdRng::seed_from_u64(43);
    let polys: Vec<RnsPoly> = (0..3).map(|_| random_rns(&ctx, &mut rng)).collect();
    let expect: Vec<RnsPoly> = polys.iter().map(|p| p.clone().into_ntt()).collect();
    let mut batch: Vec<Vec<Vec<u64>>> = polys.iter().map(|p| p.residues().to_vec()).collect();
    {
        let mut refs: Vec<&mut [Vec<u64>]> = batch.iter_mut().map(|p| p.as_mut_slice()).collect();
        ctx.ntt().forward_many(&mut refs);
    }
    for (got, want) in batch.iter().zip(&expect) {
        assert_eq!(got.as_slice(), want.residues());
    }
    {
        let mut refs: Vec<&mut [Vec<u64>]> = batch.iter_mut().map(|p| p.as_mut_slice()).collect();
        ctx.ntt().inverse_many(&mut refs);
    }
    for (got, want) in batch.iter().zip(&polys) {
        assert_eq!(got.as_slice(), want.residues());
    }
}

// ---------------------------------------------------------------------------
// Property tests.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn prop_fbc_matches_oracle(seed in any::<u64>()) {
        let (src, dst) = split_basis(30, 3, 5, 1024);
        let conv = FastBaseConverter::new(&src, dst.moduli());
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x = random_below_q(&src, &mut rng);
        prop_assert_eq!(
            conv.convert(&src.decompose(&x)),
            src.extend_centered(&x, &dst)
        );
    }
}
