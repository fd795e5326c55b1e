//! RNS throughput: per-residue NTTs and the CRT-boundary tail kernels.
//!
//! `forward` here is `k` Harvey transforms (one per CRT prime) and
//! `forward_many` batches a ciphertext-pair-sized set residue-major. The
//! `ntt_simd_vs_scalar` group pins the dispatch to the scalar oracle and to
//! the detected vector backend in turn (also emitting
//! `csv,simd_backend,<name>` for the CI dispatch assertion), so the SIMD
//! speedup is measured directly on the RNS transforms; the tail breakdown
//! times the FBC corrections and the batched CRT compose the same way.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pi_field::simd::{self, SimdBackend};
use pi_poly::rns::RnsContext;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Before/after of the SIMD dispatch: the same RNS transforms with the
/// backend pinned to the scalar oracle vs the auto-detected vector path. Also prints `csv,simd_backend,<name>` so CI
/// can assert the runner actually dispatched a vector backend (a silent
/// fallback to scalar fails the grep loudly).
fn bench_ntt_simd_vs_scalar(c: &mut Criterion) {
    let auto = simd::auto_backend();
    println!("csv,simd_backend,{}", auto.name());
    let mut group = c.benchmark_group("ntt_simd_vs_scalar");
    group.sample_size(20);
    for (n, count) in [(2048usize, 3usize), (4096, 4)] {
        let ctx = Arc::new(RnsContext::with_ntt_primes(n, 50, count));
        let mut rng = rand::rngs::StdRng::seed_from_u64(n as u64);
        let data: Vec<Vec<u64>> = (0..count)
            .map(|i| {
                let q = ctx.modulus(i).value();
                (0..n).map(|_| rng.gen_range(0..q)).collect()
            })
            .collect();
        for (label, be) in [("scalar", SimdBackend::Scalar), ("simd", auto)] {
            simd::force_backend(be);
            group.bench_with_input(
                BenchmarkId::new(format!("forward_x{count}_{label}"), n),
                &n,
                |b, _| {
                    b.iter(|| {
                        let mut cols = data.clone();
                        ctx.ntt().forward(&mut cols);
                        cols
                    })
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("roundtrip_x{count}_{label}"), n),
                &n,
                |b, _| {
                    b.iter(|| {
                        let mut cols = data.clone();
                        ctx.ntt().forward(&mut cols);
                        ctx.ntt().inverse(&mut cols);
                        cols
                    })
                },
            );
            simd::clear_forced_backend();
        }
    }
    group.finish();
}

/// Median wall time of `f` in nanoseconds over `iters` timed runs (plus
/// a short warmup). Hand-rolled rather than criterion so the
/// `csv,tail_*` lines print in every mode, including `--test` where the
/// compat criterion skips measurement (and its own csv output) entirely.
fn median_ns(mut f: impl FnMut(), iters: usize) -> f64 {
    for _ in 0..3 {
        f();
    }
    let mut samples: Vec<f64> = (0..iters)
        .map(|_| {
            let t = std::time::Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

/// Runs `f` once pinned to the scalar oracle and once pinned to the
/// detected vector backend, and prints the same-run A/B as
/// `csv,tail_<kernel>_scalar,<ns>` / `csv,tail_<kernel>,<ns>` — the
/// per-kernel breakdown of the formerly scalar tail.
fn tail_ab(kernel: &str, iters: usize, mut f: impl FnMut()) {
    let auto = simd::auto_backend();
    simd::force_backend(SimdBackend::Scalar);
    let scalar = median_ns(&mut f, iters);
    simd::force_backend(auto);
    let vector = median_ns(&mut f, iters);
    simd::clear_forced_backend();
    println!("csv,tail_{kernel}_scalar,{scalar:.1}");
    println!("csv,tail_{kernel},{vector:.1}");
}

/// Kernel-level A/B of the three formerly scalar tail pieces that live at
/// the CRT boundary: the FBC 64.64 centered rounding correction, the
/// Shenoy–Kumaresan channel correction, and the Garner batched compose.
/// Each is timed directly through the lane kernels (scalar pin vs
/// detected backend) at the production shape `n = 4096`, `k = 4` 50-bit
/// primes, emitting `csv,tail_*` lines for the CI grep.
fn bench_tail_breakdown(_c: &mut Criterion) {
    let n = 4096usize;
    let count = 4usize;
    let ctx = Arc::new(RnsContext::with_ntt_primes(n, 50, count));
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let cols: Vec<Vec<u64>> = (0..count)
        .map(|i| {
            let q = ctx.modulus(i).value();
            (0..n).map(|_| rng.gen_range(0..q)).collect()
        })
        .collect();

    // FBC rounding correction: k wide fractional accumulations, the
    // correction is the accumulator's high word.
    let fracs: Vec<u128> = (0..count).map(|_| rng.gen()).collect();
    let mut lo = vec![0u64; n];
    let mut hi = vec![0u64; n];
    tail_ab("fbc_round", 51, || {
        let be = simd::backend();
        lo.fill(1u64 << 63);
        hi.fill(0);
        for (dc, &f) in cols.iter().zip(&fracs) {
            simd::round_term_acc_wide(be, &mut lo, &mut hi, dc, f);
        }
        std::hint::black_box(&hi);
    });

    // Shenoy–Kumaresan channel correction: k lazy Shoup accumulations
    // over the channel modulus plus the fused reduce/sub/mul finish.
    let m = ctx.modulus(0);
    let cross: Vec<_> = (0..count)
        .map(|_| m.shoup(rng.gen_range(0..m.value())))
        .collect();
    let q_inv = m.shoup(rng.gen_range(1..m.value()));
    let y: Vec<u64> = (0..n).map(|_| rng.gen_range(0..m.value())).collect();
    let mut beta = vec![0u64; n];
    tail_ab("fbc_channel", 51, || {
        let be = simd::backend();
        lo.fill(0);
        hi.fill(0);
        for (dc, &w) in cols.iter().zip(&cross) {
            simd::mul_shoup_lazy_acc_wide(be, &m, &mut lo, &mut hi, dc, w);
        }
        simd::channel_finish(be, &m, &mut beta, &lo, &hi, &y, q_inv);
        std::hint::black_box(&beta);
    });

    // Batched Garner compose at the decrypt boundary.
    let basis = ctx.basis().clone();
    tail_ab("crt_compose", 21, || {
        std::hint::black_box(basis.compose_many(&cols));
    });
}

fn bench_rns_ntt(c: &mut Criterion) {
    let mut group = c.benchmark_group("rns_ntt");
    group.sample_size(20);
    for (n, count) in [(2048usize, 3usize), (4096, 4)] {
        let ctx = Arc::new(RnsContext::with_ntt_primes(n, 50, count));
        let mut rng = rand::rngs::StdRng::seed_from_u64(n as u64);
        let data: Vec<Vec<u64>> = (0..count)
            .map(|i| {
                let q = ctx.modulus(i).value();
                (0..n).map(|_| rng.gen_range(0..q)).collect()
            })
            .collect();

        group.bench_with_input(
            BenchmarkId::new(format!("forward_x{count}"), n),
            &n,
            |b, _| {
                b.iter(|| {
                    let mut cols = data.clone();
                    ctx.ntt().forward(&mut cols);
                    cols
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new(format!("roundtrip_x{count}"), n),
            &n,
            |b, _| {
                b.iter(|| {
                    let mut cols = data.clone();
                    ctx.ntt().forward(&mut cols);
                    ctx.ntt().inverse(&mut cols);
                    cols
                })
            },
        );
        // Ciphertext-pair-sized batch (2 RNS polys), residue-major.
        group.bench_with_input(
            BenchmarkId::new(format!("forward_many_2x{count}"), n),
            &n,
            |b, _| {
                b.iter(|| {
                    let mut polys = vec![data.clone(), data.clone()];
                    let mut refs: Vec<&mut [Vec<u64>]> =
                        polys.iter_mut().map(|p| p.as_mut_slice()).collect();
                    ctx.ntt().forward_many(&mut refs);
                    polys
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_ntt_simd_vs_scalar,
    bench_tail_breakdown,
    bench_rns_ntt
);
criterion_main!(benches);
