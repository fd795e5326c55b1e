//! The pi-trace overhead contract, measured from outside the crate:
//!
//! * `PI_TRACE=off` must be *bit-identical* — tracing may never perturb
//!   protocol results, only observe them.
//! * `counters` mode must be cheap enough to leave on in release: the
//!   target is <2% on the hoisted BSGS matvec (`matvec_precomputed` under
//!   `BfvParams::default_pi()` at d = 256), the HE operation private
//!   inference runs and the hottest one the counters touch. Counting
//!   happens at rotation and key-switch boundaries only, so the atomics
//!   are amortized over thousands of coefficient operations.
//! * Histogram bucketing and cross-thread span collection must stay sane
//!   at the edges — these back every merged `TraceReport` the service
//!   layer prints.
//!
//! Mode forcing mutates process-global state, so the tests that force a
//! mode serialize on a local mutex (integration tests in one binary run on
//! parallel threads).

use pi_core::{private_inference, ProtocolConfig, ProtocolKind};
use pi_he::linalg::{encode_diagonals_bsgs, matvec_precomputed, BsgsDiagonals, PlainMatrix};
use pi_he::{BatchEncoder, BfvParams, Ciphertext, GaloisKeys, KeySet};
use pi_nn::{zoo, FixedConfig, Network, PiModel, QuantNetwork};
use pi_trace::TraceMode;
use rand::{Rng, SeedableRng};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// Serializes tests that force the global trace mode.
fn mode_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Matrix dimension of the timed matvec: a tiny-resnet-sized layer.
const DIM: usize = 256;

/// One linear layer's offline-phase HE state under the protocol
/// parameters: the client's keys (the BSGS set it uploads) and the
/// server's encoded weight matrix. Keygen dominates the setup, so every
/// test shares one.
struct Layer {
    keys: KeySet,
    enc: BatchEncoder,
    diagonals: BsgsDiagonals,
}

fn layer() -> &'static Layer {
    static LAYER: OnceLock<Layer> = OnceLock::new();
    LAYER.get_or_init(|| {
        let params = BfvParams::default_pi();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let keys = KeySet::generate_for_dims(&params, &[DIM], &mut rng);
        let enc = BatchEncoder::new(&params);
        let t = params.t();
        let data: Vec<u64> = (0..DIM * DIM)
            .map(|_| rng.gen_range(0..t.value()))
            .collect();
        let diagonals = encode_diagonals_bsgs(&enc, &PlainMatrix::new(DIM, DIM, &data, t));
        Layer {
            keys,
            enc,
            diagonals,
        }
    })
}

/// The client's seed-expanded encryption of a random input vector.
fn seeded_input(l: &Layer, seed: u64) -> Ciphertext {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let t = l.keys.secret.params().t();
    let v: Vec<u64> = (0..DIM).map(|_| rng.gen_range(0..t.value())).collect();
    l.keys
        .secret
        .encrypt_seeded(&l.enc.encode_periodic(&v), &mut rng)
        .0
}

/// One seeded encrypt → `matvec_precomputed` → decrypt pipeline; returns
/// the decrypted product.
fn seeded_matvec(seed: u64) -> Vec<u64> {
    let l = layer();
    let prod = matvec_precomputed(&l.keys.galois, &l.diagonals, &seeded_input(l, seed));
    l.enc.decode_prefix(&l.keys.secret.decrypt(&prod), DIM)
}

/// Tracing observes; it must never change a single bit of the result.
#[test]
fn off_and_full_modes_are_bit_identical() {
    let _l = mode_lock();

    // HE path: same seed, different trace mode, identical ciphertext math.
    pi_trace::force_mode(Some(TraceMode::Off));
    let he_off = seeded_matvec(41);
    pi_trace::force_mode(Some(TraceMode::Full));
    let he_full = seeded_matvec(41);
    assert_eq!(he_off, he_full, "trace mode changed HE results");

    // Full protocol (GC + OT + secret sharing), deterministic seeds.
    let spec = zoo::tiny_cnn();
    let fx = FixedConfig {
        p: pi_he::BfvParams::small_test().t(),
        f: 5,
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let net = Network::materialize(&spec, &mut rng);
    let qnet = QuantNetwork::quantize(&net, fx);
    let model = PiModel::lower(&qnet);
    let input: Vec<u64> = (0..model.input_len)
        .map(|_| fx.p.from_signed(rng.gen_range(-16..=16)))
        .collect();
    let cfg = ProtocolConfig::clear(ProtocolKind::ClientGarbler);

    pi_trace::force_mode(Some(TraceMode::Off));
    let (out_off, rep_off) = private_inference(&model, &input, &cfg);
    pi_trace::force_mode(Some(TraceMode::Full));
    let (out_full, rep_full) = private_inference(&model, &input, &cfg);
    pi_trace::force_mode(None);

    assert_eq!(out_off, out_full, "trace mode changed protocol outputs");
    assert_eq!(out_off, qnet.forward_fixed(&input));
    // Channel byte accounting is authoritative and mode-independent; only
    // the trace mirror comes and goes.
    assert_eq!(rep_off.gc_bytes, rep_full.gc_bytes);
    assert_eq!(rep_off.offline.upload_bytes, rep_full.offline.upload_bytes);
    assert_eq!(rep_off.online.total_bytes(), rep_full.online.total_bytes());
    assert!(
        rep_off.trace.counters.is_empty(),
        "off mode must record nothing"
    );
    assert!(rep_full.trace.counter("gc.relu").unwrap_or(0) > 0);
}

fn time_matvecs(
    gk: &GaloisKeys,
    diagonals: &BsgsDiagonals,
    ct: &Ciphertext,
    iters: usize,
) -> Duration {
    let t0 = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(matvec_precomputed(gk, diagonals, std::hint::black_box(ct)));
    }
    t0.elapsed()
}

/// Counters mode on the hoisted BSGS matvec hot path. Interleaved trials
/// with min-statistics (the minimum is the least noise-contaminated
/// estimate of the true cost); the 2% contract is asserted in release,
/// with slack for unoptimized timer-noise-dominated debug builds.
#[test]
fn counters_mode_overhead_is_negligible_on_bsgs_matvec() {
    let _l = mode_lock();
    let l = layer();
    let ct = seeded_input(l, 8);
    let (gk, diagonals, ct) = (&l.keys.galois, &l.diagonals, &ct);

    // Debug builds only need the contract's shape, not its precision.
    let iters = if cfg!(debug_assertions) { 1 } else { 3 };
    // Warm up caches and the lazy mode dispatch before timing anything.
    pi_trace::force_mode(Some(TraceMode::Counters));
    time_matvecs(gk, diagonals, ct, 1);
    pi_trace::force_mode(Some(TraceMode::Off));
    time_matvecs(gk, diagonals, ct, 1);

    let mut best_off = Duration::MAX;
    let mut best_counters = Duration::MAX;
    for _ in 0..9 {
        pi_trace::force_mode(Some(TraceMode::Off));
        best_off = best_off.min(time_matvecs(gk, diagonals, ct, iters));
        pi_trace::force_mode(Some(TraceMode::Counters));
        best_counters = best_counters.min(time_matvecs(gk, diagonals, ct, iters));
    }
    pi_trace::force_mode(None);

    let ratio = best_counters.as_secs_f64() / best_off.as_secs_f64();
    // Contract: <2%. Debug builds get headroom — the work under test is
    // ~20x slower unoptimized, so scheduler noise swamps the 2% band.
    let limit = if cfg!(debug_assertions) { 1.20 } else { 1.02 };
    assert!(
        ratio < limit,
        "counters-mode overhead {:.1}% exceeds limit ({:.1}%): off {:?} vs counters {:?}",
        (ratio - 1.0) * 100.0,
        (limit - 1.0) * 100.0,
        best_off,
        best_counters
    );
}

/// Log-linear bucketing invariants at the edges: every value lands in a
/// bucket whose lower bound does not exceed it, indices are monotone in
/// the value, and the extremes (0, u64::MAX) stay in range.
#[test]
fn histogram_bucketing_edges() {
    let edge_values = [
        0u64,
        1,
        7,
        8, // SUB boundary: first log-linear bucket
        9,
        15,
        16,
        255,
        256,
        257,
        u32::MAX as u64,
        u64::MAX - 1,
        u64::MAX,
    ];
    let mut last_idx = 0usize;
    for &v in &edge_values {
        let idx = pi_trace::bucket_index(v);
        assert!(idx < pi_trace::NUM_BUCKETS, "index out of range for {v}");
        assert!(idx >= last_idx, "bucket index not monotone at {v}");
        last_idx = idx;
        let lb = pi_trace::bucket_lower_bound(idx);
        assert!(lb <= v, "lower bound {lb} exceeds value {v}");
        if idx + 1 < pi_trace::NUM_BUCKETS {
            assert!(
                pi_trace::bucket_lower_bound(idx + 1) > v,
                "value {v} belongs in a later bucket"
            );
        }
    }
    // The log-linear scheme promises <=12.5% relative error (SUB = 8
    // sub-buckets per octave): check it across the whole range.
    for shift in 4..63 {
        let v = (1u64 << shift) + (1u64 << (shift - 2));
        let lb = pi_trace::bucket_lower_bound(pi_trace::bucket_index(v));
        assert!(
            (v - lb) as f64 / v as f64 <= 0.125 + 1e-9,
            "bucket error too large at {v}: lower bound {lb}"
        );
    }
}

/// Spans recorded on worker threads merge into one report: same-name spans
/// accumulate counts, and per-party local scopes stay isolated until the
/// service merges them (the pi-core `PartyOutcome::trace` pattern).
#[test]
fn cross_thread_spans_merge_into_one_report() {
    let _l = mode_lock();
    pi_trace::force_mode(Some(TraceMode::Full));
    let reports: Vec<pi_trace::TraceReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4u64)
            .map(|k| {
                scope.spawn(move || {
                    let local = pi_trace::begin_local();
                    let _party = pi_trace::span!("party");
                    {
                        let _phase = pi_trace::span!("phase");
                        pi_trace::add(pi_trace::Counter::OtExtended, k + 1);
                    }
                    drop(_party);
                    local.finish()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    pi_trace::force_mode(None);

    // Each thread saw only its own work...
    for (k, r) in reports.iter().enumerate() {
        assert_eq!(r.counter("ot.extended"), Some(k as u64 + 1));
        assert_eq!(r.span_stat("party").unwrap().count, 1);
    }
    // ...and the merged view accumulates all of it under shared paths.
    let mut merged = pi_trace::TraceReport::default();
    for r in &reports {
        merged.merge(r);
    }
    assert_eq!(merged.counter("ot.extended"), Some(1 + 2 + 3 + 4));
    let party = merged.span_stat("party").unwrap();
    assert_eq!(party.count, 4);
    let phase = merged.span_stat("party/phase").unwrap();
    assert_eq!(phase.count, 4);
    assert!(
        phase.total_ns <= party.total_ns,
        "nesting must be contained"
    );
}
