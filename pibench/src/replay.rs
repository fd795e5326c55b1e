//! The per-layer replay of the traced run: one request's shapes, taken
//! from the end-to-end pass, re-run through each layer's public functions
//! under the benchmark's own spans, with every result checked.

use crate::harness::Spans;
use pi_core::common::{bits_field, field_bits};
use pi_core::ModelMeta;
use pi_gc::{evaluate_many, garble_many, relu_trunc_circuit, relu_trunc_reference, Label};
use pi_he::linalg::{self, PlainMatrix};
use pi_he::{BatchEncoder, BfvParams, KeySet};
use pi_nn::PiModel;
use pi_ot::base::{BaseOtReceiver, BaseOtSender};
use pi_ot::ext::{ReceiverSetup, SenderSetup, KAPPA};
use pi_ot::{BitVec, OtExtReceiver, OtExtSender};
use pi_poly::NttTables;
use rand::rngs::StdRng;
use rand::Rng;

/// Forward NTTs timed per replayed request for `poly.ntt_fwd_us`.
pub const NTT_REPS: usize = 64;

/// The per-request shape a replay reproduces.
pub struct Shape<'a> {
    /// The served model (weights for the matrices the server encodes).
    pub model: &'a PiModel,
    /// The client's view: padded dims, ReLU phases and width.
    pub meta: &'a ModelMeta,
    /// Extended OTs per request, as the end-to-end pass counted them.
    pub ot_count: usize,
}

/// Counts the replay records next to the span times.
#[derive(Default)]
pub struct Counts {
    /// Serialized public key + Galois key frames.
    pub key_upload_bytes: u64,
    /// Rotations per request over every matvec.
    pub matvec_rotations: u64,
    /// Lowest noise budget over the phases after the matvec.
    pub noise_bits_min: u32,
    /// Base-OT messages' bytes.
    pub base_bytes: u64,
    /// AND gates garbled per request.
    pub and_gates: u64,
    /// Garbled-table bytes per request.
    pub gc_bytes: u64,
}

/// A failed replay check.
pub type Mismatch = String;

/// Replays one request of `shape` under `params`, recording one span per
/// layer call into `spans`.
///
/// # Errors
///
/// The first replayed result that differs from its reference.
pub fn replay_request(
    params: &BfvParams,
    shape: &Shape<'_>,
    spans: &mut Spans,
    rng: &mut StdRng,
) -> Result<Counts, Mismatch> {
    let mut counts = Counts::default();
    ntt(params, spans, rng)?;
    he(params, shape, spans, rng, &mut counts)?;
    let setups = base_ot(spans, rng, &mut counts)?;
    iknp(shape.ot_count, setups, spans, rng)?;
    gc(shape.meta, spans, rng, &mut counts)?;
    Ok(counts)
}

fn ntt(params: &BfvParams, spans: &mut Spans, rng: &mut StdRng) -> Result<(), Mismatch> {
    let q = params.q();
    let tables = NttTables::new(params.n(), q);
    let x: Vec<u64> = (0..params.n())
        .map(|_| rng.gen_range(0..q.value()))
        .collect();
    let mut a = x.clone();
    spans.time("poly.ntt_fwd", || {
        for _ in 0..NTT_REPS {
            tables.forward(&mut a);
        }
    });
    for _ in 0..NTT_REPS {
        tables.inverse(&mut a);
    }
    if a != x {
        return Err("NTT forward/inverse round trip".into());
    }
    Ok(())
}

fn he(
    params: &BfvParams,
    shape: &Shape<'_>,
    spans: &mut Spans,
    rng: &mut StdRng,
    counts: &mut Counts,
) -> Result<(), Mismatch> {
    let p = shape.model.p;
    let dims: Vec<usize> = shape.meta.phases.iter().map(|ph| ph.padded_dim).collect();
    let keys = spans.time("he.keygen", || {
        KeySet::generate_for_dims(params, &dims, rng)
    });
    counts.key_upload_bytes = (pi_he::public_key_to_bytes(&keys.public).len()
        + pi_he::galois_keys_to_bytes(&keys.galois).len()) as u64;
    let enc = BatchEncoder::new(params);
    let mats: Vec<PlainMatrix> = shape
        .model
        .phases
        .iter()
        .map(|ph| PlainMatrix::new(ph.rows, ph.cols, &ph.matrix, p))
        .collect();
    let diags: Vec<_> = spans.time("he.encode_diag", || {
        mats.iter()
            .map(|w| linalg::encode_diagonals_bsgs(&enc, w))
            .collect()
    });
    counts.noise_bits_min = u32::MAX;
    for (w, d) in mats.iter().zip(&diags) {
        let dim = w.padded_dim();
        let r: Vec<u64> = (0..w.cols()).map(|_| rng.gen_range(0..p.value())).collect();
        let s: Vec<u64> = (0..w.rows()).map(|_| rng.gen_range(0..p.value())).collect();
        let mut padded = r.clone();
        padded.resize(dim, 0);
        let (ct, _) = spans.time("he.encrypt", || {
            keys.secret
                .encrypt_seeded(&enc.encode_periodic(&padded), rng)
        });
        let prod = spans.time("he.matvec", || {
            linalg::matvec_precomputed(&keys.galois, d, &ct)
        });
        counts.matvec_rotations += linalg::matvec_op_count(dim).rotations() as u64;
        counts.noise_bits_min = counts.noise_bits_min.min(keys.secret.noise_budget(&prod));
        let resp = linalg::sub_share(params, &enc, &prod, &s, dim);
        let got = spans.time("he.decrypt", || {
            let switched = resp.mod_switch_down(params);
            enc.decode_prefix(&keys.secret.decrypt_switched(&switched), w.rows())
        });
        let want: Vec<u64> = w
            .matvec_plain(&r, p)
            .iter()
            .zip(&s)
            .map(|(&a, &b)| p.sub(a, b))
            .collect();
        if got != want {
            return Err(format!("HE matvec at d={dim} differs from matvec_plain"));
        }
    }
    Ok(())
}

fn base_ot(
    spans: &mut Spans,
    rng: &mut StdRng,
    counts: &mut Counts,
) -> Result<(SenderSetup, ReceiverSetup), Mismatch> {
    let seed_pairs: Vec<(u128, u128)> = (0..KAPPA).map(|_| (rng.gen(), rng.gen())).collect();
    let s: u128 = rng.gen();
    let (seeds, bytes) = spans.time("ot.base", || {
        let (sender, setup) = BaseOtSender::new(rng);
        let (receiver, choice) = BaseOtReceiver::choose_packed(&setup, s, KAPPA, rng);
        let transfer = sender.transfer(&choice, &seed_pairs, rng);
        let bytes = setup.byte_len() + choice.byte_len() + transfer.byte_len();
        (receiver.receive(&transfer), bytes)
    });
    counts.base_bytes = bytes as u64;
    let ok = seeds.iter().enumerate().all(|(i, &k)| {
        let (k0, k1) = seed_pairs[i];
        k == if (s >> i) & 1 == 1 { k1 } else { k0 }
    });
    if !ok {
        return Err("base OT delivered an unchosen seed".into());
    }
    Ok((SenderSetup { s, seeds }, ReceiverSetup { seed_pairs }))
}

fn iknp(
    n: usize,
    (sender_setup, receiver_setup): (SenderSetup, ReceiverSetup),
    spans: &mut Spans,
    rng: &mut StdRng,
) -> Result<(), Mismatch> {
    let sender = OtExtSender::new(sender_setup);
    let receiver = OtExtReceiver::new(receiver_setup);
    let bits: Vec<bool> = (0..n).map(|_| rng.gen()).collect();
    let choices = BitVec::from_bools(&bits);
    let pairs: Vec<(u128, u128)> = (0..n).map(|_| (rng.gen(), rng.gen())).collect();
    let got = spans.time("ot.iknp", || {
        let (ext, keys) = receiver.extend(&choices, rng);
        let transfer = sender.transfer(&ext, &pairs);
        receiver.decode(&transfer, &choices, &keys)
    });
    let ok = got.len() == n
        && got
            .iter()
            .zip(&pairs)
            .zip(&bits)
            .all(|((&m, &(m0, m1)), &c)| m == if c { m1 } else { m0 });
    if !ok {
        return Err("OT decode differs from the chosen messages".into());
    }
    Ok(())
}

fn gc(
    meta: &ModelMeta,
    spans: &mut Spans,
    rng: &mut StdRng,
    counts: &mut Counts,
) -> Result<(), Mismatch> {
    let p = meta.p.value();
    let k = meta.relu_width;
    for ph in &meta.phases {
        let Some(shift) = ph.relu_shift else { continue };
        let m = ph.rows;
        let (circuit, _) = relu_trunc_circuit(p, shift);
        let gs = spans.time("gc.garble", || garble_many(&circuit, m, rng));
        let abr: Vec<[u64; 3]> = (0..m)
            .map(|_| [(); 3].map(|()| rng.gen_range(0..p)))
            .collect();
        let inputs: Vec<Vec<Label>> = gs
            .iter()
            .zip(&abr)
            .map(|(g, v)| {
                (0..3)
                    .flat_map(|w| g.encoding.encode_bits(w * k, &field_bits(v[w], k)))
                    .collect()
            })
            .collect();
        let tables: Vec<Vec<(Label, Label)>> =
            gs.iter().map(|g| g.garbled.tables.clone()).collect();
        let outs = spans.time("gc.eval", || evaluate_many(&circuit, &tables, &inputs));
        counts.and_gates += (m * circuit.and_count()) as u64;
        counts.gc_bytes += tables.iter().map(|t| t.len() as u64 * 32).sum::<u64>();
        for ((g, out), &[a, b, r]) in gs.iter().zip(&outs).zip(&abr) {
            if bits_field(&g.garbled.decode_outputs(out)) != relu_trunc_reference(p, shift, a, b, r)
            {
                return Err("garbled ReLU differs from relu_trunc_reference".into());
            }
        }
    }
    Ok(())
}
