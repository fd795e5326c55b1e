//! Shared protocol machinery: configuration, model metadata, the HE-powered
//! offline linear pass (client side), and OT-over-channel setup.
//!
//! The server side of the offline linear pass lives in
//! [`crate::serve::session::ServerSession`] — a resumable state machine the
//! single-inference drivers run synchronously and the serving runtime runs
//! event-by-event, so both paths share one implementation.

use crate::channel::Channel;
use crate::error::ProtocolError;
use crate::msg::Msg;
use pi_field::Modulus;
use pi_gc::circuit::{from_bits, to_bits};
use pi_gc::{Circuit, Label};
use pi_he::linalg::{self, BsgsDiagonals, PlainMatrix};
use pi_he::{BatchEncoder, BfvParams, GaloisKeys, KeySet, NoiseStage, PublicKey};
use pi_nn::PiModel;
use pi_ot::base::{BaseOtReceiver, BaseOtSender, ReceiverChoiceMsg, SenderTransferMsg};
use pi_ot::ext::{ExtendMsg, ReceiverSetup, SenderSetup, TransferMsg, KAPPA};
use rand::Rng;
use std::sync::Arc;

/// Which hybrid protocol variant to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtocolKind {
    /// DELPHI's baseline: the server garbles, the client stores and
    /// evaluates the circuits.
    ServerGarbler,
    /// The paper's proposed optimization (§5.1): the client garbles, the
    /// server stores and evaluates; OT for the server's labels moves online.
    ClientGarbler,
}

/// How the offline linear phase exchanges the client's randomness.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinearMode {
    /// Real BFV homomorphic evaluation (`E(W·r − s)`).
    He,
    /// Cleartext exchange — **insecure**, test-only: exercises the full
    /// GC/OT/SS paths on larger networks without HE cost.
    Clear,
}

/// Protocol configuration.
#[derive(Clone, Debug)]
pub struct ProtocolConfig {
    /// Which party garbles.
    pub kind: ProtocolKind,
    /// HE or cleartext offline linear phase.
    pub linear: LinearMode,
    /// BFV parameters (plaintext modulus must equal the model field).
    pub he_params: Option<BfvParams>,
    /// Server threads for layer-parallel HE (1 = sequential baseline).
    pub lphe_threads: usize,
    /// RNG seeds for (client, server).
    pub seeds: (u64, u64),
}

impl ProtocolConfig {
    /// Server-Garbler over real HE with sequential offline HE.
    pub fn server_garbler(he_params: BfvParams) -> Self {
        Self {
            kind: ProtocolKind::ServerGarbler,
            linear: LinearMode::He,
            he_params: Some(he_params),
            lphe_threads: 1,
            seeds: (1, 2),
        }
    }

    /// Client-Garbler over real HE with layer-parallel offline HE.
    pub fn client_garbler(he_params: BfvParams, lphe_threads: usize) -> Self {
        Self {
            kind: ProtocolKind::ClientGarbler,
            linear: LinearMode::He,
            he_params: Some(he_params),
            lphe_threads,
            seeds: (1, 2),
        }
    }

    /// Cleartext-linear test configuration for a protocol kind.
    pub fn clear(kind: ProtocolKind) -> Self {
        Self {
            kind,
            linear: LinearMode::Clear,
            he_params: None,
            lphe_threads: 1,
            seeds: (1, 2),
        }
    }
}

/// Structure-only view of a [`PiModel`] phase (what the client knows).
#[derive(Clone, Debug)]
pub struct PhaseMeta {
    /// Activation indices feeding the phase.
    pub inputs: Vec<usize>,
    /// Per-input activation lengths.
    pub input_lens: Vec<usize>,
    /// Output length.
    pub rows: usize,
    /// Concatenated input length.
    pub cols: usize,
    /// Truncation shift of the following garbled ReLU (`None` = final).
    pub relu_shift: Option<u32>,
    /// Power-of-two dimension the HE matvec works at.
    pub padded_dim: usize,
}

/// Structure-only view of a model: everything the client needs without the
/// server's proprietary weights.
#[derive(Clone, Debug)]
pub struct ModelMeta {
    /// The protocol field.
    pub p: Modulus,
    /// Fractional bits.
    pub f: u32,
    /// Network input length.
    pub input_len: usize,
    /// Phase structure.
    pub phases: Vec<PhaseMeta>,
    /// Bit width of garbled ReLU values (`ceil(log2 p)`).
    pub relu_width: usize,
}

impl ModelMeta {
    /// Extracts the structure of a model.
    pub fn of(model: &PiModel) -> Self {
        let phases = model
            .phases
            .iter()
            .map(|ph| PhaseMeta {
                inputs: ph.inputs.clone(),
                input_lens: ph.input_lens.clone(),
                rows: ph.rows,
                cols: ph.cols,
                relu_shift: ph.relu_shift,
                padded_dim: ph.rows.max(ph.cols).next_power_of_two(),
            })
            .collect();
        Self {
            p: model.p,
            f: model.f,
            input_len: model.input_len,
            phases,
            relu_width: model.p.bits() as usize,
        }
    }

    /// Length of activation `a` (0 = input, `i` = output of phase `i-1`).
    pub fn act_len(&self, a: usize) -> usize {
        if a == 0 {
            self.input_len
        } else {
            self.phases[a - 1].rows
        }
    }

    /// Number of activations (input + one per garbled ReLU).
    pub fn num_acts(&self) -> usize {
        self.phases.len()
    }
}

/// Converts a field element to `width` little-endian bits.
pub fn field_bits(v: u64, width: usize) -> Vec<bool> {
    to_bits(v, width)
}

/// Converts little-endian bits back to a field element.
pub fn bits_field(bits: &[bool]) -> u64 {
    from_bits(bits)
}

/// Appends a field element's `width` little-endian bits onto a packed OT
/// choice vector — same bit order as [`field_bits`], no intermediate
/// bool vector.
pub fn push_field_bits(choices: &mut pi_ot::bitmat::BitVec, v: u64, width: usize) {
    for b in 0..width {
        choices.push((v >> b) & 1 == 1);
    }
}

/// Builds the [`ProtocolError::UnexpectedMsg`] for a message that arrived
/// in the wrong protocol state.
pub(crate) fn unexpected(expected: &'static str, got: &Msg) -> ProtocolError {
    ProtocolError::UnexpectedMsg {
        expected,
        got: got.kind(),
    }
}

/// A peer's OT message, whose shape `pi-ot` asserts on: its transfer and
/// decode entry points treat a mismatch as a caller bug and panic. At the
/// trust boundary the mismatch is the peer's fault, so every call site
/// checks with [`check_ot_shape`] first.
pub(crate) trait OtShape {
    /// Whether the message carries exactly `count` transfers, laid out as
    /// its `pi-ot` consumer expects.
    fn carries(&self, count: usize) -> bool;
}

impl OtShape for ExtendMsg {
    fn carries(&self, count: usize) -> bool {
        self.num_transfers == count
            && self.u_columns.len() == KAPPA
            && self
                .u_columns
                .iter()
                .all(|c| c.len() == count.div_ceil(128))
    }
}

impl OtShape for TransferMsg {
    fn carries(&self, count: usize) -> bool {
        self.pairs.len() == count
    }
}

impl OtShape for ReceiverChoiceMsg {
    fn carries(&self, count: usize) -> bool {
        self.pk0.len() == count
    }
}

impl OtShape for SenderTransferMsg {
    fn carries(&self, count: usize) -> bool {
        self.items.len() == count
    }
}

/// Rejects a peer OT message that does not carry exactly `count` transfers
/// with [`ProtocolError::BadRequest`] instead of letting `pi-ot` panic.
pub(crate) fn check_ot_shape(msg: &impl OtShape, count: usize) -> Result<(), ProtocolError> {
    if msg.carries(count) {
        Ok(())
    } else {
        Err(ProtocolError::BadRequest("OT message shape"))
    }
}

/// Rejects peer garbled tables that are not one table per ReLU instance
/// (`m`), each with one entry per AND gate of `circuit` — the shape
/// `pi_gc::garble::evaluate_many` asserts on.
pub(crate) fn check_gc_tables(
    tables: &[Vec<(Label, Label)>],
    m: usize,
    circuit: &Circuit,
) -> Result<(), ProtocolError> {
    if tables.len() == m && tables.iter().all(|t| t.len() == circuit.and_count()) {
        Ok(())
    } else {
        Err(ProtocolError::BadRequest("garbled table count"))
    }
}

/// Combines the server's final output share with the client's, rejecting
/// a share that does not cover every output.
pub(crate) fn combine_output(
    p: Modulus,
    server_share: &[u64],
    client_share: &[u64],
) -> Result<Vec<u64>, ProtocolError> {
    if server_share.len() != client_share.len() {
        return Err(ProtocolError::BadRequest("final output share length"));
    }
    Ok(server_share
        .iter()
        .zip(client_share)
        .map(|(&a, &b)| p.add(a, b))
        .collect())
}

// ---------------------------------------------------------------------------
// Offline linear pass, client side.
// ---------------------------------------------------------------------------

/// Client state for the HE path.
pub struct ClientHe {
    /// Key material (secret stays here; shared with the client's retained
    /// key cache across serving-runtime requests).
    pub keys: Arc<KeySet>,
    /// Batch encoder.
    pub encoder: BatchEncoder,
}

/// The client's upload of HE key material, as the server caches it in its
/// session table: encryption key plus rotation keys, no secret key.
#[derive(Debug)]
pub struct ClientHeKeys {
    /// Encryption key.
    pub pk: PublicKey,
    /// Rotation keys: exactly the BSGS baby/giant set for the model's
    /// linear-layer dimensions.
    pub gk: GaloisKeys,
}

impl ClientHeKeys {
    /// Wire/storage footprint — the quantity the session table's byte
    /// budget meters.
    pub fn byte_len(&self) -> usize {
        self.pk.byte_len() + self.gk.byte_len()
    }
}

/// Client side of the offline linear pass: sends `E(r_cat)` per phase and
/// decrypts the returned shares `W·r − s`.
///
/// In HE mode the client needs exactly the hoisted baby-step/giant-step
/// rotation set for every linear-layer dimension the model metadata
/// announces ([`KeySet::generate_for_dims`]).
/// `retained` is the client's own key cache: when `Some`, the cached keys
/// are reused (no regeneration — the serving runtime's [`Msg::KeyStatus`]
/// handshake relies on this); when `None`, fresh keys are generated and
/// stored back into it. The keys are uploaded only when `upload` is true —
/// a serving-runtime session whose server still caches them skips the
/// multi-megabyte transfer entirely.
///
/// Returns the client's additive shares, one vector per phase.
///
/// # Errors
///
/// [`ProtocolError::Channel`] if the server disconnects;
/// [`ProtocolError::UnexpectedMsg`] if it violates the message sequence.
#[allow(clippy::too_many_arguments)]
pub fn try_client_offline_linear<R: Rng + ?Sized>(
    meta: &ModelMeta,
    r_acts: &[Vec<u64>],
    cfg: &ProtocolConfig,
    chan: &Channel,
    rng: &mut R,
    outcome: &mut PartyOutcome,
    retained: &mut Option<Arc<KeySet>>,
    upload: bool,
) -> Result<Vec<Vec<u64>>, ProtocolError> {
    let _span = pi_trace::span!("offline.he");
    let he = match cfg.linear {
        LinearMode::He => {
            let params = cfg.he_params.as_ref().expect("HE mode requires parameters");
            assert_eq!(
                params.t().value(),
                meta.p.value(),
                "model field must equal the HE plaintext modulus"
            );
            let keys = match retained.take() {
                Some(k) => k,
                None => {
                    let dims: Vec<usize> = meta.phases.iter().map(|ph| ph.padded_dim).collect();
                    Arc::new(KeySet::generate_for_dims(params, &dims, rng))
                }
            };
            // Accounting reports the serialized frame length — the bytes
            // that actually cross the wire — not the in-memory footprint.
            outcome.galois_key_bytes = keys.galois.wire_byte_len() as u64;
            // The per-rotation baseline for a dimension set is the UNION of
            // the per-dim rotation sets; smaller dims' rotations {1..d−1}
            // nest inside the largest, so the union is the max dim's set.
            let max_dim = meta
                .phases
                .iter()
                .map(|ph| ph.padded_dim)
                .max()
                .unwrap_or(1);
            outcome.galois_key_bytes_per_rotation =
                GaloisKeys::per_rotation_set_byte_len(params, max_dim) as u64;
            if upload {
                chan.send(Msg::HeKeys {
                    pk: pi_he::public_key_to_bytes(&keys.public),
                    gk: pi_he::galois_keys_to_bytes(&keys.galois),
                })?;
            }
            let encoder = BatchEncoder::new(params);
            *retained = Some(keys.clone());
            Some(ClientHe { keys, encoder })
        }
        LinearMode::Clear => None,
    };
    // Send r_cat per phase.
    for ph in &meta.phases {
        let mut r_cat: Vec<u64> = Vec::with_capacity(ph.cols);
        for &a in &ph.inputs {
            r_cat.extend_from_slice(&r_acts[a]);
        }
        match &he {
            Some(ch) => {
                assert!(
                    ph.padded_dim <= ch.encoder.row_size(),
                    "phase dimension {} exceeds HE slot capacity {}",
                    ph.padded_dim,
                    ch.encoder.row_size()
                );
                r_cat.resize(ph.padded_dim, 0);
                // Seed-expanded symmetric encryption: the frame carries
                // packed c0 plus a 32-byte seed instead of c1 — the client
                // holds the secret key, so the cheaper symmetric form is
                // always available here.
                let (ct, seed) = ch
                    .keys
                    .secret
                    .encrypt_seeded(&ch.encoder.encode_periodic(&r_cat), rng);
                // Only the client can gauge noise (it holds the secret
                // key); no-op below PI_TRACE=full.
                ch.keys.secret.gauge_noise(&ct, NoiseStage::Encrypt);
                chan.send(Msg::HeCts(vec![pi_he::ciphertext_to_bytes_seeded(
                    &ct, &seed,
                )]))?;
            }
            None => chan.send(Msg::VecU64(r_cat))?,
        }
    }
    // Receive shares.
    let mut shares = Vec::with_capacity(meta.phases.len());
    for ph in &meta.phases {
        let share = match &he {
            Some(ch) => match chan.recv()? {
                Msg::HeCts(frames) => {
                    let frame = frames
                        .first()
                        .ok_or(ProtocolError::BadRequest("empty HeCts response"))?;
                    let params = cfg.he_params.as_ref().expect("HE mode requires parameters");
                    let ct = pi_he::ciphertext_from_bytes(frame, params)?;
                    if ct.c0.ctx().q() != params.down_q() {
                        return Err(ProtocolError::BadRequest(
                            "response ciphertext not modulus-switched",
                        ));
                    }
                    let pt = ch.keys.secret.decrypt_switched(&ct);
                    ch.encoder.decode_prefix(&pt, ph.rows)
                }
                other => return Err(unexpected("HeCts", &other)),
            },
            None => match chan.recv()? {
                Msg::VecU64(v) => v,
                other => return Err(unexpected("VecU64", &other)),
            },
        };
        shares.push(share);
    }
    Ok(shares)
}

/// Per-model server-side precomputation for the offline linear pass: the
/// padded plaintext matrices and — in HE mode — their Halevi–Shoup
/// diagonals pre-rotated into the baby-step/giant-step layout and encoded
/// as centered Shoup-form operands ([`BsgsDiagonals`]).
///
/// Depends only on the model weights and the protocol configuration, never
/// on a client's keys, so one instance serves every inference of every
/// client. Build it once per served model and pass it to each `run_server`
/// call (or use [`crate::private_inference_precomputed`] /
/// [`crate::serve::ServeRuntime`], which cache it).
#[derive(Debug)]
pub struct ServerPrecomp {
    /// Padded plaintext matrix per linear phase.
    pub matrices: Vec<PlainMatrix>,
    /// BSGS-layout Shoup-form diagonals per phase (HE mode only).
    pub diagonals: Option<Vec<BsgsDiagonals>>,
}

impl ServerPrecomp {
    /// Precomputes the offline-linear operands for `model` under `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` selects HE mode without parameters.
    pub fn new(model: &PiModel, cfg: &ProtocolConfig) -> Self {
        let p = model.p;
        let matrices: Vec<PlainMatrix> = model
            .phases
            .iter()
            .map(|ph| PlainMatrix::new(ph.rows, ph.cols, &ph.matrix, p))
            .collect();
        let diagonals = match cfg.linear {
            LinearMode::He => {
                let params = cfg.he_params.as_ref().expect("HE mode requires parameters");
                let encoder = BatchEncoder::new(params);
                Some(
                    matrices
                        .iter()
                        .map(|w| linalg::encode_diagonals_bsgs(&encoder, w))
                        .collect(),
                )
            }
            LinearMode::Clear => None,
        };
        Self {
            matrices,
            diagonals,
        }
    }

    /// Rough in-memory footprint, for the session table's byte budget: the
    /// padded matrices (8 B/entry) plus, in HE mode, the encoded diagonal
    /// operands (value + Shoup form, 16 B per ring coefficient).
    pub fn approx_bytes(&self, cfg: &ProtocolConfig) -> u64 {
        let mat: u64 = self
            .matrices
            .iter()
            .map(|m| (m.padded_dim() * m.padded_dim() * 8) as u64)
            .sum();
        let diag: u64 = match (&self.diagonals, &cfg.he_params) {
            (Some(ds), Some(params)) => ds.iter().map(|d| (d.dim() * params.n() * 16) as u64).sum(),
            _ => 0,
        };
        mat + diag
    }
}

// ---------------------------------------------------------------------------
// Base OT over the channel (client side; the server side lives in the
// session state machine).
// ---------------------------------------------------------------------------

/// The party that will act as OT-extension *receiver* (it plays base-OT
/// sender). Returns its extension setup.
///
/// # Errors
///
/// [`ProtocolError`] if the peer disconnects or deviates.
pub fn try_ot_base_as_ext_receiver<R: Rng + ?Sized>(
    chan: &Channel,
    rng: &mut R,
) -> Result<ReceiverSetup, ProtocolError> {
    let _span = pi_trace::span!("offline.ot");
    let seed_pairs: Vec<(u128, u128)> = (0..KAPPA).map(|_| (rng.gen(), rng.gen())).collect();
    let (sender, setup) = BaseOtSender::new(rng);
    chan.send(Msg::OtBaseSetup(setup))?;
    let choice = match chan.recv()? {
        Msg::OtBaseChoice(c) => c,
        other => return Err(unexpected("OtBaseChoice", &other)),
    };
    check_ot_shape(&choice, seed_pairs.len())?;
    let transfer = sender.transfer(&choice, &seed_pairs, rng);
    chan.send(Msg::OtBaseTransfer(transfer))?;
    Ok(ReceiverSetup { seed_pairs })
}

/// The party that will act as OT-extension *sender* (it plays base-OT
/// receiver). Returns its extension setup.
///
/// # Errors
///
/// [`ProtocolError`] if the peer disconnects or deviates.
pub fn try_ot_base_as_ext_sender<R: Rng + ?Sized>(
    chan: &Channel,
    rng: &mut R,
) -> Result<SenderSetup, ProtocolError> {
    let _span = pi_trace::span!("offline.ot");
    let s: u128 = rng.gen();
    let setup = match chan.recv()? {
        Msg::OtBaseSetup(s) => s,
        other => return Err(unexpected("OtBaseSetup", &other)),
    };
    // The IKNP choice string is already packed — feed it to the base OT
    // as-is instead of round-tripping through a bool vector.
    let (receiver, choice) = BaseOtReceiver::choose_packed(&setup, s, KAPPA, rng);
    chan.send(Msg::OtBaseChoice(choice))?;
    let transfer = match chan.recv()? {
        Msg::OtBaseTransfer(t) => t,
        other => return Err(unexpected("OtBaseTransfer", &other)),
    };
    check_ot_shape(&transfer, KAPPA)?;
    let seeds = receiver.receive(&transfer);
    Ok(SenderSetup { s, seeds })
}

/// Per-party cost summary returned by protocol party functions.
#[derive(Clone, Debug, Default)]
pub struct PartyOutcome {
    /// Bytes this party had sent when its offline phase ended.
    pub offline_sent: u64,
    /// Total bytes this party sent.
    pub total_sent: u64,
    /// What [`PartyOutcome::offline_sent`] would have been under the legacy
    /// flat-u64 HE encoding (no packing, no seed expansion, no modulus
    /// switch).
    pub offline_sent_flat: u64,
    /// What [`PartyOutcome::total_sent`] would have been under the legacy
    /// flat-u64 HE encoding.
    pub total_sent_flat: u64,
    /// This party's trace: the phase span tree rooted at `client` /
    /// `server` plus every substrate counter its thread touched. The
    /// [`crate::CostReport`] timing fields are derived from these spans.
    pub trace: pi_trace::TraceReport,
    /// Bytes this party must store between offline and online.
    pub storage_bytes: u64,
    /// Garbled-circuit bytes this party transmitted or received.
    pub gc_bytes: u64,
    /// Galois key material generated/uploaded under the BSGS key set
    /// (client side, HE mode only; zero otherwise).
    pub galois_key_bytes: u64,
    /// What a full per-rotation key set would have cost for the same layer
    /// dimensions (the hoisting-without-BSGS baseline).
    pub galois_key_bytes_per_rotation: u64,
    /// AND gates this party garbled (zero for the evaluator).
    pub gc_and_gates: u64,
    /// AND gates this party evaluated (zero for the garbler).
    pub gc_eval_and_gates: u64,
    /// Extended OTs this party took part in.
    pub ot_count: u64,
}
