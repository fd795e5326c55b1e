//! The proposed Client-Garbler protocol (§5.1 of the paper).
//!
//! The GC roles reverse: the **client garbles** every ReLU offline and ships
//! circuits, its own input labels, and the output-decode bits to the
//! server, which stores them — moving the tens-of-GB storage burden from
//! the storage-constrained client to the server (Figure 8, 5× reduction).
//!
//! Online, the server obtains labels for its share via **extended OT**
//! (base OTs ran offline) and — being the powerful party — evaluates the
//! circuits itself, cutting online GC evaluation from 200 s (Atom client)
//! to 11.1 s (EPYC server) for ResNet-18/TinyImageNet in the paper's
//! measurements.
//!
//! The server role is the shared state machine in
//! [`crate::serve::session::ServerSession`]; [`run_server`] drives it over
//! a blocking channel. Every driver has a `try_` variant returning
//! [`ProtocolError`] instead of panicking on a misbehaving or vanished
//! peer.

use crate::channel::Channel;
use crate::common::{
    check_ot_shape, combine_output, field_bits, try_client_offline_linear,
    try_ot_base_as_ext_sender, unexpected, ModelMeta, PartyOutcome, ProtocolConfig, ProtocolKind,
    ServerPrecomp,
};
use crate::error::ProtocolError;
use crate::msg::Msg;
use crate::serve::session;
use pi_gc::garble::{garble_many, Garbling};
use pi_gc::relu::relu_trunc_circuit;
use pi_gc::Label;
use pi_he::KeySet;
use pi_nn::PiModel;
use pi_ot::ext::OtExtSender;
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::Arc;

/// Runs the client role (garbler). Returns the inference output and costs.
///
/// # Panics
///
/// Panics on any [`ProtocolError`] — for tests and single-inference tools
/// where a protocol failure is a bug. Use [`try_run_client`] in anything
/// long-lived.
pub fn run_client<R: Rng + ?Sized>(
    meta: &ModelMeta,
    input: &[u64],
    cfg: &ProtocolConfig,
    chan: &Channel,
    rng: &mut R,
) -> (Vec<u64>, PartyOutcome) {
    try_run_client(meta, input, cfg, chan, rng).expect("client-side protocol failure")
}

/// Fallible [`run_client`]: a dropped or deviating server is an `Err`, not
/// a panic.
///
/// # Errors
///
/// [`ProtocolError`] on disconnect or protocol violation.
pub fn try_run_client<R: Rng + ?Sized>(
    meta: &ModelMeta,
    input: &[u64],
    cfg: &ProtocolConfig,
    chan: &Channel,
    rng: &mut R,
) -> Result<(Vec<u64>, PartyOutcome), ProtocolError> {
    try_run_client_with_keys(meta, input, cfg, chan, rng, &mut None, true)
}

/// [`try_run_client`] with an external HE key cache: `retained` keys are
/// reused instead of regenerated, and uploaded only when `upload` is true
/// (the serving runtime's `KeyStatus` handshake).
pub(crate) fn try_run_client_with_keys<R: Rng + ?Sized>(
    meta: &ModelMeta,
    input: &[u64],
    cfg: &ProtocolConfig,
    chan: &Channel,
    rng: &mut R,
    retained: &mut Option<Arc<KeySet>>,
    upload: bool,
) -> Result<(Vec<u64>, PartyOutcome), ProtocolError> {
    assert_eq!(input.len(), meta.input_len, "input length mismatch");
    let p = meta.p;
    let k = meta.relu_width;
    let mut out = PartyOutcome::default();
    let trace_scope = pi_trace::begin_local();
    let root_span = pi_trace::span!("client");

    // ---------------- Offline ----------------
    let r_acts: Vec<Vec<u64>> = (0..meta.num_acts())
        .map(|a| {
            (0..meta.act_len(a))
                .map(|_| rng.gen_range(0..p.value()))
                .collect()
        })
        .collect();
    let c_shares =
        try_client_offline_linear(meta, &r_acts, cfg, chan, rng, &mut out, retained, upload)?;

    // Base OT: the client will be the online extension *sender* (it owns
    // the label pairs for the server's inputs).
    let ext_sender = OtExtSender::new(try_ot_base_as_ext_sender(chan, rng)?);

    let relu_phases: Vec<usize> = (0..meta.phases.len())
        .filter(|&i| meta.phases[i].relu_shift.is_some())
        .collect();
    // Garble and ship: tables + decode bits + the client's own input labels
    // (share_a = its linear share, r = next randomness; both known offline).
    let mut garblings: Vec<Vec<Garbling>> = Vec::with_capacity(relu_phases.len());
    for &i in &relu_phases {
        let ph = &meta.phases[i];
        let m = ph.rows;
        let shift = ph.relu_shift.expect("relu phase");
        let garble_span = pi_trace::span!("offline.garble");
        let (circuit, _) = relu_trunc_circuit(p.value(), shift);
        // Lockstep batch garbling: 8 circuit instances per AES call.
        let phase_g: Vec<Garbling> = garble_many(&circuit, m, rng);
        out.gc_and_gates += (m * circuit.and_count()) as u64;
        pi_trace::add(pi_trace::Counter::GcRelu, m as u64);
        drop(garble_span);
        let tables: Vec<Vec<(Label, Label)>> =
            phase_g.iter().map(|g| g.garbled.tables.clone()).collect();
        let table_bytes = tables.iter().map(|t| t.len() as u64 * 32).sum::<u64>();
        out.gc_bytes += table_bytes;
        pi_trace::add(pi_trace::Counter::GcBytes, table_bytes);
        chan.send(Msg::GcTables(tables))?;
        chan.send(Msg::GcDecode(
            phase_g
                .iter()
                .map(|g| g.garbled.output_decode.clone())
                .collect(),
        ))?;
        let mut labels = Vec::with_capacity(m * 2 * k);
        for (j, g) in phase_g.iter().enumerate() {
            labels.extend(g.encoding.encode_bits(0, &field_bits(c_shares[i][j], k)));
            labels.extend(
                g.encoding
                    .encode_bits(2 * k, &field_bits(r_acts[i + 1][j], k)),
            );
        }
        chan.send(Msg::GcLabels(labels))?;
        garblings.push(phase_g);
    }

    // Client storage: the label pairs for the server's online inputs
    // (k pairs + delta per element — the paper's modest garbler-side
    // encoding cost) plus shares and randomness.
    out.storage_bytes = garblings
        .iter()
        .flatten()
        .map(|_| (2 * k as u64 + 1) * 16)
        .sum::<u64>()
        + c_shares.iter().map(|s| s.len() as u64 * 8).sum::<u64>()
        + r_acts.iter().map(|r| r.len() as u64 * 8).sum::<u64>();
    out.offline_sent = chan.bytes_sent();
    out.offline_sent_flat = chan.bytes_sent_flat();

    // ---------------- Online ----------------
    let masked: Vec<u64> = input
        .iter()
        .zip(&r_acts[0])
        .map(|(&x, &r)| p.sub(x, r))
        .collect();
    chan.send(Msg::VecU64(masked))?;

    // Serve the server's labels via OT, one extension per ReLU phase.
    for (gc_idx, &i) in relu_phases.iter().enumerate() {
        let ph = &meta.phases[i];
        let m = ph.rows;
        let _ot_span = pi_trace::span!("online.ot");
        let extend = match chan.recv()? {
            Msg::OtExtend(e) => e,
            other => return Err(unexpected("OtExtend", &other)),
        };
        // Server's input occupies wire positions [k, 2k).
        let mut pairs = Vec::with_capacity(m * k);
        for g in &garblings[gc_idx] {
            for bit in 0..k {
                pairs.push(g.encoding.label_pair(k + bit));
            }
        }
        out.ot_count += pairs.len() as u64;
        check_ot_shape(&extend, pairs.len())?;
        chan.send(Msg::OtTransfer(ext_sender.transfer(&extend, &pairs)))?;
    }

    // Final phase: combine output shares.
    let server_share = match chan.recv()? {
        Msg::VecU64(v) => v,
        other => return Err(unexpected("VecU64", &other)),
    };
    let output = combine_output(p, &server_share, &c_shares[meta.phases.len() - 1])?;
    out.total_sent = chan.bytes_sent();
    out.total_sent_flat = chan.bytes_sent_flat();
    drop(root_span);
    out.trace = trace_scope.finish();
    Ok((output, out))
}

/// Runs the server role (evaluator; holds the model weights).
///
/// `pre` holds the model's precomputed offline-linear operands
/// ([`ServerPrecomp`]); build it once and reuse it across inferences. The
/// session owns `rng` outright — it is consumed by the resumable state
/// machine.
///
/// # Panics
///
/// Panics on any [`ProtocolError`]; use [`try_run_server`] in anything
/// long-lived.
pub fn run_server(
    model: &PiModel,
    pre: &ServerPrecomp,
    cfg: &ProtocolConfig,
    chan: &Channel,
    rng: StdRng,
) -> PartyOutcome {
    try_run_server(model, pre, cfg, chan, rng).expect("server-side protocol failure")
}

/// Fallible [`run_server`]: drives the shared
/// [`ServerSession`](session::ServerSession) state machine synchronously —
/// the same implementation the concurrent serving runtime schedules, so
/// both deployments share one protocol body.
///
/// # Errors
///
/// [`ProtocolError`] on disconnect or protocol violation.
pub fn try_run_server(
    model: &PiModel,
    pre: &ServerPrecomp,
    cfg: &ProtocolConfig,
    chan: &Channel,
    rng: StdRng,
) -> Result<PartyOutcome, ProtocolError> {
    debug_assert!(matches!(cfg.kind, ProtocolKind::ClientGarbler));
    session::drive_sync(model, pre, cfg, chan, rng)
}
