//! The baseline Server-Garbler protocol (DELPHI, §2.2 of the paper).
//!
//! Offline: HE linear precompute; the **server garbles** every ReLU and
//! ships the circuits to the client, which stores them (the 18.2 KB/ReLU
//! client storage pressure of Figures 3 and 8); the client's GC input
//! labels transfer via offline OT.
//!
//! Online: the client sends `x − r₁`; per linear phase the server computes
//! its share `W(x−r) + s + b`; per ReLU the server sends labels for its
//! share, the **client evaluates** the garbled circuits (the 200-second
//! Atom-class bottleneck of Figure 4) and returns output labels, which the
//! server decodes into the next masked activation.
//!
//! The server role is the shared state machine in
//! [`crate::serve::session::ServerSession`]; [`run_server`] drives it over
//! a blocking channel. Every driver has a `try_` variant returning
//! [`ProtocolError`] instead of panicking on a misbehaving or vanished
//! peer.

use crate::channel::Channel;
use crate::common::{
    check_gc_tables, check_ot_shape, combine_output, push_field_bits, try_client_offline_linear,
    try_ot_base_as_ext_receiver, unexpected, ModelMeta, PartyOutcome, ProtocolConfig, ProtocolKind,
    ServerPrecomp,
};
use crate::error::ProtocolError;
use crate::msg::Msg;
use crate::serve::session;
use pi_gc::garble::evaluate_many;
use pi_gc::relu::relu_trunc_circuit;
use pi_gc::{Circuit, Label};
use pi_he::KeySet;
use pi_nn::PiModel;
use pi_ot::bitmat::BitVec;
use pi_ot::ext::OtExtReceiver;
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::Arc;

/// Client state for one garbled ReLU phase.
struct ClientPhaseGc {
    /// Tables per activation element.
    tables: Vec<Vec<(Label, Label)>>,
    /// The client's input labels per element (2k: share_b then r).
    my_labels: Vec<Vec<Label>>,
}

/// Runs the client role. Returns the inference output and cost summary.
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
    // Randomness per activation.
    let r_acts: Vec<Vec<u64>> = (0..meta.num_acts())
        .map(|a| {
            (0..meta.act_len(a))
                .map(|_| rng.gen_range(0..p.value()))
                .collect()
        })
        .collect();
    let c_shares =
        try_client_offline_linear(meta, &r_acts, cfg, chan, rng, &mut out, retained, upload)?;

    // Base OT: client is the extension receiver (it obtains labels).
    let ext_receiver = OtExtReceiver::new(try_ot_base_as_ext_receiver(chan, rng)?);

    // Per ReLU phase: receive circuits, fetch own labels via OT.
    let relu_phases: Vec<usize> = (0..meta.phases.len())
        .filter(|&i| meta.phases[i].relu_shift.is_some())
        .collect();
    // Circuit topology is public: rebuild it to check the tables' shape
    // offline and to evaluate online.
    let circuits: Vec<Circuit> = relu_phases
        .iter()
        .map(|&i| relu_trunc_circuit(p.value(), meta.phases[i].relu_shift.expect("relu phase")).0)
        .collect();
    let mut gcs: Vec<ClientPhaseGc> = Vec::with_capacity(relu_phases.len());
    for (gc_idx, &i) in relu_phases.iter().enumerate() {
        let ph = &meta.phases[i];
        let m = ph.rows;
        let tables = match chan.recv()? {
            Msg::GcTables(t) => t,
            other => return Err(unexpected("GcTables", &other)),
        };
        check_gc_tables(&tables, m, &circuits[gc_idx])?;
        out.gc_bytes += tables.iter().map(|t| t.len() as u64 * 32).sum::<u64>();
        // Choice bits: per element, share_b bits then r bits (packed).
        let ot_span = pi_trace::span!("offline.ot");
        let mut choices = BitVec::zeros(0);
        for j in 0..m {
            push_field_bits(&mut choices, c_shares[i][j], k);
            push_field_bits(&mut choices, r_acts[i + 1][j], k);
        }
        out.ot_count += choices.len() as u64;
        let (extend, keys) = ext_receiver.extend(&choices, rng);
        chan.send(Msg::OtExtend(extend))?;
        let transfer = match chan.recv()? {
            Msg::OtTransfer(t) => t,
            other => return Err(unexpected("OtTransfer", &other)),
        };
        check_ot_shape(&transfer, choices.len())?;
        let labels = ext_receiver.decode(&transfer, &choices, &keys);
        drop(ot_span);
        let my_labels: Vec<Vec<Label>> = labels.chunks(2 * k).map(|c| c.to_vec()).collect();
        gcs.push(ClientPhaseGc { tables, my_labels });
    }

    // Client storage: garbled circuits + own labels + shares + randomness.
    out.storage_bytes = out.gc_bytes
        + gcs
            .iter()
            .map(|g| g.my_labels.iter().map(|l| l.len() as u64 * 16).sum::<u64>())
            .sum::<u64>()
        + c_shares.iter().map(|s| s.len() as u64 * 8).sum::<u64>()
        + r_acts.iter().map(|r| r.len() as u64 * 8).sum::<u64>();
    out.offline_sent = chan.bytes_sent();
    out.offline_sent_flat = chan.bytes_sent_flat();

    // ---------------- Online ----------------
    // Send masked input.
    let masked: Vec<u64> = input
        .iter()
        .zip(&r_acts[0])
        .map(|(&x, &r)| p.sub(x, r))
        .collect();
    chan.send(Msg::VecU64(masked))?;

    for (gc_idx, &i) in relu_phases.iter().enumerate() {
        let ph = &meta.phases[i];
        let m = ph.rows;
        let server_labels = match chan.recv()? {
            Msg::GcLabels(l) => l,
            other => return Err(unexpected("GcLabels", &other)),
        };
        if server_labels.len() != m * k {
            return Err(ProtocolError::BadRequest("server label count"));
        }
        let eval_span = pi_trace::span!("online.eval");
        let circuit = &circuits[gc_idx];
        // Batched evaluation: 8 instances per AES call through the
        // fixed-key hash; decode stays with the garbler.
        let inputs: Vec<Vec<Label>> = (0..m)
            .map(|j| {
                let mut labels = Vec::with_capacity(3 * k);
                labels.extend_from_slice(&server_labels[j * k..(j + 1) * k]);
                labels.extend_from_slice(&gcs[gc_idx].my_labels[j]);
                labels
            })
            .collect();
        let per_instance = evaluate_many(circuit, &gcs[gc_idx].tables, &inputs);
        let out_labels: Vec<Label> = per_instance.into_iter().flatten().collect();
        out.gc_eval_and_gates += (m * circuit.and_count()) as u64;
        drop(eval_span);
        chan.send(Msg::GcLabels(out_labels))?;
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

/// Runs the server role (holds the model weights).
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
    debug_assert!(matches!(cfg.kind, ProtocolKind::ServerGarbler));
    session::drive_sync(model, pre, cfg, chan, rng)
}
