//! The server side of both protocols as a resumable state machine.
//!
//! A single-inference deployment can afford a blocking loop per session; a
//! shared server cannot — a worker thread must be able to advance whichever
//! session has work and park the rest. [`ServerSession`] therefore holds
//! the entire server role of **both** protocol kinds as explicit state:
//!
//! * [`ServerSession::start`] emits the serving runtime's
//!   [`Msg::KeyStatus`] preamble (service sessions only) and arms the
//!   first expectation;
//! * [`ServerSession::on_msg`] consumes exactly one client message,
//!   advances as far as the protocol allows without further input, and
//!   reports what it needs next ([`Step`]);
//! * [`ServerSession::on_matvec_done`] resumes a session stalled on the
//!   heavy HE matvec ([`Step::NeedMatvec`]), which the caller services —
//!   inline with layer-parallel threads in the synchronous drivers, or
//!   batched across sessions by the runtime's skew-aware batcher.
//!
//! **State-machine contract.** A message arriving in any state that does
//! not expect it is a typed [`ProtocolError::UnexpectedMsg`], never a
//! panic: one misbehaving client aborts one session. The machine is purely
//! reactive — after `start` it only acts in response to `on_msg` /
//! `on_matvec_done`, which is sufficient because the server's first
//! protocol action in both kinds is a receive. Randomness is drawn from the
//! session-owned [`StdRng`] in exactly the order of the retired blocking
//! drivers (shares, then base-OT material, then per-phase garbling/OT in
//! message order), so a session driven synchronously and one driven
//! concurrently produce bit-identical transcripts from the same seed.

use crate::channel::MsgSink;
use crate::common::{
    bits_field, check_gc_tables, check_ot_shape, field_bits, push_field_bits, unexpected,
    ClientHeKeys, LinearMode, ModelMeta, PartyOutcome, ProtocolConfig, ProtocolKind, ServerPrecomp,
};
use crate::error::ProtocolError;
use crate::msg::Msg;
use pi_gc::garble::{evaluate_many, garble_many, Garbling};
use pi_gc::relu::relu_trunc_circuit;
use pi_gc::{Circuit, GarbledCircuit, Label};
use pi_he::linalg::{self, BsgsDiagonals};
use pi_he::{BatchEncoder, Ciphertext};
use pi_nn::PiModel;
use pi_ot::base::{BaseOtReceiver, BaseOtSender};
use pi_ot::bitmat::BitVec;
use pi_ot::ext::{OtExtReceiver, OtExtSender, ReceiverSetup, SenderSetup, KAPPA};
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::Arc;

/// Everything a session step borrows from its surroundings: the model
/// weights, the shared per-model precomputation, the protocol config, and
/// the downlink to its client. Passing these per call (instead of owning
/// them) keeps the session `'static` and lets the runtime share one
/// [`ServerPrecomp`] across every session of a model.
pub struct SessionCtx<'a> {
    /// The served model (weights included).
    pub model: &'a PiModel,
    /// Shared per-model offline-linear precomputation.
    pub pre: &'a ServerPrecomp,
    /// Protocol configuration.
    pub cfg: &'a ProtocolConfig,
    /// Downlink to this session's client.
    pub sink: &'a dyn MsgSink,
}

/// One outstanding HE matrix-vector product: the session cannot proceed
/// until `E(W_phase · r)` comes back via [`ServerSession::on_matvec_done`].
pub struct MatvecJob {
    /// Linear-phase index.
    pub phase: usize,
    /// The client's `E(r_cat)` for that phase.
    pub ct: Ciphertext,
    /// The client's HE keys (rotations happen under them).
    pub keys: Arc<ClientHeKeys>,
}

/// What a session needs after a step.
pub enum Step {
    /// Waiting for further client messages (or outstanding matvecs).
    Idle,
    /// The offline linear pass needs these HE products computed; resume
    /// each with [`ServerSession::on_matvec_done`].
    NeedMatvec(Vec<MatvecJob>),
    /// The protocol completed; collect [`ServerSession::take_outcome`].
    Done,
}

/// HE context once the client's keys are known.
struct HeCtx {
    keys: Arc<ClientHeKeys>,
    encoder: BatchEncoder,
}

/// A received per-phase offline input.
enum PhaseInput {
    Ct(Ciphertext),
    Clear(Vec<u64>),
}

/// Stored Client-Garbler material for one ReLU phase.
struct CgPhaseGc {
    tables: Vec<Vec<(Label, Label)>>,
    decode: Vec<Vec<bool>>,
    client_labels: Vec<Label>,
}

enum State {
    New,
    AwaitKeys,
    AwaitInput(usize),
    AwaitMatvec,
    SgAwaitBaseSetup {
        s: u128,
    },
    SgAwaitBaseTransfer {
        receiver: BaseOtReceiver,
        s: u128,
    },
    SgAwaitOtExtend {
        idx: usize,
    },
    CgAwaitBaseChoice {
        sender: BaseOtSender,
        seed_pairs: Vec<(u128, u128)>,
    },
    CgAwaitTables {
        idx: usize,
    },
    CgAwaitDecode {
        idx: usize,
    },
    CgAwaitLabels {
        idx: usize,
    },
    AwaitMaskedInput,
    SgAwaitOutLabels,
    CgAwaitOtTransfer,
    Done,
}

/// The server role of one inference session, resumable at every message
/// boundary. See the module docs for the contract.
pub struct ServerSession {
    kind: ProtocolKind,
    meta: ModelMeta,
    service: bool,
    rng: StdRng,
    he: Option<HeCtx>,
    received_keys: Option<Arc<ClientHeKeys>>,
    state: State,
    inputs: Vec<PhaseInput>,
    s_vecs: Vec<Vec<u64>>,
    prods: Vec<Option<Ciphertext>>,
    prods_missing: usize,
    relu_phases: Vec<usize>,
    // Server-Garbler material.
    sg_garblings: Vec<Vec<Garbling>>,
    ext_sender: Option<OtExtSender>,
    // Client-Garbler material.
    ext_receiver: Option<OtExtReceiver>,
    cg_partial_tables: Option<Vec<Vec<(Label, Label)>>>,
    cg_partial_decode: Option<Vec<Vec<bool>>>,
    cg_gcs: Vec<CgPhaseGc>,
    cg_circuits: Vec<Circuit>,
    cg_pending_ot: Option<(BitVec, Vec<u128>)>,
    // Online progress.
    masked_acts: Vec<Vec<u64>>,
    phase_idx: usize,
    gc_idx: usize,
    outcome: PartyOutcome,
}

impl ServerSession {
    /// Creates a session for one inference of `model` under `cfg`.
    ///
    /// `service` enables the serving-runtime [`Msg::KeyStatus`] preamble;
    /// `cached_keys` is the client's HE key material if the server's
    /// session table still holds it (the session then skips the upload).
    pub fn new(
        model: &PiModel,
        cfg: &ProtocolConfig,
        rng: StdRng,
        service: bool,
        cached_keys: Option<Arc<ClientHeKeys>>,
    ) -> Self {
        let meta = ModelMeta::of(model);
        let relu_phases: Vec<usize> = (0..meta.phases.len())
            .filter(|&i| meta.phases[i].relu_shift.is_some())
            .collect();
        // The client garbles; the server evaluates on the public topology,
        // which also fixes the shape its tables must have.
        let cg_circuits = if matches!(cfg.kind, ProtocolKind::ClientGarbler) {
            relu_phases
                .iter()
                .map(|&i| {
                    let shift = meta.phases[i].relu_shift.expect("relu");
                    relu_trunc_circuit(meta.p.value(), shift).0
                })
                .collect()
        } else {
            Vec::new()
        };
        let he = cached_keys.map(|keys| HeCtx {
            keys,
            encoder: BatchEncoder::new(
                cfg.he_params
                    .as_ref()
                    .expect("cached keys require HE parameters"),
            ),
        });
        Self {
            kind: cfg.kind,
            meta,
            service,
            rng,
            he,
            received_keys: None,
            state: State::New,
            inputs: Vec::new(),
            s_vecs: Vec::new(),
            prods: Vec::new(),
            prods_missing: 0,
            relu_phases,
            sg_garblings: Vec::new(),
            ext_sender: None,
            ext_receiver: None,
            cg_partial_tables: None,
            cg_partial_decode: None,
            cg_gcs: Vec::new(),
            cg_circuits,
            cg_pending_ot: None,
            masked_acts: Vec::new(),
            phase_idx: 0,
            gc_idx: 0,
            outcome: PartyOutcome::default(),
        }
    }

    /// Arms the session: sends the [`Msg::KeyStatus`] preamble (service
    /// sessions) and sets the first expectation.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Channel`] if the client already disconnected.
    pub fn start(&mut self, ctx: &SessionCtx<'_>) -> Result<Step, ProtocolError> {
        debug_assert!(matches!(self.state, State::New), "start called twice");
        let need_keys = matches!(ctx.cfg.linear, LinearMode::He) && self.he.is_none();
        if self.service {
            ctx.sink.send_msg(Msg::KeyStatus { need_keys })?;
        }
        self.state = if need_keys {
            State::AwaitKeys
        } else {
            State::AwaitInput(0)
        };
        Ok(Step::Idle)
    }

    /// Whether the protocol has completed.
    pub fn is_done(&self) -> bool {
        matches!(self.state, State::Done)
    }

    /// Takes the finished cost summary (valid once [`Step::Done`] was
    /// returned; the trace field is filled in by the driver).
    pub fn take_outcome(&mut self) -> PartyOutcome {
        std::mem::take(&mut self.outcome)
    }

    /// Takes the client keys received this session, if any — the runtime
    /// inserts them into its session table after the upload.
    pub fn take_received_keys(&mut self) -> Option<Arc<ClientHeKeys>> {
        self.received_keys.take()
    }

    /// Consumes one client message and advances as far as possible.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::UnexpectedMsg`] when the message does not fit the
    /// current state; [`ProtocolError::BadRequest`] on malformed contents;
    /// [`ProtocolError::Channel`] when the client vanished mid-reply.
    pub fn on_msg(&mut self, ctx: &SessionCtx<'_>, msg: Msg) -> Result<Step, ProtocolError> {
        let state = std::mem::replace(&mut self.state, State::Done);
        match (state, msg) {
            (State::AwaitKeys, Msg::HeKeys { pk, gk }) => {
                // Keys arrive as serialized seed-expanded frames; a frame
                // that fails to parse is the client's fault and aborts only
                // this session.
                let params = ctx.cfg.he_params.as_ref().expect("HE mode parameters");
                let pk = pi_he::public_key_from_bytes(&pk, params)?;
                let gk = pi_he::galois_keys_from_bytes(&gk, params)?;
                let keys = Arc::new(ClientHeKeys { pk, gk });
                self.received_keys = Some(keys.clone());
                self.he = Some(HeCtx {
                    keys,
                    encoder: BatchEncoder::new(
                        ctx.cfg.he_params.as_ref().expect("HE mode parameters"),
                    ),
                });
                self.state = State::AwaitInput(0);
                Ok(Step::Idle)
            }
            (State::AwaitKeys, other) => Err(unexpected("HeKeys", &other)),
            (State::AwaitInput(i), msg) => {
                let input = match (ctx.cfg.linear, msg) {
                    (LinearMode::He, Msg::HeCts(frames)) => {
                        let Some(frame) = frames.first() else {
                            return Err(ProtocolError::BadRequest("empty ciphertext batch"));
                        };
                        let params = ctx.cfg.he_params.as_ref().expect("HE mode parameters");
                        let ct = pi_he::ciphertext_from_bytes(frame, params)?;
                        if ct.c0.ctx().q() != params.q() {
                            return Err(ProtocolError::BadRequest(
                                "offline upload not at the full ciphertext modulus",
                            ));
                        }
                        PhaseInput::Ct(ct)
                    }
                    (LinearMode::He, other) => return Err(unexpected("HeCts", &other)),
                    (LinearMode::Clear, Msg::VecU64(v)) => {
                        if v.len() < ctx.pre.matrices[i].cols() {
                            return Err(ProtocolError::BadRequest("short offline input vector"));
                        }
                        PhaseInput::Clear(v)
                    }
                    (LinearMode::Clear, other) => return Err(unexpected("VecU64", &other)),
                };
                self.inputs.push(input);
                if i + 1 < self.meta.phases.len() {
                    self.state = State::AwaitInput(i + 1);
                    Ok(Step::Idle)
                } else {
                    self.finish_inputs(ctx)
                }
            }
            (State::AwaitMatvec, other) => Err(unexpected("no message (matvec pending)", &other)),
            (State::SgAwaitBaseSetup { s }, Msg::OtBaseSetup(setup)) => {
                let _span = pi_trace::span!("offline.ot");
                let (receiver, choice) =
                    BaseOtReceiver::choose_packed(&setup, s, KAPPA, &mut self.rng);
                ctx.sink.send_msg(Msg::OtBaseChoice(choice))?;
                self.state = State::SgAwaitBaseTransfer { receiver, s };
                Ok(Step::Idle)
            }
            (State::SgAwaitBaseSetup { .. }, other) => Err(unexpected("OtBaseSetup", &other)),
            (State::SgAwaitBaseTransfer { receiver, s }, Msg::OtBaseTransfer(t)) => {
                check_ot_shape(&t, KAPPA)?;
                let seeds = {
                    let _span = pi_trace::span!("offline.ot");
                    receiver.receive(&t)
                };
                self.ext_sender = Some(OtExtSender::new(SenderSetup { s, seeds }));
                if self.relu_phases.is_empty() {
                    self.finish_offline(ctx);
                } else {
                    self.sg_garble_and_send(ctx, 0)?;
                }
                Ok(Step::Idle)
            }
            (State::SgAwaitBaseTransfer { .. }, other) => Err(unexpected("OtBaseTransfer", &other)),
            (State::SgAwaitOtExtend { idx }, Msg::OtExtend(e)) => {
                let k = self.meta.relu_width;
                {
                    let _span = pi_trace::span!("offline.ot");
                    let phase_g = &self.sg_garblings[idx];
                    // OT: the client's inputs occupy wire positions [k, 3k).
                    let mut pairs = Vec::with_capacity(phase_g.len() * 2 * k);
                    for g in phase_g {
                        for bit in 0..2 * k {
                            pairs.push(g.encoding.label_pair(k + bit));
                        }
                    }
                    check_ot_shape(&e, pairs.len())?;
                    self.outcome.ot_count += pairs.len() as u64;
                    let ext = self.ext_sender.as_ref().expect("ext sender ready");
                    ctx.sink
                        .send_msg(Msg::OtTransfer(ext.transfer(&e, &pairs)))?;
                }
                if idx + 1 < self.relu_phases.len() {
                    self.sg_garble_and_send(ctx, idx + 1)?;
                } else {
                    self.finish_offline(ctx);
                }
                Ok(Step::Idle)
            }
            (State::SgAwaitOtExtend { .. }, other) => Err(unexpected("OtExtend", &other)),
            (State::CgAwaitBaseChoice { sender, seed_pairs }, Msg::OtBaseChoice(c)) => {
                check_ot_shape(&c, seed_pairs.len())?;
                {
                    let _span = pi_trace::span!("offline.ot");
                    let transfer = sender.transfer(&c, &seed_pairs, &mut self.rng);
                    ctx.sink.send_msg(Msg::OtBaseTransfer(transfer))?;
                }
                self.ext_receiver = Some(OtExtReceiver::new(ReceiverSetup { seed_pairs }));
                if self.relu_phases.is_empty() {
                    self.finish_offline(ctx);
                } else {
                    self.state = State::CgAwaitTables { idx: 0 };
                }
                Ok(Step::Idle)
            }
            (State::CgAwaitBaseChoice { .. }, other) => Err(unexpected("OtBaseChoice", &other)),
            (State::CgAwaitTables { idx }, Msg::GcTables(t)) => {
                let m = self.meta.phases[self.relu_phases[idx]].rows;
                check_gc_tables(&t, m, &self.cg_circuits[idx])?;
                let table_bytes = t.iter().map(|t| t.len() as u64 * 32).sum::<u64>();
                self.outcome.gc_bytes += table_bytes;
                self.cg_partial_tables = Some(t);
                self.state = State::CgAwaitDecode { idx };
                Ok(Step::Idle)
            }
            (State::CgAwaitTables { .. }, other) => Err(unexpected("GcTables", &other)),
            (State::CgAwaitDecode { idx }, Msg::GcDecode(d)) => {
                let m = self.meta.phases[self.relu_phases[idx]].rows;
                if d.len() != m {
                    return Err(ProtocolError::BadRequest("decode vector count"));
                }
                self.cg_partial_decode = Some(d);
                self.state = State::CgAwaitLabels { idx };
                Ok(Step::Idle)
            }
            (State::CgAwaitDecode { .. }, other) => Err(unexpected("GcDecode", &other)),
            (State::CgAwaitLabels { idx }, Msg::GcLabels(l)) => {
                let m = self.meta.phases[self.relu_phases[idx]].rows;
                let k = self.meta.relu_width;
                if l.len() != m * 2 * k {
                    return Err(ProtocolError::BadRequest("client label count"));
                }
                self.cg_gcs.push(CgPhaseGc {
                    tables: self
                        .cg_partial_tables
                        .take()
                        .expect("tables precede labels"),
                    decode: self
                        .cg_partial_decode
                        .take()
                        .expect("decode precedes labels"),
                    client_labels: l,
                });
                if idx + 1 < self.relu_phases.len() {
                    self.state = State::CgAwaitTables { idx: idx + 1 };
                } else {
                    self.finish_offline(ctx);
                }
                Ok(Step::Idle)
            }
            (State::CgAwaitLabels { .. }, other) => Err(unexpected("GcLabels", &other)),
            (State::AwaitMaskedInput, Msg::VecU64(v)) => {
                if v.len() != self.meta.input_len {
                    return Err(ProtocolError::BadRequest("masked input length"));
                }
                self.masked_acts = vec![v];
                self.phase_idx = 0;
                self.gc_idx = 0;
                self.advance_online(ctx)
            }
            (State::AwaitMaskedInput, other) => Err(unexpected("VecU64", &other)),
            (State::SgAwaitOutLabels, Msg::GcLabels(l)) => {
                let k = self.meta.relu_width;
                let phase_g = &self.sg_garblings[self.gc_idx];
                if l.len() != phase_g.len() * k {
                    return Err(ProtocolError::BadRequest("output label count"));
                }
                let next_masked = {
                    let _span = pi_trace::span!("online.eval");
                    let mut next = Vec::with_capacity(phase_g.len());
                    for (j, chunk) in l.chunks(k).enumerate() {
                        let bits = phase_g[j].garbled.decode_outputs(chunk);
                        next.push(bits_field(&bits));
                    }
                    next
                };
                self.masked_acts.push(next_masked);
                self.gc_idx += 1;
                self.phase_idx += 1;
                self.advance_online(ctx)
            }
            (State::SgAwaitOutLabels, other) => Err(unexpected("GcLabels", &other)),
            (State::CgAwaitOtTransfer, Msg::OtTransfer(t)) => {
                let k = self.meta.relu_width;
                let (choices, t_rows) = self.cg_pending_ot.take().expect("pending OT state");
                check_ot_shape(&t, choices.len())?;
                let my_labels = {
                    let _span = pi_trace::span!("online.ot");
                    let ext = self.ext_receiver.as_ref().expect("ext receiver ready");
                    ext.decode(&t, &choices, &t_rows)
                };
                let m = choices.len() / k;
                let next_masked = {
                    let _span = pi_trace::span!("online.eval");
                    let phase = &self.cg_gcs[self.gc_idx];
                    let circuit = &self.cg_circuits[self.gc_idx];
                    let inputs: Vec<Vec<Label>> = (0..m)
                        .map(|j| {
                            let mut labels = Vec::with_capacity(3 * k);
                            // share_a (client) | share_b (server, via OT) | r (client)
                            labels
                                .extend_from_slice(&phase.client_labels[j * 2 * k..j * 2 * k + k]);
                            labels.extend_from_slice(&my_labels[j * k..(j + 1) * k]);
                            labels.extend_from_slice(
                                &phase.client_labels[j * 2 * k + k..(j + 1) * 2 * k],
                            );
                            labels
                        })
                        .collect();
                    let per_instance = evaluate_many(circuit, &phase.tables, &inputs);
                    self.outcome.gc_eval_and_gates += (m * circuit.and_count()) as u64;
                    let mut next = Vec::with_capacity(m);
                    for (j, out_labels) in per_instance.iter().enumerate() {
                        // decode_outputs only consults the decode bits.
                        let garbled = GarbledCircuit {
                            tables: Vec::new(),
                            output_decode: phase.decode[j].clone(),
                        };
                        next.push(bits_field(&garbled.decode_outputs(out_labels)));
                    }
                    next
                };
                self.masked_acts.push(next_masked);
                self.gc_idx += 1;
                self.phase_idx += 1;
                self.advance_online(ctx)
            }
            (State::CgAwaitOtTransfer, other) => Err(unexpected("OtTransfer", &other)),
            (State::New, other) => Err(unexpected("no message (session not started)", &other)),
            (State::Done, other) => Err(unexpected("no message (session complete)", &other)),
        }
    }

    /// Delivers one finished HE product for `phase`. Once every outstanding
    /// product is in, the per-phase responses `E(W·r − s)` go out in phase
    /// order (matching the retired blocking driver) and the protocol moves
    /// on to OT setup.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Channel`] if the client vanished.
    pub fn on_matvec_done(
        &mut self,
        ctx: &SessionCtx<'_>,
        phase: usize,
        prod: Ciphertext,
    ) -> Result<Step, ProtocolError> {
        debug_assert!(matches!(self.state, State::AwaitMatvec));
        debug_assert!(self.prods[phase].is_none(), "duplicate matvec result");
        self.prods[phase] = Some(prod);
        self.prods_missing -= 1;
        if self.prods_missing > 0 {
            return Ok(Step::Idle);
        }
        {
            let _span = pi_trace::span!("offline.he");
            let he = self.he.as_ref().expect("HE context");
            let params = ctx.cfg.he_params.as_ref().expect("HE mode parameters");
            let prods = std::mem::take(&mut self.prods);
            for (i, prod) in prods.into_iter().enumerate() {
                let prod = prod.expect("all matvec products delivered");
                let resp = linalg::sub_share(
                    params,
                    &he.encoder,
                    &prod,
                    &self.s_vecs[i],
                    ctx.pre.matrices[i].padded_dim(),
                );
                // Every server→client response is modulus-down-switched
                // before serialization: fewer packed bits per coefficient
                // AND more absolute noise headroom at the GC handoff.
                let resp = resp.mod_switch_down(params);
                ctx.sink
                    .send_msg(Msg::HeCts(vec![pi_he::ciphertext_to_bytes(&resp)]))?;
            }
        }
        self.start_ot_stage(ctx)?;
        Ok(Step::Idle)
    }

    /// All offline inputs are in: sample the server shares `s_i` (the first
    /// randomness the server draws, matching the blocking drivers), then
    /// either answer immediately (clear mode) or stall on the HE matvecs.
    fn finish_inputs(&mut self, ctx: &SessionCtx<'_>) -> Result<Step, ProtocolError> {
        let p = self.meta.p;
        self.s_vecs = self
            .meta
            .phases
            .iter()
            .map(|ph| {
                (0..ph.rows)
                    .map(|_| self.rng.gen_range(0..p.value()))
                    .collect()
            })
            .collect();
        match ctx.cfg.linear {
            LinearMode::Clear => {
                let _span = pi_trace::span!("offline.he");
                let inputs = std::mem::take(&mut self.inputs);
                for (i, input) in inputs.iter().enumerate() {
                    let r_cat = match input {
                        PhaseInput::Clear(v) => v,
                        PhaseInput::Ct(_) => unreachable!("ciphertext in clear mode"),
                    };
                    let w = &ctx.pre.matrices[i];
                    let wr = w.matvec_plain(&r_cat[..w.cols()], p);
                    let share: Vec<u64> = wr
                        .iter()
                        .zip(&self.s_vecs[i])
                        .map(|(&a, &s)| p.sub(a, s))
                        .collect();
                    ctx.sink.send_msg(Msg::VecU64(share))?;
                }
                self.start_ot_stage(ctx)?;
                Ok(Step::Idle)
            }
            LinearMode::He => {
                let he = self.he.as_ref().expect("HE context");
                let inputs = std::mem::take(&mut self.inputs);
                let jobs: Vec<MatvecJob> = inputs
                    .into_iter()
                    .enumerate()
                    .map(|(i, input)| match input {
                        PhaseInput::Ct(ct) => MatvecJob {
                            phase: i,
                            ct,
                            keys: he.keys.clone(),
                        },
                        PhaseInput::Clear(_) => unreachable!("cleartext in HE mode"),
                    })
                    .collect();
                self.prods = (0..jobs.len()).map(|_| None).collect();
                self.prods_missing = jobs.len();
                self.state = State::AwaitMatvec;
                Ok(Step::NeedMatvec(jobs))
            }
        }
    }

    /// Linear responses are out; arm the protocol-specific OT stage. The
    /// RNG draws here (SG: the IKNP choice scalar; CG: base-OT seed pairs
    /// and sender secret) follow the linear-share draws exactly as in the
    /// blocking drivers.
    fn start_ot_stage(&mut self, ctx: &SessionCtx<'_>) -> Result<(), ProtocolError> {
        match self.kind {
            ProtocolKind::ServerGarbler => {
                let _span = pi_trace::span!("offline.ot");
                let s: u128 = self.rng.gen();
                self.state = State::SgAwaitBaseSetup { s };
            }
            ProtocolKind::ClientGarbler => {
                let _span = pi_trace::span!("offline.ot");
                let seed_pairs: Vec<(u128, u128)> = (0..KAPPA)
                    .map(|_| (self.rng.gen(), self.rng.gen()))
                    .collect();
                let (sender, setup) = BaseOtSender::new(&mut self.rng);
                ctx.sink.send_msg(Msg::OtBaseSetup(setup))?;
                self.state = State::CgAwaitBaseChoice { sender, seed_pairs };
            }
        }
        Ok(())
    }

    /// Garbles ReLU phase `relu_phases[idx]` and ships the tables (Server-
    /// Garbler offline); the client answers with its OT extension.
    fn sg_garble_and_send(
        &mut self,
        ctx: &SessionCtx<'_>,
        idx: usize,
    ) -> Result<(), ProtocolError> {
        let i = self.relu_phases[idx];
        let ph = &self.meta.phases[i];
        let m = ph.rows;
        let shift = ph.relu_shift.expect("relu phase");
        let garble_span = pi_trace::span!("offline.garble");
        let (circuit, _) = relu_trunc_circuit(self.meta.p.value(), shift);
        // Lockstep batch garbling: 8 circuit instances per AES call.
        let phase_g: Vec<Garbling> = garble_many(&circuit, m, &mut self.rng);
        self.outcome.gc_and_gates += (m * circuit.and_count()) as u64;
        pi_trace::add(pi_trace::Counter::GcRelu, m as u64);
        drop(garble_span);
        let tables: Vec<Vec<(Label, Label)>> =
            phase_g.iter().map(|g| g.garbled.tables.clone()).collect();
        let table_bytes = tables.iter().map(|t| t.len() as u64 * 32).sum::<u64>();
        self.outcome.gc_bytes += table_bytes;
        pi_trace::add(pi_trace::Counter::GcBytes, table_bytes);
        self.sg_garblings.push(phase_g);
        ctx.sink.send_msg(Msg::GcTables(tables))?;
        self.state = State::SgAwaitOtExtend { idx };
        Ok(())
    }

    /// Snapshot storage and offline communication at the offline/online
    /// boundary, then await the masked input.
    fn finish_offline(&mut self, ctx: &SessionCtx<'_>) {
        let k = self.meta.relu_width as u64;
        self.outcome.storage_bytes = match self.kind {
            ProtocolKind::ServerGarbler => {
                // Own input encodings (k labels + delta per element),
                // output decode bits, and the shares s_i.
                self.sg_garblings
                    .iter()
                    .flatten()
                    .map(|_| (k + 1) * 16 + k.div_ceil(8))
                    .sum::<u64>()
                    + self.s_vecs.iter().map(|s| s.len() as u64 * 8).sum::<u64>()
            }
            ProtocolKind::ClientGarbler => {
                // Garbled circuits + the client's labels + decode bits +
                // linear shares: the paper's storage burden after the swap.
                self.outcome.gc_bytes
                    + self
                        .cg_gcs
                        .iter()
                        .map(|g| g.client_labels.len() as u64 * 16)
                        .sum::<u64>()
                    + self
                        .cg_gcs
                        .iter()
                        .map(|g| {
                            g.decode
                                .iter()
                                .map(|d| d.len().div_ceil(8) as u64)
                                .sum::<u64>()
                        })
                        .sum::<u64>()
                    + self.s_vecs.iter().map(|s| s.len() as u64 * 8).sum::<u64>()
            }
        };
        self.outcome.offline_sent = ctx.sink.sent_bytes();
        self.outcome.offline_sent_flat = ctx.sink.sent_bytes_flat();
        self.state = State::AwaitMaskedInput;
    }

    /// Runs online linear phases from `phase_idx` until the next client
    /// round trip (or completion).
    fn advance_online(&mut self, ctx: &SessionCtx<'_>) -> Result<Step, ProtocolError> {
        let p = self.meta.p;
        let k = self.meta.relu_width;
        while self.phase_idx < ctx.model.phases.len() {
            let i = self.phase_idx;
            let ph = &ctx.model.phases[i];
            // Server share: W (x - r) + s (+ b inside apply).
            let ss_span = pi_trace::span!("online.ss");
            let x_cat: Vec<u64> = ph
                .inputs
                .iter()
                .flat_map(|&a| self.masked_acts[a].iter().copied())
                .collect();
            let mut y_s = ph.apply(&x_cat, p);
            for (v, &s) in y_s.iter_mut().zip(&self.s_vecs[i]) {
                *v = p.add(*v, s);
            }
            drop(ss_span);
            match ph.relu_shift {
                Some(_) => {
                    match self.kind {
                        ProtocolKind::ServerGarbler => {
                            // Send labels for the server's share (wire
                            // positions 0..k); the client evaluates.
                            let labels = {
                                let _span = pi_trace::span!("online.eval");
                                let phase_g = &self.sg_garblings[self.gc_idx];
                                let mut labels = Vec::with_capacity(y_s.len() * k);
                                for (j, &v) in y_s.iter().enumerate() {
                                    labels.extend(
                                        phase_g[j].encoding.encode_bits(0, &field_bits(v, k)),
                                    );
                                }
                                labels
                            };
                            ctx.sink.send_msg(Msg::GcLabels(labels))?;
                            self.state = State::SgAwaitOutLabels;
                        }
                        ProtocolKind::ClientGarbler => {
                            // Fetch labels for the share bits via online OT
                            // (packed choices straight from the field bits).
                            let _span = pi_trace::span!("online.ot");
                            let mut choices = BitVec::zeros(0);
                            for &v in &y_s {
                                push_field_bits(&mut choices, v, k);
                            }
                            self.outcome.ot_count += choices.len() as u64;
                            let ext = self.ext_receiver.as_ref().expect("ext receiver ready");
                            let (extend, t_rows) = ext.extend(&choices, &mut self.rng);
                            ctx.sink.send_msg(Msg::OtExtend(extend))?;
                            self.cg_pending_ot = Some((choices, t_rows));
                            self.state = State::CgAwaitOtTransfer;
                        }
                    }
                    return Ok(Step::Idle);
                }
                None => {
                    ctx.sink.send_msg(Msg::VecU64(y_s))?;
                    self.phase_idx += 1;
                }
            }
        }
        self.outcome.total_sent = ctx.sink.sent_bytes();
        self.outcome.total_sent_flat = ctx.sink.sent_bytes_flat();
        self.state = State::Done;
        Ok(Step::Done)
    }
}

/// Drives a [`ServerSession`] to completion over a blocking [`Channel`] —
/// the classic one-thread-per-party deployment, running the *same* state
/// machine as the serving runtime so the two paths cannot drift.
/// [`Step::NeedMatvec`] is serviced inline with `cfg.lphe_threads`-way
/// layer parallelism.
///
/// # Errors
///
/// Any [`ProtocolError`] the session raises (peer disconnect, protocol
/// violation, malformed request).
pub fn drive_sync(
    model: &PiModel,
    pre: &ServerPrecomp,
    cfg: &ProtocolConfig,
    chan: &crate::channel::Channel,
    rng: StdRng,
) -> Result<PartyOutcome, ProtocolError> {
    let trace_scope = pi_trace::begin_local();
    let root_span = pi_trace::span!("server");
    let mut session = ServerSession::new(model, cfg, rng, false, None);
    let ctx = SessionCtx {
        model,
        pre,
        cfg,
        sink: chan,
    };
    let mut step = session.start(&ctx)?;
    loop {
        match step {
            Step::Done => break,
            Step::NeedMatvec(jobs) => {
                let prods = {
                    let _span = pi_trace::span!("offline.he");
                    compute_matvec_jobs(&jobs, pre, cfg.lphe_threads)
                };
                step = Step::Idle;
                for (phase, prod) in prods {
                    step = session.on_matvec_done(&ctx, phase, prod)?;
                }
            }
            Step::Idle => {
                let msg = chan.recv()?;
                step = session.on_msg(&ctx, msg)?;
            }
        }
    }
    drop(root_span);
    let mut out = session.take_outcome();
    out.trace = trace_scope.finish();
    Ok(out)
}

/// Computes the HE products for a batch of same-session jobs with
/// `threads`-way layer parallelism (LPHE, §5.2) — the synchronous drivers'
/// replacement for the retired in-line parallel loop. Results come back in
/// job order.
pub fn compute_matvec_jobs(
    jobs: &[MatvecJob],
    pre: &ServerPrecomp,
    threads: usize,
) -> Vec<(usize, Ciphertext)> {
    let diagonals = pre.diagonals.as_ref().expect("HE mode requires diagonals");
    let work = |job: &MatvecJob| -> (usize, Ciphertext) {
        // Hoisted BSGS: ~2√d rotations, only the giant steps paying a
        // full key switch.
        let prod = linalg::matvec_precomputed(&job.keys.gk, &diagonals[job.phase], &job.ct);
        (job.phase, prod)
    };
    let threads = threads.max(1).min(jobs.len().max(1));
    if threads <= 1 {
        return jobs.iter().map(work).collect();
    }
    use std::sync::atomic::{AtomicUsize, Ordering};
    let next = AtomicUsize::new(0);
    let slots: Vec<parking_lot::Mutex<Option<(usize, Ciphertext)>>> = (0..jobs.len())
        .map(|_| parking_lot::Mutex::new(None))
        .collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs.len() {
                    break;
                }
                *slots[i].lock() = Some(work(&jobs[i]));
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().expect("all jobs processed"))
        .collect()
}

/// Batched variant for the serving runtime: every job in `batch` multiplies
/// against the same per-model diagonals for one phase, sharing a single
/// pass over the operands ([`linalg::matvec_precomputed_many`]). Per-job
/// results are bit-identical to [`compute_matvec_jobs`].
pub fn compute_matvec_batch(batch: &[&MatvecJob], diagonals: &BsgsDiagonals) -> Vec<Ciphertext> {
    let pairs: Vec<(&pi_he::GaloisKeys, &Ciphertext)> =
        batch.iter().map(|j| (&j.keys.gk, &j.ct)).collect();
    linalg::matvec_precomputed_many(&pairs, diagonals)
}
