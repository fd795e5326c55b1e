//! Serving-runtime integration tests: N-client concurrency bit-identity,
//! dropped and misbehaving clients, and session-table eviction under a
//! tiny byte budget.

use pi_core::msg::Msg;
use pi_core::{
    ModelMeta, ProtocolConfig, ProtocolError, ProtocolKind, ServeConfig, ServeRuntime,
    ServiceClient,
};
use pi_he::BfvParams;
use pi_nn::{zoo, FixedConfig, Network, PiModel, QuantNetwork};
use rand::{Rng, SeedableRng};

fn build_model(he: &BfvParams, seed: u64) -> PiModel {
    let fx = FixedConfig { p: he.t(), f: 5 };
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let net = Network::materialize(&zoo::tiny_cnn(), &mut rng);
    PiModel::lower(&QuantNetwork::quantize(&net, fx))
}

fn random_input(model: &PiModel, seed: u64) -> Vec<u64> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let f = 1u64 << model.f;
    (0..model.input_len)
        .map(|_| {
            let v: i64 = rng.gen_range(-(f as i64)..=f as i64);
            model.p.from_signed(v)
        })
        .collect()
}

fn serve_cfg(workers: usize) -> ServeConfig {
    ServeConfig {
        workers,
        ..Default::default()
    }
}

/// Runs `n` concurrent clients against one registered model and checks
/// every output against the fixed-point reference — the same ground truth
/// the sequential drivers are tested against, so concurrent == sequential
/// bit-identity follows.
fn run_concurrent_clients(rt: &ServeRuntime, model: &PiModel, cfg: &ProtocolConfig, n: u64) {
    let model_id = rt.register_model(model.clone(), cfg.clone());
    let meta = ModelMeta::of(model);
    std::thread::scope(|scope| {
        for c in 0..n {
            let meta = &meta;
            scope.spawn(move || {
                let conn = rt.connect(c, model_id, 1_000 + c);
                let input = random_input(model, 50 + c);
                let mut client = ServiceClient::new();
                let mut rng = rand::rngs::StdRng::seed_from_u64(77 + c);
                let (out, c_out) = client
                    .run(meta, &input, cfg, &conn.chan, &mut rng)
                    .expect("client protocol run");
                assert_eq!(out, model.forward(&input), "client {c} output");
                let s_out = conn.handle.wait().expect("server outcome");
                assert!(s_out.total_sent > 0);
                assert!(c_out.total_sent > 0);
            });
        }
    });
}

#[test]
fn concurrent_clients_match_reference_clear_both_kinds() {
    let he = BfvParams::small_test();
    let model = build_model(&he, 11);
    for kind in [ProtocolKind::ServerGarbler, ProtocolKind::ClientGarbler] {
        let rt = ServeRuntime::new(serve_cfg(4));
        run_concurrent_clients(&rt, &model, &ProtocolConfig::clear(kind), 4);
    }
}

#[test]
fn concurrent_clients_match_reference_he_client_garbler() {
    let he = BfvParams::small_test();
    let model = build_model(&he, 11);
    let rt = ServeRuntime::new(serve_cfg(4));
    run_concurrent_clients(&rt, &model, &ProtocolConfig::client_garbler(he, 1), 3);
    // Three distinct clients uploaded keys; the fused matvec batches ran.
    assert_eq!(rt.key_table_stats().inserts, 3);
}

#[test]
fn concurrent_clients_match_reference_he_server_garbler() {
    let he = BfvParams::small_test();
    let model = build_model(&he, 11);
    let rt = ServeRuntime::new(serve_cfg(2));
    run_concurrent_clients(&rt, &model, &ProtocolConfig::server_garbler(he), 2);
}

#[test]
fn dropped_client_aborts_one_session_not_the_server() {
    let he = BfvParams::small_test();
    let model = build_model(&he, 11);
    let cfg = ProtocolConfig::clear(ProtocolKind::ServerGarbler);
    let rt = ServeRuntime::new(serve_cfg(2));
    let model_id = rt.register_model(model.clone(), cfg.clone());
    let meta = ModelMeta::of(&model);

    // The dropper connects, reads the KeyStatus preamble, and vanishes
    // mid-protocol.
    let dropper = rt.connect(0, model_id, 1);
    assert!(matches!(
        dropper.chan.recv(),
        Ok(Msg::KeyStatus { need_keys: false })
    ));
    drop(dropper.chan);
    assert!(matches!(
        dropper.handle.wait(),
        Err(ProtocolError::Channel(_))
    ));

    // Neighbours opened after the drop still complete.
    std::thread::scope(|scope| {
        for c in 1..3u64 {
            let (meta, cfg, rt, model) = (&meta, &cfg, &rt, &model);
            scope.spawn(move || {
                let conn = rt.connect(c, model_id, 1_000 + c);
                let input = random_input(model, 60 + c);
                let mut rng = rand::rngs::StdRng::seed_from_u64(88 + c);
                let (out, _) = ServiceClient::new()
                    .run(meta, &input, cfg, &conn.chan, &mut rng)
                    .expect("surviving client");
                assert_eq!(out, model.forward(&input));
                conn.handle.wait().expect("surviving server session");
            });
        }
    });
}

#[test]
fn misbehaving_client_gets_a_typed_error_not_a_panic() {
    let he = BfvParams::small_test();
    let model = build_model(&he, 11);
    let cfg = ProtocolConfig::clear(ProtocolKind::ServerGarbler);
    let rt = ServeRuntime::new(serve_cfg(1));
    let model_id = rt.register_model(model.clone(), cfg);

    let conn = rt.connect(0, model_id, 1);
    assert!(matches!(conn.chan.recv(), Ok(Msg::KeyStatus { .. })));
    // Clear mode expects a VecU64 offline input; send garbage labels.
    conn.chan.send(Msg::GcLabels(Vec::new())).unwrap();
    match conn.handle.wait() {
        Err(ProtocolError::UnexpectedMsg { expected, got }) => {
            assert_eq!(expected, "VecU64");
            assert_eq!(got, "GcLabels");
        }
        other => panic!("expected UnexpectedMsg, got {other:?}"),
    }
}

#[test]
fn key_table_eviction_forces_reupload_and_stays_correct() {
    let he = BfvParams::small_test();
    let model = build_model(&he, 11);
    let cfg = ProtocolConfig::client_garbler(he, 1);
    // A 1-byte budget: each key insert evicts the previous client's keys.
    let rt = ServeRuntime::new(ServeConfig {
        workers: 2,
        table_budget_bytes: 1,
        table_shards: 1,
        ..Default::default()
    });
    let model_id = rt.register_model(model.clone(), cfg.clone());
    let meta = ModelMeta::of(&model);

    let mut c0 = ServiceClient::new();
    let mut c1 = ServiceClient::new();
    let run = |c: u64, client: &mut ServiceClient, seed: u64| {
        let conn = rt.connect(c, model_id, seed);
        let input = random_input(&model, 70 + seed);
        let mut rng = rand::rngs::StdRng::seed_from_u64(99 + seed);
        let (out, c_out) = client
            .run(&meta, &input, &cfg, &conn.chan, &mut rng)
            .expect("client run");
        assert_eq!(out, model.forward(&input));
        conn.handle.wait().expect("server outcome");
        c_out
    };
    let first = run(0, &mut c0, 1);
    run(1, &mut c1, 2); // evicts client 0's keys
    let again = run(0, &mut c0, 3); // miss → re-upload of the retained set
    let stats = rt.key_table_stats();
    assert!(stats.evictions >= 1, "stats: {stats:?}");
    assert_eq!(stats.inserts, 3);
    // The re-upload really happened: the offline upload is key-sized both
    // times (no regeneration, but no skip either).
    assert!(again.offline_sent > first.offline_sent / 2);
}

#[test]
fn key_table_hit_skips_the_upload() {
    let he = BfvParams::small_test();
    let model = build_model(&he, 11);
    let cfg = ProtocolConfig::client_garbler(he, 1);
    let rt = ServeRuntime::new(serve_cfg(2));
    let model_id = rt.register_model(model.clone(), cfg.clone());
    let meta = ModelMeta::of(&model);

    let mut client = ServiceClient::new();
    let run = |seed: u64, client: &mut ServiceClient| {
        let conn = rt.connect(7, model_id, seed);
        let input = random_input(&model, 80 + seed);
        let mut rng = rand::rngs::StdRng::seed_from_u64(111 + seed);
        let (out, c_out) = client
            .run(&meta, &input, &cfg, &conn.chan, &mut rng)
            .expect("client run");
        assert_eq!(out, model.forward(&input));
        conn.handle.wait().expect("server outcome");
        c_out
    };
    let first = run(1, &mut client);
    assert!(client.has_keys());
    let second = run(2, &mut client);
    let stats = rt.key_table_stats();
    assert!(stats.hits >= 1, "stats: {stats:?}");
    assert_eq!(stats.inserts, 1);
    // Cached keys: the second request's upload drops by the key material.
    assert!(
        second.offline_sent < first.offline_sent / 2,
        "first={} second={}",
        first.offline_sent,
        second.offline_sent
    );
}

/// Recomputes a message's wire size from first principles: HE variants from
/// the lengths of the serialized frames they actually carry, everything
/// else from the analytic binary encoding. The `flat` half replays the
/// legacy flat-u64 baseline via [`pi_he::flat_frame_len`] — the `expect`
/// doubles as an assertion that every HE frame crossing the wire is one the
/// baseline scanner can parse.
fn relayed_len(m: &Msg) -> (u64, u64) {
    match m {
        Msg::HeKeys { pk, gk } => {
            let real = 8 + pk.len() + 8 + gk.len();
            let flat = 8
                + pi_he::flat_frame_len(pk).expect("relayed pk frame")
                + 8
                + pi_he::flat_frame_len(gk).expect("relayed gk frame");
            (real as u64, flat as u64)
        }
        Msg::HeCts(frames) => {
            let real = 8 + frames.iter().map(|f| 8 + f.len()).sum::<usize>();
            let flat = 8 + frames
                .iter()
                .map(|f| 8 + pi_he::flat_frame_len(f).expect("relayed ct frame"))
                .sum::<usize>();
            (real as u64, flat as u64)
        }
        other => (other.byte_len() as u64, other.flat_byte_len() as u64),
    }
}

/// Forwards messages from `from` to `to`, summing independently recomputed
/// (real, flat) sizes, until either side hangs up. `tamper` sees every
/// message first: it returns the message to forward, or `None` to stop
/// relaying.
fn relay(
    from: &pi_core::channel::Channel,
    to: &pi_core::channel::Channel,
    mut tamper: impl FnMut(Msg) -> Option<Msg>,
) -> (u64, u64) {
    let (mut real, mut flat) = (0u64, 0u64);
    while let Ok(m) = from.recv() {
        let Some(m) = tamper(m) else { break };
        let (r, f) = relayed_len(&m);
        real += r;
        flat += f;
        if to.send(m).is_err() {
            break;
        }
    }
    (real, flat)
}

/// The byte accounting is honest: a man-in-the-middle relay that re-measures
/// every message from the serialized frames it actually carries arrives at
/// exactly the numbers the channel atomics (and the `PartyOutcome` totals
/// built from them) report. Before the wire layer, the analytic counters
/// and the real frames could drift apart silently; now any divergence fails
/// here.
#[test]
fn channel_byte_atomics_match_relayed_frames() {
    let he = BfvParams::small_test();
    let model = build_model(&he, 11);
    let meta = ModelMeta::of(&model);
    for kind in [ProtocolKind::ClientGarbler, ProtocolKind::ServerGarbler] {
        let cfg = match kind {
            ProtocolKind::ClientGarbler => ProtocolConfig::client_garbler(he.clone(), 1),
            ProtocolKind::ServerGarbler => ProtocolConfig::server_garbler(he.clone()),
        };
        let pre = pi_core::ServerPrecomp::new(&model, &cfg);
        let input = random_input(&model, 99);
        let (c_chan, c_peer) = pi_core::channel::local_pair();
        let (s_peer, s_chan) = pi_core::channel::local_pair();
        let (up, down, client_side, server_side) = std::thread::scope(|scope| {
            let up = scope.spawn(|| relay(&c_peer, &s_peer, Some));
            let down = scope.spawn(|| relay(&s_peer, &c_peer, Some));
            // The driver threads own their channel ends: dropping them on
            // completion is what unblocks the relays' `recv` loops.
            let client = scope.spawn({
                let (meta, input, cfg) = (&meta, &input, &cfg);
                move || {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
                    let (out, c_out) = match kind {
                        ProtocolKind::ClientGarbler => {
                            pi_core::client_garbler::run_client(meta, input, cfg, &c_chan, &mut rng)
                        }
                        ProtocolKind::ServerGarbler => {
                            pi_core::server_garbler::run_client(meta, input, cfg, &c_chan, &mut rng)
                        }
                    };
                    let sent = (c_chan.bytes_sent(), c_chan.bytes_sent_flat());
                    (out, c_out, sent)
                }
            });
            let server = scope.spawn({
                let (model, pre, cfg) = (&model, &pre, &cfg);
                move || {
                    let rng = rand::rngs::StdRng::seed_from_u64(6);
                    let s_out = match kind {
                        ProtocolKind::ClientGarbler => {
                            pi_core::client_garbler::run_server(model, pre, cfg, &s_chan, rng)
                        }
                        ProtocolKind::ServerGarbler => {
                            pi_core::server_garbler::run_server(model, pre, cfg, &s_chan, rng)
                        }
                    };
                    let sent = (s_chan.bytes_sent(), s_chan.bytes_sent_flat());
                    (s_out, sent)
                }
            });
            let client_side = client.join().expect("client thread");
            let server_side = server.join().expect("server thread");
            (
                up.join().expect("up relay"),
                down.join().expect("down relay"),
                client_side,
                server_side,
            )
        });
        let (out, c_out, (c_sent, c_sent_flat)) = client_side;
        let (s_out, (s_sent, s_sent_flat)) = server_side;
        assert_eq!(out, model.forward(&input), "{kind:?} output");

        // Channel atomics == relay-recomputed serialized sums, per direction.
        assert_eq!((c_sent, c_sent_flat), up, "{kind:?} upload accounting");
        assert_eq!((s_sent, s_sent_flat), down, "{kind:?} download accounting");
        // PartyOutcome totals are built from the same atomics.
        assert_eq!(c_out.total_sent, c_sent, "{kind:?} client outcome total");
        assert_eq!(s_out.total_sent, s_sent, "{kind:?} server outcome total");
        assert_eq!(c_out.total_sent_flat, c_sent_flat);
        assert_eq!(s_out.total_sent_flat, s_sent_flat);
        // HE frames genuinely shrank relative to the flat baseline.
        assert!(
            c_sent_flat > c_sent,
            "{kind:?} upload flat={c_sent_flat} real={c_sent}"
        );
        assert!(
            s_sent_flat > s_sent,
            "{kind:?} download flat={s_sent_flat} real={s_sent}"
        );
    }
}

/// A peer's OT message with the wrong shape is the peer's fault: the
/// server rejects it with a typed error instead of letting the OT layer's
/// shape asserts panic a worker, and the runtime keeps serving. A relay
/// between a real client and the runtime drops one `u` column from the
/// client's first `OtExtend`.
#[test]
fn malformed_ot_extend_is_rejected_and_the_server_keeps_serving() {
    let he = BfvParams::small_test();
    let model = build_model(&he, 11);
    let meta = ModelMeta::of(&model);
    let cfg = ProtocolConfig::clear(ProtocolKind::ServerGarbler);
    let rt = ServeRuntime::new(serve_cfg(2));
    let model_id = rt.register_model(model.clone(), cfg.clone());

    let conn = rt.connect(0, model_id, 1);
    let (c_chan, c_peer) = pi_core::channel::local_pair();
    // Both relays share the client-facing end; once both stop, it drops
    // and the client sees the disconnect instead of waiting forever.
    let c_peer = std::sync::Arc::new(c_peer);
    let client_res = std::thread::scope(|scope| {
        let (up_peer, down_peer, server) = (c_peer.clone(), c_peer.clone(), &conn.chan);
        scope.spawn(move || {
            relay(&up_peer, server, |m| match m {
                Msg::OtExtend(mut e) => {
                    e.u_columns.pop();
                    // Forward the corrupted message, then stop.
                    let _ = server.send(Msg::OtExtend(e));
                    None
                }
                other => Some(other),
            })
        });
        scope.spawn(move || relay(server, &down_peer, Some));
        drop(c_peer);
        let client = scope.spawn(|| {
            let input = random_input(&model, 5);
            let mut rng = rand::rngs::StdRng::seed_from_u64(6);
            ServiceClient::new().run(&meta, &input, &cfg, &c_chan, &mut rng)
        });
        client.join().expect("client thread")
    });
    assert!(
        client_res.is_err(),
        "client finished against a dead session"
    );
    match conn.handle.wait() {
        Err(ProtocolError::BadRequest(what)) => assert_eq!(what, "OT message shape"),
        other => panic!("expected BadRequest, got {other:?}"),
    }

    // The runtime survived: a well-behaved client still gets the right
    // answer.
    let conn = rt.connect(1, model_id, 2);
    let input = random_input(&model, 7);
    let mut rng = rand::rngs::StdRng::seed_from_u64(8);
    let (out, _) = ServiceClient::new()
        .run(&meta, &input, &cfg, &conn.chan, &mut rng)
        .expect("client after the rejected session");
    assert_eq!(out, model.forward(&input));
    conn.handle
        .wait()
        .expect("server after the rejected session");
}

/// A final output share one element short must fail the client, not
/// yield a silently shorter output. In HE mode the server's only `VecU64`
/// is that final share, so the relay truncates every one it sees.
#[test]
fn truncated_final_share_is_an_error_not_a_short_output() {
    let he = BfvParams::small_test();
    let model = build_model(&he, 11);
    let meta = ModelMeta::of(&model);
    let input = random_input(&model, 99);
    for kind in [ProtocolKind::ClientGarbler, ProtocolKind::ServerGarbler] {
        let cfg = match kind {
            ProtocolKind::ClientGarbler => ProtocolConfig::client_garbler(he.clone(), 1),
            ProtocolKind::ServerGarbler => ProtocolConfig::server_garbler(he.clone()),
        };
        let pre = pi_core::ServerPrecomp::new(&model, &cfg);
        let (c_chan, c_peer) = pi_core::channel::local_pair();
        let (s_peer, s_chan) = pi_core::channel::local_pair();
        let client_res = std::thread::scope(|scope| {
            scope.spawn(|| relay(&c_peer, &s_peer, Some));
            scope.spawn(|| {
                relay(&s_peer, &c_peer, |m| match m {
                    Msg::VecU64(mut v) => {
                        v.pop();
                        Some(Msg::VecU64(v))
                    }
                    other => Some(other),
                })
            });
            scope.spawn({
                let (model, pre, cfg) = (&model, &pre, &cfg);
                move || {
                    let rng = rand::rngs::StdRng::seed_from_u64(6);
                    match kind {
                        ProtocolKind::ClientGarbler => {
                            pi_core::client_garbler::try_run_server(model, pre, cfg, &s_chan, rng)
                        }
                        ProtocolKind::ServerGarbler => {
                            pi_core::server_garbler::try_run_server(model, pre, cfg, &s_chan, rng)
                        }
                    }
                }
            });
            let client = scope.spawn({
                let (meta, input, cfg) = (&meta, &input, &cfg);
                move || {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
                    match kind {
                        ProtocolKind::ClientGarbler => pi_core::client_garbler::try_run_client(
                            meta, input, cfg, &c_chan, &mut rng,
                        ),
                        ProtocolKind::ServerGarbler => pi_core::server_garbler::try_run_client(
                            meta, input, cfg, &c_chan, &mut rng,
                        ),
                    }
                }
            });
            client.join().expect("client thread")
        });
        match client_res {
            Err(ProtocolError::BadRequest(what)) => {
                assert_eq!(what, "final output share length", "{kind:?}")
            }
            Err(e) => panic!("{kind:?}: expected BadRequest, got {e:?}"),
            Ok((out, _)) => panic!(
                "{kind:?}: truncated share returned Ok ({} outputs)",
                out.len()
            ),
        }
    }
}
