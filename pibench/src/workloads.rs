//! The three end-to-end workloads, driven through the public serving API
//! (`ServeRuntime` + `ServiceClient`) with every output checked against
//! `PiModel::forward`.

use crate::harness::{
    self, ms_since, poisson_schedule, quasi_uniform, skewed_pick, verdict, Tail, Verdict,
};
use pi_core::{
    ModelMeta, PartyOutcome, ProtocolConfig, ServeConfig, ServeRuntime, ServiceClient, TableStats,
};
use pi_he::BfvParams;
use pi_nn::spec::{NetSpec, SpecOp};
use pi_nn::{zoo, FixedConfig, Network, PiModel, QuantNetwork};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Serving worker threads, pinned so results never depend on `PI_WORKERS`.
pub const WORKERS: usize = 2;

/// Fixed-point fractional bits of every benchmark model.
const FRAC_BITS: u32 = 5;

/// Model weights are part of the served system, not of the workload
/// input, so they come from a constant seed.
const WEIGHT_SEED: u64 = 0x5eed;

/// Independent set-ups per run; `setup_s` is their median. A cheap
/// set-up repeats until [`SETUP_MIN_S`] has passed, up to
/// [`SETUP_MAX_REPS`] times.
pub const SETUP_MIN_REPS: usize = 3;
/// See [`SETUP_MIN_REPS`].
pub const SETUP_MAX_REPS: usize = 15;
/// See [`SETUP_MIN_REPS`].
pub const SETUP_MIN_S: f64 = 1.0;

/// Open-arrivals: the fixed rate ladder in requests per second, in the
/// order the rates run: near, under and over the measured capacity of
/// tiny-cnn on two workers (about 1.5/s). The pool's clients join during
/// the first rate (key generation and first upload), as they would when a
/// service opens.
pub const LADDER_RPS: [f64; 3] = [1.0, 0.5, 4.0];

/// Index of the rate near capacity in [`LADDER_RPS`]; it carries the
/// reported latency.
pub const NEAR: usize = 0;

/// Index of the rate over capacity in [`LADDER_RPS`]; it carries the
/// reported throughput.
pub const OVER: usize = 2;

/// Open-arrivals: share of the run each rate gets.
const LADDER_SHARE: [f64; 3] = [0.35, 0.4, 0.25];

/// Open-arrivals: latency limit on `latency_tail_ms` at each rate.
pub const LATENCY_LIMIT_MS: f64 = 4_000.0;

/// Open-arrivals: size of the client-id pool.
pub const CLIENT_POOL: usize = 8;

/// Open-arrivals: key-table budget. It holds six tiny-cnn key sets of
/// today's size (31 MiB each in the table), so with eight clients hits,
/// re-uploads and evictions all occur while most requests hit; it is fixed
/// in bytes so that smaller keys show as more hits.
pub const KEY_TABLE_BUDGET: u64 = 192 << 20;

/// The workloads by name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// tiny-resnet, client-garbler, a fresh client and id per request.
    ColdStart,
    /// 3×512 MLP, server-garbler, one warm client.
    WarmRepeat,
    /// tiny-cnn, client-garbler, Poisson arrivals on a rate ladder.
    OpenArrivals,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "cold-start" => Some(Self::ColdStart),
            "warm-repeat" => Some(Self::WarmRepeat),
            "open-arrivals" => Some(Self::OpenArrivals),
            _ => None,
        }
    }

    fn spec(self) -> NetSpec {
        match self {
            Self::ColdStart => zoo::tiny_resnet(),
            Self::WarmRepeat => mlp_3x512(),
            Self::OpenArrivals => zoo::tiny_cnn(),
        }
    }

    fn protocol(self, he: BfvParams) -> ProtocolConfig {
        match self {
            Self::WarmRepeat => ProtocolConfig::server_garbler(he),
            Self::ColdStart | Self::OpenArrivals => ProtocolConfig::client_garbler(he, 1),
        }
    }

    fn serve_config(self) -> ServeConfig {
        let base = ServeConfig {
            workers: WORKERS,
            ..ServeConfig::default()
        };
        match self {
            // One shard, so the budget is one LRU over all eight clients
            // rather than eight per-shard slices.
            Self::OpenArrivals => ServeConfig {
                table_budget_bytes: KEY_TABLE_BUDGET,
                table_shards: 1,
                ..base
            },
            Self::ColdStart | Self::WarmRepeat => base,
        }
    }
}

/// `[1,16,16]` → Flatten → 3×(Linear 512, ReLU) → Linear 10.
pub fn mlp_3x512() -> NetSpec {
    let mut ops = vec![SpecOp::Flatten];
    for _ in 0..3 {
        ops.push(SpecOp::Linear { out: 512 });
        ops.push(SpecOp::Relu);
    }
    ops.push(SpecOp::Linear { out: 10 });
    NetSpec {
        name: "mlp-3x512".into(),
        input: [1, 16, 16],
        ops,
    }
}

/// A fixed-point input with `|x| < 1`, drawn from `rng`.
pub fn random_input(model: &PiModel, rng: &mut StdRng) -> Vec<u64> {
    let f = 1i64 << model.f;
    (0..model.input_len)
        .map(|_| model.p.from_signed(rng.gen_range(-f..=f)))
        .collect()
}

/// One served model: the runtime, its registration and the client's view.
pub struct Served {
    /// The running server.
    pub rt: ServeRuntime,
    /// Registered model id.
    pub model_id: usize,
    /// The plaintext model (the reference the outputs are checked against).
    pub model: PiModel,
    /// The client's structural view of the model.
    pub meta: ModelMeta,
    /// Protocol configuration.
    pub cfg: ProtocolConfig,
    /// Clients that keep their keys across requests, by client id (one
    /// for warm-repeat, the pool for open-arrivals, none for cold-start).
    pub clients: Vec<Option<ServiceClient>>,
}

/// Builds the model of `w` under `BfvParams::default_pi()`.
pub fn build_model(w: Workload) -> (PiModel, ProtocolConfig) {
    let he = BfvParams::default_pi();
    let fx = FixedConfig {
        p: he.t(),
        f: FRAC_BITS,
    };
    let mut rng = StdRng::seed_from_u64(WEIGHT_SEED);
    let net = Network::materialize(&w.spec(), &mut rng);
    (
        PiModel::lower(&QuantNetwork::quantize(&net, fx)),
        w.protocol(he),
    )
}

/// Everything before the first timed request: runtime start, model
/// registration, the server's per-model precomputation and (warm-repeat)
/// the untimed warm-up request. Returns the served model and the set-up
/// time in seconds.
pub fn setup(w: Workload, seed: u64) -> (Served, f64) {
    let t0 = Instant::now();
    let (model, cfg) = build_model(w);
    let rt = ServeRuntime::new(w.serve_config());
    let model_id = rt.register_model(model.clone(), cfg.clone());
    let meta = ModelMeta::of(&model);
    let mut served = Served {
        rt,
        model_id,
        model,
        meta,
        cfg,
        clients: Vec::new(),
    };
    match w {
        Workload::WarmRepeat => {
            let mut client = ServiceClient::new();
            let mut rng = StdRng::seed_from_u64(seed ^ 0x3a3a);
            let input = random_input(&served.model, &mut rng);
            let expected = served.model.forward(&input);
            let r = request(
                &served,
                &mut client,
                0,
                (&input, &expected),
                rng.gen(),
                Instant::now(),
            );
            assert_eq!(r.verdict, Verdict::Ok, "warm-up request failed");
            served.clients = vec![Some(client)];
        }
        Workload::ColdStart | Workload::OpenArrivals => {
            if w == Workload::OpenArrivals {
                served.clients = (0..CLIENT_POOL).map(|_| None).collect();
            }
            // The runtime builds the precomputation on the first connect;
            // open a session and hang up so that happens here, untimed by
            // the requests.
            let conn = served.rt.connect(u64::MAX, model_id, 0);
            drop(conn.chan);
            assert!(conn.handle.wait().is_err(), "hung-up session must abort");
        }
    }
    (served, t0.elapsed().as_secs_f64())
}

/// One request's record.
pub struct Req {
    /// How it ended.
    pub verdict: Verdict,
    /// From due (open loop) or sent (closed loop) to a verified output.
    pub latency_ms: f64,
    /// From the client's `run` returning to `SessionHandle::wait`
    /// returning.
    pub server_tail_ms: f64,
    /// How late the request was sent relative to its due time.
    pub lag_ms: f64,
    /// Client and server outcomes of a completed request.
    pub outcomes: Option<(PartyOutcome, PartyOutcome)>,
    /// When the client held its verified output.
    pub done: Instant,
}

/// Runs one request for `client_id` on `input` and checks its output
/// against `expected`. `due` is the time latency is measured from.
pub fn request(
    s: &Served,
    client: &mut ServiceClient,
    client_id: u64,
    (input, expected): (&[u64], &[u64]),
    rng_seed: u64,
    due: Instant,
) -> Req {
    let lag_ms = ms_since(due);
    let conn = s.rt.connect(client_id, s.model_id, rng_seed ^ 0x5e5e);
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let res = client.run(&s.meta, input, &s.cfg, &conn.chan, &mut rng);
    let ran = Instant::now();
    let mut v = verdict(res.as_ref().ok().map(|(out, _)| out.as_slice()), expected);
    let done = Instant::now();
    let latency_ms = (done - due).as_secs_f64() * 1e3;
    // Hang up first: a client that failed mid-protocol would otherwise
    // leave its server session waiting for the next message.
    drop(conn.chan);
    let server = conn.handle.wait();
    let server_tail_ms = ms_since(ran);
    let outcomes = match (res, server) {
        (Ok((_, c)), Ok(srv)) => Some((c, srv)),
        _ => {
            // A refused or aborted server session fails the request even
            // when the client finished.
            if v == Verdict::Ok {
                v = Verdict::Error;
            }
            None
        }
    };
    Req {
        verdict: v,
        latency_ms,
        server_tail_ms,
        lag_ms,
        outcomes,
        done,
    }
}

/// One measured phase: a closed loop, or one rate of the open loop.
pub struct Phase {
    /// Offered rate (open loop only).
    pub rate: Option<f64>,
    /// Requests due in the phase (open loop) or sent (closed loop).
    pub due: usize,
    /// Every request sent.
    pub reqs: Vec<Req>,
    /// Wall time from the phase start to its last completion.
    pub span_s: f64,
}

impl Phase {
    /// Requests sent.
    pub fn sent(&self) -> usize {
        self.reqs.len()
    }

    /// Requests sent whose output verified.
    pub fn ok(&self) -> usize {
        self.reqs
            .iter()
            .filter(|r| r.verdict == Verdict::Ok)
            .count()
    }

    /// Requests due but never sent.
    pub fn unsent(&self) -> usize {
        self.due - self.sent()
    }

    /// Latencies of the verified requests.
    pub fn ok_latencies(&self) -> Vec<f64> {
        self.reqs
            .iter()
            .filter(|r| r.verdict == Verdict::Ok)
            .map(|r| r.latency_ms)
            .collect()
    }

    /// The tail over every request sent, a failed one counting as missing
    /// any limit.
    pub fn tail_with_failures(&self) -> Tail {
        let l: Vec<f64> = self
            .reqs
            .iter()
            .map(|r| match r.verdict {
                Verdict::Ok => r.latency_ms,
                _ => f64::INFINITY,
            })
            .collect();
        harness::tail(&l)
    }

    /// Whether the phase met the latency limit without a growing backlog:
    /// every request due was sent, and the tail is within the limit.
    pub fn meets_limit(&self) -> bool {
        !self.reqs.is_empty()
            && self.unsent() == 0
            && self.tail_with_failures().value <= LATENCY_LIMIT_MS
    }

    /// Verified completions per second, between the first and the last
    /// completion (so the ramp from idle does not count), or over the
    /// whole phase when fewer than two completed.
    pub fn throughput_rps(&self) -> f64 {
        let done: Vec<Instant> = self
            .reqs
            .iter()
            .filter(|r| r.verdict == Verdict::Ok)
            .map(|r| r.done)
            .collect();
        match (done.iter().min(), done.iter().max()) {
            (Some(&first), Some(&last)) if done.len() >= 2 && last > first => {
                (done.len() - 1) as f64 / (last - first).as_secs_f64()
            }
            _ => done.len() as f64 / self.span_s,
        }
    }
}

/// The measured part of a run.
pub struct Measured {
    /// Phases in order (one for the closed loops, one per rate otherwise).
    pub phases: Vec<Phase>,
    /// Process CPU-seconds over the measured phases.
    pub cpu_s: f64,
    /// Key-table counters over the measured phases.
    pub keys: TableStats,
    /// Key-table residency at the end, in bytes.
    pub key_table_bytes: u64,
}

/// A seed for each request, derived from the run seed.
fn req_seed(seed: u64, phase: usize, i: usize) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ ((phase as u64) << 40) ^ i as u64
}

/// Runs the measured part of `w` for about `seconds`.
pub fn measure(w: Workload, s: &mut Served, seed: u64, seconds: f64) -> Measured {
    let keys0 = s.rt.key_table_stats();
    let cpu0 = harness::cpu_s();
    let phases = match w {
        Workload::ColdStart | Workload::WarmRepeat => vec![closed_loop(s, seed, seconds)],
        Workload::OpenArrivals => LADDER_RPS
            .iter()
            .zip(LADDER_SHARE)
            .enumerate()
            .map(|(k, (&rate, share))| {
                open_loop(s, seed, k, rate, Duration::from_secs_f64(seconds * share))
            })
            .collect(),
    };
    let keys1 = s.rt.key_table_stats();
    Measured {
        phases,
        cpu_s: harness::cpu_s() - cpu0,
        keys: TableStats {
            hits: keys1.hits - keys0.hits,
            misses: keys1.misses - keys0.misses,
            inserts: keys1.inserts - keys0.inserts,
            evictions: keys1.evictions - keys0.evictions,
        },
        key_table_bytes: s.rt.key_table_bytes(),
    }
}

/// One request in flight at a time; the next is sent when the previous
/// completes. Cold-start uses a fresh client and id per request.
fn closed_loop(s: &mut Served, seed: u64, seconds: f64) -> Phase {
    let mut rng = StdRng::seed_from_u64(seed);
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let mut reqs = Vec::new();
    let mut warm = s.clients.first_mut().and_then(Option::take);
    while reqs.is_empty() || Instant::now() < deadline {
        let input = random_input(&s.model, &mut rng);
        let expected = s.model.forward(&input);
        let i = reqs.len();
        let (id, mut fresh) = (1_000_000 + i as u64, ServiceClient::new());
        let (id, client) = match warm.as_mut() {
            Some(client) => (0, client),
            None => (id, &mut fresh),
        };
        let job = (input.as_slice(), expected.as_slice());
        reqs.push(request(
            s,
            client,
            id,
            job,
            req_seed(seed, 0, i),
            Instant::now(),
        ));
    }
    if let Some(slot) = s.clients.first_mut() {
        *slot = warm;
    }
    let span_s = (reqs.last().expect("at least one request").done - t0).as_secs_f64();
    Phase {
        rate: None,
        due: reqs.len(),
        reqs,
        span_s,
    }
}

/// Shared state of the open-loop generator threads.
struct Gen {
    next: usize,
    busy: Vec<bool>,
    clients: Vec<Option<ServiceClient>>,
    picks: usize,
    input_rng: StdRng,
}

/// Poisson arrivals at `rate` for `window`, from at most `WORKERS`
/// generator threads (the host's two vCPUs). A request due but not sent
/// within the latency limit after the window ends is left unsent: that is
/// a growing backlog.
fn open_loop(s: &mut Served, seed: u64, k: usize, rate: f64, window: Duration) -> Phase {
    let sched = poisson_schedule(seed ^ ((k as u64) << 32), rate, window);
    let weights: Vec<f64> = (0..CLIENT_POOL).map(|i| 1.0 / (i + 1) as f64).collect();
    let u0 = StdRng::seed_from_u64(seed ^ 0xc11e ^ k as u64).gen::<f64>();
    let clients = std::mem::take(&mut s.clients);
    let gen = std::sync::Mutex::new(Gen {
        next: 0,
        busy: vec![false; CLIENT_POOL],
        clients,
        picks: 0,
        input_rng: StdRng::seed_from_u64(seed ^ 0x1a9u64 ^ k as u64),
    });
    let start = Instant::now();
    let cutoff = start + window + Duration::from_secs_f64(LATENCY_LIMIT_MS / 1e3);
    let served = &*s;
    let reqs: Vec<Req> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..WORKERS)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let (i, due) = {
                            let mut g = gen.lock().expect("generator lock");
                            if g.next >= sched.len() {
                                break;
                            }
                            g.next += 1;
                            (g.next - 1, start + sched[g.next - 1])
                        };
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        if Instant::now() > cutoff {
                            break;
                        }
                        let (id, mut client, input) = {
                            let mut g = gen.lock().expect("generator lock");
                            let Gen {
                                busy,
                                picks,
                                clients,
                                input_rng,
                                ..
                            } = &mut *g;
                            let id = skewed_pick(quasi_uniform(u0, *picks), &weights, busy)
                                .expect("more client ids than generator threads");
                            *picks += 1;
                            busy[id] = true;
                            let client = clients[id].take().unwrap_or_default();
                            (id, client, random_input(&served.model, input_rng))
                        };
                        let expected = served.model.forward(&input);
                        let r = request(
                            served,
                            &mut client,
                            id as u64,
                            (&input, &expected),
                            req_seed(seed, k + 1, i),
                            due,
                        );
                        let mut g = gen.lock().expect("generator lock");
                        g.busy[id] = false;
                        g.clients[id] = Some(client);
                        mine.push(r);
                    }
                    mine
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|h| h.join().expect("generator thread"))
            .collect()
    });
    s.clients = gen.into_inner().expect("generator lock").clients;
    let last = reqs.iter().map(|r| r.done).max().unwrap_or(start);
    Phase {
        rate: Some(rate),
        due: sched.len(),
        reqs,
        span_s: (last - start).as_secs_f64().max(window.as_secs_f64()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(verdict: Verdict, latency_ms: f64) -> Req {
        Req {
            verdict,
            latency_ms,
            server_tail_ms: 0.0,
            lag_ms: 0.0,
            outcomes: None,
            done: Instant::now(),
        }
    }

    fn phase(reqs: Vec<Req>) -> Phase {
        Phase {
            rate: Some(1.0),
            due: reqs.len(),
            reqs,
            span_s: 10.0,
        }
    }

    #[test]
    fn a_wrong_output_is_a_failure_and_misses_the_limit() {
        let mut reqs: Vec<Req> = (0..20)
            .map(|i| req(Verdict::Ok, 100.0 + f64::from(i)))
            .collect();
        reqs[19].verdict = Verdict::Wrong;
        let p = phase(reqs);
        assert_eq!((p.sent(), p.ok()), (20, 19));
        assert!(!p.ok_latencies().contains(&119.0));
        // Most requests fail: the median request misses the limit.
        let reqs = (0..20)
            .map(|i| {
                let v = if i < 11 { Verdict::Wrong } else { Verdict::Ok };
                req(v, 100.0)
            })
            .collect();
        let p = phase(reqs);
        assert_eq!(p.tail_with_failures().value, f64::INFINITY);
        assert!(!p.meets_limit());
    }

    #[test]
    fn an_unsent_request_is_a_growing_backlog() {
        let mut p = phase((0..20).map(|_| req(Verdict::Ok, 100.0)).collect());
        assert!(p.meets_limit());
        p.due += 1;
        assert!(!p.meets_limit());
    }
}
