//! End-to-end private-inference benchmark.
//!
//! ```text
//! cargo run --release --manifest-path pibench/Cargo.toml -- \
//!     --workload <cold-start|warm-repeat|open-arrivals> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with `pi_trace` forced off;
//! `--trace 1` reruns the workload briefly for its shapes and serving
//! counters, then replays one request per iteration through each layer's
//! public functions under the benchmark's own spans. The last line of
//! standard output is the JSON result.

mod harness;
mod replay;
mod workloads;

use harness::{median, ms_since, Metric, Spans, Verdict};
use pi_trace::TraceMode;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use workloads::{
    Measured, Workload, LATENCY_LIMIT_MS, NEAR, OVER, SETUP_MAX_REPS, SETUP_MIN_REPS, SETUP_MIN_S,
    WORKERS,
};

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = get("--workload")?.to_string();
    let workload = Workload::parse(&name).ok_or(format!("unknown workload {name}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        name,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pibench: {e}");
            eprintln!(
                "usage: pibench --workload <cold-start|warm-repeat|open-arrivals> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    // The end-to-end numbers are taken with the program's own spans off;
    // the traced run uses counters only, for the wire message count.
    pi_trace::force_mode(Some(if args.trace {
        TraceMode::Counters
    } else {
        TraceMode::Off
    }));
    println!(
        "env: nproc={} simd={} aes={} workers={WORKERS} pi_trace={} workload={} seed={} seconds={}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        pi_field::simd::backend().name(),
        pi_gc::aes::backend().name(),
        pi_trace::mode().name(),
        args.name,
        args.seed,
        args.seconds,
    );
    let line = if args.trace {
        traced(&args)
    } else {
        end_to_end(&args)
    };
    match line {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("pibench: {e}");
            std::process::exit(1);
        }
    }
}

/// Per-phase report lines: requests sent, succeeded and failed per rate.
fn print_phases(m: &Measured) {
    println!(
        "key table: hits={} misses={} inserts={} evictions={} resident={:.1}MiB",
        m.keys.hits,
        m.keys.misses,
        m.keys.inserts,
        m.keys.evictions,
        m.key_table_bytes as f64 / f64::from(1u32 << 20)
    );
    for ph in &m.phases {
        let lat = ph.ok_latencies();
        let t = ph.tail_with_failures();
        let lags: Vec<f64> = ph.reqs.iter().map(|r| r.lag_ms).collect();
        println!(
            "phase rate={} due={} sent={} ok={} failed={} unsent={} p50={:.1}ms tail=p{}:{:.1}ms({} beyond) lag_p50={:.2}ms thr={:.3}/s meets_limit={}",
            ph.rate.map_or("closed".into(), |r| format!("{r}/s")),
            ph.due,
            ph.sent(),
            ph.ok(),
            ph.sent() - ph.ok(),
            ph.unsent(),
            median(&lat),
            t.pct,
            t.value,
            t.beyond,
            median(&lags),
            ph.throughput_rps(),
            ph.meets_limit(),
        );
    }
}

fn end_to_end(a: &Args) -> Result<String, String> {
    let mut setup_times: Vec<f64> = Vec::new();
    let mut served = None;
    while setup_times.len() < SETUP_MIN_REPS
        || (setup_times.len() < SETUP_MAX_REPS && setup_times.iter().sum::<f64>() < SETUP_MIN_S)
    {
        // Drop the previous set-up first, so only one runtime is alive.
        drop(served.take());
        let (s, t) = workloads::setup(a.workload, a.seed);
        setup_times.push(t);
        served = Some(s);
    }
    let mut served = served.expect("at least one set-up");
    println!("setup_s reps: {setup_times:?}");
    let m = workloads::measure(a.workload, &mut served, a.seed, a.seconds);
    print_phases(&m);

    let all: Vec<&workloads::Req> = m.phases.iter().flat_map(|p| &p.reqs).collect();
    let attempted = all.len() as u64;
    let ok = all.iter().filter(|r| r.verdict == Verdict::Ok).count() as u64;
    let wrong = all.iter().filter(|r| r.verdict == Verdict::Wrong).count();
    if ok == 0 {
        return Err(format!("no request of {attempted} verified"));
    }
    // Byte metrics are per-request medians: the typical request. The key
    // upload a cache miss adds shows in the mean, printed below, and in
    // the traced run's `serve.key_hit_ratio`.
    let outcomes: Vec<_> = all.iter().filter_map(|r| r.outcomes.as_ref()).collect();
    let per_req = |f: &dyn Fn(&(pi_core::PartyOutcome, pi_core::PartyOutcome)) -> u64| {
        outcomes.iter().map(|o| f(o) as f64).collect::<Vec<f64>>()
    };
    let uploads = per_req(&|(c, _)| c.total_sent);
    println!(
        "upload bytes per request: median {:.0}, mean {:.0}",
        median(&uploads),
        uploads.iter().sum::<f64>() / uploads.len() as f64
    );
    // Closed loops report their one phase; open-arrivals reports latency
    // at the rate near capacity and throughput at the top rate.
    let (lat_phase, thr_phase) = match a.workload {
        Workload::OpenArrivals => (&m.phases[NEAR], &m.phases[OVER]),
        _ => (&m.phases[0], &m.phases[0]),
    };
    if a.workload == Workload::OpenArrivals {
        let max_rate = m
            .phases
            .iter()
            .filter(|p| p.meets_limit())
            .filter_map(|p| p.rate)
            .fold(0.0, f64::max);
        println!(
            "max_rate_rps {max_rate} (limit {LATENCY_LIMIT_MS} ms on the tail, no unsent request)"
        );
    }
    let tail = lat_phase.tail_with_failures();
    if !tail.value.is_finite() {
        return Err("failed requests reach the reported tail".into());
    }
    println!(
        "latency_tail_ms is p{} over {} requests ({} beyond it)",
        tail.pct,
        lat_phase.sent(),
        tail.beyond
    );
    let metrics = [
        Metric {
            name: "latency_p50_ms",
            value: median(&lat_phase.ok_latencies()),
            unit: "ms",
        },
        Metric {
            name: "latency_tail_ms",
            value: tail.value,
            unit: "ms",
        },
        Metric {
            name: "throughput_rps",
            value: thr_phase.throughput_rps(),
            unit: "1/s",
        },
        Metric {
            name: "ok_frac",
            value: ok as f64 / attempted as f64,
            unit: "ratio",
        },
        Metric {
            name: "upload_bytes_per_req",
            value: median(&uploads),
            unit: "B",
        },
        Metric {
            name: "download_bytes_per_req",
            value: median(&per_req(&|(_, s)| s.total_sent)),
            unit: "B",
        },
        Metric {
            name: "client_storage_bytes",
            value: median(&per_req(&|(c, _)| c.storage_bytes)),
            unit: "B",
        },
        Metric {
            name: "cpu_s_per_req",
            value: m.cpu_s / ok as f64,
            unit: "s",
        },
        Metric {
            name: "peak_rss_mb",
            value: harness::peak_rss_mb(),
            unit: "MB",
        },
        Metric {
            name: "setup_s",
            value: median(&setup_times),
            unit: "s",
        },
    ];
    for mt in &metrics {
        println!("metric {:<24} {:>16.4} {}", mt.name, mt.value, mt.unit);
    }
    Ok(harness::result_json(
        wrong == 0,
        attempted,
        attempted - ok,
        &metrics,
    ))
}

fn traced(a: &Args) -> Result<String, String> {
    let (mut served, _) = workloads::setup(a.workload, a.seed);
    let t0 = Instant::now();
    let msgs0 = pi_trace::global_report().counter("wire.msgs").unwrap_or(0);
    let m = workloads::measure(a.workload, &mut served, a.seed, a.seconds / 2.0);
    let msgs = pi_trace::global_report().counter("wire.msgs").unwrap_or(0) - msgs0;
    print_phases(&m);
    let reqs: Vec<&workloads::Req> = m.phases.iter().flat_map(|p| &p.reqs).collect();
    let done: Vec<_> = reqs.iter().filter_map(|r| r.outcomes.as_ref()).collect();
    if done.is_empty() {
        return Err("no request completed in the traced pass".into());
    }
    let per_req = |v: u64| v as f64 / done.len() as f64;
    let med = |f: &dyn Fn(&(pi_core::PartyOutcome, pi_core::PartyOutcome)) -> u64| {
        median(&done.iter().map(|o| f(o) as f64).collect::<Vec<_>>())
    };
    let ok_lat: Vec<f64> = reqs
        .iter()
        .filter(|r| r.verdict == Verdict::Ok)
        .map(|r| r.latency_ms)
        .collect();
    let latency_p50 = median(&ok_lat);

    // Replay the request shape until the run's time is used, at least
    // once.
    pi_trace::force_mode(Some(TraceMode::Off));
    let params = served.cfg.he_params.clone().expect("HE parameters");
    let shape = replay::Shape {
        model: &served.model,
        meta: &served.meta,
        ot_count: done[0].0.ot_count.max(done[0].1.ot_count) as usize,
    };
    let mut spans = Spans::new();
    let mut rng = StdRng::seed_from_u64(a.seed ^ 0x7e91a4);
    let mut counts = None;
    let deadline = a.seconds * 1e3;
    while counts.is_none() || ms_since(t0) < deadline {
        counts = Some(replay::replay_request(
            &params, &shape, &mut spans, &mut rng,
        )?);
        spans.req += 1;
    }
    let counts = counts.expect("one replay");
    print!("{}", spans.summary());

    // Layers on every request's path; keygen only where each request
    // brings a fresh client.
    let mut path = vec![
        "he.encrypt",
        "he.matvec",
        "he.decrypt",
        "ot.base",
        "ot.iknp",
        "gc.garble",
        "gc.eval",
    ];
    if a.workload == Workload::ColdStart {
        path.push("he.keygen");
    }
    let per_span = spans.per_request_ms();
    let sums: Vec<f64> = (0..spans.req)
        .map(|i| {
            path.iter()
                .map(|n| per_span.get(n).map_or(0.0, |v| v[i]))
                .sum()
        })
        .collect();
    let layer_sum = median(&sums);
    println!(
        "layer_sum_ms {layer_sum:.1} vs traced-pass latency_p50_ms {latency_p50:.1}; base OT share of latency {:.3}",
        spans.median_ms("ot.base") / latency_p50
    );

    let lags: Vec<f64> = reqs.iter().map(|r| r.lag_ms).collect();
    let tails: Vec<f64> = reqs.iter().map(|r| r.server_tail_ms).collect();
    let k = m.keys;
    let lookups = k.hits + k.misses;
    let c = |name, value, unit| Metric { name, value, unit };
    let metrics = [
        c("he.keygen_ms", spans.median_ms("he.keygen"), "ms"),
        c("he.key_upload_bytes", counts.key_upload_bytes as f64, "B"),
        c("he.encode_diag_ms", spans.median_ms("he.encode_diag"), "ms"),
        c("he.encrypt_ms", spans.median_ms("he.encrypt"), "ms"),
        c("he.matvec_ms", spans.median_ms("he.matvec"), "ms"),
        c(
            "he.matvec_rotations",
            counts.matvec_rotations as f64,
            "count",
        ),
        c("he.decrypt_ms", spans.median_ms("he.decrypt"), "ms"),
        c(
            "he.noise_bits_min",
            f64::from(counts.noise_bits_min),
            "bits",
        ),
        c("ot.base_ms", spans.median_ms("ot.base"), "ms"),
        c("ot.base_bytes", counts.base_bytes as f64, "B"),
        c("ot.iknp_ms", spans.median_ms("ot.iknp"), "ms"),
        c("ot.extended", shape.ot_count as f64, "count"),
        c("gc.garble_ms", spans.median_ms("gc.garble"), "ms"),
        c("gc.eval_ms", spans.median_ms("gc.eval"), "ms"),
        c("gc.and_gates", counts.and_gates as f64, "count"),
        c("gc.bytes", counts.gc_bytes as f64, "B"),
        c(
            "poly.ntt_fwd_us",
            spans.median_ms("poly.ntt_fwd") * 1e3 / replay::NTT_REPS as f64,
            "us",
        ),
        c("wire.msgs_per_req", per_req(msgs), "count"),
        c(
            "wire.offline_bytes_per_req",
            med(&|(c, s)| c.offline_sent + s.offline_sent),
            "B",
        ),
        c(
            "wire.online_bytes_per_req",
            med(&|(c, s)| c.total_sent - c.offline_sent + s.total_sent - s.offline_sent),
            "B",
        ),
        c(
            "serve.key_hit_ratio",
            if lookups == 0 {
                0.0
            } else {
                k.hits as f64 / lookups as f64
            },
            "ratio",
        ),
        c("serve.key_evictions", k.evictions as f64, "count"),
        c(
            "serve.key_table_mb",
            m.key_table_bytes as f64 / f64::from(1u32 << 20),
            "MB",
        ),
        c("serve.server_tail_ms", median(&tails), "ms"),
        c("serve.gen_lag_ms", median(&lags), "ms"),
        c("layer_sum_ms", layer_sum, "ms"),
    ];
    for mt in &metrics {
        println!("metric {:<28} {:>16.4} {}", mt.name, mt.value, mt.unit);
    }
    let attempted = reqs.len() as u64;
    let failed = reqs.iter().filter(|r| r.verdict != Verdict::Ok).count() as u64;
    let wrong = reqs.iter().any(|r| r.verdict == Verdict::Wrong);
    Ok(harness::result_json(!wrong, attempted, failed, &metrics))
}
