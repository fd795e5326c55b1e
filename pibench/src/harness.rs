//! Measurement plumbing shared by every workload: percentiles, the tail
//! rule, the open-loop arrival schedule, output checking, `/proc` readers
//! and the benchmark's own spans.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Nearest-rank percentile of `sorted` (ascending, non-empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (`NaN` when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The reported tail of a latency sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// Percentile the value was taken at.
    pub pct: f64,
    /// Latency at that percentile.
    pub value: f64,
    /// Samples strictly beyond it.
    pub beyond: usize,
}

/// The highest ladder percentile with at least [`TAIL_BEYOND`] samples
/// beyond it. A sample too small for any such percentile falls back to the
/// median, and `beyond` then says how thin the tail is.
pub fn tail(samples: &[f64]) -> Tail {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let beyond_at = |pct: f64| {
        let rank = ((pct / 100.0) * n as f64).ceil() as usize;
        n - rank.clamp(1, n)
    };
    let pct = TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| beyond_at(p) >= TAIL_BEYOND)
        .unwrap_or(50.0);
    Tail {
        pct,
        value: percentile(&sorted, pct),
        beyond: beyond_at(pct),
    }
}

/// One open-loop arrival schedule: offsets from the start of a rate step.
///
/// Arrivals are a Poisson process conditioned on its count: exactly
/// `round(rate · window)` arrival times, independently uniform over the
/// window. Conditioning removes the count's run-to-run variance while
/// keeping the Poisson clustering that builds queues.
pub fn poisson_schedule(seed: u64, rate: f64, window: Duration) -> Vec<Duration> {
    let mut rng = StdRng::seed_from_u64(seed);
    let count = (rate * window.as_secs_f64()).round() as usize;
    let mut at: Vec<f64> = (0..count)
        .map(|_| rng.gen::<f64>() * window.as_secs_f64())
        .collect();
    at.sort_by(f64::total_cmp);
    at.into_iter().map(Duration::from_secs_f64).collect()
}

/// The `j`-th point of a low-discrepancy sequence in `[0, 1)` starting at
/// `u0` (golden-ratio steps). Client-id draws use it instead of
/// independent uniforms, so each id's share of a short run stays close to
/// its weight whatever the seed.
pub fn quasi_uniform(u0: f64, j: usize) -> f64 {
    const STEP: f64 = 0.618_033_988_749_894_9;
    (u0 + j as f64 * STEP).fract()
}

/// Maps `u` in `[0, 1)` to an id in `0..weights.len()` with probability
/// proportional to its weight, over the ids not in `busy`.
pub fn skewed_pick(u: f64, weights: &[f64], busy: &[bool]) -> Option<usize> {
    let free = || {
        weights
            .iter()
            .zip(busy)
            .enumerate()
            .filter(|(_, (_, &b))| !b)
    };
    let total: f64 = free().map(|(_, (w, _))| w).sum();
    let mut x = u * total;
    let mut last = None;
    for (i, (&w, _)) in free() {
        last = Some(i);
        if x < w {
            return Some(i);
        }
        x -= w;
    }
    last
}

/// How one request ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Output equals the plaintext reference.
    Ok,
    /// The protocol returned an output that differs from the reference.
    Wrong,
    /// The protocol returned an error or the server refused the session.
    Error,
}

/// Checks one protocol output (`None`: the protocol failed) against the
/// reference output.
pub fn verdict(output: Option<&[u64]>, expected: &[u64]) -> Verdict {
    match output {
        Some(out) if out == expected => Verdict::Ok,
        Some(_) => Verdict::Wrong,
        None => Verdict::Error,
    }
}

/// Linux reports `/proc` CPU times in USER_HZ ticks, fixed at 100 by the
/// kernel ABI.
const USER_HZ: f64 = 100.0;

/// User + system CPU-seconds of the whole process, from the text of
/// `/proc/self/stat`.
pub fn parse_cpu_s(stat: &str) -> Option<f64> {
    // The command name (field 2) may hold spaces; fields after it are
    // counted from the closing parenthesis.
    let rest = &stat[stat.rfind(')')? + 1..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    // Fields 14 (utime) and 15 (stime) overall are 12 and 13 after `)`.
    let utime: f64 = f.get(11)?.parse().ok()?;
    let stime: f64 = f.get(12)?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// Peak resident set in MB (`VmHWM`), from the text of
/// `/proc/self/status`.
pub fn parse_peak_rss_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Current process CPU-seconds.
pub fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_cpu_s(&stat).expect("parse /proc/self/stat")
}

/// Peak resident memory of the process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_peak_rss_mb(&status).expect("VmHWM in /proc/self/status")
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// One recorded span of the benchmark's own tracing.
struct SpanRec {
    name: &'static str,
    req: usize,
    start: Duration,
    end: Duration,
}

/// The benchmark's spans: one per call into a layer, tagged with the
/// replayed request they belong to, kept in memory and summarised when
/// the traced run ends.
pub struct Spans {
    origin: Instant,
    recs: Vec<SpanRec>,
    /// Replayed request the next spans belong to.
    pub req: usize,
}

impl Spans {
    /// An empty recorder.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            recs: Vec::new(),
            req: 0,
        }
    }

    /// Runs `f` inside a span called `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.origin.elapsed();
        let out = std::hint::black_box(f());
        let end = self.origin.elapsed();
        self.recs.push(SpanRec {
            name,
            req: self.req,
            start,
            end,
        });
        out
    }

    /// Total milliseconds per span name, per request: `name → [ms of
    /// request 0, ms of request 1, …]`.
    pub fn per_request_ms(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let reqs = self.recs.iter().map(|r| r.req + 1).max().unwrap_or(0);
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for r in &self.recs {
            let v = out.entry(r.name).or_insert_with(|| vec![0.0; reqs]);
            v[r.req] += (r.end - r.start).as_secs_f64() * 1e3;
        }
        out
    }

    /// Median over requests of a span's per-request total.
    pub fn median_ms(&self, name: &str) -> f64 {
        self.per_request_ms()
            .get(name)
            .map_or(f64::NAN, |v| median(v))
    }

    /// Human-readable summary: calls, total and median per request.
    pub fn summary(&self) -> String {
        let mut s = String::new();
        for (name, v) in self.per_request_ms() {
            let calls = self.recs.iter().filter(|r| r.name == name).count();
            s.push_str(&format!(
                "span {name:<16} calls {calls:>4}  total {:>10.2} ms  median/req {:>10.3} ms\n",
                v.iter().sum::<f64>(),
                median(&v)
            ));
        }
        s
    }
}

/// One metric of the result line.
pub struct Metric {
    /// Metric name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// JSON has no infinities or NaN; a value that is not finite is a bug in
/// the measurement and must not reach the result line.
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{v}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_takes_highest_percentile_with_ten_beyond() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&samples);
        assert_eq!((t.pct, t.value, t.beyond), (99.0, 990.0, 10));

        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&samples);
        assert_eq!((t.pct, t.value, t.beyond), (95.0, 190.0, 10));

        // 40 samples: p90 leaves only 4 beyond, p75 leaves 10.
        let samples: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        let t = tail(&samples);
        assert_eq!((t.pct, t.value, t.beyond), (75.0, 30.0, 10));
    }

    #[test]
    fn tail_of_a_small_sample_falls_back_to_the_median() {
        let samples: Vec<f64> = (1..=7).map(f64::from).collect();
        let t = tail(&samples);
        assert_eq!((t.pct, t.value, t.beyond), (50.0, 4.0, 3));
    }

    #[test]
    fn schedule_is_a_function_of_the_seed() {
        let w = Duration::from_secs(10);
        let a = poisson_schedule(7, 2.0, w);
        assert_eq!(a, poisson_schedule(7, 2.0, w));
        assert_ne!(a, poisson_schedule(8, 2.0, w));
        assert_eq!(a.len(), 20);
        assert!(a.windows(2).all(|p| p[0] <= p[1]));
        assert!(a.iter().all(|&t| t < w));
    }

    #[test]
    fn skewed_pick_follows_the_weights_and_skips_busy_ids() {
        let weights = [1.0, 0.5, 0.25];
        let mut busy = [true, false, true];
        for j in 0..100 {
            assert_eq!(skewed_pick(quasi_uniform(0.3, j), &weights, &busy), Some(1));
        }
        busy[1] = true;
        assert_eq!(skewed_pick(0.5, &weights, &busy), None);
        busy = [false; 3];
        let mut counts = [0usize; 3];
        for j in 0..70 {
            counts[skewed_pick(quasi_uniform(0.9, j), &weights, &busy).unwrap()] += 1;
        }
        // 70 draws at weights 4:2:1 land within one of 40, 20 and 10.
        assert!(
            counts
                .iter()
                .zip([40, 20, 10])
                .all(|(&c, e)| c.abs_diff(e) <= 1),
            "{counts:?}"
        );
    }

    #[test]
    fn wrong_output_and_errors_count_as_failures() {
        let expected = vec![1u64, 2, 3];
        assert_eq!(verdict(Some(&[1, 2, 3]), &expected), Verdict::Ok);
        assert_eq!(verdict(Some(&[1, 2, 4]), &expected), Verdict::Wrong);
        assert_eq!(verdict(None, &expected), Verdict::Error);
    }

    #[test]
    fn proc_readers_parse() {
        let stat = "4242 (pi bench (x)) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 3 0";
        assert_eq!(parse_cpu_s(stat), Some(3.0));
        let status = "Name:\tpibench\nVmPeak:\t  9000 kB\nVmHWM:\t  51200 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_peak_rss_mb(status), Some(50.0));
        // The live files parse too, and CPU time only grows.
        let before = cpu_s();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(cpu_s() >= before);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let line = result_json(
            true,
            3,
            0,
            &[Metric {
                name: "latency_p50_ms",
                value: 1.5,
                unit: "ms",
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"latency_p50_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
    }
}
