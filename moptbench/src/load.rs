//! The warm-serving load: a seeded Zipf mix of `Optimize` requests over
//! (operator × thread count) keys, driven as a closed loop of pipelined TCP
//! connections.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use conv_spec::BenchmarkOp;
use mopt_service::{Response, Tier};
use rand::rngs::StdRng;
use rand::Rng;

use crate::moptd::{truncate, Conn};
use crate::spans::Tracer;
use crate::stats::{median, percentile};
use crate::steal::{Ticks, QUIET_STEAL};

/// The top-level `threads` values requests carry; each is its own cache key.
pub const THREADS: [usize; 8] = [1, 2, 3, 4, 6, 8, 12, 16];

/// Zipf exponent of the key popularity.
pub const ZIPF_S: f64 = 1.0;

/// Length of the slices a serving phase is cut into for its figures.
pub const SLICE_S: f64 = 0.5;

/// One key: an operator at one thread count, with its pre-rendered request
/// lines (newline included) and the prefix every correct reply starts with.
#[derive(Debug, Clone)]
pub struct Key {
    /// The operator.
    pub op: BenchmarkOp,
    /// The request's top-level `threads`.
    pub threads: usize,
    line: String,
    traced_line: String,
    reply_prefix: String,
}

impl Key {
    /// The key's `Optimize` request for `op` at `threads` (no `options`
    /// field: the server's defaults apply).
    pub fn new(op: &BenchmarkOp, threads: usize) -> Self {
        let body = |trace: &str| {
            format!(
                "{{\"Optimize\":{{\"op\":{},\"machine\":{{\"Preset\":\"i7-9700k\"}},\"threads\":{threads}{trace}}}}}\n",
                serde_json::to_string(&op.name).expect("a string always serializes")
            )
        };
        Key {
            op: op.clone(),
            threads,
            line: body(""),
            traced_line: body(",\"trace\":true"),
            reply_prefix: format!(
                "{{\"Optimized\":{{\"op\":{},",
                serde_json::to_string(&op.name).expect("a string always serializes")
            ),
        }
    }

    /// The request line, newline included.
    pub fn line(&self, traced: bool) -> &str {
        if traced {
            &self.traced_line
        } else {
            &self.line
        }
    }
}

/// Every (operator, thread count) key of `ops`.
pub fn keys(ops: &[BenchmarkOp]) -> Vec<Key> {
    ops.iter().flat_map(|op| THREADS.iter().map(move |&t| Key::new(op, t))).collect()
}

/// `connections` streams of `len` key indices each, drawn from one
/// Zipf(`ZIPF_S`) law over `n_keys` keys. The popularity order of the keys
/// is itself a seeded shuffle, shared by every stream.
pub fn zipf_streams(
    n_keys: usize,
    connections: usize,
    len: usize,
    rng: &mut StdRng,
) -> Vec<Vec<u32>> {
    let mut order: Vec<u32> = (0..n_keys as u32).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    let mut cdf: Vec<f64> = (1..=n_keys).map(|rank| (rank as f64).powf(-ZIPF_S)).collect();
    for i in 1..cdf.len() {
        cdf[i] += cdf[i - 1];
    }
    let total = cdf[n_keys - 1];
    (0..connections)
        .map(|_| {
            (0..len)
                .map(|_| {
                    let u = rng.gen::<f64>() * total;
                    order[cdf.partition_point(|&c| c < u).min(n_keys - 1)]
                })
                .collect()
        })
        .collect()
}

/// How one serving phase is driven.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Requests kept outstanding per connection.
    pub window: usize,
    /// How long new requests are sent; outstanding ones are then drained.
    /// The sending period is extended, up to 1.5 times this, until half of
    /// its slices are undisturbed by the hypervisor.
    pub duration: Duration,
    /// Send `"trace": true` on every n-th request of a connection (0: never).
    pub trace_every: u64,
    /// Fully parse and validate every n-th reply.
    pub validate_every: u64,
    /// Position in the streams to start from.
    pub start: usize,
}

/// What one serving phase saw.
#[derive(Debug, Clone, Default)]
pub struct LoadResult {
    /// Requests written.
    pub sent: u64,
    /// Replies read.
    pub completed: u64,
    /// Requests that failed: error or malformed replies, wrong-tier
    /// (`Solver`) replies, and requests lost to a dropped connection.
    pub failed: u64,
    /// Replies per tier, indexed by `Tier as usize` (cache, db, solver).
    pub tiers: [u64; 3],
    /// Send-to-reply latency of every completed request, in microseconds.
    pub latencies_us: Vec<f64>,
    /// When each reply arrived, in seconds from the start of the phase.
    pub completed_at: Vec<f64>,
    /// Share of the machine's CPU time stolen by the hypervisor in each
    /// `SLICE_S` slice of the sending period (empty without `/proc/stat`).
    pub steal: Vec<f64>,
    /// Wall time from the first send to the last reply, in seconds.
    pub elapsed_s: f64,
    /// Raw replies to the `"trace": true` requests.
    pub traced_replies: Vec<String>,
    /// The first few failure descriptions.
    pub errors: Vec<String>,
}

impl LoadResult {
    /// Fold a later phase's counts, samples and wall time into this one.
    pub fn merge(&mut self, other: LoadResult) {
        self.sent += other.sent;
        self.completed += other.completed;
        self.failed += other.failed;
        for (mine, theirs) in self.tiers.iter_mut().zip(other.tiers) {
            *mine += theirs;
        }
        self.latencies_us.extend(other.latencies_us);
        let offset = self.elapsed_s;
        self.completed_at.extend(other.completed_at.iter().map(|t| t + offset));
        self.steal.extend(other.steal);
        self.elapsed_s += other.elapsed_s;
        self.traced_replies.extend(other.traced_replies);
        self.errors.extend(other.errors);
        self.errors.truncate(5);
    }

    /// Completed requests per second over the whole phase.
    pub fn rps(&self) -> f64 {
        self.completed as f64 / self.elapsed_s.max(1e-9)
    }

    /// Rate and latency percentiles per `SLICE_S` slice of the phase, each
    /// reduced to its median over the undisturbed slices: those in which
    /// the hypervisor stole at most `QUIET_STEAL` of the CPU time. When
    /// fewer than a quarter of the slices are undisturbed, the least
    /// disturbed quarter is used. The last, partial slice is dropped.
    pub fn per_window(&self) -> WindowStats {
        let slices = ((self.elapsed_s / SLICE_S).floor() as usize).max(1);
        let mut latencies = vec![Vec::new(); slices];
        for (&t, &latency) in self.completed_at.iter().zip(&self.latencies_us) {
            if let Some(slice) = latencies.get_mut((t / SLICE_S) as usize) {
                slice.push(latency);
            }
        }
        let steal = |i: usize| self.steal.get(i).copied().unwrap_or(0.0);
        let mut order: Vec<usize> = (0..slices).collect();
        order.sort_by(|&a, &b| steal(a).total_cmp(&steal(b)));
        let quiet = order.iter().filter(|&&i| steal(i) <= QUIET_STEAL).count();
        order.truncate(quiet.max(slices.div_ceil(4)));
        let (mut rps, mut p50, mut p99) = (Vec::new(), Vec::new(), Vec::new());
        for &i in &order {
            let slice = &mut latencies[i];
            slice.sort_by(f64::total_cmp);
            rps.push(slice.len() as f64 / SLICE_S);
            p50.push(percentile(slice, 50.0));
            p99.push(percentile(slice, 99.0));
        }
        WindowStats {
            rps: median(&rps),
            p50_us: median(&p50),
            p99_us: median(&p99),
            slices,
            kept: order.len(),
            min_samples: order.iter().map(|&i| latencies[i].len()).min().unwrap_or(0),
            steal: self.steal.iter().sum::<f64>() / self.steal.len().max(1) as f64,
        }
    }

    fn fail(&mut self, count: u64, why: String) {
        self.failed += count;
        if self.errors.len() < 5 {
            self.errors.push(why);
        }
    }
}

/// Serving figures reduced over fixed time slices (see
/// [`LoadResult::per_window`]).
#[derive(Debug, Clone, Copy)]
pub struct WindowStats {
    /// Median completed requests per second.
    pub rps: f64,
    /// Median of the slices' latency p50, microseconds.
    pub p50_us: f64,
    /// Median of the slices' latency p99, microseconds.
    pub p99_us: f64,
    /// Number of slices.
    pub slices: usize,
    /// Slices the medians were taken over.
    pub kept: usize,
    /// Fewest latency samples in a kept slice.
    pub min_samples: usize,
    /// Mean stolen share of the CPU time over all slices.
    pub steal: f64,
}

/// Drive one closed-loop connection per stream against `port` for
/// `config.duration` (extended as it describes), then drain. Connections
/// run on their own threads; `tracer` gets one span per sampled request.
pub fn closed_loop(
    port: u16,
    keys: &[Key],
    streams: &[Vec<u32>],
    config: &LoadConfig,
    tracer: &Tracer,
) -> LoadResult {
    let started = Instant::now();
    let stop = &AtomicBool::new(false);
    let mut total = LoadResult::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(conn_id, stream)| {
                scope.spawn(move || {
                    let result = drive_connection(
                        port,
                        keys,
                        stream,
                        config,
                        (started, stop),
                        conn_id,
                        tracer,
                    );
                    tracer.record("tcp_connection", conn_id as u64, started, Instant::now());
                    result
                })
            })
            .collect();
        // Meanwhile, sample the hypervisor's steal at every slice boundary
        // and decide when to stop sending.
        let planned = config.duration.as_secs_f64();
        let mut last = Ticks::now();
        let mut boundary = started;
        loop {
            let elapsed = boundary.duration_since(started).as_secs_f64();
            let quiet = total.steal.iter().filter(|&&s| s <= QUIET_STEAL).count();
            let enough = 2 * quiet >= total.steal.len();
            if elapsed >= 1.5 * planned || (elapsed >= planned && enough) {
                break;
            }
            boundary += Duration::from_secs_f64(SLICE_S.min(planned));
            std::thread::sleep(boundary.saturating_duration_since(Instant::now()));
            let now = Ticks::now();
            total.steal.push(last.stolen_since(now));
            last = now;
        }
        // Relaxed: the flag publishes no other data.
        stop.store(true, Ordering::Relaxed);
        for handle in handles {
            total.merge(handle.join().expect("load-generator thread panicked"));
        }
    });
    total.elapsed_s = started.elapsed().as_secs_f64();
    total
}

fn drive_connection(
    port: u16,
    keys: &[Key],
    stream: &[u32],
    config: &LoadConfig,
    (started, stop): (Instant, &AtomicBool),
    conn_id: usize,
    tracer: &Tracer,
) -> LoadResult {
    let mut result = LoadResult::default();
    let mut conn = match Conn::open(port) {
        Ok(conn) => conn,
        Err(e) => {
            result.fail(1, format!("connect failed: {e}"));
            return result;
        }
    };
    let mut pending: VecDeque<(u32, u64, Instant)> = VecDeque::with_capacity(config.window);
    let mut seq = 0u64;
    let mut send_next = |conn: &mut Conn, pending: &mut VecDeque<(u32, u64, Instant)>| {
        let key = stream[(config.start + seq as usize) % stream.len()];
        let traced = config.trace_every > 0 && seq.is_multiple_of(config.trace_every);
        let sent_at = Instant::now();
        let outcome = conn.send(keys[key as usize].line(traced).as_bytes());
        pending.push_back((key, seq, sent_at));
        seq += 1;
        outcome
    };
    let mut reply = String::with_capacity(8192);
    for _ in 0..config.window {
        if let Err(e) = send_next(&mut conn, &mut pending) {
            result.fail(pending.len() as u64, e);
            result.sent = seq;
            return result;
        }
    }
    while let Some((key_index, request, sent_at)) = pending.pop_front() {
        if let Err(e) = conn.read_reply_into(&mut reply) {
            result.fail(1 + pending.len() as u64, e);
            break;
        }
        let now = Instant::now();
        result.completed += 1;
        result.latencies_us.push((now - sent_at).as_secs_f64() * 1e6);
        result.completed_at.push((now - started).as_secs_f64());
        let request_id = ((conn_id as u64) << 40) | request;
        if tracer.enabled() && request % 16 == 0 {
            tracer.record("tcp_request", request_id, sent_at, now);
        }
        let key = &keys[key_index as usize];
        match check_reply(key, &reply, request % config.validate_every.max(1) == 0) {
            Ok(tier) => {
                result.tiers[tier as usize] += 1;
                if tier == Tier::Solver {
                    result.fail(
                        1,
                        format!("{} threads={} served by the solver", key.op.name, key.threads),
                    );
                }
            }
            Err(e) => result.fail(1, e),
        }
        if config.trace_every > 0 && request % config.trace_every == 0 {
            result.traced_replies.push(reply.clone());
        }
        if !stop.load(Ordering::Relaxed) {
            if let Err(e) = send_next(&mut conn, &mut pending) {
                result.fail(1 + pending.len() as u64, e);
                break;
            }
        }
    }
    result.sent = seq;
    result
}

/// Check one `Optimize` reply: it must answer this key's operator, in
/// order, and name its tier. With `validate`, it is also parsed in full and
/// its best schedule checked against the operator's shape.
fn check_reply(key: &Key, reply: &str, validate: bool) -> Result<Tier, String> {
    if !reply.starts_with(&key.reply_prefix) {
        return Err(format!("reply does not answer {}: {}", key.op.name, truncate(reply)));
    }
    let tier = match reply.find("\"tier\":\"").map(|at| &reply[at + 8..]) {
        Some(rest) if rest.starts_with("Cache\"") => Tier::Cache,
        Some(rest) if rest.starts_with("Db\"") => Tier::Db,
        Some(rest) if rest.starts_with("Solver\"") => Tier::Solver,
        _ => return Err(format!("reply names no tier: {}", truncate(reply))),
    };
    if validate {
        match serde_json::from_str::<Response>(reply) {
            Ok(Response::Optimized { shape, result, .. }) => {
                if shape != key.op.shape {
                    return Err(format!("{}: reply is for another shape", key.op.name));
                }
                let best = result.ranked.first().ok_or("reply ranks no schedule")?;
                best.config
                    .validate(&shape)
                    .map_err(|e| format!("{}: served schedule invalid: {e}", key.op.name))?;
            }
            Ok(_) => return Err(format!("not an Optimized reply: {}", truncate(reply))),
            Err(e) => return Err(format!("unparseable reply ({e}): {}", truncate(reply))),
        }
    }
    Ok(tier)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn zipf_stream_is_seeded_and_skewed() {
        let a = zipf_streams(168, 2, 20_000, &mut StdRng::seed_from_u64(7));
        let b = zipf_streams(168, 2, 20_000, &mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
        let a = &a[0];
        let mut counts = vec![0usize; 168];
        for &k in a {
            counts[k as usize] += 1;
        }
        counts.sort_unstable_by(|x, y| y.cmp(x));
        // Zipf(1) over 168 keys: the top key draws ~1/H(168) ≈ 18%.
        let top = counts[0] as f64 / a.len() as f64;
        assert!((0.15..0.21).contains(&top), "top key share {top}");
        assert!(counts.iter().filter(|&&c| c > 0).count() > 150);
    }

    #[test]
    fn replies_are_checked_against_their_key() {
        let op = conv_spec::benchmarks::by_name("V5").expect("V5 exists");
        let key = Key::new(&op, 4);
        assert!(key.line(false).ends_with("\"threads\":4}}\n"));
        let cache = format!("{}\"tier\":\"Cache\",\"x\":1}}}}", key.reply_prefix);
        assert_eq!(check_reply(&key, &cache, false), Ok(Tier::Cache));
        let error = "{\"Error\":{\"message\":\"boom\"}}";
        assert!(check_reply(&key, error, false).is_err());
        let other = Key::new(&conv_spec::benchmarks::by_name("V6*").expect("V6* exists"), 4);
        assert!(check_reply(&other, &cache, false).is_err());
    }
}
