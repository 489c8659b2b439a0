//! Per-layer timings of the serving path, taken in-process on a replay of
//! the workload's request stream against the database `moptd` populated.

use std::path::Path;
use std::time::{Duration, Instant};

use conv_spec::{canonicalize_spec, MachineModel, Spec};
use mopt_core::OptimizerOptions;
use mopt_service::{CacheKey, DbTier, Request, ScheduleCache, ServiceState};

use crate::load::Key;
use crate::spans::Tracer;
use crate::stats::median;

/// Median per-call times, in microseconds.
#[derive(Debug, Clone, Default)]
pub struct LayerTimes {
    /// `serde_json::from_str::<Request>`.
    pub parse_us: f64,
    /// `serde_json::to_string(&Response)`.
    pub serialize_us: f64,
    /// `ServiceState::handle_line`.
    pub handle_line_us: f64,
    /// `ScheduleCache::get`.
    pub cache_get_us: f64,
    /// `DbTier::lookup` (cache misses only).
    pub db_lookup_us: f64,
    /// `mopt_db::rerank_spec` (cache misses only).
    pub rerank_us: f64,
}

fn micros(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e6
}

/// The options `moptd` derives for a key's request (no `options` field,
/// top-level `threads`).
fn key_options(key: &Key) -> OptimizerOptions {
    OptimizerOptions { threads: key.threads, ..OptimizerOptions::default() }
}

/// Replay `stream` (at most `budget` per layer) through a fresh service
/// state, a fresh cache, and the database at `db_dir`, timing each call.
pub fn measure(
    db_dir: &Path,
    capacity: usize,
    keys: &[Key],
    stream: &[u32],
    budget: Duration,
    tracer: &Tracer,
) -> Result<LayerTimes, String> {
    let machine = MachineModel::i7_9700k();
    let open =
        || ServiceState::new(capacity).with_db(db_dir.to_path_buf()).map_err(|e| e.to_string());

    // The whole server path, one line at a time.
    let phase = tracer.begin("replay_handle_line");
    let state = open()?;
    let mut handle_line = Vec::new();
    let started = Instant::now();
    for (i, &k) in stream.iter().enumerate() {
        let line = keys[k as usize].line(false).trim_end();
        let (reply, s) =
            tracer.time("ServiceState::handle_line", i as u64, || state.handle_line(line));
        if !reply.starts_with("{\"Optimized\"") {
            return Err(format!("in-process replay failed: {}", crate::moptd::truncate(&reply)));
        }
        handle_line.push(s * 1e6);
        if started.elapsed() > budget {
            break;
        }
    }
    tracer.end(phase);

    // Wire parse and serialize around an untimed `handle`.
    let phase = tracer.begin("replay_wire");
    let state = open()?;
    let (mut parse, mut serialize) = (Vec::new(), Vec::new());
    let started = Instant::now();
    for (i, &k) in stream.iter().enumerate() {
        let line = keys[k as usize].line(false).trim_end();
        let (request, s) = tracer.time("serde_json::from_str::<Request>", i as u64, || {
            serde_json::from_str::<Request>(line)
        });
        let request = request.map_err(|e| format!("request does not parse: {e}"))?;
        parse.push(s * 1e6);
        let response = state.handle(&request);
        let (text, s) = tracer.time("serde_json::to_string(&Response)", i as u64, || {
            serde_json::to_string(&response)
        });
        text.map_err(|e| e.to_string())?;
        serialize.push(s * 1e6);
        if started.elapsed() > budget {
            break;
        }
    }
    tracer.end(phase);

    // The cache and db tiers by themselves.
    let phase = tracer.begin("replay_tiers");
    let cache = ScheduleCache::new(capacity);
    let db = DbTier::open(db_dir).map_err(|e| e.to_string())?;
    let (mut get, mut lookup, mut rerank) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    for (i, &k) in stream.iter().enumerate() {
        let key = &keys[k as usize];
        let spec = Spec::Conv(key.op.shape);
        let options = key_options(key);
        let cache_key = CacheKey::new(spec, &machine, &options);
        let t = Instant::now();
        let hit = cache.get(&cache_key);
        get.push(micros(t));
        tracer.record("ScheduleCache::get", i as u64, t, Instant::now());
        if hit.is_some() {
            continue;
        }
        let (canonical, transform) = canonicalize_spec(&spec);
        let entries = db
            .db()
            .lookup(canonical.fingerprint(), machine.fingerprint())
            .map_err(|e| e.to_string())?
            .ok_or_else(|| format!("{} missing from the database", key.op.name))?;
        let (reranked, s) = tracer.time("mopt_db::rerank_spec", i as u64, || {
            mopt_db::rerank_spec(&spec, &transform, &entries, &machine, &options)
        });
        reranked.ok_or_else(|| format!("{}: rerank found no schedule", key.op.name))?;
        rerank.push(s * 1e6);
        let (served, s) =
            tracer.time("DbTier::lookup", i as u64, || db.lookup(&spec, &machine, &options));
        lookup.push(s * 1e6);
        cache
            .insert(cache_key, served.ok_or_else(|| format!("{}: db lookup missed", key.op.name))?);
        if started.elapsed() > budget {
            break;
        }
    }
    tracer.end(phase);

    Ok(LayerTimes {
        parse_us: median(&parse),
        serialize_us: median(&serialize),
        handle_line_us: median(&handle_line),
        cache_get_us: median(&get),
        db_lookup_us: median(&lookup),
        rerank_us: median(&rerank),
    })
}
