//! The three workloads and the run that measures one of them.
//!
//! Every workload goes through the same phases against one fresh `moptd`:
//! set-up, cold planning of its suites, warm serving of its keys, and —
//! after `moptd` has exited, so the two never contend for the cores —
//! execution of the served schedules. The workloads differ in which suites
//! they plan and where the time goes (see `moptbench/README.md`).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use conv_exec::{active_backend, SimdBackend, Tensor4};
use conv_spec::{benchmarks, BenchmarkOp, MachineModel, Spec, TileConfig};
use mopt_core::{MOptOptimizer, OptimizedConfig, OptimizerOptions};
use mopt_service::{MachineSpec, NetworkPlan, Request, Response, ServiceStats, Tier};
use mopt_trace::SpanNode;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::exec::{reference_conv, run_schedule, ExecTiming, OpCase};
use crate::gates;
use crate::load::{self, LoadConfig, LoadResult};
use crate::moptd::{Conn, Moptd, ServerOptions};
use crate::spans::Tracer;
use crate::stats::{geometric_mean, median, percentile, spearman_correlation};
use crate::steal::{Ticks, QUIET_STEAL};

/// A benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Its name on the command line.
    pub name: &'static str,
    /// The `PlanNetwork` suites it plans (and whose operators it serves and
    /// executes).
    pub suites: &'static [&'static str],
    /// Whether the cold plans are set-up (serving is what is measured) or
    /// the measured phase.
    pub plan_in_setup: bool,
}

/// Every workload.
pub const WORKLOADS: [Workload; 2] = [
    Workload { name: "resnet18", suites: &["resnet18"], plan_in_setup: false },
    Workload { name: "serve_mix", suites: &["resnet18", "mobilenetv2"], plan_in_setup: true },
];

/// `moptd --workers`, PlanNetwork `workers`, and load connections: at most
/// the two cores of the reference machine.
const WORKERS: usize = 2;
const CONNECTIONS: usize = 2;
/// Requests each connection keeps in flight.
const WINDOW: usize = 16;
/// Pre-generated requests per connection (replayed cyclically).
const STREAM_LEN: usize = 1 << 16;
/// Set-up repetitions when set-up is cheap (no planning in it).
const SETUP_REPEATS: usize = 3;
/// Minimum undisturbed timed executions of each served schedule.
const MIN_REPS: usize = 3;
/// Schedules per operator judged against the model.
const TOP_K: usize = 5;
/// Rounds over an operator's top-k stop once this many seconds are spent
/// (or after `TOP_K_MAX_ROUNDS`).
const TOP_K_BUDGET_S: f64 = 2.0;
const TOP_K_MAX_ROUNDS: usize = 5;
/// MOpt-1 "loses" on an operator when it is this much slower than the
/// fastest of its top-k.
const LOSS_MARGIN: f64 = 1.10;
/// Every n-th request of a traced serving slice carries `"trace": true`.
const TRACE_EVERY: u64 = 64;
/// Traced (and as many untraced) slices of the traced run's serving phase.
const TRACE_SLICES: usize = 4;
/// `moptd` span names whose self time is reported.
const MOPTD_STAGES: [&str; 5] = ["parse", "cache_probe", "flight", "db_lookup", "serialize"];

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured phase, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// The `moptd` binary.
    pub moptd: PathBuf,
    /// Scratch directory for databases, logs and span files.
    pub work_dir: PathBuf,
    /// Minimum share of warm replies the db tier must serve.
    pub db_floor: f64,
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric name → value.
    pub metrics: BTreeMap<String, f64>,
    /// Operations attempted: requests sent plus schedules executed.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Why the run is not correct (empty when it is).
    pub errors: Vec<String>,
    /// Human-readable report lines.
    pub notes: Vec<String>,
}

impl Outcome {
    fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    fn gate(&mut self, result: Result<(), String>) {
        if let Err(e) = result {
            self.failed += 1;
            self.errors.push(e);
        }
    }
}

/// The per-operator exec metric name: `exec.<op>_ms`, `*` dropped.
pub fn exec_metric(op: &str) -> String {
    format!("exec.{}_ms", op.replace('*', ""))
}

fn suite_ops(suite: &str) -> Vec<BenchmarkOp> {
    match suite {
        "resnet18" => benchmarks::resnet18(),
        "mobilenetv2" => benchmarks::mobilenet_v2(),
        other => unreachable!("no suite {other}"),
    }
}

fn op_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ index as u64
}

fn machine() -> MachineSpec {
    MachineSpec::Preset("i7-9700k".into())
}

fn stats(conn: &mut Conn, out: &mut Outcome) -> Result<ServiceStats, String> {
    out.attempted += 1;
    match conn.request(&Request::Stats)? {
        Response::Stats { stats } => Ok(stats),
        other => Err(format!("Stats answered with {other:?}")),
    }
}

/// One cold `PlanNetwork` at the server's default options (no `options`
/// field), threads 1, and the gate on its solve/insert counts. Returns the
/// plan and its client-side wall time.
fn cold_plan(
    conn: &mut Conn,
    suite: &str,
    out: &mut Outcome,
    tracer: &Tracer,
) -> Result<(NetworkPlan, f64), String> {
    let before = stats(conn, out)?.db.map_or(0, |db| db.inserts);
    let request = Request::PlanNetwork {
        suite: Some(suite.into()),
        layers: None,
        machine: machine(),
        options: None,
        threads: Some(1),
        workers: Some(WORKERS),
        trace: None,
    };
    out.attempted += 1;
    let (reply, wall) = tracer.time("PlanNetwork", 0, || conn.request(&request));
    let plan = match reply? {
        Response::Planned { plan, .. } => plan,
        other => return Err(format!("PlanNetwork answered with {other:?}")),
    };
    let mut db = stats(conn, out)?.db;
    if let Some(db) = &mut db {
        db.inserts -= before;
    }
    out.gate(gates::check_cold_plan(&plan.stats, db.as_ref()).map_err(|e| format!("{suite}: {e}")));
    Ok((plan, wall))
}

/// `Save`, timed (the database flush).
fn save(conn: &mut Conn, out: &mut Outcome, tracer: &Tracer) -> Result<f64, String> {
    out.attempted += 1;
    let (reply, wall) = tracer.time("Save", 0, || conn.request(&Request::Save));
    match reply? {
        Response::Saved { .. } => Ok(wall),
        other => Err(format!("Save answered with {other:?}")),
    }
}

/// The ranked schedules `moptd` serves for `op` at threads 1 (from the
/// cache or the database right after the cold plan).
fn ranked(
    conn: &mut Conn,
    op: &BenchmarkOp,
    out: &mut Outcome,
) -> Result<Vec<OptimizedConfig>, String> {
    let request = Request::Optimize {
        spec: None,
        op: Some(op.name.clone()),
        shape: None,
        machine: machine(),
        options: None,
        threads: Some(1),
        trace: None,
    };
    out.attempted += 1;
    match conn.request(&request)? {
        Response::Optimized { tier, result, .. } => {
            if tier == Some(Tier::Solver) {
                out.gate(Err(format!(
                    "{}: top-k fetch after the cold plan reached the solver",
                    op.name
                )));
            }
            Ok(result.ranked.into_iter().take(TOP_K).collect())
        }
        other => Err(format!("Optimize answered with {other:?}")),
    }
}

/// Self time per span name over the trees `moptd` returned.
fn stage_self_times(replies: &[String]) -> Result<BTreeMap<String, Vec<f64>>, String> {
    fn walk(node: &SpanNode, into: &mut BTreeMap<String, Vec<f64>>) {
        let children: u64 = node.children.iter().map(|c| c.duration_micros).sum();
        let self_us = node.duration_micros.saturating_sub(children) as f64;
        into.entry(node.name.clone()).or_default().push(self_us);
        for child in &node.children {
            walk(child, into);
        }
    }
    let mut times = BTreeMap::new();
    for reply in replies {
        match serde_json::from_str::<Response>(reply) {
            Ok(Response::Optimized { trace: Some(root), .. }) => walk(&root, &mut times),
            _ => {
                return Err(format!(
                    "traced reply carries no span tree: {}",
                    crate::moptd::truncate(reply)
                ))
            }
        }
    }
    Ok(times)
}

/// Run one workload and collect its metrics.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let workload = args.workload;
    let tracer = Tracer::new(args.trace);
    let mut out = Outcome::default();
    let dir =
        args.work_dir.join(format!("{}-seed{}-{}", workload.name, args.seed, std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let result = run_in(args, &dir, &tracer, &mut out);
    if tracer.enabled() {
        let path = args.work_dir.join(format!("spans-{}-seed{}.jsonl", workload.name, args.seed));
        let written = tracer.write_jsonl(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        out.notes.push(format!("{written} client spans written to {}", path.display()));
    }
    let _ = std::fs::remove_dir_all(&dir);
    let ok = 1.0 - out.failed as f64 / out.attempted.max(1) as f64;
    out.set("ok_share", ok);
    result.map(|()| out)
}

fn run_in(args: &RunArgs, dir: &Path, tracer: &Tracer, out: &mut Outcome) -> Result<(), String> {
    let workload = args.workload;
    let ops: Vec<BenchmarkOp> = workload.suites.iter().flat_map(|s| suite_ops(s)).collect();
    let keys = load::keys(&ops);
    // A cache for a quarter of the keys: warm misses keep reaching the db
    // tier and writing back with evictions.
    let capacity = keys.len() / 4;
    let log = dir.join("moptd.log");

    // ---- Set-up: spawn to ready, with inputs generated (and, for
    // serve_mix, the database populated by the cold plans).
    let span = tracer.begin("setup");
    let repeats = if workload.plan_in_setup { 1 } else { SETUP_REPEATS };
    let mut setup_s = Vec::new();
    let mut plans: Vec<(NetworkPlan, f64)> = Vec::new();
    let mut flush_s = 0.0;
    let mut cases = Vec::new();
    let mut streams = Vec::new();
    let mut session = None;
    for attempt in 0..repeats {
        let db_dir = dir.join(format!("db{attempt}"));
        let started = Instant::now();
        let options = ServerOptions { db: Some(&db_dir), capacity, workers: WORKERS };
        let server = Moptd::spawn(&args.moptd, &options, &log)?;
        out.attempted += 1;
        cases = ops
            .iter()
            .enumerate()
            .map(|(i, op)| OpCase::generate(op, op_seed(args.seed, i)))
            .collect();
        streams = load::zipf_streams(
            keys.len(),
            CONNECTIONS,
            STREAM_LEN,
            &mut StdRng::seed_from_u64(args.seed),
        );
        let mut conn = server.connect()?;
        if workload.plan_in_setup {
            for suite in workload.suites {
                plans.push(cold_plan(&mut conn, suite, out, tracer)?);
            }
            flush_s = save(&mut conn, out, tracer)?;
        }
        setup_s.push(started.elapsed().as_secs_f64());
        if attempt + 1 < repeats {
            drop(conn);
            server.stop(Duration::from_secs(30))?;
        } else {
            session = Some((server, conn, db_dir));
        }
    }
    tracer.end(span);
    let (server, mut conn, db_dir) = session.expect("at least one set-up");
    out.set("setup_s", median(&setup_s));

    // ---- Cold planning.
    if !workload.plan_in_setup {
        let span = tracer.begin("cold_plan");
        for suite in workload.suites {
            plans.push(cold_plan(&mut conn, suite, out, tracer)?);
        }
        flush_s = save(&mut conn, out, tracer)?;
        tracer.end(span);
    }
    let plan_stats = stats(&mut conn, out)?;
    out.set("plan_s", plans.iter().map(|(_, wall)| wall).sum());
    out.set("db.flush_ms", flush_s * 1e3);
    out.set("db.inserts", plan_stats.db.as_ref().map_or(0, |db| db.inserts) as f64);
    let solve: f64 = plans.iter().map(|(p, _)| p.stats.solve_seconds).sum();
    let busy: f64 = plans.iter().map(|(p, _)| p.stats.wall_seconds * p.stats.workers as f64).sum();
    out.set("batch.parallel_efficiency", solve / busy.max(1e-9));
    let served: BTreeMap<String, TileConfig> = plans
        .iter()
        .flat_map(|(plan, _)| plan.layers.iter().map(|l| (l.name.clone(), l.best.config.clone())))
        .collect();
    let mut top_k = Vec::new();
    if args.trace {
        for op in &ops {
            top_k.push(ranked(&mut conn, op, out)?);
        }
    }

    // ---- Warm serving.
    let span = tracer.begin("serve");
    let config = |duration: f64, trace_every, start| LoadConfig {
        window: WINDOW,
        duration: Duration::from_secs_f64(duration),
        trace_every,
        validate_every: 1024,
        start,
    };
    let serve = if args.trace {
        // Alternating untraced and traced slices: the rate difference is the
        // tracing overhead, with drift in the machine's speed spread over
        // both sides.
        let (mut plain, mut traced) = (LoadResult::default(), LoadResult::default());
        let mut start = 0;
        let off = Tracer::new(false);
        for slice in 0..2 * TRACE_SLICES {
            let duration = args.seconds / (2 * TRACE_SLICES) as f64;
            let traced_slice = slice % 2 == 1;
            let (every, slice_tracer) =
                if traced_slice { (TRACE_EVERY, tracer) } else { (0, &off) };
            let result = load::closed_loop(
                server.port(),
                &keys,
                &streams,
                &config(duration, every, start),
                slice_tracer,
            );
            start += result.sent as usize / CONNECTIONS;
            if traced_slice {
                traced.merge(result);
            } else {
                plain.merge(result);
            }
        }
        out.set("trace.overhead_share", plain.rps() / traced.rps().max(1e-9) - 1.0);
        plain.merge(traced);
        plain
    } else {
        load::closed_loop(server.port(), &keys, &streams, &config(args.seconds, 0, 0), tracer)
    };
    tracer.end(span);
    let serve_stats = stats(&mut conn, out)?;
    record_serving(&serve, &plan_stats, &serve_stats, args.db_floor, out)?;

    let mut tcp_p50_us = 0.0;
    if args.trace {
        let stages = stage_self_times(&serve.traced_replies)?;
        for stage in MOPTD_STAGES {
            out.set(
                &format!("moptd.{stage}_self_us"),
                stages.get(stage).map_or(0.0, |t| median(t)),
            );
        }
        out.notes.push(format!("moptd span trees sampled: {}", serve.traced_replies.len()));
        // Window 1, one connection: the latency left after the in-process
        // handle_line time is the event loop and socket path.
        let single = load::closed_loop(
            server.port(),
            &keys,
            &streams[..1],
            &LoadConfig { window: 1, ..config(1.0, 0, 0) },
            tracer,
        );
        out.attempted += single.sent;
        out.failed += single.failed;
        let mut lat = single.latencies_us.clone();
        lat.sort_by(f64::total_cmp);
        tcp_p50_us = percentile(&lat, 50.0);
    }

    // Traced runs time every operator of both suites, so each prints the
    // whole per-operator set: plan the suite this workload does not cover.
    let mut foreign = Vec::new();
    if args.trace {
        for suite in ["resnet18", "mobilenetv2"] {
            if !workload.suites.contains(&suite) {
                let (plan, _) = cold_plan(&mut conn, suite, out, tracer)?;
                for (i, op) in suite_ops(suite).iter().enumerate() {
                    let config = plan
                        .layers
                        .iter()
                        .find(|l| l.name == op.name)
                        .map(|l| l.best.config.clone());
                    let config = config.ok_or_else(|| format!("plan lacks {}", op.name))?;
                    foreign.push((OpCase::generate(op, op_seed(args.seed, 100 + i)), config));
                }
            }
        }
    }

    out.set("server_rss_mb", server.peak_rss_mb()?);
    drop(conn);
    out.attempted += 1;
    server.stop(Duration::from_secs(30))?;

    // ---- Execution of the served schedules (moptd has exited).
    let own: Vec<(OpCase, TileConfig)> = cases
        .into_iter()
        .map(|case| {
            let config = served.get(&case.op.name).cloned();
            config.map(|c| (case, c)).ok_or_else(|| "a planned operator is missing".to_string())
        })
        .collect::<Result<_, _>>()?;
    let exec_budget = if args.trace { 0.0 } else { args.seconds / 2.0 };
    let span = tracer.begin("exec");
    let runs = execute(&own, exec_budget, tracer, out)?;
    let foreign_runs = execute(&foreign, 0.0, tracer, out)?;
    tracer.end(span);
    record_exec(&own, &runs, out);
    for ((case, _), runs) in foreign.iter().zip(&foreign_runs) {
        let run: Vec<f64> = runs.times.iter().map(|t| t.run_s).collect();
        out.set(&exec_metric(&case.op.name), median(&run) * 1e3);
    }

    if args.trace {
        let span = tracer.begin("model_rows");
        model_rows(&own, &runs, &top_k, tracer, out)?;
        tracer.end(span);
        let span = tracer.begin("solver");
        solver_rows(&ops, tracer, out);
        tracer.end(span);
        let span = tracer.begin("inproc");
        let layers = crate::inproc::measure(
            &db_dir,
            capacity,
            &keys,
            &streams[0],
            Duration::from_millis(500),
            tracer,
        )?;
        tracer.end(span);
        out.set("wire.parse_us", layers.parse_us);
        out.set("wire.serialize_us", layers.serialize_us);
        out.set("server.handle_line_us", layers.handle_line_us);
        out.set("cache.get_us", layers.cache_get_us);
        out.set("db.lookup_us", layers.db_lookup_us);
        out.set("db.rerank_us", layers.rerank_us);
        out.set("eventloop.gap_us", tcp_p50_us - layers.handle_line_us);
        out.notes.push(format!(
            "eventloop.gap_us = window-1 TCP p50 {tcp_p50_us:.1} us - handle_line {:.1} us",
            layers.handle_line_us
        ));
    }
    Ok(())
}

/// Serving metrics and gates from one load phase and the `Stats` around it.
fn record_serving(
    serve: &LoadResult,
    before: &ServiceStats,
    after: &ServiceStats,
    db_floor: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    out.attempted += serve.sent;
    out.failed += serve.failed;
    out.errors.extend(serve.errors.iter().cloned());
    out.gate(gates::check_tiers(serve.tiers, serve.sent, db_floor));
    let windows = serve.per_window();
    // A slice's p99 is reported only when at least ten samples lie beyond it.
    if windows.min_samples < 1000 {
        out.gate(Err(format!(
            "a serving slice holds only {} latency samples; p99 needs 1000",
            windows.min_samples
        )));
    }
    out.set("serve_rps", windows.rps);
    out.set("serve.p50_us", windows.p50_us);
    out.set("serve.p99_us", windows.p99_us);
    out.notes.push(format!(
        "serving: {} requests, {} replies in {:.2} s, tiers cache/db/solver {:?}, p99 {:.0} us",
        serve.sent, serve.completed, serve.elapsed_s, serve.tiers, windows.p99_us
    ));
    out.notes.push(format!(
        "serving slices: {} of {} s, {} kept (hypervisor steal {:.1}% on average), fewest latency samples in one {}",
        windows.slices,
        load::SLICE_S,
        windows.kept,
        windows.steal * 100.0,
        windows.min_samples
    ));
    let replies = serve.tiers.iter().sum::<u64>().max(1) as f64;
    out.set("tier.cache_share", serve.tiers[Tier::Cache as usize] as f64 / replies);
    out.set("tier.db_share", serve.tiers[Tier::Db as usize] as f64 / replies);
    let cache_hits = after.cache.hits - before.cache.hits;
    let cache_misses = after.cache.misses - before.cache.misses;
    out.set("cache.hit_ratio", cache_hits as f64 / (cache_hits + cache_misses).max(1) as f64);
    out.set("cache.evictions", (after.cache.evictions - before.cache.evictions) as f64);
    let (db0, db1) = match (&before.db, &after.db) {
        (Some(a), Some(b)) => (a, b),
        _ => return Err("moptd reports no schedule database".into()),
    };
    let db_hits = db1.hits - db0.hits;
    out.set("db.hit_ratio", db_hits as f64 / (db_hits + db1.misses - db0.misses).max(1) as f64);
    out.set("db.pages_loaded", (db1.store.pages_loaded - db0.store.pages_loaded) as f64);
    out.set("db.page_evictions", (db1.store.page_evictions - db0.store.page_evictions) as f64);
    let (f0, f1) = match (&before.flight, &after.flight) {
        (Some(a), Some(b)) => (&a.optimize, &b.optimize),
        _ => return Err("moptd reports no single-flight counters".into()),
    };
    out.set("flight.led", (f1.led - f0.led) as f64);
    out.set("flight.coalesced", (f1.coalesced - f0.coalesced) as f64);
    Ok(())
}

/// One operator's executions of its served schedule.
struct OpRuns {
    /// Every counted execution.
    times: Vec<ExecTiming>,
    /// The frozen reference's time in the same rounds as `times`, seconds.
    reference_s: Vec<f64>,
    /// `conv2d_naive` time, seconds.
    naive_s: f64,
    /// `conv2d_naive` output.
    reference: Tensor4,
}

/// Time every schedule round-robin, each right after the frozen reference
/// on the same inputs, until `MIN_REPS` rounds undisturbed by the
/// hypervisor are in and `budget` seconds have passed — or, on a busy
/// host, until `MIN_REPS + 1` rounds' worth of time (at least `budget`) is
/// spent. Only undisturbed rounds count when there are any. The first
/// execution of each schedule is checked against `conv2d_naive`.
fn execute(
    schedules: &[(OpCase, TileConfig)],
    budget: f64,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Result<Vec<OpRuns>, String> {
    if schedules.is_empty() {
        return Ok(Vec::new());
    }
    let mut runs: Vec<OpRuns> = schedules
        .iter()
        .enumerate()
        .map(|(i, (case, _))| {
            let (reference, naive_s) = case.reference(tracer, i as u64);
            OpRuns { times: Vec::new(), reference_s: Vec::new(), naive_s, reference }
        })
        .collect();
    let mut disturbed: Vec<Vec<(ExecTiming, f64)>> = vec![Vec::new(); schedules.len()];
    let (mut rounds, mut quiet) = (0, 0);
    let mut cap = budget;
    let started = Instant::now();
    while quiet < MIN_REPS || started.elapsed().as_secs_f64() < budget {
        let before = Ticks::now();
        let mut round = Vec::new();
        for (i, (case, config)) in schedules.iter().enumerate() {
            let (_, reference_s) = tracer.time("reference_conv", i as u64, || {
                reference_conv(case.shape(), &case.input, &case.kernel)
            });
            out.attempted += 1;
            let (timing, output) = run_schedule(case, config, None, tracer, i as u64)?;
            if rounds == 0 {
                out.gate(gates::check_output(&case.op.name, &output, &runs[i].reference));
            }
            round.push((timing, reference_s));
        }
        if rounds == 0 {
            cap = cap.max(started.elapsed().as_secs_f64() * (MIN_REPS + 1) as f64);
        }
        rounds += 1;
        let undisturbed = before.stolen_since(Ticks::now()) <= QUIET_STEAL;
        quiet += usize::from(undisturbed);
        for (i, sample) in round.into_iter().enumerate() {
            if undisturbed {
                runs[i].times.push(sample.0);
                runs[i].reference_s.push(sample.1);
            } else {
                disturbed[i].push(sample);
            }
        }
        if rounds >= MIN_REPS && started.elapsed().as_secs_f64() >= cap {
            break;
        }
    }
    if quiet == 0 {
        for (run, samples) in runs.iter_mut().zip(disturbed) {
            (run.times, run.reference_s) = samples.into_iter().unzip();
        }
    }
    out.notes.push(format!("exec rounds: {rounds}, undisturbed {quiet}"));
    Ok(runs)
}

fn median_total(times: &[ExecTiming]) -> f64 {
    median(&times.iter().map(ExecTiming::total_s).collect::<Vec<_>>())
}

fn record_exec(schedules: &[(OpCase, TileConfig)], runs: &[OpRuns], out: &mut Outcome) {
    let (mut exec_s, mut pack_s, mut naive_s, mut reference_s) = (0.0, 0.0, 0.0, 0.0);
    let (mut gflops, mut speedups) = (Vec::new(), Vec::new());
    for ((case, _), runs) in schedules.iter().zip(runs) {
        let total = median_total(&runs.times);
        exec_s += total;
        pack_s += median(&runs.times.iter().map(|t| t.pack_s).collect::<Vec<_>>());
        naive_s += runs.naive_s;
        reference_s += median(&runs.reference_s);
        gflops.push(case.flops() / total / 1e9);
        // Per round, so a change in the host's speed cancels out.
        let per_round: Vec<f64> =
            runs.reference_s.iter().zip(&runs.times).map(|(r, t)| r / t.total_s()).collect();
        let speedup = median(&per_round);
        speedups.push(speedup);
        let run = median(&runs.times.iter().map(|t| t.run_s).collect::<Vec<_>>());
        out.set(&exec_metric(&case.op.name), run * 1e3);
        out.notes.push(format!(
            "exec {:<5} {:>9.3} ms  {:>6.3} GFLOP/s  {:>6.3}x the frozen reference  ({} rounds)",
            case.op.name,
            total * 1e3,
            case.flops() / total / 1e9,
            speedup,
            runs.times.len()
        ));
    }
    out.set("exec_speedup", geometric_mean(&speedups));
    out.set("exec.total_ms", exec_s * 1e3);
    out.set("exec.gflops", geometric_mean(&gflops));
    out.set("exec.pack_ms", pack_s * 1e3);
    out.set("exec.naive_ms", naive_s * 1e3);
    out.set("exec.reference_ms", reference_s * 1e3);
}

/// The model-vs-measured and SIMD rows: every ranked top-k schedule is
/// executed, and MOpt-1 is re-run on the scalar backend (against its
/// dispatched-backend median from the exec phase).
fn model_rows(
    schedules: &[(OpCase, TileConfig)],
    runs: &[OpRuns],
    top_k: &[Vec<OptimizedConfig>],
    tracer: &Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let backend = active_backend();
    let (mut rhos, mut regrets, mut simd) = (Vec::new(), Vec::new(), Vec::new());
    let mut losses = 0;
    for (i, (((case, config), runs), ranked)) in schedules.iter().zip(runs).zip(top_k).enumerate() {
        let reference = &runs.reference;
        let mopt1 = median_total(&runs.times);
        out.attempted += 1;
        let (scalar, output) =
            run_schedule(case, config, Some(SimdBackend::Scalar), tracer, i as u64)?;
        out.gate(gates::check_output(&case.op.name, &output, reference));
        simd.push(scalar.total_s() / mopt1);
        if ranked.first().map(|c| &c.config) != Some(config) {
            out.gate(Err(format!("{}: the plan's best is not rank 1 of Optimize", case.op.name)));
        }
        // Every ranked schedule, MOpt-1 included, under one protocol:
        // round-robin rounds until the per-operator budget is spent.
        let mut samples = vec![Vec::new(); ranked.len()];
        let started = Instant::now();
        for round in 0..TOP_K_MAX_ROUNDS {
            for (j, candidate) in ranked.iter().enumerate() {
                out.attempted += 1;
                let (timing, output) =
                    run_schedule(case, &candidate.config, None, tracer, i as u64)?;
                if round == 0 {
                    out.gate(gates::check_output(&case.op.name, &output, reference));
                }
                samples[j].push(timing.total_s());
            }
            if started.elapsed().as_secs_f64() >= TOP_K_BUDGET_S {
                break;
            }
        }
        let measured: Vec<f64> = samples.iter().map(|s| median(s)).collect();
        let predicted: Vec<f64> = ranked.iter().map(|c| c.predicted_cost).collect();
        let rho = spearman_correlation(&predicted, &measured);
        let best = measured.iter().copied().fold(f64::INFINITY, f64::min);
        let regret = measured[0] / best;
        if regret > LOSS_MARGIN {
            losses += 1;
        }
        rhos.push(rho);
        regrets.push(regret);
        out.notes.push(format!(
            "model {:<5} rho {rho:>6.3}  MOpt-1 regret {regret:>6.3}  measured ms {:?}  backend {backend}  scalar/{backend} {:.3}",
            case.op.name,
            measured.iter().map(|t| (t * 1e4).round() / 10.0).collect::<Vec<_>>(),
            scalar.total_s() / mopt1,
        ));
    }
    out.set("model.rank_rho", rhos.iter().sum::<f64>() / rhos.len().max(1) as f64);
    out.set("model.mopt1_regret", geometric_mean(&regrets));
    out.set("model.mopt1_losses", losses as f64);
    out.set("exec.simd_speedup", geometric_mean(&simd));
    Ok(())
}

/// Traced solves at the server's default options, timed per operator, on
/// `WORKERS` threads.
fn solver_rows(ops: &[BenchmarkOp], tracer: &Tracer, out: &mut Outcome) {
    let next = std::sync::atomic::AtomicUsize::new(0);
    let results = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..WORKERS {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(op) = ops.get(i) else { break };
                let optimizer = MOptOptimizer::for_spec(
                    &Spec::Conv(op.shape),
                    MachineModel::i7_9700k(),
                    OptimizerOptions::default(),
                );
                let ((_, trace), seconds) =
                    tracer.time("MOptOptimizer::optimize_traced", i as u64, || {
                        optimizer.optimize_traced()
                    });
                results.lock().expect("solver thread panicked").push((seconds, trace));
            });
        }
    });
    let results = results.into_inner().expect("solver thread panicked");
    let ms: Vec<f64> = results.iter().map(|(s, _)| s * 1e3).collect();
    out.set("optimizer.solve_ms_p50", median(&ms));
    out.set("optimizer.solve_ms_max", ms.iter().copied().fold(0.0, f64::max));
    out.set("optimizer.enumerated", results.iter().map(|(_, t)| t.enumerated as f64).sum());
    out.set(
        "optimizer.capacity_pruned",
        results.iter().map(|(_, t)| t.capacity_pruned as f64).sum(),
    );
    out.set(
        "optimizer.classes_searched",
        results.iter().map(|(_, t)| t.classes_searched as f64).sum(),
    );
}
