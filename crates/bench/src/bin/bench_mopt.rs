//! `bench_mopt` — the serving-stack benchmark harness.
//!
//! Drives one benchmark suite through a [`mopt_service::ServiceState`] three
//! times — cold (optimizer solves), warm (in-process cache), and db-warm (a
//! fresh process over the populated schedule database, zero solves) — and
//! emits a machine-readable `BENCH_mopt.json` with per-phase solve
//! latencies, cache and database hit rates, the fused-vs-unfused DRAM
//! traffic of a MobileNetV2 block plan, and measured executor GFLOP/s
//! (scalar tiled vs blocked NCHWc vs the runtime-dispatched SIMD
//! microkernel) on a representative shape. CI runs this to keep the
//! persistence-tier and executor numbers visible per commit.
//!
//! ```text
//! bench_mopt [--out BENCH_mopt.json] [--suite mobilenetv2] [--preset i7] [--threads N]
//! ```

use std::time::Instant;

use conv_exec::{
    active_backend, ExecStats, NchwcConv, PackedKernel, SimdBackend, Tensor4, TiledConv,
};
use conv_spec::{ConvShape, LayoutConfig, MachineModel};
use mopt_core::{MOptOptimizer, OptimizerOptions};
use mopt_service::{
    DbTierStats, FlightBreakdown, MachineSpec, Request, Response, ServiceState, Tier,
};
use serde::Serialize;

/// Latency attribution for one serving tier within a phase.
#[derive(Debug, Default, Serialize)]
struct TierLatency {
    /// Requests this tier answered.
    requests: usize,
    /// Total wall-clock microseconds spent in those requests.
    total_micros: f64,
    /// Mean per-request latency in microseconds (0 when the tier served
    /// nothing).
    mean_micros: f64,
    /// Worst per-request latency in microseconds.
    max_micros: f64,
}

impl TierLatency {
    fn record(&mut self, micros: f64) {
        self.requests += 1;
        self.total_micros += micros;
        self.max_micros = self.max_micros.max(micros);
    }

    fn finish(&mut self) {
        if self.requests > 0 {
            self.mean_micros = self.total_micros / self.requests as f64;
        }
    }
}

/// Latency summary for one serving phase.
#[derive(Debug, Serialize)]
struct PhaseLatency {
    /// Requests issued.
    requests: usize,
    /// Requests answered by the in-process cache.
    cache_tier: usize,
    /// Requests answered by the schedule database (re-rank, no solve).
    db_tier: usize,
    /// Requests answered by a fresh optimizer solve.
    solver_tier: usize,
    /// Total wall-clock seconds across the phase.
    total_seconds: f64,
    /// Mean per-request latency in microseconds.
    mean_micros: f64,
    /// Worst per-request latency in microseconds.
    max_micros: f64,
    /// Latency attributed to requests the in-process cache answered.
    cache_latency: TierLatency,
    /// Latency attributed to requests the schedule database answered.
    db_latency: TierLatency,
    /// Latency attributed to requests that ran an optimizer solve.
    solver_latency: TierLatency,
}

#[derive(Debug, Serialize)]
struct Report {
    suite: String,
    preset: String,
    threads: usize,
    /// Empty state, no database content: every request is a solve.
    cold: PhaseLatency,
    /// Same process again: every request is an in-process cache hit.
    warm: PhaseLatency,
    /// A fresh process over the populated database: every request is a
    /// db-tier re-rank, zero optimizer solves.
    db_warm: PhaseLatency,
    /// Cache hit fraction over the cold+warm phases.
    cache_hit_rate: f64,
    /// Db-tier hit fraction in the db-warm process.
    db_hit_rate: f64,
    /// The db-warm process's full database-tier counters.
    db: DbTierStats,
    /// Modeled DRAM traffic (elements) of the fused MobileNetV2 block plan.
    fused_volume: f64,
    /// Modeled DRAM traffic (elements) of the same block planned per-layer.
    unfused_volume: f64,
    /// fused / unfused (< 1.0 when fusion pays).
    fused_traffic_ratio: f64,
    /// Single-flight counters after the sequential cold+warm phases: every
    /// solve led its own flight, nothing coalesced.
    flight: FlightBreakdown,
    /// Concurrent clients in the thundering-herd phase.
    herd_clients: usize,
    /// Flight counters of the herd phase alone: `led + coalesced ==
    /// herd_clients`, with exactly one led solve when coalescing works.
    herd_flight: FlightBreakdown,
    /// Measured executor throughput on a representative conv shape: scalar
    /// tiled loop nest, blocked-NCHWc executor, and the runtime-dispatched
    /// SIMD microkernel.
    exec: ExecReport,
}

/// One executor's measured throughput row in the `exec` section.
#[derive(Debug, Serialize)]
struct ExecutorThroughput {
    /// `tiled-scalar`, `nchwc`, or `microkernel-simd`.
    executor: String,
    /// The microkernel backend the run dispatched to (`scalar` / `avx2fma`).
    backend: String,
    /// The data layout the executor ran under (see `LayoutConfig::tag`).
    layout: String,
    /// Best-of-repeats wall-clock seconds for one convolution.
    seconds: f64,
    /// `flops / seconds / 1e9` for the best repeat.
    gflops: f64,
    /// Worst absolute element difference against the scalar tiled output
    /// (0.0 for scalar executors; ULP-bounded for FMA backends).
    max_abs_delta: f64,
    /// Vector FMA instructions the run issued (0 on the scalar backend). A
    /// row dispatched to `avx2fma` with 0 here never ran the vector path.
    vector_steps: u64,
    /// `gflops` as a fraction of the machine *preset's* peak
    /// ([`ExecReport::preset_peak_gflops`]), not of the host's.
    peak_fraction: f64,
}

/// Measured executor throughput on one representative conv shape.
#[derive(Debug, Serialize)]
struct ExecReport {
    /// The shape driven through every executor.
    shape: ConvShape,
    /// FLOPs of one convolution (multiply + add counted separately).
    flops: usize,
    /// Timed repeats per executor; `seconds` is the best of them.
    repeats: usize,
    /// The machine preset the schedule was optimized for.
    preset: String,
    /// The preset's peak, `simd_width × fma_units × 2 × clock_ghz` GFLOP/s.
    preset_peak_gflops: f64,
    /// One row per executor.
    executors: Vec<ExecutorThroughput>,
}

/// Time one executor: a warmup run (also the correctness sample), then
/// `repeats` timed runs keeping the best.
fn time_exec<T>(repeats: usize, mut run: impl FnMut() -> T) -> (f64, T) {
    let output = run();
    let mut best = f64::INFINITY;
    for _ in 0..repeats {
        let started = Instant::now();
        let out = run();
        best = best.min(started.elapsed().as_secs_f64());
        std::hint::black_box(out);
    }
    (best, output)
}

/// Benchmark the three executors on one representative conv shape, using the
/// schedule the optimizer itself picks for that shape. The scalar tiled loop
/// nest is the reference: the other rows report their worst element delta
/// against it (exactly 0.0 unless an FMA backend fuses roundings). Every
/// timed run includes kernel packing.
fn run_exec_bench(repeats: usize) -> ExecReport {
    // ResNet-ish mid-layer: SIMD-friendly channel counts, big enough that
    // throughput is memory-plus-compute, small enough for a debug-build run.
    let shape = ConvShape::new_general(1, 64, 64, 3, 3, 28, 28, 1, 1, 1).expect("bench shape");
    let machine = MachineModel::i7_9700k();
    let options = OptimizerOptions { max_classes: 1, ..OptimizerOptions::fast() };
    let config =
        MOptOptimizer::new(shape, machine.clone(), options).optimize().best().config.clone();

    let input = Tensor4::random(shape.n, shape.c, shape.input_h(), shape.input_w(), 11);
    let kernel = Tensor4::random(shape.k, shape.reduction_c(), shape.r, shape.s, 13);

    let tiled = |backend| {
        let exec =
            TiledConv::new(shape, config.clone(), 1).expect("tiled executor").with_backend(backend);
        time_exec(repeats, || {
            exec.run_packed_with_stats(&input, &PackedKernel::pack(&shape, &kernel, 8))
        })
    };
    let (scalar_seconds, (reference, scalar_stats)) = tiled(SimdBackend::Scalar);
    let (simd_seconds, (simd_out, simd_stats)) = tiled(active_backend());

    let blocked = NchwcConv::new(shape, config.with_layout(LayoutConfig::blocked(8)), 1)
        .expect("nchwc executor");
    let (nchwc_seconds, (nchwc_out, nchwc_stats)) =
        time_exec(repeats, || blocked.run_with_stats(&input, &kernel));

    let flops = shape.flops();
    let preset_peak_gflops =
        (machine.simd_width * machine.fma_units * 2) as f64 * machine.clock_ghz;
    let row = |executor: &str,
               backend: SimdBackend,
               layout: &LayoutConfig,
               seconds: f64,
               out: &Tensor4,
               stats: ExecStats| {
        let gflops = flops as f64 / seconds / 1e9;
        ExecutorThroughput {
            executor: executor.to_string(),
            backend: backend.name().to_string(),
            layout: layout.tag(),
            seconds,
            gflops,
            max_abs_delta: reference
                .as_slice()
                .iter()
                .zip(out.as_slice())
                .map(|(a, b)| (a - b).abs() as f64)
                .fold(0.0f64, f64::max),
            vector_steps: stats.vector_steps,
            peak_fraction: gflops / preset_peak_gflops,
        }
    };
    let default_layout = LayoutConfig::default();
    let blocked_layout = LayoutConfig::blocked(8);
    let executors = vec![
        row(
            "tiled-scalar",
            SimdBackend::Scalar,
            &default_layout,
            scalar_seconds,
            &reference,
            scalar_stats,
        ),
        row("nchwc", active_backend(), &blocked_layout, nchwc_seconds, &nchwc_out, nchwc_stats),
        row(
            "microkernel-simd",
            active_backend(),
            &default_layout,
            simd_seconds,
            &simd_out,
            simd_stats,
        ),
    ];
    ExecReport {
        shape,
        flops,
        repeats,
        preset: machine.name.clone(),
        preset_peak_gflops,
        executors,
    }
}

/// Thundering-herd phase: `clients` threads issue the same cold `Optimize`
/// concurrently against a fresh state; the single-flight layer should run
/// one solve and coalesce the rest onto it. The solve window is widened
/// (the same hook the stress tests use) so the measurement is about the
/// counters, not scheduler luck — herd latency is intentionally not
/// reported.
fn run_herd(preset: &str, threads: usize, clients: usize) -> FlightBreakdown {
    let state = std::sync::Arc::new(ServiceState::new(64));
    state.set_test_solve_delay(std::time::Duration::from_millis(200));
    let request = Request::Optimize {
        spec: None,
        op: Some("Y0".to_string()),
        shape: None,
        machine: MachineSpec::Preset(preset.to_string()),
        options: Some(OptimizerOptions { max_classes: 1, ..OptimizerOptions::fast() }),
        threads: Some(threads),
        trace: None,
    };
    let gate = std::sync::Arc::new(std::sync::Barrier::new(clients));
    std::thread::scope(|scope| {
        for _ in 0..clients {
            let (state, request, gate) = (state.clone(), request.clone(), gate.clone());
            scope.spawn(move || {
                gate.wait();
                match state.handle(&request) {
                    Response::Optimized { .. } => {}
                    other => panic!("bench_mopt: herd Optimize failed: {other:?}"),
                }
            });
        }
    });
    state.flight_stats()
}

fn run_phase(state: &ServiceState, suite: &str, preset: &str, threads: usize) -> PhaseLatency {
    let ops: Vec<String> = conv_spec::benchmarks::extended_operators()
        .iter()
        .filter(|op| {
            op.suite.name().to_ascii_lowercase().replace(['-', '_'], "").contains(suite)
                || suite == "extended"
        })
        .map(|op| op.name.clone())
        .collect();
    assert!(!ops.is_empty(), "suite `{suite}` selected no operators");
    let options = OptimizerOptions { max_classes: 1, ..OptimizerOptions::fast() };
    let mut cache_latency = TierLatency::default();
    let mut db_latency = TierLatency::default();
    let mut solver_latency = TierLatency::default();
    let mut total_seconds = 0.0;
    let mut max_micros: f64 = 0.0;
    for op in &ops {
        let request = Request::Optimize {
            spec: None,
            op: Some(op.clone()),
            shape: None,
            machine: MachineSpec::Preset(preset.to_string()),
            options: Some(options.clone()),
            threads: Some(threads),
            trace: None,
        };
        let started = Instant::now();
        let response = state.handle(&request);
        let elapsed = started.elapsed().as_secs_f64();
        total_seconds += elapsed;
        max_micros = max_micros.max(elapsed * 1e6);
        match response {
            Response::Optimized { tier, .. } => match tier {
                Some(Tier::Cache) => cache_latency.record(elapsed * 1e6),
                Some(Tier::Db) => db_latency.record(elapsed * 1e6),
                Some(Tier::Solver) | None => solver_latency.record(elapsed * 1e6),
            },
            other => panic!("bench_mopt: Optimize for {op} failed: {other:?}"),
        }
    }
    cache_latency.finish();
    db_latency.finish();
    solver_latency.finish();
    PhaseLatency {
        requests: ops.len(),
        cache_tier: cache_latency.requests,
        db_tier: db_latency.requests,
        solver_tier: solver_latency.requests,
        total_seconds,
        mean_micros: total_seconds * 1e6 / ops.len() as f64,
        max_micros,
        cache_latency,
        db_latency,
        solver_latency,
    }
}

fn fused_traffic(state: &ServiceState, preset: &str) -> (f64, f64) {
    let request = Request::PlanGraph {
        block: Some("mbv2-block5".into()),
        graph: None,
        machine: MachineSpec::Preset(preset.to_string()),
        options: Some(OptimizerOptions { max_classes: 1, ..OptimizerOptions::fast() }),
        threads: None,
        workers: Some(4),
        trace: None,
    };
    match state.handle(&request) {
        Response::GraphPlanned { plan, .. } => (plan.fused_volume, plan.unfused_volume),
        other => panic!("bench_mopt: PlanGraph failed: {other:?}"),
    }
}

fn main() {
    let mut out = std::path::PathBuf::from("BENCH_mopt.json");
    let mut suite = "mobilenetv2".to_string();
    let mut preset = "i7".to_string();
    let mut threads = 4usize;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out = it.next().expect("--out needs a path").into(),
            "--suite" => suite = it.next().expect("--suite needs a name").to_ascii_lowercase(),
            "--preset" => preset = it.next().expect("--preset needs a name"),
            "--threads" => {
                threads = it.next().expect("--threads needs a number").parse().expect("--threads")
            }
            "--help" | "-h" => {
                println!(
                    "bench_mopt — serving-stack benchmark harness\n\n\
                     USAGE:\n  bench_mopt [--out BENCH_mopt.json] [--suite mobilenetv2] \
                     [--preset i7] [--threads N]\n\n\
                     Emits cold / warm / db-warm solve latency, cache + db hit rates, and\n\
                     fused-vs-unfused DRAM traffic as JSON."
                );
                return;
            }
            other => {
                eprintln!("bench_mopt: unknown argument `{other}` (try --help)");
                std::process::exit(2);
            }
        }
    }

    let db_dir = std::env::temp_dir().join(format!("bench-mopt-db-{}", std::process::id()));
    std::fs::remove_dir_all(&db_dir).ok();

    // Cold and warm phases share one process; cold solves write through to
    // the database.
    let state = ServiceState::new(512).with_db(db_dir.clone()).expect("open bench db");
    let cold = run_phase(&state, &suite, &preset, threads);
    let warm = run_phase(&state, &suite, &preset, threads);
    let cache_stats = state.cache.stats();
    let cache_hit_rate = if cache_stats.hits + cache_stats.misses == 0 {
        0.0
    } else {
        cache_stats.hits as f64 / (cache_stats.hits + cache_stats.misses) as f64
    };
    state.db().expect("db attached").flush().expect("flush bench db");

    // Db-warm phase: a fresh process image — empty cache, populated db.
    let fresh = ServiceState::new(512).with_db(db_dir.clone()).expect("reopen bench db");
    let db_warm = run_phase(&fresh, &suite, &preset, threads);
    let db_stats = fresh.db().expect("db attached").stats();
    let db_hit_rate = db_stats.hit_rate();

    let (fused_volume, unfused_volume) = fused_traffic(&fresh, &preset);

    let herd_clients = 8;
    let herd_flight = run_herd(&preset, threads, herd_clients);

    let exec = run_exec_bench(3);

    let report = Report {
        suite,
        preset,
        threads,
        cold,
        warm,
        db_warm,
        cache_hit_rate,
        db_hit_rate,
        db: db_stats,
        fused_volume,
        unfused_volume,
        fused_traffic_ratio: fused_volume / unfused_volume,
        flight: state.flight_stats(),
        herd_clients,
        herd_flight,
        exec,
    };
    let text = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&out, &text).expect("write report");
    println!("{text}");
    eprintln!("bench_mopt: report written to {}", out.display());
    std::fs::remove_dir_all(&db_dir).ok();

    // Self-check: per-tier latency attribution must account for every
    // request in every phase, so consumers of BENCH_mopt.json can trust it.
    for phase in [&report.cold, &report.warm, &report.db_warm] {
        let attributed = phase.cache_latency.requests
            + phase.db_latency.requests
            + phase.solver_latency.requests;
        if attributed != phase.requests {
            eprintln!(
                "bench_mopt: tier attribution covers {attributed} of {} requests",
                phase.requests
            );
            std::process::exit(1);
        }
    }
    // Self-check: the db-warm phase must have run without optimizer solves.
    if report.db_warm.solver_tier != 0 {
        eprintln!(
            "bench_mopt: db-warm phase ran {} optimizer solves (expected 0)",
            report.db_warm.solver_tier
        );
        std::process::exit(1);
    }
    // Self-checks on the coalescing counters: sequential phases never
    // coalesce, and the herd accounts for every client exactly once, with
    // exactly one led solve inside the widened window.
    if report.flight.optimize.coalesced != 0 {
        eprintln!("bench_mopt: sequential phases reported coalesced solves");
        std::process::exit(1);
    }
    let herd = &report.herd_flight.optimize;
    if herd.led != 1 || (herd.led + herd.coalesced) as usize != report.herd_clients {
        eprintln!(
            "bench_mopt: herd counters inconsistent (led {}, coalesced {}, clients {})",
            herd.led, herd.coalesced, report.herd_clients
        );
        std::process::exit(1);
    }
    // Self-checks on the executor rows: throughput is finite and positive,
    // seconds·gflops reproduces the shape's FLOPs, peak_fraction is gflops
    // over the preset peak, and every executor agrees with the scalar
    // reference to FMA rounding tolerance.
    for exec_row in &report.exec.executors {
        let rebuilt = exec_row.gflops * exec_row.seconds * 1e9;
        let flops = report.exec.flops as f64;
        let peak = exec_row.peak_fraction * report.exec.preset_peak_gflops;
        if !(exec_row.gflops.is_finite() && exec_row.gflops > 0.0)
            || (rebuilt - flops).abs() > flops * 1e-6
            || (peak - exec_row.gflops).abs() > exec_row.gflops * 1e-9
            || exec_row.max_abs_delta > 1e-4
        {
            eprintln!(
                "bench_mopt: executor row `{}` inconsistent \
                 (gflops {}, seconds {}, max_abs_delta {})",
                exec_row.executor, exec_row.gflops, exec_row.seconds, exec_row.max_abs_delta
            );
            std::process::exit(1);
        }
        // Self-check: a row dispatched to the vector backend must have run
        // the vector path.
        if exec_row.executor == "microkernel-simd"
            && exec_row.backend == SimdBackend::Avx2Fma.name()
            && exec_row.vector_steps == 0
        {
            eprintln!("bench_mopt: microkernel-simd dispatched to avx2fma ran 0 vector steps");
            std::process::exit(1);
        }
    }
}
