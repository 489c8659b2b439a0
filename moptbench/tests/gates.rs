//! Each correctness gate trips on the fault it exists to catch.
//!
//! The server tests drive the real `moptd` named by `$MOPTD`; run them with
//! `bash moptbench/run.sh --self-test`, which builds it first.

use std::path::PathBuf;
use std::time::Duration;

use conv_exec::naive::conv2d_naive;
use conv_spec::{benchmarks, ConvShape, MachineModel};
use mopt_core::OptimizerOptions;
use mopt_service::batch::NamedLayer;
use mopt_service::{MachineSpec, Request, Response};
use moptbench::exec::{run_schedule, OpCase};
use moptbench::gates::{check_cold_plan, check_output, check_tiers};
use moptbench::load::{self, LoadConfig};
use moptbench::moptd::{Moptd, ServerOptions};
use moptbench::spans::Tracer;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn moptd() -> PathBuf {
    PathBuf::from(
        std::env::var_os("MOPTD").expect("set MOPTD (bash moptbench/run.sh --self-test does)"),
    )
}

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("moptbench-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn perturbed_output_fails_the_naive_check() {
    let op = benchmarks::by_name("V9").expect("V9 exists");
    let case = OpCase::generate(&op, 3);
    let machine = MachineModel::i7_9700k();
    let config = mopt_core::optimizer::heuristic_config(&op.shape, &machine);
    let (_, output) = run_schedule(&case, &config, None, &Tracer::new(false), 0).expect("runs");
    let reference = conv2d_naive(&op.shape, &case.input, &case.kernel);
    assert_eq!(check_output("V9", &output, &reference), Ok(()));

    let mut perturbed = output.clone();
    perturbed.as_mut_slice()[17] += 0.01;
    assert!(check_output("V9", &perturbed, &reference).is_err());
}

/// A small explicit-layer plan with fast options, so the test stays quick.
fn small_plan() -> Request {
    Request::PlanNetwork {
        suite: None,
        layers: Some(vec![
            NamedLayer::conv("a", ConvShape::new(1, 8, 4, 3, 3, 10, 10, 1).expect("valid")),
            NamedLayer::conv("b", ConvShape::depthwise(8, 10, 3, 1)),
        ]),
        machine: MachineSpec::Preset("tiny".into()),
        options: Some(OptimizerOptions { max_classes: 1, ..OptimizerOptions::fast() }),
        threads: Some(1),
        workers: Some(2),
        trace: None,
    }
}

fn plan_and_check(db: Option<&std::path::Path>, dir: &std::path::Path) -> Result<(), String> {
    let options = ServerOptions { db, capacity: 64, workers: 2 };
    let server = Moptd::spawn(&moptd(), &options, &dir.join("moptd.log"))?;
    let mut conn = server.connect()?;
    let Response::Planned { plan, .. } = conn.request(&small_plan())? else {
        return Err("not a plan".into());
    };
    let Response::Stats { stats } = conn.request(&Request::Stats)? else {
        return Err("not stats".into());
    };
    drop(conn);
    server.stop(Duration::from_secs(30))?;
    check_cold_plan(&plan.stats, stats.db.as_ref())
}

#[test]
fn cold_plan_gate_trips_without_a_database() {
    let dir = scratch("nodb");
    assert_eq!(plan_and_check(Some(&dir.join("db")), &dir), Ok(()));
    let without = plan_and_check(None, &dir);
    assert!(without.as_ref().is_err_and(|e| e.contains("no schedule database")), "{without:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Serve the mobilenetv2 keys for one second from a database populated by
/// a cold plan, and apply the tier gate.
fn serve_and_check(
    capacity: usize,
    db: &std::path::Path,
    dir: &std::path::Path,
) -> Result<(), String> {
    let options = ServerOptions { db: Some(db), capacity, workers: 2 };
    let server = Moptd::spawn(&moptd(), &options, &dir.join("moptd.log"))?;
    let keys = load::keys(&benchmarks::mobilenet_v2());
    let streams = load::zipf_streams(keys.len(), 2, 4096, &mut StdRng::seed_from_u64(5));
    let config = LoadConfig {
        window: 16,
        duration: Duration::from_secs(1),
        trace_every: 0,
        validate_every: 256,
        start: 0,
    };
    let result = load::closed_loop(server.port(), &keys, &streams, &config, &Tracer::new(false));
    server.stop(Duration::from_secs(30))?;
    if result.failed > 0 {
        return Err(format!("serving failed: {:?}", result.errors));
    }
    check_tiers(result.tiers, result.sent, 0.15)
}

#[test]
fn tier_gate_trips_when_the_cache_holds_every_key() {
    let dir = scratch("tiers");
    let db = dir.join("db");
    {
        let options = ServerOptions { db: Some(&db), capacity: 64, workers: 2 };
        let server =
            Moptd::spawn(&moptd(), &options, &dir.join("populate.log")).expect("moptd starts");
        let mut conn = server.connect().expect("connects");
        let populate = Request::PlanNetwork {
            suite: Some("mobilenetv2".into()),
            layers: None,
            machine: MachineSpec::Preset("i7-9700k".into()),
            options: None,
            threads: Some(1),
            workers: Some(2),
            trace: None,
        };
        assert!(matches!(conn.request(&populate), Ok(Response::Planned { .. })));
        drop(conn);
        server.stop(Duration::from_secs(30)).expect("drains");
    }
    // 72 keys: a cache below the key count keeps missing into the db tier.
    assert_eq!(serve_and_check(18, &db, &dir), Ok(()));
    let roomy = serve_and_check(4096, &db, &dir);
    assert!(roomy.as_ref().is_err_and(|e| e.contains("below the floor")), "{roomy:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tier_gate_trips_on_solver_replies_and_lost_requests() {
    assert_eq!(check_tiers([700, 300, 0], 1000, 0.15), Ok(()));
    assert!(check_tiers([700, 299, 1], 1000, 0.15).is_err());
    assert!(check_tiers([700, 290, 0], 1000, 0.15).is_err());
}
