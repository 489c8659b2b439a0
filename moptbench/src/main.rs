//! Command-line entry point: run one workload and print its report, then one
//! JSON result line.
//!
//! ```text
//! moptbench --workload <resnet18|serve_mix> --seed N --seconds S --trace <0|1>
//!           [--work-dir DIR]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones, as `BENCHMARK.json` (read from the working directory) lists them.
//! The `moptd` binary is taken from `$MOPTD`.

use std::path::PathBuf;
use std::process::ExitCode;

use moptbench::workload::{self, RunArgs, WORKLOADS};

/// The metric lists and the db-tier floor, as `BENCHMARK.json` records them.
struct Manifest {
    end_to_end: Vec<(String, String)>,
    per_layer: Vec<(String, String)>,
    db_floor: f64,
}

/// Marker before the db-tier floor in the `serve_mix` workload's `why`.
const FLOOR_MARKER: &str = "db share >= ";

fn load_manifest() -> Result<Manifest, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let doc = serde_json::parse_value(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let metrics = |section: &str| -> Result<Vec<(String, String)>, String> {
        let entries = doc.get(section).and_then(|v| v.as_array()).ok_or(format!("no {section}"))?;
        entries
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(|v| v.as_str()).map(str::to_string);
                field("name").zip(field("unit")).ok_or(format!("malformed {section} entry"))
            })
            .collect()
    };
    let why = doc
        .get("workloads")
        .and_then(|w| w.as_array())
        .and_then(|ws| {
            ws.iter().find(|w| w.get("name").and_then(|n| n.as_str()) == Some("serve_mix"))
        })
        .and_then(|w| w.get("why"))
        .and_then(|w| w.as_str())
        .ok_or("BENCHMARK.json has no serve_mix why")?;
    let floor = why
        .split_once(FLOOR_MARKER)
        .map(|(_, rest)| rest.split(|c: char| !c.is_ascii_digit() && c != '.').next().unwrap_or(""))
        .and_then(|number| number.parse::<f64>().ok())
        .ok_or(format!("the serve_mix why records no `{FLOOR_MARKER}<floor>`"))?;
    Ok(Manifest {
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
        db_floor: floor,
    })
}

fn parse_args(manifest: &Manifest) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work_dir = PathBuf::from(".bench_build/moptbench");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| w.name == name)
                        .ok_or(format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--work-dir" => work_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let moptd =
        std::env::var_os("MOPTD").map(PathBuf::from).ok_or("set MOPTD to the moptd binary")?;
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.filter(|s| *s > 0.0).ok_or("--seconds (> 0) is required")?,
        trace: trace.ok_or("--trace is required")?,
        moptd,
        work_dir,
        db_floor: manifest.db_floor,
    })
}

fn machine_line() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "machine: nproc {nproc}, cpu {cpu}, simd backend {} (detected {})",
        conv_exec::active_backend(),
        conv_exec::detected_backend()
    )
}

fn main() -> ExitCode {
    let manifest = match load_manifest() {
        Ok(manifest) => manifest,
        Err(e) => {
            eprintln!("moptbench: {e}");
            return ExitCode::from(2);
        }
    };
    let args = match parse_args(&manifest) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("moptbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match workload::run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("moptbench: {} failed: {e}", args.workload.name);
            return ExitCode::from(1);
        }
    };

    println!("workload {} seed {} trace {}", args.workload.name, args.seed, u8::from(args.trace));
    println!("{}", machine_line());
    for note in &outcome.notes {
        println!("{note}");
    }
    let listed = if args.trace { &manifest.per_layer } else { &manifest.end_to_end };
    let mut metrics = Vec::new();
    for (name, unit) in listed {
        let Some(&value) = outcome.metrics.get(name) else {
            eprintln!("moptbench: metric {name} was not measured");
            return ExitCode::from(1);
        };
        if !value.is_finite() {
            eprintln!("moptbench: metric {name} is {value}");
            return ExitCode::from(1);
        }
        println!("{name:<32} {value:>16.6} {unit}");
        metrics.push(format!("{}:{{\"value\":{value},\"unit\":{}}}", quote(name), quote(unit)));
    }
    for error in &outcome.errors {
        println!("FAILED: {error}");
    }
    let correct = outcome.errors.is_empty() && outcome.failed == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn quote(text: &str) -> String {
    serde_json::to_string(text).expect("a string always serializes")
}
