//! Output-correctness gates. Each returns `Err` with the reason when the
//! run's outputs are wrong; the benchmark's tests show each one tripping.

use conv_exec::Tensor4;
use mopt_service::{DbTierStats, PlanStats};

/// Tolerance of the executor check against `conv2d_naive`.
pub const TOLERANCE: f32 = 1e-3;

/// A served schedule's output must match the naive reference.
pub fn check_output(op: &str, output: &Tensor4, reference: &Tensor4) -> Result<(), String> {
    if output.allclose(reference, TOLERANCE) {
        Ok(())
    } else {
        let delta = if output.dims() == reference.dims() {
            output.max_abs_diff(reference)
        } else {
            f32::INFINITY
        };
        Err(format!("{op}: executed schedule differs from conv2d_naive (max |delta| {delta})"))
    }
}

/// A cold `PlanNetwork` into an empty database must solve every unique
/// shape and write each solve through to the database.
pub fn check_cold_plan(stats: &PlanStats, db: Option<&DbTierStats>) -> Result<(), String> {
    if stats.solves != stats.unique_shapes {
        return Err(format!(
            "cold plan solved {} of {} unique shapes",
            stats.solves, stats.unique_shapes
        ));
    }
    let db = db.ok_or("moptd reports no schedule database (started without --db?)")?;
    if db.inserts != stats.solves as u64 {
        return Err(format!("{} solves but {} database inserts", stats.solves, db.inserts));
    }
    Ok(())
}

/// The warm-serving phase must never reach the solver, must account for
/// every request sent, and must draw at least `db_floor` of its replies
/// from the database tier (so the db path is really exercised).
pub fn check_tiers(tiers: [u64; 3], sent: u64, db_floor: f64) -> Result<(), String> {
    let [cache, db, solver] = tiers;
    if solver != 0 {
        return Err(format!("{solver} warm requests were answered by the solver"));
    }
    if cache + db + solver != sent {
        return Err(format!(
            "tier counts sum to {} but {sent} requests were sent",
            cache + db + solver
        ));
    }
    let share = db as f64 / sent.max(1) as f64;
    if share < db_floor {
        return Err(format!("db-tier share {share:.3} is below the floor {db_floor}"));
    }
    Ok(())
}
