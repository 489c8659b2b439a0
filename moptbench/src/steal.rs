//! Hypervisor steal: CPU time the host withheld from this VM's vCPUs.
//!
//! On a shared host, whole seconds can pass with the vCPUs descheduled.
//! Serving slices and executor rounds in which that happened are set aside
//! (see `QUIET_STEAL`), so a busy neighbour moves the figures less than a
//! change to the program does.

/// A slice or round counts as undisturbed when at most this share of the
/// machine's CPU time was stolen during it.
pub const QUIET_STEAL: f64 = 0.02;

/// Aggregate `(steal, total)` CPU time counters from `/proc/stat`.
#[derive(Debug, Clone, Copy)]
pub struct Ticks(Option<(u64, u64)>);

impl Ticks {
    /// Read the counters now (`None` inside when `/proc/stat` is missing).
    pub fn now() -> Self {
        let read = || {
            let stat = std::fs::read_to_string("/proc/stat").ok()?;
            let fields: Vec<u64> = stat
                .lines()
                .next()?
                .split_whitespace()
                .skip(1)
                .filter_map(|f| f.parse().ok())
                .collect();
            Some((*fields.get(7)?, fields.iter().sum()))
        };
        Ticks(read())
    }

    /// Share of the CPU time since `self` that was stolen (0 when unknown).
    pub fn stolen_since(self, later: Ticks) -> f64 {
        match (self.0, later.0) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
            _ => 0.0,
        }
    }
}
