//! Fast tile-granularity traffic estimation for full-size operators.
//!
//! The element-level trace simulator ([`crate::trace`]) is exact but only
//! practical for scaled-down problem sizes. This module walks the multi-level
//! tiled loop nest ([`TileConfig::walk`], the executor's own walk) at *tile*
//! granularity: for each pair of consecutive tiles at a given level it
//! computes the amount of new data that must be fetched, using the same
//! "only the immediately preceding tile's data is still resident"
//! reasoning as the paper's analytical model (Sec. 3), but evaluated
//! numerically so partial tiles, strides and arbitrary permutations are
//! handled exactly. It provides the "measured data movement" axis of the
//! model-validation experiments for operators whose full traces would be too
//! large to simulate element by element.

use std::ops::ControlFlow;

use conv_spec::{ConvShape, TileConfig, TileRegion, TilingLevel};
use serde::{Deserialize, Serialize};

use crate::counters::DataMovement;

/// A half-open 1-D interval `[start, start + len)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Interval {
    start: usize,
    len: usize,
}

impl Interval {
    fn overlap(self, other: Interval) -> usize {
        let lo = self.start.max(other.start);
        let hi = (self.start + self.len).min(other.start + other.len);
        hi.saturating_sub(lo)
    }
}

/// The rectangular data slice of one tensor touched by a tile, expressed as
/// up to four independent intervals (one per tensor dimension).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slice4 {
    dims: [Interval; 4],
}

impl Slice4 {
    fn volume(&self) -> usize {
        self.dims.iter().map(|d| d.len).product()
    }

    /// Volume of `self` not covered by `prev` (exact for axis-aligned boxes
    /// when at most the paper's partial-overlap patterns occur; in general a
    /// conservative inclusion–exclusion using the box intersection).
    fn new_volume(&self, prev: &Slice4) -> usize {
        let inter: usize =
            self.dims.iter().zip(prev.dims.iter()).map(|(a, b)| a.overlap(*b)).product();
        self.volume().saturating_sub(inter)
    }
}

/// The interval of one `(start, len)` range.
fn interval((start, len): (usize, usize)) -> Interval {
    Interval { start, len }
}

fn output_slice(region: &TileRegion) -> Slice4 {
    Slice4 { dims: [region.n, region.k, region.h, region.w].map(interval) }
}

fn kernel_slice(region: &TileRegion) -> Slice4 {
    Slice4 { dims: [region.k, region.c, region.r, region.s].map(interval) }
}

/// The input-tensor bounding box of a tile region: the spatial window is the
/// dilated sliding-window span, and the channel interval covers the per-group
/// channel band(s) reached by the region's K range (a bounding interval when
/// the K range straddles several groups — consistent with the analytical
/// model's group-span over-approximation; exact for dense shapes).
fn input_slice(region: &TileRegion, shape: &ConvShape) -> Slice4 {
    let (stride, dil) = (shape.stride, shape.dilation);
    let ((h0, hs), (w0, ws)) = (region.h, region.w);
    let ((r0, rs), (s0, ss)) = (region.r, region.s);
    let (c0, cs) = region.c;
    let rows = (h0 * stride + r0 * dil, (hs - 1) * stride + (rs - 1) * dil + 1);
    let cols = (w0 * stride + s0 * dil, (ws - 1) * stride + (ss - 1) * dil + 1);
    let channels = if shape.groups <= 1 {
        (c0, cs)
    } else {
        let cpg = shape.reduction_c();
        let groups = shape.groups_spanned(region.k.0, region.k.1);
        let (g_lo, g_hi) = (*groups.start(), *groups.end());
        (g_lo * cpg + c0, (g_hi - g_lo) * cpg + cs)
    };
    Slice4 { dims: [region.n, channels, rows, cols].map(interval) }
}

/// Per-level traffic statistics produced by the tile-granularity simulator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TileTrafficStats {
    /// Elements fetched for the input tensor.
    pub input_elems: f64,
    /// Elements fetched for the kernel tensor.
    pub kernel_elems: f64,
    /// Elements fetched for the output tensor (an equal volume is written
    /// back, giving the paper's factor of 2 for `Out`).
    pub output_elems: f64,
    /// Number of tiles actually visited.
    pub tiles_visited: u64,
    /// Total tiles at this level; larger than `tiles_visited` when the walk
    /// was truncated by the sampling budget and the totals were extrapolated.
    pub tiles_total: u128,
}

impl TileTrafficStats {
    /// Total data volume in elements (output counted twice: read + write).
    pub fn total_volume(&self) -> f64 {
        self.input_elems + self.kernel_elems + 2.0 * self.output_elems
    }

    /// Whether the estimate was extrapolated from a truncated walk.
    pub fn sampled(&self) -> bool {
        (self.tiles_visited as u128) < self.tiles_total
    }
}

/// Tile-granularity traffic simulator for all four tiling levels.
#[derive(Debug, Clone)]
pub struct TileTrafficSimulator {
    /// Maximum number of tiles to visit per level before extrapolating.
    pub max_tiles_per_level: u64,
}

impl Default for TileTrafficSimulator {
    fn default() -> Self {
        TileTrafficSimulator { max_tiles_per_level: 2_000_000 }
    }
}

impl TileTrafficSimulator {
    /// Create a simulator with a per-level tile budget.
    pub fn new(max_tiles_per_level: u64) -> Self {
        TileTrafficSimulator { max_tiles_per_level }
    }

    /// Estimate the traffic feeding one tiling level.
    ///
    /// The walk is truncated at `max_tiles_per_level` tiles; when truncated,
    /// the measured traffic is extrapolated by the ratio of total to visited
    /// tiles (the traffic per tile is close to periodic across the sequence).
    pub fn level_traffic(
        &self,
        shape: &ConvShape,
        config: &TileConfig,
        level: TilingLevel,
    ) -> TileTrafficStats {
        let config = config.normalized(shape);
        let full = TileRegion::full(shape);
        let total = config.tile_count(&full, level);
        let budget = self.max_tiles_per_level.max(1);
        let mut prev: Option<(Slice4, Slice4, Slice4)> = None;
        let mut input = 0f64;
        let mut kernel = 0f64;
        let mut output = 0f64;
        let mut visited = 0u64;
        let _ = config.walk(&full, level, |region| {
            let in_s = input_slice(region, shape);
            let ker_s = kernel_slice(region);
            let out_s = output_slice(region);
            match &prev {
                None => {
                    input += in_s.volume() as f64;
                    kernel += ker_s.volume() as f64;
                    output += out_s.volume() as f64;
                }
                Some((pin, pker, pout)) => {
                    input += in_s.new_volume(pin) as f64;
                    kernel += ker_s.new_volume(pker) as f64;
                    output += out_s.new_volume(pout) as f64;
                }
            }
            prev = Some((in_s, ker_s, out_s));
            visited += 1;
            if visited < budget {
                ControlFlow::Continue(())
            } else {
                ControlFlow::Break(())
            }
        });
        let scale = if (visited as u128) < total && visited > 0 {
            total as f64 / visited as f64
        } else {
            1.0
        };
        TileTrafficStats {
            input_elems: input * scale,
            kernel_elems: kernel * scale,
            output_elems: output * scale,
            tiles_visited: visited,
            tiles_total: total,
        }
    }

    /// Estimate traffic at every tiling level and assemble a
    /// [`DataMovement`] report comparable to the analytical model's output and
    /// to the trace simulator's counters.
    pub fn simulate(&self, shape: &ConvShape, config: &TileConfig) -> DataMovement {
        let mut dm = DataMovement::zero(shape.flops() as f64);
        for &level in &TilingLevel::ALL {
            let stats = self.level_traffic(shape, config, level);
            let t = dm.level_mut(level);
            t.inbound_elems = stats.input_elems + stats.kernel_elems + stats.output_elems;
            t.outbound_elems = stats.output_elems;
        }
        dm
    }
}

/// Tile-granularity traffic estimate for a fused producer → consumer pair at
/// one boundary level, compared against running the two schedules separately.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FusedPairTraffic {
    /// Producer traffic when run stand-alone.
    pub producer: TileTrafficStats,
    /// Consumer traffic when run stand-alone.
    pub consumer: TileTrafficStats,
    /// Elements of the intermediate tensor (producer output = consumer
    /// input).
    pub intermediate_elems: f64,
    /// Total boundary traffic of the two stand-alone schedules
    /// (`producer.total_volume() + consumer.total_volume()`).
    pub unfused_total: f64,
    /// Total boundary traffic when fused: the producer's output store (and
    /// write-back read) and the consumer's input load never cross the
    /// boundary — the intermediate is consumed in cache.
    pub fused_total: f64,
}

impl FusedPairTraffic {
    /// Elements of traffic the fusion deletes at this boundary.
    pub fn saving(&self) -> f64 {
        self.unfused_total - self.fused_total
    }
}

impl TileTrafficSimulator {
    /// Estimate the traffic of a fused producer → consumer pair at `level`.
    ///
    /// Each schedule is walked stand-alone with [`Self::level_traffic`]; the
    /// fused total then removes the terms fusion deletes: the producer's
    /// output volume (counted twice stand-alone, for write-back + re-read)
    /// and the consumer's input volume (its loads of the intermediate,
    /// including any refetches its tiling would have caused — in the fused
    /// execution those reads hit the cache-resident band). Everything else —
    /// the producer's input and both kernels — keeps its measured volume.
    ///
    /// # Panics
    ///
    /// Panics unless the consumer's input tensor is exactly the producer's
    /// output tensor.
    pub fn fused_pair_traffic(
        &self,
        producer_shape: &ConvShape,
        producer_config: &TileConfig,
        consumer_shape: &ConvShape,
        consumer_config: &TileConfig,
        level: TilingLevel,
    ) -> FusedPairTraffic {
        assert_eq!(
            consumer_shape.input_dims(),
            producer_shape.output_dims(),
            "consumer input is not the producer output"
        );
        let producer = self.level_traffic(producer_shape, producer_config, level);
        let consumer = self.level_traffic(consumer_shape, consumer_config, level);
        let unfused = producer.total_volume() + consumer.total_volume();
        let fused = producer.input_elems
            + producer.kernel_elems
            + consumer.kernel_elems
            + 2.0 * consumer.output_elems;
        FusedPairTraffic {
            producer,
            consumer,
            intermediate_elems: producer_shape.output_elems() as f64,
            unfused_total: unfused,
            fused_total: fused,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conv_spec::{Permutation, TileSizes};

    fn small_shape() -> ConvShape {
        ConvShape::new(1, 4, 3, 3, 3, 8, 8, 1).unwrap()
    }

    fn single_level_config(shape: &ConvShape, tiles: TileSizes, perm: &str) -> TileConfig {
        // Only the L3 level subdivides; inner levels equal the L3 tile so the
        // walk at L3 is the interesting one.
        TileConfig::new(
            Permutation::parse(perm).unwrap(),
            [tiles, tiles, tiles, tiles],
            TileSizes::ones(),
        )
        .normalized(shape)
    }

    #[test]
    fn untiled_config_moves_each_tensor_once() {
        let shape = small_shape();
        let cfg = TileConfig::untiled(&shape);
        let sim = TileTrafficSimulator::default();
        let stats = sim.level_traffic(&shape, &cfg, TilingLevel::L3);
        assert_eq!(stats.tiles_total, 1);
        assert_eq!(stats.input_elems, shape.input_elems() as f64);
        assert_eq!(stats.kernel_elems, shape.kernel_elems() as f64);
        assert_eq!(stats.output_elems, shape.output_elems() as f64);
        assert!(!stats.sampled());
    }

    #[test]
    fn innermost_w_reuses_kernel_but_not_output() {
        // With wt innermost, Ker slices are identical across consecutive wt
        // tiles (full reuse) while Out slices are disjoint. Matches Sec. 3.1.
        let shape = ConvShape::new(1, 4, 4, 1, 1, 8, 8, 1).unwrap();
        let tiles = TileSizes::from_array([1, 4, 4, 1, 1, 8, 2]); // only w tiled
        let cfg = single_level_config(&shape, tiles, "nkcrshw");
        let sim = TileTrafficSimulator::default();
        let stats = sim.level_traffic(&shape, &cfg, TilingLevel::L3);
        // 4 tiles along w; kernel fetched once, output fetched fully (disjoint).
        assert_eq!(stats.kernel_elems, shape.kernel_elems() as f64);
        assert_eq!(stats.output_elems, shape.output_elems() as f64);
        assert_eq!(stats.input_elems, shape.input_elems() as f64);
    }

    #[test]
    fn innermost_k_refetches_input_free_kernel_and_output_disjoint() {
        // Tile only k with kt innermost: In slice identical across kt tiles →
        // fetched once; Ker and Out disjoint per tile → fetched once in total.
        let shape = ConvShape::new(1, 8, 4, 1, 1, 4, 4, 1).unwrap();
        let tiles = TileSizes::from_array([1, 2, 4, 1, 1, 4, 4]);
        let cfg = single_level_config(&shape, tiles, "ncrshwk");
        let sim = TileTrafficSimulator::default();
        let stats = sim.level_traffic(&shape, &cfg, TilingLevel::L3);
        assert_eq!(stats.input_elems, shape.input_elems() as f64);
        assert_eq!(stats.kernel_elems, shape.kernel_elems() as f64);
        assert_eq!(stats.output_elems, shape.output_elems() as f64);
    }

    #[test]
    fn outer_present_loop_forces_refetch() {
        // Tile k and put kt OUTERMOST with ct innermost; now the In slice is
        // re-fetched for every kt tile because In has no k dimension but the
        // intermediate Ker/Out slices change → with only-adjacent-reuse, In
        // must be reloaded for each kt value except where adjacent.
        let shape = ConvShape::new(1, 8, 4, 1, 1, 4, 4, 1).unwrap();
        let tiles = TileSizes::from_array([1, 2, 2, 1, 1, 4, 4]);
        let cfg = single_level_config(&shape, tiles, "khwnrsc");
        let sim = TileTrafficSimulator::default();
        let stats = sim.level_traffic(&shape, &cfg, TilingLevel::L3);
        // 4 kt tiles; within each, 2 ct tiles with disjoint In slices; between
        // kt steps the In slice repeats but adjacency is broken only if the
        // last ct tile of one kt equals the first of the next (it does not:
        // c goes 0..2 then wraps to 0..2, so the last slice c∈[2,4) differs
        // from the next first slice c∈[0,2)). Hence In is fetched 4*2 times
        // its half-size = 4 * input_elems... except adjacent wrap: compute:
        let expected_in = 4.0 * shape.input_elems() as f64;
        assert_eq!(stats.input_elems, expected_in);
        // Ker fetched exactly once in total (each (k,c) block distinct).
        assert_eq!(stats.kernel_elems, shape.kernel_elems() as f64);
    }

    #[test]
    fn input_overlap_partial_reuse_along_h() {
        // 3x3 kernel, tiles along h: consecutive h tiles overlap by (r-1) rows
        // of the input; the simulator must count only the new rows.
        let shape = ConvShape::new(1, 1, 1, 3, 3, 6, 6, 1).unwrap();
        let tiles = TileSizes::from_array([1, 1, 1, 3, 3, 2, 6]);
        let cfg = single_level_config(&shape, tiles, "nkcrswh");
        let sim = TileTrafficSimulator::default();
        let stats = sim.level_traffic(&shape, &cfg, TilingLevel::L3);
        // First tile: rows 0..4 (4 rows). Each next tile adds 2 new rows.
        // 3 tiles → 4 + 2 + 2 = 8 rows = input_h; cols always 8.
        assert_eq!(stats.input_elems, (shape.input_h() * shape.input_w()) as f64);
    }

    #[test]
    fn stride_two_input_slices() {
        let shape = ConvShape::from_table1(2, 1, 9, 3, 2); // output 4x4
        let region = TileRegion::full(&shape);
        let s = input_slice(&region, &shape);
        assert_eq!(s.dims[2].len, (4 - 1) * 2 + 3);
        assert_eq!(s.volume(), 9 * 9);
    }

    #[test]
    fn dilated_input_slice_spans_the_wider_window() {
        let shape = ConvShape::from_table1_dilated(2, 1, 11, 3, 1, 2); // eff 5, out 7x7
        let region = TileRegion::full(&shape);
        let s = input_slice(&region, &shape);
        assert_eq!(s.dims[2].len, (7 - 1) + (3 - 1) * 2 + 1);
        assert_eq!(s.volume(), 11 * 11);
    }

    #[test]
    fn grouped_input_slice_covers_spanned_channel_bands() {
        let shape = ConvShape::new_general(1, 8, 8, 1, 1, 4, 4, 1, 1, 4).unwrap();
        // Full region: all 4 groups → all 8 channels.
        let full = TileRegion::full(&shape);
        assert_eq!(input_slice(&full, &shape).dims[1].len, 8);
        // A region covering k = 2..4 (group 1 only) → channels 2..4.
        let s = input_slice(&TileRegion { k: (2, 2), ..full }, &shape);
        assert_eq!((s.dims[1].start, s.dims[1].len), (2, 2));
    }

    #[test]
    fn depthwise_untiled_traffic_matches_tensor_sizes() {
        let shape = ConvShape::depthwise(8, 10, 3, 1);
        let cfg = TileConfig::untiled(&shape);
        let sim = TileTrafficSimulator::default();
        let stats = sim.level_traffic(&shape, &cfg, TilingLevel::L3);
        assert_eq!(stats.input_elems, shape.input_elems() as f64);
        assert_eq!(stats.kernel_elems, shape.kernel_elems() as f64);
        assert_eq!(stats.output_elems, shape.output_elems() as f64);
    }

    #[test]
    fn multi_level_volumes_are_monotone_outward() {
        // Traffic feeding an inner level is at least the traffic feeding an
        // outer level (inner tiles are smaller → more refetches).
        let shape = ConvShape::new(1, 16, 16, 3, 3, 12, 12, 1).unwrap();
        let cfg = TileConfig::new(
            Permutation::parse("kcrsnhw").unwrap(),
            [
                TileSizes::from_array([1, 4, 2, 1, 1, 2, 4]),
                TileSizes::from_array([1, 8, 4, 3, 3, 4, 6]),
                TileSizes::from_array([1, 8, 8, 3, 3, 6, 12]),
                TileSizes::from_array([1, 16, 16, 3, 3, 12, 12]),
            ],
            TileSizes::ones(),
        )
        .normalized(&shape);
        let sim = TileTrafficSimulator::default();
        let dm = sim.simulate(&shape, &cfg);
        let reg = dm.volume(TilingLevel::Register);
        let l1 = dm.volume(TilingLevel::L1);
        let l2 = dm.volume(TilingLevel::L2);
        let l3 = dm.volume(TilingLevel::L3);
        assert!(reg >= l1 && l1 >= l2 && l2 >= l3, "reg={reg} l1={l1} l2={l2} l3={l3}");
        assert!(
            l3 >= (shape.input_elems() + shape.kernel_elems() + 2 * shape.output_elems()) as f64
                - 1.0
        );
    }

    #[test]
    fn fused_pair_deletes_the_intermediate_round_trip() {
        // Depthwise producer, pointwise consumer, both untiled: stand-alone
        // traffic is exact tensor sizes, and fusing removes 2x the producer
        // output plus the consumer input (= 3x the intermediate here).
        let dw = ConvShape::depthwise(8, 12, 3, 1);
        let pw = ConvShape::new(1, 4, 8, 1, 1, dw.h, dw.w, 1).unwrap();
        let sim = TileTrafficSimulator::default();
        let est = sim.fused_pair_traffic(
            &dw,
            &TileConfig::untiled(&dw),
            &pw,
            &TileConfig::untiled(&pw),
            TilingLevel::L3,
        );
        let inter = dw.output_elems() as f64;
        assert_eq!(est.intermediate_elems, inter);
        assert_eq!(
            est.unfused_total,
            (dw.input_elems() + dw.kernel_elems() + 2 * dw.output_elems()) as f64
                + (pw.input_elems() + pw.kernel_elems() + 2 * pw.output_elems()) as f64
        );
        assert_eq!(est.saving(), 3.0 * inter);
        assert!(est.fused_total < est.unfused_total);
    }

    #[test]
    #[should_panic(expected = "consumer input is not the producer output")]
    fn fused_pair_rejects_mismatched_chains() {
        let dw = ConvShape::depthwise(8, 12, 3, 1);
        let wrong = ConvShape::new(1, 4, 8, 1, 1, dw.h - 1, dw.w, 1).unwrap();
        let sim = TileTrafficSimulator::default();
        let _ = sim.fused_pair_traffic(
            &dw,
            &TileConfig::untiled(&dw),
            &wrong,
            &TileConfig::untiled(&wrong),
            TilingLevel::L3,
        );
    }

    #[test]
    fn sampling_budget_extrapolates() {
        let shape = ConvShape::new(1, 16, 16, 3, 3, 12, 12, 1).unwrap();
        let cfg = TileConfig::new(
            Permutation::canonical(),
            [
                TileSizes::from_array([1, 2, 2, 1, 1, 2, 2]),
                TileSizes::from_array([1, 4, 4, 3, 3, 4, 4]),
                TileSizes::from_array([1, 8, 8, 3, 3, 8, 8]),
                TileSizes::from_array([1, 16, 16, 3, 3, 12, 12]),
            ],
            TileSizes::ones(),
        )
        .normalized(&shape);
        let exact =
            TileTrafficSimulator::new(u64::MAX).level_traffic(&shape, &cfg, TilingLevel::Register);
        let sampled =
            TileTrafficSimulator::new(500).level_traffic(&shape, &cfg, TilingLevel::Register);
        assert!(sampled.sampled());
        assert!(!exact.sampled());
        let rel = (sampled.total_volume() - exact.total_volume()).abs() / exact.total_volume();
        assert!(rel < 0.35, "extrapolation error too large: {rel}");
    }
}
