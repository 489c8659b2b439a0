//! Multi-level tiled conv2d executor.
//!
//! `TiledConv` realizes the loop structure the paper's code generator emits:
//! L3-, L2- and L1-level tile loops (the configuration's own tile walk,
//! [`TileConfig::walk`]) around the register-tiled microkernel, which runs
//! each L1 tile whole ([`L1Kernel`]). The kernel is packed up front and
//! re-laid once per run into per-register-K-block panels ([`KPanels`]), and
//! the outer loops are optionally parallelized across threads along the
//! output-channel (and batch) dimension so that threads never write the same
//! output element (Sec. 7 restricts parallelism to non-reduction dimensions
//! for the same reason).

use std::ops::ControlFlow;

use conv_spec::{ConvShape, LoopIndex, TileConfig, TileRegion, TilingLevel};

use crate::microkernel::{active_backend, InputView, L1Kernel, OutputView, SimdBackend};
use crate::packing::{KPanels, PackedKernel};
use crate::tensor::Tensor4;
use crate::ExecError;

/// Counters of one executor run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Vector FMA instructions the AVX2 inner loop issued; 0 when the
    /// scalar backend ran. A run dispatched to `avx2fma` that reports 0
    /// never reached the vector path.
    pub vector_steps: u64,
}

/// A multi-level tiled convolution executor for one operator.
#[derive(Debug, Clone)]
pub struct TiledConv {
    shape: ConvShape,
    config: TileConfig,
    threads: usize,
    vec_len: usize,
    backend: Option<SimdBackend>,
}

impl TiledConv {
    /// Create an executor for `shape` with a tiling configuration and thread
    /// count. The configuration is normalized (tile nesting repaired) first.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::InvalidConfig`] if the normalized configuration
    /// still fails validation.
    pub fn new(shape: ConvShape, config: TileConfig, threads: usize) -> Result<Self, ExecError> {
        let config = config.normalized(&shape);
        config.validate(&shape).map_err(|e| ExecError::InvalidConfig(e.to_string()))?;
        Ok(TiledConv { shape, config, threads: threads.max(1), vec_len: 8, backend: None })
    }

    /// Set the SIMD vector length used for kernel packing (8 for AVX2-class,
    /// 16 for AVX-512-class machines).
    pub fn with_vec_len(mut self, vec_len: usize) -> Self {
        self.vec_len = vec_len.max(1);
        self
    }

    /// Pin the microkernel inner-loop backend instead of letting the runtime
    /// dispatcher choose (benchmarks compare backends; tests prove
    /// scalar/SIMD equivalence in one process).
    pub fn with_backend(mut self, backend: SimdBackend) -> Self {
        self.backend = Some(backend);
        self
    }

    /// The problem shape.
    pub fn shape(&self) -> &ConvShape {
        &self.shape
    }

    /// The (normalized) tiling configuration.
    pub fn config(&self) -> &TileConfig {
        &self.config
    }

    /// The SIMD vector length used for kernel packing.
    pub(crate) fn vec_len(&self) -> usize {
        self.vec_len
    }

    /// Run the convolution. The kernel is packed internally (packing time is
    /// part of the measured execution, as in the paper).
    pub fn run(&self, input: &Tensor4, kernel: &Tensor4) -> Tensor4 {
        crate::naive::check_dims(&self.shape, input, kernel);
        let packed = PackedKernel::pack(&self.shape, kernel, self.vec_len);
        self.run_packed(input, &packed)
    }

    /// Run the convolution with an already packed kernel.
    pub fn run_packed(&self, input: &Tensor4, packed: &PackedKernel) -> Tensor4 {
        self.run_packed_with_stats(input, packed).0
    }

    /// [`Self::run_packed`], also reporting what the run executed.
    pub fn run_packed_with_stats(
        &self,
        input: &Tensor4,
        packed: &PackedKernel,
    ) -> (Tensor4, ExecStats) {
        let full = TileRegion::full(&self.shape);
        let threads = self.effective_threads();
        // Threads own disjoint output slices: contiguous K chunks, or N
        // chunks for batched problems.
        let slices: Vec<Vec<TileRegion>> = if threads <= 1 {
            vec![vec![full]]
        } else if self.shape.n > 1 {
            split_range(self.shape.n, threads).map(|n| vec![TileRegion { n, ..full }]).collect()
        } else {
            split_range(self.shape.k, threads).map(|k| vec![TileRegion { k, ..full }]).collect()
        };
        self.run_slices(input, packed, &slices)
    }

    /// Run each slice's regions on its own scoped thread (inline for a
    /// single slice) and assemble the output. Every output point belongs to
    /// exactly one region.
    pub(crate) fn run_slices(
        &self,
        input: &Tensor4,
        packed: &PackedKernel,
        slices: &[Vec<TileRegion>],
    ) -> (Tensor4, ExecStats) {
        let shape = self.shape;
        let panels = self.panels(packed, slices.iter().flatten());
        let mut output = Tensor4::zeros(shape.n, shape.k, shape.h, shape.w);
        if let [regions] = slices {
            let vector_steps =
                regions.iter().map(|r| self.execute_region(input, &panels, &mut output, r)).sum();
            return (output, ExecStats { vector_steps });
        }
        // Each worker accumulates its regions into a private full-size
        // scratch tensor (regions address absolute coordinates); the owned
        // output points are merged afterwards.
        let partials: Vec<(Tensor4, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = slices
                .iter()
                .map(|regions| {
                    let panels = &panels;
                    scope.spawn(move || {
                        let mut scratch = Tensor4::zeros(shape.n, shape.k, shape.h, shape.w);
                        let steps = regions
                            .iter()
                            .map(|r| self.execute_region(input, panels, &mut scratch, r))
                            .sum();
                        (scratch, steps)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("worker thread panicked")).collect()
        });
        let mut stats = ExecStats::default();
        for (regions, (partial, steps)) in slices.iter().zip(&partials) {
            stats.vector_steps += steps;
            for region in regions {
                copy_region_output(partial, &mut output, region);
            }
        }
        (output, stats)
    }

    fn effective_threads(&self) -> usize {
        let limit = if self.shape.n > 1 { self.shape.n } else { self.shape.k };
        self.threads.clamp(1, limit.max(1))
    }

    /// The K panels for walks over `regions`.
    pub(crate) fn panels<'r>(
        &self,
        packed: &PackedKernel,
        regions: impl IntoIterator<Item = &'r TileRegion>,
    ) -> KPanels {
        let mut k_ranges: Vec<(usize, usize)> = regions.into_iter().map(|r| r.k).collect();
        k_ranges.sort_unstable();
        k_ranges.dedup();
        let mut k_tiles = TilingLevel::ALL.map(|level| self.config.level(level).get(LoopIndex::K));
        k_tiles.reverse(); // outermost (L3) first, as walked
        KPanels::new(&self.shape, packed, &k_tiles, &k_ranges)
    }

    /// Execute the multi-level tile loops over an arbitrary base region and
    /// return the vector steps issued. Shared with [`crate::ParTiledConv`],
    /// whose worker threads each run it over their slice of the output, and
    /// with [`crate::NchwcConv`], which runs it over blocked NCHWc views —
    /// the walk is generic over logical views so every storage layout goes
    /// through the identical arithmetic. `panels` must cover `base`'s K
    /// range ([`Self::panels`]).
    pub(crate) fn execute_region<I: InputView, O: OutputView>(
        &self,
        input: &I,
        panels: &KPanels,
        output: &mut O,
        base: &TileRegion,
    ) -> u64 {
        let backend = self.backend.unwrap_or_else(active_backend);
        let mut kernel = L1Kernel::new(&self.shape, &self.config, panels, backend, input, output);
        let _ = self.config.walk(base, TilingLevel::L1, |tile| {
            kernel.run(tile);
            ControlFlow::Continue(())
        });
        kernel.vector_steps()
    }
}

/// Copy the output points a region owns from `partial` into `output`.
fn copy_region_output(partial: &Tensor4, output: &mut Tensor4, region: &TileRegion) {
    for n in region.n.0..region.n.0 + region.n.1 {
        for k in region.k.0..region.k.0 + region.k.1 {
            for h in region.h.0..region.h.0 + region.h.1 {
                let row = partial.offset(n, k, h, region.w.0);
                output.as_mut_slice()[row..row + region.w.1]
                    .copy_from_slice(&partial.as_slice()[row..row + region.w.1]);
            }
        }
    }
}

/// Split `extent` into at most `parts` contiguous `(start, len)` chunks
/// whose lengths differ by at most one.
pub(crate) fn split_range(extent: usize, parts: usize) -> impl Iterator<Item = (usize, usize)> {
    let parts = parts.clamp(1, extent.max(1));
    let (base, rem) = (extent / parts, extent % parts);
    (0..parts).filter_map(move |i| {
        let len = base + usize::from(i < rem);
        (len > 0).then_some((i * base + i.min(rem), len))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::microkernel::run_microkernel;
    use crate::naive::conv2d_naive;
    use conv_spec::tiling::tiles;
    use conv_spec::{Permutation, TileSizes};

    fn reference(shape: &ConvShape, seed: u64) -> (Tensor4, Tensor4, Tensor4) {
        let (ni, ci, hi, wi) = shape.input_dims();
        let (kk, kc, kr, ks) = shape.kernel_dims();
        let input = Tensor4::random(ni, ci, hi, wi, seed);
        let kernel = Tensor4::random(kk, kc, kr, ks, seed + 1);
        let out = conv2d_naive(shape, &input, &kernel);
        (input, kernel, out)
    }

    fn config(
        shape: &ConvShape,
        perm: &str,
        reg: [usize; 7],
        l1: [usize; 7],
        l2: [usize; 7],
        l3: [usize; 7],
    ) -> TileConfig {
        TileConfig::new(
            Permutation::parse(perm).unwrap(),
            [
                TileSizes::from_array(reg),
                TileSizes::from_array(l1),
                TileSizes::from_array(l2),
                TileSizes::from_array(l3),
            ],
            TileSizes::ones(),
        )
        .normalized(shape)
    }

    #[test]
    fn untiled_matches_naive() {
        let shape = ConvShape::new(1, 5, 3, 3, 3, 7, 7, 1).unwrap();
        let (input, kernel, expected) = reference(&shape, 100);
        let conv = TiledConv::new(shape, TileConfig::untiled(&shape), 1).unwrap();
        let got = conv.run(&input, &kernel);
        assert!(expected.allclose(&got, 1e-4));
    }

    #[test]
    fn multi_level_tiling_matches_naive_for_several_permutations() {
        let shape = ConvShape::new(1, 8, 6, 3, 3, 10, 10, 1).unwrap();
        let (input, kernel, expected) = reference(&shape, 200);
        for perm in ["kcrsnhw", "nkhwcrs", "nchrswk", "nkcrshw"] {
            let cfg = config(
                &shape,
                perm,
                [1, 4, 1, 1, 1, 1, 4],
                [1, 4, 3, 3, 3, 2, 5],
                [1, 8, 6, 3, 3, 5, 10],
                [1, 8, 6, 3, 3, 10, 10],
            );
            let conv = TiledConv::new(shape, cfg, 1).unwrap();
            let got = conv.run(&input, &kernel);
            assert!(
                expected.allclose(&got, 1e-4),
                "permutation {perm}: max diff {}",
                expected.max_abs_diff(&got)
            );
        }
    }

    #[test]
    fn partial_tiles_are_handled() {
        // Tile sizes that do not divide the extents.
        let shape = ConvShape::new(1, 7, 5, 3, 3, 9, 11, 1).unwrap();
        let (input, kernel, expected) = reference(&shape, 300);
        let cfg = config(
            &shape,
            "kcrsnhw",
            [1, 3, 1, 1, 1, 2, 4],
            [1, 5, 2, 2, 3, 4, 5],
            [1, 7, 4, 3, 3, 6, 8],
            [1, 7, 5, 3, 3, 9, 11],
        );
        let conv = TiledConv::new(shape, cfg, 1).unwrap();
        let got = conv.run(&input, &kernel);
        assert!(expected.allclose(&got, 1e-4));
    }

    #[test]
    fn strided_convolution_matches_naive() {
        let shape = ConvShape::from_table1(6, 4, 11, 3, 2);
        let (input, kernel, expected) = reference(&shape, 400);
        let cfg = config(
            &shape,
            "kcrsnhw",
            [1, 2, 1, 1, 1, 1, 3],
            [1, 4, 2, 3, 3, 2, 3],
            [1, 6, 4, 3, 3, 3, 5],
            [1, 6, 4, 3, 3, 5, 5],
        );
        let conv = TiledConv::new(shape, cfg, 1).unwrap();
        let got = conv.run(&input, &kernel);
        assert!(expected.allclose(&got, 1e-4));
    }

    #[test]
    fn parallel_execution_matches_sequential() {
        let shape = ConvShape::new(1, 16, 8, 3, 3, 12, 12, 1).unwrap();
        let (input, kernel, expected) = reference(&shape, 500);
        let cfg = config(
            &shape,
            "kcrsnhw",
            [1, 8, 1, 1, 1, 1, 4],
            [1, 8, 4, 3, 3, 4, 6],
            [1, 16, 8, 3, 3, 6, 12],
            [1, 16, 8, 3, 3, 12, 12],
        );
        for threads in [2, 3, 4] {
            let conv = TiledConv::new(shape, cfg.clone(), threads).unwrap();
            let got = conv.run(&input, &kernel);
            assert!(expected.allclose(&got, 1e-4), "threads = {threads}");
        }
    }

    #[test]
    fn parallel_batched_execution_matches_naive() {
        let shape = ConvShape::new(3, 4, 3, 3, 3, 6, 6, 1).unwrap();
        let (input, kernel, expected) = reference(&shape, 600);
        let cfg = config(
            &shape,
            "nkhwcrs",
            [1, 4, 1, 1, 1, 2, 2],
            [1, 4, 3, 3, 3, 3, 3],
            [1, 4, 3, 3, 3, 6, 6],
            [3, 4, 3, 3, 3, 6, 6],
        );
        let conv = TiledConv::new(shape, cfg, 2).unwrap();
        let got = conv.run(&input, &kernel);
        assert!(expected.allclose(&got, 1e-4));
    }

    #[test]
    fn depthwise_tiled_matches_naive_across_permutations_and_threads() {
        let shape = ConvShape::depthwise(12, 12, 3, 1);
        let (input, kernel, expected) = reference(&shape, 800);
        for perm in ["kcrsnhw", "nkhwcrs", "nchrswk"] {
            let cfg = config(
                &shape,
                perm,
                [1, 4, 1, 1, 1, 1, 4],
                [1, 6, 1, 3, 3, 2, 5],
                [1, 12, 1, 3, 3, 5, 10],
                [1, 12, 1, 3, 3, 10, 10],
            );
            for threads in [1, 3] {
                let conv = TiledConv::new(shape, cfg.clone(), threads).unwrap();
                let got = conv.run(&input, &kernel);
                assert!(
                    expected.allclose(&got, 1e-4),
                    "perm {perm} threads {threads}: max diff {}",
                    expected.max_abs_diff(&got)
                );
            }
        }
    }

    #[test]
    fn grouped_tiled_matches_naive_with_group_straddling_k_tiles() {
        // K tile of 3 with k_per_group 2: tiles straddle group boundaries.
        let shape = ConvShape::new_general(1, 8, 8, 3, 3, 9, 9, 1, 1, 4).unwrap();
        let (input, kernel, expected) = reference(&shape, 900);
        let cfg = config(
            &shape,
            "kcrsnhw",
            [1, 3, 1, 1, 1, 1, 3],
            [1, 3, 2, 3, 3, 3, 5],
            [1, 8, 2, 3, 3, 6, 9],
            [1, 8, 2, 3, 3, 9, 9],
        );
        let conv = TiledConv::new(shape, cfg, 1).unwrap();
        let got = conv.run(&input, &kernel);
        assert!(expected.allclose(&got, 1e-4));
    }

    #[test]
    fn dilated_and_strided_dilated_tiled_match_naive() {
        for (stride, dilation) in [(1, 2), (2, 2), (1, 3)] {
            let shape = ConvShape::from_table1_dilated(6, 4, 17, 3, stride, dilation);
            let (input, kernel, expected) = reference(&shape, 1000 + dilation as u64);
            let cfg = config(
                &shape,
                "kcrsnhw",
                [1, 2, 1, 1, 1, 1, 3],
                [1, 4, 2, 3, 3, 2, 3],
                [1, 6, 4, 3, 3, 3, 5],
                [1, 6, 4, 3, 3, 5, 5],
            );
            let conv = TiledConv::new(shape, cfg, 1).unwrap();
            let got = conv.run(&input, &kernel);
            assert!(
                expected.allclose(&got, 1e-4),
                "stride {stride} dilation {dilation}: max diff {}",
                expected.max_abs_diff(&got)
            );
        }
    }

    #[test]
    fn depthwise_dilated_combination_matches_naive() {
        let mut shape = ConvShape::from_table1_dilated(8, 8, 15, 3, 1, 2);
        shape.groups = 8;
        let (input, kernel, expected) = reference(&shape, 1100);
        let conv = TiledConv::new(shape, TileConfig::untiled(&shape), 2).unwrap();
        let got = conv.run(&input, &kernel);
        assert!(expected.allclose(&got, 1e-4));
    }

    #[test]
    fn vec_len_variants_are_equivalent() {
        let shape = ConvShape::new(1, 10, 4, 3, 3, 8, 8, 1).unwrap();
        let (input, kernel, expected) = reference(&shape, 700);
        let cfg = config(
            &shape,
            "kcrsnhw",
            [1, 5, 1, 1, 1, 1, 4],
            [1, 10, 2, 3, 3, 4, 4],
            [1, 10, 4, 3, 3, 8, 8],
            [1, 10, 4, 3, 3, 8, 8],
        );
        for vl in [4, 8, 16] {
            let conv = TiledConv::new(shape, cfg.clone(), 1).unwrap().with_vec_len(vl);
            let got = conv.run(&input, &kernel);
            assert!(expected.allclose(&got, 1e-4), "vec_len {vl}");
        }
    }

    /// The executor's loop nest before the L1-tile kernel: the L3, L2, L1
    /// and register tile loops in permutation order, with one
    /// `run_microkernel` call per register tile.
    fn per_register_tile_walk(conv: &TiledConv, input: &Tensor4, kernel: &Tensor4) -> Tensor4 {
        fn walk(
            conv: &TiledConv,
            chain: &[TileSizes],
            input: &Tensor4,
            packed: &PackedKernel,
            out: &mut Tensor4,
            region: TileRegion,
        ) {
            let Some((tile, rest)) = chain.split_first() else {
                run_microkernel(conv.shape(), input, packed, out, &region);
                return;
            };
            let mut subs = vec![region];
            for &idx in conv.config().permutation.outer_to_inner() {
                subs = subs
                    .iter()
                    .flat_map(|r| {
                        tiles(r.get(idx), tile.get(idx)).map(move |range| {
                            let mut sub = *r;
                            sub.set(idx, range);
                            sub
                        })
                    })
                    .collect();
            }
            for sub in subs {
                walk(conv, rest, input, packed, out, sub);
            }
        }
        let shape = *conv.shape();
        let packed = PackedKernel::pack(&shape, kernel, 8);
        let mut out = Tensor4::zeros(shape.n, shape.k, shape.h, shape.w);
        let chain = [TilingLevel::L3, TilingLevel::L2, TilingLevel::L1, TilingLevel::Register]
            .map(|level| *conv.config().level(level));
        walk(conv, &chain, input, &packed, &mut out, TileRegion::full(&shape));
        out
    }

    #[test]
    fn scalar_l1_kernel_is_bit_identical_to_the_per_register_tile_walk() {
        let shapes = [
            ConvShape::new(1, 7, 5, 3, 3, 9, 11, 1).unwrap(),
            ConvShape::from_table1_dilated(6, 4, 17, 3, 2, 2),
            ConvShape::new_general(2, 8, 8, 3, 3, 9, 9, 1, 1, 4).unwrap(),
            ConvShape::depthwise(12, 12, 3, 1),
        ];
        for shape in shapes {
            let (input, kernel, _) = reference(&shape, 1200);
            for perm in ["nkhwcsr", "kcrsnhw", "nchwrsk"] {
                // Partial tiles at every level; K tiles of 3 straddle the
                // grouped shape's 2-channel groups.
                let cfg = config(
                    &shape,
                    perm,
                    [1, 3, 2, 2, 1, 2, 4],
                    [1, 5, 3, 3, 3, 4, 5],
                    [2, 7, 4, 3, 3, 6, 8],
                    [2, 12, 8, 3, 3, 9, 11],
                );
                let conv = TiledConv::new(shape, cfg, 1).unwrap().with_backend(SimdBackend::Scalar);
                let expected = per_register_tile_walk(&conv, &input, &kernel);
                let (got, stats) =
                    conv.run_packed_with_stats(&input, &PackedKernel::pack(&shape, &kernel, 8));
                assert_eq!(got.as_slice(), expected.as_slice(), "{shape} perm {perm}");
                assert_eq!(stats.vector_steps, 0);
            }
        }
    }

    #[test]
    fn split_range_covers_everything() {
        for (extent, parts) in [(10, 3), (7, 7), (5, 8), (1, 4), (16, 4)] {
            let chunks: Vec<_> = split_range(extent, parts).collect();
            let total: usize = chunks.iter().map(|(_, l)| l).sum();
            assert_eq!(total, extent);
            // Chunks are contiguous and ordered.
            let mut pos = 0;
            for (start, len) in chunks {
                assert_eq!(start, pos);
                pos += len;
            }
        }
    }

    #[test]
    fn accessors_and_validation() {
        let shape = ConvShape::new(1, 4, 2, 1, 1, 4, 4, 1).unwrap();
        let conv = TiledConv::new(shape, TileConfig::untiled(&shape), 2).unwrap();
        assert_eq!(conv.shape(), &shape);
        assert!(conv.config().validate(&shape).is_ok());
    }
}
