//! Scoped-thread parallel tiled conv2d executor.
//!
//! [`ParTiledConv`] partitions the output across worker threads and runs
//! [`TiledConv`]'s multi-level tile walk over each slice on its own
//! `std::thread` (scoped, so tensors are borrowed, never copied to the
//! workers). A configuration carrying certified parallel factors
//! ([`conv_spec::TileConfig::parallel`]) is executed exactly as the
//! multicore model priced it — the factors' cross-product grid of output
//! slices; factor-less configurations split the executor's
//! [`conv_spec::ParallelAxis`] (the `k` output channels or the `n·h` output
//! rows) into contiguous per-thread chunks. Threads own disjoint output
//! regions; the reduction dimensions (`c`, `r`, `s`) are never partitioned.
//!
//! Correctness is exact, not approximate: a slice along a non-reduction
//! dimension leaves every output element's accumulation sequence — the order
//! in which the `c`/`r`/`s` tile loops and the microkernel's inner reduction
//! visit its partial products — untouched, so the parallel result is
//! **bit-for-bit equal** to the sequential [`TiledConv`] run of the same
//! configuration (`assert_eq!` on the raw `f32` buffers, no tolerance).
//! Tests here and in `tests/multicore_parallel.rs` enforce this across a
//! randomized shape × stride × dilation × groups × thread-count grid,
//! including thread counts exceeding the partitioned extent.

use conv_spec::{ConvShape, ParallelAxis, TileConfig, TileRegion};

use crate::packing::PackedKernel;
use crate::tensor::Tensor4;
use crate::tiled::{split_range, TiledConv};
use crate::ExecError;

/// A parallel multi-level tiled convolution executor for one operator.
#[derive(Debug, Clone)]
pub struct ParTiledConv {
    seq: TiledConv,
    threads: usize,
    axis: ParallelAxis,
}

impl ParTiledConv {
    /// Create an executor for `shape` with a tiling configuration and thread
    /// count. The parallel axis defaults to the one the configuration's
    /// per-dimension factors encode ([`TileConfig::parallel_axis`]); the
    /// configuration is normalized (tile nesting repaired) first.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::InvalidConfig`] if the normalized configuration
    /// still fails validation.
    pub fn new(shape: ConvShape, config: TileConfig, threads: usize) -> Result<Self, ExecError> {
        let axis = config.parallel_axis();
        let seq = TiledConv::new(shape, config, 1)?;
        Ok(ParTiledConv { seq, threads: threads.max(1), axis })
    }

    /// Override the parallel axis used by the factor-less fallback. A
    /// configuration carrying certified parallel factors is always executed
    /// along those factors (see [`Self::run_packed`]); the axis only decides
    /// how configurations *without* factors are split across `threads`.
    pub fn with_axis(mut self, axis: ParallelAxis) -> Self {
        self.axis = axis;
        self
    }

    /// Set the SIMD vector length used for kernel packing.
    pub fn with_vec_len(mut self, vec_len: usize) -> Self {
        self.seq = self.seq.clone().with_vec_len(vec_len);
        self
    }

    /// The problem shape.
    pub fn shape(&self) -> &ConvShape {
        self.seq.shape()
    }

    /// The (normalized) tiling configuration.
    pub fn config(&self) -> &TileConfig {
        self.seq.config()
    }

    /// The partitioned axis.
    pub fn axis(&self) -> ParallelAxis {
        self.axis
    }

    /// The requested thread count (workers are capped at the axis extent).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run the convolution. The kernel is packed once, up front, and shared
    /// read-only by all workers (packing time is part of the measured
    /// execution, as in the paper).
    pub fn run(&self, input: &Tensor4, kernel: &Tensor4) -> Tensor4 {
        crate::naive::check_dims(self.shape(), input, kernel);
        let packed = PackedKernel::pack(self.shape(), kernel, self.seq.vec_len());
        self.run_packed(input, &packed)
    }

    /// Run the convolution with an already packed kernel. Each worker
    /// accumulates its regions into a private full-size scratch tensor
    /// (regions address absolute coordinates) and the owned output points
    /// are merged afterwards. Regions are disjoint across workers, so the
    /// merge never overlaps; transient memory is bounded by
    /// `workers × |output|` with workers capped at `threads` (and at the
    /// slice count).
    pub fn run_packed(&self, input: &Tensor4, packed: &PackedKernel) -> Tensor4 {
        self.seq.run_slices(input, packed, &self.partition()).0
    }

    /// Partition the output into per-worker region lists.
    ///
    /// A configuration carrying certified parallel factors
    /// (`TileConfig::parallel`, product > 1) is executed *as certified*: the
    /// per-dimension factors define a cross-product grid of output slices —
    /// exactly the decomposition the multicore cost model priced, including
    /// mixed-axis factor vectors like `K=2 · H=2` — and the grid cells are
    /// distributed round-robin over at most `threads` workers. Factor-less
    /// configurations fall back to splitting the executor's [`ParallelAxis`]
    /// into `threads` contiguous chunks. Either way workers are capped at
    /// the number of slices, so `threads` larger than the output never
    /// produces empty regions.
    fn partition(&self) -> Vec<Vec<TileRegion>> {
        let shape = self.shape();
        let full = TileRegion::full(shape);
        if self.threads <= 1 {
            return vec![vec![full]];
        }
        if self.config().total_parallelism() > 1 {
            let grid = self.factor_grid(&full);
            let workers = self.threads.min(grid.len()).max(1);
            let mut slices = vec![Vec::new(); workers];
            for (i, region) in grid.into_iter().enumerate() {
                slices[i % workers].push(region);
            }
            return slices;
        }
        match self.axis {
            ParallelAxis::OutputChannels => {
                split_range(shape.k, self.threads).map(|k| vec![TileRegion { k, ..full }]).collect()
            }
            ParallelAxis::OutputRows => {
                // Flatten the n·h output rows, split them contiguously, and
                // rebuild each chunk as per-batch rectangles (a chunk may
                // straddle a batch boundary).
                let rows = shape.n * shape.h;
                split_range(rows, self.threads)
                    .map(|(start, len)| {
                        let mut regions = Vec::new();
                        let mut row = start;
                        let end = start + len;
                        while row < end {
                            let n = row / shape.h;
                            let h_lo = row % shape.h;
                            let h_len = (shape.h - h_lo).min(end - row);
                            regions.push(TileRegion { n: (n, 1), h: (h_lo, h_len), ..full });
                            row += h_len;
                        }
                        regions
                    })
                    .collect()
            }
        }
    }

    /// The cross-product slice grid of the configuration's parallel factors:
    /// each non-reduction dimension with factor `f > 1` is split into `f`
    /// contiguous chunks, and every combination of chunks is one region.
    /// The regions tile the full output space disjointly.
    fn factor_grid(&self, full: &TileRegion) -> Vec<TileRegion> {
        use conv_spec::LoopIndex;
        let shape = self.shape();
        let parallel = &self.config().parallel;
        let mut regions = vec![*full];
        for (idx, extent) in [
            (LoopIndex::N, shape.n),
            (LoopIndex::K, shape.k),
            (LoopIndex::H, shape.h),
            (LoopIndex::W, shape.w),
        ] {
            let f = parallel.get(idx);
            if f <= 1 {
                continue;
            }
            let chunks: Vec<_> = split_range(extent, f).collect();
            regions = regions
                .iter()
                .flat_map(|region| {
                    chunks.iter().map(move |&chunk| {
                        let mut r = *region;
                        match idx {
                            LoopIndex::N => r.n = chunk,
                            LoopIndex::K => r.k = chunk,
                            LoopIndex::H => r.h = chunk,
                            LoopIndex::W => r.w = chunk,
                            _ => unreachable!("reduction dims are never parallel factors"),
                        }
                        r
                    })
                })
                .collect();
        }
        regions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::conv2d_naive;
    use conv_spec::{LoopIndex, Permutation, TileSizes};

    fn config(shape: &ConvShape) -> TileConfig {
        TileConfig::new(
            Permutation::parse("kcrsnhw").unwrap(),
            [
                TileSizes::from_array([1, 4, 1, 1, 1, 1, 4]),
                TileSizes::from_array([1, 4, 3, 3, 3, 2, 5]),
                TileSizes::from_array([1, 8, 6, 3, 3, 5, 9]),
                TileSizes::from_array([2, 8, 6, 3, 3, 9, 11]),
            ],
            TileSizes::ones(),
        )
        .normalized(shape)
    }

    fn sequential_reference(shape: &ConvShape, seed: u64) -> (Tensor4, Tensor4, Tensor4) {
        let (ni, ci, hi, wi) = shape.input_dims();
        let (kk, kc, kr, ks) = shape.kernel_dims();
        let input = Tensor4::random(ni, ci, hi, wi, seed);
        let kernel = Tensor4::random(kk, kc, kr, ks, seed + 1);
        let seq = TiledConv::new(*shape, config(shape), 1).unwrap();
        let expected = seq.run(&input, &kernel);
        (input, kernel, expected)
    }

    #[test]
    fn both_axes_are_bit_identical_to_the_sequential_walk() {
        let shape = ConvShape::new(2, 8, 6, 3, 3, 9, 11, 1).unwrap();
        let (input, kernel, expected) = sequential_reference(&shape, 42);
        for axis in ParallelAxis::ALL {
            for threads in [1, 2, 3, 5, 64] {
                let par =
                    ParTiledConv::new(shape, config(&shape), threads).unwrap().with_axis(axis);
                let got = par.run(&input, &kernel);
                assert_eq!(got.as_slice(), expected.as_slice(), "axis {axis}, threads {threads}");
            }
        }
    }

    #[test]
    fn threads_beyond_the_axis_extent_are_capped() {
        // k = 2 with 8 threads on the channel axis; n·h = 9 rows with 64.
        let shape = ConvShape::new(1, 2, 3, 3, 3, 9, 9, 1).unwrap();
        let (input, kernel, expected) = sequential_reference(&shape, 7);
        for (axis, threads) in [(ParallelAxis::OutputChannels, 8), (ParallelAxis::OutputRows, 64)] {
            let par = ParTiledConv::new(shape, config(&shape), threads).unwrap().with_axis(axis);
            let got = par.run(&input, &kernel);
            assert_eq!(got.as_slice(), expected.as_slice(), "axis {axis}");
        }
    }

    #[test]
    fn certified_factor_grids_execute_as_certified_and_stay_exact() {
        // A mixed-axis factor vector (K=2 · H=2) on a shape neither axis can
        // absorb alone: the executor must run the certified grid, not
        // collapse to one axis, and stay bit-for-bit exact.
        let shape = ConvShape::new(1, 3, 4, 3, 3, 3, 5, 1).unwrap();
        let mut cfg = config(&shape);
        cfg.parallel = TileSizes::ones().with(LoopIndex::K, 2).with(LoopIndex::H, 2);
        let (input, kernel, _) = sequential_reference(&shape, 55);
        let expected = TiledConv::new(shape, cfg.clone(), 1).unwrap().run(&input, &kernel);
        for threads in [1, 2, 4, 9] {
            let par = ParTiledConv::new(shape, cfg.clone(), threads).unwrap();
            let got = par.run(&input, &kernel);
            assert_eq!(got.as_slice(), expected.as_slice(), "threads {threads}");
        }
        // The grid really is the 2×2 cross product of the factors.
        let par = ParTiledConv::new(shape, cfg, 4).unwrap();
        let grid = par.factor_grid(&TileRegion::full(&shape));
        assert_eq!(grid.len(), 4);
        let mut cells: Vec<_> = grid.iter().map(|r| (r.k, r.h)).collect();
        cells.sort();
        assert_eq!(
            cells,
            vec![((0, 2), (0, 2)), ((0, 2), (2, 1)), ((2, 1), (0, 2)), ((2, 1), (2, 1))]
        );
    }

    #[test]
    fn row_chunks_straddling_batches_stay_exact() {
        // 3 batches × 5 rows split across 4 threads: chunks cross n bounds.
        let shape = ConvShape::new(3, 4, 3, 3, 3, 5, 6, 1).unwrap();
        let (input, kernel, expected) = sequential_reference(&shape, 99);
        let par = ParTiledConv::new(shape, config(&shape), 4)
            .unwrap()
            .with_axis(ParallelAxis::OutputRows);
        assert_eq!(par.run(&input, &kernel).as_slice(), expected.as_slice());
    }

    #[test]
    fn axis_defaults_to_the_configs_parallel_factors() {
        let shape = ConvShape::new(1, 8, 4, 3, 3, 8, 8, 1).unwrap();
        let mut cfg = config(&shape);
        cfg.parallel = TileSizes::ones().with(LoopIndex::H, 4);
        let par = ParTiledConv::new(shape, cfg, 4).unwrap();
        assert_eq!(par.axis(), ParallelAxis::OutputRows);
        assert_eq!(par.threads(), 4);
        let (input, kernel, expected) = sequential_reference(&shape, 11);
        assert_eq!(par.run(&input, &kernel).as_slice(), expected.as_slice());
    }

    #[test]
    fn generalized_shapes_match_naive_within_tolerance_and_sequential_exactly() {
        for (groups, stride, dilation) in [(4, 1, 1), (1, 2, 1), (8, 1, 2)] {
            let shape =
                ConvShape::new_general(1, 8, 8, 3, 3, 9, 9, stride, dilation, groups).unwrap();
            let (input, kernel, expected) = sequential_reference(&shape, 123);
            let par = ParTiledConv::new(shape, config(&shape), 3).unwrap();
            let got = par.run(&input, &kernel);
            assert_eq!(got.as_slice(), expected.as_slice());
            let naive = conv2d_naive(&shape, &input, &kernel);
            assert!(naive.allclose(&got, 1e-4));
        }
    }
}
