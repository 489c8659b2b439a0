//! The L1-tile microkernel.
//!
//! The paper's microkernel (Sec. 6) keeps a block of output elements in
//! vector registers, broadcasts input pixels, and streams packed kernel
//! vectors through FMA instructions (an outer-product scheme like BLIS).
//! [`L1Kernel`] does the same for a whole L1 tile: each register output
//! block (the register tile's `n·k·h·w` extents) is loaded into vector
//! accumulators once, accumulates the L1 tile's entire `c·r·s` range, and
//! is stored once. The reduction is visited in the schedule's own order —
//! register sub-tiles in permutation order, then `c → r → s` inside each —
//! so every output's sum is formed in exactly the order the per-register-
//! tile loop nest forms it. Kernel vectors come from per-run [`KPanels`], so
//! the vector path runs for any K block; input and output are addressed
//! through strided rows ([`InputView`], [`OutputView`]).

use std::sync::OnceLock;

use conv_spec::tiling::tiles;
use conv_spec::{ConvShape, LoopIndex, TileConfig, TileRegion, TileSizes, TilingLevel};

use crate::packing::{group_blocks, KPanels, PANEL_LANES};
use crate::tensor::Tensor4;
use crate::tiled::split_range;

/// Read-only logical-NCHW tensor storage, addressed by strided rows. The
/// microkernel never asks for single elements: it splits every offset into
/// a per-pixel and a per-reduction-step part, so the same kernel runs over
/// plain NCHW ([`Tensor4`]) and blocked NCHWc storage with identical
/// arithmetic (and therefore bit-identical results).
pub trait InputView {
    /// The backing buffer.
    fn buffer(&self) -> &[f32];
    /// Offset of element `(n, c, h, 0)`, the first of the row `(n, c, h)`.
    /// Offsets must be additively separable:
    /// `row(n, c, h) == row(n, 0, 0) + row(0, c, 0) + h * strides().0`.
    fn row(&self, n: usize, c: usize, h: usize) -> usize;
    /// `(row, column)` strides: the distance between rows `h` and `h + 1`
    /// of one channel plane, and between consecutive elements of a row.
    fn strides(&self) -> (usize, usize);
}

/// Logical-NKHW output storage: an [`InputView`] that can also be written.
pub trait OutputView: InputView {
    /// The mutable backing buffer.
    fn buffer_mut(&mut self) -> &mut [f32];
}

impl InputView for Tensor4 {
    fn buffer(&self) -> &[f32] {
        self.as_slice()
    }
    fn row(&self, n: usize, c: usize, h: usize) -> usize {
        self.offset(n, c, h, 0)
    }
    fn strides(&self) -> (usize, usize) {
        (self.dims().3, 1)
    }
}

impl OutputView for Tensor4 {
    fn buffer_mut(&mut self) -> &mut [f32] {
        self.as_mut_slice()
    }
}

/// The inner-loop implementation the runtime dispatcher selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdBackend {
    /// Portable scalar lanes — the exact reference accumulation order
    /// (`a += x * k`, two roundings per MAC). Auto-vectorizable.
    Scalar,
    /// AVX2 + FMA intrinsics, eight lanes per vector: the same accumulation
    /// order per lane with fused multiply–adds (one rounding per MAC), so
    /// results are ULP-bounded against [`SimdBackend::Scalar`].
    Avx2Fma,
}

impl SimdBackend {
    /// Short tag used by benchmark reports (`scalar` / `avx2fma`).
    pub fn name(self) -> &'static str {
        match self {
            SimdBackend::Scalar => "scalar",
            SimdBackend::Avx2Fma => "avx2fma",
        }
    }
}

impl std::fmt::Display for SimdBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

static ACTIVE_BACKEND: OnceLock<SimdBackend> = OnceLock::new();

/// Whether `MOPT_FORCE_SCALAR` is set (non-empty, not `"0"`): the escape
/// hatch that pins every executor to the exact scalar reference path, used
/// by the runtime-dispatch fallback tests and available to operators.
pub fn force_scalar() -> bool {
    std::env::var_os("MOPT_FORCE_SCALAR").is_some_and(|v| !v.is_empty() && v != "0")
}

/// The microkernel backend for this process: AVX2+FMA when the CPU reports
/// both features at runtime (`is_x86_feature_detected!`) and
/// `MOPT_FORCE_SCALAR` is unset, the scalar reference otherwise. Cached
/// after the first call.
pub fn active_backend() -> SimdBackend {
    *ACTIVE_BACKEND.get_or_init(|| {
        if force_scalar() {
            return SimdBackend::Scalar;
        }
        detected_backend()
    })
}

/// The best backend the CPU supports, ignoring `MOPT_FORCE_SCALAR`.
pub fn detected_backend() -> SimdBackend {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return SimdBackend::Avx2Fma;
        }
    }
    SimdBackend::Scalar
}

/// Accumulator vectors one microkernel call holds: enough independent FMA
/// chains to keep two FMA ports busy, few enough that the accumulators, the
/// panel row and the broadcast pixel fit the 16 AVX2 registers and the
/// pixel offsets fit the general-purpose ones (12 spilled and ran up to
/// 1.4× slower on the served ResNet-18 schedules, 2-vCPU Xeon host).
const ACC_VECTORS: usize = 8;

/// Most panel vectors (of [`PANEL_LANES`] output channels) one call covers.
const MAX_VECTORS: usize = 4;

/// The L1-tile microkernel of one schedule over one input/output pair: runs
/// every register tile of an L1 tile, holding each register output block in
/// accumulators across the tile's whole reduction.
///
/// For each register K block, the tile's pixels — register output block
/// after register output block — are cut into sub-blocks of at most eight
/// 8-lane accumulator vectors (pixels × vectors), each of which runs the
/// whole reduction. Sub-blocks change which outputs share registers,
/// never any output's summation order. The kernel keeps the tile's
/// reduction steps and pixels while consecutive tiles share them; make one
/// per thread.
#[derive(Debug)]
pub struct L1Kernel<'a, I, O> {
    shape: ConvShape,
    panels: &'a KPanels,
    input: &'a I,
    output: &'a mut O,
    register: TileSizes,
    /// `c`, `r`, `s` from the outermost to the innermost loop.
    reduction: [LoopIndex; 3],
    backend: SimdBackend,
    /// `(c, r, s)` of the current L1 tile's reduction steps, in order.
    crs: Vec<(usize, usize, usize)>,
    /// The tile `(c, r, s)` ranges `crs` was computed for.
    crs_key: Option<[(usize, usize); 3]>,
    /// `(input offset, panel offset)` of each step, for `steps_key`.
    steps: Vec<(usize, usize)>,
    /// The `(c_base, panel width)` `steps` was computed for.
    steps_key: Option<(usize, usize)>,
    /// Largest `(input offset, panel offset)` in `steps`.
    steps_max: (usize, usize),
    /// `(input offset, output offset)` of each pixel of the tile, in
    /// register output block order.
    pixels: Vec<(usize, usize)>,
    /// The tile `(n, h, w)` ranges `pixels` was computed for.
    pixels_key: Option<[(usize, usize); 3]>,
    /// Output offset of each channel of the current K block.
    lanes: Vec<usize>,
    vector_steps: u64,
}

impl<'a, I: InputView, O: OutputView> L1Kernel<'a, I, O> {
    /// A kernel for `shape` under `config`'s register tile sizes and loop
    /// permutation, reading kernel vectors from `panels` and accumulating
    /// `input`'s convolution into `output`.
    ///
    /// # Panics
    ///
    /// Panics if `backend` is [`SimdBackend::Avx2Fma`] and the CPU does not
    /// report AVX2 and FMA.
    pub fn new(
        shape: &ConvShape,
        config: &TileConfig,
        panels: &'a KPanels,
        backend: SimdBackend,
        input: &'a I,
        output: &'a mut O,
    ) -> Self {
        assert!(
            backend == SimdBackend::Scalar || detected_backend() == backend,
            "the CPU does not support the {backend} backend"
        );
        let mut reduction = [LoopIndex::C, LoopIndex::R, LoopIndex::S];
        let mut order = config
            .permutation
            .outer_to_inner()
            .iter()
            .filter(|idx| matches!(idx, LoopIndex::C | LoopIndex::R | LoopIndex::S));
        for slot in &mut reduction {
            *slot = *order.next().expect("a permutation holds c, r and s");
        }
        L1Kernel {
            shape: *shape,
            panels,
            input,
            output,
            register: *config.level(TilingLevel::Register),
            reduction,
            backend,
            crs: Vec::new(),
            crs_key: None,
            steps: Vec::new(),
            steps_key: None,
            steps_max: (0, 0),
            pixels: Vec::new(),
            pixels_key: None,
            lanes: Vec::new(),
            vector_steps: 0,
        }
    }

    /// Vector FMA instructions issued so far (0 on the scalar backend).
    pub fn vector_steps(&self) -> u64 {
        self.vector_steps
    }

    /// Accumulate the L1 tile `tile` into the output. The tile's `c` range
    /// is group-relative (`0..shape.reduction_c()`); K blocks that straddle
    /// a group edge are split there.
    pub fn run(&mut self, tile: &TileRegion) {
        if tile.macs() == 0 {
            return;
        }
        if self.crs_key != Some([tile.c, tile.r, tile.s]) {
            self.fill_reduction(tile);
        }
        if self.pixels_key != Some([tile.n, tile.h, tile.w]) {
            self.fill_pixels(tile);
        }
        let shape = self.shape;
        for (k, nk) in tiles(tile.k, self.register.get(LoopIndex::K)) {
            for (k0, nk, c_base) in group_blocks(&shape, k, nk) {
                let width = nk.div_ceil(PANEL_LANES) * PANEL_LANES;
                if self.steps_key != Some((c_base, width)) {
                    self.fill_steps(c_base, width);
                }
                self.lanes.clear();
                self.lanes.extend((k0..k0 + nk).map(|k| self.output.row(0, k, 0)));
                self.accumulate(self.panels.panel(k0, nk));
            }
        }
    }

    /// The tile's `(c, r, s)` steps: register sub-tiles in permutation
    /// order, `c → r → s` inside each.
    fn fill_reduction(&mut self, tile: &TileRegion) {
        self.crs_key = Some([tile.c, tile.r, tile.s]);
        self.steps_key = None;
        self.crs.clear();
        let [a, b, c] = self.reduction;
        let t = |idx| self.register.get(idx);
        let mut sub = *tile;
        for ra in tiles(tile.get(a), t(a)) {
            sub.set(a, ra);
            for rb in tiles(tile.get(b), t(b)) {
                sub.set(b, rb);
                for rc in tiles(tile.get(c), t(c)) {
                    sub.set(c, rc);
                    for ci in sub.c.0..sub.c.0 + sub.c.1 {
                        for ri in sub.r.0..sub.r.0 + sub.r.1 {
                            for si in sub.s.0..sub.s.0 + sub.s.1 {
                                self.crs.push((ci, ri, si));
                            }
                        }
                    }
                }
            }
        }
    }

    /// Offsets of each step for the group whose channel 0 is input channel
    /// `c_base`, into panels `width` lanes wide.
    fn fill_steps(&mut self, c_base: usize, width: usize) {
        let input = self.input;
        let (_, col) = input.strides();
        let (r_len, s_len, dil) = (self.shape.r, self.shape.s, self.shape.dilation);
        self.steps.clear();
        self.steps.extend(self.crs.iter().map(|&(c, r, s)| {
            let panel_row = (c * r_len + r) * s_len + s;
            (input.row(0, c_base + c, r * dil) + s * dil * col, panel_row * width)
        }));
        self.steps_max = self.steps.iter().fold((0, 0), |m, &(i, w)| (m.0.max(i), m.1.max(w)));
        self.steps_key = Some((c_base, width));
    }

    /// Offsets of each pixel of the tile, register output block by block.
    fn fill_pixels(&mut self, tile: &TileRegion) {
        self.pixels_key = Some([tile.n, tile.h, tile.w]);
        let (input, output) = (self.input, &*self.output);
        let ((_, in_col), (_, out_col)) = (input.strides(), output.strides());
        let stride = self.shape.stride;
        let t = |idx| self.register.get(idx);
        self.pixels.clear();
        for n in tiles(tile.n, t(LoopIndex::N)) {
            for h in tiles(tile.h, t(LoopIndex::H)) {
                for w in tiles(tile.w, t(LoopIndex::W)) {
                    for ni in n.0..n.0 + n.1 {
                        for hi in h.0..h.0 + h.1 {
                            let in_row = input.row(ni, 0, hi * stride);
                            let out_row = output.row(ni, 0, hi);
                            for wi in w.0..w.0 + w.1 {
                                let pixel = (in_row + wi * stride * in_col, out_row + wi * out_col);
                                self.pixels.push(pixel);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Run the whole reduction for the tile's pixels and the current K
    /// block, in accumulator-sized sub-blocks.
    fn accumulate(&mut self, panel: &[f32]) {
        let x = self.input.buffer();
        let out = self.output.buffer_mut();
        let vectors = self.lanes.len().div_ceil(PANEL_LANES);
        for (v0, nv) in split_range(vectors, vectors.div_ceil(MAX_VECTORS)) {
            let pmax = ACC_VECTORS / nv;
            let lanes =
                &self.lanes[v0 * PANEL_LANES..self.lanes.len().min((v0 + nv) * PANEL_LANES)];
            let panel = &panel[v0 * PANEL_LANES..];
            assert!(self.steps_max.1 + nv * PANEL_LANES <= panel.len(), "panel row out of bounds");
            for (p0, np) in split_range(self.pixels.len(), self.pixels.len().div_ceil(pmax)) {
                let block = Block {
                    x,
                    pixels: &self.pixels[p0..p0 + np],
                    steps: &self.steps,
                    panel,
                    lanes,
                };
                let last = block.pixels.iter().map(|p| p.0).max().unwrap_or(0);
                assert!(last + self.steps_max.0 < x.len(), "input pixel out of bounds");
                match self.backend {
                    SimdBackend::Scalar => block.scalar(nv, out),
                    SimdBackend::Avx2Fma => {
                        block.avx2(np, nv, out);
                        self.vector_steps += (np * nv * self.steps.len()) as u64;
                    }
                }
            }
        }
    }
}

/// One accumulator-sized sub-block: at most [`ACC_VECTORS`] pixel × vector
/// accumulators, run over the whole reduction.
struct Block<'b> {
    x: &'b [f32],
    pixels: &'b [(usize, usize)],
    steps: &'b [(usize, usize)],
    /// The panel from this sub-block's first vector on.
    panel: &'b [f32],
    /// Output offsets of this sub-block's real (unpadded) channels.
    lanes: &'b [usize],
}

impl Block<'_> {
    /// Read pixel `p`'s output channels into `acc` (padding lanes untouched).
    fn load(&self, p: usize, acc: &mut [f32], out: &[f32]) {
        let base = self.pixels[p].1;
        for (a, &off) in acc.iter_mut().zip(self.lanes) {
            *a = out[base + off];
        }
    }

    /// Write pixel `p`'s real channels back from `acc`.
    fn store(&self, p: usize, acc: &[f32], out: &mut [f32]) {
        let base = self.pixels[p].1;
        for (&a, &off) in acc.iter().zip(self.lanes) {
            out[base + off] = a;
        }
    }

    /// The exact reference order: `a += x * k`, two roundings per MAC.
    fn scalar(&self, vectors: usize, out: &mut [f32]) {
        let width = vectors * PANEL_LANES;
        let real = self.lanes.len();
        let mut acc = [0.0f32; ACC_VECTORS * PANEL_LANES];
        let acc = &mut acc[..self.pixels.len() * width];
        for (p, a) in acc.chunks_exact_mut(width).enumerate() {
            self.load(p, a, out);
        }
        for &(io, wo) in self.steps {
            let k = &self.panel[wo..wo + real];
            for (&(pix, _), a) in self.pixels.iter().zip(acc.chunks_exact_mut(width)) {
                let x = self.x[pix + io];
                for (a, &k) in a.iter_mut().zip(k) {
                    *a += x * k;
                }
            }
        }
        for (p, a) in acc.chunks_exact(width).enumerate() {
            self.store(p, a, out);
        }
    }

    /// The AVX2 + FMA path for `pixels × vectors` accumulators.
    #[cfg(target_arch = "x86_64")]
    fn avx2(&self, pixels: usize, vectors: usize, out: &mut [f32]) {
        macro_rules! dispatch {
            ($(($p:literal, $v:literal)),*) => {
                match (pixels, vectors) {
                    // SAFETY: `L1Kernel::new` checked that the CPU reports
                    // AVX2 and FMA, and `L1Kernel::accumulate` checked every
                    // input and panel offset the loop forms.
                    $(($p, $v) => unsafe { accumulate_avx2::<$p, $v>(self, out) },)*
                    _ => unreachable!("sub-block exceeds the accumulator budget"),
                }
            };
        }
        dispatch!(
            (1, 1),
            (2, 1),
            (3, 1),
            (4, 1),
            (5, 1),
            (6, 1),
            (7, 1),
            (8, 1),
            (1, 2),
            (2, 2),
            (3, 2),
            (4, 2),
            (1, 3),
            (2, 3),
            (1, 4),
            (2, 4)
        )
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn avx2(&self, _pixels: usize, _vectors: usize, _out: &mut [f32]) {
        unreachable!("the Avx2Fma backend is only selected on x86_64")
    }
}

/// `P` pixels × `V` vectors of accumulators held in registers across the
/// whole reduction: per step, `V` panel vectors are loaded and each pixel
/// is broadcast against them with fused multiply–adds — the scalar path's
/// per-lane order with one rounding per MAC instead of two, so results are
/// ULP-bounded against [`SimdBackend::Scalar`].
///
/// # Safety
///
/// The CPU must support AVX2 and FMA; for every step `(io, wo)` and pixel
/// `(pix, _)` of `block`, `pix + io` must index `block.x` and
/// `wo + V * PANEL_LANES` must not exceed `block.panel.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn accumulate_avx2<const P: usize, const V: usize>(block: &Block<'_>, out: &mut [f32]) {
    use std::arch::x86_64::{
        __m256, _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_set1_ps, _mm256_setr_ps,
        _mm256_setzero_ps, _mm256_storeu_ps,
    };
    let mut lanes = [[0.0f32; PANEL_LANES]; V];
    let mut acc: [[__m256; V]; P] = [[_mm256_setzero_ps(); V]; P];
    let mut pix = [0usize; P];
    for (p, (acc_p, pix_p)) in acc.iter_mut().zip(&mut pix).enumerate() {
        // Assembled in registers: a vector load of freshly stored scalars
        // would stall on store forwarding.
        let base = block.pixels[p].1;
        for (v, a) in acc_p.iter_mut().enumerate() {
            let offs = &block.lanes[(v * PANEL_LANES).min(block.lanes.len())..];
            let lane = |i: usize| offs.get(i).map_or(0.0, |&off| out[base + off]);
            *a = _mm256_setr_ps(
                lane(0),
                lane(1),
                lane(2),
                lane(3),
                lane(4),
                lane(5),
                lane(6),
                lane(7),
            );
        }
        *pix_p = block.pixels[p].0;
    }
    let (x, w) = (block.x.as_ptr(), block.panel.as_ptr());
    for &(io, wo) in block.steps {
        // SAFETY: the caller guarantees `pix[p] + io` and
        // `wo + V * PANEL_LANES` are in bounds.
        unsafe {
            let mut k = [_mm256_setzero_ps(); V];
            for (v, kv) in k.iter_mut().enumerate() {
                *kv = _mm256_loadu_ps(w.add(wo + v * PANEL_LANES));
            }
            let xs = x.add(io);
            for (acc_p, &pix_p) in acc.iter_mut().zip(&pix) {
                let xb = _mm256_set1_ps(*xs.add(pix_p));
                for (a, &kv) in acc_p.iter_mut().zip(&k) {
                    *a = _mm256_fmadd_ps(xb, kv, *a);
                }
            }
        }
    }
    for (p, acc_p) in acc.iter().enumerate() {
        for (lane, &a) in lanes.iter_mut().zip(acc_p) {
            // SAFETY: `lane` holds PANEL_LANES f32s.
            unsafe { _mm256_storeu_ps(lane.as_mut_ptr(), a) };
        }
        block.store(p, lanes.as_flattened(), out);
    }
}

/// One register tile as a plain loop nest: the reference for the exact
/// scalar arithmetic [`L1Kernel`] must reproduce. Each output of `region`
/// is loaded, accumulates the region's `c → r → s` reduction as
/// `a += x * k`, and is stored back; K ranges are split at group edges.
#[cfg(test)]
pub(crate) fn run_microkernel(
    shape: &ConvShape,
    input: &Tensor4,
    kernel: &crate::packing::PackedKernel,
    output: &mut Tensor4,
    region: &TileRegion,
) {
    let (stride, dil) = (shape.stride, shape.dilation);
    let range = |(start, len): (usize, usize)| start..start + len;
    for (k0, nk, c_base) in group_blocks(shape, region.k.0, region.k.1) {
        for n in range(region.n) {
            for h in range(region.h) {
                for w in range(region.w) {
                    for k in k0..k0 + nk {
                        let mut a = output.at(n, k, h, w);
                        for c in range(region.c) {
                            for r in range(region.r) {
                                for s in range(region.s) {
                                    let x = input.at(
                                        n,
                                        c_base + c,
                                        h * stride + r * dil,
                                        w * stride + s * dil,
                                    );
                                    a += x * kernel.at(k, c, r, s);
                                }
                            }
                        }
                        *output.at_mut(n, k, h, w) = a;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::conv2d_naive;
    use crate::packing::PackedKernel;

    fn setup(shape: &ConvShape) -> (Tensor4, Tensor4, PackedKernel) {
        let (ni, ci, hi, wi) = shape.input_dims();
        let (kk, kc, kr, ks) = shape.kernel_dims();
        let input = Tensor4::random(ni, ci, hi, wi, 11);
        let kernel = Tensor4::random(kk, kc, kr, ks, 12);
        let packed = PackedKernel::pack(shape, &kernel, 8);
        (input, kernel, packed)
    }

    /// Run one L1 tile with register tile `reg`; returns the vector steps
    /// issued.
    fn run_tile(
        shape: &ConvShape,
        input: &Tensor4,
        packed: &PackedKernel,
        out: &mut Tensor4,
        tile: &TileRegion,
        reg: [usize; 7],
        backend: SimdBackend,
    ) -> u64 {
        let mut config = TileConfig::untiled(shape);
        *config.level_mut(TilingLevel::Register) = TileSizes::from_array(reg);
        config.permutation = conv_spec::Permutation::parse("nkhwcrs").unwrap();
        let panels = KPanels::new(shape, packed, &[reg[1]], &[tile.k]);
        let mut kernel = L1Kernel::new(shape, &config, &panels, backend, input, out);
        kernel.run(tile);
        kernel.vector_steps()
    }

    fn full_tile(shape: &ConvShape, reg: [usize; 7]) -> Tensor4 {
        let (input, _kernel, packed) = setup(shape);
        let mut out = Tensor4::zeros(shape.n, shape.k, shape.h, shape.w);
        let full = TileRegion::full(shape);
        run_tile(shape, &input, &packed, &mut out, &full, reg, active_backend());
        out
    }

    #[test]
    fn full_region_matches_naive() {
        let shape = ConvShape::new(1, 6, 3, 3, 3, 5, 5, 1).unwrap();
        let (input, kernel, _) = setup(&shape);
        let reference = conv2d_naive(&shape, &input, &kernel);
        let out = full_tile(&shape, [1, 4, 2, 1, 3, 2, 3]);
        assert!(reference.allclose(&out, 1e-4), "max diff {}", reference.max_abs_diff(&out));
    }

    #[test]
    fn partial_regions_compose_to_full_result() {
        // Splitting the reduction (c) and output (k, w) dimensions across
        // several L1 tiles must accumulate to the same result.
        let shape = ConvShape::new(1, 4, 4, 3, 3, 6, 6, 1).unwrap();
        let (input, kernel, packed) = setup(&shape);
        let reference = conv2d_naive(&shape, &input, &kernel);
        let mut out = Tensor4::zeros(shape.n, shape.k, shape.h, shape.w);
        for k0 in (0..shape.k).step_by(2) {
            for c0 in (0..shape.c).step_by(2) {
                for w0 in (0..shape.w).step_by(3) {
                    let tile = TileRegion {
                        k: (k0, 2),
                        c: (c0, 2),
                        w: (w0, 3),
                        ..TileRegion::full(&shape)
                    };
                    let reg = [1, 1, 1, 2, 3, 2, 2];
                    run_tile(&shape, &input, &packed, &mut out, &tile, reg, active_backend());
                }
            }
        }
        assert!(reference.allclose(&out, 1e-4));
    }

    #[test]
    fn strided_dilated_grouped_and_depthwise_tiles_match_naive() {
        for shape in [
            ConvShape::from_table1(4, 3, 9, 3, 2),
            ConvShape::from_table1_dilated(4, 3, 12, 3, 1, 2),
            ConvShape::depthwise(12, 8, 3, 1),
            // K blocks of 3 straddle the 2-channel groups.
            ConvShape::new_general(1, 8, 8, 3, 3, 6, 6, 1, 1, 4).unwrap(),
        ] {
            let (input, kernel, _) = setup(&shape);
            let reference = conv2d_naive(&shape, &input, &kernel);
            let out = full_tile(&shape, [1, 3, 1, 2, 2, 2, 3]);
            assert!(reference.allclose(&out, 1e-4), "{shape}: {}", reference.max_abs_diff(&out));
        }
    }

    #[test]
    fn oversized_register_blocks_are_split_and_keep_the_order() {
        // A whole-problem register tile (40 channels × 144 pixels) far
        // exceeds the accumulator budget: it runs as sub-blocks, each over
        // the full reduction, so the scalar result is the reference's bits.
        let shape = ConvShape::new(1, 40, 2, 3, 3, 12, 12, 1).unwrap();
        let (input, _kernel, packed) = setup(&shape);
        let full = TileRegion::full(&shape);
        let mut expected = Tensor4::zeros(shape.n, shape.k, shape.h, shape.w);
        run_microkernel(&shape, &input, &packed, &mut expected, &full);
        let mut out = Tensor4::zeros(shape.n, shape.k, shape.h, shape.w);
        let reg = [1, 40, 2, 3, 3, 12, 12];
        run_tile(&shape, &input, &packed, &mut out, &full, reg, SimdBackend::Scalar);
        assert_eq!(expected.as_slice(), out.as_slice());
    }

    #[test]
    fn empty_region_is_a_no_op() {
        let shape = ConvShape::new(1, 2, 2, 1, 1, 2, 2, 1).unwrap();
        let (input, _kernel, packed) = setup(&shape);
        let mut out = Tensor4::zeros(shape.n, shape.k, shape.h, shape.w);
        let mut region = TileRegion::full(&shape);
        region.c = (0, 0);
        let steps = run_tile(&shape, &input, &packed, &mut out, &region, [1; 7], active_backend());
        assert!(out.as_slice().iter().all(|&v| v == 0.0));
        assert_eq!((region.macs(), steps), (0, 0));
    }

    #[test]
    fn backend_name_round_trips_display() {
        assert_eq!(SimdBackend::Scalar.to_string(), "scalar");
        assert_eq!(SimdBackend::Avx2Fma.to_string(), "avx2fma");
    }

    /// Run every `(k0, nk)` block of `shape` on both backends; returns the
    /// scalar and AVX2 outputs and the AVX2 run's vector steps.
    fn both_backends(
        shape: &ConvShape,
        k_blocks: &[(usize, usize)],
        reg: [usize; 7],
    ) -> (Tensor4, Tensor4, u64) {
        let (input, _kernel, packed) = setup(shape);
        let mut scalar_out = Tensor4::zeros(shape.n, shape.k, shape.h, shape.w);
        let mut simd_out = Tensor4::zeros(shape.n, shape.k, shape.h, shape.w);
        let mut steps = 0;
        for &k in k_blocks {
            let mut reg = reg;
            reg[1] = k.1;
            let tile = TileRegion { k, ..TileRegion::full(shape) };
            let scalar = SimdBackend::Scalar;
            run_tile(shape, &input, &packed, &mut scalar_out, &tile, reg, scalar);
            let avx2 = SimdBackend::Avx2Fma;
            steps += run_tile(shape, &input, &packed, &mut simd_out, &tile, reg, avx2);
        }
        (scalar_out, simd_out, steps)
    }

    /// One fused rounding per MAC vs two scalar roundings: each of the
    /// `macs` reduction steps differs by at most one ULP of the running
    /// accumulator (intermediate magnitude O(1) for inputs in [-1, 1]), so
    /// the paths agree to ~macs · ε even when the final value is tiny from
    /// cancellation. A real lane bug would be off by O(1).
    fn assert_ulp_bounded(scalar: &Tensor4, simd: &Tensor4, macs: usize) {
        let tol = macs as f32 * f32::EPSILON * 4.0;
        for (a, b) in scalar.as_slice().iter().zip(simd.as_slice()) {
            assert!((a - b).abs() <= tol, "scalar {a} vs simd {b}");
        }
    }

    #[test]
    fn avx2_backend_is_ulp_bounded_against_scalar() {
        if detected_backend() != SimdBackend::Avx2Fma {
            eprintln!("skipping: CPU does not report avx2+fma");
            return;
        }
        for &(stride, dilation, groups) in &[(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2)] {
            let shape =
                ConvShape::new_general(2, 16, 8, 3, 3, 6, 6, stride, dilation, groups).unwrap();
            let blocks = [(0, 8), (8, 8)];
            let (scalar, simd, steps) = both_backends(&shape, &blocks, [1, 8, 2, 3, 1, 2, 3]);
            assert!(steps > 0);
            assert_ulp_bounded(&scalar, &simd, shape.reduction_c() * 9);
        }
    }

    #[test]
    fn unaligned_k_blocks_take_the_vector_path() {
        if detected_backend() != SimdBackend::Avx2Fma {
            eprintln!("skipping: CPU does not report avx2+fma");
            return;
        }
        // Every block starts off a multiple of 8 (except the first) and
        // spans 1..3 vectors: each must issue vector steps, and the whole
        // output must stay within the ULP bound of the scalar path.
        let shape = ConvShape::new(1, 56, 4, 3, 3, 5, 5, 1).unwrap();
        let mut blocks = Vec::new();
        let mut k0 = 0;
        for nk in [1, 2, 3, 5, 9, 13, 23] {
            blocks.push((k0, nk));
            k0 += nk;
        }
        assert_eq!(k0, shape.k);
        for &block in &blocks {
            let (_, _, steps) = both_backends(&shape, &[block], [1, 1, 2, 1, 3, 2, 2]);
            assert!(steps > 0, "block {block:?} never reached the vector path");
            assert!(block.0 == 0 || block.0 % PANEL_LANES != 0);
        }
        let (scalar, simd, _) = both_backends(&shape, &blocks, [1, 1, 2, 1, 3, 2, 2]);
        assert_ulp_bounded(&scalar, &simd, shape.c * 9);
    }

    #[test]
    fn force_scalar_env_parses_common_values() {
        // Can't mutate process env safely in parallel tests; exercise the
        // pure predicate through its documented contract instead.
        assert!(matches!(active_backend(), SimdBackend::Scalar | SimdBackend::Avx2Fma));
        // Cached value is stable.
        assert_eq!(active_backend(), active_backend());
    }
}
