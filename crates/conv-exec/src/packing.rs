//! Kernel packing (Sec. 6, "Packing").
//!
//! Efficient vectorization of the microkernel requires stride-1 access along
//! the vectorized output-channel dimension, but the benchmark layout is
//! `KCRS`, in which `K` is the slowest-varying dimension. The packing pass
//! rearranges the kernel into `[K/VecLen, C, R, S, VecLen]` (padding `K` up to
//! a multiple of the vector length with zeros) before the convolution. The
//! paper includes the packing time in all measurements; the measurement
//! helpers in [`crate::measure`] do the same.

use conv_spec::{layout::PackedKernelLayout, tiling::tiles, ConvShape};

use crate::tensor::Tensor4;

/// A kernel packed into the vector-friendly `[K/VecLen, C, R, S, VecLen]`
/// layout.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedKernel {
    layout: PackedKernelLayout,
    data: Vec<f32>,
}

impl PackedKernel {
    /// Pack a `KCRS` kernel tensor for a given SIMD vector length. The `C`
    /// dimension of the kernel tensor is the per-group reduction extent
    /// (`shape.reduction_c()`), i.e. 1 for a depthwise shape.
    ///
    /// # Panics
    ///
    /// Panics if the kernel dimensions do not match the shape or `vec_len`
    /// is zero.
    pub fn pack(shape: &ConvShape, kernel: &Tensor4, vec_len: usize) -> Self {
        assert!(vec_len > 0, "vector length must be positive");
        assert_eq!(
            kernel.dims(),
            shape.kernel_dims(),
            "kernel tensor dimensions do not match the shape"
        );
        let layout = PackedKernelLayout::new(shape, vec_len);
        let mut data = vec![0.0f32; layout.len()];
        // `KCRS` keeps each output channel's `C·R·S` weights contiguous; they
        // land `vec_len` apart in the channel's packed lane.
        let crs = shape.reduction_c() * shape.r * shape.s;
        for (k, weights) in kernel.as_slice().chunks_exact(crs.max(1)).enumerate() {
            let base = (k / vec_len) * crs * vec_len + k % vec_len;
            for (i, &value) in weights.iter().enumerate() {
                data[base + i * vec_len] = value;
            }
        }
        PackedKernel { layout, data }
    }

    /// The packed layout description.
    pub fn layout(&self) -> &PackedKernelLayout {
        &self.layout
    }

    /// Vector length used for packing.
    pub fn vec_len(&self) -> usize {
        self.layout.vec_len
    }

    /// The packed buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Element for output channel `k`, input channel `c`, kernel position
    /// `(r, s)`. Padding lanes read as zero.
    #[inline]
    pub fn at(&self, k: usize, c: usize, r: usize, s: usize) -> f32 {
        self.data[self.layout.offset(k, c, r, s)]
    }

    /// The contiguous vector (of `vec_len` lanes) covering output channels
    /// `[group_base(k), group_base(k) + vec_len)` at `(c, r, s)`.
    #[inline]
    pub fn group(&self, k: usize, c: usize, r: usize, s: usize) -> &[f32] {
        let base = self.layout.group_base(k, c, r, s);
        &self.data[base..base + self.layout.vec_len]
    }
}

/// Lanes per panel vector: one AVX2 register of `f32`.
pub const PANEL_LANES: usize = 8;

/// The packed kernel re-laid for the L1-tile microkernel
/// ([`crate::microkernel::L1Kernel`]): one `[C][R][S][⌈nk/8⌉·8]` panel per
/// register K block, zero-padded to whole vectors.
///
/// A panel row (one `(c, r, s)`) is every output channel of its block side
/// by side, so the microkernel loads it as `⌈nk/8⌉` aligned-width vectors
/// whatever the block's start and length. The K partition depends only on
/// the K tile sizes and the walked K ranges, so the panels are built once
/// per run. Blocks never straddle a channel group: a register K block that
/// crosses a group edge is split there, exactly as the microkernel splits
/// it.
#[derive(Debug, Clone, PartialEq)]
pub struct KPanels {
    crs: usize,
    data: Vec<f32>,
    /// `(offset, nk)` of the panel whose block starts at output channel `k`
    /// (`nk == 0` where no block starts).
    starts: Vec<(usize, usize)>,
}

impl KPanels {
    /// Panels for every register K block of a walk over each of
    /// `k_ranges` (`(start, len)`), tiled by `k_tiles` — the K tile sizes
    /// from the outermost level down to the register level. Ranges must be
    /// identical or disjoint, as the executors' partitions are.
    ///
    /// # Panics
    ///
    /// Panics if two walked blocks start at the same channel with
    /// different lengths (overlapping ranges).
    pub fn new(
        shape: &ConvShape,
        packed: &PackedKernel,
        k_tiles: &[usize],
        k_ranges: &[(usize, usize)],
    ) -> Self {
        let crs = shape.reduction_c() * shape.r * shape.s;
        let width = |nk: usize| nk.div_ceil(PANEL_LANES) * PANEL_LANES;
        let mut blocks = Vec::new();
        for &range in k_ranges {
            split_k(range, k_tiles, &mut blocks);
        }
        // Lay the distinct blocks out first, so the buffer is allocated
        // (and zeroed) once.
        let mut starts = vec![(0, 0); shape.k];
        let mut laid = Vec::new();
        let mut len = 0;
        for (k0, nk, _) in blocks.into_iter().flat_map(|(k0, nk)| group_blocks(shape, k0, nk)) {
            match starts[k0] {
                (_, 0) => {}
                (_, seen) => {
                    assert_eq!(seen, nk, "K blocks overlap at channel {k0}");
                    continue;
                }
            }
            starts[k0] = (len, nk);
            laid.push((k0, nk));
            len += crs * width(nk);
        }
        let mut data = vec![0.0f32; len];
        let (vl, src) = (packed.vec_len(), packed.as_slice());
        let mut lane_src = Vec::new();
        for (k0, nk) in laid {
            let base = starts[k0].0;
            lane_src.clear();
            lane_src.extend((k0..k0 + nk).map(|k| (k / vl) * crs * vl + k % vl));
            let rows = data[base..base + crs * width(nk)].chunks_exact_mut(width(nk));
            for (i, row) in rows.enumerate() {
                for (dst, &lane) in row.iter_mut().zip(&lane_src) {
                    *dst = src[lane + i * vl];
                }
            }
        }
        KPanels { crs, data, starts }
    }

    /// The panel of the block `k0..k0 + nk`: `C·R·S` rows of
    /// `⌈nk/8⌉·8` lanes, row `(c·R + r)·S + s`.
    ///
    /// # Panics
    ///
    /// Panics if no block of that extent was built.
    pub(crate) fn panel(&self, k0: usize, nk: usize) -> &[f32] {
        let (offset, len) = self.starts[k0];
        assert!(len == nk && nk > 0, "no K panel for channels {k0}..{}", k0 + nk);
        &self.data[offset..offset + self.crs * nk.div_ceil(PANEL_LANES) * PANEL_LANES]
    }
}

/// Split `range` by each tile size in turn, as the tile walk does,
/// appending the innermost chunks.
fn split_k(range: (usize, usize), k_tiles: &[usize], out: &mut Vec<(usize, usize)>) {
    let Some((&t, rest)) = k_tiles.split_first() else {
        out.push(range);
        return;
    };
    for tile in tiles(range, t) {
        split_k(tile, rest, out);
    }
}

/// The single-group pieces `(k_lo, len, c_base)` of the K block
/// `k0..k0 + nk`, where `c_base` is the absolute input channel of the
/// piece's group-relative channel 0. A dense shape yields the block itself
/// with `c_base == 0`.
pub(crate) fn group_blocks(
    shape: &ConvShape,
    k0: usize,
    nk: usize,
) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
    let k_per_group = shape.k_per_group().max(1);
    shape.groups_spanned(k0, nk).map(move |group| {
        let k_lo = k0.max(group * k_per_group);
        let k_hi = ((group + 1) * k_per_group).min(k0 + nk);
        (k_lo, k_hi - k_lo, shape.input_channel(k_lo, 0))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> ConvShape {
        ConvShape::new(1, 10, 2, 3, 3, 4, 4, 1).unwrap()
    }

    #[test]
    fn pack_roundtrips_every_element() {
        let s = shape();
        let kernel = Tensor4::random(s.k, s.c, s.r, s.s, 9);
        let packed = PackedKernel::pack(&s, &kernel, 8);
        for k in 0..s.k {
            for c in 0..s.c {
                for r in 0..s.r {
                    for sx in 0..s.s {
                        assert_eq!(packed.at(k, c, r, sx), kernel.at(k, c, r, sx));
                    }
                }
            }
        }
    }

    #[test]
    fn padding_lanes_are_zero() {
        let s = shape(); // K = 10, vec 8 → lanes 10..16 of group 1 are padding
        let kernel = Tensor4::random(s.k, s.c, s.r, s.s, 1);
        let packed = PackedKernel::pack(&s, &kernel, 8);
        let group = packed.group(9, 1, 2, 2);
        assert_eq!(group.len(), 8);
        // Lanes 2..8 of the second group correspond to k = 10..16 (padding).
        for &lane in &group[2..8] {
            assert_eq!(lane, 0.0);
        }
    }

    #[test]
    fn group_is_contiguous_over_k() {
        let s = shape();
        let kernel = Tensor4::random(s.k, s.c, s.r, s.s, 3);
        let packed = PackedKernel::pack(&s, &kernel, 4);
        let group = packed.group(5, 0, 1, 1); // covers k = 4..8
        for (lane, expect_k) in (4..8).enumerate() {
            assert_eq!(group[lane], kernel.at(expect_k, 0, 1, 1));
        }
        assert_eq!(packed.vec_len(), 4);
        assert_eq!(packed.as_slice().len(), packed.layout().len());
    }

    #[test]
    #[should_panic(expected = "vector length must be positive")]
    fn zero_vec_len_panics() {
        let s = shape();
        let kernel = Tensor4::zeros(s.k, s.c, s.r, s.s);
        let _ = PackedKernel::pack(&s, &kernel, 0);
    }

    #[test]
    fn panels_hold_each_register_k_block_zero_padded() {
        // K = 10 in two groups of 5, tiled by 7 then 3: blocks (0,3),
        // (3,3), (6,1), (7,3), and (3,3) is split at the group edge.
        let s = ConvShape::new_general(1, 10, 10, 3, 3, 4, 4, 1, 1, 2).unwrap();
        let kernel = Tensor4::random(s.k, s.reduction_c(), s.r, s.s, 5);
        let packed = PackedKernel::pack(&s, &kernel, 4);
        let panels = KPanels::new(&s, &packed, &[7, 3], &[(0, s.k)]);
        let crs = s.reduction_c() * s.r * s.s;
        for (k0, nk) in [(0, 3), (3, 2), (5, 1), (6, 1), (7, 3)] {
            let panel = panels.panel(k0, nk);
            assert_eq!(panel.len(), crs * PANEL_LANES);
            for (i, row) in panel.chunks_exact(PANEL_LANES).enumerate() {
                let (c, r, sx) = (i / (s.r * s.s), i / s.s % s.r, i % s.s);
                for (lane, &value) in row.iter().enumerate() {
                    let expected = if lane < nk { kernel.at(k0 + lane, c, r, sx) } else { 0.0 };
                    assert_eq!(value, expected, "block {k0}+{nk} row {i} lane {lane}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "no K panel")]
    fn panels_reject_unwalked_blocks() {
        let s = shape();
        let packed = PackedKernel::pack(&s, &Tensor4::zeros(s.k, s.c, s.r, s.s), 8);
        let _ = KPanels::new(&s, &packed, &[4], &[(0, s.k)]).panel(2, 4);
    }
}
