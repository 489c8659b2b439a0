//! Criterion bench: the L1-tile microkernel (Sec. 6), in isolation.

use conv_exec::{active_backend, KPanels, L1Kernel, PackedKernel, Tensor4};
use conv_spec::{ConvShape, Permutation, TileConfig, TileRegion, TileSizes, TilingLevel};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};

fn bench_microkernel(c: &mut Criterion) {
    let shape = ConvShape::new(1, 64, 64, 3, 3, 14, 14, 1).unwrap();
    let input = Tensor4::random(shape.n, shape.c, shape.input_h(), shape.input_w(), 1);
    let kernel = Tensor4::random(shape.k, shape.c, shape.r, shape.s, 2);
    let packed = PackedKernel::pack(&shape, &kernel, 8);
    // An L1 tile of 16 channels × 2 rows over the whole reduction, run as
    // register tiles like the paper's 2×(8-lane) × 6-pixel block.
    let tile = TileRegion { k: (0, 16), h: (0, 2), ..TileRegion::full(&shape) };
    let mut config = TileConfig::untiled(&shape);
    config.permutation = Permutation::parse("nkhwcrs").unwrap();
    *config.level_mut(TilingLevel::Register) = TileSizes::from_array([1, 16, 64, 3, 3, 1, 6]);
    let panels = KPanels::new(&shape, &packed, &[16], &[tile.k]);
    let flops = 2 * tile.macs() as u64;
    let mut group = c.benchmark_group("microkernel");
    group.throughput(Throughput::Elements(flops));
    group.bench_function("l1_tile_16x6", |b| {
        let mut out = Tensor4::zeros(shape.n, shape.k, shape.h, shape.w);
        let mut l1 = L1Kernel::new(&shape, &config, &panels, active_backend(), &input, &mut out);
        b.iter(|| l1.run(&tile));
    });
    group.finish();
}

fn bench_packing(c: &mut Criterion) {
    let shape = ConvShape::new(1, 256, 128, 3, 3, 14, 14, 1).unwrap();
    let kernel = Tensor4::random(shape.k, shape.c, shape.r, shape.s, 3);
    c.bench_function("microkernel/kernel_packing", |b| {
        b.iter(|| PackedKernel::pack(&shape, &kernel, 8).as_slice().len())
    });
}

criterion_group!(benches, bench_microkernel, bench_packing);
criterion_main!(benches);
