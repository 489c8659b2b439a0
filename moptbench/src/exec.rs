//! Executing served schedules with `conv_exec`.

use conv_exec::{naive::conv2d_naive, PackedKernel, SimdBackend, Tensor4, TiledConv};
use conv_spec::{BenchmarkOp, ConvShape, TileConfig};

use crate::spans::Tracer;

/// One operator's seeded inputs.
#[derive(Debug, Clone)]
pub struct OpCase {
    /// The operator (Table-1 name and shape).
    pub op: BenchmarkOp,
    /// Input activations.
    pub input: Tensor4,
    /// Weights, `KCRS`.
    pub kernel: Tensor4,
}

impl OpCase {
    /// Inputs for `op`, drawn from `seed`.
    pub fn generate(op: &BenchmarkOp, seed: u64) -> Self {
        let (a, b, c, d) = op.shape.input_dims();
        let (k0, k1, k2, k3) = op.shape.kernel_dims();
        OpCase {
            op: op.clone(),
            input: Tensor4::random(a, b, c, d, seed),
            kernel: Tensor4::random(k0, k1, k2, k3, seed ^ 0x9e37_79b9_7f4a_7c15),
        }
    }

    /// The problem shape.
    pub fn shape(&self) -> &ConvShape {
        &self.op.shape
    }

    /// Floating-point operations of one execution.
    pub fn flops(&self) -> f64 {
        self.op.shape.flops() as f64
    }

    /// The `conv2d_naive` reference output and its time in seconds.
    pub fn reference(&self, tracer: &Tracer, request: u64) -> (Tensor4, f64) {
        tracer
            .time("conv2d_naive", request, || conv2d_naive(self.shape(), &self.input, &self.kernel))
    }
}

/// The executor's timing reference: a direct seven-loop convolution — the
/// loop nest of `conv_exec::naive::conv2d_naive`, in the same evaluation
/// order — kept in the benchmark so that no change to the repository can
/// move it. Timed in the same round as a served schedule, it cancels the
/// drift of a shared host's speed out of their ratio.
pub fn reference_conv(shape: &ConvShape, input: &Tensor4, kernel: &Tensor4) -> Tensor4 {
    let (_, channels, in_h, in_w) = input.dims();
    let (x, weights) = (input.as_slice(), kernel.as_slice());
    let (cpg, kpg) = (shape.reduction_c(), shape.k_per_group().max(1));
    let (stride, dil) = (shape.stride, shape.dilation);
    let plane = shape.h * shape.w;
    let mut out = vec![0.0f32; shape.n * shape.k * plane];
    for n in 0..shape.n {
        for k in 0..shape.k {
            let c_base = (k / kpg) * cpg;
            let o = &mut out[(n * shape.k + k) * plane..][..plane];
            for c in 0..cpg {
                let xin = &x[(n * channels + c_base + c) * in_h * in_w..][..in_h * in_w];
                for r in 0..shape.r {
                    for s in 0..shape.s {
                        let kv = weights[((k * cpg + c) * shape.r + r) * shape.s + s];
                        for h in 0..shape.h {
                            let row = (h * stride + r * dil) * in_w + s * dil;
                            for w in 0..shape.w {
                                o[h * shape.w + w] += xin[row + w * stride] * kv;
                            }
                        }
                    }
                }
            }
        }
    }
    Tensor4::from_vec(shape.output_dims(), out)
}

/// One timed execution of a schedule: kernel packing, then the tiled run.
#[derive(Debug, Clone, Copy)]
pub struct ExecTiming {
    /// `PackedKernel::pack`, seconds.
    pub pack_s: f64,
    /// `TiledConv::run_packed`, seconds.
    pub run_s: f64,
}

impl ExecTiming {
    /// Packing plus execution, as the paper measures it.
    pub fn total_s(&self) -> f64 {
        self.pack_s + self.run_s
    }
}

/// Execute `config` on `case` single-threaded, on `backend` (the runtime
/// dispatcher's choice when `None`).
pub fn run_schedule(
    case: &OpCase,
    config: &TileConfig,
    backend: Option<SimdBackend>,
    tracer: &Tracer,
    request: u64,
) -> Result<(ExecTiming, Tensor4), String> {
    let mut exec = TiledConv::new(*case.shape(), config.clone(), 1)
        .map_err(|e| format!("{}: served schedule rejected by TiledConv: {e}", case.op.name))?;
    if let Some(backend) = backend {
        exec = exec.with_backend(backend);
    }
    let (packed, pack_s) = tracer
        .time("PackedKernel::pack", request, || PackedKernel::pack(case.shape(), &case.kernel, 8));
    let (output, run_s) = tracer.time("TiledConv::run_packed", request, || {
        exec.run_packed(std::hint::black_box(&case.input), &packed)
    });
    Ok((ExecTiming { pack_s, run_s }, std::hint::black_box(output)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_is_bit_identical_to_conv2d_naive() {
        for name in ["R4*", "R11*", "V2*", "V9"] {
            let op = conv_spec::benchmarks::by_name(name).expect("operator exists");
            let case = OpCase::generate(&op, 11);
            let naive = conv2d_naive(&op.shape, &case.input, &case.kernel);
            assert_eq!(reference_conv(&op.shape, &case.input, &case.kernel), naive, "{name}");
        }
    }
}
