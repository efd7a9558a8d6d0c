//! Criterion benchmark: the numerical blockwise attention kernels (forward,
//! merge, backward) on realistic block shapes, at each vector width they are
//! compiled for, and the exponential under them on its own.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dcp_exec::kernels::{self, merge_outputs, BlockAcc, BlockArgs, BlockBwdArgs};
use dcp_mask::MaskSpec;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A loop that replaces every element with its exponential.
type ExpLoop = fn(&mut [f32]);

/// One vector width the blockwise kernels are compiled at.
struct KernelIsa {
    /// `"avx2"` or `"baseline"`.
    name: &'static str,
    /// `attn_block_fwd` at this width.
    fwd: fn(&mut BlockAcc, BlockArgs<'_>),
    /// `attn_block_bwd` at this width.
    bwd: fn(BlockBwdArgs<'_>, &mut [f32], &mut [f32], &mut [f32]),
    /// The kernels' exponential loop at this width.
    exp_in_place: ExpLoop,
}

/// The instantiation kernel calls take on this host, then the baseline one
/// where that is another.
fn kernel_isas() -> Vec<KernelIsa> {
    let detected = KernelIsa {
        name: kernels::isa(),
        fwd: kernels::attn_block_fwd,
        bwd: kernels::attn_block_bwd,
        exp_in_place: kernels::exp_in_place,
    };
    let baseline = KernelIsa {
        name: "baseline",
        fwd: kernels::baseline::attn_block_fwd,
        bwd: kernels::baseline::attn_block_bwd,
        exp_in_place: kernels::baseline::exp_in_place,
    };
    if detected.name == baseline.name {
        vec![baseline]
    } else {
        vec![detected, baseline]
    }
}

/// The exponentials worth timing against each other, by name: libm's `expf`
/// one call at a time, then the kernels' own loop at each of their widths.
fn exp_loops() -> Vec<(&'static str, ExpLoop)> {
    let libm: ExpLoop = |xs| xs.iter_mut().for_each(|x| *x = x.exp());
    let ours = kernel_isas().into_iter().rev();
    std::iter::once(("libm", libm))
        .chain(ours.map(|isa| (isa.name, isa.exp_in_place)))
        .collect()
}

fn randv(n: usize, rng: &mut SmallRng) -> Vec<f32> {
    (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

fn bench_kernels(c: &mut Criterion) {
    // The ledger's two executor workloads: head dim 16 and 64.
    for dim in [16usize, 64] {
        for isa in kernel_isas() {
            bench_dim(c, dim, &isa);
        }
    }
    bench_exp(c);
}

/// A row's worth of score differences through libm's `expf` one call at a
/// time, then through the kernels' `exp` loop at each of their widths
/// (refilling the buffer included).
fn bench_exp(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(1);
    let src: Vec<f32> = (0..4096).map(|_| rng.gen_range(-20.0..0.0)).collect();
    let mut group = c.benchmark_group("exp_4096");
    for (name, exp_in_place) in exp_loops() {
        let mut buf = src.clone();
        group.bench_function(name, |b| {
            b.iter(|| {
                buf.copy_from_slice(&src);
                exp_in_place(criterion::black_box(&mut buf));
            });
        });
    }
    group.finish();
}

fn bench_dim(c: &mut Criterion, dim: usize, isa: &KernelIsa) {
    let (attn_block_fwd, attn_block_bwd, isa) = (isa.fwd, isa.bwd, isa.name);
    let (qh, kvh) = (4usize, 2usize);
    let mut rng = SmallRng::seed_from_u64(1);

    let mut group = c.benchmark_group(format!("attn_block_fwd_d{dim}_{isa}"));
    for block in [64usize, 128, 256] {
        let q = randv(block * qh * dim, &mut rng);
        let k = randv(block * kvh * dim, &mut rng);
        let v = randv(block * kvh * dim, &mut rng);
        let mask = MaskSpec::Causal.instantiate(2 * block as u32).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(block), &block, |b, &block| {
            b.iter(|| {
                let mut acc = BlockAcc::new(block, qh, dim);
                attn_block_fwd(
                    &mut acc,
                    BlockArgs {
                        q: &q,
                        k: &k,
                        v: &v,
                        qh,
                        kvh,
                        dim,
                        q_len: block,
                        kv_len: block,
                        q_start: block as u32,
                        kv_start: 0,
                        mask: &mask,
                        scale: 0.17,
                    },
                );
                acc.finalize()
            });
        });
    }
    group.finish();

    // The backward at the ledger's two block shapes (`exec_dense` 128 keys at
    // head dim 64, `exec_sparse` 64 at head dim 16) and the other, each on a
    // fully visible block and on a causal diagonal one.
    let mut group = c.benchmark_group(format!("attn_block_bwd_d{dim}_{isa}"));
    let mut merge_input = None;
    for block in [64usize, 128] {
        let q = randv(block * qh * dim, &mut rng);
        let k = randv(block * kvh * dim, &mut rng);
        let v = randv(block * kvh * dim, &mut rng);
        let d_o = randv(block * qh * dim, &mut rng);
        let mask = MaskSpec::Causal.instantiate(2 * block as u32).unwrap();
        for (visible, q_start) in [("full", block as u32), ("diagonal", 0)] {
            let args = BlockArgs {
                q: &q,
                k: &k,
                v: &v,
                qh,
                kvh,
                dim,
                q_len: block,
                kv_len: block,
                q_start,
                kv_start: 0,
                mask: &mask,
                scale: 0.17,
            };
            let mut acc = BlockAcc::new(block, qh, dim);
            attn_block_fwd(&mut acc, args);
            let (o, lse) = acc.finalize();
            let id = BenchmarkId::new(visible, block);
            group.bench_with_input(id, &block, |b, &block| {
                b.iter(|| {
                    let mut dq = vec![0.0f32; block * qh * dim];
                    let mut dk = vec![0.0f32; block * kvh * dim];
                    let mut dv = vec![0.0f32; block * kvh * dim];
                    attn_block_bwd(
                        BlockBwdArgs {
                            fwd: args,
                            o: &o,
                            lse: &lse,
                            d_o: &d_o,
                        },
                        &mut dq,
                        &mut dk,
                        &mut dv,
                    );
                    (dq, dk, dv)
                });
            });
            if visible == "full" && block == 128 {
                merge_input = Some((o, lse));
            }
        }
    }
    group.finish();

    // The merge runs at one width: its exponentials are two per row.
    if let (Some((o, lse)), "baseline") = (merge_input, isa) {
        c.bench_function(format!("merge_outputs_128_d{dim}"), |b| {
            b.iter(|| merge_outputs(&o, &lse, &o, &lse, dim));
        });
    }
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
