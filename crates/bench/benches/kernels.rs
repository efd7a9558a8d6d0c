//! Criterion benchmark: the numerical blockwise attention kernels (forward,
//! merge, backward) on realistic block shapes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dcp_exec::kernels::{
    attn_block_bwd, attn_block_fwd, merge_outputs, BlockAcc, BlockArgs, BlockBwdArgs,
};
use dcp_mask::MaskSpec;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn randv(n: usize, rng: &mut SmallRng) -> Vec<f32> {
    (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

fn bench_kernels(c: &mut Criterion) {
    // The ledger's two executor workloads: head dim 16 and 64.
    for dim in [16usize, 64] {
        bench_dim(c, dim);
    }
}

fn bench_dim(c: &mut Criterion, dim: usize) {
    let (qh, kvh) = (4usize, 2usize);
    let mut rng = SmallRng::seed_from_u64(1);

    let mut group = c.benchmark_group(format!("attn_block_fwd_d{dim}"));
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

    let block = 128usize;
    let q = randv(block * qh * dim, &mut rng);
    let k = randv(block * kvh * dim, &mut rng);
    let v = randv(block * kvh * dim, &mut rng);
    let mask = MaskSpec::Causal.instantiate(2 * block as u32).unwrap();
    let mut acc = BlockAcc::new(block, qh, dim);
    let args = BlockArgs {
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
    };
    attn_block_fwd(&mut acc, args);
    let (o, lse) = acc.finalize();
    let d_o = randv(block * qh * dim, &mut rng);

    c.bench_function(format!("attn_block_bwd_128_d{dim}"), |b| {
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

    c.bench_function(format!("merge_outputs_128_d{dim}"), |b| {
        b.iter(|| merge_outputs(&o, &lse, &o, &lse, dim));
    });
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
