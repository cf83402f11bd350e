//! Criterion benchmarks for encoding (the decode special case where every
//! parity sector is treated as faulty).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ppm_codes::{ErasureCode, LrcCode, RsCode, SdCode};
use ppm_core::{encode, DecoderConfig, Executor};
use ppm_gf::Backend;
use ppm_stripe::random_data_stripe;
use rand::{rngs::StdRng, SeedableRng};

fn bench_encode(c: &mut Criterion) {
    let mut g = c.benchmark_group("encode_1MiB");
    g.sample_size(15);

    let executor = Executor::new(DecoderConfig {
        threads: 2,
        backend: Backend::Auto,
    });
    let mut rng = StdRng::seed_from_u64(1);

    let sd = SdCode::<u8>::search(8, 16, 2, 2, 1, 2).expect("sd");
    let sectors = sd.layout().sectors();
    let stripe = random_data_stripe(&sd, (1 << 20) / sectors / 8 * 8, &mut rng);
    g.throughput(Throughput::Bytes(stripe.total_bytes() as u64));
    g.bench_with_input(
        BenchmarkId::from_parameter("sd_8x16_m2_s2"),
        &stripe,
        |b, s| {
            b.iter_batched(
                || s.clone(),
                |mut st| encode(&sd, &executor, &mut st).expect("encode"),
                criterion::BatchSize::LargeInput,
            );
        },
    );

    let lrc = LrcCode::<u8>::new(12, 2, 2, 8).expect("lrc");
    let sectors = lrc.layout().sectors();
    let stripe = random_data_stripe(&lrc, (1 << 20) / sectors / 8 * 8, &mut rng);
    g.bench_with_input(
        BenchmarkId::from_parameter("lrc_12_2_2"),
        &stripe,
        |b, s| {
            b.iter_batched(
                || s.clone(),
                |mut st| encode(&lrc, &executor, &mut st).expect("encode"),
                criterion::BatchSize::LargeInput,
            );
        },
    );

    let rs = RsCode::<u8>::new(6, 3, 8).expect("rs");
    let sectors = rs.layout().sectors();
    let stripe = random_data_stripe(&rs, (1 << 20) / sectors / 8 * 8, &mut rng);
    g.bench_with_input(BenchmarkId::from_parameter("rs_9_6"), &stripe, |b, s| {
        b.iter_batched(
            || s.clone(),
            |mut st| encode(&rs, &executor, &mut st).expect("encode"),
            criterion::BatchSize::LargeInput,
        );
    });

    g.finish();
}

criterion_group!(benches, bench_encode);
criterion_main!(benches);
