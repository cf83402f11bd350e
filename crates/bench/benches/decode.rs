//! Criterion benchmarks for full stripe decoding: traditional vs PPM on
//! representative SD, LRC and RS instances (small stripes so the suite
//! stays fast; the figure binaries cover the paper-scale stripes).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ppm_bench::{prepare_lrc, prepare_rs, prepare_sd, Prepared};
use ppm_core::{DecodePlan, DecoderConfig, Executor, Strategy};
use ppm_gf::Backend;

const STRIPE: usize = 1 << 20; // 1 MiB

fn bench_prepared(c: &mut Criterion, label: &str, prep: &Prepared<u8>) {
    let mut g = c.benchmark_group(format!("decode_{label}"));
    g.throughput(Throughput::Bytes(prep.pristine.total_bytes() as u64));
    g.sample_size(15);
    for (name, strategy) in [
        ("traditional_c1", Strategy::TraditionalNormal),
        ("traditional_c2", Strategy::TraditionalMatrixFirst),
        ("ppm_auto", Strategy::PpmAuto),
    ] {
        let executor = Executor::new(DecoderConfig {
            threads: 2,
            backend: Backend::Auto,
        });
        let plan =
            DecodePlan::build(&prep.h, &prep.scenario, strategy, Backend::Auto).expect("plan");
        g.bench_with_input(BenchmarkId::from_parameter(name), &plan, |b, plan| {
            let mut scratch = prep.pristine.clone();
            b.iter(|| {
                scratch.erase(&prep.scenario);
                executor.decode(plan, &mut scratch).expect("decode");
            });
        });
    }
    g.finish();
}

fn bench_decode(c: &mut Criterion) {
    let sd = prepare_sd(8, 16, 2, 2, 1, STRIPE, 1).expect("sd instance");
    bench_prepared(c, "sd_8x16_m2_s2", &sd);

    let lrc = prepare_lrc(12, 2, 2, 8, STRIPE, 2).expect("lrc instance");
    bench_prepared(c, "lrc_12_2_2", &lrc);

    let rs = prepare_rs::<u8>(6, 3, 8, STRIPE, 3).expect("rs instance");
    bench_prepared(c, "rs_9_6", &rs);
}

criterion_group!(benches, bench_decode);
criterion_main!(benches);
