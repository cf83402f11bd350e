//! Threaded stress tests for the shared repair session: single-flight
//! plan builds under a cold-key stampede, entry retention under
//! disjoint-key races, warm-hit bit-identity against a serial baseline,
//! and multi-worker batch/stream round trips.
//!
//! The workload seed is read from `PPM_SEED` (default 2015) so CI can
//! run these under a seed matrix without recompiling.

use ppm::stripe::random_data_stripe;
use ppm::{
    encode, Backend, DecodePlan, DecoderConfig, ErasureCode, Executor, FailureScenario,
    RepairService, SdCode, Strategy, Stripe,
};
use rand::{rngs::StdRng, SeedableRng};
use std::sync::Barrier;

fn seed_from_env() -> u64 {
    std::env::var("PPM_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2015)
}

/// The paper's SD^{2,1}_{6,4} instance with fixed coefficients, so every
/// seed in the CI matrix exercises the same code but different data and
/// failure scenarios.
fn test_code() -> SdCode<u8> {
    SdCode::<u8>::new(6, 4, 2, 1, vec![1, 2, 4]).expect("code")
}

fn encoded_stripes(code: &SdCode<u8>, count: usize, sector_bytes: usize, seed: u64) -> Vec<Stripe> {
    let executor = Executor::new(DecoderConfig {
        threads: 1,
        backend: Backend::Auto,
    });
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let mut stripe = random_data_stripe(code, sector_bytes, &mut rng);
            encode(code, &executor, &mut stripe).expect("encode");
            stripe
        })
        .collect()
}

fn serial_config() -> DecoderConfig {
    DecoderConfig {
        threads: 1,
        backend: Backend::Auto,
    }
}

/// Eight threads released together on one cold key: exactly one plan
/// build may happen (the single-flight guarantee), every repair must be
/// bit-exact, and the counters must account for all eight lookups.
#[test]
fn concurrent_cold_repairs_build_one_plan() {
    const THREADS: usize = 8;
    let seed = seed_from_env();
    let code = test_code();
    let mut rng = StdRng::seed_from_u64(seed);
    let scenario = code
        .decodable_worst_case(1, &mut rng, 200)
        .expect("scenario");
    let pristine = encoded_stripes(&code, THREADS, 256, seed);

    let service = RepairService::new(&code, serial_config());
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        let handles: Vec<_> = pristine
            .iter()
            .map(|p| {
                let mut broken = p.clone();
                let (service, barrier, scenario) = (&service, &barrier, &scenario);
                scope.spawn(move || {
                    broken.erase(scenario);
                    barrier.wait();
                    service.repair(&mut broken, scenario).expect("repair");
                    broken
                })
            })
            .collect();
        for (handle, p) in handles.into_iter().zip(&pristine) {
            assert_eq!(
                &handle.join().expect("worker"),
                p,
                "repair must be bit-exact"
            );
        }
    });

    let cs = service.cache_stats();
    assert_eq!(cs.misses, 1, "single-flight: one build for one cold key");
    assert_eq!(cs.hits, (THREADS - 1) as u64, "every other lookup hits");
    assert_eq!(cs.evictions, 0);
    assert!(
        cs.coalesced <= cs.hits,
        "coalesced waits are a subset of hits"
    );
}

/// Six threads racing six distinct keys (one whole-disk failure each):
/// no insert may be lost to another shard's writer — a warm second pass
/// must be all hits, with no rebuild and no eviction.
#[test]
fn concurrent_disjoint_keys_retain_every_entry() {
    let seed = seed_from_env();
    let code = test_code();
    let layout = code.layout();
    let scenarios: Vec<FailureScenario> = (0..layout.n)
        .map(|disk| {
            FailureScenario::new((0..layout.r).map(|row| layout.sector(row, disk)).collect())
        })
        .collect();
    let pristine = encoded_stripes(&code, layout.n, 192, seed.wrapping_add(1));
    let service = RepairService::new(&code, serial_config());

    let run_pass = || {
        let barrier = Barrier::new(layout.n);
        std::thread::scope(|scope| {
            let handles: Vec<_> = pristine
                .iter()
                .zip(&scenarios)
                .map(|(p, scenario)| {
                    let mut broken = p.clone();
                    let (service, barrier) = (&service, &barrier);
                    scope.spawn(move || {
                        broken.erase(scenario);
                        barrier.wait();
                        service.repair(&mut broken, scenario).expect("repair");
                        broken
                    })
                })
                .collect();
            for (handle, p) in handles.into_iter().zip(&pristine) {
                assert_eq!(&handle.join().expect("worker"), p);
            }
        });
    };

    run_pass();
    let cold = service.cache_stats();
    assert_eq!(cold.misses as usize, layout.n, "one build per distinct key");
    assert_eq!(cold.hits, 0);

    run_pass();
    let warm = service.cache_stats();
    assert_eq!(warm.misses, cold.misses, "no entry was lost and rebuilt");
    assert_eq!(warm.hits as usize, layout.n, "warm pass is all hits");
    assert_eq!(warm.evictions, 0);
}

/// Warm cache hits under concurrency return the same plan the cold build
/// produced: every concurrently-repaired stripe must be bit-identical to
/// the one a plain serial executor recovers from the same damage.
#[test]
fn warm_concurrent_repairs_match_serial_decode() {
    const THREADS: usize = 6;
    let seed = seed_from_env();
    let code = test_code();
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(2));
    let scenario = code
        .decodable_worst_case(1, &mut rng, 200)
        .expect("scenario");
    let pristine = encoded_stripes(&code, THREADS, 320, seed.wrapping_add(2));

    // Serial baseline: a plain executor, fresh plan, stripe by stripe.
    let executor = Executor::new(serial_config());
    let h = code.parity_check_matrix();
    let plan = DecodePlan::build(&h, &scenario, Strategy::PpmAuto, executor.config().backend)
        .expect("plan");
    let baseline: Vec<Stripe> = pristine
        .iter()
        .map(|p| {
            let mut broken = p.clone();
            broken.erase(&scenario);
            executor.decode(&plan, &mut broken).expect("decode");
            broken
        })
        .collect();

    let service = RepairService::new(&code, serial_config());
    {
        // Warm the key so the threads below run the pure hit path.
        let mut warm = pristine[0].clone();
        warm.erase(&scenario);
        service.repair(&mut warm, &scenario).expect("warm repair");
    }
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        let handles: Vec<_> = pristine
            .iter()
            .map(|p| {
                let mut broken = p.clone();
                let (service, barrier, scenario) = (&service, &barrier, &scenario);
                scope.spawn(move || {
                    broken.erase(scenario);
                    barrier.wait();
                    service.repair(&mut broken, scenario).expect("repair");
                    broken
                })
            })
            .collect();
        for (handle, expected) in handles.into_iter().zip(&baseline) {
            assert_eq!(
                &handle.join().expect("worker"),
                expected,
                "warm concurrent repair must match the serial decode bit-for-bit"
            );
        }
    });
    let cs = service.cache_stats();
    assert_eq!(cs.misses, 1, "the warm-up built the only plan");
    assert_eq!(cs.hits, THREADS as u64);
}

/// Multi-worker `repair_batch` round trip at a batch size that forces the
/// inter-stripe split, under the CI seed matrix.
#[test]
fn multi_worker_batch_and_stream_roundtrip() {
    let seed = seed_from_env();
    let code = test_code();
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(3));
    let scenario = code
        .decodable_worst_case(1, &mut rng, 200)
        .expect("scenario");
    let pristine = encoded_stripes(&code, 64, 128, seed.wrapping_add(3));
    let service = RepairService::new(&code, serial_config());

    let mut broken = pristine.clone();
    for b in &mut broken {
        b.erase(&scenario);
    }
    let report = service
        .repair_batch(&mut broken, &scenario, 4)
        .expect("repair_batch");
    assert_eq!(broken, pristine, "batch repair must be bit-exact");
    assert!(
        report.inter_stripe,
        "64 stripes / 4 workers must split inter-stripe"
    );
    assert_eq!(report.workers, 4);
    assert_eq!(report.stripes(), 64);
    assert!(
        report.all_match_prediction(),
        "executed cost must match §III-B"
    );
}
