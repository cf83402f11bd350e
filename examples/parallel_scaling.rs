//! How the thread budget `T` affects PPM decode speed (a miniature of the
//! paper's Figure 7).
//!
//! Decodes the same SD worst-case failure with the traditional method and
//! with PPM at T = 1, 2, 4, ... threads, printing the improvement ratio
//! over the traditional baseline.
//!
//! Run with: `cargo run --release --example parallel_scaling [stripe_mib]`

use ppm::stripe::random_data_stripe;
use ppm::{
    encode, Backend, DecodePlan, DecoderConfig, ErasureCode, Executor, SdCode, Strategy, Stripe,
};
use rand::{rngs::StdRng, SeedableRng};
use std::time::Instant;

fn time_decode(
    executor: &Executor,
    h: &ppm::Matrix<u8>,
    scenario: &ppm::FailureScenario,
    strategy: Strategy,
    pristine: &Stripe,
    reps: usize,
) -> f64 {
    let plan = DecodePlan::build(h, scenario, strategy, executor.config().backend).expect("plan");
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let mut broken = pristine.clone();
        broken.erase(scenario);
        let t = Instant::now();
        executor.decode(&plan, &mut broken).expect("decode");
        let dt = t.elapsed().as_secs_f64();
        assert!(broken == *pristine);
        best = best.min(dt);
    }
    best
}

fn main() {
    let stripe_mib: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(8);
    let (n, r, m, s) = (16, 16, 2, 2);
    let code = SdCode::<u8>::search(n, r, m, s, 5, 3).expect("search");
    println!("code: {}   stripe: {} MiB", code.name(), stripe_mib);

    let mut rng = StdRng::seed_from_u64(1);
    let setup = Executor::new(DecoderConfig {
        threads: 1,
        backend: Backend::Auto,
    });
    let mut stripe = random_data_stripe(&code, (stripe_mib << 20) / (n * r) / 8 * 8, &mut rng);
    encode(&code, &setup, &mut stripe).expect("encode");
    let h = code.parity_check_matrix();
    let scenario = code
        .decodable_worst_case(1, &mut rng, 200)
        .expect("scenario");

    let base = time_decode(
        &setup,
        &h,
        &scenario,
        Strategy::TraditionalNormal,
        &stripe,
        3,
    );
    println!(
        "traditional (C1), 1 thread: {:8.2} ms  ({:.0} MB/s)",
        base * 1e3,
        stripe.total_bytes() as f64 / base / 1e6
    );

    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    for t in [1usize, 2, 4, 8] {
        if t > cores.max(4) {
            break;
        }
        let dec = Executor::new(DecoderConfig {
            threads: t,
            backend: Backend::Auto,
        });
        let dt = time_decode(&dec, &h, &scenario, Strategy::PpmAuto, &stripe, 3);
        println!(
            "PPM, T = {t}: {:8.2} ms  improvement {:+.1}%",
            dt * 1e3,
            (base / dt - 1.0) * 100.0
        );
    }
}
