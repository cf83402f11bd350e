//! The paper's motivating single-machine scenario: simultaneous whole-disk
//! failures *and* latent sector errors, protected by an SD code.
//!
//! Encodes a large stripe under `SD^{2,2}_{8,16}`, injects the worst-case
//! failure (2 dead disks + 2 additional bad sectors), and decodes it with
//! the traditional parity-check-matrix method and with PPM, timing both.
//!
//! Run with: `cargo run --release --example disk_and_sector_failure`

use ppm::stripe::random_data_stripe;
use ppm::{
    encode, parity_consistent, DecodePlan, DecoderConfig, ErasureCode, Executor, SdCode, Strategy,
};
use rand::{rngs::StdRng, SeedableRng};
use std::time::Instant;

fn main() {
    let (n, r, m, s) = (8, 16, 2, 2);
    let code = SdCode::<u8>::search(n, r, m, s, 1, 4).expect("coefficient search");
    println!("code: {}", code.name());

    let executor = Executor::new(DecoderConfig::default());
    let mut rng = StdRng::seed_from_u64(99);
    // ~8 MiB stripe: 8*16 sectors of 64 KiB.
    let mut stripe = random_data_stripe(&code, 64 * 1024, &mut rng);
    let t = Instant::now();
    encode(&code, &executor, &mut stripe).expect("encode");
    println!(
        "encoded {:.1} MiB stripe in {:.2?}",
        stripe.total_bytes() as f64 / (1 << 20) as f64,
        t.elapsed()
    );
    let h = code.parity_check_matrix();
    assert!(parity_consistent(&h, &stripe, executor.config().backend));
    let pristine = stripe.clone();

    // Worst case: m whole disks + s sectors on z = 1 row.
    let scenario = code
        .decodable_worst_case(1, &mut rng, 200)
        .expect("scenario");
    let layout = code.layout();
    println!(
        "failure: disks {:?} fully dead + sector errors at {:?} ({} sectors total)",
        scenario.failed_disks(layout),
        scenario
            .faulty()
            .iter()
            .filter(|&&l| !scenario.failed_disks(layout).contains(&layout.col_of(l)))
            .map(|&l| (layout.row_of(l), layout.col_of(l)))
            .collect::<Vec<_>>(),
        scenario.len()
    );

    for (label, strategy) in [
        (
            "traditional (normal sequence, C1)",
            Strategy::TraditionalNormal,
        ),
        (
            "traditional (matrix-first, C2)   ",
            Strategy::TraditionalMatrixFirst,
        ),
        ("PPM (auto)                       ", Strategy::PpmAuto),
    ] {
        let mut broken = pristine.clone();
        broken.erase(&scenario);
        let plan =
            DecodePlan::build(&h, &scenario, strategy, executor.config().backend).expect("plan");
        let t = Instant::now();
        executor.decode(&plan, &mut broken).expect("decode");
        let dt = t.elapsed();
        assert_eq!(broken, pristine, "{label}: recovery must be bit-exact");
        println!(
            "{label}: {:>9.2?}  ({} mult_XORs, parallelism {})",
            dt,
            plan.mult_xors(),
            plan.parallelism()
        );
    }
}
