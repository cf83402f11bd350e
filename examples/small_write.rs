//! Small writes: incremental parity updates instead of full re-encodes.
//!
//! Updates one data block and patches only the parity blocks that depend
//! on it (`Δ`-update). The number of parity sectors touched per write is
//! where asymmetric parity pays off: an LRC data write touches its one
//! local parity plus the `g` globals; RS with comparable reliability
//! touches every parity strip.
//!
//! Run with: `cargo run --release --example small_write`

use ppm::core::encode;
use ppm::stripe::random_data_stripe;
use ppm::{
    parity_consistent, Backend, DecoderConfig, ErasureCode, Executor, LrcCode, RsCode, SdCode,
    UpdatePlan,
};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::time::Instant;

fn demo<W: ppm::GfWord, C: ErasureCode<W>>(code: &C, seed: u64) {
    let executor = Executor::new(DecoderConfig {
        threads: 1,
        backend: Backend::Auto,
    });
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stripe = random_data_stripe(code, 64 * 1024, &mut rng);
    encode(code, &executor, &mut stripe).expect("encode");
    let h = code.parity_check_matrix();

    let plan = UpdatePlan::build(code, Backend::Auto).expect("update plan");
    let target = code.data_sectors()[0];
    let touched = plan.parity_touched(target).expect("data sector");

    let mut new_data = vec![0u8; stripe.sector_bytes()];
    rng.fill(new_data.as_mut_slice());

    // Incremental update.
    let t = Instant::now();
    plan.apply(&mut stripe, target, &new_data).expect("apply");
    let incremental = t.elapsed();
    assert!(parity_consistent(&h, &stripe, Backend::Auto));

    // Full re-encode of the same write, for comparison.
    let mut full = stripe.clone();
    let t = Instant::now();
    encode(code, &executor, &mut full).expect("re-encode");
    let reencode = t.elapsed();
    assert_eq!(full, stripe, "incremental update must equal re-encode");

    println!(
        "{:<28} parity touched: {:>2}/{:<2}   Δ-update {:>9.2?}   re-encode {:>9.2?}",
        code.name(),
        touched.len(),
        code.parity_sectors().len(),
        incremental,
        reencode,
    );
}

fn main() {
    println!("one 64 KiB-sector data write, parity patched incrementally:\n");
    demo(&RsCode::<u8>::new(12, 4, 8).unwrap(), 1);
    demo(&LrcCode::<u8>::new(12, 2, 2, 8).unwrap(), 2);
    demo(&SdCode::<u8>::search(14, 8, 2, 2, 3, 3).unwrap(), 3);
    println!(
        "\nLRC touches 1 local + g globals per row-write; RS touches all m\n\
         parities — the locality asymmetric parity codes are designed for."
    );
}
