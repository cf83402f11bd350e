//! Encoding throughput: traditional vs PPM.
//!
//! The paper's headline covers the *encoding/decoding* process; encoding
//! is the decode special case where all parity sectors are "faulty"
//! (§II-B footnote 1), so PPM's partition applies to it too: for SD every
//! stripe row's disk parities form an independent m×m group, with only
//! the sector parities in `H_rest`. This binary measures encode
//! throughput for representative SD / LRC / RS instances under both
//! methods.
//!
//! `cargo run --release -p ppm-bench --bin encode_speed [--stripe-mib N]`

use ppm_bench::{improvement, modeled_decode_time, throughput_mbs, ExpArgs, Table};
use ppm_codes::{ErasureCode, FailureScenario};
use ppm_core::{DecodePlan, DecoderConfig, Executor, Strategy};
use ppm_gf::{Backend, GfWord};
use ppm_stripe::random_data_stripe;
use rand::{rngs::StdRng, SeedableRng};
use std::time::Instant;

const SPAWN_OVERHEAD: f64 = 15e-6;

fn measure<W: GfWord, C: ErasureCode<W>>(code: &C, args: &ExpArgs, t: &Table) {
    let layout = code.layout();
    let sector = (args.stripe_bytes / layout.sectors() / 8 * 8).max(8);
    let mut rng = StdRng::seed_from_u64(args.seed);
    let stripe = random_data_stripe(code, sector, &mut rng);
    let h = code.parity_check_matrix();
    let scenario = FailureScenario::new(code.parity_sectors());
    let executor = Executor::new(DecoderConfig {
        threads: 1,
        backend: Backend::Auto,
    });

    let time_strategy = |strategy: Strategy| {
        let plan = DecodePlan::build(&h, &scenario, strategy, Backend::Auto).expect("encodable");
        let mut best = f64::INFINITY;
        let mut scratch = stripe.clone();
        for _ in 0..args.reps {
            let t0 = Instant::now();
            executor.decode(&plan, &mut scratch).expect("encode");
            best = best.min(t0.elapsed().as_secs_f64());
        }
        (best, plan)
    };

    let (trad, _) = time_strategy(Strategy::TraditionalNormal);
    let (ppm, plan) = time_strategy(Strategy::PpmAuto);
    let modeled = modeled_decode_time(&plan, ppm, args.threads, 4, SPAWN_OVERHEAD);
    t.row(&[
        code.name(),
        format!("{:.0}", throughput_mbs(stripe.total_bytes(), trad)),
        format!("{:.0}", throughput_mbs(stripe.total_bytes(), ppm)),
        format!("{:+.1}%", 100.0 * improvement(trad, ppm)),
        format!("{:+.1}%", 100.0 * improvement(trad, modeled)),
        plan.parallelism().to_string(),
    ]);
}

fn main() {
    let args = ExpArgs::parse();
    println!(
        "# encode throughput, stripe {:.0} MiB (T=4* modeled on 4 simulated cores)\n",
        args.stripe_mib()
    );
    let t = Table::new(&[
        "code",
        "trad MB/s",
        "PPM MB/s",
        "impr T=1",
        "impr T=4*",
        "p",
    ]);
    measure(
        &ppm_codes::SdCode::<u8>::search(8, 16, 2, 2, args.seed, 3).unwrap(),
        &args,
        &t,
    );
    measure(
        &ppm_codes::SdCode::<u8>::search(16, 16, 3, 3, args.seed, 2).unwrap(),
        &args,
        &t,
    );
    measure(
        &ppm_codes::LrcCode::<u8>::new(12, 2, 2, 16).unwrap(),
        &args,
        &t,
    );
    measure(&ppm_codes::RsCode::<u8>::new(12, 4, 16).unwrap(), &args, &t);
    measure(&ppm_codes::EvenOddCode::<u8>::new(17).unwrap(), &args, &t);
    println!("\n(encoding = decoding of the parity positions, §II-B footnote 1)");
}
