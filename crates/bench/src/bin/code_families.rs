//! PPM across code families: the paper's thesis check.
//!
//! The paper positions PPM as the first general optimization for
//! *asymmetric* parity codes while noting symmetric codes already have
//! dedicated fast paths. Running the same machinery over every family in
//! the workspace shows where each of PPM's two mechanisms bites: the
//! sequence optimization matters most when equations are dense and
//! asymmetric (SD's global sector rows), while the partition gives
//! parallelism everywhere whole rows fail independently.
//!
//! `cargo run --release -p ppm-bench --bin code_families [--stripe-mib N]`

use ppm_bench::{improvement, modeled_decode_time, ExpArgs, Table};
use ppm_codes::{
    ErasureCode, EvenOddCode, FailureScenario, LrcCode, RdpCode, RsCode, SdCode, StarCode,
};
use ppm_core::{encode, DecodePlan, DecoderConfig, Executor, Strategy};
use ppm_gf::{Backend, GfWord};
use ppm_stripe::random_data_stripe;
use rand::{rngs::StdRng, SeedableRng};
use std::time::Instant;

const SPAWN_OVERHEAD: f64 = 15e-6;

fn run<W: GfWord, C: ErasureCode<W>>(
    code: &C,
    scenario: FailureScenario,
    args: &ExpArgs,
    t: &Table,
) {
    let layout = code.layout();
    let sector = (args.stripe_bytes / layout.sectors() / 8 * 8).max(8);
    let mut rng = StdRng::seed_from_u64(args.seed);
    let mut pristine = random_data_stripe(code, sector, &mut rng);
    let executor = Executor::new(DecoderConfig {
        threads: 1,
        backend: Backend::Auto,
    });
    encode(code, &executor, &mut pristine).expect("encode");
    let h = code.parity_check_matrix();

    let time = |strategy: Strategy| {
        let plan = DecodePlan::build(&h, &scenario, strategy, Backend::Auto).expect("plan");
        let mut scratch = pristine.clone();
        let mut best = f64::INFINITY;
        for _ in 0..args.reps {
            scratch.erase(&scenario);
            let t0 = Instant::now();
            executor.decode(&plan, &mut scratch).expect("decode");
            best = best.min(t0.elapsed().as_secs_f64());
        }
        assert!(scratch == pristine, "{}: not bit-exact", code.name());
        (best, plan)
    };

    let (base, _) = time(Strategy::TraditionalNormal);
    let (opt, plan) = time(Strategy::PpmAuto);
    let modeled = modeled_decode_time(&plan, opt, args.threads, 4, SPAWN_OVERHEAD);
    t.row(&[
        code.name(),
        if code.is_symmetric() { "sym" } else { "asym" }.into(),
        scenario.failed_disks(layout).len().to_string(),
        plan.parallelism().to_string(),
        plan.sectors_read().to_string(),
        format!("{:+.1}%", 100.0 * improvement(base, opt)),
        format!("{:+.1}%", 100.0 * improvement(base, modeled)),
    ]);
}

fn main() {
    let args = ExpArgs::parse();
    println!(
        "# PPM vs traditional across code families (stripe {:.0} MiB, worst-case outages)\n",
        args.stripe_mib()
    );
    let t = Table::new(&[
        "code",
        "parity",
        "disks",
        "p",
        "reads",
        "impr T=1",
        "impr T=4*",
    ]);
    let mut rng = StdRng::seed_from_u64(args.seed);

    let sd = SdCode::<u8>::search(8, 16, 2, 2, args.seed, 3).unwrap();
    let sc = sd.decodable_worst_case(1, &mut rng, 300).unwrap();
    run(&sd, sc, &args, &t);

    let lrc = LrcCode::<u8>::new(12, 2, 2, 16).unwrap();
    let sc = lrc.spread_disk_failures(&mut rng);
    run(&lrc, sc, &args, &t);

    let rs = RsCode::<u8>::new(12, 4, 16).unwrap();
    let sc = rs.random_disk_failures(4, &mut rng);
    run(&rs, sc, &args, &t);

    let eo = EvenOddCode::<u8>::new(13).unwrap();
    let sc = FailureScenario::whole_disks(eo.layout(), &[2, 9]);
    run(&eo, sc, &args, &t);

    let rdp = RdpCode::<u8>::new(13).unwrap();
    let sc = FailureScenario::whole_disks(rdp.layout(), &[0, 7]);
    run(&rdp, sc, &args, &t);

    let star = StarCode::<u8>::new(13).unwrap();
    let sc = FailureScenario::whole_disks(star.layout(), &[1, 6, 12]);
    run(&star, sc, &args, &t);

    println!(
        "\npaper: PPM is the first general optimization for asymmetric parity\n\
         codes; symmetric codes still gain partition parallelism where whole\n\
         rows fail independently, but less from sequence optimization."
    );
}
