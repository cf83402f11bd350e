//! Plan-cache amortization: cold vs warm decode latency across the
//! paper's code grid.
//!
//! The PPM paper prices a single decode; a repair job decodes the same
//! erasure pattern once per stripe. This experiment measures what the
//! `RepairService` session layer buys: *cold* latency (fresh session —
//! the repair pays the log-table scan, partition, factorization, and
//! plan assembly) against *warm* latency (same session — the plan comes
//! from the cache and buffers from the arena, so the repair is region
//! arithmetic only). The run asserts the warm path is strictly faster
//! and that every warm decode was a cache hit (zero matrix inversions).
//!
//! `cargo run --release -p ppm-bench --bin cache_amortization
//!  [--stripe-mib N] [--reps N] [--threads T] [--seed N] [--smoke]`

use ppm_bench::{ExpArgs, Table};
use ppm_codes::{ErasureCode, FailureScenario, LrcCode, PmdsCode, SdCode};
use ppm_core::{encode, DecoderConfig, Executor, RepairService};
use ppm_gf::Backend;
use ppm_stripe::random_data_stripe;
use rand::{rngs::StdRng, SeedableRng};
use std::time::Instant;

struct Instance {
    code: Box<dyn ErasureCode<u8>>,
    scenario: FailureScenario,
}

/// The SD / PMDS / LRC grid; `--smoke` shrinks the geometries so the CI
/// smoke run finishes in well under a second.
fn grid(seed: u64, smoke: bool) -> Vec<Instance> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();

    let (n, r, m, s) = if smoke { (6, 4, 2, 1) } else { (6, 8, 2, 2) };
    let sd = SdCode::<u8>::with_generator_coeffs(n, r, m, s)
        .or_else(|_| SdCode::<u8>::search(n, r, m, s, seed, 3))
        .expect("SD construction");
    let scenario = sd
        .decodable_worst_case(1, &mut rng, 300)
        .expect("SD worst case");
    out.push(Instance {
        code: Box::new(sd),
        scenario,
    });

    let pmds = PmdsCode::<u8>::search(n, r, m, s, seed, 3).expect("PMDS construction");
    let scenario = (0..100)
        .map(|_| pmds.scattered_scenario(&mut rng))
        .find(|sc| {
            pmds.parity_check_matrix()
                .select_columns(sc.faulty())
                .rank()
                == sc.len()
        })
        .expect("decodable PMDS scenario");
    out.push(Instance {
        code: Box::new(pmds),
        scenario,
    });

    let (k, l, g, rows) = if smoke { (4, 2, 2, 2) } else { (6, 2, 2, 4) };
    let lrc = LrcCode::<u8>::new(k, l, g, rows).expect("LRC construction");
    let scenario = lrc
        .decodable_disk_failures(l + g, &mut rng, 500)
        .expect("LRC disk failures");
    out.push(Instance {
        code: Box::new(lrc),
        scenario,
    });

    out
}

fn main() {
    let args = ExpArgs::parse();
    let config = DecoderConfig {
        threads: args.threads,
        backend: Backend::Auto,
    };
    let cold_runs = args.reps.max(if args.smoke { 2 } else { 3 });
    let warm_reps = args.reps.max(if args.smoke { 5 } else { 10 });

    println!(
        "plan-cache amortization: cold (fresh session) vs warm (cached plan),\n\
         {} cold runs / {} warm reps, T={}, ~{:.1} MiB stripes\n",
        cold_runs,
        warm_reps,
        args.threads,
        args.stripe_mib()
    );

    let t = Table::new(&["code", "lost", "cold", "warm", "warm/cold", "hit rate"]);
    let mut ratio_product = 1.0f64;
    let mut instances = 0usize;

    for inst in grid(args.seed, args.smoke) {
        let code = &*inst.code;
        let scenario = &inst.scenario;
        let sectors = code.layout().sectors();
        let sector_bytes = (args.stripe_bytes / sectors / 8 * 8).max(8);

        let mut rng = StdRng::seed_from_u64(args.seed ^ 0xA5A5);
        let mut pristine = random_data_stripe(&code, sector_bytes, &mut rng);
        let enc = Executor::new(config);
        encode(&code, &enc, &mut pristine).expect("encode");

        // Cold: every run starts a fresh session, so the repair pays the
        // full plan build (factorization included).
        let mut cold = f64::INFINITY;
        for _ in 0..cold_runs {
            let service = RepairService::new(code, config);
            let mut broken = pristine.clone();
            broken.erase(scenario);
            let t0 = Instant::now();
            let stats = service.repair(&mut broken, scenario).expect("cold repair");
            cold = cold.min(t0.elapsed().as_secs_f64());
            assert_eq!(broken, pristine, "cold repair must be bit-exact");
            assert_eq!(stats.cache.expect("cache stats").misses, 1);
        }

        // Warm: one session, primed once; every timed repair re-uses the
        // cached plan and arena buffers.
        let service = RepairService::new(code, config);
        let mut primer = pristine.clone();
        primer.erase(scenario);
        service.repair(&mut primer, scenario).expect("prime");
        let mut warm = f64::INFINITY;
        for _ in 0..warm_reps {
            let mut broken = pristine.clone();
            broken.erase(scenario);
            let t0 = Instant::now();
            service.repair(&mut broken, scenario).expect("warm repair");
            warm = warm.min(t0.elapsed().as_secs_f64());
            assert_eq!(broken, pristine, "warm repair must be bit-exact");
        }
        let cache = service.cache_stats();
        assert_eq!(cache.misses, 1, "warm decodes must not rebuild the plan");
        assert_eq!(cache.hits, warm_reps as u64, "every warm decode hits");
        assert!(
            warm < cold,
            "{}: warm ({warm:.6}s) must beat cold ({cold:.6}s)",
            code.name()
        );

        let ratio = warm / cold;
        ratio_product *= ratio;
        instances += 1;
        t.row(&[
            code.name(),
            scenario.len().to_string(),
            format!("{:.3}ms", cold * 1e3),
            format!("{:.3}ms", warm * 1e3),
            format!("{ratio:.3}"),
            format!("{:.0}%", 100.0 * cache.hit_rate()),
        ]);
    }

    // The line CI greps for: one geometric-mean ratio across the grid.
    println!(
        "\nwarm/cold ratio (geometric mean over {} instances): {:.3}",
        instances,
        ratio_product.powf(1.0 / instances.max(1) as f64)
    );
}
