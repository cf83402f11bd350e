//! Shared-session repair throughput: one `RepairService`, many workers.
//!
//! The concurrency story of the session layer, end to end: a ≥10k-stripe
//! repair job is driven through `RepairService::repair_batch` with the
//! plan cache warm, sweeping the stripe-level worker count over
//! {1, 2, 4, 8}. For each point the experiment reports the *measured*
//! throughput in stripes/s and the *modeled* 8-core wall-clock
//! projection (`modeled_batch_time`, calibrated from the measured
//! single-worker run — the evaluation container has one CPU core, so
//! thread scaling is simulated per DESIGN.md §3). The acceptance bar is
//! the modeled 8-worker/1-worker ratio: ≥4× on this job.
//!
//! The run closes with a single-flight demonstration: eight threads
//! released by a barrier against one cold session must produce exactly
//! one plan build (`misses == 1`), the other seven coalescing onto it.
//!
//! `cargo run --release -p ppm-bench --bin throughput [--smoke] [--reps N] [--threads T] [--seed N]`

use ppm_bench::{modeled_batch_time, write_bench_json, ExpArgs, Table};
use ppm_codes::{ErasureCode, FailureScenario, SdCode};
use ppm_core::{DecodePlan, DecoderConfig, Executor, RepairService, Strategy};
use ppm_gf::Backend;
use ppm_stripe::random_data_stripe;
use rand::{rngs::StdRng, SeedableRng};
use std::sync::Barrier;
use std::time::Instant;

/// Cores assumed by the modeled projection (the paper's evaluation
/// machines are multi-core; the container is not — DESIGN.md §3).
const MODEL_CORES: usize = 8;

/// Per-worker spawn/steal overhead charged by the model, in seconds.
/// Conservative for `std::thread` on Linux; negligible against the
/// chunk a worker owns in a 10k-stripe job.
const SPAWN_OVERHEAD_SECS: f64 = 50e-6;

fn main() {
    let args = ExpArgs::parse();
    let (n, r, m, s, z) = (6usize, 4usize, 2usize, 1usize, 1usize);
    let batch = if args.smoke { 1_000 } else { 10_000 };
    let sector_bytes = 128usize;

    let code = SdCode::<u8>::search(n, r, m, s, args.seed, 3).expect("search");
    let h = code.parity_check_matrix();
    let mut rng = StdRng::seed_from_u64(args.seed);
    let scenario = code
        .decodable_worst_case(z, &mut rng, 300)
        .expect("scenario");

    // Encode the batch through one shared plan (encoding is decoding
    // with every parity sector faulty), small sectors so the job is
    // plan-bound rather than memory-bound.
    let enc = Executor::new(DecoderConfig {
        threads: 1,
        backend: Backend::Auto,
    });
    let parity = FailureScenario::new(code.parity_sectors());
    let enc_plan =
        DecodePlan::build(&h, &parity, Strategy::PpmAuto, Backend::Auto).expect("encode plan");
    let mut pristine = Vec::with_capacity(batch);
    for _ in 0..batch {
        let mut stripe = random_data_stripe(&code, sector_bytes, &mut rng);
        enc.decode(&enc_plan, &mut stripe).expect("encode");
        pristine.push(stripe);
    }
    println!(
        "repairing {batch} stripes x {} B sectors ({} lost sectors each, {})\n",
        sector_bytes,
        scenario.len(),
        code.name()
    );

    // threads = 1: with 128 B sectors the intra-stripe thread budget is
    // pure spawn overhead, and it would pollute the single-worker
    // baseline the model calibrates from. This sweep isolates the
    // stripe-level axis; the intra-stripe axis is fig9's experiment.
    let service = RepairService::new(
        &code,
        DecoderConfig {
            threads: 1,
            backend: Backend::Auto,
        },
    );
    // Warm the plan cache so the sweep times repair, not planning.
    {
        let mut warm = pristine[0].clone();
        warm.erase(&scenario);
        service.repair(&mut warm, &scenario).expect("warm repair");
        assert_eq!(warm, pristine[0], "warm repair must be bit-exact");
    }

    let table = Table::new(&[
        "workers",
        "mode",
        "measured",
        "stripes/s",
        "modeled (8-core)",
        "modeled speedup",
    ]);
    let mut serial_secs = None;
    let mut modeled_speedup_at_8 = 1.0;
    let mut json_rows: Vec<String> = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        let mut best = f64::INFINITY;
        let mut inter = false;
        for _ in 0..args.reps {
            let mut broken = pristine.clone();
            for b in &mut broken {
                b.erase(&scenario);
            }
            let t0 = Instant::now();
            let report = service
                .repair_batch(&mut broken, &scenario, workers)
                .expect("repair_batch");
            best = best.min(t0.elapsed().as_secs_f64());
            inter = report.inter_stripe;
            assert_eq!(
                broken, pristine,
                "{workers}-worker repair must be bit-exact"
            );
        }
        let serial = *serial_secs.get_or_insert(best);
        let per_stripe = serial / batch as f64;
        let modeled =
            modeled_batch_time(batch, per_stripe, workers, MODEL_CORES, SPAWN_OVERHEAD_SECS);
        let speedup = serial / modeled;
        if workers == 8 {
            modeled_speedup_at_8 = speedup;
        }
        table.row(&[
            workers.to_string(),
            if inter {
                "inter-stripe"
            } else {
                "intra-stripe"
            }
            .to_string(),
            format!("{:.2}ms", best * 1e3),
            format!("{:.0}", batch as f64 / best),
            format!("{:.2}ms", modeled * 1e3),
            format!("{:.2}x", speedup),
        ]);
        json_rows.push(format!(
            "{{\"workers\":{workers},\"inter_stripe\":{inter},\"measured_secs\":{best:.6},\
             \"stripes_per_sec\":{:.1},\"modeled_secs\":{modeled:.6},\"modeled_speedup\":{speedup:.4}}}",
            batch as f64 / best
        ));
    }
    let json = format!(
        "{{\"experiment\":\"throughput\",\"seed\":{},\"batch\":{batch},\"sector_bytes\":{sector_bytes},\
         \"model_cores\":{MODEL_CORES},\"sweep\":[{}]}}",
        args.seed,
        json_rows.join(",")
    );
    let json_path = write_bench_json("throughput", &json);
    println!("json: {}", json_path.display());
    println!(
        "\nmodeled {MODEL_CORES}-core projection: 8-worker repair_batch runs \
         {modeled_speedup_at_8:.2}x the single-worker rate (target >=4x: {})",
        if modeled_speedup_at_8 >= 4.0 {
            "met"
        } else {
            "MISSED"
        }
    );
    assert!(
        modeled_speedup_at_8 >= 4.0,
        "modeled 8-worker speedup {modeled_speedup_at_8:.2}x below the 4x bar"
    );

    // Single-flight demonstration: a cold session, eight threads released
    // together on the same key — exactly one factorization may happen.
    let cold = RepairService::new(
        &code,
        DecoderConfig {
            threads: 1,
            backend: Backend::Auto,
        },
    );
    let barrier = Barrier::new(8);
    std::thread::scope(|scope| {
        for stripe in pristine.iter().take(8) {
            let mut broken = stripe.clone();
            let (cold, barrier, scenario) = (&cold, &barrier, &scenario);
            scope.spawn(move || {
                broken.erase(scenario);
                barrier.wait();
                cold.repair(&mut broken, scenario).expect("cold repair");
            });
        }
    });
    let cs = cold.cache_stats();
    assert_eq!(
        cs.misses, 1,
        "single-flight must build the plan exactly once"
    );
    println!(
        "single-flight: 8 concurrent cold repairs -> {} build, {} hits, {} coalesced",
        cs.misses, cs.hits, cs.coalesced
    );
}
