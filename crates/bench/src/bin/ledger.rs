//! Predicted-vs-executed mult_XOR ledger: for every code family in the
//! evaluation, decode with runtime telemetry and print the planner's
//! predicted cost (§III-B's `C` for the chosen strategy) next to the
//! executed region-operation count reported by the GF kernels. The two
//! columns must agree exactly — the cost model *is* the executed work.
//!
//! `cargo run --release -p ppm-bench --bin ledger [--stripe-mib 4] [--threads T]`

use ppm_bench::{ledger_plan, time_plan, write_bench_json, ExpArgs, Table};
use ppm_core::Strategy;

/// Warm-decode throughput sweep over a range of stripe sizes on one
/// representative SD instance. Returns the JSON rows. Every row checks
/// the §III-B ledger at that size (executed == predicted, bit-exact
/// recovery); MiB/s is the best-of-33 wall clock of a warm decode. The
/// sweep decodes single-threaded so it measures executor efficiency,
/// not the thread pool's scheduling jitter.
fn tape_sweep(seed: u64) -> Vec<String> {
    let t = Table::new(&["stripe", "MiB/s", "predicted", "executed"]);
    let mut rows = Vec::new();
    for &(label, stripe_bytes) in &[
        ("64KiB", 64usize << 10),
        ("256KiB", 256 << 10),
        ("1MiB", 1 << 20),
        ("4MiB", 4 << 20),
    ] {
        let prep = ppm_bench::prepare_sd(6, 8, 2, 2, 1, stripe_bytes, seed)
            .expect("sweep instance prepares");
        let (stats, _) = ledger_plan(&prep, Strategy::PpmAuto, 1);
        let (secs, _) = time_plan(&prep, Strategy::PpmAuto, 1, 33);
        let mib_s = stripe_bytes as f64 / (1u64 << 20) as f64 / secs;
        let (predicted, executed) = (stats.predicted_mult_xors, stats.executed_mult_xors());
        t.row(&[
            label.to_string(),
            format!("{mib_s:.0}"),
            predicted.to_string(),
            executed.to_string(),
        ]);
        println!(
            "tape-sweep stripe={label} tape={mib_s:.0}MiB/s predicted={predicted} executed={executed}"
        );
        rows.push(format!(
            "{{\"stripe\":\"{label}\",\"stripe_bytes\":{stripe_bytes},\"tape_mib_s\":{mib_s:.1},\
             \"predicted_mult_xors\":{predicted},\"executed_mult_xors\":{executed},\
             \"matches_prediction\":{}}}",
            stats.matches_prediction()
        ));
    }
    rows
}

fn main() {
    let args = ExpArgs::parse();
    println!(
        "# Predicted vs executed mult_XORs (stripe {:.0} MiB, T={})\n",
        args.stripe_mib(),
        args.threads
    );
    let t = Table::new(&[
        "instance",
        "strategy",
        "p",
        "predicted",
        "executed",
        "plainXOR",
        "util",
    ]);
    let mut rows = 0usize;
    let mut json_rows: Vec<String> = Vec::new();

    let mut emit = |name: &str, stats: &ppm_core::ExecStats| {
        t.row(&[
            name.to_string(),
            format!("{:?}", stats.strategy),
            stats.parallelism.to_string(),
            stats.predicted_mult_xors.to_string(),
            stats.executed_mult_xors().to_string(),
            stats.executed_plain_xors().to_string(),
            format!("{:.0}%", 100.0 * stats.thread_utilization()),
        ]);
        json_rows.push(format!(
            "{{\"instance\":\"{name}\",\"strategy\":\"{:?}\",\"parallelism\":{},\
             \"predicted_mult_xors\":{},\"executed_mult_xors\":{},\"executed_plain_xors\":{},\
             \"matches_prediction\":{}}}",
            stats.strategy,
            stats.parallelism,
            stats.predicted_mult_xors,
            stats.executed_mult_xors(),
            stats.executed_plain_xors(),
            stats.matches_prediction(),
        ));
        rows += 1;
    };

    // SD worst cases across the paper's shapes.
    for (n, r, m, s, z) in [
        (4, 4, 1, 1, 1),
        (6, 8, 2, 2, 1),
        (6, 8, 2, 2, 2),
        (11, 16, 2, 1, 1),
    ] {
        let Some(prep) = ppm_bench::prepare_sd(n, r, m, s, z, args.stripe_bytes, args.seed) else {
            continue;
        };
        for strategy in [Strategy::TraditionalNormal, Strategy::PpmAuto] {
            let (stats, _) = ledger_plan(&prep, strategy, args.threads);
            emit(&prep.name, &stats);
        }
    }

    // LRC spread outage and RS disk failures.
    if let Some(prep) = ppm_bench::prepare_lrc(6, 2, 2, 4, args.stripe_bytes, args.seed) {
        let (stats, _) = ledger_plan(&prep, Strategy::PpmAuto, args.threads);
        emit(&prep.name, &stats);
    }
    if let Some(prep) = ppm_bench::prepare_rs::<u8>(5, 3, 4, args.stripe_bytes, args.seed) {
        let (stats, _) = ledger_plan(&prep, Strategy::PpmAuto, args.threads);
        emit(&prep.name, &stats);
    }

    // Product code under correlated failures (rack loss and row burst)
    // and Hitchhiker-XOR under its worst whole-disk outage.
    for groups in [3usize, 0] {
        let Some(prep) =
            ppm_bench::prepare_product(4, 2, 3, 2, groups, args.stripe_bytes, args.seed)
        else {
            continue;
        };
        let (stats, _) = ledger_plan(&prep, Strategy::PpmAuto, args.threads);
        let label = if groups > 0 { "rack" } else { "burst" };
        emit(&format!("{} [{label}]", prep.name), &stats);
    }
    if let Some(prep) = ppm_bench::prepare_hitchhiker(5, 3, args.stripe_bytes, args.seed) {
        let (stats, _) = ledger_plan(&prep, Strategy::PpmAuto, args.threads);
        emit(&prep.name, &stats);
    }

    assert!(rows > 0, "no instance prepared");

    println!("\n# Warm decode throughput by stripe size\n");
    let sweep_rows = tape_sweep(args.seed);
    println!("tape sweep: executed == predicted at every stripe size ✓");

    let json = format!(
        "{{\"experiment\":\"ledger\",\"seed\":{},\"threads\":{},\"stripe_bytes\":{},\
         \"rows\":[{}],\"tape_sweep\":[{}]}}",
        args.seed,
        args.threads,
        args.stripe_bytes,
        json_rows.join(","),
        sweep_rows.join(",")
    );
    let path = write_bench_json("ledger", &json);
    println!(
        "\nevery row decoded bit-exact with executed == predicted ✓ (json: {})",
        path.display()
    );
}
