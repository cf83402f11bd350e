//! The PPM repair benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <bulk-rebuild|degraded-read|cluster-repair|small-writes> \
//!     --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! With `--trace 0` it measures the workload's end-to-end metrics with
//! tracing off; with `--trace 1` it records spans around calls into each
//! layer and reports the per-layer metrics and the tracing overhead.
//! Every output is checked; the last line of standard output is one JSON
//! object. `--tiny` shrinks every input for the smoke test. See
//! `perfbench/README.md` for the metric map.

mod bulk;
mod cluster;
mod common;
mod degraded;
mod fixture;
mod layers;
mod trace;
mod writes;

use common::{Metric, Outcome};
use std::time::Duration;
use trace::Tracer;

/// The metrics every workload reports with `--trace 0`, as listed in
/// `BENCHMARK.json`.
const END_TO_END: [&str; 5] = [
    "setup_s",
    "ops_per_s",
    "op_p50_us",
    "op_p99_us",
    "peak_rss_mib",
];

/// The metrics every workload reports with `--trace 1`.
const PER_LAYER: [&str; 45] = [
    "gf.mul_xor_gibps",
    "gf.xor_gibps",
    "gf.mul_xor_gibps.scalar",
    "gf.mul_xor_gibps.ssse3",
    "gf.mul_xor_gibps.avx2",
    "gf.mult_xors_per_op",
    "gf.bytes_per_op",
    "executor.decode_us",
    "executor.tape_efficiency",
    "service.batch_scaling",
    "service.repair_ns_per_stripe",
    "service.fixed_ns_per_stripe",
    "executor.verify_us",
    "planner.warm_lookup_ns",
    "arena.take_give_ns",
    "arena.fresh_allocations_per_op",
    "arena.contended",
    "planner.cold_plan_us",
    "partition.build_us",
    "matrix.factor_us",
    "cache.hit_ratio",
    "cache.evictions",
    "cache.coalesced",
    "wire.encode_ns",
    "wire.decode_ns",
    "wire.compile_us",
    "wire.plan_bytes",
    "executor.wire_partials_us",
    "executor.finish_rest_us",
    "frame.seal_gibps",
    "frame.unseal_gibps",
    "message.codec_gibps",
    "sim.frames",
    "sim.plans_shipped",
    "sim.split_rests",
    "sim.run_us",
    "sim.materialise_share",
    "sim.reference_share",
    "update.write_ns",
    "update.apply_us",
    "update.delta_flush_ratio",
    "update.mult_xors_per_write",
    "trace.op_untraced_us",
    "trace.op_traced_us",
    "trace.overhead_pct",
];

const WORKLOADS: [&str; 4] = [
    "bulk-rebuild",
    "degraded-read",
    "cluster-repair",
    "small-writes",
];

/// Run parameters every workload receives.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub tiny: bool,
    pub tracer: Tracer,
    pub nproc: usize,
}

impl Ctx {
    pub fn budget(&self, share: f64) -> Duration {
        Duration::from_secs_f64((self.seconds * share).max(0.001))
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--tiny" => args.tiny = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must lie in (0, 600]".into());
    }
    Ok(args)
}

/// The commit being measured, read from `.git` in the working directory
/// when there is one.
fn git_sha() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(sha) = read(&format!(".git/{reference}")) {
        return sha;
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn isa_flags() -> Vec<(&'static str, bool)> {
    #[cfg(target_arch = "x86_64")]
    {
        vec![
            ("ssse3", std::arch::is_x86_feature_detected!("ssse3")),
            ("avx2", std::arch::is_x86_feature_detected!("avx2")),
            (
                "pclmulqdq",
                std::arch::is_x86_feature_detected!("pclmulqdq"),
            ),
            ("gfni", std::arch::is_x86_feature_detected!("gfni")),
            ("avx512bw", std::arch::is_x86_feature_detected!("avx512bw")),
        ]
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        vec![
            ("ssse3", false),
            ("avx2", false),
            ("pclmulqdq", false),
            ("gfni", false),
            ("avx512bw", false),
        ]
    }
}

fn host_line(nproc: usize) -> String {
    let isa: Vec<String> = isa_flags()
        .iter()
        .map(|(name, on)| format!("{name}={}", u8::from(*on)))
        .collect();
    format!(
        "host available_parallelism={nproc} isa={} backend={:?} rustc=\"{}\" git={}",
        isa.join(","),
        ppm_gf::Backend::detect(),
        env!("PERFBENCH_RUSTC"),
        git_sha()
    )
}

fn json_metrics(metrics: &[Metric], names: &[&str]) -> Result<String, String> {
    let mut parts = Vec::with_capacity(names.len());
    for name in names {
        let m = metrics
            .iter()
            .find(|m| m.name == *name)
            .ok_or(format!("metric {name} was not measured"))?;
        if !m.value.is_finite() {
            return Err(format!("metric {name} is not finite: {}", m.value));
        }
        parts.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.value, m.unit
        ));
    }
    Ok(format!("{{{}}}", parts.join(", ")))
}

/// Pins glibc's allocator thresholds. Left dynamic, glibc raises its
/// mmap threshold after the first large frees, so some set-ups reuse
/// already-faulted heap memory while others fault fresh pages, and
/// `setup_s` flips between two modes from run to run. Pinned high, with
/// trimming off, every allocation below 32 MiB comes from a heap that
/// keeps what it has faulted, so memory is faulted once per process.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_allocator() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` only changes allocator parameters; it is called
    // once, first thing in `main`, before any other thread exists.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_allocator() {}

fn main() {
    pin_allocator();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tiny: args.tiny,
        tracer: Tracer::new(args.trace),
        nproc: common::nproc(),
    };
    println!("{}", host_line(ctx.nproc));
    println!(
        "run workload={} seed={} seconds={} trace={} tiny={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.tiny
    );
    let outcome: Outcome = match args.workload.as_str() {
        "bulk-rebuild" => bulk::run(&ctx),
        "degraded-read" => degraded::run(&ctx),
        "cluster-repair" => cluster::run(&ctx),
        _ => writes::run(&ctx),
    };

    let mut shown = if args.trace {
        outcome.layers
    } else {
        outcome.metrics
    };
    shown.push(common::metric(
        "failed_ops_ratio",
        outcome.ledger.failed_ratio(),
        "ratio",
    ));
    if !args.trace {
        shown.push(common::metric(
            "peak_rss_mib",
            common::peak_rss_mib(),
            "MiB",
        ));
    }
    for m in &shown {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    for why in &outcome.ledger.reasons {
        eprintln!("perfbench: wrong output: {why}");
    }
    if args.trace {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("traces")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        match ctx.tracer.write_jsonl(&path, 200_000) {
            Ok((written, total)) => {
                println!(
                    "spans written={written} recorded={total} file={}",
                    path.display()
                )
            }
            Err(e) => eprintln!("perfbench: could not write spans: {e}"),
        }
    }

    let names: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = match json_metrics(&shown, names) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let ledger = &outcome.ledger;
    if ledger.attempted == 0 {
        eprintln!("perfbench: no output was checked");
        std::process::exit(1);
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        ledger.failed == 0,
        ledger.attempted,
        ledger.failed
    );
}

/// Runs `measure` alternately with tracing off and on, three times each
/// for equal budgets, and returns the median seconds per operation of
/// each side. Spans of the traced side go to the run's tracer.
pub fn overhead(
    ctx: &Ctx,
    mut measure: impl FnMut(Duration, &mut trace::Spans, &mut common::Ledger) -> f64,
    ledger: &mut common::Ledger,
) -> (f64, f64) {
    let budget = ctx.budget(0.05);
    let mut off = Vec::new();
    let mut on = Vec::new();
    for _ in 0..3 {
        off.push(measure(budget, &mut trace::Spans::off(), ledger));
        let mut spans = ctx.tracer.local(0);
        on.push(measure(budget, &mut spans, ledger));
        ctx.tracer.absorb(spans);
    }
    (common::median_f64(&off), common::median_f64(&on))
}

pub fn overhead_metrics(untraced: f64, traced: f64) -> Vec<Metric> {
    vec![
        common::metric("trace.op_untraced_us", untraced * 1e6, "us"),
        common::metric("trace.op_traced_us", traced * 1e6, "us"),
        common::metric(
            "trace.overhead_pct",
            (traced - untraced) / untraced * 100.0,
            "%",
        ),
    ]
}
