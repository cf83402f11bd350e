//! Runs every workload at tiny scale, untraced and traced, and checks
//! that each named metric is printed with its unit and that no output
//! was wrong.

use std::process::Command;

/// `(workload, end-to-end metrics the workload reports, with units)`.
const WORKLOADS: [(&str, &[(&str, &str)]); 4] = [
    (
        "bulk-rebuild",
        &[("repair_gibps", "GiB/s"), ("encode_gibps", "GiB/s")],
    ),
    (
        "degraded-read",
        &[
            ("repair_gibps", "GiB/s"),
            ("ops_per_s", "1/s"),
            ("op_p50_us", "us"),
            ("op_p99_us", "us"),
            ("op_samples", "count"),
            ("cache_misses", "count"),
        ],
    ),
    (
        "cluster-repair",
        &[
            ("repair_gibps", "GiB/s"),
            ("wire_bytes_per_repaired_byte", "ratio"),
        ],
    ),
    (
        "small-writes",
        &[
            ("ops_per_s", "1/s"),
            ("op_p50_us", "us"),
            ("op_p99_us", "us"),
            ("op_samples", "count"),
        ],
    ),
];

/// Reported by every workload.
const EVERY: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("failed_ops_ratio", "ratio"),
];

/// The keys of the final JSON line, per mode, as `BENCHMARK.json` lists them.
const JSON_END_TO_END: [&str; 5] = [
    "setup_s",
    "ops_per_s",
    "op_p50_us",
    "op_p99_us",
    "peak_rss_mib",
];
const JSON_LAYERS: [&str; 6] = [
    "gf.mul_xor_gibps",
    "executor.decode_us",
    "planner.cold_plan_us",
    "wire.compile_us",
    "update.write_ns",
    "trace.overhead_pct",
];

fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0.5",
            "--trace",
            trace,
            "--tiny",
        ])
        .output()
        .expect("the benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

fn metric_line<'a>(stdout: &'a str, name: &str) -> Option<&'a str> {
    stdout
        .lines()
        .find(|l| l.split_whitespace().nth(1) == Some(name) && l.starts_with("metric "))
}

fn assert_printed(stdout: &str, workload: &str, name: &str, unit: &str) {
    let line =
        metric_line(stdout, name).unwrap_or_else(|| panic!("{workload}: {name} not printed"));
    let fields: Vec<&str> = line.split_whitespace().collect();
    assert_eq!(
        fields.get(3),
        Some(&unit),
        "{workload}: {name} has the wrong unit"
    );
    let value: f64 = fields[2].parse().expect("a number");
    assert!(value.is_finite(), "{workload}: {name} = {value}");
}

fn assert_json(stdout: &str, workload: &str, names: &[&str]) {
    let last = stdout.lines().last().expect("output");
    assert!(
        last.starts_with("{\"correct\": true, "),
        "{workload}: {last}"
    );
    assert!(last.contains("\"failed\": 0,"), "{workload}: {last}");
    for name in names {
        assert!(
            last.contains(&format!("\"{name}\": {{\"value\": ")),
            "{workload}: {name} missing from {last}"
        );
    }
}

#[test]
fn every_workload_prints_its_metrics_and_checks_clean() {
    for (workload, own) in WORKLOADS {
        let stdout = run(workload, "0");
        for (name, unit) in EVERY.iter().chain(own.iter()) {
            assert_printed(&stdout, workload, name, unit);
        }
        let failed = metric_line(&stdout, "failed_ops_ratio").expect("printed");
        assert_eq!(
            failed.split_whitespace().nth(2),
            Some("0"),
            "{workload}: {failed}"
        );
        assert!(
            stdout.starts_with("host available_parallelism="),
            "{workload}: no host line"
        );
        assert_json(&stdout, workload, &JSON_END_TO_END);
    }
}

#[test]
fn traced_runs_report_layers_and_overhead() {
    for (workload, _) in WORKLOADS {
        let stdout = run(workload, "1");
        assert_json(&stdout, workload, &JSON_LAYERS);
        assert_printed(&stdout, workload, "trace.overhead_pct", "%");
    }
}
