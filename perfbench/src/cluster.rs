//! `cluster-repair`: `run_sim` in `RepairMode::Partial` with
//! `workers = nproc`, 64 KiB sectors and a scenario pool of at least
//! `workers` entries.
//!
//! One operation is one `run_sim` call, timed outside. It includes the
//! simulation's own stripe materialisation and reference repair, the
//! wire plans, v2 frames, message codecs and split partial repairs. The
//! coordinator waits on each reply, so at most `nproc` worker threads run
//! at once. Every call's report must say the repaired stripes are
//! identical to the single-node reference.

use crate::common::{
    derive, gibps, latency_metrics, median_f64, metric, timed_setup, Ledger, Metric, Outcome,
    Samples,
};
use crate::fixture::leak;
use crate::layers::{self, Probe};
use crate::trace::Spans;
use crate::Ctx;
use ppm_cluster::{run_sim, RepairMode, SimConfig, SimReport};
use ppm_codes::{ErasureCode, SdCode};
use std::time::{Duration, Instant};

/// A report is right when every damaged stripe was repaired, identical
/// to the reference, with a clean verify pass.
pub fn check_report(rep: &SimReport, cfg: &SimConfig) -> Result<(), String> {
    if !rep.identical {
        return Err("cluster repair differs from the single-node reference".into());
    }
    if rep.repaired != cfg.damaged || rep.verified_clean != rep.repaired || rep.violations != 0 {
        return Err(format!(
            "repaired {} of {}, {} verified clean, {} violated rows",
            rep.repaired, cfg.damaged, rep.verified_clean, rep.violations
        ));
    }
    Ok(())
}

/// One repair job: `nproc` workers, `nproc` damaged stripes drawn from a
/// pool of `nproc` scenarios, one decoder thread each, v2 frames.
pub fn job(ctx: &Ctx, sector_bytes: usize, seed: u64) -> SimConfig {
    SimConfig {
        workers: ctx.nproc,
        stripes: 1_000_000,
        damaged: ctx.nproc,
        scenarios: ctx.nproc,
        sector_bytes,
        seed,
        threads: 1,
        ..SimConfig::default()
    }
}

struct State {
    code: &'static dyn ErasureCode<u8>,
    base: SimConfig,
}

/// Set-up `k` of a run: eight jobs of their own seeds. Job costs cluster
/// by the scenarios each draws, so one set-up averages over several jobs
/// and the median set-up does not depend on the few a seed draws.
fn build(ctx: &Ctx, k: u64) -> State {
    let code = leak(
        SdCode::<u8>::with_generator_coeffs(6, 4, 2, 2)
            .or_else(|_| SdCode::<u8>::search(6, 4, 2, 2, 2015, 2))
            .expect("SD^{2,2} over 6x4 exists"),
    );
    let sector_bytes = if ctx.tiny { 1024 } else { 64 * 1024 };
    let base = job(ctx, sector_bytes, ctx.seed);
    // Set-up is each job's plan pool, stripes and reference repairs; the
    // calls also prove the configuration valid before timing starts.
    for j in 0..8 {
        let cfg = SimConfig {
            seed: derive(ctx.seed, 0x5E70 + 8 * k + j),
            ..base
        };
        run_sim(&code, &cfg, RepairMode::Partial).expect("the job configuration is valid");
    }
    State { code, base }
}

#[derive(Default)]
struct Totals {
    busy_s: f64,
    repaired_bytes: f64,
    wire_bytes: f64,
}

fn measure(
    ctx: &Ctx,
    state: &State,
    budget: Duration,
    samples: &mut Samples,
    spans: &mut Spans,
    ledger: &mut Ledger,
) -> Totals {
    let mut totals = Totals::default();
    let stripe_bytes = (state.code.layout().sectors() * state.base.sector_bytes) as f64;
    let started = Instant::now();
    let mut call = 0u64;
    while started.elapsed() < budget {
        // Each job draws its own damage and scenario pool from the seed.
        let cfg = SimConfig {
            seed: derive(ctx.seed, call),
            ..state.base
        };
        let id = spans.open("op.run_sim", call);
        let t = Instant::now();
        let result = run_sim(&state.code, &cfg, RepairMode::Partial);
        let dt = t.elapsed();
        spans.close(id);
        samples.record_duration(dt);
        totals.busy_s += dt.as_secs_f64();
        match result {
            Ok(rep) => {
                totals.repaired_bytes += rep.repaired as f64 * stripe_bytes;
                totals.wire_bytes += rep.traffic.total_bytes() as f64;
                ledger.check_many(cfg.damaged as u64, check_report(&rep, &cfg));
            }
            Err(e) => ledger.check_many(cfg.damaged as u64, Err(format!("run_sim: {e}"))),
        }
        call += 1;
    }
    totals
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut k = 0;
    let (state, setups) = timed_setup(|| {
        k += 1;
        build(ctx, k)
    });
    println!(
        "workload cluster-repair: code={} sector={}B workers={} damaged/job={} scenarios/job={} mode=partial frames=v2 clients=1",
        state.code.name(),
        state.base.sector_bytes,
        state.base.workers,
        state.base.damaged,
        state.base.scenarios,
    );
    let mut ledger = Ledger::default();
    let mut metrics: Vec<Metric> = vec![metric("setup_s", median_f64(&setups), "s")];
    let mut layers_out = Vec::new();
    if ctx.tracer.enabled() {
        let (untraced, traced) = crate::overhead(
            ctx,
            |budget, spans, ledger| {
                let mut s = Samples::new(1 << 16, ctx.seed);
                let t = measure(ctx, &state, budget, &mut s, spans, ledger);
                t.busy_s / s.seen().max(1) as f64
            },
            &mut ledger,
        );
        layers_out.extend(crate::overhead_metrics(untraced, traced));
        let probe = Probe {
            code: state.code,
            scenarios: layers::default_scenarios(state.code, ctx.seed),
            sector_bytes: state.base.sector_bytes,
            cache: None,
        };
        layers_out.extend(layers::run(ctx, &probe, ctx.budget(0.6), &mut ledger));
    } else {
        let mut samples = Samples::new(1 << 16, ctx.seed);
        let t = measure(
            ctx,
            &state,
            ctx.budget(1.0),
            &mut samples,
            &mut Spans::off(),
            &mut ledger,
        );
        metrics.push(metric("ops_per_s", samples.ops_per_s(1), "1/s"));
        latency_metrics(&samples, &mut metrics);
        metrics.push(metric(
            "repair_gibps",
            gibps(t.repaired_bytes, t.busy_s),
            "GiB/s",
        ));
        metrics.push(metric(
            "wire_bytes_per_repaired_byte",
            t.wire_bytes / t.repaired_bytes,
            "ratio",
        ));
    }
    Outcome {
        metrics,
        layers: layers_out,
        ledger,
    }
}
