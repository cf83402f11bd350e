//! `bulk-rebuild`: a wide SD^{2,2} code with 256 KiB sectors, a working
//! set larger than the last-level cache, and a small pool of worst-case
//! whole-disk-plus-sector patterns on a warm plan cache.
//!
//! Stripes are grouped by scenario, one group per `repair_batch` call
//! (`workers = nproc`, decoder threads 1). One operation is one such
//! call, timed outside. Every eighth round also re-encodes the group
//! through `RepairService::encode` on `nproc` threads. Erased and parity
//! sectors are compared byte for byte against copies taken at set-up.

use crate::common::{
    gibps, latency_metrics, median_f64, metric, rng, timed_setup, Ledger, Metric, Outcome, Samples,
};
use crate::fixture::{check_sectors_from, check_stats, encoded_stripe, leak, session, Session};
use crate::layers::{self, Probe};
use crate::trace::Spans;
use crate::Ctx;
use ppm_codes::{ErasureCode, FailureScenario, SdCode};
use ppm_stripe::Stripe;
use std::time::{Duration, Instant};

/// Worst-case scenarios in the pool; group `g` repairs scenario `g % SCENARIOS`.
const SCENARIOS: usize = 3;

struct Group {
    scenario: FailureScenario,
    stripes: Vec<Stripe>,
    /// Per stripe, the scenario's sectors as encoded, concatenated.
    erased: Vec<Vec<u8>>,
    /// Per stripe, the parity sectors as encoded, concatenated.
    parity: Vec<Vec<u8>>,
}

struct State {
    code: &'static dyn ErasureCode<u8>,
    svc: Session,
    groups: Vec<Group>,
    sector_bytes: usize,
}

struct Scale {
    n: usize,
    r: usize,
    sector_bytes: usize,
    /// Stripes in the working set, at least.
    working_stripes: usize,
}

fn scale(ctx: &Ctx) -> Scale {
    if ctx.tiny {
        Scale {
            n: 8,
            r: 16,
            sector_bytes: 1024,
            working_stripes: 12,
        }
    } else {
        Scale {
            n: 8,
            r: 2,
            sector_bytes: 256 * 1024,
            working_stripes: 96,
        }
    }
}

fn copy_sectors(stripe: &Stripe, sectors: &[usize]) -> Vec<u8> {
    let mut out = Vec::with_capacity(sectors.len() * stripe.sector_bytes());
    for &s in sectors {
        out.extend_from_slice(stripe.sector(s));
    }
    out
}

fn build(ctx: &Ctx) -> State {
    let sc = scale(ctx);
    let code = SdCode::<u8>::with_generator_coeffs(sc.n, sc.r, 2, 2)
        .or_else(|_| SdCode::<u8>::search(sc.n, sc.r, 2, 2, 2015, 2))
        .expect("a wide SD^{2,2} instance exists");
    let mut r = rng(ctx.seed, 0xB01C);
    let batch = 2 * ctx.nproc;
    let groups = sc.working_stripes.div_ceil(batch).max(SCENARIOS);
    let pool = crate::fixture::scenario_pool(&code, SCENARIOS, || {
        code.decodable_worst_case(2, &mut r, 300)
    });
    let code = leak(code);
    let svc = session(code, 1);
    let parity = code.parity_sectors();
    let groups = (0..groups)
        .map(|g| {
            let scenario = pool[g % pool.len()].clone();
            let stripes: Vec<Stripe> = (0..batch)
                .map(|_| encoded_stripe(&svc, sc.sector_bytes, &mut r))
                .collect();
            Group {
                erased: stripes
                    .iter()
                    .map(|s| copy_sectors(s, scenario.faulty()))
                    .collect(),
                parity: stripes.iter().map(|s| copy_sectors(s, &parity)).collect(),
                scenario,
                stripes,
            }
        })
        .collect();
    // Warm the plan cache: every scenario's plan is built before timing.
    let state = State {
        code,
        svc,
        groups,
        sector_bytes: sc.sector_bytes,
    };
    for g in &state.groups {
        state
            .svc
            .plan_for(&g.scenario)
            .expect("pool scenarios are decodable");
    }
    state
}

/// Seconds inside `repair_batch` and `encode`, and the bytes each moved.
#[derive(Default)]
struct Totals {
    repair_s: f64,
    repair_bytes: f64,
    encode_s: f64,
    encode_bytes: f64,
}

fn measure(
    ctx: &Ctx,
    state: &mut State,
    budget: Duration,
    samples: &mut Samples,
    spans: &mut Spans,
    ledger: &mut Ledger,
) -> Totals {
    let mut totals = Totals::default();
    let parity = state.code.parity_sectors();
    let started = Instant::now();
    let mut round = 0usize;
    while started.elapsed() < budget {
        let group_count = state.groups.len();
        let g = &mut state.groups[round % group_count];
        let stripe_bytes = g.stripes[0].total_bytes() as f64;
        for s in g.stripes.iter_mut() {
            s.erase(&g.scenario);
        }
        let id = spans.open("op.repair_batch", round as u64);
        let t = Instant::now();
        let report = state
            .svc
            .repair_batch(&mut g.stripes, &g.scenario, ctx.nproc);
        let dt = t.elapsed();
        spans.close(id);
        samples.record_duration(dt);
        totals.repair_s += dt.as_secs_f64();
        totals.repair_bytes += stripe_bytes * g.stripes.len() as f64;
        match report {
            Ok(rep) => {
                for ((s, saved), st) in g.stripes.iter().zip(&g.erased).zip(&rep.stats) {
                    ledger.check(check_stats(st).and(check_sectors_from(
                        s,
                        saved,
                        g.scenario.faulty(),
                    )));
                }
            }
            Err(e) => ledger.check_many(g.stripes.len() as u64, Err(format!("repair_batch: {e}"))),
        }

        if round.is_multiple_of(8) {
            for s in g.stripes.iter_mut() {
                for &p in &parity {
                    s.sector_mut(p).fill(0);
                }
            }
            let svc = &state.svc;
            let chunk = g.stripes.len().div_ceil(ctx.nproc);
            let id = spans.open("op.encode", round as u64);
            let t = Instant::now();
            let results: Vec<Vec<_>> = std::thread::scope(|scope| {
                let handles: Vec<_> = g
                    .stripes
                    .chunks_mut(chunk)
                    .map(|part| {
                        scope.spawn(move || part.iter_mut().map(|s| svc.encode(s)).collect())
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("encode threads do not panic"))
                    .collect()
            });
            let dt = t.elapsed();
            spans.close(id);
            totals.encode_s += dt.as_secs_f64();
            totals.encode_bytes += stripe_bytes * g.stripes.len() as f64;
            for ((s, saved), res) in g
                .stripes
                .iter()
                .zip(&g.parity)
                .zip(results.into_iter().flatten())
            {
                ledger.check(match res {
                    Ok(st) => check_stats(&st).and(check_sectors_from(s, saved, &parity)),
                    Err(e) => Err(format!("encode: {e}")),
                });
            }
        }
        round += 1;
    }
    totals
}

pub fn run(ctx: &Ctx) -> Outcome {
    let (mut state, setups) = timed_setup(|| build(ctx));
    let stripes: usize = state.groups.iter().map(|g| g.stripes.len()).sum();
    let scenarios = state.groups.len().min(SCENARIOS);
    let stripe_bytes = state.groups[0].stripes[0].total_bytes();
    println!(
        "workload bulk-rebuild: code={} sector={}B stripe={:.1}MiB working_set={:.1}MiB ({} stripes) scenarios={} batch={} workers={} decoder_threads=1",
        state.code.name(),
        state.sector_bytes,
        stripe_bytes as f64 / (1u64 << 20) as f64,
        (stripes * stripe_bytes) as f64 / (1u64 << 20) as f64,
        stripes,
        scenarios,
        state.groups[0].stripes.len(),
        ctx.nproc,
    );
    let mut ledger = Ledger::default();
    let mut metrics: Vec<Metric> = vec![metric("setup_s", median_f64(&setups), "s")];
    let mut layers_out = Vec::new();
    if ctx.tracer.enabled() {
        let (untraced, traced) = crate::overhead(
            ctx,
            |budget, spans, ledger| {
                let mut s = Samples::new(1 << 16, ctx.seed);
                let t = measure(ctx, &mut state, budget, &mut s, spans, ledger);
                t.repair_s / s.seen().max(1) as f64
            },
            &mut ledger,
        );
        layers_out.extend(crate::overhead_metrics(untraced, traced));
        let probe = Probe {
            code: state.code,
            scenarios: state
                .groups
                .iter()
                .take(SCENARIOS)
                .map(|g| g.scenario.clone())
                .collect(),
            sector_bytes: state.sector_bytes,
            cache: Some(state.svc.cache_stats()),
        };
        drop(state);
        layers_out.extend(layers::run(ctx, &probe, ctx.budget(0.6), &mut ledger));
    } else {
        let mut samples = Samples::new(1 << 16, ctx.seed);
        let t = measure(
            ctx,
            &mut state,
            ctx.budget(1.0),
            &mut samples,
            &mut Spans::off(),
            &mut ledger,
        );
        metrics.push(metric("ops_per_s", samples.ops_per_s(1), "1/s"));
        latency_metrics(&samples, &mut metrics);
        metrics.push(metric(
            "repair_gibps",
            gibps(t.repair_bytes, t.repair_s),
            "GiB/s",
        ));
        metrics.push(metric(
            "encode_gibps",
            gibps(t.encode_bytes, t.encode_s),
            "GiB/s",
        ));
    }
    Outcome {
        metrics,
        layers: layers_out,
        ledger,
    }
}
