//! `degraded-read`: 512 B sectors over SD, LRC, PMDS and product codes in
//! one process. Each family's scenarios come from a Zipf(1.0)-skewed pool
//! larger than `PlanCache::DEFAULT_CAPACITY`, so a minority of requests
//! miss the plan cache and pay cold planning.
//!
//! One operation is one `repair_verified` call on a session shared by
//! every client, timed outside the call. The loop is closed: `nproc`
//! clients, each sending its next request when the last returns, with no
//! think time. Every repaired stripe is compared with its pristine copy.

use crate::common::{
    derive, gibps, latency_metrics, median_f64, metric, rng, timed_setup, Ledger, Metric, Outcome,
    Samples, Zipf,
};
use crate::fixture::{
    check_sectors, check_stats, encoded_stripe, leak, scenario_pool, session, Session,
};
use crate::layers::{self, Probe};
use crate::trace::Spans;
use crate::Ctx;
use ppm_codes::{ErasureCode, FailureScenario, LrcCode, PmdsCode, ProductCode, SdCode};
use ppm_core::{PlanCache, PlanCacheStats};
use ppm_stripe::Stripe;
use rand::seq::SliceRandom;
use rand::RngCore;
use std::time::{Duration, Instant};

struct Family {
    code: &'static dyn ErasureCode<u8>,
    svc: Session,
    pool: Vec<FailureScenario>,
    /// Per popularity phase, the pool index of each Zipf rank.
    ranks: Vec<Vec<usize>>,
    pristine: Vec<Stripe>,
}

struct State {
    families: Vec<Family>,
    zipf: Vec<Zipf>,
    sector_bytes: usize,
}

/// Popularity changes every `PHASE_SECS`: each phase maps Zipf ranks to
/// scenarios by a fresh permutation, so a run averages over many choices
/// of hot scenario instead of depending on the one a seed picks.
const PHASE_SECS: f64 = 0.5;
const PHASES: usize = 64;

/// Scenarios per family: half again the plan cache's capacity.
const POOL: usize = PlanCache::<u8>::DEFAULT_CAPACITY * 3 / 2;

fn codes() -> Vec<&'static dyn ErasureCode<u8>> {
    vec![
        leak(
            SdCode::<u8>::with_generator_coeffs(8, 8, 2, 2)
                .or_else(|_| SdCode::<u8>::search(8, 8, 2, 2, 2015, 2))
                .expect("SD^{2,2} over 8x8 exists"),
        ),
        leak(LrcCode::<u8>::new(6, 2, 2, 4).expect("LRC(6,2,2) over 4 rows exists")),
        leak(PmdsCode::<u8>::search(6, 4, 1, 2, 2015, 4).expect("PMDS(6,4,1,2) exists")),
        leak(ProductCode::<u8>::new(4, 1, 4, 1).expect("a 5x5 product code exists")),
    ]
}

fn build(ctx: &Ctx) -> State {
    let sector_bytes = 512;
    let stripes = if ctx.tiny { 2 } else { 8 };
    let pool_size = if ctx.tiny { 8 } else { POOL };
    let families: Vec<Family> = codes()
        .into_iter()
        .enumerate()
        .map(|(f, code)| {
            let mut r = rng(ctx.seed, 0xDE6 + f as u64);
            let layout = code.layout();
            let most = code.fault_tolerance().clamp(1, layout.sectors() - 1);
            let pool = scenario_pool(code, pool_size, || {
                let k = 1 + (r.next_u64() as usize) % most;
                Some(FailureScenario::random(layout, k, &mut r))
            });
            let svc = session(code, 1);
            let pristine = (0..stripes)
                .map(|_| encoded_stripe(&svc, sector_bytes, &mut r))
                .collect();
            // Validation and encoding warmed the cache; requests start cold.
            svc.clear_cache();
            let ranks = (0..PHASES)
                .map(|_| {
                    let mut perm: Vec<usize> = (0..pool.len()).collect();
                    perm.shuffle(&mut r);
                    perm
                })
                .collect();
            Family {
                code,
                svc,
                pool,
                ranks,
                pristine,
            }
        })
        .collect();
    let zipf = families
        .iter()
        .map(|f| Zipf::new(f.pool.len(), 1.0))
        .collect();
    State {
        families,
        zipf,
        sector_bytes,
    }
}

/// Plan-cache counters summed over the families.
fn cache_totals(state: &State) -> PlanCacheStats {
    let mut sum = PlanCacheStats::default();
    for f in &state.families {
        let c = f.svc.cache_stats();
        sum.hits += c.hits;
        sum.misses += c.misses;
        sum.coalesced += c.coalesced;
        sum.evictions += c.evictions;
        sum.entries += c.entries;
        sum.capacity += c.capacity;
    }
    sum
}

struct Client {
    samples: Samples,
    busy_s: f64,
    bytes: f64,
    ledger: Ledger,
}

/// Runs `nproc` closed-loop clients for `budget`.
fn measure(ctx: &Ctx, state: &State, budget: Duration, traced: bool, salt: u64) -> Vec<Client> {
    let clients = ctx.nproc.max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut spans = if traced {
                        ctx.tracer.local(c + 1)
                    } else {
                        Spans::off()
                    };
                    let mut r = rng(derive(ctx.seed, salt), 0xC11E + c as u64);
                    let mut work: Vec<Vec<Stripe>> =
                        state.families.iter().map(|f| f.pristine.clone()).collect();
                    let mut client = Client {
                        samples: Samples::new(1 << 20, derive(ctx.seed, c as u64)),
                        busy_s: 0.0,
                        bytes: 0.0,
                        ledger: Ledger::default(),
                    };
                    let started = Instant::now();
                    let mut req = 0u64;
                    while started.elapsed() < budget {
                        let phase =
                            (started.elapsed().as_secs_f64() / PHASE_SECS) as usize % PHASES;
                        let f = (r.next_u64() as usize) % state.families.len();
                        let fam = &state.families[f];
                        let scn = &fam.pool[fam.ranks[phase][state.zipf[f].sample(&mut r)]];
                        let i = (r.next_u64() as usize) % fam.pristine.len();
                        let stripe = &mut work[f][i];
                        stripe.erase(scn);
                        let id = spans.open("op.repair_verified", req);
                        let t = Instant::now();
                        let result = fam.svc.repair_verified(stripe, scn);
                        let dt = t.elapsed();
                        spans.close(id);
                        client.samples.record_duration(dt);
                        client.busy_s += dt.as_secs_f64();
                        client.bytes += stripe.total_bytes() as f64;
                        let verdict = match result {
                            Ok(st) => check_stats(&st).and(check_sectors(
                                stripe,
                                &fam.pristine[i],
                                scn.faulty(),
                            )),
                            Err(e) => Err(format!("repair_verified: {e}")),
                        };
                        if verdict.is_err() {
                            *stripe = fam.pristine[i].clone();
                        }
                        client.ledger.check(verdict);
                        req += 1;
                    }
                    ctx.tracer.absorb(spans);
                    client
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    })
}

pub fn run(ctx: &Ctx) -> Outcome {
    let (state, setups) = timed_setup(|| build(ctx));
    println!(
        "workload degraded-read: codes={} sector={}B scenarios/family={} zipf=1.0 popularity_phase={PHASE_SECS}s cache_capacity={} clients={} (closed loop, no think time)",
        state.families.iter().map(|f| f.code.name()).collect::<Vec<_>>().join("+"),
        state.sector_bytes,
        state.families[0].pool.len(),
        PlanCache::<u8>::DEFAULT_CAPACITY,
        ctx.nproc,
    );
    let mut ledger = Ledger::default();
    let mut metrics: Vec<Metric> = vec![metric("setup_s", median_f64(&setups), "s")];
    let mut layers_out = Vec::new();
    if ctx.tracer.enabled() {
        let mut salt = 0;
        let (untraced, traced) = crate::overhead(
            ctx,
            |budget, spans, ledger| {
                salt += 1;
                let clients = measure(ctx, &state, budget, spans.is_on(), salt);
                let ops: u64 = clients.iter().map(|c| c.samples.seen()).sum();
                let busy: f64 = clients.iter().map(|c| c.busy_s).sum();
                for c in clients {
                    ledger.absorb(c.ledger);
                }
                busy / ops.max(1) as f64
            },
            &mut ledger,
        );
        layers_out.extend(crate::overhead_metrics(untraced, traced));
        let sd = &state.families[0];
        let probe = Probe {
            code: sd.code,
            scenarios: sd.pool.iter().take(8).cloned().collect(),
            sector_bytes: state.sector_bytes,
            cache: Some(cache_totals(&state)),
        };
        drop(state);
        layers_out.extend(layers::run(ctx, &probe, ctx.budget(0.6), &mut ledger));
    } else {
        let before = cache_totals(&state);
        let clients = measure(ctx, &state, ctx.budget(1.0), false, 0);
        let after = cache_totals(&state);
        let mut samples = Samples::new(2 << 20, ctx.seed);
        let (mut busy, mut bytes) = (0.0, 0.0);
        for c in clients {
            samples.merge(&c.samples);
            busy += c.busy_s;
            bytes += c.bytes;
            ledger.absorb(c.ledger);
        }
        // Busy time per client: the clients ran side by side.
        let per_client = busy / ctx.nproc.max(1) as f64;
        let ops = samples.seen() as f64;
        let misses = (after.misses - before.misses) as f64;
        metrics.push(metric(
            "ops_per_s",
            samples.ops_per_s(ctx.nproc.max(1)),
            "1/s",
        ));
        latency_metrics(&samples, &mut metrics);
        metrics.push(metric("repair_gibps", gibps(bytes, per_client), "GiB/s"));
        metrics.push(metric("cache_misses", misses, "count"));
        metrics.push(metric("cache_miss_share", misses / ops.max(1.0), "ratio"));
    }
    Outcome {
        metrics,
        layers: layers_out,
        ledger,
    }
}
