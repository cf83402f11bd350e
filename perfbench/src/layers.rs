//! The traced run's per-layer probes.
//!
//! Each probe calls one layer's public functions from this file, inside
//! spans, at the geometry of the workload that asked for it: the code,
//! the failure scenarios and the sector size. The metrics are computed
//! from the recorded spans and from the counters the calls return.

use crate::common::{derive, gibps, median_f64, median_ns, metric, rng, Ledger, Metric, Zipf, GIB};
use crate::fixture::{check_sectors, check_stats, encoded_stripe, session, Session};
use crate::trace::Spans;
use crate::Ctx;
use ppm_cluster::{run_sim, seal_v2, unseal, RepairMode, WorkerResponse};
use ppm_codes::{ErasureCode, FailureScenario};
use ppm_core::{parity_consistent, Partition, PlanCacheStats, Planner, WirePlan};
use ppm_gf::{xor_region, Backend, RegionMul};
use ppm_matrix::Factorization;
use ppm_update::{EngineConfig, EvictionPolicy, FlushMode, UpdateEngine};
use rand::RngCore;
use std::hint::black_box;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// What a workload hands the probes.
pub struct Probe {
    pub code: &'static dyn ErasureCode<u8>,
    /// Decodable scenarios; the first is the one warm probes repair.
    pub scenarios: Vec<FailureScenario>,
    pub sector_bytes: usize,
    /// The workload session's plan-cache counters, when the workload
    /// holds a session; otherwise the probe session's own are reported.
    pub cache: Option<PlanCacheStats>,
}

/// Runs `f` until `slice` has passed and at least `min` times.
fn repeat(slice: Duration, min: usize, mut f: impl FnMut()) {
    let started = Instant::now();
    let mut n = 0;
    while n < min || started.elapsed() < slice {
        f();
        n += 1;
    }
}

/// Median per-call nanoseconds of spans that each wrapped `reps` calls.
fn per_call_ns(spans: &[u64], reps: usize) -> f64 {
    median_ns(spans) / reps as f64
}

/// Repetitions per span so one span covers about 256 KiB of work.
fn reps_for(bytes: usize) -> usize {
    (256 * 1024 / bytes.max(1)).clamp(1, 4096)
}

pub fn run(ctx: &Ctx, probe: &Probe, budget: Duration, ledger: &mut Ledger) -> Vec<Metric> {
    let slice = budget / 10;
    let mut spans = ctx.tracer.local(0);
    let mut out = Vec::new();
    let mut r = rng(ctx.seed, 0x1A7E);

    // ppm-gf region kernels.
    let sb = probe.sector_bytes;
    let chosen = gf_rate(
        &mut spans,
        &mut r,
        "gf.mul_xor",
        Backend::Auto,
        sb,
        slice / 2,
    );
    let mut src = vec![0u8; sb];
    let mut dst = vec![0u8; sb];
    r.fill_bytes(&mut src);
    let reps = reps_for(sb);
    let mut xor_rates = Vec::new();
    repeat(slice / 4, 5, || {
        let id = spans.open("gf.xor", 0);
        let t = Instant::now();
        for _ in 0..reps {
            xor_region(black_box(&src), black_box(&mut dst));
        }
        xor_rates.push(gibps((reps * sb) as f64, t.elapsed().as_secs_f64()));
        spans.close(id);
    });
    out.push(metric("gf.mul_xor_gibps", chosen, "GiB/s"));
    out.push(metric("gf.xor_gibps", median_f64(&xor_rates), "GiB/s"));
    for (name, backend) in [
        ("gf.mul_xor_gibps.scalar", Backend::Scalar),
        ("gf.mul_xor_gibps.ssse3", Backend::Ssse3),
        ("gf.mul_xor_gibps.avx2", Backend::Avx2),
    ] {
        // A backend this CPU lacks reads 0.
        let rate = if backend.is_available() {
            gf_rate(&mut spans, &mut r, name, backend, 64 * 1024, slice / 4)
        } else {
            0.0
        };
        out.push(metric(name, rate, "GiB/s"));
    }

    // ppm-core executor, service fixed cost, planner hit and arena.
    let svc = session(probe.code, 1);
    let pristine = encoded_stripe(&svc, sb, &mut r);
    let scn = &probe.scenarios[0];
    let (plan, _) = svc.plan_for(scn).expect("probe scenarios are decodable");
    let mut work = pristine.clone();
    let fresh_before = svc.arena().stats().fresh;
    let mut ops = 0u64;
    let mut last_stats = None;
    repeat(slice / 2, 5, || {
        work.erase(scn);
        let id = spans.open("executor.decode", 0);
        let stats = svc.executor().decode(&plan, &mut work);
        spans.close(id);
        ops += 1;
        ledger.check(match stats {
            Ok(s) => {
                let verdict = check_stats(&s).and(check_sectors(&work, &pristine, scn.faulty()));
                last_stats = Some(s);
                verdict
            }
            Err(e) => Err(format!("decode: {e}")),
        });
    });
    repeat(slice / 2, 5, || {
        work.erase(scn);
        let id = spans.open("service.repair", 0);
        let stats = svc.repair(&mut work, scn);
        spans.close(id);
        ops += 1;
        ledger.check(match stats {
            Ok(s) => check_stats(&s).and(check_sectors(&work, &pristine, scn.faulty())),
            Err(e) => Err(format!("repair: {e}")),
        });
    });
    let fresh_per_op = (svc.arena().stats().fresh - fresh_before) as f64 / ops as f64;
    repeat(slice / 4, 5, || {
        let id = spans.open("executor.verify", 0);
        let report = svc.executor().verify(&plan, &work);
        spans.close(id);
        ledger.check(match report {
            Ok(rep) if rep.clean() => Ok(()),
            Ok(rep) => Err(format!("verify flagged rows {:?}", rep.violated_rows)),
            Err(e) => Err(format!("verify: {e}")),
        });
    });
    const LOOKUPS: usize = 1000;
    repeat(slice / 8, 5, || {
        let id = spans.open("planner.warm_lookup", 0);
        for _ in 0..LOOKUPS {
            black_box(svc.planner().plan_for(black_box(scn)).is_ok());
        }
        spans.close(id);
    });
    let take_reps = 1000;
    repeat(slice / 8, 5, || {
        let id = spans.open("arena.take_give", 0);
        for _ in 0..take_reps {
            let buf = svc.arena().take_dirty(sb);
            svc.arena().give(black_box(buf));
        }
        spans.close(id);
    });
    let contended = arena_contention(ctx, &svc, sb, slice / 4);

    let stats = last_stats.expect("the decode probe ran at least once");
    let mult_xors = stats.executed_mult_xors() as f64;
    let decode_ns = median_ns(&spans_of(ctx, &mut spans, "executor.decode"));
    let repair_ns = median_ns(&spans_of(ctx, &mut spans, "service.repair"));
    let kernel_ns = mult_xors * sb as f64 / (chosen * GIB) * 1e9;
    let decode_rate = gibps(mult_xors * sb as f64, decode_ns / 1e9);
    out.push(metric("gf.mult_xors_per_op", mult_xors, "count"));
    out.push(metric("gf.bytes_per_op", stats.bytes_moved() as f64, "B"));
    out.push(metric("executor.decode_us", decode_ns / 1e3, "us"));
    out.push(metric(
        "executor.tape_efficiency",
        decode_rate / chosen,
        "ratio",
    ));
    out.push(metric("service.repair_ns_per_stripe", repair_ns, "ns"));
    out.push(metric(
        "service.fixed_ns_per_stripe",
        repair_ns - kernel_ns,
        "ns",
    ));
    out.push(metric(
        "executor.verify_us",
        median_ns(&spans_of(ctx, &mut spans, "executor.verify")) / 1e3,
        "us",
    ));
    out.push(metric(
        "planner.warm_lookup_ns",
        per_call_ns(&spans_of(ctx, &mut spans, "planner.warm_lookup"), LOOKUPS),
        "ns",
    ));
    out.push(metric(
        "arena.take_give_ns",
        per_call_ns(&spans_of(ctx, &mut spans, "arena.take_give"), take_reps),
        "ns",
    ));
    out.push(metric(
        "arena.fresh_allocations_per_op",
        fresh_per_op,
        "count",
    ));
    out.push(metric("arena.contended", contended as f64, "count"));

    out.push(metric(
        "service.batch_scaling",
        batch_scaling(ctx, &svc, &pristine, scn, slice, ledger),
        "ratio",
    ));

    // Cold planning: planner miss, partition, factorization.
    cold_planning(probe, &mut spans, slice);
    out.push(metric(
        "planner.cold_plan_us",
        median_ns(&spans_of(ctx, &mut spans, "planner.cold_plan")) / 1e3,
        "us",
    ));
    out.push(metric(
        "partition.build_us",
        median_ns(&spans_of(ctx, &mut spans, "partition.build")) / 1e3,
        "us",
    ));
    out.push(metric(
        "matrix.factor_us",
        median_ns(&spans_of(ctx, &mut spans, "matrix.factor")) / 1e3,
        "us",
    ));
    let c = probe.cache.unwrap_or_else(|| svc.cache_stats());
    out.push(metric(
        "cache.hit_ratio",
        c.hits as f64 / (c.hits + c.misses).max(1) as f64,
        "ratio",
    ));
    out.push(metric("cache.evictions", c.evictions as f64, "count"));
    out.push(metric("cache.coalesced", c.coalesced as f64, "count"));

    out.extend(wire_probe(
        ctx, probe, &svc, &pristine, &mut spans, slice, ledger,
    ));
    out.extend(sim_probe(ctx, probe, &mut spans, slice, ledger));
    out.extend(update_probe(ctx, probe, &mut spans, slice, ledger));
    ctx.tracer.absorb(spans);
    out
}

/// Moves the thread's spans into the tracer and returns the durations of
/// those called `name`.
fn spans_of(ctx: &Ctx, spans: &mut Spans, name: &str) -> Vec<u64> {
    let done = std::mem::replace(spans, ctx.tracer.local(0));
    ctx.tracer.absorb(done);
    ctx.tracer.durations(name)
}

/// Median GiB/s of `dst ^= c · src` on `bytes`-byte regions.
fn gf_rate(
    spans: &mut Spans,
    r: &mut rand::rngs::StdRng,
    name: &'static str,
    backend: Backend,
    bytes: usize,
    slice: Duration,
) -> f64 {
    let mul = RegionMul::<u8>::new(0x8E, backend);
    let mut src = vec![0u8; bytes];
    let mut dst = vec![0u8; bytes];
    r.fill_bytes(&mut src);
    let reps = reps_for(bytes);
    let mut rates = Vec::new();
    repeat(slice, 5, || {
        let id = spans.open(name, 0);
        let t = Instant::now();
        for _ in 0..reps {
            mul.mul_xor(black_box(&src), black_box(&mut dst));
        }
        let secs = t.elapsed().as_secs_f64();
        spans.close(id);
        rates.push(gibps((reps * bytes) as f64, secs));
    });
    median_f64(&rates)
}

/// Lock collisions the session's arena counts while `nproc` threads take
/// and give buffers at once.
fn arena_contention(ctx: &Ctx, svc: &Session, bytes: usize, slice: Duration) -> u64 {
    let before = svc.arena().stats().contended;
    let threads = ctx.nproc.max(2);
    let barrier = Barrier::new(threads);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                barrier.wait();
                repeat(slice, 1, || {
                    for _ in 0..100 {
                        let buf = svc.arena().take_dirty(bytes);
                        svc.arena().give(black_box(buf));
                    }
                });
            });
        }
    });
    svc.arena().stats().contended - before
}

/// `repair_batch` throughput with `nproc` workers over one worker, on
/// `2 × nproc` copies of the probe stripe.
fn batch_scaling(
    ctx: &Ctx,
    svc: &Session,
    pristine: &ppm_stripe::Stripe,
    scn: &FailureScenario,
    slice: Duration,
    ledger: &mut Ledger,
) -> f64 {
    let workers = ctx.nproc.max(1);
    let mut batch: Vec<_> = (0..2 * workers).map(|_| pristine.clone()).collect();
    let mut one = Vec::new();
    let mut many = Vec::new();
    repeat(slice, 6, || {
        for (w, times) in [(1, &mut one), (workers, &mut many)] {
            for s in batch.iter_mut() {
                s.erase(scn);
            }
            let t = Instant::now();
            let report = svc.repair_batch(&mut batch, scn, w);
            times.push(t.elapsed().as_secs_f64());
            match report {
                Ok(rep) => {
                    for (s, st) in batch.iter().zip(&rep.stats) {
                        ledger.check(check_stats(st).and(check_sectors(s, pristine, scn.faulty())));
                    }
                }
                Err(e) => ledger.check(Err(format!("repair_batch: {e}"))),
            }
        }
    });
    median_f64(&one) / median_f64(&many)
}

fn cold_planning(probe: &Probe, spans: &mut Spans, slice: Duration) {
    let planner: Planner<u8, &'static dyn ErasureCode<u8>> =
        Planner::new(probe.code, Backend::Auto);
    let h = probe.code.parity_check_matrix();
    let mut i = 0usize;
    repeat(slice, 5, || {
        let scn = &probe.scenarios[i % probe.scenarios.len()];
        i += 1;
        planner.clear_cache();
        let id = spans.open("planner.cold_plan", i as u64);
        black_box(planner.plan_for(scn).is_ok());
        spans.close(id);
        let id = spans.open("partition.build", i as u64);
        let part = Partition::build(&h, scn);
        spans.close(id);
        // Every sub-system's faulty columns over its rows, with the rows
        // a plan would pick; the span covers the factorizations only.
        let systems: Vec<_> = part
            .independent
            .iter()
            .chain(&part.rest)
            .map(|sub| {
                let f = h.select_rows(&sub.rows).select_columns(&sub.faulty);
                let picked = f.select_independent_rows();
                (f, picked)
            })
            .collect();
        let id = spans.open("matrix.factor", i as u64);
        for (f, picked) in &systems {
            black_box(Factorization::with_residual(f, picked).is_some());
        }
        spans.close(id);
    });
}

/// Wire-plan codec and compile, split partial repair, frames and
/// messages, at the probe's geometry.
fn wire_probe(
    ctx: &Ctx,
    probe: &Probe,
    svc: &Session,
    pristine: &ppm_stripe::Stripe,
    spans: &mut Spans,
    slice: Duration,
    ledger: &mut Ledger,
) -> Vec<Metric> {
    let sb = probe.sector_bytes;
    // Prefer a scenario whose H_rest splits, so finish_rest has work:
    // the workload's own first, then random ones of the same code.
    let extra = default_scenarios(probe.code, ctx.seed);
    let mut chosen = None;
    for scn in probe.scenarios.iter().chain(&extra) {
        let (wire, _) = svc
            .planner()
            .wire_plan_for(scn)
            .expect("probe scenarios are decodable");
        let exe = wire
            .compile::<u8>(Backend::Auto)
            .expect("own plans compile");
        let splits = exe.rest_splittable();
        if chosen.is_none() || splits {
            chosen = Some((scn.clone(), wire, exe));
        }
        if splits {
            break;
        }
    }
    let (scn, wire, exe) = chosen.expect("at least one probe scenario");
    let bytes = wire.encode();
    let reps = 100;
    repeat(slice / 6, 5, || {
        let id = spans.open("wire.encode", 0);
        for _ in 0..reps {
            black_box(wire.encode());
        }
        spans.close(id);
        let id = spans.open("wire.decode", 0);
        for _ in 0..reps {
            black_box(WirePlan::decode(black_box(&bytes)).is_ok());
        }
        spans.close(id);
    });
    repeat(slice / 6, 5, || {
        let id = spans.open("wire.compile", 0);
        black_box(wire.compile::<u8>(Backend::Auto).is_ok());
        spans.close(id);
    });

    let mut work = pristine.clone();
    let mut shipped: Option<Vec<Vec<u8>>> = None;
    repeat(slice / 3, 5, || {
        work.erase(&scn);
        let id = spans.open("executor.wire_partials", 0);
        let partials = svc.executor().wire_partials(&exe, &mut work);
        spans.close(id);
        let partials = match partials {
            Ok(p) => p,
            Err(e) => return ledger.check(Err(format!("wire_partials: {e}"))),
        };
        if partials.rest_pending {
            let id = spans.open("executor.finish_rest", 0);
            let rest = svc.executor().finish_rest(&exe, &partials.rest_blocks, sb);
            spans.close(id);
            match rest {
                Ok(sectors) => {
                    for (sector, data) in sectors {
                        work.write_sector(sector, &data);
                    }
                }
                Err(e) => return ledger.check(Err(format!("finish_rest: {e}"))),
            }
        }
        ledger.check(check_sectors(&work, pristine, scn.faulty()));
        shipped = Some(partials.rest_blocks);
    });

    // The response a worker ships for this stripe: partial sums when
    // H_rest splits, otherwise the recovered sectors.
    let message = match shipped.filter(|b| !b.is_empty()) {
        Some(rest_blocks) => WorkerResponse::Partials {
            stripe: 0,
            rest_blocks,
            rest_pending: true,
            violated_rows: None,
        },
        None => WorkerResponse::Sectors {
            stripe: 0,
            sectors: scn
                .faulty()
                .iter()
                .map(|&s| (s as u32, pristine.sector(s).to_vec()))
                .collect(),
        },
    };
    let payload = message.encode();
    let mut seal_rates = Vec::new();
    let mut unseal_rates = Vec::new();
    let mut codec_rates = Vec::new();
    let mut seq = 0u32;
    repeat(slice / 3, 5, || {
        seq = seq.wrapping_add(1);
        let id = spans.open("frame.seal", u64::from(seq));
        let t = Instant::now();
        let frame = seal_v2(seq, black_box(&payload));
        seal_rates.push(gibps(payload.len() as f64, t.elapsed().as_secs_f64()));
        spans.close(id);
        let id = spans.open("frame.unseal", u64::from(seq));
        let t = Instant::now();
        let opened = unseal(frame);
        unseal_rates.push(gibps(payload.len() as f64, t.elapsed().as_secs_f64()));
        spans.close(id);
        let id = spans.open("message.codec", u64::from(seq));
        let t = Instant::now();
        let encoded = message.encode();
        let decoded = WorkerResponse::decode(&encoded);
        codec_rates.push(gibps(payload.len() as f64, t.elapsed().as_secs_f64()));
        spans.close(id);
        ledger.check(match (opened, decoded) {
            (Ok(ppm_cluster::Unsealed::V2 { payload: p, .. }), Ok(m))
                if p == payload && m == message =>
            {
                Ok(())
            }
            _ => Err("frame or message did not round-trip".into()),
        });
    });

    vec![
        metric(
            "wire.encode_ns",
            per_call_ns(&spans_of(ctx, spans, "wire.encode"), reps),
            "ns",
        ),
        metric(
            "wire.decode_ns",
            per_call_ns(&spans_of(ctx, spans, "wire.decode"), reps),
            "ns",
        ),
        metric(
            "wire.compile_us",
            median_ns(&spans_of(ctx, spans, "wire.compile")) / 1e3,
            "us",
        ),
        metric("wire.plan_bytes", bytes.len() as f64, "B"),
        metric(
            "executor.wire_partials_us",
            median_ns(&spans_of(ctx, spans, "executor.wire_partials")) / 1e3,
            "us",
        ),
        // No scenario of the probe splits H_rest: nothing to finish, 0.
        metric(
            "executor.finish_rest_us",
            median_ns(&spans_of(ctx, spans, "executor.finish_rest")) / 1e3,
            "us",
        ),
        metric("frame.seal_gibps", median_f64(&seal_rates), "GiB/s"),
        metric("frame.unseal_gibps", median_f64(&unseal_rates), "GiB/s"),
        metric("message.codec_gibps", median_f64(&codec_rates), "GiB/s"),
    ]
}

/// The counts one partial-mode cluster repair reports, and how its time
/// splits. `run_sim` materialises and encodes each damaged stripe and
/// repairs a reference copy on a fresh session before any frame moves;
/// the probe times that same work on its own, in spans beside each call,
/// and reports its share of the call.
fn sim_probe(
    ctx: &Ctx,
    probe: &Probe,
    spans: &mut Spans,
    slice: Duration,
    ledger: &mut Ledger,
) -> Vec<Metric> {
    let mut frames = 0u64;
    let mut plans = 0usize;
    let mut splits = 0usize;
    let mut runs = 0u64;
    // The simulation materialises whole stripes per call: cap sectors at
    // the cluster workload's 64 KiB.
    let sb = probe.sector_bytes.min(64 * 1024);
    repeat(slice, 1, || {
        let cfg = crate::cluster::job(ctx, sb, derive(ctx.seed, 0x51A0 + runs));
        runs += 1;
        let id = spans.open("sim.run", runs);
        let result = run_sim(&probe.code, &cfg, RepairMode::Partial);
        spans.close(id);
        match result {
            Ok(rep) => {
                frames += rep.traffic.frames;
                plans += rep.plans_shipped;
                splits += rep.split_rests;
                ledger.check_many(cfg.damaged as u64, crate::cluster::check_report(&rep, &cfg));
            }
            Err(e) => ledger.check(Err(format!("run_sim: {e}"))),
        }

        let svc = session(probe.code, 1);
        let mut r = rng(cfg.seed, 0xA770);
        let id = spans.open("sim.materialise", runs);
        let stripes: Vec<_> = (0..cfg.damaged)
            .map(|_| encoded_stripe(&svc, sb, &mut r))
            .collect();
        spans.close(id);
        let id = spans.open("sim.reference", runs);
        let mut verdicts = Vec::with_capacity(stripes.len());
        for (i, stripe) in stripes.iter().enumerate() {
            let scn = &probe.scenarios[i % probe.scenarios.len()];
            let mut expected = stripe.clone();
            expected.erase(scn);
            verdicts.push(match svc.repair_verified(&mut expected, scn) {
                Ok(st) => check_stats(&st).and(check_sectors(&expected, stripe, scn.faulty())),
                Err(e) => Err(format!("reference repair: {e}")),
            });
        }
        spans.close(id);
        for v in verdicts {
            ledger.check(v);
        }
    });
    let mut total = |name| spans_of(ctx, spans, name).iter().sum::<u64>() as f64;
    let run_ns = total("sim.run");
    let per_run = |x: f64| x / runs as f64;
    vec![
        metric("sim.frames", per_run(frames as f64), "count"),
        metric("sim.plans_shipped", per_run(plans as f64), "count"),
        metric("sim.split_rests", per_run(splits as f64), "count"),
        metric("sim.run_us", per_run(run_ns) / 1e3, "us"),
        metric(
            "sim.materialise_share",
            total("sim.materialise") / run_ns,
            "ratio",
        ),
        metric(
            "sim.reference_share",
            total("sim.reference") / run_ns,
            "ratio",
        ),
    ]
}

/// Buffered small writes and direct delta-parity patches on a small
/// volume of the probe's code.
fn update_probe(
    ctx: &Ctx,
    probe: &Probe,
    spans: &mut Spans,
    slice: Duration,
    ledger: &mut Ledger,
) -> Vec<Metric> {
    // Sub-sector writes: cap sectors at the small-writes workload's 4 KiB.
    let sb = probe.sector_bytes.min(4096);
    let svc = session(probe.code, 1);
    let mut r = rng(ctx.seed, 0x0B0E);
    let volume: Vec<_> = (0..8).map(|_| encoded_stripe(&svc, sb, &mut r)).collect();
    let data = probe.code.data_sectors();
    let hot_bytes = (volume.len() * data.len() * sb) as u64;
    let config = EngineConfig {
        buffer_bytes: (hot_bytes / 16).max(sb as u64),
        policy: EvictionPolicy::Lru,
        mode: FlushMode::Auto,
    };
    let mut engine = UpdateEngine::new(&svc, volume, config).expect("a parity-consistent volume");
    let write = (sb / 4).max(8);
    let zipf = Zipf::new((hot_bytes / write as u64) as usize, 1.0);
    let mut shadow = crate::writes::Shadow::new(probe.code, &engine);
    let mut payload = vec![0u8; write];
    let mut flush_mult_xors = 0u64;
    let mut writes = 0u64;
    let mut sectors_per_flush = Vec::new();
    repeat(slice / 2, 16, || {
        let offset = (zipf.sample(&mut r) * write) as u64;
        r.fill_bytes(&mut payload);
        let id = spans.open("update.write", writes);
        let reports = engine.write(offset, &payload);
        spans.close(id);
        writes += 1;
        shadow.apply(offset, &payload);
        match reports {
            Ok(reports) => {
                if !reports.is_empty() {
                    spans.rename(id, "update.write.flushing");
                }
                for rep in &reports {
                    flush_mult_xors += rep.exec.executed_mult_xors();
                    sectors_per_flush.push(rep.dirty_sectors as f64);
                    ledger.check(check_stats(&rep.exec));
                }
            }
            Err(e) => ledger.check(Err(format!("write: {e}"))),
        }
    });
    let stats = engine.stats();
    ledger.absorb(shadow.finish(&mut engine));

    // Direct patches: the flush's median number of dirty sectors, each
    // rewritten whole, through RepairService::apply_update.
    let per_flush = (median_f64(&sectors_per_flush).round() as usize).clamp(1, data.len());
    let mut stripe = encoded_stripe(&svc, sb, &mut r);
    let h = probe.code.parity_check_matrix();
    let mut contents = vec![vec![0u8; sb]; per_flush];
    repeat(slice / 2, 5, || {
        for c in contents.iter_mut() {
            r.fill_bytes(c);
        }
        let batch: Vec<(usize, &[u8])> = data
            .iter()
            .zip(&contents)
            .map(|(&s, c)| (s, c.as_slice()))
            .collect();
        let id = spans.open("update.apply", 0);
        let result = svc.apply_update(&mut stripe, &batch);
        spans.close(id);
        ledger.check(match result {
            Ok(s) => check_stats(&s).and(if parity_consistent(&h, &stripe, Backend::Auto) {
                Ok(())
            } else {
                Err("apply_update left the stripe parity-inconsistent".into())
            }),
            Err(e) => Err(format!("apply_update: {e}")),
        });
    });

    vec![
        metric(
            "update.write_ns",
            median_ns(&spans_of(ctx, spans, "update.write")),
            "ns",
        ),
        metric(
            "update.apply_us",
            median_ns(&ctx.tracer.durations("update.apply")) / 1e3,
            "us",
        ),
        metric(
            "update.delta_flush_ratio",
            stats.delta_flushes as f64 / stats.flushes.max(1) as f64,
            "ratio",
        ),
        metric(
            "update.mult_xors_per_write",
            flush_mult_xors as f64 / writes.max(1) as f64,
            "count",
        ),
    ]
}

/// Up to eight decodable random-sector scenarios of `code`.
pub fn default_scenarios(code: &'static dyn ErasureCode<u8>, seed: u64) -> Vec<FailureScenario> {
    let mut r = rng(seed, 0x5CE7);
    let layout = code.layout();
    let most = code.fault_tolerance().clamp(1, layout.sectors() - 1);
    crate::fixture::scenario_pool(code, 8, || {
        let k = 1 + (r.next_u64() as usize) % most;
        Some(FailureScenario::random(layout, k, &mut r))
    })
}
