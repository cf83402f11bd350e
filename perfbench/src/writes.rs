//! `small-writes`: a Zipf(1.0) trace of sub-sector writes through
//! `UpdateEngine` over an LRC and an SD volume with 4 KiB sectors, with a
//! dirty buffer smaller than the hot set so evictions flush mid-trace.
//!
//! One operation is one `UpdateEngine::write`, timed outside the call;
//! the flushes it forces are part of it. A shadow copy of every volume's
//! data checks the result: after the final flush each stripe's data
//! sectors must equal the shadow and its parity must be consistent.

use crate::common::{
    derive, latency_metrics, median_f64, metric, rng, timed_setup, Ledger, Metric, Outcome, Samples,
};
use crate::fixture::{check_stats, encoded_stripe, leak, session, Session};
use crate::layers::{self, Probe};
use crate::trace::Spans;
use crate::Ctx;
use ppm_codes::{ErasureCode, LrcCode, SdCode};
use ppm_core::parity_consistent;
use ppm_gf::Backend;
use ppm_update::{
    synthesize, EngineConfig, EvictionPolicy, FlushMode, SynthKind, TraceOp, UpdateEngine,
};
use rand::RngCore;
use std::time::{Duration, Instant};

type Engine<'s> = UpdateEngine<'s, u8, &'static dyn ErasureCode<u8>>;

/// The data a volume should hold, updated beside every write.
pub struct Shadow {
    code: &'static dyn ErasureCode<u8>,
    data: Vec<u8>,
}

impl Shadow {
    pub fn new(code: &'static dyn ErasureCode<u8>, engine: &Engine<'_>) -> Shadow {
        let map = engine.address_map();
        let mut data = Vec::with_capacity(map.volume_bytes() as usize);
        for stripe in engine.volume() {
            for &s in map.data_sectors() {
                data.extend_from_slice(stripe.sector(s));
            }
        }
        Shadow { code, data }
    }

    pub fn apply(&mut self, offset: u64, payload: &[u8]) {
        let at = offset as usize;
        self.data[at..at + payload.len()].copy_from_slice(payload);
    }

    /// Flushes everything, then checks every stripe's data against the
    /// shadow and its parity against the code. One checked output per
    /// stripe and per final flush.
    pub fn finish(&self, engine: &mut Engine<'_>) -> Ledger {
        let mut ledger = Ledger::default();
        match engine.flush_all(1) {
            Ok(reports) => {
                for rep in &reports {
                    ledger.check(check_stats(&rep.exec));
                }
            }
            Err(e) => ledger.check(Err(format!("flush_all: {e}"))),
        }
        let map = engine.address_map();
        let per = map.data_per_stripe() as usize;
        let sb = map.sector_bytes();
        let h = self.code.parity_check_matrix();
        for (i, stripe) in engine.volume().iter().enumerate() {
            let want = &self.data[i * per..(i + 1) * per];
            let data_ok = map
                .data_sectors()
                .iter()
                .enumerate()
                .all(|(k, &s)| stripe.sector(s) == &want[k * sb..(k + 1) * sb]);
            ledger.check(if !data_ok {
                Err(format!("stripe {i}: data differs from the writes applied"))
            } else if !parity_consistent(&h, stripe, Backend::Auto) {
                Err(format!(
                    "stripe {i}: parity inconsistent after the final flush"
                ))
            } else {
                Ok(())
            });
        }
        ledger
    }
}

/// One volume: its engine, the trace that drives it and its shadow.
///
/// The trace comes in phases of `trace_ops` writes, each a fresh Zipf
/// draw with its own hot-spot placement, so one run averages over many
/// placements instead of depending on the one a seed happens to pick.
struct Volume {
    code: &'static dyn ErasureCode<u8>,
    engine: Engine<'static>,
    trace: Vec<TraceOp>,
    next: usize,
    phase: u64,
    seed: u64,
    shadow: Shadow,
}

impl Volume {
    fn phase_trace(&self, ops: usize, write_bytes: usize) -> Vec<TraceOp> {
        synthesize(
            SynthKind::Zipf(1.0),
            ops,
            self.engine.address_map().volume_bytes(),
            write_bytes as u64,
            derive(self.seed, self.phase),
        )
    }

    fn next_op(&mut self, write_bytes: usize) -> TraceOp {
        if self.next == self.trace.len() {
            self.phase += 1;
            self.trace = self.phase_trace(self.trace.len(), write_bytes);
            self.next = 0;
        }
        self.next += 1;
        self.trace[self.next - 1]
    }
}

struct State {
    volumes: Vec<Volume>,
    /// Random bytes the write payloads are cut from.
    payloads: Vec<u8>,
    write_bytes: usize,
    sector_bytes: usize,
}

struct Scale {
    sector_bytes: usize,
    stripes: usize,
    write_bytes: usize,
    buffer_bytes: u64,
    trace_ops: usize,
}

fn scale(ctx: &Ctx) -> Scale {
    if ctx.tiny {
        Scale {
            sector_bytes: 512,
            stripes: 4,
            write_bytes: 128,
            buffer_bytes: 2 * 1024,
            trace_ops: 1_000,
        }
    } else {
        Scale {
            sector_bytes: 4096,
            stripes: 32,
            write_bytes: 1024,
            buffer_bytes: 64 * 1024,
            trace_ops: 100_000,
        }
    }
}

/// Bytes of the Zipf(1.0) slots that take 80% of the writes.
fn hot_set_bytes(slots: usize, write_bytes: usize) -> usize {
    let total: f64 = (1..=slots).map(|k| 1.0 / k as f64).sum();
    let mut acc = 0.0;
    for k in 1..=slots {
        acc += 1.0 / k as f64;
        if acc >= 0.8 * total {
            return k * write_bytes;
        }
    }
    slots * write_bytes
}

fn build(ctx: &Ctx) -> State {
    let sc = scale(ctx);
    let codes: [&'static dyn ErasureCode<u8>; 2] = [
        leak(LrcCode::<u8>::new(6, 2, 2, 4).expect("LRC(6,2,2) over 4 rows exists")),
        leak(
            SdCode::<u8>::with_generator_coeffs(6, 4, 1, 1)
                .or_else(|_| SdCode::<u8>::search(6, 4, 1, 1, 2015, 2))
                .expect("SD^{1,1} over 6x4 exists"),
        ),
    ];
    let mut r = rng(ctx.seed, 0x3417);
    let mut volumes = Vec::new();
    for (v, code) in codes.into_iter().enumerate() {
        // Sessions outlive every engine that borrows them.
        let svc: &'static Session = Box::leak(Box::new(session(code, 1)));
        let stripes: Vec<_> = (0..sc.stripes)
            .map(|_| encoded_stripe(svc, sc.sector_bytes, &mut r))
            .collect();
        let config = EngineConfig {
            buffer_bytes: sc.buffer_bytes,
            policy: EvictionPolicy::Lru,
            mode: FlushMode::Auto,
        };
        let engine = UpdateEngine::new(svc, stripes, config).expect("a parity-consistent volume");
        let shadow = Shadow::new(code, &engine);
        let mut volume = Volume {
            code,
            engine,
            trace: Vec::new(),
            next: 0,
            phase: 0,
            seed: derive(ctx.seed, 0x7A0 + v as u64),
            shadow,
        };
        volume.trace = volume.phase_trace(sc.trace_ops, sc.write_bytes);
        volumes.push(volume);
    }
    let mut payloads = vec![0u8; 1 << 20];
    r.fill_bytes(&mut payloads);
    State {
        volumes,
        payloads,
        write_bytes: sc.write_bytes,
        sector_bytes: sc.sector_bytes,
    }
}

/// Writes alternate between the volumes, each following its own trace,
/// until `budget` has passed.
fn measure(
    state: &mut State,
    budget: Duration,
    samples: &mut Samples,
    spans: &mut Spans,
    ledger: &mut Ledger,
) -> f64 {
    let wb = state.write_bytes;
    let slots = state.payloads.len() / wb;
    let mut busy = Duration::ZERO;
    let started = Instant::now();
    let mut i = 0usize;
    while started.elapsed() < budget {
        let vol = &mut state.volumes[i % 2];
        let op = vol.next_op(wb);
        let at = (i % slots) * wb;
        let payload = &state.payloads[at..at + op.len as usize];
        let id = spans.open("op.write", i as u64);
        let t = Instant::now();
        let result = vol.engine.write(op.offset, payload);
        let dt = t.elapsed();
        spans.close(id);
        busy += dt;
        samples.record_duration(dt);
        vol.shadow.apply(op.offset, payload);
        ledger.check(match result {
            Ok(reports) => reports.iter().try_for_each(|r| check_stats(&r.exec)),
            Err(e) => Err(format!("write: {e}")),
        });
        i += 1;
    }
    busy.as_secs_f64()
}

pub fn run(ctx: &Ctx) -> Outcome {
    let sc = scale(ctx);
    let (mut state, setups) = timed_setup(|| build(ctx));
    let slots = state.volumes[0].engine.address_map().volume_bytes() as usize / sc.write_bytes;
    println!(
        "workload small-writes: codes={} sector={}B stripes/volume={} write={}B buffer={}B hot_set_80pct={}B (LRC volume) trace=zipf(1.0) clients=1",
        state.volumes.iter().map(|v| v.code.name()).collect::<Vec<_>>().join("+"),
        sc.sector_bytes,
        sc.stripes,
        sc.write_bytes,
        sc.buffer_bytes,
        hot_set_bytes(slots, sc.write_bytes),
    );
    let mut ledger = Ledger::default();
    let mut metrics: Vec<Metric> = vec![metric("setup_s", median_f64(&setups), "s")];
    let mut layers_out = Vec::new();
    if ctx.tracer.enabled() {
        let (untraced, traced) = crate::overhead(
            ctx,
            |budget, spans, ledger| {
                let mut s = Samples::new(1 << 20, ctx.seed);
                let busy = measure(&mut state, budget, &mut s, spans, ledger);
                busy / s.seen().max(1) as f64
            },
            &mut ledger,
        );
        layers_out.extend(crate::overhead_metrics(untraced, traced));
    } else {
        let mut samples = Samples::new(4 << 20, ctx.seed);
        measure(
            &mut state,
            ctx.budget(1.0),
            &mut samples,
            &mut Spans::off(),
            &mut ledger,
        );
        let stats: Vec<_> = state.volumes.iter().map(|v| v.engine.stats()).collect();
        let flushes: usize = stats.iter().map(|s| s.flushes).sum();
        let evictions: usize = stats.iter().map(|s| s.evictions).sum();
        metrics.push(metric("ops_per_s", samples.ops_per_s(1), "1/s"));
        latency_metrics(&samples, &mut metrics);
        metrics.push(metric("flushes", flushes as f64, "count"));
        metrics.push(metric("evictions", evictions as f64, "count"));
    }
    for vol in &mut state.volumes {
        ledger.absorb(vol.shadow.finish(&mut vol.engine));
    }
    if ctx.tracer.enabled() {
        let probe = Probe {
            code: state.volumes[0].code,
            scenarios: layers::default_scenarios(state.volumes[0].code, ctx.seed),
            sector_bytes: state.sector_bytes,
            cache: None,
        };
        drop(state);
        layers_out.extend(layers::run(ctx, &probe, ctx.budget(0.6), &mut ledger));
    }
    Outcome {
        metrics,
        layers: layers_out,
        ledger,
    }
}
