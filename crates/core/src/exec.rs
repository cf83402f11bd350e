//! The tape runner: the region-arithmetic data path every decode and
//! verify goes through.
//!
//! A [`DecodePlan`] holds one instruction segment per independent
//! sub-matrix plus the `H_rest` segment. [`Executor`](crate::Executor) dispatches the `p`
//! phase-A segments across its thread pool (Algorithm 1's "arrange T
//! (T ≤ p) threads"); each produces its recovered sectors from the
//! surviving sectors only, so they are embarrassingly parallel. Once all
//! are installed, phase B runs `H_rest` with the recovered blocks as
//! additional inputs. The functions here execute one segment, one
//! section, or the verify runs; the executor owns the pool and arena.
//!
//! This module is decode hot path: its entry points must stay
//! panic-free on bad input (structured [`RepairError`](crate::RepairError)s
//! instead of asserts), so the usual escape hatches are denied below and
//! re-allowed only where a tape-validation invariant makes them provably
//! unreachable.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use crate::arena::ScratchArena;
use crate::executor::Executor;
use crate::plan::{DecodePlan, Strategy};
use crate::stats::SubPlanStats;
use crate::tape::{Instr, Loc, OpCode, TapeSegment, VerifyRun};
use crate::DecodeError;
use ppm_codes::{ErasureCode, FailureScenario};
use ppm_gf::{mul_copy_fused, mul_copy_fused_with, Backend, GfWord, RegionMul, RegionStats};
use ppm_matrix::Matrix;
use ppm_stripe::Stripe;
use std::time::Instant;

/// Executor configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DecoderConfig {
    /// Thread budget `T` for the independent phase. `1` disables the pool
    /// entirely. The paper restrains `T ≤ min{4, core count}` to avoid
    /// thread-overloading; [`DecoderConfig::default`] follows that rule.
    pub threads: usize,
    /// Region-operation backend (SIMD/scalar) used by plans built for
    /// this executor.
    pub backend: Backend,
}

impl Default for DecoderConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        DecoderConfig {
            threads: cores.min(4),
            backend: Backend::Auto,
        }
    }
}

/// Outcome of one surplus-row verification pass (see
/// [`Executor::verify`](crate::Executor::verify)).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifyReport {
    /// Surplus parity-check rows evaluated. `0` means the failure
    /// pattern consumed every row of `H` — no redundancy was left to
    /// check against, so a clean report carries no evidence.
    pub rows_checked: usize,
    /// Global `H` row indices whose parity equation came out non-zero.
    pub violated_rows: Vec<usize>,
    /// Executed work of the pass, from the region kernels.
    pub stats: SubPlanStats,
}

impl VerifyReport {
    /// True when every evaluated row XOR-summed to the zero region.
    pub fn clean(&self) -> bool {
        self.violated_rows.is_empty()
    }
}

/// Replays lowered verify runs against a stripe: each surplus row is one
/// fused run into a single accumulator slot.
pub(crate) fn run_verify_runs<W: GfWord>(
    runs: &[VerifyRun<W>],
    stripe: &Stripe,
    arena: &ScratchArena,
) -> VerifyReport {
    let sink = RegionStats::new();
    let started = Instant::now();
    let mut violated = Vec::new();
    // Each run's head overwrites the accumulator, so it needs no
    // zeroing — not on take, not between rows.
    let mut acc = arena.take_dirty(stripe.sector_bytes());
    for run in runs {
        if run.instrs.is_empty() {
            // An all-zero surplus row: the empty XOR sum is zero, never
            // violated.
            continue;
        }
        run_tape_section(
            &run.instrs,
            |loc| match loc {
                Loc::Sector(s) => stripe.sector(s),
                // Validated tapes: verify runs read sectors only.
                Loc::Slot(_) => unreachable!("verify runs read sectors only"),
            },
            &mut acc,
            0,
            stripe.sector_bytes(),
            Some(&sink),
        );
        if acc.iter().any(|&b| b != 0) {
            violated.push(run.row);
        }
    }
    arena.give(acc);
    let stats = SubPlanStats::collect(&sink, 0, started.elapsed());
    VerifyReport {
        rows_checked: runs.len(),
        violated_rows: violated,
        stats,
    }
}

/// Executes one tape segment against the stripe with a fresh counter
/// sink and wall-clock timer: takes the segment's single arena
/// reservation, replays its fused instruction runs, and returns the flat
/// buffer with the outputs at their precomputed slots (the caller
/// installs them and recycles the buffer) together with the executed
/// work.
//
// The slot arithmetic is safe by tape validation (`crate::tape`): every
// destination is below the segment's slot count, every `Slot` source is
// below `scratch_slots`, and the reservation is exactly `total_slots()`
// sectors long.
#[allow(clippy::indexing_slicing)]
pub(crate) fn run_tape_segment<W: GfWord>(
    seg: &TapeSegment<W>,
    stripe: &Stripe,
    arena: &ScratchArena,
) -> (Vec<u8>, SubPlanStats) {
    let sink = RegionStats::new();
    let started = Instant::now();
    let sb = stripe.sector_bytes();
    // Unzeroed reservation: every slot's first touch is an overwriting
    // run head (enforced at tape validation), except the listed zero
    // slots — degenerate empty term lists — which are cleared here.
    let mut flat = arena.take_dirty(seg.total_slots() * sb);
    for &slot in &seg.zero_slots {
        flat[slot * sb..(slot + 1) * sb].fill(0);
    }
    let (scratch, outs) = flat.split_at_mut(seg.scratch_slots * sb);

    // Intermediate section: T-slot accumulators, reading sectors only.
    run_tape_section(
        &seg.instrs[..seg.scratch_boundary],
        |loc| match loc {
            Loc::Sector(s) => stripe.sector(s),
            // Tape invariant: the intermediate section never reads slots.
            Loc::Slot(_) => unreachable!("scratch section reads sectors only"),
        },
        scratch,
        0,
        sb,
        Some(&sink),
    );

    // Output section: reads sectors or the intermediates just computed.
    run_tape_section(
        &seg.instrs[seg.scratch_boundary..],
        |loc| match loc {
            Loc::Sector(s) => stripe.sector(s),
            Loc::Slot(e) => &scratch[e * sb..(e + 1) * sb],
        },
        outs,
        seg.scratch_slots,
        sb,
        Some(&sink),
    );
    let stats = SubPlanStats::collect(&sink, seg.outputs.len(), started.elapsed());
    (flat, stats)
}

/// Replays one tape section: gathers each maximal same-destination run
/// (one [`OpCode::MulCopy`] plus its [`OpCode::MulXorFusedCont`]s) and
/// applies it as a single fused operation into `dst_region`, whose
/// first slot is absolute slot `slot_base`. The run head *overwrites*
/// its slot (tape slots are taken unzeroed — every slot's first touch
/// is a head, enforced at validation), continuations accumulate.
//
// Indexing is safe by tape validation: run boundaries come from the
// opcodes the compiler emitted, and destinations lie inside this
// section's slot range.
#[allow(clippy::indexing_slicing)]
pub(crate) fn run_tape_section<'a, W: GfWord>(
    instrs: &[Instr<W>],
    source: impl Fn(Loc) -> &'a [u8],
    dst_region: &mut [u8],
    slot_base: usize,
    sb: usize,
    stats: Option<&RegionStats>,
) {
    let mut terms: Vec<(&RegionMul<W>, &[u8])> = Vec::new();
    let mut i = 0;
    while i < instrs.len() {
        let dst = instrs[i].dst;
        let mut j = i + 1;
        while j < instrs.len() && instrs[j].op == OpCode::MulXorFusedCont {
            j += 1;
        }
        let off = (dst - slot_base) * sb;
        let dslice = &mut dst_region[off..off + sb];
        if j == i + 1 {
            // Single-term run: dispatch the kernel directly, skipping
            // the fused block sweep and its term list. The head
            // overwrites — the slot arrives with arbitrary contents.
            let ins = &instrs[i];
            match stats {
                Some(s) => ins.kernel.mul_copy_with(source(ins.src), dslice, s),
                None => ins.kernel.mul_copy(source(ins.src), dslice),
            }
        } else {
            terms.clear();
            terms.extend(
                instrs[i..j]
                    .iter()
                    .map(|ins| (&*ins.kernel, source(ins.src))),
            );
            match stats {
                Some(s) => mul_copy_fused_with(&terms, dslice, s),
                None => mul_copy_fused(&terms, dslice),
            }
        }
        i = j;
    }
}

/// Writes a tape segment's outputs into the stripe from its flat
/// reservation, then recycles the buffer.
//
// `slot * sb..` is in bounds: outputs live inside the reservation the
// tape sized (see `run_tape_segment`).
#[allow(clippy::indexing_slicing)]
pub(crate) fn install_tape_outputs<W: GfWord>(
    seg: &TapeSegment<W>,
    flat: Vec<u8>,
    stripe: &mut Stripe,
    arena: &ScratchArena,
) {
    let sb = stripe.sector_bytes();
    for &(slot, sector) in &seg.outputs {
        stripe.write_sector(sector, &flat[slot * sb..(slot + 1) * sb]);
    }
    arena.give(flat);
}

/// Encodes a stripe in place: computes every parity sector from the data
/// sectors. Per the paper (§II-B footnote 1), encoding is the decoding
/// special case where all parity blocks are "faulty".
pub fn encode<W: GfWord, C: ErasureCode<W>>(
    code: &C,
    executor: &Executor,
    stripe: &mut Stripe,
) -> Result<DecodePlan<W>, DecodeError> {
    let scenario = FailureScenario::new(code.parity_sectors());
    let h = code.parity_check_matrix();
    let plan = DecodePlan::build(&h, &scenario, Strategy::PpmAuto, executor.config().backend)?;
    executor.decode(&plan, stripe)?;
    Ok(plan)
}

/// Verifies `H · B = 0` over the stripe's regions: every parity-check
/// equation must XOR-sum to the zero region. A stripe whose sector count
/// differs from `H`'s column count is not consistent with it.
pub fn parity_consistent<W: GfWord>(h: &Matrix<W>, stripe: &Stripe, backend: Backend) -> bool {
    if h.cols() != stripe.layout().sectors() {
        return false;
    }
    let sb = stripe.sector_bytes();
    let mut cache: std::collections::HashMap<u64, RegionMul<W>> = Default::default();
    let mut acc = vec![0u8; sb];
    for row in 0..h.rows() {
        acc.fill(0);
        for col in 0..h.cols() {
            let c = h.get(row, col);
            if c == W::ZERO {
                continue;
            }
            cache
                .entry(c.to_u64())
                .or_insert_with(|| RegionMul::new(c, backend))
                .mul_xor(stripe.sector(col), &mut acc);
        }
        if acc.iter().any(|&b| b != 0) {
            return false;
        }
    }
    true
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
mod tests {
    use super::*;
    use ppm_codes::{LrcCode, RsCode, SdCode};
    use ppm_stripe::random_data_stripe;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn executor(threads: usize) -> Executor {
        Executor::new(DecoderConfig {
            threads,
            backend: Backend::Scalar,
        })
    }

    fn plan<W: GfWord>(
        h: &Matrix<W>,
        scenario: &FailureScenario,
        strategy: Strategy,
    ) -> DecodePlan<W> {
        DecodePlan::build(h, scenario, strategy, Backend::Scalar).expect("plan")
    }

    fn roundtrip<W: GfWord, C: ErasureCode<W>>(
        code: &C,
        scenario: &FailureScenario,
        threads: usize,
        strategy: Strategy,
        seed: u64,
    ) {
        let exec = executor(threads);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut stripe = random_data_stripe(code, 64, &mut rng);
        encode(code, &exec, &mut stripe).expect("encode");
        let h = code.parity_check_matrix();
        assert!(
            parity_consistent(&h, &stripe, Backend::Scalar),
            "encode must satisfy H·B=0"
        );

        let pristine = stripe.clone();
        stripe.erase(scenario);
        assert_ne!(stripe, pristine, "erasure must change the stripe");
        let plan = plan(&h, scenario, strategy);
        let stats = exec.decode(&plan, &mut stripe).expect("decode");
        assert_eq!(
            stripe, pristine,
            "decode must restore every sector ({strategy:?})"
        );
        assert_eq!(plan.faulty(), scenario.faulty());
        assert!(stats.matches_prediction(), "{strategy:?}");
        assert_eq!(stats.threads, threads);
    }

    #[test]
    fn paper_example_roundtrips_all_strategies() {
        let code = SdCode::<u8>::new(4, 4, 1, 1, vec![1, 2]).unwrap();
        let sc = FailureScenario::new(vec![2, 6, 10, 13, 14]);
        for strategy in Strategy::CONCRETE.into_iter().chain([Strategy::PpmAuto]) {
            for threads in [1, 2, 4] {
                roundtrip(&code, &sc, threads, strategy, 42);
            }
        }
    }

    #[test]
    fn sd_worst_cases_roundtrip() {
        let code = SdCode::<u8>::search(6, 8, 2, 2, 3, 3).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        for z in 1..=2 {
            let sc = code.decodable_worst_case(z, &mut rng, 100).unwrap();
            roundtrip(&code, &sc, 4, Strategy::PpmAuto, 100 + z as u64);
            roundtrip(&code, &sc, 1, Strategy::TraditionalNormal, 200 + z as u64);
        }
    }

    #[test]
    fn rs_disk_failures_roundtrip() {
        let code = RsCode::<u8>::new(5, 3, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        let sc = code.random_disk_failures(3, &mut rng);
        roundtrip(&code, &sc, 4, Strategy::PpmAuto, 7);
        roundtrip(&code, &sc, 1, Strategy::TraditionalMatrixFirst, 8);
    }

    #[test]
    fn lrc_disk_failures_roundtrip() {
        let code = LrcCode::<u8>::new(6, 2, 2, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(31);
        let sc = code.decodable_disk_failures(4, &mut rng, 500).unwrap();
        roundtrip(&code, &sc, 4, Strategy::PpmAuto, 9);
        roundtrip(&code, &sc, 2, Strategy::PpmNormalRest, 10);
    }

    #[test]
    fn gf16_and_gf32_roundtrip() {
        let code16 = SdCode::<u16>::with_generator_coeffs(5, 4, 1, 1).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        if let Some(sc) = code16.decodable_worst_case(1, &mut rng, 50) {
            roundtrip(&code16, &sc, 2, Strategy::PpmAuto, 11);
        }
        let code32 = SdCode::<u32>::with_generator_coeffs(5, 4, 1, 1).unwrap();
        if let Some(sc) = code32.decodable_worst_case(1, &mut rng, 50) {
            roundtrip(&code32, &sc, 2, Strategy::PpmAuto, 12);
        }
    }

    #[test]
    fn decode_geometry_mismatch_rejected() {
        let code = SdCode::<u8>::new(4, 4, 1, 1, vec![1, 2]).unwrap();
        let h = code.parity_check_matrix();
        let exec = executor(1);
        let plan = plan(&h, &FailureScenario::new(vec![2]), Strategy::PpmAuto);
        let mut wrong = Stripe::zeroed(ppm_codes::StripeLayout::new(3, 3), 64);
        let err = exec.decode(&plan, &mut wrong).unwrap_err();
        assert!(matches!(err, DecodeError::GeometryMismatch { .. }));
    }

    /// A restricted (degraded-read) plan recovers exactly the wanted
    /// sectors and leaves the rest erased.
    #[test]
    fn restricted_plan_decodes_wanted_sectors() {
        let code = SdCode::<u8>::new(4, 4, 1, 1, vec![1, 2]).unwrap();
        let h = code.parity_check_matrix();
        let sc = FailureScenario::new(vec![2, 6, 10, 13, 14]);
        let exec = executor(2);
        let mut rng = StdRng::seed_from_u64(91);
        let mut stripe = random_data_stripe(&code, 64, &mut rng);
        encode(&code, &exec, &mut stripe).unwrap();
        let pristine = stripe.clone();

        let full = plan(&h, &sc, Strategy::PpmNormalRest);
        for wanted in [vec![2usize], vec![13], vec![6, 14]] {
            let plan = full.restrict_to(&wanted).unwrap();
            let mut broken = pristine.clone();
            broken.erase(&sc);
            let stats = exec.decode(&plan, &mut broken).unwrap();
            assert!(stats.matches_prediction(), "wanted {wanted:?}");
            for &w in &wanted {
                assert_eq!(broken.sector(w), pristine.sector(w), "wanted {w}");
            }
            // Unwanted, non-input faulty sectors stay erased. b14 is never
            // an input, so check it when it isn't requested.
            if !wanted.contains(&14) && !plan.faulty().contains(&14) {
                assert!(broken.sector(14).iter().all(|&b| b == 0));
            }
        }
    }

    #[test]
    fn verify_pass_is_clean_after_decode_and_flags_corruption() {
        let code = SdCode::<u8>::new(4, 4, 1, 1, vec![1, 2]).unwrap();
        let h = code.parity_check_matrix();
        // Two faulty sectors leave 3 of the 5 parity rows surplus.
        let sc = FailureScenario::new(vec![2, 6]);
        let exec = executor(2);
        let mut rng = StdRng::seed_from_u64(17);
        let mut stripe = random_data_stripe(&code, 64, &mut rng);
        encode(&code, &exec, &mut stripe).unwrap();
        stripe.erase(&sc);
        let plan = plan(&h, &sc, Strategy::PpmAuto);
        exec.decode(&plan, &mut stripe).unwrap();

        let report = exec.verify(&plan, &stripe).unwrap();
        assert_eq!(report.rows_checked, plan.verify_rows());
        assert!(report.clean(), "{:?}", report.violated_rows);
        // Executed verify cost equals the plan's surplus-row prediction.
        assert_eq!(report.stats.mult_xors, plan.verify_mult_xors() as u64);

        // Corrupt a *surviving* sector: the pass must notice.
        stripe.sector_mut(0)[5] ^= 0x40;
        let report = exec.verify(&plan, &stripe).unwrap();
        assert!(!report.clean());
        assert!(report
            .violated_rows
            .iter()
            .all(|r| plan.surplus_row_indices().contains(r)));
    }

    #[test]
    fn verify_errors_are_structured() {
        let code = SdCode::<u8>::new(4, 4, 1, 1, vec![1, 2]).unwrap();
        let h = code.parity_check_matrix();
        let sc = FailureScenario::new(vec![2, 6]);
        let exec = executor(1);
        let plan = plan(&h, &sc, Strategy::PpmNormalRest);

        // Restricted plans cannot verify.
        let restricted = plan.restrict_to(&[2]).unwrap();
        let stripe = Stripe::zeroed(code.layout(), 64);
        assert_eq!(
            exec.verify(&restricted, &stripe).unwrap_err(),
            DecodeError::VerificationUnavailable
        );

        // Wrong-geometry stripes are rejected, not sliced.
        let wrong = Stripe::zeroed(ppm_codes::StripeLayout::new(3, 3), 64);
        assert!(matches!(
            exec.verify(&plan, &wrong).unwrap_err(),
            DecodeError::GeometryMismatch { .. }
        ));
    }

    #[test]
    fn parity_consistent_detects_corruption() {
        let code = SdCode::<u8>::new(4, 4, 1, 1, vec![1, 2]).unwrap();
        let exec = executor(1);
        let mut rng = StdRng::seed_from_u64(77);
        let mut stripe = random_data_stripe(&code, 64, &mut rng);
        encode(&code, &exec, &mut stripe).unwrap();
        let h = code.parity_check_matrix();
        assert!(parity_consistent(&h, &stripe, Backend::Scalar));
        stripe.sector_mut(0)[0] ^= 1;
        assert!(!parity_consistent(&h, &stripe, Backend::Scalar));

        // A stripe of another geometry is inconsistent, not a panic.
        let wrong = Stripe::zeroed(ppm_codes::StripeLayout::new(3, 3), 64);
        assert!(!parity_consistent(&h, &wrong, Backend::Scalar));
    }

    #[test]
    fn zero_failures_decode_is_noop() {
        let code = SdCode::<u8>::new(4, 4, 1, 1, vec![1, 2]).unwrap();
        let exec = executor(2);
        let mut rng = StdRng::seed_from_u64(13);
        let mut stripe = random_data_stripe(&code, 64, &mut rng);
        encode(&code, &exec, &mut stripe).unwrap();
        let pristine = stripe.clone();
        let h = code.parity_check_matrix();
        let plan = plan(&h, &FailureScenario::new(vec![]), Strategy::PpmAuto);
        let stats = exec.decode(&plan, &mut stripe).unwrap();
        assert_eq!(stripe, pristine);
        assert_eq!(stats.executed_mult_xors(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        let _ = Executor::new(DecoderConfig {
            threads: 0,
            backend: Backend::Scalar,
        });
    }

    #[test]
    fn default_config_caps_at_four_threads() {
        let c = DecoderConfig::default();
        assert!(c.threads >= 1 && c.threads <= 4);
    }
}
