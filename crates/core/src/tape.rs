//! Compiled plan tapes: a [`DecodePlan`] lowered to flat instruction
//! lists, so repairs replay pure region arithmetic instead of walking
//! the plan's term graph per stripe.
//!
//! Lowering happens once per plan, at plan build ([`DecodePlan::tape`]),
//! and captures everything a term-by-term interpreter would rediscover
//! on every decode:
//!
//! * each phase-A sub-plan and the phase-B `H_rest` program become one
//!   [`TapeSegment`]: a `Vec<Instr>` of `{kernel, src, dst, op}` records
//!   whose kernels are `Arc`-shared [`RegionMul`] tables (the isa-l
//!   `ec_init_tables` pattern — tables initialized per plan, not per
//!   region call);
//! * the segment's scratch layout is precomputed: slot counts are fixed
//!   at compile time, so execution makes **one** arena reservation per
//!   segment and slices it;
//! * consecutive `mult_XORs` sharing a destination are fused into one
//!   multi-source accumulate ([`ppm_gf::mul_copy_fused`]): the first
//!   instruction of a run is [`OpCode::MulCopy`] — an *overwrite*, since
//!   every slot is written by exactly one run and the compiler knows its
//!   first touch — continuations are [`OpCode::MulXorFusedCont`], and
//!   the executor applies the whole run block-by-block so the
//!   destination is written from cache rather than streamed from memory
//!   once per term. Overwriting heads let the executor take *unzeroed*
//!   scratch ([`crate::ScratchArena::take_dirty`]);
//! * surplus verify rows lower to per-row fused runs into a single
//!   accumulator slot, and the update path's delta plan is lowered
//!   analogously by [`crate::UpdatePlan`] into per-column patch lists.
//!
//! The fusion rule never reorders terms across destinations — a run is a
//! *consecutive* group sharing one `dst`, in program order — and per-byte
//! XOR accumulation is order-independent, so a tape computes exactly the
//! plan's `F⁻¹ · S · BS`. The cost-model invariant carries over
//! unchanged: the tape holds exactly one instruction per predicted
//! `mult_XORs`, so executed == predicted holds on every decode.
//!
//! In-process lowering and [`WirePlan::compile`](crate::WirePlan::compile)
//! both finish in [`PlanTape::validated`], which checks the unzeroed-
//! scratch and slot-bounds invariants in every build profile: a tape
//! that reaches the executor has passed the same checks whether it was
//! lowered here or decoded from untrusted bytes.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use crate::plan::{DecodePlan, Program, RegionCache, Strategy, SubPlan};
use crate::DecodeError;
use ppm_gf::{GfWord, RegionMul};
use std::sync::Arc;

/// Where a tape instruction reads from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Loc {
    /// A stripe sector (a surviving input, or for verify runs any sector
    /// of the reconstructed stripe).
    Sector(usize),
    /// A scratch slot of the segment's single arena reservation.
    Slot(usize),
}

/// What an instruction does with its kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum OpCode {
    /// `slot[dst] = kernel · src`, starting a new destination run. The
    /// head *overwrites*: every slot is written by exactly one run, so
    /// the compiler knows this is the slot's first touch — the executor
    /// can take unzeroed scratch and skip the arena's zeroing sweep.
    MulCopy,
    /// Continuation of the run started by the nearest preceding
    /// [`OpCode::MulCopy`]: `slot[dst] ^= kernel · src`, same
    /// destination, folded by the executor into one fused multi-source
    /// accumulate.
    MulXorFusedCont,
}

/// One lowered `mult_XORs`: `slot[dst] (^)= kernel · src`.
#[derive(Debug)]
pub(crate) struct Instr<W: GfWord> {
    /// Shared multiply-by-constant kernel (tables built once per plan).
    pub(crate) kernel: Arc<RegionMul<W>>,
    /// Source region.
    pub(crate) src: Loc,
    /// Destination slot in the segment's reservation.
    pub(crate) dst: usize,
    /// Run-start or fused continuation.
    pub(crate) op: OpCode,
}

/// One sub-plan (an independent `Hᵢ` or `H_rest`) lowered to a flat
/// instruction run with a precomputed scratch layout.
///
/// Slot layout of the single arena reservation, in sector-sized units:
/// slots `0..scratch_slots` are intermediates (`T = S · BS` accumulators
/// of the Normal sequence), slots `scratch_slots..total_slots()` are the
/// recovered outputs. Instructions before `scratch_boundary` write
/// intermediate slots reading only stripe sectors; instructions after it
/// write output slots reading sectors or intermediates — so the executor
/// can split the reservation once and never alias a live borrow.
#[derive(Debug)]
pub(crate) struct TapeSegment<W: GfWord> {
    /// Instructions in execution order.
    pub(crate) instrs: Vec<Instr<W>>,
    /// Index into `instrs` where the output-writing section starts.
    pub(crate) scratch_boundary: usize,
    /// Number of intermediate slots.
    pub(crate) scratch_slots: usize,
    /// Per output: its absolute slot index and the stripe sector it
    /// installs to. Output `i` lives in slot `scratch_slots + i`.
    pub(crate) outputs: Vec<(usize, usize)>,
    /// Slots whose term list lowered to nothing (degenerate all-zero
    /// rows): no run writes them, so the executor must zero them
    /// explicitly — the reservation is otherwise taken unzeroed.
    pub(crate) zero_slots: Vec<usize>,
}

impl<W: GfWord> TapeSegment<W> {
    /// Sector-sized slots in the segment's reservation.
    pub(crate) fn total_slots(&self) -> usize {
        self.scratch_slots + self.outputs.len()
    }
}

/// One surplus parity-check row lowered to a fused run accumulating the
/// row's check value into a single scratch slot.
#[derive(Debug)]
pub(crate) struct VerifyRun<W: GfWord> {
    /// Global `H` row index (reported on violation).
    pub(crate) row: usize,
    /// The row's terms, all targeting slot 0.
    pub(crate) instrs: Vec<Instr<W>>,
}

/// A decode plan compiled to linear instruction tapes — the one
/// executable form of a plan, whether it was lowered in-process from a
/// [`DecodePlan`] ([`DecodePlan::tape`]) or received over the wire
/// ([`WirePlan::compile`](crate::WirePlan::compile)).
///
/// Both constructors end in the same validator, so every tape the
/// [`Executor`](crate::Executor) runs has passed the checks its
/// unzeroed-scratch fast path relies on. Compilation preserves the
/// §III-B cost model exactly: one instruction per predicted `mult_XORs`.
#[derive(Debug)]
pub struct PlanTape<W: GfWord> {
    /// One segment per independent sub-matrix (parallel in phase A).
    pub(crate) phase_a: Vec<TapeSegment<W>>,
    /// The `H_rest` segment, run after phase-A outputs install.
    pub(crate) phase_b: Option<TapeSegment<W>>,
    /// Surplus verify rows (empty for restricted plans).
    pub(crate) verify: Vec<VerifyRun<W>>,
    faulty: Vec<usize>,
    total_sectors: usize,
    strategy: Strategy,
    mult_xors: usize,
    verify_mult_xors: usize,
    rest_splittable: bool,
}

impl<W: GfWord> PlanTape<W> {
    /// The empty tape: no segments, no verify rows, no sectors — the
    /// placeholder a plan holds until it is compiled.
    pub(crate) fn empty() -> Self {
        PlanTape {
            phase_a: Vec::new(),
            phase_b: None,
            verify: Vec::new(),
            faulty: Vec::new(),
            total_sectors: 0,
            strategy: Strategy::PpmAuto,
            mult_xors: 0,
            verify_mult_xors: 0,
            rest_splittable: false,
        }
    }

    /// Lowers `plan` and validates the result. A lowering that breaks an
    /// execution invariant, or changes the plan's predicted cost, is a
    /// [`RepairError::MalformedTape`](crate::RepairError::MalformedTape)
    /// from plan build rather than a panic on the data path.
    pub(crate) fn compile(plan: &DecodePlan<W>) -> Result<Self, DecodeError> {
        let phase_a = plan
            .phase_a
            .iter()
            .map(|sp| lower_subplan(sp, &plan.regions))
            .collect();
        let phase_b = plan
            .phase_b
            .as_ref()
            .map(|sp| lower_subplan(sp, &plan.regions));
        let verify = plan
            .surplus
            .as_deref()
            .unwrap_or_default()
            .iter()
            .map(|(row, terms)| {
                let mut instrs = Vec::with_capacity(terms.len());
                emit_run(
                    &mut instrs,
                    0,
                    terms.iter().map(|&(c, s)| (c, Loc::Sector(s))),
                    &plan.regions,
                );
                VerifyRun { row: *row, instrs }
            })
            .collect();
        let tape = PlanTape::validated(
            phase_a,
            phase_b,
            verify,
            plan.faulty().to_vec(),
            plan.total_sectors(),
            plan.strategy(),
        )
        .map_err(DecodeError::MalformedTape)?;
        if tape.mult_xors != plan.mult_xors() {
            return Err(DecodeError::MalformedTape(
                "lowering changed the predicted mult_XORs",
            ));
        }
        Ok(tape)
    }

    /// Assembles a tape from its parts after checking every invariant
    /// the executor relies on: per-segment slot bounds, run-head
    /// discipline and full slot coverage ([`check_segment`]), verify-run
    /// shape ([`check_verify_run`]), and that the outputs recover each
    /// declared faulty sector at most once. The one validator behind
    /// both in-process lowering and [`WirePlan::compile`](crate::WirePlan::compile).
    pub(crate) fn validated(
        phase_a: Vec<TapeSegment<W>>,
        phase_b: Option<TapeSegment<W>>,
        verify: Vec<VerifyRun<W>>,
        faulty: Vec<usize>,
        total_sectors: usize,
        strategy: Strategy,
    ) -> Result<Self, &'static str> {
        if faulty.windows(2).any(|w| w.first() >= w.get(1)) {
            return Err("faulty set not sorted and unique");
        }
        if faulty.iter().any(|&s| s >= total_sectors) {
            return Err("faulty sector out of range");
        }
        for seg in phase_a.iter().chain(&phase_b) {
            check_segment(seg, total_sectors)?;
        }
        for run in &verify {
            check_verify_run(run, total_sectors)?;
        }
        // Every output sector must be one of the declared faulty
        // sectors, and no sector may be produced twice.
        let mut produced: Vec<usize> = phase_a
            .iter()
            .chain(&phase_b)
            .flat_map(|seg| seg.outputs.iter().map(|&(_, sector)| sector))
            .collect();
        produced.sort_unstable();
        if produced.windows(2).any(|w| w.first() == w.get(1)) {
            return Err("sector produced by two segments");
        }
        if produced.iter().any(|s| faulty.binary_search(s).is_err()) {
            return Err("output sector not in faulty set");
        }

        let mult_xors = phase_a.iter().map(|s| s.instrs.len()).sum::<usize>()
            + phase_b.as_ref().map_or(0, |s| s.instrs.len());
        let verify_mult_xors = verify.iter().map(|r| r.instrs.len()).sum();
        let rest_splittable = phase_b.as_ref().is_some_and(|seg| {
            seg.instrs
                .get(seg.scratch_boundary..)
                .is_some_and(|outs| outs.iter().all(|i| matches!(i.src, Loc::Slot(_))))
        });
        Ok(PlanTape {
            phase_a,
            phase_b,
            verify,
            faulty,
            total_sectors,
            strategy,
            mult_xors,
            verify_mult_xors,
            rest_splittable,
        })
    }

    /// Total decode instructions — equal to the plan's predicted
    /// `mult_XORs`, since every instruction is exactly one region op.
    pub fn mult_xors(&self) -> usize {
        self.mult_xors
    }

    /// Total verify-section instructions — equal to the plan's
    /// [`DecodePlan::verify_mult_xors`].
    pub fn verify_mult_xors(&self) -> usize {
        self.verify_mult_xors
    }

    /// The faulty sectors the tape recovers, ascending.
    pub fn faulty(&self) -> &[usize] {
        &self.faulty
    }

    /// Sectors in the stripe geometry the tape expects.
    pub fn total_sectors(&self) -> usize {
        self.total_sectors
    }

    /// The strategy the plan was built with.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Phase-A parallelism (independent sub-matrix segments).
    pub fn parallelism(&self) -> usize {
        self.phase_a.len()
    }

    /// Whether the tape carries an `H_rest` phase-B segment.
    pub fn has_phase_b(&self) -> bool {
        self.phase_b.is_some()
    }

    /// Surplus verify rows carried by the tape.
    pub fn verify_rows(&self) -> usize {
        self.verify.len()
    }

    /// Number of decode segments (phase-A parallelism plus `H_rest`).
    pub fn segments(&self) -> usize {
        self.phase_a.len() + usize::from(self.phase_b.is_some())
    }

    /// Number of fused continuations — instructions folded into a
    /// preceding run instead of streaming the destination again.
    pub fn fused_continuations(&self) -> usize {
        self.phase_a
            .iter()
            .flat_map(|s| &s.instrs)
            .chain(self.phase_b.iter().flat_map(|s| &s.instrs))
            .filter(|i| i.op == OpCode::MulXorFusedCont)
            .count()
    }

    /// Whether phase B splits across nodes: true when every output-
    /// section instruction of `H_rest` reads intermediate `T` slots only
    /// (the Normal sequence), so a survivor host can compute the
    /// partial-sum `T` blocks from its local sectors and ship *those* —
    /// `z_b` blocks — instead of whole surviving sectors, and the
    /// aggregator finishes `F⁻¹ · T` without ever seeing the stripe.
    /// False for a matrix-first `H_rest`, which reads sectors directly.
    pub fn rest_splittable(&self) -> bool {
        self.rest_splittable
    }

    /// Number of partial-sum (`T`) blocks a split phase B ships — the
    /// scratch slots of the `H_rest` segment (0 without a phase B).
    pub fn rest_scratch_slots(&self) -> usize {
        self.phase_b.as_ref().map_or(0, |seg| seg.scratch_slots)
    }

    /// The sectors phase B recovers (empty without a phase B).
    pub fn rest_outputs(&self) -> Vec<usize> {
        self.phase_b.as_ref().map_or_else(Vec::new, |seg| {
            seg.outputs.iter().map(|&(_, sector)| sector).collect()
        })
    }

    /// The sectors phase A recovers, across all independent segments.
    pub fn phase_a_outputs(&self) -> Vec<usize> {
        self.phase_a
            .iter()
            .flat_map(|seg| seg.outputs.iter().map(|&(_, sector)| sector))
            .collect()
    }
}

/// Checks one segment against every invariant the tape runner's
/// indexing and unzeroed-scratch fast path rely on: section and slot
/// bounds, source ranges, run-head-before-continuation discipline, every
/// slot written by exactly one run head or listed for zeroing, and the
/// canonical output layout (output `i` in slot `scratch_slots + i`).
fn check_segment<W: GfWord>(
    seg: &TapeSegment<W>,
    total_sectors: usize,
) -> Result<(), &'static str> {
    let scratch_slots = seg.scratch_slots;
    let total_slots = seg.total_slots();
    if seg.scratch_boundary > seg.instrs.len() {
        return Err("scratch boundary past segment end");
    }
    // Each slot needs its own run head or zero-list entry, so a layout
    // with more slots than both together cannot be covered. Checking
    // before allocating keeps a hostile slot count from sizing the
    // coverage map below.
    if total_slots > seg.instrs.len() + seg.zero_slots.len() {
        return Err("a slot is neither written nor zeroed");
    }

    let mut written = vec![false; total_slots];
    let mut prev_dst: Option<usize> = None;
    for (i, instr) in seg.instrs.iter().enumerate() {
        let dst = instr.dst;
        if i < seg.scratch_boundary {
            if dst >= scratch_slots {
                return Err("scratch-section write past T slots");
            }
            if !matches!(instr.src, Loc::Sector(_)) {
                return Err("scratch section reads a slot");
            }
        } else if dst < scratch_slots || dst >= total_slots {
            return Err("output-section write out of range");
        }
        match instr.src {
            Loc::Sector(s) if s >= total_sectors => return Err("source sector out of range"),
            Loc::Slot(e) if e >= scratch_slots => return Err("source slot out of range"),
            _ => {}
        }
        match instr.op {
            // A continuation extends the run immediately before it; the
            // runner folds a maximal head+continuations group into one
            // fused accumulate, so the destination must match and the
            // run may not straddle the section boundary.
            OpCode::MulXorFusedCont => {
                if prev_dst != Some(dst) || i == seg.scratch_boundary {
                    return Err("continuation without its run head");
                }
            }
            OpCode::MulCopy => {
                let slot = written.get_mut(dst).ok_or("run head out of range")?;
                if *slot {
                    return Err("slot written by two run heads");
                }
                *slot = true;
            }
        }
        prev_dst = Some(dst);
    }

    for &slot in &seg.zero_slots {
        let flag = written.get_mut(slot).ok_or("zero slot out of range")?;
        if *flag {
            return Err("zero slot also written by a run");
        }
        *flag = true;
    }
    if !written.iter().all(|&w| w) {
        return Err("a slot is neither written nor zeroed");
    }

    for (i, &(slot, sector)) in seg.outputs.iter().enumerate() {
        if slot != scratch_slots + i {
            return Err("non-canonical output slot layout");
        }
        if sector >= total_sectors {
            return Err("output sector out of range");
        }
    }
    Ok(())
}

/// Checks one verify run: a single fused run into slot 0 — head first,
/// continuations after — reading in-range stripe sectors only.
fn check_verify_run<W: GfWord>(
    run: &VerifyRun<W>,
    total_sectors: usize,
) -> Result<(), &'static str> {
    for (i, instr) in run.instrs.iter().enumerate() {
        match instr.src {
            Loc::Slot(_) => return Err("verify run reads a scratch slot"),
            Loc::Sector(s) if s >= total_sectors => {
                return Err("verify source sector out of range")
            }
            Loc::Sector(_) => {}
        }
        if instr.dst != 0 {
            return Err("verify run writes a non-zero slot");
        }
        if (instr.op == OpCode::MulCopy) != (i == 0) {
            return Err("verify run head/continuation order");
        }
    }
    Ok(())
}

/// Emits one destination's terms as a fused run: first instruction
/// [`OpCode::MulCopy`] (the overwriting head), continuations
/// [`OpCode::MulXorFusedCont`]. Term order within the run is exactly
/// the program's term order; runs for distinct destinations are never
/// interleaved. Returns whether anything was emitted — an empty term
/// list produces no run, and the caller must record the destination as
/// a zero slot.
fn emit_run<W: GfWord>(
    instrs: &mut Vec<Instr<W>>,
    dst: usize,
    terms: impl Iterator<Item = (W, Loc)>,
    regions: &RegionCache<W>,
) -> bool {
    let mut emitted = false;
    for (i, (c, src)) in terms.enumerate() {
        emitted = true;
        instrs.push(Instr {
            kernel: regions.get_arc(c),
            src,
            dst,
            op: if i == 0 {
                OpCode::MulCopy
            } else {
                OpCode::MulXorFusedCont
            },
        });
    }
    emitted
}

/// Lowers one sub-plan to a [`TapeSegment`].
pub(crate) fn lower_subplan<W: GfWord>(
    sp: &SubPlan<W>,
    regions: &RegionCache<W>,
) -> TapeSegment<W> {
    let mut instrs = Vec::new();
    match &sp.program {
        Program::MatrixFirst { outputs } => {
            let mut outs = Vec::with_capacity(outputs.len());
            let mut zero_slots = Vec::new();
            for (slot, (sector, terms)) in outputs.iter().enumerate() {
                if !emit_run(
                    &mut instrs,
                    slot,
                    terms.iter().map(|&(c, s)| (c, Loc::Sector(s))),
                    regions,
                ) {
                    zero_slots.push(slot);
                }
                outs.push((slot, *sector));
            }
            TapeSegment {
                instrs,
                scratch_boundary: 0,
                scratch_slots: 0,
                outputs: outs,
                zero_slots,
            }
        }
        Program::Normal { t_terms, f_terms } => {
            let scratch_slots = t_terms.len();
            let mut zero_slots = Vec::new();
            for (slot, terms) in t_terms.iter().enumerate() {
                if !emit_run(
                    &mut instrs,
                    slot,
                    terms.iter().map(|&(c, s)| (c, Loc::Sector(s))),
                    regions,
                ) {
                    zero_slots.push(slot);
                }
            }
            let scratch_boundary = instrs.len();
            let mut outs = Vec::with_capacity(f_terms.len());
            for (i, (sector, terms)) in f_terms.iter().enumerate() {
                let slot = scratch_slots + i;
                if !emit_run(
                    &mut instrs,
                    slot,
                    terms.iter().map(|&(c, e)| (c, Loc::Slot(e))),
                    regions,
                ) {
                    zero_slots.push(slot);
                }
                outs.push((slot, *sector));
            }
            TapeSegment {
                instrs,
                scratch_boundary,
                scratch_slots,
                outputs: outs,
                zero_slots,
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
mod tests {
    use super::*;
    use ppm_codes::{ErasureCode, FailureScenario, SdCode};
    use ppm_gf::Backend;
    use proptest::prelude::*;

    fn paper_plan() -> DecodePlan<u8> {
        let code = SdCode::<u8>::new(4, 4, 1, 1, vec![1, 2]).unwrap();
        let h = code.parity_check_matrix();
        let sc = FailureScenario::new(vec![2, 6, 10, 13, 14]);
        DecodePlan::build(
            &h,
            &sc,
            crate::plan::Strategy::PpmNormalRest,
            Backend::Scalar,
        )
        .unwrap()
    }

    #[test]
    fn compile_preserves_cost_and_structure() {
        let plan = paper_plan();
        let tape = plan.tape();
        assert_eq!(tape.mult_xors(), plan.mult_xors());
        assert_eq!(tape.mult_xors(), 29);
        assert_eq!(tape.verify_mult_xors(), plan.verify_mult_xors());
        assert_eq!(tape.phase_a.len(), plan.parallelism());
        assert_eq!(tape.phase_b.is_some(), plan.has_phase_b());
        assert_eq!(tape.verify.len(), plan.verify_rows());
        assert_eq!(tape.faulty(), plan.faulty());
        assert_eq!(tape.total_sectors(), plan.total_sectors());
        assert!(tape.rest_splittable(), "Normal H_rest splits");
    }

    /// In-process lowering goes through the same validator as wire
    /// plans: a lowered segment that breaks the run-head discipline or
    /// leaves a slot uncovered is a typed error, in every build profile.
    #[test]
    fn lowered_segments_pass_the_shared_validator() {
        let plan = paper_plan();
        let lower = |i: usize| lower_subplan(&plan.phase_a[i], &plan.regions);
        let validate = |seg: TapeSegment<u8>| {
            PlanTape::validated(
                vec![seg],
                None,
                Vec::new(),
                plan.faulty().to_vec(),
                plan.total_sectors(),
                plan.strategy(),
            )
            .map(|_| ())
        };
        assert_eq!(validate(lower(0)), Ok(()));

        let mut headless = lower(0);
        headless.instrs[0].op = OpCode::MulXorFusedCont;
        assert_eq!(validate(headless), Err("continuation without its run head"));

        let mut uncovered = lower(0);
        uncovered.instrs.clear();
        assert_eq!(
            validate(uncovered),
            Err("a slot is neither written nor zeroed")
        );

        let mut out_of_range = lower(0);
        out_of_range.instrs[0].src = Loc::Sector(plan.total_sectors());
        assert_eq!(validate(out_of_range), Err("source sector out of range"));
    }

    #[test]
    fn kernels_are_shared_with_the_plan() {
        let plan = paper_plan();
        let tape = plan.tape();
        for instr in tape
            .phase_a
            .iter()
            .flat_map(|s| &s.instrs)
            .chain(tape.phase_b.iter().flat_map(|s| &s.instrs))
        {
            let owned = plan.regions.get_arc(instr.kernel.constant());
            assert!(
                Arc::ptr_eq(&instr.kernel, &owned),
                "instruction kernel must share the plan's table"
            );
        }
    }

    #[test]
    fn segment_layout_separates_scratch_from_outputs() {
        let plan = paper_plan();
        let tape = plan.tape();
        for seg in tape.phase_a.iter().chain(&tape.phase_b) {
            for (i, instr) in seg.instrs.iter().enumerate() {
                if i < seg.scratch_boundary {
                    assert!(instr.dst < seg.scratch_slots);
                    assert!(matches!(instr.src, Loc::Sector(_)));
                } else {
                    assert!(instr.dst >= seg.scratch_slots);
                    assert!(instr.dst < seg.total_slots());
                    if let Loc::Slot(e) = instr.src {
                        assert!(e < seg.scratch_slots);
                    }
                }
            }
        }
    }

    /// Splits a segment's instruction list into its maximal same-`dst`
    /// runs, checking the opcode discipline along the way.
    fn runs(instrs: &[Instr<u8>]) -> Vec<(usize, Vec<(u8, Loc)>)> {
        let mut out: Vec<(usize, Vec<(u8, Loc)>)> = Vec::new();
        for instr in instrs {
            match instr.op {
                OpCode::MulCopy => {
                    out.push((instr.dst, vec![(instr.kernel.constant(), instr.src)]));
                }
                OpCode::MulXorFusedCont => {
                    let last = out.last_mut().expect("continuation without a run start");
                    assert_eq!(last.0, instr.dst, "continuation switched destination");
                    last.1.push((instr.kernel.constant(), instr.src));
                }
            }
        }
        out
    }

    /// Strategy: a small Normal program — per-destination term lists with
    /// non-zero coefficients over a handful of sources.
    fn term_lists(
        max_dests: usize,
    ) -> impl proptest::strategy::Strategy<Value = Vec<Vec<(u8, usize)>>> {
        proptest::collection::vec(
            proptest::collection::vec((1u8..=255, 0usize..8), 0..5),
            0..max_dests,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Fusion never reorders terms across distinct destinations: the
        /// lowered tape is exactly one contiguous run per destination, in
        /// program order, with each run's terms in program order.
        #[test]
        fn fusion_preserves_program_order(
            t_terms in term_lists(4),
            f_terms in term_lists(4),
        ) {
            let scratch = t_terms.len();
            let program = Program::Normal {
                t_terms: t_terms.clone(),
                // f-term scratch indices must point at real T slots; an
                // empty t_terms forces empty f-term lists.
                f_terms: f_terms
                    .iter()
                    .enumerate()
                    .map(|(i, terms)| {
                        let terms = if scratch == 0 {
                            Vec::new()
                        } else {
                            terms.iter().map(|&(c, e)| (c, e % scratch)).collect()
                        };
                        (100 + i, terms)
                    })
                    .collect(),
            };
            let regions = RegionCache::build(
                program_coeffs(&program).into_iter(),
                Backend::Scalar,
            );
            let seg = lower_subplan(&SubPlan { program: program.clone() }, &regions);

            let got = runs(&seg.instrs);
            // Expected runs: every destination with at least one term, in
            // program order (T slots first, then outputs).
            let mut expect: Vec<(usize, Vec<(u8, Loc)>)> = Vec::new();
            if let Program::Normal { t_terms, f_terms } = &program {
                for (slot, terms) in t_terms.iter().enumerate() {
                    if !terms.is_empty() {
                        expect.push((
                            slot,
                            terms.iter().map(|&(c, s)| (c, Loc::Sector(s))).collect(),
                        ));
                    }
                }
                for (i, (_, terms)) in f_terms.iter().enumerate() {
                    if !terms.is_empty() {
                        expect.push((
                            scratch + i,
                            terms.iter().map(|&(c, e)| (c, Loc::Slot(e))).collect(),
                        ));
                    }
                }
            }
            prop_assert_eq!(got, expect);

            // Each destination appears in exactly one maximal run.
            let mut seen = std::collections::HashSet::new();
            for (dst, _) in runs(&seg.instrs) {
                prop_assert!(seen.insert(dst), "destination {} split across runs", dst);
            }
        }
    }

    /// All coefficients of a program, for building a region cache.
    fn program_coeffs(program: &Program<u8>) -> Vec<u8> {
        match program {
            Program::MatrixFirst { outputs } => outputs
                .iter()
                .flat_map(|(_, t)| t.iter().map(|&(c, _)| c))
                .collect(),
            Program::Normal { t_terms, f_terms } => t_terms
                .iter()
                .flatten()
                .map(|&(c, _)| c)
                .chain(f_terms.iter().flat_map(|(_, t)| t.iter().map(|&(c, _)| c)))
                .collect(),
        }
    }
}
