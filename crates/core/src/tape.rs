//! The lowered form of a plan: flat instruction segments, so repairs
//! replay pure region arithmetic instead of walking a term graph per
//! stripe. A [`DecodePlan`](crate::DecodePlan) *is* these segments plus
//! its verify runs.
//!
//! Lowering happens once per plan, at plan build, and captures
//! everything a term-by-term interpreter would rediscover on every
//! decode:
//!
//! * each independent sub-matrix and the `H_rest` program become one
//!   [`TapeSegment`]: a `Vec<Instr>` of `{kernel, src, dst, op}` records
//!   whose kernels are `Arc`-shared [`RegionMul`] tables from one
//!   [`KernelMap`] per plan (the isa-l `ec_init_tables` pattern — tables
//!   initialized per plan, not per region call);
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
//!   accumulator slot, and the update path's delta plan resolves its
//!   kernels through the same [`KernelMap`] ([`crate::UpdatePlan`]).
//!
//! The fusion rule never reorders terms across destinations — a run is a
//! *consecutive* group sharing one `dst`, in program order — and per-byte
//! XOR accumulation is order-independent, so a tape computes exactly the
//! plan's `F⁻¹ · S · BS`. The cost-model invariant carries over
//! unchanged: the tape holds exactly one instruction per predicted
//! `mult_XORs`, so executed == predicted holds on every decode.
//!
//! Plan build, [`DecodePlan::restrict_to`](crate::DecodePlan::restrict_to) and
//! [`WirePlan::compile`](crate::WirePlan::compile) all end in one
//! validator ([`check_segment`], [`check_verify_run`]), which checks the
//! unzeroed-scratch and slot-bounds invariants in every build profile: a
//! plan that reaches the executor has passed the same checks whether it
//! was lowered here or decoded from untrusted bytes.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use crate::plan::Program;
use ppm_gf::{Backend, GfWord, RegionMul};
use std::collections::HashMap;
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
#[derive(Clone, Debug)]
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

/// One sub-matrix (an independent `Hᵢ` or `H_rest`) lowered to a flat
/// instruction run with a precomputed scratch layout.
///
/// Slot layout of the single arena reservation, in sector-sized units:
/// slots `0..scratch_slots` are intermediates (`T = S · BS` accumulators
/// of the Normal sequence), slots `scratch_slots..total_slots()` are the
/// recovered outputs. Instructions before `scratch_boundary` write
/// intermediate slots reading only stripe sectors; instructions after it
/// write output slots reading sectors or intermediates — so the executor
/// can split the reservation once and never alias a live borrow.
#[derive(Clone, Debug)]
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

    /// The stripe sectors this segment recovers.
    pub(crate) fn output_sectors(&self) -> impl Iterator<Item = usize> + '_ {
        self.outputs.iter().map(|&(_, sector)| sector)
    }

    /// Every stripe sector the segment reads.
    pub(crate) fn sector_sources(&self) -> impl Iterator<Item = usize> + '_ {
        self.instrs.iter().filter_map(|i| match i.src {
            Loc::Sector(s) => Some(s),
            Loc::Slot(_) => None,
        })
    }

    /// The segment reduced to the outputs whose sector satisfies `keep`,
    /// or `None` when it keeps none: instructions for dropped outputs
    /// and for `T` slots no kept output reads are removed, and the live
    /// slots are renumbered in their original order. That is exactly the
    /// layout lowering the pruned term program would produce, and the
    /// kernels stay `Arc`-shared with this segment.
    pub(crate) fn pruned(&self, keep: impl Fn(usize) -> bool) -> Option<TapeSegment<W>> {
        let kept: Vec<(usize, usize)> = self
            .outputs
            .iter()
            .copied()
            .filter(|&(_, sector)| keep(sector))
            .collect();
        if kept.is_empty() {
            return None;
        }
        let mut live = vec![false; self.total_slots()];
        for &(slot, _) in &kept {
            if let Some(l) = live.get_mut(slot) {
                *l = true;
            }
        }
        let output_section = self.instrs.get(self.scratch_boundary..).unwrap_or_default();
        for instr in output_section {
            if let (Some(true), Loc::Slot(e)) = (live.get(instr.dst).copied(), instr.src) {
                if let Some(l) = live.get_mut(e) {
                    *l = true;
                }
            }
        }
        let mut slot_map = vec![None; live.len()];
        let mut next = 0;
        for (new, &l) in slot_map.iter_mut().zip(&live) {
            if l {
                *new = Some(next);
                next += 1;
            }
        }
        let scratch_slots = live.iter().take(self.scratch_slots).filter(|&&l| l).count();
        let map = |old: usize| slot_map.get(old).copied().flatten();

        let mut instrs = Vec::new();
        let mut scratch_boundary = 0;
        for (i, instr) in self.instrs.iter().enumerate() {
            let Some(dst) = map(instr.dst) else { continue };
            if i < self.scratch_boundary {
                scratch_boundary += 1;
            }
            // A kept instruction reads only live slots; an unmapped one
            // becomes out of range, which validation rejects.
            let src = match instr.src {
                Loc::Slot(e) => Loc::Slot(map(e).unwrap_or(usize::MAX)),
                sector => sector,
            };
            instrs.push(Instr {
                kernel: Arc::clone(&instr.kernel),
                src,
                dst,
                op: instr.op,
            });
        }
        Some(TapeSegment {
            instrs,
            scratch_boundary,
            scratch_slots,
            outputs: kept
                .iter()
                .enumerate()
                .map(|(i, &(_, sector))| (scratch_slots + i, sector))
                .collect(),
            zero_slots: self.zero_slots.iter().filter_map(|&s| map(s)).collect(),
        })
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

/// One checked [`RegionMul`] per distinct constant, `Arc`-shared by
/// every instruction that uses it — the one kernel builder of plan
/// lowering, wire compilation and small-write plans.
///
/// Checked construction: each multiplier probes its dispatched kernel
/// against the scalar reference once (at build, not per region op) and
/// demotes itself to scalar on a mismatch, so a faulty SIMD unit
/// degrades throughput instead of bytes.
pub(crate) struct KernelMap<W: GfWord> {
    map: HashMap<u64, Arc<RegionMul<W>>>,
    backend: Backend,
}

impl<W: GfWord> KernelMap<W> {
    /// An empty map building kernels for `backend`.
    pub(crate) fn new(backend: Backend) -> Self {
        KernelMap {
            map: HashMap::new(),
            backend,
        }
    }

    /// The shared kernel for `c`, built on first use.
    pub(crate) fn get(&mut self, c: W) -> Arc<RegionMul<W>> {
        let backend = self.backend;
        Arc::clone(
            self.map
                .entry(c.to_u64())
                .or_insert_with(|| Arc::new(RegionMul::new_checked(c, backend))),
        )
    }
}

/// Checks one segment against every invariant the tape runner's
/// indexing and unzeroed-scratch fast path rely on: section and slot
/// bounds, source ranges, run-head-before-continuation discipline, every
/// slot written by exactly one run head or listed for zeroing, and the
/// canonical output layout (output `i` in slot `scratch_slots + i`).
pub(crate) fn check_segment<W: GfWord>(
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
pub(crate) fn check_verify_run<W: GfWord>(
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
pub(crate) fn emit_run<W: GfWord>(
    instrs: &mut Vec<Instr<W>>,
    dst: usize,
    terms: impl Iterator<Item = (W, Loc)>,
    kernels: &mut KernelMap<W>,
) -> bool {
    let mut emitted = false;
    for (i, (c, src)) in terms.enumerate() {
        emitted = true;
        instrs.push(Instr {
            kernel: kernels.get(c),
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

/// Lowers one sub-matrix's term program to a [`TapeSegment`].
pub(crate) fn lower_program<W: GfWord>(
    program: &Program<W>,
    kernels: &mut KernelMap<W>,
) -> TapeSegment<W> {
    let mut instrs = Vec::new();
    match program {
        Program::MatrixFirst { outputs } => {
            let mut outs = Vec::with_capacity(outputs.len());
            let mut zero_slots = Vec::new();
            for (slot, (sector, terms)) in outputs.iter().enumerate() {
                if !emit_run(
                    &mut instrs,
                    slot,
                    terms.iter().map(|&(c, s)| (c, Loc::Sector(s))),
                    kernels,
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
                    kernels,
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
                    kernels,
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
    use crate::plan::{DecodePlan, Strategy};
    use ppm_codes::{ErasureCode, FailureScenario, SdCode};
    use proptest::prelude::*;

    fn sd_plan(faulty: Vec<usize>) -> DecodePlan<u8> {
        let code = SdCode::<u8>::new(4, 4, 1, 1, vec![1, 2]).unwrap();
        let h = code.parity_check_matrix();
        let sc = FailureScenario::new(faulty);
        DecodePlan::build(&h, &sc, Strategy::PpmNormalRest, Backend::Scalar).unwrap()
    }

    fn paper_plan() -> DecodePlan<u8> {
        sd_plan(vec![2, 6, 10, 13, 14])
    }

    #[test]
    fn compile_preserves_cost_and_structure() {
        let plan = paper_plan();
        let instrs: usize = plan
            .phase_a
            .iter()
            .chain(&plan.phase_b)
            .map(|s| s.instrs.len())
            .sum();
        assert_eq!(instrs, plan.mult_xors());
        assert_eq!(plan.mult_xors(), 29);
        assert_eq!(plan.independent_costs(), vec![3, 3, 3]);
        assert_eq!(plan.rest_cost(), 20);
        assert_eq!(plan.parallelism(), 3);
        assert!(plan.has_phase_b());
        // The worst case consumes every row of H: nothing is left over.
        assert_eq!(plan.verify.as_ref().map(Vec::len), Some(0));
        assert!(plan.rest_splittable(), "Normal H_rest splits");
    }

    /// Every constructor goes through the one validator: a segment that
    /// breaks the run-head discipline or leaves a slot uncovered is a
    /// typed error, in every build profile.
    #[test]
    fn lowered_segments_pass_the_shared_validator() {
        let plan = paper_plan();
        let lower = |i: usize| plan.phase_a[i].clone();
        let validate = |seg: TapeSegment<u8>| {
            DecodePlan::validated(
                vec![seg],
                None,
                None,
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

    /// One kernel per distinct constant, plan-wide: every instruction of
    /// every segment and every verify run using a constant holds the
    /// same `Arc`.
    #[test]
    fn kernels_are_shared_with_the_plan() {
        // b2, b13 and b14 lost: b2 is independent, b13/b14 form H_rest,
        // and two row equations are left over for verification.
        let plan = sd_plan(vec![2, 13, 14]);
        assert!(plan.parallelism() >= 1 && plan.has_phase_b());
        assert!(plan.verify_rows() > 0);
        let mut canon: HashMap<u8, &Arc<RegionMul<u8>>> = HashMap::new();
        let mut instrs = 0;
        for instr in plan
            .phase_a
            .iter()
            .chain(&plan.phase_b)
            .flat_map(|s| &s.instrs)
            .chain(plan.verify.iter().flatten().flat_map(|r| &r.instrs))
        {
            instrs += 1;
            let first = canon
                .entry(instr.kernel.constant())
                .or_insert(&instr.kernel);
            assert!(
                Arc::ptr_eq(first, &instr.kernel),
                "constant {:#x} has two kernels",
                instr.kernel.constant()
            );
        }
        assert!(
            canon.len() > 1 && instrs > canon.len(),
            "kernels are reused"
        );
    }

    #[test]
    fn segment_layout_separates_scratch_from_outputs() {
        let plan = paper_plan();
        for seg in plan.phase_a.iter().chain(&plan.phase_b) {
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
            // f-term scratch indices must point at real T slots; an
            // empty t_terms forces empty f-term lists.
            let f_terms: Vec<(usize, Vec<(u8, usize)>)> = f_terms
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
                .collect();
            let program = Program::Normal {
                t_terms: t_terms.clone(),
                f_terms: f_terms.clone(),
            };
            let seg = lower_program(&program, &mut KernelMap::new(Backend::Scalar));

            let got = runs(&seg.instrs);
            // Expected runs: every destination with at least one term, in
            // program order (T slots first, then outputs).
            let mut expect: Vec<(usize, Vec<(u8, Loc)>)> = Vec::new();
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
            prop_assert_eq!(got, expect);

            // Each destination appears in exactly one maximal run.
            let mut seen = std::collections::HashSet::new();
            for (dst, _) in runs(&seg.instrs) {
                prop_assert!(seen.insert(dst), "destination {} split across runs", dst);
            }
        }
    }
}
