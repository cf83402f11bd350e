//! The execution half of the planner/executor split: runs plans against
//! locally held sectors.
//!
//! An [`Executor`] owns everything a decode's *data path* needs — the
//! bounded thread pool for the paper's intra-stripe parallelism, the
//! serial lane inter-stripe workers decode on, and the [`ScratchArena`]
//! of recycled buffers — and nothing the *planning* path needs: no code,
//! no parity-check matrix, no plan cache. It can therefore run on a
//! machine that has never seen the code, executing plans a coordinator
//! sent over as [`WirePlan`](crate::WirePlan)s, or serve as the
//! in-process engine behind [`RepairService`](crate::RepairService).
//!
//! Every entry point takes a [`DecodePlan`] — built in-process or
//! compiled from a wire plan, the same type either way — and replays its
//! instruction segments through the one runner in [`crate::exec`]:
//! [`Executor::decode`] and [`Executor::verify`] run the whole plan.
//!
//! The cluster-facing entry points implement *partial-block repair*:
//! [`Executor::wire_partials`] runs the phase-A segments locally and,
//! when the plan's `H_rest` is splittable (the Normal sequence), computes
//! only the partial-sum `T` blocks for shipment — `z_b` sector-sized
//! blocks instead of the `n − z` surviving sectors a naive repair would
//! move. The aggregating side finishes `F⁻¹ · T` with
//! [`Executor::finish_rest`] without ever holding the stripe.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use crate::arena::ScratchArena;
use crate::exec::{
    install_tape_outputs, run_tape_section, run_tape_segment, run_verify_runs, DecoderConfig,
    VerifyReport,
};
use crate::plan::DecodePlan;
use crate::stats::{ExecStats, SubPlanStats};
use crate::tape::Loc;
use crate::DecodeError;
use ppm_gf::GfWord;
use ppm_stripe::Stripe;
use rayon::prelude::*;
use std::time::Instant;

/// The data-path half of a repair session: thread pool, serial lane and
/// scratch arena. See the module docs.
pub struct Executor {
    config: DecoderConfig,
    /// Pool for phase A's independent segments; `None` when
    /// `config.threads == 1`.
    pool: Option<rayon::ThreadPool>,
    arena: ScratchArena,
}

/// Per-phase executed work of one plan run.
struct PhaseStats {
    phase_a: Vec<SubPlanStats>,
    phase_a_nanos: u128,
    phase_b: Option<SubPlanStats>,
}

impl Executor {
    /// Creates an executor with an empty arena; builds its thread pool
    /// when `threads > 1`.
    ///
    /// # Panics
    /// Panics if `threads` is zero or the pool cannot be created. This is
    /// the one deliberate panic in the module: a zero-thread executor is
    /// a configuration bug, not a data-path fault.
    #[allow(clippy::expect_used)]
    pub fn new(config: DecoderConfig) -> Self {
        assert!(config.threads > 0, "executor needs at least one thread");
        let pool = (config.threads > 1).then(|| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(config.threads)
                .thread_name(|i| format!("ppm-decode-{i}"))
                .build()
                .expect("thread pool creation")
        });
        Executor {
            config,
            pool,
            arena: ScratchArena::new(),
        }
    }

    /// The configuration this executor was built with.
    pub fn config(&self) -> DecoderConfig {
        self.config
    }

    /// The executor's scratch-buffer arena.
    pub fn arena(&self) -> &ScratchArena {
        &self.arena
    }

    /// Decodes one stripe in place, overwriting the faulty sectors with
    /// their recovered contents: phase A's independent segments run on
    /// the thread pool (the paper's intra-stripe parallelism), then the
    /// `H_rest` segment. Scratch comes from the arena, so a warm decode
    /// performs no heap allocation on the data path.
    ///
    /// Returns [`ExecStats`]: per-segment executed `mult_XORs` / plain-XOR
    /// / byte counts straight from the region kernels, per-phase wall
    /// times, and the plan's predicted costs — the runtime cross-check of
    /// the §III-B cost model.
    ///
    /// # Errors
    /// [`RepairError::GeometryMismatch`](crate::RepairError::GeometryMismatch)
    /// when the stripe does not match the plan.
    pub fn decode<W: GfWord>(
        &self,
        plan: &DecodePlan<W>,
        stripe: &mut Stripe,
    ) -> Result<ExecStats, DecodeError> {
        self.decode_on(self.pool.as_ref(), plan, stripe)
    }

    /// [`Executor::decode`] on the serial lane, for inter-stripe workers:
    /// when each worker owns a whole stripe there is nothing left to
    /// parallelize inside it, and the stats report a budget of 1.
    pub(crate) fn decode_serial<W: GfWord>(
        &self,
        plan: &DecodePlan<W>,
        stripe: &mut Stripe,
    ) -> Result<ExecStats, DecodeError> {
        self.decode_on(None, plan, stripe)
    }

    fn decode_on<W: GfWord>(
        &self,
        pool: Option<&rayon::ThreadPool>,
        plan: &DecodePlan<W>,
        stripe: &mut Stripe,
    ) -> Result<ExecStats, DecodeError> {
        let started = Instant::now();
        let run = self.run_plan(pool, plan, stripe)?;
        Ok(ExecStats {
            strategy: plan.strategy(),
            threads: if pool.is_some() {
                self.config.threads
            } else {
                1
            },
            parallelism: plan.parallelism(),
            predicted_mult_xors: plan.mult_xors(),
            predicted_costs: plan.predicted_costs(),
            cache: None,
            arena: None,
            phase_a: run.phase_a,
            phase_a_nanos: run.phase_a_nanos,
            phase_b: run.phase_b,
            verify: None,
            update: None,
            total_nanos: started.elapsed().as_nanos(),
        })
    }

    /// Runs the surplus-row verification pass: re-evaluates every
    /// parity-check row of `H` the plan did *not* consume as part of `F`
    /// against the (recovered) stripe. The decode satisfies its consumed
    /// rows by construction, so a non-zero surplus row is independent
    /// evidence that a *surviving* input block is corrupt. A plan
    /// compiled from the wire checks the rows it shipped with; with none
    /// the report is vacuously clean (`rows_checked == 0`).
    ///
    /// Each row replays as one fused tape run through the plan's region
    /// kernels, so the executed `mult_XORs` land in
    /// [`VerifyReport::stats`] in the same unit as the decode ledger and
    /// equal [`DecodePlan::verify_mult_xors`] exactly.
    ///
    /// # Errors
    /// [`RepairError::VerificationUnavailable`](crate::RepairError::VerificationUnavailable)
    /// for restricted (degraded-read) plans, and
    /// [`RepairError::GeometryMismatch`](crate::RepairError::GeometryMismatch)
    /// when the stripe does not match the plan. A report with violated
    /// rows is *not* an error here — deciding what to do about it is the
    /// caller's (typically the escalation loop's) job.
    pub fn verify<W: GfWord>(
        &self,
        plan: &DecodePlan<W>,
        stripe: &Stripe,
    ) -> Result<VerifyReport, DecodeError> {
        let Some(runs) = plan.verify.as_deref() else {
            return Err(DecodeError::VerificationUnavailable);
        };
        check_geometry(plan, stripe)?;
        Ok(run_verify_runs(runs, stripe, &self.arena))
    }

    /// The one plan runner: phase A, then the `H_rest` segment.
    fn run_plan<W: GfWord>(
        &self,
        pool: Option<&rayon::ThreadPool>,
        plan: &DecodePlan<W>,
        stripe: &mut Stripe,
    ) -> Result<PhaseStats, DecodeError> {
        check_geometry(plan, stripe)?;
        let started = Instant::now();
        let phase_a = self.run_phase_a(pool, plan, stripe);
        let phase_a_nanos = started.elapsed().as_nanos();
        let phase_b = plan.phase_b.as_ref().map(|seg| {
            let (flat, stats) = run_tape_segment(seg, stripe, &self.arena);
            install_tape_outputs(seg, flat, stripe, &self.arena);
            stats
        });
        Ok(PhaseStats {
            phase_a,
            phase_a_nanos,
            phase_b,
        })
    }

    /// Runs the independent phase-A segments — through `pool` when there
    /// is one and more than one segment, serially otherwise — and
    /// installs their outputs.
    fn run_phase_a<W: GfWord>(
        &self,
        pool: Option<&rayon::ThreadPool>,
        plan: &DecodePlan<W>,
        stripe: &mut Stripe,
    ) -> Vec<SubPlanStats> {
        let arena = &self.arena;
        let shared: &Stripe = stripe;
        let results: Vec<(Vec<u8>, SubPlanStats)> = match pool {
            Some(pool) if plan.phase_a.len() > 1 => pool.install(|| {
                plan.phase_a
                    .par_iter()
                    .map(|seg| run_tape_segment(seg, shared, arena))
                    .collect()
            }),
            _ => plan
                .phase_a
                .iter()
                .map(|seg| run_tape_segment(seg, shared, arena))
                .collect(),
        };
        plan.phase_a
            .iter()
            .zip(results)
            .map(|(seg, (flat, stats))| {
                install_tape_outputs(seg, flat, stripe, arena);
                stats
            })
            .collect()
    }

    /// The survivor side of partial-block repair: runs the plan's phase-A
    /// segments against the locally held stripe (installing their
    /// recovered sectors in place) and then, if the plan's `H_rest` is
    /// [splittable](DecodePlan::rest_splittable), computes only its
    /// partial-sum `T` blocks — the payload that crosses the wire. A
    /// non-splittable `H_rest` (matrix-first, reads sectors directly) is
    /// finished locally instead, so nothing ships either way except when
    /// splitting genuinely pays.
    ///
    /// Returns [`WirePartials`]: `rest_pending == true` means the
    /// aggregator must run [`Executor::finish_rest`] over `rest_blocks`
    /// and send the recovered sectors back; `false` means the stripe is
    /// already fully repaired locally.
    //
    // Slicing is safe by tape validation: the scratch boundary is inside
    // the instruction list, zero slots are inside the reservation, and
    // the scratch region is exactly `scratch_slots` sectors long.
    #[allow(clippy::indexing_slicing)]
    pub fn wire_partials<W: GfWord>(
        &self,
        plan: &DecodePlan<W>,
        stripe: &mut Stripe,
    ) -> Result<WirePartials, DecodeError> {
        let done = WirePartials {
            rest_blocks: Vec::new(),
            rest_pending: false,
        };
        let Some(seg) = plan.phase_b.as_ref().filter(|_| plan.rest_splittable()) else {
            // Nothing to split: run the whole plan here.
            self.run_plan(self.pool.as_ref(), plan, stripe)?;
            return Ok(done);
        };
        check_geometry(plan, stripe)?;
        self.run_phase_a(self.pool.as_ref(), plan, stripe);

        // Splittable H_rest: compute the scratch (T) section only — the
        // sums over locally held sectors. The output section (F⁻¹ · T)
        // belongs to the aggregator.
        let sb = stripe.sector_bytes();
        let mut scratch = self.arena.take_dirty(seg.scratch_slots * sb);
        for &slot in &seg.zero_slots {
            if slot < seg.scratch_slots {
                scratch[slot * sb..(slot + 1) * sb].fill(0);
            }
        }
        run_tape_section(
            &seg.instrs[..seg.scratch_boundary],
            |loc| match loc {
                Loc::Sector(s) => stripe.sector(s),
                // Tape invariant: the scratch section reads sectors only.
                Loc::Slot(_) => unreachable!("scratch section reads sectors only"),
            },
            &mut scratch,
            0,
            sb,
            None,
        );
        let rest_blocks = scratch.chunks_exact(sb).map(<[u8]>::to_vec).collect();
        self.arena.give(scratch);
        Ok(WirePartials {
            rest_blocks,
            rest_pending: true,
        })
    }

    /// The aggregator side of partial-block repair: finishes a split
    /// `H_rest` from the survivor's partial-sum `T` blocks, returning the
    /// recovered `(sector, bytes)` pairs to send back. Runs entirely on
    /// the `T` blocks — the aggregator never holds the stripe.
    ///
    /// # Errors
    /// [`RestNotSplittable`](crate::RepairError::RestNotSplittable) when
    /// the plan's `H_rest` reads stripe sectors (a survivor claiming
    /// otherwise is buggy or forged),
    /// [`GeometryMismatch`](crate::RepairError::GeometryMismatch) when
    /// the block count differs from the plan's scratch slots, and
    /// [`SectorLengthMismatch`](crate::RepairError::SectorLengthMismatch)
    /// when a block is not exactly `sector_bytes` long.
    //
    // Slicing is safe by tape validation plus the checks above: every
    // `Slot` source is below `scratch_slots`, every block is
    // `sector_bytes` long, and the output reservation is exactly
    // `outputs.len()` sectors.
    #[allow(clippy::indexing_slicing)]
    pub fn finish_rest<W: GfWord>(
        &self,
        plan: &DecodePlan<W>,
        rest_blocks: &[Vec<u8>],
        sector_bytes: usize,
    ) -> Result<Vec<(usize, Vec<u8>)>, DecodeError> {
        let Some(seg) = &plan.phase_b else {
            return Ok(Vec::new());
        };
        if !plan.rest_splittable() {
            return Err(DecodeError::RestNotSplittable);
        }
        if rest_blocks.len() != seg.scratch_slots {
            return Err(DecodeError::GeometryMismatch {
                expected: seg.scratch_slots,
                actual: rest_blocks.len(),
            });
        }
        for (slot, block) in rest_blocks.iter().enumerate() {
            if block.len() != sector_bytes {
                return Err(DecodeError::SectorLengthMismatch {
                    sector: slot,
                    expected: sector_bytes,
                    actual: block.len(),
                });
            }
        }

        let sb = sector_bytes;
        let mut outs = self.arena.take_dirty(seg.outputs.len() * sb);
        for &slot in &seg.zero_slots {
            if slot >= seg.scratch_slots {
                let off = (slot - seg.scratch_slots) * sb;
                outs[off..off + sb].fill(0);
            }
        }
        run_tape_section(
            &seg.instrs[seg.scratch_boundary..],
            |loc| match loc {
                Loc::Slot(e) => &rest_blocks[e][..],
                // `rest_splittable` means the output section reads slots only.
                Loc::Sector(_) => unreachable!("split output section reads slots only"),
            },
            &mut outs,
            seg.scratch_slots,
            sb,
            None,
        );
        let recovered = seg
            .outputs
            .iter()
            .enumerate()
            .map(|(i, &(_, sector))| (sector, outs[i * sb..(i + 1) * sb].to_vec()))
            .collect();
        self.arena.give(outs);
        Ok(recovered)
    }
}

/// Rejects a stripe whose sector count differs from the plan's geometry.
fn check_geometry<W: GfWord>(plan: &DecodePlan<W>, stripe: &Stripe) -> Result<(), DecodeError> {
    if stripe.layout().sectors() != plan.total_sectors() {
        return Err(DecodeError::GeometryMismatch {
            expected: plan.total_sectors(),
            actual: stripe.layout().sectors(),
        });
    }
    Ok(())
}

/// What a survivor produced from its portion of a plan (see
/// [`Executor::wire_partials`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WirePartials {
    /// The partial-sum `T` blocks of a split `H_rest`, one per scratch
    /// slot, each one sector long. Empty when nothing needs to travel.
    pub rest_blocks: Vec<Vec<u8>>,
    /// True when the aggregator still owes the stripe its phase-B
    /// sectors ([`Executor::finish_rest`]); false when the repair
    /// finished locally.
    pub rest_pending: bool,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("threads", &self.config.threads)
            .field("backend", &self.config.backend)
            .field("arena", &self.arena)
            .finish()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::{Strategy, WirePlan};
    use ppm_codes::{ErasureCode, FailureScenario, SdCode};
    use ppm_gf::Backend;

    /// A forged `rest_pending` response for a matrix-first plan must not
    /// take the aggregator down: `finish_rest` refuses with a typed error.
    #[test]
    fn finish_rest_rejects_a_non_splittable_rest() {
        let code = SdCode::<u8>::new(4, 4, 1, 1, vec![1, 2]).unwrap();
        let h = code.parity_check_matrix();
        let sc = FailureScenario::new(vec![2, 6, 10, 13, 14]);
        let plan =
            DecodePlan::build(&h, &sc, Strategy::PpmMatrixFirstRest, Backend::Scalar).unwrap();
        let wired = WirePlan::from_plan(&plan)
            .compile::<u8>(Backend::Scalar)
            .unwrap();
        assert!(wired.has_phase_b() && !wired.rest_splittable());
        let exec = Executor::new(DecoderConfig {
            threads: 1,
            backend: Backend::Scalar,
        });
        let forged = vec![vec![0u8; 64]; 2];
        assert_eq!(
            exec.finish_rest(&wired, &forged, 64).unwrap_err(),
            DecodeError::RestNotSplittable
        );
        // The in-process build of the same plan is refused the same way.
        assert_eq!(
            exec.finish_rest(&plan, &forged, 64).unwrap_err(),
            DecodeError::RestNotSplittable
        );
    }
}
