//! Decode plans: the matrix work of decoding, done once per failure
//! scenario and reusable across stripes.
//!
//! [`DecodePlan::build`] performs Steps 1–3 of both the traditional
//! method and PPM (derive/partition `H`, extract `F` and `S`, invert,
//! choose a calculation sequence) and lowers the chosen sequences
//! straight to validated instruction segments (see [`crate::tape`]): the
//! plan *is* its tape. The per-sub-matrix term programs exist only while
//! a plan is built — the `PpmAuto` sweep prices its candidates from them
//! and lowers the winner alone. Executing a plan (see
//! [`Executor`](crate::Executor)) touches only sector buffers —
//! mirroring the paper's observation that the matrix manipulation is
//! negligible next to the region arithmetic (footnote 2), so the plan
//! may be amortized or rebuilt per decode without affecting the
//! comparison.

use crate::cost::CostReport;
use crate::tape::{
    check_segment, check_verify_run, emit_run, lower_program, KernelMap, Loc, TapeSegment,
    VerifyRun,
};
use crate::{DecodeError, Partition};
use ppm_codes::FailureScenario;
use ppm_gf::{Backend, GfWord};
use ppm_matrix::{Factorization, Matrix};
use std::collections::BTreeSet;

/// The two orders in which `F⁻¹ · S · BS` can be evaluated (paper §II-B).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CalcSequence {
    /// *Normal sequence*: compute `T = S · BS` first, then `F⁻¹ · T`.
    /// Costs `u(F⁻¹) + u(S)` mult_XORs.
    Normal,
    /// *Matrix-first sequence*: form `G = F⁻¹ · S` (cheap matrix×matrix),
    /// then `G · BS`. Costs `u(F⁻¹ · S)` mult_XORs. Equivalent to the
    /// generator-matrix method.
    MatrixFirst,
}

/// A decoding strategy, named by the cost term of paper §III-B it incurs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Traditional decoding, normal sequence — cost `C₁`, no parallelism.
    /// This is what the open-source SD coder does.
    TraditionalNormal,
    /// Traditional decoding, matrix-first sequence — cost `C₂`, no
    /// parallelism.
    TraditionalMatrixFirst,
    /// PPM partition; matrix-first for the independent sub-matrices *and*
    /// for `H_rest` — cost `C₃`.
    PpmMatrixFirstRest,
    /// PPM partition; matrix-first for the independent sub-matrices,
    /// normal sequence for `H_rest` — cost `C₄`, the paper's usual choice.
    PpmNormalRest,
    /// Evaluate `C₁..C₄` for the concrete scenario and take the cheapest
    /// plan (preferring the partitioned ones on ties, for their
    /// parallelism). This is the full PPM algorithm.
    PpmAuto,
}

impl Strategy {
    /// All concrete (non-auto) strategies, in the cost-model order
    /// `C₁, C₂, C₃, C₄`.
    pub const CONCRETE: [Strategy; 4] = [
        Strategy::TraditionalNormal,
        Strategy::TraditionalMatrixFirst,
        Strategy::PpmMatrixFirstRest,
        Strategy::PpmNormalRest,
    ];

    /// The strategy's stable wire/display name. These strings are part of
    /// the serialized [`PlanKey`](crate::PlanKey) form and of cluster
    /// messages, so they must never change for an existing variant.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::TraditionalNormal => "traditional-normal",
            Strategy::TraditionalMatrixFirst => "traditional-matrix-first",
            Strategy::PpmMatrixFirstRest => "ppm-matrix-first-rest",
            Strategy::PpmNormalRest => "ppm-normal-rest",
            Strategy::PpmAuto => "ppm-auto",
        }
    }

    /// Parses a [`Strategy::name`] back into the strategy.
    pub fn from_name(name: &str) -> Option<Strategy> {
        Strategy::CONCRETE
            .into_iter()
            .chain([Strategy::PpmAuto])
            .find(|s| s.name() == name)
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Strategy {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Strategy::from_name(s).ok_or(())
    }
}

/// A straight-line region program recovering some faulty sectors — the
/// build-time form of one sub-matrix's work. Candidates are priced from
/// these term lists; only the chosen one is lowered to a
/// [`TapeSegment`], and no plan stores them.
#[derive(Clone, Debug)]
pub(crate) enum Program<W: GfWord> {
    /// `BF_f = Σ_j G[f,j] · BS_j` directly into each output.
    MatrixFirst {
        /// Per faulty sector: `(sector, [(coeff, source sector)])`.
        outputs: Vec<(usize, Vec<(W, usize)>)>,
    },
    /// `T_e = Σ_j S[e,j] · BS_j`, then `BF_f = Σ_e F⁻¹[f,e] · T_e`.
    Normal {
        /// Per selected equation: terms over stripe sectors.
        t_terms: Vec<Vec<(W, usize)>>,
        /// Per faulty sector: `(sector, [(coeff, scratch index)])`.
        f_terms: Vec<(usize, Vec<(W, usize)>)>,
    },
}

impl<W: GfWord> Program<W> {
    /// Number of mult_XORs the program performs (the paper's `C` for this
    /// sub-matrix).
    fn mult_xors(&self) -> usize {
        match self {
            Program::MatrixFirst { outputs } => outputs.iter().map(|(_, t)| t.len()).sum(),
            Program::Normal { t_terms, f_terms } => {
                t_terms.iter().map(Vec::len).sum::<usize>()
                    + f_terms.iter().map(|(_, t)| t.len()).sum::<usize>()
            }
        }
    }
}

/// One square sub-system `F · BF = S · BS`, factorized once. Either
/// calculation sequence is emitted from the same elimination, so the
/// `PpmAuto` sweep prices both sequences of `H_rest` (and of the
/// traditional whole-`H` system) without factorizing twice.
struct Solved<'a, W: GfWord> {
    fact: Factorization<W>,
    /// `S`: the consumed rows over the source columns.
    s: Matrix<W>,
    /// The global `H` rows the system consumed as `F` rows.
    rows: Vec<usize>,
    faulty: &'a [usize],
    sources: &'a [usize],
}

impl<'a, W: GfWord> Solved<'a, W> {
    /// Selects a square invertible system from the candidate rows and
    /// factorizes it.
    fn new(
        h: &Matrix<W>,
        candidate_rows: &[usize],
        faulty: &'a [usize],
        sources: &'a [usize],
    ) -> Result<Self, DecodeError> {
        let f_all = h.select_rows(candidate_rows).select_columns(faulty);
        let picked = f_all.select_independent_rows();
        let unrecoverable = DecodeError::Unrecoverable {
            needed: faulty.len(),
            rank: picked.len(),
        };
        if picked.len() < faulty.len() {
            return Err(unrecoverable);
        }
        let rows: Vec<usize> = picked.iter().map(|&i| candidate_rows[i]).collect();
        // One elimination serves both sequences: the factorization yields
        // the matrix-first product `F⁻¹·S` directly (no explicit inverse)
        // and the explicit `F⁻¹` for the normal sequence. Independent row
        // selection guarantees invertibility, so the None arm is
        // defensive.
        let Some((fact, _unused_local)) = Factorization::with_residual(&f_all, &picked) else {
            return Err(unrecoverable);
        };
        let s = h.select_rows(&rows).select_columns(sources);
        Ok(Solved {
            fact,
            s,
            rows,
            faulty,
            sources,
        })
    }

    /// The system's term program under `seq`.
    fn program(&self, seq: CalcSequence) -> Program<W> {
        let (faulty, sources) = (self.faulty, self.sources);
        match seq {
            CalcSequence::MatrixFirst => {
                let g = self.fact.solve_mat(&self.s);
                let outputs = faulty
                    .iter()
                    .enumerate()
                    .map(|(fi, &sector)| {
                        let terms = (0..sources.len())
                            .filter_map(|j| {
                                let c = g.get(fi, j);
                                (c != W::ZERO).then_some((c, sources[j]))
                            })
                            .collect();
                        (sector, terms)
                    })
                    .collect();
                Program::MatrixFirst { outputs }
            }
            CalcSequence::Normal => {
                let f_inv = self.fact.inverse();
                let t_terms = (0..self.rows.len())
                    .map(|e| {
                        (0..sources.len())
                            .filter_map(|j| {
                                let c = self.s.get(e, j);
                                (c != W::ZERO).then_some((c, sources[j]))
                            })
                            .collect()
                    })
                    .collect();
                let f_terms = faulty
                    .iter()
                    .enumerate()
                    .map(|(fi, &sector)| {
                        let terms = (0..self.rows.len())
                            .filter_map(|e| {
                                let c = f_inv.get(fi, e);
                                (c != W::ZERO).then_some((c, e))
                            })
                            .collect();
                        (sector, terms)
                    })
                    .collect();
                Program::Normal { t_terms, f_terms }
            }
        }
    }
}

/// One concrete strategy's term programs, before lowering.
struct Candidate<W: GfWord> {
    strategy: Strategy,
    phase_a: Vec<Program<W>>,
    phase_b: Option<Program<W>>,
    /// Global `H` rows consumed as `F` rows across every sub-system; the
    /// complement becomes the plan's surplus verification rows.
    consumed: Vec<usize>,
}

impl<W: GfWord> Candidate<W> {
    /// The candidate's mult_XORs — its `C` in the §III-B cost model.
    fn cost(&self) -> usize {
        self.phase_a
            .iter()
            .chain(&self.phase_b)
            .map(Program::mult_xors)
            .sum()
    }

    /// The candidates of the concrete `strategies`, sharing one partition
    /// and one factorization per sub-system between them.
    fn build_all(
        h: &Matrix<W>,
        scenario: &FailureScenario,
        strategies: &[Strategy],
    ) -> Result<Vec<Candidate<W>>, DecodeError> {
        let faulty = scenario.faulty();
        let mut out = Vec::with_capacity(strategies.len());
        if faulty.is_empty() {
            for &strategy in strategies {
                out.push(Candidate {
                    strategy,
                    phase_a: Vec::new(),
                    phase_b: None,
                    consumed: Vec::new(),
                });
            }
            return Ok(out);
        }
        let surviving = scenario.surviving(h.cols());
        let sequence = |s: &Strategy| match s {
            Strategy::TraditionalNormal | Strategy::PpmNormalRest => CalcSequence::Normal,
            _ => CalcSequence::MatrixFirst,
        };
        let (ppm, traditional): (Vec<Strategy>, Vec<Strategy>) = strategies
            .iter()
            .partition(|s| matches!(s, Strategy::PpmNormalRest | Strategy::PpmMatrixFirstRest));

        if !ppm.is_empty() {
            let part = Partition::build(h, scenario);
            // Independent sub-matrices always use matrix-first: every
            // element on their faulty columns is non-zero, so
            // u(Fᵢ) + u(Sᵢ) > u(Fᵢ⁻¹·Sᵢ) (paper §III-B).
            let mut phase_a = Vec::with_capacity(part.independent.len());
            let mut consumed = Vec::new();
            for sub in &part.independent {
                let solved = Solved::new(h, &sub.rows, &sub.faulty, &surviving)?;
                phase_a.push(solved.program(CalcSequence::MatrixFirst));
                consumed.extend(solved.rows);
            }
            // Recovered independent blocks are inputs of H_rest.
            let mut rest_sources = surviving.clone();
            rest_sources.extend(part.independent_faulty());
            rest_sources.sort_unstable();
            let rest = part
                .rest
                .as_ref()
                .map(|rest| Solved::new(h, &rest.rows, &rest.faulty, &rest_sources))
                .transpose()?;
            if let Some(rest) = &rest {
                consumed.extend(&rest.rows);
            }
            for strategy in &ppm {
                out.push(Candidate {
                    strategy: *strategy,
                    phase_a: phase_a.clone(),
                    phase_b: rest.as_ref().map(|r| r.program(sequence(strategy))),
                    consumed: consumed.clone(),
                });
            }
        }
        if !traditional.is_empty() {
            let all_rows: Vec<usize> = (0..h.rows()).collect();
            let solved = Solved::new(h, &all_rows, faulty, &surviving)?;
            for strategy in &traditional {
                out.push(Candidate {
                    strategy: *strategy,
                    phase_a: Vec::new(),
                    phase_b: Some(solved.program(sequence(strategy))),
                    consumed: solved.rows.clone(),
                });
            }
        }
        Ok(out)
    }

    /// Lowers the candidate to a validated plan: one segment per
    /// program, one verify run per surplus row of `h`, all sharing one
    /// [`KernelMap`].
    fn lower(
        &self,
        h: &Matrix<W>,
        faulty: Vec<usize>,
        backend: Backend,
    ) -> Result<DecodePlan<W>, DecodeError> {
        let mut kernels = KernelMap::new(backend);
        let phase_a = self
            .phase_a
            .iter()
            .map(|p| lower_program(p, &mut kernels))
            .collect();
        let phase_b = self
            .phase_b
            .as_ref()
            .map(|p| lower_program(p, &mut kernels));
        // Surplus rows: every parity equation the decode did not consume,
        // with its non-zero terms over the full stripe. An empty scenario
        // leaves all of H surplus — verification degenerates to the full
        // parity-consistency check.
        let mut used = vec![false; h.rows()];
        for &r in &self.consumed {
            used[r] = true;
        }
        let verify = (0..h.rows())
            .filter(|&r| !used[r])
            .map(|row| {
                let mut instrs = Vec::new();
                let terms = (0..h.cols()).filter_map(|c| {
                    let v = h.get(row, c);
                    (v != W::ZERO).then_some((v, Loc::Sector(c)))
                });
                emit_run(&mut instrs, 0, terms, &mut kernels);
                VerifyRun { row, instrs }
            })
            .collect();
        let plan = DecodePlan::validated(
            phase_a,
            phase_b,
            Some(verify),
            faulty,
            h.cols(),
            self.strategy,
        )
        .map_err(DecodeError::MalformedTape)?;
        if plan.mult_xors != self.cost() {
            return Err(DecodeError::MalformedTape(
                "lowering changed the predicted mult_XORs",
            ));
        }
        Ok(plan)
    }
}

/// A complete, executable decoding plan for one failure scenario: the
/// chosen calculation sequences lowered to validated instruction
/// segments, one per independent sub-matrix plus `H_rest`, and the
/// surplus-row verify runs.
///
/// Build with [`DecodePlan::build`] (or receive one through
/// [`WirePlan::compile`](crate::WirePlan::compile)), execute with
/// [`Executor::decode`](crate::Executor::decode). Every constructor ends
/// in the same validator, so a plan is always executable. The plan is
/// immutable and `Sync`; one plan can decode any number of stripes of
/// the same geometry.
#[derive(Debug)]
pub struct DecodePlan<W: GfWord> {
    /// One segment per independent sub-matrix (parallel in phase A).
    pub(crate) phase_a: Vec<TapeSegment<W>>,
    /// The `H_rest` segment, run after phase-A outputs install.
    pub(crate) phase_b: Option<TapeSegment<W>>,
    /// Surplus verify runs: every parity-check row of `H` the plan's
    /// sub-systems did *not* consume as part of `F`. The decode
    /// satisfies its consumed rows by construction, so re-evaluating
    /// these is an independent detector of corrupt surviving inputs.
    /// `None` for restricted plans (they do not materialize the full
    /// stripe, so no full parity equation can be checked).
    pub(crate) verify: Option<Vec<VerifyRun<W>>>,
    faulty: Vec<usize>,
    total_sectors: usize,
    strategy: Strategy,
    mult_xors: usize,
    /// `C₁..C₄` of every candidate sequence, captured when the plan was
    /// chosen by [`Strategy::PpmAuto`]. `None` for plans built with a
    /// concrete strategy, restricted or compiled from the wire.
    predicted: Option<CostReport>,
    rest_splittable: bool,
}

impl<W: GfWord> DecodePlan<W> {
    /// Builds a plan for recovering `scenario` under parity-check matrix
    /// `h`, using `strategy` and preparing region kernels for `backend`.
    ///
    /// # Errors
    /// [`RepairError::SectorOutOfRange`](crate::RepairError::SectorOutOfRange)
    /// and [`RepairError::Unrecoverable`](crate::RepairError::Unrecoverable)
    /// for scenarios the code cannot repair;
    /// [`RepairError::MalformedTape`](crate::RepairError::MalformedTape)
    /// if the lowered plan fails validation.
    pub fn build(
        h: &Matrix<W>,
        scenario: &FailureScenario,
        strategy: Strategy,
        backend: Backend,
    ) -> Result<DecodePlan<W>, DecodeError> {
        if let Some(&bad) = scenario.faulty().iter().find(|&&s| s >= h.cols()) {
            return Err(DecodeError::SectorOutOfRange {
                sector: bad,
                total: h.cols(),
            });
        }
        let missing = DecodeError::Unrecoverable {
            needed: scenario.len(),
            rank: 0,
        };
        let (winner, predicted) = if strategy == Strategy::PpmAuto {
            // The paper's sequence optimization: price all four candidate
            // sequences and keep the cheapest, preferring the partitioned
            // plans (parallelism) on ties. Only the winner is lowered.
            let candidates = Candidate::build_all(h, scenario, &Strategy::CONCRETE)?;
            let of = |s: Strategy| candidates.iter().find(|c| c.strategy == s);
            let cost = |s: Strategy| of(s).map_or(0, Candidate::cost);
            let report = CostReport {
                c1: cost(Strategy::TraditionalNormal),
                c2: cost(Strategy::TraditionalMatrixFirst),
                c3: cost(Strategy::PpmMatrixFirstRest),
                c4: cost(Strategy::PpmNormalRest),
                parallelism: of(Strategy::PpmNormalRest).map_or(0, |c| c.phase_a.len()),
            };
            let best = report.best().0;
            let winner = candidates.into_iter().find(|c| c.strategy == best);
            (winner.ok_or(missing)?, Some(report))
        } else {
            let winner = Candidate::build_all(h, scenario, &[strategy])?.pop();
            (winner.ok_or(missing)?, None)
        };
        let mut plan = winner.lower(h, scenario.faulty().to_vec(), backend)?;
        plan.predicted = predicted;
        Ok(plan)
    }

    /// Assembles a plan from its lowered parts after checking every
    /// invariant the executor relies on: per-segment slot bounds,
    /// run-head discipline and full slot coverage
    /// ([`check_segment`]), verify-run shape ([`check_verify_run`]), and
    /// that the outputs recover each declared faulty sector at most
    /// once. The one validator behind plan build, restriction and
    /// [`WirePlan::compile`](crate::WirePlan::compile).
    pub(crate) fn validated(
        phase_a: Vec<TapeSegment<W>>,
        phase_b: Option<TapeSegment<W>>,
        verify: Option<Vec<VerifyRun<W>>>,
        faulty: Vec<usize>,
        total_sectors: usize,
        strategy: Strategy,
    ) -> Result<Self, &'static str> {
        if faulty.windows(2).any(|w| w[0] >= w[1]) {
            return Err("faulty set not sorted and unique");
        }
        if faulty.iter().any(|&s| s >= total_sectors) {
            return Err("faulty sector out of range");
        }
        for seg in phase_a.iter().chain(&phase_b) {
            check_segment(seg, total_sectors)?;
        }
        for run in verify.iter().flatten() {
            check_verify_run(run, total_sectors)?;
        }
        // Every output sector must be one of the declared faulty
        // sectors, and no sector may be produced twice.
        let mut produced: Vec<usize> = phase_a
            .iter()
            .chain(&phase_b)
            .flat_map(TapeSegment::output_sectors)
            .collect();
        produced.sort_unstable();
        if produced.windows(2).any(|w| w[0] == w[1]) {
            return Err("sector produced by two segments");
        }
        if produced.iter().any(|s| faulty.binary_search(s).is_err()) {
            return Err("output sector not in faulty set");
        }

        let mult_xors = phase_a.iter().chain(&phase_b).map(|s| s.instrs.len()).sum();
        let rest_splittable = phase_b.as_ref().is_some_and(|seg| {
            seg.instrs
                .get(seg.scratch_boundary..)
                .is_some_and(|outs| outs.iter().all(|i| matches!(i.src, Loc::Slot(_))))
        });
        Ok(DecodePlan {
            phase_a,
            phase_b,
            verify,
            faulty,
            total_sectors,
            strategy,
            mult_xors,
            predicted: None,
            rest_splittable,
        })
    }

    /// Derives a *degraded-read* plan recovering only the `wanted` faulty
    /// sectors (plus whatever intermediate blocks they transitively need).
    ///
    /// PPM's partition makes the dependency structure explicit: an
    /// independent sub-matrix is kept only if it recovers a wanted sector
    /// or produces an input of the (pruned) remaining sub-matrix; within
    /// every kept segment, outputs for unwanted sectors and the `T` slots
    /// only they read are dropped. For an LRC single-block degraded read
    /// this collapses the plan to one local-group repair — the scenario
    /// the paper's introduction motivates ("local parity to reduce disk
    /// I/O … and degraded read latency"). The restricted plan shares the
    /// parent's kernels.
    ///
    /// Decoding the restricted plan writes only the retained sectors;
    /// other faulty sectors stay erased.
    ///
    /// ```
    /// use ppm_codes::{ErasureCode, FailureScenario, SdCode};
    /// use ppm_core::{DecodePlan, Strategy};
    /// use ppm_gf::Backend;
    ///
    /// // The paper's example: b2 is independent, b13 depends on everything.
    /// let code = SdCode::<u8>::new(4, 4, 1, 1, vec![1, 2]).unwrap();
    /// let h = code.parity_check_matrix();
    /// let scenario = FailureScenario::new(vec![2, 6, 10, 13, 14]);
    /// let full = DecodePlan::build(&h, &scenario, Strategy::PpmNormalRest,
    ///                              Backend::Scalar).unwrap();
    /// let read_b2 = full.restrict_to(&[2]).unwrap();
    /// assert_eq!(read_b2.mult_xors(), 3);      // one 1x1 local repair
    /// let read_b13 = full.restrict_to(&[13]).unwrap();
    /// assert!(read_b13.mult_xors() < full.mult_xors());
    /// ```
    ///
    /// # Errors
    /// [`RepairError::MalformedTape`](crate::RepairError::MalformedTape)
    /// if the restricted plan fails validation.
    pub fn restrict_to(&self, wanted: &[usize]) -> Result<DecodePlan<W>, DecodeError> {
        let is_faulty = |s: &usize| self.faulty.binary_search(s).is_ok();
        let wanted: BTreeSet<usize> = wanted.iter().copied().filter(is_faulty).collect();

        // Prune phase B to the wanted rest-outputs; collect which faulty
        // sectors it still reads (they must be produced by phase A).
        let phase_b = self
            .phase_b
            .as_ref()
            .and_then(|seg| seg.pruned(|s| wanted.contains(&s)));
        let rest_inputs: BTreeSet<usize> = phase_b
            .iter()
            .flat_map(TapeSegment::sector_sources)
            .filter(is_faulty)
            .collect();
        // Keep phase-A segments that produce a wanted sector or a rest
        // input, pruned to exactly those outputs.
        let phase_a: Vec<TapeSegment<W>> = self
            .phase_a
            .iter()
            .filter_map(|seg| seg.pruned(|s| wanted.contains(&s) || rest_inputs.contains(&s)))
            .collect();
        let mut faulty: Vec<usize> = phase_a
            .iter()
            .chain(&phase_b)
            .flat_map(TapeSegment::output_sectors)
            .collect();
        faulty.sort_unstable();
        // The candidate costs predicted the *full* repair (this plan does
        // strictly less work), and a restricted decode leaves unwanted
        // faulty sectors erased, so no full parity equation can be
        // evaluated afterwards: neither carries over.
        DecodePlan::validated(
            phase_a,
            phase_b,
            None,
            faulty,
            self.total_sectors,
            self.strategy,
        )
        .map_err(DecodeError::MalformedTape)
    }

    /// The degree of parallelism `p`: how many independent sub-matrices
    /// run concurrently in phase A.
    pub fn parallelism(&self) -> usize {
        self.phase_a.len()
    }

    /// Whether the plan has a remaining sub-matrix `H_rest` phase.
    pub fn has_phase_b(&self) -> bool {
        self.phase_b.is_some()
    }

    /// Per-independent-sub-matrix mult_XORs costs (`c₀ … c_{p−1}` of
    /// §III-C). The paper's ideal parallel saving is `Σcᵢ − c_max`; the
    /// experiment harness uses these to model multi-core execution.
    pub fn independent_costs(&self) -> Vec<usize> {
        self.phase_a.iter().map(|s| s.instrs.len()).collect()
    }

    /// mult_XORs of the remaining sub-matrix `H_rest` (0 if null).
    pub fn rest_cost(&self) -> usize {
        self.phase_b.as_ref().map_or(0, |s| s.instrs.len())
    }

    /// Total mult_XORs this plan performs — the paper's computational
    /// cost `C` for the chosen strategy, and exactly the number of
    /// instructions the executor runs.
    pub fn mult_xors(&self) -> usize {
        self.mult_xors
    }

    /// The strategy the plan was built with (for `PpmAuto`, the winning
    /// concrete strategy).
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The predicted `C₁..C₄` of all four candidate sequences, when this
    /// plan was selected by [`Strategy::PpmAuto`] (the sweep prices every
    /// candidate, so the report is captured for free). `None` for plans
    /// built with a concrete strategy, restricted plans and plans
    /// compiled from the wire.
    pub fn predicted_costs(&self) -> Option<CostReport> {
        self.predicted
    }

    /// The faulty sectors this plan recovers, ascending.
    pub fn faulty(&self) -> &[usize] {
        &self.faulty
    }

    /// Number of sectors in the stripe geometry this plan expects.
    pub fn total_sectors(&self) -> usize {
        self.total_sectors
    }

    /// The distinct *surviving* sectors this plan reads — the repair's
    /// disk I/O in sectors. (Recovered phase-A blocks consumed by
    /// `H_rest` are produced in memory, not read from devices, so they
    /// are excluded.)
    ///
    /// This is the metric behind LRC's design: a single-block degraded
    /// read under a `(k, l, g)`-LRC plan reads its `k/l`-disk local group,
    /// while the same read under RS touches the whole stripe row (paper
    /// §I: local parity "to reduce disk I/O, network overhead, and
    /// degraded read latency").
    pub fn sectors_read(&self) -> usize {
        self.read_sectors().len()
    }

    /// The distinct surviving sectors this plan reads, ascending — the
    /// list behind [`DecodePlan::sectors_read`]. Erasure escalation walks
    /// these first: a sector the decode actually consumed is the prime
    /// suspect when the recovered stripe fails verification.
    pub fn read_sectors(&self) -> Vec<usize> {
        let mut read: Vec<usize> = self
            .phase_a
            .iter()
            .chain(&self.phase_b)
            .flat_map(TapeSegment::sector_sources)
            .filter(|s| self.faulty.binary_search(s).is_err())
            .collect();
        read.sort_unstable();
        read.dedup();
        read
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

    /// Whether the plan can run the surplus-row verification pass.
    /// `false` only for [`DecodePlan::restrict_to`] projections, which do
    /// not materialize the full stripe.
    pub fn supports_verify(&self) -> bool {
        self.verify.is_some()
    }

    /// Global `H` row indices of the surplus (unconsumed) parity-check
    /// rows available for verification. Empty when the failure pattern
    /// consumed every row of `H` — at the code's rank limit no redundancy
    /// is left over, so corruption in surviving blocks is
    /// information-theoretically undetectable.
    pub fn surplus_row_indices(&self) -> Vec<usize> {
        self.verify.iter().flatten().map(|run| run.row).collect()
    }

    /// Number of surplus parity-check rows available to a verify pass.
    pub fn verify_rows(&self) -> usize {
        self.verify.as_ref().map_or(0, Vec::len)
    }

    /// Predicted cost of one verify pass in `mult_XORs`: the non-zero
    /// coefficients summed over the surplus rows — the same unit and the
    /// same exactness as the decode ledger, since verification reuses the
    /// identical region kernels.
    pub fn verify_mult_xors(&self) -> usize {
        self.verify
            .iter()
            .flatten()
            .map(|run| run.instrs.len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_codes::{ErasureCode, SdCode};

    fn paper_case() -> (Matrix<u8>, FailureScenario) {
        let code = SdCode::<u8>::new(4, 4, 1, 1, vec![1, 2]).unwrap();
        (
            code.parity_check_matrix(),
            FailureScenario::new(vec![2, 6, 10, 13, 14]),
        )
    }

    /// §II-B: C₁ = 35 and C₂ = 31 for the Figure 2 example.
    #[test]
    fn figure2_c1_c2() {
        let (h, sc) = paper_case();
        let c1 = DecodePlan::build(&h, &sc, Strategy::TraditionalNormal, Backend::Scalar)
            .unwrap()
            .mult_xors();
        let c2 = DecodePlan::build(&h, &sc, Strategy::TraditionalMatrixFirst, Backend::Scalar)
            .unwrap()
            .mult_xors();
        assert_eq!(c1, 35);
        assert_eq!(c2, 31);
    }

    /// §III-B: the example's PPM cost reduction is (C₁−C₄)/C₁ = 17.14%.
    #[test]
    fn figure3_c4_reduction() {
        let (h, sc) = paper_case();
        let c1 = DecodePlan::build(&h, &sc, Strategy::TraditionalNormal, Backend::Scalar)
            .unwrap()
            .mult_xors();
        let c4 = DecodePlan::build(&h, &sc, Strategy::PpmNormalRest, Backend::Scalar)
            .unwrap()
            .mult_xors();
        assert_eq!(c1, 35);
        assert_eq!(c4, 29); // C₁ − C₄ = m²(z+1)(r−z) = 6
        let reduction = (c1 - c4) as f64 / c1 as f64;
        assert!((reduction - 0.1714).abs() < 0.001, "got {reduction}");
    }

    #[test]
    fn ppm_plans_have_parallelism_3() {
        let (h, sc) = paper_case();
        for s in [
            Strategy::PpmMatrixFirstRest,
            Strategy::PpmNormalRest,
            Strategy::PpmAuto,
        ] {
            let plan = DecodePlan::build(&h, &sc, s, Backend::Scalar).unwrap();
            assert_eq!(plan.parallelism(), 3, "{s:?}");
            assert!(plan.phase_b.is_some());
        }
    }

    #[test]
    fn auto_picks_minimum_cost() {
        let (h, sc) = paper_case();
        let costs: Vec<usize> = Strategy::CONCRETE
            .iter()
            .map(|&s| {
                DecodePlan::build(&h, &sc, s, Backend::Scalar)
                    .unwrap()
                    .mult_xors()
            })
            .collect();
        let auto = DecodePlan::build(&h, &sc, Strategy::PpmAuto, Backend::Scalar).unwrap();
        assert_eq!(auto.mult_xors(), *costs.iter().min().unwrap());
    }

    /// Degraded read of an independent block keeps exactly one 1×1
    /// sub-plan; of a dependent block, phase B plus its inputs.
    #[test]
    fn restrict_to_prunes_structurally() {
        let (h, sc) = paper_case();
        let full = DecodePlan::build(&h, &sc, Strategy::PpmNormalRest, Backend::Scalar).unwrap();
        assert_eq!(full.mult_xors(), 29);

        // b2 is independent: one group, 3 mult_XORs, no rest.
        let only_b2 = full.restrict_to(&[2]).unwrap();
        assert_eq!(only_b2.parallelism(), 1);
        assert_eq!(only_b2.faulty(), &[2]);
        assert!(only_b2.phase_b.is_none());
        assert_eq!(only_b2.mult_xors(), 3);

        // b13 is dependent: rest kept (outputs pruned to b13), and all
        // three independent groups retained as its inputs.
        let only_b13 = full.restrict_to(&[13]).unwrap();
        assert_eq!(only_b13.parallelism(), 3);
        assert!(only_b13.phase_b.is_some());
        assert!(only_b13.faulty().contains(&13));
        assert!(!only_b13.faulty().contains(&14));
        assert!(only_b13.mult_xors() < full.mult_xors());

        // Restricting to everything changes nothing material.
        let all = full.restrict_to(&[2, 6, 10, 13, 14]).unwrap();
        assert_eq!(all.mult_xors(), full.mult_xors());
        assert_eq!(all.parallelism(), full.parallelism());

        // Unknown sectors are ignored.
        let none = full.restrict_to(&[0, 1]).unwrap();
        assert_eq!(none.mult_xors(), 0);
        assert_eq!(none.parallelism(), 0);
    }

    /// Restriction shares the parent's region kernels: every instruction
    /// of a restricted plan holds the *same* `RegionMul` allocation the
    /// parent uses for that constant — no multiplication table is
    /// rebuilt.
    #[test]
    fn restrict_to_shares_parent_kernels() {
        let (h, sc) = paper_case();
        let full = DecodePlan::build(&h, &sc, Strategy::PpmNormalRest, Backend::Scalar).unwrap();
        let kernels = |plan: &DecodePlan<u8>| -> Vec<std::sync::Arc<ppm_gf::RegionMul<u8>>> {
            plan.phase_a
                .iter()
                .chain(&plan.phase_b)
                .flat_map(|s| &s.instrs)
                .map(|i| std::sync::Arc::clone(&i.kernel))
                .collect()
        };
        let parent = kernels(&full);
        for wanted in [&[2][..], &[13], &[2, 6, 10, 13, 14]] {
            let restricted = full.restrict_to(wanted).unwrap();
            let mine = kernels(&restricted);
            assert!(!mine.is_empty(), "{wanted:?}");
            for kernel in &mine {
                assert!(
                    parent.iter().any(|p| std::sync::Arc::ptr_eq(p, kernel)),
                    "kernel for coefficient {:#x} was rebuilt on restriction",
                    kernel.constant()
                );
            }
        }
    }

    #[test]
    fn empty_scenario_plans_to_nothing() {
        let (h, _) = paper_case();
        let plan = DecodePlan::build(
            &h,
            &FailureScenario::new(vec![]),
            Strategy::PpmAuto,
            Backend::Scalar,
        )
        .unwrap();
        assert_eq!(plan.parallelism(), 0);
        assert_eq!(plan.mult_xors(), 0);
        assert!(plan.phase_b.is_none());
    }

    #[test]
    fn out_of_range_sector_rejected() {
        let (h, _) = paper_case();
        let err = DecodePlan::build(
            &h,
            &FailureScenario::new(vec![99]),
            Strategy::PpmAuto,
            Backend::Scalar,
        )
        .unwrap_err();
        assert_eq!(
            err,
            DecodeError::SectorOutOfRange {
                sector: 99,
                total: 16
            }
        );
    }

    #[test]
    fn unrecoverable_pattern_rejected() {
        let (h, _) = paper_case();
        // 6 faulty blocks with only 5 equations can never be recovered.
        let sc = FailureScenario::new(vec![0, 1, 2, 3, 4, 5]);
        let err =
            DecodePlan::build(&h, &sc, Strategy::TraditionalNormal, Backend::Scalar).unwrap_err();
        assert!(matches!(err, DecodeError::Unrecoverable { needed: 6, .. }));
    }

    #[test]
    fn surplus_rows_complement_consumed() {
        let (h, sc) = paper_case();
        // Worst case: 5 faulty sectors consume all 5 parity rows, so no
        // redundancy is left for verification.
        let plan = DecodePlan::build(&h, &sc, Strategy::PpmNormalRest, Backend::Scalar).unwrap();
        assert!(plan.supports_verify());
        assert_eq!(plan.verify_rows(), 0);
        assert_eq!(plan.verify_mult_xors(), 0);

        // Two faulty sectors leave three surplus rows, whatever strategy.
        let small = FailureScenario::new(vec![2, 6]);
        for s in Strategy::CONCRETE.into_iter().chain([Strategy::PpmAuto]) {
            let plan = DecodePlan::build(&h, &small, s, Backend::Scalar).unwrap();
            assert_eq!(plan.verify_rows(), 3, "{s:?}");
            let idx = plan.surplus_row_indices();
            assert!(idx.iter().all(|&r| r < h.rows()), "{s:?}");
            // Predicted verify cost = non-zeros of H over those rows.
            let expect: usize = idx.iter().map(|&r| h.row_nonzeros(r)).sum();
            assert_eq!(plan.verify_mult_xors(), expect, "{s:?}");
        }

        // Empty scenario: every row is surplus — a full parity check.
        let empty = DecodePlan::build(
            &h,
            &FailureScenario::new(vec![]),
            Strategy::PpmAuto,
            Backend::Scalar,
        )
        .unwrap();
        assert_eq!(empty.verify_rows(), h.rows());

        // Restricted plans cannot verify.
        let restricted = plan.restrict_to(&[2]).unwrap();
        assert!(!restricted.supports_verify());
        assert_eq!(restricted.verify_rows(), 0);
        assert_eq!(restricted.verify_mult_xors(), 0);
        assert!(restricted.surplus_row_indices().is_empty());
    }

    #[test]
    fn read_sectors_lists_what_sectors_read_counts() {
        let (h, sc) = paper_case();
        let plan = DecodePlan::build(&h, &sc, Strategy::PpmNormalRest, Backend::Scalar).unwrap();
        let read = plan.read_sectors();
        assert_eq!(read.len(), plan.sectors_read());
        assert!(read.windows(2).all(|w| w[0] < w[1]), "sorted and deduped");
        assert!(read.iter().all(|s| plan.faulty().binary_search(s).is_err()));
    }

    /// The paper's inequality: independent sub-matrices are always cheaper
    /// matrix-first, so C₃ ≤ C₁-with-partition; more precisely C₂ ≤ C₃
    /// never needs to hold, but C₄ ≤ C₁ and C₃ ≥ C₂ do for SD worst cases.
    #[test]
    fn cost_order_on_paper_example() {
        let (h, sc) = paper_case();
        let c: Vec<usize> = Strategy::CONCRETE
            .iter()
            .map(|&s| {
                DecodePlan::build(&h, &sc, s, Backend::Scalar)
                    .unwrap()
                    .mult_xors()
            })
            .collect();
        let (c1, c2, c3, c4) = (c[0], c[1], c[2], c[3]);
        assert!(c4 < c1, "C4={c4} must beat C1={c1}");
        assert!(
            c2 < c3,
            "paper: C3 - C2 = m(r-1)(mz+s) > 0; got C2={c2}, C3={c3}"
        );
        // Figure-2 instance: C3 = 37 per the formulas in §III-B.
        assert_eq!(c3, 37);
    }
}

#[cfg(test)]
mod restrict_matrix_first_tests {
    use super::*;
    use ppm_codes::{ErasureCode, SdCode};

    /// Pruning a plan whose H_rest uses the matrix-first sequence
    /// exercises segment pruning without `T` slots.
    #[test]
    fn restrict_matrix_first_rest() {
        let code = SdCode::<u8>::new(4, 4, 1, 1, vec![1, 2]).unwrap();
        let h = code.parity_check_matrix();
        let sc = FailureScenario::new(vec![2, 6, 10, 13, 14]);
        let full =
            DecodePlan::build(&h, &sc, Strategy::PpmMatrixFirstRest, Backend::Scalar).unwrap();
        let only_b14 = full.restrict_to(&[14]).unwrap();
        assert!(only_b14.faulty().contains(&14));
        assert!(!only_b14.faulty().contains(&13));
        assert!(only_b14.mult_xors() < full.mult_xors());
        // The matrix-first rest reads recovered blocks directly, so the
        // independent groups feeding it are retained.
        assert_eq!(only_b14.parallelism(), 3);
    }
}

#[cfg(test)]
mod io_tests {
    use super::*;
    use ppm_codes::{ErasureCode, LrcCode, RsCode};

    /// The LRC degraded-read I/O claim: one lost block reads its local
    /// group (k/l sectors) under LRC, but k sectors under RS.
    #[test]
    fn degraded_read_io_lrc_vs_rs() {
        let lrc = LrcCode::<u8>::new(12, 2, 2, 4).unwrap();
        let lost = FailureScenario::new(vec![lrc.layout().sector(1, 3)]);
        let plan = DecodePlan::build(
            &lrc.parity_check_matrix(),
            &lost,
            Strategy::PpmAuto,
            Backend::Scalar,
        )
        .unwrap();
        assert_eq!(plan.sectors_read(), lrc.group_size(), "LRC local repair");

        let rs = RsCode::<u8>::new(12, 4, 4).unwrap();
        let lost = FailureScenario::new(vec![rs.layout().sector(1, 3)]);
        let plan = DecodePlan::build(
            &rs.parity_check_matrix(),
            &lost,
            Strategy::PpmAuto,
            Backend::Scalar,
        )
        .unwrap();
        // Each Cauchy check equation spans all n disks of its row, so a
        // single-block repair reads the other n − 1 = 15 sectors.
        assert_eq!(plan.sectors_read(), 15, "RS reads a full row");
    }

    /// Recovered intermediates don't count as device reads; restriction
    /// can only reduce the I/O.
    #[test]
    fn sectors_read_excludes_recovered_blocks() {
        let code = ppm_codes::SdCode::<u8>::new(4, 4, 1, 1, vec![1, 2]).unwrap();
        let h = code.parity_check_matrix();
        let sc = FailureScenario::new(vec![2, 6, 10, 13, 14]);
        let plan = DecodePlan::build(&h, &sc, Strategy::PpmNormalRest, Backend::Scalar).unwrap();
        // All 11 surviving sectors participate in the worst case.
        assert_eq!(plan.sectors_read(), 11);
        let restricted = plan.restrict_to(&[2]).unwrap();
        assert_eq!(restricted.sectors_read(), 3, "local 1x1 repair reads 3");
        assert!(plan.restrict_to(&[13]).unwrap().sectors_read() <= 11);
    }
}
