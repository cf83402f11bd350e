//! Serializable decode plans: *plans travel, data stays put*.
//!
//! A [`WirePlan`] is the compact wire encoding of a [`DecodePlan`]:
//! the instruction segments, the per-constant kernel-table seeds (the
//! GF constants — multiplication tables are rebuilt on the receiving
//! side, never shipped), the precomputed scratch layout, and the surplus
//! verify rows. It is what a
//! cluster coordinator sends to a worker so the worker can execute a
//! repair against locally held sectors without ever learning the code's
//! parity-check matrix or running a factorization.
//!
//! The byte format is a hand-rolled little-endian layout behind a
//! `"PPMW"` magic and a format version — no serialization framework, so
//! the encoding is stable by construction and auditable byte for byte.
//! Decoding is *structural* (tags, counts, truncation); turning a decoded
//! plan back into a [`DecodePlan`] goes through [`WirePlan::compile`],
//! which ends in the same validator as in-process plan build (slot
//! bounds, run-head discipline, full slot coverage) — the executor's
//! unzeroed-scratch fast path is only sound against checked input, and
//! wire input is untrusted.
//!
//! Compilation rebuilds one checked [`RegionMul`](ppm_gf::RegionMul)
//! kernel per distinct constant (the isa-l `ec_init_tables` pattern, now
//! applied across the network: ship the seed, rebuild the table), shared
//! across all instructions of the plan via `Arc` exactly like an
//! in-process build.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use crate::plan::{DecodePlan, Strategy};
use crate::tape::{Instr, KernelMap, Loc, OpCode, TapeSegment, VerifyRun};
use ppm_gf::{Backend, GfWord};

/// Wire format version (bumped on any layout change).
pub const WIRE_VERSION: u16 = 1;

/// Magic prefix of every encoded plan.
const MAGIC: [u8; 4] = *b"PPMW";

/// Upper bound on any length field — far above any real plan, low enough
/// that a malformed length cannot drive an allocation into the gigabytes.
/// (Slot counts are bounded separately, by the validator's coverage
/// rule: a segment cannot have more slots than run heads plus zero
/// slots.)
const MAX_COUNT: usize = 1 << 24;

/// Errors of wire-plan encoding, decoding, and compilation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the structure did.
    Truncated,
    /// The buffer does not start with the `"PPMW"` magic.
    BadMagic,
    /// The format version is newer than this build understands.
    UnsupportedVersion(u16),
    /// Bytes remained after the structure was fully decoded.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
    /// The plan was built for a different GF word width than the
    /// compilation target.
    WidthMismatch {
        /// Width recorded in the plan.
        plan: u32,
        /// Width of the word type compilation was requested for.
        word: u32,
    },
    /// A length field exceeded the sanity bound.
    Oversized {
        /// The decoded count.
        count: usize,
        /// The bound it violated.
        max: usize,
    },
    /// A structural or semantic invariant does not hold.
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "wire plan truncated"),
            WireError::BadMagic => write!(f, "not a wire plan (bad magic)"),
            WireError::UnsupportedVersion(v) => {
                write!(f, "unsupported wire-plan version {v} (have {WIRE_VERSION})")
            }
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after wire plan")
            }
            WireError::WidthMismatch { plan, word } => write!(
                f,
                "wire plan is for GF(2^{plan}) but compilation target is GF(2^{word})"
            ),
            WireError::Oversized { count, max } => {
                write!(f, "wire-plan length field {count} exceeds bound {max}")
            }
            WireError::Malformed(what) => write!(f, "malformed wire plan: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Where a wire instruction reads from (the wire form of
/// [`Loc`](crate::tape::Loc)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum WireLoc {
    Sector(u32),
    Slot(u32),
}

/// One lowered `mult_XORs` on the wire: the kernel travels as its GF
/// constant (the table seed), not as a table.
#[derive(Clone, Debug, PartialEq, Eq)]
struct WireInstr {
    constant: u64,
    src: WireLoc,
    dst: u32,
    /// `false` for a run head ([`OpCode::MulCopy`]), `true` for a fused
    /// continuation ([`OpCode::MulXorFusedCont`]).
    cont: bool,
}

/// One tape segment on the wire, scratch layout included.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
struct WireSegment {
    instrs: Vec<WireInstr>,
    scratch_boundary: u32,
    scratch_slots: u32,
    /// Per output: `(absolute slot, stripe sector)`.
    outputs: Vec<(u32, u32)>,
    zero_slots: Vec<u32>,
}

/// One surplus verify row on the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
struct WireVerifyRun {
    row: u32,
    instrs: Vec<WireInstr>,
}

/// A decode plan in transportable form: pure data, no kernel tables, no
/// lifetime ties to the plan it came from.
///
/// Produce one with [`WirePlan::from_plan`] (or
/// [`Planner::wire_plan_for`](crate::Planner::wire_plan_for)), move it as
/// bytes via [`WirePlan::encode`] / [`WirePlan::decode`], and turn it
/// back into something executable with [`WirePlan::compile`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WirePlan {
    gf_width: u32,
    total_sectors: u32,
    strategy: Strategy,
    faulty: Vec<u32>,
    phase_a: Vec<WireSegment>,
    phase_b: Option<WireSegment>,
    verify: Vec<WireVerifyRun>,
}

/// Narrows a plan-side `usize` into the wire's `u32`. Plan dimensions
/// are sector/slot counts — a value past `u32::MAX` is not a plan, it is
/// a bug, so this panics rather than producing a silently wrong wire.
fn narrow(value: usize) -> u32 {
    u32::try_from(value).unwrap_or_else(|_| panic!("plan dimension {value} exceeds wire width"))
}

fn wire_instr<W: GfWord>(instr: &Instr<W>) -> WireInstr {
    WireInstr {
        constant: instr.kernel.constant().to_u64(),
        src: match instr.src {
            Loc::Sector(s) => WireLoc::Sector(narrow(s)),
            Loc::Slot(e) => WireLoc::Slot(narrow(e)),
        },
        dst: narrow(instr.dst),
        cont: instr.op == OpCode::MulXorFusedCont,
    }
}

fn wire_segment<W: GfWord>(seg: &TapeSegment<W>) -> WireSegment {
    WireSegment {
        instrs: seg.instrs.iter().map(wire_instr).collect(),
        scratch_boundary: narrow(seg.scratch_boundary),
        scratch_slots: narrow(seg.scratch_slots),
        outputs: seg
            .outputs
            .iter()
            .map(|&(slot, sector)| (narrow(slot), narrow(sector)))
            .collect(),
        zero_slots: seg.zero_slots.iter().map(|&s| narrow(s)).collect(),
    }
}

impl WirePlan {
    /// Captures `plan`'s instruction segments and verify runs as a wire
    /// plan.
    pub fn from_plan<W: GfWord>(plan: &DecodePlan<W>) -> WirePlan {
        WirePlan {
            gf_width: W::WIDTH,
            total_sectors: narrow(plan.total_sectors()),
            strategy: plan.strategy(),
            faulty: plan.faulty().iter().map(|&s| narrow(s)).collect(),
            phase_a: plan.phase_a.iter().map(wire_segment).collect(),
            phase_b: plan.phase_b.as_ref().map(wire_segment),
            verify: plan
                .verify
                .iter()
                .flatten()
                .map(|run| WireVerifyRun {
                    row: narrow(run.row),
                    instrs: run.instrs.iter().map(wire_instr).collect(),
                })
                .collect(),
        }
    }

    /// GF word width (bits) the plan's constants are expressed in.
    pub fn gf_width(&self) -> u32 {
        self.gf_width
    }

    /// Sectors in the stripe geometry the plan expects.
    pub fn total_sectors(&self) -> usize {
        self.total_sectors as usize
    }

    /// The strategy the plan was built with.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The faulty sectors the plan recovers, ascending.
    pub fn faulty(&self) -> Vec<usize> {
        self.faulty.iter().map(|&s| s as usize).collect()
    }

    /// Phase-A parallelism (independent sub-matrix segments).
    pub fn parallelism(&self) -> usize {
        self.phase_a.len()
    }

    /// Whether the plan carries an `H_rest` phase-B segment.
    pub fn has_phase_b(&self) -> bool {
        self.phase_b.is_some()
    }

    /// Surplus verify rows carried by the plan.
    pub fn verify_rows(&self) -> usize {
        self.verify.len()
    }

    /// Total decode instructions (= predicted `mult_XORs`).
    pub fn mult_xors(&self) -> usize {
        self.phase_a.iter().map(|s| s.instrs.len()).sum::<usize>()
            + self.phase_b.as_ref().map_or(0, |s| s.instrs.len())
    }

    /// Serializes the plan to its stable byte form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + 18 * self.mult_xors());
        out.extend_from_slice(&MAGIC);
        put_u16(&mut out, WIRE_VERSION);
        put_u32(&mut out, self.gf_width);
        put_u32(&mut out, self.total_sectors);
        put_u8(&mut out, strategy_tag(self.strategy));
        put_u32(&mut out, narrow(self.faulty.len()));
        for &s in &self.faulty {
            put_u32(&mut out, s);
        }
        put_u32(&mut out, narrow(self.phase_a.len()));
        for seg in &self.phase_a {
            put_segment(&mut out, seg);
        }
        match &self.phase_b {
            Some(seg) => {
                put_u8(&mut out, 1);
                put_segment(&mut out, seg);
            }
            None => put_u8(&mut out, 0),
        }
        put_u32(&mut out, narrow(self.verify.len()));
        for run in &self.verify {
            put_u32(&mut out, run.row);
            put_instrs(&mut out, &run.instrs);
        }
        out
    }

    /// Deserializes a plan from bytes, checking magic, version, tags, and
    /// lengths. Structural only — execution-soundness invariants are
    /// checked by [`WirePlan::compile`].
    pub fn decode(bytes: &[u8]) -> Result<WirePlan, WireError> {
        let mut r = Reader::new(bytes);
        if r.take(4)? != MAGIC {
            return Err(WireError::BadMagic);
        }
        let version = r.u16()?;
        if version != WIRE_VERSION {
            return Err(WireError::UnsupportedVersion(version));
        }
        let gf_width = r.u32()?;
        let total_sectors = r.u32()?;
        let strategy = strategy_from_tag(r.u8()?)?;
        let faulty = r.vec(|r| r.u32())?;
        let phase_a = r.vec(read_segment)?;
        let phase_b = match r.u8()? {
            0 => None,
            1 => Some(read_segment(&mut r)?),
            _ => return Err(WireError::Malformed("phase-B flag out of range")),
        };
        let verify = r.vec(|r| {
            Ok(WireVerifyRun {
                row: r.u32()?,
                instrs: read_instrs(r)?,
            })
        })?;
        r.finish()?;
        Ok(WirePlan {
            gf_width,
            total_sectors,
            strategy,
            faulty,
            phase_a,
            phase_b,
            verify,
        })
    }

    /// Compiles the plan into an executable [`DecodePlan`] for word type
    /// `W`: rebuilds one shared kernel per distinct constant (checked
    /// construction — the scalar self-probe runs on the receiving host's
    /// hardware), then runs the same validator plan build uses, so every
    /// invariant the executor's unzeroed-scratch fast path relies on is
    /// re-checked against the untrusted bytes. The compiled plan carries
    /// the shipped verify rows (possibly none) and no cost report.
    pub fn compile<W: GfWord>(&self, backend: Backend) -> Result<DecodePlan<W>, WireError> {
        if self.gf_width != W::WIDTH {
            return Err(WireError::WidthMismatch {
                plan: self.gf_width,
                word: W::WIDTH,
            });
        }
        let mut kernels = KernelMap::new(backend);
        let phase_a = self
            .phase_a
            .iter()
            .map(|seg| compile_segment(seg, &mut kernels))
            .collect::<Result<_, _>>()?;
        let phase_b = self
            .phase_b
            .as_ref()
            .map(|seg| compile_segment(seg, &mut kernels))
            .transpose()?;
        let verify = self
            .verify
            .iter()
            .map(|run| {
                Ok(VerifyRun {
                    row: run.row as usize,
                    instrs: compile_instrs(&run.instrs, &mut kernels)?,
                })
            })
            .collect::<Result<_, WireError>>()?;
        DecodePlan::validated(
            phase_a,
            phase_b,
            Some(verify),
            self.faulty(),
            self.total_sectors(),
            self.strategy,
        )
        .map_err(WireError::Malformed)
    }
}

/// Turns a wire instruction list into tape instructions with rebuilt
/// kernels. Structural only: bounds and run discipline are checked by
/// [`DecodePlan::validated`].
fn compile_instrs<W: GfWord>(
    instrs: &[WireInstr],
    kernels: &mut KernelMap<W>,
) -> Result<Vec<Instr<W>>, WireError> {
    instrs
        .iter()
        .map(|instr| {
            if W::WIDTH < 64 && (instr.constant >> W::WIDTH) != 0 {
                return Err(WireError::Malformed("constant exceeds field width"));
            }
            Ok(Instr {
                kernel: kernels.get(W::from_u64(instr.constant)),
                src: match instr.src {
                    WireLoc::Sector(s) => Loc::Sector(s as usize),
                    WireLoc::Slot(e) => Loc::Slot(e as usize),
                },
                dst: instr.dst as usize,
                op: if instr.cont {
                    OpCode::MulXorFusedCont
                } else {
                    OpCode::MulCopy
                },
            })
        })
        .collect()
}

/// Turns one wire segment into a [`TapeSegment`] (validated later,
/// with the whole tape).
fn compile_segment<W: GfWord>(
    seg: &WireSegment,
    kernels: &mut KernelMap<W>,
) -> Result<TapeSegment<W>, WireError> {
    Ok(TapeSegment {
        instrs: compile_instrs(&seg.instrs, kernels)?,
        scratch_boundary: seg.scratch_boundary as usize,
        scratch_slots: seg.scratch_slots as usize,
        outputs: seg
            .outputs
            .iter()
            .map(|&(slot, sector)| (slot as usize, sector as usize))
            .collect(),
        zero_slots: seg.zero_slots.iter().map(|&s| s as usize).collect(),
    })
}

fn strategy_tag(strategy: Strategy) -> u8 {
    match strategy {
        Strategy::TraditionalNormal => 0,
        Strategy::TraditionalMatrixFirst => 1,
        Strategy::PpmMatrixFirstRest => 2,
        Strategy::PpmNormalRest => 3,
        Strategy::PpmAuto => 4,
    }
}

fn strategy_from_tag(tag: u8) -> Result<Strategy, WireError> {
    Ok(match tag {
        0 => Strategy::TraditionalNormal,
        1 => Strategy::TraditionalMatrixFirst,
        2 => Strategy::PpmMatrixFirstRest,
        3 => Strategy::PpmNormalRest,
        4 => Strategy::PpmAuto,
        _ => return Err(WireError::Malformed("strategy tag out of range")),
    })
}

// ---- byte-level encoding helpers (little endian throughout) ----

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_instrs(out: &mut Vec<u8>, instrs: &[WireInstr]) {
    put_u32(out, narrow(instrs.len()));
    for instr in instrs {
        put_u8(out, u8::from(instr.cont));
        match instr.src {
            WireLoc::Sector(s) => {
                put_u8(out, 0);
                put_u32(out, s);
            }
            WireLoc::Slot(e) => {
                put_u8(out, 1);
                put_u32(out, e);
            }
        }
        put_u32(out, instr.dst);
        put_u64(out, instr.constant);
    }
}

fn put_segment(out: &mut Vec<u8>, seg: &WireSegment) {
    put_u32(out, seg.scratch_boundary);
    put_u32(out, seg.scratch_slots);
    put_instrs(out, &seg.instrs);
    put_u32(out, narrow(seg.outputs.len()));
    for &(slot, sector) in &seg.outputs {
        put_u32(out, slot);
        put_u32(out, sector);
    }
    put_u32(out, narrow(seg.zero_slots.len()));
    for &slot in &seg.zero_slots {
        put_u32(out, slot);
    }
}

/// Bounds-checked byte reader over an encoded plan.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        let slice = self.buf.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(*self.take(1)?.first().ok_or(WireError::Truncated)?)
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        let bytes: [u8; 2] = self.take(2)?.try_into().map_err(|_| WireError::Truncated)?;
        Ok(u16::from_le_bytes(bytes))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let bytes: [u8; 4] = self.take(4)?.try_into().map_err(|_| WireError::Truncated)?;
        Ok(u32::from_le_bytes(bytes))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let bytes: [u8; 8] = self.take(8)?.try_into().map_err(|_| WireError::Truncated)?;
        Ok(u64::from_le_bytes(bytes))
    }

    /// A length-prefixed list with the [`MAX_COUNT`] sanity bound.
    fn vec<T>(
        &mut self,
        mut read: impl FnMut(&mut Self) -> Result<T, WireError>,
    ) -> Result<Vec<T>, WireError> {
        let count = self.u32()? as usize;
        if count > MAX_COUNT {
            return Err(WireError::Oversized {
                count,
                max: MAX_COUNT,
            });
        }
        // Guard allocation by the bytes actually present: every element
        // encodes to at least one byte, so a count past the remaining
        // buffer is a lie — reject before reserving.
        if count > self.buf.len().saturating_sub(self.pos) {
            return Err(WireError::Truncated);
        }
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(read(self)?);
        }
        Ok(out)
    }

    fn finish(&self) -> Result<(), WireError> {
        let extra = self.buf.len().saturating_sub(self.pos);
        if extra != 0 {
            return Err(WireError::TrailingBytes { extra });
        }
        Ok(())
    }
}

fn read_instr(r: &mut Reader<'_>) -> Result<WireInstr, WireError> {
    let cont = match r.u8()? {
        0 => false,
        1 => true,
        _ => return Err(WireError::Malformed("opcode tag out of range")),
    };
    let src = match r.u8()? {
        0 => WireLoc::Sector(r.u32()?),
        1 => WireLoc::Slot(r.u32()?),
        _ => return Err(WireError::Malformed("source tag out of range")),
    };
    Ok(WireInstr {
        cont,
        src,
        dst: r.u32()?,
        constant: r.u64()?,
    })
}

fn read_instrs(r: &mut Reader<'_>) -> Result<Vec<WireInstr>, WireError> {
    r.vec(read_instr)
}

fn read_segment(r: &mut Reader<'_>) -> Result<WireSegment, WireError> {
    let scratch_boundary = r.u32()?;
    let scratch_slots = r.u32()?;
    let instrs = read_instrs(r)?;
    let outputs = r.vec(|r| Ok((r.u32()?, r.u32()?)))?;
    let zero_slots = r.vec(|r| r.u32())?;
    Ok(WireSegment {
        scratch_boundary,
        scratch_slots,
        instrs,
        outputs,
        zero_slots,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
mod tests {
    use super::*;
    use ppm_codes::{ErasureCode, FailureScenario, SdCode};
    use ppm_gf::RegionMul;
    use std::collections::HashMap;
    use std::sync::Arc;

    fn paper_plan(strategy: Strategy) -> DecodePlan<u8> {
        let code = SdCode::<u8>::new(4, 4, 1, 1, vec![1, 2]).unwrap();
        let h = code.parity_check_matrix();
        let sc = FailureScenario::new(vec![2, 6, 10, 13, 14]);
        DecodePlan::build(&h, &sc, strategy, Backend::Scalar).unwrap()
    }

    #[test]
    fn byte_round_trip_is_exact() {
        for strategy in Strategy::CONCRETE.into_iter().chain([Strategy::PpmAuto]) {
            let plan = paper_plan(strategy);
            let wire = WirePlan::from_plan(&plan);
            let bytes = wire.encode();
            let back = WirePlan::decode(&bytes).unwrap();
            assert_eq!(back, wire, "{strategy:?}");
            assert_eq!(back.encode(), bytes, "{strategy:?}: re-encode is stable");
        }
    }

    #[test]
    fn wire_metadata_matches_the_plan() {
        let plan = paper_plan(Strategy::PpmNormalRest);
        let wire = WirePlan::from_plan(&plan);
        assert_eq!(wire.gf_width(), 8);
        assert_eq!(wire.total_sectors(), plan.total_sectors());
        assert_eq!(wire.strategy(), plan.strategy());
        assert_eq!(wire.faulty(), plan.faulty());
        assert_eq!(wire.parallelism(), plan.parallelism());
        assert_eq!(wire.has_phase_b(), plan.has_phase_b());
        assert_eq!(wire.mult_xors(), plan.mult_xors());
        assert_eq!(wire.verify_rows(), plan.verify_rows());
    }

    #[test]
    fn compile_rebuilds_shared_kernels() {
        let plan = paper_plan(Strategy::PpmNormalRest);
        let wire = WirePlan::from_plan(&plan);
        let exec = wire.compile::<u8>(Backend::Scalar).unwrap();
        assert_eq!(exec.mult_xors(), plan.mult_xors());
        assert_eq!(exec.faulty(), plan.faulty());
        assert_eq!(exec.parallelism(), plan.parallelism());
        assert!(exec.rest_splittable(), "Normal H_rest splits");
        assert_eq!(
            exec.rest_scratch_slots(),
            2,
            "paper case ships 2 partial-sum blocks"
        );
        // Distinct instructions with the same constant share one kernel.
        let mut by_constant: HashMap<u64, *const RegionMul<u8>> = HashMap::new();
        for instr in exec.phase_a.iter().flat_map(|s| &s.instrs) {
            let c = instr.kernel.constant().to_u64();
            let ptr = Arc::as_ptr(&instr.kernel);
            assert_eq!(*by_constant.entry(c).or_insert(ptr), ptr);
        }
    }

    #[test]
    fn matrix_first_rest_is_not_splittable() {
        let plan = paper_plan(Strategy::PpmMatrixFirstRest);
        let exec = WirePlan::from_plan(&plan)
            .compile::<u8>(Backend::Scalar)
            .unwrap();
        assert!(!exec.rest_splittable(), "matrix-first rest reads sectors");
        assert_eq!(exec.rest_scratch_slots(), 0);
    }

    #[test]
    fn truncation_and_garbage_are_structured_errors() {
        let wire = WirePlan::from_plan(&paper_plan(Strategy::PpmNormalRest));
        let bytes = wire.encode();
        for cut in [0, 3, 4, 6, 10, bytes.len() / 2, bytes.len() - 1] {
            let err = WirePlan::decode(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, WireError::Truncated | WireError::BadMagic),
                "cut at {cut}: {err:?}"
            );
        }
        let mut extra = bytes.clone();
        extra.push(0);
        assert_eq!(
            WirePlan::decode(&extra).unwrap_err(),
            WireError::TrailingBytes { extra: 1 }
        );
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert_eq!(
            WirePlan::decode(&wrong_magic).unwrap_err(),
            WireError::BadMagic
        );
        let mut future = bytes;
        future[4] = 0xFF;
        assert!(matches!(
            WirePlan::decode(&future).unwrap_err(),
            WireError::UnsupportedVersion(_)
        ));
    }

    #[test]
    fn width_mismatch_is_rejected_at_compile() {
        let wire = WirePlan::from_plan(&paper_plan(Strategy::PpmNormalRest));
        let err = wire.compile::<u16>(Backend::Scalar).unwrap_err();
        assert_eq!(err, WireError::WidthMismatch { plan: 8, word: 16 });
    }

    #[test]
    fn tampered_plans_fail_compile_not_execution() {
        let base = WirePlan::from_plan(&paper_plan(Strategy::PpmNormalRest));

        // Out-of-range source sector.
        let mut bad = base.clone();
        bad.phase_a[0].instrs[0].src = WireLoc::Sector(9999);
        assert!(matches!(
            bad.compile::<u8>(Backend::Scalar).unwrap_err(),
            WireError::Malformed(_)
        ));

        // Continuation with no head.
        let mut bad = base.clone();
        bad.phase_a[0].instrs[0].cont = true;
        assert!(matches!(
            bad.compile::<u8>(Backend::Scalar).unwrap_err(),
            WireError::Malformed(_)
        ));

        // Output sector outside the faulty set.
        let mut bad = base.clone();
        bad.phase_a[0].outputs[0].1 = 0;
        assert!(matches!(
            bad.compile::<u8>(Backend::Scalar).unwrap_err(),
            WireError::Malformed(_)
        ));

        // Constant past the field width.
        let mut bad = base.clone();
        bad.phase_a[0].instrs[0].constant = 0x100;
        assert_eq!(
            bad.compile::<u8>(Backend::Scalar).unwrap_err(),
            WireError::Malformed("constant exceeds field width")
        );

        // A hostile slot count is rejected before anything is sized
        // by it.
        let mut bad = base.clone();
        bad.phase_a[0].scratch_slots = u32::MAX;
        assert_eq!(
            bad.compile::<u8>(Backend::Scalar).unwrap_err(),
            WireError::Malformed("a slot is neither written nor zeroed")
        );

        // A slot no run writes and no zero list covers.
        let mut bad = base;
        if let Some(seg) = bad.phase_b.as_mut() {
            seg.scratch_slots += 1;
            for instr in seg.instrs.iter_mut().skip(seg.scratch_boundary as usize) {
                instr.dst += 1;
            }
            for out in seg.outputs.iter_mut() {
                out.0 += 1;
            }
        }
        assert!(matches!(
            bad.compile::<u8>(Backend::Scalar).unwrap_err(),
            WireError::Malformed(_)
        ));
    }

    #[test]
    fn oversized_length_fields_are_rejected_without_allocation() {
        // A 4-byte "plan" claiming 2^31 faulty entries must fail fast.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        put_u16(&mut bytes, WIRE_VERSION);
        put_u32(&mut bytes, 8);
        put_u32(&mut bytes, 16);
        put_u8(&mut bytes, 4);
        put_u32(&mut bytes, u32::MAX);
        let err = WirePlan::decode(&bytes).unwrap_err();
        assert!(matches!(
            err,
            WireError::Oversized { .. } | WireError::Truncated
        ));
    }
}
