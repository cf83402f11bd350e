//! Sessions, encoded stripes and the output checks every workload shares.

use ppm_codes::{ErasureCode, FailureScenario};
use ppm_core::{DecoderConfig, ExecStats, RepairService};
use ppm_gf::Backend;
use ppm_stripe::{random_data_stripe, Stripe};
use rand::rngs::StdRng;

/// A repair session over a type-erased GF(2^8) code.
pub type Session = RepairService<u8, &'static dyn ErasureCode<u8>>;

/// Codes live for the whole run; leaking one lets sessions borrow it
/// without tying every workload state to the code's owner.
pub fn leak<C: ErasureCode<u8> + 'static>(code: C) -> &'static dyn ErasureCode<u8> {
    Box::leak(Box::new(code))
}

/// A session whose decoder runs `threads` threads on the detected backend.
pub fn session(code: &'static dyn ErasureCode<u8>, threads: usize) -> Session {
    RepairService::new(
        code,
        DecoderConfig {
            threads,
            backend: Backend::Auto,
        },
    )
}

/// A stripe of random data, encoded through `session`.
pub fn encoded_stripe(session: &Session, sector_bytes: usize, rng: &mut StdRng) -> Stripe {
    let mut stripe = random_data_stripe(session.code(), sector_bytes, rng);
    session
        .encode(&mut stripe)
        .expect("encoding a fresh stripe of the session's own code succeeds");
    stripe
}

/// The sectors `sectors` of `got` equal those of `want`.
pub fn check_sectors(got: &Stripe, want: &Stripe, sectors: &[usize]) -> Result<(), String> {
    match sectors.iter().find(|&&s| got.sector(s) != want.sector(s)) {
        None => Ok(()),
        Some(s) => Err(format!("sector {s} differs from the pristine copy")),
    }
}

/// Executed mult_XORs equal the plan's prediction, for the decode and,
/// when present, the verify pass.
pub fn check_stats(stats: &ExecStats) -> Result<(), String> {
    if !stats.matches_prediction() {
        return Err(format!(
            "executed {} mult_XORs, predicted {}",
            stats.executed_mult_xors(),
            stats.predicted_mult_xors
        ));
    }
    if let Some(v) = &stats.verify {
        if !v.matches_prediction() {
            return Err(format!(
                "verify executed {} mult_XORs, predicted {}",
                v.first_pass.mult_xors, v.predicted_mult_xors
            ));
        }
        if !v.clean() {
            return Err(format!("verify flagged rows {:?}", v.violated_rows));
        }
    }
    Ok(())
}

/// Draws up to `want` distinct decodable scenarios from `draw`, giving up
/// after `64 × want` draws.
pub fn scenario_pool(
    code: &dyn ErasureCode<u8>,
    want: usize,
    mut draw: impl FnMut() -> Option<FailureScenario>,
) -> Vec<FailureScenario> {
    let h = code.parity_check_matrix();
    let mut pool: Vec<FailureScenario> = Vec::with_capacity(want);
    for _ in 0..64 * want {
        if pool.len() == want {
            break;
        }
        let Some(sc) = draw() else { continue };
        if sc.is_empty() || pool.contains(&sc) {
            continue;
        }
        if h.select_columns(sc.faulty()).rank() == sc.len() {
            pool.push(sc);
        }
    }
    pool
}

/// The sectors `sectors` of `got` equal `saved`, their contents
/// concatenated in the same order.
pub fn check_sectors_from(got: &Stripe, saved: &[u8], sectors: &[usize]) -> Result<(), String> {
    let sb = got.sector_bytes();
    match sectors
        .iter()
        .enumerate()
        .find(|(k, &s)| saved.get(k * sb..(k + 1) * sb) != Some(got.sector(s)))
    {
        None => Ok(()),
        Some((_, s)) => Err(format!("sector {s} differs from the pristine copy")),
    }
}
