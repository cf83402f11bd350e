//! Differential suite for the compiled instruction tape: on every code
//! family of the evaluation (SD, PMDS, LRC, RS, product, Hitchhiker),
//! across thread budgets and GF backends, the tape executor must be
//! bit-identical to the word-level reference in `tests/common` — the
//! reference solver for decode, a word-level evaluation of the plan's
//! surplus rows for verification — degraded-read plans pruned by
//! `restrict_to` must recover their wanted sectors exactly as the
//! reference does, and the lowered delta-update path must match a full
//! re-encode, with executed mult_XORs equal to the planner's prediction
//! throughout. (The `*_tape_matches_graph` test
//! names date from when the oracle was a per-term graph walker.)
//!
//! The workload seed is read from `PPM_SEED` (default 2015) so CI can
//! run this under a seed matrix without recompiling.

use ppm::stripe::random_data_stripe;
use ppm::{
    encode, parity_consistent, Backend, DecodePlan, DecoderConfig, ErasureCode, Executor,
    FailureScenario, HitchhikerXor, LrcCode, PmdsCode, ProductCode, RepairError, RepairService,
    RsCode, SdCode, Strategy, Stripe, UpdatePlan,
};
use rand::{rngs::StdRng, Rng, SeedableRng};

mod common;
use common::{reference_decode, reference_violated_rows};

fn seed_from_env() -> u64 {
    std::env::var("PPM_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2015)
}

/// The full configuration grid every scenario is checked under.
const GRID: &[(usize, Backend)] = &[
    (1, Backend::Scalar),
    (1, Backend::Auto),
    (4, Backend::Scalar),
    (4, Backend::Auto),
];

/// Runs all four differential legs for one `(code, scenario)` pair on
/// every grid point. Returns whether the verify leg ran (it needs a
/// plan with surplus parity-check rows).
fn differential<C: ErasureCode<u8>>(code: &C, scenario: &FailureScenario, seed: u64) -> bool {
    let h = code.parity_check_matrix();
    assert_eq!(
        h.select_columns(scenario.faulty()).rank(),
        scenario.len(),
        "scenario must be decodable"
    );
    let mut verified = false;
    for &(threads, backend) in GRID {
        let label = format!("threads={threads} backend={backend:?} faulty={scenario:?}");
        let executor = Executor::new(DecoderConfig { threads, backend });
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pristine = random_data_stripe(code, 256, &mut rng);
        encode(code, &executor, &mut pristine).expect("encode");
        let plan = DecodePlan::build(&h, scenario, Strategy::PpmAuto, backend).expect("plan");

        // Decode leg: the tape recovers exactly what the word-level
        // reference solver recovers, on the predicted ledger.
        let mut by_reference = pristine.clone();
        by_reference.erase(scenario);
        reference_decode(&h, scenario, &mut by_reference);
        assert_eq!(by_reference, pristine, "reference recovery ({label})");
        let mut via_tape = pristine.clone();
        via_tape.erase(scenario);
        let stats = executor.decode(&plan, &mut via_tape).expect("tape decode");
        assert_eq!(via_tape, by_reference, "tape matches reference ({label})");
        assert!(stats.matches_prediction(), "tape ledger ({label})");
        restrict_leg(code, scenario, &executor, &pristine, &by_reference, &label);

        // Verify leg: the tape verifier flags exactly the surplus rows a
        // word-level evaluation flags — none on the recovered stripe,
        // the same ones once a surviving sector is corrupted.
        if plan.supports_verify() {
            verified = true;
            let rows = plan.surplus_row_indices();
            let report = executor.verify(&plan, &via_tape).expect("tape verify");
            assert!(report.clean(), "clean verify ({label})");
            assert_eq!(report.rows_checked, rows.len(), "rows checked ({label})");
            assert_eq!(
                report.stats.mult_xors,
                plan.verify_mult_xors() as u64,
                "verify ledger ({label})"
            );
            assert!(reference_violated_rows(&h, &rows, &via_tape).is_empty());

            let victim = (0..plan.total_sectors())
                .find(|s| !scenario.faulty().contains(s))
                .expect("a surviving sector exists");
            let mut corrupt = via_tape.clone();
            corrupt.sector_mut(victim)[0] ^= 0x5A;
            let report = executor.verify(&plan, &corrupt).expect("tape verify");
            assert_eq!(
                report.violated_rows,
                reference_violated_rows(&h, &rows, &corrupt),
                "violation report matches reference ({label})"
            );
        }

        // Delta-update leg: the lowered patch lists must be
        // indistinguishable from writing the data and fully re-encoding,
        // with the patch count matching the update cost model.
        delta_update_leg(code, &pristine, threads, backend, seed, &label);
    }
    verified
}

/// Restriction leg: under both partitioned rest sequences, the plan
/// pruned to each single faulty sector — and to the whole faulty set —
/// recovers exactly the reference's bytes for the wanted sectors, never
/// costs more than the full plan, stays on its own ledger, and refuses
/// to verify (it leaves unwanted sectors erased).
fn restrict_leg<C: ErasureCode<u8>>(
    code: &C,
    scenario: &FailureScenario,
    executor: &Executor,
    pristine: &Stripe,
    reference: &Stripe,
    label: &str,
) {
    let h = code.parity_check_matrix();
    let backend = executor.config().backend;
    for strategy in [Strategy::PpmNormalRest, Strategy::PpmMatrixFirstRest] {
        let full = DecodePlan::build(&h, scenario, strategy, backend).expect("plan");
        let singles = scenario.faulty().iter().map(|&s| vec![s]);
        for wanted in singles.chain([scenario.faulty().to_vec()]) {
            let label = format!("{label} strategy={strategy} wanted={wanted:?}");
            let plan = full.restrict_to(&wanted).expect("restricted plan");
            assert!(plan.mult_xors() <= full.mult_xors(), "no dearer ({label})");
            let mut stripe = pristine.clone();
            stripe.erase(scenario);
            let stats = executor
                .decode(&plan, &mut stripe)
                .expect("restricted decode");
            assert!(stats.matches_prediction(), "restricted ledger ({label})");
            for &w in &wanted {
                assert_eq!(
                    stripe.sector(w),
                    reference.sector(w),
                    "sector {w} ({label})"
                );
            }
            assert_eq!(
                executor.verify(&plan, &stripe).unwrap_err(),
                RepairError::VerificationUnavailable,
                "({label})"
            );
        }
    }
}

/// One small write through [`UpdatePlan`]'s lowered patch lists and
/// through the session layer, checked against a full re-encode.
fn delta_update_leg<C: ErasureCode<u8>>(
    code: &C,
    pristine: &Stripe,
    threads: usize,
    backend: Backend,
    seed: u64,
    label: &str,
) {
    let executor = Executor::new(DecoderConfig { threads, backend });
    let mut rng = StdRng::seed_from_u64(seed ^ 0xDA7A);
    let data = code.data_sectors();
    let d = data[rng.random_range(0..data.len())];
    let mut new_data = vec![0u8; pristine.sector_bytes()];
    rng.fill(new_data.as_mut_slice());

    // Reference: write the sector and recompute every parity from scratch.
    let mut reference = pristine.clone();
    reference.write_sector(d, &new_data);
    encode(code, &executor, &mut reference).expect("re-encode");

    let up = UpdatePlan::build(code, backend).expect("update plan");
    let mut patched = pristine.clone();
    up.apply(&mut patched, d, &new_data).expect("apply");
    assert_eq!(patched, reference, "patched == re-encoded ({label})");
    assert!(
        parity_consistent(&code.parity_check_matrix(), &patched, backend),
        "parity consistent ({label})"
    );

    // Session path: counted patches must match the update cost model.
    let service = RepairService::new(code, DecoderConfig { threads, backend });
    let mut via_service = pristine.clone();
    let st = service
        .apply_update(&mut via_service, &[(d, new_data.as_slice())])
        .expect("session update");
    assert_eq!(via_service, reference, "session patch ({label})");
    assert!(st.matches_prediction(), "update ledger ({label})");
    assert_eq!(
        st.predicted_mult_xors,
        up.update_mult_xors(d).expect("cost"),
        "prediction is the per-sector update cost ({label})"
    );
}

/// A light scenario (single lost data sector) that always leaves
/// surplus parity-check rows, so the verify leg runs.
fn light_scenario<C: ErasureCode<u8>>(code: &C) -> FailureScenario {
    let d = code.data_sectors()[0];
    FailureScenario::new(vec![d])
}

#[test]
fn sd_tape_matches_graph() {
    let seed = seed_from_env();
    let code = SdCode::<u8>::new(6, 4, 2, 1, vec![1, 2, 4]).expect("code");
    let mut rng = StdRng::seed_from_u64(seed);
    let worst = code
        .decodable_worst_case(1, &mut rng, 300)
        .expect("worst case");
    differential(&code, &worst, seed);
    assert!(differential(&code, &light_scenario(&code), seed));
}

#[test]
fn pmds_tape_matches_graph() {
    let seed = seed_from_env();
    let code = PmdsCode::<u8>::new(6, 4, 2, 1, vec![1, 2, 4]).expect("code");
    let h = code.parity_check_matrix();
    let mut rng = StdRng::seed_from_u64(seed);
    // Scattered patterns are only guaranteed decodable for searched
    // coefficients; draw until one is (the rank check in differential
    // re-asserts it).
    let scattered = (0..100)
        .map(|_| code.scattered_scenario(&mut rng))
        .find(|sc| h.select_columns(sc.faulty()).rank() == sc.len())
        .expect("a decodable scattered scenario within budget");
    differential(&code, &scattered, seed);
    assert!(differential(&code, &light_scenario(&code), seed));
}

#[test]
fn lrc_tape_matches_graph() {
    let seed = seed_from_env();
    let code = LrcCode::<u8>::new(6, 2, 2, 4).expect("code");
    let h = code.parity_check_matrix();
    let mut rng = StdRng::seed_from_u64(seed);
    let spread = (0..100)
        .map(|_| code.spread_disk_failures(&mut rng))
        .find(|sc| h.select_columns(sc.faulty()).rank() == sc.len())
        .expect("a decodable spread outage within budget");
    differential(&code, &spread, seed);
    assert!(differential(&code, &light_scenario(&code), seed));
}

#[test]
fn rs_tape_matches_graph() {
    let seed = seed_from_env();
    let code = RsCode::<u8>::new(5, 3, 4).expect("code");
    let mut rng = StdRng::seed_from_u64(seed);
    let disks = code.random_disk_failures(3, &mut rng);
    differential(&code, &disks, seed);
    assert!(differential(&code, &light_scenario(&code), seed));
}

#[test]
fn product_tape_matches_graph() {
    let seed = seed_from_env();
    let code = ProductCode::<u8>::new(4, 2, 3, 2).expect("code");
    let layout = code.layout();
    // Whole column — decomposes into per-row groups.
    let column = FailureScenario::whole_disks(layout, &[1]);
    differential(&code, &column, seed);
    // Correlated row burst — decomposes into per-column groups.
    let burst = FailureScenario::try_row_burst(layout, 2, 0, 3).expect("burst");
    differential(&code, &burst, seed);
    // Rack loss (disk group 1 of 3 → disks 2,3).
    let rack = FailureScenario::try_disk_group(layout, 1, 3).expect("rack");
    differential(&code, &rack, seed);
    assert!(differential(&code, &light_scenario(&code), seed));
}

#[test]
fn hitchhiker_tape_matches_graph() {
    let seed = seed_from_env();
    let code = HitchhikerXor::<u8>::new(5, 3).expect("code");
    let layout = code.layout();
    let single = FailureScenario::whole_disks(layout, &[2]);
    differential(&code, &single, seed);
    let triple = FailureScenario::whole_disks(layout, &[0, 3, 6]);
    differential(&code, &triple, seed);
    assert!(differential(&code, &light_scenario(&code), seed));
}
