//! Quickstart: the paper's running example, end to end.
//!
//! Builds `SD^{1,1}_{4,4}(8|1,2)` (Figures 2–3 of the paper), encodes a
//! stripe, injects the paper's failure scenario {b2, b6, b10, b13, b14},
//! and walks through every stage of PPM: log table, partition,
//! calculation-sequence costs, parallel decode, verification.
//!
//! Run with: `cargo run --release --example quickstart`

use ppm::core::cost::{analyze, SdClosedForm};
use ppm::stripe::random_data_stripe;
use ppm::{
    encode, parity_consistent, Backend, DecodePlan, DecoderConfig, ErasureCode, Executor,
    FailureScenario, LogTable, Partition, SdCode, Strategy,
};
use rand::{rngs::StdRng, SeedableRng};

fn main() {
    // --- The code instance -------------------------------------------------
    let code = SdCode::<u8>::new(4, 4, 1, 1, vec![1, 2]).expect("paper instance");
    println!("code:      {}", code.name());
    println!("symmetric: {}", code.is_symmetric());
    let h = code.parity_check_matrix();
    println!("H:         {} x {} parity-check matrix", h.rows(), h.cols());

    // --- Encode a stripe ----------------------------------------------------
    let executor = Executor::new(DecoderConfig::default());
    let mut rng = StdRng::seed_from_u64(2015);
    let mut stripe = random_data_stripe(&code, 64 * 1024, &mut rng);
    encode(&code, &executor, &mut stripe).expect("encode");
    assert!(parity_consistent(&h, &stripe, Backend::Auto));
    println!(
        "encoded:   {} B stripe, H·B = 0 verified",
        stripe.total_bytes()
    );

    // --- The paper's failure scenario --------------------------------------
    let scenario = FailureScenario::new(vec![2, 6, 10, 13, 14]);
    println!("\nfailures:  sectors {:?}", scenario.faulty());

    let log = LogTable::build(&h, &scenario);
    println!("log table  (i, t_i, l_i):");
    for row in log.rows() {
        println!("  ({}, {}, {:?})", row.row, row.t, row.l);
    }

    let part = Partition::build(&h, &scenario);
    println!("partition: p = {} independent sub-matrices", part.degree());
    for (i, sub) in part.independent.iter().enumerate() {
        println!("  H{i}: rows {:?} -> recovers {:?}", sub.rows, sub.faulty);
    }
    if let Some(rest) = &part.rest {
        println!(
            "  H_rest: rows {:?} -> recovers {:?}",
            rest.rows, rest.faulty
        );
    }

    // --- Calculation-sequence costs -----------------------------------------
    let report = analyze(&h, &scenario).expect("decodable");
    let cf = SdClosedForm {
        n: 4,
        r: 4,
        m: 1,
        s: 1,
        z: 1,
    };
    println!("\ncosts (mult_XORs per stripe):");
    println!(
        "  C1 (traditional, normal)      = {:3}   closed form {}",
        report.c1,
        cf.c1()
    );
    println!(
        "  C2 (traditional, matrix-first) = {:3}   closed form {}",
        report.c2,
        cf.c2()
    );
    println!(
        "  C3 (PPM, matrix-first rest)    = {:3}   closed form {}",
        report.c3,
        cf.c3()
    );
    println!(
        "  C4 (PPM, normal rest)          = {:3}   closed form {}",
        report.c4,
        cf.c4()
    );
    println!(
        "  PPM saves (C1-C4)/C1 = {:.2}% (paper: 17.14%)",
        100.0 * (report.c1 - report.c4) as f64 / report.c1 as f64
    );

    // --- Decode and verify ---------------------------------------------------
    let pristine = stripe.clone();
    stripe.erase(&scenario);
    let plan = DecodePlan::build(&h, &scenario, Strategy::PpmAuto, executor.config().backend)
        .expect("plan");
    println!(
        "\nPPM plan:  strategy {:?}, {} mult_XORs, parallelism {}",
        plan.strategy(),
        plan.mult_xors(),
        plan.parallelism()
    );
    executor.decode(&plan, &mut stripe).expect("decode");
    assert_eq!(stripe, pristine);
    println!("decoded:   all 5 faulty sectors recovered bit-exactly");
}
