//! End-to-end walkthrough of the paper's worked example (Figures 2 and 3):
//! `SD^{1,1}_{4,4}(8|1,2)` with faulty sectors {b2, b6, b10, b13, b14}.
//! Every number asserted here is printed in the paper.

use ppm::core::cost::{analyze, SdClosedForm};
use ppm::stripe::random_data_stripe;
use ppm::{
    encode, parity_consistent, Backend, DecodePlan, DecoderConfig, ErasureCode, Executor,
    FailureScenario, LogTable, Partition, SdCode, Strategy,
};
use rand::{rngs::StdRng, SeedableRng};

fn code() -> SdCode<u8> {
    SdCode::new(4, 4, 1, 1, vec![1, 2]).expect("paper instance")
}

fn scenario() -> FailureScenario {
    FailureScenario::new(vec![2, 6, 10, 13, 14])
}

/// Figure 2, Step 1: H is 5×16; rows 0–3 are the XOR row-parities, row 4
/// is 2^0 … 2^15.
#[test]
fn step1_parity_check_matrix() {
    let h = code().parity_check_matrix();
    assert_eq!((h.rows(), h.cols()), (5, 16));
    for i in 0..4 {
        assert_eq!(
            h.row_support(i),
            vec![4 * i, 4 * i + 1, 4 * i + 2, 4 * i + 3]
        );
        assert!(h.row(i).iter().all(|&v| v == 0 || v == 1));
    }
    let mut pow = 1u8;
    for l in 0..16 {
        assert_eq!(h.get(4, l), pow);
        pow = ppm::GfWord::gf_mul(pow, 2);
    }
}

/// Figure 2, Steps 2–3: F extracted from the faulty columns is invertible
/// and the F⁻¹·S product has the row weights visible in the figure
/// (3, 3, 3, 11, 11 — totaling C₂ = 31).
#[test]
fn step2_3_extraction_and_inverse() {
    let h = code().parity_check_matrix();
    let sc = scenario();
    let f = h.select_columns(sc.faulty());
    let s = h.select_columns(&sc.surviving(16));
    let f_inv = f.inverse().expect("decodable");
    let g = f_inv.mul(&s);
    let weights: Vec<usize> = (0..5).map(|r| g.row_nonzeros(r)).collect();
    assert_eq!(weights, vec![3, 3, 3, 11, 11]);
    assert_eq!(g.nonzeros(), 31);
    assert_eq!(f_inv.nonzeros() + s.nonzeros(), 35);
}

/// Figure 3's log table, partition (p = 3, H_rest = rows {3,4}) and the
/// thread assignment sizes.
#[test]
fn figure3_partition_structure() {
    let h = code().parity_check_matrix();
    let log = LogTable::build(&h, &scenario());
    let expected: Vec<(usize, Vec<usize>)> = vec![
        (1, vec![2]),
        (1, vec![6]),
        (1, vec![10]),
        (2, vec![13, 14]),
        (5, vec![2, 6, 10, 13, 14]),
    ];
    for (row, (t, l)) in log.rows().iter().zip(&expected) {
        assert_eq!(row.t, *t);
        assert_eq!(&row.l, l);
    }
    let part = Partition::build(&h, &scenario());
    assert_eq!(part.degree(), 3);
    assert_eq!(part.independent_faulty(), vec![2, 6, 10]);
    let rest = part.rest.expect("rest non-null: case 3.2");
    assert_eq!(rest.rows, vec![3, 4]);
    assert_eq!(rest.faulty, vec![13, 14]);
}

/// §II-B / §III-B cost numbers: C₁ = 35, C₂ = 31, C₃ = 37, C₄ = 29,
/// 17.14% reduction; closed forms agree.
#[test]
fn cost_numbers() {
    let h = code().parity_check_matrix();
    let rep = analyze(&h, &scenario()).unwrap();
    assert_eq!((rep.c1, rep.c2, rep.c3, rep.c4), (35, 31, 37, 29));
    assert_eq!(rep.parallelism, 3);
    let cf = SdClosedForm {
        n: 4,
        r: 4,
        m: 1,
        s: 1,
        z: 1,
    };
    assert_eq!((cf.c1(), cf.c2(), cf.c3(), cf.c4()), (35, 31, 37, 29));
    assert_eq!(rep.best().1, 29);
}

/// The full pipeline: encode, fail, PPM-decode with every strategy and
/// thread count, recover bit-exactly.
#[test]
fn full_roundtrip_matrix() {
    let code = code();
    let h = code.parity_check_matrix();
    let mut rng = StdRng::seed_from_u64(1234);
    for strategy in [
        Strategy::TraditionalNormal,
        Strategy::TraditionalMatrixFirst,
        Strategy::PpmMatrixFirstRest,
        Strategy::PpmNormalRest,
        Strategy::PpmAuto,
    ] {
        for threads in [1usize, 3, 4] {
            let executor = Executor::new(DecoderConfig {
                threads,
                backend: Backend::Auto,
            });
            let mut stripe = random_data_stripe(&code, 256, &mut rng);
            encode(&code, &executor, &mut stripe).unwrap();
            assert!(parity_consistent(&h, &stripe, Backend::Auto));
            let pristine = stripe.clone();
            stripe.erase(&scenario());
            DecodePlan::build(&h, &scenario(), strategy, executor.config().backend)
                .and_then(|plan| executor.decode(&plan, &mut stripe))
                .unwrap();
            assert_eq!(stripe, pristine, "{strategy:?} T={threads}");
        }
    }
}

/// Encoding is the decode special case where all parity is "faulty": the
/// recovered parity must satisfy every check equation.
#[test]
fn encode_is_decode_special_case() {
    let code = code();
    let h = code.parity_check_matrix();
    let executor = Executor::new(DecoderConfig {
        threads: 1,
        backend: Backend::Scalar,
    });
    let mut rng = StdRng::seed_from_u64(5);
    let mut stripe = random_data_stripe(&code, 128, &mut rng);

    // Encode by explicitly decoding the parity positions.
    let parity_scenario = FailureScenario::new(code.parity_sectors());
    DecodePlan::build(
        &h,
        &parity_scenario,
        Strategy::TraditionalNormal,
        executor.config().backend,
    )
    .and_then(|plan| executor.decode(&plan, &mut stripe))
    .unwrap();
    assert!(parity_consistent(&h, &stripe, Backend::Scalar));

    // And it matches the encode() convenience function.
    let mut stripe2 = random_data_stripe(&code, 128, &mut StdRng::seed_from_u64(5));
    encode(&code, &executor, &mut stripe2).unwrap();
    assert_eq!(stripe, stripe2);
}
