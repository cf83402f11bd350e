//! Cross-crate integration: every code family × word width × strategy ×
//! thread count must encode and decode bit-exactly.

use ppm::stripe::random_data_stripe;
use ppm::{
    encode, parity_consistent, Backend, DecodePlan, DecoderConfig, ErasureCode, EvenOddCode,
    Executor, FailureScenario, GfWord, HitchhikerXor, LrcCode, PmdsCode, ProductCode, RdpCode,
    RsCode, SdCode, Strategy,
};
use rand::{rngs::StdRng, SeedableRng};

const STRATEGIES: [Strategy; 5] = [
    Strategy::TraditionalNormal,
    Strategy::TraditionalMatrixFirst,
    Strategy::PpmMatrixFirstRest,
    Strategy::PpmNormalRest,
    Strategy::PpmAuto,
];

fn roundtrip<W: GfWord, C: ErasureCode<W>>(
    code: &C,
    scenario: &FailureScenario,
    seed: u64,
    threads: usize,
) {
    let executor = Executor::new(DecoderConfig {
        threads,
        backend: Backend::Auto,
    });
    let h = code.parity_check_matrix();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stripe = random_data_stripe(code, 64, &mut rng);
    encode(code, &executor, &mut stripe).expect("encode");
    assert!(
        parity_consistent(&h, &stripe, Backend::Auto),
        "{}: encode left inconsistent parity",
        code.name()
    );
    let pristine = stripe.clone();
    for &strategy in &STRATEGIES {
        let mut broken = pristine.clone();
        broken.erase(scenario);
        DecodePlan::build(&h, scenario, strategy, executor.config().backend)
            .and_then(|plan| executor.decode(&plan, &mut broken))
            .unwrap_or_else(|e| panic!("{} {strategy:?}: {e}", code.name()));
        assert_eq!(broken, pristine, "{} {strategy:?}", code.name());
    }
}

#[test]
fn sd_all_widths() {
    let mut rng = StdRng::seed_from_u64(100);
    let code8 = SdCode::<u8>::search(6, 6, 2, 2, 1, 3).unwrap();
    let sc = code8.decodable_worst_case(2, &mut rng, 100).unwrap();
    roundtrip(&code8, &sc, 1, 2);

    let code16 = SdCode::<u16>::search(6, 6, 2, 2, 1, 3).unwrap();
    let sc = code16.decodable_worst_case(1, &mut rng, 100).unwrap();
    roundtrip(&code16, &sc, 2, 2);

    let code32 = SdCode::<u32>::search(5, 4, 1, 2, 1, 2).unwrap();
    let sc = code32.decodable_worst_case(2, &mut rng, 100).unwrap();
    roundtrip(&code32, &sc, 3, 2);
}

#[test]
fn pmds_scattered_erasures() {
    let pmds = PmdsCode::<u8>::search(6, 4, 1, 1, 7, 3).unwrap();
    let h = pmds.parity_check_matrix();
    let mut rng = StdRng::seed_from_u64(8);
    // Find a decodable scattered pattern (m per row + s extra).
    let sc = (0..100)
        .map(|_| pmds.scattered_scenario(&mut rng))
        .find(|sc| h.select_columns(sc.faulty()).rank() == sc.len())
        .expect("decodable scattered pattern");
    roundtrip(&pmds, &sc, 4, 2);
}

#[test]
fn lrc_various_shapes() {
    let mut rng = StdRng::seed_from_u64(300);
    for (k, l, g, r) in [(4, 2, 2, 4), (6, 3, 2, 3), (8, 2, 1, 2), (12, 4, 3, 2)] {
        let code = LrcCode::<u8>::new(k, l, g, r).unwrap();
        let sc = code
            .decodable_disk_failures(l + g, &mut rng, 1000)
            .unwrap_or_else(|| panic!("no decodable pattern for ({k},{l},{g})"));
        roundtrip(&code, &sc, 5, 4);
    }
}

#[test]
fn lrc_gf16() {
    let mut rng = StdRng::seed_from_u64(301);
    let code = LrcCode::<u16>::new(6, 2, 2, 3).unwrap();
    let sc = code.decodable_disk_failures(4, &mut rng, 1000).unwrap();
    roundtrip(&code, &sc, 6, 2);
}

#[test]
fn rs_all_widths_and_failure_counts() {
    let mut rng = StdRng::seed_from_u64(400);
    let code = RsCode::<u8>::new(6, 3, 4).unwrap();
    for count in 1..=3 {
        let sc = code.random_disk_failures(count, &mut rng);
        roundtrip(&code, &sc, 7 + count as u64, 2);
    }
    let code16 = RsCode::<u16>::new(4, 2, 3).unwrap();
    let sc = code16.random_disk_failures(2, &mut rng);
    roundtrip(&code16, &sc, 20, 2);
    let code32 = RsCode::<u32>::new(4, 2, 2).unwrap();
    let sc = code32.random_disk_failures(2, &mut rng);
    roundtrip(&code32, &sc, 21, 2);
}

/// The XOR-only RAID-6 codes decode any double disk failure under every
/// strategy; their whole pipeline is coefficient-1 fast-path XOR.
#[test]
fn evenodd_and_rdp_double_failures() {
    let layoutless_pairs = [(0usize, 1usize), (2, 5), (4, 6)];
    let eo = EvenOddCode::<u8>::new(5).unwrap();
    for &(a, b) in &layoutless_pairs {
        let sc = FailureScenario::whole_disks(eo.layout(), &[a, b.min(eo.layout().n - 1)]);
        roundtrip(&eo, &sc, 60 + a as u64, 2);
    }
    let rdp = RdpCode::<u8>::new(5).unwrap();
    for &(a, b) in &layoutless_pairs {
        let sc = FailureScenario::whole_disks(rdp.layout(), &[a, b.min(rdp.layout().n - 1)]);
        roundtrip(&rdp, &sc, 70 + a as u64, 2);
    }
}

/// STAR decodes any triple disk failure.
#[test]
fn star_triple_failures() {
    let star = ppm::StarCode::<u8>::new(5).unwrap();
    for disks in [[0usize, 1, 2], [2, 5, 7], [0, 4, 6]] {
        let sc = FailureScenario::whole_disks(star.layout(), &disks);
        roundtrip(&star, &sc, 90 + disks[0] as u64, 2);
    }
}

/// A single failed data disk in EVENODD/RDP is repaired purely from row
/// parity: PPM finds one independent 1x1 sub-matrix per row (p = r).
#[test]
fn evenodd_single_disk_is_fully_parallel() {
    let eo = EvenOddCode::<u8>::new(7).unwrap();
    let h = eo.parity_check_matrix();
    let sc = FailureScenario::whole_disks(eo.layout(), &[2]);
    let executor = Executor::new(DecoderConfig {
        threads: 2,
        backend: Backend::Auto,
    });
    let plan = DecodePlan::build(&h, &sc, Strategy::PpmAuto, executor.config().backend).unwrap();
    assert_eq!(plan.parallelism(), eo.layout().r);
    roundtrip(&eo, &sc, 80, 4);
}

/// Partial failures (fewer than the worst case) must also decode — the
/// paper only benchmarks the worst case but the library must handle the
/// common case of a single bad sector.
#[test]
fn single_sector_failures() {
    let code = SdCode::<u8>::search(6, 6, 2, 2, 2, 3).unwrap();
    let h = code.parity_check_matrix();
    for sector in [0usize, 7, 17, 35] {
        let sc = FailureScenario::new(vec![sector]);
        if h.select_columns(sc.faulty()).rank() == 1 {
            roundtrip(&code, &sc, 30 + sector as u64, 1);
        }
    }
}

/// Decoding a parity sector (not data) works the same way.
#[test]
fn parity_sector_failures() {
    let code = SdCode::<u8>::search(6, 6, 2, 2, 2, 3).unwrap();
    let parity = code.parity_sectors();
    let sc = FailureScenario::new(vec![parity[0], parity[parity.len() - 1]]);
    roundtrip(&code, &sc, 50, 2);
}

/// Product codes across word widths and both failure axes: whole
/// columns (repaired row-wise), co-located row bursts (repaired
/// column-wise), and the mixed "cross".
#[test]
fn product_both_axes_and_widths() {
    let code = ProductCode::<u8>::new(4, 2, 3, 2).unwrap();
    let layout = code.layout();
    // Whole-column failures, up to the row code's tolerance.
    for disks in [vec![1usize], vec![0, 4], vec![2, 3]] {
        let sc = FailureScenario::whole_disks(layout, &disks);
        roundtrip(&code, &sc, 110 + disks[0] as u64, 2);
    }
    // Co-located bursts within one stripe-row.
    for (row, start, width) in [(0usize, 0usize, 3usize), (2, 1, 4), (4, 0, 2)] {
        let sc = FailureScenario::try_row_burst(layout, row, start, width).unwrap();
        roundtrip(&code, &sc, 120 + row as u64, 2);
    }
    // The cross: a full grid row plus a full data column.
    let cross = FailureScenario::try_row_burst(layout, 1, 0, layout.n)
        .unwrap()
        .union(&FailureScenario::new(
            (0..layout.r).map(|i| layout.sector(i, 2)).collect(),
        ));
    roundtrip(&code, &cross, 130, 4);

    let code16 = ProductCode::<u16>::new(5, 2, 3, 2).unwrap();
    let sc = FailureScenario::whole_disks(code16.layout(), &[1, 6]);
    roundtrip(&code16, &sc, 131, 2);
}

/// Correlated rack loss: a full disk-group failure on a product code
/// and on RS, generated through the scenario layer's group splitter.
#[test]
fn rack_loss_roundtrips() {
    let code = ProductCode::<u8>::new(4, 2, 3, 2).unwrap();
    // 6 disks in 3 groups of 2 — losing any rack stays within m1.
    for group in 0..3 {
        let sc = FailureScenario::try_disk_group(code.layout(), group, 3).unwrap();
        roundtrip(&code, &sc, 140 + group as u64, 2);
    }
    let rs = RsCode::<u8>::new(5, 3, 4).unwrap();
    // 8 disks in 4 racks of 2 ≤ m = 3.
    for group in 0..4 {
        let sc = FailureScenario::try_disk_group(rs.layout(), group, 4).unwrap();
        roundtrip(&rs, &sc, 150 + group as u64, 2);
    }
}

/// Hitchhiker-XOR: single-disk, coupled-pair, and full `m`-disk
/// failures all round-trip under every strategy.
#[test]
fn hitchhiker_failures() {
    let code = HitchhikerXor::<u8>::new(5, 3).unwrap();
    let layout = code.layout();
    for disks in [vec![1usize], vec![0, 3], vec![0, 1, 2], vec![2, 5, 7]] {
        let sc = FailureScenario::whole_disks(layout, &disks);
        roundtrip(&code, &sc, 160 + disks[0] as u64, 2);
    }
    // Mixed sub-stripe pattern: one row-0 cell, one row-1 cell on
    // different disks.
    let sc = FailureScenario::new(vec![layout.sector(0, 1), layout.sector(1, 4)]);
    roundtrip(&code, &sc, 170, 2);

    let code16 = HitchhikerXor::<u16>::new(6, 3).unwrap();
    let sc = FailureScenario::whole_disks(code16.layout(), &[0, 4, 8]);
    roundtrip(&code16, &sc, 171, 2);
}
