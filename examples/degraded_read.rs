//! The paper's cloud-side motivation: degraded reads under an LRC code.
//!
//! "Transient data unavailable occupy for 90% of data center failure
//! events" — LRC dedicates local parities so a single unavailable block is
//! repaired from its small local group instead of the whole stripe. This
//! example shows how PPM's independence exploitation discovers exactly
//! that: the unavailable block forms a 1×1 independent sub-matrix over its
//! local group, and a multi-block outage decodes its local repairs in
//! parallel.
//!
//! Run with: `cargo run --release --example degraded_read`

use ppm::stripe::random_data_stripe;
use ppm::{
    encode, DecodePlan, DecoderConfig, ErasureCode, Executor, FailureScenario, LrcCode, Partition,
    Strategy,
};
use rand::{rngs::StdRng, SeedableRng};
use std::time::Instant;

fn main() {
    // Azure-style (12, 2, 2)-LRC: 12 data disks in two local groups of 6.
    let code = LrcCode::<u8>::new(12, 2, 2, 8).expect("LRC instance");
    println!(
        "code: {} (storage cost {:.2})",
        code.name(),
        code.storage_cost()
    );

    let executor = Executor::new(DecoderConfig::default());
    let mut rng = StdRng::seed_from_u64(17);
    let mut stripe = random_data_stripe(&code, 32 * 1024, &mut rng);
    encode(&code, &executor, &mut stripe).expect("encode");
    let pristine = stripe.clone();
    let h = code.parity_check_matrix();
    let layout = code.layout();

    // --- Degraded read of one block -----------------------------------------
    let block = layout.sector(3, 2); // row 3, data disk 2 (local group 0)
    let one = FailureScenario::new(vec![block]);
    let part = Partition::build(&h, &one);
    println!("\nsingle unavailable block (row 3, disk 2):");
    println!(
        "  partition: p = {}, H_rest = {}",
        part.degree(),
        if part.rest.is_none() {
            "null"
        } else {
            "non-null"
        }
    );
    let plan =
        DecodePlan::build(&h, &one, Strategy::PpmAuto, executor.config().backend).expect("plan");
    println!(
        "  repair reads {} blocks ({} mult_XORs) — the local group only",
        plan.mult_xors(),
        plan.mult_xors()
    );
    assert_eq!(
        plan.mult_xors(),
        code.group_size(),
        "local repair = XOR of the group"
    );
    let mut broken = pristine.clone();
    broken.erase(&one);
    let t = Instant::now();
    executor.decode(&plan, &mut broken).expect("decode");
    println!("  degraded read served in {:.2?}", t.elapsed());
    assert_eq!(broken, pristine);

    // --- A whole unavailable disk: r parallel local repairs -----------------
    let disk = FailureScenario::whole_disks(layout, &[5]);
    let part = Partition::build(&h, &disk);
    println!("\nwhole disk 5 unavailable ({} blocks):", disk.len());
    println!(
        "  partition: p = {} independent local repairs, H_rest = {}",
        part.degree(),
        if part.rest.is_none() {
            "null"
        } else {
            "non-null"
        }
    );
    let plan =
        DecodePlan::build(&h, &disk, Strategy::PpmAuto, executor.config().backend).expect("plan");
    let mut broken = pristine.clone();
    broken.erase(&disk);
    let t = Instant::now();
    executor.decode(&plan, &mut broken).expect("decode");
    println!(
        "  repaired with T = {} threads in {:.2?}",
        executor.config().threads,
        t.elapsed()
    );
    assert_eq!(broken, pristine);

    // --- Maximum tolerable outage: l + g disks -------------------------------
    let worst = code
        .decodable_disk_failures(code.l() + code.g(), &mut rng, 500)
        .expect("decodable worst case");
    println!(
        "\nworst case: disks {:?} unavailable:",
        worst.failed_disks(layout)
    );
    for (label, strategy) in [
        ("traditional (C1)", Strategy::TraditionalNormal),
        ("PPM (auto)      ", Strategy::PpmAuto),
    ] {
        let plan =
            DecodePlan::build(&h, &worst, strategy, executor.config().backend).expect("plan");
        let mut broken = pristine.clone();
        broken.erase(&worst);
        let t = Instant::now();
        executor.decode(&plan, &mut broken).expect("decode");
        assert_eq!(broken, pristine);
        println!(
            "  {label}: {:>9.2?} ({} mult_XORs, parallelism {})",
            t.elapsed(),
            plan.mult_xors(),
            plan.parallelism()
        );
    }
}
