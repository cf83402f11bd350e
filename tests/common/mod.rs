//! Word-level oracles shared by the differential suites: everything here
//! uses nothing but `Matrix` arithmetic over one word column at a time,
//! independent of the region kernels, the plan compiler and the tape
//! executor under test.
//!
//! A stripe with `B`-byte sectors over GF(2^w) is exactly `B / (w/8)`
//! independent copies of the word-level code: byte-column `t` of every
//! sector forms a codeword vector.

// Each test crate that includes this module uses a different subset.
#![allow(dead_code)]

use ppm::{FailureScenario, GfWord, Matrix, Stripe};

fn load_word<W: GfWord>(sector: &[u8], t: usize) -> W {
    let mut x = 0u64;
    for i in 0..W::BYTES {
        x |= (sector[t * W::BYTES + i] as u64) << (8 * i);
    }
    W::from_u64(x)
}

fn store_word<W: GfWord>(sector: &mut [u8], t: usize, v: W) {
    let x = v.to_u64();
    for i in 0..W::BYTES {
        sector[t * W::BYTES + i] = (x >> (8 * i)) as u8;
    }
}

/// Recovers the faulty sectors of `stripe` word by word with pure matrix
/// arithmetic: `BF = F⁻¹ · (S · BS)` per word column.
pub fn reference_decode<W: GfWord>(h: &Matrix<W>, scenario: &FailureScenario, stripe: &mut Stripe) {
    let total = stripe.layout().sectors();
    let faulty = scenario.faulty();
    let surviving = scenario.surviving(total);
    let f_all = h.select_columns(faulty);
    let rows = f_all.select_independent_rows();
    assert_eq!(
        rows.len(),
        faulty.len(),
        "reference: scenario must be decodable"
    );
    let f_inv = f_all.select_rows(&rows).inverse().unwrap();
    let s = h.select_rows(&rows).select_columns(&surviving);

    let words = stripe.sector_bytes() / W::BYTES;
    for t in 0..words {
        let bs: Vec<W> = surviving
            .iter()
            .map(|&l| load_word(stripe.sector(l), t))
            .collect();
        let bf = f_inv.mul_vec(&s.mul_vec(&bs));
        for (&sector, &v) in faulty.iter().zip(&bf) {
            store_word(stripe.sector_mut(sector), t, v);
        }
    }
}

/// Evaluates the parity-check rows `rows` of `h` over every word column
/// of `stripe` and returns, ascending, the rows whose check value is
/// non-zero in at least one column — the word-level verdict a surplus-row
/// verify pass must reproduce.
pub fn reference_violated_rows<W: GfWord>(
    h: &Matrix<W>,
    rows: &[usize],
    stripe: &Stripe,
) -> Vec<usize> {
    let checks = h.select_rows(rows);
    let total = stripe.layout().sectors();
    let mut violated = vec![false; rows.len()];
    for t in 0..stripe.sector_bytes() / W::BYTES {
        let column: Vec<W> = (0..total).map(|c| load_word(stripe.sector(c), t)).collect();
        for (flag, value) in violated.iter_mut().zip(checks.mul_vec(&column)) {
            *flag |= value != W::ZERO;
        }
    }
    let mut out: Vec<usize> = rows
        .iter()
        .zip(&violated)
        .filter(|(_, &v)| v)
        .map(|(&r, _)| r)
        .collect();
    out.sort_unstable();
    out
}
