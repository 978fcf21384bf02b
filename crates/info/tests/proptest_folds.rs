//! Differential suite: every MI and CMI `InfoContext` computes, and
//! `JointCounts::marginal_entropy_and_cells`, against the ordered-map
//! marginal they replaced.
//!
//! The oracle below is the previous marginal kept verbatim: walk the
//! joint's cells in key order, project each key onto the kept variables
//! and sum it into a `BTreeMap`, then fold the map's values in key order.
//! The production marginal is a `fold::Marginal`, dense or sorted by the
//! fold policy; every result must match bit for bit on random codes,
//! masks, nulls and weights, with marginal key spaces on both sides of
//! the policy.

use std::collections::BTreeMap;

use nexus_info::{entropy_from_counts, entropy_mm, fold, InfoContext, JointCounts};
use nexus_table::{Bitmap, Codes};
use proptest::prelude::*;

/// The ordered-map marginal `(H, occupied cells)` over `keep`.
fn oracle_marginal(joint: &JointCounts, keep: &[usize]) -> (f64, usize) {
    let mut marg: BTreeMap<u128, f64> = BTreeMap::new();
    for (mut key, c) in joint.counts.iter() {
        let mut digits = Vec::with_capacity(joint.radices.len());
        for &r in &joint.radices {
            digits.push(key % r);
            key /= r;
        }
        let mut out = 0u128;
        for &k in keep.iter().rev() {
            out = out * joint.radices[k] + digits[k];
        }
        marg.entry(out).and_modify(|v| *v += c).or_insert(c);
    }
    (
        entropy_from_counts(marg.values().copied(), joint.total),
        marg.len(),
    )
}

/// `(I, I_mm)` of `I(X;Y|Z)` from one joint count and ordered-map
/// marginals, as `InfoContext` computed them.
fn oracle_cmi(ctx: &InfoContext<'_>, x: &Codes, y: &Codes, z: &[&Codes]) -> (f64, f64) {
    let mut vars = vec![x, y];
    vars.extend_from_slice(z);
    let joint = JointCounts::count(&vars, ctx.mask, ctx.weights);
    let n = joint.total;
    let z_idx: Vec<usize> = (2..vars.len()).collect();
    let with_z = |first: usize| -> Vec<usize> {
        std::iter::once(first)
            .chain(z_idx.iter().copied())
            .collect()
    };
    let h_xyz = (joint.entropy(), joint.counts.n_cells());
    let h_xz = oracle_marginal(&joint, &with_z(0));
    let h_yz = oracle_marginal(&joint, &with_z(1));
    let mm = |(h, k): (f64, usize)| entropy_mm(h, k, n);
    if z.is_empty() {
        (
            (h_xz.0 + h_yz.0 - h_xyz.0).max(0.0),
            (mm(h_xz) + mm(h_yz) - mm(h_xyz)).max(0.0),
        )
    } else {
        let h_z = oracle_marginal(&joint, &z_idx);
        (
            (h_xz.0 + h_yz.0 - h_xyz.0 - h_z.0).max(0.0),
            (mm(h_xz) + mm(h_yz) - mm(h_xyz) - mm(h_z)).max(0.0),
        )
    }
}

/// Deterministic xorshift for the random tables below.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }
}

/// `n` random codes below `span` of a variable with cardinality `card`,
/// a sixth of them null when `nulls`. A span far below the cardinality
/// makes a sparse key space whose few occupied keys each gather several
/// cells, so a sorted marginal sums more than one add per key.
fn random_codes(rng: &mut Rng, n: usize, (card, span): (u32, u32), nulls: bool) -> Codes {
    let codes = (0..n).map(|_| rng.below(span as u64) as u32).collect();
    let validity = nulls.then(|| (0..n).map(|_| rng.below(6) != 0).collect());
    Codes {
        codes,
        cardinality: card,
        validity,
    }
}

/// Compares every estimator and marginal on `(x, y, z…)` under `ctx`,
/// returning whether each marginal's key space was dense by the policy.
fn check(
    ctx: &InfoContext<'_>,
    x: &Codes,
    y: &Codes,
    z: &[&Codes],
) -> Result<Vec<bool>, TestCaseError> {
    let (plugin, mm) = oracle_cmi(ctx, x, y, z);
    prop_assert_eq!(ctx.cmi(x, y, z).to_bits(), plugin.to_bits());
    prop_assert_eq!(ctx.cmi_mm(x, y, z).to_bits(), mm.to_bits());
    if z.is_empty() {
        prop_assert_eq!(ctx.mutual_information(x, y).to_bits(), plugin.to_bits());
        prop_assert_eq!(ctx.mutual_information_mm(x, y).to_bits(), mm.to_bits());
    }
    let mut vars = vec![x, y];
    vars.extend_from_slice(z);
    let joint = JointCounts::count(&vars, ctx.mask, ctx.weights);
    let cells = joint.counts.n_cells();
    let mut sides = Vec::new();
    // Every nonempty subset of the variables, in ascending index order.
    for subset in 1u32..(1 << vars.len()) {
        let keep: Vec<usize> = (0..vars.len()).filter(|&v| subset >> v & 1 == 1).collect();
        let (h, k) = joint.marginal_entropy_and_cells(&keep);
        let (want_h, want_k) = oracle_marginal(&joint, &keep);
        prop_assert_eq!(
            (h.to_bits(), k),
            (want_h.to_bits(), want_k),
            "keep {:?}",
            keep
        );
        let space: u128 = keep.iter().map(|&v| joint.radices[v]).product();
        sides.push(fold::dense(space, cells));
    }
    Ok(sides)
}

/// Cardinalities from tiny (always dense) to far past the rows (sorted).
const CARDS: [u32; 7] = [1, 2, 3, 7, 40, 300, 5_000];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random codes with nulls, masks and weights (zeros included) over
    /// |Z| ∈ {0, 1, 2}.
    #[test]
    fn info_context_matches_ordered_map_marginals(
        seed in any::<u64>(),
        n in 1usize..400,
        n_z in 0usize..3,
    ) {
        let mut rng = Rng(seed | 1);
        let mut card = || CARDS[rng.below(CARDS.len() as u64) as usize];
        let cards: Vec<u32> = (0..2 + n_z).map(|_| card()).collect();
        let vars: Vec<Codes> = cards
            .iter()
            .map(|&c| {
                let span = if rng.below(2) == 0 { c } else { c.min(12) };
                let nulls = rng.below(2) == 0;
                random_codes(&mut rng, n, (c, span), nulls)
            })
            .collect();
        let z: Vec<&Codes> = vars[2..].iter().collect();
        let mask: Bitmap = (0..n).map(|_| rng.below(4) != 0).collect();
        let weights: Vec<f64> = (0..n)
            .map(|_| match rng.below(5) {
                0 => 0.0,
                k => k as f64 * 0.3 + rng.below(1000) as f64 / 997.0,
            })
            .collect();
        let contexts = [
            InfoContext::default(),
            InfoContext::masked(&mask),
            InfoContext::weighted(&weights),
            InfoContext {
                mask: Some(&mask),
                weights: Some(&weights),
            },
        ];
        for ctx in &contexts {
            check(ctx, &vars[0], &vars[1], &z)?;
        }
    }
}

/// A fixed weighted, masked, null-bearing shape whose marginals fall on
/// both sides of the fold policy, so both layouts are compared.
#[test]
fn both_sides_of_the_policy_are_compared() {
    let n = 600;
    let mut rng = Rng(0x5eed_f01d);
    let x = random_codes(&mut rng, n, (5_000, 40), true);
    let y = random_codes(&mut rng, n, (3, 3), true);
    let z = random_codes(&mut rng, n, (7, 7), false);
    let mask: Bitmap = (0..n).map(|i| i % 9 != 4).collect();
    let weights: Vec<f64> = (0..n).map(|i| (i % 5) as f64 * 0.45 + 0.01).collect();
    let ctx = InfoContext {
        mask: Some(&mask),
        weights: Some(&weights),
    };
    let sides = check(&ctx, &x, &y, &[&z]).unwrap();
    assert!(sides.contains(&true) && sides.contains(&false), "{sides:?}");
}
