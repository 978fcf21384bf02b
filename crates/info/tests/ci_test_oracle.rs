//! Differential suite: `ci_test` against the full-row rewrite loop it
//! replaced.
//!
//! The oracle below is the previous implementation kept verbatim: clone
//! `X`, rewrite the codes of every complete-case row stratum by stratum
//! with one `shuffle` per stratum, drawing every permutation serially from
//! one RNG, and re-count the whole permuted column with
//! `InfoContext::cmi`. The production test counts a compact stratum-major
//! copy instead, in blocks of permutations on a thread pool, each block
//! jumping its RNG ahead to its own stream position; every field of the
//! result must match bit for bit on random codes, masks, nulls and
//! weights, at every pool width.

use std::collections::BTreeMap;

use nexus_info::{ci_screen, ci_test, CiScreen, CiTestOptions, CiTestResult, InfoContext};
use nexus_runtime::{Parallelism, ThreadPool};
use nexus_table::{Bitmap, Codes};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

fn ci_test_oracle(
    ctx: &InfoContext<'_>,
    x: &Codes,
    y: &Codes,
    z: &[&Codes],
    options: &CiTestOptions,
) -> CiTestResult {
    let observed = ctx.cmi(x, y, z);
    if options.cmi_shortcut > 0.0 {
        if observed < options.cmi_shortcut {
            return CiTestResult {
                observed_cmi: observed,
                p_value: 1.0,
                independent: true,
            };
        }
        if observed > options.cmi_shortcut * 10.0 && z.is_empty() {
            return CiTestResult {
                observed_cmi: observed,
                p_value: 0.0,
                independent: false,
            };
        }
    }
    let n = x.len();
    let usable: Vec<usize> = (0..n)
        .filter(|&i| {
            ctx.mask.is_none_or(|m| m.get(i))
                && x.is_valid(i)
                && y.is_valid(i)
                && z.iter().all(|v| v.is_valid(i))
        })
        .collect();
    if usable.len() < 2 {
        return CiTestResult {
            observed_cmi: observed,
            p_value: 1.0,
            independent: true,
        };
    }
    if options.cmi_shortcut > 0.0 && observed > options.cmi_shortcut * 50.0 && usable.len() > 10_000
    {
        return CiTestResult {
            observed_cmi: observed,
            p_value: 0.0,
            independent: false,
        };
    }
    let strata: Vec<Vec<usize>> = if z.is_empty() {
        vec![usable.to_vec()]
    } else {
        let radices: Vec<u128> = z.iter().map(|v| (v.cardinality as u128).max(1)).collect();
        let mut map: BTreeMap<u128, Vec<usize>> = BTreeMap::new();
        for &i in &usable {
            let mut key = 0u128;
            for (v, r) in z.iter().zip(&radices).rev() {
                key = key * r + v.codes[i] as u128;
            }
            map.entry(key).or_default().push(i);
        }
        map.into_values().collect()
    };
    let mut rng = StdRng::seed_from_u64(options.seed);
    let mut exceed = 0usize;
    let mut permuted_x = x.clone();
    for _ in 0..options.n_permutations {
        for stratum in &strata {
            let mut vals: Vec<u32> = stratum.iter().map(|&i| x.codes[i]).collect();
            vals.shuffle(&mut rng);
            for (&i, v) in stratum.iter().zip(vals) {
                permuted_x.codes[i] = v;
            }
        }
        if ctx.cmi(&permuted_x, y, z) >= observed {
            exceed += 1;
        }
    }
    let p_value = (exceed + 1) as f64 / (options.n_permutations + 1) as f64;
    CiTestResult {
        observed_cmi: observed,
        p_value,
        independent: p_value >= options.alpha,
    }
}

/// Random codes with `card` values and (optionally) ~10% nulls.
fn random_codes(rng: &mut StdRng, n: usize, card: u32, nulls: bool) -> Codes {
    let codes: Vec<u32> = (0..n).map(|_| rng.gen_range(0..card)).collect();
    let validity = nulls.then(|| {
        (0..n)
            .map(|_| rng.gen_range(0..10) != 0)
            .collect::<Bitmap>()
    });
    Codes {
        codes,
        cardinality: card,
        validity,
    }
}

/// `y` leaning on `x` for half the rows, so some draws are dependent and
/// others are near the permutation null.
fn leaning_codes(rng: &mut StdRng, x: &Codes, card: u32, nulls: bool) -> Codes {
    let mut y = random_codes(rng, x.len(), card, nulls);
    for (yv, &xv) in y.codes.iter_mut().zip(&x.codes) {
        if rng.gen_bool(0.5) {
            *yv = xv % card;
        }
    }
    y
}

fn assert_identical(a: &CiTestResult, b: &CiTestResult, what: &str) {
    assert_eq!(
        a.observed_cmi.to_bits(),
        b.observed_cmi.to_bits(),
        "observed_cmi: {what}"
    );
    assert_eq!(a.p_value.to_bits(), b.p_value.to_bits(), "p_value: {what}");
    assert_eq!(a.independent, b.independent, "independent: {what}");
}

struct Shape {
    n: usize,
    card_x: u32,
    card_y: u32,
    /// One cardinality per conditioning variable.
    card_z: &'static [u32],
}

const SHAPES: &[Shape] = &[
    // Unconditional, small tables.
    Shape {
        n: 300,
        card_x: 3,
        card_y: 4,
        card_z: &[],
    },
    // One stratum variable, a few large strata.
    Shape {
        n: 400,
        card_x: 5,
        card_y: 3,
        card_z: &[4],
    },
    // Three stratum variables: many strata, most of size 1.
    Shape {
        n: 200,
        card_x: 4,
        card_y: 3,
        card_z: &[7, 9, 11],
    },
    // Every Z value distinct or nearly so: strata of size 1.
    Shape {
        n: 150,
        card_x: 2,
        card_y: 2,
        card_z: &[600],
    },
    // Wide X and Y: tables far larger than their strata (sorted path).
    Shape {
        n: 300,
        card_x: 60,
        card_y: 50,
        card_z: &[3],
    },
    Shape {
        n: 250,
        card_x: 60,
        card_y: 70,
        card_z: &[2, 2, 3],
    },
    // Wide and unconditional: one large sparse stratum.
    Shape {
        n: 400,
        card_x: 50,
        card_y: 40,
        card_z: &[],
    },
];

/// Every pending test, drawn on pools 1, 2 and 8 wide, matches the serial
/// oracle; returns how many inputs reached the permutation null.
fn permute_matches_oracle_at_every_width(
    ctx: &InfoContext<'_>,
    x: &Codes,
    y: &Codes,
    z: &[&Codes],
    options: &CiTestOptions,
    what: &str,
) -> usize {
    let want = ci_test_oracle(ctx, x, y, z, options);
    let mut pending = 0;
    for threads in [1, 2, 8] {
        let pool = ThreadPool::new(Parallelism::Fixed(threads));
        let got = match ci_screen(ctx, x, y, z, options) {
            CiScreen::Decided(result) => result,
            CiScreen::Pending(test) => {
                pending += 1;
                test.permute(&pool)
            }
        };
        assert_identical(&got, &want, &format!("{what} threads={threads}"));
    }
    pending
}

fn run_case(seed: u64, shape: &Shape, weighted: bool, masked: bool, nulls: bool) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = shape.n;
    let x = random_codes(&mut rng, n, shape.card_x, nulls);
    let y = leaning_codes(&mut rng, &x, shape.card_y, nulls);
    let z: Vec<Codes> = shape
        .card_z
        .iter()
        .map(|&c| random_codes(&mut rng, n, c, nulls))
        .collect();
    let z_refs: Vec<&Codes> = z.iter().collect();
    let mask: Bitmap = (0..n).map(|_| rng.gen_range(0..4) != 0).collect();
    // Weights include zeros and negatives, which the row scan skips.
    let weights: Vec<f64> = (0..n)
        .map(|_| match rng.gen_range(0..10) {
            0 => 0.0,
            1 => -0.5,
            _ => rng.gen_range(0.05..4.0),
        })
        .collect();
    let ctx = InfoContext {
        mask: masked.then_some(&mask),
        weights: weighted.then_some(weights.as_slice()),
    };
    for options in [
        CiTestOptions {
            n_permutations: 40,
            cmi_shortcut: 0.0,
            seed: seed ^ 0xabc,
            ..CiTestOptions::default()
        },
        CiTestOptions::default(),
    ] {
        let got = ci_test(&ctx, &x, &y, &z_refs, &options);
        let want = ci_test_oracle(&ctx, &x, &y, &z_refs, &options);
        let what = format!(
            "seed={seed} |Z|={} card=({},{}) weighted={weighted} masked={masked} nulls={nulls} shortcut={}",
            shape.card_z.len(),
            shape.card_x,
            shape.card_y,
            options.cmi_shortcut
        );
        assert_identical(&got, &want, &what);
    }
}

#[test]
fn pooled_permute_matches_oracle_at_every_width() {
    let mut pending = 0;
    for (s, shape) in SHAPES.iter().enumerate() {
        for (weighted, masked) in [(false, false), (true, false), (false, true), (true, true)] {
            let seed = 100 + 4 * s as u64 + 2 * weighted as u64 + masked as u64;
            let mut rng = StdRng::seed_from_u64(seed);
            let n = shape.n;
            let x = random_codes(&mut rng, n, shape.card_x, true);
            let y = leaning_codes(&mut rng, &x, shape.card_y, true);
            let z: Vec<Codes> = shape
                .card_z
                .iter()
                .map(|&c| random_codes(&mut rng, n, c, false))
                .collect();
            let z_refs: Vec<&Codes> = z.iter().collect();
            let mask: Bitmap = (0..n).map(|_| rng.gen_range(0..4) != 0).collect();
            let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(0.05..4.0)).collect();
            let ctx = InfoContext {
                mask: masked.then_some(&mask),
                weights: weighted.then_some(weights.as_slice()),
            };
            // 100 permutations: thirteen blocks, the last one short.
            let options = CiTestOptions {
                cmi_shortcut: 0.0,
                seed: seed ^ 0x9e37,
                ..CiTestOptions::default()
            };
            let what = format!(
                "|Z|={} card=({},{}) weighted={weighted} masked={masked}",
                shape.card_z.len(),
                shape.card_x,
                shape.card_y
            );
            pending +=
                permute_matches_oracle_at_every_width(&ctx, &x, &y, &z_refs, &options, &what);
        }
    }
    assert_eq!(pending, 3 * 4 * SHAPES.len(), "every case permutes");
}

#[test]
fn pooled_permute_matches_oracle_on_singleton_strata() {
    let mut rng = StdRng::seed_from_u64(78);
    let n = 120;
    let x = random_codes(&mut rng, n, 3, false);
    let y = leaning_codes(&mut rng, &x, 3, false);
    let z = Codes {
        codes: (0..n as u32).collect(),
        cardinality: n as u32,
        validity: None,
    };
    let options = CiTestOptions {
        cmi_shortcut: 0.0,
        ..CiTestOptions::default()
    };
    let pending = permute_matches_oracle_at_every_width(
        &InfoContext::default(),
        &x,
        &y,
        &[&z],
        &options,
        "singleton strata",
    );
    assert_eq!(pending, 3);
}

#[test]
fn matches_oracle_on_random_inputs() {
    let mut seed = 1u64;
    for shape in SHAPES {
        for weighted in [false, true] {
            for masked in [false, true] {
                for nulls in [false, true] {
                    run_case(seed, shape, weighted, masked, nulls);
                    seed += 1;
                }
            }
        }
    }
}

#[test]
fn matches_oracle_when_every_stratum_is_one_row() {
    // Z is the row index: no stratum can be shuffled, every permuted CMI
    // equals the observed one, and the RNG is never drawn.
    let mut rng = StdRng::seed_from_u64(77);
    let n = 120;
    let x = random_codes(&mut rng, n, 3, false);
    let y = leaning_codes(&mut rng, &x, 3, false);
    let z = Codes {
        codes: (0..n as u32).collect(),
        cardinality: n as u32,
        validity: None,
    };
    let options = CiTestOptions {
        cmi_shortcut: 0.0,
        ..CiTestOptions::default()
    };
    for ctx in [InfoContext::default(), InfoContext::weighted(&[1.5; 120])] {
        let got = ci_test(&ctx, &x, &y, &[&z], &options);
        let want = ci_test_oracle(&ctx, &x, &y, &[&z], &options);
        assert_identical(&got, &want, "singleton strata");
        assert_eq!(got.p_value, 1.0);
    }
}

#[test]
fn matches_oracle_on_degenerate_supports() {
    let mut rng = StdRng::seed_from_u64(5);
    let x = random_codes(&mut rng, 40, 2, true);
    let y = random_codes(&mut rng, 40, 2, true);
    let z = random_codes(&mut rng, 40, 3, true);
    let options = CiTestOptions {
        cmi_shortcut: 0.0,
        ..CiTestOptions::default()
    };
    // Every weight non-positive: nothing is counted, the total is zero.
    let zeros = [0.0; 40];
    // A mask keeping a single row: fewer than two complete cases.
    let one: Bitmap = (0..40).map(|i| i == 7).collect();
    for ctx in [InfoContext::weighted(&zeros), InfoContext::masked(&one)] {
        for zs in [&[][..], &[&z][..]] {
            let got = ci_test(&ctx, &x, &y, zs, &options);
            let want = ci_test_oracle(&ctx, &x, &y, zs, &options);
            assert_identical(&got, &want, "degenerate support");
        }
    }
}
