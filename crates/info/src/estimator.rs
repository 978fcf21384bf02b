//! The estimator façade: entropy / MI / CMI over [`Codes`] variables with an
//! optional row mask (the query context `C`) and optional IPW weights.
//!
//! All quantities are plug-in (maximum-likelihood) estimates in **bits** over
//! the rows that are inside the mask and valid in *every* participating
//! variable — the "complete cases" of the paper, optionally reweighted.

use nexus_table::{Bitmap, Codes};

use crate::counter::JointCounts;
use crate::fold::{CmiFolds, EntropyFold};

/// Estimation context: a row subset and per-row weights.
///
/// `InfoContext::default()` estimates over all rows, unweighted.
#[derive(Debug, Clone, Copy, Default)]
pub struct InfoContext<'a> {
    /// Row subset (the query context `C`); `None` means all rows.
    pub mask: Option<&'a Bitmap>,
    /// Inverse-probability weights; `None` means unweighted.
    pub weights: Option<&'a [f64]>,
}

impl<'a> InfoContext<'a> {
    /// A context restricted to `mask`.
    pub fn masked(mask: &'a Bitmap) -> Self {
        InfoContext {
            mask: Some(mask),
            weights: None,
        }
    }

    /// A context with IPW weights.
    pub fn weighted(weights: &'a [f64]) -> Self {
        InfoContext {
            mask: None,
            weights: Some(weights),
        }
    }

    /// Entropy `H(X)` in bits.
    pub fn entropy(&self, x: &Codes) -> f64 {
        JointCounts::count(&[x], self.mask, self.weights).entropy()
    }

    /// Joint entropy `H(X₁,…,Xₙ)` in bits.
    ///
    /// # Panics
    /// Panics if `vars` is empty.
    pub fn joint_entropy(&self, vars: &[&Codes]) -> f64 {
        JointCounts::count(vars, self.mask, self.weights).entropy()
    }

    /// Conditional entropy `H(X | Z₁,…,Zₙ)` in bits.
    ///
    /// With an empty `given`, this is plain `H(X)`.
    pub fn conditional_entropy(&self, x: &Codes, given: &[&Codes]) -> f64 {
        if given.is_empty() {
            return self.entropy(x);
        }
        let mut vars: Vec<&Codes> = Vec::with_capacity(given.len() + 1);
        vars.push(x);
        vars.extend_from_slice(given);
        let joint = JointCounts::count(&vars, self.mask, self.weights);
        let z_idx: Vec<usize> = (1..vars.len()).collect();
        (joint.entropy() - joint.marginal_entropy(&z_idx)).max(0.0)
    }

    /// Mutual information `I(X;Y)` in bits, over rows valid in both.
    pub fn mutual_information(&self, x: &Codes, y: &Codes) -> f64 {
        self.cmi(x, y, &[])
    }

    /// Conditional mutual information `I(X;Y | Z₁,…,Zₙ)` in bits.
    ///
    /// `I(X;Y|Z) = H(X,Z) + H(Y,Z) − H(X,Y,Z) − H(Z)`, all estimated on the
    /// common complete-case support. With empty `z` this reduces to
    /// `I(X;Y)`.
    pub fn cmi(&self, x: &Codes, y: &Codes, z: &[&Codes]) -> f64 {
        let (folds, total) = self.cmi_folds(x, y, z);
        folds.cmi(total, !z.is_empty())
    }

    /// Number of complete-case rows shared by `vars` under the mask.
    pub fn support(&self, vars: &[&Codes]) -> usize {
        JointCounts::count(vars, self.mask, self.weights).rows
    }

    /// Miller–Madow bias-corrected `I(X;Y)` (see
    /// [`crate::counter::entropy_mm`]). Use when comparing MI values across
    /// different complete-case supports.
    pub fn mutual_information_mm(&self, x: &Codes, y: &Codes) -> f64 {
        self.cmi_mm(x, y, &[])
    }

    /// Miller–Madow bias-corrected `I(X;Y|Z)`. The correction makes CMIs
    /// comparable across candidates with different complete-case supports.
    pub fn cmi_mm(&self, x: &Codes, y: &Codes, z: &[&Codes]) -> f64 {
        let (folds, total) = self.cmi_folds(x, y, z);
        folds.cmi_mm(total, !z.is_empty())
    }

    /// The folds of `I(X;Y|Z)`'s entropy terms, and the sample total, from
    /// one joint count over `(X, Y, Z…)`: the joint itself and its
    /// `(X, Z)`, `(Y, Z)` and (with a nonempty `z`) `Z` marginals.
    fn cmi_folds(&self, x: &Codes, y: &Codes, z: &[&Codes]) -> (CmiFolds, f64) {
        let mut vars: Vec<&Codes> = Vec::with_capacity(z.len() + 2);
        vars.push(x);
        vars.push(y);
        vars.extend_from_slice(z);
        let joint = JointCounts::count(&vars, self.mask, self.weights);
        let with_z =
            |first: usize| -> Vec<usize> { std::iter::once(first).chain(2..vars.len()).collect() };
        let folds = CmiFolds {
            xyz: joint.fold(),
            xz: joint.marginal_fold(&with_z(0)),
            yz: joint.marginal_fold(&with_z(1)),
            z: if z.is_empty() {
                EntropyFold::default()
            } else {
                joint.marginal_fold(&(2..vars.len()).collect::<Vec<_>>())
            },
        };
        (folds, joint.total)
    }
}

/// Convenience: unmasked, unweighted `H(X)`.
pub fn entropy(x: &Codes) -> f64 {
    InfoContext::default().entropy(x)
}

/// Convenience: unmasked, unweighted `I(X;Y)`.
pub fn mutual_information(x: &Codes, y: &Codes) -> f64 {
    InfoContext::default().mutual_information(x, y)
}

/// Convenience: unmasked, unweighted `I(X;Y|Z)`.
pub fn cmi(x: &Codes, y: &Codes, z: &[&Codes]) -> f64 {
    InfoContext::default().cmi(x, y, z)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(values: &[u32], card: u32) -> Codes {
        Codes {
            codes: values.to_vec(),
            cardinality: card,
            validity: None,
        }
    }

    #[test]
    fn mi_of_identical_variables_is_entropy() {
        let x = codes(&[0, 1, 2, 0, 1, 2, 0, 0], 3);
        let h = entropy(&x);
        let i = mutual_information(&x, &x);
        assert!((h - i).abs() < 1e-12);
        assert!(h > 0.0);
    }

    #[test]
    fn mi_of_independent_variables_is_zero() {
        // Perfectly balanced independent design.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for x in 0..4u32 {
            for y in 0..4u32 {
                xs.push(x);
                ys.push(y);
            }
        }
        let x = codes(&xs, 4);
        let y = codes(&ys, 4);
        assert!(mutual_information(&x, &y).abs() < 1e-12);
    }

    #[test]
    fn mi_symmetry() {
        let x = codes(&[0, 1, 1, 0, 2, 2, 1], 3);
        let y = codes(&[1, 0, 1, 1, 0, 1, 0], 2);
        assert!((mutual_information(&x, &y) - mutual_information(&y, &x)).abs() < 1e-12);
    }

    #[test]
    fn cmi_explains_away_confounder() {
        // Z uniform; X = Z, Y = Z: I(X;Y) = H(Z) > 0, but I(X;Y|Z) = 0.
        let z_vals: Vec<u32> = (0..64).map(|i| i % 4).collect();
        let z = codes(&z_vals, 4);
        let x = codes(&z_vals, 4);
        let y = codes(&z_vals, 4);
        assert!(mutual_information(&x, &y) > 1.9);
        assert!(cmi(&x, &y, &[&z]).abs() < 1e-9);
    }

    #[test]
    fn cmi_with_empty_conditioning_is_mi() {
        let x = codes(&[0, 1, 0, 1, 1], 2);
        let y = codes(&[0, 1, 1, 1, 0], 2);
        assert!((cmi(&x, &y, &[]) - mutual_information(&x, &y)).abs() < 1e-12);
    }

    #[test]
    fn chain_rule_holds() {
        // H(X,Y) = H(X) + H(Y|X) for arbitrary data.
        let x = codes(&[0, 1, 2, 0, 1, 2, 2, 1, 0, 0], 3);
        let y = codes(&[1, 0, 1, 1, 0, 0, 1, 1, 0, 1], 2);
        let ctx = InfoContext::default();
        let lhs = ctx.joint_entropy(&[&x, &y]);
        let rhs = ctx.entropy(&x) + ctx.conditional_entropy(&y, &[&x]);
        assert!((lhs - rhs).abs() < 1e-12);
    }

    #[test]
    fn conditioning_reduces_entropy() {
        let x = codes(&[0, 1, 2, 3, 0, 1, 2, 3], 4);
        let y = codes(&[0, 0, 1, 1, 0, 0, 1, 1], 2);
        let ctx = InfoContext::default();
        assert!(ctx.conditional_entropy(&x, &[&y]) <= ctx.entropy(&x) + 1e-12);
    }

    #[test]
    fn masked_estimation_restricts_rows() {
        let x = codes(&[0, 0, 1, 1], 2);
        let y = codes(&[0, 1, 0, 1], 2);
        // On the full data X,Y independent; restricted to rows {0,3}, X=Y.
        let mask: Bitmap = vec![true, false, false, true].into_iter().collect();
        let ctx = InfoContext::masked(&mask);
        assert!((ctx.mutual_information(&x, &y) - 1.0).abs() < 1e-12);
        assert_eq!(ctx.support(&[&x, &y]), 2);
    }

    #[test]
    fn weighted_mi_reweights_rows() {
        // Rows: (0,0),(1,1),(0,1),(1,0) each once -> MI = 0.
        let x = codes(&[0, 1, 0, 1], 2);
        let y = codes(&[0, 1, 1, 0], 2);
        assert!(mutual_information(&x, &y).abs() < 1e-12);
        // Heavily upweight the diagonal rows -> strong dependence.
        let w = [10.0, 10.0, 1.0, 1.0];
        let ctx = InfoContext::weighted(&w);
        assert!(ctx.mutual_information(&x, &y) > 0.3);
    }

    #[test]
    fn null_rows_excluded_from_support() {
        let mut x = codes(&[0, 1, 0, 1], 2);
        let mut v = Bitmap::with_value(4, true);
        v.set(0, false);
        x.validity = Some(v);
        let y = codes(&[0, 1, 1, 0], 2);
        let ctx = InfoContext::default();
        assert_eq!(ctx.support(&[&x, &y]), 3);
        assert_eq!(ctx.support(&[&y]), 4);
    }

    #[test]
    fn cmi_nonnegative_on_noise() {
        // Deterministic pseudo-random codes; plug-in CMI must stay >= 0.
        let n = 500;
        let mut s = 12345u64;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 33) as u32
        };
        let x = codes(&(0..n).map(|_| next() % 3).collect::<Vec<_>>(), 3);
        let y = codes(&(0..n).map(|_| next() % 4).collect::<Vec<_>>(), 4);
        let z = codes(&(0..n).map(|_| next() % 2).collect::<Vec<_>>(), 2);
        let v = cmi(&x, &y, &[&z]);
        assert!(v >= 0.0);
    }
}
