//! Complete-case row selection masks.
//!
//! The counting kernels in `nexus-info` and the engine's contingency builds
//! repeatedly scan "rows inside a mask that are valid in every participating
//! column". Re-deriving that predicate per row, per build is the dominant
//! branch cost of the scoring hot path; this module folds the mask and all
//! validity bitmaps into one packed bitmap by a word-level AND, which the
//! kernels then scan a word at a time.

use crate::bitmap::Bitmap;

/// The complete-case selection as a packed bitmap: bit `i` is set when row
/// `i` lies inside `mask` (if given) and is valid in **every** bitmap of
/// `validities`.
///
/// Returns `None` when there is no constraint at all — every row qualifies
/// and callers can scan `0..len` without probing any mask. The packed form
/// feeds the kernel v2 word-at-a-time scans: the caller iterates
/// [`Bitmap::words`], skips all-zero words, and decodes set bits with
/// `trailing_zeros`, so the selection never needs index materialization.
///
/// # Panics
/// Panics if any bitmap's length differs from `len`, or if `len` exceeds
/// `u32::MAX` (callers must route such tables to a non-vectorized path).
pub fn complete_case_mask(
    len: usize,
    mask: Option<&Bitmap>,
    validities: &[&Bitmap],
) -> Option<Bitmap> {
    assert!(len <= u32::MAX as usize, "selection mask rows exceed u32");
    let mut maps: Vec<&Bitmap> = Vec::with_capacity(validities.len() + 1);
    if let Some(m) = mask {
        maps.push(m);
    }
    maps.extend_from_slice(validities);
    let combined = Bitmap::and_all(&maps)?;
    assert_eq!(combined.len(), len, "selection bitmap length mismatch");
    Some(combined)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(bm: &Bitmap) -> Vec<u32> {
        bm.iter_ones().map(|i| i as u32).collect()
    }

    #[test]
    fn no_constraints_selects_all() {
        assert!(complete_case_mask(10, None, &[]).is_none());
    }

    #[test]
    fn mask_matches_rows() {
        let mask: Bitmap = (0..200).map(|i| i % 2 == 0).collect();
        let v1: Bitmap = (0..200).map(|i| i % 3 != 1).collect();
        let bm = complete_case_mask(200, Some(&mask), &[&v1]).unwrap();
        let expect: Vec<u32> = (0..200u32).filter(|i| i % 2 == 0 && i % 3 != 1).collect();
        assert_eq!(rows(&bm), expect);
        assert_eq!(bm.len(), 200);
    }

    #[test]
    fn mask_and_validities_intersect() {
        let mask: Bitmap = (0..100).map(|i| i % 2 == 0).collect();
        let v1: Bitmap = (0..100).map(|i| i % 3 == 0).collect();
        let v2: Bitmap = (0..100).map(|i| i != 0).collect();
        let bm = complete_case_mask(100, Some(&mask), &[&v1, &v2]).unwrap();
        let expect: Vec<u32> = (1..100u32).filter(|i| i % 6 == 0).collect();
        assert_eq!(rows(&bm), expect);
    }

    #[test]
    fn mask_only() {
        let mask: Bitmap = (0..70).map(|i| i >= 64).collect();
        let bm = complete_case_mask(70, Some(&mask), &[]).unwrap();
        assert_eq!(rows(&bm), vec![64, 65, 66, 67, 68, 69]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        let mask = Bitmap::with_value(5, true);
        complete_case_mask(6, Some(&mask), &[]);
    }
}
