//! A compact bitmap used for null/validity tracking and row selection masks.

/// A growable bitmap backed by 64-bit words.
///
/// Bit `i` is stored in word `i / 64` at position `i % 64`. The bitmap tracks
/// its logical length separately so trailing bits in the last word are never
/// observable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// Creates an empty bitmap.
    pub fn new() -> Self {
        Bitmap {
            words: Vec::new(),
            len: 0,
        }
    }

    /// Creates a bitmap of `len` bits, all set to `value`.
    pub fn with_value(len: usize, value: bool) -> Self {
        let n_words = len.div_ceil(64);
        let fill = if value { u64::MAX } else { 0 };
        let mut bm = Bitmap {
            words: vec![fill; n_words],
            len,
        };
        bm.mask_tail();
        bm
    }

    /// Number of bits in the bitmap.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap holds zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(
            i < self.len,
            "bit {i} out of bounds for bitmap of {}",
            self.len
        );
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets bit `i` to `value`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(
            i < self.len,
            "bit {i} out of bounds for bitmap of {}",
            self.len
        );
        let word = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        if value {
            *word |= mask;
        } else {
            *word &= !mask;
        }
    }

    /// Appends a bit.
    pub fn push(&mut self, value: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        self.len += 1;
        if value {
            let i = self.len - 1;
            self.words[i / 64] |= 1u64 << (i % 64);
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of unset bits.
    pub fn count_zeros(&self) -> usize {
        self.len - self.count_ones()
    }

    /// Whether every bit is set.
    pub fn all(&self) -> bool {
        self.count_ones() == self.len
    }

    /// Whether any bit is set.
    pub fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    /// Bitwise AND of two bitmaps of equal length.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn and(&self, other: &Bitmap) -> Bitmap {
        assert_eq!(self.len, other.len, "bitmap length mismatch in and()");
        Bitmap {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a & b)
                .collect(),
            len: self.len,
        }
    }

    /// Bitwise OR of two bitmaps of equal length.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn or(&self, other: &Bitmap) -> Bitmap {
        assert_eq!(self.len, other.len, "bitmap length mismatch in or()");
        Bitmap {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a | b)
                .collect(),
            len: self.len,
        }
    }

    /// AND-combines any number of bitmaps word-by-word.
    ///
    /// Returns `None` when `maps` is empty (no constraint — every row
    /// selected), so callers can skip materializing an all-ones bitmap.
    ///
    /// # Panics
    /// Panics if the bitmaps disagree on length.
    pub fn and_all(maps: &[&Bitmap]) -> Option<Bitmap> {
        let (first, rest) = maps.split_first()?;
        let mut out = (*first).clone();
        for m in rest {
            assert_eq!(out.len, m.len, "bitmap length mismatch in and_all()");
            for (a, b) in out.words.iter_mut().zip(&m.words) {
                *a &= b;
            }
        }
        Some(out)
    }

    /// Bitwise NOT.
    pub fn not(&self) -> Bitmap {
        let mut bm = Bitmap {
            words: self.words.iter().map(|w| !w).collect(),
            len: self.len,
        };
        bm.mask_tail();
        bm
    }

    /// Iterator over the indices of set bits, in increasing order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(move |(wi, &w)| {
            let base = wi * 64;
            BitIter { word: w, base }
        })
    }

    /// Iterator over the set bits in `rows`, in increasing order, read a
    /// word at a time.
    ///
    /// # Panics
    /// Panics if `rows.end > len()`.
    pub fn iter_ones_in(&self, rows: std::ops::Range<usize>) -> impl Iterator<Item = usize> + '_ {
        assert!(
            rows.end <= self.len,
            "rows {rows:?} out of bounds for bitmap of {}",
            self.len
        );
        let words = if rows.start >= rows.end {
            0..0
        } else {
            rows.start / 64..rows.end.div_ceil(64)
        };
        self.words[words.clone()]
            .iter()
            .zip(words)
            .flat_map(move |(&w, wi)| {
                let base = wi * 64;
                // Clear the bits outside `rows` in the two edge words.
                let lo = rows.start.saturating_sub(base).min(64);
                let hi = (rows.end - base).min(64);
                let keep_lo = if lo == 64 { 0 } else { u64::MAX << lo };
                let keep_hi = if hi == 64 { u64::MAX } else { (1u64 << hi) - 1 };
                BitIter {
                    word: w & keep_lo & keep_hi,
                    base,
                }
            })
    }

    /// Iterator over all bits as booleans.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Collects the set-bit indices into a vector.
    pub fn ones(&self) -> Vec<usize> {
        self.iter_ones().collect()
    }

    /// The backing 64-bit words. Bits at positions `>= len()` in the last
    /// word are guaranteed zero, so the words are a canonical serialization
    /// of the bitmap.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuilds a bitmap of `len` bits from backing words (the inverse of
    /// [`Bitmap::words`]).
    ///
    /// Returns an error when the word count does not match
    /// `len.div_ceil(64)` or when a bit beyond `len` is set — both indicate
    /// a corrupt or non-canonical serialization rather than a recoverable
    /// shape.
    pub fn from_words(words: Vec<u64>, len: usize) -> crate::error::Result<Self> {
        let n_words = len.div_ceil(64);
        if words.len() != n_words {
            return Err(crate::error::TableError::InvalidArgument(format!(
                "bitmap of {len} bits needs {n_words} words, got {}",
                words.len()
            )));
        }
        let rem = len % 64;
        if rem != 0 {
            if let Some(&last) = words.last() {
                if last & !((1u64 << rem) - 1) != 0 {
                    return Err(crate::error::TableError::InvalidArgument(format!(
                        "bitmap tail word has bits set beyond length {len}"
                    )));
                }
            }
        }
        Ok(Bitmap { words, len })
    }

    /// Clears any bits beyond `len` in the final word so popcounts stay exact.
    fn mask_tail(&mut self) {
        let rem = self.len % 64;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
        // Drop excess words (possible after construction with a large buffer).
        let n_words = self.len.div_ceil(64);
        self.words.truncate(n_words);
    }
}

impl Default for Bitmap {
    fn default() -> Self {
        Self::new()
    }
}

impl FromIterator<bool> for Bitmap {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let mut bm = Bitmap::new();
        for b in iter {
            bm.push(b);
        }
        bm
    }
}

struct BitIter {
    word: u64,
    base: usize,
}

impl Iterator for BitIter {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.word == 0 {
            return None;
        }
        let tz = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + tz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_set_roundtrip() {
        let mut bm = Bitmap::new();
        for i in 0..200 {
            bm.push(i % 3 == 0);
        }
        assert_eq!(bm.len(), 200);
        for i in 0..200 {
            assert_eq!(bm.get(i), i % 3 == 0, "bit {i}");
        }
        bm.set(1, true);
        assert!(bm.get(1));
        bm.set(0, false);
        assert!(!bm.get(0));
    }

    #[test]
    fn with_value_true_counts() {
        let bm = Bitmap::with_value(130, true);
        assert_eq!(bm.count_ones(), 130);
        assert!(bm.all());
        let bm = Bitmap::with_value(130, false);
        assert_eq!(bm.count_ones(), 0);
        assert!(!bm.any());
    }

    #[test]
    fn logical_ops() {
        let a: Bitmap = (0..100).map(|i| i % 2 == 0).collect();
        let b: Bitmap = (0..100).map(|i| i % 3 == 0).collect();
        let and = a.and(&b);
        let or = a.or(&b);
        for i in 0..100 {
            assert_eq!(and.get(i), i % 6 == 0);
            assert_eq!(or.get(i), i % 2 == 0 || i % 3 == 0);
        }
        let not = a.not();
        assert_eq!(not.count_ones(), 50);
        // Tail bits beyond len must not leak into popcounts.
        assert_eq!(not.count_ones() + a.count_ones(), 100);
    }

    #[test]
    fn iter_ones_matches_gets() {
        let bm: Bitmap = (0..150).map(|i| i % 7 == 0).collect();
        let ones: Vec<usize> = bm.iter_ones().collect();
        let expect: Vec<usize> = (0..150).filter(|i| i % 7 == 0).collect();
        assert_eq!(ones, expect);
    }

    #[test]
    fn and_all_combines_word_wise() {
        let a: Bitmap = (0..130).map(|i| i % 2 == 0).collect();
        let b: Bitmap = (0..130).map(|i| i % 3 == 0).collect();
        let c: Bitmap = (0..130).map(|i| i % 5 == 0).collect();
        let combined = Bitmap::and_all(&[&a, &b, &c]).unwrap();
        for i in 0..130 {
            assert_eq!(combined.get(i), i % 30 == 0, "bit {i}");
        }
        assert_eq!(Bitmap::and_all(&[&a]).unwrap(), a);
        assert!(Bitmap::and_all(&[]).is_none());
    }

    #[test]
    fn iter_ones_in_matches_filtered_iter_ones() {
        let bm: Bitmap = (0..300).map(|i| i % 5 != 1 && i % 7 != 0).collect();
        for (lo, hi) in [
            (0, 300),
            (0, 64),
            (64, 128),
            (3, 70),
            (130, 131),
            (7, 7),
            (299, 300),
        ] {
            let got: Vec<usize> = bm.iter_ones_in(lo..hi).collect();
            let want: Vec<usize> = bm.iter_ones().filter(|&i| i >= lo && i < hi).collect();
            assert_eq!(got, want, "rows {lo}..{hi}");
        }
    }

    #[test]
    fn empty_bitmap() {
        let bm = Bitmap::new();
        assert!(bm.is_empty());
        assert_eq!(bm.count_ones(), 0);
        assert!(bm.all()); // vacuously true
        assert!(!bm.any());
        assert_eq!(bm.iter_ones().count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let bm = Bitmap::with_value(10, true);
        bm.get(10);
    }
}
