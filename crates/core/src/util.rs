//! Small utilities: day bitsets and robust statistics.

/// A bitset indexed by measured-day position.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DayBits {
    words: Box<[u64]>,
    len: usize,
}

impl DayBits {
    /// A bitset for `len` days, all clear.
    pub fn new(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)].into_boxed_slice(),
            len,
        }
    }

    /// Number of day slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no day slots exist.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets day `i`, growing the set to `i + 1` days if it is shorter.
    pub fn set(&mut self, i: usize) {
        self.extend_to(i + 1);
        if let Some(w) = self.words.get_mut(i / 64) {
            *w |= 1 << (i % 64);
        }
    }

    /// Grows the set to `len` days, the new ones clear; a set of at least
    /// `len` days is unchanged. Allocates exactly the words it needs.
    pub(crate) fn extend_to(&mut self, len: usize) {
        if len > self.len {
            let mut words = std::mem::take(&mut self.words).into_vec();
            words.reserve_exact(len.div_ceil(64) - words.len());
            words.resize(len.div_ceil(64), 0);
            self.words = words.into_boxed_slice();
            self.len = len;
        }
    }

    /// Reads day `i`. Out-of-range days read as unset.
    pub fn get(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|w| w & (1 << (i % 64)) != 0)
    }

    /// Number of set days.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// First set day, if any.
    pub fn first(&self) -> Option<usize> {
        for (w, word) in self.words.iter().enumerate() {
            if *word != 0 {
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Last set day, if any.
    pub fn last(&self) -> Option<usize> {
        for (w, word) in self.words.iter().enumerate().rev() {
            if *word != 0 {
                return Some(w * 64 + 63 - word.leading_zeros() as usize);
            }
        }
        None
    }

    /// Maximal runs of consecutive set days as `(start, len)` pairs.
    pub fn runs(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let mut start = None;
        for i in 0..self.len {
            match (self.get(i), start) {
                (true, None) => start = Some(i),
                (false, Some(s)) => {
                    out.push((s, i - s));
                    start = None;
                }
                _ => {}
            }
        }
        if let Some(s) = start {
            out.push((s, self.len - s));
        }
        out
    }

    /// True if the set days form one contiguous block (no gap days between
    /// first and last) — the paper's always-on criterion.
    pub fn is_gapless(&self) -> bool {
        match (self.first(), self.last()) {
            (Some(f), Some(l)) => self.count() == l - f + 1,
            _ => true,
        }
    }
}

/// Median of a slice (averaging is not needed: we keep the lower median to
/// stay integral, which is irrelevant at series scale).
pub fn median_u32(values: &mut [u32]) -> u32 {
    if values.is_empty() {
        return 0;
    }
    let mid = values.len() / 2;
    *values.select_nth_unstable(mid).1
}

/// Median absolute deviation of a f64 slice around its median.
pub fn mad(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let med = v[v.len() / 2];
    let mut dev: Vec<f64> = v.iter().map(|x| (x - med).abs()).collect();
    dev.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    dev[dev.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_count() {
        let mut b = DayBits::new(130);
        for i in [0usize, 63, 64, 129] {
            b.set(i);
        }
        assert!(b.get(0) && b.get(63) && b.get(64) && b.get(129));
        assert!(!b.get(1));
        assert_eq!(b.count(), 4);
        assert_eq!(b.first(), Some(0));
        assert_eq!(b.last(), Some(129));
    }

    #[test]
    fn set_grows_and_extend_pads() {
        let mut grown = DayBits::default();
        grown.set(3);
        grown.set(70);
        assert_eq!(grown.len(), 71);
        grown.extend_to(130);
        grown.extend_to(5);
        let mut fixed = DayBits::new(130);
        fixed.set(3);
        fixed.set(70);
        assert_eq!(grown, fixed);
    }

    #[test]
    fn runs_and_gaplessness() {
        let mut b = DayBits::new(20);
        for i in 3..8 {
            b.set(i);
        }
        for i in 12..14 {
            b.set(i);
        }
        assert_eq!(b.runs(), vec![(3, 5), (12, 2)]);
        assert!(!b.is_gapless());

        let mut c = DayBits::new(10);
        for i in 2..9 {
            c.set(i);
        }
        assert!(c.is_gapless());
        assert_eq!(c.runs(), vec![(2, 7)]);

        let empty = DayBits::new(5);
        assert!(empty.is_gapless());
        assert!(empty.runs().is_empty());
    }

    #[test]
    fn run_to_the_end_is_closed() {
        let mut b = DayBits::new(6);
        b.set(4);
        b.set(5);
        assert_eq!(b.runs(), vec![(4, 2)]);
    }

    #[test]
    fn median_works() {
        let mut v = vec![5u32, 1, 9, 3, 7];
        assert_eq!(median_u32(&mut v), 5);
        let mut v = vec![4u32, 2];
        assert_eq!(median_u32(&mut v), 4); // upper of the two mids
        assert_eq!(median_u32(&mut []), 0);
    }

    #[test]
    fn mad_is_robust() {
        let values = [1.0, 1.0, 1.0, 1.0, 100.0];
        assert_eq!(mad(&values), 0.0);
        let values = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(mad(&values), 1.0);
    }
}
