//! Bit sets used by the solver's graph algorithms.
//!
//! [`BitSet`] is a plain growable bit set; [`EpochSet`] is a "visited marks"
//! structure that can be cleared in O(1) by bumping an epoch counter — the
//! online cycle-detection search runs on *every* variable-variable edge
//! addition, so clearing a bitmap per search would dominate its cost.

/// A growable bit set over `usize` elements.
///
/// # Examples
///
/// ```
/// use bane_util::BitSet;
///
/// let mut s = BitSet::new(10);
/// assert!(s.insert(3));
/// assert!(!s.insert(3), "already present");
/// assert!(s.contains(3));
/// assert_eq!(s.count(), 1);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// Creates a set sized for elements `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        Self { words: vec![0; capacity.div_ceil(64)] }
    }

    fn ensure(&mut self, bit: usize) {
        let word = bit / 64;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
    }

    /// Inserts `bit`; returns `true` if it was newly inserted.
    pub fn insert(&mut self, bit: usize) -> bool {
        self.ensure(bit);
        let (w, b) = (bit / 64, bit % 64);
        let mask = 1u64 << b;
        let fresh = self.words[w] & mask == 0;
        self.words[w] |= mask;
        fresh
    }

    /// Removes `bit`; returns `true` if it was present.
    pub fn remove(&mut self, bit: usize) -> bool {
        let (w, b) = (bit / 64, bit % 64);
        if w >= self.words.len() {
            return false;
        }
        let mask = 1u64 << b;
        let present = self.words[w] & mask != 0;
        self.words[w] &= !mask;
        present
    }

    /// Whether `bit` is present.
    pub fn contains(&self, bit: usize) -> bool {
        let (w, b) = (bit / 64, bit % 64);
        self.words.get(w).is_some_and(|word| word & (1 << b) != 0)
    }

    /// Number of elements present.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes all elements (keeps capacity).
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Unions `other` into `self`; returns `true` if `self` changed.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        let mut changed = false;
        for (dst, &src) in self.words.iter_mut().zip(&other.words) {
            let old = *dst;
            *dst |= src;
            changed |= *dst != old;
        }
        changed
    }

    /// Iterates over the elements in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let mut w = word;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let b = w.trailing_zeros() as usize;
                w &= w - 1;
                Some(wi * 64 + b)
            })
        })
    }
}

impl FromIterator<usize> for BitSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut s = BitSet::default();
        for bit in iter {
            s.insert(bit);
        }
        s
    }
}

/// An epoch counter usable as the stamp type of an [`EpochSetImpl`].
///
/// Production code uses `u32` (one physical reset per 2^32 generations);
/// tests parameterize over `u8` so the wraparound path runs after only 255
/// generations and its reset semantics can be pinned cheaply.
pub trait EpochStamp: Copy + Eq + Default {
    /// The first generation after a physical reset. Must differ from
    /// `Self::default()`, which is the "never marked" stamp.
    const ONE: Self;

    /// The next generation, or `None` on overflow (the caller must then
    /// physically reset all stamps and restart from [`EpochStamp::ONE`]).
    fn next(self) -> Option<Self>;
}

impl EpochStamp for u32 {
    const ONE: Self = 1;

    fn next(self) -> Option<Self> {
        self.checked_add(1)
    }
}

impl EpochStamp for u8 {
    const ONE: Self = 1;

    fn next(self) -> Option<Self> {
        self.checked_add(1)
    }
}

/// A visited-marks set with O(1) clearing via epoch stamps, generic over the
/// stamp width. Use the [`EpochSet`] alias unless testing wraparound.
///
/// # Examples
///
/// ```
/// use bane_util::EpochSet;
///
/// let mut v = EpochSet::new(8);
/// v.begin();
/// assert!(v.mark(2));
/// assert!(!v.mark(2));
/// v.begin(); // O(1) clear
/// assert!(v.mark(2));
/// ```
#[derive(Clone, Debug)]
pub struct EpochSetImpl<E: EpochStamp = u32> {
    stamps: Vec<E>,
    epoch: E,
    resets: u64,
}

impl<E: EpochStamp> Default for EpochSetImpl<E> {
    fn default() -> Self {
        Self::new(0)
    }
}

/// The production epoch set: `u32` stamps, one physical reset per 2^32
/// generations.
pub type EpochSet = EpochSetImpl<u32>;

impl<E: EpochStamp> EpochSetImpl<E> {
    /// Creates a set sized for elements `0..capacity`.
    ///
    /// The epoch starts at [`EpochStamp::ONE`], never at `E::default()`:
    /// `default` is the "never marked" stamp every fresh (or grown) slot
    /// carries, so an epoch equal to it would make unmarked elements read as
    /// marked — and a `grow` during that state would resurrect stale marks.
    pub fn new(capacity: usize) -> Self {
        Self { stamps: vec![E::default(); capacity], epoch: E::ONE, resets: 0 }
    }

    /// Starts a new generation, logically clearing all marks.
    pub fn begin(&mut self) {
        self.epoch = self.epoch.next().unwrap_or_else(|| {
            // Wrapped: physically reset (for u32, once per 2^32 searches).
            self.stamps.fill(E::default());
            self.resets += 1;
            E::ONE
        });
    }

    /// Number of physical wraparound resets so far (the `epoch.resets`
    /// observability counter).
    pub fn resets(&self) -> u64 {
        self.resets
    }

    /// Returns to the state of a new set of the same capacity: no marks,
    /// the first epoch and no resets counted. Keeps the stamp buffer.
    pub fn clear(&mut self) {
        self.stamps.fill(E::default());
        self.epoch = E::ONE;
        self.resets = 0;
    }

    /// Grows the domain to hold elements `0..capacity`.
    ///
    /// Safe mid-generation: new slots get the `E::default()` "never marked"
    /// stamp, which (by construction — the epoch starts at
    /// [`EpochStamp::ONE`] and only counts up) can never equal the active
    /// epoch, so growing cannot resurrect marks.
    pub fn grow(&mut self, capacity: usize) {
        debug_assert!(self.epoch != E::default(), "active epoch aliases the fresh stamp");
        if capacity > self.stamps.len() {
            self.stamps.resize(capacity, E::default());
        }
    }

    /// Marks `elem`; returns `true` if it was unmarked in this generation.
    ///
    /// Grows the set if `elem` is out of range.
    pub fn mark(&mut self, elem: usize) -> bool {
        if elem >= self.stamps.len() {
            self.stamps.resize(elem + 1, E::default());
        }
        if self.stamps[elem] == self.epoch {
            false
        } else {
            self.stamps[elem] = self.epoch;
            true
        }
    }

    /// Whether `elem` is marked in the current generation.
    pub fn is_marked(&self, elem: usize) -> bool {
        self.stamps.get(elem).is_some_and(|&s| s == self.epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(0);
        assert!(s.is_empty());
        assert!(s.insert(100)); // auto-grow
        assert!(s.contains(100));
        assert!(!s.contains(99));
        assert!(!s.insert(100));
        assert!(s.remove(100));
        assert!(!s.remove(100));
        assert!(s.is_empty());
        assert!(!s.remove(100_000)); // out of range is a no-op
    }

    #[test]
    fn count_and_iter() {
        let s: BitSet = [1usize, 63, 64, 65, 200].into_iter().collect();
        assert_eq!(s.count(), 5);
        let elems: Vec<_> = s.iter().collect();
        assert_eq!(elems, vec![1, 63, 64, 65, 200]);
    }

    #[test]
    fn union() {
        let mut a: BitSet = [1usize, 2].into_iter().collect();
        let b: BitSet = [2usize, 300].into_iter().collect();
        assert!(a.union_with(&b));
        assert!(!a.union_with(&b), "idempotent");
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 2, 300]);
    }

    #[test]
    fn clear_retains_capacity() {
        let mut s: BitSet = (0..100).collect();
        s.clear();
        assert!(s.is_empty());
        assert!(!s.contains(50));
    }

    #[test]
    fn epoch_set_generations() {
        let mut v = EpochSet::new(4);
        v.begin();
        assert!(v.mark(0));
        assert!(v.is_marked(0));
        assert!(!v.mark(0));
        v.begin();
        assert!(!v.is_marked(0));
        assert!(v.mark(0));
        // Auto-grow beyond initial capacity.
        assert!(v.mark(1000));
        assert!(v.is_marked(1000));
        assert!(!v.is_marked(999));
    }

    /// Regression: the construction-time epoch must differ from the fresh
    /// stamp. Before the fix, a set that had never seen `begin()` sat at
    /// `epoch == E::default()`, so never-marked elements read as marked and
    /// `mark` reported them as duplicates.
    #[test]
    fn fresh_set_has_no_marks_before_any_begin() {
        let mut v = EpochSet::new(4);
        assert!(!v.is_marked(0));
        assert!(!v.is_marked(3));
        assert!(v.mark(0), "first mark of a fresh element must be fresh");
        assert!(!v.mark(0));
        assert!(v.is_marked(0));
    }

    /// Regression: growing during an active generation must not resurrect
    /// stale marks. Before the fix, growth in the pre-`begin` state handed
    /// every new slot the current epoch, making untouched elements marked.
    #[test]
    fn grow_during_active_epoch_does_not_resurrect_stale_marks() {
        let mut v = EpochSet::new(2);
        v.mark(1);
        v.grow(64);
        assert!(v.is_marked(1), "existing marks survive growth");
        for elem in [2, 10, 63] {
            assert!(!v.is_marked(elem), "grown slot {elem} must start unmarked");
        }
        assert!(v.mark(10));
        // Same invariant after an explicit generation bump.
        v.begin();
        v.mark(0);
        v.grow(256);
        assert!(v.is_marked(0));
        assert!(!v.is_marked(100));
    }

    #[test]
    fn epoch_set_grow_preserves_marks() {
        let mut v = EpochSet::new(2);
        v.begin();
        v.mark(1);
        v.grow(100);
        assert!(v.is_marked(1));
        assert!(!v.is_marked(50));
    }

    /// With `u8` stamps the epoch wraps after 255 generations; the physical
    /// reset must restart cleanly and leave no stale marks behind.
    #[test]
    fn tiny_epoch_wraparound_resets_physically() {
        let mut v: EpochSetImpl<u8> = EpochSetImpl::new(4);
        for gen in 0..600usize {
            v.begin();
            assert!(!v.is_marked(gen % 4), "stale mark survived into gen {gen}");
            assert!(v.mark(gen % 4));
            assert!(!v.mark(gen % 4));
            assert!(v.is_marked(gen % 4));
        }
        // 600 begins over u8: wraps at generation 256 and 511.
        assert_eq!(v.resets(), 2);
        let mut big: EpochSet = EpochSet::new(4);
        for _ in 0..600 {
            big.begin();
        }
        assert_eq!(big.resets(), 0, "u32 stamps never wrap in practice");
    }
}
