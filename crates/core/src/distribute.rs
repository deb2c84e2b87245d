//! Host-side distribution and collection of elements.
//!
//! The paper's host distributes `⌊M/N'⌋` elements to each of the `N'` live
//! processors, filling with dummy keys (`∞`) when `M` does not divide evenly
//! (§2.1). We realize `∞` as [`Padded::Dummy`], which compares greater than
//! every real key, so dummies sink to the global tail and are stripped at
//! gather time.

/// A key extended with the paper's `∞` dummy value.
///
/// Derived ordering makes every `Real` key less than `Dummy`, so padded
/// processors behave as if they held `+∞` sentinels.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Padded<K> {
    /// An actual input key.
    Real(K),
    /// The `∞` filler.
    Dummy,
}

impl<K> Padded<K> {
    /// Extracts the real key, if any.
    pub fn into_real(self) -> Option<K> {
        match self {
            Padded::Real(k) => Some(k),
            Padded::Dummy => None,
        }
    }

    /// Whether this is a real key.
    pub fn is_real(&self) -> bool {
        matches!(self, Padded::Real(_))
    }
}

/// Splits `data` into `parts` chunks of exactly `⌈data.len()/parts⌉` padded
/// keys each — the host's scatter step. Chunks are filled in order; the last
/// chunks carry the dummies.
///
/// # Panics
/// If `parts == 0`.
pub fn scatter<K>(data: Vec<K>, parts: usize) -> Vec<Vec<Padded<K>>> {
    assert!(parts > 0, "cannot scatter to zero processors");
    let k = data.len().div_ceil(parts).max(1);
    let mut chunks: Vec<Vec<Padded<K>>> = Vec::with_capacity(parts);
    let mut it = data.into_iter();
    for _ in 0..parts {
        let mut chunk = Vec::with_capacity(k);
        for _ in 0..k {
            chunk.push(match it.next() {
                Some(x) => Padded::Real(x),
                None => Padded::Dummy,
            });
        }
        chunks.push(chunk);
    }
    debug_assert!(it.next().is_none());
    chunks
}

/// Reassembles sorted output: concatenates the chunks in the given order and
/// strips the dummy keys — the host's gather step.
pub fn gather<K>(chunks: impl IntoIterator<Item = Vec<Padded<K>>>) -> Vec<K> {
    chunks
        .into_iter()
        .flatten()
        .filter_map(Padded::into_real)
        .collect()
}

/// Elements per processor for `m_total` elements over `parts` processors —
/// the paper's `⌈M/N'⌉` (at least 1 so every processor holds a run).
pub fn chunk_len(m_total: usize, parts: usize) -> usize {
    assert!(parts > 0);
    m_total.div_ceil(parts).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dummy_sorts_above_all_real_keys() {
        assert!(Padded::Real(u32::MAX) < Padded::Dummy);
        assert!(Padded::Real(0u32) < Padded::Real(1u32));
        assert_eq!(Padded::<u32>::Dummy, Padded::Dummy);
        let mut v = vec![
            Padded::Dummy,
            Padded::Real(5),
            Padded::Dummy,
            Padded::Real(1),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                Padded::Real(1),
                Padded::Real(5),
                Padded::Dummy,
                Padded::Dummy
            ]
        );
    }

    #[test]
    fn scatter_even_division() {
        let chunks = scatter(vec![1, 2, 3, 4, 5, 6], 3);
        assert_eq!(chunks.len(), 3);
        assert!(chunks.iter().all(|c| c.len() == 2));
        assert!(chunks.iter().flatten().all(|p| p.is_real()));
    }

    #[test]
    fn scatter_pads_the_tail() {
        // 47 elements on 28 processors (the paper's Q5/F_5^3 example uses
        // 47 elements on 24 live processors — here over 28): k = ⌈47/28⌉ = 2
        let chunks = scatter((0..47u32).collect(), 28);
        assert_eq!(chunks.len(), 28);
        assert!(chunks.iter().all(|c| c.len() == 2));
        let dummies = chunks.iter().flatten().filter(|p| !p.is_real()).count();
        assert_eq!(dummies, 28 * 2 - 47);
    }

    #[test]
    fn scatter_fewer_elements_than_processors() {
        let chunks = scatter(vec![9, 8], 4);
        assert_eq!(chunks.len(), 4);
        assert!(chunks.iter().all(|c| c.len() == 1));
        assert_eq!(chunks[0][0], Padded::Real(9));
        assert_eq!(chunks[1][0], Padded::Real(8));
        assert_eq!(chunks[2][0], Padded::Dummy);
    }

    #[test]
    fn scatter_empty_input_gives_all_dummies() {
        let chunks = scatter(Vec::<u32>::new(), 3);
        assert_eq!(chunks.len(), 3);
        assert!(chunks.iter().flatten().all(|p| !p.is_real()));
    }

    #[test]
    fn gather_inverts_scatter_order_and_strips_dummies() {
        let data: Vec<u32> = (0..47).collect();
        let chunks = scatter(data.clone(), 28);
        assert_eq!(gather(chunks), data);
    }

    #[test]
    fn chunk_len_matches_paper_ceiling() {
        assert_eq!(chunk_len(47, 24), 2); // Fig. 6: 47 elements, 24 live, 2 each
        assert_eq!(chunk_len(48, 24), 2);
        assert_eq!(chunk_len(49, 24), 3);
        assert_eq!(chunk_len(0, 4), 1);
    }

    #[test]
    #[should_panic(expected = "zero processors")]
    fn scatter_to_zero_panics() {
        let _ = scatter(vec![1], 0);
    }
}
