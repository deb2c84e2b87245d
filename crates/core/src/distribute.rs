//! Host-side distribution and collection of elements.
//!
//! The paper's host distributes `⌈M/N'⌉` elements to each of the `N'` live
//! processors, filling with dummy keys (`∞`) when `M` does not divide evenly
//! (§2.1). We realize `∞` as the key type's greatest value, [`Key::INF`], so
//! the machine sorts bare keys: dummies sink to the global tail and are
//! dropped at gather time.

use crate::seq::Key;

/// Splits `data` into `parts` chunks of exactly `⌈data.len()/parts⌉` keys
/// each — the host's scatter step. Chunks are filled in order; the last
/// chunks are padded with [`Key::INF`].
///
/// # Panics
/// If `parts == 0`.
pub fn scatter<K: Key>(data: Vec<K>, parts: usize) -> Vec<Vec<K>> {
    assert!(parts > 0, "cannot scatter to zero processors");
    let k = chunk_len(data.len(), parts);
    let mut it = data.into_iter();
    (0..parts)
        .map(|_| {
            let mut chunk = Vec::with_capacity(k);
            chunk.extend(it.by_ref().take(k));
            chunk.resize(k, K::INF);
            chunk
        })
        .collect()
}

/// Reassembles sorted output: concatenates the chunks in the given order and
/// keeps the first `m` keys, dropping the `∞` padding behind them — the
/// host's gather step.
///
/// # Panics
/// If the chunks hold fewer than `m` keys, or a dropped slot is not
/// [`Key::INF`]: keys were lost or duplicated, or the key type's `INF` is
/// not its greatest value.
pub fn gather<K: Key>(chunks: impl IntoIterator<Item = impl AsRef<[K]>>, m: usize) -> Vec<K> {
    let mut sorted = Vec::with_capacity(m);
    for chunk in chunks {
        let chunk = chunk.as_ref();
        let take = (m - sorted.len()).min(chunk.len());
        sorted.extend_from_slice(&chunk[..take]);
        assert!(
            chunk[take..].iter().all(|x| *x == K::INF),
            "keys lost or duplicated: a dropped padding slot is not Key::INF \
             (Key::INF must be the greatest value of the key type)"
        );
    }
    assert_eq!(sorted.len(), m, "keys lost or duplicated");
    sorted
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
        let mut v = scatter(vec![5u32, 1], 4).concat();
        assert_eq!(v, vec![5, 1, u32::MAX, u32::MAX]);
        v.sort();
        assert_eq!(v, vec![1, 5, u32::MAX, u32::MAX]);
        assert_eq!(gather([v], 2), vec![1, 5]);
    }

    #[test]
    fn scatter_even_division() {
        let chunks = scatter(vec![1, 2, 3, 4, 5, 6], 3);
        assert_eq!(chunks, vec![vec![1, 2], vec![3, 4], vec![5, 6]]);
    }

    #[test]
    fn scatter_pads_the_tail() {
        // 47 elements on 28 processors (the paper's Q5/F_5^3 example uses
        // 47 elements on 24 live processors — here over 28): k = ⌈47/28⌉ = 2
        let chunks = scatter((0..47u32).collect(), 28);
        assert_eq!(chunks.len(), 28);
        assert!(chunks.iter().all(|c| c.len() == 2));
        let dummies = chunks.iter().flatten().filter(|&&x| x == u32::MAX).count();
        assert_eq!(dummies, 28 * 2 - 47);
    }

    #[test]
    fn scatter_fewer_elements_than_processors() {
        let chunks = scatter(vec![9u64, 8], 4);
        assert_eq!(
            chunks,
            vec![vec![9], vec![8], vec![u64::MAX], vec![u64::MAX]]
        );
    }

    #[test]
    fn scatter_empty_input_gives_all_dummies() {
        let chunks = scatter(Vec::<i64>::new(), 3);
        assert_eq!(chunks, vec![vec![i64::MAX]; 3]);
        assert!(gather(chunks, 0).is_empty());
    }

    #[test]
    fn gather_inverts_scatter_order_and_strips_dummies() {
        let data: Vec<u32> = (0..47).collect();
        let chunks = scatter(data.clone(), 28);
        assert_eq!(gather(chunks, 47), data);
    }

    #[test]
    fn gather_keeps_real_keys_equal_to_inf() {
        // a real u32::MAX ties with the padding, and the first m keys are
        // still the sorted input
        let data = vec![u32::MAX, 3, u32::MAX];
        let mut flat = scatter(data, 2).concat();
        flat.sort();
        assert_eq!(gather([flat], 3), vec![3, u32::MAX, u32::MAX]);
    }

    #[test]
    #[should_panic(expected = "Key::INF")]
    fn gather_rejects_a_real_key_in_the_dropped_tail() {
        let _ = gather([vec![1u32, 2], vec![u32::MAX, 7]], 3);
    }

    #[test]
    #[should_panic(expected = "keys lost")]
    fn gather_rejects_too_few_keys() {
        let _ = gather([vec![1u32, 2]], 3);
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
