//! The table behind a sharded node's link halves and pending attempts.
//!
//! A node holds a handful of each — two link halves and, almost always, no
//! pending attempt — so the table is one vector of `(key, value)` pairs in
//! ascending key order: a lookup is a binary search over a few entries, an
//! iteration is in id order (the order the crash and radio-outage tear-downs
//! must emit in), and the storage is sized to the contents while small and
//! released when the table empties: every sharded node carries two of these,
//! so their bytes are paid once per node of a 100 k-node city.

/// Up to this many entries the storage grows one entry at a time; beyond it,
/// by doubling.
const SMALL: usize = 4;

/// Entries by id, ascending; see the [module docs](self).
pub(super) struct IdTable<K, V> {
    entries: Vec<(K, V)>,
}

impl<K, V> Default for IdTable<K, V> {
    fn default() -> Self {
        IdTable { entries: Vec::new() }
    }
}

impl<K: Ord + Copy, V> IdTable<K, V> {
    fn find(&self, key: &K) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.cmp(key))
    }

    #[cfg(test)]
    pub(super) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Entries the storage has room for without growing (0 when empty).
    #[cfg(test)]
    pub(super) fn capacity(&self) -> usize {
        self.entries.capacity()
    }

    pub(super) fn get(&self, key: &K) -> Option<&V> {
        self.find(key).ok().map(|at| &self.entries[at].1)
    }

    pub(super) fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.find(key).ok().map(|at| &mut self.entries[at].1)
    }

    /// Inserts `value` under `key`, returning the value it replaces.
    pub(super) fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.find(&key) {
            Ok(at) => Some(std::mem::replace(&mut self.entries[at].1, value)),
            Err(at) => {
                if self.entries.len() < SMALL {
                    self.entries.reserve_exact(1);
                }
                self.entries.insert(at, (key, value));
                None
            }
        }
    }

    pub(super) fn remove(&mut self, key: &K) -> Option<V> {
        let at = self.find(key).ok()?;
        let (_, value) = self.entries.remove(at);
        self.release_if_empty();
        Some(value)
    }

    /// Keeps the entries for which `keep` holds, visiting all of them in
    /// ascending key order.
    pub(super) fn retain(&mut self, mut keep: impl FnMut(K, &V) -> bool) {
        self.entries.retain(|(k, v)| keep(*k, v));
        self.release_if_empty();
    }

    /// Empties the table and gives its storage back.
    pub(super) fn clear(&mut self) {
        self.entries = Vec::new();
    }

    /// The entries in ascending key order.
    pub(super) fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        self.entries.iter().map(|(k, v)| (*k, v))
    }

    pub(super) fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.iter().map(|(_, v)| v)
    }

    fn release_if_empty(&mut self) {
        if self.entries.is_empty() {
            self.clear();
        }
    }

    /// Debug audit: keys strictly ascending, no storage held while empty.
    #[cfg(any(debug_assertions, test))]
    pub(super) fn audit(&self) {
        assert!(
            self.entries.windows(2).all(|w| w[0].0 < w[1].0),
            "table keys must be strictly ascending"
        );
        assert!(
            !self.entries.is_empty() || self.entries.capacity() == 0,
            "an empty table holds no storage"
        );
    }
}

impl<K, V> IntoIterator for IdTable<K, V> {
    type Item = (K, V);
    type IntoIter = std::vec::IntoIter<(K, V)>;

    /// The entries in ascending key order.
    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use std::collections::BTreeMap;

    #[test]
    fn the_table_is_a_sorted_map() {
        let mut rng = SimRng::new(0x7AB1E);
        let mut table: IdTable<u64, u64> = IdTable::default();
        let mut model = BTreeMap::new();
        for step in 0..4_000u64 {
            let key: u64 = rng.range(0..24);
            match rng.range(0..4u32) {
                0 | 1 => assert_eq!(table.insert(key, step), model.insert(key, step)),
                2 => assert_eq!(table.remove(&key), model.remove(&key)),
                _ => {
                    let cut: u64 = rng.range(0..24);
                    table.retain(|k, v| (k + v) % 24 < cut);
                    model.retain(|k, v| (k + *v) % 24 < cut);
                }
            }
            assert_eq!(table.get(&key), model.get(&key));
            let ours: Vec<(u64, u64)> = table.iter().map(|(k, v)| (k, *v)).collect();
            let theirs: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
            assert_eq!(ours, theirs, "step {step}");
            table.audit();
        }
    }

    #[test]
    fn storage_grows_one_entry_at_a_time_while_small_and_goes_when_empty() {
        let mut table: IdTable<u64, [u64; 5]> = IdTable::default();
        assert_eq!(table.capacity(), 0);
        for (n, key) in [30, 10, 20, 40].into_iter().enumerate() {
            table.insert(key, [key; 5]);
            assert_eq!(table.capacity(), n + 1, "sized to its contents");
        }
        table.insert(50, [0; 5]);
        assert!(table.capacity() >= 5);
        for key in [10, 20, 30, 40] {
            table.remove(&key);
            assert!(table.capacity() > 0);
        }
        assert_eq!(table.remove(&50), Some([0; 5]));
        assert_eq!(table.capacity(), 0, "released when the last entry goes");
        table.insert(1, [1; 5]);
        table.retain(|_, _| false);
        assert_eq!(table.capacity(), 0, "and when a retain empties it");
        table.insert(1, [1; 5]);
        table.clear();
        assert_eq!((table.len(), table.capacity()), (0, 0));
    }
}
