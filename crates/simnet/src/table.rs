//! The small sorted map behind id-keyed state.
//!
//! A sharded node's link halves and pending attempts, the sequential world's
//! per-node link index, and the middleware's per-link, per-connection and
//! per-peer state all hold a handful of entries keyed by a small `Copy` id,
//! and each is touched on every frame or connection. [`IdTable`] is one
//! vector of `(key, value)` pairs in ascending key order:
//!
//! * a lookup is a binary search over a few entries;
//! * every walk is in ascending key order — the order a tear-down or a
//!   fan-out must emit in — so swapping a `BTreeMap` for it moves no event,
//!   RNG draw or byte;
//! * the storage is sized to the contents while small (up to four entries),
//!   doubles beyond that, and is released when the table empties, so an idle
//!   table costs its 24-byte header and nothing else (an emptied `BTreeMap`
//!   keeps a leaf sized for eleven entries). The price is an allocation on
//!   the first insert after the table empties.
//!
//! Inserting or removing shifts the entries after the key, so the table is
//! for maps of tens of entries, not thousands.

use std::fmt;

/// Up to this many entries the storage grows one entry at a time; beyond it,
/// by doubling.
const SMALL: usize = 4;

/// Entries by id, ascending; see the [module docs](self).
#[derive(Clone, PartialEq)]
pub struct IdTable<K, V> {
    entries: Vec<(K, V)>,
}

impl<K, V> Default for IdTable<K, V> {
    fn default() -> Self {
        IdTable { entries: Vec::new() }
    }
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for IdTable<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.entries.iter().map(|(k, v)| (k, v))).finish()
    }
}

impl<K: Ord + Copy, V> IdTable<K, V> {
    fn find(&self, key: &K) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.cmp(key))
    }

    fn insert_at(&mut self, at: usize, key: K, value: V) {
        if self.entries.len() < SMALL {
            self.entries.reserve_exact(1);
        }
        self.entries.insert(at, (key, value));
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the table holds no entry.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries the storage has room for without growing (0 when empty).
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.entries.capacity()
    }

    /// The value under `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.find(key).ok().map(|at| &self.entries[at].1)
    }

    /// The value under `key`, mutably.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.find(key).ok().map(|at| &mut self.entries[at].1)
    }

    /// True if an entry is held under `key`.
    pub fn contains_key(&self, key: &K) -> bool {
        self.find(key).is_ok()
    }

    /// Inserts `value` under `key`, returning the value it replaces.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.find(&key) {
            Ok(at) => Some(std::mem::replace(&mut self.entries[at].1, value)),
            Err(at) => {
                self.insert_at(at, key, value);
                None
            }
        }
    }

    /// The value under `key`, inserting `make()` first if there is none.
    pub fn get_or_insert_with(&mut self, key: K, make: impl FnOnce() -> V) -> &mut V {
        let at = match self.find(&key) {
            Ok(at) => at,
            Err(at) => {
                self.insert_at(at, key, make());
                at
            }
        };
        &mut self.entries[at].1
    }

    /// Removes the entry under `key`, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let at = self.find(key).ok()?;
        let (_, value) = self.entries.remove(at);
        self.release_if_empty();
        Some(value)
    }

    /// Keeps the entries for which `keep` holds, visiting all of them in
    /// ascending key order.
    pub fn retain(&mut self, mut keep: impl FnMut(K, &V) -> bool) {
        self.entries.retain(|(k, v)| keep(*k, v));
        self.release_if_empty();
    }

    /// Empties the table and gives its storage back.
    pub fn clear(&mut self) {
        self.entries = Vec::new();
    }

    /// The entries in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        self.entries.iter().map(|(k, v)| (*k, v))
    }

    /// The keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.entries.iter().map(|(k, _)| *k)
    }

    /// The values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.iter().map(|(_, v)| v)
    }

    /// The values in ascending key order, mutably.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.entries.iter_mut().map(|(_, v)| v)
    }

    fn release_if_empty(&mut self) {
        if self.entries.is_empty() {
            self.clear();
        }
    }

    /// Checks the table's invariants, panicking on a broken one: keys
    /// strictly ascending, no storage held while empty.
    pub fn audit(&self) {
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
        for step in 0..6_000u64 {
            let key: u64 = rng.range(0..24);
            match rng.range(0..7u32) {
                0 | 1 => assert_eq!(table.insert(key, step), model.insert(key, step)),
                2 => assert_eq!(table.remove(&key), model.remove(&key)),
                3 => {
                    let cut: u64 = rng.range(0..24);
                    table.retain(|k, v| (k + v) % 24 < cut);
                    model.retain(|k, v| (k + *v) % 24 < cut);
                }
                4 => {
                    let ours = table.get_or_insert_with(key, || step);
                    let theirs = model.entry(key).or_insert_with(|| step);
                    assert_eq!(ours, theirs);
                    *ours += 1;
                    *theirs += 1;
                }
                5 => {
                    for (ours, theirs) in table.values_mut().zip(model.values_mut()) {
                        *ours = ours.wrapping_mul(3) % 1_000;
                        *theirs = theirs.wrapping_mul(3) % 1_000;
                    }
                }
                _ => {
                    if let (Some(ours), Some(theirs)) = (table.get_mut(&key), model.get_mut(&key)) {
                        *ours += step;
                        *theirs += step;
                    }
                }
            }
            assert_eq!(table.get(&key), model.get(&key));
            assert_eq!(table.contains_key(&key), model.contains_key(&key));
            assert_eq!((table.len(), table.is_empty()), (model.len(), model.is_empty()));
            let ours: Vec<(u64, u64)> = table.iter().map(|(k, v)| (k, *v)).collect();
            let theirs: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
            assert_eq!(ours, theirs, "step {step}");
            assert!(table.keys().eq(model.keys().copied()), "step {step}");
            assert!(table.values().eq(model.values()), "step {step}");
            assert_eq!(format!("{table:?}"), format!("{model:?}"), "step {step}");
            assert!(table.clone() == table, "step {step}");
            table.audit();
        }
        let theirs: Vec<(u64, u64)> = model.into_iter().collect();
        assert_eq!(table.into_iter().collect::<Vec<_>>(), theirs);
    }

    #[test]
    fn storage_grows_one_entry_at_a_time_while_small_and_goes_when_empty() {
        let mut table: IdTable<u64, [u64; 5]> = IdTable::default();
        assert_eq!(table.capacity(), 0);
        for (n, key) in [30, 10, 20, 40].into_iter().enumerate() {
            table.insert(key, [key; 5]);
            assert_eq!(table.capacity(), n + 1, "sized to its contents");
        }
        table.get_or_insert_with(50, || [0; 5]);
        assert!(table.capacity() >= 5);
        for key in [10, 20, 30, 40] {
            table.remove(&key);
            assert!(table.capacity() > 0);
        }
        assert_eq!(table.remove(&50), Some([0; 5]));
        assert_eq!(table.capacity(), 0, "released when the last entry goes");
        table.get_or_insert_with(1, || [1; 5]);
        assert_eq!(table.capacity(), 1, "a first entry costs one entry");
        table.retain(|_, _| false);
        assert_eq!(table.capacity(), 0, "and when a retain empties it");
        table.insert(1, [1; 5]);
        table.clear();
        assert_eq!((table.len(), table.capacity()), (0, 0));
    }
}
