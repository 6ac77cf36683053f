//! The hash map behind the sequential world's link table.
//!
//! Every key is made inside the simulator — a sequential
//! [`LinkId`](crate::node::LinkId) — so the collision resistance the standard
//! library's SipHash buys is worth nothing here, while its cost is paid on
//! every frame. [`FastMap`] hashes a key with one rotate, one xor and one
//! multiply per word instead. Small per-node maps that must iterate in id
//! order (a sharded node's link halves, a node's link index, the
//! middleware's per-link state) are [`IdTable`](crate::table::IdTable)s
//! instead, and the spatial grid's cells live in a dense table of their own
//! (`world::grid`), probed without hashing.
//!
//! **No caller may observe iteration order** — it differs from the standard
//! hasher's and is nobody's contract. The link table's one walk that reaches
//! agents, the partition sweep's `open_link_endpoints`, sorts by link id;
//! `a_partition_breaks_links_in_ascending_id_order` holds that.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by simulator-made integers, hashed by [`MulRotHasher`].
pub(crate) type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<MulRotHasher>>;

/// Word-at-a-time multiply-rotate hashing (the scheme rustc's own tables
/// use). Not for keys an outsider can choose.
#[derive(Default, Clone, Copy)]
pub(crate) struct MulRotHasher(u64);

/// An odd constant with no bit pattern to speak of (2^64 / golden ratio).
const MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for MulRotHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(MULTIPLIER);
    }

    fn finish(&self) -> u64 {
        // The product's strong bits are its high ones; the table indexes by
        // the low ones.
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::LinkId;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(key: impl Hash) -> u64 {
        BuildHasherDefault::<MulRotHasher>::default().hash_one(key)
    }

    #[test]
    fn equal_keys_hash_equal_and_neighbouring_keys_do_not() {
        assert_eq!(hash_of((3i64, -7i64)), hash_of((3i64, -7i64)));
        assert_eq!(hash_of(LinkId(5 << 32 | 1)), hash_of(LinkId(5 << 32 | 1)));
        assert_ne!(hash_of((3i64, -7i64)), hash_of((-7i64, 3i64)));
        assert_ne!(hash_of((0i64, 1i64)), hash_of((1i64, 0i64)));
        assert_ne!(hash_of(LinkId(5 << 32 | 1)), hash_of(LinkId(6 << 32 | 1)));
        assert_ne!(hash_of(b"ab".as_slice()), hash_of(b"ba".as_slice()));
    }

    #[test]
    fn a_city_of_cells_and_link_ids_spreads_over_the_table() {
        // A block of integer pairs around the origin, `(initiator << 32) |
        // counter` packed ids and the sequential world's counter ids: the
        // shapes of simulator-made key. A hasher that folded them onto a few
        // low bits would still be correct, only slow; this pins that the
        // cheap one does not.
        let cells = (-60i64..60).flat_map(|i| (-60i64..60).map(move |j| hash_of((i, j))));
        let links = (0u64..4_000).flat_map(|node| (0u64..4).map(move |n| hash_of(LinkId(node << 32 | n))));
        let counted = (0u64..16_000).map(|n| hash_of(LinkId(n)));
        let shapes = [
            ("cells", cells.collect::<Vec<_>>()),
            ("links", links.collect()),
            ("counted links", counted.collect()),
        ];
        for (name, hashes) in shapes {
            let mut low: Vec<u64> = hashes.iter().map(|h| h & 0xFFF).collect();
            let mut tag: Vec<u64> = hashes.iter().map(|h| h >> 57).collect();
            low.sort_unstable();
            low.dedup();
            tag.sort_unstable();
            tag.dedup();
            assert!(low.len() > 3_500, "{name}: {} of 4096 low-bit buckets used", low.len());
            assert_eq!(tag.len(), 128, "{name}: control-byte tags");
        }
    }

    #[test]
    fn a_fast_map_is_a_map() {
        let mut map: FastMap<LinkId, u64> = FastMap::default();
        for node in 0..100u64 {
            for n in 0..100u64 {
                map.insert(LinkId(node << 32 | n), node * 100 + n);
            }
        }
        assert_eq!(map.len(), 10_000);
        assert_eq!(map.get(&LinkId(3 << 32 | 4)), Some(&304));
        assert_eq!(map.remove(&LinkId(99 << 32 | 99)), Some(9_999));
        assert_eq!(map.get(&LinkId(99 << 32 | 99)), None);
    }
}
