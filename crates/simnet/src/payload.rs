//! Shared, immutable message payloads.
//!
//! Every byte buffer travelling through the simulated world — an encoded
//! middleware frame, an application payload — is wrapped in a [`Payload`]:
//! an immutable shared buffer whose clones are reference-count bumps, not
//! copies. This is what lets a frame be encoded **once** and then fanned out
//! to many links (an advertisement reused for every neighbour, a bridge
//! relaying a frame without re-encoding it) and carried through the world's
//! in-flight queues without a per-hop `Vec` clone.
//!
//! Ownership rules:
//!
//! * a `Payload` is immutable — anyone holding a clone sees the same bytes
//!   forever; mutation (e.g. the adversary tampering with a frame) goes through
//!   [`Payload::to_vec`] and rebuilds a fresh buffer (copy-on-write), so
//!   other holders of the original are never affected,
//! * clones are `O(1)`; the backing allocation is freed when the last clone
//!   drops,
//! * the buffer is an `Arc<[u8]>`, so a `Payload` is `Send + Sync`: the
//!   sequential world and the sharded world (whose frames cross thread
//!   boundaries at window barriers) carry the same type.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// An immutable, cheaply clonable byte buffer (see the module docs).
#[derive(Clone)]
pub struct Payload {
    bytes: Arc<[u8]>,
}

impl Payload {
    /// An empty payload.
    pub fn new() -> Self {
        Payload::default()
    }

    /// Builds a payload by copying the given bytes (one copy, after which
    /// every clone is free).
    pub fn copy_from_slice(bytes: &[u8]) -> Self {
        Payload {
            bytes: Arc::from(bytes),
        }
    }

    /// Number of bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True when the payload holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The bytes as a slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.bytes
    }

    /// Copies the bytes into an owned `Vec` — the copy-on-write escape
    /// hatch: mutate the vector, then convert it back into a fresh
    /// `Payload`. Other clones of `self` keep the original bytes.
    pub fn to_vec(&self) -> Vec<u8> {
        self.bytes.to_vec()
    }

    /// Number of live clones sharing this allocation (diagnostic for tests).
    pub fn ref_count(&self) -> usize {
        Arc::strong_count(&self.bytes)
    }
}

impl Default for Payload {
    fn default() -> Self {
        Payload {
            bytes: Arc::from(&[][..]),
        }
    }
}

impl Deref for Payload {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.bytes
    }
}

impl AsRef<[u8]> for Payload {
    fn as_ref(&self) -> &[u8] {
        &self.bytes
    }
}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Self {
        Payload { bytes: Arc::from(v) }
    }
}

impl From<&[u8]> for Payload {
    fn from(v: &[u8]) -> Self {
        Payload::copy_from_slice(v)
    }
}

impl<const N: usize> From<&[u8; N]> for Payload {
    fn from(v: &[u8; N]) -> Self {
        Payload::copy_from_slice(v)
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Payload {}

impl std::hash::Hash for Payload {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl PartialEq<[u8]> for Payload {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for Payload {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Payload({} bytes)", self.len())
    }
}

/// The name the sharded engine's API uses for [`Payload`]. There is one
/// payload type; the alias stays because downstream signatures spell it.
pub type SharedPayload = Payload;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_the_allocation() {
        let p = Payload::from(vec![1u8, 2, 3]);
        let q = p.clone();
        assert_eq!(p, q);
        assert_eq!(p.ref_count(), 2);
        assert_eq!(q.as_slice(), &[1, 2, 3]);
        drop(p);
        assert_eq!(q.ref_count(), 1);
    }

    #[test]
    fn copy_on_write_leaves_other_clones_untouched() {
        let original = Payload::from(vec![0u8; 8]);
        let shared = original.clone();
        let mut bytes = shared.to_vec();
        bytes[0] = 0xFF;
        let mutated = Payload::from(bytes);
        assert_eq!(original.as_slice()[0], 0, "the original must keep its bytes");
        assert_eq!(mutated.as_slice()[0], 0xFF);
        assert_eq!(original.ref_count(), 2, "original + shared");
        assert_eq!(mutated.ref_count(), 1);
    }

    #[test]
    fn conversions_and_views() {
        let p: Payload = b"hello".into();
        assert_eq!(p.len(), 5);
        assert!(!p.is_empty());
        assert_eq!(&p[..2], b"he");
        assert_eq!(p, b"hello".to_vec());
        assert!(Payload::new().is_empty());
        assert_eq!(format!("{p:?}"), "Payload(5 bytes)");
        let from_slice = Payload::from(&b"xy"[..]);
        assert_eq!(from_slice.to_vec(), vec![b'x', b'y']);
    }

    #[test]
    fn shared_payload_crosses_threads_and_converts_for_free() {
        let payload = Payload::from(vec![7u8; 32]);
        let clone = payload.clone();
        let joined = std::thread::spawn(move || {
            assert_eq!(clone.len(), 32);
            clone
        })
        .join()
        .unwrap();
        assert_eq!(joined.ref_count(), 2, "both handles share one allocation");
        assert_eq!(joined.as_slice(), &[7u8; 32][..]);
        let aliased: SharedPayload = joined;
        assert_eq!(aliased, payload);
    }
}
