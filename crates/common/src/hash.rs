//! A fixed, seedless hasher for [`ObjectId`]-keyed maps.
//!
//! `std`'s default SipHash is keyed per process and runs several rounds per
//! key. An `ObjectId` is a single `u64`, so one SplitMix64 finalizer (the
//! one [`rendezvous_shard`](crate::rendezvous_shard) routes with) already
//! spreads it across every bit a hash table looks at. The price is that
//! nothing protects against ids crafted to collide: use [`IdMap`] only
//! where the program itself hands out the ids.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::ObjectId;

/// The SplitMix64 finalizer: the avalanche core shared by [`IdHasher`],
/// [`rendezvous_shard`](crate::rendezvous_shard) and the storage
/// simulator's content checksum. A bijection on `u64`: pure, seedless,
/// fixed for all time.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A [`Hasher`] that runs every `u64` written to it through the SplitMix64
/// finalizer. An [`ObjectId`] hashes as one `write_u64`, so its hash is
/// one finalizer call.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = mix64(self.0 ^ n);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }
}

/// A hash map keyed by [`ObjectId`] under [`IdHasher`]; build one with
/// `IdMap::default()`.
pub type IdMap<V> = HashMap<ObjectId, V, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn an_id_hashes_to_its_finalizer() {
        let build = BuildHasherDefault::<IdHasher>::default();
        for raw in [0, 1, 7, u64::MAX] {
            assert_eq!(build.hash_one(ObjectId(raw)), mix64(raw));
        }
    }

    #[test]
    fn id_map_round_trips() {
        let mut map: IdMap<u64> = IdMap::default();
        for n in 0..1000 {
            map.insert(ObjectId(n), n * 3);
        }
        assert_eq!(map.len(), 1000);
        assert!((0..1000).all(|n| map[&ObjectId(n)] == n * 3));
    }
}
