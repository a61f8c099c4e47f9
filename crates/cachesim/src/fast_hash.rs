//! A fast, deterministic hasher for SHiP-MEM's signature table.
//!
//! SHiP-MEM indexes its unbounded table with region ids on every fill and
//! eviction (Hawkeye and Leeway index flat 64 Ki-entry site tables, with no
//! hashing) — with the standard library's SipHash, hashing shows up
//! prominently in the simulation hot path. [`FxHasher`] is the
//! multiply-rotate hash used by rustc (FxHash): not DoS-resistant, which is
//! irrelevant here, but several times faster on integer keys and fully
//! deterministic across runs and platforms, preserving the simulator's
//! bit-identical reproducibility.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The rustc FxHash hasher.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, value: u8) {
        self.add(u64::from(value));
    }

    #[inline]
    fn write_u16(&mut self, value: u16) {
        self.add(u64::from(value));
    }

    #[inline]
    fn write_u32(&mut self, value: u32) {
        self.add(u64::from(value));
    }

    #[inline]
    fn write_u64(&mut self, value: u64) {
        self.add(value);
    }

    #[inline]
    fn write_usize(&mut self, value: usize) {
        self.add(value as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_hasher_instances() {
        let hash = |value: u64| {
            let mut h = FxHasher::default();
            h.write_u64(value);
            h.finish()
        };
        assert_eq!(hash(42), hash(42));
        assert_ne!(hash(42), hash(43));
    }

    #[test]
    fn map_behaves_like_a_map() {
        let mut map: FxHashMap<u64, u32> = FxHashMap::default();
        for i in 0..1000u64 {
            map.insert(i, (i * 2) as u32);
        }
        assert_eq!(map.len(), 1000);
        assert_eq!(map.get(&500), Some(&1000));
        assert_eq!(map.get(&1000), None);
    }
}
