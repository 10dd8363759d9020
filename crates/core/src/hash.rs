//! The hasher of the execution core's hash tables (join buckets, Γ
//! groups, `Π^D`/`μ^D` dedup sets): one multiply-rotate round per word
//! instead of SipHash's. The keys are document values, so the state
//! starts from a seed drawn once per process from std's `RandomState`
//! — which table slot a value lands in is not predictable from outside
//! — but the mixing is not collision-resistant against an adversary who
//! can observe timings; nothing that outlives a query is keyed with it.

use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// Builds [`FastHasher`]s that share the process-wide seed.
#[derive(Clone, Copy, Default, Debug)]
pub struct FastBuild;

/// `state = (rotl(state, 5) ^ word) * K` per 8-byte word.
#[derive(Clone, Copy, Debug)]
pub struct FastHasher(u64);

impl BuildHasher for FastBuild {
    type Hasher = FastHasher;

    fn build_hasher(&self) -> FastHasher {
        static SEED: OnceLock<u64> = OnceLock::new();
        FastHasher(
            *SEED.get_or_init(|| std::collections::hash_map::RandomState::new().hash_one(0u8)),
        )
    }
}

impl Hasher for FastHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    /// The multiply leaves the low bits weak and hashbrown indexes
    /// buckets with them: rotate the strong high bits down.
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_keys_hash_alike_and_prefixes_differ() {
        let h = |s: &str| FastBuild.hash_one(s);
        assert_eq!(h("Stevens"), h("Stevens"));
        assert_ne!(h("Stevens"), h("Steven"));
        assert_ne!(h("ab"), h("ba"));
        // Integer writes (u8 discriminants, u64 number bits) go through
        // `write`/`write_u64` alike.
        assert_ne!(FastBuild.hash_one(1u64), FastBuild.hash_one(2u64));
        assert_ne!(FastBuild.hash_one(1u8), FastBuild.hash_one(2u8));
    }
}
