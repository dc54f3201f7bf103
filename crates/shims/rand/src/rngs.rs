//! Seeded generators. Only [`StdRng`] exists: the workspace's determinism
//! rules (see `crates/lint`) forbid entropy-based construction.

use crate::{RngCore, SeedableRng};

/// xoshiro256++ (Blackman & Vigna), state-initialised with SplitMix64.
///
/// Small, fast, and more than adequate for driving a discrete-event
/// simulation; not cryptographic. Unlike upstream `rand`, the stream is
/// fully specified by this file and will never shift underneath the
/// workspace's seed-pinned tests.
#[derive(Clone, Debug)]
pub struct StdRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        StdRng { s }
    }
}

impl RngCore for StdRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_preserves_stream() {
        let mut a = StdRng::seed_from_u64(99);
        a.next_u64();
        let mut b = a.clone();
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn zero_seed_is_fine() {
        let mut r = StdRng::seed_from_u64(0);
        // SplitMix64 expansion guarantees a non-degenerate state.
        assert_ne!(r.next_u64(), r.next_u64());
    }
}
