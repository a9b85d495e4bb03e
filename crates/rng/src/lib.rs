//! Seeded, deterministic RNG primitives shared across the simulator.
//!
//! The whole simulator runs in *virtual* time: every event is ordered by
//! per-core cycle counters, never by the host clock. Anything random —
//! fault draws, synthetic request traces — must therefore come from
//! counter-based streams keyed only by plain data, so that two runs with
//! the same seed make exactly the same draws in exactly the same order on
//! every platform.
//!
//! This crate is the single home of those primitives:
//!
//! * [`splitmix64`] — the classic stateless mixer.
//! * [`draw_word`] — the `(seed, core, site, count)` keyed stream used by
//!   `hera-faults`.
//! * [`SplitMix64`] — a tiny sequential stream for generators that consume
//!   draws in one deterministic order (e.g. the cluster trace generator).

#![forbid(unsafe_code)]

/// The classic splitmix64 mixer: a bijective avalanche over `u64`.
///
/// Good enough statistical quality for fault sampling and synthetic
/// traffic, trivially portable, and — crucially — stateless: the output
/// depends only on the input word.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derive the draw word for `(seed, core, site, count)`.
///
/// Each component passes through the mixer before being combined so that
/// adjacent cores/sites/counts land in unrelated parts of the stream.
#[inline]
pub fn draw_word(seed: u64, core: u64, site: u64, count: u64) -> u64 {
    let a = splitmix64(seed ^ 0x243f_6a88_85a3_08d3);
    let b = splitmix64(a ^ core.wrapping_mul(0x1000_0000_01b3));
    let c = splitmix64(b ^ site.wrapping_mul(0x0100_0000_01b3));
    splitmix64(c ^ count)
}

/// A sequential splitmix64 stream: `next_u64` walks a Weyl sequence
/// through the mixer.
///
/// Use this where draws are consumed in one deterministic order (a trace
/// generator walking forward through virtual time); use [`draw_word`]
/// where draws must be addressable by position (fault injection, where
/// per-site counters are snapshotted and restored).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Start a stream at `seed`. Equal seeds yield equal streams.
    #[inline]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit draw.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, bound)` (`bound` 0 yields 0).
    ///
    /// Plain modulo: the bias is ≤ bound/2^64, far below anything the
    /// simulator can observe, and keeps the draw a single deterministic
    /// integer operation.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_stateless_and_stable() {
        assert_eq!(splitmix64(0), splitmix64(0));
        // Known-answer: splitmix64(0) from the reference implementation.
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_ne!(splitmix64(1), splitmix64(2));
    }

    #[test]
    fn draw_word_varies_by_every_component() {
        let base = draw_word(1, 2, 3, 4);
        assert_eq!(base, draw_word(1, 2, 3, 4));
        assert_ne!(base, draw_word(9, 2, 3, 4));
        assert_ne!(base, draw_word(1, 9, 3, 4));
        assert_ne!(base, draw_word(1, 2, 9, 4));
        assert_ne!(base, draw_word(1, 2, 3, 9));
    }

    #[test]
    fn stream_matches_mixer_over_weyl_sequence() {
        let mut s = SplitMix64::new(7);
        assert_eq!(s.next_u64(), splitmix64(7));
        // Second draw mixes the advanced Weyl state, not the output.
        let mut t = SplitMix64::new(7);
        t.next_u64();
        assert_eq!(t, s);
    }

    #[test]
    fn next_below_is_bounded() {
        let mut s = SplitMix64::new(42);
        for _ in 0..1000 {
            assert!(s.next_below(10) < 10);
        }
        assert_eq!(SplitMix64::new(1).next_below(0), 0);
    }
}
