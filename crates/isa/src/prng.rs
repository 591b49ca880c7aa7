//! A small, dependency-free deterministic PRNG (xoshiro256++ seeded via
//! SplitMix64).
//!
//! The workspace builds with **zero registry dependencies** (the evaluation
//! environment has no network access), so the workload generators and the
//! seeded property-style test suites use this module instead of the `rand`
//! crate family. Determinism is load-bearing: a workload binary generated
//! from `(profile, seed)` must be byte-identical across runs so that
//! differential tests (original vs. rewritten execution) and committed
//! experiment results are reproducible.
//!
//! The generator is xoshiro256++ (Blackman & Vigna), which is tiny, fast,
//! and has no observable bias for the ranges used here. It lives in
//! `chimera-isa` because that is the workspace's root crate: every other
//! crate (workloads, tests, benches) can reach it without a dependency
//! cycle.

/// A deterministic xoshiro256++ generator.
#[derive(Debug, Clone)]
pub struct Prng {
    s: [u64; 4],
    seed: u64,
}

impl Prng {
    /// Creates a generator from a 64-bit seed (SplitMix64-expanded, so any
    /// seed — including 0 — produces a well-mixed state).
    pub fn new(seed: u64) -> Prng {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        Prng {
            s: [next(), next(), next(), next()],
            seed,
        }
    }

    /// The seed this generator (or the generator it was [`split`] from)
    /// was constructed with. Draws never change it.
    ///
    /// [`split`]: Prng::split
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent named stream.
    ///
    /// The child is a pure function of `(self.seed(), name)` — *not* of
    /// this generator's current position — so the values a stream yields
    /// cannot shift when unrelated draws are added, removed or reordered.
    /// Property-style generators should take one root `Prng` and `split`
    /// a dedicated stream per concern (`"shape"`, `"body"`, `"consts"`,
    /// ...); a single root seed then reproduces every stream exactly.
    pub fn split(&self, name: &str) -> Prng {
        Prng::stream(self.seed, name)
    }

    /// [`split`](Prng::split) without an intermediate root generator: the
    /// named stream derived from `seed` directly.
    pub fn stream(seed: u64, name: &str) -> Prng {
        // FNV-1a over the name, golden-ratio-mixed into the seed. The
        // child seed then goes through `new`'s SplitMix64 expansion, so
        // even single-bit name differences decorrelate the states.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Prng::new(seed ^ h.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
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

    /// The next raw 32-bit output (upper half of [`Prng::next_u64`]).
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A uniform value in `[0, n)`; `n` must be non-zero. Uses Lemire's
    /// widening-multiply reduction (bias is unmeasurable at these sizes).
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0, "Prng::below(0)");
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// A uniform `i64` in the half-open range `[lo, hi)`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        debug_assert!(lo < hi, "empty range");
        lo.wrapping_add(self.below(hi.wrapping_sub(lo) as u64) as i64)
    }

    /// A uniform `usize` in the half-open range `[lo, hi)`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        debug_assert!(lo < hi, "empty range");
        lo + self.below((hi - lo) as u64) as usize
    }

    /// A uniform `f64` in `[0, 1)` (53 mantissa bits).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// A uniform `bool`.
    pub fn next_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Picks a uniformly random element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.range_usize(0, items.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = Prng::new(7);
        let mut b = Prng::new(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Prng::new(8);
        assert_ne!(Prng::new(7).next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = Prng::new(42);
        for _ in 0..10_000 {
            let v = r.range_i64(-512, 512);
            assert!((-512..512).contains(&v));
            let u = r.range_usize(3, 9);
            assert!((3..9).contains(&u));
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn chance_tracks_probability() {
        let mut r = Prng::new(1);
        let hits = (0..20_000).filter(|_| r.chance(0.25)).count();
        let frac = hits as f64 / 20_000.0;
        assert!((0.22..0.28).contains(&frac), "p=0.25 measured {frac}");
    }

    #[test]
    fn split_is_independent_of_call_order_and_position() {
        // Streams depend only on (seed, name): draining the root or
        // splitting other streams first must not move any stream.
        let mut root = Prng::new(42);
        let early = root.split("body").next_u64();
        for _ in 0..100 {
            root.next_u64();
        }
        let _ = root.split("shape");
        let _ = root.split("consts");
        let late = root.split("body").next_u64();
        assert_eq!(early, late, "a stream must not depend on call order");
        assert_eq!(root.seed(), 42, "draws never change the recorded seed");

        // And the static constructor is the same derivation.
        assert_eq!(Prng::stream(42, "body").next_u64(), early);
    }

    #[test]
    fn split_streams_are_decorrelated() {
        let root = Prng::new(7);
        let mut a = root.split("a");
        let mut b = root.split("b");
        let mut plain = Prng::new(7);
        for _ in 0..64 {
            let (x, y) = (a.next_u64(), b.next_u64());
            assert_ne!(x, y, "sibling streams must not collide");
            assert_ne!(x, plain.next_u64(), "a stream must differ from its root");
        }
        // The same name under different seeds differs too.
        assert_ne!(
            Prng::stream(1, "ops").next_u64(),
            Prng::stream(2, "ops").next_u64()
        );
    }

    /// Pins the derived streams bit-for-bit: committed reproducer files
    /// (tests/reproducers/) regenerate fuzz cases from `(seed, stream)`
    /// pairs, so the derivation below is a stable file-format contract —
    /// if this test breaks, bump the reproducer generator version instead
    /// of accepting new values.
    #[test]
    fn split_streams_are_pinned() {
        let root = Prng::new(0xC41A5);
        let mut shape = root.split("shape");
        assert_eq!(
            [shape.next_u64(), shape.next_u64(), shape.next_u64()],
            PIN_SHAPE
        );
        let mut body = root.split("body");
        assert_eq!(
            [body.next_u64(), body.next_u64(), body.next_u64()],
            PIN_BODY
        );
        let mut zero = Prng::stream(0, "");
        assert_eq!(
            [zero.next_u64(), zero.next_u64(), zero.next_u64()],
            PIN_ZERO
        );
    }

    const PIN_SHAPE: [u64; 3] = [
        0x2619_b89b_372c_221f,
        0xc145_bbdb_cd0a_e1f6,
        0x48f8_76c4_2820_b0ac,
    ];
    const PIN_BODY: [u64; 3] = [
        0x7897_5af0_7b67_7182,
        0x2a87_5850_6980_52ee,
        0x4f37_b95e_e22d_a732,
    ];
    const PIN_ZERO: [u64; 3] = [
        0x2500_418f_8e55_323f,
        0xe809_288d_c4de_67cb,
        0x6f73_9711_7f4e_c146,
    ];

    #[test]
    fn zero_seed_is_well_mixed() {
        let mut r = Prng::new(0);
        let a = r.next_u64();
        let b = r.next_u64();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }
}
