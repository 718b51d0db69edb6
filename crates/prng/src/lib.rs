//! Deterministic, dependency-free pseudo-random numbers.
//!
//! Every randomized component of the reproduction — workload arrival
//! sampling, trace synthesis, the TPC-H generator, the meta-strategy's
//! expert draws, spot-interruption ablations — draws from a [`Pcg32`],
//! and a [`Pcg32`] is built only from a [`Seed`]. There is deliberately
//! no `thread_rng`-style ambient generator and no way to turn a bare
//! `u64` into a seed except [`Seed::root`], which clippy disallows
//! (`clippy.toml`): each public entry point that receives a caller's seed
//! mints it once under a `#[expect(clippy::disallowed_methods)]`, and
//! every other stream is derived from that root with [`Seed::salted`] or
//! [`Seed::keyed`]. A stream therefore cannot be seeded from a literal or
//! from another stream's draws without a visible, reviewed expect — which
//! is what makes two identically-configured simulation runs
//! byte-identical. The build is hermetic (`tests/hermetic.rs`), so no RNG
//! crate is there to seed from entropy instead.
//!
//! ```compile_fail
//! // A generator cannot be built from a bare `u64`...
//! let rng = cackle_prng::Pcg32::new(42u64);
//! ```
//!
//! ```compile_fail
//! // ...and a `u64` does not convert into a `Seed`.
//! let seed: cackle_prng::Seed = 42u64.into();
//! ```
//!
//! The generator is PCG-XSH-RR (O'Neill 2014): a 64-bit LCG state with a
//! 32-bit output permutation. Seeds are expanded into the (state,
//! increment) pair with SplitMix64, so small or correlated seeds (0, 1,
//! 2, ...) still land in well-separated streams.

/// SplitMix64 step: advances `state` and returns the next 64-bit output.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The provenance of a PRNG stream: a run's root seed, or a stream
/// derived from one. The `u64` inside is private and there is no
/// `From<u64>`; [`Seed::root`] is the only way in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seed(u64);

impl Seed {
    /// Mint the root seed of a run from the caller's `u64` (a `RunSpec`,
    /// `FamilyConfig`, `DbGenConfig` or `WorkloadSpec` seed). Disallowed
    /// by clippy outside tests: a mint site carries an expect saying
    /// whose seed it receives.
    pub const fn root(seed: u64) -> Seed {
        Seed(seed)
    }

    /// A sub-stream for one consumer of this seed: `seed ^ salt`.
    pub const fn salted(self, salt: u64) -> Seed {
        Seed(self.0 ^ salt)
    }

    /// A decorrelated sub-stream: `splitmix64(seed ^ key)`. Chained as
    /// `seed.keyed(point).keyed(op)`, it is a pure function of the run
    /// seed and the operation's identity, never of draw order.
    pub fn keyed(self, key: u64) -> Seed {
        let mut s = self.0 ^ key;
        Seed(splitmix64(&mut s))
    }
}

const PCG_MULT: u64 = 6_364_136_223_846_793_005;

/// A PCG-XSH-RR 32-bit generator with a SplitMix64-expanded seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pcg32 {
    state: u64,
    inc: u64,
}

impl Pcg32 {
    /// The stream of `seed`. Identical seeds yield identical streams;
    /// nearby seeds yield unrelated streams.
    pub fn new(seed: Seed) -> Self {
        let mut sm = seed.0;
        let initstate = splitmix64(&mut sm);
        let initseq = splitmix64(&mut sm);
        let mut rng = Pcg32 {
            state: 0,
            inc: (initseq << 1) | 1,
        };
        rng.state = rng.state.wrapping_add(initstate);
        rng.next_u32();
        rng
    }

    /// Next 32 uniform bits.
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// Next 64 uniform bits (two 32-bit outputs).
    pub fn next_u64(&mut self) -> u64 {
        let hi = self.next_u32() as u64;
        let lo = self.next_u32() as u64;
        (hi << 32) | lo
    }

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform sample from `range` (half-open `a..b` or inclusive
    /// `a..=b`, integer or float). Panics on an empty range.
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// `true` with probability `numerator / denominator`, computed in
    /// integer arithmetic (no float rounding). Panics when
    /// `denominator` is zero or `numerator > denominator`.
    pub fn gen_ratio(&mut self, numerator: u32, denominator: u32) -> bool {
        assert!(
            denominator > 0 && numerator <= denominator,
            "gen_ratio: need 0 <= {numerator}/{denominator} <= 1"
        );
        self.bounded_u64(denominator as u64) < numerator as u64
    }

    /// A uniform `u64` in `[0, bound)` by 128-bit widening multiply.
    fn bounded_u64(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

/// Range types [`Pcg32::gen_range`] accepts, yielding samples of type
/// `T`. The output type is a trait parameter (not an associated type),
/// and the range impls are blanket impls over [`UniformSample`], so
/// integer literals in ranges unify with the call site's expected type
/// exactly as they would with a concrete function argument.
pub trait SampleRange<T> {
    /// Draw one uniform sample.
    fn sample(self, rng: &mut Pcg32) -> T;
}

/// Scalar types drawable uniformly from an interval.
pub trait UniformSample: Copy + PartialOrd {
    /// Uniform over `[lo, hi)`. Callers guarantee `lo < hi`.
    fn sample_half_open(lo: Self, hi: Self, rng: &mut Pcg32) -> Self;
    /// Uniform over `[lo, hi]`. Callers guarantee `lo <= hi`.
    fn sample_inclusive(lo: Self, hi: Self, rng: &mut Pcg32) -> Self;
}

macro_rules! impl_uniform_int {
    ($($t:ty),*) => {$(
        impl UniformSample for $t {
            fn sample_half_open(lo: Self, hi: Self, rng: &mut Pcg32) -> Self {
                let span = (hi as i128 - lo as i128) as u64;
                (lo as i128 + rng.bounded_u64(span) as i128) as $t
            }
            fn sample_inclusive(lo: Self, hi: Self, rng: &mut Pcg32) -> Self {
                let span = (hi as i128 - lo as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (lo as i128 + rng.bounded_u64(span + 1) as i128) as $t
            }
        }
    )*};
}

impl_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl UniformSample for f64 {
    fn sample_half_open(lo: Self, hi: Self, rng: &mut Pcg32) -> Self {
        let v = lo + rng.gen_f64() * (hi - lo);
        // Guard the open upper bound against rounding.
        if v >= hi {
            lo
        } else {
            v
        }
    }
    fn sample_inclusive(lo: Self, hi: Self, rng: &mut Pcg32) -> Self {
        lo + rng.gen_f64() * (hi - lo)
    }
}

impl<T: UniformSample> SampleRange<T> for std::ops::Range<T> {
    fn sample(self, rng: &mut Pcg32) -> T {
        assert!(self.start < self.end, "gen_range: empty range");
        T::sample_half_open(self.start, self.end, rng)
    }
}

impl<T: UniformSample> SampleRange<T> for std::ops::RangeInclusive<T> {
    fn sample(self, rng: &mut Pcg32) -> T {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "gen_range: empty range");
        T::sample_inclusive(lo, hi, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = Pcg32::new(Seed::root(42));
        let mut b = Pcg32::new(Seed::root(42));
        for _ in 0..1000 {
            assert_eq!(a.next_u32(), b.next_u32());
        }
        let mut c = Pcg32::new(Seed::root(43));
        let differs = (0..10).any(|_| a.next_u32() != c.next_u32());
        assert!(differs, "seeds 42 and 43 produced the same stream");
    }

    #[test]
    fn nearby_seeds_decorrelated() {
        // SplitMix64 expansion: consecutive seeds shouldn't share prefixes.
        let first: Vec<u32> = (0..16)
            .map(|s| Pcg32::new(Seed::root(s)).next_u32())
            .collect();
        let mut sorted = first.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), first.len(), "colliding first outputs");
    }

    #[test]
    fn int_ranges_in_bounds() {
        let mut rng = Pcg32::new(Seed::root(7));
        for _ in 0..10_000 {
            let v = rng.gen_range(10u64..20);
            assert!((10..20).contains(&v));
            let w = rng.gen_range(-4i32..=4);
            assert!((-4..=4).contains(&w));
            let u = rng.gen_range(0usize..1);
            assert_eq!(u, 0);
        }
    }

    #[test]
    fn int_ranges_hit_all_values() {
        let mut rng = Pcg32::new(Seed::root(11));
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[rng.gen_range(0usize..10)] = true;
        }
        assert!(seen.iter().all(|&s| s), "some bucket never drawn: {seen:?}");
        let mut hit_ends = (false, false);
        for _ in 0..1000 {
            match rng.gen_range(-1i64..=1) {
                -1 => hit_ends.0 = true,
                1 => hit_ends.1 = true,
                _ => {}
            }
        }
        assert!(hit_ends.0 && hit_ends.1, "inclusive endpoints never drawn");
    }

    #[test]
    fn float_range_uniformish() {
        let mut rng = Pcg32::new(Seed::root(3));
        let n = 100_000;
        let mut below = 0;
        for _ in 0..n {
            let v = rng.gen_range(0.0..2.0);
            assert!((0.0..2.0).contains(&v));
            if v < 1.0 {
                below += 1;
            }
        }
        let frac = below as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.01, "half-split fraction {frac}");
    }

    #[test]
    fn gen_bool_matches_probability() {
        let mut rng = Pcg32::new(Seed::root(9));
        let n = 100_000;
        let hits = (0..n).filter(|_| rng.gen_bool(0.3)).count();
        let frac = hits as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.01, "p=0.3 hit fraction {frac}");
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.1), "p>=1 must always hit");
    }

    #[test]
    fn full_u64_range_supported() {
        let mut rng = Pcg32::new(Seed::root(5));
        // Must not overflow the span arithmetic.
        let v = rng.gen_range(0u64..=u64::MAX);
        let _ = v;
        let w = rng.gen_range(i64::MIN..=i64::MAX);
        let _ = w;
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        Pcg32::new(Seed::root(0)).gen_range(5u32..5);
    }

    #[test]
    fn splitmix_reference_values() {
        // Reference vector from the canonical splitmix64.c with seed
        // 1234567: checked against the published test values.
        let mut s = 1234567u64;
        let got: Vec<u64> = (0..3).map(|_| splitmix64(&mut s)).collect();
        assert_eq!(got[0], 6457827717110365317);
        assert_eq!(got[1], 3203168211198807973);
        assert_eq!(got[2], 9817491932198370423);
    }
    #[test]
    fn derived_streams_are_pinned() {
        // First outputs recorded from the `u64` seeding this type
        // replaced: a root seed, `seed ^ SALT` (the TPC-H generator's and
        // `build_workload`'s derivation), `splitmix64(seed ^ salt)` (a
        // fault point's sequential stream) and `splitmix64(splitmix64(seed
        // ^ salt) ^ key)` (a keyed fault draw). A change here moves every
        // committed result.
        let take = |mut rng: Pcg32| -> Vec<u32> { (0..8).map(|_| rng.next_u32()).collect() };
        let root = Seed::root(42);
        assert_eq!(
            take(Pcg32::new(root)),
            [
                0xfd7e_8351,
                0x446d_66d6,
                0x5e50_461f,
                0x087c_7933,
                0xb292_86d0,
                0x46db_374e,
                0x6c69_160e,
                0xb34c_e737
            ]
        );
        assert_eq!(
            take(Pcg32::new(root.salted(0x9e37_79b9))),
            [
                0x43b9_ea2e,
                0x074c_85c1,
                0xfd84_f9f5,
                0x88fe_5f41,
                0xd280_baee,
                0xdbcb_3176,
                0x095e_9fac,
                0x2fc4_f7f6
            ]
        );
        assert_eq!(
            take(Pcg32::new(root.keyed(0xFA01))),
            [
                0x8005_3d7f,
                0x4999_5225,
                0x58c8_ab41,
                0x22ab_a8f9,
                0x7b6b_1928,
                0xe4db_ad6c,
                0x8808_7be0,
                0xd89c_ec08
            ]
        );
        assert_eq!(
            take(Pcg32::new(root.keyed(0xFA15).keyed(7))),
            [
                0x54d8_305b,
                0x47ed_37ef,
                0xe05d_cb09,
                0x2666_e2f2,
                0x2085_df35,
                0xd2a0_49aa,
                0xe626_b945,
                0x78c6_cf2b
            ]
        );
    }
}
