//! Role-aware workload generation, shared by the threaded driver
//! (`hi_api::drive`) and the simulator checker (`hi_spec::check_sim_object`).
//!
//! Both worlds draw their per-role operation scripts from the same menus
//! ([`menus_for`]) with the same generator ([`random_script`]) and the same
//! per-role seed derivation ([`handle_seed`]), so a scenario's threaded
//! backend and its simulator twin face mirrored workloads *by construction*
//! rather than by per-scenario convention.

use crate::object::{EnumerableSpec, Roles};

/// A minimal splitmix64 generator: deterministic workloads without a
/// dependency on the vendored `rand` stub.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Creates the generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (bound > 0).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

impl SplitMix64 {
    /// Uniform in `[0, 1)`: the top 53 bits of the next output, so the
    /// conversion to `f64` is exact.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Builds a deterministic random script of `len` operations drawn from
/// `menu`.
pub fn random_script<Op: Clone>(menu: &[Op], len: usize, seed: u64) -> Vec<Op> {
    let mut rng = SplitMix64::new(seed);
    (0..len)
        .map(|_| menu[rng.below(menu.len())].clone())
        .collect()
}

/// How a workload's operation *ranks* are distributed: the shape of a
/// service-load key popularity curve. The service harness samples a rank
/// per submitted operation and maps it through a seeded shuffle of the
/// operation menu, so "rank 0 is hottest" becomes "one hot (op, key) pair"
/// without the generator knowing anything about the operation type.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum KeyDist {
    /// Every rank equally likely (the tight-loop benchmarks' shape).
    Uniform,
    /// Zipfian with exponent `theta`: rank `i` is drawn with probability
    /// proportional to `1 / (i + 1)^theta`. `theta = 0` degenerates to
    /// uniform; web/cache traces are commonly fitted near `theta ≈ 1`.
    Zipfian {
        /// The skew exponent (≥ 0).
        theta: f64,
    },
}

/// A sampler of ranks in `0..n` under a [`KeyDist`], deterministic given
/// the caller's [`SplitMix64`] stream.
///
/// A Zipfian draw takes the 53 bits [`SplitMix64::unit`] would turn into
/// `u ∈ [0, 1)` and returns the first rank whose cumulative probability
/// exceeds `u`. A guide table in front of the CDF (the cutpoint method of
/// Chen & Asau, 1974) narrows that search: the top `log2 K` of the 53 bits
/// name a bucket `j`, and `guide[j]` is the first rank whose cumulative
/// probability exceeds `j / K`. Since `j / K ≤ u < (j + 1) / K` and the CDF
/// is non-decreasing, the full-CDF binary search would land in
/// `guide[j]..=guide[j + 1]`, so searching only that bracket returns the
/// same rank for every draw. `K` is the power of two at or above `4n`,
/// capped at 2^20, so the guide costs at most 4 MiB next to the CDF's
/// `8n` bytes.
#[derive(Clone, Debug)]
pub struct KeySampler {
    n: usize,
    /// The Zipfian search tables (`None` for the uniform fast path).
    zipf: Option<Zipf>,
}

/// A Zipfian sampler's cumulative probabilities and their guide table.
#[derive(Clone, Debug)]
struct Zipf {
    /// Cumulative rank probabilities.
    cdf: Vec<f64>,
    /// `K + 1` entries for `K` a power of two: entry `j` is the first rank
    /// whose cumulative probability exceeds `j / K`.
    guide: Vec<u32>,
    /// `53 - log2 K`: a 53-bit draw shifted right by this is its bucket.
    shift: u32,
}

impl Zipf {
    fn new(theta: f64, n: usize) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|i| {
                acc += 1.0 / ((i + 1) as f64).powf(theta);
                acc
            })
            .collect();
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        let k = (4 * n).next_power_of_two().min(1 << 20);
        // One merge pass over the CDF and the bucket edges `j / K` (exact
        // in f64, since K is a power of two).
        let mut rank = 0;
        let guide = (0..=k)
            .map(|j| {
                let edge = j as f64 / k as f64;
                while rank < n && cdf[rank] <= edge {
                    rank += 1;
                }
                rank as u32
            })
            .collect();
        Zipf {
            cdf,
            guide,
            shift: 53 - k.trailing_zeros(),
        }
    }

    /// The rank of the 53-bit draw `x`, i.e. of `u = x / 2^53`.
    fn rank_of(&self, x: u64) -> usize {
        let u = x as f64 / (1u64 << 53) as f64;
        let j = (x >> self.shift) as usize;
        let (lo, hi) = (self.guide[j] as usize, self.guide[j + 1] as usize);
        // First rank whose cumulative probability exceeds u; the final
        // entry is 1.0 (up to rounding), so the clamp covers the u ≈ 1 edge.
        (lo + self.cdf[lo..hi].partition_point(|&c| c <= u)).min(self.cdf.len() - 1)
    }

    /// The unguided search `rank_of` must match: a binary search of the
    /// whole CDF.
    #[cfg(test)]
    fn full_search_rank_of(&self, x: u64) -> usize {
        let u = x as f64 / (1u64 << 53) as f64;
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

impl KeySampler {
    /// Builds a sampler over `n > 0` ranks.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, if a Zipfian `theta` is negative or non-finite,
    /// or if a Zipfian `n` exceeds `u32::MAX`.
    pub fn new(dist: KeyDist, n: usize) -> Self {
        assert!(n > 0, "a sampler needs at least one rank");
        let zipf = match dist {
            KeyDist::Uniform => None,
            KeyDist::Zipfian { theta } => {
                assert!(
                    theta.is_finite() && theta >= 0.0,
                    "Zipfian theta must be finite and >= 0, got {theta}"
                );
                assert!(
                    u32::try_from(n).is_ok(),
                    "a Zipfian sampler takes at most u32::MAX ranks, got {n}"
                );
                Some(Zipf::new(theta, n))
            }
        };
        KeySampler { n, zipf }
    }

    /// The number of ranks.
    pub fn ranks(&self) -> usize {
        self.n
    }

    /// Draws one rank in `0..n`.
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        match &self.zipf {
            None => rng.below(self.n),
            Some(zipf) => zipf.rank_of(rng.next_u64() >> 11),
        }
    }
}

/// Domain-separation constant of [`seeded_shuffle`] (kept out of the seed
/// the scripts draw from, so shuffling and sampling are independent).
const SHUFFLE_SALT: u64 = 0x1b87_3c93_a2f4_55d1;

/// A deterministic Fisher–Yates shuffle of `items` under `seed`: the
/// rank-to-operation assignment of a skewed workload, so the hot rank is a
/// seed-dependent menu entry instead of always the first.
pub fn seeded_shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = SplitMix64::new(seed ^ SHUFFLE_SALT);
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// Builds a deterministic script of `len` operations drawn from `menu`
/// under a rank distribution: ranks are sampled from `dist` and mapped
/// through a seeded shuffle of the menu. `KeyDist::Uniform` reproduces
/// [`random_script`]'s shape (though not its exact byte stream).
pub fn skewed_script<Op: Clone>(menu: &[Op], len: usize, seed: u64, dist: KeyDist) -> Vec<Op> {
    let mut ranked: Vec<Op> = menu.to_vec();
    seeded_shuffle(&mut ranked, seed);
    let sampler = KeySampler::new(dist, ranked.len());
    let mut rng = SplitMix64::new(seed);
    (0..len)
        .map(|_| ranked[sampler.sample(&mut rng)].clone())
        .collect()
}

/// The arrival process of one logical client: when operations are
/// *submitted*, independent of what they are.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arrival {
    /// Back-to-back submission (closed-loop load).
    Steady,
    /// On/off duty cycle: `on` operations back-to-back, then `off` idle
    /// ticks, repeated. What a tick means (a yield, a sleep quantum) is the
    /// harness's choice; the generator only shapes the pattern.
    Bursty {
        /// Operations per burst (> 0).
        on: u32,
        /// Idle ticks between bursts.
        off: u32,
    },
}

/// A deterministic arrival-gap generator: for each submitted operation,
/// the number of idle ticks to insert *before* it. Seeding offsets the
/// duty-cycle phase so a fleet of clients does not burst in lockstep.
#[derive(Clone, Debug)]
pub struct ArrivalGen {
    arrival: Arrival,
    /// Operations submitted in the current burst.
    pos: u32,
}

impl ArrivalGen {
    /// Builds the generator; under [`Arrival::Bursty`] the starting phase
    /// is `seed % on`.
    ///
    /// # Panics
    ///
    /// Panics if a bursty `on` length is zero.
    pub fn new(arrival: Arrival, seed: u64) -> Self {
        let pos = match arrival {
            Arrival::Steady => 0,
            Arrival::Bursty { on, .. } => {
                assert!(on > 0, "a burst must contain at least one operation");
                (seed % on as u64) as u32
            }
        };
        ArrivalGen { arrival, pos }
    }

    /// Idle ticks before the next operation is submitted.
    pub fn next_gap(&mut self) -> u32 {
        match self.arrival {
            Arrival::Steady => 0,
            Arrival::Bursty { on, off } => {
                if self.pos >= on {
                    self.pos = 1;
                    off
                } else {
                    self.pos += 1;
                    0
                }
            }
        }
    }
}

/// The seed of role `i`'s script under a driver seed.
pub fn handle_seed(seed: u64, i: usize) -> u64 {
    seed ^ (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// The per-role operation menus of `spec` under a role discipline: entry
/// `i` lists the operations role `i` may invoke, in `spec.ops()` order.
///
/// * [`Roles::SingleWriterSingleReader`]: the mutator (role 0) owns every
///   mutator operation (`ObjectSpec::is_mutator_op`), the observer (role 1)
///   the rest.
/// * [`Roles::MultiProcess`]: every role gets every operation it owns under
///   [`ObjectSpec::op_owner`](crate::ObjectSpec::op_owner) (process-agnostic operations go to everyone).
///
/// # Example
///
/// ```
/// use hi_core::objects::{MultiRegisterSpec, RegisterOp};
/// use hi_core::{menus_for, Roles};
///
/// let menus = menus_for(&MultiRegisterSpec::new(2, 1), Roles::SingleWriterSingleReader);
/// assert_eq!(menus[0], vec![RegisterOp::Write(1), RegisterOp::Write(2)]);
/// assert_eq!(menus[1], vec![RegisterOp::Read]);
/// ```
pub fn menus_for<S: EnumerableSpec>(spec: &S, roles: Roles) -> Vec<Vec<S::Op>> {
    let all = spec.ops();
    (0..roles.num_handles())
        .map(|role| {
            all.iter()
                .filter(|op| roles.allows(spec, role, op))
                .cloned()
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::ObjectSpec;
    use crate::objects::{BoundedQueueSpec, CounterOp, CounterSpec, MultiRegisterSpec, QueueOp};

    #[test]
    fn splitmix_is_deterministic() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::new(42);
            (0..5).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::new(42);
            (0..5).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn scripts_draw_only_from_the_menu() {
        let menu = vec![1u8, 2, 3];
        let script = random_script(&menu, 100, 7);
        assert_eq!(script.len(), 100);
        assert!(script.iter().all(|v| menu.contains(v)));
    }

    #[test]
    fn handle_seeds_differ_per_role() {
        assert_ne!(handle_seed(9, 0), handle_seed(9, 1));
    }

    #[test]
    fn swsr_menus_split_by_read_onlyness() {
        let spec = BoundedQueueSpec::new(2, 3);
        let menus = menus_for(&spec, Roles::SingleWriterSingleReader);
        assert_eq!(menus.len(), 2);
        assert!(menus[0].iter().all(|op| !spec.is_read_only(op)));
        assert!(menus[0].contains(&QueueOp::Dequeue));
        assert_eq!(menus[1], vec![QueueOp::Peek]);
    }

    #[test]
    fn multiprocess_menus_are_symmetric_without_owners() {
        let spec = CounterSpec::new(0, 3, 0);
        let menus = menus_for(&spec, Roles::MultiProcess { n: 3 });
        assert_eq!(menus.len(), 3);
        for menu in &menus {
            assert_eq!(*menu, vec![CounterOp::Inc, CounterOp::Dec, CounterOp::Read]);
        }
    }

    #[test]
    fn zipfian_top_rank_frequency_is_in_the_analytic_band() {
        // n = 100, theta = 1: p(rank 0) = 1 / H_100 ≈ 0.1928. A 100k-sample
        // run must land well inside ±0.02 of that.
        let sampler = KeySampler::new(KeyDist::Zipfian { theta: 1.0 }, 100);
        let mut rng = SplitMix64::new(0xd157);
        let samples = 100_000;
        let mut counts = [0usize; 100];
        for _ in 0..samples {
            counts[sampler.sample(&mut rng)] += 1;
        }
        let top = counts[0] as f64 / samples as f64;
        assert!(
            (0.17..0.22).contains(&top),
            "top-rank frequency {top} outside the Zipf(1) band around 0.193"
        );
        // The curve must actually be skewed: rank 0 dominates mid-ranks.
        assert!(
            counts[0] > counts[49] * 10,
            "rank 0 ({}) should dwarf rank 49 ({})",
            counts[0],
            counts[49]
        );
    }

    /// FNV-1a over 64-bit words.
    fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for w in words {
            for b in w.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
        }
        h
    }

    /// Checks the guided search against the full-CDF search for one `n`
    /// under every skew of the grid: 10^5 stream draws, both sides of
    /// every bucket edge, and the largest 53-bit draw (the clamp edge).
    fn assert_guided_draws_match_full_search(n: usize) {
        for theta in [0.0, 0.8, 1.0, 1.05, 1.1, 1.2, 2.5] {
            let sampler = KeySampler::new(KeyDist::Zipfian { theta }, n);
            let zipf = sampler.zipf.as_ref().unwrap();
            let k = zipf.guide.len() - 1;
            let check = |x: u64| {
                assert_eq!(
                    zipf.rank_of(x),
                    zipf.full_search_rank_of(x),
                    "n = {n}, theta = {theta}, x = {x:#x}"
                );
            };
            let mut rng = SplitMix64::new(0x5eed ^ n as u64);
            for _ in 0..100_000 {
                check(rng.next_u64() >> 11);
            }
            for j in 1..k as u64 {
                let edge = j << zipf.shift;
                check(edge);
                check(edge - 1);
            }
            check(0);
            check((1 << 53) - 1);
        }
    }

    #[test]
    fn guided_draws_equal_the_full_cdf_search_on_small_tables() {
        for n in [1, 2, 3, 7, 48, 100, 1000] {
            assert_guided_draws_match_full_search(n);
        }
    }

    #[test]
    fn guided_draws_equal_the_full_cdf_search_at_24k_ranks() {
        assert_guided_draws_match_full_search(24_576);
    }

    #[test]
    fn guided_draws_equal_the_full_cdf_search_at_64k_ranks() {
        assert_guided_draws_match_full_search(1 << 16);
    }

    #[test]
    fn zipfian_draws_match_their_golden_digests() {
        // Recorded from the full-CDF search the guide replaced: any change
        // to the CDF, the draw or the RNG stream moves these.
        let ranks = |n: usize, theta: f64| {
            let sampler = KeySampler::new(KeyDist::Zipfian { theta }, n);
            let mut rng = SplitMix64::new(0xbe7c);
            fnv((0..1 << 16).map(|_| sampler.sample(&mut rng) as u64))
        };
        assert_eq!(ranks(24_576, 1.05), 0x8a0b_79c9_4bb8_e9b7);
        assert_eq!(ranks(48, 1.1), 0x7230_6124_8003_1a64);
        let menu: Vec<u32> = (0..24).collect();
        let script = skewed_script(&menu, 5_000, 0xabcd, KeyDist::Zipfian { theta: 1.2 });
        assert_eq!(
            fnv(script.iter().map(|&v| u64::from(v))),
            0x2bcc_12e9_c5e3_ba5e
        );
    }

    #[test]
    fn zipfian_theta_zero_degenerates_to_uniform() {
        let sampler = KeySampler::new(KeyDist::Zipfian { theta: 0.0 }, 50);
        let mut rng = SplitMix64::new(7);
        let samples = 100_000;
        let mut counts = [0usize; 50];
        for _ in 0..samples {
            counts[sampler.sample(&mut rng)] += 1;
        }
        // Expected 2000 per rank; 5σ ≈ 220.
        for (rank, &c) in counts.iter().enumerate() {
            assert!(
                (1700..2300).contains(&c),
                "rank {rank} drew {c} times, far from the uniform 2000"
            );
        }
    }

    #[test]
    fn skewed_scripts_are_byte_equal_per_seed() {
        let menu: Vec<u32> = (0..24).collect();
        for dist in [
            KeyDist::Uniform,
            KeyDist::Zipfian { theta: 0.8 },
            KeyDist::Zipfian { theta: 1.2 },
        ] {
            let a = skewed_script(&menu, 5_000, 0xabcd, dist);
            let b = skewed_script(&menu, 5_000, 0xabcd, dist);
            assert_eq!(a, b, "two runs under one seed must be identical");
            let c = skewed_script(&menu, 5_000, 0xabce, dist);
            assert_ne!(a, c, "a different seed must change the stream");
            assert!(a.iter().all(|v| menu.contains(v)));
        }
    }

    #[test]
    fn skewed_script_hot_entry_depends_on_the_seed() {
        // The seeded shuffle must decouple "hottest rank" from "first menu
        // entry": across a handful of seeds the hot entry varies.
        let menu: Vec<u32> = (0..16).collect();
        let hot_of = |seed: u64| {
            let script = skewed_script(&menu, 4_000, seed, KeyDist::Zipfian { theta: 1.2 });
            let mut counts = [0usize; 16];
            for v in script {
                counts[v as usize] += 1;
            }
            (0..16).max_by_key(|&i| counts[i]).unwrap()
        };
        let hots: std::collections::BTreeSet<usize> = (0..6).map(|s| hot_of(s as u64)).collect();
        assert!(
            hots.len() > 1,
            "hot entry {hots:?} never moved across six seeds"
        );
    }

    #[test]
    fn bursty_arrivals_follow_the_duty_cycle() {
        let mut gen = ArrivalGen::new(Arrival::Bursty { on: 4, off: 3 }, 0);
        let gaps: Vec<u32> = (0..12).map(|_| gen.next_gap()).collect();
        assert_eq!(gaps, vec![0, 0, 0, 0, 3, 0, 0, 0, 3, 0, 0, 0]);
        // Seeding shifts the phase but preserves the cycle structure.
        let mut shifted = ArrivalGen::new(Arrival::Bursty { on: 4, off: 3 }, 2);
        let shifted_gaps: Vec<u32> = (0..12).map(|_| shifted.next_gap()).collect();
        assert_eq!(shifted_gaps, vec![0, 0, 3, 0, 0, 0, 3, 0, 0, 0, 3, 0]);
        assert_eq!(
            shifted_gaps.iter().filter(|&&g| g != 0).count(),
            3,
            "one off-phase per four submissions"
        );
        let mut steady = ArrivalGen::new(Arrival::Steady, 9);
        assert!((0..100).all(|_| steady.next_gap() == 0));
    }

    #[test]
    fn menus_cover_every_op_exactly_per_role_discipline() {
        let spec = MultiRegisterSpec::new(3, 1);
        let menus = menus_for(&spec, Roles::SingleWriterSingleReader);
        let mut flat: Vec<_> = menus.concat();
        flat.sort_by_key(|op| format!("{op:?}"));
        let mut all = spec.ops();
        all.sort_by_key(|op| format!("{op:?}"));
        assert_eq!(flat, all, "SWSR menus partition the operation set");
    }
}
