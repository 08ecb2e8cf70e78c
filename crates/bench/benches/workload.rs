//! The service harness's per-op rank draw: one `KeySampler::sample` under
//! the three Zipf shapes the soaks and perfbench draw from.
//!
//! Shape to reproduce: a draw costs a guide-table lookup and a short
//! bracket search, so it grows only slowly with the number of ranks, from
//! the 48-rank service table to the 3·2^20-rank op space of the 2^20-key
//! sharded soak.

use hi_bench::Group;
use hi_core::{KeyDist, KeySampler, SplitMix64};

fn main() {
    let group = Group::new("key_sampler");
    for (n, theta) in [(48, 1.1), (24_576, 1.05), (3 << 20, 1.05)] {
        let sampler = KeySampler::new(KeyDist::Zipfian { theta }, n);
        let mut rng = SplitMix64::new(0xbe7c);
        group.bench(format!("zipf_{theta}/{n}"), || sampler.sample(&mut rng));
    }
}
