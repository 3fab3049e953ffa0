//! Named per-stream RNGs.
//!
//! Every stream is an independent ChaCha8 generator seeded from
//! `(master seed, stream name)`. Because each stream's seed depends only on
//! its own name, registering a new event source (a new stream) never shifts
//! the draws any existing stream produces — the property a single shared RNG
//! cannot give.

use std::collections::BTreeMap;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Derives the seed of stream `name` under `master`: FNV-1a over the name,
/// mixed with the master seed through a SplitMix64 finalizer so that similar
/// names and similar master seeds still land far apart.
pub fn derive_stream_seed(master: u64, name: &str) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    // SplitMix64 finalizer over the combined value.
    let mut z = master ^ h;
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A registry of named, independently seeded RNG streams.
pub struct StreamRngs {
    master: u64,
    streams: BTreeMap<String, ChaCha8Rng>,
}

impl StreamRngs {
    /// Creates a registry; streams are lazily created on first use.
    pub fn new(master: u64) -> Self {
        StreamRngs {
            master,
            streams: BTreeMap::new(),
        }
    }

    /// The mutable RNG of stream `name`, created on first use from the
    /// derived `(master, name)` seed.
    pub fn stream(&mut self, name: &str) -> &mut ChaCha8Rng {
        if !self.streams.contains_key(name) {
            let seed = derive_stream_seed(self.master, name);
            self.streams
                .insert(name.to_string(), ChaCha8Rng::seed_from_u64(seed));
        }
        self.streams.get_mut(name).expect("stream just inserted")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn draws(rng: &mut ChaCha8Rng, n: usize) -> Vec<u64> {
        (0..n).map(|_| rng.random::<u64>()).collect()
    }

    #[test]
    fn streams_are_deterministic_per_master_and_name() {
        let mut a = StreamRngs::new(7);
        let mut b = StreamRngs::new(7);
        assert_eq!(draws(a.stream("x"), 8), draws(b.stream("x"), 8));
        let mut c = StreamRngs::new(8);
        assert_ne!(draws(a.stream("y"), 8), draws(c.stream("y"), 8));
    }

    #[test]
    fn distinct_names_give_distinct_sequences() {
        let mut r = StreamRngs::new(1);
        let x = draws(r.stream("x"), 8);
        let y = draws(r.stream("y"), 8);
        assert_ne!(x, y);
    }

    #[test]
    fn using_one_stream_never_perturbs_another() {
        // Baseline: draw 8 values from "a" with no other streams in play.
        let mut solo = StreamRngs::new(42);
        let baseline = draws(solo.stream("a"), 8);

        // Interleave draws from "b" (and create "c"): "a" must be unmoved.
        let mut mixed = StreamRngs::new(42);
        let mut got = Vec::new();
        for i in 0..8 {
            let _ = mixed.stream("b").random::<u64>();
            if i == 3 {
                let _ = mixed.stream("c").random::<f64>();
            }
            got.push(mixed.stream("a").random::<u64>());
        }
        assert_eq!(baseline, got);
    }
}
