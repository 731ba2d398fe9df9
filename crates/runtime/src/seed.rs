//! Root-seed splitting: every component that consumes randomness derives
//! its own stream from one root seed.
//!
//! A single `--seed` on the command line must pin *all* nondeterminism —
//! the goroutine interleaving, the Table 1 run seeds and any
//! exploration-strategy RNG — without the streams aliasing each
//! other. [`seed_for`] splits a root seed into per-component seeds by
//! hashing the component's name (FNV-1a) into the root and finalizing with
//! the SplitMix64 mixer, so distinct component names yield statistically
//! independent seeds and the mapping is stable across runs and platforms.

/// Derives the seed for a named component from a root seed.
///
/// The mapping is pure and stable: the same `(root, component)` pair
/// always yields the same seed, and different component names yield
/// unrelated seeds even for adjacent roots.
///
/// Component names derived across the workspace:
///
/// | component               | consumer                                  |
/// |-------------------------|-------------------------------------------|
/// | `"table1"`              | per-run seed stream of the Table 1 sweep  |
/// | `"vm/<target>"`         | per-target VM seed stream (`golf-explore` campaigns) |
/// | `"strategy/<target>"`   | per-target strategy RNG stream (`golf-explore` campaigns) |
/// | `"corpus_sweep"`        | `golfbench`'s corpus_sweep run seeds      |
/// | `"<workload>"`          | `golfbench`'s per-run trace id (`service_leak`, `heap_churn`, `corpus_sweep`) |
///
/// # Example
///
/// ```
/// use golf_runtime::seed_for;
///
/// let root = 42;
/// assert_eq!(seed_for(root, "table1"), seed_for(root, "table1"));
/// assert_ne!(seed_for(root, "table1"), seed_for(root, "corpus_sweep"));
/// assert_ne!(seed_for(root, "table1"), seed_for(root + 1, "table1"));
/// ```
pub fn seed_for(root: u64, component: &str) -> u64 {
    // FNV-1a over the component name…
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in component.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // …mixed into the root and finalized with SplitMix64.
    let mut z = root ^ h;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_and_distinct() {
        assert_eq!(seed_for(7, "table1"), seed_for(7, "table1"));
        let components = ["table1", "vm/x", "strategy/x", "corpus_sweep", "heap_churn"];
        let mut seen = std::collections::HashSet::new();
        for c in components {
            for root in [0u64, 1, 42, u64::MAX] {
                assert!(seen.insert(seed_for(root, c)), "collision at ({root}, {c})");
            }
        }
    }

    #[test]
    fn zero_root_is_not_a_fixed_point() {
        assert_ne!(seed_for(0, "table1"), 0);
        assert_ne!(seed_for(0, "corpus_sweep"), 0);
    }
}
