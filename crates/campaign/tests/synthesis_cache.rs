//! The shared synthesis cache must make a TB sweep synthesize each distinct
//! bound exactly once, no matter how many monitors register it.
//!
//! This file stays a single-test binary: the assertions are exact counter
//! checks on the process-wide cache, which only hold while nothing else in
//! the process registers properties concurrently.

use eee::{response_property, Op};
use sctc_core::{ClosureProp, Sctc};
use sctc_temporal::SynthesisCache;

#[test]
fn tb_sweep_synthesizes_each_bound_exactly_once() {
    let cache = SynthesisCache::global();
    cache.clear();

    // The paper's TB sweep, re-registered 4× (as a campaign's shards and
    // repeated sweeps would): 12 monitor registrations, 3 distinct bounds.
    for _rep in 0..4 {
        for bound in [100u64, 1000, 10_000] {
            let mut sctc = Sctc::new();
            sctc.add_property(
                "read_response",
                &response_property(Op::Read, Some(bound)),
                vec![
                    ClosureProp::boxed("op_active", || false),
                    ClosureProp::boxed("op_done", || true),
                ],
            )
            .unwrap();
        }
    }

    let stats = cache.stats();
    assert_eq!(stats.misses, 3, "each bound synthesized exactly once");
    assert_eq!(stats.entries, 3);
    assert_eq!(stats.hits, 9, "all later registrations are hits");
    assert!(
        stats.hit_rate() >= 0.5,
        "TB sweep must report >= 50% hit rate, got {:.0}%",
        100.0 * stats.hit_rate()
    );

    // The sweep's automata really are the per-bound ones.
    let aut_100 = cache
        .synthesize(&response_property(Op::Read, Some(100)))
        .unwrap();
    let aut_10k = cache
        .synthesize(&response_property(Op::Read, Some(10_000)))
        .unwrap();
    assert!(aut_10k.state_count() > aut_100.state_count());
    let after = cache.stats();
    assert_eq!(after.misses, 3, "lookups after the sweep stay hits");
}
