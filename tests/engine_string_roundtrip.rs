//! The engine-string contract: every [`FloodEngine`] value survives a
//! round trip through its canonical string form, `parse(display(e)) == e`.
//!
//! The canonical strings are load-bearing in three places that must never
//! drift apart: the CLI's `--engine` flag, the `engine_spec` column of
//! `BENCH_flooding.json` (schema v6), and the `engine` field of the
//! `af-serve` wire protocol. One `FromStr`/`Display` pair in `af_core`
//! serves all three, and this suite pins the pair as mutually inverse
//! over the whole value space — so any recorded spec replays verbatim
//! through any entry point.

use amnesiac_flooding::core::FloodEngine;
use amnesiac_flooding::graph::dynamic::{ChurnKind, ChurnSpec};
use amnesiac_flooding::graph::PartitionStrategy;
use proptest::prelude::*;

/// Every engine value, over the full parameter space: arbitrary shard
/// counts (including ones the partitioner would clamp — the *spec*
/// records the request), every partition strategy, and churn specs across
/// every kind, the full parse-accepted rate range, and arbitrary seeds.
///
/// The zero-rate churn case is generated as [`ChurnSpec::NONE`] exactly:
/// a rate-0 spec *displays* as `"none"` whatever its kind and seed, so
/// `NONE` is the canonical representative of that equivalence class —
/// the same normalization every string-borne spec has already been
/// through.
fn engine_strategy() -> impl Strategy<Value = FloodEngine> {
    let strategy = prop_oneof![
        Just(PartitionStrategy::Contiguous),
        Just(PartitionStrategy::RoundRobin),
        Just(PartitionStrategy::Bfs),
    ];
    let kind = prop_oneof![
        Just(ChurnKind::Edge),
        Just(ChurnKind::Nodes),
        Just(ChurnKind::Mix),
    ];
    let churn = prop_oneof![
        Just(ChurnSpec::NONE),
        (kind, 1u32..=1000, any::<u64>()).prop_map(|(kind, rate_pm, seed)| ChurnSpec {
            kind,
            rate_pm,
            seed,
        }),
    ];
    prop_oneof![
        Just(FloodEngine::Auto),
        Just(FloodEngine::Frontier),
        Just(FloodEngine::Fast),
        Just(FloodEngine::BitLane),
        (1usize..10_000, strategy)
            .prop_map(|(threads, strategy)| FloodEngine::Sharded { threads, strategy }),
        churn.prop_map(|churn| FloodEngine::Dynamic { churn }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `FromStr` inverts `Display` on every engine value.
    #[test]
    fn parse_inverts_display(engine in engine_strategy()) {
        let spec = engine.to_string();
        let back: FloodEngine = spec.parse().unwrap_or_else(|e| {
            panic!("canonical spec '{spec}' failed to parse: {e}")
        });
        prop_assert_eq!(back, engine, "spec '{}'", spec);
    }

    /// Display is idempotent through the round trip: re-displaying the
    /// parsed value reproduces the string, so canonical specs are fixed
    /// points (no second normalization step exists).
    #[test]
    fn display_is_a_fixed_point(engine in engine_strategy()) {
        let spec = engine.to_string();
        let back: FloodEngine = spec.parse().unwrap();
        prop_assert_eq!(back.to_string(), spec);
    }
}

/// The shorthand forms (`sharded`, `sharded:2`, `dynamic`) normalize to
/// their canonical expansions, and the canonical string of every
/// shorthand re-parses onto the same engine — the wire and the bench
/// JSON only ever carry fixed points.
#[test]
fn shorthands_normalize_onto_fixed_points() {
    for (shorthand, canonical) in [
        ("sharded", "sharded:4:bfs"),
        ("sharded:2", "sharded:2:bfs"),
        ("dynamic", "dynamic:none"),
        ("auto", "auto"),
        ("frontier", "frontier"),
        ("fast", "fast"),
        ("bitlane", "bitlane"),
        ("dynamic:mix:50:7", "dynamic:mix:50:7"),
    ] {
        let engine: FloodEngine = shorthand.parse().unwrap();
        assert_eq!(engine.to_string(), canonical, "{shorthand}");
        let reparsed: FloodEngine = canonical.parse().unwrap();
        assert_eq!(reparsed, engine, "{shorthand}");
    }
}
