//! The default `auto` engine against the frontier engine, flood by flood.
//!
//! An auto batch runs its first source set on frontier and then either
//! packs the rest into 64-lane bitlane runs or keeps flooding them on
//! frontier. Both branches must report exactly what a frontier batch
//! reports, and each case here also asserts which branch ran: on a sparse
//! random graph (wide, overlapping wavefronts) an uncapped batch of more
//! than 64 floods packs, and on a path (one-arc wavefronts) no batch ever
//! does. The sizes cover a lone set, one trailing lane, and the 64-lane
//! word boundaries of the remainder (62, 63, 64 and 128 trailing sets).

use amnesiac_flooding::core::{FloodBatch, FloodEngine, FloodStats};
use amnesiac_flooding::graph::{generators, Graph, NodeId};
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

mod common;
use common::{source_set_for, EngineStarts};

/// Batch sizes every case floods.
const BATCH_SIZES: [usize; 6] = [1, 2, 63, 64, 65, 129];

/// The documented packing rule, restated from its definition: the first
/// flood terminated after `T ≥ 1` rounds and `M` messages, and the next
/// `L = min(64, remaining)` floods like it would fill at least half of
/// the `2m` arcs per round, `L · M / (2m · T) ≥ 1/2`.
fn rule_packs(first: &FloodStats, remaining: usize, edges: usize) -> bool {
    match first.termination_round() {
        Some(rounds) if rounds > 0 && remaining > 0 => {
            let lanes = remaining.min(64) as u64;
            2 * lanes * first.total_messages() >= 2 * edges as u64 * u64::from(rounds)
        }
        _ => false,
    }
}

/// `k` source sets of one to three nodes; set 0 is a single source.
fn source_sets(n: usize, k: usize, seed: u64) -> Vec<Vec<NodeId>> {
    (0..k)
        .map(|i| source_set_for(n, i % 3, seed ^ i as u64))
        .collect()
}

/// Floods `sets` on an auto batch and on a frontier batch under the same
/// cap, requires identical stats and the branch the rule names, and
/// returns whether the auto batch packed.
fn auto_matches_frontier(
    g: &Graph,
    sets: &[Vec<NodeId>],
    cap: Option<u32>,
) -> Result<bool, TestCaseError> {
    let mut frontier = FloodBatch::with_engine(g, FloodEngine::Frontier);
    let mut auto = FloodBatch::new(g);
    if let Some(cap) = cap {
        frontier = frontier.with_max_rounds(cap);
        auto = auto.with_max_rounds(cap);
    }
    let starts = Rc::new(RefCell::new(EngineStarts::default()));
    auto.set_probe(Some(starts.clone()));
    let want = frontier.run_many(sets);
    let got = auto.run_many(sets);
    prop_assert_eq!(&got, &want, "{} sets, cap {:?}", sets.len(), cap);

    let packed = rule_packs(&want[0], sets.len() - 1, g.edge_count());
    let starts = starts.borrow();
    let expected = if packed {
        (1, (sets.len() - 1).div_ceil(64))
    } else {
        (sets.len(), 0)
    };
    prop_assert_eq!(
        (starts.frontier, starts.bitlane),
        expected,
        "{} sets, cap {:?}: (frontier, bitlane) flood starts",
        sets.len(),
        cap
    );
    Ok(packed)
}

/// The threshold itself: C4 from one node takes `T = 2` rounds and
/// `M = m = 4` messages, so two trailing lanes fill exactly
/// `2·4 / (2·4·2) = 1/2` of the arcs and pack, and one does not.
#[test]
fn auto_packs_at_exactly_half_occupancy() {
    let g = generators::cycle(4);
    let sets = vec![vec![0.into()], vec![1.into()], vec![0.into(), 2.into()]];
    assert!(auto_matches_frontier(&g, &sets, None).unwrap());
    assert!(!auto_matches_frontier(&g, &sets[..2], None).unwrap());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sparse random graphs: low diameter, so 63 or more trailing lanes
    /// always clear the threshold on an uncapped batch.
    #[test]
    fn auto_matches_frontier_on_sparse_random_graphs(
        n in 150usize..400,
        graph_seed in any::<u64>(),
        set_seed in any::<u64>(),
        cap in 1u32..12,
    ) {
        let g = generators::sparse_connected(n, n, graph_seed);
        for k in BATCH_SIZES {
            let sets = source_sets(n, k, set_seed);
            for cap in [None, Some(cap)] {
                let packed = auto_matches_frontier(&g, &sets, cap)?;
                if cap.is_none() && k >= 64 {
                    prop_assert!(packed, "{} uncapped sets on {} must pack", k, g);
                }
            }
        }
    }

    /// Paths: a single source's flood runs `e(s) ≥ n / 2 > 64` rounds of
    /// one arc each, so no batch reaches the threshold.
    #[test]
    fn auto_stays_on_frontier_on_paths(
        n in 130usize..300,
        set_seed in any::<u64>(),
        cap in 1u32..200,
    ) {
        let g = generators::path(n);
        for k in BATCH_SIZES {
            let sets = source_sets(n, k, set_seed);
            for cap in [None, Some(cap)] {
                let packed = auto_matches_frontier(&g, &sets, cap)?;
                prop_assert!(!packed, "{} sets on {} must not pack", k, g);
            }
        }
    }
}
