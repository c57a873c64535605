//! Helpers shared by the engine property suites (each suite is its own
//! test crate; this directory module is compiled into both, so the
//! source-set ladder is defined exactly once).

use amnesiac_flooding::core::obs::{FloodProbe, FloodStart};
use amnesiac_flooding::graph::NodeId;

/// A deterministic source set for a graph with `n` nodes. `selector`
/// picks the set size from the ladder `{1, 2, 3, ⌈√n⌉}` the multi-source
/// suites pin (sizes above `n` clamp); `seed` drives a splitmix-style
/// walk that fills the set with distinct nodes.
pub fn source_set_for(n: usize, selector: usize, seed: u64) -> Vec<NodeId> {
    let size = match selector % 4 {
        0 => 1,
        1 => 2,
        2 => 3,
        _ => (n as f64).sqrt().ceil() as usize,
    }
    .clamp(1, n);
    let mut set = Vec::with_capacity(size);
    let mut x = seed;
    while set.len() < size {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let v = NodeId::new((x >> 33) as usize % n);
        if !set.contains(&v) {
            set.push(v);
        }
    }
    set
}

/// Counts flood starts per engine: which simulator ran each flood of a
/// batch. An `auto` batch announces its first flood and every sequential
/// flood as `frontier`, and every packed chunk as `bitlane`.
#[allow(dead_code)] // only the suites that pin auto's branch build one
#[derive(Debug, Default)]
pub struct EngineStarts {
    pub frontier: usize,
    pub bitlane: usize,
}

impl FloodProbe for EngineStarts {
    fn flood_started(&mut self, start: &FloodStart<'_>) {
        match start.engine {
            "frontier" => self.frontier += 1,
            "bitlane" => self.bitlane += 1,
            other => panic!("auto ran on {other}"),
        }
    }
}
