//! E13 (extension figure): termination time as a function of graph size —
//! the "O(D)" shape of the paper's bounds drawn as data series — plus the
//! [`strong_scaling`] companion: the same floods executed by the sharded
//! multicore engine at increasing thread counts, recording wall time,
//! speedup over one shard, and (always) exact agreement with the serial
//! frontier engine.
//!
//! For each family, the main series reports `n`, `D`, the bound (`D` or
//! `2D + 1`), and the measured worst-case termination round over sampled
//! sources. The reproduced shape: bipartite families hug `D` exactly;
//! non-bipartite families sit strictly above `D` but never above `2D + 1`;
//! odd cycles attain `2D + 1` exactly.

use crate::table::Table;
use af_core::{FloodBatch, FloodEngine};
use af_graph::{algo, Graph, NodeId, PartitionStrategy};
use std::time::Instant;

/// One family's series: `(label, sizes, builder)`.
type Series = (&'static str, Vec<usize>, fn(usize) -> Graph);

/// The scaling grid.
#[must_use]
pub fn series() -> Vec<Series> {
    vec![
        ("path", vec![8, 16, 32, 64, 128, 256], |n| {
            af_graph::generators::path(n)
        }),
        ("even cycle", vec![8, 16, 32, 64, 128, 256], |n| {
            af_graph::generators::cycle(n)
        }),
        ("odd cycle", vec![9, 17, 33, 65, 129, 257], |n| {
            af_graph::generators::cycle(n)
        }),
        ("grid k x k", vec![3, 4, 6, 8, 11, 16], |k| {
            af_graph::generators::grid(k, k)
        }),
        ("hypercube Q_d", vec![3, 4, 5, 6, 7, 8], |d| {
            // af-audit: allow(no-lossy-id-cast): d <= 8 in this series
            af_graph::generators::hypercube(d as u32)
        }),
        ("complete K_n", vec![4, 8, 16, 32, 64, 128], |n| {
            af_graph::generators::complete(n)
        }),
        ("barbell", vec![4, 8, 16, 32, 64, 96], |k| {
            af_graph::generators::barbell(k)
        }),
        ("wheel", vec![4, 8, 16, 32, 64, 128], |k| {
            af_graph::generators::wheel(k)
        }),
        ("friendship", vec![2, 4, 8, 16, 32, 64], |k| {
            af_graph::generators::friendship(k)
        }),
        ("pref. attachment", vec![32, 64, 128, 256, 512, 1024], |n| {
            af_graph::generators::preferential_attachment(n, 2, 13)
        }),
    ]
}

/// Runs the E13 scaling sweep.
#[must_use]
pub fn run() -> Table {
    let mut t = Table::new(
        "E13 — (extension) termination-time scaling: the O(D) shape",
        [
            "family",
            "param",
            "n",
            "bipartite",
            "D",
            "bound",
            "worst T",
            "T (min/mean/max)",
        ],
    );
    for (family, sizes, build) in series() {
        for param in sizes {
            let g = build(param);
            let d = super::connected_diameter(&g);
            let bip = algo::is_bipartite(&g);
            let bound = if bip { d } else { 2 * d + 1 };
            let mut sources = super::bipartite::sample_sources(g.node_count());
            // The worst case over all sources is attained at a
            // maximum-eccentricity node (bipartite worst T = D needs
            // e(s) = D, and Theorem 3.3's strictness is only guaranteed
            // from such a source); a stride sample can miss every one of
            // them on irregular families, so add one explicitly.
            let peripheral = g
                .nodes()
                .max_by_key(|&v| super::connected_ecc(&g, v))
                // af-audit: allow(no-unwrap-in-lib): series graphs are non-empty
                .expect("series graphs are non-empty");
            sources.push(peripheral);
            // One batched simulator floods every sampled source, reusing
            // its allocations across the whole series entry.
            let mut batch = FloodBatch::new(&g);
            let rounds: Vec<u64> = sources
                .iter()
                .map(|&s| {
                    u64::from(super::must_terminate(
                        batch.run_from([s]).termination_round(),
                    ))
                })
                .collect();
            let summary = super::nonempty_summary(rounds.iter().copied());
            assert!(
                summary.max() <= u64::from(bound),
                "{family}({param}) exceeded bound"
            );
            t.push_row([
                family.to_string(),
                param.to_string(),
                g.node_count().to_string(),
                if bip { "yes" } else { "no" }.to_string(),
                d.to_string(),
                bound.to_string(),
                summary.max().to_string(),
                format!("{}/{:.1}/{}", summary.min(), summary.mean(), summary.max()),
            ]);
        }
    }
    t.push_note(
        "shape: bipartite families have worst T = D exactly; odd cycles \
         attain worst T = 2D + 1 exactly; all other non-bipartite families \
         fall strictly between",
    );
    t
}

/// The strong-scaling grid: `(label, graph, sources)` triples large enough
/// that a single flood has real per-round work, yet small enough for CI.
fn strong_scaling_workloads() -> Vec<(&'static str, Graph, Vec<NodeId>)> {
    let specs: Vec<(&'static str, Graph)> = vec![
        (
            "sparse-random n=4096",
            af_graph::generators::sparse_connected(4096, 4096, 17),
        ),
        (
            "small-world n=2048 k=10",
            af_graph::generators::watts_strogatz(2048, 10, 0.05, 18),
        ),
        ("grid 64 x 64", af_graph::generators::grid(64, 64)),
    ];
    specs
        .into_iter()
        .map(|(label, g)| {
            let sources = super::bipartite::sample_sources(g.node_count());
            (label, g, sources)
        })
        .collect()
}

/// Formats a positive ratio to three significant figures, so a slow
/// point such as `0.00420` keeps its digits instead of rounding to
/// `0.00`.
fn three_significant_figures(x: f64) -> String {
    let magnitude = if x > 0.0 { x.log10().floor() } else { 0.0 };
    let decimals = (2.0 - magnitude).max(0.0) as usize;
    format!("{x:.decimals$}")
}

/// The thread counts the strong-scaling column sweeps.
pub const STRONG_SCALING_THREADS: [usize; 4] = [1, 2, 4, 8];

/// Runs the E13 strong-scaling sweep: every workload flooded by the
/// sharded engine at 1, 2, 4 and 8 shards (BFS partitioner), with wall
/// time, speedup over the 1-shard run, and a correctness column asserting
/// the engine matched the serial frontier baseline flood-for-flood.
///
/// Timing columns are measurements of *this* host (CI machines and laptops
/// differ); the `agree` column is a hard invariant and panics on mismatch.
#[must_use]
pub fn strong_scaling() -> Table {
    let mut t = Table::new(
        "E13b — (extension) sharded-engine strong scaling on a single flood workload",
        [
            "workload",
            "n",
            "m",
            "threads",
            "partitioner",
            "wall ms",
            "speedup",
            "agree",
        ],
    );
    for (label, g, sources) in strong_scaling_workloads() {
        // Serial reference record: termination rounds and message counts.
        let mut reference = FloodBatch::new(&g);
        let expected: Vec<_> = sources.iter().map(|&s| reference.run_from([s])).collect();

        let mut base_ms = None;
        for threads in STRONG_SCALING_THREADS {
            let strategy = PartitionStrategy::Bfs;
            let start = Instant::now();
            let mut batch = FloodBatch::with_engine(&g, FloodEngine::Sharded { threads, strategy });
            let got: Vec<_> = sources.iter().map(|&s| batch.run_from([s])).collect();
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
            let agree = got == expected;
            assert!(agree, "{label} x{threads}: sharded run diverged");
            let base = *base_ms.get_or_insert(wall_ms);
            let speedup = if wall_ms > 0.0 { base / wall_ms } else { 1.0 };
            t.push_row([
                label.to_string(),
                g.node_count().to_string(),
                g.edge_count().to_string(),
                threads.to_string(),
                strategy.name().to_string(),
                format!("{wall_ms:.2}"),
                format!("{}x", three_significant_figures(speedup)),
                "yes".to_string(),
            ]);
        }
    }
    t.push_note(
        "speedup is relative to the same engine at 1 shard on this host; \
         the agree column is checked against the serial frontier engine \
         flood-for-flood (hard invariant). Wall times include graph \
         partitioning and the per-flood worker-thread spawns (k - 1 \
         spawns per run), so short floods understate the per-round \
         scaling.",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_hold_per_family() {
        let t = run();
        for row in t.rows() {
            let bip = &row[3];
            let d: u64 = row[4].parse().unwrap();
            let bound: u64 = row[5].parse().unwrap();
            let worst: u64 = row[6].parse().unwrap();
            assert!(worst <= bound, "{} {}", row[0], row[1]);
            if bip == "yes" {
                assert_eq!(
                    worst, d,
                    "bipartite worst T must equal D: {} {}",
                    row[0], row[1]
                );
            } else {
                assert!(
                    worst > d,
                    "non-bipartite worst T must exceed D: {} {}",
                    row[0],
                    row[1]
                );
            }
            if row[0] == "odd cycle" {
                assert_eq!(worst, 2 * d + 1, "odd cycles attain the bound");
            }
        }
    }

    #[test]
    fn series_covers_both_classes_at_scale() {
        let t = run();
        assert!(t.rows().len() >= 50);
        assert!(t.rows().iter().any(|r| r[3] == "yes"));
        assert!(t.rows().iter().any(|r| r[3] == "no"));
    }

    #[test]
    fn speedups_keep_three_significant_figures() {
        assert_eq!(three_significant_figures(1.0), "1.00");
        assert_eq!(three_significant_figures(0.0042), "0.00420");
        assert_eq!(three_significant_figures(0.024_96), "0.0250");
        assert_eq!(three_significant_figures(12.345), "12.3");
        assert_eq!(three_significant_figures(345.6), "346");
    }

    #[test]
    fn strong_scaling_rows_agree_and_cover_the_thread_sweep() {
        let t = strong_scaling();
        assert_eq!(
            t.rows().len(),
            strong_scaling_workloads().len() * STRONG_SCALING_THREADS.len()
        );
        for row in t.rows() {
            assert_eq!(row[7], "yes", "{} x{}", row[0], row[3]);
            assert_eq!(row[4], "bfs");
            let speedup = row[6].trim_end_matches('x');
            assert!(speedup.parse::<f64>().unwrap() > 0.0);
        }
        // The sweep includes the serial anchor and the multicore points.
        for threads in STRONG_SCALING_THREADS {
            assert!(t.rows().iter().any(|r| r[3] == threads.to_string()));
        }
    }
}
