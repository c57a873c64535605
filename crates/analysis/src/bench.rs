//! The flooding throughput benchmark: the measured numbers behind
//! `BENCH_flooding.json`, the repository's recorded perf trajectory.
//!
//! The paper's bounds make one flood's intrinsic work `O(m)` (each arc
//! activates at most twice), so sustained throughput — delivered messages
//! (edge crossings) per second — is the honest scalar to track. The
//! benchmark floods a grid of graph families from roughly `1e4` up to
//! `1e6` edges with five engines:
//!
//! * `frontier` — [`af_core::FrontierFlooding`] via the batched
//!   [`af_core::FloodBatch`] runner (allocation reuse across sources);
//! * `fast` — the scan-all-arcs [`af_core::FastFlooding`] baseline;
//! * `sharded` — [`af_core::ShardedFlooding`]: the same floods split
//!   across `threads` partition shards (the `threads` and `partitioner`
//!   columns record the concurrency axis; the serial engines carry
//!   `threads = 1`, `partitioner = "none"`);
//! * `dynamic` — [`af_core::DynamicFlooding`]: the same floods executed
//!   while the topology churns per the case's churn spec (the `churn`
//!   column). With the default `"none"` spec the dynamic row must agree
//!   bit-for-bit with `frontier` — a permanent cross-check of the
//!   dynamic engine's zero-churn anchor; with a nonzero spec it measures
//!   the churn workload and is excluded from the agreement conjunction
//!   (its floods may legitimately cap out: termination is not a theorem
//!   on dynamic graphs — `floods_terminated` records how many finished);
//! * `bitlane` — [`af_core::BitLaneFlooding`]: the same floods packed up
//!   to 64 at a time into the bit lanes of one `u64` per arc and advanced
//!   together, one CSR pass per round (the `lanes` column records the
//!   packing width: `min(64, floods)` here, 1 on every other engine).
//!   Always measured and always in the agreement conjunction — per-lane
//!   records must be bit-identical to `frontier`'s.
//!
//! All engines flood the same deterministic **source sets** of every graph
//! — size-1 sets reproduce the classic single-source sweep, `--sources k`
//! floods from spread sets of `k` initiators — and must agree
//! flood-for-flood on termination rounds and message counts (recorded as
//! `engines_agree` / `all_engines_agree`; in smoke mode the
//! [`af_core::theory`] multi-source oracle is checked too). CI runs the
//! smoke configuration on every push and fails if the engines disagree or
//! the JSON stops parsing.
//!
//! Every row is measured through the shared [`af_core::api`] request
//! path — [`af_core::api::FloodRequest::execute`] — the same code the
//! CLI's `flood` command and the `af-serve` daemon run, so the recorded
//! numbers are by construction the numbers every other entry point
//! reports for the same request.
//!
//! # `BENCH_flooding.json` schema (version 6)
//!
//! ```json
//! {
//!   "schema_version": 6,
//!   "benchmark": "flooding_throughput",
//!   "mode": "full" | "smoke",
//!   "all_engines_agree": true,
//!   "cases": [
//!     {
//!       "family": "grid",
//!       "spec": { "Grid": { "rows": 708, "cols": 708 } },
//!       "nodes": 501264, "edges": 1001112,
//!       "source_sets": [[0], [7958], ...],
//!       "churn": "none",
//!       "engines_agree": true,
//!       "engines": [
//!         { "engine": "frontier", "engine_spec": "frontier",
//!           "threads": 1, "threads_requested": 1,
//!           "partitioner": "none", "sources": 1, "churn": "none",
//!           "lanes": 1, "rounds_per_source": [1414, ...],
//!           "floods_terminated": 64, "total_messages": 64071168,
//!           "wall_ms": 1234.5, "edges_per_sec": 51900000.0 },
//!         { "engine": "fast", "engine_spec": "fast", ... },
//!         { "engine": "sharded", "engine_spec": "sharded:4:bfs",
//!           "threads": 4, "threads_requested": 4,
//!           "partitioner": "bfs", ... },
//!         { "engine": "dynamic", "engine_spec": "dynamic:none",
//!           "churn": "none", ... },
//!         { "engine": "bitlane", "engine_spec": "bitlane",
//!           "lanes": 64, ... }
//!       ]
//!     }, ...
//!   ]
//! }
//! ```
//!
//! Field names and nesting are stable; extending the file means adding
//! fields (or bumping `schema_version`), never renaming. Version 2 added
//! the required `threads` / `partitioner` fields together with the sharded
//! engine. Version 3 generalized the measured floods from single sources
//! to source sets: the per-case `sources` list became `source_sets`
//! (one inner list per measured flood), and every engine row gained
//! `sources` (the size of each flood's source set) and
//! `threads_requested` (the raw `--threads` request, so a row whose
//! `threads` was clamped to `min(n, MAX_SHARDS)` records both what was
//! asked and what actually ran). Version 4 added the dynamic-graph
//! engine: the per-case `churn` spec (`"none"` or `kind:rate_pm:seed`),
//! the same field on every engine row (always `"none"` on the static
//! engines), the `dynamic` engine row itself, and `floods_terminated`
//! (meaningful on the dynamic row, where churned floods may cap out;
//! always the flood count on static rows). Version 5 added the bit-parallel
//! engine: the `bitlane` row and the required per-engine `lanes` field
//! (how many floods advanced per simulator pass: `min(64, floods)` on the
//! bitlane row, 1 everywhere else); full mode now measures 64 floods per
//! case so the bitlane row exercises a complete 64-lane word. Version 6
//! routed every row through the shared [`af_core::api`] request path and
//! added the required `engine_spec` field: the canonical engine string
//! (the [`FloodEngine`] `Display`/`FromStr` round-trip) that reproduces
//! the row verbatim via the CLI's `--engine` flag or the daemon's wire
//! protocol — it records the *request* (`sharded:2000:bfs` even when the
//! clamp fired; the `threads` column still records what ran). Older files
//! do not deserialize as [`CaseResult`]/[`EngineStats`], hence the bump
//! rather than a silent same-version shape change.

use crate::spec::GraphSpec;
use af_core::api::FloodRequest;
use af_core::bitlane::LANES;
use af_core::{theory, FloodEngine};
use af_graph::dynamic::ChurnSpec;
use af_graph::{Graph, NodeId, PartitionStrategy};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Version stamp written into every report. Version 6 = version 5 with
/// every engine row measured through [`af_core::api::FloodRequest`] and
/// stamped with its canonical `engine_spec` string.
pub const SCHEMA_VERSION: u32 = 6;

/// The `partitioner` value recorded for engines that do not partition.
pub const NO_PARTITIONER: &str = "none";

/// The `churn` value recorded for the static engines (and for dynamic
/// rows measured without churn).
pub const NO_CHURN: &str = "none";

/// One engine's aggregate measurement over a case's source sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Engine name ([`FloodEngine::family`]): `"auto"`, `"frontier"`,
    /// `"fast"`, `"sharded"`, `"dynamic"`, or `"bitlane"`.
    pub engine: String,
    /// The canonical engine string that reproduces this row through any
    /// entry point (`--engine`, the wire protocol, [`FloodRequest`]):
    /// the [`FloodEngine`] `Display` form, e.g. `"sharded:4:bfs"` or
    /// `"dynamic:mix:100:7"`. Records the *request* — an oversharded
    /// `"sharded:2000:bfs"` row keeps that spec while `threads` records
    /// the clamped count that actually ran.
    pub engine_spec: String,
    /// Worker threads the engine actually used (1 for the serial engines;
    /// the sharded engine's request is clamped into
    /// `1 ..= min(n, MAX_SHARDS)` — see `threads_requested`).
    pub threads: usize,
    /// The raw thread/shard request before clamping (equals `threads`
    /// unless the clamp fired; 1 for the serial engines).
    pub threads_requested: usize,
    /// Partition strategy name, or `"none"` for unpartitioned engines.
    pub partitioner: String,
    /// Size of each measured flood's source set (1 = the classic
    /// single-source sweep).
    pub sources: usize,
    /// The churn workload this row measured: `"none"` for the static
    /// engines, the case's churn spec for the `dynamic` row.
    pub churn: String,
    /// Floods advanced per simulator pass: `min(64, floods)` on the
    /// bit-parallel `bitlane` row, 1 on every other engine (an `auto` row
    /// does not record whether its batch packed).
    pub lanes: usize,
    /// Termination round of each measured flood, in source-set order.
    /// For a churned flood that capped out (termination is not a theorem
    /// on dynamic graphs) this records the executed rounds — see
    /// `floods_terminated`.
    pub rounds_per_source: Vec<u32>,
    /// How many of the measured floods actually terminated (always the
    /// flood count on static rows; on dynamic rows churn may prevent
    /// termination within the cap).
    pub floods_terminated: usize,
    /// Messages delivered over all measured floods.
    pub total_messages: u64,
    /// Wall-clock time for all measured floods, in milliseconds.
    pub wall_ms: f64,
    /// Throughput: delivered messages (= edge crossings) per second.
    pub edges_per_sec: f64,
}

impl EngineStats {
    /// A short human label: the engine name, annotated with the thread
    /// count and partitioner when concurrency is in play, with the churn
    /// spec when churn is, or with the lane width when bit-packing is.
    #[must_use]
    pub fn label(&self) -> String {
        if self.threads > 1 {
            format!("{}x{}({})", self.engine, self.threads, self.partitioner)
        } else if self.churn != NO_CHURN {
            format!("{}({})", self.engine, self.churn)
        } else if self.lanes > 1 {
            format!("{}x{}lanes", self.engine, self.lanes)
        } else {
            self.engine.clone()
        }
    }
}

/// One `(family, size)` case: the graph, its source sample, and every
/// engine's measurement on it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CaseResult {
    /// Family label (shared across the family's sizes).
    pub family: String,
    /// The exact generator instance, rebuildable bit-for-bit.
    pub spec: GraphSpec,
    /// Node count of the built graph.
    pub nodes: usize,
    /// Edge count of the built graph.
    pub edges: usize,
    /// The measured source sets, one inner list (sorted node indices) per
    /// flood. Size-1 sets are the classic single-source sweep.
    pub source_sets: Vec<Vec<usize>>,
    /// The case's churn spec (`"none"` or `kind:rate_pm:seed`) — what the
    /// `dynamic` engine row floods under.
    pub churn: String,
    /// Whether all comparable engines agreed flood-for-flood on rounds
    /// and messages (the `dynamic` row participates only when `churn` is
    /// `"none"`, where it must match `frontier` exactly).
    pub engines_agree: bool,
    /// Per-engine measurements, `frontier` first.
    pub engines: Vec<EngineStats>,
}

/// A full benchmark run, serialized as `BENCH_flooding.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThroughputReport {
    /// Schema version of this file ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Always `"flooding_throughput"`.
    pub benchmark: String,
    /// `"full"` or `"smoke"`.
    pub mode: String,
    /// Conjunction of every case's `engines_agree`.
    pub all_engines_agree: bool,
    /// All measured cases.
    pub cases: Vec<CaseResult>,
}

impl ThroughputReport {
    /// Serializes the report to pretty JSON.
    ///
    /// # Panics
    ///
    /// Never panics in practice: the report is plain data.
    #[must_use]
    pub fn to_json(&self) -> String {
        // af-audit: allow(no-unwrap-in-lib): plain data, no fallible Serialize impls
        serde_json::to_string_pretty(self).expect("report serializes")
    }

    /// A one-line-per-case human summary (for terminals and CI logs).
    #[must_use]
    pub fn to_summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let set_size = self
            .cases
            .first()
            .and_then(|c| c.engines.first())
            .map_or(1, |e| e.sources);
        let _ = writeln!(
            out,
            "flooding throughput ({} mode, |S| = {}) — {} cases, engines agree: {}",
            self.mode,
            set_size,
            self.cases.len(),
            self.all_engines_agree
        );
        for case in &self.cases {
            let _ = write!(
                out,
                "  {:<28} n={:<8} m={:<8}",
                case.spec.label(),
                case.nodes,
                case.edges
            );
            for e in &case.engines {
                let _ = write!(
                    out,
                    "  {}: {:>8.1}ms {:>12.0} edges/s",
                    e.label(),
                    e.wall_ms,
                    e.edges_per_sec
                );
            }
            let _ = writeln!(out);
        }
        out
    }
}

/// The benchmark grid: `(family, specs in increasing size)`.
///
/// Full mode targets ~1e4, ~1e5 and ~1e6 edges per family; smoke mode is a
/// single ~2e3-edge instance per family, small enough for CI.
#[must_use]
pub fn cases(smoke: bool) -> Vec<(&'static str, Vec<GraphSpec>)> {
    // Radius giving expected average degree ~10 in the unit square:
    // deg ≈ n·π·r², so r = sqrt(10 / (π n)).
    let rgg_radius = |n: usize| (10.0 / (core::f64::consts::PI * n as f64)).sqrt();
    if smoke {
        return vec![
            (
                "sparse-random",
                vec![GraphSpec::SparseConnected {
                    n: 1_000,
                    extra: 1_000,
                    seed: 1,
                }],
            ),
            (
                "pref-attach",
                vec![GraphSpec::PreferentialAttachment {
                    n: 500,
                    k: 4,
                    seed: 2,
                }],
            ),
            (
                "geometric",
                vec![GraphSpec::RandomGeometric {
                    n: 400,
                    radius: rgg_radius(400),
                    seed: 3,
                }],
            ),
            (
                "small-world",
                vec![GraphSpec::WattsStrogatz {
                    n: 400,
                    k: 10,
                    beta: 0.05,
                    seed: 4,
                }],
            ),
            ("grid", vec![GraphSpec::Grid { rows: 32, cols: 32 }]),
        ];
    }
    vec![
        (
            "sparse-random",
            [5_000usize, 50_000, 500_000]
                .iter()
                .map(|&n| GraphSpec::SparseConnected {
                    n,
                    extra: n,
                    seed: 1,
                })
                .collect(),
        ),
        (
            "pref-attach",
            [2_500usize, 25_000, 250_000]
                .iter()
                .map(|&n| GraphSpec::PreferentialAttachment { n, k: 4, seed: 2 })
                .collect(),
        ),
        (
            "geometric",
            [2_000usize, 20_000, 200_000]
                .iter()
                .map(|&n| GraphSpec::RandomGeometric {
                    n,
                    radius: rgg_radius(n),
                    seed: 3,
                })
                .collect(),
        ),
        (
            "small-world",
            [2_000usize, 20_000, 200_000]
                .iter()
                .map(|&n| GraphSpec::WattsStrogatz {
                    n,
                    k: 10,
                    beta: 0.05,
                    seed: 4,
                })
                .collect(),
        ),
        (
            "grid",
            [71usize, 224, 708]
                .iter()
                .map(|&k| GraphSpec::Grid { rows: k, cols: k })
                .collect(),
        ),
    ]
}

/// A deterministic source sample for a graph with `n` nodes: `count`
/// well-spread node indices (first, stride steps, last).
fn source_sample(n: usize, count: usize) -> Vec<usize> {
    let count = count.min(n).max(1);
    if count == 1 {
        return vec![0];
    }
    let mut sources: Vec<usize> = (0..count - 1).map(|i| i * (n - 1) / (count - 1)).collect();
    sources.push(n - 1);
    sources.dedup();
    sources
}

/// Deterministic source *sets*: `floods` sets of **exactly**
/// `min(set_size, n)` spread node indices each. Each set anchors at one
/// [`source_sample`] index and adds further nodes at stride
/// `n / set_size` (mod `n`); stride collisions (small `n`, wrap-around)
/// are topped up with the smallest unused indices, so every set has the
/// exact requested size and the recorded `sources` field never overstates
/// `|S|`. `set_size` is clamped into `1 ..= n`.
fn source_set_sample(n: usize, floods: usize, set_size: usize) -> Vec<Vec<usize>> {
    let size = set_size.clamp(1, n.max(1));
    source_sample(n, floods)
        .into_iter()
        .map(|anchor| {
            let mut set: std::collections::BTreeSet<usize> =
                (0..size).map(|j| (anchor + j * n / size) % n).collect();
            let mut filler = 0;
            while set.len() < size {
                set.insert(filler);
                filler += 1;
            }
            set.into_iter().collect()
        })
        .collect()
}

// All measurements time the engine's complete workflow over all source
// sets, setup included: the batch runners allocate once (for the sharded
// engine that includes partitioning the graph; for the dynamic engine,
// cloning the base graph and building the delta overlay) and reuse state
// across floods — that amortization is part of what is being measured —
// while the scan engine has no reset and must construct per flood. The
// zero-churn dynamic row therefore reads as frontier throughput plus the
// overlay's setup cost amortized over the case's floods, consistent with
// how the sharded row carries its partitioning cost. The timed window is
// FloodRequest::execute — validation and NodeId conversion included, a
// few nanoseconds per source against milliseconds of flooding — so the
// row measures exactly what a CLI or wire client of the same request
// experiences.

/// Measures one [`FloodRequest`] on `g` exactly the way the committed
/// benchmark rows are measured — same timed window, same per-flood
/// termination audit — and returns the [`EngineStats`] row. This is the
/// entry point behind the daemon's `Bench` verb, so a self-recorded row
/// is the row this harness would have recorded for the same request.
///
/// # Errors
///
/// Rejects what [`FloodRequest::validate`] rejects (unknown engine,
/// out-of-range source), plus `bad_request` for an empty source-set list
/// (a row must measure something) and for a nonzero `max_rounds`: the
/// benchmark path always floods uncapped, because a capped static flood
/// would trip the Theorem 3.1 termination audit instead of producing a
/// comparable row.
pub fn measure_request(
    g: &Graph,
    request: &FloodRequest,
) -> Result<EngineStats, af_core::api::ErrorResponse> {
    use af_core::api::{code, ErrorResponse};
    if request.source_sets.is_empty() {
        return Err(ErrorResponse::new(
            code::BAD_REQUEST,
            "a bench request needs at least one source set",
        ));
    }
    if request.max_rounds != 0 {
        return Err(ErrorResponse::new(
            code::BAD_REQUEST,
            "bench rows are measured uncapped; max_rounds must be 0",
        ));
    }
    let engine = request.validate(g)?;
    Ok(measure_batch(g, &request.source_sets, engine))
}

fn measure_batch(g: &Graph, source_sets: &[Vec<usize>], engine: FloodEngine) -> EngineStats {
    let (threads, threads_requested, partitioner, churn) = match engine {
        FloodEngine::Sharded { threads, strategy } => (
            // Record the shard count that actually runs, not the request
            // (Partition::new clamps into 1 ..= min(n, MAX_SHARDS)) —
            // alongside the request itself, so clamped rows are visible.
            af_graph::partition::clamp_shard_count(g.node_count(), threads),
            threads,
            strategy.name().to_string(),
            NO_CHURN.to_string(),
        ),
        FloodEngine::Dynamic { churn } => (1, 1, NO_PARTITIONER.to_string(), churn.to_string()),
        _ => (1, 1, NO_PARTITIONER.to_string(), NO_CHURN.to_string()),
    };
    let lanes = match engine {
        FloodEngine::BitLane => LANES.min(source_sets.len()).max(1),
        _ => 1,
    };
    let is_static = !matches!(engine, FloodEngine::Dynamic { .. });
    // Building the request clones the source sets — input prep, outside
    // the timed window. Executing it is the timed window.
    let request = FloodRequest::new(source_sets.to_vec(), engine);
    let start = Instant::now();
    // execute() floods set after set on the serial/sharded/dynamic
    // engines and packs up to 64 sets per pass on the bitlane engine.
    let response = request
        .execute(g)
        // af-audit: allow(no-unwrap-in-lib): the harness builds requests from the
        // graph itself, so every source is in range
        .expect("benchmark requests are well-formed");
    let wall = start.elapsed();
    let rounds = response
        .floods
        .iter()
        .map(|f| {
            // Only churned floods may cap out; on a static graph
            // non-termination would be a theorem violation.
            assert!(
                f.terminated || !is_static,
                "Theorem 3.1: static floods terminate"
            );
            f.rounds
        })
        .collect();
    let terminated = response.floods.iter().filter(|f| f.terminated).count();
    let messages = response.floods.iter().map(|f| f.messages).sum();
    EngineStats {
        engine: engine.family().to_string(),
        engine_spec: request.engine,
        threads,
        threads_requested,
        partitioner,
        sources: source_sets.first().map_or(1, Vec::len),
        churn,
        lanes,
        rounds_per_source: rounds,
        floods_terminated: terminated,
        total_messages: messages,
        wall_ms: wall.as_secs_f64() * 1e3,
        // 0.0 for an unmeasurably fast run: JSON has no Infinity, and the
        // vendored serializer rejects non-finite floats.
        edges_per_sec: if wall.as_secs_f64() > 0.0 {
            messages as f64 / wall.as_secs_f64()
        } else {
            0.0
        },
    }
}

/// Runs one case: build the graph, sample `floods_per_graph` source sets
/// of `sources_per_flood` nodes each, measure every engine (`frontier`,
/// `fast`, `sharded` with the given concurrency, `dynamic` under `churn`,
/// and the bit-parallel `bitlane`), and cross-check agreement (plus the
/// multi-source oracle when `check_oracle`). The dynamic row joins the
/// agreement conjunction only under the `"none"` churn spec, where it
/// must match `frontier` exactly; the `fast`, `sharded`, and `bitlane`
/// rows are always in it.
#[must_use]
#[allow(clippy::too_many_arguments)] // one axis per benchmark dimension
pub fn run_case(
    family: &str,
    spec: &GraphSpec,
    floods_per_graph: usize,
    sources_per_flood: usize,
    check_oracle: bool,
    threads: usize,
    strategy: PartitionStrategy,
    churn: ChurnSpec,
) -> CaseResult {
    let g = spec.build();
    let source_sets = source_set_sample(g.node_count(), floods_per_graph, sources_per_flood);
    let frontier = measure_batch(&g, &source_sets, FloodEngine::Frontier);
    let fast = measure_batch(&g, &source_sets, FloodEngine::Fast);
    let sharded = measure_batch(&g, &source_sets, FloodEngine::Sharded { threads, strategy });
    let dynamic = measure_batch(&g, &source_sets, FloodEngine::Dynamic { churn });
    let bitlane = measure_batch(&g, &source_sets, FloodEngine::BitLane);

    let mut agree = [&fast, &sharded, &bitlane].iter().all(|e| {
        e.rounds_per_source == frontier.rounds_per_source
            && e.total_messages == frontier.total_messages
    });
    if churn.is_none() {
        // Zero-churn anchor: the dynamic engine must reproduce the static
        // frontier record bit for bit.
        agree &= dynamic.rounds_per_source == frontier.rounds_per_source
            && dynamic.total_messages == frontier.total_messages
            && dynamic.floods_terminated == source_sets.len();
    }
    if check_oracle {
        for (set, &r) in source_sets.iter().zip(&frontier.rounds_per_source) {
            let pred = theory::predict(&g, set.iter().map(|&s| NodeId::new(s)));
            agree &= pred.termination_round() == r;
        }
    }

    CaseResult {
        family: family.to_string(),
        spec: spec.clone(),
        nodes: g.node_count(),
        edges: g.edge_count(),
        source_sets,
        churn: churn.to_string(),
        engines_agree: agree,
        engines: vec![frontier, fast, sharded, dynamic, bitlane],
    }
}

/// Runs the whole benchmark grid with the default concurrency axis
/// (`threads = 4`, BFS partitioner — what CI's perf-smoke job pins) and
/// classic single-source floods.
///
/// `smoke` selects the small CI-friendly grid and additionally checks every
/// measured flood against the exact-time oracle. Progress (one line per
/// case) goes to stderr so stdout can stay machine-readable.
#[must_use]
pub fn run(smoke: bool) -> ThroughputReport {
    run_with(smoke, 4, PartitionStrategy::Bfs, 1, ChurnSpec::NONE)
}

/// [`run`] with an explicit sharded-engine configuration, source-set
/// size, and churn spec (the CLI's `--threads` / `--partitioner` /
/// `--sources` / `--churn` flags end up here). `sources_per_flood = 1` is
/// the classic single-source sweep; larger sizes measure multi-source
/// floods end to end. A non-`NONE` `churn` makes the `dynamic` engine row
/// measure that workload (and drop out of the agreement conjunction).
#[must_use]
pub fn run_with(
    smoke: bool,
    threads: usize,
    strategy: PartitionStrategy,
    sources_per_flood: usize,
    churn: ChurnSpec,
) -> ThroughputReport {
    // Full mode floods each graph 64 times so the bitlane row advances a
    // complete 64-lane word per case (the other engines run the same 64
    // floods sequentially — that contrast is the point of the row).
    // Smoke mode stays at 2 floods, small enough for CI; its bitlane row
    // packs 2 lanes.
    let floods_per_graph = if smoke { 2 } else { 64 };
    let mut results = Vec::new();
    for (family, specs) in cases(smoke) {
        for spec in &specs {
            eprintln!("bench: {} {} ...", family, spec.label());
            results.push(run_case(
                family,
                spec,
                floods_per_graph,
                sources_per_flood,
                smoke,
                threads,
                strategy,
                churn,
            ));
        }
    }
    ThroughputReport {
        schema_version: SCHEMA_VERSION,
        benchmark: "flooding_throughput".to_string(),
        mode: if smoke { "smoke" } else { "full" }.to_string(),
        all_engines_agree: results.iter().all(|c| c.engines_agree),
        cases: results,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_sample_is_spread_and_deduped() {
        assert_eq!(source_sample(1, 3), vec![0]);
        assert_eq!(source_sample(2, 3), vec![0, 1]);
        assert_eq!(source_sample(100, 3), vec![0, 49, 99]);
        let s = source_sample(5, 10);
        assert!(s.len() <= 5);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn source_set_sample_is_sorted_spread_and_clamped() {
        // Size-1 sets reproduce the single-source sample exactly.
        assert_eq!(
            source_set_sample(100, 3, 1),
            vec![vec![0], vec![49], vec![99]]
        );
        // Larger sets are sorted, duplicate-free, in range, and of the
        // requested size.
        for set in source_set_sample(100, 3, 4) {
            assert_eq!(set.len(), 4);
            assert!(set.windows(2).all(|w| w[0] < w[1]), "{set:?}");
            assert!(set.iter().all(|&s| s < 100));
        }
        // set_size is clamped to n; sets never repeat a node.
        for set in source_set_sample(3, 2, 10) {
            assert_eq!(set, vec![0, 1, 2]);
        }
        // Degenerate single-node graph.
        assert_eq!(source_set_sample(1, 2, 5), vec![vec![0]]);
    }

    proptest::proptest! {
        /// The recorded `sources` field equals the actual set size: for
        /// every small `n` / `floods` / `set_size`, each sampled set has
        /// **exactly** `min(set_size, n)` distinct in-range nodes (the
        /// top-up guards the stride arithmetic against ever under-filling
        /// a set while the JSON still records the request).
        #[test]
        fn source_set_sample_fills_to_exact_size(
            n in 1usize..64,
            floods in 1usize..6,
            set_size in 1usize..80,
        ) {
            let sets = source_set_sample(n, floods, set_size);
            proptest::prop_assert!(!sets.is_empty());
            proptest::prop_assert!(sets.len() <= floods);
            for set in sets {
                proptest::prop_assert_eq!(set.len(), set_size.min(n));
                proptest::prop_assert!(set.windows(2).all(|w| w[0] < w[1]));
                proptest::prop_assert!(set.iter().all(|&s| s < n));
            }
        }
    }

    #[test]
    fn smoke_grid_engines_agree_and_roundtrip() {
        let report = run(true);
        assert!(report.all_engines_agree, "{}", report.to_summary());
        assert!(report.cases.len() >= 3, "at least three families");
        assert_eq!(report.schema_version, SCHEMA_VERSION);
        assert_eq!(report.mode, "smoke");
        for case in &report.cases {
            assert_eq!(case.engines.len(), 5);
            assert_eq!(case.engines[0].engine, "frontier");
            assert_eq!(case.engines[1].engine, "fast");
            assert_eq!(case.engines[2].engine, "sharded");
            assert_eq!(case.engines[3].engine, "dynamic");
            assert_eq!(case.engines[4].engine, "bitlane");
            // Every row carries the canonical engine string that replays
            // it (`--engine <spec>` / the wire `engine` field), and the
            // string round-trips through FromStr back onto the same
            // engine family.
            assert_eq!(case.engines[0].engine_spec, "frontier");
            assert_eq!(case.engines[1].engine_spec, "fast");
            assert_eq!(case.engines[2].engine_spec, "sharded:4:bfs");
            assert_eq!(case.engines[3].engine_spec, "dynamic:none");
            assert_eq!(case.engines[4].engine_spec, "bitlane");
            for e in &case.engines {
                let parsed: FloodEngine = e.engine_spec.parse().unwrap();
                assert_eq!(parsed.family(), e.engine, "{}", e.engine_spec);
            }
            assert!(case.engines[0].total_messages > 0);
            // The concurrency, source, and churn axes are recorded in
            // every row: serial engines carry threads = 1 / "none", the
            // sharded engine the configured shard count and partitioner,
            // and all rows the source-set size and churn spec of the
            // measured floods.
            for serial in [
                &case.engines[0],
                &case.engines[1],
                &case.engines[3],
                &case.engines[4],
            ] {
                assert_eq!(serial.threads, 1);
                assert_eq!(serial.threads_requested, 1);
                assert_eq!(serial.partitioner, NO_PARTITIONER);
            }
            assert_eq!(case.engines[2].threads, 4);
            assert_eq!(case.engines[2].threads_requested, 4);
            assert_eq!(case.engines[2].partitioner, "bfs");
            assert_eq!(case.engines[2].label(), "shardedx4(bfs)");
            for e in &case.engines {
                assert_eq!(e.sources, 1, "default run is single-source");
                assert_eq!(e.churn, NO_CHURN, "default run is churn-free");
                assert_eq!(e.floods_terminated, case.source_sets.len());
            }
            assert_eq!(case.churn, NO_CHURN);
            // The lane axis: only the bitlane row packs floods.
            for e in &case.engines[..4] {
                assert_eq!(e.lanes, 1, "{}", e.engine);
            }
            assert_eq!(
                case.engines[4].lanes,
                case.source_sets.len().min(64),
                "bitlane packs one lane per flood"
            );
            assert_eq!(case.engines[4].label(), "bitlanex2lanes");
            // Zero-churn anchor: the dynamic row equals the frontier row.
            assert_eq!(
                case.engines[3].rounds_per_source,
                case.engines[0].rounds_per_source
            );
            assert_eq!(
                case.engines[3].total_messages,
                case.engines[0].total_messages
            );
            // Lane-exactness: the bitlane row equals the frontier row.
            assert_eq!(
                case.engines[4].rounds_per_source,
                case.engines[0].rounds_per_source
            );
            assert_eq!(
                case.engines[4].total_messages,
                case.engines[0].total_messages
            );
            assert!(case.source_sets.iter().all(|s| s.len() == 1));
            // Rebuilding from the recorded spec gives the recorded size.
            let g = case.spec.build();
            assert_eq!(g.node_count(), case.nodes);
            assert_eq!(g.edge_count(), case.edges);
        }
        let json = report.to_json();
        let back: ThroughputReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        assert!(!report.to_summary().is_empty());
    }

    #[test]
    fn single_case_oracle_check_catches_agreement() {
        let case = run_case(
            "grid",
            &GraphSpec::Grid { rows: 9, cols: 7 },
            3,
            1,
            true,
            3,
            PartitionStrategy::RoundRobin,
            ChurnSpec::NONE,
        );
        assert!(case.engines_agree);
        // Bipartite grid, single source, no churn: every flood delivers
        // exactly m messages, on every engine (the dynamic row included).
        let floods = case.source_sets.len() as u64;
        for e in &case.engines {
            assert_eq!(e.total_messages, floods * case.edges as u64, "{}", e.engine);
        }
        assert_eq!(case.engines[2].partitioner, "round-robin");
    }

    #[test]
    fn multi_source_case_agrees_with_the_oracle_and_records_the_axes() {
        let case = run_case(
            "grid",
            &GraphSpec::Grid { rows: 8, cols: 8 },
            2,
            5,
            true,
            // Deliberately overshard: n = 64 clamps a 2000-thread request.
            2000,
            PartitionStrategy::Bfs,
            ChurnSpec::NONE,
        );
        assert!(case.engines_agree, "multi-source engines + oracle agree");
        assert_eq!(case.source_sets.len(), 2);
        for set in &case.source_sets {
            assert_eq!(set.len(), 5);
        }
        for e in &case.engines {
            assert_eq!(e.sources, 5, "{}", e.engine);
        }
        // The clamp is visible: request recorded next to what ran, and
        // the engine_spec replays the *request*, not the clamp.
        let sharded = &case.engines[2];
        assert_eq!(sharded.threads_requested, 2000);
        assert_eq!(sharded.threads, 64);
        assert_eq!(sharded.engine_spec, "sharded:2000:bfs");
    }

    #[test]
    fn churned_case_records_the_axis_and_static_engines_still_agree() {
        let churn: ChurnSpec = "mix:100:7".parse().unwrap();
        let case = run_case(
            "grid",
            &GraphSpec::Grid { rows: 8, cols: 8 },
            2,
            1,
            // No oracle check: the dynamic row is not oracle-predictable,
            // and the static rows are checked in the other tests.
            false,
            2,
            PartitionStrategy::Bfs,
            churn,
        );
        // Static engines must still agree among themselves.
        assert!(case.engines_agree, "static agreement is churn-independent");
        assert_eq!(case.churn, "mix:100:7");
        let dynamic = &case.engines[3];
        assert_eq!(dynamic.engine, "dynamic");
        assert_eq!(dynamic.engine_spec, "dynamic:mix:100:7");
        assert_eq!(dynamic.churn, "mix:100:7");
        assert_eq!(dynamic.label(), "dynamic(mix:100:7)");
        assert_eq!(dynamic.rounds_per_source.len(), case.source_sets.len());
        assert!(dynamic.floods_terminated <= case.source_sets.len());
        assert!(dynamic.total_messages > 0);
        for stat in case.engines[..3].iter().chain([&case.engines[4]]) {
            assert_eq!(stat.churn, NO_CHURN, "{}", stat.engine);
        }
        // Same spec, same measurement (determinism across runs).
        let again = run_case(
            "grid",
            &GraphSpec::Grid { rows: 8, cols: 8 },
            2,
            1,
            false,
            2,
            PartitionStrategy::Bfs,
            churn,
        );
        assert_eq!(
            again.engines[3].rounds_per_source,
            dynamic.rounds_per_source
        );
        assert_eq!(again.engines[3].total_messages, dynamic.total_messages);
    }

    #[test]
    fn full_grid_is_well_formed() {
        // Don't *run* the full grid in tests — just check its shape.
        let grid = cases(false);
        assert!(grid.len() >= 3, "at least three families");
        for (family, specs) in &grid {
            assert!(!family.is_empty());
            assert!(specs.len() >= 3, "{family}: sizes from ~1e4 to ~1e6");
        }
    }
}
