//! High-level drivers: configure a flood, run it, inspect everything the
//! paper talks about (round-sets `R_i`, receive rounds, termination round,
//! message complexity) — plus [`FloodBatch`], the batched multi-source
//! runner that floods one graph from many sources while reusing a single
//! simulator's allocations.
//!
//! Both drivers default to [`FloodEngine::Auto`]: single floods run on the
//! frontier-sparse [`FrontierFlooding`] engine, and a batch packs its
//! floods into the bit lanes of [`BitLaneFlooding`] when their wavefronts
//! overlap enough to share arcs. Every engine can be chosen explicitly
//! through [`FloodEngine`]; the static ones produce bit-identical records.

use crate::bitlane::{BitLaneFlooding, LANES};
use crate::dynamic::DynamicFlooding;
use crate::fast::FastFlooding;
use crate::flooder::Flooder;
use crate::frontier::FrontierFlooding;
use crate::obs::SharedProbe;
use crate::sharded::ShardedFlooding;
use af_engine::Outcome;
use af_graph::dynamic::{ChurnSchedule, ChurnSpec};
use af_graph::{Graph, NodeId, Partition, PartitionStrategy};
use std::fmt;
use std::str::FromStr;

/// Thread count [`FloodEngine::from_str`] assumes for a bare `"sharded"`
/// (no `:k`) — the same default the CLI's `--threads` flag documents.
pub const DEFAULT_SHARD_THREADS: usize = 4;

/// An [`FloodEngine::Auto`] batch packs its floods into bit lanes when
/// their expected arc occupancy reaches `1 / PACK_OCCUPANCY_DIVISOR`.
///
/// A flood that took `T` rounds and `M` messages fills `M / (2m · T)` of
/// the `2m` arcs in an average round, so `L` such floods fill about
/// `ρ = L · M / (2m · T)`. Packing pays for the arcs of every round once
/// per 64-lane word instead of once per flood, at the price of word-sized
/// state: with 64 random single sources (2-core Intel Xeon) it ran
/// 0.19–0.76× as fast as sequential frontier floods at `ρ ≤ 0.22` (grids,
/// a cycle) and 1.5–17× as fast at `ρ ≥ 0.60` (small world, geometric,
/// sparse random, preferential attachment; README "When bit-packing
/// wins" has the table). The divisor puts the switch at `ρ = ½`, inside
/// that gap.
const PACK_OCCUPANCY_DIVISOR: u128 = 2;

/// Which simulator a driver executes floods with.
///
/// The static engines ([`FloodEngine::Frontier`], [`FloodEngine::Sharded`])
/// produce the same [`FloodingRun`] / [`FloodStats`] for the same inputs
/// (the property suites enforce this); between them the choice is purely a
/// performance matter — `Frontier` is the single-threaded hot path,
/// `Sharded` splits each flood's rounds over worker threads and wins once
/// per-round frontiers are large enough to amortize the round barrier (see
/// the README's benchmarking notes).
///
/// [`FloodEngine::Dynamic`] changes the *workload*, not just the runtime:
/// it floods while the topology churns per its [`ChurnSpec`] (schedule
/// generated deterministically per graph). With a zero-rate spec it is
/// bit-identical to `Frontier` — the anchor the test suites pin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FloodEngine {
    /// The default: frontier for single floods, bit lanes for batches
    /// whose wavefronts overlap. A [`FloodBatch`] of two or more source
    /// sets runs set 0 on [`FrontierFlooding`] (its answer is part of the
    /// result, so measuring it costs nothing extra), then packs the rest into
    /// 64-lane [`BitLaneFlooding`] runs if set 0 terminated with an arc
    /// occupancy of at least ½ over the next `min(64, remaining)` lanes
    /// (see `PACK_OCCUPANCY_DIVISOR`), and floods them one by one on
    /// frontier otherwise. Same records as `Frontier` either way.
    #[default]
    Auto,
    /// Single-threaded frontier-sparse engine ([`FrontierFlooding`]).
    Frontier,
    /// Scan-all-arcs baseline engine ([`FastFlooding`]): `O(m)` bitset
    /// sweep per round. Exists as the reference the sparse engines are
    /// benchmarked against; same record as `Frontier`, always slower on
    /// sparse frontiers.
    Fast,
    /// Sharded multicore engine ([`crate::ShardedFlooding`]): one flood
    /// across `threads` worker shards.
    Sharded {
        /// Worker thread (= shard) count; `0` and `1` both mean one shard.
        threads: usize,
        /// How nodes are assigned to shards.
        strategy: PartitionStrategy,
    },
    /// Dynamic-graph engine ([`DynamicFlooding`]): the deterministic
    /// per-round deltas described by `churn` are **streamed** to the
    /// round boundaries mid-flood (identical to flooding under
    /// [`ChurnSchedule::generate`] at the driver's round cap, but in
    /// `O(graph)` memory at any scale). Termination is a *measurement*
    /// here, not a theorem.
    Dynamic {
        /// The churn workload; `ChurnSpec::NONE` means an empty schedule.
        churn: ChurnSpec,
    },
    /// Bit-parallel engine ([`BitLaneFlooding`]): packs up to 64
    /// independent floods into the bit lanes of one `u64` per arc and
    /// advances them all in a single CSR pass per round. A single flood
    /// occupies lane 0 alone; the engine pays off through
    /// [`FloodBatch::run_many`], which chunks a flood list into 64-lane
    /// groups.
    BitLane,
}

impl FloodEngine {
    /// The engine's family name — the bare head of its canonical string
    /// (`"auto"`, `"frontier"`, `"fast"`, `"sharded"`, `"dynamic"`,
    /// `"bitlane"`), without the per-variant configuration.
    #[must_use]
    pub fn family(self) -> &'static str {
        match self {
            FloodEngine::Auto => "auto",
            FloodEngine::Frontier => "frontier",
            FloodEngine::Fast => "fast",
            FloodEngine::Sharded { .. } => "sharded",
            FloodEngine::Dynamic { .. } => "dynamic",
            FloodEngine::BitLane => "bitlane",
        }
    }

    /// Constructs a boxed source-less simulator for `graph` — the one
    /// construction path behind [`AmnesiacFlooding::run`] and
    /// [`FloodBatch`]. Seed it with [`Flooder::reset`] (or
    /// [`Flooder::reset_lanes`]) before running.
    ///
    /// `horizon` is the round cap the caller will run with; the dynamic
    /// engine generates its churn schedule out to that horizon (the other
    /// engines ignore it). [`FloodEngine::Auto`] builds the frontier
    /// engine it runs single floods on; [`FloodBatch`] adds the bit-lane
    /// engine when a batch packs.
    #[must_use]
    pub fn flooder<'g>(self, graph: &'g Graph, horizon: u32) -> Box<dyn Flooder + 'g> {
        match self {
            FloodEngine::Auto | FloodEngine::Frontier => Box::new(FrontierFlooding::new(graph, [])),
            FloodEngine::Fast => Box::new(FastFlooding::new(graph, [])),
            FloodEngine::Sharded { threads, strategy } => Box::new(ShardedFlooding::new(
                graph,
                Partition::new(graph, strategy, threads),
                [],
            )),
            // Streamed deltas: O(graph) memory at any horizon.
            FloodEngine::Dynamic { churn } => {
                Box::new(DynamicFlooding::with_spec(graph, [], churn, horizon))
            }
            FloodEngine::BitLane => Box::new(BitLaneFlooding::new(
                graph,
                core::iter::empty::<[NodeId; 0]>(),
            )),
        }
    }
}

/// The canonical engine string: `auto`, `frontier`, `fast`, `bitlane`,
/// `sharded:<threads>:<partitioner>`, or `dynamic:<churn>` (with
/// [`ChurnSpec`]'s own `kind:rate_pm:seed` / `none` syntax). This is the
/// **one** spelling shared by `--engine`, the benchmark JSON's
/// `engine_spec` rows, and the wire protocol — [`FloodEngine::from_str`]
/// parses every string this emits back to an equal value (property-tested).
impl fmt::Display for FloodEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FloodEngine::Auto => f.write_str("auto"),
            FloodEngine::Frontier => f.write_str("frontier"),
            FloodEngine::Fast => f.write_str("fast"),
            FloodEngine::BitLane => f.write_str("bitlane"),
            FloodEngine::Sharded { threads, strategy } => {
                write!(f, "sharded:{threads}:{}", strategy.name())
            }
            FloodEngine::Dynamic { churn } => write!(f, "dynamic:{churn}"),
        }
    }
}

/// Error from parsing a [`FloodEngine`] string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseEngineError(String);

impl fmt::Display for ParseEngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ParseEngineError {}

/// Parses the canonical engine syntax (see the [`fmt::Display`] impl),
/// plus the obvious shorthands: bare `sharded` (= [`DEFAULT_SHARD_THREADS`]
/// threads, `bfs` partitioner), `sharded:<k>` (= `bfs`), and bare
/// `dynamic` (= zero churn).
impl FromStr for FloodEngine {
    type Err = ParseEngineError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (head, config) = match s.split_once(':') {
            Some((head, config)) => (head, Some(config)),
            None => (s, None),
        };
        match (head, config) {
            ("auto", None) => Ok(FloodEngine::Auto),
            ("frontier", None) => Ok(FloodEngine::Frontier),
            ("fast", None) => Ok(FloodEngine::Fast),
            ("bitlane", None) => Ok(FloodEngine::BitLane),
            ("auto" | "frontier" | "fast" | "bitlane", Some(_)) => Err(ParseEngineError(format!(
                "engine '{head}' takes no ':' parameters (got '{s}')"
            ))),
            ("sharded", config) => {
                let (threads, strategy) = match config {
                    None => (DEFAULT_SHARD_THREADS, PartitionStrategy::Bfs),
                    Some(config) => {
                        let (threads, strategy) = match config.split_once(':') {
                            None => (config, None),
                            Some((threads, strategy)) => (threads, Some(strategy)),
                        };
                        let threads = threads.parse().map_err(|_| {
                            ParseEngineError(format!(
                                "bad thread count '{threads}' in engine '{s}'"
                            ))
                        })?;
                        let strategy = match strategy {
                            None => PartitionStrategy::Bfs,
                            Some(name) => name.parse().map_err(|_| {
                                ParseEngineError(format!(
                                    "bad partitioner '{name}' in engine '{s}' \
                                     (use contiguous, round-robin, or bfs)"
                                ))
                            })?,
                        };
                        (threads, strategy)
                    }
                };
                Ok(FloodEngine::Sharded { threads, strategy })
            }
            ("dynamic", config) => {
                let churn = match config {
                    None => ChurnSpec::NONE,
                    Some(config) => config.parse().map_err(|e| {
                        ParseEngineError(format!("bad churn spec in engine '{s}': {e}"))
                    })?,
                };
                Ok(FloodEngine::Dynamic { churn })
            }
            _ => Err(ParseEngineError(format!(
                "unknown engine '{s}' (use auto, frontier, fast, sharded[:k[:partitioner]], \
                 dynamic[:churn], or bitlane)"
            ))),
        }
    }
}

/// Builder for an amnesiac-flooding execution ([C-BUILDER]).
///
/// # Examples
///
/// ```
/// use af_core::AmnesiacFlooding;
/// use af_graph::generators;
///
/// // Figure 1: flood the line 0-1-2-3 from node 1.
/// let g = generators::path(4);
/// let run = AmnesiacFlooding::single_source(&g, 1.into()).run();
/// assert_eq!(run.termination_round(), Some(2));
/// assert_eq!(run.round_set(2), &[3.into()]); // R2 = {d}
/// ```
///
/// [C-BUILDER]: https://rust-lang.github.io/api-guidelines/type-safety.html
#[derive(Debug, Clone)]
pub struct AmnesiacFlooding<'g> {
    graph: &'g Graph,
    sources: Vec<NodeId>,
    max_rounds: Option<u32>,
    engine: FloodEngine,
    /// Explicit churn schedule (replay / hand-built). Takes precedence
    /// over a [`FloodEngine::Dynamic`] spec's generated schedule.
    churn: Option<ChurnSchedule>,
    /// Round-level observer handed to the engine before seeding, so it
    /// sees the flood-start record and every round.
    probe: Option<SharedProbe>,
}

impl<'g> AmnesiacFlooding<'g> {
    /// A flood started by the single distinguished node `source` (the
    /// paper's main setting).
    #[must_use]
    pub fn single_source(graph: &'g Graph, source: NodeId) -> Self {
        AmnesiacFlooding {
            graph,
            sources: vec![source],
            max_rounds: None,
            engine: FloodEngine::Frontier,
            churn: None,
            probe: None,
        }
    }

    /// A flood started simultaneously by every node in `sources` (the full
    /// paper's multi-source extension).
    #[must_use]
    pub fn multi_source<I>(graph: &'g Graph, sources: I) -> Self
    where
        I: IntoIterator<Item = NodeId>,
    {
        AmnesiacFlooding {
            graph,
            sources: sources.into_iter().collect(),
            max_rounds: None,
            engine: FloodEngine::Frontier,
            churn: None,
            probe: None,
        }
    }

    /// Overrides the round cap. The default is `2n + 2` rounds — strictly
    /// above the paper's `2D + 1` upper bound, so a capped run is a
    /// counterexample to Theorem 3.1/3.3 rather than an artefact.
    #[must_use]
    pub fn with_max_rounds(mut self, max_rounds: u32) -> Self {
        self.max_rounds = Some(max_rounds);
        self
    }

    /// Selects the simulator backend (the default is
    /// [`FloodEngine::Frontier`]). The produced [`FloodingRun`] is
    /// engine-independent for the static engines; [`FloodEngine::Dynamic`]
    /// changes the workload itself (mid-flood churn).
    #[must_use]
    pub fn with_engine(mut self, engine: FloodEngine) -> Self {
        self.engine = engine;
        self
    }

    /// Floods under an **explicit** churn schedule on the
    /// [`DynamicFlooding`] engine (superseding a [`FloodEngine::Dynamic`]
    /// spec's generated schedule). The empty schedule reproduces the
    /// frontier engine's record bit for bit.
    ///
    /// # Panics
    ///
    /// [`AmnesiacFlooding::run`] panics if a churn schedule is combined
    /// with the [`FloodEngine::Fast`], [`FloodEngine::Sharded`], or
    /// [`FloodEngine::BitLane`] engines — churn floods run on the dynamic
    /// engine only, and silently switching engines would mislabel the
    /// record (the CLI rejects the same combinations as argument errors).
    #[must_use]
    pub fn with_churn(mut self, schedule: ChurnSchedule) -> Self {
        self.churn = Some(schedule);
        self
    }

    /// Attaches a round-level observer (see [`crate::obs::FloodProbe`]).
    /// The probe is handed to the engine **before** seeding, so it
    /// receives the flood-start record, one start/finish pair per round,
    /// and the flood-end record. Attaching an
    /// [`crate::obs::NdjsonTraceWriter`] here is how
    /// `flood --trace-out` produces its NDJSON trace.
    ///
    /// # Examples
    ///
    /// ```
    /// use af_core::obs::NdjsonTraceWriter;
    /// use af_core::AmnesiacFlooding;
    /// use af_graph::generators;
    /// use std::cell::RefCell;
    /// use std::rc::Rc;
    ///
    /// let g = generators::cycle(6);
    /// let writer = Rc::new(RefCell::new(NdjsonTraceWriter::new(Vec::new())));
    /// let run = AmnesiacFlooding::single_source(&g, 0.into())
    ///     .with_probe(writer.clone())
    ///     .run();
    /// assert_eq!(run.termination_round(), Some(3));
    /// let trace = writer.borrow_mut().take_sink();
    /// // start + 3 rounds + end = 5 NDJSON lines.
    /// assert_eq!(trace.iter().filter(|&&b| b == b'\n').count(), 5);
    /// ```
    #[must_use]
    pub fn with_probe(mut self, probe: SharedProbe) -> Self {
        self.probe = Some(probe);
        self
    }

    /// The sources this flood will start from.
    #[must_use]
    pub fn sources(&self) -> &[NodeId] {
        &self.sources
    }

    /// Executes the flood and collects the full run record.
    ///
    /// # Panics
    ///
    /// Panics if a source is out of range, or if an explicit churn
    /// schedule is combined with the sharded engine (see
    /// [`AmnesiacFlooding::with_churn`]).
    #[must_use]
    pub fn run(&self) -> FloodingRun {
        let cap = self
            .max_rounds
            // af-audit: allow(no-lossy-id-cast): node counts are bounded by u32::MAX
            .unwrap_or_else(|| 2 * self.graph.node_count() as u32 + 2);
        let mut sim: Box<dyn Flooder + '_> = match (&self.churn, self.engine) {
            (Some(_), FloodEngine::Fast | FloodEngine::Sharded { .. } | FloodEngine::BitLane) => {
                panic!(
                    "churn floods run on the dynamic engine; do not combine \
                 with_churn with the fast, sharded, or bitlane engines"
                )
            }
            // Explicit schedule (replay / hand-built) supersedes the
            // engine choice; the empty schedule is bit-identical to
            // frontier, so nothing is mislabeled.
            (Some(schedule), _) => Box::new(DynamicFlooding::new(self.graph, [], schedule.clone())),
            (None, engine) => engine.flooder(self.graph, cap),
        };
        if let Some(probe) = &self.probe {
            sim.set_probe(Some(probe.clone()));
        }
        sim.reset(&mut self.sources.iter().copied());
        let outcome = sim.run(cap);
        self.collect(&*sim, outcome)
    }

    /// Assembles the engine-independent run record from a finished
    /// simulator's receipts and counters. The record covers the
    /// simulator's **final** node count — join churn can grow the node
    /// space past the input graph's mid-flood.
    fn collect(&self, sim: &dyn Flooder, outcome: Outcome) -> FloodingRun {
        let receive_rounds = sim.receive_rounds();
        let rounds_executed = outcome.rounds_executed();
        let mut round_sets: Vec<Vec<NodeId>> = vec![Vec::new(); rounds_executed as usize + 1];
        let mut sorted_sources = self.sources.clone();
        sorted_sources.sort_unstable();
        sorted_sources.dedup();
        round_sets[0] = sorted_sources.clone();
        for (i, rounds) in receive_rounds.iter().enumerate() {
            for &r in rounds {
                round_sets[r as usize].push(NodeId::new(i));
            }
        }

        FloodingRun::new_internal(
            outcome,
            sorted_sources,
            receive_rounds,
            round_sets,
            sim.messages_per_round().to_vec(),
            sim.total_messages(),
        )
    }
}

/// The complete record of one flooding execution.
///
/// All the objects the paper reasons about are exposed directly: the
/// round-sets `R_0, R_1, …` from the Theorem 3.1 proof, per-node receive
/// rounds, the termination round, and message counts.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct FloodingRun {
    outcome: Outcome,
    sources: Vec<NodeId>,
    receive_rounds: Vec<Vec<u32>>,
    round_sets: Vec<Vec<NodeId>>,
    messages_per_round: Vec<u64>,
    total_messages: u64,
}

impl FloodingRun {
    fn new_internal(
        outcome: Outcome,
        sources: Vec<NodeId>,
        receive_rounds: Vec<Vec<u32>>,
        round_sets: Vec<Vec<NodeId>>,
        messages_per_round: Vec<u64>,
        total_messages: u64,
    ) -> Self {
        FloodingRun {
            outcome,
            sources,
            receive_rounds,
            round_sets,
            messages_per_round,
            total_messages,
        }
    }

    /// Returns `true` if the flood terminated within the round cap.
    #[must_use]
    pub fn terminated(&self) -> bool {
        self.outcome.is_terminated()
    }

    /// The paper's termination time: the last round in which any edge
    /// carried the message. `None` if the cap was reached first.
    #[must_use]
    pub fn termination_round(&self) -> Option<u32> {
        self.outcome.termination_round()
    }

    /// Number of rounds executed (equals the termination round for
    /// terminated runs).
    #[must_use]
    pub fn rounds_executed(&self) -> u32 {
        self.outcome.rounds_executed()
    }

    /// The engine-level outcome.
    #[must_use]
    pub fn outcome(&self) -> Outcome {
        self.outcome
    }

    /// The (sorted, deduplicated) source set.
    #[must_use]
    pub fn sources(&self) -> &[NodeId] {
        &self.sources
    }

    /// The round-set `R_i`: nodes receiving the message at round `i`
    /// (`R_0` is the source set, by the paper's convention), sorted by node
    /// id.
    ///
    /// # Panics
    ///
    /// Panics if `i` exceeds the number of executed rounds.
    #[must_use]
    pub fn round_set(&self, i: u32) -> &[NodeId] {
        &self.round_sets[i as usize]
    }

    /// All round-sets `R_0 ..= R_T`.
    #[must_use]
    pub fn round_sets(&self) -> &[Vec<NodeId>] {
        &self.round_sets
    }

    /// Number of nodes of the flooded graph.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.receive_rounds.len()
    }

    /// The rounds at which `v` received the message, in increasing order.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[must_use]
    pub fn receive_rounds(&self, v: NodeId) -> &[u32] {
        &self.receive_rounds[v.index()]
    }

    /// How many times `v` received the message over the whole run.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[must_use]
    pub fn receive_count(&self, v: NodeId) -> usize {
        self.receive_rounds[v.index()].len()
    }

    /// The maximum receive count over all nodes (the paper's theory bounds
    /// this by 2).
    #[must_use]
    pub fn max_receive_count(&self) -> usize {
        self.receive_rounds.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Number of nodes that received the message at least once.
    #[must_use]
    pub fn informed_count(&self) -> usize {
        self.receive_rounds.iter().filter(|r| !r.is_empty()).count()
    }

    /// Total point-to-point messages delivered.
    #[must_use]
    pub fn total_messages(&self) -> u64 {
        self.total_messages
    }

    /// Messages delivered per executed round (index 0 = round 1).
    #[must_use]
    pub fn messages_per_round(&self) -> &[u64] {
        &self.messages_per_round
    }
}

/// Summary statistics of one flood executed by a [`FloodBatch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FloodStats {
    outcome: Outcome,
    total_messages: u64,
}

impl FloodStats {
    /// The engine-level outcome.
    #[must_use]
    pub fn outcome(&self) -> Outcome {
        self.outcome
    }

    /// The termination round, or `None` if the round cap was reached.
    #[must_use]
    pub fn termination_round(&self) -> Option<u32> {
        self.outcome.termination_round()
    }

    /// Returns `true` if the flood terminated within the cap.
    #[must_use]
    pub fn terminated(&self) -> bool {
        self.outcome.is_terminated()
    }

    /// Total point-to-point messages delivered.
    #[must_use]
    pub fn total_messages(&self) -> u64 {
        self.total_messages
    }
}

/// Batched multi-source flood runner: executes many floods on one graph
/// through reusable simulators, so per-flood cost is the intrinsic
/// `O(messages)` work with **no per-source allocation**. The default
/// [`FloodEngine::Auto`] runs single floods on [`FrontierFlooding`] and
/// lets [`FloodBatch::run_many`] pack a batch whose wavefronts overlap
/// into 64-lane [`BitLaneFlooding`] passes; [`FloodBatch::with_engine`]
/// pins any one engine instead (on the bitlane engine, `run_many` packs
/// every batch).
///
/// Receipt recording is off (the batch reports [`FloodStats`], not full
/// schedules), which is what makes [`FrontierFlooding::reset`] constant
/// amortized overhead. This is the engine under the throughput benchmark
/// and the E13 scaling experiment.
///
/// # Examples
///
/// ```
/// use af_core::FloodBatch;
/// use af_graph::generators;
///
/// let g = generators::cycle(9);
/// let mut batch = FloodBatch::new(&g);
/// // C9 is vertex-transitive: every source gives 2D + 1 = 9 rounds.
/// for stats in batch.run_all_single_sources() {
///     assert_eq!(stats.termination_round(), Some(9));
///     assert_eq!(stats.total_messages(), 18); // 2m
/// }
/// ```
#[derive(Debug)]
pub struct FloodBatch<'g> {
    /// The batch's graph (for the dynamic engine: the pristine base graph
    /// every flood restarts from, not the mid-churn snapshot).
    graph: &'g Graph,
    sim: Box<dyn Flooder + 'g>,
    max_rounds: Option<u32>,
    /// The spec behind a *generated* dynamic schedule (None for the
    /// static engines and for explicit [`FloodBatch::with_churn`]
    /// schedules), kept so [`FloodBatch::with_max_rounds`] can regenerate
    /// the schedule to match a new cap — churn must cover every round the
    /// batch can execute.
    churn_spec: Option<ChurnSpec>,
    /// Whether this is an [`FloodEngine::Auto`] batch (`sim` is then its
    /// frontier engine).
    auto: bool,
    /// The auto batch's bit-lane engine, built on its first packed chunk
    /// and reused after that.
    packed: Option<BitLaneFlooding<'g>>,
    /// The attached observer, kept to hand to `packed` when it is built.
    probe: Option<SharedProbe>,
}

impl<'g> FloodBatch<'g> {
    /// Creates a batch runner for `graph` on the default
    /// ([`FloodEngine::Auto`]) engine.
    #[must_use]
    pub fn new(graph: &'g Graph) -> Self {
        FloodBatch::with_engine(graph, FloodEngine::default())
    }

    /// Creates a batch runner on an explicit engine. The sharded backend
    /// partitions the graph once and reuses the shards (and every worker
    /// allocation) across all floods of the batch — but each
    /// [`run_from`](FloodBatch::run_from) call spawns its worker threads
    /// afresh (see [`crate::ShardedFlooding::run`]), so on very short
    /// floods the spawn cost can dominate; the sharded backend earns its
    /// keep on floods whose rounds carry real work.
    #[must_use]
    pub fn with_engine(graph: &'g Graph, engine: FloodEngine) -> Self {
        // Streamed dynamic deltas: O(graph) memory at this horizon.
        // af-audit: allow(no-lossy-id-cast): node counts are bounded by u32::MAX
        let horizon = 2 * graph.node_count() as u32 + 2;
        let mut sim = engine.flooder(graph, horizon);
        sim.set_record_receipts(false);
        FloodBatch {
            graph,
            sim,
            max_rounds: None,
            churn_spec: match engine {
                FloodEngine::Dynamic { churn } => Some(churn),
                _ => None,
            },
            auto: engine == FloodEngine::Auto,
            packed: None,
            probe: None,
        }
    }

    /// Creates a batch runner on the [`DynamicFlooding`] engine with an
    /// **explicit** churn schedule. Every flood of the batch starts from
    /// the pristine base graph and replays the same schedule, so batches
    /// stay deterministic and floods comparable. The empty schedule makes
    /// every flood bit-identical to the frontier engine's.
    #[must_use]
    pub fn with_churn(graph: &'g Graph, schedule: ChurnSchedule) -> Self {
        let mut sim = DynamicFlooding::new(graph, [], schedule);
        sim.set_record_receipts(false);
        FloodBatch {
            graph,
            sim: Box::new(sim),
            max_rounds: None,
            churn_spec: None,
            auto: false,
            packed: None,
            probe: None,
        }
    }

    /// Overrides the per-flood round cap (default `2n + 2`, strictly above
    /// the paper's `2D + 1` bound). On a [`FloodEngine::Dynamic`]-built
    /// batch this also regenerates the churn schedule to the new horizon,
    /// so every executable round stays covered by the spec'd churn
    /// (explicit [`FloodBatch::with_churn`] schedules are kept verbatim).
    #[must_use]
    pub fn with_max_rounds(mut self, max_rounds: u32) -> Self {
        self.max_rounds = Some(max_rounds);
        if let Some(churn) = self.churn_spec {
            let mut fresh = DynamicFlooding::with_spec(self.graph, [], churn, max_rounds);
            fresh.set_record_receipts(false);
            self.sim = Box::new(fresh);
        }
        self
    }

    /// Attaches (or with `None`, detaches) a round-level observer on the
    /// batch's simulator (see [`crate::obs::FloodProbe`]): every
    /// subsequent flood of the batch reports its start, rounds, and end
    /// through the probe. Attach **after** the builder methods —
    /// [`FloodBatch::with_max_rounds`] can rebuild the simulator on the
    /// dynamic engine, dropping an earlier probe.
    pub fn set_probe(&mut self, probe: Option<SharedProbe>) {
        self.sim.set_probe(probe.clone());
        if let Some(packed) = &mut self.packed {
            packed.set_probe(probe.clone());
        }
        self.probe = probe;
    }

    /// The graph this batch floods (for the dynamic engine: the pristine
    /// base graph every flood starts from, not the mid-churn snapshot).
    #[must_use]
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// The per-flood round cap currently in force.
    fn cap(&self) -> u32 {
        self.max_rounds
            // af-audit: allow(no-lossy-id-cast): node counts are bounded by u32::MAX
            .unwrap_or_else(|| 2 * self.graph.node_count() as u32 + 2)
    }

    /// Runs one flood from `sources`, reusing the simulator's allocations.
    ///
    /// # Panics
    ///
    /// Panics if a source is out of range.
    pub fn run_from<I>(&mut self, sources: I) -> FloodStats
    where
        I: IntoIterator<Item = NodeId>,
    {
        let cap = self.cap();
        self.sim.reset(&mut sources.into_iter());
        FloodStats {
            outcome: self.sim.run(cap),
            // One flood at a time: the all-lane total is the flood's own
            // even on the (single-lane-occupied) bitlane engine.
            total_messages: self.sim.total_messages(),
        }
    }

    /// Runs one flood per source set, in order, and returns one
    /// [`FloodStats`] per set (see [`FloodBatch::run_many_into`]).
    pub fn run_many(&mut self, source_sets: &[Vec<NodeId>]) -> Vec<FloodStats> {
        let mut out = Vec::with_capacity(source_sets.len());
        self.run_many_into(source_sets, &mut out);
        out
    }

    /// Runs one flood per source set, in order, appending one
    /// [`FloodStats`] per set to `out`. On a multi-lane engine (the
    /// [`FloodEngine::BitLane`] engine's [`Flooder::lane_capacity`] is 64)
    /// the sets are chunked into full-width lane groups and each group
    /// floods in one bit-parallel run — `chunks` leaves the final partial
    /// group exactly `len % 64` lanes wide (or a full 64 when the count
    /// divides evenly), so no lane is ever padded or dropped. Single-lane
    /// engines flood the sets one by one via [`FloodBatch::run_from`]. On
    /// [`FloodEngine::Auto`], set 0 floods on frontier and decides whether
    /// the rest pack (see the variant's docs). A warm batch appends into
    /// spare `out` capacity without touching the allocator.
    ///
    /// # Panics
    ///
    /// Panics if a source is out of range.
    pub fn run_many_into(&mut self, source_sets: &[Vec<NodeId>], out: &mut Vec<FloodStats>) {
        let cap = self.cap();
        if self.auto {
            let Some((first, rest)) = source_sets.split_first() else {
                return;
            };
            let first = self.run_from(first.iter().copied());
            out.push(first);
            if packs(first, rest.len(), self.graph.edge_count()) {
                let packed = self.packed.get_or_insert_with(|| {
                    let mut sim =
                        BitLaneFlooding::new(self.graph, core::iter::empty::<[NodeId; 0]>());
                    sim.set_record_receipts(false);
                    sim.set_probe(self.probe.clone());
                    sim
                });
                run_lanes(packed, rest, cap, out);
            } else {
                for set in rest {
                    let stats = self.run_from(set.iter().copied());
                    out.push(stats);
                }
            }
        } else if self.sim.lane_capacity() == 1 {
            for set in source_sets {
                let stats = self.run_from(set.iter().copied());
                out.push(stats);
            }
        } else {
            run_lanes(&mut *self.sim, source_sets, cap, out);
        }
    }

    /// Runs one single-source flood from every node of the graph, in node
    /// order — `n` floods, one simulator, zero *per-flood* reallocations
    /// (on the bitlane engine, or an auto batch that packs: `⌈n / 64⌉`
    /// bit-parallel runs).
    pub fn run_all_single_sources(&mut self) -> Vec<FloodStats> {
        let sets: Vec<Vec<NodeId>> = self.graph().nodes().map(|s| vec![s]).collect();
        self.run_many(&sets)
    }
}

/// Whether an [`FloodEngine::Auto`] batch packs the `remaining` sets that
/// follow a first flood with stats `first`, on a graph of `edges` edges:
/// the first flood terminated in `T ≥ 1` rounds with `M` messages, and the
/// next `L = min(64, remaining)` such floods would fill at least
/// `1 / PACK_OCCUPANCY_DIVISOR` of the `2m` arcs per round,
/// `L · M / (2m · T) ≥ 1 / PACK_OCCUPANCY_DIVISOR`.
fn packs(first: FloodStats, remaining: usize, edges: usize) -> bool {
    let Outcome::Terminated {
        last_active_round: rounds,
    } = first.outcome
    else {
        return false;
    };
    if remaining == 0 || rounds == 0 {
        return false;
    }
    let lanes = remaining.min(LANES) as u128;
    PACK_OCCUPANCY_DIVISOR * lanes * u128::from(first.total_messages)
        >= 2 * edges as u128 * u128::from(rounds)
}

/// Floods `source_sets` on a multi-lane engine in full-width lane groups,
/// appending one [`FloodStats`] per set to `out`.
fn run_lanes(
    sim: &mut dyn Flooder,
    source_sets: &[Vec<NodeId>],
    cap: u32,
    out: &mut Vec<FloodStats>,
) {
    for chunk in source_sets.chunks(sim.lane_capacity()) {
        sim.reset_lanes(chunk);
        sim.run(cap);
        for lane in 0..chunk.len() {
            out.push(FloodStats {
                outcome: sim.lane_outcome(lane),
                total_messages: sim.lane_messages(lane),
            });
        }
    }
}

/// Convenience free function: single-source AF with default cap.
///
/// # Examples
///
/// ```
/// use af_core::flood;
/// use af_graph::generators;
///
/// let run = flood(&generators::cycle(3), 0.into());
/// assert_eq!(run.termination_round(), Some(3)); // Figure 2: 2D + 1
/// ```
#[must_use]
pub fn flood(graph: &Graph, source: NodeId) -> FloodingRun {
    AmnesiacFlooding::single_source(graph, source).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use af_graph::generators;

    #[test]
    fn figure1_complete_record() {
        let g = generators::path(4);
        let run = AmnesiacFlooding::single_source(&g, 1.into()).run();
        assert!(run.terminated());
        assert_eq!(run.termination_round(), Some(2));
        assert_eq!(run.rounds_executed(), 2);
        assert_eq!(run.sources(), &[1.into()]);
        assert_eq!(run.round_set(0), &[1.into()]);
        assert_eq!(run.round_set(1), &[0.into(), 2.into()]);
        assert_eq!(run.round_set(2), &[3.into()]);
        assert_eq!(run.receive_rounds(0.into()), &[1]);
        assert_eq!(run.receive_rounds(1.into()), &[] as &[u32]);
        assert_eq!(run.receive_rounds(3.into()), &[2]);
        assert_eq!(run.total_messages(), 3); // = m on a bipartite graph
        assert_eq!(run.messages_per_round(), &[2, 1]);
        assert_eq!(run.informed_count(), 3);
        assert_eq!(run.max_receive_count(), 1);
    }

    #[test]
    fn triangle_nodes_receive_at_most_twice() {
        let g = generators::cycle(3);
        let run = flood(&g, 1.into());
        assert_eq!(run.termination_round(), Some(3));
        // a and c receive in rounds 1 and 2; b receives in round 3.
        assert_eq!(run.receive_rounds(0.into()), &[1, 2]);
        assert_eq!(run.receive_rounds(2.into()), &[1, 2]);
        assert_eq!(run.receive_rounds(1.into()), &[3]);
        assert_eq!(run.max_receive_count(), 2);
        assert_eq!(run.total_messages(), 6);
    }

    #[test]
    fn default_cap_is_generous_enough_for_theory() {
        // 2n + 2 > 2D + 1 always, so terminating graphs always terminate.
        for g in [
            generators::cycle(9),
            generators::barbell(5),
            generators::lollipop(4, 6),
        ] {
            let run = flood(&g, 0.into());
            assert!(run.terminated(), "{g}");
        }
    }

    #[test]
    fn explicit_cap_is_respected() {
        let g = generators::cycle(3);
        let run = AmnesiacFlooding::single_source(&g, 0.into())
            .with_max_rounds(2)
            .run();
        assert!(!run.terminated());
        assert_eq!(run.termination_round(), None);
        assert_eq!(run.rounds_executed(), 2);
    }

    #[test]
    fn multi_source_round_zero_is_source_set() {
        let g = generators::cycle(8);
        let run = AmnesiacFlooding::multi_source(&g, [4.into(), 0.into(), 4.into()]).run();
        assert_eq!(run.round_set(0), &[0.into(), 4.into()]);
        assert!(run.terminated());
    }

    #[test]
    fn round_sets_union_covers_connected_graph() {
        let g = generators::petersen();
        let run = flood(&g, 0.into());
        assert_eq!(run.informed_count(), 10);
        let mut all: Vec<NodeId> = run.round_sets().iter().skip(1).flatten().copied().collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 10, "every node appears in some R_i, i >= 1");
    }

    #[test]
    fn outcome_roundtrip() {
        let g = generators::path(3);
        let run = flood(&g, 0.into());
        assert_eq!(
            run.outcome(),
            Outcome::Terminated {
                last_active_round: 2
            }
        );
    }

    #[test]
    fn batch_matches_individual_runs() {
        let g = generators::petersen();
        let mut batch = FloodBatch::new(&g);
        for v in g.nodes() {
            let stats = batch.run_from([v]);
            let run = flood(&g, v);
            assert_eq!(stats.termination_round(), run.termination_round(), "{v}");
            assert_eq!(stats.total_messages(), run.total_messages(), "{v}");
            assert!(stats.terminated());
            assert_eq!(stats.outcome(), run.outcome());
        }
    }

    #[test]
    fn batch_all_sources_covers_every_node() {
        let g = generators::lollipop(4, 5);
        let mut batch = FloodBatch::new(&g);
        let all = batch.run_all_single_sources();
        assert_eq!(all.len(), g.node_count());
        for (v, stats) in g.nodes().zip(&all) {
            assert_eq!(
                stats.termination_round(),
                flood(&g, v).termination_round(),
                "{v}"
            );
        }
    }

    #[test]
    fn batch_multi_source_and_cap() {
        let g = generators::cycle(3);
        let mut batch = FloodBatch::new(&g).with_max_rounds(2);
        let stats = batch.run_from([0.into()]);
        assert!(!stats.terminated());
        assert_eq!(stats.termination_round(), None);

        let g = generators::cycle(8);
        let mut batch = FloodBatch::new(&g);
        let stats = batch.run_from([0.into(), 4.into()]);
        let run = AmnesiacFlooding::multi_source(&g, [0.into(), 4.into()]).run();
        assert_eq!(stats.termination_round(), run.termination_round());
        assert_eq!(stats.total_messages(), run.total_messages());
    }

    #[test]
    fn engine_choice_does_not_change_the_record() {
        use af_graph::PartitionStrategy;
        let g = generators::petersen();
        let base = AmnesiacFlooding::multi_source(&g, [0.into(), 6.into()]).run();
        for strategy in PartitionStrategy::all() {
            for threads in [1, 2, 4] {
                let sharded = AmnesiacFlooding::multi_source(&g, [0.into(), 6.into()])
                    .with_engine(FloodEngine::Sharded { threads, strategy })
                    .run();
                assert_eq!(base, sharded, "{strategy} x{threads}");
            }
        }
    }

    #[test]
    fn sharded_batch_matches_frontier_batch() {
        use af_graph::PartitionStrategy;
        let g = generators::lollipop(4, 5);
        let mut frontier = FloodBatch::new(&g);
        let mut sharded = FloodBatch::with_engine(
            &g,
            FloodEngine::Sharded {
                threads: 3,
                strategy: PartitionStrategy::Bfs,
            },
        );
        for v in g.nodes() {
            assert_eq!(frontier.run_from([v]), sharded.run_from([v]), "{v}");
        }
        assert_eq!(sharded.graph().node_count(), g.node_count());

        // Cap behaviour is engine-independent too.
        let g = generators::cycle(3);
        let mut capped = FloodBatch::with_engine(
            &g,
            FloodEngine::Sharded {
                threads: 2,
                strategy: PartitionStrategy::Contiguous,
            },
        )
        .with_max_rounds(2);
        assert!(!capped.run_from([0.into()]).terminated());
    }

    #[test]
    fn default_engine_is_auto() {
        assert_eq!(FloodEngine::default(), FloodEngine::Auto);
    }

    #[test]
    fn fast_engine_does_not_change_the_record() {
        let g = generators::petersen();
        let base = AmnesiacFlooding::multi_source(&g, [0.into(), 6.into()]).run();
        let fast = AmnesiacFlooding::multi_source(&g, [0.into(), 6.into()])
            .with_engine(FloodEngine::Fast)
            .run();
        assert_eq!(base, fast);

        let mut frontier = FloodBatch::new(&g);
        let mut fast = FloodBatch::with_engine(&g, FloodEngine::Fast);
        for v in g.nodes() {
            assert_eq!(frontier.run_from([v]), fast.run_from([v]), "{v}");
        }
    }

    #[test]
    #[should_panic(expected = "churn floods run on the dynamic engine")]
    fn churn_with_fast_engine_is_rejected_not_silently_switched() {
        let g = generators::cycle(6);
        let _ = AmnesiacFlooding::single_source(&g, 0.into())
            .with_engine(FloodEngine::Fast)
            .with_churn(ChurnSchedule::empty())
            .run();
    }

    #[test]
    fn engine_display_is_canonical() {
        assert_eq!(FloodEngine::Auto.to_string(), "auto");
        assert_eq!(FloodEngine::Frontier.to_string(), "frontier");
        assert_eq!(FloodEngine::Fast.to_string(), "fast");
        assert_eq!(FloodEngine::BitLane.to_string(), "bitlane");
        assert_eq!(
            FloodEngine::Sharded {
                threads: 3,
                strategy: PartitionStrategy::RoundRobin,
            }
            .to_string(),
            "sharded:3:round-robin"
        );
        assert_eq!(
            FloodEngine::Dynamic {
                churn: ChurnSpec::NONE,
            }
            .to_string(),
            "dynamic:none"
        );
        assert_eq!(
            FloodEngine::Dynamic {
                churn: "mix:50:7".parse().unwrap(),
            }
            .to_string(),
            "dynamic:mix:50:7"
        );
    }

    #[test]
    fn engine_from_str_accepts_shorthands() {
        assert_eq!("auto".parse(), Ok(FloodEngine::Auto));
        assert_eq!("frontier".parse(), Ok(FloodEngine::Frontier));
        assert_eq!("fast".parse(), Ok(FloodEngine::Fast));
        assert_eq!("bitlane".parse(), Ok(FloodEngine::BitLane));
        assert_eq!(
            "sharded".parse(),
            Ok(FloodEngine::Sharded {
                threads: DEFAULT_SHARD_THREADS,
                strategy: PartitionStrategy::Bfs,
            })
        );
        assert_eq!(
            "sharded:7".parse(),
            Ok(FloodEngine::Sharded {
                threads: 7,
                strategy: PartitionStrategy::Bfs,
            })
        );
        assert_eq!(
            "sharded:2:contiguous".parse(),
            Ok(FloodEngine::Sharded {
                threads: 2,
                strategy: PartitionStrategy::Contiguous,
            })
        );
        assert_eq!(
            "dynamic".parse(),
            Ok(FloodEngine::Dynamic {
                churn: ChurnSpec::NONE,
            })
        );
        assert_eq!(
            "dynamic:edge:200:4".parse::<FloodEngine>().unwrap(),
            FloodEngine::Dynamic {
                churn: "edge:200:4".parse().unwrap(),
            }
        );
    }

    #[test]
    fn engine_from_str_rejects_malformed_strings() {
        for bad in [
            "",
            "warp",
            "frontier:2",
            "auto:64",
            "fast:1",
            "bitlane:64",
            "sharded:x",
            "sharded:2:zigzag",
            "dynamic:mix:50", // churn needs kind:rate:seed
            "dynamic:mix:50:7:9",
            "Frontier", // case-sensitive: one canonical spelling
        ] {
            assert!(bad.parse::<FloodEngine>().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn engine_string_roundtrip_on_named_cases() {
        let engines = [
            FloodEngine::Auto,
            FloodEngine::Frontier,
            FloodEngine::Fast,
            FloodEngine::BitLane,
            FloodEngine::Sharded {
                threads: 0,
                strategy: PartitionStrategy::Bfs,
            },
            FloodEngine::Sharded {
                threads: 16,
                strategy: PartitionStrategy::Contiguous,
            },
            FloodEngine::Dynamic {
                churn: ChurnSpec::NONE,
            },
            FloodEngine::Dynamic {
                churn: "nodes:1000:0".parse().unwrap(),
            },
        ];
        for engine in engines {
            assert_eq!(engine.to_string().parse(), Ok(engine), "{engine}");
        }
    }

    #[test]
    fn bitlane_engine_does_not_change_the_record() {
        let g = generators::petersen();
        let base = AmnesiacFlooding::multi_source(&g, [0.into(), 6.into()]).run();
        let bitlane = AmnesiacFlooding::multi_source(&g, [0.into(), 6.into()])
            .with_engine(FloodEngine::BitLane)
            .run();
        assert_eq!(base, bitlane);

        // Cap behaviour is engine-independent too.
        let g = generators::cycle(3);
        let capped = AmnesiacFlooding::single_source(&g, 0.into())
            .with_engine(FloodEngine::BitLane)
            .with_max_rounds(2)
            .run();
        assert!(!capped.terminated());
        assert_eq!(capped.rounds_executed(), 2);
    }

    #[test]
    fn bitlane_batch_matches_frontier_batch() {
        let g = generators::lollipop(4, 5);
        let mut frontier = FloodBatch::new(&g);
        let mut bitlane = FloodBatch::with_engine(&g, FloodEngine::BitLane);
        for v in g.nodes() {
            assert_eq!(frontier.run_from([v]), bitlane.run_from([v]), "{v}");
        }
        assert_eq!(
            frontier.run_all_single_sources(),
            bitlane.run_all_single_sources()
        );
    }

    #[test]
    fn run_many_chunking_boundaries_match_run_from() {
        // The classic partial-word boundaries: under one word (n < 64),
        // exactly one word, one over, and a multi-word tail (% 64 != 0).
        let g = generators::petersen();
        let mut frontier = FloodBatch::new(&g);
        let mut bitlane = FloodBatch::with_engine(&g, FloodEngine::BitLane);
        for floods in [1usize, 2, 63, 64, 65, 128, 130] {
            let sets: Vec<Vec<NodeId>> = (0..floods)
                .map(|i| vec![NodeId::new(i % g.node_count())])
                .collect();
            let want: Vec<FloodStats> = sets
                .iter()
                .map(|s| frontier.run_from(s.iter().copied()))
                .collect();
            let got = bitlane.run_many(&sets);
            assert_eq!(got, want, "{floods} floods");
            // The generic path chunks identically from a warm batch.
            let mut again = Vec::new();
            bitlane.run_many_into(&sets, &mut again);
            assert_eq!(again, want, "{floods} floods (into)");
        }
    }

    #[test]
    fn run_many_on_frontier_engine_matches_run_from() {
        let g = generators::petersen();
        let sets: Vec<Vec<NodeId>> = vec![
            vec![0.into()],
            vec![3.into(), 7.into()],
            vec![1.into(), 2.into(), 9.into()],
        ];
        let mut batch = FloodBatch::new(&g);
        let via_many = batch.run_many(&sets);
        let via_from: Vec<FloodStats> = sets
            .iter()
            .map(|s| batch.run_from(s.iter().copied()))
            .collect();
        assert_eq!(via_many, via_from);
    }

    #[test]
    fn bitlane_batch_respects_the_cap_per_flood() {
        let g = generators::cycle(3);
        let mut batch = FloodBatch::with_engine(&g, FloodEngine::BitLane).with_max_rounds(2);
        let stats = batch.run_from([0.into()]);
        assert!(!stats.terminated());
        let many = batch.run_many(&[vec![0.into()], vec![1.into()]]);
        assert!(many.iter().all(|s| !s.terminated()));
    }

    #[test]
    #[should_panic(expected = "churn floods run on the dynamic engine")]
    fn churn_with_bitlane_engine_is_rejected_not_silently_switched() {
        let g = generators::cycle(6);
        let _ = AmnesiacFlooding::single_source(&g, 0.into())
            .with_engine(FloodEngine::BitLane)
            .with_churn(ChurnSchedule::empty())
            .run();
    }

    #[test]
    fn dynamic_engine_with_no_churn_matches_frontier_record() {
        let g = generators::petersen();
        let base = AmnesiacFlooding::multi_source(&g, [0.into(), 6.into()]).run();
        // Zero-rate spec through the engine enum.
        let via_spec = AmnesiacFlooding::multi_source(&g, [0.into(), 6.into()])
            .with_engine(FloodEngine::Dynamic {
                churn: ChurnSpec::NONE,
            })
            .run();
        assert_eq!(base, via_spec);
        // Explicit empty schedule through the builder.
        let via_schedule = AmnesiacFlooding::multi_source(&g, [0.into(), 6.into()])
            .with_churn(ChurnSchedule::empty())
            .run();
        assert_eq!(base, via_schedule);
    }

    #[test]
    fn dynamic_engine_runs_generated_churn_deterministically() {
        let g = generators::grid(5, 5);
        let churn: ChurnSpec = "mix:100:3".parse().unwrap();
        let engine = FloodEngine::Dynamic { churn };
        let a = AmnesiacFlooding::single_source(&g, 0.into())
            .with_engine(engine)
            .run();
        let b = AmnesiacFlooding::single_source(&g, 0.into())
            .with_engine(engine)
            .run();
        assert_eq!(a, b, "same spec, same record");
        // The record stays well-formed even if churn grew the node space.
        assert!(a.node_count() >= g.node_count());
        assert!(a.total_messages() > 0);
    }

    #[test]
    fn dynamic_batch_with_empty_schedule_matches_frontier_batch() {
        let g = generators::lollipop(4, 5);
        let mut frontier = FloodBatch::new(&g);
        let mut dynamic = FloodBatch::with_churn(&g, ChurnSchedule::empty());
        for v in g.nodes() {
            assert_eq!(frontier.run_from([v]), dynamic.run_from([v]), "{v}");
        }
        assert_eq!(dynamic.graph().node_count(), g.node_count());

        // The engine-enum construction path behaves identically.
        let mut via_engine = FloodBatch::with_engine(
            &g,
            FloodEngine::Dynamic {
                churn: ChurnSpec::NONE,
            },
        );
        for v in g.nodes() {
            assert_eq!(frontier.run_from([v]), via_engine.run_from([v]), "{v}");
        }
    }

    #[test]
    #[should_panic(expected = "churn floods run on the dynamic engine")]
    fn churn_with_sharded_engine_is_rejected_not_silently_switched() {
        let g = generators::cycle(6);
        let _ = AmnesiacFlooding::single_source(&g, 0.into())
            .with_engine(FloodEngine::Sharded {
                threads: 2,
                strategy: PartitionStrategy::Bfs,
            })
            .with_churn(ChurnSchedule::empty())
            .run();
    }

    #[test]
    fn dynamic_batch_regenerates_the_schedule_for_a_larger_cap() {
        let g = generators::petersen();
        let churn: ChurnSpec = "edge:200:4".parse().unwrap();
        // Raising the cap must extend the generated churn horizon to
        // match: the batch behaves exactly like one whose schedule was
        // generated at the new horizon in the first place.
        let cap = 3 * (2 * g.node_count() as u32 + 2);
        let mut via_engine =
            FloodBatch::with_engine(&g, FloodEngine::Dynamic { churn }).with_max_rounds(cap);
        let mut via_schedule = FloodBatch::with_churn(&g, ChurnSchedule::generate(&g, churn, cap))
            .with_max_rounds(cap);
        for v in g.nodes() {
            assert_eq!(via_engine.run_from([v]), via_schedule.run_from([v]), "{v}");
        }
    }

    #[test]
    fn dynamic_batch_replays_the_same_schedule_per_flood() {
        let g = generators::petersen();
        let churn: ChurnSpec = "edge:150:9".parse().unwrap();
        let mut batch = FloodBatch::with_engine(&g, FloodEngine::Dynamic { churn });
        let first = batch.run_from([0.into()]);
        let again = batch.run_from([0.into()]);
        assert_eq!(first, again, "reset restores the base graph + schedule");
        // graph() reports the pristine base even after churned floods.
        assert_eq!(batch.graph().node_count(), g.node_count());
    }

    #[cfg(feature = "serde")]
    #[test]
    fn run_serializes() {
        let g = generators::cycle(5);
        let run = flood(&g, 0.into());
        let json = serde_json::to_string(&run).unwrap();
        let back: FloodingRun = serde_json::from_str(&json).unwrap();
        assert_eq!(run, back);
    }
}
