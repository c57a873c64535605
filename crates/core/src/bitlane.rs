//! The bit-parallel (SIMD-within-a-register) amnesiac-flooding engine.
//!
//! One amnesiac flood is pure set algebra over arcs: the next generation is
//! `next(v→w) = received(v) AND NOT active(w→v)` (the paper's local rule).
//! Nothing in that formula couples different floods — so up to [`LANES`]
//! **independent** floods, each with its own source set, can occupy the 64
//! bit *lanes* of a single `u64` per arc and advance together with word-wide
//! `AND`/`OR`/`ANDNOT`, in **one CSR pass per round**:
//!
//! * `cur[a]` — the lane mask of floods whose message arc `a` carries this
//!   round (one word per arc, touched sparsely via an explicit active list);
//! * `recv[v] = OR over in-arcs a of cur[a]` — the lanes in which node `v`
//!   receives this round;
//! * `next[v→w] = recv[v] & !cur[w→v]` — the amnesiac rule, all lanes at
//!   once.
//!
//! Bit `l` of every word evolves *exactly* as [`crate::FrontierFlooding`]'s
//! active set for flood `l` (the differential suites pin this lane for
//! lane), so per-lane receive rounds, message counts and termination rounds
//! are bit-identical to a sequential run — but arcs shared by several
//! frontiers are paid for **once**, and per-round bookkeeping is amortized
//! over the whole batch. Rounds where the union wavefront covers a large
//! fraction of the arcs drop the active list and stream the whole word
//! array sequentially instead (see `DENSE_ACTIVITY_DIVISOR` — the
//! sparse/dense switch of direction-optimizing BFS, applied to lane
//! words). Finished lanes simply vanish from the words
//! ([`BitLaneFlooding::live_lanes`] tracks them), so a batch mixing a
//! 3-round bipartite lane with a `2D + 1`-round lane costs nothing extra
//! for the early finisher.
//!
//! This is the engine behind [`crate::FloodBatch::run_many`], which chunks
//! an arbitrary flood list into groups of up to 64 lanes — the raw-speed
//! substrate for whole-graph `T(s)` sweeps and set-eccentricity scans.

use crate::obs::{FloodEnd, FloodStart, RoundNote, RoundRecord, SharedProbe};
use af_engine::Outcome;
use af_graph::{ArcId, Graph, NodeId};

/// Maximum number of floods one [`BitLaneFlooding`] advances at once: the
/// bit width of the per-arc state word.
pub const LANES: usize = 64;

/// Rounds whose active list reaches `arc_count / DENSE_ACTIVITY_DIVISOR`
/// entries run in *dense* mode: instead of walking the sparse list (whose
/// per-entry cost is dominated by scattered reads into the `2m`-word
/// state array once it outgrows cache), the round streams the whole arc
/// array sequentially — delivery is one linear sweep, and emission walks
/// edge *pairs* (`reversed()` is `index ^ 1`, so both directions of an
/// edge share a cache line). Same rule, same words, bit-identical
/// results; only the iteration order changes. Low-activity rounds (narrow
/// wavefronts, long-diameter graphs) keep the sparse path. The divisor
/// sits at the measured break-even: a dense round's fixed cost (two
/// linear sweeps of the arc array) matches a sparse round walking about
/// 1/16 of the arcs through scattered reads.
const DENSE_ACTIVITY_DIVISOR: usize = 16;

/// Sentinel in the per-lane termination table: lane still live.
const UNFINISHED: u32 = u32::MAX;

/// Bit-parallel amnesiac-flooding simulator: up to [`LANES`] independent
/// floods in the bit lanes of one `u64` per arc.
///
/// Construction and [`BitLaneFlooding::reset`] take one source set **per
/// lane**; every per-lane record ([`lane_outcome`](Self::lane_outcome),
/// [`lane_messages`](Self::lane_messages),
/// [`lane_receipts`](Self::lane_receipts)) is bit-identical to running
/// [`crate::FrontierFlooding`] on that lane's set alone.
///
/// # Examples
///
/// ```
/// use af_core::BitLaneFlooding;
/// use af_graph::{generators, NodeId};
///
/// // Two lanes on C6: lane 0 floods from node 0, lane 1 from {0, 3}.
/// let g = generators::cycle(6);
/// let mut sim = BitLaneFlooding::new(
///     &g,
///     [vec![NodeId::new(0)], vec![NodeId::new(0), NodeId::new(3)]],
/// );
/// let outcome = sim.run(100);
/// assert!(outcome.is_terminated());
/// assert_eq!(sim.lane_outcome(0).termination_round(), Some(3)); // D = 3
/// assert_eq!(sim.lane_outcome(1).termination_round(), Some(3)); // bichromatic set
/// assert_eq!(sim.lane_messages(0), 6); // = m on a bipartite graph
/// ```
#[derive(Debug, Clone)]
pub struct BitLaneFlooding<'g> {
    graph: &'g Graph,
    /// Lane mask per arc (indexed by arc index): bit `l` set iff arc
    /// carries lane `l`'s message this round. Dense storage; sparse
    /// rounds touch only the active list's arcs, dense rounds sweep the
    /// whole array sequentially.
    cur: Vec<u64>,
    /// The nonzero-word arcs as explicit `(arc, word)` pairs; `word` is a
    /// snapshot of `cur[arc]` so the hot loop never re-reads the dense
    /// array for its own generation. Only materialized while
    /// `active_listed` — dense rounds track just the count and rebuild
    /// the list on the next dense→sparse transition.
    active: Vec<(ArcId, u64)>,
    /// Number of arcs currently carrying any lane's message (`==
    /// active.len()` whenever `active_listed`).
    active_count: usize,
    /// Whether `active` is materialized and in sync with `cur`. Sparse
    /// rounds keep it true; dense rounds clear it (they sweep `cur`
    /// directly and only count).
    active_listed: bool,
    /// Scratch list for the next generation.
    next: Vec<(ArcId, u64)>,
    /// Whether `active` and `next` have traded buffers an odd number of
    /// times since the last reset. [`BitLaneFlooding::reset`] trades them
    /// back, so every run starts on the same buffer in the same role and
    /// a repeated batch finds each one already grown to what it needs.
    swapped: bool,
    /// Per-node lane mask accumulated during delivery; all-zero between
    /// rounds (doubles as the dedup flag for `receivers`).
    recv: Vec<u64>,
    /// Nodes that received (in any lane) in the round being executed.
    receivers: Vec<NodeId>,
    lane_count: usize,
    /// Lanes with at least one active arc.
    live: u64,
    round: u32,
    /// Per-lane termination round ([`UNFINISHED`] while live).
    term: [u32; LANES],
    /// Per-lane delivered-message totals, bit-sliced: bit `l` of
    /// `message_planes[i]` is bit `i` of lane `l`'s count. Adding a
    /// delivered word is an amortized-O(1) carry-save ripple over the
    /// planes instead of a loop over the word's set bits;
    /// [`Self::lane_messages`] reassembles the integer on demand.
    message_planes: [u64; LANES],
    total_messages: u64,
    messages_per_round: Vec<u64>,
    record_receipts: bool,
    /// Per-node `(round, lane mask)` receipt pairs: node received in round
    /// `r` in exactly the lanes of the mask. Empty until the first
    /// recorded receipt, so a simulator with receipts off never pays for
    /// the per-node table.
    receipts: Vec<Vec<(u32, u64)>>,
    /// Nodes with non-empty `receipts`, for sparse reset.
    informed: Vec<NodeId>,
    /// Round-level observer (shared by clones); `None` costs one predicted
    /// branch per round and nothing else. Records report **union**
    /// dynamics across lanes; the note says which kernel the round ran.
    probe: Option<SharedProbe>,
}

impl<'g> BitLaneFlooding<'g> {
    /// Creates a simulator with one initiator set per lane (at most
    /// [`LANES`] of them); lane `l`'s initiators' sends are lane `l`'s
    /// round-1 traffic. Duplicate initiators within a lane are collapsed.
    /// A lane whose set is empty terminates at round 0.
    ///
    /// # Panics
    ///
    /// Panics if more than [`LANES`] lanes are given or an initiator is
    /// out of range.
    pub fn new<I>(graph: &'g Graph, lane_sources: I) -> Self
    where
        I: IntoIterator,
        I::Item: IntoIterator<Item = NodeId>,
    {
        let n = graph.node_count();
        let mut sim = BitLaneFlooding {
            graph,
            cur: vec![0; graph.arc_count()],
            active: Vec::new(),
            active_count: 0,
            active_listed: true,
            next: Vec::new(),
            swapped: false,
            recv: vec![0; n],
            receivers: Vec::new(),
            lane_count: 0,
            live: 0,
            round: 0,
            term: [UNFINISHED; LANES],
            message_planes: [0; LANES],
            total_messages: 0,
            messages_per_round: Vec::new(),
            record_receipts: true,
            receipts: Vec::new(),
            informed: Vec::new(),
            probe: None,
        };
        sim.seed_lanes(lane_sources);
        sim
    }

    /// Restores the simulator to round 0 with fresh lane source sets,
    /// **reusing every allocation**. Costs time proportional to the state
    /// the previous batch touched, not to the graph.
    ///
    /// # Panics
    ///
    /// Panics if more than [`LANES`] lanes are given or an initiator is
    /// out of range.
    pub fn reset<I>(&mut self, lane_sources: I)
    where
        I: IntoIterator,
        I::Item: IntoIterator<Item = NodeId>,
    {
        if self.active_listed {
            for &(a, _) in &self.active {
                self.cur[a.index()] = 0;
            }
        } else {
            // Dense rounds stopped maintaining the list; the sweep
            // touched (and the next one would overwrite) the whole
            // array, so clear it wholesale.
            self.cur.fill(0);
        }
        if self.swapped {
            core::mem::swap(&mut self.active, &mut self.next);
            self.swapped = false;
        }
        self.active.clear();
        self.active_listed = true;
        self.active_count = 0;
        self.next.clear();
        self.receivers.clear();
        self.round = 0;
        self.live = 0;
        self.term = [UNFINISHED; LANES];
        self.message_planes = [0; LANES];
        self.total_messages = 0;
        self.messages_per_round.clear();
        for &v in &self.informed {
            self.receipts[v.index()].clear();
        }
        self.informed.clear();
        self.seed_lanes(lane_sources);
    }

    /// ORs each lane's round-1 arcs into the state words and rebuilds the
    /// active list (an arc is listed once however many lanes seed it).
    fn seed_lanes<I>(&mut self, lane_sources: I)
    where
        I: IntoIterator,
        I::Item: IntoIterator<Item = NodeId>,
    {
        let n = self.graph.node_count();
        let probing = self.probe.is_some();
        let mut lane = 0usize;
        for set in lane_sources {
            assert!(lane < LANES, "at most {LANES} lanes per batch");
            let bit = 1u64 << lane;
            for v in set {
                assert!(v.index() < n, "source {v} out of range");
                if probing {
                    // Scratch-collect all lanes' sources for the probe
                    // announcement (union view, like every other record
                    // this engine reports).
                    self.receivers.push(v);
                }
                for (_, out) in self.graph.incident_arcs(v) {
                    let w = &mut self.cur[out.index()];
                    if *w == 0 {
                        self.active.push((out, 0));
                    }
                    *w |= bit;
                }
            }
            lane += 1;
        }
        if let Some(probe) = &self.probe {
            probe.borrow_mut().flood_started(&FloodStart {
                engine: "bitlane",
                nodes: n,
                sources: &self.receivers,
            });
            self.receivers.clear();
        }
        self.lane_count = lane;
        // Snapshot the final words (several lanes may share an arc) and
        // derive the live mask.
        for entry in &mut self.active {
            entry.1 = self.cur[entry.0.index()];
            self.live |= entry.1;
        }
        self.active_count = self.active.len();
        // Lanes that seeded no arc (empty set, isolated sources) are
        // terminated floods of round 0.
        for l in 0..lane {
            if self.live >> l & 1 == 0 {
                self.term[l] = 0;
            }
        }
    }

    /// Enables or disables per-node receipt recording (enabled by
    /// default). Disable for raw benchmark speed; [`crate::FloodBatch`]
    /// does.
    pub fn set_record_receipts(&mut self, record: bool) {
        self.record_receipts = record;
    }

    /// Attaches (or with `None`, detaches) a round-level observer. Records
    /// describe the **union** wavefront across all lanes — delivered
    /// message counts sum over lanes, receivers are nodes reached in any
    /// lane — and each round's note says which kernel executed it
    /// ([`RoundNote::DenseSweep`] or [`RoundNote::SparseWalk`]).
    pub fn set_probe(&mut self, probe: Option<SharedProbe>) {
        self.probe = probe;
    }

    /// The graph being simulated.
    #[must_use]
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// Number of lanes seeded by the last construction/reset.
    #[must_use]
    pub fn lane_count(&self) -> usize {
        self.lane_count
    }

    /// Mask of lanes that still have an arc in flight.
    #[must_use]
    pub fn live_lanes(&self) -> u64 {
        self.live
    }

    /// Rounds executed so far (since construction or the last reset).
    #[must_use]
    pub fn round(&self) -> u32 {
        self.round
    }

    /// Returns `true` if no arc carries any lane's message.
    #[must_use]
    pub fn is_terminated(&self) -> bool {
        self.active_count == 0
    }

    /// Total messages delivered so far, summed over all lanes.
    #[must_use]
    pub fn total_messages(&self) -> u64 {
        self.total_messages
    }

    /// All-lane messages delivered in each executed round (index 0 =
    /// round 1).
    #[must_use]
    pub fn messages_per_round(&self) -> &[u64] {
        &self.messages_per_round
    }

    /// Messages delivered by lane `lane`'s flood so far.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is not a seeded lane.
    #[must_use]
    pub fn lane_messages(&self, lane: usize) -> u64 {
        assert!(lane < self.lane_count, "lane {lane} not seeded");
        self.message_planes
            .iter()
            .enumerate()
            .map(|(i, &plane)| (plane >> lane & 1) << i)
            .sum()
    }

    /// Adds one delivered word to the bit-sliced per-lane message
    /// counters: a half-adder ripple whose carry word empties after
    /// amortized O(1) planes (a binary counter incremented per lane).
    #[inline]
    fn add_message_word(planes: &mut [u64; LANES], mut w: u64) {
        for plane in planes.iter_mut() {
            if w == 0 {
                break;
            }
            let carry = *plane & w;
            *plane ^= w;
            w = carry;
        }
        debug_assert_eq!(w, 0, "per-lane message counter overflow");
    }

    /// Lane `lane`'s flood outcome: terminated with its own last active
    /// round, or cap-reached at the batch's executed round count if the
    /// lane was still live when the driver stopped stepping.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is not a seeded lane.
    #[must_use]
    pub fn lane_outcome(&self, lane: usize) -> Outcome {
        assert!(lane < self.lane_count, "lane {lane} not seeded");
        match self.term[lane] {
            UNFINISHED => Outcome::CapReached {
                rounds_executed: self.round,
            },
            t => Outcome::Terminated {
                last_active_round: t,
            },
        }
    }

    /// The raw `(round, lane mask)` receipt pairs of node `v`, in round
    /// order: `v` received in that round in exactly the lanes of the mask.
    /// Empty if receipts are not recorded.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[must_use]
    pub fn receipt_masks(&self, v: NodeId) -> &[(u32, u64)] {
        assert!(v.index() < self.graph.node_count(), "node {v} out of range");
        self.receipts.get(v.index()).map_or(&[], Vec::as_slice)
    }

    /// Rounds at which `v` received lane `lane`'s message, in increasing
    /// order (the per-lane view of [`BitLaneFlooding::receipt_masks`]).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range or `lane` is not a seeded lane.
    #[must_use]
    pub fn lane_receipts(&self, v: NodeId, lane: usize) -> Vec<u32> {
        assert!(lane < self.lane_count, "lane {lane} not seeded");
        self.receipt_masks(v)
            .iter()
            .filter(|&&(_, mask)| mask >> lane & 1 == 1)
            .map(|&(r, _)| r)
            .collect()
    }

    /// Number of nodes that have received any lane's message at least
    /// once, when receipts are recorded (always 0 otherwise).
    #[must_use]
    pub fn informed_count(&self) -> usize {
        self.informed.len()
    }

    /// Executes one round for every live lane; returns the round number,
    /// or `None` if all lanes have terminated.
    ///
    /// Rounds dispatch between two bit-identical implementations of the
    /// same word-wide rule (see `DENSE_ACTIVITY_DIVISOR`): a sparse
    /// active-list walk when few arcs carry messages, and a sequential
    /// whole-array sweep when the union wavefront is wide.
    pub fn step(&mut self) -> Option<u32> {
        if self.active_count == 0 {
            return None;
        }
        self.round += 1;
        let round = self.round;
        if let Some(probe) = &self.probe {
            probe.borrow_mut().round_started(round);
        }
        let dense = self.active_count >= self.cur.len() / DENSE_ACTIVITY_DIVISOR;
        let live_next = if dense {
            self.step_dense(round)
        } else {
            if !self.active_listed {
                self.relist_active();
            }
            self.step_sparse(round)
        };

        // Lanes silent for the first time terminated in this round (a dead
        // lane can never resurrect: `recv` only draws from `cur`).
        let mut died = self.live & !live_next;
        while died != 0 {
            self.term[died.trailing_zeros() as usize] = round;
            died &= died - 1;
        }
        self.live = live_next;
        if let Some(probe) = &self.probe {
            probe.borrow_mut().round_finished(&RoundRecord {
                round,
                delivered: *self.messages_per_round.last().unwrap_or(&0),
                frontier: self.receivers.len(),
                sent: self.active_count as u64,
                lost: 0,
                receivers: &self.receivers,
                note: if dense {
                    RoundNote::DenseSweep
                } else {
                    RoundNote::SparseWalk
                },
            });
        }
        Some(round)
    }

    /// Sparse round: touch only the arcs on the active list. Returns the
    /// mask of lanes still live after the round.
    fn step_sparse(&mut self, round: u32) -> u64 {
        // Delivery: one pass over the active arcs accumulates each head's
        // lane mask and the per-lane message counts.
        self.receivers.clear();
        let mut delivered = 0u64;
        for i in 0..self.active.len() {
            let (a, w) = self.active[i];
            let head = self.graph.arc_head(a);
            if self.recv[head.index()] == 0 {
                self.receivers.push(head);
            }
            self.recv[head.index()] |= w;
            delivered += u64::from(w.count_ones());
            Self::add_message_word(&mut self.message_planes, w);
        }
        self.total_messages += delivered;
        self.messages_per_round.push(delivered);

        // Emission: the amnesiac rule for all lanes at once. Distinct
        // receivers emit distinct out-arcs, so `next` needs no dedup.
        self.next.clear();
        let mut live_next = 0u64;
        self.reserve_receipts();
        for i in 0..self.receivers.len() {
            let v = self.receivers[i];
            let mask = self.recv[v.index()];
            if self.record_receipts {
                if self.receipts[v.index()].is_empty() {
                    self.informed.push(v);
                }
                self.receipts[v.index()].push((round, mask));
            }
            for (_, out) in self.graph.incident_arcs(v) {
                let nw = mask & !self.cur[out.reversed().index()];
                if nw != 0 {
                    self.next.push((out, nw));
                    live_next |= nw;
                }
            }
        }

        // Swap generations with sparse word updates, and zero the per-node
        // scratch masks for the next round.
        for &(a, _) in &self.active {
            self.cur[a.index()] = 0;
        }
        for &(a, w) in &self.next {
            self.cur[a.index()] = w;
        }
        core::mem::swap(&mut self.active, &mut self.next);
        self.swapped = !self.swapped;
        self.active_count = self.active.len();
        for &v in &self.receivers {
            self.recv[v.index()] = 0;
        }
        live_next
    }

    /// Rebuilds the sparse active list from `cur` after a run of dense
    /// rounds (which only count): one sequential scan, paid once per
    /// dense→sparse transition.
    fn relist_active(&mut self) {
        self.active.clear();
        for idx in 0..self.cur.len() {
            let w = self.cur[idx];
            if w != 0 {
                self.active.push((ArcId::from_index(idx), w));
            }
        }
        self.active_listed = true;
        debug_assert_eq!(self.active.len(), self.active_count);
    }

    /// Dense round: stream the whole arc array instead of walking the
    /// active list. Observable state afterwards (words, active list,
    /// receipts, counters) is identical to what [`Self::step_sparse`]
    /// would have produced — only the memory access order differs.
    fn step_dense(&mut self, round: u32) -> u64 {
        // Arc `2e` runs edge `e` forward (`u → v`) and its reverse
        // `2e + 1` runs it backward ([`ArcId::reversed`] is `index ^ 1`),
        // so one sequential walk of the edge list alongside the word
        // pairs gives every arc's head without a per-arc table.
        let graph = self.graph;

        // Delivery: a single sequential sweep over every arc word.
        self.receivers.clear();
        let mut delivered = 0u64;
        for (pair, (u, v)) in self.cur.chunks_exact(2).zip(graph.edge_list()) {
            for (w, head) in [(pair[0], v), (pair[1], u)] {
                if w == 0 {
                    continue;
                }
                if self.recv[head.index()] == 0 {
                    self.receivers.push(head);
                }
                self.recv[head.index()] |= w;
                delivered += u64::from(w.count_ones());
                Self::add_message_word(&mut self.message_planes, w);
            }
        }
        self.total_messages += delivered;
        self.messages_per_round.push(delivered);

        if self.record_receipts {
            self.reserve_receipts();
            for i in 0..self.receivers.len() {
                let v = self.receivers[i];
                if self.receipts[v.index()].is_empty() {
                    self.informed.push(v);
                }
                let mask = self.recv[v.index()];
                self.receipts[v.index()].push((round, mask));
            }
        }

        // Emission, in place, one edge pair at a time:
        // `next[u→v] = recv[u] & !cur[v→u]` and its mirror read only the
        // pair's own two words and `recv` (fixed for the whole sweep), so
        // overwriting the pair right after reading it is the same rule —
        // no second word array. Only the `recv` lookups (a node-indexed
        // array, not the big arc array) are scattered. Nodes that received
        // nothing have `recv == 0` and emit nothing, so sweeping every
        // edge is the same rule. The sparse list is *not* materialized —
        // a dense successor round never reads it, so only the count is
        // kept (`relist_active` rebuilds the list if a sparse round
        // follows).
        let mut live_next = 0u64;
        let mut count = 0usize;
        for (pair, (u, v)) in self.cur.chunks_exact_mut(2).zip(graph.edge_list()) {
            let next_forward = self.recv[u.index()] & !pair[1];
            let next_backward = self.recv[v.index()] & !pair[0];
            pair[0] = next_forward;
            pair[1] = next_backward;
            live_next |= next_forward | next_backward;
            count += usize::from(next_forward != 0) + usize::from(next_backward != 0);
        }
        self.active.clear();
        self.active_listed = false;
        self.active_count = count;
        for &v in &self.receivers {
            self.recv[v.index()] = 0;
        }
        live_next
    }

    /// Sizes the per-node receipt table on the first recorded receipt.
    fn reserve_receipts(&mut self) {
        if self.record_receipts && self.receipts.is_empty() {
            self.receipts.resize_with(self.graph.node_count(), Vec::new);
        }
    }

    /// Runs until every lane terminates or `max_rounds`; the returned
    /// all-lane outcome's termination round is the **maximum** over the
    /// per-lane rounds (see [`BitLaneFlooding::lane_outcome`]).
    pub fn run(&mut self, max_rounds: u32) -> Outcome {
        let outcome = loop {
            if self.round >= max_rounds {
                break if self.active_count == 0 {
                    Outcome::Terminated {
                        last_active_round: self.round,
                    }
                } else {
                    Outcome::CapReached {
                        rounds_executed: self.round,
                    }
                };
            }
            if self.step().is_none() {
                break Outcome::Terminated {
                    last_active_round: self.round,
                };
            }
        };
        if let Some(probe) = &self.probe {
            probe.borrow_mut().flood_finished(&FloodEnd {
                terminated: outcome.is_terminated(),
                rounds: self.round,
                total_messages: self.total_messages,
            });
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontier::FrontierFlooding;
    use af_graph::generators;

    /// Every lane of a batch must match a standalone frontier flood of the
    /// same source set: outcome, message total, and per-node receipts.
    fn assert_lanes_match_frontier(g: &Graph, lane_sources: &[Vec<NodeId>]) {
        let cap = 2 * g.node_count() as u32 + 2;
        let mut batch = BitLaneFlooding::new(g, lane_sources.iter().map(|s| s.iter().copied()));
        batch.run(cap);
        assert_eq!(batch.lane_count(), lane_sources.len());
        for (lane, set) in lane_sources.iter().enumerate() {
            let mut solo = FrontierFlooding::new(g, set.iter().copied());
            let outcome = solo.run(cap);
            assert_eq!(batch.lane_outcome(lane), outcome, "lane {lane} outcome");
            assert_eq!(
                batch.lane_messages(lane),
                solo.total_messages(),
                "lane {lane} messages"
            );
            for v in g.nodes() {
                assert_eq!(
                    batch.lane_receipts(v, lane),
                    solo.receipts(v),
                    "lane {lane} receipts at {v}"
                );
            }
        }
    }

    #[test]
    fn single_lane_matches_frontier_on_named_topologies() {
        for (g, s) in [
            (generators::path(7), 0usize),
            (generators::cycle(3), 0),
            (generators::cycle(6), 2),
            (generators::petersen(), 0),
            (generators::grid(3, 4), 5),
            (generators::star(6), 3),
        ] {
            assert_lanes_match_frontier(&g, &[vec![NodeId::new(s)]]);
        }
    }

    #[test]
    fn full_64_lane_word_matches_frontier_lane_for_lane() {
        // 64 single-source lanes cycling over Petersen's 10 nodes, so many
        // lanes share every arc — the maximal-overlap case.
        let g = generators::petersen();
        let lanes: Vec<Vec<NodeId>> = (0..LANES)
            .map(|l| vec![NodeId::new(l % g.node_count())])
            .collect();
        assert_lanes_match_frontier(&g, &lanes);
    }

    #[test]
    fn mixed_set_sizes_share_a_word() {
        let g = generators::grid(4, 5);
        let lanes = vec![
            vec![NodeId::new(0)],
            vec![NodeId::new(3), NodeId::new(17)],
            vec![
                NodeId::new(8),
                NodeId::new(9),
                NodeId::new(10),
                NodeId::new(11),
            ],
        ];
        assert_lanes_match_frontier(&g, &lanes);
    }

    #[test]
    fn lanes_terminate_independently() {
        // Disconnected graph: a short path (bipartite, lane dies at
        // e(0) = 2) next to an odd 9-cycle (2D + 1 = 9): per-lane
        // termination rounds differ while the state words stay shared.
        let mut edges: Vec<(usize, usize)> = vec![(0, 1), (1, 2)];
        for i in 0..9 {
            edges.push((3 + i, 3 + (i + 1) % 9));
        }
        let g = Graph::from_edges(12, edges.iter().copied()).unwrap();
        let mut sim = BitLaneFlooding::new(&g, [[NodeId::new(0)], [NodeId::new(3)]]);
        assert_eq!(sim.live_lanes(), 0b11);
        let outcome = sim.run(100);
        assert!(outcome.is_terminated());
        assert_eq!(outcome.termination_round(), Some(9));
        assert_eq!(sim.lane_outcome(0).termination_round(), Some(2));
        assert_eq!(sim.lane_outcome(1).termination_round(), Some(9));
        assert_eq!(sim.live_lanes(), 0);
        assert_lanes_match_frontier(&g, &[vec![NodeId::new(0)], vec![NodeId::new(3)]]);
    }

    #[test]
    fn hybrid_sparse_and_dense_rounds_stay_lane_exact() {
        // Wavefronts on a sparse random graph start narrow and widen past
        // the dense-round threshold within a few hops, so one run crosses
        // between both step implementations. Record which mode each round
        // actually took (the same predicate `step` dispatches on), prove
        // both occurred, then pin the run lane-for-lane to frontier.
        let g = generators::sparse_connected(500, 700, 7);
        let lanes: Vec<Vec<NodeId>> = (0..9)
            .map(|l| vec![NodeId::new((l * 53) % g.node_count())])
            .collect();
        let mut sim = BitLaneFlooding::new(&g, lanes.iter().map(|s| s.iter().copied()));
        let (mut saw_sparse, mut saw_dense) = (false, false);
        while sim.active_count != 0 {
            if sim.active_count >= sim.cur.len() / DENSE_ACTIVITY_DIVISOR {
                saw_dense = true;
            } else {
                saw_sparse = true;
            }
            sim.step();
        }
        assert!(
            saw_sparse && saw_dense,
            "test graph must exercise both round modes (sparse: {saw_sparse}, dense: {saw_dense})"
        );
        assert_lanes_match_frontier(&g, &lanes);
    }

    #[test]
    fn empty_and_duplicate_lane_sources() {
        let g = generators::cycle(6);
        let mut sim =
            BitLaneFlooding::new(&g, [vec![], vec![NodeId::new(2), NodeId::new(2)], vec![]]);
        assert_eq!(sim.lane_count(), 3);
        assert_eq!(sim.live_lanes(), 0b010);
        let outcome = sim.run(100);
        assert!(outcome.is_terminated());
        assert_eq!(sim.lane_outcome(0).termination_round(), Some(0));
        assert_eq!(sim.lane_outcome(2).termination_round(), Some(0));
        assert_eq!(sim.lane_messages(0), 0);
        // Duplicates collapse exactly as in the frontier engine.
        let mut solo = FrontierFlooding::new(&g, [NodeId::new(2)]);
        solo.run(100);
        assert_eq!(sim.lane_messages(1), solo.total_messages());
    }

    #[test]
    fn cap_reports_per_lane() {
        // Lane 0 floods from every node at once (T = 1 on a bipartite
        // graph), lane 1 from an endpoint (T = e(0) = 11): cap the run so
        // only lane 0 has finished.
        let g = generators::path(12);
        let everyone: Vec<NodeId> = g.nodes().collect();
        let mut sim = BitLaneFlooding::new(&g, [everyone, vec![NodeId::new(0)]]);
        let outcome = sim.run(3);
        assert!(!outcome.is_terminated());
        assert_eq!(
            sim.lane_outcome(0),
            Outcome::Terminated {
                last_active_round: 1
            }
        );
        assert_eq!(
            sim.lane_outcome(1),
            Outcome::CapReached { rounds_executed: 3 }
        );
        assert_eq!(sim.live_lanes(), 0b10);
        // Running on to completion resolves the capped lane.
        let outcome = sim.run(100);
        assert!(outcome.is_terminated());
        assert_eq!(sim.lane_outcome(1).termination_round(), Some(11));
    }

    #[test]
    fn reset_reuses_state_cleanly() {
        let g = generators::petersen();
        let mut sim = BitLaneFlooding::new(&g, (0..17).map(|l| [NodeId::new(l % g.node_count())]));
        sim.run(100);
        // Reset to a different shape: 2 lanes, multi-source.
        sim.reset([vec![NodeId::new(1)], vec![NodeId::new(4), NodeId::new(9)]]);
        assert_eq!(sim.round(), 0);
        assert_eq!(sim.total_messages(), 0);
        assert_eq!(sim.lane_count(), 2);
        sim.run(100);
        let mut fresh = BitLaneFlooding::new(
            &g,
            [vec![NodeId::new(1)], vec![NodeId::new(4), NodeId::new(9)]],
        );
        fresh.run(100);
        for lane in 0..2 {
            assert_eq!(sim.lane_outcome(lane), fresh.lane_outcome(lane));
            assert_eq!(sim.lane_messages(lane), fresh.lane_messages(lane));
            for v in g.nodes() {
                assert_eq!(sim.lane_receipts(v, lane), fresh.lane_receipts(v, lane));
            }
        }
        // Reset mid-run (messages in flight) is also clean.
        sim.reset([[NodeId::new(3)]]);
        sim.step();
        sim.reset([[NodeId::new(5)]]);
        let mut fresh = BitLaneFlooding::new(&g, [[NodeId::new(5)]]);
        assert_eq!(sim.run(100), fresh.run(100));
        assert_eq!(sim.total_messages(), fresh.total_messages());
    }

    #[test]
    fn receipts_can_be_disabled() {
        let g = generators::cycle(6);
        let mut sim = BitLaneFlooding::new(&g, [[NodeId::new(0)]]);
        sim.set_record_receipts(false);
        sim.run(100);
        assert!(sim.receipt_masks(NodeId::new(1)).is_empty());
        assert_eq!(sim.informed_count(), 0);
        assert!(sim.total_messages() > 0);
    }

    #[test]
    #[should_panic(expected = "at most 64 lanes")]
    fn more_than_64_lanes_is_rejected() {
        let g = generators::cycle(5);
        let _ = BitLaneFlooding::new(&g, (0..65).map(|_| [NodeId::new(0)]));
    }

    #[test]
    fn zero_lanes_is_a_terminated_batch() {
        let g = generators::cycle(5);
        let mut sim = BitLaneFlooding::new(&g, core::iter::empty::<[NodeId; 1]>());
        assert_eq!(sim.lane_count(), 0);
        assert!(sim.is_terminated());
        assert_eq!(
            sim.run(10),
            Outcome::Terminated {
                last_active_round: 0
            }
        );
    }
}
