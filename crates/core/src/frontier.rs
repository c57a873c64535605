//! The frontier-sparse amnesiac-flooding engine.
//!
//! The paper's bounds make the *intrinsic* work of one flood `O(m)`: each
//! arc activates at most twice (Lemma 2.1 / Theorem 3.3), so a terminating
//! flood delivers at most `2m` messages in total, however many rounds it
//! takes. A simulator that scans all `2m` arc slots every round (such as
//! [`crate::FastFlooding`]) instead pays `O(m · T)` — wasteful exactly on
//! the high-diameter graphs where `T` is large.
//!
//! [`FrontierFlooding`] keeps the same arc-bitset *state* but drives each
//! round from an explicit **frontier**: the list of arcs carrying the
//! message this round, and from it the list of nodes that just received.
//! One round costs `O(Σ_{v ∈ frontier} deg(v))`:
//!
//! 1. walk the active-arc list, collecting each arc's head once (the
//!    frontier of receivers);
//! 2. for each receiver `v`, emit every out-arc `v → w` whose reverse
//!    `w → v` is not in the current bitset (the amnesiac rule), using
//!    [`af_graph::Graph::incident_arcs`] so no per-neighbour binary search
//!    is needed;
//! 3. clear the old generation's bits *sparsely* (only the arcs that were
//!    set) and set the new generation's bits.
//!
//! Nothing is ever scanned proportionally to the graph size inside a round,
//! and [`FrontierFlooding::reset`] restores a finished simulator to a fresh
//! flood in time proportional to the state it actually touched — the basis
//! of the batched multi-source runner [`crate::FloodBatch`], which floods
//! from many sources of one graph without reallocating.

use crate::bitset::ArcSet;
use crate::obs::{FloodEnd, FloodStart, RoundNote, RoundRecord, SharedProbe};
use af_engine::Outcome;
use af_graph::{ArcId, Graph, NodeId};

/// Frontier-driven amnesiac-flooding simulator.
///
/// Semantically identical to [`crate::FastFlooding`] (the test suites
/// cross-check the two, plus [`af_engine::SyncEngine`] and the
/// [`crate::theory`] oracle, round for round) but does `O(active arcs)`
/// work per round instead of scanning the whole arc bitset.
///
/// # Examples
///
/// ```
/// use af_core::FrontierFlooding;
/// use af_graph::{generators, NodeId};
///
/// let g = generators::cycle(3); // Figure 2
/// let mut sim = FrontierFlooding::new(&g, [NodeId::new(1)]);
/// let outcome = sim.run(100);
/// assert_eq!(outcome.termination_round(), Some(3));
/// assert_eq!(sim.total_messages(), 6); // = 2m on a non-bipartite graph
///
/// // Reuse the allocations for a flood from another source.
/// sim.reset([NodeId::new(0)]);
/// assert_eq!(sim.run(100).termination_round(), Some(3));
/// ```
#[derive(Debug, Clone)]
pub struct FrontierFlooding<'g> {
    graph: &'g Graph,
    /// Membership bitset of the arcs carrying the message this round.
    active: ArcSet,
    /// The same arcs as an explicit list (no duplicates).
    active_list: Vec<ArcId>,
    /// Scratch list for the next generation of arcs.
    next_list: Vec<ArcId>,
    /// Per-node scratch flag: did `v` receive this round / is it a seen
    /// source during seeding? Always all-false between rounds.
    received: Vec<bool>,
    /// The frontier: nodes that received in the round being executed.
    receivers: Vec<NodeId>,
    round: u32,
    total_messages: u64,
    messages_per_round: Vec<u64>,
    record_receipts: bool,
    /// Per-node receive rounds. Empty until the first recorded receipt,
    /// so a simulator with receipts off never pays for the per-node table.
    receipts: Vec<Vec<u32>>,
    /// Nodes with non-empty `receipts`, so [`FrontierFlooding::reset`] can
    /// clear them without an `O(n)` sweep.
    informed: Vec<NodeId>,
    /// Round-level observer (shared by clones); `None` costs one predicted
    /// branch per round and nothing else.
    probe: Option<SharedProbe>,
}

impl<'g> FrontierFlooding<'g> {
    /// Creates a simulator with the given initiator set; the initiators'
    /// sends are the round-1 traffic. Duplicate initiators are collapsed.
    ///
    /// # Panics
    ///
    /// Panics if an initiator is out of range.
    pub fn new<I>(graph: &'g Graph, sources: I) -> Self
    where
        I: IntoIterator<Item = NodeId>,
    {
        let n = graph.node_count();
        let mut sim = FrontierFlooding {
            graph,
            active: ArcSet::new(graph.arc_count()),
            active_list: Vec::new(),
            next_list: Vec::new(),
            received: vec![false; n],
            receivers: Vec::new(),
            round: 0,
            total_messages: 0,
            messages_per_round: Vec::new(),
            record_receipts: true,
            receipts: Vec::new(),
            informed: Vec::new(),
            probe: None,
        };
        sim.seed_sources(sources);
        sim
    }

    /// Creates a simulator from an **arbitrary arc configuration**: the
    /// given arcs carry the message in round 1 (see [`crate::arbitrary`]).
    /// Duplicate arcs are collapsed.
    ///
    /// # Panics
    ///
    /// Panics if an arc index is out of range for the graph.
    pub fn from_arcs<I>(graph: &'g Graph, arcs: I) -> Self
    where
        I: IntoIterator<Item = ArcId>,
    {
        let mut sim = FrontierFlooding::new(graph, []);
        for a in arcs {
            assert!(a.index() < graph.arc_count(), "arc {a} out of range");
            if !sim.active.contains(a) {
                sim.active.insert(a);
                sim.active_list.push(a);
            }
        }
        sim
    }

    /// Restores the simulator to round 0 with a fresh initiator set,
    /// **reusing every allocation**. Costs time proportional to the state
    /// the previous flood touched, not to the graph.
    ///
    /// # Panics
    ///
    /// Panics if an initiator is out of range.
    pub fn reset<I>(&mut self, sources: I)
    where
        I: IntoIterator<Item = NodeId>,
    {
        for &a in &self.active_list {
            self.active.remove(a);
        }
        // Every round trades the two lists' buffers; trade them back after
        // an odd count, so every flood starts on the same buffer in the
        // same role and a repeated flood finds each one already grown.
        if self.round % 2 == 1 {
            core::mem::swap(&mut self.active_list, &mut self.next_list);
        }
        self.active_list.clear();
        self.next_list.clear();
        self.receivers.clear();
        self.round = 0;
        self.total_messages = 0;
        self.messages_per_round.clear();
        for &v in &self.informed {
            self.receipts[v.index()].clear();
        }
        self.informed.clear();
        self.seed_sources(sources);
    }

    /// Inserts the round-1 arcs of `sources`, deduplicating via the
    /// (invariant: all-false) `received` scratch flags.
    fn seed_sources<I>(&mut self, sources: I)
    where
        I: IntoIterator<Item = NodeId>,
    {
        let n = self.graph.node_count();
        debug_assert!(self.receivers.is_empty());
        for v in sources {
            assert!(v.index() < n, "source {v} out of range");
            if !self.received[v.index()] {
                self.received[v.index()] = true;
                self.receivers.push(v);
            }
        }
        for i in 0..self.receivers.len() {
            let v = self.receivers[i];
            self.received[v.index()] = false;
            for (_, out) in self.graph.incident_arcs(v) {
                self.active.insert(out);
                self.active_list.push(out);
            }
        }
        if let Some(probe) = &self.probe {
            probe.borrow_mut().flood_started(&FloodStart {
                engine: "frontier",
                nodes: n,
                sources: &self.receivers,
            });
        }
        self.receivers.clear();
    }

    /// Enables or disables per-node receipt recording (enabled by default).
    /// Disable for raw benchmark speed; [`crate::FloodBatch`] does.
    pub fn set_record_receipts(&mut self, record: bool) {
        self.record_receipts = record;
    }

    /// Attaches (or with `None` detaches) a round-level observer; see
    /// [`crate::obs`]. The next [`FrontierFlooding::reset`] announces the
    /// flood to it.
    pub fn set_probe(&mut self, probe: Option<SharedProbe>) {
        self.probe = probe;
    }

    /// The graph being simulated.
    #[must_use]
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// Rounds executed so far (since construction or the last reset).
    #[must_use]
    pub fn round(&self) -> u32 {
        self.round
    }

    /// Returns `true` if no arc carries the message.
    #[must_use]
    pub fn is_terminated(&self) -> bool {
        self.active_list.is_empty()
    }

    /// Total messages delivered so far.
    #[must_use]
    pub fn total_messages(&self) -> u64 {
        self.total_messages
    }

    /// Messages delivered in each executed round (index 0 = round 1).
    #[must_use]
    pub fn messages_per_round(&self) -> &[u64] {
        &self.messages_per_round
    }

    /// The arcs that will carry the message in the next round, in
    /// increasing arc order.
    #[must_use]
    pub fn in_flight(&self) -> Vec<ArcId> {
        let mut arcs = self.active_list.clone();
        arcs.sort_unstable();
        arcs
    }

    /// Rounds at which `v` received the message (empty if receipts are not
    /// recorded).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[must_use]
    pub fn receipts(&self, v: NodeId) -> &[u32] {
        assert!(v.index() < self.graph.node_count(), "node {v} out of range");
        self.receipts.get(v.index()).map_or(&[], Vec::as_slice)
    }

    /// Number of nodes that have received the message at least once, when
    /// receipts are recorded (always 0 otherwise).
    #[must_use]
    pub fn informed_count(&self) -> usize {
        self.informed.len()
    }

    /// Executes one round; returns the round number, or `None` if already
    /// terminated.
    pub fn step(&mut self) -> Option<u32> {
        if self.active_list.is_empty() {
            return None;
        }
        self.round += 1;
        let round = self.round;
        if let Some(probe) = &self.probe {
            probe.borrow_mut().round_started(round);
        }
        let delivered = self.active_list.len() as u64;
        self.total_messages += delivered;
        self.messages_per_round.push(delivered);

        // The frontier: each active arc's head, once.
        self.receivers.clear();
        for i in 0..self.active_list.len() {
            let head = self.graph.arc_head(self.active_list[i]);
            if !self.received[head.index()] {
                self.received[head.index()] = true;
                self.receivers.push(head);
            }
        }

        // Local rule: v→w active next iff v received and w→v not active.
        // Distinct receivers emit distinct out-arcs, so `next_list` needs
        // no dedup.
        self.next_list.clear();
        if self.record_receipts && self.receipts.is_empty() {
            // First recorded receipt: size the per-node table.
            self.receipts.resize_with(self.graph.node_count(), Vec::new);
        }
        for i in 0..self.receivers.len() {
            let v = self.receivers[i];
            if self.record_receipts {
                if self.receipts[v.index()].is_empty() {
                    self.informed.push(v);
                }
                self.receipts[v.index()].push(round);
            }
            for (_, out) in self.graph.incident_arcs(v) {
                if !self.active.contains(out.reversed()) {
                    self.next_list.push(out);
                }
            }
        }

        // Swap generations with sparse bitset updates: clear exactly the
        // old arcs, set exactly the new ones.
        for &a in &self.active_list {
            self.active.remove(a);
        }
        for &a in &self.next_list {
            self.active.insert(a);
        }
        core::mem::swap(&mut self.active_list, &mut self.next_list);
        for &v in &self.receivers {
            self.received[v.index()] = false;
        }
        if let Some(probe) = &self.probe {
            probe.borrow_mut().round_finished(&RoundRecord {
                round,
                delivered,
                frontier: self.receivers.len(),
                sent: self.active_list.len() as u64,
                lost: 0,
                receivers: &self.receivers,
                note: RoundNote::None,
            });
        }
        Some(round)
    }

    /// Runs until termination or `max_rounds`.
    pub fn run(&mut self, max_rounds: u32) -> Outcome {
        let outcome = loop {
            if self.round >= max_rounds {
                break if self.active_list.is_empty() {
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
                terminated: self.active_list.is_empty(),
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
    use crate::fast::FastFlooding;
    use crate::protocol::AmnesiacFloodingProtocol;
    use af_engine::SyncEngine;
    use af_graph::generators;

    /// Lock-step three-way agreement: frontier vs scan-based vs generic.
    fn cross_check(g: &Graph, sources: &[NodeId]) {
        let mut frontier = FrontierFlooding::new(g, sources.iter().copied());
        let mut fast = FastFlooding::new(g, sources.iter().copied());
        let mut engine = SyncEngine::new(g, AmnesiacFloodingProtocol, sources.iter().copied());
        loop {
            assert_eq!(
                frontier.in_flight(),
                fast.in_flight(),
                "round {}",
                frontier.round()
            );
            assert_eq!(
                frontier.in_flight().as_slice(),
                engine.in_flight(),
                "round {}",
                frontier.round()
            );
            let a = frontier.step();
            let b = fast.step();
            let c = engine.step();
            assert_eq!(a, b);
            assert_eq!(a, c);
            if a.is_none() {
                break;
            }
            assert!(frontier.round() < 1000, "runaway");
        }
        assert_eq!(frontier.total_messages(), fast.total_messages());
        assert_eq!(frontier.total_messages(), engine.total_messages());
        assert_eq!(frontier.messages_per_round(), fast.messages_per_round());
        for v in g.nodes() {
            assert_eq!(frontier.receipts(v), fast.receipts(v), "node {v}");
            assert_eq!(frontier.receipts(v), engine.receipts(v), "node {v}");
        }
    }

    #[test]
    fn matches_both_engines_on_named_topologies() {
        for (g, s) in [
            (generators::path(7), 0usize),
            (generators::path(7), 3),
            (generators::cycle(3), 0),
            (generators::cycle(6), 2),
            (generators::cycle(9), 4),
            (generators::complete(6), 1),
            (generators::petersen(), 0),
            (generators::wheel(5), 2),
            (generators::barbell(4), 0),
            (generators::grid(3, 4), 5),
            (generators::hypercube(4), 9),
            (generators::star(6), 0),
            (generators::star(6), 3),
        ] {
            cross_check(&g, &[NodeId::new(s)]);
        }
    }

    #[test]
    fn matches_both_engines_multi_source() {
        let g = generators::cycle(8);
        cross_check(&g, &[NodeId::new(0), NodeId::new(3)]);
        let g = generators::petersen();
        cross_check(&g, &[NodeId::new(0), NodeId::new(7), NodeId::new(9)]);
        let g = generators::path(4);
        cross_check(&g, &[NodeId::new(0), NodeId::new(3)]);
    }

    #[test]
    fn matches_fast_engine_on_random_families() {
        for seed in 0..12 {
            let g = generators::sparse_connected(40, (seed as usize) * 3, seed);
            let s = NodeId::new(seed as usize % g.node_count());
            cross_check(&g, &[s]);
        }
    }

    #[test]
    fn from_arcs_matches_fast_engine() {
        let g = generators::cycle(5);
        // A single orbiting arc and a two-arc configuration.
        for arcs in [vec![0usize], vec![1, 4], vec![0, 1, 2, 3]] {
            let arcs: Vec<ArcId> = arcs.into_iter().map(ArcId::from_index).collect();
            let mut frontier = FrontierFlooding::from_arcs(&g, arcs.iter().copied());
            let mut fast = FastFlooding::from_arcs(&g, arcs.iter().copied());
            for _ in 0..64 {
                assert_eq!(frontier.in_flight(), fast.in_flight());
                let a = frontier.step();
                let b = fast.step();
                assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
            assert_eq!(frontier.total_messages(), fast.total_messages());
        }
    }

    #[test]
    fn reset_reuses_allocations_correctly() {
        let g = generators::petersen();
        let mut sim = FrontierFlooding::new(&g, [NodeId::new(0)]);
        assert_eq!(sim.run(100).termination_round(), Some(5));
        let first_messages = sim.total_messages();
        assert_eq!(sim.informed_count(), 10);

        // Reset to a different source: identical to a fresh simulator.
        sim.reset([NodeId::new(7)]);
        assert_eq!(sim.round(), 0);
        assert_eq!(sim.total_messages(), 0);
        assert!(sim.messages_per_round().is_empty());
        let outcome = sim.run(100);
        let mut fresh = FrontierFlooding::new(&g, [NodeId::new(7)]);
        assert_eq!(outcome, fresh.run(100));
        assert_eq!(sim.total_messages(), fresh.total_messages());
        assert_eq!(sim.total_messages(), first_messages); // vertex-transitive
        for v in g.nodes() {
            assert_eq!(sim.receipts(v), fresh.receipts(v), "node {v}");
        }

        // Reset mid-run (with messages still in flight) is also clean.
        sim.reset([NodeId::new(1)]);
        sim.step();
        sim.reset([NodeId::new(2)]);
        let mut fresh = FrontierFlooding::new(&g, [NodeId::new(2)]);
        assert_eq!(sim.run(100), fresh.run(100));
        assert_eq!(sim.total_messages(), fresh.total_messages());
    }

    #[test]
    fn message_complexity_is_m_on_bipartite_and_2m_otherwise() {
        for (g, bip) in [
            (generators::path(9), true),
            (generators::cycle(8), true),
            (generators::grid(4, 5), true),
            (generators::cycle(7), false),
            (generators::complete(5), false),
            (generators::petersen(), false),
        ] {
            let mut f = FrontierFlooding::new(&g, [NodeId::new(0)]);
            f.run(1000);
            let m = g.edge_count() as u64;
            let expect = if bip { m } else { 2 * m };
            assert_eq!(f.total_messages(), expect, "{g}");
        }
    }

    #[test]
    fn receipts_can_be_disabled() {
        let g = generators::cycle(6);
        let mut f = FrontierFlooding::new(&g, [NodeId::new(0)]);
        f.set_record_receipts(false);
        f.run(100);
        assert!(f.receipts(NodeId::new(1)).is_empty());
        assert_eq!(f.informed_count(), 0);
        assert!(f.total_messages() > 0);
    }

    #[test]
    fn cap_behaviour_and_empty_sources() {
        let g = generators::cycle(3);
        let mut f = FrontierFlooding::new(&g, [NodeId::new(0)]);
        assert_eq!(f.run(1), Outcome::CapReached { rounds_executed: 1 });
        assert_eq!(
            f.run(100),
            Outcome::Terminated {
                last_active_round: 3
            }
        );
        assert_eq!(f.step(), None);

        let mut empty = FrontierFlooding::new(&g, []);
        assert!(empty.is_terminated());
        assert_eq!(
            empty.run(10),
            Outcome::Terminated {
                last_active_round: 0
            }
        );
    }

    #[test]
    fn duplicate_sources_are_collapsed() {
        let g = generators::cycle(6);
        let mut dup = FrontierFlooding::new(&g, [NodeId::new(2), NodeId::new(2)]);
        let mut single = FrontierFlooding::new(&g, [NodeId::new(2)]);
        assert_eq!(dup.in_flight(), single.in_flight());
        assert_eq!(dup.run(100), single.run(100));
        assert_eq!(dup.total_messages(), single.total_messages());
    }
}
