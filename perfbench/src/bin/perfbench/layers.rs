//! Calls into the core and theory layers that both kinds of workload
//! share: the flood request decomposed into its stages, an engine-level
//! counting probe, the engine comparison and the oracle gate.

use std::cell::RefCell;
use std::collections::HashMap;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use af_core::api::{ErrorResponse, FloodRequest, FloodResponse, FloodSummary};
use af_core::obs::{FloodProbe, RoundNote, RoundRecord, SharedProbe};
use af_core::theory::{self, PredictIndex, PredictSummary};
use af_core::{FloodBatch, FloodEngine};
use af_graph::{Graph, NodeId};

use crate::trace::{median, ms, Report, Tracer};

/// Exact work counts of every round the engine reports through the
/// `FloodProbe` surface. Dense and sparse rounds are counted only as the
/// engine labels them: an engine that notes neither (`RoundNote::None`,
/// as the frontier and fast engines do) adds to `unlabelled_rounds`.
#[derive(Debug, Default, Clone, Copy)]
pub struct EngineCounts {
    pub rounds: u64,
    pub msgs: u64,
    pub frontier: u64,
    pub dense_rounds: u64,
    pub sparse_rounds: u64,
    pub unlabelled_rounds: u64,
}

impl FloodProbe for EngineCounts {
    fn round_finished(&mut self, record: &RoundRecord<'_>) {
        self.rounds += 1;
        self.msgs += record.delivered;
        self.frontier += record.frontier as u64;
        match record.note {
            RoundNote::DenseSweep => self.dense_rounds += 1,
            RoundNote::SparseWalk => self.sparse_rounds += 1,
            _ => self.unlabelled_rounds += 1,
        }
    }
}

impl EngineCounts {
    /// Records the counts as per-flood averages over `floods` floods.
    pub fn report(&self, floods: f64, report: &mut Report) {
        report.layer("core.engine.rounds", self.rounds as f64 / floods, "count");
        report.layer("core.engine.msgs", self.msgs as f64 / floods, "count");
        report.layer(
            "core.engine.frontier_mean",
            self.frontier as f64 / self.rounds.max(1) as f64,
            "count",
        );
        let dense = self.dense_rounds as f64 / floods;
        let sparse = self.sparse_rounds as f64 / floods;
        report.layer("core.engine.dense_rounds", dense, "count");
        report.layer("core.engine.sparse_rounds", sparse, "count");
        report.note(format!(
            "engine rounds per flood: {dense:.2} dense, {sparse:.2} sparse, {:.2} unlabelled \
             (the engine noted neither regime)",
            self.unlabelled_rounds as f64 / floods
        ));
    }
}

/// A probe handle the batch holds, plus the typed handle to read it.
pub fn counting_probe() -> (Rc<RefCell<EngineCounts>>, SharedProbe) {
    let counts = Rc::new(RefCell::new(EngineCounts::default()));
    let shared: SharedProbe = counts.clone();
    (counts, shared)
}

/// Stage times of one traced request, in ns.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stages {
    pub wall: u64,
    pub setup: u64,
    pub run: u64,
    /// Measured outside setup and run: validation, source conversion,
    /// response assembly and the batch's drop.
    pub other_measured: u64,
}

/// `FloodRequest::execute`, step by step through the same public calls
/// it makes, with a span around each step. `execute` itself is opaque,
/// so this is how the traced run splits its wall time into layers.
pub fn traced_execute(
    graph: &Graph,
    request: &FloodRequest,
    tracer: &mut Tracer,
    id: u64,
    probe: &SharedProbe,
) -> (Result<FloodResponse, ErrorResponse>, Stages) {
    let outer = tracer.open("core.api.execute", None, id);
    let prep = tracer.open("core.api.validate", Some(outer), id);
    let engine = request.validate(graph);
    let sets: Vec<Vec<NodeId>> = request
        .source_sets
        .iter()
        .map(|set| set.iter().copied().map(NodeId::new).collect())
        .collect();
    let mut other = tracer.close(prep);
    let engine = match engine {
        Ok(e) => e,
        Err(e) => {
            let wall = tracer.close(outer);
            return (
                Err(e),
                Stages {
                    wall,
                    other_measured: other,
                    ..Stages::default()
                },
            );
        }
    };
    let s = tracer.open("core.batch.setup", Some(outer), id);
    let mut batch = FloodBatch::with_engine(graph, engine);
    if request.max_rounds > 0 {
        batch = batch.with_max_rounds(request.max_rounds);
    }
    batch.set_probe(Some(probe.clone()));
    let setup = tracer.close(s);
    let r = tracer.open("core.batch.run", Some(outer), id);
    let stats = batch.run_many(&sets);
    let run = tracer.close(r);
    let a = tracer.open("core.api.assemble", Some(outer), id);
    let response = FloodResponse {
        engine: engine.to_string(),
        floods: stats.iter().map(FloodSummary::from_stats).collect(),
    };
    drop(batch);
    other += tracer.close(a);
    let wall = tracer.close(outer);
    (
        Ok(response),
        Stages {
            wall,
            setup,
            run,
            other_measured: other,
        },
    )
}

/// The share of a traced run's requests allowed to miss their
/// reconciliation tolerance before the run counts as invalid.
const RECON_MAX_SHARE: f64 = 0.05;

/// Marks the run invalid when more than [`RECON_MAX_SHARE`] of its
/// `total` traced requests did not reconcile.
pub fn require_reconciled(unreconciled: usize, total: usize, report: &mut Report) {
    if unreconciled as f64 > RECON_MAX_SHARE * total as f64 {
        report.invalidate(format!(
            "{unreconciled} of {total} traced requests did not reconcile (at most {}% may not)",
            RECON_MAX_SHARE * 100.0
        ));
    }
}

/// The exact-time oracle for one graph, memoised per single source.
/// Answers come from `PredictIndex::summary`, which the library pins
/// bit-identical to `theory::predict`; [`Oracle::spot_check`] confirms
/// that on this graph.
#[derive(Debug)]
pub struct Oracle {
    index: PredictIndex,
    memo: HashMap<usize, PredictSummary>,
    pub build_ms: f64,
    /// Wall time of each uncached query, ms.
    pub query_ms: Vec<f64>,
}

impl Oracle {
    pub fn new(graph: &Graph) -> Self {
        let t = Instant::now();
        let index = PredictIndex::new(graph);
        Oracle {
            index,
            memo: HashMap::new(),
            build_ms: t.elapsed().as_secs_f64() * 1e3,
            query_ms: Vec::new(),
        }
    }

    pub fn single(&mut self, source: usize) -> PredictSummary {
        if let Some(s) = self.memo.get(&source) {
            return *s;
        }
        let t = Instant::now();
        let s = self.index.summary([NodeId::new(source)]);
        self.query_ms.push(t.elapsed().as_secs_f64() * 1e3);
        self.memo.insert(source, s);
        s
    }

    /// Confirms the index against the free-standing `theory::predict` on
    /// one source; a disagreement is a failed check.
    pub fn spot_check(&mut self, graph: &Graph, source: usize, report: &mut Report) {
        let full = theory::predict(graph, [NodeId::new(source)]);
        let s = self.single(source);
        let agree = full.termination_round() == s.termination_round
            && full.total_messages() == s.total_messages
            && full.informed_count() == s.informed_count;
        report.check((!agree).then(|| {
            format!("oracle: PredictIndex disagrees with theory::predict from source {source}")
        }));
    }
}

/// Does a flood answer match the oracle?
pub fn flood_matches(answer: &FloodSummary, want: &PredictSummary) -> bool {
    answer.terminated
        && answer.rounds == want.termination_round
        && answer.messages == want.total_messages
}

/// Checks every flood of a single-source batch response against the
/// oracle: one verdict per request, `Some` describing a wrong answer.
pub fn check_batch(
    oracle: &mut Oracle,
    sets: &[Vec<usize>],
    response: &Result<FloodResponse, ErrorResponse>,
) -> Option<String> {
    match response {
        Err(e) => Some(format!("request failed: {e}")),
        Ok(r) if r.floods.len() != sets.len() => Some(format!(
            "{} floods answered for {} sets",
            r.floods.len(),
            sets.len()
        )),
        Ok(r) => sets.iter().zip(&r.floods).find_map(|(set, got)| {
            let want = oracle.single(set[0]);
            (!flood_matches(got, &want))
                .then(|| format!("flood from {}: got {got:?}, oracle {want:?}", set[0]))
        }),
    }
}

/// One engine's timings over the comparison batch.
#[derive(Debug)]
pub struct EngineRow {
    pub label: &'static str,
    pub spec: String,
    pub setup_ms: Vec<f64>,
    pub run_ms: Vec<f64>,
    pub msgs: u64,
}

impl EngineRow {
    pub fn ns_per_msg(&self) -> f64 {
        if self.msgs == 0 {
            0.0
        } else {
            median(&self.run_ms) * 1e6 / self.msgs as f64
        }
    }
}

/// The engines the comparison covers: the default and every other
/// static engine, by role. An engine string that no longer parses is
/// left out, so the benchmark outlives engine deletions.
fn comparison_engines() -> Vec<(&'static str, FloodEngine)> {
    let mut engines = vec![("default", FloodEngine::default())];
    for (label, spec) in [
        ("fast", "fast"),
        ("bitlane", "bitlane"),
        ("sharded2", "sharded:2:bfs"),
    ] {
        if let Ok(e) = spec.parse::<FloodEngine>() {
            engines.push((label, e));
        }
    }
    engines
}

/// Runs the same batch on each engine, `repeats` times, rotating the
/// engine order between repeats and timing construction apart from the
/// floods. Every engine's answers must equal the default engine's.
pub fn compare_engines(
    graph: &Graph,
    sets: &[Vec<NodeId>],
    repeats: usize,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Vec<EngineRow> {
    let engines = comparison_engines();
    let mut rows: Vec<EngineRow> = engines
        .iter()
        .map(|(label, e)| EngineRow {
            label,
            spec: e.to_string(),
            setup_ms: Vec::new(),
            run_ms: Vec::new(),
            msgs: 0,
        })
        .collect();
    let mut reference: Option<Vec<FloodSummary>> = None;
    for rep in 0..repeats {
        for k in 0..engines.len() {
            let i = (k + rep) % engines.len();
            let (label, engine) = engines[i];
            let id = u64::try_from(rep * 100 + i).unwrap_or(0);
            let outer = tracer.open(&format!("core.engine.compare.{label}"), None, id);
            let s = tracer.open("core.engine.compare.setup", Some(outer), id);
            let mut batch = FloodBatch::with_engine(graph, engine);
            let setup = tracer.close(s);
            let r = tracer.open("core.engine.compare.run", Some(outer), id);
            let stats = black_box(batch.run_many(black_box(sets)));
            let run = tracer.close(r);
            drop(batch);
            tracer.close(outer);
            let got: Vec<FloodSummary> = stats.iter().map(FloodSummary::from_stats).collect();
            rows[i].setup_ms.push(ms(setup));
            rows[i].run_ms.push(ms(run));
            rows[i].msgs = got.iter().map(|f| f.messages).sum();
            // The first repeat starts with the default engine, so its
            // answers become the reference.
            match &reference {
                None => reference = Some(got),
                Some(want) => {
                    report.check((&got != want).then(|| format!("engine {label} disagrees")));
                }
            }
        }
    }
    rows
}

/// Prints the comparison table and records the per-engine metrics.
pub fn report_engines(rows: &[EngineRow], report: &mut Report) {
    let base = rows
        .iter()
        .find(|r| r.label == "default")
        .map_or(0.0, |r| median(&r.run_ms));
    report.note(format!(
        "engines: {:<9} {:<16} {:>10} {:>10} {:>10} {:>8}",
        "role", "spec", "setup_ms", "run_ms", "ns/msg", "speedup"
    ));
    for r in rows {
        let run = median(&r.run_ms);
        report.note(format!(
            "engines: {:<9} {:<16} {:>10.2} {:>10.2} {:>10.3} {:>8.3}",
            r.label,
            r.spec,
            median(&r.setup_ms),
            run,
            r.ns_per_msg(),
            if run > 0.0 { base / run } else { 0.0 }
        ));
    }
    for (label, name) in [
        ("fast", "core.engine.ns_per_msg.fast"),
        ("bitlane", "core.engine.ns_per_msg.bitlane"),
        ("sharded2", "core.engine.ns_per_msg.sharded2"),
    ] {
        if let Some(r) = rows.iter().find(|r| r.label == label) {
            report.layer(name, r.ns_per_msg(), "ns");
        }
    }
    if let Some(sharded) = rows.iter().find(|r| r.label == "sharded2") {
        let own = median(&sharded.run_ms);
        let wins = rows
            .iter()
            .filter(|r| r.label != "sharded2")
            .all(|r| own < median(&r.run_ms));
        report.note(format!(
            "engines: sharded:2 fastest on this workload: {wins} (nproc {})",
            std::thread::available_parallelism().map_or(0, std::num::NonZero::get)
        ));
    }
}
