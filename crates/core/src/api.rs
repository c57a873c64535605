//! The shared request/response schema: **one** serde surface driving
//! in-process execution, the CLI, the benchmark harness, and the
//! `af-serve` wire protocol.
//!
//! A [`FloodRequest`] names everything a flood needs beyond the graph
//! itself — source sets, engine (as its canonical string; see
//! [`FloodEngine`]'s `Display`/`FromStr`), round cap — and
//! [`FloodRequest::execute`] runs it through [`FloodBatch`] exactly the
//! way every other entry point does. Failures come back as a structured
//! [`ErrorResponse`] with a **stable** machine-readable code from
//! [`code`], never as a panic: the daemon forwards them to remote
//! clients verbatim, and the CLI prints them.
//!
//! Requests are validated *before* any simulator is built, so a malformed
//! request (unknown engine, out-of-range source) can be rejected over the
//! wire where the in-process builder API would panic.

use crate::run::{FloodBatch, FloodEngine, FloodStats};
use af_graph::{Graph, NodeId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Stable error codes carried by [`ErrorResponse::code`].
///
/// These strings are wire protocol: clients match on them, so they only
/// ever grow — renaming or removing one is a breaking protocol change
/// (PROTOCOL.md documents each).
pub mod code {
    /// A request line was not valid JSON, or not a known request shape.
    pub const BAD_REQUEST: &str = "bad_request";
    /// A request line exceeded the server's line-length cap.
    pub const OVERSIZED: &str = "oversized";
    /// The engine string did not parse (see [`crate::FloodEngine`]).
    pub const BAD_ENGINE: &str = "bad_engine";
    /// A source node id is out of range for the graph.
    pub const BAD_SOURCE: &str = "bad_source";
    /// A graph definition (edge list / spec) failed to build.
    pub const BAD_GRAPH: &str = "bad_graph";
    /// The named graph is not registered.
    pub const UNKNOWN_GRAPH: &str = "unknown_graph";
    /// A graph mutation (`GraphDelta`) could not be applied.
    pub const BAD_DELTA: &str = "bad_delta";
    /// The named graph *was* registered but has since been evicted from
    /// a byte-budgeted registry (re-`Load`/`Gen` restores it). Distinct
    /// from [`UNKNOWN_GRAPH`] so clients can tell "never existed" from
    /// "fell out of the LRU".
    pub const NOT_FOUND: &str = "not_found";
    /// The request would exceed the registry's byte budget even after
    /// evicting everything else (one graph or index bigger than the
    /// whole budget).
    pub const OVER_BUDGET: &str = "over_budget";
    /// The server is draining for shutdown and not accepting new work.
    pub const SHUTTING_DOWN: &str = "shutting_down";
}

/// A structured, wire-stable failure: machine-readable `code` (one of the
/// [`code`] constants) plus a human-readable `message`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ErrorResponse {
    /// One of the [`code`] constants.
    pub code: String,
    /// Human-readable detail; **not** stable, do not match on it.
    pub message: String,
}

impl ErrorResponse {
    /// Builds an error with the given stable code and message.
    #[must_use]
    pub fn new(code: &str, message: impl Into<String>) -> Self {
        ErrorResponse {
            code: code.to_owned(),
            message: message.into(),
        }
    }
}

impl fmt::Display for ErrorResponse {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for ErrorResponse {}

/// One flood workload: which source sets to flood from, on which engine,
/// under which round cap. The graph is supplied separately — in process
/// as a `&Graph`, over the wire as a registered graph's name.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FloodRequest {
    /// One flood per set; each set lists base-graph node ids.
    pub source_sets: Vec<Vec<usize>>,
    /// Canonical engine string (see [`FloodEngine`]); empty means the
    /// default engine, `auto`.
    pub engine: String,
    /// Per-flood round cap; `0` means the default `2n + 2`.
    pub max_rounds: u32,
}

impl FloodRequest {
    /// A request flooding `source_sets` on `engine` with the default cap.
    #[must_use]
    pub fn new(source_sets: Vec<Vec<usize>>, engine: FloodEngine) -> Self {
        FloodRequest {
            source_sets,
            engine: engine.to_string(),
            max_rounds: 0,
        }
    }

    /// A single-set request on the default engine and cap.
    #[must_use]
    pub fn single(sources: Vec<usize>) -> Self {
        FloodRequest {
            source_sets: vec![sources],
            engine: String::new(),
            max_rounds: 0,
        }
    }

    /// Parses the request's engine string ([`code::BAD_ENGINE`] on
    /// failure; the empty string is the default engine).
    pub fn parse_engine(&self) -> Result<FloodEngine, ErrorResponse> {
        if self.engine.is_empty() {
            return Ok(FloodEngine::default());
        }
        self.engine
            .parse()
            .map_err(|e| ErrorResponse::new(code::BAD_ENGINE, format!("{e}")))
    }

    /// Checks every source id against `graph` ([`code::BAD_SOURCE`]) and
    /// the engine string ([`code::BAD_ENGINE`]) without running anything.
    pub fn validate(&self, graph: &Graph) -> Result<FloodEngine, ErrorResponse> {
        let engine = self.parse_engine()?;
        let n = graph.node_count();
        for (i, set) in self.source_sets.iter().enumerate() {
            if let Some(&v) = set.iter().find(|&&v| v >= n) {
                return Err(ErrorResponse::new(
                    code::BAD_SOURCE,
                    format!("source {v} in set {i} out of range for {n} nodes"),
                ));
            }
        }
        Ok(engine)
    }

    /// Validates and executes the request on `graph` through
    /// [`FloodBatch::run_many`] — the same path the benchmark harness and
    /// the daemon's `flood`/`batch` verbs take, so every entry point
    /// reports identical numbers for identical requests.
    pub fn execute(&self, graph: &Graph) -> Result<FloodResponse, ErrorResponse> {
        let engine = self.validate(graph)?;
        let mut batch = FloodBatch::with_engine(graph, engine);
        if self.max_rounds > 0 {
            batch = batch.with_max_rounds(self.max_rounds);
        }
        let sets: Vec<Vec<NodeId>> = self
            .source_sets
            .iter()
            .map(|set| set.iter().copied().map(NodeId::new).collect())
            .collect();
        let stats = batch.run_many(&sets);
        Ok(FloodResponse {
            engine: engine.to_string(),
            floods: stats.iter().map(FloodSummary::from_stats).collect(),
        })
    }
}

/// The scalar outcome of one flood of a [`FloodRequest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FloodSummary {
    /// Did the flood terminate within the round cap?
    pub terminated: bool,
    /// Termination round if terminated, else rounds executed (= the cap).
    pub rounds: u32,
    /// Total point-to-point messages delivered.
    pub messages: u64,
}

impl FloodSummary {
    /// Converts a driver-level [`FloodStats`] into the wire shape.
    #[must_use]
    pub fn from_stats(stats: &FloodStats) -> Self {
        FloodSummary {
            terminated: stats.terminated(),
            rounds: stats.outcome().rounds_executed(),
            messages: stats.total_messages(),
        }
    }
}

/// The response to a [`FloodRequest`]: the canonical engine string that
/// actually ran (defaults resolved), and one [`FloodSummary`] per source
/// set, in request order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FloodResponse {
    /// Canonical string of the engine that executed the floods.
    pub engine: String,
    /// One summary per requested source set, in order.
    pub floods: Vec<FloodSummary>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{flood, AmnesiacFlooding};
    use af_graph::generators;

    #[test]
    fn execute_matches_direct_drivers() {
        let g = generators::petersen();
        let req = FloodRequest::new(vec![vec![0], vec![3, 7]], FloodEngine::Frontier);
        let resp = req.execute(&g).unwrap();
        assert_eq!(resp.engine, "frontier");
        assert_eq!(resp.floods.len(), 2);

        let single = flood(&g, 0.into());
        assert!(resp.floods[0].terminated);
        assert_eq!(Some(resp.floods[0].rounds), single.termination_round());
        assert_eq!(resp.floods[0].messages, single.total_messages());

        let multi = AmnesiacFlooding::multi_source(&g, [3.into(), 7.into()]).run();
        assert_eq!(Some(resp.floods[1].rounds), multi.termination_round());
        assert_eq!(resp.floods[1].messages, multi.total_messages());
    }

    #[test]
    fn all_engines_agree_through_the_request_path() {
        let g = generators::lollipop(4, 5);
        let sets = vec![vec![0], vec![2, 8]];
        let base = FloodRequest::new(sets.clone(), FloodEngine::Frontier)
            .execute(&g)
            .unwrap();
        for engine in ["auto", "fast", "sharded:3:bfs", "dynamic:none", "bitlane"] {
            let mut req = FloodRequest::new(sets.clone(), FloodEngine::Frontier);
            req.engine = engine.to_owned();
            let resp = req.execute(&g).unwrap();
            assert_eq!(resp.floods, base.floods, "{engine}");
            assert_eq!(resp.engine, engine);
        }
    }

    #[test]
    fn empty_engine_string_means_default() {
        let g = generators::cycle(5);
        let req = FloodRequest::single(vec![0]);
        assert_eq!(req.parse_engine(), Ok(FloodEngine::Auto));
        let resp = req.execute(&g).unwrap();
        assert_eq!(resp.engine, "auto");
    }

    #[test]
    fn max_rounds_caps_each_flood() {
        let g = generators::cycle(3);
        let mut req = FloodRequest::single(vec![0]);
        req.max_rounds = 2;
        let resp = req.execute(&g).unwrap();
        assert!(!resp.floods[0].terminated);
        assert_eq!(resp.floods[0].rounds, 2);
    }

    #[test]
    fn bad_engine_and_bad_source_are_stable_codes() {
        let g = generators::cycle(4);
        let mut req = FloodRequest::single(vec![0]);
        req.engine = "warp".to_owned();
        assert_eq!(req.execute(&g).unwrap_err().code, code::BAD_ENGINE);

        let req = FloodRequest::single(vec![99]);
        let err = req.execute(&g).unwrap_err();
        assert_eq!(err.code, code::BAD_SOURCE);
        assert!(err.message.contains("99"), "{err}");
    }

    #[test]
    fn request_and_response_roundtrip_as_json() {
        let req = FloodRequest {
            source_sets: vec![vec![0, 2], vec![]],
            engine: "sharded:2:contiguous".to_owned(),
            max_rounds: 7,
        };
        let json = serde_json::to_string(&req).unwrap();
        let back: FloodRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, req);

        let g = generators::cycle(6);
        let resp = req.execute(&g).unwrap();
        let json = serde_json::to_string(&resp).unwrap();
        let back: FloodResponse = serde_json::from_str(&json).unwrap();
        assert_eq!(back, resp);

        let err = ErrorResponse::new(code::UNKNOWN_GRAPH, "no graph named 'g'");
        let json = serde_json::to_string(&err).unwrap();
        let back: ErrorResponse = serde_json::from_str(&json).unwrap();
        assert_eq!(back, err);
    }
}
