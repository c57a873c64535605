//! The `amnesiac` subcommands, implemented as pure functions from parsed
//! arguments to output text (so they are unit-testable without a process
//! boundary).

use crate::args::Args;
use af_core::arbitrary::classify_all_configurations;
use af_core::detect::TopologyVerdict;
use af_core::{theory, trace, AmnesiacFlooding, AmnesiacFloodingProtocol, FloodEngine};
use af_engine::adversary::{BoundedDelay, DeliverAll, OneAtATime, PerHeadThrottle};
use af_engine::{certify, Certificate};
use af_graph::dynamic::ChurnSpec;
use af_graph::{algo, generators, io, Graph, NodeId, PartitionStrategy};
use std::fmt::Write as _;

/// Boxed error for command plumbing.
pub type CommandError = Box<dyn std::error::Error + Send + Sync + 'static>;

/// Loads a graph from a file: graph6 if the content looks like a graph6
/// line, the `n <count>` edge-list format otherwise.
///
/// # Errors
///
/// Returns I/O or parse errors.
pub fn load_graph(path: &str) -> Result<Graph, CommandError> {
    let text = std::fs::read_to_string(path)?;
    Ok(parse_graph(&text)?)
}

/// Parses graph text in either supported format (delegates to the shared
/// sniffing rule in [`af_graph::io::from_text`], which the daemon's
/// `Load` verb also uses).
///
/// # Errors
///
/// Returns the parse error of the format that was attempted.
pub fn parse_graph(text: &str) -> Result<Graph, af_graph::GraphError> {
    io::from_text(text)
}

/// Parses the shared engine-selection options: `--engine <spec>` (any
/// canonical [`FloodEngine`] string — `auto`, `frontier`, `fast`,
/// `sharded[:k[:partitioner]]`, `dynamic[:churn]`, `bitlane` — exactly
/// what the bench JSON's `engine_spec` column and the wire protocol's
/// `engine` field accept), plus the legacy flag spellings `--threads N`,
/// `--partitioner contiguous|round-robin|bfs` (which imply and configure
/// a bare `--engine sharded`) and `--churn kind:rate_pm:seed` (which
/// selects the dynamic engine). The default engine is `frontier`;
/// contradictory combinations — sharding flags with a non-sharded or
/// already-parameterized engine spec, or `--churn` with any other engine
/// option — are rejected rather than silently ignored.
fn engine_choice(args: &Args) -> Result<FloodEngine, CommandError> {
    let threads: usize = args
        .parsed_or::<usize>("threads", af_core::DEFAULT_SHARD_THREADS)?
        .max(1);
    let strategy: PartitionStrategy = args.parsed_or("partitioner", PartitionStrategy::Bfs)?;
    let implied = args.option("threads").is_some() || args.option("partitioner").is_some();
    if let Some(spec) = args.option("churn") {
        if implied || args.option("engine").is_some() {
            return Err(
                "--churn runs on the dynamic engine; drop --engine/--threads/--partitioner".into(),
            );
        }
        let churn: ChurnSpec = spec.parse()?;
        return Ok(FloodEngine::Dynamic { churn });
    }
    match args.option("engine") {
        // Bare `sharded` takes its configuration from the flags.
        Some("sharded") => Ok(FloodEngine::Sharded { threads, strategy }),
        Some(spec) => {
            let engine: FloodEngine = spec.parse()?;
            if implied {
                return Err(match engine {
                    FloodEngine::Sharded { .. } => format!(
                        "--engine {spec} already fixes the shard configuration; \
                         drop --threads/--partitioner or use bare --engine sharded"
                    ),
                    _ => format!(
                        "--threads/--partitioner only apply to --engine sharded \
                         (drop --engine {spec})"
                    ),
                }
                .into());
            }
            Ok(engine)
        }
        None if implied => Ok(FloodEngine::Sharded { threads, strategy }),
        None => Ok(FloodEngine::Frontier),
    }
}

fn source_set(args: &Args, graph: &Graph) -> Result<Vec<NodeId>, CommandError> {
    if let Some(list) = args.list::<usize>("sources")? {
        return Ok(list.into_iter().map(NodeId::new).collect());
    }
    let s: usize = args.parsed_or("source", 0)?;
    if s >= graph.node_count() {
        return Err(format!("source {s} out of range (n = {})", graph.node_count()).into());
    }
    Ok(vec![NodeId::new(s)])
}

/// `amnesiac flood <file> [--source N | --sources a,b,c] [--max-rounds N]
/// [--engine <spec>] [--threads N]
/// [--partitioner contiguous|round-robin|bfs]
/// [--churn kind:rate_pm:seed] [--trace] [--trace-out FILE.jsonl]
/// [--receipts]`
///
/// `--engine` takes any canonical engine spec (`auto`, `frontier`, `fast`,
/// `sharded[:k[:partitioner]]`, `dynamic[:churn]`, `bitlane`) — the same
/// strings the bench JSON records as `engine_spec` and the daemon accepts
/// on the wire, so a benchmark row replays verbatim.
///
/// `--churn` floods on the dynamic engine while a deterministic schedule
/// edits the topology at round boundaries; a capped run is then a finding
/// (churn can prevent termination), not an error.
///
/// `--trace-out FILE.jsonl` attaches an [`af_core::obs::NdjsonTraceWriter`]
/// and exports one schema-versioned JSON line per round. Before the file
/// is written the trace is **replayed** through
/// [`af_analysis::tracecheck`] and asserted equal to the run's own record
/// — a failing self-check is an error, not a warning.
///
/// # Errors
///
/// Returns file, parse, or argument errors, or a trace replay mismatch.
pub fn cmd_flood(args: &Args) -> Result<String, CommandError> {
    let path = args
        .positional(0)
        .ok_or("usage: amnesiac flood <file> [options]")?;
    let graph = load_graph(path)?;
    let sources = source_set(args, &graph)?;
    let engine = engine_choice(args)?;
    if matches!(engine, FloodEngine::Dynamic { .. }) && args.flag("trace") {
        // render_run replays the rounds on the static input graph, which
        // would contradict a churned run's record.
        return Err("--trace replays rounds on the static graph; drop it or drop --churn".into());
    }
    let mut builder =
        AmnesiacFlooding::multi_source(&graph, sources.iter().copied()).with_engine(engine);
    if let Some(cap) = args.option("max-rounds") {
        builder = builder.with_max_rounds(cap.parse().map_err(|_| "invalid --max-rounds")?);
    }
    let trace_path = args.option("trace-out");
    let trace_writer = trace_path.map(|_| {
        std::rc::Rc::new(std::cell::RefCell::new(
            af_core::obs::NdjsonTraceWriter::new(Vec::new()),
        ))
    });
    if let Some(writer) = &trace_writer {
        builder = builder.with_probe(writer.clone());
    }
    let run = builder.run();

    let mut out = String::new();
    if args.flag("trace") {
        out.push_str(&trace::render_run(&graph, &run));
    } else {
        let _ = writeln!(out, "graph: {graph}");
        match engine {
            FloodEngine::Sharded { threads, strategy } => {
                let effective = af_graph::partition::clamp_shard_count(graph.node_count(), threads);
                let _ = writeln!(out, "engine: sharded x{effective} ({strategy} partitioner)");
            }
            FloodEngine::Dynamic { churn } => {
                let _ = writeln!(out, "engine: dynamic (churn {churn})");
            }
            FloodEngine::BitLane => {
                // One flood occupies one of the 64 bit lanes; the engine
                // earns its keep in batches, but stays lane-exact solo.
                let _ = writeln!(out, "engine: bitlane (bit-parallel, 1 of 64 lanes)");
            }
            FloodEngine::Fast => {
                let _ = writeln!(out, "engine: fast (scan-all-arcs baseline)");
            }
            // A single flood runs on frontier under auto too.
            FloodEngine::Auto | FloodEngine::Frontier => {}
        }
        match run.termination_round() {
            Some(t) => {
                let _ = writeln!(out, "terminated after round {t}");
            }
            None => {
                let _ = writeln!(
                    out,
                    "round cap reached after {} rounds",
                    run.rounds_executed()
                );
            }
        }
    }
    let _ = writeln!(out, "messages: {}", run.total_messages());
    // The run's node count, not the input graph's: join churn can grow
    // the node space mid-flood.
    let _ = writeln!(
        out,
        "informed nodes: {} / {}",
        run.informed_count(),
        run.node_count()
    );
    let _ = writeln!(out, "max receipts per node: {}", run.max_receive_count());
    if let (Some(trace_path), Some(writer)) = (trace_path, trace_writer) {
        // Self-verify before writing: replay the NDJSON trace and assert
        // it reproduces the run's record exactly (round-sets, receive
        // rounds, message counts, termination).
        let bytes = writer.borrow_mut().take_sink();
        // af-audit: allow(no-unwrap-in-lib): the trace writer only emits
        // NDJSON built from String fragments, so the sink is valid UTF-8
        let text = String::from_utf8(bytes).expect("trace writer emits UTF-8");
        af_analysis::tracecheck::check_trace(&text, &run)
            .map_err(|e| format!("trace self-check failed: {e}"))?;
        std::fs::write(trace_path, &text)?;
        let _ = writeln!(
            out,
            "trace: {} lines -> {trace_path} (replay verified)",
            text.lines().count()
        );
    }
    if args.flag("receipts") {
        out.push_str("receive schedule:\n");
        out.push_str(&trace::render_receipts(&graph, &run));
    }
    Ok(out)
}

/// `amnesiac predict <file> [--source N | --sources ...]` — the oracle,
/// no simulation.
///
/// # Errors
///
/// Returns file, parse, or argument errors.
pub fn cmd_predict(args: &Args) -> Result<String, CommandError> {
    let path = args
        .positional(0)
        .ok_or("usage: amnesiac predict <file> [options]")?;
    let graph = load_graph(path)?;
    let sources = source_set(args, &graph)?;
    let pred = theory::predict(&graph, sources.iter().copied());
    let mut out = String::new();
    let _ = writeln!(out, "graph: {graph}");
    let _ = writeln!(
        out,
        "predicted termination round: {}",
        pred.termination_round()
    );
    let _ = writeln!(out, "predicted messages: {}", pred.total_messages());
    if let Some(bound) = theory::upper_bound(&graph) {
        let _ = writeln!(out, "paper bound: {bound}");
    }
    Ok(out)
}

/// `amnesiac detect <file> [--source N]` — bipartiteness by flooding.
///
/// # Errors
///
/// Returns file, parse, or argument errors.
pub fn cmd_detect(args: &Args) -> Result<String, CommandError> {
    let path = args
        .positional(0)
        .ok_or("usage: amnesiac detect <file> [options]")?;
    let graph = load_graph(path)?;
    let sources = source_set(args, &graph)?;
    let verdict = af_core::detect::detect_bipartiteness(&graph, sources[0]);
    let mut out = String::new();
    match verdict {
        TopologyVerdict::Bipartite => {
            let _ = writeln!(out, "bipartite (no node received the message twice)");
        }
        TopologyVerdict::NonBipartite { witness, rounds } => {
            let _ = writeln!(
                out,
                "non-bipartite: node {witness} received at rounds {} and {} \
                 (odd closed walk witnessed)",
                rounds.0, rounds.1
            );
        }
    }
    Ok(out)
}

/// `amnesiac certify <file> [--adversary throttle|serial|deliver-all|bounded:K]
/// [--source N] [--max-ticks N]` — asynchronous (non-)termination.
///
/// # Errors
///
/// Returns file, parse, or argument errors.
pub fn cmd_certify(args: &Args) -> Result<String, CommandError> {
    let path = args
        .positional(0)
        .ok_or("usage: amnesiac certify <file> [options]")?;
    let graph = load_graph(path)?;
    let sources = source_set(args, &graph)?;
    let max_ticks: u64 = args.parsed_or("max-ticks", 100_000)?;
    let adv = args.option("adversary").unwrap_or("throttle");
    let srcs = sources.iter().copied();

    let cert = match adv {
        "throttle" => certify(
            &graph,
            AmnesiacFloodingProtocol,
            PerHeadThrottle,
            srcs,
            max_ticks,
        )?,
        "serial" => certify(
            &graph,
            AmnesiacFloodingProtocol,
            OneAtATime,
            srcs,
            max_ticks,
        )?,
        "deliver-all" => certify(
            &graph,
            AmnesiacFloodingProtocol,
            DeliverAll,
            srcs,
            max_ticks,
        )?,
        other => {
            let Some(k) = other.strip_prefix("bounded:").and_then(|k| k.parse().ok()) else {
                return Err(format!(
                    "unknown adversary '{other}' (use throttle, serial, deliver-all, bounded:K)"
                )
                .into());
            };
            certify(
                &graph,
                AmnesiacFloodingProtocol,
                BoundedDelay::new(k),
                srcs,
                max_ticks,
            )?
        }
    };

    Ok(match cert {
        Certificate::Terminated { last_active_tick } => {
            format!("terminates: last message delivered at tick {last_active_tick}\n")
        }
        Certificate::NonTerminating(l) => format!(
            "NON-TERMINATING (certified): configuration at tick {} recurs at tick {} \
             (period {})\n",
            l.first_visit_tick(),
            l.repeat_tick(),
            l.period()
        ),
        Certificate::Unresolved { ticks_executed } => {
            format!("unresolved after {ticks_executed} ticks (raise --max-ticks)\n")
        }
    })
}

/// `amnesiac census <file>` — exhaustive arbitrary-configuration census
/// (graphs with at most 12 edges).
///
/// # Errors
///
/// Returns file, parse, or size errors.
pub fn cmd_census(args: &Args) -> Result<String, CommandError> {
    let path = args.positional(0).ok_or("usage: amnesiac census <file>")?;
    let graph = load_graph(path)?;
    if graph.edge_count() > 12 {
        return Err(format!(
            "census is exhaustive over 4^m configurations; m = {} is too large (max 12)",
            graph.edge_count()
        )
        .into());
    }
    let census = classify_all_configurations(&graph);
    let mut out = String::new();
    let _ = writeln!(out, "graph: {graph}");
    let _ = writeln!(out, "configurations: {}", census.configurations());
    let _ = writeln!(out, "  terminating: {}", census.terminating());
    let _ = writeln!(out, "  cycling:     {}", census.cycling());
    let _ = writeln!(
        out,
        "max termination round: {}",
        census.max_termination_round()
    );
    let _ = writeln!(out, "max limit-cycle period: {}", census.max_period());
    let _ = writeln!(
        out,
        "node-initiated configurations all terminate: {}",
        census.node_initiated_all_terminate()
    );
    Ok(out)
}

/// `amnesiac tree <file> [--source N]` — extract the first-receipt
/// spanning tree (the intro's "flooding gives you rooted spanning trees").
///
/// # Errors
///
/// Returns file, parse, or argument errors.
pub fn cmd_tree(args: &Args) -> Result<String, CommandError> {
    let path = args
        .positional(0)
        .ok_or("usage: amnesiac tree <file> [options]")?;
    let graph = load_graph(path)?;
    let sources = source_set(args, &graph)?;
    let tree = af_core::spanning::spanning_tree(&graph, sources[0]);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "spanning tree rooted at {} ({} nodes)",
        tree.root(),
        tree.len()
    );
    let _ = writeln!(out, "is a BFS tree: {}", tree.is_bfs_tree_of(&graph));
    for v in graph.nodes() {
        match (tree.parent(v), tree.depth(v)) {
            (Some(p), Some(d)) => {
                let _ = writeln!(out, "  {v}: parent {p}, depth {d}");
            }
            (None, Some(0)) => {
                let _ = writeln!(out, "  {v}: root");
            }
            _ => {
                let _ = writeln!(out, "  {v}: unreached");
            }
        }
    }
    Ok(out)
}

/// `amnesiac info <file>` — structural summary.
///
/// # Errors
///
/// Returns file or parse errors.
pub fn cmd_info(args: &Args) -> Result<String, CommandError> {
    let path = args.positional(0).ok_or("usage: amnesiac info <file>")?;
    let graph = load_graph(path)?;
    let mut out = String::new();
    let _ = writeln!(out, "nodes: {}", graph.node_count());
    let _ = writeln!(out, "edges: {}", graph.edge_count());
    let _ = writeln!(
        out,
        "degree: min {} / avg {:.2} / max {}",
        graph.min_degree(),
        graph.average_degree(),
        graph.max_degree()
    );
    let _ = writeln!(out, "connected: {}", algo::is_connected(&graph));
    let _ = writeln!(out, "bipartite: {}", algo::is_bipartite(&graph));
    // Diameter and radius each report their own `Option` — no arm relies
    // on another function's connectivity check, so no input can panic.
    match algo::diameter(&graph) {
        Some(d) => {
            let _ = writeln!(out, "diameter: {d}");
        }
        None => {
            let _ = writeln!(out, "diameter: infinite (disconnected)");
        }
    }
    match algo::radius(&graph) {
        Some(r) => {
            let _ = writeln!(out, "radius: {r}");
        }
        None => {
            let _ = writeln!(out, "radius: infinite (disconnected)");
        }
    }
    if let Some(bound) = theory::upper_bound(&graph) {
        let _ = writeln!(out, "flooding bound: {bound}");
    }
    if let Some(girth) = algo::girth(&graph) {
        let _ = writeln!(out, "girth: {girth}");
    }
    if let Some(og) = algo::odd_girth(&graph) {
        let _ = writeln!(out, "odd girth: {og}");
    }
    Ok(out)
}

/// `amnesiac gen <family> [params...] [--format edgelist|g6|dot]` —
/// generate a graph to stdout. Families: `path N`, `cycle N`,
/// `complete N`, `grid R C`, `hypercube D`, `petersen`, `wheel K`,
/// `barbell K`, `star N`, `friendship K`, `gnp N P SEED`, `tree N SEED`.
///
/// # Errors
///
/// Returns argument errors for unknown families or bad parameters.
pub fn cmd_gen(args: &Args) -> Result<String, CommandError> {
    let family = args
        .positional(0)
        .ok_or("usage: amnesiac gen <family> [params]")?;
    let p = |i: usize| -> Result<usize, CommandError> {
        args.positional(i)
            .ok_or_else(|| format!("{family}: missing parameter {i}").into())
            .and_then(|v| v.parse().map_err(|_| format!("bad parameter: {v}").into()))
    };
    let graph = match family {
        "path" => generators::path(p(1)?),
        "cycle" => generators::cycle(p(1)?),
        "complete" => generators::complete(p(1)?),
        "grid" => generators::grid(p(1)?, p(2)?),
        "hypercube" => {
            let d = p(1)?;
            generators::hypercube(u32::try_from(d).map_err(|_| format!("bad parameter: {d}"))?)
        }
        "petersen" => generators::petersen(),
        "wheel" => generators::wheel(p(1)?),
        "barbell" => generators::barbell(p(1)?),
        "star" => generators::star(p(1)?),
        "friendship" => generators::friendship(p(1)?),
        "gnp" => {
            let n = p(1)?;
            let prob: f64 = args
                .positional(2)
                .ok_or("gnp: missing probability")?
                .parse()
                .map_err(|_| "gnp: bad probability")?;
            let seed = p(3)? as u64;
            generators::gnp_connected(n, prob, seed)
        }
        "tree" => generators::random_tree(p(1)?, p(2)? as u64),
        "pa" => generators::preferential_attachment(p(1)?, p(2)?, p(3)? as u64),
        "rgg" => {
            let n = p(1)?;
            let radius: f64 = args
                .positional(2)
                .ok_or("rgg: missing radius")?
                .parse()
                .map_err(|_| "rgg: bad radius")?;
            generators::random_geometric(n, radius, p(3)? as u64)
        }
        "ws" => {
            let (n, k) = (p(1)?, p(2)?);
            let beta: f64 = args
                .positional(3)
                .ok_or("ws: missing beta")?
                .parse()
                .map_err(|_| "ws: bad beta")?;
            generators::watts_strogatz(n, k, beta, p(4)? as u64)
        }
        other => return Err(format!("unknown family '{other}'").into()),
    };
    Ok(match args.option("format").unwrap_or("edgelist") {
        "edgelist" => io::to_edge_list(&graph),
        "g6" => format!("{}\n", io::to_graph6(&graph)),
        "dot" => io::to_dot(&graph, family),
        other => return Err(format!("unknown format '{other}'").into()),
    })
}

/// Usage text of `amnesiac bench`, printed by `amnesiac bench --help`.
const BENCH_USAGE: &str = "usage: amnesiac bench [--full] [--out <path>] [--threads N]
                       [--partitioner contiguous|round-robin|bfs]
                       [--sources K] [--churn kind:rate_pm:seed]

flooding throughput benchmark: frontier engine vs scan baseline vs sharded
multicore engine vs dynamic-graph engine vs 64-lane bit-parallel engine.
The default is the smoke grid; --full runs the BENCH_flooding.json grid
(~1e4..1e6 edges per family).
";

/// The options `amnesiac bench` accepts.
const BENCH_OPTIONS: &[&str] = &["full", "out", "threads", "partitioner", "sources", "churn"];

/// `amnesiac bench [--full] [--threads N]
/// [--partitioner contiguous|round-robin|bfs] [--sources K]
/// [--churn kind:rate_pm:seed] [--out <path>]` — the flooding throughput
/// benchmark (frontier engine vs scan baseline vs the sharded multicore
/// engine vs the dynamic-graph engine vs the 64-lane bit-parallel
/// engine). The default is the smoke grid;
/// `--full` runs the ~1e4..1e6-edge grid that produces the repository's
/// `BENCH_flooding.json`. `--threads` (default 4) and `--partitioner`
/// (default bfs) configure the sharded engine's concurrency axis;
/// `--sources` (default 1) sets the size of every measured flood's source
/// set; `--churn` (default none) sets the churn spec the dynamic engine
/// row floods under. `--help` prints the usage and runs nothing.
///
/// # Errors
///
/// Returns unknown options or arguments, I/O errors from `--out`, bad
/// `--sources`/`--churn` values, or an error if the engines disagree.
pub fn cmd_bench(args: &Args) -> Result<String, CommandError> {
    if args.flag("help") {
        return Ok(BENCH_USAGE.to_string());
    }
    args.only_options(BENCH_OPTIONS)?;
    let smoke = !args.flag("full");
    let threads: usize = args.parsed_or("threads", 4)?;
    let strategy: PartitionStrategy = args.parsed_or("partitioner", PartitionStrategy::Bfs)?;
    let sources_per_flood: usize = args.parsed_or("sources", 1)?;
    if sources_per_flood == 0 {
        return Err("--sources must be at least 1".into());
    }
    let churn: ChurnSpec = args.parsed_or("churn", ChurnSpec::NONE)?;
    let report = af_analysis::bench::run_with(smoke, threads, strategy, sources_per_flood, churn);
    if let Some(path) = args.option("out") {
        std::fs::write(path, format!("{}\n", report.to_json()))?;
    }
    if !report.all_engines_agree {
        return Err("benchmark engines disagree — this is a bug".into());
    }
    Ok(report.to_summary())
}

/// The top-level usage text.
#[must_use]
pub fn usage() -> String {
    "amnesiac — amnesiac flooding (PODC 2019) toolkit

usage: amnesiac <command> [args]

commands:
  flood <file>    run a flood          [--source N | --sources a,b,c]
                                       [--max-rounds N] [--trace] [--receipts]
                                       [--trace-out FILE.jsonl]
                                       [--engine auto|frontier|fast|
                                        sharded[:k[:partitioner]]|
                                        dynamic[:churn]|bitlane]
                                       [--threads N]
                                       [--partitioner contiguous|round-robin|bfs]
                                       [--churn edge|nodes|mix:rate_pm:seed]
  predict <file>  oracle, no simulation [--source N | --sources a,b,c]
  detect <file>   bipartiteness by flooding [--source N]
  certify <file>  async (non-)termination  [--adversary throttle|serial|
                                            deliver-all|bounded:K]
                                           [--max-ticks N] [--source N]
  census <file>   exhaustive arbitrary-configuration census (m <= 12)
  tree <file>     extract the first-receipt (BFS) spanning tree [--source N]
  info <file>     structural summary (n, m, D, bipartite, girth, bound)
  gen <family>    generate a graph     [--format edgelist|g6|dot]
                  families: path N | cycle N | complete N | grid R C |
                  hypercube D | petersen | wheel K | barbell K | star N |
                  friendship K | gnp N P SEED | tree N SEED |
                  pa N K SEED | rgg N R SEED | ws N K BETA SEED
  bench           flooding throughput benchmark [--full] [--out <path>]
                  [--threads N] [--partitioner contiguous|round-robin|bfs]
                  [--sources K] [--churn kind:rate_pm:seed]
                  (frontier engine vs scan baseline vs sharded multicore
                  engine vs dynamic-graph engine vs 64-lane bit-parallel
                  engine; --full is the
                  BENCH_flooding.json grid, ~1e4..1e6 edges per family;
                  --sources floods from K-node source sets instead of
                  single sources; --churn sets the dynamic row's workload)

graph files: edge-list format ('n <count>' header + 'u v' lines) or graph6
"
    .to_string()
}

/// Dispatches a subcommand.
///
/// # Errors
///
/// Propagates the subcommand's error.
pub fn dispatch(command: &str, args: &Args) -> Result<String, CommandError> {
    match command {
        "flood" => cmd_flood(args),
        "predict" => cmd_predict(args),
        "detect" => cmd_detect(args),
        "certify" => cmd_certify(args),
        "census" => cmd_census(args),
        "tree" => cmd_tree(args),
        "info" => cmd_info(args),
        "gen" => cmd_gen(args),
        "bench" => cmd_bench(args),
        "help" | "--help" | "-h" => Ok(usage()),
        other => Err(format!("unknown command '{other}'\n\n{}", usage()).into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_temp(name: &str, content: &str) -> String {
        let dir = std::env::temp_dir().join("af-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, content).unwrap();
        path.to_string_lossy().into_owned()
    }

    fn petersen_file() -> String {
        write_temp("petersen.g6", &io::to_graph6(&generators::petersen()))
    }

    fn triangle_edge_list_file() -> String {
        write_temp("triangle.txt", "n 3\n0 1\n1 2\n0 2\n")
    }

    #[test]
    fn parse_graph_detects_both_formats() {
        let g6 = io::to_graph6(&generators::cycle(5));
        assert_eq!(parse_graph(&g6).unwrap(), generators::cycle(5));
        let el = io::to_edge_list(&generators::cycle(5));
        assert_eq!(parse_graph(&el).unwrap(), generators::cycle(5));
        assert!(parse_graph("").is_err());
    }

    #[test]
    fn flood_command_reports_termination() {
        let path = triangle_edge_list_file();
        let args = Args::parse([path.as_str(), "--source", "1", "--trace", "--receipts"]).unwrap();
        let out = cmd_flood(&args).unwrap();
        assert!(out.contains("terminated after round 3"), "{out}");
        assert!(out.contains("messages: 6"), "{out}");
        assert!(out.contains("receive schedule"), "{out}");
    }

    #[test]
    fn flood_sharded_engine_matches_frontier() {
        let path = petersen_file();
        let base = cmd_flood(&Args::parse([path.as_str(), "--source", "0"]).unwrap()).unwrap();
        for strategy in ["contiguous", "round-robin", "bfs"] {
            let args = Args::parse([
                path.as_str(),
                "--source",
                "0",
                "--engine",
                "sharded",
                "--threads",
                "3",
                "--partitioner",
                strategy,
            ])
            .unwrap();
            let out = cmd_flood(&args).unwrap();
            assert!(out.contains("engine: sharded x3"), "{out}");
            assert!(out.contains(strategy), "{out}");
            // Identical termination and message counts, line for line
            // after the engine banner.
            for line in base.lines() {
                assert!(out.contains(line), "missing '{line}' in {out}");
            }
        }
        // --threads alone implies the sharded engine.
        let args = Args::parse([path.as_str(), "--threads", "2"]).unwrap();
        assert!(cmd_flood(&args).unwrap().contains("engine: sharded x2"));
        // --threads 0 is clamped, not displayed as a phantom shard count.
        let args = Args::parse([path.as_str(), "--threads", "0"]).unwrap();
        assert!(cmd_flood(&args).unwrap().contains("engine: sharded x1"));
        // Contradictory options are rejected, not silently ignored.
        let args = Args::parse([path.as_str(), "--engine", "frontier", "--threads", "4"]).unwrap();
        assert!(cmd_flood(&args).is_err());
        // Unknown engines are rejected.
        let args = Args::parse([path.as_str(), "--engine", "warp"]).unwrap();
        assert!(cmd_flood(&args).is_err());
        let args = Args::parse([path.as_str(), "--partitioner", "metis"]).unwrap();
        assert!(cmd_flood(&args).is_err());
    }

    #[test]
    fn flood_bitlane_engine_matches_frontier() {
        let path = petersen_file();
        let base = cmd_flood(&Args::parse([path.as_str(), "--source", "0"]).unwrap()).unwrap();
        let args = Args::parse([path.as_str(), "--source", "0", "--engine", "bitlane"]).unwrap();
        let out = cmd_flood(&args).unwrap();
        assert!(out.contains("engine: bitlane"), "{out}");
        // Identical record, line for line after the engine banner.
        for line in base.lines() {
            assert!(out.contains(line), "missing '{line}' in {out}");
        }
        // Multi-source and --receipts go through the same lane.
        let with_receipts = cmd_flood(
            &Args::parse([
                path.as_str(),
                "--sources",
                "0,7,9",
                "--engine",
                "bitlane",
                "--receipts",
            ])
            .unwrap(),
        )
        .unwrap();
        assert!(
            with_receipts.contains("receive schedule"),
            "{with_receipts}"
        );
        assert!(
            with_receipts.contains("informed nodes: 10 / 10"),
            "{with_receipts}"
        );
        // Contradictory combinations are rejected, not silently ignored.
        for bad in [
            vec![path.as_str(), "--engine", "bitlane", "--threads", "2"],
            vec![path.as_str(), "--engine", "bitlane", "--partitioner", "bfs"],
            vec![path.as_str(), "--engine", "bitlane", "--churn", "mix:50:1"],
        ] {
            let args = Args::parse(bad.clone()).unwrap();
            assert!(cmd_flood(&args).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn flood_accepts_canonical_engine_specs() {
        // `--engine` takes the same canonical strings the bench JSON
        // records and the wire protocol accepts, so any recorded
        // `engine_spec` replays verbatim.
        let path = petersen_file();
        let base = cmd_flood(&Args::parse([path.as_str(), "--source", "0"]).unwrap()).unwrap();
        let args = Args::parse([
            path.as_str(),
            "--source",
            "0",
            "--engine",
            "sharded:3:round-robin",
        ])
        .unwrap();
        let out = cmd_flood(&args).unwrap();
        assert!(
            out.contains("engine: sharded x3 (round-robin partitioner)"),
            "{out}"
        );
        let args = Args::parse([path.as_str(), "--source", "0", "--engine", "fast"]).unwrap();
        let out = cmd_flood(&args).unwrap();
        assert!(
            out.contains("engine: fast (scan-all-arcs baseline)"),
            "{out}"
        );
        let args =
            Args::parse([path.as_str(), "--source", "0", "--engine", "dynamic:none"]).unwrap();
        let out = cmd_flood(&args).unwrap();
        assert!(out.contains("engine: dynamic (churn none)"), "{out}");
        // All of them reproduce the frontier record line for line after
        // the engine banner.
        for engine in ["sharded:3:round-robin", "fast", "dynamic:none"] {
            let out = cmd_flood(
                &Args::parse([path.as_str(), "--source", "0", "--engine", engine]).unwrap(),
            )
            .unwrap();
            for line in base.lines() {
                assert!(out.contains(line), "{engine}: missing '{line}' in {out}");
            }
        }
        // A parameterized sharded spec contradicts the legacy flags.
        let args = Args::parse([path.as_str(), "--engine", "sharded:3", "--threads", "2"]).unwrap();
        assert!(cmd_flood(&args).is_err());
        // Flags on a non-sharded spec are still rejected.
        let args = Args::parse([path.as_str(), "--engine", "fast", "--threads", "2"]).unwrap();
        assert!(cmd_flood(&args).is_err());
        // Malformed specs surface the parser's error.
        let args = Args::parse([path.as_str(), "--engine", "sharded:x"]).unwrap();
        assert!(cmd_flood(&args).is_err());
    }

    #[test]
    fn flood_and_predict_agree_on_source_sets() {
        let path = petersen_file();
        let flood_out =
            cmd_flood(&Args::parse([path.as_str(), "--sources", "0,7,9", "--receipts"]).unwrap())
                .unwrap();
        let predict_out =
            cmd_predict(&Args::parse([path.as_str(), "--sources", "0,7,9"]).unwrap()).unwrap();
        // Extract "terminated after round T" vs "predicted termination
        // round: T".
        let t_flood = flood_out
            .lines()
            .find_map(|l| l.strip_prefix("terminated after round "))
            .expect("terminates");
        let t_pred = predict_out
            .lines()
            .find_map(|l| l.strip_prefix("predicted termination round: "))
            .expect("prediction");
        assert_eq!(t_flood, t_pred, "{flood_out}\n{predict_out}");
        // All ten nodes hear a 3-source flood.
        assert!(flood_out.contains("informed nodes: 10 / 10"), "{flood_out}");
        // The sharded engine agrees on the same source set.
        let sharded = cmd_flood(
            &Args::parse([path.as_str(), "--sources", "0,7,9", "--threads", "3"]).unwrap(),
        )
        .unwrap();
        assert!(
            sharded.contains(&format!("terminated after round {t_flood}")),
            "{sharded}"
        );
    }

    #[test]
    fn flood_churn_runs_the_dynamic_engine() {
        let path = petersen_file();
        // Zero-churn via the dynamic engine must reproduce the static
        // flood line for line after the engine banner.
        let base = cmd_flood(&Args::parse([path.as_str(), "--source", "0"]).unwrap()).unwrap();
        let out =
            cmd_flood(&Args::parse([path.as_str(), "--source", "0", "--churn", "none"]).unwrap())
                .unwrap();
        assert!(out.contains("engine: dynamic (churn none)"), "{out}");
        for line in base.lines() {
            assert!(out.contains(line), "missing '{line}' in {out}");
        }
        // A nonzero spec is echoed and the run completes (terminated or
        // capped — both are valid findings on a dynamic graph).
        let out = cmd_flood(
            &Args::parse([path.as_str(), "--source", "0", "--churn", "mix:200:7"]).unwrap(),
        )
        .unwrap();
        assert!(out.contains("engine: dynamic (churn mix:200:7)"), "{out}");
        assert!(
            out.contains("terminated after round") || out.contains("round cap reached"),
            "{out}"
        );
        // Contradictory combinations and bad specs are rejected.
        for bad in [
            vec![path.as_str(), "--churn", "mix:50:1", "--threads", "2"],
            vec![path.as_str(), "--churn", "mix:50:1", "--engine", "frontier"],
            vec![path.as_str(), "--churn", "mix:50:1", "--partitioner", "bfs"],
            vec![path.as_str(), "--churn", "mix:50:1", "--trace"],
            vec![path.as_str(), "--churn", "warp:50:1"],
            vec![path.as_str(), "--churn", "mix:2000:1"],
        ] {
            let args = Args::parse(bad.clone()).unwrap();
            assert!(cmd_flood(&args).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn flood_rejects_bad_source() {
        let path = triangle_edge_list_file();
        let args = Args::parse([path.as_str(), "--source", "9"]).unwrap();
        assert!(cmd_flood(&args).is_err());
    }

    #[test]
    fn predict_matches_flood() {
        let path = petersen_file();
        let args = Args::parse([path.as_str(), "--source", "0"]).unwrap();
        let out = cmd_predict(&args).unwrap();
        assert!(out.contains("predicted termination round: 5"), "{out}");
        assert!(out.contains("predicted messages: 30"), "{out}");
        assert!(out.contains("paper bound: 5"), "{out}");
    }

    #[test]
    fn detect_commands() {
        let path = triangle_edge_list_file();
        let args = Args::parse([path.as_str()]).unwrap();
        let out = cmd_detect(&args).unwrap();
        assert!(out.contains("non-bipartite"), "{out}");

        let even = write_temp("c6.txt", &io::to_edge_list(&generators::cycle(6)));
        let args = Args::parse([even.as_str()]).unwrap();
        let out = cmd_detect(&args).unwrap();
        assert!(out.starts_with("bipartite"), "{out}");
    }

    #[test]
    fn certify_commands() {
        let path = triangle_edge_list_file();
        for (adv, expect) in [
            ("throttle", "NON-TERMINATING"),
            ("deliver-all", "terminates"),
            ("serial", "NON-TERMINATING"),
            ("bounded:2", "terminates"),
        ] {
            let args = Args::parse([path.as_str(), "--adversary", adv]).unwrap();
            let out = cmd_certify(&args).unwrap();
            assert!(out.contains(expect), "{adv}: {out}");
        }
        let args = Args::parse([path.as_str(), "--adversary", "nonsense"]).unwrap();
        assert!(cmd_certify(&args).is_err());
    }

    #[test]
    fn census_command() {
        let path = triangle_edge_list_file();
        let args = Args::parse([path.as_str()]).unwrap();
        let out = cmd_census(&args).unwrap();
        assert!(out.contains("configurations: 64"), "{out}");
        assert!(
            out.contains("node-initiated configurations all terminate: true"),
            "{out}"
        );
        // Too-large graphs are rejected.
        let big = write_temp("k6.g6", &io::to_graph6(&generators::complete(6)));
        let args = Args::parse([big.as_str()]).unwrap();
        assert!(cmd_census(&args).is_err());
    }

    #[test]
    fn tree_command() {
        let path = petersen_file();
        let args = Args::parse([path.as_str(), "--source", "0"]).unwrap();
        let out = cmd_tree(&args).unwrap();
        assert!(
            out.contains("spanning tree rooted at 0 (10 nodes)"),
            "{out}"
        );
        assert!(out.contains("is a BFS tree: true"), "{out}");
        assert!(out.contains("0: root"), "{out}");
    }

    #[test]
    fn info_command() {
        let path = petersen_file();
        let args = Args::parse([path.as_str()]).unwrap();
        let out = cmd_info(&args).unwrap();
        assert!(out.contains("nodes: 10"));
        assert!(out.contains("edges: 15"));
        assert!(out.contains("diameter: 2"));
        assert!(out.contains("radius: 2"));
        assert!(out.contains("bipartite: false"));
        assert!(out.contains("girth: 5"));
        assert!(out.contains("flooding bound: 5"));
    }

    #[test]
    fn info_on_disconnected_input_reports_instead_of_panicking() {
        // Regression: `info` used to compute radius with
        // `.expect("connected")` inside the diameter arm — adversarial
        // (disconnected) input must print, never panic.
        let path = write_temp("disconnected.txt", "n 4\n0 1\n2 3\n");
        let args = Args::parse([path.as_str()]).unwrap();
        let out = cmd_info(&args).unwrap();
        assert!(out.contains("connected: false"), "{out}");
        assert!(out.contains("diameter: infinite (disconnected)"), "{out}");
        assert!(out.contains("radius: infinite (disconnected)"), "{out}");
        assert!(!out.contains("flooding bound"), "{out}");
    }

    #[test]
    fn gen_command_formats() {
        let args = Args::parse(["cycle", "5"]).unwrap();
        let out = cmd_gen(&args).unwrap();
        assert!(out.starts_with("n 5"));
        let args = Args::parse(["cycle", "5", "--format", "g6"]).unwrap();
        let out = cmd_gen(&args).unwrap();
        assert_eq!(parse_graph(&out).unwrap(), generators::cycle(5));
        let args = Args::parse(["petersen", "--format", "dot"]).unwrap();
        assert!(cmd_gen(&args).unwrap().starts_with("graph petersen"));
        let args = Args::parse(["tbd"]).unwrap();
        assert!(cmd_gen(&args).is_err());
    }

    #[test]
    fn gen_new_families() {
        let args = Args::parse(["pa", "30", "2", "5"]).unwrap();
        let g = parse_graph(&cmd_gen(&args).unwrap()).unwrap();
        assert_eq!(g.node_count(), 30);
        let args = Args::parse(["rgg", "25", "0.3", "5"]).unwrap();
        let g = parse_graph(&cmd_gen(&args).unwrap()).unwrap();
        assert_eq!(g.node_count(), 25);
        let args = Args::parse(["ws", "20", "4", "0.1", "5"]).unwrap();
        let g = parse_graph(&cmd_gen(&args).unwrap()).unwrap();
        assert_eq!(g.node_count(), 20);
        let args = Args::parse(["ws", "20", "4"]).unwrap();
        assert!(cmd_gen(&args).is_err());
    }

    #[test]
    fn bench_smoke_writes_json_and_summarizes() {
        let dir = std::env::temp_dir().join("af-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("bench.json");
        let args = Args::parse([
            "--out",
            out.to_str().unwrap(),
            "--threads",
            "2",
            "--sources",
            "2",
        ])
        .unwrap();
        let text = cmd_bench(&args).unwrap();
        assert!(text.contains("engines agree: true"), "{text}");
        assert!(text.contains("|S| = 2"), "{text}");
        assert!(text.contains("shardedx2(bfs)"), "{text}");
        let written = std::fs::read_to_string(&out).unwrap();
        assert!(written.contains("\"flooding_throughput\""));
        assert!(written.contains("\"schema_version\": 6"));
        assert!(written.contains("\"engine_spec\": \"sharded:2:bfs\""));
        assert!(written.contains("\"sharded\""));
        assert!(written.contains("\"dynamic\""));
        assert!(written.contains("\"bitlane\""));
        assert!(written.contains("\"lanes\": 2"));
        assert!(written.contains("\"partitioner\": \"bfs\""));
        assert!(written.contains("\"sources\": 2"));
        assert!(written.contains("\"source_sets\""));
        assert!(written.contains("\"churn\": \"none\""));
        assert!(written.contains("\"floods_terminated\""));
        // A zero-size source set is rejected up front.
        let args = Args::parse(["--sources", "0"]).unwrap();
        assert!(cmd_bench(&args).is_err());
        // A malformed churn spec too.
        let args = Args::parse(["--churn", "warp:5:1"]).unwrap();
        assert!(cmd_bench(&args).is_err());
    }

    #[test]
    fn bench_help_prints_usage_and_unknown_flags_are_errors() {
        // `--help` answers at once with the usage: no case runs, so no
        // "bench:" progress line and no summary table.
        let text = cmd_bench(&Args::parse(["--help"]).unwrap()).unwrap();
        assert!(text.starts_with("usage: amnesiac bench"), "{text}");
        assert!(!text.contains("engines agree"), "{text}");
        // Unknown flags and stray arguments are argument errors, caught
        // before anything runs.
        for raw in [&["--smoke"][..], &["--full", "--thread", "2"], &["full"]] {
            let err = cmd_bench(&Args::parse(raw.iter().copied()).unwrap()).unwrap_err();
            assert!(
                err.downcast_ref::<crate::args::ArgError>().is_some(),
                "{raw:?}: {err}"
            );
        }
    }

    #[test]
    fn gen_roundtrips_through_flood() {
        // Generate -> parse -> flood: the full pipeline.
        let args = Args::parse(["gnp", "20", "0.2", "7"]).unwrap();
        let text = cmd_gen(&args).unwrap();
        let g = parse_graph(&text).unwrap();
        let run = af_core::flood(&g, 0.into());
        assert!(run.terminated());
    }

    #[test]
    fn dispatch_routes_and_rejects() {
        let args = Args::parse(Vec::<String>::new()).unwrap();
        assert!(dispatch("help", &args).unwrap().contains("amnesiac"));
        assert!(dispatch("bogus", &args).is_err());
    }
}
