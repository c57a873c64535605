//! `grid-batch` and `random-batch`: back-to-back
//! `FloodRequest::execute` calls from one thread, each a batch of 64
//! seeded-random single-source floods on the default engine.

use std::hint::black_box;
use std::time::{Duration, Instant};

use af_analysis::GraphSpec;
use af_core::api::{ErrorResponse, FloodRequest, FloodResponse};
use af_graph::{io, Graph, NodeId};

use crate::layers::{self, Oracle, Stages};
use crate::trace::{mean, median, ms, peak_rss_mb, quantile, Report, Rng, Tracer};
use crate::Config;

/// Floods per request.
const FLOODS: usize = 64;
/// Rotated repeats of the engine comparison.
const ENGINE_REPEATS: usize = 2;
/// A traced request reconciles when its stage spans cover its wall time
/// to within this many ns plus [`RECON_TOL_FRAC`] of the wall time.
const RECON_TOL_NS: u64 = 100_000;
const RECON_TOL_FRAC: f64 = 0.01;

struct Sample {
    sets: Vec<Vec<usize>>,
    response: Result<FloodResponse, ErrorResponse>,
    wall_ns: u64,
    stages: Option<Stages>,
}

fn next_request(rng: &mut Rng, n: usize) -> FloodRequest {
    FloodRequest {
        source_sets: (0..FLOODS).map(|_| vec![rng.below(n)]).collect(),
        engine: String::new(),
        max_rounds: 0,
    }
}

/// Untraced requests until `deadline`: the end-to-end measurement.
fn measure(graph: &Graph, rng: &mut Rng, deadline: Instant, out: &mut Vec<Sample>) {
    loop {
        let request = next_request(rng, graph.node_count());
        let t = Instant::now();
        let response = black_box(black_box(&request).execute(graph));
        let wall_ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        out.push(Sample {
            sets: request.source_sets,
            response,
            wall_ns,
            stages: None,
        });
        if Instant::now() >= deadline {
            return;
        }
    }
}

/// Runs one batch workload on the graph `spec` builds. Set-up builds
/// the graph `setup_repeats` times; `setup_s` is their median.
pub fn run(
    cfg: &Config,
    spec: &GraphSpec,
    setup_repeats: usize,
    report: &mut Report,
    tracer: &mut Tracer,
) {
    let mut setup_s = Vec::new();
    let mut graph: Option<Graph> = None;
    for _ in 0..setup_repeats.max(1) {
        drop(graph.take());
        let t0 = tracer.now_ns();
        let g = black_box(spec.build());
        let t1 = tracer.now_ns();
        tracer.record("graph.build", None, 0, t0, t1);
        setup_s.push(ms(t1 - t0) / 1e3);
        graph = Some(g);
    }
    let graph = graph.expect("at least one set-up builds the graph");
    let n = graph.node_count();
    report.note(format!(
        "graph: {spec:?}: {n} nodes, {} edges",
        graph.edge_count()
    ));

    let mut rng = Rng::new(cfg.seed, 1);
    // One warm-up request, checked but not timed.
    let warm = next_request(&mut rng, n);
    let mut samples = vec![Sample {
        response: warm.execute(&graph),
        sets: warm.source_sets,
        wall_ns: 0,
        stages: None,
    }];
    let mut timed = Vec::new();
    let window = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    measure(
        &graph,
        &mut rng,
        Instant::now() + Duration::from_secs_f64(window),
        &mut timed,
    );

    // Traced phase: the same request stream, each request split into
    // its stages, with the counting probe attached.
    let (counts, probe) = layers::counting_probe();
    let mut traced = Vec::new();
    if cfg.trace {
        let deadline = Instant::now() + Duration::from_secs_f64(window);
        let mut id = 0u64;
        loop {
            id += 1;
            let request = next_request(&mut rng, n);
            let (response, stages) = layers::traced_execute(&graph, &request, tracer, id, &probe);
            traced.push(Sample {
                sets: request.source_sets,
                response,
                wall_ns: stages.wall,
                stages: Some(stages),
            });
            if Instant::now() >= deadline {
                break;
            }
        }
    }
    let rss = peak_rss_mb("self").unwrap_or(0.0);

    // End-to-end metrics, from the untraced requests only.
    let walls: Vec<f64> = timed.iter().map(|s| ms(s.wall_ns)).collect();
    let rates: Vec<f64> = timed
        .iter()
        .filter_map(|s| {
            let r = s.response.as_ref().ok()?;
            let msgs: u64 = r.floods.iter().map(|f| f.messages).sum();
            Some(msgs as f64 / (s.wall_ns as f64 / 1e9))
        })
        .collect();
    report.e2e("setup_s", median(&setup_s), "s");
    report.e2e("msgs_per_s", median(&rates), "messages/s");
    report.e2e("lat_p50_ms", median(&walls), "ms");
    report.e2e("lat_p99_ms", quantile(&walls, 0.99), "ms");
    report.e2e("peak_rss_mb", rss, "MiB");
    let engine = timed
        .iter()
        .find_map(|s| s.response.as_ref().ok().map(|r| r.engine.clone()))
        .unwrap_or_default();
    report.note(format!(
        "requests: {} timed of {FLOODS} floods each ({} traced); engine {engine}",
        timed.len(),
        traced.len(),
    ));
    report.provenance.insert("engine_ran", engine);

    if cfg.trace {
        report_layers(&graph, &timed, &traced, &counts.borrow(), report, tracer);
        let text = io::to_edge_list(&graph);
        let t = tracer.open("graph.parse", None, 0);
        let parsed = io::from_text(&text);
        let parse_ms = ms(tracer.close(t));
        report.check(match parsed {
            Ok(g) if g == graph => None,
            _ => Some("graph text does not parse back to the graph".to_owned()),
        });
        report.layer("graph.parse_ms", parse_ms, "ms");
        report.layer("graph.build_ms", median(&setup_s) * 1e3, "ms");
        let sets: Vec<Vec<NodeId>> = traced
            .first()
            .map(|s| s.sets.iter().map(|v| vec![NodeId::new(v[0])]).collect())
            .unwrap_or_default();
        let rows = layers::compare_engines(&graph, &sets, ENGINE_REPEATS, report, tracer);
        layers::report_engines(&rows, report);
    }

    // Correctness gate, outside every timed window, on two threads with
    // an oracle each.
    samples.extend(timed);
    samples.extend(traced);
    let half = samples.len() / 2;
    let check = |part: &[Sample]| {
        let mut oracle = Oracle::new(&graph);
        let verdicts: Vec<Option<String>> = part
            .iter()
            .map(|s| layers::check_batch(&mut oracle, &s.sets, &s.response))
            .collect();
        (oracle, verdicts)
    };
    let ((mut oracle, mut verdicts), (other, rest)) = std::thread::scope(|scope| {
        let right = scope.spawn(|| check(&samples[half..]));
        let left = check(&samples[..half]);
        (left, right.join().expect("oracle thread panicked"))
    });
    verdicts.extend(rest);
    for v in verdicts {
        report.check(v);
    }
    oracle.spot_check(&graph, samples[0].sets[0][0], report);
    oracle.query_ms.extend(other.query_ms);
    report.layer("theory.index_build_ms", oracle.build_ms, "ms");
    report.layer("theory.predict_ms", median(&oracle.query_ms), "ms");
}

fn report_layers(
    graph: &Graph,
    timed: &[Sample],
    traced: &[Sample],
    counts: &layers::EngineCounts,
    report: &mut Report,
    tracer: &Tracer,
) {
    let stages: Vec<Stages> = traced.iter().filter_map(|s| s.stages).collect();
    let col = |f: fn(&Stages) -> u64| stages.iter().map(|s| ms(f(s))).collect::<Vec<f64>>();
    let other: Vec<f64> = stages
        .iter()
        .map(|s| ms(s.wall.saturating_sub(s.setup + s.run)))
        .collect();
    let msgs_per_request = traced.iter().filter_map(|s| {
        let r = s.response.as_ref().ok()?;
        Some(r.floods.iter().map(|f| f.messages).sum::<u64>())
    });
    let ns_per_msg: Vec<f64> = stages
        .iter()
        .zip(msgs_per_request)
        .filter(|(_, m)| *m > 0)
        .map(|(s, m)| s.run as f64 / m as f64)
        .collect();
    report.layer("core.batch.setup_ms", median(&col(|s| s.setup)), "ms");
    report.layer("core.batch.run_ms", median(&col(|s| s.run)), "ms");
    report.layer("core.api.other_ms", median(&other), "ms");
    report.layer("core.engine.ns_per_msg", median(&ns_per_msg), "ns");
    let floods = (traced.len() * FLOODS).max(1) as f64;
    counts.report(floods, report);

    // Reconciliation: the measured stages must cover each request's
    // wall time, and the traced wall time must match the untraced one.
    let residual: Vec<f64> = stages
        .iter()
        .map(|s| ms(s.wall.saturating_sub(s.setup + s.run + s.other_measured)))
        .collect();
    let unreconciled = stages
        .iter()
        .filter(|s| {
            let gap = s.wall.saturating_sub(s.setup + s.run + s.other_measured);
            gap as f64 > RECON_TOL_NS as f64 + RECON_TOL_FRAC * s.wall as f64
        })
        .count();
    let untraced = median(&timed.iter().map(|s| ms(s.wall_ns)).collect::<Vec<_>>());
    let traced_wall = median(&col(|s| s.wall));
    let overhead = if untraced > 0.0 {
        traced_wall / untraced - 1.0
    } else {
        0.0
    };
    report.layer("trace.overhead_frac", overhead, "ratio");
    report.layer("trace.recon_residual_ms", mean(&residual), "ms");
    report.note(format!(
        "reconcile: setup+run+other = execute wall within {} ms + {}% on {}/{} traced requests; mean residual {:.4} ms",
        ms(RECON_TOL_NS),
        RECON_TOL_FRAC * 100.0,
        stages.len() - unreconciled,
        stages.len(),
        mean(&residual)
    ));
    layers::require_reconciled(unreconciled, stages.len(), report);
    report.note(format!(
        "reconcile: traced execute median {traced_wall:.3} ms vs untraced {untraced:.3} ms: tracing overhead {:+.2}%",
        overhead * 100.0
    ));
    report.note(format!(
        "graph: {} arcs; {} spans recorded",
        graph.arc_count(),
        tracer.len()
    ));
}
