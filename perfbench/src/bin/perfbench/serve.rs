//! `serve-mixed`: a real `af-serve --pool 2` daemon on loopback TCP,
//! driven open loop from one connection by a sender that follows a
//! seeded Poisson schedule and a receiver. The mix is ~85% `Predict`,
//! ~12% `Flood` on the default engine and ~3% `Mutate`, each `Mutate`
//! toggling one fixed edge set out of the graph and back in.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

use af_analysis::GraphSpec;
use af_core::api::FloodRequest;
use af_core::theory::PredictSummary;
use af_graph::dynamic::GraphDelta;
use af_graph::{io, Graph, NodeId};
use af_serve::protocol::MetricsReport;
use af_serve::{Envelope, Registry, Request, Response, TaggedResponse};

use crate::layers::{self, Oracle, Stages};
use crate::trace::{mean, median, ms, peak_rss_mb, quantile, Report, Rng, Tracer};
use crate::{Config, SERVE_RATE, SERVE_SLO_MS};

const SPEC: GraphSpec = GraphSpec::PreferentialAttachment {
    n: 25_000,
    k: 4,
    seed: 2,
};
const GRAPH: &str = "g";
/// Daemon set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 11;
/// Edges each `Mutate` toggles.
const TOGGLE_EDGES: usize = 8;
/// Every `MUTATE_EVERY`-th request is a `Mutate` (~3%), evenly spaced
/// so that each run holds the same number of writes; of the others,
/// `FLOOD_SHARE` are `Flood`s (~12% of all) and the rest `Predict`s.
const MUTATE_EVERY: usize = 33;
const FLOOD_SHARE: f64 = 12.0 / 97.0;
/// How long the receiver waits for answers after the last send.
const DRAIN_GRACE: Duration = Duration::from_secs(5);
/// How long a bare request or the daemon's exit may take.
const CALL_TIMEOUT: Duration = Duration::from_secs(60);
/// Read timeout on the client socket: how often a blocked read wakes to
/// check its deadline.
const POLL: Duration = Duration::from_millis(50);
/// A run whose sender fell further behind schedule than this at p99 is
/// invalid: it measured the generator, not the daemon. The bound is one
/// mean gap between arrivals, past which the sent stream no longer
/// follows the scheduled arrival pattern.
const LATE_BOUND_MS: f64 = 1e3 / SERVE_RATE;
/// A replayed request reconciles when its in-process stages
/// (parse + exec + serialize) exceed its client latency by at most this
/// much, that is, when `serve.wait_ms` is no more negative than this.
const RECON_TOL_MS: f64 = 1.0;
/// Engine comparison on this workload: sources and rotated repeats.
const COMPARE_FLOODS: usize = 64;
const ENGINE_REPEATS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verb {
    Predict,
    Flood,
    Mutate,
}

struct Planned {
    at_ns: u64,
    verb: Verb,
    source: usize,
    line: String,
}

/// What the client saw for one request.
#[derive(Default, Clone)]
struct Seen {
    sent_ns: u64,
    recv_ns: Option<u64>,
    response: Option<Response>,
}

/// A spawned daemon plus the client connection used for bare requests.
struct Daemon {
    child: Child,
    stderr: BufReader<ChildStderr>,
    conn: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Daemon {
    /// Starts the daemon at a lower scheduling priority than the load
    /// generator. On a 2-core host the daemon's two workers can hold both
    /// cores while the sender waits to wake for its next send; at nice 10
    /// they yield to it. The generator needs the CPU only briefly, so the
    /// daemon's share is otherwise unchanged.
    fn spawn(bin: &Path) -> Result<Daemon, String> {
        let mut child = Command::new("nice")
            .args(["-n", "10"])
            .arg(bin)
            .args(["--listen", "127.0.0.1:0", "--pool", "2"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let Some(stderr) = child.stderr.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("daemon stderr not captured".to_owned());
        };
        let mut stderr = BufReader::new(stderr);
        let mut line = String::new();
        let _ = stderr.read_line(&mut line);
        let connected = line
            .trim()
            .strip_prefix("listening on ")
            .ok_or_else(|| format!("daemon did not start: {line:?}"))
            .and_then(|addr| TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}")))
            .and_then(|conn| {
                conn.set_nodelay(true).map_err(|e| e.to_string())?;
                // Clones share the socket, so this also bounds every
                // blocking read in `drive`.
                conn.set_read_timeout(Some(POLL))
                    .map_err(|e| e.to_string())?;
                let reader = BufReader::new(conn.try_clone().map_err(|e| e.to_string())?);
                Ok((conn, reader))
            });
        match connected {
            Ok((conn, reader)) => Ok(Daemon {
                child,
                stderr,
                conn,
                reader,
            }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(e)
            }
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Sends one bare request and returns its response, skipping any
    /// late tagged answers still in flight.
    fn call(&mut self, request: &Request) -> Result<Response, String> {
        let line = serde_json::to_string(request).map_err(|e| e.to_string())?;
        self.conn
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let deadline = Instant::now() + CALL_TIMEOUT;
        let mut buf = Vec::new();
        loop {
            match self.reader.read_until(b'\n', &mut buf) {
                Ok(0) => return Err("daemon closed the connection".to_owned()),
                Ok(_) if buf.ends_with(b"\n") => {
                    let parsed = std::str::from_utf8(&buf)
                        .ok()
                        .and_then(|t| serde_json::from_str::<Response>(t.trim()).ok());
                    if let Some(r) = parsed {
                        return Ok(r);
                    }
                    buf.clear();
                }
                Ok(_) => {}
                Err(e) if is_timeout(&e) => {}
                Err(e) => return Err(format!("receive: {e}")),
            }
            if Instant::now() > deadline {
                return Err(format!("no answer within {CALL_TIMEOUT:?}"));
            }
        }
    }

    /// Asks the daemon to drain and waits for it to exit.
    fn shutdown(mut self) -> Result<(), String> {
        let acked = matches!(self.call(&Request::Shutdown), Ok(Response::ShuttingDown));
        let _ = self.conn.shutdown(std::net::Shutdown::Both);
        let deadline = Instant::now() + CALL_TIMEOUT;
        let status = loop {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                break status;
            }
            if Instant::now() > deadline {
                return Err(format!("daemon did not exit within {CALL_TIMEOUT:?}"));
            }
            std::thread::sleep(POLL);
        };
        let mut tail = String::new();
        let _ = self.stderr.read_to_string(&mut tail);
        if acked && status.success() {
            Ok(())
        } else {
            Err(format!("daemon exit {status}: {}", tail.trim()))
        }
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Reached after `shutdown` too, where both calls are no-ops on
        // the reaped child; on every other path this stops the daemon.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawns a daemon, loads the graph text and makes the first `Predict`,
/// which builds the index: the set-up a user pays before serving.
fn set_up(
    bin: &Path,
    text: &str,
    first: usize,
    oracle: &mut Oracle,
    report: &mut Report,
) -> Result<(Daemon, f64), String> {
    let t = Instant::now();
    let mut daemon = Daemon::spawn(bin)?;
    let loaded = daemon.call(&Request::Load {
        name: GRAPH.to_owned(),
        graph: text.to_owned(),
    })?;
    let predicted = daemon.call(&Request::Predict {
        graph: GRAPH.to_owned(),
        source_sets: vec![vec![first]],
    })?;
    let secs = t.elapsed().as_secs_f64();
    report.check(match loaded {
        Response::Registered { .. } => None,
        other => Some(format!("Load answered {other:?}")),
    });
    let want = oracle.single(first);
    report.check(match predicted {
        Response::Predicted { predictions } if predictions == [want] => None,
        other => Some(format!("first Predict answered {other:?}, oracle {want:?}")),
    });
    Ok((daemon, secs))
}

fn plan(rng: &mut Rng, graph: &Graph, toggle: &[(usize, usize)], cfg: &Config) -> Vec<Planned> {
    let n = graph.node_count();
    let mut out = Vec::new();
    let mut t = 0.0f64;
    let mut mutates = 0usize;
    loop {
        t += -(1.0 - rng.unit()).ln() / SERVE_RATE;
        if t >= cfg.seconds {
            return out;
        }
        let u = rng.unit();
        let source = rng.below(n);
        let id = out.len() as u64;
        let (verb, request) = if out.len() % MUTATE_EVERY == MUTATE_EVERY - 1 {
            mutates += 1;
            let edges = toggle.to_vec();
            let delta = if mutates % 2 == 1 {
                GraphDelta {
                    delete_edges: edges,
                    ..GraphDelta::default()
                }
            } else {
                GraphDelta {
                    insert_edges: edges,
                    ..GraphDelta::default()
                }
            };
            (
                Verb::Mutate,
                Request::Mutate {
                    graph: GRAPH.to_owned(),
                    deltas: vec![delta],
                },
            )
        } else if u < FLOOD_SHARE {
            (
                Verb::Flood,
                Request::Flood {
                    graph: GRAPH.to_owned(),
                    sources: vec![source],
                    engine: String::new(),
                    max_rounds: 0,
                },
            )
        } else {
            (
                Verb::Predict,
                Request::Predict {
                    graph: GRAPH.to_owned(),
                    source_sets: vec![vec![source]],
                },
            )
        };
        let line = serde_json::to_string(&Envelope { id, request })
            .expect("requests serialize: they hold only strings and integers");
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        out.push(Planned {
            at_ns: (t * 1e9) as u64,
            verb,
            source,
            line,
        });
    }
}

/// Sends `plan` open loop on the daemon's connection and collects what
/// comes back. Sender and receiver are two threads.
///
/// Times in the returned records are ns after the schedule's start,
/// which is returned too, as ns after `epoch`.
fn drive(
    daemon: &mut Daemon,
    plan: &[Planned],
    epoch: Instant,
) -> Result<(Vec<Seen>, u64), String> {
    let mut writer = daemon.conn.try_clone().map_err(|e| e.to_string())?;
    let reader = &mut daemon.reader;
    let ns = |at: Instant| u64::try_from(at.duration_since(epoch).as_nanos()).unwrap_or(u64::MAX);
    let start = Instant::now() + Duration::from_millis(20);
    let start_ns = ns(start);
    let last = plan.last().map_or(0, |p| p.at_ns);
    let give_up = start + Duration::from_nanos(last) + DRAIN_GRACE;
    let mut seen = vec![Seen::default(); plan.len()];
    let (sent, received) = std::thread::scope(|scope| {
        let sender = scope.spawn(move || -> Result<Vec<u64>, String> {
            let mut sent = Vec::with_capacity(plan.len());
            for p in plan {
                let due = start + Duration::from_nanos(p.at_ns);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                sent.push(ns(Instant::now()));
                writer
                    .write_all(p.line.as_bytes())
                    .and_then(|()| writer.write_all(b"\n"))
                    .map_err(|e| format!("send: {e}"))?;
            }
            Ok(sent)
        });
        let mut received: Vec<(u64, u64, Response)> = Vec::with_capacity(plan.len());
        let mut buf = Vec::new();
        while received.len() < plan.len() && Instant::now() < give_up {
            match reader.read_until(b'\n', &mut buf) {
                Ok(0) => break,
                Ok(_) if buf.ends_with(b"\n") => {
                    let at = ns(Instant::now());
                    if let Ok(text) = std::str::from_utf8(&buf) {
                        if let Ok(t) = serde_json::from_str::<TaggedResponse>(text.trim()) {
                            received.push((t.id, at, t.response));
                        }
                    }
                    buf.clear();
                }
                Ok(_) => {}
                Err(e) if is_timeout(&e) => {}
                Err(_) => break,
            }
        }
        let sent = sender
            .join()
            .map_err(|_| "sender thread panicked".to_owned())
            .and_then(|r| r);
        (sent, received)
    });
    let sent = sent?;
    for (i, s) in sent.into_iter().enumerate() {
        seen[i].sent_ns = s.saturating_sub(start_ns);
    }
    for (id, at, response) in received {
        if let Some(s) = usize::try_from(id).ok().and_then(|i| seen.get_mut(i)) {
            s.recv_ns = Some(at.saturating_sub(start_ns));
            s.response = Some(response);
        }
    }
    Ok((seen, start_ns))
}

/// The two graph versions a `Mutate` toggles between, with an oracle
/// each, and the answers either version allows.
struct Versions {
    full: Oracle,
    cut: Oracle,
    edges: (usize, usize),
}

impl Versions {
    fn check(&mut self, verb: Verb, source: usize, response: Option<&Response>) -> Option<String> {
        let Some(response) = response else {
            return Some(format!("{verb:?} from {source}: no answer"));
        };
        let (a, b) = (self.full.single(source), self.cut.single(source));
        let either = |p: &PredictSummary| *p == a || *p == b;
        let ok = match (verb, response) {
            (Verb::Predict, Response::Predicted { predictions }) => {
                predictions.len() == 1 && either(&predictions[0])
            }
            (Verb::Flood, Response::Flooded(r)) => {
                r.floods.len() == 1
                    && (layers::flood_matches(&r.floods[0], &a)
                        || layers::flood_matches(&r.floods[0], &b))
            }
            (
                Verb::Mutate,
                Response::Mutated {
                    edges,
                    edits_applied,
                    edits_skipped,
                    ..
                },
            ) => {
                edits_applied + edits_skipped == TOGGLE_EDGES
                    && (*edges == self.edges.0 || *edges == self.edges.1)
            }
            _ => false,
        };
        (!ok).then(|| {
            format!("{verb:?} from {source}: answered {response:?}, oracle {a:?} or {b:?}")
        })
    }
}

pub fn run(cfg: &Config, report: &mut Report, tracer: &mut Tracer) -> Result<(), String> {
    let bin = cfg
        .serve_bin
        .clone()
        .ok_or("serve-mixed needs --serve-bin, the af-serve daemon")?;
    let mut build_ms = Vec::new();
    let mut graph = None;
    for _ in 0..SETUP_REPEATS {
        drop(graph.take());
        let t = tracer.open("graph.build", None, 0);
        let g = SPEC.build();
        build_ms.push(ms(tracer.close(t)));
        graph = Some(g);
    }
    let graph = graph.expect("SETUP_REPEATS > 0 builds the graph");
    let text = io::to_edge_list(&graph);
    let mut rng = Rng::new(cfg.seed, 3);
    let all_edges: Vec<(usize, usize)> = graph
        .edge_list()
        .map(|(u, v)| (u.index(), v.index()))
        .collect();
    let mut toggle: Vec<(usize, usize)> = Vec::new();
    while toggle.len() < TOGGLE_EDGES {
        let e = all_edges[rng.below(all_edges.len())];
        if !toggle.contains(&e) {
            toggle.push(e);
        }
    }
    let cut = Graph::from_edges(
        graph.node_count(),
        all_edges.iter().copied().filter(|e| !toggle.contains(e)),
    )
    .map_err(|e| format!("cut graph: {e}"))?;
    let plan = plan(&mut rng, &graph, &toggle, cfg);
    let mut versions = Versions {
        full: Oracle::new(&graph),
        cut: Oracle::new(&cut),
        edges: (graph.edge_count(), cut.edge_count()),
    };
    report.note(format!(
        "graph: {SPEC:?}: {} nodes, {} edges; {} requests planned at {}/s for {} s",
        graph.node_count(),
        graph.edge_count(),
        plan.len(),
        SERVE_RATE,
        cfg.seconds
    ));

    // Set-up, several times; the last daemon serves the run.
    let first = plan.first().map_or(0, |p| p.source);
    let mut setup_s = Vec::new();
    let mut daemon = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(d) = daemon.take() {
            Daemon::shutdown(d)?;
        }
        let (d, secs) = set_up(&bin, &text, first, &mut versions.full, report)?;
        setup_s.push(secs);
        daemon = Some(d);
    }
    let mut daemon = daemon.expect("SETUP_REPEATS > 0 starts a daemon");

    let (seen, start_ns) = drive(&mut daemon, &plan, tracer.epoch())?;
    let metrics = match daemon.call(&Request::Metrics)? {
        Response::Metrics(m) => Some(m),
        _ => None,
    };
    let rss = peak_rss_mb(&daemon.pid()).unwrap_or(0.0);
    daemon.shutdown()?;

    // End-to-end metrics: latency from each request's scheduled time.
    let lat: Vec<f64> = plan
        .iter()
        .zip(&seen)
        .filter_map(|(p, s)| s.recv_ns.map(|r| ms(r.saturating_sub(p.at_ns))))
        .collect();
    let flood_rates: Vec<f64> = plan
        .iter()
        .zip(&seen)
        .filter_map(|(p, s)| match (&s.response, s.recv_ns) {
            (Some(Response::Flooded(r)), Some(recv)) => {
                let msgs: u64 = r.floods.iter().map(|f| f.messages).sum();
                Some(msgs as f64 / (recv.saturating_sub(p.at_ns) as f64 / 1e9))
            }
            _ => None,
        })
        .collect();
    // Fill both oracles' memos on two threads; the checks below then
    // only look answers up.
    let sources: Vec<usize> = plan.iter().map(|p| p.source).collect();
    let Versions {
        full,
        cut: cut_oracle,
        ..
    } = &mut versions;
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for &s in &sources {
                full.single(s);
            }
        });
        for &s in &sources {
            cut_oracle.single(s);
        }
    });
    let mut wrong = 0usize;
    let mut slo_miss = 0usize;
    for (p, s) in plan.iter().zip(&seen) {
        let err = versions.check(p.verb, p.source, s.response.as_ref());
        let late = s
            .recv_ns
            .is_none_or(|r| ms(r.saturating_sub(p.at_ns)) > SERVE_SLO_MS);
        wrong += usize::from(err.is_some());
        slo_miss += usize::from(err.is_some() || late);
        report.check(err);
    }
    report.e2e("setup_s", median(&setup_s), "s");
    report.e2e("msgs_per_s", median(&flood_rates), "messages/s");
    report.e2e("lat_p50_ms", median(&lat), "ms");
    report.e2e("lat_p99_ms", quantile(&lat, 0.99), "ms");
    report.e2e("peak_rss_mb", rss, "MiB");
    let sent = plan.len().max(1) as f64;
    report
        .extra
        .push(("slo_miss_frac", slo_miss as f64 / sent, "ratio"));
    let late: Vec<f64> = plan
        .iter()
        .zip(&seen)
        .map(|(p, s)| ms(s.sent_ns.saturating_sub(p.at_ns)))
        .collect();
    let late_p99 = quantile(&late, 0.99);
    report.note(format!(
        "latency ms: mean {:.3} p10 {:.3} p25 {:.3} p50 {:.3} p75 {:.3} p90 {:.3} p99 {:.3} max {:.3} over {} answers",
        mean(&lat),
        quantile(&lat, 0.10),
        quantile(&lat, 0.25),
        quantile(&lat, 0.50),
        quantile(&lat, 0.75),
        quantile(&lat, 0.90),
        quantile(&lat, 0.99),
        quantile(&lat, 1.0),
        lat.len()
    ));
    let counts = [Verb::Predict, Verb::Flood, Verb::Mutate]
        .map(|v| plan.iter().filter(|p| p.verb == v).count());
    report.note(format!(
        "requests: {} sent ({} Predict, {} Flood, {} Mutate), {} answered, {wrong} wrong; \
         SLO: p99 within {SERVE_SLO_MS} ms",
        plan.len(),
        counts[0],
        counts[1],
        counts[2],
        lat.len()
    ));
    report.note(format!(
        "loadgen: open loop, Poisson {SERVE_RATE}/s, p99 {late_p99:.3} ms behind schedule (bound {LATE_BOUND_MS:.3} ms)"
    ));
    if late_p99 > LATE_BOUND_MS {
        report.invalidate(format!(
            "the generator sent {late_p99:.3} ms behind schedule at p99, over {LATE_BOUND_MS:.3} ms"
        ));
    }
    if let Some(engine) = seen.iter().find_map(|s| match &s.response {
        Some(Response::Flooded(r)) => Some(r.engine.clone()),
        _ => None,
    }) {
        report.provenance.insert("engine_ran", engine);
    }

    if cfg.trace {
        report.layer("loadgen.late_ms_p99", late_p99, "ms");
        report.layer("graph.build_ms", median(&build_ms), "ms");
        let t = tracer.open("graph.parse", None, 0);
        let parsed = io::from_text(&text);
        report.layer("graph.parse_ms", ms(tracer.close(t)), "ms");
        report.check(match parsed {
            Ok(g) if g == graph => None,
            _ => Some("graph text does not parse back to the graph".to_owned()),
        });
        if let Some(m) = &metrics {
            daemon_layers(m, report);
        }
        replay_layers(&text, &plan, &seen, start_ns, &mut versions, report, tracer)?;
        core_layers(&graph, &plan, report, tracer);
    }
    report.layer("theory.index_build_ms", versions.full.build_ms, "ms");
    let mut queries = versions.full.query_ms.clone();
    queries.extend(&versions.cut.query_ms);
    report.layer("theory.predict_ms", median(&queries), "ms");
    versions.full.spot_check(&graph, first, report);
    versions.cut.spot_check(&cut, first, report);
    Ok(())
}

fn daemon_layers(m: &MetricsReport, report: &mut Report) {
    for (verb, name) in [
        ("Predict", "serve.daemon_p99_ms.predict"),
        ("Flood", "serve.daemon_p99_ms.flood"),
        ("Mutate", "serve.daemon_p99_ms.mutate"),
    ] {
        if let Some(v) = m.verbs.iter().find(|v| v.verb == verb) {
            report.layer(name, v.p99_us as f64 / 1e3, "ms");
        }
    }
}

/// Does the registry hold a predict index for the graph?
fn indexed(registry: &Registry) -> bool {
    match registry.execute(&Request::Stats) {
        Response::Stats(stats) => stats.graphs.iter().any(|g| g.name == GRAPH && g.indexed),
        _ => false,
    }
}

/// Replays the run's request stream in process, in schedule order,
/// through the serve layer's own calls: parse the envelope line,
/// `Registry::execute`, serialize the tagged response.
fn replay_layers(
    text: &str,
    plan: &[Planned],
    seen: &[Seen],
    start_ns: u64,
    versions: &mut Versions,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let fresh = || -> Result<Registry, String> {
        let registry = Registry::new();
        match registry.execute(&Request::Load {
            name: GRAPH.to_owned(),
            graph: text.to_owned(),
        }) {
            Response::Registered { .. } => {}
            other => return Err(format!("replay Load answered {other:?}")),
        }
        let _ = registry.execute(&Request::Predict {
            graph: GRAPH.to_owned(),
            source_sets: vec![vec![0]],
        });
        Ok(registry)
    };
    // A pass with no spans over the same work, for the tracing overhead.
    let registry = fresh()?;
    let t = Instant::now();
    for p in plan {
        let out = serde_json::from_str::<Envelope>(&p.line).map(|env| {
            let response = registry.execute(&env.request);
            serde_json::to_string(&TaggedResponse {
                id: env.id,
                response,
            })
        });
        std::hint::black_box(out).ok();
    }
    let plain = t.elapsed().as_secs_f64();

    let registry = fresh()?;
    let mut parse = Vec::new();
    let mut ser = Vec::new();
    let mut exec: [Vec<f64>; 3] = Default::default();
    let mut wait = Vec::new();
    let mut over = Vec::new();
    let (mut predicts, mut warm, mut cold_answered) = (0usize, 0usize, 0usize);
    let mut traced_ns = 0u64;
    for (i, (p, s)) in plan.iter().zip(seen).enumerate() {
        let id = i as u64;
        // Whether the registry holds an index, read from its own state
        // before the request and outside every span.
        let cold = p.verb == Verb::Predict && !indexed(&registry);
        if p.verb == Verb::Predict {
            predicts += 1;
            warm += usize::from(!cold);
        }
        let outer = tracer.open("serve.replay", None, id);
        let a = tracer.open("serve.parse", Some(outer), id);
        let env: Result<Envelope, _> = serde_json::from_str(&p.line);
        let parse_ns = tracer.close(a);
        let Ok(env) = env else {
            report.check(Some(format!("request {id} does not parse")));
            continue;
        };
        let name = match p.verb {
            Verb::Predict => "serve.exec.predict",
            Verb::Flood => "serve.exec.flood",
            Verb::Mutate => "serve.exec.mutate",
        };
        let b = tracer.open(name, Some(outer), id);
        let response = registry.execute(&env.request);
        let exec_ns = tracer.close(b);
        let c = tracer.open("serve.serialize", Some(outer), id);
        let out = serde_json::to_string(&TaggedResponse {
            id: env.id,
            response,
        });
        let ser_ns = tracer.close(c);
        traced_ns += tracer.close(outer);
        let response = out
            .ok()
            .and_then(|o| serde_json::from_str::<TaggedResponse>(&o).ok())
            .map(|t| t.response);
        report.check(versions.check(p.verb, p.source, response.as_ref()));
        parse.push(parse_ns as f64 / 1e3);
        ser.push(ser_ns as f64 / 1e3);
        exec[p.verb as usize].push(ms(exec_ns));
        if let Some(recv) = s.recv_ns {
            // The client's span for the same request id.
            tracer.record(
                "client.request",
                None,
                id,
                start_ns + p.at_ns,
                start_ns + recv,
            );
            let latency = ms(recv.saturating_sub(p.at_ns));
            let parts = ms(parse_ns + exec_ns + ser_ns);
            wait.push(latency - parts);
            // With a pool of two, the daemon may serve a Predict before
            // the Mutate sent ahead of it, so a rebuild the replay pays
            // on one request the daemon may have paid on the next: a
            // cold replayed Predict is left out of reconciliation.
            if cold {
                cold_answered += 1;
            } else {
                over.push((parts - latency).max(0.0));
            }
        }
    }
    let traced = traced_ns as f64 / 1e9;
    report.layer("serve.parse_us", median(&parse), "us");
    report.layer("serve.serialize_us", median(&ser), "us");
    for (v, name) in [
        (Verb::Predict, "serve.exec_ms.predict"),
        (Verb::Flood, "serve.exec_ms.flood"),
        (Verb::Mutate, "serve.exec_ms.mutate"),
    ] {
        report.layer(name, median(&exec[v as usize]), "ms");
    }
    report.layer(
        "serve.index_hit_frac",
        warm as f64 / predicts.max(1) as f64,
        "ratio",
    );
    report.layer("serve.wait_ms", median(&wait), "ms");
    report.layer("trace.recon_residual_ms", mean(&over), "ms");
    let overhead = if plain > 0.0 {
        traced / plain - 1.0
    } else {
        0.0
    };
    report.layer("trace.overhead_frac", overhead, "ratio");
    let unreconciled = over.iter().filter(|o| **o > RECON_TOL_MS).count();
    report.note(format!(
        "reconcile: parse+exec+serialize+wait = client latency with wait >= -{RECON_TOL_MS} ms on {}/{} answered requests \
         ({cold_answered} cold Predicts left out); mean overshoot {:.4} ms",
        over.len() - unreconciled,
        over.len(),
        mean(&over)
    ));
    layers::require_reconciled(unreconciled, over.len(), report);
    report.note(format!(
        "reconcile: in-process replay {traced:.3} s traced vs {plain:.3} s plain: tracing overhead {:+.2}%",
        overhead * 100.0
    ));
    Ok(())
}

/// The core layers under the serve workload: each planned `Flood` split
/// into its stages on the full graph, then the engine comparison.
fn core_layers(graph: &Graph, plan: &[Planned], report: &mut Report, tracer: &mut Tracer) {
    let (counts, probe) = layers::counting_probe();
    let mut stages: Vec<(Stages, u64)> = Vec::new();
    for (i, p) in plan
        .iter()
        .enumerate()
        .filter(|(_, p)| p.verb == Verb::Flood)
    {
        let request = FloodRequest::single(vec![p.source]);
        let (response, st) = layers::traced_execute(graph, &request, tracer, i as u64, &probe);
        let msgs = response.map_or(0, |r| r.floods.iter().map(|f| f.messages).sum());
        stages.push((st, msgs));
    }
    let col = |f: fn(&Stages) -> u64| stages.iter().map(|(s, _)| ms(f(s))).collect::<Vec<_>>();
    report.layer("core.batch.setup_ms", median(&col(|s| s.setup)), "ms");
    report.layer("core.batch.run_ms", median(&col(|s| s.run)), "ms");
    report.layer(
        "core.api.other_ms",
        median(&col(|s| s.wall.saturating_sub(s.setup + s.run))),
        "ms",
    );
    let per_msg: Vec<f64> = stages
        .iter()
        .filter(|(_, m)| *m > 0)
        .map(|(s, m)| s.run as f64 / *m as f64)
        .collect();
    report.layer("core.engine.ns_per_msg", median(&per_msg), "ns");
    let floods = stages.len().max(1) as f64;
    counts.borrow().report(floods, report);

    let sets: Vec<Vec<NodeId>> = plan
        .iter()
        .take(COMPARE_FLOODS)
        .map(|p| vec![NodeId::new(p.source)])
        .collect();
    let rows = layers::compare_engines(graph, &sets, ENGINE_REPEATS, report, tracer);
    layers::report_engines(&rows, report);
}
