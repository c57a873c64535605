//! The workspace benchmark: one workload per invocation, every metric
//! printed with its unit, outputs checked against the exact-time oracle.
//!
//! ```text
//! perfbench --workload grid-batch|random-batch|serve-mixed --seed N
//!           --seconds S --trace 0|1 [--serve-bin PATH] [--out-dir DIR]
//!           [--rev REV]
//! ```
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` it carries the per-layer metrics, measured by spans
//! the benchmark records around its own calls into each layer. Exit
//! code 0 means every answer was correct, 1 that some answer was wrong,
//! 2 that the run could not be made, 3 that it was invalid: the load
//! generator fell behind its schedule, or a traced run's stages did not
//! reconcile with its wall time. An invalid run prints no result line.
//! `run.py` builds this binary and the `af-serve` daemon and is the usual
//! entry point.

mod batch;
mod layers;
mod serve;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use af_analysis::GraphSpec;
use af_core::FloodEngine;

use crate::trace::{Metric, Report, Tracer};

/// The open-loop request rate of `serve-mixed`, requests per second.
pub const SERVE_RATE: f64 = 90.0;
/// The `serve-mixed` latency limit, set on p99, in ms.
pub const SERVE_SLO_MS: f64 = 250.0;

/// The end-to-end metrics, emitted on every workload with `--trace 0`.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("msgs_per_s", "messages/s"),
    ("lat_p50_ms", "ms"),
    ("lat_p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics, emitted on every workload with `--trace 1`; a
/// layer a workload does not run reads 0 and is named in a note.
const PER_LAYER: [(&str, &str); 29] = [
    ("graph.build_ms", "ms"),
    ("graph.parse_ms", "ms"),
    ("core.batch.setup_ms", "ms"),
    ("core.batch.run_ms", "ms"),
    ("core.api.other_ms", "ms"),
    ("core.engine.ns_per_msg", "ns"),
    ("core.engine.rounds", "count"),
    ("core.engine.msgs", "count"),
    ("core.engine.frontier_mean", "count"),
    ("core.engine.dense_rounds", "count"),
    ("core.engine.sparse_rounds", "count"),
    ("core.engine.ns_per_msg.fast", "ns"),
    ("core.engine.ns_per_msg.bitlane", "ns"),
    ("core.engine.ns_per_msg.sharded2", "ns"),
    ("theory.index_build_ms", "ms"),
    ("theory.predict_ms", "ms"),
    ("serve.parse_us", "us"),
    ("serve.serialize_us", "us"),
    ("serve.exec_ms.predict", "ms"),
    ("serve.exec_ms.flood", "ms"),
    ("serve.exec_ms.mutate", "ms"),
    ("serve.index_hit_frac", "ratio"),
    ("serve.wait_ms", "ms"),
    ("serve.daemon_p99_ms.predict", "ms"),
    ("serve.daemon_p99_ms.flood", "ms"),
    ("serve.daemon_p99_ms.mutate", "ms"),
    ("loadgen.late_ms_p99", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("trace.recon_residual_ms", "ms"),
];

#[derive(Debug)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub serve_bin: Option<PathBuf>,
    pub out_dir: Option<PathBuf>,
    pub rev: String,
}

fn parse_args() -> Result<Config, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        serve_bin: None,
        out_dir: None,
        rev: "unknown".to_owned(),
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => cfg.workload.clone_from(value),
            "--seed" => cfg.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cfg.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !cfg.seconds.is_finite() || cfg.seconds <= 0.0 {
                    return Err("--seconds must be positive".to_owned());
                }
            }
            "--trace" => cfg.trace = value == "1",
            "--serve-bin" => cfg.serve_bin = Some(PathBuf::from(value)),
            "--out-dir" => cfg.out_dir = Some(PathBuf::from(value)),
            "--rev" => cfg.rev.clone_from(value),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cfg)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn json_str(s: &str) -> String {
    serde_json::to_string(s).unwrap_or_else(|_| "\"?\"".to_owned())
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch);
    let mut report = Report::default();
    let outcome = match cfg.workload.as_str() {
        "grid-batch" => {
            let spec = GraphSpec::Grid {
                rows: 708,
                cols: 708,
            };
            // ~0.2 s a build: 21 builds keep set-up near 5 s.
            batch::run(&cfg, &spec, 21, &mut report, &mut tracer);
            Ok(())
        }
        "random-batch" => {
            let spec = GraphSpec::SparseConnected {
                n: 50_000,
                extra: 50_000,
                seed: 1,
            };
            // ~45 ms a build: 41 builds steady the median in ~2 s.
            batch::run(&cfg, &spec, 41, &mut report, &mut tracer);
            Ok(())
        }
        "serve-mixed" => serve::run(&cfg, &mut report, &mut tracer),
        other => Err(format!("unknown workload '{other}'")),
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: {}: {e}", cfg.workload);
        return ExitCode::from(2);
    }

    // Every per-layer metric appears on every workload.
    for (name, unit) in PER_LAYER {
        if cfg.trace && !report.per_layer.iter().any(|(n, _, _)| *n == name) {
            report.layer(name, 0.0, unit);
            report.note(format!(
                "layer: {name} is not exercised on this workload; reads 0"
            ));
        }
    }
    let failed_frac = report.failed as f64 / report.attempted.max(1) as f64;
    report.extra.push(("failed_frac", failed_frac, "ratio"));

    let p = &mut report.provenance;
    p.insert("workload", cfg.workload.clone());
    p.insert("seed", cfg.seed.to_string());
    p.insert("seconds", cfg.seconds.to_string());
    p.insert("trace", u8::from(cfg.trace).to_string());
    p.insert("git_rev", cfg.rev.clone());
    p.insert(
        "nproc",
        std::thread::available_parallelism()
            .map_or(0, std::num::NonZero::get)
            .to_string(),
    );
    p.insert("cpu_model", cpu_model());
    p.insert("default_engine", FloodEngine::default().to_string());
    p.insert("serve_rate_per_s", SERVE_RATE.to_string());
    p.insert("serve_slo_p99_ms", SERVE_SLO_MS.to_string());

    if cfg.trace {
        for (name, (count, total, own)) in tracer.self_times() {
            report.note(format!(
                "span: {name:<34} n={count:<6} total={:>12.3} ms self={:>12.3} ms",
                trace::ms(total),
                trace::ms(own)
            ));
        }
        if let Some(dir) = &cfg.out_dir {
            let path = dir.join(format!("spans-{}-seed{}.jsonl", cfg.workload, cfg.seed));
            match std::fs::create_dir_all(dir).and_then(|()| tracer.write_jsonl(&path)) {
                Ok(()) => report.note(format!(
                    "spans: {} written to {}",
                    tracer.len(),
                    path.display()
                )),
                Err(e) => report.note(format!("spans: not written: {e}")),
            }
        }
    }
    print_report(&cfg, &report)
}

fn print_report(cfg: &Config, report: &Report) -> ExitCode {
    println!(
        "perfbench: workload={} seed={} seconds={} trace={}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    for line in &report.notes {
        println!("  {line}");
    }
    for f in &report.failures {
        println!("  FAILED: {f}");
    }
    let all = report
        .end_to_end
        .iter()
        .chain(&report.extra)
        .chain(if cfg.trace {
            &report.per_layer[..]
        } else {
            &[]
        });
    for (name, value, unit) in all {
        println!("  metric {name:<34} {value:>16.6} {unit}");
    }
    let mut prov = String::from("{\"provenance\":{");
    for (i, (k, v)) in report.provenance.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(prov, "{sep}\"{k}\":{}", json_str(v));
    }
    prov.push_str("}}");
    println!("{prov}");

    if !report.invalid.is_empty() {
        for reason in &report.invalid {
            println!("  INVALID: {reason}");
            eprintln!("perfbench: {}: invalid run: {reason}", cfg.workload);
        }
        return ExitCode::from(3);
    }

    let (names, values): (&[(&str, &str)], &[Metric]) = if cfg.trace {
        (&PER_LAYER, &report.per_layer)
    } else {
        (&END_TO_END, &report.end_to_end)
    };
    let mut metrics = String::new();
    for (i, (name, unit)) in names.iter().enumerate() {
        let value = values
            .iter()
            .find(|(n, _, _)| n == name)
            .map_or(f64::NAN, |(_, v, _)| *v);
        let value = if value.is_finite() { value } else { 0.0 };
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            metrics,
            "{sep}\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}"
        );
    }
    let correct = report.failed == 0 && report.attempted > 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        report.attempted.max(1),
        report.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
