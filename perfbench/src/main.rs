//! `perfbench` — run one benchmark workload and print its result.
//!
//! ```text
//! perfbench --workload query|replicated|market --seed N \
//!           --seconds S --trace 0|1
//! ```
//!
//! Human-readable lines come first, then a detail JSON line (host facts,
//! sample counts, workload figures), and last the result line:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! per-layer ones, and the spans are written to
//! `.bench_work/spans-<workload>-<seed>.tsv`.
//!
//! Exit codes: 0 with a result; 2 on bad arguments or a failed set-up;
//! 3 when the load generator fell behind its schedule (the run measured
//! the generator, not the system, and is not reported).

use std::path::PathBuf;
use std::process::ExitCode;
use wsrep_perfbench::json::Json;
use wsrep_perfbench::workloads::{self, Ctx, Report, LAYER_METRICS};
use wsrep_perfbench::{host, stats};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} takes a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj()
        .with("value", Json::Num(value))
        .with("unit", Json::Str(unit.to_string()))
}

fn end_to_end(report: &Report) -> Json {
    let cpu_ms_per_kop = report.cpu_s * 1e3 / (report.ops_for_cpu.max(1) as f64 / 1e3);
    Json::obj()
        .with(
            "setup_s",
            metric(stats::quantile(&report.setup_s, report.setup_quantile), "s"),
        )
        .with("peak_rss_mb", metric(report.peak_rss_mb, "MiB"))
        .with("cpu_ms_per_kop", metric(cpu_ms_per_kop, "ms"))
}

fn per_layer(report: &Report) -> Json {
    let mut out = Json::obj();
    for (name, unit) in LAYER_METRICS {
        let value = report
            .layers
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0.0);
        out.set(name, metric(value, unit));
    }
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            eprintln!(
                "usage: perfbench --workload {} --seed N --seconds S --trace 0|1",
                workloads::WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    host::cap_malloc_arenas();
    host::tighten_timer_slack();
    let root = PathBuf::from(".bench_work");
    let work = root.join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(err) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {err}", work.display());
        return ExitCode::from(2);
    }
    let facts = host::facts(&work);
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        work: work.clone(),
    };
    let result = workloads::run(&args.workload, &ctx);
    let _ = std::fs::remove_dir_all(&work);
    let report = match result {
        Ok(report) => report,
        Err(err) => {
            eprintln!("perfbench: {} failed: {err}", args.workload);
            return ExitCode::from(2);
        }
    };
    if let Some(reason) = &report.invalid {
        eprintln!("perfbench: run invalid, not reported: {reason}");
        return ExitCode::from(3);
    }
    if let Some(tracer) = &report.tracer {
        let path = root.join(format!("spans-{}-{}.tsv", args.workload, args.seed));
        if let Err(err) = tracer.write_tsv(&path) {
            eprintln!("perfbench: cannot write spans to {}: {err}", path.display());
        }
    }

    let metrics = if args.trace {
        per_layer(&report)
    } else {
        end_to_end(&report)
    };
    for problem in &report.problems {
        println!("CHECK FAILED: {problem}");
    }
    println!(
        "{} seed {}: setup {:.6} s (quantile {} of {}), latency p50 {:.1} us / p90 {:.1} us / p99 {:.1} us over {} samples in {} windows, saturation {:.0} ops/s ({} samples), {} attempted, {} failed, {} over the latency limit",
        args.workload,
        args.seed,
        stats::quantile(&report.setup_s, report.setup_quantile),
        report.setup_quantile,
        report.setup_s.len(),
        report.latency.p50_ns / 1e3,
        report.latency.p90_ns / 1e3,
        report.latency.p99_ns / 1e3,
        report.latency.samples,
        report.latency.windows,
        report.sat_ops_per_s,
        report.sat_samples,
        report.attempted,
        report.failed,
        report.missed_limit,
    );
    let detail = report
        .details
        .clone()
        .with("workload", Json::Str(args.workload.clone()))
        .with("host", facts)
        .with("lat_p50_us", Json::Num(report.latency.p50_ns / 1e3))
        .with("lat_p90_us", Json::Num(report.latency.p90_ns / 1e3))
        .with("lat_p99_us", Json::Num(report.latency.p99_ns / 1e3))
        .with("latency_samples", Json::Int(report.latency.samples))
        .with("latency_windows", Json::Int(report.latency.windows))
        .with("setup_samples", Json::Int(report.setup_s.len() as u64))
        .with("setup_quantile", Json::Num(report.setup_quantile))
        .with("setup_median_s", Json::Num(stats::median(&report.setup_s)))
        .with("sat_ops_per_s", Json::Num(report.sat_ops_per_s))
        .with("saturation_samples", Json::Int(report.sat_samples))
        .with("missed_latency_limit", Json::Int(report.missed_limit))
        .with(
            "failed_frac",
            Json::Num(report.failed as f64 / report.attempted.max(1) as f64),
        )
        .with(
            "problems",
            Json::Arr(report.problems.iter().cloned().map(Json::Str).collect()),
        );
    println!("{}", detail.render());
    let result = Json::obj()
        .with("correct", Json::Bool(report.problems.is_empty()))
        .with("attempted", Json::Int(report.attempted.max(1)))
        .with("failed", Json::Int(report.failed))
        .with("metrics", metrics);
    println!("{}", result.render());
    ExitCode::SUCCESS
}
