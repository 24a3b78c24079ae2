//! The three workloads and the result every one of them fills in.

pub mod common;
pub mod market;
pub mod query;
pub mod replicated;
pub mod writes;

use crate::driver::PhaseResult;
use crate::json::Json;
use crate::stats::{self, LatencySummary};
use crate::trace::Tracer;
use std::path::PathBuf;

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 3] = ["query", "replicated", "market"];

/// Per-layer metrics every traced run reports, with units. A layer a
/// workload does not run reports 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("server.self_us_p50", "us"),
    ("server.self_us_p99", "us"),
    ("server.worker_cpu_frac", "ratio"),
    ("server.bytes_per_op", "B"),
    ("proto.encode_ns", "ns"),
    ("proto.decode_ns", "ns"),
    ("serve.score_ns_p50", "ns"),
    ("serve.score_ns_p99", "ns"),
    ("serve.topk_us_p50", "us"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.preranked_hit_ratio", "ratio"),
    ("serve.swaps_per_kop", "count"),
    ("serve.ingest_us_p50", "us"),
    ("serve.flush_us_p50", "us"),
    ("serve.flush_us_p99", "us"),
    ("serve.writer_cpu_frac", "ratio"),
    ("serve.recover_s", "s"),
    ("journal.recover_s", "s"),
    ("journal.append_us_p50", "us"),
    ("journal.fsync_us_p50", "us"),
    ("journal.fsync_us_p99", "us"),
    ("journal.commits_per_kreport", "count"),
    ("journal.bytes_per_report", "B"),
    ("journal.disk_bytes_per_report", "B"),
    ("cluster.ship_us_per_krec", "us"),
    ("cluster.apply_us_per_krec", "us"),
    ("cluster.lag_lsn_p99", "count"),
    ("cluster.pull_cpu_frac", "ratio"),
    ("cluster.ack_us_p50", "us"),
    ("cluster.ack_us_p99", "us"),
    ("cluster.stale_ms_p50", "ms"),
    ("cluster.stale_ms_p99", "ms"),
    ("core.ebay.self_s", "s"),
    ("core.sporas.self_s", "s"),
    ("core.histos.self_s", "s"),
    ("core.pagerank.self_s", "s"),
    ("core.amazon.self_s", "s"),
    ("core.epinions.self_s", "s"),
    ("core.cf.self_s", "s"),
    ("core.maximilien.self_s", "s"),
    ("core.lnz.self_s", "s"),
    ("core.manikrao.self_s", "s"),
    ("core.day.self_s", "s"),
    ("core.karta.self_s", "s"),
    ("core.yu_singh.self_s", "s"),
    ("core.yolum_singh.self_s", "s"),
    ("core.damiani.self_s", "s"),
    ("core.wang_vassileva.self_s", "s"),
    ("core.social.self_s", "s"),
    ("core.complaints.self_s", "s"),
    ("core.peertrust.self_s", "s"),
    ("core.eigentrust.self_s", "s"),
    ("core.vu.self_s", "s"),
    ("core.submit_ns", "ns"),
    ("core.score_ns", "ns"),
    ("core.refresh_ms", "ms"),
    ("select.self_s", "s"),
    ("sim.world_gen_s", "s"),
    ("gen.late_us_p99", "us"),
    ("gen.cpu_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.coverage", "ratio"),
];

/// What a workload is asked to do.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Measured time, seconds.
    pub seconds: f64,
    /// Run the traced variant.
    pub traced: bool,
    /// Scratch directory for journals (inside the checkout).
    pub work: PathBuf,
}

/// What a workload measured.
#[derive(Debug)]
pub struct Report {
    /// Correctness violations (any one fails the run).
    pub problems: Vec<String>,
    /// Set when the generator fell behind: the run is not reported.
    pub invalid: Option<String>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed, refused, timed out or disconnected.
    pub failed: u64,
    /// Completed operations slower than the workload's latency limit.
    pub missed_limit: u64,
    /// Set-up times, seconds.
    pub setup_s: Vec<f64>,
    /// Quantile of `setup_s` reported as the set-up time (the median
    /// unless a workload says otherwise).
    pub setup_quantile: f64,
    /// Latency of the workload's measured op.
    pub latency: LatencySummary,
    /// Closed-loop saturation rate, ops per second.
    pub sat_ops_per_s: f64,
    /// Samples the saturation rate rests on.
    pub sat_samples: u64,
    /// Operations the CPU time is charged to.
    pub ops_for_cpu: u64,
    /// Process CPU seconds over the measured phases.
    pub cpu_s: f64,
    /// Peak resident memory since set-up, MiB.
    pub peak_rss_mb: f64,
    /// Per-layer metrics measured (traced runs).
    pub layers: Vec<(String, f64)>,
    /// Spans to write out at exit (traced runs).
    pub tracer: Option<Tracer>,
    /// Workload-specific figures for the detail line.
    pub details: Json,
}

impl Report {
    /// An empty report for `ctx`.
    pub fn new(ctx: &Ctx) -> Report {
        Report {
            problems: Vec::new(),
            invalid: None,
            attempted: 0,
            failed: 0,
            missed_limit: 0,
            setup_s: Vec::new(),
            setup_quantile: 0.5,
            latency: LatencySummary::default(),
            sat_ops_per_s: 0.0,
            sat_samples: 0,
            ops_for_cpu: 0,
            cpu_s: 0.0,
            peak_rss_mb: 0.0,
            layers: Vec::new(),
            tracer: None,
            details: Json::obj().with("seed", Json::Int(ctx.seed)),
        }
    }

    /// Record a per-layer metric (must be one of [`LAYER_METRICS`]).
    pub fn layer(&mut self, name: &str, value: f64) {
        debug_assert!(
            LAYER_METRICS.iter().any(|(n, _)| *n == name),
            "unknown layer metric {name}"
        );
        self.layers.push((name.to_string(), value));
    }

    /// Take the figures of the untraced open-loop phase: the latency of its
    /// last lane (the workload's measured op), CPU per op at the fixed
    /// offered rates, and peak memory since set-up. Those two depend only
    /// on the fixed op stream, not on how much saturation got through.
    pub fn open_loop(&mut self, open: &PhaseResult) {
        let measured = open.lanes.last().expect("a phase has lanes");
        self.latency = stats::summarize(&measured.samples);
        self.cpu_s = open.cpu_s;
        self.ops_for_cpu = open.lanes.iter().map(|l| l.completed).sum();
        self.peak_rss_mb = stats::peak_rss_mb();
    }

    /// Add a workload-specific figure to the detail line.
    pub fn detail(&mut self, key: &str, value: Json) {
        self.details.set(key, value);
    }

    /// Note a correctness violation.
    pub fn check(&mut self, result: Result<(), String>) {
        if let Err(problem) = result {
            self.problems.push(problem);
        }
    }
}

/// Run the named workload.
pub fn run(name: &str, ctx: &Ctx) -> Result<Report, String> {
    match name {
        "query" => query::run(ctx),
        "replicated" => replicated::run(ctx),
        "market" => Ok(market::run(ctx)),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}
