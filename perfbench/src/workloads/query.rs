//! `query`: read-only traffic over one connection against a server
//! recovered from a seeded journal.
//!
//! The wire, the reactor and the wait-free read path do the work; the
//! journal is idle, and recovery dominates set-up. Score queries follow a
//! Zipf law over every service (all of which the score cache holds after
//! warm-up); 3% are top-k queries drawn from twice as many
//! `(category, prefs)` pairs as the rank cache keeps, so top-k also runs
//! its miss path.

use super::common::{self, DRAIN};
use super::{Ctx, Report};
use crate::checks;
use crate::driver::{self, Lane, LaneResult, LaneSpec, Pace, Phase, Verdict};
use crate::ops::{Dataset, QueryMix, QueryOp};
use crate::rng::Rng;
use crate::stats;
use crate::trace::Tracer;
use crate::wire;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wsrep_core::id::ServiceId;
use wsrep_serve::ReputationService;
use wsrep_server::{Request, Response, Server};

/// This workload's saturation knee on the reference host (2 shared
/// vCPUs): the median `sat_ops_per_s` of the runs that set this rate.
const KNEE: f64 = 180_000.0;
/// Offered load as a share of [`KNEE`]: kept low for steadiness, since
/// at half the knee the median moved by a quarter from seed to seed on
/// the reference host (see the README).
const LOAD: f64 = 0.25;
/// Offered read rate, ops per second.
pub const RATE: f64 = KNEE * LOAD;
/// Reads in flight in the saturation phase.
const SAT_WINDOW: usize = 64;
/// Top-k share, per mille.
const TOPK_PER_MILLE: u64 = 30;
/// Distinct `(category, prefs)` pairs: twice the rank cache's cap.
const PAIRS: u64 = 2048;
/// Top-k answer length.
const K: u32 = 10;
/// A read slower than this missed its latency limit.
const LIMIT_NS: u64 = 5_000_000;
/// Set-ups timed for `setup_s`.
const SETUP_REPEATS: usize = 3;
/// Scores compared bit for bit between the socket and in-process.
const SCORE_SAMPLE: u64 = 256;

/// The seeded registry: 10k services in 16 categories, Zipf reports.
pub fn dataset(seed: u64) -> Dataset {
    Dataset {
        seed,
        services: 10_000,
        categories: 16,
        reports: 300_000,
        skew: 0.9,
    }
}

/// The query workload's read mix over `data`.
pub fn mix(data: &Dataset) -> QueryMix {
    QueryMix::new(data, TOPK_PER_MILLE, PAIRS, K)
}

/// Judge one read reply against the op that asked for it.
pub fn judge(op: &QueryOp, response: &Response) -> Verdict {
    match (op, response) {
        (QueryOp::Score(_), Response::Scored(_)) => Verdict::Ok,
        (QueryOp::TopK { k, .. }, Response::TopKResult(ranked)) => {
            match checks::top_k_shape(ranked, *k) {
                Ok(()) => Verdict::Ok,
                Err(e) => Verdict::Wrong(e),
            }
        }
        (_, other) => common::error_verdict(other),
    }
}

/// A read lane; traced, it records one `server` span per op.
pub struct QueryLane<'a> {
    /// The op stream.
    pub mix: &'a QueryMix,
    /// Span sink of a traced phase.
    pub tracer: Option<&'a Tracer>,
}

impl Lane for QueryLane<'_> {
    fn requests(&self, i: u64) -> Vec<Request> {
        vec![self.mix.op(i).request()]
    }
    fn parts(&self, _: u64) -> u32 {
        1
    }
    fn check(&self, i: u64, _: u32, response: &Response) -> Verdict {
        judge(&self.mix.op(i), response)
    }
    fn completed(&self, i: u64, sent: Instant, at: Instant, _: bool) {
        if let Some(tracer) = self.tracer {
            tracer.record("server", None, i, sent, at);
        }
    }
}

/// Replay ops `from..to` in process against `service`, recording each
/// call as a child span of the op's `server` span.
pub fn replay(service: &ReputationService, mix: &QueryMix, tracer: &Tracer, from: u64, to: u64) {
    let mut buf = Vec::new();
    for i in from..to {
        match mix.op(i) {
            QueryOp::Score(subject) => tracer.time("serve.score", Some("server"), i, || {
                std::hint::black_box(service.score(subject));
            }),
            QueryOp::TopK { category, prefs, k } => {
                tracer.time("serve.topk", Some("server"), i, || {
                    service.top_k_into(category, &prefs, k as usize, &mut buf);
                    std::hint::black_box(&buf);
                })
            }
        }
    }
}

/// A stand-in for the served service in the traced replay: recovered from
/// a copy of the same log, warmed the same way, and driven untimed through
/// ops `0..upto` (what the server answered before the traced ops), so its
/// score and rank caches are in the state the server's were. Replaying on
/// the served service itself would find every top-k the socket call had
/// just ranked.
fn twin(
    log_copy: &Path,
    data: &Dataset,
    mix: &QueryMix,
    upto: u64,
) -> Result<ReputationService, String> {
    let service = ReputationService::builder()
        .shards(common::SHARDS)
        .recover_from(log_copy)
        .try_build()
        .map_err(|e| format!("twin recovery: {e}"))?;
    for s in 0..data.services {
        std::hint::black_box(service.score(ServiceId::new(s).into()));
    }
    replay(&service, mix, &Tracer::new(), 0, upto);
    Ok(service)
}

/// Per-layer figures of the read path from a traced phase.
pub fn read_layers(report: &mut Report, tracer: &Tracer, lane: &LaneResult) -> f64 {
    let server = tracer.self_times("server");
    report.layer("server.self_us_p50", common::p(&server, 0.5) / 1e3);
    report.layer("server.self_us_p99", common::p(&server, 0.99) / 1e3);
    let score = tracer.durations("serve.score");
    report.layer("serve.score_ns_p50", common::p(&score, 0.5));
    report.layer("serve.score_ns_p99", common::p(&score, 0.99));
    report.layer(
        "serve.topk_us_p50",
        common::p(&tracer.durations("serve.topk"), 0.5) / 1e3,
    );
    let encode = common::p(&lane.encode_ns, 0.5);
    let decode = common::p(&lane.decode_ns, 0.5);
    report.layer("proto.encode_ns", encode);
    report.layer("proto.decode_ns", decode);
    let mut serve: Vec<u64> = score;
    serve.extend(tracer.durations("serve.topk"));
    // Layer self-time p50s along one op: sender lateness, encode, the
    // socket and reactor, the service call, decode.
    common::p(&lane.late_ns, 0.5)
        + encode
        + common::p(&server, 0.5)
        + common::p(&serve, 0.5)
        + decode
}

/// Run the workload.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::new(ctx);
    let data = dataset(ctx.seed);
    let mix = mix(&data);
    let dir = ctx.work.join("query-log");
    common::seed_log(&dir, &data, 1).map_err(|e| format!("seeding the log: {e}"))?;
    report.detail(
        "log_disk_bytes",
        crate::json::Json::Int(common::disk_bytes(&dir)),
    );
    let twin_log = ctx.work.join("twin-log");
    if ctx.traced {
        common::copy_dir(&dir, &twin_log).map_err(|e| format!("copying the log: {e}"))?;
    }

    // Set-up: recover the log, build the service, bind, warm up.
    let mut live: Option<(Arc<ReputationService>, Server)> = None;
    let mut build_s = Vec::new();
    for _ in 0..SETUP_REPEATS {
        if let Some((_, server)) = live.take() {
            server.shutdown();
            server.join();
        }
        let started = Instant::now();
        let service = ReputationService::builder()
            .shards(common::SHARDS)
            .recover_from(&dir)
            .try_build()
            .map_err(|e| format!("recovery: {e}"))?;
        build_s.push(started.elapsed().as_secs_f64());
        let service = Arc::new(service);
        let server = Server::start(Arc::clone(&service), "127.0.0.1:0", common::server_config())
            .map_err(|e| format!("bind: {e}"))?;
        common::warm(server.local_addr(), data.services).map_err(|e| format!("warm-up: {e}"))?;
        report.setup_s.push(started.elapsed().as_secs_f64());
        live = Some((service, server));
    }
    let (service, server) = live.expect("at least one set-up");
    let addr = server.local_addr();
    let feedback = service.stats().feedback;
    if feedback != data.reports {
        report.problems.push(format!(
            "recovered {feedback} of {} seeded reports",
            data.reports
        ));
    }

    let tracer = Tracer::new();
    let plain = QueryLane {
        mix: &mix,
        tracer: None,
    };
    let traced_lane = QueryLane {
        mix: &mix,
        tracer: Some(&tracer),
    };
    let s = ctx.seconds;
    let open_s = if ctx.traced { 0.3 * s } else { 0.6 * s };
    let traced_s = common::traced_secs(open_s, RATE);
    stats::reset_peak_rss();
    let stats0 = service.stats();
    let mut lanes = [LaneSpec {
        addr,
        pace: Pace::Open { rate: RATE },
        lane: &plain,
        first_op: 0,
    }];
    let open = common::open_phase(
        &mut report,
        &mut lanes,
        Phase {
            duration: Duration::from_secs_f64(open_s),
            drain: DRAIN,
            traced: false,
        },
        &[LIMIT_NS],
    )?;
    report.open_loop(&open);

    let mut traced_open = None;
    if ctx.traced {
        let threads0 = stats::thread_cpu_s();
        lanes[0].lane = &traced_lane;
        let phase = common::open_phase(
            &mut report,
            &mut lanes,
            Phase {
                duration: Duration::from_secs_f64(traced_s),
                drain: DRAIN,
                traced: true,
            },
            &[LIMIT_NS],
        )?;
        let threads1 = stats::thread_cpu_s();
        report.layer(
            "gen.cpu_frac",
            stats::cpu_frac(&threads0, &threads1, "perfbench", phase.wall),
        );
        let lane = &phase.lanes[0];
        let first = lane.next_op - lane.sent;
        let twin = twin(&twin_log, &data, &mix, first)?;
        replay(&twin, &mix, &tracer, first, lane.next_op);
        traced_open = Some(phase);
    }
    let next = lanes[0].first_op;
    let stats1 = service.stats();

    let threads0 = stats::thread_cpu_s();
    let sat = driver::run_phase(
        &[LaneSpec {
            addr,
            pace: Pace::Closed { window: SAT_WINDOW },
            lane: &plain,
            first_op: next,
        }],
        Phase {
            duration: Duration::from_secs_f64(0.4 * s),
            drain: DRAIN,
            traced: false,
        },
    )
    .map_err(|e| format!("saturation phase: {e}"))?;
    let threads1 = stats::thread_cpu_s();
    common::account(&mut report, &sat.lanes[0], u64::MAX);
    report.sat_ops_per_s = sat.lanes[0].rate();
    report.sat_samples = sat.lanes[0].per_bucket.len() as u64;

    // Socket scores must be bit-equal to in-process scores.
    let (mut w, mut r) = wire::connect(addr).map_err(|e| format!("check connection: {e}"))?;
    let mut rng = Rng::at(ctx.seed, 0x636b, 0);
    for _ in 0..SCORE_SAMPLE {
        let subject = ServiceId::new(rng.below(data.services)).into();
        match wire::call(&mut w, &mut r, &Request::Score(subject)) {
            Ok(Response::Scored(socket)) => report.check(checks::same_score(
                subject,
                &socket,
                &service.score(subject),
            )),
            other => report.problems.push(format!("score check got {other:?}")),
        }
    }
    drop((w, r));
    report.failed += common::server_failures(&server.server_stats());

    if let Some(phase) = &traced_open {
        let lane = &phase.lanes[0];
        let covered = read_layers(&mut report, &tracer, lane);
        let traced_lat = stats::summarize(&lane.samples);
        report.layer("gen.late_us_p99", common::p(&lane.late_ns, 0.99) / 1e3);
        report.layer(
            "trace.overhead_frac",
            traced_lat.p50_ns / report.latency.p50_ns - 1.0,
        );
        report.layer("trace.coverage", covered / traced_lat.p50_ns);
        report.layer(
            "server.bytes_per_op",
            (lane.bytes_in + lane.bytes_out) as f64 / lane.completed.max(1) as f64,
        );
        let lookups = (stats1.cache_hits + stats1.cache_misses)
            .saturating_sub(stats0.cache_hits + stats0.cache_misses);
        report.layer(
            "serve.cache_hit_ratio",
            (stats1.cache_hits - stats0.cache_hits) as f64 / lookups.max(1) as f64,
        );
        let ranked = (stats1.preranked_hits + stats1.preranked_misses)
            .saturating_sub(stats0.preranked_hits + stats0.preranked_misses);
        report.layer(
            "serve.preranked_hit_ratio",
            (stats1.preranked_hits - stats0.preranked_hits) as f64 / ranked.max(1) as f64,
        );
        let ops = open.lanes[0].completed + lane.completed;
        report.layer(
            "serve.swaps_per_kop",
            (stats1.snapshot_swaps - stats0.snapshot_swaps) as f64 / (ops.max(1) as f64 / 1e3),
        );
        report.layer(
            "server.worker_cpu_frac",
            stats::cpu_frac(&threads0, &threads1, "wsrep-worker", sat.wall)
                / common::WORKERS as f64,
        );
        report.layer("serve.recover_s", stats::median(&build_s));
        let started = Instant::now();
        let recovered = wsrep_journal::recover(&dir).map_err(|e| format!("recover: {e}"))?;
        report.layer("journal.recover_s", started.elapsed().as_secs_f64());
        drop(recovered);
        report.tracer = Some(tracer);
    }
    report.detail("rate_ops_per_s", crate::json::Json::Num(RATE));
    report.detail(
        "rate_source",
        crate::json::Json::Str(format!(
            "{LOAD} x the reference host's knee ({KNEE} ops/s, median sat_ops_per_s)"
        )),
    );
    report.detail(
        "offered_load",
        crate::json::Json::Num(RATE / report.sat_ops_per_s.max(1.0)),
    );
    report.detail("topk_pairs", crate::json::Json::Int(mix.pairs()));
    report.detail(
        "server_workers",
        crate::json::Json::Int(common::WORKERS as u64),
    );
    report.detail("shards", crate::json::Json::Int(common::SHARDS as u64));
    report.detail("writer_groups", crate::json::Json::Int(1));
    server.shutdown();
    server.join();
    Ok(report)
}
