//! `replicated`: a journaled primary and one replica, both in process.
//! One connection sends keyed durable writes (batch + flush) to the
//! primary; the other sends `query`-style reads to the replica over a
//! small set of `(category, prefs)` pairs that fits the rank cache.
//!
//! Shipped applies keep invalidating the replica's caches, so its read
//! path runs the miss and copy-on-write swap path that `query` never
//! exercises, while log shipping runs beside appends. A read-path gain in
//! `query` that costs under writes shows here as a regression.

use super::common::{self, DRAIN};
use super::query::{self, QueryLane};
use super::writes::{self, WriteLane};
use super::{Ctx, Report};
use crate::checks;
use crate::driver::{self, LaneSpec, Pace, Phase};
use crate::json::Json;
use crate::ops::{Dataset, QueryMix, WriteMix};
use crate::stats;
use crate::trace::Tracer;
use std::collections::VecDeque;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use wsrep_cluster::{
    verify_against_sequential_replay, Primary, PrimaryConfig, Replica, ReplicaConfig,
};
use wsrep_journal::ShipCursor;
use wsrep_serve::ReputationService;

/// The replica's read saturation knee, writes continuing, on the
/// reference host (2 shared vCPUs): the median `sat_ops_per_s` of the
/// runs that set this rate.
const READ_KNEE: f64 = 170_000.0;
/// Offered reads as a share of [`READ_KNEE`], as on `query`.
const READ_LOAD: f64 = 0.25;
/// Offered replica reads per second.
const READ_RATE: f64 = READ_KNEE * READ_LOAD;
/// One write connection's durable-ack knee on the reference host. A
/// Flush holds its connection's worker until the batch is durable, so one
/// connection acks at most `1 / ack latency` ops per second; the median
/// ack p50 of the runs that set this rate was 400 us.
const WRITE_KNEE: f64 = 2_500.0;
/// Offered writes as a share of [`WRITE_KNEE`]. The writes are the
/// background that keeps invalidating the replica's caches; kept low so
/// that the host disk's fsync jitter does not set the read figures
/// (see the README).
const WRITE_LOAD: f64 = 0.1;
/// Offered durable writes (batch + flush) per second on the primary.
const WRITE_RATE: f64 = WRITE_KNEE * WRITE_LOAD;
/// Reads in flight in the saturation phase.
const SAT_WINDOW: usize = 32;
/// `(category, prefs)` pairs the reads rank: well under the rank cache's
/// 1024 cap.
const PAIRS: u64 = 16;
/// Top-k share of reads, per mille.
const TOPK_PER_MILLE: u64 = 30;
/// A replica read slower than this missed its latency limit.
const LIMIT_NS: u64 = 10_000_000;
/// Set-ups timed for `setup_s`.
const SETUP_REPEATS: usize = 3;
/// How long a replica may take to catch up.
const CATCH_UP: Duration = Duration::from_secs(20);

/// The primary's seeded registry.
pub fn dataset(seed: u64) -> Dataset {
    Dataset {
        seed,
        services: 2_000,
        categories: 8,
        reports: 40_000,
        skew: 0.9,
    }
}

fn primary_config() -> PrimaryConfig {
    PrimaryConfig {
        server: common::server_config(),
        ..PrimaryConfig::default()
    }
}

fn replica_config() -> ReplicaConfig {
    ReplicaConfig {
        server: common::server_config(),
        shards: common::SHARDS,
        ..ReplicaConfig::default()
    }
}

/// Wait until the replica's durable LSN reaches the primary's.
fn catch_up(primary: &Primary, replica: &Replica) -> Result<(), String> {
    let target = primary.service().durable_lsn().unwrap_or(0);
    let deadline = Instant::now() + CATCH_UP;
    while replica.replication_stats().local_durable_lsn < target {
        if Instant::now() > deadline {
            return Err(format!(
                "replica stuck at LSN {} of {target}",
                replica.replication_stats().local_durable_lsn
            ));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    Ok(())
}

/// How often the staleness probe samples the replica's watermark.
const PROBE_EVERY: Duration = Duration::from_millis(2);

/// Staleness probe: each primary durable ack is stamped with the
/// primary's durable LSN; a sampler thread resolves the acks the
/// replica's LSN has reached into staleness samples and records the lag.
///
/// The sampler is a thread of its own because reading a single-writer
/// replica's watermark waits for the journal lock its writer holds across
/// each fsync; on the load generator's receiver that wait would be
/// charged to every read in flight.
struct Staleness {
    primary: Arc<Primary>,
    replica: Arc<Replica>,
    pending: Mutex<VecDeque<(Instant, u64)>>,
    stale_ns: Mutex<Vec<u64>>,
    lag: Mutex<Vec<u64>>,
    stop: AtomicBool,
}

impl Staleness {
    fn acked(&self, at: Instant) {
        let lsn = self.primary.service().durable_lsn().unwrap_or(0);
        self.pending
            .lock()
            .expect("staleness queue poisoned")
            .push_back((at, lsn));
    }

    /// Sample until [`Staleness::stop`] is set.
    fn run(&self) {
        while !self.stop.load(Ordering::Acquire) {
            let local = self.replica.replication_stats().local_durable_lsn;
            let now = Instant::now();
            let mut pending = self.pending.lock().expect("staleness queue poisoned");
            let mut stale = self.stale_ns.lock().expect("staleness samples poisoned");
            while let Some(&(at, lsn)) = pending.front() {
                if lsn > local {
                    break;
                }
                stale.push(now.saturating_duration_since(at).as_nanos() as u64);
                pending.pop_front();
            }
            drop((pending, stale));
            let primary = self.primary.service().durable_lsn().unwrap_or(0);
            self.lag
                .lock()
                .expect("lag samples poisoned")
                .push(primary.saturating_sub(local));
            std::thread::sleep(PROBE_EVERY);
        }
    }
}

/// Start a primary on the seeded log and a replica on a fresh directory,
/// and wait until the replica caught up.
fn start_pair(log: &Path, replica_dir: &Path) -> Result<(Primary, Replica), String> {
    let service = ReputationService::builder()
        .shards(common::SHARDS)
        .writer_groups(writes::WRITER_GROUPS)
        .recover_from(log)
        .try_build()
        .map_err(|e| format!("primary recovery: {e}"))?;
    let primary = Primary::start(Arc::new(service), "127.0.0.1:0", primary_config())
        .map_err(|e| format!("primary: {e}"))?;
    let replica = Replica::start(
        primary.local_addr().to_string(),
        "127.0.0.1:0",
        replica_dir,
        replica_config(),
    )
    .map_err(|e| format!("replica: {e}"))?;
    catch_up(&primary, &replica)?;
    Ok((primary, replica))
}

/// Replay the traced write ops' records through the shipping and apply
/// boundaries: read them off the primary's log with a [`ShipCursor`] in
/// the batches the ops wrote, and apply them to a journaled stand-in
/// replica brought to the same starting state.
fn replay_shipping(
    ctx: &Ctx,
    log: &Path,
    tracer: &Tracer,
    from_lsn: u64,
    ops: (u64, u64),
    batch: usize,
) -> Result<u64, String> {
    let twin = ReputationService::builder()
        .shards(common::SHARDS)
        .journal(ctx.work.join("replay-replica"))
        .try_build()
        .map_err(|e| format!("stand-in replica: {e}"))?;
    let mut cursor = ShipCursor::open(log, 0).map_err(|e| format!("ship cursor: {e}"))?;
    // Bring the stand-in to the traced phase's starting LSN, untimed.
    while cursor.next_lsn() < from_lsn {
        let want = (from_lsn - cursor.next_lsn()).min(4096) as usize;
        let shipped = cursor.next_batch(want).map_err(|e| format!("ship: {e}"))?;
        if shipped.records.is_empty() {
            break;
        }
        twin.apply_replicated(shipped.records)
            .map_err(|e| format!("apply: {e:?}"))?;
    }
    let mut records = 0u64;
    for op in ops.0..ops.1 {
        let shipped = tracer
            .time("cluster.ship", None, op, || cursor.next_batch(batch))
            .map_err(|e| format!("ship: {e}"))?;
        if shipped.records.is_empty() {
            break;
        }
        records += shipped.records.len() as u64;
        tracer
            .time("cluster.apply", None, op, || {
                twin.apply_replicated(shipped.records)
            })
            .map_err(|e| format!("apply: {e:?}"))?;
    }
    Ok(records)
}

/// Run the workload.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::new(ctx);
    let data = dataset(ctx.seed);
    let log = ctx.work.join("primary-log");
    common::seed_log(&log, &data, writes::WRITER_GROUPS)
        .map_err(|e| format!("seeding the log: {e}"))?;

    // Set-up: start both nodes and wait until the replica caught up.
    let mut live: Option<(Primary, Replica)> = None;
    for k in 0..SETUP_REPEATS {
        if let Some((primary, replica)) = live.take() {
            replica.join();
            primary.shutdown();
            primary.join();
        }
        let started = Instant::now();
        let pair = start_pair(&log, &ctx.work.join(format!("replica-{k}")))?;
        common::warm(pair.1.local_addr(), data.services).map_err(|e| format!("warm-up: {e}"))?;
        report.setup_s.push(started.elapsed().as_secs_f64());
        live = Some(pair);
    }
    let (primary, replica) = live.expect("at least one set-up");
    let (primary, replica) = (Arc::new(primary), Arc::new(replica));
    let seeded_reports = data.reports;

    let reads = QueryMix::new(&data, TOPK_PER_MILLE, PAIRS, 10);
    let probe = Arc::new(Staleness {
        primary: Arc::clone(&primary),
        replica: Arc::clone(&replica),
        pending: Mutex::new(VecDeque::new()),
        stale_ns: Mutex::new(Vec::new()),
        lag: Mutex::new(Vec::new()),
        stop: AtomicBool::new(false),
    });
    let sampler = {
        let probe = Arc::clone(&probe);
        std::thread::Builder::new()
            .name("perfbench-probe".to_string())
            .spawn(move || probe.run())
            .map_err(|e| format!("probe thread: {e}"))?
    };
    let on_ack = |at: Instant| probe.acked(at);
    // Reads and writes keep separate spans: op ids restart per stream.
    let tracer = Tracer::new();
    let write_tracer = Tracer::new();
    let mut writes = WriteLane::new(WriteMix::new(
        ctx.seed,
        writes::HOT,
        writes::BATCH,
        1,
        data.reports,
    ));
    writes.on_ack = Some(&on_ack);
    let mut read_lane = QueryLane {
        mix: &reads,
        tracer: None,
    };
    let s = ctx.seconds;
    let open_s = if ctx.traced { 0.3 * s } else { 0.6 * s };
    let traced_s = common::traced_secs(open_s, READ_RATE);
    let limits = [writes::LIMIT_NS, LIMIT_NS];
    let health0 = primary
        .service()
        .stats()
        .journal
        .expect("journaled primary");
    stats::reset_peak_rss();
    let threads0 = stats::thread_cpu_s();
    let mut lanes = [
        LaneSpec {
            addr: primary.local_addr(),
            pace: Pace::Open { rate: WRITE_RATE },
            lane: &writes,
            first_op: 0,
        },
        LaneSpec {
            addr: replica.local_addr(),
            pace: Pace::Open { rate: READ_RATE },
            lane: &read_lane,
            first_op: 0,
        },
    ];
    let open = common::open_phase(
        &mut report,
        &mut lanes,
        Phase {
            duration: Duration::from_secs_f64(open_s),
            drain: DRAIN,
            traced: false,
        },
        &limits,
    )?;
    let threads1 = stats::thread_cpu_s();
    report.open_loop(&open);
    let ack = stats::summarize(&open.lanes[0].samples);
    let (mut next_write, mut next_read) = (lanes[0].first_op, lanes[1].first_op);
    let stale_open =
        std::mem::take(&mut *probe.stale_ns.lock().expect("staleness samples poisoned"));
    let lag_open = std::mem::take(&mut *probe.lag.lock().expect("lag samples poisoned"));

    let mut traced = None;
    if ctx.traced {
        writes.tracer = Some(&write_tracer);
        read_lane.tracer = Some(&tracer);
        let from_lsn = primary.service().durable_lsn().unwrap_or(0);
        let replica_before = replica.service().stats();
        let t0 = stats::thread_cpu_s();
        let phase = common::open_phase(
            &mut report,
            &mut [
                LaneSpec {
                    addr: primary.local_addr(),
                    pace: Pace::Open { rate: WRITE_RATE },
                    lane: &writes,
                    first_op: next_write,
                },
                LaneSpec {
                    addr: replica.local_addr(),
                    pace: Pace::Open { rate: READ_RATE },
                    lane: &read_lane,
                    first_op: next_read,
                },
            ],
            Phase {
                duration: Duration::from_secs_f64(traced_s),
                drain: DRAIN,
                traced: true,
            },
            &limits,
        )?;
        let t1 = stats::thread_cpu_s();
        let replica_after = replica.service().stats();
        writes.tracer = None;
        read_lane.tracer = None;
        let (w, r) = (&phase.lanes[0], &phase.lanes[1]);
        query::replay(
            replica.service(),
            &reads,
            &tracer,
            r.next_op - r.sent,
            r.next_op,
        );
        let write_ops = (w.next_op - w.sent, w.next_op);
        next_write = w.next_op;
        next_read = r.next_op;
        traced = Some((
            phase,
            from_lsn,
            write_ops,
            replica_before,
            replica_after,
            t0,
            t1,
        ));
    }

    let sat = driver::run_phase(
        &[
            LaneSpec {
                addr: primary.local_addr(),
                pace: Pace::Open { rate: WRITE_RATE },
                lane: &writes,
                first_op: next_write,
            },
            LaneSpec {
                addr: replica.local_addr(),
                pace: Pace::Closed { window: SAT_WINDOW },
                lane: &read_lane,
                first_op: next_read,
            },
        ],
        Phase {
            duration: Duration::from_secs_f64(0.4 * s),
            drain: DRAIN,
            traced: false,
        },
    )
    .map_err(|e| format!("saturation phase: {e}"))?;
    // The writes here are background load, not measured: a late sender
    // does not invalidate the read saturation figure.
    common::account(&mut report, &sat.lanes[0], writes::LIMIT_NS);
    common::account(&mut report, &sat.lanes[1], u64::MAX);
    report.sat_ops_per_s = sat.lanes[1].rate();
    report.sat_samples = sat.lanes[1].per_bucket.len() as u64;

    // Checks: the caught-up replica equals a sequential replay of its own
    // log; the primary's log holds every durably acked report.
    catch_up(&primary, &replica)?;
    let twin = verify_against_sequential_replay(replica.service(), replica.journal_dir())
        .map_err(|e| format!("twin replay: {e}"))?;
    report.check(checks::twin_equal(twin.records, twin.mismatched.len()));
    let acked = writes.acked.load(Ordering::Relaxed);
    let write_mix = writes.mix.clone();
    let health = primary
        .service()
        .stats()
        .journal
        .expect("journaled primary");
    report.failed += common::server_failures(&primary.server_stats());
    if let Some(stats) = replica.service().stats().journal {
        if stats.degraded || stats.journal_errors > 0 {
            report
                .problems
                .push("the replica's journal degraded".to_string());
        }
    }
    probe.stop.store(true, Ordering::Release);
    sampler.join().expect("probe thread panicked");
    drop(probe);
    let replica = Arc::try_unwrap(replica).map_err(|_| "replica still shared".to_string())?;
    let primary = Arc::try_unwrap(primary).map_err(|_| "primary still shared".to_string())?;
    replica.join();
    primary.shutdown();
    primary.join();
    let recovered = wsrep_journal::recover(&log).map_err(|e| format!("recover: {e}"))?;
    let recovered_reports = recovered.feedback.len() as u64;
    drop(recovered);
    if report.failed == 0 {
        report.check(checks::durable_log(
            recovered_reports,
            seeded_reports + acked,
            health.journal_errors,
            health.degraded,
        ));
    } else if recovered_reports < seeded_reports + acked {
        report.problems.push(format!(
            "recovered {recovered_reports} reports but {} were durably acked",
            seeded_reports + acked
        ));
    }

    if let Some((phase, from_lsn, write_ops, before, after, t0, t1)) = traced {
        let reads_result = &phase.lanes[1];
        let covered = query::read_layers(&mut report, &tracer, reads_result);
        let traced_lat = stats::summarize(&reads_result.samples);
        report.layer(
            "trace.overhead_frac",
            traced_lat.p50_ns / report.latency.p50_ns - 1.0,
        );
        report.layer("trace.coverage", covered / traced_lat.p50_ns);
        report.layer(
            "gen.late_us_p99",
            common::p(&reads_result.late_ns, 0.99) / 1e3,
        );
        report.layer(
            "gen.cpu_frac",
            stats::cpu_frac(&t0, &t1, "perfbench", phase.wall),
        );
        report.layer(
            "server.worker_cpu_frac",
            stats::cpu_frac(&t0, &t1, "wsrep-worker", phase.wall) / (2 * common::WORKERS) as f64,
        );
        report.layer(
            "server.bytes_per_op",
            (reads_result.bytes_in + reads_result.bytes_out) as f64
                / reads_result.completed.max(1) as f64,
        );
        let lookups = (after.cache_hits + after.cache_misses)
            .saturating_sub(before.cache_hits + before.cache_misses);
        report.layer(
            "serve.cache_hit_ratio",
            (after.cache_hits - before.cache_hits) as f64 / lookups.max(1) as f64,
        );
        let ranked = (after.preranked_hits + after.preranked_misses)
            .saturating_sub(before.preranked_hits + before.preranked_misses);
        report.layer(
            "serve.preranked_hit_ratio",
            (after.preranked_hits - before.preranked_hits) as f64 / ranked.max(1) as f64,
        );
        report.layer(
            "serve.swaps_per_kop",
            (after.snapshot_swaps - before.snapshot_swaps) as f64
                / (reads_result.completed.max(1) as f64 / 1e3),
        );
        let records = replay_shipping(ctx, &log, &tracer, from_lsn, write_ops, writes::BATCH)?;
        let per_krec = |ns: u64| ns as f64 / 1e3 / (records.max(1) as f64 / 1e3);
        report.layer(
            "cluster.ship_us_per_krec",
            per_krec(tracer.durations("cluster.ship").iter().sum()),
        );
        report.layer(
            "cluster.apply_us_per_krec",
            per_krec(tracer.durations("cluster.apply").iter().sum()),
        );
        report.layer("cluster.lag_lsn_p99", common::p(&lag_open, 0.99));
        report.layer(
            "cluster.pull_cpu_frac",
            stats::cpu_frac(&threads0, &threads1, "wsrep-repl-pull", open.wall),
        );
        report.layer("cluster.ack_us_p50", ack.p50_ns / 1e3);
        report.layer("cluster.ack_us_p99", ack.p99_ns / 1e3);
        report.layer("cluster.stale_ms_p50", common::p(&stale_open, 0.5) / 1e6);
        report.layer("cluster.stale_ms_p99", common::p(&stale_open, 0.99) / 1e6);
        // The primary's durable-write path, replayed in process.
        let fsync_ns = writes::replay(
            ctx,
            &writes::dataset(ctx.seed),
            &write_mix,
            &write_tracer,
            write_ops.0,
            write_ops.1,
        )?;
        writes::write_layers(&mut report, &write_tracer, &fsync_ns);
        writes::journal_layers(
            &mut report,
            &health0,
            &health,
            acked,
            seeded_reports + acked,
            &log,
        );
        report.layer(
            "serve.writer_cpu_frac",
            stats::cpu_frac(&t0, &t1, "wsrep-ingest", phase.wall)
                / (writes::WRITER_GROUPS + 1) as f64,
        );
        tracer.absorb(write_tracer);
        report.tracer = Some(tracer);
    }
    report.detail("read_rate_ops_per_s", Json::Num(READ_RATE));
    report.detail("write_rate_ops_per_s", Json::Num(WRITE_RATE));
    report.detail(
        "rate_source",
        Json::Str(format!(
            "reads {READ_LOAD} x the reference host's read knee ({READ_KNEE} ops/s, median sat_ops_per_s); writes {WRITE_LOAD} x one connection's durable-ack knee ({WRITE_KNEE} ops/s = 1 / median ack p50)"
        )),
    );
    report.detail(
        "offered_load",
        Json::Num(READ_RATE / report.sat_ops_per_s.max(1.0)),
    );
    report.detail("ack_p50_us", Json::Num(ack.p50_ns / 1e3));
    report.detail("ack_p99_us", Json::Num(ack.p99_ns / 1e3));
    report.detail("ack_samples", Json::Int(ack.samples));
    report.detail("stale_p50_ms", Json::Num(common::p(&stale_open, 0.5) / 1e6));
    report.detail(
        "stale_p99_ms",
        Json::Num(common::p(&stale_open, 0.99) / 1e6),
    );
    report.detail("stale_samples", Json::Int(stale_open.len() as u64));
    report.detail("twin_records", Json::Int(twin.records));
    report.detail("acked_reports", Json::Int(acked));
    report.detail("recovered_reports", Json::Int(recovered_reports));
    report.detail("server_workers", Json::Int(common::WORKERS as u64));
    report.detail("shards", Json::Int(common::SHARDS as u64));
    report.detail("writer_groups", Json::Int(writes::WRITER_GROUPS as u64));
    Ok(report)
}
