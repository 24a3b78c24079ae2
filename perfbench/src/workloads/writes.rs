//! The durable-write lane `replicated` drives on its primary: keyed
//! Ingest batches over a 64-service hot set, each followed by a Flush.
//!
//! `Ingested` only acknowledges enqueue, so an op completes on the
//! `Flushed` reply that follows it: that is the durable ack. The traced
//! run replays the same batches in process ([`replay`]) to time the
//! ingest pipeline, the flush and a bare journal append.

use super::common;
use super::{Ctx, Report};
use crate::driver::{Lane, Verdict};
use crate::ops::{Dataset, WriteMix};
use crate::trace::Tracer;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use wsrep_journal::{Journal, JournalConfig, JournalRecord};
use wsrep_serve::{JournalHealth, ReputationService};
use wsrep_server::{Request, Response};

/// Reports per batch.
pub const BATCH: usize = 16;
/// Hot services the reports are about.
pub const HOT: u64 = 64;
/// Writer groups of the primary: one, for a single write connection.
pub const WRITER_GROUPS: usize = 1;
/// A durable ack slower than this missed its latency limit.
pub const LIMIT_NS: u64 = 20_000_000;
/// Most traced ops replayed in process (each costs two fsyncs).
const REPLAY_CAP: u64 = 1500;

/// The hot set's listings.
pub fn dataset(seed: u64) -> Dataset {
    Dataset {
        seed,
        services: HOT,
        categories: 4,
        reports: 0,
        skew: 0.0,
    }
}

/// A durable-write lane: op `i` is `Ingest(batch i, key (producer, i))`
/// then `Flush`; it completes on `Flushed`.
pub struct WriteLane<'a> {
    /// The batches.
    pub mix: WriteMix,
    /// Reports whose batch was durably acknowledged.
    pub acked: AtomicU64,
    /// Span sink of a traced phase.
    pub tracer: Option<&'a Tracer>,
    /// Called with each durable ack's time (replication staleness).
    pub on_ack: Option<&'a (dyn Fn(Instant) + Sync)>,
}

impl<'a> WriteLane<'a> {
    /// A lane over `mix`.
    pub fn new(mix: WriteMix) -> WriteLane<'a> {
        WriteLane {
            mix,
            acked: AtomicU64::new(0),
            tracer: None,
            on_ack: None,
        }
    }
}

/// Judge the reply to part `part` of a batch + flush op.
pub fn judge(part: u32, batch_len: usize, response: &Response) -> Verdict {
    match (part, response) {
        (0, Response::Ingested(n)) if *n == batch_len as u64 => Verdict::Ok,
        (0, Response::Ingested(n)) => {
            Verdict::Wrong(format!("Ingested({n}) for a batch of {batch_len}"))
        }
        (1, Response::Flushed) => Verdict::Ok,
        (_, other) => common::error_verdict(other),
    }
}

impl Lane for WriteLane<'_> {
    fn requests(&self, i: u64) -> Vec<Request> {
        vec![self.mix.request(i), Request::Flush]
    }
    fn parts(&self, _: u64) -> u32 {
        2
    }
    fn check(&self, _: u64, part: u32, response: &Response) -> Verdict {
        judge(part, self.mix.batch_len(), response)
    }
    fn completed(&self, i: u64, sent: Instant, at: Instant, ok: bool) {
        if ok {
            self.acked
                .fetch_add(self.mix.batch_len() as u64, Ordering::Relaxed);
            if let Some(on_ack) = self.on_ack {
                on_ack(at);
            }
        }
        if let Some(tracer) = self.tracer {
            tracer.record("server", None, i, sent, at);
        }
    }
}

/// A fresh journaled service at `dir` with the hot set published.
fn fresh_service(dir: &Path, data: &Dataset) -> Result<ReputationService, String> {
    let service = ReputationService::builder()
        .shards(common::SHARDS)
        .writer_groups(WRITER_GROUPS)
        .journal(dir)
        .try_build()
        .map_err(|e| format!("opening the journal: {e}"))?;
    for s in 0..data.services {
        service
            .publish(data.listing(s))
            .map_err(|e| format!("publish: {e:?}"))?;
    }
    Ok(service)
}

/// Per-layer figures of the durable-write path from ops replayed with
/// [`replay`]. Returns the sum of the layers' self-time p50s below the
/// socket, ns.
pub fn write_layers(report: &mut Report, tracer: &Tracer, fsync_ns: &[u64]) -> f64 {
    let ingest = tracer.durations("serve.ingest");
    let flush = tracer.durations("serve.flush");
    let append = tracer.durations("journal.append");
    report.layer("serve.ingest_us_p50", common::p(&ingest, 0.5) / 1e3);
    report.layer("serve.flush_us_p50", common::p(&flush, 0.5) / 1e3);
    report.layer("serve.flush_us_p99", common::p(&flush, 0.99) / 1e3);
    report.layer("journal.append_us_p50", common::p(&append, 0.5) / 1e3);
    report.layer("journal.fsync_us_p50", common::p(fsync_ns, 0.5) / 1e3);
    report.layer("journal.fsync_us_p99", common::p(fsync_ns, 0.99) / 1e3);
    common::p(&ingest, 0.5)
        + common::p(&tracer.self_times("serve.flush"), 0.5)
        + common::p(&append, 0.5)
}

/// Journal growth between two health snapshots, per durably acked
/// report (group commits, appended bytes), and the bytes on disk in `dir`
/// per report the log holds.
pub fn journal_layers(
    report: &mut Report,
    before: &JournalHealth,
    after: &JournalHealth,
    acked: u64,
    logged: u64,
    dir: &Path,
) {
    let reports = acked.max(1) as f64;
    report.layer(
        "journal.commits_per_kreport",
        (after.commits - before.commits) as f64 / (reports / 1e3),
    );
    report.layer(
        "journal.bytes_per_report",
        (after.bytes_appended - before.bytes_appended) as f64 / reports,
    );
    report.layer(
        "journal.disk_bytes_per_report",
        common::disk_bytes(dir) as f64 / logged.max(1) as f64,
    );
}

/// Replay ops `from..to` of `mix` in process: the service's ingest and
/// flush, and a bare journal append of the same records, each as a span
/// of the op. Returns each append's fsync time, ns.
pub fn replay(
    ctx: &Ctx,
    data: &Dataset,
    mix: &WriteMix,
    tracer: &Tracer,
    from: u64,
    to: u64,
) -> Result<Vec<u64>, String> {
    let service = fresh_service(&ctx.work.join("replay-service"), data)?;
    let mut journal = Journal::open(ctx.work.join("replay-journal"), JournalConfig::default())
        .map_err(|e| format!("replay journal: {e}"))?;
    let mut fsync_ns = Vec::new();
    for i in from..to.min(from + REPLAY_CAP) {
        let batch = mix.batch(i);
        let records: Vec<JournalRecord> =
            batch.iter().cloned().map(JournalRecord::Feedback).collect();
        tracer
            .time("serve.ingest", Some("server"), i, || {
                service.ingest_batch(batch)
            })
            .map_err(|_| "replay ingest closed".to_string())?;
        tracer
            .time("serve.flush", Some("server"), i, || service.try_flush())
            .map_err(|_| "replay flush not durable".to_string())?;
        let receipt = tracer
            .time("journal.append", Some("serve.flush"), i, || {
                journal.append_batch(&records)
            })
            .map_err(|e| format!("replay append: {e}"))?;
        fsync_ns.push(receipt.fsync_nanos);
    }
    Ok(fsync_ns)
}
