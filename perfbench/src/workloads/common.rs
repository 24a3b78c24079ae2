//! Pieces the server workloads share.

use super::Report;
use crate::checks;
use crate::driver::{self, LaneResult, LaneSpec, Phase, PhaseResult, Verdict};
use crate::ops::Dataset;
use crate::stats;
use crate::wire;
use std::io;
use std::net::SocketAddr;
use std::path::Path;
use std::time::Duration;
use wsrep_serve::ReputationService;
use wsrep_server::{Request, Response, ServerConfig, ServerStats};

/// Reactor workers per server. Each server carries one or two load
/// connections; a second worker would only add a thread competing for the
/// 2-vCPU reference host's CPUs with the load generator and the servers'
/// own background threads.
pub const WORKERS: usize = 1;
/// Store shards per service (the builder default).
pub const SHARDS: usize = 8;
/// How long in-flight ops may take after a phase ends.
pub const DRAIN: Duration = Duration::from_secs(5);
/// An open-loop op sent more than this late left behind its schedule.
pub const LATE_LIMIT_NS: u64 = 2_000_000;
/// Share of ops that may leave that late before an attempt counts as the
/// generator falling behind. On a shared host other tenants stall every
/// thread of the process, the sender included, for milliseconds at a time
/// (steal time reached 15% of the CPUs while this was tuned); the sender
/// then catches up, and the lateness is charged to latency either way. A
/// sender that cannot keep up falls further behind with every op, so most
/// of its ops leave late.
pub const LATE_MAX_FRAC: f64 = 0.5;

/// Most ops a traced open-loop phase sends: the tracer keeps spans of
/// every op in memory until the run ends.
const TRACED_OPS: f64 = 150_000.0;

/// Length of a traced open-loop phase at `rate` ops per second: `open_s`,
/// or shorter if that would send more than `TRACED_OPS`.
pub fn traced_secs(open_s: f64, rate: f64) -> f64 {
    open_s.min(TRACED_OPS / rate)
}

/// Reactor settings every benchmark server uses.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        workers: WORKERS,
        ..ServerConfig::default()
    }
}

/// Write `data`'s listings and seeded report log into a journal at `dir`.
pub fn seed_log(dir: &Path, data: &Dataset, writer_groups: usize) -> io::Result<()> {
    let service = ReputationService::builder()
        .shards(SHARDS)
        .writer_groups(writer_groups)
        .journal(dir)
        .try_build()?;
    for s in 0..data.services {
        service
            .publish(data.listing(s))
            .map_err(|e| io::Error::other(format!("publish: {e:?}")))?;
    }
    let zipf = data.zipf();
    let mut batch = Vec::with_capacity(4096);
    for i in 0..data.reports {
        batch.push(data.report(&zipf, i));
        if batch.len() == 4096 {
            service
                .ingest_batch(std::mem::take(&mut batch))
                .map_err(|_| io::Error::other("ingest closed while seeding"))?;
        }
    }
    service
        .ingest_batch(batch)
        .map_err(|_| io::Error::other("ingest closed while seeding"))?;
    service
        .try_flush()
        .map_err(|_| io::Error::other("seeded log is not durable"))?;
    Ok(())
}

/// Score every service over one pipelined connection, so the score cache
/// holds every subject before measuring.
pub fn warm(addr: SocketAddr, services: u64) -> io::Result<()> {
    let (mut w, mut r) = wire::connect(addr)?;
    const WINDOW: u64 = 256;
    let mut sent = 0u64;
    let mut got = 0u64;
    while got < services {
        while sent < services && sent - got < WINDOW {
            w.queue(&Request::Score(wsrep_core::id::ServiceId::new(sent).into()));
            sent += 1;
        }
        w.flush()?;
        match r.recv()? {
            Response::Scored(_) => got += 1,
            other => return Err(io::Error::other(format!("warm-up got {other:?}"))),
        }
    }
    Ok(())
}

/// The verdict on a reply that should never be an error.
pub fn error_verdict(response: &Response) -> Verdict {
    match response {
        Response::Error { code, message } => Verdict::Failed(format!("{code:?}: {message}")),
        other => Verdict::Wrong(format!("unexpected reply {other:?}")),
    }
}

/// Fold a lane's counts into the report: attempts, failures, wrong
/// replies, and completions over `limit_ns`.
pub fn account(report: &mut Report, lane: &LaneResult, limit_ns: u64) {
    report.attempted += lane.sent;
    report.failed += lane.failed;
    report.missed_limit += lane
        .samples
        .iter()
        .filter(|&&(_, latency)| latency > limit_ns)
        .count() as u64;
    if lane.wrong > 0 {
        report.problems.push(format!(
            "{} wrong replies, first: {}",
            lane.wrong,
            lane.wrong_detail.join("; ")
        ));
    }
}

/// Attempts at an open-loop phase before the run is declared invalid.
const ATTEMPTS: usize = 3;

/// Run an open-loop phase, charging every attempt's ops to the report
/// (`limits[l]` is lane `l`'s latency limit). An attempt whose sender fell
/// behind its schedule measured the generator, not the system: it is not
/// reported, and the phase runs again, each lane continuing its op stream
/// (`lanes[l].first_op` is left at the next unsent op). When every attempt
/// fell behind, the run is invalid.
pub fn open_phase(
    report: &mut Report,
    lanes: &mut [LaneSpec<'_>],
    phase: Phase,
    limits: &[u64],
) -> Result<PhaseResult, String> {
    let mut attempt = 1;
    loop {
        let result = driver::run_phase(lanes, phase).map_err(|e| format!("load phase: {e}"))?;
        for (l, lane) in result.lanes.iter().enumerate() {
            account(report, lane, limits[l]);
            lanes[l].first_op = lane.next_op;
        }
        let behind = result.lanes.iter().find_map(|lane| {
            checks::on_schedule(&lane.late_ns, LATE_LIMIT_NS, LATE_MAX_FRAC).err()
        });
        match behind {
            None => return Ok(result),
            Some(reason) if attempt == ATTEMPTS => {
                report.invalid = Some(reason);
                return Ok(result);
            }
            Some(reason) => eprintln!("perfbench: attempt {attempt} not reported: {reason}"),
        }
        attempt += 1;
    }
}

/// Server-side failure counters: frames the server could not parse,
/// protocol errors, and clients it evicted for stalling.
pub fn server_failures(stats: &ServerStats) -> u64 {
    stats.malformed_frames + stats.protocol_errors + stats.slow_client_closes
}

/// Copy the directory tree at `from` to `to`.
pub fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

/// Bytes in the files under `dir`.
pub fn disk_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => disk_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Percentile `q` of unsorted samples, as a float.
pub fn p(values: &[u64], q: f64) -> f64 {
    stats::pct(values, q) as f64
}
