//! The load generator: at most two threads over at most a few
//! connections ("lanes").
//!
//! - The **sender** (the calling thread) owns every open-loop lane. Op `i`
//!   of a lane at rate `r` is due at `t0 + i / r`; the sender sleeps until
//!   the earliest due op and then sends every op that is due, whether or
//!   not earlier replies came back.
//! - The **receiver** (one spawned thread) waits on every lane's socket
//!   with the registry's own epoll poller, decodes replies, checks them,
//!   and completes ops. It also owns the closed-loop lanes: it keeps a
//!   fixed window of ops in flight and sends the next op when one
//!   completes.
//!
//! An open-loop op's latency runs from its **intended** send time, so a
//! stall charges every op queued behind it (no coordinated omission); a
//! closed-loop op's runs from its actual send.

use crate::wire::{self, Fill, Reader, Writer};
use std::collections::VecDeque;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use wsrep_server::poll::{make_poller, Interest, PollerChoice};
use wsrep_server::{Request, Response};

/// How a lane offers load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pace {
    /// A fixed schedule of `rate` ops per second.
    Open {
        /// Ops per second.
        rate: f64,
    },
    /// Keep `window` ops in flight; send the next when one completes.
    Closed {
        /// Ops in flight.
        window: usize,
    },
}

/// Why a reply counts against the run.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// The reply is what the op asked for.
    Ok,
    /// The server refused or failed the op (an error reply).
    Failed(String),
    /// The reply is wrong: a correctness violation.
    Wrong(String),
}

/// One stream of ops on one connection.
pub trait Lane: Sync {
    /// The requests of op `i`, in send order. The op completes with the
    /// reply to the last one.
    fn requests(&self, i: u64) -> Vec<Request>;

    /// How many requests op `i` sends.
    fn parts(&self, i: u64) -> u32;

    /// Judge the reply to request `part` of op `i`.
    fn check(&self, i: u64, part: u32, response: &Response) -> Verdict;

    /// Op `i` completed at `at`; `sent` is when its first request left
    /// and `ok` whether every reply passed [`Lane::check`].
    fn completed(&self, i: u64, sent: Instant, at: Instant, ok: bool) {
        let _ = (i, sent, at, ok);
    }
}

/// One lane of a phase.
pub struct LaneSpec<'a> {
    /// Server address.
    pub addr: SocketAddr,
    /// Load shape.
    pub pace: Pace,
    /// The op stream.
    pub lane: &'a dyn Lane,
    /// Index of this lane's first op (phases of one run continue a
    /// stream rather than repeat it).
    pub first_op: u64,
}

/// What one lane of a phase measured.
#[derive(Debug, Default, Clone)]
pub struct LaneResult {
    /// Ops whose first request was sent.
    pub sent: u64,
    /// Ops completed (with any verdict).
    pub completed: u64,
    /// Ops that got an error reply, timed out, or lost their connection.
    pub failed: u64,
    /// Ops with a wrong reply.
    pub wrong: u64,
    /// The first few wrong-reply descriptions.
    pub wrong_detail: Vec<String>,
    /// `(completion offset from phase start, latency)` in ns per
    /// completed op.
    pub samples: Vec<(u64, u64)>,
    /// How late the sender put each open-loop op on the wire, ns.
    pub late_ns: Vec<u64>,
    /// Time spent in `Request::encode_frame`, ns per request (traced runs).
    pub encode_ns: Vec<u64>,
    /// Time spent in `Response::decode`, ns per reply (traced runs).
    pub decode_ns: Vec<u64>,
    /// Bytes sent and received.
    pub bytes_out: u64,
    /// Bytes received.
    pub bytes_in: u64,
    /// Next op index after this phase.
    pub next_op: u64,
    /// Completions per [`BUCKET`] of the phase, in order.
    pub per_bucket: Vec<u32>,
}

/// Width of the completion-count buckets of [`LaneResult::per_bucket`].
pub const BUCKET: Duration = Duration::from_millis(100);

impl LaneResult {
    /// Completed ops per second the phase sustained: the 75th percentile
    /// over its whole buckets (the first and last, cut by the phase's
    /// start and end, are left out). On a shared host other tenants take
    /// the CPUs away for stretches of a phase; the upper quartile reads
    /// the rate of the undisturbed stretches, which a slower program
    /// still lowers.
    pub fn rate(&self) -> f64 {
        let whole = match self.per_bucket.len() {
            0..=2 => &self.per_bucket[..],
            n => &self.per_bucket[1..n - 1],
        };
        let counts: Vec<u64> = whole.iter().map(|&c| c as u64).collect();
        crate::stats::pct(&counts, 0.75) as f64 / BUCKET.as_secs_f64()
    }
}

/// A phase's wall time plus every lane's result.
#[derive(Debug, Clone)]
pub struct PhaseResult {
    /// From the schedule origin to the last completion.
    pub wall: Duration,
    /// CPU seconds the whole process used during the phase.
    pub cpu_s: f64,
    /// Per lane, in [`LaneSpec`] order.
    pub lanes: Vec<LaneResult>,
}

/// Phase settings.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// How long ops are offered.
    pub duration: Duration,
    /// How long in-flight ops may take to finish after that.
    pub drain: Duration,
    /// Time encode/decode per message.
    pub traced: bool,
}

/// Intended send time of op `k` (counted from the phase's first op).
fn due(t0: Instant, interval_ns: f64, k: u64) -> Instant {
    t0 + Duration::from_nanos((k as f64 * interval_ns) as u64)
}

struct Shared {
    /// Per lane: ops sent so far by the sender (open lanes).
    sent: Vec<AtomicU64>,
    /// Per lane: actual send instants of in-flight ops, FIFO.
    send_times: Vec<Mutex<VecDeque<Instant>>>,
    sender_done: AtomicBool,
    /// Lanes whose connection died; the sender stops feeding them.
    dead: Vec<AtomicBool>,
}

fn encode(w: &mut Writer, requests: &[Request], traced: bool, encode_ns: &mut Vec<u64>) {
    for request in requests {
        if traced {
            let started = Instant::now();
            w.queue(request);
            encode_ns.push(started.elapsed().as_nanos() as u64);
        } else {
            w.queue(request);
        }
    }
}

/// Run one phase: connect every lane, offer load for `phase.duration`,
/// then wait up to `phase.drain` for in-flight ops.
pub fn run_phase(lanes: &[LaneSpec<'_>], phase: Phase) -> io::Result<PhaseResult> {
    let mut writers = Vec::with_capacity(lanes.len());
    let mut readers = Vec::with_capacity(lanes.len());
    for spec in lanes {
        let (w, r) = wire::connect(spec.addr)?;
        writers.push(Some(w));
        readers.push(r);
    }
    let shared = Shared {
        sent: lanes.iter().map(|_| AtomicU64::new(0)).collect(),
        send_times: lanes.iter().map(|_| Mutex::new(VecDeque::new())).collect(),
        sender_done: AtomicBool::new(false),
        dead: lanes.iter().map(|_| AtomicBool::new(false)).collect(),
    };
    // Closed-loop lanes are fed by the receiver.
    let mut closed_writers: Vec<Option<Writer>> = lanes.iter().map(|_| None).collect();
    for (l, spec) in lanes.iter().enumerate() {
        if matches!(spec.pace, Pace::Closed { .. }) {
            closed_writers[l] = writers[l].take();
        }
    }
    let t0 = Instant::now() + Duration::from_millis(2);
    let end = t0 + phase.duration;

    let mut results: Vec<LaneResult> = lanes.iter().map(|_| LaneResult::default()).collect();
    let mut sender_late: Vec<Vec<u64>> = lanes.iter().map(|_| Vec::new()).collect();
    let mut sender_encode: Vec<Vec<u64>> = lanes.iter().map(|_| Vec::new()).collect();
    let mut wall = Duration::ZERO;
    let cpu0 = crate::stats::process_cpu_s();
    std::thread::scope(|scope| -> io::Result<()> {
        let receiver = std::thread::Builder::new()
            .name("perfbench-recv".to_string())
            .spawn_scoped(scope, || {
                receive(lanes, phase, &shared, readers, closed_writers, t0, end)
            })?;
        let sent = send(
            lanes,
            phase,
            &shared,
            &mut writers,
            t0,
            end,
            &mut sender_late,
            &mut sender_encode,
        );
        shared.sender_done.store(true, Ordering::Release);
        let (lane_results, finished) = receiver.join().expect("receiver thread panicked");
        sent?;
        wall = finished.saturating_duration_since(t0);
        results = lane_results;
        Ok(())
    })?;
    for (l, result) in results.iter_mut().enumerate() {
        if matches!(lanes[l].pace, Pace::Open { .. }) {
            result.late_ns = std::mem::take(&mut sender_late[l]);
            result.encode_ns.append(&mut sender_encode[l]);
            result.bytes_out = writers[l].as_ref().map(|w| w.bytes).unwrap_or(0);
        }
    }
    Ok(PhaseResult {
        wall,
        cpu_s: crate::stats::process_cpu_s() - cpu0,
        lanes: results,
    })
}

#[allow(clippy::too_many_arguments)]
fn send(
    lanes: &[LaneSpec<'_>],
    phase: Phase,
    shared: &Shared,
    writers: &mut [Option<Writer>],
    t0: Instant,
    end: Instant,
    late: &mut [Vec<u64>],
    encode_ns: &mut [Vec<u64>],
) -> io::Result<()> {
    let intervals: Vec<Option<f64>> = lanes
        .iter()
        .map(|spec| match spec.pace {
            Pace::Open { rate } => Some(1e9 / rate),
            Pace::Closed { .. } => None,
        })
        .collect();
    let mut next: Vec<u64> = vec![0; lanes.len()];
    let mut due_batch: Vec<Instant> = Vec::new();
    loop {
        // Earliest due op across live open lanes.
        let mut earliest: Option<Instant> = None;
        for (l, interval) in intervals.iter().enumerate() {
            let Some(interval) = interval else { continue };
            if shared.dead[l].load(Ordering::Acquire) {
                continue;
            }
            let at = due(t0, *interval, next[l]);
            if at < end {
                earliest = Some(earliest.map_or(at, |e: Instant| e.min(at)));
            }
        }
        let Some(earliest) = earliest else {
            return Ok(());
        };
        let now = Instant::now();
        if earliest > now {
            std::thread::sleep(earliest - now);
            continue;
        }
        for (l, interval) in intervals.iter().enumerate() {
            let (Some(interval), Some(w)) = (interval, writers[l].as_mut()) else {
                continue;
            };
            if shared.dead[l].load(Ordering::Acquire) {
                continue;
            }
            due_batch.clear();
            loop {
                let at = due(t0, *interval, next[l]);
                if at > now || at >= end {
                    break;
                }
                let requests = lanes[l].lane.requests(lanes[l].first_op + next[l]);
                encode(w, &requests, phase.traced, &mut encode_ns[l]);
                due_batch.push(at);
                next[l] += 1;
            }
            if due_batch.is_empty() {
                continue;
            }
            // Record send instants before the bytes leave, so the
            // receiver can never see a reply without its send time.
            let sent_at = Instant::now();
            shared.send_times[l]
                .lock()
                .expect("send-time queue poisoned")
                .extend(due_batch.iter().map(|_| sent_at));
            shared.sent[l].store(next[l], Ordering::Release);
            if let Err(err) = w.flush() {
                shared.dead[l].store(true, Ordering::Release);
                if !matches!(
                    err.kind(),
                    io::ErrorKind::BrokenPipe | io::ErrorKind::ConnectionReset
                ) {
                    return Err(err);
                }
            }
            let flushed = Instant::now();
            late[l].extend(
                due_batch
                    .iter()
                    .map(|&at| flushed.saturating_duration_since(at).as_nanos() as u64),
            );
        }
    }
}

/// Per-lane receiver state.
struct RecvLane {
    /// Next op (relative index) to complete.
    next_done: u64,
    /// Replies received for `next_done`.
    parts_got: u32,
    /// Whether every reply of `next_done` so far passed.
    ok: bool,
    /// Ops sent (closed lanes count here; open lanes read `Shared`).
    sent: u64,
    alive: bool,
}

fn receive(
    lanes: &[LaneSpec<'_>],
    phase: Phase,
    shared: &Shared,
    mut readers: Vec<Reader>,
    mut closed_writers: Vec<Option<Writer>>,
    t0: Instant,
    end: Instant,
) -> (Vec<LaneResult>, Instant) {
    let mut results: Vec<LaneResult> = lanes
        .iter()
        .map(|spec| LaneResult {
            samples: match spec.pace {
                Pace::Open { rate } => {
                    Vec::with_capacity((rate * phase.duration.as_secs_f64() * 1.05) as usize + 16)
                }
                Pace::Closed { .. } => Vec::new(),
            },
            ..LaneResult::default()
        })
        .collect();
    let mut state: Vec<RecvLane> = lanes
        .iter()
        .map(|_| RecvLane {
            next_done: 0,
            parts_got: 0,
            ok: true,
            sent: 0,
            alive: true,
        })
        .collect();
    let intervals: Vec<f64> = lanes
        .iter()
        .map(|spec| match spec.pace {
            Pace::Open { rate } => 1e9 / rate,
            Pace::Closed { .. } => 0.0,
        })
        .collect();
    let mut poller = make_poller(PollerChoice::Epoll).expect("epoll is required (Linux)");
    for (l, reader) in readers.iter().enumerate() {
        poller
            .register(reader.fd(), l, Interest::READ)
            .expect("register lane socket");
    }
    // Fill the closed-loop windows at the schedule origin.
    std::thread::sleep(t0.saturating_duration_since(Instant::now()));
    for (l, spec) in lanes.iter().enumerate() {
        if let (Pace::Closed { window }, Some(w)) = (spec.pace, closed_writers[l].as_mut()) {
            for _ in 0..window {
                send_closed(spec, phase, shared, l, w, &mut state[l], &mut results[l]);
            }
        }
    }
    let mut events = Vec::new();
    let mut last_done = Instant::now();
    loop {
        let now = Instant::now();
        let sender_done = shared.sender_done.load(Ordering::Acquire);
        let mut outstanding = false;
        for (l, st) in state.iter_mut().enumerate() {
            if !st.alive {
                continue;
            }
            if matches!(lanes[l].pace, Pace::Open { .. }) {
                st.sent = shared.sent[l].load(Ordering::Acquire);
            }
            if st.next_done < st.sent {
                outstanding = true;
            }
        }
        let closed_live = lanes.iter().enumerate().any(|(l, spec)| {
            matches!(spec.pace, Pace::Closed { .. }) && state[l].alive && now < end
        });
        if sender_done && !outstanding && !closed_live {
            break;
        }
        if now > end + phase.drain {
            break;
        }
        events.clear();
        if poller.wait(&mut events, Duration::from_millis(1)).is_err() {
            continue;
        }
        for event in &events {
            let l = event.token;
            if !state[l].alive {
                continue;
            }
            let fill = readers[l].fill();
            let now = Instant::now();
            let mut broken = match fill {
                Ok(Fill::Data) => false,
                Ok(Fill::Closed) => true,
                Err(err) => err.kind() != io::ErrorKind::Interrupted,
            };
            loop {
                let payload = match readers[l].next_payload() {
                    Ok(Some(payload)) => payload,
                    Ok(None) => break,
                    Err(_) => {
                        broken = true;
                        break;
                    }
                };
                let decoded = if phase.traced {
                    let started = Instant::now();
                    let decoded = Response::decode(payload);
                    results[l]
                        .decode_ns
                        .push(started.elapsed().as_nanos() as u64);
                    decoded
                } else {
                    Response::decode(payload)
                };
                let st = &mut state[l];
                let spec = &lanes[l];
                let op = spec.first_op + st.next_done;
                let verdict = match decoded {
                    Ok(response) => spec.lane.check(op, st.parts_got, &response),
                    Err(err) => Verdict::Wrong(format!("undecodable reply: {err}")),
                };
                match verdict {
                    Verdict::Ok => {}
                    Verdict::Failed(_) => st.ok = false,
                    Verdict::Wrong(detail) => {
                        st.ok = false;
                        results[l].wrong += 1;
                        if results[l].wrong_detail.len() < 5 {
                            results[l].wrong_detail.push(detail);
                        }
                    }
                }
                st.parts_got += 1;
                if st.parts_got < spec.lane.parts(op) {
                    continue;
                }
                let sent_at = shared.send_times[l]
                    .lock()
                    .expect("send-time queue poisoned")
                    .pop_front()
                    .unwrap_or(now);
                // Only open-loop lanes keep per-op latencies: a closed
                // loop's are shaped by its own window, and not keeping
                // them holds the process's memory independent of how
                // many ops saturation completed.
                if matches!(spec.pace, Pace::Open { .. }) {
                    let start = due(t0, intervals[l], st.next_done);
                    results[l].samples.push((
                        now.saturating_duration_since(t0).as_nanos() as u64,
                        now.saturating_duration_since(start).as_nanos() as u64,
                    ));
                }
                results[l].completed += 1;
                let bucket =
                    (now.saturating_duration_since(t0).as_nanos() / BUCKET.as_nanos()) as usize;
                let counts = &mut results[l].per_bucket;
                if counts.len() <= bucket {
                    counts.resize(bucket + 1, 0);
                }
                counts[bucket] += 1;
                if !st.ok {
                    results[l].failed += 1;
                }
                spec.lane.completed(op, sent_at, now, st.ok);
                st.next_done += 1;
                st.parts_got = 0;
                st.ok = true;
                last_done = now;
                if now < end {
                    if let Some(w) = closed_writers[l].as_mut() {
                        send_closed(spec, phase, shared, l, w, st, &mut results[l]);
                    }
                }
            }
            if broken {
                let st = &mut state[l];
                st.alive = false;
                shared.dead[l].store(true, Ordering::Release);
                let _ = poller.deregister(readers[l].fd(), l);
            }
        }
    }
    for (l, st) in state.iter_mut().enumerate() {
        if matches!(lanes[l].pace, Pace::Open { .. }) {
            st.sent = shared.sent[l].load(Ordering::Acquire);
        }
        // Sent but never answered: timed out, or lost with the connection.
        results[l].failed += st.sent.saturating_sub(st.next_done);
        results[l].sent = st.sent;
        results[l].next_op = lanes[l].first_op + st.sent;
        results[l].bytes_in = readers[l].bytes;
        if let Some(w) = &closed_writers[l] {
            results[l].bytes_out = w.bytes;
        }
    }
    (results, last_done)
}

fn send_closed(
    spec: &LaneSpec<'_>,
    phase: Phase,
    shared: &Shared,
    l: usize,
    w: &mut Writer,
    st: &mut RecvLane,
    result: &mut LaneResult,
) {
    let requests = spec.lane.requests(spec.first_op + st.sent);
    encode(w, &requests, phase.traced, &mut result.encode_ns);
    shared.send_times[l]
        .lock()
        .expect("send-time queue poisoned")
        .push_back(Instant::now());
    st.sent += 1;
    if w.flush().is_err() {
        // The reader sees the close; unanswered ops count as failed.
        shared.dead[l].store(true, Ordering::Release);
    }
}
