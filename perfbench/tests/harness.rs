//! The benchmark's own tests: seeded inputs repeat, the open-loop
//! generator charges a stall to the requests queued behind it, and every
//! correctness check fails on an input that violates it.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use wsrep_core::id::ServiceId;
use wsrep_core::trust::TrustEstimate;
use wsrep_journal::frame::{split_frame, FrameSplit, FRAME_HEADER_LEN};
use wsrep_perfbench::checks;
use wsrep_perfbench::driver::{run_phase, Lane, LaneSpec, Pace, Phase, Verdict};
use wsrep_perfbench::ops::{QueryOp, WriteMix};
use wsrep_perfbench::stats;
use wsrep_perfbench::workloads::common::{LATE_LIMIT_NS, LATE_MAX_FRAC};
use wsrep_perfbench::workloads::{query, writes};
use wsrep_server::{Request, Response, WireRanked};

#[test]
fn one_seed_gives_one_op_stream() {
    let ops = |seed: u64| -> Vec<QueryOp> {
        let mix = query::mix(&query::dataset(seed));
        (0..2_000).map(|i| mix.op(i)).collect()
    };
    assert_eq!(ops(5), ops(5));
    assert_ne!(ops(5), ops(6));
    assert!(
        ops(5).iter().any(|op| matches!(op, QueryOp::TopK { .. })),
        "the read mix includes top-k queries"
    );

    let writes = |seed: u64| -> Vec<Request> {
        let mix = WriteMix::new(seed, 64, 16, 1, 0);
        (0..200).map(|i| mix.request(i)).collect()
    };
    assert_eq!(writes(5), writes(5));
    assert_ne!(writes(5), writes(6));

    let data = query::dataset(9);
    let zipf = data.zipf();
    assert_eq!(data.listing(17), query::dataset(9).listing(17));
    assert_eq!(data.report(&zipf, 123), data.report(&zipf, 123));
}

#[test]
fn every_seed_logs_the_same_number_of_reports_per_service() {
    let counts = |seed: u64| -> (Vec<u64>, Vec<u64>) {
        let data = wsrep_perfbench::ops::Dataset {
            seed,
            services: 50,
            categories: 4,
            reports: 2_000,
            skew: 0.9,
        };
        let zipf = data.zipf();
        let mut per_service = vec![0u64; 50];
        let mut order = Vec::new();
        for i in 0..data.reports {
            let report = data.report(&zipf, i);
            let s = report.subject.as_service().expect("service subject").raw();
            per_service[s as usize] += 1;
            order.push(s);
        }
        (per_service, order)
    };
    let (a, order_a) = counts(1);
    let (b, order_b) = counts(2);
    assert_eq!(a, b, "the seed must not change the log's shape");
    assert_ne!(order_a, order_b, "the seed shuffles the log");
    assert!(a[0] > a[49], "subjects follow the Zipf law");
}

/// A loopback peer that answers every request with `Pong`, except that
/// it sleeps `stall` before answering request number `stall_at`.
fn stalling_peer(stall_at: u64, stall: Duration) -> (SocketAddr, Arc<AtomicBool>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let stop = Arc::new(AtomicBool::new(false));
    let stopped = Arc::clone(&stop);
    std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        stream.set_nodelay(true).expect("nodelay");
        let mut buf = Vec::new();
        let mut seen = 0u64;
        let mut chunk = [0u8; 4096];
        while !stopped.load(Ordering::Acquire) {
            let n = match stream.read(&mut chunk) {
                Ok(0) | Err(_) => return,
                Ok(n) => n,
            };
            buf.extend_from_slice(&chunk[..n]);
            let mut out = Vec::new();
            while let FrameSplit::Frame { frame_len } = split_frame(&buf) {
                let request =
                    Request::decode(&buf[FRAME_HEADER_LEN..frame_len]).expect("valid request");
                assert_eq!(request, Request::Ping);
                buf.drain(..frame_len);
                if seen == stall_at {
                    stream.write_all(&out).expect("write");
                    out.clear();
                    std::thread::sleep(stall);
                }
                seen += 1;
                Response::Pong.encode_frame(&mut out);
            }
            if stream.write_all(&out).is_err() {
                return;
            }
        }
    });
    (addr, stop)
}

struct Pings;

impl Lane for Pings {
    fn requests(&self, _: u64) -> Vec<Request> {
        vec![Request::Ping]
    }
    fn parts(&self, _: u64) -> u32 {
        1
    }
    fn check(&self, _: u64, _: u32, response: &Response) -> Verdict {
        match response {
            Response::Pong => Verdict::Ok,
            other => Verdict::Wrong(format!("{other:?}")),
        }
    }
}

fn ping_phase(stall_at: u64, stall: Duration) -> (Vec<(u64, u64)>, Vec<u64>) {
    let (addr, stop) = stalling_peer(stall_at, stall);
    let phase = run_phase(
        &[LaneSpec {
            addr,
            pace: Pace::Open { rate: 2_000.0 },
            lane: &Pings,
            first_op: 0,
        }],
        Phase {
            duration: Duration::from_millis(3_000),
            drain: Duration::from_secs(5),
            traced: false,
        },
    )
    .expect("phase runs");
    stop.store(true, Ordering::Release);
    let lane = &phase.lanes[0];
    assert_eq!(lane.failed, 0);
    assert_eq!(lane.wrong, 0);
    assert_eq!(lane.completed, lane.sent);
    (lane.samples.clone(), lane.late_ns.clone())
}

#[test]
fn a_stalled_peer_raises_the_reported_p99_for_the_requests_queued_behind_it() {
    let stall = Duration::from_millis(100);
    let (calm, _) = ping_phase(u64::MAX, stall);
    let (stalled, late) = ping_phase(3_000, stall);
    let calm = stats::summarize(&calm);
    let reported = stats::summarize(&stalled);
    // The phase spans several windows and the stall sits inside one.
    assert!(reported.windows >= 3, "{} windows", reported.windows);
    // At 2000 ops/s a 100 ms stall holds ~200 of the phase's 6000
    // requests: they are charged from their intended send time, so the
    // reported p99 lands inside the stall even though each waited behind
    // only one slow reply.
    assert!(
        reported.p99_ns > 20_000_000.0,
        "reported p99 {} ns should include the queueing behind the stall",
        reported.p99_ns
    );
    assert!(
        calm.p99_ns < 20_000_000.0,
        "calm p99 {} ns should not",
        calm.p99_ns
    );
    // The stall was the peer's: the generator kept its schedule.
    assert!(checks::on_schedule(&late, LATE_LIMIT_NS, LATE_MAX_FRAC).is_ok());
}

#[test]
fn the_schedule_check_rejects_a_generator_that_fell_behind() {
    let late_share = |share: usize| -> Vec<u64> {
        (0..100)
            .map(|i| if i < share { 3 * LATE_LIMIT_NS } else { 10_000 })
            .collect()
    };
    // Host-wide stalls that made some sends late are not the generator
    // falling behind; a sender late for most of the phase is.
    assert!(checks::on_schedule(&late_share(15), LATE_LIMIT_NS, LATE_MAX_FRAC).is_ok());
    assert!(checks::on_schedule(&late_share(60), LATE_LIMIT_NS, LATE_MAX_FRAC).is_err());
}

#[test]
fn the_durable_log_check_fails_on_lost_reports_errors_or_degradation() {
    assert!(checks::durable_log(100, 100, 0, false).is_ok());
    assert!(checks::durable_log(99, 100, 0, false).is_err());
    assert!(checks::durable_log(101, 100, 0, false).is_err());
    assert!(checks::durable_log(100, 100, 1, false).is_err());
    assert!(checks::durable_log(100, 100, 0, true).is_err());
}

#[test]
fn the_score_check_demands_bit_equality() {
    let subject = ServiceId::new(3);
    let a = Some(TrustEstimate::new(0.75, 0.5));
    let b = Some(TrustEstimate::new(0.75 + f64::EPSILON, 0.5));
    assert!(checks::same_score(subject, &a, &a).is_ok());
    assert!(checks::same_score(subject, &None, &None).is_ok());
    assert!(checks::same_score(subject, &a, &b).is_err());
    assert!(checks::same_score(subject, &a, &None).is_err());
}

fn ranked(scores: &[f64]) -> Vec<WireRanked> {
    scores
        .iter()
        .enumerate()
        .map(|(i, &score)| WireRanked {
            service: i as u64,
            provider: 0,
            qos_score: score,
            reputation: None,
            score,
        })
        .collect()
}

#[test]
fn the_top_k_check_fails_on_long_or_unsorted_answers() {
    assert!(checks::top_k_shape(&ranked(&[0.9, 0.5, 0.5, 0.1]), 4).is_ok());
    assert!(checks::top_k_shape(&ranked(&[0.9, 0.5, 0.1]), 2).is_err());
    assert!(checks::top_k_shape(&ranked(&[0.5, 0.9]), 2).is_err());
    // The read lane turns a violation into a wrong reply, not a failure.
    let op = QueryOp::TopK {
        category: 0,
        prefs: wsrep_perfbench::ops::prefs(1, 0),
        k: 2,
    };
    let bad = Response::TopKResult(ranked(&[0.1, 0.9]));
    assert!(matches!(query::judge(&op, &bad), Verdict::Wrong(_)));
    let good = Response::TopKResult(ranked(&[0.9, 0.1]));
    assert_eq!(query::judge(&op, &good), Verdict::Ok);
}

#[test]
fn error_replies_are_failures_and_short_acks_are_wrong() {
    let refused = Response::Error {
        code: wsrep_server::ErrorCode::NotDurable,
        message: "fenced".into(),
    };
    assert!(matches!(writes::judge(1, 16, &refused), Verdict::Failed(_)));
    assert!(matches!(
        writes::judge(0, 16, &Response::Ingested(15)),
        Verdict::Wrong(_)
    ));
    assert_eq!(writes::judge(0, 16, &Response::Ingested(16)), Verdict::Ok);
    assert_eq!(writes::judge(1, 16, &Response::Flushed), Verdict::Ok);
}

#[test]
fn the_twin_check_fails_on_any_mismatch() {
    assert!(checks::twin_equal(1_000, 0).is_ok());
    assert!(checks::twin_equal(1_000, 1).is_err());
}

#[test]
fn the_market_checks_fail_on_drift_or_too_few_winners() {
    let settled: Vec<(String, f64)> = (0..21).map(|i| (format!("m{i}"), 0.6)).collect();
    let digest = checks::digest(&settled);
    assert!(checks::digest_repeats(digest, digest).is_ok());
    let mut drifted = settled.clone();
    drifted[4].1 += 1e-12;
    assert!(checks::digest_repeats(digest, checks::digest(&drifted)).is_err());

    assert!(checks::most_beat_random(&settled, 0.5).is_ok());
    let mut weak = settled.clone();
    for entry in weak.iter_mut().take(8) {
        entry.1 = 0.4;
    }
    assert!(checks::most_beat_random(&weak, 0.5).is_err());
}
