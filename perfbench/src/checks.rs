//! Correctness checks. Each returns `Err(reason)` on a violation; any
//! failed check marks the run incorrect.

use wsrep_core::trust::TrustEstimate;
use wsrep_server::WireRanked;

/// A recovered log must hold every durably acknowledged report, with no
/// journal errors and the node not degraded.
pub fn durable_log(
    recovered_reports: u64,
    acked_reports: u64,
    journal_errors: u64,
    degraded: bool,
) -> Result<(), String> {
    if recovered_reports != acked_reports {
        return Err(format!(
            "recovered {recovered_reports} reports but {acked_reports} were durably acked"
        ));
    }
    if journal_errors != 0 {
        return Err(format!("{journal_errors} journal errors"));
    }
    if degraded {
        return Err("the node degraded its durability".to_string());
    }
    Ok(())
}

fn bits(estimate: &Option<TrustEstimate>) -> Option<(u64, u64)> {
    estimate.map(|e| (e.value.get().to_bits(), e.confidence.to_bits()))
}

/// A score read over the socket must be bit-equal to the in-process
/// `score` of the same service.
pub fn same_score(
    subject: impl std::fmt::Debug,
    socket: &Option<TrustEstimate>,
    in_process: &Option<TrustEstimate>,
) -> Result<(), String> {
    if bits(socket) != bits(in_process) {
        return Err(format!(
            "score of {subject:?}: socket {socket:?} != in-process {in_process:?}"
        ));
    }
    Ok(())
}

/// A top-k answer must be at most `k` long and sorted best first.
pub fn top_k_shape(ranked: &[WireRanked], k: u32) -> Result<(), String> {
    if ranked.len() > k as usize {
        return Err(format!("top-k returned {} > k = {k}", ranked.len()));
    }
    if let Some(at) = ranked.windows(2).position(|w| w[0].score < w[1].score) {
        return Err(format!(
            "top-k not sorted at rank {at}: {} < {}",
            ranked[at].score,
            ranked[at + 1].score
        ));
    }
    Ok(())
}

/// A caught-up replica must equal a sequential replay of its own log.
pub fn twin_equal(records: u64, mismatched: usize) -> Result<(), String> {
    if mismatched != 0 {
        return Err(format!(
            "replica differs from its sequential replay on {mismatched} subjects ({records} records)"
        ));
    }
    Ok(())
}

/// Two market sweeps with the same seed must settle identically.
pub fn digest_repeats(first: u64, second: u64) -> Result<(), String> {
    if first != second {
        return Err(format!(
            "settled-utility digest {first:016x} != {second:016x} for one seed"
        ));
    }
    Ok(())
}

/// At least two thirds of the mechanisms must settle above random choice.
pub fn most_beat_random(settled: &[(String, f64)], random: f64) -> Result<(), String> {
    let better = settled.iter().filter(|(_, u)| *u > random).count();
    if better * 3 < settled.len() * 2 {
        return Err(format!(
            "only {better}/{} mechanisms beat random ({random:.4})",
            settled.len()
        ));
    }
    Ok(())
}

/// Digest of per-mechanism settled utilities (order-sensitive).
pub fn digest(settled: &[(String, f64)]) -> u64 {
    settled.iter().fold(0xcbf2_9ce4_8422_2325, |h, (key, u)| {
        let mut h = h;
        for b in key.bytes().chain(u.to_bits().to_le_bytes()) {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
        h
    })
}

/// The open-loop generator kept its schedule: at most `max_frac` of ops
/// left more than `limit_ns` late. A run that fails this measured the
/// generator, not the server, and is not reported.
pub fn on_schedule(late_ns: &[u64], limit_ns: u64, max_frac: f64) -> Result<(), String> {
    if late_ns.is_empty() {
        return Ok(());
    }
    let behind = late_ns.iter().filter(|&&l| l > limit_ns).count();
    let frac = behind as f64 / late_ns.len() as f64;
    if frac > max_frac {
        return Err(format!(
            "generator fell behind: {behind}/{} ops sent over {} us late",
            late_ns.len(),
            limit_ns / 1000
        ));
    }
    Ok(())
}
