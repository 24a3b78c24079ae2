//! `market`: every Figure-4 mechanism plus random choice drives the
//! simulated service market (the tier-1 `most_mechanisms_beat_blind_choice`
//! set-up), single-threaded, with no server. Measures the `core`
//! mechanisms, `sim` and `select`, which the registry workloads never run.
//!
//! The world is fixed (`WorldConfig::small(7)`, homogeneous preferences);
//! the seed picks the consumers' choices. A run repeats sweeps over all 22
//! strategies, cycling through `SEEDS` market seeds derived from `--seed`,
//! until the time is up; every repeat of a seed must reach the same
//! outcome.
//!
//! The timed figures read the undisturbed cost of that fixed work. On the
//! shared reference host the same code ran up to 1.6 times slower for
//! stretches of a fraction of a second to tens of seconds while other
//! tenants loaded the caches the CPU shares, so a median over a run
//! followed the neighbours. Each round of each strategy on each seed is
//! timed on every repeat, and the fastest repeat is charged; set-up is
//! timed in short bursts spread over the run.

use super::{Ctx, Report};
use crate::checks;
use crate::json::Json;
use crate::stats;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use wsrep_core::feedback::Feedback;
use wsrep_core::id::{AgentId, SubjectId};
use wsrep_core::mechanism::{ReputationMechanism, SubjectAccumulator};
use wsrep_core::mechanisms::all_figure4_mechanisms;
use wsrep_core::time::Time;
use wsrep_core::trust::TrustEstimate;
use wsrep_core::typology::Centralization;
use wsrep_core::typology::MechanismInfo;
use wsrep_select::eval::{Market, MarketConfig};
use wsrep_select::strategy::{RandomSelect, ReputationSelect, SelectionContext, SelectionStrategy};
use wsrep_sim::world::{World, WorldConfig};

/// Market rounds per strategy run.
pub const ROUNDS: u64 = 16;
/// Seed of the fixed world.
const WORLD_SEED: u64 = 7;
/// Market seeds a run cycles through.
const SEEDS: usize = 4;
/// Set-ups timed back to back before every sweep, for `setup_s`.
const SETUP_BURST: usize = 8;
/// Quantile of the run's set-ups reported as `setup_s`: the lower
/// quartile. A set-up takes about half a millisecond, so each one falls
/// wholly inside a fast or a slow stretch of the host and their times
/// split into two modes; the median moved between them with the share of
/// the run the neighbours were busy, while the lower quartile reads the
/// fast mode whenever a quarter of the run had it.
const SETUP_QUANTILE: f64 = 0.25;
/// Strategies per sweep: the 21 Figure-4 mechanisms plus random choice.
const STRATEGIES: usize = 22;

fn world() -> World {
    let mut cfg = WorldConfig::small(WORLD_SEED);
    cfg.preference_heterogeneity = 0.0;
    World::generate(cfg)
}

/// Wraps a strategy to time each consumer's choice: how long a consumer
/// waits for the strategy to pick a service.
#[derive(Debug)]
struct ChoiceClock<'a> {
    inner: &'a mut dyn SelectionStrategy,
    /// Origin of the completion offsets.
    origin: Instant,
    /// `(completion offset, latency)` per choice, ns.
    choices: &'a mut Vec<(u64, u64)>,
    /// `(wall, thread CPU)` of each market round so far, ns.
    rounds: Vec<(u64, u64)>,
    /// Wall clock and thread CPU clock at the end of the last round.
    mark: (Instant, u64),
}

impl SelectionStrategy for ChoiceClock<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn centralization(&self) -> Centralization {
        self.inner.centralization()
    }
    fn choose(
        &mut self,
        ctx: &SelectionContext<'_>,
        rng: &mut rand::rngs::StdRng,
    ) -> Option<usize> {
        let started = Instant::now();
        let choice = self.inner.choose(ctx, rng);
        let done = Instant::now();
        self.choices.push((
            done.duration_since(self.origin).as_nanos() as u64,
            done.duration_since(started).as_nanos() as u64,
        ));
        choice
    }
    fn observe(&mut self, feedback: &Feedback) {
        self.inner.observe(feedback);
    }
    fn refresh(&mut self, now: Time) {
        self.inner.refresh(now);
        // The market refreshes the strategy once, at the end of every round.
        let wall = Instant::now();
        let cpu = stats::thread_cpu_ns();
        self.rounds.push((
            wall.duration_since(self.mark.0).as_nanos() as u64,
            cpu.saturating_sub(self.mark.1),
        ));
        self.mark = (wall, cpu);
    }
}

/// Per-call timings of one mechanism, filled by [`TimedMechanism`].
#[derive(Debug, Default)]
struct CallTimes {
    submit: Vec<u64>,
    score: Vec<u64>,
    refresh: Vec<u64>,
}

impl CallTimes {
    fn total_ns(&self) -> u64 {
        self.submit
            .iter()
            .chain(&self.score)
            .chain(&self.refresh)
            .sum()
    }
}

/// A delegating mechanism that times every call into the wrapped one.
#[derive(Debug)]
struct TimedMechanism {
    inner: Box<dyn ReputationMechanism>,
    times: Arc<Mutex<CallTimes>>,
}

impl TimedMechanism {
    fn timed<T>(&self, pick: fn(&mut CallTimes) -> &mut Vec<u64>, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        let ns = started.elapsed().as_nanos() as u64;
        pick(&mut self.times.lock().expect("call times poisoned")).push(ns);
        out
    }
}

impl ReputationMechanism for TimedMechanism {
    fn info(&self) -> MechanismInfo {
        self.inner.info()
    }
    fn submit(&mut self, feedback: &Feedback) {
        let started = Instant::now();
        self.inner.submit(feedback);
        let ns = started.elapsed().as_nanos() as u64;
        self.times
            .lock()
            .expect("call times poisoned")
            .submit
            .push(ns);
    }
    fn accumulator(&self) -> Option<Box<dyn SubjectAccumulator>> {
        self.inner.accumulator()
    }
    fn global(&self, subject: SubjectId) -> Option<TrustEstimate> {
        self.timed(|t| &mut t.score, || self.inner.global(subject))
    }
    fn personalized(&self, observer: AgentId, subject: SubjectId) -> Option<TrustEstimate> {
        self.timed(
            |t| &mut t.score,
            || self.inner.personalized(observer, subject),
        )
    }
    fn refresh(&mut self, now: Time) {
        let started = Instant::now();
        self.inner.refresh(now);
        let ns = started.elapsed().as_nanos() as u64;
        self.times
            .lock()
            .expect("call times poisoned")
            .refresh
            .push(ns);
    }
    fn feedback_count(&self) -> usize {
        self.inner.feedback_count()
    }
}

/// One sweep's outcome.
struct Sweep {
    settled: Vec<(String, f64)>,
    random: f64,
    selections: u64,
    /// Time inside `Market::run`, summed over strategies.
    run_s: f64,
    /// Time generating worlds.
    gen_s: f64,
    /// Origin of the choices' completion offsets (shared by a run's
    /// sweeps).
    origin: Instant,
    /// `(completion offset, latency)` of every consumer choice, ns.
    choices: Vec<(u64, u64)>,
    /// Choice latencies per strategy, in sweep order (random first), ns.
    by_strategy: Vec<Vec<u64>>,
    /// `(wall, thread CPU)` of each round per strategy, in sweep order, ns.
    rounds: Vec<Vec<(u64, u64)>>,
}

/// Mechanism call timers and spans of a traced run.
#[derive(Default)]
struct Traced {
    timers: BTreeMap<String, Arc<Mutex<CallTimes>>>,
    tracer: Tracer,
    runs: u64,
}

fn run_one(
    strategy: &mut dyn SelectionStrategy,
    seed: u64,
    sweep: &mut Sweep,
    mechanism: Option<(&mut Traced, &str)>,
) -> f64 {
    let gen = Instant::now();
    let world = world();
    sweep.gen_s += gen.elapsed().as_secs_f64();
    let market = Market::new(world, MarketConfig::new(ROUNDS, seed));
    let inside_before = mechanism.as_ref().map(|(t, key)| {
        t.timers[*key]
            .lock()
            .expect("call times poisoned")
            .total_ns()
    });
    let first_choice = sweep.choices.len();
    let started = Instant::now();
    let mut clock = ChoiceClock {
        inner: strategy,
        origin: sweep.origin,
        choices: &mut sweep.choices,
        rounds: Vec::with_capacity(ROUNDS as usize),
        mark: (started, stats::thread_cpu_ns()),
    };
    let report = market.run(&mut clock);
    let ended = Instant::now();
    let rounds = std::mem::take(&mut clock.rounds);
    sweep.rounds.push(rounds);
    let mine = sweep.choices[first_choice..].iter().map(|c| c.1).collect();
    sweep.by_strategy.push(mine);
    sweep.run_s += ended.duration_since(started).as_secs_f64();
    sweep.selections += report.selections;
    if let (Some((traced, key)), Some(before)) = (mechanism, inside_before) {
        // One `select` span per strategy run, with the time spent inside
        // the mechanism as its child (the calls interleave with selection
        // work, so the child is their sum, placed at the run's start).
        let inside = traced.timers[key]
            .lock()
            .expect("call times poisoned")
            .total_ns()
            - before;
        let op = traced.runs;
        traced.runs += 1;
        traced.tracer.record("select", None, op, started, ended);
        traced.tracer.record(
            "core",
            Some("select"),
            op,
            started,
            started + Duration::from_nanos(inside),
        );
    }
    report.settled_utility
}

fn sweep(seed: u64, origin: Instant, mut traced: Option<&mut Traced>) -> Sweep {
    let mut out = Sweep {
        settled: Vec::new(),
        random: 0.0,
        selections: 0,
        run_s: 0.0,
        gen_s: 0.0,
        origin,
        choices: Vec::new(),
        by_strategy: Vec::new(),
        rounds: Vec::new(),
    };
    out.random = run_one(&mut RandomSelect, seed, &mut out, None);
    for mechanism in all_figure4_mechanisms() {
        let key = mechanism.info().key.to_string();
        let settled = match traced.as_deref_mut() {
            Some(t) => {
                let times = Arc::clone(t.timers.entry(key.clone()).or_default());
                let timed = TimedMechanism {
                    inner: mechanism,
                    times,
                };
                let mut strategy = ReputationSelect::new(Box::new(timed));
                run_one(&mut strategy, seed, &mut out, Some((t, &key)))
            }
            None => {
                let mut strategy = ReputationSelect::new(mechanism);
                run_one(&mut strategy, seed, &mut out, None)
            }
        };
        out.settled.push((key, settled));
    }
    out
}

fn sweep_seed(seed: u64, index: usize) -> u64 {
    crate::rng::mix(seed, 0x6d61_726b, (index % SEEDS) as u64)
}

/// Time `n` back-to-back set-ups of the worlds one sweep runs on, s.
fn time_setups(n: usize) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let started = Instant::now();
            let worlds: Vec<World> = (0..STRATEGIES).map(|_| world()).collect();
            let took = started.elapsed().as_secs_f64();
            drop(std::hint::black_box(worlds));
            took
        })
        .collect()
}

/// The undisturbed cost of a run's work: for every market seed, strategy
/// and round, the fastest of the run's repeats of that round (wall clock
/// and thread CPU taken separately), summed, with the selections those
/// rounds made. Every repeat does the same work, so a repeat that took
/// longer was slowed by the host.
#[derive(Debug, Default)]
struct Fastest {
    wall_s: f64,
    cpu_s: f64,
    selections: u64,
}

fn fastest(sweeps: &[Sweep]) -> Fastest {
    let mut out = Fastest::default();
    for k in 0..SEEDS {
        let repeats: Vec<&Sweep> = sweeps.iter().skip(k).step_by(SEEDS).collect();
        let Some(first) = repeats.first() else {
            continue;
        };
        out.selections += first.selections;
        for (s, rounds) in first.rounds.iter().enumerate() {
            for r in 0..rounds.len() {
                let each = || repeats.iter().map(|sweep| sweep.rounds[s][r]);
                out.wall_s += each().map(|t| t.0).min().unwrap_or(0) as f64 / 1e9;
                out.cpu_s += each().map(|t| t.1).min().unwrap_or(0) as f64 / 1e9;
            }
        }
    }
    out
}

/// Run the workload.
pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::new(ctx);
    report.setup_quantile = SETUP_QUANTILE;
    stats::reset_peak_rss();
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    let mut traced = ctx.traced.then(Traced::default);
    let mut sweeps: Vec<Sweep> = Vec::new();
    let origin = Instant::now();
    while sweeps.len() < SEEDS || Instant::now() < deadline {
        // Set-up: the worlds one sweep runs on, one per strategy.
        report.setup_s.extend(time_setups(SETUP_BURST));
        sweeps.push(sweep(
            sweep_seed(ctx.seed, sweeps.len()),
            origin,
            traced.as_mut(),
        ));
        // Peak memory through two sweeps: every mechanism has reached its
        // full state, and later sweeps only add latency samples, so a
        // later reading would follow how many sweeps the host got through.
        if sweeps.len() == 2 {
            report.peak_rss_mb = stats::peak_rss_mb();
        }
    }
    // Every repeat of a seed, and the first seed again untraced: the
    // outcome must repeat.
    let again = sweep(sweep_seed(ctx.seed, 0), Instant::now(), None);
    let repeats = sweeps
        .iter()
        .enumerate()
        .skip(SEEDS)
        .map(|(i, s)| (&sweeps[i % SEEDS], s))
        .chain([(&sweeps[0], &again)]);
    for (first, repeat) in repeats {
        let repeated = checks::digest_repeats(
            checks::digest(&first.settled),
            checks::digest(&repeat.settled),
        );
        if repeated.is_err() {
            report.check(repeated);
            break;
        }
    }
    // Two thirds beat random, on settled utility averaged over the sweeps.
    let n = sweeps.len() as f64;
    let random = sweeps.iter().map(|s| s.random).sum::<f64>() / n;
    let settled: Vec<(String, f64)> = sweeps[0]
        .settled
        .iter()
        .enumerate()
        .map(|(m, (key, _))| {
            let mean = sweeps.iter().map(|s| s.settled[m].1).sum::<f64>() / n;
            (key.clone(), mean)
        })
        .collect();
    report.check(checks::most_beat_random(&settled, random));

    let selections: u64 = sweeps.iter().map(|s| s.selections).sum();
    let fast = fastest(&sweeps);
    report.attempted = selections;
    report.sat_ops_per_s = fast.selections as f64 / fast.wall_s;
    report.sat_samples = sweeps.len() as u64;
    let choices: Vec<(u64, u64)> = sweeps
        .iter()
        .flat_map(|s| s.choices.iter().copied())
        .collect();
    report.latency = stats::summarize(&choices);
    // The reported median is how long a consumer waits for a choice under a
    // typical mechanism: the geometric mean over the 22 strategies of each
    // one's median choice latency. The choice latencies are multimodal
    // across mechanisms (a few µs for most, tens for some), so a pooled
    // median lands between groups and jumps with the seed; this weighs
    // every mechanism alike, where `sat_ops_per_s` is dominated by the few
    // whose refresh is slow. p90/p99 stay those of every choice. Unlike the
    // gated figures, these read every repeat, disturbed or not.
    let medians: Vec<f64> = (0..STRATEGIES)
        .map(|m| {
            let mine: Vec<u64> = sweeps
                .iter()
                .flat_map(|s| s.by_strategy[m].iter().copied())
                .collect();
            stats::pct(&mine, 0.5).max(1) as f64
        })
        .collect();
    report.latency.p50_ns =
        (medians.iter().map(|m| m.ln()).sum::<f64>() / medians.len() as f64).exp();
    report.ops_for_cpu = fast.selections;
    report.cpu_s = fast.cpu_s;

    if let Some(traced) = traced {
        let per_sweep = |ns: f64| ns / 1e9 / n;
        report.layer(
            "sim.world_gen_s",
            sweeps.iter().map(|s| s.gen_s).sum::<f64>() / (n * STRATEGIES as f64),
        );
        let (mut submit, mut score, mut refresh) = (Vec::new(), Vec::new(), Vec::new());
        for (key, times) in &traced.timers {
            let times = times.lock().expect("call times poisoned");
            report.layer(
                &format!("core.{key}.self_s"),
                per_sweep(times.total_ns() as f64),
            );
            submit.extend_from_slice(&times.submit);
            score.extend_from_slice(&times.score);
            refresh.extend_from_slice(&times.refresh);
        }
        report.layer("core.submit_ns", stats::pct(&submit, 0.5) as f64);
        report.layer("core.score_ns", stats::pct(&score, 0.5) as f64);
        report.layer("core.refresh_ms", stats::pct(&refresh, 0.5) as f64 / 1e6);
        let select_ns: u64 = traced.tracer.self_times("select").iter().sum();
        let core_ns: u64 = traced.tracer.durations("core").iter().sum();
        report.layer("select.self_s", per_sweep(select_ns as f64));
        // Traced sweeps against the untraced repeat of the first seed.
        let traced_rate = sweeps[0].selections as f64 / sweeps[0].run_s;
        let plain_rate = again.selections as f64 / again.run_s;
        report.layer("trace.overhead_frac", plain_rate / traced_rate - 1.0);
        let run_ns: f64 = sweeps.iter().map(|s| s.run_s).sum::<f64>() * 1e9;
        report.layer("trace.coverage", (select_ns + core_ns) as f64 / run_ns);
        report.tracer = Some(traced.tracer);
    }
    report.detail("rounds", Json::Int(ROUNDS));
    report.detail("sweeps", Json::Int(sweeps.len() as u64));
    report.detail("market_seeds", Json::Int(SEEDS as u64));
    let rates: Vec<f64> = sweeps
        .iter()
        .map(|s| s.selections as f64 / s.run_s)
        .collect();
    report.detail("median_sweep_sel_per_s", Json::Num(stats::median(&rates)));
    report.detail("random_settled", Json::Num(random));
    report.detail(
        "mechanisms_beating_random",
        Json::Int(settled.iter().filter(|(_, u)| *u > random).count() as u64),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep_with(selections: u64, rounds: Vec<Vec<(u64, u64)>>) -> Sweep {
        Sweep {
            settled: Vec::new(),
            random: 0.0,
            selections,
            run_s: 0.0,
            gen_s: 0.0,
            origin: Instant::now(),
            choices: Vec::new(),
            by_strategy: Vec::new(),
            rounds,
        }
    }

    #[test]
    fn each_round_is_charged_its_fastest_repeat_on_its_own_seed() {
        // SEEDS + 1 sweeps: seed 0 runs twice, every other seed once. One
        // strategy with two rounds; the repeat of seed 0 is slower in its
        // first round and faster in its second.
        let mut sweeps: Vec<Sweep> = (0..SEEDS as u64)
            .map(|k| sweep_with(10, vec![vec![(100 + k, 50), (200, 60)]]))
            .collect();
        sweeps.push(sweep_with(10, vec![vec![(900, 40), (150, 90)]]));
        let fast = fastest(&sweeps);
        assert_eq!(fast.selections, 10 * SEEDS as u64);
        let others: u64 = (1..SEEDS as u64).map(|k| 100 + k + 200).sum();
        let close = |a: f64, b: u64| (a - b as f64 / 1e9).abs() < 1e-15;
        assert!(close(fast.wall_s, 100 + 150 + others), "{fast:?}");
        let cpu = 40 + 60 + (SEEDS as u64 - 1) * (50 + 60);
        assert!(close(fast.cpu_s, cpu), "{fast:?}");
    }
}
