//! Seeded inputs: the registry data set and the op streams each
//! workload sends. Everything here is a pure function of the seed and an
//! index, so one seed gives one op stream.

use crate::rng::{mix, Rng, Zipf};
use wsrep_core::feedback::Feedback;
use wsrep_core::id::{AgentId, ProviderId, ServiceId, SubjectId};
use wsrep_core::time::Time;
use wsrep_qos::metric::Metric;
use wsrep_qos::preference::Preferences;
use wsrep_qos::value::QosVector;
use wsrep_server::{IngestKey, Request};
use wsrep_sim::registry::Listing;

/// The QoS metrics listings advertise and preferences weigh.
pub const METRICS: [Metric; 3] = [Metric::Price, Metric::ResponseTime, Metric::Accuracy];

// Stream ids keep the independent draws of one seed apart.
const LISTINGS: u64 = 1;
const PRELOAD: u64 = 2;
const QUERIES: u64 = 3;
const PREFS: u64 = 4;
const WRITES: u64 = 5;

/// The registry a workload starts from.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Input seed.
    pub seed: u64,
    /// Published services `0..services`.
    pub services: u64,
    /// Categories; service `s` is in category `s % categories`.
    pub categories: u32,
    /// Feedback reports in the seeded log.
    pub reports: u64,
    /// Zipf exponent of report subjects.
    pub skew: f64,
}

impl Dataset {
    /// Listing of service `s`.
    pub fn listing(&self, s: u64) -> Listing {
        let mut rng = Rng::at(self.seed, LISTINGS, s);
        Listing {
            service: ServiceId::new(s),
            provider: ProviderId::new(s / 4),
            category: (s % self.categories as u64) as u32,
            advertised: QosVector::from_pairs([
                (Metric::Price, rng.range(1.0, 10.0)),
                (Metric::ResponseTime, rng.range(20.0, 500.0)),
                (Metric::Accuracy, rng.range(0.3, 1.0)),
            ]),
        }
    }

    /// The Zipf sampler over this data set's services.
    pub fn zipf(&self) -> Zipf {
        Zipf::new(self.services, self.skew)
    }

    /// Report `i` of the seeded log. Subjects follow `zipf` by stratified
    /// quantiles, so every seed's log holds the same number of reports per
    /// service (the data's shape, and with it the store's size, does not
    /// move with the seed); the seed shuffles their order and draws the
    /// raters and scores.
    pub fn report(&self, zipf: &Zipf, i: u64) -> Feedback {
        let mut rng = Rng::at(self.seed, PRELOAD, i);
        let slot = shuffle(self.seed, self.reports, i);
        let subject = zipf.quantile((slot as f64 + 0.5) / self.reports as f64);
        Feedback::scored(
            AgentId::new(1 + rng.below(997)),
            ServiceId::new(subject),
            rng.unit(),
            Time::new(i),
        )
    }
}

/// A seeded bijection on `0..n`: `i -> (a * i + b) mod n` with `a`
/// coprime to `n`.
fn shuffle(seed: u64, n: u64, i: u64) -> u64 {
    let gcd = |mut x: u64, mut y: u64| {
        while y != 0 {
            (x, y) = (y, x % y);
        }
        x
    };
    let mut a = mix(seed, PRELOAD, u64::MAX) % n.max(1);
    while gcd(a, n) != 1 {
        a = (a + 1) % n;
    }
    let b = mix(seed, PRELOAD, u64::MAX - 1) % n.max(1);
    ((a as u128 * i as u128 + b as u128) % n.max(1) as u128) as u64
}

/// Preference vector `j` of a seed's preference pool.
pub fn prefs(seed: u64, j: u64) -> Preferences {
    let mut rng = Rng::at(seed, PREFS, j);
    Preferences::from_weights(METRICS.map(|m| (m, 0.05 + rng.unit())))
}

/// One read request of a query stream.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOp {
    /// One subject's score.
    Score(SubjectId),
    /// The best `k` services of a category under a preference vector.
    TopK {
        /// Category ranked.
        category: u32,
        /// Preference weights.
        prefs: Preferences,
        /// Answer length cap.
        k: u32,
    },
}

impl QueryOp {
    /// The wire request for this op.
    pub fn request(&self) -> Request {
        match self {
            QueryOp::Score(subject) => Request::Score(*subject),
            QueryOp::TopK { category, prefs, k } => Request::TopK {
                category: *category,
                prefs: prefs.clone(),
                k: *k,
            },
        }
    }
}

/// A read stream: Zipf-skewed scores plus a share of top-k queries over
/// a fixed pool of `(category, prefs)` pairs.
#[derive(Debug, Clone)]
pub struct QueryMix {
    seed: u64,
    zipf: Zipf,
    categories: u32,
    topk_per_mille: u64,
    pairs: u64,
    pool: Vec<Preferences>,
    k: u32,
}

impl QueryMix {
    /// `topk_per_mille` of ops are top-k queries drawn from `pairs`
    /// distinct `(category, prefs)` pairs; the rest score one service.
    pub fn new(data: &Dataset, topk_per_mille: u64, pairs: u64, k: u32) -> QueryMix {
        let per_category = pairs.div_ceil(data.categories as u64);
        QueryMix {
            seed: data.seed,
            zipf: data.zipf(),
            categories: data.categories,
            topk_per_mille,
            pairs,
            pool: (0..per_category).map(|j| prefs(data.seed, j)).collect(),
            k,
        }
    }

    /// Distinct `(category, prefs)` pairs top-k queries draw from.
    pub fn pairs(&self) -> u64 {
        self.pairs
    }

    /// Op `i` of the stream.
    pub fn op(&self, i: u64) -> QueryOp {
        let mut rng = Rng::at(self.seed, QUERIES, i);
        if rng.below(1000) < self.topk_per_mille {
            let pair = rng.below(self.pairs);
            let category = (pair % self.categories as u64) as u32;
            QueryOp::TopK {
                category,
                prefs: self.pool[(pair / self.categories as u64) as usize].clone(),
                k: self.k,
            }
        } else {
            QueryOp::Score(ServiceId::new(self.zipf.sample(&mut rng)).into())
        }
    }
}

/// A durable-write stream: one producer's keyed batches over a hot set of
/// services. Batch `i` carries key `(producer, i)`.
#[derive(Debug, Clone)]
pub struct WriteMix {
    seed: u64,
    hot: u64,
    batch: usize,
    producer: u64,
    time_base: u64,
}

impl WriteMix {
    /// Batches of `batch` reports about services `0..hot`, timestamped
    /// from `time_base` on.
    pub fn new(seed: u64, hot: u64, batch: usize, producer: u64, time_base: u64) -> WriteMix {
        WriteMix {
            seed,
            hot,
            batch,
            producer,
            time_base,
        }
    }

    /// Reports per batch.
    pub fn batch_len(&self) -> usize {
        self.batch
    }

    /// The reports of batch `i`.
    pub fn batch(&self, i: u64) -> Vec<Feedback> {
        let mut rng = Rng::at(self.seed, WRITES ^ (self.producer << 8), i);
        (0..self.batch as u64)
            .map(|j| {
                Feedback::scored(
                    AgentId::new(10_000 + self.producer * 1_000 + rng.below(50)),
                    ServiceId::new(rng.below(self.hot)),
                    rng.unit(),
                    Time::new(self.time_base + i * self.batch as u64 + j),
                )
            })
            .collect()
    }

    /// The keyed `Ingest` request of batch `i`.
    pub fn request(&self, i: u64) -> Request {
        Request::Ingest {
            batch: self.batch(i),
            key: Some(IngestKey {
                producer: self.producer,
                seq: i,
            }),
        }
    }
}
