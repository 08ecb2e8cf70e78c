//! The soak registry: named heavy-traffic scenarios over the workspace's
//! [`ConcurrentObject`] backends, each pairing an object with a popularity
//! curve ([`KeyDist`]) and an arrival process ([`Arrival`]) and running
//! through the watchdogged soak driver — so the service-layer suites, the
//! `service_latency` bench and the CI soak job all iterate one list.

use hi_api::adapters::{
    HashTableObject, HiSetObject, LlscObject, QueueObject, ShardedTableObject, UniversalObject,
};
use hi_api::ConcurrentObject;
use hi_core::objects::{
    BigHashSetSpec, BoundedQueueSpec, CounterSpec, HashSetSpec, MultiRegisterSpec, SetSpec,
};
use hi_core::{Arrival, EnumerableSpec, KeyDist};
use hi_llsc::RLlscSpec;

use crate::service::{soak_watchdogged, Backpressure, SoakConfig, SoakError, SoakReport};

/// The monomorphic soak runner of one scenario (captures only the entry's
/// constructor, a fn pointer).
type SoakRunner = Box<dyn Fn(&SoakConfig) -> Result<SoakReport, SoakError> + Send + Sync>;

/// One named soak scenario: an object constructor plus the load shape it
/// is soaked under. The scenario's distribution and arrival override
/// whatever the caller's [`SoakConfig`] carries — the load shape is part
/// of the scenario's identity, everything else (op counts, queue depth,
/// seed, deadline) is the caller's.
pub struct SoakScenario {
    /// Stable name, `soak/family-shape` style (e.g. `"soak/hashtable-zipf"`).
    pub name: &'static str,
    /// One-line description.
    pub about: &'static str,
    /// The popularity curve this scenario soaks under.
    pub key_dist: KeyDist,
    /// The arrival process of every client.
    pub arrival: Arrival,
    /// Scenario-fixed full-queue policy; `None` defers to the caller's
    /// config. Set (via [`SoakScenario::shedding`]) for scenarios whose
    /// identity *is* the load-shedding path.
    pub backpressure: Option<Backpressure>,
    /// Scenario-fixed ingress queue bound; `None` defers to the caller's
    /// config. Paired with [`Backpressure::Reject`] to guarantee real
    /// queue pressure at any op count.
    pub queue_depth: Option<usize>,
    run: SoakRunner,
}

impl SoakScenario {
    /// Declares a soak scenario from its shared data: the threaded
    /// constructor and the load shape. The runner goes through
    /// [`soak_watchdogged`], so a wedged backend resolves to a structured
    /// [`SoakError::Wedged`] within the config's deadline instead of
    /// hanging the suite.
    pub fn of<S, T>(
        name: &'static str,
        about: &'static str,
        key_dist: KeyDist,
        arrival: Arrival,
        threaded: fn() -> T,
    ) -> SoakScenario
    where
        S: EnumerableSpec + 'static,
        S::Op: Send + Sync,
        S::State: Send,
        T: ConcurrentObject<S> + 'static,
    {
        SoakScenario {
            name,
            about,
            key_dist,
            arrival,
            backpressure: None,
            queue_depth: None,
            run: Box::new(move |cfg| soak_watchdogged(threaded, cfg)),
        }
    }

    /// Fixes the scenario to open-loop load shedding: [`Backpressure::
    /// Reject`] behind a queue of the given depth, regardless of the
    /// caller's config. A shallow depth in front of a slow object makes
    /// rejection a certainty under load, so the reject path is exercised
    /// (and its accounting auditable) in every run, not just unlucky ones.
    #[must_use]
    pub fn shedding(mut self, queue_depth: usize) -> SoakScenario {
        self.backpressure = Some(Backpressure::Reject);
        self.queue_depth = Some(queue_depth);
        self
    }

    /// Soaks the scenario's object under its load shape, taking op counts,
    /// audit cadence, seed and deadline from `cfg`. The scenario's own
    /// `key_dist`/`arrival` — and, when fixed, `backpressure`/`queue_depth`
    /// — override the caller's: the load shape is part of the scenario's
    /// identity.
    ///
    /// # Errors
    ///
    /// Any [`SoakError`] from the underlying [`soak_watchdogged`] run.
    pub fn run(&self, cfg: &SoakConfig) -> Result<SoakReport, SoakError> {
        let cfg = SoakConfig {
            key_dist: self.key_dist,
            arrival: self.arrival,
            backpressure: self.backpressure.unwrap_or(cfg.backpressure),
            queue_depth: self.queue_depth.unwrap_or(cfg.queue_depth),
            ..*cfg
        };
        (self.run)(&cfg)
    }
}

// ---------------------------------------------------------------------------
// Scenario parameters. Larger than the conformance registry's: a soak wants
// a key space wide enough that Zipfian skew means something, and hash-table
// capacity stays above the spec's key count (the never-full invariant).
// ---------------------------------------------------------------------------

const SOAK_HT_T: u32 = 16;
const SOAK_HT_CAP: usize = 29;
const SOAK_HT_N: usize = 4;
const SOAK_SET_T: u32 = 24;
const SOAK_SET_N: usize = 4;
const SOAK_QUEUE_T: u32 = 3;
const SOAK_QUEUE_CAP: usize = 6;
const SOAK_UCOUNTER_N: usize = 3;
const SOAK_UREG_K: u64 = 8;
const SOAK_UREG_N: usize = 2;
const SOAK_LLSC_V: u64 = 16;
const SOAK_LLSC_N: usize = 4;
/// Queue bound of the load-shedding scenario: shallow enough that the slow
/// universal counter's ingress overflows under any client count, so the
/// reject path sees real traffic in every run.
const SOAK_REJECT_DEPTH: usize = 4;
/// The big-domain sharded scenarios: a ≥1M-key domain (so the sampled
/// barrier audit, not the full-image comparison, is what certifies HI) and
/// a smaller uniform variant. `base = 2` keeps every shard's first inserts
/// crossing capacity boundaries, so online resizes happen mid-epoch at any
/// op count.
const SOAK_SHARD_T: u32 = 1 << 20;
const SOAK_SHARD_S: usize = 8;
const SOAK_SHARD_U_T: u32 = 1 << 16;
const SOAK_SHARD_U_S: usize = 4;
const SOAK_SHARD_BASE: usize = 2;
const SOAK_SHARD_N: usize = 3;

/// All registered soak scenarios: every object family the acceptance bar
/// names (the HI hash table under Zipfian skew, the universal
/// construction, the set, the positional queue) under the three load
/// shapes (uniform / Zipfian / bursty).
pub fn soak_registry() -> Vec<SoakScenario> {
    vec![
        SoakScenario::of(
            "soak/hashtable-zipf",
            "Robin Hood HI hash table under Zipfian key skew: hot ranks hammer hot slots",
            KeyDist::Zipfian { theta: 1.1 },
            Arrival::Steady,
            || HashTableObject::new(HashSetSpec::new(SOAK_HT_T), SOAK_HT_CAP, SOAK_HT_N),
        ),
        SoakScenario::of(
            "soak/hashtable-uniform",
            "the same table under uniform load: the skew-free baseline",
            KeyDist::Uniform,
            Arrival::Steady,
            || HashTableObject::new(HashSetSpec::new(SOAK_HT_T), SOAK_HT_CAP, SOAK_HT_N),
        ),
        SoakScenario::of(
            "soak/set-zipf",
            "§5.1 perfect-HI set under mild Zipfian skew, four symmetric roles",
            KeyDist::Zipfian { theta: 0.9 },
            Arrival::Steady,
            || HiSetObject::new(SetSpec::new(SOAK_SET_T), SOAK_SET_N),
        ),
        SoakScenario::of(
            "soak/queue-swsr-bursty",
            "positional HI queue under bursty arrivals: on/off duty-cycle per client",
            KeyDist::Uniform,
            Arrival::Bursty { on: 64, off: 16 },
            || QueueObject::new(BoundedQueueSpec::new(SOAK_QUEUE_T, SOAK_QUEUE_CAP)),
        ),
        SoakScenario::of(
            "soak/universal-counter-bursty",
            "Algorithm 5 over the bounded counter under bursty arrivals",
            KeyDist::Uniform,
            Arrival::Bursty { on: 32, off: 8 },
            || UniversalObject::new(CounterSpec::new(-300, 300, 0), SOAK_UCOUNTER_N),
        ),
        SoakScenario::of(
            "soak/universal-register-zipf",
            "Algorithm 5 over a multi-valued register under Zipfian op skew",
            KeyDist::Zipfian { theta: 1.0 },
            Arrival::Steady,
            || UniversalObject::new(MultiRegisterSpec::new(SOAK_UREG_K, 1), SOAK_UREG_N),
        ),
        SoakScenario::of(
            "soak/universal-counter-reject",
            "the universal counter behind a shallow shedding queue: the reject path under \
             guaranteed pressure",
            KeyDist::Uniform,
            Arrival::Steady,
            || UniversalObject::new(CounterSpec::new(-300, 300, 0), SOAK_UCOUNTER_N),
        )
        .shedding(SOAK_REJECT_DEPTH),
        SoakScenario::of(
            "soak/sharded-zipf-1m",
            "sharded table-of-tables over a 2^20-key domain under Zipfian skew: online \
             resizes mid-epoch, composed per-shard sampled audits at every barrier",
            KeyDist::Zipfian { theta: 1.05 },
            Arrival::Steady,
            || {
                ShardedTableObject::new(
                    BigHashSetSpec::new(SOAK_SHARD_T),
                    SOAK_SHARD_S,
                    SOAK_SHARD_BASE,
                    SOAK_SHARD_N,
                )
            },
        ),
        SoakScenario::of(
            "soak/sharded-uniform",
            "the sharded table over a 2^16-key domain under uniform load: every shard \
             grows in step, resizes spread evenly",
            KeyDist::Uniform,
            Arrival::Steady,
            || {
                ShardedTableObject::new(
                    BigHashSetSpec::new(SOAK_SHARD_U_T),
                    SOAK_SHARD_U_S,
                    SOAK_SHARD_BASE,
                    SOAK_SHARD_N,
                )
            },
        ),
        SoakScenario::of(
            "soak/llsc-zipf",
            "Algorithm 6's packed releasable LL/SC word under Zipfian op skew — the second \
             perfect-HI backend, so online probes sample it mid-flight",
            KeyDist::Zipfian { theta: 1.0 },
            Arrival::Steady,
            || LlscObject::new(RLlscSpec::new(SOAK_LLSC_V, 0, SOAK_LLSC_N)),
        ),
    ]
}

/// Looks up a soak scenario by name.
pub fn soak_scenario(name: &str) -> Option<SoakScenario> {
    soak_registry().into_iter().find(|s| s.name == name)
}
