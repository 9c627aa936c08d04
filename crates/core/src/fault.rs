//! Deterministic fault injection.
//!
//! The paper's resilience story (§5.7–5.8) rests on cheap recovery:
//! workers hold only soft state, the root's redo log replays lineage, and
//! deterministic re-execution reconverges bit-for-bit. This module supplies
//! the adversary that story must survive: a seeded [`FaultPlan`] whose
//! every decision is a **pure function of `(seed, epoch, site)`** — no
//! clocks, no RNG state, no arrival-order dependence — so a failing chaos
//! schedule replays *exactly* from its seed.
//!
//! Injection sites ([`FaultSite`]) are threaded through three layers:
//!
//! * **Links** ([`FaultSite::Frame`], consulted by
//!   `hillview_net::LinkSender` through a frame-fault hook): drop,
//!   duplicate, corrupt, or delay the Nth frame a worker's aggregation
//!   node ships to the root.
//! * **The work-stealing pool** ([`FaultSite::Leaf`], consulted at the
//!   head of every leaf sub-task): panic or stall a chosen leaf,
//!   identified by its deterministic `(worker, partition, range-start)`
//!   coordinates.
//! * **Workers** ([`FaultSite::WorkerOp`], consulted at every
//!   engine-visible worker operation): kill the worker at its Nth message
//!   or evict the queried dataset mid-query.
//!
//! The *epoch* is bumped once per execution-tree launch
//! (`Cluster::run_erased`), so under a random plan a retry of the same
//! query re-rolls every site — transient faults heal, exactly like a real
//! flaky network — while the schedule as a whole stays a deterministic
//! function of the seed and the (deterministic) sequence of attempts.
//! Scripted plans ([`FaultPlan::scripted`]) ignore the epoch: a rule fires
//! whenever its site matches, which is what per-class regression tests
//! want.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// One concrete fault to apply at a site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic the leaf task (must surface as
    /// [`EngineError::LeafPanicked`](crate::error::EngineError::LeafPanicked),
    /// never a process abort).
    PanicLeaf,
    /// Stall the leaf task for the given duration (a straggler).
    StallLeaf(Duration),
    /// Kill the worker (drops all soft state; queries fail with
    /// `WorkerDown` until restarted).
    Kill,
    /// Evict the dataset the operation touches (forces lineage replay).
    Evict,
    /// Drop the outgoing frame.
    DropFrame,
    /// Send the outgoing frame twice.
    DuplicateFrame,
    /// Flip one payload bit of the outgoing frame; the inner seed picks
    /// the bit deterministically.
    CorruptFrame(u64),
    /// Delay the outgoing frame by the given duration.
    DelayFrame(Duration),
}

/// Identity of an injection site. Every field is deterministic under
/// replay: frame indexes count a single aggregator thread's sends, leaf
/// coordinates come from the (pure) split plan, and worker-op indexes
/// count messages handled by one worker in program order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// The `index`-th frame sent by `worker`'s aggregation node.
    Frame {
        /// Sending worker.
        worker: usize,
        /// Frame sequence number on that worker's root link.
        index: u64,
    },
    /// A leaf sub-task, identified by its split coordinates.
    Leaf {
        /// Executing worker.
        worker: usize,
        /// Micropartition index.
        partition: u32,
        /// Range start of the sub-task within the partition.
        lo: u64,
    },
    /// The `index`-th engine-visible operation handled by `worker`
    /// (load / filter / map / query fan-out).
    WorkerOp {
        /// Target worker.
        worker: usize,
        /// Operation sequence number on that worker.
        index: u64,
    },
}

/// Per-class fault probabilities for a random plan. Each probability is
/// evaluated independently per site from the plan's seed.
#[derive(Debug, Clone, Copy)]
pub struct FaultSpec {
    /// P(panic) per leaf task.
    pub leaf_panic: f64,
    /// P(stall) per leaf task.
    pub leaf_stall: f64,
    /// Stall duration when a leaf stalls.
    pub stall_for: Duration,
    /// P(kill) per worker operation.
    pub kill: f64,
    /// P(evict) per worker operation.
    pub evict: f64,
    /// P(drop) per frame.
    pub drop: f64,
    /// P(duplicate) per frame.
    pub duplicate: f64,
    /// P(corrupt one bit) per frame.
    pub corrupt: f64,
    /// P(delay) per frame.
    pub delay: f64,
    /// Delay duration when a frame is delayed.
    pub delay_for: Duration,
}

impl FaultSpec {
    /// A spec exercising every fault class with moderate rates — the
    /// chaos suite's default. Rates are chosen so a typical small query
    /// (tens of leaves, a handful of frames and ops) sees roughly one
    /// fault, letting most schedules recover within a bounded retry
    /// budget while some exhaust it.
    pub fn chaos() -> Self {
        FaultSpec {
            leaf_panic: 0.02,
            leaf_stall: 0.02,
            stall_for: Duration::from_millis(30),
            kill: 0.02,
            evict: 0.02,
            drop: 0.05,
            duplicate: 0.05,
            corrupt: 0.05,
            delay: 0.05,
            delay_for: Duration::from_millis(20),
        }
    }

    /// A spec that injects nothing (baseline runs through the same code
    /// path).
    #[cfg(test)]
    pub(crate) fn none() -> Self {
        FaultSpec {
            leaf_panic: 0.0,
            leaf_stall: 0.0,
            stall_for: Duration::ZERO,
            kill: 0.0,
            evict: 0.0,
            drop: 0.0,
            duplicate: 0.0,
            corrupt: 0.0,
            delay: 0.0,
            delay_for: Duration::ZERO,
        }
    }
}

/// One scripted rule: apply `action` whenever the site matches exactly
/// (the epoch is ignored, so the rule persists across retries).
#[derive(Debug, Clone, Copy)]
struct Rule {
    site: FaultSite,
    action: FaultAction,
}

#[derive(Debug)]
enum Mode {
    Random(FaultSpec),
    Scripted(Vec<Rule>),
}

/// A deterministic fault schedule.
///
/// Decisions are pure functions of `(seed, epoch, site)` — see the module
/// docs. Arm a plan on a cluster with
/// [`Cluster::arm_faults`](crate::cluster::Cluster::arm_faults).
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    epoch: AtomicU64,
    fired: AtomicU64,
    mode: Mode,
}

impl FaultPlan {
    /// A random plan: every site draws independently from `spec`'s rates,
    /// keyed by `(seed, epoch, site)`.
    pub fn seeded(seed: u64, spec: FaultSpec) -> Self {
        FaultPlan {
            seed,
            epoch: AtomicU64::new(0),
            fired: AtomicU64::new(0),
            mode: Mode::Random(spec),
        }
    }

    /// A scripted plan firing `action` at exactly the listed sites, every
    /// epoch (deterministic regression tests for single fault classes).
    pub fn scripted(rules: impl IntoIterator<Item = (FaultSite, FaultAction)>) -> Self {
        FaultPlan {
            seed: 0,
            epoch: AtomicU64::new(0),
            fired: AtomicU64::new(0),
            mode: Mode::Scripted(
                rules
                    .into_iter()
                    .map(|(site, action)| Rule { site, action })
                    .collect(),
            ),
        }
    }

    /// Advance the epoch. Called once per execution-tree launch; under a
    /// random plan this re-rolls every site so retries can heal.
    pub(crate) fn bump_epoch(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
    }

    /// Total decisions that fired (any `Some`) over the plan's lifetime.
    /// Lets harnesses assert their adversary was not a silent no-op.
    pub fn faults_fired(&self) -> u64 {
        self.fired.load(Ordering::SeqCst)
    }

    /// The decision for `site`, or `None` to proceed normally.
    pub(crate) fn decide(&self, site: FaultSite) -> Option<FaultAction> {
        let action = match &self.mode {
            Mode::Scripted(rules) => rules.iter().find(|r| r.site == site).map(|r| r.action),
            Mode::Random(spec) => self.decide_random(spec, site),
        };
        if action.is_some() {
            self.fired.fetch_add(1, Ordering::SeqCst);
        }
        action
    }

    fn decide_random(&self, spec: &FaultSpec, site: FaultSite) -> Option<FaultAction> {
        let h = mix(self.seed, self.epoch.load(Ordering::SeqCst), site);
        // Split the hash into a uniform draw in [0,1) and a secondary
        // seed for fault parameters (e.g. which bit to corrupt).
        let draw = (h >> 11) as f64 / (1u64 << 53) as f64;
        let sub = h.wrapping_mul(0x9E3779B97F4A7C15);
        // Walk the classes applicable to this site kind in a fixed order;
        // the first whose cumulative probability exceeds the draw fires.
        let mut acc = 0.0;
        let mut pick = |p: f64| {
            acc += p;
            draw < acc
        };
        match site {
            FaultSite::Leaf { .. } => {
                if pick(spec.leaf_panic) {
                    Some(FaultAction::PanicLeaf)
                } else if pick(spec.leaf_stall) {
                    Some(FaultAction::StallLeaf(spec.stall_for))
                } else {
                    None
                }
            }
            FaultSite::WorkerOp { .. } => {
                if pick(spec.kill) {
                    Some(FaultAction::Kill)
                } else if pick(spec.evict) {
                    Some(FaultAction::Evict)
                } else {
                    None
                }
            }
            FaultSite::Frame { .. } => {
                if pick(spec.drop) {
                    Some(FaultAction::DropFrame)
                } else if pick(spec.duplicate) {
                    Some(FaultAction::DuplicateFrame)
                } else if pick(spec.corrupt) {
                    Some(FaultAction::CorruptFrame(sub))
                } else if pick(spec.delay) {
                    Some(FaultAction::DelayFrame(spec.delay_for))
                } else {
                    None
                }
            }
        }
    }
}

/// SplitMix64-style finalizer over the site identity. Stable across runs
/// and platforms: the whole replay guarantee hangs on this being a pure
/// function.
fn mix(seed: u64, epoch: u64, site: FaultSite) -> u64 {
    let (kind, a, b, c) = match site {
        FaultSite::Frame { worker, index } => (1u64, worker as u64, index, 0u64),
        FaultSite::Leaf {
            worker,
            partition,
            lo,
        } => (2, worker as u64, partition as u64, lo),
        FaultSite::WorkerOp { worker, index } => (3, worker as u64, index, 0),
    };
    let mut z = seed
        .wrapping_add(epoch.wrapping_mul(0xA0761D6478BD642F))
        .wrapping_add(kind.wrapping_mul(0xE7037ED1A0B428DB))
        .wrapping_add(a.wrapping_mul(0x8EBC6AF09C88C6E3))
        .wrapping_add(b.wrapping_mul(0x589965CC75374CC3))
        .wrapping_add(c.wrapping_mul(0x1D8E4E27C47D124F));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Render a panic payload into a printable message (the `Any` from
/// `catch_unwind` is almost always a `&str` or `String`).
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic payload of unknown type".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_pure_functions_of_seed_and_site() {
        let site = FaultSite::Leaf {
            worker: 1,
            partition: 3,
            lo: 4096,
        };
        for seed in 0..200u64 {
            let a = FaultPlan::seeded(seed, FaultSpec::chaos());
            let b = FaultPlan::seeded(seed, FaultSpec::chaos());
            assert_eq!(a.decide(site), b.decide(site), "seed {seed}");
        }
    }

    #[test]
    fn epoch_changes_decisions_but_replays_identically() {
        let spec = FaultSpec {
            leaf_panic: 0.5,
            ..FaultSpec::none()
        };
        let site = FaultSite::Leaf {
            worker: 0,
            partition: 0,
            lo: 0,
        };
        // Across epochs the decision sequence varies but is reproducible.
        let trace = |seed: u64| -> Vec<Option<FaultAction>> {
            let p = FaultPlan::seeded(seed, spec);
            (0..32)
                .map(|_| {
                    p.bump_epoch();
                    p.decide(site)
                })
                .collect()
        };
        for seed in 0..16 {
            let t = trace(seed);
            assert_eq!(t, trace(seed), "seed {seed} replays");
            assert!(
                t.iter().any(|d| d.is_some()) && t.iter().any(|d| d.is_none()),
                "p=0.5 over 32 epochs mixes outcomes (seed {seed}): {t:?}"
            );
        }
    }

    #[test]
    fn rates_are_roughly_honored() {
        let spec = FaultSpec {
            drop: 0.3,
            ..FaultSpec::none()
        };
        let p = FaultPlan::seeded(99, spec);
        let hits = (0..10_000u64)
            .filter(|&i| {
                p.decide(FaultSite::Frame {
                    worker: 0,
                    index: i,
                })
                .is_some()
            })
            .count();
        assert!(
            (2_500..3_500).contains(&hits),
            "~30% of 10k frames drop, got {hits}"
        );
    }

    #[test]
    fn zero_spec_never_fires() {
        let p = FaultPlan::seeded(7, FaultSpec::none());
        for i in 0..100 {
            assert_eq!(
                p.decide(FaultSite::WorkerOp {
                    worker: 0,
                    index: i
                }),
                None
            );
        }
    }

    #[test]
    fn scripted_rules_fire_only_at_their_site_every_epoch() {
        let p = FaultPlan::scripted([(
            FaultSite::WorkerOp {
                worker: 1,
                index: 2,
            },
            FaultAction::Kill,
        )]);
        let target = FaultSite::WorkerOp {
            worker: 1,
            index: 2,
        };
        assert_eq!(p.decide(target), Some(FaultAction::Kill));
        p.bump_epoch();
        assert_eq!(p.decide(target), Some(FaultAction::Kill), "epoch-blind");
        assert_eq!(
            p.decide(FaultSite::WorkerOp {
                worker: 1,
                index: 3
            }),
            None
        );
        assert_eq!(
            p.decide(FaultSite::WorkerOp {
                worker: 0,
                index: 2
            }),
            None
        );
    }

    #[test]
    fn panic_messages_extracted() {
        let p = std::panic::catch_unwind(|| panic!("boom {}", 7)).unwrap_err();
        assert_eq!(panic_message(p), "boom 7");
        let p = std::panic::catch_unwind(|| panic!("static")).unwrap_err();
        assert_eq!(panic_message(p), "static");
    }
}
