//! Allocation pins for the simulator's run state and the observability
//! side channel.
//!
//! The claim "metrics are free" is easy to regress silently: one
//! `format!` or `Vec` in a per-round hook and every simulation pays for
//! it. This test pins the claim at the allocator: with a counting global
//! allocator installed, a simulator run with [`SimObs`] attached must
//! perform **exactly** as many heap allocations as the same run without
//! it — the hooks may branch and tick atomics, never allocate — and
//! repeated identical runs must allocate identically (no hidden warm-up
//! or drift in the off path either).
//!
//! Per-port program state is pinned the same way: node programs keep
//! their per-neighbor mirrors in the run-owned port array, so building a
//! program allocates nothing at any degree, and a run's allocation count
//! does not grow with the graph. That holds for sending programs too:
//! every node sends through one reused outbox per worker.
//!
//! This file is its own test binary on purpose: the counter is
//! process-global, so it must not share a process with concurrently
//! running tests. Its own tests take [`serial`] for the same reason.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use arbodom::congest::{
    run, Globals, Inbox, MeterMode, NodeCtx, NodeProgram, Outbox, RunOptions, SimObs,
};
use arbodom::core::{distributed, general, randomized, unknown_delta, weighted};
use arbodom::graph::{generators, weights::WeightModel, Graph};
use arbodom::obs::Registry;
use rand::rngs::StdRng;
use rand::SeedableRng;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`; the only addition is a relaxed
// counter bump, which cannot violate any allocator contract.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Serializes this binary's tests: libtest runs them on parallel
/// threads, and each would count the others' allocations.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn instance(n: usize, alpha: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = generators::forest_union(n, alpha, &mut rng);
    let mut wrng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
    WeightModel::Uniform { lo: 1, hi: 30 }.assign(&g, &mut wrng)
}

/// `f`'s result and the allocations it performed. The result is
/// returned, not dropped, so its drop is excluded from the count.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    (out, after - before)
}

/// Allocations performed while running Theorem 1.1 sequentially on `g`
/// under `o`. The sequential runner is fully deterministic, so the count
/// is exact, not a bound.
fn allocations_during_run(g: &Graph, o: &RunOptions) -> u64 {
    let cfg = weighted::Config::new(2, 0.3).expect("valid config");
    let globals = Globals::new(g, 7).with_arboricity(cfg.alpha);
    let make =
        |v: arbodom::graph::NodeId, g: &Graph| distributed::WeightedProgram::new(cfg, g.degree(v));
    let (result, allocations) = counted(|| run(g, &globals, make, o).expect("run succeeds"));
    assert!(!result.outputs.is_empty());
    allocations
}

/// Minimum of `trial` over several runs. The counter is process-global,
/// and the libtest harness's main thread may allocate concurrently
/// (deadline bookkeeping, captured-output plumbing) — rare, but enough to
/// perturb a single measurement by a few counts under load. Stray
/// activity can only *inflate* a trial, never shrink it, so the minimum
/// over a handful of trials is the true deterministic count.
fn min_of_trials(mut trial: impl FnMut() -> u64) -> u64 {
    (0..5).map(|_| trial()).min().expect("nonempty trials")
}

fn min_allocations(g: &Graph, o: &RunOptions) -> u64 {
    min_of_trials(|| allocations_during_run(g, o))
}

#[test]
fn observation_adds_zero_allocations() {
    let _serial = serial();
    let g = instance(400, 2, 11);
    let registry = Registry::new();
    // Resolve the handles *before* measuring — SimObs::new registers
    // names, which allocates; that is per-registry setup, not per-run
    // cost, exactly like the production wiring in the daemon.
    let obs = SimObs::new(&registry);
    for meter in [MeterMode::Off, MeterMode::Measure, MeterMode::Strict] {
        let plain = RunOptions {
            meter,
            track_rounds: false,
            ..RunOptions::default()
        };
        let observed = RunOptions {
            obs: Some(obs.clone()),
            ..plain.clone()
        };
        // Warm both paths once: lazy one-time setup (thread-local
        // buffers, first-touch growth) must not be charged to either
        // side of the comparison.
        allocations_during_run(&g, &plain);
        allocations_during_run(&g, &observed);

        let off_first = min_allocations(&g, &plain);
        let on_first = min_allocations(&g, &observed);
        let off_again = min_allocations(&g, &plain);
        let on_again = min_allocations(&g, &observed);
        assert_eq!(
            off_first, on_first,
            "{meter:?}: an observed run must allocate exactly as often as an unobserved one"
        );
        assert_eq!(
            off_first, off_again,
            "{meter:?}: identical unobserved runs must allocate identically"
        );
        assert_eq!(
            on_first, on_again,
            "{meter:?}: identical observed runs must allocate identically"
        );
        assert!(off_first > 0, "sanity: the counter is actually wired in");
    }
    // The observed runs really fed the registry while allocating nothing
    // extra: every observed trial above ticked the round counter.
    assert!(
        registry
            .counter(arbodom::congest::obs::SIM_ROUNDS_TOTAL)
            .get()
            > 0
    );
}

#[test]
fn per_port_program_constructors_allocate_nothing() {
    let _serial = serial();
    let wcfg = weighted::Config::new(2, 0.3).expect("valid config");
    let ucfg = unknown_delta::Config::new(2, 0.3).expect("valid config");
    let rcfg = randomized::Config::new(2, 2, 5).expect("valid config");
    let gcfg = general::Config::new(2, 5).expect("valid config");
    let allocations = min_of_trials(|| {
        let (programs, allocations) = counted(|| {
            let mut built = 0usize;
            for degree in 0..64 {
                let w = distributed::WeightedProgram::new(wcfg, degree);
                let u = distributed::UnknownDeltaProgram::new(ucfg, degree);
                let r = distributed::RandomizedProgram::new(rcfg, degree);
                let g = distributed::RandomizedProgram::new_general(gcfg, degree);
                std::hint::black_box((w, u, r, g));
                built += 4;
            }
            built
        });
        assert_eq!(programs, 256);
        allocations
    });
    assert_eq!(
        allocations, 0,
        "node programs keep per-port state in the run, not on the heap"
    );
}

/// Never sends: records each neighbor's id in its port state in round 0
/// and reports their sum in round 1.
struct PortTally {
    sum: u64,
}

impl NodeProgram for PortTally {
    type Message = u32;
    type PortState = u64;
    type Output = u64;

    fn round(
        &mut self,
        ctx: &NodeCtx<'_>,
        _inbox: Inbox<'_, u32>,
        ports: &mut [u64],
        _out: &mut Outbox<u32>,
    ) -> bool {
        if ctx.round == 0 {
            for (port, &u) in ports.iter_mut().zip(ctx.neighbors) {
                *port = u64::from(u.get());
            }
            return false;
        }
        self.sum = ports.iter().sum();
        true
    }

    fn output(&self) -> u64 {
        self.sum
    }
}

#[test]
fn run_allocations_do_not_grow_with_the_graph() {
    let _serial = serial();
    let counts: Vec<u64> = [1_000usize, 100_000]
        .into_iter()
        .map(|n| {
            let g = instance(n, 2, 13);
            let globals = Globals::new(&g, 0);
            let make = |_: arbodom::graph::NodeId, _: &Graph| PortTally { sum: 0 };
            let o = RunOptions::default();
            let neighbor_id_sums: Vec<u64> = g
                .nodes()
                .map(|v| g.neighbors(v).iter().map(|u| u64::from(u.get())).sum())
                .collect();
            min_of_trials(|| {
                let (result, allocations) =
                    counted(|| run(&g, &globals, make, &o).expect("run succeeds"));
                assert_eq!(result.telemetry.rounds, 2);
                assert_eq!(result.telemetry.total_messages, 0);
                assert_eq!(
                    result.outputs, neighbor_id_sums,
                    "port state persists across rounds"
                );
                allocations
            })
        })
        .collect();
    assert_eq!(
        counts[0], counts[1],
        "a run allocates per run, never per node: {counts:?} at n = 10^3 / 10^5"
    );
}

/// The same pin for a program that sends: Theorem 1.1 broadcasts from
/// every node in most rounds, and all of it goes through one reused
/// outbox per worker. The slack covers the run's staging and arena
/// buffers, whose amortized growth adds a few allocations per doubling
/// of the traffic.
#[test]
fn sending_run_allocations_do_not_grow_with_the_graph() {
    let _serial = serial();
    let o = RunOptions::default();
    let counts: Vec<u64> = [1_000usize, 100_000]
        .into_iter()
        .map(|n| min_allocations(&instance(n, 3, 17), &o))
        .collect();
    assert!(
        counts[1] <= counts[0] + 64,
        "a sending run allocates per run, never per node: {counts:?} at n = 10^3 / 10^5"
    );
}
