//! Peak-allocation pins for the two-pass streaming build path.
//!
//! The 10⁷-node tier only exists if building a huge instance never
//! allocates much more than the instance itself. This binary installs a
//! byte-accounting global allocator and pins two claims:
//!
//! 1. **`memory_footprint()` is byte-accurate**: the live-heap delta of
//!    holding a streamed graph equals `memory_footprint().total()`
//!    exactly — the footprint is real bytes, usable for instance
//!    planning before instantiation.
//! 2. **Peak ≈ final**: the peak live-heap during
//!    [`Graph::from_edge_stream`] stays within the final footprint plus
//!    [`generator_slack`] — no Vec-doubling spikes, no per-tree
//!    intermediate graphs. The legacy builder path is measured
//!    alongside and must peak strictly higher, which is the refactor's
//!    reason to exist.
//!
//! Own test binary on purpose: the accounting is process-global and must
//! not share a process with concurrently running tests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use arbodom::graph::{generators, Graph, GraphBuilder};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct BytesAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn on_alloc(size: usize) {
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: delegates verbatim to `System`; the additions are relaxed
// counter updates, which cannot violate any allocator contract.
unsafe impl GlobalAlloc for BytesAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Model as grow-then-free so a doubling spike is visible at its
        // true peak (old and new buffers coexist inside realloc).
        on_alloc(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: BytesAlloc = BytesAlloc;

const ALPHA: usize = 3;

/// Builds `forest_union(n, ALPHA)` through `build` and reports
/// `(graph, live_delta_while_held, peak_delta)` in bytes, measured
/// relative to the live-heap level just before the build. Minimum over
/// three trials: the counters are process-global and the libtest main
/// thread may allocate concurrently, but stray activity can only
/// *inflate* a trial, never shrink it, so the minimum is the build's
/// true deterministic cost.
fn measured_build(n: usize, build: impl Fn(usize) -> Graph) -> (Graph, usize, usize) {
    let mut best: Option<(Graph, usize, usize)> = None;
    for _ in 0..3 {
        let before = LIVE.load(Ordering::Relaxed);
        PEAK.store(before, Ordering::Relaxed);
        let g = build(n);
        let after = LIVE.load(Ordering::Relaxed);
        let peak = PEAK.load(Ordering::Relaxed);
        let (held, spike) = (after - before, peak - before);
        match &mut best {
            Some((_, h, p)) => {
                *h = (*h).min(held);
                *p = (*p).min(spike);
            }
            None => best = Some((g, held, spike)),
        }
    }
    best.expect("at least one trial ran")
}

fn streamed(n: usize) -> Graph {
    Graph::from_edge_stream(n, |mut sink| {
        let mut rng = StdRng::seed_from_u64(42);
        generators::try_forest_union_into(n, ALPHA, 1.0, &mut rng, &mut sink)
    })
    .expect("stream build succeeds")
}

fn via_builder(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    let mut rng = StdRng::seed_from_u64(42);
    generators::try_forest_union_into(n, ALPHA, 1.0, &mut rng, &mut b).expect("generator succeeds");
    b.build()
}

/// Transient bytes above the footprint. Two terms, never live together:
///
/// * the generator's state during the fill pass: the Prüfer sequence
///   (8 bytes/node) and degree array (4 bytes/node), freed between
///   trees, so one tree's worth bounds the whole union;
/// * the pre-shrink neighbor array (8 bytes per streamed edge, 24n − 24
///   for α = 3) when duplicate edges are compacted away: this allocator
///   models `shrink_to_fit`'s realloc as grow-then-free, so the old and
///   new arrays count together.
///
/// The second term is the measured slack at n = 250k, exactly 24n − 24
/// bytes. 26 leaves headroom without masking a retained intermediate
/// (any per-tree graph or adjacency-vec copy would cost ≥ 28n).
fn generator_slack(n: usize) -> usize {
    26 * n + 8192
}

fn assert_peak_pins(n: usize) {
    let (g, held, peak) = measured_build(n, streamed);
    let fp = g.memory_footprint();

    // Claim 1: the footprint is the heap, byte for byte.
    assert_eq!(
        held,
        fp.total(),
        "n = {n}: memory_footprint() ({}) disagrees with the live-heap \
         delta of holding the graph ({held})",
        fp.total()
    );
    assert_eq!(fp.weights_bytes, 0, "unit weights must cost zero bytes");

    // Claim 2: no build spike beyond generator state + dedup slack. The
    // neighbors array is sized by the pass-1 count, which includes
    // cross-tree duplicate edges later compacted away; for α random
    // trees duplicates are vanishingly rare, so the pass-1 surplus is
    // absorbed by the constant in `generator_slack`.
    let bound = fp.total() + generator_slack(n);
    assert!(
        peak <= bound,
        "n = {n}: streamed build peaked at {peak} bytes, over the \
         footprint-plus-generator bound {bound} (footprint {})",
        fp.total()
    );

    // The legacy builder path must cost strictly more at its peak: it
    // holds per-node adjacency vectors plus the frozen arrays together.
    let (g2, _, builder_peak) = measured_build(n, via_builder);
    assert_eq!(g, g2, "both paths must build the identical graph");
    assert!(
        builder_peak > peak,
        "n = {n}: builder path peaked at {builder_peak} <= streamed {peak} — \
         the streaming path lost its advantage"
    );
}

#[test]
fn streamed_build_peak_is_footprint_plus_generator_state() {
    // Quick-tier size (the scenario engine's huge-quick cell); large
    // enough that any Vec-doubling spike or retained intermediate would
    // dwarf the constant slack.
    assert_peak_pins(250_000);
}

/// The full 10⁷-node tier. Ignored by default (debug-mode minutes); run
/// release-mode via
/// `cargo test --release --test stream_peak -- --ignored`.
#[test]
#[ignore = "10^7-node tier: run with --release -- --ignored"]
fn streamed_build_peak_at_ten_million_nodes() {
    assert_peak_pins(10_000_000);
}
