//! The daemon's graph cache: byte-budgeted LRU over built instances,
//! keyed by [`arbodom_graph::digest::edge_digest`] folded with the
//! instance's metadata (α, planted set).
//!
//! Building a graph (generator run, weight assignment, CSR freeze,
//! degeneracy ordering for the α fallback) dominates the cost of small
//! queries, so the daemon caches whole built instances, each with its
//! quality reference ([`quality::reference`]: the forest DP, the
//! branch-and-bound optimum, the planted weight or the packing bound),
//! which depends only on the graph and its planted set. Two maps make a
//! lookup cheap for every source kind:
//!
//! * `by_instance` — the canonical store,
//!   `instance key → Arc<CachedGraph>`, with LRU eviction once the
//!   **bytes held** ([`arbodom_graph::MemoryFootprint`] totals of the
//!   cached CSRs) exceed the byte budget. Budgeting by bytes instead of
//!   entry count means one million-node instance and a thousand toy
//!   graphs are charged what they actually cost — the old entry-counted
//!   policy let a handful of huge graphs pin gigabytes. The key is the
//!   edge digest folded with α and the planted set: two sources
//!   describing the same edge structure but carrying different metadata
//!   (a `PlantedDs` generator vs the same edges shipped inline) must
//!   **not** converge, or a job's reported reference/guarantee would
//!   depend on what ran before it.
//! * `by_source` — a spec index, hash of the encoded
//!   [`crate::protocol::GraphSource`] `→ instance key`, so a repeated
//!   generator/scenario query resolves without rebuilding (the digest is
//!   only computable *after* construction).
//!
//! Lookups bump recency; eviction removes least-recently-used instances
//! (oldest `last_used` first) until the budget is met, along with every
//! spec key pointing at them — the entry just inserted is never the
//! victim, so an over-budget instance is still served to the job that
//! built it. The cache never stores failures: a source that fails to
//! build is re-attempted (and re-fails) on every query. Every hit is
//! verified against the stored encoded source bytes, and a fresh build
//! joins an existing instance entry only when its graph and metadata
//! equal the stored ones, so hash collisions of either 64-bit key
//! degrade to a rebuild — never to a wrong or state-dependent answer.
//! The edge digest is an identifier, not a commitment: colliding graphs
//! can be crafted cheaply, so the graphs themselves are compared.

use std::collections::HashMap;
use std::sync::Arc;

use arbodom_graph::{Graph, NodeId};
use arbodom_scenarios::quality;

use crate::protocol::CacheStats;

/// A built instance, shareable across worker threads.
#[derive(Debug)]
pub struct CachedGraph {
    /// The built (and weighted) graph.
    pub graph: Graph,
    /// The planted dominating set, when the family provides one.
    pub planted: Option<Vec<NodeId>>,
    /// The arboricity parameter queries on this graph run with (the
    /// family's constructive bound, or the measured degeneracy).
    pub alpha: usize,
    /// The instance's edge digest — the structural half of its cache
    /// identity (α and the planted set are the other half).
    pub digest: u64,
    /// The quality reference of the graph and its planted set, computed
    /// once when the instance is built; every job on the instance is
    /// accounted against it.
    pub reference: quality::Reference,
}

impl CachedGraph {
    /// Whether two built instances are interchangeable: same graph *and*
    /// same accounting metadata. Equal digests do not make equal graphs,
    /// so the graphs are compared too, last: this runs only when the
    /// instance key already exists.
    fn same_instance(&self, other: &CachedGraph) -> bool {
        self.digest == other.digest
            && self.alpha == other.alpha
            && self.planted == other.planted
            && self.graph == other.graph
    }

    /// What this instance charges against the cache's byte budget: the
    /// CSR footprint plus the planted set.
    fn cost_bytes(&self) -> usize {
        self.graph.memory_footprint().total()
            + self
                .planted
                .as_ref()
                .map_or(0, |set| set.len() * std::mem::size_of::<NodeId>())
    }
}

/// The canonical store key: the edge digest folded with α and the
/// planted set, so same-structure instances with different metadata get
/// distinct entries.
fn instance_key(built: &CachedGraph) -> u64 {
    let mut h = built.digest;
    let mut fold = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    fold(built.alpha as u64);
    match &built.planted {
        None => fold(u64::MAX),
        Some(set) => {
            fold(set.len() as u64);
            for v in set {
                fold(u64::from(v.get()));
            }
        }
    }
    h
}

struct Entry {
    graph: Arc<CachedGraph>,
    last_used: u64,
    /// Bytes this entry charges against the budget (fixed at insert).
    bytes: usize,
    /// Spec keys resolving to this instance, removed together on
    /// eviction.
    sources: Vec<u64>,
}

/// What a spec key resolved from and to. The encoded source bytes are
/// kept so a 64-bit key collision between two distinct sources is
/// *detected* on lookup (miss + rebuild) instead of silently serving the
/// wrong graph.
struct SourceRef {
    bytes: Vec<u8>,
    instance: u64,
}

/// A byte-budgeted LRU cache of built graphs. Not internally
/// synchronized — the server wraps it in a mutex and keeps build work
/// *outside* the lock.
pub struct GraphCache {
    budget_bytes: usize,
    held_bytes: usize,
    tick: u64,
    by_instance: HashMap<u64, Entry>,
    by_source: HashMap<u64, SourceRef>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl GraphCache {
    /// A cache evicting down to `budget_bytes` of held instances
    /// (minimum 1 — a zero budget degenerates to "evict everything but
    /// the latest insert").
    pub fn new(budget_bytes: usize) -> Self {
        GraphCache {
            budget_bytes: budget_bytes.max(1),
            held_bytes: 0,
            tick: 0,
            by_instance: HashMap::new(),
            by_source: HashMap::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Looks up the instance a source resolved to earlier, bumping
    /// recency and the hit counter. `source_bytes` is the encoded source
    /// the key was derived from: a stored entry only hits when the bytes
    /// match, so key collisions degrade to a rebuild, never to a wrong
    /// answer.
    pub fn lookup(&mut self, source_key: u64, source_bytes: &[u8]) -> Option<Arc<CachedGraph>> {
        let sref = self.by_source.get(&source_key)?;
        if sref.bytes != source_bytes {
            return None; // 64-bit key collision between distinct sources
        }
        let instance = sref.instance;
        let Some(entry) = self.by_instance.get_mut(&instance) else {
            // The instance was evicted but this spec key survived
            // (possible only transiently); treat as a miss and drop the
            // dangler.
            self.by_source.remove(&source_key);
            return None;
        };
        self.tick += 1;
        entry.last_used = self.tick;
        self.hits += 1;
        Some(Arc::clone(&entry.graph))
    }

    /// Inserts a freshly built instance under its instance key and the
    /// source key (+ encoded bytes) that produced it, evicting
    /// least-recently-used entries while the byte budget is exceeded.
    /// Returns the canonical `Arc`: an existing entry with the same
    /// instance key *and* matching metadata wins, so concurrent
    /// duplicate builds converge; on the (hash-collision) chance the
    /// stored entry is a *different* instance, the fresh build is
    /// returned uncached so the answer is still correct.
    pub fn insert(
        &mut self,
        source_key: u64,
        source_bytes: Vec<u8>,
        built: CachedGraph,
    ) -> Arc<CachedGraph> {
        self.misses += 1;
        self.tick += 1;
        let instance = instance_key(&built);
        if let Some(existing) = self.by_instance.get(&instance) {
            if !existing.graph.same_instance(&built) {
                return Arc::new(built);
            }
        }
        let tick = self.tick;
        let cost = built.cost_bytes();
        let held = &mut self.held_bytes;
        let entry = self.by_instance.entry(instance).or_insert_with(|| {
            *held += cost;
            Entry {
                graph: Arc::new(built),
                last_used: tick,
                bytes: cost,
                sources: Vec::new(),
            }
        });
        entry.last_used = tick;
        if !entry.sources.contains(&source_key) {
            entry.sources.push(source_key);
        }
        let graph = Arc::clone(&entry.graph);
        self.by_source.insert(
            source_key,
            SourceRef {
                bytes: source_bytes,
                instance,
            },
        );
        while self.held_bytes > self.budget_bytes {
            let lru = self
                .by_instance
                .iter()
                .filter(|(k, _)| **k != instance)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k);
            let Some(victim) = lru else { break };
            if let Some(evicted) = self.by_instance.remove(&victim) {
                self.held_bytes -= evicted.bytes;
                for key in evicted.sources {
                    self.by_source.remove(&key);
                }
                self.evictions += 1;
            }
        }
        graph
    }

    /// Aggregate counters for the `Stats` request. The session fields
    /// are zero here — the server overlays the session table's usage
    /// before the reply goes out.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            entries: self.by_instance.len() as u64,
            capacity: self.budget_bytes as u64,
            bytes: self.held_bytes as u64,
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            ..CacheStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbodom_graph::digest::edge_digest;
    use arbodom_graph::generators;

    fn cached(n: usize) -> CachedGraph {
        let g = generators::path(n);
        CachedGraph {
            digest: edge_digest(&g),
            reference: quality::reference(&g, None),
            graph: g,
            planted: None,
            alpha: 1,
        }
    }

    /// The budget that holds exactly these path graphs, nothing more.
    fn budget_for(sizes: &[usize]) -> usize {
        sizes.iter().map(|&n| cached(n).cost_bytes()).sum()
    }

    #[test]
    fn hit_after_insert_and_stats_counting() {
        let mut cache = GraphCache::new(budget_for(&[5, 6, 7, 8]));
        assert!(cache.lookup(11, &[11]).is_none());
        cache.insert(11, vec![11], cached(5));
        let hit = cache.lookup(11, &[11]).expect("cached");
        assert_eq!(hit.graph.n(), 5);
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.bytes, cached(5).cost_bytes() as u64);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn two_sources_share_one_digest_entry() {
        let mut cache = GraphCache::new(budget_for(&[6, 6]));
        cache.insert(1, vec![1], cached(6));
        cache.insert(2, vec![2], cached(6));
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(
            stats.bytes,
            cached(6).cost_bytes() as u64,
            "a shared instance is charged once"
        );
        assert!(cache.lookup(1, &[1]).is_some());
        assert!(cache.lookup(2, &[2]).is_some());
    }

    #[test]
    fn byte_budget_evicts_the_coldest_and_its_source_keys() {
        // Budget fits the 3- and 5-path together but not a third graph.
        let mut cache = GraphCache::new(budget_for(&[3, 5]));
        cache.insert(1, vec![1], cached(3));
        cache.insert(2, vec![2], cached(4));
        cache.lookup(1, &[1]); // 3-path is now the most recent
        cache.insert(3, vec![3], cached(5)); // over budget: evicts the 4-path
        assert!(cache.lookup(1, &[1]).is_some());
        assert!(cache.lookup(3, &[3]).is_some());
        assert!(
            cache.lookup(2, &[2]).is_none(),
            "evicted entry must be gone"
        );
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.bytes, budget_for(&[3, 5]) as u64);
    }

    /// Regression pin for the eviction *order* under a byte budget:
    /// victims leave strictly least-recently-used first, recency is set
    /// by lookups (not insertion order), and one oversized insert evicts
    /// however many cold entries the budget demands — never the entry
    /// being inserted.
    #[test]
    fn byte_budget_eviction_order_is_lru_by_last_touch() {
        let mut cache = GraphCache::new(budget_for(&[3, 4, 5]));
        cache.insert(1, vec![1], cached(3));
        cache.insert(2, vec![2], cached(4));
        cache.insert(3, vec![3], cached(5));
        assert_eq!(cache.stats().evictions, 0, "budget holds all three");
        // Touch in the order 2, 1: graph 3 is now the coldest, then 1.
        cache.lookup(2, &[2]);
        cache.lookup(1, &[1]);
        // A graph as big as 3+4 together forces two evictions: first the
        // 5-path (coldest), then the 4-path — NOT the 3-path, which was
        // touched last, and NOT the incoming graph.
        let big = generators::path(3 + 4);
        let big = CachedGraph {
            digest: edge_digest(&big),
            reference: quality::reference(&big, None),
            graph: big,
            planted: None,
            alpha: 1,
        };
        cache.insert(4, vec![4], big);
        assert!(cache.lookup(3, &[3]).is_none(), "coldest evicted first");
        assert!(cache.lookup(2, &[2]).is_none(), "second-coldest next");
        assert!(cache.lookup(1, &[1]).is_some(), "warmest survives");
        assert!(
            cache.lookup(4, &[4]).is_some(),
            "insert is never the victim"
        );
        let stats = cache.stats();
        assert_eq!(stats.evictions, 2);
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.bytes, budget_for(&[3, 7]) as u64);
    }

    #[test]
    fn oversized_insert_is_kept_and_served() {
        // A single instance above the whole budget: everything else is
        // evicted, but the instance itself is stored and returned — the
        // job that built it must be answered.
        let mut cache = GraphCache::new(1);
        let got = cache.insert(1, vec![1], cached(10));
        assert_eq!(got.graph.n(), 10);
        assert!(cache.lookup(1, &[1]).is_some());
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn same_structure_different_metadata_do_not_converge() {
        // A planted-generator instance and an inline copy of the same
        // edges share an edge digest but not α/planted: each must keep
        // its own entry, or job results would depend on cache state.
        let mut cache = GraphCache::new(budget_for(&[5, 5, 5]));
        let plain = cached(5);
        let mut with_meta = cached(5);
        with_meta.alpha = 3;
        with_meta.planted = Some(vec![NodeId::new(0), NodeId::new(3)]);
        cache.insert(1, vec![1], plain);
        let got = cache.insert(2, vec![2], with_meta);
        assert_eq!(got.alpha, 3, "second insert must keep its own metadata");
        assert_eq!(cache.stats().entries, 2, "two distinct instances");
        assert_eq!(cache.lookup(1, &[1]).unwrap().alpha, 1);
        assert_eq!(cache.lookup(2, &[2]).unwrap().alpha, 3);
        assert!(cache.lookup(2, &[2]).unwrap().planted.is_some());
    }

    /// Two different graphs with the same digest (a collision, forced
    /// here) and the same metadata share an instance key. The second
    /// build must be answered with its own graph, and the cache keeps the
    /// first.
    #[test]
    fn digest_collisions_between_distinct_graphs_serve_each_its_own() {
        let mut cache = GraphCache::new(budget_for(&[6, 6]));
        let first = cached(6);
        let cycle = generators::cycle(6);
        let collider = CachedGraph {
            digest: first.digest,
            reference: quality::reference(&cycle, None),
            graph: cycle,
            planted: None,
            alpha: 1,
        };
        assert_eq!(instance_key(&first), instance_key(&collider));
        cache.insert(1, vec![1], first);
        let got = cache.insert(2, vec![2], collider);
        assert_eq!(
            got.graph,
            generators::cycle(6),
            "the second build is served"
        );
        assert_eq!(cache.stats().entries, 1);
        assert_eq!(cache.lookup(1, &[1]).unwrap().graph, generators::path(6));
        assert!(
            cache.lookup(2, &[2]).is_none(),
            "the colliding build is not cached"
        );
    }

    /// Densification pin for the memory-tiered representation: a cached
    /// unit-weight instance charges zero weight bytes against the budget,
    /// so a budget sized for explicitly-weighted graphs holds strictly
    /// more unit-weight ones (8 fewer bytes per node each).
    #[test]
    fn unit_weight_instances_charge_no_weight_bytes() {
        let n = 64;
        let unit = cached(n);
        assert_eq!(unit.graph.memory_footprint().weights_bytes, 0);
        let mut ws = vec![1u64; n];
        ws[0] = 2; // one non-unit weight forces the explicit tier
        let weighted = CachedGraph {
            graph: unit.graph.with_weights(ws).unwrap(),
            planted: None,
            alpha: 1,
            digest: unit.digest,
            reference: unit.reference,
        };
        assert_eq!(
            weighted.cost_bytes(),
            unit.cost_bytes() + 8 * n,
            "explicit weights must cost exactly 8 bytes/node more"
        );
        // The budget that holds two weighted instances holds three unit
        // ones of the same structure at n = 64 (the 8n saving covers a
        // third CSR): the tier directly buys cache density.
        assert!(3 * unit.cost_bytes() <= 2 * weighted.cost_bytes());
    }

    #[test]
    fn key_collisions_between_distinct_sources_miss_instead_of_lying() {
        // Two different encoded sources hashing to the same 64-bit key:
        // the second must NOT be served the first one's graph.
        let mut cache = GraphCache::new(budget_for(&[5, 7]));
        cache.insert(99, vec![1, 2, 3], cached(5));
        assert!(
            cache.lookup(99, &[4, 5, 6]).is_none(),
            "collision must degrade to a rebuild, not a wrong answer"
        );
        // The colliding source rebuilds and takes over the key; the
        // original source now misses (correctness over retention).
        cache.insert(99, vec![4, 5, 6], cached(7));
        assert_eq!(cache.lookup(99, &[4, 5, 6]).unwrap().graph.n(), 7);
        assert!(cache.lookup(99, &[1, 2, 3]).is_none());
    }
}
