//! End-to-end observability: boot a daemon with the simulator side
//! channel on, drive real traffic through a socket, scrape the metrics
//! over the wire, and check the exposition is parseable, structurally
//! sound, and actually populated — request latencies, lifecycle phases,
//! and per-round simulator timings all nonzero.

use arbodom::obs::prom;
use arbodom_service::{obs, Client, GraphSource, JobSpec, Server, ServerConfig};

fn spec(n: u32, seed: u64) -> JobSpec {
    JobSpec::new(GraphSource::Generator {
        family: arbodom::scenarios::Family::RandomTree,
        n,
        weights: arbodom::graph::weights::WeightModel::Unit,
        seed,
    })
}

#[test]
fn scraped_metrics_reflect_served_traffic() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            sim_obs: true,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // Real traffic: a batch of two distinct graphs, then a batch that
    // repeats one of them and must hit the cache, a ping, and a stats
    // call. The repeat gets its own batch because two workers may miss on
    // the same source concurrently within one batch, and both build it.
    let first = client.submit(&[spec(60, 1), spec(80, 2)]).expect("batch");
    let repeat = client.submit(&[spec(60, 1)]).expect("repeat batch");
    assert!(first.iter().chain(&repeat).all(|r| r.is_ok()));
    client.ping().expect("ping");
    let stats = client.stats().expect("stats");
    assert!(stats.hits >= 1, "repeated spec should hit the cache");

    let text = client.metrics().expect("metrics scrape");
    let exp = prom::parse(&text).expect("exposition parses");
    exp.validate_histograms().expect("histograms consistent");

    // Request accounting: the kinds we exercised are counted, with
    // latency histograms carrying the same number of observations.
    for (kind, expected) in [("batch", 2.0), ("ping", 1.0), ("stats", 1.0)] {
        let total = format!("{}{kind}", obs::REQUESTS_TOTAL_PREFIX);
        assert_eq!(exp.value(&total), Some(expected), "{total}");
        let lat_count = format!("{}{kind}_count", obs::REQUEST_NANOS_PREFIX);
        assert_eq!(exp.value(&lat_count), Some(expected), "{lat_count}");
    }
    // ...with nonzero cumulative latency buckets.
    let batch_buckets = format!("{}batch_bucket", obs::REQUEST_NANOS_PREFIX);
    let observed: f64 = exp
        .samples
        .iter()
        .filter(|s| s.name == batch_buckets && s.label("le") == Some("+Inf"))
        .map(|s| s.value)
        .sum();
    assert!(observed >= 1.0, "batch latency buckets must be populated");

    // Lifecycle phases: three jobs went through the solver and the
    // cache; every frame was decoded, encoded, and written.
    assert_eq!(exp.value(obs::JOBS_TOTAL), Some(3.0));
    assert_eq!(exp.value(obs::JOB_ERRORS_TOTAL), Some(0.0));
    let solves = format!("{}_count", obs::SOLVE_NANOS);
    assert_eq!(exp.value(&solves), Some(3.0), "one solve timing per job");
    let lookups = format!("{}_count", obs::CACHE_LOOKUP_NANOS);
    assert_eq!(exp.value(&lookups), Some(3.0), "one cache probe per job");
    for phase in [obs::DECODE_NANOS, obs::ENCODE_NANOS, obs::WRITE_NANOS] {
        let count = exp.value(&format!("{phase}_count")).unwrap_or(0.0);
        assert!(count >= 3.0, "{phase} must time every frame, saw {count}");
    }
    let queue = format!("{}_count", obs::QUEUE_WAIT_NANOS);
    assert_eq!(exp.value(&queue), Some(3.0), "one queue wait per job");

    // The simulator side channel was attached: phase timings and round
    // counters accumulated across the three solves.
    let sim_rounds = exp
        .value(arbodom::congest::obs::SIM_ROUNDS_TOTAL)
        .unwrap_or(0.0);
    assert!(sim_rounds > 0.0, "sim rounds must be counted");
    let round_wall = format!("{}_count", arbodom::congest::obs::SIM_ROUND_NANOS);
    assert_eq!(
        exp.value(&round_wall),
        Some(sim_rounds),
        "one round-wall observation per simulated round"
    );
    let bits = format!("{}_count", arbodom::congest::obs::SIM_MESSAGE_BITS);
    assert!(
        exp.value(&bits).unwrap_or(0.0) > 0.0,
        "message sizes must be observed"
    );

    // Resource gauges mirror the authoritative cache stats at scrape
    // time. The scrape itself ran after `stats`, so the counters it saw
    // are at least what the Stats reply reported.
    assert_eq!(exp.value(obs::CACHE_ENTRIES), Some(stats.entries as f64));
    assert!(exp.value(obs::CACHE_HITS).unwrap_or(0.0) >= stats.hits as f64);

    // The in-process render surface agrees with the wire scrape on
    // monotone counters (timings keep moving, so compare a counter).
    let direct = server.metrics_prometheus();
    let direct_exp = prom::parse(&direct).expect("direct render parses");
    assert!(direct_exp.value(obs::JOBS_TOTAL) >= Some(3.0));

    server.shutdown();
}

#[test]
fn sim_obs_defaults_off_and_scrape_still_works() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let replies = client.submit(&[spec(40, 3)]).expect("batch");
    assert!(replies[0].is_ok());
    let exp = prom::parse(&client.metrics().expect("scrape")).expect("parses");
    exp.validate_histograms().expect("consistent");
    // Service-layer metrics are always on...
    assert_eq!(exp.value(obs::JOBS_TOTAL), Some(1.0));
    // ...but no simulator metric is even *registered* without the flag:
    // the default run pays the side channel nothing, not even names.
    assert_eq!(exp.value(arbodom::congest::obs::SIM_ROUNDS_TOTAL), None);
    assert!(
        exp.with_prefix("sim_").next().is_none(),
        "no sim_* samples expected"
    );
    server.shutdown();
}

/// Every session mutate records one observation in each stage histogram,
/// the stages run inside the request, and α peels only to build a
/// degeneracy certificate.
#[test]
fn session_stage_spans_cover_every_mutate() {
    use arbodom::graph::generators;
    use arbodom::scenarios::churn::churn_delta;
    use arbodom_service::{DeltaSpec, SessionPolicy};
    use rand::SeedableRng;

    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let mut rng = rand::rngs::StdRng::seed_from_u64(61);
    let mut mirror = generators::forest_union(300, 2, &mut rng);
    let pairs = |g: &arbodom::graph::Graph| g.edges().map(|(u, v)| (u.get(), v.get())).collect();
    let (id, _) = client
        .open(&JobSpec::new(GraphSource::Inline {
            n: 300,
            edges: pairs(&mirror),
            weights: None,
        }))
        .expect("open");
    const MUTATES: u64 = 24;
    for batch in 0..MUTATES {
        let delta = churn_delta(&mirror, 70 + batch, 4);
        let ends = |edges: &[(arbodom::graph::NodeId, arbodom::graph::NodeId)]| {
            edges.iter().map(|&(u, v)| (u.get(), v.get())).collect()
        };
        let spec = DeltaSpec {
            inserts: ends(delta.inserts()),
            deletes: ends(delta.deletes()),
        };
        // Every sixth batch is certified, so both outcomes occur.
        let policy = if batch % 6 == 5 {
            SessionPolicy::Resolve
        } else {
            SessionPolicy::Repair
        };
        let update = client.mutate(id, &spec, policy).expect("mutate");
        assert!(update.result.valid);
        mirror = delta.apply(&mirror).expect("the batch applies");
    }

    let exp = prom::parse(&client.metrics().expect("scrape")).expect("parses");
    exp.validate_histograms().expect("consistent");
    let value = |name: &str| exp.value(name).unwrap_or(-1.0);
    let mut stages = 0.0;
    for stage in obs::SESSION_STAGE_NANOS {
        assert_eq!(value(&format!("{stage}_count")), MUTATES as f64, "{stage}");
        stages += value(&format!("{stage}_sum"));
    }
    let repairs = value(obs::REPAIRS_TOTAL) + value(obs::REPAIR_FALLBACKS_TOTAL);
    assert_eq!(repairs, MUTATES as f64);
    let peels = value(obs::ALPHA_PEELS_TOTAL);
    assert!((1.0..=MUTATES as f64).contains(&peels), "{peels} peels");
    let requests = value(&format!("{}mutate_sum", obs::REQUEST_NANOS_PREFIX));
    assert!(
        stages <= requests,
        "the stages ({stages} ns) run inside the requests ({requests} ns)"
    );
    server.shutdown();
}
