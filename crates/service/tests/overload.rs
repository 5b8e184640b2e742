//! End-to-end suite for the event-driven connection layer: admission
//! control (global caps + per-connection in-flight cap), typed
//! `Overloaded` shedding, legacy-version shed semantics, the slow-loris
//! idle timeout, `Hello` limits, the zero-per-connection-threads
//! property, and byte-determinism of successful replies under load at
//! any worker count.

use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use arbodom_graph::weights::WeightModel;
use arbodom_obs::prom;
use arbodom_scenarios::{Family, Scale};
use arbodom_service::protocol::{
    decode_payload, read_frame, write_message, PROTOCOL_V2, PROTOCOL_V3,
};
use arbodom_service::{
    Client, GraphSource, JobSpec, Request, Response, Server, ServerConfig, ServiceError,
};

fn config(workers: usize) -> ServerConfig {
    ServerConfig {
        workers,
        scale: Scale::Quick,
        cache_bytes: 32 << 20,
        ..ServerConfig::default()
    }
}

/// A generated-tree job: `n` controls how long a worker holds it.
fn tree_job(n: u32, seed: u64) -> JobSpec {
    JobSpec::new(GraphSource::Generator {
        family: Family::RandomTree,
        n,
        weights: WeightModel::Unit,
        seed,
    })
}

/// Scrapes one sample. Every scrape must also pass histogram validation
/// (cumulative buckets, `+Inf == _count`), overload or not.
fn metric(server_addr: std::net::SocketAddr, name: &str) -> f64 {
    let mut client = Client::connect(server_addr).expect("metrics client");
    let text = client.metrics().expect("metrics scrape");
    let exp = prom::parse(&text).expect("scrape parses");
    exp.validate_histograms().expect("valid histograms");
    exp.value(name).unwrap_or_else(|| panic!("missing {name}"))
}

#[test]
fn the_reactor_spawns_no_per_connection_threads() {
    let server = Server::bind("127.0.0.1:0", config(2)).unwrap();
    let baseline = server.threads_spawned();
    assert_eq!(baseline, 3, "one reactor + two workers");
    // Eight live connections, each doing real work: the spawn counter
    // must not move.
    let mut clients: Vec<Client> = (0..8)
        .map(|_| Client::connect(server.local_addr()).unwrap())
        .collect();
    for client in &mut clients {
        client.ping().unwrap();
        let replies = client.submit(&[tree_job(120, 1)]).unwrap();
        assert!(replies[0].as_ref().unwrap().valid);
    }
    assert_eq!(server.threads_spawned(), baseline);
    server.shutdown();
}

#[test]
fn pipelined_requests_past_the_per_conn_cap_shed_deterministically() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            per_conn_inflight: 2,
            ..config(1)
        },
    )
    .unwrap();
    // Ten pipelined single-job batches written in one burst: the frames
    // all arrive before the first (deliberately slow) job finishes, so
    // arrival-time classification sees the worst case. With a cap of 2,
    // exactly requests 0 and 1 are accepted and 2..=9 shed — and the
    // replies come back strictly in request order.
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    for i in 0..10u64 {
        let batch = Request::Batch(vec![tree_job(20_000, i)]);
        write_message(&mut stream, PROTOCOL_V3, &batch).unwrap();
    }
    let mut accepted = 0;
    let mut shed = 0;
    for request_no in 0..10 {
        loop {
            let (_, payload) = read_frame(&mut stream).unwrap();
            match decode_payload::<Response>(&payload).unwrap() {
                Response::Job { outcome, .. } => {
                    assert!(outcome.is_ok());
                }
                Response::BatchDone { jobs } => {
                    assert_eq!(jobs, 1);
                    accepted += 1;
                    break;
                }
                Response::Overloaded { retry_after_ms, .. } => {
                    assert!(request_no >= 2, "request {request_no} shed before the cap");
                    assert!(retry_after_ms >= 10);
                    shed += 1;
                    break;
                }
                other => panic!("unexpected reply {other:?}"),
            }
        }
    }
    assert_eq!((accepted, shed), (2, 8));
    let addr = server.local_addr();
    assert_eq!(metric(addr, "arbodom_requests_shed_total"), 8.0);
    assert_eq!(metric(addr, "arbodom_requests_admitted_total"), 2.0);
    assert_eq!(metric(addr, "arbodom_job_errors_total"), 0.0);
    // One queue wait per admitted job: shed requests never queue.
    assert_eq!(metric(addr, "arbodom_queue_wait_nanos_count"), 2.0);
    server.shutdown();
}

#[test]
fn pre_v3_sheds_reply_error_and_close() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            per_conn_inflight: 1,
            ..config(1)
        },
    )
    .unwrap();
    // A v2 connection cannot decode the Overloaded tag, so its shed is
    // the documented Error-then-close.
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    for i in 0..3u64 {
        let batch = Request::Batch(vec![tree_job(20_000, i)]);
        write_message(&mut stream, PROTOCOL_V2, &batch).unwrap();
    }
    // Request 0 completes normally.
    let (_, payload) = read_frame(&mut stream).unwrap();
    assert!(matches!(
        decode_payload::<Response>(&payload).unwrap(),
        Response::Job { .. }
    ));
    let (_, payload) = read_frame(&mut stream).unwrap();
    assert!(matches!(
        decode_payload::<Response>(&payload).unwrap(),
        Response::BatchDone { jobs: 1 }
    ));
    // Request 1 was shed at arrival: Error frame, then EOF.
    let (_, payload) = read_frame(&mut stream).unwrap();
    match decode_payload::<Response>(&payload).unwrap() {
        Response::Error(msg) => assert!(msg.contains("overloaded"), "{msg:?}"),
        other => panic!("expected Error, got {other:?}"),
    }
    assert!(matches!(read_frame(&mut stream), Err(ServiceError::Closed)));
    server.shutdown();
}

#[test]
fn a_multi_client_flood_answers_every_request() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            max_pending_jobs: 2,
            per_conn_inflight: 1,
            ..config(2)
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let ok = Arc::new(AtomicU64::new(0));
    let overloaded = Arc::new(AtomicU64::new(0));
    let other_errors = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..6)
        .map(|t| {
            let (ok, overloaded, other_errors) = (
                Arc::clone(&ok),
                Arc::clone(&overloaded),
                Arc::clone(&other_errors),
            );
            std::thread::spawn(move || {
                // retries(0): observe raw sheds instead of masking them.
                let mut client = Client::builder().retries(0).connect(addr).unwrap();
                for round in 0..4u64 {
                    let batch = [
                        tree_job(400, t * 100 + round),
                        tree_job(400, t * 100 + round + 50),
                    ];
                    match client.submit(&batch) {
                        Ok(replies) => {
                            assert!(replies.iter().all(|r| r.is_ok()));
                            ok.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(ServiceError::Overloaded { retry_after_ms, .. }) => {
                            assert!(retry_after_ms >= 10);
                            overloaded.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(_) => {
                            other_errors.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }
    // Every request was answered: completed or typed-shed, nothing
    // dropped, no deadlock, no transport failures.
    assert_eq!(other_errors.load(Ordering::SeqCst), 0);
    assert_eq!(
        ok.load(Ordering::SeqCst) + overloaded.load(Ordering::SeqCst),
        24
    );
    assert_eq!(
        metric(addr, "arbodom_requests_shed_total"),
        overloaded.load(Ordering::SeqCst) as f64
    );
    assert_eq!(metric(addr, "arbodom_job_errors_total"), 0.0);
    server.shutdown();
}

#[test]
fn retrying_clients_ride_out_the_overload() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            max_pending_jobs: 2,
            per_conn_inflight: 1,
            ..config(2)
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let handles: Vec<_> = (0..4)
        .map(|t| {
            std::thread::spawn(move || {
                let mut client = Client::builder()
                    .retries(40)
                    .backoff(Duration::from_millis(2), Duration::from_millis(100))
                    .jitter_seed(t)
                    .connect(addr)
                    .unwrap();
                for round in 0..3u64 {
                    let replies = client
                        .submit(&[tree_job(400, t * 100 + round)])
                        .expect("retry budget outlasts the overload");
                    assert!(replies[0].is_ok());
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }
    server.shutdown();
}

#[test]
fn successful_replies_stay_byte_identical_across_worker_counts_under_load() {
    let probe_batch = vec![
        {
            let mut spec = JobSpec::new(GraphSource::Inline {
                n: 40,
                edges: (0..39).map(|i| (i, i + 1)).collect(),
                weights: None,
            });
            spec.return_members = true;
            spec
        },
        tree_job(300, 11),
        // A malformed job: its deterministic error string is part of the
        // byte stream under comparison.
        JobSpec::new(GraphSource::Inline {
            n: 2,
            edges: vec![(0, 7)],
            weights: None,
        }),
        tree_job(200, 12),
    ];
    let mut streams: Vec<Vec<Vec<u8>>> = Vec::new();
    for workers in [1, 2, 4] {
        let server = Server::bind(
            "127.0.0.1:0",
            ServerConfig {
                max_pending_jobs: 6,
                per_conn_inflight: 1,
                ..config(workers)
            },
        )
        .unwrap();
        let addr = server.local_addr();
        let stop = Arc::new(AtomicBool::new(false));
        let flood: Vec<_> = (0..3)
            .map(|t| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut client = Client::builder()
                        .retries(3)
                        .backoff(Duration::from_millis(1), Duration::from_millis(20))
                        .jitter_seed(t)
                        .connect(addr)
                        .unwrap();
                    let mut seed = t * 1000;
                    while !stop.load(Ordering::SeqCst) {
                        seed += 1;
                        match client.submit(&[tree_job(350, seed)]) {
                            Ok(_) | Err(ServiceError::Overloaded { .. }) => {}
                            Err(e) => panic!("flood client failed: {e}"),
                        }
                    }
                })
            })
            .collect();
        let mut probe = Client::builder()
            .retries(60)
            .backoff(Duration::from_millis(2), Duration::from_millis(100))
            .connect(addr)
            .unwrap();
        let frames = probe.submit_raw(&probe_batch).expect("probe completes");
        stop.store(true, Ordering::SeqCst);
        for handle in flood {
            handle.join().unwrap();
        }
        server.shutdown();
        streams.push(frames);
    }
    assert_eq!(streams[0], streams[1], "1 vs 2 workers");
    assert_eq!(streams[0], streams[2], "1 vs 4 workers");
}

#[test]
fn slow_loris_connections_are_idle_closed() {
    // Regression test for the thread-per-connection server, which parked
    // a thread in a blocking read forever: a half-sent frame must now be
    // answered with a typed error and a close within the idle timeout.
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            idle_timeout: Some(Duration::from_millis(200)),
            ..config(1)
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // Three bytes of a five-byte header, then silence.
    use std::io::Write;
    stream.write_all(&[PROTOCOL_V3, 0x10, 0x00]).unwrap();
    let (_, payload) = read_frame(&mut stream).expect("typed close reason, not a hang");
    match decode_payload::<Response>(&payload).unwrap() {
        Response::Error(msg) => assert!(msg.contains("idle timeout"), "{msg:?}"),
        other => panic!("expected Error, got {other:?}"),
    }
    assert!(matches!(read_frame(&mut stream), Err(ServiceError::Closed)));
    assert!(metric(addr, "arbodom_connections_idle_closed_total") >= 1.0);
    server.shutdown();
}

#[test]
fn hello_advertises_limits_and_is_gated_below_v3() {
    let cfg = ServerConfig {
        max_pending_jobs: 33,
        max_pending_bytes: 1 << 20,
        per_conn_inflight: 5,
        idle_timeout: Some(Duration::from_secs(7)),
        ..config(2)
    };
    let server = Server::bind("127.0.0.1:0", cfg).unwrap();
    let mut v3 = Client::connect(server.local_addr()).unwrap();
    assert_eq!(v3.version(), PROTOCOL_V3);
    let limits = v3.hello().unwrap();
    assert_eq!(limits.protocol_max, PROTOCOL_V3);
    assert_eq!(limits.workers, 2);
    assert_eq!(limits.max_pending_jobs, 33);
    assert_eq!(limits.max_pending_bytes, 1 << 20);
    assert_eq!(limits.per_conn_inflight, 5);
    assert_eq!(limits.idle_timeout_ms, 7_000);
    assert_eq!(limits, server.limits());
    // Hello on a v2 connection: typed gate, connection survives.
    let mut v2 = Client::connect_with_version(server.local_addr(), PROTOCOL_V2).unwrap();
    match v2.hello() {
        Err(ServiceError::UnsupportedVersion { got, min, max }) => {
            assert_eq!((got, min, max), (PROTOCOL_V2, PROTOCOL_V3, PROTOCOL_V3));
        }
        other => panic!("expected version gate, got {other:?}"),
    }
    v2.ping().expect("gated connection stays usable");
    server.shutdown();
}
