//! End-to-end daemon tests: boot `arbodomd` on an ephemeral port, submit
//! mixed batches, and check the serving layer's headline guarantees —
//! byte-identical response streams across resubmission, concurrent
//! clients, and 1/2/4 server worker threads; cache hits on repeats;
//! clean quality accounting; the session protocol (open → mutate →
//! resolve → release); the refusal of a lossy Remark 4.4 job; and the
//! version rule: a frame that does not carry v3 gets a typed refusal, and
//! the connection closes.

use std::net::TcpStream;
use std::time::Duration;

use arbodom_congest::obs::SIM_ROUNDS_TOTAL;
use arbodom_obs::prom;
use arbodom_scenarios::{Algorithm, Family, Scale};
use arbodom_service::protocol::{decode_payload, read_frame, write_message};
use arbodom_service::{
    Client, DeltaSpec, GraphSource, JobSpec, Request, Response, Server, ServerConfig, ServiceError,
    SessionPolicy, PROTOCOL_V3,
};

fn config(workers: usize) -> ServerConfig {
    ServerConfig {
        workers,
        sim_threads: 1,
        cache_bytes: 32 << 20,
        scale: Scale::Quick,
        ..ServerConfig::default()
    }
}

/// A batch exercising all three ingestion paths, an algorithm override,
/// a member-list request, and one deliberately malformed job (whose
/// error reply must be deterministic too).
fn mixed_batch() -> Vec<JobSpec> {
    let path = GraphSource::Inline {
        n: 40,
        edges: (0..39).map(|i| (i, i + 1)).collect(),
        weights: None,
    };
    let weighted_star = GraphSource::Inline {
        n: 12,
        edges: (1..12).map(|i| (0, i)).collect(),
        weights: Some((0..12).map(|i| 1 + (i % 5) as u64 * 7).collect()),
    };
    let forest = GraphSource::Generator {
        family: Family::ForestUnion {
            alpha: 2,
            keep: 1.0,
        },
        n: 150,
        weights: arbodom_graph::weights::WeightModel::Unit,
        seed: 5,
    };
    let tree = GraphSource::Generator {
        family: Family::RandomTree,
        n: 120,
        weights: arbodom_graph::weights::WeightModel::Uniform { lo: 1, hi: 30 },
        seed: 9,
    };
    let bad = GraphSource::Inline {
        n: 2,
        edges: vec![(0, 7)],
        weights: None,
    };
    vec![
        JobSpec {
            return_members: true,
            ..JobSpec::new(path)
        },
        JobSpec::new(weighted_star),
        JobSpec::new(forest),
        JobSpec {
            algorithm: Some(Algorithm::UnknownDelta { eps: 0.3 }),
            ..JobSpec::new(tree)
        },
        JobSpec::new(GraphSource::ScenarioCell {
            name: "trees-exact".into(),
            size_idx: 0,
            weight_idx: 0,
            loss_idx: 0,
            seed_idx: 0,
        }),
        JobSpec::new(GraphSource::ScenarioCell {
            name: "compare-planted".into(),
            size_idx: 0,
            weight_idx: 0,
            loss_idx: 0,
            seed_idx: 1,
        }),
        JobSpec::new(bad),
    ]
}

/// Decodes a raw frame stream and asserts it is well-formed: jobs in
/// order, exactly one failure (the malformed job, with a typed message),
/// everything else valid and quality-unflagged.
fn assert_batch_is_healthy(frames: &[Vec<u8>], jobs: usize) {
    assert_eq!(frames.len(), jobs + 1, "one frame per job plus the trailer");
    for (i, payload) in frames.iter().enumerate() {
        match arbodom_service::protocol::decode_payload::<Response>(payload).unwrap() {
            Response::Job { index, outcome } => {
                assert_eq!(index as usize, i, "jobs must arrive in submission order");
                if index as usize == jobs - 1 {
                    let err = outcome.expect_err("malformed job must fail");
                    assert!(err.contains("out of range"), "{err}");
                } else {
                    let result = outcome.expect("job succeeds");
                    assert!(result.valid, "job {index} produced an invalid set");
                    assert!(!result.flagged, "job {index} tripped quality accounting");
                }
            }
            Response::BatchDone { jobs: count } => {
                assert_eq!(i, jobs, "trailer must come last");
                assert_eq!(count as usize, jobs);
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
}

#[test]
fn concurrent_clients_get_identical_byte_streams_and_repeats_hit_the_cache() {
    let server = Server::bind("127.0.0.1:0", config(4)).unwrap();
    let addr = server.local_addr();
    let jobs = mixed_batch();

    // Two client threads submit the same batch concurrently.
    let streams: Vec<Vec<Vec<u8>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let jobs = jobs.clone();
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    client.submit_raw(&jobs).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(
        streams[0], streams[1],
        "concurrent clients must receive byte-identical response streams"
    );
    assert_batch_is_healthy(&streams[0], jobs.len());

    // A third, sequential submission: byte-identical again, and now every
    // source is warm — the cache must answer it.
    let mut client = Client::connect(addr).unwrap();
    let before = client.stats().unwrap();
    let repeat = client.submit_raw(&jobs).unwrap();
    assert_eq!(streams[0], repeat, "cache hits must not change responses");
    let after = client.stats().unwrap();
    // Every job that builds a graph (all but the malformed one) must hit.
    let buildable = (jobs.len() - 1) as u64;
    assert!(
        after.hits >= before.hits + buildable,
        "expected ≥ {buildable} new cache hits, stats {before:?} → {after:?}"
    );
    assert!(after.entries >= 1);
    assert!(
        after.bytes > 0 && after.bytes <= after.capacity,
        "byte accounting must be live and within budget, stats {after:?}"
    );
    server.shutdown();
}

#[test]
fn responses_are_identical_across_1_2_4_worker_threads() {
    let jobs = mixed_batch();
    let mut streams = Vec::new();
    for workers in [1, 2, 4] {
        let server = Server::bind("127.0.0.1:0", config(workers)).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let first = client.submit_raw(&jobs).unwrap();
        let second = client.submit_raw(&jobs).unwrap();
        assert_eq!(
            first, second,
            "{workers} workers: resubmission must be byte-identical"
        );
        let stats = client.stats().unwrap();
        assert!(
            stats.hits > 0,
            "{workers} workers: second submission must hit the cache"
        );
        streams.push(first);
        server.shutdown();
    }
    assert_eq!(streams[0], streams[1], "1 vs 2 workers");
    assert_eq!(streams[1], streams[2], "2 vs 4 workers");
    assert_batch_is_healthy(&streams[0], jobs.len());
}

#[test]
fn control_requests_and_client_driven_shutdown() {
    let server = Server::bind("127.0.0.1:0", config(2)).unwrap();
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();
    client.ping().unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.capacity, 32 << 20);
    assert_eq!(stats.bytes, 0, "nothing cached yet");
    client.shutdown_server().unwrap();
    // The daemon stops accepting: wait() must return promptly.
    server.wait();
    // New connections are refused once the listener is gone (allow a few
    // retries for the OS to tear the socket down).
    for _ in 0..50 {
        if Client::connect(addr).is_err() {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    panic!("daemon kept accepting after shutdown");
}

#[test]
fn scenario_cells_respect_the_server_scale() {
    // The same cell address resolves to different instances at quick vs
    // full scale; the daemon's scale knob decides.
    let quick = Server::bind("127.0.0.1:0", config(2)).unwrap();
    let spec = JobSpec::new(GraphSource::ScenarioCell {
        name: "trees-exact".into(),
        size_idx: 0,
        weight_idx: 0,
        loss_idx: 0,
        seed_idx: 0,
    });
    let mut client = Client::connect(quick.local_addr()).unwrap();
    let reply = client.submit(std::slice::from_ref(&spec)).unwrap();
    let result = reply[0].as_ref().unwrap();
    assert_eq!(result.n, 400, "trees-exact quick size is 400");
    // Out-of-range cell indices are job errors, not daemon crashes.
    let bad = JobSpec::new(GraphSource::ScenarioCell {
        name: "trees-exact".into(),
        size_idx: 0,
        weight_idx: 9,
        loss_idx: 0,
        seed_idx: 0,
    });
    let reply = client.submit(std::slice::from_ref(&bad)).unwrap();
    let err = reply[0].as_ref().unwrap_err();
    assert!(err.contains("weight_idx"), "{err}");
    quick.shutdown();
}

/// Remark 4.4 halts by local stabilization, which one dropped message
/// prevents. A job that asks for it on a lossy cell gets a typed job error
/// at once, before a single simulated round, and the same connection
/// serves the next job.
#[test]
fn a_lossy_remark_4_4_job_is_refused_without_running_a_round() {
    let cfg = ServerConfig {
        sim_obs: true,
        ..config(1)
    };
    let server = Server::bind("127.0.0.1:0", cfg).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let rem44_on = |loss_idx| JobSpec {
        algorithm: Some(Algorithm::UnknownDelta { eps: 0.25 }),
        ..JobSpec::new(GraphSource::ScenarioCell {
            name: "faults-forest-loss".into(),
            size_idx: 0,
            weight_idx: 0,
            loss_idx,
            seed_idx: 0,
        })
    };
    let rounds = |client: &mut Client| {
        let exp = prom::parse(&client.metrics().unwrap()).unwrap();
        exp.value(SIM_ROUNDS_TOTAL).unwrap_or(0.0)
    };
    // Loss index 4 drops each message with probability 0.2.
    let reply = client.submit(&[rem44_on(4)]).unwrap();
    let err = reply[0].as_ref().unwrap_err();
    assert!(err.contains("invalid parameter `loss`"), "{err}");
    assert_eq!(rounds(&mut client), 0.0, "the refusal ran a round");
    let reply = client.submit(&[rem44_on(0)]).unwrap();
    let result = reply[0].as_ref().expect("the lossless cell is served");
    assert!(result.valid);
    assert!(rounds(&mut client) > 0.0);
    server.shutdown();
}

fn path_spec(n: u32) -> JobSpec {
    JobSpec::new(GraphSource::Inline {
        n,
        edges: (0..n - 1).map(|i| (i, i + 1)).collect(),
        weights: None,
    })
}

#[test]
fn session_lifecycle_open_mutate_resolve_release() {
    let server = Server::bind("127.0.0.1:0", config(2)).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let (id, opened) = client.open(&path_spec(40)).unwrap();
    assert!(id >= 1, "session ids start at 1");
    assert!(opened.valid && !opened.flagged);
    assert!(opened.rounds > 0, "opening runs a real distributed solve");

    // A small churn batch under the repair policy: the set stays valid
    // with zero simulated rounds, and the drift accounting ticks.
    let delta = DeltaSpec {
        inserts: vec![(0, 39)],
        deletes: vec![(10, 11)],
    };
    let update = client.mutate(id, &delta, SessionPolicy::Repair).unwrap();
    assert!(update.result.valid);
    assert!(
        update.repair.repaired,
        "one small batch must not trip drift"
    );
    assert_eq!(update.result.rounds, 0, "local repair simulates nothing");
    assert_eq!(update.repair.batches_since_solve, 1);
    assert_ne!(update.result.graph_digest, opened.graph_digest);
    assert_eq!(update.result.m, opened.m, "one insert + one delete");

    // A regular batch job addressing the session sees the mutated graph.
    let snap = client
        .submit(&[JobSpec::new(GraphSource::Session { id })])
        .unwrap();
    let snap = snap[0].as_ref().unwrap();
    assert_eq!(snap.graph_digest, update.result.graph_digest);

    // The resolve policy certifies the batch with a full re-solve:
    // simulation rounds are spent and the drift anchor resets.
    let delta2 = DeltaSpec {
        inserts: vec![(5, 20)],
        deletes: vec![],
    };
    let update2 = client.mutate(id, &delta2, SessionPolicy::Resolve).unwrap();
    assert!(update2.result.valid);
    assert!(!update2.repair.repaired);
    assert!(update2.result.rounds > 0, "resolve runs the real algorithm");
    assert_eq!(update2.repair.batches_since_solve, 0);

    // An explicit Resolve request re-anchors too.
    let resolved = client.resolve_session(id).unwrap();
    assert!(resolved.result.valid);
    assert!(!resolved.repair.repaired);

    // A conflicting delta is a job-level error; the session survives and
    // the connection stays usable.
    let conflict = DeltaSpec {
        inserts: vec![(5, 20)],
        deletes: vec![],
    };
    let err = client
        .mutate(id, &conflict, SessionPolicy::Repair)
        .unwrap_err();
    assert!(matches!(err, ServiceError::Remote(_)), "{err}");
    client.ping().unwrap();
    client.resolve_session(id).unwrap();

    // Release is idempotent; a released session is gone for every verb.
    assert!(client.release(id).unwrap());
    assert!(!client.release(id).unwrap());
    let err = client
        .mutate(id, &delta, SessionPolicy::Repair)
        .unwrap_err();
    match err {
        ServiceError::Remote(msg) => assert!(msg.contains("unknown session"), "{msg}"),
        other => panic!("expected Remote, got {other}"),
    }
    let snap = client
        .submit(&[JobSpec::new(GraphSource::Session { id })])
        .unwrap();
    let msg = snap[0].as_ref().unwrap_err();
    assert!(msg.contains("unknown session"), "{msg}");
    server.shutdown();
}

#[test]
fn idle_sessions_expire_and_their_bytes_leave_the_daemon() {
    // Regression: before TTL eviction, every opened-but-never-released
    // session pinned its graph and flag vector for the daemon's lifetime.
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            session_ttl: std::time::Duration::from_millis(80),
            ..config(2)
        },
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let (id, _) = client.open(&path_spec(40)).unwrap();
    let (live, bytes, _) = {
        let s = client.stats().unwrap();
        (s.sessions, s.session_bytes, s.session_evictions)
    };
    assert_eq!(live, 1);
    assert!(bytes > 0, "an open session must report resident bytes");

    std::thread::sleep(std::time::Duration::from_millis(200));
    // Any table access sweeps; the stale session must be gone with a
    // typed "expired" reason — not the generic unknown-session error.
    let err = client
        .mutate(
            id,
            &DeltaSpec {
                inserts: vec![(0, 39)],
                deletes: vec![],
            },
            SessionPolicy::Repair,
        )
        .unwrap_err();
    match err {
        ServiceError::Remote(msg) => assert!(msg.contains("expired session"), "{msg}"),
        other => panic!("expected remote job error, got {other:?}"),
    }
    let snap = client
        .submit(&[JobSpec::new(GraphSource::Session { id })])
        .unwrap();
    let msg = snap[0].as_ref().unwrap_err();
    assert!(msg.contains("expired session"), "{msg}");

    let s = client.stats().unwrap();
    assert_eq!(s.sessions, 0, "expired session must leave the table");
    assert_eq!(s.session_bytes, 0, "its resident bytes must be reclaimed");
    assert!(s.session_evictions >= 1);
    server.shutdown();
}

#[test]
fn the_session_cap_displaces_the_least_recently_used_session() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            session_ttl: std::time::Duration::from_secs(3600),
            max_sessions: 1,
            ..config(2)
        },
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let (first, _) = client.open(&path_spec(20)).unwrap();
    let (second, _) = client.open(&path_spec(30)).unwrap();
    // Opening the second displaced the first (cap is 1).
    let err = client.resolve_session(first).unwrap_err();
    match err {
        ServiceError::Remote(msg) => assert!(msg.contains("evicted session"), "{msg}"),
        other => panic!("expected remote job error, got {other:?}"),
    }
    // The survivor keeps working.
    let update = client
        .mutate(
            second,
            &DeltaSpec {
                inserts: vec![(0, 29)],
                deletes: vec![],
            },
            SessionPolicy::Repair,
        )
        .unwrap();
    assert_eq!(update.result.m, 30);
    let s = client.stats().unwrap();
    assert_eq!(s.sessions, 1);
    assert!(s.session_bytes > 0);
    assert!(s.session_evictions >= 1);
    server.shutdown();
}

#[test]
fn sessions_are_shared_across_connections() {
    let server = Server::bind("127.0.0.1:0", config(2)).unwrap();
    let addr = server.local_addr();
    let mut opener = Client::connect(addr).unwrap();
    let (id, opened) = opener.open(&path_spec(30)).unwrap();
    // A different connection mutates and releases the same session.
    let mut other = Client::connect(addr).unwrap();
    let update = other
        .mutate(
            id,
            &DeltaSpec {
                inserts: vec![(0, 29)],
                deletes: vec![],
            },
            SessionPolicy::Repair,
        )
        .unwrap();
    assert_eq!(update.result.m, opened.m + 1);
    assert!(other.release(id).unwrap());
    server.shutdown();
}

/// A failed mutate leaves the session's byte count where it was: the
/// conflict changes nothing the session holds, not even the degeneracy
/// certificate that the kept mutate built.
#[test]
fn a_failed_mutate_refreshes_the_session_byte_count() {
    let server = Server::bind("127.0.0.1:0", config(2)).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let (id, _) = client.open(&path_spec(200)).unwrap();
    // A kept mutate builds the session's degeneracy certificate, which
    // its byte count includes.
    let opened = client.stats().unwrap().session_bytes;
    let kept = DeltaSpec {
        inserts: vec![(0, 199)],
        deletes: vec![(10, 11)],
    };
    client.mutate(id, &kept, SessionPolicy::Repair).unwrap();
    let before = client.stats().unwrap().session_bytes;
    assert!(before > opened, "{opened} → {before}");
    let conflict = DeltaSpec {
        inserts: vec![(5, 6)],
        deletes: vec![],
    };
    let err = client
        .mutate(id, &conflict, SessionPolicy::Repair)
        .unwrap_err();
    assert!(matches!(err, ServiceError::Remote(_)), "{err}");
    let after = client.stats().unwrap().session_bytes;
    assert_eq!(
        after, before,
        "a conflict changes nothing the session holds"
    );
    server.shutdown();
}

#[test]
fn a_frame_not_carrying_v3_is_refused_typed_and_closes_the_connection() {
    let server = Server::bind("127.0.0.1:0", config(1)).unwrap();
    let connect = || {
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream
    };
    let reply = |stream: &mut TcpStream| {
        let (version, payload) = read_frame(stream).unwrap();
        assert_eq!(version, PROTOCOL_V3, "every reply is framed as v3");
        decode_payload::<Response>(&payload).unwrap()
    };
    let refusal = |got| Response::UnsupportedVersion {
        got,
        min: PROTOCOL_V3,
        max: PROTOCOL_V3,
    };

    // A first frame carrying any other version byte.
    for got in [1, 2, 9] {
        let mut stream = connect();
        write_message(&mut stream, got, &Request::Ping).unwrap();
        assert_eq!(reply(&mut stream), refusal(got));
        assert!(matches!(read_frame(&mut stream), Err(ServiceError::Closed)));
    }

    // A later frame meets the same rule; the request before it is still
    // answered.
    let mut stream = connect();
    write_message(&mut stream, PROTOCOL_V3, &Request::Ping).unwrap();
    write_message(&mut stream, 2, &Request::Ping).unwrap();
    assert_eq!(reply(&mut stream), Response::Pong);
    assert_eq!(reply(&mut stream), refusal(2));
    assert!(matches!(read_frame(&mut stream), Err(ServiceError::Closed)));
    server.shutdown();
}
