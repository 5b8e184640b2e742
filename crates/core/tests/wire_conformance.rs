//! `MeterMode::Strict` round-trip conformance for the protocol wire
//! format: every [`ProtocolMsg`] variant (including value extremes) must
//! satisfy the full [`Wire`] contract — exact round-trip, honest
//! `encoded_bits`, and truncation safety — and corrupted buffers must be
//! rejected, never mis-decoded. A live Strict run over every program
//! then proves the simulator enforces the same contract end to end.

use arbodom_congest::{assert_wire_conformance, MeterMode, RunOptions, Wire, WireError};
use arbodom_core::distributed::{self, ProtocolMsg};
use arbodom_core::{randomized, unknown_delta, weighted};
use arbodom_graph::generators;
use bytes::BytesMut;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Every variant of the protocol, with boundary payloads where the
/// variant carries one.
fn all_variants() -> Vec<ProtocolMsg> {
    let extremes = [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX];
    let mut msgs = vec![
        ProtocolMsg::Joined,
        ProtocolMsg::Dominated,
        ProtocolMsg::Elect,
    ];
    for v in extremes {
        msgs.push(ProtocolMsg::Weight(v));
        msgs.push(ProtocolMsg::Tau(v));
        msgs.push(ProtocolMsg::Degree(v));
    }
    msgs
}

#[test]
fn every_variant_satisfies_the_wire_contract() {
    for msg in all_variants() {
        assert_wire_conformance(&msg);
    }
}

#[test]
fn truncated_buffers_error_at_every_cut() {
    // assert_wire_conformance already checks prefixes of each encoding;
    // here we additionally pin the error *kind*: a cut buffer is
    // Truncated (or Invalid for a multi-byte varint cut that exposes a
    // dangling continuation bit), never a silent success.
    for msg in all_variants() {
        let mut buf = BytesMut::new();
        msg.encode(&mut buf);
        for cut in 0..buf.len() {
            let mut slice = &buf[..cut];
            match ProtocolMsg::decode(&mut slice) {
                Err(WireError::Truncated) | Err(WireError::Invalid(_)) => {}
                Ok(got) => panic!("{msg:?} cut at {cut} decoded as {got:?}"),
                Err(other) => panic!("{msg:?} cut at {cut}: unexpected error {other}"),
            }
        }
    }
}

#[test]
fn corrupted_buffers_are_rejected() {
    // Unknown tag byte.
    for bad_tag in [6u8, 7, 99, 255] {
        let bytes = [bad_tag];
        let mut slice = &bytes[..];
        assert!(
            matches!(ProtocolMsg::decode(&mut slice), Err(WireError::Invalid(_))),
            "tag {bad_tag} must be rejected"
        );
    }
    // Valid tag followed by an over-long varint (11 continuation bytes).
    let mut bytes = vec![0u8]; // TAG_WEIGHT
    bytes.extend_from_slice(&[0xff; 11]);
    let mut slice = &bytes[..];
    assert!(matches!(
        ProtocolMsg::decode(&mut slice),
        Err(WireError::Invalid(_))
    ));
    // Valid tag with a varint cut mid-continuation.
    let bytes = [0u8, 0x80];
    let mut slice = &bytes[..];
    assert!(matches!(
        ProtocolMsg::decode(&mut slice),
        Err(WireError::Truncated)
    ));
}

/// Strict runs of every node program: each message type crosses the wire
/// as real bytes and is decoded back, so a protocol regression in any
/// variant fails here.
#[test]
fn strict_runs_cover_every_program_and_message_type() {
    let strict = RunOptions {
        meter: MeterMode::Strict,
        ..RunOptions::default()
    };
    let mut rng = StdRng::seed_from_u64(42);
    let g = generators::forest_union(150, 2, &mut rng);

    // Weight/Tau/Joined/Dominated/Elect flow through Theorem 1.1.
    let wcfg = weighted::Config::new(2, 0.3).unwrap();
    let (sol, t) = distributed::run_weighted(&g, &wcfg, 0, &strict, 1).unwrap();
    assert!(arbodom_core::verify::is_dominating_set(&g, &sol.in_ds));
    assert!(t.is_congest_compliant());

    // The randomized program reuses the same events under sampling.
    let rcfg = randomized::Config::new(2, 2, 7).unwrap();
    let (sol, _) = distributed::run_randomized(&g, &rcfg, &strict, 1).unwrap();
    assert!(arbodom_core::verify::is_dominating_set(&g, &sol.in_ds));

    // Degree flows through the tree program's single exchange…
    let tree = generators::random_tree(120, &mut rng);
    let (sol, _) = distributed::run_trees(&tree, &strict).unwrap();
    assert!(arbodom_core::verify::is_dominating_set(&tree, &sol.in_ds));

    // …and through the unknown-Δ program's normalizer exchange.
    let ucfg = unknown_delta::Config::new(2, 0.3).unwrap();
    let (sol, _) = distributed::run_unknown_delta(&g, &ucfg, 0, &strict, 1).unwrap();
    assert!(arbodom_core::verify::is_dominating_set(&g, &sol.in_ds));
}
