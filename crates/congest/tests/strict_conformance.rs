//! The simulator's `MeterMode::Strict` contract, tested from the outside:
//! conforming `Wire` implementations pass through unchanged, and broken
//! ones — lossy encodings, trailing bytes, unstable decodes — are caught
//! on the first message, surfacing as [`SimError::Wire`] instead of a
//! silently wrong run.

use arbodom_congest::{
    assert_wire_conformance, run, Globals, Inbox, MeterMode, NodeCtx, NodeProgram, Outgoing,
    RunOptions, SimError, Step, Wire, WireError,
};
use arbodom_graph::generators;
use bytes::{BufMut, BytesMut};

fn strict() -> RunOptions {
    RunOptions {
        meter: MeterMode::Strict,
        ..RunOptions::default()
    }
}

/// Broadcasts one message in round 0, halts in round 1.
struct SendOnce<M: Clone> {
    msg: M,
}

impl<M: Wire + Clone + std::fmt::Debug + Send + Sync> NodeProgram for SendOnce<M> {
    type Message = M;
    type PortState = ();
    type Output = usize;
    fn round(&mut self, _ctx: &NodeCtx<'_>, inbox: Inbox<'_, M>, _ports: &mut [()]) -> Step<M> {
        if inbox.is_empty() {
            Step::halt_with(vec![Outgoing::broadcast(self.msg.clone())])
        } else {
            Step::halt()
        }
    }
    fn output(&self) -> usize {
        0
    }
}

/// A codec that drops information: encodes nothing, decodes a default.
#[derive(Clone, Debug, PartialEq)]
struct Lossy(u32);

impl Wire for Lossy {
    fn encode(&self, _buf: &mut BytesMut) {}
    fn decode(_buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(Lossy(0))
    }
}

/// A codec whose decode refuses to consume its trailing byte.
#[derive(Clone, Debug, PartialEq)]
struct Trailing;

impl Wire for Trailing {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(1);
        buf.put_u8(2); // decode below leaves this behind
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        if buf.is_empty() {
            return Err(WireError::Truncated);
        }
        *buf = &buf[1..];
        Ok(Trailing)
    }
}

/// A codec that always rejects its own encoding.
#[derive(Clone, Debug, PartialEq)]
struct SelfRejecting;

impl Wire for SelfRejecting {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(0xAB);
    }
    fn decode(_buf: &mut &[u8]) -> Result<Self, WireError> {
        Err(WireError::Invalid("always rejects"))
    }
}

#[test]
fn strict_mode_accepts_conforming_codecs() {
    let g = generators::cycle(8);
    let globals = Globals::new(&g, 0);
    let r = run(&g, &globals, |_, _| SendOnce { msg: 77u32 }, &strict()).unwrap();
    assert_eq!(r.telemetry.total_messages, 16);
    assert_eq!(r.telemetry.total_bits, 16 * 8);
}

#[test]
fn strict_mode_rejects_trailing_bytes() {
    let g = generators::cycle(6);
    let globals = Globals::new(&g, 0);
    let err = run(&g, &globals, |_, _| SendOnce { msg: Trailing }, &strict()).unwrap_err();
    assert!(
        matches!(err, SimError::Wire(WireError::Invalid(m)) if m.contains("trailing")),
        "{err:?}"
    );
    // Measure mode doesn't decode, so the same program runs fine there —
    // Strict is what catches the bug.
    let ok = run(
        &g,
        &globals,
        |_, _| SendOnce { msg: Trailing },
        &RunOptions::default(),
    );
    assert!(ok.is_ok());
}

#[test]
fn strict_mode_propagates_decode_errors() {
    let g = generators::path(4);
    let globals = Globals::new(&g, 0);
    let err = run(
        &g,
        &globals,
        |_, _| SendOnce { msg: SelfRejecting },
        &strict(),
    )
    .unwrap_err();
    assert!(matches!(err, SimError::Wire(WireError::Invalid(_))));
}

#[test]
fn strict_mode_delivers_the_roundtripped_value() {
    // The lossy codec decodes everything to Lossy(0). Strict mode must
    // deliver that decoded value — receivers see 0, not the in-memory 9 —
    // proving the wire, not the heap, carries the message.
    struct EchoPayload {
        got: Option<u32>,
    }
    impl NodeProgram for EchoPayload {
        type Message = Lossy;
        type PortState = ();
        type Output = Option<u32>;
        fn round(
            &mut self,
            _ctx: &NodeCtx<'_>,
            inbox: Inbox<'_, Lossy>,
            _ports: &mut [()],
        ) -> Step<Lossy> {
            if let Some((_, m)) = inbox.first() {
                self.got = Some(m.0);
                return Step::halt();
            }
            Step::continue_with(vec![Outgoing::broadcast(Lossy(9))])
        }
        fn output(&self) -> Option<u32> {
            self.got
        }
    }
    let g = generators::cycle(5);
    let globals = Globals::new(&g, 0);
    let strict_run = run(&g, &globals, |_, _| EchoPayload { got: None }, &strict()).unwrap();
    assert!(strict_run.outputs.iter().all(|&o| o == Some(0)));
    let measure_run = run(
        &g,
        &globals,
        |_, _| EchoPayload { got: None },
        &RunOptions::default(),
    )
    .unwrap();
    assert!(measure_run.outputs.iter().all(|&o| o == Some(9)));
}

#[test]
fn conformance_helper_catches_broken_codecs() {
    // Sanity-check the public helper itself: it must reject the same
    // codecs Strict mode rejects.
    assert!(std::panic::catch_unwind(|| assert_wire_conformance(&Lossy(3))).is_err());
    assert!(std::panic::catch_unwind(|| assert_wire_conformance(&Trailing)).is_err());
    assert!(std::panic::catch_unwind(|| assert_wire_conformance(&SelfRejecting)).is_err());
    // And accept conforming ones.
    assert_wire_conformance(&123456u64);
    assert_wire_conformance(&(7u32, Some(false)));
}
