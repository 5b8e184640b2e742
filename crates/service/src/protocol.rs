//! The `arbodomd` wire protocol: framing plus typed requests/responses.
//!
//! Every message is one **frame**: a 1-byte protocol version, a 4-byte
//! little-endian payload length, then the payload, which is the [`Wire`]
//! encoding of exactly one [`Request`] or [`Response`]. The payload
//! codecs are the same varint helpers the CONGEST simulator meters with
//! ([`arbodom_congest::put_uvarint`] and its kin), so the protocol
//! inherits their conformance contract: encodings round-trip, consume exactly their own
//! bytes, and fail on any strict prefix (checkable with
//! [`arbodom_congest::assert_wire_conformance`]).
//!
//! # Version
//!
//! Every frame carries [`PROTOCOL_V3`], the one version the daemon
//! speaks ([`PROTOCOL_MIN`] and [`PROTOCOL_MAX`] both name it). A frame
//! carrying any other byte, whether it is a connection's first frame or a
//! later one, is answered with a typed [`Response::UnsupportedVersion`]
//! and the connection closes. [`Request::Hello`] is answered with
//! [`Response::Limits`] advertising the daemon's [`ServerLimits`]. A
//! request that trips admission control receives the typed
//! [`Response::Overloaded`] with a retry hint, and the connection stays
//! open.
//!
//! A conversation is strictly client-driven: the client writes one
//! request frame, the server answers with one or more response frames —
//! [`Response::Pong`]/[`Response::Stats`]/[`Response::ShuttingDown`] for
//! the control requests, one session-scoped reply for each session
//! request, and for a [`Request::Batch`] one [`Response::Job`] frame
//! **per job in submission order** followed by a [`Response::BatchDone`]
//! trailer. In-order delivery is what makes the response byte stream
//! deterministic: identical batches produce byte-identical response
//! streams at any server worker count.

use arbodom_congest::{
    get_bool, get_u32, get_u64, get_uvarint, put_bool, put_u32, put_u64, put_uvarint, Wire,
    WireError,
};
use arbodom_graph::weights::WeightModel;
use arbodom_scenarios::quality::RefKind;
use arbodom_scenarios::{Algorithm, Family};
use bytes::BytesMut;

use crate::ServiceError;
use std::io::{Read, Write};

/// Frame header size: a protocol-version byte followed by a `u32`
/// little-endian payload length.
pub const FRAME_HEADER_LEN: usize = 5;

/// The protocol version every frame carries: the batch queries, the
/// session requests and the overload surface ([`Request::Hello`] /
/// [`Response::Limits`] and the typed [`Response::Overloaded`] shed
/// reply).
pub const PROTOCOL_V3: u8 = 3;

/// Oldest protocol version the daemon speaks.
pub const PROTOCOL_MIN: u8 = PROTOCOL_V3;

/// Newest protocol version the daemon speaks.
pub const PROTOCOL_MAX: u8 = PROTOCOL_V3;

/// Hard cap on a frame payload; larger declared lengths are rejected
/// before any allocation so a corrupt or hostile header cannot balloon
/// memory.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Hard cap on jobs per batch.
pub const MAX_BATCH_JOBS: usize = 10_000;

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Writes one frame: version byte, length header, payload.
///
/// # Errors
///
/// Propagates I/O errors; rejects payloads above [`MAX_FRAME_LEN`].
pub fn write_frame(w: &mut impl Write, version: u8, payload: &[u8]) -> Result<(), ServiceError> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(ServiceError::FrameTooLarge(payload.len() as u64));
    }
    let mut header = [0u8; FRAME_HEADER_LEN];
    header[0] = version;
    header[1..].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)?;
    Ok(())
}

/// Reads one frame, returning its version byte and payload. The version
/// is **not** validated here — the connection layer answers any byte but
/// [`PROTOCOL_V3`] with [`Response::UnsupportedVersion`].
///
/// # Errors
///
/// Returns [`ServiceError::Closed`] on a clean EOF before the header,
/// [`ServiceError::FrameTooLarge`] for oversized declared lengths, and
/// I/O errors otherwise (including EOF mid-frame).
pub fn read_frame(r: &mut impl Read) -> Result<(u8, Vec<u8>), ServiceError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    let mut got = 0;
    while got < FRAME_HEADER_LEN {
        match r.read(&mut header[got..])? {
            0 if got == 0 => return Err(ServiceError::Closed),
            0 => {
                return Err(ServiceError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "eof inside frame header",
                )))
            }
            k => got += k,
        }
    }
    let version = header[0];
    let len = u32::from_le_bytes(header[1..].try_into().expect("4 length bytes")) as usize;
    if len > MAX_FRAME_LEN {
        return Err(ServiceError::FrameTooLarge(len as u64));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok((version, payload))
}

/// Encodes one message into a standalone payload buffer.
pub fn encode_payload<M: Wire>(msg: &M) -> Vec<u8> {
    let mut buf = BytesMut::new();
    msg.encode(&mut buf);
    buf.to_vec()
}

/// Decodes one message from a payload, requiring full consumption.
///
/// # Errors
///
/// Returns [`ServiceError::Wire`] on malformed bytes and
/// [`ServiceError::Protocol`] when trailing bytes remain (a desynced or
/// corrupted stream).
pub fn decode_payload<M: Wire>(payload: &[u8]) -> Result<M, ServiceError> {
    let mut slice = payload;
    let msg = M::decode(&mut slice)?;
    if !slice.is_empty() {
        return Err(ServiceError::Protocol(format!(
            "{} trailing bytes after message",
            slice.len()
        )));
    }
    Ok(msg)
}

/// Writes one message as a frame carrying `version`.
///
/// # Errors
///
/// Propagates framing errors.
pub fn write_message<M: Wire>(
    w: &mut impl Write,
    version: u8,
    msg: &M,
) -> Result<(), ServiceError> {
    write_frame(w, version, &encode_payload(msg))
}

/// Reads one message from a frame, returning the frame's version byte
/// alongside it.
///
/// # Errors
///
/// Propagates framing and decoding errors.
pub fn read_message<M: Wire>(r: &mut impl Read) -> Result<(u8, M), ServiceError> {
    let (version, payload) = read_frame(r)?;
    Ok((version, decode_payload(&payload)?))
}

/// Incremental frame reassembly for nonblocking reads.
///
/// The reactor feeds whatever byte chunks the kernel hands it — single
/// bytes, half a header, three frames and a tail — into [`push`], and
/// pulls complete `(version, payload)` frames out of [`next_frame`].
/// The assembler is segmentation-oblivious: any split of the same byte
/// stream yields the same frame sequence (proptested in
/// `tests/frame_assembly.rs`).
///
/// [`push`]: FrameAssembler::push
/// [`next_frame`]: FrameAssembler::next_frame
#[derive(Debug, Default)]
pub struct FrameAssembler {
    buf: Vec<u8>,
    start: usize,
}

impl FrameAssembler {
    /// An empty assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a received chunk to the reassembly buffer.
    pub fn push(&mut self, chunk: &[u8]) {
        // Reclaim consumed prefix space before growing, so a long-lived
        // connection's buffer stays proportional to its unparsed tail.
        if self.start > 0 && (self.start == self.buf.len() || self.start >= 64 * 1024) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(chunk);
    }

    /// Bytes buffered but not yet returned as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Extracts the next complete frame, if one is fully buffered.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::FrameTooLarge`] as soon as a header
    /// declaring an oversized payload is visible — before the payload
    /// arrives or is allocated, so a hostile header cannot balloon
    /// memory. The assembler is poisoned-by-construction after that:
    /// the connection must be closed, matching [`read_frame`].
    pub fn next_frame(&mut self) -> Result<Option<(u8, Vec<u8>)>, ServiceError> {
        let avail = &self.buf[self.start..];
        if avail.len() < FRAME_HEADER_LEN {
            return Ok(None);
        }
        let version = avail[0];
        let len = u32::from_le_bytes(avail[1..FRAME_HEADER_LEN].try_into().expect("4 len bytes"))
            as usize;
        if len > MAX_FRAME_LEN {
            return Err(ServiceError::FrameTooLarge(len as u64));
        }
        if avail.len() < FRAME_HEADER_LEN + len {
            return Ok(None);
        }
        let payload = avail[FRAME_HEADER_LEN..FRAME_HEADER_LEN + len].to_vec();
        self.start += FRAME_HEADER_LEN + len;
        Ok(Some((version, payload)))
    }
}

// ---------------------------------------------------------------------------
// Scalar helpers over the congest codecs
// ---------------------------------------------------------------------------

fn put_f64(buf: &mut BytesMut, v: f64) {
    put_u64(buf, v.to_bits());
}

fn get_f64(buf: &mut &[u8]) -> Result<f64, WireError> {
    Ok(f64::from_bits(get_u64(buf)?))
}

fn put_usize(buf: &mut BytesMut, v: usize) {
    put_uvarint(buf, v as u64);
}

fn get_usize(buf: &mut &[u8]) -> Result<usize, WireError> {
    usize::try_from(get_uvarint(buf)?).map_err(|_| WireError::Invalid("usize out of range"))
}

fn put_string(buf: &mut BytesMut, s: &str) {
    put_usize(buf, s.len());
    buf.extend_from_slice(s.as_bytes());
}

fn get_string(buf: &mut &[u8]) -> Result<String, WireError> {
    let len = get_usize(buf)?;
    if len > buf.len() {
        return Err(WireError::Truncated);
    }
    let (head, tail) = buf.split_at(len);
    let s = std::str::from_utf8(head)
        .map_err(|_| WireError::Invalid("string is not UTF-8"))?
        .to_string();
    *buf = tail;
    Ok(s)
}

/// Guards a declared sequence length against the remaining buffer so a
/// corrupt count cannot trigger a huge allocation: every encoded element
/// occupies at least one byte.
fn get_seq_len(buf: &mut &[u8]) -> Result<usize, WireError> {
    let len = get_usize(buf)?;
    if len > buf.len() {
        return Err(WireError::Truncated);
    }
    Ok(len)
}

// ---------------------------------------------------------------------------
// Foreign enums (orphan rule: encode through helpers, not `Wire` impls)
// ---------------------------------------------------------------------------

fn put_weight_model(buf: &mut BytesMut, m: &WeightModel) {
    match m {
        WeightModel::Unit => buf.extend_from_slice(&[0]),
        WeightModel::Uniform { lo, hi } => {
            buf.extend_from_slice(&[1]);
            put_u64(buf, *lo);
            put_u64(buf, *hi);
        }
        WeightModel::Exponential { max_exp } => {
            buf.extend_from_slice(&[2]);
            put_u32(buf, *max_exp);
        }
        WeightModel::DegreeCorrelated => buf.extend_from_slice(&[3]),
        WeightModel::InverseDegree => buf.extend_from_slice(&[4]),
        _ => unreachable!("non-exhaustive WeightModel variant without a wire tag"),
    }
}

fn get_weight_model(buf: &mut &[u8]) -> Result<WeightModel, WireError> {
    match get_tag(buf)? {
        0 => Ok(WeightModel::Unit),
        1 => Ok(WeightModel::Uniform {
            lo: get_u64(buf)?,
            hi: get_u64(buf)?,
        }),
        2 => Ok(WeightModel::Exponential {
            max_exp: get_u32(buf)?,
        }),
        3 => Ok(WeightModel::DegreeCorrelated),
        4 => Ok(WeightModel::InverseDegree),
        _ => Err(WireError::Invalid("unknown weight-model tag")),
    }
}

fn put_family(buf: &mut BytesMut, f: &Family) {
    match f {
        Family::ForestUnion { alpha, keep } => {
            buf.extend_from_slice(&[0]);
            put_usize(buf, *alpha);
            put_f64(buf, *keep);
        }
        Family::PrefAttach { m_per_node } => {
            buf.extend_from_slice(&[1]);
            put_usize(buf, *m_per_node);
        }
        Family::PlantedDs {
            k_per_mille,
            extra_per_node,
        } => {
            buf.extend_from_slice(&[2]);
            put_usize(buf, *k_per_mille);
            put_usize(buf, *extra_per_node);
        }
        Family::Grid2d { torus } => {
            buf.extend_from_slice(&[3]);
            put_bool(buf, *torus);
        }
        Family::Gnp { avg_degree } => {
            buf.extend_from_slice(&[4]);
            put_f64(buf, *avg_degree);
        }
        Family::RandomTree => buf.extend_from_slice(&[5]),
        Family::RandomPlanar { diag_p } => {
            buf.extend_from_slice(&[6]);
            put_f64(buf, *diag_p);
        }
        Family::KTree { k } => {
            buf.extend_from_slice(&[7]);
            put_usize(buf, *k);
        }
        Family::PowerLawCapped { exponent, cap } => {
            buf.extend_from_slice(&[8]);
            put_f64(buf, *exponent);
            put_usize(buf, *cap);
        }
        Family::UnitDisk { avg_degree } => {
            buf.extend_from_slice(&[9]);
            put_f64(buf, *avg_degree);
        }
    }
}

fn get_family(buf: &mut &[u8]) -> Result<Family, WireError> {
    match get_tag(buf)? {
        0 => Ok(Family::ForestUnion {
            alpha: get_usize(buf)?,
            keep: get_f64(buf)?,
        }),
        1 => Ok(Family::PrefAttach {
            m_per_node: get_usize(buf)?,
        }),
        2 => Ok(Family::PlantedDs {
            k_per_mille: get_usize(buf)?,
            extra_per_node: get_usize(buf)?,
        }),
        3 => Ok(Family::Grid2d {
            torus: get_bool(buf)?,
        }),
        4 => Ok(Family::Gnp {
            avg_degree: get_f64(buf)?,
        }),
        5 => Ok(Family::RandomTree),
        6 => Ok(Family::RandomPlanar {
            diag_p: get_f64(buf)?,
        }),
        7 => Ok(Family::KTree { k: get_usize(buf)? }),
        8 => Ok(Family::PowerLawCapped {
            exponent: get_f64(buf)?,
            cap: get_usize(buf)?,
        }),
        9 => Ok(Family::UnitDisk {
            avg_degree: get_f64(buf)?,
        }),
        _ => Err(WireError::Invalid("unknown family tag")),
    }
}

fn put_algorithm(buf: &mut BytesMut, a: &Algorithm) {
    match a {
        Algorithm::Weighted { eps } => {
            buf.extend_from_slice(&[0]);
            put_f64(buf, *eps);
        }
        Algorithm::UnknownDelta { eps } => {
            buf.extend_from_slice(&[1]);
            put_f64(buf, *eps);
        }
        Algorithm::Randomized { t } => {
            buf.extend_from_slice(&[2]);
            put_usize(buf, *t);
        }
        Algorithm::General { k } => {
            buf.extend_from_slice(&[3]);
            put_usize(buf, *k);
        }
    }
}

fn get_algorithm(buf: &mut &[u8]) -> Result<Algorithm, WireError> {
    match get_tag(buf)? {
        0 => Ok(Algorithm::Weighted { eps: get_f64(buf)? }),
        1 => Ok(Algorithm::UnknownDelta { eps: get_f64(buf)? }),
        2 => Ok(Algorithm::Randomized { t: get_usize(buf)? }),
        3 => Ok(Algorithm::General { k: get_usize(buf)? }),
        _ => Err(WireError::Invalid("unknown algorithm tag")),
    }
}

fn put_ref_kind(buf: &mut BytesMut, r: RefKind) {
    buf.extend_from_slice(&[match r {
        RefKind::Exact => 0,
        RefKind::Planted => 1,
        RefKind::PackingLb => 2,
    }]);
}

fn get_ref_kind(buf: &mut &[u8]) -> Result<RefKind, WireError> {
    match get_tag(buf)? {
        0 => Ok(RefKind::Exact),
        1 => Ok(RefKind::Planted),
        2 => Ok(RefKind::PackingLb),
        _ => Err(WireError::Invalid("unknown reference-kind tag")),
    }
}

fn get_tag(buf: &mut &[u8]) -> Result<u8, WireError> {
    if buf.is_empty() {
        return Err(WireError::Truncated);
    }
    let (tag, tail) = buf.split_first().expect("non-empty");
    *buf = tail;
    Ok(*tag)
}

// ---------------------------------------------------------------------------
// Job specs
// ---------------------------------------------------------------------------

/// Where a job's graph comes from — the three ingestion paths of the
/// daemon.
#[derive(Clone, Debug, PartialEq)]
pub enum GraphSource {
    /// An explicit edge list shipped in the request.
    Inline {
        /// Number of nodes.
        n: u32,
        /// Undirected edges as `(u, v)` pairs.
        edges: Vec<(u32, u32)>,
        /// Node weights (`None` = all weight 1).
        weights: Option<Vec<u64>>,
    },
    /// A named generator run server-side: repeated queries with the same
    /// parameters and seed hit the graph cache.
    Generator {
        /// The graph family with its parameters.
        family: Family,
        /// Target node count.
        n: u32,
        /// Node-weight model applied after generation.
        weights: WeightModel,
        /// Structural RNG seed.
        seed: u64,
    },
    /// One cell of a registered scenario, addressed exactly as the matrix
    /// runner addresses it: the instance (graph, weights, loss, seed) is
    /// reproduced bit-for-bit via the scenario's derived cell seed.
    ScenarioCell {
        /// Registry name of the scenario.
        name: String,
        /// Index into the scenario's size sweep (at the server's scale).
        size_idx: u32,
        /// Index into the weight-model sweep.
        weight_idx: u32,
        /// Index into the loss sweep.
        loss_idx: u32,
        /// Seed replica index.
        seed_idx: u64,
    },
    /// The **current** graph of an open session. Session graphs mutate,
    /// so jobs over this source are never cached — the job snapshots the
    /// session state at execution time.
    Session {
        /// Session id returned by [`Response::Session`].
        id: u64,
    },
}

impl Wire for GraphSource {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            GraphSource::Inline { n, edges, weights } => {
                buf.extend_from_slice(&[0]);
                put_u32(buf, *n);
                put_usize(buf, edges.len());
                for &(u, v) in edges {
                    put_u32(buf, u);
                    put_u32(buf, v);
                }
                match weights {
                    None => put_bool(buf, false),
                    Some(ws) => {
                        put_bool(buf, true);
                        put_usize(buf, ws.len());
                        for &w in ws {
                            put_u64(buf, w);
                        }
                    }
                }
            }
            GraphSource::Generator {
                family,
                n,
                weights,
                seed,
            } => {
                buf.extend_from_slice(&[1]);
                put_family(buf, family);
                put_u32(buf, *n);
                put_weight_model(buf, weights);
                put_u64(buf, *seed);
            }
            GraphSource::ScenarioCell {
                name,
                size_idx,
                weight_idx,
                loss_idx,
                seed_idx,
            } => {
                buf.extend_from_slice(&[2]);
                put_string(buf, name);
                put_u32(buf, *size_idx);
                put_u32(buf, *weight_idx);
                put_u32(buf, *loss_idx);
                put_u64(buf, *seed_idx);
            }
            GraphSource::Session { id } => {
                buf.extend_from_slice(&[3]);
                put_u64(buf, *id);
            }
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        match get_tag(buf)? {
            0 => {
                let n = get_u32(buf)?;
                let edge_count = get_seq_len(buf)?;
                let mut edges = Vec::with_capacity(edge_count);
                for _ in 0..edge_count {
                    edges.push((get_u32(buf)?, get_u32(buf)?));
                }
                let weights = if get_bool(buf)? {
                    let count = get_seq_len(buf)?;
                    let mut ws = Vec::with_capacity(count);
                    for _ in 0..count {
                        ws.push(get_u64(buf)?);
                    }
                    Some(ws)
                } else {
                    None
                };
                Ok(GraphSource::Inline { n, edges, weights })
            }
            1 => Ok(GraphSource::Generator {
                family: get_family(buf)?,
                n: get_u32(buf)?,
                weights: get_weight_model(buf)?,
                seed: get_u64(buf)?,
            }),
            2 => Ok(GraphSource::ScenarioCell {
                name: get_string(buf)?,
                size_idx: get_u32(buf)?,
                weight_idx: get_u32(buf)?,
                loss_idx: get_u32(buf)?,
                seed_idx: get_u64(buf)?,
            }),
            3 => Ok(GraphSource::Session { id: get_u64(buf)? }),
            _ => Err(WireError::Invalid("unknown graph-source tag")),
        }
    }
}

/// One dominating-set job: a graph source plus how to solve it.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// The graph to solve on.
    pub source: GraphSource,
    /// Algorithm override. `None` uses the registered scenario's algorithm
    /// for [`GraphSource::ScenarioCell`] jobs and Theorem 1.1 with
    /// ε = 0.2 for ad-hoc jobs.
    pub algorithm: Option<Algorithm>,
    /// Algorithm seed for ad-hoc jobs (scenario cells derive theirs).
    pub seed: u64,
    /// Whether the reply should carry the full member list.
    pub return_members: bool,
}

impl JobSpec {
    /// An ad-hoc job over `source` with the default algorithm and seed.
    pub fn new(source: GraphSource) -> Self {
        JobSpec {
            source,
            algorithm: None,
            seed: 0,
            return_members: false,
        }
    }
}

impl Wire for JobSpec {
    fn encode(&self, buf: &mut BytesMut) {
        self.source.encode(buf);
        match &self.algorithm {
            None => put_bool(buf, false),
            Some(a) => {
                put_bool(buf, true);
                put_algorithm(buf, a);
            }
        }
        put_u64(buf, self.seed);
        put_bool(buf, self.return_members);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(JobSpec {
            source: GraphSource::decode(buf)?,
            algorithm: if get_bool(buf)? {
                Some(get_algorithm(buf)?)
            } else {
                None
            },
            seed: get_u64(buf)?,
            return_members: get_bool(buf)?,
        })
    }
}

// ---------------------------------------------------------------------------
// Session messages
// ---------------------------------------------------------------------------

/// An edge-delta batch shipped over the wire: the inserts and deletes a
/// [`Request::Mutate`] applies to a session's graph. Validated
/// server-side against the session's current edge set (strict
/// [`arbodom_graph::GraphDelta`] semantics: inserting a present edge or
/// deleting an absent one is a job-level error).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeltaSpec {
    /// Edges to insert, as `(u, v)` pairs.
    pub inserts: Vec<(u32, u32)>,
    /// Edges to delete, as `(u, v)` pairs.
    pub deletes: Vec<(u32, u32)>,
}

fn put_edge_list(buf: &mut BytesMut, edges: &[(u32, u32)]) {
    put_usize(buf, edges.len());
    for &(u, v) in edges {
        put_u32(buf, u);
        put_u32(buf, v);
    }
}

fn get_edge_list(buf: &mut &[u8]) -> Result<Vec<(u32, u32)>, WireError> {
    let count = get_seq_len(buf)?;
    let mut edges = Vec::with_capacity(count);
    for _ in 0..count {
        edges.push((get_u32(buf)?, get_u32(buf)?));
    }
    Ok(edges)
}

impl Wire for DeltaSpec {
    fn encode(&self, buf: &mut BytesMut) {
        put_edge_list(buf, &self.inserts);
        put_edge_list(buf, &self.deletes);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(DeltaSpec {
            inserts: get_edge_list(buf)?,
            deletes: get_edge_list(buf)?,
        })
    }
}

/// How a [`Request::Mutate`] maintains the session's dominating set.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SessionPolicy {
    /// Local incremental repair, with the certified full re-solve as a
    /// fallback when the drift bound trips.
    #[default]
    Repair,
    /// Force a full re-solve for this batch.
    Resolve,
}

impl Wire for SessionPolicy {
    fn encode(&self, buf: &mut BytesMut) {
        buf.extend_from_slice(&[match self {
            SessionPolicy::Repair => 0,
            SessionPolicy::Resolve => 1,
        }]);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        match get_tag(buf)? {
            0 => Ok(SessionPolicy::Repair),
            1 => Ok(SessionPolicy::Resolve),
            _ => Err(WireError::Invalid("unknown session-policy tag")),
        }
    }
}

/// What the maintainer did for one mutation batch — the wire counterpart
/// of [`arbodom_core::repair::BatchOutcome`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RepairStats {
    /// `true` when local repair was kept; `false` when the batch ran the
    /// certified full re-solve (drift bound, batch budget, or
    /// [`SessionPolicy::Resolve`]).
    pub repaired: bool,
    /// Nodes the local repair added.
    pub added: u64,
    /// Nodes the local shrink pass retired as redundant.
    pub removed: u64,
    /// Touched vertices that had lost domination before the repair.
    pub undominated_before: u64,
    /// Maintained weight over the weight of the last full solve.
    pub drift_estimate: f64,
    /// Batches repaired since the last full solve.
    pub batches_since_solve: u64,
    /// Chain digest of the session's mutation history (base edge digest
    /// folded with every applied delta).
    pub chain: u64,
}

impl Wire for RepairStats {
    fn encode(&self, buf: &mut BytesMut) {
        put_bool(buf, self.repaired);
        put_u64(buf, self.added);
        put_u64(buf, self.removed);
        put_u64(buf, self.undominated_before);
        put_f64(buf, self.drift_estimate);
        put_u64(buf, self.batches_since_solve);
        put_u64(buf, self.chain);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(RepairStats {
            repaired: get_bool(buf)?,
            added: get_u64(buf)?,
            removed: get_u64(buf)?,
            undominated_before: get_u64(buf)?,
            drift_estimate: get_f64(buf)?,
            batches_since_solve: get_u64(buf)?,
            chain: get_u64(buf)?,
        })
    }
}

/// The successful outcome of a [`Request::Mutate`] or
/// [`Request::Resolve`]: the session's post-batch quality accounting
/// plus what the maintainer did to get there.
#[derive(Clone, Debug, PartialEq)]
pub struct SessionUpdate {
    /// Quality-accounted state of the maintained set on the mutated
    /// graph (rounds = simulation rounds this batch spent: 0 when the
    /// local repair was kept).
    pub result: JobResult,
    /// Maintainer telemetry for the batch.
    pub repair: RepairStats,
}

impl Wire for SessionUpdate {
    fn encode(&self, buf: &mut BytesMut) {
        self.result.encode(buf);
        self.repair.encode(buf);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(SessionUpdate {
            result: JobResult::decode(buf)?,
            repair: RepairStats::decode(buf)?,
        })
    }
}

fn put_outcome<T: Wire>(buf: &mut BytesMut, outcome: &Result<T, String>) {
    match outcome {
        Ok(value) => {
            put_bool(buf, true);
            value.encode(buf);
        }
        Err(msg) => {
            put_bool(buf, false);
            put_string(buf, msg);
        }
    }
}

fn get_outcome<T: Wire>(buf: &mut &[u8]) -> Result<Result<T, String>, WireError> {
    Ok(if get_bool(buf)? {
        Ok(T::decode(buf)?)
    } else {
        Err(get_string(buf)?)
    })
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// A client → server message.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
    /// A batch of jobs; answered with one [`Response::Job`] per job in
    /// submission order, then [`Response::BatchDone`].
    Batch(Vec<JobSpec>),
    /// Cache statistics probe; answered with [`Response::Stats`].
    Stats,
    /// Orderly daemon shutdown; answered with [`Response::ShuttingDown`].
    Shutdown,
    /// Solves the job and keeps the instance **alive server-side** as a
    /// session owning `(graph, solution, quality)` state; answered with
    /// [`Response::Session`].
    Open(JobSpec),
    /// Applies an edge-delta batch to a session's graph, maintaining the
    /// dominating set under `policy`; answered with
    /// [`Response::Mutated`].
    Mutate {
        /// Target session.
        session: u64,
        /// The edge batch to apply.
        delta: DeltaSpec,
        /// Repair-vs-resolve maintenance policy for this batch.
        policy: SessionPolicy,
    },
    /// Forces a certified full re-solve on a session's current graph,
    /// re-anchoring its drift estimate; answered with
    /// [`Response::Mutated`].
    Resolve {
        /// Target session.
        session: u64,
    },
    /// Drops a session and frees its owned state; answered with
    /// [`Response::Released`] (idempotent).
    Release {
        /// Target session.
        session: u64,
    },
    /// Scrapes the daemon's metrics registry; answered with
    /// [`Response::MetricsReport`] carrying the Prometheus
    /// text-exposition rendering.
    Metrics,
    /// Asks the daemon to advertise its admission limits; answered with
    /// [`Response::Limits`].
    Hello,
}

impl Wire for Request {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            Request::Ping => buf.extend_from_slice(&[0]),
            Request::Batch(jobs) => {
                buf.extend_from_slice(&[1]);
                put_usize(buf, jobs.len());
                for job in jobs {
                    job.encode(buf);
                }
            }
            Request::Stats => buf.extend_from_slice(&[2]),
            Request::Shutdown => buf.extend_from_slice(&[3]),
            Request::Open(spec) => {
                buf.extend_from_slice(&[4]);
                spec.encode(buf);
            }
            Request::Mutate {
                session,
                delta,
                policy,
            } => {
                buf.extend_from_slice(&[5]);
                put_u64(buf, *session);
                delta.encode(buf);
                policy.encode(buf);
            }
            Request::Resolve { session } => {
                buf.extend_from_slice(&[6]);
                put_u64(buf, *session);
            }
            Request::Release { session } => {
                buf.extend_from_slice(&[7]);
                put_u64(buf, *session);
            }
            Request::Metrics => buf.extend_from_slice(&[8]),
            Request::Hello => buf.extend_from_slice(&[9]),
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        match get_tag(buf)? {
            0 => Ok(Request::Ping),
            1 => {
                let count = get_seq_len(buf)?;
                if count > MAX_BATCH_JOBS {
                    return Err(WireError::Invalid("batch exceeds MAX_BATCH_JOBS"));
                }
                let mut jobs = Vec::with_capacity(count);
                for _ in 0..count {
                    jobs.push(JobSpec::decode(buf)?);
                }
                Ok(Request::Batch(jobs))
            }
            2 => Ok(Request::Stats),
            3 => Ok(Request::Shutdown),
            4 => Ok(Request::Open(JobSpec::decode(buf)?)),
            5 => Ok(Request::Mutate {
                session: get_u64(buf)?,
                delta: DeltaSpec::decode(buf)?,
                policy: SessionPolicy::decode(buf)?,
            }),
            6 => Ok(Request::Resolve {
                session: get_u64(buf)?,
            }),
            7 => Ok(Request::Release {
                session: get_u64(buf)?,
            }),
            8 => Ok(Request::Metrics),
            9 => Ok(Request::Hello),
            _ => Err(WireError::Invalid("unknown request tag")),
        }
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// The measured outcome of one job — the service counterpart of a
/// scenario [`arbodom_scenarios::CellReport`] row.
#[derive(Clone, Debug, PartialEq)]
pub struct JobResult {
    /// Nodes in the solved graph.
    pub n: u64,
    /// Edges in the solved graph.
    pub m: u64,
    /// Maximum degree Δ.
    pub max_degree: u64,
    /// The arboricity parameter the algorithm ran with.
    pub alpha: u64,
    /// [`arbodom_graph::digest::edge_digest`] of the instance (also the
    /// graph-cache key): the additive edge-set hash, which a session keeps
    /// current batch by batch. It identifies the graph; it is not the
    /// FNV-1a digest the generator seed-stability pins are stated in
    /// ([`arbodom_graph::digest::fnv_edge_digest`]), and equal digests
    /// do not prove equal graphs.
    pub graph_digest: u64,
    /// Nodes in the computed dominating set.
    pub ds_size: u64,
    /// Weight of the computed dominating set.
    pub ds_weight: u64,
    /// Whether the output is a dominating set.
    pub valid: bool,
    /// Number of undominated nodes (0 when `valid`).
    pub undominated: u64,
    /// Reference kind of the certified ratio.
    pub reference: RefKind,
    /// Reference value the ratio is measured against.
    pub opt_estimate: f64,
    /// `ds_weight / opt_estimate`, unclamped.
    pub ratio: f64,
    /// The theorem bound for this parameterization.
    pub guarantee: f64,
    /// Whether `ratio <= guarantee`.
    pub within_guarantee: bool,
    /// Quality-accounting alarm (see [`arbodom_scenarios::quality`]).
    pub flagged: bool,
    /// Executed CONGEST rounds.
    pub rounds: u64,
    /// The round budget of the theorem's complexity statement.
    pub round_budget: u64,
    /// Messages delivered by the simulator.
    pub messages: u64,
    /// Payload bits delivered.
    pub total_bits: u64,
    /// Largest single message in bits.
    pub max_message_bits: u64,
    /// Messages exceeding the CONGEST bandwidth budget.
    pub budget_violations: u64,
    /// Messages dropped by fault injection.
    pub dropped_messages: u64,
    /// The dominating set itself, when the job asked for it.
    pub members: Option<Vec<u32>>,
}

impl Wire for JobResult {
    fn encode(&self, buf: &mut BytesMut) {
        for v in [
            self.n,
            self.m,
            self.max_degree,
            self.alpha,
            self.graph_digest,
            self.ds_size,
            self.ds_weight,
        ] {
            put_u64(buf, v);
        }
        put_bool(buf, self.valid);
        put_u64(buf, self.undominated);
        put_ref_kind(buf, self.reference);
        put_f64(buf, self.opt_estimate);
        put_f64(buf, self.ratio);
        put_f64(buf, self.guarantee);
        put_bool(buf, self.within_guarantee);
        put_bool(buf, self.flagged);
        for v in [
            self.rounds,
            self.round_budget,
            self.messages,
            self.total_bits,
            self.max_message_bits,
            self.budget_violations,
            self.dropped_messages,
        ] {
            put_u64(buf, v);
        }
        match &self.members {
            None => put_bool(buf, false),
            Some(ms) => {
                put_bool(buf, true);
                put_usize(buf, ms.len());
                for &v in ms {
                    put_u32(buf, v);
                }
            }
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(JobResult {
            n: get_u64(buf)?,
            m: get_u64(buf)?,
            max_degree: get_u64(buf)?,
            alpha: get_u64(buf)?,
            graph_digest: get_u64(buf)?,
            ds_size: get_u64(buf)?,
            ds_weight: get_u64(buf)?,
            valid: get_bool(buf)?,
            undominated: get_u64(buf)?,
            reference: get_ref_kind(buf)?,
            opt_estimate: get_f64(buf)?,
            ratio: get_f64(buf)?,
            guarantee: get_f64(buf)?,
            within_guarantee: get_bool(buf)?,
            flagged: get_bool(buf)?,
            rounds: get_u64(buf)?,
            round_budget: get_u64(buf)?,
            messages: get_u64(buf)?,
            total_bits: get_u64(buf)?,
            max_message_bits: get_u64(buf)?,
            budget_violations: get_u64(buf)?,
            dropped_messages: get_u64(buf)?,
            members: if get_bool(buf)? {
                let count = get_seq_len(buf)?;
                let mut ms = Vec::with_capacity(count);
                for _ in 0..count {
                    ms.push(get_u32(buf)?);
                }
                Some(ms)
            } else {
                None
            },
        })
    }
}

/// Aggregate daemon counters served by [`Request::Stats`]: the graph
/// cache's, plus the session table's live count / resident bytes /
/// evictions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Graphs currently cached.
    pub entries: u64,
    /// Byte budget the LRU evicts down to.
    pub capacity: u64,
    /// Bytes currently held ([`arbodom_graph::MemoryFootprint`] totals
    /// of the cached instances).
    pub bytes: u64,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to build the graph.
    pub misses: u64,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
    /// Live sessions in the daemon's session table.
    pub sessions: u64,
    /// Resident bytes of those sessions (owned graphs plus maintained
    /// sets).
    pub session_bytes: u64,
    /// Sessions evicted by policy so far (idle TTL or session cap).
    pub session_evictions: u64,
}

impl Wire for CacheStats {
    fn encode(&self, buf: &mut BytesMut) {
        for v in [
            self.entries,
            self.capacity,
            self.bytes,
            self.hits,
            self.misses,
            self.evictions,
            self.sessions,
            self.session_bytes,
            self.session_evictions,
        ] {
            put_u64(buf, v);
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(CacheStats {
            entries: get_u64(buf)?,
            capacity: get_u64(buf)?,
            bytes: get_u64(buf)?,
            hits: get_u64(buf)?,
            misses: get_u64(buf)?,
            evictions: get_u64(buf)?,
            sessions: get_u64(buf)?,
            session_bytes: get_u64(buf)?,
            session_evictions: get_u64(buf)?,
        })
    }
}

/// The daemon's advertised admission limits, answered to
/// [`Request::Hello`].
///
/// A well-behaved client sizes its pipelining to `per_conn_inflight`
/// and backs off per [`Response::Overloaded`] retry hints; the limits
/// are advisory (the server enforces them regardless) but let clients
/// avoid sheds instead of reacting to them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerLimits {
    /// Oldest protocol version the daemon speaks.
    pub protocol_min: u8,
    /// Newest protocol version the daemon speaks.
    pub protocol_max: u8,
    /// Scheduler worker threads executing jobs.
    pub workers: u64,
    /// Global cap on admitted-but-unfinished jobs.
    pub max_pending_jobs: u64,
    /// Global cap on admitted-but-unfinished request payload bytes.
    pub max_pending_bytes: u64,
    /// Per-connection cap on queued + executing requests.
    pub per_conn_inflight: u64,
    /// Idle connection timeout in milliseconds (0 = disabled).
    pub idle_timeout_ms: u64,
    /// Largest frame payload the daemon accepts.
    pub max_frame_len: u64,
    /// Largest job count per batch request.
    pub max_batch_jobs: u64,
}

impl Wire for ServerLimits {
    fn encode(&self, buf: &mut BytesMut) {
        buf.extend_from_slice(&[self.protocol_min, self.protocol_max]);
        for v in [
            self.workers,
            self.max_pending_jobs,
            self.max_pending_bytes,
            self.per_conn_inflight,
            self.idle_timeout_ms,
            self.max_frame_len,
            self.max_batch_jobs,
        ] {
            put_u64(buf, v);
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(ServerLimits {
            protocol_min: get_tag(buf)?,
            protocol_max: get_tag(buf)?,
            workers: get_u64(buf)?,
            max_pending_jobs: get_u64(buf)?,
            max_pending_bytes: get_u64(buf)?,
            per_conn_inflight: get_u64(buf)?,
            idle_timeout_ms: get_u64(buf)?,
            max_frame_len: get_u64(buf)?,
            max_batch_jobs: get_u64(buf)?,
        })
    }
}

/// A server → client message.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// One job's outcome; `index` is the job's position in its batch.
    Job {
        /// Position of the job in the submitted batch.
        index: u32,
        /// The result, or a job-level error message.
        outcome: Result<JobResult, String>,
    },
    /// Batch trailer: all `jobs` job frames have been sent.
    BatchDone {
        /// Number of jobs answered.
        jobs: u32,
    },
    /// Answer to [`Request::Stats`].
    Stats(CacheStats),
    /// Answer to [`Request::Shutdown`]: the daemon is stopping.
    ShuttingDown,
    /// Connection-level protocol error (the server closes afterwards).
    Error(String),
    /// Answer to [`Request::Open`]: the session id and the initial
    /// solve's result (`id` is 0 when the open failed).
    Session {
        /// Identifier for later `Mutate`/`Resolve`/`Release` requests.
        id: u64,
        /// The initial solve, or a job-level error.
        outcome: Result<JobResult, String>,
    },
    /// Answer to [`Request::Mutate`] and [`Request::Resolve`].
    Mutated {
        /// The session the batch was applied to.
        id: u64,
        /// Post-batch state, or a job-level error (unknown session,
        /// delta conflict, failed re-solve — the session survives except
        /// where the error says otherwise).
        outcome: Result<SessionUpdate, String>,
    },
    /// Answer to [`Request::Release`].
    Released {
        /// The released session.
        id: u64,
        /// Whether the session existed (`false` makes release
        /// idempotent instead of an error).
        existed: bool,
    },
    /// Answer to [`Request::Metrics`]: the daemon's whole metrics
    /// registry rendered in Prometheus text-exposition format
    /// (parseable with `arbodom_obs::prom::parse`).
    MetricsReport(String),
    /// A frame carried a version byte other than [`PROTOCOL_V3`]; the
    /// connection closes after this reply.
    UnsupportedVersion {
        /// The version byte the client sent.
        got: u8,
        /// Oldest version the daemon speaks.
        min: u8,
        /// Newest version the daemon speaks.
        max: u8,
    },
    /// Admission control shed this request. The request was **not**
    /// executed; the connection stays open.
    Overloaded {
        /// Suggested client backoff before retrying, in milliseconds.
        retry_after_ms: u64,
        /// Admitted-but-unfinished jobs at shed time (load signal).
        queue_depth: u64,
    },
    /// Answer to [`Request::Hello`]: the daemon's admission limits.
    Limits(ServerLimits),
}

impl Wire for Response {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            Response::Pong => buf.extend_from_slice(&[0]),
            Response::Job { index, outcome } => {
                buf.extend_from_slice(&[1]);
                put_u32(buf, *index);
                put_outcome(buf, outcome);
            }
            Response::BatchDone { jobs } => {
                buf.extend_from_slice(&[2]);
                put_u32(buf, *jobs);
            }
            Response::Stats(stats) => {
                buf.extend_from_slice(&[3]);
                stats.encode(buf);
            }
            Response::ShuttingDown => buf.extend_from_slice(&[4]),
            Response::Error(msg) => {
                buf.extend_from_slice(&[5]);
                put_string(buf, msg);
            }
            Response::Session { id, outcome } => {
                buf.extend_from_slice(&[6]);
                put_u64(buf, *id);
                put_outcome(buf, outcome);
            }
            Response::Mutated { id, outcome } => {
                buf.extend_from_slice(&[7]);
                put_u64(buf, *id);
                put_outcome(buf, outcome);
            }
            Response::Released { id, existed } => {
                buf.extend_from_slice(&[8]);
                put_u64(buf, *id);
                put_bool(buf, *existed);
            }
            Response::UnsupportedVersion { got, min, max } => {
                buf.extend_from_slice(&[9, *got, *min, *max]);
            }
            Response::MetricsReport(text) => {
                buf.extend_from_slice(&[10]);
                put_string(buf, text);
            }
            Response::Overloaded {
                retry_after_ms,
                queue_depth,
            } => {
                buf.extend_from_slice(&[11]);
                put_u64(buf, *retry_after_ms);
                put_u64(buf, *queue_depth);
            }
            Response::Limits(limits) => {
                buf.extend_from_slice(&[12]);
                limits.encode(buf);
            }
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        match get_tag(buf)? {
            0 => Ok(Response::Pong),
            1 => Ok(Response::Job {
                index: get_u32(buf)?,
                outcome: get_outcome(buf)?,
            }),
            2 => Ok(Response::BatchDone {
                jobs: get_u32(buf)?,
            }),
            3 => Ok(Response::Stats(CacheStats::decode(buf)?)),
            4 => Ok(Response::ShuttingDown),
            5 => Ok(Response::Error(get_string(buf)?)),
            6 => Ok(Response::Session {
                id: get_u64(buf)?,
                outcome: get_outcome(buf)?,
            }),
            7 => Ok(Response::Mutated {
                id: get_u64(buf)?,
                outcome: get_outcome(buf)?,
            }),
            8 => Ok(Response::Released {
                id: get_u64(buf)?,
                existed: get_bool(buf)?,
            }),
            9 => Ok(Response::UnsupportedVersion {
                got: get_tag(buf)?,
                min: get_tag(buf)?,
                max: get_tag(buf)?,
            }),
            10 => Ok(Response::MetricsReport(get_string(buf)?)),
            11 => Ok(Response::Overloaded {
                retry_after_ms: get_u64(buf)?,
                queue_depth: get_u64(buf)?,
            }),
            12 => Ok(Response::Limits(ServerLimits::decode(buf)?)),
            _ => Err(WireError::Invalid("unknown response tag")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbodom_congest::assert_wire_conformance;

    #[test]
    fn control_messages_conform() {
        assert_wire_conformance(&Request::Ping);
        assert_wire_conformance(&Request::Stats);
        assert_wire_conformance(&Request::Shutdown);
        assert_wire_conformance(&Response::Pong);
        assert_wire_conformance(&Response::ShuttingDown);
        assert_wire_conformance(&Response::BatchDone { jobs: 17 });
        assert_wire_conformance(&Response::Error("bad frame".into()));
        assert_wire_conformance(&Response::Stats(CacheStats {
            entries: 3,
            capacity: 64 << 20,
            bytes: 1 << 20,
            hits: 10,
            misses: 4,
            evictions: 1,
            sessions: 2,
            session_bytes: 4096,
            session_evictions: 5,
        }));
    }

    #[test]
    fn session_messages_conform() {
        assert_wire_conformance(&Request::Mutate {
            session: 42,
            delta: DeltaSpec {
                inserts: vec![(0, 3), (1, 2)],
                deletes: vec![(0, 1)],
            },
            policy: SessionPolicy::Repair,
        });
        assert_wire_conformance(&Request::Resolve { session: 7 });
        assert_wire_conformance(&Request::Release { session: 7 });
        assert_wire_conformance(&Response::Released {
            id: 7,
            existed: true,
        });
        assert_wire_conformance(&Response::Mutated {
            id: 7,
            outcome: Err("unknown session".into()),
        });
        assert_wire_conformance(&Response::UnsupportedVersion {
            got: 9,
            min: PROTOCOL_MIN,
            max: PROTOCOL_MAX,
        });
    }

    #[test]
    fn metrics_messages_conform() {
        assert_wire_conformance(&Request::Metrics);
        assert_wire_conformance(&Response::MetricsReport(
            "# TYPE arbodom_jobs_total counter\narbodom_jobs_total 3\n".into(),
        ));
    }

    #[test]
    fn overload_messages_conform_and_are_v3_only() {
        assert_wire_conformance(&Request::Hello);
        assert_wire_conformance(&Response::Overloaded {
            retry_after_ms: 120,
            queue_depth: 37,
        });
        assert_wire_conformance(&Response::Limits(ServerLimits {
            protocol_min: PROTOCOL_MIN,
            protocol_max: PROTOCOL_MAX,
            workers: 4,
            max_pending_jobs: 256,
            max_pending_bytes: 64 << 20,
            per_conn_inflight: 16,
            idle_timeout_ms: 60_000,
            max_frame_len: MAX_FRAME_LEN as u64,
            max_batch_jobs: MAX_BATCH_JOBS as u64,
        }));
    }

    #[test]
    fn frame_assembler_reassembles_byte_by_byte() {
        let mut wire = Vec::new();
        write_message(&mut wire, PROTOCOL_V3, &Request::Hello).unwrap();
        write_message(&mut wire, PROTOCOL_V3, &Request::Ping).unwrap();
        let mut assembler = FrameAssembler::new();
        let mut frames = Vec::new();
        for &b in &wire {
            assembler.push(&[b]);
            while let Some(frame) = assembler.next_frame().unwrap() {
                frames.push(frame);
            }
        }
        assert_eq!(frames.len(), 2);
        assert_eq!(assembler.buffered(), 0);
        assert_eq!(frames[0].0, PROTOCOL_V3);
        assert_eq!(
            decode_payload::<Request>(&frames[0].1).unwrap(),
            Request::Hello
        );
        assert_eq!(
            decode_payload::<Request>(&frames[1].1).unwrap(),
            Request::Ping
        );
    }

    #[test]
    fn frame_assembler_rejects_oversized_headers_before_the_payload_arrives() {
        let mut header = [0u8; FRAME_HEADER_LEN];
        header[0] = PROTOCOL_V3;
        header[1..].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut assembler = FrameAssembler::new();
        assembler.push(&header);
        assert!(matches!(
            assembler.next_frame(),
            Err(ServiceError::FrameTooLarge(_))
        ));
    }

    #[test]
    fn framing_roundtrips_and_carries_the_version_byte() {
        // Framing carries any version byte; the connection layer judges it.
        let mut wire = Vec::new();
        write_message(&mut wire, 2, &Request::Ping).unwrap();
        write_message(&mut wire, 1, &Request::Stats).unwrap();
        let mut reader = wire.as_slice();
        assert_eq!(
            read_message::<Request>(&mut reader).unwrap(),
            (2, Request::Ping)
        );
        assert_eq!(
            read_message::<Request>(&mut reader).unwrap(),
            (1, Request::Stats)
        );
        assert!(matches!(
            read_message::<Request>(&mut reader),
            Err(ServiceError::Closed)
        ));
    }

    #[test]
    fn oversized_frame_header_rejected_before_allocation() {
        let mut header = [0u8; FRAME_HEADER_LEN];
        header[0] = 2;
        header[1..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut header.as_slice()),
            Err(ServiceError::FrameTooLarge(_))
        ));
    }

    #[test]
    fn truncated_frame_body_is_an_error() {
        let mut wire = Vec::new();
        write_message(&mut wire, 2, &Request::Shutdown).unwrap();
        wire.pop(); // header still declares 1 payload byte
        assert!(matches!(
            read_frame(&mut wire.as_slice()),
            Err(ServiceError::Io(_))
        ));
    }

    #[test]
    fn truncated_frame_headers_are_errors_not_hangs() {
        // Every strict prefix of a valid header: clean close on zero
        // bytes, UnexpectedEof inside the header otherwise.
        let mut wire = Vec::new();
        write_message(&mut wire, 2, &Request::Ping).unwrap();
        for keep in 0..FRAME_HEADER_LEN {
            let result = read_frame(&mut &wire[..keep]);
            if keep == 0 {
                assert!(matches!(result, Err(ServiceError::Closed)));
            } else {
                assert!(matches!(result, Err(ServiceError::Io(_))), "prefix {keep}");
            }
        }
    }

    #[test]
    fn trailing_bytes_after_message_rejected() {
        let mut payload = encode_payload(&Request::Ping);
        payload.push(0);
        assert!(matches!(
            decode_payload::<Request>(&payload),
            Err(ServiceError::Protocol(_))
        ));
    }
}
