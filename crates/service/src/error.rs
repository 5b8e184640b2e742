//! Error type shared by the daemon, the client library, and the CLI.

use arbodom_congest::WireError;
use std::fmt;

/// Anything that can go wrong talking to (or inside) `arbodomd`.
#[derive(Debug)]
pub enum ServiceError {
    /// An underlying socket or file error.
    Io(std::io::Error),
    /// A malformed message payload.
    Wire(WireError),
    /// A well-formed frame that violates the protocol state machine
    /// (trailing bytes, unexpected response kind, …).
    Protocol(String),
    /// An error the server reported for the whole connection.
    Remote(String),
    /// A frame header declared a payload above
    /// [`crate::protocol::MAX_FRAME_LEN`].
    FrameTooLarge(u64),
    /// The server does not speak the version byte a frame carried, and
    /// closed the connection (typed counterpart of
    /// [`crate::protocol::Response::UnsupportedVersion`]).
    UnsupportedVersion {
        /// The version byte the client sent.
        got: u8,
        /// Oldest version the server speaks.
        min: u8,
        /// Newest version the server speaks.
        max: u8,
    },
    /// Admission control shed the request and the client's retry budget
    /// is exhausted (typed counterpart of
    /// [`crate::protocol::Response::Overloaded`]).
    Overloaded {
        /// The server's suggested backoff before retrying, in
        /// milliseconds.
        retry_after_ms: u64,
        /// Admitted-but-unfinished jobs at shed time.
        queue_depth: u64,
    },
    /// The peer closed the connection cleanly between frames.
    Closed,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Io(e) => write!(f, "i/o error: {e}"),
            ServiceError::Wire(e) => write!(f, "wire error: {e}"),
            ServiceError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ServiceError::Remote(msg) => write!(f, "server error: {msg}"),
            ServiceError::FrameTooLarge(len) => write!(f, "frame too large: {len} bytes"),
            ServiceError::UnsupportedVersion { got, min, max } => write!(
                f,
                "unsupported protocol version {got} (server speaks {min}..={max})"
            ),
            ServiceError::Overloaded {
                retry_after_ms,
                queue_depth,
            } => write!(
                f,
                "server overloaded (queue depth {queue_depth}, retry after {retry_after_ms} ms)"
            ),
            ServiceError::Closed => write!(f, "connection closed"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<std::io::Error> for ServiceError {
    fn from(e: std::io::Error) -> Self {
        ServiceError::Io(e)
    }
}

impl From<WireError> for ServiceError {
    fn from(e: WireError) -> Self {
        ServiceError::Wire(e)
    }
}
