//! Length-prefixed wire protocol for `semclusterctl serve`.
//!
//! Every message is one frame: a little-endian `u32` length (of what
//! follows), one opcode byte, then an opcode-specific payload. The
//! framing layer is deliberately tiny and fully decodable from byte
//! slices — [`FrameDecoder`] is a pure incremental parser, so the
//! connection state machine (and its deterministic interleaving tests)
//! never touch a socket.
//!
//! Requests: HELLO (register N logical sessions on this connection),
//! TXN (execute one transaction for a session, with a per-request
//! deadline), REPORT (fetch the run report / server stats), PING, BYE
//! (close this connection), SHUTDOWN (begin server-wide graceful
//! drain), STATS (fetch a versioned live-telemetry snapshot; allowed
//! even while draining). Responses echo the request identity and carry
//! typed errors:
//! overloaded (admission control shed the request), deadline exceeded,
//! malformed frame, shutting down, retry budget exhausted.

use std::io::{Read, Write};

/// Upper bound on a frame's length field. A peer announcing more than
/// this is malformed by definition (a slow-loris defence: the server
/// never allocates a buffer the peer merely *promised* to fill).
pub const MAX_FRAME_BYTES: u32 = 64 * 1024;

/// Maximum operations one TXN frame may carry.
pub const MAX_TXN_OPS: u16 = 1024;

// Request opcodes.
pub(crate) const OP_HELLO: u8 = 0x01;
pub(crate) const OP_TXN: u8 = 0x02;
pub(crate) const OP_REPORT: u8 = 0x03;
pub(crate) const OP_BYE: u8 = 0x04;
pub(crate) const OP_SHUTDOWN: u8 = 0x05;
pub(crate) const OP_PING: u8 = 0x06;
pub(crate) const OP_STATS: u8 = 0x07;

// Response opcodes (request opcode | 0x80).
pub(crate) const OP_OK_HELLO: u8 = 0x81;
pub(crate) const OP_OK_TXN: u8 = 0x82;
pub(crate) const OP_OK_REPORT: u8 = 0x83;
pub(crate) const OP_OK_BYE: u8 = 0x84;
pub(crate) const OP_OK_SHUTDOWN: u8 = 0x85;
pub(crate) const OP_OK_PING: u8 = 0x86;
pub(crate) const OP_OK_STATS: u8 = 0x87;

// Typed error responses.
pub(crate) const OP_ERR_OVERLOADED: u8 = 0xE1;
pub(crate) const OP_ERR_DEADLINE: u8 = 0xE2;
pub(crate) const OP_ERR_MALFORMED: u8 = 0xE3;
pub(crate) const OP_ERR_SHUTTING_DOWN: u8 = 0xE4;
pub(crate) const OP_ERR_RETRY_EXHAUSTED: u8 = 0xE5;
pub(crate) const OP_ERR_INTERNAL: u8 = 0xE6;

/// One wire frame: opcode plus raw payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Opcode byte.
    pub opcode: u8,
    /// Opcode-specific payload.
    pub payload: Vec<u8>,
}

impl Frame {
    /// Encode as length-prefixed bytes ready for the wire.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(5 + self.payload.len());
        self.encode_into(&mut out);
        out
    }

    /// Append the length-prefixed bytes to `out`, so several frames can
    /// leave in one write.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        let len = (1 + self.payload.len()) as u32;
        out.extend_from_slice(&len.to_le_bytes());
        out.push(self.opcode);
        out.extend_from_slice(&self.payload);
    }
}

/// Why a frame (or its payload) was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// Length field exceeds [`MAX_FRAME_BYTES`] (or is zero).
    BadLength(u32),
    /// Opcode byte is not a known request.
    UnknownOpcode(u8),
    /// Payload did not match the opcode's schema.
    BadPayload(&'static str),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::BadLength(len) => {
                write!(f, "frame length {len} outside (0, {MAX_FRAME_BYTES}]")
            }
            ProtocolError::UnknownOpcode(op) => write!(f, "unknown opcode 0x{op:02x}"),
            ProtocolError::BadPayload(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Incremental frame parser over raw bytes — pure, socket-free.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
}

impl FrameDecoder {
    /// Empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append raw bytes from the wire.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pop the next complete frame, if one is buffered. A bad length
    /// field poisons the stream — the caller must reject the
    /// connection, since framing can no longer be trusted.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, ProtocolError> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]);
        if len == 0 || len > MAX_FRAME_BYTES {
            return Err(ProtocolError::BadLength(len));
        }
        let total = 4 + len as usize;
        if self.buf.len() < total {
            return Ok(None);
        }
        let opcode = self.buf[4];
        let payload = self.buf[5..total].to_vec();
        self.buf.drain(..total);
        Ok(Some(Frame { opcode, payload }))
    }
}

/// Blocking frame read from a stream. `Ok(None)` on clean EOF at a
/// frame boundary.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<Frame>> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ))
            }
            n => filled += n,
        }
    }
    let len = u32::from_le_bytes(len_buf);
    if len == 0 || len > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            ProtocolError::BadLength(len),
        ));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    let opcode = body[0];
    let payload = body.split_off(1);
    Ok(Some(Frame { opcode, payload }))
}

/// Blocking frame write to a stream.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> std::io::Result<()> {
    w.write_all(&frame.encode())
}

/// One operation inside a TXN request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnOp {
    /// `true` for an update (exclusive lock + WAL record), `false` for
    /// a read (shared lock).
    pub write: bool,
    /// Object the operation touches.
    pub object: u32,
}

/// A parsed TXN request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnRequest {
    /// Logical session issuing the transaction.
    pub session: u32,
    /// Client-assigned transaction id (echoed in the response).
    pub client_txn: u64,
    /// Per-request deadline in milliseconds (0 = server default).
    pub deadline_ms: u32,
    /// The operations, executed atomically.
    pub ops: Vec<TxnOp>,
}

/// A parsed request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Register `sessions` logical sessions on this connection.
    Hello {
        /// Number of sessions multiplexed over the connection.
        sessions: u32,
    },
    /// Execute one transaction.
    Txn(TxnRequest),
    /// Fetch the run report (oracle mode) / server stats (concurrent).
    Report,
    /// Close this connection.
    Bye,
    /// Begin server-wide graceful drain.
    Shutdown,
    /// Liveness probe.
    Ping,
    /// Fetch a versioned live-telemetry snapshot. Unlike TXN, this is
    /// a read-only probe that also works while the server drains.
    Stats,
}

fn take_u32(p: &[u8], at: usize) -> Result<u32, ProtocolError> {
    p.get(at..at + 4)
        .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        .ok_or(ProtocolError::BadPayload("truncated u32"))
}

fn take_u64(p: &[u8], at: usize) -> Result<u64, ProtocolError> {
    p.get(at..at + 8)
        .map(|b| u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
        .ok_or(ProtocolError::BadPayload("truncated u64"))
}

impl Request {
    /// Parse a frame into a typed request.
    pub fn parse(frame: &Frame) -> Result<Request, ProtocolError> {
        let p = &frame.payload;
        match frame.opcode {
            OP_HELLO => {
                let sessions = take_u32(p, 0)?;
                if p.len() != 4 {
                    return Err(ProtocolError::BadPayload("HELLO trailing bytes"));
                }
                if sessions == 0 {
                    return Err(ProtocolError::BadPayload("HELLO with zero sessions"));
                }
                Ok(Request::Hello { sessions })
            }
            OP_TXN => {
                let session = take_u32(p, 0)?;
                let client_txn = take_u64(p, 4)?;
                let deadline_ms = take_u32(p, 12)?;
                let n = p
                    .get(16..18)
                    .map(|b| u16::from_le_bytes([b[0], b[1]]))
                    .ok_or(ProtocolError::BadPayload("truncated op count"))?;
                if n == 0 || n > MAX_TXN_OPS {
                    return Err(ProtocolError::BadPayload("op count outside (0, max]"));
                }
                if p.len() != 18 + n as usize * 5 {
                    return Err(ProtocolError::BadPayload("TXN op list length mismatch"));
                }
                let mut ops = Vec::with_capacity(n as usize);
                for i in 0..n as usize {
                    let at = 18 + i * 5;
                    let kind = p[at];
                    if kind > 1 {
                        return Err(ProtocolError::BadPayload("unknown op kind"));
                    }
                    ops.push(TxnOp {
                        write: kind == 1,
                        object: take_u32(p, at + 1)?,
                    });
                }
                Ok(Request::Txn(TxnRequest {
                    session,
                    client_txn,
                    deadline_ms,
                    ops,
                }))
            }
            OP_REPORT => Ok(Request::Report),
            OP_BYE => Ok(Request::Bye),
            OP_SHUTDOWN => Ok(Request::Shutdown),
            OP_PING => Ok(Request::Ping),
            OP_STATS => Ok(Request::Stats),
            other => Err(ProtocolError::UnknownOpcode(other)),
        }
    }

    /// Encode as a frame.
    pub fn encode(&self) -> Frame {
        match self {
            Request::Hello { sessions } => Frame {
                opcode: OP_HELLO,
                payload: sessions.to_le_bytes().to_vec(),
            },
            Request::Txn(t) => {
                let mut payload = Vec::with_capacity(18 + t.ops.len() * 5);
                payload.extend_from_slice(&t.session.to_le_bytes());
                payload.extend_from_slice(&t.client_txn.to_le_bytes());
                payload.extend_from_slice(&t.deadline_ms.to_le_bytes());
                payload.extend_from_slice(&(t.ops.len() as u16).to_le_bytes());
                for op in &t.ops {
                    payload.push(op.write as u8);
                    payload.extend_from_slice(&op.object.to_le_bytes());
                }
                Frame {
                    opcode: OP_TXN,
                    payload,
                }
            }
            Request::Report => Frame {
                opcode: OP_REPORT,
                payload: Vec::new(),
            },
            Request::Bye => Frame {
                opcode: OP_BYE,
                payload: Vec::new(),
            },
            Request::Shutdown => Frame {
                opcode: OP_SHUTDOWN,
                payload: Vec::new(),
            },
            Request::Ping => Frame {
                opcode: OP_PING,
                payload: Vec::new(),
            },
            Request::Stats => Frame {
                opcode: OP_STATS,
                payload: Vec::new(),
            },
        }
    }
}

/// Typed error kinds a response can carry, in the order of their
/// opcodes and of the `err.*` counters in `stats::COUNTER_NAMES`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Admission control shed the request (queue saturated).
    Overloaded,
    /// The per-request deadline expired before the reply.
    DeadlineExceeded,
    /// The frame or payload violated the protocol.
    Malformed,
    /// The server is draining; no new transactions.
    ShuttingDown,
    /// Transient conflicts exhausted the retry budget.
    RetryExhausted,
    /// Unexpected server-side failure.
    Internal,
}

impl ErrorKind {
    fn opcode(self) -> u8 {
        match self {
            ErrorKind::Overloaded => OP_ERR_OVERLOADED,
            ErrorKind::DeadlineExceeded => OP_ERR_DEADLINE,
            ErrorKind::Malformed => OP_ERR_MALFORMED,
            ErrorKind::ShuttingDown => OP_ERR_SHUTTING_DOWN,
            ErrorKind::RetryExhausted => OP_ERR_RETRY_EXHAUSTED,
            ErrorKind::Internal => OP_ERR_INTERNAL,
        }
    }

    /// The kind a typed-error response opcode carries (`None` for any
    /// other opcode).
    pub(crate) fn from_opcode(opcode: u8) -> Option<ErrorKind> {
        Some(match opcode {
            OP_ERR_OVERLOADED => ErrorKind::Overloaded,
            OP_ERR_DEADLINE => ErrorKind::DeadlineExceeded,
            OP_ERR_MALFORMED => ErrorKind::Malformed,
            OP_ERR_SHUTTING_DOWN => ErrorKind::ShuttingDown,
            OP_ERR_RETRY_EXHAUSTED => ErrorKind::RetryExhausted,
            OP_ERR_INTERNAL => ErrorKind::Internal,
            _ => return None,
        })
    }

    /// Machine name (JSON field / log value).
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::DeadlineExceeded => "deadline_exceeded",
            ErrorKind::Malformed => "malformed",
            ErrorKind::ShuttingDown => "shutting_down",
            ErrorKind::RetryExhausted => "retry_exhausted",
            ErrorKind::Internal => "internal",
        }
    }
}

/// A parsed response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// HELLO accepted; sessions are `[first_session, first_session + n)`.
    HelloOk {
        /// First session id assigned to this connection.
        first_session: u32,
    },
    /// Transaction committed and durable.
    TxnOk {
        /// Echoed session id.
        session: u32,
        /// Echoed client transaction id.
        client_txn: u64,
        /// Log sequence number the commit force reached.
        commit_lsn: u64,
        /// Transactions completed so far (oracle mode: simulation
        /// progress; concurrent mode: committed count).
        completed: u64,
        /// Oracle mode only: the simulated run has reached its target.
        done: bool,
    },
    /// REPORT response; payload is the canonical report JSON.
    ReportOk {
        /// `RunReport::to_json` bytes (oracle) or server-stats JSON.
        json: String,
    },
    /// BYE accepted; the server will close after this frame.
    ByeOk,
    /// SHUTDOWN accepted; drain has begun.
    ShutdownOk,
    /// PING reply.
    PingOk,
    /// STATS response: a versioned telemetry snapshot.
    StatsOk {
        /// `STATS_SCHEMA` at capture time, so scrapers can reject
        /// incompatible servers before parsing the body.
        schema: u32,
        /// `StatsSnapshot::to_json` bytes.
        json: String,
    },
    /// Typed failure, echoing the request identity when known.
    Error {
        /// Which hardening path rejected the request.
        kind: ErrorKind,
        /// Echoed session id (0 when not a TXN failure).
        session: u32,
        /// Echoed client transaction id (0 when not a TXN failure).
        client_txn: u64,
        /// Human-readable detail.
        detail: String,
    },
}

impl Response {
    /// Encode as a frame.
    pub fn encode(&self) -> Frame {
        match self {
            Response::HelloOk { first_session } => Frame {
                opcode: OP_OK_HELLO,
                payload: first_session.to_le_bytes().to_vec(),
            },
            Response::TxnOk {
                session,
                client_txn,
                commit_lsn,
                completed,
                done,
            } => {
                let mut payload = Vec::with_capacity(29);
                payload.extend_from_slice(&session.to_le_bytes());
                payload.extend_from_slice(&client_txn.to_le_bytes());
                payload.extend_from_slice(&commit_lsn.to_le_bytes());
                payload.extend_from_slice(&completed.to_le_bytes());
                payload.push(*done as u8);
                Frame {
                    opcode: OP_OK_TXN,
                    payload,
                }
            }
            Response::ReportOk { json } => Frame {
                opcode: OP_OK_REPORT,
                payload: json.as_bytes().to_vec(),
            },
            Response::ByeOk => Frame {
                opcode: OP_OK_BYE,
                payload: Vec::new(),
            },
            Response::ShutdownOk => Frame {
                opcode: OP_OK_SHUTDOWN,
                payload: Vec::new(),
            },
            Response::PingOk => Frame {
                opcode: OP_OK_PING,
                payload: Vec::new(),
            },
            Response::StatsOk { schema, json } => {
                let mut payload = Vec::with_capacity(4 + json.len());
                payload.extend_from_slice(&schema.to_le_bytes());
                payload.extend_from_slice(json.as_bytes());
                Frame {
                    opcode: OP_OK_STATS,
                    payload,
                }
            }
            Response::Error {
                kind,
                session,
                client_txn,
                detail,
            } => {
                let mut payload = Vec::with_capacity(12 + detail.len());
                payload.extend_from_slice(&session.to_le_bytes());
                payload.extend_from_slice(&client_txn.to_le_bytes());
                payload.extend_from_slice(detail.as_bytes());
                Frame {
                    opcode: kind.opcode(),
                    payload,
                }
            }
        }
    }

    /// Parse a frame into a typed response.
    pub fn parse(frame: &Frame) -> Result<Response, ProtocolError> {
        let p = &frame.payload;
        let err = |kind| -> Result<Response, ProtocolError> {
            Ok(Response::Error {
                kind,
                session: take_u32(p, 0).unwrap_or(0),
                client_txn: take_u64(p, 4).unwrap_or(0),
                detail: String::from_utf8_lossy(p.get(12..).unwrap_or(&[])).into_owned(),
            })
        };
        match frame.opcode {
            OP_OK_HELLO => Ok(Response::HelloOk {
                first_session: take_u32(p, 0)?,
            }),
            OP_OK_TXN => Ok(Response::TxnOk {
                session: take_u32(p, 0)?,
                client_txn: take_u64(p, 4)?,
                commit_lsn: take_u64(p, 12)?,
                completed: take_u64(p, 20)?,
                done: *p
                    .get(28)
                    .ok_or(ProtocolError::BadPayload("truncated done flag"))?
                    != 0,
            }),
            OP_OK_REPORT => Ok(Response::ReportOk {
                json: String::from_utf8(p.clone())
                    .map_err(|_| ProtocolError::BadPayload("report not UTF-8"))?,
            }),
            OP_OK_BYE => Ok(Response::ByeOk),
            OP_OK_SHUTDOWN => Ok(Response::ShutdownOk),
            OP_OK_PING => Ok(Response::PingOk),
            OP_OK_STATS => Ok(Response::StatsOk {
                schema: take_u32(p, 0)?,
                json: String::from_utf8(p.get(4..).unwrap_or(&[]).to_vec())
                    .map_err(|_| ProtocolError::BadPayload("stats not UTF-8"))?,
            }),
            other => match ErrorKind::from_opcode(other) {
                Some(kind) => err(kind),
                None => Err(ProtocolError::UnknownOpcode(other)),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let reqs = vec![
            Request::Hello { sessions: 200 },
            Request::Txn(TxnRequest {
                session: 7,
                client_txn: 99,
                deadline_ms: 250,
                ops: vec![
                    TxnOp {
                        write: true,
                        object: 42,
                    },
                    TxnOp {
                        write: false,
                        object: 7,
                    },
                ],
            }),
            Request::Report,
            Request::Bye,
            Request::Shutdown,
            Request::Ping,
            Request::Stats,
        ];
        for req in reqs {
            let frame = req.encode();
            assert_eq!(Request::parse(&frame).unwrap(), req);
        }
    }

    #[test]
    fn response_roundtrip() {
        let resps = vec![
            Response::HelloOk {
                first_session: 1000,
            },
            Response::TxnOk {
                session: 3,
                client_txn: 17,
                commit_lsn: 12345,
                completed: 160,
                done: true,
            },
            Response::ReportOk {
                json: "{\"config\":\"x\"}".into(),
            },
            Response::ByeOk,
            Response::ShutdownOk,
            Response::PingOk,
            Response::StatsOk {
                schema: 1,
                json: "{\"stats_schema\":1,\n\"counters\":{}}".into(),
            },
            Response::Error {
                kind: ErrorKind::Overloaded,
                session: 3,
                client_txn: 17,
                detail: "queue full".into(),
            },
        ];
        for resp in resps {
            let frame = resp.encode();
            assert_eq!(Response::parse(&frame).unwrap(), resp);
        }
    }

    #[test]
    fn decoder_reassembles_split_frames() {
        let frame = Request::Txn(TxnRequest {
            session: 1,
            client_txn: 2,
            deadline_ms: 100,
            ops: vec![TxnOp {
                write: true,
                object: 9,
            }],
        })
        .encode();
        let bytes = frame.encode();
        let mut dec = FrameDecoder::new();
        // Feed one byte at a time — a slow-loris client.
        for (i, b) in bytes.iter().enumerate() {
            dec.push(&[*b]);
            let got = dec.next_frame().unwrap();
            if i + 1 < bytes.len() {
                assert!(got.is_none(), "frame complete too early at byte {i}");
            } else {
                assert_eq!(got.unwrap(), frame);
            }
        }
        // Two frames in one push both come out.
        dec.push(&bytes);
        dec.push(&bytes);
        assert_eq!(dec.next_frame().unwrap().unwrap(), frame);
        assert_eq!(dec.next_frame().unwrap().unwrap(), frame);
        assert!(dec.next_frame().unwrap().is_none());
    }

    #[test]
    fn oversize_and_zero_lengths_poison_the_stream() {
        let mut dec = FrameDecoder::new();
        dec.push(&(MAX_FRAME_BYTES + 1).to_le_bytes());
        assert!(matches!(dec.next_frame(), Err(ProtocolError::BadLength(_))));
        let mut dec = FrameDecoder::new();
        dec.push(&0u32.to_le_bytes());
        assert!(matches!(dec.next_frame(), Err(ProtocolError::BadLength(0))));
    }

    #[test]
    fn malformed_payloads_are_typed_errors() {
        // TXN with a lying op count.
        let mut frame = Request::Txn(TxnRequest {
            session: 1,
            client_txn: 2,
            deadline_ms: 0,
            ops: vec![TxnOp {
                write: false,
                object: 1,
            }],
        })
        .encode();
        frame.payload[16] = 9; // claim 9 ops, carry 1
        assert!(Request::parse(&frame).is_err());
        // Unknown opcode.
        let junk = Frame {
            opcode: 0x7F,
            payload: vec![],
        };
        assert!(matches!(
            Request::parse(&junk),
            Err(ProtocolError::UnknownOpcode(0x7F))
        ));
        // HELLO with zero sessions.
        let hello = Frame {
            opcode: OP_HELLO,
            payload: 0u32.to_le_bytes().to_vec(),
        };
        assert!(Request::parse(&hello).is_err());
    }

    #[test]
    fn stream_io_roundtrip() {
        let frame = Request::Ping.encode();
        let mut wire = Vec::new();
        write_frame(&mut wire, &frame).unwrap();
        let mut cursor = &wire[..];
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), frame);
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
    }
}
