//! The benchmark's own load generator: generated transactions and the
//! closed-loop client that sends them. It is benchmark code on purpose
//! (not `serve::run_load`), so it is identical on both sides of any
//! later comparison.

use semcluster::serve::{read_frame, write_frame, ErrorKind, Request, Response, TxnOp, TxnRequest};
use semcluster_faults::splitmix64;
use std::io::BufReader;
use std::net::TcpStream;
use std::time::Instant;

pub const OPS_PER_TXN: usize = 4;
/// Outstanding transactions per connection: each is one interactive
/// user (one session) waiting for its reply before it asks again.
pub const WINDOW: usize = 8;
/// A scheduler hiccup on a shared box is a slow sample, not a failure.
pub const DEADLINE_MS: u32 = 5_000;
/// Sends of one logical transaction before the client gives it up.
pub const MAX_ATTEMPTS: u32 = 64;

pub type Ops = [TxnOp; OPS_PER_TXN];

/// The transactions connection `conn` sends in one round: a pure
/// function of the seed, so every round of a run replays the same list.
pub fn generate_ops(seed: u64, conn: usize, txns: usize, objects: u32, write_pct: u32) -> Vec<Ops> {
    let mut state = splitmix64(seed ^ (conn as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut next = || {
        state = splitmix64(state);
        state
    };
    (0..txns)
        .map(|_| {
            std::array::from_fn(|_| {
                let r = next();
                TxnOp {
                    write: (r >> 32) % 100 < u64::from(write_pct),
                    object: (r as u32) % objects.max(1),
                }
            })
        })
        .collect()
}

/// One send the socket loop must perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Send {
    pub session: u32,
    pub client_txn: u64,
    /// Index into the connection's generated transaction list.
    pub logical: usize,
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    send: Send,
    first_send_ns: u64,
    attempts: u32,
}

/// A reply as the client state machine sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reply {
    Ack {
        session: u32,
        client_txn: u64,
    },
    Refused {
        session: u32,
        client_txn: u64,
        kind: ErrorKind,
    },
}

/// One acknowledged logical transaction, kept by the traced run to match
/// against the server's record of the same `(session, client_txn)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Acked {
    pub session: u32,
    /// Id of the attempt the server acknowledged.
    pub client_txn: u64,
    pub first_send_ns: u64,
    pub ack_ns: u64,
}

#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ClientStats {
    pub acked: u64,
    /// Acknowledged transactions that carried at least one update.
    pub acked_writes: u64,
    /// Logical transactions given up: a terminal typed error or
    /// [`MAX_ATTEMPTS`] refusals.
    pub failed: u64,
    /// Re-sends of a logical transaction after a retryable refusal.
    pub retries: u64,
    pub frames_sent: u64,
    pub overloaded_replies: u64,
    /// Replies that matched no outstanding `(session, client_txn)`.
    pub unmatched: u64,
    /// When the last acknowledgement arrived.
    pub last_ack_ns: u64,
    /// First send → ack of every acknowledged logical transaction.
    pub latencies_ns: Vec<u64>,
    pub acks: Vec<Acked>,
}

/// The closed loop of one connection, free of sockets and clocks: the
/// caller passes replies and timestamps in and performs the sends that
/// come out. OVERLOADED and RETRY_EXHAUSTED are transient by their
/// definition, so the same logical transaction is sent again under a
/// fresh `client_txn` and stays timed from its first send.
pub struct ClosedLoop {
    first_session: u32,
    total: usize,
    next_logical: usize,
    next_client_txn: u64,
    outstanding: Vec<Pending>,
    keep_acks: bool,
    pub stats: ClientStats,
}

impl ClosedLoop {
    pub fn new(first_session: u32, total: usize, keep_acks: bool) -> Self {
        ClosedLoop {
            first_session,
            total,
            next_logical: 0,
            next_client_txn: 1,
            outstanding: Vec::with_capacity(WINDOW),
            keep_acks,
            stats: ClientStats {
                latencies_ns: Vec::with_capacity(total),
                ..ClientStats::default()
            },
        }
    }

    pub fn done(&self) -> bool {
        self.outstanding.is_empty() && self.next_logical >= self.total
    }

    fn issue(&mut self, session: u32, logical: usize, first_send_ns: u64, attempts: u32) -> Send {
        let send = Send {
            session,
            client_txn: self.next_client_txn,
            logical,
        };
        self.next_client_txn += 1;
        self.stats.frames_sent += 1;
        self.outstanding.push(Pending {
            send,
            first_send_ns,
            attempts,
        });
        send
    }

    fn issue_next(&mut self, session: u32, now_ns: u64) -> Option<Send> {
        (self.next_logical < self.total).then(|| {
            let logical = self.next_logical;
            self.next_logical += 1;
            self.issue(session, logical, now_ns, 1)
        })
    }

    /// Fill the window: one transaction per session.
    pub fn start(&mut self, now_ns: u64) -> Vec<Send> {
        (0..WINDOW as u32)
            .filter_map(|slot| self.issue_next(self.first_session + slot, now_ns))
            .collect()
    }

    /// Account one reply; returns the send that keeps the window full.
    /// `has_write` tells whether logical transaction `i` updates.
    pub fn on_reply(
        &mut self,
        reply: Reply,
        now_ns: u64,
        has_write: impl Fn(usize) -> bool,
    ) -> Option<Send> {
        let (session, client_txn) = match reply {
            Reply::Ack {
                session,
                client_txn,
            }
            | Reply::Refused {
                session,
                client_txn,
                ..
            } => (session, client_txn),
        };
        let Some(pos) = self
            .outstanding
            .iter()
            .position(|p| p.send.session == session && p.send.client_txn == client_txn)
        else {
            self.stats.unmatched += 1;
            return None;
        };
        let p = self.outstanding.swap_remove(pos);
        match reply {
            Reply::Ack { .. } => {
                self.stats.acked += 1;
                self.stats.acked_writes += u64::from(has_write(p.send.logical));
                self.stats.last_ack_ns = now_ns;
                self.stats.latencies_ns.push(now_ns - p.first_send_ns);
                if self.keep_acks {
                    self.stats.acks.push(Acked {
                        session,
                        client_txn,
                        first_send_ns: p.first_send_ns,
                        ack_ns: now_ns,
                    });
                }
                self.issue_next(session, now_ns)
            }
            Reply::Refused { kind, .. } => {
                self.stats.overloaded_replies += u64::from(kind == ErrorKind::Overloaded);
                let retryable = matches!(kind, ErrorKind::Overloaded | ErrorKind::RetryExhausted);
                if retryable && p.attempts < MAX_ATTEMPTS {
                    self.stats.retries += 1;
                    Some(self.issue(session, p.send.logical, p.first_send_ns, p.attempts + 1))
                } else {
                    self.stats.failed += 1;
                    self.issue_next(session, now_ns)
                }
            }
        }
    }
}

/// Connect and register [`WINDOW`] sessions; returns the stream and the
/// first session id the server assigned.
pub fn connect(addr: std::net::SocketAddr) -> Result<(TcpStream, u32), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("set_nodelay: {e}"))?;
    let hello = Request::Hello {
        sessions: WINDOW as u32,
    };
    write_frame(&mut stream, &hello.encode()).map_err(|e| format!("send HELLO: {e}"))?;
    let frame = read_frame(&mut stream)
        .map_err(|e| format!("read HELLO reply: {e}"))?
        .ok_or("connection closed before HELLO reply")?;
    match Response::parse(&frame) {
        Ok(Response::HelloOk { first_session }) => Ok((stream, first_session)),
        other => Err(format!("unexpected HELLO reply: {other:?}")),
    }
}

/// Drive one connection's closed loop over its socket until every
/// logical transaction is acknowledged or given up, then say BYE.
/// Timestamps are nanoseconds since `origin`, shared by all connections.
pub fn run_connection(
    stream: TcpStream,
    first_session: u32,
    ops: &[Ops],
    origin: Instant,
    keep_acks: bool,
) -> Result<ClientStats, String> {
    let mut writer = stream
        .try_clone()
        .map_err(|e| format!("clone stream: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut client = ClosedLoop::new(first_session, ops.len(), keep_acks);
    let now_ns = || origin.elapsed().as_nanos() as u64;
    let transmit = |writer: &mut TcpStream, send: Send| {
        let request = Request::Txn(TxnRequest {
            session: send.session,
            client_txn: send.client_txn,
            deadline_ms: DEADLINE_MS,
            ops: ops[send.logical].to_vec(),
        });
        write_frame(writer, &request.encode()).map_err(|e| format!("send TXN: {e}"))
    };
    for send in client.start(now_ns()) {
        transmit(&mut writer, send)?;
    }
    while !client.done() {
        let frame = read_frame(&mut reader)
            .map_err(|e| format!("read reply: {e}"))?
            .ok_or("server closed the connection with transactions outstanding")?;
        let reply = match Response::parse(&frame) {
            Ok(Response::TxnOk {
                session,
                client_txn,
                ..
            }) => Reply::Ack {
                session,
                client_txn,
            },
            Ok(Response::Error {
                kind,
                session,
                client_txn,
                ..
            }) => Reply::Refused {
                session,
                client_txn,
                kind,
            },
            other => return Err(format!("unexpected reply: {other:?}")),
        };
        let has_write = |i: usize| ops[i].iter().any(|op| op.write);
        if let Some(send) = client.on_reply(reply, now_ns(), has_write) {
            transmit(&mut writer, send)?;
        }
    }
    write_frame(&mut writer, &Request::Bye.encode()).map_err(|e| format!("send BYE: {e}"))?;
    // ByeOk or EOF: either way the server has seen the BYE.
    let _ = read_frame(&mut reader);
    Ok(client.stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_lists_are_a_pure_function_of_the_seed() {
        let a = generate_ops(1989, 0, 500, 4096, 25);
        assert_eq!(a, generate_ops(1989, 0, 500, 4096, 25));
        assert_ne!(a, generate_ops(1990, 0, 500, 4096, 25));
        assert_ne!(a, generate_ops(1989, 1, 500, 4096, 25));
        let writes = a.iter().flatten().filter(|op| op.write).count();
        assert!((400..600).contains(&writes), "{writes} of 2000 ops write");
        assert!(a.iter().flatten().all(|op| op.object < 4096));
        let reads = generate_ops(1989, 0, 500, 16, 0);
        assert!(reads.iter().flatten().all(|op| !op.write && op.object < 16));
    }

    #[test]
    fn refused_twice_then_acked_is_one_op_one_sample_two_retries() {
        let mut c = ClosedLoop::new(100, 1, true);
        let first = c.start(1_000);
        assert_eq!(first.len(), 1);
        let s1 = first[0];
        assert_eq!((s1.session, s1.client_txn, s1.logical), (100, 1, 0));
        let refuse = |s: Send| Reply::Refused {
            session: s.session,
            client_txn: s.client_txn,
            kind: ErrorKind::Overloaded,
        };
        let s2 = c.on_reply(refuse(s1), 2_000, |_| true).unwrap();
        assert_eq!((s2.logical, s2.client_txn), (0, 2));
        let s3 = c.on_reply(refuse(s2), 3_000, |_| true).unwrap();
        assert_eq!((s3.logical, s3.client_txn), (0, 3));
        // A reply for the superseded attempt matches nothing.
        assert_eq!(c.on_reply(refuse(s1), 3_500, |_| true), None);
        let ack = Reply::Ack {
            session: s3.session,
            client_txn: s3.client_txn,
        };
        assert_eq!(c.on_reply(ack, 9_000, |_| true), None);
        assert!(c.done());
        let st = &c.stats;
        assert_eq!(
            (st.acked, st.acked_writes, st.failed, st.retries),
            (1, 1, 0, 2)
        );
        assert_eq!(
            (st.frames_sent, st.overloaded_replies, st.unmatched),
            (3, 2, 1)
        );
        // Timed from the first send, not the acknowledged attempt.
        assert_eq!(st.latencies_ns, vec![8_000]);
        assert_eq!(st.acks[0].client_txn, 3);
    }

    #[test]
    fn terminal_errors_and_exhausted_attempts_fail_the_transaction() {
        let mut c = ClosedLoop::new(1, 2, false);
        let sends = c.start(0);
        assert_eq!(sends.len(), 2);
        let deadline = Reply::Refused {
            session: sends[0].session,
            client_txn: sends[0].client_txn,
            kind: ErrorKind::DeadlineExceeded,
        };
        assert_eq!(c.on_reply(deadline, 10, |_| false), None);
        let mut send = sends[1];
        for _ in 1..MAX_ATTEMPTS {
            let refused = Reply::Refused {
                session: send.session,
                client_txn: send.client_txn,
                kind: ErrorKind::RetryExhausted,
            };
            send = c.on_reply(refused, 20, |_| false).unwrap();
        }
        let last = Reply::Refused {
            session: send.session,
            client_txn: send.client_txn,
            kind: ErrorKind::RetryExhausted,
        };
        assert_eq!(c.on_reply(last, 30, |_| false), None);
        assert!(c.done());
        assert_eq!((c.stats.acked, c.stats.failed), (0, 2));
        assert_eq!(c.stats.retries, u64::from(MAX_ATTEMPTS) - 1);
        assert!(c.stats.latencies_ns.is_empty());
    }
}
