//! Chaos-driven load generator for the serve path.
//!
//! One OS thread per connection, each multiplexing many logical
//! sessions (HELLO registers the count) and pipelining transactions up
//! to a window. The workload is a pure function of the seed (objects
//! and read/write mix drawn with `splitmix64`), and network chaos is
//! applied **client-side** from a keyed-hash
//! [`NetChaosPlan`](semcluster_faults::NetChaosPlan): the plan decides
//! per frame whether to deliver, drop the connection, stall, half-close,
//! trickle bytes one at a time (slow-loris), or send a corrupt frame
//! the server must reject as malformed. The server's ACID verdict at
//! drain is what makes this chaos meaningful: whatever the client does
//! to the transport, every acked transaction must have been forced.

use std::io::Write as _;
use std::net::{Shutdown as SockShutdown, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use semcluster_faults::{splitmix64, NetAction, NetChaosConfig, NetChaosPlan};

use super::protocol::{read_frame, Frame, Request, Response, TxnOp, TxnRequest};
use super::{spawn, ServeError};

/// Load-generator configuration.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Server address (`host:port`).
    pub addr: String,
    /// Client connections (one thread each).
    pub connections: u32,
    /// Logical sessions multiplexed per connection.
    pub sessions_per_conn: u32,
    /// Transactions issued per session.
    pub txns_per_session: u32,
    /// Operations per transaction.
    pub ops_per_txn: u16,
    /// Percentage of operations that are writes.
    pub write_pct: u32,
    /// Object-id space to draw operations from.
    pub objects: u32,
    /// Per-request deadline sent with each TXN (0 = server default).
    pub deadline_ms: u32,
    /// Seed for the workload and the chaos plan.
    pub seed: u64,
    /// Network chaos preset applied client-side.
    pub chaos: NetChaosConfig,
    /// Max in-flight transactions per connection.
    pub pipeline: u32,
    /// Send a SHUTDOWN frame (on connection 0) once every connection
    /// has drained its replies.
    pub shutdown_after: bool,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            addr: "127.0.0.1:7489".into(),
            connections: 8,
            sessions_per_conn: 64,
            txns_per_session: 4,
            ops_per_txn: 4,
            write_pct: 50,
            objects: 4_096,
            deadline_ms: 2_000,
            seed: 1989,
            chaos: NetChaosConfig::none(),
            pipeline: 32,
            shutdown_after: false,
        }
    }
}

/// Aggregated outcome of one load run.
#[derive(Debug, Clone, Default)]
pub struct LoadSummary {
    /// Logical sessions registered (connections × sessions).
    pub sessions: u64,
    /// Transactions sent.
    pub attempted: u64,
    /// Transactions acknowledged committed.
    pub acked: u64,
    /// Typed overload rejections received.
    pub rejected_overloaded: u64,
    /// Typed deadline rejections received.
    pub rejected_deadline: u64,
    /// Typed shutting-down rejections received.
    pub rejected_shutdown: u64,
    /// Typed retry-exhausted rejections received.
    pub rejected_retry: u64,
    /// Typed malformed rejections received (corrupt-frame chaos).
    pub rejected_malformed: u64,
    /// Transactions with no reply (dropped/half-closed connections).
    pub lost: u64,
    /// Reconnects performed after chaos tore a connection down.
    pub reconnects: u64,
    /// Chaos events: connections dropped mid-stream.
    pub chaos_drops: u64,
    /// Chaos events: frames stalled before sending.
    pub chaos_stalls: u64,
    /// Chaos events: write side half-closed.
    pub chaos_half_closes: u64,
    /// Chaos events: frames trickled byte-by-byte.
    pub chaos_trickles: u64,
    /// Chaos events: corrupt frames sent.
    pub chaos_corrupts: u64,
    /// Wall-clock duration of the run, in milliseconds.
    pub elapsed_ms: u64,
    /// Sessions fully completed per wall-clock second.
    pub sessions_per_sec: f64,
    /// Mean acked-transaction latency, in milliseconds.
    pub mean_ms: f64,
    /// Median acked-transaction latency, in milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile acked-transaction latency, in milliseconds.
    pub p99_ms: f64,
}

impl LoadSummary {
    /// Canonical JSON (stable field order).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"sessions\": {},\n", self.sessions));
        out.push_str(&format!("  \"attempted\": {},\n", self.attempted));
        out.push_str(&format!("  \"acked\": {},\n", self.acked));
        out.push_str(&format!(
            "  \"rejected_overloaded\": {},\n",
            self.rejected_overloaded
        ));
        out.push_str(&format!(
            "  \"rejected_deadline\": {},\n",
            self.rejected_deadline
        ));
        out.push_str(&format!(
            "  \"rejected_shutdown\": {},\n",
            self.rejected_shutdown
        ));
        out.push_str(&format!("  \"rejected_retry\": {},\n", self.rejected_retry));
        out.push_str(&format!(
            "  \"rejected_malformed\": {},\n",
            self.rejected_malformed
        ));
        out.push_str(&format!("  \"lost\": {},\n", self.lost));
        out.push_str(&format!("  \"reconnects\": {},\n", self.reconnects));
        out.push_str(&format!("  \"chaos_drops\": {},\n", self.chaos_drops));
        out.push_str(&format!("  \"chaos_stalls\": {},\n", self.chaos_stalls));
        out.push_str(&format!(
            "  \"chaos_half_closes\": {},\n",
            self.chaos_half_closes
        ));
        out.push_str(&format!("  \"chaos_trickles\": {},\n", self.chaos_trickles));
        out.push_str(&format!("  \"chaos_corrupts\": {},\n", self.chaos_corrupts));
        out.push_str(&format!("  \"elapsed_ms\": {},\n", self.elapsed_ms));
        out.push_str(&format!(
            "  \"sessions_per_sec\": {:.2},\n",
            self.sessions_per_sec
        ));
        out.push_str(&format!(
            "  \"mean_response_s\": {:.6},\n",
            self.mean_ms / 1e3
        ));
        out.push_str(&format!("  \"p50_ms\": {:.3},\n", self.p50_ms));
        out.push_str(&format!("  \"p99_ms\": {:.3}\n", self.p99_ms));
        out.push_str("}\n");
        out
    }
}

/// Deterministic operation list for transaction `idx` of connection
/// `conn` — a pure function of the seed, like every fault plan.
fn gen_ops(cfg: &LoadConfig, conn: u32, idx: u64) -> Vec<TxnOp> {
    let base = splitmix64(
        cfg.seed ^ 0x10AD_C0DE_u64 ^ (u64::from(conn) << 40) ^ idx.wrapping_mul(0x9E37_79B9),
    );
    (0..cfg.ops_per_txn)
        .map(|k| {
            let h = splitmix64(base.wrapping_add(u64::from(k)));
            TxnOp {
                write: h % 100 < u64::from(cfg.write_pct),
                object: ((h >> 32) as u32) % cfg.objects.max(1),
            }
        })
        .collect()
}

struct ConnOutcome {
    summary: LoadSummary,
    latencies_us: Vec<u64>,
    completed_sessions: u64,
}

struct Pending {
    session: u32,
    client_txn: u64,
    sent_at: Instant,
}

struct ClientConn {
    stream: TcpStream,
    first_session: u32,
}

fn connect(addr: &str, sessions: u32) -> Result<ClientConn, ServeError> {
    let stream =
        TcpStream::connect(addr).map_err(|e| ServeError::net(format!("connect {addr}"), &e))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| ServeError::net("set_read_timeout", &e))?;
    stream.set_nodelay(true).ok();
    let mut stream = stream;
    let hello = Request::Hello { sessions }.encode();
    stream
        .write_all(&hello.encode())
        .map_err(|e| ServeError::net("send HELLO", &e))?;
    let frame = read_frame(&mut stream)
        .map_err(|e| ServeError::net("read HELLO reply", &e))?
        .ok_or_else(|| ServeError::Net {
            context: "read HELLO reply".into(),
            source: "connection closed".into(),
        })?;
    match Response::parse(&frame)? {
        Response::HelloOk { first_session } => Ok(ClientConn {
            stream,
            first_session,
        }),
        other => Err(ServeError::Internal(format!(
            "unexpected HELLO reply: {other:?}"
        ))),
    }
}

/// Read replies until fewer than `target` transactions are pending.
/// Returns `false` when the connection died (pending become lost).
fn drain_replies(
    conn: &mut ClientConn,
    pending: &mut Vec<Pending>,
    target: usize,
    out: &mut ConnOutcome,
) -> bool {
    while pending.len() > target {
        let frame = match read_frame(&mut conn.stream) {
            Ok(Some(frame)) => frame,
            Ok(None) | Err(_) => {
                out.summary.lost += pending.len() as u64;
                pending.clear();
                return false;
            }
        };
        let resp = match Response::parse(&frame) {
            Ok(resp) => resp,
            Err(_) => continue,
        };
        let (session, client_txn, result) = match resp {
            Response::TxnOk {
                session,
                client_txn,
                ..
            } => (session, client_txn, Ok(())),
            Response::Error {
                kind,
                session,
                client_txn,
                ..
            } => (session, client_txn, Err(kind)),
            _ => continue,
        };
        let Some(pos) = pending
            .iter()
            .position(|p| p.session == session && p.client_txn == client_txn)
        else {
            // Connection-level malformed rejection (corrupt chaos):
            // count it; the server closes right after.
            if matches!(result, Err(super::protocol::ErrorKind::Malformed)) {
                out.summary.rejected_malformed += 1;
            }
            continue;
        };
        let p = pending.swap_remove(pos);
        match result {
            Ok(()) => {
                out.summary.acked += 1;
                out.latencies_us
                    .push(p.sent_at.elapsed().as_micros() as u64);
            }
            Err(kind) => {
                use super::protocol::ErrorKind::*;
                match kind {
                    Overloaded => out.summary.rejected_overloaded += 1,
                    DeadlineExceeded => out.summary.rejected_deadline += 1,
                    ShuttingDown => out.summary.rejected_shutdown += 1,
                    RetryExhausted => out.summary.rejected_retry += 1,
                    Malformed => out.summary.rejected_malformed += 1,
                    Internal => out.summary.lost += 1,
                }
            }
        }
    }
    true
}

/// One connection's whole life: its share of the load, then the
/// farewell. With `shutdown_after`, "after the load completes" means the
/// whole load: every connection arrives at a second rendezvous once its
/// replies are drained (or it has failed — [`drive_load`]'s early
/// returns land here too, so one failed worker cannot strand the rest),
/// and only then does connection 0 start the server's drain. Sent any
/// earlier, the drain closes peers that still have work and their
/// reconnects meet a listener that has stopped accepting.
fn conn_worker(
    cfg: &LoadConfig,
    conn_id: u32,
    rendezvous: &std::sync::Barrier,
) -> Result<ConnOutcome, ServeError> {
    let mut out = ConnOutcome {
        summary: LoadSummary::default(),
        latencies_us: Vec::new(),
        completed_sessions: 0,
    };
    let conn = drive_load(cfg, conn_id, rendezvous, &mut out);
    if cfg.shutdown_after {
        rendezvous.wait();
    }
    let mut conn = conn?;
    let farewell = if cfg.shutdown_after && conn_id == 0 {
        Request::Shutdown
    } else {
        Request::Bye
    };
    let _ = conn.stream.write_all(&farewell.encode().encode());
    let _ = read_frame(&mut conn.stream);
    // A session counts as completed when it is not missing any reply —
    // approximate by scaling sessions by the replied fraction.
    let replied = out.summary.attempted - out.summary.lost.min(out.summary.attempted);
    out.completed_sessions = (u64::from(cfg.sessions_per_conn) * replied)
        .checked_div(out.summary.attempted)
        .unwrap_or(0);
    Ok(out)
}

/// Connect, send this connection's transactions under the chaos plan
/// and drain their replies; returns the connection still open.
#[allow(clippy::too_many_lines)]
fn drive_load(
    cfg: &LoadConfig,
    conn_id: u32,
    rendezvous: &std::sync::Barrier,
    out: &mut ConnOutcome,
) -> Result<ClientConn, ServeError> {
    let plan = NetChaosPlan::new(cfg.seed, cfg.chaos);
    // Rendezvous: every connection registers its sessions (HELLO)
    // before any connection sends traffic, so the server's peak
    // session gauge reflects all configured sessions being live
    // concurrently. Reached even on a failed connect, so a partial
    // failure cannot deadlock the other workers.
    let conn = connect(&cfg.addr, cfg.sessions_per_conn);
    rendezvous.wait();
    let mut conn = conn?;
    let mut pending: Vec<Pending> = Vec::new();
    let total = u64::from(cfg.sessions_per_conn) * u64::from(cfg.txns_per_session);
    let window = cfg.pipeline.max(1) as usize;
    let reconnect = |conn: &mut ClientConn,
                     pending: &mut Vec<Pending>,
                     out: &mut ConnOutcome|
     -> Result<(), ServeError> {
        out.summary.lost += pending.len() as u64;
        pending.clear();
        out.summary.reconnects += 1;
        *conn = connect(&cfg.addr, cfg.sessions_per_conn)?;
        Ok(())
    };
    for i in 0..total {
        let session = conn.first_session + (i % u64::from(cfg.sessions_per_conn)) as u32;
        let client_txn = (u64::from(conn_id) << 32) | i;
        let txn = Request::Txn(TxnRequest {
            session,
            client_txn,
            deadline_ms: cfg.deadline_ms,
            ops: gen_ops(cfg, conn_id, i),
        })
        .encode()
        .encode();
        let action = plan.action(u64::from(conn_id), i);
        out.summary.attempted += 1;
        let send_result: std::io::Result<()> = match action {
            NetAction::Deliver => conn.stream.write_all(&txn),
            NetAction::Drop => {
                // Abrupt teardown mid-stream: everything in flight is
                // lost; reconnect and send this transaction normally.
                out.summary.chaos_drops += 1;
                let _ = conn.stream.shutdown(SockShutdown::Both);
                reconnect(&mut conn, &mut pending, out)?;
                conn.stream.write_all(&txn)
            }
            NetAction::Stall(ms) => {
                out.summary.chaos_stalls += 1;
                thread::sleep(Duration::from_millis(u64::from(ms.min(100))));
                conn.stream.write_all(&txn)
            }
            NetAction::HalfClose => {
                // Send, close our write side, drain what the server
                // still says, then reconnect.
                out.summary.chaos_half_closes += 1;
                pending.push(Pending {
                    session,
                    client_txn,
                    sent_at: Instant::now(),
                });
                let r = conn.stream.write_all(&txn);
                let _ = conn.stream.shutdown(SockShutdown::Write);
                if r.is_ok() {
                    drain_replies(&mut conn, &mut pending, 0, out);
                } else {
                    out.summary.lost += pending.len() as u64;
                    pending.clear();
                }
                reconnect(&mut conn, &mut pending, out)?;
                continue;
            }
            NetAction::Trickle => {
                // Slow-loris: the frame arrives one byte at a time; the
                // server's incremental decoder must reassemble it.
                out.summary.chaos_trickles += 1;
                let mut r = Ok(());
                for b in &txn {
                    r = conn.stream.write_all(std::slice::from_ref(b));
                    if r.is_err() {
                        break;
                    }
                    let _ = conn.stream.flush();
                }
                r
            }
            NetAction::Corrupt => {
                // A frame the protocol must reject: unknown opcode. The
                // server replies malformed and closes; this transaction
                // is never submitted.
                out.summary.chaos_corrupts += 1;
                out.summary.lost += 1;
                let junk = Frame {
                    opcode: 0x7E,
                    payload: vec![0xDE, 0xAD],
                }
                .encode();
                let _ = conn.stream.write_all(&junk);
                // Expect the malformed reply, then EOF from the server.
                drain_replies(&mut conn, &mut pending, 0, out);
                reconnect(&mut conn, &mut pending, out)?;
                continue;
            }
        };
        if send_result.is_err() {
            out.summary.lost += 1;
            reconnect(&mut conn, &mut pending, out)?;
            continue;
        }
        pending.push(Pending {
            session,
            client_txn,
            sent_at: Instant::now(),
        });
        if pending.len() >= window && !drain_replies(&mut conn, &mut pending, window - 1, out) {
            reconnect(&mut conn, &mut pending, out)?;
        }
    }
    if !drain_replies(&mut conn, &mut pending, 0, out) {
        out.summary.lost += pending.len() as u64;
    }
    Ok(conn)
}

/// Run the configured load and aggregate per-connection outcomes.
pub fn run_load(cfg: &LoadConfig) -> Result<LoadSummary, ServeError> {
    let started = Instant::now();
    let mut handles = Vec::new();
    let rendezvous = std::sync::Arc::new(std::sync::Barrier::new(cfg.connections.max(1) as usize));
    for conn_id in 0..cfg.connections.max(1) {
        let cfg = cfg.clone();
        let rendezvous = std::sync::Arc::clone(&rendezvous);
        handles.push(spawn(format!("load-conn-{conn_id}"), move || {
            conn_worker(&cfg, conn_id, &rendezvous)
        })?);
    }
    let mut summary = LoadSummary::default();
    let mut latencies: Vec<u64> = Vec::new();
    let mut completed_sessions = 0u64;
    let mut first_err: Option<ServeError> = None;
    for handle in handles {
        match handle.join() {
            Ok(Ok(out)) => {
                summary.attempted += out.summary.attempted;
                summary.acked += out.summary.acked;
                summary.rejected_overloaded += out.summary.rejected_overloaded;
                summary.rejected_deadline += out.summary.rejected_deadline;
                summary.rejected_shutdown += out.summary.rejected_shutdown;
                summary.rejected_retry += out.summary.rejected_retry;
                summary.rejected_malformed += out.summary.rejected_malformed;
                summary.lost += out.summary.lost;
                summary.reconnects += out.summary.reconnects;
                summary.chaos_drops += out.summary.chaos_drops;
                summary.chaos_stalls += out.summary.chaos_stalls;
                summary.chaos_half_closes += out.summary.chaos_half_closes;
                summary.chaos_trickles += out.summary.chaos_trickles;
                summary.chaos_corrupts += out.summary.chaos_corrupts;
                latencies.extend(out.latencies_us);
                completed_sessions += out.completed_sessions;
            }
            Ok(Err(e)) => first_err = first_err.or(Some(e)),
            Err(_) => {
                first_err =
                    first_err.or_else(|| Some(ServeError::Internal("load thread panicked".into())))
            }
        }
    }
    if let Some(e) = first_err {
        return Err(e);
    }
    summary.sessions = u64::from(cfg.connections.max(1)) * u64::from(cfg.sessions_per_conn);
    summary.elapsed_ms = started.elapsed().as_millis() as u64;
    let secs = (summary.elapsed_ms as f64 / 1e3).max(1e-6);
    summary.sessions_per_sec = completed_sessions as f64 / secs;
    latencies.sort_unstable();
    if !latencies.is_empty() {
        let n = latencies.len();
        summary.mean_ms = latencies.iter().sum::<u64>() as f64 / n as f64 / 1e3;
        summary.p50_ms = latencies[n / 2] as f64 / 1e3;
        summary.p99_ms = latencies[(n * 99 / 100).min(n - 1)] as f64 / 1e3;
    }
    Ok(summary)
}
