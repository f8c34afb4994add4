//! The three `serve_*` workloads: a fresh concurrent-mode server per
//! round on a loopback port, driven closed-loop by one thread per
//! connection.

use crate::client::{self, Acked, ClientStats, Ops};
use crate::host::{self, CLIENT_THREADS, SERVER_WORKERS};
use crate::metrics::{MetricSet, RunResult, END_TO_END, PER_LAYER};
use crate::probes;
use crate::stats::{median_of as med, p50_p99, p50_p99_us};
use crate::trace::{self_times, Span, TraceFile};
use crate::workloads::{repeat_rounds, RunArgs, ServeSpec, Workload, MIN_ROUNDS};
use semcluster::serve::{RequestTraceRecord, ServeConfig, ServeMode, ServeReport, Server};
use semcluster_buffer::ReplacementPolicy;
use std::collections::HashMap;
use std::time::Instant;

fn server_config(spec: &ServeSpec, traced: bool) -> ServeConfig {
    ServeConfig {
        mode: ServeMode::Concurrent,
        workers: SERVER_WORKERS,
        default_deadline_ms: client::DEADLINE_MS,
        objects: spec.objects,
        trace_requests: if traced { usize::MAX } else { 0 },
        ..ServeConfig::default()
    }
}

/// One fresh server driven through the workload's generated input.
struct Round {
    setup_s: f64,
    start_ms: f64,
    drain_ms: f64,
    /// Clients released → last ack on any connection.
    wall_ns: u64,
    cpu_ms: u64,
    /// Logical transactions the clients set out to run.
    attempted: u64,
    /// Median and 99th percentile of first send → ack over every
    /// acknowledged transaction of the round, in microseconds.
    p50_us: f64,
    p99_us: f64,
    clients: Vec<ClientStats>,
    report: ServeReport,
}

impl Round {
    fn sum(&self, f: impl Fn(&ClientStats) -> u64) -> u64 {
        self.clients.iter().map(f).sum()
    }

    fn acked(&self) -> u64 {
        self.sum(|c| c.acked)
    }

    fn txn_per_s(&self) -> f64 {
        self.acked() as f64 / (self.wall_ns as f64 / 1e9)
    }
}

fn run_round(spec: &ServeSpec, inputs: &[Vec<Ops>], traced: bool) -> Result<Round, String> {
    let setup_start = Instant::now();
    let handle = Server::start(server_config(spec, traced), "127.0.0.1:0")
        .map_err(|e| format!("server start: {e}"))?;
    let start_ms = setup_start.elapsed().as_secs_f64() * 1e3;
    let mut conns = Vec::with_capacity(inputs.len());
    for _ in inputs {
        conns.push(client::connect(handle.addr())?);
    }
    let setup_s = setup_start.elapsed().as_secs_f64();

    let origin = Instant::now();
    let cpu0 = host::process_cpu_ms();
    let results: Vec<Result<ClientStats, String>> = std::thread::scope(|scope| {
        let threads: Vec<_> = conns
            .into_iter()
            .zip(inputs)
            .map(|((stream, first_session), ops)| {
                scope.spawn(move || {
                    client::run_connection(stream, first_session, ops, origin, traced)
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| {
                t.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let cpu_ms = host::process_cpu_ms() - cpu0;

    let drain_start = Instant::now();
    handle.request_shutdown();
    let report = handle.join().map_err(|e| format!("server join: {e}"))?;
    let drain_ms = drain_start.elapsed().as_secs_f64() * 1e3;

    let mut clients = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    // The samples are folded into the round's percentiles and dropped,
    // so a run's memory does not grow with the rounds it makes.
    let mut latencies: Vec<u64> = clients
        .iter_mut()
        .flat_map(|c| std::mem::take(&mut c.latencies_ns))
        .collect();
    let (p50_us, p99_us) = p50_p99_us(&mut latencies);
    let wall_ns = clients
        .iter()
        .map(|c| c.last_ack_ns)
        .max()
        .unwrap_or(0)
        .max(1);
    Ok(Round {
        setup_s,
        start_ms,
        drain_ms,
        wall_ns,
        cpu_ms,
        attempted: inputs.iter().map(|ops| ops.len() as u64).sum(),
        p50_us,
        p99_us,
        clients,
        report,
    })
}

fn run_rounds(
    spec: &ServeSpec,
    inputs: &[Vec<Ops>],
    seconds: f64,
    min_rounds: usize,
    traced: bool,
    rounds: &mut Vec<Round>,
) -> Result<(), String> {
    repeat_rounds(
        rounds,
        seconds,
        min_rounds,
        |r| r.wall_ns as f64 / 1e9,
        |_| run_round(spec, inputs, traced),
    )
}

/// Output checks over every round; returns what failed and how many
/// logical transactions were never acknowledged.
fn check(rounds: &[Round]) -> (Vec<String>, u64) {
    let mut problems = Vec::new();
    let mut failed = 0;
    for (i, r) in rounds.iter().enumerate() {
        let mut expect = |ok: bool, what: String| {
            if !ok {
                problems.push(format!("round {i}: {what}"));
            }
        };
        let acked = r.acked();
        let given_up = r.sum(|c| c.failed);
        failed += r.attempted - acked;
        expect(
            acked + given_up == r.attempted,
            format!(
                "{acked} acked + {given_up} failed of {} attempted",
                r.attempted
            ),
        );
        expect(
            r.report.acid_violations == 0,
            format!(
                "{} acked transactions not durable",
                r.report.acid_violations
            ),
        );
        expect(r.report.clean_drain, "server did not drain cleanly".into());
        let txn_ok = r.report.stats.counter("txn_ok");
        expect(
            txn_ok == acked,
            format!("server wrote {txn_ok} TXN_OK, clients counted {acked}"),
        );
        let acked_writes = r.sum(|c| c.acked_writes);
        expect(
            r.report.acked == acked_writes,
            format!(
                "server acked {} durable commits, clients counted {acked_writes}",
                r.report.acked
            ),
        );
        let unmatched = r.sum(|c| c.unmatched);
        expect(
            unmatched == 0,
            format!("{unmatched} replies matched no outstanding (session, client_txn)"),
        );
        // The five spans partition the service time with no residual.
        let sum_of = |phase: &str| r.report.stats.latency(phase).map_or(0, |h| h.sum_us);
        let parts: u64 = [
            "admission_wait",
            "lock_wait",
            "engine_exec",
            "commit_wait",
            "reply_write",
        ]
        .iter()
        .map(|p| sum_of(p))
        .sum();
        expect(
            parts == sum_of("total"),
            format!(
                "server spans sum to {parts} us, total is {} us",
                sum_of("total")
            ),
        );
    }
    (problems, failed)
}

fn inputs(spec: &ServeSpec, args: &RunArgs) -> Vec<Vec<Ops>> {
    let txns = args.scaled(spec.txns_per_conn as u64) as usize;
    (0..CLIENT_THREADS)
        .map(|conn| client::generate_ops(args.seed, conn, txns, spec.objects, spec.write_pct))
        .collect()
}

/// `--trace 0`: the end-to-end numbers, request tracing off.
pub fn run_timed(spec: &ServeSpec, args: &RunArgs) -> Result<RunResult, String> {
    let inputs = inputs(spec, args);
    let mut rounds = Vec::new();
    run_rounds(spec, &inputs, args.seconds, MIN_ROUNDS, false, &mut rounds)?;
    let (problems, failed) = check(&rounds);

    let mut m = MetricSet::new(END_TO_END);
    m.set("txn_per_s", med(&rounds, Round::txn_per_s));
    m.set("p50_us", med(&rounds, |r| r.p50_us));
    m.set("p99_us", med(&rounds, |r| r.p99_us));
    m.set("setup_s", med(&rounds, |r| r.setup_s));
    m.set("peak_rss_mb", host::peak_rss_mib());
    Ok(RunResult {
        correct: problems.is_empty(),
        problems,
        attempted: rounds.iter().map(|r| r.attempted).sum(),
        failed,
        metrics: m,
    })
}

/// Offset that places the server's clock (µs since its own start) on the
/// round's clock (ns since the clients were released). A request is
/// admitted only after its client stamped the send, so every matched
/// pair bounds the offset from below, and the request with the quickest
/// way in makes that bound tight to a few microseconds. (The other end
/// gives no such bound: the server stamps its reply after the write, by
/// when the client may already hold it.)
fn server_clock_offset_ns(matched: &[(Acked, RequestTraceRecord)]) -> i64 {
    matched
        .iter()
        .map(|(ack, rec)| ack.first_send_ns as i64 - (rec.start_us * 1000) as i64)
        .max()
        .unwrap_or(0)
}

/// The trace of one traced round: each client span (first send → ack)
/// parents the server's five spans of the same request, so its self time
/// is what lies outside the server — the wire both ways, framing and the
/// client itself. Requests overlap (window × connections), so the layers
/// partition the *summed* client span time, not the round's wall time.
fn request_trace(
    workload: &'static str,
    seed: u64,
    round_wall_ns: u64,
    matched: &[(Acked, RequestTraceRecord)],
) -> TraceFile {
    let offset = server_clock_offset_ns(matched);
    let mut spans = vec![Span::new("round", 0, round_wall_ns, None, 0)];
    let mut layers: Vec<(String, u64)> = [
        "serve.admission",
        "lock",
        "serve.server.exec",
        "serve.commit",
        "serve.server.reply_write",
    ]
    .iter()
    .map(|layer| (layer.to_string(), 0))
    .collect();
    for (ack, rec) in matched {
        let req = (u64::from(ack.session) << 40) | ack.client_txn;
        let parent = spans.len() as u32;
        spans.push(Span::new(
            "client.txn",
            ack.first_send_ns,
            ack.ack_ns,
            Some(0),
            req,
        ));
        let mut at = (rec.start_us * 1000) as i64 + offset;
        for ((name, us), layer) in rec.spans.named().into_iter().zip(&mut layers) {
            let end = at + (us * 1000) as i64;
            spans.push(Span::new(
                name,
                at.max(0) as u64,
                end.max(0) as u64,
                Some(parent),
                req,
            ));
            layer.1 += us * 1000;
            at = end;
        }
    }
    let own = self_times(&spans);
    let outside_ns = spans
        .iter()
        .zip(own)
        .filter(|(s, _)| s.name == "client.txn")
        .map(|(_, own)| own)
        .sum();
    layers.push(("client.outside_server".to_string(), outside_ns));
    let wall_ns: u64 = matched
        .iter()
        .map(|(a, _)| a.ack_ns - a.first_send_ns)
        .sum();
    let attributed: u64 = layers.iter().map(|(_, ns)| ns).sum();
    TraceFile {
        workload,
        seed,
        wall_ns,
        unattributed_ns: wall_ns as i64 - attributed as i64,
        spans,
        layers,
    }
}

/// `--trace 1`: untraced rounds for the overhead baseline, rounds with
/// the server's per-request attribution on, then the kernel probes.
pub fn run_traced(w: &Workload, spec: &ServeSpec, args: &RunArgs) -> Result<RunResult, String> {
    let inputs = inputs(spec, args);
    let mut all = Vec::new();
    run_rounds(spec, &inputs, args.seconds / 2.0, 1, false, &mut all)?;
    let plain_rounds = all.len();
    run_rounds(spec, &inputs, args.seconds / 2.0, 1, true, &mut all)?;
    let (plain, traced) = all.split_at(plain_rounds);
    let (mut problems, failed) = check(&all);

    let mut m = MetricSet::new(PER_LAYER);
    m.set(
        "obs.trace_overhead_frac",
        1.0 - med(traced, Round::txn_per_s) / med(plain, Round::txn_per_s),
    );

    let plain_cpu_ms: u64 = plain.iter().map(|r| r.cpu_ms).sum();
    let plain_acked: u64 = plain.iter().map(Round::acked).sum();
    m.set(
        "process.cpu_ms_per_ktxn",
        plain_cpu_ms as f64 / (plain_acked.max(1) as f64 / 1e3),
    );

    // Exact-µs server spans of every traced request, pooled over rounds,
    // and each matched to the client span of the same request.
    let mut spans_us: [Vec<u64>; 6] = Default::default();
    let mut outside_ns: Vec<u64> = Vec::new();
    let mut last_matched: Vec<(Acked, RequestTraceRecord)> = Vec::new();
    for r in traced {
        let by_id: HashMap<(u32, u64), &RequestTraceRecord> = r
            .report
            .request_trace
            .iter()
            .map(|rec| ((rec.session, rec.client_txn), rec))
            .collect();
        last_matched.clear();
        for ack in r.clients.iter().flat_map(|c| &c.acks) {
            let Some(rec) = by_id.get(&(ack.session, ack.client_txn)) else {
                problems.push(format!(
                    "acked ({}, {}) has no server trace record",
                    ack.session, ack.client_txn
                ));
                continue;
            };
            let named = rec.spans.named();
            spans_us[0].push(rec.spans.total_us());
            for (slot, (_, us)) in spans_us[1..].iter_mut().zip(named) {
                slot.push(us);
            }
            let client_ns = ack.ack_ns - ack.first_send_ns;
            outside_ns.push(client_ns.saturating_sub(rec.spans.total_us() * 1000));
            last_matched.push((*ack, **rec));
        }
    }
    let mut quantiles = |i: usize, p50_name: &'static str, p99_name: &'static str| {
        let (p50, p99) = p50_p99(&mut spans_us[i]);
        m.set(p50_name, p50 as f64);
        m.set(p99_name, p99 as f64);
    };
    quantiles(
        0,
        "serve.server.service_p50_us",
        "serve.server.service_p99_us",
    );
    quantiles(
        1,
        "serve.admission.wait_p50_us",
        "serve.admission.wait_p99_us",
    );
    quantiles(2, "lock.wait_p50_us", "lock.wait_p99_us");
    quantiles(3, "serve.server.exec_p50_us", "serve.server.exec_p99_us");
    quantiles(4, "serve.commit.wait_p50_us", "serve.commit.wait_p99_us");
    quantiles(
        5,
        "serve.server.reply_write_p50_us",
        "serve.server.reply_write_p99_us",
    );
    m.set(
        "client.outside_server_p50_us",
        p50_p99_us(&mut outside_ns).0,
    );

    // Counters: per-round medians over every round of this invocation.
    let counter = |name: &'static str| med(&all, |r| r.report.stats.counter(name) as f64);
    m.set("serve.admission.sheds", counter("err.overloaded"));
    m.set("lock.retry_exhausted", counter("err.retry_exhausted"));
    m.set("wal.group_commits", counter("group_commits"));
    let forces: u64 = all.iter().map(|r| r.report.group_forces).sum();
    let carried: u64 = all.iter().map(|r| r.report.group_txns).sum();
    m.set("wal.txns_per_force", carried as f64 / forces.max(1) as f64);
    let frames: u64 = all.iter().map(|r| r.sum(|c| c.frames_sent)).sum();
    let refused: u64 = all.iter().map(|r| r.sum(|c| c.overloaded_replies)).sum();
    m.set(
        "serve.admission.shed_frac",
        refused as f64 / frames.max(1) as f64,
    );
    m.set("client.retries", med(&all, |r| r.sum(|c| c.retries) as f64));
    m.set("serve.server.start_ms", med(&all, |r| r.start_ms));
    m.set("serve.server.drain_ms", med(&all, |r| r.drain_ms));
    let attempted: u64 = all.iter().map(|r| r.attempted).sum();
    m.set(
        "client.failed_frac",
        failed as f64 / attempted.max(1) as f64,
    );

    probes::run(&mut m, 100, ReplacementPolicy::Lru);

    let last = traced.last().expect("at least one traced round");
    let trace = request_trace(w.name, args.seed, last.wall_ns, &last_matched);
    m.set("obs.unattributed_ms", trace.unattributed_ns as f64 / 1e6);
    problems.extend(trace.save(&host::out_dir()).err());
    Ok(RunResult {
        correct: problems.is_empty(),
        problems,
        attempted,
        failed,
        metrics: m,
    })
}
