//! The usage text. Each synopsis block below is checked against its
//! [`crate::commands::COMMANDS`] row: the `--flag` tokens here are
//! exactly the flags the subcommand accepts.

/// Top-level usage text.
pub const USAGE: &str = "semclusterctl — the semcluster OODBMS simulator

USAGE:
  semclusterctl simulate [CONFIG] [--reps N] [--jobs N] [--json]
                         [--backend sim|file] [--data-dir DIR]
                         [--trace out.jsonl] [--chrome-trace out.json]
                         [--timeline out.json] [--timeline-interval-us N]
                         [--metrics json|table]
                         [--profile] [--folded out.folded]
                         [--folded-metric wall_ns|sim_us|alloc_bytes|allocs|calls]
  semclusterctl explain  [CONFIG] [--json]
  semclusterctl explain-placement [CONFIG] [--last N] [--json]
  semclusterctl trace    [--invocations N] [--seed N]
  semclusterctl inspect  [--workload med5-10] [--mbytes N] [--seed N]
  semclusterctl reorg    [--modules N] [--seed N]
  semclusterctl golden   [--bless]
                         [--suite smoke|faults|timeline|profile|chaos|stats|paper]
                         [--path FILE] [--jobs N]
  semclusterctl serve    [--addr HOST:PORT] [--mode concurrent|oracle]
                         [--queue-cap N] [--deadline-ms N]
                         [--max-inflight N] [--metrics-addr HOST:PORT]
                         [--chrome-trace FILE] [--trace-requests N]
                         [--drain-linger-ms N]
                         [concurrent mode only: --workers N
                          --group-window-us N --objects N]
                         [oracle mode only: CONFIG]
  semclusterctl load     --addr HOST:PORT [--connections N] [--sessions N]
                         [--txns N] [--ops N] [--write-pct N] [--objects N]
                         [--deadline-ms N] [--seed N] [--chaos none|chaos]
                         [--pipeline N] [--shutdown]
  semclusterctl top      --addr HOST:PORT [--interval-ms N] [--count N]
                         [--raw]
  semclusterctl crash-matrix [--preset smoke|deep] [--samples N] [--seed N]
                         [--scratch-dir DIR] [--jobs N] [--json]
  semclusterctl help

CONFIG:
                         [--preset|--workload low3-5|med5-10|hi10-100|…]
                         [--clustering none|buffer|2io|10io|nolimit|adaptive]
                         [--replacement lru|random|ctx]
                         [--prefetch none|buffer|db]
                         [--split none|linear|np]
                         [--faults none|smoke|degraded|stress]
                         [--buffer-pages N] [--txns N] [--seed N]
                         [--paper-scale]

  A flag the subcommand does not list above is rejected (exit 2) before
  anything runs.
  simulate --trace streams every engine event (txn begin/commit, page
  reads/flushes, prefetch, log flushes, lock waits, splits) as JSON
  Lines stamped in simulated time; same seed → byte-identical trace.
  simulate --chrome-trace writes the same events in Chrome Trace Event
  format instead — open the file in chrome://tracing or Perfetto.
  simulate --timeline samples buffer hit ratio, per-disk queue depth,
  log-buffer occupancy, abort rate and the clustering-locality score at
  a fixed simulated-time interval (default 1 s) into a JSON timeline.
  simulate --metrics prints the counter/gauge/histogram registry
  snapshot for the measured interval. simulate --profile runs with the
  deterministic phase profiler on: per-phase call counts, simulated
  time, and bytes allocated land as a JSON object on stdout (stable
  at any --jobs count), the wall-clock table goes to stderr, and
  --folded writes flamegraph-ready folded stacks (pick the value with
  --folded-metric; default wall_ns). explain attributes mean response
  time into CPU / demand-read / dirty-flush / cluster-search / log /
  lock-wait components. explain-placement replays a run and prints its
  last N placement trace records, one per create or recluster decision:
  candidate pages with per-candidate affinity/gain, the chosen vs landed
  page, the split verdict and the I/Os the search charged (--json: the
  records' trace lines).

  simulate --jobs N runs the replications on N worker threads (0 or
  omitted = all cores); output is byte-identical at any thread count.
  simulate --faults injects deterministic disk/log faults from a named
  preset: transient read/write errors with retry + backoff, latency
  spikes, hot disks, and log stalls; same seed → same faults at any
  thread count.
  golden runs a fixed sweep and byte-compares it against the committed
  golden file (exit 1 on drift, with a unified diff of the first
  mismatch); golden --bless regenerates the file after an intentional
  behaviour change. It is the one pin on simulated results. --suite
  faults runs the fault-injection sweep against
  goldens/faults_smoke.json instead of the fault-free smoke sweep;
  --suite timeline runs the timeline-sampled sweep against
  goldens/timeline_smoke.json; --suite profile runs the profiled sweep
  against goldens/profile_smoke.json, pinning per-phase call and
  allocation counts — including that every arena-backed hot-path leaf
  (page-locality fold, placement scoring, buffer lookup, event-queue
  pop) stays allocation-free; --suite paper runs the paper's unscaled
  Table 4.1 configuration, unclustered baseline vs the full semantic
  stack, against goldens/paper_scale.json (seconds, not milliseconds:
  CI runs it under a wall-clock budget).
  simulate --paper-scale starts from the paper's unscaled Table 4.1
  configuration (500 MB database, 1000 buffer pages, ≈1.6 M objects)
  instead of the proportionally scaled default; other flags still
  apply on top.
  serve boots the engine behind a length-prefixed TCP wire protocol and
  prints `listening on ADDR` once bound. In either mode every request
  carries a deadline, the execution queue is bounded (--queue-cap), and
  admission control sheds load with hysteresis. --mode concurrent
  (default) drives one shared engine core from a worker pool with strict
  2PL and WAL group commit; the committer forces a batch as soon as it
  has one, and --group-window-us (default 0) only adds a wait before
  every force, to emulate a slower log device. --mode oracle serializes
  every client through one worker that owns a simulator, so a REPORT is
  byte-identical to `simulate`. A flag only the other mode reads is
  refused (exit 2), not dropped.
  SIGTERM/SIGINT (or a client SHUTDOWN frame) drains in-flight work,
  then the server verifies that a group-commit force covered every
  acknowledged transaction — exiting 7 if one did not.
  load is the matching load generator: N connection threads multiplex
  logical sessions, pipeline transactions, and optionally inject
  client-side network chaos (dropped/stalled/half-closed connections,
  slow-loris trickle, corrupt frames) from a keyed-hash plan; the
  summary JSON reports sessions/sec, latency percentiles, and typed
  rejection counts. golden --suite chaos pins those chaos schedules.
  serve --metrics-addr additionally serves a read-only Prometheus text
  exposition of the live telemetry registry (per-opcode request
  counters, typed-error counters, gauges, per-phase latency histograms,
  all cumulative) over HTTP; it keeps answering through drain. A
  STATS frame on the main port returns the same snapshot as versioned
  JSON, even while draining or overloaded; --drain-linger-ms keeps idle
  connections open for such probes once a drain begins (default 0 =
  close them immediately). Every served transaction's
  service time is attributed server-side into admission-wait /
  lock-wait / engine-exec / commit-wait / reply-write spans that sum to
  the total exactly; serve --chrome-trace writes the retained
  per-request spans as a `serve-requests` lane for chrome://tracing.
  The server keeps no window: top polls STATS every --interval-ms and
  differences each snapshot from the one before (the first from zero)
  into a one-line-per-tick view (throughput, queue depth, p50/p99 and
  error/shed rates over that interval); --raw prints each snapshot's
  JSON verbatim instead, a wall-clock series of every counter, gauge
  and histogram. golden --suite stats pins the telemetry renders
  (synthetic replay + live oracle probe).
  crash-matrix shadows a small workload with the durable file-backed
  page store and crashes it at every commit boundary plus sampled
  intra-transaction, torn-log, crash-at-syscall and fsync-failure
  points; at each it recovers the real files from disk twice (recovery
  must be an idempotent byte-level no-op) and verifies ACID (exit 1 on
  any violation). Failing points preserve their store under
  --scratch-dir (default target/crash-scratch). simulate --backend file
  runs one replication against the same durable store under --data-dir
  (default target/simulate-data), pulls the plug at the end, and
  verifies the recovered files.
  exit codes: 1 failure, 2 bad flags, 4 unknown stats schema (top),
  5 network unavailable, 6 wire-protocol violation, 7 ACID violation
  (the latter three from serve/load).
";
