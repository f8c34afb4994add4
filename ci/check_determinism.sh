#!/usr/bin/env bash
# Determinism guard: reject std::collections::HashMap / HashSet in
# simulation-state crates.
#
# The engine's byte-exact golden contract (DESIGN.md §14) requires that
# every container whose iteration order or allocation pattern can leak
# into simulation output be deterministic. std's RandomState draws a
# per-process seed, so a plain HashMap/HashSet in simulation state is a
# latent nondeterminism bug even when today's code never iterates it —
# use DetHashMap/DetHashSet (semcluster_vdm::dethash) or an ordered /
# dense structure instead.
#
# Files with a *reviewed* legitimate exception (e.g. membership-only
# sets whose order provably never leaks) are listed one-per-line in
# ci/dethash_allowlist.txt, with a comment in the file explaining why.
#
# Scope: library sources of the simulation-state crates only; tests and
# benches are out of scope. crates/vdm/src is in scope — its object
# catalog is written inside the profiled run phase on every create —
# with dethash.rs, which defines the Det wrappers over the std types, as
# its one allowlisted file. crates/workload/src and crates/sim/src are in
# scope because the transaction generator and the RNG it draws from
# decide every simulated byte from there; neither holds a std hash
# container, so the allowlist does not grow.
#
# crates/clustering/src admits no hash container at all, DetHashMap and
# DetHashSet included. Everything that crate folds is an f64 sum (arc
# weights into affinities, pair weights, broken cost), and the order of
# a float fold is part of the golden contract (DESIGN.md §14.2): a
# deterministic hasher makes a bucket-order fold repeatable, not
# specified — a DetHasher or hashbrown change would re-associate the
# sums that decide union order and the split verdict. Its folds run
# in first-touch order into ScoreScratch's output lists instead, and
# semcluster_vdm::SlotIndex (vdm/src/slot_index.rs) only maps a key to
# its entry's slot in such a list. The index has no removal and no
# iteration, so its bucket order cannot reach a sum; the SlotIndex guard
# below fails if that file ever grows a way to walk its buckets.
#
# crates/lock/src is held to the same rule for a plainer reason: the
# lock table is a dense object index over a slab plus two short linear
# lists, walked inside the engine's profiled lock phase, and the one
# hash set it ever held was the `seen` set of a deadlock walk no caller
# ran. A conservative table has nothing to look up by hash; one that
# comes back would bring its allocation pattern into a pinned phase.
#
# crates/vdm/src is held to it too, outside dethash.rs, which defines
# the Det containers (and lib.rs, which re-exports them). The catalog's
# name index is dense — each lineage linked by version, so its top is
# its maximum, and each base chaining its lineages' tops — so a bulk
# build never rehashes and a create grows no table; a hash index that
# came back would cost a cache-missing insert per object and regrow as
# it filled. slot_index.rs is a hash table, but a round-scoped one that
# holds a single neighbourhood's keys and cannot be iterated.
set -euo pipefail
cd "$(dirname "$0")/.."

allowlist="ci/dethash_allowlist.txt"
scope=(
    crates/core/src
    crates/buffer/src
    crates/clustering/src
    crates/lock/src
    crates/wal/src
    crates/storage/src
    crates/faults/src
    crates/vdm/src
    crates/workload/src
    crates/sim/src
)

# \bHash(Map|Set)\b matches the std types but not DetHashMap/DetHashSet
# (no word boundary inside an identifier).
hits=$(grep -rn --include='*.rs' -E '\bHash(Map|Set)\b' "${scope[@]}" || true)

status=0
while IFS= read -r hit; do
    [ -z "$hit" ] && continue
    file=${hit%%:*}
    if [ -f "$allowlist" ] && grep -qxF "$file" "$allowlist"; then
        continue
    fi
    if [ "$status" -eq 0 ]; then
        echo "determinism guard: nondeterministic hash container in simulation state:" >&2
    fi
    echo "  $hit" >&2
    status=1
done <<<"$hits"

if [ "$status" -ne 0 ]; then
    echo >&2
    echo "Use DetHashMap/DetHashSet (semcluster_vdm) or a Vec/BTreeMap instead;" >&2
    echo "if the use is provably order-safe, add the file to $allowlist with a" >&2
    echo "justifying comment at the use site." >&2
    exit 1
fi
det_hits=$( {
    grep -rn --include='*.rs' -E 'DetHash(Map|Set)' crates/clustering/src crates/lock/src
    grep -rn --include='*.rs' --exclude=dethash.rs -E 'DetHash(Map|Set)' crates/vdm/src |
        grep -v '^crates/vdm/src/lib.rs:[0-9]*:pub use dethash::'
} || true)
if [ -n "$det_hits" ]; then
    echo "determinism guard: hash container in crates/clustering/src, crates/lock/src or crates/vdm/src:" >&2
    echo "$det_hits" >&2
    echo "fold in index order over a dense array (ScoreScratch, the lock" >&2
    echo "table's slot index, the catalog's name index) instead; the" >&2
    echo "map-based models live in each crate's tests/." >&2
    exit 1
fi
echo "determinism guard: OK (no raw HashMap/HashSet in simulation state, no hash container in clustering, lock or vdm)"

# SlotIndex guard: the scoring folds' key → slot index must stay
# unwalkable. An iterator over its buckets would hand the table's
# hash order to whoever sums what it yields.
slot_hits=$(grep -nE '\bfn (iter|keys|values|drain)\b|\bimpl\b.*\bIntoIterator\b' \
    crates/vdm/src/slot_index.rs || true)
if [ -n "$slot_hits" ]; then
    echo "SlotIndex guard: crates/vdm/src/slot_index.rs exposes its bucket order:" >&2
    echo "$slot_hits" >&2
    echo "fold in first-touch order into the caller's list; the index only maps key -> slot." >&2
    exit 1
fi
echo "SlotIndex guard: OK (no iteration over slot_index.rs's buckets)"

# Purity guard for the serve path's deterministic layers (DESIGN.md
# §16–17): the wire protocol, the connection FSM, admission control,
# the telemetry registry, `top`'s client-side window over two STATS
# snapshots (it windows on the server's uptime_ms, never a local
# clock), and the network-chaos planner are replayed byte-exactly in
# unit tests and the chaos/stats goldens, so they must never read a
# clock or an OS RNG — time enters only as an
# argument (now_ms / microsecond stamps) and randomness only as a keyed
# hash of (seed, coordinates). The impure modules own the real clocks,
# threads and sockets; wall-clock reads on the serve path are confined
# to server.rs, conn.rs, exec.rs and load.rs (mod.rs holds only the
# error type and the one thread-spawn helper), none of which belongs on
# this list. crates/obs/src/metrics.rs is on the
# list because the log₂ histogram — bucket math, quantile bound and the
# atomic cell stats.rs records into — lives there, and the stats golden
# replays it byte-exactly.
pure=(
    crates/core/src/serve/protocol.rs
    crates/core/src/serve/session.rs
    crates/core/src/serve/admission.rs
    crates/core/src/serve/stats.rs
    crates/cli/src/topcmd.rs
    crates/obs/src/metrics.rs
    crates/faults/src/netchaos.rs
)
impure_hits=$(grep -n -E 'Instant::now|SystemTime::now|thread_rng|rand::random' "${pure[@]}" || true)
if [ -n "$impure_hits" ]; then
    echo "determinism guard: clock/RNG use in a pure serve module:" >&2
    echo "$impure_hits" >&2
    echo "pass time in as an argument (now_ms) and draw randomness from a" >&2
    echo "keyed hash of (seed, coordinates) instead." >&2
    exit 1
fi
echo "determinism guard: OK (serve FSM/protocol/admission/stats/chaos, top's window and the obs histogram are clock- and RNG-free)"

# Seam guard (ROADMAP item 1): the executor names no time. The cost
# model — the operation clock (engine/charge.rs's OpClock), the CPU,
# disk and log-disk servers, the disk layout, span attribution — lives
# in engine/charge.rs and the event queue in engine/driver.rs. Item
# 1(a2) runs the same executor over wall-clock time and a FilePageStore
# by swapping the cost model, not the executor, so nothing in the
# non-test part of exec.rs (before its first unindented #[cfg(test)])
# may name a simulated time or reach into those fields.
exec_rs=crates/core/src/engine/exec.rs
seam_hits=$(awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$exec_rs" |
    grep -E 'SimTime|SimDuration|self\.(cpu|disks|log_disk|layout|disk_service|cur_span|queue)\b' || true)
if [ -n "$seam_hits" ]; then
    echo "seam guard: the executor names time or the cost model's state:" >&2
    echo "$seam_hits" >&2
    echo "charge it through a charge.rs helper (charge_cpu, charge_access," >&2
    echo "charge_log, ...) or read the stamp off self.clock instead." >&2
    exit 1
fi
echo "seam guard: OK (engine/exec.rs names no simulated time and no cost-model state)"

# Window guard: engine/observe.rs is the one engine file that knows the
# measured interval (the steady state after the warm-up). It opens the
# window, keeps the collector that records only while it is open, and
# builds the report from it; the driver and the executor book into it
# through record_retired, record_lock_wait and record_delete. So no
# other engine file may, in non-test code, name `measuring`,
# `measure_start`, `WindowStart` or `MetricsCollector`, or reach into
# `self.window` or `self.metrics`: a gate anywhere else would split the
# interval's one definition across files.
measured_hits=$(find crates/core/src/engine -name '*.rs' ! -name observe.rs -print0 |
    xargs -0 awk 'FNR == 1 { skip = 0 } /^#\[cfg\(test\)\]/ { skip = 1 } !skip { print FILENAME ":" FNR ": " $0 }' |
    grep -E '\b(measuring|measure_start|WindowStart|MetricsCollector)\b|self\.(window|metrics)\b' || true)
if [ -n "$measured_hits" ]; then
    echo "window guard: an engine file other than observe.rs reads the measured window:" >&2
    echo "$measured_hits" >&2
    echo "book through an observe.rs method (record_retired, record_lock_wait," >&2
    echo "record_delete) instead of testing the window yourself." >&2
    exit 1
fi
echo "window guard: OK (only engine/observe.rs names the measured window or its collector)"

# Concurrency guard (DESIGN.md §14.2): the clustering kernels, the
# catalog and the engine are single-threaded, and the load's placements
# are exact because one thread chooses and places them in load order.
# The one exception is engine/load.rs, whose scoped helper scores
# batches ahead over a shared &Database, the weight model, the load
# order and an atomic claim cursor, and hands them back over a bounded
# channel (their buffers come back through a locked spare list); the
# store, the residency view and every placement stay on the loading
# thread. So
# nothing else in crates/clustering/src, crates/vdm/src or
# crates/core/src/engine/ may spawn or scope a thread, take a lock or
# touch an atomic or a channel — in non-test code (before a file's first
# unindented #[cfg(test)]).
conc_hits=$(find crates/clustering/src crates/vdm/src crates/core/src/engine -name '*.rs' \
        ! -path crates/core/src/engine/load.rs -print0 |
    xargs -0 awk 'FNR == 1 { skip = 0 } /^#\[cfg\(test\)\]/ { skip = 1 } !skip { print FILENAME ":" FNR ": " $0 }' |
    grep -E 'thread::(spawn|scope)|\b(Mutex|RwLock|Condvar)\b|\bAtomic[A-Z][A-Za-z0-9]*|sync::atomic|\bmpsc\b' || true)
if [ -n "$conc_hits" ]; then
    echo "concurrency guard: threads, locks or atomics outside engine/load.rs:" >&2
    echo "$conc_hits" >&2
    echo "placements stay exact because one thread chooses and places them in" >&2
    echo "order; only engine/load.rs's scoped helper may run beside it, sharing" >&2
    echo "&Database, the weight model and its claim cursor. Keep scoring pure" >&2
    echo "over shared references and give each thread its own ScoreScratch." >&2
    exit 1
fi
echo "concurrency guard: OK (no threads, locks or atomics in clustering, vdm or the engine outside engine/load.rs)"

# Ledger guard (DESIGN.md §9.2): the engine keeps one cumulative book of
# every event, its MetricsRegistry, and never resets it; the report and
# the observed snapshot read the measured interval as the end state less
# the state at measurement start. A reset or a second tally in a layer
# below would let the report and `--metrics` drift apart again, so the
# non-test code (before a file's first unindented #[cfg(test)]) of the
# crates the engine books through may neither define nor call
# `reset_stats` or a registry `reset`, nor define `BufferStats` or
# `LogStats`.
ledger_hits=$(find crates/obs/src crates/buffer/src crates/wal/src crates/sim/src \
        crates/faults/src crates/core/src -name '*.rs' -print0 |
    xargs -0 awk 'FNR == 1 { skip = 0 } /^#\[cfg\(test\)\]/ { skip = 1 } !skip { print FILENAME ":" FNR ": " $0 }' |
    grep -E '\breset_stats\b|fn reset\(|registry\.reset\(|MetricsRegistry::reset\b|\b(struct|enum|type) (BufferStats|LogStats)\b' || true)
if [ -n "$ledger_hits" ]; then
    echo "ledger guard: a reset or a second book in the engine's layers:" >&2
    echo "$ledger_hits" >&2
    echo "count the event once in the engine's registry and read an interval" >&2
    echo "through a window (MetricsRegistry::counter_values_into / value_since)" >&2
    echo "instead of resetting." >&2
    exit 1
fi
echo "ledger guard: OK (no reset_stats, registry reset, BufferStats or LogStats in obs, buffer, wal, sim, faults or core)"

# The same ledger is the report's only histogram and only window
# (DESIGN.md §9.2): p50/p95 are quantile bounds of the registry's log₂
# `txn.response_us`, and utilisation divides the windowed busy-time
# gauges by the measured span. So no non-test code under crates/*/src
# may define a second `struct Histogram` (the one is in
# crates/obs/src/metrics.rs), nor define or call a `utilization_since`
# that divides by some other horizon.
window_hits=$(find crates/*/src -name '*.rs' -print0 |
    xargs -0 awk 'FNR == 1 { skip = 0 } /^#\[cfg\(test\)\]/ { skip = 1 } !skip { print FILENAME ":" FNR ": " $0 }' |
    grep -E '\bstruct Histogram\b|utilization_since' |
    grep -vE '^crates/obs/src/metrics\.rs:[0-9]+: pub struct Histogram \{$' || true)
if [ -n "$window_hits" ]; then
    echo "ledger guard: a second histogram or utilisation window:" >&2
    echo "$window_hits" >&2
    echo "read quantiles from the registry's log2 histogram (Histogram::quantile_bound)" >&2
    echo "and divide windowed busy time by the measured span, as Engine::report does." >&2
    exit 1
fi
echo "ledger guard: OK (one struct Histogram, in obs/src/metrics.rs; no utilization_since)"
