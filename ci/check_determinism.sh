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
# over dense, index-ordered arrays (ScoreScratch) instead.
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
# it filled.
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
