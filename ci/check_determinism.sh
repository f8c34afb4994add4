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
if det_hits=$(grep -rn --include='*.rs' -E 'DetHash(Map|Set)' crates/clustering/src crates/lock/src); then
    echo "determinism guard: hash container in crates/clustering/src or crates/lock/src:" >&2
    echo "$det_hits" >&2
    echo "fold in index order over a dense array (ScoreScratch, the lock" >&2
    echo "table's slot index) instead; the map-based models live in each" >&2
    echo "crate's tests/." >&2
    exit 1
fi
echo "determinism guard: OK (no raw HashMap/HashSet in simulation state, no hash container in clustering or lock)"

# Purity guard for the serve path's deterministic layers (DESIGN.md
# §16–17): the wire protocol, the connection FSM, admission control,
# the telemetry registry + SLO tracker, and the network-chaos planner
# are replayed byte-exactly in unit tests and the chaos/stats goldens,
# so they must never read a clock or an OS RNG — time enters only as an
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
    crates/core/src/serve/slo.rs
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
echo "determinism guard: OK (serve FSM/protocol/admission/stats/slo/chaos and the obs histogram are clock- and RNG-free)"
