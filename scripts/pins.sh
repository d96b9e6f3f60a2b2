#!/usr/bin/env bash
# Rewrites every pin under results/ from the release binaries. CI runs
#
#   scripts/pins.sh && git diff --exit-code results/
#
# so a change that moves any pinned output fails until the new pin is
# committed. A change meant to move one runs this script and says in
# CHANGES.md which lines moved and why. Every command below is seeded and
# prints no wall-clock, so a second run rewrites the same bytes.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --quiet --target-dir target \
  -p refer-obs -p refer-bench --bin trace --bin compare --bin figures
bin=target/release
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Writes stdin to results/$1 under a one-line header.
pin() { { echo "# Written by scripts/pins.sh; do not edit."; cat; } > "results/$1"; }

# serial_determinism.txt: the md5 of the JSONL trace the serial engine
# records. A change to its event order, RNG draws, either protocol's state
# scans or the trace codec moves a line. Each fault model walks different
# scans of REFER's state (oracle: healing on the fault oracle; discovered:
# heartbeats, expiry re-entry; byzantine: gossip, slander victims). The
# Kautz overlay shares REFER's roster, failure policy and data path, so it
# is pinned under oracle and discovered too. The paper trickle rarely
# leaves a cell, so a hotspot run of each loads the inter-cell path (CAN
# relays, forward_toward_cell's drops).
md5() {
  local label=$1
  shift
  "$bin/trace" record --scale 0.02 --faults 10 --seed 3 "$@" --out "$tmp/t.jsonl" >/dev/null
  echo "$label: $(md5sum < "$tmp/t.jsonl" | cut -d' ' -f1)"
}
hotspot=(--fault-model discovered --workload hotspot --offered-load 20)
{
  for m in oracle discovered byzantine; do md5 "$m" --fault-model $m; done
  for m in oracle discovered; do md5 "kautz-$m" --system kautz --fault-model $m; done
  md5 hotspot "${hotspot[@]}"
  md5 kautz-hotspot --system kautz "${hotspot[@]}"
} | pin serial_determinism.txt

# sharded_determinism.txt: `trace verify --sharded` fails unless
# sharded(2) ≡ sharded(1), and prints the event-multiset digest and the
# JSONL fnv1a, which a change to sharded ids, event order, RNG streams or
# the trace codec moves. Once on the default flood, once on a traffic
# matrix.
sharded=("$bin/trace" verify --sharded --scale 0.02 --sensors 80 --seeds 2 --threads 2)
{
  "${sharded[@]}" | sed 's/^/flood: /'
  "${sharded[@]}" --workload all2all --offered-load 60 | sed 's/^/all2all: /'
} | pin sharded_determinism.txt

# compare_smoke.txt: the RunSummary counters no trace md5 sees (oracle
# consultations, energy, retransmissions, the Byzantine columns) for all
# four systems.
"$bin/compare" --scale 0.02 --seed 7 --faults 4 --fault-model byzantine \
  --attacker-fraction 0.2 | pin compare_smoke.txt

# compare_fabric_smoke.txt: K(2,8) under all-to-all load on the sharded
# engine, shortest against regular routing: delivery, delay and queueing
# percentiles, hot-link utilisation, deadline misses and congestion drops.
# `compare` fails unless one and two threads agree.
"$bin/compare" --fabric 2,8 --offered-load 4000 --scale 0.02 --threads 2 \
  | pin compare_fabric_smoke.txt

# figures_smoke.txt: every table of the paper's Figures 4-11, two seeds.
"$bin/figures" --fig all --seeds 1,2 --scale 0.1 --no-out --quiet | pin figures_smoke.txt

# sweep_dump_smoke.txt: the faulty sweep's JSON dump, two seeds: every
# dumped statistic (mean, ci95 and n of all 33 columns, `null` where no
# seed defined one), not only the five the figure tables print. The
# `git_commit` line is cut, since it names the tree that wrote the dump.
"$bin/figures" --fig 6,7 --seeds 1,2 --scale 0.02 --quiet --out "$tmp/fig" >/dev/null
grep -v '"git_commit":' "$tmp/fig/sweep_faults.json" | pin sweep_dump_smoke.txt

# sweeps_smoke.txt: the faulty sweep under both failure knowledges, the
# Byzantine degradation table and the load sweep on both traffic matrices,
# one seed each, under the command that printed them.
sweep() { echo "\$ figures $*" && "$bin/figures" "$@"; }
small=(--seeds 1 --scale 0.02 --no-out --quiet)
{
  sweep --fig 6,7 "${small[@]}" --fault-model oracle
  sweep --fig 6,7 "${small[@]}" --fault-model discovered
  sweep --degradation "${small[@]}"
  sweep --load "${small[@]}" --workload all2all --fault-model discovered
  sweep --load "${small[@]}" --workload hotspot --fault-model discovered
} | pin sweeps_smoke.txt
