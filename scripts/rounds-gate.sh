#!/usr/bin/env bash
# Rounds gate: the "Logical steps" tables that `go run ./cmd/benchrun steps`
# prints must equal the ones in the committed results/benchrun-all.txt. The
# tables are deterministic (seeded), so any difference means a change to
# how many logical steps an algorithm takes; regenerate the snapshot with
# `go run ./cmd/benchrun all > results/benchrun-all.txt` when it is meant.
set -euo pipefail
cd "$(dirname "$0")/.."
steps_tables() { awk 'BEGIN { RS = ""; ORS = "\n\n" } /^# Logical steps/'; }
diff <(steps_tables < results/benchrun-all.txt) <(go run ./cmd/benchrun steps | steps_tables)
echo "rounds gate: logical-step tables match results/benchrun-all.txt"
