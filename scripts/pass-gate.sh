#!/usr/bin/env bash
# Pass gate: the `pass` lines crowdbench prints for svc-max, svc-topk and
# lib-max at seed 1 and --seconds 2 must equal the committed
# results/crowdbench-pass.txt byte for byte. A pass line holds the answer
# digest and every exact per-op count (naive and expert comparisons, cost,
# checkpoint and store writes and KiB, fsyncs); they depend on the seed
# alone, never on the host or the clock, so any difference is a change in
# what the program answers, asks or writes. When a change moves them on
# purpose, regenerate the file with `./scripts/pass-gate.sh -update`.
set -euo pipefail
cd "$(dirname "$0")/.."
want=results/crowdbench-pass.txt
pass_lines() {
	for w in svc-max svc-topk lib-max; do
		bash crowdbench/run.sh --workload "$w" --seed 1 --seconds 2 --trace 0 |
			sed -n "s/^pass /$w /p"
	done
}
if [[ "${1:-}" == "-update" ]]; then
	pass_lines >"$want"
	echo "pass gate: wrote $want"
	exit 0
fi
diff "$want" <(pass_lines)
echo "pass gate: crowdbench pass lines match $want"
