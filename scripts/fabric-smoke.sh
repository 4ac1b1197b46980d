#!/usr/bin/env bash
# Distributed-fabric gate: runs the smoke grid through the real
# deployment — one `gridd serve` coordinator on a localhost TCP port and
# two `gridd work` processes sharing one -checkpoint-dir — and then
# through `gridd run` in one process, and requires the two merged
# documents to be byte-identical (cmp). It fails if any process exits
# nonzero, and kills whatever is still running when it exits.
#
#   bash scripts/fabric-smoke.sh
#   make fabric-smoke            # the same, bounded by timeout
#
# Run it from the repository root.
set -euo pipefail

dir="$(mktemp -d)"
pids=()
cleanup() {
	for p in "${pids[@]}"; do
		kill "$p" 2>/dev/null || true
	done
	wait 2>/dev/null || true
	rm -rf "$dir"
}
trap cleanup EXIT
trap 'exit 1' INT TERM

fail() {
	for log in "$dir"/*.log; do
		echo "--- $(basename "$log")" >&2
		cat "$log" >&2
	done
	echo "fabric-smoke: $*" >&2
	exit 1
}

go build -o "$dir/gridd" ./cmd/gridd

"$dir/gridd" serve -addr 127.0.0.1:0 -grid smoke -out "$dir/fabric.json" 2>"$dir/serve.log" &
pids+=($!)
addr=
for _ in $(seq 200); do
	addr=$(sed -n 's/.*listening on //p' "$dir/serve.log")
	if [ -n "$addr" ] || ! kill -0 "${pids[0]}" 2>/dev/null; then
		break
	fi
	sleep 0.05
done
[ -n "$addr" ] || fail "coordinator reported no listening address"

for w in w1 w2; do
	"$dir/gridd" work -connect "$addr" -name "$w" -checkpoint-dir "$dir/ck" 2>"$dir/$w.log" &
	pids+=($!)
done
for p in "${pids[@]}"; do
	wait "$p" || fail "a fabric process exited nonzero"
done
pids=()

"$dir/gridd" run -grid smoke -checkpoint-dir "$dir/ck-serial" -out "$dir/serial.json" 2>"$dir/run.log" ||
	fail "gridd run exited nonzero"
cmp "$dir/fabric.json" "$dir/serial.json" ||
	fail "distributed merged document differs from gridd run"
echo "fabric-smoke: distributed merged document is byte-identical to gridd run"
