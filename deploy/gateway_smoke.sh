#!/bin/sh
# gateway-smoke: end-to-end exercise of the containerized topology's
# process graph without a container runtime — two zoomer-shard servers,
# a zoomer-gateway front door dialed to them over TCP, and a
# zoomer-loadgen sweep with one light point and one overload point.
#
# Asserts the full degradation ladder on the overload point (degraded
# cache-only answers, 503 sheds or 504 deadline misses — never a
# transport failure), then SIGTERMs the gateway and requires a clean
# graceful drain (exit 0, "gateway stopped" logged). Before any of
# that, two bad gateway flags must each be a usage error (exit 2 within
# a second, no world built). Chained into `make ci` as the serving
# tier's acceptance test.
set -eu

cd "$(dirname "$0")/.."
WORK=$(mktemp -d)
SHARD0_PID='' SHARD1_PID='' GATEWAY_PID=''

cleanup() {
	for pid in "$GATEWAY_PID" "$SHARD0_PID" "$SHARD1_PID"; do
		[ -n "$pid" ] && kill "$pid" 2>/dev/null || true
	done
	# Reap whatever is still up so the temp dir is not busy.
	wait 2>/dev/null || true
	rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

echo "gateway-smoke: building binaries..."
go build -o "$WORK/zoomer-shard" ./cmd/zoomer-shard
go build -o "$WORK/zoomer-gateway" ./cmd/zoomer-gateway
go build -o "$WORK/zoomer-loadgen" ./cmd/zoomer-loadgen

# A bad flag is a usage error at parse time: exit 2 within a second,
# before any world is built.
for bad in "-max-inflight 0" "-shed-frac 2"; do
	rc=0
	timeout 1 "$WORK/zoomer-gateway" -scale tiny $bad >"$WORK/usage.log" 2>&1 || rc=$?
	if [ "$rc" -ne 2 ] || grep -q "building world" "$WORK/usage.log"; then
		echo "gateway-smoke: zoomer-gateway $bad exited $rc (want 2 within 1s, before any world build):" >&2
		cat "$WORK/usage.log" >&2
		exit 1
	fi
done

# Fixed loopback ports high enough to dodge the usual suspects.
S0=127.0.0.1:7481
S1=127.0.0.1:7482
GW=127.0.0.1:8491

# The world must match across every process: tiny scale, seed 1. The
# layout is the shards' own: two hash partitions, one per server.
"$WORK/zoomer-shard" -scale tiny -seed 1 -shards 2 -own 0 \
	-listen "$S0" >"$WORK/shard0.log" 2>&1 &
SHARD0_PID=$!
"$WORK/zoomer-shard" -scale tiny -seed 1 -shards 2 -own 1 \
	-listen "$S1" >"$WORK/shard1.log" 2>&1 &
SHARD1_PID=$!

wait_serving() { # $1 = logfile, $2 = name
	i=0
	while ! grep -q "^serving shards" "$1" 2>/dev/null; do
		i=$((i + 1))
		if [ "$i" -gt 240 ]; then
			echo "gateway-smoke: $2 never came up:" >&2
			cat "$1" >&2
			exit 1
		fi
		sleep 0.5
	done
}
wait_serving "$WORK/shard0.log" shard0
wait_serving "$WORK/shard1.log" shard1

# A deliberately tiny admission window (cap 2, soft threshold 1) so the
# overload point is guaranteed to climb the degradation ladder even on
# a fast box: any two overlapping requests already degrade the second.
"$WORK/zoomer-gateway" -scale tiny -seed 1 -train 25 -listen "$GW" \
	-remote "$S0,$S1" -max-inflight 2 -shed-frac 0.5 \
	>"$WORK/gateway.log" 2>&1 &
GATEWAY_PID=$!

echo "gateway-smoke: sweeping (loadgen waits for /healthz)..."
SWEEP_S=2 # seconds per sweep point
"$WORK/zoomer-loadgen" -target "http://$GW" -qps 50,4000 -duration "${SWEEP_S}s" \
	-warmup 300ms -concurrency 128 | tee "$WORK/sweep.txt"

# Table columns: QPS sent ok degraded shed deadline failed late_p99 p50
# p95 p99. late_p99 is the generator's own lag behind its schedule, in
# ms. The sweep is open-loop, so every row sends its whole schedule:
# sent = QPS × SWEEP_S.
awk -v secs="$SWEEP_S" '
	/^QPS/ { header = 1; next }
	header && NF >= 8 {
		rows++; ok += $3; degr += $4; shed += $5; dlx += $6; failed += $7
		if ($2 != $1 * secs) short = short " " $2 "/" $1 * secs " at " $1 " QPS"
	}
	END {
		if (rows < 2) { print "gateway-smoke: expected 2 sweep rows, got " rows; exit 1 }
		if (short != "") { print "gateway-smoke: the schedule was not sent whole (sent/scheduled):" short; exit 1 }
		if (ok == 0) { print "gateway-smoke: no successful retrievals"; exit 1 }
		if (failed != 0) { print "gateway-smoke: " failed " transport failures"; exit 1 }
		if (degr + shed + dlx == 0) { print "gateway-smoke: overload never engaged the degradation ladder"; exit 1 }
		print "gateway-smoke: ok=" ok " degraded=" degr " shed=" shed " deadline=" dlx " failed=0"
	}
' "$WORK/sweep.txt"

echo "gateway-smoke: probing binary + metrics endpoints..."
curl -fsS "http://$GW/v1/retrieve.bin?rand=1" >"$WORK/answer.bin"
if [ "$(head -c 4 "$WORK/answer.bin")" != "ZGR1" ]; then
	echo "gateway-smoke: binary endpoint did not answer a ZGR1 frame" >&2
	exit 1
fi
curl -fsS "http://$GW/metrics" >"$WORK/metrics.txt"
grep -q '^zoomer_gateway_requests_total' "$WORK/metrics.txt" || {
	echo "gateway-smoke: metrics endpoint missing request counters" >&2
	exit 1
}
# The sweep must have been served through the neighbor cache and both
# remote shards: cache hits > 0 and one request row per shard.
awk '
	$1 == "zoomer_cache_hits_total" { hits = $2 }
	/^zoomer_engine_shard_requests_total\{/ { shards++ }
	END {
		if (hits + 0 == 0) { print "gateway-smoke: zoomer_cache_hits_total missing or 0 after the sweep"; exit 1 }
		if (shards != 2) { print "gateway-smoke: " shards + 0 " zoomer_engine_shard_requests_total rows, want 2"; exit 1 }
	}
' "$WORK/metrics.txt" >&2

echo "gateway-smoke: draining gateway (SIGTERM)..."
kill -TERM "$GATEWAY_PID"
DRAIN_RC=0
wait "$GATEWAY_PID" || DRAIN_RC=$?
GATEWAY_PID=''
if [ "$DRAIN_RC" -ne 0 ]; then
	echo "gateway-smoke: gateway exited $DRAIN_RC on SIGTERM:" >&2
	tail -20 "$WORK/gateway.log" >&2
	exit 1
fi
if ! grep -q "gateway stopped" "$WORK/gateway.log"; then
	echo "gateway-smoke: graceful drain did not complete:" >&2
	tail -20 "$WORK/gateway.log" >&2
	exit 1
fi

echo "gateway-smoke: PASS"
