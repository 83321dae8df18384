#!/usr/bin/env bash
# bgpd end-to-end smoke: build the daemon, generate a deterministic
# sample campaign, serve it, hit every endpoint family with curl, and
# diff the answers against the goldens committed under testdata/serve/,
# and check that the committed segment files match their sha256 digests.
# Run with -update to regenerate the goldens after an intentional
# output change (review the diff like code).
set -euo pipefail
cd "$(dirname "$0")/.."

update=0
[ "${1:-}" = "-update" ] && update=1

golden=testdata/serve
tmp=$(mktemp -d)
pid=""
cleanup() {
	[ -n "$pid" ] && kill "$pid" 2>/dev/null && wait "$pid" 2>/dev/null
	rm -rf "$tmp"
}
trap cleanup EXIT

echo "== build"
go build -o "$tmp/bgpgen" ./cmd/bgpgen
go build -o "$tmp/bgpd" ./cmd/bgpd

echo "== generate sample campaign"
"$tmp/bgpgen" -seed 4 -days 10 -noise 0.5 -ras "$tmp/ras.log" -job "$tmp/job.log"

echo "== start bgpd (spilling: tiny -mem-budget so queries serve from segment files)"
"$tmp/bgpd" -addr 127.0.0.1:0 -ras "$tmp/ras.log" -job "$tmp/job.log" \
	-data "$tmp/data" -mem-budget 4096 \
	-publish-every 1h >"$tmp/stdout.log" 2>"$tmp/stderr.log" &
pid=$!
for _ in $(seq 1 100); do
	grep -q 'listening on' "$tmp/stdout.log" 2>/dev/null && break
	kill -0 "$pid" 2>/dev/null || { echo "bgpd died:" >&2; cat "$tmp/stderr.log" >&2; exit 1; }
	sleep 0.1
done
addr=$(sed -n 's/^bgpd: listening on //p' "$tmp/stdout.log")
[ -n "$addr" ] || { echo "bgpd never announced its address" >&2; exit 1; }
base="http://$addr"

echo "== quiesce and query $base"
curl -fsS -X POST "$base/v1/quiesce" >/dev/null
names="epoch query_rates query_mtbf query_interruptions query_vulnerability report_t1 report_obs1 scan healthz"
fetch() {
	case $1 in
	epoch) curl -fsS "$base/v1/epoch" ;;
	query_*) curl -fsS "$base/v1/query/${1#query_}" ;;
	report_*) curl -fsS "$base/v1/report/${1#report_}" ;;
	# Whole-history window profile: with the tiny budget above this is
	# answered from spilled segment files through the zone-map reader.
	scan) curl -fsS "$base/v1/scan" ;;
	healthz) curl -fsS "$base/healthz" ;;
	esac
}
status=0
for name in $names; do
	fetch "$name" >"$tmp/$name.out"
	if [ "$update" = 1 ]; then
		mkdir -p "$golden"
		cp "$tmp/$name.out" "$golden/$name.golden"
		echo "updated $golden/$name.golden"
	elif ! diff -u "$golden/$name.golden" "$tmp/$name.out"; then
		echo "smoke: $name diverges from its golden" >&2
		status=1
	fi
done

# Every seal commits its segment as seg-N.seg, the file a spill under
# the tiny -mem-budget maps, so this guard sees committed segments: it
# fails when the quiesce committed none. That the budget spills is
# TestSpillEquivalence's assertion (internal/serve). The files' bytes
# are pinned by a digest golden, so a change to seal, localization or
# commit that moves a byte of the segment format fails here.
segs=$(cd "$tmp/data" && ls -- *.seg 2>/dev/null || true)
if [ -z "$segs" ]; then
	echo "smoke: bgpd committed no segment files under -data" >&2
	status=1
else
	(cd "$tmp/data" && sha256sum $segs) >"$tmp/spill_digests.out"
	if [ "$update" = 1 ]; then
		cp "$tmp/spill_digests.out" "$golden/spill_digests.txt"
		echo "updated $golden/spill_digests.txt"
	elif ! diff -u "$golden/spill_digests.txt" "$tmp/spill_digests.out"; then
		echo "smoke: committed segment files diverge from their digests" >&2
		status=1
	fi
fi

# Ingest rejection stays structured under load: a garbage batch must
# answer 400 with a JSON error, not a 500 or a hang.
code=$(curl -s -o "$tmp/bad.out" -w '%{http_code}' -X POST --data-binary 'not|a|record' "$base/v1/ingest/ras")
if [ "$code" != 400 ] || ! grep -q '"error"' "$tmp/bad.out"; then
	echo "smoke: malformed ingest answered $code: $(cat "$tmp/bad.out")" >&2
	status=1
fi

[ "$status" = 0 ] && echo "bgpd smoke OK"
exit "$status"
