#!/usr/bin/env bash
# Bounded-memory equivalence gate: generate a multi-campaign log well
# past the smoke campaign's scale, analyze it twice — unconstrained,
# then under GOMEMLIMIT plus a ulimit backstop with a -mem-budget far
# smaller than the FATAL event payload — and require (a) the bounded
# run actually spilled, (b) it spooled the log's FATAL records and
# nothing else: the spooled rows, the merged FATAL rows and the log's
# FATAL line count agree, and no segment run's severity zone map
# admits a non-FATAL row, (c) the two stdout renders are
# byte-identical, and (d) so are the two -artifact sweep renders.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "== build"
go build -o "$tmp/bgpgen" ./cmd/bgpgen
go build -o "$tmp/coanalyze" ./cmd/coanalyze

# Two generated campaigns concatenated into one log pair, ~10x the
# smoke campaign (seed 4, 10 days): distinct seeds so the vocabularies
# only partly overlap and the global symtab remap does real work.
echo "== generate multi-campaign logs"
"$tmp/bgpgen" -seed 4 -days 60 -noise 0.5 -ras "$tmp/ras1.log" -job "$tmp/job1.log"
"$tmp/bgpgen" -seed 11 -days 45 -noise 0.5 -ras "$tmp/ras2.log" -job "$tmp/job2.log"
cat "$tmp/ras1.log" "$tmp/ras2.log" >"$tmp/ras.log"
cat "$tmp/job1.log" "$tmp/job2.log" >"$tmp/job.log"
payload=$(wc -c <"$tmp/ras.log")
budget=$((payload / 10))
echo "   RAS payload $payload bytes, -mem-budget $budget"

# /usr/bin/time -v reports peak RSS when available (GNU time is not
# installed everywhere); the gate itself never depends on it.
mem() {
	if [ -x /usr/bin/time ] && /usr/bin/time -v true 2>/dev/null; then
		/usr/bin/time -v "$@"
	else
		"$@"
	fi
}

echo "== unconstrained run"
mem "$tmp/coanalyze" -ras "$tmp/ras.log" -job "$tmp/job.log" \
	>"$tmp/batch.out" 2>"$tmp/batch.err" || { cat "$tmp/batch.err" >&2; exit 1; }

echo "== bounded run (GOMEMLIMIT=128MiB, ulimit -v 4GiB, -mem-budget $budget)"
(
	# The address-space backstop is deliberately loose: the Go runtime
	# reserves large virtual areas up front, and mmap'd segment files
	# count toward -v. GOMEMLIMIT is the real heap bound; ulimit only
	# catches a runaway.
	ulimit -v 4194304
	GOMEMLIMIT=128MiB mem "$tmp/coanalyze" -ras "$tmp/ras.log" -job "$tmp/job.log" \
		-mem-budget "$budget" -spill-dir "$tmp/spill" \
		>"$tmp/bounded.out" 2>"$tmp/bounded.err"
) || { cat "$tmp/bounded.err" >&2; exit 1; }

for log in batch.err bounded.err; do
	rss=$(sed -n 's/.*Maximum resident set size (kbytes): //p' "$tmp/$log")
	[ -n "$rss" ] && echo "   ${log%.err} peak RSS: ${rss} kB"
done

status=0
flushes=$(sed -n 's/.*budget_flushes=\([0-9]*\).*/\1/p' "$tmp/bounded.err")
rows=$(sed -n 's/.* rows=\([0-9]*\).*/\1/p' "$tmp/bounded.err")
merged=$(sed -n 's/.*fatal_rows=\([0-9]*\).*/\1/p' "$tmp/bounded.err")
# SEVERITY is the sixth |-separated field; a raw | never occurs inside
# a field (the codec escapes it as \p).
fatal=$(awk -F'|' '$6 == "FATAL"' "$tmp/ras.log" | wc -l)
if [ -z "$flushes" ] || [ "$flushes" -lt 1 ]; then
	echo "membound: budget $budget forced no spill flush (budget_flushes=${flushes:-missing}):" >&2
	cat "$tmp/bounded.err" >&2
	status=1
fi
if [ "${rows:-x}" != "$fatal" ] || [ "${merged:-x}" != "$fatal" ]; then
	echo "membound: spooled rows=${rows:-missing}, merged fatal_rows=${merged:-missing}, want both = $fatal FATAL records:" >&2
	cat "$tmp/bounded.err" >&2
	status=1
fi
# A segment file starts with the 8-byte magic and a 4-byte header
# length; the header's severity bitmap (bit v set iff a row has
# severity v) is the little-endian uint64 at file offset 40 (see
# internal/store/codec.go, readHeader). FATAL is severity 6, so a
# FATAL-only run has bitmap 64.
segs=0
for seg in "$tmp"/spill/*.seg; do
	[ -e "$seg" ] || continue
	segs=$((segs + 1))
	magic=$(head -c 7 "$seg")
	sev=$(od -An -t u8 -j 40 -N 8 --endian=little "$seg" | tr -d ' ')
	if [ "$magic" != "BGPSEG1" ] || [ "$sev" != 64 ]; then
		echo "membound: $(basename "$seg") (magic ${magic:-missing}) has severity bitmap ${sev:-missing}, want FATAL only (64)" >&2
		status=1
	fi
done
if [ "$segs" -lt 1 ]; then
	echo "membound: no segment runs in the spill directory" >&2
	status=1
fi
if ! cmp -s "$tmp/batch.out" "$tmp/bounded.out"; then
	echo "membound: bounded output diverges from the unconstrained run:" >&2
	diff -u "$tmp/batch.out" "$tmp/bounded.out" | head -40 >&2
	status=1
fi

# The window ablation replays the retained sorted FATAL run (resident in
# batch, spilled segment runs under the budget), so -artifact sweep must
# work under -mem-budget and equal batch byte for byte.
echo "== sweep, unconstrained and bounded"
"$tmp/coanalyze" -ras "$tmp/ras.log" -job "$tmp/job.log" -artifact sweep \
	>"$tmp/batch.sweep" 2>"$tmp/batch.sweep.err" || { cat "$tmp/batch.sweep.err" >&2; exit 1; }
(
	ulimit -v 4194304
	GOMEMLIMIT=128MiB "$tmp/coanalyze" -ras "$tmp/ras.log" -job "$tmp/job.log" -artifact sweep \
		-mem-budget "$budget" -spill-dir "$tmp/spill-sweep" \
		>"$tmp/bounded.sweep" 2>"$tmp/bounded.sweep.err"
) || { echo "membound: -mem-budget $budget -artifact sweep failed:" >&2; cat "$tmp/bounded.sweep.err" >&2; exit 1; }
if ! cmp -s "$tmp/batch.sweep" "$tmp/bounded.sweep"; then
	echo "membound: bounded -artifact sweep diverges from the unconstrained run:" >&2
	diff -u "$tmp/batch.sweep" "$tmp/bounded.sweep" >&2
	status=1
fi

if [ "$status" = 0 ]; then
	echo "membound OK: $flushes budget flushes, $rows FATAL rows spooled in $segs FATAL-only runs, output and sweep byte-identical"
fi
exit "$status"
