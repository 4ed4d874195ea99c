#!/bin/sh
# Job-server smoke test: start `lookahead_serve run` (with a journal
# file and an SLO spec) on a scratch Unix socket, submit one small
# clean job and one fault-injected job, assert a well-formed success
# and a well-formed degradation response, scrape and validate the
# telemetry surfaces (metrics exposition, per-job trace, top, journal
# JSONL) and the refusal of an unknown trace id, check that a
# combinational-loop BLIF fails cleanly and a clean job still runs
# after it, then shut the server down and require it to exit cleanly.
# Then a fresh `-j 2` server must complete a portfolio job as its very
# first job. Last, the one-shot `lookahead_opt opt`, which runs the
# same job path cold, must fail the loop BLIF the same typed way (exit
# 1, `job failed:`), fail a 40-input `.names` with the reader's message
# (not an assertion), report an injected fault as `degraded: yes`, pass
# `--check` (also on two BLIFs whose names look like the writer's own
# defaults), and write the served BLIF of a job under `--budget-nodes`;
# and bad front-end input (two circuit sources on `opt`
# or `submit`, an unknown circuit or tool on `timing`) must end in a
# typed error, never in an uncaught exception.
#
# This is the cheap always-on CI check; the full warm-vs-cold identity
# and telemetry gates live in check_regression.sh (gates 7 and 9), and
# served latency is measured by perfbench's serve_mix workload.
set -eu

cd "$(dirname "$0")/.."

sock="${TMPDIR:-/tmp}/serve_smoke.$$.sock"
sock2="${TMPDIR:-/tmp}/serve_smoke.$$.2.sock"
out="${TMPDIR:-/tmp}/serve_smoke.$$"
mkdir -p "$out"
trap 'rm -rf "$out"; rm -f "$sock" "$sock2"' EXIT

dune build bin/lookahead_serve.exe bin/lookahead_opt.exe bench/main.exe

dune exec bin/lookahead_serve.exe -- run -s "$sock" -j 2 \
  --journal "$out/journal.jsonl" --slo 'xs=60000,s=60000' \
  >/dev/null 2>&1 &
server_pid=$!
i=0
while [ ! -S "$sock" ] && [ "$i" -lt 100 ]; do sleep 0.1; i=$((i+1)); done
if [ ! -S "$sock" ]; then
  echo "smoke_serve: FAIL — server did not start listening" >&2
  kill "$server_pid" 2>/dev/null || true
  exit 1
fi

fail=0

# expect_exit CODE PATTERN NAME CMD...: CMD must exit CODE, print
# PATTERN on stderr, and raise no uncaught exception.
expect_exit() {
  want=$1 pattern=$2 name=$3
  shift 3
  rc=0
  "$@" >"$out/$name.out" 2>"$out/$name.err" || rc=$?
  if [ "$rc" != "$want" ]; then
    echo "smoke_serve: FAIL — $name exited $rc, not $want" >&2; fail=1
  fi
  grep -q -e "$pattern" "$out/$name.err" || {
    echo "smoke_serve: FAIL — $name did not print \"$pattern\"" >&2; fail=1; }
  if grep -q "uncaught exception" "$out/$name.err"; then
    echo "smoke_serve: FAIL — $name raised an uncaught exception" >&2; fail=1
  fi
}

# Clean job: must print the Table 2 metrics block and nothing on stderr
# about degradation.
if dune exec bin/lookahead_serve.exe -- submit -s "$sock" --adder cla:8 \
     --time-limit 0 -o "$out/clean.blif" \
     >"$out/clean.out" 2>"$out/clean.err"; then
  grep -q "delay" "$out/clean.out" || {
    echo "smoke_serve: FAIL — clean job printed no metrics" >&2; fail=1; }
  [ -s "$out/clean.blif" ] || {
    echo "smoke_serve: FAIL — clean job wrote no BLIF" >&2; fail=1; }
  grep -q "^\.model" "$out/clean.blif" || {
    echo "smoke_serve: FAIL — clean job BLIF is malformed" >&2; fail=1; }
  if grep -q "degraded" "$out/clean.err"; then
    echo "smoke_serve: FAIL — clean job reported degradation" >&2; fail=1
  fi
else
  echo "smoke_serve: FAIL — clean job did not succeed" >&2; fail=1
fi

# Faulted job: the injected BDD blowup must degrade the job through the
# guard ladder, yet the job still completes with metrics and a BLIF.
if dune exec bin/lookahead_serve.exe -- submit -s "$sock" --adder cla:8 \
     --time-limit 0 --inject 'bdd@500:r' --budget-nodes 30000 \
     -o "$out/faulted.blif" \
     >"$out/faulted.out" 2>"$out/faulted.err"; then
  grep -q "delay" "$out/faulted.out" || {
    echo "smoke_serve: FAIL — faulted job printed no metrics" >&2; fail=1; }
  [ -s "$out/faulted.blif" ] || {
    echo "smoke_serve: FAIL — faulted job wrote no BLIF" >&2; fail=1; }
  grep -q "degraded: yes" "$out/faulted.err" || {
    echo "smoke_serve: FAIL — faulted job did not report degradation" >&2
    fail=1; }
else
  echo "smoke_serve: FAIL — faulted job did not complete" >&2; fail=1
fi

# Server stats must show exactly the two jobs, both completed.
stats=$(dune exec bin/lookahead_serve.exe -- stats -s "$sock" 2>/dev/null)
echo "$stats" | grep -q "submitted *: *2" || {
  echo "smoke_serve: FAIL — stats do not show 2 submissions" >&2; fail=1; }
echo "$stats" | grep -q "completed *: *2" || {
  echo "smoke_serve: FAIL — stats do not show 2 completions" >&2; fail=1; }
echo "$stats" | grep -q "slo" || {
  echo "smoke_serve: FAIL — stats print no SLO table despite --slo" >&2
  fail=1; }

# Metrics endpoint: the text exposition must validate against the
# bench grammar checker and account for both jobs.
dune exec bin/lookahead_serve.exe -- metrics -s "$sock" \
  -o "$out/metrics.prom" 2>/dev/null || {
  echo "smoke_serve: FAIL — metrics scrape failed" >&2; fail=1; }
dune exec bench/main.exe -- check-exposition "$out/metrics.prom" \
  >/dev/null || {
  echo "smoke_serve: FAIL — metrics exposition is malformed" >&2; fail=1; }
grep -q 'lookahead_jobs_total{state="done"} 2' "$out/metrics.prom" || {
  echo "smoke_serve: FAIL — exposition does not count 2 completed jobs" >&2
  fail=1; }
if grep -q "lookahead_rejected_total" "$out/metrics.prom"; then
  echo "smoke_serve: FAIL — exposition still exports lookahead_rejected_total" >&2
  fail=1
fi
dune exec bin/lookahead_serve.exe -- metrics -s "$sock" --json \
  2>/dev/null | grep -q '"schema": *"lookahead-metrics/1"' || {
  echo "smoke_serve: FAIL — metrics JSON mirror missing schema" >&2
  fail=1; }

# Per-job trace: job 1 finished moments ago, so its Chrome-trace slice
# must still be retained and well-formed.
dune exec bin/lookahead_serve.exe -- trace -s "$sock" 1 \
  -o "$out/trace1.json" 2>/dev/null || {
  echo "smoke_serve: FAIL — trace request for job 1 failed" >&2; fail=1; }
dune exec bench/main.exe -- check-trace "$out/trace1.json" >/dev/null || {
  echo "smoke_serve: FAIL — retained job trace is malformed" >&2; fail=1; }
# A trace id the server never ran is a refusal printed as `status`
# prints one (exit 1), not an uncaught exception.
expect_exit 1 '^error (no_trace):' trace_unknown \
  dune exec bin/lookahead_serve.exe -- trace -s "$sock" 999

# Live view, single CI iteration: plain output, must include the SLO
# table header.
dune exec bin/lookahead_serve.exe -- top -s "$sock" --iterations 1 \
  >"$out/top.out" 2>/dev/null || {
  echo "smoke_serve: FAIL — top failed" >&2; fail=1; }
grep -q "breaches" "$out/top.out" || {
  echo "smoke_serve: FAIL — top printed no SLO table" >&2; fail=1; }

# Bad input: a BLIF whose two gates feed each other must fail the job
# with the reader's loop message (not a stack overflow), and the same
# server must still complete a clean job after it and two refusals.
printf '.model loop\n.inputs a\n.outputs z\n.names a z y\n11 1\n.names y a z\n11 1\n.end\n' \
  >"$out/loop.blif"
expect_exit 1 "^job failed:.*combinational loop" loop \
  dune exec bin/lookahead_serve.exe -- submit -s "$sock" \
  --blif "$out/loop.blif" --tool none
# A submission the server refuses at admission prints as `opt` prints
# the same job: a failed job with the refusal's code, exit 1.
expect_exit 1 '^job failed: bad_request: unknown circuit "nosuch"' \
  submit_nosuch dune exec bin/lookahead_serve.exe -- submit -s "$sock" \
  -c nosuch -t none
expect_exit 1 '^job failed: bad_request: inject: rule "gremlin@3"' \
  submit_bad_inject dune exec bin/lookahead_serve.exe -- submit -s "$sock" \
  --adder ripple:4 -t none --inject gremlin@3
dune exec bin/lookahead_serve.exe -- submit -s "$sock" --adder cla:8 \
  --time-limit 0 >"$out/after.out" 2>/dev/null || {
  echo "smoke_serve: FAIL — clean job after the loop job failed" >&2
  fail=1; }
grep -q "delay" "$out/after.out" || {
  echo "smoke_serve: FAIL — clean job after the loop job printed no metrics" >&2
  fail=1; }

# A job under a 2,000-node ceiling (serve_mix's cla8 lookahead job);
# the one-shot CLI below must write the same BLIF.
dune exec bin/lookahead_serve.exe -- submit -s "$sock" --adder cla:8 \
  --budget-nodes 2000 --time-limit 0 -o "$out/budget_served.blif" \
  >/dev/null 2>&1 || {
  echo "smoke_serve: FAIL — budgeted job failed" >&2; fail=1; }

# Graceful shutdown: the request must be acknowledged and the server
# process must exit on its own.
dune exec bin/lookahead_serve.exe -- shutdown -s "$sock" >/dev/null || {
  echo "smoke_serve: FAIL — shutdown request failed" >&2; fail=1; }
if ! wait "$server_pid"; then
  echo "smoke_serve: FAIL — server exited non-zero" >&2; fail=1
fi

# The journal must be valid JSONL with monotone seq and both lifecycle
# events; validated after shutdown so the file is complete and closed.
dune exec bench/main.exe -- check-journal "$out/journal.jsonl" \
  >/dev/null || {
  echo "smoke_serve: FAIL — job journal is missing or malformed" >&2
  fail=1; }

# Fresh two-domain server whose first job is a portfolio: its arms map
# from two domains at once before anything has built the mapper's match
# table, which used to raise CamlinternalLazy.Undefined.
dune exec bin/lookahead_serve.exe -- run -s "$sock2" -j 2 >/dev/null 2>&1 &
server2_pid=$!
i=0
while [ ! -S "$sock2" ] && [ "$i" -lt 100 ]; do sleep 0.1; i=$((i+1)); done
if [ ! -S "$sock2" ]; then
  echo "smoke_serve: FAIL — second server did not start listening" >&2
  kill "$server2_pid" 2>/dev/null || true
  exit 1
fi
if dune exec bin/lookahead_serve.exe -- submit -s "$sock2" --adder ripple:1 \
     -t portfolio:delay --time-limit 0 \
     >"$out/portfolio.out" 2>"$out/portfolio.err"; then
  grep -q "delay" "$out/portfolio.out" || {
    echo "smoke_serve: FAIL — portfolio job printed no metrics" >&2; fail=1; }
else
  echo "smoke_serve: FAIL — portfolio job on a fresh -j 2 server failed:" \
    "$(cat "$out/portfolio.err")" >&2
  fail=1
fi
dune exec bin/lookahead_serve.exe -- shutdown -s "$sock2" >/dev/null || {
  echo "smoke_serve: FAIL — second shutdown request failed" >&2; fail=1; }
if ! wait "$server2_pid"; then
  echo "smoke_serve: FAIL — second server exited non-zero" >&2; fail=1
fi

# The one-shot CLI: the loop BLIF is a failed job, not an uncaught
# exception; an injected fault degrades the job with no obs flag given;
# --check proves the emitted BLIF against the input.
expect_exit 1 "^job failed:.*combinational loop" cli_loop \
  dune exec bin/lookahead_opt.exe -- opt --blif "$out/loop.blif" -t none
# A .names wider than a cube's 30 variables is a reader error, not a
# failed assertion.
awk 'BEGIN { s = ""; r = ""
  for (i = 0; i < 40; i++) { s = s " i" i; r = r "1" }
  print ".model wide"; print ".inputs" s; print ".outputs y"
  print ".names" s " y"; print r " 1"; print ".end" }' >"$out/wide.blif"
expect_exit 1 "^job failed:.*blif: .names y has 40 inputs (at most 30)" \
  cli_wide dune exec bin/lookahead_opt.exe -- opt --blif "$out/wide.blif" -t none
if grep -q "Assertion" "$out/cli_wide.err"; then
  echo "smoke_serve: FAIL — cli_wide ended in a failed assertion" >&2; fail=1
fi
dune exec bin/lookahead_opt.exe -- opt --adder cla:8 --time-limit 0 \
  --inject 'bdd@500:r' >"$out/cli_faulted.out" 2>"$out/cli_faulted.err" || {
  echo "smoke_serve: FAIL — CLI faulted job did not complete" >&2; fail=1; }
grep -q "degraded: yes" "$out/cli_faulted.err" || {
  echo "smoke_serve: FAIL — CLI faulted job did not report degradation" >&2
  fail=1; }
dune exec bin/lookahead_opt.exe -- opt --adder ripple:4 --time-limit 0 \
  --check >"$out/cli_check.out" 2>/dev/null || {
  echo "smoke_serve: FAIL — CLI --check run failed" >&2; fail=1; }
grep -q "^equivalence: PASS" "$out/cli_check.out" || {
  echo "smoke_serve: FAIL — CLI --check did not print equivalence: PASS" >&2
  fail=1; }

# Names like the BLIF writer's own defaults: an input named like the AND
# node it feeds, and an output named like an AND node that does not
# drive it. The written BLIF must read back as the same circuit.
printf '.model t\n.inputs n4 b c\n.outputs y\n.names n4 b t\n11 1\n.names t c y\n11 1\n.end\n' \
  >"$out/names_input.blif"
printf '.model t\n.inputs a b c\n.outputs n4 z\n.names a b t\n11 1\n.names t c n4\n11 1\n.names t z\n0 1\n.end\n' \
  >"$out/names_output.blif"
for f in names_input names_output; do
  dune exec bin/lookahead_opt.exe -- opt --blif "$out/$f.blif" -t none \
    --check >"$out/$f.out" 2>"$out/$f.err" || {
    echo "smoke_serve: FAIL — CLI --check on $f.blif failed" >&2; fail=1; }
  grep -q "^equivalence: PASS" "$out/$f.out" || {
    echo "smoke_serve: FAIL — $f.blif did not read back as the same circuit" >&2
    fail=1; }
done

dune exec bin/lookahead_opt.exe -- opt --adder cla:8 --budget-nodes 2000 \
  --time-limit 0 -o "$out/budget_cli.blif" >/dev/null 2>&1 || {
  echo "smoke_serve: FAIL — CLI budgeted job failed" >&2; fail=1; }
cmp -s "$out/budget_served.blif" "$out/budget_cli.blif" || {
  echo "smoke_serve: FAIL — CLI and served budgeted jobs wrote different BLIFs" >&2
  fail=1; }

# Bad front-end input is a typed error: two circuit sources are a usage
# error (exit 2) before any job or connection, an unknown circuit on
# `timing` a failed job (exit 1), an unknown tool a usage error.
two_sources="choose at most one of --circuit, --blif, --bench and --adder"
expect_exit 2 "^lookahead_opt: $two_sources" cli_two_sources \
  dune exec bin/lookahead_opt.exe -- opt -c C432 --adder cla:8 -t none
expect_exit 2 "^lookahead_serve: $two_sources" submit_two_sources \
  dune exec bin/lookahead_serve.exe -- submit -s "$sock" -c C432 \
  --adder cla:8 -t none
expect_exit 1 '^job failed: bad_request: unknown circuit "nosuch"' \
  timing_nosuch dune exec bin/lookahead_opt.exe -- timing -c nosuch
expect_exit 2 '^lookahead_opt: unknown tool "foo"' timing_bad_tool \
  dune exec bin/lookahead_opt.exe -- timing -t foo

if [ "$fail" = 0 ]; then
  echo "smoke_serve: OK"
fi
exit "$fail"
