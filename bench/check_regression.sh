#!/bin/sh
# Perf regression gates.
#
# Gate 1 (BDD): runs the bechamel BDD suite (`bench/main.exe bdd`),
# writes a fresh BENCH_bdd.json to a scratch path, and compares the
# end-to-end "table1" wall-clock against the baseline BENCH_bdd.json
# checked in at the repo root. Fails (exit 1) when the fresh run is more
# than 25% slower.
#
# Gate 2 (par): runs `bench/main.exe par` (table1 + the table2 fast
# subset, minus C432 and with the anytime deadline disabled so results
# cannot depend on wall-clock scheduling, at several domain-pool sizes;
# BENCH_PAR_JOBS overrides the sizes, default here "1 4" to keep the
# gate affordable) and fails when
# either (a) any -j N output is not bit-identical to the -j 1 output —
# the lib/par determinism contract — or (b) the largest pool is more
# than max_regression_percent slower than -j 1, i.e. the parallel
# runtime's overhead regressed. Both checks are within-run, so the gate
# is meaningful on any machine, single-core hosts included.
#
# Gate 3 (incr): runs `bench/main.exe incr` (the dirty-region analysis
# engines vs their from-scratch equivalents on the Table 2 fast subset)
# and fails when either (a) any incremental result is not bit-identical
# to the from-scratch one, or (b) the incremental total is slower than
# the from-scratch total — the engines exist to be faster, so parity is
# the floor. Both checks are within-run.
#
# Gate 4 (obs): runs the optimizer on a fast-subset circuit with
# --stats/--report/--trace at -j 1 and -j 4 (deadline disabled), then
# validates both JSON exports with the bench validators (schema, types,
# counter invariants like bdd hits + misses = lookups, trace-event
# well-formedness) and requires the two reports' "deterministic"
# subtrees to be byte-identical — the lib/obs determinism contract.
# The -j 1 trace is left at $OBS_TRACE_OUT (default BENCH_obs_trace.json)
# for CI to archive.
#
# Gate 5 (guard): runs the table2 fast subset with a mid-run injected
# BDD blowup (`bench/main.exe table2-guard --inject ...`, deadline
# disabled) at -j 1 and -j 4. Every cell of that target CEC-checks its
# output against its input, so mere completion is the completion+CEC
# check; on top of that the gate requires (a) the injected-fault
# counter to actually be non-zero in the report — a silently unfired
# fault would make the gate vacuous — and (b) the two reports'
# deterministic subtrees to be byte-identical, i.e. degraded runs obey
# the same -j identity contract as healthy ones.
#
# Gate numbers skip 6: the later gates keep the numbers that DESIGN.md
# and EXPERIMENTS.md cite.
#
# Gate 7 (serve): the job-server contract, in two halves. (a) Warm ≡
# cold, end to end through the real binaries: at -j 1 and -j 4 it
# starts `lookahead_serve run` on a scratch Unix socket, submits a
# clean cla:16 job, a fault-injected one, and a clean one again (so a
# leaked fault arming would show), and requires every warm BLIF to be
# byte-identical (`cmp`) and every warm report's deterministic subtree
# identical (`compare-reports`) to the one-shot `lookahead_opt opt`
# run of the same spec. (b) Load/latency: runs the windowed load bench
# (`bench/main.exe serve`, which itself fails unless all jobs complete
# and its in-process warm-vs-cold identity samples agree) and compares
# the fresh clean-job p95 latency against the checked-in BENCH_serve
# baseline within SERVE_GATE_PCT (default 100 — latency under a full
# admission window is queueing-dominated, so the headroom absorbs host
# noise, not protocol regressions). The latency comparison is skipped
# with a note when BENCH_SERVE_JOBS shrinks the run below the
# baseline's job count, since the queue-wait profile then differs.
#
# Gate 8 (sat): the incremental CDCL core. Runs `bench/main.exe sat`
# (the sweep kernel on the Table 2 fast subset plus SAT-bound
# cross-architecture miters) at -j 1 and -j 4. The bench itself exits
# non-zero when a sweep loses equivalence or a swept BLIF's md5 differs
# from the seed solver's (the md5s are machine-independent, so this is
# the bit-identical-BLIF check against the pre-arena core). On top the
# gate requires (a) the "det" solver-stat objects of the two runs to be
# byte-identical — conflict counts, reductions, deletions and arena
# peaks are Det-class and must not depend on the pool size; (b) the
# fresh miter total to beat the recorded seed total within SAT_GATE_PCT
# (default 0 — the rewrite is ~5x faster, so even 0% slack leaves a
# several-fold margin for slow hosts); and (c) the database-reduction
# machinery to demonstrably fire: nonzero reduction totals in the bench
# and nonzero sat.reductions / sat.learnts_deleted in a full driver
# report on a Table 2 circuit (dalu).
#
# Gate 9 (obs-telem): the telemetry layer. Runs `bench/main.exe obs`
# (the serve-bench job mix through an in-process engine, journaling off
# vs journaling to a rotated JSONL file with periodic Metrics scrapes;
# the bench itself exits non-zero unless every job completes, the
# journal file validates, and the journal's Det digest is identical
# across warm -j 1, warm -j 4 and cold runs) and on top bounds the
# enabled-telemetry overhead at OBS_TELEM_GATE_PCT% (default 3) of the
# disabled baseline — production telemetry must be near-free.
#
# Gate 10 (egraph): the portfolio optimizer. Runs `bench/main.exe
# egraph` (the deadline-free fast subset through every fixed arm and
# the parallel portfolio; the bench itself exits non-zero when any arm
# or the portfolio loses equivalence, or when the portfolio's winning
# cost exceeds the best fixed arm's — "portfolio never worse" is the
# mode's whole contract) at -j 1 and -j 4 and requires the emitted
# JSON — winner names, costs to 3 decimals, per-arm cost maps and
# winner-BLIF md5s, no wall-clock fields — byte-identical across the
# two pool sizes and against the checked-in BENCH_egraph.json, so a
# schedule-dependent winner pick or an extraction drift shows up as a
# diff against the seed.
#
# Usage: bench/check_regression.sh [max_regression_percent]
# Skip a gate with SKIP_BDD_GATE=1 / SKIP_PAR_GATE=1 / SKIP_INCR_GATE=1
# / SKIP_OBS_GATE=1 / SKIP_GUARD_GATE=1 / SKIP_SERVE_GATE=1 /
# SKIP_SAT_GATE=1 / SKIP_OBS_TELEM_GATE=1 / SKIP_EGRAPH_GATE=1.
set -eu

cd "$(dirname "$0")/.."

max_pct="${1:-25}"
fail=0

dune build bench/main.exe

# ------------------------------------------------------------------
# Gate 1: BDD manager (vs checked-in baseline)
# ------------------------------------------------------------------

bdd_fresh="${TMPDIR:-/tmp}/BENCH_bdd.fresh.$$.json"
par_fresh="${TMPDIR:-/tmp}/BENCH_par.fresh.$$.json"
incr_fresh="${TMPDIR:-/tmp}/BENCH_incr.fresh.$$.json"
obs_r1="${TMPDIR:-/tmp}/BENCH_obs.r1.$$.json"
obs_r4="${TMPDIR:-/tmp}/BENCH_obs.r4.$$.json"
guard_r1="${TMPDIR:-/tmp}/BENCH_guard.r1.$$.json"
guard_r4="${TMPDIR:-/tmp}/BENCH_guard.r4.$$.json"
serve_fresh="${TMPDIR:-/tmp}/BENCH_serve.fresh.$$.json"
serve_dir="${TMPDIR:-/tmp}/serve_gate.$$"
sat_r1="${TMPDIR:-/tmp}/BENCH_sat.r1.$$.json"
sat_r4="${TMPDIR:-/tmp}/BENCH_sat.r4.$$.json"
sat_report="${TMPDIR:-/tmp}/BENCH_sat.report.$$.json"
obs_telem_fresh="${TMPDIR:-/tmp}/BENCH_obs.fresh.$$.json"
egraph_r1="${TMPDIR:-/tmp}/BENCH_egraph.r1.$$.json"
egraph_r4="${TMPDIR:-/tmp}/BENCH_egraph.r4.$$.json"
trap 'rm -f "$bdd_fresh" "$par_fresh" "$incr_fresh" "$obs_r1" "$obs_r4" \
  "$guard_r1" "$guard_r4" "$serve_fresh" \
  "$sat_r1" "$sat_r4" "$sat_report" "$sat_r1.det" "$sat_r4.det" \
  "$obs_telem_fresh" "$egraph_r1" "$egraph_r4"; \
  rm -rf "$serve_dir"' EXIT

extract() { # extract <file> <entry-name> -> seconds
  awk -v want="$2" '
    /"name":/ && /"seconds":/ {
      name = $0; sub(/.*"name": "/, "", name); sub(/".*/, "", name)
      sec = $0; sub(/.*"seconds": /, "", sec); sub(/[,} ].*/, "", sec)
      if (name == want) { print sec; exit }
    }' "$1"
}

if [ "${SKIP_BDD_GATE:-0}" = 1 ]; then
  echo "check_regression: BDD gate skipped (SKIP_BDD_GATE=1)"
else
  baseline=BENCH_bdd.json
  if [ ! -f "$baseline" ]; then
    echo "check_regression: no baseline $baseline (run: dune exec bench/main.exe bdd)" >&2
    exit 1
  fi
  BENCH_BDD_OUT="$bdd_fresh" dune exec bench/main.exe -- bdd

  old=$(extract "$baseline" table1)
  new=$(extract "$bdd_fresh" table1)

  if [ -z "$old" ] || [ -z "$new" ]; then
    echo "check_regression: could not extract table1 seconds (old='$old' new='$new')" >&2
    exit 1
  fi

  echo "table1 wall-clock: baseline ${old}s, fresh ${new}s (limit +${max_pct}%)"
  if awk -v o="$old" -v n="$new" -v p="$max_pct" \
       'BEGIN { exit !(n <= o * (1 + p / 100.0)) }'; then
    echo "check_regression: BDD gate OK"
  else
    echo "check_regression: FAIL — table1 regressed more than ${max_pct}% (${old}s -> ${new}s)" >&2
    fail=1
  fi
fi

# ------------------------------------------------------------------
# Gate 2: parallel runtime (within-run: determinism + overhead)
# ------------------------------------------------------------------

if [ "${SKIP_PAR_GATE:-0}" = 1 ]; then
  echo "check_regression: par gate skipped (SKIP_PAR_GATE=1)"
else
  # `bench par` exits non-zero itself when outputs differ across -j.
  BENCH_PAR_OUT="$par_fresh" BENCH_PAR_JOBS="${BENCH_PAR_JOBS:-1 4}" \
    dune exec bench/main.exe -- par

  # Re-check identity from the JSON, and bound the parallel overhead:
  # the largest pool must not be more than max_pct% slower than -j 1.
  par_verdict=$(awk -v p="$max_pct" '
    /"jobs":/ {
      j = $0;  sub(/.*"jobs": /, "", j);       sub(/[,} ].*/, "", j)
      s = $0;  sub(/.*"seconds": /, "", s);    sub(/[,} ].*/, "", s)
      id = $0; sub(/.*"identical": /, "", id); sub(/[,} ].*/, "", id)
      if (id != "true") bad = 1
      if (j == 1) base = s
      last = s
    }
    END {
      if (bad) { print "nondeterministic"; exit }
      if (base == "" || last == "") { print "unparseable"; exit }
      if (last > base * (1 + p / 100.0)) { print "slow"; exit }
      print "ok"
    }' "$par_fresh")

  case "$par_verdict" in
    ok) echo "check_regression: par gate OK" ;;
    nondeterministic)
      echo "check_regression: FAIL — parallel output differs from -j 1" >&2
      fail=1 ;;
    slow)
      echo "check_regression: FAIL — parallel run more than ${max_pct}% slower than -j 1" >&2
      fail=1 ;;
    *)
      echo "check_regression: FAIL — could not parse $par_fresh" >&2
      fail=1 ;;
  esac
fi

# ------------------------------------------------------------------
# Gate 3: incremental analyses (within-run: identity + no slower)
# ------------------------------------------------------------------

if [ "${SKIP_INCR_GATE:-0}" = 1 ]; then
  echo "check_regression: incr gate skipped (SKIP_INCR_GATE=1)"
else
  # `bench incr` exits non-zero itself when any result differs.
  BENCH_INCR_OUT="$incr_fresh" dune exec bench/main.exe -- incr

  incr_verdict=$(awk '
    /"totals":/ {
      s = $0;  sub(/.*"scratch_s": /, "", s);      sub(/[,} ].*/, "", s)
      i = $0;  sub(/.*"incr_s": /, "", i);         sub(/[,} ].*/, "", i)
      id = $0; sub(/.*"all_identical": /, "", id); sub(/[,} ].*/, "", id)
      if (id != "true") { print "different"; exit }
      if (s == "" || i == "") { print "unparseable"; exit }
      if (i + 0 > s + 0) { print "slow"; exit }
      print "ok"; exit
    }' "$incr_fresh")

  case "$incr_verdict" in
    ok) echo "check_regression: incr gate OK" ;;
    different)
      echo "check_regression: FAIL — incremental analyses differ from from-scratch" >&2
      fail=1 ;;
    slow)
      echo "check_regression: FAIL — incremental analyses slower than from-scratch" >&2
      fail=1 ;;
    *)
      echo "check_regression: FAIL — could not parse $incr_fresh" >&2
      fail=1 ;;
  esac
fi

# ------------------------------------------------------------------
# Gate 4: observation exports (validity + cross -j determinism)
# ------------------------------------------------------------------

if [ "${SKIP_OBS_GATE:-0}" = 1 ]; then
  echo "check_regression: obs gate skipped (SKIP_OBS_GATE=1)"
else
  dune build bin/lookahead_opt.exe
  obs_circuit="${OBS_GATE_CIRCUIT:-lsu_stb_ctl_flat}"
  obs_trace="${OBS_TRACE_OUT:-BENCH_obs_trace.json}"

  # --time-limit 0: a deadline cut depends on wall-clock scheduling,
  # which is exactly what the identity check must rule out.
  dune exec bin/lookahead_opt.exe -- opt -c "$obs_circuit" --time-limit 0 \
    -j 1 --stats --report "$obs_r1" --trace "$obs_trace" >/dev/null
  dune exec bin/lookahead_opt.exe -- opt -c "$obs_circuit" --time-limit 0 \
    -j 4 --report "$obs_r4" >/dev/null

  obs_ok=1
  dune exec bench/main.exe -- check-report "$obs_r1" || obs_ok=0
  dune exec bench/main.exe -- check-report "$obs_r4" || obs_ok=0
  dune exec bench/main.exe -- check-trace "$obs_trace" || obs_ok=0
  dune exec bench/main.exe -- compare-reports "$obs_r1" "$obs_r4" || obs_ok=0

  if [ "$obs_ok" = 1 ]; then
    echo "check_regression: obs gate OK (trace at $obs_trace)"
  else
    echo "check_regression: FAIL — observation exports invalid or nondeterministic" >&2
    fail=1
  fi
fi

# ------------------------------------------------------------------
# Gate 5: degradation ladder (faulted completion + cross -j identity)
# ------------------------------------------------------------------

if [ "${SKIP_GUARD_GATE:-0}" = 1 ]; then
  echo "check_regression: guard gate skipped (SKIP_GUARD_GATE=1)"
else
  guard_inject="${GUARD_GATE_INJECT:-bdd@500:r}"

  # Each table2-guard cell asserts CEC-equivalence itself, so a clean
  # exit here IS the completion+CEC half of the gate.
  dune exec bench/main.exe -- table2-guard --inject "$guard_inject" \
    -j 1 --report "$guard_r1" >/dev/null
  dune exec bench/main.exe -- table2-guard --inject "$guard_inject" \
    -j 4 --report "$guard_r4" >/dev/null

  guard_ok=1
  dune exec bench/main.exe -- check-report "$guard_r1" || guard_ok=0
  dune exec bench/main.exe -- check-report "$guard_r4" || guard_ok=0
  dune exec bench/main.exe -- compare-reports "$guard_r1" "$guard_r4" \
    || guard_ok=0

  # The fault must actually have fired, or the gate checks nothing.
  if ! grep -q '"guard.injected.bdd_blowup":[1-9]' "$guard_r1"; then
    echo "check_regression: FAIL — injected fault ($guard_inject) never fired" >&2
    guard_ok=0
  fi

  if [ "$guard_ok" = 1 ]; then
    echo "check_regression: guard gate OK (inject $guard_inject)"
  else
    echo "check_regression: FAIL — faulted run broke, diverged across -j, or fault unfired" >&2
    fail=1
  fi
fi

# ------------------------------------------------------------------
# Gate 7: job server (warm ≡ cold end-to-end + load/latency)
# ------------------------------------------------------------------

if [ "${SKIP_SERVE_GATE:-0}" = 1 ]; then
  echo "check_regression: serve gate skipped (SKIP_SERVE_GATE=1)"
else
  serve_pct="${SERVE_GATE_PCT:-100}"
  serve_inject="${SERVE_GATE_INJECT:-bdd@500:r}"
  dune build bin/lookahead_opt.exe bin/lookahead_serve.exe
  mkdir -p "$serve_dir"
  serve_ok=1

  # (a) Warm ≡ cold through the real binaries, clean and faulted, with
  # a clean job after the faulted one so leaked fault arming would show.
  for j in 1 4; do
    sock="$serve_dir/gate.$j.sock"
    dune exec bin/lookahead_serve.exe -- run -s "$sock" -j "$j" \
      >/dev/null 2>&1 &
    serve_pid=$!
    i=0
    while [ ! -S "$sock" ] && [ "$i" -lt 100 ]; do sleep 0.1; i=$((i+1)); done
    if [ ! -S "$sock" ]; then
      echo "check_regression: FAIL — serve gate: server did not start (-j $j)" >&2
      kill "$serve_pid" 2>/dev/null || true
      serve_ok=0
      continue
    fi

    dune exec bin/lookahead_opt.exe -- opt --adder cla:16 --time-limit 0 \
      -j "$j" --report "$serve_dir/cold.json" -o "$serve_dir/cold.blif" \
      >/dev/null
    dune exec bin/lookahead_opt.exe -- opt --adder cla:16 --time-limit 0 \
      -j "$j" --inject "$serve_inject" --report "$serve_dir/coldf.json" \
      -o "$serve_dir/coldf.blif" >/dev/null 2>&1

    dune exec bin/lookahead_serve.exe -- submit -s "$sock" --adder cla:16 \
      --time-limit 0 --report "$serve_dir/w1.json" -o "$serve_dir/w1.blif" \
      >/dev/null
    dune exec bin/lookahead_serve.exe -- submit -s "$sock" --adder cla:16 \
      --time-limit 0 --inject "$serve_inject" --report "$serve_dir/wf.json" \
      -o "$serve_dir/wf.blif" >/dev/null 2>&1
    dune exec bin/lookahead_serve.exe -- submit -s "$sock" --adder cla:16 \
      --time-limit 0 --report "$serve_dir/w2.json" -o "$serve_dir/w2.blif" \
      >/dev/null

    dune exec bin/lookahead_serve.exe -- shutdown -s "$sock" >/dev/null 2>&1 \
      || true
    wait "$serve_pid" || true

    for pair in "cold w1" "cold w2" "coldf wf"; do
      c=${pair% *}; w=${pair#* }
      if ! cmp -s "$serve_dir/$c.blif" "$serve_dir/$w.blif"; then
        echo "check_regression: FAIL — serve gate: warm $w BLIF differs from cold $c (-j $j)" >&2
        serve_ok=0
      fi
      if ! dune exec bench/main.exe -- compare-reports \
             "$serve_dir/$c.json" "$serve_dir/$w.json" >/dev/null; then
        echo "check_regression: FAIL — serve gate: warm $w report differs from cold $c (-j $j)" >&2
        serve_ok=0
      fi
    done
  done

  # (b) Load bench: completion + in-process identity are asserted by the
  # bench itself (non-zero exit); the latency gate compares clean p95
  # against the checked-in baseline.
  baseline=BENCH_serve.json
  if [ ! -f "$baseline" ]; then
    echo "check_regression: no baseline $baseline (run: dune exec bench/main.exe serve)" >&2
    serve_ok=0
  elif BENCH_SERVE_OUT="$serve_fresh" dune exec bench/main.exe -- serve -j 2
  then
    field() { # field <file> <key> -> value (first occurrence)
      awk -v k="\"$2\":" '
        index($0, k) {
          v = substr($0, index($0, k) + length(k))
          sub(/^[ ]*/, "", v); sub(/[,} ].*/, "", v)
          print v; exit
        }' "$1"
    }
    clean_p95() { # clean_p95 <file> -> p95_ms of the clean class
      awk '/"clean":/ {
        v = $0; sub(/.*"p95_ms": /, "", v); sub(/[,} ].*/, "", v)
        print v; exit
      }' "$1"
    }
    base_jobs=$(field "$baseline" jobs)
    fresh_jobs=$(field "$serve_fresh" jobs)
    base_p95=$(clean_p95 "$baseline")
    fresh_p95=$(clean_p95 "$serve_fresh")
    if [ "$(field "$serve_fresh" all_completed)" != true ] ||
       [ "$(field "$serve_fresh" all_identical)" != true ]; then
      echo "check_regression: FAIL — serve gate: load bench incomplete or nonidentical" >&2
      serve_ok=0
    elif [ "$fresh_jobs" != "$base_jobs" ]; then
      echo "serve latency comparison skipped: fresh run has $fresh_jobs jobs, baseline $base_jobs"
    elif [ -z "$base_p95" ] || [ -z "$fresh_p95" ]; then
      echo "check_regression: FAIL — serve gate: could not extract p95 (base='$base_p95' fresh='$fresh_p95')" >&2
      serve_ok=0
    else
      echo "serve clean p95: baseline ${base_p95}ms, fresh ${fresh_p95}ms (limit +${serve_pct}%)"
      if ! awk -v o="$base_p95" -v n="$fresh_p95" -v p="$serve_pct" \
           'BEGIN { exit !(n <= o * (1 + p / 100.0)) }'; then
        echo "check_regression: FAIL — serve gate: clean p95 regressed more than ${serve_pct}% (${base_p95}ms -> ${fresh_p95}ms)" >&2
        serve_ok=0
      fi
    fi
  else
    echo "check_regression: FAIL — serve gate: load bench failed" >&2
    serve_ok=0
  fi

  if [ "$serve_ok" = 1 ]; then
    echo "check_regression: serve gate OK"
  else
    fail=1
  fi
fi

# ------------------------------------------------------------------
# Gate 8: incremental SAT core (identity, -j det stats, speed, reduction)
# ------------------------------------------------------------------

if [ "${SKIP_SAT_GATE:-0}" = 1 ]; then
  echo "check_regression: sat gate skipped (SKIP_SAT_GATE=1)"
else
  sat_pct="${SAT_GATE_PCT:-0}"
  sat_ok=1

  # (a) The bench asserts sweep equivalence and seed-BLIF md5 identity
  # itself (non-zero exit on violation), at both pool sizes.
  if ! BENCH_SAT_OUT="$sat_r1" dune exec bench/main.exe -- sat -j 1; then
    echo "check_regression: FAIL — sat gate: bench failed at -j 1" >&2
    sat_ok=0
  fi
  if ! BENCH_SAT_OUT="$sat_r4" dune exec bench/main.exe -- sat -j 4 \
       >/dev/null; then
    echo "check_regression: FAIL — sat gate: bench failed at -j 4" >&2
    sat_ok=0
  fi

  if [ "$sat_ok" = 1 ]; then
    # (b) Det-class solver stats must be byte-identical across -j.
    grep -o '"det": {[^}]*}' "$sat_r1" > "$sat_r1.det"
    grep -o '"det": {[^}]*}' "$sat_r4" > "$sat_r4.det"
    if ! cmp -s "$sat_r1.det" "$sat_r4.det"; then
      echo "check_regression: FAIL — sat gate: det solver stats differ between -j 1 and -j 4" >&2
      sat_ok=0
    fi

    sat_field() { # sat_field <file> <key> -> value from the totals line
      awk -v k="\"$2\":" '
        /"totals":/ && index($0, k) {
          v = substr($0, index($0, k) + length(k))
          sub(/^[ ]*/, "", v); sub(/[,} ].*/, "", v)
          print v; exit
        }' "$1"
    }

    # (c) Miter total within bound of the recorded seed total.
    fresh_s=$(sat_field "$sat_r1" miter_s)
    seed_s=$(sat_field "$sat_r1" baseline_miter_s)
    if [ -z "$fresh_s" ] || [ -z "$seed_s" ]; then
      echo "check_regression: FAIL — sat gate: could not extract miter totals" >&2
      sat_ok=0
    else
      echo "sat miters: seed ${seed_s}s, fresh ${fresh_s}s (limit +${sat_pct}%)"
      if ! awk -v o="$seed_s" -v n="$fresh_s" -v p="$sat_pct" \
           'BEGIN { exit !(n <= o * (1 + p / 100.0)) }'; then
        echo "check_regression: FAIL — sat gate: miter total ${fresh_s}s exceeds seed ${seed_s}s (+${sat_pct}%)" >&2
        sat_ok=0
      fi
    fi

    # (d) Database reduction must actually fire — in the bench...
    if [ "$(sat_field "$sat_r1" reductions)" = 0 ]; then
      echo "check_regression: FAIL — sat gate: no clause-database reductions in the bench run" >&2
      sat_ok=0
    fi
    # ...and in a full driver flow on a Table 2 circuit.
    dune exec bin/lookahead_opt.exe -- opt -c dalu --time-limit 0 -j 1 \
      --report "$sat_report" >/dev/null
    red=$(grep -o '"sat.reductions":[0-9]*' "$sat_report" | head -1 | cut -d: -f2)
    del=$(grep -o '"sat.learnts_deleted":[0-9]*' "$sat_report" | head -1 | cut -d: -f2)
    if [ "${red:-0}" = 0 ] || [ "${del:-0}" = 0 ]; then
      echo "check_regression: FAIL — sat gate: dalu driver report shows reductions=${red:-?} deleted=${del:-?}" >&2
      sat_ok=0
    fi
  fi

  if [ "$sat_ok" = 1 ]; then
    echo "check_regression: sat gate OK"
  else
    fail=1
  fi
fi

# ------------------------------------------------------------------
# Gate 9: telemetry (overhead bound + journal Det-digest identity)
# ------------------------------------------------------------------

if [ "${SKIP_OBS_TELEM_GATE:-0}" = 1 ]; then
  echo "check_regression: obs-telem gate skipped (SKIP_OBS_TELEM_GATE=1)"
else
  obs_telem_pct="${OBS_TELEM_GATE_PCT:-3}"

  # `bench obs` exits non-zero itself on incompletion, an invalid
  # journal file, or a digest divergence across -j / warm-cold.
  if BENCH_OBS_OUT="$obs_telem_fresh" dune exec bench/main.exe -- obs; then
    overhead=$(awk '
      /"overhead_pct":/ {
        v = $0; sub(/.*"overhead_pct": /, "", v); sub(/[,} ].*/, "", v)
        print v; exit
      }' "$obs_telem_fresh")
    if [ -z "$overhead" ]; then
      echo "check_regression: FAIL — obs-telem gate: could not parse $obs_telem_fresh" >&2
      fail=1
    else
      echo "telemetry overhead: ${overhead}% (limit +${obs_telem_pct}%)"
      if awk -v o="$overhead" -v p="$obs_telem_pct" \
           'BEGIN { exit !(o <= p + 0.0) }'; then
        echo "check_regression: obs-telem gate OK"
      else
        echo "check_regression: FAIL — enabled telemetry costs ${overhead}% (> ${obs_telem_pct}%)" >&2
        fail=1
      fi
    fi
  else
    echo "check_regression: FAIL — obs-telem gate: bench obs failed" >&2
    fail=1
  fi
fi

# ------------------------------------------------------------------
# Gate 10: egraph portfolio (cost floor + cross-j / vs-seed identity)
# ------------------------------------------------------------------

if [ "${SKIP_EGRAPH_GATE:-0}" = 1 ]; then
  echo "check_regression: egraph gate skipped (SKIP_EGRAPH_GATE=1)"
else
  # `bench egraph` exits non-zero itself when any arm or the portfolio
  # breaks equivalence, or when the portfolio's winning cost exceeds
  # the best fixed arm on any circuit.
  egraph_ok=1
  if ! BENCH_EGRAPH_OUT="$egraph_r1" dune exec bench/main.exe -- egraph -j 1
  then
    echo "check_regression: FAIL — egraph gate: bench egraph -j 1 failed" >&2
    egraph_ok=0
  fi
  if ! BENCH_EGRAPH_OUT="$egraph_r4" dune exec bench/main.exe -- egraph -j 4
  then
    echo "check_regression: FAIL — egraph gate: bench egraph -j 4 failed" >&2
    egraph_ok=0
  fi

  if [ "$egraph_ok" = 1 ]; then
    # The JSON carries no wall-clock fields, so byte identity is the
    # determinism check: same winners, costs, arm maps and winner-BLIF
    # md5s no matter the pool size, and no drift against the seed.
    if ! cmp -s "$egraph_r1" "$egraph_r4"; then
      echo "check_regression: FAIL — egraph gate: -j 1 and -j 4 outputs differ" >&2
      egraph_ok=0
    fi
    if ! cmp -s "$egraph_r1" BENCH_egraph.json; then
      echo "check_regression: FAIL — egraph gate: output differs from checked-in BENCH_egraph.json" >&2
      egraph_ok=0
    fi
  fi

  if [ "$egraph_ok" = 1 ]; then
    echo "check_regression: egraph gate OK"
  else
    fail=1
  fi
fi

exit "$fail"
