#!/bin/sh
# Correctness and within-run regression gates. Wall-clock trends against
# the parent commit are perfbench's job (python3 perfbench/run.py, ledger
# perfbench/LEDGER.json); every check here compares a run with itself,
# with another pool size, or with a machine-independent seed.
#
# Gate 2 (par): runs `bench/main.exe par` (table1 + the table2 fast
# subset, minus C432 and with the anytime deadline disabled so results
# cannot depend on wall-clock scheduling, at several domain-pool sizes;
# BENCH_PAR_JOBS overrides the sizes, default here "1 4" to keep the
# gate affordable; the list must include 1), which exits non-zero when
# either (a) any -j N output is not bit-identical to the -j 1 output —
# the lib/par determinism contract — or (b) the largest pool is more
# than 25 % slower than -j 1, i.e. the parallel runtime's overhead
# regressed. Both checks are within-run, so the gate is meaningful on
# any machine, single-core hosts included.
#
# Gate 3 (incr): runs `bench/main.exe incr` (the dirty-region analysis
# engines vs their from-scratch equivalents on the Table 2 fast subset),
# which exits non-zero when (a) any incremental result is not
# bit-identical to the from-scratch one, or (b) the incremental total is
# slower than the from-scratch total — the engines exist to be faster,
# so parity is the floor. Both checks are within-run.
#
# Gate 4 (obs): runs the optimizer on lsu_stb_ctl_flat with
# --stats/--report/--trace at -j 1 and -j 4 (deadline disabled), then
# validates both JSON exports with the bench validators (schema, types,
# counter invariants like bdd hits + misses = lookups, trace-event
# well-formedness) and requires the two reports' "deterministic"
# subtrees to be byte-identical — the lib/obs determinism contract.
# The -j 1 trace is left at BENCH_obs_trace.json for CI to archive.
#
# Gate 5 (guard): runs the table2 fast subset with a mid-run injected
# BDD blowup (`bench/main.exe table2-guard --inject bdd@500:r`, deadline
# disabled) at -j 1 and -j 4. Every cell of that target CEC-checks its
# output against its input, so mere completion is the completion+CEC
# check; on top of that the gate requires (a) the injected-fault
# counter to actually be non-zero in the report — a silently unfired
# fault would make the gate vacuous — and (b) the two reports'
# deterministic subtrees to be byte-identical, i.e. degraded runs obey
# the same -j identity contract as healthy ones.
#
# Gate numbers skip 1 and 6: the later gates keep the numbers that
# DESIGN.md and EXPERIMENTS.md cite.
#
# Gate 7 (serve): warm ≡ cold, end to end through the real binaries: at
# -j 1 and -j 4 it starts `lookahead_serve run` on a scratch Unix
# socket, submits a clean cla:16 job, a fault-injected one, and a clean
# one again (so a leaked fault arming would show), and requires every
# warm BLIF to be byte-identical (`cmp`) and every warm report's
# deterministic subtree identical (`compare-reports`) to the one-shot
# `lookahead_opt opt` run of the same spec.
#
# Gate 8 (sat): the incremental CDCL core. Runs `bench/main.exe sat`
# (the sweep kernel on the Table 2 fast subset plus SAT-bound
# cross-architecture miters) at -j 1 and -j 4. The bench itself exits
# non-zero when a sweep loses equivalence, a swept BLIF's md5 differs
# from the seed solver's (the md5s are machine-independent, so this is
# the bit-identical-BLIF check against the pre-arena core), the miter
# total exceeds the recorded seed total (0 % slack — the rewrite is ~5x
# faster, so that leaves a several-fold margin for slow hosts), or no
# clause-database reduction fired. On top the gate requires (a) the
# "det" solver-stat objects of the two runs to be byte-identical —
# conflict counts, reductions, deletions and arena peaks are Det-class
# and must not depend on the pool size; and (b) nonzero sat.reductions
# / sat.learnts_deleted in a full driver report on a Table 2 circuit
# (dalu).
#
# Gate 9 (obs-telem): the telemetry layer. Runs `bench/main.exe obs`
# (an adder job mix through an in-process engine, journaling off vs
# journaling to a rotated JSONL file with periodic Metrics scrapes),
# which exits non-zero unless every job completes, the journal file
# validates, the journal's Det digest is identical across warm -j 1,
# warm -j 4 and cold runs, and enabled telemetry costs at most 3 % of
# the disabled baseline — production telemetry must be near-free. The
# overhead is the median of five off/on pairs whose order alternates,
# so neither side always runs on the warmer process.
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
# Usage: bench/check_regression.sh
# Skip a gate with SKIP_PAR_GATE=1 / SKIP_INCR_GATE=1 / SKIP_OBS_GATE=1
# / SKIP_GUARD_GATE=1 / SKIP_SERVE_GATE=1 / SKIP_SAT_GATE=1 /
# SKIP_OBS_TELEM_GATE=1 / SKIP_EGRAPH_GATE=1.
set -eu

cd "$(dirname "$0")/.."

if [ "$#" -ne 0 ]; then
  echo "usage: bench/check_regression.sh (no arguments; see the header)" >&2
  exit 2
fi

fail=0
inject=bdd@500:r

dune build bench/main.exe

par_fresh="${TMPDIR:-/tmp}/BENCH_par.fresh.$$.json"
incr_fresh="${TMPDIR:-/tmp}/BENCH_incr.fresh.$$.json"
obs_r1="${TMPDIR:-/tmp}/BENCH_obs.r1.$$.json"
obs_r4="${TMPDIR:-/tmp}/BENCH_obs.r4.$$.json"
guard_r1="${TMPDIR:-/tmp}/BENCH_guard.r1.$$.json"
guard_r4="${TMPDIR:-/tmp}/BENCH_guard.r4.$$.json"
serve_dir="${TMPDIR:-/tmp}/serve_gate.$$"
sat_r1="${TMPDIR:-/tmp}/BENCH_sat.r1.$$.json"
sat_r4="${TMPDIR:-/tmp}/BENCH_sat.r4.$$.json"
sat_report="${TMPDIR:-/tmp}/BENCH_sat.report.$$.json"
obs_telem_fresh="${TMPDIR:-/tmp}/BENCH_obs.fresh.$$.json"
egraph_r1="${TMPDIR:-/tmp}/BENCH_egraph.r1.$$.json"
egraph_r4="${TMPDIR:-/tmp}/BENCH_egraph.r4.$$.json"
trap 'rm -f "$par_fresh" "$incr_fresh" "$obs_r1" "$obs_r4" \
  "$guard_r1" "$guard_r4" \
  "$sat_r1" "$sat_r4" "$sat_report" "$sat_r1.det" "$sat_r4.det" \
  "$obs_telem_fresh" "$egraph_r1" "$egraph_r4"; \
  rm -rf "$serve_dir"' EXIT

# ------------------------------------------------------------------
# Gate 2: parallel runtime (within-run: determinism + overhead)
# ------------------------------------------------------------------

if [ "${SKIP_PAR_GATE:-0}" = 1 ]; then
  echo "check_regression: par gate skipped (SKIP_PAR_GATE=1)"
elif BENCH_PAR_OUT="$par_fresh" BENCH_PAR_JOBS="${BENCH_PAR_JOBS:-1 4}" \
       dune exec bench/main.exe -- par; then
  echo "check_regression: par gate OK"
else
  echo "check_regression: FAIL — parallel output differs from -j 1, or the largest pool is more than 25% slower" >&2
  fail=1
fi

# ------------------------------------------------------------------
# Gate 3: incremental analyses (within-run: identity + no slower)
# ------------------------------------------------------------------

if [ "${SKIP_INCR_GATE:-0}" = 1 ]; then
  echo "check_regression: incr gate skipped (SKIP_INCR_GATE=1)"
elif BENCH_INCR_OUT="$incr_fresh" dune exec bench/main.exe -- incr; then
  echo "check_regression: incr gate OK"
else
  echo "check_regression: FAIL — incremental analyses differ from or are slower than from-scratch" >&2
  fail=1
fi

# ------------------------------------------------------------------
# Gate 4: observation exports (validity + cross -j determinism)
# ------------------------------------------------------------------

if [ "${SKIP_OBS_GATE:-0}" = 1 ]; then
  echo "check_regression: obs gate skipped (SKIP_OBS_GATE=1)"
else
  dune build bin/lookahead_opt.exe
  obs_circuit=lsu_stb_ctl_flat
  obs_trace=BENCH_obs_trace.json

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
  # Each table2-guard cell asserts CEC-equivalence itself, so a clean
  # exit here IS the completion+CEC half of the gate.
  dune exec bench/main.exe -- table2-guard --inject "$inject" \
    -j 1 --report "$guard_r1" >/dev/null
  dune exec bench/main.exe -- table2-guard --inject "$inject" \
    -j 4 --report "$guard_r4" >/dev/null

  guard_ok=1
  dune exec bench/main.exe -- check-report "$guard_r1" || guard_ok=0
  dune exec bench/main.exe -- check-report "$guard_r4" || guard_ok=0
  dune exec bench/main.exe -- compare-reports "$guard_r1" "$guard_r4" \
    || guard_ok=0

  # The fault must actually have fired, or the gate checks nothing.
  if ! grep -q '"guard.injected.bdd_blowup":[1-9]' "$guard_r1"; then
    echo "check_regression: FAIL — injected fault ($inject) never fired" >&2
    guard_ok=0
  fi

  if [ "$guard_ok" = 1 ]; then
    echo "check_regression: guard gate OK (inject $inject)"
  else
    echo "check_regression: FAIL — faulted run broke, diverged across -j, or fault unfired" >&2
    fail=1
  fi
fi

# ------------------------------------------------------------------
# Gate 7: job server (warm ≡ cold end-to-end)
# ------------------------------------------------------------------

if [ "${SKIP_SERVE_GATE:-0}" = 1 ]; then
  echo "check_regression: serve gate skipped (SKIP_SERVE_GATE=1)"
else
  dune build bin/lookahead_opt.exe bin/lookahead_serve.exe
  mkdir -p "$serve_dir"
  serve_ok=1

  # Warm ≡ cold through the real binaries, clean and faulted, with a
  # clean job after the faulted one so leaked fault arming would show.
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
      -j "$j" --inject "$inject" --report "$serve_dir/coldf.json" \
      -o "$serve_dir/coldf.blif" >/dev/null 2>&1

    dune exec bin/lookahead_serve.exe -- submit -s "$sock" --adder cla:16 \
      --time-limit 0 --report "$serve_dir/w1.json" -o "$serve_dir/w1.blif" \
      >/dev/null
    dune exec bin/lookahead_serve.exe -- submit -s "$sock" --adder cla:16 \
      --time-limit 0 --inject "$inject" --report "$serve_dir/wf.json" \
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
  sat_ok=1

  # The bench asserts sweep equivalence, seed-BLIF md5 identity, the
  # miter total against the seed and nonzero reductions itself
  # (non-zero exit on violation), at both pool sizes.
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
    # (a) Det-class solver stats must be byte-identical across -j.
    grep -o '"det": {[^}]*}' "$sat_r1" > "$sat_r1.det"
    grep -o '"det": {[^}]*}' "$sat_r4" > "$sat_r4.det"
    if ! cmp -s "$sat_r1.det" "$sat_r4.det"; then
      echo "check_regression: FAIL — sat gate: det solver stats differ between -j 1 and -j 4" >&2
      sat_ok=0
    fi

    # (b) Database reduction must fire in a full driver flow on a
    # Table 2 circuit, not only in the bench.
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
elif BENCH_OBS_OUT="$obs_telem_fresh" dune exec bench/main.exe -- obs; then
  echo "check_regression: obs-telem gate OK"
else
  echo "check_regression: FAIL — obs-telem gate: bench obs failed" >&2
  fail=1
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
