#!/bin/sh
# Correctness and within-run regression gates. Every check compares a
# run with itself, with another pool size, or with a machine-independent
# seed; wall-clock trends against the parent commit are perfbench's job
# (python3 perfbench/run.py, ledger perfbench/LEDGER.json).
#
# Gates 2, 3, 5, 8, 9 and 10 are one bench/main.exe target each, which
# exits non-zero on its own checks (see the target in bench/main.ml);
# run the target to run that gate alone. par, table2-guard, sat and
# egraph run their workload at every pool size in BENCH_PAR_JOBS
# (default "1 4") in one process and require the result and the report's
# deterministic subtree to be identical across them.
#
#   2  par           table1 + table2 fast subset (no C432, no deadline);
#                    the largest pool at most 25 % slower than -j 1
#   3  incr          incremental analyses identical to from-scratch and
#                    no slower in total
#   4  (shell)       lookahead_opt --report/--trace at -j 1 and -j 4: the
#                    exports validate and the deterministic subtrees match;
#                    the -j 1 trace stays at BENCH_obs_trace.json for CI
#   5  table2-guard  the fast subset with an injected BDD blowup: every
#                    cell CEC-checked, the fault fired
#   7  (shell)       one job sequence across processes: run cold in a
#                    fresh lookahead_opt opt and warm on a lookahead_serve
#                    executor, clean and faulted (BLIF cmp, reports)
#   8  sat           sweep kernel and miters: equivalence, seed md5s, miter
#                    total under the seed's, reductions fire; a dalu driver
#                    run reduces and deletes learnts
#   9  obs           telemetry overhead at most 3 %, the journal validates,
#                    its Det digest matches across -j and warm/cold
#   10 egraph        the portfolio never worse than the best fixed arm; the
#                    rows equal BENCH_egraph.json (a mismatch rewrites it)
#
# There are no gates 1 and 6; the others keep the numbers that DESIGN.md
# and EXPERIMENTS.md cite.
#
# Usage: bench/check_regression.sh
set -eu

cd "$(dirname "$0")/.."

if [ "$#" -ne 0 ]; then
  echo "usage: bench/check_regression.sh (no arguments; see the header)" >&2
  exit 2
fi

fail=0
inject=bdd@500:r

dune build bench/main.exe bin/lookahead_opt.exe bin/lookahead_serve.exe

obs_r1="${TMPDIR:-/tmp}/BENCH_obs.r1.$$.json"
obs_r4="${TMPDIR:-/tmp}/BENCH_obs.r4.$$.json"
serve_dir="${TMPDIR:-/tmp}/serve_gate.$$"
trap 'rm -f "$obs_r1" "$obs_r4"; rm -rf "$serve_dir"' EXIT

# gate NAME TARGET [ARGS...]: one bench target is the whole gate.
gate() {
  name=$1
  shift
  if dune exec bench/main.exe -- "$@"; then
    echo "check_regression: $name gate OK"
  else
    echo "check_regression: FAIL — $name gate (bench/main.exe $*)" >&2
    fail=1
  fi
}

gate par par
gate incr incr

# ------------------------------------------------------------------
# Gate 4: observation exports (validity + cross -j determinism)
# ------------------------------------------------------------------

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

gate guard table2-guard --inject "$inject"

# ------------------------------------------------------------------
# Gate 7: job server (warm ≡ cold end-to-end)
# ------------------------------------------------------------------

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

gate sat sat
gate obs-telem obs
gate egraph egraph

exit "$fail"
