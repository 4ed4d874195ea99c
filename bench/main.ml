(* Benchmark harness: regenerates every table of the paper's evaluation
   and runs the correctness workloads behind bench/check_regression.sh.
   Wall-clock trends live in perfbench/ (python3 perfbench/run.py, ledger
   perfbench/LEDGER.json); per-run phase times in lookahead_opt --report.

   Usage:
     dune exec bench/main.exe                 -- regenerate all tables (fast set)
     dune exec bench/main.exe table1          -- Table 1 only
     dune exec bench/main.exe table2          -- Table 2 (fast subset)
     dune exec bench/main.exe table2-full     -- Table 2, all 15 circuits
     dune exec bench/main.exe table2-guard    -- Table 2 fast subset minus
                                                 C432, no deadline, for
                                                 --inject runs (gate 5)
     dune exec bench/main.exe ablation        -- design-choice ablations
     dune exec bench/main.exe extension       -- other serial-prefix shapes
     dune exec bench/main.exe egraph          -- portfolio vs each fixed
                                                 optimizer on the fast subset
                                                 minus C432, checked against
                                                 BENCH_egraph.json (gate 10)
     dune exec bench/main.exe par             -- parallel-runtime scaling and
                                                 overhead (gate 2)
     dune exec bench/main.exe incr            -- incremental analyses vs
                                                 from-scratch (gate 3)
     dune exec bench/main.exe sat             -- incremental SAT core: the
                                                 sweep kernel (3x sat_sweep +
                                                 cec, Det stats + swept-BLIF
                                                 md5 vs the seed solver),
                                                 SAT-bound cross-architecture
                                                 miters, and database
                                                 reduction in a dalu driver
                                                 run (gate 8)
     dune exec bench/main.exe obs             -- telemetry cost + journal
                                                 determinism: engine runs with
                                                 journaling off vs on (+ live
                                                 Metrics scrapes), then the
                                                 journal Det digest across
                                                 -j 1/4 and warm/cold (gate 9)
     dune exec bench/main.exe all             -- table1 + table2 + ablation
     dune exec bench/main.exe all-full        -- table1 + table2-full +
                                                 ablation + extension

   Every gate target exits non-zero when one of its own checks fails; an
   unknown target exits 2 before any runs.

   par, table2-guard, sat and egraph are identity checks: each runs its
   workload once per pool size in BENCH_PAR_JOBS (default "1 4"; the
   list must include 1), in one process, and exits 1 naming the first
   differing path unless the workload's result and the report's
   deterministic subtree are equal at every size (see [across_jobs]).

   Observation (lib/obs) plumbing:
     --stats / --report FILE / --trace FILE   -- record counters + phase spans
                                                 while running the targets and
                                                 export them at the end (an
                                                 identity target resets the
                                                 recording before each run,
                                                 so it exports its last run)
     check-report FILE                        -- validate a --report JSON file
                                                 (schema, types, invariants)
     check-trace FILE                         -- validate a --trace JSON file
     check-exposition FILE                    -- validate a Prometheus-style
                                                 metrics exposition (the
                                                 server's `metrics` output)
     check-journal FILE                       -- validate a JSONL job journal
                                                 (--journal / Obs.Journal)
     compare-reports A B                      -- compare the deterministic
                                                 subtrees of two reports

   `-j N` (or `--jobs N`, or LOOKAHEAD_JOBS=N) sets the domain-pool
   size for the other targets; `-j 1` bypasses the pool entirely. Tables
   are bit-identical at any -j: every (circuit x tool) cell is an
   independent pool job that builds its circuit itself, and results are
   assembled in submission order (see lib/par). The one exception is
   the anytime deadline (Driver.options.time_limit_s): a run the
   deadline cuts short is a function of wall-clock scheduling by
   construction, so the identity workloads disable the deadline and
   drop the one fast-subset circuit (C432) whose run is only bounded by
   it.

   Absolute numbers differ from the paper (synthetic substrates, see
   DESIGN.md); the shape — which tool wins, by roughly what factor — is
   the reproduction target and is recorded in EXPERIMENTS.md. *)

(* The four table tools, picked through the [-t] dispatch both CLIs
   use; [options] reaches the lookahead arm only. *)
let tools ~options : (string * (Aig.t -> Aig.t)) list =
  List.map
    (fun (label, spec) -> (label, Serve.Run.tool ~options spec))
    [ ("SIS", "sis"); ("ABC", "abc"); ("DC", "dc"); ("Lookahead", "lookahead") ]

(* Driver options with the anytime deadline disabled. The deadline
   makes cut-short results depend on wall-clock scheduling, so the
   cross-[-j] identity checks must run a workload where it can never
   fire. The driver terminates without it (the round loops are
   depth-improvement fixpoints with bounded budgets); the deadline only
   matters for circuits like C432 where convergence is slower than
   anyone wants to wait. *)
let nolimit = { Lookahead.Driver.default with time_limit_s = infinity }

type metrics = { gates : int; levels : int; delay : float; power : float }

let measure g =
  let netlist = Techmap.Mapper.map g in
  {
    gates = Aig.num_reachable_ands g;
    levels = Aig.depth g;
    delay = Techmap.Mapper.delay netlist;
    power = Techmap.Power.dynamic_mw netlist;
  }

(* ------------------------------------------------------------------ *)
(* Table 1: best AIG levels for n-bit ripple-carry adders.             *)
(* ------------------------------------------------------------------ *)

let table1 ?(options = Lookahead.Driver.default) () =
  let tools = tools ~options in
  print_endline
    "== Table 1: AIG levels after timing optimization, n-bit adders ==";
  Printf.printf "%-4s %-8s %-6s %-6s %-6s %-10s\n" "n" "Optimum" "SIS" "ABC"
    "DC" "Lookahead";
  let ns = [ 2; 4; 8; 16 ] in
  (* Every (adder size x tool) cell is one pool job. The job rebuilds
     its adder instead of sharing one graph across domains (generation
     is deterministic, so the results are unchanged); the CEC assert
     rides in the job and its failure propagates out of the await. *)
  let cells =
    Par.map_list
      (fun (n, (_, f)) ->
        let rca = Circuits.Adders.ripple_carry n in
        let o = f rca in
        assert (Aig.Cec.equivalent rca o);
        Aig.depth o)
      (List.concat_map (fun n -> List.map (fun t -> (n, t)) tools) ns)
  in
  List.iteri
    (fun i n ->
      let optimum = Circuits.Adders.optimum_levels n in
      match List.filteri (fun j _ -> j / List.length tools = i) cells with
      | [ sis; abc; dc; la ] ->
        Printf.printf "%-4d %-8d %-6d %-6d %-6d %-10d\n%!" n optimum sis abc
          dc la
      | _ -> assert false)
    ns;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Table 2: the 15-circuit comparison.                                 *)
(* ------------------------------------------------------------------ *)

let fast_subset =
  [
    "dalu"; "C432"; "C880"; "C1355"; "C1908"; "sparc_tlu_intctl_flat";
    "lsu_stb_ctl_flat";
  ]

(* The identity workloads' circuits: C432 is the one fast-subset circuit
   only the anytime deadline bounds (see [nolimit]). *)
let fast_subset_nolimit =
  List.filter (fun n -> not (String.equal n "C432")) fast_subset

let table2 ?(options = Lookahead.Driver.default) ?names ~full () =
  let tools = tools ~options in
  Printf.printf
    "== Table 2: comparison with the best SIS / ABC / DC results%s ==\n"
    (if full then "" else " (fast subset; use table2-full for all 15)");
  Printf.printf "%-24s %-7s | %25s | %25s | %25s | %25s\n" "" "" "SIS" "ABC"
    "DC" "Lookahead";
  Printf.printf
    "%-24s %-7s | %5s %4s %7s %6s | %5s %4s %7s %6s | %5s %4s %7s %6s | %5s %4s %7s %6s\n"
    "Name" "PI/PO" "gates" "lev" "delay" "power" "gates" "lev" "delay" "power"
    "gates" "lev" "delay" "power" "gates" "lev" "delay" "power";
  let names =
    match names with
    | Some ns -> ns
    | None ->
      if full then
        List.map
          (fun (i : Circuits.Suite.info) -> i.Circuits.Suite.name)
          Circuits.Suite.all
      else fast_subset
  in
  let sums = Hashtbl.create 8 in
  let add tool field v =
    let key = (tool, field) in
    let prev = try Hashtbl.find sums key with Not_found -> 0.0 in
    Hashtbl.replace sums key (prev +. v)
  in
  (* Fan out the (circuit x tool) cells on the pool. Each job builds
     its own circuit (Suite.build is deterministic), optimizes, checks
     equivalence and maps — nothing is shared across domains. Printing
     and the float accumulations stay sequential in submission order, so
     the table (sums included, addition order and all) is bit-identical
     at any -j. *)
  let cells =
    Par.map_list
      (fun (name, (_tool, f)) ->
        let g = Circuits.Suite.build name in
        let o = f g in
        assert (Aig.Cec.equivalent g o);
        measure o)
      (List.concat_map (fun n -> List.map (fun t -> (n, t)) tools) names)
  in
  List.iteri
    (fun i name ->
      let info = Circuits.Suite.find name in
      let row =
        List.filteri (fun j _ -> j / List.length tools = i) cells
      in
      List.iter2
        (fun (tool, _) m ->
          add tool "gates" (float_of_int m.gates);
          add tool "levels" (float_of_int m.levels);
          add tool "delay" m.delay;
          add tool "power" m.power)
        tools row;
      Printf.printf "%-24s %3d/%-3d" name info.Circuits.Suite.pi
        info.Circuits.Suite.po;
      List.iter
        (fun m ->
          Printf.printf " | %5d %4d %7.1f %6.3f" m.gates m.levels m.delay
            m.power)
        row;
      print_newline ();
      flush stdout)
    names;
  let n = float_of_int (List.length names) in
  Printf.printf "%-24s %7s" "Average" "";
  List.iter
    (fun (tool, _) ->
      Printf.printf " | %5.0f %4.1f %7.1f %6.3f"
        (Hashtbl.find sums (tool, "gates") /. n)
        (Hashtbl.find sums (tool, "levels") /. n)
        (Hashtbl.find sums (tool, "delay") /. n)
        (Hashtbl.find sums (tool, "power") /. n))
    tools;
  print_newline ();
  (* Headline reductions, paper Sec. 5: levels -40/-56/-22 %,
     mapped delay -21/-56/-10 %, power +10 % vs DC. *)
  let avg tool field = Hashtbl.find sums (tool, field) /. n in
  let reduction field against =
    100.0 *. (avg against field -. avg "Lookahead" field) /. avg against field
  in
  Printf.printf
    "\nLookahead level reduction: %+.0f%% vs SIS, %+.0f%% vs ABC, %+.0f%% vs \
     DC (paper: 40/56/22)\n"
    (reduction "levels" "SIS")
    (reduction "levels" "ABC")
    (reduction "levels" "DC");
  Printf.printf
    "Lookahead delay reduction: %+.0f%% vs SIS, %+.0f%% vs ABC, %+.0f%% vs DC \
     (paper: 21/56/10)\n"
    (reduction "delay" "SIS")
    (reduction "delay" "ABC")
    (reduction "delay" "DC");
  Printf.printf "Lookahead power vs DC    : %+.0f%% (paper: +10%%)\n\n"
    (100.0
    *. (avg "Lookahead" "power" -. avg "DC" "power")
    /. avg "DC" "power")

(* ------------------------------------------------------------------ *)
(* Ablations of the design choices called out in DESIGN.md.            *)
(* ------------------------------------------------------------------ *)

let ablation () =
  print_endline "== Ablations (lookahead design choices) ==";
  let base = Lookahead.Driver.default in
  let variants =
    [
      ("default", base);
      ( "single-level (no Eqn.2 flattening)",
        { base with Lookahead.Driver.max_decomp_levels = 1 } );
      ("cluster k=4", { base with Lookahead.Driver.cluster_k = 4 });
      ("cluster k=8", { base with Lookahead.Driver.cluster_k = 8 });
      ( "exact SPCF (small circuits)",
        { base with Lookahead.Driver.use_exact_spcf = true } );
      ("one round", { base with Lookahead.Driver.max_rounds = 1 });
    ]
  in
  let circuits =
    [
      ("adder-6", Circuits.Adders.ripple_carry 6);
      ("adder-12", Circuits.Adders.ripple_carry 12);
      ("C432", Circuits.Suite.build "C432");
    ]
  in
  Printf.printf "%-36s" "variant";
  List.iter (fun (n, _) -> Printf.printf " %10s" n) circuits;
  print_newline ();
  List.iter
    (fun (vname, options) ->
      Printf.printf "%-36s" vname;
      List.iter
        (fun (_, g) ->
          let o = Lookahead.optimize ~options g in
          Printf.printf " %6d lev" (Aig.depth o))
        circuits;
      print_newline ();
      flush stdout)
    variants;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Extension experiments beyond the paper: other serial-prefix shapes.  *)
(* ------------------------------------------------------------------ *)

let extension () =
  print_endline
    "== Extension: lookahead on other serial-prefix structures ==";
  Printf.printf "%-18s %8s %10s %10s %10s\n" "circuit" "orig" "DC" "Lookahead"
    "reference";
  let cases =
    [
      ( "mult-array-4",
        Circuits.Arith.multiplier_array 4,
        Some (Aig.depth (Circuits.Arith.multiplier_wallace 4)) );
      ( "mult-array-6",
        Circuits.Arith.multiplier_array 6,
        Some (Aig.depth (Circuits.Arith.multiplier_wallace 6)) );
      ("comparator-16", Circuits.Arith.comparator 16, None);
      ("comparator-32", Circuits.Arith.comparator 32, None);
      ("parity-24", Circuits.Arith.parity_chain 24, None);
    ]
  in
  List.iter
    (fun (name, g, reference) ->
      let dc = Baselines.dc_like g in
      let la = Lookahead.optimize g in
      assert (Aig.Cec.equivalent g la);
      Printf.printf "%-18s %8d %10d %10d %10s\n%!" name (Aig.depth g)
        (Aig.depth dc) (Aig.depth la)
        (match reference with Some d -> string_of_int d | None -> "-"))
    cases;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Observation-report validators: check_regression.sh gate 4 runs the  *)
(* optimizer with --report/--trace and then validates the files here,  *)
(* and every identity gate validates each run's report in-process, so  *)
(* a malformed export or a broken counter invariant fails CI.          *)
(* ------------------------------------------------------------------ *)

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline s;
      exit 1)
    fmt

let parse_json_file what path =
  match Obs.Json.of_string (Serve.Cli.read_file path) with
  | Some j -> j
  | None -> fail "%s: %s does not parse as JSON" what path

(* [what] prefixes every failure message (a file name, or a gate run). *)
let validate_report what j =
  (match Obs.Json.member "schema" j with
  | Some (Obs.Json.String "lookahead-obs-report/1") -> ()
  | _ -> fail "%s: bad or missing schema" what);
  let det = Obs.det_subtree j in
  (* The deterministic subtree must never leak wall-clock data. *)
  (match det with
  | Obs.Json.Obj kvs ->
    List.iter
      (fun (k, _) ->
        if not (List.mem k [ "counters"; "gauges"; "histograms" ]) then
          fail "%s: unexpected deterministic key %s" what k)
      kvs
  | _ -> fail "%s: missing deterministic subtree" what);
  let section subtree name =
    match Obs.Json.member name subtree with
    | Some (Obs.Json.Obj kvs) -> kvs
    | _ -> []
  in
  let check_int_section kind kvs =
    List.iter
      (fun (name, v) ->
        match v with
        | Obs.Json.Int n when n >= 0 -> ()
        | _ -> fail "%s: %s %s is not a non-negative integer" what kind name)
      kvs
  in
  let det_counters = section det "counters" in
  check_int_section "counter" det_counters;
  check_int_section "gauge" (section det "gauges");
  let runtime =
    match Obs.Json.member "runtime" j with
    | Some r -> r
    | None -> fail "%s: missing runtime subtree" what
  in
  check_int_section "counter" (section runtime "counters");
  List.iter
    (fun (name, v) ->
      match (Obs.Json.member "count" v, Obs.Json.member "total_ns" v) with
      | Some (Obs.Json.Int c), Some (Obs.Json.Int t) when c >= 0 && t >= 0 ->
        ()
      | _ -> fail "%s: malformed duration %s" what name)
    (section runtime "durations");
  (* Cross-counter invariants of the instrumented layers. *)
  let value name =
    match List.assoc_opt name det_counters with
    | Some (Obs.Json.Int n) -> Some n
    | _ -> None
  in
  List.iter
    (fun cache ->
      match
        ( value (Printf.sprintf "bdd.%s_lookups" cache),
          value (Printf.sprintf "bdd.%s_hits" cache),
          value (Printf.sprintf "bdd.%s_misses" cache) )
      with
      | Some l, Some h, Some m ->
        if h + m <> l then
          fail "%s: bdd.%s hits %d + misses %d <> lookups %d" what cache h
            m l
      | _ -> ())
    [ "ite"; "restrict"; "compose" ];
  (match (value "cec.sat_calls", value "cec.budget_exhausted") with
  | Some s, Some b when b > s ->
    fail "%s: cec.budget_exhausted %d > cec.sat_calls %d" what b s
  | _ -> ());
  (match (value "globals.updates", value "globals.recomputed") with
  | Some 0, Some r when r > 0 ->
    fail "%s: globals.recomputed %d with no updates" what r
  | _ -> ());
  List.length det_counters

let check_report path =
  let n =
    validate_report ("check-report: " ^ path)
      (parse_json_file "check-report" path)
  in
  Printf.printf "report OK: %s (%d deterministic counter(s))\n" path n

let check_trace path =
  let j = parse_json_file "check-trace" path in
  let events =
    match Obs.Json.member "traceEvents" j with
    | Some (Obs.Json.List es) -> es
    | _ -> fail "check-trace: %s: missing traceEvents list" path
  in
  let n_complete = ref 0 and tids = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let str k =
        match Obs.Json.member k e with
        | Some (Obs.Json.String s) -> Some s
        | _ -> None
      in
      let tid =
        match Obs.Json.member "tid" e with
        | Some (Obs.Json.Int t) -> t
        | _ -> fail "check-trace: %s: event without integer tid" path
      in
      match str "ph" with
      | Some "X" -> (
        n_complete := !n_complete + 1;
        match (Obs.Json.member "ts" e, Obs.Json.member "dur" e, str "name") with
        | Some (Obs.Json.Float ts), Some (Obs.Json.Float dur), Some _
          when ts >= 0.0 && dur >= 0.0 ->
          if not (Hashtbl.mem tids tid) then
            fail "check-trace: %s: track %d has no thread_name metadata" path
              tid
        | _ -> fail "check-trace: %s: malformed complete event" path)
      | Some "M" -> Hashtbl.replace tids tid ()
      | _ -> fail "check-trace: %s: unknown event phase" path)
    events;
  Printf.printf "trace OK: %s (%d span event(s) on %d track(s))\n" path
    !n_complete (Hashtbl.length tids)

(* ------------------------------------------------------------------ *)
(* The identity comparator behind gates 2, 5, 8 and 10 and behind      *)
(* compare-reports: a deterministic result and a report's              *)
(* deterministic subtree, equal as Obs.Json trees or the first         *)
(* differing path is named.                                             *)
(* ------------------------------------------------------------------ *)

(* First differing path between two JSON trees with identical shape
   expectations — a named mismatch beats a bare "differ" in CI logs. *)
let rec first_diff path a b =
  match (a, b) with
  | Obs.Json.Obj xs, Obs.Json.Obj ys when List.map fst xs = List.map fst ys ->
    List.fold_left2
      (fun acc (k, va) (_, vb) ->
        match acc with
        | Some _ -> acc
        | None -> first_diff (if path = "" then k else path ^ "." ^ k) va vb)
      None xs ys
  | _ -> if Obs.Json.equal a b then None else Some path

(* What must be identical: [result] (Null when there is none, as for a
   report file) and the report's deterministic subtree. *)
let identity_view ?(result = Obs.Json.Null) report =
  match Obs.det_subtree report with
  | Obs.Json.Null -> None
  | det -> Some (Obs.Json.Obj [ ("result", result); ("deterministic", det) ])

let check_identical what (name_a, a) (name_b, b) =
  match first_diff "" a b with
  | None -> ()
  | Some p -> fail "%s: %s and %s differ at %s" what name_a name_b p

let compare_reports a b =
  let view path =
    match identity_view (parse_json_file "compare-reports" path) with
    | Some v -> (path, v)
    | None -> fail "compare-reports: %s: missing deterministic subtree" path
  in
  check_identical "compare-reports" (view a) (view b);
  print_endline "deterministic subtrees identical"

(* The pool sizes the identity gates compare: $BENCH_PAR_JOBS, default
   "1 4", always including 1. Forced before any target runs, so a bad
   list exits 2 with nothing done. *)
let pool_sizes =
  lazy
    (let s = Option.value ~default:"1 4" (Sys.getenv_opt "BENCH_PAR_JOBS") in
     let tokens =
       List.filter
         (fun t -> t <> "")
         (String.split_on_char ' '
            (String.map (function ',' -> ' ' | c -> c) s))
     in
     let js = List.filter_map int_of_string_opt tokens in
     if
       List.length js <> List.length tokens
       || (not (List.mem 1 js))
       || List.exists (fun j -> j < 1) js
     then begin
       Printf.eprintf
         "bench: BENCH_PAR_JOBS='%s' is not a list of positive integers \
          including 1\n"
         s;
       exit 2
     end;
     js)

type 'a run = { jobs : int; value : 'a; seconds : float; snap : Obs.snapshot }

(* Run [workload] once per pool size, in this process, with recording
   on and reset before each run; validate each run's report, and exit 1
   naming the first differing path unless [det value] and the report's
   deterministic subtree are equal across every run. The largest pool
   runs first by default, so it is the side that starts cold: first-use
   races (a lazy table forced by two domains at once) only show there,
   and the warm [-j 1] run that follows must still match it. *)
let across_jobs ?jobs what ~det workload =
  let jobs =
    match jobs with
    | Some js -> js
    | None -> List.sort (fun a b -> compare b a) (Lazy.force pool_sizes)
  in
  let saved = Par.default_jobs () in
  Obs.enable ();
  let runs =
    List.map
      (fun j ->
        Obs.reset ();
        Par.set_default_jobs j;
        let value, seconds = Obs.time workload in
        Printf.printf "%s: -j %-2d %8.1f s\n%!" what j seconds;
        { jobs = j; value; seconds; snap = Obs.snapshot () })
      jobs
  in
  Par.set_default_jobs saved;
  let view r =
    let name = Printf.sprintf "-j %d" r.jobs in
    let report = Obs.report_json r.snap in
    ignore (validate_report (what ^ " " ^ name) report);
    (name, Option.get (identity_view ~result:(det r.value) report))
  in
  (match List.map view runs with
  | first :: rest -> List.iter (check_identical what first) rest
  | [] -> ());
  runs

(* All bench wall-clocks go through the one shared monotonic clock. *)
let wall f = snd (Obs.time f)

(* Capture everything printed by [f]: the tables print through stdout
   directly, so swap the fd rather than threading a formatter through
   every table. *)
let with_captured_stdout f =
  let tmp = Filename.temp_file "bench_table" ".txt" in
  let fd =
    Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600
  in
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  let restore () =
    flush stdout;
    Unix.dup2 saved Unix.stdout;
    Unix.close saved
  in
  (try
     f ();
     restore ()
   with e ->
     restore ();
     Sys.remove tmp;
     raise e);
  let text = Serve.Cli.read_file tmp in
  Sys.remove tmp;
  text

(* ------------------------------------------------------------------ *)
(* Parallel-runtime scaling (gate 2): table1 + the table2 fast subset, *)
(* deadline off and without C432 (see [nolimit]), through             *)
(* [across_jobs] at every size in BENCH_PAR_JOBS, in the listed order  *)
(* so the overhead ratio stays comparable across commits. The printed *)
(* tables are the result. Exits 1 when the largest pool is more than   *)
(* [par_overhead_limit_pct] slower than -j 1.                           *)
(* ------------------------------------------------------------------ *)

(* The parallel runtime's overhead bound: the largest pool may run at
   most this much slower than -j 1. *)
let par_overhead_limit_pct = 25.0

let par_bench () =
  Printf.printf
    "== Parallel runtime scaling (table1 + table2 fast subset sans \
     C432, no deadline), host domains: %d ==\n%!"
    (Domain.recommended_domain_count ());
  let jobs = Lazy.force pool_sizes in
  let runs =
    across_jobs ~jobs "par"
      ~det:(fun text -> Obs.Json.String text)
      (fun () ->
        with_captured_stdout (fun () ->
            table1 ~options:nolimit ();
            table2 ~options:nolimit ~names:fast_subset_nolimit
              ~full:false ()))
  in
  let seconds j = (List.find (fun r -> r.jobs = j) runs).seconds in
  let base_dt = seconds 1 in
  let top_j = List.fold_left max 1 jobs in
  let top_dt = seconds top_j in
  Printf.printf "\n%-6s %10s %9s\n" "jobs" "seconds" "speedup";
  List.iter
    (fun r ->
      Printf.printf "%-6d %10.1f %8.2fx\n" r.jobs r.seconds
        (base_dt /. r.seconds))
    runs;
  print_endline "\noutput and deterministic report identical at every -j\n";
  if top_dt > base_dt *. (1.0 +. (par_overhead_limit_pct /. 100.0)) then
    fail "par: -j %d took %.3f s, %+.1f%% against -j 1 (> %.0f%%)" top_j
      top_dt
      ((top_dt -. base_dt) /. base_dt *. 100.0)
      par_overhead_limit_pct

(* ------------------------------------------------------------------ *)
(* Incremental-analysis benchmark: per-phase timings of the dirty-      *)
(* region engines (cached cones, incremental levels, Globals.update,    *)
(* batched SPCF) against their from-scratch equivalents, on the Table 2 *)
(* fast subset, with identical-result checks. Exits non-zero when a     *)
(* result differs or incremental is slower in total (gate 3).           *)
(* ------------------------------------------------------------------ *)

let incr_bench () =
  print_endline
    "== Incremental analyses vs from-scratch (Table 2 fast subset) ==";
  Printf.printf "%-24s %-8s %10s %10s %8s %10s\n" "circuit" "phase"
    "scratch(s)" "incr(s)" "speedup" "identical";
  (* The edit script models the driver's workload: repeated small
     function edits inside one output's cone, each followed by a level /
     globals query. Minterm set/clear edits keep the functions close to
     the originals (the shape a minimization pass produces), so the
     dirty region the incremental engines must repair is realistic. *)
  let num_edits = 12 and cone_repeats = 5 in
  let edit_script net =
    let internal =
      Array.of_list
        (List.filter
           (fun id -> not (Network.is_input net id))
           (Network.topo_order net))
    in
    List.init num_edits (fun i ->
        let id = internal.(i * Array.length internal / num_edits) in
        let nd = Network.node net id in
        let k = Array.length nd.Network.fanins in
        let m = Logic.Tt.of_minterms k [ id mod (1 lsl k) ] in
        let func =
          if i mod 2 = 0 then Logic.Tt.lor_ nd.Network.func m
          else Logic.Tt.land_ nd.Network.func (Logic.Tt.lnot m)
        in
        (id, func))
  in
  let all_rows = ref [] in
  List.iter
    (fun name ->
      let g = Circuits.Suite.build name in
      let net = Network.of_aig ~k:6 g in
      let outs = Network.outputs net in
      let levels0 = Network.Levels.compute net in
      let deepest =
        List.fold_left
          (fun (acc : Network.output) (o : Network.output) ->
            if levels0.(o.Network.node) > levels0.(acc.Network.node) then o
            else acc)
          (List.hd outs) outs
      in
      let row phase scratch_s incr_s identical =
        Printf.printf "%-24s %-8s %10.4f %10.4f %7.1fx %10s\n%!" name phase
          scratch_s incr_s
          (scratch_s /. Float.max 1e-9 incr_s)
          (if identical then "yes" else "NO");
        all_rows := (name, phase, scratch_s, incr_s, identical) :: !all_rows
      in
      (* --- cones: repeated per-output queries, raw walk vs cache. --- *)
      let t_scr =
        wall (fun () ->
            for _ = 1 to cone_repeats do
              List.iter
                (fun (o : Network.output) ->
                  ignore (Network.cone net o.Network.node))
                outs
            done)
      in
      let analysis = Network.Analysis.create net in
      let t_inc =
        wall (fun () ->
            for _ = 1 to cone_repeats do
              List.iter
                (fun (o : Network.output) ->
                  ignore (Network.Analysis.cone analysis o.Network.node))
                outs
            done)
      in
      let same =
        List.for_all
          (fun (o : Network.output) ->
            Network.Analysis.cone analysis o.Network.node
            = Network.cone net o.Network.node)
          outs
      in
      row "cone" t_scr t_inc same;
      (* --- levels: per-edit full recompute vs dirty-region repair. --- *)
      let net_lv = Network.copy net in
      let edits = edit_script net_lv in
      let inc = Network.Levels.Inc.create net_lv in
      ignore (Network.Levels.Inc.levels inc);
      let t_scr = ref 0.0 and t_inc = ref 0.0 and same = ref true in
      List.iter
        (fun (id, func) ->
          Network.set_func net_lv id func;
          let want = ref [||] in
          t_scr := !t_scr +. wall (fun () -> want := Network.Levels.compute net_lv);
          let got = ref [||] in
          t_inc :=
            !t_inc
            +. wall (fun () ->
                   Network.Levels.Inc.invalidate inc id;
                   got := Network.Levels.Inc.levels inc);
          if !got <> !want then same := false)
        edits;
      row "levels" !t_scr !t_inc !same;
      (* --- globals: per-edit of_net vs dirty-region update. Separate
         managers so neither run warms the other's caches; identity is
         checked by hash consing inside the incremental manager. --- *)
      let net_gl = Network.copy net in
      let edits = edit_script net_gl in
      let fanouts = Network.fanouts net_gl in
      let man_scr = Bdd.create () and man_inc = Bdd.create () in
      ignore (Network.Globals.of_net man_scr net_gl);
      let globals = ref (Network.Globals.of_net man_inc net_gl) in
      let t_scr = ref 0.0 and t_inc = ref 0.0 in
      List.iter
        (fun (id, func) ->
          Network.set_func net_gl id func;
          t_scr :=
            !t_scr
            +. wall (fun () -> ignore (Network.Globals.of_net man_scr net_gl));
          t_inc :=
            !t_inc
            +. wall (fun () ->
                   globals :=
                     Network.Globals.update man_inc !globals net_gl
                       ~dirty:[ id ] ~fanouts))
        edits;
      let same =
        Array.for_all2 Bdd.equal !globals
          (Network.Globals.of_net man_inc net_gl)
      in
      row "globals" !t_scr !t_inc same;
      (* --- SPCF: per-late-node boolean differences vs the batched
         backward-substitution pass. --- *)
      let delta = levels0.(deepest.Network.node) in
      let late =
        Timing.Spcf.late_nodes net ~levels:levels0 ~out:deepest ~delta
          ~max_nodes:24
      in
      let man_scr = Bdd.create () in
      let globals_scr = Network.Globals.of_net man_scr net in
      let t_scr =
        wall (fun () ->
            ignore
              (List.fold_left
                 (fun acc wrt ->
                   Bdd.bor man_scr acc
                     (Timing.Spcf.boolean_difference man_scr net globals_scr
                        ~wrt ~out:deepest))
                 (Bdd.bfalse man_scr) late))
      in
      let man_inc = Bdd.create () in
      let globals_inc = Network.Globals.of_net man_inc net in
      let spcf_inc = ref (Bdd.bfalse man_inc) in
      let t_inc =
        wall (fun () ->
            spcf_inc :=
              Timing.Spcf.approx man_inc net globals_inc ~levels:levels0
                ~out:deepest ~delta ~max_nodes:24 ~analysis ())
      in
      let spcf_ref =
        List.fold_left
          (fun acc wrt ->
            Bdd.bor man_inc acc
              (Timing.Spcf.boolean_difference man_inc net globals_inc ~wrt
                 ~out:deepest))
          (Bdd.bfalse man_inc) late
      in
      row "spcf" t_scr t_inc (Bdd.equal !spcf_inc spcf_ref))
    fast_subset;
  let rows = List.rev !all_rows in
  let total f = List.fold_left (fun acc r -> acc +. f r) 0.0 rows in
  let total_scr = total (fun (_, _, s, _, _) -> s) in
  let total_inc = total (fun (_, _, _, i, _) -> i) in
  let all_same = List.for_all (fun (_, _, _, _, same) -> same) rows in
  Printf.printf
    "\nTOTAL analysis time: from-scratch %.3f s, incremental %.3f s \
     (%.1fx), identical: %s\n\n"
    total_scr total_inc
    (total_scr /. Float.max 1e-9 total_inc)
    (if all_same then "yes" else "NO");
  if not all_same then fail "incr: incremental result differs from from-scratch";
  (* The engines exist to be faster, so parity is the floor. *)
  if total_inc > total_scr then
    fail "incr: incremental total %.6f s slower than from-scratch %.6f s"
      total_inc total_scr

(* ------------------------------------------------------------------ *)
(* Incremental SAT bench (gate 8): the solver in both of its roles.    *)
(* ------------------------------------------------------------------ *)

(* Two workloads. The sweep rows repeat the production kernel — three
   rounds of [Sweep.sat_sweep] plus the final [Cec.check] — on the
   Table 2 fast subset; they pin the swept BLIF (machine-independent
   md5) and the full Det solver-stat vector. The miter rows are
   cross-architecture equivalence checks whose runtime is almost
   entirely SAT conflicts; they carry the before/after speedup claim.

   Seed baselines were measured at commit 0f72870 (the pre-arena
   solver) on the reference container with this exact workload. The
   md5s are portable; the seconds are indicative — the bench only
   requires the miter total to stay under the seed total (0 % slack),
   which leaves a multiple-fold margin for a slower host. *)
let sat_sweep_seed =
  [
    ("dalu", 0.0233, "6ebd418a26fff74d8d6635ae960001a8");
    ("C880", 0.0070, "4182a947200edcbcbfddac1532f4c3d9");
    ("C1355", 0.0108, "bce60baac0ecb1425c7b4a46d1696960");
    ("C1908", 0.0032, "b5efa926f8f7dcdd0027a9fef3c5a2de");
    ("sparc_tlu_intctl_flat", 0.0079, "bfe6a1ec67d45a911c961f1a4454648b");
    ("lsu_stb_ctl_flat", 0.0184, "324d833bf6d0548de1678bd2a6246c1d");
  ]

let sat_miters =
  [
    ( "add32_rca_cla",
      0.049,
      fun () ->
        (Circuits.Adders.ripple_carry 32, Circuits.Adders.carry_lookahead 32)
    );
    ( "add64_rca_csel",
      0.040,
      fun () ->
        (Circuits.Adders.ripple_carry 64, Circuits.Adders.carry_select 64) );
    ( "mult6",
      1.475,
      fun () ->
        ( Circuits.Arith.multiplier_array 6,
          Circuits.Arith.multiplier_wallace 6 ) );
    ( "mult7",
      14.857,
      fun () ->
        ( Circuits.Arith.multiplier_array 7,
          Circuits.Arith.multiplier_wallace 7 ) );
  ]

let sat_det_counters =
  [
    "sat.conflicts"; "sat.decisions"; "sat.propagations"; "sat.restarts";
    "sat.reductions"; "sat.learnts_deleted"; "sat.minimized_lits";
    "sat.vivified_lits";
  ]

(* One run of both workloads at the current pool size. Prints a row per
   workload and exits 1 when a sweep loses equivalence, a swept BLIF's
   md5 leaves the seed's, a miter is refuted, the miter total exceeds
   the seed total, or no reduction fired. The result is every row's Det
   solver stats (plus the swept-BLIF md5), keyed by workload name, for
   [across_jobs] to compare. *)
let sat_run () =
  let counters () =
    let snap = Obs.snapshot () in
    List.map (fun n -> (n, Obs.counter_value snap n)) sat_det_counters
  in
  let deltas before =
    List.map2 (fun (n, b) (_, a) -> (n, a - b)) before (counters ())
  in
  let arena_peak () =
    (* Gauges merge by max and have no snapshot accessor; read them out
       of the Det subtree of the report. *)
    let report = Obs.report_json (Obs.snapshot ()) in
    match Obs.Json.member "gauges" (Obs.det_subtree report) with
    | Some gs -> (
      match Obs.Json.member "sat.arena_peak_words" gs with
      | Some (Obs.Json.Int n) -> n
      | _ -> 0)
    | None -> 0
  in
  let stat det n = List.assoc n det in
  let row_json det extra =
    Obs.Json.Obj (List.map (fun (n, v) -> (n, Obs.Json.Int v)) det @ extra)
  in
  Printf.printf
    "%-24s %-7s %9s %9s %8s | %9s %9s %6s %5s %s\n%!" "workload" "kind"
    "seconds" "seed-s" "speedup" "conflicts" "props" "reduc" "del" "blif";
  let failures = ref 0 in
  let failure fmt =
    Printf.ksprintf
      (fun s ->
        prerr_endline ("bench sat: " ^ s);
        incr failures)
      fmt
  in
  let sweep_rows =
    List.map
      (fun (name, base_s, base_md5) ->
        let g = Circuits.Suite.build name in
        let before = counters () in
        let md5 = ref "" in
        Gc.full_major ();
        let (), secs =
          Obs.time (fun () ->
              for r = 1 to 3 do
                let swept = Aig.Sweep.sat_sweep g in
                (match Aig.Cec.check g swept with
                | Aig.Cec.Equivalent -> ()
                | Aig.Cec.Counterexample _ ->
                  failure "%s: sweep not equivalent" name);
                if r = 1 then
                  md5 :=
                    Digest.to_hex
                      (Digest.string (Aig.Io.blif_to_string ~model:name swept))
              done)
        in
        let det = deltas before in
        let matches = String.equal !md5 base_md5 in
        if not matches then
          failure "%s: swept BLIF md5 %s != seed %s" name !md5 base_md5;
        Printf.printf
          "%-24s %-7s %9.4f %9.4f %8s | %9d %9d %6d %5d %s\n%!" name "sweep3x"
          secs base_s "-"
          (stat det "sat.conflicts")
          (stat det "sat.propagations")
          (stat det "sat.reductions")
          (stat det "sat.learnts_deleted")
          (if matches then "=seed" else "DIFFERS");
        ( name,
          secs,
          base_s,
          det,
          row_json det
            [
              ("sat.arena_peak_words", Obs.Json.Int (arena_peak ()));
              ("blif_md5", Obs.Json.String !md5);
            ] ))
      sat_sweep_seed
  in
  let miter_rows =
    List.map
      (fun (name, base_s, build) ->
        let a, b = build () in
        let before = counters () in
        Gc.full_major ();
        let v, secs = Obs.time (fun () -> Aig.Cec.check a b) in
        (match v with
        | Aig.Cec.Equivalent -> ()
        | Aig.Cec.Counterexample _ -> failure "%s: miter refuted" name);
        let det = deltas before in
        Printf.printf "%-24s %-7s %9.4f %9.4f %7.2fx | %9d %9d %6d %5d -\n%!"
          name "miter" secs base_s (base_s /. secs)
          (stat det "sat.conflicts")
          (stat det "sat.propagations")
          (stat det "sat.reductions")
          (stat det "sat.learnts_deleted");
        (name, secs, base_s, det, row_json det []))
      sat_miters
  in
  let sum f rows = List.fold_left (fun acc r -> acc +. f r) 0.0 rows in
  let secs_of (_, s, _, _, _) = s and seed_of (_, _, b, _, _) = b in
  let total n =
    List.fold_left
      (fun acc (_, _, _, det, _) -> acc + stat det n)
      0 (sweep_rows @ miter_rows)
  in
  let miter_s = sum secs_of miter_rows in
  let miter_base_s = sum seed_of miter_rows in
  (* Totals span both workloads: the sweep kernel's per-query conflict
     counts sit below the first reduction point (that is the point of a
     300-conflict [reduce_base] on easy queries), so the database
     machinery shows up on the miter rows and in the dalu driver run
     [sat_bench] checks. *)
  let total_reductions = total "sat.reductions" in
  Printf.printf
    "totals: sweep %.4fs (seed %.4fs), miters %.4fs (seed %.4fs, %.2fx), \
     reductions %d, learnts deleted %d\n\n%!"
    (sum secs_of sweep_rows) (sum seed_of sweep_rows) miter_s miter_base_s
    (miter_base_s /. miter_s) total_reductions
    (total "sat.learnts_deleted");
  if miter_s > miter_base_s then
    failure "miter total %.6f s exceeds seed %.6f s" miter_s miter_base_s;
  if total_reductions = 0 then failure "no clause-database reductions fired";
  if !failures > 0 then fail "bench sat: %d failure(s)" !failures;
  Obs.Json.Obj
    (List.map (fun (name, _, _, _, json) -> (name, json))
       (sweep_rows @ miter_rows))

let sat_bench () =
  print_endline
    "== Incremental SAT: sweep kernel (3x sat_sweep + cec) and \
     cross-architecture miters ==";
  ignore (across_jobs "sat" ~det:Fun.id sat_run);
  (* Database reduction must fire in a full driver run on a Table 2
     circuit too, not only on the miters. *)
  Obs.reset ();
  ignore (Lookahead.optimize ~options:nolimit (Circuits.Suite.build "dalu"));
  let snap = Obs.snapshot () in
  let red = Obs.counter_value snap "sat.reductions"
  and del = Obs.counter_value snap "sat.learnts_deleted" in
  Printf.printf "dalu driver run: reductions %d, learnts deleted %d\n\n%!" red
    del;
  if red = 0 || del = 0 then
    fail "bench sat: dalu driver run shows reductions=%d deleted=%d" red del

(* Validate a Prometheus-style text exposition (the [metrics] request):
   comment lines are # HELP / # TYPE, every sample belongs to a typed
   family, histogram bucket series are cumulative, monotone and end at
   le="+Inf" with a matching _count sample. *)
let check_exposition path =
  let text = Serve.Cli.read_file path in
  let types = Hashtbl.create 16 in
  (* (family, labels-without-le) -> (le, value) list, newest first *)
  let buckets : (string, (string * float) list) Hashtbl.t =
    Hashtbl.create 16
  in
  let counts : (string, float) Hashtbl.t = Hashtbl.create 16 in
  let n_samples = ref 0 in
  let name_ok n =
    n <> ""
    && (not (n.[0] >= '0' && n.[0] <= '9'))
    && String.for_all
         (fun c ->
           (c >= 'a' && c <= 'z')
           || (c >= 'A' && c <= 'Z')
           || (c >= '0' && c <= '9')
           || c = '_' || c = ':')
         n
  in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun i line ->
      let ln = i + 1 in
      if line = "" then ()
      else if line.[0] = '#' then
        match String.split_on_char ' ' line with
        | "#" :: "TYPE" :: name :: [ typ ] ->
          if not (List.mem typ [ "counter"; "gauge"; "histogram" ]) then
            fail "check-exposition: %s:%d: unknown type %s" path ln typ;
          Hashtbl.replace types name typ
        | "#" :: "HELP" :: name :: _ when name_ok name -> ()
        | _ -> fail "check-exposition: %s:%d: malformed comment" path ln
      else begin
        let sp =
          match String.rindex_opt line ' ' with
          | Some p -> p
          | None -> fail "check-exposition: %s:%d: no sample value" path ln
        in
        let name_part = String.sub line 0 sp in
        let value =
          match
            float_of_string_opt
              (String.sub line (sp + 1) (String.length line - sp - 1))
          with
          | Some v -> v
          | None -> fail "check-exposition: %s:%d: non-numeric value" path ln
        in
        let name, labels =
          match String.index_opt name_part '{' with
          | None -> (name_part, [])
          | Some b ->
            if name_part.[String.length name_part - 1] <> '}' then
              fail "check-exposition: %s:%d: unterminated labels" path ln;
            let body =
              String.sub name_part (b + 1) (String.length name_part - b - 2)
            in
            let labels =
              List.map
                (fun kv ->
                  match String.index_opt kv '=' with
                  | Some e
                    when String.length kv > e + 2
                         && kv.[e + 1] = '"'
                         && kv.[String.length kv - 1] = '"' ->
                    ( String.sub kv 0 e,
                      String.sub kv (e + 2) (String.length kv - e - 3) )
                  | _ ->
                    fail "check-exposition: %s:%d: malformed label %S" path
                      ln kv)
                (String.split_on_char ',' body)
            in
            (String.sub name_part 0 b, labels)
        in
        if not (name_ok name) then
          fail "check-exposition: %s:%d: bad metric name %S" path ln name;
        let strip suf =
          let ls = String.length suf and ln = String.length name in
          if ln > ls && String.sub name (ln - ls) ls = suf then
            Some (String.sub name 0 (ln - ls))
          else None
        in
        let histo base =
          match base with
          | Some b when Hashtbl.find_opt types b = Some "histogram" -> Some b
          | _ -> None
        in
        let series base =
          base ^ "|"
          ^ String.concat ","
              (List.filter_map
                 (fun (k, v) -> if k = "le" then None else Some (k ^ "=" ^ v))
                 labels)
        in
        (match
           ( histo (strip "_bucket"),
             histo (strip "_sum"),
             histo (strip "_count") )
         with
        | Some b, _, _ ->
          let le =
            match List.assoc_opt "le" labels with
            | Some le -> le
            | None ->
              fail "check-exposition: %s:%d: bucket without le label" path ln
          in
          let key = series b in
          Hashtbl.replace buckets key
            ((le, value)
            :: Option.value ~default:[] (Hashtbl.find_opt buckets key))
        | None, Some _, _ -> ()
        | None, None, Some b -> Hashtbl.replace counts (series b) value
        | None, None, None ->
          if not (Hashtbl.mem types name) then
            fail "check-exposition: %s:%d: sample %s has no # TYPE" path ln
              name);
        n_samples := !n_samples + 1
      end)
    lines;
  if !n_samples = 0 then fail "check-exposition: %s: no samples" path;
  Hashtbl.iter
    (fun key series ->
      let series = List.rev series in
      (match List.rev series with
      | ("+Inf", last) :: _ -> (
        match Hashtbl.find_opt counts key with
        | Some c when c = last -> ()
        | Some c ->
          fail "check-exposition: %s: %s _count %g <> +Inf bucket %g" path
            key c last
        | None -> fail "check-exposition: %s: %s has no _count" path key)
      | _ -> fail "check-exposition: %s: %s does not end at +Inf" path key);
      ignore
        (List.fold_left
           (fun prev (_, v) ->
             if v < prev then
               fail "check-exposition: %s: %s buckets not cumulative" path
                 key;
             v)
           0.0 series))
    buckets;
  Printf.printf "exposition OK: %s (%d sample(s), %d familie(s))\n" path
    !n_samples (Hashtbl.length types)

(* Validate a JSONL job journal (--journal / Obs.Journal file sink):
   every line parses, seq strictly increases, kinds are non-empty, and
   a served run contains at least one admission and one completion. *)
let check_journal path =
  let lines =
    String.split_on_char '\n' (Serve.Cli.read_file path)
    |> List.filter (fun l -> String.trim l <> "")
  in
  if lines = [] then fail "check-journal: %s: empty journal" path;
  let last_seq = ref (-1) in
  let kinds = Hashtbl.create 16 in
  List.iteri
    (fun i line ->
      let ln = i + 1 in
      match Obs.Json.of_string line with
      | None -> fail "check-journal: %s:%d: not valid JSON" path ln
      | Some j ->
        (match Obs.Json.member "seq" j with
        | Some (Obs.Json.Int seq) ->
          if seq <= !last_seq then
            fail "check-journal: %s:%d: seq %d not increasing" path ln seq;
          last_seq := seq
        | _ -> fail "check-journal: %s:%d: missing integer seq" path ln);
        (match Obs.Json.member "ts_ns" j with
        | Some (Obs.Json.Int ts) when ts >= 0 -> ()
        | _ -> fail "check-journal: %s:%d: missing ts_ns" path ln);
        (match Obs.Json.member "kind" j with
        | Some (Obs.Json.String k) when k <> "" ->
          Hashtbl.replace kinds k
            (1 + Option.value ~default:0 (Hashtbl.find_opt kinds k))
        | _ -> fail "check-journal: %s:%d: missing kind" path ln))
    lines;
  let count k = Option.value ~default:0 (Hashtbl.find_opt kinds k) in
  if count "job.admitted" = 0 then
    fail "check-journal: %s: no job.admitted event" path;
  if count "job.finished" = 0 then
    fail "check-journal: %s: no job.finished event" path;
  Printf.printf "journal OK: %s (%d event(s), %d kind(s))\n" path
    (List.length lines) (Hashtbl.length kinds)

(* ------------------------------------------------------------------- *)
(* obs: telemetry cost + journal determinism. A clean/faulted adder    *)
(* job mix runs through an in-process engine in five off/on pairs —    *)
(* journaling off vs journaling to a file with periodic metrics        *)
(* scrapes, the side that runs first alternating — and the median of   *)
(* the per-pair overheads is bounded at 3 %. Then the journal's Det    *)
(* digest (order-insensitive hash of every Det payload) is required to *)
(* be identical warm -j1 / warm -j4 / cold -j1. Exits non-zero on any  *)
(* violation (gate 9).                                                  *)
(* ------------------------------------------------------------------- *)

(* Production telemetry must be near-free: enabled journaling plus
   scrapes may cost at most this share of the disabled wall. *)
let obs_overhead_limit_pct = 3.0

let obs_bench () =
  let module Msg = Serve.Msg in
  let njobs = 28 and id_jobs = 14 and pairs = 5 in
  let fault_every = 10 in
  let faulted i = i mod fault_every = fault_every - 1 in
  let spec_of i =
    let kind, bits =
      match i mod 7 with
      | 0 -> ("ripple", 8)
      | 1 -> ("cla", 8)
      | 2 -> ("cla", 12)
      | 3 -> ("select", 8)
      | 4 -> ("cla", 16)
      | 5 -> ("select", 12)
      | _ -> ("select", 16)
    in
    let base =
      Msg.submit_defaults ~source:(Msg.Adder { kind; bits }) ~tool:"lookahead"
    in
    let base = { base with Msg.time_limit_s = Some 0.0 } in
    if faulted i then
      {
        base with
        Msg.inject = Some "bdd@200:r";
        budget = { Msg.default_budget with Msg.bdd_node_ceiling = 30_000 };
      }
    else base
  in
  let all_completed = ref true in
  (* One engine lifetime per measured run: submit [n] jobs, wait for the
     executor to drain, return the wall. [scrape] polls the Metrics
     endpoint from this domain while jobs run — the live-monitoring
     cost belongs in the enabled measurement. *)
  let run_engine ~scrape n =
    let ndone = Atomic.make 0 in
    let engine =
      Serve.Engine.create
        ~on_event:(fun ev ->
          match ev with
          | Serve.Engine.Job_done { result; _ } ->
            if result.Msg.state <> Msg.Done then all_completed := false;
            Atomic.incr ndone
          | Serve.Engine.Job_progress _ -> ())
        { Serve.Engine.queue_capacity = n + 4 }
    in
    Serve.Engine.start engine;
    let t0 = Obs.Clock.now_s () in
    for i = 0 to n - 1 do
      match Serve.Engine.submit engine ~tenant:0 (spec_of i) with
      | Ok _ -> ()
      | Error (code, msg) ->
        fail "bench obs: submit rejected (%s): %s" code msg
    done;
    let scraped = ref 0 in
    while Atomic.get ndone < n do
      Unix.sleepf 0.002;
      if scrape && Atomic.get ndone / 5 > !scraped then begin
        scraped := Atomic.get ndone / 5;
        ignore (Serve.Engine.metrics engine)
      end
    done;
    let wall = Obs.Clock.now_s () -. t0 in
    Serve.Engine.stop engine;
    wall
  in
  let journal_file =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "lookahead_obs_bench_%d.jsonl" (Unix.getpid ()))
  in
  (* Warm the process (circuit generators, code paths) before timing
     anything. *)
  ignore (run_engine ~scrape:false njobs);
  let journal_events = ref 0 and journal_rotations = ref 0 in
  let off () = run_engine ~scrape:false njobs in
  let on () =
    Obs.Journal.enable ~file:journal_file ();
    let s = run_engine ~scrape:true njobs in
    journal_events := Obs.Journal.events_total ();
    journal_rotations := Obs.Journal.rotations ();
    Obs.Journal.disable ();
    s
  in
  (* Paired runs, the first side alternating: a later run in a process
     tends to be faster, and a fixed order would charge that to one
     side. *)
  let runs =
    List.init pairs (fun i ->
        if i mod 2 = 0 then
          let off_s = off () in
          (off_s, on ())
        else
          let on_s = on () in
          (off (), on_s))
  in
  (try check_journal journal_file
   with e ->
     Sys.remove journal_file;
     raise e);
  Sys.remove journal_file;
  let ratios_pct =
    List.map (fun (off_s, on_s) -> (on_s -. off_s) /. off_s *. 100.0) runs
  in
  let overhead_pct = List.nth (List.sort compare ratios_pct) (pairs / 2) in
  (* Det-payload identity: the digest folds (count, sum, xor) over the
     FNV-1a of every Det payload, so it is independent of event order —
     the only thing domain count or warm state may change. *)
  let digest_of ~jobs ~warm n =
    Par.set_default_jobs jobs;
    Obs.Journal.enable ();
    if warm then ignore (run_engine ~scrape:false n)
    else begin
      Obs.enable ();
      for i = 0 to n - 1 do
        let r = Serve.Engine.run_cold (spec_of i) in
        if r.Msg.state <> Msg.Done then
          fail "bench obs: cold job %d did not complete" i
      done
    end;
    let d = Obs.Journal.det_digest () in
    Obs.Journal.disable ();
    d
  in
  let d_warm1 = digest_of ~jobs:1 ~warm:true id_jobs in
  let d_warm4 = digest_of ~jobs:4 ~warm:true id_jobs in
  let d_cold1 = digest_of ~jobs:1 ~warm:false id_jobs in
  Par.set_default_jobs 0;
  let nonempty =
    match String.index_opt d_warm1 ':' with
    | Some i -> int_of_string (String.sub d_warm1 0 i) > 0
    | None -> false
  in
  let identical =
    nonempty && String.equal d_warm1 d_warm4 && String.equal d_warm1 d_cold1
  in
  Printf.printf
    "obs: %d jobs x%d pairs, journal on vs off %s, median %+.2f%%\n\
     obs: journal %d event(s), %d rotation(s)\n\
     obs: %d-job digest warm -j 1 %s, warm -j 4 %s, cold -j 1 %s -> %s\n%!"
    njobs pairs
    (String.concat " " (List.map (Printf.sprintf "%+.2f%%") ratios_pct))
    overhead_pct !journal_events !journal_rotations id_jobs d_warm1 d_warm4
    d_cold1
    (if identical then "identical" else "DIVERGED");
  if not !all_completed then fail "bench obs: not every job completed";
  if not identical then
    fail "bench obs: journal Det digest diverged across -j / warm-cold";
  if overhead_pct > obs_overhead_limit_pct then
    fail "bench obs: enabled telemetry costs %.2f%% (> %.0f%%)" overhead_pct
      obs_overhead_limit_pct

(* ------------------------------------------------------------------ *)
(* E-graph bench: the portfolio against every fixed optimizer.         *)
(* ------------------------------------------------------------------ *)

(* Gate 10's workload. Every fixed arm and the portfolio run on the
   fast subset minus C432 (the one circuit whose lookahead run is only
   bounded by the anytime deadline — a deadline cut is a function of
   wall-clock scheduling, and these rows must be identical across -j).
   The portfolio must never lose to the best fixed arm — it runs the
   same arms and picks by measured cost — so losing is a selection bug
   and fails the bench directly. Each circuit yields one line of
   [egraph_baseline]: per-arm costs and the winner-BLIF md5, no
   wall-clock fields. *)
let egraph_baseline = "BENCH_egraph.json"

let egraph_cost = Egraph.Cost.levels

let egraph_run () =
  let cost = egraph_cost in
  let fixed_arms : (string * (Aig.t -> Aig.t)) list =
    [
      ("sis", Baselines.sis_like);
      ("abc", Baselines.abc_like);
      ("dc", Baselines.dc_like);
      ("lookahead", fun g -> Lookahead.optimize ~options:nolimit g);
      ("egraph", fun g -> Egraph.optimize ~cost g);
    ]
  in
  Printf.printf "%-24s | %s | %-10s %6s\n%!" "Name"
    (String.concat " "
       (List.map (fun (n, _) -> Printf.sprintf "%9s" n) fixed_arms))
    "winner" "cost";
  List.map
    (fun name ->
      let g = Circuits.Suite.build name in
      let fixed, arms_s =
        Obs.time (fun () ->
            List.map
              (fun (an, f) ->
                let out = f g in
                if not (Aig.Cec.equivalent g out) then
                  fail "bench egraph: %s: arm %s broke equivalence" name an;
                (an, cost.Egraph.Cost.measure out))
              fixed_arms)
      in
      let (out, (r : Egraph.Portfolio.report)), portfolio_s =
        Obs.time (fun () -> Egraph.Portfolio.run_ex ~options:nolimit ~cost g)
      in
      if not (Aig.Cec.equivalent g out) then
        fail "bench egraph: %s: portfolio output not equivalent" name;
      let best_fixed =
        List.fold_left (fun acc (_, c) -> Float.min acc c) infinity fixed
      in
      if r.winner_cost > best_fixed then
        fail
          "bench egraph: %s: portfolio cost %.3f worse than best fixed arm \
           %.3f"
          name r.winner_cost best_fixed;
      let md5 =
        Digest.to_hex (Digest.string (Aig.Io.blif_to_string ~model:name out))
      in
      Printf.printf
        "%-24s | %s | %-10s %6.0f   (arms %.2fs, portfolio %.2fs)\n%!" name
        (String.concat " "
           (List.map (fun (_, c) -> Printf.sprintf "%9.0f" c) fixed))
        r.winner r.winner_cost arms_s portfolio_s;
      ( name,
        Printf.sprintf
          "    { \"name\": \"%s\", \"winner\": \"%s\", \"winner_cost\": %.3f, \
           \"sequential\": %b, \"arms\": { %s }, \"blif_md5\": \"%s\" }"
          name r.winner r.winner_cost r.sequential
          (String.concat ", "
             (List.map
                (fun (an, c) -> Printf.sprintf "\"%s\": %.3f" an c)
                (fixed @ [ ("portfolio", r.winner_cost) ])))
          md5 ))
    fast_subset_nolimit

(* Runs [egraph_run] through [across_jobs], then requires its rows to
   equal [egraph_baseline] byte for byte. On a mismatch it rewrites the
   file and exits 1, so a rerun passes and `git diff` shows the change:
   re-baselining is a plain run. *)
let egraph_bench () =
  Printf.printf "== E-graph portfolio vs fixed optimizers (cost: %s) ==\n"
    egraph_cost.Egraph.Cost.name;
  let runs =
    across_jobs "egraph"
      ~det:(fun rows ->
        Obs.Json.Obj (List.map (fun (n, l) -> (n, Obs.Json.String l)) rows))
      egraph_run
  in
  let rows = (List.hd runs).value in
  let text =
    Printf.sprintf
      "{\n\
      \  \"schema\": \"egraph-bench/v1\",\n\
      \  \"cost\": \"%s\",\n\
      \  \"rows\": [\n\
       %s\n\
      \  ]\n\
       }\n"
      egraph_cost.Egraph.Cost.name
      (String.concat ",\n" (List.map snd rows))
  in
  if
    not
      (Sys.file_exists egraph_baseline
      && String.equal (Serve.Cli.read_file egraph_baseline) text)
  then begin
    Serve.Cli.write_file egraph_baseline text;
    fail "bench egraph: output differs from %s; rewrote it (see git diff)"
      egraph_baseline
  end;
  Printf.printf "egraph: %d circuits identical at every -j and to %s\n%!"
    (List.length rows) egraph_baseline

let table2_guard () =
  (* Gate 5 workload: the fast subset minus C432 (the one circuit that
     needs the anytime deadline), deadline disabled, meant to run with
     --inject armed. Every governed blowup is then an injected one,
     firing on per-job tick counts, so the table and the report's Det
     subtree — degradation rungs included — are identical across -j.
     Each cell CEC-asserts against its input, so the target completing
     IS the completion + equivalence check; an armed fault that never
     fired would make the check vacuous, so that exits 1 too. *)
  let armed = Guard.Inject.armed () in
  if not armed then
    prerr_endline
      "bench: table2-guard: note: no --inject spec armed, running unfaulted";
  let runs =
    across_jobs "table2-guard"
      ~det:(fun text -> Obs.Json.String text)
      (fun () ->
        with_captured_stdout (fun () ->
            table2 ~options:nolimit ~names:fast_subset_nolimit
              ~full:false ()))
  in
  let r = List.hd runs in
  print_string r.value;
  let fired =
    List.fold_left
      (fun acc (name, _, v) ->
        if String.starts_with ~prefix:"guard.injected." name then acc + v
        else acc)
      0 (Obs.counters r.snap)
  in
  if armed && fired = 0 then
    fail "bench: table2-guard: the armed --inject fault never fired";
  Printf.printf "table2-guard: %d injected fault(s), identical at every -j\n%!"
    fired

let targets =
  [
    ("table1", fun () -> table1 ());
    ("table2", fun () -> table2 ~full:false ());
    ("table2-full", fun () -> table2 ~full:true ());
    ("table2-guard", table2_guard);
    ("ablation", ablation);
    ("extension", extension);
    ("par", par_bench);
    ("incr", incr_bench);
    ("sat", sat_bench);
    ("obs", obs_bench);
    ("egraph", egraph_bench);
    ( "all",
      fun () ->
        table1 ();
        table2 ~full:false ();
        ablation () );
    ( "all-full",
      fun () ->
        table1 ();
        table2 ~full:true ();
        ablation ();
        extension () );
  ]

(* Flags come from the Serve.Cli terms both CLIs use: -j/--jobs (and
   -jN), --stats/--report/--trace/--journal (record while the targets
   run, export when they are done) and --inject SPEC for the guard-gate
   workload. The positionals are targets, or one validator. *)
let main jobs stats report trace journal inject args =
  match args with
  | [ "check-report"; path ] -> check_report path
  | [ "check-trace"; path ] -> check_trace path
  | [ "check-exposition"; path ] -> check_exposition path
  | [ "check-journal"; path ] -> check_journal path
  | [ "compare-reports"; a; b ] -> compare_reports a b
  | args -> (
    let args = if args = [] then [ "all" ] else args in
    (* Validate the whole list first: a typo must not pass silently, nor
       after the targets named before it have already run. A validator
       with the wrong arity lands here too. *)
    match List.filter (fun a -> not (List.mem_assoc a targets)) args with
    | [] ->
      ignore (Lazy.force pool_sizes);
      Serve.Cli.setup_jobs jobs;
      Serve.Cli.setup_inject ~prog:"bench" inject;
      let obs_flags = { Serve.Cli.stats; report; trace; journal } in
      Serve.Cli.setup_obs obs_flags;
      List.iter (fun arg -> (List.assoc arg targets) ()) args;
      Serve.Cli.finish_obs obs_flags
    | unknown ->
      Printf.eprintf
        "bench: unknown target(s): %s\n\
         targets: %s\n\
         validators: check-report FILE, check-trace FILE, check-exposition \
         FILE, check-journal FILE, compare-reports A B\n"
        (String.concat " " unknown)
        (String.concat " " (List.map fst targets));
      exit 2)

let () =
  let open Cmdliner in
  let args =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"TARGET"
          ~doc:"Targets to run (default: all), or one validator and its files.")
  in
  let module Cli = Serve.Cli in
  exit
    (Cmd.eval
       (Cmd.v
          (Cmd.info "bench" ~doc:"Paper tables and correctness gates.")
          Term.(
            const main $ Cli.jobs_term $ Cli.stats_term $ Cli.report_term
            $ Cli.trace_term $ Cli.journal_term $ Cli.inject_term $ args)))
