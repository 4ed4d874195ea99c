(* Tests for the lib/obs instrumentation subsystem: the disabled path
   records nothing, aggregate counters are bit-identical at any pool
   size, report/trace JSON round-trips through the bundled parser, the
   deterministic subtree is stable across identical runs, and the
   counters newly exposed by Sat.Solver / Aig.Cec / Par.Pool behave. *)

let qtest ?(count = 20) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let random_aig ?(inputs = 6) ?(gates = 40) ?(outputs = 2) seed =
  let st = Random.State.make [| seed; inputs; gates |] in
  let g = Aig.create () in
  let ins = Array.init inputs (fun _ -> Aig.add_input g) in
  let pool = ref (Array.to_list ins) in
  let pick () =
    let l = List.nth !pool (Random.State.int st (List.length !pool)) in
    if Random.State.bool st then Aig.bnot l else l
  in
  for _ = 1 to gates do
    pool := Aig.band g (pick ()) (pick ()) :: !pool
  done;
  for i = 0 to outputs - 1 do
    Aig.add_output g (Printf.sprintf "y%d" i) (pick ())
  done;
  g

(* Every test leaves observation off, the journal closed and the sinks
   empty so tests are order-independent. *)
let quiesce () =
  Obs.Journal.disable ();
  Obs.disable ();
  Obs.reset ()

(* ------------------------------------------------------------------ *)
(* Disabled path                                                       *)
(* ------------------------------------------------------------------ *)

let test_disabled_records_nothing () =
  quiesce ();
  let c = Obs.counter "test.disabled_counter" in
  let h = Obs.histogram "test.disabled_hist" in
  let g = Obs.gauge "test.disabled_gauge" in
  let sp = Obs.span "test.disabled_span" in
  Obs.incr c;
  Obs.add c 41;
  Obs.observe h 7;
  Obs.gauge_max g 9;
  Alcotest.(check int) "span_begin is -1 when disabled" (-1)
    (Obs.span_begin sp);
  Obs.span_end sp (-1);
  Alcotest.(check int) "with_span still runs f" 5
    (Obs.with_span sp (fun () -> 5));
  let snap = Obs.snapshot () in
  Alcotest.(check int) "counter stayed 0" 0
    (Obs.counter_value snap "test.disabled_counter");
  (* The report must show only zeros for everything just recorded. *)
  let det = Obs.det_subtree (Obs.report_json snap) in
  (match Obs.Json.member "counters" det with
  | Some (Obs.Json.Obj kvs) ->
    List.iter
      (fun (k, v) ->
        if k = "test.disabled_counter" then
          Alcotest.(check bool) "report value 0" true (v = Obs.Json.Int 0))
      kvs
  | _ -> Alcotest.fail "no deterministic counters object");
  quiesce ()

let test_enable_disable () =
  quiesce ();
  let c = Obs.counter "test.switch_counter" in
  Obs.incr c;
  Obs.enable ();
  Obs.incr c;
  Obs.incr c;
  Obs.disable ();
  Obs.incr c;
  Alcotest.(check int) "only enabled increments counted" 2
    (Obs.counter_value (Obs.snapshot ()) "test.switch_counter");
  quiesce ()

(* ------------------------------------------------------------------ *)
(* Determinism across pool sizes                                       *)
(* ------------------------------------------------------------------ *)

let test_jobs_identity () =
  quiesce ();
  let g = random_aig ~inputs:6 ~gates:40 ~outputs:2 4242 in
  (* The anytime deadline is the one legitimately scheduling-dependent
     input; disable it so the deterministic contract is total. *)
  let options =
    { Lookahead.Driver.default with Lookahead.Driver.time_limit_s = infinity }
  in
  let run j =
    Par.set_default_jobs j;
    Obs.reset ();
    Obs.enable ();
    let o = Lookahead.Driver.optimize ~options g in
    let snap = Obs.snapshot () in
    Obs.disable ();
    (Aig.depth o, Obs.counter_value snap "opt.rounds",
     Obs.det_subtree (Obs.report_json snap))
  in
  let d1, rounds1, det1 = run 1 in
  Alcotest.(check bool) "workload actually recorded" true (rounds1 > 0);
  Alcotest.(check bool) "det subtree present" true (det1 <> Obs.Json.Null);
  List.iter
    (fun j ->
      let dj, _, detj = run j in
      Alcotest.(check int) (Printf.sprintf "depth identical at -j %d" j) d1 dj;
      Alcotest.(check bool)
        (Printf.sprintf "det subtree identical at -j %d" j)
        true
        (Obs.Json.equal det1 detj))
    [ 2; 4; 8 ];
  Par.set_default_jobs 0;
  quiesce ()

let test_det_across_runs () =
  quiesce ();
  let g = random_aig ~inputs:5 ~gates:25 ~outputs:2 77 in
  let options =
    { Lookahead.Driver.default with Lookahead.Driver.time_limit_s = infinity }
  in
  let run () =
    Obs.reset ();
    Obs.enable ();
    ignore (Lookahead.Driver.optimize ~options g);
    let det = Obs.det_subtree (Obs.report_json (Obs.snapshot ())) in
    Obs.disable ();
    det
  in
  let a = run () in
  let b = run () in
  Alcotest.(check bool) "identical across runs" true (Obs.Json.equal a b);
  quiesce ()

(* ------------------------------------------------------------------ *)
(* Report / trace JSON                                                 *)
(* ------------------------------------------------------------------ *)

let test_report_shape () =
  quiesce ();
  Obs.enable ();
  let c = Obs.counter "test.shape_counter" in
  let sched = Obs.counter ~stability:Obs.Sched "test.shape_sched" in
  let sp = Obs.span "test.shape_span" in
  Obs.add c 3;
  Obs.incr sched;
  Obs.with_span sp (fun () -> ());
  let report = Obs.report_json (Obs.snapshot ()) in
  Obs.disable ();
  (* Sched metrics and durations are quarantined under "runtime". *)
  let det = Obs.det_subtree report in
  let runtime =
    match Obs.Json.member "runtime" report with
    | Some r -> r
    | None -> Alcotest.fail "no runtime subtree"
  in
  let has sub section key =
    match Obs.Json.member section sub with
    | Some (Obs.Json.Obj kvs) -> List.mem_assoc key kvs
    | _ -> false
  in
  Alcotest.(check bool) "det counter in det" true
    (has det "counters" "test.shape_counter");
  Alcotest.(check bool) "sched counter not in det" false
    (has det "counters" "test.shape_sched");
  Alcotest.(check bool) "sched counter in runtime" true
    (has runtime "counters" "test.shape_sched");
  Alcotest.(check bool) "duration in runtime" true
    (has runtime "durations" "test.shape_span");
  Alcotest.(check bool) "duration not in det" false
    (has det "durations" "test.shape_span");
  quiesce ()

let test_trace_events () =
  quiesce ();
  Obs.enable ();
  let sp = Obs.span "test.trace_span" in
  Obs.with_span sp (fun () -> ());
  Obs.with_span sp (fun () -> ());
  let trace = Obs.trace_json (Obs.snapshot ()) in
  Obs.disable ();
  (match Obs.Json.member "traceEvents" trace with
  | Some (Obs.Json.List events) ->
    let spans =
      List.filter
        (fun e ->
          Obs.Json.member "ph" e = Some (Obs.Json.String "X")
          && Obs.Json.member "name" e
             = Some (Obs.Json.String "test.trace_span"))
        events
    in
    Alcotest.(check int) "two complete events" 2 (List.length spans);
    List.iter
      (fun e ->
        match (Obs.Json.member "ts" e, Obs.Json.member "dur" e) with
        | Some (Obs.Json.Float ts), Some (Obs.Json.Float dur) ->
          Alcotest.(check bool) "non-negative ts/dur" true
            (ts >= 0.0 && dur >= 0.0)
        | _ -> Alcotest.fail "event without float ts/dur")
      spans
  | _ -> Alcotest.fail "no traceEvents");
  (match Obs.Json.of_string (Obs.Json.to_string trace) with
  | Some parsed ->
    Alcotest.(check bool) "trace round-trips" true (Obs.Json.equal trace parsed)
  | None -> Alcotest.fail "trace does not reparse");
  quiesce ()

let prop_report_roundtrip =
  qtest ~count:50 "report round-trips; det subtree run-stable"
    QCheck.(small_list (pair small_nat small_nat))
    (fun vals ->
      quiesce ();
      Obs.enable ();
      let c = Obs.counter "test.prop_counter" in
      let h = Obs.histogram "test.prop_hist" in
      let g = Obs.gauge "test.prop_gauge" in
      let record () =
        List.iter
          (fun (a, b) ->
            Obs.add c a;
            Obs.observe h b;
            Obs.gauge_max g (a + b))
          vals
      in
      record ();
      let r1 = Obs.report_json (Obs.snapshot ()) in
      Obs.reset ();
      record ();
      let r2 = Obs.report_json (Obs.snapshot ()) in
      quiesce ();
      let roundtrips r =
        match Obs.Json.of_string (Obs.Json.to_string r) with
        | Some p -> Obs.Json.equal p r
        | None -> false
      in
      roundtrips r1 && roundtrips r2
      && Obs.Json.equal (Obs.det_subtree r1) (Obs.det_subtree r2))

(* The exported layout is the one every [Obs.histogram] records into:
   each value's bucket bounds contain it, and a histogram fed the same
   values reports the same buckets, count and sum. A random shift
   spreads the values over every bucket. *)
let prop_hist_layout =
  qtest ~count:200 "Hist buckets contain their values; report agrees"
    QCheck.(
      make ~print:Print.(list int)
        Gen.(
          list_size (0 -- 40)
            (map2 (fun x k -> (x land max_int) lsr k) int (0 -- 62))))
    (fun vals ->
      let h = Obs.Hist.create () in
      List.iter (Obs.Hist.observe h) vals;
      quiesce ();
      Obs.enable ();
      List.iter (Obs.observe (Obs.histogram "test.hist_layout")) vals;
      let report = Obs.report_json (Obs.snapshot ()) in
      quiesce ();
      let bucket b =
        match Obs.Hist.bucket h b with
        | 0 -> None
        | c -> Some (string_of_int b, Obs.Json.Int c)
      in
      let contained v =
        let b = Obs.Hist.bucket_of v in
        v <= Obs.Hist.upper b && (b = 0 || v > Obs.Hist.upper (b - 1))
      in
      List.for_all contained vals
      && Obs.Hist.count h = List.length vals
      && Obs.Hist.sum h = List.fold_left ( + ) 0 vals
      && Option.bind
           (Obs.Json.member "histograms" (Obs.det_subtree report))
           (Obs.Json.member "test.hist_layout")
         = Some
             (Obs.Json.Obj
                [ ("count", Obs.Json.Int (Obs.Hist.count h));
                  ("sum", Obs.Json.Int (Obs.Hist.sum h));
                  ("buckets",
                   Obs.Json.Obj
                     (List.filter_map bucket
                        (List.init Obs.Hist.buckets Fun.id))) ]))

(* ------------------------------------------------------------------ *)
(* Newly exposed layer counters                                        *)
(* ------------------------------------------------------------------ *)

let test_solver_stats () =
  let s = Sat.Solver.create () in
  let v1 = Sat.Solver.new_var s in
  let v2 = Sat.Solver.new_var s in
  Sat.Solver.add_clause s [ v1; v2 ];
  Sat.Solver.add_clause s [ -v1 ];
  (match Sat.Solver.solve s with
  | Sat.Solver.Sat -> ()
  | _ -> Alcotest.fail "satisfiable instance reported unsat");
  let st = Sat.Solver.stats s in
  Alcotest.(check bool) "propagations happened" true
    (st.Sat.Solver.propagations > 0);
  Alcotest.(check bool) "non-negative fields" true
    (st.Sat.Solver.conflicts >= 0
    && st.Sat.Solver.decisions >= 0
    && st.Sat.Solver.restarts >= 0)

let test_cec_stats () =
  quiesce ();
  let a = random_aig ~inputs:5 ~gates:30 ~outputs:2 9001 in
  (* Balanced copy: same functions, different structure, so the check
     cannot shortcut on structural identity. *)
  let b = Aig.Balance.run a in
  let verdict, st = Aig.Cec.check_with_stats a b in
  Alcotest.(check bool) "equivalent" true (verdict = Aig.Cec.Equivalent);
  Alcotest.(check bool) "sane counters" true
    (st.Aig.Cec.sim_rounds >= 0
    && st.Aig.Cec.sat_calls >= 0
    && st.Aig.Cec.merges >= 0
    && st.Aig.Cec.budget_exhausted <= st.Aig.Cec.sat_calls);
  (* An inequivalent pair must be refuted, and refutation needs at
     least one simulation round. *)
  let c = random_aig ~inputs:5 ~gates:30 ~outputs:2 9002 in
  let verdict2, st2 = Aig.Cec.check_with_stats a c in
  (match verdict2 with
  | Aig.Cec.Counterexample _ -> ()
  | Aig.Cec.Equivalent -> Alcotest.fail "distinct random circuits matched");
  Alcotest.(check bool) "sim ran on refutation" true
    (st2.Aig.Cec.sim_rounds > 0);
  quiesce ()

let test_pool_stats () =
  let pool = Par.Pool.create ~jobs:3 () in
  Fun.protect
    ~finally:(fun () -> Par.Pool.shutdown pool)
    (fun () ->
      let futs = List.init 20 (fun i -> Par.submit pool (fun () -> i * i)) in
      let sum = List.fold_left (fun acc f -> acc + Par.await f) 0 futs in
      Alcotest.(check int) "results" (List.fold_left ( + ) 0
        (List.init 20 (fun i -> i * i))) sum;
      let st = Par.Pool.stats pool in
      Alcotest.(check int) "pool size" 3 st.Par.Pool.pool_size;
      Alcotest.(check int) "submitted" 20 st.Par.Pool.submitted;
      Alcotest.(check int) "completed" 20 st.Par.Pool.completed;
      Alcotest.(check int) "per-domain counts sum to completed" 20
        (List.fold_left (fun acc (_, n) -> acc + n) 0
           st.Par.Pool.per_domain_completed))

(* ------------------------------------------------------------------ *)
(* Journal                                                             *)
(* ------------------------------------------------------------------ *)

(* The JSONL lines a journal file holds, parsed. *)
let journal_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")
  |> List.map (fun l ->
         match Obs.Json.of_string l with
         | Some j -> j
         | None -> Alcotest.fail "journal line does not parse as JSON")

let test_journal_events_total () =
  quiesce ();
  Obs.Journal.enable ();
  for i = 0 to 5 do
    Obs.Journal.record ~kind:"test.ev"
      ~det:(Obs.Json.Obj [ ("i", Obs.Json.Int i) ])
      ()
  done;
  Alcotest.(check int) "events_total counts every event" 6
    (Obs.Journal.events_total ());
  quiesce ()

let test_journal_digest () =
  quiesce ();
  let a = Obs.Json.Obj [ ("x", Obs.Json.Int 1) ] in
  let b = Obs.Json.Obj [ ("x", Obs.Json.Int 2) ] in
  Obs.Journal.enable ();
  Obs.Journal.record ~kind:"k" ~det:a ();
  Obs.Journal.record ~kind:"k" ~det:b ();
  let d_ab = Obs.Journal.det_digest () in
  (* Order-insensitive: any interleaving of the same Det multiset. *)
  Obs.Journal.enable ();
  Obs.Journal.record ~kind:"k" ~det:b ();
  Obs.Journal.record ~kind:"k" ~det:a ();
  Alcotest.(check string) "digest order-insensitive" d_ab
    (Obs.Journal.det_digest ());
  (* Sched-only events must not contribute. *)
  Obs.Journal.record ~kind:"k.sched"
    ~sched:(Obs.Json.Obj [ ("wall_ms", Obs.Json.Float 3.5) ])
    ();
  Alcotest.(check string) "sched-only event excluded" d_ab
    (Obs.Journal.det_digest ());
  (* The kind participates: same payload under another kind differs. *)
  Obs.Journal.enable ();
  Obs.Journal.record ~kind:"other" ~det:a ();
  Obs.Journal.record ~kind:"k" ~det:b ();
  Alcotest.(check bool) "kind is part of the digest" false
    (String.equal d_ab (Obs.Journal.det_digest ()));
  quiesce ()

let test_journal_file_rotation () =
  quiesce ();
  let path =
    Filename.temp_file "lookahead_test_journal" ".jsonl"
  in
  (* file_max_bytes is clamped to >= 4096, so write enough to roll. *)
  Obs.Journal.enable ~file:path ~file_max_bytes:4096 ();
  for i = 0 to 99 do
    Obs.Journal.record ~kind:"test.fill"
      ~det:
        (Obs.Json.Obj
           [ ("i", Obs.Json.Int i);
             ("pad", Obs.Json.String (String.make 64 'x')) ])
      ()
  done;
  Obs.Journal.disable ();
  Alcotest.(check bool) "rotation happened" true
    (Obs.Journal.rotations () > 0);
  Alcotest.(check bool) "rotated file exists" true
    (Sys.file_exists (path ^ ".1"));
  Alcotest.(check bool) "current file non-empty" true
    (journal_lines path <> []);
  Alcotest.(check bool) "rotated file non-empty" true
    (journal_lines (path ^ ".1") <> []);
  Sys.remove path;
  Sys.remove (path ^ ".1");
  quiesce ()

let test_journal_phase_hook () =
  quiesce ();
  let path = Filename.temp_file "lookahead_test_journal" ".jsonl" in
  Obs.enable ();
  Obs.Journal.enable ~file:path ();
  let phase = Obs.span "opt.round" in
  let other = Obs.span "test.not_a_phase" in
  Obs.with_span phase (fun () -> ());
  Obs.with_span other (fun () -> ());
  quiesce ();
  let kinds =
    List.filter_map
      (fun e ->
        if Obs.Json.member "kind" e = Some (Obs.Json.String "phase") then
          Option.bind (Obs.Json.member "det" e) (Obs.Json.member "phase")
        else None)
      (journal_lines path)
  in
  Sys.remove path;
  Alcotest.(check bool) "listed phase span journaled" true
    (List.mem (Obs.Json.String "opt.round") kinds);
  Alcotest.(check int) "unlisted span not journaled" 1 (List.length kinds);
  quiesce ()

(* The journal's Det digest must be invariant under the pool size: the
   same optimizer run journals the same multiset of Det payloads at any
   -j, even though domain interleaving reorders them. *)
let test_journal_jobs_identity () =
  quiesce ();
  let g = random_aig ~inputs:6 ~gates:40 ~outputs:2 9321 in
  let options =
    { Lookahead.Driver.default with Lookahead.Driver.time_limit_s = infinity }
  in
  let run j =
    Par.set_default_jobs j;
    Obs.reset ();
    Obs.enable ();
    Obs.Journal.enable ();
    ignore (Lookahead.Driver.optimize ~options g);
    let d = Obs.Journal.det_digest () in
    Obs.Journal.disable ();
    Obs.disable ();
    d
  in
  let d1 = run 1 in
  Alcotest.(check bool) "journal saw Det events" true
    (String.length d1 > 0 && d1.[0] <> '0');
  List.iter
    (fun j ->
      Alcotest.(check string)
        (Printf.sprintf "journal digest identical at -j %d" j)
        d1 (run j))
    [ 2; 4 ];
  Par.set_default_jobs 0;
  quiesce ()

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "obs"
    [
      ( "disabled",
        [
          Alcotest.test_case "records nothing" `Quick
            test_disabled_records_nothing;
          Alcotest.test_case "enable/disable boundary" `Quick
            test_enable_disable;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "counters identical at -j 1/2/4/8" `Slow
            test_jobs_identity;
          Alcotest.test_case "det subtree stable across runs" `Quick
            test_det_across_runs;
        ] );
      ( "exports",
        [
          Alcotest.test_case "report shape / quarantine" `Quick
            test_report_shape;
          Alcotest.test_case "trace events well-formed" `Quick
            test_trace_events;
          prop_report_roundtrip;
          prop_hist_layout;
        ] );
      ( "layer counters",
        [
          Alcotest.test_case "Sat.Solver.stats" `Quick test_solver_stats;
          Alcotest.test_case "Aig.Cec.check_with_stats" `Quick test_cec_stats;
          Alcotest.test_case "Par.Pool.stats" `Quick test_pool_stats;
        ] );
      ( "journal",
        [
          Alcotest.test_case "events_total counts every event" `Quick
            test_journal_events_total;
          Alcotest.test_case "Det digest semantics" `Quick
            test_journal_digest;
          Alcotest.test_case "file sink rotation" `Quick
            test_journal_file_rotation;
          Alcotest.test_case "phase hook" `Quick test_journal_phase_hook;
          Alcotest.test_case "digest identical at -j 1/2/4" `Slow
            test_journal_jobs_identity;
        ] );
    ]
