(* Tests for lib/serve: protocol framing (partial reads, oversized and
   corrupt frames), codec totality, cancellable deadlines, per-job
   Obs.reset identity, the job engine end to end, and the socket server
   including pipelined load and disconnect-mid-job cancellation.

   Every optimization runs deadline-free (time_limit_s = Some 0.) so
   results cannot depend on wall-clock scheduling — the same convention
   as the identity gates. *)

module Frame = Serve.Frame
module Msg = Serve.Msg
module Engine = Serve.Engine

(* Every test leaves observation off, the sinks empty and injection
   disarmed, so tests are order-independent. *)
let quiesce () =
  Guard.Inject.disarm ();
  Obs.set_span_listener None;
  Obs.Journal.disable ();
  Obs.set_trace "";
  Obs.disable ();
  Obs.reset ()

(* ------------------------------------------------------------------ *)
(* Framing                                                            *)
(* ------------------------------------------------------------------ *)

let frame_payload = function
  | Frame.Decoder.Frame p -> p
  | _ -> Alcotest.fail "expected a complete frame"

let test_frame_roundtrip () =
  List.iter
    (fun p ->
      let d = Frame.Decoder.create () in
      match Frame.Decoder.feed_string d (Frame.encode p) with
      | [ Frame.Decoder.Frame got ] ->
        Alcotest.(check string) "payload survives framing" p got
      | evs ->
        Alcotest.failf "expected exactly one frame, got %d events"
          (List.length evs))
    [ ""; "x"; "{\"type\":\"stats\"}"; String.make 100_000 'z';
      "newlines\nand\x00nulls" ]

let test_frame_roundtrip_qcheck =
  QCheck.Test.make ~count:200 ~name:"framing round-trips any payload"
    QCheck.(small_list string)
    (fun payloads ->
      let d = Frame.Decoder.create () in
      let wire = String.concat "" (List.map Frame.encode payloads) in
      let got = List.map frame_payload (Frame.Decoder.feed_string d wire) in
      got = payloads)

let test_frame_byte_at_a_time () =
  let payloads = [ "alpha"; ""; "gamma-gamma" ] in
  let wire = String.concat "" (List.map Frame.encode payloads) in
  let d = Frame.Decoder.create () in
  let got = ref [] in
  String.iter
    (fun c ->
      let b = Bytes.make 1 c in
      List.iter
        (fun e -> got := frame_payload e :: !got)
        (Frame.Decoder.feed d b 0 1))
    wire;
  Alcotest.(check (list string))
    "1-byte feeds reassemble every frame" payloads (List.rev !got)

let test_frame_split_header () =
  let wire = Frame.encode "hello" in
  let d = Frame.Decoder.create () in
  let part n m = Bytes.of_string (String.sub wire n m) in
  Alcotest.(check int)
    "no event on a partial header" 0
    (List.length (Frame.Decoder.feed d (part 0 2) 0 2));
  Alcotest.(check int) "two header bytes pending" 2 (Frame.Decoder.pending d);
  let rest = String.length wire - 2 in
  match Frame.Decoder.feed d (part 2 rest) 0 rest with
  | [ Frame.Decoder.Frame "hello" ] -> ()
  | _ -> Alcotest.fail "frame did not complete after the header arrived"

let test_frame_oversized_resumes () =
  let d = Frame.Decoder.create ~max_frame:8 () in
  let wire = Frame.encode (String.make 20 'a') ^ Frame.encode "ok" in
  (match Frame.Decoder.feed_string d wire with
  | [ Frame.Decoder.Oversized 20; Frame.Decoder.Frame "ok" ] -> ()
  | _ -> Alcotest.fail "oversized frame must be skipped, then resume");
  (* and the discard state must survive chunking too *)
  let d = Frame.Decoder.create ~max_frame:8 () in
  let evs = ref [] in
  String.iter
    (fun c ->
      let b = Bytes.make 1 c in
      evs := !evs @ Frame.Decoder.feed d b 0 1)
    wire;
  match !evs with
  | [ Frame.Decoder.Oversized 20; Frame.Decoder.Frame "ok" ] -> ()
  | _ -> Alcotest.fail "oversized skip must survive 1-byte chunking"

let test_frame_corrupt_poisons () =
  let d = Frame.Decoder.create () in
  let bad = Bytes.make 4 '\xff' in
  (match Frame.Decoder.feed d bad 0 4 with
  | [ Frame.Decoder.Corrupt _ ] -> ()
  | _ -> Alcotest.fail "negative length must be Corrupt");
  Alcotest.(check int)
    "poisoned decoder rejects further input" 0
    (List.length (Frame.Decoder.feed_string d (Frame.encode "x")))

(* ------------------------------------------------------------------ *)
(* Protocol codec                                                     *)
(* ------------------------------------------------------------------ *)

let submit_spec =
  {
    (Msg.submit_defaults
       ~source:(Msg.Adder { kind = "cla"; bits = 8 })
       ~tool:"lookahead")
    with
    Msg.budget =
      {
        Msg.bdd_node_ceiling = 1000;
        sat_conflict_ceiling = 7;
        sat_conflict_budget = 0;
      };
    inject = Some "bdd@500:r";
    time_limit_s = Some 0.0;
    progress = true;
    want_blif = true;
    want_report = true;
  }

let requests =
  [
    Msg.Submit submit_spec;
    Msg.Submit
      (Msg.submit_defaults
         ~source:(Msg.Blif { name = "c17.blif"; text = ".model c17\n.end\n" })
         ~tool:"none");
    Msg.Submit
      (Msg.submit_defaults
         ~source:(Msg.Bench { name = "c17.bench"; text = "INPUT(a)\n" })
         ~tool:"resub");
    Msg.Submit (Msg.submit_defaults ~source:(Msg.Named "C432") ~tool:"mfs");
    Msg.Status 42;
    Msg.Cancel 7;
    Msg.Stats;
    Msg.Metrics;
    Msg.Trace 3;
    Msg.Shutdown;
  ]

let responses =
  [
    Msg.Submitted { id = 3; position = 1 };
    Msg.Job_status { id = 3; state = Msg.Queued; position = Some 0 };
    Msg.Job_status { id = 3; state = Msg.Running; position = None };
    Msg.Progress { id = 3; phase = "opt.round"; seq = 2 };
    Msg.Result
      {
        Msg.id = 3;
        circuit = "cla-adder-8";
        tool = "lookahead";
        state = Msg.Done;
        metrics =
          Some
            {
              Msg.pi = 17;
              po = 9;
              gates_before = 100;
              gates = 90;
              levels_before = 12;
              levels = 9;
              cells = 110;
              area = 123.5;
              delay_ps = 456.25;
              power_mw = 0.125;
            };
        degraded = true;
        error = None;
        blif = Some ".model x\n.end\n";
        report = Some (Obs.Json.Obj [ ("schema", Obs.Json.String "s") ]);
        wait_ms = 1.5;
        run_ms = 250.0;
      };
    Msg.Result
      {
        Msg.id = 4;
        circuit = "C432";
        tool = "sis";
        state = Msg.Failed;
        metrics = None;
        degraded = false;
        error = Some "boom";
        blif = None;
        report = None;
        wait_ms = 0.0;
        run_ms = 1.0;
      };
    Msg.Stats_reply
      {
        Msg.submitted = 10;
        completed = 7;
        failed = 1;
        cancelled = 2;
        rejected = 4;
        queued = 0;
        running = false;
        queue_capacity = 256;
        uptime_s = 12.25;
        interned_circuits = 3;
        slo =
          [
            {
              Msg.cls = "xs";
              objective_ms = 50.0;
              jobs = 6;
              breaches = 1;
              window = 100;
              window_breaches = 1;
              p50_ms = 12.5;
              p95_ms = 48.0;
              p99_ms = 61.25;
            };
            {
              Msg.cls = "s";
              objective_ms = 0.0;
              jobs = 1;
              breaches = 0;
              window = 100;
              window_breaches = 0;
              p50_ms = 200.0;
              p95_ms = 200.0;
              p99_ms = 200.0;
            };
          ];
      };
    Msg.Metrics_reply
      {
        text = "# TYPE lookahead_jobs_total counter\n";
        json = Obs.Json.Obj [ ("schema", Obs.Json.String "m") ];
      };
    Msg.Trace_reply
      {
        id = 3;
        trace = Obs.Json.Obj [ ("traceEvents", Obs.Json.List []) ];
      };
    Msg.Error_reply { code = "queue_full"; message = "full" };
    Msg.Shutdown_ack;
  ]

let test_request_roundtrip () =
  List.iter
    (fun r ->
      match Msg.request_of_string (Msg.encode_request r) with
      | Ok r' ->
        Alcotest.(check bool) "request survives the wire" true (r = r')
      | Error (c, m) -> Alcotest.failf "decode failed: %s: %s" c m)
    requests

let test_response_roundtrip () =
  List.iter
    (fun r ->
      match Msg.response_of_string (Msg.encode_response r) with
      | Ok r' ->
        Alcotest.(check bool) "response survives the wire" true (r = r')
      | Error (c, m) -> Alcotest.failf "decode failed: %s: %s" c m)
    responses

let test_malformed_payloads () =
  let check_err what input =
    match Msg.request_of_string input with
    | Ok _ -> Alcotest.failf "%s must not decode" what
    | Error (code, _) ->
      Alcotest.(check bool)
        (what ^ " yields a typed error code")
        true
        (String.length code > 0)
  in
  check_err "non-JSON" "{not json at all";
  check_err "JSON non-object" "[1,2,3]";
  check_err "missing type" "{\"id\": 3}";
  check_err "unknown type" "{\"type\": \"frobnicate\"}";
  check_err "bad field type" "{\"type\": \"status\", \"id\": \"three\"}";
  match Msg.request_of_string "{not json" with
  | Error ("parse", _) -> ()
  | _ -> Alcotest.fail "unparsable payloads must use the parse code"

(* ------------------------------------------------------------------ *)
(* Cancellable deadlines                                              *)
(* ------------------------------------------------------------------ *)

let test_deadline_cancel () =
  let d = Guard.Deadline.cancellable () in
  Alcotest.(check bool) "fresh handle alive" false (Guard.Deadline.expired d);
  Alcotest.(check bool)
    "fresh handle unbounded" true
    (Guard.Deadline.remaining_s d = infinity);
  Guard.Deadline.cancel d;
  Alcotest.(check bool) "cancel expires" true (Guard.Deadline.expired d);
  Alcotest.(check bool) "cancelled flag set" true (Guard.Deadline.cancelled d);
  Alcotest.(check (float 0.0))
    "no time remains" 0.0
    (Guard.Deadline.remaining_s d)

let test_deadline_bound_shares_cancel () =
  let d = Guard.Deadline.cancellable () in
  let b = Guard.Deadline.bound d 3600.0 in
  Alcotest.(check bool)
    "bound view has a finite allowance" true
    (Guard.Deadline.remaining_s b < infinity);
  Guard.Deadline.cancel d;
  Alcotest.(check bool)
    "cancelling the handle expires the bound view" true
    (Guard.Deadline.expired b);
  let d2 = Guard.Deadline.cancellable () in
  Alcotest.(check bool)
    "bound with no allowance is the handle itself" true
    (Guard.Deadline.bound d2 0.0 == d2)

let test_deadline_never_immune () =
  Guard.Deadline.cancel Guard.Deadline.never;
  Alcotest.(check bool)
    "the shared never deadline cannot be cancelled" false
    (Guard.Deadline.expired Guard.Deadline.never)

(* ------------------------------------------------------------------ *)
(* Per-job observation reset                                          *)
(* ------------------------------------------------------------------ *)

let det_of_small_run () =
  Obs.reset ();
  Obs.enable ();
  let g = Circuits.Adders.carry_lookahead 8 in
  let options =
    { Lookahead.Driver.default with Lookahead.Driver.time_limit_s = infinity }
  in
  let o = Lookahead.optimize ~options g in
  let d = Obs.det_subtree (Obs.report_json (Obs.snapshot ())) in
  (o, d)

let test_obs_reset_back_to_back () =
  quiesce ();
  let o1, d1 = det_of_small_run () in
  let o2, d2 = det_of_small_run () in
  quiesce ();
  Alcotest.(check bool)
    "back-to-back runs yield identical circuits" true
    (Aig.Io.blif_to_string ~model:"m" o1 = Aig.Io.blif_to_string ~model:"m" o2);
  Alcotest.(check bool) "det subtree is non-trivial" true (d1 <> Obs.Json.Null);
  Alcotest.(check bool)
    "Obs.reset restores a fresh-process Det subtree" true
    (Obs.Json.equal d1 d2)

(* ------------------------------------------------------------------ *)
(* Engine                                                             *)
(* ------------------------------------------------------------------ *)

type sink = {
  m : Mutex.t;
  c : Condition.t;
  mutable events : Engine.event list; (* oldest first *)
}

let sink () = { m = Mutex.create (); c = Condition.create (); events = [] }

let sink_push s e =
  Mutex.lock s.m;
  s.events <- s.events @ [ e ];
  Condition.signal s.c;
  Mutex.unlock s.m

let wait_result s id =
  Mutex.lock s.m;
  let find () =
    List.find_map
      (function
        | Engine.Job_done { result; _ } when result.Msg.id = id -> Some result
        | _ -> None)
      s.events
  in
  let rec go () =
    match find () with
    | Some r -> r
    | None ->
      Condition.wait s.c s.m;
      go ()
  in
  let r = go () in
  Mutex.unlock s.m;
  r

let progress_count s id =
  Mutex.lock s.m;
  let n =
    List.length
      (List.filter
         (function
           | Engine.Job_progress { id = pid; _ } -> pid = id
           | _ -> false)
         s.events)
  in
  Mutex.unlock s.m;
  n

let small_job =
  {
    (Msg.submit_defaults
       ~source:(Msg.Adder { kind = "cla"; bits = 8 })
       ~tool:"lookahead")
    with
    Msg.time_limit_s = Some 0.0;
    want_blif = true;
    want_report = true;
  }

(* The deterministic report subtree of a result, [Null] without one. *)
let det (r : Msg.result) =
  match r.Msg.report with
  | Some j -> Obs.det_subtree j
  | None -> Obs.Json.Null

let test_engine_validation () =
  quiesce ();
  let e = Engine.create Engine.default_config in
  let bad spec what code =
    match Engine.submit e ~tenant:1 spec with
    | Error (c, _) -> Alcotest.(check string) what code c
    | Ok _ -> Alcotest.failf "%s must be rejected" what
  in
  bad { small_job with Msg.tool = "zap" } "unknown tool" "bad_request";
  bad
    { small_job with Msg.source = Msg.Named "nonesuch" }
    "unknown circuit" "bad_request";
  bad
    { small_job with Msg.source = Msg.Adder { kind = "weird"; bits = 8 } }
    "unknown adder kind" "bad_request";
  bad
    { small_job with Msg.inject = Some "gremlin@3" }
    "bad inject spec" "bad_request";
  bad
    { small_job with
      Msg.budget = { Msg.default_budget with Msg.sat_conflict_budget = -5 }
    }
    "negative sat budget" "bad_request";
  bad
    { small_job with
      Msg.budget = { Msg.default_budget with Msg.bdd_node_ceiling = -1 }
    }
    "negative node ceiling" "bad_request"

let test_engine_queue_full () =
  quiesce ();
  let e = Engine.create { Engine.queue_capacity = 1 } in
  (match Engine.submit e ~tenant:1 small_job with
  | Ok (id, 0) -> Alcotest.(check int) "first id" 1 id
  | _ -> Alcotest.fail "first submission must be admitted at position 0");
  match Engine.submit e ~tenant:1 small_job with
  | Error ("queue_full", _) -> ()
  | _ -> Alcotest.fail "second submission must hit queue_full"

let test_engine_queued_cancel () =
  quiesce ();
  let s = sink () in
  (* never started: the job stays queued, so cancel takes the
     queued-job path deterministically *)
  let e =
    Engine.create ~on_event:(sink_push s)
      { Engine.queue_capacity = 4 }
  in
  let id =
    match Engine.submit e ~tenant:7 small_job with
    | Ok (id, _) -> id
    | Error (c, m) -> Alcotest.failf "submit failed: %s: %s" c m
  in
  (match Engine.cancel e ~tenant:8 id with
  | Error ("not_owner", _) -> ()
  | _ -> Alcotest.fail "foreign tenants must not cancel the job");
  (match Engine.cancel e ~tenant:7 id with
  | Ok Msg.Cancelled -> ()
  | _ -> Alcotest.fail "owner cancel of a queued job must report Cancelled");
  (match Engine.status e id with
  | Some (Msg.Cancelled, None) -> ()
  | _ -> Alcotest.fail "status must show Cancelled");
  let r = wait_result s id in
  Alcotest.(check bool)
    "cancelled result delivered" true
    (r.Msg.state = Msg.Cancelled)

(* One ledger: [stats] and [metrics] count the same jobs. All three
   submissions land before the executor starts, so the outcome is
   deterministic: one job done, one cancelled in the queue, one
   rejected at admission. *)
let test_engine_ledger () =
  quiesce ();
  let s = sink () in
  let e = Engine.create ~on_event:(sink_push s) Engine.default_config in
  let job =
    { (Msg.submit_defaults
         ~source:(Msg.Adder { kind = "ripple"; bits = 4 })
         ~tool:"none")
      with
      Msg.time_limit_s = Some 0.0 }
  in
  let first, _ = Result.get_ok (Engine.submit e ~tenant:1 job) in
  let second, _ = Result.get_ok (Engine.submit e ~tenant:1 job) in
  ignore (Engine.submit e ~tenant:2 { job with Msg.tool = "nosuch" });
  ignore (Engine.cancel e ~tenant:1 second);
  Engine.start e;
  ignore (wait_result s first);
  let st = Engine.stats e in
  let text, _ = Engine.metrics e in
  Engine.stop e;
  Alcotest.(check (list int))
    "stats: submitted, completed, failed, cancelled, rejected"
    [ 2; 1; 0; 1; 1 ]
    [ st.Msg.submitted; st.Msg.completed; st.Msg.failed; st.Msg.cancelled;
      st.Msg.rejected ];
  let lines = String.split_on_char '\n' text in
  Alcotest.(check bool) "metrics: one done job" true
    (List.mem "lookahead_jobs_total{state=\"done\"} 1" lines);
  Alcotest.(check bool) "metrics: one cancelled job" true
    (List.mem "lookahead_jobs_total{state=\"cancelled\"} 1" lines);
  Alcotest.(check bool) "metrics: no lookahead_rejected_total" false
    (List.exists
       (fun l ->
         List.mem "lookahead_rejected_total" (String.split_on_char ' ' l))
       lines)

let test_engine_warm_identity () =
  quiesce ();
  let s = sink () in
  let e =
    Engine.create ~on_event:(sink_push s)
      { Engine.queue_capacity = 16 }
  in
  Engine.start e;
  let submit spec =
    match Engine.submit e ~tenant:1 spec with
    | Ok (id, _) -> id
    | Error (c, m) -> Alcotest.failf "submit failed: %s: %s" c m
  in
  let id1 = submit { small_job with Msg.progress = true } in
  let id2 = submit small_job in
  let r1 = wait_result s id1 in
  let r2 = wait_result s id2 in
  let st = Engine.stats e in
  Engine.stop e;
  (* cold after stop: nothing else records between reset and snapshot *)
  let cold = Engine.run_cold small_job in
  quiesce ();
  Alcotest.(check bool) "job 1 done" true (r1.Msg.state = Msg.Done);
  Alcotest.(check bool) "job 2 done" true (r2.Msg.state = Msg.Done);
  Alcotest.(check bool) "cold run done" true (cold.Msg.state = Msg.Done);
  Alcotest.(check bool)
    "progress events streamed for job 1" true
    (progress_count s id1 > 0);
  Alcotest.(check bool)
    "no progress events for job 2" true
    (progress_count s id2 = 0);
  Alcotest.(check bool)
    "warm jobs agree on the BLIF" true
    (r1.Msg.blif = r2.Msg.blif);
  Alcotest.(check bool)
    "warm BLIF identical to cold" true
    (r2.Msg.blif = cold.Msg.blif && r2.Msg.blif <> None);
  Alcotest.(check bool)
    "warm metrics identical to cold" true
    (r2.Msg.metrics = cold.Msg.metrics && r2.Msg.metrics <> None);
  Alcotest.(check bool) "reports present" true (det r2 <> Obs.Json.Null);
  Alcotest.(check bool)
    "warm Det subtrees identical across back-to-back jobs" true
    (Obs.Json.equal (det r1) (det r2));
  Alcotest.(check bool)
    "warm Det subtree identical to cold" true
    (Obs.Json.equal (det r2) (det cold));
  Alcotest.(check bool)
    "completed stat counts both jobs" true (st.Msg.completed = 2);
  Alcotest.(check bool)
    "the generated circuit was interned" true
    (st.Msg.interned_circuits = 1)

let test_engine_faulted_warm_identity () =
  quiesce ();
  let faulted =
    {
      small_job with
      Msg.inject = Some "bdd@500:r";
      budget = { Msg.default_budget with Msg.bdd_node_ceiling = 30_000 };
    }
  in
  let s = sink () in
  let e =
    Engine.create ~on_event:(sink_push s)
      { Engine.queue_capacity = 16 }
  in
  Engine.start e;
  let id1 =
    match Engine.submit e ~tenant:1 faulted with
    | Ok (id, _) -> id
    | Error (c, m) -> Alcotest.failf "submit failed: %s: %s" c m
  in
  let id2 =
    match Engine.submit e ~tenant:1 small_job with
    | Ok (id, _) -> id
    | Error (c, m) -> Alcotest.failf "submit failed: %s: %s" c m
  in
  let r1 = wait_result s id1 in
  let r2 = wait_result s id2 in
  Engine.stop e;
  let cold_f = Engine.run_cold faulted in
  let cold_c = Engine.run_cold small_job in
  quiesce ();
  Alcotest.(check bool) "faulted job completes" true (r1.Msg.state = Msg.Done);
  Alcotest.(check bool) "faulted job degraded" true r1.Msg.degraded;
  Alcotest.(check bool)
    "faulted warm BLIF identical to faulted cold" true
    (r1.Msg.blif = cold_f.Msg.blif && r1.Msg.blif <> None);
  Alcotest.(check bool)
    "clean job after a faulted one is unpolluted" true
    (r2.Msg.blif = cold_c.Msg.blif && not r2.Msg.degraded);
  Alcotest.(check bool)
    "faulted Det subtree identical warm vs cold" true
    (Obs.Json.equal (det r1) (det cold_f))

(* [lookahead_opt opt] runs its job through run_cold with observation
   off unless an obs flag asked for it; the result's degraded bit must
   still come from the job's own counters. *)
let test_run_cold_records () =
  quiesce ();
  let r =
    Engine.run_cold
      { small_job with Msg.inject = Some "bdd@500:r"; want_report = false }
  in
  quiesce ();
  Alcotest.(check bool) "cold faulted job completes" true
    (r.Msg.state = Msg.Done);
  Alcotest.(check bool) "degraded without an obs flag" true r.Msg.degraded

(* An inline BLIF whose two gates feed each other is parsed on the
   executor; the job must fail with the reader's loop message, not a
   stack overflow. *)
let test_engine_loop_job () =
  quiesce ();
  let loop =
    Msg.submit_defaults
      ~source:
        (Msg.Blif
           {
             name = "loop.blif";
             text =
               ".model loop\n.inputs a\n.outputs z\n.names a z y\n11 1\n\
                .names y a z\n11 1\n.end\n";
           })
      ~tool:"none"
  in
  let s = sink () in
  let e = Engine.create ~on_event:(sink_push s) Engine.default_config in
  Engine.start e;
  let id =
    match Engine.submit e ~tenant:1 loop with
    | Ok (id, _) -> id
    | Error (c, m) -> Alcotest.failf "submit failed: %s: %s" c m
  in
  let r = wait_result s id in
  Engine.stop e;
  quiesce ();
  Alcotest.(check bool) "loop job failed" true (r.Msg.state = Msg.Failed);
  Alcotest.(check (option string))
    "error names the loop"
    (Some (Printexc.to_string (Failure "blif: combinational loop through z")))
    r.Msg.error

(* ------------------------------------------------------------------ *)
(* Telemetry                                                          *)
(* ------------------------------------------------------------------ *)

module Telemetry = Serve.Telemetry

(* Deterministic pseudo-random latencies spanning many buckets, all
   > 1 ms so none lands in the [0, 1] bucket whose lower edge is 0
   (where the factor-2 bound below would be vacuous). *)
let quantile_workload n =
  let state = ref 0x2545F491 in
  List.init n (fun _ ->
      state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
      1.5
      +. float_of_int (!state mod 4999)
      +. (float_of_int (!state mod 997) /. 1000.))

(* The interpolated estimate lands in the same power-of-two bucket as
   the exact order statistic, so it is within a factor of 2 of it. *)
let test_telemetry_quantiles () =
  let n = 200 in
  let values = quantile_workload n in
  let t = Telemetry.create () in
  List.iter
    (fun v ->
      Telemetry.record_result t ~cls:"m" ~state:"done" ~wait_ms:0.0 ~run_ms:v)
    values;
  let sorted = Array.of_list values in
  Array.sort compare sorted;
  let exact q =
    let rank = q *. float_of_int n in
    sorted.(max 0 (int_of_float (ceil rank) - 1))
  in
  let report =
    match
      List.find_opt (fun s -> s.Msg.cls = "m") (Telemetry.slo_report t)
    with
    | Some s -> s
    | None -> Alcotest.fail "class m missing from the SLO report"
  in
  Alcotest.(check int) "jobs recorded" n report.Msg.jobs;
  let close what est q =
    let ex = exact q in
    if not (est <= 2.0 *. ex && ex <= 2.0 *. est) then
      Alcotest.failf "%s estimate %g not within 2x of exact %g" what est ex
  in
  close "p50" report.Msg.p50_ms 0.50;
  close "p95" report.Msg.p95_ms 0.95;
  close "p99" report.Msg.p99_ms 0.99;
  Alcotest.(check bool)
    "quantile estimates are monotone" true
    (report.Msg.p50_ms <= report.Msg.p95_ms
    && report.Msg.p95_ms <= report.Msg.p99_ms)

(* Golden exposition text: a fixed set of observations must render to
   byte-identical Prometheus text (sorted iteration, %g floats, bucket
   bounds (2^b - 1) us printed exactly in ms). *)
let test_telemetry_exposition_golden () =
  let t = Telemetry.create ~slo:[ ("xs", 50.0) ] () in
  Telemetry.record_admit t ~tenant:1;
  Telemetry.record_admit t ~tenant:1;
  Telemetry.record_admit t ~tenant:2;
  Telemetry.record_reject t ~tenant:2;
  Telemetry.record_cancel t ~tenant:1;
  Telemetry.record_result t ~cls:"xs" ~state:"done" ~wait_ms:0.5 ~run_ms:3.0;
  Telemetry.record_result t ~cls:"xs" ~state:"done" ~wait_ms:2.0 ~run_ms:96.0;
  Telemetry.record_result t ~cls:"s" ~state:"failed" ~wait_ms:1.0 ~run_ms:12.0;
  Telemetry.absorb_counters t [ ("bdd.nodes", 100) ];
  let text, json =
    Telemetry.exposition t
      ~gauges:[ ("queue_depth", "Jobs waiting in the queue.", 2.0) ]
  in
  let golden =
    String.concat "\n"
      [
        "# HELP lookahead_jobs_total Completed jobs by final state.";
        "# TYPE lookahead_jobs_total counter";
        "lookahead_jobs_total{state=\"done\"} 2";
        "lookahead_jobs_total{state=\"failed\"} 1";
        "# HELP lookahead_tenant_jobs_total Per-tenant admission outcomes.";
        "# TYPE lookahead_tenant_jobs_total counter";
        "lookahead_tenant_jobs_total{tenant=\"1\",event=\"admitted\"} 2";
        "lookahead_tenant_jobs_total{tenant=\"1\",event=\"rejected\"} 0";
        "lookahead_tenant_jobs_total{tenant=\"1\",event=\"cancelled\"} 1";
        "lookahead_tenant_jobs_total{tenant=\"2\",event=\"admitted\"} 1";
        "lookahead_tenant_jobs_total{tenant=\"2\",event=\"rejected\"} 1";
        "lookahead_tenant_jobs_total{tenant=\"2\",event=\"cancelled\"} 0";
        "# HELP lookahead_queue_wait_ms Queue wait, admission to start, \
         milliseconds.";
        "# TYPE lookahead_queue_wait_ms histogram";
        "lookahead_queue_wait_ms_bucket{le=\"0.255\"} 0";
        "lookahead_queue_wait_ms_bucket{le=\"0.511\"} 1";
        "lookahead_queue_wait_ms_bucket{le=\"1.023\"} 2";
        "lookahead_queue_wait_ms_bucket{le=\"2.047\"} 3";
        "lookahead_queue_wait_ms_bucket{le=\"+Inf\"} 3";
        "lookahead_queue_wait_ms_sum 3.5";
        "lookahead_queue_wait_ms_count 3";
        "# HELP lookahead_job_run_ms Job execution wall clock by size class, \
         milliseconds.";
        "# TYPE lookahead_job_run_ms histogram";
        "lookahead_job_run_ms_bucket{class=\"xs\",le=\"2.047\"} 0";
        "lookahead_job_run_ms_bucket{class=\"xs\",le=\"4.095\"} 1";
        "lookahead_job_run_ms_bucket{class=\"xs\",le=\"8.191\"} 1";
        "lookahead_job_run_ms_bucket{class=\"xs\",le=\"16.383\"} 1";
        "lookahead_job_run_ms_bucket{class=\"xs\",le=\"32.767\"} 1";
        "lookahead_job_run_ms_bucket{class=\"xs\",le=\"65.535\"} 1";
        "lookahead_job_run_ms_bucket{class=\"xs\",le=\"131.071\"} 2";
        "lookahead_job_run_ms_bucket{class=\"xs\",le=\"+Inf\"} 2";
        "lookahead_job_run_ms_sum{class=\"xs\"} 99";
        "lookahead_job_run_ms_count{class=\"xs\"} 2";
        "lookahead_job_run_ms_bucket{class=\"s\",le=\"8.191\"} 0";
        "lookahead_job_run_ms_bucket{class=\"s\",le=\"16.383\"} 1";
        "lookahead_job_run_ms_bucket{class=\"s\",le=\"+Inf\"} 1";
        "lookahead_job_run_ms_sum{class=\"s\"} 12";
        "lookahead_job_run_ms_count{class=\"s\"} 1";
        "# HELP lookahead_job_run_ms_quantile Interpolated run-latency \
         quantiles by size class.";
        "# TYPE lookahead_job_run_ms_quantile gauge";
        "lookahead_job_run_ms_quantile{class=\"xs\",q=\"0.5\"} 4.095";
        "lookahead_job_run_ms_quantile{class=\"xs\",q=\"0.95\"} 124.517";
        "lookahead_job_run_ms_quantile{class=\"xs\",q=\"0.99\"} 129.76";
        "lookahead_job_run_ms_quantile{class=\"s\",q=\"0.5\"} 12.2875";
        "lookahead_job_run_ms_quantile{class=\"s\",q=\"0.95\"} 15.9735";
        "lookahead_job_run_ms_quantile{class=\"s\",q=\"0.99\"} 16.3011";
        "# HELP lookahead_slo_objective_ms Configured run-latency objective \
         by size class.";
        "# TYPE lookahead_slo_objective_ms gauge";
        "lookahead_slo_objective_ms{class=\"xs\"} 50";
        "# HELP lookahead_slo_breaches_total Jobs over their class objective \
         since start.";
        "# TYPE lookahead_slo_breaches_total counter";
        "lookahead_slo_breaches_total{class=\"xs\"} 1";
        "# HELP lookahead_slo_window_jobs Completed jobs in the rolling SLO \
         window.";
        "# TYPE lookahead_slo_window_jobs gauge";
        "lookahead_slo_window_jobs{class=\"xs\"} 2";
        "# HELP lookahead_slo_window_breaches Objective breaches in the \
         rolling SLO window.";
        "# TYPE lookahead_slo_window_breaches gauge";
        "lookahead_slo_window_breaches{class=\"xs\"} 1";
        "# HELP lookahead_obs_total Cumulative Obs counters over all \
         completed jobs.";
        "# TYPE lookahead_obs_total counter";
        "lookahead_obs_total{metric=\"bdd.nodes\"} 100";
        "# HELP lookahead_queue_depth Jobs waiting in the queue.";
        "# TYPE lookahead_queue_depth gauge";
        "lookahead_queue_depth 2";
        "";
      ]
  in
  Alcotest.(check string) "golden exposition text" golden text;
  match json with
  | Obs.Json.Obj fields ->
    Alcotest.(check bool)
      "JSON mirror carries the schema tag" true
      (List.assoc_opt "schema" fields
      = Some (Obs.Json.String "lookahead-metrics/1"))
  | _ -> Alcotest.fail "JSON mirror is not an object"

(* A fault-injected job must carry its trace id ("t<tenant>.j<id>")
   through the guard blowup site into the journal, and its Chrome-trace
   slice must be retrievable from the engine afterwards. *)
let test_trace_propagation () =
  quiesce ();
  let faulted =
    {
      small_job with
      Msg.inject = Some "bdd@500:r";
      budget = { Msg.default_budget with Msg.bdd_node_ceiling = 30_000 };
    }
  in
  let s = sink () in
  let e =
    Engine.create ~on_event:(sink_push s)
      { Engine.queue_capacity = 4 }
  in
  Obs.Journal.enable ();
  Engine.start e;
  let id =
    match Engine.submit e ~tenant:1 faulted with
    | Ok (id, _) -> id
    | Error (c, m) -> Alcotest.failf "submit failed: %s: %s" c m
  in
  let r = wait_result s id in
  Engine.stop e;
  let entries = Obs.Journal.entries () in
  let tr = Engine.job_trace e id in
  quiesce ();
  Alcotest.(check bool) "faulted job completes" true (r.Msg.state = Msg.Done);
  Alcotest.(check bool) "faulted job degraded" true r.Msg.degraded;
  let trace_id = Printf.sprintf "t%d.j%d" 1 id in
  let of_kind k = List.filter (fun e -> e.Obs.Journal.kind = k) entries in
  (match of_kind "guard.injected" with
  | [] -> Alcotest.fail "no guard.injected journal entry"
  | es ->
    List.iter
      (fun e ->
        Alcotest.(check string)
          "injection firing carries the job trace id" trace_id
          e.Obs.Journal.trace)
      es);
  List.iter
    (fun kind ->
      match of_kind kind with
      | [ e ] ->
        Alcotest.(check string)
          (kind ^ " carries the job trace id")
          trace_id e.Obs.Journal.trace
      | es ->
        Alcotest.failf "expected exactly one %s entry, got %d" kind
          (List.length es))
    [ "job.started"; "job.finished" ];
  (* Admission happens off the executor, so its entry carries the trace
     in the Sched payload rather than the (executor-owned) trace slot. *)
  (match of_kind "job.admitted" with
  | [ e ] -> (
    match e.Obs.Journal.sched with
    | Obs.Json.Obj fields ->
      Alcotest.(check bool)
        "admission Sched payload names the trace id" true
        (List.assoc_opt "trace" fields = Some (Obs.Json.String trace_id))
    | _ -> Alcotest.fail "admission entry has no Sched payload")
  | es ->
    Alcotest.failf "expected exactly one job.admitted entry, got %d"
      (List.length es));
  match tr with
  | Some (Obs.Json.Obj fields) -> (
    match List.assoc_opt "traceEvents" fields with
    | Some (Obs.Json.List evs) ->
      Alcotest.(check bool)
        "retained Chrome trace has events" true
        (List.length evs > 0)
    | _ -> Alcotest.fail "trace JSON lacks traceEvents")
  | _ -> Alcotest.fail "job_trace returned no trace for the finished job"

(* ------------------------------------------------------------------ *)
(* Socket server                                                      *)
(* ------------------------------------------------------------------ *)

let with_server f =
  quiesce ();
  let sock =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "serve_test_%d_%d.sock" (Unix.getpid ()) (Random.int 100000))
  in
  let listening = Atomic.make false in
  let server =
    Domain.spawn (fun () ->
        Serve.Server.run
          ~ready:(fun () -> Atomic.set listening true)
          (Serve.Server.default_config (`Unix sock)))
  in
  while not (Atomic.get listening) do
    Unix.sleepf 0.002
  done;
  Fun.protect
    ~finally:(fun () ->
      (* shut the server down if the test did not *)
      (try
         let c = Serve.Client.connect (`Unix sock) in
         ignore (Serve.Client.shutdown c);
         Serve.Client.close c
       with _ -> ());
      Domain.join server;
      quiesce ())
    (fun () -> f sock)

let test_server_end_to_end () =
  with_server (fun sock ->
      let c = Serve.Client.connect (`Unix sock) in
      let spec =
        {
          (Msg.submit_defaults
             ~source:(Msg.Adder { kind = "ripple"; bits = 8 })
             ~tool:"none")
          with
          Msg.time_limit_s = Some 0.0;
          want_blif = true;
        }
      in
      let r =
        match Serve.Client.submit_wait c spec with
        | Ok (_, r) -> r
        | Error (code, message) -> Alcotest.failf "refused: %s: %s" code message
      in
      Alcotest.(check bool) "job done over the socket" true
        (r.Msg.state = Msg.Done);
      Alcotest.(check bool) "metrics delivered" true (r.Msg.metrics <> None);
      Alcotest.(check bool) "blif delivered" true (r.Msg.blif <> None);
      let st =
        match Serve.Client.stats c with
        | Ok st -> st
        | Error (code, message) ->
          Alcotest.failf "stats refused: %s: %s" code message
      in
      Alcotest.(check int) "one job submitted" 1 st.Msg.submitted;
      Alcotest.(check int) "one job completed" 1 st.Msg.completed;
      (* a refused request is a value, not an exception *)
      (match Serve.Client.job_trace c 999 with
      | Error ("no_trace", _) -> ()
      | Error (code, _) -> Alcotest.failf "unknown trace id answered %s" code
      | Ok _ -> Alcotest.fail "unknown trace id returned a trace");
      (* protocol-level error: unknown tool *)
      Serve.Client.send c
        (Msg.Submit { spec with Msg.tool = "zap" });
      (match Serve.Client.recv c with
      | Msg.Error_reply { code = "bad_request"; _ } -> ()
      | _ -> Alcotest.fail "bad tool must answer bad_request");
      (* malformed JSON in a well-formed frame: typed parse error *)
      Serve.Client.send c Msg.Stats;
      ignore (Serve.Client.recv c);
      Serve.Client.close c)

(* Served load: eight jobs pipelined on one socket before any reply is
   read, every fourth one under a blown node ceiling with an armed
   injection, so degrading jobs share the queue with healthy ones.
   Every job must complete, exactly the faulted ones degrade, and a
   clean and a faulted warm result must equal a cold run of the same
   spec. *)
let test_server_pipelined_load () =
  let njobs = 8 in
  let faulted i = i mod 4 = 3 in
  let spec_of i =
    let kind = [| "ripple"; "cla"; "select" |].(i mod 3) in
    let base = { small_job with Msg.source = Msg.Adder { kind; bits = 6 } } in
    if faulted i then
      {
        base with
        Msg.inject = Some "bdd@200:r";
        budget = { Msg.default_budget with Msg.bdd_node_ceiling = 30_000 };
      }
    else base
  in
  let warm =
    with_server (fun sock ->
        let c = Serve.Client.connect (`Unix sock) in
        for i = 0 to njobs - 1 do
          Serve.Client.send c (Msg.Submit (spec_of i))
        done;
        (* Submitted replies come in send order; results as jobs finish. *)
        let next_job = ref 0 in
        let job_of_id = Hashtbl.create njobs in
        let results = Array.make njobs None in
        let finished = ref 0 in
        while !finished < njobs do
          match Serve.Client.recv c with
          | Msg.Submitted { id; _ } ->
            Hashtbl.replace job_of_id id !next_job;
            incr next_job
          | Msg.Result r ->
            results.(Hashtbl.find job_of_id r.Msg.id) <- Some r;
            incr finished
          | r ->
            Alcotest.failf "unexpected reply %s"
              (Obs.Json.to_string (Msg.response_to_json r))
        done;
        Serve.Client.close c;
        Array.map Option.get results)
  in
  Array.iteri
    (fun i (r : Msg.result) ->
      Alcotest.(check bool)
        (Printf.sprintf "job %d done" i)
        true (r.Msg.state = Msg.Done);
      Alcotest.(check bool)
        (Printf.sprintf "job %d degraded iff faulted" i)
        (faulted i) r.Msg.degraded)
    warm;
  List.iter
    (fun i ->
      let cold = Engine.run_cold (spec_of i) in
      let w = warm.(i) in
      let what = Printf.sprintf "job %d warm vs cold: " i in
      Alcotest.(check bool) (what ^ "BLIF") true
        (w.Msg.blif = cold.Msg.blif && w.Msg.blif <> None);
      Alcotest.(check bool) (what ^ "metrics") true
        (w.Msg.metrics = cold.Msg.metrics && w.Msg.metrics <> None);
      Alcotest.(check bool) (what ^ "degraded") cold.Msg.degraded
        w.Msg.degraded;
      Alcotest.(check bool) (what ^ "Det subtree") true
        (det w <> Obs.Json.Null && Obs.Json.equal (det w) (det cold)))
    [ 0; 3 ];
  quiesce ()

let test_server_disconnect_cancels () =
  with_server (fun sock ->
      let a = Serve.Client.connect (`Unix sock) in
      let slow =
        {
          (Msg.submit_defaults
             ~source:(Msg.Adder { kind = "cla"; bits = 16 })
             ~tool:"lookahead")
          with
          Msg.time_limit_s = Some 0.0;
        }
      in
      Serve.Client.send a (Msg.Submit slow);
      Serve.Client.send a (Msg.Submit slow);
      let id_of () =
        match Serve.Client.recv a with
        | Msg.Submitted { id; _ } -> id
        | _ -> Alcotest.fail "expected Submitted"
      in
      let id1 = id_of () in
      let id2 = id_of () in
      (* vanish with one job running and one queued *)
      Serve.Client.close a;
      let b = Serve.Client.connect (`Unix sock) in
      let state_of id =
        Serve.Client.send b (Msg.Status id);
        match Serve.Client.recv b with
        | Msg.Job_status { state; _ } -> state
        | r ->
          Alcotest.failf "expected status, got %s"
            (Obs.Json.to_string (Msg.response_to_json r))
      in
      (* the queued job must be cancelled promptly *)
      let rec await_queued_cancel tries =
        match state_of id2 with
        | Msg.Cancelled -> ()
        | Msg.Queued when tries > 0 ->
          Unix.sleepf 0.01;
          await_queued_cancel (tries - 1)
        | st ->
          Alcotest.failf "queued job of a vanished tenant is %s"
            (Msg.state_name st)
      in
      await_queued_cancel 100;
      (* the running job winds down at its next cancellation point
         (or may already have finished — both are acceptable ends) *)
      let rec await_settled tries =
        match state_of id1 with
        | Msg.Cancelled | Msg.Done -> ()
        | (Msg.Running | Msg.Queued) when tries > 0 ->
          Unix.sleepf 0.05;
          await_settled (tries - 1)
        | st -> Alcotest.failf "running job stuck in %s" (Msg.state_name st)
      in
      await_settled 600;
      Serve.Client.close b)

(* ------------------------------------------------------------------ *)
(* The CLI's source flags                                             *)
(* ------------------------------------------------------------------ *)

(* Both job front ends resolve [-c]/[--blif]/[--bench]/[--adder] to the
   wire form: a file is read and inlined under its basename. *)
let test_cli_resolve_source () =
  let resolve a b c d = Result.get_ok (Serve.Cli.resolve_source a b c d) in
  let path = Filename.temp_file "resolve" ".blif" in
  let text = ".model m\n.inputs a\n.outputs z\n.names a z\n1 1\n.end\n" in
  Serve.Cli.write_file path text;
  let blif = resolve None (Some path) None None in
  Sys.remove path;
  Alcotest.(check bool) "--blif inlined under its basename" true
    (blif = Msg.Blif { name = Filename.basename path; text });
  Alcotest.(check bool) "--adder" true
    (resolve None None None (Some ("cla", 8))
    = Msg.Adder { kind = "cla"; bits = 8 });
  Alcotest.(check bool) "no flag falls back to ripple:8" true
    (resolve None None None None = Msg.Adder { kind = "ripple"; bits = 8 });
  Alcotest.(check bool) "two sources" true
    (Serve.Cli.resolve_source (Some "C432") None None (Some ("cla", 8))
    = Error "choose at most one of --circuit, --blif, --bench and --adder")

(* ------------------------------------------------------------------ *)

let () =
  Random.self_init ();
  Alcotest.run "serve"
    [
      ( "frame",
        [
          Alcotest.test_case "round-trip" `Quick test_frame_roundtrip;
          QCheck_alcotest.to_alcotest test_frame_roundtrip_qcheck;
          Alcotest.test_case "byte-at-a-time" `Quick test_frame_byte_at_a_time;
          Alcotest.test_case "split header" `Quick test_frame_split_header;
          Alcotest.test_case "oversized resumes" `Quick
            test_frame_oversized_resumes;
          Alcotest.test_case "corrupt poisons" `Quick
            test_frame_corrupt_poisons;
        ] );
      ( "msg",
        [
          Alcotest.test_case "request round-trip" `Quick
            test_request_roundtrip;
          Alcotest.test_case "response round-trip" `Quick
            test_response_roundtrip;
          Alcotest.test_case "malformed payloads" `Quick
            test_malformed_payloads;
        ] );
      ( "deadline",
        [
          Alcotest.test_case "cancel" `Quick test_deadline_cancel;
          Alcotest.test_case "bound shares cancellation" `Quick
            test_deadline_bound_shares_cancel;
          Alcotest.test_case "never immune" `Quick test_deadline_never_immune;
        ] );
      ( "obs-reset",
        [
          Alcotest.test_case "back-to-back identical" `Slow
            test_obs_reset_back_to_back;
        ] );
      ( "engine",
        [
          Alcotest.test_case "validation" `Quick test_engine_validation;
          Alcotest.test_case "queue full" `Quick test_engine_queue_full;
          Alcotest.test_case "queued cancel" `Quick test_engine_queued_cancel;
          Alcotest.test_case "ledger" `Quick test_engine_ledger;
          Alcotest.test_case "warm identity" `Slow test_engine_warm_identity;
          Alcotest.test_case "faulted warm identity" `Slow
            test_engine_faulted_warm_identity;
          Alcotest.test_case "combinational loop fails" `Quick
            test_engine_loop_job;
          Alcotest.test_case "cold run records" `Quick test_run_cold_records;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "quantiles vs exact" `Quick
            test_telemetry_quantiles;
          Alcotest.test_case "golden exposition" `Quick
            test_telemetry_exposition_golden;
          Alcotest.test_case "trace propagation" `Slow test_trace_propagation;
        ] );
      ( "cli",
        [
          Alcotest.test_case "resolve source" `Quick test_cli_resolve_source;
        ] );
      ( "server",
        [
          Alcotest.test_case "end to end" `Slow test_server_end_to_end;
          Alcotest.test_case "pipelined load" `Slow
            test_server_pipelined_load;
          Alcotest.test_case "disconnect cancels" `Slow
            test_server_disconnect_cancels;
        ] );
    ]
