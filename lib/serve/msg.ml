(* Wire protocol codec. See msg.mli. All JSON goes through Obs.Json so
   printing stays deterministic (construction-ordered object keys). *)

module J = Obs.Json

type source =
  | Named of string
  | Blif of { name : string; text : string }
  | Bench of { name : string; text : string }
  | Adder of { kind : string; bits : int }

let source_name = function
  | Named n -> n
  | Blif { name; _ } | Bench { name; _ } -> name
  | Adder { kind; bits } -> Printf.sprintf "%s-adder-%d" kind bits

type budget = {
  bdd_node_ceiling : int;
  sat_conflict_ceiling : int;
  sat_conflict_budget : int;
}

let default_budget =
  {
    bdd_node_ceiling = 0;
    sat_conflict_ceiling = 0;
    sat_conflict_budget = 0;
  }

type submit = {
  source : source;
  tool : string;
  budget : budget;
  inject : string option;
  time_limit_s : float option;
  progress : bool;
  want_blif : bool;
  want_report : bool;
}

let submit_defaults ~source ~tool =
  {
    source;
    tool;
    budget = default_budget;
    inject = None;
    time_limit_s = None;
    progress = false;
    want_blif = false;
    want_report = false;
  }

type request =
  | Submit of submit
  | Status of int
  | Cancel of int
  | Stats
  | Metrics
  | Trace of int
  | Shutdown

type job_state = Queued | Running | Done | Failed | Cancelled

let state_name = function
  | Queued -> "queued"
  | Running -> "running"
  | Done -> "done"
  | Failed -> "failed"
  | Cancelled -> "cancelled"

let state_of_name = function
  | "queued" -> Some Queued
  | "running" -> Some Running
  | "done" -> Some Done
  | "failed" -> Some Failed
  | "cancelled" -> Some Cancelled
  | _ -> None

type metrics = {
  pi : int;
  po : int;
  gates_before : int;
  gates : int;
  levels_before : int;
  levels : int;
  cells : int;
  area : float;
  delay_ps : float;
  power_mw : float;
}

type result = {
  id : int;
  circuit : string;
  tool : string;
  state : job_state;
  metrics : metrics option;
  degraded : bool;
  error : string option;
  blif : string option;
  report : J.t option;
  wait_ms : float;
  run_ms : float;
}

let refused spec ~code ~message =
  {
    id = 0;
    circuit = source_name spec.source;
    tool = spec.tool;
    state = Failed;
    metrics = None;
    degraded = false;
    error = Some (code ^ ": " ^ message);
    blif = None;
    report = None;
    wait_ms = 0.0;
    run_ms = 0.0;
  }

type slo_stat = {
  cls : string;
  objective_ms : float;
  jobs : int;
  breaches : int;
  window : int;
  window_breaches : int;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
}

type server_stats = {
  submitted : int;
  completed : int;
  failed : int;
  cancelled : int;
  rejected : int;
  queued : int;
  running : bool;
  queue_capacity : int;
  uptime_s : float;
  interned_circuits : int;
  slo : slo_stat list;
}

type response =
  | Submitted of { id : int; position : int }
  | Job_status of { id : int; state : job_state; position : int option }
  | Progress of { id : int; phase : string; seq : int }
  | Result of result
  | Stats_reply of server_stats
  | Metrics_reply of { text : string; json : J.t }
  | Trace_reply of { id : int; trace : J.t }
  | Error_reply of { code : string; message : string }
  | Shutdown_ack

(* --- encoding ------------------------------------------------------- *)

let source_to_json = function
  | Named n -> J.Obj [ ("named", J.String n) ]
  | Blif { name; text } ->
    J.Obj [ ("blif", J.String text); ("name", J.String name) ]
  | Bench { name; text } ->
    J.Obj [ ("bench", J.String text); ("name", J.String name) ]
  | Adder { kind; bits } ->
    J.Obj [ ("adder", J.String kind); ("bits", J.Int bits) ]

let budget_to_json b =
  J.Obj
    [
      ("bdd_nodes", J.Int b.bdd_node_ceiling);
      ("sat_conflicts", J.Int b.sat_conflict_ceiling);
      ("sat_conflict_budget", J.Int b.sat_conflict_budget);
    ]

let opt field f = function None -> [] | Some v -> [ (field, f v) ]

let request_to_json = function
  | Submit s ->
    J.Obj
      ([
         ("type", J.String "submit");
         ("source", source_to_json s.source);
         ("tool", J.String s.tool);
         ("budget", budget_to_json s.budget);
       ]
      @ opt "inject" (fun i -> J.String i) s.inject
      @ opt "time_limit_s" (fun t -> J.Float t) s.time_limit_s
      @ [
          ("progress", J.Bool s.progress);
          ("want_blif", J.Bool s.want_blif);
          ("want_report", J.Bool s.want_report);
        ])
  | Status id -> J.Obj [ ("type", J.String "status"); ("id", J.Int id) ]
  | Cancel id -> J.Obj [ ("type", J.String "cancel"); ("id", J.Int id) ]
  | Stats -> J.Obj [ ("type", J.String "stats") ]
  | Metrics -> J.Obj [ ("type", J.String "metrics") ]
  | Trace id -> J.Obj [ ("type", J.String "trace"); ("id", J.Int id) ]
  | Shutdown -> J.Obj [ ("type", J.String "shutdown") ]

let metrics_to_json m =
  J.Obj
    [
      ("pi", J.Int m.pi);
      ("po", J.Int m.po);
      ("gates_before", J.Int m.gates_before);
      ("gates", J.Int m.gates);
      ("levels_before", J.Int m.levels_before);
      ("levels", J.Int m.levels);
      ("cells", J.Int m.cells);
      ("area", J.Float m.area);
      ("delay_ps", J.Float m.delay_ps);
      ("power_mw", J.Float m.power_mw);
    ]

let slo_to_json s =
  J.Obj
    [
      ("class", J.String s.cls);
      ("objective_ms", J.Float s.objective_ms);
      ("jobs", J.Int s.jobs);
      ("breaches", J.Int s.breaches);
      ("window", J.Int s.window);
      ("window_breaches", J.Int s.window_breaches);
      ("p50_ms", J.Float s.p50_ms);
      ("p95_ms", J.Float s.p95_ms);
      ("p99_ms", J.Float s.p99_ms);
    ]

let response_to_json = function
  | Submitted { id; position } ->
    J.Obj
      [
        ("type", J.String "submitted");
        ("id", J.Int id);
        ("position", J.Int position);
      ]
  | Job_status { id; state; position } ->
    J.Obj
      ([
         ("type", J.String "status");
         ("id", J.Int id);
         ("state", J.String (state_name state));
       ]
      @ opt "position" (fun p -> J.Int p) position)
  | Progress { id; phase; seq } ->
    J.Obj
      [
        ("type", J.String "progress");
        ("id", J.Int id);
        ("phase", J.String phase);
        ("seq", J.Int seq);
      ]
  | Result r ->
    J.Obj
      ([
         ("type", J.String "result");
         ("id", J.Int r.id);
         ("circuit", J.String r.circuit);
         ("tool", J.String r.tool);
         ("state", J.String (state_name r.state));
         ("degraded", J.Bool r.degraded);
       ]
      @ opt "metrics" metrics_to_json r.metrics
      @ opt "error" (fun e -> J.String e) r.error
      @ opt "blif" (fun b -> J.String b) r.blif
      @ opt "report" Fun.id r.report
      @ [ ("wait_ms", J.Float r.wait_ms); ("run_ms", J.Float r.run_ms) ])
  | Stats_reply s ->
    J.Obj
      [
        ("type", J.String "stats");
        ("submitted", J.Int s.submitted);
        ("completed", J.Int s.completed);
        ("failed", J.Int s.failed);
        ("cancelled", J.Int s.cancelled);
        ("rejected", J.Int s.rejected);
        ("queued", J.Int s.queued);
        ("running", J.Bool s.running);
        ("queue_capacity", J.Int s.queue_capacity);
        ("uptime_s", J.Float s.uptime_s);
        ("interned_circuits", J.Int s.interned_circuits);
        ("slo", J.List (List.map slo_to_json s.slo));
      ]
  | Metrics_reply { text; json } ->
    J.Obj
      [
        ("type", J.String "metrics");
        ("text", J.String text);
        ("json", json);
      ]
  | Trace_reply { id; trace } ->
    J.Obj
      [ ("type", J.String "trace"); ("id", J.Int id); ("trace", trace) ]
  | Error_reply { code; message } ->
    J.Obj
      [
        ("type", J.String "error");
        ("code", J.String code);
        ("message", J.String message);
      ]
  | Shutdown_ack -> J.Obj [ ("type", J.String "shutdown_ack") ]

(* --- decoding ------------------------------------------------------- *)

let bad fmt = Printf.ksprintf (fun m -> Error ("bad_request", m)) fmt

let str_field j name =
  match J.member name j with
  | Some (J.String s) -> Ok s
  | Some _ -> bad "field %S must be a string" name
  | None -> bad "missing field %S" name

let int_field j name =
  match J.member name j with
  | Some (J.Int i) -> Ok i
  | Some _ -> bad "field %S must be an integer" name
  | None -> bad "missing field %S" name

let opt_int_field j name ~default =
  match J.member name j with
  | Some (J.Int i) -> Ok i
  | None -> Ok default
  | Some _ -> bad "field %S must be an integer" name

let opt_bool_field j name ~default =
  match J.member name j with
  | Some (J.Bool b) -> Ok b
  | None -> Ok default
  | Some _ -> bad "field %S must be a boolean" name

let opt_float_field j name =
  match J.member name j with
  | Some (J.Float f) -> Ok (Some f)
  | Some (J.Int i) -> Ok (Some (float_of_int i))
  | None -> Ok None
  | Some _ -> bad "field %S must be a number" name

let opt_str_field j name =
  match J.member name j with
  | Some (J.String s) -> Ok (Some s)
  | None -> Ok None
  | Some _ -> bad "field %S must be a string" name

let ( let* ) = Result.bind

let source_of_json j =
  match
    (J.member "named" j, J.member "blif" j, J.member "bench" j,
     J.member "adder" j)
  with
  | Some (J.String n), None, None, None -> Ok (Named n)
  | None, Some (J.String text), None, None ->
    let* name = opt_str_field j "name" in
    Ok (Blif { name = Option.value name ~default:"blif-input"; text })
  | None, None, Some (J.String text), None ->
    let* name = opt_str_field j "name" in
    Ok (Bench { name = Option.value name ~default:"bench-input"; text })
  | None, None, None, Some (J.String kind) ->
    let* bits = int_field j "bits" in
    if bits <= 0 || bits > 4096 then bad "adder bits out of range"
    else Ok (Adder { kind; bits })
  | _ ->
    bad "source must have exactly one of \"named\", \"blif\", \"bench\", \
         \"adder\""

let budget_of_json = function
  | None -> Ok default_budget
  | Some j ->
    let* bdd_node_ceiling = opt_int_field j "bdd_nodes" ~default:0 in
    let* sat_conflict_ceiling = opt_int_field j "sat_conflicts" ~default:0 in
    let* sat_conflict_budget =
      opt_int_field j "sat_conflict_budget" ~default:0
    in
    Ok { bdd_node_ceiling; sat_conflict_ceiling; sat_conflict_budget }

let submit_of_json j =
  let* source =
    match J.member "source" j with
    | Some s -> source_of_json s
    | None -> bad "missing field \"source\""
  in
  let* tool = str_field j "tool" in
  let* budget = budget_of_json (J.member "budget" j) in
  let* inject = opt_str_field j "inject" in
  let* time_limit_s = opt_float_field j "time_limit_s" in
  let* progress = opt_bool_field j "progress" ~default:false in
  let* want_blif = opt_bool_field j "want_blif" ~default:false in
  let* want_report = opt_bool_field j "want_report" ~default:false in
  Ok
    (Submit
       {
         source;
         tool;
         budget;
         inject;
         time_limit_s;
         progress;
         want_blif;
         want_report;
       })

let request_of_json j =
  match j with
  | J.Obj _ -> (
    let* ty = str_field j "type" in
    match ty with
    | "submit" -> submit_of_json j
    | "status" ->
      let* id = int_field j "id" in
      Ok (Status id)
    | "cancel" ->
      let* id = int_field j "id" in
      Ok (Cancel id)
    | "stats" -> Ok Stats
    | "metrics" -> Ok Metrics
    | "trace" ->
      let* id = int_field j "id" in
      Ok (Trace id)
    | "shutdown" -> Ok Shutdown
    | other -> bad "unknown request type %S" other)
  | _ -> bad "request must be a JSON object"

let metrics_of_json j =
  let* pi = int_field j "pi" in
  let* po = int_field j "po" in
  let* gates_before = int_field j "gates_before" in
  let* gates = int_field j "gates" in
  let* levels_before = int_field j "levels_before" in
  let* levels = int_field j "levels" in
  let* cells = int_field j "cells" in
  let num name =
    match J.member name j with
    | Some (J.Float f) -> Ok f
    | Some (J.Int i) -> Ok (float_of_int i)
    | _ -> bad "field %S must be a number" name
  in
  let* area = num "area" in
  let* delay_ps = num "delay_ps" in
  let* power_mw = num "power_mw" in
  Ok
    {
      pi;
      po;
      gates_before;
      gates;
      levels_before;
      levels;
      cells;
      area;
      delay_ps;
      power_mw;
    }

let state_field j =
  let* s = str_field j "state" in
  match state_of_name s with
  | Some st -> Ok st
  | None -> bad "unknown job state %S" s

let num_field j name ~default =
  match J.member name j with
  | Some (J.Float f) -> Ok f
  | Some (J.Int i) -> Ok (float_of_int i)
  | None -> Ok default
  | Some _ -> bad "field %S must be a number" name

let slo_of_json j =
  let* cls = str_field j "class" in
  let* objective_ms = num_field j "objective_ms" ~default:0.0 in
  let* jobs = opt_int_field j "jobs" ~default:0 in
  let* breaches = opt_int_field j "breaches" ~default:0 in
  let* window = opt_int_field j "window" ~default:0 in
  let* window_breaches = opt_int_field j "window_breaches" ~default:0 in
  let* p50_ms = num_field j "p50_ms" ~default:0.0 in
  let* p95_ms = num_field j "p95_ms" ~default:0.0 in
  let* p99_ms = num_field j "p99_ms" ~default:0.0 in
  Ok
    {
      cls;
      objective_ms;
      jobs;
      breaches;
      window;
      window_breaches;
      p50_ms;
      p95_ms;
      p99_ms;
    }

let response_of_json j =
  match j with
  | J.Obj _ -> (
    let* ty = str_field j "type" in
    match ty with
    | "submitted" ->
      let* id = int_field j "id" in
      let* position = int_field j "position" in
      Ok (Submitted { id; position })
    | "status" ->
      let* id = int_field j "id" in
      let* state = state_field j in
      let* position =
        match J.member "position" j with
        | Some (J.Int p) -> Ok (Some p)
        | None -> Ok None
        | Some _ -> bad "field \"position\" must be an integer"
      in
      Ok (Job_status { id; state; position })
    | "progress" ->
      let* id = int_field j "id" in
      let* phase = str_field j "phase" in
      let* seq = int_field j "seq" in
      Ok (Progress { id; phase; seq })
    | "result" ->
      let* id = int_field j "id" in
      let* circuit = str_field j "circuit" in
      let* tool = str_field j "tool" in
      let* state = state_field j in
      let* degraded = opt_bool_field j "degraded" ~default:false in
      let* metrics =
        match J.member "metrics" j with
        | Some m ->
          let* m = metrics_of_json m in
          Ok (Some m)
        | None -> Ok None
      in
      let* error = opt_str_field j "error" in
      let* blif = opt_str_field j "blif" in
      let report = J.member "report" j in
      let* wait_ms = num_field j "wait_ms" ~default:0.0 in
      let* run_ms = num_field j "run_ms" ~default:0.0 in
      Ok
        (Result
           {
             id;
             circuit;
             tool;
             state;
             metrics;
             degraded;
             error;
             blif;
             report;
             wait_ms;
             run_ms;
           })
    | "stats" ->
      let* submitted = int_field j "submitted" in
      let* completed = int_field j "completed" in
      let* failed = int_field j "failed" in
      let* cancelled = int_field j "cancelled" in
      let* rejected = opt_int_field j "rejected" ~default:0 in
      let* queued = int_field j "queued" in
      let* running = opt_bool_field j "running" ~default:false in
      let* queue_capacity = int_field j "queue_capacity" in
      let* uptime_s = num_field j "uptime_s" ~default:0.0 in
      let* interned_circuits = int_field j "interned_circuits" in
      let* slo =
        match J.member "slo" j with
        | None -> Ok []
        | Some (J.List xs) ->
          List.fold_left
            (fun acc x ->
              let* acc = acc in
              let* s = slo_of_json x in
              Ok (s :: acc))
            (Ok []) xs
          |> Result.map List.rev
        | Some _ -> bad "field \"slo\" must be a list"
      in
      Ok
        (Stats_reply
           {
             submitted;
             completed;
             failed;
             cancelled;
             rejected;
             queued;
             running;
             queue_capacity;
             uptime_s;
             interned_circuits;
             slo;
           })
    | "metrics" ->
      let* text = str_field j "text" in
      let json = Option.value (J.member "json" j) ~default:J.Null in
      Ok (Metrics_reply { text; json })
    | "trace" ->
      let* id = int_field j "id" in
      let trace = Option.value (J.member "trace" j) ~default:J.Null in
      Ok (Trace_reply { id; trace })
    | "error" ->
      let* code = str_field j "code" in
      let* message = str_field j "message" in
      Ok (Error_reply { code; message })
    | "shutdown_ack" -> Ok Shutdown_ack
    | other -> bad "unknown response type %S" other)
  | _ -> bad "response must be a JSON object"

let request_of_string s =
  match J.of_string s with
  | None -> Error ("parse", "malformed JSON payload")
  | Some j -> request_of_json j

let response_of_string s =
  match J.of_string s with
  | None -> Error ("parse", "malformed JSON payload")
  | Some j -> response_of_json j

let encode_request r = J.to_string (request_to_json r)
let encode_response r = J.to_string (response_to_json r)
