(* Job engine. See engine.mli for the model; the short version: one
   executor domain drains a bounded FIFO under a mutex, every job runs
   the one job sequence (execute_ex, which lookahead_opt runs cold
   through run_cold) between an Obs.reset and a snapshot, and all warm
   state (interned circuits) is invisible in results by construction. *)

type config = { queue_capacity : int }

let default_config = { queue_capacity = 256 }

type event =
  | Job_done of { tenant : int; result : Msg.result }
  | Job_progress of { tenant : int; id : int; phase : string; seq : int }

type job = {
  id : int;
  tenant : int;
  trace : string; (* "t<tenant>.j<id>", minted at admission *)
  spec : Msg.submit;
  rules : Guard.Inject.rule list; (* [] = no injection *)
  (* Cancellation handle, live from admission. The runner tightens it
     to the job's wall budget via Deadline.bound (same flag), so a
     cancel during the queue wait and a cancel mid-run land the same
     way. *)
  cancel_handle : Guard.Deadline.t;
  enq_ns : int64;
  mutable state : Msg.job_state;
  mutable started_ns : int64;
}

let trace_of ~tenant ~id = Printf.sprintf "t%d.j%d" tenant id

(* A finished job as the engine remembers it. The newest [finished_keep]
   keep their final state for [status] and [cancel]; the newest
   [trace_keep] also keep their Chrome-trace slice for the [Trace]
   request. Slices are rendered once, at job completion, on the
   executor domain — the request path only does a lookup. *)
type ended = {
  e_id : int;
  e_tenant : int;
  e_state : Msg.job_state;
  mutable e_trace : Obs.Json.t option;
}

let finished_keep = 1024
let trace_keep = 8

type t = {
  config : config;
  lock : Mutex.t;
  cond : Condition.t;
  queue : job Queue.t;
  jobs : (int, job) Hashtbl.t; (* queued and running, under [lock] *)
  mutable next_id : int;
  mutable accepting : bool;
  mutable stopping : bool;
  mutable running : job option;
  finished : ended option array; (* ring of [finished_keep], under [lock] *)
  mutable n_finished : int;
  telemetry : Telemetry.t; (* the one ledger, under [lock] *)
  mutable executor : unit Domain.t option;
  on_event : event -> unit;
  (* Interned generated circuits, executor-domain only. Safe to share
     with pool workers: generation is deterministic and no optimizer
     read path mutates or memoizes inside an Aig.t. *)
  intern : (string, Aig.t) Hashtbl.t;
  (* (id, tenant) of the running progress-streaming job, read by the
     span listener on any recording domain. *)
  current : (int * int) option Atomic.t;
  pseq : int Atomic.t;
  born_s : float;
}

let create ?(on_event = fun _ -> ()) ?(slo = []) config =
  {
    config;
    lock = Mutex.create ();
    cond = Condition.create ();
    queue = Queue.create ();
    jobs = Hashtbl.create 64;
    next_id = 1;
    accepting = true;
    stopping = false;
    running = None;
    finished = Array.make finished_keep None;
    n_finished = 0;
    telemetry = Telemetry.create ~slo ();
    executor = None;
    on_event = (fun e -> on_event e);
    intern = Hashtbl.create 16;
    current = Atomic.make None;
    pseq = Atomic.make 0;
    born_s = Obs.Clock.now_s ();
  }

(* --- validation (synchronous, at admission) -------------------------- *)

let known_circuit name =
  List.exists
    (fun (i : Circuits.Suite.info) -> String.equal i.Circuits.Suite.name name)
    Circuits.Suite.all

let validate (spec : Msg.submit) =
  let ( let* ) = Result.bind in
  let* () =
    if Run.tool_known spec.tool then Ok ()
    else Error ("bad_request", Printf.sprintf "unknown tool %S" spec.tool)
  in
  let* () =
    (* Budget fields are "0 = default/unlimited"; negative values are
       always a client mistake, so reject them at admission instead of
       silently treating them as defaults. *)
    let b = spec.budget in
    if
      b.Msg.bdd_node_ceiling < 0
      || b.Msg.sat_conflict_ceiling < 0
      || b.Msg.sat_conflict_budget < 0
    then Error ("bad_request", "budget fields must be non-negative")
    else Ok ()
  in
  let* () =
    match spec.source with
    | Msg.Named n ->
      if known_circuit n then Ok ()
      else Error ("bad_request", Printf.sprintf "unknown circuit %S" n)
    | Msg.Adder { kind; bits } ->
      if not (List.mem kind Run.adder_kinds) then
        Error ("bad_request", Printf.sprintf "unknown adder kind %S" kind)
      else if bits <= 0 || bits > 4096 then
        Error ("bad_request", "adder bits out of range")
      else Ok ()
    | Msg.Blif _ | Msg.Bench _ -> Ok ()
  in
  match spec.inject with
  | None -> Ok []
  | Some s -> (
    match Guard.Inject.of_string s with
    | Ok rules -> Ok rules
    | Error msg -> Error ("bad_request", "inject: " ^ msg))

(* --- execution -------------------------------------------------------- *)

let guard_budget_of (b : Msg.budget) =
  {
    Guard.Budget.bdd_node_ceiling =
      (if b.bdd_node_ceiling > 0 then b.bdd_node_ceiling
       else Guard.Budget.default.Guard.Budget.bdd_node_ceiling);
    sat_conflict_ceiling =
      (if b.sat_conflict_ceiling > 0 then b.sat_conflict_ceiling
       else Guard.Budget.default.Guard.Budget.sat_conflict_ceiling);
    sat_conflict_budget =
      (if b.sat_conflict_budget > 0 then b.sat_conflict_budget
       else Guard.Budget.default.Guard.Budget.sat_conflict_budget);
  }

(* The job's one wall bound, in the --time-limit convention: None =
   the driver's default, 0 = unbounded ([infinity]). *)
let wall_bound (spec : Msg.submit) =
  match spec.time_limit_s with
  | None -> Lookahead.Driver.default.Lookahead.Driver.time_limit_s
  | Some s when s <= 0.0 -> infinity
  | Some s -> s

let ms_of_ns ns = Int64.to_float ns *. 1e-6

(* Journal helpers. The Det half of a lifecycle payload holds only data
   that is a pure function of the job spec and its deterministic
   execution (circuit, tool, size class, final state, degradation);
   ids, tenants and wall latencies are Sched. Admission and execution
   emit identical Det payloads on the warm and cold paths, so the
   journal digest is part of the warm≡cold identity contract. *)
let journal_admitted ?sched (spec : Msg.submit) =
  Obs.Journal.record ~kind:"job.admitted"
    ~det:
      (Obs.Json.Obj
         [ ("circuit", Obs.Json.String (Msg.source_name spec.source));
           ("tool", Obs.Json.String spec.tool) ])
    ?sched ()

(* The one job sequence, for executor jobs and cold runs alike: arm
   injection, reset observation, load, optimize, measure, snapshot,
   serialize. Returns a finished result (state Done/Failed/Cancelled)
   together with the job's Obs snapshot (when one was taken) and its
   size class. [intern] is the warm state: [Some] table for executor
   jobs, [None] for a cold run. *)
let execute_ex ~intern ~id ~trace (spec : Msg.submit) ~rules
    ~cancel_handle ~wait_ns =
  let t0 = Obs.Clock.now_ns () in
  (match rules with
  | [] -> Guard.Inject.disarm ()
  | rs -> Guard.Inject.arm rs);
  Obs.reset ();
  Obs.set_trace trace;
  let name = Msg.source_name spec.source in
  Obs.Journal.record ~kind:"job.started"
    ~det:
      (Obs.Json.Obj
         [ ("circuit", Obs.Json.String name);
           ("tool", Obs.Json.String spec.tool) ])
    ~sched:(Obs.Json.Obj [ ("id", Obs.Json.Int id) ])
    ();
  let finish state ~cls ~metrics ~degraded ~error ~blif ~report ~snap =
    Guard.Inject.disarm ();
    let r =
      {
        Msg.id;
        circuit = name;
        tool = spec.tool;
        state;
        metrics;
        degraded;
        error;
        blif;
        report;
        wait_ms = ms_of_ns wait_ns;
        run_ms = ms_of_ns (Int64.sub (Obs.Clock.now_ns ()) t0);
      }
    in
    Obs.Journal.record ~kind:"job.finished"
      ~det:
        (Obs.Json.Obj
           [ ("circuit", Obs.Json.String name);
             ("tool", Obs.Json.String spec.tool);
             ("class", Obs.Json.String cls);
             ("state", Obs.Json.String (Msg.state_name state));
             ("degraded", Obs.Json.Bool degraded) ])
      ~sched:
        (Obs.Json.Obj
           [ ("id", Obs.Json.Int id);
             ("wait_ms", Obs.Json.Float r.Msg.wait_ms);
             ("run_ms", Obs.Json.Float r.Msg.run_ms) ])
      ();
    Obs.set_trace "";
    (r, snap, cls)
  in
  match
    let g =
      match (intern, spec.source) with
      | Some tbl, (Msg.Named _ | Msg.Adder _) -> (
        let key = Msg.source_name spec.source in
        match Hashtbl.find_opt tbl key with
        | Some g -> g
        | None ->
          let g = Run.build_source spec.source in
          Hashtbl.add tbl key g;
          g)
      | _ -> Run.build_source spec.source
    in
    let cls = Telemetry.size_class ~gates:(Aig.num_reachable_ands g) in
    let bound = wall_bound spec in
    let deadline = Guard.Deadline.bound cancel_handle bound in
    let options =
      {
        Lookahead.Driver.default with
        guard_budget = guard_budget_of spec.budget;
        deadline = Some deadline;
      }
    in
    let optimized = Run.tool ~options spec.tool g in
    let metrics = Run.metrics ~original:g optimized in
    let snap = Obs.snapshot () in
    (cls, optimized, metrics, snap)
  with
  | cls, optimized, metrics, snap ->
    if Guard.Deadline.cancelled cancel_handle then
      finish Msg.Cancelled ~cls ~metrics:None ~degraded:(Run.degraded snap)
        ~error:None ~blif:None ~report:None ~snap:(Some snap)
    else
      finish Msg.Done ~cls ~metrics:(Some metrics)
        ~degraded:(Run.degraded snap) ~error:None
        ~blif:
          (if spec.want_blif then Some (Run.blif_of ~name optimized)
           else None)
        ~report:
          (if spec.want_report then Some (Obs.report_json snap) else None)
        ~snap:(Some snap)
  | exception e ->
    let cancelled = Guard.Deadline.cancelled cancel_handle in
    let state = if cancelled then Msg.Cancelled else Msg.Failed in
    let error = if cancelled then None else Some (Printexc.to_string e) in
    finish state ~cls:"na" ~metrics:None ~degraded:false ~error ~blif:None
      ~report:None ~snap:None

let run_cold spec =
  (* Record as the executor does (Engine.start enables Obs for good):
     the result's [degraded] bit is read from the job's counters. *)
  Obs.enable ();
  match validate spec with
  | Error (code, msg) ->
    Obs.Journal.record ~kind:"job.rejected"
      ~sched:(Obs.Json.Obj [ ("code", Obs.Json.String code) ])
      ();
    Msg.refused spec ~code ~message:msg
  | Ok rules ->
    journal_admitted spec;
    let r, _, _ =
      execute_ex ~intern:None ~id:0
        ~trace:(trace_of ~tenant:0 ~id:0) spec ~rules
        ~cancel_handle:(Guard.Deadline.cancellable ()) ~wait_ns:0L
    in
    r

(* --- the executor domain ---------------------------------------------- *)

(* Under [lock]: [job] has its final state and leaves [t.jobs], spec and
   all, for the ring of finished jobs. *)
let retire t (job : job) trace =
  Hashtbl.remove t.jobs job.id;
  let n = t.n_finished in
  if n >= trace_keep then
    Option.iter
      (fun e -> e.e_trace <- None)
      t.finished.((n - trace_keep) mod finished_keep);
  t.finished.(n mod finished_keep) <-
    Some
      { e_id = job.id; e_tenant = job.tenant; e_state = job.state;
        e_trace = trace };
  t.n_finished <- n + 1

(* Under [lock]. *)
let find_ended t id =
  Array.find_map
    (function Some e when e.e_id = id -> Some e | _ -> None)
    t.finished

let cancelled_result (job : job) ~wait_ns =
  {
    Msg.id = job.id;
    circuit = Msg.source_name job.spec.Msg.source;
    tool = job.spec.Msg.tool;
    state = Msg.Cancelled;
    metrics = None;
    degraded = false;
    error = None;
    blif = None;
    report = None;
    wait_ms = ms_of_ns wait_ns;
    run_ms = 0.0;
  }

let rec executor_loop t =
  Mutex.lock t.lock;
  while Queue.is_empty t.queue && not t.stopping do
    Condition.wait t.cond t.lock
  done;
  if Queue.is_empty t.queue then begin
    (* stopping && empty: drain complete *)
    Mutex.unlock t.lock;
    ()
  end
  else begin
    let job = Queue.pop t.queue in
    if job.state <> Msg.Queued then begin
      (* cancelled while queued; its result was emitted at cancel time *)
      Mutex.unlock t.lock;
      executor_loop t
    end
    else begin
      job.state <- Msg.Running;
      job.started_ns <- Obs.Clock.now_ns ();
      t.running <- Some job;
      Mutex.unlock t.lock;
      let wait_ns = Int64.sub job.started_ns job.enq_ns in
      if job.spec.Msg.progress then begin
        Atomic.set t.pseq 0;
        Atomic.set t.current (Some (job.id, job.tenant))
      end;
      let result, snap, cls =
        execute_ex
          ~intern:(Some t.intern) ~id:job.id ~trace:job.trace job.spec
          ~rules:job.rules ~cancel_handle:job.cancel_handle ~wait_ns
      in
      Atomic.set t.current None;
      (* The job's counters and retained trace slice are rendered here,
         on the executor domain, so the Metrics/Trace request paths
         never touch job state. *)
      let counters, trace_slice =
        match snap with
        | None -> ([], None)
        | Some snap ->
          ( List.map (fun (n, _, v) -> (n, v)) (Obs.counters snap),
            Some (Obs.trace_json snap) )
      in
      Mutex.lock t.lock;
      job.state <- result.Msg.state;
      t.running <- None;
      retire t job trace_slice;
      Telemetry.record_result t.telemetry ~cls
        ~state:(Msg.state_name result.Msg.state)
        ~wait_ms:result.Msg.wait_ms ~run_ms:result.Msg.run_ms;
      Telemetry.absorb_counters t.telemetry counters;
      Mutex.unlock t.lock;
      t.on_event (Job_done { tenant = job.tenant; result });
      executor_loop t
    end
  end

let start t =
  Obs.enable ();
  Obs.register_gc_probe ();
  (* Obs calls the listener for the driver's coarse phases only;
     forwarding every span would flood the connection with per-output
     decompose events. *)
  Obs.set_span_listener
    (Some
       (fun phase _dur ->
         match Atomic.get t.current with
         | Some (id, tenant) ->
           t.on_event
             (Job_progress
                { tenant; id; phase; seq = Atomic.fetch_and_add t.pseq 1 })
         | None -> ()));
  Mutex.lock t.lock;
  if t.executor = None then
    t.executor <- Some (Domain.spawn (fun () -> executor_loop t));
  Mutex.unlock t.lock

let begin_shutdown t =
  Mutex.lock t.lock;
  t.accepting <- false;
  Mutex.unlock t.lock

let idle t =
  Mutex.lock t.lock;
  let no_queued =
    Queue.fold (fun acc j -> acc && j.state <> Msg.Queued) true t.queue
  in
  let r = no_queued && t.running = None in
  Mutex.unlock t.lock;
  r

(* --- client-facing operations ----------------------------------------- *)

let queued_position t id =
  (* under [lock] *)
  let pos = ref 0 and found = ref None in
  Queue.iter
    (fun j ->
      if j.state = Msg.Queued then begin
        if j.id = id then found := Some !pos;
        incr pos
      end)
    t.queue;
  !found

let count_queued t =
  Queue.fold (fun acc j -> acc + if j.state = Msg.Queued then 1 else 0) 0
    t.queue

(* Under [lock]. *)
let admit t ~tenant spec rules =
  if not t.accepting then Error ("shutting_down", "server is draining")
  else if count_queued t >= t.config.queue_capacity then
    Error
      ( "queue_full",
        Printf.sprintf "queue is at capacity (%d)" t.config.queue_capacity )
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let job =
      {
        id;
        tenant;
        trace = trace_of ~tenant ~id;
        spec;
        rules;
        cancel_handle = Guard.Deadline.cancellable ();
        enq_ns = Obs.Clock.now_ns ();
        state = Msg.Queued;
        started_ns = 0L;
      }
    in
    Queue.push job t.queue;
    Hashtbl.replace t.jobs id job;
    let position = count_queued t - 1 in
    Condition.signal t.cond;
    Ok (id, position)
  end

let submit t ~tenant spec =
  let checked = validate spec in
  Mutex.lock t.lock;
  let r =
    match checked with
    | Error e -> Error e
    | Ok rules -> admit t ~tenant spec rules
  in
  (match r with
  | Ok _ -> Telemetry.record_admit t.telemetry ~tenant
  | Error _ -> Telemetry.record_reject t.telemetry ~tenant);
  Mutex.unlock t.lock;
  (match r with
  | Ok (id, _) ->
    (* The admission event carries the job's trace id explicitly: the
       process-wide current trace belongs to whatever job is running on
       the executor right now. *)
    journal_admitted spec
      ~sched:
        (Obs.Json.Obj
           [ ("id", Obs.Json.Int id);
             ("tenant", Obs.Json.Int tenant);
             ("trace", Obs.Json.String (trace_of ~tenant ~id)) ])
  | Error (code, _) ->
    Obs.Journal.record ~kind:"job.rejected"
      ~sched:
        (Obs.Json.Obj
           [ ("tenant", Obs.Json.Int tenant);
             ("code", Obs.Json.String code) ])
      ());
  r

let status t id =
  Mutex.lock t.lock;
  let r =
    match Hashtbl.find_opt t.jobs id with
    | Some job ->
      let pos =
        if job.state = Msg.Queued then queued_position t id else None
      in
      Some (job.state, pos)
    | None -> Option.map (fun e -> (e.e_state, None)) (find_ended t id)
  in
  Mutex.unlock t.lock;
  r

(* Cancel one job; under [lock]. Emits the cancelled result for queued
   jobs (there will be no executor pass to do it); a running job winds
   down through its deadline and reports from the executor. *)
let journal_cancelled (job : job) =
  (* Cancellation is an external action — sched-only, no Det payload,
     excluded from the journal digest. *)
  Obs.Journal.record ~kind:"job.cancelled"
    ~sched:
      (Obs.Json.Obj
         [ ("id", Obs.Json.Int job.id);
           ("tenant", Obs.Json.Int job.tenant);
           ("trace", Obs.Json.String job.trace) ])
    ()

let cancel_job t (job : job) =
  match job.state with
  | Msg.Queued ->
    job.state <- Msg.Cancelled;
    retire t job None;
    Guard.Deadline.cancel job.cancel_handle;
    journal_cancelled job;
    Telemetry.record_queued_cancel t.telemetry ~tenant:job.tenant;
    let wait_ns = Int64.sub (Obs.Clock.now_ns ()) job.enq_ns in
    Some (Job_done { tenant = job.tenant; result = cancelled_result job ~wait_ns })
  | Msg.Running ->
    Guard.Deadline.cancel job.cancel_handle;
    journal_cancelled job;
    Telemetry.record_cancel t.telemetry ~tenant:job.tenant;
    None
  | _ -> None

let cancel t ~tenant id =
  Mutex.lock t.lock;
  let r =
    match (Hashtbl.find_opt t.jobs id, find_ended t id) with
    | None, None -> Error ("unknown_job", Printf.sprintf "no job %d" id)
    | (Some { tenant = owner; _ }, _ | None, Some { e_tenant = owner; _ })
      when owner <> tenant ->
      Error ("not_owner", "jobs may only be cancelled by their submitter")
    | Some job, _ ->
      let ev = cancel_job t job in
      Ok (job.state, ev)
    | None, Some e -> Ok (e.e_state, None)
  in
  Mutex.unlock t.lock;
  match r with
  | Error e -> Error e
  | Ok (state, ev) ->
    Option.iter t.on_event ev;
    Ok state

let drop_tenant t tenant =
  Mutex.lock t.lock;
  (* Collected first: cancelling a queued job retires it from [t.jobs]. *)
  let owned =
    Hashtbl.fold
      (fun _ job acc -> if job.tenant = tenant then job :: acc else acc)
      t.jobs []
  in
  let evs = List.filter_map (cancel_job t) owned in
  Mutex.unlock t.lock;
  List.iter t.on_event evs

let stats t =
  Mutex.lock t.lock;
  let ledger = t.telemetry in
  let s =
    {
      Msg.submitted = Telemetry.admitted ledger;
      completed = Telemetry.ended ledger Msg.Done;
      failed = Telemetry.ended ledger Msg.Failed;
      cancelled = Telemetry.ended ledger Msg.Cancelled;
      rejected = Telemetry.rejected ledger;
      queued = count_queued t;
      running = t.running <> None;
      queue_capacity = t.config.queue_capacity;
      uptime_s = Obs.Clock.now_s () -. t.born_s;
      interned_circuits = Hashtbl.length t.intern;
      slo = Telemetry.slo_report ledger;
    }
  in
  Mutex.unlock t.lock;
  s

let metrics t =
  Mutex.lock t.lock;
  let running_age_s =
    match t.running with
    | Some job when job.started_ns <> 0L ->
      Int64.to_float (Int64.sub (Obs.Clock.now_ns ()) job.started_ns)
      *. 1e-9
    | _ -> 0.0
  in
  let r =
    Telemetry.exposition t.telemetry
      ~gauges:
        [
          ("queue_depth", "Jobs waiting in the admission queue.",
           float_of_int (count_queued t));
          ("queue_capacity", "Admission queue capacity.",
           float_of_int t.config.queue_capacity);
          ("running_jobs", "Jobs currently executing (0 or 1).",
           if t.running = None then 0.0 else 1.0);
          ("running_job_age_s", "Wall-clock age of the running job.",
           running_age_s);
          ("uptime_s", "Engine uptime.", Obs.Clock.now_s () -. t.born_s);
          ("interned_circuits", "Warm interned circuit images.",
           float_of_int (Hashtbl.length t.intern));
          ("journal_events", "Journal events recorded since enable.",
           float_of_int (Obs.Journal.events_total ()));
          ("journal_rotations", "Journal file-sink rotations.",
           float_of_int (Obs.Journal.rotations ()));
        ]
  in
  Mutex.unlock t.lock;
  r

let job_trace t id =
  Mutex.lock t.lock;
  let r = Option.bind (find_ended t id) (fun e -> e.e_trace) in
  Mutex.unlock t.lock;
  r

let stop t =
  Mutex.lock t.lock;
  t.accepting <- false;
  t.stopping <- true;
  let evs = ref [] in
  Queue.iter
    (fun job ->
      if job.state = Msg.Queued then
        match cancel_job t job with
        | Some e -> evs := e :: !evs
        | None -> ())
    t.queue;
  (match t.running with
  | Some job -> Guard.Deadline.cancel job.cancel_handle
  | None -> ());
  Condition.broadcast t.cond;
  let ex = t.executor in
  t.executor <- None;
  Mutex.unlock t.lock;
  List.iter t.on_event !evs;
  Option.iter Domain.join ex;
  Obs.set_span_listener None
