(** Wire protocol of the synthesis job server.

    Every frame payload (see {!Frame}) is one JSON object with a
    ["type"] discriminator. Requests flow client → server, responses
    server → client; a single request may be answered by several
    frames (progress events before the final result). Encoding uses
    {!Obs.Json}, whose printing is deterministic, so identical results
    have identical wire images.

    Decoding is total: any malformed payload yields a typed [Error]
    with a machine-readable code, never an exception. *)

(** Where the job's circuit comes from. File contents travel inline —
    the server never touches the client's filesystem. *)
type source =
  | Named of string  (** a [Circuits.Suite] benchmark stand-in *)
  | Blif of { name : string; text : string }
  | Bench of { name : string; text : string }
  | Adder of { kind : string; bits : int }
      (** generated adder, [kind] ∈ ripple|cla|select|skip *)

(** Human-readable circuit name, matching what the one-shot CLI would
    print for the same source. *)
val source_name : source -> string

(** Per-tenant resource budget, the wire form of {!Guard.Budget}.
    [0] means "library default". The job's one wall-clock limit is
    {!submit}'s [time_limit_s]. *)
type budget = {
  bdd_node_ceiling : int;
  sat_conflict_ceiling : int;
  sat_conflict_budget : int;
      (** cumulative conflicts across all of the job's SAT queries;
          [0] = unlimited (see [Guard.Budget.sat_conflict_budget]) *)
}

val default_budget : budget

type submit = {
  source : source;
  tool : string;
      (** lookahead | resub | mfs | none | sis | abc | dc |
          egraph[:COST] | portfolio[:COST] — COST one of
          {!Egraph.Cost.names} *)
  budget : budget;
  inject : string option;  (** fault-injection spec, [--inject] syntax *)
  time_limit_s : float option;
      (** the job's one wall-clock limit, handed to every tool as its
          deadline; [Some 0.] disables it (the [--time-limit 0] of the
          CLI); [None] uses the lookahead driver's default *)
  progress : bool;  (** stream coarse phase-completion events *)
  want_blif : bool;  (** include the optimized circuit as BLIF text *)
  want_report : bool;  (** include the [--report] observation JSON *)
}

val submit_defaults : source:source -> tool:string -> submit

type request =
  | Submit of submit
  | Status of int
  | Cancel of int
  | Stats
  | Metrics
      (** live telemetry: Prometheus-style text exposition plus a JSON
          mirror, built from cumulative per-job observations *)
  | Trace of int
      (** per-job Chrome-trace slice for a recently finished job id *)
  | Shutdown

type job_state = Queued | Running | Done | Failed | Cancelled

val state_name : job_state -> string

(** The Table-2 metric set the one-shot CLI prints, as data. *)
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
  state : job_state;  (** [Done], [Failed] or [Cancelled] *)
  metrics : metrics option;  (** present iff [Done] *)
  degraded : bool;
      (** at least one degradation-ladder rung or injected fault was
          recorded during the job *)
  error : string option;  (** present iff [Failed] *)
  blif : string option;
  report : Obs.Json.t option;
  wait_ms : float;  (** queue wait, admission → start *)
  run_ms : float;  (** execution wall clock *)
}

(** [refused spec ~code ~message] is the [Failed] result of a job that
    never ran: refused at admission, [error] = ["CODE: MESSAGE"]. *)
val refused : submit -> code:string -> message:string -> result

(** Rolling latency-objective health for one job size class (see
    {!Telemetry}): lifetime breach counts plus a bounded window of the
    most recent outcomes, and log-bucket-interpolated latency
    quantiles. *)
type slo_stat = {
  cls : string;  (** size class: xs | s | m | l | xl *)
  objective_ms : float;  (** 0 when the class has no objective *)
  jobs : int;
  breaches : int;
  window : int;  (** completed jobs currently in the rolling window *)
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
  | Metrics_reply of { text : string; json : Obs.Json.t }
  | Trace_reply of { id : int; trace : Obs.Json.t }
  | Error_reply of { code : string; message : string }
      (** codes: [parse], [bad_request], [queue_full], [shutting_down],
          [unknown_job], [not_owner], [oversized], [no_trace] *)
  | Shutdown_ack

val request_to_json : request -> Obs.Json.t
val response_to_json : response -> Obs.Json.t

(** Total decoders: [Error (code, message)] on any malformed input. *)
val request_of_json : Obs.Json.t -> (request, string * string) Stdlib.result

val response_of_json : Obs.Json.t -> (response, string * string) Stdlib.result
val request_of_string : string -> (request, string * string) Stdlib.result
val response_of_string : string -> (response, string * string) Stdlib.result
val encode_request : request -> string
val encode_response : response -> string
