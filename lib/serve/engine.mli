(** The job engine: a bounded FIFO queue drained by one executor
    domain, with process-level warm state shared across jobs.

    {b Execution model.} Jobs run strictly one at a time, in admission
    order, on the executor domain; intra-job parallelism comes from the
    shared [Par] pool exactly as in the one-shot CLI. Sequential
    execution is what makes warm-server results byte-identical to cold
    runs: each job gets [Obs.reset] → run → snapshot with nothing else
    recording, and fault-injection arming is per-job global state that
    must not interleave.

    {b Warm state.} Generated circuits ([Named]/[Adder] sources) are
    interned in a process-level table (generation is deterministic and
    the optimizer never mutates its input, so sharing is
    identity-safe); [Obs] stays enabled across jobs with per-job
    [reset]. Nothing else is warm: every BDD manager is made fresh per
    decomposition attempt and dropped to the GC, as in the CLI.
    {!run_cold} is the one path without warm state.

    {b Tenancy.} Every job belongs to a tenant (the server uses the
    connection id). Budgets and the job's one wall-clock limit
    ([time_limit_s]) are per-job {!Guard} contexts, so one tenant's
    blowup degrades that tenant's job through the degradation ladder
    and cannot corrupt — only delay by queueing — any other job;
    {!drop_tenant} cancels everything a vanished tenant still owns,
    running job included, via {!Guard.Deadline.cancel}.

    {b One ledger.} The engine updates its {!Telemetry.t} only inside
    critical sections on its one lock — admission and rejection in
    {!submit}, cancellation, the executor's completion block — so each
    job is counted once, and {!stats} and {!metrics} each read it in
    one critical section. [on_event] callbacks run outside the lock. *)

type config = {
  queue_capacity : int;  (** queued (not yet running) job bound *)
}

val default_config : config

(** Engine → server notifications. [Job_done] fires on the executor
    domain; [Job_progress] fires on whichever domain completed the
    phase span. Callbacks must be thread-safe and quick. *)
type event =
  | Job_done of { tenant : int; result : Msg.result }
  | Job_progress of { tenant : int; id : int; phase : string; seq : int }

type t

(** [create ?on_event ?slo config] — [slo] maps size classes to
    run-latency objectives in milliseconds (see {!Telemetry.parse_slo})
    for the engine's cumulative telemetry. *)
val create :
  ?on_event:(event -> unit) -> ?slo:(string * float) list -> config -> t

(** Spawn the executor domain. Enables [Obs] recording (reports are
    part of the protocol) and installs the progress span listener. *)
val start : t -> unit

(** Stop accepting ({!submit} answers [shutting_down]), cancel every
    queued job, cancel the running job via its deadline, and join the
    executor. Idempotent. *)
val stop : t -> unit

(** Reject new submissions but let queued and running jobs finish —
    the graceful half of shutdown. *)
val begin_shutdown : t -> unit

(** [true] once the queue is empty and no job is running. *)
val idle : t -> bool

(** Admit a job. [Error (code, message)] when the queue is full, the
    engine is shutting down, or the spec is invalid (bad tool, bad
    inject spec, bad adder kind — checked at admission so the error is
    synchronous). On success, returns the job id and its 0-based queue
    position. *)
val submit :
  t -> tenant:int -> Msg.submit -> (int * int, string * string) result

val status : t -> int -> (Msg.job_state * int option) option

(** Cancel a job owned by [tenant] (the requesting connection may only
    cancel its own jobs). Queued jobs are marked cancelled and skipped;
    the running job has its deadline cancelled and winds down at the
    next guard cancellation point. Returns the state after the call. *)
val cancel :
  t -> tenant:int -> int -> (Msg.job_state, string * string) result

(** Cancel every live job of a tenant (client disconnect). *)
val drop_tenant : t -> int -> unit

val stats : t -> Msg.server_stats

(** Live telemetry: Prometheus-style text exposition plus its JSON
    mirror, combining the ledger with live engine gauges (queue depth,
    running-job age, warm-state sizes, journal counters), rendered in
    one critical section. Safe from any thread. *)
val metrics : t -> string * Obs.Json.t

(** The retained Chrome-trace slice of a recently finished job (the
    engine keeps the last few), rendered at job completion; [None] for
    unknown or evicted ids. *)
val job_trace : t -> int -> Obs.Json.t option

(** Admission checks, without queueing: a known tool, non-negative
    budget fields, a known circuit or adder, a parsable inject spec
    (returned as rules). [Error (code, message)] otherwise. *)
val validate :
  Msg.submit -> (Guard.Inject.rule list, string * string) result

(** Run a job cold on the calling domain: {!submit}'s validation,
    then the executor's job sequence with a fresh circuit build (no
    intern) and a per-run [Obs.reset]. It enables [Obs] recording, as
    {!start} does, so the result's [degraded] bit comes from the job's
    own counters. [lookahead_opt opt] is one call of this; the bench
    and the tests use it to prove warm ≡ cold in-process. Must not run
    concurrently with a started engine's jobs. *)
val run_cold : Msg.submit -> Msg.result
