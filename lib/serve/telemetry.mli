(** The job server's one ledger.

    One [t] lives for the lifetime of an {!Engine}: every admission,
    rejection, cancellation and finished job is recorded into job
    outcome counts, size-classed latency histograms, per-tenant
    counters, a cumulative fold of per-job {!Obs} counters, and rolling
    SLO windows. [Stats] reads its totals and SLO report, and
    {!exposition} renders it all as Prometheus-style text (plus a JSON
    mirror) for the [Metrics] protocol request.

    [t] has no lock of its own: the engine calls every function here
    under its own lock (see {!Engine}). Latency series are {!Obs.Hist}
    values over whole microseconds; every value shown is in ms.

    All of this is [Sched] data — wall-clock latencies and admission
    order are scheduling-shaped — so nothing here participates in the
    determinism contract. The {e renderer} is deterministic, though:
    given the same recorded observations, {!exposition} produces
    byte-identical text (the golden format test relies on this). *)

type t

(** [create ~slo ()] — [slo] maps size classes to run-latency
    objectives in milliseconds (see {!parse_slo}). The rolling SLO
    window holds each class's last 100 executed jobs. *)
val create : ?slo:(string * float) list -> unit -> t

(** The five job size classes by reachable AND-gate count:
    [xs] < 64, [s] < 256, [m] < 1024, [l] < 4096, [xl] otherwise. *)
val size_class : gates:int -> string

val size_classes : string list

(** Parse an [--slo] spec, e.g. ["s=200,m=1000"] (class=milliseconds,
    comma-separated). *)
val parse_slo : string -> ((string * float) list, string) result

(** {1 Recording} — under the engine's lock. *)

val record_admit : t -> tenant:int -> unit

val record_reject : t -> tenant:int -> unit

(** A cancel request for a running job: a tenant event only; the job's
    final state arrives through {!record_result}. *)
val record_cancel : t -> tenant:int -> unit

(** A cancel request for a queued job, which ends it there: the tenant
    event of {!record_cancel} plus the final state [cancelled]. No wait
    or run latency is recorded. *)
val record_queued_cancel : t -> tenant:int -> unit

(** [record_result t ~cls ~state ~wait_ms ~run_ms] records an executed
    job: final state ([done]/[failed]/[cancelled]), queue wait and, for
    a job with a size class, run latency. The SLO breach test applies
    the class objective to [run_ms]. *)
val record_result :
  t -> cls:string -> state:string -> wait_ms:float -> run_ms:float -> unit

(** Fold a finished job's counter values (from {!Obs.counters}) into
    the cumulative totals exposed as [lookahead_obs_total]. *)
val absorb_counters : t -> (string * int) list -> unit

(** {1 Reading} — under the engine's lock. *)

(** Admitted and rejected submissions, over all tenants. *)
val admitted : t -> int

val rejected : t -> int

(** Jobs that ended in a state, queued cancellations included. *)
val ended : t -> Msg.job_state -> int

(** Rolling SLO health per class, for [Stats_reply]. Classes with no
    jobs and no objective are omitted. *)
val slo_report : t -> Msg.slo_stat list

(** [exposition t ~gauges] renders the Prometheus-style text and its
    JSON mirror. [gauges] injects live engine values as
    [(name, help, value)] — each becomes a [lookahead_<name>] gauge
    family. A histogram bucket's [le] is its inclusive upper bound in
    ms, printed exactly (three decimals). *)
val exposition :
  t -> gauges:(string * string * float) list -> string * Obs.Json.t
