(** Cumulative server telemetry for the synthesis job engine.

    One [t] lives for the lifetime of an {!Engine}: every admission,
    rejection, cancellation and completed job is recorded into
    size-classed log-bucketed latency histograms, per-tenant counters,
    a cumulative fold of per-job {!Obs} counters, and rolling SLO
    windows. {!exposition} renders it all as Prometheus-style text
    (plus a JSON mirror) for the [Metrics] protocol request.

    All of this is [Sched] data — wall-clock latencies and admission
    order are scheduling-shaped — so nothing here participates in the
    determinism contract. The {e renderer} is deterministic, though:
    given the same recorded observations, {!exposition} produces
    byte-identical text (the golden format test relies on this). *)

type t

(** [create ~slo ~window ()] — [slo] maps size classes to run-latency
    objectives in milliseconds (see {!parse_slo}); [window] is the
    rolling SLO window length in completed jobs (default 100). *)
val create : ?slo:(string * float) list -> ?window:int -> unit -> t

(** The five job size classes by reachable AND-gate count:
    [xs] < 64, [s] < 256, [m] < 1024, [l] < 4096, [xl] otherwise. *)
val size_class : gates:int -> string

val size_classes : string list

(** Parse an [--slo] spec, e.g. ["s=200,m=1000"] (class=milliseconds,
    comma-separated). *)
val parse_slo : string -> ((string * float) list, string) result

(** All recording is thread-safe (one mutex; recording is far off any
    hot path — once per job lifecycle event). *)

val record_admit : t -> tenant:int -> unit

val record_reject : t -> tenant:int -> unit

val record_cancel : t -> tenant:int -> unit

(** [record_result t ~cls ~state ~wait_ms ~run_ms] records a finished
    job: final state ([done]/[failed]/[cancelled]), queue wait and run
    latency. The SLO breach test applies the class objective to
    [run_ms]. *)
val record_result :
  t -> cls:string -> state:string -> wait_ms:float -> run_ms:float -> unit

(** Fold a finished job's counter values (from {!Obs.counters}) into
    the cumulative totals exposed as [lookahead_obs_total]. *)
val absorb_counters : t -> (string * int) list -> unit

(** Rolling SLO health per class, for [Stats_reply]. Classes with no
    jobs and no objective are omitted. *)
val slo_report : t -> Msg.slo_stat list

(** [exposition t ~gauges] renders the Prometheus-style text and its
    JSON mirror. [gauges] injects live engine values as
    [(name, help, value)] — each becomes a [lookahead_<name>] gauge
    family. *)
val exposition :
  t -> gauges:(string * string * float) list -> string * Obs.Json.t
