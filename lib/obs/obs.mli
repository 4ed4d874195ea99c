(** Deterministic instrumentation for the synthesis stack.

    [Obs] is the one window into where a run's time and work go: typed
    counters, gauges and histograms, timed phase spans, and three
    exports — a human summary table, a machine JSON report, and a
    Chrome trace-event file loadable in [chrome://tracing] / Perfetto.

    The two design contracts every instrumented module relies on:

    {b Zero cost when disabled.} Recording starts with a single atomic
    flag check and returns; the disabled path allocates nothing and
    touches no shared state, so leaving instrumentation compiled into
    the hot paths is free. Enable with {!enable} (the [--stats] /
    [--report] / [--trace] flags of [bin/lookahead_opt] and
    [bench/main.exe] do).

    {b Deterministic aggregates.} Every record lands in the recording
    domain's private sink (no lock, no contention); [lib/par] gives
    each submitted task its own transient sink and folds it into the
    awaiting context's sink {e in submission order} when the future is
    awaited. Integer counter, gauge-max and histogram merges are
    commutative, so given deterministic jobs the aggregate values are
    bit-identical at any [-j]. Metrics whose {e values} genuinely
    depend on scheduling (per-worker task counts, shared-cache hit
    rates warmed by whichever jobs a worker happened to run) are
    declared {!Sched} and quarantined, together with all wall-clock
    durations, in the report's ["runtime"] subtree; the
    ["deterministic"] subtree is byte-identical across runs and across
    [-j] values. *)

(** Monotonic wall-clock (CLOCK_MONOTONIC) — the same clock [lib/par]'s
    deadline uses; bench and production share it through {!time}. *)
module Clock : sig
  val now_ns : unit -> int64
  val now_s : unit -> float
end

(** [time f] runs [f] and returns its result with the elapsed monotonic
    seconds. Always measures, independent of {!enabled} — the shared
    timing scaffold of the bench harness. *)
val time : (unit -> 'a) -> 'a * float

(** {1 Master switch} *)

val enable : unit -> unit
val disable : unit -> unit
val enabled : unit -> bool

(** Zero every sink, drop all recorded trace events, restart the trace
    epoch. Call between independent measured runs. *)
val reset : unit -> unit

(** {1 Metrics}

    Metrics are registered once by name (idempotent: registering the
    same name twice returns the same metric; the kind and stability
    must match). Names are dotted paths, [layer.metric], e.g.
    ["bdd.ite_hits"]. *)

(** [Det] values are bit-identical at any [-j] (and across runs);
    [Sched] values depend on scheduling and are exported under the
    report's ["runtime"] subtree next to the durations. *)
type stability = Det | Sched

type counter

val counter : ?stability:stability -> string -> counter
val incr : counter -> unit
val add : counter -> int -> unit

(** Gauges merge by [max] (commutative, hence deterministic for
    deterministic recorded values): high-water marks. *)
type gauge

val gauge : ?stability:stability -> string -> gauge
val gauge_max : gauge -> int -> unit

(** Histograms in the {!Hist} layout. *)
type histogram

val histogram : ?stability:stability -> string -> histogram
val observe : histogram -> int -> unit

(** The one histogram layout, of every {!histogram} and of standalone
    values: [buckets] (64) power-of-two buckets, then count, then sum.
    Value [v] lands in bucket [bucket_of v] (0 for [v <= 0]), so bucket
    [b >= 1] covers [2^(b-1) .. upper b], [upper b = 2^b - 1]. *)
module Hist : sig
  type t

  val buckets : int
  val create : unit -> t
  val observe : t -> int -> unit
  val bucket_of : int -> int
  val upper : int -> int

  (** Observations in bucket [b]. *)
  val bucket : t -> int -> int

  val count : t -> int
  val sum : t -> int

  (** [quantile h q] interpolates linearly between the inclusive bounds
      of the bucket holding rank [q * count h] ([0.] when empty): for
      values [>= 1], within a factor of 2 of the exact order
      statistic. *)
  val quantile : t -> float -> float
end

(** {1 Spans}

    A span is a named timed phase. Each completed span records a
    duration (always {!Sched}-classified — wall clock is never
    deterministic) and one Chrome trace event on the recording
    domain's track. *)

type span

val span : string -> span

(** [with_span s f] times [f]; exceptions still close the span. The
    closure may allocate at the call site even when disabled — use
    {!span_begin}/{!span_end} in allocation-sensitive code. *)
val with_span : span -> (unit -> 'a) -> 'a

(** [span_begin s] is an opaque token ([-1] when disabled — the whole
    call is one flag check, no allocation). *)
val span_begin : span -> int

val span_end : span -> int -> unit

(** [set_span_listener (Some f)] invokes [f name duration_ns] on every
    completed phase span — the driver's top-level phases [opt.round],
    [opt.balance], [opt.polish], [opt.sat_sweep] and [opt.final_cec],
    the spans the {!Journal} records as ["phase"] events — on the
    recording domain, after the span lands in the domain's sink. For
    live progress streaming (a server forwarding phase completions to
    a client); advisory and scheduling-dependent — never part of the
    deterministic report, so arming or disarming it cannot change a
    [Det] subtree. [f] must be thread-safe. Other spans never reach
    it. *)
val set_span_listener : (string -> int -> unit) option -> unit

(** {1 Trace correlation}

    One current trace id for the process, minted by the job engine at
    admission ([t<tenant>.j<id>]) and set around each job's execution.
    Every Chrome trace event records the trace id current at its
    completion (in its [args]), and every {!Journal} entry carries it,
    so spans, metrics and degradations are attributable to the job and
    tenant that caused them. Trace ids are scheduling-scoped data: they
    never enter a [Det] payload or the journal digest. *)

val set_trace : string -> unit

(** The current trace id ([""] when none is set). *)
val trace_id : unit -> string

(** {1 Sinks}

    One sink per domain is maintained automatically (domain-local, so
    recording never takes a lock). [lib/par] additionally gives every
    submitted task a transient sink via {!Sink.create}/{!Sink.absorb}
    so aggregates merge in submission order. *)

module Sink : sig
  type t

  (** A transient, unregistered sink (for per-task accounting). *)
  val create : unit -> t

  (** [with_current s f] runs [f] with [s] as the recording sink of
      this domain, restoring the previous sink afterwards. *)
  val with_current : t -> (unit -> 'a) -> 'a

  (** Fold [s] into the calling domain's current sink and empty [s].
      Counter/histogram/duration slots add, gauge slots take the max,
      trace events concatenate. *)
  val absorb : t -> unit
end

(** [register_probe f] records pull-model metrics: every {!snapshot}
    runs all probes (into a transient sink merged into that snapshot
    only), so cumulative values read from live structures — pool task
    counts, for instance — are not double-counted across snapshots. *)
val register_probe : (unit -> unit) -> unit

(** Register (once per process; later calls are no-ops) a pull-model
    probe recording [Gc.quick_stat] as [Sched] gauges —
    [gc.minor_collections], [gc.major_collections], [gc.compactions],
    [gc.heap_words], [gc.top_heap_words] — in the report's ["runtime"]
    subtree. *)
val register_gc_probe : unit -> unit

(** {1 Minimal JSON}

    Self-contained JSON tree with deterministic printing (object keys
    keep their construction order; floats print with enough digits to
    round-trip exactly), used by the report and trace exports and by
    the regression gate's validators. *)

module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  val to_string : t -> string
  val of_string : string -> t option

  (** Structural equality ([Int 1 <> Float 1.]). *)
  val equal : t -> t -> bool

  (** First binding of a key in an object; [None] otherwise. *)
  val member : string -> t -> t option
end

(** {1 Journal}

    A server-lifetime, bounded ring of typed lifecycle events (job
    admitted/started/finished, phase completions, guard degradations
    and injection firings) with an optional JSONL file sink. Unlike
    metric sinks, the journal survives {!reset} — it spans jobs.

    Each entry splits its payload: [det] holds data that is
    bit-identical across [-j] and warm/cold for deterministic
    workloads (circuit, tool, degradation rung, fault site); [sched]
    holds ids, wall-clock latencies and anything scheduling-shaped.
    Timestamps and trace ids ride alongside, outside both payloads.

    The determinism contract is checked through {!det_digest}: a
    commutative (count, sum, xor) combination of a 64-bit FNV-1a hash
    of each entry's [kind] and serialized [det] payload. Commutativity
    makes the digest independent of the order in which domains append;
    accumulating at record time makes it independent of ring eviction.
    Entries whose [det] payload is [Null] (cancellations, rejections,
    real deadline cuts — events that exist only because of scheduling
    or external action) are excluded from the digest. *)
module Journal : sig
  type entry = {
    seq : int;          (** monotonically increasing admission number *)
    ts_ns : int;        (** monotonic clock, Sched by nature *)
    trace : string;     (** trace id current at record time, [""] if none *)
    kind : string;      (** e.g. ["job.admitted"], ["guard.injected"] *)
    det : Json.t;       (** Det-classified payload ([Null] = sched-only) *)
    sched : Json.t;     (** Sched-classified payload ([Null] = none) *)
  }

  (** Start journaling. [capacity] bounds the in-memory ring (oldest
      entries are evicted); [file] appends one JSON object per line,
      rotated (renamed to [file ^ ".1"] and reopened) when it exceeds
      [file_max_bytes]. Phase-span completions (see
      {!set_span_listener}) are journaled as ["phase"] events (span
      counts are deterministic for deadline-free runs; see DESIGN.md
      §4j). Resets ring, digest and rotation state. *)
  val enable :
    ?capacity:int -> ?file:string -> ?file_max_bytes:int -> unit -> unit

  (** Stop journaling and close the file sink. *)
  val disable : unit -> unit

  val journaling : unit -> bool

  (** Append an event (no-op when disabled). Thread-safe. *)
  val record : kind:string -> ?det:Json.t -> ?sched:Json.t -> unit -> unit

  (** Ring contents, oldest first. *)
  val entries : unit -> entry list

  (** The JSONL line for an entry ([Null] payloads omitted). *)
  val entry_json : entry -> Json.t

  (** Events recorded since {!enable}/{!clear}, including evicted. *)
  val events_total : unit -> int

  (** File-sink rotations since {!enable}. *)
  val rotations : unit -> int

  (** ["<count>:<sum>:<xor>"] over the Det payload hashes — the
      telemetry identity contract (byte-identical across [-j] and
      warm/cold for deterministic workloads). *)
  val det_digest : unit -> string

  (** Empty the ring and zero the digest (keeps the configuration and
      file sink). For identity benches that compare runs. *)
  val clear : unit -> unit
end

(** {1 Snapshots and exports}

    Take snapshots only at quiescent points (every future awaited, no
    pool task in flight) — merging does not synchronize with
    still-recording domains. *)

type snapshot

val snapshot : unit -> snapshot

(** Merged value of a counter (0 when never registered/recorded). *)
val counter_value : snapshot -> string -> int

(** All registered counters with their stability and merged value,
    sorted by name — the fold-friendly view a server uses to
    accumulate per-job snapshots into cumulative telemetry. *)
val counters : snapshot -> (string * stability * int) list

(** The machine report:
    [{"schema", "deterministic": {counters,gauges,histograms},
      "runtime": {counters,gauges,histograms,durations}}],
    metric names sorted, stable key order throughout. The
    ["deterministic"] subtree is the identity-check payload; every
    wall-clock duration and {!Sched} metric lives under ["runtime"]. *)
val report_json : snapshot -> Json.t

(** The ["deterministic"] subtree of a report ([Null] when absent) —
    the part that must be byte-identical across [-j] values. *)
val det_subtree : Json.t -> Json.t

(** Chrome trace-event JSON: one ["X"] (complete) event per recorded
    span on its recording domain's track ([tid] = domain id), with
    thread-name metadata per track. Loadable in [chrome://tracing] and
    Perfetto. *)
val trace_json : snapshot -> Json.t

(** Human summary table ([--stats]). *)
val pp_summary : Format.formatter -> snapshot -> unit
