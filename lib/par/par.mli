(** Deterministic domain-pool parallel runtime.

    A fixed-size pool of OCaml 5 domains with a FIFO work queue and
    futures. The design contract, relied on by every caller in this
    repository, is {e order determinism}: {!map} and {!map_merge}
    assemble results in submission order, so given a deterministic job
    function the output is bit-identical regardless of worker count or
    scheduling.

    Shared mutable state (the CUDD-style [Bdd] manager, [Network]s,
    growing [Aig]s) is single-domain; the isolation convention is that a
    job either builds all the state it mutates itself, or receives it
    from the [~init] callback of {!map}/{!map_merge}, which is invoked at most
    once per worker domain per call (fresh BDD managers, network copies,
    scratch buffers). Immutable or frozen structures (an [Aig.t] that is
    only read, truth tables) may be shared freely — no read path of those
    modules memoizes.

    {!await} {e helps}: while its future is pending it executes queued
    tasks instead of blocking, so jobs may submit sub-jobs to the same
    pool and await them without deadlock, and a 1-job pool (the [-j 1]
    debugging mode) runs everything in the calling domain with no
    domains spawned and no cross-domain scheduling at all. *)

module Pool : sig
  type t

  (** [create ?jobs ()] spawns [jobs - 1] worker domains (the submitting
      domain is the remaining worker, via helping {!await}). Default
      [jobs] is {!default_jobs}. [jobs = 1] spawns nothing. *)
  val create : ?jobs:int -> unit -> t

  (** Total parallelism ([jobs] of {!create}). *)
  val size : t -> int

  (** Pool introspection snapshot. [helped] counts the tasks executed
      inside a helping {!await} rather than a worker loop;
      [per_domain_completed] maps domain ids to tasks completed there,
      ascending. All values are scheduling-dependent (at [-j 1] {!map}
      bypasses the pool entirely, so nothing is ever submitted); the
      shared pool's numbers are exported through [Obs] probes as the
      [Sched]-class [par.*] metrics. *)
  type stats = {
    pool_size : int;
    submitted : int;
    completed : int;
    helped : int;
    per_domain_completed : (int * int) list;
  }

  val stats : t -> stats

  (** Drain the queue, join the worker domains. Idempotent. *)
  val shutdown : t -> unit
end

type 'a future

(** [submit pool f] enqueues [f]; exceptions raised by [f] are stored
    and re-raised (with their backtrace) by {!await}. *)
val submit : Pool.t -> (unit -> 'a) -> 'a future

(** Wait for a future, executing queued tasks while it is pending.
    When observation is enabled ([Obs.enable]), each task records into
    its own private sink, and [await] folds that sink into the awaiting
    context — so {!map}/{!map_merge} callers merge per-task metrics in
    submission order and aggregate counts are bit-identical at any
    [-j]. *)
val await : 'a future -> 'a

(** Jobs used when no explicit pool/size is given: the last positive
    {!set_default_jobs}, else [LOOKAHEAD_JOBS], else
    [Domain.recommended_domain_count ()]. *)
val default_jobs : unit -> int

(** [set_default_jobs n] forces {!default_jobs} to [n] (the [-j] flag);
    [n <= 0] reverts to automatic. The shared pool is torn down and
    lazily re-created if its size changes. Call from the main domain
    only. *)
val set_default_jobs : int -> unit

(** The process-wide pool, created on first use with {!default_jobs}
    and shut down at exit. Nested use is safe: jobs that submit to the
    shared pool themselves are executed by helping {!await}. *)
val shared : unit -> Pool.t

(** [map ~init ~f xs] runs [f ctx x] for every [x], where [ctx] is the
    per-worker state from [init] (at most one [init] call per worker
    domain). Results are in submission order. On a 1-job pool this is
    [List.map (f (init ())) xs] in the calling domain. *)
val map :
  ?pool:Pool.t -> init:(unit -> 'w) -> f:('w -> 'a -> 'b) -> 'a list -> 'b list

(** Stateless {!map}. *)
val map_list : ?pool:Pool.t -> ('a -> 'b) -> 'a list -> 'b list

(** [map_merge ~init ~f ~merge acc xs] forks jobs in waves of
    [4 * pool size] and folds [merge acc x (f ctx x)] {e in
    submission order} on the calling domain, so at most a wave of
    completed-but-unmerged results is live at once. This is the
    manager-affine submission primitive: state a job builds privately
    (a per-output job's BDD manager) is touched by exactly one worker
    until its future is merged, and the merge — sequential, in
    submission order — is the only other reader. On a 1-job pool the
    whole call runs in the calling domain with a single [init], jobs
    interleaved with merges. An exception from a job or from [merge]
    propagates at its merge position; later jobs of the wave may still
    run but their results are dropped. *)
val map_merge :
  ?pool:Pool.t ->
  init:(unit -> 'w) ->
  f:('w -> 'a -> 'b) ->
  merge:('acc -> 'a -> 'b -> 'acc) ->
  'acc ->
  'a list ->
  'acc
