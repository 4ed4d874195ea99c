(** Shared command-line plumbing for every binary in the project.

    [bin/lookahead_opt], [bin/lookahead_serve] and the bench harness
    all speak the same dialect: [-j]/[--jobs] (with the
    [LOOKAHEAD_JOBS] fallback inside [lib/par]), the observation trio
    [--stats]/[--report]/[--trace], deterministic fault injection
    [--inject], the lookahead [--time-limit], [-t]/[-o]/[-v], and a
    common way of naming a circuit source. This module is the single
    home of the Cmdliner terms all three parse them with.

    The two job front ends, [lookahead_opt opt] and [lookahead_serve
    submit], both turn their flags into one {!Msg.submit}. The first
    runs it cold in-process ({!Engine.run_cold}), the second sends it
    to a server; both print the {!Msg.result} with {!print_result}. *)

(** [usage_error ~prog msg] prints [prog: msg] on stderr and exits 2:
    how the binaries report flags that parse but cannot be used
    together or at all. *)
val usage_error : prog:string -> string -> 'a

(** {1 Logging} *)

val setup_logs : bool -> unit

(** [-v]/[--verbose]: debug logs. *)
val verbose_term : bool Cmdliner.Term.t

(** {1 Worker domains} *)

val jobs_term : int Cmdliner.Term.t

(** [setup_jobs n] sizes the shared pool when [n > 0]; [0] keeps the
    automatic default ([LOOKAHEAD_JOBS] or the recommended domain
    count). Call from the main domain, before any pool use. *)
val setup_jobs : int -> unit

(** {1 Observation}

    Any enabled flag switches recording on; export happens once, after
    the work. *)

type obs_flags = {
  stats : bool;
  report : string option;
  trace : string option;
  journal : string option;
}

val stats_term : bool Cmdliner.Term.t
val report_term : string option Cmdliner.Term.t
val trace_term : string option Cmdliner.Term.t
val journal_term : string option Cmdliner.Term.t

(** Any set flag enables recording plus the GC probe; [journal] also
    opens the JSONL journal sink. *)
val setup_obs : obs_flags -> unit

(** Snapshot and export per the flags (summary to stderr, report/trace
    JSON to their files). *)
val finish_obs : obs_flags -> unit

(** {1 Fault injection} *)

val inject_term : string option Cmdliner.Term.t

(** Arm the spec for the rest of the process, or exit 2 with a
    [prog: --inject: reason] message on a parse error. [None] leaves
    injection untouched. This is the bench's whole-run [--inject]; a
    job's [inject] field is parsed at admission and armed per job by
    the engine. *)
val setup_inject : prog:string -> string option -> unit

(** {1 Lookahead time limit} *)

(** [--time-limit]: absent keeps the driver's default budget, [0] (or
    negative) disables the anytime deadline, positive sets it — the
    convention of {!Msg.submit}'s [time_limit_s]. *)
val time_limit_term : float option Cmdliner.Term.t

(** {1 Tools} *)

(** [-t]/[--tool], default [lookahead]. *)
val tool_term : string Cmdliner.Term.t

val portfolio_term : bool Cmdliner.Term.t
val cost_term : string option Cmdliner.Term.t

(** Fold [--portfolio]/[--cost] into the [-t] tool name, yielding the
    canonical wire spec ([portfolio:delay], [egraph:area], ...); exits 2
    with a [prog: ...] message on an unknown cost, a cost that
    contradicts an inline [:COST] suffix, a [--cost] on a tool that
    takes none, or an unknown tool. *)
val resolve_tool :
  prog:string -> portfolio:bool -> cost:string option -> string -> string

(** {1 Circuit sources} *)

val circuit_term : string option Cmdliner.Term.t
val blif_term : string option Cmdliner.Term.t
val bench_term : string option Cmdliner.Term.t
val adder_term : (string * int) option Cmdliner.Term.t

(** Combine the four source flags ([-c], [--blif], [--bench],
    [--adder]) into the wire form. A BLIF or BENCH file is read here
    and inlined under its basename, so a server never needs the
    client's filesystem. No flag means [--adder ripple:8]; more than
    one is an [Error] naming the four flags, which a binary reports
    with {!usage_error}. *)
val resolve_source :
  string option ->
  string option ->
  string option ->
  (string * int) option ->
  (Msg.source, string) result

(** {1 Results} *)

(** [-o]/[--output]: where to write the optimized circuit as BLIF. *)
val output_term : string option Cmdliner.Term.t

(** Print a finished job. [Done]: the Table 2 metric block on stdout,
    [degraded: yes] on stderr when a ladder rung or injected fault
    fired, the report to [report] and the BLIF to [blif] when those
    paths are given and the result carries them. [Failed]:
    [job failed: <cause>] on stderr, then exit 1. [Cancelled]:
    [job cancelled] on stderr, then exit 3. *)
val print_result : ?report:string -> ?blif:string -> Msg.result -> unit

(** {1 Small helpers} *)

val write_file : string -> string -> unit
val read_file : string -> string
