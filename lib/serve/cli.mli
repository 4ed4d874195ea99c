(** Shared command-line plumbing for every binary in the project.

    [bin/lookahead_opt], [bin/lookahead_serve] and the bench harness
    all speak the same dialect: [-j]/[--jobs] (with the
    [LOOKAHEAD_JOBS] fallback inside [lib/par]), the observation trio
    [--stats]/[--report]/[--trace], deterministic fault injection
    [--inject], the lookahead [--time-limit], and a common way of
    naming a circuit source. This module is the single home of the
    Cmdliner terms all three parse them with. *)

(** {1 Logging} *)

val setup_logs : bool -> unit

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

(** Arm the spec, or exit 2 with a [prog: --inject: reason] message on
    a parse error. [None] leaves injection untouched. *)
val setup_inject : prog:string -> string option -> unit

(** {1 Lookahead time limit} *)

val time_limit_term : float option Cmdliner.Term.t

(** Driver options with the [--time-limit] convention applied:
    [None] keeps the default budget, [Some 0.] (or negative) disables
    the anytime deadline, positive sets it. *)
val driver_options :
  ?time_limit:float -> unit -> Lookahead.Driver.options

(** {1 Portfolio mode} *)

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

type source_cli =
  | Named of string
  | Blif_file of string
  | Bench_file of string
  | Adder of string * int

val circuit_term : string option Cmdliner.Term.t
val blif_term : string option Cmdliner.Term.t
val bench_term : string option Cmdliner.Term.t
val adder_term : (string * int) option Cmdliner.Term.t

(** Combine the four source flags; more than one raises
    [Invalid_argument]. [default] stands in when none is given. *)
val resolve_source :
  ?default:source_cli ->
  string option ->
  string option ->
  string option ->
  (string * int) option ->
  source_cli

val source_cli_name : source_cli -> string

(** Build the circuit locally (reads BLIF/BENCH files). *)
val load_source_cli : source_cli -> Aig.t

(** The wire form: file sources are read and inlined, so the server
    never needs the client's filesystem. *)
val msg_source_of_cli : source_cli -> Msg.source

(** {1 Small helpers} *)

val write_file : string -> string -> unit
val read_file : string -> string
