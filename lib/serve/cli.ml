(* Shared CLI plumbing. See cli.mli. The terms are what
   bin/lookahead_opt.ml grew organically; they live here so the server
   binary and the bench harness parse the same flags and the three
   front ends cannot drift. *)

open Cmdliner

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let write_file path text =
  let oc = open_out path in
  output_string oc text;
  close_out oc

let read_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  text

(* --- worker domains ------------------------------------------------- *)

let jobs_term =
  Arg.(
    value
    & opt int 0
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the parallel runtime (0 = automatic, from \
           $(b,LOOKAHEAD_JOBS) or the recommended domain count; 1 bypasses \
           the pool).")

let setup_jobs jobs = if jobs > 0 then Par.set_default_jobs jobs

(* --- observation ----------------------------------------------------- *)

type obs_flags = {
  stats : bool;
  report : string option;
  trace : string option;
  journal : string option;
}

let stats_term =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Print the observation summary (work counters, phase wall-clocks) \
           to stderr.")

let report_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "report" ] ~docv:"FILE"
        ~doc:
          "Write the observation report as JSON. Its $(b,deterministic) \
           subtree is bit-identical at any $(b,-j) for deadline-free runs \
           (see $(b,--time-limit)).")

let trace_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace-event file (open in Perfetto or \
           chrome://tracing).")

let journal_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"FILE"
        ~doc:
          "Append the structured job journal as JSONL (one event per \
           line, size-rotated; see $(b,Obs.Journal)). Implies recording.")

let setup_obs { stats; report; trace; journal } =
  if stats || report <> None || trace <> None || journal <> None then begin
    Obs.enable ();
    Obs.register_gc_probe ()
  end;
  match journal with
  | Some file -> Obs.Journal.enable ~file ()
  | None -> ()

let finish_obs { stats; report; trace; journal } =
  if journal <> None then Obs.Journal.disable ();
  if Obs.enabled () then begin
    let snap = Obs.snapshot () in
    (match report with
    | Some path ->
      write_file path (Obs.Json.to_string (Obs.report_json snap) ^ "\n")
    | None -> ());
    (match trace with
    | Some path ->
      write_file path (Obs.Json.to_string (Obs.trace_json snap) ^ "\n")
    | None -> ());
    if stats then Obs.pp_summary Format.err_formatter snap
  end

(* --- fault injection -------------------------------------------------- *)

let inject_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "inject" ] ~docv:"SPEC"
        ~doc:
          "Arm deterministic fault injection: comma-separated rules \
           $(i,fault)@$(i,N)[:r][:$(i,site)] with $(i,fault) one of \
           $(b,bdd), $(b,sat) or $(b,deadline) — fire at the N-th guarded \
           call of that class per governed unit ($(b,:r) repeats at every \
           multiple). The run completes, degraded: each fired fault walks \
           the degradation ladder and is recorded under the \
           $(b,guard.injected.*) / $(b,guard.rung.*) report counters.")

let setup_inject ~prog = function
  | None -> ()
  | Some spec -> (
    match Guard.Inject.of_string spec with
    | Ok rules -> Guard.Inject.arm rules
    | Error msg ->
      Printf.eprintf "%s: --inject: %s\n%!" prog msg;
      exit 2)

(* --- lookahead time limit --------------------------------------------- *)

let time_limit_term =
  Arg.(
    value
    & opt (some float) None
    & info [ "time-limit" ] ~docv:"SECONDS"
        ~doc:
          "Wall-clock budget for the lookahead optimizer; 0 disables the \
           anytime deadline entirely. Default: the driver's built-in \
           budget. Identity-checked runs (comparing $(b,--report) output \
           across $(b,-j)) should pass 0 — a deadline cut depends on \
           scheduling.")

let driver_options ?time_limit () =
  match time_limit with
  | None -> Lookahead.Driver.default
  | Some s ->
    {
      Lookahead.Driver.default with
      time_limit_s = (if s <= 0.0 then infinity else s);
    }

(* --- portfolio mode ---------------------------------------------------- *)

let portfolio_term =
  Arg.(
    value & flag
    & info [ "portfolio" ]
        ~doc:
          "Run every optimizer as a parallel arm (baselines, lookahead, \
           e-graph saturation) and keep the best result under \
           $(b,--cost); shorthand for $(b,-t portfolio[:COST]).")

let cost_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "cost" ] ~docv:"FN"
        ~doc:
          (Printf.sprintf
             "Cost function for $(b,--portfolio) and the $(b,egraph) tool: \
              one of %s. Default: levels."
             (String.concat ", " Egraph.Cost.names)))

let resolve_tool ~prog ~portfolio ~cost tool =
  let err fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.eprintf "%s: %s\n%!" prog msg;
        exit 2)
      fmt
  in
  (match cost with
  | Some name when Egraph.Cost.of_name name = None ->
    err "--cost: unknown cost function %S (expected one of %s)" name
      (String.concat ", " Egraph.Cost.names)
  | _ -> ());
  let base, inline_cost = Run.split_tool tool in
  let base = if portfolio then "portfolio" else base in
  (match (cost, inline_cost) with
  | Some a, Some b when not (String.equal a b) ->
    err "--cost %s conflicts with tool suffix %S" a tool
  | _ -> ());
  let cost = match cost with Some _ -> cost | None -> inline_cost in
  let spec =
    match cost with
    | Some name when base = "portfolio" || base = "egraph" ->
      base ^ ":" ^ name
    | Some name -> err "--cost %s only applies to portfolio/egraph runs" name
    | None -> base
  in
  if not (Run.tool_known spec) then err "unknown tool %S" spec;
  spec

(* --- circuit sources --------------------------------------------------- *)

type source_cli =
  | Named of string
  | Blif_file of string
  | Bench_file of string
  | Adder of string * int

let circuit_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "c"; "circuit" ] ~docv:"NAME"
        ~doc:"Benchmark stand-in from the Table 2 suite.")

let blif_term =
  Arg.(
    value
    & opt (some file) None
    & info [ "blif" ] ~docv:"FILE" ~doc:"Read the circuit from a BLIF file.")

let bench_term =
  Arg.(
    value
    & opt (some file) None
    & info [ "bench" ] ~docv:"FILE"
        ~doc:"Read the circuit from an ISCAS BENCH file.")

let adder_term =
  Arg.(
    value
    & opt (some (pair ~sep:':' string int)) None
    & info [ "adder" ] ~docv:"KIND:N"
        ~doc:"Generate an adder (ripple|cla|select|skip), e.g. ripple:16.")

let resolve_source ?default circuit blif bench adder =
  match (circuit, blif, bench, adder, default) with
  | Some n, None, None, None, _ -> Named n
  | None, Some f, None, None, _ -> Blif_file f
  | None, None, Some f, None, _ -> Bench_file f
  | None, None, None, Some (k, n), _ -> Adder (k, n)
  | None, None, None, None, Some d -> d
  | None, None, None, None, None ->
    invalid_arg "a circuit source is required"
  | _ -> invalid_arg "choose exactly one circuit source"

let source_cli_name = function
  | Named n -> n
  | Blif_file f | Bench_file f -> Filename.basename f
  | Adder (k, n) -> Printf.sprintf "%s-adder-%d" k n

let build_adder kind n =
  match kind with
  | "ripple" -> Circuits.Adders.ripple_carry n
  | "cla" -> Circuits.Adders.carry_lookahead n
  | "select" -> Circuits.Adders.carry_select n
  | "skip" -> Circuits.Adders.carry_skip n
  | k -> invalid_arg (Printf.sprintf "unknown adder kind %s" k)

let load_source_cli = function
  | Named name -> Circuits.Suite.build name
  | Blif_file path -> Aig.Io.read_blif (read_file path)
  | Bench_file path -> Aig.Io.read_bench (read_file path)
  | Adder (kind, n) -> build_adder kind n

let msg_source_of_cli = function
  | Named n -> Msg.Named n
  | Blif_file path ->
    Msg.Blif { name = Filename.basename path; text = read_file path }
  | Bench_file path ->
    Msg.Bench { name = Filename.basename path; text = read_file path }
  | Adder (kind, n) -> Msg.Adder { kind; bits = n }
