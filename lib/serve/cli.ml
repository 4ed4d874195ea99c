(* Shared CLI plumbing. See cli.mli. The terms live here so the two
   binaries and the bench harness parse the same flags, and the two job
   front ends print a result the same way. *)

open Cmdliner

let usage_error ~prog msg =
  Printf.eprintf "%s: %s\n%!" prog msg;
  exit 2

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let verbose_term =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Debug logs.")

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
    | Error msg -> usage_error ~prog ("--inject: " ^ msg))

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

(* --- tools ------------------------------------------------------------- *)

let tool_term =
  Arg.(
    value
    & opt string "lookahead"
    & info [ "t"; "tool" ] ~docv:"TOOL"
        ~doc:
          "Optimizer: lookahead, sis, abc, dc, resub, mfs, none, \
           egraph[:COST], or portfolio[:COST].")

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
  let err fmt = Printf.ksprintf (usage_error ~prog) fmt in
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
        ~doc:
          (Printf.sprintf "Generate an adder (%s), e.g. ripple:16."
             (String.concat "|" Run.adder_kinds)))

let resolve_source circuit blif bench adder =
  match (circuit, blif, bench, adder) with
  | None, None, None, None -> Ok (Msg.Adder { kind = "ripple"; bits = 8 })
  | Some n, None, None, None -> Ok (Msg.Named n)
  | None, Some f, None, None ->
    Ok (Msg.Blif { name = Filename.basename f; text = read_file f })
  | None, None, Some f, None ->
    Ok (Msg.Bench { name = Filename.basename f; text = read_file f })
  | None, None, None, Some (kind, bits) -> Ok (Msg.Adder { kind; bits })
  | _ ->
    Error "choose at most one of --circuit, --blif, --bench and --adder"

(* --- results ----------------------------------------------------------- *)

let output_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE"
        ~doc:"Write the optimized circuit as BLIF.")

let print_result ?report ?blif (r : Msg.result) =
  match r.Msg.state with
  | Msg.Done ->
    Option.iter
      (Fmt.pr "%a" (Run.pp_metrics ~circuit:r.Msg.circuit ~tool:r.Msg.tool))
      r.Msg.metrics;
    if r.Msg.degraded then Fmt.epr "degraded: yes@.";
    (match (report, r.Msg.report) with
    | Some path, Some j -> write_file path (Obs.Json.to_string j ^ "\n")
    | _ -> ());
    (match (blif, r.Msg.blif) with
    | Some path, Some b -> write_file path b
    | _ -> ())
  | Msg.Failed ->
    Fmt.epr "job failed: %s@."
      (Option.value r.Msg.error ~default:"(no message)");
    exit 1
  | Msg.Cancelled ->
    Fmt.epr "job cancelled@.";
    exit 3
  | Msg.Queued | Msg.Running -> invalid_arg "print_result: unfinished job"
