(* Command-line driver: optimize a circuit with any of the tools and
   report the Table 2 metrics (AIG gates, AIG levels, mapped delay, power
   at 1 GHz). [opt] is a front end over Serve.Engine.run_cold: it turns
   its flags into the same Msg.submit that `lookahead_serve submit`
   sends, runs the job sequence the server's executor runs, and prints
   the result with the same Serve.Cli.print_result, so the one-shot CLI
   and the warm server cannot drift. *)

open Cmdliner
module Cli = Serve.Cli
module Msg = Serve.Msg
module Run = Serve.Run

let prog = "lookahead_opt"

let opt_cmd =
  let check =
    Arg.(value & flag & info [ "check" ]
           ~doc:"Run SAT equivalence checking against the input.")
  in
  let run circuit blif bench adder tool portfolio cost check out_blif verbose
      jobs time_limit budget stats report trace journal inject =
    Cli.setup_logs verbose;
    Cli.setup_jobs jobs;
    (* The job's report travels in its result; [finish_obs] writes only
       the run-wide exports. *)
    let obs = { Cli.stats; report; trace; journal } in
    Cli.setup_obs obs;
    let tool = Cli.resolve_tool ~prog ~portfolio ~cost tool in
    let source =
      match Cli.resolve_source circuit blif bench adder with
      | Ok source -> source
      | Error msg -> Cli.usage_error ~prog msg
    in
    let r =
      Serve.Engine.run_cold
        {
          (Msg.submit_defaults ~source ~tool) with
          Msg.budget;
          inject;
          time_limit_s = time_limit;
          want_blif = out_blif <> None || check;
          want_report = report <> None;
        }
    in
    Cli.finish_obs { obs with report = None };
    Cli.print_result ?report ?blif:out_blif r;
    if check then
      match
        Aig.Cec.check (Run.build_source source)
          (Aig.Io.read_blif (Option.get r.Msg.blif))
      with
      | Aig.Cec.Equivalent -> Fmt.pr "equivalence: PASS@."
      | Aig.Cec.Counterexample _ ->
        Fmt.pr "equivalence: FAIL@.";
        exit 1
  in
  Cmd.v
    (Cmd.info "opt" ~doc:"Optimize a circuit and report Table 2 metrics.")
    Term.(
      const run $ Cli.circuit_term $ Cli.blif_term $ Cli.bench_term
      $ Cli.adder_term $ Cli.tool_term $ Cli.portfolio_term $ Cli.cost_term
      $ check $ Cli.output_term $ Cli.verbose_term $ Cli.jobs_term
      $ Cli.time_limit_term $ Cli.budget_term $ Cli.stats_term
      $ Cli.report_term $ Cli.trace_term $ Cli.journal_term $ Cli.inject_term)

let timing_cmd =
  let circuit =
    Arg.(value & opt string "C432" & info [ "c"; "circuit" ] ~docv:"NAME"
           ~doc:"Benchmark stand-in to analyze.")
  in
  let run circuit tool jobs stats report_file trace =
    Cli.setup_logs false;
    Cli.setup_jobs jobs;
    let tool = Cli.resolve_tool ~prog ~portfolio:false ~cost:None tool in
    (match
       Serve.Engine.validate
         (Msg.submit_defaults ~source:(Msg.Named circuit) ~tool)
     with
    | Ok _ -> ()
    | Error (code, msg) ->
      Fmt.epr "job failed: %s: %s@." code msg;
      exit 1);
    let obs = { Cli.stats; report = report_file; trace; journal = None } in
    Cli.setup_obs obs;
    let g = Circuits.Suite.build circuit in
    let optimized = Run.tool ~options:Lookahead.Driver.default tool g in
    let netlist = Techmap.Mapper.map optimized in
    let report = Techmap.Sta.analyze netlist in
    Fmt.pr "circuit: %s, tool: %s@." circuit tool;
    Techmap.Sta.pp_report Format.std_formatter (netlist, report);
    Cli.finish_obs obs
  in
  Cmd.v
    (Cmd.info "timing" ~doc:"Map a circuit and print the STA report.")
    Term.(
      const run $ circuit $ Cli.tool_term $ Cli.jobs_term $ Cli.stats_term
      $ Cli.report_term $ Cli.trace_term)

let export_cmd =
  let circuit =
    Arg.(value & opt string "C432" & info [ "c"; "circuit" ] ~docv:"NAME"
           ~doc:"Benchmark stand-in to export.")
  in
  let fmt_arg =
    Arg.(value & opt string "blif" & info [ "f"; "format" ] ~docv:"FMT"
           ~doc:"Output format: blif, bench, aag, verilog, mapped-verilog.")
  in
  let run circuit fmt =
    Cli.setup_logs false;
    let g = Circuits.Suite.build circuit in
    match fmt with
    | "blif" -> print_string (Aig.Io.blif_to_string ~model:circuit g)
    | "bench" -> Aig.Io.write_bench Format.std_formatter g
    | "aag" -> print_string (Aig.Aiger.aag_to_string g)
    | "verilog" -> print_string (Aig.Verilog.to_string ~module_name:circuit g)
    | "mapped-verilog" ->
      print_string
        (Techmap.Verilog.to_string ~module_name:circuit (Techmap.Mapper.map g))
    | other -> invalid_arg (Printf.sprintf "unknown format %s" other)
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Export a circuit in a standard format.")
    Term.(const run $ circuit $ fmt_arg)

let list_cmd =
  let run () =
    List.iter
      (fun (i : Circuits.Suite.info) ->
        Fmt.pr "%-24s %4d/%-4d %-9s %s%s@." i.Circuits.Suite.name
          i.Circuits.Suite.pi i.Circuits.Suite.po i.Circuits.Suite.family
          i.Circuits.Suite.description
          (if i.Circuits.Suite.po_estimated then " (PO count estimated)" else ""))
      Circuits.Suite.all
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List the Table 2 benchmark stand-ins.")
    Term.(const run $ const ())

let () =
  let info =
    Cmd.info prog ~version:"1.0.0"
      ~doc:
        "Timing-driven optimization using lookahead logic circuits (DAC'09 \
         reproduction)."
  in
  exit (Cmd.eval (Cmd.group info [ opt_cmd; timing_cmd; export_cmd; list_cmd ]))
