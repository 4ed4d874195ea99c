(* Synthesis-as-a-service front end: [run] starts the persistent job
   server, the remaining subcommands are a thin client over the framed
   JSON protocol (lib/serve). [submit] builds the same Msg.submit as
   [lookahead_opt opt] and prints the result with the same
   Serve.Cli.print_result; the server runs it through the job sequence
   that [opt] runs cold, so its [--report]/[-o] files are byte-identical
   to the CLI's — gate 7 of bench/check_regression.sh compares the two
   across processes. Served throughput and latency are measured by
   perfbench's serve_mix workload. *)

open Cmdliner
module Cli = Serve.Cli
module Msg = Serve.Msg
module Client = Serve.Client

let socket_arg =
  Arg.(
    value
    & opt string "/tmp/lookahead_serve.sock"
    & info [ "s"; "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path (ignored when $(b,--tcp) is given).")

let tcp_arg =
  Arg.(
    value
    & opt (some (pair ~sep:':' string int)) None
    & info [ "tcp" ] ~docv:"HOST:PORT" ~doc:"Listen/connect over TCP instead.")

let listen_of socket tcp : Serve.Server.listen =
  match tcp with Some (h, p) -> `Tcp (h, p) | None -> `Unix socket

let run_cmd =
  let queue =
    Arg.(
      value & opt int 256
      & info [ "queue" ] ~docv:"N" ~doc:"Bound on queued (not running) jobs.")
  in
  let max_frame =
    Arg.(
      value
      & opt int Serve.Frame.max_frame_default
      & info [ "max-frame" ] ~docv:"BYTES"
          ~doc:"Largest accepted request frame.")
  in
  let journal =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Append the structured job journal as JSONL (one event per \
             line; rotated to $(i,FILE).1 at $(b,--journal-max-bytes)).")
  in
  let journal_max_bytes =
    Arg.(
      value
      & opt int (8 * 1024 * 1024)
      & info [ "journal-max-bytes" ] ~docv:"BYTES"
          ~doc:"Journal file-sink rotation threshold.")
  in
  let slo =
    Arg.(
      value
      & opt (some string) None
      & info [ "slo" ] ~docv:"SPEC"
          ~doc:
            "Per-size-class run-latency objectives, e.g. \
             $(b,xs=50,s=200,m=1000): jobs of that class exceeding the \
             objective (milliseconds) count as SLO breaches in $(b,stats), \
             $(b,metrics) and $(b,top).")
  in
  let run socket tcp queue max_frame journal journal_max_bytes slo jobs verbose
      =
    Cli.setup_logs verbose;
    Cli.setup_jobs jobs;
    let slo =
      match slo with
      | None -> []
      | Some spec -> (
        match Serve.Telemetry.parse_slo spec with
        | Ok objectives -> objectives
        | Error msg ->
          Printf.eprintf "lookahead_serve: --slo: %s\n%!" msg;
          exit 2)
    in
    let listen = listen_of socket tcp in
    (match listen with
    | `Unix path -> Logs.app (fun m -> m "listening on unix:%s" path)
    | `Tcp (h, p) -> Logs.app (fun m -> m "listening on tcp:%s:%d" h p));
    Serve.Server.run
      {
        Serve.Server.listen;
        queue_capacity = queue;
        max_frame;
        journal;
        journal_max_bytes;
        slo;
      }
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run the persistent synthesis job server.")
    Term.(
      const run $ socket_arg $ tcp_arg $ queue $ max_frame $ journal
      $ journal_max_bytes $ slo $ Cli.jobs_term $ Cli.verbose_term)

let submit_cmd =
  let nodes =
    Arg.(
      value & opt int 0
      & info [ "budget-nodes" ] ~docv:"N"
          ~doc:"Tenant BDD node ceiling (0 = library default).")
  in
  let sat =
    Arg.(
      value & opt int 0
      & info [ "budget-sat" ] ~docv:"N"
          ~doc:"Tenant SAT conflict ceiling per query (0 = unlimited).")
  in
  let sat_total =
    Arg.(
      value & opt int 0
      & info [ "budget-sat-total" ] ~docv:"N"
          ~doc:
            "Tenant cumulative SAT conflict budget across all of the job's \
             queries (0 = unlimited).")
  in
  let progress =
    Arg.(
      value & flag
      & info [ "progress" ] ~doc:"Stream phase-completion events to stderr.")
  in
  let run socket tcp circuit blif bench adder tool portfolio cost nodes sat
      sat_total inject time_limit progress out_blif report_file verbose =
    Cli.setup_logs verbose;
    let prog = "lookahead_serve" in
    let tool = Cli.resolve_tool ~prog ~portfolio ~cost tool in
    let source =
      match Cli.resolve_source circuit blif bench adder with
      | Ok source -> source
      | Error msg -> Cli.usage_error ~prog msg
    in
    let spec =
      {
        (Msg.submit_defaults ~source ~tool) with
        Msg.budget =
          {
            Msg.bdd_node_ceiling = nodes;
            sat_conflict_ceiling = sat;
            sat_conflict_budget = sat_total;
          };
        inject;
        time_limit_s = time_limit;
        progress;
        want_blif = out_blif <> None;
        want_report = report_file <> None;
      }
    in
    let c = Client.connect (listen_of socket tcp) in
    let on_progress ~phase ~seq =
      if progress then Fmt.epr "progress[%d]: %s@." seq phase
    in
    let r =
      match Client.submit_wait ~on_progress c spec with
      | Ok (_id, r) -> r
      | Error (code, message) -> Msg.refused spec ~code ~message
    in
    Client.close c;
    Cli.print_result ?report:report_file ?blif:out_blif r
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Submit one job, wait for the result, print Table 2 metrics — the \
          served image of $(b,lookahead_opt opt).")
    Term.(
      const run $ socket_arg $ tcp_arg $ Cli.circuit_term $ Cli.blif_term
      $ Cli.bench_term $ Cli.adder_term $ Cli.tool_term $ Cli.portfolio_term
      $ Cli.cost_term $ nodes $ sat $ sat_total $ Cli.inject_term
      $ Cli.time_limit_term $ progress $ Cli.output_term $ Cli.report_term
      $ Cli.verbose_term)

let id_arg =
  Arg.(required & pos 0 (some int) None & info [] ~docv:"ID" ~doc:"Job id.")

let print_status id state position =
  match position with
  | Some p -> Fmt.pr "job %d: %s (position %d)@." id (Msg.state_name state) p
  | None -> Fmt.pr "job %d: %s@." id (Msg.state_name state)

(* A refusal from the server: [error (code): message], exit 1. *)
let or_exit = function
  | Ok v -> v
  | Error (code, message) ->
    Fmt.epr "error (%s): %s@." code message;
    exit 1

let simple_rpc socket tcp req handle =
  let c = Client.connect (listen_of socket tcp) in
  Client.send c req;
  let resp = Client.recv c in
  Client.close c;
  match resp with
  | Msg.Error_reply { code; message } -> or_exit (Error (code, message))
  | resp -> handle resp

let status_cmd =
  let run socket tcp id =
    simple_rpc socket tcp (Msg.Status id) (function
      | Msg.Job_status { id; state; position } -> print_status id state position
      | _ -> failwith "unexpected response")
  in
  Cmd.v
    (Cmd.info "status" ~doc:"Query one job's state.")
    Term.(const run $ socket_arg $ tcp_arg $ id_arg)

let cancel_cmd =
  let run socket tcp id =
    simple_rpc socket tcp (Msg.Cancel id) (function
      | Msg.Job_status { id; state; position } -> print_status id state position
      | _ -> failwith "unexpected response")
  in
  Cmd.v
    (Cmd.info "cancel" ~doc:"Cancel one of this connection's jobs.")
    Term.(const run $ socket_arg $ tcp_arg $ id_arg)

(* Shared by [stats] and [top]: one line per size class that has seen
   jobs or carries an objective. *)
let pp_slo_table ppf (slo : Msg.slo_stat list) =
  if slo <> [] then begin
    Fmt.pf ppf "slo       : %-4s %6s %6s %8s %8s %8s %9s %7s@." "cls" "jobs"
      "objms" "p50ms" "p95ms" "p99ms" "breaches" "window";
    List.iter
      (fun (s : Msg.slo_stat) ->
        Fmt.pf ppf "            %-4s %6d %6s %8.1f %8.1f %8.1f %9d %4d/%-3d@."
          s.Msg.cls s.Msg.jobs
          (if s.Msg.objective_ms > 0.0 then
             Printf.sprintf "%.0f" s.Msg.objective_ms
           else "-")
          s.Msg.p50_ms s.Msg.p95_ms s.Msg.p99_ms s.Msg.breaches
          s.Msg.window_breaches s.Msg.window)
      slo
  end

let pp_stats ppf (s : Msg.server_stats) =
  Fmt.pf ppf "submitted : %d@." s.Msg.submitted;
  Fmt.pf ppf "completed : %d@." s.Msg.completed;
  Fmt.pf ppf "failed    : %d@." s.Msg.failed;
  Fmt.pf ppf "cancelled : %d@." s.Msg.cancelled;
  Fmt.pf ppf "rejected  : %d@." s.Msg.rejected;
  Fmt.pf ppf "queued    : %d / %d@." s.Msg.queued s.Msg.queue_capacity;
  Fmt.pf ppf "running   : %b@." s.Msg.running;
  Fmt.pf ppf "uptime    : %.1f s@." s.Msg.uptime_s;
  Fmt.pf ppf "warm      : %d circuits@." s.Msg.interned_circuits;
  pp_slo_table ppf s.Msg.slo

let stats_cmd =
  let run socket tcp =
    let c = Client.connect (listen_of socket tcp) in
    let s = or_exit (Client.stats c) in
    Client.close c;
    Fmt.pr "%a" pp_stats s
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Print server statistics.")
    Term.(const run $ socket_arg $ tcp_arg)

let out_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE"
        ~doc:"Write to $(i,FILE) instead of stdout.")

let metrics_cmd =
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Print the JSON mirror instead of the Prometheus-style text \
             exposition.")
  in
  let run socket tcp json out =
    let c = Client.connect (listen_of socket tcp) in
    let text, j = or_exit (Client.metrics c) in
    Client.close c;
    let payload =
      if json then Obs.Json.to_string j ^ "\n" else text
    in
    match out with
    | None -> print_string payload
    | Some path -> Cli.write_file path payload
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Scrape the live metrics endpoint (Prometheus-style text, or \
          $(b,--json)).")
    Term.(const run $ socket_arg $ tcp_arg $ json $ out_file_arg)

let trace_cmd =
  let run socket tcp id out =
    let c = Client.connect (listen_of socket tcp) in
    let tr = or_exit (Client.job_trace c id) in
    Client.close c;
    let payload = Obs.Json.to_string tr ^ "\n" in
    match out with
    | None -> print_string payload
    | Some path -> Cli.write_file path payload
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Fetch the retained Chrome-trace slice of a finished job (open in \
          Perfetto or chrome://tracing). The server keeps the last few \
          jobs only.")
    Term.(const run $ socket_arg $ tcp_arg $ id_arg $ out_file_arg)

let top_cmd =
  let interval =
    Arg.(
      value & opt float 2.0
      & info [ "interval" ] ~docv:"SECONDS" ~doc:"Refresh period.")
  in
  let iterations =
    Arg.(
      value & opt int 0
      & info [ "iterations" ] ~docv:"N"
          ~doc:"Stop after N refreshes (0 = run until interrupted).")
  in
  let run socket tcp interval iterations =
    let c = Client.connect (listen_of socket tcp) in
    let rec go i =
      let s = or_exit (Client.stats c) in
      (* Clear + home only when looping; a single iteration (CI) keeps
         plain, greppable output. *)
      if iterations <> 1 then print_string "\027[2J\027[H";
      Fmt.pr "lookahead_serve top — refresh %.1fs@." interval;
      Fmt.pr "%a%!" pp_stats s;
      if iterations = 0 || i < iterations then begin
        Unix.sleepf interval;
        go (i + 1)
      end
    in
    (try go 1 with Failure msg -> Fmt.epr "top: %s@." msg);
    Client.close c
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live server view: throughput counters and the per-size-class SLO \
          table, refreshed in place.")
    Term.(const run $ socket_arg $ tcp_arg $ interval $ iterations)

let shutdown_cmd =
  let run socket tcp =
    let c = Client.connect (listen_of socket tcp) in
    or_exit (Client.shutdown c);
    Client.close c
  in
  Cmd.v
    (Cmd.info "shutdown" ~doc:"Drain queued jobs and stop the server.")
    Term.(const run $ socket_arg $ tcp_arg)

let () =
  let info =
    Cmd.info "lookahead_serve" ~version:"1.0.0"
      ~doc:
        "Persistent multi-tenant synthesis job server (and its client) for \
         the DAC'09 lookahead reproduction."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ run_cmd; submit_cmd; status_cmd; cancel_cmd; stats_cmd;
            metrics_cmd; trace_cmd; top_cmd; shutdown_cmd ]))
