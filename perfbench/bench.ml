(* The repository benchmark.

     bench.exe --workload W --seed N --seconds S --trace 0|1

   Workloads (see perfbench/README.md for the reasons behind each):

   - [oneshot_lookahead]: the paper's flow as a CLI user runs it. Each
     input is one cell, run in a fresh child process (this executable's
     [cell] mode), so every process-global memo starts empty. The child
     times the public chain Aig.Io.read_blif -> Lookahead.optimize ->
     Aig.Cec.check -> Techmap.Eval.measure with the pool at one domain.
   - [serve_mix]: [lookahead_serve run -j 1] as a child process, driven
     over one connection by an open-loop client at a fixed rate, with an
     untimed warm-up prefix, and saturating bursts between segments of
     the open loop.

   Every input is generated from --seed here and reaches the program
   only as BLIF text or protocol frames; every optimizer runs with the
   anytime deadline off, so outputs are deterministic. Outputs are
   checked twice: Aig.Cec.check against the input, and an independent
   random-vector simulation of the BLIF texts (Benchkit.Blif).

   The last stdout line is one JSON object
   {correct, attempted, failed, metrics}: with --trace 0 the end-to-end
   metrics, with --trace 1 the per-layer ones (metrics a workload does
   not exercise read 0). A failed or wrong output makes the run exit 1;
   an open loop that fell behind its schedule, or whose backlog grew,
   exits 1 without a result. *)

module K = Benchkit
module Json = Obs.Json
module Msg = Serve.Msg

let now_ns () = Int64.to_int (Obs.Clock.now_ns ())
let secs ns = float_of_int ns *. 1e-9
let started_ns = now_ns ()

(* Every run must end well inside the 180 s a run is allowed. *)
let hard_limit_s = 170.

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 1)
    fmt

let check_deadline what =
  if secs (now_ns () - started_ns) > hard_limit_s then
    die "%s: over the %.0f s run limit" what hard_limit_s

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> output_string oc s)

let proc_vmhwm_kb pid =
  match read_file (Printf.sprintf "/proc/%s/status" pid) with
  | s -> Option.value (K.vmhwm_kb s) ~default:0
  | exception Sys_error _ -> 0

(* --time-limit 0: no anytime cut, so results are a function of the
   input alone. *)
let nolimit = { Lookahead.Driver.default with time_limit_s = infinity }

let optimize g = Lookahead.optimize ~options:nolimit g

let jnum = function
  | Some (Json.Float f) -> f
  | Some (Json.Int i) -> float_of_int i
  | _ -> 0.

let field k j = jnum (Json.member k j)

(* ==================================================================== *)
(* cell mode: one optimizer (or verifier) call in a fresh process       *)
(* ==================================================================== *)

(* argv: cell TOOL JOBS TRACED OUT IN. TOOL is [lookahead], or [setup]
   to stop at the point the optimizer would start. Prints one JSON
   line. *)
let cell_main tool jobs traced out_path input =
  let traced = traced = "1" in
  if traced then Obs.enable ();
  let timed name f =
    let t0 = now_ns () in
    let r = if traced then Obs.with_span (Obs.span name) f else f () in
    (r, secs (now_ns () - t0))
  in
  let g, read_s =
    timed "aig.read_blif" (fun () -> Aig.Io.read_blif (read_file input))
  in
  (* Lazy initialisation a CLI run pays before optimizing: the pool. *)
  Par.set_default_jobs (int_of_string jobs);
  ignore (Par.shared ());
  let ready_ns = now_ns () in
  let out =
    ref [ ("ready_ns", Json.Int ready_ns); ("read_s", Json.Float read_s) ]
  in
  let add k v = out := (k, v) :: !out in
  (match tool with
   | "setup" -> ()
   | "lookahead" ->
     let o, s = timed "core.optimize" (fun () -> optimize g) in
     add "opt_s" (Json.Float s);
     let (verdict, cst), cec_s =
       timed "aig.cec" (fun () -> Aig.Cec.check_with_stats g o)
     in
     add "cec_s" (Json.Float cec_s);
     add "equivalent" (Json.Bool (verdict = Aig.Cec.Equivalent));
     add "cec_sat_calls" (Json.Int cst.Aig.Cec.sat_calls);
     let m, measure_s =
       timed "techmap.measure" (fun () -> Techmap.Eval.measure o)
     in
     add "measure_s" (Json.Float measure_s);
     add "levels" (Json.Int (Aig.depth o));
     add "delay_ps" (Json.Float m.Techmap.Eval.delay_ps);
     add "area" (Json.Float m.Techmap.Eval.area);
     add "power_mw" (Json.Float m.Techmap.Eval.power_mw);
     write_file out_path (Aig.Io.blif_to_string o);
     add "cold_end_ns" (Json.Int (now_ns ()));
     if traced then begin
       let snap = Obs.snapshot () in
       let named, tracks = K.self_times (Obs.trace_json snap) in
       add "root_s"
         (Json.Float (Option.value (List.assoc_opt 0 tracks) ~default:0.));
       add "spans"
         (Json.List
            (List.map
               (fun (n, s) ->
                 Json.List
                   [ Json.String n; Json.Float s.K.self_s; Json.Int s.K.count ])
               named));
       add "flat"
         (Json.List
            (List.map
               (fun (n, a, v) ->
                 Json.List
                   [ Json.String n; Json.Bool (a = K.Max); Json.Float v ])
               (K.flat_report (Obs.report_json snap))));
       (* The same call again in the same process: memos are now warm. *)
       add "warm_s" (Json.Float (snd (timed "core.optimize" (fun () -> optimize g))))
     end
   | _ -> die "cell: unknown tool %S" tool);
  add "vmhwm_kb" (Json.Int (proc_vmhwm_kb "self"));
  print_endline (Json.to_string (Json.Obj (List.rev !out)))

(* ==================================================================== *)
(* shared parent-side pieces                                            *)
(* ==================================================================== *)

let work_dir = Printf.sprintf ".perfbench_work/%d" (Unix.getpid ())

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* Derived seeds: one stream per purpose, all a function of --seed. *)
let derive seed salt = Hashtbl.hash (seed, salt) land 0x3fffffff

(* A seeded variant of a fixed control-logic base: every primary input
   is complemented with probability 1/2. The variant computes other
   functions (its truth tables, hence every memo key, differ from the
   base's), yet its structure and depth are the base's, so the work it
   costs swings with the seed far less than a freshly generated random
   circuit's does. *)
let control_variant ~seed ~salt (pi, po, block_inputs, levels, base_seed) =
  let g = Circuits.Gen.control ~seed:base_seed ~pi ~po ~block_inputs ~levels in
  let rng = Random.State.make [| derive seed salt |] in
  let h = Aig.create () in
  let map = Array.make (Aig.num_nodes g) Aig.const_false in
  List.iter
    (fun l ->
      let n = Aig.node_of_lit l in
      let x = Aig.add_input ?name:(Aig.input_name g n) h in
      map.(n) <- (if Random.State.bool rng then Aig.bnot x else x))
    (Aig.inputs g);
  let lit l =
    let m = map.(Aig.node_of_lit l) in
    if Aig.is_complemented l then Aig.bnot m else m
  in
  for id = 1 to Aig.num_nodes g - 1 do
    if Aig.is_and g id then
      let a, b = Aig.fanins g id in
      map.(id) <- Aig.band h (lit a) (lit b)
  done;
  List.iter (fun (name, l) -> Aig.add_output h name (lit l)) (Aig.outputs g);
  h

type quality = { levels : float; delay : float; area : float; power : float }

let quality_of g =
  let m = Techmap.Eval.measure g in
  {
    levels = float_of_int (Aig.depth g);
    delay = m.Techmap.Eval.delay_ps;
    area = m.Techmap.Eval.area;
    power = m.Techmap.Eval.power_mw;
  }

(* The four quality geomeans of (output / input) pairs. *)
let quality_geos pairs =
  let geo f =
    if pairs = [] then 1.0
    else K.geomean (List.map (fun (i, o) -> f o /. f i) pairs)
  in
  [ ("levels_geo", geo (fun q -> q.levels)); ("delay_geo", geo (fun q -> q.delay));
    ("area_geo", geo (fun q -> q.area)); ("power_geo", geo (fun q -> q.power)) ]

let sim_words = 16

(* Sums over a list, and the per-layer metric derivations shared by the
   oneshot children and the served jobs' reports/traces. *)
let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs

type layer_obs = {
  flat : (string, float) Hashtbl.t; (* counters add, gauges max *)
  spans : (string, float * int) Hashtbl.t; (* self seconds, count *)
}

let new_obs () = { flat = Hashtbl.create 64; spans = Hashtbl.create 32 }

let absorb_flat o (name, is_max, v) =
  let prev = Option.value (Hashtbl.find_opt o.flat name) ~default:0. in
  Hashtbl.replace o.flat name (if is_max then Float.max prev v else prev +. v)

let absorb_span o (name, self, count) =
  let s, c = Option.value (Hashtbl.find_opt o.spans name) ~default:(0., 0) in
  Hashtbl.replace o.spans name (s +. self, c + count)

let ratio a b = if b > 0. then a /. b else 0.

let layer_metrics o =
  let c name = Option.value (Hashtbl.find_opt o.flat name) ~default:0. in
  let self name = fst (Option.value (Hashtbl.find_opt o.spans name) ~default:(0., 0)) in
  let count name = snd (Option.value (Hashtbl.find_opt o.spans name) ~default:(0., 0)) in
  let rungs =
    Hashtbl.fold
      (fun n v acc ->
        if String.length n > 11 && String.sub n 0 11 = "guard.rung." then acc +. v
        else acc)
      o.flat 0.
  in
  let span_metrics =
    List.map
      (fun (m, s) -> (m, self s))
      [ ("core.round_s", "opt.round"); ("core.decompose_s", "opt.decompose");
        ("core.spcf_s", "opt.spcf"); ("core.window_s", "opt.window");
        ("core.secondary_s", "opt.secondary");
        ("core.reconstruct_s", "opt.reconstruct");
        ("core.balance_s", "opt.balance"); ("core.polish_s", "opt.polish");
        ("core.sat_sweep_s", "opt.sat_sweep");
        ("core.final_cec_s", "opt.final_cec"); ("core.mfs_s", "opt.mfs");
        ("core.optimize_self_s", "core.optimize") ]
  in
  span_metrics
  @ [ ("core.rounds", c "opt.rounds");
      ("core.outputs_decomposed", c "opt.outputs_decomposed");
      ("core.windows_marked", c "opt.windows_marked");
      ("core.skipped_support", c "opt.jobs_skipped_support");
      ("core.decompose_yield",
       ratio (c "opt.outputs_decomposed") (float_of_int (count "opt.decompose")));
      ("bdd.nodes_allocated", c "bdd.nodes_allocated");
      ("bdd.peak_live_nodes", c "bdd.peak_live_nodes");
      ("bdd.ite_hit_ratio", ratio (c "bdd.ite_hits") (c "bdd.ite_lookups"));
      ("bdd.compose_hit_ratio",
       ratio (c "bdd.compose_hits") (c "bdd.compose_lookups"));
      ("bdd.growths", c "bdd.unique_growths" +. c "bdd.cache_growths");
      ("network.globals_recomputed", c "globals.recomputed");
      ("network.globals_reuse_ratio",
       ratio (c "globals.reused") (c "globals.reused" +. c "globals.recomputed"));
      ("network.scratch_fallbacks", c "globals.scratch_fallbacks");
      ("network.levels_repaired", c "levels.repaired");
      ("timing.spcf_calls", c "spcf.approx_calls" +. c "spcf.exact_calls");
      ("timing.bool_diffs", c "spcf.bool_diffs");
      ("timing.late_nodes", c "spcf.late_nodes.sum");
      ("aig.cec_sat_calls", c "cec.sat_calls");
      ("aig.sweep_merges", c "sweep.merges");
      ("sat.conflicts", c "sat.conflicts");
      ("sat.propagations", c "sat.propagations");
      ("sat.budget_exhausted_ratio",
       ratio (c "cec.budget_exhausted") (c "cec.sat_calls"));
      ("par.tasks", c "par.tasks_submitted");
      ("guard.rungs", rungs) ]

(* ==================================================================== *)
(* oneshot_lookahead                                                    *)
(* ==================================================================== *)

type input = { iname : string; path : string; text : string; base : quality }

type outcome = {
  wall : float; (* spawn -> reaped *)
  setup : float; (* spawn -> first optimizer call *)
  cold_wall : float; (* spawn -> end of the cold chain and output write *)
  res : Json.t; (* the child's line *)
  ok : bool;
}

let prepare_input name g =
  let text = Aig.Io.blif_to_string ~model:name g in
  let path = Filename.concat work_dir (name ^ ".blif") in
  write_file path text;
  { iname = name; path; text; base = quality_of (Aig.Io.read_blif text) }

(* Two circuits shaped like the OpenSPARC blocks (136 inputs, 70
   outputs): seeded variants of two fixed bases. *)
let control_inputs seed =
  List.map
    (fun base ->
      prepare_input (Printf.sprintf "ctl_%d" base)
        (control_variant ~seed ~salt:base (136, 70, 16, 5, base)))
    [ 1; 2 ]

(* One cell per input: the Table 1 ripple adders, three Table 2
   stand-ins and the seeded pair. C1355 and sparc_tlu_intctl_flat are
   left out: they took 11 s and 3.5 s of a 28 s pass, which left room
   for one sample of each cell in a run. *)
let oneshot_inputs seed =
  [ prepare_input "ripple8" (Circuits.Adders.ripple_carry 8);
    prepare_input "ripple16" (Circuits.Adders.ripple_carry 16) ]
  @ List.map
      (fun n -> prepare_input n (Circuits.Suite.build n))
      [ "dalu"; "C880"; "lsu_stb_ctl_flat" ]
  @ control_inputs seed

let out_path i = Filename.concat work_dir (i.iname ^ ".out.blif")

(* The children run the pool at one domain. On a shared 2-vCPU host a
   second domain made a cell slower (C880: 3.07 s against 2.87 s) and
   its wall swing by a quarter from run to run, against 3 % at one
   domain: every minor collection waits for both domains, and the
   second vCPU is often busy elsewhere. *)
let cell_jobs = 1

let spawn_cell ~traced ~tool i =
  check_deadline i.iname;
  let args =
    [| Sys.executable_name; "cell"; tool; string_of_int cell_jobs;
       (if traced then "1" else "0"); out_path i; i.path |]
  in
  let r, w = Unix.pipe ~cloexec:true () in
  let t0 = now_ns () in
  let pid = Unix.create_process Sys.executable_name args Unix.stdin w Unix.stderr in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let text = In_channel.input_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  let wall = secs (now_ns () - t0) in
  let last =
    List.fold_left
      (fun acc l -> if String.trim l = "" then acc else l)
      "" (String.split_on_char '\n' text)
  in
  let res = Option.value (Json.of_string last) ~default:Json.Null in
  let exited = status = Unix.WEXITED 0 && res <> Json.Null in
  let since k = if exited then secs (int_of_float (field k res) - t0) else 0. in
  let setup = since "ready_ns" and cold_wall = since "cold_end_ns" in
  (* Independent check of the output BLIF text against the input's. *)
  let sim_ok () =
    match
      K.sim_mismatch ~seed:(Hashtbl.hash i.iname) ~words:sim_words i.text
        (read_file (out_path i))
    with
    | None -> true
    | Some m ->
      prerr_endline ("perfbench: " ^ i.iname ^ ": " ^ m);
      false
  in
  let ok =
    exited
    && (tool = "setup"
       || (Json.member "equivalent" res = Some (Json.Bool true) && sim_ok ()))
  in
  if not ok then prerr_endline ("perfbench: cell " ^ i.iname ^ " failed");
  { wall; setup; cold_wall; res; ok }

let median_exn xs = Option.get (K.median (Array.of_list xs))

(* Every cell runs in at least [min_passes] whole passes, and in more
   while another pass fits in --seconds (judged by the last one); a
   cell's figures are its medians over passes. The host's speed swings
   by a quarter for seconds at a time: a median of samples a pass apart
   drops such a spell, where a single sample or a sum keeps it. Right
   after its timed run each cell is also started [setup_probes] times
   set-up only, so its set-up median rests on five samples a pass. *)
let min_passes = 3
let setup_probes = 4

let oneshot ~seed ~seconds ~traced =
  let inputs = oneshot_inputs seed in
  let probe_failures = ref 0 in
  let sample i =
    let o = spawn_cell ~traced:false ~tool:"lookahead" i in
    let probes =
      List.init setup_probes (fun _ ->
          let p = spawn_cell ~traced:false ~tool:"setup" i in
          if not p.ok then incr probe_failures;
          p.setup)
    in
    (o, o.setup :: probes)
  in
  let t0 = now_ns () in
  let rec run acc n =
    let t = now_ns () in
    let p = List.map sample inputs in
    let last = secs (now_ns () - t) in
    if n < min_passes || secs (now_ns () - t0) +. last <= seconds then
      run (p :: acc) (n + 1)
    else p :: acc
  in
  let passes = List.rev (run [] 1) in
  (* Per input: its outcomes over passes and all its set-up samples. *)
  let per_cell =
    List.mapi
      (fun k i ->
        let s = List.map (fun p -> List.nth p k) passes in
        (i, List.map fst s, List.concat_map snd s))
      inputs
  in
  let walls = List.map (fun (_, os, _) -> median_exn (List.map (fun o -> o.wall) os)) per_cell in
  List.iter2
    (fun (i, _, _) w -> Printf.eprintf "perfbench: cell %-20s %8.3f s\n" i.iname w)
    per_cell walls;
  let med_field k os = median_exn (List.map (fun o -> field k o.res) os) in
  let attempted = List.length inputs * List.length passes * (1 + setup_probes) in
  let failed =
    !probe_failures
    + List.fold_left
        (fun acc (_, os, _) -> acc + List.length (List.filter (fun o -> not o.ok) os))
        0 per_cell
  in
  let wall_s = List.fold_left ( +. ) 0. walls in
  let pairs =
    List.map
      (fun (i, os, _) ->
        let r = (List.hd os).res in
        ( i.base,
          { levels = field "levels" r; delay = field "delay_ps" r;
            area = field "area" r; power = field "power_mw" r } ))
      per_cell
  in
  (* The highest per-cell peak swung by a quarter with the GC timing of
     two domains; the geometric mean over cells of each child's peak is
     the typical CLI run's memory and holds still. *)
  let rss =
    K.geomean (List.concat_map (fun (_, os, _) -> List.map (fun o -> field "vmhwm_kb" o.res) os) per_cell)
  in
  let wall_ms = Array.of_list (List.map (fun w -> w *. 1e3) walls) in
  (* The typical cell's wall is the geometric mean over cells, the median
     of a log-normal fit to cell walls that span a decade; the middle
     cell alone is one cell's figure and moves with that cell. *)
  let end_to_end =
    [ ("wall_s", wall_s);
      ("setup_s", sum (fun (_, _, s) -> median_exn s) per_cell);
      ("peak_rss_mb", rss /. 1024.) ]
    @ (if failed = 0 then quality_geos pairs else quality_geos [])
    @ [ ("job_p50_ms", K.geomean (Array.to_list wall_ms));
        ("job_p95_ms", Option.get (K.percentile ~beyond:0 wall_ms 95));
        ("jobs_per_s", float_of_int (List.length inputs) /. wall_s) ]
  in
  if not traced then (attempted, failed, end_to_end)
  else begin
    (* Traced pass: each cell once more with Obs on in the child. *)
    let traced_runs = List.map (spawn_cell ~traced:true ~tool:"lookahead") inputs in
    let failed = failed + List.length (List.filter (fun o -> not o.ok) traced_runs) in
    let attempted = attempted + List.length inputs in
    let o = new_obs () in
    List.iter
      (fun out ->
        (match Json.member "spans" out.res with
        | Some (Json.List l) ->
          List.iter
            (function
              | Json.List [ Json.String n; s; Json.Int k ] -> absorb_span o (n, jnum (Some s), k)
              | _ -> ())
            l
        | _ -> ());
        match Json.member "flat" out.res with
        | Some (Json.List l) ->
          List.iter
            (function
              | Json.List [ Json.String n; Json.Bool m; v ] -> absorb_flat o (n, m, jnum (Some v))
              | _ -> ())
            l
        | _ -> ())
      traced_runs;
    let tsum k = sum (fun out -> field k out.res) traced_runs in
    let chain k = sum (fun (_, os, _) -> med_field k os) per_cell in
    let steps = [ "read_s"; "opt_s"; "cec_s"; "measure_s" ] in
    let untraced_chain = sum chain steps and traced_chain = sum tsum steps in
    let per_layer =
      [ ("aig.read_blif_s", chain "read_s"); ("core.optimize_s", chain "opt_s");
        ("core.optimize_warm_s", tsum "warm_s");
        ("logic.memo_fill_s", tsum "opt_s" -. tsum "warm_s");
        ("aig.cec_s", chain "cec_s"); ("techmap.measure_s", chain "measure_s") ]
      @ layer_metrics o
      @ [ ("trace.coverage",
           tsum "root_s" /. sum (fun out -> out.cold_wall) traced_runs);
          ("trace.overhead_frac", traced_chain /. untraced_chain -. 1.) ]
    in
    (* Where the wall time went, for the ledger: the largest self times. *)
    let top =
      Hashtbl.fold (fun n (s, _) acc -> (n, s) :: acc) o.spans []
      |> List.sort (fun (_, a) (_, b) -> Float.compare b a)
    in
    Printf.eprintf
      "perfbench: oneshot_lookahead traced cold wall %.3f s, spans on the main tracks %.3f s; self times:\n"
      (sum (fun out -> out.cold_wall) traced_runs) (tsum "root_s");
    List.iter (fun (n, s) -> Printf.eprintf "  %-24s %8.3f s\n" n s) top;
    (attempted, failed, per_layer)
  end

(* ==================================================================== *)
(* serve_mix                                                            *)
(* ==================================================================== *)

(* The open loop's fixed rate and the p95 latency limit a valid run must
   meet. The rate keeps the single executor about 15 % busy, so that
   most jobs find it idle even while the host runs at half speed: at 24
   jobs/s a slow spell left about half the jobs queued behind a heavy
   one, and the median latency flipped between the waiting and the
   non-waiting jobs from run to run. A block holds 22 tiny jobs, 1
   repeated and 1 unique one, so that the median lies well inside the
   tiny jobs that wait for nothing and the p95 inside the heavy ones. *)
let rate = 12.
let p95_limit_ms = 1500.
let block = 24
let burst_blocks = 4
let bursts = 8

type job = {
  cls : string; (* tiny | repeat | unique *)
  source : Msg.source;
  tool : string;
  ceiling : int; (* bdd_node_ceiling, 0 = default *)
}

(* Tiny jobs all cost about the same (4-5 ms of run time): with faster
   and slower kinds among them, the median latency fell between their
   modes and moved with their shares of the jobs near it. *)
let tiny_set =
  [ (Msg.Adder { kind = "cla"; bits = 8 }, "none");
    (Msg.Adder { kind = "select"; bits = 8 }, "none");
    (Msg.Adder { kind = "ripple"; bits = 16 }, "none") ]

(* The fixed small source set of the repeated class; one lookahead entry
   runs under a tight BDD node ceiling, so the guard ladder descends. *)
let repeat_set =
  [ (Msg.Adder { kind = "ripple"; bits = 16 }, "dc", 0);
    (Msg.Adder { kind = "cla"; bits = 8 }, "lookahead", 0);
    (Msg.Adder { kind = "ripple"; bits = 4 }, "resub", 0);
    (Msg.Adder { kind = "cla"; bits = 16 }, "sis", 0);
    (Msg.Adder { kind = "select"; bits = 8 }, "lookahead", 0);
    (Msg.Adder { kind = "cla"; bits = 8 }, "dc", 0);
    (Msg.Adder { kind = "cla"; bits = 4 }, "resub", 0);
    (Msg.Adder { kind = "cla"; bits = 16 }, "abc", 0);
    (Msg.Adder { kind = "select"; bits = 8 }, "sis", 0);
    (Msg.Adder { kind = "cla"; bits = 8 }, "lookahead", 2000) ]

let unique_job seed k =
  let g = control_variant ~seed ~salt:(1000 + k) (32, 12, 10, 3, 1 + (k mod 4)) in
  let name = Printf.sprintf "u%d" k in
  {
    cls = "unique";
    source = Msg.Blif { name; text = Aig.Io.blif_to_string ~model:name g };
    tool = (if k mod 4 = 3 then "lookahead" else "dc");
    ceiling = 0;
  }

(* Blocks of fixed composition (the tiny and repeated sets are walked
   cyclically). The heavy jobs sit at fixed slots, so the queueing
   behind them, and with it the latency tail, does not depend on where a
   shuffle happened to put them; the seed orders the tiny jobs and picks
   the unique circuits. *)
let mix seed ~first_block ~blocks =
  let rng = Random.State.make [| seed; first_block |] in
  List.concat
    (List.init blocks (fun b ->
         let b = first_block + b in
         let n_tiny = block - 2 in
         let tiny i =
           let src, tool = List.nth tiny_set (((b * n_tiny) + i) mod List.length tiny_set) in
           { cls = "tiny"; source = src; tool; ceiling = 0 }
         in
         let repeat =
           let src, tool, ceiling = List.nth repeat_set (b mod List.length repeat_set) in
           { cls = "repeat"; source = src; tool; ceiling }
         in
         let tinies = Array.init n_tiny tiny in
         for i = Array.length tinies - 1 downto 1 do
           let j = Random.State.int rng (i + 1) in
           let t = tinies.(i) in
           tinies.(i) <- tinies.(j);
           tinies.(j) <- t
         done;
         let tinies = Array.to_list tinies in
         (repeat :: List.filteri (fun i _ -> i < n_tiny / 2) tinies)
         @ (unique_job seed b :: List.filteri (fun i _ -> i >= n_tiny / 2) tinies)))

let spec_of ~traced j =
  let base = Msg.submit_defaults ~source:j.source ~tool:j.tool in
  {
    base with
    Msg.time_limit_s = Some 0.0;
    want_blif = true;
    want_report = traced;
    budget = { Msg.default_budget with Msg.bdd_node_ceiling = j.ceiling };
  }

(* --- a single-threaded client over Serve.Frame / Serve.Msg ---------- *)

type conn = {
  fd : Unix.file_descr;
  dec : Serve.Frame.Decoder.t;
  buf : Bytes.t;
  inbox : Msg.response Queue.t;
}

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () ->
    { fd; dec = Serve.Frame.Decoder.create (); buf = Bytes.create 65536;
      inbox = Queue.create () }
  | exception e ->
    Unix.close fd;
    raise e

let send c req =
  let s = Bytes.of_string (Serve.Frame.encode (Msg.encode_request req)) in
  let rec go off =
    if off < Bytes.length s then go (off + Unix.write c.fd s off (Bytes.length s - off))
  in
  go 0

(* Wait up to [timeout] seconds for bytes; decode every complete frame. *)
let pump c timeout =
  check_deadline "serve";
  match Unix.select [ c.fd ] [] [] (Float.max 0. timeout) with
  | [], _, _ -> ()
  | _ ->
    let n = Unix.read c.fd c.buf 0 (Bytes.length c.buf) in
    if n = 0 then die "server closed the connection";
    List.iter
      (function
        | Serve.Frame.Decoder.Frame p -> (
          match Msg.response_of_string p with
          | Ok r -> Queue.add r c.inbox
          | Error (code, m) -> die "undecodable response (%s): %s" code m)
        | Serve.Frame.Decoder.Oversized n -> die "oversized response (%d bytes)" n
        | Serve.Frame.Decoder.Corrupt m -> die "corrupt response stream: %s" m)
      (Serve.Frame.Decoder.feed c.dec c.buf 0 n)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let rec recv c =
  match Queue.take_opt c.inbox with
  | Some r -> r
  | None ->
    pump c 1.0;
    recv c

type record = {
  job : job;
  mutable sched : float;
  mutable sent : float;
  mutable admitted : float;
  mutable done_at : float;
  mutable result : Msg.result option;
  mutable refused : bool;
  mutable trace : Json.t;
}

(* Requests answered directly, in order, on the connection. *)
type expect = Submit_of of record | Stats_probe | Trace_of of record

type phase = {
  recs : record array;
  late_ms : float array;
  queued : (float * int) list; (* (time since start, queued jobs) *)
  t0 : float;
}

let now_s () = secs (now_ns ())

(* Send [jobs] on schedule (t0 + i / rate; [rate = infinity] sends all
   at once) and collect every answer. With [probe_every], a Stats
   request samples the queue depth on that period. *)
let run_phase c ~traced ~rate ?probe_every jobs =
  let recs =
    Array.of_list
      (List.map
         (fun job ->
           { job; sched = 0.; sent = 0.; admitted = 0.; done_at = 0.;
             result = None; refused = false; trace = Json.Null })
         jobs)
  in
  let n = Array.length recs in
  let t0 = now_s () in
  Array.iteri
    (fun i r -> r.sched <- (if rate = infinity then t0 else t0 +. (float_of_int i /. rate)))
    recs;
  let expected = Queue.create () in
  let by_id = Hashtbl.create 64 and early = Hashtbl.create 8 in
  let queued = ref [] and next = ref 0 and finished = ref 0 in
  let horizon = recs.(n - 1).sched in
  let next_probe = ref (match probe_every with Some p -> t0 +. p | None -> infinity) in
  let probe_due () = if !next_probe <= horizon +. 1e-9 then !next_probe else infinity in
  let complete r (res : Msg.result) =
    r.done_at <- now_s ();
    r.result <- Some res;
    if traced && res.Msg.state = Msg.Done then begin
      send c (Msg.Trace res.Msg.id);
      Queue.add (Trace_of r) expected
    end
    else incr finished
  in
  let dispatch = function
    | Msg.Submitted { id; _ } -> (
      match Queue.take expected with
      | Submit_of r -> (
        r.admitted <- now_s ();
        Hashtbl.replace by_id id r;
        match Hashtbl.find_opt early id with
        | Some res -> Hashtbl.remove early id; complete r res
        | None -> ())
      | _ -> die "reply out of order")
    | Msg.Result res -> (
      match Hashtbl.find_opt by_id res.Msg.id with
      | Some r -> complete r res
      | None -> Hashtbl.replace early res.Msg.id res)
    | Msg.Stats_reply s -> (
      match Queue.take expected with
      | Stats_probe -> queued := (now_s () -. t0, s.Msg.queued) :: !queued
      | _ -> die "reply out of order")
    | Msg.Trace_reply { trace; _ } -> (
      match Queue.take expected with
      | Trace_of r -> r.trace <- trace; incr finished
      | _ -> die "reply out of order")
    | Msg.Error_reply { code; message } -> (
      match Queue.take expected with
      | Submit_of r ->
        prerr_endline ("perfbench: job refused: " ^ code ^ ": " ^ message);
        r.refused <- true;
        incr finished
      | Trace_of _ -> incr finished
      | Stats_probe -> die "stats refused: %s" message)
    | Msg.Progress _ | Msg.Job_status _ | Msg.Metrics_reply _ | Msg.Shutdown_ack -> ()
  in
  while !finished < n || not (Queue.is_empty expected) do
    let now = now_s () in
    while !next < n && recs.(!next).sched <= now do
      let r = recs.(!next) in
      r.sent <- now_s ();
      send c (Msg.Submit (spec_of ~traced r.job));
      Queue.add (Submit_of r) expected;
      incr next
    done;
    if now >= probe_due () then begin
      send c Msg.Stats;
      Queue.add Stats_probe expected;
      next_probe := !next_probe +. Option.get probe_every
    end;
    let due = if !next < n then recs.(!next).sched else infinity in
    pump c (Float.min 0.2 (Float.min due (probe_due ()) -. now_s ()));
    Queue.iter dispatch (let q = Queue.copy c.inbox in Queue.clear c.inbox; q)
  done;
  let late_ms = Array.map (fun r -> (r.sent -. r.sched) *. 1e3) recs in
  { recs; late_ms; queued = List.rev !queued; t0 }

let serve_exe () =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    "bin/lookahead_serve.exe"

let servers = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !servers)

let start_server () =
  let sock = Filename.concat work_dir "serve.sock" in
  let log =
    Unix.openfile (Filename.concat work_dir "serve.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let exe = serve_exe () in
  let t0 = now_ns () in
  let pid =
    Unix.create_process exe
      [| exe; "run"; "-j"; "1"; "--socket"; sock; "--queue"; "4096" |]
      Unix.stdin log log
  in
  Unix.close log;
  servers := pid :: !servers;
  let rec attempt () =
    match connect sock with
    | c -> c
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      if secs (now_ns () - t0) > 30. then die "server did not start";
      Unix.sleepf 0.001;
      attempt ()
  in
  let c = attempt () in
  (pid, c, secs (now_ns () - t0))

let stop_server (pid, c) =
  send c Msg.Shutdown;
  let rec wait () = match recv c with Msg.Shutdown_ack -> () | _ -> wait () in
  wait ();
  Unix.close c.fd;
  ignore (Unix.waitpid [] pid);
  servers := List.filter (( <> ) pid) !servers

let stats c =
  send c Msg.Stats;
  let rec wait () = match recv c with Msg.Stats_reply s -> s | _ -> wait () in
  wait ()

(* Reference inputs of served jobs, keyed by source name. *)
let reference = Hashtbl.create 64

let reference_of (j : job) =
  let key = Msg.source_name j.source in
  match Hashtbl.find_opt reference key with
  | Some r -> r
  | None ->
    let text =
      match j.source with
      | Msg.Blif { text; _ } -> text
      | src -> Aig.Io.blif_to_string ~model:key (Serve.Run.build_source src)
    in
    let g = Aig.Io.read_blif text in
    let r = (text, g, quality_of g) in
    Hashtbl.add reference key r;
    r

let served_quality r =
  match r.result with
  | Some { Msg.state = Msg.Done; metrics = Some m; _ } ->
    let _, _, base = reference_of r.job in
    Some
      ( base,
        { levels = float_of_int m.Msg.levels; delay = m.Msg.delay_ps;
          area = m.Msg.area; power = m.Msg.power_mw } )
  | _ -> None

(* One server session: spawn, warm up, run the timed open loop (and the
   bursts when [burst]). Returns the phases and session facts. *)
type session = {
  setup_s : float; (* spawn to accepting, plus the warm-up prefix *)
  warm : phase list;
  timed : phase list; (* consecutive segments of the open loop *)
  bursts : phase list;
  rss_kb : int;
  interned : int;
}

(* Spawn a server and run the untimed warm-up prefix: every repeated and
   tiny job once, cold, one at a time. *)
let start_warm () =
  let pid, c, accept_s = start_server () in
  let t_warm = now_s () in
  let warm_jobs =
    List.map (fun (s, t, ceiling) -> { cls = "repeat"; source = s; tool = t; ceiling }) repeat_set
    @ List.map (fun (s, t) -> { cls = "tiny"; source = s; tool = t; ceiling = 0 }) tiny_set
  in
  let warm = List.map (fun j -> run_phase c ~traced:false ~rate:infinity [ j ]) warm_jobs in
  (pid, c, accept_s +. (now_s () -. t_warm), warm)

(* With [burst], the open loop runs in [bursts] segments with a burst
   after each: the host's speed drifts over seconds, and bursts run back
   to back at the end all caught the same few seconds of it. A burst
   ends with its last result, so the next segment starts on an empty
   queue. *)
let session ~seed ~seconds ~traced ~burst =
  let pid, c, setup_s, warm = start_warm () in
  (* The open loop takes three quarters of --seconds; the bursts take
     about the rest. *)
  let blocks =
    max bursts (int_of_float (Float.round (0.75 *. seconds *. rate /. float_of_int block)))
  in
  let segs = if burst then bursts else 1 in
  let timed, bursts =
    List.split
      (List.init segs (fun i ->
           let first = blocks * i / segs in
           let t =
             run_phase c ~traced ~rate ~probe_every:0.5
               (mix seed ~first_block:first ~blocks:((blocks * (i + 1) / segs) - first))
           in
           let b =
             if burst then
               [ run_phase c ~traced:false ~rate:infinity
                   (mix seed ~first_block:(blocks + (i * burst_blocks)) ~blocks:burst_blocks) ]
             else []
           in
           (t, b)))
  in
  let rss_kb = proc_vmhwm_kb (string_of_int pid) in
  let interned = (stats c).Msg.interned_circuits in
  stop_server (pid, c);
  { setup_s; warm; timed; bursts = List.concat bursts; rss_kb; interned }

(* Check every returned circuit: Aig.Cec.check against the reference
   input and the independent simulator over both BLIF texts. Identical
   (input, output) pairs are checked once. *)
let verify seed recs =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun r ->
      let ok =
        match r.result with
        | Some { Msg.state = Msg.Done; blif = Some out; metrics = Some _; _ } -> (
          let text, g, _ = reference_of r.job in
          let key = (Msg.source_name r.job.source, Digest.string out) in
          match Hashtbl.find_opt seen key with
          | Some ok -> ok
          | None ->
            let ok =
              (match Aig.Io.read_blif out with
               | o -> Aig.Cec.check g o = Aig.Cec.Equivalent
               | exception Failure _ -> false)
              && K.sim_mismatch ~seed ~words:sim_words text out = None
            in
            Hashtbl.add seen key ok;
            ok)
        | Some res ->
          prerr_endline
            ("perfbench: job " ^ res.Msg.circuit ^ "/" ^ res.Msg.tool ^ " ended "
            ^ Msg.state_name res.Msg.state
            ^ Option.fold ~none:"" ~some:(( ^ ) ": ") res.Msg.error);
          false
        | None -> false
      in
      if not ok then
        prerr_endline ("perfbench: served job failed: " ^ Msg.source_name r.job.source ^ "/" ^ r.job.tool);
      not ok)
    recs
  |> List.length

(* Served-job percentiles are smoothed over the samples around their
   rank: the latency tail holds a few dozen heavy and queued jobs, and
   the one sample at the rank swung by a sixth between runs. *)
let pct xs p =
  match K.smooth_percentile (Array.of_list xs) p with
  | Some v -> v
  | None -> die "too few samples for p%d (%d)" p (List.length xs)

let run_ms r = match r.result with Some res -> res.Msg.run_ms | None -> 0.

let serve ~seed ~seconds ~traced =
  (* Set-up: spawn to accepting plus the warm-up prefix, the median of
     three servers: one before the measured session, one after it, so
     that the three sample the host's drifting speed apart. *)
  let probe () =
    let pid, c, setup_s, warm = start_warm () in
    stop_server (pid, c);
    (setup_s, warm)
  in
  let before = probe () in
  let s = session ~seed ~seconds ~traced:false ~burst:true in
  let after = probe () in
  let setup_s = median_exn [ fst before; s.setup_s; fst after ] in
  let recs_of ps = List.concat_map (fun p -> Array.to_list p.recs) ps in
  let timed = recs_of s.timed in
  let burst_recs = recs_of s.bursts in
  let warm_recs = recs_of (s.warm @ snd before @ snd after) in
  let failed = verify seed (warm_recs @ timed @ burst_recs) in
  let attempted = List.length warm_recs + List.length timed + List.length burst_recs in
  (* Honest open loop: judge the generator and the backlog first. *)
  let late = List.concat_map (fun p -> Array.to_list p.late_ms) s.timed in
  let late_p95 = pct late 95 and late_max = List.fold_left Float.max 0. late in
  let depth_at p frac =
    let target = frac *. (p.recs.(Array.length p.recs - 1).sched -. p.t0) in
    List.fold_left
      (fun (bt, bq) (t, q) -> if Float.abs (t -. target) < Float.abs (bt -. target) then (t, q) else (bt, bq))
      (infinity, 0) p.queued
    |> snd
  in
  (* Queue depth at the middle and the end of each segment. *)
  let depths = List.map (fun p -> (depth_at p 0.5, depth_at p 1.0)) s.timed in
  let q_mid = List.fold_left (fun a (m, _) -> max a m) 0 depths
  and q_end = List.fold_left (fun a (_, e) -> max a e) 0 depths in
  Printf.eprintf
    "perfbench: open loop at %.1f jobs/s: late p95 %.2f ms, max %.2f ms; queued mid %d, end %d (most of any segment)\n"
    rate late_p95 late_max q_mid q_end;
  if late_p95 > 20. || late_max > 500. then
    die "invalid run: the load generator fell behind its schedule";
  if List.exists (fun (m, e) -> e > max m 4 + int_of_float rate) depths then
    die "invalid run: the backlog grew";
  let latency r =
    match r.result with
    | Some { Msg.state = Msg.Done; _ } -> (r.done_at -. r.sched) *. 1e3
    | _ -> infinity
  in
  let lat = List.map latency timed in
  (* Latency quartiles per class, for reading a run. *)
  List.iter
    (fun k ->
      let q = K.sorted (Array.of_list (List.filter_map (fun r -> if r.job.cls = k then Some (latency r) else None) timed)) in
      let at f = q.(min (Array.length q - 1) (int_of_float (f *. float_of_int (Array.length q)))) in
      Printf.eprintf "perfbench: %s latency ms: p25 %.1f p50 %.1f p75 %.1f (%d jobs)\n"
        k (at 0.25) (at 0.5) (at 0.75) (Array.length q))
    [ "tiny"; "repeat"; "unique" ];
  (* Each burst's wall: its first send to its last result. *)
  let burst_walls =
    List.map
      (fun p -> Array.fold_left (fun acc r -> Float.max acc r.done_at) 0. p.recs -. p.t0)
      s.bursts
  in
  (* Bursts differ in their heavy jobs and in the host's speed of the
     moment, so both figures pool all of them rather than pick one. *)
  let burst_total = List.fold_left ( +. ) 0. burst_walls in
  let pairs = List.filter_map served_quality timed in
  let p95 = pct lat 95 in
  if p95 > p95_limit_ms then
    Printf.eprintf "perfbench: p95 %.1f ms exceeds the %.0f ms limit\n" p95 p95_limit_ms;
  let end_to_end =
    [ ("wall_s", burst_total /. float_of_int bursts); ("setup_s", setup_s);
      ("peak_rss_mb", float_of_int s.rss_kb /. 1024.) ]
    @ (if failed = 0 then quality_geos pairs else quality_geos [])
    @ [ ("job_p50_ms", pct lat 50); ("job_p95_ms", p95);
        ("jobs_per_s", float_of_int (List.length burst_recs) /. burst_total) ]
  in
  if not traced then (attempted, failed, end_to_end)
  else begin
    (* Traced session: same jobs with reports and per-job trace slices. *)
    let st = session ~seed ~seconds ~traced:true ~burst:false in
    let ttimed = recs_of st.timed in
    let failed = failed + verify seed ttimed in
    let attempted = attempted + List.length ttimed in
    let o = new_obs () in
    let roots = ref 0. in
    List.iter
      (fun r ->
        (match r.result with
        | Some { Msg.report = Some rep; _ } ->
          List.iter (fun (n, a, v) -> absorb_flat o (n, a = K.Max, v)) (K.flat_report rep)
        | _ -> ());
        let named, tracks = K.self_times r.trace in
        List.iter (fun (n, s) -> absorb_span o (n, s.K.self_s, s.K.count)) named;
        roots := !roots +. List.fold_left (fun a (_, t) -> a +. t) 0. tracks)
      ttimed;
    let ms_of sel f = List.filter_map (fun r -> if sel r then Some (f r) else None) timed in
    let all _ = true in
    let cls k r = r.job.cls = k in
    let run_sum sel = sum (fun r -> if sel r then run_ms r /. 1e3 else 0.) timed in
    let wait r = match r.result with Some res -> res.Msg.wait_ms | None -> 0. in
    (* Warm state, from outside: a repeated job's first (warm-up) run
       against its median timed run. *)
    let repeat_keys =
      List.sort_uniq compare
        (List.filter_map (fun r -> if cls "repeat" r then Some (Msg.source_name r.job.source, r.job.tool, r.job.ceiling) else None) timed)
    in
    let warm_of (src, tool, ceil) =
      let same r = (Msg.source_name r.job.source, r.job.tool, r.job.ceiling) = (src, tool, ceil) in
      let first = List.find same warm_recs in
      (run_ms first /. 1e3, median_exn (ms_of same run_ms) /. 1e3)
    in
    let cold_warm = List.map warm_of repeat_keys in
    let read_blif_s =
      sum
        (fun r ->
          match r.job.source with
          | Msg.Blif { text; _ } -> snd (Obs.time (fun () -> Aig.Io.read_blif text))
          | _ -> 0.)
        timed
    in
    let traced_run = sum (fun r -> run_ms r) ttimed and plain_run = sum (fun r -> run_ms r) timed in
    let per_layer =
      [ ("aig.read_blif_s", read_blif_s);
        ("core.optimize_s", run_sum (fun r -> r.job.tool = "lookahead"));
        ("core.optimize_warm_s", sum snd cold_warm);
        ("logic.memo_fill_s", sum (fun (c, w) -> c -. w) cold_warm);
        ("baselines.sis_s", run_sum (fun r -> r.job.tool = "sis"));
        ("baselines.abc_s", run_sum (fun r -> r.job.tool = "abc"));
        ("baselines.dc_s", run_sum (fun r -> r.job.tool = "dc"));
        ("aig.cec_s", fst (Option.value (Hashtbl.find_opt o.spans "cec.check") ~default:(0., 0)));
        ("techmap.measure_s", 0.) ]
      @ layer_metrics o
      @ [ ("serve.admit_ms_p50", pct (ms_of all (fun r -> (r.admitted -. r.sent) *. 1e3)) 50);
          ("serve.wait_ms_p50", pct (ms_of all wait) 50);
          ("serve.wait_ms_p95", pct (ms_of all wait) 95);
          ("serve.run_ms_p50", pct (ms_of all run_ms) 50);
          ("serve.run_ms_p95", pct (ms_of all run_ms) 95);
          (* Per class the plain median: the heavy classes have only
             one job per block. *)
          ("serve.run_ms_p50.tiny", median_exn (ms_of (cls "tiny") run_ms));
          ("serve.run_ms_p50.repeat", median_exn (ms_of (cls "repeat") run_ms));
          ("serve.run_ms_p50.unique", median_exn (ms_of (cls "unique") run_ms));
          ("serve.overhead_ms_p50",
           pct (ms_of all (fun r -> latency r -. wait r -. run_ms r)) 50);
          ("serve.queue_depth_max",
           float_of_int
             (List.fold_left (fun a p -> List.fold_left (fun a (_, q) -> max a q) a p.queued) 0 s.timed));
          ("serve.interned_circuits", float_of_int s.interned);
          ("loadgen.late_ms_p95", late_p95); ("loadgen.late_ms_max", late_max);
          ("trace.coverage", !roots /. (traced_run /. 1e3));
          ("trace.overhead_frac", traced_run /. plain_run -. 1.) ]
    in
    let top =
      Hashtbl.fold (fun n (s, _) acc -> (n, s) :: acc) o.spans []
      |> List.sort (fun (_, a) (_, b) -> Float.compare b a)
    in
    Printf.eprintf "perfbench: serve_mix run time %.3f s, spans %.3f s; self times:\n" (traced_run /. 1e3) !roots;
    List.iter (fun (n, s) -> Printf.eprintf "  %-24s %8.3f s\n" n s) top;
    (attempted, failed, per_layer)
  end

(* ==================================================================== *)
(* metric catalogue and output                                          *)
(* ==================================================================== *)

let end_to_end_units =
  [ ("wall_s", "s"); ("setup_s", "s"); ("peak_rss_mb", "MB");
    ("levels_geo", "ratio"); ("delay_geo", "ratio"); ("area_geo", "ratio");
    ("power_geo", "ratio"); ("job_p50_ms", "ms"); ("job_p95_ms", "ms");
    ("jobs_per_s", "1/s") ]

(* Per-layer metrics every traced run prints, in this order; a metric
   the workload does not exercise reads 0. *)
let per_layer_units =
  let s = "s" and n = "count" and r = "ratio" and ms = "ms" in
  [ ("aig.read_blif_s", s); ("core.optimize_s", s); ("core.optimize_warm_s", s);
    ("logic.memo_fill_s", s); ("core.round_s", s); ("core.decompose_s", s);
    ("core.spcf_s", s); ("core.window_s", s); ("core.secondary_s", s);
    ("core.reconstruct_s", s); ("core.balance_s", s); ("core.polish_s", s);
    ("core.sat_sweep_s", s); ("core.final_cec_s", s); ("core.mfs_s", s);
    ("core.optimize_self_s", s); ("core.rounds", n);
    ("core.outputs_decomposed", n); ("core.windows_marked", n);
    ("core.skipped_support", n); ("core.decompose_yield", r);
    ("bdd.nodes_allocated", n); ("bdd.peak_live_nodes", n);
    ("bdd.ite_hit_ratio", r); ("bdd.compose_hit_ratio", r); ("bdd.growths", n);
    ("network.globals_recomputed", n); ("network.globals_reuse_ratio", r);
    ("network.scratch_fallbacks", n); ("network.levels_repaired", n);
    ("timing.spcf_calls", n); ("timing.bool_diffs", n); ("timing.late_nodes", n);
    ("baselines.sis_s", s); ("baselines.abc_s", s); ("baselines.dc_s", s);
    ("aig.cec_s", s); ("aig.cec_sat_calls", n); ("aig.sweep_merges", n);
    ("sat.conflicts", n); ("sat.propagations", n);
    ("sat.budget_exhausted_ratio", r); ("techmap.measure_s", s);
    ("par.tasks", n); ("guard.rungs", n); ("serve.admit_ms_p50", ms);
    ("serve.wait_ms_p50", ms); ("serve.wait_ms_p95", ms);
    ("serve.run_ms_p50", ms); ("serve.run_ms_p95", ms);
    ("serve.run_ms_p50.tiny", ms); ("serve.run_ms_p50.repeat", ms);
    ("serve.run_ms_p50.unique", ms); ("serve.overhead_ms_p50", ms);
    ("serve.queue_depth_max", n); ("serve.interned_circuits", n);
    ("loadgen.late_ms_p95", ms); ("loadgen.late_ms_max", ms);
    ("trace.coverage", r); ("trace.overhead_frac", r); ("fail_frac", r) ]

let workloads = [ "oneshot_lookahead"; "serve_mix" ]

let main workload seed seconds traced =
  if not (List.mem workload workloads) then die "unknown workload %S" workload;
  (try Sys.mkdir ".perfbench_work" 0o755 with Sys_error _ -> ());
  Sys.mkdir work_dir 0o755;
  at_exit (fun () ->
      remove_tree work_dir;
      try Sys.rmdir ".perfbench_work" with Sys_error _ -> ());
  let attempted, failed, values =
    if workload = "serve_mix" then serve ~seed ~seconds ~traced
    else oneshot ~seed ~seconds ~traced
  in
  let values = values @ [ ("fail_frac", float_of_int failed /. float_of_int attempted) ] in
  let units = if traced then per_layer_units else end_to_end_units in
  let metrics =
    List.map
      (fun (name, unit) ->
        let v =
          match List.assoc_opt name values with
          | Some v when Float.is_finite v -> v
          | Some _ -> die "metric %s is not finite" name
          | None -> 0.
        in
        (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]))
      units
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool (failed = 0)); ("attempted", Json.Int attempted);
            ("failed", Json.Int failed); ("metrics", Json.Obj metrics) ]));
  if failed > 0 then exit 1

let () =
  match Array.to_list Sys.argv with
  | [ _; "cell"; tool; jobs; traced; out; input ] ->
    cell_main tool jobs traced out input
  | _ :: args ->
    let rec parse acc = function
      | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
      | [] -> acc
      | a :: _ -> die "unexpected argument %S" a
    in
    let opts = parse [] args in
    let get k = match List.assoc_opt k opts with Some v -> v | None -> die "missing --%s" k in
    let int k = match int_of_string_opt (get k) with Some v -> v | None -> die "--%s: not an integer" k in
    main (get "workload") (int "seed") (float_of_int (int "seconds")) (int "trace" = 1)
  | [] -> die "no arguments"
