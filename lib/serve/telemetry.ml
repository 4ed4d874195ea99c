(* The job server's one ledger: job outcomes, size-classed latency
   histograms with interpolated quantiles, per-tenant admission
   outcomes, SLO burn tracking, and a Prometheus-style text exposition
   (plus a JSON mirror). It has no lock of its own: the engine calls
   every function here under its own lock. See telemetry.mli.

   Everything here is Sched data — wall-clock latencies, admission
   order, tenant behaviour — so none of it participates in the
   determinism contract. What IS deterministic is the exposition
   builder itself: given the same recorded observations it produces
   byte-identical text (all iteration is over sorted keys), which is
   what the golden format test pins down. *)

module J = Obs.Json

(* --- size classes --------------------------------------------------- *)

let size_classes = [ "xs"; "s"; "m"; "l"; "xl" ]

let size_class ~gates =
  if gates < 64 then "xs"
  else if gates < 256 then "s"
  else if gates < 1024 then "m"
  else if gates < 4096 then "l"
  else "xl"

(* --- latency series ------------------------------------------------- *)

(* Latencies are kept as whole microseconds in Obs.Hist's layout;
   everything shown is in milliseconds. *)
let us_of_ms ms =
  if ms > 0.0 then Float.to_int (Float.round (ms *. 1000.0)) else 0

let observe_ms h ms = Obs.Hist.observe h (us_of_ms ms)
let quantile_ms h q = Obs.Hist.quantile h q /. 1000.0
let sum_ms h = float_of_int (Obs.Hist.sum h) /. 1000.0

(* A bucket's inclusive upper bound in ms, exact: whole µs need three
   decimals. *)
let le_ms b =
  let us = Obs.Hist.upper b in
  Printf.sprintf "%d.%03d" (us / 1000) (us mod 1000)

(* --- SLO objectives ------------------------------------------------- *)

let parse_slo spec =
  let items = String.split_on_char ',' (String.trim spec) in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | "" :: rest -> go acc rest
    | item :: rest -> (
      match String.index_opt item '=' with
      | None -> Error (Printf.sprintf "bad SLO item %S, want CLASS=MS" item)
      | Some eq ->
        let cls = String.trim (String.sub item 0 eq) in
        let v =
          String.trim
            (String.sub item (eq + 1) (String.length item - eq - 1))
        in
        if not (List.mem cls size_classes) then
          Error
            (Printf.sprintf "unknown size class %S (want %s)" cls
               (String.concat "|" size_classes))
        else
          match float_of_string_opt v with
          | Some ms when ms > 0.0 -> go ((cls, ms) :: acc) rest
          | _ -> Error (Printf.sprintf "bad SLO objective %S for %S" v cls))
  in
  go [] items

(* --- state ----------------------------------------------------------- *)

type class_state = {
  cs_cls : string;
  cs_objective_ms : float; (* 0 = no objective configured *)
  cs_run : Obs.Hist.t;
  mutable cs_jobs : int;
  mutable cs_breaches : int;
  cs_window : bool array; (* rolling breach flags, newest overwrites *)
  mutable cs_w_idx : int;
  mutable cs_w_fill : int;
}

type tenant_state = {
  mutable t_admitted : int;
  mutable t_rejected : int;
  mutable t_cancelled : int;
}

type t = {
  classes : (string * class_state) list; (* fixed order: size_classes *)
  wait : Obs.Hist.t;
  states : (string, int) Hashtbl.t;
  tenants : (int, tenant_state) Hashtbl.t;
  obs_totals : (string, int) Hashtbl.t;
}

(* The rolling SLO window, in completed jobs per class. *)
let window = 100

let create ?(slo = []) () =
  let classes =
    List.map
      (fun cls ->
        ( cls,
          {
            cs_cls = cls;
            cs_objective_ms =
              (match List.assoc_opt cls slo with Some ms -> ms | None -> 0.0);
            cs_run = Obs.Hist.create ();
            cs_jobs = 0;
            cs_breaches = 0;
            cs_window = Array.make window false;
            cs_w_idx = 0;
            cs_w_fill = 0;
          } ))
      size_classes
  in
  {
    classes;
    wait = Obs.Hist.create ();
    states = Hashtbl.create 8;
    tenants = Hashtbl.create 8;
    obs_totals = Hashtbl.create 64;
  }

let tenant_state t tenant =
  match Hashtbl.find_opt t.tenants tenant with
  | Some ts -> ts
  | None ->
    let ts = { t_admitted = 0; t_rejected = 0; t_cancelled = 0 } in
    Hashtbl.replace t.tenants tenant ts;
    ts

let bump tbl key n =
  Hashtbl.replace tbl key
    (n + Option.value (Hashtbl.find_opt tbl key) ~default:0)

let record_admit t ~tenant =
  let ts = tenant_state t tenant in
  ts.t_admitted <- ts.t_admitted + 1

let record_reject t ~tenant =
  let ts = tenant_state t tenant in
  ts.t_rejected <- ts.t_rejected + 1

let record_cancel t ~tenant =
  let ts = tenant_state t tenant in
  ts.t_cancelled <- ts.t_cancelled + 1

let record_queued_cancel t ~tenant =
  record_cancel t ~tenant;
  bump t.states (Msg.state_name Msg.Cancelled) 1

let record_result t ~cls ~state ~wait_ms ~run_ms =
  bump t.states state 1;
  observe_ms t.wait wait_ms;
  match List.assoc_opt cls t.classes with
  | None -> ()
  | Some cs ->
    cs.cs_jobs <- cs.cs_jobs + 1;
    observe_ms cs.cs_run run_ms;
    let breach = cs.cs_objective_ms > 0.0 && run_ms > cs.cs_objective_ms in
    if breach then cs.cs_breaches <- cs.cs_breaches + 1;
    cs.cs_window.(cs.cs_w_idx) <- breach;
    cs.cs_w_idx <- (cs.cs_w_idx + 1) mod window;
    cs.cs_w_fill <- min (cs.cs_w_fill + 1) window

let absorb_counters t counters =
  List.iter (fun (name, v) -> if v <> 0 then bump t.obs_totals name v) counters

let admitted t = Hashtbl.fold (fun _ ts n -> n + ts.t_admitted) t.tenants 0
let rejected t = Hashtbl.fold (fun _ ts n -> n + ts.t_rejected) t.tenants 0

let ended t state =
  Option.value (Hashtbl.find_opt t.states (Msg.state_name state)) ~default:0

let window_breaches cs =
  let n = ref 0 in
  for i = 0 to cs.cs_w_fill - 1 do
    if cs.cs_window.(i) then n := !n + 1
  done;
  !n

let slo_report t =
  List.filter_map
    (fun (_, cs) ->
      if cs.cs_jobs = 0 && cs.cs_objective_ms = 0.0 then None
      else
        Some
          {
            Msg.cls = cs.cs_cls;
            objective_ms = cs.cs_objective_ms;
            jobs = cs.cs_jobs;
            breaches = cs.cs_breaches;
            window = cs.cs_w_fill;
            window_breaches = window_breaches cs;
            p50_ms = quantile_ms cs.cs_run 0.50;
            p95_ms = quantile_ms cs.cs_run 0.95;
            p99_ms = quantile_ms cs.cs_run 0.99;
          })
    t.classes

(* --- exposition ------------------------------------------------------ *)

(* Prometheus sample values: integers print bare, everything else in
   shortest-%g form — stable, locale-free, golden-testable. *)
let fnum v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

let sorted_hashtbl tbl compare_key =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare_key a b)

let render_labels = function
  | [] -> ""
  | kvs ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=%S" k v) kvs)
    ^ "}"

let add_family b ~name ~help ~typ samples =
  if samples <> [] then begin
    Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" name help);
    Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name typ);
    List.iter
      (fun (labels, v) ->
        Buffer.add_string b
          (Printf.sprintf "%s%s %s\n" name (render_labels labels) v))
      samples
  end

(* One Prometheus histogram family: [# TYPE name histogram], then per
   labeled series the cumulative [name_bucket{...,le=...}] samples from
   the last empty bucket below the first observation (the lower edge a
   quantile interpolates from) up to the first bound that covers every
   observation, the mandatory [le="+Inf"] bucket, and [name_sum] /
   [name_count]. *)
let add_hist b ~name ~help series =
  if series <> [] then begin
    Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" name help);
    Buffer.add_string b (Printf.sprintf "# TYPE %s histogram\n" name);
    List.iter
      (fun (labels, h) ->
        let count = Obs.Hist.count h in
        let empty i = Obs.Hist.bucket h i = 0 in
        let cum = ref 0 and i = ref 0 in
        while count > 0 && empty !i && empty (!i + 1) do
          incr i
        done;
        while !cum < count do
          cum := !cum + Obs.Hist.bucket h !i;
          Buffer.add_string b
            (Printf.sprintf "%s_bucket%s %d\n" name
               (render_labels (labels @ [ ("le", le_ms !i) ]))
               !cum);
          i := !i + 1
        done;
        Buffer.add_string b
          (Printf.sprintf "%s_bucket%s %d\n" name
             (render_labels (labels @ [ ("le", "+Inf") ]))
             count);
        Buffer.add_string b
          (Printf.sprintf "%s_sum%s %s\n" name (render_labels labels)
             (fnum (sum_ms h)));
        Buffer.add_string b
          (Printf.sprintf "%s_count%s %d\n" name (render_labels labels)
             count))
      series
  end

let hist_json h =
  J.Obj
    [
      ("count", J.Int (Obs.Hist.count h));
      ("sum_ms", J.Float (sum_ms h));
      ("p50_ms", J.Float (quantile_ms h 0.50));
      ("p95_ms", J.Float (quantile_ms h 0.95));
      ("p99_ms", J.Float (quantile_ms h 0.99));
    ]

let exposition t ~gauges =
  let b = Buffer.create 4096 in
  (* Job outcomes. *)
  let states = sorted_hashtbl t.states String.compare in
  add_family b ~name:"lookahead_jobs_total"
    ~help:"Completed jobs by final state." ~typ:"counter"
    (List.map
       (fun (s, n) -> ([ ("state", s) ], string_of_int n))
       states);
  (* Per-tenant admission outcomes. *)
  let tenants = sorted_hashtbl t.tenants compare in
  add_family b ~name:"lookahead_tenant_jobs_total"
    ~help:"Per-tenant admission outcomes." ~typ:"counter"
    (List.concat_map
       (fun (tid, ts) ->
         let t = string_of_int tid in
         [
           ([ ("tenant", t); ("event", "admitted") ],
            string_of_int ts.t_admitted);
           ([ ("tenant", t); ("event", "rejected") ],
            string_of_int ts.t_rejected);
           ([ ("tenant", t); ("event", "cancelled") ],
            string_of_int ts.t_cancelled);
         ])
       tenants);
  (* Queue wait. *)
  if Obs.Hist.count t.wait > 0 then
    add_hist b ~name:"lookahead_queue_wait_ms"
      ~help:"Queue wait, admission to start, milliseconds."
      [ ([], t.wait) ];
  (* Per-class run latency. *)
  let active =
    List.filter (fun (_, cs) -> cs.cs_jobs > 0) t.classes
  in
  add_hist b ~name:"lookahead_job_run_ms"
    ~help:"Job execution wall clock by size class, milliseconds."
    (List.map (fun (cls, cs) -> ([ ("class", cls) ], cs.cs_run)) active);
  add_family b ~name:"lookahead_job_run_ms_quantile"
    ~help:"Interpolated run-latency quantiles by size class."
    ~typ:"gauge"
    (List.concat_map
       (fun (cls, cs) ->
         List.map
           (fun (q, qv) ->
             ([ ("class", cls); ("q", q) ], fnum (quantile_ms cs.cs_run qv)))
           [ ("0.5", 0.50); ("0.95", 0.95); ("0.99", 0.99) ])
       active);
  (* SLO tracking. *)
  let tracked =
    List.filter (fun (_, cs) -> cs.cs_objective_ms > 0.0) t.classes
  in
  add_family b ~name:"lookahead_slo_objective_ms"
    ~help:"Configured run-latency objective by size class."
    ~typ:"gauge"
    (List.map
       (fun (cls, cs) -> ([ ("class", cls) ], fnum cs.cs_objective_ms))
       tracked);
  add_family b ~name:"lookahead_slo_breaches_total"
    ~help:"Jobs over their class objective since start." ~typ:"counter"
    (List.map
       (fun (cls, cs) -> ([ ("class", cls) ], string_of_int cs.cs_breaches))
       tracked);
  add_family b ~name:"lookahead_slo_window_jobs"
    ~help:"Completed jobs in the rolling SLO window." ~typ:"gauge"
    (List.map
       (fun (cls, cs) -> ([ ("class", cls) ], string_of_int cs.cs_w_fill))
       tracked);
  add_family b ~name:"lookahead_slo_window_breaches"
    ~help:"Objective breaches in the rolling SLO window." ~typ:"gauge"
    (List.map
       (fun (cls, cs) ->
         ([ ("class", cls) ], string_of_int (window_breaches cs)))
       tracked);
  (* Cumulative Obs counters folded over per-job snapshots. *)
  let obs = sorted_hashtbl t.obs_totals String.compare in
  add_family b ~name:"lookahead_obs_total"
    ~help:"Cumulative Obs counters over all completed jobs."
    ~typ:"counter"
    (List.map
       (fun (name, v) -> ([ ("metric", name) ], string_of_int v))
       obs);
  (* Live engine gauges, injected by the caller. *)
  List.iter
    (fun (name, help, v) ->
      add_family b ~name:("lookahead_" ^ name) ~help ~typ:"gauge"
        [ ([], fnum v) ])
    gauges;
  let text = Buffer.contents b in
  let json =
    J.Obj
      [
        ("schema", J.String "lookahead-metrics/1");
        ("jobs",
         J.Obj (List.map (fun (s, n) -> (s, J.Int n)) states));
        ("tenants",
         J.Obj
           (List.map
              (fun (tid, ts) ->
                ( string_of_int tid,
                  J.Obj
                    [
                      ("admitted", J.Int ts.t_admitted);
                      ("rejected", J.Int ts.t_rejected);
                      ("cancelled", J.Int ts.t_cancelled);
                    ] ))
              tenants));
        ("queue_wait_ms", hist_json t.wait);
        ("classes",
         J.Obj
           (List.filter_map
              (fun (cls, cs) ->
                if cs.cs_jobs = 0 && cs.cs_objective_ms = 0.0 then None
                else
                  Some
                    ( cls,
                      J.Obj
                        [
                          ("run_ms", hist_json cs.cs_run);
                          ("objective_ms", J.Float cs.cs_objective_ms);
                          ("breaches", J.Int cs.cs_breaches);
                          ("window", J.Int cs.cs_w_fill);
                          ("window_breaches",
                           J.Int (window_breaches cs));
                        ] ))
              t.classes));
        ("obs",
         J.Obj (List.map (fun (name, v) -> (name, J.Int v)) obs));
        ("gauges",
         J.Obj
           (List.map (fun (name, _, v) -> (name, J.Float v)) gauges));
      ]
  in
  (text, json)
