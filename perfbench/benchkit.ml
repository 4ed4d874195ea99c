(* Helpers of the repository benchmark (perfbench/bench.ml), kept apart
   so the tests in test_benchkit.ml can exercise them directly:
   order statistics, the geometric mean, per-span self time from a
   Chrome trace in the [Obs.trace_json] format, the [VmHWM] line of
   /proc/<pid>/status, flattening of [Obs.report_json] reports, and an
   independent BLIF simulator used to check outputs without going
   through the optimizer's own AIG code. *)

module Json = Obs.Json

(* --- order statistics ---------------------------------------------- *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let median xs =
  let n = Array.length xs in
  if n = 0 then None
  else
    let a = sorted xs in
    if n mod 2 = 1 then Some a.(n / 2)
    else Some ((a.((n / 2) - 1) +. a.(n / 2)) /. 2.)

(* Nearest-rank percentile [p] (an integer percent in 1..99), reported
   only when at least [beyond] samples lie above the rank, so that a
   tail figure never rests on one or two outliers. The rank is computed
   in integers: [0.95 *. 200.] is not exactly 190. *)
let percentile ?(beyond = 10) xs p =
  if p < 1 || p > 99 then invalid_arg "Benchkit.percentile: p outside 1..99";
  let n = Array.length xs in
  let k = max 1 (((p * n) + 99) / 100) in
  if n = 0 || n - k < beyond then None else Some (sorted xs).(k - 1)

(* Smoothed percentile, under the same ten-beyond rule: the average of
   the order statistics weighted by the Beta((n+1)q, (n+1)(1-q)) density
   at their ranks (q = p/100), a close approximation of the Harrell-Davis
   estimator. The figure then rests on the dozen samples around the rank
   rather than on the one sample that lands on it, so it moves less from
   run to run where the tail is sparse. Weights too small to matter are
   skipped, so an infinite sample far from the rank cannot turn the
   result into nan. *)
let smooth_percentile ?(beyond = 10) xs p =
  match percentile ~beyond xs p with
  | None -> None
  | Some _ ->
    let a = sorted xs and n = Array.length xs in
    let q = float_of_int p /. 100. in
    let alpha = q *. float_of_int (n + 1) and beta = (1. -. q) *. float_of_int (n + 1) in
    let logw i =
      let x = (float_of_int i +. 0.5) /. float_of_int n in
      ((alpha -. 1.) *. log x) +. ((beta -. 1.) *. log (1. -. x))
    in
    let top = Array.fold_left Float.max neg_infinity (Array.init n logw) in
    let num = ref 0. and den = ref 0. in
    Array.iteri
      (fun i v ->
        let w = exp (logw i -. top) in
        if w > 1e-12 then begin
          num := !num +. (w *. v);
          den := !den +. w
        end)
      a;
    Some (!num /. !den)

let geomean = function
  | [] -> invalid_arg "Benchkit.geomean: empty"
  | xs ->
    List.iter
      (fun x ->
        if not (x > 0.) then invalid_arg "Benchkit.geomean: non-positive value")
      xs;
    exp
      (List.fold_left (fun acc x -> acc +. log x) 0. xs
      /. float_of_int (List.length xs))

(* --- Chrome-trace self time ----------------------------------------- *)

type span_event = { name : string; tid : int; ts : float; dur : float }

let num = function
  | Json.Int i -> Some (float_of_int i)
  | Json.Float f -> Some f
  | _ -> None

let span_events trace =
  let events =
    match Json.member "traceEvents" trace with
    | Some (Json.List l) -> l
    | _ -> []
  in
  List.filter_map
    (fun e ->
      match
        ( Json.member "ph" e,
          Json.member "name" e,
          Option.bind (Json.member "tid" e) num,
          Option.bind (Json.member "ts" e) num,
          Option.bind (Json.member "dur" e) num )
      with
      | ( Some (Json.String "X"),
          Some (Json.String name),
          Some tid,
          Some ts,
          Some dur ) ->
        Some { name; tid = int_of_float tid; ts; dur }
      | _ -> None)
    events

type span_stat = { self_s : float; count : int }

(* Self time of a span = its duration minus the part of it that spans
   nested inside it on the same track cover. Events on one track are
   properly nested (a span closes before its parent), so a stack walk in
   (start, longest-first) order finds each event's parent. Returns
   per-name totals sorted by name, and per-track totals of the
   outermost spans (the time the trace covers on that track). Trace
   times are microseconds; results are seconds. *)
let self_times trace =
  let evs = Array.of_list (span_events trace) in
  let order = Array.init (Array.length evs) Fun.id in
  Array.sort
    (fun i j ->
      let a = evs.(i) and b = evs.(j) in
      match compare a.tid b.tid with
      | 0 -> (
        match Float.compare a.ts b.ts with
        | 0 -> Float.compare b.dur a.dur
        | c -> c)
      | c -> c)
    order;
  let self = Array.map (fun e -> e.dur) evs in
  let roots = Hashtbl.create 4 in
  let stack = ref [] and track = ref min_int in
  Array.iter
    (fun i ->
      let e = evs.(i) in
      if e.tid <> !track then begin
        stack := [];
        track := e.tid
      end;
      let rec pop () =
        match !stack with
        | p :: rest when evs.(p).ts +. evs.(p).dur <= e.ts ->
          stack := rest;
          pop ()
        | _ -> ()
      in
      pop ();
      (match !stack with
      | p :: _ ->
        let parent_end = evs.(p).ts +. evs.(p).dur in
        self.(p) <- self.(p) -. (Float.min (e.ts +. e.dur) parent_end -. e.ts)
      | [] ->
        let prev = Option.value (Hashtbl.find_opt roots e.tid) ~default:0. in
        Hashtbl.replace roots e.tid (prev +. e.dur));
      stack := i :: !stack)
    order;
  let by_name = Hashtbl.create 16 in
  Array.iteri
    (fun i e ->
      let s, c =
        Option.value (Hashtbl.find_opt by_name e.name) ~default:(0., 0)
      in
      Hashtbl.replace by_name e.name (s +. self.(i), c + 1))
    evs;
  let named =
    Hashtbl.fold
      (fun name (s, c) acc -> (name, { self_s = s *. 1e-6; count = c }) :: acc)
      by_name []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let tracks =
    Hashtbl.fold (fun tid us acc -> (tid, us *. 1e-6) :: acc) roots []
    |> List.sort compare
  in
  (named, tracks)

(* --- /proc/<pid>/status ---------------------------------------------- *)

(* The [VmHWM:   1234 kB] line (peak resident set) in kB. *)
let vmhwm_kb status =
  String.split_on_char '\n' status
  |> List.find_map (fun line ->
         match String.index_opt line ':' with
         | Some i when String.sub line 0 i = "VmHWM" -> (
           let rest = String.sub line (i + 1) (String.length line - i - 1) in
           match
             String.split_on_char ' ' (String.trim rest)
             |> List.filter (( <> ) "")
           with
           | [ v; "kB" ] -> int_of_string_opt v
           | _ -> None)
         | _ -> None)

(* --- Obs reports ------------------------------------------------------ *)

type agg = Sum | Max

(* Every scalar of an [Obs.report_json] report, from both stability
   subtrees: counters add and gauges take the max when reports are
   combined; a histogram contributes [name.sum] and [name.count]. *)
let flat_report report =
  let section sub key f =
    match Option.bind (Json.member sub report) (Json.member key) with
    | Some (Json.Obj kvs) -> List.concat_map f kvs
    | _ -> []
  in
  let scalar agg (name, v) =
    match num v with Some x -> [ (name, agg, x) ] | None -> []
  in
  let hist (name, v) =
    List.filter_map
      (fun field ->
        Option.map
          (fun x -> (name ^ "." ^ field, Sum, x))
          (Option.bind (Json.member field v) num))
      [ "sum"; "count" ]
  in
  List.concat_map
    (fun sub ->
      section sub "counters" (scalar Sum)
      @ section sub "gauges" (scalar Max)
      @ section sub "histograms" hist)
    [ "deterministic"; "runtime" ]

(* --- independent BLIF simulation ------------------------------------ *)

module Blif = struct
  type gate = { fanins : int array; cubes : string list; onset : bool }

  type t = {
    inputs : int array;
    outputs : int array;
    gates : (int, gate) Hashtbl.t; (* driven signal -> its .names table *)
    nsignals : int;
  }

  (* Logical lines: comments stripped, backslash continuations joined. *)
  let lines text =
    let raw = String.split_on_char '\n' text in
    let strip l =
      let l = match String.index_opt l '#' with
        | Some i -> String.sub l 0 i
        | None -> l
      in
      String.trim l
    in
    let rec join acc pending = function
      | [] -> List.rev (if pending = "" then acc else pending :: acc)
      | l :: rest ->
        let l = strip l in
        let n = String.length l in
        if n > 0 && l.[n - 1] = '\\' then
          join acc (pending ^ String.sub l 0 (n - 1) ^ " ") rest
        else
          let full = pending ^ l in
          join (if full = "" then acc else full :: acc) "" rest
    in
    join [] "" raw

  let words l =
    String.split_on_char ' ' l
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (( <> ) "")

  let parse text =
    let ids = Hashtbl.create 256 in
    let id name =
      match Hashtbl.find_opt ids name with
      | Some i -> i
      | None ->
        let i = Hashtbl.length ids in
        Hashtbl.add ids name i;
        i
    in
    let inputs = ref [] and outputs = ref [] in
    let gates = Hashtbl.create 256 in
    let current = ref None in
    let close () =
      match !current with
      | None -> ()
      | Some (out, fanins, rows) ->
        let onset, cubes =
          List.fold_left
            (fun (onset, cubes) (cube, v) ->
              let on = v = "1" in
              (match onset with
              | Some o when o <> on -> failwith "BLIF: mixed on/off-set rows"
              | _ -> ());
              (Some on, cube :: cubes))
            (None, []) rows
        in
        if Hashtbl.mem gates out then failwith "BLIF: signal driven twice";
        Hashtbl.add gates out
          { fanins; cubes; onset = Option.value onset ~default:true };
        current := None
    in
    List.iter
      (fun l ->
        match words l with
        | [] -> ()
        | kw :: args when kw.[0] = '.' -> (
          close ();
          match kw with
          | ".model" | ".end" -> ()
          | ".inputs" -> inputs := !inputs @ List.map id args
          | ".outputs" -> outputs := !outputs @ List.map id args
          | ".names" -> (
            match List.rev args with
            | [] -> failwith "BLIF: .names without signals"
            | out :: rev_ins ->
              current :=
                Some (id out, Array.of_list (List.rev_map id rev_ins), []))
          | k -> failwith ("BLIF: unsupported construct " ^ k))
        | row -> (
          match !current with
          | None -> failwith ("BLIF: stray row " ^ l)
          | Some (out, fanins, rows) ->
            let cube, v =
              match row with
              | [ v ] when Array.length fanins = 0 -> ("", v)
              | [ cube; v ] when String.length cube = Array.length fanins ->
                (cube, v)
              | _ -> failwith ("BLIF: malformed row " ^ l)
            in
            if v <> "0" && v <> "1" then failwith ("BLIF: bad output " ^ l);
            current := Some (out, fanins, rows @ [ (cube, v) ])))
      (lines text);
    close ();
    {
      inputs = Array.of_list !inputs;
      outputs = Array.of_list !outputs;
      gates;
      nsignals = Hashtbl.length ids;
    }

  let num_inputs t = Array.length t.inputs
  let num_outputs t = Array.length t.outputs

  (* Evaluate 64 input vectors at once: word [i] carries input [i]. The
     traversal is an explicit-stack DFS, so a deep netlist cannot
     overflow the call stack. *)
  let simulate t words =
    if Array.length words <> Array.length t.inputs then
      invalid_arg "Blif.simulate: one word per input";
    let value = Array.make t.nsignals 0L in
    let state = Array.make t.nsignals 0 (* 0 new, 1 open, 2 done *) in
    Array.iteri
      (fun k s ->
        value.(s) <- words.(k);
        state.(s) <- 2)
      t.inputs;
    let eval g =
      let cover =
        List.fold_left
          (fun acc cube ->
            let term = ref (-1L) in
            String.iteri
              (fun j c ->
                match c with
                | '1' -> term := Int64.logand !term value.(g.fanins.(j))
                | '0' -> term := Int64.logand !term (Int64.lognot value.(g.fanins.(j)))
                | _ -> ())
              cube;
            Int64.logor acc !term)
          0L g.cubes
      in
      if g.onset then cover else Int64.lognot cover
    in
    let visit root =
      let stack = ref [ root ] in
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | s :: rest ->
          if state.(s) = 2 then stack := rest
          else
            let g =
              match Hashtbl.find_opt t.gates s with
              | Some g -> g
              | None -> failwith "BLIF: undriven signal"
            in
            if state.(s) = 1 then begin
              value.(s) <- eval g;
              state.(s) <- 2;
              stack := rest
            end
            else begin
              state.(s) <- 1;
              Array.iter
                (fun f ->
                  if state.(f) = 1 then failwith "BLIF: combinational loop";
                  if state.(f) = 0 then stack := f :: !stack)
                g.fanins
            end
      done
    in
    Array.iter visit t.outputs;
    Array.map (fun s -> value.(s)) t.outputs
end

(* [sim_mismatch ~seed ~words a b] simulates both BLIF texts on the
   same [64 * words] pseudo-random input vectors (inputs and outputs
   matched by position) and returns [None] when every output agrees,
   or a reason. *)
let sim_mismatch ~seed ~words a b =
  match (Blif.parse a, Blif.parse b) with
  | exception Failure msg -> Some msg
  | a, b ->
    if Blif.num_inputs a <> Blif.num_inputs b then Some "input count differs"
    else if Blif.num_outputs a <> Blif.num_outputs b then
      Some "output count differs"
    else
      let rng = Random.State.make [| seed; 0x51b |] in
      let rec go w =
        if w = words then None
        else
          let v = Array.init (Blif.num_inputs a) (fun _ -> Random.State.bits64 rng) in
          match (Blif.simulate a v, Blif.simulate b v) with
          | exception Failure msg -> Some msg
          | oa, ob ->
            if oa = ob then go (w + 1)
            else Some (Printf.sprintf "outputs differ on vector word %d" w)
      in
      go 0
