(* See portfolio.mli. *)

type plan = Parallel of Guard.t list | Sequential

let plan parent n =
  if Guard.divide_overcommits parent n then Sequential
  else Parallel (Guard.divide parent n)

type report = {
  winner : string;
  winner_cost : float;
  arm_costs : (string * float) list;
  sequential : bool;
}

let m_sequential = Obs.counter "portfolio.sequential_fallback"

(* Arms in run / tie-break order. The input floor runs last so that an
   optimizer beating it on cost also wins cost ties against it. *)
let arms (options : Lookahead.Driver.options) ~(cost : Cost.t) :
    (string * (Guard.t -> Aig.t -> Aig.t)) list =
  List.map (fun (name, f) -> (name, fun _ctx g -> f g)) Baselines.all
  @ [
      ( "lookahead",
        fun ctx g ->
          Lookahead.optimize
            ~options:
              {
                options with
                guard_budget = Guard.budget ctx;
                deadline = Some (Guard.deadline ctx);
              }
            g );
      ("egraph", fun ctx g -> Graph.optimize ~guard:ctx ~cost g);
      ("none", fun _ctx g -> g);
    ]

let arm_names =
  List.map fst (arms Lookahead.Driver.default ~cost:Cost.levels)

let run_ex ?(options = Lookahead.Driver.default) ?pool ~(cost : Cost.t) g =
  let arms = arms options ~cost in
  let parent =
    Guard.create
      ~deadline:(Lookahead.Driver.deadline_of options)
      options.guard_budget
  in
  let run_arm name f ctx =
    Obs.with_span (Obs.span ("portfolio.arm." ^ name)) (fun () ->
        let out = try f ctx g with Guard.Blowup _ -> g in
        (out, cost.Cost.measure out))
  in
  let sequential, results =
    match plan parent (List.length arms) with
    | Sequential ->
      (* More arms than remaining node budget: a divided slice would
         overcommit (Guard.divide's floor of 1), so share the whole
         context one arm at a time instead. *)
      (true, List.map (fun (name, f) -> run_arm name f parent) arms)
    | Parallel ctxs ->
      ( false,
        Par.map_list ?pool
          (fun ((name, f), ctx) -> run_arm name f ctx)
          (List.combine arms ctxs) )
  in
  if sequential then Obs.incr m_sequential;
  let named =
    List.map2 (fun (name, _) (out, c) -> (name, out, c)) arms results
  in
  (* Det accounting, on the calling domain, in fixed arm order. Costs
     are scaled to milli-units so floats survive the int counters. *)
  List.iter
    (fun (name, _, c) ->
      Obs.add
        (Obs.counter ("portfolio.cost." ^ name))
        (int_of_float (Float.round (c *. 1000.))))
    named;
  (* Smallest cost wins, ties to the earliest arm; the winner must
     certify against the input or the next-best takes over. The "none"
     arm is the input itself, so the fold below always succeeds. *)
  let ranked =
    List.stable_sort (fun (_, _, a) (_, _, b) -> compare a b) named
  in
  let winner, output, winner_cost =
    let rec first_sound = function
      | [] -> ("none", g, cost.Cost.measure g)
      | (name, out, c) :: rest ->
        if Aig.Cec.equivalent g out then (name, out, c) else first_sound rest
    in
    first_sound ranked
  in
  Obs.incr (Obs.counter ("portfolio.winner." ^ winner));
  ( output,
    {
      winner;
      winner_cost;
      arm_costs = List.map (fun (name, _, c) -> (name, c)) named;
      sequential;
    } )

let run ?options ?pool ~cost g = fst (run_ex ?options ?pool ~cost g)
