type report = {
  delay : float;
  arrival : (int * bool, float) Hashtbl.t;
  slack : (int * bool, float) Hashtbl.t;
}

let key (s : Mapper.signal) = (s.Mapper.node, s.Mapper.inverted)

let gate_delay load (g : Mapper.gate) =
  let l = try Hashtbl.find load (key g.Mapper.out) with Not_found -> 0.0 in
  g.Mapper.cell.Library.intrinsic +. (g.Mapper.cell.Library.load_factor *. l)

let analyze n =
  let load = Mapper.loads n in
  let arrival = Mapper.arrivals ~load n in
  let get_arrival s = try Hashtbl.find arrival (key s) with Not_found -> 0.0 in
  let delay =
    List.fold_left
      (fun acc (_, s) -> max acc (get_arrival s))
      0.0 n.Mapper.primary_outputs
  in
  (* Required times backwards: outputs must settle by [delay]. *)
  let required = Hashtbl.create 256 in
  let set_required k v =
    match Hashtbl.find_opt required k with
    | Some prev when prev <= v -> ()
    | _ -> Hashtbl.replace required k v
  in
  List.iter (fun (_, s) -> set_required (key s) delay) n.Mapper.primary_outputs;
  List.iter
    (fun (g : Mapper.gate) ->
      let r =
        match Hashtbl.find_opt required (key g.Mapper.out) with
        | Some r -> r
        | None -> delay
      in
      let d = gate_delay load g in
      Array.iter (fun s -> set_required (key s) (r -. d)) g.Mapper.fanins)
    (List.rev n.Mapper.gates);
  let slack = Hashtbl.create 256 in
  Hashtbl.iter
    (fun k a ->
      let r = match Hashtbl.find_opt required k with Some r -> r | None -> delay in
      Hashtbl.replace slack k (r -. a))
    arrival;
  { delay; arrival; slack }

let critical_path n r =
  let producer = Hashtbl.create 256 in
  List.iter
    (fun (g : Mapper.gate) -> Hashtbl.replace producer (key g.Mapper.out) g)
    n.Mapper.gates;
  let get_arrival s = try Hashtbl.find r.arrival (key s) with Not_found -> 0.0 in
  (* Deepest output, then walk the worst fanin. *)
  let start =
    List.fold_left
      (fun acc (_, s) ->
        match acc with
        | Some best when get_arrival best >= get_arrival s -> acc
        | _ -> Some s)
      None n.Mapper.primary_outputs
  in
  match start with
  | None -> []
  | Some s ->
    let rec walk s acc =
      match Hashtbl.find_opt producer (key s) with
      | None -> acc
      | Some g ->
        let worst =
          Array.fold_left
            (fun acc' f ->
              match acc' with
              | Some best when get_arrival best >= get_arrival f -> acc'
              | _ -> Some f)
            None g.Mapper.fanins
        in
        (match worst with
         | None -> g :: acc
         | Some f -> walk f (g :: acc))
    in
    walk s []

let pp_report ppf (n, r) =
  Format.fprintf ppf "critical path delay: %.1f ps@." r.delay;
  let path = critical_path n r in
  Format.fprintf ppf "worst path (%d gates):@." (List.length path);
  List.iter
    (fun (g : Mapper.gate) ->
      let a =
        try Hashtbl.find r.arrival (key g.Mapper.out) with Not_found -> 0.0
      in
      Format.fprintf ppf "  %-7s -> n%d%s  @@ %.1f ps@."
        g.Mapper.cell.Library.name g.Mapper.out.Mapper.node
        (if g.Mapper.out.Mapper.inverted then "'" else "")
        a)
    path;
  (* Coarse slack histogram. *)
  let buckets = Array.make 5 0 in
  Hashtbl.iter
    (fun _ s ->
      let b =
        if r.delay <= 0.0 then 0
        else
          let frac = s /. r.delay in
          if frac < 0.05 then 0
          else if frac < 0.25 then 1
          else if frac < 0.5 then 2
          else if frac < 0.75 then 3
          else 4
      in
      buckets.(b) <- buckets.(b) + 1)
    r.slack;
  Format.fprintf ppf "slack histogram (critical..relaxed): %d %d %d %d %d@."
    buckets.(0) buckets.(1) buckets.(2) buckets.(3) buckets.(4)
