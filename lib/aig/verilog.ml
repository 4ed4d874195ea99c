let sanitize name =
  let ok c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_' in
  let s = String.map (fun c -> if ok c then c else '_') name in
  if s = "" || (s.[0] >= '0' && s.[0] <= '9') then "s_" ^ s else s

(* Every identifier is the sanitized name, or [<name>_<j>] with the
   first [j] free when an earlier one took it: inputs first, then
   outputs, then the wires of reachable AND nodes. Node names are the
   BLIF writer's ([Io.node_names]), so a default [n<id>] never meets an
   input or output of that name. *)
let write ?(module_name = "circuit") ppf g =
  let open Format in
  let names = Io.node_names g in
  let taken = Hashtbl.create 64 in
  let claim name =
    let s = sanitize name in
    let rec fresh j =
      let c = Printf.sprintf "%s_%d" s j in
      if Hashtbl.mem taken c then fresh (j + 1) else c
    in
    let s = if Hashtbl.mem taken s then fresh 1 else s in
    Hashtbl.replace taken s ();
    s
  in
  let ident = Array.make (Graph.num_nodes g) "" in
  let inputs =
    List.map
      (fun l ->
        let id = Graph.node_of_lit l in
        ident.(id) <- claim (Io.name_of names id);
        ident.(id))
      (Graph.inputs g)
  in
  let outputs = List.map (fun (name, l) -> (claim name, l)) (Graph.outputs g) in
  let reachable = Array.make (Graph.num_nodes g) false in
  let rec mark id =
    if not reachable.(id) then begin
      reachable.(id) <- true;
      if Graph.is_and g id then begin
        mark (Graph.node_of_lit (Graph.fanin0 g id));
        mark (Graph.node_of_lit (Graph.fanin1 g id))
      end
    end
  in
  List.iter (fun (_, l) -> mark (Graph.node_of_lit l)) outputs;
  let wires =
    List.filter
      (fun id -> Graph.is_and g id && reachable.(id))
      (List.init (Graph.num_nodes g) Fun.id)
  in
  List.iter (fun id -> ident.(id) <- claim (Io.name_of names id)) wires;
  let ref_of l =
    if Graph.node_of_lit l = 0 then
      if Graph.is_complemented l then "1'b1" else "1'b0"
    else begin
      let base = ident.(Graph.node_of_lit l) in
      if Graph.is_complemented l then "~" ^ base else base
    end
  in
  fprintf ppf "module %s (@[%s@]);@." (sanitize module_name)
    (String.concat ", " (inputs @ List.map fst outputs));
  List.iter (fun n -> fprintf ppf "  input %s;@." n) inputs;
  List.iter (fun (n, _) -> fprintf ppf "  output %s;@." n) outputs;
  List.iter (fun id -> fprintf ppf "  wire %s;@." ident.(id)) wires;
  List.iter
    (fun id ->
      fprintf ppf "  assign %s = %s & %s;@." ident.(id)
        (ref_of (Graph.fanin0 g id)) (ref_of (Graph.fanin1 g id)))
    wires;
  List.iter (fun (n, l) -> fprintf ppf "  assign %s = %s;@." n (ref_of l)) outputs;
  fprintf ppf "endmodule@."

let to_string ?module_name g =
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  write ?module_name ppf g;
  Format.pp_print_flush ppf ();
  Buffer.contents buf
