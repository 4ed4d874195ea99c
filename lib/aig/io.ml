(* The name each node gets in written text: an input its own name, or
   [pi<k>] when the input at position [k] has none; AND node [id] the
   default [n<id>], marked by [""] in the table. A default that is also
   the name of an input or an output would make the text read back as
   another circuit, so that node takes the first free [<default>_<j>]:
   no default has a ['_'], so this cannot meet another default either.
   Only defaults parsed back from an input or output name can collide,
   so the table is built from those, not from every node's name. *)
let node_names g =
  let names = Array.make (Graph.num_nodes g) "" in
  let taken = Hashtbl.create 64 in
  let unnamed = ref [] in
  List.iteri
    (fun k l ->
      let id = Graph.node_of_lit l in
      match Graph.input_name g id with
      | Some s ->
        names.(id) <- s;
        Hashtbl.replace taken s ()
      | None ->
        names.(id) <- "pi" ^ string_of_int k;
        unnamed := id :: !unnamed)
    (Graph.inputs g);
  List.iter (fun (s, _) -> Hashtbl.replace taken s ()) (Graph.outputs g);
  let rec fresh base j =
    let s = Printf.sprintf "%s_%d" base j in
    if Hashtbl.mem taken s then fresh base (j + 1) else s
  in
  Hashtbl.iter
    (fun s () ->
      if String.length s > 1 && s.[0] = 'n' then
        match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
        | Some id when Graph.is_and g id && "n" ^ string_of_int id = s ->
          names.(id) <- fresh s 1
        | _ -> ())
    taken;
  List.iter
    (fun id -> if Hashtbl.mem taken names.(id) then names.(id) <- fresh names.(id) 1)
    !unnamed;
  names

let name_of names id = if names.(id) = "" then "n" ^ string_of_int id else names.(id)

let rec add_int b i =
  if i >= 10 then add_int b (i / 10);
  Buffer.add_char b (Char.unsafe_chr (48 + (i mod 10)))

let add_name b names id =
  let s = names.(id) in
  if String.length s = 0 then begin
    Buffer.add_char b 'n';
    add_int b id
  end
  else Buffer.add_string b s

let blif_to_string ?(model = "circuit") g =
  let names = node_names g in
  let b = Buffer.create (1024 + (32 * Graph.num_nodes g)) in
  let line s =
    Buffer.add_string b s;
    Buffer.add_char b '\n'
  in
  line (".model " ^ model);
  line
    (".inputs "
    ^ String.concat " "
        (List.map (fun l -> names.(Graph.node_of_lit l)) (Graph.inputs g)));
  line (".outputs " ^ String.concat " " (List.map fst (Graph.outputs g)));
  let fanin l =
    (* Constant fanins cannot occur: [Graph.band] folds them away. *)
    assert (Graph.node_of_lit l <> 0);
    add_name b names (Graph.node_of_lit l);
    Buffer.add_char b ' '
  in
  for id = 1 to Graph.num_nodes g - 1 do
    if Graph.is_and g id then begin
      let f0 = Graph.fanin0 g id and f1 = Graph.fanin1 g id in
      Buffer.add_string b ".names ";
      fanin f0;
      fanin f1;
      add_name b names id;
      Buffer.add_char b '\n';
      Buffer.add_char b (if Graph.is_complemented f0 then '0' else '1');
      Buffer.add_char b (if Graph.is_complemented f1 then '0' else '1');
      Buffer.add_string b " 1\n"
    end
  done;
  List.iter
    (fun (name, l) ->
      let id = Graph.node_of_lit l in
      if id = 0 then begin
        (* Constant output. *)
        line (".names " ^ name);
        if Graph.is_complemented l then line "1"
      end
      else if Graph.is_complemented l || names.(id) <> name then begin
        (* Only an input can share its output's name: an AND node's
           default never does. *)
        Buffer.add_string b ".names ";
        add_name b names id;
        Buffer.add_char b ' ';
        line name;
        line (if Graph.is_complemented l then "0 1" else "1 1")
      end)
    (Graph.outputs g);
  line ".end";
  Buffer.contents b

let tokenize line =
  String.map (function '\t' -> ' ' | c -> c) line
  |> String.split_on_char ' '
  |> List.filter (fun s -> s <> "")

(* Join BLIF continuation lines ending in backslash; strip comments. *)
let logical_lines text =
  let raw = String.split_on_char '\n' text in
  let strip_comment s =
    match String.index_opt s '#' with
    | Some i -> String.sub s 0 i
    | None -> s
  in
  let rec join acc pending = function
    | [] -> List.rev (if pending = "" then acc else pending :: acc)
    | line :: rest ->
      let line = strip_comment line in
      let line = String.trim line in
      if line = "" then join acc pending rest
      else if String.length line > 0 && line.[String.length line - 1] = '\\'
      then
        join acc (pending ^ String.sub line 0 (String.length line - 1) ^ " ") rest
      else join ((pending ^ line) :: acc) "" rest
  in
  join [] "" raw

type blif_names = { inputs : string list; output : string; rows : (string * char) list }

let read_blif text =
  let lines = logical_lines text in
  let inputs = ref [] and outputs = ref [] in
  let tables = ref [] in
  let current = ref None in
  let finish () =
    match !current with
    | Some t -> tables := t :: !tables; current := None
    | None -> ()
  in
  (* A cube row needs one column per table input and a 0/1 output: a
     short row would turn the missing inputs into don't-cares, and any
     other output value would drop the row. *)
  let add_row line pattern out =
    match !current with
    | None -> failwith "blif: cube row outside .names"
    | Some t ->
      let n = List.length t.inputs in
      if String.length pattern <> n then
        failwith
          (Printf.sprintf
             "blif: row %S of %s has %d input column(s), expected %d" line
             t.output (String.length pattern) n);
      if out <> "0" && out <> "1" then
        failwith
          (Printf.sprintf "blif: row %S of %s has output %S, expected 0 or 1"
             line t.output out);
      current := Some { t with rows = (pattern, out.[0]) :: t.rows }
  in
  List.iter
    (fun line ->
      let toks = tokenize line in
      match toks with
      | ".model" :: _ -> ()
      | ".inputs" :: names -> inputs := !inputs @ names
      | ".outputs" :: names -> outputs := !outputs @ names
      | ".names" :: signals ->
        finish ();
        (match List.rev signals with
         | out :: ins_rev ->
           let n = List.length ins_rev in
           if n > 30 then
             failwith
               (Printf.sprintf "blif: .names %s has %d inputs (at most 30)" out n);
           current := Some { inputs = List.rev ins_rev; output = out; rows = [] }
         | [] -> failwith "blif: empty .names")
      | ".latch" :: _ -> failwith "blif: sequential elements unsupported"
      | [ ".end" ] -> finish ()
      | [] -> ()
      | tok :: _ when String.length tok > 0 && tok.[0] = '.' ->
        failwith (Printf.sprintf "blif: unsupported construct %s" tok)
      | [ pattern; out ] -> add_row line pattern out
      (* Constant table row: "1" or "0" with no inputs. *)
      | [ out ] -> add_row line "" out
      | _ -> failwith "blif: malformed line")
    lines;
  finish ();
  let g = Graph.create () in
  let env = Hashtbl.create 64 in
  List.iter (fun n -> Hashtbl.replace env n (Graph.add_input ~name:n g)) !inputs;
  let tables = List.rev !tables in
  let by_output = Hashtbl.create 64 in
  List.iter (fun t -> Hashtbl.replace by_output t.output t) tables;
  let lev = Lev.create g in
  (* Signals whose fanins are being built: meeting one again means a
     combinational loop, which would otherwise recurse forever. *)
  let in_progress = Hashtbl.create 64 in
  let rec build name =
    match Hashtbl.find_opt env name with
    | Some l -> l
    | None ->
      if Hashtbl.mem in_progress name then
        failwith (Printf.sprintf "blif: combinational loop through %s" name);
      let t =
        match Hashtbl.find_opt by_output name with
        | Some t -> t
        | None -> failwith (Printf.sprintf "blif: undriven signal %s" name)
      in
      Hashtbl.replace in_progress name ();
      let fanin_lits = Array.of_list (List.map build t.inputs) in
      Hashtbl.remove in_progress name;
      let n = List.length t.inputs in
      let cube_of pattern =
        let lits = ref [] in
        String.iteri
          (fun i c ->
            match c with
            | '1' -> lits := (i, true) :: !lits
            | '0' -> lits := (i, false) :: !lits
            | '-' -> ()
            | _ -> failwith "blif: bad cube char")
          pattern;
        Logic.Cube.of_literals !lits
      in
      let on_rows = List.filter (fun (_, v) -> v = '1') t.rows in
      let off_rows = List.filter (fun (_, v) -> v = '0') t.rows in
      let l =
        if on_rows <> [] && off_rows <> [] then
          failwith "blif: mixed on/off rows unsupported"
        else if t.rows = [] then Graph.const_false
        else begin
          let rows, polarity =
            if on_rows <> [] then (on_rows, true) else (off_rows, false)
          in
          let sop = Logic.Sop.make n (List.map (fun (p, _) -> cube_of p) rows) in
          let leaf i = fanin_lits.(i) in
          let l = Synth.of_sop g lev sop ~leaf in
          if polarity then l else Graph.bnot l
        end
      in
      Hashtbl.replace env name l;
      l
  in
  List.iter (fun name -> Graph.add_output g name (build name)) !outputs;
  g

let write_bench ppf g =
  let open Format in
  let names = node_names g in
  List.iter
    (fun l -> fprintf ppf "INPUT(%s)@." (name_of names (Graph.node_of_lit l)))
    (Graph.inputs g);
  List.iter (fun (name, _) -> fprintf ppf "OUTPUT(%s)@." name) (Graph.outputs g);
  let emitted_inv = Hashtbl.create 16 in
  let ref_of l =
    let id = Graph.node_of_lit l in
    let base = name_of names id in
    if Graph.is_complemented l then begin
      let nm = base ^ "_bar" in
      if not (Hashtbl.mem emitted_inv nm) then Hashtbl.replace emitted_inv nm base;
      nm
    end
    else base
  in
  let pending = ref [] in
  for id = 1 to Graph.num_nodes g - 1 do
    if Graph.is_and g id then begin
      let f0, f1 = Graph.fanins g id in
      pending := (name_of names id, ref_of f0, ref_of f1) :: !pending
    end
  done;
  (* Resolve output references first so their inverters are recorded before
     the NOT lines are printed (readers do not require ordering, but the
     file should still be self-contained). *)
  let out_lines =
    List.filter_map
      (fun (name, l) ->
        if Graph.node_of_lit l = 0 then
          Some
            (Printf.sprintf "%s = %s" name
               (if Graph.is_complemented l then "VDD" else "GND"))
        else begin
          let src = ref_of l in
          if src <> name then Some (Printf.sprintf "%s = BUFF(%s)" name src)
          else None
        end)
      (Graph.outputs g)
  in
  Hashtbl.iter (fun inv base -> fprintf ppf "%s = NOT(%s)@." inv base) emitted_inv;
  List.iter (fun (n, a, b) -> fprintf ppf "%s = AND(%s, %s)@." n a b) (List.rev !pending);
  List.iter (fun line -> fprintf ppf "%s@." line) out_lines

let read_bench text =
  let lines =
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.filter (fun s -> s <> "" && s.[0] <> '#')
  in
  let inputs = ref [] and outputs = ref [] and gates = Hashtbl.create 64 in
  let parse_call s =
    (* "name = OP(a, b, ...)" *)
    match String.index_opt s '=' with
    | None -> None
    | Some eq ->
      let name = String.trim (String.sub s 0 eq) in
      let rhs = String.trim (String.sub s (eq + 1) (String.length s - eq - 1)) in
      (match String.index_opt rhs '(' with
       | None -> Some (name, String.uppercase_ascii rhs, [])
       | Some p ->
         let op = String.uppercase_ascii (String.trim (String.sub rhs 0 p)) in
         let close = String.rindex rhs ')' in
         let args = String.sub rhs (p + 1) (close - p - 1) in
         let args =
           String.split_on_char ',' args |> List.map String.trim
           |> List.filter (fun s -> s <> "")
         in
         Some (name, op, args))
  in
  List.iter
    (fun line ->
      if String.length line >= 6 && String.sub line 0 6 = "INPUT(" then begin
        let close = String.rindex line ')' in
        inputs := String.trim (String.sub line 6 (close - 6)) :: !inputs
      end
      else if String.length line >= 7 && String.sub line 0 7 = "OUTPUT(" then begin
        let close = String.rindex line ')' in
        outputs := String.trim (String.sub line 7 (close - 7)) :: !outputs
      end
      else
        match parse_call line with
        | Some (name, op, args) -> Hashtbl.replace gates name (op, args)
        | None -> failwith (Printf.sprintf "bench: bad line %s" line))
    lines;
  let g = Graph.create () in
  let env = Hashtbl.create 64 in
  List.iter
    (fun n -> Hashtbl.replace env n (Graph.add_input ~name:n g))
    (List.rev !inputs);
  (* As in [read_blif]: a signal met again while its fanins are being
     built closes a combinational loop. *)
  let in_progress = Hashtbl.create 64 in
  let rec build name =
    match Hashtbl.find_opt env name with
    | Some l -> l
    | None ->
      if Hashtbl.mem in_progress name then
        failwith (Printf.sprintf "bench: combinational loop through %s" name);
      let op, args =
        match Hashtbl.find_opt gates name with
        | Some x -> x
        | None -> failwith (Printf.sprintf "bench: undriven signal %s" name)
      in
      Hashtbl.replace in_progress name ();
      let lits = List.map build args in
      Hashtbl.remove in_progress name;
      let l =
        match (op, lits) with
        | "AND", ls -> Graph.band_list g ls
        | "NAND", ls -> Graph.bnot (Graph.band_list g ls)
        | "OR", ls -> Graph.bor_list g ls
        | "NOR", ls -> Graph.bnot (Graph.bor_list g ls)
        | "XOR", ls -> List.fold_left (Graph.bxor g) Graph.const_false ls
        | "XNOR", ls -> Graph.bnot (List.fold_left (Graph.bxor g) Graph.const_false ls)
        | "NOT", [ a ] -> Graph.bnot a
        | "BUFF", [ a ] | "BUF", [ a ] -> a
        | "VDD", [] -> Graph.const_true
        | "GND", [] -> Graph.const_false
        | _ -> failwith (Printf.sprintf "bench: unsupported gate %s/%d" op (List.length lits))
      in
      Hashtbl.replace env name l;
      l
  in
  List.iter (fun name -> Graph.add_output g name (build name)) (List.rev !outputs);
  g
