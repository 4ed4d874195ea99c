(* The process-wide memos under concurrent domains: the mapper's match
   table and the [Minimize.min_sops] memo. This is its own executable so
   that the match table is still unbuilt when the first test starts, and
   two domains race to build it. *)

module Tt = Logic.Tt

(* Run [f i] on [k] domains released together, and collect the results. *)
let on_domains k f =
  let arrived = Atomic.make 0 in
  let ds =
    List.init k (fun i ->
        Domain.spawn (fun () ->
            Atomic.incr arrived;
            while Atomic.get arrived < k do
              Domain.cpu_relax ()
            done;
            f i))
  in
  List.map Domain.join ds

let test_first_measure_race () =
  let circuit () = Circuits.Adders.carry_select 8 in
  let copies = Array.init 2 (fun _ -> circuit ()) in
  let raced = on_domains 2 (fun i -> Techmap.Eval.measure copies.(i)) in
  let expect = Techmap.Eval.measure (circuit ()) in
  List.iteri
    (fun i (s : Techmap.Eval.summary) ->
      let name what = Printf.sprintf "domain %d %s" i what in
      Alcotest.(check int) (name "cells") expect.cells s.cells;
      Alcotest.(check (float 0.)) (name "area") expect.area s.area;
      Alcotest.(check (float 0.)) (name "delay") expect.delay_ps s.delay_ps;
      Alcotest.(check (float 0.)) (name "power") expect.power_mw s.power_mw)
    raced

let test_min_sops_domains () =
  let st = Random.State.make [| 17 |] in
  let tables =
    Array.init 400 (fun i ->
        let n = 2 + (i mod 7) in
        (* Repeats, so that every domain also hits its memo. *)
        if i >= 200 && i mod 3 = 0 then Tt.random (Random.State.make [| i mod 50 |]) n
        else Tt.random st n)
  in
  let covers order =
    Array.map (fun i -> Logic.Minimize.min_sops tables.(i)) order
  in
  let nt = Array.length tables in
  (* Each domain walks the shared list from a different offset. *)
  let order k = Array.init nt (fun i -> (i + (k * nt / 3)) mod nt) in
  let raced = on_domains 3 (fun k -> (order k, covers (order k))) in
  let expect = covers (Array.init nt Fun.id) in
  List.iter
    (fun (ord, got) ->
      Array.iteri
        (fun j i ->
          if got.(j) <> expect.(i) then
            Alcotest.failf "table %d (%s): covers differ from the sequential run" i
              (Tt.to_hex tables.(i)))
        ord)
    raced

let () =
  Alcotest.run "domains"
    [
      ( "memos",
        [
          (* Must stay first: it needs the match table unbuilt. *)
          Alcotest.test_case "first mapper calls race" `Quick test_first_measure_race;
          Alcotest.test_case "min_sops on three domains" `Quick test_min_sops_domains;
        ] );
    ]
