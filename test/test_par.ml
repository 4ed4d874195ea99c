(* Tests for the deterministic domain-pool runtime: submission-order
   determinism, exception propagation out of workers, nested submission
   without deadlock, per-worker init, the monotonic deadline, and a
   parallel-vs-sequential bit-identity check of the table1 adder flow. *)

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* Burn a little CPU so scheduling actually interleaves. *)
let spin seed =
  let x = ref seed in
  for _ = 1 to 1000 + (seed mod 997) do
    x := (!x * 1103515245) + 12345
  done;
  !x

let with_pool jobs f =
  let pool = Par.Pool.create ~jobs () in
  Fun.protect ~finally:(fun () -> Par.Pool.shutdown pool) (fun () -> f pool)

(* ------------------------------------------------------------------ *)
(* Determinism                                                         *)
(* ------------------------------------------------------------------ *)

let test_map_order () =
  with_pool 4 (fun pool ->
      let xs = List.init 200 Fun.id in
      let f x =
        ignore (spin x);
        (x * 2) + 1
      in
      let expected = List.map f xs in
      for _ = 1 to 5 do
        Alcotest.(check (list int)) "submission order" expected
          (Par.map_list ~pool f xs)
      done)

let test_map_merge_order () =
  (* merge must run on the calling domain in submission order; building
     a list and a non-associative float sum detects any reordering. *)
  let xs = List.init 300 Fun.id in
  let seq =
    List.fold_left
      (fun (order, sum) x ->
        (x :: order, sum +. (1.0 /. float_of_int (x + 1))))
      ([], 0.0) xs
  in
  List.iter
    (fun jobs ->
      with_pool jobs (fun pool ->
          let par =
            Par.map_merge ~pool
              ~init:(fun () -> ())
              ~f:(fun () x ->
                ignore (spin x);
                1.0 /. float_of_int (x + 1))
              ~merge:(fun (order, sum) x y -> (x :: order, sum +. y))
              ([], 0.0) xs
          in
          Alcotest.(check (list int))
            (Printf.sprintf "merge order at -j %d" jobs)
            (fst seq) (fst par);
          Alcotest.(check (float 0.0))
            (Printf.sprintf "bit-equal merge sum at -j %d" jobs)
            (snd seq) (snd par)))
    [ 1; 2; 4 ]

let prop_map_matches_sequential =
  qtest "Par.map = List.map (any pool size)"
    QCheck.(pair (int_range 1 6) (small_list small_int))
    (fun (jobs, xs) ->
      let f x = spin x land 0xffff in
      with_pool jobs (fun pool -> Par.map_list ~pool f xs = List.map f xs))

(* ------------------------------------------------------------------ *)
(* Exceptions                                                          *)
(* ------------------------------------------------------------------ *)

exception Boom of int

let test_exception_propagation () =
  with_pool 3 (fun pool ->
      let fut = Par.submit pool (fun () -> raise (Boom 42)) in
      (match Par.await fut with
       | _ -> Alcotest.fail "expected Boom"
       | exception Boom n -> Alcotest.(check int) "payload" 42 n);
      (* The pool survives a failed job. *)
      Alcotest.(check int) "pool still works" 7
        (Par.await (Par.submit pool (fun () -> 7)));
      match
        Par.map_list ~pool
          (fun x -> if x = 5 then raise (Boom x) else x)
          [ 1; 2; 5; 9 ]
      with
      | _ -> Alcotest.fail "expected Boom from map"
      | exception Boom n -> Alcotest.(check int) "map payload" 5 n)

(* ------------------------------------------------------------------ *)
(* Nested submission                                                   *)
(* ------------------------------------------------------------------ *)

let nested_sum pool i =
  let inner = Par.map_list ~pool (fun j -> (i * 10) + j) [ 0; 1; 2 ] in
  List.fold_left ( + ) 0 inner

let test_nested_no_deadlock () =
  (* Jobs submit sub-jobs to the same pool and await them; the helping
     await must execute queued work instead of blocking, even when the
     pool is smaller than the live await chain. *)
  List.iter
    (fun jobs ->
      with_pool jobs (fun pool ->
          let outer =
            Par.map_list ~pool (fun i -> nested_sum pool i) (List.init 8 Fun.id)
          in
          Alcotest.(check (list int))
            (Printf.sprintf "nested at %d job(s)" jobs)
            (List.init 8 (fun i -> (i * 30) + 3))
            outer))
    [ 1; 2; 4 ]

let test_deeply_nested () =
  with_pool 2 (fun pool ->
      let rec tree depth =
        if depth = 0 then 1
        else
          let kids = Par.map_list ~pool (fun _ -> tree (depth - 1)) [ (); () ] in
          List.fold_left ( + ) 0 kids
      in
      Alcotest.(check int) "2^5 leaves" 32 (tree 5))

(* ------------------------------------------------------------------ *)
(* Per-worker init                                                     *)
(* ------------------------------------------------------------------ *)

let test_init_per_worker () =
  let jobs = 3 in
  with_pool jobs (fun pool ->
      let inits = Atomic.make 0 in
      let results =
        Par.map ~pool
          ~init:(fun () ->
            Atomic.incr inits;
            Buffer.create 16)
          ~f:(fun buf x ->
            (* The context is privately mutable per worker. *)
            Buffer.clear buf;
            Buffer.add_string buf (string_of_int x);
            int_of_string (Buffer.contents buf) * 3)
          (List.init 50 Fun.id)
      in
      Alcotest.(check (list int)) "results" (List.init 50 (fun x -> x * 3))
        results;
      (* At most one init per worker domain: jobs - 1 spawned workers
         plus the helping caller. *)
      Alcotest.(check bool) "init calls bounded by pool size" true
        (Atomic.get inits >= 1 && Atomic.get inits <= jobs))

(* ------------------------------------------------------------------ *)
(* Deadline                                                            *)
(* ------------------------------------------------------------------ *)

let test_deadline () =
  let d = Guard.Deadline.after 0.05 in
  Alcotest.(check bool) "fresh deadline not expired" false
    (Guard.Deadline.expired d);
  Alcotest.(check bool) "remaining positive" true
    (Guard.Deadline.remaining_s d > 0.0);
  let stop = Obs.Clock.now_s () +. 0.08 in
  while Obs.Clock.now_s () < stop do
    ignore (spin 1)
  done;
  Alcotest.(check bool) "expired after sleeping past it" true
    (Guard.Deadline.expired d);
  Alcotest.(check bool) "never never expires" false
    (Guard.Deadline.expired Guard.Deadline.never);
  Alcotest.(check bool) "never has infinite slack" true
    (Guard.Deadline.remaining_s Guard.Deadline.never = infinity)

(* ------------------------------------------------------------------ *)
(* Parallel vs sequential bit-identity of the table1 adder flow        *)
(* ------------------------------------------------------------------ *)

let optimize_at jobs n =
  Par.set_default_jobs jobs;
  Fun.protect
    ~finally:(fun () -> Par.set_default_jobs 0)
    (fun () ->
      let g = Lookahead.optimize (Circuits.Adders.ripple_carry n) in
      Aig.Io.blif_to_string ~model:"adder" g)

let test_table1_bit_identity () =
  List.iter
    (fun n ->
      let seq = optimize_at 1 n in
      let par = optimize_at 4 n in
      Alcotest.(check string)
        (Printf.sprintf "ripple:%d identical at -j1/-j4" n)
        seq par)
    [ 4; 8 ]

let () =
  Alcotest.run "par"
    [
      ( "determinism",
        [
          Alcotest.test_case "map submission order" `Quick test_map_order;
          Alcotest.test_case "map_merge merge order" `Quick
            test_map_merge_order;
          prop_map_matches_sequential;
        ] );
      ( "exceptions",
        [
          Alcotest.test_case "propagate out of workers" `Quick
            test_exception_propagation;
        ] );
      ( "nesting",
        [
          Alcotest.test_case "nested submission" `Quick test_nested_no_deadlock;
          Alcotest.test_case "deep nesting" `Quick test_deeply_nested;
        ] );
      ( "state",
        [ Alcotest.test_case "per-worker init" `Quick test_init_per_worker ] );
      ("deadline", [ Alcotest.test_case "monotonic deadline" `Quick test_deadline ]);
      ( "lookahead",
        [
          Alcotest.test_case "adder optimize identical at -j1/-j4" `Slow
            test_table1_bit_identity;
        ] );
    ]
