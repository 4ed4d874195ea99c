(* Tests of the benchmark's own helpers. *)

module K = Benchkit
module Json = Obs.Json

let feq = Alcotest.float 1e-9
let opt_feq = Alcotest.(option (float 1e-9))

let test_percentile () =
  let xs n = Array.init n (fun i -> float_of_int (n - i)) in
  (* p50 of 1..20 is rank 10 with exactly ten samples above it. *)
  Alcotest.check opt_feq "p50 of 20" (Some 10.) (K.percentile (xs 20) 50);
  Alcotest.check opt_feq "p50 of 19" None (K.percentile (xs 19) 50);
  (* p95 needs 200 samples: rank 190, ten above. *)
  Alcotest.check opt_feq "p95 of 200" (Some 190.) (K.percentile (xs 200) 95);
  Alcotest.check opt_feq "p95 of 199" None (K.percentile (xs 199) 95);
  Alcotest.check opt_feq "empty" None (K.percentile [||] 50);
  Alcotest.check opt_feq "beyond 0" (Some 3.)
    (K.percentile ~beyond:0 [| 3.; 1.; 2. |] 99);
  Alcotest.check opt_feq "median odd" (Some 2.) (K.median [| 3.; 1.; 2. |]);
  Alcotest.check opt_feq "median even" (Some 2.5)
    (K.median [| 4.; 1.; 3.; 2. |])

let test_smooth_percentile () =
  let xs n = Array.init n (fun i -> float_of_int (n - i)) in
  let near what lo hi = function
    | Some v when v >= lo && v <= hi -> ()
    | Some v -> Alcotest.failf "%s: %g outside [%g, %g]" what v lo hi
    | None -> Alcotest.failf "%s: nothing reported" what
  in
  near "p50 of 1..1000" 500. 501. (K.smooth_percentile (xs 1000) 50);
  near "p95 of 1..1000" 949. 952. (K.smooth_percentile (xs 1000) 95);
  near "constant" (7. -. 1e-9) (7. +. 1e-9) (K.smooth_percentile (Array.make 300 7.) 95);
  (* One failed (infinite) sample far above the rank does not leak in. *)
  near "infinite outlier" 249. 252.
    (K.smooth_percentile (Array.append (xs 499) [| infinity |]) 50);
  Alcotest.check opt_feq "p95 of 199" None (K.smooth_percentile (xs 199) 95)

let test_geomean () =
  Alcotest.check feq "2,8" 4. (K.geomean [ 2.; 8. ]);
  Alcotest.check feq "single" 0.5 (K.geomean [ 0.5 ]);
  Alcotest.check feq "1,1,8" 2. (K.geomean [ 1.; 1.; 8. ]);
  Alcotest.check_raises "empty" (Invalid_argument "Benchkit.geomean: empty")
    (fun () -> ignore (K.geomean []));
  Alcotest.check_raises "zero"
    (Invalid_argument "Benchkit.geomean: non-positive value") (fun () ->
      ignore (K.geomean [ 1.; 0. ]))

let event ?(tid = 0) name ts dur =
  Json.Obj
    [ ("name", Json.String name); ("ph", Json.String "X");
      ("ts", Json.Float ts); ("dur", Json.Float dur); ("pid", Json.Int 1);
      ("tid", Json.Int tid) ]

let test_self_time () =
  (* root [0,100] holds a [10,40] (which holds c [20,30]) and b [50,90];
     track 1 holds an unrelated d [5,25] that must not nest under root. *)
  let trace =
    Json.Obj
      [ ("traceEvents",
         Json.List
           [ Json.Obj
               [ ("name", Json.String "thread_name"); ("ph", Json.String "M");
                 ("pid", Json.Int 1); ("tid", Json.Int 0) ];
             event "a" 10. 30.; event "root" 0. 100.; event "c" 20. 10.;
             event "b" 50. 40.; event ~tid:1 "d" 5. 20.; event "b" 95. 5. ]);
        ("displayTimeUnit", Json.String "ms") ]
  in
  (* an Obs trace round-trips through its own printer *)
  let trace = Option.get (Json.of_string (Json.to_string trace)) in
  let named, tracks = K.self_times trace in
  let self n = (List.assoc n named).K.self_s *. 1e6 in
  Alcotest.check feq "root" 25. (self "root");
  Alcotest.check feq "a" 20. (self "a");
  Alcotest.check feq "c" 10. (self "c");
  Alcotest.check feq "b" 45. (self "b");
  Alcotest.check feq "d" 20. (self "d");
  Alcotest.(check int) "b count" 2 (List.assoc "b" named).K.count;
  Alcotest.(check (list (pair int (float 1e-12))))
    "outermost per track" [ (0, 100e-6); (1, 20e-6) ] tracks

let test_self_time_obs () =
  (* A live Obs recording: the outer span's self time excludes the
     inner one, and the per-track total equals the outer duration. *)
  Obs.enable ();
  Obs.reset ();
  let outer = Obs.span "bench_test.outer" and inner = Obs.span "bench_test.inner" in
  Obs.with_span outer (fun () ->
      Obs.with_span inner (fun () -> Unix.sleepf 0.002);
      Unix.sleepf 0.001);
  let trace = Obs.trace_json (Obs.snapshot ()) in
  Obs.disable ();
  let named, tracks = K.self_times trace in
  let s n = (List.assoc n named).K.self_s in
  let total = List.fold_left (fun acc (_, t) -> acc +. t) 0. tracks in
  Alcotest.(check bool) "inner >= 2ms" true (s "bench_test.inner" >= 0.002);
  Alcotest.check (Alcotest.float 1e-9) "self times add up to the root" total
    (s "bench_test.outer" +. s "bench_test.inner")

let test_vmhwm () =
  let status =
    "Name:\tbench\nVmPeak:\t  200000 kB\nVmHWM:\t   53124 kB\nVmRSS:\t  1000 kB\n"
  in
  Alcotest.(check (option int)) "kB" (Some 53124) (K.vmhwm_kb status);
  Alcotest.(check (option int)) "absent" None (K.vmhwm_kb "VmRSS:\t 12 kB\n");
  Alcotest.(check (option int)) "garbled" None (K.vmhwm_kb "VmHWM: lots\n")

let test_flat_report () =
  let report =
    Json.Obj
      [ ("deterministic",
         Json.Obj
           [ ("counters", Json.Obj [ ("x.calls", Json.Int 3) ]);
             ("gauges", Json.Obj [ ("x.peak", Json.Int 9) ]);
             ("histograms",
              Json.Obj
                [ ("x.sizes",
                   Json.Obj
                     [ ("count", Json.Int 2); ("sum", Json.Int 7);
                       ("buckets", Json.Obj []) ]) ]) ]);
        ("runtime", Json.Obj [ ("counters", Json.Obj [ ("y.tasks", Json.Int 4) ]) ]) ]
  in
  Alcotest.(check (list (triple string bool (float 0.))))
    "flattened"
    [ ("x.calls", true, 3.); ("x.peak", false, 9.); ("x.sizes.sum", true, 7.);
      ("x.sizes.count", true, 2.); ("y.tasks", true, 4.) ]
    (List.map (fun (n, a, v) -> (n, a = K.Sum, v)) (K.flat_report report))

let and_blif =
  ".model m\n.inputs a b c\n.outputs y z\n.names a b t\n11 1\n\
   .names t c y\n1- 1\n-1 1\n.names a z\n0 1\n.end\n"

let test_blif_sim () =
  let t = K.Blif.parse and_blif in
  let a = 0b1100L and b = 0b1010L and c = 0b0001L in
  let out = K.Blif.simulate t [| a; b; c |] in
  Alcotest.(check int64) "y = ab + c" 0b1001L out.(0);
  Alcotest.(check int64) "z = !a" (Int64.lognot a) out.(1);
  (* the same functions written as an off-set table, in another order *)
  let alt =
    ".model m\n.inputs a b c\n.outputs y z\n.names a z\n1 0\n\
     .names t c y\n00 0\n.names a b t\n11 1\n"
  in
  Alcotest.(check (option string)) "equivalent" None
    (K.sim_mismatch ~seed:1 ~words:4 and_blif alt);
  let wrong =
    ".model m\n.inputs a b c\n.outputs y z\n.names a b t\n10 1\n\
     .names t c y\n1- 1\n-1 1\n.names a z\n0 1\n.end\n"
  in
  Alcotest.(check bool) "mismatch found" true
    (K.sim_mismatch ~seed:1 ~words:4 and_blif wrong <> None);
  Alcotest.(check bool) "loop rejected" true
    (K.sim_mismatch ~seed:1 ~words:1 and_blif
       ".inputs a b c\n.outputs y z\n.names y t\n1 1\n.names t y\n1 1\n.names a z\n1 1\n"
    <> None)

let () =
  Alcotest.run "benchkit"
    [ ("stats",
       [ Alcotest.test_case "percentile needs ten beyond" `Quick test_percentile;
         Alcotest.test_case "smoothed percentile" `Quick test_smooth_percentile;
         Alcotest.test_case "geometric mean" `Quick test_geomean ]);
      ("trace",
       [ Alcotest.test_case "self time from nested events" `Quick test_self_time;
         Alcotest.test_case "self time of a live Obs trace" `Quick
           test_self_time_obs ]);
      ("proc",
       [ Alcotest.test_case "VmHWM parser" `Quick test_vmhwm;
         Alcotest.test_case "report flattening" `Quick test_flat_report ]);
      ("blif", [ Alcotest.test_case "independent simulator" `Quick test_blif_sim ]) ]
