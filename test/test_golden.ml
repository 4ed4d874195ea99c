(* Golden outputs: the md5 of the BLIF that `lookahead_opt opt -j 1
   --time-limit 0 -o FILE` writes, for four tools on three circuits, and
   for lookahead on ripple16, where secondary simplification takes about
   a third of the run. Any change that moves an output fails here. A
   change that moves outputs on purpose regenerates these digests and
   says why in CHANGES.md:

     lookahead_opt opt -c C880 -t dc -j 1 --time-limit 0 -o out.blif
     md5sum out.blif *)

let golden =
  [
    ( Serve.Msg.Adder { kind = "ripple"; bits = 8 },
      [
        ("lookahead", "d9c155355fff0655e1da3b8fefc913d8");
        ("dc", "ba93cd43b9a6e94087c888b581032745");
        ("sis", "84952b6e7e3bf0c0d70329975ea9a0d2");
        ("abc", "81a315c2418a18e13415f01d9028b54e");
      ] );
    ( Serve.Msg.Adder { kind = "ripple"; bits = 16 },
      [ ("lookahead", "80963aead73d968c49f8fca1e05f9811") ] );
    ( Serve.Msg.Named "C880",
      [
        ("lookahead", "449484730fa5d10ac688bc3d8a05fec6");
        ("dc", "58c5b7ad4a8fd9f5bc023687e216ffa9");
        ("sis", "295cb30b850f7b8f53e1c2d8e9d1f10a");
        ("abc", "cdf28a1367afd35ccba15b9dbef3fd4d");
      ] );
    ( Serve.Msg.Named "lsu_stb_ctl_flat",
      [
        ("lookahead", "324932b430cb73ed7f772b599dfd9b8b");
        ("dc", "e7bb3845551bd084a907e81e347e8b55");
        ("sis", "09e8f57d7479b8ddc6870985a3474e44");
        ("abc", "74549c2360fe46cf762c104a2a418a75");
      ] );
  ]

(* The job `opt` runs, with the deadline off and the BLIF requested. *)
let blif_md5 source tool =
  let r =
    Serve.Engine.run_cold
      {
        (Serve.Msg.submit_defaults ~source ~tool) with
        Serve.Msg.time_limit_s = Some 0.0;
        want_blif = true;
      }
  in
  match r.Serve.Msg.blif with
  | Some b -> Digest.to_hex (Digest.string b)
  | None ->
    Alcotest.failf "%s: no BLIF (%s)" tool
      (Option.value r.Serve.Msg.error ~default:"no error")

let () =
  Par.set_default_jobs 1;
  Alcotest.run "golden"
    (List.map
       (fun (source, cells) ->
         ( Serve.Msg.source_name source,
           List.map
             (fun (tool, md5) ->
               Alcotest.test_case tool `Quick (fun () ->
                   Alcotest.(check string) "blif md5" md5 (blif_md5 source tool)))
             cells ))
       golden)
