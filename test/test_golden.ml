(* Golden outputs: the md5 of the BLIF that `lookahead_opt opt -j 1
   --time-limit 0 -o FILE` writes, for four tools on three circuits, for
   lookahead on ripple16, where secondary simplification takes about a
   third of the run, and for `none` on the three adders of the served
   mix's tiny jobs. Each also pins the job's `Eval.measure` figures:
   cells, and area, delay and power to the last bit. Any change that
   moves an output fails here. A change that moves outputs on purpose
   regenerates these pins and says why in CHANGES.md:

     lookahead_opt opt -c C880 -t dc -j 1 --time-limit 0 -o out.blif
     md5sum out.blif

   The figures are the job's metrics as `Serve.Engine.run_cold` returns
   them, printed with `%h`.

   C880 x lookahead and lsu_stb_ctl_flat x lookahead/dc/abc were
   regenerated when the SAT sweep moved onto the fraig engine that
   checks every miter (it merges more; no output got deeper). *)

let golden =
  [
    ( Serve.Msg.Adder { kind = "ripple"; bits = 8 },
      [
        ("lookahead", "d9c155355fff0655e1da3b8fefc913d8",
         "cells=273 area=0x1.db9999999997cp+8 delay=0x1.a6a3d70a3d70bp+7 power=0x1.85049c00d1b7p-3");
        ("dc", "ba93cd43b9a6e94087c888b581032745",
         "cells=130 area=0x1.c23333333333fp+7 delay=0x1.4a1eb851eb852p+7 power=0x1.833864d6a161bp-4");
        ("sis", "84952b6e7e3bf0c0d70329975ea9a0d2",
         "cells=146 area=0x1.ff66666666677p+7 delay=0x1.8fp+7 power=0x1.cb6c37bcd35aap-4");
        ("abc", "81a315c2418a18e13415f01d9028b54e",
         "cells=81 area=0x1.2b00000000004p+7 delay=0x1.098f5c28f5c29p+8 power=0x1.0024e50b0f27dp-4");
      ] );
    ( Serve.Msg.Adder { kind = "ripple"; bits = 16 },
      [
        ("lookahead", "80963aead73d968c49f8fca1e05f9811",
         "cells=1060 area=0x1.dd79999999a1ep+10 delay=0x1.4dbd70a3d70a4p+8 power=0x1.8580eec49ba5bp-1");
        ("none", "a5f63e4a02a29a714d414edfd1db0196",
         "cells=161 area=0x1.2de6666666667p+8 delay=0x1.e6d70a3d70a3dp+8 power=0x1.02e14b6e2eb1ep-3");
      ] );
    ( Serve.Msg.Adder { kind = "cla"; bits = 8 },
      [
        ("none", "46757984d60e99d254486e25aee06c6a",
         "cells=167 area=0x1.2100000000002p+8 delay=0x1.9770a3d70a3d8p+7 power=0x1.d2048c154c97fp-4");
      ] );
    ( Serve.Msg.Adder { kind = "select"; bits = 8 },
      [
        ("none", "7b0588c51efcc06e7bd1c791e057058c",
         "cells=136 area=0x1.d80000000000ep+7 delay=0x1.9ce147ae147aep+7 power=0x1.86cc69930be0fp-4");
      ] );
    ( Serve.Msg.Named "C880",
      [
        ("lookahead", "54a74cffe7a25900c6439e7e6df81f1f",
         "cells=332 area=0x1.1dcccccccccb5p+9 delay=0x1.b3ccccccccccdp+7 power=0x1.f40210147ae12p-3");
        ("dc", "58c5b7ad4a8fd9f5bc023687e216ffa9",
         "cells=237 area=0x1.8cfffffffffeep+8 delay=0x1.e79999999999ap+7 power=0x1.6bce3d119ce1p-3");
        ("sis", "295cb30b850f7b8f53e1c2d8e9d1f10a",
         "cells=206 area=0x1.597fffffffffbp+8 delay=0x1.b3d70a3d70a3ep+7 power=0x1.40929c13a92a3p-3");
        ("abc", "cdf28a1367afd35ccba15b9dbef3fd4d",
         "cells=225 area=0x1.7acccccccccc2p+8 delay=0x1.47570a3d70a3dp+8 power=0x1.5bb8c6a305538p-3");
      ] );
    ( Serve.Msg.Named "lsu_stb_ctl_flat",
      [
        ("lookahead", "5bc6f451b2ed00d57b6597b4789ecc4b",
         "cells=620 area=0x1.0039999999977p+10 delay=0x1.755c28f5c28f6p+7 power=0x1.cbf5a87b4a23ap-2");
        ("dc", "a3f3ea85aafceb08853f89ea7019edc7",
         "cells=439 area=0x1.6559999999977p+9 delay=0x1.a75c28f5c28f6p+7 power=0x1.5a1c3447ae143p-2");
        ("sis", "09e8f57d7479b8ddc6870985a3474e44",
         "cells=450 area=0x1.6bccccccccca9p+9 delay=0x1.cae147ae147aep+7 power=0x1.5aa4561cac084p-2");
        ("abc", "419812adb9d856f540622394fe56a95f",
         "cells=451 area=0x1.6c59999999973p+9 delay=0x1.f88f5c28f5c29p+7 power=0x1.5e9f9c487fcc3p-2");
      ] );
  ]

(* The job `opt` runs, with the deadline off and the BLIF requested:
   the md5 of its BLIF and its mapped figures, the floats in hex so
   that a last-bit move shows. *)
let run source tool =
  let r =
    Serve.Engine.run_cold
      {
        (Serve.Msg.submit_defaults ~source ~tool) with
        Serve.Msg.time_limit_s = Some 0.0;
        want_blif = true;
      }
  in
  match (r.Serve.Msg.blif, r.Serve.Msg.metrics) with
  | Some b, Some m ->
    ( Digest.to_hex (Digest.string b),
      Printf.sprintf "cells=%d area=%h delay=%h power=%h" m.Serve.Msg.cells
        m.Serve.Msg.area m.Serve.Msg.delay_ps m.Serve.Msg.power_mw )
  | _ ->
    Alcotest.failf "%s: no BLIF (%s)" tool
      (Option.value r.Serve.Msg.error ~default:"no error")

let () =
  Par.set_default_jobs 1;
  Alcotest.run "golden"
    (List.map
       (fun (source, cells) ->
         ( Serve.Msg.source_name source,
           List.map
             (fun (tool, md5, measure) ->
               Alcotest.test_case tool `Quick (fun () ->
                   let md5', measure' = run source tool in
                   Alcotest.(check string) "blif md5" md5 md5';
                   Alcotest.(check string) "Eval.measure" measure measure'))
             cells ))
       golden)
