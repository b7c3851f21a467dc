(* Sanity tests for the experiment list and its shared helpers. *)

module Common = Mortar_experiments.Common
module Registry = Mortar_experiments.Registry

let test_registry_complete () =
  let ids = List.map (fun e -> e.Common.id) Registry.all in
  let expected =
    [ "fig01"; "fig09"; "fig10"; "fig11"; "fig12"; "fig13"; "fig14"; "fig15"; "fig16";
      "fig17"; "fig18" ]
  in
  (* Every figure, in figure order. *)
  Alcotest.(check (list string)) "figures in order" expected
    (List.filter (fun id -> List.mem id expected) ids);
  Alcotest.(check int) "no duplicates" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  (* Every figure of the paper's evaluation is covered, plus ablations. *)
  Alcotest.(check bool) "ablations registered" true
    (List.exists (fun id -> String.length id > 9 && String.sub id 0 9 = "ablation:") ids)

let test_find () =
  Alcotest.(check bool) "find fig12" true (Registry.find "fig12" <> None);
  Alcotest.(check bool) "find unknown" true (Registry.find "fig99" = None)

let test_cells () =
  Alcotest.(check string) "float" "3.14" (Common.cell_f 3.14159);
  Alcotest.(check string) "percent" "97.5%" (Common.cell_pct 0.975)

let test_provenance_plumbing () =
  (* The harness's true-window provenance: with synchronized clocks every
     window's tuples carry their true slot and the majority matches. *)
  let h =
    Mortar_experiments.Harness.create ~hosts:24 ~transits:4 ~stubs:6 ~bf:4 ~window:1.0
      ~track_provenance:true ()
  in
  Mortar_experiments.Harness.run_until h 20.0;
  let prov = Mortar_experiments.Harness.provenance_results h in
  Alcotest.(check bool) "provenance recorded" true (prov <> []);
  (* Steady results should be dominated by a single true slot each. *)
  let late = List.filter (fun (t, _) -> t > 10.0) prov in
  List.iter
    (fun (_, slots) ->
      match slots with
      | [] -> ()
      | _ ->
        let total = List.fold_left (fun a (_, n) -> a + n) 0 slots in
        let best = List.fold_left (fun a (_, n) -> max a n) 0 slots in
        Alcotest.(check bool) "majority in one slot" true
          (float_of_int best >= 0.5 *. float_of_int total))
    late

(* Score: the one per-window completeness tally. Results are generated
   as (emit time, provenance) pairs over a handful of slots so slots
   collide often. *)
module Score = Mortar_experiments.Score

let prov_gen =
  QCheck.Gen.(
    list_size (0 -- 12)
      (pair (map float_of_int (0 -- 50)) (list_size (0 -- 4) (pair (0 -- 7) (0 -- 20)))))

let summary sc =
  List.map
    (fun s -> (s, Score.best sc s, Score.total sc s, Score.first_at sc s))
    (Score.slots sc)

let prop_of_prov_permutation =
  QCheck.Test.make ~name:"score: of_prov invariant under permutation" ~count:200
    (QCheck.make QCheck.Gen.(prov_gen >>= fun p -> map (fun q -> (p, q)) (shuffle_l p)))
    (fun (p, q) -> summary (Score.of_prov p) = summary (Score.of_prov q))

let prop_best_le_total =
  QCheck.Test.make ~name:"score: best <= total" ~count:200 (QCheck.make prov_gen) (fun p ->
      let sc = Score.of_prov p in
      List.for_all (fun s -> Score.best sc s <= Score.total sc s) (Score.slots sc))

let prop_offer_improves =
  QCheck.Test.make ~name:"score: offer true iff first or strictly better" ~count:200
    (QCheck.make QCheck.Gen.(list_size (0 -- 30) (pair (0 -- 5) (0 -- 10))))
    (fun offers ->
      let sc = Score.create () in
      let seen = Hashtbl.create 8 in
      List.for_all
        (fun (slot, n) ->
          let expect =
            match Hashtbl.find_opt seen slot with None -> true | Some b -> n > b
          in
          if expect then Hashtbl.replace seen slot n;
          Score.offer sc ~at:0.0 ~slot n = expect && Score.best sc slot = Hashtbl.find seen slot)
        offers)

let prop_mean_bounds =
  QCheck.Test.make ~name:"score: mean in [0,1], absent = 0, clipped at denom" ~count:200
    (QCheck.make QCheck.Gen.(pair prov_gen (pair (1 -- 30) (list_size (1 -- 10) (0 -- 9)))))
    (fun (p, (denom, slots)) ->
      let sc = Score.of_prov p in
      let m = Score.mean (Score.best sc) ~denom slots in
      let by_hand =
        List.fold_left
          (fun acc s ->
            acc +. (float_of_int (min denom (Score.best sc s)) /. float_of_int denom))
          0.0 slots
        /. float_of_int (List.length slots)
      in
      (* Slot 9 is never offered. *)
      m >= 0.0 && m <= 1.0 && Float.equal m by_hand
      && Score.mean (Score.best sc) ~denom [ 9 ] = 0.0
      && Score.mean (fun _ -> 0) ~denom slots = 0.0
      && Score.mean (fun _ -> denom + 1) ~denom slots = 1.0)

let test_score_cases () =
  Alcotest.(check bool) "empty range is nan" true
    (Float.is_nan (Score.mean (fun _ -> 1) ~denom:1 []));
  let sc = Score.of_prov [ (3.0, [ (1, 4); (2, 6) ]); (5.0, [ (2, 3); (3, 10) ]) ] in
  Alcotest.(check (list int)) "slots" [ 1; 2; 3 ] (Score.slots sc);
  Alcotest.(check int) "best" 6 (Score.best sc 2);
  Alcotest.(check int) "total" 9 (Score.total sc 2);
  Alcotest.(check (option (float 0.0))) "first_at" (Some 3.0) (Score.first_at sc 2);
  Alcotest.(check (option (float 0.0))) "absent first_at" None (Score.first_at sc 4);
  Alcotest.(check int) "absent best" 0 (Score.best sc 4);
  (* A window counted above its publishers is listed, though [mean]
     clamps it to a full window. *)
  Alcotest.(check (list int)) "overcounted" [ 3 ] (Score.overcounted sc ~publishers:8);
  Alcotest.(check (float 1e-9)) "clamped" 1.0 (Score.mean (Score.best sc) ~denom:8 [ 3 ]);
  Alcotest.(check (list int)) "none at the cap" [] (Score.overcounted sc ~publishers:10);
  (* A window still in flight when the run stops must not be averaged
     away: the range whose last slot never arrived scores below the same
     range with that slot delivered. *)
  let delivered = Score.of_prov [ (1.0, [ (1, 8); (2, 8); (3, 8) ]) ] in
  let missing = Score.of_prov [ (1.0, [ (1, 8); (2, 8) ]) ] in
  let range = [ 1; 2; 3 ] in
  Alcotest.(check (float 1e-9)) "delivered" 1.0 (Score.mean (Score.best delivered) ~denom:8 range);
  Alcotest.(check (float 1e-9)) "missing counts 0" (2.0 /. 3.0)
    (Score.mean (Score.best missing) ~denom:8 range)

let tests =
  [
    Alcotest.test_case "registry complete" `Quick test_registry_complete;
    Alcotest.test_case "registry find" `Quick test_find;
    Alcotest.test_case "table cells" `Quick test_cells;
    Alcotest.test_case "provenance plumbing" `Slow test_provenance_plumbing;
    Alcotest.test_case "score cases" `Quick test_score_cases;
    QCheck_alcotest.to_alcotest prop_of_prov_permutation;
    QCheck_alcotest.to_alcotest prop_best_le_total;
    QCheck_alcotest.to_alcotest prop_offer_improves;
    QCheck_alcotest.to_alcotest prop_mean_bounds;
  ]
