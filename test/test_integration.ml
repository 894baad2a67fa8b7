(* End-to-end integration: the full pipeline of the paper on the real
   case study — dwell tables -> first-fit mapping driven by model
   checking -> co-simulation of the mapped slots -> baseline
   comparison.  These are the headline claims of Sec. 5. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let apps =
  lazy
    (List.map
       (fun (a : Casestudy.app) ->
         Core.App.make ~name:a.Casestudy.name ~plant:a.Casestudy.plant
           ~gains:a.Casestudy.gains ~r:a.Casestudy.r ~j_star:a.Casestudy.j_star
           ())
       Casestudy.all)

let names_of slot = List.map (fun a -> a.Core.App.name) slot.Core.Mapping.apps

let mapping = lazy (Core.Mapping.first_fit (Lazy.force apps))

let find_app name =
  List.find (fun a -> String.equal a.Core.App.name name) (Lazy.force apps)

let test_sort_order_matches_paper () =
  let order = List.map (fun a -> a.Core.App.name) (Core.Mapping.sort_order (Lazy.force apps)) in
  check_bool "paper order" true
    (order = [ "C1"; "C5"; "C4"; "C6"; "C2"; "C3" ])

let test_mapping_two_slots_paper_partition () =
  let o = Lazy.force mapping in
  check_int "two slots" 2 (List.length o.Core.Mapping.slots);
  match o.Core.Mapping.slots with
  | [ s1; s2 ] ->
    check_bool "S1" true (names_of s1 = [ "C1"; "C5"; "C4"; "C3" ]);
    check_bool "S2" true (names_of s2 = [ "C6"; "C2" ])
  | _ -> Alcotest.fail "expected two slots"

let test_paper_groups_verify_safe () =
  List.iter
    (fun group_names ->
      let group = List.map find_app group_names in
      let specs = Core.Mapping.specs_of_group group in
      match (Core.Dverify.verify specs).Core.Dverify.verdict with
      | Core.Dverify.Safe -> ()
      | Core.Dverify.Unsafe _ | Core.Dverify.Undetermined _ ->
        Alcotest.fail (String.concat "," group_names ^ " must be safe"))
    Casestudy.paper_slot_partition

let test_s1_all_engines_agree_safe () =
  let group = List.map find_app [ "C1"; "C5"; "C4"; "C3" ] in
  let specs = Core.Mapping.specs_of_group group in
  let sub =
    match (Core.Dverify.verify specs).Core.Dverify.verdict with
    | Core.Dverify.Safe -> true
    | Core.Dverify.Unsafe _ | Core.Dverify.Undetermined _ -> false
  in
  let bounded =
    match
      (Core.Dverify.verify_bounded ~instances:1 specs).Core.Dverify.verdict
    with
    | Core.Dverify.Safe -> true
    | Core.Dverify.Unsafe _ | Core.Dverify.Undetermined _ -> false
  in
  check_bool "subsumption safe" true sub;
  check_bool "bounded safe" true bounded

let test_five_apps_on_one_slot_unsafe () =
  (* the first-fit run rejected C6 on S1: check that directly *)
  let group = List.map find_app [ "C1"; "C5"; "C4"; "C6" ] in
  let specs = Core.Mapping.specs_of_group group in
  match (Core.Dverify.verify specs).Core.Dverify.verdict with
  | Core.Dverify.Unsafe ce ->
    check_bool "counterexample nonempty" true (ce.Core.Dverify.steps <> [])
  | Core.Dverify.Safe -> Alcotest.fail "C6 must not fit on S1"
  | Core.Dverify.Undetermined _ -> Alcotest.fail "must decide"

let test_baseline_needs_four_slots () =
  let specs =
    List.mapi
      (fun i (a : Casestudy.app) ->
        let bp =
          Core.Baseline_params.compute a.Casestudy.plant a.Casestudy.gains
            ~j_star:a.Casestudy.j_star
        in
        Core.Baseline_params.to_spec ~id:i ~name:a.Casestudy.name
          ~r:a.Casestudy.r bp)
      Casestudy.all
  in
  let order = [ "C1"; "C5"; "C4"; "C6"; "C2"; "C3" ] in
  let sorted =
    List.map
      (fun n -> List.find (fun s -> String.equal s.Sched.Baseline.name n) specs)
      order
  in
  List.iter
    (fun strat ->
      let slots = Sched.Baseline.first_fit strat sorted in
      check_int "four slots" 4 (List.length slots))
    [ Sched.Baseline.Dm; Sched.Baseline.Delayed ]

(* ------------------------------------------------------------------ *)
(* Fig. 8: simultaneous disturbance on S1 *)

let fig8 =
  lazy
    (let s1 = List.map find_app [ "C1"; "C5"; "C4"; "C3" ] in
     let sc =
       Cosim.Scenario.make ~apps:s1
         ~disturbances:[ (0, "C1"); (0, "C3"); (0, "C4"); (0, "C5") ]
         ~horizon:60
     in
     (s1, Cosim.Engine.run sc))

let test_fig8_all_meet_requirements () =
  let s1, tr = Lazy.force fig8 in
  check_bool "all meet J*" true (Cosim.Trace.meets_requirements tr s1)

let test_fig8_service_order_and_preemption () =
  let _, tr = Lazy.force fig8 in
  (* grant order by EDF slack: C1 (11) then C5/C4 (12) then C3 (15) *)
  let intervals = Cosim.Trace.owner_intervals tr in
  let order = List.map (fun (id, _, _) -> tr.Cosim.Trace.names.(id)) intervals in
  check_bool "C1 first" true (List.nth order 0 = "C1");
  check_bool "C3 last" true (List.nth order 3 = "C3");
  (* slot is handed over back-to-back with no idle gap *)
  let rec contiguous = function
    | (_, _, b) :: ((_, a', _) :: _ as rest) -> a' = b + 1 && contiguous rest
    | [ _ ] | [] -> true
  in
  check_bool "no idle gaps" true (contiguous intervals)

let test_fig8_c3_unpreempted_dwell () =
  (* C3 is served last: nobody left to preempt it, so it keeps the slot
     for its full T+_dw *)
  let s1, tr = Lazy.force fig8 in
  let c3 = List.find (fun a -> a.Core.App.name = "C3") s1 in
  let id = 3 in
  let wait =
    match Cosim.Trace.owner_intervals tr with
    | _ :: _ ->
      (match List.find_opt (fun (i, _, _) -> i = id) (Cosim.Trace.owner_intervals tr) with
       | Some (_, first, _) -> first
       | None -> Alcotest.fail "C3 never served")
    | [] -> Alcotest.fail "no intervals"
  in
  let expected = c3.Core.App.table.Core.Dwell.t_dw_max.(wait) in
  check_int "C3 dwell = T+dw" expected (Cosim.Trace.tt_samples tr ~id)

let test_fig8_others_preempted_at_min () =
  let s1, tr = Lazy.force fig8 in
  List.iteri
    (fun id (a : Core.App.t) ->
      if not (String.equal a.Core.App.name "C3") then begin
        let first =
          match List.find_opt (fun (i, _, _) -> i = id) (Cosim.Trace.owner_intervals tr) with
          | Some (_, first, _) -> first
          | None -> Alcotest.fail (a.Core.App.name ^ " never served")
        in
        let expected = a.Core.App.table.Core.Dwell.t_dw_min.(first) in
        check_int (a.Core.App.name ^ " dwell = T-dw") expected
          (Cosim.Trace.tt_samples tr ~id)
      end)
    s1

(* ------------------------------------------------------------------ *)
(* Fig. 9: C2 disturbed at 0, C6 ten samples later *)

let fig9 =
  lazy
    (let s2 = List.map find_app [ "C6"; "C2" ] in
     let sc =
       Cosim.Scenario.make ~apps:s2
         ~disturbances:[ (0, "C2"); (10, "C6") ]
         ~horizon:60
     in
     (s2, Cosim.Engine.run sc))

let test_fig9_requirements_and_no_preemption () =
  let s2, tr = Lazy.force fig9 in
  check_bool "both meet J*" true (Cosim.Trace.meets_requirements tr s2);
  (* neither is preempted: each achieves its dedicated-slot settling *)
  let c2 = Cosim.Trace.settling_after tr ~id:1 ~sample:0 in
  let c6 = Cosim.Trace.settling_after tr ~id:0 ~sample:10 in
  let jt name =
    (find_app name).Core.App.table.Core.Dwell.jt
  in
  check_bool "C2 reaches JT" true (c2 = Some (jt "C2"));
  check_bool "C6 reaches JT" true (c6 = Some (jt "C6"))

let test_fig9_c2_tt_usage_below_baseline () =
  (* the paper: C2 reaches J_T with ~10 TT samples where the baseline
     holds the slot for 15 *)
  let _, tr = Lazy.force fig9 in
  let used = Cosim.Trace.tt_samples tr ~id:1 in
  check_bool "close to the paper's 10" true (abs (used - 10) <= 1);
  let c2 = Casestudy.find "C2" in
  let bp =
    Core.Baseline_params.compute c2.Casestudy.plant c2.Casestudy.gains
      ~j_star:c2.Casestudy.j_star
  in
  check_bool "baseline occupies more" true (bp.Core.Baseline_params.c_occ > used)

(* ------------------------------------------------------------------ *)
(* The paper's UPPAAL-simulate-then-MATLAB flow: the schedule obtained
   by simulating the TA network must equal the executable arbiter's *)

let test_ta_simulation_matches_arbiter () =
  let s1 = List.map find_app [ "C1"; "C5"; "C4"; "C3" ] in
  let specs = Core.Mapping.specs_of_group s1 in
  let scenarios =
    [
      [ (0, 0); (0, 1); (0, 2); (0, 3) ];
      [ (0, 1); (3, 0); (5, 2) ];
      [ (2, 3); (2, 2); (10, 0); (55, 3) ];
      [];
    ]
  in
  List.iter
    (fun disturbances ->
      let horizon = 70 in
      let ta = Ta_schedule.owner_trace specs ~disturbances ~horizon in
      let arb = Sched.Arbiter.create specs in
      Sched.Arbiter.run arb ~horizon ~disturbances;
      check_bool "schedules equal" true (ta = Sched.Arbiter.owner_trace arb))
    scenarios

let test_ta_simulation_detects_miss () =
  (* drive an unsafe pair into a deadline miss: the TA simulation must
     report Error_reached *)
  let tight k =
    Sched.Appspec.make ~id:k ~name:(Printf.sprintf "T%d" k) ~t_w_max:1
      ~t_dw_min:[| 3; 3 |] ~t_dw_max:[| 4; 4 |] ~r:20
  in
  let specs = [| tight 0; tight 1 |] in
  check_bool "miss detected" true
    (try
       ignore
         (Ta_schedule.owner_trace specs
            ~disturbances:[ (0, 0); (0, 1) ]
            ~horizon:20);
       false
     with Ta_schedule.Error_reached _ -> true)

let () =
  Alcotest.run "integration"
    [
      ( "mapping",
        [
          Alcotest.test_case "sort order" `Quick test_sort_order_matches_paper;
          Alcotest.test_case "two slots, paper partition" `Quick
            test_mapping_two_slots_paper_partition;
          Alcotest.test_case "paper groups safe" `Quick test_paper_groups_verify_safe;
          Alcotest.test_case "engines agree on S1" `Quick test_s1_all_engines_agree_safe;
          Alcotest.test_case "C6 rejected from S1" `Quick test_five_apps_on_one_slot_unsafe;
          Alcotest.test_case "baseline needs 4 slots" `Quick test_baseline_needs_four_slots;
        ] );
      ( "fig8",
        [
          Alcotest.test_case "requirements met" `Quick test_fig8_all_meet_requirements;
          Alcotest.test_case "service order" `Quick test_fig8_service_order_and_preemption;
          Alcotest.test_case "C3 full dwell" `Quick test_fig8_c3_unpreempted_dwell;
          Alcotest.test_case "others preempted at min" `Quick test_fig8_others_preempted_at_min;
        ] );
      ( "fig9",
        [
          Alcotest.test_case "requirements, no preemption" `Quick
            test_fig9_requirements_and_no_preemption;
          Alcotest.test_case "C2 TT usage below baseline" `Quick
            test_fig9_c2_tt_usage_below_baseline;
        ] );
      ( "ta simulation",
        [
          Alcotest.test_case "matches arbiter" `Quick test_ta_simulation_matches_arbiter;
          Alcotest.test_case "detects deadline miss" `Quick test_ta_simulation_detects_miss;
        ] );
    ]
