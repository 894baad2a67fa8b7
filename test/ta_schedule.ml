exception Error_reached of int

let owner_trace (specs : Sched.Appspec.t array) ~disturbances ~horizon =
  let n = Array.length specs in
  List.iter
    (fun (sample, id) ->
      if id < 0 || id >= n then invalid_arg "Ta_schedule: bad id";
      if sample < 0 || sample >= horizon then
        invalid_arg "Ta_schedule: disturbance outside the horizon")
    disturbances;
  let net = Core.Ta_model.build specs in
  let name_of id = specs.(id).Sched.Appspec.name in
  let disturb_label id =
    Printf.sprintf "%s: Steady -> Dist_init" (name_of id)
  in
  let safe_label id = Printf.sprintf "%s: ET_SAFE -> Steady" (name_of id) in
  let error_prefix id = Printf.sprintf "%s: ET_Wait -> Error" (name_of id) in
  let fired = Hashtbl.create 8 in
  (* A deterministic resolution of the model's nondeterminism:
     quiet-period expiries first (they may unlock a scripted
     disturbance at the same instant), then scripted disturbances for
     the current tick, then whatever the committed chains and
     invariants force.  Error edges are never taken voluntarily; their
     enabledness is reported as a deadline miss instead. *)
  let policy (st : Ta.Concrete.state) actions =
    List.iter
      (fun (a : Ta.Concrete.action) ->
        for id = 0 to n - 1 do
          if String.equal a.Ta.Concrete.label (error_prefix id) then
            raise (Error_reached id)
        done)
      actions;
    let not_error (a : Ta.Concrete.action) =
      not
        (List.exists
           (fun id -> String.equal a.Ta.Concrete.label (error_prefix id))
           (List.init n (fun i -> i)))
    in
    let is_safe_expiry (a : Ta.Concrete.action) =
      List.exists
        (fun id -> String.equal a.Ta.Concrete.label (safe_label id))
        (List.init n (fun i -> i))
    in
    let scheduled_now (a : Ta.Concrete.action) =
      (* arbiter sample k <-> registration at TA time k + 1 *)
      List.exists
        (fun (sample, id) ->
          st.Ta.Concrete.time = sample + 1
          && String.equal a.Ta.Concrete.label (disturb_label id)
          && not (Hashtbl.mem fired (sample, id)))
        disturbances
    in
    let is_disturbance (a : Ta.Concrete.action) =
      List.exists
        (fun id -> String.equal a.Ta.Concrete.label (disturb_label id))
        (List.init n (fun i -> i))
    in
    match List.find_opt is_safe_expiry actions with
    | Some a -> Some a
    | None ->
      (match List.find_opt scheduled_now actions with
       | Some a ->
         List.iter
           (fun (sample, id) ->
             if
               st.Ta.Concrete.time = sample + 1
               && String.equal a.Ta.Concrete.label (disturb_label id)
             then Hashtbl.replace fired (sample, id) ())
           disturbances;
         Some a
       | None ->
         let admissible =
           List.filter
             (fun a -> not_error a && not (is_disturbance a))
             actions
         in
         if Ta.Network.delay_forbidden net st.Ta.Concrete.locs
            || not (Ta.Concrete.can_delay net st)
         then (match admissible with [] -> None | a :: _ -> Some a)
         else None)
  in
  let result = Array.make horizon None in
  let observer (st : Ta.Concrete.state) = function
    | Some _ -> ()
    | None ->
      (* a unit delay just covered the interval [time-1, time); it
         corresponds to the arbiter's sample time-2 *)
      let sample = st.Ta.Concrete.time - 2 in
      if sample >= 0 && sample < horizon then begin
        let owner_var = Core.Ta_model.Layout.owner ~n in
        let run_var = Core.Ta_model.Layout.run ~n in
        result.(sample) <-
          (if st.Ta.Concrete.store.(run_var) = 1 then
             Some st.Ta.Concrete.store.(owner_var)
           else None)
      end
  in
  let (_ : Ta.Concrete.state) =
    Ta.Concrete.run net policy ~until:(horizon + 1) observer
  in
  List.iter
    (fun (sample, id) ->
      if not (Hashtbl.mem fired (sample, id)) then
        invalid_arg
          (Printf.sprintf
             "Ta_schedule: disturbance (%d, %s) could not be delivered \
              (application not steady)"
             sample (name_of id)))
    disturbances;
  result
