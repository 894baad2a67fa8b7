type verdict = [ `Safe | `Unsafe | `Undetermined of string ]

type verifier = Sched.Appspec.t array -> verdict

type slot = { index : int; apps : App.t list }

type outcome = { slots : slot list; verifications : int; undetermined : int }

let t_dw_min_star (a : App.t) =
  Array.fold_left Int.max 0 a.App.table.Dwell.t_dw_min

let sort_order apps =
  let key (a : App.t) = (App.t_w_max a, t_dw_min_star a, a.App.name) in
  List.sort (fun a b -> compare (key a) (key b)) apps

let specs_of_group group =
  Array.of_list (List.mapi (fun i a -> App.spec a ~id:i) group)

(* the default verifier parameterised by the engine's frontier order:
   Safe/Unsafe is order-independent, so [`Dfs] only changes the shape
   of the search, never the packing.  Symmetry quotienting is likewise
   verdict-preserving, so enabling it can never change a packing. *)
let ordered_verifier ?(symmetry = false) order specs : verdict =
  match
    (Dverify.verify ~order ~mode:`Subsumption ~symmetry specs).Dverify.verdict
  with
  | Dverify.Safe -> `Safe
  | Dverify.Unsafe _ -> `Unsafe
  | Dverify.Undetermined reason ->
    `Undetermined (Format.asprintf "%a" Dverify.pp_reason reason)

let default_verifier specs = ordered_verifier `Bfs specs

(* the analytic screen as a partial verdict: both sides are sound
   (Prefilter's accept implies engine-Safe, its witness implies
   engine-Unsafe), so substituting a screened verdict for an engine run
   can never change a packing, a verification count or the monotone
   pruning in [optimal] — only skip the exploration.  Screened verdicts
   deliberately bypass the cache: recomputing them is cheaper than a
   table lookup, and they would otherwise crowd the persistent store
   with entries the screen can always regenerate. *)
let analytic_screen specs : verdict option =
  match Sched.Prefilter.decide specs with
  | Sched.Prefilter.Analytic_safe -> Some `Safe
  | Sched.Prefilter.Analytic_unsafe _ -> Some `Unsafe
  | Sched.Prefilter.Inconclusive -> None

(* ------------------------------------------------------------------ *)
(* Content-addressed verdict cache.  The key is a canonical (name-
   sorted) serialisation of the group's timing parameters, so the same
   subset probed again — by the other mapper or by a speculative
   parallel probe — reuses the verdict instead of re-running
   reachability. *)

type cache = verdict Par.Vcache.t

let create_cache ?backing () = Par.Vcache.create ~label:"verdict" ?backing ()
let cache_stats c = (Par.Vcache.hits c + Par.Vcache.disk_hits c, Par.Vcache.misses c)

let fingerprint specs =
  (* Injective canonical key.  The name — the only field an adversary
     (or an unlucky operator) controls — is length-prefixed, so a name
     containing '|', ',' or ';' cannot re-align one group's
     serialisation onto another's: after "<len>:<name>" the remaining
     fields are purely decimal digits, '-', ',' and '|', and the entry
     terminator ';' occurs in none of them, so the whole string parses
     back unambiguously.  (The previous delimiter-joined scheme was
     injectable: name "A|1|3|4|9;B" aliased the two-app group {A, B} —
     see the regression test in test/test_store.ml.) *)
  let ints a = String.concat "," (List.map string_of_int (Array.to_list a)) in
  let entry (s : Sched.Appspec.t) =
    Printf.sprintf "%d:%s|%d|%s|%s|%d"
      (String.length s.Sched.Appspec.name)
      s.Sched.Appspec.name s.Sched.Appspec.t_w_max
      (ints s.Sched.Appspec.t_dw_min)
      (ints s.Sched.Appspec.t_dw_max)
      s.Sched.Appspec.r
  in
  let entries = List.sort compare (List.map entry (Array.to_list specs)) in
  Printf.sprintf "%d;%s" (List.length entries) (String.concat ";" entries)

let apply_verifier ?cache verifier specs =
  match cache with
  | None -> (verifier specs, `Miss)
  | Some c ->
    Par.Vcache.find_or_add' c (fingerprint specs) (fun () -> verifier specs)

(* a probe with its latency and provenance, for the verdict histogram.
   [screen], when present, is consulted ahead of both cache levels and
   the engine *)
let timed_probe ?cache ?screen verifier specs =
  let t0 = Obs.Clock.now () in
  match (match screen with Some s -> s specs | None -> None) with
  | Some v -> (v, Obs.Clock.now () -. t0, `Screen)
  | None ->
    let v, src = apply_verifier ?cache verifier specs in
    (v, Obs.Clock.now () -. t0, (src :> [ `Mem | `Disk | `Miss | `Screen ]))

(* cache hits and analytic screens get their own counters and stay out
   of the latency histogram: a ~0 s table lookup or closed-form test is
   not an engine run, and mixing the two made mapping.verdict_s useless
   for spotting slow groups *)
let probe_metrics dt src =
  if Obs.Trace_ctx.enabled () then begin
    Obs.Metric.count "mapping.model_checks" 1;
    match src with
    | `Miss -> Obs.Metric.observe_value "mapping.verdict_s" dt
    | `Mem | `Disk -> Obs.Metric.count "mapping.cache_hits" 1
    | `Screen -> Obs.Metric.count "mapping.screened" 1
  end

let checked_verdict ?cache ?screen verifier specs =
  let v, dt, src = timed_probe ?cache ?screen verifier specs in
  probe_metrics dt src;
  v

(* one cache-aware safety question with its provenance, for callers
   (the serve layer) that answer requests incrementally and must report
   where each verdict came from.  Prefilter defaults OFF here — the
   one-shot `verify` command runs the engine unscreened, and serve must
   answer byte-identically to it. *)
let probe ?cache ?(prefilter = false) ?(symmetry = true) specs =
  let screen = if prefilter then Some analytic_screen else None in
  let v, dt, src =
    timed_probe ?cache ?screen (ordered_verifier ~symmetry `Bfs) specs
  in
  probe_metrics dt src;
  (v, src)

let first_fit ?cache ?(order = `Bfs) ?verifier ?(prefilter = true)
    ?(symmetry = true) ?(presorted = false) apps =
  (* the screen's soundness argument is tied to the default engine's
     semantics, so a caller-supplied verifier switches it off *)
  let screen =
    match verifier with
    | Some _ -> None
    | None -> if prefilter then Some analytic_screen else None
  in
  let verifier =
    match verifier with Some v -> v | None -> ordered_verifier ~symmetry order
  in
  Obs.Span.with_ "mapping.first_fit" @@ fun () ->
  let pool = Par.Pool.default () in
  let apps = if presorted then apps else sort_order apps in
  let count = ref 0 and undetermined = ref 0 in
  (* account for one *logical* probe — a group the sequential scan
     would have verified.  Cache hits count too: [verifications] stays
     the number of safety questions asked, not engine runs performed,
     so the reported outcome is identical at any jobs count and any
     cache warmth. *)
  let consume (v, dt, src) =
    incr count;
    Obs.Metric.count "mapping.groups_tried" 1;
    probe_metrics dt src;
    (* an undetermined group is conservatively treated as not fitting:
       the mapping only ever packs groups proved safe *)
    match v with
    | `Safe -> true
    | `Unsafe -> false
    | `Undetermined _ ->
      incr undetermined;
      false
  in
  let probe group app =
    timed_probe ?cache ?screen verifier (specs_of_group (group @ [ app ]))
  in
  let place slots app =
    match slots with
    | _ :: _ :: _ when Par.Pool.jobs pool > 1 ->
      (* probe every candidate group of this round concurrently, then
         replay the first-fit scan over the collected verdicts in slot
         order.  Accounting covers exactly the prefix a sequential run
         would have probed; the extra speculative verdicts are
         discarded (and, with a cache, kept for later rounds). *)
      let results = Par.Pool.map_list pool (fun g -> probe g app) slots in
      let rec scan groups results =
        match (groups, results) with
        | [], [] -> None
        | group :: rest, r :: more ->
          if consume r then Some ((group @ [ app ]) :: rest)
          else Option.map (fun t -> group :: t) (scan rest more)
        | _ -> assert false
      in
      (match scan slots results with
       | Some slots -> slots
       | None -> slots @ [ [ app ] ])
    | _ ->
      let rec go = function
        | [] -> None
        | group :: rest ->
          if consume (probe group app) then Some ((group @ [ app ]) :: rest)
          else Option.map (fun r -> group :: r) (go rest)
      in
      (match go slots with Some slots -> slots | None -> slots @ [ [ app ] ])
  in
  let groups = List.fold_left place [] apps in
  {
    slots = List.mapi (fun index apps -> { index; apps }) groups;
    verifications = !count;
    undetermined = !undetermined;
  }

let pp ppf t =
  Format.fprintf ppf "@[<v>%d slot(s), %d verification(s)%s@,%a@]"
    (List.length t.slots) t.verifications
    (if t.undetermined = 0 then ""
     else Printf.sprintf " (%d undetermined, treated unsafe)" t.undetermined)
    (Format.pp_print_list (fun ppf slot ->
         Format.fprintf ppf "S%d: {%s}" (slot.index + 1)
           (String.concat ", " (List.map (fun a -> a.App.name) slot.apps))))
    t.slots

(* ------------------------------------------------------------------ *)
(* Exact minimisation.  Safety of a subset is computed lazily with
   monotone pruning: a subset with an unsafe subset is unsafe without
   calling the verifier.  The minimum partition into safe subsets is a
   DP over bitmasks. *)

let optimal ?cache ?(order = `Bfs) ?verifier ?(prefilter = true)
    ?(symmetry = true) apps =
  let screen =
    match verifier with
    | Some _ -> None
    | None -> if prefilter then Some analytic_screen else None
  in
  let verifier =
    match verifier with Some v -> v | None -> ordered_verifier ~symmetry order
  in
  Obs.Span.with_ "mapping.optimal" @@ fun () ->
  let apps = Array.of_list apps in
  let n = Array.length apps in
  if n = 0 then { slots = []; verifications = 0; undetermined = 0 }
  else if n > 16 then invalid_arg "Mapping.optimal: too many applications"
  else begin
    let full = (1 lsl n) - 1 in
    let members mask =
      List.filter (fun i -> mask land (1 lsl i) <> 0) (List.init n (fun i -> i))
    in
    let count = ref 0 and undetermined = ref 0 in
    let safety = Array.make (full + 1) `Unknown in
    (* memoised, monotone-pruned safety of a subset; an undetermined
       verdict is cached as unsafe — conservative: no group joins a
       slot without a safety proof *)
    let rec safe mask =
      match safety.(mask) with
      | `Safe -> true
      | `Unsafe -> false
      | `Unknown ->
        Obs.Metric.count "mapping.groups_tried" 1;
        let ids = members mask in
        let result =
          if List.length ids <= 1 then true
          else if
            (* monotone pruning: any unsafe strict subset decides it *)
            List.exists
              (fun i ->
                let sub = mask land lnot (1 lsl i) in
                safety.(sub) = `Unsafe
                || (List.length (members sub) > 1 && not (safe sub)))
              ids
          then false
          else begin
            incr count;
            let group = List.map (fun i -> apps.(i)) ids in
            match
              checked_verdict ?cache ?screen verifier (specs_of_group group)
            with
            | `Safe -> true
            | `Unsafe -> false
            | `Undetermined _ ->
              incr undetermined;
              false
          end
        in
        safety.(mask) <- (if result then `Safe else `Unsafe);
        result
    in
    (* DP over bitmasks: fewest safe parts covering [mask] *)
    let best = Array.make (full + 1) max_int in
    let choice = Array.make (full + 1) 0 in
    best.(0) <- 0;
    for mask = 1 to full do
      (* iterate over submasks that contain the lowest set bit (fixing
         one element avoids symmetric permutations) *)
      let low = mask land -mask in
      let sub = ref mask in
      while !sub > 0 do
        if !sub land low <> 0 && safe !sub then begin
          let rest = mask lxor !sub in
          if best.(rest) <> max_int && best.(rest) + 1 < best.(mask) then begin
            best.(mask) <- best.(rest) + 1;
            choice.(mask) <- !sub
          end
        end;
        sub := (!sub - 1) land mask
      done
    done;
    let rec rebuild mask acc =
      if mask = 0 then List.rev acc
      else rebuild (mask lxor choice.(mask)) (members choice.(mask) :: acc)
    in
    let groups = rebuild full [] in
    {
      slots =
        List.mapi
          (fun index ids ->
            { index; apps = List.map (fun i -> apps.(i)) ids })
          groups;
      verifications = !count;
      undetermined = !undetermined;
    }
  end
