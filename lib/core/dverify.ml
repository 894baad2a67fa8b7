type reason = Deadline of float | State_budget of int

type verdict = Safe | Unsafe of counterexample | Undetermined of reason

and counterexample = {
  steps : (int list * Sched.Slot_state.t) list;
  failing : int list;
}

let pp_reason ppf = function
  | Deadline d -> Format.fprintf ppf "wall-clock deadline (%.3fs) exceeded" d
  | State_budget n -> Format.fprintf ppf "state budget (%d) exhausted" n

type stats = {
  states : int;
  transitions : int;
  elapsed : float;
  max_wait : int array;
}

type result = { verdict : verdict; stats : stats }

(* ------------------------------------------------------------------ *)
(* Adversary moves: all subsets of the currently steady applications,
   in every service-relevant arrival order.  The EDF insertion is
   deterministic except among simultaneous arrivals with equal T*_w, so
   only permutations within equal-T*_w groups are enumerated. *)

(* Applications that may legally be disturbed at the coming tick: those
   already steady, plus those whose quiet period expires exactly at the
   tick (the Safe -> Steady transition fires before disturbances are
   admitted, so an arrival at that very instant is admissible — the TA
   model allows it and the discrete engine must too). *)
let disturbable_ids (specs : Sched.Appspec.t array) state =
  let acc = ref [] in
  Array.iteri
    (fun i p ->
      match p with
      | Sched.Slot_state.Steady -> acc := i :: !acc
      | Sched.Slot_state.Safe { age } when age + 1 >= specs.(i).Sched.Appspec.r ->
        acc := i :: !acc
      | Sched.Slot_state.Waiting _ | Running _ | Safe _ | Error -> ())
    state.Sched.Slot_state.phases;
  List.rev !acc

let rec permutations = function
  | [] -> [ [] ]
  | l ->
    List.concat_map
      (fun x ->
        let rest = List.filter (fun y -> y <> x) l in
        List.map (fun p -> x :: p) (permutations rest))
      l

let rec subsets = function
  | [] -> [ [] ]
  | x :: rest ->
    let tails = subsets rest in
    tails @ List.map (fun t -> x :: t) tails

(* arrival orders of [subset] that can produce distinct buffers *)
let arrival_orders (specs : Sched.Appspec.t array) subset =
  let groups = Hashtbl.create 4 in
  List.iter
    (fun id ->
      let key = specs.(id).Sched.Appspec.t_w_max in
      Hashtbl.replace groups key
        (id :: Option.value ~default:[] (Hashtbl.find_opt groups key)))
    subset;
  let keys =
    List.sort_uniq compare (Hashtbl.fold (fun k _ acc -> k :: acc) groups [])
  in
  let per_group = List.map (fun k -> permutations (Hashtbl.find groups k)) keys in
  List.fold_left
    (fun acc perms ->
      List.concat_map (fun prefix -> List.map (fun p -> prefix @ p) perms) acc)
    [ [] ] per_group

(* ------------------------------------------------------------------ *)
(* Generic explorer.  A node is a slot state plus (in bounded mode) the
   per-application remaining disturbance budgets.  With [subsume] on,
   states are pruned by the quiet-age antichain: a state whose [Safe]
   applications are all at least as old in some explored state (with an
   otherwise identical configuration) admits a subset of its behaviours
   and need not be expanded.  The pruning is exact for
   error-reachability. *)

type node = { st : Sched.Slot_state.t; budget : int array }

(* Interchangeable applications: identical timing parameters mean the
   transition relation commutes with any permutation inside the orbit
   (names never influence scheduling, and every arrival order is
   enumerated), so states differing only by such a permutation reach an
   error iff their representative does. *)
let orbit_partition (specs : Sched.Appspec.t array) =
  let same i j =
    let a = specs.(i) and b = specs.(j) in
    a.Sched.Appspec.t_w_max = b.Sched.Appspec.t_w_max
    && a.Sched.Appspec.t_dw_min = b.Sched.Appspec.t_dw_min
    && a.Sched.Appspec.t_dw_max = b.Sched.Appspec.t_dw_max
    && a.Sched.Appspec.r = b.Sched.Appspec.r
  in
  Search.Symmetry.partition ~n:(Array.length specs) ~same

(* With quotienting on, a grant seen for one orbit member stands for the
   permuted grants of every member, so the exact per-application worst
   case is the orbit maximum (constant across the orbit by symmetry). *)
let orbit_max_wait part max_wait =
  Array.iter
    (function
      | [] | [ _ ] -> ()
      | members ->
        let m =
          List.fold_left (fun acc i -> Int.max acc max_wait.(i)) (-1) members
        in
        List.iter (fun i -> max_wait.(i) <- m) members)
    (Search.Symmetry.orbits part)

(* the label of a transition: the adversary's move plus the tick
   outcome the merge loop needs (slot grants for max_wait, fresh
   errors for the verdict) — carrying it on the edge keeps the
   successor function pure *)
type move = {
  disturbed : int list;
  granted : (int * int) list;
  new_errors : int list;
}

let explore_impl ~order ~policy ~subsume ~symmetry ~instances ~deadline
    ~max_states specs =
  let n = Array.length specs in
  let max_wait = Array.make n (-1) in
  let bounded = instances <> None in
  let initial_budget =
    match instances with Some k -> Array.make n k | None -> [||]
  in
  (* in bounded mode, an application with no budget left can never be
     disturbed again, so its quiet countdown is behaviourally inert *)
  let normalize st budget =
    if bounded then
      Sched.Slot_state.force_steady st ~keep_quiet:(fun i -> budget.(i) > 0)
    else st
  in
  let initial =
    { st = Sched.Slot_state.initial specs; budget = initial_budget }
  in
  (* the canonical relabelling of a node, [None] when the node is its
     own representative: within each orbit of identical-parameter
     applications, members are sorted by their full local situation —
     phase (real quiet age included), disturbance budget, position in
     the shared EDF buffer, slot ownership.  Ties are genuinely
     interchangeable (equal phase, equal budget, both outside the
     buffer, neither owning), so the relabelled state is independent of
     which permutation realises it.  Both dedup channels call this once
     per generated successor, in the engine's merge order. *)
  let canon =
    match symmetry with
    | None -> fun _ -> None
    | Some part ->
      fun nd ->
        let st = nd.st in
        let bufpos = Array.make n (-1) in
        List.iteri
          (fun pos id -> bufpos.(id) <- pos)
          st.Sched.Slot_state.buffer;
        let descr i =
          ( st.Sched.Slot_state.phases.(i),
            (if bounded then nd.budget.(i) else 0),
            bufpos.(i),
            st.Sched.Slot_state.owner = Some i )
        in
        let perm = Search.Symmetry.canonical_perm part ~descr in
        if Search.Symmetry.is_identity perm then None
        else begin
          Search.Symmetry.note_collapsed ();
          Some perm
        end
  in
  let permute_state perm st budget =
    let phases' = Array.make n st.Sched.Slot_state.phases.(0) in
    Array.iteri (fun i p -> phases'.(perm.(i)) <- p) st.Sched.Slot_state.phases;
    let buffer' = List.map (fun id -> perm.(id)) st.Sched.Slot_state.buffer in
    let owner' = Option.map (fun id -> perm.(id)) st.Sched.Slot_state.owner in
    let budget' =
      if not bounded then budget
      else begin
        let b = Array.make n 0 in
        Array.iteri (fun i v -> b.(perm.(i)) <- v) budget;
        b
      end
    in
    (phases', buffer', owner', budget')
  in
  let abstract node =
    let perm = canon node in
    let phases, buffer, owner, budget =
      match perm with
      | None ->
        ( node.st.Sched.Slot_state.phases,
          node.st.Sched.Slot_state.buffer,
          node.st.Sched.Slot_state.owner,
          node.budget )
      | Some perm -> permute_state perm node.st node.budget
    in
    let ages = Array.make (Array.length phases) (-1) in
    let masked =
      Array.mapi
        (fun i p ->
          match p with
          | Sched.Slot_state.Safe { age } ->
            ages.(i) <- age;
            Sched.Slot_state.Safe { age = 0 }
          | Sched.Slot_state.Steady | Waiting _ | Running _ | Error -> p)
        phases
    in
    ((masked, buffer, owner, budget), ages)
  in
  let covers explored ages =
    (* [explored] admits every behaviour of [ages]: pointwise at least
       as close to becoming disturbable again *)
    Array.for_all2 (fun e a -> e = a || (a >= 0 && e >= a)) explored ages
  in
  let moves_of node =
    let available =
      let steady = disturbable_ids specs node.st in
      if bounded then List.filter (fun id -> node.budget.(id) > 0) steady
      else steady
    in
    List.concat_map (arrival_orders specs) (subsets available)
  in
  let module Space = Search.Make (struct
    type state = node
    type label = move

    module Key = struct
      type t =
        Sched.Slot_state.phase array * int list * int option * int array

      let equal (a : t) (b : t) = a = b

      (* the default polymorphic hash inspects only ~10 nodes, which
         makes structurally similar scheduler states collide heavily;
         hash deeply (on typed fields — no [Obj] anywhere) *)
      let hash (k : t) = Hashtbl.hash_param 1000 1000 k
    end

    (* dedup key: the state's payload as a plain tuple (equality and
       hash coincide bit-for-bit with the former node-based key), first
       relabelled canonically when the node is not its own orbit
       representative.  [Slot_state.t] is private, so the canonical
       form lives only in the key, never as a state.  (This exact table
       only dedups in [`Bfs] mode; under subsumption the engine runs
       non-exact and [abstract] above carries the quotient.) *)
    let key nd =
      match canon nd with
      | None ->
        ( nd.st.Sched.Slot_state.phases,
          nd.st.Sched.Slot_state.buffer,
          nd.st.Sched.Slot_state.owner,
          nd.budget )
      | Some perm -> permute_state perm nd.st nd.budget

    let successors node =
      List.map
        (fun disturbed ->
          let st', outcome =
            Sched.Slot_state.tick ~policy specs node.st ~disturbed
          in
          let budget' =
            if (not bounded) || disturbed = [] then node.budget
            else begin
              let b = Array.copy node.budget in
              List.iter (fun id -> b.(id) <- b.(id) - 1) disturbed;
              b
            end
          in
          ( {
              disturbed;
              granted = outcome.Sched.Slot_state.granted;
              new_errors = outcome.Sched.Slot_state.new_errors;
            },
            { st = normalize st' budget'; budget = budget' } ))
        (moves_of node)

    let is_target label _ =
      match label with
      | Some m -> m.new_errors <> []
      | None -> false
  end) in
  let coverage =
    if not subsume then None
    else
      Some
        (Space.Coverage
           {
             split = abstract;
             ck_equal = ( = );
             ck_hash = Hashtbl.hash_param 1000 1000;
             covers;
           })
  in
  let r =
    Space.run ~order ~exact:(not subsume) ?coverage ?max_states
      ~max_states_check:`Pop ?deadline ~deadline_mask:1023
      ~target_check:`Generate
      ~on_edge:(fun m _ ->
        List.iter
          (fun (id, wt) -> if wt > max_wait.(id) then max_wait.(id) <- wt)
          m.granted)
      ~initial_peak:0 ~metrics_prefix:"dverify" initial
  in
  let s = r.Space.stats in
  let verdict =
    match r.Space.outcome with
    | Space.Completed -> Safe
    | Space.Found _ ->
      let steps = List.map (fun (m, nd) -> (m.disturbed, nd.st)) r.Space.trace in
      let failing =
        match List.rev r.Space.trace with
        | (m, _) :: _ -> m.new_errors
        | [] -> assert false (* the initial state is never an error *)
      in
      Unsafe { steps; failing }
    | Space.Exhausted (Search.Max_states cap) -> Undetermined (State_budget cap)
    | Space.Exhausted (Search.Deadline d) -> Undetermined (Deadline d)
  in
  if Obs.Trace_ctx.enabled () then begin
    Obs.Metric.count "dverify.prune_hits"
      (s.Search.dedup_hits + s.Search.cover_hits);
    match verdict with
    | Undetermined _ -> Obs.Metric.count "dverify.undetermined" 1
    | Safe | Unsafe _ -> ()
  end;
  {
    verdict;
    stats =
      {
        states = s.Search.states;
        transitions = s.Search.transitions;
        elapsed = s.Search.elapsed;
        max_wait;
      };
  }

let explore ?(order = `Bfs) ~policy ~subsume ~symmetry ~instances
    ?deadline ?max_states specs =
  (match deadline with
   | Some d when d <= 0. -> invalid_arg "Dverify: deadline must be positive"
   | _ -> ());
  (match max_states with
   | Some n when n < 1 -> invalid_arg "Dverify: max_states must be positive"
   | _ -> ());
  let order = match order with `Bfs -> Search.Bfs | `Dfs -> Search.Dfs in
  let part =
    if not symmetry then None
    else
      let p = orbit_partition specs in
      if Search.Symmetry.nontrivial p then Some p else None
  in
  Obs.Span.with_ "dverify" (fun () ->
      let r =
        explore_impl ~order ~policy ~subsume ~symmetry:part ~instances
          ~deadline ~max_states specs
      in
      match (part, r.verdict) with
      | None, _ | Some _, Undetermined _ -> r
      | Some p, Safe ->
        orbit_max_wait p r.stats.max_wait;
        r
      | Some _, Unsafe _ ->
        (* a quotient counterexample is real but may be a permuted twin
           of the one the exact engine reports; re-run without the
           quotient so trace, stats and pretty-printed output stay
           byte-identical to the reference engine *)
        explore_impl ~order ~policy ~subsume ~symmetry:None ~instances
          ~deadline ~max_states specs)

let screen ~policy specs =
  match Sched.Prefilter.decide ~policy specs with
  | Sched.Prefilter.Inconclusive -> None
  | Sched.Prefilter.Analytic_safe ->
    Some
      {
        verdict = Safe;
        stats =
          {
            states = 0;
            transitions = 0;
            elapsed = 0.;
            max_wait = Array.make (Array.length specs) (-1);
          };
      }
  | Sched.Prefilter.Analytic_unsafe w ->
    Some
      {
        verdict =
          Unsafe
            { steps = w.Sched.Prefilter.steps; failing = w.Sched.Prefilter.failing };
        stats =
          {
            states = 0;
            transitions = 0;
            elapsed = 0.;
            max_wait = Array.make (Array.length specs) (-1);
          };
      }

let verify ?order ?(policy = Sched.Slot_state.Eager_preempt)
    ?(mode = `Subsumption) ?(prefilter = false) ?(symmetry = false) ?deadline
    ?max_states specs =
  let exact () =
    match mode with
    | `Bfs ->
      explore ?order ~policy ~subsume:false ~symmetry ~instances:None
        ?deadline ?max_states specs
    | `Subsumption ->
      explore ?order ~policy ~subsume:true ~symmetry ~instances:None
        ?deadline ?max_states specs
  in
  if not prefilter then exact ()
  else match screen ~policy specs with Some r -> r | None -> exact ()

let verify_bounded ?order ?(policy = Sched.Slot_state.Eager_preempt)
    ?(symmetry = false) ?deadline ?max_states ~instances specs =
  if instances < 1 then invalid_arg "Dverify.verify_bounded: instances < 1";
  explore ?order ~policy ~subsume:true ~symmetry
    ~instances:(Some instances) ?deadline ?max_states specs

let pp_counterexample specs ppf (ce : counterexample) =
  Format.fprintf ppf "@[<v>";
  List.iteri
    (fun k (disturbed, st) ->
      let arrivals =
        match disturbed with
        | [] -> ""
        | ids ->
          Printf.sprintf "  <- disturb %s"
            (String.concat ","
               (List.map (fun id -> specs.(id).Sched.Appspec.name) ids))
      in
      Format.fprintf ppf "t=%-3d %a%s@," k (Sched.Slot_state.pp specs) st
        arrivals)
    ce.steps;
  Format.fprintf ppf "miss: %s@]"
    (String.concat ", "
       (List.map (fun id -> specs.(id).Sched.Appspec.name) ce.failing))

let pp_verdict specs ppf = function
  | Safe -> Format.pp_print_string ppf "safe: no application can miss T*_w"
  | Unsafe { failing; steps } ->
    Format.fprintf ppf "unsafe: %s misses T*_w after %d samples"
      (String.concat ", "
         (List.map (fun id -> specs.(id).Sched.Appspec.name) failing))
      (List.length steps)
  | Undetermined reason ->
    Format.fprintf ppf "undetermined: %a" pp_reason reason
