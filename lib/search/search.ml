type budget_reason = Max_states of int | Deadline of float

type stats = {
  states : int;
  transitions : int;
  elapsed : float;
  waiting_peak : int;
  dedup_hits : int;
  cover_hits : int;
}

type order = Bfs | Dfs

module type STATE_SPACE = sig
  type state
  type label

  module Key : Hashtbl.HashedType

  val key : state -> Key.t
  val successors : state -> (label * state) list
  val is_target : label option -> state -> bool
end

(* A chained hash table whose equality and hash are runtime values, so
   the coverage antichain can be keyed by an existentially-typed group
   key without a functor application per client. *)
module Ht = struct
  type ('k, 'v) t = {
    equal : 'k -> 'k -> bool;
    hash : 'k -> int;
    mutable buckets : ('k * 'v) list array;
    mutable size : int;
  }

  let create ~equal ~hash n =
    { equal; hash; buckets = Array.make (Int.max 16 n) []; size = 0 }

  let index t k = t.hash k land max_int mod Array.length t.buckets

  let find_opt t k =
    let rec go = function
      | [] -> None
      | (k', v) :: rest -> if t.equal k k' then Some v else go rest
    in
    go t.buckets.(index t k)

  let grow t =
    let old = t.buckets in
    t.buckets <- Array.make (2 * Array.length old) [];
    Array.iter
      (List.iter (fun ((k, _) as cell) ->
           let i = index t k in
           t.buckets.(i) <- cell :: t.buckets.(i)))
      old

  let replace t k v =
    let i = index t k in
    let bucket = t.buckets.(i) in
    if List.exists (fun (k', _) -> t.equal k k') bucket then
      t.buckets.(i) <-
        (k, v) :: List.filter (fun (k', _) -> not (t.equal k k')) bucket
    else begin
      t.buckets.(i) <- (k, v) :: bucket;
      t.size <- t.size + 1;
      if t.size > 2 * Array.length t.buckets then grow t
    end
end

module Make (S : STATE_SPACE) = struct
  type coverage =
    | Coverage : {
        split : S.state -> 'ck * 'abs;
        ck_equal : 'ck -> 'ck -> bool;
        ck_hash : 'ck -> int;
        covers : 'abs -> 'abs -> bool;
      }
        -> coverage

  type outcome =
    | Found of S.state
    | Completed
    | Exhausted of budget_reason

  type result = {
    outcome : outcome;
    stats : stats;
    trace : (S.label * S.state) list;
  }

  module Xt = Hashtbl.Make (S.Key)

  type frontier = Fifo of int Queue.t | Lifo of int Stack.t

  let run ?(order = Bfs) ?(exact = true) ?coverage ?max_states
      ?(max_states_check = `Insert) ?deadline ?(deadline_mask = 255)
      ?(target_check = `Insert) ?on_edge ?on_insert ?(initial_peak = 0)
      ?metrics_prefix ?(heartbeat = 1024) initial =
    let t0 = Obs.Clock.now () in
    (* dense state store: insertion order assigns ids, the parent table
       and the frontier hold ids, never whole structural states *)
    let store = ref (Array.make 1024 initial) in
    let parent = ref (Array.make 1024 None) in
    let nstored = ref 0 in
    let add_state st =
      if !nstored = Array.length !store then begin
        let bigger = Array.make (2 * !nstored) initial in
        Array.blit !store 0 bigger 0 !nstored;
        store := bigger;
        let bigger = Array.make (2 * !nstored) None in
        Array.blit !parent 0 bigger 0 !nstored;
        parent := bigger
      end;
      !store.(!nstored) <- st;
      incr nstored;
      !nstored - 1
    in
    let state_of id = !store.(id) in
    (* dedup: exact table over the client key, then the coverage
       antichain; a query that misses both inserts into both *)
    let xt : unit Xt.t = Xt.create 4096 in
    let dedup_hits = ref 0 and cover_hits = ref 0 in
    let cover_seen =
      Option.map
        (fun (Coverage c) ->
          let tbl = Ht.create ~equal:c.ck_equal ~hash:c.ck_hash 4096 in
          fun st ->
            let k, abs = c.split st in
            let chain = Option.value ~default:[] (Ht.find_opt tbl k) in
            if List.exists (fun e -> c.covers e abs) chain then true
            else begin
              Ht.replace tbl k
                (abs :: List.filter (fun e -> not (c.covers abs e)) chain);
              false
            end)
        coverage
    in
    let seen st =
      if exact then begin
        let k = S.key st in
        if Xt.mem xt k then begin
          incr dedup_hits;
          true
        end
        else
          match cover_seen with
          | Some f when f st ->
            incr cover_hits;
            true
          | Some _ | None ->
            Xt.replace xt k ();
            false
      end
      else
        match cover_seen with
        | Some f when f st ->
          incr cover_hits;
          true
        | Some _ | None -> false
    in
    let frontier =
      match order with
      | Bfs -> Fifo (Queue.create ())
      | Dfs -> Lifo (Stack.create ())
    in
    let fpush id =
      match frontier with Fifo q -> Queue.add id q | Lifo s -> Stack.push id s
    in
    let fpop () =
      match frontier with Fifo q -> Queue.pop q | Lifo s -> Stack.pop s
    in
    let flen () =
      match frontier with Fifo q -> Queue.length q | Lifo s -> Stack.length s
    in
    let waiting_peak = ref initial_peak in
    let states = ref 1 and transitions = ref 0 in
    let found = ref (-1) in
    let exhausted = ref None in
    let pops = ref 0 in
    let engine = match metrics_prefix with Some p -> p | None -> "search" in
    let heartbeat_tick () =
      if !pops mod heartbeat = 0 && Obs.Event.enabled () then begin
        let dt = Obs.Clock.now () -. t0 in
        Obs.Event.emit "search.heartbeat"
          [
            ("engine", Obs.Event.Str engine);
            ("states", Obs.Event.Int !states);
            ("transitions", Obs.Event.Int !transitions);
            ("frontier", Obs.Event.Int (flen ()));
            ("dedup_hits", Obs.Event.Int !dedup_hits);
            ("cover_hits", Obs.Event.Int !cover_hits);
            ( "states_per_sec",
              Obs.Event.Float
                (if dt > 0. then float_of_int !states /. dt else 0.) );
          ]
      end
    in
    let deadline_hit () =
      match deadline with
      | Some d
        when !pops land deadline_mask = 0 && Obs.Clock.now () -. t0 > d ->
        exhausted := Some (Deadline d);
        true
      | _ -> false
    in
    let pop_budget () =
      (match (max_states, max_states_check) with
       | Some cap, `Pop when !states >= cap ->
         exhausted := Some (Max_states cap);
         true
       | _ -> false)
      || deadline_hit ()
    in
    let process parent_id (label, succ) =
      incr transitions;
      (match on_edge with Some f -> f label succ | None -> ());
      if target_check = `Generate && S.is_target (Some label) succ then begin
        let id = add_state succ in
        !parent.(id) <- Some (parent_id, label);
        found := id;
        raise_notrace Exit
      end;
      if not (seen succ) then begin
        let id = add_state succ in
        incr states;
        !parent.(id) <- Some (parent_id, label);
        (match on_insert with Some f -> f succ | None -> ());
        if target_check = `Insert && S.is_target (Some label) succ then begin
          found := id;
          raise_notrace Exit
        end;
        (match (max_states, max_states_check) with
         | Some cap, `Insert when !states >= cap ->
           exhausted := Some (Max_states cap);
           raise_notrace Exit
         | _ -> ());
        fpush id;
        if flen () > !waiting_peak then waiting_peak := flen ()
      end
    in
    (* seed with the initial state (id 0) *)
    let id0 = add_state initial in
    ignore (seen initial);
    (match on_insert with Some f -> f initial | None -> ());
    fpush id0;
    if target_check = `Insert && S.is_target None initial then found := id0;
    (try
       while flen () > 0 && !found < 0 do
         incr pops;
         heartbeat_tick ();
         if pop_budget () then raise_notrace Exit;
         let id = fpop () in
         List.iter (process id) (S.successors (state_of id))
       done
     with Exit -> ());
    let elapsed = Obs.Clock.now () -. t0 in
    (match metrics_prefix with
     | Some p when Obs.Trace_ctx.enabled () ->
       Obs.Metric.count (p ^ ".states") !states;
       Obs.Metric.count (p ^ ".transitions") !transitions;
       Obs.Metric.max_gauge (p ^ ".waiting_peak") (float_of_int !waiting_peak);
       if elapsed > 0. then
         Obs.Metric.max_gauge (p ^ ".states_per_sec")
           (float_of_int !states /. elapsed)
     | Some _ | None -> ());
    let trace =
      if !found < 0 then []
      else begin
        let rec walk id acc =
          match !parent.(id) with
          | None -> acc
          | Some (pid, label) -> walk pid ((label, state_of id) :: acc)
        in
        walk !found []
      end
    in
    let outcome =
      if !found >= 0 then Found (state_of !found)
      else match !exhausted with Some r -> Exhausted r | None -> Completed
    in
    (* Always emitted (not pop-gated) so even a tiny run leaves at
       least one event in the stream. *)
    Obs.Event.emit "search.done"
      [
        ("engine", Obs.Event.Str engine);
        ( "outcome",
          Obs.Event.Str
            (match outcome with
             | Found _ -> "found"
             | Completed -> "completed"
             | Exhausted (Max_states _) -> "max_states"
             | Exhausted (Deadline _) -> "deadline") );
        ("states", Obs.Event.Int !states);
        ("transitions", Obs.Event.Int !transitions);
        ("dedup_hits", Obs.Event.Int !dedup_hits);
        ("cover_hits", Obs.Event.Int !cover_hits);
        ("elapsed_s", Obs.Event.Float elapsed);
      ];
    {
      outcome;
      stats =
        {
          states = !states;
          transitions = !transitions;
          elapsed;
          waiting_peak = !waiting_peak;
          dedup_hits = !dedup_hits;
          cover_hits = !cover_hits;
        };
      trace;
    }
end

(* sibling module re-exported through the library's root: the engine
   itself is symmetry-agnostic (clients canonicalise in [key]), but the
   orbit machinery belongs with the search layer *)
module Symmetry = Symmetry
