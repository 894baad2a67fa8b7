(* Per-layer rollup of the spans a traced run collects.

   A span's parent is the one recorded by Obs when both ran on the same
   domain.  Spans started on another domain (the in-process daemon, pool
   workers) have none; they are attached to the innermost span of any
   domain whose interval contains theirs.  A span's self time is its
   duration minus the part of it covered by the union of its children's
   intervals, so summing self times over a tree gives the root's
   duration whenever siblings do not overlap, and more than that by
   exactly the overlap of parallel work. *)

(* layer of each span name: the library's own spans and the harness
   spans around calls that the library does not wrap itself *)
let layer_of = function
  | "dverify" | "ta.reach" -> "engine"
  | "dwell.compute" | "dwell.surface" -> "dwell"
  | "mapping.first_fit" | "mapping.optimal" -> "mapping"
  | "cosim.run" -> "cosim"
  | "serve.request" -> "service"
  | "bench.request" -> "transport"
  | "bench.campaign" -> "campaign"
  | "bench.store_open" -> "store"
  | "bench.daemon_start" -> "daemon"
  | n when String.length n > 6 && String.sub n 0 6 = "bench." -> "harness"
  | _ -> "other"

type t = { mutable spans : Obs.Span.record list }

let create () = { spans = [] }

(* move the finished spans out of Obs into the rollup *)
let collect t = t.spans <- List.rev_append (Obs.Span.drain ()) t.spans

let union_length intervals =
  let sorted = List.sort compare intervals in
  let total, cur =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
          if a <= cb then (total, Some (ca, Float.max cb b)) else (total +. (cb -. ca), Some (a, b)))
      (0., None) sorted
  in
  match cur with None -> total | Some (a, b) -> total +. (b -. a)

type layer = { count : int; total_s : float; self_s : float }

let layers t =
  let spans = Array.of_list t.spans in
  let n = Array.length spans in
  let by_id = Hashtbl.create (2 * n) in
  Array.iteri (fun i (s : Obs.Span.record) -> Hashtbl.replace by_id s.Obs.Span.id i) spans;
  let stop (s : Obs.Span.record) = s.Obs.Span.start_s +. s.Obs.Span.dur_s in
  (* sweep in start order keeping the spans still open at each start:
     an orphan's container is the shortest open span that outlasts it *)
  let order = Array.init n Fun.id in
  Array.sort (fun a b -> compare spans.(a).Obs.Span.start_s spans.(b).Obs.Span.start_s) order;
  let parent = Array.make n (-1) in
  let open_ = ref [] in
  Array.iter
    (fun i ->
      let s = spans.(i) in
      open_ := List.filter (fun j -> stop spans.(j) >= s.Obs.Span.start_s) !open_;
      (match s.Obs.Span.parent with
       | Some p when Hashtbl.mem by_id p -> parent.(i) <- Hashtbl.find by_id p
       | _ ->
         List.iter
           (fun j ->
             let c = spans.(j) in
             if stop c >= stop s && c.Obs.Span.dur_s > s.Obs.Span.dur_s
                && (parent.(i) < 0 || c.Obs.Span.dur_s < spans.(parent.(i)).Obs.Span.dur_s)
             then parent.(i) <- j)
           !open_);
      open_ := i :: !open_)
    order;
  let children = Array.make n [] in
  Array.iteri (fun i p -> if p >= 0 then children.(p) <- i :: children.(p)) parent;
  let acc = Hashtbl.create 16 in
  Array.iteri
    (fun i (s : Obs.Span.record) ->
      let lo = s.Obs.Span.start_s and hi = stop s in
      let covered =
        union_length
          (List.map
             (fun c -> (Float.max lo spans.(c).Obs.Span.start_s, Float.min hi (stop spans.(c))))
             children.(i))
      in
      let self = Float.max 0. (s.Obs.Span.dur_s -. covered) in
      let l = layer_of s.Obs.Span.name in
      let prev = Option.value ~default:{ count = 0; total_s = 0.; self_s = 0. } (Hashtbl.find_opt acc l) in
      Hashtbl.replace acc l
        { count = prev.count + 1; total_s = prev.total_s +. s.Obs.Span.dur_s; self_s = prev.self_s +. self })
    spans;
  List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) acc [])

let spans_named t name =
  List.filter (fun (s : Obs.Span.record) -> String.equal s.Obs.Span.name name) t.spans

let to_json ~end_to_end_s layers =
  Obs.Jsonx.Assoc
    (List.map
       (fun (name, l) ->
         ( name,
           Obs.Jsonx.Assoc
             [
               ("spans", Obs.Jsonx.Int l.count);
               ("total_s", Obs.Jsonx.Float l.total_s);
               ("self_s", Obs.Jsonx.Float l.self_s);
               ("self_share", Obs.Jsonx.Float (Util.ratio l.self_s end_to_end_s));
             ] ))
       layers)

let pp ~end_to_end_s layers =
  Printf.printf "per-layer rollup (self time = span minus children; end-to-end %.3f s)\n"
    end_to_end_s;
  Printf.printf "  %-10s %8s %10s %10s %7s\n" "layer" "spans" "total_s" "self_s" "share";
  List.iter
    (fun (name, l) ->
      Printf.printf "  %-10s %8d %10.3f %10.3f %6.1f%%\n" name l.count l.total_s l.self_s
        (100. *. Util.ratio l.self_s end_to_end_s))
    layers;
  let self = Util.fsum (List.map (fun (_, l) -> l.self_s) layers) in
  Printf.printf "  self times sum to %.1f%% of end-to-end\n" (100. *. Util.ratio self end_to_end_s)
