(* Workload inputs of serve-fleet: the X17-shaped request log, the
   two-app gate request whose verdicts the zone engine can confirm, and
   the traffic record each run prints. *)

module Prng = Faults.Prng

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Prng.int rng ~bound:(i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let verdict_name = function
  | Core.Dverify.Safe -> "safe"
  | Core.Dverify.Unsafe _ -> "unsafe"
  | Core.Dverify.Undetermined _ -> "undetermined"

let screen_name specs =
  match Sched.Prefilter.decide specs with
  | Sched.Prefilter.Analytic_safe -> "safe"
  | Sched.Prefilter.Analytic_unsafe _ -> "unsafe"
  | Sched.Prefilter.Inconclusive -> "inconclusive"

(* the exact engine exactly as a serve verify runs it *)
let engine_verdict specs =
  verdict_name
    (Core.Dverify.verify ~order:`Bfs ~mode:`Subsumption ~symmetry:true specs).Core.Dverify.verdict

let ta_verdict specs =
  match (Core.Ta_model.verify specs).Core.Ta_model.outcome with
  | `Safe -> "safe"
  | `Unsafe -> "unsafe"
  | `Undetermined _ -> "undetermined"

(* ------------------------------------------------------------------ *)
(* fleet: the X17 request log (inline specs, 5-app groups, 10 groups
   per request).  Application i has T+_dw(1) = 2 + (b+i) mod 3 and
   r = 9 + (b+i) mod 7 for a seed-chosen base b, so a group's timing
   depends only on (b + first index) mod 21; one mutated application
   has T+_dw(1) = 5. *)

let fleet_group_size = 5
let fleet_groups_per_request = 10

type fleet_app = int * int * int  (** index, T+_dw(1), r *)

let fleet_app ~base ?(mutated = false) i =
  let k = base + i in
  let dw = if mutated then 5 else 2 + (k mod 3) in
  (i, dw, 9 + (k mod 7))

let fleet_app_json (i, dw, r) =
  Printf.sprintf
    "{\"name\":\"S%d\",\"t_w_max\":1,\"t_dw_min\":[1,1],\"t_dw_max\":[1,%d],\"r\":%d}" i
    dw r

let fleet_group ~base ?mutate g =
  List.init fleet_group_size (fun k ->
      let i = (g * fleet_group_size) + k in
      fleet_app ~base ~mutated:(mutate = Some i) i)

(* the name-free timing of a group: what its verdict depends on *)
let fleet_shape apps =
  String.concat " "
    (List.sort compare (List.map (fun (_, dw, r) -> Printf.sprintf "%d/%d" dw r) apps))

let fleet_specs apps =
  Array.of_list
    (List.mapi
       (fun id (i, dw, r) ->
         Sched.Appspec.make ~id ~name:(Printf.sprintf "S%d" i) ~t_w_max:1
           ~t_dw_min:[| 1; 1 |] ~t_dw_max:[| 1; dw |] ~r)
       apps)

(* Every 5-app group of the X17 log is unsafe.  The gate request asks
   for two-app groups of the same applications instead: one per phase,
   plain, with its second application mutated, and with the two
   applications' periods made equal.  Their verdicts are mixed, and the
   zone engine can confirm each of them in milliseconds. *)
let gate_groups =
  List.concat_map
    (fun base ->
      let (_, dw0, r0) as a = fleet_app ~base 0 and b = fleet_app ~base 1 in
      let _, dw1, _ = b in
      [ [ a; b ]; [ a; fleet_app ~base ~mutated:true 1 ]; [ a; (1, dw1, r0) ]; [ (0, dw0, 9); (1, dw1, 9) ] ])
    (List.init 21 Fun.id)
  |> List.sort_uniq (fun x y -> compare (fleet_shape x) (fleet_shape y))

let fleet_file = "perfbench/data/fleet.tsv"

(* the committed verdict of every shape a run can ask about: 21 phases
   of 5-app groups, each plain or with one of its applications mutated,
   and the gate groups *)
let make_fleet_expected () =
  let groups =
    List.concat_map
      (fun base -> List.map (fun m -> fleet_group ~base ?mutate:m 0) (None :: List.init fleet_group_size Option.some))
      (List.init 21 Fun.id)
    @ gate_groups
  in
  List.map
    (fun apps ->
      let specs = fleet_specs apps in
      let verdict = engine_verdict specs and screen = screen_name specs in
      if screen <> "inconclusive" && screen <> verdict then
        failwith ("screen disagrees with the engine on fleet shape " ^ fleet_shape apps);
      if List.length apps = 2 && ta_verdict specs <> verdict then
        failwith ("zone engine disagrees with the engine on fleet shape " ^ fleet_shape apps);
      Printf.sprintf "%s\t%s\t%s" (fleet_shape apps) verdict screen)
    groups
  |> List.sort_uniq compare

let load_fleet_expected () =
  let t = Hashtbl.create 128 in
  List.iter
    (fun line ->
      match String.split_on_char '\t' line with
      | [ shape; verdict; _screen ] -> Hashtbl.replace t shape verdict
      | _ -> failwith ("bad fleet line: " ^ line))
    (Util.read_lines fleet_file);
  t

(* ------------------------------------------------------------------ *)
(* request logs *)

type log = { groups : fleet_app list list array; lines : string array }

let line_of id gs =
  Printf.sprintf "{\"id\":%d,\"kind\":\"verify\",\"groups\":[%s]}" id
    (String.concat ","
       (List.map (fun g -> "[" ^ String.concat "," (List.map fleet_app_json g) ^ "]") gs))

let log_of groups = { groups; lines = Array.mapi line_of groups }

type fleet_log = { log : log; incremental : fleet_app list list * string; gate : fleet_app list list * string }

let fleet_log ~seed ~requests =
  let rng = Prng.of_int (0xf1ee7 + seed) in
  let base = Prng.int rng ~bound:21 in
  let req ?mutate r =
    List.init fleet_groups_per_request (fun k ->
        fleet_group ~base ?mutate ((r * fleet_groups_per_request) + k))
  in
  let items = Array.init requests (fun r -> req r) in
  let r_m = Prng.int rng ~bound:requests in
  let mutate =
    (r_m * fleet_groups_per_request * fleet_group_size)
    + Prng.int rng ~bound:(fleet_groups_per_request * fleet_group_size)
  in
  let changed = req ~mutate r_m in
  let gate = Array.of_list gate_groups in
  shuffle rng gate;
  let gate = Array.to_list gate in
  {
    log = log_of items;
    incremental = (changed, line_of requests changed);
    gate = (gate, line_of (requests + 1) gate);
  }

(* ------------------------------------------------------------------ *)
(* what a log actually sends *)

type traffic = {
  requests : int;
  group_questions : int;
  distinct_groups : int;
  size_mix : (int * int) list;  (** group size -> questions *)
  repeat_frac : float;  (** questions a cache could answer *)
  screen : (string, string) Hashtbl.t;
      (** fingerprint of each distinct group -> what Sched.Prefilter.decide settles *)
  screen_safe : int;
  screen_unsafe : int;
  screen_s : float;  (** time the harness spent screening them *)
}

let count_into t k = Hashtbl.replace t k (1 + Option.value ~default:0 (Hashtbl.find_opt t k))
let sorted_counts t = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t [])

let traffic log =
  let distinct = Hashtbl.create 256 and sizes = Hashtbl.create 8 in
  let questions = ref 0 in
  Array.iter
    (List.iter (fun g ->
         let specs = fleet_specs g in
         incr questions;
         count_into sizes (List.length g);
         Hashtbl.replace distinct (Core.Mapping.fingerprint specs) specs))
    log.groups;
  let screen = Hashtbl.create 256 in
  let (), screen_s =
    Util.time (fun () ->
        Hashtbl.iter (fun fp specs -> Hashtbl.replace screen fp (screen_name specs)) distinct)
  in
  let count v = Hashtbl.fold (fun _ s n -> if s = v then n + 1 else n) screen 0 in
  let d = Hashtbl.length distinct in
  {
    requests = Array.length log.groups;
    group_questions = !questions;
    distinct_groups = d;
    size_mix = sorted_counts sizes;
    repeat_frac = Util.ratio (float_of_int (!questions - d)) (float_of_int !questions);
    screen;
    screen_safe = count "safe";
    screen_unsafe = count "unsafe";
    screen_s;
  }

let screen_decided_frac t =
  Util.ratio (float_of_int (t.screen_safe + t.screen_unsafe)) (float_of_int t.distinct_groups)

let traffic_json t =
  let mix l = Obs.Jsonx.Assoc (List.map (fun (k, v) -> (string_of_int k, Obs.Jsonx.Int v)) l) in
  Obs.Jsonx.Assoc
    [
      ("requests", Obs.Jsonx.Int t.requests);
      ("group_questions", Obs.Jsonx.Int t.group_questions);
      ("distinct_groups", Obs.Jsonx.Int t.distinct_groups);
      ("group_size_mix", mix t.size_mix);
      ("j_star_overrides", Obs.Jsonx.Int 0);
      ("repeat_frac", Obs.Jsonx.Float t.repeat_frac);
      ("screen_safe", Obs.Jsonx.Int t.screen_safe);
      ("screen_unsafe", Obs.Jsonx.Int t.screen_unsafe);
      ("screen_decided_frac", Obs.Jsonx.Float (screen_decided_frac t));
    ]
