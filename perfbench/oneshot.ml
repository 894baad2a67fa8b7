(* paper-oneshot: the paper's answer as the one-shot CLI gives it at its
   default --jobs 1.  A pass is five cpsdim invocations, each checked
   byte for byte against its committed output in perfbench/data/paper/:
   `tables` (Table 1), `map --baseline` (the first-fit packing and the
   DATE'12 baseline), `simulate` for Fig. 8 and for Fig. 9, and
   `stress --seed 42 --runs 10 --horizon 300` (the X9 fault campaign on
   the two mapped slots).  tables, map and stress share one --cache
   store: a cold pass starts it empty, and a warm pass is the same five
   fresh processes over a store a cold pass filled.

   A traced run computes the same answers in-process through the
   library entry points, so that it can time its calls into each layer,
   and checks them against the same files. *)

let data_dir = "perfbench/data/paper"

let expected name =
  In_channel.with_open_bin (Filename.concat data_dir (name ^ ".txt")) In_channel.input_all

let s1 = [ "C1"; "C5"; "C4"; "C3" ]
let s2 = [ "C6"; "C2" ]
let fig8_disturbances = [ (0, "C1"); (0, "C3"); (0, "C4"); (0, "C5") ]
let fig9_disturbances = [ (0, "C2"); (10, "C6") ]
let campaign_spec = "blackout:p=0.02,len=4"

(* The seed permutes the order of the Table 1 rows, the only part of
   this workload's input the paper leaves free. *)
let permutation seed =
  let a = Array.of_list (List.map (fun (a : Casestudy.app) -> a.Casestudy.name) Casestudy.all) in
  Gen.shuffle (Faults.Prng.of_int (0xca5e + seed)) a;
  Array.to_list a

(* Table 1 as `cpsdim tables NAMES` prints it: three lines per row *)
let tables_for rows order =
  String.concat "" (List.map (fun n -> List.assoc n rows) order)

let table_rows text =
  let rec go = function
    | a :: b :: c :: rest -> (List.hd (String.split_on_char ':' a), String.concat "\n" [ a; b; c ] ^ "\n") :: go rest
    | _ -> []
  in
  go (String.split_on_char '\n' text)

type command = { name : string; args : string list; want : string }

let commands ~order ~store =
  let cache = [ "--cache"; store ] and jobs = [ "--jobs"; "1" ] in
  let ds l = List.concat_map (fun (k, n) -> [ "-d"; Printf.sprintf "%d:%s" k n ]) l in
  let rows = table_rows (expected "tables") in
  [
    { name = "tables"; args = ("tables" :: cache) @ order; want = tables_for rows order };
    { name = "map"; args = [ "map"; "--baseline" ] @ jobs @ cache; want = expected "map" };
    { name = "fig8"; args = ("simulate" :: s1) @ ds fig8_disturbances; want = expected "fig8" };
    { name = "fig9"; args = ("simulate" :: s2) @ ds fig9_disturbances; want = expected "fig9" };
    {
      name = "stress";
      args = [ "stress"; "--spec"; campaign_spec; "--seed"; "42"; "--runs"; "10"; "--horizon"; "300" ] @ jobs @ cache;
      want = expected "stress";
    };
  ]

type invocation = {
  command : string;
  latency : float;  (** spawn to exit, seconds *)
  first_output : float;  (** spawn to the first byte on stdout *)
  rss_mb : float;
}

(* one cpsdim process, and what was wrong with its answer *)
let invoke ~cpsdim ~stderr c =
  let r = Util.run_captured ~stderr cpsdim c.args in
  let problem =
    if r.Util.status <> Unix.WEXITED 0 then Some (Printf.sprintf "cpsdim %s failed" (String.concat " " c.args))
    else if r.Util.out <> c.want then
      Some
        (Printf.sprintf "cpsdim %s: output differs from %s/%s.txt" (String.concat " " c.args) data_dir
           c.name)
    else None
  in
  ({ command = c.name; latency = r.Util.wall; first_output = r.Util.first_output; rss_mb = r.Util.rss_mb }, problem)

(* ------------------------------------------------------------------ *)
(* the same pass in-process, for a traced run *)

type caches = { dcache : Core.Dwell.cache; mcache : Core.Mapping.cache }

let fresh_caches () =
  { dcache = Core.Dwell.create_cache (); mcache = Core.Mapping.create_cache () }

type result = {
  steps : (string * float) list;  (** step name, seconds, in order *)
  slots : Core.App.t list list;  (** the first-fit packing *)
  wall : float;
  problems : string list;  (** mismatches against data/paper/ *)
}

let pp_arr a = "[" ^ String.concat "," (Array.to_list (Array.map string_of_int a)) ^ "]"

let table_text (a : Core.App.t) =
  let t = a.Core.App.table in
  Printf.sprintf "%s: r=%d J*=%d | J_T=%d J_E=%d T*_w=%d\n  T-_dw=%s\n  T+_dw=%s\n" a.Core.App.name
    a.Core.App.r a.Core.App.j_star t.Core.Dwell.jt t.Core.Dwell.je t.Core.Dwell.t_w_max
    (pp_arr t.Core.Dwell.t_dw_min) (pp_arr t.Core.Dwell.t_dw_max)

(* the trace rows and Gantt chart `cpsdim simulate` prints first, and
   whether the run met its requirements *)
let cosim apps ~names ~disturbances =
  let group = List.map (fun n -> List.find (fun a -> String.equal a.Core.App.name n) apps) names in
  let trace, _ =
    Cosim.Engine.run_with_faults (Cosim.Scenario.make ~apps:group ~disturbances ~horizon:60)
  in
  ( String.concat "\n" (Cosim.Trace.to_rows trace ~stride:1)
    ^ "\n\n"
    ^ String.concat "\n" (Cosim.Trace.to_gantt trace)
    ^ "\n",
    Cosim.Trace.meets_requirements trace group )

let campaign slots =
  let spec = match Faults.Spec.parse campaign_spec with Ok s -> s | Error e -> failwith e in
  match Cosim.Campaign.run ~spec ~seed:42L ~runs:10 ~horizon:300 slots with
  | Error e -> Error e
  | Ok s -> Ok (Format.asprintf "%a@." Cosim.Campaign.pp s)

let pass ~order caches =
  let problems = ref [] in
  let check what ok = if not ok then problems := (what ^ " differs from " ^ data_dir) :: !problems in
  let t0 = Util.now () in
  let steps = ref [] in
  let run name f =
    let r, dt = Util.time (fun () -> Obs.Span.with_ ("bench." ^ name) f) in
    steps := (name, dt) :: !steps;
    r
  in
  let apps =
    List.map
      (fun name ->
        let a = Casestudy.find name in
        run ("table." ^ name) (fun () ->
            Core.App.make ~cache:caches.dcache ~name ~plant:a.Casestudy.plant
              ~gains:a.Casestudy.gains ~r:a.Casestudy.r ~j_star:a.Casestudy.j_star ()))
      order
  in
  check "Table 1"
    (String.concat "" (List.map table_text apps) = tables_for (table_rows (expected "tables")) order);
  let apps =
    List.map
      (fun (a : Casestudy.app) -> List.find (fun x -> String.equal x.Core.App.name a.Casestudy.name) apps)
      Casestudy.all
  in
  let outcome = run "map" (fun () -> Core.Mapping.first_fit ~cache:caches.mcache apps) in
  let packing = Format.asprintf "%a@." Core.Mapping.pp outcome in
  check "the first-fit packing" (String.starts_with ~prefix:packing (expected "map"));
  List.iter
    (fun (name, names, disturbances) ->
      let text, met = run name (fun () -> cosim apps ~names ~disturbances) in
      check name (met && String.starts_with ~prefix:text (expected name)))
    [ ("fig8", s1, fig8_disturbances); ("fig9", s2, fig9_disturbances) ];
  let slots = List.map (fun s -> s.Core.Mapping.apps) outcome.Core.Mapping.slots in
  (match run "campaign" (fun () -> campaign slots) with
   | Ok text -> check "the X9 campaign" (packing ^ "\n" ^ text = expected "stress")
   | Error e -> problems := ("campaign: " ^ e) :: !problems);
  { steps = List.rev !steps; slots; wall = Util.now () -. t0; problems = List.rev !problems }
