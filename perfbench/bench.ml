(* cpsdim benchmark harness.

     bench.exe --workload W --seed N --seconds S --trace 0|1 --cpsdim EXE

   W is paper-oneshot or serve-fleet (see README.md).  With --trace 0
   the end-to-end metrics are measured on the cpsdim executable EXE,
   with observability off; with --trace 1 the workload runs in-process
   with observability on and the per-layer metrics are reported.  The
   last line of standard output is the JSON result.

     bench.exe expected     regenerate perfbench/data/fleet.tsv *)

let out_dir = ".bench_out"

(* ------------------------------------------------------------------ *)
(* outcome bookkeeping *)

let attempted = ref 0
let failed = ref 0
let errors : string list ref = ref []

let fail fmt =
  Printf.ksprintf
    (fun m ->
      incr failed;
      if List.length !errors < 20 then errors := m :: !errors)
    fmt

let attempt n = attempted := !attempted + n

let emit metrics =
  List.iter (fun e -> Printf.printf "FAILED: %s\n" e) (List.rev !errors);
  let correct = !failed = 0 in
  let m =
    List.map
      (fun (name, v, unit) ->
        (name, Obs.Jsonx.Assoc [ ("value", Obs.Jsonx.Float v); ("unit", Obs.Jsonx.String unit) ]))
      metrics
  in
  print_endline
    (Obs.Jsonx.to_string
       (Obs.Jsonx.Assoc
          [
            ("correct", Obs.Jsonx.Bool correct);
            ("attempted", Obs.Jsonx.Int (max 1 !attempted));
            ("failed", Obs.Jsonx.Int !failed);
            ("metrics", Obs.Jsonx.Assoc m);
          ]))

(* ------------------------------------------------------------------ *)
(* latency figures *)

(* One window is one pass or replay: its rate is operations per second
   of busy time, its tail the highest percentile with ten samples
   beyond it.  Over several windows a run reports the median rate, the
   p50 of the pooled samples and the median of the windows' tails. *)
let window_figures windows =
  ( Util.median (Array.of_list (List.map Util.rate windows)),
    1e3 *. Util.median (Array.concat windows),
    1e3 *. Util.windowed_tail windows )

let pp_windows label windows =
  match windows with
  | [] -> Printf.printf "%s: none\n" label
  | w :: _ ->
    let rps, p50, tail = window_figures windows in
    let _, pct = Util.tail w in
    let tails = Array.of_list (List.map (fun w -> 1e3 *. fst (Util.tail w)) windows) in
    let q = Util.quartiles tails in
    Printf.printf
      "%s: n=%d in %d window(s) of %d, %.2f/s, p50=%.3f ms, p%.1f=%.3f ms (windows' tails q1 %.3f, q3 %.3f)\n"
      label
      (Array.length (Array.concat windows))
      (List.length windows) (Array.length w) rps p50 pct tail (fst q) (snd q)

let cold_metrics ?p50 windows =
  pp_windows "cold" windows;
  let rps, pooled, tail = window_figures windows in
  let p50 = Option.value ~default:pooled p50 in
  if p50 <> pooled then Printf.printf "cold: reported p50=%.3f ms\n" p50;
  [ ("cold_rps", rps, "1/s"); ("cold_p50_ms", p50, "ms"); ("cold_tail_ms", tail, "ms") ]

(* Warm figures over one or more sets of windows.  Each set weighs the
   same in the result, however many windows it has. *)
let warm_metrics sets =
  List.iter (fun (label, ws) -> pp_windows label ws) sets;
  let figs = List.map (fun (_, ws) -> window_figures ws) sets in
  let mean f = Util.fsum (List.map f figs) /. float_of_int (List.length figs) in
  [
    ("warm_rps", mean (fun (r, _, _) -> r), "1/s");
    ("warm_p50_ms", mean (fun (_, p, _) -> p), "ms");
    ("warm_tail_ms", mean (fun (_, _, t) -> t), "ms");
  ]

let pp_latencies label lat =
  let tail, pct = Util.tail lat in
  Printf.printf "%s: n=%d p50=%.3f ms p%.1f=%.3f ms\n" label (Array.length lat)
    (1e3 *. Util.median lat) pct (1e3 *. tail)

(* ------------------------------------------------------------------ *)
(* environment and calibration *)

(* A fixed linalg kernel (min of 5): the same arithmetic on every commit
   that leaves lib/linalg alone, so a slow machine shows here and a slow
   program does not. *)
let calib_ms () =
  let m = Linalg.Mat.init 8 8 (fun i j -> float_of_int (((i * 7) + (j * 3)) mod 5) /. 10.) in
  let once () =
    snd
      (Util.time (fun () ->
           for _ = 1 to 400 do
             ignore (Sys.opaque_identity (Linalg.Expm.expm m))
           done))
  in
  1e3 *. List.fold_left Float.min infinity (List.init 5 (fun _ -> once ()))

let print_env ~workload ~seed ~jobs ~calib =
  Printf.printf
    "env: workload=%s seed=%d nproc=%d jobs=%d ocaml=%s host.calib_ms=%.3f\n" workload seed
    (Domain.recommended_domain_count ()) jobs Sys.ocaml_version calib

let print_traffic ~workload ~seed j =
  let j = Obs.Jsonx.to_string j in
  Printf.printf "traffic: %s\n" j;
  Util.write_file (Printf.sprintf "%s/traffic-%s-%d.json" out_dir workload seed) (j ^ "\n")

(* ------------------------------------------------------------------ *)
(* paper-oneshot, untraced: the cpsdim CLI *)

(* The first cold pass fills the store every warm pass reads.  Each
   later cold pass, on a store of its own, has this many warm passes
   after each of its processes, so that warm and cold samples spread
   over the whole run and a slow spell of the host weighs on both. *)
let oneshot_warm_per_process = 1
let oneshot_min_passes = 4
let oneshot_max_passes = 8

let strings l = Obs.Jsonx.List (List.map (fun s -> Obs.Jsonx.String s) l)

let paper_untraced ~cpsdim ~seed ~seconds =
  let order = Oneshot.permutation seed in
  let warm_store = out_dir ^ "/paper-warm.store" and cold_store = out_dir ^ "/paper.store" in
  let warm_cmds = Oneshot.commands ~order ~store:warm_store
  and cold_cmds = Oneshot.commands ~order ~store:cold_store in
  print_traffic ~workload:"paper-oneshot" ~seed
    (Obs.Jsonx.Assoc
       [
         ("table_order", strings order);
         ( "commands",
           Obs.Jsonx.List (List.map (fun c -> strings ("cpsdim" :: c.Oneshot.args)) cold_cmds) );
         ("warm_passes_per_process", Obs.Jsonx.Int oneshot_warm_per_process);
       ]);
  let stderr =
    Unix.openfile (out_dir ^ "/cpsdim.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let invoke c =
    let i, problem = Oneshot.invoke ~cpsdim ~stderr c in
    Option.iter (fail "paper pass: %s") problem;
    attempt 1;
    i
  in
  let warms = ref [] in
  let warm_pass () = warms := List.map invoke warm_cmds :: !warms in
  let cold_pass ~interleave store cmds =
    Util.remove store;
    List.map
      (fun c ->
        let i = invoke c in
        if interleave then for _ = 1 to oneshot_warm_per_process do warm_pass () done;
        i)
      cmds
  in
  let t0 = Util.now () in
  let rec loop acc =
    let n = List.length acc and elapsed = Util.now () -. t0 in
    if n >= oneshot_max_passes
       || (n >= oneshot_min_passes && elapsed +. (elapsed /. float_of_int n) > float_of_int seconds)
    then List.rev acc
    else loop (cold_pass ~interleave:true cold_store cold_cmds :: acc)
  in
  let colds = loop [ cold_pass ~interleave:false warm_store warm_cmds ] in
  let warms = List.rev !warms in
  Unix.close stderr;
  List.iter Util.remove [ warm_store; cold_store ];
  let lat p = Array.of_list (List.map (fun i -> i.Oneshot.latency) p) in
  let invocation name p = List.find (fun i -> i.Oneshot.command = name) p in
  (* a cold pass's answer is its five processes back to back *)
  let walls = Array.of_list (List.map (fun p -> Util.sum (lat p)) colds) in
  let setups = Array.of_list (List.map (fun p -> (invocation "tables" p).Oneshot.first_output) warms) in
  let rss =
    Array.of_list
      (List.map (fun p -> List.fold_left (fun m i -> Float.max m i.Oneshot.rss_mb) 0. p) colds)
  in
  Printf.printf "paper-oneshot: %d cold pass(es) of %s s, %d warm pass(es)\n" (List.length colds)
    (String.concat " " (List.map (Printf.sprintf "%.3f") (Array.to_list walls)))
    (List.length warms);
  List.iter
    (fun p ->
      Printf.printf "  cold: %s\n"
        (String.concat " "
           (List.map
              (fun i -> Printf.sprintf "%s=%.1fms/%.0fMB" i.Oneshot.command (1e3 *. i.Oneshot.latency) i.Oneshot.rss_mb)
              p)))
    colds;
  (* The cold p50 is that of a typical cold pass: the median of its five
     processes, each taken as its median over the run.  `simulate` has
     no store, so each of its invocations, in warm passes too, is a cold
     one: the p50 rests on some twenty samples instead of four. *)
  let per_command =
    List.map
      (fun c ->
        let name = c.Oneshot.name in
        let samples = if List.mem "--cache" c.Oneshot.args then colds else colds @ warms in
        let l = Array.of_list (List.map (fun p -> (invocation name p).Oneshot.latency) samples) in
        Printf.printf "  cold %s: median %.1f ms of %d\n" name (1e3 *. Util.median l) (Array.length l);
        Util.median l)
      cold_cmds
  in
  let cold = cold_metrics ~p50:(1e3 *. Util.median (Array.of_list per_command)) (List.map lat colds) in
  let warm = warm_metrics [ ("warm passes", List.map lat warms) ] in
  [ ("setup_s", Util.median setups, "s"); ("answer_s", Util.median walls, "s") ]
  @ cold @ warm
  @ [ ("peak_rss_mb", Util.median rss, "MB") ]

(* ------------------------------------------------------------------ *)
(* tracing switches *)

let obs_on () =
  Obs.Trace_ctx.enable ();
  Obs.Event.enable ()

let obs_off () =
  Obs.Trace_ctx.disable ();
  Obs.Event.disable ()

let obs_init () =
  Obs.Metric.reset ();
  Obs.Span.reset ();
  Obs.Trace_ctx.reset ();
  Obs.Event.reset ();
  Obs.Span.set_capacity (1 lsl 20);
  Obs.Event.set_capacity (1 lsl 20)

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* Traced and untraced runs of the same unit of work: traced first, so
   its caches and heap start as cold as a fresh process's, then
   untraced, and the pair again in reverse order (ABBA) when [budget]
   leaves room.  Returns the traced-over-untraced overhead. *)
let abba ~budget ~traced ~untraced =
  let t0 = Util.now () in
  let tr = ref [] and un = ref [] in
  let run_t () = tr := traced () :: !tr and run_u () = un := untraced () :: !un in
  run_t ();
  run_u ();
  let block = Util.now () -. t0 in
  if Util.now () -. t0 +. block <= budget then begin
    run_u ();
    run_t ()
  end;
  Util.median (Array.of_list !tr) /. Util.median (Array.of_list !un) -. 1.

(* ------------------------------------------------------------------ *)
(* paper-oneshot, traced: the same pass in-process *)

let paper_traced ~seed ~seconds =
  Par.Pool.set_default_jobs 1;
  let x = Layers.extras () in
  let rollup = Rollup.create () and ev = Layers.engine_events () in
  let order = Oneshot.permutation seed in
  print_traffic ~workload:"paper-oneshot" ~seed
    (Obs.Jsonx.Assoc
       [ ("table_order", strings order); ("in_process_steps", strings [ "table"; "map"; "fig8"; "fig9"; "campaign" ]) ]);
  let first = ref None and snap = ref [] in
  let checked r =
    List.iter (fail "paper pass: %s") r.Oneshot.problems;
    attempt (List.length r.Oneshot.steps);
    r.Oneshot.wall
  in
  let traced () =
    obs_on ();
    let r =
      Obs.Span.with_ "bench.pass" (fun () -> Oneshot.pass ~order (Oneshot.fresh_caches ()))
    in
    obs_off ();
    if !first = None then begin
      (* per-layer figures come from the first traced pass, the one
         that starts from a fresh process *)
      first := Some r;
      x.peak_heap_mb <- top_heap_mb ();
      x.campaign_s <- List.assoc "campaign" r.Oneshot.steps;
      Rollup.collect rollup;
      Layers.absorb_events ev;
      snap := Obs.Metric.snapshot ()
    end
    else begin
      ignore (Obs.Span.drain ());
      ignore (Obs.Event.drain ())
    end;
    checked r
  in
  let untraced () = checked (Oneshot.pass ~order (Oneshot.fresh_caches ())) in
  x.overhead_frac <- abba ~budget:(float_of_int seconds) ~traced ~untraced;
  let r = Option.get !first in
  (* what the screen settles of the two mapped slots *)
  let specs = List.map Core.Mapping.specs_of_group r.Oneshot.slots in
  let decided, dt =
    Util.time (fun () ->
        List.length (List.filter (fun s -> Gen.screen_name s <> "inconclusive") specs))
  in
  x.screen_calls_harness <- List.length specs;
  x.screen_decided_frac <- Util.ratio (float_of_int decided) (float_of_int (List.length specs));
  x.screen_s <- dt;
  (rollup, ev, x, !snap, r.Oneshot.wall)

(* ------------------------------------------------------------------ *)
(* serve-fleet: checking answers *)

let verdict_line = function
  | "safe" -> "safe: no application can miss T*_w"
  | "unsafe" -> "unsafe: some application can miss T*_w"
  | v -> "undetermined: " ^ v

let payload line = (Util.output_of line, List.map fst (Util.group_fields line))

(* Serve's verdicts on [groups] must be the committed ones, and agree
   with the screen wherever it decides: it is sound, so a group it
   settles has that verdict. *)
let check_verify ~expected ~(traffic : Gen.traffic) groups answer =
  if not (Util.ok_of answer) then fail "request failed: %s" answer
  else begin
    let want =
      List.map
        (fun g ->
          Option.value
            ~default:("missing expected shape " ^ Gen.fleet_shape g)
            (Hashtbl.find_opt expected (Gen.fleet_shape g)))
        groups
    in
    let got = List.map fst (Util.group_fields answer) in
    if got <> want || Util.output_of answer <> Some (String.concat "\n" (List.map verdict_line want))
    then fail "wrong verdicts: %s" answer
    else
      List.iter2
        (fun g v ->
          let specs = Gen.fleet_specs g in
          let screen =
            match Hashtbl.find_opt traffic.Gen.screen (Core.Mapping.fingerprint specs) with
            | Some s -> s
            | None -> Gen.screen_name specs
          in
          if screen <> "inconclusive" && screen <> v then
            fail "serve says %s where the screen decides %s: %s" v screen (Gen.fleet_shape g))
        groups got
  end

(* The gate request's two-app groups: beyond the committed verdicts and
   the screen, the zone engine must agree with serve on each.  The
   verdict mix is printed, so a run shows that it gated safe ones. *)
let check_gate ~expected ~traffic (groups, _) answer =
  check_verify ~expected ~traffic groups answer;
  let got = List.map fst (Util.group_fields answer) in
  let ta = List.map (fun g -> Gen.ta_verdict (Gen.fleet_specs g)) groups in
  if got <> ta then fail "zone engine and serve disagree on the gate groups: %s" answer;
  attempt 1;
  let safe = List.length (List.filter (( = ) "safe") got) in
  Printf.printf "gate: %d two-app groups, serve says %d safe and %d unsafe\n"
    (List.length groups) safe (List.length got - safe)

let same_payloads ~what cold replay =
  Array.iteri
    (fun i a -> if payload a <> payload cold.(i) then fail "%s answer %d differs from cold: %s" what i a)
    replay

(* serve-fleet is a fixed-size job, so every seed yields the same
   number of latency samples per phase.  Restarts and memory replays
   take milliseconds, a cold pass seconds: so after the first round the
   warm phases run in the gaps of the next cold pass, block by block,
   and a slow spell of the host weighs on cold and warm figures alike. *)
let fleet_requests = 150
let fleet_rounds = 3
let fleet_blocks = 30  (* per cold pass of the later rounds *)
let fleet_replays = 2  (* memory replays per restarted daemon *)
let fleet_restarts = 4  (* in-process restarts of a traced run *)

let fleet_inputs seed =
  let fl = Gen.fleet_log ~seed ~requests:fleet_requests in
  let traffic = Gen.traffic fl.Gen.log in
  (match Gen.traffic_json traffic with
   | Obs.Jsonx.Assoc kvs ->
     print_traffic ~workload:"serve-fleet" ~seed
       (Obs.Jsonx.Assoc (kvs @ [ ("gate_groups", Obs.Jsonx.Int (List.length (fst fl.Gen.gate))) ]))
   | j -> print_traffic ~workload:"serve-fleet" ~seed j);
  (fl, traffic, Gen.load_fleet_expected ())

(* exactly one group of the incremental request is decided afresh *)
let check_incremental ~expected ~traffic (groups, _) answer =
  check_verify ~expected ~traffic groups answer;
  let fresh =
    List.length (List.filter (fun (_, p) -> p <> "mem" && p <> "disk") (Util.group_fields answer))
  in
  if fresh <> 1 then fail "incremental request re-decided %d groups, want exactly 1" fresh;
  attempt 1

(* ------------------------------------------------------------------ *)
(* serve-fleet, untraced: the real daemon over its socket *)

let fleet_untraced ~cpsdim ~seed =
  let fl, traffic, expected = fleet_inputs seed in
  let log = fl.Gen.log in
  let path = out_dir ^ "/fleet.sock" and warm_path = out_dir ^ "/fleet-warm.sock" in
  let store k = Printf.sprintf "%s/fleet-%d.store" out_dir k in
  let args k = [ "--jobs"; "2"; "--cache"; store k ] in
  let dlog = out_dir ^ "/daemon.log" in
  let cold_answers = ref None in
  let same_as_cold ~what answers =
    match !cold_answers with
    | None ->
      Array.iteri (fun i a -> check_verify ~expected ~traffic log.Gen.groups.(i) a) answers;
      cold_answers := Some answers
    | Some cold -> same_payloads ~what cold answers
  in
  let restarts = ref [] and replays = ref [] in
  (* a daemon restarted on the full store of round [k]: its set-up, one
     pass answered from the store, then replays from memory *)
  let restart ~incremental k =
    let d, c, setup = Session.spawn ~cpsdim ~path:warm_path ~log:dlog (args k) in
    let lat, answers, _ = Session.pass c log.Gen.lines in
    same_as_cold ~what:"restart" answers;
    restarts := (setup, lat) :: !restarts;
    for _ = 1 to fleet_replays do
      let lat, answers, _ = Session.pass c log.Gen.lines in
      same_as_cold ~what:"warm" answers;
      replays := lat :: !replays
    done;
    (* one changed application: exactly one group is decided afresh *)
    if incremental then
      check_incremental ~expected ~traffic fl.Gen.incremental (Util.request c (snd fl.Gen.incremental));
    Util.close c;
    ignore (Session.stop d)
  in
  (* a cold pass on the empty store of round [k]; from the second round
     on, a restart of the previous round's store after each block *)
  let round k =
    Util.remove (store k);
    let d, c, _ = Session.spawn ~cpsdim ~path ~log:dlog (args k) in
    let n = Array.length log.Gen.lines in
    let blocks = if k = 0 then 1 else fleet_blocks in
    let lat = Array.make n 0. and answers = Array.make n "" and wall = ref 0. in
    for b = 0 to blocks - 1 do
      let lo = b * n / blocks and hi = (b + 1) * n / blocks in
      let l, a, w = Session.pass c (Array.sub log.Gen.lines lo (hi - lo)) in
      Array.blit l 0 lat lo (hi - lo);
      Array.blit a 0 answers lo (hi - lo);
      wall := !wall +. w;
      if k > 0 then restart ~incremental:(b = blocks - 1) (k - 1)
    done;
    check_gate ~expected ~traffic fl.Gen.gate (Util.request c (snd fl.Gen.gate));
    Util.close c;
    let rss = Session.stop d in
    same_as_cold ~what:"cold" answers;
    (lat, !wall, rss)
  in
  let colds = List.init fleet_rounds round in
  List.iter (fun k -> Util.remove (store k)) (List.init fleet_rounds Fun.id);
  let cold_lat = List.map (fun (l, _, _) -> l) colds
  and walls = Array.of_list (List.map (fun (_, w, _) -> w) colds)
  and rss = Array.of_list (List.map (fun (_, _, r) -> r) colds)
  and setups = List.rev_map fst !restarts
  and restart_lat = List.rev_map snd !restarts
  and warm_lat = List.rev !replays in
  attempt (Array.length (Array.concat (cold_lat @ restart_lat @ warm_lat)));
  Printf.printf
    "serve-fleet: cold passes %s s, %d restart(s) with set-ups %s s, %d memory replay(s)\n"
    (String.concat " " (List.map (Printf.sprintf "%.3f") (Array.to_list walls)))
    (List.length setups)
    (String.concat " " (List.map (Printf.sprintf "%.4f") setups))
    (List.length warm_lat);
  let cold = cold_metrics cold_lat in
  let warm = warm_metrics [ ("restart passes", restart_lat); ("memory replays", warm_lat) ] in
  [ ("setup_s", Util.median (Array.of_list setups), "s"); ("answer_s", Util.median walls, "s") ]
  @ cold @ warm
  @ [ ("peak_rss_mb", Util.median rss, "MB") ]

(* ------------------------------------------------------------------ *)
(* serve-fleet, traced: the same service in-process, its daemon loop on
   a domain of its own, the client on the main domain *)

type inproc = { dom : (unit, string) result Domain.t; conn : Util.conn; path : string }

let inproc_start ?pcache path =
  Util.remove path;
  let svc = Serve.Service.create ?pcache () in
  let dom = Domain.spawn (fun () -> Serve.Daemon.run_socket svc ~path) in
  let conn = Util.connect ~path ~deadline:(Util.now () +. 30.) in
  if Util.output_of (Util.request conn Session.ping_line) <> Some "pong" then
    fail "in-process daemon did not pong";
  { dom; conn; path }

(* The client's connection closes first and [after_close] runs before
   the shutdown, so a pinger queued behind the client is answered. *)
let inproc_stop ?(after_close = ignore) d =
  Util.close d.conn;
  after_close ();
  let c = Util.connect ~path:d.path ~deadline:(Util.now () +. 10.) in
  ignore (Util.request c Session.shutdown_line);
  Util.close c;
  match Domain.join d.dom with Ok () -> () | Error m -> fail "daemon: %s" m

(* Pings on a second connection every 100 ms while the client's session
   lasts; serve answers one connection at a time, so today they wait
   for the whole session. *)
let collect_pings x pinger () =
  let pings = Session.finish_pinger pinger in
  if pings.Session.missing > 0 then fail "%d ping(s) unanswered" pings.Session.missing;
  attempt pings.Session.sent;
  pp_latencies "pings" pings.Session.latencies;
  Printf.printf "pings: %d sent, the generator at most %.1f ms late\n" pings.Session.sent
    (1e3 *. pings.Session.max_lag);
  x.Layers.ping_tail_ms <- 1e3 *. fst (Util.tail pings.Session.latencies)

let traced_pass d lines =
  Session.pass ~around:(fun f -> Obs.Span.with_ "bench.request" f) d.conn lines

(* protocol costs timed by the harness on the lines it sent and the
   answers it got *)
let protocol_costs x lines answers =
  let reps = 20 in
  let per_call f items =
    let n = Array.length items in
    let (), dt = Util.time (fun () -> for _ = 1 to reps do Array.iter f items done) in
    1e6 *. dt /. float_of_int (reps * max 1 n)
  in
  x.Layers.parse_us <- per_call (fun l -> ignore (Serve.Protocol.request_of_line l)) lines;
  let verdict = function
    | "safe" -> `Safe
    | "unsafe" -> `Unsafe
    | r -> `Undetermined r
  and provenance = function
    | "screen" -> `Screen
    | "mem" -> `Mem
    | "disk" -> `Disk
    | _ -> `Miss
  in
  let rebuild a =
    let output = Option.value ~default:"" (Util.output_of a) in
    let groups =
      List.map
        (fun (v, p) ->
          { Serve.Protocol.fingerprint = "0123456789abcdef"; verdict = verdict v; provenance = provenance p })
        (Util.group_fields a)
    in
    fun () -> ignore (Serve.Protocol.verify_response ~id:Obs.Jsonx.Null ~groups ~output)
  in
  x.Layers.encode_us <- per_call (fun f -> f ()) (Array.map rebuild answers)

(* handle time per request (the library's serve.request span) and what
   the client saw beyond it *)
let service_costs x rollup =
  let handles = Rollup.spans_named rollup "serve.request"
  and requests = Rollup.spans_named rollup "bench.request" in
  let dur l = Array.of_list (List.map (fun s -> s.Obs.Span.dur_s) l) in
  x.Layers.handle_p50_ms <- 1e3 *. Util.median (dur handles);
  if List.length handles >= List.length requests then
    x.Layers.transport_ms <-
      1e3 *. (Util.median (dur requests) -. Util.median (dur handles))

(* a phase of a traced serve run: its rollup and the client's wall time *)
type phase = { name : string; rollup : Rollup.t; wall : float }

let phase name wall =
  let rollup = Rollup.create () in
  Rollup.collect rollup;
  { name; rollup; wall }

let print_phases phases =
  List.iter
    (fun p ->
      Printf.printf "%s phase:\n" p.name;
      Rollup.pp ~end_to_end_s:p.wall (Rollup.layers p.rollup))
    phases

let combined phases =
  let r = Rollup.create () in
  r.Rollup.spans <- List.concat_map (fun p -> p.rollup.Rollup.spans) phases;
  (r, Util.fsum (List.map (fun p -> p.wall) phases))

(* the harness's own cache probe: a warm Mapping.probe (fingerprint plus
   memory lookup) on every group of the log *)
let probe_us groups =
  let cache = Core.Mapping.create_cache () in
  List.iter (fun s -> ignore (Core.Mapping.probe ~cache s)) groups;
  let reps = 5 in
  let (), dt =
    Util.time (fun () ->
        for _ = 1 to reps do
          List.iter (fun s -> ignore (Core.Mapping.probe ~cache s)) groups
        done)
  in
  1e6 *. dt /. float_of_int (reps * max 1 (List.length groups))

let fleet_traced ~cpsdim ~seed =
  let fl, traffic, expected = fleet_inputs seed in
  let log = fl.Gen.log in
  let check_all answers =
    Array.iteri (fun i a -> check_verify ~expected ~traffic log.Gen.groups.(i) a) answers
  in
  Par.Pool.set_default_jobs 2;
  let x = Layers.extras () and ev = Layers.engine_events () in
  x.Layers.screen_decided_frac <- Gen.screen_decided_frac traffic;
  x.Layers.screen_s <- traffic.Gen.screen_s;
  x.Layers.screen_calls_harness <- traffic.Gen.distinct_groups;
  x.Layers.distinct_groups <- traffic.Gen.distinct_groups;
  x.Layers.repeat_frac <- traffic.Gen.repeat_frac;
  let store = out_dir ^ "/fleet-inproc.store" and sock = out_dir ^ "/fleet-inproc.sock" in
  Util.remove store;
  let open_store () =
    match Obs.Span.with_ "bench.store_open" (fun () -> Util.time (fun () -> Core.Pcache.open_ ~path:store)) with
    | Ok pc, dt -> (pc, dt)
    | Error m, _ -> failwith ("store: " ^ m)
  in
  (* 1. cold, then the untimed gate request *)
  obs_on ();
  let pc, _ = open_store () in
  let d = inproc_start ~pcache:pc sock in
  let pinger = Session.start_pinger ~path:sock ~interval:0.1 in
  let cold, cold_answers, cold_wall = traced_pass d log.Gen.lines in
  obs_off ();
  x.Layers.peak_heap_mb <- top_heap_mb ();
  let cold_phase = phase "cold" cold_wall in
  Layers.absorb_events ev;
  check_gate ~expected ~traffic fl.Gen.gate (Util.request d.conn (snd fl.Gen.gate));
  ignore (Obs.Event.drain ());
  inproc_stop ~after_close:(collect_pings x pinger) d;
  Core.Pcache.close pc;
  check_all cold_answers;
  attempt (Array.length cold);
  (* 2. restarts: set-up is opening the store and starting the daemon *)
  let restart () =
    obs_on ();
    let t0 = Util.now () in
    let (pc, load), d =
      Obs.Span.with_ "bench.daemon_start" (fun () ->
          let pc, load = open_store () in
          ((pc, load), inproc_start ~pcache:pc sock))
    in
    let setup = Util.now () -. t0 in
    let _, answers, wall = traced_pass d log.Gen.lines in
    obs_off ();
    same_payloads ~what:"restart" cold_answers answers;
    attempt (Array.length answers);
    (pc, d, load, setup, wall)
  in
  let restarts =
    List.init fleet_restarts (fun _ ->
        let pc, d, load, setup, wall = restart () in
        inproc_stop d;
        Core.Pcache.close pc;
        (load, setup, wall))
  in
  let pc, d, load, setup, wall = restart () in
  let restarts = (load, setup, wall) :: restarts in
  let restart_phase = phase "restart" (Util.fsum (List.map (fun (_, _, w) -> w) restarts)) in
  x.Layers.store_load_s <- Util.median (Array.of_list (List.map (fun (l, _, _) -> l) restarts));
  x.Layers.store_records <- (Core.Pcache.stats pc).Store.loaded;
  x.Layers.store_bytes <- Util.file_size store;
  let inproc_setup = Util.median (Array.of_list (List.map (fun (_, s, _) -> s) restarts)) in
  (* 3. one traced warm replay from memory *)
  obs_on ();
  let _, warm_answers, warm_wall = traced_pass d log.Gen.lines in
  obs_off ();
  let warm = phase "warm" warm_wall in
  same_payloads ~what:"warm" cold_answers warm_answers;
  attempt (Array.length warm_answers);
  (* 4. incremental *)
  obs_on ();
  let _, incr, incr_wall = traced_pass d [| snd fl.Gen.incremental |] in
  obs_off ();
  let incr_phase = phase "incremental" incr_wall in
  check_incremental ~expected ~traffic fl.Gen.incremental incr.(0);
  ignore (Obs.Event.drain ());
  inproc_stop d;
  Core.Pcache.close pc;
  let snap = Obs.Metric.snapshot () in
  (* the same cold pass untraced on a fresh in-process service: the
     overhead of tracing where the work is.  Run second, it starts on a
     grown heap, so the figure leans high if anything. *)
  let u_store = out_dir ^ "/fleet-untraced.store" in
  Util.remove u_store;
  let u =
    match Core.Pcache.open_ ~path:u_store with
    | Error m -> failwith ("store: " ^ m)
    | Ok pcache ->
      let d = inproc_start ~pcache sock in
      let _, answers, wall = Session.pass d.conn log.Gen.lines in
      inproc_stop d;
      Core.Pcache.close pcache;
      check_all answers;
      attempt (Array.length answers);
      wall
  in
  x.Layers.overhead_frac <- (cold_wall /. u) -. 1.;
  (* the real daemon's set-up over the same store, for the set-up share *)
  let proc_setup =
    Util.median
      (Array.init 3 (fun _ ->
           let dm, c, s = Session.spawn ~cpsdim ~path:sock ~log:(out_dir ^ "/daemon.log") [ "--jobs"; "2"; "--cache"; store ] in
           Util.close c;
           ignore (Session.stop dm);
           s))
  in
  let phases = [ cold_phase; restart_phase; warm; incr_phase ] in
  let rollup, e2e = combined phases in
  protocol_costs x log.Gen.lines cold_answers;
  service_costs x warm.rollup;
  let probe = probe_us (List.concat_map (List.map Gen.fleet_specs) (Array.to_list log.Gen.groups)) in
  print_phases phases;
  (* predictions *)
  let per_req = float_of_int Gen.fleet_groups_per_request in
  let proto_cache_ms = ((x.Layers.parse_us +. x.Layers.encode_us) +. (probe *. per_req)) /. 1e3 in
  Printf.printf
    "prediction: protocol plus cache dominate the warm pass: parse %.1f us + encode %.1f us + \
     %d x probe %.1f us = %.3f ms of a %.3f ms handle p50 (%.0f%%) -> %s\n"
    x.Layers.parse_us x.Layers.encode_us Gen.fleet_groups_per_request probe proto_cache_ms
    x.Layers.handle_p50_ms (100. *. Util.ratio proto_cache_ms x.Layers.handle_p50_ms)
    (if proto_cache_ms >= 0.5 *. x.Layers.handle_p50_ms then "HOLDS" else "FAILS");
  Printf.printf
    "prediction: store load dominates set-up: load %.3f ms of in-process set-up %.3f ms (%.0f%%) \
     and of daemon spawn-to-pong %.3f ms (%.0f%%) -> %s\n"
    (1e3 *. x.Layers.store_load_s) (1e3 *. inproc_setup)
    (100. *. Util.ratio x.Layers.store_load_s inproc_setup)
    (1e3 *. proc_setup) (100. *. Util.ratio x.Layers.store_load_s proc_setup)
    (if x.Layers.store_load_s >= 0.5 *. proc_setup then "HOLDS" else "FAILS");
  (rollup, ev, x, snap, e2e, phases)

(* ------------------------------------------------------------------ *)

let workloads = [ "paper-oneshot"; "serve-fleet" ]

let usage () =
  prerr_endline
    ("usage: bench.exe --workload " ^ String.concat "|" workloads
   ^ " --seed N --seconds S --trace 0|1 --cpsdim EXE");
  exit 2

let rollup_json ~workload ~seed ~e2e rollup phases =
  let j =
    Obs.Jsonx.Assoc
      ([ ("workload", Obs.Jsonx.String workload); ("seed", Obs.Jsonx.Int seed);
         ("all", Rollup.to_json ~end_to_end_s:e2e (Rollup.layers rollup)) ]
      @ List.map
          (fun p -> (p.name, Rollup.to_json ~end_to_end_s:p.wall (Rollup.layers p.rollup)))
          phases)
  in
  Util.write_file
    (Printf.sprintf "%s/rollup-%s-%d.json" out_dir workload seed)
    (Obs.Jsonx.to_string j ^ "\n")

let main args =
  let get k = List.assoc_opt k args in
  let workload = Option.value ~default:"" (get "--workload")
  and seed = Option.fold ~none:0 ~some:int_of_string (get "--seed")
  and seconds = Option.fold ~none:30 ~some:int_of_string (get "--seconds")
  and trace = get "--trace" = Some "1"
  and cpsdim = Option.value ~default:"" (get "--cpsdim") in
  if cpsdim = "" || not (List.mem workload workloads) then usage ();
  Util.mkdir_p out_dir;
  (* a run must end within its time limit whatever happens, and take
     its daemons and cpsdim processes with it when stopped *)
  let abort msg code =
    Sys.Signal_handle
      (fun _ ->
        prerr_endline ("bench: " ^ msg);
        Util.kill_all ();
        Unix._exit code)
  in
  Sys.set_signal Sys.sigalrm (abort "time limit reached" 3);
  Sys.set_signal Sys.sigterm (abort "terminated" 143);
  Sys.set_signal Sys.sigint (abort "interrupted" 130);
  ignore (Unix.alarm 170);
  let jobs = if workload = "serve-fleet" then 2 else 1 in
  let steal0 = Util.cpu_steal () in
  let calib = calib_ms () in
  print_env ~workload ~seed ~jobs ~calib;
  let metrics =
    if not trace then
      if workload = "paper-oneshot" then paper_untraced ~cpsdim ~seed ~seconds
      else fleet_untraced ~cpsdim ~seed
    else begin
      obs_init ();
      let rollup, ev, x, snap, e2e, phases =
        if workload = "paper-oneshot" then begin
          let rollup, ev, x, snap, e2e = paper_traced ~seed ~seconds in
          let layers = Rollup.layers rollup in
          Rollup.pp ~end_to_end_s:e2e layers;
          let largest =
            List.fold_left (fun (bn, bs) (n, l) -> if l.Rollup.self_s > bs then (n, l.Rollup.self_s) else (bn, bs))
              ("", 0.) layers
          in
          Printf.printf "prediction: engine is the largest self time -> %s (largest: %s)\n"
            (if fst largest = "engine" then "HOLDS" else "FAILS") (fst largest);
          (rollup, ev, x, snap, e2e, [])
        end
        else fleet_traced ~cpsdim ~seed
      in
      x.Layers.calib_ms <- calib;
      x.Layers.steal_frac <- Util.steal_since steal0;
      rollup_json ~workload ~seed ~e2e rollup phases;
      Layers.metrics ~snap ~rollup ~ev ~x ~end_to_end_s:e2e
    end
  in
  (* a busy host shows here, not only as slower figures *)
  Printf.printf "host: %.1f%% of CPU time stolen by the hypervisor during the run\n"
    (100. *. Util.steal_since steal0);
  emit metrics;
  exit (if !failed = 0 then 0 else 1)

let () =
  match Array.to_list Sys.argv with
  | [ _; "expected" ] ->
    Par.Pool.set_default_jobs 1;
    Util.write_file Gen.fleet_file
      (String.concat "\n" ("# shape\tverdict\tscreen" :: Gen.make_fleet_expected ()) ^ "\n")
  | _ :: rest ->
    let rec pairs = function
      | k :: v :: tl when String.length k > 2 && String.sub k 0 2 = "--" -> (k, v) :: pairs tl
      | [] -> []
      | _ -> usage ()
    in
    (try main (pairs rest)
     with e ->
       Printf.eprintf "bench: %s\n" (Printexc.to_string e);
       Util.kill_all ();
       exit 1)
  | [] -> usage ()
