(* Tests for the domain pool (lib/par) and for the determinism
   guarantee of every parallel entry point: mapping packings, campaign
   summaries and dwell tables must be byte-identical at --jobs 1, 2 and
   4 — including under fault plans and budget (Undetermined) outcomes.
   Also the regression test for the Ta.Reach stats counters, which used
   to live in process-global mutable state. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* run [f] with the default pool sized [jobs], restoring the previous
   size afterwards *)
let with_default_jobs jobs f =
  let saved = Par.Pool.default_jobs () in
  Fun.protect
    ~finally:(fun () -> Par.Pool.set_default_jobs saved)
    (fun () ->
      Par.Pool.set_default_jobs jobs;
      f ())

(* run [f] once per default-pool size and return the results in jobs
   order *)
let at_jobs sizes f = List.map (fun jobs -> with_default_jobs jobs f) sizes

let all_equal = function
  | [] | [ _ ] -> true
  | x :: rest -> List.for_all (( = ) x) rest

(* ------------------------------------------------------------------ *)
(* Pool *)

let test_pool_map_order () =
  List.iter
    (fun jobs ->
      let pool = Par.Pool.create ~jobs in
      let input = Array.init 97 Fun.id in
      let out = Par.Pool.map_array pool (fun x -> (x * x) + 1) input in
      Par.Pool.shutdown pool;
      check_bool
        (Printf.sprintf "map_array = Array.map at jobs=%d" jobs)
        true
        (out = Array.map (fun x -> (x * x) + 1) input))
    [ 1; 2; 4 ]

let test_pool_map_list_order () =
  let pool = Par.Pool.create ~jobs:3 in
  let out = Par.Pool.map_list pool string_of_int (List.init 41 Fun.id) in
  Par.Pool.shutdown pool;
  check_bool "map_list preserves order" true
    (out = List.init 41 string_of_int)

let test_pool_empty_and_singleton () =
  let pool = Par.Pool.create ~jobs:4 in
  check_bool "empty array" true (Par.Pool.map_array pool Fun.id [||] = [||]);
  check_bool "singleton" true (Par.Pool.map_array pool succ [| 7 |] = [| 8 |]);
  Par.Pool.shutdown pool

let test_pool_exception_smallest_index () =
  List.iter
    (fun jobs ->
      let pool = Par.Pool.create ~jobs in
      let raised =
        try
          ignore
            (Par.Pool.map_array pool
               (fun i -> if i >= 53 then failwith (string_of_int i) else i)
               (Array.init 100 Fun.id));
          "no exception"
        with Failure m -> m
      in
      Par.Pool.shutdown pool;
      check_string
        (Printf.sprintf "smallest failing index at jobs=%d" jobs)
        "53" raised)
    [ 1; 2; 4 ]

let test_pool_nested_map () =
  (* a task running on the pool may map on the same pool: helping makes
     this deadlock-free *)
  let pool = Par.Pool.create ~jobs:2 in
  let out =
    Par.Pool.map_list pool
      (fun row ->
        Par.Pool.map_list pool (fun col -> (row * 10) + col) [ 0; 1; 2 ])
      [ 0; 1; 2; 3 ]
  in
  Par.Pool.shutdown pool;
  check_bool "nested map on the same pool" true
    (out
    = List.init 4 (fun row -> List.init 3 (fun col -> (row * 10) + col)))

let test_pool_submit_await () =
  let pool = Par.Pool.create ~jobs:2 in
  let fut = Par.Pool.submit pool (fun () -> 6 * 7) in
  check_int "submit/await" 42 (Par.Pool.await pool fut);
  Par.Pool.shutdown pool

let test_pool_jobs_one_is_caller_only () =
  let pool = Par.Pool.create ~jobs:1 in
  let here = Domain.self () in
  let domains =
    Par.Pool.map_list pool (fun _ -> Domain.self ()) [ 0; 1; 2; 3 ]
  in
  Par.Pool.shutdown pool;
  check_bool "jobs=1 runs everything on the caller" true
    (List.for_all (( = ) here) domains)

let test_pool_rejects_bad_jobs () =
  check_bool "jobs=0 rejected" true
    (try
       ignore (Par.Pool.create ~jobs:0);
       false
     with Invalid_argument _ -> true)

let test_pool_shutdown_idempotent () =
  let pool = Par.Pool.create ~jobs:3 in
  ignore (Par.Pool.map_list pool succ [ 1; 2; 3 ]);
  Par.Pool.shutdown pool;
  Par.Pool.shutdown pool

let test_pool_submit_list () =
  List.iter
    (fun jobs ->
      let pool = Par.Pool.create ~jobs in
      let futs =
        Par.Pool.submit_list pool (List.init 9 (fun i () -> i * i))
      in
      check_bool
        (Printf.sprintf "submit_list/await_list order at jobs=%d" jobs)
        true
        (Par.Pool.await_list pool futs = List.init 9 (fun i -> i * i));
      (* a sharded thunk may itself fan out on the same pool (the serve
         layer's shape: across groups outside, within a group inside) *)
      let nested =
        Par.Pool.submit_list pool
          (List.init 4 (fun row () ->
               Par.Pool.map_list pool (fun col -> (row * 10) + col) [ 0; 1; 2 ]))
      in
      check_bool
        (Printf.sprintf "nested map inside submit_list at jobs=%d" jobs)
        true
        (Par.Pool.await_list pool nested
        = List.init 4 (fun row -> List.init 3 (fun col -> (row * 10) + col)));
      Par.Pool.shutdown pool)
    [ 1; 2; 4 ]

(* run [f] with fd 2 teed into a temp file, returning (result, stderr) *)
let capture_stderr f =
  let file = Filename.temp_file "cpsdim-test" ".stderr" in
  flush stderr;
  let saved = Unix.dup Unix.stderr in
  let fd = Unix.openfile file [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  Unix.dup2 fd Unix.stderr;
  Unix.close fd;
  let r =
    Fun.protect
      ~finally:(fun () ->
        flush stderr;
        Unix.dup2 saved Unix.stderr;
        Unix.close saved)
      f
  in
  let captured = In_channel.with_open_bin file In_channel.input_all in
  Sys.remove file;
  (r, captured)

let test_env_jobs_warns_once () =
  (* the regression: "four" or "0" silently coerced to 1, so a
     misconfigured fleet quietly ran sequential — now the coercion
     stands but announces itself once, naming the rejected value *)
  let saved = Sys.getenv_opt "CPSDIM_JOBS" in
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "CPSDIM_JOBS" (Option.value saved ~default:"1"))
    (fun () ->
      Unix.putenv "CPSDIM_JOBS" "6";
      let j, err = capture_stderr Par.Pool.env_jobs in
      check_int "valid value honoured" 6 j;
      check_string "no warning for a valid value" "" err;
      Unix.putenv "CPSDIM_JOBS" "four";
      let j, err = capture_stderr Par.Pool.env_jobs in
      check_int "invalid value coerced to 1" 1 j;
      check_bool "warning names the rejected value" true
        (let sub = "CPSDIM_JOBS=\"four\"" in
         let rec find i =
           i + String.length sub <= String.length err
           && (String.equal (String.sub err i (String.length sub)) sub
              || find (i + 1))
         in
         find 0);
      Unix.putenv "CPSDIM_JOBS" "0";
      let j, err = capture_stderr Par.Pool.env_jobs in
      check_int "zero coerced to 1" 1 j;
      check_string "warning emitted only once per process" "" err)

(* ------------------------------------------------------------------ *)
(* Vcache *)

let test_vcache_memoises () =
  let c = Par.Vcache.create () in
  let computed = ref 0 in
  let get () =
    Par.Vcache.find_or_add c "k"
      (fun () ->
        incr computed;
        !computed)
  in
  check_int "first call computes" 1 (get ());
  check_int "second call is a hit" 1 (get ());
  check_int "compute ran once" 1 !computed;
  check_int "hits" 1 (Par.Vcache.hits c);
  check_int "misses" 1 (Par.Vcache.misses c);
  check_int "length" 1 (Par.Vcache.length c)

let test_vcache_distinct_keys () =
  let c = Par.Vcache.create () in
  List.iter
    (fun k ->
      check_string "value per key" k
        (Par.Vcache.find_or_add c k (fun () -> k)))
    [ "a"; "b"; "c"; "a" ];
  check_int "three distinct keys" 3 (Par.Vcache.length c);
  check_int "one hit (the repeated a)" 1 (Par.Vcache.hits c)

let test_vcache_shared_across_domains () =
  let c = Par.Vcache.create () in
  let pool = Par.Pool.create ~jobs:4 in
  let out =
    Par.Pool.map_list pool
      (fun i ->
        Par.Vcache.find_or_add c
          (string_of_int (i mod 3))
          (fun () -> i mod 3))
      (List.init 60 Fun.id)
  in
  Par.Pool.shutdown pool;
  check_bool "every lookup consistent" true
    (List.mapi (fun i v -> v = i mod 3) out |> List.for_all Fun.id);
  check_int "exactly three keys despite races" 3 (Par.Vcache.length c)

(* ------------------------------------------------------------------ *)
(* Shared fixtures for the determinism tests *)

let plant =
  Control.Plant.make
    ~phi:(Linalg.Mat.of_rows [ [ 0.95; 0.08 ]; [ 0.; 0.9 ] ])
    ~gamma:[| 0.004; 0.08 |] ~c:[| 1.; 0. |] ~h:0.02

let gains =
  let kt = Control.Pole_place.place_tt plant [ (0.25, 0.); (0.3, 0.) ] in
  let ke =
    Control.Pole_place.place_et plant [ (0.82, 0.); (0.85, 0.); (0.3, 0.) ]
  in
  Control.Switched.make_gains plant ~kt ~ke

let app ?(r = 120) name = Core.App.make ~name ~plant ~gains ~r ~j_star:25 ()

let apps = lazy [ app "A"; app ~r:130 "B"; app ~r:140 "C" ]

let spec ?(name = "S") ?(id = 0) ~t_w_max ~dmin ~dmax ~r () =
  Sched.Appspec.make ~id ~name ~t_w_max
    ~t_dw_min:(Array.make (t_w_max + 1) dmin)
    ~t_dw_max:(Array.make (t_w_max + 1) dmax)
    ~r

let pair ~r =
  [|
    spec ~name:"A" ~id:0 ~t_w_max:1 ~dmin:3 ~dmax:4 ~r ();
    spec ~name:"B" ~id:1 ~t_w_max:2 ~dmin:2 ~dmax:5 ~r ();
  |]

(* ------------------------------------------------------------------ *)
(* Mapping determinism *)

let outcome_string o = Format.asprintf "%a" Core.Mapping.pp o

let test_mapping_deterministic () =
  let packings =
    at_jobs [ 1; 2; 4 ] (fun () ->
        let cache = Core.Mapping.create_cache () in
        outcome_string (Core.Mapping.first_fit ~cache (Lazy.force apps)))
  in
  check_bool "first-fit packing byte-identical at jobs 1/2/4" true
    (all_equal packings)

let test_mapping_deterministic_under_budget () =
  (* a verifier whose state budget runs out: Undetermined outcomes
     must still merge deterministically *)
  let verifier specs =
    match (Core.Dverify.verify ~max_states:40 specs).Core.Dverify.verdict with
    | Core.Dverify.Safe -> `Safe
    | Core.Dverify.Unsafe _ -> `Unsafe
    | Core.Dverify.Undetermined r ->
      `Undetermined (Format.asprintf "%a" Core.Dverify.pp_reason r)
  in
  let outcomes =
    at_jobs [ 1; 2; 4 ] (fun () ->
        let o =
          Core.Mapping.first_fit
            ~cache:(Core.Mapping.create_cache ())
            ~verifier (Lazy.force apps)
        in
        (outcome_string o, o.Core.Mapping.undetermined))
  in
  check_bool "budgeted mapping byte-identical" true (all_equal outcomes);
  match outcomes with
  | (_, undetermined) :: _ ->
    check_bool "budget actually bit" true (undetermined > 0)
  | [] -> assert false

let test_mapping_cache_shared_with_optimal () =
  (* analytic screen off: screened probes are answered ahead of the
     cache, so only unscreened runs make the sharing observable *)
  let cache = Core.Mapping.create_cache () in
  let ff =
    with_default_jobs 2 (fun () ->
        Core.Mapping.first_fit ~cache ~prefilter:false (Lazy.force apps))
  in
  let opt = Core.Mapping.optimal ~cache ~prefilter:false (Lazy.force apps) in
  let hits, misses = Core.Mapping.cache_stats cache in
  check_bool "optimal reused first-fit verdicts" true (hits > 0);
  check_bool "some probes were fresh" true (misses > 0);
  check_int "same slot count" (List.length ff.Core.Mapping.slots)
    (List.length opt.Core.Mapping.slots)

let test_mapping_cache_does_not_change_counts () =
  (* verifications counts logical questions, so a warm cache must not
     alter the reported outcome *)
  let cache = Core.Mapping.create_cache () in
  let cold = Core.Mapping.first_fit ~cache (Lazy.force apps) in
  let warm = Core.Mapping.first_fit ~cache (Lazy.force apps) in
  check_string "cold = warm outcome" (outcome_string cold)
    (outcome_string warm)

(* ------------------------------------------------------------------ *)
(* Dwell determinism *)

let test_dwell_deterministic () =
  let tables =
    at_jobs [ 1; 2; 4 ] (fun () -> Core.Dwell.compute plant gains ~j_star:25)
  in
  check_bool "dwell table byte-identical at jobs 1/2/4" true
    (all_equal tables)

(* ------------------------------------------------------------------ *)
(* Campaign determinism *)

let slots = lazy [ [ app "A"; app ~r:130 "B" ]; [ app ~r:140 "C" ] ]

let campaign ?groups ~spec_str () =
  let spec =
    match Faults.Spec.parse spec_str with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let groups = Option.value groups ~default:(Lazy.force slots) in
  Cosim.Campaign.run ~spec ~seed:42L ~runs:4 ~horizon:120 groups

let check_campaign_deterministic summaries =
  check_bool "campaign summary byte-identical at jobs 1/2/4" true
    (all_equal summaries);
  match summaries with
  | Ok s :: _ -> check_bool "runs recorded" true (s.Cosim.Campaign.slots <> [])
  | Error e :: _ -> Alcotest.fail e
  | [] -> assert false

let test_campaign_deterministic () =
  (* a spec's app clauses must name apps of every slot group (each slot
     materialises it separately), so the multi-slot case sticks to
     blackouts *)
  check_campaign_deterministic
    (at_jobs [ 1; 2; 4 ] (campaign ~spec_str:"blackout:p=0.05,len=3"))

let test_campaign_deterministic_app_faults () =
  check_campaign_deterministic
    (at_jobs [ 1; 2; 4 ]
       (campaign
          ~groups:[ [ app "A"; app ~r:130 "B" ] ]
          ~spec_str:"loss:A@p=0.1;drop:B@p=0.05;burst:A@7"))

let test_campaign_error_deterministic () =
  (* a spec naming an unknown app fails materialisation; the error and
     its precedence must not depend on the pool size *)
  let errors = at_jobs [ 1; 2; 4 ] (campaign ~spec_str:"burst:NOSUCH@5") in
  check_bool "error byte-identical at jobs 1/2/4" true (all_equal errors);
  match errors with
  | Error _ :: _ -> ()
  | Ok _ :: _ -> Alcotest.fail "expected a materialisation error"
  | [] -> assert false

(* ------------------------------------------------------------------ *)
(* Ta.Reach stats isolation (regression: the extrapolation counter was
   a module-global ref, so concurrent runs corrupted each other) *)

let test_reach_stats_domain_isolated () =
  let g = pair ~r:30 in
  let reference = Core.Ta_model.verify g in
  let spawn () = Domain.spawn (fun () -> Core.Ta_model.verify g) in
  let a = spawn () and b = spawn () in
  let ra = Domain.join a and rb = Domain.join b in
  check_bool "reference run extrapolates" true
    (reference.Core.Ta_model.stats.Ta.Reach.extrapolations > 0);
  List.iter
    (fun (r : Core.Ta_model.result) ->
      check_int "concurrent run sees its own count"
        reference.Core.Ta_model.stats.Ta.Reach.extrapolations
        r.Core.Ta_model.stats.Ta.Reach.extrapolations;
      check_bool "same outcome" true
        (r.Core.Ta_model.outcome = reference.Core.Ta_model.outcome))
    [ ra; rb ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          Alcotest.test_case "map_array order" `Quick test_pool_map_order;
          Alcotest.test_case "map_list order" `Quick test_pool_map_list_order;
          Alcotest.test_case "empty/singleton" `Quick
            test_pool_empty_and_singleton;
          Alcotest.test_case "smallest-index exception" `Quick
            test_pool_exception_smallest_index;
          Alcotest.test_case "nested map" `Quick test_pool_nested_map;
          Alcotest.test_case "submit/await" `Quick test_pool_submit_await;
          Alcotest.test_case "jobs=1 caller-only" `Quick
            test_pool_jobs_one_is_caller_only;
          Alcotest.test_case "jobs=0 rejected" `Quick
            test_pool_rejects_bad_jobs;
          Alcotest.test_case "shutdown idempotent" `Quick
            test_pool_shutdown_idempotent;
          Alcotest.test_case "submit_list shards and nests" `Quick
            test_pool_submit_list;
          Alcotest.test_case "invalid CPSDIM_JOBS warns once" `Quick
            test_env_jobs_warns_once;
        ] );
      ( "vcache",
        [
          Alcotest.test_case "memoises" `Quick test_vcache_memoises;
          Alcotest.test_case "distinct keys" `Quick test_vcache_distinct_keys;
          Alcotest.test_case "shared across domains" `Quick
            test_vcache_shared_across_domains;
        ] );
      ( "mapping determinism",
        [
          Alcotest.test_case "packing" `Slow test_mapping_deterministic;
          Alcotest.test_case "budgeted packing" `Quick
            test_mapping_deterministic_under_budget;
          Alcotest.test_case "cache shared with optimal" `Slow
            test_mapping_cache_shared_with_optimal;
          Alcotest.test_case "cache warmth invisible" `Slow
            test_mapping_cache_does_not_change_counts;
        ] );
      ( "dwell determinism",
        [ Alcotest.test_case "table" `Slow test_dwell_deterministic ] );
      ( "campaign determinism",
        [
          Alcotest.test_case "summary" `Quick test_campaign_deterministic;
          Alcotest.test_case "app faults" `Quick
            test_campaign_deterministic_app_faults;
          Alcotest.test_case "error path" `Quick
            test_campaign_error_deterministic;
        ] );
      ( "reach stats",
        [
          Alcotest.test_case "domain isolated" `Quick
            test_reach_stats_domain_isolated;
        ] );
    ]
