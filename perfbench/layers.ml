(* Per-layer metrics of a traced run: the counters and histograms the
   library publishes through Obs, the spans the rollup attributes, and
   the harness's own timings of its calls into each layer.  Every
   workload reports every metric; a layer a workload bypasses reads 0. *)

type extras = {
  mutable screen_calls_harness : int;
  mutable screen_decided_frac : float;
  mutable screen_s : float;
  mutable store_load_s : float;
  mutable store_records : int;
  mutable store_bytes : int;
  mutable parse_us : float;
  mutable encode_us : float;
  mutable handle_p50_ms : float;
  mutable transport_ms : float;
  mutable ping_tail_ms : float;
  mutable campaign_s : float;
  mutable peak_heap_mb : float;
  mutable overhead_frac : float;
  mutable calib_ms : float;
  mutable steal_frac : float;
  mutable distinct_groups : int;
  mutable repeat_frac : float;
}

let extras () =
  {
    screen_calls_harness = 0;
    screen_decided_frac = 0.;
    screen_s = 0.;
    store_load_s = 0.;
    store_records = 0;
    store_bytes = 0;
    parse_us = 0.;
    encode_us = 0.;
    handle_p50_ms = 0.;
    transport_ms = 0.;
    ping_tail_ms = 0.;
    campaign_s = 0.;
    peak_heap_mb = 0.;
    overhead_frac = 0.;
    calib_ms = 0.;
    steal_frac = 0.;
    distinct_groups = 0;
    repeat_frac = 0.;
  }

(* search.done events of the discrete engine: dedup and cover hits are
   only published there *)
type engine_events = { mutable dedup : int; mutable cover : int }

let engine_events () = { dedup = 0; cover = 0 }

let absorb_events ev =
  List.iter
    (fun (e : Obs.Event.t) ->
      if e.Obs.Event.name = "search.done"
         && List.assoc_opt "engine" e.Obs.Event.fields = Some (Obs.Event.Str "dverify")
      then begin
        let int k = match List.assoc_opt k e.Obs.Event.fields with Some (Obs.Event.Int i) -> i | _ -> 0 in
        ev.dedup <- ev.dedup + int "dedup_hits";
        ev.cover <- ev.cover + int "cover_hits"
      end)
    (Obs.Event.drain ())

let counter snap name =
  List.fold_left
    (fun acc -> function Obs.Metric.Counter (n, v) when n = name -> acc + v | _ -> acc)
    0 snap

let counters_with_suffix snap prefix suffix =
  List.fold_left
    (fun acc -> function
      | Obs.Metric.Counter (n, v)
        when String.starts_with ~prefix n && String.ends_with ~suffix n -> acc + v
      | _ -> acc)
    0 snap

let hist snap name =
  List.find_map
    (function Obs.Metric.Histogram (n, s) when n = name -> Some s | _ -> None)
    snap

let hist_total snap name =
  match hist snap name with
  | Some s -> float_of_int s.Obs.Metric.n *. s.Obs.Metric.mean
  | None -> 0.

let hist_n snap name = match hist snap name with Some s -> s.Obs.Metric.n | None -> 0
let hist_p50 snap name = match hist snap name with Some s -> s.Obs.Metric.p50 | None -> 0.
let hist_mean snap name = match hist snap name with Some s -> s.Obs.Metric.mean | None -> 0.

let self_layers =
  [ "engine"; "dwell"; "cosim"; "campaign"; "service"; "transport"; "store"; "daemon";
    "harness"; "other" ]

(* (name, value, unit) in the order BENCHMARK.json lists them *)
let metrics ~snap ~(rollup : Rollup.t) ~ev ~(x : extras) ~end_to_end_s =
  let layers = Rollup.layers rollup in
  let layer name =
    Option.value ~default:{ Rollup.count = 0; total_s = 0.; self_s = 0. }
      (List.assoc_opt name layers)
  in
  let i = float_of_int in
  let dwell_tables = List.length (Rollup.spans_named rollup "dwell.compute") in
  let dwell_busy =
    Util.fsum (List.map (fun s -> s.Obs.Span.dur_s) (Rollup.spans_named rollup "dwell.compute"))
  in
  let dv = Rollup.spans_named rollup "dverify" in
  let engine_busy = Util.fsum (List.map (fun s -> s.Obs.Span.dur_s) dv) in
  let engine_minor = Util.fsum (List.map (fun s -> s.Obs.Span.gc_minor_w) dv) in
  let states = counter snap "dverify.states" in
  let screens = counter snap "prefilter.accepts" + counter snap "prefilter.rejects"
                + counter snap "prefilter.fallbacks" in
  let mem = counters_with_suffix snap "cache." ".mem"
  and disk = counters_with_suffix snap "cache." ".disk"
  and miss = counters_with_suffix snap "cache." ".engine" in
  let self_total = Util.fsum (List.map (fun (_, l) -> l.Rollup.self_s) layers) in
  [
    ("dwell.tables", i dwell_tables, "count");
    ("dwell.busy_s", dwell_busy, "s");
    ("dwell.ms_per_table", 1e3 *. Util.ratio dwell_busy (i dwell_tables), "ms");
    ("screen.calls", i (screens + x.screen_calls_harness), "count");
    ("screen.decided_frac", x.screen_decided_frac, "ratio");
    ("screen.busy_s", x.screen_s, "s");
    ("engine.runs", i (List.length dv), "count");
    ("engine.states", i states, "count");
    ("engine.transitions", i (counter snap "dverify.transitions"), "count");
    ("engine.dedup_hits", i ev.dedup, "count");
    ("engine.cover_hits", i ev.cover, "count");
    ("engine.busy_s", engine_busy, "s");
    ("engine.states_per_s", Util.ratio (i states) engine_busy, "1/s");
    ("engine.minor_words_per_state", Util.ratio engine_minor (i states), "words");
    ("engine.peak_heap_mb", x.peak_heap_mb, "MB");
    ("mapping.verifications", i (counter snap "mapping.model_checks"), "count");
    ("mapping.screened", i (counter snap "mapping.screened"), "count");
    ("mapping.self_s", (layer "mapping").Rollup.self_s, "s");
    ("cache.mem_hits", i mem, "count");
    ("cache.disk_hits", i disk, "count");
    ("cache.misses", i miss, "count");
    ("cache.hit_frac", Util.ratio (i (mem + disk)) (i (mem + disk + miss)), "ratio");
    ("store.load_s", x.store_load_s, "s");
    ("store.records", i x.store_records, "count");
    ("store.bytes", i x.store_bytes, "bytes");
    ("store.appends", i (counter snap "store.appends"), "count");
    ("store.append_us", 1e6 *. hist_mean snap "store.append_s", "us");
    ("pool.jobs", i (Par.Pool.jobs (Par.Pool.default ())), "count");
    ("pool.tasks", i (hist_n snap "pool.run_s"), "count");
    ("pool.batch_size_p50", hist_p50 snap "pool.batch_size", "count");
    ("pool.queue_wait_s", hist_total snap "pool.queue_wait_s", "s");
    ("pool.idle_s", hist_total snap "pool.idle_s", "s");
    ("protocol.parse_us", x.parse_us, "us");
    ("protocol.encode_us", x.encode_us, "us");
    ("service.handle_p50_ms", x.handle_p50_ms, "ms");
    ("daemon.transport_ms", x.transport_ms, "ms");
    ("daemon.ping_tail_ms", x.ping_tail_ms, "ms");
    ( "cosim.samples_per_s",
      Util.ratio (i (counter snap "cosim.samples")) (layer "cosim").Rollup.total_s,
      "1/s" );
    ("campaign.busy_s", x.campaign_s, "s");
    ("obs.overhead_frac", x.overhead_frac, "ratio");
    ("host.calib_ms", x.calib_ms, "ms");
    ("host.steal_frac", x.steal_frac, "ratio");
    ("traffic.distinct_groups", i x.distinct_groups, "count");
    ("traffic.repeat_frac", x.repeat_frac, "ratio");
  ]
  @ List.map (fun l -> ("self." ^ l ^ "_s", (layer l).Rollup.self_s, "s")) self_layers
  @ [
      ("rollup.end_to_end_s", end_to_end_s, "s");
      ("rollup.accounted_frac", Util.ratio self_total end_to_end_s, "ratio");
    ]
