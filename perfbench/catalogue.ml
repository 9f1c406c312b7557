(* Every metric the benchmark reports, as BENCHMARK.json lists them.
   An untraced run prints the end-to-end metrics, a traced run the
   per-layer ones.  README.md says what each one measures. *)

type better = Lower | Higher

type metric = { name : string; unit : string; better : better }

let m name unit better = { name; unit; better }

let end_to_end =
  [
    m "setup_s" "s" Lower;
    m "route_s" "s" Lower;
    m "req_p50_ms" "ms" Lower;
    m "req_p90_ms" "ms" Lower;
    m "req_per_s" "1/s" Higher;
    m "routed_frac" "fraction" Higher;
    m "wirelength" "count" Lower;
    m "vias" "count" Lower;
    m "peak_heap_mb" "MB" Lower;
  ]

(* Layers of the router the spans are attributed to, for self times. *)
let layers =
  [ "netlist"; "maze"; "core"; "drc"; "analyze"; "flow"; "grid"; "service"; "bench" ]

let layer_of_span = function
  | "parse" | "instantiate" -> "netlist"
  | "maze" -> "maze"
  | "engine" | "improve" | "session" -> "core"
  | "drc" -> "drc"
  | "analyze" -> "analyze"
  | "flow" -> "flow"
  | "grid.copy" -> "grid"
  | "request" -> "service"
  | _ -> "bench"

let per_layer =
  [
    m "netlist.parse_ms" "ms" Lower;
    m "engine.route_ms" "ms" Lower;
    m "engine.alloc_mwords" "Mwords" Lower;
    m "engine.major_gcs" "count" Lower;
    m "engine.us_per_expansion" "us" Lower;
    m "engine.ms_per_search" "ms" Lower;
    m "engine.searches" "count" Lower;
    m "engine.expanded" "count" Lower;
    m "engine.expanded_weak" "count" Lower;
    m "engine.expanded_strong" "count" Lower;
    m "engine.rips" "count" Lower;
    m "engine.shoves" "count" Lower;
    m "engine.cache_hits" "count" Higher;
    m "maze.expanded" "count" Lower;
    m "maze.us_per_expansion" "us" Lower;
    m "improve.refine_ms" "ms" Lower;
    m "improve.alloc_mwords" "Mwords" Lower;
    m "improve.planned" "count" Lower;
    m "improve.skip_ratio" "fraction" Higher;
    m "drc.check_ms" "ms" Lower;
    m "drc.alloc_mwords" "Mwords" Lower;
    m "drc.major_gcs" "count" Lower;
    m "svc.rip_p50_ms" "ms" Lower;
    m "svc.route_p50_ms" "ms" Lower;
    m "svc.verify_p50_ms" "ms" Lower;
    m "svc.refine_p50_ms" "ms" Lower;
    m "svc.analyze_p50_ms" "ms" Lower;
    m "session.rip_ms" "ms" Lower;
    m "session.route_ms" "ms" Lower;
    m "session.verify_ms" "ms" Lower;
    m "session.refine_ms" "ms" Lower;
    m "svc.overhead_ms" "ms" Lower;
    m "svc.wal_bytes_per_mutation" "bytes" Lower;
    m "svc.snapshot_bytes" "bytes" Lower;
    m "grid.copy_ms" "ms" Lower;
    m "analyze.run_ms" "ms" Lower;
    m "analyze.cost" "count" Lower;
    m "place.ms" "ms" Lower;
    m "place.accept_ratio" "fraction" Higher;
    m "groute.ms" "ms" Lower;
    m "flow.route_ms" "ms" Lower;
    m "guide.hit_rate" "fraction" Higher;
    m "guide.fallbacks" "count" Lower;
  ]
  @ List.map (fun l -> m (l ^ ".self_ms") "ms" Lower) layers
  @ [ m "trace.overhead_ms" "ms" Lower ]
