(* One run of one workload: set-up, the timed loop, the correctness gate
   and, with tracing on, the per-layer probes. *)

open Inputs
module J = Util.Json

let fi = float_of_int
let sum = List.fold_left ( +. ) 0.
let sumi f xs = List.fold_left (fun a x -> a + f x) 0 xs
let meanf f xs = Quant.mean (List.map f xs)

(* Per-span-name totals of the traced run; also sets every layer's
   self time. *)
let span_totals () =
  let t = Probe.totals () in
  let selfs = Hashtbl.create 8 in
  Hashtbl.iter
    (fun name (x : Probe.total) ->
      let l = Catalogue.layer_of_span name in
      Hashtbl.replace selfs l
        (x.Probe.self +. Option.value (Hashtbl.find_opt selfs l) ~default:0.))
    t;
  List.iter
    (fun l ->
      Out.set (l ^ ".self_ms") (Option.value (Hashtbl.find_opt selfs l) ~default:0.))
    Catalogue.layers;
  fun name -> Option.value (Hashtbl.find_opt t name) ~default:Probe.zero

(* Mean wall ms, allocated Mwords and major collections per span. *)
let per_call total name =
  let t : Probe.total = total name in
  if t.Probe.n = 0 then (0., 0., 0.)
  else
    let n = fi t.Probe.n in
    (t.Probe.wall /. n, t.Probe.alloc /. n /. 1e6, fi t.Probe.gcs /. n)

let set_engine_counts (stats : Router.Engine.stats list) =
  let mean f = meanf (fun s -> fi (f s)) stats in
  Out.set "engine.searches" (mean (fun s -> s.Router.Engine.searches));
  Out.set "engine.expanded" (mean (fun s -> s.Router.Engine.expanded));
  Out.set "engine.expanded_weak"
    (mean (fun s -> s.Router.Engine.effort.Router.Outcome.weak_expanded));
  Out.set "engine.expanded_strong"
    (mean (fun s -> s.Router.Engine.effort.Router.Outcome.strong_expanded));
  Out.set "engine.rips" (mean (fun s -> s.Router.Engine.rips));
  Out.set "engine.shoves" (mean (fun s -> s.Router.Engine.shoves));
  Out.set "engine.cache_hits"
    (mean (fun s -> s.Router.Engine.par.Router.Outcome.cache_hits))

(* [ms] is the total engine wall time over [stats]. *)
let set_engine_rates ~ms (stats : Router.Engine.stats list) =
  let expanded = sumi (fun s -> s.Router.Engine.expanded) stats in
  let searches = sumi (fun s -> s.Router.Engine.searches) stats in
  if expanded > 0 then Out.set "engine.us_per_expansion" (ms *. 1000. /. fi expanded);
  if searches > 0 then Out.set "engine.ms_per_search" (ms /. fi searches)

let set_refine (stats : Router.Improve.stats list) total =
  let ms, alloc, _ = per_call total "improve" in
  Out.set "improve.refine_ms" ms;
  Out.set "improve.alloc_mwords" alloc;
  Out.set "improve.planned" (meanf (fun s -> fi s.Router.Improve.planned) stats);
  let skips =
    sumi (fun s -> s.Router.Improve.skipped_cert + s.Router.Improve.skipped_bound) stats
  in
  let visits = skips + sumi (fun s -> s.Router.Improve.planned) stats in
  if visits > 0 then Out.set "improve.skip_ratio" (fi skips /. fi visits)

let set_drc total =
  let ms, alloc, gcs = per_call total "drc" in
  Out.set "drc.check_ms" ms;
  Out.set "drc.alloc_mwords" alloc;
  Out.set "drc.major_gcs" gcs

let set_engine_span total =
  let _, alloc, gcs = per_call total "engine" in
  Out.set "engine.alloc_mwords" alloc;
  Out.set "engine.major_gcs" gcs

let probe_grid_copy g =
  for _ = 1 to 10 do
    ignore (Probe.span "grid.copy" (fun () -> Grid.copy g))
  done

let probe_maze problem =
  let expanded, secs = Batch.maze_probe problem in
  Out.seti "maze.expanded" expanded;
  if expanded > 0 then Out.set "maze.us_per_expansion" (secs *. 1e6 /. fi expanded)

(* --- batch workloads --------------------------------------------------- *)

(* A chip_route pass takes longer than a run's measuring time; three
   passes keep its median clear of one slow pass. *)
let min_passes = 3

let run_batch ~size w ~seconds ~trace =
  let text = problem_text size w in
  let setup_s, problem = Batch.setup text in
  Out.set "setup_s" setup_s;
  let pass = if w = Macro_flow then Batch.flow_pass else Batch.detail_pass in
  let t_end = Probe.now () +. seconds in
  let first = pass problem in
  let rec repeat times =
    if List.length times >= min_passes && Probe.now () >= t_end then times
    else begin
      let r = pass problem in
      Out.require (r.Batch.digest = first.Batch.digest)
        "layout differs across repetitions of one seed";
      repeat (r.Batch.ms :: times)
    end
  in
  let times = repeat [ first.Batch.ms ] in
  let median = Quant.median times in
  Out.set "route_s" (median /. 1000.);
  Out.set "req_p50_ms" (Quant.percentile 0.5 times);
  Out.set "req_p90_ms" (Quant.percentile 0.9 times);
  Out.set "req_per_s" (fi (List.length times) /. (sum times /. 1000.));
  Out.set "routed_frac" (fi first.Batch.routed /. fi first.Batch.nontrivial);
  Out.seti "wirelength" first.Batch.wirelength;
  Out.seti "vias" first.Batch.vias;
  Out.note "requests" (J.Int (List.length times));
  Out.note "request" (J.String "one pass: parsed problem to checked layout");
  Out.require (first.Batch.routed = first.Batch.nontrivial) "routed_frac < 1";
  if trace then begin
    Probe.enabled := true;
    ignore (Batch.setup text);
    let traced = pass problem in
    Out.require (traced.Batch.digest = first.Batch.digest)
      "layout differs with tracing on";
    Out.set "trace.overhead_ms" (traced.Batch.ms -. median);
    let routed = traced.Batch.routed_problem in
    probe_grid_copy traced.Batch.grid;
    let a = Probe.span "analyze" (fun () -> Analyze.run routed) in
    Out.seti "analyze.cost" a.Analyze.cost;
    probe_maze routed;
    Probe.enabled := false;
    let total = span_totals () in
    let stats = traced.Batch.stats in
    set_engine_counts [ stats ];
    Out.set "netlist.parse_ms" (let ms, _, _ = per_call total "parse" in ms);
    Out.set "grid.copy_ms" (let ms, _, _ = per_call total "grid.copy" in ms);
    Out.set "analyze.run_ms" (let ms, _, _ = per_call total "analyze" in ms);
    set_drc total;
    match traced.Batch.flow with
    | Some f ->
        let ms ns = Int64.to_float ns /. 1e6 in
        let route_ms = ms f.Flow.route_ns in
        Out.set "engine.route_ms" route_ms;
        Out.set "flow.route_ms" route_ms;
        set_engine_rates ~ms:route_ms [ stats ];
        Out.set "place.ms" (ms f.Flow.place_ns);
        Out.set "groute.ms" (ms f.Flow.groute_ns);
        Option.iter
          (fun p ->
            if p.Place.moves > 0 then
              Out.set "place.accept_ratio" (fi p.Place.accepted /. fi p.Place.moves))
          f.Flow.place;
        let g = stats.Router.Engine.guide in
        let hits = g.Router.Outcome.hits and fallbacks = g.Router.Outcome.fallbacks in
        if hits + fallbacks > 0 then
          Out.set "guide.hit_rate" (fi hits /. fi (hits + fallbacks));
        Out.seti "guide.fallbacks" fallbacks
    | None ->
        let ms, _, _ = per_call total "engine" in
        Out.set "engine.route_ms" ms;
        set_engine_span total;
        set_engine_rates ~ms [ stats ];
        set_refine (Option.to_list traced.Batch.refine) total
  end

(* --- eco_session ------------------------------------------------------- *)

let setup_reps_eco = 5

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* The service's data directory lives under the working directory, so a
   run touches nothing outside its checkout. *)
let work_dir () =
  let root = "_perfbench" in
  if not (Sys.file_exists root) then Sys.mkdir root 0o755;
  let dir = Filename.concat root (Printf.sprintf "eco-%d" (Unix.getpid ())) in
  if Sys.file_exists dir then remove_tree dir;
  Sys.mkdir dir 0o755;
  dir

let by_kind kind samples =
  List.filter_map (fun (k, ms) -> if k = kind then Some ms else None) samples

let run_eco ~size ~seed ~seconds ~trace =
  let problem = chip_block size in
  let text = text problem in
  let names = Eco.rippable problem in
  let dir = work_dir () in
  Fun.protect ~finally:(fun () -> remove_tree dir) @@ fun () ->
  let c = Eco.start dir in
  let sessions = List.init setup_reps_eco (fun i -> Printf.sprintf "s%d" i) in
  let setups = List.map (fun s -> Eco.open_and_route c s text) sessions in
  Out.set "setup_s" (Quant.median (List.map fst setups));
  Out.note "setup_samples_s" (J.List (List.map (fun (s, _) -> J.Float s) setups));
  let renders = List.map (Eco.render c) sessions in
  List.iter
    (fun r ->
      Out.require (r = List.hd renders)
        "initial layout differs across repetitions of one seed")
    renders;
  let session = List.nth sessions (setup_reps_eco - 1) in
  let cmin = Eco.min_cycles ~seed names in
  let stop cyc elapsed = cyc >= cmin && (trace || elapsed >= seconds) in
  let loop = Eco.run_loop c ~session ~next:(Eco.script ~seed names) ~stop in
  let lat = List.map (fun s -> s.Eco.ms) loop.Eco.samples in
  Out.set "route_s" (Quant.median loop.Eco.cycle_ms /. 1000.);
  Out.set "req_p50_ms" (Quant.percentile 0.5 lat);
  Out.set "req_p90_ms" (Quant.percentile 0.9 lat);
  Out.set "req_per_s" (fi (List.length lat) /. loop.Eco.wall_s);
  (* Quality is read off the set-up route: the layout after the edit
     loop depends on which nets the seed's script ripped. *)
  let q = snd (List.nth setups (setup_reps_eco - 1)) in
  let routed = Eco.int_field "routed" q in
  let failed =
    match Eco.member "failed" q with J.List l -> List.length l | _ -> -1
  in
  Out.set "routed_frac" (fi routed /. fi (routed + failed));
  Out.seti "wirelength" (Eco.int_field "wirelength" q);
  Out.seti "vias" (Eco.int_field "vias" q);
  Out.note "requests" (J.Int (List.length lat));
  Out.note "cycles" (J.Int loop.Eco.cycles);
  Out.note "request" (J.String "one line-protocol request, closed loop, one client");
  let final = Eco.render c session in
  if not trace then Eco.shutdown c
  else begin
    (* The same script again on a fresh session, traced. *)
    let tsession = "traced" in
    ignore (Eco.open_and_route c tsession text);
    Probe.enabled := true;
    let tloop =
      Eco.run_loop ~wal:true c ~session:tsession ~next:(Eco.script ~seed names)
        ~stop:(fun cyc _ -> cyc >= loop.Eco.cycles)
    in
    Probe.enabled := false;
    Out.require (Eco.render c tsession = final)
      "layout differs across repetitions of one script";
    Eco.shutdown c;
    Out.set "trace.overhead_ms"
      (Quant.median tloop.Eco.cycle_ms -. Quant.median loop.Eco.cycle_ms);
    if tloop.Eco.wal_appends > 0 then
      Out.set "svc.wal_bytes_per_mutation"
        (fi tloop.Eco.wal_bytes /. fi tloop.Eco.wal_appends);
    Out.seti "svc.snapshot_bytes"
      (Eco.file_size (Filename.concat dir (tsession ^ ".snap")));
    Probe.enabled := true;
    for _ = 1 to setup_reps_eco do
      ignore (Batch.parse text)
    done;
    let r = Eco.replay problem ~next:(Eco.script ~seed names) ~cycles:loop.Eco.cycles in
    let grid = Router.Session.grid r.Eco.final in
    Out.require (Viz.Ascii.render grid = final)
      "in-process session layout differs from the service's";
    probe_grid_copy grid;
    probe_maze problem;
    Probe.enabled := false;
    let total = span_totals () in
    let client = List.map (fun s -> (s.Eco.step.Eco.kind, s.Eco.ms)) loop.Eco.samples in
    List.iter
      (fun k ->
        let name = Eco.kind_name k in
        Out.set
          (Printf.sprintf "svc.%s_p50_ms" name)
          (Quant.median (by_kind k client));
        if k <> Eco.Analyze then
          Out.set
            (Printf.sprintf "session.%s_ms" name)
            (Quant.median (by_kind k r.Eco.times)))
      Eco.kinds;
    Out.set "svc.overhead_ms"
      (Quant.median (List.map2 (fun (_, a) (_, b) -> a -. b) client r.Eco.times));
    Out.set "analyze.run_ms" (Quant.median (by_kind Eco.Analyze r.Eco.times));
    Out.set "analyze.cost" (Quant.mean (List.map fi r.Eco.analyze_cost));
    Out.set "netlist.parse_ms" (let ms, _, _ = per_call total "parse" in ms);
    Out.set "grid.copy_ms" (let ms, _, _ = per_call total "grid.copy" in ms);
    let engine_ms = List.map fst r.Eco.engine in
    Out.set "engine.route_ms" (Quant.median engine_ms);
    set_engine_span total;
    set_engine_rates ~ms:(sum engine_ms) (List.map snd r.Eco.engine);
    set_engine_counts (List.map snd r.Eco.engine);
    set_refine r.Eco.refine_stats total;
    set_drc total
  end

(* --- entry point ------------------------------------------------------- *)

let run ?(size = Full) w ~seed ~seconds ~trace =
  Out.reset ();
  (match w with
  | Eco_session -> run_eco ~size ~seed ~seconds ~trace
  | Chip_route | Switchbox_route | Macro_flow ->
      run_batch ~size w ~seconds ~trace);
  let words = (Gc.quick_stat ()).Gc.top_heap_words in
  Out.set "peak_heap_mb" (fi (words * (Sys.word_size / 8)) /. 1e6)

(* The run's result as the last line of output: with tracing the
   per-layer metrics (0 where the workload does not reach the layer),
   without it the end-to-end ones. *)
let result_json ~trace =
  let wanted = if trace then Catalogue.per_layer else Catalogue.end_to_end in
  let metrics =
    List.map
      (fun (m : Catalogue.metric) ->
        let v =
          match Hashtbl.find_opt Out.metrics m.Catalogue.name with
          | Some v -> v
          | None ->
              Out.require trace ("metric missing: " ^ m.Catalogue.name);
              0.
        in
        Out.require (Float.is_finite v) ("metric not finite: " ^ m.Catalogue.name);
        let v = if Float.is_finite v then v else 0. in
        ( m.Catalogue.name,
          J.Obj [ ("value", J.Float v); ("unit", J.String m.Catalogue.unit) ] ))
      wanted
  in
  J.Obj
    [
      ("correct", J.Bool (Out.correct ()));
      ("attempted", J.Int !Out.attempted);
      ("failed", J.Int !Out.failed);
      ("metrics", J.Obj metrics);
    ]
