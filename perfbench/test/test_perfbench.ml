(* Self-test of the benchmark: its generators reproduce the committed
   instances, BENCHMARK.json lists exactly the metrics the program
   reports, and a tiny input of every workload runs end to end with
   every metric it claims set. *)

open Perfbench
module J = Util.Json

let read path = In_channel.with_open_bin path In_channel.input_all

let instance name = read (Filename.concat "../../instances" (name ^ ".problem"))

let regenerates w () =
  let name = Inputs.committed w in
  Alcotest.(check bool) (name ^ " byte for byte") true
    (Inputs.text (Inputs.regenerate w) = instance name)

let str k j = match J.member k j with Some (J.String s) -> s | _ -> ""

let better = function Catalogue.Lower -> "lower" | Catalogue.Higher -> "higher"

let listed key =
  let j = J.of_string_exn (read "../../BENCHMARK.json") in
  match J.member key j with
  | Some (J.List l) -> List.map (fun m -> (str "name" m, str "unit" m, str "better" m)) l
  | _ -> []

let catalogue ms =
  List.map (fun (m : Catalogue.metric) -> (m.Catalogue.name, m.Catalogue.unit, better m.Catalogue.better)) ms

let benchmark_json () =
  let pp = Alcotest.(list (triple string string string)) in
  Alcotest.check pp "end_to_end" (catalogue Catalogue.end_to_end) (listed "end_to_end");
  Alcotest.check pp "per_layer" (catalogue Catalogue.per_layer) (listed "per_layer");
  let workloads =
    match J.member "workloads" (J.of_string_exn (read "../../BENCHMARK.json")) with
    | Some (J.List l) -> List.map (str "name") l
    | _ -> []
  in
  Alcotest.(check (list string)) "workloads" (List.map fst Inputs.workloads) workloads

(* Per-layer metrics each workload measures (the rest read 0 there). *)
let common =
  [ "netlist.parse_ms"; "engine.route_ms"; "engine.us_per_expansion";
    "engine.ms_per_search"; "engine.searches"; "engine.expanded";
    "engine.expanded_weak"; "engine.expanded_strong"; "engine.rips";
    "engine.shoves"; "engine.cache_hits"; "maze.expanded";
    "maze.us_per_expansion"; "drc.check_ms"; "drc.alloc_mwords";
    "drc.major_gcs"; "grid.copy_ms"; "analyze.run_ms"; "analyze.cost";
    "trace.overhead_ms" ]
  @ List.map (fun l -> l ^ ".self_ms") Catalogue.layers

let core = [ "engine.alloc_mwords"; "engine.major_gcs"; "improve.refine_ms";
             "improve.alloc_mwords"; "improve.planned"; "improve.skip_ratio" ]

let measured = function
  | Inputs.Chip_route | Inputs.Switchbox_route -> common @ core
  | Inputs.Macro_flow ->
      common
      @ [ "place.ms"; "place.accept_ratio"; "groute.ms"; "flow.route_ms";
          "guide.hit_rate"; "guide.fallbacks" ]
  | Inputs.Eco_session ->
      common @ core
      @ [ "svc.rip_p50_ms"; "svc.route_p50_ms"; "svc.verify_p50_ms";
          "svc.refine_p50_ms"; "svc.analyze_p50_ms"; "session.rip_ms";
          "session.route_ms"; "session.verify_ms"; "session.refine_ms";
          "svc.overhead_ms"; "svc.wal_bytes_per_mutation"; "svc.snapshot_bytes" ]

let result_names trace =
  match J.member "metrics" (Bench.result_json ~trace) with
  | Some (J.Obj kv) -> List.map fst kv
  | _ -> []

let end_to_end w ~trace () =
  Bench.run ~size:Inputs.Tiny w ~seed:Inputs.default_seed ~seconds:0. ~trace;
  Alcotest.(check (list string)) "gate" [] (List.rev !Out.errors);
  Alcotest.(check bool) "correct" true (Out.correct ());
  Alcotest.(check bool) "attempted" true (!Out.attempted > 0);
  let wanted = if trace then Catalogue.per_layer else Catalogue.end_to_end in
  Alcotest.(check (list string)) "reported"
    (List.map (fun (m : Catalogue.metric) -> m.Catalogue.name) wanted)
    (result_names trace);
  let set = if trace then measured w else List.map (fun (m : Catalogue.metric) -> m.Catalogue.name) wanted in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " measured") true
        (Hashtbl.mem Out.metrics name))
    set

let () =
  Alcotest.run "perfbench"
    [
      ( "inputs",
        List.map
          (fun w ->
            Alcotest.test_case ("regenerates " ^ Inputs.committed w) `Slow
              (regenerates w))
          Inputs.[ Chip_route; Switchbox_route; Macro_flow ] );
      ("catalogue", [ Alcotest.test_case "matches BENCHMARK.json" `Quick benchmark_json ]);
      ( "workloads",
        List.concat_map
          (fun (name, w) ->
            [
              Alcotest.test_case (name ^ " untraced") `Quick (end_to_end w ~trace:false);
              Alcotest.test_case (name ^ " traced") `Quick (end_to_end w ~trace:true);
            ])
          Inputs.workloads );
    ]
