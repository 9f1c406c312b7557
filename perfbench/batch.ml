(* The batch workloads: chip_route, switchbox_route and macro_flow.

   A pass takes one parsed problem to a checked layout: Engine.route,
   Improve.refine and Drc.Check.check for the detailed-routing
   workloads; Flow.run and Drc.Check.check for macro_flow. *)

let config = Inputs.production

type pass = {
  ms : float;
  digest : string;
  wirelength : int;
  vias : int;
  routed : int;
  nontrivial : int;
  stats : Router.Engine.stats;
  refine : Router.Improve.stats option;
  flow : Flow.stats option;
  routed_problem : Netlist.Problem.t;  (** realized, for the flow *)
  grid : Grid.t;
}

let finish ~ms ~problem ~(result : Router.Engine.t) ~refine ~flow violations =
  let grid = result.Router.Engine.grid in
  let nontrivial = List.length (Netlist.Problem.nontrivial_net_ids problem) in
  let unrouted = List.length result.Router.Engine.stats.Router.Engine.failed_nets in
  Out.op
    (result.Router.Engine.completed && violations = [])
    (Printf.sprintf "%s: %d net(s) unrouted, %d DRC violation(s)"
       problem.Netlist.Problem.name unrouted (List.length violations));
  {
    ms;
    digest = Out.digest grid;
    wirelength = Router.Outcome.total_wirelength grid problem;
    vias = Router.Outcome.total_vias grid;
    routed = nontrivial - unrouted;
    nontrivial;
    stats = result.Router.Engine.stats;
    refine;
    flow;
    routed_problem = problem;
    grid;
  }

let detail_pass problem =
  Out.fresh_heap ();
  let (result, refine, violations), s =
    Out.timed @@ fun () ->
    Probe.span "pass" @@ fun () ->
    let result =
      Probe.span "engine" (fun () -> Router.Engine.route ~config problem)
    in
    let grid = result.Router.Engine.grid in
    let refine =
      Probe.span "improve" (fun () ->
          Router.Improve.refine ~cost:config.Router.Config.cost
            ~incremental:config.Router.Config.incremental problem grid)
    in
    (result, refine, Probe.span "drc" (fun () -> Drc.Check.check problem grid))
  in
  finish ~ms:(s *. 1000.) ~problem ~result ~refine:(Some refine) ~flow:None
    violations

let flow_pass problem =
  Out.fresh_heap ();
  let r, s =
    Out.timed @@ fun () ->
    Probe.span "pass" @@ fun () ->
    match Probe.span "flow" (fun () -> Flow.run ~config problem) with
    | Error e -> Error e
    | Ok f ->
        let realized = f.Flow.realized in
        let grid = f.Flow.result.Router.Engine.grid in
        Ok (f, Probe.span "drc" (fun () -> Drc.Check.check realized grid))
  in
  match r with
  | Error e -> failwith ("flow: " ^ e)
  | Ok (f, violations) ->
      finish ~ms:(s *. 1000.) ~problem:f.Flow.realized ~result:f.Flow.result
        ~refine:None ~flow:(Some f.Flow.stats) violations

let parse text =
  let p = Probe.span "parse" (fun () -> Netlist.Parse.of_string_exn text) in
  ignore (Probe.span "instantiate" (fun () -> Netlist.Problem.instantiate p));
  p

(* Set-up is parse + instantiate of the input.  One takes from a tenth
   of a millisecond to tens of milliseconds, so each of [setup_reps]
   repetitions repeats it until 50 ms have passed and reports the time
   per set-up; the median of the repetitions is the metric. *)
let setup_reps = 9

let setup text =
  let times =
    List.init setup_reps (fun _ ->
        Out.fresh_heap ();
        let t0 = Probe.now () in
        let rec go n =
          ignore (parse text);
          let s = Probe.now () -. t0 in
          if s >= 0.05 then s /. float_of_int n else go (n + 1)
        in
        go 1)
  in
  (Quant.median times, parse text)

(* Maze-only probe: every net routed once, in problem order, by the plain
   net router with the production kernel flags on a fresh grid.  Failed
   nets report no expansions, so only successful calls are counted. *)
let maze_probe problem =
  let g = Netlist.Problem.instantiate problem in
  let ws = Maze.Workspace.create g in
  let expanded = ref 0 and secs = ref 0. in
  Array.iter
    (fun net ->
      let r, s =
        Out.timed @@ fun () ->
        Probe.span "maze" @@ fun () ->
        Maze.Route.route_net ~use_astar:config.Router.Config.use_astar
          ~kernel:config.Router.Config.kernel
          ?window:config.Router.Config.window_margin g ws
          ~cost:config.Router.Config.cost net
      in
      match r with
      | Ok ok ->
          expanded := !expanded + ok.Maze.Route.expanded;
          secs := !secs +. s
      | Error _ -> ())
    problem.Netlist.Problem.nets;
  (!expanded, !secs)
