(* Tests for the verifier: every violation class must be detected, clean
   layouts must pass, and the connectivity count must be exact. *)

let pin = Netlist.Net.pin

let two_net_problem () =
  Netlist.Problem.make ~name:"d" ~width:8 ~height:6
    [
      Netlist.Net.make ~id:1 ~name:"a" [ pin 0 0; pin 5 0 ];
      Netlist.Net.make ~id:2 ~name:"b" [ pin ~layer:1 2 2; pin ~layer:1 2 5 ];
    ]

let route_net_1 g =
  for x = 1 to 4 do
    Grid.occupy g ~net:1 (Grid.node g ~layer:0 ~x ~y:0)
  done

let route_net_2 g =
  for y = 3 to 4 do
    Grid.occupy g ~net:2 (Grid.node g ~layer:1 ~x:2 ~y)
  done

let test_clean_layout () =
  let p = two_net_problem () in
  let g = Netlist.Problem.instantiate p in
  route_net_1 g;
  route_net_2 g;
  Testkit.check_true "clean" (Drc.Check.is_clean p g);
  Testkit.check_true "explain empty" (Drc.Check.explain (Drc.Check.check p g) = "")

let test_detects_open_net () =
  let p = two_net_problem () in
  let g = Netlist.Problem.instantiate p in
  route_net_1 g;
  (* net 2 left unrouted: two components *)
  let violations = Drc.Check.check p g in
  Testkit.check_true "open net reported"
    (List.exists
       (function
         | Drc.Check.Net_disconnected { net = 2; components = 2 } -> true
         | Drc.Check.Net_disconnected _ | Drc.Check.Pin_not_owned _
         | Drc.Check.Via_mismatch _ | Drc.Check.Wire_on_obstruction _ ->
             false)
       violations)

let test_detects_floating_wire () =
  let p = two_net_problem () in
  let g = Netlist.Problem.instantiate p in
  route_net_1 g;
  route_net_2 g;
  (* A stray cell of net 1 far from its tree. *)
  Grid.occupy g ~net:1 (Grid.node g ~layer:0 ~x:7 ~y:5);
  let violations = Drc.Check.check p g in
  Testkit.check_true "floating wire reported"
    (List.exists
       (function
         | Drc.Check.Net_disconnected { net = 1; components = 2 } -> true
         | Drc.Check.Net_disconnected _ | Drc.Check.Pin_not_owned _
         | Drc.Check.Via_mismatch _ | Drc.Check.Wire_on_obstruction _ ->
             false)
       violations)

let test_stacked_without_via_disconnected () =
  (* Same net on both layers of a cell but no via: the layers are NOT
     connected there. *)
  let p =
    Netlist.Problem.make ~name:"v" ~width:4 ~height:4
      [ Netlist.Net.make ~id:1 ~name:"a" [ pin 0 0; pin ~layer:1 0 0 ] ]
  in
  let g = Netlist.Problem.instantiate p in
  let violations = Drc.Check.check p g in
  Testkit.check_true "stack without via disconnected"
    (List.exists
       (function
         | Drc.Check.Net_disconnected { net = 1; components = 2 } -> true
         | Drc.Check.Net_disconnected _ | Drc.Check.Pin_not_owned _
         | Drc.Check.Via_mismatch _ | Drc.Check.Wire_on_obstruction _ ->
             false)
       violations);
  Grid.set_via g ~x:0 ~y:0;
  Testkit.check_true "via connects" (Drc.Check.is_clean p g)

let test_detects_wire_on_obstruction () =
  (* Build the grid separately so the obstruction exists only in the problem
     description. *)
  let p =
    Netlist.Problem.make ~name:"o" ~width:6 ~height:4
      ~obstructions:
        [
          {
            Netlist.Problem.obs_layer = Some 0;
            obs_rect = Geom.Rect.make 3 1 3 1;
          };
        ]
      [ Netlist.Net.make ~id:1 ~name:"a" [ pin 0 1; pin 5 1 ] ]
  in
  let g = Grid.create ~width:6 ~height:4 () in
  for x = 0 to 5 do
    Grid.occupy g ~net:1 (Grid.node g ~layer:0 ~x ~y:1)
  done;
  let violations = Drc.Check.check p g in
  Testkit.check_true "obstruction violation"
    (List.exists
       (function
         | Drc.Check.Wire_on_obstruction { net = 1; layer = 0; x = 3; y = 1 } ->
             true
         | Drc.Check.Wire_on_obstruction _ | Drc.Check.Net_disconnected _
         | Drc.Check.Pin_not_owned _ | Drc.Check.Via_mismatch _ ->
             false)
       violations)

let test_detects_missing_pin () =
  let p = two_net_problem () in
  (* Fresh grid without pin occupancy. *)
  let g = Grid.create ~width:8 ~height:6 () in
  let violations = Drc.Check.check p g in
  let missing_pins =
    List.length
      (List.filter
         (function
           | Drc.Check.Pin_not_owned _ -> true
           | Drc.Check.Net_disconnected _ | Drc.Check.Via_mismatch _
           | Drc.Check.Wire_on_obstruction _ ->
               false)
         violations)
  in
  Testkit.check_int "all pins missing" 4 missing_pins

let test_via_mismatch_reported () =
  (* Hand-build a grid with an inconsistent via flag via a legal sequence:
     net 1 owns both layers, via set, then one layer is taken over after
     release. *)
  let p =
    Netlist.Problem.make ~name:"vm" ~width:4 ~height:4
      [
        Netlist.Net.make ~id:1 ~name:"a" [ pin 1 1 ];
        Netlist.Net.make ~id:2 ~name:"b" [ pin 2 2 ];
      ]
  in
  let g = Netlist.Problem.instantiate p in
  Grid.occupy g ~net:1 (Grid.node g ~layer:0 ~x:0 ~y:0);
  Grid.occupy g ~net:1 (Grid.node g ~layer:1 ~x:0 ~y:0);
  Grid.set_via g ~x:0 ~y:0;
  (* Simulate a buggy router: replace one layer without clearing the via.
     Grid.release clears it, so poke occupancy through a copy trick is not
     available — instead check that a via over free cells reports. *)
  Grid.release g (Grid.node g ~layer:0 ~x:0 ~y:0);
  (* release cleared the via; set up the mismatch differently *)
  Grid.occupy g ~net:2 (Grid.node g ~layer:0 ~x:0 ~y:0);
  Testkit.check_false "no via now" (Grid.has_via g ~x:0 ~y:0);
  (* The grid API cannot express a mismatched via, which is itself the
     guarantee; verify is_clean flags disconnection instead. *)
  Testkit.check_false "nets 1/2 have issues" (Drc.Check.is_clean p g)

let test_nets_filter () =
  let p = two_net_problem () in
  let g = Netlist.Problem.instantiate p in
  route_net_1 g;
  (* net 2 unrouted, but we only check net 1 *)
  Testkit.check_true "filtered clean" (Drc.Check.is_clean ~nets:[ 1 ] p g);
  Testkit.check_false "full check fails" (Drc.Check.is_clean p g)

let test_connected_components_counts () =
  let g = Grid.create ~width:6 ~height:4 () in
  Testkit.check_int "no cells" 0 (Drc.Check.connected_components g ~net:1);
  Grid.occupy g ~net:1 (Grid.node g ~layer:0 ~x:0 ~y:0);
  Testkit.check_int "one cell" 1 (Drc.Check.connected_components g ~net:1);
  Grid.occupy g ~net:1 (Grid.node g ~layer:0 ~x:1 ~y:0);
  Testkit.check_int "joined pair" 1 (Drc.Check.connected_components g ~net:1);
  Grid.occupy g ~net:1 (Grid.node g ~layer:0 ~x:3 ~y:3);
  Testkit.check_int "two components" 2 (Drc.Check.connected_components g ~net:1);
  (* Diagonal adjacency does not connect. *)
  Grid.occupy g ~net:1 (Grid.node g ~layer:0 ~x:2 ~y:1);
  Testkit.check_int "diagonal not connected" 3
    (Drc.Check.connected_components g ~net:1)

(* --- one-pass checks against the per-net oracles ---

   The oracles are the per-net whole-grid loops [Drc.Check.check] and
   [Router.Outcome.measure] used before they became one pass per call. *)

let oracle_components g ~net =
  let uf = Util.Union_find.create (Grid.node_count g) in
  let w = Grid.width g and h = Grid.height g in
  for layer = 0 to Grid.layers g - 1 do
    for y = 0 to h - 1 do
      for x = 0 to w - 1 do
        if Grid.occ_at g ~layer ~x ~y = net then begin
          let n = Grid.node g ~layer ~x ~y in
          if x + 1 < w && Grid.occ_at g ~layer ~x:(x + 1) ~y = net then
            Util.Union_find.union uf n (Grid.node g ~layer ~x:(x + 1) ~y);
          if y + 1 < h && Grid.occ_at g ~layer ~x ~y:(y + 1) = net then
            Util.Union_find.union uf n (Grid.node g ~layer ~x ~y:(y + 1))
        end
      done
    done
  done;
  Grid.iter_via_pairs g (fun ~layer ~x ~y ->
      if
        Grid.occ_at g ~layer ~x ~y = net
        && Grid.occ_at g ~layer:(layer + 1) ~x ~y = net
      then
        Util.Union_find.union uf
          (Grid.node g ~layer ~x ~y)
          (Grid.node g ~layer:(layer + 1) ~x ~y));
  Util.Union_find.count_components uf (fun n -> Grid.occ g n = net)

(* [Drc.Check.check] with its connectivity section read from the per-net
   oracle; the other sections are already one pass per call. *)
let oracle_check ?nets problem g =
  let others =
    List.filter
      (function
        | Drc.Check.Net_disconnected _ -> false
        | Drc.Check.Pin_not_owned _ | Drc.Check.Via_mismatch _
        | Drc.Check.Wire_on_obstruction _ ->
            true)
      (Drc.Check.check ~nets:[] problem g)
  in
  let net_ids =
    match nets with
    | Some ids -> ids
    | None -> List.init (Netlist.Problem.net_count problem) (fun i -> i + 1)
  in
  others
  @ List.filter_map
      (fun net ->
        let n = Netlist.Problem.net problem net in
        if Netlist.Net.pin_count n = 0 then None
        else
          let components = oracle_components g ~net in
          if components <> 1 then
            Some (Drc.Check.Net_disconnected { net; components })
          else None)
      net_ids

let oracle_measure_net g ~net =
  let w = Grid.width g and h = Grid.height g in
  let cells = ref 0 and wirelength = ref 0 and vias = ref 0 in
  for layer = 0 to Grid.layers g - 1 do
    for y = 0 to h - 1 do
      for x = 0 to w - 1 do
        if Grid.occ_at g ~layer ~x ~y = net then begin
          incr cells;
          if x + 1 < w && Grid.occ_at g ~layer ~x:(x + 1) ~y = net then
            incr wirelength;
          if y + 1 < h && Grid.occ_at g ~layer ~x ~y:(y + 1) = net then
            incr wirelength
        end
      done
    done
  done;
  Grid.iter_via_pairs g (fun ~layer ~x ~y ->
      if Grid.occ_at g ~layer ~x ~y = net then incr vias);
  {
    Router.Outcome.net_id = net;
    cells = !cells;
    wirelength = !wirelength;
    vias = !vias;
  }

(* A routed instance with faults injected: cut wire cells (pins
   included), dropped via flags, floating metal, and wire under a newly
   declared obstruction.  Returns the (possibly re-declared) problem, the
   faulty grid and an optional net filter. *)
let faulty_layout seed =
  let rng = Util.Prng.create seed in
  let layers = Util.Prng.int_in rng 2 3 in
  let p =
    Workload.Gen.routable_chip ~layers ~macro_cols:2 ~macro_rows:1 rng
      ~width:(Util.Prng.int_in rng 14 24)
      ~height:(Util.Prng.int_in rng 12 20)
  in
  let g = (Router.Engine.route p).Router.Engine.grid in
  let nets = Netlist.Problem.net_count p in
  let owned () =
    let acc = ref [] in
    Grid.iter_nodes g (fun n -> if Grid.occ g n > 0 then acc := n :: !acc);
    Array.of_list !acc
  in
  let pins = Hashtbl.create 64 in
  List.iter
    (fun (_, pin) -> Hashtbl.replace pins (Maze.Route.pin_node g pin) ())
    (Netlist.Problem.pin_cells p);
  let extra_obs = ref [] in
  for _ = 1 to Util.Prng.int_in rng 0 4 do
    match Util.Prng.int rng 4 with
    | 0 ->
        let cells = owned () in
        if cells <> [||] then Grid.release g (Util.Prng.pick rng cells)
    | 1 ->
        let vias = ref [] in
        Grid.iter_via_pairs g (fun ~layer ~x ~y ->
            vias := (layer, x, y) :: !vias);
        if !vias <> [] then begin
          let layer, x, y = Util.Prng.pick_list rng !vias in
          Grid.clear_via ~layer g ~x ~y
        end
    | 2 when nets > 0 ->
        let free = ref [] in
        Grid.iter_nodes g (fun n -> if Grid.is_free g n then free := n :: !free);
        if !free <> [] then
          Grid.occupy g
            ~net:(Util.Prng.int_in rng 1 nets)
            (Util.Prng.pick_list rng !free)
    | _ ->
        let wires =
          List.filter
            (fun n -> not (Hashtbl.mem pins n))
            (Array.to_list (owned ()))
        in
        if wires <> [] then begin
          let n = Util.Prng.pick_list rng wires in
          let x = Grid.node_x g n and y = Grid.node_y g n in
          extra_obs :=
            {
              Netlist.Problem.obs_layer = Some (Grid.node_layer g n);
              obs_rect = Geom.Rect.make x y x y;
            }
            :: !extra_obs
        end
  done;
  let p =
    Netlist.Problem.make ~kind:p.Netlist.Problem.kind
      ~layers:p.Netlist.Problem.layers
      ~layer_dirs:p.Netlist.Problem.layer_dirs
      ~obstructions:(p.Netlist.Problem.obstructions @ List.rev !extra_obs)
      ~name:p.Netlist.Problem.name ~width:p.Netlist.Problem.width
      ~height:p.Netlist.Problem.height
      (Array.to_list p.Netlist.Problem.nets)
  in
  let filter =
    if Util.Prng.bool rng then None
    else
      Some
        (Util.Prng.shuffle_list rng
           (List.filter
              (fun _ -> Util.Prng.bool rng)
              (List.init nets (fun i -> i + 1))))
  in
  (p, g, filter)

let prop_check_matches_oracle =
  Testkit.qcheck ~count:60 "one-pass check = per-net oracle"
    QCheck2.Gen.(int_range 1 100_000)
    (fun seed ->
      let p, g, nets = faulty_layout seed in
      Drc.Check.check ?nets p g = oracle_check ?nets p g
      && List.for_all
           (fun net ->
             Drc.Check.connected_components g ~net = oracle_components g ~net)
           (List.init (Netlist.Problem.net_count p) (fun i -> i + 1)))

let prop_measure_matches_oracle =
  Testkit.qcheck ~count:60 "one-pass measure = per-net oracle"
    QCheck2.Gen.(int_range 1 100_000)
    (fun seed ->
      let p, g, _ = faulty_layout seed in
      Router.Outcome.measure p g
      = List.init (Netlist.Problem.net_count p) (fun i ->
            oracle_measure_net g ~net:(i + 1))
      && Router.Outcome.total_wirelength g p
         = List.fold_left
             (fun acc net ->
               acc + (oracle_measure_net g ~net).Router.Outcome.wirelength)
             0
             (List.init (Netlist.Problem.net_count p) (fun i -> i + 1)))

let test_pp_violation_output () =
  let s =
    Format.asprintf "%a" Drc.Check.pp_violation
      (Drc.Check.Net_disconnected { net = 3; components = 2 })
  in
  Testkit.check_true "mentions net" (String.length s > 0);
  let s2 =
    Format.asprintf "%a" Drc.Check.pp_violation
      (Drc.Check.Via_mismatch { x = 1; y = 2 })
  in
  Testkit.check_true "mentions via" (String.length s2 > 0)

let () =
  Alcotest.run "drc"
    [
      ( "check",
        [
          Alcotest.test_case "clean layout" `Quick test_clean_layout;
          Alcotest.test_case "open net" `Quick test_detects_open_net;
          Alcotest.test_case "floating wire" `Quick test_detects_floating_wire;
          Alcotest.test_case "stack needs via" `Quick test_stacked_without_via_disconnected;
          Alcotest.test_case "wire on obstruction" `Quick test_detects_wire_on_obstruction;
          Alcotest.test_case "missing pins" `Quick test_detects_missing_pin;
          Alcotest.test_case "via invariants" `Quick test_via_mismatch_reported;
          Alcotest.test_case "nets filter" `Quick test_nets_filter;
          Alcotest.test_case "component counts" `Quick test_connected_components_counts;
          Alcotest.test_case "violation printing" `Quick test_pp_violation_output;
        ] );
      ("one-pass", [ prop_check_matches_oracle; prop_measure_matches_oracle ]);
    ]
