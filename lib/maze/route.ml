type failure = { failed_net : int; unreached : Netlist.Net.pin }

type success = {
  added : int list;
  wirelength : int;
  vias : int;
  expanded : int;
}

let passable_default g ~net n =
  let v = Grid.occ g n in
  if v = Grid.free || v = net then Some 0 else None

let pin_node g (pin : Netlist.Net.pin) =
  Grid.node g ~layer:pin.Netlist.Net.layer ~x:pin.Netlist.Net.x ~y:pin.Netlist.Net.y

let occupy_path g ~net path =
  let added = ref [] in
  List.iter
    (fun n ->
      if Grid.occ g n <> net then begin
        Grid.occupy g ~net n;
        added := n :: !added
      end)
    path;
  (* Via pairs at layer-change steps: the pair is addressed by the lower
     of the two layers it joins. *)
  let rec vias = function
    | a :: (b :: _ as rest) ->
        let la = Grid.node_layer g a and lb = Grid.node_layer g b in
        if la <> lb then
          Grid.set_via ~layer:(min la lb) g ~x:(Grid.node_x g a)
            ~y:(Grid.node_y g a);
        vias rest
    | [] | [ _ ] -> ()
  in
  vias path;
  !added

let release_nodes g nodes = List.iter (Grid.release g) nodes

let flood_net g ws ~net seed =
  Workspace.begin_search ws;
  if Grid.occ g seed <> net then 0
  else begin
    let w = Grid.width g and h = Grid.height g in
    let count = ref 0 in
    let stack = ref [ seed ] in
    Workspace.mark ws seed;
    let visit m =
      if Grid.occ g m = net && not (Workspace.marked ws m) then begin
        Workspace.mark ws m;
        stack := m :: !stack
      end
    in
    let rec drain () =
      match !stack with
      | [] -> ()
      | n :: rest ->
          stack := rest;
          incr count;
          let x = Grid.node_x g n and y = Grid.node_y g n in
          if x + 1 < w then visit (n + 1);
          if x > 0 then visit (n - 1);
          if y + 1 < h then visit (n + w);
          if y > 0 then visit (n - w);
          if Grid.via_above g n then visit (Grid.node_above g n);
          if Grid.via_below g n then visit (Grid.node_below g n);
          drain ()
    in
    drain ();
    !count
  end

type guide_tally = { mutable ghits : int; mutable gfallbacks : int }

let no_tally () = { ghits = 0; gfallbacks = 0 }

(* One guided standard-phase connection: a certified probe stands in for
   the full search (pop-order identical, so path and expansion count are
   the full run's); an uncertified probe is discarded and the search
   re-runs unwindowed, with the probe's expansions folded into the
   result as waste — exactly the accounting of a failed windowed probe.
   A certified {e failure} (the in-window frontier exhausted without one
   rejected escape) proves the full search fails identically, so it
   returns [None] without a re-run.  [tally] counts hits/fallbacks so
   the speculative engine can replay the sequential counters. *)
let guided_search ~use_astar ~kernel ~guide ?stop ~memo ~tally g ws ~cost
    ~passable ~sources ~targets () =
  let gd =
    Search.run_guided ~kernel ~astar:use_astar ?stop ~memo ~guide g ws ~cost
      ~passable ~sources ~targets ()
  in
  if gd.Search.g_aborted then None
  else if gd.Search.g_certified then begin
    tally.ghits <- tally.ghits + 1;
    gd.Search.g_result
  end
  else begin
    tally.gfallbacks <- tally.gfallbacks + 1;
    let full =
      if use_astar then
        Search.run_astar ~kernel ?stop ~memo g ws ~cost ~passable ~sources
          ~targets ()
      else Search.run ~kernel ?stop g ws ~cost ~passable ~sources ~targets ()
    in
    match full with
    | Some r ->
        Some { r with Search.expanded = r.Search.expanded + gd.Search.g_expanded }
    | None -> None
  end

(* Plan a net without touching the grid: the same Prim-style connection
   sequence as a mutating route, but found paths are only recorded.  The
   searches are exact replicas of the mutating run's: the only cells a
   mutating run would have changed are the planned path cells, which it
   makes self-owned — and under the standard passability self-owned and
   free both cost [Some 0], so every subsequent search sees identical
   passability either way.  Returns the connection paths in order with
   per-connection expansion counts (windowed-probe waste included), or
   [None] as soon as a connection fails or aborts.  With [guide], each
   connection runs the guided probe/fallback protocol of
   {!guided_search}, tallying hits and fallbacks into [tally]. *)
let plan_net ?(use_astar = false) ?(kernel = Search.Binary_heap) ?window
    ?stop ?(memo = false) ?guide ?tally g ws ~cost ~passable
    (net : Netlist.Net.t) =
  match net.Netlist.Net.pins with
  | [] | [ _ ] -> Some []
  | first :: rest ->
      let search =
        match guide with
        | Some rect ->
            let tally =
              match tally with Some t -> t | None -> no_tally ()
            in
            guided_search ~use_astar ~kernel ~guide:rect ?stop ~memo ~tally
        | None ->
            if use_astar then Search.run_astar ~kernel ?window ?stop ~memo
            else Search.run ~kernel ?window ?stop
      in
      let tree = ref [ pin_node g first ] in
      let remaining = ref (List.map (fun p -> pin_node g p) rest) in
      let acc = ref [] in
      let rec loop () =
        match !remaining with
        | [] -> Some (List.rev !acc)
        | _ -> begin
            match
              search g ws ~cost ~passable ~sources:!tree ~targets:!remaining ()
            with
            | None -> None
            | Some r ->
                acc := (r.Search.path, r.Search.expanded) :: !acc;
                tree := r.Search.path @ !tree;
                let reached =
                  match List.rev r.Search.path with
                  | last :: _ -> last
                  | [] -> assert false
                in
                remaining := List.filter (fun n -> n <> reached) !remaining;
                loop ()
          end
      in
      loop ()

(* Connect the pins Prim-style: the tree starts at the first pin's node and
   every search targets all still-unconnected pins at once, so Dijkstra
   naturally picks the nearest one. *)
let route_net ?passable ?(use_astar = false) ?(kernel = Search.Binary_heap)
    ?window ?stop ?(memo = false) g ws ~cost (net : Netlist.Net.t) =
  let net_id = net.Netlist.Net.id in
  let passable =
    match passable with Some f -> f | None -> passable_default g ~net:net_id
  in
  match net.Netlist.Net.pins with
  | [] | [ _ ] -> Ok { added = []; wirelength = 0; vias = 0; expanded = 0 }
  | first :: rest ->
      let search =
        if use_astar then Search.run_astar ~kernel ?window ?stop ~memo
        else Search.run ~kernel ?window ?stop
      in
      let tree = ref [ pin_node g first ] in
      let remaining = ref (List.map (fun p -> (pin_node g p, p)) rest) in
      let added = ref [] in
      let wirelength = ref 0 and vias = ref 0 and expanded = ref 0 in
      let fail pin =
        release_nodes g !added;
        Error { failed_net = net_id; unreached = pin }
      in
      let rec loop () =
        match !remaining with
        | [] ->
            Ok
              {
                added = !added;
                wirelength = !wirelength;
                vias = !vias;
                expanded = !expanded;
              }
        | (_, nearest_pin) :: _ -> begin
            let targets = List.map fst !remaining in
            match
              search g ws ~cost ~passable ~sources:!tree ~targets ()
            with
            | None -> fail nearest_pin
            | Some r ->
                let new_nodes = occupy_path g ~net:net_id r.Search.path in
                added := new_nodes @ !added;
                tree := r.Search.path @ !tree;
                wirelength := !wirelength + Grid.Path.wirelength g r.Search.path;
                vias := !vias + Grid.Path.via_steps g r.Search.path;
                expanded := !expanded + r.Search.expanded;
                let reached =
                  match List.rev r.Search.path with
                  | last :: _ -> last
                  | [] -> assert false
                in
                remaining :=
                  List.filter (fun (n, _) -> n <> reached) !remaining;
                loop ()
          end
      in
      loop ()
