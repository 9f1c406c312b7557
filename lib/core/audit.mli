(** Invariant auditor: problem/grid consistency checks.

    The auditor cross-checks a routing grid against the problem it was
    instantiated from: occupancy values must be legal net ids, vias must
    join two same-net cells, pins must be owned by their net, declared
    obstructions must still be obstacles, and routed nets must form a
    single connected component containing every pin.  The engine runs it
    after each phase (and optionally after each net) under
    [Config.audit]; the chaos tests run it to prove injected faults never
    corrupt shared state.

    Checks are pure and return human-readable findings; {!require} turns
    findings into an exception for use as a hard assertion. *)

exception Inconsistent of string
(** Raised by {!require}; the message lists every finding. *)

val check_grid : Netlist.Problem.t -> Grid.t -> string list
(** Structural consistency of the grid against its problem: occupancy
    range, via legality, pin ownership, obstruction integrity.  Empty when
    consistent. *)

val check_net_connected :
  Maze.Workspace.t -> Netlist.Problem.t -> Grid.t -> int -> string list
(** The net's owned cells form one connected component (planar adjacency
    plus vias) containing all its pins.  Only meaningful for nets the
    caller believes are fully routed.  The flood ({!Maze.Route.flood_net})
    runs in the given workspace, which must be sized for the grid. *)

val require : where:string -> string list -> unit
(** @raise Inconsistent when the finding list is non-empty, prefixing the
    message with [where]. *)
