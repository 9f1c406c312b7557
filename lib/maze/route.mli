(** Net-level routing: connect all pins of a net into one tree.

    [route_net] is the plain (non-destructive) sequential router used both as
    the inner step of the full rip-up router and, standalone, as the
    "one-shot maze router" baseline of the experiments.  Pins are joined
    Prim-style: each search connects the grown tree to its nearest
    still-unconnected pin, which yields reasonable Steiner trees without a
    separate topology phase. *)

type failure = {
  failed_net : int;
  unreached : Netlist.Net.pin;  (** first pin the search could not reach *)
}

type success = {
  added : int list;  (** nodes newly occupied for the net (excludes pins) *)
  wirelength : int;
  vias : int;
  expanded : int;  (** total nodes settled over all searches *)
}

val passable_default : Grid.t -> net:int -> int -> int option
(** The standard passability: free cells and cells already owned by [net]
    cost 0 extra; everything else is impassable. *)

val occupy_path : Grid.t -> net:int -> Grid.Path.t -> int list
(** Claim every node of the path for the net and place vias at layer
    changes; returns the nodes that were newly occupied (already-owned nodes
    are skipped).  The path must only visit free or self-owned cells. *)

val release_nodes : Grid.t -> int list -> unit
(** Free the given nodes (used to undo a partial routing). *)

val pin_node : Grid.t -> Netlist.Net.pin -> int

val flood_net : Grid.t -> Workspace.t -> net:int -> int -> int
(** [flood_net g ws ~net seed] marks in [ws] every cell owned by [net]
    that is connected to [seed] (same-layer planar steps; across layers
    only through vias) and returns how many it marked: [0] when [seed] is
    not owned by [net].  It starts a new workspace generation
    ({!Workspace.begin_search}), so the marks are read with
    {!Workspace.marked} until the next search; the touched-region
    accumulator and the heuristic-field memo are left alone.  O(cells
    reached). *)

(** Hit/fallback counters of guided connections, accumulated by
    {!plan_net} (and the engine's sequential twin) so speculative commits
    can replay exactly the counters a sequential run would produce. *)
type guide_tally = { mutable ghits : int; mutable gfallbacks : int }

val no_tally : unit -> guide_tally

val guided_search :
  use_astar:bool ->
  kernel:Search.kernel ->
  guide:Geom.Rect.t ->
  ?stop:(int -> bool) ->
  memo:bool ->
  tally:guide_tally ->
  Grid.t ->
  Workspace.t ->
  cost:Cost.t ->
  passable:(int -> int option) ->
  sources:int list ->
  targets:int list ->
  unit ->
  Search.result option
(** One standard-phase connection search under a guide rectangle: a
    certified probe ({!Search.run_guided}) stands in for the full search
    — pop-order identical, byte-identical path — and counts a hit; an
    uncertified probe re-runs unwindowed with the probe's expansions
    folded in as waste and counts a fallback.  A certified in-window
    exhaustion (no rejected escape) returns [None] without a re-run: the
    full search provably fails identically.  The byte-identity contract
    requires the {!Search.Buckets} kernel. *)

val plan_net :
  ?use_astar:bool ->
  ?kernel:Search.kernel ->
  ?window:int ->
  ?stop:(int -> bool) ->
  ?memo:bool ->
  ?guide:Geom.Rect.t ->
  ?tally:guide_tally ->
  Grid.t ->
  Workspace.t ->
  cost:Cost.t ->
  passable:(int -> int option) ->
  Netlist.Net.t ->
  (Grid.Path.t * int) list option
(** Read-only twin of a standard (non-escalating) net route: runs the same
    Prim-style connection searches against the current grid but never
    occupies anything.  Returns the connection paths in order, each with
    its expansion count (including discarded windowed probes), or [None]
    if some connection fails or is aborted by [stop].  Because free and
    self-owned cells are indistinguishable to the standard passability,
    the searches — and thus the paths — are exactly those a mutating run
    from the same grid state would produce.  The speculative parallel
    engine runs this on worker domains and commits the recorded paths
    later.  [guide] switches every connection to the guided
    probe/fallback protocol of {!guided_search} (ignoring [window]),
    accumulating into [tally]. *)

val route_net :
  ?passable:(int -> int option) ->
  ?use_astar:bool ->
  ?kernel:Search.kernel ->
  ?window:int ->
  ?stop:(int -> bool) ->
  ?memo:bool ->
  Grid.t ->
  Workspace.t ->
  cost:Cost.t ->
  Netlist.Net.t ->
  (success, failure) Stdlib.result
(** Connect all pins of the net on the grid.  On success the grid is
    updated; on failure the grid is restored to its prior state.  Nets with
    fewer than two pins succeed trivially.  [passable] defaults to
    {!passable_default} (it must never price foreign cells if the result is
    to be committed directly).  [kernel], [window], [stop] and [memo] are
    forwarded to the underlying {!Search} runs; an aborted search counts as
    a failed connection, and the partial net is released as usual. *)
