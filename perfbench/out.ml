(* What one benchmark run reports: metric values, header facts,
   operation counts and correctness failures. *)

let metrics : (string, float) Hashtbl.t = Hashtbl.create 64
let header : (string * Util.Json.t) list ref = ref []
let attempted = ref 0
let failed = ref 0
let errors : string list ref = ref []

let reset () =
  Hashtbl.reset metrics;
  header := [];
  attempted := 0;
  failed := 0;
  errors := [];
  Probe.reset ()

let set name v = Hashtbl.replace metrics name v
let seti name v = set name (float_of_int v)
let note key v = header := (key, v) :: !header

let require cond msg = if not cond then errors := msg :: !errors

(* One operation of the workload: a pipeline pass or a service request. *)
let op ok msg =
  incr attempted;
  if not ok then begin
    incr failed;
    errors := msg :: !errors
  end

let correct () = !errors = [] && !failed = 0

(* A digest of everything a layout is made of: every node's occupant and
   every via.  Equal digests stand for byte-identical layouts. *)
let digest g =
  let b = Buffer.create (Grid.node_count g * 3) in
  Grid.iter_nodes g (fun n ->
      Buffer.add_string b (string_of_int (Grid.occ g n));
      Buffer.add_char b ',');
  Grid.iter_via_pairs g (fun ~layer ~x ~y ->
      Printf.bprintf b "v%d.%d.%d;" layer x y);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Set-ups and passes each start from a compacted heap, as they would
   in a fresh process, so garbage left by the previous one does not
   land on the next one's clock. *)
let fresh_heap () = Gc.compact ()

(* Wall time of [f ()] in seconds. *)
let timed f =
  let t0 = Probe.now () in
  let v = f () in
  (v, Probe.now () -. t0)
