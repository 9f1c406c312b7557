(* In-memory span recorder for the traced run.

   Spans are opened by the benchmark around its own calls into the
   router's public functions; nothing inside the router is instrumented.
   When tracing is off, [span] is a plain call. *)

type gc = {
  words : float;  (** allocated words: minor + major - promoted *)
  major_gcs : int;
}

type t = {
  id : int;
  name : string;
  parent : int;  (** index of the enclosing span, -1 at top level *)
  t0 : float;
  t1 : float;
  gc0 : gc;
  gc1 : gc;
}

let enabled = ref false
let spans : t list ref = ref []
let count = ref 0
let stack : int list ref = ref []

(* Monotonic seconds. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let gc_now () =
  let minor, promoted, major = Gc.counters () in
  { words = minor +. major -. promoted;
    major_gcs = (Gc.quick_stat ()).Gc.major_collections }

let reset () =
  spans := [];
  count := 0;
  stack := []

let span name f =
  if not !enabled then f ()
  else begin
    let id = !count in
    incr count;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let gc0 = gc_now () in
    let t0 = now () in
    let finish () =
      let t1 = now () in
      let gc1 = gc_now () in
      stack := List.tl !stack;
      spans := { id; name; parent; t0; t1; gc0; gc1 } :: !spans
    in
    match f () with
    | v -> finish (); v
    | exception e -> finish (); raise e
  end

let ms s = (s.t1 -. s.t0) *. 1000.
let alloc_words s = s.gc1.words -. s.gc0.words
let major_gcs s = s.gc1.major_gcs - s.gc0.major_gcs

(* Spans in opening order, so a span's index equals its id. *)
let recorded () =
  let all = Array.of_list !spans in
  Array.sort (fun a b -> compare a.id b.id) all;
  all

type total = {
  n : int;  (** spans of this name *)
  wall : float;  (** ms *)
  self : float;  (** ms *)
  alloc : float;  (** words *)
  gcs : int;  (** major collections *)
}

let zero = { n = 0; wall = 0.; self = 0.; alloc = 0.; gcs = 0 }

(* Totals per span name.  Self time is a span's duration minus its direct
   children's; the children of one span run one after another, so their
   durations never overlap. *)
let totals () =
  let all = recorded () in
  let child_ms = Array.make (Array.length all) 0. in
  Array.iter
    (fun s ->
      if s.parent >= 0 then child_ms.(s.parent) <- child_ms.(s.parent) +. ms s)
    all;
  let t = Hashtbl.create 16 in
  Array.iteri
    (fun i s ->
      let a = Option.value (Hashtbl.find_opt t s.name) ~default:zero in
      Hashtbl.replace t s.name
        {
          n = a.n + 1;
          wall = a.wall +. ms s;
          self = a.self +. ms s -. child_ms.(i);
          alloc = a.alloc +. alloc_words s;
          gcs = a.gcs + major_gcs s;
        })
    all;
  t
