(* The eco_session workload: one client in a closed loop over the line
   protocol (docs/PROTOCOL.md) against a one-shard server with a
   write-ahead data directory and fsync off.  The server runs on a
   thread of this process and reads requests from a pipe, exactly as
   `router_cli serve` reads stdin. *)

module J = Util.Json

let config = Inputs.production

type kind = Rip | Route | Verify | Refine | Analyze

let kinds = [ Rip; Route; Verify; Refine; Analyze ]

let kind_name = function
  | Rip -> "rip"
  | Route -> "route"
  | Verify -> "verify"
  | Refine -> "refine"
  | Analyze -> "analyze"

type step = { kind : kind; net : string }

(* Nets ripped per edit cycle, and how often a cycle ends with a refine
   (a journalled write) and an analyze (a never-journalled read). *)
let rips_per_cycle = 4
let refine_every = 4

(* The loop carries at least this many requests, so the 90th percentile
   has ten samples beyond it.  With four rips a cycle, the 90th
   percentile falls well inside the verify latencies and the median
   inside the rip latencies, not on the edge between two kinds. *)
let min_requests = 120

(* The seeded edit script, one cycle at a time: rip distinct nets, route,
   verify. *)
let cycle prng names c =
  let pool = Array.copy names in
  Util.Prng.shuffle prng pool;
  let k = min rips_per_cycle (Array.length pool) in
  List.init k (fun i -> { kind = Rip; net = pool.(i) })
  @ [ { kind = Route; net = "" }; { kind = Verify; net = "" } ]
  @
  if c mod refine_every = refine_every - 1 then
    [ { kind = Refine; net = "" }; { kind = Analyze; net = "" } ]
  else []

let script ~seed names =
  let prng = Util.Prng.create seed in
  fun c -> cycle prng names c

(* Cycles needed to reach [min_requests]. *)
let min_cycles ~seed names =
  let next = script ~seed names in
  let rec go c n = if n >= min_requests then c else go (c + 1) (n + List.length (next c)) in
  go 0 0

let rippable problem =
  Array.of_list
    (List.map
       (fun id -> (Netlist.Problem.net problem id).Netlist.Net.name)
       (Netlist.Problem.nontrivial_net_ids problem))

(* --- client ------------------------------------------------------------ *)

type client = {
  oc : out_channel;
  ic : in_channel;
  server : Thread.t;
  dir : string;
  mutable next_id : int;  (** strictly increasing: a reused id is a duplicate *)
}

let start dir =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let rep_r, rep_w = Unix.pipe ~cloexec:true () in
  let sconfig =
    {
      Service.Server.default_config with
      Service.Server.router = config;
      data_dir = Some dir;
      fsync = false;
      shards = 1;
      allow_files = false;
    }
  in
  let server = Service.Server.create ~config:sconfig () in
  let sic = Unix.in_channel_of_descr req_r in
  let soc = Unix.out_channel_of_descr rep_w in
  let thread =
    Thread.create
      (fun () ->
        Service.Server.serve_pipe server sic soc;
        close_out soc;
        close_in sic)
      ()
  in
  {
    oc = Unix.out_channel_of_descr req_w;
    ic = Unix.in_channel_of_descr rep_r;
    server = thread;
    dir;
    next_id = 1;
  }

let member k j = Option.value (J.member k j) ~default:J.Null

(* Send one request and wait for its reply.  Returns the client-observed
   latency in ms and the reply's result.  A reply that is not ok, answers
   another id or reports a duplicate counts as a failed operation. *)
let call c fields =
  let id = c.next_id in
  c.next_id <- id + 1;
  let line = J.to_string (J.Obj (("id", J.Int id) :: fields)) in
  let t0 = Probe.now () in
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc;
  let reply = input_line c.ic in
  let ms = (Probe.now () -. t0) *. 1000. in
  let j = J.of_string_exn reply in
  let result = member "result" j in
  let ok =
    member "ok" j = J.Bool true
    && member "id" j = J.Int id
    && member "duplicate" result <> J.Bool true
  in
  Out.op ok
    (Printf.sprintf "request %d: %s"
       id
       (if String.length reply > 200 then String.sub reply 0 200 else reply));
  (ms, result)

let session_fields session op = [ ("op", J.String op); ("session", J.String session) ]

let request c session step =
  let fields = session_fields session (kind_name step.kind) in
  let fields = if step.kind = Rip then fields @ [ ("name", J.String step.net) ] else fields in
  call c fields

let int_field k j = match member k j with J.Int n -> n | _ -> -1

(* A route reply must leave no net unrouted; a verify reply must be
   clean. *)
let check_reply step result =
  match step.kind with
  | Route ->
      Out.require
        (member "status" result = J.String "complete"
        && member "failed" result = J.List [])
        "route left nets unrouted"
  | Verify -> Out.require (member "clean" result = J.Bool true) "verify not clean"
  | Rip | Refine | Analyze -> ()

(* Open a session and route it once: the workload's set-up.  Returns its
   wall time in seconds and the route reply. *)
let open_and_route c session text =
  Out.fresh_heap ();
  let (_, route), s =
    Out.timed @@ fun () ->
    ignore (call c (session_fields session "open" @ [ ("problem", J.String text) ]));
    call c (session_fields session "route")
  in
  check_reply { kind = Route; net = "" } route;
  (s, route)

let render c session =
  match member "ascii" (snd (call c (session_fields session "render"))) with
  | J.String s -> s
  | _ -> ""

let shutdown c =
  ignore (call c [ ("op", J.String "shutdown") ]);
  close_out c.oc;
  Thread.join c.server;
  close_in c.ic

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

(* One sample per request of the loop. *)
type sample = { step : step; ms : float }

type loop = {
  samples : sample list;  (** in request order *)
  cycle_ms : float list;  (** rip..verify wall time of each cycle *)
  cycles : int;
  wall_s : float;
  wal_bytes : int;  (** bytes appended to the journal (traced loops) *)
  wal_appends : int;
}

(* Run whole cycles of the script until [stop cycles elapsed_s].
   With [wal] the journal size is read after every mutating request. *)
let run_loop ?(wal = false) c ~session ~next ~stop =
  let samples = ref [] and cycle_ms = ref [] in
  let wal_path = Filename.concat c.dir (session ^ ".wal") in
  let wal_size = ref (file_size wal_path) and wal_bytes = ref 0 and wal_appends = ref 0 in
  let t0 = Probe.now () in
  let rec go cyc =
    if stop cyc (Probe.now () -. t0) then cyc
    else begin
      let steps = next cyc in
      let edit = ref 0. in
      Probe.span "cycle" (fun () ->
          List.iter
            (fun step ->
              let ms, result =
                Probe.span "request" (fun () -> request c session step)
              in
              check_reply step result;
              (match step.kind with
              | Rip | Route | Verify -> edit := !edit +. ms
              | Refine | Analyze -> ());
              if wal && (step.kind = Rip || step.kind = Route || step.kind = Refine)
              then begin
                let size = file_size wal_path in
                if size > !wal_size then begin
                  wal_bytes := !wal_bytes + (size - !wal_size);
                  incr wal_appends
                end;
                wal_size := size
              end;
              samples := { step; ms } :: !samples)
            steps);
      cycle_ms := !edit :: !cycle_ms;
      go (cyc + 1)
    end
  in
  let cycles = go 0 in
  {
    samples = List.rev !samples;
    cycle_ms = List.rev !cycle_ms;
    cycles;
    wall_s = Probe.now () -. t0;
    wal_bytes = !wal_bytes;
    wal_appends = !wal_appends;
  }

(* --- in-process replay ------------------------------------------------ *)

type replayed = {
  times : (kind * float) list;  (** per request, in request order *)
  refine_stats : Router.Improve.stats list;
  analyze_cost : int list;
  engine : (float * Router.Engine.stats) list;  (** Engine.route probe *)
  final : Router.Session.t;
}

(* The same script on a Router.Session in this process: the session call
   time each request's client latency is compared with.  Before each
   route, Engine.route runs alone on the session's problem, so the
   engine's share of a route request can be read off. *)
let replay problem ~next ~cycles =
  let s = Router.Session.create ~config problem in
  ignore (Router.Session.route s);
  let times = ref [] and refines = ref [] in
  let costs = ref [] and engine = ref [] in
  let time kind f =
    let v, secs = Out.timed f in
    times := (kind, secs *. 1000.) :: !times;
    v
  in
  for cyc = 0 to cycles - 1 do
    List.iter
      (fun step ->
        match step.kind with
        | Rip -> (
            let net = Option.get (Router.Session.net_id s step.net) in
            match time Rip (fun () -> Probe.span "session" (fun () -> Router.Session.rip s ~net)) with
            | Ok () -> ()
            | Error e -> Out.require false ("session rip: " ^ e))
        | Route ->
            let p = Router.Session.problem s in
            let r, secs =
              Out.timed (fun () ->
                  Probe.span "engine" (fun () -> Router.Engine.route ~config p))
            in
            engine := (secs *. 1000., r.Router.Engine.stats) :: !engine;
            ignore
              (time Route (fun () ->
                   Probe.span "session" (fun () -> Router.Session.route s)))
        | Verify ->
            let v = time Verify (fun () -> Probe.span "drc" (fun () -> Router.Session.verify s)) in
            Out.require (v = []) "session verify not clean"
        | Refine ->
            refines :=
              time Refine (fun () ->
                  Probe.span "improve" (fun () -> Router.Session.refine s))
              :: !refines
        | Analyze ->
            let a =
              time Analyze (fun () ->
                  Probe.span "analyze" (fun () ->
                      Analyze.run
                        (Netlist.Problem.realize (Router.Session.problem s))))
            in
            costs := a.Analyze.cost :: !costs)
      (next cyc)
  done;
  {
    times = List.rev !times;
    refine_stats = List.rev !refines;
    analyze_cost = List.rev !costs;
    engine = List.rev !engine;
    final = s;
  }
