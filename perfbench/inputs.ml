(* Workload inputs, made before anything is timed.  The router only ever
   sees the problem text. *)

type workload = Chip_route | Switchbox_route | Eco_session | Macro_flow

let workloads =
  [ ("chip_route", Chip_route); ("switchbox_route", Switchbox_route);
    ("eco_session", Eco_session); ("macro_flow", Macro_flow) ]

let name w = fst (List.find (fun (_, w') -> w' = w) workloads)

(* [Full] is the benchmark; [Tiny] shrinks every input so the self-test
   can run each workload end to end in a second. *)
type size = Full | Tiny

(* Every workload routes one fixed problem, and only the eco edit script
   follows the seed.  Generated instances differ too much from seed to
   seed for a steady figure: over five seeds, chip_route's route time
   spanned 14.5-23.5 s and its wirelength 14.4k-16.4k; one 128x104
   routable switchbox took 73 s and left nets unrouted; four of five sets
   of four 128x104 macro netlists left nets unrouted. *)
let default_seed = 11

(* The committed instance each batch workload routes (instances/), and
   the generator call that reproduces it byte for byte. *)
let committed = function
  | Chip_route -> "chip_320x224_l3"
  | Switchbox_route -> "switchbox_128x104"
  | Macro_flow -> "macro_128x104"
  | Eco_session -> invalid_arg "eco_session has no committed instance"

let regenerate = function
  | Chip_route ->
      Workload.Gen.chip_scale ~layers:3 ~slot_prob:0.6 ~macro_cols:10
        ~macro_rows:7 (Util.Prng.create 11) ~width:320 ~height:224
  | Switchbox_route ->
      Workload.Gen.routable_switchbox (Util.Prng.create 232) ~width:128
        ~height:104
  | Macro_flow ->
      Workload.Gen.macro ~macros:8 (Util.Prng.create 23) ~width:128
        ~height:104 ~nets:26
  | Eco_session -> invalid_arg "eco_session has no committed instance"

let chip_block size =
  let prng = Util.Prng.create 11 in
  match size with
  | Full ->
      (* About 344 nets on a 160x112 three-layer block. *)
      Workload.Gen.chip_scale ~layers:3 ~slot_prob:0.6 ~macro_cols:5
        ~macro_rows:4 prng ~width:160 ~height:112
  | Tiny ->
      Workload.Gen.chip_scale ~layers:3 ~slot_prob:0.6 ~macro_cols:2
        ~macro_rows:2 prng ~width:48 ~height:40

let text = Netlist.Parse.to_string

(* The problem text of a workload.  Committed instances are read from
   instances/ under the working directory, the repository root. *)
let problem_text size w =
  match (size, w) with
  | _, Eco_session -> text (chip_block size)
  | Full, _ ->
      In_channel.with_open_bin
        (Filename.concat "instances" (committed w ^ ".problem"))
        In_channel.input_all
  | Tiny, Chip_route -> text (chip_block Tiny)
  | Tiny, Switchbox_route ->
      text
        (Workload.Gen.routable_switchbox (Util.Prng.create 232) ~width:20
           ~height:16)
  | Tiny, Macro_flow ->
      (* The committed macro_48x40. *)
      text
        (Workload.Gen.macro ~macros:4 (Util.Prng.create 5) ~width:48 ~height:40
           ~nets:9)

(* The configuration every bench and CI run uses: bucket kernel, A*,
   search window 4, one routing domain. *)
let production =
  {
    Router.Config.default with
    Router.Config.use_astar = true;
    kernel = Maze.Search.Buckets;
    window_margin = Some 4;
  }
