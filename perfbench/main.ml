(* perfbench: run one workload and print its metrics.

     main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]

   Prints a header line, then as the last line one JSON object with
   "correct", "attempted", "failed" and "metrics".  Exits 1 when the
   correctness gate fails. *)

module J = Util.Json
open Perfbench

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  exit 2

let () =
  let workload = ref None and seed = ref None in
  let seconds = ref 10. and trace = ref false in
  let rec parse = function
    | "--workload" :: w :: rest ->
        (match List.assoc_opt w Inputs.workloads with
        | Some w -> workload := Some w
        | None ->
            prerr_endline ("unknown workload: " ^ w);
            usage ());
        parse rest
    | "--seed" :: n :: rest ->
        seed := int_of_string_opt n;
        if !seed = None then usage ();
        parse rest
    | "--seconds" :: s :: rest ->
        (match float_of_string_opt s with Some s -> seconds := s | None -> usage ());
        parse rest
    | "--trace" :: t :: rest ->
        (match t with "0" -> trace := false | "1" -> trace := true | _ -> usage ());
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let w = match !workload with Some w -> w | None -> usage () in
  let seed = Option.value !seed ~default:Inputs.default_seed in
  let trace = !trace in
  Bench.run w ~seed ~seconds:!seconds ~trace;
  let cores = Domain.recommended_domain_count () in
  let header =
    [
      ("workload", J.String (Inputs.name w));
      ("seed", J.Int seed);
      ( "input",
        J.String
          (match w with
          | Inputs.Eco_session -> "chip_scale 160x112 block; the seed drives the edit script"
          | _ -> Inputs.committed w ^ "; the seed changes nothing") );
      ("trace", J.Bool trace);
      ("host_cores", J.Int cores);
      ("cpu_bound", J.Bool (cores = 1));
      ("load", J.String "one process, one client, one server shard, jobs 1");
      ("config", J.String (Router.Config.describe Inputs.production));
      ( "git_rev",
        J.String (Option.value (Sys.getenv_opt "PERFBENCH_GIT_REV") ~default:"unknown") );
      ("ocaml", J.String Sys.ocaml_version);
    ]
    @ List.rev !Out.header
  in
  print_endline ("perfbench " ^ J.to_string (J.Obj header));
  List.iter (fun e -> prerr_endline ("perfbench: " ^ e)) (List.rev !Out.errors);
  print_endline (J.to_string (Bench.result_json ~trace));
  exit (if Out.correct () then 0 else 1)
