(* The repository benchmark. Usage:

     bench.exe --workload offline|serve|cluster --seed N --seconds S
               --trace 0|1 --vp PATH --work-dir DIR [--pin-reference]

   Prints one line per metric, then the result object as the last line of
   standard output. Exits 1 when any output check failed. *)

open Common

let usage () =
  prerr_endline
    "usage: bench.exe --workload offline|serve|cluster --seed N --seconds S \
     --trace 0|1 --vp PATH --work-dir DIR [--pin-reference]";
  exit 2

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  vp : string;
  work_dir : string;
  pin_reference : bool;
}

let parse_args () =
  let rec go a = function
    | [] -> a
    | "--workload" :: v :: rest -> go { a with workload = v } rest
    | "--seed" :: v :: rest -> (
        match int_of_string_opt v with
        | Some s -> go { a with seed = s } rest
        | None -> usage ())
    | "--seconds" :: v :: rest -> (
        match float_of_string_opt v with
        | Some s when s > 0.0 -> go { a with seconds = s } rest
        | _ -> usage ())
    | "--trace" :: (("0" | "1") as v) :: rest ->
        go { a with trace = v = "1" } rest
    | "--vp" :: v :: rest -> go { a with vp = v } rest
    | "--work-dir" :: v :: rest -> go { a with work_dir = v } rest
    | "--pin-reference" :: rest -> go { a with pin_reference = true } rest
    | _ -> usage ()
  in
  go
    {
      workload = "";
      seed = 1;
      seconds = 20.0;
      trace = false;
      vp = "";
      work_dir = ".perfbench";
      pin_reference = false;
    }
    (List.tl (Array.to_list Sys.argv))

let () =
  let a = parse_args () in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  if not (Sys.file_exists a.work_dir) then Unix.mkdir a.work_dir 0o755;
  let { vp; work_dir; seed; seconds; _ } = a in
  let workload_metrics, metrics, attempted, failed =
    match (a.workload, a.trace) with
    | ("offline" | "serve" | "cluster"), true ->
        let layers, spans =
          Layers.run ~vp ~work_dir ~seed ~workload:a.workload
        in
        ([], layers, spans, 0)
    | "offline", false ->
        Offline.run ~seed ~seconds ~pin_reference:a.pin_reference
    | "serve", false -> Serve.run ~vp ~work_dir ~seed ~seconds
    | "cluster", false -> Cluster.run ~vp ~work_dir ~seed ~seconds
    | _ -> usage ()
  in
  List.iter (print_metric ~tag:"metric") workload_metrics;
  if not a.trace then List.iter (print_metric ~tag:"e2e") metrics;
  let correct = !failures = 0 in
  let failed = max failed (min attempted !failures) in
  print_result ~correct ~attempted ~failed metrics;
  exit (if correct then 0 else 1)
