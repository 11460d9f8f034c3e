module Daemon = Vp_server.Daemon
module Journal = Vp_robust.Journal

let sentinel = "--vp-shard-worker"

let parse_fsync = function
  | "never" -> Journal.Never
  | "always" -> Journal.Always
  | s -> (
      match int_of_string_opt s with
      | Some n when n >= 1 -> Journal.Interval n
      | _ -> failwith (Printf.sprintf "bad --fsync value %S" s))

(* Temp + rename: the router polling the port file never reads a torn
   write. *)
let write_port_file path port =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc (string_of_int port);
  output_char oc '\n';
  close_out oc;
  Sys.rename tmp path

(* A restart-with-recovery reuses the dead shard's fixed port; the old
   socket can linger in TIME_WAIT for a beat even with SO_REUSEADDR
   (e.g. a straggling accepted connection), so retry briefly. *)
let rec create_daemon ~attempts ~port create =
  match create ~port with
  | d -> d
  | exception Unix.Unix_error (Unix.EADDRINUSE, _, _)
    when port <> 0 && attempts > 1 ->
      Unix.sleepf 0.05;
      create_daemon ~attempts:(attempts - 1) ~port create

(* [argv] is this process's whole argv: the executable, the sentinel,
   then the worker flags. *)
let run argv =
  let port = ref 0 and port_file = ref None and data_dir = ref None in
  let jobs = ref 4 and max_resident = ref None and fsync = ref Journal.Never in
  let some r = Arg.String (fun v -> r := Some v) in
  Arg.parse_argv ~current:(ref 1) argv
    [
      ("--port", Arg.Set_int port, "");
      ("--port-file", some port_file, "");
      ("--data-dir", some data_dir, "");
      ("--jobs", Arg.Set_int jobs, "");
      ("--max-resident", Arg.Int (fun n -> max_resident := Some n), "");
      ("--fsync", Arg.String (fun v -> fsync := parse_fsync v), "");
    ]
    (fun a -> raise (Arg.Bad (Printf.sprintf "unknown shard-worker flag %S" a)))
    "";
  (* Shards publish their own counters/histograms: the router's stats
     op aggregates them over the wire. *)
  Vp_observe.Switch.(raise_to Stats);
  let d =
    create_daemon ~attempts:100 ~port:!port (fun ~port ->
        Daemon.create ~port ~jobs:!jobs ?data_dir:!data_dir
          ?max_resident:!max_resident ~fsync:!fsync ())
  in
  Option.iter (fun path -> write_port_file path (Daemon.port d)) !port_file;
  Daemon.install_signal_handlers d;
  Daemon.serve d

let maybe_run () =
  if Array.length Sys.argv >= 2 && Sys.argv.(1) = sentinel then begin
    (try run Sys.argv
     with exn ->
       prerr_endline ("vp shard worker: " ^ Printexc.to_string exn);
       exit 1);
    exit 0
  end
