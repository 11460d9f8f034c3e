(* The system under test as separate processes: `vp serve` or `vp cluster`
   spawned on port 0, with the bound port read from the startup banner.
   Every spawned process is registered so that every exit path, including
   an exception or a failed check, stops the whole fleet. *)

type t = {
  pid : int;  (** the daemon, or the cluster router *)
  mutable exited : bool;  (** [pid] has been reaped *)
  mutable port : int;
  dir : string;  (** data dir and logs, removed by {!stop} *)
  mutable shards : int list;  (** shard pids (children of the router) *)
}

let live : t list ref = ref []

let rec remove_tree path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter
        (fun f -> remove_tree (Filename.concat path f))
        (try Sys.readdir path with Sys_error _ -> [||]);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

let counter = ref 0

let fresh_dir work_dir tag =
  incr counter;
  let dir =
    Filename.concat work_dir
      (Printf.sprintf "%s-%d-%d" tag (Unix.getpid ()) !counter)
  in
  remove_tree dir;
  Unix.mkdir dir 0o755;
  dir

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> ""
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))

(* A process that is gone or a zombie no longer counts as running. *)
let running pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | "" -> false
  | stat -> (
      match String.rindex_opt stat ')' with
      | Some i when i + 2 < String.length stat -> stat.[i + 2] <> 'Z'
      | _ -> true)

let reaped t =
  (if not t.exited then
     match Unix.waitpid [ Unix.WNOHANG ] t.pid with
     | 0, _ -> ()
     | _ -> t.exited <- true
     | exception Unix.Unix_error (Unix.ECHILD, _, _) -> t.exited <- true);
  t.exited

let kill_quietly signal pid =
  try Unix.kill pid signal with Unix.Unix_error _ -> ()

let wait_until ~timeout cond =
  let deadline = Common.now () +. timeout in
  let rec go () =
    if cond () then true
    else if Common.now () > deadline then false
    else begin
      Unix.sleepf 0.005;
      go ()
    end
  in
  go ()

(* Graceful drain first (SIGTERM: the router also drains its shards), then
   SIGKILL for anything still running. Returns once every process ended. *)
let stop t =
  if List.memq t !live then begin
    live := List.filter (fun u -> u != t) !live;
    if not (reaped t) then begin
      kill_quietly Sys.sigterm t.pid;
      if not (wait_until ~timeout:15.0 (fun () -> reaped t)) then begin
        kill_quietly Sys.sigkill t.pid;
        ignore (wait_until ~timeout:5.0 (fun () -> reaped t))
      end
    end;
    let stragglers = List.filter running t.shards in
    List.iter (kill_quietly Sys.sigkill) stragglers;
    ignore
      (wait_until ~timeout:5.0 (fun () ->
           not (List.exists running stragglers)));
    remove_tree t.dir
  end

let () = at_exit (fun () -> List.iter stop !live)

(* The port in the first line of the startup banner, once it is complete:
   "<banner> listening on 127.0.0.1:<port> (...)". *)
let banner_port ~log ~banner =
  let text = read_file log in
  match String.index_opt text '\n' with
  | Some i when String.starts_with ~prefix:banner text -> (
      try Scanf.sscanf (String.sub text 0 i) "%_s@:%d" Option.some
      with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)
  | _ -> None

let spawn ~vp ~work_dir ~tag args ~banner =
  let dir = fresh_dir work_dir tag in
  let log = Filename.concat dir "stdout.log" in
  let err = Filename.concat dir "stderr.log" in
  let open_out path =
    Unix.openfile path
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o644
  in
  let out_fd = open_out log and err_fd = open_out err in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let argv =
    Array.of_list (vp :: args @ [ "--data-dir"; Filename.concat dir "data" ])
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> List.iter Unix.close [ out_fd; err_fd; null ])
      (fun () -> Unix.create_process vp argv null out_fd err_fd)
  in
  let t = { pid; exited = false; port = 0; dir; shards = [] } in
  live := t :: !live;
  let port = ref None in
  ignore
    (wait_until ~timeout:60.0 (fun () ->
         port := banner_port ~log ~banner;
         !port <> None || reaped t));
  match !port with
  | Some port when not t.exited ->
      t.port <- port;
      t
  | _ ->
      let msg = String.trim (read_file err) in
      stop t;
      failwith (Printf.sprintf "%s did not start: %s" tag msg)

let serve ~vp ~work_dir =
  spawn ~vp ~work_dir ~tag:"serve" [ "serve"; "--port"; "0" ]
    ~banner:"vp layout server"

let cluster ~vp ~work_dir =
  spawn ~vp ~work_dir ~tag:"cluster" [ "cluster"; "--port"; "0" ]
    ~banner:"vp layout cluster"

type shard = { id : string; shard_port : int; shard_pid : int }

(* Reads the fleet from the router's [cluster_info] control op and records
   the shard pids, so a router that dies without draining cannot leave
   shards behind. Returns the shards and the ring's replica count. *)
let shards t =
  let module Protocol = Vp_server.Protocol in
  let conn = Wire.connect t.port in
  let reply =
    Fun.protect
      ~finally:(fun () -> Wire.close conn)
      (fun () -> Wire.rpc conn {|{"op":"cluster_info"}|})
  in
  let malformed () = failwith ("cluster_info: unexpected reply " ^ reply) in
  let shard j =
    match
      Protocol.
        (string_field "id" j, int_field "port" j, int_field "pid" j)
    with
    | Some id, Some shard_port, Some shard_pid -> { id; shard_port; shard_pid }
    | _ -> malformed ()
  in
  match Vp_observe.Json.of_string reply with
  | Ok doc -> (
      match
        (Vp_observe.Json.member "shards" doc, Protocol.int_field "replicas" doc)
      with
      | Some (Vp_observe.Json.List l), Some replicas ->
          let shards = List.map shard l in
          t.shards <- List.map (fun s -> s.shard_pid) shards;
          (shards, replicas)
      | _ -> malformed ())
  | Error _ -> malformed ()

(* Peak resident memory of the whole fleet: daemon or router plus shards. *)
let peak_rss_mib t =
  List.fold_left
    (fun acc pid -> acc +. Common.peak_rss_mib pid)
    0.0 (t.pid :: t.shards)
