module Json = Vp_observe.Json
module C = Json.Codec
module Protocol = Vp_server.Protocol
module Sessions = Vp_server.Sessions
module Journal = Vp_robust.Journal
module Client = Vp_client.Client
module Conn_server = Vp_server.Conn_server

let c_requests = Vp_observe.Stats.counter "router.requests"

let c_forwards = Vp_observe.Stats.counter "router.forwards"

let c_shed = Vp_observe.Stats.counter "router.shed"

let c_handoffs = Vp_observe.Stats.counter "router.handoffs"

let c_restarts = Vp_observe.Stats.counter "router.restarts"

let c_failures = Vp_observe.Stats.counter "router.shard_failures"

let stat_incr c = if Vp_observe.Switch.stats_on () then Vp_observe.Stats.incr c

type shard = {
  id : string;
  dir : string;
  mutable port : int;
  mutable pid : int;  (* [-1] once known dead (awaiting respawn/removal) *)
  mutable healthy : bool;
  mutable restarts : int;
}

type t = {
  conn : Conn_server.t;
  shard_jobs : int;
  max_resident : int option;
  fsync : Journal.fsync;
  data_dir : string;
  (* [state] guards [shards] and [ring] (short critical sections on the
     request path); [control] serializes ring changes and supervision
     (held across a whole handoff). Lock order: control before state. *)
  state : Mutex.t;
  shards : (string, shard) Hashtbl.t;
  mutable ring : Ring.t;
  mutable next_id : int;
  control : Mutex.t;
  (* While a handoff is reshaping the ring, every session op sheds: a
     frame must never race the files it routes to. *)
  reconfiguring : bool Atomic.t;
  rr : int Atomic.t;
}

let locked_state t f = Mutex.protect t.state f

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* --- talking to shards: one-shot typed RPCs (control plane) --- *)

let shard_rpc ?attempts port reply req =
  let c = Client.create ~port () in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () -> Client.call ?attempts c reply req)

(* --- spawning and supervising the fleet --- *)

let fsync_arg = function
  | Journal.Never -> "never"
  | Journal.Always -> "always"
  | Journal.Interval n -> string_of_int n

let read_port_file path =
  if not (Sys.file_exists path) then None
  else
    try
      let ic = open_in path in
      let line = try input_line ic with End_of_file -> "" in
      close_in ic;
      int_of_string_opt (String.trim line)
    with Sys_error _ -> None

let new_shard data_dir id =
  {
    id;
    dir = Filename.concat data_dir id;
    port = 0;
    pid = 0;
    healthy = false;
    restarts = 0;
  }

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

let kill_and_reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

(* Spawns the shard's process (a re-exec of this binary through
   [Worker]) and waits until it reports its port and answers ping.
   Raises [Failure] — with the half-started process killed — when it
   cannot come up. *)
let spawn_shard t (s : shard) =
  mkdir_p s.dir;
  let port_file = Filename.concat s.dir "port" in
  (try Sys.remove port_file with Sys_error _ -> ());
  let args =
    [
      Sys.executable_name;
      Worker.sentinel;
      "--port";
      string_of_int s.port;
      "--port-file";
      port_file;
      "--data-dir";
      s.dir;
      "--jobs";
      string_of_int t.shard_jobs;
      "--fsync";
      fsync_arg t.fsync;
    ]
    @ (match t.max_resident with
      | Some n -> [ "--max-resident"; string_of_int n ]
      | None -> [])
  in
  let pid =
    Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin
      Unix.stdout Unix.stderr
  in
  s.pid <- pid;
  s.healthy <- false;
  let deadline = Unix.gettimeofday () +. 15.0 in
  let fail msg =
    kill_and_reap pid;
    s.pid <- -1;
    failwith (Printf.sprintf "shard %s failed to start: %s" s.id msg)
  in
  let rec wait_port () =
    match read_port_file port_file with
    | Some p -> p
    | None ->
        if exited pid then begin
          s.pid <- -1;
          failwith (Printf.sprintf "shard %s died during startup" s.id)
        end
        else if Unix.gettimeofday () > deadline then
          fail "no port report within 15s"
        else begin
          Unix.sleepf 0.01;
          wait_port ()
        end
  in
  s.port <- wait_port ();
  let rec wait_ping () =
    let c = Client.create ~port:s.port () in
    let r = Client.ping c in
    Client.close c;
    match r with
    | Ok _ -> ()
    | Error _ ->
        if Unix.gettimeofday () > deadline then fail "not answering ping"
        else begin
          Unix.sleepf 0.02;
          wait_ping ()
        end
  in
  wait_ping ();
  s.healthy <- true

(* One supervisor sweep: reap dead shards, restart them on their fixed
   port + data dir (the daemon's startup recovery scan restores their
   sessions). Runs with [control] held, so it never races a handoff. *)
let supervise_cycle t =
  let dead =
    locked_state t (fun () ->
        Hashtbl.fold
          (fun _ s acc ->
            if s.pid > 0 then if exited s.pid then s :: acc else acc
            else if s.pid = -1 then s :: acc (* earlier respawn failed *)
            else acc)
          t.shards [])
  in
  List.iter
    (fun s ->
      if not (Conn_server.stopping t.conn) then begin
        if s.healthy then begin
          s.healthy <- false;
          stat_incr c_failures
        end;
        s.pid <- -1;
        match spawn_shard t s with
        | () ->
            s.restarts <- s.restarts + 1;
            stat_incr c_restarts
        | exception _ -> () (* still down; retried next sweep *)
      end)
    dead

let supervise t =
  while not (Conn_server.stopping t.conn) do
    Mutex.protect t.control (fun () -> supervise_cycle t);
    Unix.sleepf 0.05
  done

(* Graceful stop of one shard: SIGTERM (the worker routes it to the
   daemon's drain, spilling every session to disk), escalating to
   SIGKILL after a generous grace period. *)
let stop_shard (s : shard) =
  if s.pid > 0 then begin
    (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = Unix.gettimeofday () +. 15.0 in
    let rec wait () =
      if not (exited s.pid) then
        if Unix.gettimeofday () > deadline then kill_and_reap s.pid
        else begin
          Unix.sleepf 0.02;
          wait ()
        end
    in
    wait ()
  end;
  s.pid <- -1;
  s.healthy <- false

(* --- construction --- *)

let create ?host ?(port = Protocol.default_port) ?(jobs = 4)
    ?(max_pending = 64) ?(shards = 3) ?(shard_jobs = 4) ?max_resident
    ?(fsync = Journal.Never) ~data_dir () =
  if jobs < 1 then invalid_arg "Router.create: jobs must be >= 1";
  (* The supervisor is a domain of its own. *)
  if jobs > Conn_server.max_jobs - 1 then
    invalid_arg
      (Printf.sprintf "Router.create: jobs must be <= %d"
         (Conn_server.max_jobs - 1));
  if max_pending < 1 then invalid_arg "Router.create: max_pending must be >= 1";
  if shards < 1 then invalid_arg "Router.create: shards must be >= 1";
  if shard_jobs < 1 then invalid_arg "Router.create: shard_jobs must be >= 1";
  if shard_jobs > Conn_server.max_jobs then
    invalid_arg
      (Printf.sprintf "Router.create: shard_jobs must be <= %d"
         Conn_server.max_jobs);
  let conn =
    Conn_server.create ?host ~port ~jobs ~max_pending ~shed:c_shed ()
  in
  let t =
    {
      conn;
      shard_jobs;
      max_resident;
      fsync;
      data_dir;
      state = Mutex.create ();
      shards = Hashtbl.create 8;
      ring = Ring.make [];
      next_id = shards;
      control = Mutex.create ();
      reconfiguring = Atomic.make false;
      rr = Atomic.make 0;
    }
  in
  mkdir_p data_dir;
  let fleet =
    List.init shards (fun i -> new_shard data_dir (Printf.sprintf "shard-%d" i))
  in
  (try List.iter (fun s -> spawn_shard t s) fleet
   with e ->
     List.iter (fun s -> stop_shard s) fleet;
     Conn_server.close conn;
     raise e);
  List.iter (fun s -> Hashtbl.replace t.shards s.id s) fleet;
  t.ring <- Ring.make (List.map (fun s -> s.id) fleet);
  t

let port t = Conn_server.port t.conn

let shard_count t = locked_state t (fun () -> Hashtbl.length t.shards)

let stop t = Conn_server.stop t.conn

let install_signal_handlers t = Conn_server.install_signal_handlers t.conn

(* --- the data plane: raw verbatim forwarding ---

   A forwarded frame and its reply are relayed byte-for-byte — never
   parsed-and-reprinted — so the shard's reply (including history
   strings under the determinism contract) crosses the router
   untouched. Each client connection keeps one cached connection per
   shard it has talked to. *)

type sconn = { sport : int; fd : Unix.file_descr; reader : Conn_server.reader }

let drop_conn cache id =
  match Hashtbl.find_opt cache id with
  | Some sc ->
      close_quietly sc.fd;
      Hashtbl.remove cache id
  | None -> ()

let conn_for cache (s : shard) =
  match Hashtbl.find_opt cache s.id with
  | Some sc when sc.sport = s.port -> Some sc
  | _ -> (
      drop_conn cache s.id;
      let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, s.port) in
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      match Unix.connect fd addr with
      | () ->
          let sc = { sport = s.port; fd; reader = Conn_server.reader fd } in
          Hashtbl.replace cache s.id sc;
          Some sc
      | exception Unix.Unix_error _ ->
          close_quietly fd;
          None)

let shed_reply () =
  stat_incr c_shed;
  Conn_server.overloaded

let error_reply msg = Json.to_string (Protocol.error_reply msg)

let forward cache (s : shard) line =
  stat_incr c_forwards;
  let failed () =
    (* The shard died (or hung up) mid-exchange: shed, so the client's
       seq-idempotent retry lands after the restart. *)
    drop_conn cache s.id;
    stat_incr c_failures;
    shed_reply ()
  in
  match conn_for cache s with
  | None ->
      stat_incr c_failures;
      shed_reply ()
  | Some sc -> (
      match Conn_server.write_frame sc.fd line with
      | exception Unix.Unix_error _ -> failed ()
      | () -> (
          match
            Conn_server.read_frame sc.reader ~max_bytes:Protocol.max_reply_bytes
          with
          | Frame reply -> reply
          | Too_long ->
              drop_conn cache s.id;
              error_reply Protocol.reply_too_long
          | Eof | Failed _ -> failed ()))

let owner t session =
  locked_state t (fun () ->
      match Ring.lookup_opt t.ring session with
      | None -> None
      | Some id -> Hashtbl.find_opt t.shards id)

let forward_session t cache session line =
  if Atomic.get t.reconfiguring then shed_reply ()
  else
    match owner t session with
    | Some s when s.healthy -> forward cache s line
    | Some _ | None -> shed_reply ()

let all_shards t =
  locked_state t (fun () -> Hashtbl.fold (fun _ s acc -> s :: acc) t.shards [])
  |> List.sort (fun a b -> String.compare a.id b.id)

let healthy_shards t = List.filter (fun s -> s.healthy) (all_shards t)

let forward_rr t cache line =
  match healthy_shards t with
  | [] -> shed_reply ()
  | shards ->
      let i = Atomic.fetch_and_add t.rr 1 in
      forward cache (List.nth shards (i mod List.length shards)) line

(* --- aggregated ops --- *)

let aggregate_stats t =
  let counters = Hashtbl.create 32 and gauges = Hashtbl.create 16 in
  let bump table kvs =
    List.iter
      (fun (name, v) ->
        Hashtbl.replace table name
          (v + Option.value (Hashtbl.find_opt table name) ~default:0))
      kvs
  in
  let sessions = ref 0 and unreachable = ref 0 in
  let per_shard = ref [] in
  List.iter
    (fun (s : shard) ->
      if not s.healthy then incr unreachable
      else
        match shard_rpc ~attempts:3 s.port Protocol.stats_reply Protocol.stats with
        | Error _ -> incr unreachable
        | Ok reply ->
            sessions := !sessions + reply.sessions;
            per_shard := (s.id, reply.sessions) :: !per_shard;
            bump counters reply.counters;
            bump gauges reply.gauges)
    (all_shards t);
  (* The router's own probes ride along under their router.* names. *)
  let snap = Vp_observe.Stats.snapshot () in
  bump counters snap.counters;
  bump gauges snap.gauges;
  let sorted table =
    Hashtbl.fold (fun name v acc -> (name, v) :: acc) table []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  C.encode Protocol.stats_reply
    {
      sessions = !sessions;
      counters = sorted counters;
      gauges = sorted gauges;
      shards = Some (List.rev !per_shard);
      shards_unreachable = Some !unreachable;
    }

let session_names ?attempts (s : shard) =
  match shard_rpc ?attempts s.port Protocol.session_list Protocol.sessions_request with
  | Ok names -> names
  | Error _ -> []

let aggregate_sessions t =
  let names =
    List.concat_map
      (fun (s : shard) -> if s.healthy then session_names ~attempts:3 s else [])
      (all_shards t)
  in
  C.encode Protocol.session_list (List.sort_uniq compare names)

let cluster_info t =
  let info (s : shard) =
    { Protocol.id = s.id; port = s.port; pid = s.pid; healthy = s.healthy; restarts = s.restarts }
  in
  C.encode Protocol.cluster_info
    {
      fleet = List.map info (all_shards t);
      replicas = Ring.default_replicas;
      reconfiguring = Atomic.get t.reconfiguring;
    }

(* --- handoff: ring changes move sessions as files --- *)

let move_session_files ~src ~dst name =
  let prefix = Sessions.file_prefix name in
  List.iter
    (fun ext ->
      let from_path = Filename.concat src (prefix ^ ext) in
      if Sys.file_exists from_path then
        Sys.rename from_path (Filename.concat dst (prefix ^ ext)))
    [ ".meta"; ".snap"; ".wal" ]

(* Moves one spilled session's files into [dest] and has it adopt them. *)
let hand_off ~src (dest : shard) name ~moved ~errors =
  move_session_files ~src ~dst:dest.dir name;
  if Result.is_ok (shard_rpc dest.port Protocol.adopted (Protocol.adopt_request ~session:name))
  then begin
    incr moved;
    stat_incr c_handoffs
  end
  else incr errors

let handoff_reply id ~moved ~errors =
  C.encode Protocol.handoff { shard = id; moved = !moved; handoff_errors = !errors }

let with_control t f = Mutex.protect t.control f

let while_reconfiguring t f =
  Atomic.set t.reconfiguring true;
  Fun.protect ~finally:(fun () -> Atomic.set t.reconfiguring false) f

(* Remove: gracefully stop the victim (its drain spills every session),
   then move everything it left on disk to the new ring owners. A
   victim that already crashed is just reaped — its crash state (meta +
   WAL) hands off the same way, and the gainer's first touch replays it
   exactly like crash recovery. *)
let cluster_remove t id =
  with_control t (fun () ->
      match locked_state t (fun () -> Hashtbl.find_opt t.shards id) with
      | None -> Protocol.error_reply (Printf.sprintf "unknown shard %S" id)
      | Some victim ->
          if locked_state t (fun () -> Hashtbl.length t.shards) <= 1 then
            Protocol.error_reply "cannot remove the last shard"
          else
            while_reconfiguring t (fun () ->
                let ring' = locked_state t (fun () -> Ring.remove t.ring id) in
                stop_shard victim;
                let names = Sessions.on_disk_sessions victim.dir in
                let moved = ref 0 and errors = ref 0 in
                List.iter
                  (fun name ->
                    let dest =
                      locked_state t (fun () ->
                          Option.bind (Ring.lookup_opt ring' name)
                            (Hashtbl.find_opt t.shards))
                    in
                    match dest with
                    | None -> incr errors
                    | Some dest ->
                        hand_off ~src:victim.dir dest name ~moved ~errors)
                  names;
                locked_state t (fun () ->
                    Hashtbl.remove t.shards id;
                    t.ring <- ring');
                handoff_reply id ~moved ~errors))

(* Add: bring the newcomer up first, then pull over exactly the
   sessions the new ring assigns to it (the consistent-hash property:
   nothing else moves). Live losers [detach] (spill + forget, files
   kept); a crashed loser's sessions are taken straight off its disk. *)
let cluster_add t =
  with_control t (fun () ->
      let id =
        let id = Printf.sprintf "shard-%d" t.next_id in
        t.next_id <- t.next_id + 1;
        id
      in
      let s = new_shard t.data_dir id in
      match spawn_shard t s with
      | exception Failure msg -> Protocol.error_reply msg
      | () ->
          locked_state t (fun () -> Hashtbl.replace t.shards id s);
          let ring' = locked_state t (fun () -> Ring.add t.ring id) in
          while_reconfiguring t (fun () ->
              let moved = ref 0 and errors = ref 0 in
              let losers =
                List.filter (fun (l : shard) -> l.id <> id) (all_shards t)
              in
              List.iter
                (fun (l : shard) ->
                  let live = l.healthy && l.pid > 0 in
                  let names =
                    if live then session_names l else Sessions.on_disk_sessions l.dir
                  in
                  List.iter
                    (fun name ->
                      if Ring.lookup ring' name = id then begin
                        let detached =
                          if live then
                            Result.is_ok
                              (shard_rpc l.port Protocol.detached
                                 (Protocol.detach_request ~session:name))
                          else true
                        in
                        if detached then
                          hand_off ~src:l.dir s name ~moved ~errors
                        else incr errors
                      end)
                    names)
                losers;
              locked_state t (fun () -> t.ring <- ring');
              handoff_reply id ~moved ~errors))

let cluster_locate t session =
  match locked_state t (fun () -> Ring.lookup_opt t.ring session) with
  | Some id -> C.encode Protocol.located id
  | None -> Protocol.error_reply "the ring is empty"

(* [f] of the one member the router reads from a frame, or that
   member's error. *)
let with_member m doc f =
  match C.decode m doc with
  | v -> f v
  | exception C.Error e -> error_reply (C.error_message e)

(* --- per-frame dispatch --- *)

(* The ops the router answers itself. *)
let answer t op =
  match op with
  | "ping" -> C.encode Protocol.router_pong (shard_count t)
  | "stats" -> aggregate_stats t
  | "sessions" -> aggregate_sessions t
  | "detach" | "adopt" ->
      Protocol.error_reply
        (Printf.sprintf
           "op %S is shard-internal; the router manages session placement" op)
  | "shutdown" ->
      stop t;
      C.encode Protocol.stopping ()
  | "cluster_info" -> cluster_info t
  | "cluster_add" -> cluster_add t
  | other -> Protocol.error_reply (Printf.sprintf "unknown op %S" other)

let dispatch t cache op doc line =
  match op with
  | "open" | "ingest" | "layout" | "history" | "close" ->
      with_member Protocol.session_of doc (fun session ->
          forward_session t cache session line)
  | "partition" | "sleep" -> forward_rr t cache line
  | "cluster_locate" ->
      with_member Protocol.session_of doc (fun s -> Json.to_string (cluster_locate t s))
  | "cluster_remove" ->
      with_member Protocol.shard_of doc (fun id -> Json.to_string (cluster_remove t id))
  | _ -> Json.to_string (answer t op)

let reply_to_frame t cache line =
  stat_incr c_requests;
  match
    Json.of_string ~max_depth:Protocol.max_depth
      ~max_size:Protocol.max_frame_bytes line
  with
  | Error msg -> error_reply (Printf.sprintf "malformed frame: %s" msg)
  | Ok doc -> (
      match Protocol.frame_op doc with
      | Ok op ->
          let run () = dispatch t cache op doc line in
          let guarded () =
            try run ()
            with exn ->
              error_reply
                (Printf.sprintf "internal error: %s" (Printexc.to_string exn))
          in
          if Vp_observe.Switch.trace_on () then
            Vp_observe.Trace.with_span ~name:"router.request"
              ~args:[ ("op", op) ] guarded
          else guarded ()
      | Error msg -> error_reply msg)

(* One cached connection per shard the client connection talked to. *)
let connection t () =
  let cache : (string, sconn) Hashtbl.t = Hashtbl.create 4 in
  {
    Conn_server.reply = reply_to_frame t cache;
    release = (fun () -> Hashtbl.iter (fun _ sc -> close_quietly sc.fd) cache);
  }

let serve t =
  let supervisor = Domain.spawn (fun () -> supervise t) in
  Conn_server.serve t.conn ~connection:(connection t) ~epilogue:(fun () ->
      Domain.join supervisor;
      List.iter stop_shard (all_shards t))
