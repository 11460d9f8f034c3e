open Vp_core
module Json = Vp_observe.Json
module C = Json.Codec
module Service = Vp_online.Service

let c_requests = Vp_observe.Stats.counter "server.requests"

let c_shed = Vp_observe.Stats.counter "server.shed"

type t = { conn : Conn_server.t; jobs : int; sessions : Sessions.t }

let create ?host ?(port = Protocol.default_port) ?(jobs = 4)
    ?(max_pending = 64) ?data_dir ?max_resident ?fsync () =
  if jobs < 1 then invalid_arg "Daemon.create: jobs must be >= 1";
  if jobs > Conn_server.max_jobs then
    invalid_arg
      (Printf.sprintf "Daemon.create: jobs must be <= %d" Conn_server.max_jobs);
  if max_pending < 1 then invalid_arg "Daemon.create: max_pending must be >= 1";
  let conn =
    Conn_server.create ?host ~port ~jobs ~max_pending ~shed:c_shed ()
  in
  { conn; jobs; sessions = Sessions.create ?data_dir ?max_resident ?fsync () }

let port t = Conn_server.port t.conn

let jobs t = t.jobs

let stop t = Conn_server.stop t.conn

let install_signal_handlers t = Conn_server.install_signal_handlers t.conn

(* --- per-request dispatch --- *)

let status_string = function
  | Partitioner.Complete -> "complete"
  | Partitioner.Timed_out _ -> "timed_out"

let stats_reply t =
  let snap = Vp_observe.Stats.snapshot () in
  C.encode Protocol.stats_reply
    {
      sessions = Sessions.count t.sessions;
      counters = snap.counters;
      gauges = snap.gauges;
      shards = None;
      shards_unreachable = None;
    }

(* When the request names an algorithm with a disk-aware spelling —
   BruteForce/ILP take the I/O pruning bound, the portfolio takes the
   pmv cost floor that makes early cancellation sound — use it; the
   request's buffer size selects the disk the bound prices. *)
let resolve_algorithm disk name =
  match String.lowercase_ascii name with
  | "bruteforce" ->
      Some
        (Vp_algorithms.Brute_force.make
           ~lower_bound:(Vp_cost.Bounds.io_brute_force disk) ())
  | "ilp" -> Some (Vp_algorithms.Ilp.with_bound disk)
  | "portfolio" -> Some (Vp_algorithms.Portfolio.with_bound disk)
  | _ -> Vp_algorithms.Registry.find_opt name

let entrant_summary (e : Partitioner.Response.entrant) =
  {
    Protocol.entrant = e.entrant;
    entrant_short = e.entrant_short;
    entrant_cost = e.entrant_cost;
    entrant_status = status_string e.entrant_status;
    entrant_cost_calls = e.entrant_stats.Partitioner.cost_calls;
    entrant_winner = e.winner;
  }

let partition_reply ~workload ~algorithm ~buffer_mb ~budget =
  let disk =
    Vp_cost.Disk.with_buffer_size Vp_cost.Disk.default
      (Vp_cost.Disk.mb buffer_mb)
  in
  match resolve_algorithm disk algorithm with
  | None ->
      Protocol.error_reply
        (Printf.sprintf "unknown algorithm %S (try: %s)" algorithm
           (String.concat ", " Vp_algorithms.Registry.names))
  | Some algo ->
      let request =
        Vp_cost.Io_model.request
          ?budget:(Protocol.budget_of_spec budget)
          ~label:"server" disk workload
      in
      let resp = Partitioner.exec algo request in
      let winner, entrants =
        match resp.provenance.entrants with
        | [] -> (None, None)
        | entrants ->
            ( List.find_map
                (fun (e : Partitioner.Response.entrant) ->
                  if e.winner then Some e.entrant else None)
                entrants,
              Some (List.map entrant_summary entrants) )
      in
      C.encode Protocol.partitioned
        {
          layout = Protocol.layout_names (Workload.table workload) resp.partitioning;
          cost = resp.cost;
          run_status = status_string resp.status;
          algorithm = resp.provenance.algorithm;
          cost_calls = resp.stats.cost_calls;
          winner;
          entrants;
        }

(* The session op's reply, or its error. *)
let answer desc = function
  | Ok v -> C.encode desc v
  | Error msg -> Protocol.error_reply msg

let dispatch t req =
  match (req : Protocol.request) with
  | Ping -> C.encode Protocol.pong Protocol.protocol_version
  | Stats -> stats_reply t
  | Partition { workload; algorithm; buffer_mb; budget } ->
      partition_reply ~workload ~algorithm ~buffer_mb ~budget
  | Open spec -> answer Protocol.opened (Sessions.open_session t.sessions spec)
  | Ingest { session; attributes; weight; name; seq; budget } ->
      answer Protocol.ingested
        (Sessions.ingest t.sessions session ?seq ?deadline_ms:budget.deadline_ms
           ?budget_steps:budget.budget_steps ~attributes ~weight ?name ())
  | Layout { session } ->
      answer Protocol.layout_view
        (Sessions.view t.sessions session (fun svc ->
             {
               Protocol.generation = Service.generation svc;
               ingested = Service.ingested svc;
               layout = Protocol.layout_names (Service.table svc) (Service.layout svc);
             }))
  | History { session } ->
      answer Protocol.history_view
        (Sessions.view t.sessions session (fun svc ->
             { Protocol.generation = Service.generation svc; history = Service.history svc }))
  | Close { session } -> answer Protocol.closed (Sessions.close t.sessions session)
  | Detach { session } -> answer Protocol.detached (Sessions.detach t.sessions session)
  | Adopt { session } -> answer Protocol.adopted (Sessions.adopt t.sessions session)
  | Session_list -> C.encode Protocol.session_list (Sessions.names t.sessions)
  | Sleep { ms } ->
      Unix.sleepf (float_of_int ms /. 1000.0);
      C.encode Protocol.slept ms
  | Shutdown ->
      stop t;
      C.encode Protocol.stopping ()

let reply_to_frame t line =
  if Vp_observe.Switch.stats_on () then Vp_observe.Stats.incr c_requests;
  match
    Json.of_string ~max_depth:Protocol.max_depth
      ~max_size:Protocol.max_frame_bytes line
  with
  | Error msg -> Protocol.error_reply (Printf.sprintf "malformed frame: %s" msg)
  | Ok doc -> (
      match Protocol.request_of_json doc with
      | Error msg -> Protocol.error_reply msg
      | Ok req -> (
          let run () = dispatch t req in
          let guarded () =
            try run ()
            with exn ->
              Protocol.error_reply
                (Printf.sprintf "internal error: %s" (Printexc.to_string exn))
          in
          if Vp_observe.Switch.trace_on () then
            Vp_observe.Trace.with_span ~name:"server.request"
              ~args:[ ("op", Protocol.op_name req) ]
              guarded
          else guarded ()))

let serve t =
  let reply line = Json.to_string (reply_to_frame t line) in
  Conn_server.serve t.conn
    ~connection:(fun () -> { Conn_server.reply; release = ignore })
    ~epilogue:(fun () -> Sessions.drain t.sessions)
