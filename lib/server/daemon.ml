open Vp_core
module Json = Vp_observe.Json

let c_requests = Vp_observe.Stats.counter "server.requests"

let c_shed = Vp_observe.Stats.counter "server.shed"

type t = { conn : Conn_server.t; jobs : int; sessions : Sessions.t }

let create ?host ?(port = Protocol.default_port) ?(jobs = 4)
    ?(max_pending = 64) ?data_dir ?max_resident ?fsync () =
  if jobs < 1 then invalid_arg "Daemon.create: jobs must be >= 1";
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
  let ints kvs = Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) kvs) in
  Protocol.ok_reply
    [
      ("sessions", Json.Int (Sessions.count t.sessions));
      ("counters", ints snap.Vp_observe.Stats.counters);
      ("gauges", ints snap.Vp_observe.Stats.gauges);
    ]

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

let entrant_json (e : Partitioner.Response.entrant) =
  Json.Codec.encode Protocol.entrant
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
      let cost = Vp_cost.Io_model.oracle disk workload in
      let delta = Vp_cost.Io_model.Incremental.factory disk workload in
      let request =
        Partitioner.Request.make
          ?budget:(Protocol.budget_of_spec budget)
          ~label:"server" ~delta ~cost workload
      in
      let resp = Partitioner.exec algo request in
      let race_fields =
        match resp.Partitioner.Response.provenance.entrants with
        | [] -> []
        | entrants ->
            let winner =
              List.find_opt
                (fun (e : Partitioner.Response.entrant) -> e.winner)
                entrants
            in
            (match winner with
            | Some e -> [ ("winner", Json.String e.entrant) ]
            | None -> [])
            @ [ ("entrants", Json.List (List.map entrant_json entrants)) ]
      in
      Protocol.ok_reply
        ([
           ( "layout",
             Protocol.layout_to_json (Workload.table workload)
               resp.Partitioner.Response.partitioning );
           ("cost", Json.Float resp.Partitioner.Response.cost);
           ( "run_status",
             Json.String (status_string resp.Partitioner.Response.status) );
           ( "algorithm",
             Json.String resp.Partitioner.Response.provenance.algorithm );
           ( "cost_calls",
             Json.Int resp.Partitioner.Response.stats.Partitioner.cost_calls );
         ]
        @ race_fields)

let with_named_session t session f =
  match Sessions.view t.sessions session f with
  | Error msg -> Protocol.error_reply msg
  | Ok reply -> reply

let dispatch t req =
  match (req : Protocol.request) with
  | Ping ->
      Protocol.ok_reply [ ("protocol", Json.Int Protocol.protocol_version) ]
  | Stats -> stats_reply t
  | Partition { workload; algorithm; buffer_mb; budget } ->
      partition_reply ~workload ~algorithm ~buffer_mb ~budget
  | Open spec -> (
      match Sessions.open_session t.sessions spec with
      | Error msg -> Protocol.error_reply msg
      | Ok { Sessions.created; restored; generation } ->
          Protocol.ok_reply
            [
              ("created", Json.Bool created);
              ("restored", Json.Bool restored);
              ("generation", Json.Int generation);
            ])
  | Ingest { session; attributes; weight; name; seq; budget } -> (
      match
        Sessions.ingest t.sessions session ?seq
          ?deadline_ms:budget.Protocol.deadline_ms
          ?budget_steps:budget.Protocol.budget_steps ~attributes ~weight ?name
          ()
      with
      | Error msg -> Protocol.error_reply msg
      | Ok { Sessions.ingested; generation; duplicate } ->
          Protocol.ok_reply
            [
              ("ingested", Json.Int ingested);
              ("generation", Json.Int generation);
              ("duplicate", Json.Bool duplicate);
            ])
  | Layout { session } ->
      with_named_session t session (fun svc ->
          Protocol.ok_reply
            [
              ("generation", Json.Int (Vp_online.Service.generation svc));
              ("ingested", Json.Int (Vp_online.Service.ingested svc));
              ( "layout",
                Protocol.layout_to_json
                  (Vp_online.Service.table svc)
                  (Vp_online.Service.layout svc) );
            ])
  | History { session } ->
      with_named_session t session (fun svc ->
          Protocol.ok_reply
            [
              ("generation", Json.Int (Vp_online.Service.generation svc));
              ("history", Json.String (Vp_online.Service.history svc));
            ])
  | Close { session } -> (
      match Sessions.close t.sessions session with
      | Error msg -> Protocol.error_reply msg
      | Ok history -> Protocol.ok_reply [ ("history", Json.String history) ])
  | Detach { session } -> (
      match Sessions.detach t.sessions session with
      | Error msg -> Protocol.error_reply msg
      | Ok () -> Protocol.ok_reply [ ("detached", Json.Bool true) ])
  | Adopt { session } -> (
      match Sessions.adopt t.sessions session with
      | Error msg -> Protocol.error_reply msg
      | Ok fresh -> Protocol.ok_reply [ ("adopted", Json.Bool fresh) ])
  | Session_list ->
      Protocol.ok_reply
        [
          ( "sessions",
            Json.List
              (List.map (fun n -> Json.String n) (Sessions.names t.sessions))
          );
        ]
  | Sleep { ms } ->
      Unix.sleepf (float_of_int ms /. 1000.0);
      Protocol.ok_reply [ ("slept_ms", Json.Int ms) ]
  | Shutdown ->
      stop t;
      Protocol.ok_reply [ ("stopping", Json.Bool true) ]

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
