(* The daemon's handling of one frame, rebuilt from the public calls it
   makes: [Json.of_string] with the wire bounds, [Protocol.request_of_json],
   the [Sessions] registry or the partitioner, and [Json.to_string]. The
   traced run times each of these layers here, in-process, and checks that
   every reply is byte-equal to the one the real daemon sent; the output
   checks use it to price [partition] requests. *)

open Vp_core
module Json = Vp_observe.Json
module Protocol = Vp_server.Protocol
module Sessions = Vp_server.Sessions
module Service = Vp_online.Service
module Response = Partitioner.Response

let status_string = function
  | Partitioner.Complete -> "complete"
  | Partitioner.Timed_out _ -> "timed_out"

let resolve_algorithm disk name =
  match String.lowercase_ascii name with
  | "bruteforce" ->
      Some
        (Vp_algorithms.Brute_force.make
           ~lower_bound:(Vp_cost.Bounds.io_brute_force disk)
           ())
  | "ilp" -> Some (Vp_algorithms.Ilp.with_bound disk)
  | _ -> Vp_algorithms.Registry.find_opt name

let partition ?(sp = Common.no_span) ~workload ~algorithm ~buffer_mb ~budget ()
    =
  let disk =
    Vp_cost.Disk.with_buffer_size Vp_cost.Disk.default
      (Vp_cost.Disk.mb buffer_mb)
  in
  match resolve_algorithm disk algorithm with
  | None -> Error ("unknown algorithm " ^ algorithm)
  | Some algo ->
      let cost = Vp_cost.Io_model.oracle disk workload in
      let delta = Vp_cost.Io_model.Incremental.factory disk workload in
      let request =
        Partitioner.Request.make
          ?budget:(Protocol.budget_of_spec budget)
          ~label:"server" ~delta ~cost workload
      in
      Ok
        (sp.span ("partitioner." ^ algo.Partitioner.name) (fun () ->
             Partitioner.exec algo request))

let partition_reply ~sp ~workload ~algorithm ~buffer_mb ~budget =
  match partition ~sp ~workload ~algorithm ~buffer_mb ~budget () with
  | Error msg -> Protocol.error_reply msg
  | Ok r ->
      Protocol.ok_reply
        [
          ( "layout",
            Protocol.layout_to_json (Workload.table workload)
              r.Response.partitioning );
          ("cost", Json.Float r.Response.cost);
          ("run_status", Json.String (status_string r.Response.status));
          ("algorithm", Json.String r.Response.provenance.algorithm);
          ("cost_calls", Json.Int r.Response.stats.Partitioner.cost_calls);
        ]

let reply_of f = function
  | Ok v -> Protocol.ok_reply (f v)
  | Error msg -> Protocol.error_reply msg

let view ~sp sessions session fields =
  match
    sp.Common.span "sessions.view" (fun () ->
        Sessions.view sessions session fields)
  with
  | Ok fields -> Protocol.ok_reply fields
  | Error msg -> Protocol.error_reply msg

let dispatch ~sp sessions (req : Protocol.request) =
  match req with
  | Partition { workload; algorithm; buffer_mb; budget } ->
      partition_reply ~sp ~workload ~algorithm ~buffer_mb ~budget
  | Open spec ->
      reply_of
        (fun { Sessions.created; restored; generation } ->
          [
            ("created", Json.Bool created);
            ("restored", Json.Bool restored);
            ("generation", Json.Int generation);
          ])
        (sp.span "sessions.open" (fun () ->
             Sessions.open_session sessions spec))
  | Ingest { session; attributes; weight; name; seq; budget } ->
      reply_of
        (fun { Sessions.ingested; generation; duplicate } ->
          [
            ("ingested", Json.Int ingested);
            ("generation", Json.Int generation);
            ("duplicate", Json.Bool duplicate);
          ])
        (sp.span "sessions.ingest" (fun () ->
             Sessions.ingest sessions session ?seq
               ?deadline_ms:budget.Protocol.deadline_ms
               ?budget_steps:budget.Protocol.budget_steps ~attributes ~weight
               ?name ()))
  | Layout { session } ->
      view ~sp sessions session (fun svc ->
          [
            ("generation", Json.Int (Service.generation svc));
            ("ingested", Json.Int (Service.ingested svc));
            ( "layout",
              Protocol.layout_to_json (Service.table svc)
                (Service.layout svc) );
          ])
  | History { session } ->
      view ~sp sessions session (fun svc ->
          [
            ("generation", Json.Int (Service.generation svc));
            ("history", Json.String (Service.history svc));
          ])
  | Close { session } ->
      reply_of
        (fun history -> [ ("history", Json.String history) ])
        (sp.span "sessions.close" (fun () -> Sessions.close sessions session))
  | _ -> Protocol.error_reply "op not used by the benchmark"

(* One frame in, one reply line out, each layer under its own span. *)
let handle ?(sp = Common.no_span) sessions frame =
  let reply =
    match
      sp.span "json.decode" (fun () ->
          Json.of_string ~max_depth:Protocol.max_depth
            ~max_size:Protocol.max_frame_bytes frame)
    with
    | Error msg -> Protocol.error_reply ("malformed frame: " ^ msg)
    | Ok doc -> (
        match
          sp.span "protocol.request_of_json" (fun () ->
              Protocol.request_of_json doc)
        with
        | Error msg -> Protocol.error_reply msg
        | Ok req -> sp.span "dispatch" (fun () -> dispatch ~sp sessions req))
  in
  sp.span "json.encode" (fun () -> Json.to_string reply)

(* The session config the daemon builds from an [open] frame that sets
   nothing but the session and table: the CLI's defaults. *)
let default_session_config () =
  Service.default_config ~jobs:1
    ~disk:
      (Vp_cost.Disk.with_buffer_size Vp_cost.Disk.default
         (Vp_cost.Disk.mb 8.0))
    ~panel:[ Vp_algorithms.Registry.find "HillClimb" ]
    ()

let expected_history w =
  let config = default_session_config () in
  (Vp_online.Replay.run ~config w).Vp_online.Replay.history

(* The cost the daemon must answer for a [partition] frame. *)
let expected_partition_cost frame =
  match Result.bind (Json.of_string frame) Protocol.request_of_json with
  | Ok (Partition { workload; algorithm; buffer_mb; budget }) -> (
      match partition ~workload ~algorithm ~buffer_mb ~budget () with
      | Ok r -> r.Response.cost
      | Error msg -> failwith msg)
  | _ -> failwith "not a partition frame"
