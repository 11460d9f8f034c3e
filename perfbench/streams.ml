(* Inputs of the two server workloads, generated from the seed: a pool of
   drifting query streams for online sessions and a pool of small tables
   for one-shot [partition] requests, encoded as wire frames. *)

open Vp_core
module Json = Vp_observe.Json
module Protocol = Vp_server.Protocol

let pool = 8

let stream_queries = 96

(* Every 8th ingest of a [serve] session is followed by a [layout] read. *)
let read_every = 8

let partition_steps = 2_000

type t = { streams : Workload.t array; tables : Workload.t array }

let make ~seed =
  {
    streams =
      Array.init pool (fun i ->
          Vp_benchmarks.Synthetic.drift_workload
            ~seed:(Common.seed64 seed (100 + i))
            ~attributes:12 ~clusters:3 ~queries:stream_queries ~scatter:0.1
            ~drift_at:0.5 ());
    tables =
      Array.init pool (fun i ->
          Vp_benchmarks.Synthetic.workload
            ~seed:(Common.seed64 seed (200 + i))
            ~attributes:12 ~clusters:3 ~queries:24 ~scatter:0.1 ());
  }

(* Query [k] (0-based) of stream [i]; a long-lived session cycles its
   stream. *)
let query t i k =
  let qs = Workload.queries t.streams.(i) in
  qs.(k mod Array.length qs)

let table t i = Workload.table t.streams.(i)

let enc = Json.to_string

type op = Partition | Open | Ingest | Read | Close

let op_name = function
  | Partition -> "partition"
  | Open -> "open"
  | Ingest -> "ingest"
  | Read -> "read"
  | Close -> "close"

let partition_frame t i =
  enc
    (Protocol.partition_request ~algorithm:"HillClimb"
       ~budget_steps:partition_steps t.tables.(i))

let open_frame t i ~session = enc (Protocol.open_request ~session (table t i))

(* [seq] is the 1-based stream position. *)
let ingest_frame t i ~session ~seq =
  enc (Protocol.ingest_request ~seq ~session (table t i) (query t i (seq - 1)))

let layout_frame ~session = enc (Protocol.layout_request ~session)

let history_frame ~session = enc (Protocol.history_request ~session)

let close_frame ~session = enc (Protocol.close_request ~session)

(* One [serve] session: partition, open, the stream with a layout read
   after every 8th ingest, close. *)
let serve_session t i ~session =
  [ (Partition, partition_frame t i); (Open, open_frame t i ~session) ]
  @ List.concat
      (List.init stream_queries (fun k ->
           let seq = k + 1 in
           (Ingest, ingest_frame t i ~session ~seq)
           ::
           (if seq mod read_every = 0 then [ (Read, layout_frame ~session) ]
            else [])))
  @ [ (Close, close_frame ~session) ]

(* The first [n] queries of stream [i], cycled, as one workload. *)
let prefix t i n =
  Workload.make (table t i) (List.init n (fun k -> query t i k))

let member_int name reply =
  match Json.of_string reply with
  | Ok doc -> Protocol.int_field name doc
  | Error _ -> None

let member_string name reply =
  match Json.of_string reply with
  | Ok doc -> Protocol.string_field name doc
  | Error _ -> None

(* Partition replies print the cost with the wire's float format, so the
   expectation is compared after the same printing. *)
let same_cost reply expected =
  match Json.of_string reply with
  | Ok doc -> (
      match Json.member "cost" doc with
      | Some (Json.Float f) -> enc (Json.Float f) = enc (Json.Float expected)
      | _ -> false)
  | Error _ -> false
