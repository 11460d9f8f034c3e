open Vp_core
module Json = Vp_observe.Json
module C = Json.Codec

(* v4: [partition] accepts ["algorithm":"portfolio"] (the racing
   meta-partitioner) — the reply then also carries the winning entrant's
   name in [winner] and a per-entrant [entrants] audit array (name,
   short, cost, run_status, cost_calls, winner flag). Additive; v3
   clients keep working and non-portfolio replies are unchanged.
   v3: adds the shard-management ops the cluster router drives during
   session handoff — [detach] (spill a session to disk and forget it,
   leaving its files), [adopt] (register a session from its on-disk
   meta) and [sessions] (list registered names). All additive; v2
   clients keep working.
   v2: [ingest] accepts an idempotent [seq], [open] replies carry
   [restored], and the daemon may answer [duplicate] on a replayed
   ingest. *)
let protocol_version = 4

let default_port = 7171

let max_frame_bytes = 1 lsl 20

let max_reply_bytes = 1 lsl 24

let reply_too_long =
  Printf.sprintf "reply exceeds the %d-byte limit" max_reply_bytes

let max_depth = 64

type budget_spec = { deadline_ms : int option; budget_steps : int option }

let budget_of_spec spec =
  match (spec.deadline_ms, spec.budget_steps) with
  | None, None -> None
  | deadline_ms, max_steps ->
      let deadline_seconds =
        Option.map (fun ms -> float_of_int ms /. 1000.0) deadline_ms
      in
      Some (Vp_robust.Budget.create ?deadline_seconds ?max_steps ())

type open_spec = {
  session : string;
  table : Table.t;
  panel : string list;
  drift_ratio : float;
  min_window : int;
  epoch : int;
  memory : int;
  horizon : float;
  budget_steps : int option;
  buffer_mb : float;
}

type partition = {
  workload : Workload.t;
  algorithm : string;
  buffer_mb : float;
  budget : budget_spec;
}

type ingest = {
  session : string;
  attributes : string list;
  weight : float;
  name : string option;
  seq : int option;
      (* Idempotent request id: the 1-based stream position this query
         should land at. A retry of an already-applied seq is
         acknowledged without re-ingesting. *)
  budget : budget_spec;
}

type request =
  | Ping
  | Stats
  | Partition of partition
  | Open of open_spec
  | Ingest of ingest
  | Layout of { session : string }
  | History of { session : string }
  | Close of { session : string }
  | Detach of { session : string }
  | Adopt of { session : string }
  | Session_list
  | Sleep of { ms : int }
  | Shutdown

let op_name = function
  | Ping -> "ping"
  | Stats -> "stats"
  | Partition _ -> "partition"
  | Open _ -> "open"
  | Ingest _ -> "ingest"
  | Layout _ -> "layout"
  | History _ -> "history"
  | Close _ -> "close"
  | Detach _ -> "detach"
  | Adopt _ -> "adopt"
  | Session_list -> "sessions"
  | Sleep _ -> "sleep"
  | Shutdown -> "shutdown"

let string_field name doc =
  match Json.member name doc with Some (Json.String s) -> Some s | _ -> None

let int_field name doc =
  match Json.member name doc with Some (Json.Int i) -> Some i | _ -> None

(* --- descriptions: one per frame and file shape --- *)

let budget =
  C.(
    obj (fun deadline_ms budget_steps -> { deadline_ms; budget_steps })
    |> opt "deadline_ms" (int_in ~min:1 ()) (fun (b : budget_spec) -> b.deadline_ms)
    |> opt "budget_steps" (int_in ~min:0 ()) (fun (b : budget_spec) -> b.budget_steps))

type wire_query = { attributes : string list; weight : float; name : string option }

let wire_query =
  C.(
    seal
      (obj (fun name attributes weight -> { attributes; weight; name })
      |> opt "name" string (fun q -> q.name)
      |> field "attributes" (list string) (fun q -> q.attributes)
      |> dft "weight" number 1.0 (fun q -> q.weight)))

let query_of_wire table i q =
  let name = match q.name with Some n -> n | None -> Printf.sprintf "Q%d" (i + 1) in
  let references =
    try Table.attr_set_of_names table q.attributes
    with Not_found ->
      C.fail "query %S references an attribute the table does not have" name
  in
  try Query.make ~weight:q.weight ~name ~references ()
  with Invalid_argument msg -> C.fail "invalid query %S: %s" name msg

(* The frames: one description each, shared by the builder and
   [request_of_json]. *)

let partition_frame =
  C.(
    seal
      (obj (fun algorithm buffer_mb table queries budget ->
           let queries = List.mapi (query_of_wire table) queries in
           if queries = [] then fail "a partition request needs at least one query";
           let workload =
             try Workload.make table queries
             with Invalid_argument msg -> fail "invalid workload: %s" msg
           in
           { workload; algorithm; buffer_mb; budget })
      |> const "op" (Json.String "partition")
      |> dft "algorithm" string "HillClimb" (fun p -> p.algorithm)
      |> dft "buffer_mb" number 8.0 (fun p -> p.buffer_mb)
      |> field "table" Table.codec (fun p -> Workload.table p.workload)
      |> field "queries" (list wire_query) (fun p ->
             let table = Workload.table p.workload in
             Array.to_list (Workload.queries p.workload)
             |> List.map (fun q ->
                    let attributes = Table.names_of_attr_set table (Query.references q) in
                    { attributes; weight = Query.weight q; name = Some (Query.name q) }))
      |> inline budget (fun (p : partition) -> p.budget)))

let ingest_frame =
  C.(
    seal
      (obj (fun session (q : wire_query) seq budget ->
           { session; attributes = q.attributes; weight = q.weight; name = q.name; seq; budget })
      |> const "op" (Json.String "ingest")
      |> field "session" string (fun (i : ingest) -> i.session)
      |> field "query" wire_query (fun (i : ingest) ->
             { attributes = i.attributes; weight = i.weight; name = i.name })
      |> opt "seq" (int_in ~min:1 ()) (fun i -> i.seq)
      |> inline budget (fun i -> i.budget)))

(* [open] as sent: a tuning field the client leaves out stays out of the
   frame, and decodes to [Vp_online.Service.default_config]'s value. *)
type open_frame = {
  o_session : string;
  o_table : Table.t;
  o_panel : string list option;
  o_drift_ratio : float option;
  o_min_window : int option;
  o_epoch : int option;
  o_memory : int option;
  o_horizon : float option;
  o_budget_steps : int option;
  o_buffer_mb : float option;
}

let open_frame =
  C.(
    seal
      (obj (fun o_session o_table o_panel o_drift_ratio o_min_window o_epoch
                o_memory o_horizon o_budget_steps o_buffer_mb ->
           { o_session; o_table; o_panel; o_drift_ratio; o_min_window;
             o_epoch; o_memory; o_horizon; o_budget_steps; o_buffer_mb })
      |> const "op" (Json.String "open")
      |> field "session" string (fun o -> o.o_session)
      |> field "table" Table.codec (fun o -> o.o_table)
      |> opt "panel" (list string) (fun o -> o.o_panel)
      |> opt "drift_ratio" number (fun o -> o.o_drift_ratio)
      |> opt "min_window" int (fun o -> o.o_min_window)
      |> opt "epoch" int (fun o -> o.o_epoch)
      |> opt "memory" int (fun o -> o.o_memory)
      |> opt "horizon" number (fun o -> o.o_horizon)
      |> opt "budget_steps" (int_in ~min:0 ()) (fun o -> o.o_budget_steps)
      |> opt "buffer_mb" number (fun o -> o.o_buffer_mb)))

let open_spec_of_frame o =
  let ( |? ) v default = Option.value v ~default in
  {
    session = o.o_session;
    table = o.o_table;
    panel = o.o_panel |? [ "HillClimb" ];
    drift_ratio = o.o_drift_ratio |? 2.0;
    min_window = o.o_min_window |? 8;
    epoch = o.o_epoch |? 64;
    memory = o.o_memory |? 32;
    horizon = o.o_horizon |? 1.0;
    budget_steps = o.o_budget_steps;
    buffer_mb = o.o_buffer_mb |? 8.0;
  }

(* The session meta file: every float as its IEEE-754 bits, so crash
   recovery rebuilds the exact config the original [open] parsed. *)
let meta =
  C.(
    seal
      (obj (fun session table panel drift_ratio min_window epoch memory horizon
                buffer_mb budget_steps ->
           { session; table; panel; drift_ratio; min_window; epoch; memory;
             horizon; budget_steps; buffer_mb })
      |> field "session" string (fun (s : open_spec) -> s.session)
      |> field "table" Table.codec (fun s -> s.table)
      |> field "panel" (list string) (fun s -> s.panel)
      |> field "drift_ratio_bits" float_bits (fun s -> s.drift_ratio)
      |> field "min_window" int (fun s -> s.min_window)
      |> field "epoch" int (fun s -> s.epoch)
      |> field "memory" int (fun s -> s.memory)
      |> field "horizon_bits" float_bits (fun s -> s.horizon)
      |> field "buffer_mb_bits" float_bits (fun (s : open_spec) -> s.buffer_mb)
      |> opt "budget_steps" int (fun s -> s.budget_steps)))

let op_frame op member c =
  C.(seal (obj Fun.id |> const "op" (Json.String op) |> field member c Fun.id))

let layout_frame = op_frame "layout" "session" C.string

let history_frame = op_frame "history" "session" C.string

let close_frame = op_frame "close" "session" C.string

let detach_frame = op_frame "detach" "session" C.string

let adopt_frame = op_frame "adopt" "session" C.string

let sleep_frame = op_frame "sleep" "ms" (C.int_in ~min:0 ~max:60_000 ())

let member name = C.(seal (obj Fun.id |> field name string Fun.id))

let session_of = member "session"

let shard_of = member "shard"

(* --- decoding --- *)

let frame_op = function
  | Json.Obj _ as doc -> (
      match Json.member "op" doc with
      | Some (Json.String op) -> Ok op
      | _ -> Error "missing or non-string field \"op\"")
  | _ -> Error "request frame must be a JSON object"

let request_of_json doc =
  match frame_op doc with
  | Error msg -> Error msg
  | Ok op -> (
      try
        Ok
          (match op with
          | "ping" -> Ping
          | "stats" -> Stats
          | "partition" -> Partition (C.decode partition_frame doc)
          | "open" -> Open (open_spec_of_frame (C.decode open_frame doc))
          | "ingest" -> Ingest (C.decode ingest_frame doc)
          | "layout" -> Layout { session = C.decode layout_frame doc }
          | "history" -> History { session = C.decode history_frame doc }
          | "close" -> Close { session = C.decode close_frame doc }
          | "detach" -> Detach { session = C.decode detach_frame doc }
          | "adopt" -> Adopt { session = C.decode adopt_frame doc }
          | "sessions" -> Session_list
          | "sleep" -> Sleep { ms = C.decode sleep_frame doc }
          | "shutdown" -> Shutdown
          | other -> C.fail "unknown op %S" other)
      with C.Error e -> Error (C.error_message e))

(* --- request builders --- *)

let ping = Json.Obj [ ("op", Json.String "ping") ]

let stats = Json.Obj [ ("op", Json.String "stats") ]

let shutdown = Json.Obj [ ("op", Json.String "shutdown") ]

let sessions_request = Json.Obj [ ("op", Json.String "sessions") ]

let sleep ~ms = C.encode sleep_frame ms

let partition_request ?(algorithm = "HillClimb") ?(buffer_mb = 8.0)
    ?deadline_ms ?budget_steps workload =
  let budget = { deadline_ms; budget_steps } in
  C.encode partition_frame { workload; algorithm; buffer_mb; budget }

let open_request ?panel ?drift_ratio ?min_window ?epoch ?memory ?horizon
    ?budget_steps ?buffer_mb ~session table =
  C.encode open_frame
    { o_session = session; o_table = table; o_panel = panel;
      o_drift_ratio = drift_ratio; o_min_window = min_window; o_epoch = epoch;
      o_memory = memory; o_horizon = horizon; o_budget_steps = budget_steps;
      o_buffer_mb = buffer_mb }

let ingest_request ?deadline_ms ?budget_steps ?seq ~session table q =
  let attributes = Table.names_of_attr_set table (Query.references q) in
  let budget = { deadline_ms; budget_steps } in
  C.encode ingest_frame
    { session; attributes; weight = Query.weight q; name = Some (Query.name q); seq; budget }

let layout_request ~session = C.encode layout_frame session

let history_request ~session = C.encode history_frame session

let close_request ~session = C.encode close_frame session

let detach_request ~session = C.encode detach_frame session

let adopt_request ~session = C.encode adopt_frame session

(* --- replies: one description per shape --- *)

type status = Ok_reply | Error_reply of string | Overloaded of int

let status =
  C.(seal (obj (fun status error retry_after_ms ->
               match (status, error) with
               | "ok", _ -> Ok_reply
               | "error", Some msg -> Error_reply msg
               | "error", None -> fail "server answered an error without a message"
               | "overloaded", _ -> Overloaded (Option.value retry_after_ms ~default:50)
               | other, _ -> fail "unexpected reply status %S" other)
           |> field "status" string (function
                | Ok_reply -> "ok" | Error_reply _ -> "error" | Overloaded _ -> "overloaded")
           |> opt "error" string (function Error_reply msg -> Some msg | _ -> None)
           |> opt "retry_after_ms" int (function Overloaded ms -> Some ms | _ -> None)))

let ok_reply fields = Json.Obj (("status", Json.String "ok") :: fields)

let error_reply msg = C.encode status (Error_reply msg)

let overloaded_reply ~retry_after_ms = C.encode status (Overloaded retry_after_ms)

(* An ok reply's members: ["status":"ok"] first, then [build]'s. *)
let ok build = C.(obj build |> const "status" (Json.String "ok"))

let ok_member name c = C.(seal (ok Fun.id |> field name c Fun.id))

let ok_flag name = C.(seal (ok () |> const name (Json.Bool true)))

let pong = ok_member "protocol" C.int

let router_pong =
  C.(seal (ok Fun.id |> const "protocol" (Json.Int protocol_version)
           |> const "router" (Json.Bool true) |> field "shards" int Fun.id))

type stats = {
  sessions : int;
  counters : (string * int) list;
  gauges : (string * int) list;
  shards : (string * int) list option;
  shards_unreachable : int option;
}

let stats_reply =
  C.(seal (ok (fun sessions counters gauges shards shards_unreachable ->
               { sessions; counters; gauges; shards; shards_unreachable })
           |> field "sessions" int (fun s -> s.sessions)
           |> field "counters" (assoc int) (fun s -> s.counters)
           |> field "gauges" (assoc int) (fun s -> s.gauges)
           |> opt "shards" (assoc int) (fun s -> s.shards)
           |> opt "shards_unreachable" int (fun s -> s.shards_unreachable)))

let layout = C.(list (list string))

let layout_names table p = List.map (Table.names_of_attr_set table) (Partitioning.groups p)

let layout_to_json table p = C.encode layout (layout_names table p)

type entrant_summary = {
  entrant : string;
  entrant_short : string;
  entrant_cost : float;
  entrant_status : string;
  entrant_cost_calls : int;
  entrant_winner : bool;
}

let entrant =
  C.(
    seal
      (obj (fun entrant entrant_short cost entrant_status entrant_cost_calls
                entrant_winner ->
           let entrant_cost = Option.value cost ~default:Float.nan in
           { entrant; entrant_short; entrant_cost; entrant_status;
             entrant_cost_calls; entrant_winner })
      |> field "name" string (fun e -> e.entrant)
      |> field "short" string (fun e -> e.entrant_short)
      |> field "cost" (nullable number) (fun e -> Some e.entrant_cost)
      |> field "run_status" string (fun e -> e.entrant_status)
      |> field "cost_calls" int (fun e -> e.entrant_cost_calls)
      |> field "winner" bool (fun e -> e.entrant_winner)))

type partitioned = {
  layout : string list list;
  cost : float;
  run_status : string;
  algorithm : string;
  cost_calls : int;
  winner : string option;
  entrants : entrant_summary list option;
}

let partitioned =
  C.(seal (ok (fun layout cost run_status algorithm cost_calls winner entrants ->
               { layout; cost; run_status; algorithm; cost_calls; winner; entrants })
           |> field "layout" layout (fun (p : partitioned) -> p.layout)
           |> field "cost" number (fun p -> p.cost)
           |> field "run_status" string (fun p -> p.run_status)
           |> field "algorithm" string (fun (p : partitioned) -> p.algorithm)
           |> field "cost_calls" int (fun p -> p.cost_calls)
           |> opt "winner" string (fun p -> p.winner)
           |> opt "entrants" (list entrant) (fun p -> p.entrants)))

type opened = { created : bool; restored : bool; generation : int }

(* [restored] and [duplicate] are absent before v2. *)
let opened =
  C.(seal (ok (fun created restored generation -> { created; restored; generation })
           |> field "created" bool (fun o -> o.created)
           |> dft "restored" bool false (fun o -> o.restored)
           |> field "generation" int (fun (o : opened) -> o.generation)))

type ingested = { ingested : int; generation : int; duplicate : bool }

let ingested =
  C.(seal (ok (fun ingested generation duplicate -> { ingested; generation; duplicate })
           |> field "ingested" int (fun (i : ingested) -> i.ingested)
           |> field "generation" int (fun (i : ingested) -> i.generation)
           |> dft "duplicate" bool false (fun i -> i.duplicate)))

type layout_view = { generation : int; ingested : int; layout : string list list }

let layout_view =
  C.(seal (ok (fun generation ingested layout -> { generation; ingested; layout })
           |> field "generation" int (fun (v : layout_view) -> v.generation)
           |> field "ingested" int (fun (v : layout_view) -> v.ingested)
           |> field "layout" layout (fun (v : layout_view) -> v.layout)))

type history_view = { generation : int; history : string }

let history_view =
  C.(seal (ok (fun generation history -> { generation; history })
           |> field "generation" int (fun (h : history_view) -> h.generation)
           |> field "history" string (fun h -> h.history)))

let closed = ok_member "history" C.string

let detached = ok_flag "detached"

let adopted = ok_member "adopted" C.bool

let session_list = ok_member "sessions" C.(list string)

let slept = ok_member "slept_ms" C.int

let stopping = ok_flag "stopping"

let located = ok_member "shard" C.string

type shard_info = { id : string; port : int; pid : int; healthy : bool; restarts : int }

type cluster_info = { fleet : shard_info list; replicas : int; reconfiguring : bool }

let cluster_info =
  let shard =
    C.(seal (obj (fun id port pid healthy restarts -> { id; port; pid; healthy; restarts })
             |> field "id" string (fun s -> s.id)
             |> field "port" int (fun s -> s.port)
             |> field "pid" int (fun s -> s.pid)
             |> field "healthy" bool (fun s -> s.healthy)
             |> field "restarts" int (fun s -> s.restarts)))
  in
  C.(seal (ok (fun fleet replicas reconfiguring -> { fleet; replicas; reconfiguring })
           |> field "shards" (list shard) (fun c -> c.fleet)
           |> field "replicas" int (fun c -> c.replicas)
           |> field "reconfiguring" bool (fun c -> c.reconfiguring)))

type handoff = { shard : string; moved : int; handoff_errors : int }

let handoff =
  C.(seal (ok (fun shard moved handoff_errors -> { shard; moved; handoff_errors })
           |> field "shard" string (fun h -> h.shard)
           |> field "moved" int (fun h -> h.moved)
           |> field "handoff_errors" int (fun h -> h.handoff_errors)))
