open Vp_core
module Json = Vp_observe.Json

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

let no_budget = { deadline_ms = None; budget_steps = None }

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

type request =
  | Ping
  | Stats
  | Partition of {
      workload : Workload.t;
      algorithm : string;
      buffer_mb : float;
      budget : budget_spec;
    }
  | Open of open_spec
  | Ingest of {
      session : string;
      attributes : string list;
      weight : float;
      name : string option;
      seq : int option;
          (** Idempotent request id: the 1-based stream position this
              query should land at. A retry of an already-applied seq is
              acknowledged without re-ingesting. *)
      budget : budget_spec;
    }
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

(* --- field accessors shared by decoding and the client-side readers --- *)

let string_field name doc =
  match Json.member name doc with Some (Json.String s) -> Some s | _ -> None

let int_field name doc =
  match Json.member name doc with Some (Json.Int i) -> Some i | _ -> None

let float_field name doc =
  match Json.member name doc with
  | Some (Json.Float f) -> Some f
  | Some (Json.Int i) -> Some (float_of_int i)
  | _ -> None

let list_field name doc =
  match Json.member name doc with Some (Json.List l) -> Some l | _ -> None

(* --- decoding --- *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun msg -> raise (Bad msg)) fmt

let req_string name doc =
  match string_field name doc with
  | Some s -> s
  | None -> bad "missing or non-string field %S" name

let req_int name doc =
  match int_field name doc with
  | Some i -> i
  | None -> bad "missing or non-integer field %S" name

let opt_float ~default name doc =
  match Json.member name doc with
  | None -> default
  | Some _ -> (
      match float_field name doc with
      | Some f -> f
      | None -> bad "field %S must be a number" name)

let opt_int ~default name doc =
  match Json.member name doc with
  | None -> default
  | Some (Json.Int i) -> i
  | Some _ -> bad "field %S must be an integer" name

let opt_int_option name doc =
  match Json.member name doc with
  | None -> None
  | Some (Json.Int i) -> Some i
  | Some _ -> bad "field %S must be an integer" name

let budget_spec_of doc =
  {
    deadline_ms = opt_int_option "deadline_ms" doc;
    budget_steps = opt_int_option "budget_steps" doc;
  }

let datatype_of_json doc =
  let width () = req_int "width" doc in
  match req_string "type" doc with
  | "int32" -> Attribute.Int32
  | "decimal" -> Attribute.Decimal
  | "date" -> Attribute.Date
  | "char" -> Attribute.Char (width ())
  | "varchar" -> Attribute.Varchar (width ())
  | other -> bad "unknown attribute type %S" other

let table_of_json doc =
  match doc with
  | Json.Obj _ ->
      let name = req_string "name" doc in
      let rows = req_int "rows" doc in
      let attributes =
        match list_field "attributes" doc with
        | None -> bad "table is missing its \"attributes\" array"
        | Some attrs ->
            List.map
              (fun a ->
                match a with
                | Json.Obj _ ->
                    Attribute.make (req_string "name" a) (datatype_of_json a)
                | _ -> bad "each table attribute must be an object")
              attrs
      in
      (try Table.make ~name ~attributes ~row_count:rows
       with Invalid_argument msg -> bad "invalid table: %s" msg)
  | _ -> bad "field \"table\" must be an object"

let attr_names_of_json doc =
  match list_field "attributes" doc with
  | None -> bad "query is missing its \"attributes\" array"
  | Some names ->
      List.map
        (function
          | Json.String s -> s
          | _ -> bad "query attributes must be strings")
        names

let query_of_json table index doc =
  match doc with
  | Json.Obj _ ->
      let names = attr_names_of_json doc in
      let weight = opt_float ~default:1.0 "weight" doc in
      let name =
        match string_field "name" doc with
        | Some n -> n
        | None -> Printf.sprintf "Q%d" (index + 1)
      in
      let references =
        try Table.attr_set_of_names table names
        with Not_found ->
          bad "query %S references an attribute the table does not have" name
      in
      (try Query.make ~weight ~name ~references ()
       with Invalid_argument msg -> bad "invalid query %S: %s" name msg)
  | _ -> bad "each query must be an object"

let workload_of_json doc =
  let table =
    match Json.member "table" doc with
    | Some t -> table_of_json t
    | None -> bad "missing field \"table\""
  in
  let queries =
    match list_field "queries" doc with
    | None -> bad "missing field \"queries\""
    | Some qs -> List.mapi (query_of_json table) qs
  in
  if queries = [] then bad "a partition request needs at least one query";
  try Workload.make table queries
  with Invalid_argument msg -> bad "invalid workload: %s" msg

(* Defaults mirror [Vp_online.Service.default_config]. *)
let open_spec_of doc =
  {
    session = req_string "session" doc;
    table =
      (match Json.member "table" doc with
      | Some t -> table_of_json t
      | None -> bad "missing field \"table\"");
    panel =
      (match list_field "panel" doc with
      | None -> [ "HillClimb" ]
      | Some names ->
          List.map
            (function
              | Json.String s -> s
              | _ -> bad "panel members must be strings")
            names);
    drift_ratio = opt_float ~default:2.0 "drift_ratio" doc;
    min_window = opt_int ~default:8 "min_window" doc;
    epoch = opt_int ~default:64 "epoch" doc;
    memory = opt_int ~default:32 "memory" doc;
    horizon = opt_float ~default:1.0 "horizon" doc;
    budget_steps = opt_int_option "budget_steps" doc;
    buffer_mb = opt_float ~default:8.0 "buffer_mb" doc;
  }

let request_of_json doc =
  match doc with
  | Json.Obj _ -> (
      try
        match string_field "op" doc with
        | None -> Error "missing or non-string field \"op\""
        | Some op ->
            Ok
              (match op with
              | "ping" -> Ping
              | "stats" -> Stats
              | "partition" ->
                  Partition
                    {
                      workload = workload_of_json doc;
                      algorithm =
                        (match string_field "algorithm" doc with
                        | Some a -> a
                        | None -> "HillClimb");
                      buffer_mb = opt_float ~default:8.0 "buffer_mb" doc;
                      budget = budget_spec_of doc;
                    }
              | "open" -> Open (open_spec_of doc)
              | "ingest" ->
                  let query =
                    match Json.member "query" doc with
                    | Some (Json.Obj _ as q) -> q
                    | Some _ -> bad "field \"query\" must be an object"
                    | None -> bad "missing field \"query\""
                  in
                  Ingest
                    {
                      session = req_string "session" doc;
                      attributes = attr_names_of_json query;
                      weight = opt_float ~default:1.0 "weight" query;
                      name = string_field "name" query;
                      seq =
                        (match opt_int_option "seq" doc with
                        | Some s when s < 1 -> bad "\"seq\" must be >= 1"
                        | s -> s);
                      budget = budget_spec_of doc;
                    }
              | "layout" -> Layout { session = req_string "session" doc }
              | "history" -> History { session = req_string "session" doc }
              | "close" -> Close { session = req_string "session" doc }
              | "detach" -> Detach { session = req_string "session" doc }
              | "adopt" -> Adopt { session = req_string "session" doc }
              | "sessions" -> Session_list
              | "sleep" ->
                  let ms = req_int "ms" doc in
                  if ms < 0 || ms > 60_000 then
                    bad "\"ms\" must be in 0 .. 60000";
                  Sleep { ms }
              | "shutdown" -> Shutdown
              | other -> bad "unknown op %S" other)
      with Bad msg -> Error msg)
  | _ -> Error "request frame must be a JSON object"

(* --- request builders --- *)

let ping = Json.Obj [ ("op", Json.String "ping") ]

let stats = Json.Obj [ ("op", Json.String "stats") ]

let shutdown = Json.Obj [ ("op", Json.String "shutdown") ]

let sleep ~ms = Json.Obj [ ("op", Json.String "sleep"); ("ms", Json.Int ms) ]

let json_of_datatype = function
  | Attribute.Int32 -> [ ("type", Json.String "int32") ]
  | Attribute.Decimal -> [ ("type", Json.String "decimal") ]
  | Attribute.Date -> [ ("type", Json.String "date") ]
  | Attribute.Char w -> [ ("type", Json.String "char"); ("width", Json.Int w) ]
  | Attribute.Varchar w ->
      [ ("type", Json.String "varchar"); ("width", Json.Int w) ]

let table_to_json table =
  Json.Obj
    [
      ("name", Json.String (Table.name table));
      ("rows", Json.Int (Table.row_count table));
      ( "attributes",
        Json.List
          (Array.to_list
             (Array.map
                (fun a ->
                  Json.Obj
                    (("name", Json.String (Attribute.name a))
                    :: json_of_datatype (Attribute.datatype a)))
                (Table.attributes table))) );
    ]

let query_to_json table q =
  Json.Obj
    [
      ("name", Json.String (Query.name q));
      ( "attributes",
        Json.List
          (List.map
             (fun n -> Json.String n)
             (Table.names_of_attr_set table (Query.references q))) );
      ("weight", Json.Float (Query.weight q));
    ]

(* --- open-spec persistence (the session meta file) ---

   The durable registry stores each session's open spec so crash
   recovery can rebuild the service config without the client
   re-supplying it. Floats travel as IEEE-754 bit patterns: the restored
   config must drive the cost model with the {e exact} values the
   original open parsed off the wire, or post-recovery decisions drift
   from the uninterrupted run's. *)

let float_bits f = Json.String (Printf.sprintf "%Lx" (Int64.bits_of_float f))

let req_float_bits name doc =
  match Json.member name doc with
  | Some (Json.String s) -> (
      match Int64.of_string_opt ("0x" ^ s) with
      | Some b -> Int64.float_of_bits b
      | None -> bad "field %S is not a float bit pattern" name)
  | _ -> bad "missing or non-string field %S" name

let open_spec_to_json (s : open_spec) =
  Json.Obj
    ([
       ("session", Json.String s.session);
       ("table", table_to_json s.table);
       ("panel", Json.List (List.map (fun n -> Json.String n) s.panel));
       ("drift_ratio_bits", float_bits s.drift_ratio);
       ("min_window", Json.Int s.min_window);
       ("epoch", Json.Int s.epoch);
       ("memory", Json.Int s.memory);
       ("horizon_bits", float_bits s.horizon);
       ("buffer_mb_bits", float_bits s.buffer_mb);
     ]
    @
    match s.budget_steps with
    | Some n -> [ ("budget_steps", Json.Int n) ]
    | None -> [])

let open_spec_of_json doc =
  match doc with
  | Json.Obj _ -> (
      try
        Ok
          {
            session = req_string "session" doc;
            table =
              (match Json.member "table" doc with
              | Some t -> table_of_json t
              | None -> bad "missing field \"table\"");
            panel =
              (match list_field "panel" doc with
              | None -> bad "missing field \"panel\""
              | Some names ->
                  List.map
                    (function
                      | Json.String s -> s
                      | _ -> bad "panel members must be strings")
                    names);
            drift_ratio = req_float_bits "drift_ratio_bits" doc;
            min_window = req_int "min_window" doc;
            epoch = req_int "epoch" doc;
            memory = req_int "memory" doc;
            horizon = req_float_bits "horizon_bits" doc;
            budget_steps = opt_int_option "budget_steps" doc;
            buffer_mb = req_float_bits "buffer_mb_bits" doc;
          }
      with Bad msg -> Error msg)
  | _ -> Error "session meta must be a JSON object"

let budget_fields ?deadline_ms ?budget_steps () =
  (match deadline_ms with
  | Some ms -> [ ("deadline_ms", Json.Int ms) ]
  | None -> [])
  @
  match budget_steps with
  | Some n -> [ ("budget_steps", Json.Int n) ]
  | None -> []

let partition_request ?(algorithm = "HillClimb") ?(buffer_mb = 8.0)
    ?deadline_ms ?budget_steps w =
  let table = Workload.table w in
  Json.Obj
    ([
       ("op", Json.String "partition");
       ("algorithm", Json.String algorithm);
       ("buffer_mb", Json.Float buffer_mb);
       ("table", table_to_json table);
       ( "queries",
         Json.List
           (Array.to_list
              (Array.map (query_to_json table) (Workload.queries w))) );
     ]
    @ budget_fields ?deadline_ms ?budget_steps ())

let open_request ?panel ?drift_ratio ?min_window ?epoch ?memory ?horizon
    ?budget_steps ?buffer_mb ~session table =
  let opt name to_json v =
    match v with Some v -> [ (name, to_json v) ] | None -> []
  in
  Json.Obj
    ([
       ("op", Json.String "open");
       ("session", Json.String session);
       ("table", table_to_json table);
     ]
    @ opt "panel"
        (fun names -> Json.List (List.map (fun n -> Json.String n) names))
        panel
    @ opt "drift_ratio" (fun v -> Json.Float v) drift_ratio
    @ opt "min_window" (fun v -> Json.Int v) min_window
    @ opt "epoch" (fun v -> Json.Int v) epoch
    @ opt "memory" (fun v -> Json.Int v) memory
    @ opt "horizon" (fun v -> Json.Float v) horizon
    @ opt "budget_steps" (fun v -> Json.Int v) budget_steps
    @ opt "buffer_mb" (fun v -> Json.Float v) buffer_mb)

let ingest_request ?deadline_ms ?budget_steps ?seq ~session table q =
  Json.Obj
    ([
       ("op", Json.String "ingest");
       ("session", Json.String session);
       ("query", query_to_json table q);
     ]
    @ (match seq with Some s -> [ ("seq", Json.Int s) ] | None -> [])
    @ budget_fields ?deadline_ms ?budget_steps ())

let session_only op session =
  Json.Obj [ ("op", Json.String op); ("session", Json.String session) ]

let layout_request ~session = session_only "layout" session

let history_request ~session = session_only "history" session

let close_request ~session = session_only "close" session

let detach_request ~session = session_only "detach" session

let adopt_request ~session = session_only "adopt" session

let sessions_request = Json.Obj [ ("op", Json.String "sessions") ]

(* --- replies --- *)

let ok_reply fields = Json.Obj (("status", Json.String "ok") :: fields)

let error_reply msg =
  Json.Obj
    [ ("status", Json.String "error"); ("error", Json.String msg) ]

let overloaded_reply ~retry_after_ms =
  Json.Obj
    [
      ("status", Json.String "overloaded");
      ("retry_after_ms", Json.Int retry_after_ms);
    ]

let layout_to_json table p =
  Json.List
    (List.map
       (fun group ->
         Json.List
           (List.map
              (fun n -> Json.String n)
              (Table.names_of_attr_set table group)))
       (Partitioning.groups p))

let reply_status doc =
  match string_field "status" doc with Some s -> s | None -> ""

let reply_error doc = string_field "error" doc

let retry_after_ms doc = int_field "retry_after_ms" doc

(* --- the v4 race audit --- *)

type entrant_summary = {
  entrant : string;
  entrant_short : string;
  entrant_cost : float;
  entrant_status : string;
  entrant_cost_calls : int;
  entrant_winner : bool;
}

let reply_winner doc = string_field "winner" doc

let reply_entrants doc =
  match list_field "entrants" doc with
  | None -> []
  | Some l ->
      List.filter_map
        (fun e ->
          match e with
          | Json.Obj _ ->
              Option.map
                (fun name ->
                  {
                    entrant = name;
                    entrant_short =
                      Option.value ~default:"" (string_field "short" e);
                    entrant_cost =
                      Option.value ~default:Float.nan (float_field "cost" e);
                    entrant_status =
                      Option.value ~default:"" (string_field "run_status" e);
                    entrant_cost_calls =
                      Option.value ~default:0 (int_field "cost_calls" e);
                    entrant_winner =
                      (match Json.member "winner" e with
                      | Some (Json.Bool b) -> b
                      | _ -> false);
                  })
                (string_field "name" e)
          | _ -> None)
        l
