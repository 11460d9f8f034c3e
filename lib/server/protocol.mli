open Vp_core

(** The layout server's wire protocol: newline-delimited JSON frames.

    One request per line, one reply per line, over a plain TCP stream.
    Every frame is a single JSON object; requests carry an ["op"] field
    naming the operation, replies carry a ["status"] field that is
    ["ok"], ["error"] (with an ["error"] message) or ["overloaded"]
    (with a ["retry_after_ms"] hint — the daemon shed the connection
    before reading a single byte). The format reuses {!Vp_observe.Json},
    so the server stays dependency-free. Each request frame and each
    reply is one {!Vp_observe.Json.Codec} description: for a frame, a
    builder below and {!request_of_json} are its two directions; for a
    reply, the servers encode and the client decodes with the same
    value, so neither side can disagree on a byte.

    Operations:
    - [ping] — liveness probe.
    - [stats] — the merged {!Vp_observe.Stats} snapshot plus the live
      session count.
    - [partition] — a one-shot panel run: an inline table + query
      footprints, an algorithm name, an optional deadline/step budget;
      answers the layout, its cost and the degradation status
      ({!Vp_core.Partitioner.status}). The name ["portfolio"] (v4)
      races every registered entrant under the shared budget; the reply
      then also carries [winner] and the [entrants] audit (see
      {!entrant_summary}).
    - [open]/[ingest]/[layout]/[history]/[close] — a named
      {!Vp_online.Service} session per table, ingesting one query per
      request and answering generation/decision state.
    - [sleep] — a diagnostic that holds its connection slot for a fixed
      time; the load generator and the overload tests use it to create
      deliberate backpressure.
    - [shutdown] — ask the daemon to drain gracefully (the network
      equivalent of SIGTERM).
    - [detach]/[adopt]/[sessions] — shard-management ops (protocol v3)
      driven by the cluster router during session handoff: [detach]
      spills a session to disk and forgets it {e without} deleting its
      files, [adopt] registers a session from its on-disk [.meta], and
      [sessions] lists the registered names. Ordinary clients never
      need them; the router rejects them at its own front door.

    Hostile input is bounded: frames longer than {!max_frame_bytes} or
    nested deeper than {!max_depth} are answered with a clean [error]
    reply, never a dropped connection (see [test_server.ml]). *)

val protocol_version : int

val default_port : int

val max_frame_bytes : int
(** Upper bound on one request frame, in bytes (1 MiB). *)

val max_reply_bytes : int
(** Upper bound on one reply frame, in bytes (16 MiB): room for a
    [history] or [close] reply of about 120,000 decisions. The client
    and the router's shard side both read replies through
    {!Conn_server.read_frame} with this bound. *)

val reply_too_long : string
(** The error both give for a reply past {!max_reply_bytes}; the router
    answers it as an [error] reply. *)

val max_depth : int
(** Maximum JSON nesting depth accepted on the wire. *)

(** The optional execution budget every request may carry. [deadline_ms]
    is wall-clock (not deterministic — a convenience for interactive
    callers); [budget_steps] is the deterministic step bound. *)
type budget_spec = { deadline_ms : int option; budget_steps : int option }

val budget_of_spec : budget_spec -> Vp_robust.Budget.t option
(** [None] when the spec carries neither bound.
    @raise Invalid_argument on [deadline_ms < 1] or [budget_steps < 0]
    ({!request_of_json} never yields either). *)

(** Everything an [open] frame may configure about a session. Defaults
    mirror {!Vp_online.Service.default_config}; [buffer_mb] selects the
    disk model's buffer size (default 8 MiB). Sessions always run their
    re-optimization panel at [jobs = 1]: the server's parallelism is
    across connections, and nesting per-session pools inside pool
    workers would oversubscribe the machine. *)
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

(** A [partition] frame. *)
type partition = {
  workload : Workload.t;
  algorithm : string;
  buffer_mb : float;
  budget : budget_spec;
}

(** An [ingest] frame. *)
type ingest = {
  session : string;
  attributes : string list;
  weight : float;
  name : string option;
  seq : int option;
      (** Idempotent request id: the 1-based stream position this
          query should land at. A retry of an already-applied seq is
          acknowledged ([duplicate:true]) without re-ingesting, so a
          client that lost a reply — e.g. across a server restart — can
          resend safely. *)
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

val op_name : request -> string
(** The wire name of the operation (span/telemetry label). *)

val frame_op : Vp_observe.Json.t -> (string, string) result
(** The ["op"] of a frame, or the error reply's text for a frame that
    is not an object or names no op. The router reads its frames'
    ops with it, so both servers refuse such frames in the same words. *)

val request_of_json : Vp_observe.Json.t -> (request, string) result
(** Decodes one frame. Errors are one-line human-readable messages,
    suitable for an [error] reply verbatim
    ({!Vp_observe.Json.Codec.error_message}): a field of the frame itself
    reads e.g. [missing or non-string field "session"], a nested one
    names its path, e.g. [field "queries[0].weight" must be a number].
    An out-of-range [deadline_ms] ([< 1]), [budget_steps] ([< 0]),
    [seq] ([< 1]) or [ms] is refused here, before any session sees
    it. *)

(** {2 Descriptions}

    Each frame and file shape is one {!Vp_observe.Json.Codec}
    description; the builders below and {!request_of_json} are derived
    from them. *)

val budget : (budget_spec, budget_spec) Vp_observe.Json.Codec.members
(** [deadline_ms] and [budget_steps], flat in [partition] and [ingest]
    frames. Decoding enforces {!Vp_robust.Budget.create}'s bounds. *)

(** One query as the wire carries it. *)
type wire_query = {
  attributes : string list;
  weight : float;  (** Decimal on the wire; [1.0] when absent. *)
  name : string option;  (** [Q<i>] where it lands when absent. *)
}

val wire_query : wire_query Vp_observe.Json.Codec.t
(** The query objects of [partition] and [ingest] frames. *)

val meta : open_spec Vp_observe.Json.Codec.t
(** The session meta file ({!Sessions}): the open spec with every float
    as its IEEE-754 bits, so crash recovery rebuilds the exact config
    the original [open] parsed. *)

(** {2 Request builders (the client side)} *)

val ping : Vp_observe.Json.t

val stats : Vp_observe.Json.t

val shutdown : Vp_observe.Json.t

val sleep : ms:int -> Vp_observe.Json.t

val partition_request :
  ?algorithm:string ->
  ?buffer_mb:float ->
  ?deadline_ms:int ->
  ?budget_steps:int ->
  Workload.t ->
  Vp_observe.Json.t
(** [algorithm] defaults to ["HillClimb"], [buffer_mb] to [8.0]. *)

val open_request :
  ?panel:string list ->
  ?drift_ratio:float ->
  ?min_window:int ->
  ?epoch:int ->
  ?memory:int ->
  ?horizon:float ->
  ?budget_steps:int ->
  ?buffer_mb:float ->
  session:string ->
  Table.t ->
  Vp_observe.Json.t

val ingest_request :
  ?deadline_ms:int ->
  ?budget_steps:int ->
  ?seq:int ->
  session:string ->
  Table.t ->
  Query.t ->
  Vp_observe.Json.t

val layout_request : session:string -> Vp_observe.Json.t

val history_request : session:string -> Vp_observe.Json.t

val close_request : session:string -> Vp_observe.Json.t

val detach_request : session:string -> Vp_observe.Json.t

val adopt_request : session:string -> Vp_observe.Json.t

val sessions_request : Vp_observe.Json.t

val session_of : string Vp_observe.Json.Codec.t
(** A frame's ["session"] member, read alone: the router places session
    ops and answers [cluster_locate] by it. *)

val shard_of : string Vp_observe.Json.Codec.t
(** The ["shard"] member of the router's [cluster_remove] frame. *)

(** {2 Replies}

    One description per reply shape, with ["status":"ok"] written first
    as a constant; the daemon and the router encode with it, the client
    decodes with it. Decoding ignores members a description does not
    name, so {!pong} also reads the router's {!router_pong}. *)

(** Every reply's envelope. Decoding fails on an unknown status or an
    [error] without a message; a missing [retry_after_ms] reads as 50. *)
type status = Ok_reply | Error_reply of string | Overloaded of int

val status : status Vp_observe.Json.Codec.t

val error_reply : string -> Vp_observe.Json.t

val overloaded_reply : retry_after_ms:int -> Vp_observe.Json.t

val ok_reply : (string * Vp_observe.Json.t) list -> Vp_observe.Json.t
(** An ok reply from a member list, for a caller that rebuilds the
    daemon's replies outside this library. *)

val pong : int Vp_observe.Json.Codec.t
(** [ping]: the protocol version. *)

val router_pong : int Vp_observe.Json.Codec.t
(** The router's [ping]: also ["router":true] and the shard count. *)

(** [stats]. A router adds [shards] (live sessions by shard id) and
    [shards_unreachable]. *)
type stats = {
  sessions : int;
  counters : (string * int) list;
  gauges : (string * int) list;
  shards : (string * int) list option;
  shards_unreachable : int option;
}

val stats_reply : stats Vp_observe.Json.Codec.t

val layout : string list list Vp_observe.Json.Codec.t
(** A layout: its groups' attribute names. *)

val layout_names : Table.t -> Partitioning.t -> string list list
(** In canonical order. *)

val layout_to_json : Table.t -> Partitioning.t -> Vp_observe.Json.t

(** One row of a portfolio run's race audit. *)
type entrant_summary = {
  entrant : string;
  entrant_short : string;
  entrant_cost : float;  (** [nan] when the reply holds [null]. *)
  entrant_status : string;  (** ["complete"] or ["timed_out"]. *)
  entrant_cost_calls : int;
  entrant_winner : bool;
}

val entrant : entrant_summary Vp_observe.Json.Codec.t

(** [partition]; [winner] and [entrants] only for a portfolio run. *)
type partitioned = {
  layout : string list list;
  cost : float;
  run_status : string;  (** ["complete"] or ["timed_out"]. *)
  algorithm : string;
  cost_calls : int;
  winner : string option;
  entrants : entrant_summary list option;
}

val partitioned : partitioned Vp_observe.Json.Codec.t

(** [open]. [created] is [false] on a re-attach; [restored] is [true]
    when the session was rebuilt from disk, and [false] when absent
    (servers before v2). *)
type opened = { created : bool; restored : bool; generation : int }

val opened : opened Vp_observe.Json.Codec.t

(** [ingest]. [duplicate]: the [seq] was already applied ([false] when
    absent, before v2). *)
type ingested = { ingested : int; generation : int; duplicate : bool }

val ingested : ingested Vp_observe.Json.Codec.t

type layout_view = { generation : int; ingested : int; layout : string list list }

val layout_view : layout_view Vp_observe.Json.Codec.t

type history_view = { generation : int; history : string }

val history_view : history_view Vp_observe.Json.Codec.t

val closed : string Vp_observe.Json.Codec.t
(** [close]: the final history. *)

val detached : unit Vp_observe.Json.Codec.t

val adopted : bool Vp_observe.Json.Codec.t
(** [false] when the name was already registered. *)

val session_list : string list Vp_observe.Json.Codec.t

val slept : int Vp_observe.Json.Codec.t

val stopping : unit Vp_observe.Json.Codec.t
(** [shutdown]. *)

(** {3 The router's control replies} *)

type shard_info = { id : string; port : int; pid : int; healthy : bool; restarts : int }

(** [fleet] is the wire's ["shards"]. *)
type cluster_info = { fleet : shard_info list; replicas : int; reconfiguring : bool }

val cluster_info : cluster_info Vp_observe.Json.Codec.t

val located : string Vp_observe.Json.Codec.t
(** [cluster_locate]: the owner shard's id. *)

(** [cluster_add] and [cluster_remove]. *)
type handoff = { shard : string; moved : int; handoff_errors : int }

val handoff : handoff Vp_observe.Json.Codec.t

(** {2 Member readers}

    For callers outside this library that read replies by hand. *)

val string_field : string -> Vp_observe.Json.t -> string option

val int_field : string -> Vp_observe.Json.t -> int option
