open Vp_core

(** The layout server's wire protocol: newline-delimited JSON frames.

    One request per line, one reply per line, over a plain TCP stream.
    Every frame is a single JSON object; requests carry an ["op"] field
    naming the operation, replies carry a ["status"] field that is
    ["ok"], ["error"] (with an ["error"] message) or ["overloaded"]
    (with a ["retry_after_ms"] hint — the daemon shed the connection
    before reading a single byte). The format reuses {!Vp_observe.Json},
    so the server stays dependency-free, and each frame is one
    {!Vp_observe.Json.Codec} description: a builder below and
    {!request_of_json} are its two directions, so they cannot disagree
    on a byte.

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

(** {2 Reply builders (the server side)} *)

val ok_reply : (string * Vp_observe.Json.t) list -> Vp_observe.Json.t

val error_reply : string -> Vp_observe.Json.t

val overloaded_reply : retry_after_ms:int -> Vp_observe.Json.t

val layout_to_json : Table.t -> Partitioning.t -> Vp_observe.Json.t
(** The layout as a list of attribute-name groups, canonical order. *)

(** {2 Reply readers (the client side)} *)

val reply_status : Vp_observe.Json.t -> string
(** The ["status"] field; [""] when absent or non-string. *)

val reply_error : Vp_observe.Json.t -> string option

val retry_after_ms : Vp_observe.Json.t -> int option
(** The backoff hint of an [overloaded] reply. *)

(** One row of the race audit a v4 portfolio [partition] reply carries
    in its ["entrants"] array. *)
type entrant_summary = {
  entrant : string;
  entrant_short : string;
  entrant_cost : float;  (** [nan] when the reply holds [null]. *)
  entrant_status : string;  (** ["complete"] or ["timed_out"]. *)
  entrant_cost_calls : int;
  entrant_winner : bool;
}

val reply_winner : Vp_observe.Json.t -> string option
(** The winning entrant's algorithm name ([None] on non-portfolio
    replies and pre-v4 servers). *)

val entrant : entrant_summary Vp_observe.Json.Codec.t
(** One ["entrants"] row; the daemon encodes with it. *)

val reply_entrants : Vp_observe.Json.t -> entrant_summary list
(** The per-entrant audit of a portfolio reply; [[]] when absent or
    malformed. *)

val string_field : string -> Vp_observe.Json.t -> string option

val int_field : string -> Vp_observe.Json.t -> int option

val float_field : string -> Vp_observe.Json.t -> float option
(** Accepts both JSON ints and floats. *)
