open Vp_core

(** The layout server's client: one TCP connection speaking
    {!Vp_server.Protocol}. {!request} is the raw exchange; {!call} and
    the typed helpers decode each reply with its one
    {!Vp_server.Protocol} description, the same one the daemon and the
    router encode with, and read no member by hand.

    A client is cheap and reconnects lazily: the socket is opened on the
    first {!request} and re-opened after the server sheds it (an
    [overloaded] reply closes the connection server-side — {!request}
    hands the reply back and drops the dead socket, and
    {!request_retry} sleeps for the advertised [retry_after_ms] and
    tries again on a fresh connection). Helpers return [Error] with a
    one-line message for network failures, [error] replies and
    exhausted retries alike. *)

type t

val create : ?host:string -> ?port:int -> ?retry_seed:int64 -> unit -> t
(** No I/O happens here; the connection opens on first use. [host]
    defaults to ["127.0.0.1"], [port] to {!Vp_server.Protocol.default_port}.
    [retry_seed] (default [0L]) seeds the deterministic backoff jitter —
    give each client of a fleet its own seed so a mass shed does not
    reconnect in lockstep. *)

val retry_delay_ms :
  seed:int64 -> index:int -> retry_after_ms:int -> float
(** The jittered backoff sleep, in milliseconds: [retry_after_ms]
    scaled by a deterministic factor in [0.5, 1.0) drawn from
    {!Vp_robust.Mix.u01} at [(seed, index)]. Pure — exposed so the
    jitter bounds are unit-testable; {!request_retry} draws [index]
    from a per-client counter. *)

val close : t -> unit
(** Closes the connection if one is open. The client remains usable
    (the next request reconnects). *)

val request : t -> Vp_observe.Json.t -> (Vp_observe.Json.t, string) result
(** One frame out, one reply frame back. Connects first if needed.
    An [overloaded] reply is returned as-is (and the connection, which
    the server has already closed, is dropped). A reply longer than
    {!Vp_server.Protocol.max_reply_bytes} is an
    [Error Protocol.reply_too_long]. *)

val request_retry :
  ?attempts:int -> t -> Vp_observe.Json.t -> (Vp_observe.Json.t, string) result
(** Like {!request}, but an [overloaded] reply sleeps for its
    [retry_after_ms] hint (scaled by {!retry_delay_ms} jitter) and
    retries on a fresh connection, up to [attempts] times in total
    (default [20]) before giving up with an [Error]. This is the polite
    way to talk to a loaded server: clients back off instead of
    hanging. *)

val call :
  ?attempts:int ->
  t ->
  'a Vp_observe.Json.Codec.t ->
  Vp_observe.Json.t ->
  ('a, string) result
(** [call c reply frame]: {!request_retry}, then the reply decoded with
    the [reply] description. Any reply but [ok] is an [Error] (an
    [error] reply's message), and so is a reply the description does
    not fit. *)

(** {2 Typed helpers}

    Each sends the corresponding {!Vp_server.Protocol} request through
    {!call} and returns the reply decoded with its
    {!Vp_server.Protocol} description. *)

val ping : t -> (int, string) result
(** The server's protocol version. *)

val server_stats : t -> (Vp_server.Protocol.stats, string) result
(** Live session count, counters and gauges (and, from a router, the
    per-shard session counts). *)

val partition :
  ?algorithm:string ->
  ?buffer_mb:float ->
  ?deadline_ms:int ->
  ?budget_steps:int ->
  t ->
  Workload.t ->
  (Vp_server.Protocol.partitioned, string) result
(** A one-shot panel run: the layout, its cost and the run status.
    [~algorithm:"portfolio"] (protocol v4) races every registered
    entrant server-side; the reply then also carries the [winner] and
    the [entrants] race audit. *)

val open_session :
  ?panel:string list ->
  ?drift_ratio:float ->
  ?min_window:int ->
  ?epoch:int ->
  ?memory:int ->
  ?horizon:float ->
  ?budget_steps:int ->
  ?buffer_mb:float ->
  t ->
  session:string ->
  Table.t ->
  (Vp_server.Protocol.opened, string) result

val ingest :
  ?deadline_ms:int ->
  ?budget_steps:int ->
  ?seq:int ->
  t ->
  session:string ->
  Table.t ->
  Query.t ->
  (int, string) result
(** Feeds one query; [Ok generation] (the layout generation after the
    ingest, so a caller can watch adoptions happen). [seq] — the query's
    1-based stream position — makes the request idempotent: the server
    acknowledges a replayed position without re-ingesting, so with a
    [seq] the client resends on transport failure (lost reply, server
    restart) instead of giving up. *)

val layout : t -> session:string -> (Vp_server.Protocol.layout_view, string) result

val history : t -> session:string -> (string, string) result
(** The session's decision history (byte-stable; see
    {!Vp_online.Service.history}). *)

val close_session : t -> session:string -> (string, string) result
(** Closes the server-side session; [Ok final_history]. *)

val shutdown_server : t -> (unit, string) result
(** Asks the daemon to drain gracefully (the [shutdown] op). *)

(** {2 Batch mode} *)

val replay_script :
  ?progress:(string -> unit) ->
  t ->
  string ->
  ((string * string) list, string) result
(** [replay_script client file] parses [file] with
    {!Vp_parser.Workload_parser} (the same SQL-ish format [vp cost] and
    friends read) and replays it against the server: one session per
    [CREATE TABLE]d table, named after the table, each query ingested in
    script order, then the session is closed. Returns
    [(table, final_history)] per table in creation order. Parse errors
    come back line-numbered ([Error "script.sql:12: ..."]); server and
    network errors abort the replay at the failing query. [progress] is
    called with one line per completed session. *)
