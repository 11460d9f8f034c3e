(** The layout daemon: the {!Protocol} served over {!Conn_server}.

    One daemon owns one {!Conn_server.t} and one {!Sessions.t} registry.
    The shared core listens, admits or sheds connections, frames
    requests and drains; the daemon only decodes each frame and
    dispatches it. Connections are served thread-per-connection on at
    most [jobs] connection domains, so [jobs = 1] serves strictly
    sequentially, which is what the determinism tests exploit. Past [max_pending]
    in-flight connections a new one gets an [overloaded] frame with a
    [retry_after_ms] hint.

    {!stop} (also SIGTERM/SIGINT after {!install_signal_handlers}, and
    the [shutdown] op) starts the core's graceful drain; once the last
    connection has ended, the daemon flushes every session
    ({!Sessions.drain}).

    Instrumentation (under {!Vp_observe.Switch}): counters
    [server.requests] and [server.shed], gauges [server.active_sessions]
    and [server.connection_domains] (the latter set by {!Conn_server}),
    one [server.request] span per decoded frame (args: the op name). *)

type t

val create :
  ?host:string ->
  ?port:int ->
  ?jobs:int ->
  ?max_pending:int ->
  ?data_dir:string ->
  ?max_resident:int ->
  ?fsync:Vp_robust.Journal.fsync ->
  unit ->
  t
(** Binds and listens immediately (so {!port} is known before {!serve}
    runs, which is how the tests use ephemeral ports). [host] defaults to
    ["127.0.0.1"], [port] to {!Protocol.default_port} ([0] asks the
    kernel for an ephemeral port), [jobs] to [4], [max_pending] to [64].
    [data_dir]/[max_resident]/[fsync] configure session durability —
    write-ahead logging, idle-session spilling and crash recovery — and
    are passed to {!Sessions.create} verbatim (no [data_dir] means the
    pre-durability in-memory registry).
    @raise Invalid_argument if [jobs < 1], [jobs > Conn_server.max_jobs],
    [max_pending < 1] or [max_resident < 1] — before binding.
    @raise Unix.Unix_error if the address cannot be bound. *)

val port : t -> int
(** The actually bound port (resolves port [0]). *)

val jobs : t -> int

val serve : t -> unit
(** {!Conn_server.serve}: the accept loop until {!stop}, then the drain
    and the session flush, even when the loop dies by exception. Call at
    most once per daemon. *)

val stop : t -> unit
(** {!Conn_server.stop}: flag-only, safe from a signal handler or a
    worker mid-request. *)

val install_signal_handlers : t -> unit
(** {!Conn_server.install_signal_handlers}. *)
