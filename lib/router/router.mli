(** The sharding tier: a thin TCP router in front of N shard daemons.

    The router speaks the same newline-delimited JSON protocol as
    {!Vp_server.Daemon} — {!Vp_client.Client} needs no API change — on
    the same connection core ({!Vp_server.Conn_server}: listen,
    admission, shedding, framing, drain), and owns a fleet of shard
    processes it spawns (re-execing the current binary through
    {!Worker}) and supervises:

    - {b Routing.} Session ops ([open]/[ingest]/[layout]/[history]/
      [close]) are placed by consistent-hashing the session name over
      {!Ring}; the frame and its reply are relayed {e verbatim} (raw
      bytes, never re-serialized), so per-session histories keep the
      byte-identity contract through the extra hop. Stateless ops
      ([partition]/[sleep]) round-robin over healthy shards. [stats]
      and [sessions] aggregate across the fleet; [ping] and [shutdown]
      are answered by the router itself. The shard-management ops
      ([detach]/[adopt]) are rejected at the front door.

    - {b Handoff.} [cluster_add] / [cluster_remove] change the ring.
      During the change every session op is answered [overloaded]
      (clients already retry on that), the losing shard spills each
      moving session to disk ([detach], or its graceful drain, or the
      crash state it left), the router renames the session's
      [.meta]/[.snap]/[.wal] into the gaining shard's data dir, and the
      gainer [adopt]s it — restoring on first touch exactly like crash
      recovery, so the history stays byte-identical across the move.
      Seq-idempotent ingest retry covers the shed window.

    - {b Supervision.} A supervisor domain [waitpid]-polls the fleet;
      a crashed shard is restarted on its port and data dir, where the
      startup recovery scan brings its sessions back. Until the
      restart lands, ops routed to it shed.

    Control ops (JSON, same framing): [cluster_info] (shards with
    id/port/pid/health/restarts), [cluster_locate {session}] (the
    owner shard), [cluster_add], [cluster_remove {shard}].

    Instrumentation: counters [router.requests], [router.forwards],
    [router.shed], [router.handoffs], [router.restarts],
    [router.shard_failures]; one [router.request] span per frame when
    tracing. *)

type t

val create :
  ?host:string ->
  ?port:int ->
  ?jobs:int ->
  ?max_pending:int ->
  ?shards:int ->
  ?shard_jobs:int ->
  ?max_resident:int ->
  ?fsync:Vp_robust.Journal.fsync ->
  data_dir:string ->
  unit ->
  t
(** Binds the router socket ([port 0] = ephemeral, like
    {!Vp_server.Daemon.create}) and spawns [shards] (default [3]) shard
    daemons, each on an ephemeral port with data dir
    [data_dir/shard-<i>] — sharding requires durability, which is why
    [data_dir] is mandatory. [jobs]/[max_pending] bound the router's own
    connection domains and admission; [shard_jobs] / [max_resident] /
    [fsync] are passed to every shard, which admits the daemon's default
    [max_pending] connections. The ring places {!Ring.default_replicas}
    points per shard. The calling executable {e must} run
    {!Worker.maybe_run}[ ()] first — shards are re-execs of
    [Sys.executable_name].
    @raise Invalid_argument on out-of-range sizes, before binding:
    among them [jobs] past {!Vp_server.Conn_server.max_jobs} less one
    (the supervisor is a domain too) and [shard_jobs] past
    [Conn_server.max_jobs].
    @raise Failure when a shard fails to come up (everything spawned so
    far is killed first).
    @raise Unix.Unix_error if the address cannot be bound. *)

val port : t -> int

val shard_count : t -> int

val serve : t -> unit
(** {!Vp_server.Conn_server.serve}: the accept loop until {!stop}, then
    the drain; the epilogue joins the supervisor and shuts the fleet
    down gracefully (SIGTERM — every shard drains and spills its
    sessions). Call at most once. *)

val stop : t -> unit
(** Flag-only, safe from signal handlers and connection domains. *)

val install_signal_handlers : t -> unit
(** {!Vp_server.Conn_server.install_signal_handlers}. *)
