(** The daemon's registry of named online-layout sessions, with
    optional durability.

    A session is one {!Vp_online.Service.t} (one table's evolving
    layout) plus the mutex that serializes its ingests. Sessions are
    named, live server-side and outlive the connection that opened
    them: any client may keep appending to a session by name, and the
    {e per-session} ingest order is the only thing the service's
    determinism contract depends on — concurrent traffic to {e other}
    sessions can interleave freely without perturbing a session's
    decision history (proved in [test_server.ml]).

    {2 Durability}

    With a [data_dir], every session becomes crash-tolerant:

    - The open spec is persisted to [<name>.meta] (hex-encoded session
      name, {!Protocol.meta}) so recovery can rebuild the service
      config without the client.
    - Every applied ingest is appended to a per-session write-ahead log
      [<name>.wal] {e before} the service mutates — keys are absolute
      1-based stream indices, payloads one {!wal_record}. An ingest the
      session refuses (unknown attribute, invalid query or budget) is
      never logged.
    - Idle sessions past the [max_resident] cap are {e evicted}: their
      full state is spilled to [<name>.snap] ({!Vp_online.Service.snapshot},
      written atomically: temp + fsync + rename) and the WAL is reset;
      the next touch transparently restores them. Eviction picks the
      least-recently-used resident by a logical touch clock (never
      wall-clock — determinism) and skips sessions whose mutex is held,
      so it never blocks an in-flight ingest and never deadlocks.
    - {!create} scans [data_dir] for [.meta] files and re-registers
      every session found as spilled; its first touch replays
      [restore snapshot] then the WAL tail (records with index beyond
      the snapshot's ingest count), reconstructing byte-identical
      history and generation counters. Torn WAL tails are truncated by
      {!Vp_robust.Journal.recover} on the way in.

    The crash contract, proved in [test_durability.ml]: killing the
    process at {e any} journaled ingest boundary and restarting yields
    the same per-session {!Vp_online.Service.history} bytes as an
    uninterrupted run. Step budgets carried by individual ingest
    requests are journaled and replayed; wall-clock deadlines are not
    (they are documented as non-deterministic in {!Protocol}).

    Registry operations take a global mutex; per-query work only takes
    the session's own lock, so ingests into different sessions run
    concurrently on different connection domains. Restores run under the
    registry lock (a restore must not race another open of the same
    name). *)

type t

val create :
  ?data_dir:string ->
  ?max_resident:int ->
  ?fsync:Vp_robust.Journal.fsync ->
  unit ->
  t
(** An empty registry — or, when [data_dir] holds session state from a
    previous life, a registry with every persisted session registered
    as spilled (counted by {!recovered_count}). Without [data_dir] the
    registry is purely in-memory: no WAL, no spilling, state dies with
    the process (the pre-durability behaviour). [max_resident] (default
    unlimited) caps the number of in-memory sessions; [fsync] (default
    [Never]) is the WAL durability policy. The directory is created if
    missing.
    @raise Invalid_argument if [max_resident < 1]. *)

val count : t -> int
(** Registered sessions, resident + spilled (also published as the
    [server.active_sessions] gauge when stats are on). *)

val resident_count : t -> int
(** Sessions currently holding in-memory state (the
    [server.resident_sessions] gauge). *)

val recovered_count : t -> int
(** Sessions found on disk when the registry was created. *)

type opened = Protocol.opened = { created : bool; restored : bool; generation : int }
(** The [open] reply's record ({!Protocol.opened}). *)

val open_session : t -> Protocol.open_spec -> (opened, string) result
(** Opens (or re-attaches to) the named session. A fresh name creates a
    service per the spec (persisting the spec when durable); an
    existing name re-attaches, provided the spec's table has the same
    name and attribute names — otherwise an error. Unknown panel
    algorithm names and invalid config values are reported as errors,
    and no session is created (a malformed open must not leak state). *)

type ingested = Protocol.ingested = { ingested : int; generation : int; duplicate : bool }
(** The [ingest] reply's record ({!Protocol.ingested}). *)

val ingest :
  t ->
  string ->
  ?seq:int ->
  ?deadline_ms:int ->
  ?budget_steps:int ->
  attributes:string list ->
  weight:float ->
  ?name:string ->
  unit ->
  (ingested, string) result
(** Accounts one query into the named session: WAL append first (when
    durable), then {!Vp_online.Service.ingest} under the session lock.
    [seq] makes the request idempotent: [seq <= ingested] is
    acknowledged as a [duplicate] without touching anything,
    [seq = ingested + 1] applies, anything further ahead is an error
    (the client skipped a query). [budget_steps] is journaled with the
    record and re-applied on replay; [deadline_ms] is not (wall-clock).
    [name] defaults to [Q<position>]. Errors: unknown session, unknown
    attribute, invalid query, a budget {!Vp_robust.Budget.create}
    refuses, seq gap, corrupt on-disk state (a WAL record replay cannot
    apply reads [corrupt WAL for "<name>": …]). *)

(** One write-ahead record: the query, bit-exact, and the step budget
    its ingest ran under. *)
type wal_record = { query : Vp_core.Query.t; budget_steps : int option }

val wal_record : wal_record Vp_observe.Json.Codec.t
(** [{"q": {!Vp_online.Service.query}, "budget_steps"?}]. *)

val view : t -> string -> (Vp_online.Service.t -> 'a) -> ('a, string) result
(** Runs a read under the named session's lock (layout / history /
    generation requests), restoring it first if spilled. *)

val close : t -> string -> (string, string) result
(** Removes the session, returning its final history (flushed under the
    session lock, so an in-flight ingest completes first), and {e
    deletes} its on-disk state — close means the stream is finished. *)

val drain : t -> unit
(** Graceful shutdown: durable sessions are spilled to disk (snapshot +
    WAL reset) so a later registry re-attaches to them; in-memory
    sessions are simply dropped. *)

(** {2 Shard handoff}

    The cluster router ({!Vp_router.Router}) moves a session between
    shard daemons as files: the losing shard {!detach}es, the router
    renames [<hex>.{meta,snap,wal}] into the gaining shard's data dir,
    and the gaining shard {!adopt}s. The first touch on the gainer
    replays snapshot + WAL tail exactly like crash recovery, so the
    decision history stays byte-identical across the move (proved in
    [test_cluster.ml]). *)

val names : t -> string list
(** All registered session names (resident and spilled), sorted. *)

val detach : t -> string -> (unit, string) result
(** Spills the named session to disk (waiting out an in-flight ingest,
    like {!drain}) and removes it from the registry {e without}
    deleting its files — the inverse of {!adopt}. Errors on an unknown
    session or an in-memory registry. *)

val adopt : t -> string -> (bool, string) result
(** Registers the named session from its on-disk [.meta], as spilled.
    [Ok false] when the name is already registered (adopt is
    idempotent); errors when no meta exists, the meta is corrupt, or
    the registry is in-memory. *)

val file_prefix : string -> string
(** The filename stem (hex-encoded session name) under which a
    session's [.meta]/[.snap]/[.wal] live — what the router renames
    between shard data dirs during handoff. *)

val on_disk_sessions : string -> string list
(** The session names persisted in a data directory (decoded from its
    [.meta] files), sorted; [[]] when the directory is unreadable. *)
