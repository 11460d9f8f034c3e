(** The shard-daemon entry point the router re-execs.

    The router spawns its shards as copies of the {e current} binary
    with [Sys.argv.(1) = sentinel]; {!maybe_run} intercepts that and
    runs a {!Vp_server.Daemon} instead of the program's normal main —
    so any executable that might host a router (the CLI, the bench
    driver, the test runner) must call [Worker.maybe_run ()] as its
    very first statement. When the sentinel is absent it returns
    immediately and the program proceeds as usual.

    Worker flags (parsed by {!maybe_run}, never seen by users):
    [--port N] (0 = ephemeral), [--port-file PATH] (the bound port is
    written here via temp + rename once listening — the router's
    race-free startup signal), [--data-dir DIR], [--jobs N],
    [--max-resident N], [--fsync never|always|N]. *)

val sentinel : string
(** ["--vp-shard-worker"]. *)

val maybe_run : unit -> unit
(** Runs a shard daemon and [exit]s when the sentinel is present;
    returns immediately otherwise. *)
