(* Durable sessions: the crash contract end to end.

   The acceptance test here is [crash recovery at every boundary]: for a
   50-query drifting script, abandoning a durable registry without
   drain at *every* journaled ingest boundary k (the on-disk state an
   instant after kill -9 — meta + write-ahead log, no snapshot, no
   goodbye) and re-running the script with seq against a fresh registry
   on the same directory must end with a decision history byte-identical
   to an uninterrupted in-memory run. The wire-level tests prove the
   same for the SIGTERM drain path through a real daemon at --jobs 1 and
   4, with an ingest in flight when the signal lands; the CI smoke job
   covers the genuine kill -9 of a separate process. *)

open Vp_core
module Service = Vp_online.Service
module Sessions = Vp_server.Sessions
module Protocol = Vp_server.Protocol
module Client = Vp_client.Client

let unwrap = Testutil.unwrap

let contains = Testutil.contains

(* The 50-query script: a drifting synthetic stream, so the reference
   run adopts at least one re-optimized layout and recovery has real
   generations and events to reconstruct, not just a counter. *)
let stream =
  lazy
    (Vp_benchmarks.Synthetic.drift_workload ~seed:91L ~rows:50_000
       ~attributes:8 ~clusters:3 ~queries:50 ~scatter:0.05 ~drift_at:0.5 ())

let table () = Workload.table (Lazy.force stream)
let queries () = Array.to_list (Workload.queries (Lazy.force stream))

let spec ?(session = "s") table =
  {
    Protocol.session;
    table;
    panel = [ "HillClimb" ];
    drift_ratio = 2.0;
    min_window = 8;
    epoch = 64;
    memory = 32;
    horizon = 1.0;
    budget_steps = None;
    buffer_mb = 1.0;
  }

let service_config () =
  let disk =
    Vp_cost.Disk.with_buffer_size Vp_cost.Disk.default (Vp_cost.Disk.mb 1.0)
  in
  Service.default_config ~drift_ratio:2.0 ~min_window:8 ~epoch:64 ~memory:32
    ~horizon:1.0 ~jobs:1 ~disk
    ~panel:[ Vp_algorithms.Hillclimb.algorithm ]
    ()

let with_temp_dir tag = Testutil.with_temp_dir ("durability-" ^ tag)

let ingest_seq reg ~session table i q =
  Sessions.ingest reg session ~seq:(i + 1)
    ~attributes:(Table.names_of_attr_set table (Query.references q))
    ~weight:(Query.weight q) ~name:(Query.name q) ()

let session_history reg name =
  unwrap (Sessions.view reg name Service.history)

let session_generation reg name =
  unwrap (Sessions.view reg name Service.generation)

(* The uninterrupted run every recovery is measured against: the whole
   script into one in-memory registry. *)
let reference =
  lazy
    (let t = table () in
     let reg = Sessions.create () in
     ignore (unwrap (Sessions.open_session reg (spec t)));
     List.iteri
       (fun i q -> ignore (unwrap (ingest_seq reg ~session:"s" t i q)))
       (queries ());
     let h = session_history reg "s" in
     let g = session_generation reg "s" in
     Alcotest.(check bool) "reference run adopts a layout" true (g > 0);
     (h, g))

(* --- Service snapshot / restore --- *)

let test_snapshot_restore_boundaries () =
  (* Restoring a snapshot taken after query k and ingesting the rest
     must match the long-lived service — at every k, including 0 (fresh
     service) and 50 (nothing left to ingest). *)
  let t = table () in
  let qs = Array.of_list (queries ()) in
  let n = Array.length qs in
  let reference = Service.create (service_config ()) t in
  Array.iter (Service.ingest reference) qs;
  let expect_history = Service.history reference in
  let expect_generation = Service.generation reference in
  let live = Service.create (service_config ()) t in
  for k = 0 to n do
    let snap = Service.snapshot live in
    let restored =
      match Service.restore (service_config ()) snap with
      | Ok s -> s
      | Error msg -> Alcotest.failf "restore at boundary %d: %s" k msg
    in
    Alcotest.(check int)
      (Printf.sprintf "boundary %d: ingest count restored" k)
      k (Service.ingested restored);
    Alcotest.(check string)
      (Printf.sprintf "boundary %d: snapshot round-trips" k)
      snap
      (Service.snapshot restored);
    for i = k to n - 1 do
      Service.ingest restored qs.(i)
    done;
    Alcotest.(check string)
      (Printf.sprintf "boundary %d: history byte-identical" k)
      expect_history (Service.history restored);
    Alcotest.(check int)
      (Printf.sprintf "boundary %d: generation" k)
      expect_generation
      (Service.generation restored);
    if k < n then Service.ingest live qs.(k)
  done

let test_restore_rejects_corruption () =
  let t = table () in
  let svc = Service.create (service_config ()) t in
  List.iteri (fun i q -> if i < 10 then Service.ingest svc q) (queries ());
  let snap = Service.snapshot svc in
  (match Service.restore (service_config ()) "not json at all" with
  | Ok _ -> Alcotest.fail "garbage restored"
  | Error _ -> ());
  (match
     Service.restore (service_config ())
       (String.sub snap 0 (String.length snap / 2))
   with
  | Ok _ -> Alcotest.fail "truncated snapshot restored"
  | Error _ -> ());
  (* A config whose drift window disagrees with the snapshot's ring is
     a mis-wiring, not a recovery: it must be refused, not glossed. *)
  let other =
    let disk =
      Vp_cost.Disk.with_buffer_size Vp_cost.Disk.default (Vp_cost.Disk.mb 1.0)
    in
    Service.default_config ~drift_ratio:2.0 ~min_window:16 ~epoch:64
      ~memory:32 ~horizon:1.0 ~jobs:1 ~disk
      ~panel:[ Vp_algorithms.Hillclimb.algorithm ]
      ()
  in
  match Service.restore other snap with
  | Ok _ -> Alcotest.fail "min_window mismatch restored"
  | Error _ -> ()

(* --- files written by the v1 formats, kept as fixtures ---

   [fixtures/v1/] holds files a daemon of the previous release wrote:
   two Service snapshots (one carrying the additive [formats] and
   [format_events] fields, one from before they existed), and a data
   dir with a session's [.meta], a snapshot and a write-ahead log whose
   records carry [budget_steps] on odd positions only. Each must load,
   continue the stream to the same history as an uninterrupted run, and
   snapshot to the bytes that release wrote at the end of the stream. *)

let fixture name = Filename.concat "fixtures/v1" name

let read_fixture_path path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let read_fixture name = read_fixture_path (fixture name)

let test_v1_snapshots_continue () =
  List.iter
    (fun (tag, formats, seed, n, k) ->
      let w =
        Vp_benchmarks.Synthetic.drift_workload ~seed ~rows:50_000
          ~attributes:8 ~clusters:3 ~queries:n ~scatter:0.05 ~drift_at:0.5 ()
      in
      let config () =
        let disk =
          Vp_cost.Disk.with_buffer_size Vp_cost.Disk.default
            (Vp_cost.Disk.mb 1.0)
        in
        Service.default_config ~drift_ratio:2.0 ~min_window:8 ~epoch:64
          ~memory:32 ~horizon:1.0 ~jobs:1 ~formats ~disk
          ~panel:[ Vp_algorithms.Hillclimb.algorithm ]
          ()
      in
      let qs = Workload.queries w in
      let reference = Service.create (config ()) (Workload.table w) in
      Array.iter (Service.ingest reference) qs;
      let restored =
        match
          Service.restore (config ()) (String.trim (read_fixture (tag ^ ".snap")))
        with
        | Ok s -> s
        | Error msg -> Alcotest.failf "%s: %s" tag msg
      in
      Alcotest.(check int) (tag ^ ": restored position") k
        (Service.ingested restored);
      for i = k to n - 1 do
        Service.ingest restored qs.(i)
      done;
      Alcotest.(check string)
        (tag ^ ": history = uninterrupted run")
        (Service.history reference) (Service.history restored);
      Alcotest.(check string)
        (tag ^ ": re-snapshot = the v1 bytes")
        (read_fixture (tag ^ ".final.snap"))
        (Service.snapshot restored ^ "\n"))
    [ ("formats", true, 17L, 120, 60); ("preformats", false, 91L, 50, 25) ]

let fixture_spec table =
  {
    Protocol.session = "drift";
    table;
    panel = [ "HillClimb" ];
    drift_ratio = 1.5;
    min_window = 6;
    epoch = 20;
    memory = 24;
    horizon = 2.5;
    budget_steps = None;
    buffer_mb = 4.0;
  }

(* The budget the fixture's writer attached to ingest [i] (0-based). *)
let fixture_budget i = if i >= 12 && i mod 2 = 1 then Some 2 else None

let test_v1_data_dir_continues () =
  let w =
    match Vp_parser.Workload_parser.parse_file (fixture "workload.sql") with
    | Ok [ w ] -> w
    | _ -> Alcotest.fail "fixture workload does not parse"
  in
  let table = Workload.table w in
  let qs = Workload.queries w in
  let ingest reg i q =
    Sessions.ingest reg "drift" ~seq:(i + 1) ?budget_steps:(fixture_budget i)
      ~attributes:(Table.names_of_attr_set table (Query.references q))
      ~weight:(Query.weight q) ~name:(Query.name q) ()
  in
  let files = [ "6472696674.meta"; "6472696674.snap"; "6472696674.wal" ] in
  with_temp_dir "v1-fixture" (fun dir ->
      Unix.mkdir dir 0o755;
      List.iter
        (fun f ->
          let oc = open_out_bin (Filename.concat dir f) in
          output_string oc (read_fixture (Filename.concat "datadir" f));
          close_out oc)
        files;
      let reg = Sessions.create ~data_dir:dir () in
      Alcotest.(check int) "meta recovered" 1 (Sessions.recovered_count reg);
      let applied = ref 0 in
      Array.iteri
        (fun i q ->
          if not (unwrap (ingest reg i q)).Sessions.duplicate then incr applied)
        qs;
      Alcotest.(check int) "journaled ingests acknowledged" 8 !applied;
      let reference = Sessions.create () in
      ignore (unwrap (Sessions.open_session reference (fixture_spec table)));
      Array.iteri (fun i q -> ignore (unwrap (ingest reference i q))) qs;
      let history = session_history reg "drift" in
      Alcotest.(check string) "history = uninterrupted run"
        (session_history reference "drift") history;
      Alcotest.(check string) "history = the v1 run" (read_fixture "datadir.history")
        history;
      Sessions.drain reg;
      Alcotest.(check string) "re-snapshot = the v1 bytes"
        (read_fixture "datadir.final.snap")
        (read_fixture_path (Filename.concat dir "6472696674.snap")));
  (* The same life written afresh — open, 12 ingests, drain, then 28
     more with no drain — leaves the v1 bytes in all three files. *)
  with_temp_dir "v1-rewrite" (fun dir ->
      let reg = Sessions.create ~data_dir:dir () in
      ignore (unwrap (Sessions.open_session reg (fixture_spec table)));
      Array.iteri (fun i q -> if i < 12 then ignore (unwrap (ingest reg i q))) qs;
      Sessions.drain reg;
      let reg = Sessions.create ~data_dir:dir () in
      Array.iteri
        (fun i q -> if i >= 12 && i < 40 then ignore (unwrap (ingest reg i q)))
        qs;
      List.iter
        (fun f ->
          Alcotest.(check string) (f ^ " = the v1 bytes")
            (read_fixture (Filename.concat "datadir" f))
            (read_fixture_path (Filename.concat dir f)))
        files)

(* --- client retry jitter --- *)

let test_retry_jitter_bounds () =
  (* The jittered backoff must stay in [hint/2, hint) — never zero
     (a stampede), never past the server's hint — and be a pure
     function of (seed, index). *)
  let hint = 100 in
  let draws =
    List.init 200 (fun index ->
        Client.retry_delay_ms ~seed:42L ~index ~retry_after_ms:hint)
  in
  List.iteri
    (fun index d ->
      Alcotest.(check bool)
        (Printf.sprintf "draw %d in [50, 100)" index)
        true
        (d >= 50.0 && d < 100.0))
    draws;
  let again =
    List.init 200 (fun index ->
        Client.retry_delay_ms ~seed:42L ~index ~retry_after_ms:hint)
  in
  Alcotest.(check (list (float 0.))) "same seed, same schedule" draws again;
  (* The draws actually spread across the band (not a constant), and
     two clients with different seeds do not reconnect in lockstep. *)
  let lo = List.fold_left min infinity draws in
  let hi = List.fold_left max neg_infinity draws in
  Alcotest.(check bool)
    (Printf.sprintf "draws spread the band [%.1f, %.1f]" lo hi)
    true
    (lo < 62.5 && hi > 87.5);
  let other =
    List.init 200 (fun index ->
        Client.retry_delay_ms ~seed:43L ~index ~retry_after_ms:hint)
  in
  Alcotest.(check bool) "different seed, different jitter" true
    (draws <> other)

(* --- seq idempotency --- *)

let test_seq_idempotency () =
  with_temp_dir "seq" (fun dir ->
      let t = table () in
      let qs = Array.of_list (queries ()) in
      let reg = Sessions.create ~data_dir:dir () in
      ignore (unwrap (Sessions.open_session reg (spec t)));
      for i = 0 to 2 do
        let r = unwrap (ingest_seq reg ~session:"s" t i qs.(i)) in
        Alcotest.(check bool)
          (Printf.sprintf "seq %d applies" (i + 1))
          false r.Sessions.duplicate;
        Alcotest.(check int)
          (Printf.sprintf "seq %d position" (i + 1))
          (i + 1) r.Sessions.ingested
      done;
      (* A resent position is acknowledged, not re-ingested. *)
      let dup = unwrap (ingest_seq reg ~session:"s" t 1 qs.(1)) in
      Alcotest.(check bool) "replayed seq is a duplicate" true
        dup.Sessions.duplicate;
      Alcotest.(check int) "stream did not advance" 3 dup.Sessions.ingested;
      (* A gap means the client lost a query — an error, never a silent
         hole in the journal. *)
      (match ingest_seq reg ~session:"s" t 4 qs.(4) with
      | Ok _ -> Alcotest.fail "seq gap accepted"
      | Error msg ->
          Alcotest.(check bool) "gap error names the expected seq" true
            (contains msg "next is 4"));
      (* No seq: the pre-idempotency client still works. *)
      let r =
        unwrap
          (Sessions.ingest reg "s"
             ~attributes:
               (Table.names_of_attr_set t (Query.references qs.(3)))
             ~weight:(Query.weight qs.(3))
             ~name:(Query.name qs.(3))
             ())
      in
      Alcotest.(check int) "unnumbered ingest appends" 4 r.Sessions.ingested)

(* --- the differential crash-recovery suite --- *)

let test_crash_recovery_every_boundary () =
  let t = table () in
  let qs = queries () in
  let n = List.length qs in
  let expect_history, expect_generation = Lazy.force reference in
  with_temp_dir "crash" (fun root ->
      for k = 0 to n do
        let dir = Filename.concat root (string_of_int k) in
        (* Live until the crash point: open + first k journaled ingests,
           then the process "dies" — the registry is abandoned with no
           drain and no spill, leaving exactly what kill -9 leaves: the
           meta file and a WAL of k records. *)
        let doomed = Sessions.create ~data_dir:dir () in
        ignore (unwrap (Sessions.open_session doomed (spec t)));
        List.iteri
          (fun i q ->
            if i < k then ignore (unwrap (ingest_seq doomed ~session:"s" t i q)))
          qs;
        (* Next life: the startup scan finds the session, the first open
           re-attaches to it, and a seq replay of the whole script acks
           the already-journaled prefix and applies the rest. *)
        let reg = Sessions.create ~data_dir:dir () in
        Alcotest.(check int)
          (Printf.sprintf "boundary %d: startup scan finds the session" k)
          1
          (Sessions.recovered_count reg);
        let opened = unwrap (Sessions.open_session reg (spec t)) in
        Alcotest.(check bool)
          (Printf.sprintf "boundary %d: open restores" k)
          true opened.Sessions.restored;
        Alcotest.(check bool)
          (Printf.sprintf "boundary %d: open does not create" k)
          false opened.Sessions.created;
        List.iteri
          (fun i q ->
            let r = unwrap (ingest_seq reg ~session:"s" t i q) in
            Alcotest.(check bool)
              (Printf.sprintf "boundary %d: seq %d %s" k (i + 1)
                 (if i < k then "acks as duplicate" else "applies"))
              (i < k) r.Sessions.duplicate)
          qs;
        Alcotest.(check string)
          (Printf.sprintf "boundary %d: history byte-identical" k)
          expect_history (session_history reg "s");
        Alcotest.(check int)
          (Printf.sprintf "boundary %d: generation" k)
          expect_generation (session_generation reg "s")
      done)

(* --- out-of-range budgets never reach the log ---

   An ingest whose budget [Budget.create] would refuse must be refused
   before its query is journaled: otherwise a restart replays a query
   the live session never took (and a negative step bound makes every
   later replay raise). The probe sends a different query with a bad
   budget at the next position, then the right one, then dies without
   a drain; the recovered session must match an uninterrupted run. *)

let test_bad_budget_not_logged () =
  let t = table () in
  let qs = Array.of_list (queries ()) in
  let n = Array.length qs in
  let expect_history, _ = Lazy.force reference in
  with_temp_dir "bad-budget" (fun dir ->
      let doomed = Sessions.create ~data_dir:dir () in
      ignore (unwrap (Sessions.open_session doomed (spec t)));
      let names q = Table.names_of_attr_set t (Query.references q) in
      for i = 0 to 29 do
        if i = 10 then begin
          let wrong = qs.(n - 1) in
          let refused ?deadline_ms ?budget_steps () =
            match
              Sessions.ingest doomed "s" ~seq:(i + 1) ?deadline_ms ?budget_steps
                ~attributes:(names wrong) ~weight:(Query.weight wrong)
                ~name:"wrong" ()
            with
            | Ok _ -> Alcotest.fail "out-of-range budget accepted"
            | Error _ -> ()
          in
          refused ~deadline_ms:0 ();
          refused ~budget_steps:(-1) ()
        end;
        ignore (unwrap (ingest_seq doomed ~session:"s" t i qs.(i)))
      done;
      let reg = Sessions.create ~data_dir:dir () in
      Array.iteri
        (fun i q -> ignore (unwrap (ingest_seq reg ~session:"s" t i q)))
        qs;
      Alcotest.(check string) "history = uninterrupted run" expect_history
        (session_history reg "s");
      Sessions.drain reg;
      let again = Sessions.create ~data_dir:dir () in
      Alcotest.(check string) "restorable after the probe" expect_history
        (session_history again "s"));
  (* A record that replay cannot apply is reported as a corrupt WAL, not
     raised out of the registry. *)
  with_temp_dir "bad-record" (fun dir ->
      let reg = Sessions.create ~data_dir:dir () in
      ignore (unwrap (Sessions.open_session reg (spec t)));
      ignore (unwrap (ingest_seq reg ~session:"s" t 0 qs.(0)));
      let wal =
        Vp_robust.Journal.open_ ~fsync:Vp_robust.Journal.Never
          (Filename.concat dir (Sessions.file_prefix "s" ^ ".wal"))
      in
      Vp_robust.Journal.record wal ~key:"2"
        ~payload:{|{"q":{"name":"Q2","refs":[40],"w":"3ff0000000000000"}}|};
      Vp_robust.Journal.close wal;
      let next = Sessions.create ~data_dir:dir () in
      match Sessions.view next "s" Service.ingested with
      | Ok _ -> Alcotest.fail "unappliable WAL record replayed"
      | Error msg ->
          Alcotest.(check bool) ("reported as corrupt: " ^ msg) true
            (contains msg "corrupt WAL for \"s\""))

(* --- eviction / re-attach under a resident cap --- *)

let test_evict_reattach_identity () =
  (* Four sessions fed the same stream round-robin under a two-resident
     cap: every query lands on an evicted session that must be restored
     mid-stream, and each history must still match the uncapped
     in-memory run's. *)
  let t = table () in
  let qs = queries () in
  let expect_history, expect_generation = Lazy.force reference in
  let names = [ "s0"; "s1"; "s2"; "s3" ] in
  with_temp_dir "evict" (fun dir ->
      let reg = Sessions.create ~data_dir:dir ~max_resident:2 () in
      List.iter
        (fun s -> ignore (unwrap (Sessions.open_session reg (spec ~session:s t))))
        names;
      List.iteri
        (fun i q ->
          List.iter
            (fun s -> ignore (unwrap (ingest_seq reg ~session:s t i q)))
            names)
        qs;
      Alcotest.(check int) "all four registered" 4 (Sessions.count reg);
      Alcotest.(check bool) "cap held" true (Sessions.resident_count reg <= 2);
      List.iter
        (fun s ->
          Alcotest.(check string)
            (s ^ ": history matches the uncapped run")
            expect_history (session_history reg s);
          Alcotest.(check int)
            (s ^ ": generation")
            expect_generation (session_generation reg s))
        names)

(* --- drain and re-attach over the wire (SIGTERM path) --- *)

let await ?(timeout = 10.0) what cond =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if cond () then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "timed out waiting for %s" what
    else (
      Unix.sleepf 0.002;
      go ())
  in
  go ()

let test_sigterm_drain jobs () =
  (* A real daemon with a data_dir: SIGTERM lands while a feeder client
     has ingests in flight. The drain must let the in-flight request
     finish, spill every session, and a daemon restarted on the same
     directory must re-attach (restored:true over the wire) with the
     history intact — completed by a seq replay of the whole script that
     acks everything the first life applied. *)
  with_temp_dir
    (Printf.sprintf "drain-j%d" jobs)
    (fun dir ->
      let t = table () in
      let qs = Array.of_list (queries ()) in
      let n = Array.length qs in
      let expect_history, _ = Lazy.force reference in
      let d = Vp_server.Daemon.create ~port:0 ~jobs ~data_dir:dir () in
      Vp_server.Daemon.install_signal_handlers d;
      let server = Domain.spawn (fun () -> Vp_server.Daemon.serve d) in
      let port = Vp_server.Daemon.port d in
      let c = Client.create ~port () in
      let opened =
        unwrap
          (Client.open_session ~panel:[ "HillClimb" ] ~buffer_mb:1.0 c
             ~session:"s" t)
      in
      Alcotest.(check bool) "first open creates" true opened.Protocol.created;
      Alcotest.(check bool) "nothing to restore yet" false
        opened.Protocol.restored;
      for i = 0 to 9 do
        ignore (unwrap (Client.ingest ~seq:(i + 1) c ~session:"s" t qs.(i)))
      done;
      (* Release the connection (at --jobs 1 a connection owns the only
         worker for its lifetime) and keep feeding from another domain
         so requests are in flight when the signal lands. *)
      Client.close c;
      let applied = Atomic.make 10 in
      let feeder =
        Domain.spawn (fun () ->
            let c2 = Client.create ~port () in
            let rec go i =
              if i < n then
                match Client.ingest ~seq:(i + 1) c2 ~session:"s" t qs.(i) with
                | Ok _ ->
                    Atomic.set applied (i + 1);
                    go (i + 1)
                | Error _ -> ()
            in
            go 10;
            Client.close c2)
      in
      await "the feeder to get in flight" (fun () -> Atomic.get applied >= 12);
      Unix.kill (Unix.getpid ()) Sys.sigterm;
      Domain.join feeder;
      Domain.join server;
      Sys.set_signal Sys.sigterm Sys.Signal_default;
      Sys.set_signal Sys.sigint Sys.Signal_default;
      let reached = Atomic.get applied in
      Alcotest.(check bool)
        (Printf.sprintf "feeder was mid-stream (reached %d)" reached)
        true
        (reached >= 12 && reached <= n);
      (* Second life. *)
      let d2 = Vp_server.Daemon.create ~port:0 ~jobs ~data_dir:dir () in
      let server2 = Domain.spawn (fun () -> Vp_server.Daemon.serve d2) in
      Fun.protect
        ~finally:(fun () ->
          Vp_server.Daemon.stop d2;
          Domain.join server2)
        (fun () ->
          let c3 = Client.create ~port:(Vp_server.Daemon.port d2) () in
          Fun.protect
            ~finally:(fun () -> Client.close c3)
            (fun () ->
              let reopened =
                unwrap
                  (Client.open_session ~panel:[ "HillClimb" ] ~buffer_mb:1.0
                     c3 ~session:"s" t)
              in
              Alcotest.(check bool) "reopen does not create" false
                reopened.Protocol.created;
              Alcotest.(check bool) "reopen restores from disk" true
                reopened.Protocol.restored;
              for i = 0 to n - 1 do
                ignore
                  (unwrap (Client.ingest ~seq:(i + 1) c3 ~session:"s" t qs.(i)))
              done;
              Alcotest.(check string) "history survives the restart"
                expect_history
                (unwrap (Client.history c3 ~session:"s")))))

let suite =
  [
    Alcotest.test_case "snapshot/restore at every boundary" `Quick
      test_snapshot_restore_boundaries;
    Alcotest.test_case "restore rejects corruption" `Quick
      test_restore_rejects_corruption;
    Alcotest.test_case "v1 snapshots continue" `Quick
      test_v1_snapshots_continue;
    Alcotest.test_case "v1 data dir continues" `Quick
      test_v1_data_dir_continues;
    Alcotest.test_case "retry jitter bounds" `Quick test_retry_jitter_bounds;
    Alcotest.test_case "seq idempotency" `Quick test_seq_idempotency;
    Alcotest.test_case "crash recovery at every boundary" `Quick
      test_crash_recovery_every_boundary;
    Alcotest.test_case "out-of-range budget never logged" `Quick
      test_bad_budget_not_logged;
    Alcotest.test_case "evict/re-attach identity" `Quick
      test_evict_reattach_identity;
    Alcotest.test_case "SIGTERM drain, jobs 1" `Quick (test_sigterm_drain 1);
    Alcotest.test_case "SIGTERM drain, jobs 4" `Quick (test_sigterm_drain 4);
  ]
