(* The layout server: wire protocol, concurrency, backpressure and the
   session determinism contract.

   The acceptance test here is [concurrent sessions deterministic]: K
   concurrent clients replaying interleaved query streams into their own
   sessions must each end with a decision history byte-identical to a
   sequential in-process [Vp_online.Replay] of the same stream — for
   server --jobs 1 and 4, with tracing off and on. The fuzz test feeds
   the daemon truncated, malformed and oversized frames plus mid-request
   disconnects and requires clean [error] replies on a still-live
   connection, never a dropped daemon or a leaked session. *)

open Vp_core
module Json = Vp_observe.Json
module Protocol = Vp_server.Protocol
module Client = Vp_client.Client
module Router = Vp_router.Router

(* Daemons bind port 0 and report the bound port — see the port
   discipline note in [Testutil]. *)
let with_daemon = Testutil.with_daemon

let with_client = Testutil.with_client

let unwrap = Testutil.unwrap

let contains = Testutil.contains

let small_workload =
  lazy
    (Vp_benchmarks.Synthetic.workload ~seed:3L ~rows:100_000 ~attributes:8
       ~clusters:3 ~queries:12 ~scatter:0.1 ())

(* --- basics --- *)

let test_ping_stats () =
  with_daemon (fun port ->
      with_client port (fun c ->
          Alcotest.(check int)
            "protocol version" Protocol.protocol_version
            (unwrap (Client.ping c));
          let stats = unwrap (Client.server_stats c) in
          Alcotest.(check string) "ok" "ok" (Protocol.reply_status stats);
          Alcotest.(check (option int))
            "no sessions" (Some 0)
            (Protocol.int_field "sessions" stats)))

let test_partition_matches_local () =
  let w = Lazy.force small_workload in
  let disk = Vp_cost.Disk.default in
  let oracle = Vp_cost.Io_model.oracle disk w in
  let local =
    Partitioner.exec Vp_algorithms.Hillclimb.algorithm
      (Partitioner.Request.make ~cost:oracle w)
  in
  with_daemon (fun port ->
      with_client port (fun c ->
          let reply =
            unwrap (Client.partition ~algorithm:"HillClimb" ~buffer_mb:8.0 c w)
          in
          (match Protocol.float_field "cost" reply with
          | Some cost ->
              Alcotest.(check (float 1e-6))
                "cost matches local exec" local.Partitioner.Response.cost cost
          | None -> Alcotest.fail "reply has no cost");
          let expected_layout =
            Json.to_string
              (Protocol.layout_to_json (Workload.table w)
                 local.Partitioner.Response.partitioning)
          in
          (match Json.member "layout" reply with
          | Some l ->
              Alcotest.(check string)
                "layout matches local exec" expected_layout (Json.to_string l)
          | None -> Alcotest.fail "reply has no layout");
          Alcotest.(check (option string))
            "status complete" (Some "complete")
            (Protocol.string_field "run_status" reply)))

let test_budget_degrades () =
  let w = Lazy.force small_workload in
  with_daemon (fun port ->
      with_client port (fun c ->
          let reply =
            unwrap
              (Client.partition ~algorithm:"BruteForce" ~budget_steps:5 c w)
          in
          Alcotest.(check (option string))
            "tiny budget times out" (Some "timed_out")
            (Protocol.string_field "run_status" reply);
          match Json.member "layout" reply with
          | Some (Json.List (_ :: _)) -> ()
          | _ -> Alcotest.fail "degraded reply still carries a valid layout"))

let test_open_validation () =
  let w = Lazy.force small_workload in
  let table = Workload.table w in
  with_daemon (fun port ->
      with_client port (fun c ->
          (match
             Client.open_session ~panel:[ "NoSuchAlgo" ] c ~session:"bad" table
           with
          | Error msg ->
              Alcotest.(check bool)
                "unknown panel is a clean error" true
                (contains msg "unknown panel algorithm")
          | Ok _ -> Alcotest.fail "unknown panel algorithm accepted");
          let stats = unwrap (Client.server_stats c) in
          Alcotest.(check (option int))
            "failed open leaks no session" (Some 0)
            (Protocol.int_field "sessions" stats);
          Alcotest.(check bool)
            "fresh open creates" true
            (unwrap (Client.open_session c ~session:"s" table)).Client.created;
          let reopened = unwrap (Client.open_session c ~session:"s" table) in
          Alcotest.(check bool) "re-open reattaches" false reopened.Client.created;
          Alcotest.(check bool)
            "re-open of a live session is not a restore" false
            reopened.Client.restored;
          let other =
            Table.make ~name:"other"
              ~attributes:[ Attribute.make "x" Attribute.Int32 ]
              ~row_count:10
          in
          (match Client.open_session c ~session:"s" other with
          | Error _ -> ()
          | Ok _ -> Alcotest.fail "session reopened with a different table");
          let _hist = unwrap (Client.close_session c ~session:"s") in
          let stats = unwrap (Client.server_stats c) in
          Alcotest.(check (option int))
            "close removes the session" (Some 0)
            (Protocol.int_field "sessions" stats)))

(* --- the determinism contract --- *)

let streams =
  lazy
    (List.init 4 (fun i ->
         Vp_benchmarks.Synthetic.drift_workload
           ~seed:(Int64.of_int (101 + i))
           ~attributes:8 ~clusters:3 ~rows:50_000 ~queries:80 ~scatter:0.05
           ~drift_at:0.5 ()))

let session_disk =
  Vp_cost.Disk.with_buffer_size Vp_cost.Disk.default (Vp_cost.Disk.mb 1.0)

let expected_histories =
  lazy
    (List.map
       (fun w ->
         let config =
           Vp_online.Service.default_config ~jobs:1 ~disk:session_disk
             ~panel:[ Vp_algorithms.Hillclimb.algorithm ]
             ()
         in
         (Vp_online.Replay.run ~config w).Vp_online.Replay.history)
       (Lazy.force streams))

let replay_over_wire ~server_jobs () =
  with_daemon ~jobs:server_jobs (fun port ->
      let worker i w () =
        with_client port (fun c ->
            let session = Printf.sprintf "s%d" i in
            let table = Workload.table w in
            let opened =
              unwrap (Client.open_session ~buffer_mb:1.0 c ~session table)
            in
            if not opened.Client.created then
              Alcotest.failf "session %s existed" session;
            Array.iter
              (fun q -> ignore (unwrap (Client.ingest c ~session table q)))
              (Workload.queries w);
            let hist = unwrap (Client.history c ~session) in
            let final = unwrap (Client.close_session c ~session) in
            Alcotest.(check string)
              "history and close agree" hist final;
            hist)
      in
      List.map Domain.join
        (List.mapi
           (fun i w -> Domain.spawn (worker i w))
           (Lazy.force streams)))

let check_wire_matches ~server_jobs () =
  let wire = replay_over_wire ~server_jobs () in
  List.iteri
    (fun i (expected, got) ->
      Alcotest.(check string)
        (Printf.sprintf "stream %d, --jobs %d: wire history = local replay" i
           server_jobs)
        expected got;
      Alcotest.(check bool)
        (Printf.sprintf "stream %d produced decisions" i)
        true
        (String.length got > 0))
    (List.combine (Lazy.force expected_histories) wire)

let test_concurrent_determinism () =
  check_wire_matches ~server_jobs:1 ();
  check_wire_matches ~server_jobs:4 ()

let test_concurrent_determinism_traced () =
  Vp_observe.Switch.with_level Vp_observe.Switch.Trace (fun () ->
      check_wire_matches ~server_jobs:4 ())

(* --- hostile input --- *)

let connect_raw = Testutil.connect_raw

let send_raw = Testutil.send_raw

let read_reply = Testutil.read_reply

let expect_error = Testutil.expect_error

let test_protocol_robustness () =
  with_daemon (fun port ->
      let fd = connect_raw port in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          expect_error fd "empty frame" "\n";
          expect_error fd "truncated JSON" "{\"op\": \"pi\n";
          expect_error fd "non-JSON garbage" "!!! not json at all\n";
          expect_error fd "non-object frame" "[1, 2, 3]\n";
          expect_error fd "unknown op" "{\"op\": \"make-coffee\"}\n";
          expect_error fd "missing op" "{\"session\": \"x\"}\n";
          expect_error fd "hostile nesting" (String.make 200 '[' ^ "\n");
          (* An oversized frame: the reply arrives while we are still
             allowed to finish the line; the connection must survive. *)
          send_raw fd (String.make (Protocol.max_frame_bytes + 4096) 'a');
          let reply = read_reply fd in
          Alcotest.(check string)
            "oversized frame answered with a clean error" "error"
            (Protocol.reply_status reply);
          send_raw fd "\n";
          (* The same connection still serves valid requests. *)
          send_raw fd (Json.to_string Protocol.ping ^ "\n");
          Alcotest.(check string)
            "connection survives the abuse" "ok"
            (Protocol.reply_status (read_reply fd)));
      (* Mid-request disconnect: half a frame, then close. *)
      let fd2 = connect_raw port in
      send_raw fd2 "{\"op\": \"part";
      Unix.close fd2;
      (* The daemon neither died nor corrupted other connections. *)
      with_client port (fun c ->
          Alcotest.(check int)
            "daemon alive after disconnects" Protocol.protocol_version
            (unwrap (Client.ping c));
          let stats = unwrap (Client.server_stats c) in
          Alcotest.(check (option int))
            "no leaked sessions" (Some 0)
            (Protocol.int_field "sessions" stats)))

(* A weight of [1e999] parses as infinity. The daemon must refuse the
   query by name rather than price layouts at an infinite cost. *)
let test_non_finite_weight () =
  let table =
    Table.make ~name:"t" ~row_count:1_000
      ~attributes:
        [ Attribute.make "a" Attribute.Int32; Attribute.make "b" Attribute.Int32 ]
  in
  let w =
    Workload.make table
      [
        Query.make ~weight:0.625 ~name:"hot"
          ~references:(Attr_set.of_list [ 0; 1 ])
          ();
      ]
  in
  let frame =
    Json.to_string (Protocol.partition_request ~algorithm:"HillClimb" w)
  in
  let at =
    let n = String.length frame in
    let rec find i =
      if i + 5 > n then Alcotest.fail "weight not found in the frame"
      else if String.sub frame i 5 = "0.625" then i
      else find (i + 1)
    in
    find 0
  in
  let frame =
    String.sub frame 0 at ^ "1e999"
    ^ String.sub frame (at + 5) (String.length frame - at - 5)
  in
  with_daemon (fun port ->
      let fd = connect_raw port in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          send_raw fd (frame ^ "\n");
          let reply = read_reply fd in
          Alcotest.(check string)
            "infinite weight refused" "error"
            (Protocol.reply_status reply);
          match Protocol.reply_error reply with
          | Some msg ->
              Alcotest.(check bool)
                (Printf.sprintf "error names the query: %s" msg)
                true
                (contains msg "\"hot\"" && contains msg "non-finite weight")
          | None -> Alcotest.fail "error reply without a message"))

(* Both servers run on the same connection core; the admission and
   drain tests run against each. [with_server ~jobs ~max_pending f]
   calls [f port join] with the accept loop live; [join ()] waits for
   [serve] to return. *)
let servers =
  let run ~port ~serve ~stop f =
    let server = Domain.spawn serve in
    let joined = lazy (Domain.join server) in
    Fun.protect
      ~finally:(fun () ->
        stop ();
        Lazy.force joined)
      (fun () -> f port (fun () -> Lazy.force joined))
  in
  [
    ( "daemon",
      fun ~jobs ~max_pending f ->
        let d = Vp_server.Daemon.create ~port:0 ~jobs ~max_pending () in
        run ~port:(Vp_server.Daemon.port d)
          ~serve:(fun () -> Vp_server.Daemon.serve d)
          ~stop:(fun () -> Vp_server.Daemon.stop d)
          f );
    ( "router",
      fun ~jobs ~max_pending f ->
        Testutil.with_temp_dir "conn-router" (fun dir ->
            let r =
              Router.create ~port:0 ~jobs ~max_pending ~shards:1 ~shard_jobs:2
                ~data_dir:dir ()
            in
            run ~port:(Router.port r)
              ~serve:(fun () -> Router.serve r)
              ~stop:(fun () -> Router.stop r)
              f) );
  ]

let test_overload_shed () =
  List.iter
    (fun (name, with_server) ->
      with_server ~jobs:1 ~max_pending:1 (fun port _join ->
          (* One connection parks in a sleep, occupying the single slot. *)
          let sleeper =
            Domain.spawn (fun () ->
                with_client port (fun c ->
                    Client.request c (Protocol.sleep ~ms:400)))
          in
          Unix.sleepf 0.1;
          with_client port (fun c ->
              (match Client.request c Protocol.ping with
              | Ok reply ->
                  Alcotest.(check string)
                    (name ^ ": second client is shed")
                    "overloaded"
                    (Protocol.reply_status reply);
                  (match Protocol.retry_after_ms reply with
                  | Some ms ->
                      Alcotest.(check bool)
                        (name ^ ": retry hint")
                        true (ms > 0)
                  | None ->
                      Alcotest.failf
                        "%s: overloaded reply without retry_after_ms" name)
              | Error msg -> Alcotest.failf "%s: shed reply lost: %s" name msg);
              (* Retrying with backoff eventually gets through — the
                 overloaded path degrades, it does not hang. *)
              match Client.request_retry ~attempts:50 c Protocol.ping with
              | Ok reply ->
                  Alcotest.(check string)
                    (name ^ ": retry succeeds once drained")
                    "ok"
                    (Protocol.reply_status reply)
              | Error msg ->
                  Alcotest.failf "%s: retry never got through: %s" name msg);
          match Domain.join sleeper with
          | Ok reply ->
              Alcotest.(check string)
                (name ^ ": sleeper completed")
                "ok"
                (Protocol.reply_status reply)
          | Error msg -> Alcotest.failf "%s: sleeper failed: %s" name msg))
    servers

(* The pids a router reports for its shards; none for a daemon. *)
let child_pids c =
  match Client.request c (Json.Obj [ ("op", Json.String "cluster_info") ]) with
  | Ok reply -> (
      match Json.member "shards" reply with
      | Some (Json.List shards) ->
          List.filter_map (fun s -> Protocol.int_field "pid" s) shards
      | _ -> [])
  | Error msg -> Alcotest.failf "cluster_info: %s" msg

let test_shutdown_op () =
  let table = Workload.table (Lazy.force small_workload) in
  List.iter
    (fun (name, with_server) ->
      with_server ~jobs:2 ~max_pending:64 (fun port join ->
          with_client port (fun idle ->
              let pids = child_pids idle in
              with_client port (fun c ->
                  ignore (unwrap (Client.open_session c ~session:"s" table));
                  unwrap (Client.shutdown_server c));
              (* serve returns on its own, with [idle] still connected:
                 the drain half-closed it. *)
              join ();
              Alcotest.(check bool)
                (name ^ ": drained connection is closed")
                true
                (Result.is_error (Client.ping idle));
              List.iter
                (fun pid ->
                  match Unix.kill pid 0 with
                  | () -> Alcotest.failf "%s: shard %d still running" name pid
                  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> ())
                pids)))
    servers

(* A reply past [Protocol.max_reply_bytes] fails with the named error
   once the bound is reached, instead of buffering until the peer
   closes. *)
let test_reply_bound () =
  let lfd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close lfd)
    (fun () ->
      Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      Unix.listen lfd 1;
      let port =
        match Unix.getsockname lfd with
        | Unix.ADDR_INET (_, p) -> p
        | Unix.ADDR_UNIX _ -> assert false
      in
      let server =
        Domain.spawn (fun () ->
            let fd, _ = Unix.accept ~cloexec:true lfd in
            Fun.protect
              ~finally:(fun () -> Unix.close fd)
              (fun () ->
                (* Consume the request, so the close is a clean FIN. *)
                ignore (Testutil.read_reply fd);
                Testutil.send_raw fd
                  (String.make (Protocol.max_reply_bytes + 1) 'a')))
      in
      let result = with_client port (fun c -> Client.request c Protocol.ping) in
      Domain.join server;
      match result with
      | Error msg ->
          Alcotest.(check string) "named reply-bound error"
            Protocol.reply_too_long msg
      | Ok _ -> Alcotest.fail "unterminated oversized reply accepted")

(* --- vp client --script --- *)

let test_script_replay () =
  let script =
    "-- a tiny replayable workload\n\
     CREATE TABLE widgets (A INT, B INT, C DECIMAL, D VARCHAR(20)) ROWS \
     100000;\n\
     SELECT A, B FROM widgets;\n\
     SELECT C, D FROM widgets WEIGHT 2.0;\n\
     SELECT * FROM widgets;\n"
  in
  let path = Filename.temp_file "vp_script" ".sql" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out path in
      output_string oc script;
      close_out oc;
      with_daemon (fun port ->
          with_client port (fun c ->
              match Client.replay_script c path with
              | Error msg -> Alcotest.failf "replay failed: %s" msg
              | Ok [ (table, _hist) ] ->
                  Alcotest.(check string) "one session per table" "widgets"
                    table;
                  let stats = unwrap (Client.server_stats c) in
                  Alcotest.(check (option int))
                    "script sessions closed" (Some 0)
                    (Protocol.int_field "sessions" stats)
              | Ok entries ->
                  Alcotest.failf "expected 1 table, got %d"
                    (List.length entries))))

let test_script_parse_error () =
  let path = Filename.temp_file "vp_script" ".sql" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out path in
      output_string oc "CREATE TABLE t (A INT) ROWS 10;\nSELECT B FROM t;\n";
      close_out oc;
      (* No daemon needed: the script is rejected before any I/O. *)
      let c = Client.create ~port:1 () in
      match Client.replay_script c path with
      | Ok _ -> Alcotest.fail "bad script accepted"
      | Error msg ->
          Alcotest.(check bool)
            (Printf.sprintf "error is line-numbered: %s" msg)
            true (contains msg "line 2"))

let suite =
  [
    Alcotest.test_case "ping and stats" `Quick test_ping_stats;
    Alcotest.test_case "partition matches local exec" `Quick
      test_partition_matches_local;
    Alcotest.test_case "budget degrades to timed_out" `Quick
      test_budget_degrades;
    Alcotest.test_case "open validation and reattach" `Quick
      test_open_validation;
    Alcotest.test_case "concurrent sessions deterministic" `Quick
      test_concurrent_determinism;
    Alcotest.test_case "concurrent sessions deterministic (traced)" `Quick
      test_concurrent_determinism_traced;
    Alcotest.test_case "protocol robustness (fuzz)" `Quick
      test_protocol_robustness;
    Alcotest.test_case "non-finite weight rejected" `Quick
      test_non_finite_weight;
    Alcotest.test_case "overload sheds with retry-after" `Quick
      test_overload_shed;
    Alcotest.test_case "wire shutdown drains" `Quick test_shutdown_op;
    Alcotest.test_case "reply bound" `Quick test_reply_bound;
    Alcotest.test_case "client --script replay" `Quick test_script_replay;
    Alcotest.test_case "client --script parse errors" `Quick
      test_script_parse_error;
  ]
