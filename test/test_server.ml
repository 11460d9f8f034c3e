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
          Alcotest.(check int) "no sessions" 0
            (unwrap (Client.server_stats c)).sessions))

let test_partition_matches_local () =
  let w = Lazy.force small_workload in
  let disk = Vp_cost.Disk.default in
  let oracle = Vp_cost.Io_model.oracle disk w in
  let local =
    Partitioner.exec Vp_algorithms.Hillclimb.algorithm
      (Testutil.request ~cost:oracle w)
  in
  with_daemon (fun port ->
      with_client port (fun c ->
          let reply =
            unwrap (Client.partition ~algorithm:"HillClimb" ~buffer_mb:8.0 c w)
          in
          Alcotest.(check (float 1e-6))
            "cost matches local exec" local.Partitioner.Response.cost reply.cost;
          Alcotest.(check (list (list string)))
            "layout matches local exec"
            (Protocol.layout_names (Workload.table w)
               local.Partitioner.Response.partitioning)
            reply.layout;
          Alcotest.(check string) "status complete" "complete" reply.run_status))

let test_budget_degrades () =
  let w = Lazy.force small_workload in
  with_daemon (fun port ->
      with_client port (fun c ->
          let reply =
            unwrap
              (Client.partition ~algorithm:"BruteForce" ~budget_steps:5 c w)
          in
          Alcotest.(check string) "tiny budget times out" "timed_out" reply.run_status;
          Alcotest.(check bool)
            "degraded reply still carries a valid layout" true
            (reply.layout <> [])))

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
          Alcotest.(check int)
            "failed open leaks no session" 0
            (unwrap (Client.server_stats c)).sessions;
          Alcotest.(check bool)
            "fresh open creates" true
            (unwrap (Client.open_session c ~session:"s" table)).Protocol.created;
          let reopened = unwrap (Client.open_session c ~session:"s" table) in
          Alcotest.(check bool) "re-open reattaches" false reopened.Protocol.created;
          Alcotest.(check bool)
            "re-open of a live session is not a restore" false
            reopened.Protocol.restored;
          let other =
            Table.make ~name:"other"
              ~attributes:[ Attribute.make "x" Attribute.Int32 ]
              ~row_count:10
          in
          (match Client.open_session c ~session:"s" other with
          | Error _ -> ()
          | Ok _ -> Alcotest.fail "session reopened with a different table");
          let _hist = unwrap (Client.close_session c ~session:"s") in
          Alcotest.(check int)
            "close removes the session" 0
            (unwrap (Client.server_stats c)).sessions))

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
            if not opened.Protocol.created then
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
          Alcotest.check Testutil.status
            "oversized frame answered with a clean error"
            (Error_reply (Printf.sprintf "frame exceeds the %d-byte limit" Protocol.max_frame_bytes))
            (Testutil.status_of (read_reply fd));
          send_raw fd "\n";
          (* The same connection still serves valid requests. *)
          send_raw fd (Json.to_string Protocol.ping ^ "\n");
          Alcotest.check Testutil.status
            "connection survives the abuse" Ok_reply
            (Testutil.status_of (read_reply fd)));
      (* Mid-request disconnect: half a frame, then close. *)
      let fd2 = connect_raw port in
      send_raw fd2 "{\"op\": \"part";
      Unix.close fd2;
      (* The daemon neither died nor corrupted other connections. *)
      with_client port (fun c ->
          Alcotest.(check int)
            "daemon alive after disconnects" Protocol.protocol_version
            (unwrap (Client.ping c));
          Alcotest.(check int)
            "no leaked sessions" 0
            (unwrap (Client.server_stats c)).sessions))

(* --- decode errors, one malformed frame per row ---

   Each frame carries exactly one defect; the reply text is pinned. A
   defect in a field of the frame itself reads as it always has; one
   inside the table, a query or the panel names its path. *)

let frame_table =
  {|"table":{"name":"t","rows":10,"attributes":[{"name":"a","type":"int32"},{"name":"b","type":"char","width":4}]}|}

let partition_frame ?(queries = {|[{"attributes":["a"]}]|}) extra =
  Printf.sprintf {|{"op":"partition",%s,"queries":%s%s}|} frame_table queries
    extra

let with_table table =
  Printf.sprintf {|{"op":"partition","table":%s,"queries":[{"attributes":["a"]}]}|}
    table

let malformed_frames =
  [
    ({|[1]|}, "request frame must be a JSON object");
    ({|{}|}, {|missing or non-string field "op"|});
    ({|{"op":5}|}, {|missing or non-string field "op"|});
    ({|{"op":"make-coffee"}|}, {|unknown op "make-coffee"|});
    ({|{"op":"layout"}|}, {|missing or non-string field "session"|});
    ({|{"op":"history","session":3}|}, {|missing or non-string field "session"|});
    ({|{"op":"sleep"}|}, {|missing or non-integer field "ms"|});
    ({|{"op":"sleep","ms":"5"}|}, {|missing or non-integer field "ms"|});
    ({|{"op":"sleep","ms":60001}|}, {|"ms" must be in 0 .. 60000|});
    ({|{"op":"sleep","ms":-1}|}, {|"ms" must be in 0 .. 60000|});
    ( {|{"op":"partition","queries":[{"attributes":["a"]}]}|},
      {|missing field "table"|} );
    (with_table "5", {|field "table" must be an object|});
    ( Printf.sprintf {|{"op":"partition",%s}|} frame_table,
      {|missing field "queries"|} );
    (partition_frame ~queries:"[]" "", "a partition request needs at least one query");
    (partition_frame {|,"buffer_mb":"x"|}, {|field "buffer_mb" must be a number|});
    (partition_frame {|,"deadline_ms":1.5|}, {|field "deadline_ms" must be an integer|});
    (partition_frame {|,"budget_steps":"3"|}, {|field "budget_steps" must be an integer|});
    (* nested: the table *)
    ( with_table {|{"rows":10,"attributes":[{"name":"a","type":"int32"}]}|},
      {|missing or non-string field "table.name"|} );
    ( with_table {|{"name":"t","rows":"x","attributes":[{"name":"a","type":"int32"}]}|},
      {|missing or non-integer field "table.rows"|} );
    ( with_table {|{"name":"t","rows":10}|},
      {|missing field "table.attributes"|} );
    ( with_table {|{"name":"t","rows":10,"attributes":[5]}|},
      {|field "table.attributes[0]" must be an object|} );
    ( with_table {|{"name":"t","rows":10,"attributes":[{"name":"a","type":"blob"}]}|},
      {|unknown attribute type "blob"|} );
    ( with_table {|{"name":"t","rows":10,"attributes":[{"name":"a","type":"char"}]}|},
      {|missing or non-integer field "table.attributes[0].width"|} );
    ( with_table
        {|{"name":"t","rows":10,"attributes":[{"name":"a","type":"int32"},{"name":"a","type":"int32"}]}|},
      {|invalid table: Table.make: duplicate attribute "a"|} );
    (* nested: the queries *)
    (partition_frame ~queries:"[5]" "", {|field "queries[0]" must be an object|});
    ( partition_frame ~queries:{|[{"attributes":[1]}]|} "",
      {|field "queries[0].attributes[0]" must be a string|} );
    ( partition_frame ~queries:{|[{"attributes":["a"],"weight":"x"}]|} "",
      {|field "queries[0].weight" must be a number|} );
    ( partition_frame ~queries:{|[{"attributes":["zz"]}]|} "",
      {|query "Q1" references an attribute the table does not have|} );
    ( partition_frame ~queries:{|[{"attributes":["a"],"weight":-1}]|} "",
      {|invalid query "Q1": Query.make: Q1 has non-positive weight|} );
    (* ingest *)
    ({|{"op":"ingest","session":"s"}|}, {|missing field "query"|});
    ({|{"op":"ingest","session":"s","query":5}|}, {|field "query" must be an object|});
    ( {|{"op":"ingest","query":{"attributes":["a"]}}|},
      {|missing or non-string field "session"|} );
    ( {|{"op":"ingest","session":"s","query":{"attributes":["a"]},"seq":0}|},
      {|"seq" must be >= 1|} );
    ( {|{"op":"ingest","session":"s","query":{"attributes":["a"]},"seq":"1"}|},
      {|field "seq" must be an integer|} );
    ( {|{"op":"ingest","session":"s","query":{"weight":2}}|},
      {|missing field "query.attributes"|} );
    (* open *)
    ({|{"op":"open","session":"s"}|}, {|missing field "table"|});
    ( Printf.sprintf {|{"op":"open",%s}|} frame_table,
      {|missing or non-string field "session"|} );
    ( Printf.sprintf {|{"op":"open","session":"s",%s,"min_window":"8"}|} frame_table,
      {|field "min_window" must be an integer|} );
    ( Printf.sprintf {|{"op":"open","session":"s",%s,"drift_ratio":true}|} frame_table,
      {|field "drift_ratio" must be a number|} );
    ( Printf.sprintf {|{"op":"open","session":"s",%s,"panel":[1]}|} frame_table,
      {|field "panel[0]" must be a string|} );
  ]

let test_malformed_frame_table () =
  List.iter
    (fun (frame, expected) ->
      match Json.of_string frame with
      | Error msg -> Alcotest.failf "row does not parse (%s): %s" msg frame
      | Ok doc -> (
          match Protocol.request_of_json doc with
          | Ok _ -> Alcotest.failf "accepted: %s" frame
          | Error msg -> Alcotest.(check string) frame expected msg))
    malformed_frames

(* Budgets outside [Budget.create]'s bounds get a named error reply,
   and the session takes nothing from them. *)
let test_out_of_range_budgets () =
  let w = Lazy.force small_workload in
  let table = Workload.table w in
  let q = (Workload.queries w).(0) in
  with_daemon (fun port ->
      with_client port (fun c ->
          ignore (unwrap (Client.open_session c ~session:"s" table));
          let refused label frame expected =
            match Client.request c frame with
            | Error msg -> Alcotest.failf "%s: %s" label msg
            | Ok reply ->
                Alcotest.check Testutil.status label (Error_reply expected)
                  (Testutil.status_of reply)
          in
          refused "ingest deadline_ms 0"
            (Protocol.ingest_request ~deadline_ms:0 ~seq:1 ~session:"s" table q)
            {|"deadline_ms" must be >= 1|};
          refused "ingest budget_steps -1"
            (Protocol.ingest_request ~budget_steps:(-1) ~seq:1 ~session:"s" table q)
            {|"budget_steps" must be >= 0|};
          refused "open budget_steps -1"
            (Protocol.open_request ~budget_steps:(-1) ~session:"t" table)
            {|"budget_steps" must be >= 0|};
          refused "partition deadline_ms -5"
            (Protocol.partition_request ~deadline_ms:(-5) w)
            {|"deadline_ms" must be >= 1|};
          Alcotest.(check int) "nothing ingested" 0
            (unwrap (Client.layout c ~session:"s")).ingested;
          Alcotest.(check int) "no session opened" 1
            (unwrap (Client.server_stats c)).sessions;
          ignore (unwrap (Client.ingest ~seq:1 c ~session:"s" table q));
          Alcotest.(check int) "then seq 1 applies" 1
            (unwrap (Client.layout c ~session:"s")).ingested))

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
          match Testutil.status_of (read_reply fd) with
          | Error_reply msg ->
              Alcotest.(check bool)
                (Printf.sprintf "error names the query: %s" msg)
                true
                (contains msg "\"hot\"" && contains msg "non-finite weight")
          | _ -> Alcotest.fail "infinite weight not refused"))

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
              | Ok reply -> (
                  match Testutil.status_of reply with
                  | Overloaded ms ->
                      Alcotest.(check bool) (name ^ ": retry hint") true (ms > 0)
                  | _ -> Alcotest.failf "%s: second client is not shed" name)
              | Error msg -> Alcotest.failf "%s: shed reply lost: %s" name msg);
              (* Retrying with backoff eventually gets through — the
                 overloaded path degrades, it does not hang. *)
              match Client.request_retry ~attempts:50 c Protocol.ping with
              | Ok reply ->
                  Alcotest.check Testutil.status
                    (name ^ ": retry succeeds once drained")
                    Ok_reply (Testutil.status_of reply)
              | Error msg ->
                  Alcotest.failf "%s: retry never got through: %s" name msg);
          match Domain.join sleeper with
          | Ok reply ->
              Alcotest.check Testutil.status
                (name ^ ": sleeper completed")
                Ok_reply (Testutil.status_of reply)
          | Error msg -> Alcotest.failf "%s: sleeper failed: %s" name msg))
    servers

(* The pids a router reports for its shards; none for a daemon. *)
let child_pids c =
  match Client.request c (Json.Obj [ ("op", Json.String "cluster_info") ]) with
  | Ok reply -> (
      match Json.Codec.decode Protocol.cluster_info reply with
      | info -> List.map (fun (s : Protocol.shard_info) -> s.pid) info.fleet
      | exception Json.Codec.Error _ -> [])
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
                  Alcotest.(check int)
                    "script sessions closed" 0
                    (unwrap (Client.server_stats c)).sessions
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

(* The same rows over the wire, to a daemon and through a router: the
   router answers some itself and forwards the rest to its shard, and
   either way the text is the daemon's. *)
let test_malformed_frames_over_the_wire () =
  List.iter
    (fun (name, with_server) ->
      with_server ~jobs:2 ~max_pending:8 (fun port _join ->
          let fd = connect_raw port in
          Fun.protect
            ~finally:(fun () -> Unix.close fd)
            (fun () ->
              List.iter
                (fun (frame, expected) ->
                  send_raw fd (frame ^ "\n");
                  Alcotest.check Testutil.status (name ^ ": " ^ frame)
                    (Error_reply expected)
                    (Testutil.status_of (read_reply fd)))
                malformed_frames)))
    servers

(* --- connection domains on demand --- *)

let connection_domains () =
  List.assoc "server.connection_domains"
    (Vp_observe.Stats.snapshot ()).gauges

(* A raw connection whose reads give up after 5 s, so a connection that
   is never served fails the test instead of hanging it. *)
let connect_timed port =
  let fd = connect_raw port in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
  fd

let ping_raw fd = send_raw fd "{\"op\":\"ping\"}\n"

let expect_pong what fd =
  Alcotest.check Testutil.status what Ok_reply
    (Testutil.status_of (read_reply fd))

let expect_silent what fd =
  match Unix.select [ fd ] [] [] 0.3 with
  | [], _, _ -> ()
  | _ -> Alcotest.failf "%s: answered while every domain was busy" what

let test_connection_domains () =
  let all_joined () =
    Alcotest.(check int) "drain joins every domain" 0 (connection_domains ())
  in
  with_daemon ~jobs:4 (fun port ->
      Alcotest.(check int) "none before a connection" 0 (connection_domains ());
      with_client port (fun c -> ignore (unwrap (Client.ping c)));
      Alcotest.(check int) "one after a ping" 1 (connection_domains ());
      (* Back to back: each accept must take a domain of its own, so the
         last one is served while the first three stay open. *)
      let held = List.init 4 (fun _ -> connect_timed port) in
      List.iteri
        (fun i fd ->
          ping_raw fd;
          expect_pong (Printf.sprintf "held connection %d" (4 - i)) fd)
        (List.rev held);
      Alcotest.(check int) "one per held connection" 4 (connection_domains ());
      let fifth = connect_timed port in
      ping_raw fifth;
      expect_silent "fifth connection" fifth;
      Unix.close (List.hd held);
      expect_pong "fifth connection once one closed" fifth;
      Alcotest.(check int) "still capped at jobs" 4 (connection_domains ());
      List.iter Unix.close (fifth :: List.tl held);
      (* Domains park when their connection ends and exit only on drain,
         so the next burst reuses them. *)
      let again = List.init 4 (fun _ -> connect_timed port) in
      List.iteri
        (fun i fd ->
          ping_raw fd;
          expect_pong (Printf.sprintf "second burst, connection %d" (4 - i)) fd)
        (List.rev again);
      List.iter Unix.close again;
      Alcotest.(check int) "parked, not exited" 4 (connection_domains ()));
  all_joined ();
  with_daemon ~jobs:1 (fun port ->
      let first = connect_timed port and second = connect_timed port in
      ping_raw first;
      expect_pong "first connection" first;
      ping_raw second;
      expect_silent "second connection" second;
      Unix.close first;
      expect_pong "second connection once the first closed" second;
      Unix.close second);
  all_joined ()

(* Short connections arriving two at a time never make a server spawn
   more than [jobs] domains over its life: every domain that touches a
   metric keeps its own [Stats] cells for the rest of the process, so
   domain churn would grow the registry without bound. *)
let test_connection_domains_bounded () =
  let module Conn = Vp_server.Conn_server in
  let conn =
    Conn.create ~port:0 ~jobs:4 ~max_pending:8
      ~shed:(Vp_observe.Stats.counter "test.shed") ()
  in
  let reply _ = string_of_int (Domain.self () :> int) in
  let server =
    Domain.spawn (fun () ->
        Conn.serve conn
          ~connection:(fun () -> { Conn.reply; release = ignore })
          ~epilogue:ignore)
  in
  let ids = Hashtbl.create 8 in
  Fun.protect
    ~finally:(fun () ->
      Conn.stop conn;
      Domain.join server)
    (fun () ->
      for _ = 1 to 100 do
        let pair = List.init 2 (fun _ -> connect_timed (Conn.port conn)) in
        List.iter ping_raw pair;
        List.iter
          (fun fd -> Hashtbl.replace ids (Testutil.read_reply_line fd) ())
          pair;
        List.iter Unix.close pair
      done);
  let n = Hashtbl.length ids in
  if n < 2 || n > 4 then
    Alcotest.failf "200 connections served by %d domains, expected 2 to 4" n

(* Refused before the socket is bound — the port here is taken, so a
   check that came later would fail with [EADDRINUSE] instead — and
   before a domain or a shard is started. *)
let test_jobs_past_domain_limit () =
  let max_jobs = Vp_server.Conn_server.max_jobs in
  let taken = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close taken)
    (fun () ->
      Unix.bind taken (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      Unix.listen taken 1;
      let port =
        match Unix.getsockname taken with
        | Unix.ADDR_INET (_, p) -> p
        | Unix.ADDR_UNIX _ -> assert false
      in
      let refused what msg f =
        Alcotest.check_raises what (Invalid_argument msg) (fun () ->
            ignore (f ()))
      in
      refused "daemon jobs"
        (Printf.sprintf "Daemon.create: jobs must be <= %d" max_jobs)
        (fun () -> Vp_server.Daemon.create ~port ~jobs:(max_jobs + 1) ());
      Testutil.with_temp_dir "jobs-limit" (fun dir ->
          refused "router jobs, counting the supervisor"
            (Printf.sprintf "Router.create: jobs must be <= %d" (max_jobs - 1))
            (fun () -> Router.create ~port ~jobs:max_jobs ~data_dir:dir ());
          refused "shard jobs"
            (Printf.sprintf "Router.create: shard_jobs must be <= %d" max_jobs)
            (fun () ->
              Router.create ~port ~shard_jobs:(max_jobs + 1) ~data_dir:dir ())))

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
    Alcotest.test_case "malformed frame errors (table)" `Quick
      test_malformed_frame_table;
    Alcotest.test_case "out-of-range budgets refused" `Quick
      test_out_of_range_budgets;
    Alcotest.test_case "non-finite weight rejected" `Quick
      test_non_finite_weight;
    Alcotest.test_case "overload sheds with retry-after" `Quick
      test_overload_shed;
    Alcotest.test_case "wire shutdown drains" `Quick test_shutdown_op;
    Alcotest.test_case "reply bound" `Quick test_reply_bound;
    Alcotest.test_case "client --script replay" `Quick test_script_replay;
    Alcotest.test_case "client --script parse errors" `Quick
      test_script_parse_error;
    Alcotest.test_case "malformed frame errors over the wire" `Quick
      test_malformed_frames_over_the_wire;
    Alcotest.test_case "connection domains on demand" `Quick
      test_connection_domains;
    Alcotest.test_case "jobs past the domain limit refused" `Quick
      test_jobs_past_domain_limit;
    Alcotest.test_case "connection domains bounded by jobs" `Quick
      test_connection_domains_bounded;
  ]
