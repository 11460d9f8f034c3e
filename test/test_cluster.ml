(* The sharded layout cluster: consistent-hash ring, router, cross-shard
   handoff and shard supervision.

   The acceptance tests here are differential:

   - [cluster matches single daemon]: concurrent drift streams replayed
     through a 3-shard cluster must end with decision histories
     byte-identical to the same streams through one plain daemon AND to
     a sequential in-process [Vp_online.Replay].
   - [handoff identity]: a session opened on shard A, its owner removed
     from the ring mid-stream (forcing a spill/move/adopt handoff), and
     the stream finished on shard B must still match the local replay.
   - [kill -9 recovery]: the owner shard killed outright mid-script;
     the supervisor restarts it, seq-idempotent retries resume the
     stream, and the history still matches.

   The ring properties the handoff protocol leans on (remove only
   remaps the victim's keys; add only moves keys onto the newcomer) are
   proved by qcheck, and the hash is pinned by golden values so
   placement is deterministic across processes — see [Vp_router.Ring].

   The fuzz test feeds the router the same hostile bytes the daemon
   fuzz test uses, plus the router-specific torture: a shard killed
   under it mid-conversation and clients vanishing mid-frame. The
   router must always answer frames with clean replies, never wedge,
   and never leak a session. *)

open Vp_core
module Json = Vp_observe.Json
module Protocol = Vp_server.Protocol
module Client = Vp_client.Client
module Ring = Vp_router.Ring
module Router = Vp_router.Router

let unwrap = Testutil.unwrap

let contains = Testutil.contains

let with_cluster ?(shards = 3) tag f =
  Testutil.with_temp_dir ("cluster-" ^ tag) (fun dir ->
      let r = Router.create ~port:0 ~shards ~shard_jobs:2 ~data_dir:dir () in
      let server = Domain.spawn (fun () -> Router.serve r) in
      Fun.protect
        ~finally:(fun () ->
          Router.stop r;
          Domain.join server)
        (fun () -> f r (Router.port r)))

(* --- the ring --- *)

(* The hash and a 3-shard placement, pinned: these exact values must
   hold in every process on every machine (FNV-1a + SplitMix64, no
   [Hashtbl.hash]), or cross-process routing silently breaks. *)
let test_ring_golden_pins () =
  List.iter
    (fun (key, expected) ->
      Alcotest.(check int64)
        (Printf.sprintf "hash64 %S" key)
        expected (Ring.hash64 key))
    [
      ("alpha", 0x774ce336ac9131e8L);
      ("bravo", 0xe92749922fffe0c2L);
      ("s0042", 0x8342a78ff8d92c77L);
      ("shard-0#0", 0xf921b31cc0d686a3L);
    ];
  let ring = Ring.make [ "shard-0"; "shard-1"; "shard-2" ] in
  List.iter
    (fun (key, owner) ->
      Alcotest.(check string)
        (Printf.sprintf "lookup %S" key)
        owner (Ring.lookup ring key))
    [
      ("alpha", "shard-1");
      ("bravo", "shard-2");
      ("charlie", "shard-2");
      ("delta", "shard-2");
      ("echo", "shard-1");
    ]

let test_ring_remap_bounded () =
  (* Adding a fourth shard to a 3-shard ring must move roughly a
     quarter of the keys and no more: over 1000 fixed keys the exact
     count is itself deterministic (pinned), and well under the bound a
     naive [hash mod n] scheme would blow through (~750). *)
  let ring3 = Ring.make [ "shard-0"; "shard-1"; "shard-2" ] in
  let ring4 = Ring.add ring3 "shard-3" in
  let keys = List.init 1000 (Printf.sprintf "s%04d") in
  let moved =
    List.length
      (List.filter (fun k -> Ring.lookup ring3 k <> Ring.lookup ring4 k) keys)
  in
  Alcotest.(check int) "exact remap count is deterministic" 290 moved;
  Alcotest.(check bool)
    (Printf.sprintf "remap fraction %.2f bounded" (float_of_int moved /. 1000.))
    true
    (moved > 0 && moved < 450);
  (* And every moved key landed on the newcomer. *)
  List.iter
    (fun k ->
      if Ring.lookup ring3 k <> Ring.lookup ring4 k then
        Alcotest.(check string)
          (Printf.sprintf "moved key %S went to the newcomer" k)
          "shard-3" (Ring.lookup ring4 k))
    keys

let gen_ids =
  QCheck2.Gen.(
    list_size (int_range 2 8)
      (map (fun n -> Printf.sprintf "n%d" (abs n mod 64)) int))

let gen_key = QCheck2.Gen.(map (fun n -> Printf.sprintf "k%d" n) int)

let prop_remove_only_remaps_victim =
  QCheck2.Test.make ~count:200
    ~name:"ring: removing a shard keeps every other key's owner"
    QCheck2.Gen.(pair gen_ids gen_key)
    (fun (ids, key) ->
      let ring = Ring.make ~replicas:16 ids in
      QCheck2.assume (Ring.size ring >= 2);
      let owner = Ring.lookup ring key in
      let victim =
        List.find (fun id -> id <> owner) (Ring.members ring)
      in
      String.equal owner (Ring.lookup (Ring.remove ring victim) key))

let prop_add_moves_only_to_newcomer =
  QCheck2.Test.make ~count:200
    ~name:"ring: adding a shard moves keys only onto it"
    QCheck2.Gen.(pair gen_ids gen_key)
    (fun (ids, key) ->
      let ring = Ring.make ~replicas:16 ids in
      let owner = Ring.lookup ring key in
      let after = Ring.lookup (Ring.add ring "zz-newcomer") key in
      String.equal after owner || String.equal after "zz-newcomer")

let prop_lookup_total_and_stable =
  QCheck2.Test.make ~count:200
    ~name:"ring: lookup is total, a member, and independent of id order"
    QCheck2.Gen.(pair gen_ids gen_key)
    (fun (ids, key) ->
      let ring = Ring.make ~replicas:16 ids in
      let owner = Ring.lookup ring key in
      List.mem owner (Ring.members ring)
      && String.equal owner (Ring.lookup (Ring.make ~replicas:16 (List.rev ids)) key))

(* --- the port discipline --- *)

let test_ephemeral_ports () =
  let p = Testutil.ephemeral_port () in
  Alcotest.(check bool)
    (Printf.sprintf "kernel-allocated port %d is non-privileged" p)
    true
    (p > 1024 && p < 65536);
  (* The allocated port is genuinely bindable by a server right after. *)
  let d = Vp_server.Daemon.create ~port:p ~jobs:1 () in
  let server = Domain.spawn (fun () -> Vp_server.Daemon.serve d) in
  Fun.protect
    ~finally:(fun () ->
      Vp_server.Daemon.stop d;
      Domain.join server)
    (fun () ->
      Alcotest.(check int) "daemon bound the allocated port" p
        (Vp_server.Daemon.port d);
      Testutil.with_client p (fun c ->
          Alcotest.(check int)
            "daemon answers on it" Protocol.protocol_version
            (unwrap (Client.ping c))))

(* --- routing basics --- *)

let small_table () =
  Workload.table
    (Vp_benchmarks.Synthetic.workload ~seed:3L ~rows:100_000 ~attributes:8
       ~clusters:3 ~queries:12 ~scatter:0.1 ())

let locate c session =
  unwrap
    (Client.call c Protocol.located
       (Json.Obj
          [ ("op", Json.String "cluster_locate"); ("session", Json.String session) ]))

let test_router_basics () =
  with_cluster "basics" (fun r port ->
      Alcotest.(check int) "three shards" 3 (Router.shard_count r);
      Testutil.with_client port (fun c ->
          Alcotest.(check int)
            "no sessions anywhere" 0
            (unwrap (Client.server_stats c)).sessions;
          Alcotest.(check int)
            "ping through the router" Protocol.protocol_version
            (unwrap (Client.ping c));
          (* Sessions land on ring-chosen shards; the aggregate view
             sees them all, wherever they live. *)
          let t = small_table () in
          List.iter
            (fun s ->
              ignore (unwrap (Client.open_session c ~session:s t)))
            [ "alpha"; "bravo"; "charlie" ];
          Alcotest.(check int)
            "aggregate counts all sessions" 3
            (unwrap (Client.server_stats c)).sessions;
          let id = locate c "alpha" in
          Alcotest.(check bool)
            (Printf.sprintf "locate names a shard (%s)" id)
            true (contains id "shard-");
          (* The shard-management ops never cross the front door. *)
          List.iter
            (fun op ->
              match
                Client.request_retry c
                  (Json.Obj
                     [
                       ("op", Json.String op);
                       ("session", Json.String "alpha");
                     ])
              with
              | Ok reply ->
                  Alcotest.(check bool)
                    (op ^ " is rejected, explained") true
                    (match Testutil.status_of reply with
                    | Error_reply msg -> contains msg "shard-internal"
                    | _ -> false)
              | Error msg -> Alcotest.failf "%s request failed: %s" op msg)
            [ "detach"; "adopt" ];
          List.iter
            (fun s -> ignore (unwrap (Client.close_session c ~session:s)))
            [ "alpha"; "bravo"; "charlie" ]))

(* --- the determinism contract, sharded --- *)

let streams =
  lazy
    (List.init 3 (fun i ->
         Vp_benchmarks.Synthetic.drift_workload
           ~seed:(Int64.of_int (201 + i))
           ~attributes:8 ~clusters:3 ~rows:50_000 ~queries:40 ~scatter:0.05
           ~drift_at:0.5 ()))

let session_disk =
  Vp_cost.Disk.with_buffer_size Vp_cost.Disk.default (Vp_cost.Disk.mb 1.0)

let local_history w =
  let config =
    Vp_online.Service.default_config ~jobs:1 ~disk:session_disk
      ~panel:[ Vp_algorithms.Hillclimb.algorithm ]
      ()
  in
  (Vp_online.Replay.run ~config w).Vp_online.Replay.history

let expected_histories = lazy (List.map local_history (Lazy.force streams))

let replay_streams port =
  let worker i w () =
    Testutil.with_client port (fun c ->
        let session = Printf.sprintf "s%d" i in
        let table = Workload.table w in
        ignore (unwrap (Client.open_session ~buffer_mb:1.0 c ~session table));
        Array.iteri
          (fun j q ->
            ignore (unwrap (Client.ingest ~seq:(j + 1) c ~session table q)))
          (Workload.queries w);
        unwrap (Client.close_session c ~session))
  in
  List.map Domain.join
    (List.mapi (fun i w -> Domain.spawn (worker i w)) (Lazy.force streams))

let test_cluster_matches_single_daemon () =
  let single = Testutil.with_daemon ~jobs:4 replay_streams in
  let sharded = with_cluster "differential" (fun _r port -> replay_streams port) in
  List.iteri
    (fun i ((expected, single), sharded) ->
      Alcotest.(check string)
        (Printf.sprintf "stream %d: single daemon = local replay" i)
        expected single;
      Alcotest.(check string)
        (Printf.sprintf "stream %d: 3-shard cluster = single daemon" i)
        single sharded;
      Alcotest.(check bool)
        (Printf.sprintf "stream %d produced decisions" i)
        true
        (String.length sharded > 0))
    (List.combine
       (List.combine (Lazy.force expected_histories) single)
       sharded)

(* --- handoff --- *)

let test_handoff_identity () =
  (* Open on whatever shard the ring picks, ingest half the stream,
     remove that shard from the ring — the session spills, its files
     move and the gaining shard adopts — then finish the stream and
     close. One history, two shards, zero divergence. *)
  let w = List.hd (Lazy.force streams) in
  let expected = List.hd (Lazy.force expected_histories) in
  let table = Workload.table w in
  let qs = Workload.queries w in
  let n = Array.length qs in
  with_cluster "handoff" (fun r port ->
      Testutil.with_client port (fun c ->
          let session = "s0" in
          ignore (unwrap (Client.open_session ~buffer_mb:1.0 c ~session table));
          for j = 0 to (n / 2) - 1 do
            ignore (unwrap (Client.ingest ~seq:(j + 1) c ~session table qs.(j)))
          done;
          let owner = locate c session in
          let h =
            unwrap
              (Client.call c Protocol.handoff
                 (Json.Obj
                    [
                      ("op", Json.String "cluster_remove");
                      ("shard", Json.String owner);
                    ]))
          in
          Alcotest.(check bool) "the session moved" true (h.moved >= 1);
          Alcotest.(check int) "no handoff errors" 0 h.handoff_errors;
          Alcotest.(check int) "fleet shrank" 2 (Router.shard_count r);
          let new_owner = locate c session in
          Alcotest.(check bool)
            (Printf.sprintf "owner changed (%s -> %s)" owner new_owner)
            true
            (not (String.equal owner new_owner));
          for j = n / 2 to n - 1 do
            ignore (unwrap (Client.ingest ~seq:(j + 1) c ~session table qs.(j)))
          done;
          Alcotest.(check string)
            "history byte-identical across the handoff" expected
            (unwrap (Client.close_session c ~session))))

(* --- kill -9 and supervised recovery --- *)

let fleet c =
  (unwrap
     (Client.call c Protocol.cluster_info
        (Json.Obj [ ("op", Json.String "cluster_info") ])))
    .fleet

let shard_pid c id =
  match List.find_opt (fun (s : Protocol.shard_info) -> s.id = id) (fleet c) with
  | Some s -> s.pid
  | None -> Alcotest.failf "shard %s not in cluster_info" id

let restarts_of c =
  List.fold_left (fun acc (s : Protocol.shard_info) -> acc + s.restarts) 0 (fleet c)

(* Rides out the whole crash window: sheds while the shard is down
   (already retried inside the client) plus transport errors while the
   router notices the death, for up to ~10 s of restart latency. *)
let ingest_insistent c ~session table ~seq q =
  let rec go attempts =
    match Client.ingest ~seq c ~session table q with
    | Ok _ -> ()
    | Error msg when attempts > 1 ->
        Unix.sleepf 0.05;
        ignore msg;
        go (attempts - 1)
    | Error msg -> Alcotest.failf "ingest seq %d never recovered: %s" seq msg
  in
  go 200

let test_kill9_recovery () =
  let w = List.hd (Lazy.force streams) in
  let expected = List.hd (Lazy.force expected_histories) in
  let table = Workload.table w in
  let qs = Workload.queries w in
  let n = Array.length qs in
  with_cluster "kill9" (fun _r port ->
      Testutil.with_client port (fun c ->
          let session = "s0" in
          ignore (unwrap (Client.open_session ~buffer_mb:1.0 c ~session table));
          for j = 0 to (n / 2) - 1 do
            ignore (unwrap (Client.ingest ~seq:(j + 1) c ~session table qs.(j)))
          done;
          let owner = locate c session in
          let pid = shard_pid c owner in
          Unix.kill pid Sys.sigkill;
          (* The stream continues right through the crash: the WAL has
             the prefix, the restart recovers it, seq acks duplicates. *)
          for j = n / 2 to n - 1 do
            ingest_insistent c ~session table ~seq:(j + 1) qs.(j)
          done;
          Alcotest.(check string)
            "history byte-identical across kill -9" expected
            (unwrap (Client.close_session c ~session));
          Alcotest.(check bool)
            "supervisor logged a restart" true
            (restarts_of c >= 1);
          Alcotest.(check string)
            "session still routes to its owner" owner (locate c session)))

(* --- hostile input --- *)

let test_router_fuzz () =
  with_cluster "fuzz" (fun _r port ->
      let fd = Testutil.connect_raw port in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Testutil.expect_error fd "empty frame" "\n";
          Testutil.expect_error fd "truncated JSON" "{\"op\": \"pi\n";
          Testutil.expect_error fd "non-JSON garbage" "!!! not json at all\n";
          Testutil.expect_error fd "non-object frame" "[1, 2, 3]\n";
          Testutil.expect_error fd "unknown op" "{\"op\": \"make-coffee\"}\n";
          Testutil.expect_error fd "missing op" "{\"session\": \"x\"}\n";
          Testutil.expect_error fd "session op without a session"
            "{\"op\": \"ingest\"}\n";
          Testutil.expect_error fd "hostile nesting"
            (String.make 200 '[' ^ "\n");
          Testutil.send_raw fd (String.make (Protocol.max_frame_bytes + 4096) 'a');
          Alcotest.check Testutil.status
            "oversized frame answered with a clean error"
            (Error_reply (Printf.sprintf "frame exceeds the %d-byte limit" Protocol.max_frame_bytes))
            (Testutil.status_of (Testutil.read_reply fd));
          Testutil.send_raw fd "\n";
          Testutil.send_raw fd (Json.to_string Protocol.ping ^ "\n");
          Alcotest.check Testutil.status
            "connection survives the abuse" Ok_reply
            (Testutil.status_of (Testutil.read_reply fd)));
      (* Mid-request disconnects, typed and during a ring change. *)
      let fd2 = Testutil.connect_raw port in
      Testutil.send_raw fd2 "{\"op\": \"ing";
      Unix.close fd2;
      Testutil.with_client port (fun c ->
          let fd3 = Testutil.connect_raw port in
          Testutil.send_raw fd3 "{\"op\": \"history\", \"session\": \"gho";
          let add =
            Client.call c Protocol.handoff
              (Json.Obj [ ("op", Json.String "cluster_add") ])
          in
          Unix.close fd3;
          Alcotest.(check bool)
            "ring change with a half-dead client" true (Result.is_ok add));
      (* A shard killed under the router mid-conversation: session ops
         to it must shed or recover, never hang or kill the router. *)
      Testutil.with_client port (fun c ->
          let t = small_table () in
          ignore (unwrap (Client.open_session c ~session:"victim" t));
          let owner = locate c "victim" in
          Unix.kill (shard_pid c owner) Sys.sigkill;
          let rec reopen attempts =
            match Client.open_session c ~session:"victim" t with
            | Ok o -> o
            | Error _ when attempts > 1 ->
                Unix.sleepf 0.05;
                reopen (attempts - 1)
            | Error msg ->
                Alcotest.failf "session never came back after kill -9: %s" msg
          in
          ignore (reopen 200);
          Alcotest.(check int)
            "router alive after the shard crash" Protocol.protocol_version
            (unwrap (Client.ping c));
          ignore (unwrap (Client.close_session c ~session:"victim"));
          Alcotest.(check int)
            "no leaked sessions" 0
            (unwrap (Client.server_stats c)).sessions))

let suite =
  [
    Alcotest.test_case "ring: golden hash and placement pins" `Quick
      test_ring_golden_pins;
    Alcotest.test_case "ring: bounded remap on shard add" `Quick
      test_ring_remap_bounded;
    Testutil.qtest prop_remove_only_remaps_victim;
    Testutil.qtest prop_add_moves_only_to_newcomer;
    Testutil.qtest prop_lookup_total_and_stable;
    Alcotest.test_case "ephemeral port discipline" `Quick test_ephemeral_ports;
    Alcotest.test_case "router basics and aggregation" `Quick
      test_router_basics;
    Alcotest.test_case "cluster matches single daemon" `Quick
      test_cluster_matches_single_daemon;
    Alcotest.test_case "handoff identity" `Quick test_handoff_identity;
    Alcotest.test_case "kill -9 recovery" `Quick test_kill9_recovery;
    Alcotest.test_case "router fuzz" `Quick test_router_fuzz;
  ]
