(* Reply bytes, pinned. Every op is sent over a raw socket to an
   in-process daemon and to a 3-shard router, and each reply line is
   compared with the line written below. Ports, pids and the contents
   of the [counters]/[gauges] objects are masked: they depend on the
   host and on what else ran in this process. Everything else is
   byte-for-byte, so a change to how replies are built cannot move a
   member, a number's format or an error text unnoticed. *)

open Vp_core
module Protocol = Vp_server.Protocol
module Router = Vp_router.Router

let mask line =
  let sub re by s = Str.global_replace (Str.regexp re) by s in
  line
  |> sub {|"\(port\|pid\)":-?[0-9]+|} {|"\1":_|}
  |> sub {|"\(counters\|gauges\)":{[^}]*}|} {|"\1":{_}|}

let read_line fd = mask (Testutil.read_reply_line fd)

let to_string = Vp_observe.Json.to_string

let workload = Testutil.partsupp_workload

let table = Workload.table workload

let query i = (Workload.queries workload).(i)

let frames =
  [
    ("partition", to_string (Protocol.partition_request ~algorithm:"HillClimb" workload));
    ("portfolio", to_string (Protocol.partition_request ~algorithm:"portfolio" workload));
    ("open", to_string (Protocol.open_request ~session:"s" table));
    ("ingest", to_string (Protocol.ingest_request ~seq:1 ~session:"s" table (query 0)));
    ("ingest2", to_string (Protocol.ingest_request ~seq:2 ~session:"s" table (query 1)));
  ]

let frame name = List.assoc name frames

(* Runs [(frame, expected)] in order on one connection; while it is
   open, a second connection must be shed ([max_pending] is 1). The
   last exchange is the shutdown. *)
let check_exchanges what port exchanges =
  let fd = Testutil.connect_raw port in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      List.iter
        (fun (frame, expected) ->
          if frame = "overloaded" then begin
            let shed = Testutil.connect_raw port in
            Fun.protect
              ~finally:(fun () -> Unix.close shed)
              (fun () ->
                Alcotest.(check string) (what ^ ": shed") expected (read_line shed))
          end
          else begin
            Testutil.send_raw fd (frame ^ "\n");
            let label = if String.length frame > 40 then String.sub frame 0 40 else frame in
            Alcotest.(check string) (what ^ ": " ^ label) expected (read_line fd)
          end)
        exchanges)

let partition_reply =
  {|{"status":"ok","layout":[["PartKey","SuppKey"],["AvailQty","SupplyCost"],["Comment"]],"cost":21.7958839492,"run_status":"complete","algorithm":"HillClimb","cost_calls":20}|}

let portfolio_reply =
  String.concat ""
    [
      {|{"status":"ok","layout":[["PartKey","SuppKey"],["AvailQty","SupplyCost"],["Comment"]],|};
      {|"cost":21.7958839492,"run_status":"complete","algorithm":"Portfolio","cost_calls":59,|};
      {|"winner":"AutoPart","entrants":[|};
      {|{"name":"AutoPart","short":"AP","cost":21.7958839492,"run_status":"complete","cost_calls":4,"winner":true},|};
      {|{"name":"HillClimb","short":"HC","cost":21.7958839492,"run_status":"complete","cost_calls":20,"winner":false},|};
      {|{"name":"HYRISE","short":"HY","cost":21.7958839492,"run_status":"complete","cost_calls":8,"winner":false},|};
      {|{"name":"Navathe","short":"Na","cost":21.8927706872,"run_status":"complete","cost_calls":0,"winner":false},|};
      {|{"name":"O2P","short":"O2P","cost":22.4521442856,"run_status":"complete","cost_calls":0,"winner":false},|};
      {|{"name":"Trojan","short":"Tr","cost":21.7958839492,"run_status":"complete","cost_calls":6,"winner":false},|};
      {|{"name":"BruteForce","short":"BF","cost":21.7958839492,"run_status":"complete","cost_calls":7,"winner":false},|};
      {|{"name":"ILP","short":"IP","cost":21.7958839492,"run_status":"complete","cost_calls":7,"winner":false},|};
      {|{"name":"Hypergraph","short":"HG","cost":21.7958839492,"run_status":"complete","cost_calls":7,"winner":false},|};
      {|{"name":"Row","short":"Row","cost":39.5606603331,"run_status":"complete","cost_calls":0,"winner":false},|};
      {|{"name":"Column","short":"Col","cost":22.9992224492,"run_status":"complete","cost_calls":0,"winner":false}]}|};
    ]

(* The replies a shard relays verbatim through the router. *)
let session_exchanges ~restored_open =
  [
    (frame "partition", partition_reply);
    (frame "portfolio", portfolio_reply);
    (frame "open", {|{"status":"ok","created":true,"restored":false,"generation":0}|});
    (frame "open", {|{"status":"ok","created":false,"restored":false,"generation":0}|});
    (frame "ingest", {|{"status":"ok","ingested":1,"generation":0,"duplicate":false}|});
    (frame "ingest", {|{"status":"ok","ingested":1,"generation":0,"duplicate":true}|});
    (frame "ingest2", {|{"status":"ok","ingested":2,"generation":0,"duplicate":false}|});
    ( {|{"op":"layout","session":"s"}|},
      {|{"status":"ok","generation":0,"ingested":2,"layout":[["PartKey","SuppKey","AvailQty","SupplyCost","Comment"]]}|} );
    ({|{"op":"history","session":"s"}|}, {|{"status":"ok","generation":0,"history":""}|});
  ]
  @ restored_open

let tail_exchanges =
  [
    ({|{"op":"close","session":"s"}|}, {|{"status":"ok","history":""}|});
    ({|{"op":"sleep","ms":1}|}, {|{"status":"ok","slept_ms":1}|});
    ({|{"op":"make-coffee"}|}, {|{"status":"error","error":"unknown op \"make-coffee\""}|});
    ({|{"op":"layout","session":"s"}|}, {|{"status":"error","error":"unknown session \"s\""}|});
    ("overloaded", {|{"status":"overloaded","retry_after_ms":100}|});
    ({|{"op":"shutdown"}|}, {|{"status":"ok","stopping":true}|});
  ]

let test_daemon_replies () =
  Testutil.with_temp_dir "replies-daemon" (fun dir ->
      let d = Vp_server.Daemon.create ~port:0 ~jobs:2 ~max_pending:1 ~data_dir:dir () in
      let server = Domain.spawn (fun () -> Vp_server.Daemon.serve d) in
      Fun.protect
        ~finally:(fun () ->
          Vp_server.Daemon.stop d;
          Domain.join server)
        (fun () ->
          check_exchanges "daemon" (Vp_server.Daemon.port d)
            ([ ({|{"op":"ping"}|}, {|{"status":"ok","protocol":4}|}) ]
            @ session_exchanges
                ~restored_open:
                  [
                    ( {|{"op":"stats"}|},
                      {|{"status":"ok","sessions":1,"counters":{_},"gauges":{_}}|} );
                    ({|{"op":"sessions"}|}, {|{"status":"ok","sessions":["s"]}|});
                    ({|{"op":"detach","session":"s"}|}, {|{"status":"ok","detached":true}|});
                    ({|{"op":"adopt","session":"s"}|}, {|{"status":"ok","adopted":true}|});
                    ({|{"op":"adopt","session":"s"}|}, {|{"status":"ok","adopted":false}|});
                    ( frame "open",
                      {|{"status":"ok","created":false,"restored":true,"generation":0}|} );
                  ]
            @ tail_exchanges)))

let test_router_replies () =
  Testutil.with_temp_dir "replies-router" (fun dir ->
      let r =
        Router.create ~port:0 ~max_pending:1 ~shards:3 ~shard_jobs:2 ~data_dir:dir ()
      in
      let server = Domain.spawn (fun () -> Router.serve r) in
      Fun.protect
        ~finally:(fun () ->
          Router.stop r;
          Domain.join server)
        (fun () ->
          let shard id = Printf.sprintf {|{"id":"%s","port":_,"pid":_,"healthy":true,"restarts":0}|} id in
          let info ids =
            Printf.sprintf {|{"status":"ok","shards":[%s],"replicas":64,"reconfiguring":false}|}
              (String.concat "," (List.map shard ids))
          in
          check_exchanges "router" (Router.port r)
            ([ ({|{"op":"ping"}|}, {|{"status":"ok","protocol":4,"router":true,"shards":3}|}) ]
            @ session_exchanges
                ~restored_open:
                  [
                    ( {|{"op":"stats"}|},
                      {|{"status":"ok","sessions":1,"counters":{_},"gauges":{_},"shards":{"shard-0":1,"shard-1":0,"shard-2":0},"shards_unreachable":0}|} );
                    ({|{"op":"sessions"}|}, {|{"status":"ok","sessions":["s"]}|});
                    ( {|{"op":"detach","session":"s"}|},
                      {|{"status":"error","error":"op \"detach\" is shard-internal; the router manages session placement"}|} );
                    ({|{"op":"cluster_info"}|}, info [ "shard-0"; "shard-1"; "shard-2" ]);
                    ({|{"op":"cluster_locate","session":"s"}|}, {|{"status":"ok","shard":"shard-0"}|});
                    ( {|{"op":"cluster_locate"}|},
                      {|{"status":"error","error":"missing or non-string field \"session\""}|} );
                    ( {|{"op":"cluster_add"}|},
                      {|{"status":"ok","shard":"shard-3","moved":0,"handoff_errors":0}|} );
                    ( {|{"op":"cluster_info"}|},
                      info [ "shard-0"; "shard-1"; "shard-2"; "shard-3" ] );
                    ( {|{"op":"cluster_remove","shard":"shard-0"}|},
                      {|{"status":"ok","shard":"shard-0","moved":1,"handoff_errors":0}|} );
                    ({|{"op":"cluster_info"}|}, info [ "shard-1"; "shard-2"; "shard-3" ]);
                    ( {|{"op":"cluster_remove","shard":"shard-9"}|},
                      {|{"status":"error","error":"unknown shard \"shard-9\""}|} );
                    ( {|{"op":"cluster_remove"}|},
                      {|{"status":"error","error":"missing or non-string field \"shard\""}|} );
                    ( frame "open",
                      {|{"status":"ok","created":false,"restored":true,"generation":0}|} );
                  ]
            @ tail_exchanges)))

let suite =
  [
    Alcotest.test_case "daemon reply bytes" `Quick test_daemon_replies;
    Alcotest.test_case "router reply bytes" `Quick test_router_replies;
  ]
