(* The wire and disk descriptions ([Vp_observe.Json.Codec]): one generic
   round-trip property, [decode (encode x) = x] with floats compared by
   their bits, applied to every described type; the frames through their
   builders and [Protocol.request_of_json]; the snapshot through
   [Service.snapshot]/[restore]; and the error paths. *)

open Vp_core
module Json = Vp_observe.Json
module C = Json.Codec
module Protocol = Vp_server.Protocol
module Service = Vp_online.Service
module Sessions = Vp_server.Sessions
open QCheck2.Gen

(* Structural equality with floats compared bit for bit (NaN payloads
   and the sign of zero included). *)
let same_bits a b =
  Marshal.to_string a [ Marshal.No_sharing ]
  = Marshal.to_string b [ Marshal.No_sharing ]

let roundtrip ?(count = 200) name codec gen =
  Testutil.qtest
    (QCheck2.Test.make ~count ~name:(name ^ " round-trips") gen (fun x ->
         same_bits (C.decode codec (C.encode codec x)) x))

(* --- generators --- *)

let text = string_size ~gen:char (int_range 1 8)

let any_float =
  oneof
    [
      float;
      map Int64.float_of_bits int64;
      oneofl [ Float.nan; Float.infinity; Float.neg_infinity; -0.0; 0.0 ];
    ]

let weight = map (fun f -> Float.abs f +. Float.min_float) (float_range 0.0 1e6)

let datatype =
  oneof
    [
      oneofl Attribute.[ Int32; Decimal; Date ];
      map (fun w -> Attribute.Char w) (int_range 1 300);
      map (fun w -> Attribute.Varchar w) (int_range 1 300);
    ]

let table =
  let* names = list_size (int_range 1 12) text in
  let names = List.sort_uniq compare names in
  let* types = list_repeat (List.length names) datatype in
  let* name = text in
  let+ row_count = int_range 0 max_int in
  Table.make ~name ~row_count
    ~attributes:(List.map2 Attribute.make names types)

let query =
  let* name = text in
  let* mask = int_range 1 ((1 lsl 62) - 1) in
  let+ weight = weight in
  Query.make ~weight ~name ~references:(Attr_set.of_mask mask) ()

let budget =
  let+ deadline_ms = opt (int_range 1 max_int)
  and+ budget_steps = opt (int_range 0 max_int) in
  { Protocol.deadline_ms; budget_steps }

let verdict = oneofl Service.[ Adopted; Rejected ]

let event =
  let+ generation = nat
  and+ trigger_query = nat
  and+ trigger =
    oneof [ pure Service.Epoch; map (fun r -> Service.Drift r) any_float ]
  and+ algorithm = text
  and+ costs = list_repeat 4 any_float
  and+ verdict = verdict in
  match costs with
  | [ cost_before; cost_after; migration; payoff ] ->
      {
        Service.generation;
        trigger_query;
        trigger;
        algorithm;
        cost_before;
        cost_after;
        migration;
        payoff;
        verdict;
      }
  | _ -> assert false

let format_event =
  let+ f_generation = nat
  and+ f_trigger_query = nat
  and+ f_formats = text
  and+ costs = list_repeat 4 any_float
  and+ f_verdict = verdict in
  match costs with
  | [ f_cost_before; f_cost_after; f_migration; f_payoff ] ->
      {
        Service.f_generation;
        f_trigger_query;
        f_formats;
        f_cost_before;
        f_cost_after;
        f_migration;
        f_payoff;
        f_verdict;
      }
  | _ -> assert false

let open_spec =
  let+ session = text
  and+ table = table
  and+ panel = list_size (int_range 0 3) text
  and+ floats = list_repeat 3 any_float
  and+ ints = list_repeat 3 int
  and+ budget_steps = opt int in
  match (floats, ints) with
  | [ drift_ratio; horizon; buffer_mb ], [ min_window; epoch; memory ] ->
      {
        Protocol.session;
        table;
        panel;
        drift_ratio;
        min_window;
        epoch;
        memory;
        horizon;
        budget_steps;
        buffer_mb;
      }
  | _ -> assert false

let wire_query =
  let+ attributes = list_size (int_range 0 5) text
  and+ weight = any_float
  and+ name = opt text in
  { Protocol.attributes; weight; name }

let entrant =
  let+ entrant = text
  and+ entrant_short = text
  and+ entrant_cost = any_float
  and+ entrant_status = oneofl [ "complete"; "timed_out" ]
  and+ entrant_cost_calls = nat
  and+ entrant_winner = bool in
  {
    Protocol.entrant;
    entrant_short;
    entrant_cost;
    entrant_status;
    entrant_cost_calls;
    entrant_winner;
  }

let wal_record =
  let+ query = query and+ budget_steps = opt (int_range 0 max_int) in
  { Sessions.query; budget_steps }

(* --- the replies --- *)

let status =
  oneof
    [
      pure Protocol.Ok_reply;
      map (fun m -> Protocol.Error_reply m) text;
      map (fun ms -> Protocol.Overloaded ms) int;
    ]

let counts = list_size (int_range 0 4) (pair text int)

let stats =
  let+ sessions = int
  and+ counters = counts
  and+ gauges = counts
  and+ shards = opt counts
  and+ shards_unreachable = opt int in
  { Protocol.sessions; counters; gauges; shards; shards_unreachable }

let layout = list_size (int_range 0 4) (list_size (int_range 1 4) text)

let partitioned =
  let+ layout = layout
  and+ cost = any_float
  and+ run_status = text
  and+ algorithm = text
  and+ cost_calls = int
  and+ winner = opt text
  and+ entrants = opt (list_size (int_range 0 3) entrant) in
  { Protocol.layout; cost; run_status; algorithm; cost_calls; winner; entrants }

let opened =
  let+ created = bool and+ restored = bool and+ generation = int in
  { Protocol.created; restored; generation }

let ingested =
  let+ ingested = int and+ generation = int and+ duplicate = bool in
  { Protocol.ingested; generation; duplicate }

let layout_view =
  let+ generation = int and+ ingested = int and+ layout = layout in
  { Protocol.generation; ingested; layout }

let history_view =
  let+ generation = int and+ history = string in
  { Protocol.generation; history }

let cluster_info =
  let shard =
    let+ id = text
    and+ port = int
    and+ pid = int
    and+ healthy = bool
    and+ restarts = int in
    { Protocol.id; port; pid; healthy; restarts }
  in
  let+ fleet = list_size (int_range 0 4) shard
  and+ replicas = int
  and+ reconfiguring = bool in
  { Protocol.fleet; replicas; reconfiguring }

let handoff =
  let+ shard = text and+ moved = int and+ handoff_errors = int in
  { Protocol.shard; moved; handoff_errors }

(* A server that answers one request with [reply], verbatim. *)
let with_canned_server reply f =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen sock 1;
  let port =
    match Unix.getsockname sock with Unix.ADDR_INET (_, p) -> p | _ -> assert false
  in
  let server =
    Domain.spawn (fun () ->
        let fd, _ = Unix.accept sock in
        ignore (Testutil.read_reply_line fd);
        Testutil.send_raw fd (reply ^ "\n");
        Unix.close fd)
  in
  Fun.protect
    ~finally:(fun () ->
      Domain.join server;
      Unix.close sock)
    (fun () -> Testutil.with_client port f)

let test_pre_v2_open () =
  with_canned_server {|{"status":"ok","created":true,"generation":3}|} (fun c ->
      let o = Testutil.unwrap (Vp_client.Client.open_session c ~session:"s" Testutil.tiny) in
      Alcotest.(check (triple bool bool int))
        "no restored member reads as false" (true, false, 3)
        (o.created, o.restored, o.generation))

(* --- the frames, through their builders --- *)

let decode_frame frame =
  match Protocol.request_of_json frame with
  | Ok req -> req
  | Error msg -> failwith msg

let frames_roundtrip =
  Testutil.qtest
    (QCheck2.Test.make ~count:100 ~name:"request frames round-trip"
       (let+ w = Testutil.gen_workload 10 6
        and+ algorithm = text
        and+ buffer_mb = any_float
        and+ budget = budget
        and+ seq = opt (int_range 1 max_int)
        and+ session = text
        and+ spec = open_spec
        and+ given = list_repeat 8 bool
        and+ ms = int_range 0 60_000 in
        (w, algorithm, buffer_mb, budget, seq, session, spec, given, ms))
       (fun (w, algorithm, buffer_mb, budget, seq, session, spec, given, ms) ->
         let { Protocol.deadline_ms; budget_steps } = budget in
         let table = Workload.table w in
         let q = (Workload.queries w).(0) in
         let partition =
           match
             decode_frame
               (Protocol.partition_request ~algorithm ~buffer_mb ?deadline_ms
                  ?budget_steps w)
           with
           | Partition p ->
               same_bits
                 (p.workload, p.algorithm, p.buffer_mb, p.budget)
                 (w, algorithm, buffer_mb, budget)
           | _ -> false
         in
         let ingest =
           match
             decode_frame
               (Protocol.ingest_request ?deadline_ms ?budget_steps ?seq ~session
                  table q)
           with
           | Ingest i ->
               same_bits
                 (i.session, i.attributes, i.weight, i.name, i.seq, i.budget)
                 ( session,
                   Table.names_of_attr_set table (Query.references q),
                   Query.weight q,
                   Some (Query.name q),
                   seq,
                   budget )
           | _ -> false
         in
         (* Each tuning field given or left to its default. *)
         let pick i v = if List.nth given i then Some v else None in
         let budget_steps = Option.map (fun n -> n land max_int) spec.budget_steps in
         let panel = pick 0 spec.panel
         and drift_ratio = pick 1 spec.drift_ratio
         and min_window = pick 2 spec.min_window
         and epoch = pick 3 spec.epoch
         and memory = pick 4 spec.memory
         and horizon = pick 5 spec.horizon
         and buffer_mb = pick 6 spec.buffer_mb in
         let expected =
           let ( |? ) v d = Option.value v ~default:d in
           {
             spec with
             panel = panel |? [ "HillClimb" ];
             drift_ratio = drift_ratio |? 2.0;
             min_window = min_window |? 8;
             epoch = epoch |? 64;
             memory = memory |? 32;
             horizon = horizon |? 1.0;
             budget_steps;
             buffer_mb = buffer_mb |? 8.0;
           }
         in
         let opened =
           match
             decode_frame
               (Protocol.open_request ?panel ?drift_ratio ?min_window ?epoch
                  ?memory ?horizon ?budget_steps ?buffer_mb
                  ~session:spec.session spec.table)
           with
           | Open s -> same_bits s expected
           | _ -> false
         in
         let by_session =
           List.for_all
             (fun (build, expect) -> decode_frame (build ~session) = expect)
             Protocol.
               [
                 (layout_request, Layout { session });
                 (history_request, History { session });
                 (close_request, Close { session });
                 (detach_request, Detach { session });
                 (adopt_request, Adopt { session });
               ]
         in
         partition && ingest && opened && by_session
         && decode_frame (Protocol.sleep ~ms) = Sleep { ms }))

(* --- the snapshot, through snapshot/restore --- *)

let snapshot_roundtrip =
  Testutil.qtest
    (QCheck2.Test.make ~count:25 ~name:"service snapshots round-trip"
       (pair (Testutil.gen_workload ~rows:50_000 6 40) bool)
       (fun (w, formats) ->
         let config =
           Service.default_config ~min_window:4 ~epoch:8 ~formats ~jobs:1
             ~disk:Vp_cost.Disk.default
             ~panel:[ Vp_algorithms.Hillclimb.algorithm ]
             ()
         in
         let svc = Service.create config (Workload.table w) in
         Array.iter (Service.ingest svc) (Workload.queries w);
         let snap = Service.snapshot svc in
         match Service.restore config snap with
         | Ok back -> Service.snapshot back = snap
         | Error msg -> failwith msg))

(* --- error paths --- *)

let test_error_paths () =
  let point =
    C.(
      seal
        (obj (fun xs w -> (xs, w))
        |> field "xs" (list (int_in ~min:0 ~max:9 ())) fst
        |> dft "w" number 1.0 snd))
  in
  let nested = C.(seal (obj Fun.id |> field "p" point Fun.id)) in
  let error doc =
    match C.decode nested doc with
    | _ -> Alcotest.fail "decoded"
    | exception C.Error e -> C.error_message e
  in
  let parse s = Result.get_ok (Json.of_string s) in
  List.iter
    (fun (doc, expected) -> Alcotest.(check string) doc expected (error (parse doc)))
    [
      ({|{}|}, {|missing field "p"|});
      ({|{"p":1}|}, {|field "p" must be an object|});
      ({|{"p":{}}|}, {|missing field "p.xs"|});
      ({|{"p":{"xs":{}}}|}, {|missing field "p.xs"|});
      ({|{"p":{"xs":[1,"a"]}}|}, {|field "p.xs[1]" must be an integer|});
      ({|{"p":{"xs":[1,10]}}|}, {|"p.xs[1]" must be in 0 .. 9|});
      ({|{"p":{"xs":[],"w":"x"}}|}, {|field "p.w" must be a number|});
      ({|[]|}, "expected a JSON object");
    ];
  Alcotest.(check string) "an enum names what it expected" {|unknown verdict "maybe"|}
    (match C.decode (C.list Service.event) (parse {|[{"generation":0,"at":0,"trigger":"epoch","algorithm":"a","cost_before":"0","cost_after":"0","migration":"0","payoff":"0","verdict":"maybe"}]|}) with
    | _ -> "decoded"
    | exception C.Error e -> C.error_message e)

let suite =
  [
    roundtrip "table" Table.codec table;
    roundtrip "wire query" Protocol.wire_query wire_query;
    roundtrip "budget" (C.seal Protocol.budget) budget;
    roundtrip "open spec (meta)" Protocol.meta open_spec;
    roundtrip "entrant" Protocol.entrant entrant;
    roundtrip "disk query" Service.query query;
    roundtrip "event" Service.event event;
    roundtrip "format event" Service.format_event format_event;
    roundtrip "WAL record" Sessions.wal_record wal_record;
    frames_roundtrip;
    snapshot_roundtrip;
    Alcotest.test_case "error paths" `Quick test_error_paths;
    roundtrip "status" Protocol.status status;
    roundtrip "pong" Protocol.pong int;
    roundtrip "router pong" Protocol.router_pong int;
    roundtrip "stats" Protocol.stats_reply stats;
    roundtrip "layout" Protocol.layout layout;
    roundtrip "partitioned" Protocol.partitioned partitioned;
    roundtrip "opened" Protocol.opened opened;
    roundtrip "ingested" Protocol.ingested ingested;
    roundtrip "layout view" Protocol.layout_view layout_view;
    roundtrip "history view" Protocol.history_view history_view;
    roundtrip "closed" Protocol.closed string;
    roundtrip "detached" Protocol.detached unit;
    roundtrip "adopted" Protocol.adopted bool;
    roundtrip "session list" Protocol.session_list (list_size (int_range 0 4) text);
    roundtrip "slept" Protocol.slept int;
    roundtrip "stopping" Protocol.stopping unit;
    roundtrip "cluster info" Protocol.cluster_info cluster_info;
    roundtrip "located" Protocol.located text;
    roundtrip "handoff" Protocol.handoff handoff;
    Alcotest.test_case "pre-v2 open reply: restored = false" `Quick test_pre_v2_open;
  ]
