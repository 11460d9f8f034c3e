(* The [serve] workload: one durable `vp serve` with CLI defaults (fsync
   never, stats on), driven by two closed-loop connections on system
   threads. Each session is a partition request, an open, a 96-query
   drifting stream ingested with [seq] and a layout read after every 8th
   ingest, then a close. This is the write path (framing, Sessions, the
   WAL, Service.ingest) plus the optimizer over the wire; no router. *)

open Common

let clients = 2

type record = {
  op : Streams.op;
  at : float;  (** completion, seconds since the timed window opened *)
  ms : float;
  stream : int;
  session : string;
  reply : string;
}

(* The fleet-wide counters of the [stats] op (the router sums its shards'). *)
let fleet_counters port =
  let c = Wire.connect port in
  let reply =
    Fun.protect
      ~finally:(fun () -> Wire.close c)
      (fun () -> Wire.rpc c (Json.to_string Vp_server.Protocol.stats))
  in
  let counters =
    match Json.of_string reply with
    | Ok doc -> (
        match Json.member "counters" doc with
        | Some (Json.Obj kvs) -> kvs
        | _ -> [])
    | Error _ -> []
  in
  let value n =
    match List.assoc_opt n counters with Some (Json.Int v) -> v | _ -> 0
  in
  List.map
    (fun n -> metric n "count" (float_of_int (value n)))
    [ "server.shed"; "router.shed"; "online.reopts"; "online.adopted" ]

let expect_ok conn frame =
  let reply = Wire.rpc conn frame in
  if not (Wire.is_ok reply) then failwith ("set-up frame refused: " ^ reply)

let start ~vp ~work_dir ~cluster =
  let fleet =
    if cluster then Fleet.cluster ~vp ~work_dir else Fleet.serve ~vp ~work_dir
  in
  let conns = Array.init clients (fun _ -> Wire.connect fleet.Fleet.port) in
  Array.iter
    (fun c -> expect_ok c (Json.to_string Vp_server.Protocol.ping))
    conns;
  (fleet, conns)

let stop (fleet, conns) =
  Array.iter Wire.close conns;
  Fleet.stop fleet

(* A daemon's first WAL append forces a lazily built CRC table that is not
   safe to force from two domains at once, so the first append of each
   daemon happens here, on one connection, before the clients run
   concurrently. *)
let warm_up inputs conn =
  let session = "warm-up" in
  List.iter (expect_ok conn)
    [
      Streams.open_frame inputs 0 ~session;
      Streams.ingest_frame inputs 0 ~session ~seq:1;
      Streams.close_frame ~session;
    ]

(* Runs [body k] on one system thread per client and joins them. *)
let on_threads body =
  let threads = Array.init clients (fun k -> Thread.create body k) in
  Array.iter Thread.join threads

let client inputs conn k ~t0 ~deadline =
  let recs = ref [] and error = ref None in
  (try
     let i = ref 0 in
     while now () < deadline do
       let stream = (k + (clients * !i)) mod Streams.pool in
       let session = Printf.sprintf "s%d-%d" k !i in
       List.iter
         (fun (op, frame) ->
           let t1 = now () in
           let reply = Wire.rpc conn frame in
           let t2 = now () in
           let ms = (t2 -. t1) *. 1000.0 in
           recs := { op; at = t2 -. t0; ms; stream; session; reply } :: !recs)
         (Streams.serve_session inputs stream ~session);
       incr i
     done
   with e -> error := Some (Printexc.to_string e));
  (List.rev !recs, !error)

let memo f =
  let h = Hashtbl.create 8 in
  fun i ->
    match Hashtbl.find_opt h i with
    | Some v -> v
    | None ->
        let v = f i in
        Hashtbl.add h i v;
        v

(* Every reply is checked after the timed window: status, stream positions,
   partition costs against an in-process run of the same request, and
   each closed session's history against an in-process replay. *)
let check_records inputs records =
  let cost =
    memo (fun i ->
        Inproc.expected_partition_cost (Streams.partition_frame inputs i))
  in
  let history =
    memo (fun i -> Inproc.expected_history inputs.Streams.streams.(i))
  in
  let ingested = Hashtbl.create 64 in
  let bad = ref 0 in
  List.iter
    (fun r ->
      let n = Option.value ~default:0 (Hashtbl.find_opt ingested r.session) in
      let field = Streams.member_int "ingested" r.reply in
      let ok =
        Wire.is_ok r.reply
        &&
        match r.op with
        | Streams.Partition -> Streams.same_cost r.reply (cost r.stream)
        | Open -> true
        | Ingest ->
            Hashtbl.replace ingested r.session (n + 1);
            field = Some (n + 1)
        | Read -> field = Some n
        | Close ->
            Streams.member_string "history" r.reply = Some (history r.stream)
      in
      if not ok then begin
        incr bad;
        fail "serve %s %s: unexpected reply %s" r.session
          (Streams.op_name r.op)
          (if String.length r.reply > 160 then String.sub r.reply 0 160
           else r.reply)
      end)
    records;
  !bad

let latency name records ops q =
  let s =
    Array.of_list
      (List.filter_map
         (fun r -> if List.mem r.op ops then Some r.ms else None)
         records)
  in
  metric name "ms" (percentile s q) ~count:(Array.length s)

let run ~vp ~work_dir ~seed ~seconds =
  let (inputs, fleet), setup_s =
    repeated_setup ~times:5
      ~setup:(fun () ->
        let inputs = Streams.make ~seed in
        let fleet = start ~vp ~work_dir ~cluster:false in
        warm_up inputs (snd fleet).(0);
        (inputs, fleet))
      ~teardown:(fun (_, f) -> stop f)
  in
  Fun.protect
    ~finally:(fun () -> stop fleet)
    (fun () ->
      let daemon, conns = fleet in
      let results = Array.make clients ([], None) in
      let t0 = now () in
      let deadline = t0 +. seconds in
      on_threads (fun k ->
          results.(k) <- client inputs conns.(k) k ~t0 ~deadline);
      let elapsed = now () -. t0 in
      let counters = fleet_counters daemon.Fleet.port in
      let rss = Fleet.peak_rss_mib daemon in
      let records = List.concat_map fst (Array.to_list results) in
      let errors = List.filter_map snd (Array.to_list results) in
      List.iter (fun e -> fail "serve client: %s" e) errors;
      let bad = check_records inputs records in
      let ops = List.length records in
      let attempted = max 1 (ops + List.length errors) in
      let failed = min attempted (bad + List.length errors) in
      let rate, p50, p99, windows =
        windowed ~elapsed
          (Array.of_list (List.map (fun r -> (r.at, r.ms)) records))
      in
      let detail =
        [
          metric "setup_s" "s" setup_s ~count:5;
          metric "ops_per_s" "1/s" (float_of_int ops /. elapsed) ~count:ops;
          metric "failed_share" "ratio"
            (float_of_int failed /. float_of_int attempted)
            ~count:attempted;
          latency "ingest_p50_ms" records [ Ingest ] 0.5;
          latency "ingest_p99_ms" records [ Ingest ] 0.99;
          latency "read_p50_ms" records [ Read ] 0.5;
          latency "read_p99_ms" records [ Read ] 0.99;
          latency "partition_p50_ms" records [ Partition ] 0.5;
          latency "partition_p90_ms" records [ Partition ] 0.9;
          latency "open_p50_ms" records [ Open ] 0.5;
          latency "close_p50_ms" records [ Close ] 0.5;
        ]
        @ counters
      in
      let e2e =
        [
          metric "setup_s" "s" setup_s ~count:5;
          metric "ops_per_s" "1/s" rate ~count:windows;
          metric "op_p50_ms" "ms" p50 ~count:windows;
          metric "op_p99_ms" "ms" p99 ~count:windows;
          metric "peak_rss_mib" "MiB" rss;
        ]
      in
      (detail, e2e, attempted, failed))
