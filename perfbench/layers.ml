(* The traced run (--trace 1): times the calls into each layer's public
   functions from the benchmark's own code and prints the per-layer table.
   Spans are recorded with [Vp_observe.Trace] around those calls and
   written as a Chrome trace; nothing inside the library is instrumented
   for this run beyond what it already records.

   Every section runs whatever the workload, so each per-layer metric is
   reported on every workload; the workload picks the section whose
   end-to-end time is split into stages for [unaccounted_us] and whose
   traced and untraced replays give [trace.overhead_share]. *)

open Vp_core
open Common
module Trace = Vp_observe.Trace
module Switch = Vp_observe.Switch
module Sessions = Vp_server.Sessions
module Service = Vp_online.Service
module Journal = Vp_robust.Journal

(* Durations of every stage, by span name, in microseconds. *)
let stages : (string, Samples.t) Hashtbl.t = Hashtbl.create 64

let record name us =
  let s =
    match Hashtbl.find_opt stages name with
    | Some s -> s
    | None ->
        let s = Samples.create () in
        Hashtbl.add stages name s;
        s
  in
  Samples.add s us

let traced =
  {
    span =
      (fun name f ->
        let t0 = now () in
        Fun.protect
          ~finally:(fun () -> record name ((now () -. t0) *. 1e6))
          (fun () -> Trace.with_span ~name f));
  }

let stage_samples name =
  match Hashtbl.find_opt stages name with
  | Some s -> Samples.to_array s
  | None -> [||]

let events = ref []

(* Keeps the ring buffer from wrapping: each section's spans are moved out
   before the next section starts. *)
let collect () =
  if Trace.dropped () > 0 then
    fail "trace ring dropped %d spans" (Trace.dropped ());
  events := !events @ Trace.events ();
  Trace.clear ()

let untraced f = Switch.with_level Switch.Off f

let micros = List.map (fun (_, s) -> s *. 1e6)

let total_s r = sum (Array.of_list (List.map snd r))

(* Replays frames in-process on a fresh durable registry with the daemon's
   fsync policy; returns the reply lines and each frame's in-process time. *)
let replay ~work_dir ?sp frames =
  let dir = Fleet.fresh_dir work_dir "inproc" in
  Fun.protect
    ~finally:(fun () -> Fleet.remove_tree dir)
    (fun () ->
      let reg = Sessions.create ~data_dir:dir ~fsync:Journal.Never () in
      List.map (fun f -> time (fun () -> Inproc.handle ?sp reg f)) frames)

(* Three untraced and three traced replays, alternating so that warm-up
   favours neither; returns the median-time replay of each kind. *)
let alternate replay_with =
  let pick rs =
    List.nth (List.sort (fun a b -> Float.compare (total_s a) (total_s b)) rs) 1
  in
  let rounds =
    List.init 3 (fun _ ->
        let u = untraced (fun () -> replay_with None) in
        (u, replay_with (Some traced)))
  in
  (pick (List.map fst rounds), pick (List.map snd rounds))

let same_replies what expected got =
  List.iteri
    (fun i (a, b) ->
      if a <> b then
        fail "%s: in-process reply %d differs from the wire: %s" what i b)
    (List.combine expected got)

type section = {
  e2e_us : float array;  (** end-to-end time per op *)
  unaccounted_us : float array;  (** per op: [e2e_us] minus its stages *)
  overhead_share : float;  (** traced minus untraced time, over untraced *)
  counters : metric list;  (** the fleet's [stats] counters *)
}

(* [wire] and [plain] are the same frames' round trips and in-process
   replays; [with_spans] is the traced replay. *)
let section ~wire ~plain ~with_spans ~counters =
  let e2e = Array.of_list (micros wire) in
  {
    e2e_us = e2e;
    unaccounted_us = Array.map2 ( -. ) e2e (Array.of_list (micros plain));
    overhead_share =
      (total_s with_spans -. total_s plain) /. total_s plain;
    counters;
  }

(* --- the server layers: one serve client's frames --- *)

let journal_and_service ~work_dir inputs =
  let path =
    Filename.concat work_dir (Printf.sprintf "journal-%d.wal" (Unix.getpid ()))
  in
  let j = Journal.open_ ~fsync:Journal.Never path in
  let records = ref 0 in
  Array.iter
    (fun w ->
      Array.iter
        (fun q ->
          incr records;
          let payload = Json.to_string (Service.query_to_json q) in
          let key = string_of_int !records in
          traced.span "journal.record" (fun () ->
              Journal.record j ~key ~payload))
        (Workload.queries w))
    inputs.Streams.streams;
  Journal.close j;
  let bytes = (Unix.stat path).Unix.st_size in
  Sys.remove path;
  let reopts = ref 0 and adopted = ref 0 and ingests = ref 0 in
  Array.iter
    (fun w ->
      let config = Inproc.default_session_config () in
      let svc = Service.create config (Workload.table w) in
      Array.iter
        (fun q ->
          let before = Service.reopts svc in
          let (), s =
            time (fun () ->
                Trace.with_span ~name:"service.ingest" (fun () ->
                    Service.ingest svc q))
          in
          incr ingests;
          record
            (if Service.reopts svc > before then "service.reopt"
             else "service.ingest")
            (s *. 1e6))
        (Workload.queries w);
      reopts := !reopts + Service.reopts svc;
      adopted := !adopted + Service.adoptions svc)
    inputs.Streams.streams;
  collect ();
  [
    metric "journal.bytes_per_ingest" "bytes"
      (float_of_int bytes /. float_of_int !records)
      ~count:!records;
    metric "service.reopt_share" "ratio"
      (float_of_int !reopts /. float_of_int !ingests)
      ~count:!ingests;
    metric "service.adopt_ratio" "ratio"
      (float_of_int !adopted /. float_of_int (max 1 !reopts))
      ~count:!reopts;
  ]

let serve_section ~vp ~work_dir inputs =
  let frames =
    List.concat_map
      (fun i ->
        List.map snd
          (Streams.serve_session inputs i ~session:(Printf.sprintf "t%d" i)))
      [ 0; 1; 2 ]
  in
  let fleet, conns = Serve.start ~vp ~work_dir ~cluster:false in
  let wire, counters =
    Fun.protect
      ~finally:(fun () -> Serve.stop (fleet, conns))
      (fun () ->
        let wire =
          List.map (fun f -> time (fun () -> Wire.rpc conns.(0) f)) frames
        in
        (wire, Serve.fleet_counters fleet.Fleet.port))
  in
  let plain, with_spans =
    alternate (fun sp -> replay ~work_dir ?sp frames)
  in
  collect ();
  same_replies "serve" (List.map fst wire) (List.map fst plain);
  same_replies "serve (traced)" (List.map fst wire) (List.map fst with_spans);
  ( section ~wire ~plain ~with_spans ~counters,
    journal_and_service ~work_dir inputs )

(* --- the router: the same read frames through the router and directly to
   the owning shard --- *)

let cluster_section ~vp ~work_dir inputs =
  let count = 6 and reads = 1500 in
  let names = List.init count Cluster.session_name in
  let fleet, conns = Serve.start ~vp ~work_dir ~cluster:true in
  let pairs, counters =
    Fun.protect
      ~finally:(fun () -> Serve.stop (fleet, conns))
      (fun () ->
        let shards, replicas = Fleet.shards fleet in
        Cluster.preload inputs conns (Array.make count 0);
        let owner session =
          let frame =
            Json.Obj
              [
                ("op", Json.String "cluster_locate");
                ("session", Json.String session);
              ]
          in
          let reply = Wire.rpc conns.(0) (Json.to_string frame) in
          match Streams.member_string "shard" reply with
          | Some id -> id
          | None -> failwith ("cluster_locate: " ^ reply)
        in
        let owners = Array.of_list (List.map owner names) in
        let ring =
          Vp_router.Ring.make ~replicas
            (List.map (fun s -> s.Fleet.id) shards)
        in
        List.iteri
          (fun s name ->
            check
              (Vp_router.Ring.lookup ring name = owners.(s))
              "ring lookup of %s disagrees with cluster_locate" name)
          names;
        let keys = Array.of_list names in
        for _ = 1 to 200 do
          let t0 = now () in
          for i = 0 to 999 do
            ignore
              (Sys.opaque_identity
                 (Vp_router.Ring.lookup ring keys.(i mod count)))
          done;
          record "ring.lookup" ((now () -. t0) *. 1e6 /. 1000.0)
        done;
        let direct =
          List.map
            (fun (s : Fleet.shard) -> (s.id, Wire.connect s.shard_port))
            shards
        in
        Fun.protect
          ~finally:(fun () -> List.iter (fun (_, c) -> Wire.close c) direct)
          (fun () ->
            let pair i =
              let s = i mod count in
              let session = Cluster.session_name s in
              let frame =
                if i mod 2 = 0 then Streams.layout_frame ~session
                else Streams.history_frame ~session
              in
              let shard = List.assoc owners.(s) direct in
              let via_router () = time (fun () -> Wire.rpc conns.(0) frame) in
              let via_shard () = time (fun () -> Wire.rpc shard frame) in
              (* Alternate which path goes first, independently of the
                 read kind (which alternates with [i]). *)
              let r, d =
                if i / 2 mod 2 = 0 then
                  let r = via_router () in
                  (r, via_shard ())
                else
                  let d = via_shard () in
                  (via_router (), d)
              in
              check (fst r = fst d) "router reply differs from the shard's";
              record "router.hop" ((snd r -. snd d) *. 1e6);
              (frame, r)
            in
            (List.init reads pair, Serve.fleet_counters fleet.Fleet.port)))
  in
  collect ();
  (* The same sessions and reads in-process, for the stage split. *)
  let setup =
    List.concat_map
      (fun s ->
        let session = Cluster.session_name s and i = Cluster.stream_of s in
        Streams.open_frame inputs i ~session
        :: List.init Streams.stream_queries (fun k ->
               Streams.ingest_frame inputs i ~session ~seq:(k + 1)))
      (List.init count Fun.id)
  in
  let skip = List.length setup in
  let run sp =
    List.filteri (fun i _ -> i >= skip)
      (replay ~work_dir ?sp (setup @ List.map fst pairs))
  in
  let plain, with_spans = alternate run in
  collect ();
  let wire = List.map snd pairs in
  same_replies "cluster" (List.map fst wire) (List.map fst plain);
  section ~wire ~plain ~with_spans ~counters

(* --- the optimizer and the store: one offline pass --- *)

let offline_section ~seed ~want_overhead =
  let inputs = Offline.inputs ~seed in
  let untraced_s =
    if want_overhead then
      (untraced (fun () -> Offline.run_pass ~time_chunks:true inputs))
        .Offline.wall_s
    else nan
  in
  let snap0 = Vp_observe.Stats.snapshot () in
  let p = Offline.run_pass ~time_chunks:true ~sp:traced inputs in
  let snap1 = Vp_observe.Stats.snapshot () in
  collect ();
  let delta name =
    float_of_int
      (Vp_observe.Stats.counter_value snap1 name
      - Vp_observe.Stats.counter_value snap0 name)
  in
  let per_algo (a : Partitioner.t) =
    let runs = List.filter (fun r -> r.Offline.algo = a.name) p.Offline.runs in
    let n = List.length runs in
    let calls r = r.Offline.resp.Partitioner.Response.stats.cost_calls in
    [
      metric
        ("partitioner." ^ a.name ^ "_ms")
        "ms"
        (sum (Array.of_list (List.map (fun r -> r.Offline.ms) runs)))
        ~count:n;
      metric
        ("partitioner." ^ a.name ^ ".cost_calls")
        "count"
        (float_of_int (List.fold_left (fun acc r -> acc + calls r) 0 runs))
        ~count:n;
    ]
  in
  let io f =
    float_of_int
      (Array.fold_left
         (fun acc (r : Vp_storage.Database.query_result) -> acc + f r)
         0 p.Offline.results)
  in
  let metrics =
    List.concat_map per_algo Offline.entrants
    @ [
        metric "cost.oracle_calls" "count" (delta "cost.oracle_calls");
        metric "cost.query_costs" "count" (delta "cost.query_costs");
        metric "rowgen.rows_per_s" "rows/s"
          (float_of_int p.Offline.rows /. sum p.Offline.chunk_s)
          ~count:(Array.length p.Offline.chunk_s);
        metric "database.build_s" "s" p.Offline.build_s;
        metric "database.run_query_ms" "ms" (median p.Offline.query_ms)
          ~count:(Array.length p.Offline.query_ms);
        metric "device.blocks_read" "count"
          (io (fun r -> r.io.Vp_storage.Device.blocks_read));
        metric "device.seeks" "count"
          (io (fun r -> r.io.Vp_storage.Device.seeks));
        metric "database.values_decoded" "count"
          (io (fun r -> r.values_decoded));
      ]
  in
  let ops = Offline.op_ms p in
  let n = float_of_int (Array.length ops) in
  let stage_s = (sum ops /. 1000.0) +. sum p.Offline.chunk_s in
  let wall_s = p.Offline.wall_s in
  ( {
      e2e_us = [| wall_s *. 1e6 /. n |];
      unaccounted_us = [| (wall_s -. stage_s) *. 1e6 /. n |];
      overhead_share = (wall_s -. untraced_s) /. untraced_s;
      counters = [];
    },
    metrics )

(* Which end-to-end metrics each layer should move, on which workload. *)
let moves name =
  let has p = String.starts_with ~prefix:p name in
  if has "json." || has "protocol." then
    "read_p50_ms@cluster ingest_p50_ms@serve; none@offline"
  else if has "daemon." then "read_p50_ms ops_per_s @serve,cluster"
  else if has "router.hop" || has "ring." then
    "read_p50_ms ops_per_s @cluster only"
  else if has "sessions.open" then "open_p50_ms@serve"
  else if has "sessions.ingest" then "ingest_p50_ms@serve"
  else if has "sessions.view" then "read_p50_ms@serve"
  else if has "sessions.close" then "close_p50_ms@serve"
  else if has "journal." then "ingest_p50_ms@serve; barely @cluster"
  else if has "service." then "ingest_p99_ms ops_per_s @serve"
  else if has "partitioner.HillClimb" then
    "optimize_s@offline partition_p50_ms ingest_p99_ms @serve"
  else if has "partitioner." || has "cost." then "optimize_s@offline"
  else if has "rowgen." || has "database." || has "device." then
    "load_rows_per_s scan_rows_per_s peak_heap_mib @offline"
  else if has "server." || has "router." || has "online." then
    "failed_share ops_per_s"
  else "-"

let run ~vp ~work_dir ~seed ~workload =
  Switch.raise_to Switch.Trace;
  Trace.clear ();
  let inputs = Streams.make ~seed in
  let serve, service = serve_section ~vp ~work_dir inputs in
  let cluster = cluster_section ~vp ~work_dir inputs in
  let offline, offline_metrics =
    offline_section ~seed ~want_overhead:(workload = "offline")
  in
  let trace_file =
    Filename.concat work_dir (Printf.sprintf "trace-%s-%d.json" workload seed)
  in
  Trace.write_chrome trace_file !events;
  Printf.printf "chrome trace of %d spans: %s\n" (List.length !events)
    trace_file;
  let med unit_ scale name key =
    let s = stage_samples key in
    metric name unit_ (median s /. scale) ~count:(Array.length s)
  in
  let us = med "us" 1.0 and ms = med "ms" 1000.0 in
  let own =
    match workload with
    | "serve" -> serve
    | "cluster" -> cluster
    | _ -> offline
  in
  let counters =
    List.map2
      (fun a b -> { a with value = a.value +. b.value })
      serve.counters cluster.counters
  in
  let layers =
    [
      us "json.decode_us" "json.decode";
      us "json.encode_us" "json.encode";
      us "protocol.request_of_json_us" "protocol.request_of_json";
      metric "daemon.unaccounted_us" "us"
        (median serve.unaccounted_us)
        ~count:(Array.length serve.unaccounted_us);
      us "router.hop_us" "router.hop";
      us "ring.lookup_us" "ring.lookup";
      us "sessions.open_us" "sessions.open";
      us "sessions.ingest_us" "sessions.ingest";
      us "sessions.view_us" "sessions.view";
      us "sessions.close_us" "sessions.close";
      us "journal.record_us" "journal.record";
      us "service.ingest_us" "service.ingest";
      ms "service.reopt_ms" "service.reopt";
    ]
    @ service @ offline_metrics @ counters
    @ [
        metric "unaccounted_us" "us"
          (median own.unaccounted_us)
          ~count:(Array.length own.unaccounted_us);
        metric "unaccounted_share" "ratio"
          (sum own.unaccounted_us /. sum own.e2e_us)
          ~count:(Array.length own.e2e_us);
        metric "trace.overhead_share" "ratio" own.overhead_share;
      ]
  in
  List.iter
    (fun m ->
      print_metric ~tag:"layer" m;
      Printf.printf "       moves: %s\n" (moves m.name))
    layers;
  (layers, max 1 (List.length !events))
