(* The [offline] workload: the paper's own pipeline, in-process on one
   domain, with no server layer involved.

   (a) Optimize: every single entrant on every TPC-H and SSB table at
       SF 10 under one fixed step budget, then the seven heuristics on a
       48-attribute, 60-query synthetic table that BruteForce and ILP
       cannot enumerate. Requests have the shape `vp partition` and the
       daemon build: [Io_model.oracle] plus [Io_model.Incremental.factory],
       with no process-wide memo, so every repetition pays the full cost.
   (b) Store: stream lineitem from [Rowgen] into [Database.build] under
       the cheapest lineitem layout from (a), then run lineitem's TPC-H
       queries. *)

open Vp_core
open Common
module Response = Partitioner.Response

let disk = Vp_cost.Disk.default

let lineup_sf = 10.0

(* The budget and SF 0.005 (30k rows) keep a pass near two seconds and the
   heap small, so about ten passes fit in one run. *)
let step_budget = 2_500

let store_sf = 0.005

let entrants =
  Vp_algorithms.Registry.six
  @ [
      Vp_algorithms.Brute_force.make
        ~lower_bound:(Vp_cost.Bounds.io_brute_force disk)
        ();
      Vp_algorithms.Ilp.with_bound disk;
      Vp_algorithms.Hypergraph.algorithm;
    ]

let heuristics =
  Vp_algorithms.Registry.six @ [ Vp_algorithms.Hypergraph.algorithm ]

type inputs = {
  lineup : (string * Workload.t) list;  (** ["tpch/lineitem"] -> workload *)
  wide : Workload.t;
  store_table : Table.t;
  store_queries : Query.t array;
  row_seed : int64;
}

let inputs ~seed =
  let named bench ws =
    List.map (fun w -> (bench ^ "/" ^ Table.name (Workload.table w), w)) ws
  in
  {
    lineup =
      named "tpch" (Vp_benchmarks.Tpch.workloads ~sf:lineup_sf)
      @ named "ssb" (Vp_benchmarks.Ssb.workloads ~sf:lineup_sf);
    wide =
      Vp_benchmarks.Synthetic.workload ~seed:(seed64 seed 1) ~attributes:48
        ~clusters:8 ~queries:60 ~scatter:0.2 ();
    store_table = Vp_benchmarks.Tpch.table ~sf:store_sf "lineitem";
    store_queries =
      Workload.queries (Vp_benchmarks.Tpch.workload ~sf:store_sf "lineitem");
    row_seed = seed64 seed 2;
  }

let optimize algo w =
  let cost = Vp_cost.Io_model.oracle disk w in
  let delta = Vp_cost.Io_model.Incremental.factory disk w in
  let budget = Vp_robust.Budget.create ~max_steps:step_budget () in
  Partitioner.exec algo (Partitioner.Request.make ~budget ~delta ~cost w)

type run = { key : string; algo : string; resp : Response.t; ms : float }

type pass = {
  runs : run list;  (** lineup runs, then the wide-table runs *)
  optimize_s : float;
  build_s : float;
  query_ms : float array;
  results : Vp_storage.Database.query_result array;
  load : Vp_storage.Device.stats;
  rows : int;
  chunk_s : float array;
      (** per-chunk generation time; empty unless [~time_chunks] *)
  wall_s : float;
}

let wide_key = "wide"

let store_layout runs =
  let best =
    List.fold_left
      (fun acc r ->
        match acc with
        | _ when r.key <> "tpch/lineitem" -> acc
        | Some b when b.resp.Response.cost <= r.resp.Response.cost -> acc
        | _ -> Some r)
      None runs
  in
  match best with
  | Some r -> r.resp.Response.partitioning
  | None -> invalid_arg "offline: no lineitem run"

let run_pass ?(time_chunks = false) ?(sp = no_span) inputs =
  let t0 = now () in
  let timed key algo w =
    let name = algo.Partitioner.name in
    let resp, s =
      time (fun () ->
          sp.span ("partitioner." ^ name) (fun () -> optimize algo w))
    in
    { key; algo = name; resp; ms = s *. 1000.0 }
  in
  let lineup =
    List.concat_map
      (fun (key, w) -> List.map (fun a -> timed key a w) entrants)
      inputs.lineup
  in
  let wide = List.map (fun a -> timed wide_key a inputs.wide) heuristics in
  let optimize_s = now () -. t0 in
  (* The store phase starts from a collected heap, so the optimizer's
     garbage does not move its peak memory. *)
  let gc_s = snd (time Gc.full_major) in
  let table = inputs.store_table in
  let source =
    Vp_stream.Source.of_rowgen
      (Vp_datagen.Rowgen.create ~seed:inputs.row_seed ())
      table
  in
  let chunk_s =
    if not time_chunks then [||]
    else
      Array.init (Vp_stream.Source.chunk_count source) (fun c ->
          snd
            (time (fun () ->
                 sp.span "rowgen.chunk" (fun () ->
                     Vp_stream.Source.chunk source c))))
  in
  let db, build_s =
    time (fun () ->
        sp.span "database.build" (fun () ->
            Vp_storage.Database.build ~disk ~codec:Vp_storage.Codec.Plain
              table source (store_layout lineup)))
  in
  let queries =
    Array.map
      (fun q ->
        time (fun () ->
            sp.span "database.run_query" (fun () ->
                Vp_storage.Database.run_query db q)))
      inputs.store_queries
  in
  {
    runs = lineup @ wide;
    optimize_s;
    build_s;
    query_ms = Array.map (fun (_, s) -> s *. 1000.0) queries;
    results = Array.map fst queries;
    load = Vp_storage.Database.load_stats db;
    rows = Table.row_count table;
    chunk_s;
    wall_s = now () -. t0 -. gc_s;
  }

let op_ms p =
  Array.concat
    [
      Array.of_list (List.map (fun r -> r.ms) p.runs);
      [| p.build_s *. 1000.0 |];
      p.query_ms;
    ]

(* --- the pinned reference costs --- *)

let reference_file = "perfbench/reference.json"

let cost_key r = r.key ^ "/" ^ r.algo

let pin p =
  let costs =
    List.filter_map
      (fun r ->
        if r.key = wide_key then None
        else
          Some
            ( cost_key r,
              Json.String (Printf.sprintf "%h" r.resp.Response.cost) ))
      p.runs
  in
  Json.to_file reference_file
    (Json.Obj
       [
         ("step_budget", Json.Int step_budget);
         ("lineup_sf", Json.Float lineup_sf);
         ("costs", Json.Obj costs);
       ]);
  Printf.printf "pinned %d reference costs in %s\n" (List.length costs)
    reference_file

let reference () =
  let bad what = failwith (reference_file ^ ": " ^ what) in
  match Json.of_file reference_file with
  | Error e -> bad e
  | Ok doc -> (
      (match Json.member "step_budget" doc with
      | Some (Json.Int n) when n = step_budget -> ()
      | _ -> bad "pinned under another step budget");
      match Json.member "costs" doc with
      | Some (Json.Obj kvs) ->
          List.map
            (function
              | k, Json.String s -> (k, float_of_string s)
              | k, _ -> bad ("bad cost for " ^ k))
            kvs
      | _ -> bad "no costs")

(* --- output checks --- *)

let same_float a b = Int64.bits_of_float a = Int64.bits_of_float b

let check_passes inputs passes =
  let pinned = reference () in
  let first = List.hd passes in
  List.iter
    (fun r ->
      let cost = r.resp.Response.cost in
      if r.key = wide_key then
        let full =
          Vp_cost.Io_model.workload_cost disk inputs.wide
            r.resp.Response.partitioning
        in
        check (same_float full cost) "wide %s: reported cost %h <> full cost %h"
          r.algo cost full
      else
        match List.assoc_opt (cost_key r) pinned with
        | None -> fail "no pinned cost for %s" (cost_key r)
        | Some c ->
            check (same_float c cost) "%s: cost %h <> pinned %h" (cost_key r)
              cost c)
    first.runs;
  let lineup_runs = List.length first.runs - List.length heuristics in
  check
    (List.length pinned = lineup_runs)
    "%d pinned costs for %d lineup runs" (List.length pinned) lineup_runs;
  Array.iteri
    (fun i (r : Vp_storage.Database.query_result) ->
      check (r.rows_out = first.rows) "store query %d: rows_out %d <> %d" i
        r.rows_out first.rows)
    first.results;
  List.iteri
    (fun k p ->
      if k > 0 then begin
        List.iter2
          (fun a b ->
            check
              (same_float a.resp.Response.cost b.resp.Response.cost
              && Partitioning.equal a.resp.Response.partitioning
                   b.resp.Response.partitioning)
              "pass %d: %s changed its answer" k (cost_key b))
          first.runs p.runs;
        check (p.load = first.load) "pass %d: build device stats changed" k;
        Array.iteri
          (fun i (r : Vp_storage.Database.query_result) ->
            let r0 = first.results.(i) in
            check
              (r.rows_out = r0.rows_out && r.checksum = r0.checksum
             && r.io = r0.io
              && r.values_decoded = r0.values_decoded)
              "pass %d: store query %d did not repeat exactly" k i)
          p.results
      end)
    passes

let peak_heap_mib () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words
  *. float_of_int (Sys.word_size / 8)
  /. (1024.0 *. 1024.0)

(* The timed run: whole passes while another one fits in [seconds], and at
   least three. Every pass runs the same deterministic operations in the
   same order and every output is checked for exact repetition. The host's
   speed drifts in bursts (see [Common.windowed]), so each op's time is its
   fastest over the passes. *)
let run ~seed ~seconds ~pin_reference =
  let inputs, setup_s =
    repeated_setup ~times:21 ~setup:(fun () -> inputs ~seed) ~teardown:ignore
  in
  let t0 = now () in
  let rec loop acc =
    let p = run_pass inputs in
    let acc = p :: acc in
    if List.length acc >= 3 && now () -. t0 +. p.wall_s > seconds then
      List.rev acc
    else loop acc
  in
  let passes = loop [] in
  if pin_reference then pin (List.hd passes);
  let failed_before = !failures in
  check_passes inputs passes;
  let per_op =
    let all = Array.of_list (List.map op_ms passes) in
    Array.init
      (Array.length all.(0))
      (fun i -> Array.fold_left (fun m a -> Float.min m a.(i)) infinity all)
  in
  let ops = Array.length per_op in
  let attempted = ops * List.length passes in
  let failed = min attempted (!failures - failed_before) in
  let n = List.length passes in
  let per_pass f = median (Array.of_list (List.map f passes)) in
  let scanned p =
    Array.fold_left
      (fun a (r : Vp_storage.Database.query_result) -> a + r.rows_out)
      0 p.results
  in
  let detail =
    [
      metric "setup_s" "s" setup_s ~count:21;
      metric "failed_share" "ratio"
        (float_of_int failed /. float_of_int attempted)
        ~count:attempted;
      metric "optimize_s" "s" (per_pass (fun p -> p.optimize_s)) ~count:n;
      metric "load_rows_per_s" "rows/s"
        (per_pass (fun p -> float_of_int p.rows /. p.build_s))
        ~count:n;
      metric "scan_rows_per_s" "rows/s"
        (per_pass (fun p ->
             float_of_int (scanned p) /. (sum p.query_ms /. 1000.0)))
        ~count:n;
      metric "peak_heap_mib" "MiB" (peak_heap_mib ());
    ]
  in
  let e2e =
    [
      metric "setup_s" "s" setup_s ~count:21;
      metric "ops_per_s" "1/s"
        (float_of_int ops /. (sum per_op /. 1000.0))
        ~count:attempted;
      metric "op_p50_ms" "ms" (median per_op) ~count:ops;
      metric "op_p99_ms" "ms" (percentile per_op 0.99) ~count:ops;
      metric "peak_rss_mib" "MiB" (peak_rss_mib (Unix.getpid ()));
    ]
  in
  (detail, e2e, attempted, failed)
