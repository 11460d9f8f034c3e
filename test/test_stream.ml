(* The streaming substrate: chunk determinism (any fetch order, any
   chunk size, any pool width), streamed-vs-materialized identity
   through the storage simulator (digests, build accounting, per-query
   device stats — byte for byte, including the virtual executor), the
   bounded-working-set guarantee, per-partition format selection and the
   online service's format re-pick determinism. *)

open Vp_core
module Source = Vp_stream.Source
module Format = Vp_storage.Format
module Service = Vp_online.Service

let disk =
  Vp_cost.Disk.make ~block_size:4096 ~buffer_size:(Vp_cost.Disk.mb 0.25) ()

let gen = Vp_datagen.Rowgen.create ()

let customer = Vp_benchmarks.Tpch.table ~sf:0.01 "customer"

let customer_rows = lazy (Vp_datagen.Rowgen.rows gen customer)

let customer_workload = Vp_benchmarks.Tpch.workload ~sf:0.01 "customer"

(* --- chunk determinism --- *)

let test_chunks_concat_to_rows () =
  (* Concatenating iter_chunks output is byte-identical to rows, with a
     chunk size that forces several chunks and a short tail. *)
  let rows = Lazy.force customer_rows in
  let got = ref [] in
  Vp_datagen.Rowgen.iter_chunks ~chunk_rows:64 gen customer
    (fun ~first_row chunk ->
      Alcotest.(check int)
        "first_row tracks position" (64 * List.length !got) first_row;
      got := chunk :: !got);
  let concat = Array.concat (List.rev !got) in
  Alcotest.(check int) "row count" (Array.length rows) (Array.length concat);
  Alcotest.(check bool) "rows identical" true
    (Array.for_all2
       (fun a b -> Array.for_all2 Value.equal a b)
       rows concat)

let test_chunk_fetch_order_free () =
  (* chunk s i depends only on i — never on which chunks were fetched
     before or in what order. *)
  let s = Source.of_rowgen ~chunk_rows:100 gen customer in
  let n = Source.chunk_count s in
  let forward = List.init n (Source.chunk s) in
  let s2 = Source.of_rowgen ~chunk_rows:100 gen customer in
  let backward =
    List.rev (List.rev_map (Source.chunk s2) (List.init n Fun.id))
  in
  Alcotest.(check bool) "any fetch order, same chunks" true (forward = backward);
  (* Re-fetching after other fetches is also stable. *)
  Alcotest.(check bool) "re-fetch stable" true
    (Source.chunk s 0 = List.hd forward)

let prop_chunking_invariant =
  QCheck2.Test.make ~name:"any chunk size concatenates to the same rows"
    ~count:30
    QCheck2.Gen.(int_range 1 400)
    (fun chunk_rows ->
      let s = Source.of_rowgen ~chunk_rows gen customer in
      let rows = Lazy.force customer_rows in
      Source.row_count s = Array.length rows
      && Array.for_all2
           (fun a b -> Array.for_all2 Value.equal a b)
           (Source.materialize s) rows)

(* The identity checks below run on two inputs: this suite's small one
   (customer at SF 0.01 on a 4 KiB / 0.25 MiB disk, chunked by 128 rows
   for the digests) and the streaming pipeline's own setting, lineitem
   at SF 0.1 on the experiments' default disk: 600,000 rows over ten
   default-size chunks, so the streamed side crosses chunk boundaries
   and every scan refills its buffer share several times. The large
   input materializes about 250 MiB of rows, so its cases are [`Slow]. *)
type input = {
  disk : Vp_cost.Disk.t;
  table : Table.t;
  workload : Workload.t;
  chunk_rows : int option;
}

let small =
  { disk; table = customer; workload = customer_workload; chunk_rows = Some 128 }

let large =
  {
    disk = Vp_experiments.Common.disk;
    table = Vp_benchmarks.Tpch.table ~sf:0.1 "lineitem";
    workload = Vp_benchmarks.Tpch.workload ~sf:0.1 "lineitem";
    chunk_rows = None;
  }

let test_digest_jobs_invariant () =
  let s () = Source.of_rowgen ~chunk_rows:128 gen customer in
  let at jobs =
    Vp_parallel.Pool.with_pool ~jobs @@ fun pool ->
    Source.digest ~pool (s ())
  in
  let sequential = Source.digest (s ()) in
  Alcotest.(check int) "jobs 1 = sequential" sequential (at 1);
  Alcotest.(check int) "jobs 4 = sequential" sequential (at 4)

let test_digest_streamed_vs_materialized { table; chunk_rows; _ } () =
  let streamed = Source.of_rowgen ?chunk_rows gen table in
  let materialized =
    Source.of_rows ?chunk_rows table (Vp_datagen.Rowgen.rows gen table)
  in
  Alcotest.(check int) "same digest" (Source.digest streamed)
    (Source.digest materialized)

(* --- streamed vs materialized through the storage simulator --- *)

let layout table = Partitioning.column (Table.attribute_count table)

let test_build_streamed_vs_materialized { disk; table; workload; _ } () =
  (* Building from the generator stream and from the materialized rows
     must agree exactly: transform and load accounting, bytes on disk,
     and every query's device stats, CPU and checksum. The materialized
     side goes first, so its rows are garbage before the streamed build. *)
  let layout = layout table in
  let queries = Workload.queries workload in
  let build source =
    Vp_storage.Database.build ~disk ~codec:Vp_storage.Codec.Plain table
      source layout
  in
  let transform_m, load_m, bytes_m, results_m =
    let materialized =
      Source.of_rows table (Vp_datagen.Rowgen.rows gen table)
    in
    let db = build materialized in
    ( Vp_storage.Creation.transform ~disk table materialized layout,
      Vp_storage.Database.load_stats db,
      Vp_storage.Database.bytes_on_disk db,
      Array.map (Vp_storage.Database.run_query db) queries )
  in
  let streamed = Source.of_rowgen gen table in
  Alcotest.(check bool) "transform identical" true
    (Vp_storage.Creation.transform ~disk table streamed layout = transform_m);
  let db_s = build streamed in
  Alcotest.(check bool) "load stats identical" true
    (Vp_storage.Database.load_stats db_s = load_m);
  Alcotest.(check int) "bytes on disk" bytes_m
    (Vp_storage.Database.bytes_on_disk db_s);
  Array.iteri
    (fun i q ->
      Alcotest.(check bool)
        (Printf.sprintf "query %s identical" (Query.name q))
        true
        (Vp_storage.Database.run_query db_s q = results_m.(i)))
    queries

let test_virtual_vs_materialized_io { disk; table; workload; _ } () =
  (* The accounting-only build replays the materialized scan's refill
     schedule bit for bit — for every codec kind, including the
     variable-stride one (whose virtual path needs a width pass and
     explicit block row-maps). *)
  let formats =
    List.mapi
      (fun i _ ->
        match i mod 3 with
        | 0 -> Vp_storage.Codec.Plain
        | 1 -> Vp_storage.Codec.Dictionary
        | _ -> Vp_storage.Codec.Varlen)
      (Partitioning.groups (layout table))
  in
  let build retain source =
    Vp_storage.Database.build ~retain ~disk ~codec:Vp_storage.Codec.Plain
      ~formats table source (layout table)
  in
  let db_v = build false (Source.of_rowgen gen table) in
  let db_m =
    build true (Source.of_rows table (Vp_datagen.Rowgen.rows gen table))
  in
  Alcotest.(check bool) "load stats identical" true
    (Vp_storage.Database.load_stats db_v
    = Vp_storage.Database.load_stats db_m);
  Array.iter
    (fun q ->
      let v = Vp_storage.Database.run_query db_v q in
      let m = Vp_storage.Database.run_query db_m q in
      Alcotest.(check bool)
        (Printf.sprintf "%s: io bit-identical" (Query.name q))
        true
        (v.Vp_storage.Database.io = m.Vp_storage.Database.io);
      Alcotest.(check int)
        (Printf.sprintf "%s: values accounted" (Query.name q))
        m.Vp_storage.Database.values_decoded
        v.Vp_storage.Database.values_decoded;
      Alcotest.(check int)
        (Printf.sprintf "%s: rows out" (Query.name q))
        m.Vp_storage.Database.rows_out v.Vp_storage.Database.rows_out;
      Alcotest.(check int)
        (Printf.sprintf "%s: virtual checksum" (Query.name q))
        0 v.Vp_storage.Database.checksum;
      Alcotest.(check (Testutil.close ~eps:1e-9 ()))
        (Printf.sprintf "%s: cpu seconds" (Query.name q))
        m.Vp_storage.Database.cpu_seconds v.Vp_storage.Database.cpu_seconds)
    (Workload.queries workload)

let test_streaming_bounded_heap () =
  (* Streaming many more rows than the chunk size must not grow the
     major heap by anything near the materialized table's footprint: the
     working set is one chunk (plus pool slack), not the stream. *)
  let table =
    Table.make ~name:"wide_stream"
      ~attributes:
        (List.init 8 (fun i ->
             Attribute.make (Printf.sprintf "a%d" i) (Attribute.Varchar 32)))
      ~row_count:120_000
  in
  let s = Source.of_rowgen ~chunk_rows:2_000 gen table in
  let before = (Gc.quick_stat ()).Gc.top_heap_words in
  let rows = ref 0 in
  Source.iter s (fun ~first_row:_ c -> rows := !rows + Array.length c);
  let after = (Gc.quick_stat ()).Gc.top_heap_words in
  Alcotest.(check int) "streamed everything" 120_000 !rows;
  let delta_mb =
    float_of_int ((after - before) * (Sys.word_size / 8))
    /. (1024.0 *. 1024.0)
  in
  (* 120k rows x 8 strings materialize to tens of MB; the stream must
     stay an order of magnitude under that. *)
  Alcotest.(check bool)
    (Printf.sprintf "heap delta %.1f MiB bounded" delta_mb)
    true (delta_mb < 8.0)

(* --- per-partition format selection --- *)

let test_sample_stats_exact () =
  let table =
    Table.make ~name:"stats"
      ~attributes:
        [
          Attribute.make "id" Attribute.Int32;
          Attribute.make "tag" (Attribute.Varchar 16);
        ]
      ~row_count:90
  in
  let rows =
    Array.init 90 (fun i ->
        [| Value.Int i; Value.Str (Printf.sprintf "tag%d" (i mod 7)) |])
  in
  let stats = Format.sample_stats (Source.of_rows ~chunk_rows:32 table rows) in
  Alcotest.(check int) "numeric distinct unused" 0 stats.(0).Format.distinct;
  Alcotest.(check int) "string distinct exact" 7 stats.(1).Format.distinct;
  Alcotest.(check (Testutil.close ~eps:1e-9 ()))
    "avg string length" 4.0 stats.(1).Format.avg_len

(* At this suite's small disk and SF 0.1, and under the experiments'
   default setting (default disk, SF 10). *)
let test_choose_never_worse_than_plain () =
  List.iter
    (fun (disk, sf) ->
      List.iter
        (fun w ->
          let table = Workload.table w in
          let layout = Partitioning.column (Table.attribute_count table) in
          let stats = Format.schema_stats table in
          let chosen = Format.choose disk table w layout stats in
          let plain = Format.plain table layout in
          let c_chosen = Format.scan_cost disk table w layout chosen in
          let c_plain = Format.scan_cost disk table w layout plain in
          Alcotest.(check bool)
            (Printf.sprintf "%s at SF %g: chosen <= plain" (Table.name table)
               sf)
            true
            (c_chosen <= c_plain +. 1e-9))
        (Vp_benchmarks.Tpch.workloads ~sf))
    [
      (disk, 0.1);
      (Vp_experiments.Common.disk, Vp_experiments.Common.sf);
    ]

let test_choose_dictionary_for_low_cardinality () =
  (* A wide, low-cardinality string column is the dictionary codec's
     home turf: 2-byte codes against a 64-byte plain slot. *)
  let table =
    Table.make ~name:"dict_win"
      ~attributes:
        [
          Attribute.make "k" Attribute.Int32;
          Attribute.make "status" (Attribute.Varchar 64);
        ]
      ~row_count:50_000
  in
  let layout = Partitioning.column 2 in
  let w =
    Workload.make table
      [
        Query.make ~name:"scan_status"
          ~references:(Table.attr_set_of_names table [ "status" ])
          ();
      ]
  in
  let chosen = Format.choose disk table w layout (Format.schema_stats table) in
  let status_kind = List.nth (Format.kinds chosen) 1 in
  Alcotest.(check bool) "dictionary chosen for the string column" true
    (status_kind = Vp_storage.Codec.Dictionary)

let test_sized_cost_matches_groups () =
  (* query_cost_sized with schema widths coincides bit for bit with
     query_cost_groups — the sized model is a strict generalization. *)
  let table = customer in
  let layout = layout customer in
  Array.iter
    (fun q ->
      let refs = Query.references q in
      let referenced =
        List.filter
          (fun g -> Attr_set.intersects g refs)
          (Partitioning.groups layout)
      in
      let by_groups = Vp_cost.Io_model.query_cost_groups disk table referenced in
      let by_sizes =
        Vp_cost.Io_model.query_cost_sized disk ~rows:(Table.row_count table)
          (List.map (Table.subset_size table) referenced)
      in
      Alcotest.(check (float 0.0))
        (Printf.sprintf "%s: sized = groups" (Query.name q))
        by_groups by_sizes)
    (Workload.queries customer_workload)

let test_format_of_kinds_roundtrip () =
  let table = customer in
  let stats = Format.schema_stats table in
  let layout = layout customer in
  let chosen = Format.choose disk table customer_workload layout stats in
  let rebuilt = Format.of_kinds table stats layout (Format.kinds chosen) in
  Alcotest.(check bool) "kinds -> of_kinds round-trips" true
    (Format.equal chosen rebuilt)

let test_migration_cost_properties () =
  let table = customer in
  let stats = Format.schema_stats table in
  let layout = layout customer in
  let plain = Format.plain table layout in
  let chosen = Format.choose disk table customer_workload layout stats in
  Alcotest.(check (float 0.0))
    "no change, no cost" 0.0
    (Format.migration_cost disk table plain plain);
  if not (Format.equal chosen plain) then
    Alcotest.(check bool) "changed fragments cost time" true
      (Format.migration_cost disk table plain chosen > 0.0)

(* --- the online service's format re-pick --- *)

let drift_stream =
  lazy
    (Vp_benchmarks.Synthetic.drift_workload ~seed:17L ~rows:50_000
       ~attributes:8 ~clusters:3 ~queries:120 ~scatter:0.05 ~drift_at:0.5 ())

let service_config ?(jobs = 1) ~formats () =
  let disk =
    Vp_cost.Disk.with_buffer_size Vp_cost.Disk.default (Vp_cost.Disk.mb 1.0)
  in
  Service.default_config ~drift_ratio:2.0 ~min_window:8 ~epoch:64 ~memory:32
    ~horizon:1.0 ~jobs ~formats ~disk
    ~panel:[ Vp_algorithms.Hillclimb.algorithm ]
    ()

let run_service ?(jobs = 1) ~formats () =
  let w = Lazy.force drift_stream in
  let svc = Service.create (service_config ~jobs ~formats ()) (Workload.table w) in
  Array.iter (Service.ingest svc) (Workload.queries w);
  svc

let test_online_formats_deterministic () =
  let a = run_service ~formats:true () in
  let b = run_service ~formats:true () in
  let c = run_service ~jobs:4 ~formats:true () in
  Alcotest.(check string)
    "byte-identical history across runs" (Service.history a)
    (Service.history b);
  Alcotest.(check string)
    "history independent of --jobs" (Service.history a) (Service.history c)

let test_online_formats_off_is_pure_layout_history () =
  (* The format re-pick reads layout decisions but never feeds back into
     them: with formats on, stripping the format lines must leave
     exactly the formats-off history. *)
  let on = run_service ~formats:true () in
  let off = run_service ~formats:false () in
  Alcotest.(check int) "formats off records no format events" 0
    (List.length (Service.format_events off));
  let layout_lines_of svc =
    String.concat ""
      (List.map
         (fun e -> Service.event_line e ^ "\n")
         (Service.events svc))
  in
  Alcotest.(check string) "layout decisions unaffected"
    (Service.history off) (layout_lines_of on);
  List.iter
    (fun (e : Service.format_event) ->
      (match e.Service.f_verdict with
      | Service.Adopted ->
          Alcotest.(check bool) "adopted re-picks improve" true
            (e.Service.f_cost_after < e.Service.f_cost_before)
      | Service.Rejected -> ());
      Alcotest.(check bool) "format vector parses non-empty" true
        (String.length e.Service.f_formats > 0))
    (Service.format_events on)

let test_online_formats_snapshot_roundtrip () =
  let w = Lazy.force drift_stream in
  let qs = Workload.queries w in
  let n = Array.length qs in
  let reference = run_service ~formats:true () in
  let expect = Service.history reference in
  let live = Service.create (service_config ~formats:true ()) (Workload.table w) in
  for k = 0 to n do
    if k mod 30 = 0 || k = n then begin
      let snap = Service.snapshot live in
      let restored =
        match Service.restore (service_config ~formats:true ()) snap with
        | Ok s -> s
        | Error msg -> Alcotest.failf "restore at boundary %d: %s" k msg
      in
      Alcotest.(check string)
        (Printf.sprintf "boundary %d: snapshot round-trips" k)
        snap
        (Service.snapshot restored);
      Alcotest.(check bool)
        (Printf.sprintf "boundary %d: formats restored" k)
        true
        (Format.equal (Service.formats live) (Service.formats restored));
      for i = k to n - 1 do
        Service.ingest restored qs.(i)
      done;
      Alcotest.(check string)
        (Printf.sprintf "boundary %d: history byte-identical" k)
        expect (Service.history restored)
    end;
    if k < n then Service.ingest live qs.(k)
  done

let suite =
  [
    Alcotest.test_case "chunks concat to rows" `Quick test_chunks_concat_to_rows;
    Alcotest.test_case "chunk fetch order free" `Quick
      test_chunk_fetch_order_free;
    Alcotest.test_case "streaming bounded heap" `Quick
      test_streaming_bounded_heap;
    Alcotest.test_case "digest jobs invariant" `Quick test_digest_jobs_invariant;
    Alcotest.test_case "digest streamed = materialized" `Quick
      (test_digest_streamed_vs_materialized small);
    Alcotest.test_case "build streamed = materialized" `Quick
      (test_build_streamed_vs_materialized small);
    Alcotest.test_case "virtual io = materialized io" `Quick
      (test_virtual_vs_materialized_io small);
    Alcotest.test_case "SF 0.1 digest streamed = materialized" `Slow
      (test_digest_streamed_vs_materialized large);
    Alcotest.test_case "SF 0.1 build streamed = materialized" `Slow
      (test_build_streamed_vs_materialized large);
    Alcotest.test_case "SF 0.1 virtual io = materialized io" `Slow
      (test_virtual_vs_materialized_io large);
    Alcotest.test_case "sample stats exact" `Quick test_sample_stats_exact;
    Alcotest.test_case "choose never worse than plain" `Quick
      test_choose_never_worse_than_plain;
    Alcotest.test_case "dictionary for low cardinality" `Quick
      test_choose_dictionary_for_low_cardinality;
    Alcotest.test_case "sized cost = group cost" `Quick
      test_sized_cost_matches_groups;
    Alcotest.test_case "format of_kinds roundtrip" `Quick
      test_format_of_kinds_roundtrip;
    Alcotest.test_case "migration cost properties" `Quick
      test_migration_cost_properties;
    Alcotest.test_case "online formats deterministic" `Quick
      test_online_formats_deterministic;
    Alcotest.test_case "formats off = pure layout history" `Quick
      test_online_formats_off_is_pure_layout_history;
    Alcotest.test_case "formats snapshot roundtrip" `Quick
      test_online_formats_snapshot_roundtrip;
    Testutil.qtest prop_chunking_invariant;
  ]
