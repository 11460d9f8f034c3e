(* Golden layout tests: freeze the layouts the deterministic algorithms
   compute for TPC-H under the default setting (the content of the paper's
   Figure 14). Any change to an algorithm, the cost model or the workload
   encoding that alters a layout shows up here. *)

open Vp_core

let disk = Vp_cost.Disk.default

let layout_of algo_name table_name =
  let w = Vp_benchmarks.Tpch.workload ~sf:10.0 table_name in
  let a = Vp_algorithms.Registry.find algo_name in
  let oracle = Vp_cost.Io_model.oracle disk w in
  (Workload.table w, (Partitioner.exec a (Testutil.request ~cost:oracle w)).Partitioner.Response.partitioning)

let check_layout algo_name table_name expected_groups =
  let table, got = layout_of algo_name table_name in
  let expected = Partitioning.of_names table expected_groups in
  Alcotest.(check Testutil.partitioning)
    (Printf.sprintf "%s on %s" algo_name table_name)
    expected got

let test_hillclimb_customer () =
  check_layout "HillClimb" "customer"
    [
      [ "CustKey" ]; [ "Name" ]; [ "Address"; "Comment" ]; [ "NationKey" ];
      [ "Phone"; "AcctBal" ]; [ "MktSegment" ];
    ]

let test_hillclimb_partsupp () =
  check_layout "HillClimb" "partsupp"
    [ [ "PartKey"; "SuppKey" ]; [ "AvailQty" ]; [ "SupplyCost" ]; [ "Comment" ] ]

let test_hillclimb_orders_all_singletons () =
  let _, got = layout_of "HillClimb" "orders" in
  Alcotest.(check int) "9 singleton groups" 9 (Partitioning.group_count got)

let test_hillclimb_lineitem () =
  check_layout "HillClimb" "lineitem"
    [
      [ "OrderKey" ]; [ "PartKey" ]; [ "SuppKey" ]; [ "LineNumber" ];
      [ "Quantity" ]; [ "ExtendedPrice"; "Discount" ]; [ "Tax"; "LineStatus" ];
      [ "ReturnFlag" ]; [ "ShipDate" ]; [ "CommitDate"; "ReceiptDate" ];
      [ "ShipInstruct" ]; [ "ShipMode" ]; [ "Comment" ];
    ]

let test_autopart_lineitem_groups_unreferenced () =
  (* The paper's Appendix B detail: AutoPart groups the two unreferenced
     attributes, HillClimb leaves them apart; otherwise identical. *)
  check_layout "AutoPart" "lineitem"
    [
      [ "OrderKey" ]; [ "PartKey" ]; [ "SuppKey" ];
      [ "LineNumber"; "Comment" ]; [ "Quantity" ];
      [ "ExtendedPrice"; "Discount" ]; [ "Tax"; "LineStatus" ];
      [ "ReturnFlag" ]; [ "ShipDate" ]; [ "CommitDate"; "ReceiptDate" ];
      [ "ShipInstruct" ]; [ "ShipMode" ];
    ]

let test_autopart_supplier () =
  check_layout "AutoPart" "supplier"
    [
      [ "SuppKey"; "NationKey" ]; [ "Name" ]; [ "Address" ];
      [ "Phone"; "AcctBal" ]; [ "Comment" ];
    ]

let test_nation_region () =
  check_layout "HillClimb" "region" [ [ "RegionKey"; "Name" ]; [ "Comment" ] ];
  check_layout "HillClimb" "nation"
    [ [ "NationKey"; "Name"; "RegionKey" ]; [ "Comment" ] ]

let test_hillclimb_class_agrees () =
  (* AutoPart, HYRISE, BruteForce and HillClimb must have identical costs
     on every table (the paper's "HillClimb class"). *)
  List.iter
    (fun table_name ->
      let w = Vp_benchmarks.Tpch.workload ~sf:10.0 table_name in
      let oracle = Vp_cost.Io_model.oracle disk w in
      let cost name =
        (Partitioner.exec
           (Vp_algorithms.Registry.find name)
           (Testutil.request ~cost:oracle w))
          .Partitioner.Response.cost
      in
      let hc = cost "HillClimb" in
      List.iter
        (fun name ->
          Alcotest.(check (Testutil.close ~eps:1e-6 ()))
            (Printf.sprintf "%s = HillClimb on %s" name table_name)
            hc (cost name))
        [ "AutoPart"; "HYRISE" ])
    Vp_benchmarks.Tpch.table_names

(* Navathe/O2P must stay in the "second class": different layouts than
   HillClimb on the big tables. *)
let test_second_class_differs () =
  List.iter
    (fun table_name ->
      let _, hc = layout_of "HillClimb" table_name in
      let _, navathe = layout_of "Navathe" table_name in
      Alcotest.(check bool)
        (Printf.sprintf "Navathe differs on %s" table_name)
        false
        (Partitioning.equal hc navathe))
    [ "customer"; "lineitem"; "orders"; "partsupp"; "supplier" ]

(* SSB sanity: every algorithm yields valid partitionings there too. *)
let test_ssb_validity () =
  List.iter
    (fun w ->
      let oracle = Vp_cost.Io_model.oracle disk w in
      List.iter
        (fun (a : Partitioner.t) ->
          let r = Partitioner.exec a (Testutil.request ~cost:oracle w) in
          Alcotest.(check bool)
            (Printf.sprintf "%s on ssb %s" a.Partitioner.name
               (Table.name (Workload.table w)))
            true
            (Testutil.valid_partitioning_of_workload r.Partitioner.Response.partitioning
               w))
        (Vp_algorithms.Registry.six @ Vp_algorithms.Registry.baselines))
    (Vp_benchmarks.Ssb.workloads ~sf:10.0)

(* Regression bands for the headline aggregates, so drift in any component
   that moves the reproduced results is caught immediately. *)
let test_reproduction_bands () =
  let total name = (Vp_experiments.Common.find_run name).total_cost in
  let band name lo hi =
    let v = total name in
    Alcotest.(check bool)
      (Printf.sprintf "%s in [%g, %g] (got %g)" name lo hi v)
      true (v >= lo && v <= hi)
  in
  band "HillClimb" 380.0 440.0;
  band "BruteForce" 380.0 440.0;
  band "Column" 395.0 445.0;
  band "Row" 1900.0 2200.0;
  band "Navathe" 450.0 700.0;
  band "O2P" 450.0 700.0;
  band "Trojan" 380.0 460.0;
  let entries name =
    Vp_experiments.Common.entries_of (Vp_experiments.Common.find_run name)
  in
  let unnecessary name =
    Vp_metrics.Measures.Aggregate.unnecessary_data_read disk (entries name)
  in
  Alcotest.(check bool) "HC waste < 5%" true (unnecessary "HillClimb" < 0.05);
  Alcotest.(check bool) "Navathe waste 15-45%" true
    (unnecessary "Navathe" > 0.15 && unnecessary "Navathe" < 0.45);
  Alcotest.(check bool) "Row waste ~83%" true
    (unnecessary "Row" > 0.75 && unnecessary "Row" < 0.90)

(* --- observability goldens ---

   The Chrome trace exporter is a wire format: downstream tooling
   (chrome://tracing) parses it, so its exact shape is frozen against a
   checked-in golden file. The fixture uses fixed ids and timestamps,
   which makes the output deterministic without any normalization pass.
   Regenerate after an intentional format change with

     cd test && VP_UPDATE_GOLDEN=1 ../_build/default/test/test_main.exe test golden *)

let update_goldens = Sys.getenv_opt "VP_UPDATE_GOLDEN" = Some "1"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let check_golden name path actual =
  if update_goldens then begin
    let oc = open_out_bin path in
    output_string oc actual;
    close_out oc
  end
  else Alcotest.(check string) name (read_file path) actual

let golden_events =
  [
    {
      Vp_observe.Trace.id = 1; parent = -1; name = "experiment"; domain = 0;
      start_ns = 1_000L; dur_ns = 5_000_000L; args = [];
    };
    {
      Vp_observe.Trace.id = 2; parent = 1; name = "algo:HillClimb"; domain = 0;
      start_ns = 501_000L; dur_ns = 2_250_000L; args = [ ("table", "partsupp") ];
    };
    {
      Vp_observe.Trace.id = 3; parent = 2; name = "pool:cell"; domain = 1;
      start_ns = 1_001_000L; dur_ns = 400_000L; args = [];
    };
  ]

let test_chrome_trace_golden () =
  let actual =
    Vp_observe.Json.to_string ~pretty:true
      (Vp_observe.Trace.to_chrome golden_events)
    ^ "\n"
  in
  check_golden "chrome trace export" "golden/trace_chrome.golden.json" actual

(* --- optimizer stats golden ---

   Every offline entrant of the repo benchmark, on TPC-H lineitem and on
   the 48-attribute synthetic table, under the benchmark's 2,500-step
   budget with the I/O oracle and its incremental sessions; the
   heuristics also under the main-memory oracle on the reference session. The
   cost bit pattern, the layout and the search counters are frozen, so
   a change to the search bookkeeping (attribute sets, partitioning
   construction, either pricing session) that alters any answer or any
   counter fails here. *)

let stats_step_budget = 2_500

let stats_entrants =
  Vp_algorithms.Registry.six
  @ [
      Vp_algorithms.Brute_force.make
        ~lower_bound:(Vp_cost.Bounds.io_brute_force disk)
        ();
      Vp_algorithms.Ilp.with_bound disk;
      Vp_algorithms.Hypergraph.algorithm;
    ]

let stats_heuristics =
  Vp_algorithms.Registry.six @ [ Vp_algorithms.Hypergraph.algorithm ]

(* The wide table of the benchmark's offline workload at seed 1. *)
let stats_wide () =
  Vp_benchmarks.Synthetic.workload
    ~seed:(Vp_robust.Mix.mix64 (Int64.add 7919L 1L))
    ~attributes:48 ~clusters:8 ~queries:60 ~scatter:0.2 ()

let stats_run ?delta ~cost w (a : Partitioner.t) =
  let budget = Vp_robust.Budget.create ~max_steps:stats_step_budget () in
  Partitioner.exec a (Testutil.request ~budget ?delta ~cost w)

let render_stats key (a : Partitioner.t) (r : Partitioner.Response.t) =
  let s = r.Partitioner.Response.stats in
  Printf.sprintf "%s %s cost=%h cost_calls=%d candidates=%d iterations=%d %s\n"
    key a.Partitioner.name r.Partitioner.Response.cost s.Partitioner.cost_calls
    s.Partitioner.candidates s.Partitioner.iterations
    (Partitioning.to_string r.Partitioner.Response.partitioning)

let stats_line key w a =
  render_stats key a
    (stats_run
       ~delta:(Vp_cost.Io_model.Incremental.factory disk w)
       ~cost:(Vp_cost.Io_model.oracle disk w)
       w a)

(* The heuristics under the main-memory model, which has no incremental
   session: its requests carry the reference session, as these do. *)
let memory_stats_line key w a =
  render_stats ("memory/" ^ key) a
    (stats_run
       ~cost:(Vp_cost.Memory_model.oracle Vp_cost.Memory_model.default w)
       w a)

let test_optimizer_stats_golden () =
  let lineitem = Vp_benchmarks.Tpch.workload ~sf:10.0 "lineitem" in
  let wide = stats_wide () in
  let actual =
    String.concat ""
      (List.map (stats_line "tpch/lineitem" lineitem) stats_entrants
      @ List.map (stats_line "wide" wide) stats_heuristics
      @ List.map (memory_stats_line "tpch/lineitem" lineitem) stats_heuristics
      @ List.map (memory_stats_line "wide" wide) stats_heuristics)
  in
  check_golden "optimizer stats" "golden/optimizer_stats.golden.txt" actual

(* The work behind each "optimizer stats" line: the cost-model and budget
   counter deltas of the same run under [Switch.Stats]. Pins that a change
   to the cost kernel re-costs and merge-folds exactly the queries it did
   before. *)
let stats_counters =
  [
    "cost.query_costs";
    "cost.merge_folds";
    "cost.delta_evals";
    "cost.oracle_calls";
    "budget.steps";
  ]

let counter_line key w (a : Partitioner.t) =
  let value name = Vp_observe.Stats.(counter_value (snapshot ()) name) in
  Vp_observe.Switch.with_level Vp_observe.Switch.Stats (fun () ->
      let before = List.map value stats_counters in
      ignore (stats_line key w a);
      let deltas =
        List.map2
          (fun name b -> Printf.sprintf " %s=%d" name (value name - b))
          stats_counters before
      in
      Printf.sprintf "%s %s%s\n" key a.Partitioner.name (String.concat "" deltas))

let test_optimizer_counters_golden () =
  let lineitem = Vp_benchmarks.Tpch.workload ~sf:10.0 "lineitem" in
  let wide = stats_wide () in
  let actual =
    String.concat ""
      (List.map (counter_line "tpch/lineitem" lineitem) stats_entrants
      @ List.map (counter_line "wide" wide) stats_heuristics)
  in
  check_golden "optimizer counters" "golden/optimizer_counters.golden.txt"
    actual

(* A request from [Io_model.request] prices every search through its
   incremental session, including the searches that price partitionings
   they have built themselves: under the counters' budget only the final
   cost of the answer calls the oracle. *)
let test_one_oracle_call () =
  let w = Vp_benchmarks.Tpch.workload ~sf:10.0 "lineitem" in
  let value () =
    Vp_observe.Stats.(counter_value (snapshot ()) "cost.oracle_calls")
  in
  List.iter
    (fun (a : Partitioner.t) ->
      Vp_observe.Switch.with_level Vp_observe.Switch.Stats (fun () ->
          let before = value () in
          let budget =
            Vp_robust.Budget.create ~max_steps:stats_step_budget ()
          in
          ignore (Partitioner.exec a (Vp_cost.Io_model.request ~budget disk w));
          Alcotest.(check int)
            (a.Partitioner.name ^ " on lineitem: oracle calls")
            1
            (value () - before)))
    [
      Vp_algorithms.Navathe.algorithm;
      Vp_algorithms.Trojan.algorithm;
      Vp_algorithms.Hillclimb.with_dictionary;
    ]

(* --- exact searches golden ---

   The two branch-and-bound searches and Hypergraph on every TPC-H and
   SSB table of the benchmark's offline line-up, with the I/O bound and
   the request shape of "optimizer stats", plus BruteForce under the
   main-memory model and its bound (reference session) on every TPC-H
   table. Each line is an "optimizer stats" line followed by the
   query re-cost, merge fold and budget step deltas of the run, so a change to the
   search drivers or their bounds that alters any answer, any counter or
   any pruning decision fails here. *)

let exact_counters = [ "cost.query_costs"; "cost.merge_folds"; "budget.steps" ]

let exact_line key w (a : Partitioner.t) ~cost ?delta () =
  let value name = Vp_observe.Stats.(counter_value (snapshot ()) name) in
  Vp_observe.Switch.with_level Vp_observe.Switch.Stats (fun () ->
      let before = List.map value exact_counters in
      let budget = Vp_robust.Budget.create ~max_steps:stats_step_budget () in
      let r =
        Partitioner.exec a (Testutil.request ~budget ?delta ~cost w)
      in
      let s = r.Partitioner.Response.stats in
      let deltas =
        List.map2
          (fun name b -> Printf.sprintf " %s=%d" name (value name - b))
          exact_counters before
      in
      Printf.sprintf
        "%s %s cost=%h cost_calls=%d candidates=%d iterations=%d %s%s\n" key
        a.Partitioner.name r.Partitioner.Response.cost
        s.Partitioner.cost_calls s.Partitioner.candidates
        s.Partitioner.iterations
        (Partitioning.to_string r.Partitioner.Response.partitioning)
        (String.concat "" deltas))

let test_exact_searches_golden () =
  let named bench ws =
    List.map (fun w -> (bench ^ "/" ^ Table.name (Workload.table w), w)) ws
  in
  let lineup =
    named "tpch" (Vp_benchmarks.Tpch.workloads ~sf:10.0)
    @ named "ssb" (Vp_benchmarks.Ssb.workloads ~sf:10.0)
  in
  let io_line (key, w) a =
    exact_line key w a
      ~cost:(Vp_cost.Io_model.oracle disk w)
      ~delta:(Vp_cost.Io_model.Incremental.factory disk w)
      ()
  in
  let io_entrants =
    [
      Vp_algorithms.Brute_force.make
        ~lower_bound:(Vp_cost.Bounds.io_brute_force disk)
        ();
      Vp_algorithms.Ilp.with_bound disk;
      Vp_algorithms.Hypergraph.algorithm;
    ]
  in
  let mm = Vp_cost.Memory_model.default in
  let memory_bf =
    Vp_algorithms.Brute_force.make
      ~lower_bound:(Vp_cost.Bounds.memory_brute_force mm)
      ()
  in
  let memory_line (key, w) =
    exact_line ("memory/" ^ key) w memory_bf
      ~cost:(Vp_cost.Memory_model.oracle mm w)
      ()
  in
  (* More than 62 queries with uneven weights, so Hypergraph's query
     bitsets span two words and its edge weights add non-integer floats. *)
  let many_queries =
    let w =
      Vp_benchmarks.Synthetic.workload ~seed:23L ~attributes:40 ~clusters:8
        ~queries:80 ~scatter:0.3 ()
    in
    Workload.make (Workload.table w)
      (List.mapi
         (fun i q ->
           Query.make
             ~weight:(0.1 +. (0.37 *. float_of_int (i mod 7)))
             ~name:(Query.name q) ~references:(Query.references q) ())
         (Array.to_list (Workload.queries w)))
  in
  let actual =
    String.concat ""
      (List.concat_map
         (fun kw -> List.map (io_line kw) io_entrants)
         lineup
      @ List.map memory_line
          (named "tpch" (Vp_benchmarks.Tpch.workloads ~sf:10.0))
      @ [ io_line ("synthetic/q80", many_queries) Vp_algorithms.Hypergraph.algorithm ])
  in
  check_golden "exact searches" "golden/exact_searches.golden.txt" actual

(* --- storage simulator golden ---

   The generated data and the storage simulator's accounting at SF 0.01:
   the stream digest of every TPC-H and SSB table (4,096-row chunks, so
   every table of any size spans several), and for lineitem, orders and
   partsupp under Row, Column and HillClimb layouts, every codec and
   three buffer sizes, each partition file's geometry and each query's
   rows, checksum, I/O, decoded-value count and CPU bit pattern. A
   change to the generators, the encoder or the executor that alters any
   generated value, encoded byte or accounted number fails here. *)

let storage_sf = 0.01

let storage_buffers = [ ("8MiB", Vp_cost.Disk.mb 8.0); ("64KiB", 65_536); ("16KiB", 16_384) ]

let storage_codecs = Vp_storage.Codec.[ Plain; Dictionary; Varlen ]

let storage_digest_lines () =
  let gen = Vp_datagen.Rowgen.create () in
  List.map
    (fun (bench, tables) ->
      String.concat ""
        (List.map
           (fun t ->
             let s = Vp_stream.Source.of_rowgen ~chunk_rows:4_096 gen t in
             Printf.sprintf "digest %s/%s rows=%d %x\n" bench (Table.name t)
               (Vp_stream.Source.row_count s) (Vp_stream.Source.digest s))
           tables))
    [
      ("tpch", Vp_benchmarks.Tpch.tables ~sf:storage_sf);
      ("ssb", Vp_benchmarks.Ssb.tables ~sf:storage_sf);
    ]

let storage_table_lines table_name =
  let gen = Vp_datagen.Rowgen.create () in
  let w = Vp_benchmarks.Tpch.workload ~sf:storage_sf table_name in
  let table = Workload.table w in
  let n = Table.attribute_count table in
  let source = Vp_stream.Source.of_rowgen gen table in
  let hillclimb =
    (Partitioner.exec
       (Vp_algorithms.Registry.find "HillClimb")
       (Testutil.request ~cost:(Vp_cost.Io_model.oracle disk w) w))
      .Partitioner.Response.partitioning
  in
  let b = Buffer.create 4096 in
  List.iter
    (fun (layout_name, layout) ->
      List.iter
        (fun codec ->
          List.iter
            (fun (buffer_name, buffer_size) ->
              let disk = Vp_cost.Disk.with_buffer_size disk buffer_size in
              let db =
                Vp_storage.Database.build ~disk ~codec table source layout
              in
              let key =
                Printf.sprintf "%s %s %s %s" table_name layout_name
                  (Vp_storage.Codec.kind_name codec) buffer_name
              in
              List.iteri
                (fun i f ->
                  Printf.bprintf b "%s file%d blocks=%d payload=%d\n" key i
                    (Vp_storage.Pfile.block_count f)
                    (Vp_storage.Pfile.payload_bytes f))
                (Vp_storage.Database.pfiles db);
              List.iteri
                (fun i (r : Vp_storage.Database.query_result) ->
                  let io = r.io in
                  Printf.bprintf b
                    "%s %s rows=%d checksum=%d io=%h/%d/%d/%d decoded=%d \
                     cpu=%h\n"
                    key
                    (Query.name (Workload.query w i))
                    r.rows_out r.checksum io.Vp_storage.Device.elapsed
                    io.seeks io.blocks_read io.blocks_written r.values_decoded
                    r.cpu_seconds)
                (fst (Vp_storage.Database.run_workload db w)))
            storage_buffers)
        storage_codecs)
    [
      ("Row", Partitioning.row n);
      ("Column", Partitioning.column n);
      ("HillClimb", hillclimb);
    ];
  Buffer.contents b

(* No generated column holds a negative int, so a small table of
   full-range signed values pins the int32 sign extension. *)
let storage_signed_lines () =
  let table =
    Table.make ~name:"signed" ~row_count:5_000
      ~attributes:
        Attribute.
          [
            make "A" Int32; make "B" Decimal; make "C" (Varchar 12);
            make "D" Date;
          ]
  in
  let g = Vp_datagen.Prng.create 7L in
  let rows =
    Array.init 5_000 (fun _ ->
        let a = Vp_datagen.Prng.int_in g (-0x8000_0000) 0x7FFF_FFFF in
        let b = Vp_datagen.Prng.float g 2e6 -. 1e6 in
        let c = Vp_datagen.Text.sentence g ~max_len:12 in
        let d = Vp_datagen.Prng.int_in g (-40_000) 40_000 in
        [| Value.Int a; Value.Num b; Value.Str c; Value.Int d |])
  in
  let disk = Vp_cost.Disk.with_buffer_size disk 16_384 in
  let queries =
    [
      Query.make ~name:"all" ~references:(Attr_set.full 4) ();
      Query.make ~name:"AD" ~references:(Attr_set.of_list [ 0; 3 ]) ();
    ]
  in
  String.concat ""
    (List.concat_map
       (fun (layout_name, layout) ->
         List.concat_map
           (fun codec ->
             let db =
               Vp_storage.Database.build ~disk ~codec table
                 (Vp_stream.Source.of_rows table rows)
                 layout
             in
             List.map
               (fun q ->
                 let r = Vp_storage.Database.run_query db q in
                 Printf.sprintf "signed %s %s %s checksum=%d cpu=%h\n"
                   layout_name
                   (Vp_storage.Codec.kind_name codec)
                   (Query.name q) r.checksum r.cpu_seconds)
               queries)
           storage_codecs)
       [ ("Row", Partitioning.row 4); ("Column", Partitioning.column 4) ])

let test_storage_digests_golden () =
  let actual =
    String.concat ""
      (storage_digest_lines ()
      @ List.map storage_table_lines [ "lineitem"; "orders"; "partsupp" ]
      @ [ storage_signed_lines () ])
  in
  check_golden "storage digests" "golden/storage_digests.golden.txt" actual

let suite =
  [
    Alcotest.test_case "HillClimb customer" `Quick test_hillclimb_customer;
    Alcotest.test_case "HillClimb partsupp" `Quick test_hillclimb_partsupp;
    Alcotest.test_case "HillClimb orders" `Quick
      test_hillclimb_orders_all_singletons;
    Alcotest.test_case "HillClimb lineitem" `Quick test_hillclimb_lineitem;
    Alcotest.test_case "AutoPart lineitem" `Quick
      test_autopart_lineitem_groups_unreferenced;
    Alcotest.test_case "AutoPart supplier" `Quick test_autopart_supplier;
    Alcotest.test_case "nation/region" `Quick test_nation_region;
    Alcotest.test_case "HillClimb class agrees" `Quick test_hillclimb_class_agrees;
    Alcotest.test_case "second class differs" `Quick test_second_class_differs;
    Alcotest.test_case "SSB validity" `Quick test_ssb_validity;
    Alcotest.test_case "reproduction bands" `Slow test_reproduction_bands;
    Alcotest.test_case "chrome trace export" `Quick test_chrome_trace_golden;
    Alcotest.test_case "optimizer stats" `Quick test_optimizer_stats_golden;
    Alcotest.test_case "optimizer counters" `Quick test_optimizer_counters_golden;
    Alcotest.test_case "one oracle call per request" `Quick
      test_one_oracle_call;
    Alcotest.test_case "exact searches" `Quick test_exact_searches_golden;
    Alcotest.test_case "storage digests" `Quick test_storage_digests_golden;
  ]
