let contains haystack needle =
  let h = String.length haystack and n = String.length needle in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_table_renders () =
  let out =
    Vp_report.Ascii.table ~title:"T" ~headers:[ "Name"; "Value" ]
      [ [ "alpha"; "1" ]; [ "beta"; "22" ] ]
  in
  Alcotest.(check bool) "title" true (contains out "T\n");
  Alcotest.(check bool) "header" true (contains out "Name");
  Alcotest.(check bool) "cell" true (contains out "alpha");
  (* Right-aligned numeric column pads on the left. *)
  Alcotest.(check bool) "alignment" true (contains out "|     1 |")

let test_table_arity_check () =
  Alcotest.check_raises "row arity"
    (Invalid_argument "Ascii.table: row 0 has 1 cells, expected 2") (fun () ->
      ignore (Vp_report.Ascii.table ~headers:[ "a"; "b" ] [ [ "x" ] ]))

let test_seconds_scales () =
  Alcotest.(check string) "us" "500 us" (Vp_report.Ascii.seconds 0.0005);
  Alcotest.(check string) "ms" "12.00 ms" (Vp_report.Ascii.seconds 0.012);
  Alcotest.(check string) "s" "1.50 s" (Vp_report.Ascii.seconds 1.5);
  Alcotest.(check string) "min" "5.0 min" (Vp_report.Ascii.seconds 300.0);
  Alcotest.(check string) "h" "2.0 h" (Vp_report.Ascii.seconds 7200.0);
  Alcotest.(check string) "zero" "0 s" (Vp_report.Ascii.seconds 0.0)

let test_percent_factor () =
  Alcotest.(check string) "percent" "3.71%" (Vp_report.Ascii.percent 0.0371);
  Alcotest.(check string) "factor" "24.23x" (Vp_report.Ascii.factor 24.23);
  Alcotest.(check string) "inf" "-" (Vp_report.Ascii.factor infinity);
  Alcotest.(check string) "nan" "-" (Vp_report.Ascii.factor nan)

let test_bytes () =
  Alcotest.(check string) "b" "512 B" (Vp_report.Ascii.bytes 512.0);
  Alcotest.(check string) "kb" "1.5 KB" (Vp_report.Ascii.bytes 1536.0);
  Alcotest.(check string) "gb" "2.00 GB"
    (Vp_report.Ascii.bytes (2.0 *. 1024.0 ** 3.0))

let test_chart_bar () =
  let out =
    Vp_report.Chart.bar ~title:"bars" ~width:10 ~unit:"s"
      [ ("fast", 1.0); ("slow", 10.0) ]
  in
  Alcotest.(check bool) "labels" true (contains out "fast");
  Alcotest.(check bool) "unit" true (contains out "s")

let test_chart_bar_log_requires_positive () =
  Alcotest.check_raises "log zero"
    (Invalid_argument "Chart.bar: log scale requires positive values")
    (fun () ->
      ignore (Vp_report.Chart.bar ~log_scale:true ~unit:"s" [ ("x", 0.0) ]))

let test_chart_series () =
  let out =
    Vp_report.Chart.series ~x_label:"k" ~xs:[ "1"; "2" ]
      [ ("a", [ 1.0; 2.0 ]); ("b", [ 3.0; 4.0 ]) ]
  in
  Alcotest.(check bool) "columns" true (contains out "a" && contains out "b")

let test_chart_series_length_mismatch () =
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Chart.series: series \"a\" length mismatch") (fun () ->
      ignore
        (Vp_report.Chart.series ~x_label:"k" ~xs:[ "1"; "2" ]
           [ ("a", [ 1.0 ]) ]))

let suite =
  [
    Alcotest.test_case "table renders" `Quick test_table_renders;
    Alcotest.test_case "table arity" `Quick test_table_arity_check;
    Alcotest.test_case "seconds" `Quick test_seconds_scales;
    Alcotest.test_case "percent/factor" `Quick test_percent_factor;
    Alcotest.test_case "bytes" `Quick test_bytes;
    Alcotest.test_case "chart bar" `Quick test_chart_bar;
    Alcotest.test_case "chart bar log" `Quick test_chart_bar_log_requires_positive;
    Alcotest.test_case "chart series" `Quick test_chart_series;
    Alcotest.test_case "chart series mismatch" `Quick
      test_chart_series_length_mismatch;
  ]

(* --- Workload views --- *)

let test_usage_matrix () =
  let out = Vp_report.Workload_view.usage_matrix Testutil.partsupp_workload in
  Alcotest.(check bool) "header" true (contains out "PartKey");
  Alcotest.(check bool) "marks" true (contains out "x")

let test_affinity_view () =
  let out = Vp_report.Workload_view.affinity_matrix Testutil.partsupp_workload in
  Alcotest.(check bool) "diagonal count" true (contains out "2")

let test_summary_view () =
  let out = Vp_report.Workload_view.summary Testutil.partsupp_workload in
  Alcotest.(check bool) "row count" true (contains out "8000000");
  Alcotest.(check bool) "primary partitions" true
    (contains out "primary partitions (3)");
  Alcotest.(check bool) "fragmentation" true (contains out "fragmentation score")

let suite =
  suite
  @ [
      Alcotest.test_case "usage matrix view" `Quick test_usage_matrix;
      Alcotest.test_case "affinity view" `Quick test_affinity_view;
      Alcotest.test_case "summary view" `Quick test_summary_view;
    ]

(* --- DDL emission --- *)

let test_ddl_partitioned () =
  let layout =
    Vp_core.Partitioning.of_names Testutil.partsupp
      [ [ "PartKey"; "SuppKey" ]; [ "AvailQty"; "SupplyCost" ]; [ "Comment" ] ]
  in
  let ddl = Vp_report.Ddl.emit Testutil.partsupp layout in
  Alcotest.(check bool) "three tables" true
    (contains ddl "CREATE TABLE partsupp_p1"
    && contains ddl "CREATE TABLE partsupp_p2"
    && contains ddl "CREATE TABLE partsupp_p3");
  Alcotest.(check bool) "row ids" true (contains ddl "row_id BIGINT PRIMARY KEY");
  Alcotest.(check bool) "types" true
    (contains ddl "SupplyCost DECIMAL(12,2)"
    && contains ddl "Comment VARCHAR(199)");
  Alcotest.(check bool) "view" true (contains ddl "CREATE VIEW partsupp AS");
  Alcotest.(check bool) "joins" true
    (contains ddl "JOIN partsupp_p2 USING (row_id)");
  (* The view projects columns in original table order. *)
  Alcotest.(check bool) "column order" true
    (contains ddl "partsupp_p1.PartKey,\n       partsupp_p1.SuppKey")

let test_ddl_row_layout_no_view () =
  let ddl =
    Vp_report.Ddl.emit Testutil.partsupp (Vp_core.Partitioning.row 5)
  in
  Alcotest.(check bool) "single table" true (contains ddl "CREATE TABLE partsupp_p1");
  Alcotest.(check bool) "no view" false (contains ddl "CREATE VIEW")

let test_sql_types () =
  Alcotest.(check string) "int" "INT" (Vp_report.Ddl.sql_type Vp_core.Attribute.Int32);
  Alcotest.(check string) "date" "DATE" (Vp_report.Ddl.sql_type Vp_core.Attribute.Date);
  Alcotest.(check string) "char" "CHAR(7)"
    (Vp_report.Ddl.sql_type (Vp_core.Attribute.Char 7))

let suite =
  suite
  @ [
      Alcotest.test_case "ddl partitioned" `Quick test_ddl_partitioned;
      Alcotest.test_case "ddl row layout" `Quick test_ddl_row_layout_no_view;
      Alcotest.test_case "sql types" `Quick test_sql_types;
    ]
