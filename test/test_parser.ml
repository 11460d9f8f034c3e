open Vp_core

let parse_ok script =
  match Vp_parser.Workload_parser.parse script with
  | Ok ws -> ws
  | Error e ->
      Alcotest.failf "unexpected parse error: %a"
        Vp_parser.Workload_parser.pp_error e

let parse_err script =
  match Vp_parser.Workload_parser.parse script with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error e -> e

let partsupp_script =
  {|
-- the paper's example
CREATE TABLE partsupp (
  PartKey INT, SuppKey INT, AvailQty INT,
  SupplyCost DECIMAL, Comment VARCHAR(199)
) ROWS 8000000;

SELECT PartKey, SuppKey, AvailQty, SupplyCost FROM partsupp;
SELECT AvailQty, SupplyCost, Comment FROM partsupp WEIGHT 2.5;
|}

let test_basic_script () =
  match parse_ok partsupp_script with
  | [ w ] ->
      let t = Workload.table w in
      Alcotest.(check string) "table name" "partsupp" (Table.name t);
      Alcotest.(check int) "5 columns" 5 (Table.attribute_count t);
      Alcotest.(check int) "rows" 8_000_000 (Table.row_count t);
      Alcotest.(check int) "2 queries" 2 (Workload.query_count w);
      Alcotest.(check Testutil.attr_set)
        "q1 footprint"
        (Attr_set.of_list [ 0; 1; 2; 3 ])
        (Query.references (Workload.query w 0));
      Alcotest.(check (float 0.0)) "weight" 2.5 (Query.weight (Workload.query w 1))
  | ws -> Alcotest.failf "expected 1 workload, got %d" (List.length ws)

let test_column_widths () =
  match parse_ok "CREATE TABLE t (a CHAR(25), b VARCHAR(40), c DATE) ROWS 10;" with
  | [ w ] ->
      let t = Workload.table w in
      Alcotest.(check int) "char width" 25 (Table.width t 0);
      Alcotest.(check int) "varchar width" 40 (Table.width t 1);
      Alcotest.(check int) "date width" 4 (Table.width t 2)
  | _ -> Alcotest.fail "expected one workload"

let test_select_star () =
  let script =
    "CREATE TABLE t (a INT, b INT, c INT);\nSELECT * FROM t;"
  in
  match parse_ok script with
  | [ w ] ->
      Alcotest.(check Testutil.attr_set)
        "all columns" (Attr_set.full 3)
        (Query.references (Workload.query w 0))
  | _ -> Alcotest.fail "expected one workload"

let test_where_adds_references () =
  let script =
    "CREATE TABLE t (a INT, b INT, c INT);\n\
     SELECT a FROM t WHERE b > 5 AND c = 'x';"
  in
  match parse_ok script with
  | [ w ] ->
      Alcotest.(check Testutil.attr_set)
        "select + where footprint" (Attr_set.full 3)
        (Query.references (Workload.query w 0))
  | _ -> Alcotest.fail "expected one workload"

let test_group_order_by () =
  let script =
    "CREATE TABLE t (a INT, b INT, c INT, d INT);\n\
     SELECT a FROM t GROUP BY b ORDER BY c;"
  in
  match parse_ok script with
  | [ w ] ->
      Alcotest.(check Testutil.attr_set)
        "group/order referenced"
        (Attr_set.of_list [ 0; 1; 2 ])
        (Query.references (Workload.query w 0))
  | _ -> Alcotest.fail "expected one workload"

let test_multiple_tables () =
  let script =
    "CREATE TABLE t (a INT);\nCREATE TABLE u (x INT, y INT);\n\
     SELECT x FROM u;\nSELECT a FROM t;\nSELECT y FROM u;"
  in
  match parse_ok script with
  | [ wt; wu ] ->
      Alcotest.(check int) "t queries" 1 (Workload.query_count wt);
      Alcotest.(check int) "u queries" 2 (Workload.query_count wu)
  | ws -> Alcotest.failf "expected 2 workloads, got %d" (List.length ws)

let test_default_rows () =
  match parse_ok "CREATE TABLE t (a INT);" with
  | [ w ] ->
      Alcotest.(check int) "default row count" 1_000_000
        (Table.row_count (Workload.table w))
  | _ -> Alcotest.fail "expected one workload"

let test_errors () =
  let e = parse_err "SELECT a FROM nowhere;" in
  Alcotest.(check int) "line" 1 e.line;
  let e2 =
    parse_err "CREATE TABLE t (a INT);\nSELECT nope FROM t;"
  in
  Alcotest.(check bool) "mentions column" true
    (String.length e2.message > 0);
  let e3 = parse_err "CREATE TABLE t (a BLOB);" in
  Alcotest.(check int) "type error line" 1 e3.line;
  let e4 = parse_err "CREATE TABLE t (a CHAR);" in
  Alcotest.(check bool) "char needs width" true
    (String.length e4.message > 0);
  let e5 = parse_err "CREATE TABLE t (a INT);\nCREATE TABLE t (b INT);" in
  Alcotest.(check int) "duplicate table line" 2 e5.line

(* Malformed input must come back as a described error — right line,
   offending token attached — never as an escaped exception. *)
let test_malformed_inputs () =
  let contains needle hay =
    let h = String.length hay and n = String.length needle in
    let rec go k = k + n <= h && (String.sub hay k n = needle || go (k + 1)) in
    n = 0 || go 0
  in
  let check name script ~line ?token ?mentions () =
    let e = parse_err script in
    Alcotest.(check int) (name ^ ": line") line e.line;
    (match token with
    | Some t -> Alcotest.(check (option string)) (name ^ ": token") (Some t) e.token
    | None -> ());
    match mentions with
    | Some needle ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: message %S mentions %S" name e.message needle)
          true (contains needle e.message)
    | None -> ()
  in
  (* Attribute.make rejects a zero width; the parser must turn that into
     an error at the column, not crash. *)
  check "char zero width" "CREATE TABLE t (a CHAR(0));" ~line:1 ~token:"a" ();
  check "varchar zero width" "CREATE TABLE t (\n  a INT,\n  b VARCHAR(0)\n);"
    ~line:3 ~token:"b" ();
  check "unterminated string"
    "CREATE TABLE t (a INT);\nSELECT a FROM t WHERE a = 'oops;" ~line:2
    ~mentions:"unterminated" ();
  check "unexpected character" "CREATE TABLE t (a INT);\nSELECT a FROM t @ x;"
    ~line:2 ~mentions:"unexpected character" ();
  check "eof mid-statement" "CREATE TABLE t (a INT" ~line:1
    ~mentions:"end of input" ();
  check "eof line tracking" "CREATE TABLE t (a INT);\n\nSELECT a" ~line:3
    ~mentions:"end of input" ();
  check "zero weight" "CREATE TABLE t (a INT);\nSELECT a FROM t WEIGHT 0;"
    ~line:2 ~token:"0" ~mentions:"WEIGHT" ();
  check "infinite weight" "CREATE TABLE t (a INT);\nSELECT a FROM t WEIGHT 1e999;"
    ~line:2 ~token:"1e999" ~mentions:"WEIGHT" ();
  check "weight not a number" "CREATE TABLE t (a INT);\nSELECT a FROM t WEIGHT x;"
    ~line:2 ~mentions:"number" ();
  check "unknown column" "CREATE TABLE t (a INT);\nSELECT nope FROM t;" ~line:2
    ~token:"nope" ~mentions:"nope" ();
  check "unknown table" "SELECT a FROM nowhere;" ~line:1 ~token:"nowhere"
    ~mentions:"nowhere" ();
  check "unknown type" "CREATE TABLE t (a BLOB);" ~line:1 ~token:"BLOB"
    ~mentions:"BLOB" ();
  check "statement soup" "CREATE TABLE t (a INT);\nDROP TABLE t;" ~line:2
    ~token:"DROP" ~mentions:"DROP" ();
  check "bad column separator" "CREATE TABLE t (a INT b INT);" ~line:1
    ~token:"b" ~mentions:"column list" ();
  (* "FROM" lexes as the first select item, so the error is the missing
     FROM keyword afterwards. *)
  check "empty select list" "CREATE TABLE t (a INT);\nSELECT FROM t;" ~line:2
    ~token:"t" ~mentions:"FROM" ()

let test_comments_and_whitespace () =
  let script =
    "-- header comment\nCREATE TABLE t ( -- inline\n  a INT\n);\n\n\
     SELECT a FROM t; -- trailing\n"
  in
  match parse_ok script with
  | [ w ] -> Alcotest.(check int) "one query" 1 (Workload.query_count w)
  | _ -> Alcotest.fail "expected one workload"

let test_parse_file_missing () =
  match Vp_parser.Workload_parser.parse_file "/nonexistent/x.sql" with
  | Ok _ -> Alcotest.fail "expected error"
  | Error e -> Alcotest.(check int) "line 0" 0 e.line

let test_roundtrip_through_algorithms () =
  (* The parsed paper example must produce the paper's layout. *)
  match parse_ok partsupp_script with
  | [ w ] ->
      let disk = Vp_cost.Disk.default in
      let oracle = Vp_cost.Io_model.oracle disk w in
      let r = Partitioner.exec Vp_algorithms.Hillclimb.algorithm (Testutil.request ~cost:oracle w) in
      let expected =
        Partitioning.of_names (Workload.table w)
          [ [ "PartKey"; "SuppKey" ]; [ "AvailQty"; "SupplyCost" ]; [ "Comment" ] ]
      in
      Alcotest.(check Testutil.partitioning)
        "paper layout" expected r.Partitioner.Response.partitioning
  | _ -> Alcotest.fail "expected one workload"

let suite =
  [
    Alcotest.test_case "basic script" `Quick test_basic_script;
    Alcotest.test_case "column widths" `Quick test_column_widths;
    Alcotest.test_case "select star" `Quick test_select_star;
    Alcotest.test_case "where adds references" `Quick test_where_adds_references;
    Alcotest.test_case "group/order by" `Quick test_group_order_by;
    Alcotest.test_case "multiple tables" `Quick test_multiple_tables;
    Alcotest.test_case "default rows" `Quick test_default_rows;
    Alcotest.test_case "errors" `Quick test_errors;
    Alcotest.test_case "malformed inputs" `Quick test_malformed_inputs;
    Alcotest.test_case "comments" `Quick test_comments_and_whitespace;
    Alcotest.test_case "missing file" `Quick test_parse_file_missing;
    Alcotest.test_case "roundtrip to layout" `Quick
      test_roundtrip_through_algorithms;
  ]
