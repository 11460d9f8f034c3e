open Vp_core

let check_list = Alcotest.(check (list int))

let test_empty () =
  Alcotest.(check bool) "empty is empty" true (Attr_set.is_empty Attr_set.empty);
  Alcotest.(check int) "cardinal 0" 0 (Attr_set.cardinal Attr_set.empty);
  check_list "to_list" [] (Attr_set.to_list Attr_set.empty)

let test_singleton () =
  let s = Attr_set.singleton 5 in
  Alcotest.(check bool) "mem 5" true (Attr_set.mem 5 s);
  Alcotest.(check bool) "not mem 4" false (Attr_set.mem 4 s);
  Alcotest.(check int) "cardinal" 1 (Attr_set.cardinal s);
  check_list "to_list" [ 5 ] (Attr_set.to_list s)

let test_singleton_out_of_range () =
  Alcotest.check_raises "negative"
    (Invalid_argument
       (Printf.sprintf "Attr_set: position -1 out of range [0..%d]"
          (Attr_set.max_attributes - 1)))
    (fun () -> ignore (Attr_set.singleton (-1)))

let test_add_remove () =
  let s = Attr_set.of_list [ 1; 3; 5 ] in
  let s' = Attr_set.add 2 s in
  check_list "after add" [ 1; 2; 3; 5 ] (Attr_set.to_list s');
  let s'' = Attr_set.remove 3 s' in
  check_list "after remove" [ 1; 2; 5 ] (Attr_set.to_list s'');
  Alcotest.(check Testutil.attr_set)
    "remove absent is identity" s (Attr_set.remove 7 s)

let test_set_operations () =
  let a = Attr_set.of_list [ 0; 1; 2 ] and b = Attr_set.of_list [ 2; 3 ] in
  check_list "union" [ 0; 1; 2; 3 ] (Attr_set.to_list (Attr_set.union a b));
  check_list "inter" [ 2 ] (Attr_set.to_list (Attr_set.inter a b));
  check_list "diff" [ 0; 1 ] (Attr_set.to_list (Attr_set.diff a b));
  Alcotest.(check bool) "intersects" true (Attr_set.intersects a b);
  Alcotest.(check bool)
    "disjoint after diff" true
    (Attr_set.disjoint (Attr_set.diff a b) b)

let test_subset () =
  let a = Attr_set.of_list [ 1; 2 ] and b = Attr_set.of_list [ 0; 1; 2; 3 ] in
  Alcotest.(check bool) "a <= b" true (Attr_set.subset a b);
  Alcotest.(check bool) "b </= a" false (Attr_set.subset b a);
  Alcotest.(check bool) "self" true (Attr_set.subset a a);
  Alcotest.(check bool) "empty <= a" true (Attr_set.subset Attr_set.empty a)

let test_full () =
  check_list "full 4" [ 0; 1; 2; 3 ] (Attr_set.to_list (Attr_set.full 4));
  Alcotest.(check Testutil.attr_set) "full 0" Attr_set.empty (Attr_set.full 0)

let test_min_max () =
  let s = Attr_set.of_list [ 7; 2; 9 ] in
  Alcotest.(check int) "min" 2 (Attr_set.min_elt s);
  Alcotest.(check int) "max" 9 (Attr_set.max_elt s);
  Alcotest.check_raises "min empty" Not_found (fun () ->
      ignore (Attr_set.min_elt Attr_set.empty))

let test_iter_fold_order () =
  let s = Attr_set.of_list [ 4; 1; 8 ] in
  let seen = ref [] in
  Attr_set.iter (fun i -> seen := i :: !seen) s;
  check_list "iter ascending" [ 1; 4; 8 ] (List.rev !seen);
  Alcotest.(check int) "fold sum" 13 (Attr_set.fold ( + ) s 0)

let test_filter_forall_exists () =
  let s = Attr_set.of_list [ 1; 2; 3; 4 ] in
  check_list "filter even" [ 2; 4 ]
    (Attr_set.to_list (Attr_set.filter (fun i -> i mod 2 = 0) s));
  Alcotest.(check bool) "for_all > 0" true (Attr_set.for_all (fun i -> i > 0) s);
  Alcotest.(check bool) "exists = 3" true (Attr_set.exists (fun i -> i = 3) s);
  Alcotest.(check bool) "exists = 9" false (Attr_set.exists (fun i -> i = 9) s)

let test_subsets () =
  let s = Attr_set.of_list [ 0; 2; 4 ] in
  let subs = Attr_set.subsets s in
  Alcotest.(check int) "2^3 subsets" 8 (List.length subs);
  Alcotest.(check bool)
    "all are subsets" true
    (List.for_all (fun sub -> Attr_set.subset sub s) subs);
  let uniq = List.sort_uniq Attr_set.compare subs in
  Alcotest.(check int) "all distinct" 8 (List.length uniq)

let test_mask_roundtrip () =
  let s = Attr_set.of_list [ 0; 5; 10 ] in
  Alcotest.(check Testutil.attr_set)
    "roundtrip" s
    (Attr_set.of_mask (Attr_set.to_mask s));
  Alcotest.check_raises "negative mask"
    (Invalid_argument "Attr_set.of_mask: negative mask") (fun () ->
      ignore (Attr_set.of_mask (-1)))

let test_pp () =
  Alcotest.(check string)
    "pp" "{0,3,5}"
    (Attr_set.to_string (Attr_set.of_list [ 5; 0; 3 ]));
  Alcotest.(check string) "pp empty" "{}" (Attr_set.to_string Attr_set.empty)

(* --- properties --- *)

(* Masks over every position [0 .. max_attributes - 1]: dense random
   bits, sparse sets of random positions, and the edge masks (empty,
   lone top bit, both ends, everything). *)
let top = Attr_set.max_attributes - 1

let all_positions = Attr_set.to_mask (Attr_set.full Attr_set.max_attributes)

let gen_set =
  let open QCheck2.Gen in
  frequency
    [
      (4, map (fun m -> Attr_set.of_mask (m land all_positions)) int);
      (4, map Attr_set.of_list (list_size (int_range 0 6) (int_range 0 top)));
      ( 1,
        oneofl
          [
            Attr_set.empty;
            Attr_set.singleton top;
            Attr_set.of_list [ 0; top ];
            Attr_set.full Attr_set.max_attributes;
          ] );
    ]

(* Each model property is checked on the drawn set and on the same set
   with the top position added, so bit 61 is exercised on every case. *)
let with_top s = [ s; Attr_set.add top s ]

(* The naive reference: probe every position one by one. *)
let model s =
  List.filter (fun i -> Attr_set.mem i s)
    (List.init Attr_set.max_attributes Fun.id)

let prop_model_cardinal =
  QCheck2.Test.make ~name:"cardinal matches model" ~count:500 gen_set (fun s ->
      List.for_all
        (fun s -> Attr_set.cardinal s = List.length (model s))
        (with_top s))

let prop_model_min_max =
  QCheck2.Test.make ~name:"min_elt/max_elt match model" ~count:500 gen_set
    (fun s ->
      List.for_all
        (fun s ->
          match model s with
          | [] -> (
              (match Attr_set.min_elt s with
              | _ -> false
              | exception Not_found -> true)
              &&
              match Attr_set.max_elt s with
              | _ -> false
              | exception Not_found -> true)
          | l ->
              Attr_set.min_elt s = List.hd l
              && Attr_set.max_elt s = List.nth l (List.length l - 1))
        (with_top s))

let prop_model_order =
  QCheck2.Test.make ~name:"iter/fold/to_list order match model" ~count:500
    gen_set (fun s ->
      List.for_all
        (fun s ->
          let m = model s in
          let seen = ref [] in
          Attr_set.iter (fun i -> seen := i :: !seen) s;
          List.rev !seen = m
          && Attr_set.fold (fun i acc -> i :: acc) s [] = List.rev m
          && Attr_set.to_list s = m)
        (with_top s))

(* A table of [n] attributes with assorted widths. *)
let table_of n =
  let types =
    [| Attribute.Int32; Attribute.Decimal; Attribute.Char 3; Attribute.Varchar 17 |]
  in
  Table.make ~name:"t"
    ~attributes:
      (List.init n (fun i ->
           Attribute.make (Printf.sprintf "a%d" i) types.(i mod Array.length types)))
    ~row_count:1

let prop_model_subset_size =
  QCheck2.Test.make ~name:"Table.subset_size matches model" ~count:500
    QCheck2.Gen.(pair (int_range 1 Attr_set.max_attributes) gen_set)
    (fun (n, s) ->
      let t = table_of n in
      List.for_all
        (fun s ->
          let m = model s in
          match Table.subset_size t s with
          | size ->
              List.for_all (fun i -> i < n) m
              && size
                 = List.fold_left
                     (fun acc i -> acc + Attribute.width (Table.attribute t i))
                     0 m
          | exception Invalid_argument msg ->
              msg = "Table.subset_size: attribute position out of bounds"
              && List.exists (fun i -> i >= n) m)
        (with_top s))

let prop_union_commutative =
  QCheck2.Test.make ~name:"union commutative" ~count:200
    QCheck2.Gen.(pair gen_set gen_set)
    (fun (a, b) -> Attr_set.equal (Attr_set.union a b) (Attr_set.union b a))

let prop_inter_distributes =
  QCheck2.Test.make ~name:"inter distributes over union" ~count:200
    QCheck2.Gen.(triple gen_set gen_set gen_set)
    (fun (a, b, c) ->
      Attr_set.equal
        (Attr_set.inter a (Attr_set.union b c))
        (Attr_set.union (Attr_set.inter a b) (Attr_set.inter a c)))

let prop_diff_disjoint =
  QCheck2.Test.make ~name:"diff disjoint from subtrahend" ~count:200
    QCheck2.Gen.(pair gen_set gen_set)
    (fun (a, b) -> Attr_set.disjoint (Attr_set.diff a b) b)

let prop_cardinal_inclusion_exclusion =
  QCheck2.Test.make ~name:"|a|+|b| = |a∪b|+|a∩b|" ~count:200
    QCheck2.Gen.(pair gen_set gen_set)
    (fun (a, b) ->
      Attr_set.cardinal a + Attr_set.cardinal b
      = Attr_set.cardinal (Attr_set.union a b)
        + Attr_set.cardinal (Attr_set.inter a b))

let prop_to_list_sorted =
  QCheck2.Test.make ~name:"to_list strictly increasing" ~count:200 gen_set
    (fun s ->
      let l = Attr_set.to_list s in
      List.sort_uniq compare l = l)

let suite =
  [
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "singleton" `Quick test_singleton;
    Alcotest.test_case "singleton out of range" `Quick test_singleton_out_of_range;
    Alcotest.test_case "add/remove" `Quick test_add_remove;
    Alcotest.test_case "set operations" `Quick test_set_operations;
    Alcotest.test_case "subset" `Quick test_subset;
    Alcotest.test_case "full" `Quick test_full;
    Alcotest.test_case "min/max" `Quick test_min_max;
    Alcotest.test_case "iter/fold order" `Quick test_iter_fold_order;
    Alcotest.test_case "filter/for_all/exists" `Quick test_filter_forall_exists;
    Alcotest.test_case "subsets" `Quick test_subsets;
    Alcotest.test_case "mask roundtrip" `Quick test_mask_roundtrip;
    Alcotest.test_case "pretty printing" `Quick test_pp;
    Testutil.qtest prop_union_commutative;
    Testutil.qtest prop_inter_distributes;
    Testutil.qtest prop_diff_disjoint;
    Testutil.qtest prop_cardinal_inclusion_exclusion;
    Testutil.qtest prop_to_list_sorted;
    Testutil.qtest prop_model_cardinal;
    Testutil.qtest prop_model_min_max;
    Testutil.qtest prop_model_order;
    Testutil.qtest prop_model_subset_size;
  ]
