open Vp_core

let p_of groups = Partitioning.of_groups ~n:5 (List.map Attr_set.of_list groups)

let test_row_column () =
  Alcotest.(check int) "row groups" 1 (Partitioning.group_count (Partitioning.row 5));
  Alcotest.(check int) "column groups" 5
    (Partitioning.group_count (Partitioning.column 5));
  Alcotest.(check int) "attr count" 5
    (Partitioning.attribute_count (Partitioning.row 5))

let test_canonical_order () =
  let p1 = p_of [ [ 2; 3 ]; [ 0; 4 ]; [ 1 ] ] in
  let p2 = p_of [ [ 1 ]; [ 4; 0 ]; [ 3; 2 ] ] in
  Alcotest.(check Testutil.partitioning) "order irrelevant" p1 p2;
  Alcotest.(check (list Testutil.attr_set))
    "canonical by min element"
    [ Attr_set.of_list [ 0; 4 ]; Attr_set.singleton 1; Attr_set.of_list [ 2; 3 ] ]
    (Partitioning.groups p1)

let test_validation () =
  let bad_overlap () =
    ignore (p_of [ [ 0; 1 ]; [ 1; 2 ]; [ 3; 4 ] ])
  in
  Alcotest.check_raises "overlap"
    (Invalid_argument
       "Partitioning.of_groups: groups must form a disjoint cover of 0..n-1")
    bad_overlap;
  Alcotest.check_raises "missing"
    (Invalid_argument
       "Partitioning.of_groups: groups must form a disjoint cover of 0..n-1")
    (fun () -> ignore (p_of [ [ 0; 1 ] ]));
  Alcotest.check_raises "empty group"
    (Invalid_argument "Partitioning.of_groups: empty group") (fun () ->
      ignore (Partitioning.of_groups ~n:2 [ Attr_set.empty; Attr_set.full 2 ]))

let test_of_assignment () =
  let p = Partitioning.of_assignment [| 7; 7; 3; 7; 3 |] in
  Alcotest.(check Testutil.partitioning)
    "labels arbitrary"
    (p_of [ [ 0; 1; 3 ]; [ 2; 4 ] ])
    p

let test_group_of () =
  let p = p_of [ [ 0; 2 ]; [ 1; 3; 4 ] ] in
  Alcotest.(check Testutil.attr_set)
    "group of 2" (Attr_set.of_list [ 0; 2 ]) (Partitioning.group_of p 2);
  Alcotest.(check int) "index of 4" 1 (Partitioning.group_index_of p 4);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Partitioning.group_of: 9 out of range") (fun () ->
      ignore (Partitioning.group_of p 9))

let test_referenced_groups () =
  let p = p_of [ [ 0; 1 ]; [ 2; 3 ]; [ 4 ] ] in
  let refs = Attr_set.of_list [ 1; 4 ] in
  Alcotest.(check (list Testutil.attr_set))
    "touched"
    [ Attr_set.of_list [ 0; 1 ]; Attr_set.singleton 4 ]
    (Partitioning.referenced_groups p refs);
  Alcotest.(check int) "count" 2 (Partitioning.referenced_group_count p refs);
  Alcotest.(check int) "none" 0
    (Partitioning.referenced_group_count p Attr_set.empty)

let test_merge () =
  let p = p_of [ [ 0; 1 ]; [ 2; 3 ]; [ 4 ] ] in
  let merged =
    Partitioning.merge_groups p (Attr_set.of_list [ 0; 1 ]) (Attr_set.singleton 4)
  in
  Alcotest.(check Testutil.partitioning)
    "merged" (p_of [ [ 0; 1; 4 ]; [ 2; 3 ] ]) merged;
  Alcotest.check_raises "same group"
    (Invalid_argument "Partitioning.merge_groups: same group") (fun () ->
      ignore
        (Partitioning.merge_groups p (Attr_set.of_list [ 0; 1 ])
           (Attr_set.of_list [ 0; 1 ])))

let test_split () =
  let p = p_of [ [ 0; 1; 2 ]; [ 3; 4 ] ] in
  let split =
    Partitioning.split_group p (Attr_set.of_list [ 0; 1; 2 ]) (Attr_set.singleton 1)
  in
  Alcotest.(check Testutil.partitioning)
    "split" (p_of [ [ 0; 2 ]; [ 1 ]; [ 3; 4 ] ]) split;
  Alcotest.check_raises "subset equals group"
    (Invalid_argument "Partitioning.split_group: subset equals the group")
    (fun () ->
      ignore
        (Partitioning.split_group p (Attr_set.of_list [ 3; 4 ])
           (Attr_set.of_list [ 3; 4 ])))

let test_merge_split_errors () =
  let p = p_of [ [ 0; 1; 2 ]; [ 3; 4 ] ] in
  let g = Attr_set.of_list [ 0; 1; 2 ] and h = Attr_set.of_list [ 3; 4 ] in
  let not_group = Attr_set.of_list [ 0; 1 ] in
  Alcotest.check_raises "merge: not a group"
    (Invalid_argument "Partitioning: {0,1} is not a group") (fun () ->
      ignore (Partitioning.merge_groups p not_group h));
  Alcotest.check_raises "merge: second not a group"
    (Invalid_argument "Partitioning: {0,1} is not a group") (fun () ->
      ignore (Partitioning.merge_groups p h not_group));
  Alcotest.check_raises "merge: same group"
    (Invalid_argument "Partitioning.merge_groups: same group") (fun () ->
      ignore (Partitioning.merge_groups p h h));
  Alcotest.check_raises "split: not a group"
    (Invalid_argument "Partitioning: {0,1} is not a group") (fun () ->
      ignore (Partitioning.split_group p not_group (Attr_set.singleton 0)));
  Alcotest.check_raises "split: empty subset"
    (Invalid_argument "Partitioning.split_group: empty subset") (fun () ->
      ignore (Partitioning.split_group p g Attr_set.empty));
  Alcotest.check_raises "split: not a subset"
    (Invalid_argument "Partitioning.split_group: not a subset of the group")
    (fun () ->
      ignore (Partitioning.split_group p g (Attr_set.of_list [ 0; 3 ])));
  Alcotest.check_raises "split: subset equals the group"
    (Invalid_argument "Partitioning.split_group: subset equals the group")
    (fun () -> ignore (Partitioning.split_group p g g))

let test_refinement () =
  let fine = Partitioning.column 5 in
  let coarse = p_of [ [ 0; 1; 2 ]; [ 3; 4 ] ] in
  Alcotest.(check bool) "column refines all" true
    (Partitioning.is_refinement fine coarse);
  Alcotest.(check bool) "coarse does not refine column" false
    (Partitioning.is_refinement coarse fine);
  Alcotest.(check bool) "self refinement" true
    (Partitioning.is_refinement coarse coarse)

let test_of_names () =
  let p =
    Partitioning.of_names Testutil.partsupp
      [ [ "PartKey"; "SuppKey" ]; [ "AvailQty"; "SupplyCost" ]; [ "Comment" ] ]
  in
  Alcotest.(check int) "3 groups" 3 (Partitioning.group_count p)

let test_pp_named () =
  let p =
    Partitioning.of_names Testutil.partsupp
      [ [ "PartKey"; "SuppKey" ]; [ "AvailQty"; "SupplyCost"; "Comment" ] ]
  in
  Alcotest.(check string)
    "named rendering"
    "[PartKey,SuppKey | AvailQty,SupplyCost,Comment]"
    (Format.asprintf "%a" (Partitioning.pp_named Testutil.partsupp) p)

(* --- properties --- *)

let prop_random_partitioning_valid =
  QCheck2.Test.make ~name:"random partitionings valid" ~count:300
    QCheck2.Gen.(pair (int_range 1 16) int)
    (fun (n, seed) ->
      let state = Random.State.make [| seed |] in
      let p = Enumeration.random_partitioning (Random.State.int state) n in
      Partitioning.attribute_count p = n
      && List.fold_left
           (fun acc g -> acc + Attr_set.cardinal g)
           0 (Partitioning.groups p)
         = n)

let prop_merge_reduces_group_count =
  QCheck2.Test.make ~name:"merge reduces group count by one" ~count:200
    QCheck2.Gen.(pair (int_range 2 12) int)
    (fun (n, seed) ->
      let state = Random.State.make [| seed |] in
      let p = Enumeration.random_partitioning (Random.State.int state) n in
      match Partitioning.groups p with
      | g1 :: g2 :: _ ->
          Partitioning.group_count (Partitioning.merge_groups p g1 g2)
          = Partitioning.group_count p - 1
      | _ -> QCheck2.assume_fail ())

let prop_column_refines_everything =
  QCheck2.Test.make ~name:"column refines every partitioning" ~count:200
    QCheck2.Gen.(pair (int_range 1 12) int)
    (fun (n, seed) ->
      let state = Random.State.make [| seed |] in
      let p = Enumeration.random_partitioning (Random.State.int state) n in
      Partitioning.is_refinement (Partitioning.column n) p
      && Partitioning.is_refinement p (Partitioning.row n))

(* [merge_groups] and [split_group] build their result directly; it
   must be indistinguishable from validating the same group multiset
   through [of_groups]. Partitionings of up to 62 attributes come from
   random labellings, so group counts range from one to n. *)
let gen_labelled =
  QCheck2.Gen.(
    pair (int_range 2 Attr_set.max_attributes) int
    |> map (fun (n, seed) ->
           let state = Random.State.make [| seed |] in
           let labels = 1 + Random.State.int state n in
           let p =
             Partitioning.of_assignment
               (Array.init n (fun _ -> Random.State.int state labels))
           in
           (p, state)))

let same_as_of_groups built groups =
  let expected =
    Partitioning.of_groups ~n:(Partitioning.attribute_count built) groups
  in
  Partitioning.equal built expected
  && Partitioning.compare built expected = 0
  && Partitioning.to_string built = Partitioning.to_string expected
  && List.equal Attr_set.equal (Partitioning.groups built)
       (Partitioning.groups expected)

let prop_merge_matches_of_groups =
  QCheck2.Test.make ~name:"merge_groups = of_groups of the same groups"
    ~count:300 gen_labelled (fun (p, state) ->
      let gs = Partitioning.group_array p in
      let k = Array.length gs in
      if k < 2 then QCheck2.assume_fail ()
      else
        let i = Random.State.int state k in
        let j = (i + 1 + Random.State.int state (k - 1)) mod k in
        let rest =
          List.filteri (fun x _ -> x <> i && x <> j) (Array.to_list gs)
        in
        same_as_of_groups
          (Partitioning.merge_groups p gs.(i) gs.(j))
          (List.rev (Attr_set.union gs.(i) gs.(j) :: rest)))

let prop_split_matches_of_groups =
  QCheck2.Test.make ~name:"split_group = of_groups of the same groups"
    ~count:300 gen_labelled (fun (p, state) ->
      match
        List.filter
          (fun g -> Attr_set.cardinal g >= 2)
          (Partitioning.groups p)
      with
      | [] -> QCheck2.assume_fail ()
      | splittable ->
          let g =
            List.nth splittable (Random.State.int state (List.length splittable))
          in
          let sub = Attr_set.filter (fun _ -> Random.State.bool state) g in
          let sub =
            if Attr_set.is_empty sub || Attr_set.equal sub g then
              Attr_set.singleton (Attr_set.max_elt g)
            else sub
          in
          let rest =
            List.filter (fun h -> not (Attr_set.equal h g)) (Partitioning.groups p)
          in
          same_as_of_groups
            (Partitioning.split_group p g sub)
            (Attr_set.diff g sub :: rest @ [ sub ]))

let suite =
  [
    Alcotest.test_case "row/column" `Quick test_row_column;
    Alcotest.test_case "canonical order" `Quick test_canonical_order;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "of_assignment" `Quick test_of_assignment;
    Alcotest.test_case "group_of" `Quick test_group_of;
    Alcotest.test_case "referenced groups" `Quick test_referenced_groups;
    Alcotest.test_case "merge" `Quick test_merge;
    Alcotest.test_case "split" `Quick test_split;
    Alcotest.test_case "merge/split errors" `Quick test_merge_split_errors;
    Alcotest.test_case "refinement" `Quick test_refinement;
    Alcotest.test_case "of_names" `Quick test_of_names;
    Alcotest.test_case "pp_named" `Quick test_pp_named;
    Testutil.qtest prop_random_partitioning_valid;
    Testutil.qtest prop_merge_reduces_group_count;
    Testutil.qtest prop_column_refines_everything;
    Testutil.qtest prop_merge_matches_of_groups;
    Testutil.qtest prop_split_matches_of_groups;
  ]
