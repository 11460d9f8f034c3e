(* Tests for the algorithm substrates: bond energy clustering, the k-way
   graph partitioner, the exact-cover knapsack and mutual information. *)

open Vp_core

(* --- Bond energy --- *)

let is_permutation n arr =
  Array.length arr = n
  && List.sort compare (Array.to_list arr) = List.init n Fun.id

let test_bea_permutation () =
  let m = Affinity.of_workload Testutil.partsupp_workload in
  let order = Vp_algorithms.Bond_energy.order m in
  Alcotest.(check bool) "permutation of 0..4" true (is_permutation 5 order)

let test_bea_affine_adjacency () =
  (* AvailQty(2) and SupplyCost(3) have the highest pairwise bond in the
     partsupp fixture (bond 11, vs 4 for the PartKey/SuppKey pair — bonds
     are row products, not raw affinities); bond energy must place them
     adjacently. *)
  let m = Affinity.of_workload Testutil.partsupp_workload in
  let order = Vp_algorithms.Bond_energy.order m in
  let pos x = Option.get (Array.find_index (fun v -> v = x) order) in
  Alcotest.(check int) "AvailQty next to SupplyCost" 1 (abs (pos 2 - pos 3));
  Alcotest.(check bool)
    "strongest pair really is (2,3)" true
    (Vp_algorithms.Bond_energy.bond m 2 3 > Vp_algorithms.Bond_energy.bond m 0 1)

let test_bea_insert () =
  let m = Affinity.of_workload Testutil.partsupp_workload in
  let order = Vp_algorithms.Bond_energy.insert m [| 0; 2 |] 4 in
  Alcotest.(check bool) "3 elements" true (Array.length order = 3);
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Bond_energy.insert: attribute already placed")
    (fun () -> ignore (Vp_algorithms.Bond_energy.insert m [| 0; 2 |] 0))

let test_bond_symmetric () =
  let m = Affinity.of_workload Testutil.partsupp_workload in
  Alcotest.(check (float 0.0))
    "bond symmetric"
    (Vp_algorithms.Bond_energy.bond m 0 3)
    (Vp_algorithms.Bond_energy.bond m 3 0)

let prop_bea_always_permutation =
  QCheck2.Test.make ~name:"BEA order is a permutation" ~count:100
    (Testutil.gen_workload 9 6)
    (fun w ->
      let order = Vp_algorithms.Bond_energy.order (Affinity.of_workload w) in
      is_permutation 9 order)

(* --- Graph partitioner --- *)

let edge a b weight = { Vp_algorithms.Graph_partition.a; b; weight }

let test_graph_basic () =
  let labels =
    Vp_algorithms.Graph_partition.partition ~node_count:4 ~max_size:2
      [ edge 0 1 5.0; edge 2 3 4.0; edge 1 2 1.0 ]
  in
  Alcotest.(check int) "0 with 1" labels.(0) labels.(1);
  Alcotest.(check int) "2 with 3" labels.(2) labels.(3);
  Alcotest.(check bool) "two components" true (labels.(0) <> labels.(2))

let test_graph_size_bound () =
  let labels =
    Vp_algorithms.Graph_partition.partition ~node_count:6 ~max_size:3
      [ edge 0 1 9.0; edge 1 2 8.0; edge 2 3 7.0; edge 3 4 6.0; edge 4 5 5.0 ]
  in
  let sizes = Hashtbl.create 4 in
  Array.iter
    (fun l ->
      Hashtbl.replace sizes l (1 + Option.value ~default:0 (Hashtbl.find_opt sizes l)))
    labels;
  Hashtbl.iter
    (fun _ size -> Alcotest.(check bool) "size <= 3" true (size <= 3))
    sizes

let test_graph_isolated_nodes () =
  let labels =
    Vp_algorithms.Graph_partition.partition ~node_count:3 ~max_size:2 []
  in
  Alcotest.(check (array int)) "each its own" [| 0; 1; 2 |] labels

let test_graph_components () =
  let comps = Vp_algorithms.Graph_partition.components [| 0; 1; 0; 1; 2 |] in
  Alcotest.(check (list (list int))) "grouped" [ [ 0; 2 ]; [ 1; 3 ]; [ 4 ] ] comps

let test_graph_invalid () =
  Alcotest.check_raises "bad endpoint"
    (Invalid_argument "Graph_partition: edge endpoint out of range") (fun () ->
      ignore
        (Vp_algorithms.Graph_partition.partition ~node_count:2 ~max_size:1
           [ edge 0 5 1.0 ]))

let prop_graph_bound_respected =
  QCheck2.Test.make ~name:"graph components bounded" ~count:100
    QCheck2.Gen.(
      let* n = int_range 1 12 in
      let* k = int_range 1 5 in
      let* edges =
        list_size (int_range 0 20)
          (let* a = int_range 0 (n - 1) in
           let* b = int_range 0 (n - 1) in
           let* w = float_range 0.0 10.0 in
           return (edge a b w))
      in
      return (n, k, edges))
    (fun (n, k, edges) ->
      let labels =
        Vp_algorithms.Graph_partition.partition ~node_count:n ~max_size:k edges
      in
      let sizes = Hashtbl.create 8 in
      Array.iter
        (fun l ->
          Hashtbl.replace sizes l
            (1 + Option.value ~default:0 (Hashtbl.find_opt sizes l)))
        labels;
      Hashtbl.fold (fun _ s acc -> acc && s <= k) sizes true)

(* --- Knapsack exact cover --- *)

let item attrs benefit =
  { Vp_algorithms.Knapsack.group = Attr_set.of_list attrs; benefit }

let test_knapsack_trivial () =
  let cover, benefit = Vp_algorithms.Knapsack.solve ~n:3 [] in
  Alcotest.(check (float 0.0)) "benefit 0" 0.0 benefit;
  Alcotest.(check int) "singletons" 3 (List.length cover)

let test_knapsack_picks_best () =
  let cover, benefit =
    Vp_algorithms.Knapsack.solve ~n:4
      [ item [ 0; 1 ] 3.0; item [ 2; 3 ] 3.0; item [ 1; 2 ] 5.0 ]
  in
  (* {1,2} at 5.0 beats {0,1}+{2,3} at 6.0? No: 6.0 > 5.0 — the pair of
     disjoint items wins. *)
  Alcotest.(check (float 0.0)) "best" 6.0 benefit;
  Alcotest.(check int) "two groups" 2 (List.length cover)

let test_knapsack_overlap_resolution () =
  let _, benefit =
    Vp_algorithms.Knapsack.solve ~n:3
      [ item [ 0; 1 ] 4.0; item [ 1; 2 ] 4.0; item [ 0; 1; 2 ] 5.0 ]
  in
  (* Overlapping items can't both be chosen; the triple at 5.0 wins over
     either pair (4.0). *)
  Alcotest.(check (float 0.0)) "triple wins" 5.0 benefit

let test_knapsack_cover_is_partition () =
  let cover, _ =
    Vp_algorithms.Knapsack.solve ~n:5
      [ item [ 0; 2 ] 1.0; item [ 1; 3 ] 2.0; item [ 2; 4 ] 3.0 ]
  in
  let p = Partitioning.of_groups ~n:5 cover in
  Alcotest.(check int) "valid partition" 5 (Partitioning.attribute_count p)

let test_knapsack_invalid () =
  Alcotest.check_raises "negative benefit"
    (Invalid_argument "Knapsack.solve: negative benefit") (fun () ->
      ignore (Vp_algorithms.Knapsack.solve ~n:2 [ item [ 0 ] (-1.0) ]))

(* Exhaustive cross-check on small instances: the DFS must match a brute
   force over all set partitions scored by summed benefits. *)
let prop_knapsack_matches_exhaustive =
  QCheck2.Test.make ~name:"knapsack matches exhaustive" ~count:60
    QCheck2.Gen.(
      let* n = int_range 2 6 in
      let* items =
        list_size (int_range 0 6)
          (let* mask = int_range 1 ((1 lsl n) - 1) in
           let* benefit = float_range 0.0 10.0 in
           return { Vp_algorithms.Knapsack.group = Attr_set.of_mask mask; benefit })
      in
      return (n, items))
    (fun (n, items) ->
      let _, got = Vp_algorithms.Knapsack.solve ~n items in
      (* Exhaustive: score every set partition by the total benefit of its
         groups that appear among the items (best benefit per group). *)
      let best_for_group g =
        List.fold_left
          (fun acc it ->
            if Attr_set.equal it.Vp_algorithms.Knapsack.group g then
              max acc it.Vp_algorithms.Knapsack.benefit
            else acc)
          0.0 items
      in
      let best = ref 0.0 in
      Enumeration.iter_partitions n (fun p ->
          let score =
            List.fold_left
              (fun acc g -> acc +. best_for_group g)
              0.0 (Partitioning.groups p)
          in
          if score > !best then best := score);
      Float.abs (got -. !best) < 1e-9)

(* --- Mutual information --- *)

module M = Vp_algorithms.Mutual_information

let test_mi_identical_signatures () =
  let w = Testutil.partsupp_workload in
  (* PartKey(0) and SuppKey(1) have identical access signatures. *)
  Alcotest.(check (float 1e-9)) "nmi = 1" 1.0 (M.normalized w 0 1)

let test_mi_disjoint_signatures () =
  let w = Testutil.partsupp_workload in
  (* PartKey(0) and Comment(4) are never co-accessed: with only two
     queries their indicators are perfectly anti-correlated, and MI of a
     deterministic relationship is maximal — so test the raw MI sign
     rather than independence. *)
  Alcotest.(check bool) "mi >= 0" true (M.mutual w 0 4 >= 0.0)

let test_mi_entropy () =
  let w = Testutil.partsupp_workload in
  (* AvailQty is accessed by both queries: probability 1 -> entropy 0. *)
  Alcotest.(check (float 1e-9)) "entropy 0" 0.0 (M.entropy w 2);
  (* PartKey accessed by 1 of 2 queries: entropy 1 bit. *)
  Alcotest.(check (float 1e-9)) "entropy 1" 1.0 (M.entropy w 0)

let test_interestingness_singleton_zero () =
  let w = Testutil.partsupp_workload in
  Alcotest.(check (float 0.0)) "singleton" 0.0
    (M.interestingness w (Attr_set.singleton 0));
  Alcotest.(check (float 1e-9)) "identical pair maximal" 1.0
    (M.interestingness w (Attr_set.of_list [ 0; 1 ]))

let prop_mi_symmetric =
  QCheck2.Test.make ~name:"MI symmetric and bounded" ~count:100
    QCheck2.Gen.(triple (Testutil.gen_workload 6 6) (int_range 0 5) (int_range 0 5))
    (fun (w, i, j) ->
          let a = M.mutual w i j and b = M.mutual w j i in
      Float.abs (a -. b) < 1e-9
      && a >= 0.0
      && M.normalized w i j >= 0.0
      && M.normalized w i j <= 1.0 +. 1e-9)

let suite =
  [
    Alcotest.test_case "BEA permutation" `Quick test_bea_permutation;
    Alcotest.test_case "BEA adjacency" `Quick test_bea_affine_adjacency;
    Alcotest.test_case "BEA insert" `Quick test_bea_insert;
    Alcotest.test_case "bond symmetric" `Quick test_bond_symmetric;
    Testutil.qtest prop_bea_always_permutation;
    Alcotest.test_case "graph basic" `Quick test_graph_basic;
    Alcotest.test_case "graph size bound" `Quick test_graph_size_bound;
    Alcotest.test_case "graph isolated nodes" `Quick test_graph_isolated_nodes;
    Alcotest.test_case "graph components" `Quick test_graph_components;
    Alcotest.test_case "graph invalid" `Quick test_graph_invalid;
    Testutil.qtest prop_graph_bound_respected;
    Alcotest.test_case "knapsack trivial" `Quick test_knapsack_trivial;
    Alcotest.test_case "knapsack picks best" `Quick test_knapsack_picks_best;
    Alcotest.test_case "knapsack overlap" `Quick test_knapsack_overlap_resolution;
    Alcotest.test_case "knapsack cover valid" `Quick test_knapsack_cover_is_partition;
    Alcotest.test_case "knapsack invalid" `Quick test_knapsack_invalid;
    Testutil.qtest prop_knapsack_matches_exhaustive;
    Alcotest.test_case "MI identical signatures" `Quick test_mi_identical_signatures;
    Alcotest.test_case "MI sign" `Quick test_mi_disjoint_signatures;
    Alcotest.test_case "MI entropy" `Quick test_mi_entropy;
    Alcotest.test_case "interestingness" `Quick test_interestingness_singleton_zero;
    Testutil.qtest prop_mi_symmetric;
  ]

(* --- Navathe z objective and clique rule --- *)

let test_z_split_prefers_clean_cut () =
  (* Two disjoint query clusters: attrs {0,1} and {2,3}, never co-accessed.
     The best split of the natural order must cut exactly between them with
     z >= 0. *)
  let table =
    Table.make ~name:"z" ~row_count:1000
      ~attributes:(List.init 4 (fun i ->
          Attribute.make (Printf.sprintf "a%d" i) Attribute.Int32))
  in
  let w =
    Workload.make table
      [
        Query.make ~name:"q1" ~references:(Attr_set.of_list [ 0; 1 ]) ();
        Query.make ~name:"q2" ~references:(Attr_set.of_list [ 2; 3 ]) ();
      ]
  in
  match Vp_algorithms.Navathe.best_z_split w [] [| 0; 1; 2; 3 |] 0 4 with
  | Some (cut, z) ->
      Alcotest.(check int) "cut between clusters" 2 cut;
      Alcotest.(check bool) "clean" true (z >= 0.0)
  | None -> Alcotest.fail "expected a split"

let test_clique_references () =
  let m = Affinity.of_workload Testutil.partsupp_workload in
  (* In the two-query fixture, AvailQty/SupplyCost co-occur twice (affinity
     2) while every other positive pair has affinity 1; the mean positive
     affinity is 9/8 = 1.125. *)
  let qty_cost = Attr_set.of_list [ 2; 3 ] in
  Alcotest.(check bool) "strong clique" true
    (Vp_algorithms.Navathe.is_affinity_clique m qty_cost);
  (* PartKey/SuppKey co-occur only once: below the mean, above zero. *)
  let keys = Attr_set.of_list [ 0; 1 ] in
  Alcotest.(check bool) "weak pair fails Mean_positive" false
    (Vp_algorithms.Navathe.is_affinity_clique ~reference:`Mean_positive m keys);
  Alcotest.(check bool) "weak pair passes Any_positive" true
    (Vp_algorithms.Navathe.is_affinity_clique ~reference:`Any_positive m keys);
  (* PartKey/Comment are never co-accessed: no clique under any rule. *)
  let never = Attr_set.of_list [ 0; 4 ] in
  Alcotest.(check bool) "zero pair fails even Any_positive" false
    (Vp_algorithms.Navathe.is_affinity_clique ~reference:`Any_positive m never)

let test_navathe_contiguity () =
  (* Navathe's result must be a set of contiguous runs of its clustered
     order. *)
  let w = Vp_benchmarks.Tpch.workload ~sf:1.0 "lineitem" in
  let order = Vp_algorithms.Navathe.clustered_order w in
  let position = Array.make (Array.length order) 0 in
  Array.iteri (fun pos attr -> position.(attr) <- pos) order;
  let oracle = Vp_cost.Io_model.oracle Vp_cost.Disk.default w in
  let r = Partitioner.exec Vp_algorithms.Navathe.algorithm (Testutil.request ~cost:oracle w) in
  List.iter
    (fun g ->
      let positions =
        List.sort compare (List.map (fun a -> position.(a)) (Attr_set.to_list g))
      in
      match positions with
      | [] -> ()
      | first :: rest ->
          ignore
            (List.fold_left
               (fun prev p ->
                 Alcotest.(check int) "contiguous run" (prev + 1) p;
                 p)
               first rest))
    (Partitioning.groups r.Partitioner.Response.partitioning)

let suite =
  suite
  @ [
      Alcotest.test_case "z split clean cut" `Quick test_z_split_prefers_clean_cut;
      Alcotest.test_case "clique references" `Quick test_clique_references;
      Alcotest.test_case "navathe contiguity" `Quick test_navathe_contiguity;
    ]
