open Vp_core

(* A disk profile with round numbers so costs can be computed by hand:
   1000-byte blocks, 4000-byte buffer, 1 MB/s bandwidth, 10 ms seek. *)
let hand_disk =
  Vp_cost.Disk.make ~block_size:1000 ~buffer_size:4000 ~read_bandwidth:1e6
    ~write_bandwidth:1e6 ~seek_time:0.01 ()

(* tiny: 1000 rows of a:int32(4) b:decimal(8) c:char(20). *)
let table = Testutil.tiny

let q refs = Query.make ~name:"q" ~references:(Attr_set.of_list refs) ()

let cost p refs =
  Vp_cost.Io_model.query_cost hand_disk table p (q refs)

let test_single_column_query () =
  (* Column layout, query {a}: partition of width 4 gets the whole buffer.
     blocks = ceil(1000 / floor(1000/4)) = 4; refills = ceil(4/4) = 1;
     cost = 0.01 + 4000/1e6 = 0.014. *)
  Alcotest.(check (Testutil.close ~eps:1e-12 ()))
    "hand computed" 0.014
    (cost (Partitioning.column 3) [ 0 ])

let test_two_column_query () =
  (* Column layout, query {a,b}: buffer split 4:8.
     a: share 1333 -> 1 block per refill, 4 blocks -> 4 refills; scan 0.004.
     b: share 2666 -> 2 blocks, blocks = ceil(1000/125) = 8 -> 4 refills;
     scan 0.008. Total = 0.04 + 0.004 + 0.04 + 0.008 = 0.092. *)
  Alcotest.(check (Testutil.close ~eps:1e-12 ()))
    "hand computed" 0.092
    (cost (Partitioning.column 3) [ 0; 1 ])

let test_row_layout_query () =
  (* Row layout (width 32), query {a}: reads everything.
     rows/block = 31 -> 33 blocks; buffer 4 blocks -> 9 refills;
     cost = 0.09 + 0.033 = 0.123. *)
  Alcotest.(check (Testutil.close ~eps:1e-12 ()))
    "hand computed" 0.123
    (cost (Partitioning.row 3) [ 0 ])

let test_breakdown_consistency () =
  let p = Partitioning.column 3 in
  let query = q [ 0; 1 ] in
  let b = Vp_cost.Io_model.query_breakdown hand_disk table p query in
  Alcotest.(check (Testutil.close ~eps:1e-12 ()))
    "seek+scan = cost"
    (Vp_cost.Io_model.query_cost hand_disk table p query)
    (b.seek_cost +. b.scan_cost);
  Alcotest.(check int) "partitions" 2 b.partitions_read;
  Alcotest.(check (float 0.0)) "bytes needed" 12000.0 b.bytes_needed;
  Alcotest.(check (float 0.0)) "bytes read" 12000.0 b.bytes_read;
  Alcotest.(check int) "seeks = refills" 8 b.seeks

let test_row_reads_everything () =
  let b =
    Vp_cost.Io_model.query_breakdown hand_disk table (Partitioning.row 3) (q [ 0 ])
  in
  Alcotest.(check (float 0.0)) "reads full rows" 32000.0 b.bytes_read;
  Alcotest.(check (float 0.0)) "needs only a" 4000.0 b.bytes_needed

let test_partition_blocks () =
  Alcotest.(check int) "4B rows" 4
    (Vp_cost.Io_model.partition_blocks hand_disk ~rows:1000 ~row_size:4);
  Alcotest.(check int) "wider than block" 3
    (Vp_cost.Io_model.partition_blocks hand_disk ~rows:2 ~row_size:1500);
  Alcotest.(check int) "zero rows" 0
    (Vp_cost.Io_model.partition_blocks hand_disk ~rows:0 ~row_size:4)

let test_workload_cost_weighted () =
  let q1 = Query.make ~weight:2.0 ~name:"q1" ~references:(Attr_set.singleton 0) () in
  let w = Workload.make table [ q1 ] in
  let p = Partitioning.column 3 in
  Alcotest.(check (Testutil.close ~eps:1e-12 ()))
    "weight doubles cost" (2.0 *. 0.014)
    (Vp_cost.Io_model.workload_cost hand_disk w p)

let test_pmv_cost () =
  (* PMV for query {a}: dedicated partition of width 4 with the whole
     buffer = the column-layout single-column case. *)
  let w = Workload.make table [ q [ 0 ] ] in
  Alcotest.(check (Testutil.close ~eps:1e-12 ()))
    "pmv" 0.014
    (Vp_cost.Io_model.pmv_cost hand_disk w)

let test_creation_time_positive () =
  let t = Vp_cost.Io_model.creation_time hand_disk table (Partitioning.column 3) in
  Alcotest.(check bool) "positive" true (t > 0.0);
  (* At least the sequential read of the table plus the write of all
     partitions. *)
  let floor_time = (32000.0 +. 32000.0) /. 1e6 in
  Alcotest.(check bool) "above transfer floor" true (t >= floor_time)

let test_memory_model_hand () =
  let mm = Vp_cost.Memory_model.make ~cache_line:64 ~bandwidth:1e9 () in
  (* Column layout, query {a}: 4000 bytes -> 63 lines -> 4032 bytes. *)
  Alcotest.(check (Testutil.close ~eps:1e-12 ()))
    "hand" (4032.0 /. 1e9)
    (Vp_cost.Memory_model.query_cost mm table (Partitioning.column 3) (q [ 0 ]))

(* --- properties --- *)

let arb_workload_and_partitioning =
  QCheck2.Gen.(
    let* w = Testutil.gen_workload 6 5 in
    let* seed = int in
    let state = Random.State.make [| seed |] in
    let p = Enumeration.random_partitioning (Random.State.int state) 6 in
    return (w, p))

let prop_cost_positive =
  QCheck2.Test.make ~name:"workload cost positive" ~count:200
    arb_workload_and_partitioning (fun (w, p) ->
      Vp_cost.Io_model.workload_cost hand_disk w p > 0.0)

let prop_pmv_is_lower_bound =
  QCheck2.Test.make ~name:"PMV cost <= any layout cost" ~count:200
    arb_workload_and_partitioning (fun (w, p) ->
      Vp_cost.Io_model.pmv_cost hand_disk w
      <= Vp_cost.Io_model.workload_cost hand_disk w p +. 1e-9)

let prop_cost_monotone_in_rows =
  QCheck2.Test.make ~name:"cost monotone in row count" ~count:200
    arb_workload_and_partitioning (fun (w, p) ->
      let bigger =
        Workload.with_table w
          (Table.with_row_count (Workload.table w)
             (2 * Table.row_count (Workload.table w)))
      in
      Vp_cost.Io_model.workload_cost hand_disk w p
      <= Vp_cost.Io_model.workload_cost hand_disk bigger p +. 1e-9)

let prop_needed_le_read =
  QCheck2.Test.make ~name:"bytes needed <= bytes read" ~count:200
    arb_workload_and_partitioning (fun (w, p) ->
      Array.for_all
        (fun query ->
          let b =
            Vp_cost.Io_model.query_breakdown hand_disk (Workload.table w) p query
          in
          b.bytes_needed <= b.bytes_read +. 1e-9)
        (Workload.queries w))

(* The branch-and-bound bound computed from scratch: one fold over the
   queries, filtering the block list for each. The reference the bound
   carried by difference must match bit for bit. *)
let reference_bound ~seek_unit ~byte_rate workload ~blocks =
  let table = Workload.table workload in
  let rows = float_of_int (Table.row_count table) in
  Array.fold_left
    (fun acc q ->
      let refs = Query.references q in
      let referenced_blocks =
        List.filter (fun b -> Attr_set.intersects b refs) blocks
      in
      let seeks = float_of_int (List.length referenced_blocks) in
      let needed = float_of_int (Table.subset_size table refs) in
      let colocated =
        List.fold_left
          (fun w b -> w + Table.subset_size table (Attr_set.diff b refs))
          0 referenced_blocks
      in
      let bytes = rows *. (needed +. float_of_int colocated) in
      acc +. (Query.weight q *. ((seek_unit *. seeks) +. (bytes /. byte_rate))))
    0.0 (Workload.queries workload)

(* A workload over 6, 48 or 62 attributes (so masks reach bit 61), up to
   ten atoms covering its attributes in random order, and a seed for the
   walks. *)
let gen_bound_walk =
  QCheck2.Gen.(
    let* n = oneofl [ 6; 48; 62 ] in
    let* w = Testutil.gen_workload n 6 in
    let* k = int_range 1 10 in
    let* owner = array_size (return n) (int_bound (k - 1)) in
    let* seed = int in
    let atoms =
      List.init k (fun a ->
          Attr_set.of_list
            (List.filter (fun i -> owner.(i) = a) (List.init n Fun.id)))
      |> List.filter (fun g -> not (Attr_set.is_empty g))
    in
    return (w, atoms, seed))

type bound_obs = {
  bound : float;
  reference : float;
  on_path : bool;  (** The child lies on the walk, so its leaf extends it. *)
  leaf_cost : float;  (** Full cost of the walk's leaf. *)
  at_leaf : bool;  (** The child places the last atom. *)
}

(* Two random restricted-growth paths through one applied bound, for the
   I/O and the main-memory bound. At every node of a path, every child's
   bound is observed next to [reference_bound] of the child's blocks;
   at random nodes the walk also descends into an off-path child,
   observes its children and returns, so later bounds are read from
   restored state. *)
let walk_bounds (w, atoms, seed) =
  let state = Random.State.make [| seed |] in
  let rand k = Random.State.int state k in
  let atoms = Array.of_list atoms in
  let m = Array.length atoms in
  let n = Table.attribute_count (Workload.table w) in
  let mm = Vp_cost.Memory_model.default in
  let models =
    [
      ( Vp_cost.Bounds.io_brute_force hand_disk w atoms,
        reference_bound ~seek_unit:hand_disk.seek_time
          ~byte_rate:hand_disk.read_bandwidth w,
        Vp_cost.Io_model.workload_cost hand_disk w );
      ( Vp_cost.Bounds.memory_brute_force mm w atoms,
        reference_bound ~seek_unit:0.0 ~byte_rate:mm.bandwidth w,
        Vp_cost.Memory_model.workload_cost mm w );
    ]
  in
  let obs = ref [] in
  let blocks = Array.make m Attr_set.empty in
  let child_blocks i j used =
    List.init
      (if j = used then used + 1 else used)
      (fun b ->
        if b = j then Attr_set.union blocks.(b) atoms.(i) else blocks.(b))
  in
  let walk (b, reference, full) =
    let path = Array.make m 0 and opened = ref 0 in
    for i = 0 to m - 1 do
      path.(i) <- rand (!opened + 1);
      if path.(i) = !opened then incr opened
    done;
    let leaf = Array.make !opened Attr_set.empty in
    Array.iteri (fun i j -> leaf.(j) <- Attr_set.union leaf.(j) atoms.(i)) path;
    let leaf_cost = full (Partitioning.of_groups ~n (Array.to_list leaf)) in
    let observe i used ~on_path =
      for j = 0 to used do
        obs :=
          {
            bound = b.Vp_cost.Bounds.child i j;
            reference = reference ~blocks:(child_blocks i j used);
            on_path = on_path && path.(i) = j;
            leaf_cost;
            at_leaf = i = m - 1;
          }
          :: !obs
      done
    in
    let step i j used f =
      b.descend i j;
      let saved = blocks.(j) in
      blocks.(j) <- Attr_set.union saved atoms.(i);
      f (if j = used then used + 1 else used);
      blocks.(j) <- saved;
      b.ascend i j
    in
    let rec node i used =
      if i < m then begin
        observe i used ~on_path:true;
        let off = rand (used + 1) in
        if i + 1 < m && off <> path.(i) then
          step i off used (fun used' -> observe (i + 1) used' ~on_path:false);
        step i path.(i) used (node (i + 1))
      end
    in
    node 0 0
  in
  List.iter (fun model -> walk model; walk model) models;
  !obs

let prop_brute_force_bound_admissible =
  QCheck2.Test.make ~name:"B&B lower bound admissible at leaves" ~count:200
    gen_bound_walk (fun case ->
      List.for_all
        (fun o ->
          (not (o.on_path && o.at_leaf)) || o.bound <= o.leaf_cost +. 1e-9)
        (walk_bounds case))

let prop_bound_admissible_at_prefixes =
  QCheck2.Test.make ~name:"B&B lower bound admissible at prefixes" ~count:200
    gen_bound_walk (fun case ->
      List.for_all
        (fun o -> (not o.on_path) || o.bound <= o.leaf_cost +. 1e-9)
        (walk_bounds case))

let prop_bound_matches_reference =
  QCheck2.Test.make ~name:"B&B bound = list-based reference, bit for bit"
    ~count:200 gen_bound_walk (fun case ->
      let bits = Int64.bits_of_float in
      List.for_all
        (fun o -> bits o.bound = bits o.reference)
        (walk_bounds case))

let prop_subset_size_width_sum =
  QCheck2.Test.make ~name:"subset size = per-attribute width sum" ~count:300
    QCheck2.Gen.(
      let* n = int_range 1 62 in
      let* w = Testutil.gen_workload n 1 in
      let* m = int in
      return (Workload.table w, m))
    (fun (table, m) ->
      let n = Table.attribute_count table in
      let full = Attr_set.to_mask (Table.all_attributes table) in
      let set = Attr_set.of_mask (abs m land full) in
      let by_attribute =
        Attr_set.fold (fun i acc -> acc + Table.width table i) set 0
      in
      Table.subset_size table set = by_attribute
      && (n = 62
         ||
         match Table.subset_size table (Attr_set.add n set) with
         | exception Invalid_argument _ -> true
         | _ -> false))

let prop_memory_column_optimal =
  QCheck2.Test.make ~name:"MM model: column layout near-optimal" ~count:200
    arb_workload_and_partitioning (fun (w, p) ->
      let mm = Vp_cost.Memory_model.default in
      let n = Table.attribute_count (Workload.table w) in
      (* Tolerance: one cache line per (query, group) of rounding. *)
      let slack =
        float_of_int (Workload.query_count w * n * 64) /. 10.0e9
      in
      Vp_cost.Memory_model.workload_cost mm w (Partitioning.column n)
      <= Vp_cost.Memory_model.workload_cost mm w p +. slack)

let suite =
  [
    Alcotest.test_case "single-column query" `Quick test_single_column_query;
    Alcotest.test_case "two-column query" `Quick test_two_column_query;
    Alcotest.test_case "row-layout query" `Quick test_row_layout_query;
    Alcotest.test_case "breakdown consistency" `Quick test_breakdown_consistency;
    Alcotest.test_case "row reads everything" `Quick test_row_reads_everything;
    Alcotest.test_case "partition blocks" `Quick test_partition_blocks;
    Alcotest.test_case "weighted workload cost" `Quick test_workload_cost_weighted;
    Alcotest.test_case "pmv cost" `Quick test_pmv_cost;
    Alcotest.test_case "creation time" `Quick test_creation_time_positive;
    Alcotest.test_case "memory model hand value" `Quick test_memory_model_hand;
    Testutil.qtest prop_cost_positive;
    Testutil.qtest prop_pmv_is_lower_bound;
    Testutil.qtest prop_cost_monotone_in_rows;
    Testutil.qtest prop_needed_le_read;
    Testutil.qtest prop_brute_force_bound_admissible;
    Testutil.qtest prop_bound_admissible_at_prefixes;
    Testutil.qtest prop_memory_column_optimal;
    Testutil.qtest prop_bound_matches_reference;
    Testutil.qtest prop_subset_size_width_sum;
  ]

(* The paper: "The time to transform from row layout to vertically
   partitioned layout for scale factor 10 is around 420 seconds for all
   algorithms." Our analytic creation time for the HillClimb layouts must
   land in that ballpark (the exact number depends on the write-bandwidth
   accounting). *)
let test_creation_time_paper_ballpark () =
  let disk = Vp_cost.Disk.default in
  let total =
    List.fold_left
      (fun acc w ->
        let oracle = Vp_cost.Io_model.oracle disk w in
        let r = Partitioner.exec Vp_algorithms.Hillclimb.algorithm (Testutil.request ~cost:oracle w) in
        acc
        +. Vp_cost.Io_model.creation_time disk (Workload.table w)
             r.Partitioner.Response.partitioning)
      0.0
      (Vp_benchmarks.Tpch.workloads ~sf:10.0)
  in
  Alcotest.(check bool)
    (Printf.sprintf "creation in [300, 700] s (got %.0f, paper ~420)" total)
    true
    (total >= 300.0 && total <= 700.0)

let suite =
  suite
  @ [
      Alcotest.test_case "creation time paper ballpark" `Quick
        test_creation_time_paper_ballpark;
    ]
