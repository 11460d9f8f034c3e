(* The racing portfolio and its two new entrants.

   - Winner determinism: the winning (entrant, cost, layout) triple is
     byte-identical at --jobs 1 and --jobs 4 — the race's cancellation
     rule only ever cancels entrants that could at best tie a completed
     lower-indexed layout, so scheduling cannot change the winner.
   - Cancellation: a cancelled run (pre-set or flipped mid-search)
     surfaces a valid best-so-far layout as [Timed_out], for every
     registered algorithm.
   - Never worse: under equal step budgets the portfolio's cost is <=
     every single entrant's.
   - ILP exactness: with the admissible I/O bound, ILP's cost equals
     BruteForce's bit-for-bit on small tables (both are exact searches;
     they differ only in branching order and bound).
   - Hypergraph invariants: validity, never costlier than the atom
     layout it starts from, and the connectivity-cut metric's anchor
     points (row = 0, column = sum w_q (|refs| - 1), monotone under
     merges). *)

open Vp_core

let disk = Vp_cost.Disk.default

(* A random (table, workload) pair, [n_max] attributes at most — the
   same deterministic SplitMix64 idiom as test_invariants. *)
let random_workload ?(n_max = 8) root i =
  let g = Vp_datagen.Prng.split root i in
  let n = Vp_datagen.Prng.int_in g 2 n_max in
  let attributes =
    List.init n (fun j ->
        Attribute.make
          (Printf.sprintf "c%d" j)
          (match j mod 3 with
          | 0 -> Attribute.Int32
          | 1 -> Attribute.Decimal
          | _ -> Attribute.Char (5 + j)))
  in
  let rows = Vp_datagen.Prng.int_in g 1_000 500_000 in
  let table =
    Table.make ~name:(Printf.sprintf "rand%d" i) ~attributes ~row_count:rows
  in
  let q_count = Vp_datagen.Prng.int_in g 1 6 in
  let queries =
    List.init q_count (fun j ->
        let mask = 1 + Vp_datagen.Prng.int g ((1 lsl n) - 1) in
        Query.make
          ~name:(Printf.sprintf "q%d" j)
          ~weight:(1.0 +. Vp_datagen.Prng.float g 4.0)
          ~references:(Attr_set.of_mask mask)
          ())
  in
  Workload.make table queries

let winner_of (r : Partitioner.Response.t) =
  match
    List.find_opt
      (fun (e : Partitioner.Response.entrant) -> e.winner)
      r.provenance.Partitioner.Response.entrants
  with
  | Some e -> e.Partitioner.Response.entrant
  | None -> Alcotest.fail "portfolio response carries no winning entrant"

let render_winner (r : Partitioner.Response.t) =
  Printf.sprintf "%s cost=%Lx layout=%s" (winner_of r)
    (Int64.bits_of_float r.cost)
    (Partitioning.to_string r.partitioning)

(* The race result — winning entrant, cost bits, layout — must not
   depend on the pool width. Loser statuses may (a straggler that gets
   cancelled at jobs 1 may finish at jobs 4), so only the winner and
   the response's own fields are compared. *)
let test_determinism_across_jobs () =
  let root = Vp_datagen.Prng.create 0xF0120L in
  for i = 0 to 9 do
    let w = random_workload root i in
    let run jobs =
      let algo = Vp_algorithms.Portfolio.with_bound ~jobs disk in
      let oracle = Vp_cost.Io_model.oracle disk w in
      let delta = Vp_cost.Io_model.Incremental.factory disk w in
      let budget = Vp_robust.Budget.create ~max_steps:400 () in
      Partitioner.exec algo
        (Partitioner.Request.make ~budget ~delta ~cost:oracle w)
    in
    let r1 = run 1 and r4 = run 4 in
    Alcotest.(check string)
      (Printf.sprintf "pair %d: winner identical at jobs 1 and 4" i)
      (render_winner r1) (render_winner r4);
    Alcotest.(check bool)
      (Printf.sprintf "pair %d: winner layout valid" i)
      true
      (Testutil.valid_partitioning_of_workload
         r1.Partitioner.Response.partitioning w)
  done

(* Every registered algorithm — the portfolio included — must answer a
   pre-cancelled request with a valid [Timed_out] best-so-far layout. *)
let test_cancelled_before_start () =
  let root = Vp_datagen.Prng.create 0xCA7CE1L in
  for i = 0 to 4 do
    let w = random_workload root i in
    let oracle = Vp_cost.Io_model.oracle disk w in
    List.iter
      (fun (a : Partitioner.t) ->
        let ctx = Printf.sprintf "%s on pair %d, pre-cancelled" a.name i in
        let cancel = Atomic.make true in
        let r =
          Partitioner.exec a
            (Testutil.request ~cancel ~cost:oracle w)
        in
        Alcotest.(check bool)
          (ctx ^ ": valid best-so-far layout") true
          (Testutil.valid_partitioning_of_workload
             r.Partitioner.Response.partitioning w);
        match r.Partitioner.Response.status with
        | Partitioner.Timed_out _ -> ()
        | Partitioner.Complete -> Alcotest.failf "%s: reported Complete" ctx)
      Vp_algorithms.Registry.all
  done

(* Mid-run cancellation: the cost oracle itself flips the signal after a
   few calls, so the cancel lands at an arbitrary point of the search.
   The run must still answer a valid layout; its status must be
   [Timed_out] whenever the search had budget-checked work left (an
   algorithm that happened to finish before its next tick may honestly
   report [Complete] — both are valid under the contract, invalid
   layouts and crashes are not). *)
let test_cancelled_mid_run () =
  let root = Vp_datagen.Prng.create 0x317DCA7L in
  for i = 0 to 4 do
    let w = random_workload root i in
    let oracle = Vp_cost.Io_model.oracle disk w in
    List.iter
      (fun (a : Partitioner.t) ->
        let ctx = Printf.sprintf "%s on pair %d, cancelled mid-run" a.name i in
        let cancel = Atomic.make false in
        let calls = Atomic.make 0 in
        let tripwire p =
          if Atomic.fetch_and_add calls 1 >= 5 then Atomic.set cancel true;
          oracle p
        in
        let r =
          Partitioner.exec a
            (Testutil.request ~cancel ~cost:tripwire w)
        in
        Alcotest.(check bool)
          (ctx ^ ": valid best-so-far layout") true
          (Testutil.valid_partitioning_of_workload
             r.Partitioner.Response.partitioning w))
      Vp_algorithms.Registry.all
  done

(* Equal budgets: each entrant races on a [Budget.spawn] of the request
   budget — exactly a solo run's allowance — and the winner is the
   cheapest response, so the portfolio can never be costlier than any
   entrant run solo under the same step budget. Two inputs: random small
   pairs at 300 steps against the default line-up, and the TPC-H line-up
   at 20,000 steps against the bounded line-up the experiments use. *)
let check_never_worse ~race ~entrants ~steps label w =
  let oracle = Vp_cost.Io_model.oracle disk w in
  let delta = Vp_cost.Io_model.Incremental.factory disk w in
  let run a =
    let budget = Vp_robust.Budget.create ~max_steps:steps () in
    (Partitioner.exec a (Partitioner.Request.make ~budget ~delta ~cost:oracle w))
      .Partitioner.Response.cost
  in
  let race_cost = run race in
  List.iter
    (fun (a : Partitioner.t) ->
      let solo = run a in
      Alcotest.(check bool)
        (Printf.sprintf "%s: portfolio (%g) <= solo %s (%g) under %d steps"
           label race_cost a.name solo steps)
        true (race_cost <= solo))
    entrants

let test_never_worse_than_singles () =
  let root = Vp_datagen.Prng.create 0xBE57L in
  for i = 0 to 7 do
    check_never_worse
      ~race:(Vp_algorithms.Portfolio.make ~jobs:2 ())
      ~entrants:(Vp_algorithms.Portfolio.default_entrants ())
      ~steps:300 (Printf.sprintf "pair %d" i) (random_workload root i)
  done;
  let bounded =
    Vp_algorithms.Registry.with_brute_force
      ~brute_force:(Vp_experiments.Common.brute_force disk) ()
    @ [ Vp_algorithms.Ilp.with_bound disk; Vp_algorithms.Hypergraph.algorithm ]
    @ Vp_algorithms.Registry.baselines
  in
  List.iter
    (fun w ->
      check_never_worse
        ~race:(Vp_algorithms.Portfolio.with_bound ~jobs:2 disk)
        ~entrants:bounded ~steps:20_000
        (Table.name (Workload.table w))
        w)
    (Vp_benchmarks.Tpch.workloads ~sf:Vp_experiments.Common.sf)

(* Two exact searches, one answer: with the admissible I/O bound wired,
   ILP must price its layout exactly like BruteForce on every small
   table — same cost bits under the same oracle. *)
let test_ilp_matches_brute_force () =
  let root = Vp_datagen.Prng.create 0x11BF0L in
  let ilp = Vp_algorithms.Ilp.with_bound disk in
  let bf =
    Vp_algorithms.Brute_force.make
      ~lower_bound:(Vp_cost.Bounds.io_brute_force disk) ()
  in
  for i = 0 to 11 do
    let w = random_workload ~n_max:10 root i in
    let oracle = Vp_cost.Io_model.oracle disk w in
    let run a = Partitioner.exec a (Testutil.request ~cost:oracle w) in
    let ri = run ilp and rb = run bf in
    Alcotest.(check string)
      (Printf.sprintf "pair %d: ILP cost = BruteForce cost (bits)" i)
      (Printf.sprintf "%Lx" (Int64.bits_of_float rb.Partitioner.Response.cost))
      (Printf.sprintf "%Lx" (Int64.bits_of_float ri.Partitioner.Response.cost));
    Alcotest.(check bool)
      (Printf.sprintf "pair %d: ILP layout valid" i)
      true
      (Testutil.valid_partitioning_of_workload
         ri.Partitioner.Response.partitioning w)
  done

(* --- hypergraph invariants (QCheck2) --- *)

let atoms_layout w =
  Partitioning.of_groups
    ~n:(Table.attribute_count (Workload.table w))
    (Workload.primary_partitions w)

let hypergraph_valid_and_never_above_atoms =
  QCheck2.Test.make ~count:60
    ~name:"hypergraph: valid layout, never costlier than the atom layout"
    (Testutil.gen_workload 6 4)
    (fun w ->
      let oracle = Vp_cost.Io_model.oracle disk w in
      let r =
        Partitioner.exec Vp_algorithms.Hypergraph.algorithm
          (Testutil.request ~cost:oracle w)
      in
      Testutil.valid_partitioning_of_workload
        r.Partitioner.Response.partitioning w
      && r.Partitioner.Response.cost <= oracle (atoms_layout w))

let hypergraph_cut_anchors =
  QCheck2.Test.make ~count:60
    ~name:"hypergraph: cut(row) = 0, cut(column) = sum w (|refs| - 1)"
    (Testutil.gen_workload 6 4)
    (fun w ->
      let n = Table.attribute_count (Workload.table w) in
      let row = Vp_algorithms.Hypergraph.connectivity_cut w
          (Partitioning.row n)
      in
      let expected_col =
        Array.fold_left
          (fun acc q ->
            acc
            +. Query.weight q
               *. float_of_int (Attr_set.cardinal (Query.references q) - 1))
          0.0 (Workload.queries w)
      in
      let col =
        Vp_algorithms.Hypergraph.connectivity_cut w (Partitioning.column n)
      in
      row = 0.0 && abs_float (col -. expected_col) <= 1e-9)

let hypergraph_cut_monotone_under_merge =
  QCheck2.Test.make ~count:60
    ~name:"hypergraph: merging two groups never increases the cut"
    QCheck2.Gen.(pair (Testutil.gen_workload 6 4) (int_range 0 1000))
    (fun (w, seed) ->
      let n = Table.attribute_count (Workload.table w) in
      let state = Random.State.make [| seed |] in
      let p = Enumeration.random_partitioning (Random.State.int state) n in
      match Partitioning.groups p with
      | a :: b :: rest ->
          let merged =
            Partitioning.of_groups ~n (Attr_set.union a b :: rest)
          in
          Vp_algorithms.Hypergraph.connectivity_cut w merged
          <= Vp_algorithms.Hypergraph.connectivity_cut w p +. 1e-9
      | _ -> true)

let suite =
  [
    Alcotest.test_case "race winner identical at jobs 1 and 4" `Quick
      test_determinism_across_jobs;
    Alcotest.test_case "cancelled before start: valid Timed_out" `Quick
      test_cancelled_before_start;
    Alcotest.test_case "cancelled mid-run: valid best-so-far" `Quick
      test_cancelled_mid_run;
    Alcotest.test_case "portfolio never worse than any single entrant" `Quick
      test_never_worse_than_singles;
    Alcotest.test_case "ILP matches BruteForce bit-for-bit" `Quick
      test_ilp_matches_brute_force;
    Testutil.qtest hypergraph_valid_and_never_above_atoms;
    Testutil.qtest hypergraph_cut_anchors;
    Testutil.qtest hypergraph_cut_monotone_under_merge;
  ]
