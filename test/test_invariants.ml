(* Randomized invariants over every algorithm in the registry, driven by
   the deterministic SplitMix64 generator (so failures reproduce across
   runs and machines):

   - every algorithm returns a valid partitioning — each attribute in
     exactly one fragment, no empty fragments — for arbitrary workloads;
   - memoized cost evaluation is invisible: the cached cost of the chosen
     layout equals an uncached Io_model evaluation bit-for-bit. *)

open Vp_core

let disk = Vp_cost.Disk.default

let pair_count = 100

(* A random (table, workload) pair from stream [i]: 2-8 attributes of
   mixed widths, 1-6 queries with non-empty reference sets and skewed
   weights. *)
let random_workload root i =
  let g = Vp_datagen.Prng.split root i in
  let n = Vp_datagen.Prng.int_in g 2 8 in
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

let lineup = Vp_algorithms.Registry.six @ Vp_algorithms.Registry.baselines

let check_valid_partitioning ~ctx w (p : Partitioning.t) =
  let n = Table.attribute_count (Workload.table w) in
  Alcotest.(check bool)
    (ctx ^ ": covers all attributes") true
    (Testutil.valid_partitioning_of_workload p w);
  let groups = Partitioning.groups p in
  Alcotest.(check bool)
    (ctx ^ ": no empty fragment") true
    (List.for_all (fun g -> not (Attr_set.is_empty g)) groups);
  (* Disjointness: together with full coverage this means every attribute
     sits in exactly one fragment. *)
  Alcotest.(check int)
    (ctx ^ ": each attribute in exactly one fragment") n
    (List.fold_left (fun acc g -> acc + Attr_set.cardinal g) 0 groups)

let test_algorithms_return_valid_partitionings () =
  let root = Vp_datagen.Prng.create 0x5EEDL in
  for i = 0 to pair_count - 1 do
    let w = random_workload root i in
    let oracle = Vp_cost.Io_model.oracle disk w in
    List.iter
      (fun (a : Partitioner.t) ->
        let ctx = Printf.sprintf "%s on pair %d" a.Partitioner.name i in
        let r = Partitioner.exec a (Testutil.request ~cost:oracle w) in
        check_valid_partitioning ~ctx w r.Partitioner.Response.partitioning;
        Alcotest.(check (float 0.))
          (ctx ^ ": reported cost matches the oracle")
          (Vp_cost.Io_model.workload_cost disk w r.Partitioner.Response.partitioning)
          r.Partitioner.Response.cost)
      lineup
  done

(* The degradation contract (DESIGN.md): a budgeted run always returns a
   valid partitioning, its status is consistent with the budget's state,
   and growing the budget never yields a more expensive layout — each
   search keeps a best-so-far incumbent along a deterministic evaluation
   order, so more budget can only extend the candidate set it minimizes
   over. *)
let budget_ladder = [ 2; 8; 32; 128; 512 ]

let test_budget_monotonicity () =
  let root = Vp_datagen.Prng.create 0xB0D6E7L in
  for i = 0 to 14 do
    let w = random_workload root i in
    let oracle = Vp_cost.Io_model.oracle disk w in
    let delta = Vp_cost.Io_model.Incremental.factory disk w in
    List.iter
      (fun (a : Partitioner.t) ->
        let costs =
          List.map
            (fun max_steps ->
              let budget = Vp_robust.Budget.create ~max_steps () in
              let ctx =
                Printf.sprintf "%s on pair %d, %d steps" a.Partitioner.name i
                  max_steps
              in
              let r =
                Partitioner.exec a
                  (Partitioner.Request.make ~budget ~delta ~cost:oracle w)
              in
              check_valid_partitioning ~ctx w r.Partitioner.Response.partitioning;
              (match r.Partitioner.Response.status with
              | Partitioner.Complete ->
                  Alcotest.(check bool)
                    (ctx ^ ": complete iff budget not exhausted") false
                    (Vp_robust.Budget.exhausted budget)
              | Partitioner.Timed_out { steps; elapsed_seconds } ->
                  Alcotest.(check bool)
                    (ctx ^ ": timed out iff budget exhausted") true
                    (Vp_robust.Budget.exhausted budget);
                  Alcotest.(check bool) (ctx ^ ": steps within budget") true
                    (steps >= 0 && steps <= max_steps + 1);
                  Alcotest.(check bool) (ctx ^ ": elapsed non-negative") true
                    (elapsed_seconds >= 0.0));
              r.Partitioner.Response.cost)
            budget_ladder
        in
        let rec pairs = function
          | c1 :: (c2 :: _ as rest) ->
              Alcotest.(check bool)
                (Printf.sprintf
                   "%s on pair %d: larger budget never costlier (%g -> %g)"
                   a.Partitioner.name i c1 c2)
                true (c2 <= c1);
              pairs rest
          | [ _ ] | [] -> ()
        in
        pairs costs)
      (Vp_algorithms.Registry.six
      @ [
          Vp_experiments.Common.brute_force disk;
          Vp_algorithms.Ilp.with_bound disk;
          Vp_algorithms.Hypergraph.algorithm;
        ])
  done

(* The I/O model's requests must price exactly like the reference
   session under any step budget: for every registry entrant (plus
   HillClimb+dict and the bounded exact searches), a run on
   [Io_model.request] and a run on an explicit [Delta.full] request must
   agree on layout, cost bits, status (including the step count at
   exhaustion) AND the counted stats. If an incremental probe skipped a
   tick, double-charged one, or dodged the fault/counter bookkeeping of
   [Partitioner.Counted], the exhaustion point would shift and one of
   these renderings would diverge. The reference session must also
   invoke its oracle once per counted call: an uncounted invocation
   (say, pricing a rebase) fails here. *)
let test_budget_delta_parity () =
  let root = Vp_datagen.Prng.create 0xDE17AL in
  for i = 0 to 14 do
    let w = random_workload root i in
    let n = Table.attribute_count (Workload.table w) in
    List.iter
      (fun (a : Partitioner.t) ->
        List.iter
          (fun max_steps ->
            let run io =
              let budget = Vp_robust.Budget.create ~max_steps () in
              (* Atomic: a portfolio race prices on several domains. *)
              let invocations = Atomic.make 0 in
              let oracle p =
                Atomic.incr invocations;
                Vp_cost.Io_model.oracle disk w p
              in
              let request =
                if io then Vp_cost.Io_model.request ~budget disk w
                else
                  Partitioner.Request.make ~budget
                    ~delta:(Partitioner.Delta.full ~n oracle)
                    ~cost:oracle w
              in
              let r = Partitioner.exec a request in
              let s = r.Partitioner.Response.stats in
              (* On the reference session every counted call is one
                 invocation of the oracle, plus the final cost of each
                 answer: one, or one per entrant of a portfolio race. *)
              let answers =
                max 1
                  (List.length
                     r.Partitioner.Response.provenance.Partitioner.Response
                       .entrants)
              in
              if not io then
                Alcotest.(check int)
                  (Printf.sprintf "%s on pair %d, %d steps: oracle calls"
                     a.Partitioner.name i max_steps)
                  (s.Partitioner.cost_calls + answers)
                  (Atomic.get invocations);
              Printf.sprintf
                "%s cost=%Lx status=%s calls=%d candidates=%d iterations=%d"
                (Partitioning.to_string r.Partitioner.Response.partitioning)
                (Int64.bits_of_float r.Partitioner.Response.cost)
                (match r.Partitioner.Response.status with
                | Partitioner.Complete -> "complete"
                | Partitioner.Timed_out { steps; _ } ->
                    Printf.sprintf "timed_out:%d" steps)
                s.Partitioner.cost_calls s.Partitioner.candidates
                s.Partitioner.iterations
            in
            let full = run false in
            let incremental = run true in
            Alcotest.(check string)
              (Printf.sprintf "%s on pair %d, %d steps: request = full"
                 a.Partitioner.name i max_steps)
              full incremental)
          budget_ladder)
      (Vp_algorithms.Registry.all
      @ [
          Vp_algorithms.Hillclimb.with_dictionary;
          Vp_experiments.Common.brute_force disk;
          Vp_algorithms.Ilp.with_bound disk;
        ])
  done

let test_algorithm_registry_errors () =
  Alcotest.(check bool) "find_opt unknown" true
    (Vp_algorithms.Registry.find_opt "nope" = None);
  Alcotest.(check bool) "find_opt known" true
    (Vp_algorithms.Registry.find_opt "hillclimb" <> None);
  match Vp_algorithms.Registry.find "nope" with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
      List.iter
        (fun needle ->
          Alcotest.(check bool)
            (Printf.sprintf "error mentions %s" needle)
            true
            (let h = String.length msg and n = String.length needle in
             let rec go k =
               k + n <= h && (String.sub msg k n = needle || go (k + 1))
             in
             n = 0 || go 0))
        [ "nope"; "HillClimb"; "Column" ]

let suite =
  [
    Alcotest.test_case "algorithms return valid partitionings" `Quick
      test_algorithms_return_valid_partitionings;
    Alcotest.test_case "algorithm registry errors" `Quick
      test_algorithm_registry_errors;
    Alcotest.test_case "budget monotonicity" `Quick test_budget_monotonicity;
    Alcotest.test_case "budget parity: delta = full" `Quick
      test_budget_delta_parity;
  ]
