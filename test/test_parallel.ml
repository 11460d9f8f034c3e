(* vp_parallel: the work pool, Once, the cost cache, and the runner. *)

open Vp_core

let disk = Vp_cost.Disk.default

(* --- Pool --- *)

let test_pool_ordering () =
  let inputs = List.init 25 Fun.id in
  List.iter
    (fun jobs ->
      let got =
        Vp_parallel.Pool.run_list ~jobs
          (List.map
             (fun i () ->
               (* Uneven work so completion order differs from submission
                  order when domains are available. *)
               let n = ref 0 in
               for _ = 1 to (25 - i) * 1000 do
                 incr n
               done;
               i * i)
             inputs)
      in
      Alcotest.(check (list int))
        (Printf.sprintf "submission order, jobs=%d" jobs)
        (List.map (fun i -> i * i) inputs)
        got)
    [ 1; 2; 4 ]

let test_pool_empty_and_map () =
  Alcotest.(check (list int)) "empty" [] (Vp_parallel.Pool.run_list ~jobs:4 []);
  Vp_parallel.Pool.with_pool ~jobs:3 (fun pool ->
      Alcotest.(check (list string))
        "map"
        [ "0"; "1"; "2"; "3" ]
        (Vp_parallel.Pool.map pool string_of_int [ 0; 1; 2; 3 ]);
      (* The pool is reusable across batches. *)
      Alcotest.(check (list int))
        "second batch" [ 10; 20 ]
        (Vp_parallel.Pool.map pool (fun x -> x * 10) [ 1; 2 ]))

let test_pool_exception () =
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Printf.sprintf "earliest failure wins, jobs=%d" jobs)
        (Failure "boom2")
        (fun () ->
          ignore
            (Vp_parallel.Pool.run_list ~jobs
               (List.init 6 (fun i () ->
                    if i >= 2 then failwith (Printf.sprintf "boom%d" i)
                    else i)))))
    [ 1; 4 ]

let test_pool_jobs_accounting () =
  Alcotest.(check bool) "effective_jobs >= 1" true
    (Vp_parallel.Pool.effective_jobs ~jobs:4 >= 1);
  Alcotest.(check bool) "effective_jobs <= jobs" true
    (Vp_parallel.Pool.effective_jobs ~jobs:4 <= 4);
  Alcotest.(check int) "jobs=1 is one domain" 1
    (Vp_parallel.Pool.effective_jobs ~jobs:1);
  Vp_parallel.Pool.with_pool ~jobs:4 (fun pool ->
      Alcotest.(check int) "requested jobs" 4 (Vp_parallel.Pool.jobs pool);
      Alcotest.(check int) "domain count"
        (Vp_parallel.Pool.effective_jobs ~jobs:4)
        (Vp_parallel.Pool.domain_count pool))

let test_default_jobs_env () =
  let old = Sys.getenv_opt "VP_JOBS" in
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "VP_JOBS" (Option.value old ~default:""))
    (fun () ->
      Unix.putenv "VP_JOBS" "3";
      Alcotest.(check int) "VP_JOBS wins" 3 (Vp_parallel.Pool.default_jobs ());
      Unix.putenv "VP_JOBS" "not-a-number";
      Alcotest.(check int) "garbage falls back"
        (Domain.recommended_domain_count ())
        (Vp_parallel.Pool.default_jobs ()))

let test_run_results () =
  List.iter
    (fun jobs ->
      Vp_parallel.Pool.with_pool ~jobs (fun pool ->
          let outcomes =
            Vp_parallel.Pool.run_results pool
              (List.init 8 (fun i ->
                   ( Printf.sprintf "t%d" i,
                     fun () ->
                       if i mod 3 = 1 then failwith (Printf.sprintf "boom%d" i)
                       else i * 7 )))
          in
          Alcotest.(check int)
            (Printf.sprintf "one result per task, jobs=%d" jobs)
            8 (List.length outcomes);
          List.iteri
            (fun i outcome ->
              match outcome with
              | Ok v ->
                  Alcotest.(check bool) "success slot" true (i mod 3 <> 1);
                  Alcotest.(check int) "value in order" (i * 7) v
              | Error (e : Vp_parallel.Pool.error) ->
                  (* Failures carry their label and exception; the other
                     tasks still ran. *)
                  Alcotest.(check bool) "failure slot" true (i mod 3 = 1);
                  Alcotest.(check string) "label" (Printf.sprintf "t%d" i)
                    e.label;
                  Alcotest.(check bool) "exception kept" true
                    (e.exn = Failure (Printf.sprintf "boom%d" i)))
            outcomes))
    [ 1; 4 ]

let test_with_pool_survives_worker_death () =
  (* A worker domain dying mid-batch must neither hang the pool nor leak
     the surviving domains: the batch completes (drained by the caller and
     the remaining workers), and shutdown joins every domain before
     re-raising the dead worker's exception. *)
  match
    Vp_parallel.Pool.with_pool ~jobs:4 (fun pool ->
        if Vp_parallel.Pool.domain_count pool < 2 then `Single_core
        else begin
          Vp_parallel.Pool.inject_raw pool (fun () -> failwith "worker down");
          (* Give a blocked worker time to pick the poisoned task up. *)
          Unix.sleepf 0.05;
          let got =
            Vp_parallel.Pool.run pool
              (List.init 16 (fun i () ->
                   ignore (Sys.opaque_identity (i * i));
                   i))
          in
          Alcotest.(check (list int))
            "batch completes despite a dead worker" (List.init 16 Fun.id) got;
          `Ran
        end)
  with
  | `Single_core -> ()
  | `Ran -> Alcotest.fail "expected shutdown to re-raise the worker's death"
  | exception Failure m ->
      Alcotest.(check string) "worker's exception surfaces" "worker down" m

(* --- Once --- *)

let test_once () =
  let evals = ref 0 in
  let o =
    Vp_parallel.Once.create (fun () ->
        incr evals;
        !evals * 100)
  in
  Alcotest.(check int) "first get" 100 (Vp_parallel.Once.get o);
  Alcotest.(check int) "memoized" 100 (Vp_parallel.Once.get o);
  Alcotest.(check int) "one evaluation" 1 !evals;
  Vp_parallel.Once.reset o;
  Alcotest.(check int) "recomputed after reset" 200 (Vp_parallel.Once.get o);
  Alcotest.(check int) "two evaluations" 2 !evals

let test_once_exception_retries () =
  let attempts = ref 0 in
  let o =
    Vp_parallel.Once.create (fun () ->
        incr attempts;
        if !attempts = 1 then failwith "flaky" else !attempts)
  in
  Alcotest.check_raises "first get raises" (Failure "flaky") (fun () ->
      ignore (Vp_parallel.Once.get o));
  Alcotest.(check int) "retry succeeds" 2 (Vp_parallel.Once.get o)

(* --- Partitioner.Memo: the per-run search memo --- *)

let test_counted_cache () =
  let w = Testutil.partsupp_workload in
  let oracle = Partitioner.Counted.make (Vp_cost.Io_model.oracle disk w) in
  let memo = Partitioner.Memo.create () in
  let cost_of = Partitioner.Memo.counted memo oracle in
  let p = Partitioning.column 5 in
  let first = cost_of p in
  Alcotest.(check int) "miss counts a call" 1 (Partitioner.Counted.calls oracle);
  Alcotest.(check (float 0.)) "hit returns the same float" first (cost_of p);
  Alcotest.(check int) "hit does not call" 1 (Partitioner.Counted.calls oracle);
  Alcotest.(check int) "hit notes a candidate" 2
    (Partitioner.Counted.candidates oracle);
  (* An equal partitioning built another way is the same key. *)
  let p' = Partitioning.of_groups ~n:5 (List.rev (Partitioning.groups p)) in
  Alcotest.(check (float 0.)) "equal partitioning hits" first (cost_of p');
  Alcotest.(check int) "equal partitioning does not call" 1
    (Partitioner.Counted.calls oracle)

(* Two 12-group partitionings that differ only in their 11th and 12th
   groups. [Hashtbl.hash] stops after ten meaningful words, so a memo
   hashing with it would chain every such neighbour of a wide table
   into one bucket; the memo's hash mixes every group. *)
let test_counted_cache_late_groups () =
  let head = List.init 10 Attr_set.singleton in
  let p1 =
    Partitioning.of_groups ~n:13
      (head @ [ Attr_set.of_list [ 10; 11 ]; Attr_set.singleton 12 ])
  and p2 =
    Partitioning.of_groups ~n:13
      (head @ [ Attr_set.singleton 10; Attr_set.of_list [ 11; 12 ] ])
  in
  Alcotest.(check bool) "hashes differ" true
    (Partitioning.hash p1 <> Partitioning.hash p2);
  let oracle =
    Partitioner.Counted.make (fun p ->
        float_of_int (Attr_set.cardinal (Partitioning.group_of p 10)))
  in
  let cost_of = Partitioner.Memo.counted (Partitioner.Memo.create ()) oracle in
  Alcotest.(check (float 0.)) "first" 2.0 (cost_of p1);
  Alcotest.(check (float 0.)) "second is not served the first's entry" 1.0
    (cost_of p2);
  Alcotest.(check int) "two misses" 2 (Partitioner.Counted.calls oracle);
  Alcotest.(check (float 0.)) "first hits" 2.0 (cost_of p1);
  Alcotest.(check (float 0.)) "second hits" 1.0 (cost_of p2);
  Alcotest.(check int) "no further calls" 2 (Partitioner.Counted.calls oracle)

(* An algorithm's memo hits and misses are the [cache.hits] /
   [cache.misses] counter deltas around its runs. A merge-only
   climb never meets a candidate twice (each step has one group fewer),
   so HillClimb and AutoPart keep no memo: they make no memo traffic and
   every candidate is a cost call. HYRISE, BruteForce, ILP and Hypergraph
   price every candidate through their memo, so a memo miss is exactly a
   cost call and a memo hit exactly a candidate without one: the counter
   deltas must equal those. Over partsupp at SF 1 and the TPC-H line-up
   under the default setting, HYRISE (whose second phase re-prices its
   first phase's neighbourhood through the same memo) and BruteForce
   (which re-prices its seed climb's layouts) must hit; a disconnected
   counter reads zero. *)
let test_memo_counters () =
  let workloads =
    Vp_benchmarks.Tpch.workload ~sf:1.0 "partsupp"
    :: Vp_benchmarks.Tpch.workloads ~sf:Vp_experiments.Common.sf
  in
  let counts () =
    let s = Vp_observe.Stats.snapshot () in
    ( Vp_observe.Stats.counter_value s "cache.hits",
      Vp_observe.Stats.counter_value s "cache.misses" )
  in
  let run (a : Partitioner.t) w =
    let hits0, misses0 = counts () in
    let r =
      Partitioner.exec a
        (Partitioner.Request.make
           ~delta:(Vp_cost.Io_model.Incremental.factory disk w)
           ~cost:(Vp_cost.Io_model.oracle disk w) w)
    in
    let hits1, misses1 = counts () in
    (r.Partitioner.Response.stats, hits1 - hits0, misses1 - misses0)
  in
  let memo_free (a : Partitioner.t) =
    List.iter
      (fun w ->
        let s, hits, misses = run a w in
        Alcotest.(check (pair int int))
          (a.Partitioner.name ^ ": no memo traffic") (0, 0) (hits, misses);
        Alcotest.(check int)
          (a.Partitioner.name ^ ": cost calls = candidates")
          s.Partitioner.candidates s.Partitioner.cost_calls)
      workloads
  in
  let memoized (a : Partitioner.t) =
    List.fold_left
      (fun total w ->
        let s, hits, misses = run a w in
        Alcotest.(check int)
          (a.Partitioner.name ^ ": misses = cost calls")
          s.Partitioner.cost_calls misses;
        Alcotest.(check int)
          (a.Partitioner.name ^ ": hits = candidates - cost calls")
          (s.Partitioner.candidates - s.Partitioner.cost_calls)
          hits;
        total + hits)
      0 workloads
  in
  Vp_observe.Switch.with_level Vp_observe.Switch.Stats (fun () ->
      memo_free Vp_algorithms.Hillclimb.algorithm;
      memo_free Vp_algorithms.Autopart.algorithm;
      Alcotest.(check bool) "HYRISE hits its memo" true
        (memoized Vp_algorithms.Hyrise.algorithm > 0);
      Alcotest.(check bool) "BruteForce hits its memo" true
        (memoized (Vp_experiments.Common.brute_force disk) > 0);
      List.iter
        (fun a -> ignore (memoized a))
        [ Vp_algorithms.Ilp.with_bound disk; Vp_algorithms.Hypergraph.algorithm ])

(* --- Runner --- *)

let test_runner_ordering () =
  let tasks =
    List.init 8 (fun i ->
        Vp_parallel.Runner.task
          ~label:(Printf.sprintf "t%d" i)
          (fun () -> i * 7))
  in
  List.iter
    (fun jobs ->
      let outcomes = Vp_parallel.Runner.run ~jobs tasks in
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "labelled results in order, jobs=%d" jobs)
        (List.init 8 (fun i -> (Printf.sprintf "t%d" i, i * 7)))
        (Vp_parallel.Runner.values outcomes);
      List.iter
        (fun (o : int Vp_parallel.Runner.outcome) ->
          Alcotest.(check bool) "non-negative elapsed" true
            (o.elapsed_seconds >= 0.0))
        outcomes)
    [ 1; 4 ]

let suite =
  [
    Alcotest.test_case "pool ordering" `Quick test_pool_ordering;
    Alcotest.test_case "pool empty + map" `Quick test_pool_empty_and_map;
    Alcotest.test_case "pool exceptions" `Quick test_pool_exception;
    Alcotest.test_case "pool jobs accounting" `Quick test_pool_jobs_accounting;
    Alcotest.test_case "default jobs env" `Quick test_default_jobs_env;
    Alcotest.test_case "run_results totality" `Quick test_run_results;
    Alcotest.test_case "with_pool survives worker death" `Quick
      test_with_pool_survives_worker_death;
    Alcotest.test_case "once" `Quick test_once;
    Alcotest.test_case "once exception retries" `Quick test_once_exception_retries;
    Alcotest.test_case "counted cache" `Quick test_counted_cache;
    Alcotest.test_case "counted cache late groups" `Quick
      test_counted_cache_late_groups;
    Alcotest.test_case "memo counters match the memo" `Quick
      test_memo_counters;
    Alcotest.test_case "runner ordering" `Quick test_runner_ordering;
  ]
