(* vp_parallel: the work pool, Once, and cost calls per candidate. *)

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

(* --- Cost calls per candidate --- *)

(* No search keeps a candidate memo, so every candidate a search
   considers is one cost call: the merge searches (HillClimb, AutoPart,
   HYRISE), the exact searches (BruteForce, ILP, each leaf priced from
   its blocks) and Hypergraph, on partsupp at SF 1 and the TPC-H
   line-up, with and without a delta session. *)
let test_cost_calls_are_candidates () =
  let workloads =
    Vp_benchmarks.Tpch.workload ~sf:1.0 "partsupp"
    :: Vp_benchmarks.Tpch.workloads ~sf:Vp_experiments.Common.sf
  in
  List.iter
    (fun (a : Partitioner.t) ->
      List.iter
        (fun w ->
          List.iter
            (fun delta ->
              let r =
                Partitioner.exec a
                  (Testutil.request ?delta
                     ~cost:(Vp_cost.Io_model.oracle disk w) w)
              in
              let s = r.Partitioner.Response.stats in
              Alcotest.(check int)
                (Printf.sprintf "%s %s%s: cost calls = candidates"
                   a.Partitioner.name (Table.name (Workload.table w))
                   (if delta = None then "" else " (delta)"))
                s.Partitioner.candidates s.Partitioner.cost_calls)
            [ None; Some (Vp_cost.Io_model.Incremental.factory disk w) ])
        workloads)
    [
      Vp_algorithms.Hillclimb.algorithm;
      Vp_algorithms.Autopart.algorithm;
      Vp_algorithms.Hyrise.algorithm;
      Vp_experiments.Common.brute_force disk;
      Vp_algorithms.Ilp.with_bound disk;
      Vp_algorithms.Hypergraph.algorithm;
    ]

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
    Alcotest.test_case "cost calls are candidates" `Quick
      test_cost_calls_are_candidates;
  ]
