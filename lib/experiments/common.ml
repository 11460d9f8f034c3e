open Vp_core

let sf = 10.0

let disk = Vp_cost.Disk.default

let brute_force profile =
  Vp_algorithms.Brute_force.make
    ~lower_bound:(fun w -> Vp_cost.Bounds.io_brute_force profile w)
    ()

let memory_brute_force =
  Vp_algorithms.Brute_force.make
    ~lower_bound:(fun w ->
      Vp_cost.Bounds.memory_brute_force Vp_cost.Memory_model.default w)
    ()

let algorithms profile =
  Vp_algorithms.Registry.with_brute_force ~brute_force:(brute_force profile) ()

let algorithms_with_baselines profile =
  algorithms profile @ Vp_algorithms.Registry.baselines

type table_run = { workload : Workload.t; result : Partitioner.Response.t }

type algo_run = {
  algo : Partitioner.t;
  per_table : table_run list;
  total_cost : float;
  optimization_time : float;
}

let run_algorithm request_of workloads (algo : Partitioner.t) =
  let per_table =
    List.map
      (fun workload ->
        { workload; result = Partitioner.exec algo (request_of workload) })
      workloads
  in
  {
    algo;
    per_table;
    total_cost =
      List.fold_left (fun acc r -> acc +. r.result.Partitioner.Response.cost) 0.0 per_table;
    optimization_time =
      List.fold_left
        (fun acc r ->
          acc +. r.result.Partitioner.Response.stats.Partitioner.elapsed_seconds)
        0.0 per_table;
  }

let run_algorithms_on profile workloads algos =
  List.map (run_algorithm (Vp_cost.Io_model.request profile) workloads) algos

(* Once, not lazy: experiments run concurrently on several domains, and
   OCaml's lazy is not safe to force from more than one domain. *)
let tpch_runs_cache =
  Vp_parallel.Once.create (fun () ->
      let workloads = Vp_benchmarks.Tpch.workloads ~sf in
      run_algorithms_on disk workloads (algorithms_with_baselines disk))

let tpch_runs () = Vp_parallel.Once.get tpch_runs_cache

let reset_caches () =
  Vp_parallel.Once.reset tpch_runs_cache

let find_run name =
  List.find
    (fun r -> String.lowercase_ascii r.algo.Partitioner.name = String.lowercase_ascii name)
    (tpch_runs ())

let entries_of run =
  List.map
    (fun r ->
      {
        Vp_metrics.Measures.Aggregate.workload = r.workload;
        partitioning = r.result.Partitioner.Response.partitioning;
      })
    run.per_table

let heading title =
  let bar = String.make (String.length title + 8) '=' in
  Printf.sprintf "\n%s\n=== %s ===\n%s\n" bar title bar
