(* Parallel execution must be bit-for-bit deterministic: fanning
   experiments across domains may change in which order (and on which
   domain) results are computed, but never what they are. Every
   experiment whose output is a pure function of deterministic costs (no
   wall-clock times in the rendered text, unlike fig1/fig10) is rendered
   three ways — directly, each run cold as its own process would (the
   shared TPC-H sweep dropped before every run), and through the runner
   with one and with four jobs sharing one cold sweep — and the outputs
   must be byte-identical. *)

let sample_ids =
  [
    "table1"; "table2"; "fig3"; "fig4"; "fig5"; "fig6"; "fig7"; "table3";
    "table4"; "fig8"; "fig9"; "fig11"; "fig14";
  ]

let direct_outputs () =
  List.map
    (fun id ->
      Vp_experiments.Common.reset_caches ();
      ((Vp_experiments.Registry.find id).Vp_experiments.Registry.run) ())
    sample_ids

let runner_outputs ~jobs =
  let tasks =
    List.map
      (fun id ->
        let e = Vp_experiments.Registry.find id in
        Vp_parallel.Runner.task ~label:e.Vp_experiments.Registry.id
          e.Vp_experiments.Registry.run)
      sample_ids
  in
  Vp_experiments.Common.reset_caches ();
  Vp_parallel.Runner.run ~jobs tasks

let test_runner_matches_direct () =
  let direct = direct_outputs () in
  List.iter
    (fun jobs ->
      let outcomes = runner_outputs ~jobs in
      Alcotest.(check (list string))
        (Printf.sprintf "labels in submission order, jobs=%d" jobs)
        sample_ids
        (List.map
           (fun (o : string Vp_parallel.Runner.outcome) -> o.label)
           outcomes);
      List.iter2
        (fun id (expect, got) ->
          Alcotest.(check string)
            (Printf.sprintf "%s byte-identical, jobs=%d" id jobs)
            expect got)
        sample_ids
        (List.combine direct
           (List.map
              (fun (o : string Vp_parallel.Runner.outcome) -> o.value)
              outcomes)))
    [ 1; 4 ]

let test_jobs1_equals_jobs4 () =
  let one = runner_outputs ~jobs:1 in
  let four = runner_outputs ~jobs:4 in
  List.iter2
    (fun (a : string Vp_parallel.Runner.outcome)
         (b : string Vp_parallel.Runner.outcome) ->
      Alcotest.(check string) (a.label ^ " jobs:1 = jobs:4") a.value b.value)
    one four

(* Observability must be pure observation: a traced run is byte-identical
   to an untraced run. The spans and counters record what happened — they
   must never change what happens. *)

let test_traced_experiments_byte_identical () =
  let untraced =
    Vp_observe.Switch.(with_level Off) direct_outputs
  in
  let traced =
    Vp_observe.Switch.(with_level Trace) (fun () ->
        Vp_observe.Trace.clear ();
        direct_outputs ())
  in
  List.iter2
    (fun id (expect, got) ->
      Alcotest.(check string)
        (Printf.sprintf "%s traced = untraced" id)
        expect got)
    sample_ids
    (List.combine untraced traced)

let prop_traced_algorithms_identical =
  QCheck2.Test.make ~count:25
    ~name:"tracing never changes an algorithm's result (random workloads)"
    (Testutil.gen_workload 6 4)
    (fun w ->
      let disk = Vp_cost.Disk.default in
      let results level =
        Vp_observe.Switch.with_level level (fun () ->
            List.map
              (fun (a : Vp_core.Partitioner.t) ->
                let oracle = Vp_cost.Io_model.oracle disk w in
                let r = Vp_core.Partitioner.exec a (Vp_core.Partitioner.Request.make ~cost:oracle w) in
                ( a.Vp_core.Partitioner.name,
                  Int64.bits_of_float r.Vp_core.Partitioner.Response.cost,
                  r.Vp_core.Partitioner.Response.partitioning ))
              Vp_algorithms.Registry.six)
      in
      let off = results Vp_observe.Switch.Off
      and on = results Vp_observe.Switch.Trace in
      List.for_all2
        (fun (n1, c1, p1) (n2, c2, p2) ->
          n1 = n2 && Int64.equal c1 c2 && Vp_core.Partitioning.equal p1 p2)
        off on)

(* The incremental delta oracle must be invisible end to end: with and
   without a delta factory on the request (full re-costing), every
   registered algorithm produces byte-identical layouts, cost bits,
   status and provenance over the TPC-H line-up — through the parallel
   runner at 1 and 4 jobs, traced and untraced. *)

let render_lineup ~delta ~jobs () =
  let open Vp_core in
  let disk = Vp_experiments.Common.disk in
  let workloads = Vp_benchmarks.Tpch.workloads ~sf:1.0 in
  let render_algo (a : Partitioner.t) () =
    workloads
    |> List.map (fun w ->
           let oracle = Vp_cost.Io_model.oracle disk w in
           let delta =
             if delta then Some (Vp_cost.Io_model.Incremental.factory disk w)
             else None
           in
           let r =
             Partitioner.exec a
               (Partitioner.Request.make ~label:"determinism" ?delta
                  ~cost:oracle w)
           in
           let p = r.Partitioner.Response.provenance in
           Printf.sprintf "%s|%s|%Lx|%s|%s/%s/%s|%s"
             a.Partitioner.name
             (Table.name (Workload.table w))
             (Int64.bits_of_float r.Partitioner.Response.cost)
             (Partitioning.to_string r.Partitioner.Response.partitioning)
             p.Partitioner.Response.algorithm
             p.Partitioner.Response.short_name
             (Option.value ~default:"-" p.Partitioner.Response.label)
             (match r.Partitioner.Response.status with
             | Partitioner.Complete -> "complete"
             | Partitioner.Timed_out { steps; _ } ->
                 Printf.sprintf "timed_out:%d" steps))
    |> String.concat "\n"
  in
  let tasks =
    List.map
      (fun (a : Partitioner.t) ->
        Vp_parallel.Runner.task ~label:a.Partitioner.name (render_algo a))
      (Vp_experiments.Common.algorithms_with_baselines disk)
  in
  Vp_parallel.Runner.run ~jobs tasks
  |> List.map (fun (o : string Vp_parallel.Runner.outcome) -> o.value)
  |> String.concat "\n"

let test_delta_on_off_byte_identical () =
  List.iter
    (fun jobs ->
      List.iter
        (fun (level_name, level) ->
          let run delta =
            Vp_observe.Switch.with_level level (render_lineup ~delta ~jobs)
          in
          let with_delta = run true and without = run false in
          Alcotest.(check string)
            (Printf.sprintf "delta = full, jobs=%d, %s" jobs level_name)
            without with_delta)
        [ ("untraced", Vp_observe.Switch.Off); ("traced", Vp_observe.Switch.Trace) ])
    [ 1; 4 ]

let suite =
  [
    Alcotest.test_case "runner matches direct run" `Quick
      test_runner_matches_direct;
    Alcotest.test_case "jobs 1 = jobs 4" `Quick test_jobs1_equals_jobs4;
    Alcotest.test_case "traced experiments byte-identical" `Quick
      test_traced_experiments_byte_identical;
    Testutil.qtest prop_traced_algorithms_identical;
    Alcotest.test_case "delta oracle invisible end to end" `Quick
      test_delta_on_off_byte_identical;
  ]
