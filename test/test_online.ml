(* The online layout service (lib/online): replay determinism across
   runs / --jobs / tracing, the pay-off adoption invariant, the
   acceptance-bar win over one-shot optimization on a drifting stream,
   and the incremental workload bookkeeping behind it all. *)

open Vp_core

(* The seek-bound regime the bench harness replays: a small buffer makes
   layout quality matter, so tracking the drift is worth the
   migrations. *)
let seek_disk =
  Vp_cost.Disk.with_buffer_size Vp_cost.Disk.default (Vp_cost.Disk.mb 1.0)

let drift_trace =
  lazy
    (Vp_benchmarks.Synthetic.drift_workload ~attributes:16 ~clusters:4
       ~rows:200_000 ~queries:600 ~scatter:0.05 ~drift_at:0.4 ())

let config ?(jobs = 1) () =
  Vp_online.Service.default_config ~jobs ~disk:seek_disk
    ~panel:[ Vp_algorithms.Hillclimb.algorithm ]
    ()

let replay ?(jobs = 1) () =
  Vp_online.Replay.run ~config:(config ~jobs ()) (Lazy.force drift_trace)

(* One reference replay, shared by the tests below (each determinism
   test re-runs under its own variation and compares against this). *)
let baseline = lazy (replay ())

(* --- determinism: the ISSUE's byte-identical replay requirement --- *)

let test_replay_deterministic () =
  let a = Lazy.force baseline and b = replay () in
  Alcotest.(check string)
    "byte-identical history" a.Vp_online.Replay.history
    b.Vp_online.Replay.history;
  Alcotest.(check (float 0.0))
    "identical online cost" a.Vp_online.Replay.online_cost
    b.Vp_online.Replay.online_cost

let test_replay_jobs_invariant () =
  let a = Lazy.force baseline and b = replay ~jobs:4 () in
  Alcotest.(check string)
    "history independent of --jobs" a.Vp_online.Replay.history
    b.Vp_online.Replay.history;
  Alcotest.(check (float 0.0))
    "cost independent of --jobs" a.Vp_online.Replay.online_cost
    b.Vp_online.Replay.online_cost

let test_replay_trace_invariant () =
  let a = Lazy.force baseline in
  let b =
    Vp_observe.Switch.with_level Vp_observe.Switch.Trace (fun () -> replay ())
  in
  Alcotest.(check string)
    "history independent of tracing" a.Vp_online.Replay.history
    b.Vp_online.Replay.history

(* --- the adoption invariant: provenance is complete and the pay-off
   rule is exactly what the events claim it was --- *)

let test_adoption_invariant () =
  let horizon = (config ()).Vp_online.Service.horizon in
  let open Vp_online.Service in
  let o = Lazy.force baseline in
  Alcotest.(check bool) "at least one re-opt" true (o.Vp_online.Replay.reopts >= 1);
  Alcotest.(check bool) "at least one adoption" true
    (o.Vp_online.Replay.adopted >= 1);
  Alcotest.(check int) "reopts = adopted + rejected" o.Vp_online.Replay.reopts
    (o.Vp_online.Replay.adopted + o.Vp_online.Replay.rejected);
  Alcotest.(check int) "final generation counts adoptions"
    o.Vp_online.Replay.adopted o.Vp_online.Replay.final_generation;
  let gen = ref 0 and last_at = ref (-1) in
  List.iter
    (fun (e : event) ->
      Alcotest.(check bool) "events ordered by stream position" true
        (e.trigger_query > !last_at);
      last_at := e.trigger_query;
      (match e.verdict with
      | Adopted ->
          incr gen;
          Alcotest.(check bool) "adopted only on improvement" true
            (e.cost_after < e.cost_before);
          Alcotest.(check bool) "adopted pay-off within horizon" true
            (e.payoff >= 0.0 && e.payoff <= horizon)
      | Rejected ->
          Alcotest.(check bool) "rejected fails the adoption rule" true
            (not
               (e.cost_before -. e.cost_after > 0.0
               && e.payoff >= 0.0 && e.payoff <= horizon)));
      Alcotest.(check int) "generation tracks adoptions" !gen e.generation)
    o.Vp_online.Replay.events;
  Alcotest.(check (Testutil.close ()))
    "online cost = queries + migrations" o.Vp_online.Replay.online_cost
    (o.Vp_online.Replay.online_query_cost
    +. o.Vp_online.Replay.online_migration_cost)

(* --- the acceptance bar: on the drifting stream, adapting must beat
   the one-shot batch layout by at least 10% --- *)

let test_online_beats_oneshot () =
  let o = Lazy.force baseline in
  Alcotest.(check bool)
    (Printf.sprintf "online %.4f <= 0.9 x one-shot %.4f"
       o.Vp_online.Replay.online_cost o.Vp_online.Replay.oneshot_cost)
    true
    (o.Vp_online.Replay.online_cost <= 0.9 *. o.Vp_online.Replay.oneshot_cost)

(* --- counters: one increment per ingest/decision, none when off --- *)

let test_counters () =
  let before = Vp_observe.Stats.snapshot () in
  let o =
    Vp_observe.Switch.with_level Vp_observe.Switch.Stats (fun () -> replay ())
  in
  let after = Vp_observe.Stats.snapshot () in
  let delta name =
    Vp_observe.Stats.counter_value after name
    - Vp_observe.Stats.counter_value before name
  in
  Alcotest.(check int) "online.ingested" o.Vp_online.Replay.queries
    (delta "online.ingested");
  Alcotest.(check int) "online.reopts" o.Vp_online.Replay.reopts
    (delta "online.reopts");
  Alcotest.(check int) "online.adopted" o.Vp_online.Replay.adopted
    (delta "online.adopted");
  Alcotest.(check int) "online.rejected" o.Vp_online.Replay.rejected
    (delta "online.rejected")

(* --- service basics and config validation --- *)

let test_service_basics () =
  let w = Lazy.force drift_trace in
  let table = Workload.table w in
  let s = Vp_online.Service.create (config ()) table in
  Alcotest.(check int) "starts at generation 0" 0
    (Vp_online.Service.generation s);
  Alcotest.(check int) "nothing ingested" 0 (Vp_online.Service.ingested s);
  Alcotest.(check bool) "starts on the row layout" true
    (Partitioning.equal
       (Partitioning.row (Table.attribute_count table))
       (Vp_online.Service.layout s));
  Alcotest.(check string) "empty history" "" (Vp_online.Service.history s);
  let k = 5 in
  Array.iteri
    (fun i q -> if i < k then Vp_online.Service.ingest s q)
    (Workload.queries w);
  Alcotest.(check int) "ingest counts" k (Vp_online.Service.ingested s);
  Alcotest.(check int) "workload tracks the stream" k
    (Workload.query_count (Vp_online.Service.workload s));
  (* The rest of the stream crosses several growths of the query buffer. *)
  Array.iteri
    (fun i q -> if i >= k then Vp_online.Service.ingest s q)
    (Workload.queries w);
  let names w = Array.to_list (Array.map Query.name (Workload.queries w)) in
  Alcotest.(check (list string)) "workload is the whole stream, in order"
    (names w) (names (Vp_online.Service.workload s))

let expect_invalid name f =
  match f () with
  | _ -> Alcotest.fail (name ^ ": expected Invalid_argument")
  | exception Invalid_argument _ -> ()

let test_config_validation () =
  let mk ?drift_ratio ?min_window ?epoch ?memory ?horizon ?budget_steps ?jobs
      ?(panel = [ Vp_algorithms.Hillclimb.algorithm ]) () =
    Vp_online.Service.default_config ?drift_ratio ?min_window ?epoch ?memory
      ?horizon ?budget_steps ?jobs ~disk:seek_disk ~panel ()
  in
  expect_invalid "empty panel" (fun () -> mk ~panel:[] ());
  expect_invalid "drift_ratio 0" (fun () -> mk ~drift_ratio:0.0 ());
  expect_invalid "min_window 0" (fun () -> mk ~min_window:0 ());
  expect_invalid "negative epoch" (fun () -> mk ~epoch:(-1) ());
  expect_invalid "negative memory" (fun () -> mk ~memory:(-1) ());
  expect_invalid "horizon 0" (fun () -> mk ~horizon:0.0 ());
  expect_invalid "negative budget_steps" (fun () -> mk ~budget_steps:(-1) ());
  expect_invalid "jobs 0" (fun () -> mk ~jobs:0 ());
  expect_invalid "drift_at out of range" (fun () ->
      Vp_benchmarks.Synthetic.drift_workload ~attributes:4 ~clusters:2
        ~queries:4 ~scatter:0.0 ~drift_at:1.5 ());
  expect_invalid "replay of an empty stream" (fun () ->
      Vp_online.Replay.run ~config:(config ())
        (Workload.make (Workload.table (Lazy.force drift_trace)) []))

(* --- the incremental bookkeeping the service relies on:
   Affinity.add_query agrees with a from-scratch rebuild --- *)

let prop_incremental_bookkeeping_agrees =
  QCheck2.Test.make ~name:"add_query agrees with rebuild" ~count:100
    (Testutil.gen_workload 6 8)
    (fun w ->
      let aff = Affinity.create (Table.attribute_count (Workload.table w)) in
      Array.iter (Affinity.add_query aff) (Workload.queries w);
      Affinity.equal aff (Affinity.of_workload w))

(* --- exec is the single entry point (the deprecated run shim is gone);
   its response must carry honest provenance --- *)

let test_exec_provenance () =
  let w = Vp_benchmarks.Tpch.workload ~sf:1.0 "customer" in
  let oracle = Vp_cost.Io_model.oracle Vp_cost.Disk.default w in
  List.iter
    (fun (algo : Partitioner.t) ->
      let r =
        Partitioner.exec algo
          (Testutil.request ~label:"prov-test" ~cost:oracle w)
      in
      Alcotest.(check string)
        (algo.Partitioner.name ^ " provenance algorithm")
        algo.Partitioner.name r.Partitioner.Response.provenance.algorithm;
      Alcotest.(check (option string))
        (algo.Partitioner.name ^ " provenance label")
        (Some "prov-test") r.Partitioner.Response.provenance.label;
      Alcotest.(check (Testutil.close ()))
        (algo.Partitioner.name ^ " response cost agrees with oracle")
        (oracle r.Partitioner.Response.partitioning)
        r.Partitioner.Response.cost)
    Vp_algorithms.Registry.six

let suite =
  [
    Alcotest.test_case "replay deterministic" `Quick test_replay_deterministic;
    Alcotest.test_case "replay jobs-invariant" `Quick
      test_replay_jobs_invariant;
    Alcotest.test_case "replay trace-invariant" `Quick
      test_replay_trace_invariant;
    Alcotest.test_case "adoption invariant" `Quick test_adoption_invariant;
    Alcotest.test_case "online beats one-shot by 10%" `Quick
      test_online_beats_oneshot;
    Alcotest.test_case "counters" `Quick test_counters;
    Alcotest.test_case "service basics" `Quick test_service_basics;
    Alcotest.test_case "config validation" `Quick test_config_validation;
    Testutil.qtest prop_incremental_bookkeeping_agrees;
    Alcotest.test_case "exec provenance" `Quick test_exec_provenance;
  ]
