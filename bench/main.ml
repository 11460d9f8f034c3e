(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (Section 6 + appendix) in order, runs a Bechamel
   microbenchmark of the algorithms' optimization times — one grouped test
   per TPC-H table, one case per algorithm — and benchmarks the parallel
   runner against the plain sequential execution.

   Usage:
     bench/main.exe [--mode all|experiments|bechamel|parallel|budget|online|server|oracle|recovery|cluster|portfolio|scale|json]
                    [--jobs N] [--json PATH]

   Modes:
     all          (default) experiments then bechamel, as always.
     experiments  just the experiment catalogue, sequentially.
     bechamel     just the microbenchmarks.
     parallel     the experiment fan-out twice — sequentially with every
                  experiment cold, then on N domains sharing one TPC-H
                  sweep — reporting speedup, byte-equality of the two
                  outputs, and per-algorithm search-memo hit rates.
     budget       the graceful-degradation demo under step budgets.
     online       the online layout service replaying a synthetic drift
                  stream and the Lineitem query order: re-opts triggered,
                  adoption rate, cumulative estimated cost vs the static
                  Row/Column/one-shot-HillClimb baselines, plus the
                  generation history. The replay outcomes land in the
                  JSON report's "online" section.
     server       the layout daemon under a closed-loop load generator:
                  request throughput at 1 vs 4 server domains, explicit
                  overload shedding (retry-after replies, no hangs) and a
                  wire-vs-local replay determinism check. Outcomes land
                  in the JSON report's "server" section.
     oracle       the incremental cost-delta oracle against full
                  re-costing: merge-peek evals/sec on Lineitem, a
                  HillClimb TPC-H sweep asserting byte-identical layouts
                  and a >= 5x saving in per-query re-costs, and a
                  BruteForce Bell(11) enumeration where 15 delta-costed
                  attributes must not be slower than 12 full-costed
                  ones. Outcomes land in the JSON report's "oracle"
                  section.
     recovery     the durable session registry: WAL-on vs WAL-off ingest
                  overhead (CI asserts <= 1.15x), wall time to recover
                  100 spilled sessions, and eviction/re-attach churn
                  under a resident cap — each phase also asserting the
                  recovered histories byte-identical to the
                  uninterrupted run's. Outcomes land in the JSON
                  report's "recovery" section.
     cluster      the sharded layout cluster: a consistent-hash router in
                  front of 3 shard daemons under a closed-loop 10,000-
                  session workload (shed rate, p50/p99 latency), then a
                  mid-run ring change timing the cross-shard session
                  handoff — every served history checked byte-for-byte
                  against the local replay (any divergence exits 1).
                  Outcomes land in the JSON report's "cluster" section.
     scale        the streaming substrate at SF 100: a bounded-prefix
                  generation throughput probe with O(chunk) tail access,
                  the out-of-core row-to-column transform and a virtual
                  query scan over 600M rows — gated at <= 512 MiB peak
                  heap — then the SF 0.1 streamed-vs-materialized
                  identity check (digests, transform accounting, build
                  accounting and per-query device stats, byte for byte)
                  and the per-partition format selector over the TPC-H
                  line-up (chosen vector never costlier than all-Plain).
                  Any violation exits 1. Outcomes land in the JSON
                  report's "scale" section.
     json         nothing but the machine-readable report (see --json).

   --json PATH    additionally run every algorithm over the TPC-H line-up
                  with counters on and write a schema-versioned JSON
                  report (per-algorithm wall/optimization time, estimated
                  workload cost, cache hit rate, merged counter snapshot,
                  host metadata) to PATH. `--mode json` defaults PATH to
                  BENCH_<schema_version>.json; check_schema.exe validates
                  the result.

   Environment knobs:
     VP_SKIP_SLOW=1       skip the storage-simulator experiment (table7)
                          and the bechamel section (useful in CI).
     VP_RESULTS_DIR=dir   additionally write each experiment's output to
                          dir/<id>.txt (the directory must exist).
     VP_JOBS=N            default for --jobs. *)

(* Shard workers are re-execs of this very binary; the sentinel check
   must run before anything else looks at argv. *)
let () = Vp_router.Worker.maybe_run ()

open Vp_core

let skip_slow = Sys.getenv_opt "VP_SKIP_SLOW" = Some "1"

let results_dir = Sys.getenv_opt "VP_RESULTS_DIR"

let save_result id text =
  match results_dir with
  | None -> ()
  | Some dir ->
      let path = Filename.concat dir (id ^ ".txt") in
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc text)

let run_experiments () =
  List.iter
    (fun (e : Vp_experiments.Registry.experiment) ->
      if skip_slow && e.id = "table7" then
        print_endline
          (Vp_experiments.Common.heading
             (Printf.sprintf "%s [%s] — skipped (VP_SKIP_SLOW)" e.paper_ref e.id))
      else begin
        print_string
          (Vp_experiments.Common.heading
             (Printf.sprintf "%s [%s] — %s" e.paper_ref e.id e.description));
        let text = e.run () in
        print_endline text;
        save_result e.id text;
        flush stdout
      end)
    Vp_experiments.Registry.all

(* --- Bechamel microbenchmarks: optimization time per algorithm, one
   grouped test per TPC-H table. --- *)

let bechamel_section () =
  let open Bechamel in
  let open Toolkit in
  let disk = Vp_experiments.Common.disk in
  let algorithms =
    List.filter
      (fun (a : Partitioner.t) -> a.Partitioner.name <> "BruteForce")
      (Vp_experiments.Common.algorithms disk)
  in
  let tests =
    List.map
      (fun table_name ->
        let workload =
          Vp_benchmarks.Tpch.workload ~sf:Vp_experiments.Common.sf table_name
        in
        let cases =
          List.map
            (fun (a : Partitioner.t) ->
              Test.make ~name:a.Partitioner.name
                (Staged.stage (fun () ->
                     let oracle = Vp_cost.Io_model.oracle disk workload in
                     let delta =
                       Vp_cost.Io_model.Incremental.factory disk workload
                     in
                     ignore
                       (Partitioner.exec a
                          (Partitioner.Request.make ~delta ~cost:oracle
                             workload)))))
            algorithms
        in
        Test.make_grouped ~name:table_name cases)
      Vp_benchmarks.Tpch.table_names
  in
  let benchmark test =
    let instances = Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) ~kde:(Some 500) ()
    in
    let raw = Benchmark.all cfg instances test in
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    Analyze.all ols Instance.monotonic_clock raw
  in
  print_string
    (Vp_experiments.Common.heading
       "Bechamel: optimization time per algorithm (ns/run, monotonic clock)");
  List.iter
    (fun test ->
      let results = benchmark test in
      Hashtbl.iter
        (fun name ols ->
          match Bechamel.Analyze.OLS.estimates ols with
          | Some [ est ] -> Printf.printf "  %-30s %12.0f ns/run\n" name est
          | Some _ | None -> Printf.printf "  %-30s (no estimate)\n" name)
        results;
      flush stdout)
    tests

(* --- Parallel runner benchmark. ---

   The fan-out re-runs a fixed slice of the experiment catalogue: the
   quality/size/sweet-spot experiments whose outputs are pure functions of
   deterministic costs (no wall-clock times in the rendered text, unlike
   e.g. fig1/fig10), so the sequential and parallel outputs can be
   compared byte-for-byte. *)

let fanout_ids =
  [
    "table1"; "table2"; "fig3"; "fig4"; "fig5"; "fig6"; "fig7"; "table3";
    "table4"; "fig8"; "fig9"; "fig11"; "fig14";
  ]

let fanout_experiments () =
  List.map Vp_experiments.Registry.find fanout_ids

let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

let counter_now name =
  Vp_observe.Stats.counter_value (Vp_observe.Stats.snapshot ()) name

(* [f ()] with counters on, paired with the per-run search-memo hits and
   misses it recorded: the [cache.hits] / [cache.misses] counter deltas
   around it. *)
let with_memo_counts f =
  Vp_observe.Switch.(raise_to Stats);
  let hits0 = counter_now "cache.hits" and misses0 = counter_now "cache.misses" in
  let v = f () in
  (v, counter_now "cache.hits" - hits0, counter_now "cache.misses" - misses0)

(* The default pricing path: the plain I/O oracle plus delta sessions. *)
let default_request disk w =
  Partitioner.Request.make
    ~delta:(Vp_cost.Io_model.Incremental.factory disk w)
    ~cost:(Vp_cost.Io_model.oracle disk w) w

(* Search-memo hits and misses of one algorithm over the TPC-H line-up. *)
let algorithm_memo_counts (a : Partitioner.t) =
  let disk = Vp_experiments.Common.disk in
  let (), hits, misses =
    with_memo_counts (fun () ->
        List.iter
          (fun w -> ignore (Partitioner.exec a (default_request disk w)))
          (Vp_benchmarks.Tpch.workloads ~sf:Vp_experiments.Common.sf))
  in
  (hits, misses)

let parallel_section jobs =
  let domains = Vp_parallel.Pool.effective_jobs ~jobs in
  print_string
    (Vp_experiments.Common.heading
       (Printf.sprintf
          "Parallel runner: %d experiments, --jobs %d (%d domain(s) after \
           clamping to this machine)"
          (List.length fanout_ids) jobs domains));
  let experiments = fanout_experiments () in
  let tasks =
    List.map
      (fun (e : Vp_experiments.Registry.experiment) ->
        Vp_parallel.Runner.task ~label:e.id e.run)
      experiments
  in
  (* Baseline: --jobs 1, each experiment cold — the shared TPC-H sweep
     dropped before every run, so each experiment computes its shared
     inputs itself, exactly as when running each id as its own
     process. *)
  let cold_tasks =
    List.map
      (fun (e : Vp_experiments.Registry.experiment) ->
        Vp_parallel.Runner.task ~label:e.id (fun () ->
            Vp_experiments.Common.reset_caches ();
            e.run ()))
      experiments
  in
  let sequential, t_seq =
    time (fun () -> Vp_parallel.Runner.run ~jobs:1 cold_tasks)
  in
  (* Same tasks fanned over the pool, sharing one cold TPC-H sweep. *)
  Vp_experiments.Common.reset_caches ();
  let outcomes, t_par =
    time (fun () -> Vp_parallel.Runner.run ~jobs tasks)
  in
  let mismatches =
    List.filter_map
      (fun ((a : string Vp_parallel.Runner.outcome),
            (b : string Vp_parallel.Runner.outcome)) ->
        if a.value = b.value then None else Some a.label)
      (List.combine sequential outcomes)
  in
  Printf.printf "  --jobs 1, cold runs        : %8.3f s\n" t_seq;
  Printf.printf "  --jobs %d, shared sweep     : %8.3f s\n" jobs t_par;
  Printf.printf "  speedup                    : %8.2fx\n"
    (if t_par > 0.0 then t_seq /. t_par else Float.infinity);
  Printf.printf "  outputs byte-identical     : %s\n"
    (match mismatches with
    | [] -> "yes"
    | ids ->
        Printf.sprintf "NO — DETERMINISM VIOLATION in %s"
          (String.concat ", " ids));
  (* Search-memo hit rates over the TPC-H line-up, for the entrants that
     keep a memo (HillClimb's and AutoPart's merge-only climbs never
     repeat a candidate and keep none). *)
  let disk = Vp_experiments.Common.disk in
  List.iter
    (fun (a : Partitioner.t) ->
      let hits, misses = algorithm_memo_counts a in
      let lookups = hits + misses in
      Printf.printf
        "  %-10s search-memo hit rate: %5.1f%% (%d of %d candidate lookups)\n"
        a.Partitioner.name
        (if lookups = 0 then 0.0
         else 100.0 *. float_of_int hits /. float_of_int lookups)
        hits lookups)
    [
      Vp_algorithms.Hyrise.algorithm;
      Vp_experiments.Common.brute_force disk;
      Vp_algorithms.Ilp.with_bound disk;
      Vp_algorithms.Hypergraph.algorithm;
    ];
  flush stdout;
  if mismatches <> [] then exit 1

(* --- Budget degradation demo: the cost of the best-so-far layout as the
   per-run step budget grows. Lineitem is the table where full search is
   infeasible (B(16) ≈ 10^10), i.e. exactly where a budgeted BruteForce
   earns its keep: every row shows a valid layout no worse than Row, and
   cost never increases with the budget. --- *)

let budget_section () =
  let disk = Vp_experiments.Common.disk in
  let workload =
    Vp_benchmarks.Tpch.workload ~sf:Vp_experiments.Common.sf "lineitem"
  in
  let n = Table.attribute_count (Workload.table workload) in
  let row_cost =
    Vp_cost.Io_model.oracle disk workload (Partitioning.row n)
  in
  Printf.printf
    "\nGraceful degradation on Lineitem under step budgets (Row = %.0f):\n"
    row_cost;
  Printf.printf "  %-10s %10s %12s  %s\n" "algorithm" "budget" "cost" "status";
  List.iter
    (fun (a : Partitioner.t) ->
      List.iter
        (fun max_steps ->
          let budget = Vp_robust.Budget.create ~max_steps () in
          let oracle = Vp_cost.Io_model.oracle disk workload in
          let delta = Vp_cost.Io_model.Incremental.factory disk workload in
          let r =
            Partitioner.exec a
              (Partitioner.Request.make ~budget ~delta ~cost:oracle workload)
          in
          Printf.printf "  %-10s %10d %12.0f  %s\n" a.Partitioner.name
            max_steps r.Partitioner.Response.cost
            (match r.Partitioner.Response.status with
            | Partitioner.Complete -> "complete"
            | Partitioner.Timed_out { steps; _ } ->
                Printf.sprintf "timed out after %d steps" steps))
        [ 500; 5_000; 50_000 ])
    [ Vp_algorithms.Brute_force.algorithm; Vp_algorithms.Hillclimb.algorithm ];
  flush stdout

(* --- Online layout service benchmark: replay a synthetic drift stream
   (the access distribution rotates mid-stream) and the Lineitem query
   order through the service, and score the cumulative estimated cost
   against the static Row/Column/one-shot baselines. The 1 MiB buffer
   puts the disk in the seek-bound regime where layout quality matters;
   all numbers are model estimates, so the section is deterministic. --- *)

let online_disk =
  Vp_cost.Disk.with_buffer_size Vp_cost.Disk.default (Vp_cost.Disk.mb 1.0)

let online_streams () =
  [
    ( "synthetic-drift",
      online_disk,
      Vp_benchmarks.Synthetic.drift_workload ~attributes:16 ~clusters:4
        ~rows:200_000 ~queries:600 ~scatter:0.05 ~drift_at:0.4 () );
    ( "lineitem-order",
      Vp_experiments.Common.disk,
      Vp_benchmarks.Tpch.workload ~sf:Vp_experiments.Common.sf "lineitem" );
  ]

let online_outcomes ~jobs =
  List.map
    (fun (label, disk, w) ->
      let config =
        Vp_online.Service.default_config ~jobs ~disk
          ~panel:[ Vp_algorithms.Hillclimb.algorithm ]
          ()
      in
      (label, Vp_online.Replay.run ~config w))
    (online_streams ())

let online_entry_of (label, (o : Vp_online.Replay.outcome)) =
  {
    Vp_observe.Bench_report.trace = label;
    queries = o.Vp_online.Replay.queries;
    reopts = o.Vp_online.Replay.reopts;
    adopted = o.Vp_online.Replay.adopted;
    rejected = o.Vp_online.Replay.rejected;
    final_generation = o.Vp_online.Replay.final_generation;
    online_cost = o.Vp_online.Replay.online_cost;
    row_cost = o.Vp_online.Replay.row_cost;
    column_cost = o.Vp_online.Replay.column_cost;
    oneshot_cost = o.Vp_online.Replay.oneshot_cost;
    oneshot_algorithm = o.Vp_online.Replay.oneshot_algorithm;
  }

let online_section ~jobs =
  print_string
    (Vp_experiments.Common.heading
       (Printf.sprintf
          "Online layout service: drift-triggered re-partitioning (--jobs %d)"
          jobs));
  let outcomes = online_outcomes ~jobs in
  List.iter
    (fun (label, (o : Vp_online.Replay.outcome)) ->
      Printf.printf "[%s]\n%s%s\n" label
        (Vp_online.Replay.summary o)
        o.Vp_online.Replay.history)
    outcomes;
  flush stdout;
  List.map online_entry_of outcomes

(* --- Layout server benchmark: a closed-loop load generator against a
   live daemon in this very process. Each phase starts a fresh daemon on
   an ephemeral port, fans N client domains out, and scores completed
   requests, overloaded (shed) replies, wall time and the latency
   histogram (Vp_observe.Stats, one histogram per phase). The throughput
   phases prove the thread-per-connection pool scales; the overload phase
   proves backpressure is an explicit retry-after reply, not a hang. --- *)

let with_daemon ~server_jobs ~max_pending f =
  let d = Vp_server.Daemon.create ~port:0 ~jobs:server_jobs ~max_pending () in
  let server = Domain.spawn (fun () -> Vp_server.Daemon.serve d) in
  Fun.protect
    ~finally:(fun () ->
      Vp_server.Daemon.stop d;
      Domain.join server)
    (fun () -> f (Vp_server.Daemon.port d))

let shed_count () =
  Vp_observe.Stats.counter_value (Vp_observe.Stats.snapshot ()) "server.shed"

let quantile_ms ~phase q =
  let snap = Vp_observe.Stats.snapshot () in
  match List.assoc_opt ("server.bench." ^ phase) snap.Vp_observe.Stats.histograms with
  | Some summary -> Vp_observe.Stats.quantile summary q
  | None -> 0.0

let server_entry ~phase ~server_jobs ~clients ~requests ~shed ~errors ~seconds
    =
  {
    Vp_observe.Bench_report.phase;
    server_jobs;
    clients;
    requests;
    shed;
    errors;
    seconds;
    throughput_rps =
      (if seconds > 0.0 then float_of_int requests /. seconds else 0.0);
    latency_p50_ms = quantile_ms ~phase 0.5;
    latency_p95_ms = quantile_ms ~phase 0.95;
    latency_p99_ms = quantile_ms ~phase 0.99;
  }

let server_workload =
  lazy
    (Vp_benchmarks.Synthetic.workload ~seed:7L ~rows:200_000 ~attributes:12
       ~clusters:4 ~queries:24 ~scatter:0.1 ())

(* Each throughput request is a fixed-service-time [sleep] — a stand-in
   for an I/O-bound layout fetch. With a CPU-bound request the speedup
   claim would be hostage to the bench machine's core count (a 1-core
   host can never show parallel speedup on compute); a fixed service
   time isolates what the daemon actually promises: multiplexing live
   connections across server domains. Real partitioner latency over the
   wire is measured separately in the partition phase below. *)
let service_ms = 20

let throughput_phase ~phase ~server_jobs ~clients ~requests_each =
  let hist = Vp_observe.Stats.histogram ("server.bench." ^ phase) in
  let shed_before = shed_count () in
  with_daemon ~server_jobs ~max_pending:64 (fun port ->
      let worker () =
        let c = Vp_client.Client.create ~port () in
        Fun.protect
          ~finally:(fun () -> Vp_client.Client.close c)
          (fun () ->
            let ok = ref 0 and errors = ref 0 in
            for _ = 1 to requests_each do
              let t0 = Unix.gettimeofday () in
              match
                Vp_client.Client.request c
                  (Vp_server.Protocol.sleep ~ms:service_ms)
              with
              | Ok reply
                when Vp_server.Protocol.reply_status reply = "ok" ->
                  incr ok;
                  Vp_observe.Stats.observe hist
                    ((Unix.gettimeofday () -. t0) *. 1000.0)
              | Ok _ | Error _ -> incr errors
            done;
            (!ok, !errors))
      in
      let outcomes, seconds =
        time (fun () ->
            List.map Domain.join
              (List.init clients (fun _ -> Domain.spawn worker)))
      in
      let requests = List.fold_left (fun a (ok, _) -> a + ok) 0 outcomes in
      let errors = List.fold_left (fun a (_, e) -> a + e) 0 outcomes in
      let shed = shed_count () - shed_before in
      Printf.printf
        "  %-14s %d server job(s), %d clients x %d: %4d ok, %d errors, %d \
         shed, %6.3f s (%7.1f req/s, p50 %.1f ms)\n"
        phase server_jobs clients requests_each requests errors shed seconds
        (if seconds > 0.0 then float_of_int requests /. seconds else 0.0)
        (quantile_ms ~phase 0.5);
      flush stdout;
      (server_entry ~phase ~server_jobs ~clients ~requests ~shed ~errors
         ~seconds,
       seconds))

(* CPU-bound partition requests against the 4-domain daemon: no
   cross-jobs speedup claim (compute parallelism is the business of
   [--mode parallel]), just end-to-end wire latency for real
   partitioner work — frame it, run HillClimb under a step budget,
   frame the layout back. *)
let partition_phase () =
  let phase = "partition-j4" in
  let w = Lazy.force server_workload in
  let hist = Vp_observe.Stats.histogram ("server.bench." ^ phase) in
  let shed_before = shed_count () in
  let clients = 2 and requests_each = 2 in
  with_daemon ~server_jobs:4 ~max_pending:64 (fun port ->
      let worker () =
        let c = Vp_client.Client.create ~port () in
        Fun.protect
          ~finally:(fun () -> Vp_client.Client.close c)
          (fun () ->
            let ok = ref 0 and errors = ref 0 in
            for _ = 1 to requests_each do
              let t0 = Unix.gettimeofday () in
              match
                Vp_client.Client.partition ~algorithm:"HillClimb"
                  ~budget_steps:20_000 c w
              with
              | Ok _ ->
                  incr ok;
                  Vp_observe.Stats.observe hist
                    ((Unix.gettimeofday () -. t0) *. 1000.0)
              | Error _ -> incr errors
            done;
            (!ok, !errors))
      in
      let outcomes, seconds =
        time (fun () ->
            List.map Domain.join
              (List.init clients (fun _ -> Domain.spawn worker)))
      in
      let requests = List.fold_left (fun a (ok, _) -> a + ok) 0 outcomes in
      let errors = List.fold_left (fun a (_, e) -> a + e) 0 outcomes in
      let shed = shed_count () - shed_before in
      Printf.printf
        "  %-14s 4 server jobs, %d clients x %d partition requests: %d ok, \
         %d errors, p50 %.1f ms over the wire\n"
        phase clients requests_each requests errors (quantile_ms ~phase 0.5);
      flush stdout;
      server_entry ~phase ~server_jobs:4 ~clients ~requests ~shed ~errors
        ~seconds)

(* Six clients fight over a single-connection daemon holding each
   connection for a deliberate sleep: most connects are answered with an
   explicit overloaded + retry-after reply, and every client still
   completes by retrying — nobody hangs, nothing is silently queued. *)
let overload_phase () =
  let phase = "overload" in
  let hist = Vp_observe.Stats.histogram ("server.bench." ^ phase) in
  let clients = 6 and requests_each = 2 in
  with_daemon ~server_jobs:1 ~max_pending:1 (fun port ->
      let worker () =
        let c = Vp_client.Client.create ~port () in
        Fun.protect
          ~finally:(fun () -> Vp_client.Client.close c)
          (fun () ->
            let ok = ref 0 and errors = ref 0 and shed = ref 0 in
            for _ = 1 to requests_each do
              let t0 = Unix.gettimeofday () in
              let rec attempt tries =
                if tries = 0 then incr errors
                else
                  match
                    Vp_client.Client.request c
                      (Vp_server.Protocol.sleep ~ms:40)
                  with
                  | Ok reply
                    when Vp_server.Protocol.reply_status reply = "overloaded"
                    ->
                      incr shed;
                      let ms =
                        Option.value ~default:50
                          (Vp_server.Protocol.retry_after_ms reply)
                      in
                      Unix.sleepf (float_of_int ms /. 1000.0);
                      attempt (tries - 1)
                  | Ok _ ->
                      incr ok;
                      Vp_observe.Stats.observe hist
                        ((Unix.gettimeofday () -. t0) *. 1000.0)
                  | Error _ -> incr errors
              in
              attempt 200
            done;
            (!ok, !errors, !shed))
      in
      let outcomes, seconds =
        time (fun () ->
            List.map Domain.join
              (List.init clients (fun _ -> Domain.spawn worker)))
      in
      let requests = List.fold_left (fun a (ok, _, _) -> a + ok) 0 outcomes in
      let errors = List.fold_left (fun a (_, e, _) -> a + e) 0 outcomes in
      let shed = List.fold_left (fun a (_, _, s) -> a + s) 0 outcomes in
      Printf.printf
        "  %-14s 1 server job, max_pending 1, %d clients: %d ok, %d errors, \
         %d shed replies (retry-after honoured, no client hung)\n"
        phase clients requests errors shed;
      flush stdout;
      server_entry ~phase ~server_jobs:1 ~clients ~requests ~shed ~errors
        ~seconds)

(* The same drift stream ingested over the wire and replayed in-process
   must produce byte-identical decision histories — the session
   determinism contract, demonstrated here and proved in test_server. *)
let wire_replay_check () =
  let w =
    Vp_benchmarks.Synthetic.drift_workload ~seed:11L ~attributes:8 ~clusters:3
      ~rows:100_000 ~queries:200 ~scatter:0.05 ~drift_at:0.5 ()
  in
  let table = Workload.table w in
  let wire =
    with_daemon ~server_jobs:4 ~max_pending:64 (fun port ->
        let c = Vp_client.Client.create ~port () in
        Fun.protect
          ~finally:(fun () -> Vp_client.Client.close c)
          (fun () ->
            let ( >>= ) = Result.bind in
            Vp_client.Client.open_session c ~session:"wire" ~buffer_mb:1.0
              table
            >>= fun _created ->
            Array.fold_left
              (fun acc q ->
                acc >>= fun _gen ->
                Vp_client.Client.ingest c ~session:"wire" table q)
              (Ok 0) (Workload.queries w)
            >>= fun _gen -> Vp_client.Client.close_session c ~session:"wire"))
  in
  let local =
    let config =
      Vp_online.Service.default_config ~jobs:1 ~disk:online_disk
        ~panel:[ Vp_algorithms.Hillclimb.algorithm ]
        ()
    in
    (Vp_online.Replay.run ~config w).Vp_online.Replay.history
  in
  let verdict =
    match wire with
    | Error msg -> Printf.sprintf "NO — wire replay failed: %s" msg
    | Ok h when h = local -> "yes"
    | Ok _ -> "NO — HISTORY MISMATCH"
  in
  Printf.printf "  wire replay history matches local replay: %s\n" verdict;
  flush stdout;
  verdict = "yes"

let server_section () =
  Vp_observe.Switch.(raise_to Stats);
  print_string
    (Vp_experiments.Common.heading
       "Layout server: closed-loop load generator over the wire");
  let e1, t1 =
    throughput_phase ~phase:"throughput-j1" ~server_jobs:1 ~clients:4
      ~requests_each:16
  in
  let e4, t4 =
    throughput_phase ~phase:"throughput-j4" ~server_jobs:4 ~clients:4
      ~requests_each:16
  in
  Printf.printf "  throughput speedup at 4 server domains: %.2fx\n"
    (if t4 > 0.0 then t1 /. t4 else Float.infinity);
  let ep = partition_phase () in
  let eo = overload_phase () in
  let deterministic = wire_replay_check () in
  Printf.printf "  normal-load shed replies: %d (expected 0)\n"
    (e1.Vp_observe.Bench_report.shed + e4.Vp_observe.Bench_report.shed);
  Printf.printf "  overload shed replies: %d (expected >= 1)\n"
    eo.Vp_observe.Bench_report.shed;
  flush stdout;
  if not deterministic then exit 1;
  [ e1; e4; ep; eo ]

(* --- Cost-oracle benchmark (--mode oracle): the incremental delta
   sessions of [Vp_cost.Io_model.Incremental] against full re-costing.
   Three phases, each landing in the JSON report's "oracle" section:

   microbench        every pairwise merge of Lineitem's column layout,
                     costed once per candidate by a full [workload_cost]
                     and once by a delta peek — identical candidate
                     counts, so evals/sec compare directly and the
                     cost.query_costs counter shows how much per-query
                     work each path actually did.

   hillclimb-sweep   HillClimb over the TPC-H line-up with the delta
                     path disabled, then enabled. Layouts and cost bits
                     must be byte-identical, and the full path must
                     re-cost at least 5x as many queries as the delta
                     path; either violation exits 1 (the CI gate).

   bruteforce-scale  full enumeration of Bell(11) = 678,570 candidate
                     layouts twice: 12 synthetic attributes on the full
                     path vs 15 synthetic attributes (a different table,
                     same 11-atom search space) on the delta path. The
                     15-attribute run must not be slower; exits 1
                     otherwise. --- *)

let per_sec count seconds =
  if seconds > 0.0 then float_of_int count /. seconds else 0.0

let qc_ratio ~full ~delta =
  if delta > 0 then float_of_int full /. float_of_int delta
  else if full = 0 then 1.0
  else Float.infinity

let oracle_microbench () =
  let disk = Vp_experiments.Common.disk in
  let w =
    Vp_benchmarks.Tpch.workload ~sf:Vp_experiments.Common.sf "lineitem"
  in
  let n = Table.attribute_count (Workload.table w) in
  let column = Partitioning.column n in
  let groups = Array.init n Attr_set.singleton in
  let repeats = 20 in
  let evals = repeats * n * (n - 1) / 2 in
  let sweep cost_pair =
    for _ = 1 to repeats do
      for i = 0 to n - 2 do
        for j = i + 1 to n - 1 do
          ignore (cost_pair groups.(i) groups.(j) : float)
        done
      done
    done
  in
  let full_qc0 = counter_now "cost.query_costs" in
  let (), t_full =
    time (fun () ->
        sweep (fun a b ->
            Vp_cost.Io_model.workload_cost disk w
              (Partitioning.merge_groups column a b)))
  in
  let full_qc = counter_now "cost.query_costs" - full_qc0 in
  let s = Vp_cost.Io_model.Incremental.create disk w in
  ignore (Vp_cost.Io_model.Incremental.goto s column : float);
  let delta_qc0 = counter_now "cost.query_costs" in
  let (), t_delta =
    time (fun () -> sweep (Vp_cost.Io_model.Incremental.cost_merge s))
  in
  let delta_qc = counter_now "cost.query_costs" - delta_qc0 in
  Printf.printf
    "  microbench       lineitem, %d pairwise merges x %d rounds:\n\
    \                   full  %9.0f evals/s (%7d query re-costs, %6.3f s)\n\
    \                   delta %9.0f evals/s (%7d query re-costs, %6.3f s)\n"
    (n * (n - 1) / 2)
    repeats (per_sec evals t_full) full_qc t_full (per_sec evals t_delta)
    delta_qc t_delta;
  flush stdout;
  {
    Vp_observe.Bench_report.phase = "microbench";
    table = "lineitem";
    attributes = n;
    atoms = n;
    full_evals_per_sec = per_sec evals t_full;
    delta_evals_per_sec = per_sec evals t_delta;
    full_query_costs = full_qc;
    delta_query_costs = delta_qc;
    query_cost_ratio = qc_ratio ~full:full_qc ~delta:delta_qc;
    wall_seconds = t_full +. t_delta;
  }

(* The sweep runs HillClimb over the whole line-up [sweep_rounds] times —
   the service pattern, where the same workload is re-optimized again and
   again — with ONE persistent delta session per workload, supplied to
   every round's request. The full path re-costs each round from scratch
   (it has nothing to persist); the delta session's per-query memo makes
   repeat rounds nearly free. Byte-identity of every round's layout and
   cost bits against the full path is asserted. *)
let sweep_rounds = 3

let oracle_sweep () =
  let disk = Vp_experiments.Common.disk in
  let workloads = Vp_benchmarks.Tpch.workloads ~sf:Vp_experiments.Common.sf in
  let run_sweep ~enabled =
    (* One session per workload, shared by all rounds of the delta path;
       the full path re-costs every probe through the oracle. *)
    let prepared =
      List.map
        (fun w ->
          if enabled then
            let s = Vp_cost.Io_model.Incremental.create disk w in
            (w, Some (fun () -> Vp_cost.Io_model.Incremental.session s))
          else (w, None))
        workloads
    in
    let qc0 = counter_now "cost.query_costs" in
    let outcomes, wall =
      time (fun () ->
          List.concat_map
            (fun _round ->
              List.map
                (fun (w, delta) ->
                  let oracle = Vp_cost.Io_model.oracle disk w in
                  let r =
                    Partitioner.exec Vp_algorithms.Hillclimb.algorithm
                      (Partitioner.Request.make ?delta ~cost:oracle w)
                  in
                  ( Partitioning.to_string r.Partitioner.Response.partitioning,
                    Int64.bits_of_float r.Partitioner.Response.cost,
                    r.Partitioner.Response.stats.Partitioner.cost_calls ))
                prepared)
            (List.init sweep_rounds Fun.id))
    in
    (outcomes, wall, counter_now "cost.query_costs" - qc0)
  in
  let full, t_full, full_qc = run_sweep ~enabled:false in
  let delta, t_delta, delta_qc = run_sweep ~enabled:true in
  let mismatches =
    List.filter_map
      (fun ((p1, c1, _), (p2, c2, _)) ->
        if p1 = p2 && c1 = c2 then None else Some p1)
      (List.combine full delta)
  in
  let evals = List.fold_left (fun acc (_, _, c) -> acc + c) 0 full in
  let ratio = qc_ratio ~full:full_qc ~delta:delta_qc in
  Printf.printf
    "  hillclimb-sweep  TPC-H line-up x %d rounds, %d candidate evaluations \
     per path:\n\
    \                   full  %9.0f evals/s (%7d query re-costs, %6.3f s)\n\
    \                   delta %9.0f evals/s (%7d query re-costs, %6.3f s)\n\
    \                   layouts byte-identical: %s\n\
    \                   query re-cost ratio   : %.1fx (gate: >= 5.0x)\n"
    sweep_rounds evals (per_sec evals t_full) full_qc t_full
    (per_sec evals t_delta) delta_qc t_delta
    (if mismatches = [] then "yes" else "NO — DETERMINISM VIOLATION")
    ratio;
  flush stdout;
  if mismatches <> [] then exit 1;
  if ratio < 5.0 then begin
    Printf.printf
      "  ORACLE GATE FAILED: delta path saved only %.1fx query re-costs\n"
      ratio;
    exit 1
  end;
  {
    Vp_observe.Bench_report.phase = "hillclimb-sweep";
    table = "tpch";
    attributes = 16;
    atoms = 0;
    full_evals_per_sec = per_sec evals t_full;
    delta_evals_per_sec = per_sec evals t_delta;
    full_query_costs = full_qc;
    delta_query_costs = delta_qc;
    query_cost_ratio = ratio;
    wall_seconds = t_full +. t_delta;
  }

(* Seeds chosen so both tables decompose into exactly 11 primary
   partitions: the two BruteForce enumerations then visit the same
   Bell(11) = 678,570 candidate layouts and differ only in how each
   candidate is costed. *)
let oracle_bruteforce () =
  let disk = Vp_experiments.Common.disk in
  let algo = Vp_algorithms.Brute_force.make () in
  let run ~enabled w =
    let qc0 = counter_now "cost.query_costs" in
    let oracle = Vp_cost.Io_model.oracle disk w in
    let delta =
      if enabled then Some (Vp_cost.Io_model.Incremental.factory disk w)
      else None
    in
    let r, wall =
      time (fun () ->
          Partitioner.exec algo (Partitioner.Request.make ?delta ~cost:oracle w))
    in
    (r, wall, counter_now "cost.query_costs" - qc0)
  in
  let w12 =
    Vp_benchmarks.Synthetic.workload ~seed:1L ~rows:100_000 ~attributes:12
      ~clusters:4 ~queries:12 ~scatter:0.1 ()
  in
  let w15 =
    Vp_benchmarks.Synthetic.workload ~seed:5L ~rows:100_000 ~attributes:15
      ~clusters:4 ~queries:16 ~scatter:0.1 ()
  in
  let atoms w = List.length (Workload.primary_partitions w) in
  let r12, t12, qc12 = run ~enabled:false w12 in
  let r15, t15, qc15 = run ~enabled:true w15 in
  let entry ~phase ~table ~attributes ~atoms ~full ~wall ~qc =
    {
      Vp_observe.Bench_report.phase;
      table;
      attributes;
      atoms;
      full_evals_per_sec =
        (if full then per_sec r12.Partitioner.Response.stats.Partitioner.cost_calls wall
         else 0.0);
      delta_evals_per_sec =
        (if full then 0.0
         else per_sec r15.Partitioner.Response.stats.Partitioner.cost_calls wall);
      full_query_costs = (if full then qc else 0);
      delta_query_costs = (if full then 0 else qc);
      query_cost_ratio = 0.0;
      wall_seconds = wall;
    }
  in
  Printf.printf
    "  bruteforce-scale Bell(11) enumeration, full 12-attr vs delta 15-attr:\n\
    \                   full  12 attrs, %2d atoms: %6.3f s (%d query re-costs)\n\
    \                   delta 15 attrs, %2d atoms: %6.3f s (%d query re-costs)\n\
    \                   15-attr delta within 12-attr full budget: %s\n"
    (atoms w12) t12 qc12 (atoms w15) t15 qc15
    (if t15 <= t12 then "yes" else "NO");
  flush stdout;
  if t15 > t12 then begin
    Printf.printf
      "  ORACLE GATE FAILED: 15-attribute delta enumeration slower than \
       12-attribute full enumeration (%.3f s > %.3f s)\n"
      t15 t12;
    exit 1
  end;
  [
    entry ~phase:"bruteforce-full" ~table:"synthetic-12" ~attributes:12
      ~atoms:(atoms w12) ~full:true ~wall:t12 ~qc:qc12;
    entry ~phase:"bruteforce-delta" ~table:"synthetic-15" ~attributes:15
      ~atoms:(atoms w15) ~full:false ~wall:t15 ~qc:qc15;
  ]

let oracle_section () =
  Vp_observe.Switch.(raise_to Stats);
  print_string
    (Vp_experiments.Common.heading
       "Cost oracle: incremental delta sessions vs full re-costing");
  let micro = oracle_microbench () in
  let sweep = oracle_sweep () in
  let scale = oracle_bruteforce () in
  micro :: sweep :: scale

(* --- durable sessions: WAL ingest overhead, spill/restore latency and
   LRU eviction/re-attach churn. Every phase runs at the Sessions level
   (no TCP) so the numbers measure durability, not the socket stack, and
   every phase double-checks the headline invariant: recovered histories
   byte-identical to the uninterrupted run's. --- *)

let recovery_spec ~session table =
  {
    Vp_server.Protocol.session;
    table;
    panel = [ "HillClimb" ];
    drift_ratio = 2.0;
    min_window = 8;
    epoch = 64;
    memory = 32;
    horizon = 1.0;
    budget_steps = None;
    buffer_mb = 1.0;
  }

let counter_delta name (before : Vp_observe.Stats.snapshot)
    (after : Vp_observe.Stats.snapshot) =
  let get (s : Vp_observe.Stats.snapshot) =
    match List.assoc_opt name s.Vp_observe.Stats.counters with
    | Some v -> v
    | None -> 0
  in
  get after - get before

let rec remove_tree path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
      Array.iter
        (fun f -> remove_tree (Filename.concat path f))
        (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())

let with_temp_dir tag f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "vp-bench-%s-%d" tag (Unix.getpid ()))
  in
  remove_tree dir;
  Fun.protect ~finally:(fun () -> remove_tree dir) (fun () -> f dir)

let recovery_open reg spec =
  match Vp_server.Sessions.open_session reg spec with
  | Ok _ -> ()
  | Error msg -> failwith msg

let recovery_ingest_all reg ~session table queries =
  List.iteri
    (fun i q ->
      match
        Vp_server.Sessions.ingest reg session ~seq:(i + 1)
          ~attributes:(Table.names_of_attr_set table (Query.references q))
          ~weight:(Query.weight q) ~name:(Query.name q) ()
      with
      | Ok _ -> ()
      | Error msg -> failwith msg)
    queries

let recovery_history reg name =
  match Vp_server.Sessions.view reg name Vp_online.Service.history with
  | Ok h -> h
  | Error msg -> failwith msg

let recovery_stream ~seed ~queries =
  Vp_benchmarks.Synthetic.drift_workload ~seed ~attributes:8 ~clusters:3
    ~rows:50_000 ~queries ~scatter:0.05 ~drift_at:0.5 ()

(* WAL-on vs WAL-off: the same 400-query stream ingested into an
   in-memory registry and a durable one. Only the ingest loop is timed —
   registry setup and the (fsynced) open-time meta write are one-offs,
   not per-query cost — and each variant takes the best of three runs so
   the ratio measures the append path, not scheduler noise. *)
let recovery_wal_overhead () =
  let w = recovery_stream ~seed:71L ~queries:400 in
  let table = Workload.table w in
  let queries = Array.to_list (Workload.queries w) in
  let run reg =
    recovery_open reg (recovery_spec ~session:"overhead" table);
    let (), seconds =
      time (fun () -> recovery_ingest_all reg ~session:"overhead" table queries)
    in
    (recovery_history reg "overhead", seconds)
  in
  let best_of_3 mk =
    let runs = List.init 3 (fun _ -> mk ()) in
    let hist = fst (List.hd runs) in
    (hist, List.fold_left (fun acc (_, s) -> Float.min acc s) infinity runs)
  in
  let hist_off, t_off = best_of_3 (fun () -> run (Vp_server.Sessions.create ())) in
  let before = Vp_observe.Stats.snapshot () in
  let hist_on, t_on =
    best_of_3 (fun () ->
        with_temp_dir "wal" (fun dir ->
            run (Vp_server.Sessions.create ~data_dir:dir ())))
  in
  let after = Vp_observe.Stats.snapshot () in
  let ratio = if t_off > 0.0 then t_on /. t_off else 0.0 in
  let identical = String.equal hist_off hist_on in
  Printf.printf
    "  WAL overhead: off %.4fs, on %.4fs, ratio %.3f, histories %s\n%!" t_off
    t_on ratio
    (if identical then "identical" else "DIVERGED");
  {
    Vp_observe.Bench_report.phase = "wal-overhead";
    sessions = 1;
    queries = List.length queries;
    wal_appends = counter_delta "server.wal_appends" before after;
    evictions = counter_delta "server.evictions" before after;
    reattaches = counter_delta "server.reattaches" before after;
    recovered = 0;
    seconds = t_on;
    wal_overhead_ratio = ratio;
    byte_identical = identical;
  }

(* 100 sessions ingested, drained to disk, then recovered by a fresh
   registry: [seconds] is the wall time to restore all 100 histories. *)
let recovery_spill_restore () =
  with_temp_dir "spill" (fun dir ->
      let w = recovery_stream ~seed:72L ~queries:20 in
      let table = Workload.table w in
      let queries = Array.to_list (Workload.queries w) in
      let n = 100 in
      let name i = Printf.sprintf "s%03d" i in
      let reg = Vp_server.Sessions.create ~data_dir:dir () in
      let expected =
        Array.init n (fun i ->
            let s = name i in
            recovery_open reg (recovery_spec ~session:s table);
            recovery_ingest_all reg ~session:s table queries;
            recovery_history reg s)
      in
      Vp_server.Sessions.drain reg;
      let before = Vp_observe.Stats.snapshot () in
      let reg2 = Vp_server.Sessions.create ~data_dir:dir () in
      let histories, seconds =
        time (fun () -> Array.init n (fun i -> recovery_history reg2 (name i)))
      in
      let after = Vp_observe.Stats.snapshot () in
      let identical = Array.for_all2 String.equal expected histories in
      Printf.printf
        "  Spill/restore: %d sessions recovered in %.4fs (%.2f ms/session), \
         histories %s\n\
         %!"
        n seconds
        (seconds *. 1000.0 /. float_of_int n)
        (if identical then "identical" else "DIVERGED");
      {
        Vp_observe.Bench_report.phase = "spill-restore";
        sessions = n;
        queries = n * List.length queries;
        wal_appends = counter_delta "server.wal_appends" before after;
        evictions = counter_delta "server.evictions" before after;
        reattaches = counter_delta "server.reattaches" before after;
        recovered = Vp_server.Sessions.recovered_count reg2;
        seconds;
        wal_overhead_ratio = 0.0;
        byte_identical = identical;
      })

(* 32 sessions round-robin under a cap of 8 residents: every touch of a
   spilled session re-attaches and pushes the LRU resident out — maximal
   churn — while an uncapped in-memory registry provides the reference
   histories. *)
let recovery_evict_reattach () =
  with_temp_dir "evict" (fun dir ->
      let w = recovery_stream ~seed:73L ~queries:30 in
      let table = Workload.table w in
      let queries = Array.to_list (Workload.queries w) in
      let n = 32 in
      let name i = Printf.sprintf "e%02d" i in
      let reg = Vp_server.Sessions.create ~data_dir:dir ~max_resident:8 () in
      let reference = Vp_server.Sessions.create () in
      for i = 0 to n - 1 do
        recovery_open reg (recovery_spec ~session:(name i) table);
        recovery_open reference (recovery_spec ~session:(name i) table)
      done;
      let before = Vp_observe.Stats.snapshot () in
      let (), seconds =
        time (fun () ->
            List.iteri
              (fun j q ->
                let attributes =
                  Table.names_of_attr_set table (Query.references q)
                in
                for i = 0 to n - 1 do
                  List.iter
                    (fun reg ->
                      match
                        Vp_server.Sessions.ingest reg (name i) ~seq:(j + 1)
                          ~attributes ~weight:(Query.weight q)
                          ~name:(Query.name q) ()
                      with
                      | Ok _ -> ()
                      | Error msg -> failwith msg)
                    [ reg; reference ]
                done)
              queries)
      in
      let after = Vp_observe.Stats.snapshot () in
      let identical =
        List.for_all
          (fun i ->
            String.equal
              (recovery_history reg (name i))
              (recovery_history reference (name i)))
          (List.init n Fun.id)
      in
      let evictions = counter_delta "server.evictions" before after in
      let reattaches = counter_delta "server.reattaches" before after in
      Printf.printf
        "  Evict/re-attach: %d sessions, cap 8: %d evictions, %d re-attaches \
         in %.4fs, histories %s\n\
         %!"
        n evictions reattaches seconds
        (if identical then "identical" else "DIVERGED");
      {
        Vp_observe.Bench_report.phase = "evict-reattach";
        sessions = n;
        queries = n * List.length queries;
        wal_appends = counter_delta "server.wal_appends" before after;
        evictions;
        reattaches;
        recovered = 0;
        seconds;
        wal_overhead_ratio = 0.0;
        byte_identical = identical;
      })

let recovery_section () =
  Vp_observe.Switch.(raise_to Stats);
  print_string
    (Vp_experiments.Common.heading
       "Durable sessions: WAL overhead, spill/restore, evict/re-attach");
  let overhead = recovery_wal_overhead () in
  let spill = recovery_spill_restore () in
  let churn = recovery_evict_reattach () in
  [ overhead; spill; churn ]

(* --- Sharded cluster benchmark (--mode cluster): the consistent-hash
   router in front of 3 shard daemons (separate processes, re-execs of
   this binary — see the [maybe_run] hook at the top of the file).

   closed-loop   8 client domains drive 10,000 shallow sessions (open +
                 3 sequenced ingests + close) through the router; every
                 close returns the session's decision history, checked
                 byte-for-byte against one locally replayed expectation.
                 Scores throughput, shed rate and client-side p50/p99.

   handoff       48 deep drift sessions ingest concurrently; once every
                 worker passes the halfway mark a shard is added
                 ([cluster_add]), so live sessions spill, move between
                 data dirs and are adopted mid-stream while the ingest
                 loops ride out the shed window on seq-idempotent
                 retries. Scores the ring-change wall time, sessions
                 moved, and — again — byte-identity of every history.

   Any determinism violation exits 1 (the CI gate greps for the
   "determinism violations: 0" line). --- *)

let cluster_shards = 3

let cluster_clients = 8

let with_cluster ~tag ?(shards = 3) f =
  with_temp_dir tag (fun dir ->
      let r =
        Vp_router.Router.create ~port:0 ~shards ~shard_jobs:4 ~data_dir:dir ()
      in
      let server = Domain.spawn (fun () -> Vp_router.Router.serve r) in
      Fun.protect
        ~finally:(fun () ->
          Vp_router.Router.stop r;
          Domain.join server)
        (fun () -> f r (Vp_router.Router.port r)))

(* The fleet-wide value of a counter, from the router's aggregated
   [stats] reply (the shards are separate processes — their counters
   are not in this process's snapshot). *)
let cluster_counter reply name =
  match Vp_observe.Json.member "counters" reply with
  | Some (Vp_observe.Json.Obj fields) -> (
      match List.assoc_opt name fields with
      | Some (Vp_observe.Json.Int n) -> n
      | _ -> 0)
  | _ -> 0

let cluster_fleet_shed port =
  let c = Vp_client.Client.create ~port () in
  Fun.protect
    ~finally:(fun () -> Vp_client.Client.close c)
    (fun () ->
      match Vp_client.Client.server_stats c with
      | Ok reply -> cluster_counter reply "server.shed"
      | Error _ -> 0)

(* The local expectation every served history is compared against:
   the same stream replayed in-process under the daemon's default
   session spec (HillClimb panel, 1 MiB buffer) — the pattern proven
   by [wire_replay_check] above. *)
let cluster_expected_history w =
  let config =
    Vp_online.Service.default_config ~jobs:1 ~disk:online_disk
      ~panel:[ Vp_algorithms.Hillclimb.algorithm ]
      ()
  in
  (Vp_online.Replay.run ~config w).Vp_online.Replay.history

let cluster_entry ~phase ~shards ~clients ~sessions ~requests ~shed ~errors
    ~seconds ~handoffs ~handoff_seconds ~restarts ~violations =
  {
    Vp_observe.Bench_report.phase;
    shards;
    clients;
    sessions;
    requests;
    shed;
    errors;
    seconds;
    throughput_rps =
      (if seconds > 0.0 then float_of_int requests /. seconds else 0.0);
    shed_rate =
      (let total = requests + shed in
       if total > 0 then float_of_int shed /. float_of_int total else 0.0);
    latency_p50_ms = quantile_ms ~phase 0.5;
    latency_p99_ms = quantile_ms ~phase 0.99;
    handoffs;
    handoff_seconds;
    restarts;
    determinism_violations = violations;
  }

(* One request, timed into the phase histogram; [Ok]s count, [Error]s
   are the caller's to score. *)
let cluster_timed hist ok errors f =
  let t0 = Unix.gettimeofday () in
  match f () with
  | Ok v ->
      incr ok;
      Vp_observe.Stats.observe hist ((Unix.gettimeofday () -. t0) *. 1000.0);
      Some v
  | Error _ ->
      incr errors;
      None

let cluster_closed_loop () =
  let phase = "closed-loop" in
  let hist = Vp_observe.Stats.histogram ("server.bench." ^ phase) in
  let w =
    Vp_benchmarks.Synthetic.workload ~seed:21L ~rows:50_000 ~attributes:8
      ~clusters:3 ~queries:3 ~scatter:0.05 ()
  in
  let table = Workload.table w in
  let queries = Array.to_list (Workload.queries w) in
  let expected = cluster_expected_history w in
  let sessions = 10_000 in
  let per = sessions / cluster_clients in
  let shed0 = counter_now "router.shed" in
  let restarts0 = counter_now "router.restarts" in
  with_cluster ~tag:"cluster-closed" ~shards:cluster_shards (fun _r port ->
      let worker k () =
        let c =
          Vp_client.Client.create ~port ~retry_seed:(Int64.of_int k) ()
        in
        Fun.protect
          ~finally:(fun () -> Vp_client.Client.close c)
          (fun () ->
            let ok = ref 0 and errors = ref 0 and violations = ref 0 in
            for s = k * per to ((k + 1) * per) - 1 do
              let session = Printf.sprintf "c%05d" s in
              match
                cluster_timed hist ok errors (fun () ->
                    Vp_client.Client.open_session c ~session ~buffer_mb:1.0
                      table)
              with
              | None -> ()
              | Some _opened -> (
                  List.iteri
                    (fun j q ->
                      ignore
                        (cluster_timed hist ok errors (fun () ->
                             Vp_client.Client.ingest ~seq:(j + 1) c ~session
                               table q)))
                    queries;
                  match
                    cluster_timed hist ok errors (fun () ->
                        Vp_client.Client.close_session c ~session)
                  with
                  | Some h when String.equal h expected -> ()
                  | Some _ -> incr violations
                  | None -> ())
            done;
            (!ok, !errors, !violations))
      in
      let outcomes, seconds =
        time (fun () ->
            List.map Domain.join
              (List.init cluster_clients (fun k -> Domain.spawn (worker k))))
      in
      let shard_shed = cluster_fleet_shed port in
      let requests = List.fold_left (fun a (ok, _, _) -> a + ok) 0 outcomes in
      let errors = List.fold_left (fun a (_, e, _) -> a + e) 0 outcomes in
      let violations =
        List.fold_left (fun a (_, _, v) -> a + v) 0 outcomes
      in
      let shed = counter_now "router.shed" - shed0 + shard_shed in
      let restarts = counter_now "router.restarts" - restarts0 in
      let e =
        cluster_entry ~phase ~shards:cluster_shards ~clients:cluster_clients
          ~sessions ~requests ~shed ~errors ~seconds ~handoffs:0
          ~handoff_seconds:0.0 ~restarts ~violations
      in
      Printf.printf
        "  %-12s %d shards, %d clients, %d sessions: %d ok, %d errors, %d \
         shed, %6.2f s (%8.1f req/s, p50 %.1f ms, p99 %.1f ms)\n\
         %!"
        phase cluster_shards cluster_clients sessions requests errors shed
        seconds e.Vp_observe.Bench_report.throughput_rps
        e.Vp_observe.Bench_report.latency_p50_ms
        e.Vp_observe.Bench_report.latency_p99_ms;
      e)

let cluster_handoff () =
  let phase = "handoff" in
  let hist = Vp_observe.Stats.histogram ("server.bench." ^ phase) in
  let w =
    Vp_benchmarks.Synthetic.drift_workload ~seed:22L ~attributes:8 ~clusters:3
      ~rows:50_000 ~queries:50 ~scatter:0.05 ~drift_at:0.5 ()
  in
  let table = Workload.table w in
  let queries = Array.to_list (Workload.queries w) in
  let half = List.length queries / 2 in
  let expected = cluster_expected_history w in
  let sessions = 48 in
  let per = sessions / cluster_clients in
  let shed0 = counter_now "router.shed" in
  let restarts0 = counter_now "router.restarts" in
  with_cluster ~tag:"cluster-handoff" ~shards:cluster_shards (fun r port ->
      (* Workers bump this once their sessions pass the halfway mark;
         the main thread then changes the ring under live traffic.
         Workers hold their sessions open until [handoff_done] so every
         session in the ring's deterministic moving set is still
         resident when the handoff runs — otherwise the moved count
         (and the handoff cost it prices) depends on worker speed. *)
      let at_half = Atomic.make 0 in
      let handoff_done = Atomic.make false in
      let worker k () =
        let ok = ref 0 and errors = ref 0 and violations = ref 0 in
        let mine =
          List.init per (fun i -> Printf.sprintf "h%03d" ((k * per) + i))
        in
        let with_conn seed f =
          let c =
            Vp_client.Client.create ~port ~retry_seed:(Int64.of_int seed) ()
          in
          Fun.protect ~finally:(fun () -> Vp_client.Client.close c) (fun () -> f c)
        in
        with_conn
          (100 + k)
          (fun c ->
            List.iter
              (fun session ->
                ignore
                  (cluster_timed hist ok errors (fun () ->
                       Vp_client.Client.open_session c ~session ~buffer_mb:1.0
                         table)))
              mine;
            List.iteri
              (fun j q ->
                if j = half then Atomic.incr at_half;
                List.iter
                  (fun session ->
                    ignore
                      (cluster_timed hist ok errors (fun () ->
                           Vp_client.Client.ingest ~seq:(j + 1) c ~session
                             table q)))
                  mine)
              queries);
        (* The connection is gone (freeing a router slot for the control
           client and the slower workers) but the sessions are not: they
           live on the shards until closed. Wait out the ring change so
           every session in its deterministic moving set is still
           resident when the handoff runs, then close over a fresh
           connection. *)
        while not (Atomic.get handoff_done) do
          Unix.sleepf 0.002
        done;
        with_conn
          (200 + k)
          (fun c ->
            List.iter
              (fun session ->
                match
                  cluster_timed hist ok errors (fun () ->
                      Vp_client.Client.close_session c ~session)
                with
                | Some h when String.equal h expected -> ()
                | Some _ -> incr violations
                | None -> ())
              mine);
        (!ok, !errors, !violations)
      in
      let t0 = Unix.gettimeofday () in
      let domains =
        List.init cluster_clients (fun k -> Domain.spawn (worker k))
      in
      (* Ring change under load: wait for every worker to reach the
         halfway mark, then add a shard. The request returns once every
         moving session has been spilled, renamed and adopted — its
         duration IS the handoff cost. *)
      while Atomic.get at_half < cluster_clients do
        Unix.sleepf 0.005
      done;
      let moved, handoff_seconds =
        let c = Vp_client.Client.create ~port () in
        Fun.protect
          ~finally:(fun () ->
            Atomic.set handoff_done true;
            Vp_client.Client.close c)
          (fun () ->
            let reply, dt =
              time (fun () ->
                  Vp_client.Client.request_retry c
                    (Vp_observe.Json.Obj
                       [ ("op", Vp_observe.Json.String "cluster_add") ]))
            in
            match reply with
            | Ok reply
              when Vp_server.Protocol.reply_status reply = "ok" ->
                ( Option.value ~default:0
                    (Vp_server.Protocol.int_field "moved" reply),
                  dt )
            | Ok _ | Error _ -> (-1, dt))
      in
      let outcomes = List.map Domain.join domains in
      let seconds = Unix.gettimeofday () -. t0 in
      let shard_shed = cluster_fleet_shed port in
      let requests = List.fold_left (fun a (ok, _, _) -> a + ok) 0 outcomes in
      let errors =
        List.fold_left (fun a (_, e, _) -> a + e) 0 outcomes
        + if moved < 0 then 1 else 0
      in
      let violations =
        List.fold_left (fun a (_, _, v) -> a + v) 0 outcomes
      in
      let shed = counter_now "router.shed" - shed0 + shard_shed in
      let restarts = counter_now "router.restarts" - restarts0 in
      let e =
        cluster_entry ~phase ~shards:(Vp_router.Router.shard_count r)
          ~clients:cluster_clients ~sessions ~requests ~shed ~errors ~seconds
          ~handoffs:(max moved 0) ~handoff_seconds ~restarts ~violations
      in
      Printf.printf
        "  %-12s shard added mid-stream (now %d): %d sessions, %d moved in \
         %.3f s, %d ok, %d errors, %d shed, histories %s\n\
         %!"
        phase
        (Vp_router.Router.shard_count r)
        sessions (max moved 0) handoff_seconds requests errors shed
        (if violations = 0 then "identical" else "DIVERGED");
      e)

let cluster_section () =
  Vp_observe.Switch.(raise_to Stats);
  print_string
    (Vp_experiments.Common.heading
       "Sharded cluster: consistent-hash router, closed loop + handoff");
  let closed = cluster_closed_loop () in
  let handoff = cluster_handoff () in
  let violations =
    closed.Vp_observe.Bench_report.determinism_violations
    + handoff.Vp_observe.Bench_report.determinism_violations
  in
  Printf.printf "  determinism violations: %d\n%!" violations;
  if violations > 0 then exit 1;
  [ closed; handoff ]

(* --- Racing portfolio benchmark (--mode portfolio): the meta-
   partitioner against every single entrant under one equal,
   deterministic step budget per table. The gate is the portfolio's
   construction guarantee — each entrant races on a [Budget.spawn] of
   the request budget, i.e. exactly a solo run's allowance, and the
   winner is the cheapest response — so the race's layout must never
   cost more than the best single entrant's. Wall time is reported but
   not gated (steps are the deterministic currency). --- *)

let portfolio_steps = 20_000

let portfolio_run algo w =
  let disk = Vp_experiments.Common.disk in
  let oracle = Vp_cost.Io_model.oracle disk w in
  let delta = Vp_cost.Io_model.Incremental.factory disk w in
  let budget = Vp_robust.Budget.create ~max_steps:portfolio_steps () in
  Partitioner.exec algo
    (Partitioner.Request.make ~budget ~delta ~cost:oracle w)

let portfolio_section () =
  Vp_observe.Switch.(raise_to Stats);
  print_string
    (Vp_experiments.Common.heading
       "Racing portfolio: never worse than the best single entrant");
  let disk = Vp_experiments.Common.disk in
  let workloads = Vp_benchmarks.Tpch.workloads ~sf:Vp_experiments.Common.sf in
  let singles =
    Vp_algorithms.Registry.with_brute_force
      ~brute_force:(Vp_experiments.Common.brute_force disk) ()
    @ [
        Vp_algorithms.Ilp.with_bound disk;
        Vp_algorithms.Hypergraph.algorithm;
      ]
    @ Vp_algorithms.Registry.baselines
  in
  let race = Vp_algorithms.Portfolio.with_bound disk in
  let entries =
    List.map
      (fun w ->
        let table = Table.name (Workload.table w) in
        let r, race_seconds = time (fun () -> portfolio_run race w) in
        let entrants = r.Partitioner.Response.provenance.entrants in
        let winner =
          match
            List.find_opt
              (fun (e : Partitioner.Response.entrant) -> e.winner)
              entrants
          with
          | Some e -> e.Partitioner.Response.entrant
          | None -> "-"
        in
        let timed_out =
          List.length
            (List.filter
               (fun (e : Partitioner.Response.entrant) ->
                 match e.entrant_status with
                 | Partitioner.Timed_out _ -> true
                 | Partitioner.Complete -> false)
               entrants)
        in
        let best_single, best_single_cost =
          List.fold_left
            (fun acc (a : Partitioner.t) ->
              let r = portfolio_run a w in
              match acc with
              | Some (_, c) when c <= r.Partitioner.Response.cost -> acc
              | _ -> Some (a.Partitioner.name, r.Partitioner.Response.cost))
            None singles
          |> Option.get
        in
        let e =
          {
            Vp_observe.Bench_report.table;
            winner;
            portfolio_cost = r.Partitioner.Response.cost;
            best_single;
            best_single_cost;
            entrants_run = List.length entrants;
            timed_out;
            race_seconds;
            never_worse =
              r.Partitioner.Response.cost <= best_single_cost +. 1e-9;
          }
        in
        Printf.printf
          "  %-10s winner %-10s cost %10.3f  best single %-10s %10.3f  \
           (%d entrants, %d timed out, %.3f s)  %s\n\
           %!"
          table winner e.Vp_observe.Bench_report.portfolio_cost best_single
          best_single_cost e.Vp_observe.Bench_report.entrants_run timed_out
          race_seconds
          (if e.Vp_observe.Bench_report.never_worse then "ok" else "WORSE");
        e)
      workloads
  in
  let worse =
    List.filter
      (fun (e : Vp_observe.Bench_report.portfolio_entry) -> not e.never_worse)
      entries
  in
  Printf.printf "  never-worse violations: %d\n%!" (List.length worse);
  if worse <> [] then exit 1;
  entries

(* --- Streaming-substrate benchmark (--mode scale): the chunked
   generator, the out-of-core storage simulation and the per-partition
   format selector at a scale factor the materializing path could not
   hold. [Gc.quick_stat ()].top_heap_words is a process-wide high-water
   mark, so the dispatch runs this section before anything else builds a
   table: the <= 512 MiB gate taken after the SF100 phases then really
   bounds the streaming pipeline's working set. The small-SF identity
   phase (streamed vs materialized, device stats byte for byte) and the
   format-selection phase follow once the gate value is captured. --- *)

let scale_sf = 100.0

let scale_identity_sf = 0.1

let scale_heap_gate_mb = 512.0

let peak_heap_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words
  *. float_of_int (Sys.word_size / 8)
  /. (1024.0 *. 1024.0)

let zero_io =
  { Vp_storage.Device.elapsed = 0.0; seeks = 0; blocks_read = 0;
    blocks_written = 0 }

let scale_entry ~phase ~table ~sf ~rows ~jobs ~seconds ?(io = zero_io)
    ?(rows_per_sec = 0.0) ~identical ?(cost_plain = 0.0)
    ?(cost_chosen = 0.0) ~detail () =
  {
    Vp_observe.Bench_report.phase;
    table;
    sf;
    rows;
    jobs;
    seconds;
    rows_per_sec;
    peak_heap_mb = peak_heap_mb ();
    io_elapsed = io.Vp_storage.Device.elapsed;
    seeks = io.Vp_storage.Device.seeks;
    blocks_read = io.Vp_storage.Device.blocks_read;
    blocks_written = io.Vp_storage.Device.blocks_written;
    identical;
    cost_plain;
    cost_chosen;
    detail;
  }

(* A bounded prefix of the SF100 lineitem stream, timed for throughput;
   then the last chunk by index — random access near row 600M costs the
   same O(chunk) as chunk 0, the property the pool fan-out builds on.
   Determinism cross-checks: a second generator with the same seed
   reproduces both ends of the stream, and the full SF0.1 digest is
   bitwise equal at jobs 1 and jobs 4. *)
let scale_generate () =
  let gen = Vp_datagen.Rowgen.create () in
  let big = Vp_benchmarks.Tpch.table ~sf:scale_sf "lineitem" in
  let source = Vp_stream.Source.of_rowgen gen big in
  let chunks = Vp_stream.Source.chunk_count source in
  let prefix = 4 in
  let prefix_rows, seconds =
    time (fun () ->
        let rows = ref 0 in
        for c = 0 to prefix - 1 do
          rows := !rows + Array.length (Vp_stream.Source.chunk source c)
        done;
        !rows)
  in
  let last, last_seconds =
    time (fun () -> Vp_stream.Source.chunk source (chunks - 1))
  in
  let source2 =
    Vp_stream.Source.of_rowgen (Vp_datagen.Rowgen.create ()) big
  in
  let replayed =
    Vp_stream.Source.chunk source2 0 = Vp_stream.Source.chunk source 0
    && Vp_stream.Source.chunk source2 (chunks - 1) = last
  in
  let small = Vp_benchmarks.Tpch.table ~sf:scale_identity_sf "lineitem" in
  let digest_at jobs =
    Vp_parallel.Pool.with_pool ~jobs @@ fun pool ->
    Vp_stream.Source.digest ~pool (Vp_stream.Source.of_rowgen gen small)
  in
  let identical = replayed && digest_at 1 = digest_at 4 in
  let rows_per_sec =
    if seconds > 0.0 then float_of_int prefix_rows /. seconds else 0.0
  in
  Printf.printf
    "  generate   %d of %d chunks in %.2f s (%.0f rows/s), tail chunk in \
     %.3f s, jobs 1 = jobs 4 %s\n\
     %!"
    prefix chunks seconds rows_per_sec last_seconds
    (if identical then "ok" else "DIVERGED");
  scale_entry ~phase:"generate" ~table:"lineitem" ~sf:scale_sf
    ~rows:prefix_rows ~jobs:4 ~seconds:(seconds +. last_seconds)
    ~rows_per_sec ~identical
    ~detail:
      (Printf.sprintf "%d-chunk prefix + O(chunk) access to chunk %d" prefix
         (chunks - 1))
    ()

(* Row-to-column transform of SF100 lineitem: pure block-geometry
   accounting (the virtual fast path), so it finishes in seconds without
   touching 90 GB of rows — and a second run replays the identical
   request sequence. *)
let scale_transform () =
  let disk = Vp_experiments.Common.disk in
  let gen = Vp_datagen.Rowgen.create () in
  let table = Vp_benchmarks.Tpch.table ~sf:scale_sf "lineitem" in
  let source = Vp_stream.Source.of_rowgen gen table in
  let layout = Partitioning.column (Table.attribute_count table) in
  let r, seconds =
    time (fun () -> Vp_storage.Creation.transform ~disk table source layout)
  in
  let r2 = Vp_storage.Creation.transform ~disk table source layout in
  let identical = r = r2 in
  Printf.printf
    "  transform  %d -> %d blocks, %.1f simulated s in %.2f wall s  %s\n%!"
    r.Vp_storage.Creation.source_blocks r.Vp_storage.Creation.written_blocks
    r.Vp_storage.Creation.io.Vp_storage.Device.elapsed seconds
    (if identical then "ok" else "DIVERGED");
  scale_entry ~phase:"transform" ~table:"lineitem" ~sf:scale_sf
    ~rows:(Table.row_count table) ~jobs:1 ~seconds
    ~io:r.Vp_storage.Creation.io ~identical
    ~detail:
      (Printf.sprintf "%d source blocks -> %d partition blocks"
         r.Vp_storage.Creation.source_blocks
         r.Vp_storage.Creation.written_blocks)
    ()

(* Build SF100 lineitem as virtual (accounting-only) partition files and
   run the first lineitem query: the executor replays the materialized
   scan's refill schedule without decoding, so the whole thing stays in a
   fixed working set. *)
let scale_scan () =
  let disk = Vp_experiments.Common.disk in
  let gen = Vp_datagen.Rowgen.create () in
  let table = Vp_benchmarks.Tpch.table ~sf:scale_sf "lineitem" in
  let w = Vp_benchmarks.Tpch.workload ~sf:scale_sf "lineitem" in
  let source = Vp_stream.Source.of_rowgen gen table in
  let layout = Partitioning.column (Table.attribute_count table) in
  let db, build_seconds =
    time (fun () ->
        Vp_storage.Database.build ~retain:false ~disk
          ~codec:Vp_storage.Codec.Plain table source layout)
  in
  let q = (Workload.queries w).(0) in
  let r, scan_seconds =
    time (fun () -> Vp_storage.Database.run_query db q)
  in
  let r2 = Vp_storage.Database.run_query db q in
  let identical =
    r = r2 && r.Vp_storage.Database.checksum = 0
    && r.Vp_storage.Database.rows_out = Table.row_count table
  in
  Printf.printf
    "  scan       Q1 over %d rows: %d partitions, %d blocks, %.1f simulated \
     s in %.2f wall s  %s\n\
     %!"
    r.Vp_storage.Database.rows_out r.Vp_storage.Database.partitions_read
    r.Vp_storage.Database.io.Vp_storage.Device.blocks_read
    r.Vp_storage.Database.io.Vp_storage.Device.elapsed scan_seconds
    (if identical then "ok" else "DIVERGED");
  scale_entry ~phase:"scan" ~table:"lineitem" ~sf:scale_sf
    ~rows:r.Vp_storage.Database.rows_out ~jobs:1
    ~seconds:(build_seconds +. scan_seconds) ~io:r.Vp_storage.Database.io
    ~identical
    ~detail:
      (Printf.sprintf "virtual replay, %d partitions read"
         r.Vp_storage.Database.partitions_read)
    ()

(* The identity phase at SF 0.1: the streamed and the materialized paths
   must agree byte for byte — stream digest vs materialized digest,
   transform accounting, build accounting, and a query's device stats
   under the virtual executor vs the decoding one. *)
let scale_identity () =
  let disk = Vp_experiments.Common.disk in
  let gen = Vp_datagen.Rowgen.create () in
  let table = Vp_benchmarks.Tpch.table ~sf:scale_identity_sf "lineitem" in
  let w = Vp_benchmarks.Tpch.workload ~sf:scale_identity_sf "lineitem" in
  let streamed = Vp_stream.Source.of_rowgen gen table in
  let layout = Partitioning.column (Table.attribute_count table) in
  let rows, seconds = time (fun () -> Vp_datagen.Rowgen.rows gen table) in
  let materialized = Vp_stream.Source.of_rows table rows in
  let digest_ok =
    Vp_stream.Source.digest streamed = Vp_stream.Source.digest materialized
  in
  let t_s = Vp_storage.Creation.transform ~disk table streamed layout in
  let t_m = Vp_storage.Creation.transform ~disk table materialized layout in
  let db_v =
    Vp_storage.Database.build ~retain:false ~disk
      ~codec:Vp_storage.Codec.Plain table streamed layout
  in
  let db_m =
    Vp_storage.Database.build ~disk ~codec:Vp_storage.Codec.Plain table
      materialized layout
  in
  let q = (Workload.queries w).(0) in
  let rv = Vp_storage.Database.run_query db_v q in
  let rm = Vp_storage.Database.run_query db_m q in
  let identical =
    digest_ok && t_s = t_m
    && Vp_storage.Database.load_stats db_v
       = Vp_storage.Database.load_stats db_m
    && rv.Vp_storage.Database.io = rm.Vp_storage.Database.io
    && rv.Vp_storage.Database.values_decoded
       = rm.Vp_storage.Database.values_decoded
    && rv.Vp_storage.Database.checksum = 0
  in
  Printf.printf
    "  identity   %d rows: digests %s, transform %s, load %s, query io %s\n%!"
    (Array.length rows)
    (if digest_ok then "equal" else "DIVERGED")
    (if t_s = t_m then "equal" else "DIVERGED")
    (if
       Vp_storage.Database.load_stats db_v
       = Vp_storage.Database.load_stats db_m
     then "equal"
     else "DIVERGED")
    (if rv.Vp_storage.Database.io = rm.Vp_storage.Database.io then "equal"
     else "DIVERGED");
  scale_entry ~phase:"identity" ~table:"lineitem" ~sf:scale_identity_sf
    ~rows:(Array.length rows) ~jobs:1 ~seconds
    ~io:rm.Vp_storage.Database.io ~identical
    ~detail:"streamed vs materialized: digest, transform, build, query io"
    ()

(* Per-partition format selection over the TPC-H line-up: the chosen
   vector must never cost more than all-Plain (choose starts there and
   keeps strict improvements only). *)
let scale_formats () =
  let disk = Vp_experiments.Common.disk in
  let workloads = Vp_benchmarks.Tpch.workloads ~sf:Vp_experiments.Common.sf in
  List.map
    (fun w ->
      let table = Workload.table w in
      let layout = Partitioning.column (Table.attribute_count table) in
      let stats = Vp_storage.Format.schema_stats table in
      let chosen, seconds =
        time (fun () -> Vp_storage.Format.choose disk table w layout stats)
      in
      let plain = Vp_storage.Format.plain table layout in
      let cost_plain =
        Vp_storage.Format.scan_cost disk table w layout plain
      in
      let cost_chosen =
        Vp_storage.Format.scan_cost disk table w layout chosen
      in
      let identical = cost_chosen <= cost_plain +. 1e-9 in
      Printf.printf
        "  formats    %-10s plain %12.3f -> chosen %12.3f  %s\n%!"
        (Table.name table) cost_plain cost_chosen
        (if identical then "ok" else "WORSE");
      scale_entry ~phase:"formats" ~table:(Table.name table)
        ~sf:Vp_experiments.Common.sf ~rows:(Table.row_count table) ~jobs:1
        ~seconds ~identical ~cost_plain ~cost_chosen
        ~detail:(Vp_storage.Format.to_string chosen) ())
    workloads

let scale_section () =
  Vp_observe.Switch.(raise_to Stats);
  print_string
    (Vp_experiments.Common.heading
       "Streaming substrate: constant-memory SF100, identity, formats");
  let generate = scale_generate () in
  let transform = scale_transform () in
  let scan = scale_scan () in
  let sf100_peak = scan.Vp_observe.Bench_report.peak_heap_mb in
  Printf.printf "  SF100 peak heap: %.1f MiB (gate %.0f MiB)\n%!" sf100_peak
    scale_heap_gate_mb;
  let identity = scale_identity () in
  let formats = scale_formats () in
  let entries = generate :: transform :: scan :: identity :: formats in
  let bad =
    List.filter
      (fun (e : Vp_observe.Bench_report.scale_entry) -> not e.identical)
      entries
  in
  List.iter
    (fun (e : Vp_observe.Bench_report.scale_entry) ->
      Printf.printf "  VIOLATION in phase %s (%s)\n%!" e.phase e.table)
    bad;
  if sf100_peak > scale_heap_gate_mb then begin
    Printf.printf "  HEAP GATE EXCEEDED: %.1f MiB > %.0f MiB\n%!" sf100_peak
      scale_heap_gate_mb;
    exit 1
  end;
  if bad <> [] then exit 1;
  entries

(* --- machine-readable bench report (--json): every algorithm over the
   TPC-H line-up with counters on; its cache hits/misses are the
   search-memo counter deltas around its own runs. The counter snapshot
   merges everything the whole bench process recorded — including the
   sections that ran before this one — which is exactly what a trajectory
   point should capture. --- *)

let mode_name = function
  | `All -> "all"
  | `Experiments -> "experiments"
  | `Bechamel -> "bechamel"
  | `Parallel -> "parallel"
  | `Budget -> "budget"
  | `Online -> "online"
  | `Server -> "server"
  | `Oracle -> "oracle"
  | `Recovery -> "recovery"
  | `Cluster -> "cluster"
  | `Portfolio -> "portfolio"
  | `Scale -> "scale"
  | `Json -> "json"

let json_section ~mode ~jobs ~online ~server ~oracle ~recovery ~cluster
    ~portfolio ~scale path =
  Vp_observe.Switch.(raise_to Stats);
  let disk = Vp_experiments.Common.disk in
  let workloads = Vp_benchmarks.Tpch.workloads ~sf:Vp_experiments.Common.sf in
  let entries =
    List.map
      (fun (a : Partitioner.t) ->
        let ((opt, cost), wall), hits, misses =
          with_memo_counts (fun () ->
              time (fun () ->
                  List.fold_left
                    (fun (opt, cost) w ->
                      let r = Partitioner.exec a (default_request disk w) in
                      ( opt
                        +. r.Partitioner.Response.stats.Partitioner.elapsed_seconds,
                        cost +. r.Partitioner.Response.cost ))
                    (0.0, 0.0) workloads))
        in
        {
          Vp_observe.Bench_report.algorithm = a.Partitioner.name;
          wall_seconds = wall;
          optimization_seconds = opt;
          workload_cost = cost;
          cache_hits = hits;
          cache_misses = misses;
        })
      (Vp_experiments.Common.algorithms_with_baselines disk)
  in
  let snapshot = Vp_observe.Stats.snapshot () in
  let report =
    {
      Vp_observe.Bench_report.benchmark = "tpch";
      scale_factor = Vp_experiments.Common.sf;
      mode = mode_name mode;
      jobs;
      algorithms = entries;
      online;
      server;
      oracle;
      recovery;
      cluster;
      portfolio;
      scale;
      counters = snapshot.Vp_observe.Stats.counters;
      host = Vp_observe.Bench_report.current_host ();
    }
  in
  Vp_observe.Bench_report.write path report;
  Printf.printf
    "\nMachine-readable bench report (schema v%d, %d algorithms) written to \
     %s\n"
    Vp_observe.Bench_report.schema_version
    (List.length entries) path;
  flush stdout

(* --- argument parsing --- *)

let usage () =
  prerr_endline
    "usage: main.exe [--mode \
     all|experiments|bechamel|parallel|budget|online|server|oracle|recovery|cluster|portfolio|scale|json] \
     [--jobs N] [--json PATH]";
  exit 2

let parse_args () =
  let mode = ref `All and jobs = ref None and json = ref None in
  let rec go = function
    | [] -> ()
    | "--mode" :: m :: rest ->
        (mode :=
           match String.lowercase_ascii m with
           | "all" -> `All
           | "experiments" -> `Experiments
           | "bechamel" -> `Bechamel
           | "parallel" -> `Parallel
           | "budget" -> `Budget
           | "online" -> `Online
           | "server" -> `Server
           | "oracle" -> `Oracle
           | "recovery" -> `Recovery
           | "cluster" -> `Cluster
           | "portfolio" -> `Portfolio
           | "scale" -> `Scale
           | "json" -> `Json
           | _ -> usage ());
        go rest
    | "--jobs" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n when n >= 1 ->
            jobs := Some n;
            go rest
        | _ -> usage ())
    | "--json" :: path :: rest ->
        json := Some path;
        go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  let jobs =
    match !jobs with Some n -> n | None -> Vp_parallel.Pool.default_jobs ()
  in
  let json =
    match (!json, !mode) with
    | Some path, _ -> Some path
    | None, (`Json | `Online | `Server | `Oracle | `Recovery | `Cluster
            | `Portfolio | `Scale) ->
        Some
          (Printf.sprintf "BENCH_%d.json"
             Vp_observe.Bench_report.schema_version)
    | None, _ -> None
  in
  (!mode, jobs, json)

let () =
  let mode, jobs, json = parse_args () in
  (* Counters on from the start when a JSON report was requested, so the
     snapshot covers every section of this run. *)
  if json <> None then Vp_observe.Switch.(raise_to Stats);
  print_endline
    "Reproduction of 'A Comparison of Knives for Bread Slicing' (VLDB 2013)";
  print_endline
    (Printf.sprintf
       "Unified setting: TPC-H SF %g, %s"
       Vp_experiments.Common.sf
       (Format.asprintf "%a" Vp_cost.Disk.pp Vp_experiments.Common.disk));
  let online, server, oracle, recovery, cluster, portfolio, scale =
    match mode with
    | `All ->
        run_experiments ();
        if not skip_slow then bechamel_section ();
        ([], [], [], [], [], [], [])
    | `Experiments ->
        run_experiments ();
        ([], [], [], [], [], [], [])
    | `Bechamel ->
        bechamel_section ();
        ([], [], [], [], [], [], [])
    | `Parallel ->
        parallel_section jobs;
        ([], [], [], [], [], [], [])
    | `Budget ->
        budget_section ();
        ([], [], [], [], [], [], [])
    | `Online -> (online_section ~jobs, [], [], [], [], [], [])
    | `Server -> ([], server_section (), [], [], [], [], [])
    | `Oracle -> ([], [], oracle_section (), [], [], [], [])
    | `Recovery -> ([], [], [], recovery_section (), [], [], [])
    | `Cluster -> ([], [], [], [], cluster_section (), [], [])
    | `Portfolio -> ([], [], [], [], [], portfolio_section (), [])
    | `Scale ->
        (* Must be the first thing the process does that touches tables:
           the peak-heap gate reads a process-wide high-water mark. *)
        ([], [], [], [], [], [], scale_section ())
    | `Json -> ([], [], [], [], [], [], [])
  in
  (match json with
  | Some path ->
      json_section ~mode ~jobs ~online ~server ~oracle ~recovery ~cluster
        ~portfolio ~scale path
  | None -> ());
  print_endline "\nAll experiments completed."
