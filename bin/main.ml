(* vp — the command-line front end.

   Subcommands:
     vp partition  -b tpch -t customer -a hillclimb   run one algorithm
     vp compare    -b tpch [-t lineitem]              all algorithms side by side
     vp layouts    -b tpch                            Figure 14-style grids
     vp experiment fig3                               one paper experiment
     vp simulate   -t customer --codec varlen         storage-simulator run
     vp serve      -p 7171 -j 4                       layout server (TCP daemon)
     vp cluster    --shards 3 --data-dir DIR          sharded serving cluster
     vp client     --ping | --script FILE             talk to a running server
     vp list                                          algorithms + experiments *)

(* Must run before anything looks at argv: when this binary was spawned
   by a cluster router as a shard worker, it becomes a shard daemon
   here and never returns. *)
let () = Vp_router.Worker.maybe_run ()

open Vp_core
open Cmdliner

(* --- shared options --- *)

let benchmark_conv = Arg.enum [ ("tpch", `Tpch); ("ssb", `Ssb) ]

let benchmark_arg =
  Arg.(
    value
    & opt benchmark_conv `Tpch
    & info [ "b"; "benchmark" ] ~docv:"BENCH" ~doc:"Benchmark: tpch or ssb.")

let sf_arg =
  Arg.(
    value
    & opt float 10.0
    & info [ "sf"; "scale-factor" ] ~docv:"SF" ~doc:"TPC-H/SSB scale factor.")

let buffer_mb_arg =
  Arg.(
    value
    & opt float 8.0
    & info [ "buffer" ] ~docv:"MB" ~doc:"Database I/O buffer size in MiB.")

let model_arg =
  Arg.(
    value
    & opt (enum [ ("hdd", `Hdd); ("mm", `Mm) ]) `Hdd
    & info [ "model" ] ~docv:"MODEL"
        ~doc:"Cost model: hdd (disk I/O) or mm (main-memory).")

let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | Some _ -> Error (`Msg "must be >= 1")
    | None -> Error (`Msg (Printf.sprintf "invalid value %S, expected an integer" s))
  in
  Cmdliner.Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let jobs_arg =
  Arg.(
    value
    & opt (some positive_int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for parallel execution (default: available cores, \
           or \\$(b,VP_JOBS)). Results are deterministic for every N.")

(* Wall-clock durations: "5" and "5s" are seconds, "500ms" milliseconds,
   "2m" minutes. *)
let duration =
  let parse s =
    let s = String.trim s in
    let split suffix =
      let ls = String.length s and lx = String.length suffix in
      if ls > lx && String.sub s (ls - lx) lx = suffix then
        Some (String.sub s 0 (ls - lx))
      else None
    in
    let number, scale =
      match split "ms" with
      | Some v -> (v, 0.001)
      | None -> (
          match split "s" with
          | Some v -> (v, 1.0)
          | None -> (
              match split "m" with Some v -> (v, 60.0) | None -> (s, 1.0)))
    in
    match float_of_string_opt number with
    | Some v when v > 0.0 -> Ok (v *. scale)
    | Some _ -> Error (`Msg "must be a positive duration")
    | None ->
        Error
          (`Msg
            (Printf.sprintf
               "invalid duration %S, expected e.g. 5, 5s, 500ms or 2m" s))
  in
  Cmdliner.Arg.conv ~docv:"DURATION"
    (parse, fun ppf v -> Format.fprintf ppf "%gs" v)

let jobs_of = function
  | Some n -> n
  | None -> Vp_parallel.Pool.default_jobs ()

(* Every command's request, built by the chosen cost model. *)
let request_of model disk w =
  match model with
  | `Hdd -> Vp_cost.Io_model.request disk w
  | `Mm -> Vp_cost.Memory_model.request Vp_cost.Memory_model.default w

let table_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "t"; "table" ] ~docv:"TABLE" ~doc:"Table name (default: all).")

let disk_of buffer_mb =
  Vp_cost.Disk.with_buffer_size Vp_cost.Disk.default
    (Vp_cost.Disk.mb buffer_mb)

let workloads_of benchmark sf table =
  let all =
    match benchmark with
    | `Tpch -> Vp_benchmarks.Tpch.workloads ~sf
    | `Ssb -> Vp_benchmarks.Ssb.workloads ~sf
  in
  match table with
  | None -> all
  | Some name -> (
      match
        List.find_opt (fun w -> Table.name (Workload.table w) = name) all
      with
      | Some w -> [ w ]
      | None ->
          Fmt.failwith "unknown table %S (try: %s)" name
            (String.concat ", "
               (List.map (fun w -> Table.name (Workload.table w)) all)))

(* The disk-aware spellings: when the profile is known, BruteForce and
   ILP get the I/O pruning bound and the portfolio gets the pmv cost
   floor that enables early cancellation. *)
let algorithm_of disk name =
  match String.lowercase_ascii name with
  | "bruteforce" -> Vp_experiments.Common.brute_force disk
  | "ilp" -> Vp_algorithms.Ilp.with_bound disk
  | "portfolio" -> Vp_algorithms.Portfolio.with_bound disk
  | _ -> (
    match Vp_algorithms.Registry.find_opt name with
    | Some a -> a
    | None ->
        Fmt.failwith "unknown algorithm %S (try: %s)" name
          (String.concat ", " Vp_algorithms.Registry.names))

(* --- vp partition --- *)

let partition_cmd =
  let algo_arg =
    Arg.(
      value
      & opt string "HillClimb"
      & info [ "a"; "algorithm" ] ~docv:"ALGO" ~doc:"Algorithm name.")
  in
  let run benchmark sf buffer_mb table algo_name =
    let disk = disk_of buffer_mb in
    let algo = algorithm_of disk algo_name in
    List.iter
      (fun w ->
        let tbl = Workload.table w in
        let r = Partitioner.exec algo (request_of `Hdd disk w) in
        Format.printf "@[<v>%s on %s (%d rows, %d queries):@,  layout: %a@,"
          algo.Partitioner.name (Table.name tbl) (Table.row_count tbl)
          (Workload.query_count w)
          (Partitioning.pp_named tbl)
          r.Partitioner.Response.partitioning;
        Format.printf
          "  cost: %.3f s   opt time: %s   cost calls: %d   candidates: %d@,"
          r.Partitioner.Response.cost
          (Vp_report.Ascii.seconds r.Partitioner.Response.stats.Partitioner.elapsed_seconds)
          r.Partitioner.Response.stats.Partitioner.cost_calls
          r.Partitioner.Response.stats.Partitioner.candidates;
        Format.printf "  unnecessary read: %s   avg joins: %s@,@]"
          (Vp_report.Ascii.percent
             (Vp_metrics.Measures.unnecessary_data_read disk w
                r.Partitioner.Response.partitioning))
          (Vp_report.Ascii.float3
             (Vp_metrics.Measures.avg_tuple_reconstruction_joins w
                r.Partitioner.Response.partitioning)))
      (workloads_of benchmark sf table);
    0
  in
  Cmd.v
    (Cmd.info "partition" ~doc:"Run one vertical partitioning algorithm")
    Term.(const run $ benchmark_arg $ sf_arg $ buffer_mb_arg $ table_arg
          $ algo_arg)

(* --- vp compare --- *)

let compare_cmd =
  let run benchmark sf buffer_mb table model jobs =
    let disk = disk_of buffer_mb in
    let workloads = workloads_of benchmark sf table in
    let algos =
      match model with
      | `Hdd -> Vp_experiments.Common.algorithms_with_baselines disk
      | `Mm ->
          (* BruteForce needs the matching admissible bound. *)
          Vp_algorithms.Registry.six
          @ [ Vp_experiments.Common.memory_brute_force ]
          @ Vp_algorithms.Registry.baselines
    in
    (* Fan the (algorithm x table) grid across worker domains; the pool
       returns results in submission order, so the rendered table is
       identical for every --jobs value. *)
    let runs =
      Vp_parallel.Pool.with_pool ~jobs:(jobs_of jobs) @@ fun pool ->
      Vp_parallel.Pool.map pool
        (Vp_experiments.Common.run_algorithm (request_of model disk) workloads)
        algos
    in
    let rows =
      List.map
        (fun (r : Vp_experiments.Common.algo_run) ->
          let entries = Vp_experiments.Common.entries_of r in
          [
            r.algo.Partitioner.name;
            Printf.sprintf "%.3f" r.total_cost;
            Vp_report.Ascii.seconds r.optimization_time;
            Vp_report.Ascii.percent
              (Vp_metrics.Measures.Aggregate.unnecessary_data_read disk entries);
            Vp_report.Ascii.float3
              (Vp_metrics.Measures.Aggregate.avg_tuple_reconstruction_joins
                 entries);
          ])
        runs
    in
    print_endline
      (Vp_report.Ascii.table
         ~title:
           (Printf.sprintf "All algorithms on %s (SF %g, buffer %g MiB)"
              (match table with Some t -> t | None -> "all tables")
              sf buffer_mb)
         ~headers:
           [ "Algorithm"; "Cost (s)"; "Opt time"; "Unnecessary"; "Avg joins" ]
         rows);
    0
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Compare all algorithms on a benchmark")
    Term.(const run $ benchmark_arg $ sf_arg $ buffer_mb_arg $ table_arg
          $ model_arg $ jobs_arg)

(* --- vp layouts --- *)

let layouts_cmd =
  let run () =
    print_endline (Vp_experiments.Exp_layouts.fig14 ());
    0
  in
  Cmd.v
    (Cmd.info "layouts" ~doc:"Print the computed layouts (Figure 14 grids)")
    Term.(const run $ const ())

(* --- vp experiment --- *)

let experiment_cmd =
  let ids_arg =
    Arg.(
      non_empty
      & pos_all string []
      & info [] ~docv:"ID"
          ~doc:"Experiment ids (see `vp list`), or `all` for the full catalogue.")
  in
  let run jobs timeout budget_steps resume stats trace ids =
    (* Raise (never lower) the instrumentation level so the flags compose
       with a VP_TRACE=1 environment. *)
    (match trace with
    | Some _ -> Vp_observe.Switch.(raise_to Trace)
    | None -> if stats then Vp_observe.Switch.(raise_to Stats));
    let expand id =
      if String.lowercase_ascii id = "all" then
        Ok Vp_experiments.Registry.all
      else
        match Vp_experiments.Registry.find_opt id with
        | Some e -> Ok [ e ]
        | None -> Error id
    in
    let experiments, unknown =
      List.fold_left
        (fun (es, bad) id ->
          match expand id with
          | Ok found -> (es @ found, bad)
          | Error id -> (es, bad @ [ id ]))
        ([], []) ids
    in
    match unknown with
    | _ :: _ ->
        Fmt.epr "unknown experiment%s %s; known: %s@."
          (if List.length unknown > 1 then "s" else "")
          (String.concat ", " (List.map (Printf.sprintf "%S") unknown))
          (String.concat ", " Vp_experiments.Registry.names);
        1
    | [] -> (
        (* Fan the experiments across domains; cells come back in
           submission order, so the printed report is deterministic. A
           failing or timed-out cell degrades to an annotated entry
           instead of aborting the sweep. *)
        let cells =
          Vp_observe.Trace.with_span ~name:"experiment" (fun () ->
              Vp_experiments.Sweep.run ~jobs:(jobs_of jobs)
                ?timeout_seconds:timeout ?budget_steps ?journal_path:resume
                ~fault:(Vp_robust.Fault.from_env ())
                experiments)
        in
        (match cells with
        | [ ({ status = Done; _ } as c) ] ->
            (* A single healthy cell prints bare, as it always has. *)
            print_endline c.output
        | _ -> print_string (Vp_experiments.Sweep.report cells));
        if stats then begin
          print_string
            (Vp_experiments.Common.heading "Observability: counter snapshot");
          print_string
            (Vp_observe.Stats.render (Vp_observe.Stats.snapshot ()))
        end;
        (match trace with
        | None -> ()
        | Some path ->
            let events = Vp_observe.Trace.events () in
            Vp_observe.Trace.write_chrome path events;
            let dropped = Vp_observe.Trace.dropped () in
            Fmt.epr
              "trace: %d span(s)%s written to %s — load it in \
               chrome://tracing or ui.perfetto.dev@."
              (List.length events)
              (if dropped > 0 then
                 Printf.sprintf " (%d older span(s) overwritten)" dropped
               else "")
              path);
        match Vp_experiments.Sweep.errors cells with
        | [] -> 0 (* timeouts are degraded output, not failures *)
        | failed ->
            Fmt.epr "%d of %d experiment cell%s failed: %s@."
              (List.length failed) (List.length cells)
              (if List.length failed > 1 then "s" else "")
              (String.concat ", "
                 (List.map
                    (fun (c : Vp_experiments.Sweep.cell) -> c.id)
                    failed));
            1)
  in
  let timeout_arg =
    Arg.(
      value
      & opt (some duration) None
      & info [ "timeout" ] ~docv:"DURATION"
          ~doc:
            "Wall-clock budget per experiment cell (e.g. 5s, 500ms, 2m). A \
             cell that runs out returns its best-so-far report, annotated \
             \\$(b,[TIMEOUT]).")
  in
  let budget_steps_arg =
    Arg.(
      value
      & opt (some positive_int) None
      & info [ "budget-steps" ] ~docv:"N"
          ~doc:
            "Search-step budget per experiment cell; like \\$(b,--timeout) \
             but deterministic.")
  in
  let resume_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "resume" ] ~docv:"FILE"
          ~doc:
            "Checkpoint journal: cells already recorded in FILE are replayed \
             from it, fresh cells are appended as they complete. Re-running \
             after a crash or timeout only computes what is missing.")
  in
  let stats_arg =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Record counters (cost-oracle calls, search-memo hits/misses, \
             pool tasks, budget steps) and print the merged snapshot after \
             the report. Same as running with \\$(b,VP_STATS=1).")
  in
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record tracing spans (experiment cells, pool tasks, algorithm \
             runs) and write a Chrome trace_event JSON to FILE, ready for \
             chrome://tracing. Implies \\$(b,--stats).")
  in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:"Regenerate paper tables/figures (one id, several, or `all`)")
    Term.(
      const run $ jobs_arg $ timeout_arg $ budget_steps_arg $ resume_arg
      $ stats_arg $ trace_arg $ ids_arg)

(* --- vp simulate --- *)

let simulate_cmd =
  let codec_conv =
    Arg.enum
      [
        ("plain", Vp_storage.Codec.Plain);
        ("dictionary", Vp_storage.Codec.Dictionary);
        ("varlen", Vp_storage.Codec.Varlen);
      ]
  in
  let codec_arg =
    Arg.(
      value
      & opt codec_conv Vp_storage.Codec.Plain
      & info [ "codec" ] ~docv:"CODEC" ~doc:"plain, dictionary or varlen.")
  in
  let algo_arg =
    Arg.(
      value
      & opt string "HillClimb"
      & info [ "a"; "algorithm" ]
          ~docv:"ALGO" ~doc:"Layout algorithm (or Row/Column).")
  in
  let run benchmark sf buffer_mb table codec algo_name =
    let disk = disk_of buffer_mb in
    let algo = algorithm_of disk algo_name in
    let gen = Vp_datagen.Rowgen.create () in
    List.iter
      (fun w ->
        let tbl = Workload.table w in
        let source = Vp_stream.Source.of_rowgen gen tbl in
        (* Past a few million rows, materializing blocks is pointless:
           build virtual (accounting-only) files and replay the scan
           schedule — identical I/O stats in fixed memory. *)
        let retain = Table.row_count tbl <= 2_000_000 in
        let layout =
          (Partitioner.exec algo (request_of `Hdd disk w))
            .Partitioner.Response.partitioning
        in
        let db =
          Vp_storage.Database.build ~retain ~disk ~codec tbl source layout
        in
        let results, total = Vp_storage.Database.run_workload db w in
        Format.printf "@[<v>%s via %s codec, layout %a@," (Table.name tbl)
          (Vp_storage.Codec.kind_name codec)
          (Partitioning.pp_named tbl) layout;
        Format.printf "  on disk: %s   simulated workload time: %.4f s@,"
          (Vp_report.Ascii.bytes (float_of_int (Vp_storage.Database.bytes_on_disk db)))
          total;
        List.iteri
          (fun i (r : Vp_storage.Database.query_result) ->
            Format.printf
              "  %-6s io=%.4fs cpu=%.5fs seeks=%d blocks=%d partitions=%d@,"
              (Query.name (Workload.query w i))
              r.io.Vp_storage.Device.elapsed r.cpu_seconds
              r.io.Vp_storage.Device.seeks r.io.Vp_storage.Device.blocks_read
              r.partitions_read)
          results;
        Format.printf "@]@.")
      (workloads_of benchmark sf table);
    0
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Generate data and execute the workload in the storage simulator")
    Term.(const run $ benchmark_arg $ sf_arg $ buffer_mb_arg $ table_arg
          $ codec_arg $ algo_arg)

(* --- vp datagen --- *)

let datagen_cmd =
  let chunk_rows_arg =
    Arg.(
      value
      & opt positive_int Vp_datagen.Rowgen.default_chunk_rows
      & info [ "chunk-rows" ] ~docv:"N" ~doc:"Rows per generated chunk.")
  in
  let seed_arg =
    Arg.(
      value & opt int64 42L
      & info [ "seed" ] ~docv:"SEED" ~doc:"Generator seed.")
  in
  let run benchmark sf table jobs chunk_rows seed =
    let gen = Vp_datagen.Rowgen.create ~seed () in
    let jobs = jobs_of jobs in
    Vp_parallel.Pool.with_pool ~jobs @@ fun pool ->
    List.iter
      (fun w ->
        let tbl = Workload.table w in
        let source = Vp_stream.Source.of_rowgen ~chunk_rows gen tbl in
        let t0 = Sys.time () in
        let digest = Vp_stream.Source.digest ~pool source in
        let dt = Sys.time () -. t0 in
        (* The digest line goes to stdout and is identical for every
           --jobs value (chunk digests combine in index order);
           throughput goes to stderr so outputs stay cmp-able. *)
        Printf.printf "%s rows=%d chunk_rows=%d digest=%08x\n"
          (Table.name tbl)
          (Vp_stream.Source.row_count source)
          chunk_rows digest;
        Printf.eprintf "# %s: %.2fs cpu, %.0f rows/s (jobs=%d)\n"
          (Table.name tbl) dt
          (float_of_int (Vp_stream.Source.row_count source) /. max 1e-9 dt)
          jobs)
      (workloads_of benchmark sf table);
    0
  in
  Cmd.v
    (Cmd.info "datagen"
       ~doc:
         "Stream-generate benchmark data in constant memory and print \
          per-table digests (stable across $(b,--jobs))")
    Term.(
      const run $ benchmark_arg $ sf_arg $ table_arg $ jobs_arg
      $ chunk_rows_arg $ seed_arg)

(* --- vp analyze --- *)

let analyze_cmd =
  let run benchmark sf table =
    List.iter
      (fun w ->
        print_string (Vp_report.Workload_view.summary w);
        print_endline (Vp_report.Workload_view.usage_matrix w);
        print_endline (Vp_report.Workload_view.affinity_matrix w))
      (workloads_of benchmark sf table);
    0
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Show a workload's usage matrix, affinity matrix and structure")
    Term.(const run $ benchmark_arg $ sf_arg $ table_arg)

(* --- vp workload --- *)

let workload_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Workload script (CREATE TABLE + SELECT).")
  in
  let algo_arg =
    Arg.(
      value
      & opt string "HillClimb"
      & info [ "a"; "algorithm" ] ~docv:"ALGO" ~doc:"Algorithm name.")
  in
  let ddl_arg =
    Arg.(
      value & flag
      & info [ "ddl" ]
          ~doc:"Also emit CREATE TABLE / CREATE VIEW DDL for the layout.")
  in
  let run buffer_mb algo_name ddl file =
    let disk = disk_of buffer_mb in
    let algo = algorithm_of disk algo_name in
    match Vp_parser.Workload_parser.parse_file file with
    | Error e ->
        Fmt.epr "%s: %a@." file Vp_parser.Workload_parser.pp_error e;
        1
    | Ok workloads ->
        List.iter
          (fun w ->
            let tbl = Workload.table w in
            if Workload.query_count w = 0 then
              Format.printf "%s: no queries, skipped@." (Table.name tbl)
            else begin
              let request = request_of `Hdd disk w in
              let r = Partitioner.exec algo request in
              let n = Table.attribute_count tbl in
              Format.printf
                "@[<v>%s (%d rows, %d queries):@,  %s layout: %a@,  cost \
                 %.4f s   row %.4f s   column %.4f s@,@]"
                (Table.name tbl) (Table.row_count tbl) (Workload.query_count w)
                algo.Partitioner.name
                (Partitioning.pp_named tbl)
                r.Partitioner.Response.partitioning r.Partitioner.Response.cost
                (request.Partitioner.Request.cost (Partitioning.row n))
                (request.Partitioner.Request.cost (Partitioning.column n));
              if ddl then
                print_string
                  (Vp_report.Ddl.emit tbl r.Partitioner.Response.partitioning)
            end)
          workloads;
        0
  in
  Cmd.v
    (Cmd.info "workload"
       ~doc:"Partition tables described by a SQL-flavoured workload script")
    Term.(const run $ buffer_mb_arg $ algo_arg $ ddl_arg $ file_arg)

(* --- vp online --- *)

let online_cmd =
  let algo_arg =
    Arg.(
      value & opt_all string []
      & info [ "a"; "algo" ] ~docv:"ALGO"
          ~doc:
            "Panel algorithm raced at each re-optimization (repeatable; \
             default HillClimb).")
  in
  let trace_in_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "trace-in" ] ~docv:"FILE"
          ~doc:
            "Workload script (CREATE TABLE + SELECT) replayed as a query \
             stream in file order, instead of the benchmark tables.")
  in
  let synthetic_arg =
    Arg.(
      value
      & opt (some positive_int) None
      & info [ "synthetic" ] ~docv:"N"
          ~doc:
            "Replay an N-query synthetic stream whose access pattern drifts \
             mid-stream (see $(b,--drift-at)), instead of a benchmark.")
  in
  let drift_at_arg =
    Arg.(
      value
      & opt float 0.4
      & info [ "drift-at" ] ~docv:"FRACTION"
          ~doc:
            "Where the synthetic stream's access distribution shifts, as a \
             fraction of the stream (with $(b,--synthetic)).")
  in
  let drift_ratio_arg =
    Arg.(
      value
      & opt float 2.0
      & info [ "drift-ratio" ] ~docv:"RATIO"
          ~doc:
            "Re-optimize when the windowed cost of the current layout \
             exceeds RATIO times the per-query lower bound.")
  in
  let epoch_arg =
    Arg.(
      value
      & opt int 64
      & info [ "epoch" ] ~docv:"N"
          ~doc:
            "Also re-optimize every N queries since the last decision (0 \
             disables the epoch trigger).")
  in
  let memory_arg =
    Arg.(
      value
      & opt int 32
      & info [ "memory" ] ~docv:"N"
          ~doc:
            "Re-optimize over the N most recent queries (0 = the full \
             ingested history).")
  in
  let horizon_arg =
    Arg.(
      value
      & opt float 1.0
      & info [ "horizon" ] ~docv:"EXECUTIONS"
          ~doc:
            "Adopt a candidate layout only if its migration cost pays off \
             within this many executions of the ingested workload.")
  in
  let budget_steps_arg =
    Arg.(
      value
      & opt (some positive_int) None
      & info [ "budget-steps" ] ~docv:"N"
          ~doc:
            "Deterministic search-step budget per panel member per \
             re-optimization.")
  in
  let history_arg =
    Arg.(
      value & flag
      & info [ "history" ]
          ~doc:
            "Also print the layout-generation history, one line per \
             decision (stable across runs and $(b,--jobs) values).")
  in
  let formats_arg =
    Arg.(
      value & flag
      & info [ "formats" ]
          ~doc:
            "Also re-pick per-partition storage formats (plain / \
             dictionary / varlen) after each layout decision, under the \
             same pay-off gate.")
  in
  let run benchmark sf buffer_mb table jobs algos trace_in synthetic drift_at
      drift_ratio epoch memory horizon budget_steps history formats =
    let disk = disk_of buffer_mb in
    let algos = if algos = [] then [ "HillClimb" ] else algos in
    let panel = List.map (algorithm_of disk) algos in
    if epoch < 0 then Fmt.failwith "--epoch must be >= 0";
    if memory < 0 then Fmt.failwith "--memory must be >= 0";
    let config =
      Vp_online.Service.default_config ~drift_ratio ~epoch ~memory ~horizon
        ?budget_steps ~jobs:(jobs_of jobs) ~formats ~disk ~panel ()
    in
    let streams =
      match (synthetic, trace_in) with
      | Some queries, _ ->
          [
            Vp_benchmarks.Synthetic.drift_workload ~attributes:16 ~clusters:4
              ~rows:1_500_000 ~queries ~scatter:0.05 ~drift_at ();
          ]
      | None, Some file -> (
          match Vp_parser.Workload_parser.parse_file file with
          | Error e ->
              Fmt.failwith "%s: %a" file Vp_parser.Workload_parser.pp_error e
          | Ok workloads ->
              List.filter (fun w -> Workload.query_count w > 0) workloads)
      | None, None -> workloads_of benchmark sf table
    in
    List.iter
      (fun w ->
        let outcome = Vp_online.Replay.run ~config w in
        print_string (Vp_online.Replay.summary outcome);
        if history then print_string outcome.Vp_online.Replay.history;
        print_newline ())
      streams;
    0
  in
  Cmd.v
    (Cmd.info "online"
       ~doc:
         "Replay a workload as a query stream through the online layout \
          service")
    Term.(
      const run $ benchmark_arg $ sf_arg $ buffer_mb_arg $ table_arg
      $ jobs_arg $ algo_arg $ trace_in_arg $ synthetic_arg $ drift_at_arg
      $ drift_ratio_arg $ epoch_arg $ memory_arg $ horizon_arg
      $ budget_steps_arg $ history_arg $ formats_arg)

(* --- vp serve / vp client --- *)

let host_arg =
  Arg.(
    value
    & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"HOST" ~doc:"Address to bind (serve) or reach \
                                         (client).")

let port_arg =
  Arg.(
    value
    & opt int Vp_server.Protocol.default_port
    & info [ "p"; "port" ] ~docv:"PORT"
        ~doc:"TCP port (serve: 0 asks the kernel for an ephemeral one).")

let max_pending_arg =
  Arg.(
    value
    & opt positive_int 64
    & info [ "max-pending" ] ~docv:"N"
        ~doc:
          "Bound on in-flight connections: beyond it, new connections \
           are answered with one $(i,overloaded) reply carrying a \
           retry-after hint and closed, instead of queueing silently.")

let max_resident_arg =
  Arg.(
    value
    & opt (some positive_int) None
    & info [ "max-resident" ] ~docv:"N"
        ~doc:
          "Cap on in-memory sessions (requires $(b,--data-dir)): past \
           it, the least-recently-used idle session is spilled to disk \
           and transparently restored on its next touch. Default: \
           unlimited.")

let fsync_arg =
  let fsync_conv =
    let parse = function
      | "never" -> Ok Vp_robust.Journal.Never
      | "always" -> Ok Vp_robust.Journal.Always
      | s -> (
          match int_of_string_opt s with
          | Some n when n >= 1 -> Ok (Vp_robust.Journal.Interval n)
          | _ ->
              Error
                (`Msg
                   (Printf.sprintf
                      "invalid fsync policy %S (expected never, always, \
                       or a record interval >= 1)"
                      s)))
    in
    let print ppf = function
      | Vp_robust.Journal.Never -> Format.pp_print_string ppf "never"
      | Vp_robust.Journal.Always -> Format.pp_print_string ppf "always"
      | Vp_robust.Journal.Interval n -> Format.fprintf ppf "%d" n
    in
    Arg.conv ~docv:"POLICY" (parse, print)
  in
  Arg.(
    value
    & opt fsync_conv Vp_robust.Journal.Never
    & info [ "fsync" ] ~docv:"POLICY"
        ~doc:
          "WAL durability policy: $(b,never) (flush to the OS per \
           record, never force the disk), $(b,always) (fsync every \
           record), or an integer $(i,N) (fsync every N records and \
           on drain).")

let serve_cmd =
  let data_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "data-dir" ] ~docv:"DIR"
          ~doc:
            "Make sessions durable: persist every session's open spec, \
             write-ahead log and eviction snapshots under $(docv) \
             (created if missing), and recover whatever a previous \
             server life left there on startup. Without it, session \
             state lives in memory and dies with the process.")
  in
  let run host port jobs max_pending data_dir max_resident fsync =
    (* The daemon multiplexes blocking connection handlers, so its job
       count is a concurrency choice, not a core count — default 4 even
       on small hosts (see Vp_server.Conn_server). *)
    let jobs = match jobs with Some n -> n | None -> 4 in
    if max_resident <> None && data_dir = None then (
      prerr_endline "vp serve: --max-resident requires --data-dir";
      exit 2);
    (* A server whose [stats] op always answers zero is lying; counters
       are part of the protocol here, so pay for them. *)
    Vp_observe.Switch.(raise_to Stats);
    let d =
      match
        Vp_server.Daemon.create ~host ~port ~jobs ~max_pending ?data_dir
          ?max_resident ~fsync ()
      with
      | d -> d
      | exception Invalid_argument msg ->
          prerr_endline ("vp serve: " ^ msg);
          exit 2
    in
    Vp_server.Daemon.install_signal_handlers d;
    Printf.printf
      "vp layout server listening on %s:%d (%d job(s), max %d in flight%s); \
       SIGTERM drains\n\
       %!"
      host
      (Vp_server.Daemon.port d)
      (Vp_server.Daemon.jobs d) max_pending
      (match data_dir with
      | None -> ""
      | Some dir -> Printf.sprintf ", durable in %s" dir);
    Vp_server.Daemon.serve d;
    print_endline "drained; bye.";
    0
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the layout server: a TCP daemon serving the partitioner \
          panel and online layout sessions over newline-delimited JSON")
    Term.(
      const run $ host_arg $ port_arg $ jobs_arg $ max_pending_arg
      $ data_dir_arg $ max_resident_arg $ fsync_arg)

(* --- vp cluster --- *)

let cluster_cmd =
  let shards_arg =
    Arg.(
      value
      & opt positive_int 3
      & info [ "shards" ] ~docv:"N"
          ~doc:"Shard daemons to spawn and supervise.")
  in
  let data_dir_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "data-dir" ] ~docv:"DIR"
          ~doc:
            "Root directory for shard state (one subdirectory per \
             shard, created if missing). Mandatory: cross-shard session \
             handoff and crash recovery move session state as files.")
  in
  let shard_jobs_arg =
    Arg.(
      value
      & opt positive_int 4
      & info [ "shard-jobs" ] ~docv:"N"
          ~doc:"Connection workers per shard daemon.")
  in
  let run host port jobs max_pending shards shard_jobs data_dir max_resident
      fsync =
    let jobs = match jobs with Some n -> n | None -> 4 in
    Vp_observe.Switch.(raise_to Stats);
    let r =
      match
        Vp_router.Router.create ~host ~port ~jobs ~max_pending ~shards
          ~shard_jobs ?max_resident ~fsync ~data_dir ()
      with
      | r -> r
      | exception Invalid_argument msg ->
          prerr_endline ("vp cluster: " ^ msg);
          exit 2
    in
    Vp_router.Router.install_signal_handlers r;
    Printf.printf
      "vp layout cluster listening on %s:%d (%d shard(s), %d router job(s), \
       durable in %s); SIGTERM drains\n\
       %!"
      host
      (Vp_router.Router.port r)
      (Vp_router.Router.shard_count r)
      jobs data_dir;
    Vp_router.Router.serve r;
    print_endline "cluster drained; bye.";
    0
  in
  Cmd.v
    (Cmd.info "cluster"
       ~doc:
         "Run a sharded layout-serving cluster: a consistent-hash router \
          in front of N supervised shard daemons, speaking the same \
          protocol as $(b,vp serve)")
    Term.(
      const run $ host_arg $ port_arg $ jobs_arg $ max_pending_arg
      $ shards_arg $ shard_jobs_arg $ data_dir_arg $ max_resident_arg
      $ fsync_arg)

let client_cmd =
  let ping_arg =
    Arg.(
      value & flag
      & info [ "ping" ] ~doc:"Check liveness and print the protocol version.")
  in
  let stats_arg =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:"Print the server's counters, gauges and live session count.")
  in
  let script_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "script" ] ~docv:"FILE"
          ~doc:
            "Replay a workload script (the same CREATE TABLE + SELECT \
             format $(b,vp workload) reads) against the server: one \
             session per table, each query ingested in file order, then \
             the final decision history is printed per table. Parse \
             errors are line-numbered.")
  in
  let shutdown_arg =
    Arg.(
      value & flag
      & info [ "shutdown" ] ~doc:"Ask the server to drain gracefully.")
  in
  let partition_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "partition" ] ~docv:"TABLE"
          ~doc:
            "Ask the server for a one-shot layout of a benchmark table \
             (see $(b,--benchmark)/$(b,--sf)). With $(b,--algorithm) \
             portfolio (the default) the server races every registered \
             entrant and the reply's race audit is printed.")
  in
  let client_algo_arg =
    Arg.(
      value
      & opt string "portfolio"
      & info [ "a"; "algorithm" ] ~docv:"ALGO"
          ~doc:"Algorithm for $(b,--partition) (default portfolio).")
  in
  let run host port benchmark sf ping stats partition_table client_algo
      script shutdown_server =
    if
      not
        (ping || stats || shutdown_server || script <> None
        || partition_table <> None)
    then
      Fmt.failwith
        "nothing to do: pass --ping, --stats, --partition TABLE, \
         --script FILE and/or --shutdown";
    let c = Vp_client.Client.create ~host ~port () in
    Fun.protect
      ~finally:(fun () -> Vp_client.Client.close c)
      (fun () ->
        let check = function
          | Ok v -> v
          | Error msg -> Fmt.failwith "%s" msg
        in
        if ping then
          Printf.printf "pong (protocol version %d)\n"
            (check (Vp_client.Client.ping c));
        if stats then
          print_endline
            (Vp_observe.Json.to_string
               (Vp_observe.Json.Codec.encode Vp_server.Protocol.stats_reply
                  (check (Vp_client.Client.server_stats c))));
        (match partition_table with
        | Some tname ->
            let w = List.hd (workloads_of benchmark sf (Some tname)) in
            let r =
              check
                (Vp_client.Client.partition ~algorithm:client_algo c w)
            in
            Printf.printf "%s on %s: cost %.3f s (%s)\n" r.algorithm tname
              r.cost r.run_status;
            List.iter
              (fun (e : Vp_server.Protocol.entrant_summary) ->
                Printf.printf "  %c %-12s %-10s cost %8.3f  cost calls %d\n"
                  (if e.entrant_winner then '*' else ' ')
                  e.entrant e.entrant_status e.entrant_cost
                  e.entrant_cost_calls)
              (Option.value r.entrants ~default:[])
        | None -> ());
        (match script with
        | Some file ->
            let results =
              check
                (Vp_client.Client.replay_script ~progress:print_endline c file)
            in
            List.iter
              (fun (table, history) ->
                Printf.printf "=== %s ===\n%s" table history)
              results
        | None -> ());
        if shutdown_server then begin
          check (Vp_client.Client.shutdown_server c);
          print_endline "server draining"
        end;
        0)
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Talk to a running layout server (ping, stats, one-shot \
          partition, script replay)")
    Term.(
      const run $ host_arg $ port_arg $ benchmark_arg $ sf_arg $ ping_arg
      $ stats_arg $ partition_arg $ client_algo_arg $ script_arg
      $ shutdown_arg)

(* --- vp list --- *)

let list_cmd =
  let run () =
    print_endline "Algorithms:";
    List.iter (fun n -> Printf.printf "  %s\n" n) Vp_algorithms.Registry.names;
    print_endline "\nExperiments (vp experiment <id>):";
    List.iter
      (fun (e : Vp_experiments.Registry.experiment) ->
        Printf.printf "  %-8s %-10s %s\n" e.id e.paper_ref e.description)
      Vp_experiments.Registry.all;
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List algorithms and experiments")
    Term.(const run $ const ())

let main_cmd =
  let doc =
    "vertical partitioning algorithms under a unified cost model (VLDB'13 \
     reproduction)"
  in
  Cmd.group
    (Cmd.info "vp" ~version:"1.0.0" ~doc)
    [
      partition_cmd; compare_cmd; layouts_cmd; experiment_cmd; simulate_cmd;
      datagen_cmd; workload_cmd; analyze_cmd; online_cmd; serve_cmd;
      cluster_cmd; client_cmd; list_cmd;
    ]

let () = exit (Cmd.eval' main_cmd)
