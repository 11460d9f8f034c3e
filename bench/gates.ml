(* The measured gates: the checks whose outcome depends on wall time,
   heap or load, so they cannot be deterministic tests. Every other gate
   is a tier-1 test; the paper's tables and figures come from
   [vp experiment all], and the repo benchmark is perfbench/.

   Usage: dune exec bench/gates.exe   (no options, no environment)

   Each gate prints one line with its measured value and threshold, and
   the executable exits 1 on any violation. *)

(* Shard workers are re-execs of this very binary; the sentinel check
   must run before anything else looks at argv. *)
let () = Vp_router.Worker.maybe_run ()

open Vp_core

let violations = ref 0

let report ~ok fmt =
  Printf.ksprintf
    (fun line ->
      if not ok then incr violations;
      Printf.printf "%-4s %s\n%!" (if ok then "ok" else "FAIL") line)
    fmt

let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

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
      (Printf.sprintf "vp-gates-%s-%d" tag (Unix.getpid ()))
  in
  remove_tree dir;
  Fun.protect ~finally:(fun () -> remove_tree dir) (fun () -> f dir)

(* --- SF 100 peak heap <= 512 MiB ---

   The streaming substrate at a scale factor the materializing path could
   not hold: a bounded prefix of the lineitem stream plus O(chunk) access
   to its last chunk, the out-of-core row-to-column transform, and a
   virtual Q1 scan over 600M rows. It also digests the SF 0.1 lineitem
   stream on a pool of 4 domains. Each domain holds a chunk of its own,
   and that fan-out is most of the peak (about 170 of 222 MiB on a
   2-vCPU machine), so it is part of the working set the gate bounds;
   the digest's value is checked by tests, not here.
   [Gc.quick_stat ()].top_heap_words is a process-wide high-water mark,
   so this gate runs first, before anything else builds a table: the
   value read after the SF 100 phases then really bounds the streaming
   pipeline's working set. Each phase also replays identically (a second
   generator, transform or scan gives the same answer). *)

let heap_gate_mib = 512.0

let sf100_heap () =
  let disk = Vp_cost.Disk.default in
  let table = Vp_benchmarks.Tpch.table ~sf:100.0 "lineitem" in
  let layout = Partitioning.column (Table.attribute_count table) in
  let source () =
    Vp_stream.Source.of_rowgen (Vp_datagen.Rowgen.create ()) table
  in
  let s = source () in
  let last = Vp_stream.Source.chunk_count s - 1 in
  for c = 0 to 3 do
    ignore (Vp_stream.Source.chunk s c)
  done;
  let tail = Vp_stream.Source.chunk s last in
  Vp_parallel.Pool.with_pool ~jobs:4 (fun pool ->
      ignore
        (Vp_stream.Source.digest ~pool
           (Vp_stream.Source.of_rowgen (Vp_datagen.Rowgen.create ())
              (Vp_benchmarks.Tpch.table ~sf:0.1 "lineitem"))));
  let s2 = source () in
  let generate_ok =
    Vp_stream.Source.chunk s2 0 = Vp_stream.Source.chunk s 0
    && Vp_stream.Source.chunk s2 last = tail
  in
  let transform () = Vp_storage.Creation.transform ~disk table s layout in
  let transform_ok = transform () = transform () in
  let db =
    Vp_storage.Database.build ~retain:false ~disk
      ~codec:Vp_storage.Codec.Plain table s layout
  in
  let q1 =
    (Workload.queries (Vp_benchmarks.Tpch.workload ~sf:100.0 "lineitem")).(0)
  in
  let r = Vp_storage.Database.run_query db q1 in
  let scan_ok =
    r = Vp_storage.Database.run_query db q1
    && r.Vp_storage.Database.checksum = 0
    && r.Vp_storage.Database.rows_out = Table.row_count table
  in
  let peak =
    float_of_int (Gc.quick_stat ()).Gc.top_heap_words
    *. float_of_int (Sys.word_size / 8)
    /. (1024.0 *. 1024.0)
  in
  let replays = generate_ok && transform_ok && scan_ok in
  report
    ~ok:(peak <= heap_gate_mib && replays)
    "SF 100 peak heap: %.1f MiB (gate <= %.0f MiB), replays %s" peak
    heap_gate_mib
    (if replays then "identical" else "DIVERGED")

(* --- WAL ingest overhead <= 1.15x ---

   The same 400-query stream ingested into an in-memory registry and a
   durable one. Only the ingest loop is timed — registry setup and the
   (fsynced) open-time meta write are one-offs, not per-query cost — and
   each variant takes the best of three runs so the ratio measures the
   append path, not scheduler noise. The two histories must be
   byte-identical. *)

let wal_gate_ratio = 1.15

let ok_or_fail = function Ok v -> v | Error msg -> failwith msg

let wal_overhead () =
  let w =
    Vp_benchmarks.Synthetic.drift_workload ~seed:71L ~attributes:8
      ~clusters:3 ~rows:50_000 ~queries:400 ~scatter:0.05 ~drift_at:0.5 ()
  in
  let table = Workload.table w in
  let session = "overhead" in
  let run reg =
    ignore
      (ok_or_fail
         (Vp_server.Sessions.open_session reg
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
            }));
    let (), seconds =
      time (fun () ->
          Array.iteri
            (fun i q ->
              ignore
                (ok_or_fail
                   (Vp_server.Sessions.ingest reg session ~seq:(i + 1)
                      ~attributes:
                        (Table.names_of_attr_set table (Query.references q))
                      ~weight:(Query.weight q) ~name:(Query.name q) ())))
            (Workload.queries w))
    in
    (ok_or_fail (Vp_server.Sessions.view reg session Vp_online.Service.history),
     seconds)
  in
  let best_of_3 mk =
    let runs = List.init 3 (fun _ -> mk ()) in
    (fst (List.hd runs),
     List.fold_left (fun acc (_, s) -> Float.min acc s) infinity runs)
  in
  let hist_off, t_off =
    best_of_3 (fun () -> run (Vp_server.Sessions.create ()))
  in
  let hist_on, t_on =
    best_of_3 (fun () ->
        with_temp_dir "wal" (fun dir ->
            run (Vp_server.Sessions.create ~data_dir:dir ())))
  in
  let ratio = t_on /. t_off in
  let identical = String.equal hist_off hist_on in
  report
    ~ok:(ratio <= wal_gate_ratio && identical)
    "WAL ingest overhead: %.3fx (gate <= %.2fx; on %.4f s, off %.4f s), \
     histories %s"
    ratio wal_gate_ratio t_on t_off
    (if identical then "identical" else "DIVERGED")

(* --- 15-attribute delta BruteForce no slower than 12-attribute full ---

   Full enumeration of Bell(11) = 678,570 candidate layouts twice: 12
   synthetic attributes priced by the reference session (full
   re-costing) vs 15 synthetic attributes priced by incremental
   sessions. The seeds are chosen so both tables decompose into exactly
   11 primary partitions: the two runs visit the same candidates and
   differ only in how each is costed. One run per side swings with the
   machine's load, so the sides alternate for [bruteforce_repeats]
   rounds and the gate compares their medians. *)

let bruteforce_repeats = 3

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

let bruteforce_scale () =
  let disk = Vp_cost.Disk.default in
  let algo = Vp_algorithms.Brute_force.make () in
  let run request = snd (time (fun () -> Partitioner.exec algo request)) in
  (* The 12-attribute side prices through the reference session. *)
  let full w =
    let cost = Vp_cost.Io_model.oracle disk w in
    let n = Table.attribute_count (Workload.table w) in
    Partitioner.Request.make ~delta:(Partitioner.Delta.full ~n cost) ~cost w
  in
  let w12 =
    Vp_benchmarks.Synthetic.workload ~seed:1L ~rows:100_000 ~attributes:12
      ~clusters:4 ~queries:12 ~scatter:0.1 ()
  in
  let w15 =
    Vp_benchmarks.Synthetic.workload ~seed:5L ~rows:100_000 ~attributes:15
      ~clusters:4 ~queries:16 ~scatter:0.1 ()
  in
  let rounds =
    List.init bruteforce_repeats (fun i ->
        let t12 = run (full w12) in
        let t15 = run (Vp_cost.Io_model.request disk w15) in
        Printf.printf
          "     BruteForce Bell(11) round %d: 15-attribute delta %.3f s, \
           12-attribute full %.3f s\n%!"
          (i + 1) t15 t12;
        (t12, t15))
  in
  let t12 = median (List.map fst rounds)
  and t15 = median (List.map snd rounds) in
  report ~ok:(t15 <= t12)
    "BruteForce Bell(11): 15-attribute delta median %.3f s (gate <= \
     12-attribute full median %.3f s, %d rounds)"
    t15 t12 bruteforce_repeats

(* --- Cluster ring change under load ---

   A consistent-hash router in front of 3 shard daemons (separate
   processes, re-execs of this binary — see the [maybe_run] hook at the
   top of the file). 48 deep drift sessions ingest concurrently from 8
   client domains; once every worker passes the halfway mark a shard is
   added, so live sessions spill, move between data dirs and are adopted
   mid-stream while the ingest loops ride out the shed window on
   seq-idempotent retries. At least one session must move, every closed
   history must match the local replay byte for byte, and at most half
   the requests may be shed through the handoff. *)

let handoff_gate_shed_rate = 0.5

let cluster_clients = 8

let counter_now name =
  Vp_observe.Stats.counter_value (Vp_observe.Stats.snapshot ()) name

(* The fleet-wide [server.shed], from the router's aggregated [stats]
   reply (the shards are separate processes — their counters are not in
   this process's snapshot). *)
let fleet_shed port =
  let c = Vp_client.Client.create ~port () in
  Fun.protect
    ~finally:(fun () -> Vp_client.Client.close c)
    (fun () ->
      match Vp_client.Client.server_stats c with
      | Ok stats -> Option.value (List.assoc_opt "server.shed" stats.counters) ~default:0
      | Error _ -> 0)

let cluster_handoff () =
  let w =
    Vp_benchmarks.Synthetic.drift_workload ~seed:22L ~attributes:8 ~clusters:3
      ~rows:50_000 ~queries:50 ~scatter:0.05 ~drift_at:0.5 ()
  in
  let table = Workload.table w in
  let queries = Array.to_list (Workload.queries w) in
  let half = List.length queries / 2 in
  (* The same stream replayed in-process under the daemon's default
     session spec (HillClimb panel, 1 MiB buffer). *)
  let expected =
    let config =
      Vp_online.Service.default_config ~jobs:1
        ~disk:
          (Vp_cost.Disk.with_buffer_size Vp_cost.Disk.default
             (Vp_cost.Disk.mb 1.0))
        ~panel:[ Vp_algorithms.Hillclimb.algorithm ]
        ()
    in
    (Vp_online.Replay.run ~config w).Vp_online.Replay.history
  in
  let per = 48 / cluster_clients in
  let shed0 = counter_now "router.shed" in
  with_temp_dir "handoff" @@ fun dir ->
  let r =
    Vp_router.Router.create ~port:0 ~shards:3 ~shard_jobs:4 ~data_dir:dir ()
  in
  let server = Domain.spawn (fun () -> Vp_router.Router.serve r) in
  Fun.protect
    ~finally:(fun () ->
      Vp_router.Router.stop r;
      Domain.join server)
  @@ fun () ->
  let port = Vp_router.Router.port r in
  (* Workers bump this once their sessions pass the halfway mark; the
     main thread then changes the ring under live traffic. Workers hold
     their sessions open until [handoff_done] so every session in the
     ring's deterministic moving set is still resident when the handoff
     runs — otherwise the moved count depends on worker speed. *)
  let at_half = Atomic.make 0 in
  let handoff_done = Atomic.make false in
  let worker k () =
    let ok = ref 0 and errors = ref 0 and diverged = ref 0 in
    let count f =
      match f () with
      | Ok v ->
          incr ok;
          Some v
      | Error _ ->
          incr errors;
          None
    in
    let mine = List.init per (fun i -> Printf.sprintf "h%03d" ((k * per) + i)) in
    let with_conn seed f =
      let c = Vp_client.Client.create ~port ~retry_seed:(Int64.of_int seed) () in
      Fun.protect ~finally:(fun () -> Vp_client.Client.close c) (fun () -> f c)
    in
    with_conn (100 + k) (fun c ->
        List.iter
          (fun session ->
            ignore
              (count (fun () ->
                   Vp_client.Client.open_session c ~session ~buffer_mb:1.0
                     table)))
          mine;
        List.iteri
          (fun j q ->
            if j = half then Atomic.incr at_half;
            List.iter
              (fun session ->
                ignore
                  (count (fun () ->
                       Vp_client.Client.ingest ~seq:(j + 1) c ~session table q)))
              mine)
          queries);
    (* The connection is gone (freeing a router slot for the control
       client and the slower workers) but the sessions are not: they live
       on the shards until closed. *)
    while not (Atomic.get handoff_done) do
      Unix.sleepf 0.002
    done;
    with_conn (200 + k) (fun c ->
        List.iter
          (fun session ->
            match
              count (fun () -> Vp_client.Client.close_session c ~session)
            with
            | Some h when String.equal h expected -> ()
            | Some _ -> incr diverged
            | None -> ())
          mine);
    (!ok, !errors, !diverged)
  in
  let domains = List.init cluster_clients (fun k -> Domain.spawn (worker k)) in
  while Atomic.get at_half < cluster_clients do
    Unix.sleepf 0.005
  done;
  (* The request returns once every moving session has been spilled,
     renamed and adopted — its duration is the handoff cost. *)
  let moved, handoff_seconds =
    let c = Vp_client.Client.create ~port () in
    Fun.protect
      ~finally:(fun () ->
        Atomic.set handoff_done true;
        Vp_client.Client.close c)
      (fun () ->
        let reply, dt =
          time (fun () ->
              Vp_client.Client.call c Vp_server.Protocol.handoff
                (Vp_observe.Json.Obj
                   [ ("op", Vp_observe.Json.String "cluster_add") ]))
        in
        match reply with
        | Ok h -> (h.moved, dt)
        | Error _ -> (0, dt))
  in
  let outcomes = List.map Domain.join domains in
  let sum f = List.fold_left (fun a o -> a + f o) 0 outcomes in
  let requests = sum (fun (ok, _, _) -> ok) in
  let errors = sum (fun (_, e, _) -> e) in
  let diverged = sum (fun (_, _, d) -> d) in
  let shed = counter_now "router.shed" - shed0 + fleet_shed port in
  let shed_rate = float_of_int shed /. float_of_int (max 1 (requests + shed)) in
  report
    ~ok:(moved >= 1 && diverged = 0 && shed_rate <= handoff_gate_shed_rate)
    "Cluster ring change: %d sessions moved in %.3f s (gate >= 1), %d \
     determinism violations (gate 0), shed rate %.3f (gate <= %.1f; %d ok, \
     %d errors, %d shed)"
    moved handoff_seconds diverged shed_rate handoff_gate_shed_rate requests
    errors shed

let () =
  (* Counters on throughout, as in a live daemon: the router's shed
     count is one, and the WAL gate compares ingests with probes live. *)
  Vp_observe.Switch.(raise_to Stats);
  (* The heap gate must come first: it reads a process-wide high-water
     mark. It runs in a forked child, so the gates after it run in a
     process whose heap it never grew: after the SF 100 phases in the
     same process, the WAL ratio read about 0.1x higher. Forking is safe
     here because no other domain exists yet. *)
  (match Unix.fork () with
  | 0 ->
      sf100_heap ();
      exit !violations
  | child -> (
      match Unix.waitpid [] child with
      | _, Unix.WEXITED 0 -> ()
      | _, Unix.WEXITED 1 -> incr violations (* it printed its FAIL line *)
      | _ -> report ~ok:false "SF 100 peak heap: the gate's process died"));
  wal_overhead ();
  bruteforce_scale ();
  cluster_handoff ();
  if !violations > 0 then exit 1
