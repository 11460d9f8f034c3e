open Vp_core

(* The racing meta-partitioner (ROADMAP item 2): fan every entrant
   across the domain pool under one shared deadline, keep the cheapest
   layout, and report the full race audit in the response provenance.

   Determinism contract: the winner is a pure function of the entrant
   responses — minimum cost, ties to the lowest registration index —
   and early cancellation is restricted to races it cannot change. An
   entrant may be cancelled only after some lower-indexed entrant
   completes at or below the workload's cost floor (an admissible lower
   bound such as {!Vp_cost.Io_model.pmv_cost}): the cancelled entrant
   could at best tie that cost and would lose the index tie-break, so
   the winning (layout, cost, entrant) triple is byte-identical at any
   [--jobs], even though loser statuses may differ run to run. *)

(* The standard field, spelled out here rather than through [Registry]
   (which registers the portfolio itself and would close a cycle). Keep
   in sync with [Registry]: six, BruteForce, ILP, Hypergraph, then the
   baselines. *)
let default_entrants () =
  [
    Autopart.algorithm;
    Hillclimb.algorithm;
    Hyrise.algorithm;
    Navathe.algorithm;
    O2p.algorithm;
    Trojan.algorithm;
    Brute_force.algorithm;
    Ilp.algorithm;
    Hypergraph.algorithm;
    Baselines.row;
    Baselines.column;
  ]

let name = "Portfolio"

let short_name = "PF"

let run_race ~jobs ~entrants ~floor_of (request : Partitioner.Request.t) =
  let workload = Partitioner.Request.workload request in
  let outer = Partitioner.Request.effective_budget request in
  let t0 = Unix.gettimeofday () in
  let floor_ = Option.map (fun f -> f workload) floor_of in
  let entrant_arr = Array.of_list entrants in
  let m = Array.length entrant_arr in
  if m = 0 then invalid_arg "Portfolio: empty entrant list";
  let cancels = Array.init m (fun _ -> Atomic.make false) in
  (* Winner-invariant straggler cut: entrant [i] finished a complete
     layout no layout can undercut, so everyone registered after [i] can
     at best tie — and a tie goes to [i]. *)
  let note_done i (r : Partitioner.Response.t) =
    match (floor_, r.status) with
    | Some floor_, Partitioner.Complete when r.cost <= floor_ ->
        for j = i + 1 to m - 1 do
          Atomic.set cancels.(j) true
        done
    | _ -> ()
  in
  let run_entrant i () =
    let a = entrant_arr.(i) in
    let budget = Vp_robust.Budget.spawn ~cancel:cancels.(i) outer in
    let req =
      { request with Partitioner.Request.budget = Some budget; cancel = None }
    in
    match Partitioner.exec a req with
    | r ->
        note_done i r;
        Some r
    | exception (Vp_robust.Fault.Injected _ as e) -> raise e
    | exception _ ->
        (* An entrant refusing the workload (e.g. an unbudgeted exact
           search declining a hopeless space) loses the race; it does
           not void it. *)
        None
  in
  let results =
    Vp_parallel.Pool.with_pool ~jobs (fun pool ->
        Vp_parallel.Pool.run pool (List.init m run_entrant))
  in
  let responses = List.filter_map Fun.id results in
  if responses = [] then
    invalid_arg "Portfolio: no entrant produced a layout";
  let winner =
    List.fold_left
      (fun acc (r : Partitioner.Response.t) ->
        match acc with
        | Some (best : Partitioner.Response.t) when best.cost <= r.cost -> acc
        | _ -> Some r)
      None responses
    |> Option.get
  in
  let entrants_audit =
    List.filter_map
      (fun (r : Partitioner.Response.t option) ->
        Option.map
          (fun (r : Partitioner.Response.t) ->
            {
              Partitioner.Response.entrant = r.provenance.algorithm;
              entrant_short = r.provenance.short_name;
              entrant_cost = r.cost;
              entrant_status = r.status;
              entrant_stats = r.stats;
              winner = r == winner;
            })
          r)
      results
  in
  let elapsed_seconds = Unix.gettimeofday () -. t0 in
  let stats =
    List.fold_left
      (fun acc (r : Partitioner.Response.t) ->
        {
          Partitioner.cost_calls = acc.Partitioner.cost_calls + r.stats.cost_calls;
          candidates = acc.Partitioner.candidates + r.stats.candidates;
          iterations = acc.Partitioner.iterations;
          elapsed_seconds = acc.Partitioner.elapsed_seconds;
        })
      {
        Partitioner.cost_calls = 0;
        candidates = 0;
        iterations = List.length responses;
        elapsed_seconds;
      }
      responses
  in
  Partitioner.Response.make ~partitioning:winner.partitioning
    ~cost:winner.cost ~stats ~status:winner.status ~algorithm:name ~short_name
    ?label:request.Partitioner.Request.label ~entrants:entrants_audit ()

let make ?(jobs = Vp_parallel.Pool.default_jobs ()) ?entrants ?lower_bound ()
    =
  let exec (request : Partitioner.Request.t) =
    let entrants =
      match entrants with Some e -> e | None -> default_entrants ()
    in
    let go () = run_race ~jobs ~entrants ~floor_of:lower_bound request in
    if Vp_observe.Switch.trace_on () then
      Vp_observe.Trace.with_span ~name:("algo:" ^ name)
        ~args:
          (("table",
            Table.name (Workload.table (Partitioner.Request.workload request)))
          ::
          (match request.Partitioner.Request.label with
          | Some l -> [ ("label", l) ]
          | None -> []))
        go
    else go ()
  in
  { Partitioner.name; short_name; exec }

let with_bound ?jobs disk =
  let entrants =
    [
      Autopart.algorithm;
      Hillclimb.algorithm;
      Hyrise.algorithm;
      Navathe.algorithm;
      O2p.algorithm;
      Trojan.algorithm;
      Brute_force.make ~lower_bound:(Vp_cost.Bounds.io_brute_force disk) ();
      Ilp.with_bound disk;
      Hypergraph.algorithm;
      Baselines.row;
      Baselines.column;
    ]
  in
  make ?jobs ~entrants
    ~lower_bound:(fun w -> Vp_cost.Io_model.pmv_cost disk w)
    ()

let algorithm = make ()
