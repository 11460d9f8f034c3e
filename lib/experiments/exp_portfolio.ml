(** E-portfolio — ROADMAP item 2: the racing portfolio meta-partitioner.
    Every contender (the six, BruteForce, ILP, Hypergraph, the baselines)
    gets the same step allowance per table; the portfolio races them
    across the domain pool and must never return a costlier layout than
    the best single entrant under that equal allowance. The two new
    entrants are then scored with the paper's fragility (Figure 8
    setting) and pay-off (Figure 10) metrics. *)

open Vp_core

(* Equal allowance for every contender: the portfolio spawns one child
   budget of this size per entrant, so a solo run and a raced run of the
   same algorithm see the same limits. *)
let steps = 20_000

let singles () =
  Vp_algorithms.Registry.with_brute_force
    ~brute_force:(Common.brute_force Common.disk) ()
  @ [
      Vp_algorithms.Ilp.with_bound Common.disk;
      Vp_algorithms.Hypergraph.algorithm;
    ]
  @ Vp_algorithms.Registry.baselines

let run_budgeted (algo : Partitioner.t) workload =
  let budget = Vp_robust.Budget.create ~max_steps:steps () in
  Partitioner.exec algo (Vp_cost.Io_model.request ~budget Common.disk workload)

let race () =
  let workloads = Vp_benchmarks.Tpch.workloads ~sf:Common.sf in
  let portfolio = Vp_algorithms.Portfolio.with_bound Common.disk in
  let singles = singles () in
  let rows =
    List.map
      (fun workload ->
        let p = run_budgeted portfolio workload in
        let winner =
          match
            List.find_opt
              (fun (e : Partitioner.Response.entrant) -> e.winner)
              p.Partitioner.Response.provenance.Partitioner.Response.entrants
          with
          | Some e -> e.Partitioner.Response.entrant
          | None -> "-"
        in
        let best_name, best_cost =
          List.fold_left
            (fun acc (a : Partitioner.t) ->
              let r = run_budgeted a workload in
              match acc with
              | Some (_, c) when c <= r.Partitioner.Response.cost -> acc
              | _ -> Some (a.Partitioner.name, r.Partitioner.Response.cost))
            None singles
          |> Option.get
        in
        [
          Table.name (Workload.table workload);
          winner;
          Vp_report.Ascii.float3 p.Partitioner.Response.cost;
          best_name;
          Vp_report.Ascii.float3 best_cost;
          (if p.Partitioner.Response.cost <= best_cost +. 1e-9 then "yes"
           else "NO");
        ])
      workloads
  in
  Vp_report.Ascii.table
    ~title:
      "Portfolio race: cheapest layout across all entrants under one \
       shared budget\n\
       (guarantee: the portfolio never costs more than the best single \
       entrant granted the same allowance)"
    ~headers:
      [
        "Table"; "Race winner"; "Portfolio cost"; "Best single";
        "Single cost"; "Portfolio <= single";
      ]
    rows

(* The paper's robustness lenses pointed at the two new entrants: the
   Figure 8 worst case (0.08 MB buffer at query time) for fragility, and
   the Figure 10 pay-off over both baseline layouts. *)
let score () =
  let workloads = Vp_benchmarks.Tpch.workloads ~sf:Common.sf in
  let shrunk =
    Vp_cost.Disk.with_buffer_size Common.disk (Vp_cost.Disk.mb 0.08)
  in
  let contenders =
    [
      ("ILP", Vp_algorithms.Ilp.with_bound Common.disk);
      ("Hypergraph", Vp_algorithms.Hypergraph.algorithm);
    ]
  in
  let rows =
    List.map
      (fun (label, algo) ->
        let results =
          List.map (fun w -> (w, run_budgeted algo w)) workloads
        in
        let optimization_time =
          List.fold_left
            (fun acc (_, (r : Partitioner.Response.t)) ->
              acc +. r.stats.Partitioner.elapsed_seconds)
            0.0 results
        in
        let layouts =
          List.map
            (fun (w, (r : Partitioner.Response.t)) -> (w, r.partitioning))
            results
        in
        let fragility =
          Vp_metrics.Fragility.aggregate ~old_disk:Common.disk
            ~new_disk:shrunk layouts
        in
        let payoff baseline_of =
          Vp_metrics.Payoff.aggregate Common.disk ~optimization_time
            (List.map
               (fun (w, layout) ->
                 let n = Table.attribute_count (Workload.table w) in
                 (w, baseline_of n, layout))
               layouts)
        in
        let over_row = payoff Partitioning.row in
        let over_col = payoff Partitioning.column in
        [
          label;
          Vp_report.Ascii.seconds optimization_time;
          Vp_report.Ascii.factor fragility;
          Exp_payoff.render_factor over_row;
          Exp_payoff.render_factor over_col;
        ])
      contenders
  in
  Vp_report.Ascii.table
    ~title:
      "New entrants under the paper's metrics: fragility to a 0.08 MB \
       query-time buffer (Figure 8 worst case) and pay-off over the \
       baseline layouts (Figure 10)"
    ~headers:
      [
        "Entrant"; "Opt. time"; "Fragility @0.08MB"; "Pay-off over Row";
        "Pay-off over Column";
      ]
    rows

let run () =
  Common.heading "Racing portfolio: ILP and hypergraph entrants vs the six"
  ^ race () ^ "\n" ^ score ()
