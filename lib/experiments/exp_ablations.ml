(** Ablations for the design choices DESIGN.md calls out (not in the
    paper's evaluation, but quantifying trade-offs it discusses in prose):
    HillClimb's cost dictionary, HYRISE's subproblem bound K, Trojan's
    pruning threshold, and the value of O2P's incremental clustering versus
    Navathe's offline clustering. *)

open Vp_core

let tpch () = Vp_benchmarks.Tpch.workloads ~sf:Common.sf

let sweep algos =
  List.map
    (fun (label, (a : Partitioner.t)) ->
      let cost = ref 0.0 and time = ref 0.0 and calls = ref 0 in
      List.iter
        (fun w ->
          let r = Partitioner.exec a (Vp_cost.Io_model.request Common.disk w) in
          cost := !cost +. r.Partitioner.Response.cost;
          time := !time +. r.Partitioner.Response.stats.Partitioner.elapsed_seconds;
          calls := !calls + r.Partitioner.Response.stats.Partitioner.cost_calls)
        (tpch ());
      [
        label;
        Printf.sprintf "%.1f" !cost;
        Vp_report.Ascii.seconds !time;
        string_of_int !calls;
      ])
    algos

let headers = [ "Variant"; "Total cost (s)"; "Opt. time"; "Cost calls" ]

let hillclimb_dictionary () =
  Vp_report.Ascii.table
    ~title:
      "Ablation A1: HillClimb candidate-cost memoization (the paper \
       dropped the original's precomputed dictionary for speed; both \
       variants must find identical layouts)"
    ~headers
    (sweep
       [
         ("HillClimb (no memo, default)", Vp_algorithms.Hillclimb.algorithm);
         ("HillClimb (dictionary)", Vp_algorithms.Hillclimb.with_dictionary);
       ])

let hyrise_k () =
  Vp_report.Ascii.table
    ~title:
      "Ablation A2: HYRISE subproblem bound K (small K = cheaper subgraph \
       search, more reliance on the final cross-graph merge)"
    ~headers
    (sweep
       (List.map
          (fun k ->
            (Printf.sprintf "HYRISE K=%d" k, Vp_algorithms.Hyrise.with_k k))
          [ 2; 4; 8; 16 ]))

let trojan_threshold () =
  Vp_report.Ascii.table
    ~title:
      "Ablation A3: Trojan interestingness threshold (lower = more \
       candidate column groups survive pruning)"
    ~headers
    (sweep
       (List.map
          (fun t ->
            ( Printf.sprintf "Trojan t=%.2f" t,
              Vp_algorithms.Trojan.with_threshold t ))
          [ 0.1; 0.3; 0.5; 0.7; 0.9 ]))

let navathe_vs_o2p_order () =
  (* Quantify what O2P's arrival-order incremental clustering costs
     relative to Navathe's offline bond-energy clustering: same split
     rules, different attribute orders. *)
  Vp_report.Ascii.table
    ~title:
      "Ablation A4: offline (Navathe) vs incremental-arrival (O2P) \
       clustering under identical split rules"
    ~headers
    (sweep
       [
         ("Navathe (offline BEA)", Vp_algorithms.Navathe.algorithm);
         ("O2P (incremental BEA)", Vp_algorithms.O2p.algorithm);
       ])

(* Weighted workloads: the paper weights all queries equally; this ablation
   skews frequencies Zipf-style (query k of a table runs proportionally to
   1/k) and reports how much the optimal layout and its advantage move. *)
let weighted_workloads () =
  let zipf w =
    let queries = Workload.queries w in
    Workload.make (Workload.table w)
      (List.mapi
         (fun i q ->
           Query.make
             ~weight:(1.0 /. float_of_int (i + 1))
             ~name:(Query.name q) ~references:(Query.references q) ())
         (Array.to_list queries))
  in
  let hillclimb = Vp_algorithms.Registry.find "HillClimb" in
  let rows =
    List.map
      (fun (label, transform) ->
        let moved = ref 0 in
        let layout_cost = ref 0.0 and column_cost = ref 0.0 in
        List.iter
          (fun w0 ->
            let w = transform w0 in
            let n = Table.attribute_count (Workload.table w) in
            let request = Vp_cost.Io_model.request Common.disk w in
            let r = Partitioner.exec hillclimb request in
            layout_cost := !layout_cost +. r.Partitioner.Response.cost;
            column_cost := !column_cost +. request.cost (Partitioning.column n);
            let base = Partitioner.exec hillclimb (Vp_cost.Io_model.request Common.disk w0) in
            if
              not
                (Partitioning.equal r.Partitioner.Response.partitioning
                   base.Partitioner.Response.partitioning)
            then incr moved)
          (tpch ());
        [
          label;
          Vp_report.Ascii.percent
            ((!column_cost -. !layout_cost) /. !column_cost);
          Printf.sprintf "%d of 8" !moved;
        ])
      [ ("uniform weights", Fun.id); ("Zipf weights (1/k)", zipf) ]
  in
  Vp_report.Ascii.table
    ~title:
      "Ablation A5: query-frequency skew (Zipf weights vs the paper's \
       uniform weights)"
    ~headers:
      [ "Weighting"; "HillClimb improvement over Column"; "Tables with layout changes" ]
    rows

let all () =
  String.concat "\n"
    [
      hillclimb_dictionary (); hyrise_k (); trojan_threshold ();
      navathe_vs_o2p_order (); weighted_workloads ();
    ]
