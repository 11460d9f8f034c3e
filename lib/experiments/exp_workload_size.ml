(** E09-E11 — Figure 7 (improvement over Column when re-optimizing for the
    first k queries) and Tables 3-4 (unnecessary reads and reconstruction
    joins over Lineitem for small k). *)

open Vp_core

let algo name = Vp_algorithms.Registry.find name

let fig7 () =
  let hillclimb = algo "HillClimb" and navathe = algo "Navathe" in
  let ks = List.init 22 (fun i -> i + 1) in
  let improvement (a : Partitioner.t) k =
    let column_cost = ref 0.0 and layout_cost = ref 0.0 in
    List.iter
      (fun table_name ->
        let w = Vp_benchmarks.Tpch.workload_prefix ~sf:Common.sf ~k table_name in
        if Workload.query_count w > 0 then begin
          let n = Table.attribute_count (Workload.table w) in
          let request = Vp_cost.Io_model.request Common.disk w in
          let r = Partitioner.exec a request in
          column_cost := !column_cost +. request.cost (Partitioning.column n);
          layout_cost := !layout_cost +. r.Partitioner.Response.cost
        end)
      Vp_benchmarks.Tpch.table_names;
    100.0 *. (!column_cost -. !layout_cost) /. !column_cost
  in
  let hc = List.map (improvement hillclimb) ks in
  let na = List.map (improvement navathe) ks in
  Vp_report.Chart.series
    ~title:
      "Figure 7: Improvement over Column when re-optimizing for the first k \
       queries (%)\n\
       (paper: HillClimb starts ~24% and settles ~6.5%; Navathe positive \
       only for k <= 3, negative afterwards)"
    ~x_label:"k"
    ~xs:(List.map string_of_int ks)
    [ ("HillClimb %", hc); ("Navathe %", na) ]

let lineitem_prefix k =
  Vp_benchmarks.Tpch.workload_prefix ~sf:Common.sf ~k "lineitem"

let table3 () =
  let ks = [ 1; 2; 3; 4; 5; 6 ] in
  let row_for (a : Partitioner.t) =
    a.Partitioner.name
    :: List.map
         (fun k ->
           let w = lineitem_prefix k in
           if Workload.query_count w = 0 then "-"
           else begin
             let r = Partitioner.exec a (Vp_cost.Io_model.request Common.disk w) in
             Vp_report.Ascii.percent
               (Vp_metrics.Measures.unnecessary_data_read Common.disk w
                  r.Partitioner.Response.partitioning)
           end)
         ks
  in
  Vp_report.Ascii.table
    ~title:
      "Table 3: Unnecessary data reads over Lineitem for the first k queries\n\
       (paper: HillClimb 0% for all k; Navathe jumps to >30% from k=4)"
    ~headers:([ "Algorithm" ] @ List.map (fun k -> Printf.sprintf "k=%d" k) ks)
    [ row_for (algo "HillClimb"); row_for (algo "Navathe") ]

let table4 () =
  let ks = [ 1; 2; 3; 4; 5; 6 ] in
  let hillclimb = algo "HillClimb" in
  let hc_row =
    "HillClimb"
    :: List.map
         (fun k ->
           let w = lineitem_prefix k in
           if Workload.query_count w = 0 then "-"
           else begin
             let r = Partitioner.exec hillclimb (Vp_cost.Io_model.request Common.disk w) in
             Vp_report.Ascii.float3
               (Vp_metrics.Measures.avg_tuple_reconstruction_joins w
                  r.Partitioner.Response.partitioning)
           end)
         ks
  in
  let col_row =
    "Column"
    :: List.map
         (fun k ->
           let w = lineitem_prefix k in
           if Workload.query_count w = 0 then "-"
           else begin
             let n = Table.attribute_count (Workload.table w) in
             Vp_report.Ascii.float3
               (Vp_metrics.Measures.avg_tuple_reconstruction_joins w
                  (Partitioning.column n))
           end)
         ks
  in
  Vp_report.Ascii.table
    ~title:
      "Table 4: Average tuple-reconstruction joins per Lineitem row for the \
       first k queries\n\
       (paper: HillClimb 0.00 0.00 1.00 1.00 1.75 2.00; Column 6.00 6.00 \
       4.50 3.67 3.50 3.40)"
    ~headers:([ "Layout" ] @ List.map (fun k -> Printf.sprintf "k=%d" k) ks)
    [ hc_row; col_row ]
