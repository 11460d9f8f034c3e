open Vp_core

let log2 x = log x /. log 2.0

let total_weight workload =
  Array.fold_left
    (fun acc q -> acc +. Query.weight q)
    0.0 (Workload.queries workload)

(* Probability that a (weight-drawn) query references attribute [i]. *)
let p_ref workload i =
  let total = total_weight workload in
  if total = 0.0 then 0.0
  else
    Array.fold_left
      (fun acc q ->
        if Query.references_attr q i then acc +. Query.weight q else acc)
      0.0 (Workload.queries workload)
    /. total

let entropy_of_p p =
  let term x = if x <= 0.0 then 0.0 else -.x *. log2 x in
  term p +. term (1.0 -. p)

(* Probability that a query references both attributes. *)
let p_ref_both workload i j =
  let total = total_weight workload in
  if total = 0.0 then 0.0
  else
    Array.fold_left
      (fun acc q ->
        if Query.references_attr q i && Query.references_attr q j then
          acc +. Query.weight q
        else acc)
      0.0 (Workload.queries workload)
    /. total

let entropy workload i = entropy_of_p (p_ref workload i)

let mutual workload i j =
  let total = total_weight workload in
  if total = 0.0 then 0.0
  else begin
    (* Joint distribution over (ref_i, ref_j). *)
    let joint = Array.make 4 0.0 in
    Array.iter
      (fun q ->
        let bi = if Query.references_attr q i then 1 else 0 in
        let bj = if Query.references_attr q j then 1 else 0 in
        joint.((bi * 2) + bj) <- joint.((bi * 2) + bj) +. Query.weight q)
      (Workload.queries workload);
    let joint = Array.map (fun w -> w /. total) joint in
    let pi1 = joint.(2) +. joint.(3) and pj1 = joint.(1) +. joint.(3) in
    let marginal_i = [| 1.0 -. pi1; pi1 |] and marginal_j = [| 1.0 -. pj1; pj1 |] in
    let acc = ref 0.0 in
    for bi = 0 to 1 do
      for bj = 0 to 1 do
        let pxy = joint.((bi * 2) + bj) in
        let px = marginal_i.(bi) and py = marginal_j.(bj) in
        if pxy > 0.0 && px > 0.0 && py > 0.0 then
          acc := !acc +. (pxy *. log2 (pxy /. (px *. py)))
      done
    done;
    max 0.0 !acc
  end

let normalized workload i j =
  (* Equal access signatures: every query references both or neither. *)
  let same =
    Array.for_all
      (fun q -> Query.references_attr q i = Query.references_attr q j)
      (Workload.queries workload)
  in
  if same then 1.0
  else begin
    (* Mutual information is symmetric in correlation sign: two attributes
       accessed in exactly complementary query sets score as high as two
       always co-accessed ones. Only positive dependence makes a column
       group useful, so anti- or un-correlated pairs score zero. *)
    let positively_correlated =
      let p_joint = p_ref_both workload i j in
      p_joint > p_ref workload i *. p_ref workload j +. 1e-12
    in
    if not positively_correlated then 0.0
    else begin
      let hi = entropy workload i and hj = entropy workload j in
      let floor_h = min hi hj in
      if floor_h <= 1e-12 then 0.0
      else min 1.0 (mutual workload i j /. floor_h)
    end
  end

let interestingness workload group =
  let attrs = Attr_set.to_list group in
  match attrs with
  | [] | [ _ ] -> 0.0
  | _ ->
      let pairs = ref 0 and acc = ref 0.0 in
      let rec go = function
        | [] -> ()
        | i :: rest ->
            List.iter
              (fun j ->
                incr pairs;
                acc := !acc +. normalized workload i j)
              rest;
            go rest
      in
      go attrs;
      !acc /. float_of_int !pairs
